//! The per-layer pass: timings of calls into each layer's public functions.
//!
//! Every timing is the median of [`REPEATS`] repeats after one warm-up
//! repeat, each repeat a span in the trace. The inputs are fixed (they do
//! not depend on `--seed`), so a number moves only when the layer does.

use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use homeo_analysis::{JointSymbolicTable, SymbolicTable};
use homeo_cluster::worker::{Outbox, SiteWorker};
use homeo_cluster::{
    free_loopback_addrs, CounterMeta, FrameAssembler, Message, NodeOptions, SiteNode, TcpClient,
};
use homeo_lang::{parse_program, Database};
use homeo_protocol::{
    negotiate_allowances, negotiate_allowances_cached, ClusterConfig, NegotiationCache, ProgramSet,
    ReplicatedMode, WorkloadHints,
};
use homeo_runtime::{OpOutcome, ReplicatedRuntime, SiteOp, SiteRuntime};
use homeo_sim::Timer;
use homeo_solver::{LinExpr, LinearConstraint};
use homeo_store::Engine;
use homeo_telemetry::{Histogram, Registry};

use crate::gen::{
    counter_obj, general_obj, Traffic, Workload, GENERAL_INITIAL, GENERAL_PROGRAMS,
    HOMEOSTASIS_OPTIMIZER, SIM_INITIAL, TCP_SITES,
};
use crate::report::Metrics;
use crate::stats::median;
use crate::tcp::general_bundle;
use crate::trace::{SpanId, Tracer, NO_SPAN};

/// Timed repeats per metric (after one untimed warm-up repeat).
const REPEATS: usize = 5;
/// Counters of the in-process fixtures, as in the TCP counter workloads.
const COUNTERS: usize = 64;
const AMPLE: i64 = 1_000_000_000;

struct Pass<'a> {
    tracer: &'a mut Tracer,
    parent: SpanId,
    metrics: Metrics,
}

impl Pass<'_> {
    /// Times `f` [`REPEATS`] times after one warm-up call and stores the
    /// median duration divided by `per` (nanoseconds per reported unit
    /// times units of work per call).
    fn time(&mut self, name: &'static str, per: f64, mut f: impl FnMut()) {
        f();
        let mut nanos = Vec::with_capacity(REPEATS);
        for _ in 0..REPEATS {
            let span_start = self.tracer.now();
            let started = Instant::now();
            f();
            nanos.push(started.elapsed().as_nanos() as f64);
            let span_end = self.tracer.now();
            self.tracer
                .record(name, self.parent, 0, span_start, span_end);
        }
        self.metrics.insert(name, median(&nanos) / per);
    }
}

const NS: f64 = 1.0;
const US: f64 = 1e3;
const MS: f64 = 1e6;

fn homeostasis() -> ReplicatedMode {
    ReplicatedMode::Homeostasis {
        optimizer: Some(HOMEOSTASIS_OPTIMIZER),
    }
}

/// The counter workloads' frame: unit orders with refill on hot-ish keys.
fn order_frame(pool: &[homeo_lang::ObjId], batch: usize, salt: usize) -> Vec<SiteOp> {
    (0..batch)
        .map(|i| SiteOp::Order {
            obj: pool[(i * 7 + salt) % pool.len()].clone(),
            amount: 1,
            refill_to: Some(AMPLE),
        })
        .collect()
}

fn lang_and_analysis(pass: &mut Pass) {
    let bundle = general_bundle();
    let programs = GENERAL_PROGRAMS as f64;
    let source = bundle.sources.join("\n");
    pass.time("lang.tokenize_ns_per_txn", NS * programs * 50.0, || {
        for _ in 0..50 {
            black_box(homeo_lang::lexer::tokenize(black_box(&source)).expect("lexes"));
        }
    });
    pass.time("lang.parse_ns_per_txn", NS * programs * 50.0, || {
        for _ in 0..50 {
            black_box(parse_program(black_box(&source)).expect("parses"));
        }
    });
    let txns = parse_program(&source).expect("parses");
    pass.time("analysis.symbolic_us_per_txn", US * programs * 20.0, || {
        for _ in 0..20 {
            for txn in &txns {
                black_box(SymbolicTable::analyze(black_box(txn)));
            }
        }
    });
    let tables: Vec<SymbolicTable> = txns.iter().map(SymbolicTable::analyze).collect();
    pass.time("analysis.joint_build_ms", MS, || {
        black_box(JointSymbolicTable::build(black_box(&tables)));
    });
    let joint = JointSymbolicTable::build(&tables);
    pass.metrics
        .insert("analysis.joint_rows", joint.len() as f64);
    let db = Database::from_pairs((0..GENERAL_PROGRAMS).map(|i| (general_obj(i), GENERAL_INITIAL)));
    pass.time("analysis.find_row_us", US * 100.0, || {
        for _ in 0..100 {
            black_box(joint.find_row(black_box(&db)).expect("evaluates"));
        }
    });

    pass.time("protocol.program_register_ms", MS, || {
        black_box(ProgramSet::from_bundle(black_box(&bundle), TCP_SITES).expect("valid"));
    });
    let mut set = ProgramSet::from_bundle(&bundle, TCP_SITES).expect("valid");
    pass.time("protocol.program_negotiate_ms", MS, || {
        black_box(set.negotiate(black_box(&db), Timer::Wall));
    });
    pass.time("protocol.local_holds_us", US * 100.0, || {
        for _ in 0..100 {
            black_box(set.local_holds(0, black_box(&db)));
        }
    });
}

/// The fixed solver instances of the former criterion bench
/// (`crates/bench/benches/solver.rs`).
fn solver(pass: &mut Pass) {
    let mut chain = Vec::new();
    for i in 0..12 {
        chain.push(LinearConstraint::le(
            LinExpr::var(format!("x{i}")),
            LinExpr::var(format!("x{}", i + 1)),
        ));
    }
    chain.push(LinearConstraint::ge(
        LinExpr::var("x0"),
        LinExpr::constant(0),
    ));
    chain.push(LinearConstraint::le(
        LinExpr::var("x12"),
        LinExpr::constant(100),
    ));
    pass.time("solver.fm_check_us", US * 20.0, || {
        for _ in 0..20 {
            black_box(homeo_solver::check_feasible(black_box(&chain)));
        }
    });
    let hard = vec![LinearConstraint::ge(
        LinExpr::var("c0").plus(&LinExpr::var("c1")),
        LinExpr::constant(80),
    )];
    let soft: Vec<Vec<LinearConstraint>> = (0..40i64)
        .map(|s| {
            (0..2i64)
                .map(|k| {
                    LinearConstraint::le(
                        LinExpr::var(format!("c{k}")),
                        LinExpr::constant(100 - (s % 17) - k),
                    )
                })
                .collect()
        })
        .collect();
    pass.time("solver.maxsmt_us", US, || {
        black_box(homeo_solver::max_feasible_subset(
            black_box(&hard),
            black_box(&soft),
        ));
    });
}

fn negotiation(pass: &mut Pass) {
    let mode = homeostasis();
    for (name, sites) in [
        ("protocol.negotiate_cold_us.s2", 2),
        ("protocol.negotiate_cold_us.s3", 3),
        ("protocol.negotiate_cold_us.s4", 4),
    ] {
        let hints = WorkloadHints::uniform(sites);
        pass.time(name, US, || {
            black_box(negotiate_allowances(
                mode,
                &hints,
                sites,
                SIM_INITIAL,
                1,
                Timer::Wall,
            ));
        });
    }
    // Warm: templates cached and the previous split to start from, down a
    // draining counter's bases, none of which the memo has seen (each
    // repeat gets a fresh cache). A warm round costs microseconds while the
    // previous split still fits and a solver search once it does not, and
    // the search grows steeply as the headroom shrinks (at four sites 44 ms
    // at base 16, over a second at base 11), so the sequences stop early.
    for (name, sites, bases) in [
        (
            "protocol.negotiate_warm_us.s2",
            2,
            &[30i64, 22, 16, 11, 7][..],
        ),
        ("protocol.negotiate_warm_us.s4", 4, &[30i64, 22, 16][..]),
    ] {
        let hints = WorkloadHints::uniform(sites);
        let negotiate = |cache: &mut NegotiationCache, base: i64, previous: Option<&[i64]>| {
            negotiate_allowances_cached(mode, &hints, sites, base, 1, Timer::Wall, cache, previous)
                .0
        };
        let mut nanos = Vec::with_capacity(REPEATS);
        for _ in 0..REPEATS {
            let mut cache = NegotiationCache::new();
            let mut previous = negotiate(&mut cache, SIM_INITIAL, None);
            let span_start = pass.tracer.now();
            let started = Instant::now();
            for base in bases {
                previous = negotiate(&mut cache, *base, Some(&previous));
            }
            nanos.push(started.elapsed().as_nanos() as f64 / bases.len() as f64);
            let span_end = pass.tracer.now();
            pass.tracer
                .record(name, pass.parent, 0, span_start, span_end);
        }
        pass.metrics.insert(name, median(&nanos) / US);
    }
    let hints = WorkloadHints::uniform(2);
    let mut cache = NegotiationCache::new();
    let (previous, _) = negotiate_allowances_cached(
        mode,
        &hints,
        2,
        SIM_INITIAL,
        1,
        Timer::Wall,
        &mut cache,
        None,
    );
    pass.time("protocol.negotiate_memo_hit_ns", NS * 1_000.0, || {
        for _ in 0..1_000 {
            black_box(negotiate_allowances_cached(
                mode,
                &hints,
                2,
                SIM_INITIAL,
                1,
                Timer::Wall,
                &mut cache,
                Some(black_box(&previous)),
            ));
        }
    });
}

fn store(pass: &mut Pass) {
    let names: Vec<String> = (0..COUNTERS).map(|i| counter_obj(i).to_string()).collect();
    let engine = Engine::new();
    for name in &names {
        engine.write_logged(name, AMPLE).expect("uncontended");
    }
    let mut value = 0i64;
    pass.time("store.write_logged_ns", NS * 10_000.0, || {
        for i in 0..10_000 {
            value += 1;
            engine
                .write_logged(&names[i % COUNTERS], value)
                .expect("uncontended");
        }
    });
    let before = engine.wal_frame().len();
    for i in 0..1_000 {
        engine
            .write_logged(&names[i % COUNTERS], i as i64)
            .expect("uncontended");
    }
    let growth = engine.wal_frame().len() - before;
    pass.metrics
        .insert("store.wal_bytes_per_write", growth as f64 / 1_000.0);
    pass.time(
        "store.write_logged_batch_ns_per_write",
        NS * 64.0 * 200.0,
        || {
            for _ in 0..200 {
                value += 1;
                let writes: Vec<(&str, i64)> = names.iter().map(|n| (n.as_str(), value)).collect();
                engine.write_logged_batch(&writes).expect("uncontended");
            }
        },
    );
    pass.time("store.snapshot_us", US * 200.0, || {
        for _ in 0..200 {
            black_box(engine.snapshot());
        }
    });
    // Reopening replays the WAL, and replay is quadratic in its length at
    // the seed commit (20 ms at 10 k writes, 1.9 s at 100 k), so the fixture
    // is the size the pass can afford to reopen six times.
    let big = Engine::new();
    for i in 0..10_000 {
        big.write_logged(&names[i % COUNTERS], i as i64)
            .expect("uncontended");
    }
    let frame = big.wal_frame();
    pass.time("store.reopen_ms", MS, || {
        black_box(Engine::reopen_from_frame(black_box(&frame)).expect("a valid frame"));
    });
}

fn runtime(pass: &mut Pass) {
    let pool: Vec<_> = (0..COUNTERS).map(counter_obj).collect();
    let mut runtime = ReplicatedRuntime::new(TCP_SITES, ReplicatedMode::EvenSplit);
    for obj in &pool {
        runtime.register(obj.clone(), AMPLE, 1);
    }
    for (name, batch, calls) in [
        ("runtime.replicated_ns_per_op.b1", 1, 5_000),
        ("runtime.replicated_ns_per_op.b64", 64, 200),
    ] {
        let frames: Vec<Vec<SiteOp>> = (0..8).map(|salt| order_frame(&pool, batch, salt)).collect();
        pass.time(name, NS * (batch * calls) as f64, || {
            for call in 0..calls {
                black_box(runtime.submit_batch(call % TCP_SITES, &frames[call % frames.len()]));
            }
        });
    }
}

fn codec(pass: &mut Pass) {
    let pool: Vec<_> = (0..COUNTERS).map(counter_obj).collect();
    let mut scratch = Vec::new();
    for (batch, calls, encode, decode, bytes) in [
        (
            1usize,
            5_000usize,
            "cluster.msg.encode_submit_ns_per_op.b1",
            "cluster.msg.decode_submit_ns_per_op.b1",
            "cluster.msg.submit_bytes_per_op.b1",
        ),
        (
            64,
            200,
            "cluster.msg.encode_submit_ns_per_op.b64",
            "cluster.msg.decode_submit_ns_per_op.b64",
            "cluster.msg.submit_bytes_per_op.b64",
        ),
    ] {
        let ops = order_frame(&pool, batch, 0);
        let per = NS * (batch * calls) as f64;
        pass.time(encode, per, || {
            for _ in 0..calls {
                black_box(Message::encode_submit_into(black_box(&ops), &mut scratch));
            }
        });
        let frame = Message::encode_submit_into(&ops, &mut scratch);
        pass.metrics
            .insert(bytes, frame.len() as f64 / batch as f64);
        pass.time(decode, per, || {
            for _ in 0..calls {
                black_box(Message::decode(black_box(&frame)).expect("a valid frame"));
            }
        });
    }
    let reply = Message::PollReply {
        outcomes: vec![OpOutcome::local_commit()],
    };
    pass.time("cluster.msg.encode_reply_ns_per_op", NS * 5_000.0, || {
        for _ in 0..5_000 {
            black_box(black_box(&reply).encode_into(&mut scratch));
        }
    });
    // A 64 KiB read's worth of singleton frames through the reassembler.
    let frame = Message::encode_submit_into(&order_frame(&pool, 1, 0), &mut scratch);
    let frames = (64 * 1024) / frame.len();
    let buffer: Vec<u8> = frame
        .iter()
        .copied()
        .cycle()
        .take(frames * frame.len())
        .collect();
    pass.time(
        "cluster.msg.assembler_ns_per_frame",
        NS * frames as f64,
        || {
            let mut assembler = FrameAssembler::new();
            assembler.push(black_box(&buffer));
            while let Some(frame) = assembler.next_frame().expect("valid frames") {
                black_box(frame);
            }
        },
    );
}

fn worker(pass: &mut Pass) {
    let pool: Vec<_> = (0..COUNTERS).map(counter_obj).collect();
    let engine = Arc::new(Engine::new());
    let mut worker = SiteWorker::new(
        0,
        TCP_SITES,
        ReplicatedMode::EvenSplit,
        WorkloadHints::uniform(TCP_SITES),
        Timer::Wall,
        engine.clone(),
    );
    for obj in &pool {
        engine
            .write_logged(obj.as_str(), AMPLE)
            .expect("uncontended");
        worker.install_counter(CounterMeta {
            obj: obj.clone(),
            base: AMPLE,
            lower_bound: 1,
            members: (0..TCP_SITES).collect(),
            allowances: vec![-(AMPLE / 2 - 1); TCP_SITES],
        });
    }
    let mut outbox: Outbox = Vec::new();
    for (name, batch, calls) in [
        ("cluster.worker.submit_ns_per_op.b1", 1, 5_000),
        ("cluster.worker.submit_ns_per_op.b64", 64, 200),
    ] {
        let frames: Vec<Vec<SiteOp>> = (0..8).map(|salt| order_frame(&pool, batch, salt)).collect();
        pass.time(name, NS * (batch * calls) as f64, || {
            for call in 0..calls {
                worker.submit_batch(frames[call % frames.len()].iter().cloned(), &mut outbox);
                black_box(worker.take_completed());
                outbox.clear();
            }
        });
    }
}

/// Round trips against an in-process [`SiteNode`]: the reactor's floor
/// under a client-observed latency.
fn reactor(pass: &mut Pass) -> io::Result<()> {
    let addrs = free_loopback_addrs(1)?;
    let config = ClusterConfig::new(ReplicatedMode::EvenSplit);
    let node = SiteNode::bind(NodeOptions::new(0, addrs, config))?;
    let mut client = TcpClient::connect(node.addr())?;
    let obj = counter_obj(0);
    client.seed(CounterMeta {
        obj: obj.clone(),
        base: AMPLE,
        lower_bound: 1,
        members: vec![0],
        allowances: vec![-(AMPLE - 1)],
    })?;
    let mut failure = None;
    pass.time("cluster.reactor.noop_rtt_us", US * 500.0, || {
        for _ in 0..500 {
            if let Err(e) = client.stats() {
                failure = Some(e);
            }
        }
    });
    let op = [SiteOp::Order {
        obj,
        amount: 1,
        refill_to: Some(AMPLE),
    }];
    pass.time("cluster.reactor.submit_rtt_us.b1", US * 500.0, || {
        for _ in 0..500 {
            let reply = client.submit_batch(&op).and_then(|()| client.poll());
            match reply {
                Ok(outcomes) if outcomes.len() == 1 && outcomes[0].committed => {}
                Ok(_) => failure = Some(io::Error::other("the probe order did not commit")),
                Err(e) => failure = Some(e),
            }
        }
    });
    drop(client);
    drop(node); // stops and joins the reactor thread
    failure.map_or(Ok(()), Err)
}

fn telemetry(pass: &mut Pass) {
    let mut hist = Histogram::new();
    let mut value = 1u64;
    pass.time("telemetry.hist_record_ns", NS * 100_000.0, || {
        for _ in 0..100_000 {
            value = value.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(value >> 44);
        }
    });
    black_box(hist.count());
    // A registry the size of a site's: ten histograms, seven counters.
    let mut registry = Registry::new();
    for i in 0..10 {
        let id = registry.histogram(&format!("bench_hist_{i}_micros"));
        for v in 0..1_000u64 {
            registry.observe(id, v * (i + 1));
        }
    }
    for i in 0..7 {
        let id = registry.counter(&format!("bench_counter_{i}_total"));
        registry.add(id, i);
    }
    pass.time("telemetry.render_us", US * 20.0, || {
        for _ in 0..20 {
            black_box(registry.render());
        }
    });
}

/// Runs the whole pass; returns every timed per-layer metric.
pub fn run(tracer: &mut Tracer) -> io::Result<Metrics> {
    let parent = tracer.open("layers", NO_SPAN);
    let mut pass = Pass {
        tracer,
        parent,
        metrics: Metrics::new(),
    };
    lang_and_analysis(&mut pass);
    solver(&mut pass);
    negotiation(&mut pass);
    store(&mut pass);
    runtime(&mut pass);
    codec(&mut pass);
    worker(&mut pass);
    reactor(&mut pass)?;
    telemetry(&mut pass);
    let metrics = pass.metrics;
    tracer.close(parent);
    Ok(metrics)
}

/// Sum of the layers a committed operation of `workload` passes through in
/// a daemon, in microseconds per operation: frame reassembly, decode and
/// the reply encode, plus — for counter traffic — the worker submit (which
/// includes the engine write), or — for program traffic — the per-operation
/// snapshot and treaty check and the synchronizing share's renegotiation at
/// every site. `None` for the simulated workload, which has no daemon.
pub fn layers_us_per_op(workload: Workload, layers: &Metrics, sync_ratio: f64) -> Option<f64> {
    let shape = workload.tcp_shape()?;
    let get = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let batch = shape.batch as f64;
    let (decode, submit) = if shape.batch == 1 {
        (
            get("cluster.msg.decode_submit_ns_per_op.b1"),
            get("cluster.worker.submit_ns_per_op.b1"),
        )
    } else {
        (
            get("cluster.msg.decode_submit_ns_per_op.b64"),
            get("cluster.worker.submit_ns_per_op.b64"),
        )
    };
    // Two frames in per `Submit` (it and its `PollRequest`), one reply out.
    let per_frame =
        2.0 * get("cluster.msg.assembler_ns_per_frame") + get("cluster.msg.encode_reply_ns_per_op");
    let wire_us = (decode + per_frame / batch) / 1e3;
    Some(match shape.traffic {
        Traffic::Counters { .. } => wire_us + submit / 1e3,
        Traffic::Programs => {
            wire_us
                + get("store.snapshot_us")
                + get("protocol.local_holds_us")
                + sync_ratio * TCP_SITES as f64 * get("protocol.program_negotiate_ms") * 1e3
        }
    })
}
