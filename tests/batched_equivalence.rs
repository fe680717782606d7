//! Batched-vs-serial equivalence on the shared `SiteRuntime` surface.
//!
//! The batched submission path (`SiteRuntime::submit_batch`) is an
//! optimization, not a semantic: a runtime fed a seeded operation stream in
//! chunks must end in exactly the state it reaches executing the same
//! stream one operation at a time — same per-operation outcomes, same
//! values on every site, same counter totals, and a WAL that recovers to
//! the same durable state. The suite checks that on every runtime:
//!
//! * `ReplicatedRuntime` (homeo and OPT) — where batching group-commits
//!   runs of within-treaty writes, so the WAL's transaction grouping
//!   differs but its *recovered state* must be byte-identical;
//! * the 2PC and local baselines — where batching only skips inbox
//!   round-trips, so even the WAL frame must be byte-identical;
//! * both cluster backends — `TcpCluster` (one reactor thread per site over
//!   loopback sockets) and `SimCluster` under a seeded fault schedule
//!   (Table 1 RTTs, jitter, reordering, retransmitted drops) — where a
//!   batch travels as one `Submit` frame; the protocol traffic, engine
//!   transactions and WAL frames must come out identical.

use homeostasis::baselines::{LocalRuntime, TwoPcRuntime};
use homeostasis::cluster::{ClusterConfig, SimCluster, SimNetConfig, TcpCluster};
use homeostasis::lang::ids::ObjId;
use homeostasis::protocol::{OptimizerConfig, ReplicatedMode};
use homeostasis::runtime::{OpOutcome, ReplicatedRuntime, SiteOp, SiteRuntime};
use homeostasis::sim::{DetRng, RttMatrix, Timer};
use homeostasis::store::Engine;

const SITES: usize = 3;
const ITEMS: usize = 10;
const INITIAL: i64 = 30;
const REFILL: i64 = 45;
const OPS: usize = 300;

fn item_obj(i: usize) -> ObjId {
    ObjId::new(format!("stock[{i}]"))
}

/// A seeded mixed stream: mostly orders, some increments, rare pins.
fn op_stream(seed: u64) -> Vec<(usize, SiteOp)> {
    let mut rng = DetRng::seed_from(seed);
    (0..OPS)
        .map(|_| {
            let site = rng.index(SITES);
            let obj = item_obj(rng.index(ITEMS));
            let op = match rng.index(10) {
                0..=6 => SiteOp::Order {
                    obj,
                    amount: rng.int_inclusive(1, 3),
                    refill_to: Some(REFILL),
                },
                7 | 8 => SiteOp::Increment {
                    obj,
                    amount: rng.int_inclusive(1, 4),
                },
                _ => SiteOp::ForceSync { obj },
            };
            (site, op)
        })
        .collect()
}

fn build(label: &str) -> Box<dyn SiteRuntime> {
    let homeo_mode = ReplicatedMode::Homeostasis {
        optimizer: Some(OptimizerConfig {
            lookahead: 8,
            futures: 2,
            seed: 13,
        }),
    };
    let mut runtime: Box<dyn SiteRuntime> = match label {
        "homeo" => {
            Box::new(ReplicatedRuntime::new(SITES, homeo_mode).with_timer(Timer::fixed_zero()))
        }
        "opt" => Box::new(
            ReplicatedRuntime::new(SITES, ReplicatedMode::EvenSplit)
                .with_timer(Timer::fixed_zero()),
        ),
        "2pc" => {
            let mut c = TwoPcRuntime::new(SITES);
            for i in 0..ITEMS {
                c.populate(item_obj(i), INITIAL);
            }
            return Box::new(c);
        }
        "local" => {
            let mut l = LocalRuntime::new(SITES);
            for i in 0..ITEMS {
                l.populate(item_obj(i), INITIAL);
            }
            return Box::new(l);
        }
        "cluster-tcp" => Box::new(TcpCluster::new(
            SITES,
            ClusterConfig::new(homeo_mode).with_timer(Timer::fixed_zero()),
        )),
        "cluster-sim-faulty" => Box::new(SimCluster::new(
            SITES,
            ClusterConfig::new(homeo_mode).with_timer(Timer::fixed_zero()),
            SimNetConfig::faulty(RttMatrix::table1().truncated(SITES), 0xFA17),
        )),
        other => panic!("unknown runtime label `{other}`"),
    };
    for i in 0..ITEMS {
        runtime.ensure_registered(&item_obj(i), INITIAL, 1);
    }
    runtime
}

/// Every runtime label under test. The sim backend runs a seeded fault
/// schedule; everything else is fault-free.
fn labels() -> [&'static str; 6] {
    [
        "homeo",
        "opt",
        "2pc",
        "local",
        "cluster-tcp",
        "cluster-sim-faulty",
    ]
}

/// Executes the stream one op at a time (`execute`).
fn run_serial(runtime: &mut dyn SiteRuntime, ops: &[(usize, SiteOp)]) -> Vec<OpOutcome> {
    ops.iter()
        .map(|(site, op)| runtime.execute(*site, op.clone()))
        .collect()
}

/// Executes the stream through `submit_batch`, chunking per-site runs of
/// varying length (1, 2, 5, 17, 64, cycling) so every chunk shape is hit.
fn run_batched(runtime: &mut dyn SiteRuntime, ops: &[(usize, SiteOp)]) -> Vec<OpOutcome> {
    let chunk_sizes = [1usize, 2, 5, 17, 64];
    let mut outcomes = Vec::with_capacity(ops.len());
    let mut cursor = 0;
    let mut next_size = 0;
    while cursor < ops.len() {
        // A batch targets one site: take the run of ops for the next op's
        // site, capped at the cycling chunk size.
        let site = ops[cursor].0;
        let cap = chunk_sizes[next_size % chunk_sizes.len()];
        next_size += 1;
        let mut batch = Vec::new();
        while cursor < ops.len() && ops[cursor].0 == site && batch.len() < cap {
            batch.push(ops[cursor].1.clone());
            cursor += 1;
        }
        outcomes.extend(runtime.submit_batch(site, &batch));
    }
    outcomes
}

/// The durable state a WAL frame recovers to.
fn recovered_state(frame: &[u8]) -> Vec<(String, i64)> {
    let engine = Engine::reopen_from_frame(frame).expect("intact frame");
    engine.snapshot().into_iter().collect()
}

#[test]
fn submit_batch_is_equivalent_to_one_at_a_time_on_every_runtime() {
    let ops = op_stream(0xBA7C);
    for label in labels() {
        let mut serial = build(label);
        let serial_outcomes = run_serial(serial.as_mut(), &ops);
        let mut batched = build(label);
        let batched_outcomes = run_batched(batched.as_mut(), &ops);

        assert_eq!(
            serial_outcomes, batched_outcomes,
            "{label}: per-operation outcomes diverged"
        );
        // Compare the logs while the client-driven stream is the only
        // traffic there has been: each polled operation ran to completion,
        // so both runs are quiescent and their per-site logs comparable.
        for site in 0..SITES {
            let serial_frame = serial.engine(site).wal_frame();
            let batched_frame = batched.engine(site).wal_frame();
            // The WAL must recover to byte-identical durable state on every
            // site, batched or not.
            assert_eq!(
                recovered_state(&serial_frame),
                recovered_state(&batched_frame),
                "{label}: site {site} recovers differently"
            );
            // Engine-level commit structure: identical frames for runtimes
            // without group commit; a shorter (never longer) log with it.
            match label {
                "homeo" | "opt" => assert!(
                    serial.engine(site).wal_len() >= batched.engine(site).wal_len(),
                    "{label}: group commit must not grow the log"
                ),
                _ => assert_eq!(
                    serial_frame, batched_frame,
                    "{label}: site {site} WAL frames must be byte-identical"
                ),
            }
        }
        // Fold outstanding deltas so every site holds the authoritative
        // state, then compare values through the shared surface.
        serial.synchronize(0);
        batched.synchronize(0);
        for i in 0..ITEMS {
            for site in 0..SITES {
                assert_eq!(
                    serial.value_at(site, &item_obj(i)),
                    batched.value_at(site, &item_obj(i)),
                    "{label}: item {i} at site {site} diverged"
                );
            }
        }
    }
}

#[test]
fn batched_runs_are_reproducible_under_the_fault_schedule() {
    // The sim backend consumes its seeded network RNG per frame; batching
    // must leave the frame sequence — and with it the whole run —
    // byte-for-byte reproducible.
    let run = || {
        let ops = op_stream(0x5EED);
        let mut runtime = build("cluster-sim-faulty");
        let outcomes = run_batched(runtime.as_mut(), &ops);
        runtime.synchronize(0);
        let values: Vec<i64> = (0..ITEMS)
            .map(|i| runtime.value_at(0, &item_obj(i)))
            .collect();
        let wals: Vec<Vec<u8>> = (0..SITES).map(|s| runtime.engine(s).wal_frame()).collect();
        (outcomes, values, wals)
    };
    assert_eq!(run(), run());
}
