//! The batched-execution throughput suite (`reproduce bench`).
//!
//! The paper's headline claim is that the common path runs at memory speed:
//! while treaties hold, a site commits without coordination. This suite
//! measures exactly that path on the real clock — committed operations per
//! wall-clock second through [`SiteRuntime::submit_batch`] — sweeping the
//! batch size over every execution mode plus the loopback-TCP cluster (one
//! wire frame and one socket round trip per batch). The resulting
//! [`Figure`] (id `bench`) is what `reproduce --json` serializes
//! and what CI's `bench-smoke` job gates against
//! `crates/bench/baseline.json`: a cell regressing to below half its
//! baseline value fails the build.
//!
//! The workload is the Listing 1 order stream over a pool of counters with
//! ample headroom, so synchronizations are rare and the number measures the
//! fast path (batch=1) against the amortized path (group commit / one wire
//! frame per batch). Wall-clock numbers are inherently machine-dependent;
//! the baseline values are deliberately conservative floors, not targets.

use std::time::Instant;

use homeo_baselines::{LocalRuntime, TwoPcRuntime};
use homeo_cluster::{ClusterConfig, ProgramBundle, TcpCluster};
use homeo_lang::ids::ObjId;
use homeo_lang::{programs, Database};
use homeo_protocol::{Loc, OptimizerConfig, ReplicatedMode};
use homeo_runtime::{drive_open_loop, OpenLoopConfig, ReplicatedRuntime, SiteOp, SiteRuntime};
use homeo_sim::{DetRng, Timer};

use crate::figures::Effort;
use crate::report::Figure;

/// The swept batch sizes.
pub const BATCH_SIZES: [usize; 4] = [1, 8, 64, 256];

/// The swept execution modes, in column order. `cluster-tcp` pays a real
/// loopback-socket round trip per poll, so its cells measure the wire
/// (frame encode + syscalls + kernel buffering), not just the engine.
pub const MODES: [&str; 5] = ["homeo", "opt", "2pc", "local", "cluster-tcp"];

/// Sites under load in every cell.
const SITES: usize = 2;
/// Counters in the pool.
const ITEMS: usize = 64;
/// Hot counters: like the paper's TPC-C hotness parameter, most traffic
/// concentrates on a few counters, which is exactly the shape batching
/// amortizes (a batch's repeated touches of a hot counter fold into one
/// group-committed write).
const HOT_ITEMS: usize = 4;
/// Percent of operations that hit a hot counter.
const HOTNESS: f64 = 0.8;
/// Initial value / refill level: large enough that a measurement window
/// almost never violates a treaty (the suite measures the common path).
const INITIAL: i64 = 1_000_000_000;

fn stock(i: usize) -> ObjId {
    ObjId::new(format!("stock[{i}]"))
}

fn build_mode(mode: &str) -> Box<dyn SiteRuntime> {
    match mode {
        "homeo" => Box::new(
            ReplicatedRuntime::new(
                SITES,
                ReplicatedMode::Homeostasis {
                    optimizer: Some(OptimizerConfig {
                        lookahead: 10,
                        futures: 2,
                        seed: 21,
                    }),
                },
            )
            .with_timer(Timer::fixed_zero()),
        ),
        "opt" => Box::new(
            ReplicatedRuntime::new(SITES, ReplicatedMode::EvenSplit)
                .with_timer(Timer::fixed_zero()),
        ),
        "2pc" => Box::new(TwoPcRuntime::new(SITES)),
        "local" => Box::new(LocalRuntime::new(SITES)),
        "cluster-tcp" => Box::new(TcpCluster::new(
            SITES,
            ClusterConfig::new(ReplicatedMode::EvenSplit).with_timer(Timer::fixed_zero()),
        )),
        other => panic!("unknown bench mode `{other}`"),
    }
}

fn register_pool(runtime: &mut dyn SiteRuntime) {
    for i in 0..ITEMS {
        runtime.ensure_registered(&stock(i), INITIAL, 1);
    }
    // The baselines have no registration concept; populate their replicas
    // through the same surface the workloads use.
    if runtime.value_at(0, &stock(0)) == 0 {
        panic!("counter population failed");
    }
}

/// General-path columns: registered `L++` programs executed as
/// [`SiteOp::Transaction`] batches over loopback TCP. Where the [`MODES`]
/// cells measure the replicated-counter fast path, these measure the full
/// pipeline the programs ride — guard selection against the joint symbolic
/// table, program execution, treaty check — per committed operation.
pub const GENERAL_MODES: [&str; 1] = ["general-tcp"];

/// Programs in the general-path pool. The joint symbolic table is the
/// cross product of the per-program tables (`2^K` rows for `K` two-branch
/// order programs), so this pool stays narrow where the counter pool is
/// wide.
const GENERAL_PROGRAMS: usize = 8;

fn general_obj(i: usize) -> ObjId {
    ObjId::new(format!("gstock[{i}]"))
}

/// The general-path fixture: one order program per object, objects spread
/// round-robin over the sites, the same ample headroom as the counter pool.
/// The bundle registers no optimizer, so every negotiation installs
/// Theorem 4.3's default configuration: each local treaty holds its objects
/// at their current values, every order violates it, and each op is a
/// synchronization round. The cells measure what a general round costs,
/// not the treaty-holding path.
fn general_bundle() -> ProgramBundle {
    let objects: Vec<ObjId> = (0..GENERAL_PROGRAMS).map(general_obj).collect();
    let txns: Vec<_> = objects
        .iter()
        .map(|o| programs::order_for_object(o.clone(), INITIAL))
        .collect();
    let loc = Loc::from_pairs(
        objects
            .iter()
            .enumerate()
            .map(|(i, o)| (o.clone(), i % SITES)),
    );
    let initial = Database::from_pairs(objects.iter().map(|o| (o.clone(), INITIAL)));
    ProgramBundle::from_transactions(&txns, &loc, &initial, None)
}

/// Measures one general-path cell: committed transactions per wall-clock
/// second through `submit_batch` chunks of `batch` [`SiteOp::Transaction`]
/// operations, each issued at its home site (Assumption 3.1).
fn measure_general_cell(mode: &str, batch: usize, min_secs: f64) -> f64 {
    let config = || ClusterConfig::new(ReplicatedMode::EvenSplit).with_timer(Timer::fixed_zero());
    let mut runtime = match mode {
        "general-tcp" => TcpCluster::new(SITES, config()),
        other => panic!("unknown general bench mode `{other}`"),
    };
    assert_eq!(
        runtime.register_program(&general_bundle()),
        GENERAL_PROGRAMS as u64,
        "general-path program registration"
    );
    // Transaction indices homed at each site (index i writes gstock[i],
    // which lives at site i % SITES). The first local program is the hot
    // one, mirroring the counter cells' hot-key shape.
    let by_site: Vec<Vec<usize>> = (0..SITES)
        .map(|site| (site..GENERAL_PROGRAMS).step_by(SITES).collect())
        .collect();
    let mut rng = DetRng::seed_from(0x6E47 ^ batch as u64);
    let mut ops = Vec::with_capacity(batch);
    let mut issue = |runtime: &mut TcpCluster, site: usize, rng: &mut DetRng| -> u64 {
        let local = &by_site[site];
        ops.clear();
        for _ in 0..batch {
            let index = if rng.chance(HOTNESS) {
                local[0]
            } else {
                local[rng.index(local.len())]
            };
            ops.push(SiteOp::Transaction { index });
        }
        let outcomes = runtime.submit_batch(site, &ops);
        outcomes.iter().filter(|o| o.committed).count() as u64
    };
    for site in 0..SITES {
        issue(&mut runtime, site, &mut rng);
    }
    let mut committed = 0u64;
    let started = Instant::now();
    let mut site = 0;
    loop {
        committed += issue(&mut runtime, site, &mut rng);
        site = (site + 1) % SITES;
        if site == 0 && started.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    committed as f64 / started.elapsed().as_secs_f64()
}

/// Populates baselines (2pc / local) that ignore `ensure_registered`.
fn populate_baseline(runtime: &mut dyn SiteRuntime, mode: &str) {
    match mode {
        "2pc" | "local" => {
            // Reach through the trait object is not possible here; both
            // baselines implement population via their own methods, so the
            // suite writes the initial values through per-site engines.
            for site in 0..runtime.sites() {
                for i in 0..ITEMS {
                    runtime
                        .engine(site)
                        .write_logged(stock(i).as_str(), INITIAL)
                        .expect("population write cannot conflict");
                }
            }
        }
        _ => {}
    }
}

/// Measures one cell: committed operations per wall-clock second through
/// `submit_batch` chunks of `batch` operations, running until `min_secs`
/// of measured time has accumulated.
fn measure_cell(mode: &str, batch: usize, min_secs: f64) -> f64 {
    let mut runtime = build_mode(mode);
    populate_baseline(runtime.as_mut(), mode);
    register_pool(runtime.as_mut());
    // Interned object pool: the generator must not pay a string allocation
    // per operation, or the workload-side cost masks the runtime-side
    // batching effect under measurement.
    let pool: Vec<ObjId> = (0..ITEMS).map(stock).collect();
    let mut rng = DetRng::seed_from(0xB47C ^ batch as u64);
    let mut ops = Vec::with_capacity(batch);
    let mut issue = |runtime: &mut dyn SiteRuntime, site: usize, rng: &mut DetRng| -> u64 {
        ops.clear();
        for _ in 0..batch {
            let item = if rng.chance(HOTNESS) {
                rng.index(HOT_ITEMS)
            } else {
                HOT_ITEMS + rng.index(ITEMS - HOT_ITEMS)
            };
            ops.push(SiteOp::Order {
                obj: pool[item].clone(),
                amount: 1,
                refill_to: Some(INITIAL),
            });
        }
        let outcomes = runtime.submit_batch(site, &ops);
        outcomes.iter().filter(|o| o.committed).count() as u64
    };
    // Warm up: one batch per site primes caches and lock tables.
    for site in 0..SITES {
        issue(runtime.as_mut(), site, &mut rng);
    }
    let mut committed = 0u64;
    let started = Instant::now();
    let mut site = 0;
    loop {
        committed += issue(runtime.as_mut(), site, &mut rng);
        site = (site + 1) % SITES;
        // Check the clock once per round-robin sweep, not per batch.
        if site == 0 && started.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    committed as f64 / started.elapsed().as_secs_f64()
}

/// Modes that also get open-loop latency percentile columns: the paper
/// system on the in-process fast path and on real sockets.
pub const LATENCY_MODES: [&str; 2] = ["homeo", "cluster-tcp"];

/// Fraction of a cell's measured closed-loop throughput offered as the
/// open-loop rate — far enough below saturation that the percentiles
/// measure service latency plus moderate queueing, not a divergent queue.
const OPEN_LOOP_FRACTION: f64 = 0.6;

/// Latency percentiles in milliseconds — `(p50, p99, p999)` — of one mode
/// under open-loop Poisson arrivals at `rate` ops/s, same workload shape
/// as the throughput cells. Latency is measured per batch from its
/// scheduled arrival, so queueing delay is charged to the requests.
fn measure_latency(mode: &str, batch: usize, rate: f64, min_secs: f64) -> (f64, f64, f64) {
    let mut runtime = build_mode(mode);
    populate_baseline(runtime.as_mut(), mode);
    register_pool(runtime.as_mut());
    let pool: Vec<ObjId> = (0..ITEMS).map(stock).collect();
    // Enough offered operations to fill the measurement window at `rate`,
    // floored so even tiny quick-effort cells produce percentiles, capped
    // so a fast machine does not stretch the suite.
    let total_ops = ((rate * min_secs) as usize).clamp(batch * 16, 200_000);
    let config = OpenLoopConfig {
        rate,
        total_ops,
        batch,
        seed: 0x17EA ^ batch as u64,
    };
    let report = drive_open_loop(&config, runtime.as_mut(), &mut |_site, rng, ops| {
        for _ in 0..batch {
            let item = if rng.chance(HOTNESS) {
                rng.index(HOT_ITEMS)
            } else {
                HOT_ITEMS + rng.index(ITEMS - HOT_ITEMS)
            };
            ops.push(SiteOp::Order {
                obj: pool[item].clone(),
                amount: 1,
                refill_to: Some(INITIAL),
            });
        }
    });
    (
        report.quantile_ms(0.50),
        report.quantile_ms(0.99),
        report.quantile_ms(0.999),
    )
}

/// Generates the `bench` figure: ops/sec for every batch size × mode cell,
/// general-path ops/sec for the [`GENERAL_MODES`] (registered programs as
/// `SiteOp::Transaction` batches), plus open-loop latency percentile
/// columns (p50/p99/p999 ms) for the [`LATENCY_MODES`], offered at 60% of
/// each cell's own measured closed-loop throughput. The general and
/// percentile columns are additive: baseline gates match columns by name,
/// so older baselines keep gating the counter throughput cells only.
pub fn suite(effort: Effort) -> Figure {
    let min_secs = match effort {
        Effort::Quick => 0.05,
        Effort::Full => 0.5,
    };
    let mut columns = vec!["batch".to_string()];
    columns.extend(MODES.iter().map(|m| m.to_string()));
    columns.extend(GENERAL_MODES.iter().map(|m| m.to_string()));
    for mode in LATENCY_MODES {
        for p in ["p50", "p99", "p999"] {
            columns.push(format!("{mode}_{p}_ms"));
        }
    }
    let mut fig = Figure::new(
        "bench",
        "Batched submission throughput (committed ops/s, wall clock, 2 sites, \
         64 counters, 80% of traffic on 4 hot counters), general-path \
         throughput (registered L++ programs as transaction batches), and \
         open-loop latency percentiles (ms) at 60% of measured throughput",
        columns,
    );
    for &batch in &BATCH_SIZES {
        let mut values: Vec<f64> = MODES
            .iter()
            .map(|mode| measure_cell(mode, batch, min_secs))
            .collect();
        values.extend(
            GENERAL_MODES
                .iter()
                .map(|mode| measure_general_cell(mode, batch, min_secs)),
        );
        for mode in LATENCY_MODES {
            let col = MODES.iter().position(|m| *m == mode).expect("known mode");
            let rate = (values[col] * OPEN_LOOP_FRACTION).max(1_000.0);
            let (p50, p99, p999) = measure_latency(mode, batch, rate, min_secs);
            values.extend([p50, p99, p999]);
        }
        fig.push_row(format!("{batch}"), values);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_suite_produces_a_full_grid_of_positive_numbers() {
        let fig = suite(Effort::Quick);
        assert_eq!(fig.id, "bench");
        assert_eq!(fig.rows.len(), BATCH_SIZES.len());
        // label + throughput per mode (counter + general) + p50/p99/p999
        // per latency mode.
        let throughput_cols = MODES.len() + GENERAL_MODES.len();
        assert_eq!(
            fig.columns.len(),
            throughput_cols + 1 + 3 * LATENCY_MODES.len()
        );
        for (label, values) in &fig.rows {
            assert_eq!(values.len(), throughput_cols + 3 * LATENCY_MODES.len());
            for (mode, v) in MODES.iter().chain(GENERAL_MODES.iter()).zip(values) {
                assert!(
                    v.is_finite() && *v > 0.0,
                    "batch {label} mode {mode}: throughput {v}"
                );
            }
            // The percentile tail is finite, non-negative and ordered
            // (p50 ≤ p99 ≤ p999) for each latency mode.
            for (i, mode) in LATENCY_MODES.iter().enumerate() {
                let tail = &values[throughput_cols + 3 * i..throughput_cols + 3 * (i + 1)];
                assert!(
                    tail.iter().all(|v| v.is_finite() && *v >= 0.0),
                    "batch {label} mode {mode}: latency {tail:?}"
                );
                assert!(
                    tail[0] <= tail[1] && tail[1] <= tail[2],
                    "batch {label} mode {mode}: percentiles out of order {tail:?}"
                );
            }
        }
    }

    /// The tentpole claim: amortizing per-operation bookkeeping over a
    /// 64-op batch at least doubles homeostasis fast-path throughput.
    /// Wall-clock-sensitive, so it runs in the release-mode CI test pass
    /// only (debug timings are not what the gate is about), with two
    /// half-second samples per cell (best-of) to ride out scheduler noise
    /// on shared runners.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "wall-clock assertion; run in release")]
    fn homeo_batch_64_at_least_doubles_batch_1() {
        let best = |batch: usize| {
            (0..2)
                .map(|_| measure_cell("homeo", batch, 0.5))
                .fold(0.0f64, f64::max)
        };
        let single = best(1);
        let batched = best(64);
        assert!(
            batched >= 2.0 * single,
            "batch=64 must be ≥2× batch=1: {batched:.0} vs {single:.0} ops/s"
        );
    }
}
