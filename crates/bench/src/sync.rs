//! The synchronization-round cost suite (`reproduce sync`).
//!
//! Synchronization is the protocol's slow path: every treaty violation pays
//! a full negotiation (template instantiation + MaxSMT solve). This suite
//! measures what the cheap-synchronization machinery buys on that path,
//! over an identical 80/20-skewed order stream per row:
//!
//! * `cold` — [`SyncTuning::cold`]: every negotiation rebuilds its templates
//!   and runs the full solver (the pre-optimization reference).
//! * `warm` — [`SyncTuning::default`]: memoized templates
//!   ([`homeo_protocol::NegotiationCache`]) plus the warm-started solver
//!   seeded with the previous allowance split. Allowances are pinned
//!   byte-identical to `cold` (the `sync_equivalence` suite), so the row
//!   isolates pure solver-cost savings.
//! * `adaptive` — [`SyncTuning::adaptive`]: warm starts plus the
//!   demand-adaptive control loop (consumption EWMA feeding the optimizer's
//!   site weights, proactive re-splits before the violation).
//!
//! Columns: negotiation counts split violation-triggered vs proactive, the
//! proactive share, the per-round solver-cost p50 (violation rounds, whole
//! µs as the runtime reports it), and two cross-row ratios the CI baseline
//! pins — `warm_speedup` (the p50 wall time, in nanoseconds, of an
//! operation that triggers a violation round, `cold` over the row's; the
//! warm-start claim) and `violation_cut_pct` (percent fewer
//! violation-triggered rounds than `cold`; the demand-adaptive claim). The
//! `cold` row also carries `cold_s5_over_s2`: a cold [`negotiate_allowances`]
//! at five sites over one at two, each the median of fifteen calls. Treaty
//! solving is polynomial in the site count, so the ratio is a small constant
//! on any machine; the baseline pins a ceiling on it, which an elimination
//! that multiplies a counter's parallel bounds per site (the ratio was ~10⁴)
//! cannot meet.
//! And `lowheadroom_over_cold_s4`: at four sites, a warm negotiation once
//! the counter has drained to where no previous split fits (bases 11, 7, 4
//! and 2: each a MaxSMT search of tens of lemmas) over a cold one at base
//! 40, same estimator — what the tail of a negotiation costs relative to its
//! common case, which a probe that eliminates per deletion step or a
//! hitting-set search restarted per lemma multiplies by four or more.

use homeo_lang::ids::ObjId;
use std::hint::black_box;
use std::time::Instant;

use homeo_protocol::{
    negotiate_allowances, negotiate_allowances_cached, NegotiationCache, OptimizerConfig,
    ReplicatedMode, ReplicatedStats, SyncTuning, WorkloadHints,
};
use homeo_runtime::{ReplicatedRuntime, SiteOp, SiteRuntime};
use homeo_sim::{DetRng, Timer};

use crate::figures::Effort;
use crate::report::Figure;

/// Sites under load (site 0 receives the hot 80% of the traffic).
const SITES: usize = 2;
/// Counters in the pool.
const ITEMS: usize = 4;
/// Share of operations issued by the hot site.
const HOT_SITE_SHARE: f64 = 0.8;
/// Initial value / refill level: small enough that the stream violates
/// treaties continuously (this suite measures the slow path, the inverse
/// of the `bench` suite's ample-headroom setup).
const INITIAL: i64 = 60;
/// Operations issued in a row from one site (each submitted, and timed, on
/// its own).
const BATCH: usize = 16;
/// Timed calls behind each side of `cold_s5_over_s2` and
/// `lowheadroom_over_cold_s4` (after two untimed).
const COLD_REPEATS: usize = 15;
/// A draining counter's bases for `lowheadroom_over_cold_s4`: cold at the
/// first, warm down the rest, the last [`LOW_HEADROOM`] of them searches.
const DRAINING_BASES: [i64; 8] = [40, 30, 22, 16, 11, 7, 4, 2];
/// Low-headroom rounds at the end of [`DRAINING_BASES`].
const LOW_HEADROOM: usize = 4;

/// The optimizer settings every row negotiates with.
fn mode() -> ReplicatedMode {
    ReplicatedMode::Homeostasis {
        optimizer: Some(OptimizerConfig {
            lookahead: 10,
            futures: 2,
            seed: 21,
        }),
    }
}

fn stock(i: usize) -> ObjId {
    ObjId::new(format!("stock[{i}]"))
}

/// One row's raw measurements.
struct SyncRun {
    stats: ReplicatedStats,
    /// Per-round solver micros of every violation-triggered round, in
    /// completion order.
    solver_samples: Vec<f64>,
    /// Wall nanoseconds of every operation that triggered a violation round,
    /// from submit to outcome, in completion order.
    violation_nanos: Vec<f64>,
}

impl SyncRun {
    fn violation_syncs(&self) -> u64 {
        self.stats
            .synchronizations
            .saturating_sub(self.stats.proactive_negotiations)
    }
}

/// The median of `samples`, 0 for none.
fn p50(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    median(samples.to_vec())
}

/// Drives the identical seeded 80/20 order stream under one tuning.
fn run_tuning(tuning: SyncTuning, ops: usize) -> SyncRun {
    let mut runtime = ReplicatedRuntime::new(SITES, mode())
        .with_timer(Timer::Wall)
        .with_sync_tuning(tuning);
    for i in 0..ITEMS {
        runtime.register(stock(i), INITIAL, 1);
    }
    // The operation stream is a function of the seed alone (site choice and
    // counter choice consume the rng identically in every row), so the
    // three tunings see byte-identical workloads.
    let mut rng = DetRng::seed_from(0x5F7C);
    let pool: Vec<ObjId> = (0..ITEMS).map(stock).collect();
    let (mut solver_samples, mut violation_nanos) = (Vec::new(), Vec::new());
    let mut issued = 0;
    while issued < ops {
        let site = usize::from(!rng.chance(HOT_SITE_SHARE));
        // A batch's operations one at a time (the same outcomes, the batch
        // path only groups the WAL's commits), so a violation round's wall
        // time is its operation's.
        for _ in 0..BATCH {
            let op = SiteOp::Order {
                obj: pool[rng.index(ITEMS)].clone(),
                amount: 1,
                refill_to: Some(INITIAL),
            };
            let started = Instant::now();
            let outcome = runtime.submit_batch(site, std::slice::from_ref(&op))[0];
            let nanos = started.elapsed().as_nanos() as f64;
            if outcome.synchronized {
                solver_samples.push(outcome.solver_micros as f64);
                violation_nanos.push(nanos);
            }
        }
        issued += BATCH;
    }
    SyncRun {
        stats: runtime.stats,
        solver_samples,
        violation_nanos,
    }
}

/// Median wall time, in nanoseconds, of a cold negotiation of one full
/// counter ([`INITIAL`], lower bound 1) among `sites` uniform sites.
fn cold_negotiation_nanos(sites: usize) -> f64 {
    let hints = WorkloadHints::uniform(sites);
    let negotiate = || {
        let started = Instant::now();
        black_box(negotiate_allowances(
            mode(),
            &hints,
            sites,
            INITIAL,
            1,
            Timer::Wall,
        ));
        started.elapsed().as_nanos() as f64
    };
    negotiate();
    negotiate();
    median((0..COLD_REPEATS).map(|_| negotiate()).collect())
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall time of a low-headroom warm negotiation over that of the
/// cold one which starts the walk, one counter (lower bound 1) draining
/// down [`DRAINING_BASES`] among `sites` uniform sites, a fresh
/// [`NegotiationCache`] per walk so no round is a memo hit.
fn lowheadroom_over_cold(sites: usize) -> f64 {
    let hints = WorkloadHints::uniform(sites);
    let walk = || {
        let mut cache = NegotiationCache::new();
        let mut previous: Option<Vec<i64>> = None;
        let nanos = DRAINING_BASES.map(|base| {
            let started = Instant::now();
            let (allowances, _) = negotiate_allowances_cached(
                mode(),
                &hints,
                sites,
                base,
                1,
                Timer::Wall,
                &mut cache,
                previous.as_deref(),
            );
            let elapsed = started.elapsed().as_nanos() as f64;
            previous = Some(black_box(allowances));
            elapsed
        });
        let low = &nanos[nanos.len() - LOW_HEADROOM..];
        (nanos[0], low.iter().sum::<f64>() / LOW_HEADROOM as f64)
    };
    walk();
    walk();
    let (cold, low): (Vec<f64>, Vec<f64>) = (0..COLD_REPEATS).map(|_| walk()).unzip();
    median(low) / median(cold)
}

/// Generates the `sync` figure: negotiation counts and per-round solver
/// cost for every tuning row, plus the cross-row ratios the baseline pins.
pub fn suite(effort: Effort) -> Figure {
    let ops = match effort {
        Effort::Quick => 4_000,
        Effort::Full => 24_000,
    };
    let cold = run_tuning(SyncTuning::cold(), ops);
    let warm = run_tuning(SyncTuning::default(), ops);
    let adaptive = run_tuning(SyncTuning::adaptive(), ops);

    let cold_p50_nanos = p50(&cold.violation_nanos);
    let cold_violations = cold.violation_syncs();
    let mut fig = Figure::new(
        "sync",
        "Synchronization-round cost (2 sites, 80/20 site skew, 4 counters, \
         continuous violations; solver p50 over violation rounds, µs)",
        vec![
            "tuning".to_string(),
            "negotiations".to_string(),
            "violation_syncs".to_string(),
            "proactive_share_pct".to_string(),
            "solver_p50_us".to_string(),
            "warm_speedup".to_string(),
            "violation_cut_pct".to_string(),
            "cold_s5_over_s2".to_string(),
            "lowheadroom_over_cold_s4".to_string(),
        ],
    );
    // Properties of the solve, not of a tuning: on the `cold` row only.
    let cold_s5_over_s2 = cold_negotiation_nanos(5) / cold_negotiation_nanos(2);
    let lowheadroom_over_cold_s4 = lowheadroom_over_cold(4);
    for (label, run) in [("cold", &cold), ("warm", &warm), ("adaptive", &adaptive)] {
        let violations = run.violation_syncs();
        let speedup = cold_p50_nanos / p50(&run.violation_nanos);
        let cut = if cold_violations > 0 {
            100.0 * (1.0 - violations as f64 / cold_violations as f64)
        } else {
            0.0
        };
        let proactive_share = if run.stats.synchronizations > 0 {
            100.0 * run.stats.proactive_negotiations as f64 / run.stats.synchronizations as f64
        } else {
            0.0
        };
        let cold_only = |ratio: f64| if label == "cold" { ratio } else { f64::NAN };
        fig.push_row(
            label.to_string(),
            vec![
                run.stats.negotiations as f64,
                violations as f64,
                proactive_share,
                p50(&run.solver_samples),
                speedup,
                cut,
                cold_only(cold_s5_over_s2),
                cold_only(lowheadroom_over_cold_s4),
            ],
        );
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_suite_produces_the_three_tunings_with_finite_cells() {
        let fig = suite(Effort::Quick);
        assert_eq!(fig.id, "sync");
        assert_eq!(fig.rows.len(), 3);
        assert_eq!(fig.columns.len(), 9);
        for (label, values) in &fig.rows {
            assert_eq!(values.len(), 8, "row {label}");
            for (col, v) in fig.columns.iter().skip(1).zip(values) {
                let cold_only = col.contains("_over_") && label != "cold";
                assert!(v.is_finite() != cold_only, "{label} × {col}: {v}");
            }
        }
    }

    #[test]
    fn warm_and_cold_rows_negotiate_identically() {
        // The warm start is pinned byte-identical to the cold solve, so the
        // two rows must count the same violation-triggered rounds over the
        // identical seeded stream — only the solver cost may differ.
        let fig = suite(Effort::Quick);
        let row = |label: &str| {
            fig.rows
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, v)| v.clone())
                .expect("row present")
        };
        let cold = row("cold");
        let warm = row("warm");
        assert_eq!(cold[0], warm[0], "negotiations");
        assert_eq!(cold[1], warm[1], "violation rounds");
        let adaptive = row("adaptive");
        assert!(
            adaptive[2] > 0.0,
            "the adaptive row must run proactive rounds under 80/20 skew"
        );
    }
}
