//! Telemetry-layer integration: histogram accuracy against exact
//! sort-based quantiles under seeded workloads, merge algebra over random
//! partitions, top-bucket saturation, and — the property that makes the
//! instrumentation safe to leave on — **scrape non-interference**: a
//! cluster whose metrics endpoint is polled mid-run produces execution
//! fingerprints byte-identical to an unobserved run, on every backend.

use homeostasis::cluster::{ClientApi, ClusterConfig, SimCluster, SimNetConfig, TcpCluster};
use homeostasis::lang::ids::ObjId;
use homeostasis::protocol::{OptimizerConfig, ReplicatedMode};
use homeostasis::runtime::SiteOp;
use homeostasis::sim::{DetRng, RttMatrix, Timer};
use homeostasis::telemetry::Histogram;

/// Exact quantile with the same rank convention the histogram documents:
/// the `ceil(q·n)`-th smallest sample.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn histogram_quantiles_stay_within_bucket_error_across_distributions() {
    // Three shapes latency streams actually take: uniform noise, a long
    // exponential tail, and the bimodal fast-path/sync-path split.
    type Stream = Box<dyn Fn(&mut DetRng) -> u64>;
    let streams: Vec<(&str, Stream)> = vec![
        (
            "uniform",
            Box::new(|rng: &mut DetRng| rng.int_inclusive(1, 50_000) as u64),
        ),
        (
            "exponential",
            Box::new(|rng: &mut DetRng| (-(1.0 - rng.unit()).ln() * 2_000.0) as u64),
        ),
        (
            "bimodal",
            Box::new(|rng: &mut DetRng| {
                if rng.chance(0.9) {
                    rng.int_inclusive(20, 80) as u64
                } else {
                    rng.int_inclusive(100_000, 300_000) as u64
                }
            }),
        ),
    ];
    for (label, gen) in &streams {
        let mut rng = DetRng::seed_from(0x7E1E ^ label.len() as u64);
        let mut hist = Histogram::new();
        let mut exact: Vec<u64> = Vec::with_capacity(20_000);
        for _ in 0..20_000 {
            let v = gen(&mut rng);
            hist.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let truth = exact_quantile(&exact, q);
            let approx = hist.quantile(q);
            // The bucket holding the target rank is reported by its upper
            // bound, and bucket width is ≤ 1/16 of the lower bound (exact
            // below 16), so the estimate can only overshoot, by ≤ 6.25 %.
            assert!(
                approx >= truth && approx as f64 <= truth as f64 * (1.0 + 1.0 / 16.0) + 1.0,
                "{label} q={q}: histogram {approx} vs exact {truth}"
            );
        }
        assert_eq!(hist.quantile(0.0), exact[0], "{label}: exact minimum");
        assert_eq!(
            hist.quantile(1.0),
            *exact.last().unwrap(),
            "{label}: exact maximum"
        );
        assert_eq!(hist.count() as usize, exact.len());
    }
}

#[test]
fn merging_random_partitions_reproduces_the_whole_histogram() {
    // Split one seeded stream across k shards at random, merge the shards
    // back in a shuffled order: the result must equal recording everything
    // into one histogram directly — merge is associative and commutative,
    // so sharded telemetry aggregates exactly.
    let mut rng = DetRng::seed_from(0xACC0);
    for shards in [2usize, 3, 7] {
        let mut whole = Histogram::new();
        let mut parts = vec![Histogram::new(); shards];
        for _ in 0..5_000 {
            let v = (-(1.0 - rng.unit()).ln() * 10_000.0) as u64;
            whole.record(v);
            parts[rng.index(shards)].record(v);
        }
        // Merge in a seeded shuffled order, pairwise-nested differently
        // per iteration (fold left after a rotation).
        let rotation = rng.index(shards);
        parts.rotate_left(rotation);
        let mut merged = Histogram::new();
        for part in &parts {
            merged.merge(part);
        }
        assert_eq!(merged, whole, "{shards} shards, rotation {rotation}");
    }
}

#[test]
fn oversized_samples_saturate_without_losing_the_count() {
    let mut rng = DetRng::seed_from(0xB16);
    let mut hist = Histogram::new();
    for _ in 0..100 {
        // All beyond the 2^40 saturation point, in a random spread.
        hist.record((1u64 << 40) + rng.next_u64() % (1 << 50));
    }
    hist.record(u64::MAX);
    assert_eq!(hist.count(), 101);
    // Mid-quantiles land in the top bucket (≥ the saturation point) and
    // the extremes stay exact.
    assert!(hist.quantile(0.5) >= 1 << 40);
    assert_eq!(hist.quantile(1.0), u64::MAX);
    assert!(hist.min() >= 1 << 40);
}

const SITES: usize = 2;
const ITEMS: usize = 4;
const INITIAL: i64 = 20;
const OPS: usize = 300;

fn item_obj(i: usize) -> ObjId {
    ObjId::new(format!("stock[{i}]"))
}

fn mode() -> ReplicatedMode {
    ReplicatedMode::Homeostasis {
        optimizer: Some(OptimizerConfig {
            lookahead: 8,
            futures: 2,
            seed: 13,
        }),
    }
}

fn cluster(backend: &str) -> Box<dyn ClientApi> {
    let config = ClusterConfig::new(mode()).with_timer(Timer::fixed_zero());
    let mut runtime: Box<dyn ClientApi> = match backend {
        "sim" => Box::new(SimCluster::new(
            SITES,
            config,
            SimNetConfig::faulty(RttMatrix::table1().truncated(SITES), 0xC0DE),
        )),
        "tcp" => Box::new(TcpCluster::new(SITES, config)),
        other => panic!("unknown backend {other}"),
    };
    for i in 0..ITEMS {
        runtime.register_counter(item_obj(i), INITIAL, 1);
    }
    runtime
}

/// Runs the seeded stream, optionally scraping every site's metrics dump
/// every `scrape_every` operations, and fingerprints everything the
/// execution observably produces.
fn fingerprint(runtime: &mut dyn ClientApi, scrape_every: Option<usize>) -> (Vec<bool>, Vec<i64>) {
    let mut rng = DetRng::seed_from(0x0B5E);
    let mut synchronized = Vec::with_capacity(OPS);
    for n in 0..OPS {
        let (site, item) = (rng.index(SITES), rng.index(ITEMS));
        let out = runtime.execute(
            site,
            SiteOp::Order {
                obj: item_obj(item),
                amount: 1,
                refill_to: Some(INITIAL),
            },
        );
        assert!(out.committed);
        synchronized.push(out.synchronized);
        if scrape_every.is_some_and(|every| n % every == 0) {
            // The observation under test: a metrics scrape interleaved
            // with protocol traffic must not perturb the execution.
            let dumps = runtime.metrics_text();
            assert_eq!(dumps.len(), SITES);
        }
    }
    runtime.synchronize(0);
    let mut values = Vec::with_capacity(SITES * ITEMS);
    for site in 0..SITES {
        for item in 0..ITEMS {
            values.push(runtime.value_at(site, &item_obj(item)));
        }
    }
    (synchronized, values)
}

#[test]
fn metrics_scrapes_leave_execution_fingerprints_byte_identical() {
    for backend in ["sim", "tcp"] {
        let mut unobserved = cluster(backend);
        let mut observed = cluster(backend);
        let base = fingerprint(unobserved.as_mut(), None);
        let scraped = fingerprint(observed.as_mut(), Some(37));
        assert!(
            base.0.iter().any(|s| *s),
            "{backend}: the stream must exercise the violation path"
        );
        assert_eq!(base, scraped, "{backend}: scraping changed the execution");
        assert_eq!(
            unobserved.stats(),
            observed.stats(),
            "{backend}: scraping changed the statistics"
        );
    }
}

#[test]
fn a_live_site_dumps_nonzero_sync_phase_histograms() {
    let mut runtime = cluster("tcp");
    let _ = fingerprint(runtime.as_mut(), None);
    let dumps = runtime.metrics_text();
    // Coordinator-side round phases and participant-side freezes both ran
    // somewhere in the cluster; the wire dump must carry them.
    let total = |key: &str| -> f64 {
        dumps
            .iter()
            .flat_map(|text| text.lines())
            .filter_map(|line| {
                let mut parts = line.split_whitespace();
                (parts.next()? == key).then(|| parts.next()?.parse::<f64>().ok())?
            })
            .sum()
    };
    for key in [
        "homeo_sync_violation_round_micros_count",
        "homeo_sync_violation_collect_micros_count",
        "homeo_sync_violation_install_micros_count",
        "homeo_sync_freeze_micros_count",
        "homeo_local_commits_total",
        "homeo_synchronizations_total",
        "homeo_reactor_frames_in_total",
    ] {
        assert!(total(key) > 0.0, "`{key}` is zero across every site dump");
    }
}
