//! Cold-vs-cached negotiation equivalence across every runtime.
//!
//! The cheap-synchronization machinery ([`SyncTuning`]) promises that the
//! template cache, the exact-result memo and the solver warm start are pure
//! performance: under [`SyncTuning::default`] every negotiation installs
//! allowances byte-identical to a cold solve, so executions under the two
//! tunings are indistinguishable — same per-operation outcomes, same
//! synchronization points, same final values, same statistics. This suite
//! pins that claim on the in-process [`ReplicatedRuntime`] and on both
//! cluster backends (the fault-injected deterministic simulation and real
//! loopback TCP sockets).
//!
//! The demand-adaptive loop ([`SyncTuning::adaptive`]) deliberately changes
//! *when* negotiations happen (proactive re-splits, drifted weights), so it
//! is not byte-identical to cold — instead it must preserve the protocol's
//! correctness promise: after a final synchronization, every replica agrees
//! with the serial decrement-or-refill oracle.

use homeostasis::cluster::{ClientApi, ClusterConfig, SimCluster, SimNetConfig, TcpCluster};
use homeostasis::lang::ids::ObjId;
use homeostasis::protocol::{OptimizerConfig, ReplicatedMode, SyncTuning};
use homeostasis::runtime::{ReplicatedRuntime, SiteOp, SiteRuntime};
use homeostasis::sim::{DetRng, RttMatrix, Timer};

const SITES: usize = 2;
const ITEMS: usize = 6;
const INITIAL: i64 = 30;
const OPS: usize = 600;
/// Share of operations issued by the hot site — the skew that makes the
/// demand-adaptive loop (and the warm start's repeated headrooms) matter.
const HOT_SHARE: f64 = 0.8;

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

/// The seeded 80/20-skewed operation stream: (site, item) pairs.
fn op_sequence(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = DetRng::seed_from(seed);
    (0..OPS)
        .map(|_| {
            let site = usize::from(!rng.chance(HOT_SHARE));
            (site, rng.index(ITEMS))
        })
        .collect()
}

/// Runs the stream and captures everything the execution observably
/// produces: the per-operation synchronization points and the final value of
/// every item at every site (after a closing synchronization).
fn fingerprint(runtime: &mut dyn SiteRuntime, ops: &[(usize, usize)]) -> (Vec<bool>, Vec<i64>) {
    let mut synchronized = Vec::with_capacity(ops.len());
    for &(site, item) in ops {
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

fn replicated(tuning: SyncTuning) -> ReplicatedRuntime {
    let mut runtime = ReplicatedRuntime::new(SITES, mode())
        .with_timer(Timer::fixed_zero())
        .with_sync_tuning(tuning);
    for i in 0..ITEMS {
        runtime.register(item_obj(i), INITIAL, 1);
    }
    runtime
}

fn cluster(backend: &str, tuning: SyncTuning) -> Box<dyn ClientApi> {
    let config = ClusterConfig::new(mode())
        .with_timer(Timer::fixed_zero())
        .with_tuning(tuning);
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

#[test]
fn warm_start_is_byte_identical_to_cold_on_the_replicated_runtime() {
    let ops = op_sequence(0x51AC);
    let mut cold = replicated(SyncTuning::cold());
    let mut warm = replicated(SyncTuning::default());
    let cold_fp = fingerprint(&mut cold, &ops);
    let warm_fp = fingerprint(&mut warm, &ops);
    assert_eq!(cold.stats, warm.stats, "statistics diverged");
    assert!(
        cold.stats.synchronizations > 0,
        "the stream must exercise the violation path"
    );
    assert_eq!(cold_fp, warm_fp, "cold and warm executions diverged");
}

#[test]
fn warm_start_is_byte_identical_to_cold_on_every_cluster_backend() {
    let ops = op_sequence(0x51AD);
    for backend in ["sim", "tcp"] {
        let mut cold = cluster(backend, SyncTuning::cold());
        let mut warm = cluster(backend, SyncTuning::default());
        let cold_fp = fingerprint(cold.as_mut(), &ops);
        let warm_fp = fingerprint(warm.as_mut(), &ops);
        assert_eq!(cold.stats(), warm.stats(), "{backend}: statistics diverged");
        assert!(
            cold.stats().synchronizations > 0,
            "{backend}: the stream must exercise the violation path"
        );
        assert_eq!(cold_fp, warm_fp, "{backend}: executions diverged");
    }
}

/// The serial decrement-or-refill oracle of Listing 1.
fn serial_oracle(ops: &[(usize, usize)]) -> Vec<i64> {
    let mut values = vec![INITIAL; ITEMS];
    for &(_, item) in ops {
        values[item] = if values[item] > 1 {
            values[item] - 1
        } else {
            INITIAL
        };
    }
    values
}

#[test]
fn the_adaptive_loop_preserves_serial_oracle_semantics() {
    let ops = op_sequence(0x51AE);
    let oracle = serial_oracle(&ops);
    let mut runtimes: Vec<(&str, Box<dyn SiteRuntime>)> = vec![
        ("replicated", Box::new(replicated(SyncTuning::adaptive()))),
        ("sim", cluster("sim", SyncTuning::adaptive())),
        ("tcp", cluster("tcp", SyncTuning::adaptive())),
    ];
    for (label, runtime) in &mut runtimes {
        for &(site, item) in &ops {
            let out = runtime.execute(
                site,
                SiteOp::Order {
                    obj: item_obj(item),
                    amount: 1,
                    refill_to: Some(INITIAL),
                },
            );
            assert!(out.committed, "{label}: operation aborted");
        }
        runtime.synchronize(0);
        for (item, &expected) in oracle.iter().enumerate() {
            for site in 0..SITES {
                assert_eq!(
                    runtime.value_at(site, &item_obj(item)),
                    expected,
                    "{label}: item {item} at site {site} diverged from the serial oracle"
                );
            }
        }
    }
}
