//! Cross-protocol equivalence on the shared `SiteRuntime` surface.
//!
//! The consolidation promise of the runtime layer: homeostasis, OPT
//! (even-split), 2PC and local execution are all driven through the *same*
//! `submit / poll / synchronize` trait on a seeded microbenchmark, and the
//! final databases agree exactly where the paper predicts —
//!
//! * homeostasis, OPT and 2PC all implement the serial decrement-or-refill
//!   semantics of Listing 1, so after a final synchronization every replica
//!   of every one of them holds the serial oracle's values;
//! * the local baseline provides no consistency: each replica equals the
//!   serial execution of *its own* operation subsequence, and replicas
//!   diverge (Section 6.1: "database consistency across replicas is not
//!   guaranteed").

use homeostasis::baselines::{LocalRuntime, TwoPcRuntime};
use homeostasis::cluster::{ClientApi, ClusterConfig, SimCluster, SimNetConfig, TcpCluster};
use homeostasis::lang::ids::ObjId;
use homeostasis::protocol::{OptimizerConfig, ReplicatedMode};
use homeostasis::runtime::{ReplicatedRuntime, SiteOp, SiteRuntime};
use homeostasis::sim::{DetRng, RttMatrix, Timer};

const SITES: usize = 3;
const ITEMS: usize = 12;
const INITIAL: i64 = 25;
const REFILL: i64 = 40;
const OPS: usize = 400;

fn item_obj(i: usize) -> ObjId {
    ObjId::new(format!("stock[{i}]"))
}

/// The seeded operation stream: (site, item) pairs, one unit decrement each.
fn op_sequence(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = DetRng::seed_from(seed);
    (0..OPS)
        .map(|_| (rng.index(SITES), rng.index(ITEMS)))
        .collect()
}

/// The serial decrement-or-refill oracle of Listing 1 over one subsequence.
fn serial_oracle(ops: impl Iterator<Item = usize>) -> Vec<i64> {
    let mut values = vec![INITIAL; ITEMS];
    for item in ops {
        values[item] = if values[item] > 1 {
            values[item] - 1
        } else {
            REFILL
        };
    }
    values
}

/// Builds the synchronized runtimes (homeo, opt, 2pc) under test.
fn synchronized_runtimes() -> Vec<(&'static str, Box<dyn SiteRuntime>)> {
    let mut homeo = ReplicatedRuntime::new(
        SITES,
        ReplicatedMode::Homeostasis {
            optimizer: Some(OptimizerConfig {
                lookahead: 8,
                futures: 2,
                seed: 13,
            }),
        },
    )
    .with_timer(Timer::fixed_zero());
    let mut opt =
        ReplicatedRuntime::new(SITES, ReplicatedMode::EvenSplit).with_timer(Timer::fixed_zero());
    for i in 0..ITEMS {
        homeo.register(item_obj(i), INITIAL, 1);
        opt.register(item_obj(i), INITIAL, 1);
    }
    let mut twopc = TwoPcRuntime::new(SITES);
    for i in 0..ITEMS {
        twopc.populate(item_obj(i), INITIAL);
    }
    // The cluster subsystem behind the same surface: the protocol as the
    // deterministic fault-injected simulation (jitter, reordering,
    // retransmitted drops) and as real TCP endpoints over loopback sockets
    // (one reactor thread per site, every frame crosses the kernel).
    let mut homeo_tcp = TcpCluster::new(
        SITES,
        ClusterConfig::new(ReplicatedMode::Homeostasis {
            optimizer: Some(OptimizerConfig {
                lookahead: 8,
                futures: 2,
                seed: 13,
            }),
        })
        .with_timer(Timer::fixed_zero()),
    );
    let mut opt_sim = SimCluster::new(
        SITES,
        ClusterConfig::new(ReplicatedMode::EvenSplit).with_timer(Timer::fixed_zero()),
        SimNetConfig::faulty(RttMatrix::table1().truncated(SITES), 0xC0DE),
    );
    let mut opt_tcp = TcpCluster::new(
        SITES,
        ClusterConfig::new(ReplicatedMode::EvenSplit).with_timer(Timer::fixed_zero()),
    );
    for i in 0..ITEMS {
        homeo_tcp.register(item_obj(i), INITIAL, 1);
        opt_sim.register(item_obj(i), INITIAL, 1);
        opt_tcp.register(item_obj(i), INITIAL, 1);
    }
    vec![
        ("homeo", Box::new(homeo)),
        ("opt", Box::new(opt)),
        ("2pc", Box::new(twopc)),
        ("homeo-cluster-tcp", Box::new(homeo_tcp)),
        ("opt-cluster-sim", Box::new(opt_sim)),
        ("opt-cluster-tcp", Box::new(opt_tcp)),
    ]
}

fn apply_ops(runtime: &mut dyn SiteRuntime, ops: &[(usize, usize)]) {
    for &(site, item) in ops {
        let out = runtime.execute(
            site,
            SiteOp::Order {
                obj: item_obj(item),
                amount: 1,
                refill_to: Some(REFILL),
            },
        );
        assert!(out.committed);
    }
}

#[test]
fn synchronized_protocols_agree_with_the_serial_oracle() {
    let ops = op_sequence(0xD15C);
    let oracle = serial_oracle(ops.iter().map(|&(_, item)| item));
    for (label, mut runtime) in synchronized_runtimes() {
        apply_ops(runtime.as_mut(), &ops);
        // Fold outstanding deltas so every replica holds the authoritative
        // state, then compare through the same trait surface.
        runtime.synchronize(0);
        for (i, &expected) in oracle.iter().enumerate() {
            for site in 0..SITES {
                assert_eq!(
                    runtime.value_at(site, &item_obj(i)),
                    expected,
                    "{label}: item {i} at site {site} diverged from the serial oracle"
                );
            }
        }
    }
}

#[test]
fn the_local_baseline_diverges_exactly_as_predicted() {
    let ops = op_sequence(0xD15C);
    let mut local = LocalRuntime::new(SITES);
    for i in 0..ITEMS {
        local.populate(item_obj(i), INITIAL);
    }
    apply_ops(&mut local, &ops);
    // `synchronize` is (deliberately) a no-op for the local baseline.
    assert_eq!(local.synchronize(0), 0);
    // Each replica matches the serial execution of its own subsequence...
    for site in 0..SITES {
        let oracle = serial_oracle(
            ops.iter()
                .filter(|&&(s, _)| s == site)
                .map(|&(_, item)| item),
        );
        for (i, &expected) in oracle.iter().enumerate() {
            assert_eq!(
                local.value_at(site, &item_obj(i)),
                expected,
                "local: item {i} at site {site}"
            );
        }
    }
    // ...and the replicas have, in fact, diverged from each other.
    let diverged = (0..ITEMS).any(|i| !local.is_consistent(&item_obj(i)));
    assert!(diverged, "local replicas unexpectedly agree everywhere");
}

/// A general-transaction program spread over the sites: one
/// decrement-or-refill `L++` transaction per item, homed at `item % SITES`.
fn general_fixture() -> (
    Vec<homeostasis::lang::ast::Transaction>,
    homeostasis::protocol::Loc,
    homeostasis::lang::Database,
) {
    use homeostasis::lang::programs;
    const GITEMS: i64 = 6;
    let txns: Vec<_> = (0..GITEMS)
        .map(|i| programs::micro_order_for_item(i, 12))
        .collect();
    let loc = homeostasis::protocol::Loc::from_pairs(
        (0..GITEMS).map(|i| (programs::stock_obj(i), (i as usize) % SITES)),
    );
    let initial = homeostasis::lang::Database::from_pairs(
        (0..GITEMS).map(|i| (programs::stock_obj(i), 7i64)),
    );
    (txns, loc, initial)
}

#[test]
fn general_transactions_agree_across_all_cluster_backends() {
    // The tentpole claim of the cluster-wide general path: a registered
    // L++ program executes on the simulated and TCP backends
    // with the same outcomes and the same committed state as the serial
    // `GeneralRuntime` oracle — byte-identical, per site, after the fold.
    use homeostasis::protocol::{HomeostasisCluster, ProgramBundle};
    use homeostasis::runtime::GeneralRuntime;

    let (txns, loc, initial) = general_fixture();
    let bundle = ProgramBundle::from_transactions(&txns, &loc, &initial, None);
    let mut rng = DetRng::seed_from(0x6E6E);
    let schedule: Vec<usize> = (0..150).map(|_| rng.index(txns.len())).collect();

    // The serial oracle.
    let mut oracle = GeneralRuntime::new(
        HomeostasisCluster::new(txns.clone(), loc.clone(), SITES, initial.clone(), None)
            .with_timer(Timer::fixed_zero()),
    );
    let oracle_outcomes: Vec<_> = schedule
        .iter()
        .map(|&index| {
            let site = oracle.home_site(index);
            oracle.execute(site, SiteOp::Transaction { index })
        })
        .collect();
    assert!(
        oracle_outcomes.iter().all(|o| o.committed),
        "oracle must commit every transaction"
    );
    assert!(
        oracle_outcomes.iter().any(|o| o.synchronized),
        "draining 150 orders over 7-unit counters must violate treaties"
    );
    oracle.synchronize(0);
    let oracle_db = oracle.cluster().global_database();

    let config = || ClusterConfig::new(ReplicatedMode::EvenSplit).with_timer(Timer::fixed_zero());
    let backends: Vec<(&str, Box<dyn ClientApi>)> = vec![
        (
            "cluster-sim",
            Box::new(SimCluster::new(
                SITES,
                config(),
                SimNetConfig::reliable(SITES, 100),
            )),
        ),
        ("cluster-tcp", Box::new(TcpCluster::new(SITES, config()))),
    ];
    for (label, mut cluster) in backends {
        assert_eq!(
            cluster.register_program(&bundle),
            txns.len() as u64,
            "{label}: registration"
        );
        let homes: Vec<usize> = (0..txns.len()).map(|i| oracle.home_site(i)).collect();
        for (k, &index) in schedule.iter().enumerate() {
            let out = cluster.execute(homes[index], SiteOp::Transaction { index });
            assert!(!out.unsupported, "{label}: op {k} rejected");
            assert_eq!(
                (out.committed, out.synchronized, out.comm_rounds),
                (
                    oracle_outcomes[k].committed,
                    oracle_outcomes[k].synchronized,
                    oracle_outcomes[k].comm_rounds,
                ),
                "{label}: op {k} (txn {index}) diverged from the oracle"
            );
        }
        cluster.synchronize(0);
        for (obj, value) in oracle_db.iter() {
            for site in 0..SITES {
                assert_eq!(
                    cluster.value_at(site, obj),
                    value,
                    "{label}: {obj} at site {site} diverged from the oracle"
                );
            }
        }
    }
}

#[test]
fn seeded_runs_are_reproducible_across_protocols() {
    // With a fixed timer and a fixed seed, two full runs produce identical
    // final states, WAL lengths and statistics — the determinism the
    // injectable timing source buys.
    let run = || {
        let ops = op_sequence(0xBEEF);
        let mut results = Vec::new();
        for (label, mut runtime) in synchronized_runtimes() {
            apply_ops(runtime.as_mut(), &ops);
            runtime.synchronize(0);
            let values: Vec<i64> = (0..ITEMS)
                .map(|i| runtime.value_at(0, &item_obj(i)))
                .collect();
            let wal_lens: Vec<usize> = (0..SITES).map(|s| runtime.engine(s).wal_len()).collect();
            results.push((label, values, wal_lens));
        }
        results
    };
    assert_eq!(run(), run());
}
