//! Theorem 3.8 on the general path with the treaty optimizer on.
//!
//! The general-path oracle checks elsewhere register `optimizer: None`, so
//! every treaty they install is Theorem 4.3's default and
//! `ProgramSet::negotiate`'s Algorithm 1 branch never runs under them. Here
//! the bundle and the serial `GeneralRuntime` oracle both register the
//! optimizer, and every cluster backend — the simulator on a reliable and
//! on a faulty network, and TCP over loopback — must reproduce the oracle
//! op by op (committed, synchronized, communication rounds) and in the
//! folded state. Halfway through, every leg synchronizes, and the simulator
//! legs then kill and restart a quiescent site: its recovery resynchronizes
//! the program database, which is one more general round, and the restarted
//! site rewinds its lockstep round counter to the cluster's before it
//! negotiates. The optimizer's seed depends on that counter, so a site that
//! got it wrong would install other treaties than the oracle. The TCP leg
//! and the oracle run the recovery's round as a second synchronization.

use homeostasis::cluster::{ClientApi, ClusterConfig, SimCluster, SimNetConfig, TcpCluster};
use homeostasis::lang::{programs, Database};
use homeostasis::protocol::correctness::verify_round;
use homeostasis::protocol::{
    HomeostasisCluster, Loc, OptimizerConfig, ProgramBundle, ReplicatedMode,
};
use homeostasis::runtime::{GeneralRuntime, SiteOp, SiteRuntime};
use homeostasis::sim::{DetRng, RttMatrix, Timer};

const SITES: usize = 3;
const ITEMS: i64 = 6;
/// Small stock, so orders cross the refill branch and force rounds whatever
/// headroom the treaties leave each site.
const INITIAL: i64 = 7;
const REFILL: i64 = 12;
const OPS: usize = 240;
const OPTIMIZER: OptimizerConfig = OptimizerConfig {
    lookahead: 10,
    futures: 2,
    seed: 21,
};

/// What the serial oracle did: each op's `(committed, synchronized,
/// comm_rounds)` and the folded database at the end.
struct Expected {
    outcomes: Vec<(bool, bool, u32)>,
    folded: Database,
}

fn outcome_key(out: &homeostasis::runtime::OpOutcome) -> (bool, bool, u32) {
    (out.committed, out.synchronized, out.comm_rounds)
}

/// Runs the schedule on the serial oracle, checking after every op that the
/// round so far is equivalent to its serial execution.
fn oracle_run(
    txns: &[homeostasis::lang::ast::Transaction],
    loc: &Loc,
    initial: &Database,
    schedule: &[usize],
) -> Expected {
    let mut oracle = GeneralRuntime::new(
        HomeostasisCluster::new(
            txns.to_vec(),
            loc.clone(),
            SITES,
            initial.clone(),
            Some(OPTIMIZER),
        )
        .with_timer(Timer::fixed_zero()),
    );
    let mut outcomes = Vec::with_capacity(schedule.len());
    for (k, &index) in schedule.iter().enumerate() {
        let site = oracle.home_site(index);
        let out = oracle.execute(site, SiteOp::Transaction { index });
        assert!(out.committed, "oracle op {k} aborted");
        outcomes.push(outcome_key(&out));
        assert!(
            verify_round(oracle.cluster()).is_equivalent(),
            "oracle op {k}: the round is not equivalent to its serial execution"
        );
        if k == OPS / 2 {
            // The cluster legs' midpoint: a synchronization, then the
            // round a restarted site's recovery runs (or a second
            // synchronization where no site restarts).
            oracle.synchronize(0);
            oracle.synchronize(0);
        }
    }
    oracle.synchronize(0);
    Expected {
        outcomes,
        folded: oracle.cluster().global_database(),
    }
}

/// Replays the schedule on one backend against the oracle. `crash` runs at
/// the midpoint, right after the synchronization that makes the cluster
/// quiescent, and must run exactly one more general round.
fn replay<C: ClientApi>(
    label: &str,
    cluster: &mut C,
    bundle: &ProgramBundle,
    homes: &[usize],
    schedule: &[usize],
    expected: &Expected,
    mut crash: impl FnMut(&mut C),
) {
    assert_eq!(
        cluster.register_program(bundle),
        homes.len() as u64,
        "{label}: registration"
    );
    for (k, &index) in schedule.iter().enumerate() {
        let out = cluster.execute(homes[index], SiteOp::Transaction { index });
        assert!(!out.unsupported, "{label}: op {k} rejected");
        assert_eq!(
            outcome_key(&out),
            expected.outcomes[k],
            "{label}: op {k} (txn {index}) diverged from the oracle"
        );
        if k == OPS / 2 {
            cluster.synchronize(0);
            crash(cluster);
        }
    }
    cluster.synchronize(0);
    for (obj, value) in expected.folded.iter() {
        for site in 0..SITES {
            assert_eq!(
                cluster.value_at(site, obj),
                value,
                "{label}: {obj} at site {site} diverged from the oracle"
            );
        }
    }
}

#[test]
fn optimized_general_transactions_agree_across_cluster_backends() {
    let txns: Vec<_> = (0..ITEMS)
        .map(|i| programs::micro_order_for_item(i, REFILL))
        .collect();
    let loc = Loc::from_pairs((0..ITEMS).map(|i| (programs::stock_obj(i), (i as usize) % SITES)));
    let initial = Database::from_pairs((0..ITEMS).map(|i| (programs::stock_obj(i), INITIAL)));
    let bundle = ProgramBundle::from_transactions(&txns, &loc, &initial, Some(OPTIMIZER));
    let mut rng = DetRng::seed_from(0x0971);
    let schedule: Vec<usize> = (0..OPS).map(|_| rng.index(txns.len())).collect();
    let homes: Vec<usize> = (0..txns.len()).map(|i| i % SITES).collect();

    let expected = oracle_run(&txns, &loc, &initial, &schedule);
    let rounds = expected.outcomes.iter().filter(|o| o.1).count();
    assert!(
        rounds >= 10,
        "only {rounds} of {OPS} ops synchronized: the refill branch must force rounds"
    );

    let config = || ClusterConfig::new(ReplicatedMode::EvenSplit).with_timer(Timer::fixed_zero());
    let crash = |cluster: &mut SimCluster| {
        cluster.kill(1);
        cluster.restart(1);
        cluster.run_until_quiescent();
    };
    let nets = [
        ("cluster-sim", SimNetConfig::reliable(SITES, 100)),
        (
            "cluster-sim-faulty",
            SimNetConfig::faulty(RttMatrix::table1().truncated(SITES), 0x0971),
        ),
    ];
    for (label, net) in nets {
        let mut cluster = SimCluster::new(SITES, config(), net);
        replay(
            label,
            &mut cluster,
            &bundle,
            &homes,
            &schedule,
            &expected,
            crash,
        );
    }
    let mut cluster = TcpCluster::new(SITES, config());
    replay(
        "cluster-tcp",
        &mut cluster,
        &bundle,
        &homes,
        &schedule,
        &expected,
        |cluster| {
            cluster.synchronize(0);
        },
    );
}
