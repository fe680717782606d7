//! Golden general negotiations: every treaty table a seeded operation chain
//! installs through the serial [`HomeostasisCluster`] oracle, pinned by hash.
//! The hashes pin Algorithm 1's configuration after `ProgramSet::negotiate`
//! has handed each `≤` clause's H1 slack to the sites holding the clause
//! (`TreatyTemplates::spend_h1_slack`). They were re-recorded when that
//! step landed: it keeps a local treaty alive until its object reaches the
//! order program's refill boundary instead of for about `lookahead` steps of
//! the workload model, so the chains install far fewer tables than before
//! (70 → 1 on the `tcp-general` fixture, 156 → 39 on the TPC-C one). Before
//! that, the hashes were those of the last commit whose solver eliminated
//! over string-keyed rows; every solver, caching and kernel change between
//! the two left them unmoved. A change that moves a treaty moves a hash. A
//! running hash is pinned every tenth install, so a divergence is localised
//! to ten rounds.

use homeo_lang::database::Database;
use homeo_lang::ids::ObjId;
use homeo_lang::programs;
use homeo_protocol::{HomeostasisCluster, Loc, OptimizerConfig, TreatyTable};
use homeo_sim::{DetRng, Timer};

const OPTIMIZER: OptimizerConfig = OptimizerConfig {
    lookahead: 10,
    futures: 2,
    seed: 21,
};
const OPS: usize = 300;
/// A running hash is pinned every this many installs, and at the last one.
const STRIDE: usize = 10;

fn fnv(hash: &mut u64, text: &str) {
    for byte in text.bytes().chain([0xff]) {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds a treaty table — global treaty, every local treaty, round — into
/// the running hash through the constraints' printed form.
fn fold_table(hash: &mut u64, table: &TreatyTable) {
    fnv(hash, &format!("round {}", table.round));
    for c in &table.global.constraints {
        fnv(hash, &format!("global {c}"));
    }
    for local in &table.locals {
        for c in &local.constraints {
            fnv(hash, &format!("site {} {c}", local.site));
        }
    }
}

/// Runs a seeded chain over one order-or-refill program per object and
/// returns `(installs, checkpoints)`: the running hash after every
/// `STRIDE`-th installed table and after the last.
fn chain(
    objects: &[(ObjId, usize, i64)],
    refill: i64,
    sites: usize,
    seed: u64,
) -> (usize, Vec<u64>) {
    let txns = objects
        .iter()
        .map(|(obj, _, _)| programs::order_for_object(obj.clone(), refill))
        .collect();
    let loc = Loc::from_pairs(objects.iter().map(|(obj, site, _)| (obj.clone(), *site)));
    let initial = Database::from_pairs(objects.iter().map(|(obj, _, v)| (obj.clone(), *v)));
    let mut cluster = HomeostasisCluster::new(txns, loc, sites, initial, Some(OPTIMIZER))
        .with_timer(Timer::fixed_zero());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut installs = 0usize;
    let mut checkpoints = Vec::new();
    let mut record = |table: &TreatyTable, checkpoints: &mut Vec<u64>| {
        fold_table(&mut hash, table);
        installs += 1;
        if installs.is_multiple_of(STRIDE) {
            checkpoints.push(hash);
        }
    };
    record(cluster.treaties(), &mut checkpoints);
    let mut rng = DetRng::seed_from(seed);
    for _ in 0..OPS {
        // Skewed like the benchmark's stream: the first object is hot.
        let index = if rng.chance(0.5) {
            0
        } else {
            rng.index(objects.len())
        };
        let round = cluster.treaties().round;
        let outcome = cluster.execute(index).expect("order programs evaluate");
        assert!(outcome.committed);
        assert_eq!(outcome.synchronized, cluster.treaties().round != round);
        if outcome.synchronized {
            record(cluster.treaties(), &mut checkpoints);
        }
    }
    if !installs.is_multiple_of(STRIDE) {
        checkpoints.push(hash);
    }
    (installs, checkpoints)
}

#[test]
fn tcp_general_fixture_installs_the_recorded_treaties() {
    // `benchmark/src/tcp.rs::general_bundle`: eight programs, objects
    // round-robin over two sites, ample stock.
    let objects: Vec<(ObjId, usize, i64)> = (0..8)
        .map(|i| (ObjId::new(format!("gstock[{i}]")), i % 2, 1_000_000_000))
        .collect();
    let (installs, checkpoints) = chain(&objects, 1_000_000_000, 2, 0x6e4e);
    // Ample stock: the treaties installed at registration last the chain.
    assert_eq!(installs, 1);
    assert_eq!(checkpoints, [0x80377b5b06e7b46d]);
}

#[test]
fn tpcc_new_order_fixture_installs_the_recorded_treaties() {
    // `scenario-tpcc-neworder`: 3 warehouses x 2 districts x 2 items, one
    // warehouse per site, stock 10 refilled to 20 — the chain crosses the
    // refill branch (`stock ≤ 1`) of most programs.
    let mut objects = Vec::new();
    for w in 0..3 {
        for d in 0..2 {
            for i in 0..2 {
                objects.push((ObjId::new(format!("stock[{w}.{d}.{i}]")), w, 10));
            }
        }
    }
    let (installs, checkpoints) = chain(&objects, 20, 3, 0x7cc);
    // Every round is forced: an order leaves its program's order branch
    // (stock 2 → 1) or its refill branch (1 → 19).
    assert_eq!(installs, 39);
    assert_eq!(
        checkpoints,
        [
            0x3781160de04836ad,
            0xca16c460268915af,
            0x1e1811d6564b6255,
            0xb2f05d6a59cb74ca,
        ]
    );
}
