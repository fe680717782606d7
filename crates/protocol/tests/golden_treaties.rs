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
//!
//! The order-program chains give every clause one holder, so Algorithm 1's
//! configuration search cannot change what they install; the chain over
//! the paper's `T1`/`T2` pins the search's output.

use homeo_lang::ast::Transaction;
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

/// One order-or-refill program per object, each object at its site with
/// its initial value: the fixture shape of the benchmark and TPC-C chains.
fn order_fixture(
    objects: &[(ObjId, usize, i64)],
    refill: i64,
) -> (Vec<Transaction>, Loc, Database) {
    let txns = objects
        .iter()
        .map(|(obj, _, _)| programs::order_for_object(obj.clone(), refill))
        .collect();
    let loc = Loc::from_pairs(objects.iter().map(|(obj, site, _)| (obj.clone(), *site)));
    let initial = Database::from_pairs(objects.iter().map(|(obj, _, v)| (obj.clone(), *v)));
    (txns, loc, initial)
}

/// Runs a seeded chain over `txns` and returns `(installs, checkpoints)`:
/// the running hash after every `STRIDE`-th installed table and after the
/// last.
fn chain(
    (txns, loc, initial): (Vec<Transaction>, Loc, Database),
    sites: usize,
    seed: u64,
) -> (usize, Vec<u64>) {
    let count = txns.len();
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
        let index = if rng.chance(0.5) { 0 } else { rng.index(count) };
        let round = cluster.treaties().round;
        let outcome = cluster.execute(index).expect("the programs evaluate");
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
    let (installs, checkpoints) = chain(order_fixture(&objects, 1_000_000_000), 2, 0x6e4e);
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
    let (installs, checkpoints) = chain(order_fixture(&objects, 20), 3, 0x7cc);
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

#[test]
fn paper_t1_t2_fixture_installs_the_recorded_treaties() {
    // Figure 3's T1 (writes x at site 0) and T2 (writes y at site 1) from
    // x = 10, y = 13. Both programs read both objects, so every clause has
    // two holders: the one committed fixture where Algorithm 1's
    // configuration search changes the installed treaties.
    let loc = Loc::from_pairs([("x", 0usize), ("y", 1usize)]);
    let initial = Database::from_pairs([("x", 10), ("y", 13)]);
    let (installs, checkpoints) = chain(
        (vec![programs::t1(), programs::t2()], loc, initial),
        2,
        0x7172,
    );
    // Most operations end their round: 244 of the 300 install a table.
    assert_eq!(installs, 244);
    assert_eq!(
        checkpoints,
        [
            0xcafe2eeae735f53f,
            0x14d205a6c1289d79,
            0x501250fccdb93a5d,
            0x55f48ba276db24fb,
            0xfbcd77ad962b9347,
            0xf4c43bb3b7f786d3,
            0x02ecf2d8c26604af,
            0x03d2f86a535c408d,
            0x3523b841157654eb,
            0x871e1cf9fee92fe4,
            0x519aa76204eb5572,
            0xbaf5e6a880942fab,
            0xd70fd55c4c8c9b89,
            0x1fcd907259d97677,
            0x400344f8b5e3144e,
            0xdfd90275f63bd131,
            0xb2dae13d4890ddf7,
            0xb4f20fee55378bd4,
            0xe59b38af140dafaa,
            0xeddbf201cc9cc859,
            0xd382d4a1655c6f4e,
            0x8163e73d91582fd0,
            0x315ae967517ff50c,
            0xc38c207ef699fa42,
            0x2ac96f2bcb8ffb03,
        ]
    );
}
