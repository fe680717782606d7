//! How long a general treaty lasts on the `tcp-general` fixture, measured on
//! the serial [`HomeostasisCluster`] oracle.
//!
//! The fixture (`benchmark/src/tcp.rs::general_bundle`) is eight
//! order-or-refill programs, one object each, round-robin over two sites,
//! negotiated by the optimizer. Each program's joint-table guard is
//! `stock ≥ 2` on the order branch and `stock ≤ 1` on the refill branch, so
//! the only synchronizations Theorem 3.8 requires are at that boundary. A
//! configuration that keeps H1's slack away from the sites holding each
//! clause admits about `lookahead` steps of the workload model instead and
//! synchronizes in the interior of the order branch.

use homeo_lang::database::Database;
use homeo_lang::ids::ObjId;
use homeo_lang::programs;
use homeo_protocol::{HomeostasisCluster, Loc, OptimizerConfig};
use homeo_sim::{DetRng, Timer};

const SITES: usize = 2;
const PROGRAMS: usize = 8;
const OPTIMIZER: OptimizerConfig = OptimizerConfig {
    lookahead: 10,
    futures: 2,
    seed: 21,
};
const OPS: usize = 20_000;
/// Share of a site's operations that goes to its hot program.
const HOTNESS: f64 = 0.8;

fn object(i: usize) -> ObjId {
    ObjId::new(format!("gstock[{i}]"))
}

/// The fixture with every object at `stock` and refilled to `stock`.
fn fixture(stock: i64) -> HomeostasisCluster {
    let txns = (0..PROGRAMS)
        .map(|i| programs::order_for_object(object(i), stock))
        .collect();
    let loc = Loc::from_pairs((0..PROGRAMS).map(|i| (object(i), i % SITES)));
    let initial = Database::from_pairs((0..PROGRAMS).map(|i| (object(i), stock)));
    HomeostasisCluster::new(txns, loc, SITES, initial, Some(OPTIMIZER))
        .with_timer(Timer::fixed_zero())
}

/// The benchmark's per-site stream, serialized: the sites take turns, and
/// each op runs the site's hot program with probability [`HOTNESS`], else
/// one of the site's programs uniformly.
fn stream() -> impl Iterator<Item = usize> {
    let mut rng = DetRng::seed_from(7);
    (0..OPS).map(move |k| {
        let site = k % SITES;
        if rng.chance(HOTNESS) {
            site
        } else {
            site + SITES * rng.index(PROGRAMS / SITES)
        }
    })
}

/// Runs the stream and returns, for every synchronized op, the value its
/// object held before the op.
fn synchronized_pre_images(cluster: &mut HomeostasisCluster) -> Vec<i64> {
    let mut pre_images = Vec::new();
    for index in stream() {
        let site = cluster.home_site(index);
        let before = cluster.engine(site).peek(object(index).as_str());
        let outcome = cluster.execute(index).expect("order programs evaluate");
        assert!(outcome.committed);
        if outcome.synchronized {
            pre_images.push(before);
        }
    }
    pre_images
}

#[test]
fn ample_stock_commits_without_synchronizing() {
    // The first refill is ~10⁹ orders away, so no op needs a round.
    let mut cluster = fixture(1_000_000_000);
    let synchronized = synchronized_pre_images(&mut cluster);
    assert!(
        synchronized.is_empty(),
        "{} of {OPS} ops synchronized, the first at {:?}",
        synchronized.len(),
        &synchronized[..synchronized.len().min(10)]
    );
    assert_eq!(cluster.stats.local_commits, OPS as u64);
}

#[test]
fn rounds_happen_only_at_the_refill_boundary() {
    // With stock 100 the hot objects refill dozens of times, and every
    // round is forced: an order taking the stock from 2 to 1 leaves the
    // order branch, and one refilling from 1 leaves the refill branch.
    let mut cluster = fixture(100);
    let synchronized = synchronized_pre_images(&mut cluster);
    assert!(
        synchronized.len() >= 100,
        "only {} rounds",
        synchronized.len()
    );
    let interior: Vec<i64> = synchronized.into_iter().filter(|&v| v > 2).collect();
    assert!(
        interior.is_empty(),
        "{} rounds synchronized inside the order branch, at {:?}",
        interior.len(),
        &interior[..interior.len().min(10)]
    );
}
