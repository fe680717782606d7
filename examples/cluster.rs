//! The cluster subsystem in thirty lines: sites as loopback TCP endpoints
//! behind the `SiteRuntime` surface, then the same protocol under a
//! deterministic fault injector with a partition and a site crash.
//!
//! ```sh
//! cargo run --release --example cluster
//! ```

use homeostasis::cluster::{ClusterConfig, SimCluster, SimNetConfig, TcpCluster};
use homeostasis::lang::ids::ObjId;
use homeostasis::protocol::{OptimizerConfig, ReplicatedMode};
use homeostasis::runtime::{SiteOp, SiteRuntime};
use homeostasis::sim::{RttMatrix, Timer};

fn order(obj: &ObjId) -> SiteOp {
    SiteOp::Order {
        obj: obj.clone(),
        amount: 1,
        refill_to: Some(99),
    }
}

fn main() {
    let config = ClusterConfig::new(ReplicatedMode::Homeostasis {
        optimizer: Some(OptimizerConfig {
            lookahead: 10,
            futures: 2,
            seed: 21,
        }),
    })
    .with_timer(Timer::fixed_zero());
    let stock = ObjId::new("stock[0]");

    // --- Real sockets: one epoll reactor thread per site over loopback. ---
    let mut cluster = TcpCluster::new(3, config.clone());
    cluster.register(stock.clone(), 100, 1);
    for i in 0..90 {
        let out = cluster.execute(i % 3, order(&stock));
        assert!(out.committed);
    }
    cluster.synchronize(0);
    let stats = cluster.stats();
    println!(
        "tcp: 90 orders over 3 loopback sites -> value {} at every site \
         ({} local commits, {} synchronizations)",
        cluster.value_at(0, &stock),
        stats.local_commits,
        stats.synchronizations,
    );

    // --- Deterministic faults: Table 1 RTTs, drops, a partition, a crash.
    let net = SimNetConfig::faulty(RttMatrix::table1().truncated(3), 7);
    let mut sim = SimCluster::new(3, config, net);
    sim.register(stock.clone(), 100, 1);
    for i in 0..30 {
        sim.execute(i % 3, order(&stock));
    }
    sim.partition(0, 1);
    sim.partition(0, 2);
    let out = sim.execute(0, order(&stock));
    println!(
        "sim: treaty-covered order during the partition -> committed={} without sync",
        out.committed
    );
    sim.heal_all();
    sim.kill(2);
    sim.restart(2);
    sim.run_until_quiescent();
    sim.synchronize(0);
    println!(
        "sim: after heal + crash recovery every site observes {} (logical {})",
        sim.value_at(2, &stock),
        sim.logical_value(&stock),
    );
    assert_eq!(sim.value_at(0, &stock), sim.value_at(2, &stock));
}
