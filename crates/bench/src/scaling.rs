//! The N-site scaling sweep (`reproduce scaling`, or any figure run with
//! `--sites N,N,...`): how throughput and synchronization cost behave as
//! the cluster grows, on both backends.
//!
//! One row per site count, two measurement families per row:
//!
//! * `tcp_ops_s` — wall-clock committed ops/sec over real loopback
//!   sockets (in-process [`spawn_cluster`] site nodes driven by the
//!   pipelined [`tcp_load`] client), with the load's counter-conservation
//!   self-check asserted.
//! * `sim_committed` / `sim_op_ms` — the deterministic simulator under the
//!   paper's Table 1 five-datacenter WAN geometry with seeded faults
//!   (5 ms jitter, 2% drop, 5% reorder): committed operations and
//!   **virtual** milliseconds per committed operation. Site counts past
//!   five tile the datacenters ([`RttMatrix::tiled`]) — site `i` lives in
//!   datacenter `i % 5` with a 2 ms intra-datacenter RTT — so the WAN
//!   distances stay the paper's.
//!
//! Every point self-verifies as it generates (lost operations, a
//! conservation violation or cross-site disagreement after the final fold
//! panic, which `reproduce` turns into a non-zero exit). The sim column is
//! byte-for-byte deterministic; the wall-clock column is gated in CI
//! by conservative floors in `crates/bench/baseline.json`, and `sim_op_ms`
//! by a ceiling (the `_ms` suffix inverts the baseline rule).

use homeo_cluster::{
    free_loopback_addrs, spawn_cluster, tcp_load, ClusterConfig, ClusterSpec, SimCluster,
    SimNetConfig,
};
use homeo_lang::ids::ObjId;
use homeo_protocol::{OptimizerConfig, ReplicatedMode};
use homeo_runtime::{SiteOp, SiteRuntime};
use homeo_sim::{DetRng, RttMatrix, Timer, MICROS_PER_MILLI};

use crate::figures::Effort;
use crate::report::Figure;

/// Counters under load in the simulated column.
const ITEMS: usize = 8;
/// Initial stock per simulated counter — small enough that the load drains
/// headroom and pays real WAN synchronization rounds.
const INITIAL: i64 = 40;
/// Refill target of the simulated orders (keeps the workload sustainable).
const REFILL: i64 = 40;
/// Intra-datacenter RTT used when tiling the Table 1 geometry past five
/// sites, in milliseconds.
const SAME_DC_RTT_MS: u64 = 2;

/// The site counts swept when `--sites` is not given: the paper's 2/3/5
/// datacenter points at quick effort, extended past the Table 1 geometry
/// (tiled datacenters) at full effort.
pub fn default_site_counts(effort: Effort) -> Vec<usize> {
    match effort {
        Effort::Quick => vec![2, 3, 5],
        Effort::Full => vec![2, 3, 5, 8, 16],
    }
}

fn stock(i: usize) -> ObjId {
    ObjId::new(format!("stock[{i}]"))
}

/// Generates the `scaling` figure over the given site counts.
///
/// # Panics
/// Panics on a site count below 2, on any lost operation, and on any
/// conservation or cross-site-agreement violation found by the per-point
/// self-checks.
pub fn sweep(site_counts: &[usize], effort: Effort) -> Figure {
    assert!(
        !site_counts.is_empty(),
        "the scaling sweep needs at least one site count"
    );
    let (tcp_ops, sim_ops) = match effort {
        Effort::Quick => (1_000, 150),
        Effort::Full => (3_000, 400),
    };
    let mut fig = Figure::new(
        "scaling",
        "N-site scaling: TCP wall-clock ops/s (loopback) and simulated \
         virtual ms per op under the Table 1 WAN geometry with seeded faults \
         (sites past 5 tile the datacenters)",
        vec![
            "sites".into(),
            "tcp_ops_s".into(),
            "sim_committed".into(),
            "sim_op_ms".into(),
        ],
    );
    for &sites in site_counts {
        assert!(sites >= 2, "a scaling point needs at least two sites");
        let tcp_ops_s = tcp_point(sites, tcp_ops);
        let (sim_committed, sim_op_ms) = sim_point(sites, sim_ops);
        fig.push_row(sites.to_string(), vec![tcp_ops_s, sim_committed, sim_op_ms]);
    }
    fig
}

/// One real-socket point: `sites` in-process TCP site nodes on loopback,
/// the pipelined load client, conservation asserted. Returns committed
/// ops/sec.
fn tcp_point(sites: usize, ops_per_site: usize) -> f64 {
    let spec = ClusterSpec::new(
        free_loopback_addrs(sites).expect("reserve loopback addresses for the scaling sweep"),
    );
    // Held until the report is in: dropping the nodes shuts the sites down.
    let _nodes =
        spawn_cluster(&spec, ClusterConfig::new(spec.mode)).expect("spawn in-process TCP sites");
    let report = tcp_load(&spec, ops_per_site, 16, 0x5CA1E).expect("run the TCP load client");
    assert!(
        report.conserved,
        "TCP conservation failed at {sites} sites: seeded {} − committed {} must \
         equal folded {} with every site agreeing",
        report.initial_total, report.committed, report.final_total
    );
    report.throughput
}

/// One simulated point under the Table 1 WAN geometry with seeded faults.
/// Returns `(committed, virtual ms per committed op)`.
fn sim_point(sites: usize, ops_per_site: usize) -> (f64, f64) {
    let table1 = RttMatrix::table1();
    let rtt = if sites <= table1.sites() {
        table1.truncated(sites)
    } else {
        table1.tiled(sites, SAME_DC_RTT_MS)
    };
    let config = ClusterConfig::new(ReplicatedMode::Homeostasis {
        optimizer: Some(OptimizerConfig {
            lookahead: 10,
            futures: 2,
            seed: 21,
        }),
    })
    .with_timer(Timer::fixed_zero());
    let net = SimNetConfig {
        rtt,
        jitter_us: 5_000,
        drop_chance: 0.02,
        reorder_chance: 0.05,
        seed: 0x5CA1E ^ sites as u64,
    };
    let mut cluster = SimCluster::new(sites, config, net);
    for i in 0..ITEMS {
        cluster.register(stock(i), INITIAL, 1);
    }
    let mut rng = DetRng::seed_from(0x5CA1E ^ sites as u64);
    let started = cluster.clock();
    let total = sites * ops_per_site;
    for n in 0..total {
        let out = cluster.execute(
            n % sites,
            SiteOp::Order {
                obj: stock(rng.index(ITEMS)),
                amount: 1,
                refill_to: Some(REFILL - 1),
            },
        );
        assert!(out.committed, "a polled order must commit ({sites} sites)");
    }
    let elapsed_micros = cluster.clock() - started;
    // Cross-site agreement after the final fold: every member observes the
    // same value for every counter, and it matches the authoritative
    // coordinator-side total.
    cluster.synchronize(0);
    for i in 0..ITEMS {
        let expected = cluster.value_at(0, &stock(i));
        for site in 1..sites {
            assert_eq!(
                cluster.value_at(site, &stock(i)),
                expected,
                "stock[{i}] diverged at site {site} after the fold ({sites} sites)"
            );
        }
        assert_eq!(cluster.logical_value(&stock(i)), expected);
    }
    let op_ms = elapsed_micros as f64 / MICROS_PER_MILLI as f64 / total as f64;
    (total as f64, op_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_point_generates_and_verifies() {
        let fig = sweep(&[2], Effort::Quick);
        assert_eq!(fig.id, "scaling");
        assert_eq!(fig.rows.len(), 1);
        assert_eq!(fig.rows[0].0, "2");
        let values = &fig.rows[0].1;
        assert!(values[0] > 0.0, "throughput column");
        assert_eq!(values[1], (2 * 150) as f64, "sim committed count");
        assert!(values[2] >= 0.0, "virtual ms per op");
    }

    #[test]
    fn default_site_counts_scale_with_effort() {
        assert_eq!(default_site_counts(Effort::Quick), vec![2, 3, 5]);
        assert_eq!(default_site_counts(Effort::Full), vec![2, 3, 5, 8, 16]);
    }

    #[test]
    #[should_panic(expected = "at least two sites")]
    fn a_one_site_point_is_rejected() {
        let _ = sweep(&[1], Effort::Quick);
    }
}
