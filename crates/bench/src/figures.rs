//! Generators for every table and figure of the paper's evaluation.
//!
//! Each generator sweeps the same parameter the paper sweeps and reports the
//! same series (modes / percentiles / ratios). Absolute values differ from
//! the paper — the substrate is a simulator, not the authors' EC2 testbed —
//! but the shapes (who wins, by what factor, where the crossovers are) are
//! the reproduction target; see `EXPERIMENTS.md`.

use homeo_sim::TABLE1_RTT_MS;
use homeo_workloads::datacenters::TABLE1;
use homeo_workloads::micro::{MicroConfig, Mode};
use homeo_workloads::tpcc::TpccConfig;

use crate::experiments::{micro_experiment, tpcc_experiment, LATENCY_PERCENTILES};
use crate::report::Figure;

/// How much simulated time / parameter coverage to spend per figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Scaled-down sweep for quick runs and CI (a few seconds per figure).
    Quick,
    /// Full sweep closer to the paper's configuration.
    Full,
}

impl Effort {
    fn micro_items(&self) -> usize {
        // Scaled so that the per-item load (touches per round relative to the
        // REFILL headroom) matches the paper's 300 s measurement windows,
        // keeping the synchronization ratio in the same few-percent regime.
        match self {
            Effort::Quick => 300,
            Effort::Full => 2_000,
        }
    }

    fn micro_measure_ms(&self) -> u64 {
        match self {
            Effort::Quick => 3_000,
            Effort::Full => 30_000,
        }
    }

    fn tpcc_measure_ms(&self) -> u64 {
        match self {
            Effort::Quick => 3_000,
            Effort::Full => 20_000,
        }
    }

    fn tpcc_scale(&self) -> (usize, usize, usize, usize) {
        // (warehouses, districts, items/district, customers)
        match self {
            Effort::Quick => (2, 2, 100, 500),
            Effort::Full => (10, 10, 1000, 10_000),
        }
    }
}

fn micro_config(effort: Effort) -> MicroConfig {
    MicroConfig {
        num_items: effort.micro_items(),
        lookahead: 10,
        futures: 2,
        ..MicroConfig::default()
    }
}

fn tpcc_config(effort: Effort) -> TpccConfig {
    let (w, d, i, c) = effort.tpcc_scale();
    TpccConfig {
        warehouses: w,
        districts_per_warehouse: d,
        items_per_district: i,
        customers: c,
        lookahead: 8,
        futures: 2,
        ..TpccConfig::default()
    }
}

/// All reproducible ids, in paper order.
pub fn all_figure_ids() -> Vec<&'static str> {
    vec![
        "table1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
        "fig19", "fig20", "fig21", "fig22", "fig24", "fig25", "fig26", "fig27", "fig28", "fig29",
    ]
}

/// Generates one figure or cluster scenario by id.
///
/// # Panics
/// Panics on an unknown id (see [`crate::all_ids`]) and on any violation a
/// cluster scenario detects while verifying itself.
pub fn generate(id: &str, effort: Effort) -> Figure {
    // `scenario-join-leave` lives with the cluster fault scenarios (it
    // drives all three cluster backends), not the general-path programs.
    if id.starts_with("cluster-") || id == "scenario-join-leave" {
        return crate::cluster::scenario(id);
    }
    if id.starts_with("scenario-") {
        return crate::scenarios::scenario(id);
    }
    if id == "bench" {
        return crate::throughput::suite(effort);
    }
    if id == "sync" {
        return crate::sync::suite(effort);
    }
    if id == "scaling" {
        return crate::scaling::sweep(&crate::scaling::default_site_counts(effort), effort);
    }
    match id {
        "table1" => table1(),
        "fig10" => fig10(effort),
        "fig11" => fig11(effort),
        "fig12" => fig12(effort),
        "fig13" => fig13(effort),
        "fig14" => fig14(effort),
        "fig15" => fig15(effort),
        "fig16" => fig16(effort),
        "fig17" => fig17(effort),
        "fig18" => fig18(effort),
        "fig19" => fig19(effort),
        "fig20" => fig20(effort),
        "fig21" => fig21(effort),
        "fig22" => fig22(effort),
        "fig24" => fig24(effort),
        "fig25" => fig25(effort),
        "fig26" => fig26(effort),
        "fig27" => fig27(effort),
        "fig28" => fig28(effort),
        "fig29" => fig29(effort),
        other => panic!("unknown figure id `{other}`"),
    }
}

/// Table 1: average RTTs between the five datacenters.
pub fn table1() -> Figure {
    let mut columns = vec!["from/to".to_string()];
    columns.extend(TABLE1.iter().map(|d| d.label().to_string()));
    let mut fig = Figure::new(
        "table1",
        "Average RTTs between Amazon datacenters (ms)",
        columns,
    );
    for (i, dc) in TABLE1.iter().enumerate() {
        fig.push_row(
            dc.label(),
            TABLE1_RTT_MS[i].iter().map(|v| *v as f64).collect(),
        );
    }
    fig
}

fn latency_profile_figure(id: &str, title: &str, series: Vec<(String, Vec<(f64, f64)>)>) -> Figure {
    let mut columns = vec!["percentile".to_string()];
    columns.extend(series.iter().map(|(label, _)| label.clone()));
    let mut fig = Figure::new(id, title, columns);
    for (i, p) in LATENCY_PERCENTILES.iter().enumerate() {
        let values = series.iter().map(|(_, profile)| profile[i].1).collect();
        fig.push_row(format!("{p}"), values);
    }
    fig
}

/// Figure 10: latency by percentile for RTT ∈ {50, 200} ms.
pub fn fig10(effort: Effort) -> Figure {
    let mut series = Vec::new();
    for mode in Mode::all() {
        for rtt in [50u64, 200] {
            let config = MicroConfig {
                rtt_ms: rtt,
                ..micro_config(effort)
            };
            let point = micro_experiment(&config, mode, 16, effort.micro_measure_ms());
            series.push((format!("{}-t{rtt}", mode.label()), point.latency_profile_ms));
        }
    }
    latency_profile_figure(
        "fig10",
        "Latency (ms) by percentile vs network RTT (Nr=2, Nc=16)",
        series,
    )
}

/// Figure 11: throughput per replica vs RTT.
pub fn fig11(effort: Effort) -> Figure {
    let mut fig = Figure::new(
        "fig11",
        "Throughput (txn/s per replica) vs network RTT (Nr=2, Nc=16)",
        vec![
            "rtt_ms".into(),
            "homeo".into(),
            "opt".into(),
            "2pc".into(),
            "local".into(),
        ],
    );
    for rtt in [50u64, 100, 150, 200] {
        let config = MicroConfig {
            rtt_ms: rtt,
            ..micro_config(effort)
        };
        let values: Vec<f64> = Mode::all()
            .iter()
            .map(|mode| {
                micro_experiment(&config, *mode, 16, effort.micro_measure_ms())
                    .throughput_per_replica
            })
            .collect();
        fig.push_row(format!("{rtt}"), values);
    }
    fig
}

/// Figure 12: synchronization ratio vs RTT (homeo vs opt).
pub fn fig12(effort: Effort) -> Figure {
    let mut fig = Figure::new(
        "fig12",
        "Synchronization ratio (%) vs network RTT (Nr=2, Nc=16)",
        vec!["rtt_ms".into(), "homeo".into(), "opt".into()],
    );
    for rtt in [50u64, 100, 150, 200] {
        let config = MicroConfig {
            rtt_ms: rtt,
            ..micro_config(effort)
        };
        let h = micro_experiment(&config, Mode::Homeostasis, 16, effort.micro_measure_ms());
        let o = micro_experiment(&config, Mode::Opt, 16, effort.micro_measure_ms());
        fig.push_row(
            format!("{rtt}"),
            vec![h.sync_ratio_percent, o.sync_ratio_percent],
        );
    }
    fig
}

/// Figure 13: latency by percentile vs number of replicas ∈ {2, 5}.
pub fn fig13(effort: Effort) -> Figure {
    let mut series = Vec::new();
    for mode in Mode::all() {
        for replicas in [2usize, 5] {
            let config = MicroConfig {
                replicas,
                ..micro_config(effort)
            };
            let point = micro_experiment(&config, mode, 16, effort.micro_measure_ms());
            series.push((
                format!("{}-r{replicas}", mode.label()),
                point.latency_profile_ms,
            ));
        }
    }
    latency_profile_figure(
        "fig13",
        "Latency (ms) by percentile vs number of replicas (RTT=100ms, Nc=16)",
        series,
    )
}

/// Figure 14: throughput per replica vs number of replicas.
pub fn fig14(effort: Effort) -> Figure {
    let mut fig = Figure::new(
        "fig14",
        "Throughput (txn/s per replica) vs number of replicas (RTT=100ms, Nc=16)",
        vec![
            "replicas".into(),
            "homeo".into(),
            "opt".into(),
            "2pc".into(),
            "local".into(),
        ],
    );
    for replicas in 2usize..=5 {
        let config = MicroConfig {
            replicas,
            ..micro_config(effort)
        };
        let values: Vec<f64> = Mode::all()
            .iter()
            .map(|mode| {
                micro_experiment(&config, *mode, 16, effort.micro_measure_ms())
                    .throughput_per_replica
            })
            .collect();
        fig.push_row(format!("{replicas}"), values);
    }
    fig
}

/// Figure 15: synchronization ratio vs number of replicas.
pub fn fig15(effort: Effort) -> Figure {
    let mut fig = Figure::new(
        "fig15",
        "Synchronization ratio (%) vs number of replicas (RTT=100ms, Nc=16)",
        vec!["replicas".into(), "homeo".into(), "opt".into()],
    );
    for replicas in 2usize..=5 {
        let config = MicroConfig {
            replicas,
            ..micro_config(effort)
        };
        let h = micro_experiment(&config, Mode::Homeostasis, 16, effort.micro_measure_ms());
        let o = micro_experiment(&config, Mode::Opt, 16, effort.micro_measure_ms());
        fig.push_row(
            format!("{replicas}"),
            vec![h.sync_ratio_percent, o.sync_ratio_percent],
        );
    }
    fig
}

/// Figure 16: latency by percentile vs number of clients ∈ {1, 32}.
pub fn fig16(effort: Effort) -> Figure {
    let mut series = Vec::new();
    for mode in Mode::all() {
        for clients in [1usize, 32] {
            let config = micro_config(effort);
            let point = micro_experiment(&config, mode, clients, effort.micro_measure_ms());
            series.push((
                format!("{}-c{clients}", mode.label()),
                point.latency_profile_ms,
            ));
        }
    }
    latency_profile_figure(
        "fig16",
        "Latency (ms) by percentile vs clients per replica (Nr=2, RTT=100ms)",
        series,
    )
}

/// Figure 17: throughput per replica vs number of clients per replica.
pub fn fig17(effort: Effort) -> Figure {
    let clients_sweep: &[usize] = match effort {
        Effort::Quick => &[1, 4, 16, 64],
        Effort::Full => &[1, 2, 4, 8, 16, 32, 64, 128],
    };
    let mut fig = Figure::new(
        "fig17",
        "Throughput (txn/s per replica) vs clients per replica (Nr=2, RTT=100ms)",
        vec![
            "clients".into(),
            "homeo".into(),
            "opt".into(),
            "2pc".into(),
            "local".into(),
        ],
    );
    for &clients in clients_sweep {
        let config = micro_config(effort);
        let values: Vec<f64> = Mode::all()
            .iter()
            .map(|mode| {
                micro_experiment(&config, *mode, clients, effort.micro_measure_ms())
                    .throughput_per_replica
            })
            .collect();
        fig.push_row(format!("{clients}"), values);
    }
    fig
}

/// Figure 18: synchronization ratio vs number of clients per replica.
pub fn fig18(effort: Effort) -> Figure {
    let clients_sweep: &[usize] = match effort {
        Effort::Quick => &[1, 4, 16, 64],
        Effort::Full => &[1, 2, 4, 8, 16, 32, 64, 128],
    };
    let mut fig = Figure::new(
        "fig18",
        "Synchronization ratio (%) vs clients per replica (Nr=2, RTT=100ms)",
        vec!["clients".into(), "homeo".into(), "opt".into()],
    );
    for &clients in clients_sweep {
        let config = micro_config(effort);
        let h = micro_experiment(
            &config,
            Mode::Homeostasis,
            clients,
            effort.micro_measure_ms(),
        );
        let o = micro_experiment(&config, Mode::Opt, clients, effort.micro_measure_ms());
        fig.push_row(
            format!("{clients}"),
            vec![h.sync_ratio_percent, o.sync_ratio_percent],
        );
    }
    fig
}

/// Figure 19: TPC-C New Order latency by percentile vs hotness H ∈ {1, 50}.
pub fn fig19(effort: Effort) -> Figure {
    let mut series = Vec::new();
    for mode in [Mode::Opt, Mode::Homeostasis, Mode::TwoPc] {
        for h in [1u32, 50] {
            let config = TpccConfig {
                hotness: h,
                ..tpcc_config(effort)
            };
            let point = tpcc_experiment(&config, mode, 8, effort.tpcc_measure_ms());
            series.push((format!("{}-h{h}", mode.label()), point.new_order_latency_ms));
        }
    }
    latency_profile_figure(
        "fig19",
        "TPC-C New Order latency (ms) by percentile vs workload skew H (Nr=2, Nc=8)",
        series,
    )
}

/// Figure 20: TPC-C New Order throughput vs hotness H.
pub fn fig20(effort: Effort) -> Figure {
    let sweep: &[u32] = match effort {
        Effort::Quick => &[5, 20, 50],
        Effort::Full => &[5, 10, 15, 20, 25, 30, 35, 40, 45, 50],
    };
    let mut fig = Figure::new(
        "fig20",
        "TPC-C New Order throughput (txn/s per replica) vs hotness H (Nr=2, Nc=8)",
        vec!["hotness".into(), "opt".into(), "homeo".into(), "2pc".into()],
    );
    for &h in sweep {
        let config = TpccConfig {
            hotness: h,
            ..tpcc_config(effort)
        };
        let values: Vec<f64> = [Mode::Opt, Mode::Homeostasis, Mode::TwoPc]
            .iter()
            .map(|mode| {
                tpcc_experiment(&config, *mode, 8, effort.tpcc_measure_ms())
                    .new_order_throughput_per_replica
            })
            .collect();
        fig.push_row(format!("{h}"), values);
    }
    fig
}

/// Figure 21: TPC-C New Order latency by percentile vs replicas ∈ {2, 5}.
pub fn fig21(effort: Effort) -> Figure {
    let mut series = Vec::new();
    for mode in [Mode::Homeostasis, Mode::TwoPc] {
        for replicas in [2usize, 5] {
            let config = TpccConfig {
                replicas,
                ..tpcc_config(effort)
            };
            let point = tpcc_experiment(&config, mode, 8, effort.tpcc_measure_ms());
            series.push((
                format!("{}-r{replicas}", mode.label()),
                point.new_order_latency_ms,
            ));
        }
    }
    latency_profile_figure(
        "fig21",
        "TPC-C New Order latency (ms) by percentile vs number of replicas (Nc=8, H=10)",
        series,
    )
}

/// Figure 22: TPC-C New Order throughput vs number of replicas (including
/// the paper's conservative 2PC ×8 estimate).
pub fn fig22(effort: Effort) -> Figure {
    let mut fig = Figure::new(
        "fig22",
        "TPC-C New Order throughput (txn/s per replica) vs number of replicas (H=10)",
        vec![
            "replicas".into(),
            "homeo-c8".into(),
            "2pc-c1".into(),
            "2pc-c8(est)".into(),
        ],
    );
    for replicas in 2usize..=5 {
        let config = TpccConfig {
            replicas,
            ..tpcc_config(effort)
        };
        let homeo = tpcc_experiment(&config, Mode::Homeostasis, 8, effort.tpcc_measure_ms())
            .new_order_throughput_per_replica;
        let twopc_c1 = tpcc_experiment(&config, Mode::TwoPc, 1, effort.tpcc_measure_ms())
            .new_order_throughput_per_replica;
        fig.push_row(format!("{replicas}"), vec![homeo, twopc_c1, twopc_c1 * 8.0]);
    }
    fig
}

/// Figure 24: latency breakdown (local / solver / communication) of
/// treaty-violating transactions vs the lookahead interval L.
pub fn fig24(effort: Effort) -> Figure {
    let sweep: &[usize] = match effort {
        Effort::Quick => &[10, 40, 80],
        Effort::Full => &[10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
    };
    let mut fig = Figure::new(
        "fig24",
        "Latency breakdown (ms) of synchronizing transactions vs lookahead L (RTT=100ms, Nc=16, REFILL=100)",
        vec!["lookahead".into(), "local".into(), "solver".into(), "comm".into()],
    );
    for &lookahead in sweep {
        let config = MicroConfig {
            lookahead,
            ..micro_config(effort)
        };
        let point = micro_experiment(&config, Mode::Homeostasis, 16, effort.micro_measure_ms());
        let (local, solver, comm) = point.sync_breakdown_ms;
        fig.push_row(format!("{lookahead}"), vec![local, solver, comm]);
    }
    fig
}

/// Figure 25: throughput vs lookahead L for REFILL ∈ {10, 100, 1000}.
pub fn fig25(effort: Effort) -> Figure {
    let sweep: &[usize] = match effort {
        Effort::Quick => &[10, 40, 80],
        Effort::Full => &[10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
    };
    let mut fig = Figure::new(
        "fig25",
        "Throughput (txn/s per replica) vs lookahead L for different REFILL values (RTT=100ms, Nc=16)",
        vec!["lookahead".into(), "rf10".into(), "rf100".into(), "rf1000".into()],
    );
    for &lookahead in sweep {
        let values: Vec<f64> = [10i64, 100, 1000]
            .iter()
            .map(|&refill| {
                let config = MicroConfig {
                    lookahead,
                    refill,
                    ..micro_config(effort)
                };
                micro_experiment(&config, Mode::Homeostasis, 16, effort.micro_measure_ms())
                    .throughput_per_replica
            })
            .collect();
        fig.push_row(format!("{lookahead}"), values);
    }
    fig
}

/// Figure 26: synchronization ratio vs lookahead L for REFILL ∈ {10, 100, 1000}.
pub fn fig26(effort: Effort) -> Figure {
    let sweep: &[usize] = match effort {
        Effort::Quick => &[10, 40, 80],
        Effort::Full => &[10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
    };
    let mut fig = Figure::new(
        "fig26",
        "Synchronization ratio (%) vs lookahead L for different REFILL values (Nr=2, RTT=100ms, Nc=16)",
        vec!["lookahead".into(), "rf10".into(), "rf100".into(), "rf1000".into()],
    );
    for &lookahead in sweep {
        let values: Vec<f64> = [10i64, 100, 1000]
            .iter()
            .map(|&refill| {
                let config = MicroConfig {
                    lookahead,
                    refill,
                    ..micro_config(effort)
                };
                micro_experiment(&config, Mode::Homeostasis, 16, effort.micro_measure_ms())
                    .sync_ratio_percent
            })
            .collect();
        fig.push_row(format!("{lookahead}"), values);
    }
    fig
}

/// Figure 27: latency CDF vs number of items accessed per transaction.
pub fn fig27(effort: Effort) -> Figure {
    let cdf_points = [1.0, 2.0, 4.0, 8.0, 16.0, 50.0, 100.0, 200.0, 400.0, 1000.0];
    let mut columns = vec!["latency_ms".to_string()];
    for n in 1..=5usize {
        columns.push(format!("homeo-i{n}"));
    }
    columns.push("2pc-i1".into());
    columns.push("2pc-i5".into());
    let mut fig = Figure::new(
        "fig27",
        "Latency CDF (cumulative probability) vs items per transaction (RTT=100ms, REFILL=100, Nc=20, L=20)",
        columns,
    );
    let mut curves: Vec<Vec<(f64, f64)>> = Vec::new();
    for n in 1..=5usize {
        let config = MicroConfig {
            items_per_txn: n,
            lookahead: 20,
            ..micro_config(effort)
        };
        curves.push(
            micro_experiment(&config, Mode::Homeostasis, 20, effort.micro_measure_ms()).latency_cdf,
        );
    }
    for n in [1usize, 5] {
        let config = MicroConfig {
            items_per_txn: n,
            ..micro_config(effort)
        };
        curves.push(
            micro_experiment(&config, Mode::TwoPc, 20, effort.micro_measure_ms()).latency_cdf,
        );
    }
    for (i, point) in cdf_points.iter().enumerate() {
        let values = curves.iter().map(|curve| curve[i].1).collect();
        fig.push_row(format!("{point}"), values);
    }
    fig
}

/// Figure 28: distributed TPC-C — overall system throughput vs hotness H.
pub fn fig28(effort: Effort) -> Figure {
    let sweep: &[u32] = match effort {
        Effort::Quick => &[1, 20, 50],
        Effort::Full => &[1, 10, 20, 30, 40, 50],
    };
    let mut fig = Figure::new(
        "fig28",
        "Distributed TPC-C: overall throughput (txn/s) vs hotness H (10 warehouses x 2 datacenters, mix 49/49/2)",
        vec!["hotness".into(), "homeo".into(), "opt".into(), "2pc(est)".into()],
    );
    for &h in sweep {
        let config = TpccConfig {
            hotness: h,
            mix: (49, 49, 2),
            ..tpcc_config(effort)
        };
        let homeo = tpcc_experiment(&config, Mode::Homeostasis, 8, effort.tpcc_measure_ms());
        let opt = tpcc_experiment(&config, Mode::Opt, 8, effort.tpcc_measure_ms());
        let twopc = tpcc_experiment(&config, Mode::TwoPc, 1, effort.tpcc_measure_ms());
        fig.push_row(
            format!("{h}"),
            vec![
                homeo.total_throughput,
                opt.total_throughput,
                twopc.total_throughput * 8.0,
            ],
        );
    }
    fig
}

/// Figure 29: distributed TPC-C — synchronization ratio vs hotness H.
pub fn fig29(effort: Effort) -> Figure {
    let sweep: &[u32] = match effort {
        Effort::Quick => &[1, 20, 50],
        Effort::Full => &[1, 10, 20, 30, 40, 50],
    };
    let mut fig = Figure::new(
        "fig29",
        "Distributed TPC-C: synchronization ratio (%) vs hotness H (mix 49/49/2)",
        vec!["hotness".into(), "homeo".into(), "opt".into()],
    );
    for &h in sweep {
        let config = TpccConfig {
            hotness: h,
            mix: (49, 49, 2),
            ..tpcc_config(effort)
        };
        let homeo = tpcc_experiment(&config, Mode::Homeostasis, 8, effort.tpcc_measure_ms());
        let opt = tpcc_experiment(&config, Mode::Opt, 8, effort.tpcc_measure_ms());
        fig.push_row(
            format!("{h}"),
            vec![
                homeo.new_order_sync_ratio_percent,
                opt.new_order_sync_ratio_percent,
            ],
        );
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper_values() {
        let fig = table1();
        assert_eq!(fig.rows.len(), 5);
        assert_eq!(fig.rows[0].1[1], 64.0); // UE-UW
        assert_eq!(fig.rows[3].1[4], 372.0); // SG-BR
    }

    #[test]
    fn every_figure_id_is_known() {
        for id in all_figure_ids() {
            // Only table1 is cheap enough to fully generate here; the others
            // are covered by the reproduce binary.
            if id == "table1" {
                let fig = generate(id, Effort::Quick);
                assert_eq!(fig.id, "table1");
            }
        }
        assert_eq!(all_figure_ids().len(), 20);
    }

    #[test]
    #[should_panic(expected = "unknown figure id")]
    fn unknown_ids_panic() {
        let _ = generate("fig99", Effort::Quick);
    }

    #[test]
    fn fig12_shape_homeo_close_to_opt() {
        // Shape check on the cheapest interesting figure: both homeo and opt
        // synchronize rarely, and their ratios are within a few points.
        let fig = {
            let mut config = micro_config(Effort::Quick);
            config.num_items = 300;
            let h = micro_experiment(&config, Mode::Homeostasis, 8, 1_500);
            let o = micro_experiment(&config, Mode::Opt, 8, 1_500);
            (h.sync_ratio_percent, o.sync_ratio_percent)
        };
        assert!(fig.0 < 25.0, "homeo sync ratio {}", fig.0);
        assert!(fig.1 < 25.0, "opt sync ratio {}", fig.1);
    }
}
