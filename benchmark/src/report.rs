//! Metric names and units, the result of one run, and how both are printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics — what a client of the system sees — with their
/// units. Every workload reports every one (the driver takes one flat list),
/// so each is defined on the simulated workload too; see the README.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_s", "1/s"),
    ("p95_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("rss_mb", "MB"),
];

/// The per-layer metrics with their units: first those a traced workload
/// run observes (scraped from the daemons or counted by the simulator),
/// then the per-layer pass's timings of calls into public functions.
pub const PER_LAYER: [(&str, &str); 73] = [
    // Observed on the traced workload run.
    ("client.sync_ratio", "ratio"),
    ("client.latency_samples", "count"),
    ("client.gen_ns_per_op", "ns"),
    ("client.trace_overhead_pct", "%"),
    ("cluster.reactor.frames_in_per_op", "count"),
    ("cluster.reactor.bytes_in_per_op", "B"),
    ("cluster.reactor.bytes_out_per_op", "B"),
    ("cluster.reactor.writev_frames_p50", "count"),
    ("cluster.reactor.write_queue_max_bytes", "B"),
    ("cluster.worker.batch_ops_p50", "count"),
    ("cluster.worker.sync_round_us_p50", "us"),
    ("cluster.worker.sync_collect_us_p50", "us"),
    ("cluster.worker.sync_solve_us_p50", "us"),
    ("cluster.worker.sync_install_us_p50", "us"),
    ("cluster.worker.sync_freeze_us_p50", "us"),
    ("protocol.solver_us_per_negotiation", "us"),
    ("protocol.negotiations_per_sync", "ratio"),
    ("cluster.sim.virt_op_ms", "ms"),
    ("cluster.sim.virt_p99_ms", "ms"),
    ("cluster.sim.frames_per_op", "count"),
    ("cluster.sim.retransmits_per_op", "count"),
    ("cluster.sim.negotiations", "count"),
    ("attrib.layers_us_per_op", "us"),
    ("attrib.unexplained_pct", "%"),
    ("attrib.solver_share_pct", "%"),
    // Timed by the per-layer pass.
    ("lang.tokenize_ns_per_txn", "ns"),
    ("lang.parse_ns_per_txn", "ns"),
    ("analysis.symbolic_us_per_txn", "us"),
    ("analysis.joint_build_ms", "ms"),
    ("analysis.joint_rows", "count"),
    ("analysis.find_row_us", "us"),
    ("solver.fm_check_us", "us"),
    ("solver.maxsmt_us", "us"),
    ("protocol.negotiate_cold_us.s2", "us"),
    ("protocol.negotiate_cold_us.s3", "us"),
    ("protocol.negotiate_cold_us.s4", "us"),
    ("protocol.negotiate_warm_us.s2", "us"),
    ("protocol.negotiate_warm_us.s4", "us"),
    ("protocol.negotiate_memo_hit_ns", "ns"),
    ("protocol.program_register_ms", "ms"),
    ("protocol.program_negotiate_ms", "ms"),
    ("protocol.local_holds_us", "us"),
    ("store.write_logged_ns", "ns"),
    ("store.write_logged_batch_ns_per_write", "ns"),
    ("store.snapshot_us", "us"),
    ("store.wal_bytes_per_write", "B"),
    ("store.reopen_ms", "ms"),
    ("runtime.replicated_ns_per_op.b1", "ns"),
    ("runtime.replicated_ns_per_op.b64", "ns"),
    ("cluster.msg.encode_submit_ns_per_op.b1", "ns"),
    ("cluster.msg.encode_submit_ns_per_op.b64", "ns"),
    ("cluster.msg.decode_submit_ns_per_op.b1", "ns"),
    ("cluster.msg.decode_submit_ns_per_op.b64", "ns"),
    ("cluster.msg.submit_bytes_per_op.b1", "B"),
    ("cluster.msg.submit_bytes_per_op.b64", "B"),
    ("cluster.msg.encode_reply_ns_per_op", "ns"),
    ("cluster.msg.assembler_ns_per_frame", "ns"),
    ("cluster.worker.submit_ns_per_op.b1", "ns"),
    ("cluster.worker.submit_ns_per_op.b64", "ns"),
    ("cluster.reactor.noop_rtt_us", "us"),
    ("cluster.reactor.submit_rtt_us.b1", "us"),
    ("telemetry.hist_record_ns", "ns"),
    ("telemetry.render_us", "us"),
    ("client.p50_ms", "ms"),
    ("client.p90_ms", "ms"),
    ("client.p99_ms", "ms"),
    ("client.timed_s", "s"),
    ("client.timed_ops", "count"),
    ("client.setup_samples", "count"),
    ("client.slices", "count"),
    ("client.passes", "count"),
    ("client.ops_s_mean", "1/s"),
    ("client.cpu_us_per_op_mean", "us"),
];

/// Named metric values of one run.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued, warm-up included.
    pub attempted: u64,
    /// Operations issued that did not commit; the whole run when a
    /// correctness check failed.
    pub failed: u64,
    /// What the correctness checks found wrong (empty = correct).
    pub problems: Vec<String>,
    /// Every end-to-end metric.
    pub end_to_end: Metrics,
    /// The per-layer metrics this run observed (a traced run adds the
    /// per-layer pass's before printing).
    pub per_layer: Metrics,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// A value with all the digits it was measured with, as a JSON number.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The one-line JSON result the driver reads: exactly `correct`,
/// `attempted`, `failed` and `metrics`, the metrics being every name of
/// `table` with its unit.
pub fn result_json(
    outcome: &Outcome,
    table: &[(&'static str, &'static str)],
    values: &Metrics,
) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    out.push_str("}}");
    out
}

/// Human-readable `name value unit` lines for every name of `table`.
pub fn metric_lines(table: &[(&'static str, &'static str)], values: &Metrics) -> String {
    let mut out = String::new();
    for (name, unit) in table {
        let value = values.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(out, "  {name:<44} {value:>16.4} {unit}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The driver's rules for a metric name: starts with a letter or a
    /// digit, at most 64 of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The driver's rules for a unit.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_stay_in_the_drivers_charset_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(valid_unit(unit), "bad unit `{unit}` of `{name}`");
            assert!(seen.insert(*name), "metric `{name}` is named twice");
        }
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_unit("µs") && !valid_unit(""));
    }

    #[test]
    fn benchmark_json_names_the_same_metrics_and_workloads() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for workload in crate::gen::Workload::ALL {
            let entry = format!("{{\"name\": \"{}\", \"why\":", workload.name());
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_drivers_keys() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.end_to_end.insert("ops_s", 1234.5678);
        let line = result_json(&outcome, &END_TO_END[..2], &outcome.end_to_end);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}, \
             \"ops_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}}}"
        );
        assert!(!line.contains('\n'));
    }
}
