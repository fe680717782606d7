//! Regenerates the paper's tables and figures.
//!
//! ```text
//! reproduce [--full] [--csv-dir DIR] [--json PATH] [--baseline PATH]
//!           [--list] [--homeo-load CONFIG] [--ops N]
//!           [--clients N] [--rate R] [--metrics] [--sites N,N,...]
//!           [--retire SITE]
//!           [all | table1 | fig10 | ... | fig29
//!            | cluster-partition | ... | cluster-tcp
//!            | scenario-flash-sale | scenario-rate-limiter
//!            | scenario-seatmap | scenario-tpcc-neworder
//!            | scenario-join-leave | bench | sync | scaling]...
//! ```
//!
//! With no arguments, `all` is assumed: every paper figure, the cluster
//! fault scenarios (partition-then-heal, kill-then-recover, skew), the
//! general-path application scenarios (`scenario-*`: registered `L++`
//! programs — flash sale, rate limiter, seat map, TPC-C new-order —
//! verified against the serial oracle as they generate) and the
//! batched-throughput suite (`bench`). `--full` runs the larger sweeps
//! (closer to the paper's configuration); the default "quick" effort keeps
//! the whole reproduction within a few minutes. `--csv-dir` additionally
//! writes one CSV file per figure. `--json PATH` serializes every generated
//! figure to one machine-readable JSON file (the stable schema CI and the
//! `BENCH_*.json` trajectory consume). `--baseline PATH` compares the
//! generated figures against a previously emitted JSON file and fails when
//! any pinned cell drops below half its baseline value (the CI perf gate:
//! ops/sec floors for `bench`, solver-speedup and violation-cut ratios for
//! `sync`). `--list` prints
//! the available ids (one per line) and exits. `--homeo-load CONFIG` is the
//! TCP load client: it connects to the `homeostasisd` cluster described by CONFIG
//! (started separately, any mix of processes/machines on the config's
//! addresses), drives `--ops N` (default 2000) seeded order operations per
//! site over the sockets, and self-verifies counter conservation — a failed
//! check is a non-zero exit. `--clients N` fans the load out over N
//! concurrent pipelined connections (spread round-robin across the sites;
//! default one per site), exercising the sites' epoll reactors at real
//! connection counts — `--clients 10000` is a meaningful smoke test.
//! `--rate R` switches the load to **open-loop** arrivals at R operations
//! per second aggregate (deterministic Poisson schedule; latency measured
//! from each batch's scheduled arrival), instead of the default closed
//! loop. `--metrics` scrapes every site's telemetry dump
//! (`MetricsRequest` → Prometheus-style text) after the load, prints it,
//! and fails if a required instrumentation key is missing or zero — the
//! CI smoke job uses this to prove a live daemon's metrics endpoint works.
//! `--sites N,N,...` overrides the site counts of the `scaling` sweep
//! (and adds `scaling` to the requested ids if absent, so
//! `reproduce bench --sites 2,5` emits both figures). `--retire SITE`
//! (with `--homeo-load`) first retires the named site from the live
//! cluster — a `Leave` frame through a surviving member, polled until the
//! epoch-bumped roster evicts it — and then drives the load against the
//! survivors only, so the conservation exit code also gates the handoff's
//! delta folding.
//!
//! Exit codes: `0` on success, `1` when one or more requested figures or
//! scenarios fail to generate or write, or when the baseline check finds a
//! regression (the remaining ones are still produced), `2` on usage errors.

use std::path::PathBuf;

use std::time::Duration;

use homeo_bench::{all_ids, generate, Effort, Figure, Json};
use homeo_cluster::{tcp_load_opts, ClusterSpec, LoadOptions, TcpClient};
use homeo_telemetry::Histogram;

fn main() {
    let mut effort = Effort::Quick;
    let mut csv_dir: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut homeo_load: Option<PathBuf> = None;
    let mut ops_per_site: usize = 2_000;
    let mut clients: usize = 0;
    let mut rate: f64 = 0.0;
    let mut metrics = false;
    let mut site_counts: Option<Vec<usize>> = None;
    let mut retire: Option<usize> = None;
    let mut requested: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => effort = Effort::Full,
            "--quick" => effort = Effort::Quick,
            "--list" => {
                for id in all_ids() {
                    println!("{id}");
                }
                return;
            }
            "--homeo-load" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--homeo-load requires a cluster config path");
                    std::process::exit(2);
                });
                homeo_load = Some(PathBuf::from(path));
            }
            "--ops" => {
                let n = args.next().and_then(|n| n.parse::<usize>().ok());
                match n {
                    Some(n) if n > 0 => ops_per_site = n,
                    _ => {
                        eprintln!("--ops requires a positive per-site operation count");
                        std::process::exit(2);
                    }
                }
            }
            "--clients" => {
                let n = args.next().and_then(|n| n.parse::<usize>().ok());
                match n {
                    Some(n) if n > 0 => clients = n,
                    _ => {
                        eprintln!("--clients requires a positive connection count");
                        std::process::exit(2);
                    }
                }
            }
            "--rate" => {
                let r = args.next().and_then(|r| r.parse::<f64>().ok());
                match r {
                    Some(r) if r > 0.0 && r.is_finite() => rate = r,
                    _ => {
                        eprintln!("--rate requires a positive ops/sec rate");
                        std::process::exit(2);
                    }
                }
            }
            "--metrics" => metrics = true,
            "--sites" => {
                let list = args.next().and_then(|list| {
                    list.split(',')
                        .map(|n| n.trim().parse::<usize>().ok().filter(|&n| n >= 2))
                        .collect::<Option<Vec<usize>>>()
                });
                match list {
                    Some(list) if !list.is_empty() => site_counts = Some(list),
                    _ => {
                        eprintln!("--sites requires a comma-separated list of counts >= 2");
                        std::process::exit(2);
                    }
                }
            }
            "--retire" => {
                let n = args.next().and_then(|n| n.parse::<usize>().ok());
                match n {
                    Some(n) => retire = Some(n),
                    _ => {
                        eprintln!("--retire requires a site id");
                        std::process::exit(2);
                    }
                }
            }
            "--csv-dir" => {
                let dir = args.next().unwrap_or_else(|| {
                    eprintln!("--csv-dir requires a directory argument");
                    std::process::exit(2);
                });
                csv_dir = Some(PathBuf::from(dir));
            }
            "--json" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--json requires an output path");
                    std::process::exit(2);
                });
                json_path = Some(PathBuf::from(path));
            }
            "--baseline" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--baseline requires a baseline JSON path");
                    std::process::exit(2);
                });
                baseline_path = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                println!(
                    "usage: reproduce [--full] [--csv-dir DIR] [--json PATH] \
                     [--baseline PATH] [--list] \
                     [--homeo-load CONFIG] [--ops N] [--clients N] [--rate R] \
                     [--metrics] [--sites N,N,...] [--retire SITE] \
                     [all | {}]...",
                    all_ids().join(" | ")
                );
                return;
            }
            other => requested.push(other.to_string()),
        }
    }
    let known = all_ids();
    for id in &requested {
        if id != "all" && !known.contains(&id.as_str()) {
            eprintln!(
                "unknown figure id `{id}`; expected one of: all {}",
                known.join(" ")
            );
            std::process::exit(2);
        }
    }
    if retire.is_some() && homeo_load.is_none() {
        eprintln!("--retire needs --homeo-load CONFIG to reach the cluster");
        std::process::exit(2);
    }
    if requested.is_empty() && homeo_load.is_some() {
        // `--homeo-load CONFIG` alone runs just the load mode.
    } else if requested.is_empty() || requested.iter().any(|r| r == "all") {
        requested = known.iter().map(|s| s.to_string()).collect();
    } else if site_counts.is_some() && !requested.iter().any(|r| r == "scaling") {
        // An explicit site list means the sweep was asked for:
        // `reproduce bench --sites 2,5` emits the scaling figure too.
        requested.push("scaling".to_string());
    }

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create csv output directory {}: {e}", dir.display());
            std::process::exit(2);
        }
    }

    if !requested.is_empty() {
        println!(
            "Reproducing {} figure(s) at {:?} effort\n",
            requested.len(),
            effort
        );
    }
    let mut failed: Vec<String> = Vec::new();
    let mut figures: Vec<Figure> = Vec::new();
    for id in &requested {
        let started = std::time::Instant::now();
        // A figure that panics (e.g. a degenerate sweep) must not take the
        // rest of the reproduction down with it — record it and move on.
        let result = std::panic::catch_unwind(|| match (id.as_str(), &site_counts) {
            ("scaling", Some(counts)) => homeo_bench::scaling::sweep(counts, effort),
            _ => generate(id, effort),
        });
        let figure = match result {
            Ok(figure) => figure,
            Err(_) => {
                eprintln!("FAILED to generate `{id}`\n");
                failed.push(id.clone());
                continue;
            }
        };
        println!("{}", figure.to_text());
        println!("({} generated in {:.1?})\n", figure.id, started.elapsed());
        if let Some(dir) = &csv_dir {
            let path = dir.join(format!("{}.csv", figure.id));
            if let Err(e) = std::fs::write(&path, figure.to_csv()) {
                eprintln!("FAILED to write {}: {e}\n", path.display());
                failed.push(id.clone());
            }
        }
        figures.push(figure);
    }
    if let Some(path) = &json_path {
        let doc = Json::Obj(vec![
            ("schema_version".into(), Json::Num(1.0)),
            (
                "effort".into(),
                Json::Str(format!("{effort:?}").to_lowercase()),
            ),
            (
                "figures".into(),
                Json::Arr(figures.iter().map(Figure::to_json).collect()),
            ),
        ]);
        if let Err(e) = std::fs::write(path, doc.to_pretty_string()) {
            eprintln!("FAILED to write {}: {e}\n", path.display());
            failed.push("--json".to_string());
        } else {
            println!("Wrote {} figure(s) to {}\n", figures.len(), path.display());
        }
    }
    if let Some(path) = &baseline_path {
        match check_baseline(path, &figures) {
            Ok(checked) => {
                println!("Baseline check passed: {checked} cell(s) within tolerance\n");
            }
            Err(problems) => {
                for problem in &problems {
                    eprintln!("BASELINE REGRESSION: {problem}");
                }
                eprintln!();
                failed.push("--baseline".to_string());
            }
        }
    }
    if let Some(config_path) = &homeo_load {
        match run_homeo_load(config_path, ops_per_site, clients, rate, metrics, retire) {
            Ok(()) => {}
            Err(problem) => {
                eprintln!("FAILED: {problem}\n");
                failed.push("--homeo-load".to_string());
            }
        }
    }
    if !failed.is_empty() {
        eprintln!(
            "{} of {} task(s) failed: {}",
            failed.len(),
            requested.len() + usize::from(homeo_load.is_some()),
            failed.join(" ")
        );
        std::process::exit(1);
    }
}

/// The `homeo-load` client mode: drive `submit_batch` order traffic over
/// TCP against an externally started `homeostasisd` cluster and
/// self-verify counter conservation. Any lost operation, cross-site
/// disagreement or conservation violation is an `Err` (and thus a non-zero
/// exit). With `--retire SITE` the named site is first evicted from the
/// live cluster (a `Leave` through a surviving member, polled until the
/// epoch-bumped roster drops it) and the load runs against the survivors.
fn run_homeo_load(
    config_path: &std::path::Path,
    ops_per_site: usize,
    clients: usize,
    rate: f64,
    metrics: bool,
    retire: Option<usize>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(config_path)
        .map_err(|e| format!("cannot read {}: {e}", config_path.display()))?;
    let mut spec = ClusterSpec::parse(&text)
        .map_err(|e| format!("bad cluster config {}: {e}", config_path.display()))?;
    if let Some(site) = retire {
        retire_site(&mut spec, site)?;
    }
    const ITEMS: usize = 16;
    let mut opts = LoadOptions {
        clients,
        ..LoadOptions::new(ops_per_site, ITEMS, 42)
    };
    if rate > 0.0 {
        opts = opts.open_loop(rate);
    }
    println!(
        "homeo-load: {} site(s) over TCP, {ops_per_site} ops per site, {ITEMS} counters{}{}",
        spec.sites(),
        if clients > 0 {
            format!(", {clients} concurrent connections")
        } else {
            String::new()
        },
        if rate > 0.0 {
            format!(", open loop at {rate:.0} ops/s offered")
        } else {
            String::new()
        }
    );
    let report = tcp_load_opts(&spec, &opts).map_err(|e| format!("TCP load failed: {e}"))?;
    println!(
        "{} sites x {ops_per_site} ops over {} connection(s): {} committed \
         ({} synchronized) in {:.2}s = {:.0} ops/s",
        report.sites,
        report.clients,
        report.committed,
        report.synchronized,
        report.elapsed_secs,
        report.throughput
    );
    let violation_syncs = report
        .stats
        .synchronizations
        .saturating_sub(report.stats.proactive_negotiations);
    println!(
        "sync rounds: {violation_syncs} violation-triggered + {} proactive, \
         {} negotiations, solver {:.1} ms total",
        report.stats.proactive_negotiations,
        report.stats.negotiations,
        report.stats.solver_micros_total as f64 / 1_000.0
    );
    // Client-observed latency per pipelined batch: the closed loop measures
    // from each batch's send, the open loop from its scheduled arrival.
    println!(
        "latency per batch (ms){}:",
        if rate > 0.0 {
            " from scheduled arrival"
        } else {
            ""
        }
    );
    println!(
        "  {:<12} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "", "p50", "p90", "p99", "p999", "max"
    );
    for (site, hist) in report.site_latency.iter().enumerate() {
        println!("  {}", latency_row(&format!("site {site}"), hist));
    }
    println!("  {}", latency_row("all sites", &report.latency));
    println!(
        "conservation: seeded {} - committed {} = folded {} ({})\n",
        report.initial_total,
        report.committed,
        report.final_total,
        if report.conserved { "OK" } else { "VIOLATED" }
    );
    if !report.conserved {
        return Err("counter conservation check failed".to_string());
    }
    if metrics {
        check_live_metrics(&spec)?;
    }
    Ok(())
}

/// Retires `site` from the live cluster: sends `Leave` through a surviving
/// member, polls that member's roster until the epoch-bumped
/// `MembershipInstall` evicts the leaver (its shards handed off to the
/// survivors), then drops the address from the spec so the load — and its
/// conservation check — runs against the survivors only.
///
/// Meant to follow an earlier load against the full cluster (the CI
/// elasticity job's flow): the load's counters then already exist on every
/// survivor and seeding is skip-if-known, so the shrunken spec's site
/// indices never reach the cluster as a member list.
fn retire_site(spec: &mut ClusterSpec, site: usize) -> Result<(), String> {
    if site >= spec.sites() {
        return Err(format!(
            "--retire {site}: the config only declares {} site(s)",
            spec.sites()
        ));
    }
    if spec.sites() < 2 {
        return Err("--retire needs at least two configured sites".to_string());
    }
    let watch = (0..spec.sites())
        .find(|s| *s != site)
        .expect("two sites leave a survivor");
    let addr = spec.addrs[watch];
    let mut client = TcpClient::connect_retry(addr, Duration::from_secs(10))
        .map_err(|e| format!("cannot reach surviving site {watch} at {addr}: {e}"))?;
    let before = client
        .roster()
        .map_err(|e| format!("roster query at site {watch} failed: {e}"))?;
    if !before.contains(site) {
        return Err(format!(
            "--retire {site}: not a member of the live roster \
             (epoch {}, members {:?})",
            before.epoch, before.members
        ));
    }
    println!(
        "retiring site {site} via site {watch}: roster epoch {}, members {:?}",
        before.epoch, before.members
    );
    client
        .leave(site)
        .map_err(|e| format!("Leave({site}) via site {watch} failed: {e}"))?;
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let roster = client
            .roster()
            .map_err(|e| format!("roster poll at site {watch} failed: {e}"))?;
        if roster.epoch > before.epoch && !roster.contains(site) {
            println!(
                "site {site} retired: epoch {} -> {}, members {:?}\n",
                before.epoch, roster.epoch, roster.members
            );
            break;
        }
        if std::time::Instant::now() >= deadline {
            return Err(format!(
                "timed out waiting for site {site} to leave \
                 (epoch {}, members {:?})",
                roster.epoch, roster.members
            ));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    spec.addrs.remove(site);
    Ok(())
}

/// One row of the load summary's latency table.
fn latency_row(label: &str, hist: &Histogram) -> String {
    let ms = |q: f64| hist.quantile(q) as f64 / 1_000.0;
    format!(
        "{label:<12} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
        ms(0.50),
        ms(0.90),
        ms(0.99),
        ms(0.999),
        hist.max() as f64 / 1_000.0
    )
}

/// Scrapes every site's telemetry dump over a fresh connection, prints it,
/// and verifies the instrumentation is alive: per site, the reactor and
/// commit counters must be present and non-zero; cluster-wide, the sync
/// phase histograms must have recorded rounds. A missing or zero key is an
/// `Err` — this is the CI smoke job's gate on the metrics endpoint.
fn check_live_metrics(spec: &ClusterSpec) -> Result<(), String> {
    // Required per site: any loaded site serves frames and commits locally.
    const PER_SITE: [&str; 4] = [
        "homeo_reactor_frames_in_total",
        "homeo_reactor_bytes_in_total",
        "homeo_local_commits_total",
        "homeo_submit_batch_ops_count",
    ];
    // Required cluster-wide: the load forces violation rounds somewhere,
    // but which sites coordinate/participate depends on counter placement.
    const CLUSTER_WIDE: [&str; 3] = [
        "homeo_sync_violation_round_micros_count",
        "homeo_sync_violation_collect_micros_count",
        "homeo_synchronizations_total",
    ];
    let mut totals: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    let mut problems = Vec::new();
    for (site, addr) in spec.addrs.iter().enumerate() {
        let text = TcpClient::connect_retry(*addr, Duration::from_secs(5))
            .and_then(|mut client| client.metrics())
            .map_err(|e| format!("metrics scrape of site {site} failed: {e}"))?;
        println!("--- metrics: site {site} ({addr}) ---");
        print!("{text}");
        let values = parse_metrics(&text);
        for key in PER_SITE {
            match values.get(key) {
                Some(v) if *v > 0.0 => {}
                Some(_) => problems.push(format!("site {site}: `{key}` is zero")),
                None => problems.push(format!("site {site}: `{key}` missing")),
            }
        }
        for key in CLUSTER_WIDE {
            *totals.entry(key).or_default() += values.get(key).copied().unwrap_or(0.0);
        }
    }
    println!();
    for key in CLUSTER_WIDE {
        if totals.get(key).copied().unwrap_or(0.0) <= 0.0 {
            problems.push(format!("`{key}` is zero across every site"));
        }
    }
    if problems.is_empty() {
        println!(
            "metrics check passed: {} per-site key(s) and {} cluster-wide key(s) non-zero\n",
            PER_SITE.len(),
            CLUSTER_WIDE.len()
        );
        Ok(())
    } else {
        Err(format!("metrics check failed: {}", problems.join("; ")))
    }
}

/// Parses Prometheus-style text into `name -> value` (comment lines are
/// skipped; histogram summaries contribute their `_count`/`_sum`/... keys).
fn parse_metrics(text: &str) -> std::collections::BTreeMap<String, f64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let name = parts.next()?;
            let value = parts.next()?.parse::<f64>().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

/// Compares the generated figures against a baseline JSON file (the schema
/// `--json` emits). Every numeric cell present in both is checked with the
/// generous CI tolerance: the current value must be at least **half** the
/// baseline value (a cell regressing by more than 2× fails). Columns whose
/// name ends in `_ms` are latencies, and columns named `…_over_…` are a
/// cost relative to a reference cost, so for both the rule inverts into a
/// ceiling: the current value must be at most **twice** the baseline. Either way a
/// NaN cell (an unmeasured latency, a zero-committed throughput) fails
/// closed. Cells, rows or figures missing from the baseline are skipped,
/// so the baseline only pins what it names. Returns the number of cells
/// checked.
fn check_baseline(path: &std::path::Path, figures: &[Figure]) -> Result<usize, Vec<String>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| vec![format!("cannot read baseline {}: {e}", path.display())])?;
    let doc = Json::parse(&text)
        .ok_or_else(|| vec![format!("baseline {} is not valid JSON", path.display())])?;
    let baseline_figures: Vec<Figure> = doc
        .get("figures")
        .and_then(Json::as_arr)
        .map(|figs| figs.iter().filter_map(Figure::from_json).collect())
        .unwrap_or_default();
    if baseline_figures.is_empty() {
        return Err(vec![format!(
            "baseline {} holds no figures in the expected schema",
            path.display()
        )]);
    }
    let mut problems = Vec::new();
    let mut checked = 0;
    for base in &baseline_figures {
        let Some(current) = figures.iter().find(|f| f.id == base.id) else {
            continue; // the baseline only gates figures that were generated
        };
        for (label, base_values) in &base.rows {
            let Some((_, current_values)) = current.rows.iter().find(|(l, _)| l == label) else {
                problems.push(format!("{}: row `{label}` missing from the run", base.id));
                continue;
            };
            for (col, base_value) in base.columns.iter().skip(1).zip(base_values) {
                if !base_value.is_finite() {
                    continue; // null baseline cell = unpinned
                }
                // Search data columns only (skip the label column), so a
                // malformed baseline naming the label column reports as
                // missing instead of indexing out of the row.
                let Some(position) = current.columns.iter().skip(1).position(|c| c == col) else {
                    problems.push(format!("{}: column `{col}` missing from the run", base.id));
                    continue;
                };
                let current_value = current_values[position];
                checked += 1;
                // `<` would silently pass on NaN; an unparseable cell must
                // fail the gate, not sneak through it.
                if col.ends_with("_ms") || col.contains("_over_") {
                    // Latency or relative-cost column: gate as a ceiling.
                    let holds = matches!(
                        current_value.partial_cmp(&(base_value * 2.0)),
                        Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                    );
                    if !holds {
                        problems.push(format!(
                            "{} [{label} × {col}]: {current_value:.1} is above twice \
                             the baseline ceiling {base_value:.1}",
                            base.id
                        ));
                    }
                } else {
                    let holds = matches!(
                        current_value.partial_cmp(&(base_value / 2.0)),
                        Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
                    );
                    if !holds {
                        problems.push(format!(
                            "{} [{label} × {col}]: {current_value:.0} is below half \
                             the baseline {base_value:.0}",
                            base.id
                        ));
                    }
                }
            }
        }
    }
    // Fail closed: a baseline that pinned figures none of which were
    // generated means the gate checked nothing — that is a misconfigured
    // invocation (wrong ids requested), not a pass.
    if checked == 0 {
        problems.push(format!(
            "baseline {} pinned {} figure(s) but no cell was checked — \
             was the gated figure requested?",
            path.display(),
            baseline_figures.len()
        ));
    }
    if problems.is_empty() {
        Ok(checked)
    } else {
        Err(problems)
    }
}
