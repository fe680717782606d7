//! The repo benchmark: five named workloads over real `homeostasisd`
//! processes and the WAN simulator, with per-layer attribution.
//!
//! ```text
//! benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! benchmark/run.sh [--workload all] [--smoke] [--repeat K]
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and how to read
//! them.

mod affinity;
mod fleet;
mod gen;
mod layers;
mod procfs;
mod report;
mod simwan;
mod stats;
mod tcp;
mod trace;

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use gen::Workload;
use report::{metric_lines, result_json, Metrics, Outcome, END_TO_END, PER_LAYER};
use tcp::RunOpts;
use trace::Tracer;

/// Set-ups of a TCP cluster per untraced run (milliseconds each); `setup_s`
/// is their lower quartile. The simulated workload sets up once per pass.
const TCP_SETUPS: usize = 20;
/// Passes of each half of a traced run: the same work per pass as in an
/// untraced run, so what the daemons and the simulator count matches it.
const TRACED_PASSES: usize = 2;
/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// `--smoke` shortens every run to this share.
const SMOKE_SHARE: f64 = 1.0 / 20.0;

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--repeat K] [--out-dir DIR]
workloads: tcp-singles tcp-batched tcp-contended tcp-general sim-wan4";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 0,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut smoke = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let workload =
                        Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?;
                    args.workloads = vec![workload];
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed is not a number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds is not a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|_| "--repeat is not a number")?;
                if args.repeat < 2 {
                    return Err("--repeat needs at least 2 sets".to_string());
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if smoke {
        args.seconds *= SMOKE_SHARE;
    }
    Ok(args)
}

/// `homeostasisd` is built into the same target directory as this binary.
fn daemon_path() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let path = exe.with_file_name("homeostasisd");
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::other(format!(
            "{} not found: build it with benchmark/run.sh",
            path.display()
        )))
    }
}

fn run_workload(workload: Workload, opts: &RunOpts, tracer: &mut Tracer) -> io::Result<Outcome> {
    match workload {
        Workload::SimWan4 => simwan::run(opts, tracer),
        _ => tcp::run(workload, opts, tracer),
    }
}

fn print_problems(workload: Workload, outcome: &Outcome) {
    for problem in &outcome.problems {
        println!("  INCORRECT {}: {problem}", workload.name());
    }
}

/// The untraced run: every end-to-end metric.
fn run_untraced(workload: Workload, opts: &RunOpts) -> io::Result<Outcome> {
    let outcome = run_workload(workload, opts, &mut Tracer::new(false))?;
    let samples = outcome.per_layer["client.latency_samples"];
    let tail = match stats::highest_supported_tail(samples as usize) {
        Some(q) => format!("ten beyond p{}", 100.0 * q),
        None => "too few for a tail percentile".to_string(),
    };
    println!(
        "{} seed {} (input {:016x}): {samples} latency samples ({tail}) over {:.2} s, {} set-ups",
        workload.name(),
        opts.seed,
        gen::stream_hash(workload, opts.seed, 1_000),
        outcome.per_layer["client.timed_s"],
        outcome.per_layer["client.setup_samples"],
    );
    print!("{}", metric_lines(&END_TO_END, &outcome.end_to_end));
    for (name, metric) in [("p50_ms", "client.p50_ms"), ("p99_ms", "client.p99_ms")] {
        println!("  {name:<44} {:>16.4} ms", outcome.per_layer[metric]);
    }
    println!(
        "  {:<44} {:>16.6} ratio",
        "sync_ratio", outcome.per_layer["client.sync_ratio"]
    );
    println!(
        "  {:<44} {:>16.6} ratio",
        "failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    print_problems(workload, &outcome);
    println!(
        "{}",
        result_json(&outcome, &END_TO_END, &outcome.end_to_end)
    );
    Ok(outcome)
}

/// The traced run: the workload once untraced and once with spans, each
/// [`TRACED_PASSES`] passes (their `ops_s` difference is the tracing
/// overhead), then the per-layer pass, then the attribution rows.
fn run_traced(workload: Workload, opts: &RunOpts) -> io::Result<Outcome> {
    let half = RunOpts {
        passes: TRACED_PASSES,
        setups: TRACED_PASSES,
        ..*opts
    };
    let plain = run_workload(workload, &half, &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let mut traced = run_workload(workload, &half, &mut tracer)?;
    let layers = layers::run(&mut tracer)?;
    let trace_file = opts.out_dir.join(format!("trace-{}.json", workload.name()));
    tracer.write_json(&trace_file, workload.name(), opts.seed)?;

    let plain_rate = plain.end_to_end["ops_s"];
    let mut values: Metrics = std::mem::take(&mut traced.per_layer);
    values.insert(
        "client.trace_overhead_pct",
        100.0 * (plain_rate - traced.end_to_end["ops_s"]) / plain_rate,
    );
    let sync_ratio = values["client.sync_ratio"];
    if let Some(explained) = layers::layers_us_per_op(workload, &layers, sync_ratio) {
        let cpu = plain.end_to_end["cpu_us_per_op"];
        values.insert("attrib.layers_us_per_op", explained);
        values.insert("attrib.unexplained_pct", 100.0 * (cpu - explained) / cpu);
    }
    values.extend(layers);

    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.problems.extend(plain.problems);
    println!("{} seed {} traced:", workload.name(), opts.seed);
    print!("{}", metric_lines(&PER_LAYER, &values));
    print_problems(workload, &traced);
    println!("{}", result_json(&traced, &PER_LAYER, &values));
    Ok(traced)
}

/// `--repeat K`: K sets of untraced runs, each set with its own seed, then
/// median, min, max and quartile spread per end-to-end metric per workload.
fn summarize(sets: &BTreeMap<(usize, &'static str), Vec<f64>>) {
    println!(
        "\n{:<14} {:<14} {:>14} {:>14} {:>14} {:>9}",
        "workload", "metric", "median", "min", "max", "spread"
    );
    for ((index, metric), values) in sets {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{:<14} {:<14} {:>14.4} {:>14.4} {:>14.4} {:>8.2}%",
            Workload::ALL[*index].name(),
            metric,
            stats::median(values),
            min,
            max,
            100.0 * stats::relative_spread(values)
        );
    }
}

fn run(args: &Args) -> io::Result<bool> {
    let daemon = daemon_path()?;
    std::fs::create_dir_all(&args.out_dir)?;
    let mut all_correct = true;
    let mut sets: BTreeMap<(usize, &'static str), Vec<f64>> = BTreeMap::new();
    for set in 0..args.repeat.max(1) {
        for workload in &args.workloads {
            let opts = RunOpts {
                seed: args.seed + set as u64,
                seconds: args.seconds,
                daemon: &daemon,
                out_dir: &args.out_dir,
                passes: gen::PASSES,
                setups: TCP_SETUPS,
            };
            let outcome = if args.trace {
                run_traced(*workload, &opts)?
            } else {
                run_untraced(*workload, &opts)?
            };
            all_correct &= outcome.correct();
            let index = Workload::ALL
                .iter()
                .position(|w| w == workload)
                .expect("listed");
            for (metric, _) in END_TO_END {
                if let Some(value) = outcome.end_to_end.get(metric) {
                    sets.entry((index, metric)).or_default().push(*value);
                }
            }
        }
    }
    if args.repeat >= 2 && !args.trace {
        summarize(&sets);
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = affinity::pin_to_one_cpu() {
        eprintln!("could not pin the benchmark to one CPU ({e}): expect unsteady numbers");
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
