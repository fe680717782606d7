//! The simulated WAN workload: four sites on the paper's Table 1 geometry,
//! single-threaded and deterministic.
//!
//! The operation stream is fixed and `--seed` drives the network's faults,
//! so what the simulator charges (virtual time, frames, retransmissions)
//! repeats exactly for a seed, and the protocol's decisions (which
//! operations synchronize, what is negotiated) repeat on every run and move
//! only when the protocol does. The wall clock is almost all treaty solving
//! — the layer the TCP workloads barely touch.
//!
//! A run is [`PASSES`] passes over the same operations, each on a fresh
//! cluster, and an operation's real time is the least any pass measured.

use std::io;
use std::time::Instant;

use homeo_cluster::{SimCluster, SimMetrics, SimNetConfig};
use homeo_protocol::{ClusterConfig, ReplicatedMode};
use homeo_runtime::SiteRuntime;
use homeo_sim::{RttMatrix, Timer};

use crate::gen::{
    counter_obj, SimStream, HOMEOSTASIS_OPTIMIZER, OVERRUN_FACTOR, PASSES, SIM_COUNTERS,
    SIM_INITIAL, SIM_REFILL_TO, SIM_SITES,
};
use crate::procfs;
use crate::report::Outcome;
use crate::stats::{lower_quartile, percentile_sorted, ratio};
use crate::tcp::RunOpts;
use crate::trace::{SpanId, Tracer, NO_SPAN};

/// Lower bound of every counter's global treaty.
const LOWER_BOUND: i64 = 1;
/// Operations per second of `--seconds`, over all passes: the work is a
/// fixed count, not a window, so the virtual metrics cover the same
/// operations on every run. Sized so the passes together take about
/// `--seconds` at the seed commit.
const OPS_PER_SECOND: f64 = 90.0;

fn build(seed: u64) -> SimCluster {
    let config = ClusterConfig::new(ReplicatedMode::Homeostasis {
        optimizer: Some(HOMEOSTASIS_OPTIMIZER),
    })
    .with_timer(Timer::fixed_zero());
    let net = SimNetConfig {
        rtt: RttMatrix::table1().truncated(SIM_SITES),
        jitter_us: 5_000,
        drop_chance: 0.02,
        reorder_chance: 0.05,
        seed,
    };
    SimCluster::new(SIM_SITES, config, net)
}

/// A set-up simulator with the serial oracle of its counters.
struct Sim {
    cluster: SimCluster,
    stream: SimStream,
    /// What a serial execution of the operations so far leaves in each
    /// counter. Operations run one at a time to quiescence, so the oracle
    /// is exact.
    serial: [i64; SIM_COUNTERS],
    issued: u64,
    committed: u64,
}

impl Sim {
    fn setup(seed: u64, tracer: &mut Tracer, parent: SpanId) -> Sim {
        let span = tracer.open("setup.construct", parent);
        let mut cluster = build(seed);
        tracer.close(span);
        let span = tracer.open("setup.register", parent);
        for item in 0..SIM_COUNTERS {
            cluster.register(counter_obj(item), SIM_INITIAL, LOWER_BOUND);
        }
        tracer.close(span);
        Sim {
            cluster,
            stream: SimStream::new(),
            serial: [SIM_INITIAL; SIM_COUNTERS],
            issued: 0,
            committed: 0,
        }
    }

    /// Executes the next operation; returns its virtual latency in
    /// microseconds and whether it synchronized.
    fn step(&mut self) -> (u64, bool) {
        let (site, item, op) = self.stream.next_op();
        let value = &mut self.serial[item];
        *value = if *value > LOWER_BOUND {
            *value - 1
        } else {
            SIM_REFILL_TO
        };
        let before = self.cluster.clock();
        let outcome = self.cluster.execute(site, op);
        self.issued += 1;
        self.committed += u64::from(outcome.committed);
        (self.cluster.clock() - before, outcome.synchronized)
    }

    fn verify(&mut self, problems: &mut Vec<String>) {
        if self.committed != self.issued {
            problems.push(format!(
                "{} of {} operations did not commit",
                self.issued - self.committed,
                self.issued
            ));
        }
        for (item, expected) in self.serial.iter().enumerate() {
            let logical = self.cluster.logical_value(&counter_obj(item));
            if logical != *expected {
                problems.push(format!(
                    "counter {item} holds {logical}, a serial execution leaves {expected}"
                ));
            }
        }
        // After a full fold every replica holds the authoritative value.
        self.cluster.synchronize(0);
        for (item, expected) in self.serial.iter().enumerate() {
            let obj = counter_obj(item);
            if let Some(site) =
                (0..SIM_SITES).find(|s| self.cluster.value_at(*s, &obj) != *expected)
            {
                problems.push(format!(
                    "after the fold site {site} holds {} for counter {item}, not {expected}",
                    self.cluster.value_at(site, &obj)
                ));
            }
        }
    }
}

/// Runs the simulated WAN workload once: `opts.passes` passes, each a fresh
/// cluster executing the same fixed operations. Every operation's real time
/// is the least any pass measured for it — the work is identical, so what a
/// pass measured above that is the machine's interference, not the program.
pub fn run(opts: &RunOpts, tracer: &mut Tracer) -> io::Result<Outcome> {
    let passes = opts.passes;
    let ops_per_pass = ((OPS_PER_SECOND * opts.seconds / PASSES as f64).round() as usize).max(1);
    let mut outcome = Outcome::default();
    let mut setup_secs = Vec::with_capacity(passes);
    // Per operation of the stream: least real time over the passes, the
    // virtual time the simulator charged it, whether it synchronized.
    let mut wall_ns: Vec<u64> = Vec::with_capacity(ops_per_pass);
    let mut virtual_us: Vec<u64> = Vec::with_capacity(ops_per_pass);
    let mut synchronized: Vec<bool> = Vec::with_capacity(ops_per_pass);
    let mut pass_cpu_nanos: Vec<f64> = Vec::with_capacity(passes);
    let mut first_pass: Option<(SimMetrics, SimMetrics)> = None;
    let mut timed_ns = 0u64;
    let pid = std::process::id();
    let started = Instant::now();
    for pass in 0..passes {
        // Fixed work must not turn a stalled machine into a hung run.
        if pass > 0 && started.elapsed().as_secs_f64() > OVERRUN_FACTOR * opts.seconds {
            break;
        }
        let span = tracer.open("setup", NO_SPAN);
        let setup_started = Instant::now();
        let mut sim = Sim::setup(opts.seed, tracer, span);
        setup_secs.push(setup_started.elapsed().as_secs_f64());
        tracer.close(span);
        let registered = sim.cluster.metrics();

        let cpu_before = own_cpu_nanos(pid)?;
        for request in 0..ops_per_pass {
            let t0 = tracer.now();
            let op_started = Instant::now();
            let (op_virtual_us, op_synchronized) = sim.step();
            let op_wall_ns = op_started.elapsed().as_nanos() as u64;
            timed_ns += op_wall_ns;
            if tracer.enabled() {
                let name = if op_synchronized {
                    "request.synchronized"
                } else {
                    "request.local"
                };
                let end = tracer.now();
                tracer.record(name, NO_SPAN, request as u32 + 1, t0, end);
            }
            if request == wall_ns.len() {
                wall_ns.push(op_wall_ns);
                virtual_us.push(op_virtual_us);
                synchronized.push(op_synchronized);
            } else {
                wall_ns[request] = wall_ns[request].min(op_wall_ns);
                if (virtual_us[request], synchronized[request]) != (op_virtual_us, op_synchronized)
                {
                    outcome.problems.push(format!(
                        "operation {request} of pass {pass} diverged from the first pass"
                    ));
                }
            }
        }
        pass_cpu_nanos.push((own_cpu_nanos(pid)? - cpu_before) as f64);
        let finished = sim.cluster.metrics();
        sim.verify(&mut outcome.problems);
        outcome.attempted += sim.issued;
        outcome.failed += sim.issued - sim.committed;
        match &first_pass {
            // One seed, one run: a whole pass must repeat the first exactly.
            Some((_, first)) if *first != finished => {
                outcome
                    .problems
                    .push("two simulator passes of one seed diverged".to_string());
            }
            Some(_) => {}
            None => first_pass = Some((registered, finished)),
        }
    }
    let timed_secs = timed_ns as f64 / 1e9;
    let rss_bytes = procfs::peak_rss_bytes(pid)?;
    if !outcome.correct() {
        outcome.failed = outcome.attempted;
    }
    let (registered, timed) = first_pass.expect("at least one pass");

    let ops = wall_ns.len() as f64;
    let quiet_secs = wall_ns.iter().sum::<u64>() as f64 / 1e9;
    // What a client waits: the WAN time the simulator charges plus the
    // real time the call computed for (the solver runs under a zero
    // timer, so the simulator charges it nothing).
    let mut latencies_ns: Vec<u64> = wall_ns
        .iter()
        .zip(&virtual_us)
        .map(|(wall, virt)| virt * 1_000 + wall)
        .collect();
    latencies_ns.sort_unstable();
    let latency_ms = |q: f64| percentile_sorted(&latencies_ns, q) as f64 / 1e6;
    let e2e = &mut outcome.end_to_end;
    e2e.insert("setup_s", lower_quartile(&setup_secs));
    e2e.insert("ops_s", ratio(ops, quiet_secs));
    e2e.insert("p95_ms", latency_ms(0.95));
    e2e.insert(
        "cpu_us_per_op",
        ratio(
            pass_cpu_nanos.iter().copied().fold(f64::INFINITY, f64::min) / 1e3,
            ops_per_pass as f64,
        ),
    );
    e2e.insert("rss_mb", rss_bytes as f64 / (1024.0 * 1024.0));

    let synchronized_ops = synchronized.iter().filter(|s| **s).count() as f64;
    let synchronized_wall_ns: u64 = wall_ns
        .iter()
        .zip(&synchronized)
        .filter_map(|(wall, synchronized)| synchronized.then_some(*wall))
        .sum();
    virtual_us.sort_unstable();
    let negotiations = (timed.stats.negotiations - registered.stats.negotiations) as f64;
    let layer = &mut outcome.per_layer;
    layer.insert("client.sync_ratio", ratio(synchronized_ops, ops));
    layer.insert("client.latency_samples", ops);
    layer.insert("client.p50_ms", latency_ms(0.50));
    layer.insert("client.p90_ms", latency_ms(0.90));
    layer.insert("client.p99_ms", latency_ms(0.99));
    layer.insert("client.timed_s", timed_secs);
    layer.insert("client.timed_ops", ops);
    // Over all passes, the machine's interference included.
    layer.insert("client.slices", ops);
    layer.insert("client.passes", pass_cpu_nanos.len() as f64);
    layer.insert(
        "client.ops_s_mean",
        ratio(outcome.attempted as f64, timed_secs),
    );
    layer.insert(
        "client.cpu_us_per_op_mean",
        ratio(
            pass_cpu_nanos.iter().sum::<f64>() / 1e3,
            (pass_cpu_nanos.len() * ops_per_pass) as f64,
        ),
    );
    layer.insert("client.setup_samples", setup_secs.len() as f64);
    layer.insert(
        "cluster.sim.virt_op_ms",
        (timed.clock - registered.clock) as f64 / 1e3 / ops_per_pass as f64,
    );
    layer.insert(
        "cluster.sim.virt_p99_ms",
        percentile_sorted(&virtual_us, 0.99) as f64 / 1e3,
    );
    layer.insert(
        "cluster.sim.frames_per_op",
        (timed.frames_sent - registered.frames_sent) as f64 / ops_per_pass as f64,
    );
    layer.insert(
        "cluster.sim.retransmits_per_op",
        (timed.frames_retransmitted - registered.frames_retransmitted) as f64 / ops_per_pass as f64,
    );
    layer.insert("cluster.sim.negotiations", negotiations);
    // The simulator's solver runs under a zero timer and reports no time,
    // so its share is the real time the synchronized operations took.
    layer.insert(
        "attrib.solver_share_pct",
        100.0 * ratio(synchronized_wall_ns as f64, quiet_secs * 1e9),
    );
    layer.insert(
        "protocol.negotiations_per_sync",
        ratio(
            negotiations,
            (timed.stats.synchronizations - registered.stats.synchronizations) as f64,
        ),
    );
    Ok(outcome)
}

/// This process's CPU time in nanoseconds (the simulator runs in it).
fn own_cpu_nanos(pid: u32) -> io::Result<u64> {
    match procfs::cpu_nanos(pid) {
        Some(nanos) => Ok(nanos),
        None => Ok(procfs::cpu_micros(pid)? * 1_000),
    }
}
