//! The TCP workloads: a closed loop over real `homeostasisd` processes.
//!
//! The paper's clients each wait for their reply, so the loop is closed: one
//! generator thread keeps a fixed window of `Submit`+`PollRequest` pairs in
//! flight on one connection per site and issues a new frame only when a
//! reply arrives. The system is driven through its public surface only —
//! the daemon binary with its config file, and [`TcpClient`].
//!
//! A run's work is fixed: [`PASSES`](crate::gen::PASSES) passes, each a fresh
//! cluster executing the same number of frames of the seed's streams, cut
//! into slices of a fixed number of frames. Slice `k` of every pass is the
//! same work, so it is charged the least time, CPU and latency any pass
//! measured for it — what a pass measured above that is the shared host's
//! interference, not the program.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use homeo_cluster::{CounterMeta, ProgramBundle, TcpClient};
use homeo_lang::{programs, Database};
use homeo_protocol::{
    negotiate_allowances_cached, Loc, NegotiationCache, ReplicatedStats, WorkloadHints,
};
use homeo_runtime::SiteOp;
use homeo_sim::Timer;

use crate::fleet::Fleet;
use crate::gen::{
    counter_obj, general_obj, TcpShape, TcpStream, Traffic, Workload, GENERAL_INITIAL,
    GENERAL_PROGRAMS, HOMEOSTASIS_OPTIMIZER, OVERRUN_FACTOR, TCP_SITES,
};
use crate::report::Outcome;
use crate::stats::{lower_quartile, median, percentile_sorted, ratio};
use crate::trace::{SpanId, Tracer, NO_SPAN};

/// Lower bound of every counter's global treaty.
const LOWER_BOUND: i64 = 1;
/// Share of a pass's frames that runs before the timed ones: executed and
/// verified, not timed.
const WARMUP_SHARE: f64 = 0.05;
/// The daemons' liveness and memory limit are checked every this many
/// slices.
const HEALTH_CHECK_SLICES: usize = 16;
/// How long a client waits for a freshly spawned daemon to listen.
const CONNECT_WITHIN: Duration = Duration::from_secs(10);
const CONNECT_POLL: Duration = Duration::from_micros(200);

/// What one run needs besides the workload.
pub struct RunOpts<'a> {
    pub seed: u64,
    /// What the run's fixed work is sized for: about this long at the
    /// seed commit.
    pub seconds: f64,
    /// The `homeostasisd` executable.
    pub daemon: &'a Path,
    /// Where config files, daemon logs and traces go.
    pub out_dir: &'a Path,
    /// Passes over the run's fixed work: [`PASSES`](crate::gen::PASSES),
    /// fewer in a traced run.
    pub passes: usize,
    /// Set-ups of a TCP cluster to time, those of the passes included.
    pub setups: usize,
}

/// Connects as soon as the freshly spawned daemon listens. Polls every
/// [`CONNECT_POLL`] rather than backing off exponentially as
/// `TcpClient::connect_retry` does, so `setup_s` measures when the daemon
/// was ready and not which 5 ms back-off step found it so.
fn connect_when_listening(addr: SocketAddr) -> io::Result<TcpClient> {
    let deadline = Instant::now() + CONNECT_WITHIN;
    loop {
        match TcpClient::connect(addr) {
            Ok(client) => return Ok(client),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(CONNECT_POLL),
        }
    }
}

/// The `tcp-general` registration: one order program per object, objects
/// round-robin over the sites, ample headroom, negotiated by the optimizer.
pub fn general_bundle() -> ProgramBundle {
    let objects: Vec<_> = (0..GENERAL_PROGRAMS).map(general_obj).collect();
    let txns: Vec<_> = objects
        .iter()
        .map(|obj| programs::order_for_object(obj.clone(), GENERAL_INITIAL))
        .collect();
    let loc = Loc::from_pairs(
        objects
            .iter()
            .enumerate()
            .map(|(i, obj)| (obj.clone(), i % TCP_SITES)),
    );
    let initial = Database::from_pairs(objects.iter().map(|obj| (obj.clone(), GENERAL_INITIAL)));
    ProgramBundle::from_transactions(&txns, &loc, &initial, Some(HOMEOSTASIS_OPTIMIZER))
}

/// A frame in flight.
struct Pending {
    /// When its `Submit` was written (the latency reference).
    sent: Instant,
    /// Bit `i` set = operation `i` of the frame is an `Increment`.
    increments: u64,
    ops: u32,
    /// Tracer clock at build start, write start and write end.
    traced: [u64; 3],
}

struct Conn {
    client: TcpClient,
    stream: TcpStream,
    inflight: VecDeque<Pending>,
}

/// What the replies said, over the whole life of a cluster.
#[derive(Default)]
struct Tally {
    issued: u64,
    committed: u64,
    synchronized: u64,
    refilled: u64,
    /// Committed operations that were not increments (orders, programs).
    committed_orders: u64,
    committed_increments: u64,
    frames: u32,
}

/// A set-up cluster: daemons running, one client per site connected,
/// counters seeded or programs registered — the first operation can go.
struct Cluster {
    fleet: Fleet,
    conns: Vec<Conn>,
    shape: TcpShape,
    tally: Tally,
    ops: Vec<SiteOp>,
}

impl Cluster {
    fn setup(
        shape: TcpShape,
        opts: &RunOpts,
        tag: &str,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> io::Result<Cluster> {
        let span = tracer.open("setup.spawn", parent);
        let fleet = Fleet::spawn(opts.daemon, opts.out_dir, tag, TCP_SITES, shape.homeostasis)?;
        tracer.close(span);

        let span = tracer.open("setup.connect", parent);
        let mut clients: Vec<TcpClient> = fleet
            .spec()
            .addrs
            .iter()
            .map(|addr| connect_when_listening(*addr))
            .collect::<io::Result<_>>()?;
        tracer.close(span);

        match shape.traffic {
            Traffic::Counters { .. } => {
                let span = tracer.open("setup.seed", parent);
                let hints = WorkloadHints::uniform(TCP_SITES);
                let mut cache = NegotiationCache::new();
                for item in 0..shape.counters {
                    let (allowances, _) = negotiate_allowances_cached(
                        fleet.spec().mode,
                        &hints,
                        TCP_SITES,
                        shape.initial,
                        LOWER_BOUND,
                        Timer::Wall,
                        &mut cache,
                        None,
                    );
                    let meta = CounterMeta {
                        obj: counter_obj(item),
                        base: shape.initial,
                        lower_bound: LOWER_BOUND,
                        members: (0..TCP_SITES).collect(),
                        allowances,
                    };
                    // Every site acks every seed before any operation goes.
                    for client in &mut clients {
                        client.seed(meta.clone())?;
                    }
                }
                tracer.close(span);
            }
            Traffic::Programs => {
                let span = tracer.open("setup.register_program", parent);
                let bundle = general_bundle();
                for client in &mut clients {
                    let accepted = client.register_program(&bundle)?;
                    if accepted != GENERAL_PROGRAMS as u64 {
                        return Err(io::Error::other(format!(
                            "a site accepted {accepted} of {GENERAL_PROGRAMS} programs"
                        )));
                    }
                }
                tracer.close(span);
            }
        }
        let conns = clients
            .into_iter()
            .enumerate()
            .map(|(site, client)| Conn {
                client,
                stream: TcpStream::new(shape, opts.seed, site),
                inflight: VecDeque::with_capacity(shape.window),
            })
            .collect();
        Ok(Cluster {
            fleet,
            conns,
            shape,
            tally: Tally::default(),
            ops: Vec::with_capacity(shape.batch),
        })
    }

    /// Builds and writes one frame on connection `c`.
    fn send_frame(&mut self, c: usize, tracer: &mut Tracer) -> io::Result<()> {
        let conn = &mut self.conns[c];
        let t_build = tracer.now();
        conn.stream.next_frame(&mut self.ops);
        let mut increments = 0u64;
        for (i, op) in self.ops.iter().enumerate() {
            if matches!(op, SiteOp::Increment { .. }) {
                increments |= 1 << i;
            }
        }
        let t_write = tracer.now();
        let sent = Instant::now();
        conn.client.submit_batch(&self.ops)?;
        conn.client.send_poll()?;
        conn.inflight.push_back(Pending {
            sent,
            increments,
            ops: self.ops.len() as u32,
            traced: [t_build, t_write, tracer.now()],
        });
        self.tally.issued += self.ops.len() as u64;
        Ok(())
    }

    /// Reads the oldest outstanding reply of connection `c`; returns the
    /// frame's latency in nanoseconds.
    fn recv_reply(&mut self, c: usize, tracer: &mut Tracer) -> io::Result<u64> {
        let conn = &mut self.conns[c];
        let outcomes = conn.client.recv_poll_reply()?;
        let pending = conn.inflight.pop_front().expect("a reply has a request");
        let latency = pending.sent.elapsed().as_nanos() as u64;
        if outcomes.len() != pending.ops as usize {
            return Err(io::Error::other(format!(
                "a {}-operation frame was answered with {} outcomes",
                pending.ops,
                outcomes.len()
            )));
        }
        let tally = &mut self.tally;
        tally.frames += 1;
        for (i, outcome) in outcomes.iter().enumerate() {
            if !outcome.committed {
                continue;
            }
            tally.committed += 1;
            tally.synchronized += u64::from(outcome.synchronized);
            tally.refilled += u64::from(outcome.refilled);
            if pending.increments >> i & 1 == 1 {
                tally.committed_increments += 1;
            } else {
                tally.committed_orders += 1;
            }
        }
        if tracer.enabled() {
            let [t_build, t_write, t_sent] = pending.traced;
            let request = tally.frames;
            let end = tracer.now();
            let root = tracer.record("request", NO_SPAN, request, t_build, end);
            tracer.record("request.build", root, request, t_build, t_write);
            tracer.record("request.write", root, request, t_write, t_sent);
            tracer.record("request.wait", root, request, t_sent, end);
        }
        Ok(latency)
    }

    /// Issues `frames` frames, every connection's window kept full, and
    /// reads their replies. With `timed` set, frame latencies are recorded
    /// and a mark is set after every `shape.slice_frames` replies.
    fn pump(
        &mut self,
        frames: usize,
        mut timed: Option<&mut Timed>,
        tracer: &mut Tracer,
    ) -> io::Result<()> {
        let mut to_issue = frames;
        loop {
            let mut outstanding = false;
            for c in 0..self.conns.len() {
                while to_issue > 0 && self.conns[c].inflight.len() < self.shape.window {
                    self.send_frame(c, tracer)?;
                    to_issue -= 1;
                }
                if self.conns[c].inflight.is_empty() {
                    continue;
                }
                outstanding = true;
                let latency = self.recv_reply(c, tracer)?;
                let Some(timed) = timed.as_deref_mut() else {
                    continue;
                };
                timed.latencies_ns.push(latency);
                if timed.latencies_ns.len() % self.shape.slice_frames == 0 {
                    timed.marks.push(self.mark(timed.latencies_ns.len())?);
                    if timed.marks.len() % HEALTH_CHECK_SLICES == 0 {
                        self.fleet.check_alive()?;
                        self.fleet.peak_rss_bytes()?; // enforces the memory limit
                    }
                }
            }
            if !outstanding {
                return Ok(());
            }
        }
    }

    /// A slice boundary now, `samples` timed replies into the pass.
    fn mark(&self, samples: usize) -> io::Result<Mark> {
        Ok(Mark {
            at: Instant::now(),
            committed: self.tally.committed,
            cpu_nanos: self.fleet.cpu_nanos()?,
            samples,
        })
    }

    /// Folds every counter, then checks the replicas agree and the folded
    /// state is what the committed operations must have left.
    fn verify(&mut self, workload: Workload, problems: &mut Vec<String>) -> io::Result<()> {
        let tally = &self.tally;
        if tally.committed != tally.issued {
            problems.push(format!(
                "{} of {} operations did not commit",
                tally.issued - tally.committed,
                tally.issued
            ));
        }
        self.conns[0].client.synchronize_all()?;
        let reference = self.conns[0].client.state()?;
        for conn in self.conns.iter_mut().skip(1) {
            let state = conn.client.state()?;
            let agree = state.len() == reference.len()
                && state
                    .iter()
                    .zip(&reference)
                    .all(|(a, b)| a.obj == b.obj && a.base == b.base);
            if !agree {
                problems.push("the sites disagree on the folded counter state".to_string());
            }
        }
        if reference.len() != self.shape.counters {
            problems.push(format!(
                "{} counters seeded, {} reported",
                self.shape.counters,
                reference.len()
            ));
        }
        let folded: i64 = reference.iter().map(|meta| meta.base).sum();
        let seeded = self.shape.counters as i64 * self.shape.initial;
        match workload {
            Workload::TcpSingles | Workload::TcpBatched => {
                // No treaty can break, so nothing synchronizes or refills
                // and the folded total is conserved exactly.
                let expected =
                    seeded - tally.committed_orders as i64 + tally.committed_increments as i64;
                if folded != expected {
                    problems.push(format!(
                        "folded total {folded}, conservation needs {expected}"
                    ));
                }
                if tally.synchronized != 0 || tally.refilled != 0 {
                    problems.push(format!(
                        "{} operations synchronized and {} refilled where no treaty can break",
                        tally.synchronized, tally.refilled
                    ));
                }
            }
            Workload::TcpContended => {
                let range = LOWER_BOUND..=self.shape.initial;
                if let Some(meta) = reference.iter().find(|meta| !range.contains(&meta.base)) {
                    problems.push(format!(
                        "{} folded to {} outside {range:?}",
                        meta.obj, meta.base
                    ));
                }
            }
            Workload::TcpGeneral => {
                // Program objects are not readable over the wire, so the
                // check is on what is: every site's commit counters must
                // account for exactly the operations the replies committed.
                let stats = site_stats(&mut self.conns)?;
                let local: u64 = stats.iter().map(|s| s.local_commits).sum();
                if local + tally.synchronized != tally.committed {
                    problems.push(format!(
                        "sites report {local} local commits, replies {} commits of which {} synchronized",
                        tally.committed, tally.synchronized
                    ));
                }
            }
            Workload::SimWan4 => unreachable!("not a TCP workload"),
        }
        Ok(())
    }

    /// Every site's telemetry dump, parsed into `name -> value` maps.
    fn scrape(&mut self) -> io::Result<Vec<BTreeMap<String, f64>>> {
        self.conns
            .iter_mut()
            .map(|conn| Ok(parse_metrics_text(&conn.client.metrics()?)))
            .collect()
    }
}

/// Every site's aggregate protocol statistics.
fn site_stats(conns: &mut [Conn]) -> io::Result<Vec<ReplicatedStats>> {
    conns.iter_mut().map(|conn| conn.client.stats()).collect()
}

/// A slice boundary of the timed phase.
struct Mark {
    at: Instant,
    /// Operations committed so far.
    committed: u64,
    /// The daemons' CPU time so far.
    cpu_nanos: u64,
    /// Frame latencies recorded so far.
    samples: usize,
}

/// The recording of a pass's timed frames.
struct Timed {
    latencies_ns: Vec<u64>,
    marks: Vec<Mark>,
}

/// Parses the daemons' Prometheus-style text: `name value` lines.
pub fn parse_metrics_text(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Sum of a counter over the sites.
fn scraped_sum(sites: &[BTreeMap<String, f64>], name: &str) -> f64 {
    sites.iter().filter_map(|site| site.get(name)).sum()
}

/// Largest value of a gauge over the sites.
fn scraped_max(sites: &[BTreeMap<String, f64>], name: &str) -> f64 {
    sites
        .iter()
        .filter_map(|site| site.get(name).copied())
        .fold(0.0, f64::max)
}

/// A histogram's median over the sites: each site's `_p50`, weighted by
/// how many samples the site recorded (a site that coordinated no round
/// has none to report).
fn scraped_p50(sites: &[BTreeMap<String, f64>], hist: &str) -> f64 {
    let mut weighted = 0.0;
    let mut count = 0.0;
    for site in sites {
        let n = site.get(&format!("{hist}_count")).copied().unwrap_or(0.0);
        weighted += n * site.get(&format!("{hist}_p50")).copied().unwrap_or(0.0);
        count += n;
    }
    if count > 0.0 {
        weighted / count
    } else {
        0.0
    }
}

/// What one slice of a pass measured.
#[derive(Clone, Copy)]
struct Slice {
    secs: f64,
    cpu_micros: f64,
    /// p50, p90, p95 and p99 of the frame latencies in nanoseconds.
    latency_ns: [f64; 4],
}

const SLICE_QUANTILES: [f64; 4] = [0.50, 0.90, 0.95, 0.99];

impl Slice {
    /// The least of every measurement of the two.
    fn least(self, other: Slice) -> Slice {
        let mut latency_ns = self.latency_ns;
        for (mine, theirs) in latency_ns.iter_mut().zip(other.latency_ns) {
            *mine = mine.min(theirs);
        }
        Slice {
            secs: self.secs.min(other.secs),
            cpu_micros: self.cpu_micros.min(other.cpu_micros),
            latency_ns,
        }
    }
}

/// Cuts a pass's recording at its marks into [`Slice`]s.
fn slices_of(timed: &mut Timed) -> Vec<Slice> {
    let mut slices = Vec::with_capacity(timed.marks.len());
    for pair in timed.marks.windows(2) {
        let part = &mut timed.latencies_ns[pair[0].samples..pair[1].samples];
        part.sort_unstable();
        slices.push(Slice {
            secs: (pair[1].at - pair[0].at).as_secs_f64(),
            cpu_micros: (pair[1].cpu_nanos - pair[0].cpu_nanos) as f64 / 1e3,
            latency_ns: SLICE_QUANTILES.map(|q| percentile_sorted(part, q) as f64),
        });
    }
    slices
}

/// What a run's passes add up to.
#[derive(Default)]
struct Measured {
    passes: usize,
    timed_secs: f64,
    cpu_nanos: u64,
    committed: u64,
    synchronized: u64,
    /// Operations issued and committed over the clusters' whole lives,
    /// warm-up included.
    lifetime_issued: u64,
    lifetime_committed: u64,
    latency_samples: usize,
    /// Per slice of a pass, the least any pass measured.
    quiet: Vec<Slice>,
    /// The daemons' peak memory at the end of each pass.
    rss_bytes: Vec<f64>,
}

/// Runs one TCP workload once: `opts.passes` passes, each on a fresh cluster
/// that is set up, warmed up, measured over the pass's fixed frames and
/// verified; then further set-ups until `opts.setups` are timed.
pub fn run(workload: Workload, opts: &RunOpts, tracer: &mut Tracer) -> io::Result<Outcome> {
    let shape = workload.tcp_shape().expect("a TCP workload");
    let pass_frames = shape.pass_slices(opts.seconds) * shape.slice_frames;
    let warmup_frames = ((pass_frames as f64 * WARMUP_SHARE) as usize).max(1);
    let mut outcome = Outcome::default();
    let mut measured = Measured::default();
    let mut setup_secs = Vec::with_capacity(opts.setups.max(opts.passes));
    let mut rep = 0;
    let mut setup = |tracer: &mut Tracer| -> io::Result<Cluster> {
        let tag = format!("{}-{}-{rep}", workload.name(), opts.seed);
        rep += 1;
        let span = tracer.open("setup", NO_SPAN);
        let started = Instant::now();
        let cluster = Cluster::setup(shape, opts, &tag, tracer, span)?;
        setup_secs.push(started.elapsed().as_secs_f64());
        tracer.close(span);
        Ok(cluster)
    };

    let run_started = Instant::now();
    let mut last_pass = None;
    for _ in 0..opts.passes {
        // Fixed work must not turn a stalled machine into a hung run.
        if last_pass.is_some()
            && run_started.elapsed().as_secs_f64() > OVERRUN_FACTOR * opts.seconds
        {
            break;
        }
        let mut cluster = setup(tracer)?;
        cluster.pump(warmup_frames, None, tracer)?;

        let synchronized_before = cluster.tally.synchronized;
        let mut timed = Timed {
            latencies_ns: Vec::with_capacity(pass_frames),
            marks: vec![cluster.mark(0)?],
        };
        cluster.pump(pass_frames, Some(&mut timed), tracer)?;
        cluster.fleet.check_alive()?;
        measured
            .rss_bytes
            .push(cluster.fleet.peak_rss_bytes()? as f64);
        let (first, end) = (&timed.marks[0], &timed.marks[timed.marks.len() - 1]);
        measured.passes += 1;
        measured.timed_secs += (end.at - first.at).as_secs_f64();
        measured.cpu_nanos += end.cpu_nanos - first.cpu_nanos;
        measured.committed += end.committed - first.committed;
        measured.synchronized += cluster.tally.synchronized - synchronized_before;
        measured.latency_samples += timed.latencies_ns.len();
        let slices = slices_of(&mut timed);
        if measured.quiet.is_empty() {
            measured.quiet = slices;
        } else {
            for (quiet, slice) in measured.quiet.iter_mut().zip(slices) {
                *quiet = quiet.least(slice);
            }
        }

        // Scraped before the verification's fold adds its rounds.
        let scraped = cluster.scrape()?;
        let stats = site_stats(&mut cluster.conns)?;
        let daemon_cpu_micros = cluster.fleet.cpu_micros()?;
        cluster.verify(workload, &mut outcome.problems)?;
        measured.lifetime_issued += cluster.tally.issued;
        measured.lifetime_committed += cluster.tally.committed;
        last_pass = Some((
            scraped,
            stats,
            daemon_cpu_micros,
            cluster.tally.issued as f64,
        ));
    }
    // The daemon-side counters reported are the last pass's.
    let (scraped, stats, daemon_cpu_micros, total_ops) = last_pass.expect("at least one pass");
    // The remaining set-ups only time the set-up; each is torn down
    // (outside the timing) before the next starts.
    for _ in measured.passes..opts.setups {
        drop(setup(tracer)?);
    }

    outcome.attempted = measured.lifetime_issued;
    outcome.failed = if outcome.correct() {
        measured.lifetime_issued - measured.lifetime_committed
    } else {
        measured.lifetime_issued
    };
    let committed = measured.committed as f64;
    // What one pass costs when every slice of it runs undisturbed.
    let pass_ops = (pass_frames * shape.batch) as f64;
    let quiet_secs: f64 = measured.quiet.iter().map(|slice| slice.secs).sum();
    let quiet_cpu_micros: f64 = measured.quiet.iter().map(|slice| slice.cpu_micros).sum();
    // A slice's latency percentiles are the quietest pass's; the run's are
    // the median slice's.
    let latency_ms = |i: usize| {
        median(
            &measured
                .quiet
                .iter()
                .map(|slice| slice.latency_ns[i])
                .collect::<Vec<_>>(),
        ) / 1e6
    };

    let e2e = &mut outcome.end_to_end;
    e2e.insert("setup_s", lower_quartile(&setup_secs));
    e2e.insert("ops_s", ratio(pass_ops, quiet_secs));
    e2e.insert("p95_ms", latency_ms(2));
    e2e.insert("cpu_us_per_op", ratio(quiet_cpu_micros, pass_ops));
    e2e.insert("rss_mb", median(&measured.rss_bytes) / (1024.0 * 1024.0));

    let negotiations: u64 = stats.iter().map(|s| s.negotiations).sum();
    let synchronizations: u64 = stats.iter().map(|s| s.synchronizations).sum();
    let solver_micros: u64 = stats.iter().map(|s| s.solver_micros_total).sum();
    let layer = &mut outcome.per_layer;
    layer.insert(
        "client.sync_ratio",
        ratio(measured.synchronized as f64, committed),
    );
    layer.insert("client.latency_samples", measured.latency_samples as f64);
    layer.insert("client.p50_ms", latency_ms(0));
    layer.insert("client.p90_ms", latency_ms(1));
    layer.insert("client.p99_ms", latency_ms(3));
    layer.insert("client.timed_s", measured.timed_secs);
    layer.insert("client.timed_ops", committed);
    layer.insert("client.slices", measured.quiet.len() as f64);
    layer.insert("client.passes", measured.passes as f64);
    // Over all passes, the machine's interference included.
    layer.insert("client.ops_s_mean", ratio(committed, measured.timed_secs));
    layer.insert(
        "client.cpu_us_per_op_mean",
        ratio(measured.cpu_nanos as f64 / 1e3, committed),
    );
    layer.insert("client.setup_samples", setup_secs.len() as f64);
    // The daemon-side counters are the last cluster's, over all it executed.
    for (metric, counter) in [
        (
            "cluster.reactor.frames_in_per_op",
            "homeo_reactor_frames_in_total",
        ),
        (
            "cluster.reactor.bytes_in_per_op",
            "homeo_reactor_bytes_in_total",
        ),
        (
            "cluster.reactor.bytes_out_per_op",
            "homeo_reactor_bytes_out_total",
        ),
    ] {
        layer.insert(metric, ratio(scraped_sum(&scraped, counter), total_ops));
    }
    layer.insert(
        "cluster.reactor.write_queue_max_bytes",
        scraped_max(&scraped, "homeo_reactor_write_queue_bytes"),
    );
    for (metric, hist) in [
        (
            "cluster.reactor.writev_frames_p50",
            "homeo_reactor_writev_flush_frames",
        ),
        ("cluster.worker.batch_ops_p50", "homeo_submit_batch_ops"),
        (
            "cluster.worker.sync_round_us_p50",
            "homeo_sync_violation_round_micros",
        ),
        (
            "cluster.worker.sync_collect_us_p50",
            "homeo_sync_violation_collect_micros",
        ),
        (
            "cluster.worker.sync_solve_us_p50",
            "homeo_sync_violation_solve_micros",
        ),
        (
            "cluster.worker.sync_install_us_p50",
            "homeo_sync_violation_install_micros",
        ),
        (
            "cluster.worker.sync_freeze_us_p50",
            "homeo_sync_freeze_micros",
        ),
    ] {
        layer.insert(metric, scraped_p50(&scraped, hist));
    }
    layer.insert(
        "protocol.solver_us_per_negotiation",
        ratio(solver_micros as f64, negotiations as f64),
    );
    layer.insert(
        "protocol.negotiations_per_sync",
        ratio(negotiations as f64, synchronizations as f64),
    );
    // Share of the daemons' CPU time the treaty solver accounts for.
    layer.insert(
        "attrib.solver_share_pct",
        100.0 * ratio(solver_micros as f64, daemon_cpu_micros as f64),
    );
    if tracer.enabled() {
        layer.insert(
            "client.gen_ns_per_op",
            ratio(
                tracer.total_ns("request.build") as f64,
                measured.lifetime_issued as f64,
            ),
        );
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_text_parses_into_names_and_values() {
        let text = "# TYPE homeo_reactor_frames_in_total counter\n\
                    homeo_reactor_frames_in_total 42\n\
                    # TYPE homeo_submit_batch_ops summary\n\
                    homeo_submit_batch_ops_count 10\n\
                    homeo_submit_batch_ops_p50 64\n";
        let a = parse_metrics_text(text);
        assert_eq!(a["homeo_reactor_frames_in_total"], 42.0);
        let mut b = a.clone();
        b.insert("homeo_submit_batch_ops_count".into(), 30.0);
        b.insert("homeo_submit_batch_ops_p50".into(), 32.0);
        let sites = [a, b];
        assert_eq!(scraped_sum(&sites, "homeo_reactor_frames_in_total"), 84.0);
        assert_eq!(scraped_p50(&sites, "homeo_submit_batch_ops"), 40.0);
        assert_eq!(scraped_p50(&sites, "homeo_absent"), 0.0);
    }

    #[test]
    fn the_general_bundle_registers_every_program() {
        let bundle = general_bundle();
        assert_eq!(bundle.sources.len(), GENERAL_PROGRAMS);
        let set = homeo_protocol::ProgramSet::from_bundle(&bundle, TCP_SITES).expect("valid");
        for index in 0..GENERAL_PROGRAMS {
            assert_eq!(set.home_site(index), Some(index % TCP_SITES));
        }
    }
}
