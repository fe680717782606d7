//! The deterministic backend: the same [`SiteWorker`]s as the TCP cluster,
//! pumped by a virtual-clock scheduler whose network is a seeded fault
//! injector.
//!
//! [`SimTransport`] models a reliable transport (TCP-like) over a lossy
//! network parameterised by an [`RttMatrix`]:
//!
//! * **delay** — every site-to-site frame takes `one_way(from, to)` plus
//!   seeded jitter;
//! * **reordering** — jitter plus an explicit reorder chance lets later
//!   frames overtake earlier ones across pairs (the protocol's per-round
//!   ack barrier keeps this safe);
//! * **drops** — a dropped frame is retransmitted by the transport: it
//!   surfaces as one extra RTT of delay per lost attempt, never as loss;
//! * **partitions** — frames between partitioned sites are held in arrival
//!   order and released when the pair heals (local execution continues
//!   meanwhile — the homeostasis selling point: sites keep committing
//!   within their treaties while the network is down);
//! * **kill / restart** — a killed site loses all volatile state; frames
//!   addressed to it are held. [`SimCluster::restart`] reopens the engine
//!   from the WAL frame captured at the kill
//!   ([`homeo_store::Engine::reopen_from_frame`]), refetches treaty
//!   metadata from a live peer, and then replays the held frames.
//!
//! Every choice flows through one seeded [`DetRng`] and one event heap
//! ordered by `(virtual time, sequence number)`, so a run is byte-for-byte
//! reproducible from its configuration.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

use homeo_lang::ids::ObjId;
use homeo_protocol::{
    negotiate_allowances_cached, NegotiationCache, ProgramBundle, ProgramSet, ReplicatedStats,
};
use homeo_runtime::{OpOutcome, SiteOp, SiteRuntime};
use homeo_sim::clock::SimTime;
use homeo_sim::{DetRng, RttMatrix};
use homeo_store::Engine;

use crate::msg::{CounterMeta, Message, CLIENT};
use crate::worker::SiteWorker;
use crate::ClusterConfig;

/// Retransmission attempts the reliable transport models before it delivers
/// a frame regardless (bounds the delay a drop chain can add).
const MAX_RETRANSMITS: u32 = 8;

/// The network fault model of a [`SimCluster`].
#[derive(Debug, Clone)]
pub struct SimNetConfig {
    /// Per-pair round-trip times (frames take `one_way` each hop).
    pub rtt: RttMatrix,
    /// Uniform extra delay in `[0, jitter_us]` microseconds per frame.
    pub jitter_us: u64,
    /// Chance that a frame is dropped and retransmitted (each lost attempt
    /// adds one RTT of delay; capped at 8 attempts).
    pub drop_chance: f64,
    /// Chance that a frame is held back one extra one-way delay, letting
    /// later frames overtake it.
    pub reorder_chance: f64,
    /// Seed for every network decision.
    pub seed: u64,
}

impl SimNetConfig {
    /// A fault-free network with uniform `rtt_ms` between distinct sites.
    pub fn reliable(sites: usize, rtt_ms: u64) -> Self {
        SimNetConfig {
            rtt: RttMatrix::uniform(sites, rtt_ms),
            jitter_us: 0,
            drop_chance: 0.0,
            reorder_chance: 0.0,
            seed: 0,
        }
    }

    /// A lossy, jittery, reordering network over `rtt` (the standard
    /// stress-test setting).
    pub fn faulty(rtt: RttMatrix, seed: u64) -> Self {
        SimNetConfig {
            rtt,
            jitter_us: 20_000,
            drop_chance: 0.05,
            reorder_chance: 0.10,
            seed,
        }
    }
}

/// One scheduled frame delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    time: SimTime,
    seq: u64,
    from: usize,
    to: usize,
    frame: Vec<u8>,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The deterministic fault-injecting transport: owns the virtual clock, the
/// event heap, the seeded RNG and the fault state (partitions, down sites).
pub struct SimTransport {
    config: SimNetConfig,
    rng: DetRng,
    clock: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<Event>>,
    /// Normalized `(min, max)` pairs that cannot currently exchange frames.
    partitioned: BTreeSet<(usize, usize)>,
    /// Frames caught by a partition, in arrival order.
    partition_held: VecDeque<(usize, usize, Vec<u8>)>,
    /// Per-site down flag; frames to a down site are held.
    down: Vec<bool>,
    /// Frames addressed to a down site, in arrival order.
    down_held: Vec<VecDeque<(usize, Vec<u8>)>>,
    /// Metrics.
    frames_sent: u64,
    frames_delivered: u64,
    frames_retransmitted: u64,
}

impl SimTransport {
    fn new(sites: usize, config: SimNetConfig) -> Self {
        // `>=`, not `==`: an elastic run builds the matrix over the maximum
        // site count it will ever grow to and starts with fewer workers.
        assert!(
            config.rtt.sites() >= sites,
            "RTT matrix must cover all sites"
        );
        let rng = DetRng::seed_from(config.seed);
        SimTransport {
            config,
            rng,
            clock: 0,
            seq: 0,
            events: BinaryHeap::new(),
            partitioned: BTreeSet::new(),
            partition_held: VecDeque::new(),
            down: vec![false; sites],
            down_held: (0..sites).map(|_| VecDeque::new()).collect(),
            frames_sent: 0,
            frames_delivered: 0,
            frames_retransmitted: 0,
        }
    }

    fn push(&mut self, time: SimTime, from: usize, to: usize, frame: Vec<u8>) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Event {
            time,
            seq,
            from,
            to,
            frame,
        }));
    }

    /// The next deliverable frame, advancing the clock. Frames whose
    /// destination is down or whose pair is partitioned are parked at
    /// delivery time (they were "on the wire" when the fault hit).
    fn next_delivery(&mut self) -> Option<(usize, usize, Vec<u8>)> {
        while let Some(Reverse(event)) = self.events.pop() {
            self.clock = self.clock.max(event.time);
            if self.down[event.to] {
                self.down_held[event.to].push_back((event.from, event.frame));
                continue;
            }
            if event.from != CLIENT && event.from != event.to {
                let pair = normalize(event.from, event.to);
                if self.partitioned.contains(&pair) {
                    self.partition_held
                        .push_back((event.from, event.to, event.frame));
                    continue;
                }
            }
            self.frames_delivered += 1;
            return Some((event.from, event.to, event.frame));
        }
        None
    }

    fn delay(&mut self, from: usize, to: usize) -> SimTime {
        if from == CLIENT || from == to {
            return 0; // the client attachment and self-sends are local
        }
        let mut delay = self.config.rtt.one_way(from, to);
        if self.config.jitter_us > 0 {
            delay += self.rng.int_inclusive(0, self.config.jitter_us as i64) as u64;
        }
        if self.config.reorder_chance > 0.0 && self.rng.chance(self.config.reorder_chance) {
            delay += self.config.rtt.one_way(from, to);
        }
        if self.config.drop_chance > 0.0 {
            let mut attempts = 0;
            while attempts < MAX_RETRANSMITS && self.rng.chance(self.config.drop_chance) {
                delay += self.config.rtt.rtt(from, to).max(1);
                self.frames_retransmitted += 1;
                attempts += 1;
            }
        }
        delay
    }

    /// Ships `frame` from site `from` (or [`CLIENT`]) to site `to`, due
    /// after the fault model's delay; [`SimTransport::next_delivery`] holds
    /// it if the pair is partitioned or the destination is down by then.
    fn send(&mut self, from: usize, to: usize, frame: Vec<u8>) {
        if to >= self.down.len() {
            // Client-addressed acks (e.g. `ProgramAck`): the sim's client
            // attachment reads worker state directly, so these have no
            // receiver and are dropped.
            return;
        }
        self.frames_sent += 1;
        let delay = self.delay(from, to);
        self.push(self.clock + delay, from, to, frame);
    }
}

fn normalize(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

/// Deterministic end-of-run metrics (the "same seed ⇒ identical run"
/// witness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimMetrics {
    /// Final virtual time, in microseconds.
    pub clock: SimTime,
    /// Frames handed to the transport.
    pub frames_sent: u64,
    /// Frames delivered to a worker.
    pub frames_delivered: u64,
    /// Retransmission events the drop model charged.
    pub frames_retransmitted: u64,
    /// Aggregate protocol statistics across all sites.
    pub stats: ReplicatedStats,
}

/// A cluster of [`SiteWorker`]s scheduled deterministically over a
/// [`SimTransport`]. Implements [`SiteRuntime`]; the fault surface
/// ([`SimCluster::partition`], [`SimCluster::kill`], …) sits alongside it.
pub struct SimCluster {
    workers: Vec<SiteWorker>,
    transport: SimTransport,
    config: ClusterConfig,
    registered: BTreeSet<ObjId>,
    registration_negotiations: u64,
    /// Solver time spent by the registration path, in microseconds.
    registration_solver_micros: u64,
    /// Memoized treaty templates + solver scratch for the registration
    /// path's negotiations.
    registration_cache: NegotiationCache,
    /// WAL frames captured at kill time, consumed by restart.
    wal_frames: Vec<Option<Vec<u8>>>,
    /// Per-cluster frame-encode scratch ([`Message::encode_into`]): reused
    /// across every frame the scheduler ships.
    scratch: Vec<u8>,
}

impl SimCluster {
    /// Builds the cluster over fresh engines.
    pub fn new(sites: usize, config: ClusterConfig, net: SimNetConfig) -> Self {
        assert!(sites > 0);
        Self::from_engines((0..sites).map(|_| Engine::new()).collect(), config, net)
    }

    /// Builds the cluster over pre-populated engines.
    pub fn from_engines(engines: Vec<Engine>, config: ClusterConfig, net: SimNetConfig) -> Self {
        assert!(!engines.is_empty());
        let sites = engines.len();
        let hints = config.hints(sites);
        let workers = engines
            .into_iter()
            .enumerate()
            .map(|(site, engine)| {
                SiteWorker::new(
                    site,
                    sites,
                    config.mode,
                    hints.clone(),
                    config.timer,
                    Arc::new(engine),
                )
                .with_tuning(config.tuning)
            })
            .collect();
        SimCluster {
            workers,
            transport: SimTransport::new(sites, net),
            config,
            registered: BTreeSet::new(),
            registration_negotiations: 0,
            registration_solver_micros: 0,
            registration_cache: NegotiationCache::new(),
            wal_frames: vec![None; sites],
            scratch: Vec::new(),
        }
    }

    /// Registers a counter on every site (initial value WAL-logged through
    /// each engine, treaty negotiated once, metadata installed everywhere).
    /// Returns the solver time in microseconds.
    pub fn register(&mut self, obj: ObjId, initial: i64, lower_bound: i64) -> u64 {
        if !self.registered.insert(obj.clone()) {
            return 0;
        }
        let members = self.committed_roster().members.clone();
        let (allowances, solver_micros) = negotiate_allowances_cached(
            self.config.mode,
            &self.config.hints(members.len()),
            members.len(),
            initial,
            lower_bound,
            self.config.timer,
            &mut self.registration_cache,
            None,
        );
        self.registration_negotiations += 1;
        self.registration_solver_micros += solver_micros;
        for worker in &mut self.workers {
            worker
                .engine()
                .write_logged(obj.as_str(), initial)
                .expect("population write cannot conflict");
            worker.install_counter(CounterMeta {
                obj: obj.clone(),
                base: initial,
                lower_bound,
                members: members.clone(),
                allowances: allowances.clone(),
            });
        }
        solver_micros
    }

    /// The roster as held by the lowest live worker — the committed
    /// membership when the cluster is quiescent.
    fn committed_roster(&self) -> &homeo_protocol::Roster {
        let live = (0..self.workers.len())
            .find(|&site| !self.transport.down[site])
            .expect("at least one live site");
        self.workers[live].roster()
    }

    /// Registers a general-transaction program bundle on every site: the
    /// source text is delivered to each worker, which parses, analyzes and
    /// negotiates its own (deterministic, identical) treaty table. Frames
    /// to a down site are held and replayed at restart, like any client
    /// frame. Returns the number of registered transactions (0 if the
    /// bundle is malformed, in which case nothing is delivered).
    pub fn register_program(&mut self, bundle: &ProgramBundle) -> u64 {
        let sites = self.workers.len();
        {
            // The general protocol's rounds run over a dense `0..n` site
            // universe; a cluster that has retired a low-numbered site must
            // not take new program registrations.
            let roster = self.committed_roster();
            if roster.members != (0..roster.len()).collect::<Vec<_>>() {
                return 0;
            }
        }
        let count = match ProgramSet::from_bundle(bundle, sites) {
            Ok(set) => set.len() as u64,
            Err(_) => return 0,
        };
        let clock = self.transport.clock;
        let frame = Message::RegisterProgram {
            bundle: bundle.clone(),
        }
        .encode();
        for site in 0..sites {
            self.transport.push(clock, CLIENT, site, frame.clone());
        }
        self.run_until_quiescent();
        count
    }

    /// True when the counter has been registered.
    pub fn is_registered(&self, obj: &ObjId) -> bool {
        self.registered.contains(obj)
    }

    /// Delivers frames until nothing deliverable remains (frames held by
    /// partitions or down sites stay parked). Returns the number of frames
    /// delivered.
    pub fn run_until_quiescent(&mut self) -> u64 {
        let mut delivered = 0;
        while let Some((from, to, frame)) = self.transport.next_delivery() {
            let msg = Message::decode(&frame).expect("malformed frame on the wire");
            let mut out = Vec::new();
            self.workers[to].handle(from, msg, &mut out);
            for (dest, msg) in out {
                self.transport
                    .send(to, dest, msg.encode_into(&mut self.scratch));
            }
            delivered += 1;
        }
        delivered
    }

    /// The current virtual time, in microseconds.
    pub fn clock(&self) -> SimTime {
        self.transport.clock
    }

    /// Cuts the (symmetric) link between two sites. Frames already in
    /// flight on that link are parked at delivery time.
    pub fn partition(&mut self, a: usize, b: usize) {
        assert_ne!(a, b);
        self.transport.partitioned.insert(normalize(a, b));
    }

    /// Heals the link between two sites: held frames re-enter the network
    /// (in held order, with fresh delivery delays).
    pub fn heal(&mut self, a: usize, b: usize) {
        self.transport.partitioned.remove(&normalize(a, b));
        self.release_partition_held();
    }

    /// Heals every partition.
    pub fn heal_all(&mut self) {
        self.transport.partitioned.clear();
        self.release_partition_held();
    }

    fn release_partition_held(&mut self) {
        let held: Vec<(usize, usize, Vec<u8>)> = self.transport.partition_held.drain(..).collect();
        for (from, to, frame) in held {
            if self.transport.partitioned.contains(&normalize(from, to)) {
                self.transport.partition_held.push_back((from, to, frame));
            } else {
                self.transport.send(from, to, frame);
            }
        }
    }

    /// Fail-stops a site: every volatile structure dies with it and frames
    /// addressed to it are held until [`SimCluster::restart`]. The WAL
    /// frame an on-disk log writer would hold is captured here and replayed
    /// at restart.
    ///
    /// # Panics
    /// Panics if the site is already down, if it is the last site up, or if
    /// it is inside an active synchronization round — as its coordinator
    /// *or* as a frozen participant whose delta the round will rebase. The
    /// crash model is fail-stop *between* coordination rounds; drive the
    /// cluster to quiescence (e.g. `run_until_quiescent`) before killing.
    pub fn kill(&mut self, site: usize) {
        assert!(!self.transport.down[site], "site {site} is already down");
        assert!(
            self.transport.down.iter().filter(|d| !**d).count() > 1,
            "cannot kill the last live site (recovery needs a live peer)"
        );
        assert!(
            self.workers[site].quiescent_coordinator(),
            "site {site} coordinates an active synchronization round; the fault \
             model is fail-stop between rounds — run to quiescence before killing"
        );
        assert!(
            self.workers[site].quiescent_participant(),
            "site {site} is frozen inside a peer-coordinated round (its delta is \
             being folded); killing it here could let the round's install land \
             after recovery and erase a post-restart commit — run to quiescence \
             before killing"
        );
        self.wal_frames[site] = Some(self.workers[site].engine().wal_frame());
        self.transport.down[site] = true;
    }

    /// True when the site is currently down.
    pub fn is_down(&self, site: usize) -> bool {
        self.transport.down[site]
    }

    /// Restarts a killed site: the engine is reopened from the WAL frame
    /// captured at the kill, held frames are released (they were on the
    /// wire), and the worker refetches treaty metadata from the lowest live
    /// peer before serving anything else.
    pub fn restart(&mut self, site: usize) {
        assert!(self.transport.down[site], "site {site} is not down");
        let frame = self.wal_frames[site]
            .take()
            .expect("kill captured a WAL frame");
        let engine = Engine::reopen_from_frame(&frame).expect("the WAL frame was captured intact");
        self.transport.down[site] = false;
        // Frames held while the site was down were already on the wire:
        // they re-enter at the current instant, ahead of the state
        // transfer's round trip, so recovery replays them in order.
        let held: Vec<(usize, Vec<u8>)> = self.transport.down_held[site].drain(..).collect();
        let clock = self.transport.clock;
        for (from, frame) in held {
            self.transport.push(clock, from, site, frame);
        }
        // The recovery buddy must be a fellow *member* (per the restarting
        // site's pre-crash roster): a retired site's treaty metadata is
        // stale by design and must not seed a recovery. The buddy's
        // `StateReply` carries the current roster, so a membership change
        // that committed while this site was down is adopted on recovery.
        let roster = self.workers[site].roster().clone();
        let buddy = roster
            .members
            .iter()
            .copied()
            .find(|&peer| peer != site && !self.transport.down[peer])
            .expect("at least one live member peer");
        let mut out = Vec::new();
        self.workers[site].crash_restart(Arc::new(engine), buddy, &mut out);
        for (dest, msg) in out {
            self.transport
                .send(site, dest, msg.encode_into(&mut self.scratch));
        }
    }

    /// Starts a join of a fresh site without driving it to completion: the
    /// new worker's `JoinRequest` enters the network and the scheduler is
    /// *not* run, so faults (partitions, kills) can be injected while the
    /// membership change is in flight. Returns the new site id.
    ///
    /// The cluster's RTT matrix must already cover the new site — build the
    /// `SimNetConfig` over the maximum site count the run will grow to.
    pub fn begin_join(&mut self) -> usize {
        let site = self.workers.len();
        assert!(
            site < self.transport.config.rtt.sites(),
            "RTT matrix has no row for joining site {site}; build the net config \
             over the maximum site count"
        );
        let contact = self.committed_roster().leader();
        let expected_amount = self.config.hints(1).expected_amount;
        let mut worker = SiteWorker::new_joining(
            site,
            self.config.mode,
            expected_amount,
            self.config.timer,
            Arc::new(Engine::new()),
        )
        .with_tuning(self.config.tuning);
        self.transport.down.push(false);
        self.transport.down_held.push(VecDeque::new());
        self.wal_frames.push(None);
        let mut out = Vec::new();
        worker.begin_join(contact, "", None, &mut out);
        self.workers.push(worker);
        for (dest, msg) in out {
            self.transport
                .send(site, dest, msg.encode_into(&mut self.scratch));
        }
        site
    }

    /// Joins a fresh site and drives the membership change to completion:
    /// every registered counter is handed off to the grown member set and
    /// the epoch-bumped roster is committed everywhere. Returns the new
    /// site id.
    pub fn join(&mut self) -> usize {
        let site = self.begin_join();
        self.run_until_quiescent();
        assert!(
            self.workers[site].roster().contains(site) && !self.workers[site].joining(),
            "join of site {site} did not commit — a partition or down site is \
             blocking the handoff"
        );
        site
    }

    /// Starts retiring a member site without driving it to completion (see
    /// [`SimCluster::begin_join`] for why). The `Leave` frame enters the
    /// network addressed to a surviving member.
    pub fn begin_leave(&mut self, site: usize) {
        let roster = self.committed_roster();
        assert!(roster.contains(site), "site {site} is not a member");
        assert!(roster.len() > 1, "cannot retire the last member");
        let watch = roster
            .members
            .iter()
            .copied()
            .find(|&m| m != site && !self.transport.down[m])
            .expect("a live surviving member");
        let clock = self.transport.clock;
        let frame = Message::Leave { site: site as u64 }.encode();
        self.transport.push(clock, CLIENT, watch, frame);
    }

    /// Retires a member site and drives the membership change to
    /// completion: its shards are handed off (unsynchronized deltas folded
    /// into the survivors' bases) and the epoch-bumped roster evicts it.
    /// The retired worker stays constructed — it completes client
    /// operations as uncommitted no-ops.
    pub fn leave(&mut self, site: usize) {
        self.begin_leave(site);
        self.run_until_quiescent();
        assert!(
            !self.committed_roster().contains(site),
            "leave of site {site} did not commit — a partition or down site is \
             blocking the handoff"
        );
    }

    /// The membership roster `site` currently holds.
    pub fn roster(&self, site: usize) -> &homeo_protocol::Roster {
        self.workers[site].roster()
    }

    /// Total stale-epoch frames dropped across every site: frames from a
    /// member evicted by a committed roster carry treaty state from a dead
    /// epoch and are rejected on receipt (only a rejoin `JoinRequest`
    /// passes). Exposed so the stress tests can assert the rejection
    /// actually fired.
    pub fn stale_rejects(&self) -> u64 {
        self.workers.iter().map(|w| w.stale_rejects).sum()
    }

    /// The authoritative (global) value of a counter: the coordinator's
    /// base plus every *member* site's unsynchronized delta. Meaningful
    /// when no round is mid-flight on the counter (run to quiescence
    /// first). Non-members (retired sites, mid-join sites) hold stale
    /// engine values on purpose — their deltas were folded into the base at
    /// handoff — so they are excluded from the sum.
    pub fn logical_value(&self, obj: &ObjId) -> i64 {
        let live = (0..self.workers.len())
            .find(|&site| !self.transport.down[site])
            .expect("at least one live site");
        let coordinator = self.workers[live].coordinator(obj);
        let Some(base) = self.workers[coordinator].counter_base(obj) else {
            return 0;
        };
        let members = self.workers[coordinator]
            .counter_members(obj)
            .expect("coordinator knows its counter");
        base + members
            .iter()
            .map(|&m| self.workers[m].engine().peek(obj.as_str()) - base)
            .sum::<i64>()
    }

    /// Aggregate statistics across every site plus the registration path.
    pub fn stats(&self) -> ReplicatedStats {
        let mut total = ReplicatedStats {
            negotiations: self.registration_negotiations,
            solver_micros_total: self.registration_solver_micros,
            ..ReplicatedStats::default()
        };
        for worker in &self.workers {
            total.local_commits += worker.stats.local_commits;
            total.synchronizations += worker.stats.synchronizations;
            total.negotiations += worker.stats.negotiations;
            total.proactive_negotiations += worker.stats.proactive_negotiations;
            total.solver_micros_total += worker.stats.solver_micros_total;
        }
        total
    }

    /// Every site worker's rendered telemetry dump (Prometheus-style
    /// text), in site order. Under [`homeo_sim::Timer::fixed_zero`] the recorded
    /// durations are the timer's constant, so seeded runs dump
    /// byte-identical text.
    pub fn metrics_text(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.metrics_text()).collect()
    }

    /// The deterministic end-of-run metrics.
    pub fn metrics(&self) -> SimMetrics {
        SimMetrics {
            clock: self.transport.clock,
            frames_sent: self.transport.frames_sent,
            frames_delivered: self.transport.frames_delivered,
            frames_retransmitted: self.transport.frames_retransmitted,
            stats: self.stats(),
        }
    }
}

impl SiteRuntime for SimCluster {
    fn sites(&self) -> usize {
        self.workers.len()
    }

    fn engine(&self, site: usize) -> &Engine {
        self.workers[site].engine()
    }

    fn submit(&mut self, site: usize, op: SiteOp) {
        let clock = self.transport.clock;
        let frame = Message::encode_submit_into(std::slice::from_ref(&op), &mut self.scratch);
        self.transport.push(clock, CLIENT, site, frame);
    }

    fn poll(&mut self, site: usize) -> Vec<OpOutcome> {
        self.run_until_quiescent();
        self.workers[site].take_completed()
    }

    /// The batched path: one `Submit` frame (encoded straight from the
    /// borrowed slice) carries the whole batch into the site's scheduling
    /// round, then the scheduler runs to quiescence and the outcomes are
    /// drained.
    fn submit_batch(&mut self, site: usize, ops: &[SiteOp]) -> Vec<OpOutcome> {
        if ops.is_empty() {
            return Vec::new();
        }
        let clock = self.transport.clock;
        let frame = Message::encode_submit_into(ops, &mut self.scratch);
        self.transport.push(clock, CLIENT, site, frame);
        self.poll(site)
    }

    fn synchronize(&mut self, site: usize) -> u64 {
        let mut out = Vec::new();
        self.workers[site].begin_full_sync(&mut out);
        for (dest, msg) in out {
            self.transport
                .send(site, dest, msg.encode_into(&mut self.scratch));
        }
        self.run_until_quiescent();
        self.workers[site].take_full_sync_result().expect(
            "synchronize() stalled: a partition or down site is blocking the fold — \
             heal/restart before synchronizing",
        )
    }

    fn ensure_registered(&mut self, obj: &ObjId, initial: i64, lower_bound: i64) {
        if !self.is_registered(obj) {
            self.register(obj.clone(), initial, lower_bound);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeo_protocol::{OptimizerConfig, ReplicatedMode};
    use homeo_sim::Timer;

    fn stock(i: usize) -> ObjId {
        ObjId::new(format!("stock[{i}]"))
    }

    fn homeo_config() -> ClusterConfig {
        ClusterConfig::new(ReplicatedMode::Homeostasis {
            optimizer: Some(OptimizerConfig {
                lookahead: 10,
                futures: 2,
                seed: 21,
            }),
        })
        .with_timer(Timer::fixed_zero())
    }

    fn sim(sites: usize, net: SimNetConfig) -> SimCluster {
        SimCluster::new(sites, homeo_config(), net)
    }

    #[test]
    fn a_reliable_sim_matches_the_serial_oracle() {
        let mut cluster = sim(3, SimNetConfig::reliable(3, 100));
        cluster.register(stock(0), 12, 1);
        let refill = 20;
        let mut serial = 12i64;
        let mut rng = DetRng::seed_from(17);
        for _ in 0..200 {
            let site = rng.index(3);
            let out = cluster.execute(
                site,
                SiteOp::Order {
                    obj: stock(0),
                    amount: 1,
                    refill_to: Some(refill - 1),
                },
            );
            assert!(out.committed);
            serial = if serial > 1 { serial - 1 } else { refill - 1 };
            assert_eq!(cluster.logical_value(&stock(0)), serial);
        }
        assert!(cluster.clock() > 0, "syncs must advance virtual time");
    }

    #[test]
    fn faults_delay_but_never_lose_operations() {
        let net = SimNetConfig::faulty(RttMatrix::uniform(3, 120), 0xFA);
        let mut cluster = sim(3, net);
        cluster.register(stock(0), 10, 1);
        let mut committed = 0;
        for i in 0..60 {
            let out = cluster.execute(
                i % 3,
                SiteOp::Order {
                    obj: stock(0),
                    amount: 1,
                    refill_to: Some(9),
                },
            );
            if out.committed {
                committed += 1;
            }
        }
        assert_eq!(committed, 60, "the reliable transport never loses an op");
        let metrics = cluster.metrics();
        assert!(metrics.frames_retransmitted > 0, "drops must have occurred");
    }

    #[test]
    fn same_seed_is_byte_for_byte_reproducible() {
        let run = || {
            let net = SimNetConfig::faulty(RttMatrix::table1().truncated(3), 7);
            let mut cluster = sim(3, net);
            for i in 0..4 {
                cluster.register(stock(i), 30, 1);
            }
            let mut rng = DetRng::seed_from(5);
            for _ in 0..150 {
                let site = rng.index(3);
                let item = rng.index(4);
                cluster.submit(
                    site,
                    SiteOp::Order {
                        obj: stock(item),
                        amount: 1,
                        refill_to: Some(29),
                    },
                );
                if rng.chance(0.3) {
                    let _ = cluster.poll(site);
                }
            }
            for site in 0..3 {
                let _ = cluster.poll(site);
            }
            cluster.synchronize(0);
            let values: Vec<i64> = (0..4).map(|i| cluster.logical_value(&stock(i))).collect();
            let wal: Vec<usize> = (0..3).map(|s| cluster.engine(s).wal_len()).collect();
            (cluster.metrics(), values, wal)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn partitioned_sites_keep_committing_locally_and_converge_after_heal() {
        let mut cluster = sim(3, SimNetConfig::reliable(3, 80));
        cluster.register(stock(0), 90, 0);
        // Partition site 0 from 1 and 2.
        cluster.partition(0, 1);
        cluster.partition(0, 2);
        // Within-allowance orders commit locally on both sides of the cut.
        for site in 0..3 {
            for _ in 0..5 {
                let out = cluster.execute(
                    site,
                    SiteOp::Order {
                        obj: stock(0),
                        amount: 1,
                        refill_to: None,
                    },
                );
                assert!(
                    out.committed && !out.synchronized,
                    "treaty-covered ops must not block on the partition"
                );
            }
        }
        // A violation at site 1 whose round needs site 0 stalls…
        cluster.submit(
            1,
            SiteOp::Order {
                obj: stock(0),
                amount: 40,
                refill_to: Some(89),
            },
        );
        assert!(
            cluster.poll(1).is_empty(),
            "cross-partition sync must stall, not complete"
        );
        // …until the partition heals.
        cluster.heal_all();
        let outcomes = cluster.poll(1);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].committed && outcomes[0].synchronized);
        cluster.synchronize(0);
        let expected = 90 - 15 - 40;
        assert_eq!(cluster.logical_value(&stock(0)), expected);
        for site in 0..3 {
            assert_eq!(cluster.value_at(site, &stock(0)), expected);
        }
    }

    #[test]
    fn a_killed_site_recovers_its_counters_from_the_wal() {
        let mut cluster = sim(2, SimNetConfig::reliable(2, 50));
        cluster.register(stock(0), 100, 1);
        for _ in 0..7 {
            let out = cluster.execute(
                1,
                SiteOp::Order {
                    obj: stock(0),
                    amount: 1,
                    refill_to: Some(99),
                },
            );
            assert!(out.committed);
        }
        let before = cluster.value_at(1, &stock(0));
        cluster.kill(1);
        assert!(cluster.is_down(1));
        // The live site keeps serving within its treaty.
        let out = cluster.execute(
            0,
            SiteOp::Order {
                obj: stock(0),
                amount: 1,
                refill_to: Some(99),
            },
        );
        assert!(out.committed);
        cluster.restart(1);
        cluster.run_until_quiescent();
        assert_eq!(
            cluster.value_at(1, &stock(0)),
            before,
            "WAL recovery must replay every committed decrement"
        );
        // And the cluster still folds correctly afterwards.
        cluster.synchronize(0);
        assert_eq!(cluster.logical_value(&stock(0)), 100 - 8);
        assert_eq!(
            cluster.value_at(0, &stock(0)),
            cluster.value_at(1, &stock(0))
        );
    }

    #[test]
    fn a_site_killed_after_two_checkpoints_restarts_to_its_pre_kill_state() {
        // Site 1 logs over three checkpoint thresholds' worth of records in
        // local orders and increments, so its WAL folds at least twice (each
        // fold drops at most one threshold plus one transaction), then
        // crashes: the image plus the suffix must restore exactly what it
        // held, and the folded totals must conserve.
        use homeo_store::engine::CHECKPOINT_RECORDS;
        let mut cluster = sim(2, SimNetConfig::reliable(2, 50));
        let initial = 10_000_000;
        cluster.register(stock(0), initial, 0);
        cluster.register(stock(1), initial, 0);
        // stock(2) is written before the first checkpoint only, so after it
        // only the image holds site 1's value.
        cluster.register(stock(2), 100, 0);
        for _ in 0..5 {
            let order = SiteOp::Order {
                obj: stock(2),
                amount: 1,
                refill_to: None,
            };
            assert!(cluster.execute(1, order).committed);
        }
        let batch: Vec<SiteOp> = (0..64)
            .map(|i| match i % 2 {
                0 => SiteOp::Order {
                    obj: stock(0),
                    amount: 1,
                    refill_to: None,
                },
                _ => SiteOp::Increment {
                    obj: stock(1),
                    amount: 2,
                },
            })
            .collect();
        let batches = 1_100;
        for _ in 0..batches {
            let outcomes = cluster.submit_batch(1, &batch);
            assert!(outcomes.iter().all(|o| o.committed));
        }
        let engine = cluster.engine(1);
        // Each local commit logs a Begin, a Write and a Commit, so the site
        // logged at least three thresholds' worth of records.
        assert!(engine.committed_count() as usize >= CHECKPOINT_RECORDS);
        assert!(engine.wal_len() < CHECKPOINT_RECORDS);
        let before = engine.snapshot();
        cluster.kill(1);
        cluster.restart(1);
        cluster.run_until_quiescent();
        assert_eq!(cluster.engine(1).snapshot(), before);
        let ops = 32 * batches as i64;
        assert_eq!(cluster.logical_value(&stock(0)), initial - ops);
        assert_eq!(cluster.logical_value(&stock(1)), initial + 2 * ops);
        assert_eq!(cluster.logical_value(&stock(2)), 95);
    }

    #[test]
    fn ops_submitted_while_down_execute_after_restart() {
        let mut cluster = sim(2, SimNetConfig::reliable(2, 50));
        cluster.register(stock(0), 50, 1);
        cluster.kill(0);
        cluster.submit(
            0,
            SiteOp::Order {
                obj: stock(0),
                amount: 1,
                refill_to: Some(49),
            },
        );
        assert!(cluster.poll(0).is_empty(), "a down site executes nothing");
        cluster.restart(0);
        let outcomes = cluster.poll(0);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].committed);
        assert_eq!(cluster.logical_value(&stock(0)), 49);
    }

    #[test]
    fn kill_refuses_an_active_coordinator() {
        let mut cluster = sim(2, SimNetConfig::reliable(2, 50));
        cluster.register(stock(0), 4, 1);
        let coordinator = {
            // Find which site coordinates stock(0).
            let c = homeo_runtime::shard_hash(&stock(0)) % 2;
            c as usize
        };
        let origin = 1 - coordinator;
        // A violating op from the other site puts the coordinator mid-round
        // if we never pump. Submit without polling:
        cluster.submit(
            origin,
            SiteOp::Order {
                obj: stock(0),
                amount: 10,
                refill_to: Some(50),
            },
        );
        // Deliver just enough to start the round: step the scheduler by
        // hand until the coordinator holds an active round
        // (run_until_quiescent would complete it).
        while cluster.workers[coordinator].quiescent_coordinator() {
            let (from, to, frame) = cluster
                .transport
                .next_delivery()
                .expect("a violating order must reach its coordinator");
            let msg = Message::decode(&frame).expect("well-formed");
            let mut out = Vec::new();
            cluster.workers[to].handle(from, msg, &mut out);
            for (dest, msg) in out {
                let encoded = msg.encode();
                cluster.transport.send(to, dest, encoded);
            }
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.kill(coordinator);
        }));
        assert!(result.is_err(), "killing an active coordinator must panic");
    }

    #[test]
    fn an_origin_killed_while_its_general_round_waits_applies_the_op_once() {
        use homeo_lang::database::Database;
        use homeo_lang::programs;
        use homeo_protocol::{Loc, ProgramBundle};

        let mut cluster = sim(2, SimNetConfig::reliable(2, 50));
        let txns = [
            programs::micro_order_for_item(0, 10),
            programs::micro_order_for_item(1, 10),
        ];
        let loc = Loc::from_pairs([(stock(0), 0usize), (stock(1), 1usize)]);
        let initial = Database::from_pairs([(stock(0), 5), (stock(1), 5)]);
        let bundle = ProgramBundle::from_transactions(&txns, &loc, &initial, None);
        assert_eq!(cluster.register_program(&bundle), 2);
        // Site 1's order violates its local treaty, so the op waits on a
        // general round at the coordinator. Deliver by hand until site 1
        // has handled the client frame, then kill it before the round runs.
        cluster.submit(1, SiteOp::Transaction { index: 1 });
        loop {
            let (from, to, frame) = cluster
                .transport
                .next_delivery()
                .expect("the submit must reach site 1");
            let msg = Message::decode(&frame).expect("well-formed");
            let submit = to == 1 && matches!(msg, Message::Submit { .. });
            let mut out = Vec::new();
            cluster.workers[to].handle(from, msg, &mut out);
            for (dest, msg) in out {
                let encoded = msg.encode();
                cluster.transport.send(to, dest, encoded);
            }
            if submit {
                break;
            }
        }
        cluster.kill(1);
        cluster.restart(1);
        cluster.run_until_quiescent();
        let outcomes = cluster.workers[1].take_completed();
        assert_eq!(outcomes.len(), 1, "one outcome per submitted op");
        assert!(outcomes[0].committed && outcomes[0].synchronized);
        cluster.synchronize(0);
        // Serially, one order takes stock[1] from 5 to 4.
        for site in 0..2 {
            assert_eq!(cluster.value_at(site, &stock(1)), 4, "site {site}");
        }
    }

    #[test]
    fn a_site_joins_under_faults_and_conservation_holds() {
        // Build the net over 4 sites, start with 3: the join grows into the
        // spare row of the five-datacenter geometry.
        let net = SimNetConfig::faulty(RttMatrix::table1().truncated(4), 0xE1);
        let mut cluster =
            SimCluster::from_engines((0..3).map(|_| Engine::new()).collect(), homeo_config(), net);
        cluster.register(stock(0), 400, 0);
        cluster.register(stock(1), 300, 0);
        let mut committed = 0i64;
        for i in 0..60 {
            let out = cluster.execute(
                i % 3,
                SiteOp::Order {
                    obj: stock(i % 2),
                    amount: 1,
                    refill_to: None,
                },
            );
            if out.committed {
                committed += 1;
            }
        }
        let joined = cluster.join();
        assert_eq!(joined, 3);
        for site in 0..4 {
            assert_eq!(cluster.roster(site).members, vec![0, 1, 2, 3]);
            assert_eq!(cluster.roster(site).epoch, 1);
        }
        // The joiner serves from its handed-off slice.
        for i in 0..40 {
            let out = cluster.execute(
                joined,
                SiteOp::Order {
                    obj: stock(i % 2),
                    amount: 1,
                    refill_to: None,
                },
            );
            if out.committed {
                committed += 1;
            }
        }
        cluster.synchronize(0);
        let total = cluster.logical_value(&stock(0)) + cluster.logical_value(&stock(1));
        assert_eq!(total, 400 + 300 - committed, "conservation across the join");
    }

    #[test]
    fn a_leave_during_a_partition_commits_after_heal() {
        let net = SimNetConfig::reliable(3, 90);
        let mut cluster = sim(3, net);
        cluster.register(stock(0), 200, 0);
        for site in 0..3 {
            for _ in 0..4 {
                assert!(
                    cluster
                        .execute(
                            site,
                            SiteOp::Order {
                                obj: stock(0),
                                amount: 1,
                                refill_to: None,
                            },
                        )
                        .committed
                );
            }
        }
        // Cut the leaver off from every survivor, then ask for the leave:
        // the handoff's fold needs the leaver's delta, so the change must
        // stall rather than drop it.
        cluster.partition(0, 2);
        cluster.partition(1, 2);
        cluster.begin_leave(2);
        cluster.run_until_quiescent();
        assert!(
            cluster.roster(0).contains(2),
            "the leave must not commit across the partition"
        );
        cluster.heal_all();
        cluster.run_until_quiescent();
        assert!(!cluster.roster(0).contains(2), "heal completes the leave");
        assert_eq!(cluster.roster(0).members, vec![0, 1]);
        cluster.synchronize(0);
        assert_eq!(
            cluster.logical_value(&stock(0)),
            200 - 12,
            "the leaver's deltas folded into the survivors"
        );
    }

    #[test]
    fn elastic_runs_are_reproducible_from_the_seed() {
        let run = || {
            let net = SimNetConfig::faulty(RttMatrix::table1().truncated(5), 0x5E);
            let mut cluster = SimCluster::from_engines(
                (0..3).map(|_| Engine::new()).collect(),
                homeo_config(),
                net,
            );
            cluster.register(stock(0), 500, 0);
            let mut rng = DetRng::seed_from(11);
            for _ in 0..80 {
                let site = rng.index(3);
                cluster.submit(
                    site,
                    SiteOp::Order {
                        obj: stock(0),
                        amount: 1,
                        refill_to: None,
                    },
                );
            }
            let joined = cluster.join();
            for _ in 0..40 {
                let site = rng.index(4);
                cluster.submit(
                    site,
                    SiteOp::Order {
                        obj: stock(0),
                        amount: 1,
                        refill_to: None,
                    },
                );
            }
            cluster.run_until_quiescent();
            cluster.leave(joined);
            cluster.synchronize(0);
            (cluster.metrics(), cluster.logical_value(&stock(0)))
        };
        assert_eq!(run(), run());
    }
}
