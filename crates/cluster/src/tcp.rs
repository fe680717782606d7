//! The real-socket backend: sites as TCP endpoints over `std::net`
//! loopback/LAN sockets.
//!
//! This is the first deployment path where the cluster runs as separate OS
//! processes: every frame of the protocol — client batches, treaty
//! negotiation, delta exchange, synchronization rounds, crash recovery —
//! crosses an actual socket with partial reads, kernel buffering and
//! connection loss in play. The pieces:
//!
//! * [`SiteNode`] — one running site: a **single nonblocking epoll event
//!   loop** (the reactor, `crate::reactor`) multiplexing the listener,
//!   every client connection and every peer link, pumping the same
//!   [`SiteWorker`] state machine the simulated backend runs.
//!   Reads feed per-connection [`FrameAssembler`]s; writes queue whole
//!   frames and flush with vectored `writev`; client-protocol frames
//!   (`PollRequest`, `SyncAllRequest`, `StatsRequest`) are answered by the
//!   loop itself. This is what the `homeostasisd` binary runs per site.
//! * [`TcpClient`] — a client attachment over one TCP connection: seed
//!   counters, submit batches, poll outcomes, force a full fold, fetch
//!   state and statistics. Submits and polls can be **pipelined**: any
//!   number of `Submit`+`PollRequest` pairs may be in flight per
//!   connection ([`TcpClient::send_poll`] / [`TcpClient::recv_poll_reply`]);
//!   the site answers each poll as soon as the operations that preceded it
//!   on this connection have completed, in poll order.
//! * [`TcpCluster`] — the in-process form (all sites in one process, every
//!   frame still over loopback TCP) behind [`SiteRuntime`], so `drive()`,
//!   the equivalence suites and the throughput sweep get a `cluster-tcp`
//!   mode for free. It also models fail-stop crashes:
//!   [`TcpCluster::kill`] / [`TcpCluster::restart`] mirror the simulator's
//!   kill/restart (WAL-recovered engine, treaty refetch from a peer).
//! * [`tcp_load`] / [`tcp_load_opts`] — the `homeo-load` client: drives
//!   pipelined `Submit` traffic over a configurable number of concurrent
//!   connections (an epoll fan-out driver of its own, [`LoadOptions`]) and
//!   **self-verifies counter conservation** at the end (fold everything,
//!   check every site agrees and the folded total equals the seeded total
//!   minus the committed decrements).
//!
//! # Failure model
//!
//! Fail-stop, like the simulator: a connection drop is treated as a peer
//! crash/restart boundary. Frames already accepted by the kernel when a
//! peer dies are lost with the peer's RAM (its engine recovers from the
//! WAL, its treaty state from a live peer); frames still queued on the
//! sender side survive the reconnect.
//!
//! Stale-socket detection matters because TCP accepts one more write into a
//! half-closed socket before the reset comes back — a frame written there
//! vanishes silently. Two signals mark an outbound socket stale *before*
//! that write can happen: the peer's inbound connection reaching EOF (the
//! peer died — its sockets closed with it), and a fresh inbound connection
//! carrying a **new incarnation epoch** in its [`Message::Hello`] (the peer
//! restarted). A reconnect by the same incarnation keeps the same epoch, so
//! it does not cascade into mutual connection resets.
//!
//! # Backpressure
//!
//! A client that stops draining its socket used to be handled by a blanket
//! 10-second write timeout; the reactor instead bounds the **bytes** a
//! client connection may queue ([`NodeOptions::client_queue_cap`]) and
//! disconnects past the cap — memory stays bounded per connection and a
//! slow client never stalls the event loop. Peer queues are unbounded by
//! design: protocol frames must survive a reconnect (dropping them would
//! wedge an ack barrier), and peers drain each other by construction.
//!
//! # Trust model
//!
//! The *byte* layer is hardened against hostile input — bounded length
//! prefixes, decode errors close the connection, clients speaking the
//! site-to-site protocol are dropped — but peer *identity* is not
//! authenticated: a connection announcing `Hello { peer: N }` is believed.
//! Sites must only be reachable from the cluster's own network (loopback
//! here; a private segment or an authenticating proxy in any real
//! deployment), exactly like the unauthenticated intra-cluster ports of
//! most coordination systems.

use std::collections::{BTreeSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use epoll::{Events, Poller};
use homeo_lang::ids::ObjId;
use homeo_protocol::{
    negotiate_allowances_cached, NegotiationCache, ProgramBundle, ReplicatedStats, Roster,
    WorkloadHints,
};
use homeo_runtime::{OpOutcome, SiteOp, SiteRuntime};
use homeo_sim::{DetRng, Timer};
use homeo_store::Engine;
use homeo_telemetry::Histogram;

use crate::config::ClusterSpec;
use crate::msg::{CounterMeta, FrameAssembler, Message, CLIENT_PEER};
use crate::reactor::{
    Reactor, ReactorConfig, WriteQueue, BACKOFF_MAX, BACKOFF_MIN, LISTEN_BACKLOG,
};
use crate::worker::SiteWorker;
use crate::ClusterConfig;

/// A client request with no reply within this window is a dead site.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Blocking-client write timeout: a site that stops reading for this long
/// is dead (the site itself never stops reading, so this only fires on a
/// crashed or partitioned site).
const CLIENT_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Per-process counter behind incarnation epochs: combined with the
/// process id, every [`SiteNode`] spawn gets an epoch no other incarnation
/// of the site (in this process or another) announces.
static NEXT_EPOCH: AtomicUsize = AtomicUsize::new(1);

fn fresh_epoch() -> u64 {
    ((std::process::id() as u64) << 32) ^ NEXT_EPOCH.fetch_add(1, Ordering::Relaxed) as u64
}

/// Reserves `n` distinct loopback addresses by briefly binding ephemeral
/// listeners. The self-contained smoke scenario uses this to write a config
/// for the daemons it spawns; the tiny close-to-rebind window is acceptable
/// on a CI loopback.
pub fn free_loopback_addrs(n: usize) -> std::io::Result<Vec<SocketAddr>> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind((Ipv4Addr::LOCALHOST, 0)))
        .collect::<std::io::Result<_>>()?;
    listeners.iter().map(|l| l.local_addr()).collect()
}

/// Construction parameters of a [`SiteNode`].
pub struct NodeOptions {
    /// This node's site id.
    pub site: usize,
    /// Listen address of every site, indexed by site id.
    pub addrs: Vec<SocketAddr>,
    /// Shared cluster configuration (mode, timer, hints).
    pub config: ClusterConfig,
    /// The site's storage engine.
    pub engine: Arc<Engine>,
    /// When restarting after a crash: a live peer to refetch treaty state
    /// from (`StateRequest`), after the engine was reopened from its WAL.
    pub recover_from: Option<usize>,
    /// How many unflushed reply bytes one client connection may accumulate
    /// before the site disconnects it (the reactor's backpressure bound;
    /// [`crate::DEFAULT_CLIENT_QUEUE_CAP`] unless a test narrows it).
    pub client_queue_cap: usize,
    /// `Some((contact, expected_epoch))` when this node is not a founding
    /// member: it starts with an empty treaty book and joins the live
    /// cluster through the member site `contact` (refusing the `JoinAck`
    /// if `expected_epoch` is given and the roster epoch differs).
    pub join: Option<(usize, Option<u64>)>,
}

impl NodeOptions {
    /// Options for site `site` of a cluster listening on `addrs`, carrying
    /// the shared [`ClusterConfig`] — the same builder value every other
    /// backend takes. Defaults: a fresh engine, no crash recovery, the
    /// default client backpressure bound.
    ///
    /// ```no_run
    /// use homeo_cluster::{free_loopback_addrs, NodeOptions, SiteNode};
    /// use homeo_protocol::{ClusterConfig, ReplicatedMode};
    ///
    /// let addrs = free_loopback_addrs(2).unwrap();
    /// let config = ClusterConfig::new(ReplicatedMode::EvenSplit);
    /// let node = SiteNode::bind(NodeOptions::new(0, addrs, config)).unwrap();
    /// # drop(node);
    /// ```
    pub fn new(site: usize, addrs: Vec<SocketAddr>, config: ClusterConfig) -> Self {
        NodeOptions {
            site,
            addrs,
            config,
            engine: Arc::new(Engine::new()),
            recover_from: None,
            client_queue_cap: crate::reactor::DEFAULT_CLIENT_QUEUE_CAP,
            join: None,
        }
    }

    /// Replaces the storage engine (a WAL-reopened engine on restart, or a
    /// pre-populated one).
    pub fn with_engine(mut self, engine: Arc<Engine>) -> Self {
        self.engine = engine;
        self
    }

    /// Marks this node as recovering after a crash: treaty state is
    /// refetched from the given live peer once the engine is reopened.
    pub fn with_recover_from(mut self, peer: usize) -> Self {
        self.recover_from = Some(peer);
        self
    }

    /// Overrides the reactor's per-client backpressure bound.
    pub fn with_client_queue_cap(mut self, cap: usize) -> Self {
        self.client_queue_cap = cap;
        self
    }

    /// Marks this node as a joiner: instead of founding the cluster it
    /// contacts the member site `contact` with a `JoinRequest` at startup
    /// and adopts the roster, treaty book and program bundle from the
    /// `JoinAck` handshake. With `expected_epoch` set, the join aborts if
    /// the live roster's epoch differs (a stale-config guard for
    /// operator-driven joins through `homeostasisd --config`).
    pub fn with_join(mut self, contact: usize, expected_epoch: Option<u64>) -> Self {
        self.join = Some((contact, expected_epoch));
        self
    }
}

/// One running TCP site: a single reactor thread behind one listen
/// address. `homeostasisd` runs one (or all) of these per process;
/// [`TcpCluster`] runs all of them in-process.
pub struct SiteNode {
    site: usize,
    addr: SocketAddr,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
    /// Write half of the reactor's waker pipe.
    waker: UnixStream,
    handle: Option<JoinHandle<()>>,
}

impl SiteNode {
    /// Binds `opts.addrs[opts.site]` (with a high-fanout listen backlog)
    /// and spawns the node.
    pub fn bind(opts: NodeOptions) -> std::io::Result<SiteNode> {
        let listener = epoll::listen_on(opts.addrs[opts.site], LISTEN_BACKLOG)?;
        Ok(SiteNode::spawn(listener, opts))
    }

    /// Spawns the node on an already-bound listener (how [`TcpCluster`]
    /// hands out ephemeral loopback ports race-free).
    pub fn spawn(listener: TcpListener, opts: NodeOptions) -> SiteNode {
        let NodeOptions {
            site,
            addrs,
            config,
            engine,
            recover_from,
            client_queue_cap,
            join,
        } = opts;
        let sites = addrs.len();
        assert!(site < sites, "site {site} out of range for {sites} sites");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let addr_book: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
        let worker = if join.is_some() {
            // A joiner founds nothing: it starts as a lone roster and
            // learns counters, allowances and programs from the JoinAck.
            SiteWorker::new_joining(
                site,
                config.mode,
                config.hints(1).expected_amount,
                config.timer,
                engine.clone(),
            )
        } else {
            SiteWorker::new(
                site,
                sites,
                config.mode,
                config.hints(sites),
                config.timer,
                engine.clone(),
            )
        }
        .with_tuning(config.tuning)
        .with_peer_addrs(&addr_book);
        let shutdown = Arc::new(AtomicBool::new(false));
        let (waker, reactor_waker) = UnixStream::pair().expect("create waker pipe");
        let reactor = Reactor::new(
            listener,
            reactor_waker,
            shutdown.clone(),
            worker,
            ReactorConfig {
                site,
                epoch: fresh_epoch(),
                addrs,
                client_queue_cap,
                join,
            },
        )
        .expect("create the site's epoll reactor");
        let handle = std::thread::Builder::new()
            .name(format!("homeo-tcp-{site}"))
            .spawn(move || reactor.run(recover_from))
            .expect("spawn site reactor thread");
        SiteNode {
            site,
            addr,
            engine,
            shutdown,
            waker,
            handle: Some(handle),
        }
    }

    /// This node's site id.
    pub fn site(&self) -> usize {
        self.site
    }

    /// The address the node listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The site's storage engine (in-process inspection, exactly as the
    /// other backends allow).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Stops the reactor and closes every connection. Idempotent; called
    /// by `Drop`.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = (&self.waker).write(&[1]);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SiteNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client attachment over one TCP connection to one site.
///
/// The connection is request-response by default (submits are
/// fire-and-forget; [`TcpClient::poll`] collects their outcomes), and the
/// stream's FIFO ordering is what orders a submit before the poll that
/// observes it. Polls are answered **per connection**: a poll waits for
/// the operations submitted on *this* connection before it, so any number
/// of clients may poll a site concurrently, and one client may pipeline
/// several `Submit`+poll pairs ([`TcpClient::send_poll`] /
/// [`TcpClient::recv_poll_reply`]) — replies arrive in poll order.
pub struct TcpClient {
    stream: TcpStream,
    asm: FrameAssembler,
    /// Per-connection frame-encode scratch.
    scratch: Vec<u8>,
}

impl TcpClient {
    /// Connects to a site and announces as a client.
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpClient> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_WRITE_TIMEOUT))?;
        stream.write_all(
            &Message::Hello {
                peer: CLIENT_PEER,
                epoch: 0,
            }
            .encode(),
        )?;
        Ok(TcpClient {
            stream,
            asm: FrameAssembler::new(),
            scratch: Vec::new(),
        })
    }

    /// [`TcpClient::connect`] with exponential-backoff retries for up to
    /// `within` — how a load client waits out daemons that are still
    /// binding their sockets.
    pub fn connect_retry(addr: SocketAddr, within: Duration) -> std::io::Result<TcpClient> {
        let deadline = Instant::now() + within;
        let mut backoff = BACKOFF_MIN;
        loop {
            match TcpClient::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    if Instant::now() + backoff >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                }
            }
        }
    }

    fn send(&mut self, msg: &Message) -> std::io::Result<()> {
        let frame = msg.encode_into(&mut self.scratch);
        self.stream.write_all(&frame)
    }

    fn recv(&mut self) -> std::io::Result<Message> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.asm.next_message() {
                Ok(Some(msg)) => return Ok(msg),
                Ok(None) => {}
                Err(e) => return Err(std::io::Error::new(ErrorKind::InvalidData, e)),
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "site closed the connection",
                ));
            }
            self.asm.push(&chunk[..n]);
        }
    }

    fn expect_reply<T>(
        &mut self,
        extract: impl Fn(Message) -> Result<T, Box<Message>>,
    ) -> std::io::Result<T> {
        match extract(self.recv()?) {
            Ok(value) => Ok(value),
            Err(other) => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// Submits a whole batch as one `Submit` frame (fire-and-forget; pair
    /// with [`TcpClient::poll`], or pipeline with [`TcpClient::send_poll`]).
    pub fn submit_batch(&mut self, ops: &[SiteOp]) -> std::io::Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let frame = Message::encode_submit_into(ops, &mut self.scratch);
        self.stream.write_all(&frame)
    }

    /// Fires a `PollRequest` without waiting for the reply — the pipelined
    /// half of [`TcpClient::poll`]. The site answers once every operation
    /// submitted on this connection *before* the poll has completed, so a
    /// window of `submit_batch` + `send_poll` pairs may be kept in flight
    /// and the replies collected with [`TcpClient::recv_poll_reply`] in
    /// the same order.
    pub fn send_poll(&mut self) -> std::io::Result<()> {
        self.send(&Message::PollRequest)
    }

    /// Receives one `PollReply` (the outcomes drained since the previous
    /// reply, in submission order). Blocks until the matching poll is
    /// answered.
    pub fn recv_poll_reply(&mut self) -> std::io::Result<Vec<OpOutcome>> {
        self.expect_reply(|msg| match msg {
            Message::PollReply { outcomes } => Ok(outcomes),
            other => Err(Box::new(other)),
        })
    }

    /// Blocks until every operation submitted on this connection completed
    /// and returns the outcomes in submission order.
    pub fn poll(&mut self) -> std::io::Result<Vec<OpOutcome>> {
        self.send_poll()?;
        self.recv_poll_reply()
    }

    /// Installs a counter's initial value and treaty on the connected site
    /// and waits for the ack. Cluster-wide registration = seeding every
    /// site and collecting every ack **before** submitting operations.
    pub fn seed(&mut self, meta: CounterMeta) -> std::io::Result<()> {
        self.send(&Message::Seed { meta })?;
        self.expect_reply(|msg| match msg {
            Message::SeedAck { .. } => Ok(()),
            other => Err(Box::new(other)),
        })
    }

    /// Registers a general-transaction program bundle on the connected site
    /// and waits for the ack, which carries the number of transactions the
    /// site accepted (0 = the bundle was rejected as malformed).
    /// Cluster-wide registration = registering on every site and collecting
    /// every ack **before** submitting [`SiteOp::Transaction`] operations.
    pub fn register_program(&mut self, bundle: &ProgramBundle) -> std::io::Result<u64> {
        self.send(&Message::RegisterProgram {
            bundle: bundle.clone(),
        })?;
        self.expect_reply(|msg| match msg {
            Message::ProgramAck { count } => Ok(count),
            other => Err(Box::new(other)),
        })
    }

    /// Folds every registered counter cluster-wide
    /// (`SiteRuntime::synchronize` over the wire); returns the solver time.
    pub fn synchronize_all(&mut self) -> std::io::Result<u64> {
        self.send(&Message::SyncAllRequest)?;
        self.expect_reply(|msg| match msg {
            Message::SyncAllReply { solver_micros } => Ok(solver_micros),
            other => Err(Box::new(other)),
        })
    }

    /// The connected site's full telemetry dump — counters, gauges and
    /// latency histograms rendered as Prometheus-style text
    /// ([`SiteWorker::metrics_text`]). This is what `homeo-load --metrics`
    /// scrapes from a live daemon.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        self.send(&Message::MetricsRequest)?;
        self.expect_reply(|msg| match msg {
            Message::MetricsReply { text } => Ok(text),
            other => Err(Box::new(other)),
        })
    }

    /// The connected site's aggregate statistics.
    pub fn stats(&mut self) -> std::io::Result<ReplicatedStats> {
        self.send(&Message::StatsRequest)?;
        self.expect_reply(|msg| match msg {
            Message::StatsReply { stats } => Ok(stats),
            other => Err(Box::new(other)),
        })
    }

    /// The connected site's full treaty state (after a fold, the bases are
    /// the authoritative counter values — what the load client's
    /// conservation check reads).
    pub fn state(&mut self) -> std::io::Result<Vec<CounterMeta>> {
        self.send(&Message::StateRequest)?;
        self.expect_reply(|msg| match msg {
            Message::StateReply { counters, .. } => Ok(counters),
            other => Err(Box::new(other)),
        })
    }

    /// The connected site's current membership roster (epoch + member
    /// list). Admin tooling polls this to watch a join or leave commit.
    pub fn roster(&mut self) -> std::io::Result<Roster> {
        self.send(&Message::StateRequest)?;
        self.expect_reply(|msg| match msg {
            Message::StateReply { roster, .. } => Ok(roster),
            other => Err(Box::new(other)),
        })
    }

    /// Asks the cluster to retire `site`: the frame is forwarded to the
    /// membership coordinator, which hands the leaver's counter shards off
    /// and broadcasts the epoch-bumped roster. Fire-and-forget — poll
    /// [`TcpClient::roster`] until the epoch moves past the one observed
    /// before the request.
    pub fn leave(&mut self, site: usize) -> std::io::Result<()> {
        self.send(&Message::Leave { site: site as u64 })
    }
}

/// A fleet of spawned `homeostasisd` **processes** — one per site of a
/// [`ClusterSpec`] — plus the temp config file they read. Dropping the
/// fleet kills every daemon (and reaps it) and removes the config, on
/// every exit path including panics; the smoke scenario and the
/// multi-process tests both deploy through this.
pub struct DaemonFleet {
    children: Vec<std::process::Child>,
    config_path: std::path::PathBuf,
}

impl DaemonFleet {
    /// Writes `spec` to a fresh temp config and spawns `binary` (a
    /// `homeostasisd` executable) once per site with
    /// `--config <temp> --site <n>`. Daemons already spawned are killed if
    /// a later spawn fails.
    pub fn spawn(binary: &std::path::Path, spec: &ClusterSpec) -> std::io::Result<DaemonFleet> {
        let config_path = std::env::temp_dir().join(format!(
            "homeo-cluster-{}-{}.conf",
            std::process::id(),
            NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&config_path, spec.to_config_string())?;
        let mut fleet = DaemonFleet {
            children: Vec::with_capacity(spec.sites()),
            config_path,
        };
        for site in 0..spec.sites() {
            let child = std::process::Command::new(binary)
                .arg("--config")
                .arg(&fleet.config_path)
                .arg("--site")
                .arg(site.to_string())
                .spawn()?; // Drop of the partial fleet reaps what spawned
            fleet.children.push(child);
        }
        Ok(fleet)
    }

    /// The config file the daemons read (hand it to a load client).
    pub fn config_path(&self) -> &std::path::Path {
        &self.config_path
    }
}

impl Drop for DaemonFleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.config_path);
    }
}

/// Spawns every site of `spec` in this process (fresh engines), each on its
/// configured address. `homeostasisd --site all` and the in-process
/// fallback of the smoke scenario are this.
pub fn spawn_cluster(spec: &ClusterSpec, config: ClusterConfig) -> std::io::Result<Vec<SiteNode>> {
    (0..spec.sites())
        .map(|site| SiteNode::bind(NodeOptions::new(site, spec.addrs.clone(), config.clone())))
        .collect()
}

/// All sites of a cluster in one process, every frame over loopback TCP,
/// behind the [`SiteRuntime`] surface — the `cluster-tcp` execution mode.
pub struct TcpCluster {
    spec: ClusterSpec,
    config: ClusterConfig,
    engines: Vec<Arc<Engine>>,
    nodes: Vec<Option<SiteNode>>,
    clients: Vec<Option<TcpClient>>,
    registered: BTreeSet<ObjId>,
    registration_negotiations: u64,
    /// Solver time spent by the registration path, in microseconds.
    registration_solver_micros: u64,
    /// Memoized treaty templates + solver scratch for the registration
    /// path's negotiations.
    registration_cache: NegotiationCache,
    /// The registered program bundle, kept client-side: a restarted site
    /// node is a fresh [`SiteWorker`] (the program catalog is volatile in
    /// this backend), so [`TcpCluster::restart`] re-registers it and folds
    /// the general state back into lockstep.
    program_bundle: Option<ProgramBundle>,
    /// The committed membership roster as last observed by this handle
    /// (updated by [`TcpCluster::join`] / [`TcpCluster::leave`]).
    roster: Roster,
}

impl TcpCluster {
    /// Spawns `sites` TCP site nodes on ephemeral loopback ports over fresh
    /// engines.
    pub fn new(sites: usize, config: ClusterConfig) -> Self {
        assert!(sites > 0);
        Self::from_engines((0..sites).map(|_| Engine::new()).collect(), config)
    }

    /// Spawns one TCP site node per pre-populated engine.
    pub fn from_engines(engines: Vec<Engine>, config: ClusterConfig) -> Self {
        assert!(!engines.is_empty());
        let sites = engines.len();
        // Bind every listener first so the full address list exists before
        // any node spawns — no free-port race.
        let listeners: Vec<TcpListener> = (0..sites)
            .map(|_| epoll::listen_on(epoll::loopback(0), LISTEN_BACKLOG).expect("bind loopback"))
            .collect();
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("bound listener"))
            .collect();
        let spec = ClusterSpec {
            addrs: addrs.clone(),
            mode: config.mode,
            join: None,
            epoch: None,
        };
        let engines: Vec<Arc<Engine>> = engines.into_iter().map(Arc::new).collect();
        let nodes: Vec<Option<SiteNode>> = listeners
            .into_iter()
            .enumerate()
            .map(|(site, listener)| {
                Some(SiteNode::spawn(
                    listener,
                    NodeOptions::new(site, addrs.clone(), config.clone())
                        .with_engine(engines[site].clone()),
                ))
            })
            .collect();
        let clients: Vec<Option<TcpClient>> = addrs
            .iter()
            .map(|addr| {
                Some(
                    TcpClient::connect_retry(*addr, Duration::from_secs(5))
                        .expect("connect to in-process site"),
                )
            })
            .collect();
        TcpCluster {
            spec,
            config,
            engines,
            nodes,
            clients,
            registered: BTreeSet::new(),
            registration_negotiations: 0,
            registration_solver_micros: 0,
            registration_cache: NegotiationCache::new(),
            program_bundle: None,
            roster: Roster::founding(sites),
        }
    }

    /// Grows the cluster by one site on a fresh loopback port: the new node
    /// spawns with [`NodeOptions::with_join`] aimed at the roster leader,
    /// receives the treaty book and program bundle in the `JoinAck`
    /// handshake, and every registered counter is handed off to the grown
    /// member set under its ack barrier. Blocks until the epoch-bumped
    /// roster carrying the new member is committed; returns the site id.
    pub fn join(&mut self) -> usize {
        let site = self.engines.len();
        let listener = epoll::listen_on(epoll::loopback(0), LISTEN_BACKLOG).expect("bind loopback");
        let addr = listener.local_addr().expect("bound listener");
        self.spec.addrs.push(addr);
        let engine = Arc::new(Engine::new());
        self.engines.push(engine.clone());
        let contact = self.roster.leader();
        let epoch_before = self
            .client(contact)
            .roster()
            .expect("roster over TCP")
            .epoch;
        let node = SiteNode::spawn(
            listener,
            NodeOptions::new(site, self.spec.addrs.clone(), self.config.clone())
                .with_engine(engine)
                .with_join(contact, None),
        );
        self.nodes.push(Some(node));
        self.clients.push(Some(
            TcpClient::connect_retry(addr, Duration::from_secs(5))
                .expect("connect to joining site"),
        ));
        self.roster = self.await_roster(contact, |r| r.epoch > epoch_before && r.contains(site));
        site
    }

    /// Retires a member site: its counter shards are handed off to the
    /// surviving members (folding its unsynchronized deltas into the new
    /// bases) and the epoch-bumped roster evicts it. The node stays up — a
    /// retired worker completes client operations as uncommitted no-ops —
    /// but takes no further part in any treaty. Blocks until the shrunk
    /// roster is committed.
    pub fn leave(&mut self, site: usize) {
        assert!(self.roster.contains(site), "site {site} is not a member");
        assert!(self.roster.len() > 1, "cannot retire the last member");
        let epoch_before = self.roster.epoch;
        let watch = *self
            .roster
            .members
            .iter()
            .find(|&&m| m != site)
            .expect("a surviving member");
        // Any member forwards the request to the membership coordinator.
        self.client(watch).leave(site).expect("leave over TCP");
        self.roster = self.await_roster(watch, |r| r.epoch > epoch_before && !r.contains(site));
    }

    /// Polls `site`'s roster over its client connection until `done`
    /// accepts it.
    fn await_roster(&mut self, site: usize, done: impl Fn(&Roster) -> bool) -> Roster {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let roster = self.client(site).roster().expect("roster over TCP");
            if done(&roster) {
                return roster;
            }
            assert!(
                Instant::now() < deadline,
                "membership change did not commit within 30s"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The committed roster as last observed by this handle.
    pub fn roster(&self) -> &Roster {
        &self.roster
    }

    /// The sites' listen addresses.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.spec.addrs
    }

    fn client(&mut self, site: usize) -> &mut TcpClient {
        self.clients[site]
            .as_mut()
            .unwrap_or_else(|| panic!("site {site} is down"))
    }

    /// Registers a counter cluster-wide: negotiate the initial treaty here,
    /// then seed every site over its client connection and collect every
    /// ack (the acks order the seed before any later frame that references
    /// the counter). Returns the solver time in microseconds.
    pub fn register(&mut self, obj: ObjId, initial: i64, lower_bound: i64) -> u64 {
        if !self.registered.insert(obj.clone()) {
            return 0;
        }
        let members = self.roster.members.clone();
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
        let meta = CounterMeta {
            obj,
            base: initial,
            lower_bound,
            members,
            allowances,
        };
        // Seed every spawned site, members and retired alike (non-members
        // keep the metadata for routing only), skipping killed sites (a
        // restart refetches state from its buddy anyway).
        for site in 0..self.engines.len() {
            if self.clients[site].is_some() {
                self.client(site)
                    .seed(meta.clone())
                    .expect("seed counter over TCP");
            }
        }
        solver_micros
    }

    /// True when the counter has been registered.
    pub fn is_registered(&self, obj: &ObjId) -> bool {
        self.registered.contains(obj)
    }

    /// Registers a general-transaction program bundle cluster-wide over the
    /// sockets: every site gets the source text, parses and analyzes it,
    /// negotiates its own (deterministic, identical) treaty table and acks.
    /// All acks are collected before this returns, so a later
    /// [`SiteOp::Transaction`] submit is ordered behind the registration on
    /// every connection. Returns the number of registered transactions
    /// (0 if the bundle was rejected, in which case nothing is cached).
    pub fn register_program(&mut self, bundle: &ProgramBundle) -> u64 {
        // General rounds run over the dense universe `0..n`: a roster with
        // a gap (a retired site) cannot host program registration, exactly
        // like the other backends.
        if self.roster.members != (0..self.roster.len()).collect::<Vec<_>>() {
            return 0;
        }
        let sites = self.roster.len();
        let mut count = 0;
        for site in 0..sites {
            count = self
                .client(site)
                .register_program(bundle)
                .expect("register program over TCP");
            if count == 0 {
                return 0;
            }
        }
        self.program_bundle = Some(bundle.clone());
        count
    }

    /// Aggregate statistics across every live site (over the wire), plus
    /// the registration-path negotiations.
    pub fn stats(&self) -> ReplicatedStats {
        let mut total = ReplicatedStats {
            negotiations: self.registration_negotiations,
            solver_micros_total: self.registration_solver_micros,
            ..ReplicatedStats::default()
        };
        for (site, node) in self.nodes.iter().enumerate() {
            if node.is_none() {
                continue;
            }
            let mut client =
                TcpClient::connect_retry(self.spec.addrs[site], Duration::from_secs(5))
                    .expect("stats connection");
            let stats = client.stats().expect("stats reply");
            total.local_commits += stats.local_commits;
            total.synchronizations += stats.synchronizations;
            total.negotiations += stats.negotiations;
            total.proactive_negotiations += stats.proactive_negotiations;
            total.solver_micros_total += stats.solver_micros_total;
        }
        total
    }

    /// Every live site's rendered telemetry dump (Prometheus-style text),
    /// indexed by site id — `None` for a killed site. Scraped over a fresh
    /// connection per site, exactly like [`TcpCluster::stats`].
    pub fn metrics(&self) -> Vec<Option<String>> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(site, node)| {
                node.as_ref().map(|_| {
                    let mut client =
                        TcpClient::connect_retry(self.spec.addrs[site], Duration::from_secs(5))
                            .expect("metrics connection");
                    client.metrics().expect("metrics reply")
                })
            })
            .collect()
    }

    /// Fail-stop kill of one site: the reactor stops, every connection
    /// closes, all volatile state (treaty metadata, in-flight rounds,
    /// queued clients) is gone. Only the WAL survives, exactly like the
    /// simulator's `kill`. Call at a quiescent point (all submitted
    /// operations polled): frames in flight at the kill are lost with it.
    pub fn kill(&mut self, site: usize) {
        self.clients[site] = None;
        if let Some(mut node) = self.nodes[site].take() {
            node.shutdown();
        }
    }

    /// Restarts a killed site on its original address: the engine is
    /// reopened from the WAL frame ([`Engine::reopen_from_frame`]) and the
    /// treaty metadata refetched from the next live peer (`StateRequest`),
    /// mirroring the simulator's `restart`. Peers reconnect with backoff
    /// on their next outbound frame.
    pub fn restart(&mut self, site: usize) {
        assert!(self.nodes[site].is_none(), "site {site} is not down");
        assert!(self.sites() > 1, "a lone site has no peer to recover from");
        let frame = self.engines[site].wal_frame();
        let engine =
            Arc::new(Engine::reopen_from_frame(&frame).expect("reopen engine from its WAL frame"));
        self.engines[site] = engine.clone();
        // Recover from a live *member*: a retired site's treaty metadata is
        // stale by design, so the buddy must come from the current roster.
        let buddy = self
            .roster
            .members
            .iter()
            .copied()
            .find(|&m| m != site && self.nodes[m].is_some())
            .expect("a live member to recover from");
        let node = SiteNode::bind(
            NodeOptions::new(site, self.spec.addrs.clone(), self.config.clone())
                .with_engine(engine)
                .with_recover_from(buddy),
        )
        .expect("rebind the site's address");
        self.nodes[site] = Some(node);
        self.clients[site] = Some(
            TcpClient::connect_retry(self.spec.addrs[site], Duration::from_secs(5))
                .expect("reconnect to restarted site"),
        );
        // The restarted node is a fresh worker: its program catalog is
        // gone even though its engine recovered from the WAL. Re-register
        // the cached bundle (live peers treat the identical sources as an
        // idempotent ack), then fold the general state so the newcomer's
        // treaty table rejoins the cluster's round lockstep before any
        // transaction reaches it.
        if let Some(bundle) = self.program_bundle.clone() {
            let count = self
                .client(site)
                .register_program(&bundle)
                .expect("re-register program over TCP");
            assert!(count > 0, "cached program bundle must re-register");
            self.client(site)
                .synchronize_all()
                .expect("post-restart general fold over TCP");
        }
    }
}

impl SiteRuntime for TcpCluster {
    fn sites(&self) -> usize {
        self.engines.len()
    }

    fn engine(&self, site: usize) -> &Engine {
        &self.engines[site]
    }

    fn submit(&mut self, site: usize, op: SiteOp) {
        self.client(site)
            .submit_batch(std::slice::from_ref(&op))
            .expect("submit over TCP");
    }

    fn poll(&mut self, site: usize) -> Vec<OpOutcome> {
        self.client(site).poll().expect("poll over TCP")
    }

    /// The batched path: one `Submit` frame over the socket, one
    /// poll round trip for the outcomes.
    fn submit_batch(&mut self, site: usize, ops: &[SiteOp]) -> Vec<OpOutcome> {
        if ops.is_empty() {
            return Vec::new();
        }
        let client = self.client(site);
        client.submit_batch(ops).expect("submit batch over TCP");
        client.poll().expect("poll over TCP")
    }

    fn synchronize(&mut self, site: usize) -> u64 {
        self.client(site)
            .synchronize_all()
            .expect("synchronize over TCP")
    }

    fn ensure_registered(&mut self, obj: &ObjId, initial: i64, lower_bound: i64) {
        if !self.is_registered(obj) {
            self.register(obj.clone(), initial, lower_bound);
        }
    }
}

impl Drop for TcpCluster {
    fn drop(&mut self) {
        // Close client connections first so no reader blocks on them, then
        // stop the nodes.
        self.clients.clear();
        for node in self.nodes.iter_mut().filter_map(Option::take) {
            drop(node); // Drop runs shutdown()
        }
    }
}

/// The report of one [`tcp_load`] run, including the self-verified
/// conservation check.
#[derive(Debug, Clone)]
pub struct TcpLoadReport {
    /// Sites under load.
    pub sites: usize,
    /// Concurrent client connections driven by the fan-out driver.
    pub clients: usize,
    /// Operations committed across all sites.
    pub committed: u64,
    /// Operations that required a synchronization round.
    pub synchronized: u64,
    /// Operations issued (`sites × ops_per_site`).
    pub issued: u64,
    /// Wall-clock duration of the load phase, in seconds.
    pub elapsed_secs: f64,
    /// Committed operations per wall-clock second.
    pub throughput: f64,
    /// Sum of every counter's base at load start — the seeded value on a
    /// fresh cluster, the drained value left by a previous load otherwise
    /// (seeding is skip-if-known).
    pub initial_total: i64,
    /// Sum of every counter's folded value after the final fold.
    pub final_total: i64,
    /// The conservation verdict: every operation committed, every site
    /// reports the same folded state, and
    /// `final_total == initial_total − committed`.
    pub conserved: bool,
    /// Protocol statistics aggregated over every site worker after the
    /// final fold (plus the driver's own seeding negotiations): the
    /// violation-vs-proactive negotiation split and the aggregate solver
    /// time behind the load's synchronization rounds.
    pub stats: ReplicatedStats,
    /// Offered open-loop rate in operations per second (`0.0` = the run
    /// was closed-loop).
    pub rate: f64,
    /// Client-observed request latency across every connection, in
    /// microseconds per pipelined batch: closed loop measures from the
    /// batch's send, open loop from its *scheduled* arrival (so queueing
    /// under overload is charged to the request — no coordinated
    /// omission).
    pub latency: Histogram,
    /// The same latency split per site (connection `i` drives site
    /// `i % sites`).
    pub site_latency: Vec<Histogram>,
}

/// Initial value each [`tcp_load`] counter is seeded with: small enough
/// that the load drains allowances and forces real synchronization rounds
/// over the sockets (once a counter's headroom is gone, every further
/// decrement serializes through its coordinator), large enough that the
/// early phase exercises the local fast path.
pub const LOAD_INITIAL: i64 = 100;

/// Knobs of the [`tcp_load_opts`] fan-out driver.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Operations issued per site (split across that site's connections).
    pub ops_per_site: usize,
    /// Distinct counters under load.
    pub items: usize,
    /// Workload seed (deterministic op streams per connection).
    pub seed: u64,
    /// Total concurrent connections, spread round-robin across sites.
    /// `0` means one per site (the classic `homeo-load` shape).
    pub clients: usize,
    /// Outstanding `Submit`+`PollRequest` pairs kept in flight per
    /// connection (the pipelining window).
    pub window: usize,
    /// Operations per `Submit` frame.
    pub batch: usize,
    /// Open-loop offered load in operations per second aggregate across
    /// all connections; `0.0` (the default) keeps the classic closed loop,
    /// where every connection just keeps its pipelining window full. Under
    /// open loop, batch arrivals follow a deterministic exponential
    /// (Poisson) schedule per connection — seeded from `seed`, so the same
    /// options replay the same arrival times — and latency is measured
    /// from each batch's scheduled arrival.
    pub rate: f64,
}

impl LoadOptions {
    /// The classic load shape: one connection per site, a window of
    /// [`LOAD_WINDOW`] pipelined batches of 64, closed loop.
    pub fn new(ops_per_site: usize, items: usize, seed: u64) -> LoadOptions {
        LoadOptions {
            ops_per_site,
            items,
            seed,
            clients: 0,
            window: LOAD_WINDOW,
            batch: 64,
            rate: 0.0,
        }
    }

    /// Switches the driver to open-loop arrivals at `rate` operations per
    /// second (aggregate across all connections).
    pub fn open_loop(mut self, rate: f64) -> LoadOptions {
        self.rate = rate;
        self
    }

    /// Mean seconds between batch arrivals on one of `fanout` connections
    /// under the open-loop rate; `0.0` when closed-loop.
    fn batch_gap_secs(&self, fanout: usize) -> f64 {
        if self.rate > 0.0 {
            self.batch.max(1) as f64 * fanout as f64 / self.rate
        } else {
            0.0
        }
    }
}

/// One exponential inter-arrival gap in seconds with the given mean, drawn
/// from the connection's deterministic stream.
fn exp_gap(rng: &mut DetRng, mean_secs: f64) -> f64 {
    -(1.0 - rng.unit()).ln() * mean_secs
}

/// Default pipelining window of the load driver: enough outstanding
/// batches to keep the site's socket fed while a reply is in flight,
/// small enough that outcome buffers stay tiny.
pub const LOAD_WINDOW: usize = 4;

/// Dial-wave width of the fan-out driver: how many nonblocking connects
/// are kept in flight at once (bounded well under the listen backlog so a
/// 10k-client ramp never overruns the accept queue).
const DIAL_WAVE: usize = 512;

/// The fan-out driver aborts when nothing happens for this long (a dead
/// site mid-load).
const LOAD_STALL_TIMEOUT: Duration = Duration::from_secs(30);

fn load_stock(i: usize) -> ObjId {
    ObjId::new(format!("stock[{i}]"))
}

/// One connection of the fan-out driver: a tiny nonblocking state machine
/// (dial → announce → pipelined submit/poll window → done).
struct LoadConn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    connected: bool,
    asm: FrameAssembler,
    out: WriteQueue,
    want_write: bool,
    rng: DetRng,
    /// Operations this connection must issue.
    quota: usize,
    issued: usize,
    /// Outstanding `PollRequest`s.
    polls_out: usize,
    /// Outcomes received back.
    received: usize,
    committed: u64,
    synchronized: u64,
    done: bool,
    retry_at: Option<Instant>,
    backoff: Duration,
    /// Reference instant of each outstanding poll, in send order: the
    /// batch's send under closed loop, its scheduled arrival under open
    /// loop. Popped as the matching `PollReply` drains.
    inflight: VecDeque<Instant>,
    /// Client-observed latency of this connection's batches, micros.
    hist: Histogram,
    /// Open loop only: offset (seconds from load start) at which the next
    /// batch is scheduled to arrive.
    next_arrival: f64,
}

/// The epoll fan-out driver of [`tcp_load_opts`]: one thread multiplexes
/// every load connection, dialing in waves and keeping `window` pipelined
/// `Submit`+`PollRequest` pairs in flight per connection. Connections stay
/// open until **every** connection finished, so a `--clients 10000` run
/// really holds 10k concurrent sockets against the fleet.
struct FanoutDriver {
    poller: Poller,
    conns: Vec<LoadConn>,
    items: usize,
    window: usize,
    batch: usize,
    chunk: Vec<u8>,
    scratch: Vec<u8>,
    ops: Vec<SiteOp>,
    done_count: usize,
    dialing: usize,
    next_dial: usize,
    last_progress: Instant,
    /// Mean seconds between batch arrivals per connection; `0.0` =
    /// closed loop.
    batch_gap_secs: f64,
    /// The load's epoch: open-loop schedules are offsets from here.
    started: Instant,
}

impl FanoutDriver {
    fn new(
        conns: Vec<LoadConn>,
        opts: &LoadOptions,
        started: Instant,
    ) -> std::io::Result<FanoutDriver> {
        let batch_gap_secs = opts.batch_gap_secs(conns.len());
        Ok(FanoutDriver {
            poller: Poller::new()?,
            conns,
            items: opts.items,
            window: opts.window.max(1),
            batch: opts.batch.max(1),
            chunk: vec![0u8; 64 * 1024],
            scratch: Vec::new(),
            ops: Vec::new(),
            done_count: 0,
            dialing: 0,
            next_dial: 0,
            last_progress: Instant::now(),
            batch_gap_secs,
            started,
        })
    }

    /// Runs every connection to completion; returns the connections with
    /// their per-connection tallies and latency histograms.
    fn run(mut self) -> std::io::Result<Vec<LoadConn>> {
        let total = self.conns.len();
        let mut events = Events::with_capacity(1024);
        while self.done_count < total {
            // Keep the dial wave topped up.
            while self.dialing < DIAL_WAVE && self.next_dial < total {
                let i = self.next_dial;
                self.next_dial += 1;
                self.dial(i);
            }
            let now = Instant::now();
            for i in 0..total {
                if self.conns[i].retry_at.is_some_and(|at| at <= now) {
                    self.conns[i].retry_at = None;
                    if self.conns[i].stream.is_none() && !self.conns[i].done {
                        self.dial(i);
                    }
                }
            }
            let mut timeout = self
                .conns
                .iter()
                .filter_map(|c| c.retry_at)
                .min()
                .map(|at| at.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(100))
                .min(Duration::from_millis(100));
            if self.batch_gap_secs > 0.0 {
                // Open loop: also wake at the earliest scheduled batch
                // arrival a connection could release.
                let next_due = self
                    .conns
                    .iter()
                    .filter(|c| {
                        c.connected && !c.done && c.issued < c.quota && c.polls_out < self.window
                    })
                    .map(|c| self.started + Duration::from_secs_f64(c.next_arrival))
                    .min();
                if let Some(due) = next_due {
                    timeout = timeout.min(due.saturating_duration_since(Instant::now()));
                }
            }
            self.poller.wait(&mut events, Some(timeout))?;
            if events.is_empty() && self.last_progress.elapsed() > LOAD_STALL_TIMEOUT {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "load stalled: no site activity for 30s",
                ));
            }
            for event in events.iter() {
                let i = event.token as usize;
                if event.writable {
                    self.on_writable(i)?;
                }
                if event.readable {
                    self.on_readable(i)?;
                }
            }
            if self.batch_gap_secs > 0.0 {
                // Open loop: release every batch whose scheduled arrival
                // has passed, independent of socket events.
                for i in 0..total {
                    if self.conns[i].connected && !self.conns[i].done {
                        let before = self.conns[i].polls_out;
                        self.fill_window(i);
                        if self.conns[i].polls_out > before {
                            self.last_progress = Instant::now();
                            self.flush(i)?;
                        }
                    }
                }
            }
        }
        Ok(self.conns)
    }

    fn dial(&mut self, i: usize) {
        debug_assert!(self.conns[i].stream.is_none());
        match epoll::connect_nonblocking(self.conns[i].addr) {
            Ok(stream) => {
                if self.poller.add(&stream, i as u64, false, true).is_ok() {
                    self.conns[i].stream = Some(stream);
                    self.conns[i].want_write = true;
                    self.dialing += 1;
                    return;
                }
                self.schedule_redial(i);
            }
            Err(_) => self.schedule_redial(i),
        }
    }

    fn schedule_redial(&mut self, i: usize) {
        let conn = &mut self.conns[i];
        conn.retry_at = Some(Instant::now() + conn.backoff);
        conn.backoff = (conn.backoff * 2).min(BACKOFF_MAX);
    }

    fn on_writable(&mut self, i: usize) -> std::io::Result<()> {
        if self.conns[i].stream.is_none() {
            return Ok(());
        }
        if !self.conns[i].connected {
            let healthy = {
                let stream = self.conns[i].stream.as_ref().expect("checked");
                matches!(stream.take_error(), Ok(None))
            };
            self.dialing -= 1;
            if !healthy {
                // The connect failed (e.g. a site still binding): back off
                // and redial. Re-dial slots count against the wave again.
                let stream = self.conns[i].stream.take().expect("checked");
                let _ = self.poller.remove(&stream);
                self.schedule_redial(i);
                return Ok(());
            }
            self.last_progress = Instant::now();
            let conn = &mut self.conns[i];
            conn.connected = true;
            conn.backoff = BACKOFF_MIN;
            let _ = conn.stream.as_ref().expect("checked").set_nodelay(true);
            let hello = Message::Hello {
                peer: CLIENT_PEER,
                epoch: 0,
            }
            .encode_into(&mut self.scratch);
            conn.out.push(hello);
            self.fill_window(i);
            if self.conns[i].quota == 0 {
                // Nothing to issue: this connection only contributes to the
                // concurrent-connection count. It stays open (and
                // registered for EOF detection) until the whole load
                // finishes.
                self.conns[i].done = true;
                self.done_count += 1;
            }
            self.flush(i)?;
            return Ok(());
        }
        self.flush(i)
    }

    fn on_readable(&mut self, i: usize) -> std::io::Result<()> {
        if self.conns[i].stream.is_none() || !self.conns[i].connected {
            return Ok(());
        }
        loop {
            let read = {
                let conn = &mut self.conns[i];
                conn.stream.as_mut().expect("checked").read(&mut self.chunk)
            };
            match read {
                Ok(0) => {
                    if self.conns[i].done {
                        // The site dropped an idle finished connection
                        // (e.g. it was restarted after our quota drained).
                        let stream = self.conns[i].stream.take().expect("checked");
                        let _ = self.poller.remove(&stream);
                        return Ok(());
                    }
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "site closed a load connection mid-run",
                    ));
                }
                Ok(n) => {
                    self.last_progress = Instant::now();
                    let short = n < self.chunk.len();
                    self.conns[i].asm.push(&self.chunk[..n]);
                    self.drain_replies(i)?;
                    if short {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn drain_replies(&mut self, i: usize) -> std::io::Result<()> {
        loop {
            let next = self.conns[i]
                .asm
                .next_message()
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
            let Some(msg) = next else { return Ok(()) };
            let Message::PollReply { outcomes } = msg else {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("unexpected frame on a load connection: {msg:?}"),
                ));
            };
            let conn = &mut self.conns[i];
            conn.polls_out -= 1;
            if let Some(at) = conn.inflight.pop_front() {
                conn.hist.record(at.elapsed().as_micros() as u64);
            }
            conn.received += outcomes.len();
            for outcome in &outcomes {
                if outcome.committed {
                    conn.committed += 1;
                }
                if outcome.synchronized {
                    conn.synchronized += 1;
                }
            }
            self.fill_window(i);
            self.flush(i)?;
            let conn = &self.conns[i];
            if !conn.done && conn.issued == conn.quota && conn.polls_out == 0 {
                debug_assert_eq!(conn.received, conn.quota, "pipelined outcomes must balance");
                self.conns[i].done = true;
                self.done_count += 1;
            }
        }
    }

    /// Tops the pipelining window up: pairs of one `Submit` batch and one
    /// `PollRequest`, until `window` polls are outstanding or the quota is
    /// issued.
    fn fill_window(&mut self, i: usize) {
        let items = self.items;
        let batch = self.batch;
        loop {
            let conn = &mut self.conns[i];
            if conn.issued >= conn.quota || conn.polls_out >= self.window {
                return;
            }
            // Open-loop pacing: a batch is released only once its
            // scheduled arrival has passed, and its latency reference is
            // that schedule (not the actual send), so time spent waiting
            // for a window slot under overload is charged to the request.
            let reference = if self.batch_gap_secs > 0.0 {
                let due = self.started + Duration::from_secs_f64(conn.next_arrival);
                if Instant::now() < due {
                    return;
                }
                conn.next_arrival += exp_gap(&mut conn.rng, self.batch_gap_secs);
                due
            } else {
                Instant::now()
            };
            let n = batch.min(conn.quota - conn.issued);
            self.ops.clear();
            self.ops.extend((0..n).map(|_| SiteOp::Order {
                obj: load_stock(conn.rng.index(items)),
                amount: 1,
                refill_to: None,
            }));
            let submit = Message::encode_submit_into(&self.ops, &mut self.scratch);
            let conn = &mut self.conns[i];
            conn.out.push(submit);
            let poll = Message::PollRequest.encode_into(&mut self.scratch);
            let conn = &mut self.conns[i];
            conn.out.push(poll);
            conn.issued += n;
            conn.polls_out += 1;
            conn.inflight.push_back(reference);
        }
    }

    /// Flushes a connection's queue and keeps its write interest in sync.
    fn flush(&mut self, i: usize) -> std::io::Result<()> {
        let conn = &mut self.conns[i];
        let Some(stream) = conn.stream.as_mut() else {
            return Ok(());
        };
        let drained = conn.out.flush(stream)?;
        let want = !drained;
        if want != conn.want_write {
            conn.want_write = want;
            let _ = self.poller.modify(stream, i as u64, true, want);
        } else if drained && conn.out.is_empty() && conn.want_write {
            // Unreachable by construction; keep interest consistent anyway.
            conn.want_write = false;
            let _ = self.poller.modify(stream, i as u64, true, false);
        }
        Ok(())
    }
}

/// [`tcp_load_opts`] with the classic shape: one connection per site,
/// batches of 64, a window of [`LOAD_WINDOW`].
pub fn tcp_load(
    spec: &ClusterSpec,
    ops_per_site: usize,
    items: usize,
    seed: u64,
) -> std::io::Result<TcpLoadReport> {
    tcp_load_opts(spec, &LoadOptions::new(ops_per_site, items, seed))
}

/// The `homeo-load` client: seeds every counter on every site, then drives
/// pipelined unit-order batches over `opts.clients` concurrent connections
/// (round-robin across sites, window of `opts.window` outstanding
/// `Submit`+poll pairs each), then folds every counter and self-verifies
/// conservation — the orders carry no refill semantics, so the folded
/// total must equal the seeded total minus the committed decrements, and
/// every site must report the same folded state.
///
/// Connections retry with backoff for up to ten seconds, so the client can
/// start while `homeostasisd` sites are still binding their sockets.
pub fn tcp_load_opts(spec: &ClusterSpec, opts: &LoadOptions) -> std::io::Result<TcpLoadReport> {
    assert!(spec.sites() > 0 && opts.items > 0);
    let sites = spec.sites();
    let items = opts.items;
    let fanout = if opts.clients == 0 {
        sites
    } else {
        opts.clients.max(sites)
    };
    // High fan-out needs file descriptors; best-effort raise, the dial
    // loop surfaces a hard failure anyway.
    let _ = epoll::raise_nofile_limit();
    let mut clients: Vec<TcpClient> = spec
        .addrs
        .iter()
        .map(|addr| TcpClient::connect_retry(*addr, Duration::from_secs(10)))
        .collect::<std::io::Result<_>>()?;
    // Seed every counter on every site and collect every ack before any
    // operation is issued: the acks order the registration before the load.
    let hints = WorkloadHints::uniform(sites);
    let mut seed_cache = NegotiationCache::new();
    let mut stats = ReplicatedStats::default();
    for item in 0..items {
        let (allowances, solver_micros) = negotiate_allowances_cached(
            spec.mode,
            &hints,
            sites,
            LOAD_INITIAL,
            0,
            Timer::Wall,
            &mut seed_cache,
            None,
        );
        stats.negotiations += 1;
        stats.solver_micros_total += solver_micros;
        let meta = CounterMeta {
            obj: load_stock(item),
            base: LOAD_INITIAL,
            lower_bound: 0,
            members: (0..sites).collect(),
            allowances,
        };
        for client in &mut clients {
            client.seed(meta.clone())?;
        }
    }
    // The conservation baseline is the *acked* state, not the seed values:
    // seeding is skip-if-known, so against a cluster that already served a
    // load the counters keep their drained bases — a re-run must measure
    // conservation from those, or it would report a spurious violation.
    // Fold first so leftover deltas from an interrupted earlier run are in
    // the bases.
    clients[0].synchronize_all()?;
    let seeded = clients[0].state()?;
    let mut initial_total = 0i64;
    for item in 0..items {
        let obj = load_stock(item);
        let base = seeded
            .iter()
            .find(|meta| meta.obj == obj)
            .map(|meta| meta.base)
            .ok_or_else(|| {
                std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("site 0 does not know `{obj}` after seeding"),
                )
            })?;
        initial_total += base;
    }
    // Split each site's quota over its connections (connection `i` targets
    // site `i % sites`).
    let mut per_site = vec![0usize; sites];
    for i in 0..fanout {
        per_site[i % sites] += 1;
    }
    let mut seen = vec![0usize; sites];
    let batch_gap_secs = opts.batch_gap_secs(fanout);
    let conns: Vec<LoadConn> = (0..fanout)
        .map(|i| {
            let site = i % sites;
            let pos = seen[site];
            seen[site] += 1;
            let share = opts.ops_per_site / per_site[site]
                + usize::from(pos < opts.ops_per_site % per_site[site]);
            let mut rng = DetRng::seed_from(opts.seed ^ (i as u64).wrapping_mul(0x9E37));
            // Under open loop every connection's first arrival is already
            // exponential, so the fleet does not fire in lockstep at t=0.
            let next_arrival = if batch_gap_secs > 0.0 {
                exp_gap(&mut rng, batch_gap_secs)
            } else {
                0.0
            };
            LoadConn {
                addr: spec.addrs[site],
                stream: None,
                connected: false,
                asm: FrameAssembler::new(),
                out: WriteQueue::new(),
                want_write: false,
                rng,
                quota: share,
                issued: 0,
                polls_out: 0,
                received: 0,
                committed: 0,
                synchronized: 0,
                done: false,
                retry_at: None,
                backoff: BACKOFF_MIN,
                inflight: VecDeque::new(),
                hist: Histogram::new(),
                next_arrival,
            }
        })
        .collect();
    let started = Instant::now();
    let conns = FanoutDriver::new(conns, opts, started)?.run()?;
    let elapsed_secs = started.elapsed().as_secs_f64();
    let (committed, synchronized) = conns.iter().fold((0, 0), |(c, s), conn| {
        (c + conn.committed, s + conn.synchronized)
    });
    let mut latency = Histogram::new();
    let mut site_latency = vec![Histogram::new(); sites];
    for (i, conn) in conns.iter().enumerate() {
        latency.merge(&conn.hist);
        site_latency[i % sites].merge(&conn.hist);
    }
    // Fold everything, then read every site's folded state and verify
    // conservation: agreement across sites, and the folded total equal to
    // the seeded total minus the committed decrements.
    clients[0].synchronize_all()?;
    let reference = clients[0].state()?;
    let final_total: i64 = reference.iter().map(|meta| meta.base).sum();
    let mut consistent = reference.len() == items;
    for client in clients.iter_mut().skip(1) {
        let state = client.state()?;
        consistent &= state.len() == reference.len()
            && state
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.obj == b.obj && a.base == b.base);
    }
    let issued = (sites * opts.ops_per_site) as u64;
    let conserved =
        consistent && committed == issued && final_total == initial_total - committed as i64;
    // Collect the per-site protocol statistics for the load summary: the
    // negotiation split (violation-triggered vs proactive) and the
    // aggregate solver time behind the synchronization rounds just driven.
    for client in clients.iter_mut() {
        let site_stats = client.stats()?;
        stats.local_commits += site_stats.local_commits;
        stats.synchronizations += site_stats.synchronizations;
        stats.negotiations += site_stats.negotiations;
        stats.proactive_negotiations += site_stats.proactive_negotiations;
        stats.solver_micros_total += site_stats.solver_micros_total;
    }
    Ok(TcpLoadReport {
        sites,
        clients: fanout,
        committed,
        synchronized,
        issued,
        elapsed_secs,
        throughput: committed as f64 / elapsed_secs.max(f64::MIN_POSITIVE),
        initial_total,
        final_total,
        conserved,
        stats,
        rate: opts.rate,
        latency,
        site_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeo_protocol::ReplicatedMode;

    fn stock(i: usize) -> ObjId {
        ObjId::new(format!("stock[{i}]"))
    }

    fn cluster(sites: usize) -> TcpCluster {
        TcpCluster::new(
            sites,
            ClusterConfig::new(ReplicatedMode::EvenSplit).with_timer(Timer::fixed_zero()),
        )
    }

    #[test]
    fn orders_cross_real_sockets_and_reach_the_engines() {
        let mut cluster = cluster(2);
        cluster.register(stock(0), 101, 1);
        for i in 0..10 {
            let out = cluster.execute(
                i % 2,
                SiteOp::Order {
                    obj: stock(0),
                    amount: 1,
                    refill_to: Some(100),
                },
            );
            assert!(out.committed);
        }
        let total: i64 = (0..2)
            .map(|s| cluster.engine(s).peek(stock(0).as_str()))
            .sum();
        assert_eq!(total, 2 * 101 - 10);
        assert!(cluster.engine(0).wal_len() > 0);
        assert_eq!(cluster.stats().local_commits, 10);
    }

    #[test]
    fn violations_synchronize_over_tcp_and_match_the_serial_oracle() {
        let mut cluster = cluster(2);
        cluster.register(stock(0), 20, 1);
        let refill = 35;
        let mut rng = DetRng::seed_from(99);
        let mut serial = 20i64;
        let mut synced = 0;
        for _ in 0..200 {
            let site = rng.index(2);
            let out = cluster.execute(
                site,
                SiteOp::Order {
                    obj: stock(0),
                    amount: 1,
                    refill_to: Some(refill - 1),
                },
            );
            assert!(out.committed);
            if out.synchronized {
                synced += 1;
                assert_eq!(out.comm_rounds, 2);
            }
            serial = if serial > 1 { serial - 1 } else { refill - 1 };
        }
        assert!(synced > 0, "draining 200 over 19 headroom must synchronize");
        assert!(cluster.stats().synchronizations >= synced);
        cluster.synchronize(0);
        assert_eq!(cluster.value_at(0, &stock(0)), serial);
        assert_eq!(cluster.value_at(1, &stock(0)), serial);
    }

    #[test]
    fn a_joined_site_serves_orders_over_real_sockets() {
        // Grow 2 → 3 mid-flight: the joiner dials the leader, adopts the
        // treaty book from the JoinAck, and every registered counter is
        // handed off to the three-member set — after which the new site
        // commits orders like a founder.
        let mut cluster = cluster(2);
        cluster.register(stock(0), 60, 0);
        let site = cluster.join();
        assert_eq!(site, 2);
        assert_eq!(cluster.roster().members, vec![0, 1, 2]);
        assert_eq!(cluster.roster().epoch, 1);
        for i in 0..12 {
            let out = cluster.execute(
                i % 3,
                SiteOp::Order {
                    obj: stock(0),
                    amount: 1,
                    refill_to: None,
                },
            );
            assert!(out.committed, "order {i} must commit");
        }
        cluster.synchronize(2);
        for member in [0usize, 1, 2] {
            assert_eq!(cluster.value_at(member, &stock(0)), 48);
        }
    }

    #[test]
    fn a_retired_site_folds_out_over_real_sockets() {
        // Shrink 3 → 2: the leaver's unsynchronized deltas fold into the
        // handoff base (nothing is lost), the survivors re-split the
        // allowance, and the retired node keeps serving its socket —
        // completing orders as uncommitted no-ops.
        let mut cluster = cluster(3);
        cluster.register(stock(0), 90, 0);
        for site in 0..3 {
            let out = cluster.execute(
                site,
                SiteOp::Order {
                    obj: stock(0),
                    amount: 2,
                    refill_to: None,
                },
            );
            assert!(out.committed);
        }
        cluster.leave(1);
        assert_eq!(cluster.roster().members, vec![0, 2]);
        let out = cluster.execute(
            0,
            SiteOp::Order {
                obj: stock(0),
                amount: 1,
                refill_to: None,
            },
        );
        assert!(out.committed, "survivors keep committing after the leave");
        let noop = cluster.execute(
            1,
            SiteOp::Order {
                obj: stock(0),
                amount: 1,
                refill_to: None,
            },
        );
        assert!(!noop.committed, "a retired site must not commit orders");
        cluster.synchronize(0);
        for member in [0usize, 2] {
            assert_eq!(cluster.value_at(member, &stock(0)), 90 - 6 - 1);
        }
    }

    #[test]
    fn join_then_leave_returns_to_the_original_treaty_shape() {
        let mut cluster = cluster(2);
        cluster.register(stock(0), 500, 0);
        let joined = cluster.join();
        cluster.leave(joined);
        assert_eq!(cluster.roster().members, vec![0, 1]);
        assert_eq!(cluster.roster().epoch, 2);
        for i in 0..20 {
            let out = cluster.execute(
                i % 2,
                SiteOp::Order {
                    obj: stock(0),
                    amount: 1,
                    refill_to: None,
                },
            );
            assert!(out.committed, "order {i} after the round trip");
        }
        cluster.synchronize(0);
        assert_eq!(cluster.value_at(0, &stock(0)), 480);
    }

    #[test]
    fn batched_submits_travel_as_one_frame_and_poll_in_order() {
        let mut cluster = cluster(3);
        cluster.register(stock(0), 100, 1);
        cluster.register(stock(1), 100, 1);
        let ops: Vec<SiteOp> = [0usize, 1, 0, 1]
            .iter()
            .map(|item| SiteOp::Order {
                obj: stock(*item),
                amount: 1,
                refill_to: Some(99),
            })
            .collect();
        let outcomes = cluster.submit_batch(1, &ops);
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|o| o.committed));
        assert!(cluster.poll(1).is_empty());
    }

    #[test]
    fn pipelined_polls_correlate_per_connection() {
        // A window of Submit+PollRequest pairs in flight on one
        // connection: each reply drains exactly the outcomes of the batch
        // that preceded its poll, in order. A second connection polling
        // concurrently gets only its own outcomes (per-connection
        // watermarks, not the old global first-poller-takes-all).
        let mut cluster = cluster(2);
        cluster.register(stock(0), 10_000, 1);
        let addr = cluster.addrs()[0];
        let mut a = TcpClient::connect(addr).expect("connect a");
        let mut b = TcpClient::connect(addr).expect("connect b");
        let order = |n: usize| -> Vec<SiteOp> {
            (0..n)
                .map(|_| SiteOp::Order {
                    obj: stock(0),
                    amount: 1,
                    refill_to: None,
                })
                .collect()
        };
        // Three pipelined pairs on `a`, sizes 2, 3, 4 — no reads between.
        for n in [2usize, 3, 4] {
            a.submit_batch(&order(n)).expect("submit");
            a.send_poll().expect("poll");
        }
        // `b` interleaves its own traffic while `a`'s window is in flight.
        b.submit_batch(&order(5)).expect("submit");
        let b_out = b.poll().expect("b poll");
        assert_eq!(b_out.len(), 5);
        for expect in [2usize, 3, 4] {
            let out = a.recv_poll_reply().expect("reply");
            assert_eq!(out.len(), expect);
            assert!(out.iter().all(|o| o.committed));
        }
    }

    #[test]
    fn tcp_load_conserves_counters_in_process() {
        let mut nodes_cluster = cluster(2);
        let spec = ClusterSpec {
            addrs: nodes_cluster.addrs().to_vec(),
            mode: ReplicatedMode::EvenSplit,
            join: None,
            epoch: None,
        };
        let report = tcp_load(&spec, 400, 8, 7).expect("load run");
        assert_eq!(report.committed, 800);
        assert!(report.conserved, "conservation failed: {report:?}");
        assert!(report.synchronized > 0, "load must force sync rounds");
        // A second run against the same (drained) cluster still conserves:
        // the baseline is the acked post-seed state, not the seed values.
        let again = tcp_load(&spec, 100, 8, 8).expect("re-run");
        assert!(again.conserved, "re-run conservation failed: {again:?}");
        assert_eq!(again.initial_total, report.final_total);
        // The cluster object is still usable afterwards.
        nodes_cluster.register(stock(100), 50, 1);
        drop(nodes_cluster);
    }

    #[test]
    fn a_fanout_load_conserves_with_many_clients_per_site() {
        // The high-fanout path: 24 concurrent connections over 2 sites,
        // deep pipeline, small batches — uneven quota splits included
        // (400 ops over 12 connections per site).
        let nodes_cluster = cluster(2);
        let spec = ClusterSpec {
            addrs: nodes_cluster.addrs().to_vec(),
            mode: ReplicatedMode::EvenSplit,
            join: None,
            epoch: None,
        };
        let report = tcp_load_opts(
            &spec,
            &LoadOptions {
                clients: 24,
                window: 8,
                batch: 16,
                ..LoadOptions::new(400, 8, 21)
            },
        )
        .expect("fanout load");
        assert_eq!(report.clients, 24);
        assert_eq!(report.committed, 800);
        assert!(report.conserved, "conservation failed: {report:?}");
        drop(nodes_cluster);
    }

    #[test]
    fn an_open_loop_load_paces_arrivals_and_records_latency() {
        let nodes_cluster = cluster(2);
        let spec = ClusterSpec {
            addrs: nodes_cluster.addrs().to_vec(),
            mode: ReplicatedMode::EvenSplit,
            join: None,
            epoch: None,
        };
        // 600 ops offered at 20k ops/s: ~30ms of paced Poisson arrivals.
        let report = tcp_load_opts(&spec, &LoadOptions::new(300, 8, 5).open_loop(20_000.0))
            .expect("open-loop load");
        assert_eq!(report.committed, 600);
        assert!(report.conserved, "conservation failed: {report:?}");
        assert_eq!(report.rate, 20_000.0);
        assert!(
            report.latency.count() > 0,
            "open-loop batches must record latency"
        );
        assert!(report.latency.quantile(0.99) >= report.latency.quantile(0.50));
        let per_site: u64 = report.site_latency.iter().map(|h| h.count()).sum();
        assert_eq!(per_site, report.latency.count());
        // The sites served the load, so a metrics scrape must show the
        // reactor and worker instrumentation alive and non-zero.
        for text in nodes_cluster.metrics() {
            let text = text.expect("every site is up");
            assert!(text.contains("homeo_reactor_frames_in_total"));
            assert!(text.contains("homeo_submit_batch_ops_count"));
            assert!(text.contains("homeo_local_commits_total"));
        }
        drop(nodes_cluster);
    }

    #[test]
    fn a_garbage_connection_is_dropped_without_disturbing_the_site() {
        let mut cluster = cluster(2);
        cluster.register(stock(0), 100, 1);
        // A connection that opens with an oversized length prefix is closed
        // by the reactor without taking the site down.
        let mut rogue = TcpStream::connect(cluster.addrs()[0]).expect("connect");
        rogue.write_all(&[0xFF; 64]).expect("write garbage");
        let mut buf = [0u8; 8];
        // The site closes the connection: read returns EOF (or a reset).
        rogue
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        match rogue.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("site answered {n} bytes to a garbage connection"),
        }
        drop(rogue);
        // And a client that identifies correctly but then speaks the
        // site-to-site protocol is dropped by the reactor.
        let mut rogue = TcpClient::connect(cluster.addrs()[0]).expect("connect");
        rogue
            .send(&Message::DeltaReply {
                sync: 0,
                obj: stock(0),
                delta: -1_000_000,
            })
            .expect("send");
        match rogue.recv() {
            Err(_) => {}
            Ok(msg) => panic!("site answered {msg:?} to a protocol violation"),
        }
        // Well-formed but hostile submits — unknown counters, negative
        // amounts — complete as uncommitted no-ops in submission order
        // instead of panicking the site's event loop.
        let mut rogue = TcpClient::connect(cluster.addrs()[0]).expect("connect");
        rogue
            .submit_batch(&[
                SiteOp::Order {
                    obj: ObjId::new("no-such-counter"),
                    amount: 1,
                    refill_to: None,
                },
                SiteOp::Order {
                    obj: stock(0),
                    amount: -5,
                    refill_to: None,
                },
                SiteOp::Increment {
                    obj: ObjId::new("also-unknown"),
                    amount: 1,
                },
            ])
            .expect("submit hostile batch");
        let outcomes = rogue.poll().expect("site must stay up");
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.iter().all(|o| !o.committed));
        // A batch carrying a general transaction against a site with no
        // registered programs completes as a typed unsupported outcome —
        // the confused client is told, not disconnected.
        rogue
            .submit_batch(&[SiteOp::Transaction { index: 0 }])
            .expect("send");
        let outcomes = rogue.poll().expect("site must stay up");
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].unsupported && !outcomes[0].committed);
        // The site still serves real traffic.
        let out = cluster.execute(
            0,
            SiteOp::Order {
                obj: stock(0),
                amount: 1,
                refill_to: Some(99),
            },
        );
        assert!(out.committed);
        assert_eq!(cluster.value_at(0, &stock(0)), 99);
    }

    #[test]
    fn a_client_that_stops_draining_is_disconnected_at_the_byte_cap() {
        // The reactor's backpressure bound: a client that keeps asking for
        // replies but never reads its socket is cut off once its write
        // queue exceeds `client_queue_cap` bytes — instead of the old
        // 10-second write-timeout stall.
        let addrs = free_loopback_addrs(1).expect("addr");
        let mut node = SiteNode::bind(NodeOptions {
            site: 0,
            addrs: addrs.clone(),
            config: ClusterConfig::new(ReplicatedMode::EvenSplit).with_timer(Timer::fixed_zero()),
            engine: Arc::new(Engine::new()),
            recover_from: None,
            client_queue_cap: 64 * 1024,
            join: None,
        })
        .expect("bind");
        let mut hog = TcpClient::connect_retry(addrs[0], Duration::from_secs(5)).expect("connect");
        // Big uncommitted batches + polls, never reading: replies pile up
        // in the kernel buffers first, then in the site's write queue.
        let ops: Vec<SiteOp> = (0..512)
            .map(|_| SiteOp::Increment {
                obj: ObjId::new("unknown"),
                amount: 1,
            })
            .collect();
        let mut disconnected = false;
        for _ in 0..4_000 {
            if hog.submit_batch(&ops).is_err() || hog.send_poll().is_err() {
                disconnected = true;
                break;
            }
        }
        // The submits can all get in before the worker has produced enough
        // replies to overflow the cap. Keep not reading: every poll asks for
        // one more reply the site has to queue, so the cut must come, and
        // the write after it fails.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !disconnected && Instant::now() < deadline {
            disconnected = hog.send_poll().is_err();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            disconnected,
            "site never disconnected the non-draining client"
        );
        // The site survived and still serves a well-behaved client.
        let mut ok = TcpClient::connect_retry(addrs[0], Duration::from_secs(5)).expect("connect");
        ok.submit_batch(&[SiteOp::Increment {
            obj: ObjId::new("unknown"),
            amount: 1,
        }])
        .expect("submit");
        assert_eq!(ok.poll().expect("poll").len(), 1);
        node.shutdown();
    }
}
