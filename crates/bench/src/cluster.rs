//! Cluster fault scenarios: the new-scenario surface of the `reproduce`
//! binary, beyond the paper's figures.
//!
//! Each scenario drives a seeded [`SimCluster`] through a fault schedule
//! and **verifies** the paper's claims as it goes — sites keep committing
//! locally while treaties hold, synchronizations stall across partitions
//! and complete after heal, a crashed site replays its WAL and rejoins —
//! panicking on any violation, so a regression turns into `reproduce`'s
//! non-zero exit code. The returned [`Figure`] reports what happened per
//! phase; with a fixed seed it is byte-for-byte reproducible.

use homeo_cluster::{
    free_loopback_addrs, spawn_cluster, tcp_load, ClientApi, ClusterConfig, ClusterSpec,
    DaemonFleet, SimCluster, SimNetConfig, TcpCluster,
};
use homeo_lang::ids::ObjId;
use homeo_protocol::{OptimizerConfig, ReplicatedMode, WorkloadHints};
use homeo_runtime::{SiteOp, SiteRuntime};
use homeo_sim::{DetRng, RttMatrix, Timer};

use crate::report::Figure;

/// The cluster scenario ids, in presentation order.
pub fn all_scenario_ids() -> Vec<&'static str> {
    vec![
        "cluster-partition",
        "cluster-crash",
        "cluster-skew",
        "cluster-tcp",
        "scenario-join-leave",
    ]
}

/// Generates one cluster scenario by id.
///
/// # Panics
/// Panics on an unknown id (see [`all_scenario_ids`]) and on any violation
/// of the scenario's convergence/consistency checks.
pub fn scenario(id: &str) -> Figure {
    match id {
        "cluster-partition" => partition_then_heal(),
        "cluster-crash" => kill_then_recover(),
        "cluster-skew" => skewed_allowances(),
        "cluster-tcp" => tcp_loopback_smoke(),
        "scenario-join-leave" => join_leave_under_load(),
        other => panic!("unknown scenario id `{other}`"),
    }
}

const SITES: usize = 3;
const ITEMS: usize = 8;
const INITIAL: i64 = 40;
const REFILL: i64 = 40;

fn stock(i: usize) -> ObjId {
    ObjId::new(format!("stock[{i}]"))
}

fn homeo_mode() -> ReplicatedMode {
    ReplicatedMode::Homeostasis {
        optimizer: Some(OptimizerConfig {
            lookahead: 10,
            futures: 2,
            seed: 21,
        }),
    }
}

fn build(seed: u64, hints: Option<WorkloadHints>) -> SimCluster {
    let mut config = ClusterConfig::new(homeo_mode()).with_timer(Timer::fixed_zero());
    if let Some(hints) = hints {
        config = config.with_hints(hints);
    }
    let net = SimNetConfig {
        rtt: RttMatrix::table1().truncated(SITES),
        jitter_us: 5_000,
        drop_chance: 0.02,
        reorder_chance: 0.05,
        seed,
    };
    let mut cluster = SimCluster::new(SITES, config, net);
    for i in 0..ITEMS {
        cluster.register(stock(i), INITIAL, 1);
    }
    cluster
}

/// Issues `ops` seeded unit increments from the given sites — the
/// Payment-style operations that never threaten a `≥`-treaty, so they
/// commit locally even across a partition or with a peer down. Returns the
/// committed count (every one must commit without synchronizing).
fn run_increment_phase(
    cluster: &mut SimCluster,
    rng: &mut DetRng,
    sites: &[usize],
    ops: usize,
) -> u64 {
    let mut committed = 0;
    for _ in 0..ops {
        let site = sites[rng.index(sites.len())];
        let out = cluster.execute(
            site,
            SiteOp::Increment {
                obj: stock(rng.index(ITEMS)),
                amount: 1,
            },
        );
        assert!(
            out.committed && !out.synchronized,
            "increments must commit locally under any fault"
        );
        committed += 1;
    }
    committed
}

/// Issues `ops` seeded unit orders from the given sites, polling each op to
/// completion. Returns `(committed, synchronized)`.
fn run_phase(
    cluster: &mut SimCluster,
    rng: &mut DetRng,
    sites: &[usize],
    ops: usize,
) -> (u64, u64) {
    let mut committed = 0;
    let mut synchronized = 0;
    for _ in 0..ops {
        let site = sites[rng.index(sites.len())];
        let out = cluster.execute(
            site,
            SiteOp::Order {
                obj: stock(rng.index(ITEMS)),
                amount: 1,
                refill_to: Some(REFILL - 1),
            },
        );
        assert!(out.committed, "a polled order must commit");
        committed += 1;
        if out.synchronized {
            synchronized += 1;
        }
    }
    (committed, synchronized)
}

/// Folds everything and checks that every site observes the same value for
/// every counter. Returns the summed logical value.
fn assert_converged(cluster: &mut SimCluster) -> i64 {
    cluster.synchronize(0);
    let mut total = 0;
    for i in 0..ITEMS {
        let expected = cluster.value_at(0, &stock(i));
        for site in 1..SITES {
            assert_eq!(
                cluster.value_at(site, &stock(i)),
                expected,
                "stock[{i}] diverged at site {site} after the fold"
            );
        }
        assert_eq!(cluster.logical_value(&stock(i)), expected);
        total += expected;
    }
    total
}

/// `cluster-partition`: cut site 0 off, keep committing on both sides of
/// the partition (the paper's claim: no coordination while treaties hold),
/// heal, and verify convergence.
fn partition_then_heal() -> Figure {
    let mut fig = Figure::new(
        "cluster-partition",
        "Partition-then-heal over the Table 1 network (3 sites, seeded faults): \
         local commits continue through the cut; the fold after heal converges",
        vec![
            "phase".into(),
            "committed".into(),
            "synchronized".into(),
            "total_after_fold".into(),
        ],
    );
    let mut cluster = build(0xA11CE, None);
    let mut rng = DetRng::seed_from(0xA11CE);
    let (c1, s1) = run_phase(&mut cluster, &mut rng, &[0, 1, 2], 400);
    assert!(s1 > 0, "draining the headroom must synchronize");
    let t1 = assert_converged(&mut cluster);
    fig.push_row("connected", vec![c1 as f64, s1 as f64, t1 as f64]);

    cluster.partition(0, 1);
    cluster.partition(0, 2);
    // Both sides keep serving through the cut: Payment-style increments are
    // treaty-covered on any state, so no round ever needs the dead link.
    let c2a = run_increment_phase(&mut cluster, &mut rng, &[0], 40);
    let c2b = run_increment_phase(&mut cluster, &mut rng, &[1, 2], 80);
    fig.push_row("partitioned", vec![(c2a + c2b) as f64, 0.0, 0.0]);

    cluster.heal_all();
    let (c3, s3) = run_phase(&mut cluster, &mut rng, &[0, 1, 2], 200);
    let t3 = assert_converged(&mut cluster);
    fig.push_row("healed", vec![c3 as f64, s3 as f64, t3 as f64]);
    fig
}

/// `cluster-crash`: kill a site mid-run, keep the survivors serving,
/// restart it from its WAL and verify it rejoins with nothing lost.
fn kill_then_recover() -> Figure {
    let mut fig = Figure::new(
        "cluster-crash",
        "Kill-then-recover over the Table 1 network (3 sites, seeded faults): \
         the WAL replays every committed decrement; treaty state refetches from a peer",
        vec![
            "phase".into(),
            "committed".into(),
            "synchronized".into(),
            "total_after_fold".into(),
        ],
    );
    let mut cluster = build(0xC4A54, None);
    let mut rng = DetRng::seed_from(0xC4A54);
    let (c1, s1) = run_phase(&mut cluster, &mut rng, &[0, 1, 2], 400);
    assert!(s1 > 0, "draining the headroom must synchronize");
    let t1 = assert_converged(&mut cluster);
    fig.push_row("healthy", vec![c1 as f64, s1 as f64, t1 as f64]);

    // The fold above left every site quiescent, so the kill is a clean
    // fail-stop. Record the victim's visible values to check WAL replay.
    let victim = 2;
    let pre_crash: Vec<i64> = (0..ITEMS)
        .map(|i| cluster.value_at(victim, &stock(i)))
        .collect();
    cluster.kill(victim);
    // The survivors keep serving treaty-covered work while the peer is gone.
    let c2 = run_increment_phase(&mut cluster, &mut rng, &[0, 1], 80);
    fig.push_row("one site down", vec![c2 as f64, 0.0, 0.0]);

    cluster.restart(victim);
    cluster.run_until_quiescent();
    for (i, expected) in pre_crash.iter().enumerate() {
        assert_eq!(
            cluster.value_at(victim, &stock(i)),
            *expected,
            "stock[{i}]: WAL recovery must replay every committed write"
        );
    }
    let (c3, s3) = run_phase(&mut cluster, &mut rng, &[0, 1, 2], 200);
    let t3 = assert_converged(&mut cluster);
    fig.push_row("recovered", vec![c3 as f64, s3 as f64, t3 as f64]);
    fig
}

/// `cluster-skew`: the same skewed traffic under uniform vs skew-aware
/// workload hints — the optimizer parks the headroom where the load is, so
/// the hot site synchronizes less.
fn skewed_allowances() -> Figure {
    let mut fig = Figure::new(
        "cluster-skew",
        "Skewed traffic (80/10/10) under uniform vs skew-aware allowances \
         (3 sites, seeded faults): hints shift headroom to the hot site",
        vec![
            "hints".into(),
            "committed".into(),
            "synchronized".into(),
            "local_commits".into(),
        ],
    );
    for (label, hints) in [
        ("uniform", None),
        (
            "skew-aware",
            Some(WorkloadHints {
                site_weights: vec![0.8, 0.1, 0.1],
                expected_amount: 1,
            }),
        ),
    ] {
        let mut cluster = build(0x5EED, hints);
        let mut rng = DetRng::seed_from(0x5EED);
        // 80% of the traffic hits site 0.
        let sites = [0, 0, 0, 0, 0, 0, 0, 0, 1, 2];
        let (committed, synchronized) = run_phase(&mut cluster, &mut rng, &sites, 600);
        assert_converged(&mut cluster);
        let stats = cluster.stats();
        fig.push_row(
            label,
            vec![
                committed as f64,
                synchronized as f64,
                stats.local_commits as f64,
            ],
        );
    }
    fig
}

/// `cluster-tcp`: a real-socket loopback cluster end to end. Spawns one
/// `homeostasisd` **process per site** when the binary is next to the
/// running executable (it is, after `cargo build`), falling back to
/// in-process TCP site nodes otherwise (every frame still crosses a
/// loopback socket); then runs the `homeo-load` client — seeded
/// `submit_batch` order traffic from one thread per site — and panics
/// unless the self-verified conservation check passes: all operations
/// committed, every site reports the same folded state, and the folded
/// total equals the seeded total minus the committed decrements.
fn tcp_loopback_smoke() -> Figure {
    let mut fig = Figure::new(
        "cluster-tcp",
        "Loopback TCP cluster smoke (3 sites, one homeostasisd process each when \
         the binary is available): homeo-load traffic, conservation self-verified",
        vec![
            "deployment".into(),
            "committed".into(),
            "synchronized".into(),
            "total_after_fold".into(),
        ],
    );
    let spec = ClusterSpec::new(
        free_loopback_addrs(3).expect("reserve loopback addresses for the TCP smoke"),
    );

    // A multi-process deployment needs the homeostasisd binary; `reproduce`
    // and the test harnesses have it in their own target directory.
    let daemon = std::env::current_exe().ok().and_then(|exe| {
        let dir = exe.parent()?;
        [dir.join("homeostasisd"), dir.join("../homeostasisd")]
            .into_iter()
            .find(|p| p.is_file())
    });
    let (label, _fleet, _nodes) = match daemon {
        Some(bin) => {
            // The fleet kills its daemons (and removes its temp config) on
            // drop, even when the load client panics.
            let fleet = DaemonFleet::spawn(&bin, &spec).expect("spawn the homeostasisd fleet");
            ("multi-process", Some(fleet), Vec::new())
        }
        None => {
            eprintln!(
                "cluster-tcp: homeostasisd binary not found next to the executable; \
                 running the sites in-process (still over loopback TCP)"
            );
            let nodes = spawn_cluster(&spec, ClusterConfig::new(spec.mode))
                .expect("spawn in-process TCP sites");
            ("in-process", None, nodes)
        }
    };
    let report = tcp_load(&spec, 1_500, 16, 0x7C9).expect("run the homeo-load client");
    assert_eq!(
        report.committed, report.issued,
        "the TCP load lost operations"
    );
    assert!(
        report.synchronized > 0,
        "draining the headroom must synchronize over the sockets"
    );
    assert!(
        report.conserved,
        "counter conservation failed: seeded {} − committed {} must equal folded {}",
        report.initial_total, report.committed, report.final_total
    );
    fig.push_row(
        label,
        vec![
            report.committed as f64,
            report.synchronized as f64,
            report.final_total as f64,
        ],
    );
    fig
}

/// The elastic surface the join/leave scenario needs on top of
/// [`ClientApi`]: grow the cluster by one site, retire one member. Both
/// backends provide these as inherent methods; the trait lets one driver
/// scale either.
trait ElasticApi: ClientApi {
    /// Spawns a fresh site, joins it to the live cluster and blocks until
    /// the epoch-bumped roster is committed. Returns the new site id.
    fn join_site(&mut self) -> usize;
    /// Retires a member site (shards handed off, unsynchronized deltas
    /// folded into the survivors) and blocks until the shrunk roster is
    /// committed.
    fn leave_site(&mut self, site: usize);
}

impl ElasticApi for SimCluster {
    fn join_site(&mut self) -> usize {
        self.join()
    }
    fn leave_site(&mut self, site: usize) {
        self.leave(site)
    }
}

impl ElasticApi for TcpCluster {
    fn join_site(&mut self) -> usize {
        self.join()
    }
    fn leave_site(&mut self, site: usize) {
        self.leave(site)
    }
}

/// Initial stock per counter in the join/leave scenario: enough headroom
/// that the seeded decrement stream never drains a counter to its lower
/// bound (so every member-site order must commit), small enough that the
/// allowance re-splits stay exercised.
const ELASTIC_INITIAL: i64 = 60;

/// Submits `ops` seeded unit decrements round-robin across `sites`
/// **without** polling them — they stay in flight while the caller changes
/// the membership — and returns how many were parked on each site.
fn submit_in_flight(
    cluster: &mut dyn ElasticApi,
    rng: &mut DetRng,
    sites: &[usize],
    ops: usize,
) -> Vec<(usize, usize)> {
    let mut parked: Vec<(usize, usize)> = sites.iter().map(|&site| (site, 0)).collect();
    for n in 0..ops {
        let slot = n % parked.len();
        cluster.submit(
            parked[slot].0,
            SiteOp::Order {
                obj: stock(rng.index(ITEMS)),
                amount: 1,
                refill_to: None,
            },
        );
        parked[slot].1 += 1;
    }
    parked
}

/// Polls the in-flight submissions to completion and returns the committed
/// count. With `must_commit`, every outcome must have committed (member
/// sites never lose an order to a membership change); without it,
/// uncommitted no-ops are allowed — the retiring site completes whatever
/// was parked on it as no-ops once evicted, and whatever it *did* commit
/// was folded into the survivors' bases by the handoff.
fn collect_in_flight(
    cluster: &mut dyn ElasticApi,
    parked: &[(usize, usize)],
    must_commit: bool,
) -> u64 {
    let mut committed = 0;
    for &(site, count) in parked {
        let outcomes = cluster.poll(site);
        assert_eq!(
            outcomes.len(),
            count,
            "site {site} lost in-flight operations across the membership change"
        );
        for out in &outcomes {
            assert!(
                out.committed || !must_commit,
                "an in-flight order on member site {site} must commit"
            );
            committed += u64::from(out.committed);
        }
    }
    committed
}

/// Issues `ops` seeded unit decrements from the given member sites, each
/// polled to completion and required to commit. Returns the committed
/// count.
fn run_decrement_phase(
    cluster: &mut dyn ElasticApi,
    rng: &mut DetRng,
    sites: &[usize],
    ops: usize,
) -> u64 {
    for _ in 0..ops {
        let site = sites[rng.index(sites.len())];
        let out = cluster.execute(
            site,
            SiteOp::Order {
                obj: stock(rng.index(ITEMS)),
                amount: 1,
                refill_to: None,
            },
        );
        assert!(
            out.committed,
            "a polled order on member site {site} must commit"
        );
    }
    ops as u64
}

/// Folds everything through `members[0]` and gates the two elastic
/// invariants: every **member** site observes the same value for every
/// counter (non-members hold stale engine state by design — their deltas
/// were folded out at handoff), and the folded total equals the seeded
/// total minus every decrement ever committed — conservation across
/// however many joins and leaves have happened. Returns the folded total.
fn assert_elastic_converged(
    cluster: &mut dyn ElasticApi,
    members: &[usize],
    committed: u64,
) -> i64 {
    cluster.synchronize(members[0]);
    let mut total = 0;
    for i in 0..ITEMS {
        let expected = cluster.value_at(members[0], &stock(i));
        for &site in &members[1..] {
            assert_eq!(
                cluster.value_at(site, &stock(i)),
                expected,
                "stock[{i}] diverged at member site {site} after the fold"
            );
        }
        total += expected;
    }
    assert_eq!(
        total,
        ITEMS as i64 * ELASTIC_INITIAL - committed as i64,
        "conservation violated: seeded {} − committed {committed} decrements \
         must survive the membership changes",
        ITEMS as i64 * ELASTIC_INITIAL
    );
    total
}

/// Scales one backend 3 → 4 → 3 under load and appends its three phase
/// rows to the figure. The join and the leave each race a window of
/// in-flight submissions, including (for the leave) orders parked on the
/// retiring site itself.
fn drive_elastic(cluster: &mut dyn ElasticApi, backend: &str, fig: &mut Figure) {
    for i in 0..ITEMS {
        cluster.register_counter(stock(i), ELASTIC_INITIAL, 1);
    }
    let mut rng = DetRng::seed_from(0xE1A57);
    let mut committed: u64 = 0;

    // Phase 1: steady state at the founding membership.
    committed += run_decrement_phase(cluster, &mut rng, &[0, 1, 2], 60);
    let t1 = assert_elastic_converged(cluster, &[0, 1, 2], committed);
    fig.push_row(
        format!("{backend} 3 sites"),
        vec![committed as f64, 3.0, t1 as f64],
    );

    // Phase 2: join under load — the parked submissions race the counter
    // freezes, delta folds and allowance re-splits of the handoff.
    let parked = submit_in_flight(cluster, &mut rng, &[0, 1, 2], 36);
    let joined = cluster.join_site();
    assert_eq!(joined, 3, "the fourth site gets the next id");
    committed += collect_in_flight(cluster, &parked, true);
    committed += run_decrement_phase(cluster, &mut rng, &[0, 1, 2, 3], 60);
    let t2 = assert_elastic_converged(cluster, &[0, 1, 2, 3], committed);
    fig.push_row(
        format!("{backend} join site 3"),
        vec![committed as f64, 4.0, t2 as f64],
    );

    // Phase 3: retire site 1 under load. Survivor submissions must all
    // commit; the retiree's parked orders may commit (before the freeze,
    // then folded out by the handoff) or complete as no-ops (after the
    // eviction) — conservation must hold either way.
    let parked = submit_in_flight(cluster, &mut rng, &[0, 2, 3], 24);
    let on_leaver = submit_in_flight(cluster, &mut rng, &[1], 6);
    cluster.leave_site(1);
    committed += collect_in_flight(cluster, &parked, true);
    committed += collect_in_flight(cluster, &on_leaver, false);
    committed += run_decrement_phase(cluster, &mut rng, &[0, 2, 3], 60);
    let t3 = assert_elastic_converged(cluster, &[0, 2, 3], committed);
    fig.push_row(
        format!("{backend} retire site 1"),
        vec![committed as f64, 3.0, t3 as f64],
    );
}

/// `scenario-join-leave`: scale 3 → 4 → 3 sites under load on both
/// backends — the deterministic simulator over the Table 1 WAN with seeded
/// faults, and real TCP sockets — gating
/// conservation and cross-site agreement after every membership change.
/// Any violation panics, so `reproduce scenario-join-leave` exits non-zero
/// on a broken handoff.
fn join_leave_under_load() -> Figure {
    let mut fig = Figure::new(
        "scenario-join-leave",
        "Elastic membership under load (3 → 4 → 3 sites, both backends): \
         in-flight orders race the shard handoff; conservation and cross-site \
         agreement gated after every change",
        vec![
            "phase".into(),
            "committed".into(),
            "members".into(),
            "total_after_fold".into(),
        ],
    );
    {
        // The sim backend keeps the fault schedule of the other cluster
        // scenarios: Table 1 WAN RTTs, 5 ms jitter, seeded drops and
        // reorders — the handoff must commit through all of it. The RTT
        // matrix covers one extra datacenter because the run grows to
        // four sites.
        let net = SimNetConfig {
            rtt: RttMatrix::table1().truncated(SITES + 1),
            jitter_us: 5_000,
            drop_chance: 0.02,
            reorder_chance: 0.05,
            seed: 0xE1A57,
        };
        let mut cluster = SimCluster::new(
            SITES,
            ClusterConfig::new(homeo_mode()).with_timer(Timer::fixed_zero()),
            net,
        );
        drive_elastic(&mut cluster, "sim", &mut fig);
    }
    {
        let mut cluster = TcpCluster::new(
            SITES,
            ClusterConfig::new(homeo_mode()).with_timer(Timer::fixed_zero()),
        );
        drive_elastic(&mut cluster, "tcp", &mut fig);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_id_generates_and_verifies() {
        for id in all_scenario_ids() {
            let fig = scenario(id);
            assert_eq!(fig.id, id);
            assert!(!fig.rows.is_empty());
        }
    }

    #[test]
    fn scenarios_are_deterministic() {
        assert_eq!(scenario("cluster-partition"), scenario("cluster-partition"));
        assert_eq!(scenario("cluster-crash"), scenario("cluster-crash"));
    }

    #[test]
    #[should_panic(expected = "unknown scenario id")]
    fn unknown_scenarios_panic() {
        let _ = scenario("cluster-nope");
    }
}
