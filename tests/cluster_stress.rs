//! Stress and determinism coverage for the cluster subsystem, beyond the
//! happy path the closed-loop driver exercises:
//!
//! * seeded interleavings of `submit` / `poll` / `synchronize` across sites
//!   with conservation of counter totals checked against the outcome
//!   stream, on both the TCP and the simulated backend;
//! * `SimTransport` determinism: the same seed produces byte-for-byte
//!   identical metrics, values and WALs under jitter, reordering, drops,
//!   partitions and a site crash;
//! * the convergence acceptance run: partitions plus one site kill/restart,
//!   after which every site agrees and nothing is lost;
//! * elastic membership under faults: a join parked behind an active
//!   partition, a leave racing the membership coordinator's crash/restart
//!   (WAL recovery replays into the current epoch), and the stale-epoch
//!   rejection of frames from an evicted member.

use std::collections::VecDeque;

use homeostasis::cluster::{ClusterConfig, SimCluster, SimMetrics, SimNetConfig, TcpCluster};
use homeostasis::lang::ids::ObjId;
use homeostasis::protocol::{OptimizerConfig, ReplicatedMode};
use homeostasis::runtime::{SiteOp, SiteRuntime};
use homeostasis::sim::{DetRng, RttMatrix, Timer};

const SITES: usize = 3;
const ITEMS: usize = 6;
const INITIAL: i64 = 50;
/// Low enough that no-refill orders always apply their decrement (keeping
/// conservation exact) while the headroom above it stays small enough that
/// treaty violations — and thus real synchronization rounds — occur.
const LOWER: i64 = 0;

fn item_obj(i: usize) -> ObjId {
    ObjId::new(format!("stock[{i}]"))
}

fn homeo_config() -> ClusterConfig {
    ClusterConfig::new(ReplicatedMode::Homeostasis {
        optimizer: Some(OptimizerConfig {
            lookahead: 8,
            futures: 2,
            seed: 31,
        }),
    })
    .with_timer(Timer::fixed_zero())
}

/// Interleaves batched submits, polls and synchronizes across all sites,
/// pairing every outcome with its submitted operation, and returns the net
/// committed delta per item.
fn stress(runtime: &mut dyn SiteRuntime, seed: u64, steps: usize) -> Vec<i64> {
    for i in 0..ITEMS {
        runtime.ensure_registered(&item_obj(i), INITIAL, LOWER);
    }
    let mut rng = DetRng::seed_from(seed);
    // Per site, the amounts of submitted-but-not-yet-polled operations
    // (positive = increment, negative = order/decrement).
    let mut in_flight: Vec<VecDeque<i64>> = vec![VecDeque::new(); SITES];
    let mut net_delta = vec![0i64; ITEMS];
    let drain = |site: usize,
                 runtime: &mut dyn SiteRuntime,
                 in_flight: &mut Vec<VecDeque<i64>>,
                 net_delta: &mut Vec<i64>,
                 items: &mut VecDeque<usize>| {
        for outcome in runtime.poll(site) {
            let amount = in_flight[site].pop_front().expect("outcome without op");
            let item = items.pop_front().expect("outcome without item");
            if outcome.committed {
                net_delta[item] += amount;
            }
        }
    };
    // Items of in-flight ops, per site, in submission order.
    let mut in_flight_items: Vec<VecDeque<usize>> = vec![VecDeque::new(); SITES];
    for _ in 0..steps {
        let site = rng.index(SITES);
        match rng.index(10) {
            // Mostly submits: orders (70%) and increments (20%)…
            0..=6 => {
                let item = rng.index(ITEMS);
                let amount = rng.int_inclusive(1, 3);
                runtime.submit(
                    site,
                    SiteOp::Order {
                        obj: item_obj(item),
                        amount,
                        refill_to: None,
                    },
                );
                in_flight[site].push_back(-amount);
                in_flight_items[site].push_back(item);
            }
            7..=8 => {
                let item = rng.index(ITEMS);
                let amount = rng.int_inclusive(1, 5);
                runtime.submit(
                    site,
                    SiteOp::Increment {
                        obj: item_obj(item),
                        amount,
                    },
                );
                in_flight[site].push_back(amount);
                in_flight_items[site].push_back(item);
            }
            // …with polls and the occasional cluster-wide fold mixed in.
            _ => {
                if rng.chance(0.5) {
                    drain(
                        site,
                        runtime,
                        &mut in_flight,
                        &mut net_delta,
                        &mut in_flight_items[site],
                    );
                } else {
                    runtime.synchronize(site);
                }
            }
        }
    }
    for site in 0..SITES {
        drain(
            site,
            runtime,
            &mut in_flight,
            &mut net_delta,
            &mut in_flight_items[site],
        );
        assert!(in_flight[site].is_empty(), "poll must drain everything");
    }
    net_delta
}

/// Conservation + convergence: after a final fold, every site observes
/// `INITIAL + net committed delta` for every item.
fn assert_conserved(runtime: &mut dyn SiteRuntime, net_delta: &[i64]) {
    runtime.synchronize(0);
    for (i, delta) in net_delta.iter().enumerate() {
        let expected = INITIAL + delta;
        for site in 0..SITES {
            assert_eq!(
                runtime.value_at(site, &item_obj(i)),
                expected,
                "stock[{i}] at site {site}: committed outcomes and state disagree"
            );
        }
    }
}

#[test]
fn tcp_interleaved_stress_conserves_totals() {
    let mut runtime = TcpCluster::new(SITES, homeo_config());
    let net_delta = stress(&mut runtime, 0xBEEF, 600);
    assert_conserved(&mut runtime, &net_delta);
}

#[test]
fn simulated_interleaved_stress_conserves_totals_under_faults() {
    let mut runtime = SimCluster::new(
        SITES,
        homeo_config(),
        SimNetConfig::faulty(RttMatrix::table1().truncated(SITES), 0xD06),
    );
    let net_delta = stress(&mut runtime, 0xBEEF, 600);
    assert_conserved(&mut runtime, &net_delta);
}

#[test]
fn tcp_and_simulated_backends_agree_on_final_state() {
    // Same seeded interleaving, same protocol: the scheduler (real sockets
    // and reactor threads vs virtual clock with faults) must not change
    // what commits.
    let mut tcp = TcpCluster::new(SITES, homeo_config());
    let tcp_delta = stress(&mut tcp, 0x5EED, 400);
    assert_conserved(&mut tcp, &tcp_delta);
    let mut sim = SimCluster::new(
        SITES,
        homeo_config(),
        SimNetConfig::faulty(RttMatrix::table1().truncated(SITES), 0xD06),
    );
    let sim_delta = stress(&mut sim, 0x5EED, 400);
    assert_conserved(&mut sim, &sim_delta);
    assert_eq!(tcp_delta, sim_delta);
}

/// The convergence acceptance run: a seeded `SimTransport` cluster with
/// jitter, reordering and drops, a partition that heals, and one site
/// crash/restart. Returns every determinism witness the run produces.
fn faulted_run() -> (SimMetrics, Vec<i64>, Vec<usize>) {
    let net = SimNetConfig {
        rtt: RttMatrix::table1().truncated(SITES),
        jitter_us: 10_000,
        drop_chance: 0.05,
        reorder_chance: 0.10,
        seed: 0xFA17,
    };
    let mut cluster = SimCluster::new(SITES, homeo_config(), net);
    for i in 0..ITEMS {
        cluster.register(item_obj(i), INITIAL, LOWER);
    }
    let mut rng = DetRng::seed_from(0xFA17);
    let mut net_delta = vec![0i64; ITEMS];
    let run_ops = |cluster: &mut SimCluster,
                   rng: &mut DetRng,
                   net_delta: &mut Vec<i64>,
                   sites: &[usize],
                   ops: usize,
                   increments_only: bool| {
        for _ in 0..ops {
            let site = sites[rng.index(sites.len())];
            let item = rng.index(ITEMS);
            let op = if increments_only || rng.chance(0.3) {
                net_delta[item] += 2;
                SiteOp::Increment {
                    obj: item_obj(item),
                    amount: 2,
                }
            } else {
                net_delta[item] -= 1;
                SiteOp::Order {
                    obj: item_obj(item),
                    amount: 1,
                    refill_to: None,
                }
            };
            let out = cluster.execute(site, op);
            assert!(out.committed, "polled ops must commit");
        }
    };
    // Phase 1: all sites, mixed load, full fault cocktail.
    run_ops(
        &mut cluster,
        &mut rng,
        &mut net_delta,
        &[0, 1, 2],
        120,
        false,
    );
    // Phase 2: partition site 2 away; both sides keep committing
    // treaty-covered work (increments never violate).
    cluster.partition(0, 2);
    cluster.partition(1, 2);
    run_ops(&mut cluster, &mut rng, &mut net_delta, &[0, 1], 40, true);
    run_ops(&mut cluster, &mut rng, &mut net_delta, &[2], 20, true);
    cluster.heal_all();
    run_ops(
        &mut cluster,
        &mut rng,
        &mut net_delta,
        &[0, 1, 2],
        60,
        false,
    );
    // Phase 3: crash site 1 (quiescent after the polls above), run on the
    // survivors, restart, and converge.
    cluster.synchronize(0);
    cluster.kill(1);
    run_ops(&mut cluster, &mut rng, &mut net_delta, &[0, 2], 30, true);
    cluster.restart(1);
    cluster.run_until_quiescent();
    run_ops(
        &mut cluster,
        &mut rng,
        &mut net_delta,
        &[0, 1, 2],
        40,
        false,
    );
    // Convergence: after the final fold every site agrees with the ledger
    // of committed outcomes — nothing was lost to the partition, the
    // faults, or the crash.
    cluster.synchronize(0);
    let mut values = Vec::new();
    for (i, delta) in net_delta.iter().enumerate() {
        let expected = INITIAL + delta;
        for site in 0..SITES {
            assert_eq!(
                cluster.value_at(site, &item_obj(i)),
                expected,
                "stock[{i}] at site {site} after heal + restart"
            );
        }
        values.push(expected);
    }
    let wal_lens = (0..SITES).map(|s| cluster.engine(s).wal_len()).collect();
    (cluster.metrics(), values, wal_lens)
}

#[test]
fn partitions_plus_crash_converge_and_are_reproducible() {
    let first = faulted_run();
    let second = faulted_run();
    assert!(
        first.0.frames_retransmitted > 0,
        "the fault cocktail must actually drop frames"
    );
    assert_eq!(first, second, "same seed must be byte-for-byte identical");
}

#[test]
fn general_programs_conserve_stock_under_faults_and_crash() {
    // The general-path version of the conservation stress: one registered
    // order *program* per stock item (decrement while qty > 1, else refill)
    // running over the seeded-faulty simulated network with a mid-run
    // crash/restart. The per-operation outcome stream defines an exact
    // ledger — `refilled` resets the expected value, a plain commit
    // decrements it — and after the final fold every site must hold
    // exactly the ledger value for every item: nothing the faults or the
    // crash did may lose or duplicate a committed decrement.
    use homeostasis::lang::programs;
    use homeostasis::lang::Database;
    use homeostasis::protocol::{Loc, ProgramBundle};

    const REFILL: i64 = 12;
    const GENERAL_INITIAL: i64 = 8;
    const OPS: usize = 300;

    let objects: Vec<ObjId> = (0..ITEMS).map(item_obj).collect();
    let txns: Vec<_> = objects
        .iter()
        .map(|o| programs::order_for_object(o.clone(), REFILL))
        .collect();
    let loc = Loc::from_pairs(
        objects
            .iter()
            .enumerate()
            .map(|(i, o)| (o.clone(), i % SITES)),
    );
    let initial = Database::from_pairs(objects.iter().map(|o| (o.clone(), GENERAL_INITIAL)));
    let bundle = ProgramBundle::from_transactions(&txns, &loc, &initial, None);

    let net = SimNetConfig {
        rtt: RttMatrix::table1().truncated(SITES),
        jitter_us: 8_000,
        drop_chance: 0.04,
        reorder_chance: 0.08,
        seed: 0x6E5A,
    };
    let mut cluster = SimCluster::new(
        SITES,
        ClusterConfig::new(ReplicatedMode::Homeostasis { optimizer: None })
            .with_timer(Timer::fixed_zero()),
        net,
    );
    assert_eq!(
        cluster.register_program(&bundle),
        ITEMS as u64,
        "program registration over the faulty network"
    );

    let mut rng = DetRng::seed_from(0x6E5A);
    let mut expected: Vec<i64> = vec![GENERAL_INITIAL; ITEMS];
    let mut synchronized = 0u64;
    for k in 0..OPS {
        let index = rng.index(ITEMS);
        let out = cluster.execute(index % SITES, SiteOp::Transaction { index });
        assert!(!out.unsupported, "op {k}: registered program rejected");
        assert!(out.committed, "op {k}: registered program aborted");
        // Each program touches only its own object and runs serially at
        // its home site, so the ledger can replay the program's branch
        // exactly: refill when the stock is at (or below) one, else
        // decrement. The final fold below verifies the replay — a single
        // diverged branch would leave every later value off by one.
        if expected[index] <= 1 {
            expected[index] = REFILL - 1;
        } else {
            expected[index] -= 1;
        }
        synchronized += u64::from(out.synchronized);
        // Mid-run crash of a quiescent non-coordinator site: WAL recovery
        // plus the surviving sites must not disturb the ledger.
        if k == OPS / 2 {
            cluster.synchronize(0);
            cluster.kill(1);
            cluster.restart(1);
            cluster.run_until_quiescent();
        }
    }
    assert!(
        synchronized > 0,
        "draining {OPS} orders over {GENERAL_INITIAL}-unit items must violate treaties"
    );
    cluster.synchronize(0);
    for (i, want) in expected.iter().enumerate() {
        for site in 0..SITES {
            assert_eq!(
                cluster.value_at(site, &item_obj(i)),
                *want,
                "stock[{i}] at site {site}: ledger and folded state disagree"
            );
        }
    }
}

/// Seeded mixed load over `sites` through the polled path, with every
/// committed delta recorded in the per-item ledger. `increments_only`
/// restricts the mix to treaty-covered work that commits without reaching
/// a (possibly unreachable) coordinator.
fn elastic_ops(
    cluster: &mut SimCluster,
    rng: &mut DetRng,
    net_delta: &mut [i64],
    sites: &[usize],
    ops: usize,
    increments_only: bool,
) {
    for _ in 0..ops {
        let site = sites[rng.index(sites.len())];
        let item = rng.index(ITEMS);
        let op = if increments_only || rng.chance(0.3) {
            net_delta[item] += 2;
            SiteOp::Increment {
                obj: item_obj(item),
                amount: 2,
            }
        } else {
            net_delta[item] -= 1;
            SiteOp::Order {
                obj: item_obj(item),
                amount: 1,
                refill_to: None,
            }
        };
        let out = cluster.execute(site, op);
        assert!(out.committed, "polled ops must commit");
    }
}

/// After a final fold, every *member* site must hold `INITIAL + delta` for
/// every item, and the authoritative logical value must agree. Retired and
/// mid-join sites hold stale engine values on purpose, so only members are
/// consulted.
fn assert_members_converged(cluster: &mut SimCluster, members: &[usize], net_delta: &[i64]) {
    cluster.synchronize(members[0]);
    for (i, delta) in net_delta.iter().enumerate() {
        let expected = INITIAL + delta;
        for &site in members {
            assert_eq!(
                cluster.value_at(site, &item_obj(i)),
                expected,
                "stock[{i}] at member {site}: committed outcomes and state disagree"
            );
        }
        assert_eq!(
            cluster.logical_value(&item_obj(i)),
            expected,
            "stock[{i}]: authoritative total and ledger disagree"
        );
    }
}

#[test]
fn join_parked_behind_a_partition_commits_after_heal() {
    // The handoff freezes, folds and re-splits every counter over the grown
    // member set, so it needs the *full* old membership reachable: a join
    // started while a member is partitioned away must park — committing
    // nothing, adopting no roster — and complete untouched once the
    // partition heals. The net config covers four sites up front (the RTT
    // matrix must span the maximum membership the run grows to).
    let mut cluster = SimCluster::new(
        SITES,
        homeo_config(),
        SimNetConfig::faulty(RttMatrix::table1().truncated(SITES + 1), 0x10A7),
    );
    for i in 0..ITEMS {
        cluster.register(item_obj(i), INITIAL, LOWER);
    }
    let mut rng = DetRng::seed_from(0x10A7);
    let mut net_delta = vec![0i64; ITEMS];
    elastic_ops(
        &mut cluster,
        &mut rng,
        &mut net_delta,
        &[0, 1, 2],
        90,
        false,
    );
    // Cut member 2 off completely, then start the join: every handoff frame
    // addressed to it parks on the wire.
    cluster.partition(0, 2);
    cluster.partition(1, 2);
    let joiner = cluster.begin_join();
    cluster.run_until_quiescent();
    assert_eq!(
        cluster.roster(0).members,
        vec![0, 1, 2],
        "the membership change must not commit while a member is unreachable"
    );
    assert_eq!(cluster.roster(0).epoch, 0);
    cluster.heal_all();
    cluster.run_until_quiescent();
    for site in [0, 1, 2, joiner] {
        assert_eq!(
            cluster.roster(site).members,
            vec![0, 1, 2, 3],
            "site {site} must adopt the post-heal roster"
        );
        assert_eq!(cluster.roster(site).epoch, 1);
    }
    // The grown cluster carries load — including the joiner — and the
    // ledger holds across the partition and the handoff.
    elastic_ops(
        &mut cluster,
        &mut rng,
        &mut net_delta,
        &[0, 1, 2, joiner],
        80,
        false,
    );
    assert_members_converged(&mut cluster, &[0, 1, 2, joiner], &net_delta);
}

#[test]
fn leave_during_membership_coordinator_crash_commits_after_wal_recovery() {
    // A leave submitted while the membership coordinator (the lowest
    // member) is down parks at its held-frame queue; the crash/restart
    // replays the WAL, refetches treaty metadata from a live buddy, and
    // only then serves the parked `Leave` — the handoff runs in the
    // recovered epoch and nothing committed before or during the outage is
    // lost.
    let mut cluster = SimCluster::new(
        SITES,
        homeo_config(),
        SimNetConfig::faulty(RttMatrix::table1().truncated(SITES), 0xC4A5),
    );
    for i in 0..ITEMS {
        cluster.register(item_obj(i), INITIAL, LOWER);
    }
    let mut rng = DetRng::seed_from(0xC4A5);
    let mut net_delta = vec![0i64; ITEMS];
    elastic_ops(
        &mut cluster,
        &mut rng,
        &mut net_delta,
        &[0, 1, 2],
        90,
        false,
    );
    // Fail-stop between rounds: quiesce, then crash the coordinator.
    cluster.synchronize(0);
    cluster.kill(0);
    cluster.begin_leave(2);
    cluster.run_until_quiescent();
    assert_eq!(
        cluster.roster(1).members,
        vec![0, 1, 2],
        "no membership change without the membership coordinator"
    );
    // The survivors — the leaver included, its Leave still parked — keep
    // committing treaty-covered work while the coordinator is down.
    elastic_ops(&mut cluster, &mut rng, &mut net_delta, &[1, 2], 40, true);
    cluster.restart(0);
    cluster.run_until_quiescent();
    for site in [0, 1] {
        assert_eq!(
            cluster.roster(site).members,
            vec![0, 1],
            "site {site} must adopt the post-recovery eviction"
        );
        assert_eq!(cluster.roster(site).epoch, 1);
    }
    elastic_ops(&mut cluster, &mut rng, &mut net_delta, &[0, 1], 60, false);
    assert_members_converged(&mut cluster, &[0, 1], &net_delta);
}

#[test]
fn a_retired_sites_recovery_probe_is_rejected_as_stale() {
    // Frames from a member evicted by a committed roster carry treaty
    // state from a dead epoch: the survivors must drop them on receipt. A
    // retired site that crashes and restarts probes its old buddy with
    // `StateRequest` — organically producing exactly such a frame — and
    // must be left un-answered without disturbing the survivors' state.
    let mut cluster = SimCluster::new(
        SITES,
        homeo_config(),
        SimNetConfig::faulty(RttMatrix::table1().truncated(SITES), 0x57A1),
    );
    for i in 0..ITEMS {
        cluster.register(item_obj(i), INITIAL, LOWER);
    }
    let mut rng = DetRng::seed_from(0x57A1);
    let mut net_delta = vec![0i64; ITEMS];
    elastic_ops(
        &mut cluster,
        &mut rng,
        &mut net_delta,
        &[0, 1, 2],
        90,
        false,
    );
    // Graceful retirement: site 2's unsynchronized deltas fold into the
    // survivors' bases and the epoch-bumped roster evicts it.
    cluster.leave(2);
    assert_eq!(cluster.roster(0).members, vec![0, 1]);
    assert_eq!(cluster.stale_rejects(), 0);
    elastic_ops(&mut cluster, &mut rng, &mut net_delta, &[0, 1], 40, false);
    // The retired site crashes and comes back: its recovery probe is a
    // frame from an evicted member and must be rejected, not answered.
    cluster.synchronize(0);
    cluster.kill(2);
    cluster.restart(2);
    cluster.run_until_quiescent();
    assert!(
        cluster.stale_rejects() >= 1,
        "the evicted member's recovery probe must be dropped as stale"
    );
    assert_eq!(
        cluster.roster(0).members,
        vec![0, 1],
        "a stale probe must not re-enter the evicted site"
    );
    elastic_ops(&mut cluster, &mut rng, &mut net_delta, &[0, 1], 40, false);
    assert_members_converged(&mut cluster, &[0, 1], &net_delta);
}
