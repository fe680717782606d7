//! Self-verifying application scenarios over the **general** `L++` path
//! and the cluster backends — the `scenario-*` surface of `reproduce`.
//!
//! Where the `cluster-*` scenarios exercise the replicated-counter fast
//! path under faults, these run registered transaction *programs* (and the
//! applications the paper motivates them with) end to end, through the
//! unified [`ClientApi`] surface, and panic on any violation of the
//! invariant each application cares about — so a regression becomes
//! `reproduce`'s non-zero exit code:
//!
//! * `scenario-flash-sale` — a hot item drains under skewed
//!   order traffic on **both** cluster backends (sim / TCP); each must
//!   produce the serial `GeneralRuntime` oracle's per-operation outcomes
//!   and byte-identical folded state.
//! * `scenario-rate-limiter` — 10⁵ registered token
//!   buckets (the namespace scale of a per-user rate limiter); seeded
//!   traffic over a hot subset must conserve tokens exactly across refills
//!   and leave every replica in agreement.
//! * `scenario-seatmap` — an exact sell-out: every seat of
//!   every row sold exactly once over the seeded-faulty simulated network
//!   (drops, jitter, reordering) with a mid-run crash and WAL recovery; no
//!   seat may be sold twice (conservation) and every row must end exactly
//!   empty.
//! * `scenario-tpcc-neworder` — TPC-C's NewOrder stock
//!   decrement as registered programs over the `stock[w.d.i]` namespace,
//!   executed over **real TCP sockets** and compared, operation by
//!   operation, against the serial oracle.

use homeo_cluster::{
    ClientApi, ClusterConfig, ProgramBundle, SimCluster, SimNetConfig, TcpCluster,
};
use homeo_lang::ast::Transaction;
use homeo_lang::ids::ObjId;
use homeo_lang::{programs, Database};
use homeo_protocol::{HomeostasisCluster, Loc, ReplicatedMode};
use homeo_runtime::{GeneralRuntime, OpOutcome, SiteOp, SiteRuntime};
use homeo_sim::{DetRng, RttMatrix, Timer};

use crate::report::Figure;

/// The general-path scenario ids, in presentation order.
pub fn all_general_scenario_ids() -> Vec<&'static str> {
    vec![
        "scenario-flash-sale",
        "scenario-rate-limiter",
        "scenario-seatmap",
        "scenario-tpcc-neworder",
    ]
}

/// Generates one general-path scenario by id.
///
/// # Panics
/// Panics on an unknown id (see [`all_general_scenario_ids`]) and on any
/// violation of the scenario's self-checks.
pub fn scenario(id: &str) -> Figure {
    match id {
        "scenario-flash-sale" => flash_sale(),
        "scenario-rate-limiter" => rate_limiter(),
        "scenario-seatmap" => seat_map(),
        "scenario-tpcc-neworder" => tpcc_new_order(),
        other => panic!("unknown scenario id `{other}`"),
    }
}

/// A registered program fixture: one decrement-or-refill transaction per
/// object, homed where the object lives.
struct ProgramFixture {
    txns: Vec<Transaction>,
    loc: Loc,
    initial: Database,
}

impl ProgramFixture {
    fn new(objects: &[(ObjId, usize, i64)], refill: i64) -> Self {
        let txns = objects
            .iter()
            .map(|(obj, _, _)| programs::order_for_object(obj.clone(), refill))
            .collect();
        let loc = Loc::from_pairs(objects.iter().map(|(obj, site, _)| (obj.clone(), *site)));
        let initial =
            Database::from_pairs(objects.iter().map(|(obj, _, value)| (obj.clone(), *value)));
        ProgramFixture { txns, loc, initial }
    }

    fn bundle(&self) -> ProgramBundle {
        ProgramBundle::from_transactions(&self.txns, &self.loc, &self.initial, None)
    }

    fn oracle(&self, sites: usize) -> GeneralRuntime {
        GeneralRuntime::new(
            HomeostasisCluster::new(
                self.txns.clone(),
                self.loc.clone(),
                sites,
                self.initial.clone(),
                None,
            )
            .with_timer(Timer::fixed_zero()),
        )
    }
}

/// Runs `schedule` through the serial oracle, recording per-operation
/// outcomes and the folded global state.
fn run_oracle(
    fixture: &ProgramFixture,
    sites: usize,
    schedule: &[usize],
) -> (Vec<OpOutcome>, Vec<usize>, Database) {
    let mut oracle = fixture.oracle(sites);
    let homes: Vec<usize> = (0..fixture.txns.len())
        .map(|i| oracle.home_site(i))
        .collect();
    let outcomes: Vec<OpOutcome> = schedule
        .iter()
        .map(|&index| oracle.execute(homes[index], SiteOp::Transaction { index }))
        .collect();
    assert!(
        outcomes.iter().all(|o| o.committed),
        "the serial oracle must commit every registered transaction"
    );
    oracle.synchronize(0);
    let db = oracle.cluster().global_database();
    (outcomes, homes, db)
}

/// Replays `schedule` on a cluster backend through [`ClientApi`] and checks
/// it against the oracle: identical per-operation `(committed,
/// synchronized, comm_rounds)`, and — after the fold — byte-identical state
/// on **every** site. Returns `(committed, synchronized)`.
fn replay_and_verify(
    label: &str,
    api: &mut dyn ClientApi,
    fixture: &ProgramFixture,
    schedule: &[usize],
    oracle_outcomes: &[OpOutcome],
    homes: &[usize],
    oracle_db: &Database,
) -> (u64, u64) {
    assert_eq!(
        api.register_program(&fixture.bundle()),
        fixture.txns.len() as u64,
        "{label}: program registration"
    );
    let mut committed = 0;
    let mut synchronized = 0;
    for (k, &index) in schedule.iter().enumerate() {
        let out = api.execute(homes[index], SiteOp::Transaction { index });
        assert!(!out.unsupported, "{label}: op {k} typed unsupported");
        assert_eq!(
            (out.committed, out.synchronized, out.comm_rounds),
            (
                oracle_outcomes[k].committed,
                oracle_outcomes[k].synchronized,
                oracle_outcomes[k].comm_rounds,
            ),
            "{label}: op {k} (txn {index}) diverged from the serial oracle"
        );
        committed += u64::from(out.committed);
        synchronized += u64::from(out.synchronized);
    }
    api.sync_all();
    for (obj, value) in oracle_db.iter() {
        for site in 0..api.sites() {
            assert_eq!(
                api.value_at(site, obj),
                value,
                "{label}: `{obj}` at site {site} diverged from the serial oracle"
            );
        }
    }
    (committed, synchronized)
}

fn fixed_config(mode: ReplicatedMode) -> ClusterConfig {
    ClusterConfig::new(mode).with_timer(Timer::fixed_zero())
}

/// `scenario-flash-sale`: one nearly-sold-out hot item takes 60% of the
/// order traffic while cold items idle — the flash-sale shape that makes
/// the hot treaty violate over and over. The same seeded schedule runs on
/// the serial oracle and on both cluster backends; all three must agree on
/// every operation and on the folded state.
fn flash_sale() -> Figure {
    const SITES: usize = 3;
    const HOT_INITIAL: i64 = 5;
    const COLD_INITIAL: i64 = 30;
    const REFILL: i64 = 8;
    const OPS: usize = 240;

    let mut objects: Vec<(ObjId, usize, i64)> =
        vec![(ObjId::new("sale[hot]"), 0usize, HOT_INITIAL)];
    for i in 0..8usize {
        objects.push((
            ObjId::new(format!("sale[cold.{i}]")),
            i % SITES,
            COLD_INITIAL,
        ));
    }
    let fixture = ProgramFixture::new(&objects, REFILL);

    let mut rng = DetRng::seed_from(0xF1A5);
    let schedule: Vec<usize> = (0..OPS)
        .map(|_| {
            if rng.index(10) < 6 {
                0 // the hot item
            } else {
                1 + rng.index(objects.len() - 1)
            }
        })
        .collect();

    let (oracle_outcomes, homes, oracle_db) = run_oracle(&fixture, SITES, &schedule);
    assert!(
        oracle_outcomes.iter().filter(|o| o.synchronized).count() >= 10,
        "a 5-unit hot item under 60% of {OPS} orders must violate repeatedly"
    );

    let mut fig = Figure::new(
        "scenario-flash-sale",
        "Flash sale (1 hot + 8 cold items, 60% hot traffic, 3 sites): a registered \
         L++ order program on every cluster backend matches the serial oracle \
         operation-for-operation and byte-for-byte after the fold",
        vec![
            "backend".into(),
            "committed".into(),
            "synchronized".into(),
            "hot_after_fold".into(),
        ],
    );
    let hot_final = oracle_db.get(&objects[0].0);
    fig.push_row(
        "serial-oracle",
        vec![
            oracle_outcomes.len() as f64,
            oracle_outcomes.iter().filter(|o| o.synchronized).count() as f64,
            hot_final as f64,
        ],
    );
    let backends: Vec<(&str, Box<dyn ClientApi>)> = vec![
        (
            "cluster-sim",
            Box::new(SimCluster::new(
                SITES,
                fixed_config(ReplicatedMode::EvenSplit),
                SimNetConfig::reliable(SITES, 100),
            )),
        ),
        (
            "cluster-tcp",
            Box::new(TcpCluster::new(
                SITES,
                fixed_config(ReplicatedMode::EvenSplit),
            )),
        ),
    ];
    for (label, mut cluster) in backends {
        let (committed, synchronized) = replay_and_verify(
            label,
            cluster.as_mut(),
            &fixture,
            &schedule,
            &oracle_outcomes,
            &homes,
            &oracle_db,
        );
        fig.push_row(
            label,
            vec![committed as f64, synchronized as f64, hot_final as f64],
        );
    }
    fig
}

/// `scenario-rate-limiter`: a per-user token-bucket rate limiter at real
/// namespace scale — 10⁵ registered buckets on a fault-free simulated
/// cluster. A seeded request storm hits a hot subset; exhausted buckets
/// refill (the window reset). Verified: every request admitted, and exact token
/// conservation — `seeded − committed + refills × window = folded total` —
/// plus replica agreement on every hot bucket.
fn rate_limiter() -> Figure {
    const SITES: usize = 3;
    const BUCKETS: usize = 100_000;
    const WINDOW: i64 = 8; // tokens per bucket per window
    const HOT: usize = 64;
    const OPS: usize = 2_000;

    let bucket = |k: usize| ObjId::new(format!("bucket[{k}]"));
    let mut cluster = SimCluster::new(
        SITES,
        fixed_config(ReplicatedMode::EvenSplit),
        SimNetConfig::reliable(SITES, 100),
    );
    for k in 0..BUCKETS {
        cluster.register_counter(bucket(k), WINDOW, 0);
    }
    let seeded_total = (BUCKETS as i64) * WINDOW;

    let mut rng = DetRng::seed_from(0x4A7E);
    let mut committed: u64 = 0;
    let mut refills: u64 = 0;
    let mut synchronized: u64 = 0;
    let mut touched: Vec<usize> = Vec::new();
    for _ in 0..OPS {
        // 90% of requests hit the hot subset, the rest roam the namespace.
        let k = if rng.index(10) < 9 {
            rng.index(HOT)
        } else {
            HOT + rng.index(BUCKETS - HOT)
        };
        touched.push(k);
        let out = cluster.execute(
            rng.index(SITES),
            SiteOp::Order {
                obj: bucket(k),
                amount: 1,
                // The window reset: refill to WINDOW, then admit (take 1).
                refill_to: Some(WINDOW - 1),
            },
        );
        assert!(out.committed, "an admitted request must commit");
        committed += 1;
        synchronized += u64::from(out.synchronized);
        refills += u64::from(out.refilled);
    }
    assert!(
        refills > 0,
        "2000 requests over 64 hot 8-token buckets must exhaust and refill"
    );
    cluster.synchronize(0);

    // Exact token conservation: every admit took one token; every refill
    // put a fresh window in place of whatever the bucket held (which a
    // refilling order drains to exactly 0 before resetting).
    touched.sort_unstable();
    touched.dedup();
    let mut folded_touched: i64 = 0;
    for &k in &touched {
        let expected = cluster.value_at(0, &bucket(k));
        for site in 1..SITES {
            assert_eq!(
                cluster.value_at(site, &bucket(k)),
                expected,
                "bucket[{k}] diverged at site {site} after the fold"
            );
        }
        folded_touched += expected;
    }
    let untouched_total = (BUCKETS - touched.len()) as i64 * WINDOW;
    let folded_total = folded_touched + untouched_total;
    let refilled_away: i64 = folded_total - (seeded_total - committed as i64);
    assert_eq!(
        refilled_away,
        refills as i64 * WINDOW,
        "token conservation: folded {folded_total} != seeded {seeded_total} − \
         admitted {committed} + {refills} refills × {WINDOW}"
    );

    let mut fig = Figure::new(
        "scenario-rate-limiter",
        "Per-user rate limiter at namespace scale (100k token buckets, 3 sites): \
         seeded request storm over a hot subset; token conservation and \
         replica agreement verified exactly",
        vec![
            "metric".into(),
            "buckets".into(),
            "admitted".into(),
            "synchronized".into(),
            "refills".into(),
        ],
    );
    fig.push_row(
        "run",
        vec![
            BUCKETS as f64,
            committed as f64,
            synchronized as f64,
            refills as f64,
        ],
    );
    fig
}

/// `scenario-seatmap`: an exact sell-out under network faults. Every seat
/// row is a counter bounded at zero; the seeded booking storm sells each
/// row out exactly — every booking must commit, a mid-run crash must lose
/// nothing (WAL replay + peer state refetch), and the fold must leave
/// every row at exactly 0 on every replica: each seat sold once, none
/// sold twice.
fn seat_map() -> Figure {
    const SITES: usize = 3;
    const ROWS: usize = 24;
    const SEATS_PER_ROW: i64 = 12;

    let row_obj = |r: usize| ObjId::new(format!("seat[row.{r}]"));
    let net = SimNetConfig {
        rtt: RttMatrix::table1().truncated(SITES),
        jitter_us: 5_000,
        drop_chance: 0.02,
        reorder_chance: 0.05,
        seed: 0x5EA7,
    };
    let mut cluster = SimCluster::new(
        SITES,
        fixed_config(ReplicatedMode::Homeostasis { optimizer: None }),
        net,
    );
    for r in 0..ROWS {
        cluster.register_counter(row_obj(r), SEATS_PER_ROW, 0);
    }

    // The seeded booking storm: exactly SEATS_PER_ROW bookings per row, in
    // a globally shuffled order, issued from random sites.
    let mut bookings: Vec<usize> = (0..ROWS)
        .flat_map(|r| std::iter::repeat_n(r, SEATS_PER_ROW as usize))
        .collect();
    let mut rng = DetRng::seed_from(0x5EA7);
    for i in (1..bookings.len()).rev() {
        bookings.swap(i, rng.index(i + 1));
    }

    let mut committed: u64 = 0;
    let mut synchronized: u64 = 0;
    let crash_at = bookings.len() / 2;
    for (i, &r) in bookings.iter().enumerate() {
        if i == crash_at {
            // Quiesce, then fail-stop a site mid-sale and bring it back:
            // the WAL replays its committed bookings, the treaty state
            // refetches from a peer, and the sale continues.
            cluster.synchronize(0);
            cluster.kill(2);
            cluster.restart(2);
            cluster.run_until_quiescent();
        }
        let out = cluster.execute(
            rng.index(SITES),
            SiteOp::Order {
                obj: row_obj(r),
                amount: 1,
                refill_to: None, // seats do not refill: a sell-out is final
            },
        );
        assert!(out.committed, "booking {i} (row {r}) failed to commit");
        committed += 1;
        synchronized += u64::from(out.synchronized);
    }
    cluster.synchronize(0);
    for r in 0..ROWS {
        for site in 0..SITES {
            assert_eq!(
                cluster.value_at(site, &row_obj(r)),
                0,
                "row {r} at site {site}: an exact sell-out must end at 0 \
                 (negative = a seat sold twice, positive = a booking lost)"
            );
        }
    }
    assert_eq!(committed, (ROWS as i64 * SEATS_PER_ROW) as u64);

    let mut fig = Figure::new(
        "scenario-seatmap",
        "Seat map sell-out under seeded faults (24 rows x 12 seats, 3 sites, \
         simulated Table-1 network with drops/jitter/reorder, one mid-sale \
         crash+recovery): every seat sold exactly once, every row ends at 0",
        vec![
            "metric".into(),
            "bookings".into(),
            "synchronized".into(),
            "rows_at_zero".into(),
        ],
    );
    fig.push_row(
        "run",
        vec![committed as f64, synchronized as f64, ROWS as f64],
    );
    fig
}

/// `scenario-tpcc-neworder`: TPC-C's NewOrder stock decrement as a
/// registered program set over the `stock[w.d.i]` namespace — one
/// transaction per (warehouse, district, item), homed at the warehouse's
/// site — executed over **real TCP sockets** and checked operation by
/// operation against the serial oracle.
///
/// The fixture is sized to the analysis, not the protocol: the joint
/// symbolic table is the *cross product* of the per-transaction tables
/// (Figure 4c), and each two-branch order program contributes a factor of
/// two, so `K` independent programs cost `2^K` joint rows. Twelve programs
/// (4096 rows) negotiate in milliseconds; twenty-four (16.7M rows) do not
/// terminate in useful time. Factoring the joint table over independent
/// write sets is the known fix and is tracked on the roadmap.
fn tpcc_new_order() -> Figure {
    const WAREHOUSES: usize = 3; // one per site
    const DISTRICTS: usize = 2;
    const ITEMS: usize = 2;
    const INITIAL: i64 = 10;
    const REFILL: i64 = 20;
    const OPS: usize = 200;

    let mut objects: Vec<(ObjId, usize, i64)> = Vec::new();
    for w in 0..WAREHOUSES {
        for d in 0..DISTRICTS {
            for i in 0..ITEMS {
                objects.push((ObjId::new(format!("stock[{w}.{d}.{i}]")), w, INITIAL));
            }
        }
    }
    let fixture = ProgramFixture::new(&objects, REFILL);

    let mut rng = DetRng::seed_from(0x7CC);
    let schedule: Vec<usize> = (0..OPS).map(|_| rng.index(objects.len())).collect();
    let (oracle_outcomes, homes, oracle_db) = run_oracle(&fixture, WAREHOUSES, &schedule);
    assert!(
        oracle_outcomes.iter().any(|o| o.synchronized),
        "200 new-orders over 10-unit stock levels must violate treaties"
    );

    let mut tcp = TcpCluster::new(WAREHOUSES, fixed_config(ReplicatedMode::EvenSplit));
    let (committed, synchronized) = replay_and_verify(
        "cluster-tcp",
        &mut tcp,
        &fixture,
        &schedule,
        &oracle_outcomes,
        &homes,
        &oracle_db,
    );

    let mut fig = Figure::new(
        "scenario-tpcc-neworder",
        "TPC-C NewOrder stock decrements as registered programs (3 warehouses x \
         2 districts x 2 items, one warehouse per site) over loopback TCP: \
         every operation and the folded state match the serial oracle",
        vec![
            "backend".into(),
            "committed".into(),
            "synchronized".into(),
            "programs".into(),
        ],
    );
    fig.push_row(
        "cluster-tcp",
        vec![
            committed as f64,
            synchronized as f64,
            fixture.txns.len() as f64,
        ],
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_sale_generates_and_verifies() {
        let fig = flash_sale();
        assert_eq!(fig.id, "scenario-flash-sale");
        assert_eq!(fig.rows.len(), 3); // oracle + two backends
    }

    #[test]
    fn seatmap_generates_and_verifies() {
        let fig = seat_map();
        assert_eq!(fig.id, "scenario-seatmap");
    }

    #[test]
    fn tpcc_neworder_generates_and_verifies() {
        let fig = tpcc_new_order();
        assert_eq!(fig.id, "scenario-tpcc-neworder");
    }

    #[test]
    fn rate_limiter_conserves_tokens_at_scale() {
        let fig = rate_limiter();
        assert_eq!(fig.id, "scenario-rate-limiter");
    }

    #[test]
    #[should_panic(expected = "unknown scenario id")]
    fn unknown_scenarios_panic() {
        let _ = scenario("scenario-nope");
    }
}
