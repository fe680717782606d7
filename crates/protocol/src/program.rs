//! Program registration: the portable description of an `L++` workload and
//! the per-site analysis pipeline it deterministically expands into.
//!
//! The cluster backends run the *general* protocol by shipping program
//! **source text** — never analysis artifacts — to every site
//! (`RegisterProgram` in the cluster wire protocol). Each site independently
//! parses the sources (`homeo-lang`), derives the symbolic and joint tables
//! (`homeo-analysis`), and negotiates treaties from the same installed global
//! database with the same lockstep round counter and optimizer seed. Because
//! every step of that pipeline is deterministic, all sites (and the serial
//! [`crate::round::HomeostasisCluster`] oracle) arrive at byte-identical
//! treaty tables without a single treaty crossing the wire. That includes
//! the last step of an optimized negotiation, which hands each clause's H1
//! slack to the sites holding the clause
//! ([`TreatyTemplates::spend_h1_slack`]): it depends on the templates and
//! Algorithm 1's configuration alone.
//!
//! * [`ProgramBundle`] — the wire/registration form: sources, object
//!   locations, initial values, optimizer settings.
//! * [`ProgramSet`] — the expanded form a site keeps: parsed transactions,
//!   joint symbolic table, location map, treaty table, and the shared
//!   [`ProgramSet::negotiate`] round that both the serial oracle and the
//!   cluster workers call. This is the general-path analogue of the
//!   replicated fast path's [`crate::NegotiationCache`]: the expensive
//!   analysis happens once per registered template, and each renegotiation
//!   reuses it.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use homeo_analysis::{JointSymbolicTable, SymbolicTable};
use homeo_lang::ast::{BExp, Transaction};
use homeo_lang::database::Database;
use homeo_lang::ids::ObjId;
use homeo_sim::Timer;
use homeo_store::Engine;

use crate::exec::{run_on_engine, ExecError, ExecResult};
use crate::model::{Loc, SiteId};
use crate::optimizer::{optimize_timed, OptimizerConfig};
use crate::templates::{GuardTemplate, TreatyTemplates};
use crate::treaty::TreatyTable;

/// The portable registration form of an `L++` workload.
///
/// Program text travels as-is; the receiving site re-runs the full
/// lang → analysis pipeline locally ([`ProgramSet::from_bundle`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramBundle {
    /// Concrete-syntax source of each transaction, in registration order
    /// (the order defines the `SiteOp::Transaction { index }` numbering).
    pub sources: Vec<String>,
    /// Explicit object locations (`Loc` pairs).
    pub loc_pairs: Vec<(ObjId, SiteId)>,
    /// Default site for unmapped objects, if any.
    pub default_site: Option<SiteId>,
    /// Initial values for objects not yet present on the sites; applied
    /// only where the object is still absent, so registration is idempotent.
    pub initial: Vec<(ObjId, i64)>,
    /// Optimizer settings; `None` negotiates the always-valid default
    /// configuration of Theorem 4.3.
    pub optimizer: Option<OptimizerConfig>,
}

impl ProgramBundle {
    /// Builds a bundle from already-parsed transactions by pretty-printing
    /// them back to source (the parser and printer round-trip).
    pub fn from_transactions(
        transactions: &[Transaction],
        loc: &Loc,
        initial: &Database,
        optimizer: Option<OptimizerConfig>,
    ) -> Self {
        ProgramBundle {
            sources: transactions.iter().map(printable_source).collect(),
            loc_pairs: loc.pairs(),
            default_site: loc.default_site(),
            initial: initial.iter().map(|(o, v)| (o.clone(), v)).collect(),
            optimizer,
        }
    }

    /// The location map the bundle describes.
    pub fn loc(&self) -> Loc {
        let mut loc = Loc::from_pairs(self.loc_pairs.iter().cloned());
        if let Some(site) = self.default_site {
            loc = loc.with_default_site(site);
        }
        loc
    }
}

/// Pretty-prints a transaction as registerable source text.
///
/// Builder-generated display names (`MicroOrder(item=3)`) carry punctuation
/// the concrete syntax does not accept; the name is metadata, not semantics,
/// so it is rewritten into the identifier charset before printing to keep
/// the print → parse round-trip total.
fn printable_source(txn: &Transaction) -> String {
    let mut name: String = txn
        .name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if name.is_empty() || name.as_bytes()[0].is_ascii_digit() {
        name.insert(0, 't');
    }
    if name == txn.name {
        return homeo_lang::pretty::transaction_to_string(txn);
    }
    let mut renamed = txn.clone();
    renamed.name = name;
    homeo_lang::pretty::transaction_to_string(&renamed)
}

/// A registered program set: parsed transactions plus the one-time analysis
/// artifacts and the current treaty table.
///
/// The analysis (symbolic tables, joint table) runs once at registration,
/// and each joint-table row is compiled to its treaty templates the first
/// time a negotiation selects it; every subsequent [`Self::negotiate`]
/// reuses both, which is what keeps general-path synchronization rounds
/// cheap: find the row, sample futures, solve, install.
#[derive(Debug, Clone)]
pub struct ProgramSet {
    transactions: Vec<Transaction>,
    sources: Vec<String>,
    joint: JointSymbolicTable,
    /// The joint-table rows negotiated from so far, compiled on first hit
    /// (never eagerly: the table has `2^K` rows and a run visits a few).
    compiled: BTreeMap<usize, CompiledRow>,
    /// Each transaction's home: the site holding its write set.
    homes: Vec<SiteId>,
    loc: Loc,
    optimizer: Option<OptimizerConfig>,
    treaties: TreatyTable,
    sites: usize,
}

/// What a joint-table row contributes to every negotiation that selects it.
#[derive(Debug, Clone)]
struct CompiledRow {
    guard: GuardTemplate,
    /// The row's templates, when ψ freezes nothing and so is the same for
    /// every database; otherwise they are regenerated per round from the
    /// guard template, which redoes only the frozen equalities.
    templates: Option<TreatyTemplates>,
}

impl CompiledRow {
    fn new(guard: &BExp, db: &Database, loc: &Loc, sites: usize) -> Self {
        let guard = GuardTemplate::new(guard);
        let templates = guard
            .is_linear()
            .then(|| TreatyTemplates::generate(&guard.instantiate(db), loc, sites));
        CompiledRow { guard, templates }
    }
}

impl ProgramSet {
    /// Expands a wire bundle into a program set for a cluster of `sites`
    /// sites: parse every source, check it is parameterless and respects
    /// Assumption 3.1 (all writes on one site), and build the joint
    /// symbolic table.
    ///
    /// Errors are returned (never panicked) — bundles arrive over the wire
    /// from possibly-confused clients.
    pub fn from_bundle(bundle: &ProgramBundle, sites: usize) -> Result<Self, String> {
        let mut transactions = Vec::with_capacity(bundle.sources.len());
        for (i, src) in bundle.sources.iter().enumerate() {
            let txn = homeo_lang::parse_transaction(src)
                .map_err(|e| format!("program {i}: parse error: {e}"))?;
            if !txn.params.is_empty() {
                return Err(format!(
                    "program {i} (`{}`) has parameters; register pre-instantiated transactions",
                    txn.name
                ));
            }
            transactions.push(txn);
        }
        Self::build(
            transactions,
            bundle.sources.clone(),
            bundle.loc(),
            sites,
            bundle.optimizer,
        )
    }

    /// Builds a program set directly from parsed transactions (the serial
    /// oracle's path; trusted input, so a program that breaks Assumption
    /// 3.1 panics).
    pub fn from_transactions(
        transactions: Vec<Transaction>,
        loc: Loc,
        sites: usize,
        optimizer: Option<OptimizerConfig>,
    ) -> Self {
        assert!(
            transactions.iter().all(|t| t.params.is_empty()),
            "the general protocol requires parameterless (pre-instantiated) transactions"
        );
        let sources = transactions.iter().map(printable_source).collect();
        Self::build(transactions, sources, loc, sites, optimizer).unwrap_or_else(|e| panic!("{e}"))
    }

    fn build(
        transactions: Vec<Transaction>,
        sources: Vec<String>,
        loc: Loc,
        sites: usize,
        optimizer: Option<OptimizerConfig>,
    ) -> Result<Self, String> {
        let mut homes = Vec::with_capacity(transactions.len());
        for (i, txn) in transactions.iter().enumerate() {
            let home = txn.write_set().first().map_or(0, |o| loc.site_of(o));
            if !loc.all_writes_local(txn, home) {
                return Err(format!(
                    "program {i} (`{}`) writes objects on multiple sites (Assumption 3.1)",
                    txn.name
                ));
            }
            homes.push(home);
        }
        let tables: Vec<SymbolicTable> = transactions.iter().map(SymbolicTable::analyze).collect();
        let joint = JointSymbolicTable::build(&tables);
        Ok(ProgramSet {
            transactions,
            sources,
            joint,
            compiled: BTreeMap::new(),
            homes,
            loc,
            optimizer,
            treaties: TreatyTable::new(sites),
            sites,
        })
    }

    /// Number of registered transactions.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether no transactions are registered.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// The registered transactions, in index order.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// The registered sources, in index order.
    pub fn sources(&self) -> &[String] {
        &self.sources
    }

    /// The location map.
    pub fn loc(&self) -> &Loc {
        &self.loc
    }

    /// The number of sites the set negotiates for.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// The current treaty table.
    pub fn treaties(&self) -> &TreatyTable {
        &self.treaties
    }

    /// The site a transaction runs on: the site holding its write set
    /// (Assumption 3.1). `None` for an out-of-range index.
    pub fn home_site(&self, index: usize) -> Option<SiteId> {
        self.homes.get(index).copied()
    }

    /// Runs transaction `index` at `site` and checks `site`'s local treaty
    /// on its post-state *before* commit (Section 3.2): the check reads the
    /// transaction's staged write of an object where there is one and
    /// `engine`'s committed value otherwise. A violation aborts the engine
    /// transaction ([`crate::exec::ExecStatus::Refused`]), so nothing of it
    /// is applied or logged and the caller synchronizes before re-running
    /// it. Errs with [`ExecError::NotHome`] unless `site` is the
    /// transaction's home.
    pub fn run_local(
        &self,
        site: SiteId,
        engine: &Engine,
        index: usize,
    ) -> Result<ExecResult, ExecError> {
        if self.home_site(index) != Some(site) {
            return Err(ExecError::NotHome(index));
        }
        run_on_engine(engine, &self.transactions[index], &[], |writes| {
            self.local_holds_with(site, |name| {
                writes
                    .get(name)
                    .copied()
                    .unwrap_or_else(|| engine.peek(name))
            })
        })
    }

    /// Whether `site`'s local treaty holds on its current view.
    pub fn local_holds(&self, site: SiteId, view: &Database) -> bool {
        self.treaties.local(site).holds_on(view)
    }

    /// [`Self::local_holds`] against wherever the site keeps its objects:
    /// `value_of` is asked for the objects the local treaty mentions and no
    /// others, so the check costs the size of the treaty, not of the store.
    pub fn local_holds_with(&self, site: SiteId, value_of: impl FnMut(&str) -> i64) -> bool {
        self.treaties.local(site).holds_with(value_of)
    }

    /// The lockstep negotiation round counter.
    pub fn round(&self) -> u64 {
        self.treaties.round
    }

    /// Overrides the round counter (a restarted site resynchronizing to the
    /// cluster's counter before renegotiating — the seed depends on it).
    pub fn set_round(&mut self, round: u64) {
        self.treaties.round = round;
    }

    /// Treaty generation for a round starting from `db` — the single shared
    /// negotiation path of the general protocol. With an optimizer, Algorithm
    /// 1 picks the configuration and then every `≤` clause's H1 slack goes,
    /// in equal shares, to the sites holding part of the clause, so a local
    /// treaty lasts until its site's share of that headroom is used up
    /// instead of for about `lookahead` sampled steps; without one, the
    /// configuration is Theorem 4.3's default. Both steps are deterministic:
    /// every caller with the same `(db, round, optimizer seed)` derives
    /// byte-identical treaties, which is how the cluster distributes
    /// treaties without sending them — each site negotiates locally from the
    /// installed global state, and a restarted site that rewinds its round
    /// counter ([`Self::set_round`]) re-derives the cluster's. Returns the
    /// solver time in microseconds as measured by `timer`.
    pub fn negotiate(&mut self, db: &Database, timer: Timer) -> u64 {
        let (loc, sites) = (&self.loc, self.sites);
        // ψ-selection; a database no row admits negotiates the trivial
        // treaty.
        let fallback;
        let row = match self.joint.find_row_index(db) {
            Ok(Some(index)) => self
                .compiled
                .entry(index)
                .or_insert_with(|| CompiledRow::new(&self.joint.rows[index].guard, db, loc, sites)),
            _ => {
                fallback = CompiledRow::new(&BExp::True, db, loc, sites);
                &fallback
            }
        };
        let regenerated;
        let templates = match &row.templates {
            Some(templates) => templates,
            None => {
                regenerated = TreatyTemplates::generate(&row.guard.instantiate(db), loc, sites);
                &regenerated
            }
        };
        let (config, solver_micros) = match &self.optimizer {
            Some(cfg) => {
                // Workload model: pick one of the registered transactions
                // uniformly at random and apply it through direct evaluation.
                let transactions = &self.transactions;
                let mut model = |current: &Database, rng: &mut homeo_sim::DetRng| {
                    let idx = rng.index(transactions.len());
                    match homeo_lang::Evaluator::eval(&transactions[idx], current, &[]) {
                        Ok(out) => out.database,
                        Err(_) => current.clone(),
                    }
                };
                let seeded = OptimizerConfig {
                    seed: cfg.seed.wrapping_add(self.treaties.round),
                    ..*cfg
                };
                let mut result = optimize_timed(templates, db, &mut model, &seeded, timer);
                // The tightened configuration admits about `lookahead`
                // steps of the model; the headroom H1 leaves beyond them
                // goes to the sites that hold each clause.
                templates.spend_h1_slack(&mut result.config);
                (result.config, result.solver_micros)
            }
            None => (templates.default_config(db), 0),
        };
        debug_assert!(templates.satisfies_h1(&config) && templates.config_is_valid(&config));
        debug_assert!(templates.group_holds(&templates.soft_group_for_db(db), &config));
        self.treaties
            .install(templates.global(), templates.local_treaties(&config));
        solver_micros
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeo_lang::programs;

    fn example_bundle() -> ProgramBundle {
        let loc = Loc::from_pairs([("x", 0usize), ("y", 1usize)]);
        let db = Database::from_pairs([("x", 10), ("y", 13)]);
        ProgramBundle::from_transactions(&[programs::t1(), programs::t2()], &loc, &db, None)
    }

    #[test]
    fn bundle_round_trips_through_source_text() {
        let bundle = example_bundle();
        let set = ProgramSet::from_bundle(&bundle, 2).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.transactions()[0], programs::t1());
        assert_eq!(set.transactions()[1], programs::t2());
        assert_eq!(set.home_site(0), Some(0));
        assert_eq!(set.home_site(1), Some(1));
        assert_eq!(set.home_site(2), None);
    }

    #[test]
    fn negotiation_is_deterministic_across_independent_sets() {
        let bundle = ProgramBundle {
            optimizer: Some(OptimizerConfig::default()),
            ..example_bundle()
        };
        let db = Database::from_pairs([("x", 10), ("y", 13)]);
        let mut a = ProgramSet::from_bundle(&bundle, 2).unwrap();
        let mut b = ProgramSet::from_bundle(&bundle, 2).unwrap();
        a.negotiate(&db, Timer::fixed_zero());
        b.negotiate(&db, Timer::fixed_zero());
        assert_eq!(a.treaties(), b.treaties());
        assert_eq!(a.round(), 1);
        // A restarted site that resyncs its round counter re-derives the
        // same treaties.
        let db2 = Database::from_pairs([("x", 30), ("y", 4)]);
        a.negotiate(&db2, Timer::fixed_zero());
        let mut c = ProgramSet::from_bundle(&bundle, 2).unwrap();
        c.set_round(1);
        c.negotiate(&db2, Timer::fixed_zero());
        assert_eq!(a.treaties(), c.treaties());
    }

    /// Two order-or-refill programs (`a` at site 0, `b` at site 1) and one
    /// whose branch depends on the product `a·b`: every joint row carries a
    /// non-linear conjunct, so ψ freezes `a` and `b` at the round's values.
    fn product_bundle() -> ProgramBundle {
        use homeo_lang::builder::{assign, ite, num, read, var, write, TxnBuilder};
        let mut product = TxnBuilder::new("Product");
        product.push(assign("p", read("a").mul(read("b"))));
        product.push(ite(
            var("p").gt(num(4)),
            write("c", read("c").sub(num(1))),
            write("c", num(9)),
        ));
        let txns = [
            programs::order_for_object(ObjId::new("a"), 6),
            programs::order_for_object(ObjId::new("b"), 6),
            product.build(),
        ];
        let loc = Loc::from_pairs([("a", 0usize), ("b", 1usize), ("c", 0usize)]);
        let db = Database::from_pairs([("a", 5), ("b", 5), ("c", 5)]);
        let optimizer = OptimizerConfig {
            lookahead: 6,
            futures: 2,
            seed: 21,
        };
        ProgramBundle::from_transactions(&txns, &loc, &db, Some(optimizer))
    }

    #[test]
    fn cached_rows_negotiate_like_a_fresh_set() {
        // Rounds from states that select different joint rows — both
        // branches of each order program (`a ≤ 1` refills), both sides of
        // the product — and that revisit a row with different frozen values
        // (rounds 0 and 3) and with the very same database (0 and 6).
        let states: [[i64; 3]; 7] = [
            [5, 5, 5],
            [1, 5, 5],
            [5, 1, 3],
            [4, 5, 5],
            [1, 1, 9],
            [2, 2, 1],
            [5, 5, 5],
        ];
        let db_of = |[a, b, c]: [i64; 3]| Database::from_pairs([("a", a), ("b", b), ("c", c)]);
        let bundle = product_bundle();
        let mut long_lived = ProgramSet::from_bundle(&bundle, 2).unwrap();
        let mut installed = Vec::new();
        for (round, state) in states.into_iter().enumerate() {
            let db = db_of(state);
            long_lived.negotiate(&db, Timer::fixed_zero());
            let mut fresh = ProgramSet::from_bundle(&bundle, 2).unwrap();
            fresh.set_round(round as u64);
            fresh.negotiate(&db, Timer::fixed_zero());
            assert_eq!(long_lived.treaties(), fresh.treaties(), "round {round}");
            assert!(long_lived.treaties().all_locals_hold_on(&db));
            installed.push(long_lived.treaties().clone());
        }
        // The rows differ (the guard's frozen part does, at least), so the
        // cache is exercised, and it holds one entry per distinct row.
        assert_ne!(installed[0].global, installed[1].global);
        assert_ne!(installed[0].global, installed[3].global);
        assert!((4..7).contains(&long_lived.compiled.len()));
        // A site that restarts mid-run rewinds the round counter and must
        // re-derive any earlier round from its warm cache.
        for round in [3usize, 0, 5] {
            long_lived.set_round(round as u64);
            long_lived.negotiate(&db_of(states[round]), Timer::fixed_zero());
            assert_eq!(long_lived.treaties(), &installed[round], "round {round}");
        }
    }

    #[test]
    fn a_local_treaty_reads_only_the_objects_it_mentions() {
        let bundle = ProgramBundle {
            optimizer: Some(OptimizerConfig::default()),
            ..example_bundle()
        };
        let db = Database::from_pairs([("x", 10), ("y", 13)]);
        let mut set = ProgramSet::from_bundle(&bundle, 2).unwrap();
        set.negotiate(&db, Timer::fixed_zero());
        for site in 0..2 {
            let mut asked = Vec::new();
            let holds = set.local_holds_with(site, |name| {
                asked.push(name.to_string());
                db.get_by_name(name)
            });
            assert_eq!(holds, set.local_holds(site, &db));
            assert_eq!(asked, [["x"], ["y"]][site], "site {site}");
        }
    }

    #[test]
    fn run_local_aborts_a_violation_before_commit() {
        use crate::exec::ExecStatus;
        let bundle = ProgramBundle {
            optimizer: Some(OptimizerConfig::default()),
            ..example_bundle()
        };
        let db = Database::from_pairs([("x", 10), ("y", 13)]);
        let mut set = ProgramSet::from_bundle(&bundle, 2).unwrap();
        set.negotiate(&db, Timer::fixed_zero());
        let engine = Engine::new();
        for (obj, value) in db.iter() {
            engine.write_logged(obj.as_str(), value).unwrap();
        }
        // t1 runs where x lives; an unknown index runs nowhere.
        assert_eq!(set.run_local(1, &engine, 0), Err(ExecError::NotHome(0)));
        assert_eq!(set.run_local(0, &engine, 2), Err(ExecError::NotHome(2)));
        // t1 decrements x within site 0's treaty until one more would
        // break it: the check reads that staged post-state, and the run
        // aborts with memory as it was and only Begin/Abort logged.
        let mut commits = 0;
        let refused = loop {
            let (before, log_len) = (engine.snapshot(), engine.wal_len());
            let result = set.run_local(0, &engine, 0).unwrap();
            if result.status == ExecStatus::Refused {
                assert_eq!(engine.snapshot(), before);
                assert_eq!(engine.wal_len(), log_len + 2, "Begin and Abort only");
                break result;
            }
            assert_eq!(result.status, ExecStatus::Committed);
            assert!(set.local_holds_with(0, |name| engine.peek(name)));
            commits += 1;
            assert!(commits < 100, "t1 never left the treaty");
        };
        assert!(commits > 0, "the treaty leaves t1 some slack");
        let post = |name: &str| {
            refused
                .writes
                .get(name)
                .copied()
                .unwrap_or(engine.peek(name))
        };
        assert!(!set.local_holds_with(0, post));
    }

    #[test]
    fn malformed_bundles_are_rejected_not_panicked() {
        let mut bundle = example_bundle();
        bundle.sources[0] = "txn broken { write(".to_string();
        assert!(ProgramSet::from_bundle(&bundle, 2).is_err());

        let mut bundle = example_bundle();
        // Relocate `x` to site 1 so t1 (writes x, runs where x lives)
        // stays fine, then break Assumption 3.1 with a program writing
        // objects on two sites.
        bundle.sources = vec!["txn split { write(x = 1); write(y = 2); }".to_string()];
        assert!(ProgramSet::from_bundle(&bundle, 2).is_err());
    }
}
