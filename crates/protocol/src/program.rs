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
//! treaty tables without a single treaty crossing the wire.
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

use serde::{Deserialize, Serialize};

use homeo_analysis::{JointSymbolicTable, SymbolicTable};
use homeo_lang::ast::Transaction;
use homeo_lang::database::Database;
use homeo_lang::ids::ObjId;
use homeo_sim::Timer;

use crate::model::{Loc, SiteId};
use crate::optimizer::{optimize_timed, OptimizerConfig};
use crate::templates::{preprocess_guard, TreatyTemplates};
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
/// The analysis (symbolic tables, joint table) runs once at registration;
/// every subsequent [`Self::negotiate`] reuses it, which is what keeps
/// general-path synchronization rounds cheap.
#[derive(Debug, Clone)]
pub struct ProgramSet {
    transactions: Vec<Transaction>,
    sources: Vec<String>,
    joint: JointSymbolicTable,
    loc: Loc,
    optimizer: Option<OptimizerConfig>,
    treaties: TreatyTable,
    sites: usize,
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
        let loc = bundle.loc();
        for (i, txn) in transactions.iter().enumerate() {
            let site = Self::write_site(txn, &loc);
            if !loc.all_writes_local(txn, site) {
                return Err(format!(
                    "program {i} (`{}`) writes objects on multiple sites (Assumption 3.1)",
                    txn.name
                ));
            }
        }
        Ok(Self::build(
            transactions,
            bundle.sources.clone(),
            loc,
            sites,
            bundle.optimizer,
        ))
    }

    /// Builds a program set directly from parsed transactions (the serial
    /// oracle's path; trusted input, so Assumption 3.1 is debug-asserted at
    /// execution time rather than checked here).
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
        Self::build(transactions, sources, loc, sites, optimizer)
    }

    fn build(
        transactions: Vec<Transaction>,
        sources: Vec<String>,
        loc: Loc,
        sites: usize,
        optimizer: Option<OptimizerConfig>,
    ) -> Self {
        let tables: Vec<SymbolicTable> = transactions.iter().map(SymbolicTable::analyze).collect();
        let joint = JointSymbolicTable::build(&tables);
        ProgramSet {
            transactions,
            sources,
            joint,
            loc,
            optimizer,
            treaties: TreatyTable::new(sites),
            sites,
        }
    }

    fn write_site(txn: &Transaction, loc: &Loc) -> SiteId {
        txn.write_set()
            .iter()
            .next()
            .map(|o| loc.site_of(o))
            .unwrap_or(0)
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
        let txn = self.transactions.get(index)?;
        let site = Self::write_site(txn, &self.loc);
        debug_assert!(
            self.loc.all_writes_local(txn, site),
            "transaction {} violates Assumption 3.1",
            txn.name
        );
        Some(site)
    }

    /// Whether `site`'s local treaty holds on its current view.
    pub fn local_holds(&self, site: SiteId, view: &Database) -> bool {
        self.treaties.local(site).holds_on(view)
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
    /// negotiation path of the general protocol. Every caller with the same
    /// `(db, round, optimizer seed)` derives byte-identical treaties, which
    /// is how the cluster distributes treaties without sending them: each
    /// site negotiates locally from the installed global state. Returns the
    /// solver time in microseconds as measured by `timer`.
    pub fn negotiate(&mut self, db: &Database, timer: Timer) -> u64 {
        let row = match self.joint.find_row(db) {
            Ok(Some(row)) => row.guard.clone(),
            _ => homeo_lang::ast::BExp::True,
        };
        let psi = preprocess_guard(&row, db);
        let templates = TreatyTemplates::generate(&psi, &self.loc, self.sites);
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
                let result = optimize_timed(&templates, db, &mut model, &seeded, timer);
                (result.config, result.solver_micros)
            }
            None => (templates.default_config(db), 0),
        };
        let locals = templates.local_treaties(&config, db);
        debug_assert!(templates.config_is_valid(&config, db));
        self.treaties.install(templates.global(), locals);
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
