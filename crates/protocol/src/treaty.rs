//! Global and local treaties (Definitions 3.6, 3.7 and Section 4.1).
//!
//! A **global treaty** Γ is a set of database states, represented
//! intensionally as a conjunction of linear constraints over object values.
//! A **local treaty** ϕΓᵢ is a constraint that mentions only objects stored
//! at site `i`; the conjunction of all local treaties must imply the global
//! treaty (H1), and every local treaty must hold on the database the round
//! started from (H2).

use serde::{Deserialize, Serialize};

use homeo_lang::database::Database;
use homeo_lang::ids::ObjId;
use homeo_solver::LinearConstraint;

use crate::model::{Loc, SiteId};

/// Evaluates a set of linear constraints against a database (constraint
/// variables are object names).
pub fn constraints_hold_on(constraints: &[LinearConstraint], db: &Database) -> bool {
    constraints_hold_with(constraints, |name| db.get_by_name(name))
}

/// Evaluates a set of linear constraints, reading each object a constraint
/// mentions (and nothing else) through `value_of`.
pub fn constraints_hold_with(
    constraints: &[LinearConstraint],
    mut value_of: impl FnMut(&str) -> i64,
) -> bool {
    constraints.iter().all(|c| c.holds_with(&mut value_of))
}

/// The global treaty: a conjunction of linear constraints over the global
/// database state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalTreaty {
    /// The constraints.
    pub constraints: Vec<LinearConstraint>,
}

impl GlobalTreaty {
    /// Creates a treaty from constraints.
    pub fn new(constraints: Vec<LinearConstraint>) -> Self {
        GlobalTreaty { constraints }
    }

    /// True when the treaty holds on the database.
    pub fn holds_on(&self, db: &Database) -> bool {
        constraints_hold_on(&self.constraints, db)
    }

    /// The objects mentioned by the treaty.
    pub fn objects(&self) -> Vec<ObjId> {
        let mut out: Vec<ObjId> = self
            .constraints
            .iter()
            .flat_map(|c| c.vars().map(|v| ObjId::new(v.clone())))
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

/// A local treaty: constraints whose variables are all objects local to one
/// site.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalTreaty {
    /// The site that enforces this treaty.
    pub site: SiteId,
    /// The constraints (over local objects only).
    pub constraints: Vec<LinearConstraint>,
}

impl LocalTreaty {
    /// Creates a local treaty.
    pub fn new(site: SiteId, constraints: Vec<LinearConstraint>) -> Self {
        LocalTreaty { site, constraints }
    }

    /// True when the treaty holds on the (site-local view of the) database.
    pub fn holds_on(&self, db: &Database) -> bool {
        constraints_hold_on(&self.constraints, db)
    }

    /// True when the treaty holds on the values `value_of` reports: only the
    /// objects the treaty mentions are read, so a site checks it against
    /// its engine without materialising a view.
    pub fn holds_with(&self, value_of: impl FnMut(&str) -> i64) -> bool {
        constraints_hold_with(&self.constraints, value_of)
    }

    /// Checks that every mentioned object really is local to the treaty's
    /// site under `loc`.
    pub fn is_well_located(&self, loc: &Loc) -> bool {
        self.constraints
            .iter()
            .flat_map(|c| c.vars())
            .all(|v| loc.is_local(&ObjId::new(v.clone()), self.site))
    }
}

/// The treaty table kept by the protocol: the current global treaty and the
/// per-site local treaties for the current round (Section 5.1's "treaty
/// table" data structure).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreatyTable {
    /// The global treaty of the current round.
    pub global: GlobalTreaty,
    /// The per-site local treaties (indexed by site id).
    pub locals: Vec<LocalTreaty>,
    /// The round number (starts at 0, incremented at every renegotiation).
    pub round: u64,
}

impl TreatyTable {
    /// Creates a treaty table for `sites` sites with trivial (empty) treaties.
    pub fn new(sites: usize) -> Self {
        TreatyTable {
            global: GlobalTreaty::default(),
            locals: (0..sites)
                .map(|s| LocalTreaty::new(s, Vec::new()))
                .collect(),
            round: 0,
        }
    }

    /// Installs a new round's treaties.
    pub fn install(&mut self, global: GlobalTreaty, locals: Vec<LocalTreaty>) {
        self.global = global;
        self.locals = locals;
        self.round += 1;
    }

    /// The local treaty of a site.
    pub fn local(&self, site: SiteId) -> &LocalTreaty {
        &self.locals[site]
    }

    /// True when every local treaty holds on the given (global) database —
    /// by H1 this implies the global treaty holds as well.
    pub fn all_locals_hold_on(&self, db: &Database) -> bool {
        self.locals.iter().all(|l| l.holds_on(db))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeo_solver::LinExpr;

    fn ge(var: &str, n: i64) -> LinearConstraint {
        LinearConstraint::ge(LinExpr::var(var), LinExpr::constant(n))
    }

    #[test]
    fn global_treaty_evaluation() {
        let t = GlobalTreaty::new(vec![LinearConstraint::ge(
            LinExpr::var("x").plus(&LinExpr::var("y")),
            LinExpr::constant(20),
        )]);
        assert!(t.holds_on(&Database::from_pairs([("x", 10), ("y", 13)])));
        assert!(!t.holds_on(&Database::from_pairs([("x", 10), ("y", 9)])));
        assert_eq!(t.objects(), vec![ObjId::new("x"), ObjId::new("y")]);
    }

    #[test]
    fn missing_objects_default_to_zero() {
        let t = GlobalTreaty::new(vec![ge("q", 1)]);
        assert!(!t.holds_on(&Database::new()));
        assert!(t.holds_on(&Database::from_pairs([("q", 5)])));
    }

    #[test]
    fn local_treaty_location_check() {
        let loc = Loc::from_pairs([("x", 0usize), ("y", 1usize)]);
        let ok = LocalTreaty::new(0, vec![ge("x", 0)]);
        let bad = LocalTreaty::new(0, vec![ge("y", 0)]);
        assert!(ok.is_well_located(&loc));
        assert!(!bad.is_well_located(&loc));
    }

    #[test]
    fn treaty_table_rounds_and_checks() {
        let mut table = TreatyTable::new(2);
        assert_eq!(table.round, 0);
        assert!(table.all_locals_hold_on(&Database::new()));
        table.install(
            GlobalTreaty::new(vec![ge("q", 0)]),
            vec![
                LocalTreaty::new(0, vec![ge("dq0", -2)]),
                LocalTreaty::new(1, vec![ge("dq1", -2)]),
            ],
        );
        assert_eq!(table.round, 1);
        let db = Database::from_pairs([("q", 10), ("dq0", -1), ("dq1", -2)]);
        assert!(table.all_locals_hold_on(&db));
        let db2 = Database::from_pairs([("q", 10), ("dq0", -3)]);
        assert!(!table.all_locals_hold_on(&db2));
        assert!(table.local(1).holds_on(&db2));
    }
}
