//! Treaty preprocessing, local-treaty templates and the always-valid default
//! configuration (Section 4.2, Theorem 4.3, Appendix C.1).
//!
//! Starting from the symbolic-table row ψ satisfied by the current database:
//!
//! 1. **preprocess** ψ into a (stronger) conjunction of linear constraints —
//!    non-linear or disjunctive subformulas are replaced by freezing the
//!    involved objects at their current values (Appendix C.1);
//! 2. **generate templates**: every clause `Σ dᵢxᵢ ⋈ n` becomes, for each
//!    site `k`, `Σ_{Loc(xᵢ)=k} dᵢxᵢ + c_k ⋈ n` with a fresh configuration
//!    variable `c_k`;
//! 3. instantiate the configuration variables — either with the default
//!    assignment of Theorem 4.3 (always valid) or with values chosen by the
//!    workload-driven optimizer (Algorithm 1, [`crate::optimizer`]), whose
//!    leftover H1 slack the general path then hands to the sites holding
//!    each clause ([`TreatyTemplates::spend_h1_slack`]).
//!
//! The exact validity condition (H1) for these templates reduces to linear
//! constraints over the configuration variables (`Σ_k c_k ≥ (K-1)·n` for
//! `≤`-clauses after normalisation, equality for `=`-clauses), which is what
//! the optimizer hands to the MaxSMT engine as hard constraints.
//!
//! # The configuration table
//!
//! A configuration is a dense `Vec<i64>`: the variable `c{idx}@{k}` of
//! clause `idx` at site `k` lives at index `idx·sites + k`
//! ([`TreatyTemplates::config_index`]). Everything a negotiation computes per
//! round — the default configuration, the bounds a sampled state demands
//! (a soft group is one `bound − local_now` per variable), the tightened
//! configuration, the H1 check — is a pass over such vectors. So is the
//! MaxSMT call: every row of its system but H1 bounds a single variable, so
//! nothing is eliminated and a feasibility probe is a sum of per-variable
//! minima ([`TreatyTemplates::solve_boxes`]).

use homeo_analysis::linearize::conjuncts_to_constraints;
use homeo_lang::ast::BExp;
use homeo_lang::database::Database;
use homeo_lang::ids::ObjId;
use homeo_solver::maxsmt::{search, MaxSmtResult};
use homeo_solver::{fm, CmpKind, Feasibility, LinExpr, LinearConstraint, VarName};
use serde::{Deserialize, Serialize};

use crate::model::Loc;
use crate::treaty::{GlobalTreaty, LocalTreaty};

/// A symbolic-table guard ψ linearized once, conjunct by conjunct, so that
/// only the part that depends on the database is redone per round.
///
/// Linearizable conjuncts pass through unchanged. Any conjunct that cannot
/// be expressed as a single conjunction of linear constraints (non-linear
/// arithmetic, disjunctions arising from negated conjunctions or negated
/// equalities) is replaced by equality constraints freezing every object it
/// mentions at its current value — exactly the Appendix C.1 construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardTemplate {
    /// One piece per conjunct, in ψ's order.
    pieces: Vec<GuardPiece>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum GuardPiece {
    /// A linearizable conjunct's constraints.
    Linear(Vec<LinearConstraint>),
    /// The objects a non-linearizable conjunct reads, to be frozen.
    Frozen(Vec<ObjId>),
}

impl GuardTemplate {
    /// Linearizes the conjuncts of `guard`.
    pub fn new(guard: &BExp) -> Self {
        let mut conjuncts = Vec::new();
        flatten_conjuncts(guard, &mut conjuncts);
        let pieces = conjuncts
            .into_iter()
            .map(|conjunct| match conjuncts_to_constraints(conjunct) {
                Ok(cs) => GuardPiece::Linear(cs),
                Err(_) => GuardPiece::Frozen(conjunct.reads().into_iter().collect()),
            })
            .collect();
        GuardTemplate { pieces }
    }

    /// True when no conjunct had to be frozen: [`Self::instantiate`] then
    /// returns the same ψ for every database.
    pub fn is_linear(&self) -> bool {
        let mut pieces = self.pieces.iter();
        pieces.all(|piece| matches!(piece, GuardPiece::Linear(_)))
    }

    /// The preprocessed ψ at `db` (which must satisfy the guard): a
    /// conjunction of linear constraints that implies it, frozen objects at
    /// their values in `db`, duplicates and implied constraints dropped —
    /// which keeps the treaty, and therefore the templates, as small as the
    /// paper's hand-derived ψ.
    pub fn instantiate(&self, db: &Database) -> Vec<LinearConstraint> {
        let mut out = Vec::new();
        for piece in &self.pieces {
            match piece {
                GuardPiece::Linear(cs) => out.extend(cs.iter().cloned()),
                GuardPiece::Frozen(objects) => out.extend(objects.iter().map(|obj| {
                    LinearConstraint::eq(LinExpr::var(obj.as_str()), LinExpr::constant(db.get(obj)))
                })),
            }
        }
        out.dedup();
        fm::remove_redundant(out)
    }
}

/// Preprocesses a symbolic-table guard ψ into a conjunction of linear
/// constraints that implies it, given the current database `db` (which must
/// satisfy ψ): [`GuardTemplate::instantiate`] without keeping the template.
pub fn preprocess_guard(guard: &BExp, db: &Database) -> Vec<LinearConstraint> {
    GuardTemplate::new(guard).instantiate(db)
}

fn flatten_conjuncts<'a>(b: &'a BExp, out: &mut Vec<&'a BExp>) {
    match b {
        BExp::And(l, r) => {
            flatten_conjuncts(l, out);
            flatten_conjuncts(r, out);
        }
        BExp::True => {}
        other => out.push(other),
    }
}

/// One clause of the preprocessed global treaty, split by site.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClauseTemplate {
    /// The comparison (strict `<` is tightened to `≤` over the integers).
    pub op: CmpKind,
    /// The right-hand side `n` of `Σ dᵢxᵢ ⋈ n`.
    pub bound: i64,
    /// The per-site local parts `Σ_{Loc(xᵢ)=k} dᵢxᵢ` (indexed by site).
    pub site_terms: Vec<LinExpr>,
    /// The per-site configuration variable names (indexed by site).
    pub config_vars: Vec<VarName>,
    /// The full (global) left-hand side.
    pub full_lhs: LinExpr,
}

impl ClauseTemplate {
    /// The comparison of everything the clause instantiates: `=` or `≤`.
    fn relation(&self) -> CmpKind {
        match self.op {
            CmpKind::Le | CmpKind::Lt => CmpKind::Le,
            CmpKind::Eq => CmpKind::Eq,
        }
    }

    /// `lhs + shift ⋈ bound` in the clause's orientation.
    fn instantiate(&self, lhs: &LinExpr, shift: i64) -> LinearConstraint {
        let mut expr = lhs.clone();
        expr.add_constant(shift - self.bound);
        LinearConstraint {
            expr,
            op: self.relation(),
        }
    }
}

/// The set of clause templates for one protocol round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreatyTemplates {
    /// Number of sites.
    pub sites: usize,
    /// The clauses.
    pub clauses: Vec<ClauseTemplate>,
}

impl TreatyTemplates {
    /// Generates templates from a preprocessed conjunction of linear
    /// constraints.
    pub fn generate(psi: &[LinearConstraint], loc: &Loc, sites: usize) -> Self {
        let clauses = psi
            .iter()
            .enumerate()
            .map(|(idx, c)| {
                let tightened = c.tightened();
                // tightened.expr ⋈ 0  ⇔  lhs ⋈ bound with bound = -constant.
                let bound = -tightened.expr.constant_part();
                let mut lhs = tightened.expr;
                lhs.add_constant(bound); // remove the constant part
                let mut site_terms = vec![LinExpr::zero(); sites];
                for (var, coeff) in lhs.terms() {
                    let site = loc.site_of(&ObjId::new(var));
                    site_terms[site].add_term(var.clone(), coeff);
                }
                let config_vars = (0..sites).map(|k| format!("c{idx}@{k}")).collect();
                ClauseTemplate {
                    op: tightened.op,
                    bound,
                    site_terms,
                    config_vars,
                    full_lhs: lhs,
                }
            })
            .collect();
        TreatyTemplates { sites, clauses }
    }

    /// Where the configuration variable of clause `clause` at site `site`
    /// lives in a configuration.
    pub fn config_index(&self, clause: usize, site: usize) -> usize {
        clause * self.sites + site
    }

    /// The comparison each configuration variable is bounded by.
    pub(crate) fn relations(&self) -> impl Iterator<Item = CmpKind> + '_ {
        let per_clause = self.clauses.iter().map(ClauseTemplate::relation);
        per_clause.flat_map(move |op| std::iter::repeat_n(op, self.sites))
    }

    /// The global treaty these templates enforce.
    pub fn global(&self) -> GlobalTreaty {
        let clauses = self.clauses.iter();
        GlobalTreaty::new(clauses.map(|c| c.instantiate(&c.full_lhs, 0)).collect())
    }

    /// The always-valid default configuration of Theorem 4.3.
    ///
    /// * equality clauses: `c_k` is the remote part evaluated on `db`;
    /// * inequality clauses: `c_k = n - (local part evaluated on db)`, so the
    ///   local treaty becomes "the local sum never exceeds its current
    ///   value".
    pub fn default_config(&self, db: &Database) -> Vec<i64> {
        let mut config = Vec::with_capacity(self.clauses.len() * self.sites);
        for clause in &self.clauses {
            let target = match clause.relation() {
                CmpKind::Eq => eval_on_db(&clause.full_lhs, db),
                _ => clause.bound,
            };
            let locals = clause.site_terms.iter();
            config.extend(locals.map(|local| target - eval_on_db(local, db)));
        }
        config
    }

    /// The bound each configuration variable must respect for *all* local
    /// treaties to hold on the given database (`c ≤ bound − local_now`, or
    /// `=` for an equality clause) — the per-sampled-state soft group of
    /// Algorithm 1.
    pub fn soft_group_for_db(&self, db: &Database) -> Vec<i64> {
        let mut group = Vec::with_capacity(self.clauses.len() * self.sites);
        for clause in &self.clauses {
            let locals = clause.site_terms.iter();
            group.extend(locals.map(|local| clause.bound - eval_on_db(local, db)));
        }
        group
    }

    /// Whether `config` respects every bound of a soft group.
    pub fn group_holds(&self, group: &[i64], config: &[i64]) -> bool {
        let mut rows = self.relations().zip(config.iter().zip(group));
        rows.all(|(op, (value, bound))| op.eval(*value, *bound))
    }

    /// H1 by arithmetic: the hard rows `Σ_k c_k ≥ (K-1)·n` (`=` for an
    /// equality clause) evaluated on `config`. Sufficient for
    /// [`Self::config_is_valid`] always, and equivalent to it on every
    /// configuration the optimizer derives from a feasible hard system —
    /// the release path checks this and leaves the implication to debug
    /// assertions and tests.
    pub fn satisfies_h1(&self, config: &[i64]) -> bool {
        debug_assert_eq!(config.len(), self.clauses.len() * self.sites);
        let required = self.sites as i64 - 1;
        let sums = config.chunks(self.sites.max(1));
        self.clauses.iter().zip(sums).all(|(clause, values)| {
            let sum: i64 = values.iter().sum();
            match clause.relation() {
                CmpKind::Eq => sum == required * clause.bound,
                _ => sum >= required * clause.bound,
            }
        })
    }

    /// Hands each `≤` clause's H1 slack — what `Σ_k c_k` exceeds
    /// `(K-1)·n` by — to the sites holding part of the clause: an equal
    /// share each, the remainder one unit at a time to the lowest-indexed
    /// holders. Lowering `c_k` only loosens site `k`'s local treaty, so every
    /// bound `config` met (H2, each selected soft group) still holds, and the
    /// clause ends at `Σ_k c_k = (K-1)·n`, which is still H1. A site with no
    /// term in the clause would gain nothing from a lower `c_k`, and an `=`
    /// clause has no slack: both are left as they are. The result depends on
    /// the templates and `config` alone, so sites that derive `config` in
    /// lockstep derive the same spent configuration.
    pub fn spend_h1_slack(&self, config: &mut [i64]) {
        debug_assert_eq!(config.len(), self.clauses.len() * self.sites);
        let required = self.sites as i64 - 1;
        let rows = self
            .clauses
            .iter()
            .zip(config.chunks_mut(self.sites.max(1)));
        for (clause, values) in rows {
            let holds = |k: &usize| !clause.site_terms[*k].is_constant();
            let holders = (0..self.sites).filter(holds).count() as i64;
            let slack = values.iter().sum::<i64>() - required * clause.bound;
            if clause.relation() == CmpKind::Eq || holders == 0 || slack <= 0 {
                continue;
            }
            let (share, remainder) = (slack / holders, slack % holders);
            for (i, k) in (0..self.sites).filter(holds).enumerate() {
                values[k] -= share + i64::from((i as i64) < remainder);
            }
        }
    }

    /// Algorithm 1's MaxSMT call: the hard system is H1 plus the bounds of
    /// `now` (H2: the treaties hold on the current database), and each of
    /// `futures` is one soft group. Every row but H1 bounds one variable, so
    /// clause by clause the hard rows and any set of groups form a box, and
    /// the lemma loop's probes (`boxes_are_feasible`) are sums of
    /// per-variable minima where a general system would be eliminated. No
    /// model: the witness of a feasible probe is the tightened configuration
    /// the optimizer builds from `selected` anyway.
    pub fn solve_boxes(&self, now: &[i64], futures: &[Vec<i64>]) -> Option<MaxSmtResult<()>> {
        let feasible = |chosen: &[usize]| {
            self.boxes_are_feasible(now, || chosen.iter().map(|&j| &futures[j][..]))
        };
        let check = |chosen: &[usize]| {
            if feasible(chosen) {
                Feasibility::FeasibleRationalOnly
            } else {
                Feasibility::Infeasible
            }
        };
        search(futures.len(), check, feasible)
    }

    /// Whether H1, the bounds of `now` and the bounds of every one of
    /// `groups` hold together. A `≤` clause's variables are bounded above
    /// only, so H1 (`Σ_k c_k ≥ (K-1)·n`) is met iff the tightest bounds sum
    /// to it; an `=` clause pins every variable to `now`'s bound, which each
    /// group must repeat and whose sum must be the H1 row's.
    fn boxes_are_feasible<'a, G>(&self, now: &[i64], groups: impl Fn() -> G) -> bool
    where
        G: Iterator<Item = &'a [i64]>,
    {
        let required = self.sites as i64 - 1;
        self.clauses.iter().enumerate().all(|(idx, clause)| {
            let at = idx * self.sites..(idx + 1) * self.sites;
            let rhs = required * clause.bound;
            match clause.relation() {
                CmpKind::Eq => {
                    groups().all(|group| group[at.clone()] == now[at.clone()])
                        && now[at].iter().sum::<i64>() == rhs
                }
                _ => {
                    let tightest = |i: usize| groups().fold(now[i], |least, g| least.min(g[i]));
                    at.map(tightest).sum::<i64>() >= rhs
                }
            }
        })
    }

    /// Instantiates the templates into per-site local treaties using a
    /// configuration.
    pub fn local_treaties(&self, config: &[i64]) -> Vec<LocalTreaty> {
        (0..self.sites)
            .map(|k| {
                let clauses = self.clauses.iter().enumerate();
                let constraints = clauses.map(|(idx, clause)| {
                    clause.instantiate(&clause.site_terms[k], config[self.config_index(idx, k)])
                });
                LocalTreaty::new(k, constraints.collect())
            })
            .collect()
    }

    /// Checks H1 semantically: the conjunction of the instantiated local
    /// treaties implies the global treaty (used by tests and debug
    /// assertions; [`Self::satisfies_h1`] is the release-path check).
    pub fn config_is_valid(&self, config: &[i64]) -> bool {
        let locals = self.local_treaties(config);
        let antecedent: Vec<LinearConstraint> =
            locals.into_iter().flat_map(|l| l.constraints).collect();
        fm::implies(&antecedent, &self.global().constraints)
    }
}

fn eval_on_db(expr: &LinExpr, db: &Database) -> i64 {
    expr.eval_with(|name| db.get_by_name(name))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::optimizer::{
        optimize_timed, optimize_timed_warm, tightened_config, OptimizerConfig, WorkloadModel,
    };
    use homeo_analysis::{JointSymbolicTable, SymbolicTable};
    use homeo_lang::programs;
    use homeo_sim::{DetRng, Timer};
    use homeo_solver::max_feasible_subset;

    /// The running example of Section 4: T1/T2 with x on site 0, y on site 1,
    /// initial database x = 10, y = 13, ψ : x + y ≥ 20.
    fn paper_setup() -> (Vec<LinearConstraint>, Loc, Database) {
        let t1 = SymbolicTable::analyze(&programs::t1());
        let t2 = SymbolicTable::analyze(&programs::t2());
        let joint = JointSymbolicTable::build(&[t1, t2]);
        let db = Database::from_pairs([("x", 10), ("y", 13)]);
        let row = joint.find_row(&db).unwrap().expect("row exists");
        let psi = preprocess_guard(&row.guard, &db);
        let loc = Loc::from_pairs([("x", 0usize), ("y", 1usize)]);
        (psi, loc, db)
    }

    fn named(templates: &TreatyTemplates, config: &[i64]) -> BTreeMap<VarName, i64> {
        let names = templates.clauses.iter().flat_map(|c| c.config_vars.iter());
        names.cloned().zip(config.iter().copied()).collect()
    }

    /// H1 as constraints over the configuration variables' names.
    fn h1_constraints(templates: &TreatyTemplates) -> Vec<LinearConstraint> {
        let required = templates.sites as i64 - 1;
        let clauses = templates.clauses.iter();
        clauses
            .map(|clause| {
                let mut sum = LinExpr::zero();
                for v in &clause.config_vars {
                    sum.add_term(v.clone(), 1);
                }
                let rhs = LinExpr::constant(required * clause.bound);
                match clause.relation() {
                    CmpKind::Eq => LinearConstraint::eq(sum, rhs),
                    _ => LinearConstraint::ge(sum, rhs),
                }
            })
            .collect()
    }

    /// A soft group as constraints over the configuration variables' names.
    fn group_constraints(templates: &TreatyTemplates, group: &[i64]) -> Vec<LinearConstraint> {
        let clauses = templates.clauses.iter();
        let names = clauses.flat_map(|clause| clause.config_vars.iter().map(move |v| (clause, v)));
        names
            .zip(group)
            .map(|((clause, name), bound)| {
                let (cvar, needed) = (LinExpr::var(name.clone()), LinExpr::constant(*bound));
                match clause.relation() {
                    CmpKind::Eq => LinearConstraint::eq(cvar, needed),
                    _ => LinearConstraint::le(cvar, needed),
                }
            })
            .collect()
    }

    /// A seeded template set over `sites` sites with the database it was
    /// generated for: one to three clauses, each over its own objects
    /// (spread over the sites, some sites left empty), `≤` with some slack or
    /// — one time in five — a frozen `=`.
    fn seeded_templates(rng: &mut DetRng, sites: usize) -> (TreatyTemplates, Database, Vec<ObjId>) {
        let mut loc = Loc::new();
        let mut db = Database::new();
        let mut objects = Vec::new();
        let mut psi = Vec::new();
        for clause in 0..1 + rng.index(3) {
            let mut lhs = LinExpr::zero();
            let mut now = 0;
            for i in 0..1 + rng.index(3) {
                let obj = ObjId::new(format!("o{clause}_{i}"));
                let (coeff, value) = ([-2, -1, 1, 1, 2][rng.index(5)], rng.int_inclusive(0, 30));
                loc.assign(obj.clone(), rng.index(sites));
                db.set(obj.clone(), value);
                lhs.add_term(obj.as_str(), coeff);
                now += coeff * value;
                objects.push(obj);
            }
            psi.push(if rng.chance(0.2) {
                LinearConstraint::eq(lhs, LinExpr::constant(now))
            } else {
                LinearConstraint::le(lhs, LinExpr::constant(now + rng.int_inclusive(0, 15)))
            });
        }
        (TreatyTemplates::generate(&psi, &loc, sites), db, objects)
    }

    /// Algorithm 1 by elimination — the sampled states step-major, the
    /// MaxSMT call through the string front door (Fourier–Motzkin per
    /// probe), then the tightened configuration, else the solver's model,
    /// else the default: the configuration and the number of sampled states
    /// it keeps.
    fn eliminated_config(
        templates: &TreatyTemplates,
        db: &Database,
        model: &mut dyn WorkloadModel,
        cfg: &OptimizerConfig,
    ) -> (Vec<i64>, usize) {
        let mut rng = DetRng::seed_from(cfg.seed);
        let mut futures = vec![Vec::new(); cfg.futures * cfg.lookahead];
        for future in 0..cfg.futures {
            let mut current = db.clone();
            for step in 0..cfg.lookahead {
                current = model.step(&current, &mut rng);
                futures[step * cfg.futures + future] = templates.soft_group_for_db(&current);
            }
        }
        let default = templates.default_config(db);
        let now = templates.soft_group_for_db(db);
        let mut hard = h1_constraints(templates);
        hard.extend(group_constraints(templates, &now));
        let soft: Vec<_> = futures
            .iter()
            .map(|g| group_constraints(templates, g))
            .collect();
        let Some(res) = max_feasible_subset(&hard, &soft) else {
            return (default, 0);
        };
        let selected = res.selected.iter().map(|&j| &futures[j]);
        let mut config = tightened_config(templates, &default, selected);
        if !templates.satisfies_h1(&config) {
            config.clone_from(&default);
            let names = templates.clauses.iter().flat_map(|c| c.config_vars.iter());
            for (value, name) in config.iter_mut().zip(names) {
                if let Some(model) = res.model.as_ref().and_then(|model| model.get(name)) {
                    *value = *model;
                }
            }
        }
        if !templates.satisfies_h1(&config) {
            config = default;
        }
        (config, res.selected.len())
    }

    #[test]
    fn preprocessing_the_paper_guard_yields_one_linear_clause() {
        let (psi, _, db) = paper_setup();
        // ψ is x + y ≥ 20 (the third row of Figure 4c): a single clause that
        // holds on D.
        assert_eq!(psi.len(), 1);
        assert!(crate::treaty::constraints_hold_on(&psi, &db));
    }

    #[test]
    fn default_config_satisfies_h1_and_h2() {
        let (psi, loc, db) = paper_setup();
        let templates = TreatyTemplates::generate(&psi, &loc, 2);
        let config = templates.default_config(&db);
        // H1: validity.
        assert!(templates.config_is_valid(&config));
        assert!(templates.satisfies_h1(&config));
        // H2: the local treaties hold on D.
        for local in templates.local_treaties(&config) {
            assert!(local.holds_on(&db), "local treaty for site {}", local.site);
            assert!(local.is_well_located(&loc));
        }
    }

    #[test]
    fn hard_constraints_match_the_manual_derivation() {
        // For ψ : x + y ≥ 20 over two sites the validity condition on the
        // configuration variables is cx + cy ≤ 20 in the paper's orientation;
        // in our normalised (≤) orientation it is c0 + c1 ≥ -20·(K-1) for the
        // negated clause. Semantic check: the paper's configuration
        // (cy = 12, cx = 8) must be valid, (cy = 13, cx = 8) must not.
        let (psi, loc, _) = paper_setup();
        let templates = TreatyTemplates::generate(&psi, &loc, 2);
        // Paper orientation: local treaty at site 0 is x + cy ≥ 20, i.e. in
        // our encoding the config var at site 0 plays the role of cy. ψ is
        // stored as -x - y ≤ -20, so config values are negated relative to
        // the paper; validity must still distinguish the two cases via the
        // semantic check.
        let (good, bad) = ([-12, -8], [-13, -8]);
        assert!(templates.config_is_valid(&good));
        assert!(!templates.config_is_valid(&bad));
        // The arithmetic check and the hard rows in their string form agree
        // with the semantic check.
        assert!(templates.satisfies_h1(&good));
        assert!(!templates.satisfies_h1(&bad));
        let hard = h1_constraints(&templates);
        assert!(hard.iter().all(|c| c.holds(&named(&templates, &good))));
        assert!(!hard.iter().all(|c| c.holds(&named(&templates, &bad))));
    }

    #[test]
    fn equality_clauses_force_the_default_configuration() {
        // Freeze z at its current value across two sites: the only valid
        // configurations are the defaults.
        let db = Database::from_pairs([("z", 7)]);
        let psi = vec![LinearConstraint::eq(
            LinExpr::var("z"),
            LinExpr::constant(7),
        )];
        let loc = Loc::from_pairs([("z", 0usize)]);
        let templates = TreatyTemplates::generate(&psi, &loc, 2);
        let config = templates.default_config(&db);
        assert!(templates.config_is_valid(&config));
        for local in templates.local_treaties(&config) {
            assert!(local.holds_on(&db));
        }
    }

    #[test]
    fn preprocessing_freezes_nonlinear_conjuncts() {
        use homeo_lang::builder::{num, read};
        // (x*y ≤ 50) ∧ (z ≥ 3): the first conjunct is non-linear and gets
        // replaced by x = D(x) ∧ y = D(y).
        let guard = read("x")
            .mul(read("y"))
            .le(num(50))
            .and(read("z").ge(num(3)));
        let db = Database::from_pairs([("x", 5), ("y", 6), ("z", 4)]);
        let psi = preprocess_guard(&guard, &db);
        assert!(crate::treaty::constraints_hold_on(&psi, &db));
        // Freezing means another database with the same z but different x
        // violates the preprocessed formula even though it satisfies the
        // original guard.
        let other = Database::from_pairs([("x", 4), ("y", 6), ("z", 4)]);
        assert!(!crate::treaty::constraints_hold_on(&psi, &other));
        // One template serves both databases: only the frozen equalities
        // are redone, and each instantiation is what a fresh preprocessing
        // yields — including when freezing makes a linear conjunct
        // redundant (z = 4 frozen by the second guard's product).
        let template = GuardTemplate::new(&guard);
        assert!(!template.is_linear());
        assert_eq!(template.instantiate(&db), psi);
        assert_eq!(
            template.instantiate(&other),
            preprocess_guard(&guard, &other)
        );
        assert_ne!(template.instantiate(&other), psi);
        let both = guard.and(read("z").mul(read("x")).ge(num(1)));
        let template = GuardTemplate::new(&both);
        for db in [&db, &other] {
            let psi = template.instantiate(db);
            assert_eq!(psi, preprocess_guard(&both, db));
            assert_eq!(psi.len(), 3, "z ≥ 3 is implied by z = 4: {psi:?}");
        }
        assert!(GuardTemplate::new(&read("z").ge(num(3))).is_linear());
    }

    #[test]
    fn soft_groups_describe_when_local_treaties_hold() {
        let (psi, loc, db) = paper_setup();
        let templates = TreatyTemplates::generate(&psi, &loc, 2);
        // The soft group for D itself must be satisfied by the default
        // configuration.
        let soft = templates.soft_group_for_db(&db);
        let config = templates.default_config(&db);
        assert!(templates.group_holds(&soft, &config));
        // A database one decrement ahead produces a tighter group: the
        // default for D no longer fits it, the default for the later
        // database fits both.
        let later = Database::from_pairs([("x", 9), ("y", 13)]);
        let soft_later = templates.soft_group_for_db(&later);
        assert_eq!(soft.len(), soft_later.len());
        assert!(!templates.group_holds(&soft_later, &config));
        assert!(templates.group_holds(&soft, &templates.default_config(&later)));
    }

    #[test]
    fn prepared_rows_solve_like_the_string_front_door() {
        // Eleven and twelve sites: `c0@10` sorts before `c0@2`, so the string
        // front door eliminates in another order than the configuration's.
        let mut rng = DetRng::seed_from(0x007e_3a11);
        let (mut with_lemmas, mut infeasible_probes) = (0, 0);
        for case in 0..300 {
            let sites = [2, 3, 4, 11, 12][rng.index(5)];
            let (templates, db, objects) = seeded_templates(&mut rng, sites);
            let now = templates.soft_group_for_db(&db);
            let futures: Vec<Vec<i64>> = (0..1 + rng.index(5))
                .map(|_| {
                    let mut future = db.clone();
                    for _ in 0..1 + rng.index(3) {
                        let obj = objects[rng.index(objects.len())].clone();
                        future.add(obj, rng.int_inclusive(-3, 3));
                    }
                    templates.soft_group_for_db(&future)
                })
                .collect();
            let mut hard = h1_constraints(&templates);
            hard.extend(group_constraints(&templates, &now));
            let soft: Vec<_> = futures
                .iter()
                .map(|g| group_constraints(&templates, g))
                .collect();
            // The box solve selects the lexicographically first maximum
            // feasible set of futures, found here by asking the elimination
            // about every subset; it runs the same search as the string
            // front door, and keeps no model.
            let expected = max_feasible_subset(&hard, &soft).expect("H2 holds on the database");
            let boxed = templates.solve_boxes(&now, &futures).expect("same system");
            let subsets = (0u32..1 << futures.len()).map(|mask| {
                let chosen = (0..futures.len()).filter(|&j| mask >> j & 1 == 1);
                chosen.collect::<Vec<usize>>()
            });
            let first_maximum = subsets
                .filter(|chosen| {
                    let rows = chosen.iter().flat_map(|&j| soft[j].iter().cloned());
                    fm::is_feasible(&hard.iter().cloned().chain(rows).collect::<Vec<_>>())
                })
                .min_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
            assert_eq!(Some(&boxed.selected), first_maximum.as_ref(), "case {case}");
            assert_eq!(
                (boxed.selected, boxed.cost, boxed.lemmas, boxed.gave_up),
                (
                    expected.selected,
                    expected.cost,
                    expected.lemmas,
                    expected.gave_up
                ),
                "case {case}"
            );
            assert_eq!(boxed.model, None);
            with_lemmas += usize::from(expected.lemmas > 0);

            // A box probe is the elimination's verdict on any subset of the
            // groups — and on a `now` the database does not satisfy.
            for probe in 0..8 {
                let chosen: Vec<usize> = (0..futures.len()).filter(|_| rng.chance(0.5)).collect();
                let mut now = now.clone();
                if probe >= 6 {
                    let at = rng.index(now.len());
                    now[at] += rng.int_inclusive(-2, 2);
                }
                let mut rows = h1_constraints(&templates);
                rows.extend(group_constraints(&templates, &now));
                rows.extend(chosen.iter().flat_map(|&j| soft[j].iter().cloned()));
                let expected = fm::is_feasible(&rows);
                let groups = || chosen.iter().map(|&j| &futures[j][..]);
                assert_eq!(
                    templates.boxes_are_feasible(&now, groups),
                    expected,
                    "case {case}: now {now:?}, groups {chosen:?} of {futures:?}"
                );
                infeasible_probes += usize::from(!expected);
            }

            // Both entry points install the configuration an eliminating
            // solve would.
            let mut model = |current: &Database, rng: &mut DetRng| {
                let mut next = current.clone();
                let obj = objects[rng.index(objects.len())].clone();
                next.add(obj, rng.int_inclusive(-2, 2));
                next
            };
            let cfg = OptimizerConfig {
                lookahead: 1 + rng.index(6),
                futures: 1 + rng.index(3),
                seed: rng.int_inclusive(0, 1 << 40) as u64,
            };
            let timer = Timer::fixed_zero();
            let expected = eliminated_config(&templates, &db, &mut model, &cfg);
            let warm = optimize_timed_warm(&templates, &db, &mut model, &cfg, timer, None);
            assert_eq!(
                (&warm.config, warm.satisfied_states),
                (&expected.0, expected.1),
                "case {case}: the installed configuration"
            );
            assert_eq!(
                warm,
                optimize_timed(&templates, &db, &mut model, &cfg, timer)
            );
        }
        assert!(
            with_lemmas >= 30,
            "only {with_lemmas} cases learned a lemma"
        );
        assert!(
            infeasible_probes >= 300,
            "only {infeasible_probes} infeasible probes"
        );
    }

    #[test]
    fn arithmetic_h1_agrees_with_the_implication() {
        let mut rng = DetRng::seed_from(0x41_c0de);
        let (mut optimized, mut rejected) = (0, 0);
        for case in 0..500 {
            let sites = 2 + rng.index(3);
            let (templates, db, objects) = seeded_templates(&mut rng, sites);
            let mut model = |current: &Database, rng: &mut DetRng| {
                let mut next = current.clone();
                next.add(
                    objects[rng.index(objects.len())].clone(),
                    rng.int_inclusive(-2, 2),
                );
                next
            };
            let cfg = OptimizerConfig {
                lookahead: 1 + rng.index(6),
                futures: 1 + rng.index(3),
                seed: rng.int_inclusive(0, 1 << 40) as u64,
            };
            let result = optimize_timed(&templates, &db, &mut model, &cfg, Timer::fixed_zero());
            let default = templates.default_config(&db);
            for config in [&result.config, &default] {
                assert!(templates.satisfies_h1(config), "case {case}: {config:?}");
                assert!(templates.config_is_valid(config), "case {case}: {config:?}");
            }
            optimized += usize::from(result.config != default);

            // Hand-built invalid configurations: take from a site that holds
            // part of the clause one unit more than the clause's slack (or
            // move an equality clause's variable at all). Both checks must
            // reject each of them.
            for (idx, clause) in templates.clauses.iter().enumerate() {
                let Some(site) = (0..sites).find(|&k| !clause.site_terms[k].is_constant()) else {
                    continue;
                };
                let at = templates.config_index(idx, site);
                let sum: i64 = result.config[templates.config_index(idx, 0)..][..sites]
                    .iter()
                    .sum();
                let slack = sum - (sites as i64 - 1) * clause.bound;
                let mut invalid = result.config.clone();
                invalid[at] -= slack + 1;
                assert!(!templates.satisfies_h1(&invalid), "case {case}");
                assert!(!templates.config_is_valid(&invalid), "case {case}");
                rejected += 1;
            }
        }
        assert!(
            optimized >= 200,
            "only {optimized} optimized configurations"
        );
        assert!(rejected >= 500, "only {rejected} invalid configurations");
    }

    #[test]
    fn spending_the_slack_keeps_every_bound_and_leaves_none() {
        let mut rng = DetRng::seed_from(0x5_1ac7);
        let (mut spent, mut non_holders) = (0, 0);
        for case in 0..500 {
            let sites = 2 + rng.index(11);
            let (templates, db, objects) = seeded_templates(&mut rng, sites);
            let mut model = |current: &Database, rng: &mut DetRng| {
                let mut next = current.clone();
                let obj = objects[rng.index(objects.len())].clone();
                next.add(obj, rng.int_inclusive(-2, 2));
                next
            };
            let cfg = OptimizerConfig {
                lookahead: 1 + rng.index(6),
                futures: 1 + rng.index(3),
                seed: rng.int_inclusive(0, 1 << 40) as u64,
            };
            let optimized = optimize_timed(&templates, &db, &mut model, &cfg, Timer::fixed_zero());
            let now = templates.soft_group_for_db(&db);
            for before in [optimized.config, templates.default_config(&db)] {
                let mut after = before.clone();
                templates.spend_h1_slack(&mut after);
                assert!(templates.satisfies_h1(&after), "case {case}: {after:?}");
                assert!(templates.config_is_valid(&after), "case {case}: {after:?}");
                assert!(templates.group_holds(&now, &after), "case {case}");
                for (idx, clause) in templates.clauses.iter().enumerate() {
                    let at = templates.config_index(idx, 0)..templates.config_index(idx, sites);
                    let (was, is) = (&before[at.clone()], &after[at]);
                    let holds = |k: usize| !clause.site_terms[k].is_constant();
                    for k in 0..sites {
                        assert!(is[k] <= was[k], "case {case}: c{idx}@{k} rose");
                        if clause.relation() == CmpKind::Eq || !holds(k) {
                            assert_eq!(is[k], was[k], "case {case}: c{idx}@{k} moved");
                            non_holders += usize::from(!holds(k));
                        }
                    }
                    if clause.relation() == CmpKind::Le && (0..sites).any(holds) {
                        let slack = is.iter().sum::<i64>() - (sites as i64 - 1) * clause.bound;
                        assert_eq!(slack, 0, "case {case}: clause {idx} keeps slack");
                        spent += usize::from(is != was);
                    }
                }
            }
        }
        assert!(spent >= 500, "only {spent} clauses had slack to spend");
        assert!(non_holders >= 1000, "only {non_holders} non-holders");
    }
}
