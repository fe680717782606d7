//! Propositional CNF representation and a DPLL SAT solver.
//!
//! The instances produced by the homeostasis pipeline are small (tens to a
//! few hundred variables), so a classic DPLL with unit propagation and a
//! most-occurring-literal branching heuristic is plenty, while staying easy
//! to audit. Assumption literals are supported so that the MaxSAT layer can
//! perform deletion-based unsat-core extraction.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A propositional variable, identified by index (0-based).
pub type VarId = usize;

/// A literal: a variable together with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Literal {
    /// The variable.
    pub var: VarId,
    /// True for the positive literal `x`, false for `¬x`.
    pub positive: bool,
}

impl Literal {
    /// The positive literal for `var`.
    pub fn pos(var: VarId) -> Self {
        Literal {
            var,
            positive: true,
        }
    }

    /// The negative literal for `var`.
    pub fn neg(var: VarId) -> Self {
        Literal {
            var,
            positive: false,
        }
    }

    /// The opposite literal.
    pub fn negated(self) -> Self {
        Literal {
            var: self.var,
            positive: !self.positive,
        }
    }

    /// Whether the literal is satisfied by the given variable value.
    pub fn satisfied_by(self, value: bool) -> bool {
        self.positive == value
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "x{}", self.var)
        } else {
            write!(f, "¬x{}", self.var)
        }
    }
}

/// A clause: a disjunction of literals.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Clause {
    /// The literals of the clause.
    pub literals: Vec<Literal>,
}

impl Clause {
    /// Builds a clause from literals.
    pub fn new(literals: impl IntoIterator<Item = Literal>) -> Self {
        Clause {
            literals: literals.into_iter().collect(),
        }
    }

    /// The empty clause (always false).
    pub fn empty() -> Self {
        Clause::default()
    }

    /// True if the clause contains the literal.
    pub fn contains(&self, lit: Literal) -> bool {
        self.literals.contains(&lit)
    }
}

/// A CNF formula.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cnf {
    /// Number of variables (variables are `0..num_vars`).
    pub num_vars: usize,
    /// The clauses.
    pub clauses: Vec<Clause>,
}

impl Cnf {
    /// Creates a formula over `num_vars` variables with no clauses.
    pub fn new(num_vars: usize) -> Self {
        Cnf {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Allocates a fresh variable and returns its id.
    pub fn fresh_var(&mut self) -> VarId {
        let id = self.num_vars;
        self.num_vars += 1;
        id
    }

    /// Adds a clause; literals referring to unknown variables grow the
    /// variable count.
    pub fn add_clause(&mut self, clause: Clause) {
        for lit in &clause.literals {
            if lit.var >= self.num_vars {
                self.num_vars = lit.var + 1;
            }
        }
        self.clauses.push(clause);
    }

    /// Adds a unit clause.
    pub fn add_unit(&mut self, lit: Literal) {
        self.add_clause(Clause::new([lit]));
    }

    /// Adds a pairwise at-most-one constraint over the literals (standard
    /// quadratic encoding, adequate for the small relaxation groups produced
    /// by Fu-Malik).
    pub fn add_at_most_one(&mut self, lits: &[Literal]) {
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                self.add_clause(Clause::new([lits[i].negated(), lits[j].negated()]));
            }
        }
    }

    /// Evaluates the formula under a (total) assignment.
    pub fn evaluate(&self, assignment: &[bool]) -> bool {
        self.clauses.iter().all(|c| {
            c.literals
                .iter()
                .any(|l| l.var < assignment.len() && l.satisfied_by(assignment[l.var]))
        })
    }
}

/// The result of a SAT call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SatResult {
    /// Satisfiable with the given assignment (indexed by variable).
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// True when satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// The model, if any.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            SatResult::Sat(m) => Some(m),
            SatResult::Unsat => None,
        }
    }
}

/// A DPLL solver with unit propagation.
#[derive(Debug, Default)]
pub struct DpllSolver {
    /// Statistics: number of decisions made in the last solve call.
    pub decisions: usize,
    /// Statistics: number of unit propagations in the last solve call.
    pub propagations: usize,
    /// Statistics: number of solve calls made so far.
    pub runs: usize,
    // Scratch kept across calls — a core extraction makes one call per soft
    // clause, and none of them should allocate.
    /// The current (partial) assignment, indexed by variable.
    assignment: Vec<Value>,
    /// Propagated variables, oldest first; each search level undoes its own
    /// suffix.
    trail: Vec<VarId>,
    /// Occurrence counts for the branching heuristic.
    counts: Vec<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    Unassigned,
    True,
    False,
}

impl Value {
    fn of(positive: bool) -> Self {
        if positive {
            Value::True
        } else {
            Value::False
        }
    }
}

impl DpllSolver {
    /// Creates a solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves the formula.
    pub fn solve(&mut self, cnf: &Cnf) -> SatResult {
        self.solve_with_assumptions(cnf, &[])
    }

    /// Solves the formula under the given assumption literals (treated as
    /// additional unit clauses).
    pub fn solve_with_assumptions(&mut self, cnf: &Cnf, assumptions: &[Literal]) -> SatResult {
        if self.is_sat_with_assumptions(cnf, assumptions) {
            SatResult::Sat(
                self.assignment
                    .iter()
                    .map(|v| matches!(v, Value::True))
                    .collect(),
            )
        } else {
            SatResult::Unsat
        }
    }

    /// Whether the formula is satisfiable under the assumptions (the verdict
    /// of [`Self::solve_with_assumptions`] without its model).
    pub fn is_sat_with_assumptions(&mut self, cnf: &Cnf, assumptions: &[Literal]) -> bool {
        self.decisions = 0;
        self.propagations = 0;
        self.runs += 1;
        let num_vars = cnf
            .num_vars
            .max(assumptions.iter().map(|a| a.var + 1).max().unwrap_or(0));
        self.assignment.clear();
        self.assignment.resize(num_vars, Value::Unassigned);
        self.trail.clear();
        // An assumption is a unit clause, and unit propagation reaches the
        // same fixpoint (or a conflict) in any order: assign them up front
        // and the formula is never copied or extended.
        for a in assumptions {
            let wanted = Value::of(a.positive);
            match self.assignment[a.var] {
                Value::Unassigned => {
                    self.assignment[a.var] = wanted;
                    self.propagations += 1;
                }
                value if value == wanted => {}
                _ => return false,
            }
        }
        self.dpll(&cnf.clauses)
    }

    fn satisfies(&self, lit: &Literal) -> bool {
        self.assignment[lit.var] == Value::of(lit.positive)
    }

    fn is_unassigned(&self, lit: &Literal) -> bool {
        self.assignment[lit.var] == Value::Unassigned
    }

    /// Unassigns everything propagated since the trail was `mark` long.
    fn undo_to(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.assignment[v] = Value::Unassigned;
        }
    }

    fn dpll(&mut self, clauses: &[Clause]) -> bool {
        // Unit propagation to fixpoint.
        let mark = self.trail.len();
        loop {
            let mut propagated = false;
            for clause in clauses {
                if clause.literals.iter().any(|l| self.satisfies(l)) {
                    continue;
                }
                let mut unassigned = clause.literals.iter().filter(|l| self.is_unassigned(l));
                match (unassigned.next(), unassigned.next()) {
                    (None, _) => {
                        // Conflict: undo and fail.
                        self.undo_to(mark);
                        return false;
                    }
                    (Some(lit), None) => {
                        self.assignment[lit.var] = Value::of(lit.positive);
                        self.trail.push(lit.var);
                        self.propagations += 1;
                        propagated = true;
                    }
                    _ => {}
                }
            }
            if !propagated {
                break;
            }
        }

        // Pick a branching variable: the literal occurring most often among
        // not-yet-satisfied clauses.
        self.counts.clear();
        self.counts.resize(self.assignment.len(), 0);
        let mut any_unassigned = false;
        for clause in clauses {
            if clause.literals.iter().any(|l| self.satisfies(l)) {
                continue;
            }
            for lit in &clause.literals {
                if self.is_unassigned(lit) {
                    self.counts[lit.var] += 1;
                    any_unassigned = true;
                }
            }
        }
        if !any_unassigned {
            // Propagation left no clause falsified, so all are satisfied:
            // assign the remaining variables arbitrarily (false).
            for v in self.assignment.iter_mut() {
                if *v == Value::Unassigned {
                    *v = Value::False;
                }
            }
            return true;
        }
        let branch_var = self
            .counts
            .iter()
            .enumerate()
            .filter(|(v, _)| self.assignment[*v] == Value::Unassigned)
            .max_by_key(|(_, c)| **c)
            .map(|(v, _)| v)
            .expect("an unassigned variable exists");

        self.decisions += 1;
        for value in [Value::True, Value::False] {
            self.assignment[branch_var] = value;
            if self.dpll(clauses) {
                return true;
            }
            self.assignment[branch_var] = Value::Unassigned;
        }
        self.undo_to(mark);
        false
    }

    /// Extracts a minimal (irreducible) unsat core from `soft` under the hard
    /// formula `cnf`: a subset `C ⊆ soft` such that `cnf ∧ C` is UNSAT and
    /// every proper subset of `C` obtained by dropping one element is SAT.
    ///
    /// Precondition: `cnf ∧ soft` is UNSAT (checked by debug assertion).
    pub fn minimal_core(&mut self, cnf: &Cnf, soft: &[Literal]) -> Vec<Literal> {
        deletion_core(soft, |subset| !self.is_sat_with_assumptions(cnf, subset))
    }
}

/// The deletion-based minimal unsatisfiable subset of `items`: walking the
/// items in order, each is dropped when the rest (the items kept so far plus
/// those not yet visited) is still unsatisfiable, and kept otherwise.
///
/// One test per item, on purpose: nearly every test is of an unsatisfiable
/// set, which both users refute by propagation alone, while a bisecting
/// variant spends half its tests on satisfiable sets that need a search.
///
/// Precondition: `unsat(items)` (checked by debug assertion).
pub(crate) fn deletion_core<T: Copy>(items: &[T], mut unsat: impl FnMut(&[T]) -> bool) -> Vec<T> {
    debug_assert!(unsat(items));
    let mut core: Vec<T> = items.to_vec();
    let mut i = 0;
    while i < core.len() {
        let dropped = core.remove(i);
        if !unsat(&core) {
            // This item is necessary for unsatisfiability; keep it.
            core.insert(i, dropped);
            i += 1;
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn lit(v: VarId, positive: bool) -> Literal {
        Literal { var: v, positive }
    }

    #[test]
    fn empty_formula_is_sat() {
        let cnf = Cnf::new(0);
        assert!(DpllSolver::new().solve(&cnf).is_sat());
    }

    #[test]
    fn single_empty_clause_is_unsat() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause(Clause::empty());
        assert!(!DpllSolver::new().solve(&cnf).is_sat());
    }

    #[test]
    fn unit_propagation_chain() {
        // x0, x0 -> x1, x1 -> x2  ==> all true
        let mut cnf = Cnf::new(3);
        cnf.add_unit(lit(0, true));
        cnf.add_clause(Clause::new([lit(0, false), lit(1, true)]));
        cnf.add_clause(Clause::new([lit(1, false), lit(2, true)]));
        match DpllSolver::new().solve(&cnf) {
            SatResult::Sat(m) => assert_eq!(m, vec![true, true, true]),
            SatResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn simple_contradiction() {
        let mut cnf = Cnf::new(1);
        cnf.add_unit(lit(0, true));
        cnf.add_unit(lit(0, false));
        assert_eq!(DpllSolver::new().solve(&cnf), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_two_pigeons_one_hole_is_unsat() {
        // p0 in hole, p1 in hole, but not both: x0, x1, ¬x0 ∨ ¬x1
        let mut cnf = Cnf::new(2);
        cnf.add_unit(lit(0, true));
        cnf.add_unit(lit(1, true));
        cnf.add_clause(Clause::new([lit(0, false), lit(1, false)]));
        assert_eq!(DpllSolver::new().solve(&cnf), SatResult::Unsat);
    }

    #[test]
    fn model_satisfies_formula() {
        // Random-ish 3-SAT instance that is satisfiable.
        let mut small = Cnf::new(5);
        let clauses = [
            [(0, true), (1, false), (2, true)],
            [(1, true), (2, true), (3, false)],
            [(0, false), (3, true), (4, true)],
            [(2, false), (3, false), (4, false)],
            [(0, true), (2, true), (4, true)],
        ];
        for c in clauses {
            small.add_clause(Clause::new(c.iter().map(|(v, p)| lit(*v, *p))));
        }
        // Thirty strided 3-clauses over twelve variables: needs decisions
        // and backtracking, not just propagation.
        let mut strided = Cnf::new(12);
        for i in 0..30usize {
            strided.add_clause(Clause::new([
                lit(i % 12, i % 2 == 0),
                lit((i * 5 + 3) % 12, i % 3 == 0),
                lit((i * 7 + 1) % 12, i % 5 == 0),
            ]));
        }
        for cnf in [small, strided] {
            let mut solver = DpllSolver::new();
            match solver.solve(&cnf) {
                SatResult::Sat(m) => assert!(cnf.evaluate(&m)),
                SatResult::Unsat => panic!("should be sat"),
            }
        }
    }

    #[test]
    fn assumptions_restrict_the_search() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(Clause::new([lit(0, true), lit(1, true)]));
        let mut solver = DpllSolver::new();
        assert!(solver
            .solve_with_assumptions(&cnf, &[lit(0, false)])
            .is_sat());
        assert!(!solver
            .solve_with_assumptions(&cnf, &[lit(0, false), lit(1, false)])
            .is_sat());
    }

    #[test]
    fn at_most_one_encoding() {
        let mut cnf = Cnf::new(3);
        let lits = [lit(0, true), lit(1, true), lit(2, true)];
        cnf.add_at_most_one(&lits);
        let mut solver = DpllSolver::new();
        // Any single one can be true...
        assert!(solver
            .solve_with_assumptions(&cnf, &[lit(0, true), lit(1, false)])
            .is_sat());
        // ...but two at once cannot.
        assert!(!solver
            .solve_with_assumptions(&cnf, &[lit(0, true), lit(1, true)])
            .is_sat());
    }

    #[test]
    fn minimal_core_extraction() {
        // Hard: ¬x0 ∨ ¬x1 (can't have both), soft: x0, x1, x2.
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::new([lit(0, false), lit(1, false)]));
        let mut solver = DpllSolver::new();
        let core = solver.minimal_core(&cnf, &[lit(0, true), lit(1, true), lit(2, true)]);
        let vars: BTreeSet<_> = core.iter().map(|l| l.var).collect();
        assert_eq!(vars, BTreeSet::from([0, 1]));
    }

    #[test]
    fn larger_unsat_instance() {
        // Encode x_i for i in 0..4 all pairwise different truth values -> impossible
        // with 5 variables forced true and an at-most-one constraint.
        let mut cnf = Cnf::new(5);
        let lits: Vec<Literal> = (0..5).map(|v| lit(v, true)).collect();
        cnf.add_at_most_one(&lits);
        for l in &lits {
            cnf.add_unit(*l);
        }
        assert_eq!(DpllSolver::new().solve(&cnf), SatResult::Unsat);
    }
}
