//! Propositional CNF and a DPLL SAT solver, kept as test oracles.
//!
//! The release solver decides no propositional formula: the MaxSMT loop's
//! hitting sets are bitmasks ([`crate::maxsmt`]). What is here serves the
//! reference Fu-Malik ([`crate::maxsat`]) that the seeded differentials hold
//! the hitting-set engine's cost to — a DPLL with unit propagation and a
//! most-occurring-literal branching heuristic that copies the formula and
//! appends the assumptions as unit clauses, slow and easy to audit.

/// A propositional variable, identified by index (0-based).
pub type VarId = usize;

/// A literal: a variable together with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// A clause: a disjunction of literals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
}

/// A CNF formula.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
}

/// The result of a SAT call.
#[derive(Debug, Clone, PartialEq, Eq)]
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
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Value {
    Unassigned,
    True,
    False,
}

/// Solves the formula under the given assumption literals (treated as
/// additional unit clauses).
pub fn solve_with_assumptions(cnf: &Cnf, assumptions: &[Literal]) -> SatResult {
    let mut clauses: Vec<Vec<Literal>> = cnf.clauses.iter().map(|c| c.literals.clone()).collect();
    for a in assumptions {
        clauses.push(vec![*a]);
    }
    let num_vars = cnf
        .num_vars
        .max(assumptions.iter().map(|a| a.var + 1).max().unwrap_or(0));
    let mut assignment = vec![Value::Unassigned; num_vars];
    if dpll(&clauses, &mut assignment) {
        SatResult::Sat(
            assignment
                .into_iter()
                .map(|v| matches!(v, Value::True))
                .collect(),
        )
    } else {
        SatResult::Unsat
    }
}

fn dpll(clauses: &[Vec<Literal>], assignment: &mut Vec<Value>) -> bool {
    // Unit propagation to fixpoint.
    let mut trail: Vec<VarId> = Vec::new();
    loop {
        let mut propagated = false;
        for clause in clauses {
            let mut unassigned: Option<Literal> = None;
            let mut satisfied = false;
            let mut unassigned_count = 0;
            for lit in clause {
                match assignment[lit.var] {
                    Value::Unassigned => {
                        unassigned_count += 1;
                        unassigned = Some(*lit);
                    }
                    Value::True if lit.positive => {
                        satisfied = true;
                        break;
                    }
                    Value::False if !lit.positive => {
                        satisfied = true;
                        break;
                    }
                    _ => {}
                }
            }
            if satisfied {
                continue;
            }
            match unassigned_count {
                0 => {
                    // Conflict: undo and fail.
                    for &v in &trail {
                        assignment[v] = Value::Unassigned;
                    }
                    return false;
                }
                1 => {
                    let lit = unassigned.expect("one unassigned literal");
                    assignment[lit.var] = if lit.positive {
                        Value::True
                    } else {
                        Value::False
                    };
                    trail.push(lit.var);
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
    let mut counts: Vec<usize> = vec![0; assignment.len()];
    let mut any_unassigned = false;
    for clause in clauses {
        let satisfied = clause.iter().any(|l| match assignment[l.var] {
            Value::True => l.positive,
            Value::False => !l.positive,
            Value::Unassigned => false,
        });
        if satisfied {
            continue;
        }
        for lit in clause {
            if assignment[lit.var] == Value::Unassigned {
                counts[lit.var] += 1;
                any_unassigned = true;
            }
        }
    }
    if !any_unassigned {
        // All clauses satisfied (or no clauses left to satisfy).
        let all_satisfied = clauses.iter().all(|clause| {
            clause.iter().any(|l| match assignment[l.var] {
                Value::True => l.positive,
                Value::False => !l.positive,
                Value::Unassigned => false,
            })
        });
        if all_satisfied {
            // Assign remaining variables arbitrarily (false).
            for v in assignment.iter_mut() {
                if *v == Value::Unassigned {
                    *v = Value::False;
                }
            }
            return true;
        }
        for &v in &trail {
            assignment[v] = Value::Unassigned;
        }
        return false;
    }
    let branch_var = counts
        .iter()
        .enumerate()
        .filter(|(v, _)| assignment[*v] == Value::Unassigned)
        .max_by_key(|(_, c)| **c)
        .map(|(v, _)| v)
        .expect("an unassigned variable exists");

    for value in [Value::True, Value::False] {
        assignment[branch_var] = value;
        if dpll(clauses, assignment) {
            return true;
        }
        assignment[branch_var] = Value::Unassigned;
    }
    for &v in &trail {
        assignment[v] = Value::Unassigned;
    }
    false
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::maxsmt::deletion_core;

    fn lit(v: VarId, positive: bool) -> Literal {
        Literal { var: v, positive }
    }

    fn solve(cnf: &Cnf) -> SatResult {
        solve_with_assumptions(cnf, &[])
    }

    /// Whether every clause has a literal the assignment satisfies.
    fn evaluate(cnf: &Cnf, assignment: &[bool]) -> bool {
        cnf.clauses.iter().all(|c| {
            c.literals
                .iter()
                .any(|l| l.var < assignment.len() && l.satisfied_by(assignment[l.var]))
        })
    }

    #[test]
    fn empty_formula_is_sat() {
        let cnf = Cnf::new(0);
        assert!(solve(&cnf).is_sat());
    }

    #[test]
    fn single_empty_clause_is_unsat() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause(Clause::default());
        assert!(!solve(&cnf).is_sat());
    }

    #[test]
    fn unit_propagation_chain() {
        // x0, x0 -> x1, x1 -> x2  ==> all true
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::new([lit(0, true)]));
        cnf.add_clause(Clause::new([lit(0, false), lit(1, true)]));
        cnf.add_clause(Clause::new([lit(1, false), lit(2, true)]));
        match solve(&cnf) {
            SatResult::Sat(m) => assert_eq!(m, vec![true, true, true]),
            SatResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn simple_contradiction() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause(Clause::new([lit(0, true)]));
        cnf.add_clause(Clause::new([lit(0, false)]));
        assert_eq!(solve(&cnf), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_two_pigeons_one_hole_is_unsat() {
        // p0 in hole, p1 in hole, but not both: x0, x1, ¬x0 ∨ ¬x1
        let mut cnf = Cnf::new(2);
        cnf.add_clause(Clause::new([lit(0, true)]));
        cnf.add_clause(Clause::new([lit(1, true)]));
        cnf.add_clause(Clause::new([lit(0, false), lit(1, false)]));
        assert_eq!(solve(&cnf), SatResult::Unsat);
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
            match solve(&cnf) {
                SatResult::Sat(m) => assert!(evaluate(&cnf, &m)),
                SatResult::Unsat => panic!("should be sat"),
            }
        }
    }

    #[test]
    fn assumptions_restrict_the_search() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(Clause::new([lit(0, true), lit(1, true)]));
        assert!(solve_with_assumptions(&cnf, &[lit(0, false)]).is_sat());
        assert!(!solve_with_assumptions(&cnf, &[lit(0, false), lit(1, false)]).is_sat());
    }

    #[test]
    fn at_most_one_encoding() {
        let mut cnf = Cnf::new(3);
        let lits = [lit(0, true), lit(1, true), lit(2, true)];
        cnf.add_at_most_one(&lits);
        // Any single one can be true...
        assert!(solve_with_assumptions(&cnf, &[lit(0, true), lit(1, false)]).is_sat());
        // ...but two at once cannot.
        assert!(!solve_with_assumptions(&cnf, &[lit(0, true), lit(1, true)]).is_sat());
    }

    #[test]
    fn minimal_core_extraction() {
        // Hard: ¬x0 ∨ ¬x1 (can't have both), soft: x0, x1, x2.
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::new([lit(0, false), lit(1, false)]));
        let soft = [lit(0, true), lit(1, true), lit(2, true)];
        let core = deletion_core(&soft, |subset| {
            !solve_with_assumptions(&cnf, subset).is_sat()
        });
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
            cnf.add_clause(Clause::new([*l]));
        }
        assert_eq!(solve(&cnf), SatResult::Unsat);
    }
}
