//! Partial MaxSAT via the Fu-Malik algorithm, kept as a test oracle.
//!
//! The homeostasis prototype uses "the Fu-Malik Max SAT procedure in the
//! Microsoft Z3 SMT solver" to pick treaty configurations (Section 5.2); the
//! release lemma loop answers the same question on bitmasks
//! ([`crate::maxsmt`]). This is the algorithm on top of the reference DPLL
//! ([`crate::sat`]), which the seeded differentials ask for the optimal cost
//! of a lemma set:
//!
//! * hard clauses must be satisfied;
//! * soft clauses should be satisfied; each violated soft clause costs 1;
//! * while the formula (hard ∧ soft) is unsatisfiable, extract an unsat core
//!   among the soft clauses (deletion-based, every verdict asked of the
//!   DPLL), add a fresh relaxation variable to each soft clause in the core,
//!   and constrain the relaxation variables of the core with an at-most-one
//!   constraint; each round increases the cost by one.

use crate::sat::{solve_with_assumptions, Clause, Cnf, Literal, SatResult};

/// The result of a partial MaxSAT call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxSatResult {
    /// Minimal number of violated soft clauses.
    pub cost: usize,
    /// A model over the *original* variables achieving that cost.
    pub model: Vec<bool>,
    /// Indices (into the soft clause list) of the clauses satisfied by the
    /// model.
    pub satisfied_soft: Vec<usize>,
}

/// Fu-Malik partial MaxSAT of `(hard, soft)`; `None` when the hard clauses
/// alone are unsatisfiable.
pub fn fu_malik(hard: &Cnf, soft: &[Clause]) -> Option<MaxSatResult> {
    let soft_vars = soft
        .iter()
        .flat_map(|c| c.literals.iter().map(|l| l.var + 1));
    let original_vars = hard.num_vars.max(soft_vars.max().unwrap_or(0));
    let mut working = hard.clone();
    working.num_vars = original_vars;
    if !solve_with_assumptions(&working, &[]).is_sat() {
        return None;
    }
    // Each soft clause gets a selector literal s_i; asserting s_i forces the
    // (possibly relaxed) soft clause to hold. Selectors double as the
    // assumption literals used for core extraction.
    let mut selectors: Vec<Literal> = Vec::with_capacity(soft.len());
    for clause in soft {
        let s = working.fresh_var();
        let mut lits = vec![Literal::neg(s)];
        lits.extend(clause.literals.iter().copied());
        working.add_clause(Clause::new(lits));
        selectors.push(Literal::pos(s));
    }
    let mut cost = 0usize;
    loop {
        if let SatResult::Sat(model) = solve_with_assumptions(&working, &selectors) {
            let satisfies = |l: &Literal| l.var < model.len() && l.satisfied_by(model[l.var]);
            let satisfied_soft = (0..soft.len())
                .filter(|&i| soft[i].literals.iter().any(satisfies))
                .collect();
            return Some(MaxSatResult {
                cost,
                model: model.iter().copied().take(original_vars).collect(),
                satisfied_soft,
            });
        }
        cost += 1;
        let mut core = selectors.clone();
        let mut i = 0;
        while i < core.len() {
            let dropped = core.remove(i);
            if solve_with_assumptions(&working, &core).is_sat() {
                core.insert(i, dropped);
                i += 1;
            }
        }
        // Relax every soft clause in the core: the selector-guarded clause
        // (¬s ∨ C) becomes (¬s ∨ C ∨ r), at most one r per core true.
        let mut relax_lits = Vec::with_capacity(core.len());
        for sel in &core {
            let r = working.fresh_var();
            relax_lits.push(Literal::pos(r));
            let guard = Literal::neg(sel.var);
            for clause in working.clauses.iter_mut() {
                if clause.literals.first() == Some(&guard) {
                    clause.literals.push(Literal::pos(r));
                }
            }
        }
        working.add_at_most_one(&relax_lits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: usize, positive: bool) -> Literal {
        Literal { var: v, positive }
    }

    #[test]
    fn all_soft_satisfiable_costs_zero() {
        let hard = Cnf::new(2);
        let soft = vec![Clause::new([lit(0, true)]), Clause::new([lit(1, false)])];
        let res = fu_malik(&hard, &soft).unwrap();
        assert_eq!(res.cost, 0);
        assert_eq!(res.satisfied_soft, vec![0, 1]);
        assert!(res.model[0]);
        assert!(!res.model[1]);
    }

    #[test]
    fn conflicting_soft_units_cost_one() {
        // Soft: x0 and ¬x0 — exactly one can hold.
        let hard = Cnf::new(1);
        let soft = vec![Clause::new([lit(0, true)]), Clause::new([lit(0, false)])];
        let res = fu_malik(&hard, &soft).unwrap();
        assert_eq!(res.cost, 1);
        assert_eq!(res.satisfied_soft.len(), 1);
    }

    #[test]
    fn hard_constraints_are_never_violated() {
        // Hard: ¬x0; soft: x0, x0, x0. Cost must be 3.
        let mut hard = Cnf::new(1);
        hard.add_clause(Clause::new([lit(0, false)]));
        let soft = vec![
            Clause::new([lit(0, true)]),
            Clause::new([lit(0, true)]),
            Clause::new([lit(0, true)]),
        ];
        let res = fu_malik(&hard, &soft).unwrap();
        assert_eq!(res.cost, 3);
        assert!(res.satisfied_soft.is_empty());
        assert!(!res.model[0]);
    }

    #[test]
    fn unsatisfiable_hard_clauses_return_none() {
        let mut hard = Cnf::new(1);
        hard.add_clause(Clause::new([lit(0, true)]));
        hard.add_clause(Clause::new([lit(0, false)]));
        assert!(fu_malik(&hard, &[]).is_none());
    }

    #[test]
    fn at_most_one_interaction() {
        // Hard: at most one of x0..xn. Soft: each of them. Best cost = n - 1.
        for n in [3, 6] {
            let mut hard = Cnf::new(n);
            hard.add_at_most_one(&(0..n).map(Literal::pos).collect::<Vec<_>>());
            let soft: Vec<Clause> = (0..n).map(|v| Clause::new([Literal::pos(v)])).collect();
            let res = fu_malik(&hard, &soft).unwrap();
            assert_eq!(res.cost, n - 1);
            assert_eq!(res.satisfied_soft.len(), 1);
            let trues = res.model.iter().filter(|b| **b).count();
            assert_eq!(trues, 1);
        }
    }

    #[test]
    fn paper_style_configuration_choice() {
        // Mirror of the Appendix C example: three "future executions", the
        // first and third compatible with each other, the second not.
        // Encode compatibility with booleans: f1 ∧ f3 allowed, f2 excludes both.
        let mut hard = Cnf::new(3);
        hard.add_clause(Clause::new([lit(0, false), lit(1, false)])); // f1 -> ¬f2
        hard.add_clause(Clause::new([lit(2, false), lit(1, false)])); // f3 -> ¬f2
        let soft = vec![
            Clause::new([lit(0, true)]),
            Clause::new([lit(1, true)]),
            Clause::new([lit(2, true)]),
        ];
        let res = fu_malik(&hard, &soft).unwrap();
        assert_eq!(res.cost, 1);
        assert_eq!(res.satisfied_soft, vec![0, 2]);
    }

    #[test]
    fn mixed_multi_literal_soft_clauses() {
        // Hard: x0 xor x1 (encoded), soft: (x0 ∨ x1) [satisfiable], (x0 ∧ x1 is
        // impossible so soft units x0 and x1 cost at least... both can't hold].
        let mut hard = Cnf::new(2);
        hard.add_clause(Clause::new([lit(0, true), lit(1, true)]));
        hard.add_clause(Clause::new([lit(0, false), lit(1, false)]));
        let soft = vec![
            Clause::new([lit(0, true), lit(1, true)]),
            Clause::new([lit(0, true)]),
            Clause::new([lit(1, true)]),
        ];
        let res = fu_malik(&hard, &soft).unwrap();
        assert_eq!(res.cost, 1);
        assert_eq!(res.satisfied_soft.len(), 2);
    }
}
