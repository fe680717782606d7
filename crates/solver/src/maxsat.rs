//! Partial MaxSAT via the Fu-Malik algorithm.
//!
//! The homeostasis prototype uses "the Fu-Malik Max SAT procedure in the
//! Microsoft Z3 SMT solver" to pick treaty configurations (Section 5.2).
//! This module reimplements the algorithm on top of the in-crate DPLL
//! solver:
//!
//! * hard clauses must be satisfied;
//! * soft clauses should be satisfied; each violated soft clause costs 1;
//! * while the formula (hard ∧ soft) is unsatisfiable, extract an unsat core
//!   among the soft clauses, add a fresh relaxation variable to each soft
//!   clause in the core, and constrain the relaxation variables of the core
//!   with an at-most-one constraint; each round increases the cost by one.
//!
//! Core extraction is deletion-based (one satisfiability verdict per soft
//! clause), which is exact and fast at the instance sizes the treaty
//! optimizer produces.
//!
//! # Verdicts on the selector shape
//!
//! The MaxSMT lemma loop only ever asks about one shape of instance: soft
//! clause `j` is the unit `x_j` and every hard clause is a lemma
//! `¬x_a ∨ ¬x_b ∨ …` over those variables. After some rounds the working
//! formula is then the lemmas, `¬s_j ∨ x_j ∨ r_{j,c} ∨ …` per soft clause
//! (one relaxation variable per core `c` that contained `j`) and at most
//! one true `r_{·,c}` per core. Under the assumptions `s_j, j ∈ A` it is
//! satisfiable iff some choice of at most one relaxed clause per core
//! leaves no lemma wholly inside `A` minus the relaxed clauses: an asserted,
//! unrelaxed clause forces its `x_j`, everything else may set `x_j` false.
//! With at most 64 soft clauses that is a search over bitmasks
//! (`SelectorMasks`), and it answers the verdicts of the deletion scan —
//! most of a solve's questions, none of which reads a model. Every call
//! whose *model* is used still runs the DPLL solver on the working formula,
//! so cores, relaxation variables and the result are the same either way;
//! any other shape takes the DPLL path throughout.

use serde::{Deserialize, Serialize};

use crate::sat::{Clause, Cnf, DpllSolver, Literal, SatResult};

/// The result of a partial MaxSAT call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaxSatResult {
    /// Minimal number of violated soft clauses.
    pub cost: usize,
    /// A model over the *original* variables achieving that cost.
    pub model: Vec<bool>,
    /// Indices (into the soft clause list) of the clauses satisfied by the
    /// model.
    pub satisfied_soft: Vec<usize>,
}

/// Fu-Malik partial MaxSAT solver. One engine serves a whole sequence of
/// instances (the MaxSMT lemma loop solves one per learned lemma) and keeps
/// its SAT solver's scratch between them.
#[derive(Debug, Default)]
pub struct FuMalik {
    /// Number of satisfiability verdicts the last `solve` needs on the DPLL
    /// path: the solves themselves and, per core extraction, one per soft
    /// clause plus the scan's precondition (which only a debug build checks).
    /// It depends on the instance alone, not on how the verdicts were
    /// reached — the selector shape skips some and runs DPLL for none; what
    /// the solve actually ran is [`Self::dpll_runs`].
    pub sat_calls: usize,
    /// Number of DPLL runs the last `solve` made: every verdict on a general
    /// instance, only the model-producing solves on the selector shape.
    pub dpll_runs: usize,
    /// Number of core-relaxation rounds performed by the last `solve`.
    pub rounds: usize,
    solver: DpllSolver,
}

/// The working formula of an instance on the selector shape (module docs),
/// as bitmasks over the soft clauses.
#[derive(Debug)]
struct SelectorMasks {
    /// Per hard clause, the soft clauses it forbids together.
    lemmas: Vec<u64>,
    /// Per relaxation round so far, the core it relaxed.
    cores: Vec<u64>,
}

impl SelectorMasks {
    /// The masks of `(hard, soft)`, if it has the selector shape.
    fn of(hard: &Cnf, soft: &[Clause]) -> Option<Self> {
        let is_unit = |(j, clause): (usize, &Clause)| clause.literals == [Literal::pos(j)];
        if soft.len() > 64 || !soft.iter().enumerate().all(is_unit) {
            return None;
        }
        let mask = |clause: &Clause| {
            clause.literals.iter().try_fold(0u64, |mask, lit| {
                (!lit.positive && lit.var < soft.len()).then(|| mask | 1 << lit.var)
            })
        };
        Some(SelectorMasks {
            lemmas: hard.clauses.iter().map(mask).collect::<Option<_>>()?,
            cores: Vec::new(),
        })
    }

    /// Whether the working formula is satisfiable with the soft clauses of
    /// `forced` asserted and unrelaxed, the cores of `spent` having lent
    /// their relaxation already: the first lemma inside `forced` needs one of
    /// its clauses relaxed by a core that still can, and so on down — at
    /// most one level per core.
    fn is_sat(&self, forced: u64, spent: u64) -> bool {
        let Some(&broken) = self.lemmas.iter().find(|&&lemma| lemma & !forced == 0) else {
            return true;
        };
        // A round raises the cost by one and the cost never passes the
        // number of soft clauses, so a core's index fits the mask too.
        self.cores.iter().enumerate().any(|(c, &core)| {
            spent >> c & 1 == 0
                && bits(core & broken).any(|bit| self.is_sat(forced & !bit, spent | 1 << c))
        })
    }

    /// [`DpllSolver::minimal_core`] over all soft clauses by the same
    /// deletion scan, each verdict answered by [`Self::is_sat`] — or not
    /// asked: a clause in no lemma that lies inside the core so far breaks
    /// none and relaxing it mends none, so the rest is as unsatisfiable
    /// without it.
    fn minimal_core(&self, soft: usize) -> u64 {
        let mut core = if soft == 64 {
            u64::MAX
        } else {
            (1 << soft) - 1
        };
        debug_assert!(!self.is_sat(core, 0));
        for j in 0..soft {
            let inside = self.lemmas.iter().filter(|&&lemma| lemma & !core == 0);
            let idle = inside.fold(0, |all, lemma| all | lemma) >> j & 1 == 0;
            if idle || !self.is_sat(core & !(1 << j), 0) {
                core &= !(1 << j);
            }
        }
        core
    }
}

/// The set bits of `mask`, lowest first, each as a mask of its own.
fn bits(mut mask: u64) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        let bit = mask & mask.wrapping_neg();
        mask ^= bit;
        (bit != 0).then_some(bit)
    })
}

impl FuMalik {
    /// Creates a solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves the partial MaxSAT instance `(hard, soft)`.
    ///
    /// Returns `None` when the hard clauses alone are unsatisfiable.
    pub fn solve(&mut self, hard: &Cnf, soft: &[Clause]) -> Option<MaxSatResult> {
        self.sat_calls = 0;
        self.rounds = 0;
        let runs_before = self.solver.runs;
        let result = self.solve_counted(hard, soft);
        self.dpll_runs = self.solver.runs - runs_before;
        result
    }

    fn solve_counted(&mut self, hard: &Cnf, soft: &[Clause]) -> Option<MaxSatResult> {
        let mut masks = SelectorMasks::of(hard, soft);
        let original_vars = hard.num_vars.max(
            soft.iter()
                .flat_map(|c| c.literals.iter().map(|l| l.var + 1))
                .max()
                .unwrap_or(0),
        );

        // Hard clauses must be satisfiable on their own.
        let mut working = hard.clone();
        working.num_vars = working.num_vars.max(original_vars);
        self.sat_calls += 1;
        let hard_is_sat = match &masks {
            Some(masks) => masks.is_sat(0, 0),
            None => self.solver.is_sat_with_assumptions(&working, &[]),
        };
        if !hard_is_sat {
            return None;
        }

        // Each soft clause gets a selector literal s_i; asserting s_i forces
        // the (possibly relaxed) soft clause to hold. Selectors double as the
        // assumption literals used for core extraction.
        let mut selectors: Vec<Literal> = Vec::with_capacity(soft.len());
        for clause in soft {
            let s = working.fresh_var();
            // (¬s ∨ clause)
            let mut lits = vec![Literal::neg(s)];
            lits.extend(clause.literals.iter().copied());
            working.add_clause(Clause::new(lits));
            selectors.push(Literal::pos(s));
        }

        let mut cost = 0usize;
        loop {
            self.sat_calls += 1;
            match self.solver.solve_with_assumptions(&working, &selectors) {
                SatResult::Sat(model) => {
                    let satisfied_soft = soft
                        .iter()
                        .enumerate()
                        .filter(|(_, clause)| {
                            clause
                                .literals
                                .iter()
                                .any(|l| l.var < model.len() && l.satisfied_by(model[l.var]))
                        })
                        .map(|(i, _)| i)
                        .collect();
                    let model = model.into_iter().take(original_vars).collect();
                    return Some(MaxSatResult {
                        cost,
                        model,
                        satisfied_soft,
                    });
                }
                SatResult::Unsat => {
                    self.rounds += 1;
                    cost += 1;
                    // Find a minimal core among the selector assumptions.
                    self.sat_calls += selectors.len() + 1;
                    let core = match &mut masks {
                        Some(masks) => {
                            let core = masks.minimal_core(soft.len());
                            masks.cores.push(core);
                            let members = selectors.iter().enumerate();
                            let members = members.filter(|(j, _)| core >> j & 1 == 1);
                            members.map(|(_, sel)| *sel).collect()
                        }
                        None => self.solver.minimal_core(&working, &selectors),
                    };
                    if core.is_empty() {
                        // Hard clauses became unsatisfiable, which cannot
                        // happen since we only ever add relaxations.
                        return None;
                    }
                    // Relax every soft clause in the core: add a fresh
                    // relaxation variable r to the clause, and allow at most
                    // one r per core to be true.
                    let mut relax_lits = Vec::with_capacity(core.len());
                    for sel in &core {
                        let r = working.fresh_var();
                        relax_lits.push(Literal::pos(r));
                        // The selector-guarded clause is (¬s ∨ C); relaxing it
                        // means (¬s ∨ C ∨ r). Find the clause guarded by this
                        // selector and extend it.
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
        }
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
        let res = FuMalik::new().solve(&hard, &soft).unwrap();
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
        let res = FuMalik::new().solve(&hard, &soft).unwrap();
        assert_eq!(res.cost, 1);
        assert_eq!(res.satisfied_soft.len(), 1);
    }

    #[test]
    fn hard_constraints_are_never_violated() {
        // Hard: ¬x0; soft: x0, x0, x0. Cost must be 3.
        let mut hard = Cnf::new(1);
        hard.add_unit(lit(0, false));
        let soft = vec![
            Clause::new([lit(0, true)]),
            Clause::new([lit(0, true)]),
            Clause::new([lit(0, true)]),
        ];
        let res = FuMalik::new().solve(&hard, &soft).unwrap();
        assert_eq!(res.cost, 3);
        assert!(res.satisfied_soft.is_empty());
        assert!(!res.model[0]);
    }

    #[test]
    fn unsatisfiable_hard_clauses_return_none() {
        let mut hard = Cnf::new(1);
        hard.add_unit(lit(0, true));
        hard.add_unit(lit(0, false));
        assert!(FuMalik::new().solve(&hard, &[]).is_none());
    }

    #[test]
    fn at_most_one_interaction() {
        // Hard: at most one of x0..xn. Soft: each of them. Best cost = n - 1.
        for n in [3, 6] {
            let mut hard = Cnf::new(n);
            hard.add_at_most_one(&(0..n).map(Literal::pos).collect::<Vec<_>>());
            let soft: Vec<Clause> = (0..n).map(|v| Clause::new([Literal::pos(v)])).collect();
            let res = FuMalik::new().solve(&hard, &soft).unwrap();
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
        let res = FuMalik::new().solve(&hard, &soft).unwrap();
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
        let res = FuMalik::new().solve(&hard, &soft).unwrap();
        assert_eq!(res.cost, 1);
        assert_eq!(res.satisfied_soft.len(), 2);
    }
}
