//! Lazy MaxSMT over linear integer arithmetic.
//!
//! Algorithm 1 in the paper asks for "the largest satisfiable subset of
//! constraints that includes all the hard constraints" together with a model.
//! The soft constraints produced by sampled future executions are
//! *conjunctions* of linear constraints (one conjunction per simulated
//! database state), and the hard constraint is the treaty-template validity
//! condition — also a conjunction of linear constraints.
//!
//! This module implements the standard lazy-SMT architecture on top of the
//! in-crate pieces:
//!
//! 1. abstract each soft group `j` with a propositional selector `s_j`;
//! 2. ask the Fu-Malik MaxSAT engine for an assignment maximizing the number
//!    of selected groups, subject to the theory lemmas learned so far;
//! 3. check the selected groups (plus the hard constraints) for feasibility
//!    with the Fourier–Motzkin engine;
//! 4. if feasible, the selection is optimal (the lemmas are sound, so the
//!    propositional optimum is an upper bound); otherwise shrink the
//!    selection to a minimal infeasible subset and add the corresponding
//!    blocking clause, then repeat.

use std::collections::BTreeMap;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::dense::DenseModel;
use crate::fm::{named_model, Feasibility, Prepared};
use crate::linear::{LinearConstraint, VarName};
use crate::maxsat::FuMalik;
use crate::sat::{deletion_core, Clause, Cnf, Literal};

/// A soft group: a conjunction of linear constraints that should ideally hold
/// together (e.g. "no treaty violation in sampled future database Dⱼ").
pub type SoftGroup = Vec<LinearConstraint>;

/// The result of a MaxSMT call. The string front door reports the model
/// keyed by variable name; a caller of [`search`] chooses its own.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaxSmtResult<M = BTreeMap<VarName, i64>> {
    /// Indices of the soft groups that are jointly satisfiable with the hard
    /// constraints (a maximum-cardinality such set).
    pub selected: Vec<usize>,
    /// An integer model satisfying the hard constraints and every selected
    /// group, when one could be extracted.
    pub model: Option<M>,
    /// Number of soft groups left unsatisfied (`soft.len() - selected.len()`).
    pub cost: usize,
    /// Number of theory lemmas (blocking clauses) learned.
    pub lemmas: usize,
    /// True when the search hit its lemma bound and gave up: `selected` is
    /// then empty (the hard constraints alone), not a maximum.
    pub gave_up: bool,
}

impl<M> MaxSmtResult<M> {
    /// The same result with its model respelled (dense ids to names, say).
    pub fn map_model<N>(self, respell: impl FnOnce(M) -> N) -> MaxSmtResult<N> {
        MaxSmtResult {
            selected: self.selected,
            model: self.model.map(respell),
            cost: self.cost,
            lemmas: self.lemmas,
            gave_up: self.gave_up,
        }
    }
}

/// Safety bound on the lemma loop: each iteration learns a new blocking
/// clause over the selectors, so 2^n is a hard ceiling; in practice a handful
/// suffice.
pub(crate) const MAX_LEMMAS: usize = 10_000;

/// Computes a maximum-cardinality subset of `soft_groups` that is jointly
/// feasible with `hard`, together with an integer model.
///
/// Returns `None` when the hard constraints alone are infeasible.
pub fn max_feasible_subset(
    hard: &[LinearConstraint],
    soft_groups: &[SoftGroup],
) -> Option<MaxSmtResult> {
    search_named(hard, soft_groups, MAX_LEMMAS)
}

/// The string front door: interns the names, lays the constraints out as
/// one prepared system (hard rows first, then each group's rows) and names
/// the model on the way out.
fn search_named(
    hard: &[LinearConstraint],
    soft_groups: &[SoftGroup],
    max_lemmas: usize,
) -> Option<MaxSmtResult> {
    let (system, table) = Prepared::of(hard.iter().chain(soft_groups.iter().flatten()));
    let mut next = hard.len();
    let groups: Vec<Range<usize>> = soft_groups
        .iter()
        .map(|group| {
            let start = next;
            next += group.len();
            start..next
        })
        .collect();
    let res = search_rows(&system, 0..hard.len(), &groups, max_lemmas)?;
    Some(res.map_model(|model| named_model(model, &table)))
}

/// The rows of one probe: the hard rows, then each chosen group's.
fn conjoin<'a>(
    hard: &Range<usize>,
    groups: &'a [Range<usize>],
    indices: &'a [usize],
) -> impl Iterator<Item = usize> + 'a {
    let soft = indices.iter().flat_map(|&j| groups[j].clone());
    hard.clone().chain(soft)
}

/// The lemma loop over a prepared system: `hard` and each of `groups` are
/// row ranges of `system`. Every probe conjoins rows by index; nothing is
/// converted twice.
pub(crate) fn search_rows(
    system: &Prepared,
    hard: Range<usize>,
    groups: &[Range<usize>],
    max_lemmas: usize,
) -> Option<MaxSmtResult<DenseModel>> {
    search_bounded(
        groups.len(),
        max_lemmas,
        |indices| system.check(conjoin(&hard, groups, indices)),
        |indices| system.is_feasible(conjoin(&hard, groups, indices)),
    )
}

/// The lemma loop over `n` soft groups with the caller's theory: `check`
/// decides the hard constraints with the given groups (none: the hard
/// constraints alone) and extracts a model — or reports
/// [`Feasibility::FeasibleRationalOnly`] when it keeps none — and
/// `is_feasible` decides the same without one.
pub fn search<M>(
    n: usize,
    check: impl Fn(&[usize]) -> Feasibility<M>,
    is_feasible: impl Fn(&[usize]) -> bool,
) -> Option<MaxSmtResult<M>> {
    search_bounded(n, MAX_LEMMAS, check, is_feasible)
}

/// [`search`], giving up after `max_lemmas`.
fn search_bounded<M>(
    n: usize,
    max_lemmas: usize,
    check: impl Fn(&[usize]) -> Feasibility<M>,
    is_feasible: impl Fn(&[usize]) -> bool,
) -> Option<MaxSmtResult<M>> {
    // The hard system on its own is solved once: it decides `None`, and its
    // model is the answer should the lemma bound be hit.
    let hard_only = match check(&[]) {
        Feasibility::Infeasible => return None,
        Feasibility::Feasible(model) => Some(model),
        Feasibility::FeasibleRationalOnly => None,
    };
    let mut cnf = Cnf::new(n);
    let soft_clauses: Vec<Clause> = (0..n).map(|j| Clause::new([Literal::pos(j)])).collect();
    let mut engine = FuMalik::new();

    for lemmas in 0..max_lemmas {
        let selected = engine
            .solve(&cnf, &soft_clauses)
            .expect("selector abstraction is always satisfiable")
            .satisfied_soft;
        match check(&selected) {
            Feasibility::Infeasible => {
                // Shrink to a minimal infeasible subset of the selected
                // groups (deletion-based), then block it.
                let core = deletion_core(&selected, |subset| !is_feasible(subset));
                debug_assert!(!core.is_empty());
                cnf.add_clause(Clause::new(core.iter().map(|&j| Literal::neg(j))));
            }
            feasible => {
                return Some(MaxSmtResult {
                    cost: n - selected.len(),
                    selected,
                    model: match feasible {
                        Feasibility::Feasible(model) => Some(model),
                        _ => None,
                    },
                    lemmas,
                    gave_up: false,
                });
            }
        }
    }
    // Fall back to the hard-only solution if the lemma bound is ever hit.
    Some(MaxSmtResult {
        selected: Vec::new(),
        model: hard_only,
        cost: n,
        lemmas: max_lemmas,
        gave_up: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinExpr;

    fn var(v: &str) -> LinExpr {
        LinExpr::var(v)
    }

    fn num(n: i64) -> LinExpr {
        LinExpr::constant(n)
    }

    #[test]
    fn all_groups_compatible() {
        let hard = vec![LinearConstraint::ge(var("c"), num(0))];
        let soft = vec![
            vec![LinearConstraint::ge(var("c"), num(3))],
            vec![LinearConstraint::ge(var("c"), num(5))],
        ];
        let res = max_feasible_subset(&hard, &soft).unwrap();
        assert_eq!(res.selected, vec![0, 1]);
        assert_eq!(res.cost, 0);
        let m = res.model.unwrap();
        assert!(m["c"] >= 5);
    }

    #[test]
    fn incompatible_groups_drop_the_minority() {
        // Hard: 0 <= c <= 10. Groups: {c >= 8}, {c >= 7}, {c <= 2}.
        // Best: keep the two lower-bound groups, drop the upper bound.
        let hard = vec![
            LinearConstraint::ge(var("c"), num(0)),
            LinearConstraint::le(var("c"), num(10)),
        ];
        let soft = vec![
            vec![LinearConstraint::ge(var("c"), num(8))],
            vec![LinearConstraint::ge(var("c"), num(7))],
            vec![LinearConstraint::le(var("c"), num(2))],
        ];
        let res = max_feasible_subset(&hard, &soft).unwrap();
        assert_eq!(res.cost, 1);
        assert_eq!(res.selected, vec![0, 1]);
        let m = res.model.unwrap();
        assert!(m["c"] >= 8 && m["c"] <= 10);
        assert!(res.lemmas >= 1);
    }

    #[test]
    fn infeasible_hard_constraints_return_none() {
        let hard = vec![
            LinearConstraint::ge(var("c"), num(1)),
            LinearConstraint::le(var("c"), num(0)),
        ];
        assert!(max_feasible_subset(&hard, &[]).is_none());
    }

    #[test]
    fn paper_appendix_c_example() {
        // Templates: ϕΓ1 : x + cy ≥ 20, ϕΓ2 : cx + y ≥ 20, with D = (10, 13).
        // Validity (H1) reduces to cx + cy ≤ 20; the sampled futures yield the
        // soft groups {cy ≥ 12, cx ≥ 8}, {cy ≥ 13, cx ≥ 7}, {cy ≥ 12, cx ≥ 8}.
        // The optimizer should satisfy groups 0 and 2 (cost 1), e.g. with
        // cy = 12, cx = 8 — exactly the configuration the paper reports.
        let hard = vec![LinearConstraint::le(var("cx").plus(&var("cy")), num(20))];
        let g = |cy: i64, cx: i64| {
            vec![
                LinearConstraint::ge(var("cy"), num(cy)),
                LinearConstraint::ge(var("cx"), num(cx)),
            ]
        };
        let soft = vec![g(12, 8), g(13, 7), g(12, 8)];
        let res = max_feasible_subset(&hard, &soft).unwrap();
        assert_eq!(res.cost, 1);
        assert_eq!(res.selected, vec![0, 2]);
        let m = res.model.unwrap();
        assert!(m["cy"] >= 12 && m["cx"] >= 8 && m["cx"] + m["cy"] <= 20);
    }

    #[test]
    fn groups_spanning_multiple_variables() {
        // Hard: a + b <= 10. Groups pull a and b in different directions.
        let hard = vec![LinearConstraint::le(var("a").plus(&var("b")), num(10))];
        let soft = vec![
            vec![
                LinearConstraint::ge(var("a"), num(6)),
                LinearConstraint::ge(var("b"), num(6)),
            ], // infeasible with hard
            vec![LinearConstraint::ge(var("a"), num(4))],
            vec![LinearConstraint::ge(var("b"), num(5))],
        ];
        let res = max_feasible_subset(&hard, &soft).unwrap();
        assert_eq!(res.cost, 1);
        assert_eq!(res.selected, vec![1, 2]);
        let m = res.model.unwrap();
        assert!(m["a"] >= 4 && m["b"] >= 5 && m["a"] + m["b"] <= 10);
    }

    #[test]
    fn hitting_the_lemma_bound_is_reported() {
        // Two groups that exclude each other need one lemma; with a bound
        // of one the search stops before it can use it.
        let hard = vec![
            LinearConstraint::ge(var("c"), num(0)),
            LinearConstraint::le(var("c"), num(10)),
        ];
        let soft = vec![
            vec![LinearConstraint::ge(var("c"), num(8))],
            vec![LinearConstraint::le(var("c"), num(2))],
        ];
        let stopped = search_named(&hard, &soft, 1).unwrap();
        assert!(stopped.gave_up);
        assert!(stopped.selected.is_empty());
        assert_eq!((stopped.cost, stopped.lemmas), (2, 1));
        let m = stopped.model.expect("the hard constraints have a model");
        assert!((0..=10).contains(&m["c"]));

        let finished = max_feasible_subset(&hard, &soft).unwrap();
        assert!(!finished.gave_up);
        assert_eq!((finished.cost, finished.lemmas), (1, 1));
    }

    #[test]
    fn empty_soft_set_is_trivially_optimal() {
        let hard = vec![LinearConstraint::ge(var("z"), num(0))];
        let res = max_feasible_subset(&hard, &[]).unwrap();
        assert!(res.selected.is_empty());
        assert_eq!(res.cost, 0);
        assert!(res.model.is_some());
    }
}
