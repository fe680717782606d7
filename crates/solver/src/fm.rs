//! Feasibility of conjunctions of linear constraints via Fourier–Motzkin
//! elimination.
//!
//! This is the theory engine used by the symbolic-table analysis (to prune
//! infeasible execution paths), by treaty-template validation (H1/H2 of
//! Section 4.1) and by the MaxSMT layer behind the treaty-configuration
//! optimizer.
//!
//! The procedure:
//!
//! 1. strict constraints are tightened to non-strict over the integers
//!    (`e < 0  ⇒  e + 1 ≤ 0`),
//! 2. equalities are removed by Gaussian substitution,
//! 3. remaining inequalities are reduced by Fourier–Motzkin elimination,
//!    dropping dominated rows before each step (below),
//! 4. if the constant residue is consistent, a model is rebuilt by
//!    back-substitution, preferring integer witnesses.
//!
//! Unsatisfiability answers are exact for integer solutions. Satisfiability
//! answers come with an integer model whenever back-substitution finds one
//! (which covers every constraint system the homeostasis pipeline produces);
//! in the remaining corner cases the result is reported as rationally
//! feasible only.
//!
//! # The dominance invariant
//!
//! Row `r` *dominates* row `s` when both have the same term vector and
//! `r`'s constant is at least `s`'s: `t + c_r ≤ 0` implies `t + c_s ≤ 0`.
//! Before a variable is eliminated, only the non-dominated rows mentioning
//! it are kept, so a treaty's many parallel bounds on one configuration
//! variable (one per sampled state) cost one row, and the work is a sum over
//! variables where unpruned elimination builds a product.
//!
//! Pruning changes neither the answer nor the model. A combination of a
//! lower with an upper row has terms fixed by the pair's term vectors and a
//! constant that grows with either constant, so every combination involving
//! a dominated row is itself dominated by the combination of the dominating
//! rows: the non-dominated rows, and with them the constant residue that
//! decides feasibility, are the same at every step. And back-substitution
//! takes the largest lower and the smallest upper bound on a variable, each
//! attained by a non-dominated row, because among rows with equal terms the
//! largest constant gives the tightest bound.

use std::collections::BTreeMap;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::dense::{DenseModel, RatRow, RowRef, Var, VarTable};
use crate::linear::{CmpKind, LinearConstraint, VarName};
use crate::rational::Rational;

/// The outcome of a feasibility check. The string front doors report models
/// keyed by variable name; the prepared API reports a [`DenseModel`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Feasibility<M = BTreeMap<VarName, i64>> {
    /// The conjunction has no solution over the rationals (hence none over
    /// the integers).
    Infeasible,
    /// An integer model satisfying every constraint.
    Feasible(M),
    /// The conjunction is feasible over the rationals but the bounded search
    /// did not produce an integer witness.
    FeasibleRationalOnly,
}

impl<M> Feasibility<M> {
    /// True unless the conjunction is infeasible.
    pub fn is_feasible(&self) -> bool {
        !matches!(self, Feasibility::Infeasible)
    }

    /// The integer model, if one was produced.
    pub fn model(&self) -> Option<&M> {
        match self {
            Feasibility::Feasible(m) => Some(m),
            _ => None,
        }
    }

    /// The same verdict with its model respelled (dense ids to names, say).
    pub fn map_model<N>(self, respell: impl FnOnce(M) -> N) -> Feasibility<N> {
        match self {
            Feasibility::Infeasible => Feasibility::Infeasible,
            Feasibility::Feasible(model) => Feasibility::Feasible(respell(model)),
            Feasibility::FeasibleRationalOnly => Feasibility::FeasibleRationalOnly,
        }
    }
}

/// Spells a dense model with the names the front door interned.
pub(crate) fn named_model(model: DenseModel, table: &VarTable<'_>) -> BTreeMap<VarName, i64> {
    model
        .into_iter()
        .map(|(var, value)| (table.name(var).to_string(), value))
        .collect()
}

/// One row of a prepared system: `terms + constant ≤ 0`, or `= 0`.
#[derive(Debug, Clone)]
struct RowHead {
    /// The row's slice of [`Prepared::terms`].
    terms: Range<usize>,
    constant: Rational,
    equality: bool,
}

/// A system of linear constraints converted once — strictness tightened
/// away, coefficients rational, variables dense — and then checked any
/// number of times, each check naming the rows it conjoins by index. The
/// MaxSMT loop prepares the hard rows and every soft group once and probes
/// subsets; an implication prepares the antecedent once and probes it with
/// each negated consequent.
///
/// Ids must follow `VarName` order (see [`crate::dense`]).
#[derive(Debug, Clone, Default)]
pub struct Prepared {
    vars: usize,
    /// Every row's terms, back to back.
    terms: Vec<(Var, Rational)>,
    rows: Vec<RowHead>,
}

impl Prepared {
    /// An empty system over the variables `0..vars`.
    pub fn new(vars: usize) -> Self {
        Prepared {
            vars,
            ..Prepared::default()
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the system has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends the row `Σ coeff·var + constant ⋈ 0` and returns its index.
    /// `terms` must come in strictly ascending id order.
    ///
    /// # Panics
    /// Panics on an id outside the system's variables.
    pub fn push(
        &mut self,
        terms: impl IntoIterator<Item = (Var, i64)>,
        constant: i64,
        op: CmpKind,
    ) -> usize {
        let start = self.terms.len();
        for (var, coeff) in terms {
            assert!((var as usize) < self.vars, "variable {var} out of range");
            debug_assert!(
                self.terms[start..].last().is_none_or(|&(v, _)| v < var),
                "row terms must be strictly ascending"
            );
            if coeff != 0 {
                self.terms.push((var, Rational::from_int(coeff)));
            }
        }
        // Over the integers `e < 0` is `e + 1 ≤ 0`, which leaves the
        // elimination with `≤` and `=` only.
        let constant = constant + i64::from(op == CmpKind::Lt);
        self.rows.push(RowHead {
            terms: start..self.terms.len(),
            constant: Rational::from_int(constant),
            equality: op == CmpKind::Eq,
        });
        self.rows.len() - 1
    }

    fn push_constraint(&mut self, table: &VarTable<'_>, c: &LinearConstraint) -> usize {
        // `LinExpr` iterates in name order, which is id order.
        let terms = c.expr.terms().map(|(v, coeff)| (table.id(v), coeff));
        self.push(terms, c.expr.constant_part(), c.op)
    }

    /// Interns the constraints' variables and converts every constraint to
    /// a row (row `i` is `constraints[i]`).
    pub(crate) fn of<'a>(
        constraints: impl IntoIterator<Item = &'a LinearConstraint> + Clone,
    ) -> (Self, VarTable<'a>) {
        let table = VarTable::of(constraints.clone());
        let mut system = Prepared::new(table.len());
        for c in constraints {
            system.push_constraint(&table, c);
        }
        (system, table)
    }

    fn row(&self, index: usize) -> RowRef<'_> {
        let head = &self.rows[index];
        RowRef {
            terms: &self.terms[head.terms.clone()],
            constant: head.constant,
        }
    }

    /// Checks the conjunction of the given rows over the integers and
    /// extracts a model when possible.
    pub fn check(&self, rows: impl IntoIterator<Item = usize>) -> Feasibility<DenseModel> {
        match Elimination::run(self, rows) {
            Some(eliminated) => eliminated.model(),
            None => Feasibility::Infeasible,
        }
    }

    /// True when the conjunction of the given rows has any solution; skips
    /// the model.
    pub fn is_feasible(&self, rows: impl IntoIterator<Item = usize>) -> bool {
        Elimination::run(self, rows).is_some()
    }
}

/// A row of one elimination: below `base.len()` a prepared row, above it a
/// row the elimination derived. Untouched prepared rows are never copied.
type Handle = usize;

/// The state of one feasibility check that survived elimination: what
/// back-substitution needs to build the model.
struct Elimination<'a> {
    base: &'a Prepared,
    derived: Vec<RatRow>,
    /// The non-trivial selected rows, for the final verification.
    selected: Vec<usize>,
    /// Variables solved through equalities, in substitution order.
    substitutions: Vec<(Var, RatRow)>,
    /// Eliminated variables, each with the (pruned) rows that mentioned it,
    /// which by then mention later variables only.
    stack: Vec<(Var, Vec<Handle>)>,
}

impl<'a> Elimination<'a> {
    fn get(&self, handle: Handle) -> RowRef<'_> {
        match handle.checked_sub(self.base.len()) {
            None => self.base.row(handle),
            Some(derived) => self.derived[derived].as_ref(),
        }
    }

    fn derive(&mut self, row: RatRow) -> Handle {
        self.derived.push(row);
        self.base.len() + self.derived.len() - 1
    }

    /// Steps 0–3: `None` when the rows are infeasible.
    fn run(base: &'a Prepared, rows: impl IntoIterator<Item = usize>) -> Option<Self> {
        let mut this = Elimination {
            base,
            derived: Vec::new(),
            selected: Vec::new(),
            substitutions: Vec::new(),
            stack: Vec::new(),
        };
        // Step 0: constant rows are decided on the spot.
        let mut les: Vec<Handle> = Vec::new();
        let mut eqs: Vec<Handle> = Vec::new();
        for index in rows {
            let head = &base.rows[index];
            if head.terms.is_empty() {
                let holds = if head.equality {
                    head.constant.is_zero()
                } else {
                    !head.constant.is_positive()
                };
                if holds {
                    continue;
                }
                return None;
            }
            this.selected.push(index);
            if head.equality {
                eqs.push(index);
            } else {
                les.push(index);
            }
        }

        // Step 1: eliminate equalities by substitution, last one first,
        // each solved for its first variable: a·v + rest = 0 ⇒ v = -rest / a.
        while let Some(eq) = eqs.pop() {
            let row = this.get(eq);
            let Some(&(v, a)) = row.terms.first() else {
                if !row.constant.is_zero() {
                    return None;
                }
                continue;
            };
            let replacement = RatRow {
                terms: row.terms[1..].iter().map(|&(k, c)| (k, -(c / a))).collect(),
                constant: -(row.constant / a),
            };
            for slot in eqs.iter_mut().chain(les.iter_mut()) {
                if let Some(new) = this.get(*slot).substitute(v, replacement.as_ref()) {
                    *slot = this.derive(new);
                }
            }
            this.substitutions.push((v, replacement));
        }

        // Step 2: Fourier–Motzkin over the inequalities, variables in
        // ascending id order. Every variable below the one being eliminated
        // is gone from every row, so the rows that mention it are exactly
        // those whose first term does: bucket by first id. A constant row
        // decides itself.
        let mut mentioned = vec![false; base.vars];
        let mut buckets: Vec<Vec<Handle>> = vec![Vec::new(); base.vars];
        for &handle in &les {
            let row = this.get(handle);
            match row.terms.first() {
                None if row.constant.is_positive() => return None,
                None => {}
                Some(&(first, _)) => {
                    for &(v, _) in row.terms {
                        mentioned[v as usize] = true;
                    }
                    buckets[first as usize].push(handle);
                }
            }
        }
        for v in (0..base.vars).filter(|&v| mentioned[v]) {
            let mut mentioning = std::mem::take(&mut buckets[v]);
            this.prune_dominated(&mut mentioning);
            // Lower bounds: coefficient < 0 (v ≥ ...); upper bounds: > 0.
            let (lowers, uppers): (Vec<Handle>, Vec<Handle>) = mentioning
                .iter()
                .partition(|&&h| this.get(h).terms[0].1.is_negative());
            for &lo in &lowers {
                for &up in &uppers {
                    // lo: a·v + A ≤ 0 with a < 0  =>  v ≥ A / (-a)
                    // up: b·v + B ≤ 0 with b > 0  =>  v ≤ -B / b
                    // combined: A + (-a/b)·B ≤ 0 (scaled by 1/b > 0, sign safe)
                    let (lo, up) = (this.get(lo), this.get(up));
                    let (a, b) = (lo.terms[0].1, up.terms[0].1);
                    let combined = lo.tail().add_scaled(up.tail(), -a / b);
                    match combined.terms.first() {
                        None if combined.constant.is_positive() => return None,
                        None => {}
                        Some(&(first, _)) => {
                            let handle = this.derive(combined);
                            buckets[first as usize].push(handle);
                        }
                    }
                }
            }
            this.stack.push((v as Var, mentioning));
        }
        Some(this)
    }

    /// Keeps, of every set of rows with equal terms, the one with the largest
    /// constant (see the module docs), in term order. A treaty's bounds on one
    /// variable share a term vector, so the pass is linear in the rows times
    /// the handful of distinct vectors among them.
    fn prune_dominated(&self, rows: &mut Vec<Handle>) {
        if rows.len() < 2 {
            return;
        }
        let mut kept: Vec<Handle> = Vec::new();
        for &row in rows.iter() {
            let candidate = self.get(row);
            match kept
                .iter_mut()
                .find(|kept| self.get(**kept).terms == candidate.terms)
            {
                Some(kept) if candidate.constant > self.get(*kept).constant => *kept = row,
                Some(_) => {}
                None => kept.push(row),
            }
        }
        kept.sort_by(|&a, &b| self.get(a).terms.cmp(self.get(b).terms));
        *rows = kept;
    }

    /// Steps 4–5: back-substitution, preferring integer witnesses, and the
    /// final check of the integer model against the selected rows.
    fn model(self) -> Feasibility<DenseModel> {
        let vars = self.base.vars;
        let mut values = vec![Rational::ZERO; vars];
        let mut assigned = vec![false; vars];
        for (v, rows) in self.stack.iter().rev() {
            let mut lower: Option<Rational> = None;
            let mut upper: Option<Rational> = None;
            for &handle in rows {
                let row = self.get(handle);
                // a·v + value ≤ 0
                let a = row.terms[0].1;
                let bound = -(row.tail().eval(&values) / a);
                if a.is_positive() {
                    upper = Some(match upper {
                        Some(u) if u < bound => u,
                        _ => bound,
                    });
                } else {
                    lower = Some(match lower {
                        Some(l) if l > bound => l,
                        _ => bound,
                    });
                }
            }
            values[*v as usize] = match (lower, upper) {
                (Some(l), Some(u)) => {
                    // Prefer an integer in [l, u]; fall back to l.
                    let li = Rational::from_int(l.ceil() as i64);
                    if li <= u {
                        li
                    } else {
                        l
                    }
                }
                (Some(l), None) => Rational::from_int(l.ceil() as i64),
                (None, Some(u)) => Rational::from_int(u.floor() as i64),
                (None, None) => Rational::ZERO,
            };
            assigned[*v as usize] = true;
        }
        // Variables eliminated through equalities, in reverse order.
        for (v, replacement) in self.substitutions.iter().rev() {
            values[*v as usize] = replacement.as_ref().eval(&values);
            assigned[*v as usize] = true;
        }

        let mut model = DenseModel::new();
        for v in (0..vars).filter(|&v| assigned[v]) {
            match values[v].to_i64() {
                Some(n) => model.push((v as Var, n)),
                None => return Feasibility::FeasibleRationalOnly,
            }
        }
        // Prepared rows have integer coefficients, and the model is zero
        // wherever it is silent — as `values` still is.
        let holds = |&index: &usize| {
            let total = self.base.row(index).eval(&values);
            if self.base.rows[index].equality {
                total.is_zero()
            } else {
                !total.is_positive()
            }
        };
        if self.selected.iter().all(holds) {
            Feasibility::Feasible(model)
        } else {
            Feasibility::FeasibleRationalOnly
        }
    }
}

/// Checks the feasibility of a conjunction of linear constraints over the
/// integers and extracts a model when possible.
pub fn check_feasible(constraints: &[LinearConstraint]) -> Feasibility {
    let (system, table) = Prepared::of(constraints);
    let checked = system.check(0..system.len());
    checked.map_model(|model| named_model(model, &table))
}

/// Convenience wrapper: true when the conjunction has any solution.
pub fn is_feasible(constraints: &[LinearConstraint]) -> bool {
    let (system, _) = Prepared::of(constraints);
    system.is_feasible(0..system.len())
}

/// An antecedent prepared beside the negations of the constraints it may
/// have to imply: rows `0..antecedent` are the antecedent, and
/// `disjuncts[i]` are the rows of `¬consequent[i]`.
struct Implication {
    system: Prepared,
    disjuncts: Vec<Range<usize>>,
}

impl Implication {
    fn of(antecedent: &[LinearConstraint], consequent: &[LinearConstraint]) -> Self {
        // A negation mentions the variables of what it negates.
        let table = VarTable::of(antecedent.iter().chain(consequent));
        let mut system = Prepared::new(table.len());
        for c in antecedent {
            system.push_constraint(&table, c);
        }
        let disjuncts = consequent
            .iter()
            .map(|c| {
                let start = system.len();
                for disjunct in negate_constraint(c) {
                    system.push_constraint(&table, &disjunct);
                }
                start..system.len()
            })
            .collect();
        Implication { system, disjuncts }
    }

    /// Whether the given antecedent rows imply consequent `i`: `¬c` may be
    /// a disjunction (for equalities), and the implication fails if any
    /// disjunct is consistent with the antecedent.
    fn holds(&self, antecedent: impl Iterator<Item = usize> + Clone, i: usize) -> bool {
        let mut disjuncts = self.disjuncts[i].clone();
        disjuncts.all(|d| !self.system.is_feasible(antecedent.clone().chain([d])))
    }
}

/// Checks whether `antecedent ⇒ consequent` holds for every integer
/// assignment, i.e. whether `antecedent ∧ ¬consequent` is infeasible.
///
/// `¬consequent` of a conjunction is a disjunction, so the check is performed
/// clause by clause: the implication holds iff for every constraint `c` in
/// `consequent`, `antecedent ∧ ¬c` is infeasible.
pub fn implies(antecedent: &[LinearConstraint], consequent: &[LinearConstraint]) -> bool {
    let implication = Implication::of(antecedent, consequent);
    (0..consequent.len()).all(|i| implication.holds(0..antecedent.len(), i))
}

/// Drops, front to back, every constraint the remaining ones imply (e.g. the
/// `x + y ≥ 10` clause subsumed by `x + y ≥ 20` in the Figure 4c row). The
/// system and every negation are prepared once; a candidate is probed by
/// leaving its row out.
pub fn remove_redundant(constraints: Vec<LinearConstraint>) -> Vec<LinearConstraint> {
    let implication = Implication::of(&constraints, &constraints);
    let mut kept: Vec<usize> = (0..constraints.len()).collect();
    let mut i = 0;
    while i < kept.len() && kept.len() > 1 {
        let candidate = kept[i];
        let rest = kept.iter().copied().filter(|&k| k != candidate);
        if implication.holds(rest, candidate) {
            kept.remove(i);
        } else {
            i += 1;
        }
    }
    let mut kept = kept.into_iter().peekable();
    let constraints = constraints.into_iter().enumerate();
    constraints
        .filter_map(|(i, c)| kept.next_if_eq(&i).map(|_| c))
        .collect()
}

/// Negates a single linear constraint over the integers, returning the
/// disjuncts of the negation.
pub fn negate_constraint(c: &LinearConstraint) -> Vec<LinearConstraint> {
    use crate::linear::LinExpr;
    let zero = LinExpr::zero();
    match c.op {
        // ¬(e ≤ 0)  ⇔  e > 0  ⇔  0 < e
        CmpKind::Le => vec![LinearConstraint::lt(zero, c.expr.clone())],
        // ¬(e < 0)  ⇔  e ≥ 0  ⇔  0 ≤ e
        CmpKind::Lt => vec![LinearConstraint::le(zero, c.expr.clone())],
        // ¬(e = 0)  ⇔  e < 0 ∨ e > 0
        CmpKind::Eq => vec![
            LinearConstraint::lt(c.expr.clone(), zero.clone()),
            LinearConstraint::lt(zero, c.expr.clone()),
        ],
    }
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
    fn trivially_true_and_false_systems() {
        assert!(matches!(
            check_feasible(&[LinearConstraint::le(num(1), num(2))]),
            Feasibility::Feasible(_)
        ));
        assert_eq!(
            check_feasible(&[LinearConstraint::le(num(3), num(2))]),
            Feasibility::Infeasible
        );
        assert!(matches!(check_feasible(&[]), Feasibility::Feasible(_)));
    }

    #[test]
    fn simple_bounds_produce_integer_model() {
        // 3 ≤ x ≤ 5, x = y
        let cs = vec![
            LinearConstraint::ge(var("x"), num(3)),
            LinearConstraint::le(var("x"), num(5)),
            LinearConstraint::eq(var("x"), var("y")),
        ];
        match check_feasible(&cs) {
            Feasibility::Feasible(m) => {
                let x = m["x"];
                assert!((3..=5).contains(&x));
                assert_eq!(m["y"], x);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_bounds_are_infeasible() {
        let cs = vec![
            LinearConstraint::ge(var("x"), num(10)),
            LinearConstraint::lt(var("x"), num(10)),
        ];
        assert_eq!(check_feasible(&cs), Feasibility::Infeasible);
    }

    #[test]
    fn chained_sums_are_handled() {
        // x + y >= 20, x <= 5, y <= 10  => 15 < 20: infeasible
        let cs = vec![
            LinearConstraint::ge(var("x").plus(&var("y")), num(20)),
            LinearConstraint::le(var("x"), num(5)),
            LinearConstraint::le(var("y"), num(10)),
        ];
        assert_eq!(check_feasible(&cs), Feasibility::Infeasible);

        // Relax y: feasible with a model.
        let cs = vec![
            LinearConstraint::ge(var("x").plus(&var("y")), num(20)),
            LinearConstraint::le(var("x"), num(5)),
            LinearConstraint::le(var("y"), num(16)),
        ];
        let f = check_feasible(&cs);
        let m = f.model().expect("integer model");
        assert!(m["x"] + m["y"] >= 20);
        assert!(m["x"] <= 5 && m["y"] <= 16);
    }

    #[test]
    fn equalities_are_substituted() {
        // x = 2y, x + y = 9  => y = 3, x = 6
        let cs = vec![
            LinearConstraint::eq(var("x"), LinExpr::term("y", 2)),
            LinearConstraint::eq(var("x").plus(&var("y")), num(9)),
        ];
        let f = check_feasible(&cs);
        let m = f.model().expect("integer model");
        assert_eq!(m["x"], 6);
        assert_eq!(m["y"], 3);
    }

    #[test]
    fn strictness_matters_over_integers() {
        // x < 1 and x > -1 has the single integer solution 0.
        let cs = vec![
            LinearConstraint::lt(var("x"), num(1)),
            LinearConstraint::gt(var("x"), num(-1)),
        ];
        let f = check_feasible(&cs);
        assert_eq!(f.model().expect("model")["x"], 0);

        // 0 < x < 1 has no integer solution; tightening makes it infeasible.
        let cs = vec![
            LinearConstraint::lt(var("x"), num(1)),
            LinearConstraint::gt(var("x"), num(0)),
        ];
        assert_eq!(check_feasible(&cs), Feasibility::Infeasible);
    }

    #[test]
    fn paper_example_path_conditions() {
        // The joint symbolic table of {T1, T2} (Figure 4c) has the row
        // 10 ≤ x + y < 20; it should be satisfiable, and adding x + y < 10
        // makes it unsatisfiable.
        let sum = var("x").plus(&var("y"));
        let row = vec![
            LinearConstraint::ge(sum.clone(), num(10)),
            LinearConstraint::lt(sum.clone(), num(20)),
        ];
        assert!(is_feasible(&row));
        let mut contradiction = row.clone();
        contradiction.push(LinearConstraint::lt(sum, num(10)));
        assert!(!is_feasible(&contradiction));
    }

    #[test]
    fn implication_checks() {
        // (x >= 12 ∧ y >= 8) ⇒ x + y >= 20
        let ante = vec![
            LinearConstraint::ge(var("x"), num(12)),
            LinearConstraint::ge(var("y"), num(8)),
        ];
        let cons = vec![LinearConstraint::ge(var("x").plus(&var("y")), num(20))];
        assert!(implies(&ante, &cons));
        // (x >= 12) alone does not imply it.
        assert!(!implies(&ante[..1], &cons));
        // Anything implies a trivially true consequent.
        assert!(implies(&ante, &[LinearConstraint::le(num(0), num(0))]));
        // An infeasible antecedent implies anything.
        let bad = vec![
            LinearConstraint::ge(var("x"), num(1)),
            LinearConstraint::le(var("x"), num(0)),
        ];
        assert!(implies(&bad, &[LinearConstraint::le(num(5), num(0))]));
    }

    #[test]
    fn negation_of_equality_is_a_disjunction() {
        let c = LinearConstraint::eq(var("x"), num(3));
        let negs = negate_constraint(&c);
        assert_eq!(negs.len(), 2);
        // x = 2 satisfies one disjunct, x = 3 satisfies neither.
        let m2: BTreeMap<VarName, i64> = [("x".to_string(), 2)].into_iter().collect();
        let m3: BTreeMap<VarName, i64> = [("x".to_string(), 3)].into_iter().collect();
        assert!(negs.iter().any(|d| d.holds(&m2)));
        assert!(!negs.iter().any(|d| d.holds(&m3)));
    }

    #[test]
    fn larger_system_with_many_variables() {
        // Pairwise chained x1 ≤ x2 ≤ ... ≤ x6, x1 ≥ 0, x6 ≤ 3, sum ≥ 10.
        let mut cs = Vec::new();
        for i in 1..6 {
            cs.push(LinearConstraint::le(
                var(&format!("x{i}")),
                var(&format!("x{}", i + 1)),
            ));
        }
        cs.push(LinearConstraint::ge(var("x1"), num(0)));
        cs.push(LinearConstraint::le(var("x6"), num(3)));
        let mut sum = LinExpr::zero();
        for i in 1..=6 {
            sum = sum.plus(&var(&format!("x{i}")));
        }
        cs.push(LinearConstraint::ge(sum.clone(), num(10)));
        let f = check_feasible(&cs);
        assert!(f.is_feasible());
        if let Some(m) = f.model() {
            let total: i64 = (1..=6).map(|i| m[&format!("x{i}")]).sum();
            assert!(total >= 10);
        }
        // Making the cap too small flips it to infeasible (6 * 1 < 10).
        cs.push(LinearConstraint::le(var("x6"), num(1)));
        assert!(!is_feasible(&cs));
    }

    #[test]
    fn parallel_bounds_cost_a_sum_not_a_product() {
        // A counter treaty at eight sites: twenty upper bounds per
        // configuration variable (one per sampled state) and one coupling
        // row. Unpruned elimination builds 20^k rows at the k-th variable;
        // the answer is the one the tightest bounds alone give.
        let sites = 8;
        let mut all = Vec::new();
        let mut tightest = Vec::new();
        let mut sum = LinExpr::zero();
        for k in 0..sites {
            let c = var(&format!("c@{k}"));
            sum = sum.plus(&c);
            for state in 0..20 {
                all.push(LinearConstraint::le(
                    c.clone(),
                    num(10 + (state * 7 + k) % 20),
                ));
            }
            tightest.push(LinearConstraint::le(c, num(10)));
        }
        for floor in [70, 80, 81] {
            let coupling = LinearConstraint::ge(sum.clone(), num(floor));
            all.push(coupling.clone());
            tightest.push(coupling);
            assert_eq!(check_feasible(&all), check_feasible(&tightest));
            assert_eq!(is_feasible(&all), floor <= 80);
            all.pop();
            tightest.pop();
        }
    }
}
