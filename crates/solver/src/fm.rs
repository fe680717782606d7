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

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::linear::{CmpKind, LinearConstraint, VarName};
use crate::rational::Rational;

/// The outcome of a feasibility check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Feasibility {
    /// The conjunction has no solution over the rationals (hence none over
    /// the integers).
    Infeasible,
    /// An integer model satisfying every constraint.
    Feasible(BTreeMap<VarName, i64>),
    /// The conjunction is feasible over the rationals but the bounded search
    /// did not produce an integer witness.
    FeasibleRationalOnly,
}

impl Feasibility {
    /// True unless the conjunction is infeasible.
    pub fn is_feasible(&self) -> bool {
        !matches!(self, Feasibility::Infeasible)
    }

    /// The integer model, if one was produced.
    pub fn model(&self) -> Option<&BTreeMap<VarName, i64>> {
        match self {
            Feasibility::Feasible(m) => Some(m),
            _ => None,
        }
    }
}

/// A linear expression with rational coefficients, used internally during
/// elimination.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RatExpr {
    terms: BTreeMap<VarName, Rational>,
    constant: Rational,
}

impl RatExpr {
    fn from_constraint(c: &LinearConstraint) -> (Self, CmpKind) {
        let mut terms = BTreeMap::new();
        for (v, coeff) in c.expr.terms() {
            terms.insert(v.clone(), Rational::from_int(coeff));
        }
        (
            RatExpr {
                terms,
                constant: Rational::from_int(c.expr.constant_part()),
            },
            c.op,
        )
    }

    fn coeff(&self, v: &str) -> Rational {
        self.terms.get(v).copied().unwrap_or(Rational::ZERO)
    }

    fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// self + k * other
    fn add_scaled(&self, other: &RatExpr, k: Rational) -> RatExpr {
        let mut terms = self.terms.clone();
        for (v, c) in &other.terms {
            let entry = terms.entry(v.clone()).or_insert(Rational::ZERO);
            *entry = *entry + *c * k;
        }
        terms.retain(|_, c| !c.is_zero());
        RatExpr {
            terms,
            constant: self.constant + other.constant * k,
        }
    }

    /// Substitute v := replacement (an expression not containing v).
    fn substitute(&self, v: &str, replacement: &RatExpr) -> RatExpr {
        let c = self.coeff(v);
        if c.is_zero() {
            return self.clone();
        }
        let mut without = self.clone();
        without.terms.remove(v);
        without.add_scaled(replacement, c)
    }

    fn eval(&self, assignment: &BTreeMap<VarName, Rational>) -> Rational {
        let mut total = self.constant;
        for (v, c) in &self.terms {
            total = total + *c * assignment.get(v).copied().unwrap_or(Rational::ZERO);
        }
        total
    }
}

/// A constraint `expr ≤ 0` (all strictness removed by integer tightening).
#[derive(Debug, Clone)]
struct RatLe {
    expr: RatExpr,
}

/// Keeps, of every set of rows with equal terms, the one with the largest
/// constant (see the module docs). A sort, so a handful of rows cost next to
/// nothing.
fn prune_dominated(rows: &mut Vec<RatLe>) {
    if rows.len() < 2 {
        return;
    }
    rows.sort_by(|a, b| {
        let by_terms = a.expr.terms.cmp(&b.expr.terms);
        by_terms.then_with(|| b.expr.constant.cmp(&a.expr.constant))
    });
    rows.dedup_by(|later, kept| later.expr.terms == kept.expr.terms);
}

/// Checks the feasibility of a conjunction of linear constraints over the
/// integers and extracts a model when possible.
pub fn check_feasible(constraints: &[LinearConstraint]) -> Feasibility {
    // Step 0: trivial checks and conversion to rational ≤ / = forms.
    let mut les: Vec<RatLe> = Vec::new();
    let mut eqs: Vec<RatExpr> = Vec::new();
    for c in constraints {
        if let Some(truth) = c.trivially() {
            if truth {
                continue;
            }
            return Feasibility::Infeasible;
        }
        let tightened = c.tightened();
        let (expr, op) = RatExpr::from_constraint(&tightened);
        match op {
            CmpKind::Le => les.push(RatLe { expr }),
            CmpKind::Eq => eqs.push(expr),
            CmpKind::Lt => unreachable!("tightened() removes strict inequalities"),
        }
    }

    // Step 1: eliminate equalities by substitution. Record the substitutions
    // so the model can be reconstructed afterwards.
    let mut substitutions: Vec<(VarName, RatExpr)> = Vec::new();
    while let Some(eq) = eqs.pop() {
        if eq.is_constant() {
            if !eq.constant.is_zero() {
                return Feasibility::Infeasible;
            }
            continue;
        }
        // Solve for the first variable: a·v + rest = 0  =>  v = -rest / a.
        let (v, a) = {
            let (v, a) = eq.terms.iter().next().expect("non-constant equality");
            (v.clone(), *a)
        };
        let mut rest = eq.clone();
        rest.terms.remove(&v);
        let replacement = RatExpr {
            terms: rest
                .terms
                .iter()
                .map(|(k, c)| (k.clone(), -(*c / a)))
                .collect(),
            constant: -(rest.constant / a),
        };
        for e in eqs.iter_mut() {
            *e = e.substitute(&v, &replacement);
        }
        for le in les.iter_mut() {
            le.expr = le.expr.substitute(&v, &replacement);
        }
        substitutions.push((v, replacement));
    }

    // Step 2: Fourier–Motzkin elimination over the inequalities.
    let mut vars: BTreeSet<VarName> = BTreeSet::new();
    for le in &les {
        vars.extend(le.expr.terms.keys().cloned());
    }
    // For each eliminated variable remember the constraints that mentioned it
    // (in terms of later-eliminated variables only) for back-substitution.
    let mut elimination_stack: Vec<(VarName, Vec<RatLe>)> = Vec::new();

    for v in vars.iter() {
        let (mut mentioning, rest): (Vec<RatLe>, Vec<RatLe>) =
            les.drain(..).partition(|le| !le.expr.coeff(v).is_zero());
        les = rest;
        prune_dominated(&mut mentioning);
        // Lower bounds: coefficient < 0 (v ≥ ...); upper bounds: coefficient > 0.
        let lowers: Vec<&RatLe> = mentioning
            .iter()
            .filter(|le| le.expr.coeff(v).is_negative())
            .collect();
        let uppers: Vec<&RatLe> = mentioning
            .iter()
            .filter(|le| le.expr.coeff(v).is_positive())
            .collect();
        for lo in &lowers {
            for up in &uppers {
                // lo: a·v + A ≤ 0 with a < 0  =>  v ≥ A / (-a)
                // up: b·v + B ≤ 0 with b > 0  =>  v ≤ -B / b
                // combine: b·A + (-a)·B ≤ 0
                let a = lo.expr.coeff(v);
                let b = up.expr.coeff(v);
                let mut lo_wo = lo.expr.clone();
                lo_wo.terms.remove(v);
                let mut up_wo = up.expr.clone();
                up_wo.terms.remove(v);
                let combined = lo_wo.add_scaled(&up_wo, -a / b).clone();
                // combined = A + (-a/b)·B ≤ 0 (scaled by 1/b > 0, sign safe)
                if combined.is_constant() {
                    if combined.constant.is_positive() {
                        return Feasibility::Infeasible;
                    }
                } else {
                    les.push(RatLe { expr: combined });
                }
            }
        }
        elimination_stack.push((v.clone(), mentioning));
    }

    // Step 3: whatever remains must be constant.
    for le in &les {
        debug_assert!(le.expr.is_constant());
        if le.expr.constant.is_positive() {
            return Feasibility::Infeasible;
        }
    }

    // Step 4: back-substitution to build a model.
    let mut assignment: BTreeMap<VarName, Rational> = BTreeMap::new();
    for (v, constraints) in elimination_stack.iter().rev() {
        let mut lower: Option<Rational> = None;
        let mut upper: Option<Rational> = None;
        for le in constraints {
            let a = le.expr.coeff(v);
            let mut rest = le.expr.clone();
            rest.terms.remove(v);
            let value = rest.eval(&assignment);
            // a·v + value ≤ 0
            if a.is_positive() {
                let bound = -(value / a);
                upper = Some(match upper {
                    Some(u) if u < bound => u,
                    _ => bound,
                });
            } else {
                let bound = -(value / a);
                lower = Some(match lower {
                    Some(l) if l > bound => l,
                    _ => bound,
                });
            }
        }
        let choice = match (lower, upper) {
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
        assignment.insert(v.clone(), choice);
    }
    // Variables eliminated through equalities, in reverse order.
    for (v, replacement) in substitutions.iter().rev() {
        let value = replacement.eval(&assignment);
        assignment.insert(v.clone(), value);
    }

    // Step 5: verify and return an integer model when possible.
    let mut int_model: BTreeMap<VarName, i64> = BTreeMap::new();
    for (v, value) in &assignment {
        match value.to_i64() {
            Some(n) => {
                int_model.insert(v.clone(), n);
            }
            None => return Feasibility::FeasibleRationalOnly,
        }
    }
    if constraints.iter().all(|c| c.holds(&int_model)) {
        Feasibility::Feasible(int_model)
    } else {
        Feasibility::FeasibleRationalOnly
    }
}

/// Convenience wrapper: true when the conjunction has any solution.
pub fn is_feasible(constraints: &[LinearConstraint]) -> bool {
    check_feasible(constraints).is_feasible()
}

/// Checks whether `antecedent ⇒ consequent` holds for every integer
/// assignment, i.e. whether `antecedent ∧ ¬consequent` is infeasible.
///
/// `¬consequent` of a conjunction is a disjunction, so the check is performed
/// clause by clause: the implication holds iff for every constraint `c` in
/// `consequent`, `antecedent ∧ ¬c` is infeasible.
pub fn implies(antecedent: &[LinearConstraint], consequent: &[LinearConstraint]) -> bool {
    consequent.iter().all(|c| {
        let negs = negate_constraint(c);
        // ¬c may itself be a disjunction (for equalities); the implication
        // fails if any disjunct is consistent with the antecedent.
        negs.iter().all(|disjunct| {
            let mut system: Vec<LinearConstraint> = antecedent.to_vec();
            system.push(disjunct.clone());
            !is_feasible(&system)
        })
    })
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
