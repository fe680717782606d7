//! The string-keyed elimination kernel of the previous revision, kept for
//! **one caller and one release**: counter allowance negotiation
//! (`homeo_protocol::optimizer::optimize_timed_warm`).
//!
//! Every other caller — the string front doors ([`crate::check_feasible`],
//! [`crate::max_feasible_subset`], [`crate::fm::implies`]) and the prepared
//! API — runs on the dense kernel of [`crate::fm`]. The counter path rides the
//! same MaxSMT loop ([`crate::maxsmt`]) but checks each probe here, over
//! `BTreeMap<VarName, Rational>` rows cloned per combination, exactly as it
//! did before the dense rows existed. It is not kept for its own sake: the
//! repo benchmark bounds the run-to-run spread of an *unclaimed* throughput
//! metric by a quarter of its value at the parent commit, and a counter
//! negotiation that is three times faster triples `sim-wan4`'s absolute
//! spread with it (ROADMAP item 1(a′) has the numbers). The change that
//! claims `sim-wan4` `ops_s` deletes this file and points
//! `optimize_timed_warm` at `TreatyTemplates::solve`; the differential tests
//! in `reference.rs` hold this kernel to the same answers and models as the
//! dense one until then.

use std::collections::{BTreeMap, BTreeSet};

use crate::fm::Feasibility;
use crate::linear::{CmpKind, LinearConstraint, VarName};
use crate::maxsmt::{self, MaxSmtResult, SoftGroup};
use crate::rational::Rational;

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
/// constant (see [`crate::fm`]'s module docs). A sort, so a handful of rows cost next to
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

/// [`crate::check_feasible`] on string-keyed rows.
pub(crate) fn check_feasible(constraints: &[LinearConstraint]) -> Feasibility {
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

/// [`crate::max_feasible_subset`] with every probe checked by this kernel:
/// the selected groups' constraints are copied behind the hard ones and
/// solved from scratch.
pub fn max_feasible_subset(
    hard: &[LinearConstraint],
    soft_groups: &[SoftGroup],
) -> Option<MaxSmtResult> {
    let with_groups = |indices: &[usize]| {
        let mut system: Vec<LinearConstraint> = hard.to_vec();
        for &j in indices {
            system.extend(soft_groups[j].iter().cloned());
        }
        check_feasible(&system)
    };
    maxsmt::search(
        soft_groups.len(),
        maxsmt::MAX_LEMMAS,
        with_groups,
        |indices| with_groups(indices).is_feasible(),
    )
}
