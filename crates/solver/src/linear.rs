//! Linear integer arithmetic expressions and constraints.
//!
//! A linear constraint (Section 4.2 of the paper) has the form
//! `Σ dᵢ·xᵢ ⋈ n` where the `dᵢ` and `n` are integers, the `xᵢ` are variables
//! (database objects or configuration variables) and `⋈ ∈ {<, ≤, =}`.
//! Treaty templates, local treaties and the preprocessed global treaty ψ are
//! all conjunctions of such constraints.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Variable names used by the solver: database objects, delta objects or
/// configuration variables, identified by their textual name.
pub type VarName = String;

/// A linear expression `Σ dᵢ·xᵢ + c` with integer coefficients.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinExpr {
    terms: BTreeMap<VarName, i64>,
    constant: i64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        LinExpr {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// The expression `1·x`.
    pub fn var(name: impl Into<VarName>) -> Self {
        Self::term(name, 1)
    }

    /// The expression `coeff·x`.
    pub fn term(name: impl Into<VarName>, coeff: i64) -> Self {
        let mut terms = BTreeMap::new();
        if coeff != 0 {
            terms.insert(name.into(), coeff);
        }
        LinExpr { terms, constant: 0 }
    }

    /// The constant part.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// The coefficient of `name` (0 if absent).
    pub fn coeff(&self, name: &str) -> i64 {
        self.terms.get(name).copied().unwrap_or(0)
    }

    /// Iterates over the non-zero terms in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (&VarName, i64)> {
        self.terms.iter().map(|(k, v)| (k, *v))
    }

    /// The variables with non-zero coefficients.
    pub fn vars(&self) -> impl Iterator<Item = &VarName> {
        self.terms.keys()
    }

    /// True when the expression has no variables.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Adds `coeff·name` in place.
    pub fn add_term(&mut self, name: impl Into<VarName>, coeff: i64) {
        if coeff == 0 {
            return;
        }
        // Cancelled terms are removed to keep equality structural.
        match self.terms.entry(name.into()) {
            Entry::Vacant(slot) => {
                slot.insert(coeff);
            }
            Entry::Occupied(mut slot) => {
                *slot.get_mut() += coeff;
                if *slot.get() == 0 {
                    slot.remove();
                }
            }
        }
    }

    /// Adds a constant in place.
    pub fn add_constant(&mut self, c: i64) {
        self.constant += c;
    }

    /// Returns `self + other`.
    pub fn plus(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        for (v, c) in other.terms() {
            out.add_term(v.clone(), c);
        }
        out.add_constant(other.constant);
        out
    }

    /// Returns `self - other`.
    pub fn minus(&self, other: &LinExpr) -> LinExpr {
        self.plus(&other.scaled(-1))
    }

    /// Returns `k·self`.
    pub fn scaled(&self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        LinExpr {
            terms: self.terms.iter().map(|(v, c)| (v.clone(), c * k)).collect(),
            constant: self.constant * k,
        }
    }

    /// Evaluates the expression under an assignment (missing variables are 0).
    pub fn eval(&self, assignment: &BTreeMap<VarName, i64>) -> i64 {
        self.eval_with(|v| assignment.get(v).copied().unwrap_or(0))
    }

    /// Evaluates the expression, asking `value_of` for each variable it
    /// mentions — the values can live wherever the caller keeps them.
    pub fn eval_with(&self, mut value_of: impl FnMut(&str) -> i64) -> i64 {
        let terms = self.terms.iter();
        self.constant + terms.map(|(v, c)| c * value_of(v)).sum::<i64>()
    }

    /// Substitutes a concrete value for a variable.
    pub fn substitute(&self, name: &str, value: i64) -> LinExpr {
        let mut out = self.clone();
        if let Some(c) = out.terms.remove(name) {
            out.constant += c * value;
        }
        out
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.terms() {
            if first {
                if c == 1 {
                    write!(f, "{v}")?;
                } else if c == -1 {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "{c}*{v}")?;
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}*{v}")?;
                }
            } else if c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}*{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

/// Comparison kinds for linear constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpKind {
    /// `≤`
    Le,
    /// `<`
    Lt,
    /// `=`
    Eq,
}

impl CmpKind {
    /// Evaluates `lhs ⋈ rhs`.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpKind::Le => lhs <= rhs,
            CmpKind::Lt => lhs < rhs,
            CmpKind::Eq => lhs == rhs,
        }
    }

    /// The printable symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpKind::Le => "<=",
            CmpKind::Lt => "<",
            CmpKind::Eq => "=",
        }
    }
}

/// A linear constraint `expr ⋈ 0`, stored in homogeneous form.
///
/// The public constructors accept the natural `lhs ⋈ rhs` form and normalise
/// to `lhs - rhs ⋈ 0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinearConstraint {
    /// The left-hand side; the constraint is `expr ⋈ 0`.
    pub expr: LinExpr,
    /// The comparison against zero.
    pub op: CmpKind,
}

impl LinearConstraint {
    /// `lhs ≤ rhs`.
    pub fn le(lhs: LinExpr, rhs: LinExpr) -> Self {
        LinearConstraint {
            expr: lhs.minus(&rhs),
            op: CmpKind::Le,
        }
    }

    /// `lhs < rhs`.
    pub fn lt(lhs: LinExpr, rhs: LinExpr) -> Self {
        LinearConstraint {
            expr: lhs.minus(&rhs),
            op: CmpKind::Lt,
        }
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: LinExpr, rhs: LinExpr) -> Self {
        LinearConstraint {
            expr: lhs.minus(&rhs),
            op: CmpKind::Eq,
        }
    }

    /// `lhs ≥ rhs` (normalised to `rhs ≤ lhs`).
    pub fn ge(lhs: LinExpr, rhs: LinExpr) -> Self {
        Self::le(rhs, lhs)
    }

    /// `lhs > rhs` (normalised to `rhs < lhs`).
    pub fn gt(lhs: LinExpr, rhs: LinExpr) -> Self {
        Self::lt(rhs, lhs)
    }

    /// The variables mentioned by the constraint.
    pub fn vars(&self) -> impl Iterator<Item = &VarName> {
        self.expr.vars()
    }

    /// Evaluates the constraint under an integer assignment.
    pub fn holds(&self, assignment: &BTreeMap<VarName, i64>) -> bool {
        self.op.eval(self.expr.eval(assignment), 0)
    }

    /// Evaluates the constraint, asking `value_of` for each variable.
    pub fn holds_with(&self, value_of: impl FnMut(&str) -> i64) -> bool {
        self.op.eval(self.expr.eval_with(value_of), 0)
    }

    /// Substitutes a concrete value for a variable.
    pub fn substitute(&self, name: &str, value: i64) -> LinearConstraint {
        LinearConstraint {
            expr: self.expr.substitute(name, value),
            op: self.op,
        }
    }

    /// When the constraint mentions no variables, returns whether it is
    /// trivially true (`Some(true)`), trivially false (`Some(false)`), or
    /// `None` when variables remain.
    pub fn trivially(&self) -> Option<bool> {
        if self.expr.is_constant() {
            Some(self.op.eval(self.expr.constant_part(), 0))
        } else {
            None
        }
    }

    /// Converts a strict integer constraint `expr < 0` into the equivalent
    /// non-strict `expr + 1 ≤ 0`. Equalities and non-strict constraints are
    /// returned unchanged. This is sound and complete over the integers and
    /// lets the Fourier–Motzkin core work with `≤` only.
    pub fn tightened(&self) -> LinearConstraint {
        match self.op {
            CmpKind::Lt => {
                let mut expr = self.expr.clone();
                expr.add_constant(1);
                LinearConstraint {
                    expr,
                    op: CmpKind::Le,
                }
            }
            _ => self.clone(),
        }
    }
}

impl fmt::Display for LinearConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print in `terms ⋈ -constant` form, which reads like the paper.
        let terms_only = LinExpr {
            terms: self.expr.terms.clone(),
            constant: 0,
        };
        write!(
            f,
            "{} {} {}",
            terms_only,
            self.op.symbol(),
            -self.expr.constant_part()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignment(pairs: &[(&str, i64)]) -> BTreeMap<VarName, i64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn expr_building_and_eval() {
        let mut e = LinExpr::var("x");
        e.add_term("y", 2);
        e.add_constant(-3);
        assert_eq!(e.eval(&assignment(&[("x", 5), ("y", 1)])), 4);
        assert_eq!(e.coeff("x"), 1);
        assert_eq!(e.coeff("z"), 0);
    }

    #[test]
    fn cancelling_terms_are_removed() {
        let mut e = LinExpr::term("x", 3);
        e.add_term("x", -3);
        assert!(e.is_constant());
        assert_eq!(e, LinExpr::zero());
    }

    #[test]
    fn plus_minus_scaled() {
        let a = LinExpr::var("x").plus(&LinExpr::constant(2));
        let b = LinExpr::term("x", 2).plus(&LinExpr::var("y"));
        let s = a.plus(&b);
        assert_eq!(s.coeff("x"), 3);
        assert_eq!(s.coeff("y"), 1);
        assert_eq!(s.constant_part(), 2);
        let d = a.minus(&b);
        assert_eq!(d.coeff("x"), -1);
        assert_eq!(d.coeff("y"), -1);
        assert_eq!(a.scaled(-2).coeff("x"), -2);
        assert_eq!(a.scaled(0), LinExpr::zero());
    }

    #[test]
    fn constraint_normalisation_and_holds() {
        // x + y >= 20 should hold for (10, 13)
        let c = LinearConstraint::ge(
            LinExpr::var("x").plus(&LinExpr::var("y")),
            LinExpr::constant(20),
        );
        assert!(c.holds(&assignment(&[("x", 10), ("y", 13)])));
        assert!(!c.holds(&assignment(&[("x", 10), ("y", 9)])));
    }

    #[test]
    fn strict_constraints_tighten_over_integers() {
        // x < 10 becomes x + 1 <= 10, i.e. x <= 9.
        let c = LinearConstraint::lt(LinExpr::var("x"), LinExpr::constant(10));
        let t = c.tightened();
        assert_eq!(t.op, CmpKind::Le);
        assert!(t.holds(&assignment(&[("x", 9)])));
        assert!(!t.holds(&assignment(&[("x", 10)])));
    }

    #[test]
    fn substitution_fixes_variables() {
        let c = LinearConstraint::le(
            LinExpr::var("x").plus(&LinExpr::var("y")),
            LinExpr::constant(5),
        );
        let c2 = c.substitute("y", 3);
        assert!(c2.holds(&assignment(&[("x", 2)])));
        assert!(!c2.holds(&assignment(&[("x", 3)])));
        assert_eq!(
            c.substitute("x", 0).substitute("y", 0).trivially(),
            Some(true)
        );
        assert_eq!(
            c.substitute("x", 9).substitute("y", 0).trivially(),
            Some(false)
        );
    }

    #[test]
    fn display_is_readable() {
        let c = LinearConstraint::ge(
            LinExpr::var("x").plus(&LinExpr::var("y")),
            LinExpr::constant(20),
        );
        // x + y >= 20 is normalised to 20 - x - y <= 0, displayed from terms.
        let s = c.to_string();
        assert!(s.contains("<= "), "{s}");
        let e = LinExpr::term("x", 2)
            .minus(&LinExpr::var("y"))
            .plus(&LinExpr::constant(-7));
        assert_eq!(e.to_string(), "2*x - y - 7");
        assert_eq!(LinExpr::constant(0).to_string(), "0");
    }
}
