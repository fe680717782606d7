//! Conversion from `L` expressions and formulas to the solver's linear
//! integer arithmetic.
//!
//! The analysis uses this to prune infeasible execution paths, and the treaty
//! generator (Section 4.2) uses it to turn the selected symbolic-table row ψ
//! into a conjunction of linear constraints.
//!
//! * database reads `read(x)` become the solver variable `x`;
//! * transaction parameters `p` become the solver variable `$p` (parameters
//!   are universally quantified for feasibility purposes, so treating them as
//!   free variables is sound);
//! * leftover temporary variables (which cannot occur in fully-constructed
//!   symbolic guards) become `^v`;
//! * non-linear subexpressions (a product of two non-constant operands) make
//!   the conversion fail with [`LinearizeError::NonLinear`].

use homeo_lang::ast::{AExp, BExp, CmpOp};
use homeo_solver::{LinExpr, LinearConstraint};

/// Reasons a formula could not be converted to linear arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinearizeError {
    /// A product of two non-constant expressions.
    NonLinear,
    /// The DNF expansion exceeded the size budget.
    TooManyDisjuncts,
}

impl std::fmt::Display for LinearizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinearizeError::NonLinear => write!(f, "non-linear arithmetic"),
            LinearizeError::TooManyDisjuncts => write!(f, "DNF expansion too large"),
        }
    }
}

impl std::error::Error for LinearizeError {}

/// The solver variable name used for a database object.
pub fn object_var(name: &str) -> String {
    name.to_string()
}

/// The solver variable name used for a transaction parameter.
pub fn param_var(name: &str) -> String {
    format!("${name}")
}

/// The solver variable name used for a (stray) temporary variable.
pub fn temp_var(name: &str) -> String {
    format!("^{name}")
}

/// Converts an arithmetic expression to a linear expression.
pub fn linearize_aexp(e: &AExp) -> Result<LinExpr, LinearizeError> {
    match e {
        AExp::Const(n) => Ok(LinExpr::constant(*n)),
        AExp::Param(p) => Ok(LinExpr::var(param_var(p.as_str()))),
        AExp::Var(v) => Ok(LinExpr::var(temp_var(v.as_str()))),
        AExp::Read(x) => Ok(LinExpr::var(object_var(x.as_str()))),
        AExp::Add(a, b) => Ok(linearize_aexp(a)?.plus(&linearize_aexp(b)?)),
        AExp::Neg(a) => Ok(linearize_aexp(a)?.scaled(-1)),
        AExp::Mul(a, b) => {
            // Allow multiplication by a constant on either side.
            if let Some(k) = a.const_fold() {
                Ok(linearize_aexp(b)?.scaled(k))
            } else if let Some(k) = b.const_fold() {
                Ok(linearize_aexp(a)?.scaled(k))
            } else {
                Err(LinearizeError::NonLinear)
            }
        }
    }
}

/// Converts a comparison atom (with the given polarity) into linear
/// constraints. A negated equality produces the two-disjunct expansion, so
/// the result is a *disjunction* of constraints.
fn atom_to_constraints(
    lhs: &AExp,
    op: CmpOp,
    rhs: &AExp,
    positive: bool,
) -> Result<Vec<LinearConstraint>, LinearizeError> {
    let l = linearize_aexp(lhs)?;
    let r = linearize_aexp(rhs)?;
    Ok(match (op, positive) {
        (CmpOp::Lt, true) => vec![LinearConstraint::lt(l, r)],
        (CmpOp::Le, true) => vec![LinearConstraint::le(l, r)],
        (CmpOp::Eq, true) => vec![LinearConstraint::eq(l, r)],
        // ¬(l < r) ⇔ l ≥ r
        (CmpOp::Lt, false) => vec![LinearConstraint::ge(l, r)],
        // ¬(l ≤ r) ⇔ l > r
        (CmpOp::Le, false) => vec![LinearConstraint::gt(l, r)],
        // ¬(l = r) ⇔ l < r ∨ l > r
        (CmpOp::Eq, false) => vec![
            LinearConstraint::lt(l.clone(), r.clone()),
            LinearConstraint::gt(l, r),
        ],
    })
}

/// Maximum number of disjuncts produced by [`bexp_to_dnf`] before giving up.
const MAX_DISJUNCTS: usize = 256;

/// Converts a boolean formula to disjunctive normal form over linear
/// constraints: the result is a list of conjunctions, the formula being their
/// disjunction.
pub fn bexp_to_dnf(b: &BExp) -> Result<Vec<Vec<LinearConstraint>>, LinearizeError> {
    dnf(b, true)
}

fn dnf(b: &BExp, positive: bool) -> Result<Vec<Vec<LinearConstraint>>, LinearizeError> {
    match (b, positive) {
        (BExp::True, true) | (BExp::False, false) => Ok(vec![vec![]]),
        (BExp::True, false) | (BExp::False, true) => Ok(vec![]),
        (BExp::Cmp(l, op, r), pol) => {
            let disjuncts = atom_to_constraints(l, *op, r, pol)?;
            Ok(disjuncts.into_iter().map(|c| vec![c]).collect())
        }
        (BExp::Not(inner), pol) => dnf(inner, !pol),
        (BExp::And(a, c), true) => {
            // DNF(a) × DNF(c)
            let left = dnf(a, true)?;
            let right = dnf(c, true)?;
            cross(&left, &right)
        }
        (BExp::And(a, c), false) => {
            // ¬(a ∧ c) ⇔ ¬a ∨ ¬c
            let mut out = dnf(a, false)?;
            out.extend(dnf(c, false)?);
            if out.len() > MAX_DISJUNCTS {
                return Err(LinearizeError::TooManyDisjuncts);
            }
            Ok(out)
        }
    }
}

/// The number of disjuncts of `DNF(a ∧ b)` given those of `DNF(a)` and
/// `DNF(b)`; `None` — for an operand too — is a conversion that failed.
pub(crate) fn conjoined_disjuncts(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    let product = a?.saturating_mul(b?);
    (product <= MAX_DISJUNCTS).then_some(product)
}

fn cross(
    left: &[Vec<LinearConstraint>],
    right: &[Vec<LinearConstraint>],
) -> Result<Vec<Vec<LinearConstraint>>, LinearizeError> {
    let size = conjoined_disjuncts(Some(left.len()), Some(right.len()));
    let mut out = Vec::with_capacity(size.ok_or(LinearizeError::TooManyDisjuncts)?);
    for l in left {
        for r in right {
            let mut conj = l.clone();
            conj.extend(r.iter().cloned());
            out.push(conj);
        }
    }
    Ok(out)
}

/// Converts a formula that is (syntactically) a conjunction of atoms or
/// negated atoms into a single conjunction of linear constraints.
///
/// Fails when the formula contains a genuine disjunction (e.g. a negated
/// conjunction or a negated equality) or non-linear arithmetic; callers that
/// need full generality use [`bexp_to_dnf`].
pub fn conjuncts_to_constraints(b: &BExp) -> Result<Vec<LinearConstraint>, LinearizeError> {
    let d = bexp_to_dnf(b)?;
    match d.len() {
        0 => Ok(vec![LinearConstraint::lt(
            LinExpr::constant(0),
            LinExpr::constant(0),
        )]),
        1 => Ok(d.into_iter().next().expect("checked length")),
        _ => Err(LinearizeError::TooManyDisjuncts),
    }
}

/// Checks whether a formula is satisfiable by some database (and some
/// parameter values), using the DNF expansion plus the Fourier–Motzkin
/// engine. Formulas that cannot be linearized are conservatively considered
/// satisfiable.
pub fn is_satisfiable(b: &BExp) -> bool {
    bexp_to_dnf(b).map_or(true, |dnf| any_feasible(&dnf))
}

/// Whether some disjunct of a DNF is feasible.
pub(crate) fn any_feasible(dnf: &[Vec<LinearConstraint>]) -> bool {
    dnf.iter().any(|conj| homeo_solver::fm::is_feasible(conj))
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeo_lang::builder::{num, param, read, var};

    #[test]
    fn linearizes_reads_params_and_constants() {
        let e = read("x").add(param("p").mul(num(3))).sub(num(7));
        let le = linearize_aexp(&e).unwrap();
        assert_eq!(le.coeff("x"), 1);
        assert_eq!(le.coeff("$p"), 3);
        assert_eq!(le.constant_part(), -7);
    }

    #[test]
    fn rejects_nonlinear_products() {
        let e = read("x").mul(read("y"));
        assert_eq!(linearize_aexp(&e), Err(LinearizeError::NonLinear));
        // Constant * read is fine on either side.
        assert!(linearize_aexp(&num(2).mul(read("x"))).is_ok());
        assert!(linearize_aexp(&read("x").mul(num(2))).is_ok());
    }

    #[test]
    fn dnf_of_simple_guard() {
        // x + y < 10 → one disjunct, one constraint
        let b = read("x").add(read("y")).lt(num(10));
        let d = bexp_to_dnf(&b).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].len(), 1);
    }

    #[test]
    fn dnf_of_negated_conjunction() {
        // ¬(x < 10 ∧ y < 5) → x ≥ 10 ∨ y ≥ 5
        let b = read("x").lt(num(10)).and(read("y").lt(num(5))).not();
        let d = bexp_to_dnf(&b).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn dnf_of_negated_equality() {
        let b = read("x").eq(num(3)).not();
        let d = bexp_to_dnf(&b).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn conjunction_only_conversion() {
        let b = read("x").ge(num(0)).and(read("y").lt(num(5)));
        let cs = conjuncts_to_constraints(&b).unwrap();
        assert_eq!(cs.len(), 2);
        // A negated equality cannot be represented as a single conjunction.
        let b2 = read("x").eq(num(3)).not();
        assert!(conjuncts_to_constraints(&b2).is_err());
    }

    #[test]
    fn false_formula_yields_unsatisfiable_constraint() {
        let cs = conjuncts_to_constraints(&BExp::False).unwrap();
        assert!(!homeo_solver::fm::is_feasible(&cs));
    }

    #[test]
    fn satisfiability_checks() {
        use homeo_lang::ast::BExp;
        // 10 ≤ x + y < 20 is satisfiable.
        let sum = read("x").add(read("y"));
        let b = sum.clone().ge(num(10)).and(sum.clone().lt(num(20)));
        assert!(is_satisfiable(&b));
        // x + y < 10 ∧ x + y ≥ 20 is not.
        let b2 = sum.clone().lt(num(10)).and(sum.clone().ge(num(20)));
        assert!(!is_satisfiable(&b2));
        // Conservative on non-linear formulas.
        let b3 = read("x").mul(read("y")).lt(num(0));
        assert!(is_satisfiable(&b3));
        assert!(is_satisfiable(&BExp::True));
        assert!(!is_satisfiable(&BExp::False));
    }

    #[test]
    fn temp_vars_are_tolerated() {
        let b = var("t").lt(num(3));
        let d = bexp_to_dnf(&b).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0][0].vars().next().unwrap(), "^t");
    }
}
