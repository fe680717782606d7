//! Dense rows: the representation the elimination kernel works on.
//!
//! A system names its variables once. Each variable gets a dense id
//! ([`Var`]), and a row `Σ cᵢ·xᵢ + constant` is a vector of `(id, cᵢ)` pairs
//! beside its constant, so combining two rows is a merge of two short sorted
//! vectors where the string-keyed form cloned and rebalanced a
//! `BTreeMap<String, Rational>` per probe.
//!
//! # Row invariants
//!
//! * ids are strictly ascending (sorted, no duplicates),
//! * no stored coefficient is zero (a cancelled term is dropped, which keeps
//!   row equality structural),
//! * the constant is kept beside the terms, never as a term.
//!
//! # Why interning cannot change the elimination order
//!
//! Fourier–Motzkin's *answer* does not depend on the order variables are
//! eliminated in, but the *model* it back-substitutes does, and so does the
//! variable an equality is solved for. The string-keyed kernel took both
//! from `BTreeMap` order: variables were eliminated in ascending
//! [`VarName`](crate::VarName) order. The dense kernel eliminates in
//! ascending id order and never sees a name, so the contract is on whoever
//! assigns the ids: **id order must be `VarName` order**. `VarTable`, the
//! interner behind the string front doors, sorts the names and hands out
//! ranks; a caller of the prepared API that numbers its own variables (the
//! treaty templates' configuration table) ranks its names the same way
//! once. Under that contract a sorted `(id, coeff)` vector compares,
//! iterates and "first variable"s exactly like the map it replaces — which
//! is what makes every answer, model and tie-break byte-identical.
//!
//! A consequence the kernel leans on: when variables are eliminated in
//! ascending id order, a row mentions the variable being eliminated iff its
//! *first* term does, so rows are bucketed by first id instead of searched.

use crate::linear::LinearConstraint;
use crate::rational::Rational;

/// A dense variable id. Within one system, id order is `VarName` order.
pub type Var = u32;

/// A model over dense ids: `(id, value)` in ascending id order, one entry per
/// variable the elimination assigned.
pub type DenseModel = Vec<(Var, i64)>;

/// The sorted variable names of one system; a name's id is its rank.
pub(crate) struct VarTable<'a> {
    names: Vec<&'a str>,
}

impl<'a> VarTable<'a> {
    /// Interns every variable the constraints mention.
    pub(crate) fn of(constraints: impl IntoIterator<Item = &'a LinearConstraint>) -> Self {
        let mut names: Vec<&'a str> = constraints
            .into_iter()
            .flat_map(|c| c.vars().map(String::as_str))
            .collect();
        names.sort_unstable();
        names.dedup();
        VarTable { names }
    }

    /// Number of variables.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// The id of an interned name.
    pub(crate) fn id(&self, name: &str) -> Var {
        self.names
            .binary_search(&name)
            .expect("every variable of the system was interned") as Var
    }

    /// The name behind an id.
    pub(crate) fn name(&self, var: Var) -> &'a str {
        self.names[var as usize]
    }
}

/// A borrowed row `Σ cᵢ·xᵢ + constant`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowRef<'a> {
    pub(crate) terms: &'a [(Var, Rational)],
    pub(crate) constant: Rational,
}

/// An owned row, as elimination derives them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RatRow {
    pub(crate) terms: Vec<(Var, Rational)>,
    pub(crate) constant: Rational,
}

impl RatRow {
    pub(crate) fn as_ref(&self) -> RowRef<'_> {
        RowRef {
            terms: &self.terms,
            constant: self.constant,
        }
    }
}

impl<'a> RowRef<'a> {
    /// The row without its first term.
    pub(crate) fn tail(self) -> RowRef<'a> {
        RowRef {
            terms: &self.terms[1..],
            constant: self.constant,
        }
    }

    /// `self + k·other`: a merge of the two term vectors that drops
    /// cancelled terms.
    pub(crate) fn add_scaled(self, other: RowRef<'_>, k: Rational) -> RatRow {
        let mut terms = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() && j < other.terms.len() {
            let ((va, ca), (vb, cb)) = (self.terms[i], other.terms[j]);
            if va < vb {
                terms.push((va, ca));
                i += 1;
            } else {
                let coeff = if va == vb { ca + cb * k } else { cb * k };
                if !coeff.is_zero() {
                    terms.push((vb, coeff));
                }
                i += usize::from(va == vb);
                j += 1;
            }
        }
        terms.extend_from_slice(&self.terms[i..]);
        terms.extend(
            other.terms[j..]
                .iter()
                .map(|&(v, c)| (v, c * k))
                .filter(|(_, c)| !c.is_zero()),
        );
        RatRow {
            terms,
            constant: self.constant + other.constant * k,
        }
    }

    /// The row with `var := replacement` substituted, or `None` when the row
    /// does not mention `var` (`replacement` must not mention it).
    pub(crate) fn substitute(self, var: Var, replacement: RowRef<'_>) -> Option<RatRow> {
        let at = self.terms.iter().position(|&(v, _)| v == var)?;
        let coeff = self.terms[at].1;
        let mut without = Vec::with_capacity(self.terms.len() - 1);
        without.extend_from_slice(&self.terms[..at]);
        without.extend_from_slice(&self.terms[at + 1..]);
        let without = RowRef {
            terms: &without,
            constant: self.constant,
        };
        Some(without.add_scaled(replacement, coeff))
    }

    /// The row's value under `values` (indexed by id).
    pub(crate) fn eval(self, values: &[Rational]) -> Rational {
        self.terms.iter().fold(self.constant, |total, &(v, c)| {
            total + c * values[v as usize]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinExpr;

    fn row(terms: &[(Var, i64)], constant: i64) -> RatRow {
        RatRow {
            terms: terms
                .iter()
                .map(|&(v, c)| (v, Rational::from_int(c)))
                .collect(),
            constant: Rational::from_int(constant),
        }
    }

    #[test]
    fn ids_are_ranks_in_name_order() {
        // `c0@10` sorts before `c0@2`: ids follow the names, not the numbers.
        let cs: Vec<LinearConstraint> = ["c0@2", "c0@10", "c0@2", "b"]
            .iter()
            .map(|v| LinearConstraint::le(LinExpr::var(*v), LinExpr::constant(1)))
            .collect();
        let table = VarTable::of(&cs);
        assert_eq!(table.len(), 3);
        assert_eq!(
            (table.id("b"), table.id("c0@10"), table.id("c0@2")),
            (0, 1, 2)
        );
        assert_eq!(table.name(1), "c0@10");
    }

    #[test]
    fn merging_keeps_rows_sorted_and_drops_cancelled_terms() {
        let a = row(&[(0, 2), (2, 1), (5, -3)], 4);
        let b = row(&[(1, 1), (2, -1), (7, 2)], 1);
        let sum = a.as_ref().add_scaled(b.as_ref(), Rational::ONE);
        assert_eq!(sum, row(&[(0, 2), (1, 1), (5, -3), (7, 2)], 5));
        let scaled = a.as_ref().add_scaled(b.as_ref(), Rational::from_int(-2));
        assert_eq!(scaled, row(&[(0, 2), (1, -2), (2, 3), (5, -3), (7, -4)], 2));
        assert_eq!(a.as_ref().add_scaled(b.as_ref(), Rational::ZERO), a);
    }

    #[test]
    fn substitution_removes_the_variable() {
        // 2·x0 + x2 + 1 with x0 := 3·x1 − x2 + 2 is 6·x1 − x2 + 5.
        let r = row(&[(0, 2), (2, 1)], 1);
        let replacement = row(&[(1, 3), (2, -1)], 2);
        assert_eq!(
            r.as_ref().substitute(0, replacement.as_ref()),
            Some(row(&[(1, 6), (2, -1)], 5))
        );
        assert_eq!(r.as_ref().substitute(1, replacement.as_ref()), None);
        assert_eq!(r.as_ref().tail().terms, &r.terms[1..]);
    }

    #[test]
    fn evaluation_reads_values_by_id() {
        let r = row(&[(0, 2), (2, -1)], 7);
        let values: Vec<Rational> = [3, 100, 5].map(Rational::from_int).to_vec();
        assert_eq!(r.as_ref().eval(&values), Rational::from_int(8));
    }
}
