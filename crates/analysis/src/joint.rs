//! Joint symbolic tables for sets of transactions (Section 2.2).
//!
//! A symbolic table for `K` transactions is a `K+1`-ary relation: each tuple
//! `⟨ϕ_D, φ_1, ..., φ_K⟩` pairs a database predicate with one partially
//! evaluated transaction per member. It is built from the per-transaction
//! tables by taking the cross product and conjoining the guards (Figure 4c),
//! pruning combinations whose conjunction is unsatisfiable.

use std::fmt;

use serde::{Deserialize, Serialize};

use homeo_lang::ast::BExp;
use homeo_lang::database::Database;
use homeo_lang::eval::{EvalError, ParamBinding};

use crate::linearize::is_satisfiable;
use crate::symbolic::{eval_guard, PartialTxn, SymbolicTable};

/// One row of a joint symbolic table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JointRow {
    /// The conjoined guard `ϕ_1 ∧ ... ∧ ϕ_K`.
    pub guard: BExp,
    /// One partially evaluated transaction per analysed transaction, in the
    /// same order as [`JointSymbolicTable::transactions`].
    pub effects: Vec<PartialTxn>,
}

/// A joint symbolic table for a set of transactions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JointSymbolicTable {
    /// Names of the member transactions, in column order.
    pub transactions: Vec<String>,
    /// The rows.
    pub rows: Vec<JointRow>,
}

impl JointSymbolicTable {
    /// Builds the joint table from per-transaction tables.
    ///
    /// Parameterised transactions must be instantiated first: guards of
    /// different transactions would otherwise conflate unrelated parameters
    /// with the same name.
    pub fn build(tables: &[SymbolicTable]) -> Self {
        assert!(
            tables.iter().all(|t| t.params.is_empty()),
            "joint tables require instantiated (parameterless) member tables"
        );
        let transactions = tables.iter().map(|t| t.transaction.clone()).collect();
        let mut rows = vec![JointRow {
            guard: BExp::True,
            effects: Vec::new(),
        }];
        for table in tables {
            let mut next = Vec::with_capacity(rows.len() * table.rows.len().max(1));
            for acc in &rows {
                for row in &table.rows {
                    let guard = acc.guard.clone().and(row.guard.clone());
                    if !is_satisfiable(&guard) {
                        continue;
                    }
                    let mut effects = acc.effects.clone();
                    effects.push(row.effect.clone());
                    next.push(JointRow { guard, effects });
                }
            }
            rows = next;
        }
        JointSymbolicTable { transactions, rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Finds the unique row whose guard is satisfied by the database.
    ///
    /// This is the ψ-selection step at the start of every treaty-generation
    /// phase (Section 4.1).
    pub fn find_row(&self, db: &Database) -> Result<Option<&JointRow>, EvalError> {
        Ok(self.find_row_index(db)?.map(|index| &self.rows[index]))
    }

    /// [`Self::find_row`], returning the row's position in [`Self::rows`] —
    /// the key under which per-row artifacts are cached.
    pub fn find_row_index(&self, db: &Database) -> Result<Option<usize>, EvalError> {
        let empty = ParamBinding::new();
        for (index, row) in self.rows.iter().enumerate() {
            if eval_guard(&row.guard, db, &empty)? {
                return Ok(Some(index));
            }
        }
        Ok(None)
    }
}

impl fmt::Display for JointSymbolicTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "joint symbolic table for {{{}}}:",
            self.transactions.join(", ")
        )?;
        for row in &self.rows {
            write!(
                f,
                "  {:<40}",
                homeo_lang::pretty::bexp_to_string(&row.guard)
            )?;
            for e in &row.effects {
                write!(f, " | {e}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeo_lang::database::Database;
    use homeo_lang::eval::Evaluator;
    use homeo_lang::programs;

    fn joint_t1_t2() -> JointSymbolicTable {
        let t1 = SymbolicTable::analyze(&programs::t1());
        let t2 = SymbolicTable::analyze(&programs::t2());
        JointSymbolicTable::build(&[t1, t2])
    }

    #[test]
    fn joint_table_for_t1_t2_matches_figure_4c() {
        let joint = joint_t1_t2();
        // Figure 4c: three feasible combinations (the x+y ≥ 20 ∧ x+y < 10
        // cross term is pruned as unsatisfiable).
        assert_eq!(joint.len(), 3);
        assert_eq!(joint.transactions, vec!["T1", "T2"]);
        for row in &joint.rows {
            assert_eq!(row.effects.len(), 2);
        }
    }

    #[test]
    fn row_selection_matches_the_paper_example() {
        // With x = 10, y = 13 the paper picks ψ : x + y ≥ 20.
        let joint = joint_t1_t2();
        let db = Database::from_pairs([("x", 10), ("y", 13)]);
        let row = joint.find_row(&db).unwrap().expect("row must exist");
        // Both effects must be the "decrement" variants in that row: running
        // them decreases x and y respectively.
        let t1_out =
            Evaluator::eval(&row.effects[0].to_transaction("p1", vec![]), &db, &[]).unwrap();
        assert_eq!(t1_out.database.get(&"x".into()), 9);
        let t2_out =
            Evaluator::eval(&row.effects[1].to_transaction("p2", vec![]), &db, &[]).unwrap();
        assert_eq!(t2_out.database.get(&"y".into()), 12);
    }

    #[test]
    fn every_database_matches_exactly_one_joint_row() {
        let joint = joint_t1_t2();
        for x in [-5, 0, 4, 9, 10, 15, 19, 20, 30] {
            for y in [0, 1, 5, 10, 25] {
                let db = Database::from_pairs([("x", x), ("y", y)]);
                let matches = joint
                    .rows
                    .iter()
                    .filter(|r| eval_guard(&r.guard, &db, &ParamBinding::new()).unwrap())
                    .count();
                assert_eq!(matches, 1, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn joint_table_over_disjoint_objects_is_a_full_cross_product() {
        // Transactions touching unrelated objects cannot prune any rows.
        let a = SymbolicTable::analyze(&programs::micro_order_for_item(1, 100));
        let b = SymbolicTable::analyze(&programs::micro_order_for_item(2, 100));
        let joint = JointSymbolicTable::build(&[a.clone(), b.clone()]);
        assert_eq!(joint.len(), a.len() * b.len());
    }

    #[test]
    fn singleton_joint_table_mirrors_the_member() {
        let t3 = SymbolicTable::analyze(&programs::t3());
        let joint = JointSymbolicTable::build(std::slice::from_ref(&t3));
        assert_eq!(joint.len(), t3.len());
        assert_eq!(joint.transactions, vec!["T3"]);
    }

    #[test]
    #[should_panic(expected = "instantiated")]
    fn parameterised_members_are_rejected() {
        let t = SymbolicTable::analyze(&programs::topk_insert(0));
        let _ = JointSymbolicTable::build(&[t]);
    }
}
