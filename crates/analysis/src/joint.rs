//! Joint symbolic tables for sets of transactions (Section 2.2).
//!
//! A symbolic table for `K` transactions is a `K+1`-ary relation: each tuple
//! `⟨ϕ_D, φ_1, ..., φ_K⟩` pairs a database predicate with one partially
//! evaluated transaction per member. It is built from the per-transaction
//! tables by taking the cross product and conjoining the guards (Figure 4c),
//! pruning combinations whose conjunction is unsatisfiable.
//!
//! Members that share no object cannot prune each other (Section 5.1's
//! disjoint-footprint argument): when a member row's guard constrains no
//! variable that an earlier member's guards constrain, a conjunction with it
//! is satisfiable iff the guard is, which is decided once per member row
//! instead of once per combination.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use homeo_lang::ast::BExp;
use homeo_lang::database::Database;
use homeo_lang::eval::{EvalError, ParamBinding};

use crate::linearize::{any_feasible, bexp_to_dnf, conjoined_disjuncts, is_satisfiable};
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

/// What [`is_satisfiable`] works out about one member row's guard.
struct GuardFacts {
    /// The size of the guard's DNF; `None` when it has none, which makes
    /// every conjunction with it conservatively satisfiable.
    disjuncts: Option<usize>,
    satisfiable: bool,
    /// The solver variables the guard constrains (none without a DNF).
    vars: BTreeSet<String>,
}

impl GuardFacts {
    fn of(guard: &BExp) -> Self {
        match bexp_to_dnf(guard) {
            Ok(dnf) => GuardFacts {
                disjuncts: Some(dnf.len()),
                satisfiable: any_feasible(&dnf),
                vars: dnf
                    .iter()
                    .flatten()
                    .flat_map(|c| c.vars().cloned())
                    .collect(),
            },
            Err(_) => GuardFacts {
                disjuncts: None,
                satisfiable: true,
                vars: BTreeSet::new(),
            },
        }
    }
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
        // Each accumulated row with the size of its guard's DNF, as
        // `GuardFacts::disjuncts` has it.
        let start = JointRow {
            guard: BExp::True,
            effects: Vec::new(),
        };
        let mut rows = vec![(start, Some(1))];
        // The variables the guards of the tables so far constrain.
        let mut seen: BTreeSet<String> = BTreeSet::new();
        for table in tables {
            let facts: Vec<GuardFacts> = table
                .rows
                .iter()
                .map(|r| GuardFacts::of(&r.guard))
                .collect();
            // A member row's verdict on its own, where that decides every
            // combination with it: its guard shares no variable with `seen`.
            let alone = facts
                .iter()
                .map(|f| f.vars.is_disjoint(&seen).then_some(f.satisfiable));
            let alone: Vec<Option<bool>> = alone.collect();
            let mut next = Vec::with_capacity(rows.len() * table.rows.len().max(1));
            for (acc, acc_disjuncts) in rows {
                let mut extend = |acc: JointRow, at: usize| {
                    let row = &table.rows[at];
                    let JointRow { guard, mut effects } = acc;
                    let guard = guard.and(row.guard.clone());
                    let disjuncts = conjoined_disjuncts(acc_disjuncts, facts[at].disjuncts);
                    // The DNF of a conjunction is the cross product of the
                    // operands' and a disjunct is a feasibility check, which
                    // factors over operands that share no variable — and
                    // `acc`, being a row, has a feasible disjunct.
                    let satisfiable = match (disjuncts, alone[at]) {
                        (None, _) => true,
                        (Some(_), Some(verdict)) => verdict,
                        (Some(_), None) => is_satisfiable(&guard),
                    };
                    if satisfiable {
                        effects.push(row.effect.clone());
                        next.push((JointRow { guard, effects }, disjuncts));
                    }
                };
                // The last member row extends the accumulated row itself,
                // the others a copy: half the clones of a two-row member.
                if let Some(last) = table.rows.len().checked_sub(1) {
                    (0..last).for_each(|at| extend(acc.clone(), at));
                    extend(acc, last);
                }
            }
            rows = next;
            seen.extend(facts.into_iter().flat_map(|facts| facts.vars));
        }
        let rows = rows.into_iter().map(|(row, _)| row).collect();
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
    fn disjoint_members_build_the_rows_every_conjunction_check_would() {
        use homeo_lang::builder::{num, read};
        // `build` as the definition reads: every conjunction checked.
        let by_definition = |tables: &[SymbolicTable]| {
            let mut rows = vec![(BExp::True, Vec::new())];
            for table in tables {
                let mut next = Vec::new();
                for (guard, effects) in &rows {
                    for row in &table.rows {
                        let guard = guard.clone().and(row.guard.clone());
                        if is_satisfiable(&guard) {
                            let effects = effects.iter().cloned().chain([row.effect.clone()]);
                            next.push((guard, effects.collect::<Vec<_>>()));
                        }
                    }
                }
                rows = next;
            }
            rows
        };
        let analyze = |txn: &homeo_lang::ast::Transaction| SymbolicTable::analyze(txn);
        let order = |item: i64| analyze(&programs::micro_order_for_item(item, 100));
        // A member whose second row can never hold (in two disjuncts), one
        // whose guard does not linearize, and members of 2ⁿ disjuncts: past
        // 2⁸ a DNF is over budget, on its own or as a product, and what is
        // conjoined with it is kept however dead.
        let dead = {
            let mut table = order(7);
            let x = read(programs::stock_obj(7).as_str());
            table.rows[1].guard = x.clone().eq(num(3)).not().and(x.eq(num(3)));
            table
        };
        let nonlinear = {
            let mut table = order(8);
            let x = read(programs::stock_obj(8).as_str());
            table.rows[0].guard = x.clone().mul(x).lt(num(9));
            table
        };
        let wide = |item: i64, n: i64| {
            let mut table = order(item);
            let differs = |i: i64| read(format!("w{item}_{i}").as_str()).eq(num(i)).not();
            table.rows[0].guard = (1..n).fold(differs(0), |all, i| all.and(differs(i)));
            table
        };
        let (t1, t2, t3) = (
            analyze(&programs::t1()),
            analyze(&programs::t2()),
            analyze(&programs::t3()),
        );
        let cases: Vec<Vec<SymbolicTable>> = vec![
            (1..=6).map(order).collect(),
            vec![t1.clone(), order(1), t2.clone(), order(2), t3.clone()],
            vec![order(1), order(1), order(2), t3, t1, t2],
            vec![order(1), dead.clone(), order(2), dead.clone()],
            vec![
                order(1),
                nonlinear.clone(),
                dead.clone(),
                order(8),
                order(2),
            ],
            vec![wide(9, 9), order(1), dead.clone(), nonlinear, order(9)],
            vec![
                wide(9, 5),
                dead.clone(),
                wide(10, 3),
                dead.clone(),
                order(1),
            ],
            vec![wide(9, 5), wide(10, 5), dead, order(10)],
        ];
        for (case, tables) in cases.iter().enumerate() {
            let joint = JointSymbolicTable::build(tables);
            let expected = by_definition(tables);
            assert_eq!(joint.len(), expected.len(), "case {case}");
            for (row, (guard, effects)) in joint.rows.iter().zip(&expected) {
                assert_eq!((&row.guard, &row.effects), (guard, effects), "case {case}");
            }
        }
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
