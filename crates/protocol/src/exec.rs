//! Executing `L` transactions against a site's storage engine.
//!
//! The symbolic-table rows computed offline are registered as stored
//! procedures (Section 5.1); at run time the site executes either the full
//! transaction or a partially evaluated row against its local
//! [`homeo_store::Engine`] inside an engine transaction, so that local
//! concurrency control (strict 2PL) and the WAL see every read and write.
//! The transaction's writes stay staged until an `admit` check on them
//! passes (Section 3.2's pre-commit treaty check); a refused transaction
//! aborts, so nothing of it is applied or logged.

use std::collections::BTreeMap;

use homeo_lang::ast::{AExp, BExp, Com, Transaction};
use homeo_lang::ids::{ObjId, ParamId, TempVar};
use homeo_store::{Engine, EngineError, TxnHandle};

/// The observable result of executing a transaction on an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecResult {
    /// The values printed, in order.
    pub log: Vec<i64>,
    /// The objects written with their new values (staged only, unless the
    /// transaction committed).
    pub writes: BTreeMap<ObjId, i64>,
    /// How the engine transaction ended.
    pub status: ExecStatus,
}

/// How an engine transaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecStatus {
    /// Its writes were applied and logged.
    Committed,
    /// A lock conflict aborted it (the caller decides whether to retry).
    Conflict,
    /// `admit` refused its staged writes, so it aborted.
    Refused,
}

/// Errors from engine-backed execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The underlying engine rejected an operation.
    Engine(EngineError),
    /// A temporary variable or parameter was unbound.
    Unbound(String),
    /// The transaction index is not registered, or the transaction's home
    /// is another site (Assumption 3.1).
    NotHome(usize),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Engine(e) => write!(f, "engine error: {e}"),
            ExecError::Unbound(v) => write!(f, "unbound variable `{v}`"),
            ExecError::NotHome(i) => write!(f, "transaction {i} is not registered at this site"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<EngineError> for ExecError {
    fn from(e: EngineError) -> Self {
        ExecError::Engine(e)
    }
}

struct ExecCtx<'a> {
    engine: &'a Engine,
    txn: &'a TxnHandle,
    temps: BTreeMap<TempVar, i64>,
    params: BTreeMap<ParamId, i64>,
    log: Vec<i64>,
    writes: BTreeMap<ObjId, i64>,
}

impl ExecCtx<'_> {
    fn aexp(&mut self, e: &AExp) -> Result<i64, ExecError> {
        Ok(match e {
            AExp::Const(n) => *n,
            AExp::Param(p) => *self
                .params
                .get(p)
                .ok_or_else(|| ExecError::Unbound(p.to_string()))?,
            AExp::Var(v) => *self
                .temps
                .get(v)
                .ok_or_else(|| ExecError::Unbound(v.to_string()))?,
            AExp::Read(x) => self.engine.read(self.txn, x.as_str())?,
            AExp::Add(a, b) => self.aexp(a)?.wrapping_add(self.aexp(b)?),
            AExp::Mul(a, b) => self.aexp(a)?.wrapping_mul(self.aexp(b)?),
            AExp::Neg(a) => self.aexp(a)?.wrapping_neg(),
        })
    }

    fn bexp(&mut self, b: &BExp) -> Result<bool, ExecError> {
        Ok(match b {
            BExp::True => true,
            BExp::False => false,
            BExp::Cmp(l, op, r) => op.eval(self.aexp(l)?, self.aexp(r)?),
            BExp::And(l, r) => self.bexp(l)? && self.bexp(r)?,
            BExp::Not(inner) => !self.bexp(inner)?,
        })
    }

    fn com(&mut self, c: &Com) -> Result<(), ExecError> {
        match c {
            Com::Skip => Ok(()),
            Com::Assign(v, e) => {
                let value = self.aexp(e)?;
                self.temps.insert(v.clone(), value);
                Ok(())
            }
            Com::Write(x, e) => {
                let value = self.aexp(e)?;
                self.engine.write(self.txn, x.as_str(), value)?;
                self.writes.insert(x.clone(), value);
                Ok(())
            }
            Com::Print(e) => {
                let value = self.aexp(e)?;
                self.log.push(value);
                Ok(())
            }
            Com::Seq(a, b) => {
                self.com(a)?;
                self.com(b)
            }
            Com::If(b, t, e) => {
                if self.bexp(b)? {
                    self.com(t)
                } else {
                    self.com(e)
                }
            }
        }
    }
}

/// Executes `txn` with positional `args` against `engine` inside a fresh
/// engine transaction. Once the body has run, `admit` sees the staged
/// writes: it commits the transaction by returning `true` and aborts it by
/// returning `false`. Lock conflicts abort too; both are reported through
/// [`ExecResult::status`].
pub fn run_on_engine(
    engine: &Engine,
    txn: &Transaction,
    args: &[i64],
    admit: impl FnOnce(&BTreeMap<ObjId, i64>) -> bool,
) -> Result<ExecResult, ExecError> {
    let mut handle = engine.begin();
    let params: BTreeMap<ParamId, i64> = txn
        .params
        .iter()
        .cloned()
        .zip(args.iter().copied())
        .collect();
    if params.len() != txn.params.len() || args.len() != txn.params.len() {
        engine.abort(&mut handle).ok();
        return Err(ExecError::Unbound(format!(
            "{} expects {} arguments, got {}",
            txn.name,
            txn.params.len(),
            args.len()
        )));
    }
    let mut ctx = ExecCtx {
        engine,
        txn: &handle,
        temps: BTreeMap::new(),
        params,
        log: Vec::new(),
        writes: BTreeMap::new(),
    };
    match ctx.com(&txn.body) {
        Ok(()) => {
            let ExecCtx { log, writes, .. } = ctx;
            let status = if admit(&writes) {
                engine.commit(&mut handle)?;
                ExecStatus::Committed
            } else {
                engine.abort(&mut handle)?;
                ExecStatus::Refused
            };
            Ok(ExecResult {
                log,
                writes,
                status,
            })
        }
        Err(ExecError::Engine(EngineError::WouldBlock { .. })) => {
            engine.abort(&mut handle)?;
            Ok(ExecResult {
                log: Vec::new(),
                writes: BTreeMap::new(),
                status: ExecStatus::Conflict,
            })
        }
        Err(e) => {
            engine.abort(&mut handle).ok();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeo_lang::programs;

    #[test]
    fn engine_execution_matches_pure_evaluation() {
        let engine = Engine::new();
        engine.poke("x", 10);
        engine.poke("y", 13);
        let txn = programs::t1();
        let result = run_on_engine(&engine, &txn, &[], |_| true).unwrap();
        assert_eq!(result.status, ExecStatus::Committed);
        assert_eq!(engine.peek("x"), 9);
        assert_eq!(result.writes.get(&ObjId::new("x")), Some(&9));

        // Cross-check against the pure evaluator.
        let db = homeo_lang::Database::from_pairs([("x", 10), ("y", 13)]);
        let pure = homeo_lang::Evaluator::eval(&txn, &db, &[]).unwrap();
        assert_eq!(pure.database.get(&"x".into()), engine.peek("x"));
        assert_eq!(pure.log, result.log);
    }

    #[test]
    fn parameters_are_bound_positionally() {
        let engine = Engine::new();
        engine.poke("stock[5]", 3);
        let txn = programs::micro_order_for_item(5, 100);
        let r = run_on_engine(&engine, &txn, &[], |_| true).unwrap();
        assert_eq!(r.status, ExecStatus::Committed);
        assert_eq!(engine.peek("stock[5]"), 2);
        // Wrong arity is an error, not a silent misbinding.
        let err = run_on_engine(&engine, &txn, &[1], |_| true).unwrap_err();
        assert!(matches!(err, ExecError::Unbound(_)));
    }

    #[test]
    fn lock_conflicts_surface_as_aborts() {
        let engine = Engine::new();
        engine.poke("x", 1);
        // Hold an exclusive lock on x with an external transaction.
        let blocker = engine.begin();
        engine.write(&blocker, "x", 99).unwrap();
        let txn = programs::remote_write_example();
        let result = run_on_engine(&engine, &txn, &[], |_| true).unwrap();
        assert_eq!(result.status, ExecStatus::Conflict);
        // The blocked transaction left no trace.
        assert_eq!(engine.peek("x"), 1);
    }

    #[test]
    fn print_log_is_collected_in_order() {
        use homeo_lang::builder::*;
        let engine = Engine::new();
        let txn = homeo_lang::Transaction::simple(
            "logger",
            seq([print(num(1)), write("a", num(5)), print(read("a"))]),
        );
        let r = run_on_engine(&engine, &txn, &[], |_| true).unwrap();
        assert_eq!(r.log, vec![1, 5]);
    }

    #[test]
    fn a_refused_transaction_leaves_no_write_in_memory_or_in_the_log() {
        let txn = programs::micro_order_for_item(0, 10);
        let stock = "stock[0]";
        for admitted in [false, true] {
            let engine = Engine::new();
            engine.write_logged(stock, 5).unwrap();
            let r = run_on_engine(&engine, &txn, &[], |writes| {
                assert_eq!(writes.get(&ObjId::new(stock)), Some(&4), "staged");
                assert_eq!(engine.peek(stock), 5, "not yet applied");
                admitted
            })
            .unwrap();
            let (status, expected) = if admitted {
                (ExecStatus::Committed, 4)
            } else {
                (ExecStatus::Refused, 5)
            };
            assert_eq!(r.status, status);
            assert_eq!(engine.peek(stock), expected);
            let replayed = Engine::reopen_from_frame(&engine.wal_frame()).unwrap();
            assert_eq!(replayed.peek(stock), expected, "admitted={admitted}");
        }
    }
}
