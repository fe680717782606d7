//! The storage engine façade: transactional object access plus relational
//! tables, built from the lock manager, WAL and table layers.
//!
//! The engine exposes two coordinated views of the same site-local state:
//!
//! * a flat **object namespace** (`String → i64`), which is what compiled
//!   `L`/`L++` transactions and the homeostasis protocol read and write, and
//! * **relational tables**, used by workload generators to populate and
//!   inspect data the way the paper's benchmark drivers do.
//!
//! Object access is transactional in two forms. An **open transaction**
//! ([`Engine::begin`], then [`Engine::read`] / [`Engine::write`], then
//! [`Engine::commit`] or [`Engine::abort`]) spans several calls, so it takes
//! locks: reads shared, writes exclusive (strict 2PL), and its updates are
//! staged and only applied (and logged) at commit. This is the form for
//! multi-statement work. The **one-shot forms** ([`Engine::update_logged`],
//! [`Engine::write_logged`], [`Engine::write_logged_batch`]) read, decide
//! and write inside one hold of the engine mutex, so nothing can interleave
//! with them and they are serializable without taking a lock: they only
//! check the lock table ([`LockManager::is_locked`]) and back off when an
//! open transaction holds an object they touch. Both forms log the same
//! records — `Begin`, the writes, then `Commit` or `Abort` — under fresh
//! transaction ids, and count the same commits and aborts.
//!
//! The log stays bounded. Right after a transaction ends, committed or
//! aborted — the only point where the log has grown and the engine lock is
//! already held — once the WAL holds at least [`CHECKPOINT_RECORDS`] records
//! and twice as many as the object image has entries, and no transaction is
//! in flight, the engine checkpoints ([`Wal::checkpoint`]): the WAL keeps a
//! copy of the committed objects and drops its records. Only log length
//! triggers it, so nothing runs at registration, install or round time, and
//! since the bar grows with the image a checkpoint costs O(1) per logged
//! record while memory stays O(objects). No replay is needed there — with
//! nothing in flight, the object namespace already is the committed image.
//! Recovery ([`Engine::crash_and_recover`], [`Engine::reopen_from_frame`])
//! is the image plus the suffix logged since, and [`Engine::wal_len`] counts
//! that suffix. [`Engine::wal_frame`] writes the image at the head of the
//! frame as one committed transaction under the highest folded id, then the
//! suffix (the layout is in [`crate::wal`]).

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

use crate::locks::{LockManager, LockMode, LockOutcome};
use crate::schema::{Row, TableSchema, Value};
use crate::table::{Table, TableError};
use crate::wal::{LogRecord, Wal};

/// Errors from engine operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineError {
    /// The requested lock conflicts with another transaction.
    WouldBlock {
        /// The object being locked.
        object: String,
    },
    /// The transaction handle is not active.
    NotActive,
    /// A relational-layer error.
    Table(TableError),
    /// Unknown table.
    UnknownTable(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::WouldBlock { object } => {
                write!(f, "lock conflict on `{object}`")
            }
            EngineError::NotActive => write!(f, "transaction is not active"),
            EngineError::Table(e) => write!(f, "table error: {e}"),
            EngineError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<TableError> for EngineError {
    fn from(e: TableError) -> Self {
        EngineError::Table(e)
    }
}

/// Status of a transaction handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnStatus {
    /// Running; may read, write, commit or abort.
    Active,
    /// Successfully committed.
    Committed,
    /// Aborted; its staged writes were discarded.
    Aborted,
}

/// A transaction handle returned by [`Engine::begin`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxnHandle {
    /// Engine-assigned transaction id.
    pub id: u64,
    /// Current status.
    pub status: TxnStatus,
}

#[derive(Debug, Default)]
struct TxnState {
    staged: BTreeMap<String, i64>,
}

/// The fewest WAL records that trigger a checkpoint; a larger image raises
/// the bar to twice its entry count.
pub const CHECKPOINT_RECORDS: usize = 1 << 16;

#[derive(Debug, Default)]
struct EngineInner {
    objects: BTreeMap<String, i64>,
    tables: BTreeMap<String, Table>,
    locks: LockManager,
    wal: Wal,
    transactions: BTreeMap<u64, TxnState>,
    next_txn: u64,
    committed_count: u64,
    aborted_count: u64,
}

impl EngineInner {
    /// Hands out a fresh transaction id and logs its `Begin`.
    fn begin_logged(&mut self) -> u64 {
        self.next_txn += 1;
        let id = self.next_txn;
        self.wal.append(LogRecord::Begin { txn: id });
        id
    }

    /// Logs `txn`'s write of `value` to `object` and applies it in place; a
    /// key `String` is built only for an object the namespace lacks.
    fn write_applied(&mut self, txn: u64, object: &str, value: i64) {
        let previous = match self.objects.get_mut(object) {
            Some(slot) => {
                let previous = *slot;
                if value == 0 {
                    self.objects.remove(object);
                } else {
                    *slot = value;
                }
                previous
            }
            None => {
                if value != 0 {
                    self.objects.insert(object.to_string(), value);
                }
                0
            }
        };
        self.wal.append(LogRecord::Write {
            txn,
            object: object.to_string(),
            value,
            previous,
        });
    }

    /// Logs the end of `txn`, counts it, and checkpoints if due.
    fn end_logged(&mut self, txn: u64, committed: bool) {
        if committed {
            self.wal.append(LogRecord::Commit { txn });
            self.committed_count += 1;
        } else {
            self.wal.append(LogRecord::Abort { txn });
            self.aborted_count += 1;
        }
        self.checkpoint_if_due();
    }

    /// Checkpoints the WAL once it is long enough and no transaction is in
    /// flight (see the module docs); called right after each transaction
    /// ends, committed or aborted.
    fn checkpoint_if_due(&mut self) {
        if self.wal.len() >= CHECKPOINT_RECORDS.max(2 * self.objects.len())
            && self.transactions.is_empty()
        {
            self.wal.checkpoint(self.objects.clone());
        }
    }
}

/// The storage engine for one site. Cheap to share: interior mutability via
/// a single mutex (sites in the simulator are single-threaded, the benchmark
/// driver occasionally inspects engines from the coordinating thread).
#[derive(Debug, Default)]
pub struct Engine {
    inner: Mutex<EngineInner>,
}

impl Engine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the engine state. A panic while holding the lock poisons it in
    /// std; the state is still consistent (every mutation completes under the
    /// lock), so recover the guard rather than propagating the poison.
    fn lock(&self) -> MutexGuard<'_, EngineInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    // ------------------------------------------------------------------
    // Object (key-value) transactional API
    // ------------------------------------------------------------------

    /// Begins a transaction.
    pub fn begin(&self) -> TxnHandle {
        let mut inner = self.lock();
        let id = inner.begin_logged();
        inner.transactions.insert(id, TxnState::default());
        TxnHandle {
            id,
            status: TxnStatus::Active,
        }
    }

    /// Reads an object within a transaction (shared lock; sees the
    /// transaction's own staged writes).
    pub fn read(&self, txn: &TxnHandle, object: &str) -> Result<i64, EngineError> {
        let mut inner = self.lock();
        Self::ensure_active(&inner, txn)?;
        if let Some(v) = inner
            .transactions
            .get(&txn.id)
            .and_then(|t| t.staged.get(object))
        {
            return Ok(*v);
        }
        match inner.locks.acquire(txn.id, object, LockMode::Shared) {
            LockOutcome::Granted => Ok(inner.objects.get(object).copied().unwrap_or(0)),
            LockOutcome::WouldBlock => Err(EngineError::WouldBlock {
                object: object.to_string(),
            }),
        }
    }

    /// Stages a write within a transaction (exclusive lock).
    pub fn write(&self, txn: &TxnHandle, object: &str, value: i64) -> Result<(), EngineError> {
        let mut inner = self.lock();
        Self::ensure_active(&inner, txn)?;
        match inner.locks.acquire(txn.id, object, LockMode::Exclusive) {
            LockOutcome::Granted => {
                inner
                    .transactions
                    .get_mut(&txn.id)
                    .expect("active transaction exists")
                    .staged
                    .insert(object.to_string(), value);
                Ok(())
            }
            LockOutcome::WouldBlock => Err(EngineError::WouldBlock {
                object: object.to_string(),
            }),
        }
    }

    /// Commits the transaction: staged writes are logged and applied, locks
    /// released.
    pub fn commit(&self, txn: &mut TxnHandle) -> Result<(), EngineError> {
        let mut inner = self.lock();
        Self::ensure_active(&inner, txn)?;
        let state = inner
            .transactions
            .remove(&txn.id)
            .ok_or(EngineError::NotActive)?;
        for (object, value) in &state.staged {
            inner.write_applied(txn.id, object, *value);
        }
        inner.locks.release_all(txn.id);
        inner.end_logged(txn.id, true);
        txn.status = TxnStatus::Committed;
        Ok(())
    }

    /// Aborts the transaction: staged writes are discarded, locks released.
    pub fn abort(&self, txn: &mut TxnHandle) -> Result<(), EngineError> {
        let mut inner = self.lock();
        Self::ensure_active(&inner, txn)?;
        inner.transactions.remove(&txn.id);
        inner.locks.release_all(txn.id);
        inner.end_logged(txn.id, false);
        txn.status = TxnStatus::Aborted;
        Ok(())
    }

    fn ensure_active(inner: &EngineInner, txn: &TxnHandle) -> Result<(), EngineError> {
        if txn.status != TxnStatus::Active || !inner.transactions.contains_key(&txn.id) {
            return Err(EngineError::NotActive);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Non-transactional object access (population, snapshots, sync)
    // ------------------------------------------------------------------

    /// Reads an object outside any transaction (used for population, by
    /// the protocol's synchronization phase, which runs when no transactions
    /// are active, and by the pre-commit treaty check for the objects the
    /// checked transaction did not write).
    pub fn peek(&self, object: &str) -> i64 {
        self.lock().objects.get(object).copied().unwrap_or(0)
    }

    /// Writes an object outside any transaction and outside the WAL: for
    /// seeding only (population and fixtures, before any transaction
    /// runs). The write is lost on [`Engine::crash_and_recover`] unless a
    /// checkpoint has folded it into the image since; state that must
    /// survive a crash goes through [`Engine::write_logged`].
    pub fn poke(&self, object: &str, value: i64) {
        let mut inner = self.lock();
        if value == 0 {
            inner.objects.remove(object);
        } else {
            inner.objects.insert(object.to_string(), value);
        }
    }

    /// Reads `object`, lets `f` decide its new value and commits that value,
    /// all under one engine-lock hold — the one-shot form of
    /// begin/read/write/commit for a single-object read-modify-write (a
    /// counter op on the treaty fast path). It takes no lock: if an open
    /// transaction holds one on `object`, the attempt aborts with
    /// [`EngineError::WouldBlock`] before `f` runs. `f` returning `None`
    /// refuses the write and aborts (`Ok(false)`); `Ok(true)` means the write
    /// committed. Either way the log holds the records the open-transaction
    /// form would have written.
    pub fn update_logged(
        &self,
        object: &str,
        f: impl FnOnce(i64) -> Option<i64>,
    ) -> Result<bool, EngineError> {
        let mut inner = self.lock();
        let id = inner.begin_logged();
        if inner.locks.is_locked(object) {
            inner.end_logged(id, false);
            return Err(EngineError::WouldBlock {
                object: object.to_string(),
            });
        }
        let Some(value) = f(inner.objects.get(object).copied().unwrap_or(0)) else {
            inner.end_logged(id, false);
            return Ok(false);
        };
        inner.write_applied(id, object, value);
        inner.end_logged(id, true);
        Ok(true)
    }

    /// Writes `value` to `object` through a fresh logged transaction — the
    /// one-shot form of begin/write/commit used for population writes and
    /// for installing synchronized state. Unlike [`Engine::poke`], the
    /// write is WAL-logged, so it survives [`Engine::crash_and_recover`].
    pub fn write_logged(&self, object: &str, value: i64) -> Result<(), EngineError> {
        self.write_logged_batch(&[(object, value)])
    }

    /// Writes a whole batch of objects through **one** logged transaction,
    /// under a single engine-lock hold and one WAL `Begin`/`Commit` cycle
    /// regardless of its size. Like [`Engine::update_logged`] it takes no
    /// lock, only checks the table: the batch is atomic, and if any object
    /// is locked by an open transaction, nothing is applied and the batch
    /// aborts as a unit.
    ///
    /// Later entries win when the batch names the same object twice (each
    /// write is logged, recovery replays them in order).
    pub fn write_logged_batch(&self, writes: &[(&str, i64)]) -> Result<(), EngineError> {
        if writes.is_empty() {
            return Ok(());
        }
        let mut inner = self.lock();
        let id = inner.begin_logged();
        if let Some((object, _)) = writes.iter().find(|(o, _)| inner.locks.is_locked(o)) {
            inner.end_logged(id, false);
            return Err(EngineError::WouldBlock {
                object: (*object).to_string(),
            });
        }
        for (object, value) in writes {
            inner.write_applied(id, object, *value);
        }
        inner.end_logged(id, true);
        Ok(())
    }

    /// A snapshot of the whole object namespace.
    pub fn snapshot(&self) -> BTreeMap<String, i64> {
        self.lock().objects.clone()
    }

    /// Replaces the object namespace wholesale (used when installing a
    /// recovered or synchronized state).
    pub fn install(&self, objects: BTreeMap<String, i64>) {
        self.lock().objects = objects.into_iter().filter(|(_, v)| *v != 0).collect();
    }

    // ------------------------------------------------------------------
    // Relational layer
    // ------------------------------------------------------------------

    /// Creates a table.
    pub fn create_table(&self, schema: TableSchema) {
        let mut inner = self.lock();
        let name = schema.name.clone();
        inner.tables.insert(name, Table::new(schema));
    }

    /// Runs a closure with read access to a table.
    pub fn with_table<R>(&self, name: &str, f: impl FnOnce(&Table) -> R) -> Result<R, EngineError> {
        let inner = self.lock();
        let table = inner
            .tables
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?;
        Ok(f(table))
    }

    /// Runs a closure with mutable access to a table.
    pub fn with_table_mut<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Table) -> R,
    ) -> Result<R, EngineError> {
        let mut inner = self.lock();
        let table = inner
            .tables
            .get_mut(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?;
        Ok(f(table))
    }

    /// Inserts a row into a table.
    pub fn insert_row(&self, table: &str, row: Row) -> Result<(), EngineError> {
        self.with_table_mut(table, |t| t.insert(row))?
            .map_err(EngineError::from)
    }

    /// Fetches a row by primary key.
    pub fn get_row(&self, table: &str, key: &[Value]) -> Result<Option<Row>, EngineError> {
        self.with_table(table, |t| t.get(key).cloned())
    }

    // ------------------------------------------------------------------
    // Durability & statistics
    // ------------------------------------------------------------------

    /// Simulates a crash + recovery: the object state is rebuilt from the
    /// WAL's records replayed over its checkpoint image, and all in-flight
    /// transactions disappear. Relational tables (population data) survive,
    /// matching the paper's "all in-memory state can be recomputed" stance.
    pub fn crash_and_recover(&self) {
        let mut inner = self.lock();
        let recovered = inner.wal.recover(inner.wal.image());
        inner.objects = recovered
            .objects
            .into_iter()
            .filter(|(_, v)| *v != 0)
            .collect();
        inner.transactions.clear();
        inner.locks = LockManager::new();
    }

    /// Serializes the WAL to the binary frame an on-disk log writer would
    /// hold: the checkpoint image as one committed transaction, then the
    /// records since (length-prefixed; see [`Wal::encode`]).
    pub fn wal_frame(&self) -> Vec<u8> {
        self.lock().wal.encode()
    }

    /// Reopens an engine from a (possibly torn) WAL frame, as after a crash
    /// that cut the log mid-record: the longest clean prefix — the image
    /// transaction at its head, then the suffix — is replayed and the
    /// committed object state installed. Relational tables are *not*
    /// part of the log (population data is reloaded by the workload, per the
    /// paper's "all in-memory state can be recomputed" stance). Returns
    /// `None` when even the frame header is unreadable.
    pub fn reopen_from_frame(frame: &[u8]) -> Option<Engine> {
        let wal = Wal::decode_prefix(frame)?;
        let recovered = wal.recover(&BTreeMap::new());
        // Fresh transaction ids must not collide with ANY id in the log —
        // committed, aborted or torn in-flight. Reusing a torn transaction's
        // id would let a later commit of the fresh transaction resurrect the
        // torn one's surviving writes on the next replay.
        let max_txn = wal.max_txn_id();
        let engine = Engine::new();
        {
            let mut inner = engine.lock();
            inner.objects = recovered
                .objects
                .into_iter()
                .filter(|(_, v)| *v != 0)
                .collect();
            inner.wal = wal;
            inner.next_txn = max_txn;
        }
        Some(engine)
    }

    /// Number of committed transactions.
    pub fn committed_count(&self) -> u64 {
        self.lock().committed_count
    }

    /// Number of aborted transactions.
    pub fn aborted_count(&self) -> u64 {
        self.lock().aborted_count
    }

    /// Number of WAL records since the last checkpoint (diagnostics).
    pub fn wal_len(&self) -> usize {
        self.lock().wal.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    #[test]
    fn read_write_commit_cycle() {
        let engine = Engine::new();
        let mut txn = engine.begin();
        assert_eq!(engine.read(&txn, "x").unwrap(), 0);
        engine.write(&txn, "x", 5).unwrap();
        // Own writes are visible before commit.
        assert_eq!(engine.read(&txn, "x").unwrap(), 5);
        // But not outside the transaction.
        assert_eq!(engine.peek("x"), 0);
        engine.commit(&mut txn).unwrap();
        assert_eq!(engine.peek("x"), 5);
        assert_eq!(engine.committed_count(), 1);
    }

    #[test]
    fn abort_discards_staged_writes() {
        let engine = Engine::new();
        let mut txn = engine.begin();
        engine.write(&txn, "x", 9).unwrap();
        engine.abort(&mut txn).unwrap();
        assert_eq!(engine.peek("x"), 0);
        assert_eq!(engine.aborted_count(), 1);
        assert!(matches!(
            engine.read(&txn, "x"),
            Err(EngineError::NotActive)
        ));
    }

    #[test]
    fn conflicting_writers_block() {
        let engine = Engine::new();
        let mut t1 = engine.begin();
        let t2 = engine.begin();
        engine.write(&t1, "x", 1).unwrap();
        assert!(matches!(
            engine.write(&t2, "x", 2),
            Err(EngineError::WouldBlock { .. })
        ));
        assert!(matches!(
            engine.read(&t2, "x"),
            Err(EngineError::WouldBlock { .. })
        ));
        engine.commit(&mut t1).unwrap();
        // After commit the lock is free.
        assert_eq!(engine.read(&t2, "x").unwrap(), 1);
    }

    #[test]
    fn readers_do_not_block_each_other() {
        let engine = Engine::new();
        engine.poke("x", 7);
        let t1 = engine.begin();
        let t2 = engine.begin();
        assert_eq!(engine.read(&t1, "x").unwrap(), 7);
        assert_eq!(engine.read(&t2, "x").unwrap(), 7);
        // But a writer now blocks.
        let t3 = engine.begin();
        assert!(matches!(
            engine.write(&t3, "x", 0),
            Err(EngineError::WouldBlock { .. })
        ));
    }

    #[test]
    fn serializable_interleaving_of_counter_increments() {
        // Two increments executed with proper locking produce the serial sum.
        let engine = Engine::new();
        engine.poke("counter", 0);
        for _ in 0..10 {
            let mut t = engine.begin();
            let v = engine.read(&t, "counter").unwrap();
            engine.write(&t, "counter", v + 1).unwrap();
            engine.commit(&mut t).unwrap();
        }
        assert_eq!(engine.peek("counter"), 10);
    }

    #[test]
    fn crash_recovery_replays_committed_transactions_only() {
        let engine = Engine::new();
        let mut t1 = engine.begin();
        engine.write(&t1, "x", 5).unwrap();
        engine.commit(&mut t1).unwrap();
        let t2 = engine.begin();
        engine.write(&t2, "y", 9).unwrap();
        // t2 never commits; crash.
        engine.crash_and_recover();
        assert_eq!(engine.peek("x"), 5);
        assert_eq!(engine.peek("y"), 0);
        // The engine is usable after recovery.
        let mut t3 = engine.begin();
        engine.write(&t3, "y", 1).unwrap();
        engine.commit(&mut t3).unwrap();
        assert_eq!(engine.peek("y"), 1);
    }

    #[test]
    fn reopen_from_a_torn_wal_frame_replays_the_clean_prefix() {
        // Build a log: one committed write, then crash mid-way through a
        // second transaction's record.
        let engine = Engine::new();
        let mut t1 = engine.begin();
        engine.write(&t1, "x", 5).unwrap();
        engine.commit(&mut t1).unwrap();
        let mut t2 = engine.begin();
        engine.write(&t2, "y", 9).unwrap();
        engine.commit(&mut t2).unwrap();
        let frame = engine.wal_frame();
        // The crash tears the frame inside t2's records.
        let torn = &frame[..frame.len() - 6];
        let reopened = Engine::reopen_from_frame(torn).expect("header intact");
        assert_eq!(reopened.peek("x"), 5, "the clean prefix replays");
        assert_eq!(reopened.peek("y"), 0, "the torn transaction is gone");
        // The reopened engine accepts new transactions with fresh ids.
        let mut t3 = reopened.begin();
        reopened.write(&t3, "y", 2).unwrap();
        reopened.commit(&mut t3).unwrap();
        assert_eq!(reopened.peek("y"), 2);
        // An intact frame reopens to exactly the pre-crash state.
        let full = Engine::reopen_from_frame(&frame).expect("intact frame");
        assert_eq!(full.peek("x"), 5);
        assert_eq!(full.peek("y"), 9);
        assert!(Engine::reopen_from_frame(&frame[..2]).is_none());
    }

    #[test]
    fn a_long_run_keeps_a_bounded_log_and_reopens_to_the_same_state() {
        // 240 k records, several checkpoints' worth. The log folds as it
        // grows, and its frame (the image, then the suffix) reopens to the
        // same state without handing out a used transaction id.
        let engine = Engine::new();
        let objects: Vec<String> = (0..64).map(|i| format!("o{i}")).collect();
        let batch = 19;
        // Written once, so only the image can restore it.
        engine.write_logged("first", 1).unwrap();
        for round in 0..10_000i64 {
            let writes = (0..batch).map(|i| {
                let at = (round as usize * batch + i) % objects.len();
                (objects[at].as_str(), round + 1)
            });
            engine
                .write_logged_batch(&writes.collect::<Vec<_>>())
                .unwrap();
            // Batches and singleton transactions alternate.
            engine.write_logged("solo", round + 1).unwrap();
        }
        assert!(engine.wal_len() < CHECKPOINT_RECORDS);
        let reopened = Engine::reopen_from_frame(&engine.wal_frame()).expect("intact frame");
        assert_eq!(reopened.snapshot(), engine.snapshot());
        assert_eq!(reopened.peek("solo"), 10_000);
        assert_eq!(reopened.peek("first"), 1);
        // Every round committed two transactions after the first one, with
        // ids counted from 1.
        let fresh = reopened.begin();
        assert!(fresh.id > 20_001, "fresh id {} was used before", fresh.id);
        // In memory, too, recovery is the image plus the suffix.
        let before = engine.snapshot();
        engine.crash_and_recover();
        assert_eq!(engine.snapshot(), before);
    }

    #[test]
    fn reopened_engines_never_reuse_torn_transaction_ids() {
        // t1 (id 1) commits x=5; t2 (id 2) writes z=9 but its Commit record
        // is torn off by the crash. A fresh transaction on the reopened
        // engine must NOT reuse id 2: if it did, its own Commit{2} would
        // make the next replay treat t2 as committed and resurrect z=9.
        let engine = Engine::new();
        let mut t1 = engine.begin();
        engine.write(&t1, "x", 5).unwrap();
        engine.commit(&mut t1).unwrap();
        let mut t2 = engine.begin();
        engine.write(&t2, "z", 9).unwrap();
        engine.commit(&mut t2).unwrap();
        let frame = engine.wal_frame();
        let torn = &frame[..frame.len() - 6]; // tear inside t2's Commit
        let reopened = Engine::reopen_from_frame(torn).expect("header intact");
        assert_eq!(reopened.peek("z"), 0);
        let mut t3 = reopened.begin();
        assert!(t3.id > 2, "fresh id {} collides with the torn txn", t3.id);
        reopened.write(&t3, "y", 1).unwrap();
        reopened.commit(&mut t3).unwrap();
        // Replaying the combined log keeps the torn transaction dead.
        reopened.crash_and_recover();
        assert_eq!(reopened.peek("x"), 5);
        assert_eq!(reopened.peek("y"), 1);
        assert_eq!(reopened.peek("z"), 0, "torn write resurrected");
    }

    #[test]
    fn write_logged_is_durable_and_respects_locks() {
        let engine = Engine::new();
        engine.write_logged("x", 5).unwrap();
        assert_eq!(engine.peek("x"), 5);
        engine.crash_and_recover();
        assert_eq!(engine.peek("x"), 5, "write_logged must be WAL-covered");
        // A conflicting in-flight writer blocks it instead of clobbering.
        let mut t = engine.begin();
        engine.write(&t, "x", 9).unwrap();
        assert!(matches!(
            engine.write_logged("x", 1),
            Err(EngineError::WouldBlock { .. })
        ));
        engine.commit(&mut t).unwrap();
        assert_eq!(engine.peek("x"), 9);
    }

    #[test]
    fn write_logged_batch_is_one_commit_cycle() {
        let engine = Engine::new();
        let before = engine.wal_len();
        engine
            .write_logged_batch(&[("a", 1), ("b", 2), ("c", 3)])
            .unwrap();
        assert_eq!(engine.peek("a"), 1);
        assert_eq!(engine.peek("c"), 3);
        // One Begin + three Writes + one Commit, not three full cycles.
        assert_eq!(engine.wal_len() - before, 5);
        assert_eq!(engine.committed_count(), 1);
        // And the whole batch is durable.
        engine.crash_and_recover();
        assert_eq!(engine.peek("b"), 2);
    }

    #[test]
    fn write_logged_batch_is_atomic_under_conflict() {
        let engine = Engine::new();
        engine.write_logged("b", 7).unwrap();
        let mut t = engine.begin();
        engine.write(&t, "b", 9).unwrap();
        // `b` is locked: the whole batch aborts, `a` is not applied.
        assert!(matches!(
            engine.write_logged_batch(&[("a", 1), ("b", 2)]),
            Err(EngineError::WouldBlock { .. })
        ));
        assert_eq!(engine.peek("a"), 0);
        assert_eq!(engine.peek("b"), 7);
        assert_eq!(engine.aborted_count(), 1);
        engine.commit(&mut t).unwrap();
        // After the conflict clears the batch goes through.
        engine.write_logged_batch(&[("a", 1), ("b", 2)]).unwrap();
        assert_eq!(engine.peek("a"), 1);
        assert_eq!(engine.peek("b"), 2);
    }

    #[test]
    fn write_logged_batch_duplicate_objects_apply_in_order() {
        let engine = Engine::new();
        engine.write_logged_batch(&[("x", 5), ("x", 9)]).unwrap();
        assert_eq!(engine.peek("x"), 9);
        engine.crash_and_recover();
        assert_eq!(engine.peek("x"), 9, "recovery replays the last write");
        // An empty batch is a no-op, not a logged transaction.
        let before = engine.wal_len();
        engine.write_logged_batch(&[]).unwrap();
        assert_eq!(engine.wal_len(), before);
    }

    #[test]
    fn refusals_and_aborts_checkpoint_too() {
        // Refused updates and aborted transactions log Begin/Abort and
        // nothing else; they must still fold the log, or a run of treaty
        // violations grows it without bound.
        let engine = Engine::new();
        engine.write_logged("x", 5).unwrap();
        for i in 0..2 * CHECKPOINT_RECORDS {
            if i % 8 == 0 {
                let mut t = engine.begin();
                engine.abort(&mut t).unwrap();
            } else {
                assert_eq!(engine.update_logged("x", |_| None), Ok(false));
            }
        }
        assert!(engine.wal_len() < CHECKPOINT_RECORDS);
        assert_eq!(engine.committed_count(), 1);
        let reopened = Engine::reopen_from_frame(&engine.wal_frame()).expect("intact frame");
        assert_eq!(reopened.snapshot(), engine.snapshot());
        let fresh = reopened.begin();
        let used = 1 + 2 * CHECKPOINT_RECORDS as u64;
        assert!(fresh.id > used, "fresh id {} was used before", fresh.id);
    }

    /// The lock-taking form of [`Engine::write_logged_batch`]: every object
    /// is locked exclusively, the writes are logged and applied in batch
    /// order, then the locks are released.
    fn write_batch_locking(engine: &Engine, writes: &[(&str, i64)]) -> Result<(), EngineError> {
        if writes.is_empty() {
            return Ok(());
        }
        let mut inner = engine.lock();
        let id = inner.begin_logged();
        for (object, _) in writes {
            if inner.locks.acquire(id, object, LockMode::Exclusive) == LockOutcome::WouldBlock {
                inner.locks.release_all(id);
                inner.end_logged(id, false);
                return Err(EngineError::WouldBlock {
                    object: (*object).to_string(),
                });
            }
        }
        for (object, value) in writes {
            inner.write_applied(id, object, *value);
        }
        inner.locks.release_all(id);
        inner.end_logged(id, true);
        Ok(())
    }

    /// [`Engine::update_logged`] as an open transaction: read, take the
    /// write lock, decide, then write and commit or abort.
    fn update_open(
        engine: &Engine,
        object: &str,
        f: impl FnOnce(i64) -> Option<i64>,
    ) -> Result<bool, EngineError> {
        let mut txn = engine.begin();
        let locked = engine
            .read(&txn, object)
            .and_then(|v| engine.write(&txn, object, v).map(|()| v));
        let value = match locked {
            Ok(v) => v,
            Err(e) => {
                engine.abort(&mut txn).unwrap();
                return Err(e);
            }
        };
        match f(value) {
            Some(new) => {
                engine.write(&txn, object, new).unwrap();
                engine.commit(&mut txn).unwrap();
                Ok(true)
            }
            None => {
                engine.abort(&mut txn).unwrap();
                Ok(false)
            }
        }
    }

    #[test]
    fn one_shot_forms_log_what_open_transactions_log() {
        // `fast` runs the one-shot forms, `open` the same stream through
        // open transactions, and both host the same lock holders. Every
        // call's result, the counts, the state and the WAL bytes agree.
        // The last case runs long enough to checkpoint.
        const OBJECTS: [&str; 5] = ["a", "b", "c", "d", "e"];
        let mut next = {
            let mut seed = 0x5851_f42d_4c95_7f2du64;
            move |bound: u64| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed % bound
            }
        };
        // How often update_logged committed, refused and met a lock.
        let mut seen = [0usize; 3];
        for case in 0..24 {
            let steps = if case == 23 { 40_000 } else { 400 };
            let fast = Engine::new();
            let open = Engine::new();
            let mut holders: Vec<(TxnHandle, TxnHandle)> = Vec::new();
            for step in 0..steps {
                let object = OBJECTS[next(OBJECTS.len() as u64) as usize];
                let value = next(7) as i64 - 1;
                let here = format!("case {case} step {step}");
                match next(if case == 23 { 12 } else { 9 }) {
                    0 if holders.len() < 3 => holders.push((fast.begin(), open.begin())),
                    1 | 2 if !holders.is_empty() => {
                        let at = next(holders.len() as u64) as usize;
                        let (f, o) = &holders[at];
                        let (a, b) = if next(2) == 0 {
                            (fast.read(f, object), open.read(o, object))
                        } else {
                            (
                                fast.write(f, object, value).map(|()| 0),
                                open.write(o, object, value).map(|()| 0),
                            )
                        };
                        assert_eq!(a, b, "{here}: holder access");
                    }
                    3 if !holders.is_empty() => {
                        let at = next(holders.len() as u64) as usize;
                        let (mut f, mut o) = holders.swap_remove(at);
                        if next(2) == 0 {
                            fast.commit(&mut f).unwrap();
                            open.commit(&mut o).unwrap();
                        } else {
                            fast.abort(&mut f).unwrap();
                            open.abort(&mut o).unwrap();
                        }
                    }
                    4 | 5 | 9 | 10 | 11 => {
                        // Decrement above a floor (refusals), zero or bump.
                        let kind = next(3);
                        let f = move |v: i64| match kind {
                            0 => Some(v - value).filter(|n| *n >= 1),
                            1 => Some(0),
                            _ => Some(v + value),
                        };
                        let a = fast.update_logged(object, f);
                        let b = update_open(&open, object, f);
                        assert_eq!(a, b, "{here}: update_logged");
                        seen[match a {
                            Ok(true) => 0,
                            Ok(false) => 1,
                            Err(_) => 2,
                        }] += 1;
                    }
                    6 => {
                        let mut t = open.begin();
                        let b = open
                            .write(&t, object, value)
                            .and_then(|()| open.commit(&mut t));
                        if b.is_err() {
                            open.abort(&mut t).unwrap();
                        }
                        assert_eq!(fast.write_logged(object, value), b, "{here}: write_logged");
                    }
                    _ => {
                        let writes: Vec<(&str, i64)> = (0..1 + next(4))
                            .map(|_| (OBJECTS[next(3) as usize], next(5) as i64))
                            .collect();
                        assert_eq!(
                            fast.write_logged_batch(&writes),
                            write_batch_locking(&open, &writes),
                            "{here}: write_logged_batch {writes:?}"
                        );
                    }
                }
                assert_eq!(fast.wal_len(), open.wal_len(), "{here}: log length");
            }
            assert_eq!(fast.snapshot(), open.snapshot(), "case {case}: state");
            assert_eq!(fast.committed_count(), open.committed_count());
            assert_eq!(fast.aborted_count(), open.aborted_count());
            assert_eq!(fast.wal_frame(), open.wal_frame(), "case {case}: WAL bytes");
            if case == 23 {
                assert!(fast.wal_len() < 40_000, "the long case never checkpointed");
            }
        }
        assert!(seen.iter().all(|n| *n > 100), "outcomes {seen:?}");
    }

    #[test]
    fn snapshot_and_install() {
        let engine = Engine::new();
        engine.poke("a", 1);
        engine.poke("b", 2);
        let snap = engine.snapshot();
        let other = Engine::new();
        other.install(snap);
        assert_eq!(other.peek("a"), 1);
        assert_eq!(other.peek("b"), 2);
    }

    #[test]
    fn relational_layer_round_trip() {
        let engine = Engine::new();
        engine.create_table(TableSchema::new(
            "stock",
            vec![Column::int("itemid"), Column::int("qty")],
            &["itemid"],
        ));
        engine
            .insert_row("stock", vec![Value::Int(1), Value::Int(10)])
            .unwrap();
        let row = engine.get_row("stock", &[Value::Int(1)]).unwrap().unwrap();
        assert_eq!(row[1], Value::Int(10));
        assert!(matches!(
            engine.insert_row("stock", vec![Value::Int(1), Value::Int(3)]),
            Err(EngineError::Table(TableError::DuplicateKey(_)))
        ));
        assert!(matches!(
            engine.get_row("nope", &[Value::Int(1)]),
            Err(EngineError::UnknownTable(_))
        ));
    }

    #[test]
    fn zero_values_keep_namespace_canonical() {
        let engine = Engine::new();
        let mut t = engine.begin();
        engine.write(&t, "x", 0).unwrap();
        engine.commit(&mut t).unwrap();
        assert_eq!(engine.snapshot().len(), 0);
        engine.poke("y", 0);
        assert_eq!(engine.snapshot().len(), 0);
    }
}
