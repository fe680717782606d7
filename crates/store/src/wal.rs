//! Write-ahead logging and recovery.
//!
//! The paper relies on "the recovery mechanisms of the underlying database"
//! and notes that "all in-memory state can be recomputed after failure
//! recovery" (Section 5.2). The WAL here plays that role for our in-memory
//! engine: committed object writes are logged before they are applied, and
//! [`Wal::recover`] rebuilds the committed object state (uncommitted
//! transactions are discarded), after which the protocol layer can recompute
//! its treaty tables.

use std::collections::{BTreeMap, HashSet};

use serde::{Deserialize, Serialize};

/// A log sequence number.
pub type Lsn = u64;

/// Records appended to the write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogRecord {
    /// A transaction began.
    Begin {
        /// Transaction id.
        txn: u64,
    },
    /// A transaction wrote `value` to `object` (logged before commit).
    Write {
        /// Transaction id.
        txn: u64,
        /// Object name.
        object: String,
        /// New value.
        value: i64,
        /// Previous value (for diagnostics / undo-style tooling).
        previous: i64,
    },
    /// A transaction committed.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// A transaction aborted.
    Abort {
        /// Transaction id.
        txn: u64,
    },
}

/// The state recovered from a log.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveredState {
    /// Committed object values.
    pub objects: BTreeMap<String, i64>,
    /// Ids of transactions that committed.
    pub committed: Vec<u64>,
    /// Ids of transactions that began but neither committed nor aborted
    /// (losers discarded by recovery).
    pub in_flight: Vec<u64>,
}

/// An append-only write-ahead log.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Wal {
    records: Vec<LogRecord>,
}

impl Wal {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record, returning its LSN.
    pub fn append(&mut self, record: LogRecord) -> Lsn {
        self.records.push(record);
        self.records.len() as Lsn
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the records in append order.
    pub fn records(&self) -> impl Iterator<Item = &LogRecord> {
        self.records.iter()
    }

    /// The highest transaction id appearing anywhere in the log (0 when the
    /// log is empty). Recovery seeds its id counter past this so fresh
    /// transactions can never collide with logged ones.
    pub fn max_txn_id(&self) -> u64 {
        self.records
            .iter()
            .map(|r| match r {
                LogRecord::Begin { txn }
                | LogRecord::Commit { txn }
                | LogRecord::Abort { txn }
                | LogRecord::Write { txn, .. } => *txn,
            })
            .max()
            .unwrap_or(0)
    }

    /// Truncates the log (after a checkpoint has captured the state).
    pub fn truncate(&mut self) {
        self.records.clear();
    }

    /// Replays the log: redo the writes of committed transactions, in commit
    /// order, on top of `baseline` (the last checkpoint image).
    pub fn recover(&self, baseline: &BTreeMap<String, i64>) -> RecoveredState {
        // Outcomes are looked up once per write and per begun transaction, so
        // they are sets and replay is linear in the log; the vectors of the
        // recovered state keep log order.
        let mut committed: Vec<u64> = Vec::new();
        let mut begun: Vec<u64> = Vec::new();
        let (mut winners, mut aborted) = (HashSet::new(), HashSet::new());
        for r in &self.records {
            match r {
                LogRecord::Begin { txn } => begun.push(*txn),
                LogRecord::Commit { txn } => {
                    committed.push(*txn);
                    winners.insert(*txn);
                }
                LogRecord::Abort { txn } => {
                    aborted.insert(*txn);
                }
                LogRecord::Write { .. } => {}
            }
        }
        let mut objects = baseline.clone();
        // Redo in log order, but only writes of committed transactions.
        for r in &self.records {
            if let LogRecord::Write {
                txn, object, value, ..
            } = r
            {
                if winners.contains(txn) {
                    objects.insert(object.clone(), *value);
                }
            }
        }
        let in_flight = begun
            .into_iter()
            .filter(|t| !winners.contains(t) && !aborted.contains(t))
            .collect();
        RecoveredState {
            objects,
            committed,
            in_flight,
        }
    }

    /// Serializes the log to a compact binary frame (length-prefixed
    /// records, big-endian), the way an on-disk log writer would.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(self.records.len() as u32).to_be_bytes());
        for r in &self.records {
            match r {
                LogRecord::Begin { txn } => {
                    buf.push(0);
                    buf.extend_from_slice(&txn.to_be_bytes());
                }
                LogRecord::Commit { txn } => {
                    buf.push(1);
                    buf.extend_from_slice(&txn.to_be_bytes());
                }
                LogRecord::Abort { txn } => {
                    buf.push(2);
                    buf.extend_from_slice(&txn.to_be_bytes());
                }
                LogRecord::Write {
                    txn,
                    object,
                    value,
                    previous,
                } => {
                    buf.push(3);
                    buf.extend_from_slice(&txn.to_be_bytes());
                    let name = object.as_bytes();
                    buf.extend_from_slice(&(name.len() as u32).to_be_bytes());
                    buf.extend_from_slice(name);
                    buf.extend_from_slice(&value.to_be_bytes());
                    buf.extend_from_slice(&previous.to_be_bytes());
                }
            }
        }
        buf
    }

    /// Decodes a frame produced by [`Wal::encode`]. Returns `None` on any
    /// truncated or malformed input.
    pub fn decode(data: &[u8]) -> Option<Wal> {
        let (wal, complete) = Self::decode_lenient(data)?;
        complete.then_some(wal)
    }

    /// Decodes as much of a frame as is intact: a crash can tear the tail of
    /// an on-disk log mid-record, and recovery must still replay the clean
    /// prefix (a torn record cannot belong to a committed transaction — its
    /// commit record would have to follow it). Returns `None` only when even
    /// the frame header is unreadable.
    pub fn decode_prefix(data: &[u8]) -> Option<Wal> {
        Self::decode_lenient(data).map(|(wal, _)| wal)
    }

    /// Shared decoder: returns the longest cleanly decodable prefix and
    /// whether the full frame was intact.
    fn decode_lenient(data: &[u8]) -> Option<(Wal, bool)> {
        let mut cursor = Cursor { data, pos: 0 };
        let count = cursor.u32()? as usize;
        let mut records = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let record = (|| {
                let tag = cursor.u8()?;
                let txn = cursor.u64()?;
                Some(match tag {
                    0 => LogRecord::Begin { txn },
                    1 => LogRecord::Commit { txn },
                    2 => LogRecord::Abort { txn },
                    3 => {
                        let len = cursor.u32()? as usize;
                        let name = cursor.take(len)?;
                        let object = String::from_utf8(name.to_vec()).ok()?;
                        let value = cursor.i64()?;
                        let previous = cursor.i64()?;
                        LogRecord::Write {
                            txn,
                            object,
                            value,
                            previous,
                        }
                    }
                    _ => return None,
                })
            })();
            match record {
                Some(record) => records.push(record),
                None => return Some((Wal { records }, false)),
            }
        }
        Some((Wal { records }, true))
    }
}

/// A bounds-checked big-endian reader over a byte slice.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.data.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_be_bytes(s.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_be_bytes(s.try_into().expect("8 bytes")))
    }

    fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .map(|s| i64::from_be_bytes(s.try_into().expect("8 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(txn: u64, object: &str, value: i64, previous: i64) -> LogRecord {
        LogRecord::Write {
            txn,
            object: object.to_string(),
            value,
            previous,
        }
    }

    #[test]
    fn committed_writes_are_redone() {
        let mut wal = Wal::new();
        wal.append(LogRecord::Begin { txn: 1 });
        wal.append(write(1, "x", 5, 0));
        wal.append(LogRecord::Commit { txn: 1 });
        let state = wal.recover(&BTreeMap::new());
        assert_eq!(state.objects.get("x"), Some(&5));
        assert_eq!(state.committed, vec![1]);
        assert!(state.in_flight.is_empty());
    }

    #[test]
    fn uncommitted_and_aborted_writes_are_discarded() {
        let mut wal = Wal::new();
        wal.append(LogRecord::Begin { txn: 1 });
        wal.append(write(1, "x", 5, 0));
        wal.append(LogRecord::Begin { txn: 2 });
        wal.append(write(2, "y", 7, 0));
        wal.append(LogRecord::Abort { txn: 2 });
        let state = wal.recover(&BTreeMap::new());
        assert!(state.objects.is_empty());
        assert_eq!(state.in_flight, vec![1]);
    }

    #[test]
    fn recovery_applies_on_top_of_baseline_in_order() {
        let mut wal = Wal::new();
        wal.append(LogRecord::Begin { txn: 1 });
        wal.append(write(1, "x", 5, 3));
        wal.append(LogRecord::Commit { txn: 1 });
        wal.append(LogRecord::Begin { txn: 2 });
        wal.append(write(2, "x", 9, 5));
        wal.append(LogRecord::Commit { txn: 2 });
        let baseline: BTreeMap<String, i64> = [("x".to_string(), 3), ("z".to_string(), 1)]
            .into_iter()
            .collect();
        let state = wal.recover(&baseline);
        assert_eq!(state.objects.get("x"), Some(&9));
        assert_eq!(state.objects.get("z"), Some(&1));
    }

    #[test]
    fn replay_of_interleaved_transactions_is_deterministic_and_idempotent() {
        // Two writers interleave; one aborts, one commits, one crashes
        // in flight. Replay must keep exactly the committed effects, in log
        // order, and replaying the same log twice must agree.
        let mut wal = Wal::new();
        wal.append(LogRecord::Begin { txn: 1 });
        wal.append(LogRecord::Begin { txn: 2 });
        wal.append(write(1, "x", 10, 0));
        wal.append(write(2, "x", 20, 0));
        wal.append(write(2, "y", 2, 0));
        wal.append(LogRecord::Abort { txn: 2 });
        wal.append(write(1, "y", 1, 0));
        wal.append(LogRecord::Commit { txn: 1 });
        wal.append(LogRecord::Begin { txn: 3 });
        wal.append(write(3, "z", 30, 0));
        let first = wal.recover(&BTreeMap::new());
        assert_eq!(first.objects.get("x"), Some(&10));
        assert_eq!(first.objects.get("y"), Some(&1));
        assert_eq!(
            first.objects.get("z"),
            None,
            "in-flight txn 3 must not replay"
        );
        assert_eq!(first.committed, vec![1]);
        assert_eq!(first.in_flight, vec![3]);
        let second = wal.recover(&BTreeMap::new());
        assert_eq!(first, second, "replay must be deterministic");
        // Replay also survives an encode/decode cycle of the log itself.
        let decoded = Wal::decode(&wal.encode()).expect("decode");
        assert_eq!(decoded.recover(&BTreeMap::new()), first);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut wal = Wal::new();
        wal.append(LogRecord::Begin { txn: 42 });
        wal.append(write(42, "stock[7]", 99, 100));
        wal.append(LogRecord::Commit { txn: 42 });
        wal.append(LogRecord::Abort { txn: 43 });
        let encoded = wal.encode();
        let decoded = Wal::decode(&encoded).expect("decode");
        assert_eq!(decoded.len(), wal.len());
        assert_eq!(
            decoded.records().collect::<Vec<_>>(),
            wal.records().collect::<Vec<_>>()
        );
    }

    #[test]
    fn decode_rejects_truncated_frames() {
        let mut wal = Wal::new();
        wal.append(write(1, "x", 1, 0));
        let encoded = wal.encode();
        let truncated = &encoded[..encoded.len() - 3];
        assert!(Wal::decode(truncated).is_none());
        assert!(Wal::decode(&[]).is_none());
    }

    #[test]
    fn decode_prefix_recovers_the_clean_prefix_of_a_torn_frame() {
        // A committed transaction followed by a second one whose final write
        // is torn mid-record by the crash.
        let mut wal = Wal::new();
        wal.append(LogRecord::Begin { txn: 1 });
        wal.append(write(1, "x", 5, 0));
        wal.append(LogRecord::Commit { txn: 1 });
        wal.append(LogRecord::Begin { txn: 2 });
        wal.append(write(2, "stock[123]", 77, 0));
        let encoded = wal.encode();
        // Tear the tail mid-way through the last record.
        let torn = &encoded[..encoded.len() - 10];
        let prefix = Wal::decode_prefix(torn).expect("frame header is intact");
        assert_eq!(prefix.len(), 4, "the torn record is dropped");
        // The clean prefix replays exactly the committed state.
        let state = prefix.recover(&BTreeMap::new());
        assert_eq!(state.objects.get("x"), Some(&5));
        assert!(!state.objects.contains_key("stock[123]"));
        assert_eq!(state.committed, vec![1]);
        assert_eq!(state.in_flight, vec![2]);
        // An intact frame decodes identically through both entry points.
        assert_eq!(Wal::decode_prefix(&encoded).unwrap().len(), wal.len());
        // Even a frame torn inside the header is rejected, not mis-read.
        assert!(Wal::decode_prefix(&encoded[..3]).is_none());
    }

    /// Replay as the definition reads: a write is redone iff a commit record
    /// of its transaction is somewhere in the log, a begun transaction is in
    /// flight iff no commit or abort record of it is.
    fn replay_by_definition(wal: &Wal, baseline: &BTreeMap<String, i64>) -> RecoveredState {
        let records: Vec<&LogRecord> = wal.records().collect();
        let has = |wanted: LogRecord| records.iter().any(|r| **r == wanted);
        let mut state = RecoveredState {
            objects: baseline.clone(),
            ..RecoveredState::default()
        };
        for record in &records {
            match record {
                LogRecord::Begin { txn } => {
                    let (txn, ended) = (*txn, has(LogRecord::Commit { txn: *txn }));
                    if !ended && !has(LogRecord::Abort { txn }) {
                        state.in_flight.push(txn);
                    }
                }
                LogRecord::Commit { txn } => state.committed.push(*txn),
                LogRecord::Abort { .. } => {}
                LogRecord::Write {
                    txn, object, value, ..
                } => {
                    if has(LogRecord::Commit { txn: *txn }) {
                        state.objects.insert(object.clone(), *value);
                    }
                }
            }
        }
        state
    }

    #[test]
    fn seeded_logs_recover_like_the_definition() {
        // A tiny xorshift keeps the store crate free of a dev-dependency.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        let (mut aborted, mut in_flight, mut torn) = (0, 0, 0);
        for case in 0..200 {
            // Up to six transactions open at once, their records interleaved;
            // each ends in a commit, an abort or (one in five) not at all.
            let mut wal = Wal::new();
            let mut open: Vec<u64> = Vec::new();
            let mut next_txn = 0;
            for _ in 0..20 + next(120) {
                match next(4) {
                    0 if open.len() < 6 => {
                        next_txn += 1 + next(3);
                        open.push(next_txn);
                        wal.append(LogRecord::Begin { txn: next_txn });
                    }
                    1 | 2 if !open.is_empty() => {
                        let txn = open[next(open.len() as u64) as usize];
                        let object = format!("o{}", next(8));
                        wal.append(write(txn, &object, next(100) as i64, 0));
                    }
                    3 if !open.is_empty() => {
                        let txn = open.swap_remove(next(open.len() as u64) as usize);
                        match next(5) {
                            0 => {}
                            1 => {
                                wal.append(LogRecord::Abort { txn });
                            }
                            _ => {
                                wal.append(LogRecord::Commit { txn });
                            }
                        }
                    }
                    _ => {}
                }
            }
            let baseline: BTreeMap<String, i64> = (0..next(3))
                .map(|i| (format!("o{i}"), 1_000 + i as i64))
                .collect();
            let expected = replay_by_definition(&wal, &baseline);
            assert_eq!(wal.recover(&baseline), expected, "case {case}");
            aborted += wal
                .records()
                .filter(|r| matches!(r, LogRecord::Abort { .. }))
                .count();
            in_flight += expected.in_flight.len();

            // The same log with its tail torn off mid-record.
            let frame = wal.encode();
            let cut = frame.len() - 1 - next(frame.len() as u64 / 2) as usize;
            let prefix = Wal::decode_prefix(&frame[..cut]).expect("the header is intact");
            assert!(prefix.len() < wal.len());
            assert_eq!(
                prefix.recover(&baseline),
                replay_by_definition(&prefix, &baseline),
                "case {case}, torn at {cut}"
            );
            torn += usize::from(prefix.recover(&baseline) != expected);
        }
        assert!(aborted >= 100 && in_flight >= 100 && torn >= 100);
    }

    #[test]
    fn truncate_clears_the_log() {
        let mut wal = Wal::new();
        wal.append(LogRecord::Begin { txn: 1 });
        assert!(!wal.is_empty());
        wal.truncate();
        assert!(wal.is_empty());
    }
}
