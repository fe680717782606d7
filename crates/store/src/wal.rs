//! Write-ahead logging and recovery.
//!
//! The paper relies on "the recovery mechanisms of the underlying database"
//! and notes that "all in-memory state can be recomputed after failure
//! recovery" (Section 5.2). The WAL here plays that role for our in-memory
//! engine: committed object writes are logged before they are applied, and
//! [`Wal::recover`] rebuilds the committed object state (uncommitted
//! transactions are discarded), after which the protocol layer can recompute
//! its treaty tables.
//!
//! A database bounds its log by checkpointing: [`Wal::checkpoint`] keeps an
//! image of the committed object state plus the highest transaction id seen
//! so far, and drops every record. Recovery is then the image plus the
//! suffix logged since. The engine checkpoints only when no transaction is
//! in flight, so the image is exactly what replaying the dropped prefix
//! would have produced; [`Wal::len`] counts the records since the last
//! checkpoint.
//!
//! The binary frame ([`Wal::encode`]) is a `u32` record count followed by
//! the records. After a checkpoint its head is the image, written as one
//! committed transaction under the folded id `h` — `Begin{h}`, one
//! `Write{h, object, value, previous: value}` per entry, `Commit{h}` — and
//! the suffix follows. So [`Wal::decode`] and [`Wal::decode_prefix`] need
//! no record type of their own for it, and a log that was never
//! checkpointed encodes exactly as before. A tear inside the head loses the
//! image, as a torn checkpoint file would: its `Commit{h}` is gone, so
//! replay treats it as an in-flight transaction.

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

/// An append-only write-ahead log whose finished prefix can be folded into
/// a checkpoint image.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Wal {
    /// The committed object state at the last checkpoint.
    image: BTreeMap<String, i64>,
    /// The highest transaction id at the last checkpoint; `None` before the
    /// first one.
    folded: Option<u64>,
    /// The records logged since the last checkpoint.
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

    /// Number of records since the last checkpoint.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no record was logged since the last checkpoint.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the records since the last checkpoint, in append order.
    pub fn records(&self) -> impl Iterator<Item = &LogRecord> {
        self.records.iter()
    }

    /// The highest transaction id appearing anywhere in the log, the folded
    /// prefix included (0 when nothing was ever logged). Recovery seeds its
    /// id counter past this so fresh transactions can never collide with
    /// logged ones.
    pub fn max_txn_id(&self) -> u64 {
        self.records
            .iter()
            .map(|r| match r {
                LogRecord::Begin { txn }
                | LogRecord::Commit { txn }
                | LogRecord::Abort { txn }
                | LogRecord::Write { txn, .. } => *txn,
            })
            .chain(self.folded)
            .max()
            .unwrap_or(0)
    }

    /// The committed object state at the last checkpoint (empty before the
    /// first): the baseline [`Wal::recover`] replays the records over.
    pub fn image(&self) -> &BTreeMap<String, i64> {
        &self.image
    }

    /// Folds the log into a checkpoint: `image` becomes the recovery
    /// baseline, the highest transaction id seen so far is kept, and every
    /// record is dropped. `image` must be the committed state the log
    /// recovers to, which holds whenever no transaction is in flight — a
    /// transaction begun before the checkpoint and committed after it would
    /// lose its folded writes.
    pub fn checkpoint(&mut self, image: BTreeMap<String, i64>) {
        self.folded = Some(self.max_txn_id());
        self.image = image;
        self.records.clear();
    }

    /// Replays the records: redo the writes of committed transactions, in
    /// commit order, on top of `baseline` (the last checkpoint image,
    /// [`Wal::image`]).
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
    /// records, big-endian), the way an on-disk log writer would: the
    /// checkpoint image as one committed transaction, then the records
    /// since (see the module docs).
    pub fn encode(&self) -> Vec<u8> {
        let head = self.folded.map_or(0, |_| self.image.len() + 2);
        let mut buf = Vec::new();
        buf.extend_from_slice(&((head + self.records.len()) as u32).to_be_bytes());
        if let Some(txn) = self.folded {
            put_marker(&mut buf, 0, txn);
            for (object, value) in &self.image {
                put_write(&mut buf, txn, object, *value, *value);
            }
            put_marker(&mut buf, 1, txn);
        }
        for r in &self.records {
            match r {
                LogRecord::Begin { txn } => put_marker(&mut buf, 0, *txn),
                LogRecord::Commit { txn } => put_marker(&mut buf, 1, *txn),
                LogRecord::Abort { txn } => put_marker(&mut buf, 2, *txn),
                LogRecord::Write {
                    txn,
                    object,
                    value,
                    previous,
                } => put_write(&mut buf, *txn, object, *value, *previous),
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
        let mut wal = Wal {
            records: Vec::with_capacity(count.min(1 << 20)),
            ..Wal::default()
        };
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
                Some(record) => wal.records.push(record),
                None => return Some((wal, false)),
            }
        }
        Some((wal, true))
    }
}

/// Encodes a `Begin` (tag 0), `Commit` (1) or `Abort` (2) record.
fn put_marker(buf: &mut Vec<u8>, tag: u8, txn: u64) {
    buf.push(tag);
    buf.extend_from_slice(&txn.to_be_bytes());
}

/// Encodes a `Write` record (tag 3).
fn put_write(buf: &mut Vec<u8>, txn: u64, object: &str, value: i64, previous: i64) {
    buf.push(3);
    buf.extend_from_slice(&txn.to_be_bytes());
    buf.extend_from_slice(&(object.len() as u32).to_be_bytes());
    buf.extend_from_slice(object.as_bytes());
    buf.extend_from_slice(&value.to_be_bytes());
    buf.extend_from_slice(&previous.to_be_bytes());
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

    /// A tiny xorshift keeps the store crate free of a dev-dependency:
    /// `next(bound)` draws from `0..bound`.
    fn xorshift(mut seed: u64) -> impl FnMut(u64) -> u64 {
        move |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        }
    }

    /// One random step of a seeded log, with up to six transactions open at
    /// once and their records interleaved: begin one, write to an open one,
    /// or end one — by a commit, an abort or (one in five) not at all, which
    /// leaves it in flight for good. Without `abandon` that last fifth
    /// commits too. Returns the record the step logs, if any.
    fn random_step(
        next: &mut impl FnMut(u64) -> u64,
        open: &mut Vec<u64>,
        next_txn: &mut u64,
        abandon: bool,
    ) -> Option<LogRecord> {
        match next(4) {
            0 if open.len() < 6 => {
                *next_txn += 1 + next(3);
                open.push(*next_txn);
                Some(LogRecord::Begin { txn: *next_txn })
            }
            1 | 2 if !open.is_empty() => {
                let txn = open[next(open.len() as u64) as usize];
                let object = format!("o{}", next(8));
                Some(write(txn, &object, next(100) as i64, 0))
            }
            3 if !open.is_empty() => {
                let txn = open.swap_remove(next(open.len() as u64) as usize);
                match next(5) {
                    0 if abandon => None,
                    1 => Some(LogRecord::Abort { txn }),
                    _ => Some(LogRecord::Commit { txn }),
                }
            }
            _ => None,
        }
    }

    #[test]
    fn seeded_logs_recover_like_the_definition() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let (mut aborted, mut in_flight, mut torn) = (0, 0, 0);
        for case in 0..200 {
            let mut wal = Wal::new();
            let mut open: Vec<u64> = Vec::new();
            let mut next_txn = 0;
            for _ in 0..20 + next(120) {
                if let Some(record) = random_step(&mut next, &mut open, &mut next_txn, true) {
                    wal.append(record);
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
    fn a_checkpoint_at_a_quiescent_point_recovers_like_the_whole_log() {
        // The same seeded log twice: `whole` as logged, `folded` checkpointed
        // after a prefix whose transactions all ended (the engine checkpoints
        // only then) and the same records appended after. Both must recover
        // alike, in memory and through the frame torn anywhere in the suffix.
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        let (mut checkpointed_open, mut empty_suffixes) = (0, 0);
        for case in 0..100 {
            let (mut whole, mut folded) = (Wal::new(), Wal::new());
            let mut open: Vec<u64> = Vec::new();
            let mut next_txn = 0;
            let mut log = |record: LogRecord| {
                whole.append(record.clone());
                folded.append(record);
            };
            for _ in 0..next(100) {
                if let Some(record) = random_step(&mut next, &mut open, &mut next_txn, false) {
                    log(record);
                }
            }
            checkpointed_open += open.len();
            for txn in std::mem::take(&mut open) {
                log(match next(4) {
                    0 => LogRecord::Abort { txn },
                    _ => LogRecord::Commit { txn },
                });
            }
            let baseline: BTreeMap<String, i64> = (0..next(3))
                .map(|i| (format!("o{i}"), 1_000 + i as i64))
                .collect();
            let image = folded.recover(&baseline).objects;
            folded.checkpoint(image);
            let (head, prefix_len, folded_id) =
                (folded.encode().len(), whole.len(), whole.max_txn_id());
            // One case in five checkpoints at the very end of the log.
            let suffix_steps = if next(5) == 0 { 0 } else { next(30) };
            empty_suffixes += usize::from(suffix_steps == 0);
            for _ in 0..suffix_steps {
                if let Some(record) = random_step(&mut next, &mut open, &mut next_txn, true) {
                    whole.append(record.clone());
                    folded.append(record);
                }
            }

            let expected = whole.recover(&baseline);
            let recovered = folded.recover(folded.image());
            assert_eq!(recovered.objects, expected.objects, "case {case}");
            assert_eq!(recovered.in_flight, expected.in_flight, "case {case}");
            assert_eq!(folded.max_txn_id(), whole.max_txn_id(), "case {case}");

            // Every tear at or after the head replays the image plus the
            // suffix records that survived it.
            let frame = folded.encode();
            let image_records = folded.image().len() + 2;
            for cut in head..=frame.len() {
                let torn = Wal::decode_prefix(&frame[..cut]).expect("the header is intact");
                let kept = torn.len() - image_records;
                let mut uncut = Wal::new();
                for record in whole.records().take(prefix_len + kept) {
                    uncut.append(record.clone());
                }
                let (got, want) = (torn.recover(&BTreeMap::new()), uncut.recover(&baseline));
                assert_eq!(got.objects, want.objects, "case {case}, torn at {cut}");
                assert_eq!(got.in_flight, want.in_flight, "case {case}, torn at {cut}");
                assert_eq!(torn.max_txn_id(), uncut.max_txn_id(), "case {case}");
            }
            // A tear inside the head loses the image: its commit is gone.
            let torn = Wal::decode_prefix(&frame[..head - 1]).expect("the header is intact");
            let lost = torn.recover(&BTreeMap::new());
            assert!(lost.objects.is_empty(), "case {case}");
            assert_eq!(lost.in_flight, vec![folded_id], "case {case}");
        }
        assert!(checkpointed_open >= 50 && empty_suffixes >= 10);
    }
}
