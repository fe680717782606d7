//! A strict two-phase-locking lock manager.
//!
//! The homeostasis protocol's normal-execution phase requires that the local
//! interleaving of transactions at each site be (view-)serializable
//! (Section 3.3: "this can be enforced conservatively by any classical
//! algorithm that guarantees view-serializability"). The prototype leans on
//! MySQL for this; we provide a classic shared/exclusive lock manager with
//! strict 2PL and a wound-free `WouldBlock` discipline — the caller (the
//! simulator's site loop) decides whether to queue or abort, which also lets
//! benchmarks model lock-wait timeouts like MySQL's 1-second floor
//! (Section 6.2).

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

/// Lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

/// The outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LockOutcome {
    /// The lock was granted (or was already held in a compatible mode).
    Granted,
    /// The lock conflicts with locks held by the listed transaction(s); the
    /// caller should wait or abort.
    WouldBlock,
}

/// Identifier of a transaction for locking purposes.
pub type TxnId = u64;

#[derive(Debug, Default, Clone)]
struct LockEntry {
    shared: BTreeSet<TxnId>,
    exclusive: Option<TxnId>,
}

/// A table of locks keyed by resource name (we lock at object granularity).
#[derive(Debug, Default, Clone)]
pub struct LockManager {
    locks: BTreeMap<String, LockEntry>,
    held: BTreeMap<TxnId, BTreeSet<String>>,
}

impl LockManager {
    /// Creates an empty lock manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a lock on `resource` in the given mode for `txn`.
    pub fn acquire(&mut self, txn: TxnId, resource: &str, mode: LockMode) -> LockOutcome {
        let entry = self.locks.entry(resource.to_string()).or_default();
        match mode {
            LockMode::Shared => {
                match entry.exclusive {
                    Some(owner) if owner != txn => return LockOutcome::WouldBlock,
                    _ => {}
                }
                entry.shared.insert(txn);
            }
            LockMode::Exclusive => {
                match entry.exclusive {
                    Some(owner) if owner != txn => return LockOutcome::WouldBlock,
                    _ => {}
                }
                // Upgrade is allowed only when the requester is the sole reader.
                if entry.shared.iter().any(|t| *t != txn) {
                    return LockOutcome::WouldBlock;
                }
                entry.exclusive = Some(txn);
                entry.shared.insert(txn);
            }
        }
        self.held
            .entry(txn)
            .or_default()
            .insert(resource.to_string());
        LockOutcome::Granted
    }

    /// True when `txn` currently holds a lock on `resource` (in any mode).
    pub fn holds(&self, txn: TxnId, resource: &str) -> bool {
        self.held
            .get(&txn)
            .map(|rs| rs.contains(resource))
            .unwrap_or(false)
    }

    /// True when any transaction holds a lock on `resource` (in any mode):
    /// the probe of a one-shot write that takes no lock of its own.
    pub fn is_locked(&self, resource: &str) -> bool {
        self.locks
            .get(resource)
            .is_some_and(|entry| !entry.shared.is_empty())
    }

    /// The transactions currently blocking a request by `txn` for
    /// `resource` in `mode` (empty when the request would be granted).
    pub fn blockers(&self, txn: TxnId, resource: &str, mode: LockMode) -> Vec<TxnId> {
        let Some(entry) = self.locks.get(resource) else {
            return Vec::new();
        };
        let mut out = BTreeSet::new();
        if let Some(owner) = entry.exclusive {
            if owner != txn {
                out.insert(owner);
            }
        }
        if mode == LockMode::Exclusive {
            for t in &entry.shared {
                if *t != txn {
                    out.insert(*t);
                }
            }
        }
        out.into_iter().collect()
    }

    /// Releases every lock held by the transaction (strict 2PL: all locks are
    /// released together at commit or abort).
    pub fn release_all(&mut self, txn: TxnId) {
        if let Some(resources) = self.held.remove(&txn) {
            for r in resources {
                if let Some(entry) = self.locks.get_mut(&r) {
                    entry.shared.remove(&txn);
                    if entry.exclusive == Some(txn) {
                        entry.exclusive = None;
                    }
                    if entry.shared.is_empty() && entry.exclusive.is_none() {
                        self.locks.remove(&r);
                    }
                }
            }
        }
    }

    /// Number of resources currently locked (by anyone).
    pub fn locked_resources(&self) -> usize {
        self.locks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_locks_are_compatible() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(1, "x", LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.acquire(2, "x", LockMode::Shared), LockOutcome::Granted);
        assert!(lm.holds(1, "x") && lm.holds(2, "x"));
    }

    #[test]
    fn exclusive_conflicts_with_everything() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(1, "x", LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.acquire(2, "x", LockMode::Shared),
            LockOutcome::WouldBlock
        );
        assert_eq!(
            lm.acquire(2, "x", LockMode::Exclusive),
            LockOutcome::WouldBlock
        );
        assert_eq!(lm.blockers(2, "x", LockMode::Shared), vec![1]);
    }

    #[test]
    fn reacquisition_and_upgrade_by_the_same_txn() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(1, "x", LockMode::Shared), LockOutcome::Granted);
        assert_eq!(
            lm.acquire(1, "x", LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(lm.acquire(1, "x", LockMode::Shared), LockOutcome::Granted);
        // Another reader blocks the upgrade.
        let mut lm = LockManager::new();
        lm.acquire(1, "x", LockMode::Shared);
        lm.acquire(2, "x", LockMode::Shared);
        assert_eq!(
            lm.acquire(1, "x", LockMode::Exclusive),
            LockOutcome::WouldBlock
        );
        assert_eq!(lm.blockers(1, "x", LockMode::Exclusive), vec![2]);
    }

    #[test]
    fn release_all_frees_resources() {
        let mut lm = LockManager::new();
        lm.acquire(1, "x", LockMode::Exclusive);
        lm.acquire(1, "y", LockMode::Shared);
        assert_eq!(lm.locked_resources(), 2);
        assert!(lm.is_locked("x") && lm.is_locked("y") && !lm.is_locked("z"));
        lm.release_all(1);
        assert_eq!(lm.locked_resources(), 0);
        assert!(!lm.is_locked("x"));
        assert_eq!(
            lm.acquire(2, "x", LockMode::Exclusive),
            LockOutcome::Granted
        );
    }

    #[test]
    fn disjoint_resources_do_not_conflict() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(1, "x", LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.acquire(2, "y", LockMode::Exclusive),
            LockOutcome::Granted
        );
    }

    #[test]
    fn blockers_on_unlocked_resource_is_empty() {
        let lm = LockManager::new();
        assert!(lm.blockers(1, "x", LockMode::Exclusive).is_empty());
    }
}
