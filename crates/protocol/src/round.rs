//! The general homeostasis protocol over an arbitrary set of `L`
//! transactions (Section 3.3 + Section 5).
//!
//! [`HomeostasisCluster`] owns one storage engine per site. During normal
//! execution a transaction runs entirely against its own site's engine —
//! reads of remote objects see the (possibly stale) snapshot installed at the
//! last synchronization, which is exactly the disconnected-execution model of
//! Section 3.2. Before committing, the site checks its local treaty on the
//! post-state; a violation aborts the transaction and triggers the cleanup
//! phase: synchronize, re-run the offending transaction everywhere, generate
//! new treaties, start a new round.
//!
//! The cluster records the committed transactions and their logs so that the
//! observational-equivalence oracle ([`crate::correctness`]) can replay every
//! round serially and compare outcomes (Theorem 3.8).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use homeo_lang::ast::Transaction;
use homeo_lang::database::Database;
use homeo_lang::ids::ObjId;
use homeo_sim::Timer;
use homeo_store::Engine;

use crate::exec::{run_on_engine, ExecError, ExecStatus};
use crate::model::{Loc, SiteId};
use crate::optimizer::OptimizerConfig;
use crate::program::ProgramSet;
use crate::treaty::TreatyTable;

/// The outcome of executing one transaction through the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxnOutcome {
    /// Whether the transaction (eventually) committed.
    pub committed: bool,
    /// Whether it required inter-site communication (treaty violation).
    pub synchronized: bool,
    /// Number of global communication rounds incurred (0 in the common case,
    /// 2 for a treaty renegotiation: one to synchronize state, one to
    /// distribute the new treaties).
    pub comm_rounds: u32,
    /// Time spent in the treaty solver, in microseconds of real time.
    pub solver_micros: u64,
}

/// A committed transaction recorded for the correctness oracle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommittedRecord {
    /// The site the transaction ran on.
    pub site: SiteId,
    /// Index into the cluster's transaction list.
    pub txn_index: usize,
    /// The log it produced.
    pub log: Vec<i64>,
}

/// Statistics kept by the cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterStats {
    /// Transactions committed without synchronization.
    pub local_commits: u64,
    /// Treaty violations (and therefore protocol rounds beyond the first).
    pub violations: u64,
    /// Transactions aborted by local concurrency control.
    pub cc_aborts: u64,
}

/// The general homeostasis cluster.
pub struct HomeostasisCluster {
    /// The registered program set: parsed transactions, joint symbolic
    /// table, location map, and treaty table. Shared with the cluster
    /// workers, so the serial oracle and the distributed backends negotiate
    /// through literally the same code path.
    programs: ProgramSet,
    sites: Vec<Engine>,
    /// The globally agreed database at the start of the current round.
    round_start: Database,
    /// History of the current round (for the correctness oracle).
    history: Vec<CommittedRecord>,
    /// Elapsed-time source for the reported solver times.
    timer: Timer,
    /// Statistics.
    pub stats: ClusterStats,
}

impl HomeostasisCluster {
    /// Creates a cluster for a set of parameterless transactions.
    ///
    /// `loc` must map every object the transactions touch; each transaction
    /// is assumed to run on the site holding the objects it writes
    /// (Assumption 3.1 is checked).
    pub fn new(
        transactions: Vec<Transaction>,
        loc: Loc,
        sites: usize,
        initial: Database,
        optimizer: Option<OptimizerConfig>,
    ) -> Self {
        let programs = ProgramSet::from_transactions(transactions, loc, sites, optimizer);
        Self::from_programs(programs, initial)
    }

    /// Creates a cluster over an already-built [`ProgramSet`] (the shared
    /// registration form of the cluster backends).
    pub fn from_programs(programs: ProgramSet, initial: Database) -> Self {
        let engines: Vec<Engine> = (0..programs.sites())
            .map(|_| {
                let e = Engine::new();
                for (obj, value) in initial.iter() {
                    e.poke(obj.as_str(), value);
                }
                e
            })
            .collect();
        let mut cluster = HomeostasisCluster {
            programs,
            sites: engines,
            round_start: initial,
            history: Vec::new(),
            timer: Timer::Wall,
            stats: ClusterStats::default(),
        };
        cluster.negotiate_treaties();
        cluster
    }

    /// Replaces the elapsed-time source used for the reported solver times
    /// ([`Timer::Fixed`] makes seeded runs byte-for-byte reproducible).
    pub fn with_timer(mut self, timer: Timer) -> Self {
        self.timer = timer;
        self
    }

    /// The site a transaction runs on: the site holding its write set.
    pub fn home_site(&self, txn_index: usize) -> SiteId {
        self.programs
            .home_site(txn_index)
            .expect("transaction index out of range")
    }

    /// The number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The storage engine of one site.
    pub fn engine(&self, site: SiteId) -> &Engine {
        &self.sites[site]
    }

    /// The current treaty table.
    pub fn treaties(&self) -> &TreatyTable {
        self.programs.treaties()
    }

    /// The registered program set.
    pub fn programs(&self) -> &ProgramSet {
        &self.programs
    }

    /// The committed history of the current round.
    pub fn round_history(&self) -> &[CommittedRecord] {
        &self.history
    }

    /// The database the current round started from.
    pub fn round_start(&self) -> &Database {
        &self.round_start
    }

    /// The transaction list.
    pub fn transactions(&self) -> &[Transaction] {
        self.programs.transactions()
    }

    /// The authoritative global database: each site contributes its local
    /// objects.
    pub fn global_database(&self) -> Database {
        let mut db = Database::new();
        for (site, engine) in self.sites.iter().enumerate() {
            for (obj, value) in engine.snapshot() {
                let id = ObjId::new(obj);
                if self.programs.loc().site_of(&id) == site {
                    db.set(id, value);
                }
            }
        }
        db
    }

    /// Executes a transaction through the protocol. It runs at its home
    /// site through [`ProgramSet::run_local`], which commits it only if the
    /// site's local treaty holds on its post-state. On a violation the
    /// engine transaction aborts, so nothing was applied, and the cleanup
    /// phase synchronizes, re-runs the transaction at every site and
    /// negotiates the next round's treaties.
    pub fn execute(&mut self, txn_index: usize) -> Result<TxnOutcome, ExecError> {
        let site = self.home_site(txn_index);
        let result = self
            .programs
            .run_local(site, &self.sites[site], txn_index)?;
        let mut outcome = TxnOutcome {
            committed: true,
            synchronized: false,
            comm_rounds: 0,
            solver_micros: 0,
        };
        match result.status {
            ExecStatus::Conflict => {
                self.stats.cc_aborts += 1;
                outcome.committed = false;
            }
            ExecStatus::Committed => {
                self.stats.local_commits += 1;
                self.history.push(CommittedRecord {
                    site,
                    txn_index,
                    log: result.log,
                });
            }
            ExecStatus::Refused => {
                self.stats.violations += 1;
                outcome.synchronized = true;
                outcome.comm_rounds = 2;
                outcome.solver_micros = self.cleanup(txn_index);
                self.stats.local_commits += 1;
            }
        }
        Ok(outcome)
    }

    /// Forces a synchronization outside the cleanup path: every site
    /// installs the authoritative global state and a new round begins with
    /// freshly negotiated treaties. Returns the solver time in microseconds.
    ///
    /// This is the `synchronize` surface of the runtime layer; the protocol
    /// itself only synchronizes through [`Self::execute`]'s cleanup phase.
    pub fn resynchronize(&mut self) -> u64 {
        let global = self.global_database();
        let snapshot: BTreeMap<String, i64> = global
            .iter()
            .map(|(obj, value)| (obj.as_str().to_string(), value))
            .collect();
        for engine in &self.sites {
            engine.install(snapshot.clone());
        }
        self.round_start = global;
        self.history.clear();
        self.negotiate_treaties()
    }

    /// The cleanup phase: synchronize, re-run the violating transaction at
    /// every site, and negotiate treaties for the next round. Returns the
    /// solver time in microseconds.
    fn cleanup(&mut self, violating_txn: usize) -> u64 {
        // 1. Synchronize: every site broadcasts its local objects.
        let global = self.global_database();
        for engine in &self.sites {
            let mut snapshot: BTreeMap<String, i64> = BTreeMap::new();
            for (obj, value) in global.iter() {
                snapshot.insert(obj.as_str().to_string(), value);
            }
            engine.install(snapshot);
        }
        // 2. Run the violating transaction at every site (deterministic, so
        //    every site reaches the same state); record its log once.
        let site = self.home_site(violating_txn);
        let txn = &self.programs.transactions()[violating_txn];
        let mut recorded = false;
        for engine in &self.sites {
            if let Ok(result) = run_on_engine(engine, txn, &[], |_| true) {
                if !recorded && result.status == ExecStatus::Committed {
                    self.history.push(CommittedRecord {
                        site,
                        txn_index: violating_txn,
                        log: result.log,
                    });
                    recorded = true;
                }
            }
        }
        // 3. New round: the synchronized post-T' state is the new round start.
        self.round_start = self.global_database();
        self.history.clear();
        self.negotiate_treaties()
    }

    /// Treaty generation for the current round-start database, through the
    /// program set's shared deterministic negotiation path. Returns the
    /// solver time in microseconds.
    fn negotiate_treaties(&mut self) -> u64 {
        let db = self.round_start.clone();
        self.programs.negotiate(&db, self.timer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeo_lang::programs;

    fn t1_t2_cluster(optimizer: Option<OptimizerConfig>) -> HomeostasisCluster {
        let loc = Loc::from_pairs([("x", 0usize), ("y", 1usize)]);
        let db = Database::from_pairs([("x", 10), ("y", 13)]);
        HomeostasisCluster::new(vec![programs::t1(), programs::t2()], loc, 2, db, optimizer)
    }

    #[test]
    fn transactions_run_disconnected_until_a_violation() {
        let mut cluster = t1_t2_cluster(Some(OptimizerConfig {
            lookahead: 10,
            futures: 2,
            seed: 3,
        }));
        assert_eq!(cluster.home_site(0), 0);
        assert_eq!(cluster.home_site(1), 1);
        let mut synced = 0;
        for _ in 0..6 {
            let o = cluster.execute(0).unwrap();
            assert!(o.committed);
            if o.synchronized {
                synced += 1;
            }
            let o = cluster.execute(1).unwrap();
            assert!(o.committed);
            if o.synchronized {
                synced += 1;
            }
        }
        // The treaty x + y ≥ 20 with (10, 13) leaves slack, so not every
        // transaction can require synchronization.
        assert!(synced < 12, "synced={synced}");
        assert!(cluster.stats.local_commits > 0);
    }

    #[test]
    fn global_state_matches_serial_execution() {
        // Run an alternating schedule through the protocol and compare the
        // authoritative global state with a serial execution of the same
        // transactions — Theorem 3.8 in executable form.
        let mut cluster = t1_t2_cluster(None);
        let schedule = [0usize, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0];
        let mut serial = Database::from_pairs([("x", 10), ("y", 13)]);
        for &t in &schedule {
            let out = cluster.execute(t).unwrap();
            assert!(out.committed);
            serial = homeo_lang::Evaluator::eval(&cluster.transactions()[t], &serial, &[])
                .unwrap()
                .database;
        }
        assert_eq!(cluster.global_database(), serial);
    }

    #[test]
    fn violations_trigger_synchronization_and_new_rounds() {
        let loc = Loc::from_pairs([("x", 0usize), ("y", 1usize)]);
        // Start right at the treaty boundary so the first decrements violate.
        let db = Database::from_pairs([("x", 10), ("y", 10)]);
        let mut cluster =
            HomeostasisCluster::new(vec![programs::t1(), programs::t2()], loc, 2, db, None);
        let initial_round = cluster.treaties().round;
        let mut saw_sync = false;
        for _ in 0..10 {
            let o = cluster.execute(0).unwrap();
            if o.synchronized {
                saw_sync = true;
                assert_eq!(o.comm_rounds, 2);
            }
            cluster.execute(1).unwrap();
        }
        assert!(saw_sync);
        assert!(cluster.treaties().round > initial_round);
        assert!(cluster.stats.violations > 0);
    }
}
