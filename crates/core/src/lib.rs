//! # homeostasis-core
//!
//! Public facade for the Homeostasis Protocol reproduction
//! (*The Homeostasis Protocol: Avoiding Transaction Coordination Through
//! Program Analysis*, SIGMOD 2015).
//!
//! Downstream users depend on this crate alone; it re-exports the pieces of
//! the workspace in one coherent API and adds [`HomeostasisSystem`], a
//! convenience wrapper that drives the whole pipeline:
//!
//! ```
//! use homeostasis_core::{HomeostasisSystem, lang::programs, lang::Database, protocol::Loc};
//!
//! // 1. Describe the workload (transactions in L) and where objects live.
//! let transactions = vec![programs::t1(), programs::t2()];
//! let loc = Loc::from_pairs([("x", 0usize), ("y", 1usize)]);
//! let initial = Database::from_pairs([("x", 10), ("y", 13)]);
//!
//! // 2. Build the system: analysis, treaty generation and per-site engines
//! //    all happen here.
//! let mut system = HomeostasisSystem::builder()
//!     .transactions(transactions)
//!     .location(loc)
//!     .sites(2)
//!     .initial_database(initial)
//!     .build();
//!
//! // 3. Execute transactions; most commit without any communication.
//! let outcome = system.execute("T1").unwrap();
//! assert!(outcome.committed);
//! assert!(system.verify_equivalence());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The transaction languages `L` and `L++` (Section 2).
pub use homeo_lang as lang;

/// Symbolic-table program analysis (Section 2).
pub use homeo_analysis as analysis;

/// Linear arithmetic, SAT, MaxSAT and MaxSMT solving substrate.
pub use homeo_solver as solver;

/// The transactional storage engine substrate.
pub use homeo_store as store;

/// The deterministic discrete-event simulator substrate.
pub use homeo_sim as sim;

/// The observability layer: histograms, the metrics registry and the
/// injectable elapsed-time seam.
pub use homeo_telemetry as telemetry;

/// The homeostasis protocol itself (Sections 3–5).
pub use homeo_protocol as protocol;

/// The shared per-site execution runtime (`submit`/`poll`/`synchronize`
/// over engine-backed sites) every protocol variant runs through.
pub use homeo_runtime as runtime;

/// Baseline coordination protocols (2PC, local, demarcation/OPT).
pub use homeo_baselines as baselines;

/// The message-passing cluster subsystem: per-site workers exchanging
/// serialized frames over a deterministic fault-injecting simulator or
/// real TCP sockets.
pub use homeo_cluster as cluster;

/// The evaluation workloads (microbenchmark, TPC-C subset, Table 1).
pub use homeo_workloads as workloads;

use homeo_lang::ast::Transaction;
use homeo_lang::database::Database;
use homeo_protocol::correctness::verify_round;
use homeo_protocol::exec::ExecError;
use homeo_protocol::round::TxnOutcome;
use homeo_protocol::{HomeostasisCluster, Loc, OptimizerConfig};

/// Builder for [`HomeostasisSystem`].
#[derive(Default)]
pub struct SystemBuilder {
    transactions: Vec<Transaction>,
    loc: Loc,
    sites: usize,
    initial: Database,
    optimizer: Option<OptimizerConfig>,
}

impl SystemBuilder {
    /// The workload: every transaction that can run in the system (the
    /// protocol requires all transaction code to be known up front).
    pub fn transactions(mut self, transactions: Vec<Transaction>) -> Self {
        self.transactions = transactions;
        self
    }

    /// The object-location map `Loc`.
    pub fn location(mut self, loc: Loc) -> Self {
        self.loc = loc;
        self
    }

    /// The number of sites.
    pub fn sites(mut self, sites: usize) -> Self {
        self.sites = sites;
        self
    }

    /// The initial (consistent) database.
    pub fn initial_database(mut self, db: Database) -> Self {
        self.initial = db;
        self
    }

    /// Enables the workload-driven treaty optimizer (Algorithm 1). Without
    /// this the always-valid default configuration of Theorem 4.3 is used.
    pub fn optimizer(mut self, config: OptimizerConfig) -> Self {
        self.optimizer = Some(config);
        self
    }

    /// Builds the system: runs the offline analysis, negotiates the first
    /// round's treaties and initializes one storage engine per site.
    pub fn build(self) -> HomeostasisSystem {
        assert!(self.sites > 0, "a system needs at least one site");
        assert!(
            !self.transactions.is_empty(),
            "a system needs at least one transaction"
        );
        let names = self.transactions.iter().map(|t| t.name.clone()).collect();
        let cluster = HomeostasisCluster::new(
            self.transactions,
            self.loc,
            self.sites,
            self.initial,
            self.optimizer,
        );
        HomeostasisSystem { cluster, names }
    }
}

/// A running homeostasis deployment: analyzed workload, per-site engines,
/// current treaties.
pub struct HomeostasisSystem {
    cluster: HomeostasisCluster,
    names: Vec<String>,
}

impl HomeostasisSystem {
    /// Starts building a system.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// Executes the named transaction on its home site.
    pub fn execute(&mut self, name: &str) -> Result<TxnOutcome, ExecError> {
        let index = self
            .names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("unknown transaction `{name}`"));
        self.cluster.execute(index)
    }

    /// Executes a transaction by index.
    pub fn execute_index(&mut self, index: usize) -> Result<TxnOutcome, ExecError> {
        self.cluster.execute(index)
    }

    /// The authoritative global database (union of all sites' local parts).
    pub fn global_database(&self) -> Database {
        self.cluster.global_database()
    }

    /// The treaty round currently in force.
    pub fn treaty_round(&self) -> u64 {
        self.cluster.treaties().round
    }

    /// Checks Theorem 3.8 for the current round: the protocol execution must
    /// be observationally equivalent to a serial execution.
    pub fn verify_equivalence(&self) -> bool {
        verify_round(&self.cluster).is_equivalent()
    }

    /// Accesses the underlying cluster for advanced use (treaty inspection,
    /// statistics).
    pub fn cluster(&self) -> &HomeostasisCluster {
        &self.cluster
    }

    /// The registered transaction names, in index order.
    pub fn transaction_names(&self) -> &[String] {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeo_lang::programs;

    fn system() -> HomeostasisSystem {
        HomeostasisSystem::builder()
            .transactions(vec![programs::t1(), programs::t2()])
            .location(Loc::from_pairs([("x", 0usize), ("y", 1usize)]))
            .sites(2)
            .initial_database(Database::from_pairs([("x", 10), ("y", 13)]))
            .optimizer(OptimizerConfig {
                lookahead: 8,
                futures: 2,
                seed: 1,
            })
            .build()
    }

    #[test]
    fn end_to_end_pipeline_runs_and_stays_equivalent() {
        let mut sys = system();
        for i in 0..20 {
            let name = if i % 2 == 0 { "T1" } else { "T2" };
            let out = sys.execute(name).unwrap();
            assert!(out.committed);
        }
        assert!(sys.verify_equivalence());
        assert_eq!(sys.transaction_names(), &["T1", "T2"]);
    }

    #[test]
    #[should_panic(expected = "unknown transaction")]
    fn unknown_transaction_names_panic() {
        let mut sys = system();
        let _ = sys.execute("nope");
    }

    #[test]
    #[should_panic(expected = "at least one transaction")]
    fn empty_workloads_are_rejected() {
        let _ = HomeostasisSystem::builder()
            .sites(1)
            .location(Loc::new().with_default_site(0))
            .build();
    }
}
