//! The one cluster configuration surface.
//!
//! Every execution layer used to grow its own knob style: the cluster
//! backends took a `ClusterConfig`, the single-process
//! `ReplicatedRuntime` chained `with_sync_tuning` / `with_workload_hints`
//! setters, and the TCP daemon filled a bare `NodeOptions` struct literal.
//! [`ClusterConfig`] is now the canonical carrier for the shared knobs —
//! negotiation mode, solver timer, workload hints, synchronization
//! tuning — and every layer accepts it:
//!
//! * `homeo_cluster::{SimCluster, TcpCluster}` take it at construction;
//! * `homeo_runtime::ReplicatedRuntime::from_config` builds the
//!   single-process runtime from the same value;
//! * `homeo_cluster::NodeOptions::new` seeds a TCP daemon node from it.
//!
//! ```
//! use homeo_protocol::{ClusterConfig, ReplicatedMode, SyncTuning};
//! use homeo_sim::Timer;
//!
//! let config = ClusterConfig::new(ReplicatedMode::EvenSplit)
//!     .with_timer(Timer::fixed_zero())
//!     .with_tuning(SyncTuning::default());
//! assert_eq!(config.hints(3).site_weights.len(), 3);
//! ```

use homeo_sim::Timer;

use crate::negotiation::SyncTuning;
use crate::replicated::{ReplicatedMode, WorkloadHints};

/// Shared configuration of a replicated execution layer: the negotiation
/// mode, the solver timer, the optimizer's workload hints and the
/// synchronization-round tuning.
///
/// This is the single builder surface consumed by every backend (simulated,
/// TCP, and the single-process `ReplicatedRuntime`).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// How local treaties are chosen at each negotiation.
    pub mode: ReplicatedMode,
    /// Elapsed-time source for reported solver times ([`Timer::Fixed`]
    /// makes seeded runs byte-for-byte reproducible).
    pub timer: Timer,
    /// Workload hints for the optimizer; `None` means uniform.
    pub hints: Option<WorkloadHints>,
    /// Synchronization-round cost knobs: solver warm starts and the
    /// demand-adaptive proactive control loop.
    pub tuning: SyncTuning,
}

impl ClusterConfig {
    /// A configuration with a wall-clock timer, uniform hints and the
    /// default tuning (warm starts on, proactive control off).
    pub fn new(mode: ReplicatedMode) -> Self {
        ClusterConfig {
            mode,
            timer: Timer::Wall,
            hints: None,
            tuning: SyncTuning::default(),
        }
    }

    /// Replaces the elapsed-time source.
    pub fn with_timer(mut self, timer: Timer) -> Self {
        self.timer = timer;
        self
    }

    /// Replaces the synchronization tuning.
    pub fn with_tuning(mut self, tuning: SyncTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Sets the optimizer's workload hints.
    pub fn with_hints(mut self, hints: WorkloadHints) -> Self {
        self.hints = hints.into();
        self
    }

    /// The effective hints for `sites` replicas (uniform when unset).
    pub fn hints(&self, sites: usize) -> WorkloadHints {
        self.hints
            .clone()
            .unwrap_or_else(|| WorkloadHints::uniform(sites))
    }
}
