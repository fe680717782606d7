//! The one client surface of the cluster.
//!
//! [`ClientApi`] is what a benchmark, scenario or test holds to drive a
//! cluster without caring which backend runs it:
//!
//! * the per-operation data plane (`submit_batch` / `poll` / `execute` /
//!   `value_at`) comes from the [`SiteRuntime`] supertrait every backend
//!   already implements;
//! * the control plane — counter registration, general `L++` program
//!   registration, full synchronization, statistics and telemetry — is
//!   defined here, once, and implemented by [`crate::SimCluster`] and
//!   [`crate::TcpCluster`].
//!
//! Callers that know their backend hold the concrete type; callers that
//! loop over both take `&mut dyn ClientApi` (or a `Box<dyn ClientApi>`),
//! which upcasts to `&mut dyn SiteRuntime` for `homeo_runtime::drive`:
//!
//! ```
//! use homeo_cluster::{ClientApi, ClusterConfig, SimCluster, SimNetConfig};
//! use homeo_protocol::ReplicatedMode;
//! use homeo_runtime::SiteOp;
//! use homeo_lang::ids::ObjId;
//!
//! fn drain(api: &mut dyn ClientApi, obj: &ObjId) -> i64 {
//!     api.execute(0, SiteOp::Order { obj: obj.clone(), amount: 1, refill_to: None });
//!     api.sync_all();
//!     api.value_at(0, obj)
//! }
//!
//! let config = ClusterConfig::new(ReplicatedMode::EvenSplit);
//! let mut cluster = SimCluster::new(2, config, SimNetConfig::reliable(2, 100));
//! let obj = ObjId::new("stock[0]");
//! cluster.register_counter(obj.clone(), 10, 1);
//! assert_eq!(drain(&mut cluster, &obj), 9);
//! ```
//!
//! The per-connection [`crate::TcpClient`] remains available as the
//! low-level wire surface: it is what a remote process that does not own
//! the cluster object uses.

use homeo_lang::ids::ObjId;
use homeo_protocol::{ProgramBundle, ReplicatedStats};
use homeo_runtime::SiteRuntime;

use crate::{SimCluster, TcpCluster};

/// The unified cluster-wide client surface.
///
/// Everything a benchmark, scenario or test needs to drive a cluster:
/// the [`SiteRuntime`] data plane plus the registration / synchronization /
/// observability control plane. All methods are cluster-wide; per-site
/// operations take the site index through the supertrait.
pub trait ClientApi: SiteRuntime {
    /// Registers a replicated counter on every site and negotiates its
    /// first treaty split. Returns the solver time in microseconds.
    fn register_counter(&mut self, obj: ObjId, initial: i64, lower_bound: i64) -> u64;

    /// Registers a general `L++` program bundle cluster-wide: every site
    /// parses the source text, runs the same lang → analysis pipeline, and
    /// negotiates its own (deterministic, identical) treaty table, after
    /// which [`homeo_runtime::SiteOp::Transaction`] executes on any site.
    /// Returns the number of registered transactions (0 if rejected).
    fn register_program(&mut self, bundle: &ProgramBundle) -> u64;

    /// Runs a full synchronization round so every replica holds the
    /// authoritative folded state. Returns the solver time in microseconds.
    fn sync_all(&mut self) -> u64 {
        self.synchronize(0)
    }

    /// Aggregate protocol statistics across every site.
    fn stats(&self) -> ReplicatedStats;

    /// Every site's rendered telemetry dump (the Prometheus-style text a
    /// live node serves for metrics requests), in site order. A site that
    /// is currently down renders as an empty string.
    fn metrics_text(&self) -> Vec<String>;
}

impl ClientApi for SimCluster {
    fn register_counter(&mut self, obj: ObjId, initial: i64, lower_bound: i64) -> u64 {
        self.register(obj, initial, lower_bound)
    }

    fn register_program(&mut self, bundle: &ProgramBundle) -> u64 {
        SimCluster::register_program(self, bundle)
    }

    fn stats(&self) -> ReplicatedStats {
        SimCluster::stats(self)
    }

    fn metrics_text(&self) -> Vec<String> {
        SimCluster::metrics_text(self)
    }
}

impl ClientApi for TcpCluster {
    fn register_counter(&mut self, obj: ObjId, initial: i64, lower_bound: i64) -> u64 {
        self.register(obj, initial, lower_bound)
    }

    fn register_program(&mut self, bundle: &ProgramBundle) -> u64 {
        TcpCluster::register_program(self, bundle)
    }

    fn stats(&self) -> ReplicatedStats {
        TcpCluster::stats(self)
    }

    fn metrics_text(&self) -> Vec<String> {
        self.metrics()
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, SimNetConfig};
    use homeo_lang::{programs, Database};
    use homeo_protocol::{Loc, ReplicatedMode};
    use homeo_runtime::SiteOp;
    use homeo_sim::Timer;

    fn backends(sites: usize) -> Vec<(&'static str, Box<dyn ClientApi>)> {
        let config =
            || ClusterConfig::new(ReplicatedMode::EvenSplit).with_timer(Timer::fixed_zero());
        vec![
            (
                "sim",
                Box::new(SimCluster::new(
                    sites,
                    config(),
                    SimNetConfig::reliable(sites, 100),
                )) as Box<dyn ClientApi>,
            ),
            ("tcp", Box::new(TcpCluster::new(sites, config()))),
        ]
    }

    #[test]
    fn the_unified_surface_drives_every_backend() {
        // One generic loop: counter registration, program registration,
        // both op kinds, a sync round, stats and telemetry — all through
        // `dyn ClientApi`, no backend-specific code.
        let obj = homeo_lang::ids::ObjId::new("stock[9]");
        let loc = Loc::from_pairs([(programs::stock_obj(0), 0usize)]);
        let initial = Database::from_pairs([(programs::stock_obj(0), 7i64)]);
        let bundle = ProgramBundle::from_transactions(
            &[programs::micro_order_for_item(0, 12)],
            &loc,
            &initial,
            None,
        );
        for (label, mut api) in backends(2) {
            assert_eq!(api.register_counter(obj.clone(), 10, 1), 0, "{label}");
            assert_eq!(api.register_program(&bundle), 1, "{label}");
            let out = api.execute(
                0,
                SiteOp::Order {
                    obj: obj.clone(),
                    amount: 1,
                    refill_to: None,
                },
            );
            assert!(out.committed, "{label}: counter order");
            let out = api.execute(0, SiteOp::Transaction { index: 0 });
            assert!(out.committed && !out.unsupported, "{label}: general txn");
            api.sync_all();
            assert_eq!(api.value_at(0, &obj), 9, "{label}: counter state");
            assert_eq!(
                api.value_at(0, &programs::stock_obj(0)),
                6,
                "{label}: general state"
            );
            assert!(api.stats().local_commits >= 1, "{label}: stats");
            let metrics = api.metrics_text();
            assert_eq!(metrics.len(), 2, "{label}: metrics per site");
            assert!(
                metrics.iter().all(|m| m.contains("homeo_")),
                "{label}: telemetry text"
            );
        }
    }
}
