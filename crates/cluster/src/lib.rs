//! # homeo-cluster
//!
//! The message-passing cluster subsystem: each site of the
//! replicated-counter protocol becomes an isolated worker that owns its
//! engine-backed shard and communicates with its peers **only** through
//! length-prefixed serialized [`Message`] frames — treaty negotiation,
//! delta exchange, synchronization rounds and client operations all go
//! over the wire.
//!
//! The paper's central claim — sites execute without coordination while
//! treaties hold — was previously reproduced only under a single-threaded
//! loop over a virtual clock. This crate exercises it under the conditions
//! the claim is actually about, with two backends driving the same
//! per-site state machine ([`worker::SiteWorker`]):
//!
//! * [`SimCluster`] — the workers pumped deterministically over a
//!   [`sim::SimTransport`] fault injector: RTT-matrix delays, seeded
//!   jitter and reordering, drops surfaced as retransmission delay,
//!   symmetric partitions, and site kill/restart that reopens the engine
//!   from its WAL frame.
//! * [`TcpCluster`] — the workers over **real sockets** with real
//!   concurrency: one nonblocking epoll reactor thread per site (the
//!   `reactor` module) multiplexes the listener, every client connection
//!   and every peer link, with partial-frame reassembly, vectored-write
//!   flushes, reconnect-with-backoff, and the `homeostasisd` binary that
//!   runs sites as separate OS processes ([`tcp::SiteNode`], with
//!   [`tcp_load`] as the self-verifying, pipelining load client).
//!
//! Both implement [`homeo_runtime::SiteRuntime`] and the cluster-wide
//! [`ClientApi`], so `drive()`, every workload and the cross-protocol
//! equivalence suites run unchanged on top of either; callers that loop
//! over both hold a `Box<dyn ClientApi>`.
//!
//! ## Elastic membership
//!
//! Membership is dynamic on both backends: `join()` grows the cluster by
//! one site and `leave(site)` retires a member, both while load is in
//! flight. The cluster-wide membership is an epoch-stamped
//! [`homeo_protocol::Roster`]; a membership change runs as
//! [`SyncKind::Handoff`] rounds per counter (freeze → fold the members'
//! unsynchronized deltas → re-split allowances over the new member set →
//! re-map coordinators) and commits via an epoch-bumped
//! `MembershipInstall` under the usual ack barrier. The **epoch-roster
//! rules** — who may adopt which roster, how evicted members' frames are
//! fenced (`stale_rejects`), how WAL recovery lands in the current epoch,
//! and how program execution pins its registration-era membership — are
//! documented on the [`worker`] module, which implements them once for
//! both backends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod config;
pub mod msg;
mod reactor;
pub mod sim;
pub mod tcp;
pub mod worker;

pub use api::ClientApi;
pub use config::ClusterSpec;
pub use homeo_protocol::{ClusterConfig, ProgramBundle, ProgramSet};
pub use msg::{CodecError, CounterMeta, FrameAssembler, Message, SyncKind, CLIENT, MAX_FRAME_LEN};
pub use reactor::DEFAULT_CLIENT_QUEUE_CAP;
pub use sim::{SimCluster, SimMetrics, SimNetConfig, SimTransport};
pub use tcp::{
    free_loopback_addrs, spawn_cluster, tcp_load, tcp_load_opts, DaemonFleet, LoadOptions,
    NodeOptions, SiteNode, TcpClient, TcpCluster, TcpLoadReport,
};

#[cfg(test)]
mod tests {
    use super::*;
    use homeo_lang::ids::ObjId;
    use homeo_protocol::ReplicatedMode;
    use homeo_runtime::{SiteOp, SiteRuntime};
    use homeo_sim::clock::millis;
    use homeo_sim::Timer;
    use homeo_sim::{ClientOutcome, ClosedLoopConfig, CostComponents, DetRng};

    fn stock(i: usize) -> ObjId {
        ObjId::new(format!("stock[{i}]"))
    }

    #[test]
    fn drive_runs_unchanged_over_both_backends() {
        // The closed-loop driver from homeo-runtime drives the cluster the
        // same way it drives the single-threaded runtimes.
        let config = ClosedLoopConfig {
            replicas: 2,
            clients_per_replica: 4,
            warmup: millis(100),
            measure: millis(1_000),
            seed: 9,
            cores_per_replica: 8,
        };
        let cluster_config =
            ClusterConfig::new(ReplicatedMode::EvenSplit).with_timer(Timer::fixed_zero());
        let backends: Vec<Box<dyn ClientApi>> = vec![
            Box::new(SimCluster::new(
                2,
                cluster_config.clone(),
                SimNetConfig::reliable(2, 100),
            )),
            Box::new(TcpCluster::new(2, cluster_config)),
        ];
        for mut runtime in backends {
            for i in 0..40 {
                runtime.register_counter(stock(i), 100, 1);
            }
            let mut workload = |site: usize, rt: &mut dyn SiteRuntime, rng: &mut DetRng| {
                let out = rt.execute(
                    site,
                    SiteOp::Order {
                        obj: stock(rng.index(40)),
                        amount: 1,
                        refill_to: Some(99),
                    },
                );
                ClientOutcome {
                    committed: out.committed,
                    synchronized: out.synchronized,
                    costs: CostComponents {
                        local: 2_000,
                        communication: if out.synchronized { millis(200) } else { 0 },
                        solver: out.solver_micros,
                    },
                }
            };
            let metrics = homeo_runtime::drive(&config, runtime.as_mut(), &mut workload);
            assert!(metrics.counters.committed > 50);
            assert!(runtime.stats().local_commits > 0);
            assert!(runtime.engine(0).wal_len() > 0);
        }
    }

    #[test]
    fn execute_contract_holds_on_the_cluster() {
        let mut runtime = TcpCluster::new(
            2,
            ClusterConfig::new(ReplicatedMode::EvenSplit).with_timer(Timer::fixed_zero()),
        );
        runtime.register(stock(0), 100, 1);
        let out = runtime.execute(
            0,
            SiteOp::Order {
                obj: stock(0),
                amount: 1,
                refill_to: Some(99),
            },
        );
        assert!(out.committed);
        assert_eq!(runtime.value_at(0, &stock(0)), 99);
    }
}
