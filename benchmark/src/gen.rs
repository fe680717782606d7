//! The five workloads and their seeded operation streams.
//!
//! Everything a run submits is generated here from `--seed`; the program
//! under test receives only the generated operations.

use homeo_cluster::Message;
use homeo_lang::ids::ObjId;
use homeo_protocol::OptimizerConfig;
use homeo_runtime::SiteOp;
use homeo_sim::DetRng;

/// The optimizer settings `mode = homeostasis` selects in a daemon's config
/// file. The client negotiates the seeded allowances with the same, and
/// the simulated workload and the program registration use them too.
pub const HOMEOSTASIS_OPTIMIZER: OptimizerConfig = OptimizerConfig {
    lookahead: 10,
    futures: 2,
    seed: 21,
};
/// Share of a connection's traffic that goes to its hot keys.
const HOTNESS: f64 = 0.8;
/// Hot counters of the counter workloads.
const HOT_COUNTERS: usize = 4;
/// Passes of a run. The work of a run is fixed — the same operations on a
/// fresh cluster in every pass — and every part of it is charged what the
/// quietest pass measured for that part: whatever else the shared host does
/// only ever slows a pass down.
pub const PASSES: usize = 5;
/// A run starts no further pass once it has taken this many times
/// `--seconds`: fixed work must not turn a stalled machine into a hung run.
pub const OVERRUN_FACTOR: f64 = 4.0;
/// Sites of every TCP workload (one `homeostasisd` process each).
pub const TCP_SITES: usize = 2;
/// Sites of the simulated WAN workload: the first four of Table 1's five
/// data centres. One five-site negotiation costs 1.3–2.5 s of solver time
/// at this commit, so the fifth would make a run all solver.
pub const SIM_SITES: usize = 4;
/// Counters of the simulated WAN workload.
pub const SIM_COUNTERS: usize = 8;
/// Initial value of the simulated WAN workload's counters.
pub const SIM_INITIAL: i64 = 40;
/// What an order that finds its counter exhausted refills it to.
pub const SIM_REFILL_TO: i64 = SIM_INITIAL - 1;
/// L++ programs of `tcp-general`. The joint symbolic table is the cross
/// product of the per-program tables (2^K rows), so the pool stays narrow.
pub const GENERAL_PROGRAMS: usize = 8;
/// Initial value of every `tcp-general` object.
pub const GENERAL_INITIAL: i64 = 1_000_000_000;

/// What a TCP workload's frames carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// `Order` and `Increment` on replicated counters; `increment_share` of
    /// the operations are increments, which never test an allowance.
    Counters { increment_share: f64 },
    /// `Transaction { index }` on registered L++ programs.
    Programs,
}

/// Shape of one TCP workload.
#[derive(Debug, Clone, Copy)]
pub struct TcpShape {
    /// `mode = homeostasis` (optimizer-negotiated treaties) instead of
    /// `mode = even-split`.
    pub homeostasis: bool,
    /// Replicated counters seeded (none for a program workload).
    pub counters: usize,
    /// Initial value and refill level of every counter.
    pub initial: i64,
    /// Operations per `Submit` frame.
    pub batch: usize,
    /// `Submit`+`PollRequest` pairs kept in flight per connection.
    pub window: usize,
    pub traffic: Traffic,
    /// Frames a slice of a pass holds: about 20 ms of work at the seed
    /// commit, and at least 200 so that a slice's 95th percentile has ten
    /// samples beyond it.
    pub slice_frames: usize,
    /// Frames per second the workload commits at the seed commit, in round
    /// numbers. It sizes the fixed work: a run's passes together hold
    /// `--seconds` times this many frames.
    pub nominal_frames_per_second: f64,
}

impl TcpShape {
    /// Slices of one pass of a run sized for `seconds`.
    pub fn pass_slices(&self, seconds: f64) -> usize {
        let frames = self.nominal_frames_per_second * seconds / PASSES as f64;
        ((frames / self.slice_frames as f64).round() as usize).max(1)
    }
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TcpSingles,
    TcpBatched,
    TcpContended,
    TcpGeneral,
    SimWan4,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TcpSingles,
        Workload::TcpBatched,
        Workload::TcpContended,
        Workload::TcpGeneral,
        Workload::SimWan4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpSingles => "tcp-singles",
            Workload::TcpBatched => "tcp-batched",
            Workload::TcpContended => "tcp-contended",
            Workload::TcpGeneral => "tcp-general",
            Workload::SimWan4 => "sim-wan4",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The TCP shape, or `None` for the simulated workload.
    pub fn tcp_shape(self) -> Option<TcpShape> {
        match self {
            // Treaties never break, so the cost is the per-operation wire
            // path: frame decode, reactor syscalls, worker submit, reply.
            Workload::TcpSingles => Some(TcpShape {
                homeostasis: false,
                counters: 64,
                initial: 1_000_000_000,
                batch: 1,
                window: 8,
                traffic: Traffic::Counters {
                    increment_share: 0.0,
                },
                slice_frames: 2_500,
                nominal_frames_per_second: 125_000.0,
            }),
            // The wire is amortised 64x, so the worker's batch path, the
            // engine's group commit and the WAL do most of the work.
            Workload::TcpBatched => Some(TcpShape {
                homeostasis: false,
                counters: 64,
                initial: 1_000_000_000,
                batch: 64,
                window: 4,
                traffic: Traffic::Counters {
                    increment_share: 0.5,
                },
                slice_frames: 400,
                nominal_frames_per_second: 17_000.0,
            }),
            // A few percent of the orders violate a treaty, so freeze,
            // collect, solve and install rounds over the peer links carry
            // the cost while the fast path carries little.
            Workload::TcpContended => Some(TcpShape {
                homeostasis: true,
                counters: 16,
                initial: 100,
                batch: 1,
                window: 4,
                traffic: Traffic::Counters {
                    increment_share: 0.0,
                },
                slice_frames: 2_200,
                nominal_frames_per_second: 110_000.0,
            }),
            // The only workload that runs lang, analysis, the joint table,
            // `ProgramSet::negotiate` and `local_holds`.
            Workload::TcpGeneral => Some(TcpShape {
                homeostasis: false,
                counters: 0,
                initial: GENERAL_INITIAL,
                batch: 1,
                window: 4,
                traffic: Traffic::Programs,
                slice_frames: 200,
                nominal_frames_per_second: 1_250.0,
            }),
            Workload::SimWan4 => None,
        }
    }
}

/// The `i`-th counter object.
pub fn counter_obj(i: usize) -> ObjId {
    ObjId::new(format!("stock[{i}]"))
}

/// The `i`-th `tcp-general` object; program `i` orders from it, and it
/// lives at site `i % TCP_SITES`.
pub fn general_obj(i: usize) -> ObjId {
    ObjId::new(format!("gstock[{i}]"))
}

fn stream_seed(seed: u64, stream: usize) -> u64 {
    seed ^ (stream as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The operation stream of one connection of a TCP workload.
pub struct TcpStream {
    rng: DetRng,
    shape: TcpShape,
    /// Interned counter ids: the generator must not pay a string
    /// allocation per operation.
    pool: Vec<ObjId>,
    /// Program indices homed at this connection's site, hot one first.
    local_programs: Vec<usize>,
}

impl TcpStream {
    /// The stream of the connection to `site`.
    pub fn new(shape: TcpShape, seed: u64, site: usize) -> Self {
        TcpStream {
            rng: DetRng::seed_from(stream_seed(seed, site)),
            shape,
            pool: (0..shape.counters).map(counter_obj).collect(),
            local_programs: (site..GENERAL_PROGRAMS).step_by(TCP_SITES).collect(),
        }
    }

    /// Replaces `ops` with the next frame's operations.
    pub fn next_frame(&mut self, ops: &mut Vec<SiteOp>) {
        ops.clear();
        for _ in 0..self.shape.batch {
            let op = match self.shape.traffic {
                Traffic::Counters { increment_share } => {
                    let item = if self.rng.chance(HOTNESS) {
                        self.rng.index(HOT_COUNTERS)
                    } else {
                        HOT_COUNTERS + self.rng.index(self.pool.len() - HOT_COUNTERS)
                    };
                    let obj = self.pool[item].clone();
                    if increment_share > 0.0 && self.rng.chance(increment_share) {
                        SiteOp::Increment { obj, amount: 1 }
                    } else {
                        SiteOp::Order {
                            obj,
                            amount: 1,
                            refill_to: Some(self.shape.initial),
                        }
                    }
                }
                Traffic::Programs => {
                    let local = &self.local_programs;
                    let index = if self.rng.chance(HOTNESS) {
                        local[0]
                    } else {
                        local[self.rng.index(local.len())]
                    };
                    SiteOp::Transaction { index }
                }
            };
            ops.push(op);
        }
    }
}

/// Seed of the simulated WAN workload's operation stream. Fixed: what one
/// negotiation costs the solver depends on the exact headroom it starts
/// from (8 to 16 ms per operation across streams at this commit), so a
/// stream per seed would make the wall clock a property of the seed. The
/// run's `--seed` drives the network's faults instead, which move virtual
/// time and frame counts but no protocol decision.
pub const SIM_STREAM_SEED: u64 = 1;

/// The operation stream of the simulated WAN workload: sequential unit
/// orders, round-robin over the sites, on uniformly chosen counters.
pub struct SimStream {
    rng: DetRng,
    pool: Vec<ObjId>,
    issued: usize,
}

impl SimStream {
    pub fn new() -> Self {
        SimStream {
            rng: DetRng::seed_from(stream_seed(SIM_STREAM_SEED, 0)),
            pool: (0..SIM_COUNTERS).map(counter_obj).collect(),
            issued: 0,
        }
    }

    /// The next operation: the site that executes it, the counter it
    /// orders from, and the operation.
    pub fn next_op(&mut self) -> (usize, usize, SiteOp) {
        let site = self.issued % SIM_SITES;
        self.issued += 1;
        let item = self.rng.index(SIM_COUNTERS);
        let op = SiteOp::Order {
            obj: self.pool[item].clone(),
            amount: 1,
            refill_to: Some(SIM_REFILL_TO),
        };
        (site, item, op)
    }
}

/// FNV-1a hash of the first `frames` frames every stream of the workload
/// generates from `seed`, over their wire encoding — the witness that one
/// seed gives one input.
pub fn stream_hash(workload: Workload, seed: u64, frames: usize) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |bytes: &[u8]| {
        for byte in bytes {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut scratch = Vec::new();
    let mut ops = Vec::new();
    match workload.tcp_shape() {
        Some(shape) => {
            for site in 0..TCP_SITES {
                let mut stream = TcpStream::new(shape, seed, site);
                for _ in 0..frames {
                    stream.next_frame(&mut ops);
                    absorb(&Message::encode_submit_into(&ops, &mut scratch));
                }
            }
        }
        None => {
            // The simulated workload's seeded input is the fault schedule:
            // the draws of the generator its transport seeds from `seed`.
            let mut stream = SimStream::new();
            let mut faults = DetRng::seed_from(seed);
            for _ in 0..frames {
                let (site, _, op) = stream.next_op();
                absorb(&[site as u8]);
                absorb(&Message::encode_submit_into(
                    std::slice::from_ref(&op),
                    &mut scratch,
                ));
                absorb(&faults.next_u64().to_be_bytes());
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_stream_and_another_seed_another() {
        for workload in Workload::ALL {
            let a = stream_hash(workload, 7, 200);
            assert_eq!(a, stream_hash(workload, 7, 200), "{}", workload.name());
            assert_ne!(a, stream_hash(workload, 8, 200), "{}", workload.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("tcp-unknown"), None);
    }

    #[test]
    fn frames_have_the_workload_shape() {
        let shape = Workload::TcpBatched.tcp_shape().expect("tcp workload");
        let mut stream = TcpStream::new(shape, 3, 1);
        let mut ops = Vec::new();
        stream.next_frame(&mut ops);
        assert_eq!(ops.len(), 64);
        assert!(ops.iter().any(|op| matches!(op, SiteOp::Increment { .. })));
        assert!(ops.iter().any(|op| matches!(op, SiteOp::Order { .. })));

        // A site only ever submits the programs homed at it.
        let shape = Workload::TcpGeneral.tcp_shape().expect("tcp workload");
        let mut stream = TcpStream::new(shape, 3, 1);
        for _ in 0..100 {
            stream.next_frame(&mut ops);
            assert!(matches!(ops[..], [SiteOp::Transaction { index }] if index % TCP_SITES == 1));
        }
    }
}
