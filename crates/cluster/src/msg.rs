//! The cluster wire protocol: [`Message`] and its length-prefixed binary
//! frame codec.
//!
//! Sites exchange nothing but these frames (over the simulator's
//! [`SimTransport`](crate::SimTransport) or a TCP stream): client
//! operations, treaty negotiation, delta exchange, synchronization rounds
//! and crash recovery all travel as encoded [`Message`]s. The codec mirrors the WAL's on-disk idiom
//! (`homeo_store::Wal::encode`): big-endian fixed-width integers,
//! `u32`-length-prefixed strings, one tag byte per variant, and the whole
//! message wrapped in a `u32` length prefix so a byte stream can be framed
//! without lookahead.

use homeo_lang::ids::ObjId;
use homeo_protocol::{OptimizerConfig, ProgramBundle, ReplicatedStats, Roster};
use homeo_runtime::{OpOutcome, SiteOp};
use serde::{Deserialize, Serialize};

/// Upper bound on one frame's body length, enforced **before** any body
/// bytes are buffered or parsed. An untrusted socket can claim any `u32` in
/// its length prefix; without this bound a single 4-byte prefix could make
/// the receiver allocate gigabytes. Generous for real traffic (the largest
/// legitimate frames — multi-thousand-op submit batches, full state
/// replies — are a few hundred KiB).
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Why a frame failed to decode. Transports treat any of these as a fatal
/// protocol error on the connection that produced the bytes: the stream
/// offset is unrecoverable once framing is wrong, so the connection is
/// closed (peers reconnect with a fresh stream; clients surface the error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the frame its length prefix promised.
    Truncated,
    /// The length prefix claims a body larger than [`MAX_FRAME_LEN`].
    Oversized {
        /// The claimed body length.
        len: usize,
    },
    /// The body bytes do not parse as exactly one message (unknown tag,
    /// invalid value, short body or trailing bytes).
    Malformed,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated before its declared length"),
            CodecError::Oversized { len } => write!(
                f,
                "frame length prefix {len} exceeds the {MAX_FRAME_LEN}-byte bound"
            ),
            CodecError::Malformed => write!(f, "frame body is not exactly one valid message"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Reassembles length-prefixed frames from an arbitrary sequence of byte
/// chunks — the read side of a TCP connection, where one `read` may return
/// half a frame, three frames, or a frame boundary split inside the length
/// prefix itself.
///
/// Push whatever the socket produced with [`FrameAssembler::push`], then
/// drain complete messages with [`FrameAssembler::next_message`]. The
/// length-prefix bound ([`MAX_FRAME_LEN`]) is checked as soon as the four
/// prefix bytes are available, before any body byte is buffered against it,
/// so a hostile prefix cannot force an allocation.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the connection.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete frame (length prefix included), or `Ok(None)`
    /// when the buffer holds only a partial frame. `Err` means the stream
    /// is unrecoverable and the connection must be closed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(CodecError::Oversized { len });
        }
        let total = 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        Ok(Some(self.buf.drain(..total).collect()))
    }

    /// Pops and decodes the next complete message, or `Ok(None)` when only
    /// a partial frame is buffered.
    pub fn next_message(&mut self) -> Result<Option<Message>, CodecError> {
        match self.next_frame()? {
            Some(frame) => Message::decode(&frame).map(Some),
            None => Ok(None),
        }
    }
}

/// Treaty metadata of one replicated counter, as carried by registration,
/// installation and recovery messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterMeta {
    /// The counter object.
    pub obj: ObjId,
    /// The synchronized value (all deltas folded in at the last
    /// synchronization).
    pub base: i64,
    /// The global treaty maintains `value ≥ lower_bound`.
    pub lower_bound: i64,
    /// The sites sharing this counter, sorted ascending. The counter's
    /// coordinator is `members[shard_hash % len]`, and a membership change
    /// reaches a counter only through a [`SyncKind::Handoff`] round that
    /// installs a meta with the new member list — so per counter, the
    /// coordinator moves atomically under the round's freeze/ack barrier.
    /// A site holding the meta but absent from `members` keeps it purely
    /// for request routing (it proxies operations to the coordinator).
    pub members: Vec<usize>,
    /// Per-member allowances, parallel to `members`: the site `members[i]`
    /// may let its delta drop to `allowances[i]` (`≤ 0`) before it must
    /// synchronize.
    pub allowances: Vec<i64>,
}

impl CounterMeta {
    /// The allowance of `site`, or `None` when `site` is not a member.
    pub fn allowance_of(&self, site: usize) -> Option<i64> {
        self.members
            .binary_search(&site)
            .ok()
            .map(|i| self.allowances[i])
    }
}

/// What a synchronization round does to the folded (consistent) state once
/// every site's delta has been collected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncKind {
    /// A treaty-violating order, executed serially on the folded state:
    /// decrement `amount`, refilling to `refill_to` when the folded value
    /// can no longer support the decrement.
    Order {
        /// The (non-negative) decrement.
        amount: i64,
        /// The refill level, if the workload has refill semantics.
        refill_to: Option<i64>,
    },
    /// A pin-treaty operation (`SiteOp::ForceSync`): install the folded
    /// value as the new base.
    Pin,
    /// An explicit fold with no operation attached
    /// (`SiteRuntime::synchronize`): install the folded value, skipping the
    /// renegotiation when no deltas were outstanding.
    Fold,
    /// A demand-adaptive proactive re-split, fired by a site *before* its
    /// allowance is violated: fold and renegotiate like [`SyncKind::Pin`],
    /// but fire-and-forget — no client operation waits on the round.
    Proactive,
    /// A membership handoff: fold the deltas of the counter's *current*
    /// members, then re-split the allowances over `members` (the new,
    /// sorted member list) and install the meta to the union of old and new
    /// members. This is how a join donates headroom to (and a leave folds
    /// the deltas out of) one counter; the membership coordinator issues
    /// one per counter and commits the roster once every handoff is done.
    Handoff {
        /// The counter's member list after the change, sorted ascending.
        members: Vec<usize>,
    },
}

/// One frame of the cluster protocol.
///
/// Identifier conventions: `req` is an origin-scoped request id (globally
/// unique because it is allocated as `n * sites + origin`), `sync` is a
/// coordinator-scoped round id with the same namespacing, so any site can
/// recover the coordinator of a round as `sync % sites`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Message {
    /// A batch of client operations submitted to a site's inbox in one
    /// frame (sent by the client attachment, never site-to-site). Batching
    /// at the frame level is what lets a load generator amortize the
    /// encode/enqueue cost over many operations; a singleton batch is the
    /// unbatched submit.
    Submit {
        /// The operations, in submission order.
        ops: Vec<SiteOp>,
    },
    /// Registers a counter on every site with its freshly negotiated treaty
    /// state.
    Register {
        /// The counter and its treaty metadata.
        meta: CounterMeta,
    },
    /// Asks the counter's coordinator to run a synchronization round.
    SyncRequest {
        /// The site awaiting the [`Message::SyncDone`]. Carried explicitly
        /// (rather than inferred from the sending connection) so a request
        /// that lands on an ex-coordinator mid-handoff can be forwarded to
        /// the counter's new coordinator without losing the origin.
        origin: u64,
        /// Origin-scoped request id (for deduplication and completion).
        req: u64,
        /// The counter to fold.
        obj: ObjId,
        /// What to do on the folded state.
        kind: SyncKind,
    },
    /// Coordinator → peers: report your delta for `obj` and freeze it until
    /// the matching [`Message::Install`] arrives.
    DeltaRequest {
        /// Coordinator-scoped round id.
        sync: u64,
        /// The counter being folded.
        obj: ObjId,
    },
    /// Peer → coordinator: the peer's unsynchronized delta (its engine value
    /// minus the shared base).
    DeltaReply {
        /// The round being answered.
        sync: u64,
        /// The counter being folded.
        obj: ObjId,
        /// `value@site − base`.
        delta: i64,
    },
    /// Coordinator → peers: complete the round and unfreeze. With `apply`
    /// set, install the synchronized base and the renegotiated treaty; with
    /// it clear (a fold whose deltas summed to zero), leave local state —
    /// including any nonzero per-site delta — untouched, mirroring
    /// `ReplicatedRuntime::synchronize`'s skip of already-synchronized
    /// counters.
    Install {
        /// The round being completed.
        sync: u64,
        /// The treaty state (base, lower bound, allowances).
        meta: CounterMeta,
        /// Whether to rebase the local engine value and treaty metadata.
        apply: bool,
    },
    /// Peer → coordinator: the install was applied.
    InstallAck {
        /// The round being acknowledged.
        sync: u64,
        /// The counter that was installed.
        obj: ObjId,
    },
    /// Coordinator → origin: the requested round completed.
    SyncDone {
        /// The origin's request id.
        req: u64,
        /// Whether the refill branch ran (order kinds only).
        refilled: bool,
        /// Solver time of the renegotiation, in microseconds.
        solver_micros: u64,
        /// Whether any outstanding delta was actually folded (`Fold` kinds
        /// report `false` when the counter was already synchronized).
        folded: bool,
    },
    /// A restarted site asking a live peer for the cluster's treaty state
    /// (the paper's "all in-memory state can be recomputed" stance: engines
    /// recover from their WAL, treaty metadata from any peer).
    StateRequest,
    /// The peer's full treaty state.
    StateReply {
        /// Every registered counter's metadata.
        counters: Vec<CounterMeta>,
        /// The peer's current membership roster — what makes WAL recovery
        /// replay into the *current* epoch: a restarted site adopts the
        /// buddy's roster alongside the treaty state, so it rejects frames
        /// from members evicted while it was down.
        roster: Roster,
    },
    /// The first frame on every TCP connection: who is connecting. Peers
    /// identify with their site id and their **incarnation epoch** (fresh
    /// per node start); client attachments send [`CLIENT_PEER`]. Consumed
    /// by the accepting transport — a worker never sees it. The epoch is
    /// how a site distinguishes a restarted peer (new epoch → its cached
    /// outbound socket to that peer is dead and must be dropped) from a
    /// mere reconnect by the same incarnation (same epoch → keep it).
    Hello {
        /// The connecting side's site id, or [`CLIENT_PEER`] for a client.
        peer: u64,
        /// The connecting node's incarnation epoch (0 for clients).
        epoch: u64,
    },
    /// Client → site: install this counter's initial value and treaty
    /// metadata (the multi-process form of cluster-wide registration, where
    /// no coordinating thread can reach every engine directly). The site
    /// writes `meta.base` through its engine (WAL-logged) if the counter is
    /// unknown, installs the treaty, and always answers [`Message::SeedAck`]
    /// — so re-seeding after a client reconnect is idempotent. The seeding
    /// client must collect every site's ack before submitting operations:
    /// the acks are what orders the seed before any cross-connection frame
    /// that references the counter.
    Seed {
        /// The counter and its negotiated treaty metadata.
        meta: CounterMeta,
    },
    /// Site → seeding client: the seed was applied (or was already known).
    SeedAck {
        /// The seeded counter.
        obj: ObjId,
    },
    /// Client → site: reply with the outcomes of every submitted operation
    /// once the site is idle (the wire form of the poll control command).
    PollRequest,
    /// Site → client: the drained outcomes, in submission order.
    PollReply {
        /// One outcome per completed operation.
        outcomes: Vec<OpOutcome>,
    },
    /// Client → site: fold every registered counter
    /// (`SiteRuntime::synchronize` over the wire).
    SyncAllRequest,
    /// Site → client: the fold completed everywhere.
    SyncAllReply {
        /// Total solver time of the renegotiations, in microseconds.
        solver_micros: u64,
    },
    /// Client → site: reply with the site's aggregate statistics.
    StatsRequest,
    /// Site → client: the site's aggregate statistics.
    StatsReply {
        /// Local commits, synchronizations and negotiations at this site.
        stats: ReplicatedStats,
    },
    /// Client → site: reply with the site's full telemetry dump
    /// (counters, gauges and latency histograms) as Prometheus-style text.
    MetricsRequest,
    /// Site → client: the rendered telemetry dump.
    MetricsReply {
        /// Prometheus-style text exposition (`# TYPE` headers followed by
        /// `name value` lines; histograms as `_count`/`_sum`/quantile
        /// lines).
        text: String,
    },
    /// Registers a set of `L++` transaction programs on a site. Program
    /// source travels as text: the receiving site parses it through
    /// `homeo_lang`, derives its symbolic/joint tables through
    /// `homeo_analysis`, and negotiates the round-0 treaties from the
    /// bundle's initial database — all deterministic, so every site arrives
    /// at identical treaty state without treaties ever crossing the wire.
    /// Idempotent: re-registering the same bundle only re-acks.
    RegisterProgram {
        /// The program sources, placement map, initial database and
        /// optimizer settings.
        bundle: ProgramBundle,
    },
    /// Site → registering client: the bundle was parsed, analyzed and
    /// installed (or was already registered).
    ProgramAck {
        /// Number of registered programs after the install.
        count: u64,
    },
    /// Origin → general coordinator (site 0): run a general synchronization
    /// round — freeze, fold every site's local objects, optionally re-run a
    /// treaty-violating transaction on the folded state, renegotiate.
    ProgramSync {
        /// Origin-scoped request id (completion arrives as
        /// [`Message::SyncDone`]).
        req: u64,
        /// The violating transaction to re-run on the folded state, or
        /// `None` for a pure fold (`SiteRuntime::synchronize`).
        txn: Option<u64>,
    },
    /// General coordinator → peers: freeze general execution and report the
    /// values of your local objects.
    ProgramCollect {
        /// Coordinator-scoped round id.
        sync: u64,
    },
    /// Peer → general coordinator: the values of the peer's local objects.
    ProgramDeltas {
        /// The round being answered.
        sync: u64,
        /// `(object, value)` for every object the `Loc` map places at the
        /// replying site.
        values: Vec<(ObjId, i64)>,
    },
    /// General coordinator → peers: install the folded global database,
    /// re-run the violating transaction (if any) deterministically, set the
    /// treaty round counter to `round`, renegotiate locally, and unfreeze.
    ProgramInstall {
        /// The round being completed.
        sync: u64,
        /// The violating transaction every site must re-run, if any.
        txn: Option<u64>,
        /// The coordinator's treaty round counter *before* the install's
        /// renegotiation — sites adopt it so the lockstep seed
        /// (`optimizer.seed + round`) stays identical after restarts.
        round: u64,
        /// The folded authoritative global database.
        db: Vec<(ObjId, i64)>,
    },
    /// Peer → general coordinator: the install (and renegotiation) ran.
    ProgramInstallAck {
        /// The round being acknowledged.
        sync: u64,
    },
    /// Joiner (or an admin client) → membership coordinator: admit `site`
    /// into the cluster. Forwarded to the current leader (`members[0]`)
    /// when it lands elsewhere. Answered by [`Message::JoinAck`] sent to
    /// `site` itself (not the requesting connection), carrying everything
    /// the joiner needs to participate.
    JoinRequest {
        /// The joining site's id.
        site: u64,
        /// The joiner's listen address (`host:port`), or empty for
        /// in-process transports that route by site id alone.
        addr: String,
        /// If set, the join is refused unless the cluster's roster epoch
        /// matches — how `homeostasisd`'s `epoch =` stanza pins a config
        /// against a stale cluster.
        expected_epoch: Option<u64>,
    },
    /// Membership coordinator → joiner: the admission verdict. On `ok`, the
    /// roster already includes the joiner (the epoch is the one the pending
    /// handoffs will commit), and the registered program bundle (if any)
    /// rides along so the joiner derives identical treaty state.
    JoinAck {
        /// Whether the join was admitted.
        ok: bool,
        /// The roster the joiner participates under (on refusal: the
        /// cluster's current roster, for diagnostics).
        roster: Roster,
        /// Listen addresses indexed by site id (empty strings where
        /// unknown), so a TCP joiner can dial every peer.
        addrs: Vec<String>,
        /// The registered program bundle and the site count it was
        /// registered at, if programs are installed. General rounds stay
        /// pinned to the registration-time membership, so the joiner builds
        /// the identical home mapping from this count, not the roster size.
        program: Option<(ProgramBundle, u64)>,
    },
    /// Any member (or an admin client) → membership coordinator: retire
    /// `site`. The leaver's outstanding deltas are folded by the per-counter
    /// handoffs before the epoch-bumped roster (which excludes it) commits;
    /// the leaver learns of its own eviction from the final
    /// [`Message::MembershipInstall`].
    Leave {
        /// The site to retire.
        site: u64,
    },
    /// Membership coordinator → everyone (old members, joiner, leaver): the
    /// membership change is complete; adopt this roster iff its epoch is
    /// newer than yours. Members absent from an adopted roster are evicted:
    /// their frames (except a rejoin [`Message::JoinRequest`]) are dropped.
    MembershipInstall {
        /// The committed epoch-stamped roster.
        roster: Roster,
        /// Listen addresses indexed by site id (empty strings where
        /// unknown).
        addrs: Vec<String>,
    },
}

/// Sender id used for frames originating from the client attachment (the
/// coordinating thread or a load-generator client) rather than a peer site.
/// Client frames are exempt from fault injection: the client "connection" is
/// local to the site, only site-to-site traffic crosses the network.
pub const CLIENT: usize = usize::MAX;

/// The [`Message::Hello`] peer id a client attachment announces (sites use
/// their index). Mirrors [`CLIENT`] on the wire.
pub const CLIENT_PEER: u64 = u64::MAX;

impl Message {
    /// Encodes the message as a length-prefixed frame: a `u32` byte length
    /// (big-endian, excluding the prefix itself) followed by the body.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(&mut Vec::new())
    }

    /// Encodes a [`Message::Submit`] frame directly from a **borrowed**
    /// batch, through the same scratch-buffer path as
    /// [`Message::encode_into`]. This is the client attachments' hot path:
    /// shipping a batch must not deep-clone every operation just to build
    /// an owned `Message` that is immediately encoded and dropped.
    pub fn encode_submit_into(ops: &[SiteOp], scratch: &mut Vec<u8>) -> Vec<u8> {
        scratch.clear();
        scratch.extend_from_slice(&[0u8; 4]);
        scratch.push(0); // the Submit tag
        scratch.extend_from_slice(&(ops.len() as u32).to_be_bytes());
        for op in ops {
            encode_op(op, scratch);
        }
        let len = (scratch.len() - 4) as u32;
        scratch[..4].copy_from_slice(&len.to_be_bytes());
        scratch.as_slice().to_vec()
    }

    /// [`Message::encode`] through a reusable per-connection scratch buffer:
    /// the frame is assembled in `scratch` (cleared first, capacity kept
    /// across calls) and the returned `Vec` is one exact-size allocation of
    /// the finished frame. Encoding a stream of frames through one scratch
    /// buffer avoids the per-frame body allocation and its growth
    /// reallocations — the hot path for every transport connection.
    pub fn encode_into(&self, scratch: &mut Vec<u8>) -> Vec<u8> {
        scratch.clear();
        scratch.extend_from_slice(&[0u8; 4]);
        self.encode_body(scratch);
        let len = (scratch.len() - 4) as u32;
        scratch[..4].copy_from_slice(&len.to_be_bytes());
        scratch.as_slice().to_vec()
    }

    /// Decodes one frame produced by [`Message::encode`].
    ///
    /// Never panics on hostile input: an oversized length prefix, a frame
    /// shorter than its prefix promises, an unknown tag, an invalid value
    /// or trailing bytes after the body all return the matching
    /// [`CodecError`] (frames carry exactly one message). Transports treat
    /// any error as fatal for the connection that produced the bytes.
    pub fn decode(frame: &[u8]) -> Result<Message, CodecError> {
        let mut cursor = Cursor {
            data: frame,
            pos: 0,
        };
        let len = cursor.u32().ok_or(CodecError::Truncated)? as usize;
        if len > MAX_FRAME_LEN {
            return Err(CodecError::Oversized { len });
        }
        if frame.len() < 4 + len {
            return Err(CodecError::Truncated);
        }
        if frame.len() > 4 + len {
            return Err(CodecError::Malformed);
        }
        let msg = Self::decode_body(&mut cursor).ok_or(CodecError::Malformed)?;
        if cursor.pos == frame.len() {
            Ok(msg)
        } else {
            Err(CodecError::Malformed)
        }
    }

    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Submit { ops } => {
                buf.push(0);
                buf.extend_from_slice(&(ops.len() as u32).to_be_bytes());
                for op in ops {
                    encode_op(op, buf);
                }
            }
            Message::Register { meta } => {
                buf.push(1);
                encode_meta(meta, buf);
            }
            Message::SyncRequest {
                origin,
                req,
                obj,
                kind,
            } => {
                buf.push(2);
                buf.extend_from_slice(&origin.to_be_bytes());
                buf.extend_from_slice(&req.to_be_bytes());
                encode_str(obj.as_str(), buf);
                encode_kind(kind, buf);
            }
            Message::DeltaRequest { sync, obj } => {
                buf.push(3);
                buf.extend_from_slice(&sync.to_be_bytes());
                encode_str(obj.as_str(), buf);
            }
            Message::DeltaReply { sync, obj, delta } => {
                buf.push(4);
                buf.extend_from_slice(&sync.to_be_bytes());
                encode_str(obj.as_str(), buf);
                buf.extend_from_slice(&delta.to_be_bytes());
            }
            Message::Install { sync, meta, apply } => {
                buf.push(5);
                buf.extend_from_slice(&sync.to_be_bytes());
                encode_meta(meta, buf);
                buf.push(u8::from(*apply));
            }
            Message::InstallAck { sync, obj } => {
                buf.push(6);
                buf.extend_from_slice(&sync.to_be_bytes());
                encode_str(obj.as_str(), buf);
            }
            Message::SyncDone {
                req,
                refilled,
                solver_micros,
                folded,
            } => {
                buf.push(7);
                buf.extend_from_slice(&req.to_be_bytes());
                buf.push(u8::from(*refilled));
                buf.extend_from_slice(&solver_micros.to_be_bytes());
                buf.push(u8::from(*folded));
            }
            Message::StateRequest => buf.push(8),
            Message::StateReply { counters, roster } => {
                buf.push(9);
                buf.extend_from_slice(&(counters.len() as u32).to_be_bytes());
                for meta in counters {
                    encode_meta(meta, buf);
                }
                encode_roster(roster, buf);
            }
            Message::Hello { peer, epoch } => {
                buf.push(10);
                buf.extend_from_slice(&peer.to_be_bytes());
                buf.extend_from_slice(&epoch.to_be_bytes());
            }
            Message::Seed { meta } => {
                buf.push(11);
                encode_meta(meta, buf);
            }
            Message::SeedAck { obj } => {
                buf.push(12);
                encode_str(obj.as_str(), buf);
            }
            Message::PollRequest => buf.push(13),
            Message::PollReply { outcomes } => {
                buf.push(14);
                buf.extend_from_slice(&(outcomes.len() as u32).to_be_bytes());
                for outcome in outcomes {
                    encode_outcome(outcome, buf);
                }
            }
            Message::SyncAllRequest => buf.push(15),
            Message::SyncAllReply { solver_micros } => {
                buf.push(16);
                buf.extend_from_slice(&solver_micros.to_be_bytes());
            }
            Message::StatsRequest => buf.push(17),
            Message::StatsReply { stats } => {
                buf.push(18);
                buf.extend_from_slice(&stats.local_commits.to_be_bytes());
                buf.extend_from_slice(&stats.synchronizations.to_be_bytes());
                buf.extend_from_slice(&stats.negotiations.to_be_bytes());
                buf.extend_from_slice(&stats.proactive_negotiations.to_be_bytes());
                buf.extend_from_slice(&stats.solver_micros_total.to_be_bytes());
            }
            Message::MetricsRequest => buf.push(19),
            Message::MetricsReply { text } => {
                buf.push(20);
                encode_str(text, buf);
            }
            Message::RegisterProgram { bundle } => {
                buf.push(21);
                encode_bundle(bundle, buf);
            }
            Message::ProgramAck { count } => {
                buf.push(22);
                buf.extend_from_slice(&count.to_be_bytes());
            }
            Message::ProgramSync { req, txn } => {
                buf.push(23);
                buf.extend_from_slice(&req.to_be_bytes());
                encode_opt_u64(txn, buf);
            }
            Message::ProgramCollect { sync } => {
                buf.push(24);
                buf.extend_from_slice(&sync.to_be_bytes());
            }
            Message::ProgramDeltas { sync, values } => {
                buf.push(25);
                buf.extend_from_slice(&sync.to_be_bytes());
                encode_pairs(values, buf);
            }
            Message::ProgramInstall {
                sync,
                txn,
                round,
                db,
            } => {
                buf.push(26);
                buf.extend_from_slice(&sync.to_be_bytes());
                encode_opt_u64(txn, buf);
                buf.extend_from_slice(&round.to_be_bytes());
                encode_pairs(db, buf);
            }
            Message::ProgramInstallAck { sync } => {
                buf.push(27);
                buf.extend_from_slice(&sync.to_be_bytes());
            }
            Message::JoinRequest {
                site,
                addr,
                expected_epoch,
            } => {
                buf.push(28);
                buf.extend_from_slice(&site.to_be_bytes());
                encode_str(addr, buf);
                encode_opt_u64(expected_epoch, buf);
            }
            Message::JoinAck {
                ok,
                roster,
                addrs,
                program,
            } => {
                buf.push(29);
                buf.push(u8::from(*ok));
                encode_roster(roster, buf);
                encode_strs(addrs, buf);
                match program {
                    None => buf.push(0),
                    Some((bundle, sites)) => {
                        buf.push(1);
                        encode_bundle(bundle, buf);
                        buf.extend_from_slice(&sites.to_be_bytes());
                    }
                }
            }
            Message::Leave { site } => {
                buf.push(30);
                buf.extend_from_slice(&site.to_be_bytes());
            }
            Message::MembershipInstall { roster, addrs } => {
                buf.push(31);
                encode_roster(roster, buf);
                encode_strs(addrs, buf);
            }
        }
    }

    fn decode_body(cursor: &mut Cursor<'_>) -> Option<Message> {
        Some(match cursor.u8()? {
            0 => {
                let count = cursor.u32()? as usize;
                let mut ops = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    ops.push(decode_op(cursor)?);
                }
                Message::Submit { ops }
            }
            1 => Message::Register {
                meta: decode_meta(cursor)?,
            },
            2 => Message::SyncRequest {
                origin: cursor.u64()?,
                req: cursor.u64()?,
                obj: ObjId::new(decode_str(cursor)?),
                kind: decode_kind(cursor)?,
            },
            3 => Message::DeltaRequest {
                sync: cursor.u64()?,
                obj: ObjId::new(decode_str(cursor)?),
            },
            4 => Message::DeltaReply {
                sync: cursor.u64()?,
                obj: ObjId::new(decode_str(cursor)?),
                delta: cursor.i64()?,
            },
            5 => Message::Install {
                sync: cursor.u64()?,
                meta: decode_meta(cursor)?,
                apply: match cursor.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
            },
            6 => Message::InstallAck {
                sync: cursor.u64()?,
                obj: ObjId::new(decode_str(cursor)?),
            },
            7 => Message::SyncDone {
                req: cursor.u64()?,
                refilled: cursor.u8()? != 0,
                solver_micros: cursor.u64()?,
                folded: cursor.u8()? != 0,
            },
            8 => Message::StateRequest,
            9 => {
                let count = cursor.u32()? as usize;
                let mut counters = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    counters.push(decode_meta(cursor)?);
                }
                Message::StateReply {
                    counters,
                    roster: decode_roster(cursor)?,
                }
            }
            10 => Message::Hello {
                peer: cursor.u64()?,
                epoch: cursor.u64()?,
            },
            11 => Message::Seed {
                meta: decode_meta(cursor)?,
            },
            12 => Message::SeedAck {
                obj: ObjId::new(decode_str(cursor)?),
            },
            13 => Message::PollRequest,
            14 => {
                let count = cursor.u32()? as usize;
                let mut outcomes = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    outcomes.push(decode_outcome(cursor)?);
                }
                Message::PollReply { outcomes }
            }
            15 => Message::SyncAllRequest,
            16 => Message::SyncAllReply {
                solver_micros: cursor.u64()?,
            },
            17 => Message::StatsRequest,
            18 => Message::StatsReply {
                stats: ReplicatedStats {
                    local_commits: cursor.u64()?,
                    synchronizations: cursor.u64()?,
                    negotiations: cursor.u64()?,
                    proactive_negotiations: cursor.u64()?,
                    solver_micros_total: cursor.u64()?,
                },
            },
            19 => Message::MetricsRequest,
            20 => Message::MetricsReply {
                text: decode_str(cursor)?,
            },
            21 => Message::RegisterProgram {
                bundle: decode_bundle(cursor)?,
            },
            22 => Message::ProgramAck {
                count: cursor.u64()?,
            },
            23 => Message::ProgramSync {
                req: cursor.u64()?,
                txn: decode_opt_u64(cursor)?,
            },
            24 => Message::ProgramCollect {
                sync: cursor.u64()?,
            },
            25 => Message::ProgramDeltas {
                sync: cursor.u64()?,
                values: decode_pairs(cursor)?,
            },
            26 => Message::ProgramInstall {
                sync: cursor.u64()?,
                txn: decode_opt_u64(cursor)?,
                round: cursor.u64()?,
                db: decode_pairs(cursor)?,
            },
            27 => Message::ProgramInstallAck {
                sync: cursor.u64()?,
            },
            28 => Message::JoinRequest {
                site: cursor.u64()?,
                addr: decode_str(cursor)?,
                expected_epoch: decode_opt_u64(cursor)?,
            },
            29 => Message::JoinAck {
                ok: match cursor.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
                roster: decode_roster(cursor)?,
                addrs: decode_strs(cursor)?,
                program: match cursor.u8()? {
                    0 => None,
                    1 => Some((decode_bundle(cursor)?, cursor.u64()?)),
                    _ => return None,
                },
            },
            30 => Message::Leave {
                site: cursor.u64()?,
            },
            31 => Message::MembershipInstall {
                roster: decode_roster(cursor)?,
                addrs: decode_strs(cursor)?,
            },
            _ => return None,
        })
    }
}

fn encode_outcome(outcome: &OpOutcome, buf: &mut Vec<u8>) {
    let flags = u8::from(outcome.committed)
        | (u8::from(outcome.synchronized) << 1)
        | (u8::from(outcome.refilled) << 2)
        | (u8::from(outcome.unsupported) << 3);
    buf.push(flags);
    buf.extend_from_slice(&outcome.comm_rounds.to_be_bytes());
    buf.extend_from_slice(&outcome.solver_micros.to_be_bytes());
}

fn decode_outcome(cursor: &mut Cursor<'_>) -> Option<OpOutcome> {
    let flags = cursor.u8()?;
    if flags > 0b1111 {
        return None;
    }
    Some(OpOutcome {
        committed: flags & 1 != 0,
        synchronized: flags & 2 != 0,
        refilled: flags & 4 != 0,
        unsupported: flags & 8 != 0,
        comm_rounds: cursor.u32()?,
        solver_micros: cursor.u64()?,
    })
}

fn encode_opt_u64(value: &Option<u64>, buf: &mut Vec<u8>) {
    match value {
        None => buf.push(0),
        Some(v) => {
            buf.push(1);
            buf.extend_from_slice(&v.to_be_bytes());
        }
    }
}

fn decode_opt_u64(cursor: &mut Cursor<'_>) -> Option<Option<u64>> {
    Some(match cursor.u8()? {
        0 => None,
        1 => Some(cursor.u64()?),
        _ => return None,
    })
}

fn encode_pairs(pairs: &[(ObjId, i64)], buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(pairs.len() as u32).to_be_bytes());
    for (obj, value) in pairs {
        encode_str(obj.as_str(), buf);
        buf.extend_from_slice(&value.to_be_bytes());
    }
}

fn decode_pairs(cursor: &mut Cursor<'_>) -> Option<Vec<(ObjId, i64)>> {
    let count = cursor.u32()? as usize;
    let mut pairs = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let obj = ObjId::new(decode_str(cursor)?);
        pairs.push((obj, cursor.i64()?));
    }
    Some(pairs)
}

fn encode_bundle(bundle: &ProgramBundle, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(bundle.sources.len() as u32).to_be_bytes());
    for source in &bundle.sources {
        encode_str(source, buf);
    }
    buf.extend_from_slice(&(bundle.loc_pairs.len() as u32).to_be_bytes());
    for (obj, site) in &bundle.loc_pairs {
        encode_str(obj.as_str(), buf);
        buf.extend_from_slice(&(*site as u64).to_be_bytes());
    }
    encode_opt_u64(&bundle.default_site.map(|s| s as u64), buf);
    buf.extend_from_slice(&(bundle.initial.len() as u32).to_be_bytes());
    for (obj, value) in &bundle.initial {
        encode_str(obj.as_str(), buf);
        buf.extend_from_slice(&value.to_be_bytes());
    }
    match &bundle.optimizer {
        None => buf.push(0),
        Some(cfg) => {
            buf.push(1);
            buf.extend_from_slice(&(cfg.lookahead as u64).to_be_bytes());
            buf.extend_from_slice(&(cfg.futures as u64).to_be_bytes());
            buf.extend_from_slice(&cfg.seed.to_be_bytes());
        }
    }
}

fn decode_bundle(cursor: &mut Cursor<'_>) -> Option<ProgramBundle> {
    let count = cursor.u32()? as usize;
    let mut sources = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        sources.push(decode_str(cursor)?);
    }
    let count = cursor.u32()? as usize;
    let mut loc_pairs = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let obj = ObjId::new(decode_str(cursor)?);
        loc_pairs.push((obj, cursor.u64()? as usize));
    }
    let default_site = decode_opt_u64(cursor)?.map(|s| s as usize);
    let count = cursor.u32()? as usize;
    let mut initial = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let obj = ObjId::new(decode_str(cursor)?);
        initial.push((obj, cursor.i64()?));
    }
    let optimizer = match cursor.u8()? {
        0 => None,
        1 => Some(OptimizerConfig {
            lookahead: cursor.u64()? as usize,
            futures: cursor.u64()? as usize,
            seed: cursor.u64()?,
        }),
        _ => return None,
    };
    Some(ProgramBundle {
        sources,
        loc_pairs,
        default_site,
        initial,
        optimizer,
    })
}

fn encode_op(op: &SiteOp, buf: &mut Vec<u8>) {
    match op {
        SiteOp::Order {
            obj,
            amount,
            refill_to,
        } => {
            buf.push(0);
            encode_str(obj.as_str(), buf);
            buf.extend_from_slice(&amount.to_be_bytes());
            match refill_to {
                None => buf.push(0),
                Some(r) => {
                    buf.push(1);
                    buf.extend_from_slice(&r.to_be_bytes());
                }
            }
        }
        SiteOp::Increment { obj, amount } => {
            buf.push(1);
            encode_str(obj.as_str(), buf);
            buf.extend_from_slice(&amount.to_be_bytes());
        }
        SiteOp::ForceSync { obj } => {
            buf.push(2);
            encode_str(obj.as_str(), buf);
        }
        SiteOp::Transaction { index } => {
            buf.push(3);
            buf.extend_from_slice(&(*index as u64).to_be_bytes());
        }
    }
}

fn decode_op(cursor: &mut Cursor<'_>) -> Option<SiteOp> {
    Some(match cursor.u8()? {
        0 => SiteOp::Order {
            obj: ObjId::new(decode_str(cursor)?),
            amount: cursor.i64()?,
            refill_to: match cursor.u8()? {
                0 => None,
                1 => Some(cursor.i64()?),
                _ => return None,
            },
        },
        1 => SiteOp::Increment {
            obj: ObjId::new(decode_str(cursor)?),
            amount: cursor.i64()?,
        },
        2 => SiteOp::ForceSync {
            obj: ObjId::new(decode_str(cursor)?),
        },
        3 => SiteOp::Transaction {
            index: cursor.u64()? as usize,
        },
        _ => return None,
    })
}

fn encode_kind(kind: &SyncKind, buf: &mut Vec<u8>) {
    match kind {
        SyncKind::Order { amount, refill_to } => {
            buf.push(0);
            buf.extend_from_slice(&amount.to_be_bytes());
            match refill_to {
                None => buf.push(0),
                Some(r) => {
                    buf.push(1);
                    buf.extend_from_slice(&r.to_be_bytes());
                }
            }
        }
        SyncKind::Pin => buf.push(1),
        SyncKind::Fold => buf.push(2),
        SyncKind::Proactive => buf.push(3),
        SyncKind::Handoff { members } => {
            buf.push(4);
            encode_members(members, buf);
        }
    }
}

fn decode_kind(cursor: &mut Cursor<'_>) -> Option<SyncKind> {
    Some(match cursor.u8()? {
        0 => SyncKind::Order {
            amount: cursor.i64()?,
            refill_to: match cursor.u8()? {
                0 => None,
                1 => Some(cursor.i64()?),
                _ => return None,
            },
        },
        1 => SyncKind::Pin,
        2 => SyncKind::Fold,
        3 => SyncKind::Proactive,
        4 => SyncKind::Handoff {
            members: decode_members(cursor)?,
        },
        _ => return None,
    })
}

fn encode_members(members: &[usize], buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(members.len() as u32).to_be_bytes());
    for m in members {
        buf.extend_from_slice(&(*m as u64).to_be_bytes());
    }
}

/// Member lists must arrive non-empty and strictly increasing — the worker
/// binary-searches them and indexes allowances by member position, so a
/// hostile or corrupted list is rejected at the codec.
fn decode_members(cursor: &mut Cursor<'_>) -> Option<Vec<usize>> {
    let count = cursor.u32()? as usize;
    if count == 0 {
        return None;
    }
    let mut members = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let m = cursor.u64()? as usize;
        if members.last().is_some_and(|last| *last >= m) {
            return None;
        }
        members.push(m);
    }
    Some(members)
}

fn encode_roster(roster: &Roster, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&roster.epoch.to_be_bytes());
    encode_members(&roster.members, buf);
}

fn decode_roster(cursor: &mut Cursor<'_>) -> Option<Roster> {
    Some(Roster {
        epoch: cursor.u64()?,
        members: decode_members(cursor)?,
    })
}

fn encode_strs(strs: &[String], buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(strs.len() as u32).to_be_bytes());
    for s in strs {
        encode_str(s, buf);
    }
}

fn decode_strs(cursor: &mut Cursor<'_>) -> Option<Vec<String>> {
    let count = cursor.u32()? as usize;
    let mut strs = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        strs.push(decode_str(cursor)?);
    }
    Some(strs)
}

fn encode_meta(meta: &CounterMeta, buf: &mut Vec<u8>) {
    encode_str(meta.obj.as_str(), buf);
    buf.extend_from_slice(&meta.base.to_be_bytes());
    buf.extend_from_slice(&meta.lower_bound.to_be_bytes());
    encode_members(&meta.members, buf);
    buf.extend_from_slice(&(meta.allowances.len() as u32).to_be_bytes());
    for a in &meta.allowances {
        buf.extend_from_slice(&a.to_be_bytes());
    }
}

fn decode_meta(cursor: &mut Cursor<'_>) -> Option<CounterMeta> {
    let obj = ObjId::new(decode_str(cursor)?);
    let base = cursor.i64()?;
    let lower_bound = cursor.i64()?;
    let members = decode_members(cursor)?;
    let count = cursor.u32()? as usize;
    // Allowances are indexed by member position; a length mismatch would
    // panic deep in the worker, so reject it at the codec.
    if count != members.len() {
        return None;
    }
    let mut allowances = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        allowances.push(cursor.i64()?);
    }
    Some(CounterMeta {
        obj,
        base,
        lower_bound,
        members,
        allowances,
    })
}

fn encode_str(s: &str, buf: &mut Vec<u8>) {
    let bytes = s.as_bytes();
    buf.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    buf.extend_from_slice(bytes);
}

fn decode_str(cursor: &mut Cursor<'_>) -> Option<String> {
    let len = cursor.u32()? as usize;
    String::from_utf8(cursor.take(len)?.to_vec()).ok()
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

    fn meta() -> CounterMeta {
        CounterMeta {
            obj: ObjId::new("stock[7]"),
            base: 100,
            lower_bound: 1,
            members: vec![0, 1, 2],
            allowances: vec![-33, -33, 0],
        }
    }

    fn roster() -> Roster {
        Roster {
            epoch: 4,
            members: vec![0, 2, 3],
        }
    }

    fn exemplars() -> Vec<Message> {
        vec![
            Message::Submit {
                ops: vec![SiteOp::Order {
                    obj: ObjId::new("stock[0]"),
                    amount: 3,
                    refill_to: Some(99),
                }],
            },
            Message::Submit {
                ops: vec![
                    SiteOp::Order {
                        obj: ObjId::new("stock[1]"),
                        amount: 1,
                        refill_to: None,
                    },
                    SiteOp::Increment {
                        obj: ObjId::new("balance[2]"),
                        amount: -7,
                    },
                    SiteOp::ForceSync {
                        obj: ObjId::new("neworder[1]"),
                    },
                    SiteOp::Transaction { index: 5 },
                ],
            },
            Message::Submit { ops: Vec::new() },
            Message::Register { meta: meta() },
            Message::SyncRequest {
                origin: 1,
                req: 17,
                obj: ObjId::new("stock[7]"),
                kind: SyncKind::Order {
                    amount: 2,
                    refill_to: Some(40),
                },
            },
            Message::SyncRequest {
                origin: 0,
                req: 18,
                obj: ObjId::new("stock[7]"),
                kind: SyncKind::Pin,
            },
            Message::SyncRequest {
                origin: 2,
                req: 19,
                obj: ObjId::new("stock[7]"),
                kind: SyncKind::Fold,
            },
            Message::SyncRequest {
                origin: 2,
                req: 20,
                obj: ObjId::new("stock[7]"),
                kind: SyncKind::Proactive,
            },
            Message::SyncRequest {
                origin: 0,
                req: 21,
                obj: ObjId::new("stock[7]"),
                kind: SyncKind::Handoff {
                    members: vec![0, 1, 2, 3],
                },
            },
            Message::DeltaRequest {
                sync: 4,
                obj: ObjId::new("stock[7]"),
            },
            Message::DeltaReply {
                sync: 4,
                obj: ObjId::new("stock[7]"),
                delta: -12,
            },
            Message::Install {
                sync: 4,
                meta: meta(),
                apply: true,
            },
            Message::Install {
                sync: 5,
                meta: meta(),
                apply: false,
            },
            Message::InstallAck {
                sync: 4,
                obj: ObjId::new("stock[7]"),
            },
            Message::SyncDone {
                req: 17,
                refilled: true,
                solver_micros: 250,
                folded: true,
            },
            Message::StateRequest,
            Message::StateReply {
                counters: vec![meta(), meta()],
                roster: roster(),
            },
            Message::StateReply {
                counters: Vec::new(),
                roster: Roster::founding(2),
            },
            Message::Hello { peer: 2, epoch: 9 },
            Message::Hello {
                peer: CLIENT_PEER,
                epoch: 0,
            },
            Message::Seed { meta: meta() },
            Message::SeedAck {
                obj: ObjId::new("stock[7]"),
            },
            Message::PollRequest,
            Message::PollReply {
                outcomes: vec![
                    OpOutcome::local_commit(),
                    OpOutcome::synchronized(true, 77),
                    OpOutcome::default(),
                    OpOutcome::unsupported(),
                ],
            },
            Message::SyncAllRequest,
            Message::SyncAllReply { solver_micros: 12 },
            Message::StatsRequest,
            Message::StatsReply {
                stats: ReplicatedStats {
                    local_commits: 5,
                    synchronizations: 2,
                    negotiations: 3,
                    proactive_negotiations: 1,
                    solver_micros_total: 640,
                },
            },
            Message::MetricsRequest,
            Message::MetricsReply {
                text: "# TYPE homeo_local_commits_total counter\nhomeo_local_commits_total 5\n"
                    .to_string(),
            },
            Message::MetricsReply {
                text: String::new(),
            },
            Message::RegisterProgram {
                bundle: ProgramBundle {
                    sources: vec![
                        "txn order { qty := read(stock[1]); write(stock[1] = qty - 1); }"
                            .to_string(),
                    ],
                    loc_pairs: vec![(ObjId::new("stock[1]"), 0), (ObjId::new("stock[2]"), 1)],
                    default_site: Some(0),
                    initial: vec![(ObjId::new("stock[1]"), 100), (ObjId::new("stock[2]"), -3)],
                    optimizer: Some(OptimizerConfig {
                        lookahead: 20,
                        futures: 3,
                        seed: 7,
                    }),
                },
            },
            Message::RegisterProgram {
                bundle: ProgramBundle {
                    sources: Vec::new(),
                    loc_pairs: Vec::new(),
                    default_site: None,
                    initial: Vec::new(),
                    optimizer: None,
                },
            },
            Message::ProgramAck { count: 4 },
            Message::ProgramSync {
                req: 23,
                txn: Some(2),
            },
            Message::ProgramSync { req: 24, txn: None },
            Message::ProgramCollect { sync: 9 },
            Message::ProgramDeltas {
                sync: 9,
                values: vec![(ObjId::new("x"), 10), (ObjId::new("y"), -4)],
            },
            Message::ProgramDeltas {
                sync: 10,
                values: Vec::new(),
            },
            Message::ProgramInstall {
                sync: 9,
                txn: Some(2),
                round: 6,
                db: vec![(ObjId::new("x"), 9), (ObjId::new("y"), -4)],
            },
            Message::ProgramInstall {
                sync: 10,
                txn: None,
                round: 7,
                db: Vec::new(),
            },
            Message::ProgramInstallAck { sync: 9 },
            Message::JoinRequest {
                site: 3,
                addr: "127.0.0.1:7844".to_string(),
                expected_epoch: Some(4),
            },
            Message::JoinRequest {
                site: 5,
                addr: String::new(),
                expected_epoch: None,
            },
            Message::JoinAck {
                ok: true,
                roster: roster(),
                addrs: vec![
                    "127.0.0.1:7841".to_string(),
                    String::new(),
                    "127.0.0.1:7843".to_string(),
                    "127.0.0.1:7844".to_string(),
                ],
                program: Some((
                    ProgramBundle {
                        sources: vec!["txn t { x := read(a); write(a = x - 1); }".to_string()],
                        loc_pairs: vec![(ObjId::new("a"), 0)],
                        default_site: None,
                        initial: vec![(ObjId::new("a"), 10)],
                        optimizer: None,
                    },
                    3,
                )),
            },
            Message::JoinAck {
                ok: false,
                roster: Roster::founding(3),
                addrs: Vec::new(),
                program: None,
            },
            Message::Leave { site: 1 },
            Message::MembershipInstall {
                roster: roster(),
                addrs: vec![String::new(), String::new(), String::new(), String::new()],
            },
        ]
    }

    #[test]
    fn hostile_member_lists_are_rejected() {
        // Unsorted or duplicated member lists and allowance/member length
        // mismatches must fail decode, not panic in the worker.
        let good = Message::MembershipInstall {
            roster: roster(),
            addrs: Vec::new(),
        }
        .encode();
        // The roster's members start at byte 4 (prefix) + 1 (tag) + 8
        // (epoch) + 4 (count); flip the first two member ids out of order.
        let mut unsorted = good.clone();
        unsorted[4 + 1 + 8 + 4 + 7] = 9; // members become [9, 2, 3]
        assert_eq!(Message::decode(&unsorted), Err(CodecError::Malformed));
        let mut duplicated = good;
        duplicated[4 + 1 + 8 + 4 + 15] = 0; // members become [0, 0, 3]
        assert_eq!(Message::decode(&duplicated), Err(CodecError::Malformed));
        let mut mismatched = meta();
        mismatched.allowances.pop();
        let frame = Message::Register { meta: mismatched }.encode();
        assert_eq!(Message::decode(&frame), Err(CodecError::Malformed));
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in exemplars() {
            let frame = msg.encode();
            let decoded = Message::decode(&frame).unwrap_or_else(|e| panic!("decode {msg:?}: {e}"));
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn encode_into_reuses_the_scratch_and_matches_encode() {
        let mut scratch = Vec::new();
        for msg in exemplars() {
            let frame = msg.encode_into(&mut scratch);
            assert_eq!(frame, msg.encode());
            assert_eq!(Message::decode(&frame), Ok(msg));
        }
        // The scratch retains its capacity across frames (that is the
        // point), and holds the last frame's bytes.
        assert!(scratch.capacity() > 0);
    }

    #[test]
    fn encode_submit_into_matches_the_owned_encoding() {
        let ops = vec![
            SiteOp::Order {
                obj: ObjId::new("stock[3]"),
                amount: 2,
                refill_to: None,
            },
            SiteOp::Transaction { index: 1 },
        ];
        let mut scratch = Vec::new();
        let frame = Message::encode_submit_into(&ops, &mut scratch);
        assert_eq!(frame, Message::Submit { ops }.encode());
        let empty = Message::encode_submit_into(&[], &mut scratch);
        assert_eq!(empty, Message::Submit { ops: Vec::new() }.encode());
    }

    #[test]
    fn frames_are_length_prefixed() {
        let frame = Message::StateRequest.encode();
        assert_eq!(frame.len(), 5);
        assert_eq!(u32::from_be_bytes(frame[..4].try_into().unwrap()), 1);
    }

    #[test]
    fn truncated_and_padded_frames_are_rejected() {
        for msg in exemplars() {
            let frame = msg.encode();
            for cut in 0..frame.len() {
                assert!(
                    Message::decode(&frame[..cut]).is_err(),
                    "truncation at {cut} of {msg:?} decoded"
                );
            }
            let mut padded = frame.clone();
            padded.push(0);
            assert_eq!(
                Message::decode(&padded),
                Err(CodecError::Malformed),
                "padding accepted"
            );
        }
        assert_eq!(Message::decode(&[]), Err(CodecError::Truncated));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let frame = vec![0, 0, 0, 1, 99];
        assert_eq!(Message::decode(&frame), Err(CodecError::Malformed));
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_without_allocation() {
        // A hostile prefix claiming a 4 GiB body must fail before anything
        // is buffered against it — both on a complete slice and in the
        // streaming assembler (which only has the 4 prefix bytes).
        let mut frame = (u32::MAX).to_be_bytes().to_vec();
        frame.push(0);
        assert_eq!(
            Message::decode(&frame),
            Err(CodecError::Oversized {
                len: u32::MAX as usize
            })
        );
        let mut asm = FrameAssembler::new();
        asm.push(&(u32::MAX).to_be_bytes());
        assert_eq!(
            asm.next_message(),
            Err(CodecError::Oversized {
                len: u32::MAX as usize
            })
        );
    }

    #[test]
    fn assembler_reassembles_frames_from_arbitrary_chunks() {
        // Concatenate every exemplar frame into one byte stream, then feed
        // it to the assembler split at seeded random boundaries — including
        // splits inside length prefixes — and check the exact message
        // sequence comes back out, for many different tearings.
        let msgs = exemplars();
        let stream: Vec<u8> = msgs.iter().flat_map(Message::encode).collect();
        let mut rng = homeo_sim::DetRng::seed_from(0x7EA5);
        for _ in 0..200 {
            let mut asm = FrameAssembler::new();
            let mut decoded = Vec::new();
            let mut pos = 0;
            while pos < stream.len() {
                let take = 1 + rng.index(17.min(stream.len() - pos));
                asm.push(&stream[pos..pos + take]);
                pos += take;
                while let Some(msg) = asm.next_message().expect("well-formed stream") {
                    decoded.push(msg);
                }
            }
            assert_eq!(decoded, msgs);
            assert_eq!(asm.pending(), 0);
        }
    }

    #[test]
    fn assembler_surfaces_garbage_as_a_codec_error() {
        // A stream that frames correctly but carries a bogus body errors at
        // the message layer; the caller closes the connection.
        let mut asm = FrameAssembler::new();
        asm.push(&[0, 0, 0, 2, 99, 99]);
        assert_eq!(asm.next_message(), Err(CodecError::Malformed));
    }
}
