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
//!
//! The `wire!` table below is the codec: it declares each variant's tag and
//! fields once and generates both directions from them. A new frame is one
//! table row plus one entry in the tests' `exemplars()`, which must cover
//! every tag and pins every exemplar's bytes.

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
        frame_into(scratch, |buf| {
            buf.push(SUBMIT_TAG);
            put_slice(ops, buf);
        })
    }

    /// [`Message::encode`] through a reusable per-connection scratch buffer:
    /// the frame is assembled in `scratch` (cleared first, capacity kept
    /// across calls) and the returned `Vec` is one exact-size allocation of
    /// the finished frame. Encoding a stream of frames through one scratch
    /// buffer avoids the per-frame body allocation and its growth
    /// reallocations — the hot path for every transport connection.
    pub fn encode_into(&self, scratch: &mut Vec<u8>) -> Vec<u8> {
        frame_into(scratch, |buf| self.put(buf))
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
        let len = u32::get(&mut cursor).ok_or(CodecError::Truncated)? as usize;
        if len > MAX_FRAME_LEN {
            return Err(CodecError::Oversized { len });
        }
        if frame.len() < 4 + len {
            return Err(CodecError::Truncated);
        }
        if frame.len() > 4 + len {
            return Err(CodecError::Malformed);
        }
        let msg = Self::get(&mut cursor).ok_or(CodecError::Malformed)?;
        if cursor.pos == frame.len() {
            Ok(msg)
        } else {
            Err(CodecError::Malformed)
        }
    }
}

/// Assembles one frame in `scratch` — a `u32` length prefix, then whatever
/// `body` writes — and returns it as one exact-size allocation.
fn frame_into(scratch: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    scratch.clear();
    scratch.extend_from_slice(&[0u8; 4]);
    body(scratch);
    let len = (scratch.len() - 4) as u32;
    scratch[..4].copy_from_slice(&len.to_be_bytes());
    scratch.as_slice().to_vec()
}

/// A value with exactly one wire encoding: `get` accepts the bytes `put`
/// writes and nothing else, so every frame that decodes re-encodes to
/// itself.
trait Wire: Sized {
    /// An enum's variant tags, in table order (empty for other types).
    #[cfg(test)]
    const TAGS: &'static [u8] = &[];

    fn put(&self, buf: &mut Vec<u8>);
    fn get(cursor: &mut Cursor<'_>) -> Option<Self>;
}

/// Declares the wire form of enums (one tag byte, then the variant's fields
/// in order) and of structs (the fields in order). A row may end in a
/// condition over some of its decoded fields, `if |field, ..| condition`:
/// a frame that breaks it is malformed. A tag row may also name the tag as
/// a constant (`tag as NAME`).
macro_rules! wire {
    () => {};
    (enum $ty:ident {
        $($tag:literal $(as $name:ident)? => $var:ident { $($field:ident),* }
            $(if |$($cf:ident),*| $check:expr)?,)*
    } $($rest:tt)*) => {
        $($(const $name: u8 = $tag;)?)*
        impl Wire for $ty {
            #[cfg(test)]
            const TAGS: &'static [u8] = &[$($tag),*];

            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $(Self::$var { $($field),* } => {
                        buf.push($tag);
                        $($field.put(buf);)*
                    })*
                }
            }
            fn get(cursor: &mut Cursor<'_>) -> Option<Self> {
                let value = match u8::get(cursor)? {
                    $($tag => Self::$var { $($field: Wire::get(cursor)?),* },)*
                    _ => return None,
                };
                match &value {
                    $($(Self::$var { $($cf,)* .. } if !$check => None,)?)*
                    _ => Some(value),
                }
            }
        }
        wire!($($rest)*);
    };
    (struct $ty:ident { $($field:ident),* } $(if |$($cf:ident),*| $check:expr)?; $($rest:tt)*) => {
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                let Self { $($field),* } = self;
                $($field.put(buf);)*
            }
            fn get(cursor: &mut Cursor<'_>) -> Option<Self> {
                let value = Self { $($field: Wire::get(cursor)?),* };
                $(
                    let Self { $($cf,)* .. } = &value;
                    if !$check {
                        return None;
                    }
                )?
                Some(value)
            }
        }
        wire!($($rest)*);
    };
}

wire! {
    enum Message {
        0 as SUBMIT_TAG => Submit { ops },
        1 => Register { meta },
        2 => SyncRequest { origin, req, obj, kind },
        3 => DeltaRequest { sync, obj },
        4 => DeltaReply { sync, obj, delta },
        5 => Install { sync, meta, apply },
        6 => InstallAck { sync, obj },
        7 => SyncDone { req, refilled, solver_micros, folded },
        8 => StateRequest {},
        9 => StateReply { counters, roster },
        10 => Hello { peer, epoch },
        11 => Seed { meta },
        12 => SeedAck { obj },
        13 => PollRequest {},
        14 => PollReply { outcomes },
        15 => SyncAllRequest {},
        16 => SyncAllReply { solver_micros },
        17 => StatsRequest {},
        18 => StatsReply { stats },
        19 => MetricsRequest {},
        20 => MetricsReply { text },
        21 => RegisterProgram { bundle },
        22 => ProgramAck { count },
        23 => ProgramSync { req, txn },
        24 => ProgramCollect { sync },
        25 => ProgramDeltas { sync, values },
        26 => ProgramInstall { sync, txn, round, db },
        27 => ProgramInstallAck { sync },
        28 => JoinRequest { site, addr, expected_epoch },
        29 => JoinAck { ok, roster, addrs, program },
        30 => Leave { site },
        31 => MembershipInstall { roster, addrs },
    }

    enum SiteOp {
        0 => Order { obj, amount, refill_to },
        1 => Increment { obj, amount },
        2 => ForceSync { obj },
        3 => Transaction { index },
    }

    enum SyncKind {
        0 => Order { amount, refill_to },
        1 => Pin {},
        2 => Fold {},
        3 => Proactive {},
        4 => Handoff { members } if |members| ascending(members),
    }

    // Allowances are indexed by member position; a length mismatch would
    // panic deep in the worker, so it is rejected here.
    struct CounterMeta { obj, base, lower_bound, members, allowances }
        if |members, allowances| ascending(members) && allowances.len() == members.len();
    struct Roster { epoch, members } if |members| ascending(members);
    struct ProgramBundle { sources, loc_pairs, default_site, initial, optimizer };
    struct OptimizerConfig { lookahead, futures, seed };
    struct ReplicatedStats {
        local_commits, synchronizations, negotiations, proactive_negotiations, solver_micros_total
    };
}

/// Member lists must arrive non-empty and strictly increasing — the worker
/// binary-searches them and indexes allowances by member position, so a
/// hostile or corrupted list is rejected at the codec.
fn ascending(members: &[usize]) -> bool {
    !members.is_empty() && members.windows(2).all(|pair| pair[0] < pair[1])
}

/// Four flag bits, then the round count and the solver time.
impl Wire for OpOutcome {
    fn put(&self, buf: &mut Vec<u8>) {
        let flags = u8::from(self.committed)
            | (u8::from(self.synchronized) << 1)
            | (u8::from(self.refilled) << 2)
            | (u8::from(self.unsupported) << 3);
        buf.push(flags);
        self.comm_rounds.put(buf);
        self.solver_micros.put(buf);
    }

    fn get(cursor: &mut Cursor<'_>) -> Option<Self> {
        let flags = u8::get(cursor)?;
        if flags > 0b1111 {
            return None;
        }
        Some(OpOutcome {
            committed: flags & 1 != 0,
            synchronized: flags & 2 != 0,
            refilled: flags & 4 != 0,
            unsupported: flags & 8 != 0,
            comm_rounds: u32::get(cursor)?,
            solver_micros: u64::get(cursor)?,
        })
    }
}

macro_rules! wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_be_bytes());
            }
            fn get(cursor: &mut Cursor<'_>) -> Option<Self> {
                cursor.array().map(<$ty>::from_be_bytes)
            }
        }
    )*};
}

wire_int!(u8, u32, u64, i64);

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn get(cursor: &mut Cursor<'_>) -> Option<Self> {
        match u8::get(cursor)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// Site ids, indices and sizes travel as `u64`.
impl Wire for usize {
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u64).put(buf);
    }

    fn get(cursor: &mut Cursor<'_>) -> Option<Self> {
        usize::try_from(u64::get(cursor)?).ok()
    }
}

impl Wire for String {
    fn put(&self, buf: &mut Vec<u8>) {
        put_str(self, buf);
    }

    fn get(cursor: &mut Cursor<'_>) -> Option<Self> {
        get_str(cursor).map(str::to_owned)
    }
}

impl Wire for ObjId {
    fn put(&self, buf: &mut Vec<u8>) {
        put_str(self.as_str(), buf);
    }

    fn get(cursor: &mut Cursor<'_>) -> Option<Self> {
        get_str(cursor).map(ObjId::new)
    }
}

fn put_str(s: &str, buf: &mut Vec<u8>) {
    (s.len() as u32).put(buf);
    buf.extend_from_slice(s.as_bytes());
}

fn get_str<'a>(cursor: &mut Cursor<'a>) -> Option<&'a str> {
    let len = u32::get(cursor)? as usize;
    std::str::from_utf8(cursor.take(len)?).ok()
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_slice(self, buf);
    }

    fn get(cursor: &mut Cursor<'_>) -> Option<Self> {
        let count = u32::get(cursor)? as usize;
        // The count is untrusted: reserve at most 64 Ki elements up front.
        let mut items = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            items.push(T::get(cursor)?);
        }
        Some(items)
    }
}

fn put_slice<T: Wire>(items: &[T], buf: &mut Vec<u8>) {
    (items.len() as u32).put(buf);
    for item in items {
        item.put(buf);
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        self.is_some().put(buf);
        if let Some(value) = self {
            value.put(buf);
        }
    }

    fn get(cursor: &mut Cursor<'_>) -> Option<Self> {
        if bool::get(cursor)? {
            T::get(cursor).map(Some)
        } else {
            Some(None)
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }

    fn get(cursor: &mut Cursor<'_>) -> Option<Self> {
        Some((A::get(cursor)?, B::get(cursor)?))
    }
}

/// A bounds-checked reader over a byte slice.
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

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)
            .map(|s| s.try_into().expect("take returns exactly N bytes"))
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

    /// Every [`exemplars`] frame, in order, as hex. Frames are what sites
    /// of different builds exchange, so no codec change may move a byte of
    /// them.
    const GOLDEN: [&str; 48] = [
        "000000230000000001000000000873746f636b5b305d0000000000000003010000000000000063",
        "0000004b0000000004000000000873746f636b5b315d000000000000000100010000000a62616c616e63655b325dfffffffffffffff9020000000b6e65776f726465725b315d030000000000000005",
        "000000050000000000",
        "00000055010000000873746f636b5b375d000000000000006400000000000000010000000300000000000000000000000000000001000000000000000200000003ffffffffffffffdfffffffffffffffdf0000000000000000",
        "0000002f02000000000000000100000000000000110000000873746f636b5b375d000000000000000002010000000000000028",
        "0000001e02000000000000000000000000000000120000000873746f636b5b375d01",
        "0000001e02000000000000000200000000000000130000000873746f636b5b375d02",
        "0000001e02000000000000000200000000000000140000000873746f636b5b375d03",
        "0000004202000000000000000000000000000000150000000873746f636b5b375d04000000040000000000000000000000000000000100000000000000020000000000000003",
        "000000150300000000000000040000000873746f636b5b375d",
        "0000001d0400000000000000040000000873746f636b5b375dfffffffffffffff4",
        "0000005e0500000000000000040000000873746f636b5b375d000000000000006400000000000000010000000300000000000000000000000000000001000000000000000200000003ffffffffffffffdfffffffffffffffdf000000000000000001",
        "0000005e0500000000000000050000000873746f636b5b375d000000000000006400000000000000010000000300000000000000000000000000000001000000000000000200000003ffffffffffffffdfffffffffffffffdf000000000000000000",
        "000000150600000000000000040000000873746f636b5b375d",
        "000000130700000000000000110100000000000000fa01",
        "0000000108",
        "000000d109000000020000000873746f636b5b375d000000000000006400000000000000010000000300000000000000000000000000000001000000000000000200000003ffffffffffffffdfffffffffffffffdf00000000000000000000000873746f636b5b375d000000000000006400000000000000010000000300000000000000000000000000000001000000000000000200000003ffffffffffffffdfffffffffffffffdf0000000000000000000000000000000400000003000000000000000000000000000000020000000000000003",
        "00000021090000000000000000000000000000000200000000000000000000000000000001",
        "000000110a00000000000000020000000000000009",
        "000000110affffffffffffffff0000000000000000",
        "000000550b0000000873746f636b5b375d000000000000006400000000000000010000000300000000000000000000000000000001000000000000000200000003ffffffffffffffdfffffffffffffffdf0000000000000000",
        "0000000d0c0000000873746f636b5b375d",
        "000000010d",
        "000000390e00000004010000000000000000000000000700000002000000000000004d0000000000000000000000000008000000000000000000000000",
        "000000010f",
        "0000000910000000000000000c",
        "0000000111",
        "000000291200000000000000050000000000000002000000000000000300000000000000010000000000000280",
        "0000000113",
        "0000004a140000004523205459504520686f6d656f5f6c6f63616c5f636f6d6d6974735f746f74616c20636f756e7465720a686f6d656f5f6c6f63616c5f636f6d6d6974735f746f74616c20350a",
        "000000051400000000",
        "000000c215000000010000003f74786e206f72646572207b20717479203a3d20726561642873746f636b5b315d293b2077726974652873746f636b5b315d203d20717479202d2031293b207d000000020000000873746f636b5b315d00000000000000000000000873746f636b5b325d0000000000000001010000000000000000000000020000000873746f636b5b315d00000000000000640000000873746f636b5b325dfffffffffffffffd01000000000000001400000000000000030000000000000007",
        "0000000f150000000000000000000000000000",
        "00000009160000000000000004",
        "00000012170000000000000017010000000000000002",
        "0000000a17000000000000001800",
        "00000009180000000000000009",
        "00000027190000000000000009000000020000000178000000000000000a0000000179fffffffffffffffc",
        "0000000d19000000000000000a00000000",
        "000000381a0000000000000009010000000000000002000000000000000600000002000000017800000000000000090000000179fffffffffffffffc",
        "000000161a000000000000000a00000000000000000700000000",
        "000000091b0000000000000009",
        "000000241c00000000000000030000000e3132372e302e302e313a37383434010000000000000004",
        "0000000e1c00000000000000050000000000",
        "000000c21d01000000000000000400000003000000000000000000000000000000020000000000000003000000040000000e3132372e302e302e313a37383431000000000000000e3132372e302e302e313a373834330000000e3132372e302e302e313a3738343401000000010000002974786e2074207b2078203a3d20726561642861293b2077726974652861203d2078202d2031293b207d000000010000000161000000000000000000000000010000000161000000000000000a000000000000000003",
        "0000002b1d000000000000000000000000030000000000000000000000000000000100000000000000020000000000",
        "000000091e0000000000000001",
        "000000391f0000000000000004000000030000000000000000000000000000000200000000000000030000000400000000000000000000000000000000",
    ];

    #[test]
    fn every_exemplar_encodes_to_its_golden_frame() {
        let msgs = exemplars();
        assert_eq!(msgs.len(), GOLDEN.len());
        for (msg, golden) in msgs.iter().zip(GOLDEN) {
            let hex: String = msg.encode().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, golden, "{msg:?}");
        }
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
        // The same rule holds for the handoff's target members and for the
        // rosters that ride in state replies and join acks.
        for members in [vec![1, 0, 2], vec![0, 0, 3], Vec::new()] {
            let hostile = [
                Message::SyncRequest {
                    origin: 0,
                    req: 21,
                    obj: ObjId::new("stock[7]"),
                    kind: SyncKind::Handoff {
                        members: members.clone(),
                    },
                },
                Message::StateReply {
                    counters: vec![meta()],
                    roster: Roster {
                        epoch: 4,
                        members: members.clone(),
                    },
                },
                Message::JoinAck {
                    ok: true,
                    roster: Roster { epoch: 4, members },
                    addrs: Vec::new(),
                    program: None,
                },
            ];
            for msg in hostile {
                assert_eq!(
                    Message::decode(&msg.encode()),
                    Err(CodecError::Malformed),
                    "{msg:?}"
                );
            }
        }
    }

    #[test]
    fn booleans_other_than_zero_or_one_are_rejected() {
        let mut frame = Message::SyncDone {
            req: 17,
            refilled: true,
            solver_micros: 250,
            folded: false,
        }
        .encode();
        // `refilled` follows the prefix, the tag and the `u64` request id.
        frame[4 + 1 + 8] = 2;
        assert_eq!(Message::decode(&frame), Err(CodecError::Malformed));
    }

    #[test]
    fn the_tag_table_is_dense_and_every_tag_has_an_exemplar() {
        for tags in [Message::TAGS, SiteOp::TAGS, SyncKind::TAGS] {
            let mut sorted = tags.to_vec();
            sorted.sort_unstable();
            let dense: Vec<u8> = (0..tags.len() as u8).collect();
            assert_eq!(sorted, dense, "tags {tags:?} are not 0..{}", tags.len());
        }
        let mut covered: Vec<u8> = exemplars().iter().map(|msg| msg.encode()[4]).collect();
        covered.sort_unstable();
        covered.dedup();
        let mut tags = Message::TAGS.to_vec();
        tags.sort_unstable();
        assert_eq!(covered, tags, "a frame tag has no entry in exemplars()");
    }

    /// One seeded corruption of a well-formed frame.
    fn mutate(frame: &[u8], rng: &mut homeo_sim::DetRng) -> Vec<u8> {
        let mut bytes = frame.to_vec();
        let at = rng.index(bytes.len());
        match rng.index(5) {
            0 => bytes[at] ^= 1 << rng.index(8),
            1 => bytes[at] = rng.next_u64() as u8,
            2 => bytes.truncate(at),
            3 => bytes.insert(at, rng.next_u64() as u8),
            _ => {
                // Near the true length most of the time, so the body still
                // gets parsed; anything at all otherwise.
                let len = if rng.chance(0.8) {
                    (bytes.len() as i64 - 4 + rng.int_inclusive(-3, 3)).max(0) as u32
                } else {
                    rng.next_u64() as u32
                };
                bytes[..4].copy_from_slice(&len.to_be_bytes());
            }
        }
        bytes
    }

    #[test]
    fn mutated_frames_fail_cleanly_or_round_trip_exactly() {
        // Whatever a corrupted frame decodes to must re-encode to exactly
        // its bytes (the codec is canonical), and nothing may panic — both
        // for a frame decoded whole and for one pulled from a stream.
        let mut rng = homeo_sim::DetRng::seed_from(0xC0DEC);
        for msg in exemplars() {
            let frame = msg.encode();
            for _ in 0..2000 {
                let mutated = mutate(&frame, &mut rng);
                if let Ok(decoded) = Message::decode(&mutated) {
                    assert_eq!(decoded.encode(), mutated, "{decoded:?}");
                }
                let mut asm = FrameAssembler::new();
                asm.push(&mutated);
                asm.push(&frame);
                while let Ok(Some(pulled)) = asm.next_frame() {
                    if let Ok(decoded) = Message::decode(&pulled) {
                        assert_eq!(decoded.encode(), pulled, "{decoded:?}");
                    }
                }
            }
        }
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
