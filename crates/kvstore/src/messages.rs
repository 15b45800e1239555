//! The store's wire protocol, generic over the causality mechanism. The
//! byte layout is described for outsiders in `doc/wire_format.md`.

use dvv::encode::{
    get_key_delta, put_key_delta, put_varint, Count, Decoder, Encode, Sink, StateLayout,
};
use dvv::mechanisms::{Mechanism, WireMechanism};
use dvv::{DecodeError, ReplicaId};
use ring::RingView;

use crate::value::{Key, StampedValue};
use crate::wire;

/// Request identifier: unique per originating client (`node_id << 32 |
/// sequence`, where `node_id` is the client's own node id on its host),
/// echoed through coordinator and replica traffic.
pub type ReqId = u64;

/// Every message exchanged in the store.
///
/// The client-facing messages carry mechanism *contexts*; the replica
/// traffic carries whole per-key *states* (Riak ships full objects on
/// write replication and read repair) — except on the read leg, where a
/// replica that holds what the coordinator holds says so in nine bytes
/// ([`Msg::RepGetIf`] / [`Msg::RepGetSame`]). Anti-entropy exchanges
/// Merkle summaries before any state.
#[derive(Clone, Debug)]
pub enum Msg<M: Mechanism<StampedValue>> {
    /// Client → coordinator: read `key`.
    ClientGet {
        /// Request id.
        req: ReqId,
        /// Key to read.
        key: Key,
        /// Digest of the ring view the sender routed under; a
        /// coordinator whose own digest differs pushes its full view
        /// ([`Msg::RingEpoch`]) so the two views merge, and serves the
        /// request under its own (possibly stale) view meanwhile.
        digest: u64,
    },
    /// Coordinator → client: read result (all siblings + context).
    ClientGetResp {
        /// Request id.
        req: ReqId,
        /// Whether a read quorum was assembled.
        ok: bool,
        /// Sibling values.
        values: Vec<StampedValue>,
        /// Causal context to echo on the next write.
        ctx: M::Context,
    },
    /// Client → coordinator: write `payload` under `key` with the causal
    /// context from the client's last read.
    ClientPut {
        /// Request id.
        req: ReqId,
        /// Key to write.
        key: Key,
        /// The stamped value to store.
        value: StampedValue,
        /// Context from the client's last read of this key.
        ctx: M::Context,
        /// Digest of the sender's ring view (see [`Msg::ClientGet`]).
        digest: u64,
    },
    /// Coordinator → client: write result (`return_body` semantics: the
    /// post-write sibling set and context).
    ClientPutResp {
        /// Request id.
        req: ReqId,
        /// Whether a write quorum was assembled.
        ok: bool,
        /// Post-write sibling values at the coordinator.
        values: Vec<StampedValue>,
        /// Post-write causal context.
        ctx: M::Context,
    },
    /// Coordinator → replica: read `key`'s full state. Answered in full;
    /// coordinators send [`Msg::RepGetIf`] instead.
    RepGet {
        /// Request id.
        req: ReqId,
        /// Key to read.
        key: Key,
    },
    /// Replica → coordinator: the replica's state for `key`.
    RepGetResp {
        /// Request id.
        req: ReqId,
        /// Key read.
        key: Key,
        /// Full per-key state.
        state: M::State,
    },
    /// Coordinator → replica: conditional read — send `key`'s state only
    /// if it differs from the one the coordinator starts the quorum with.
    /// The replica leg of every GET: a replica in sync answers
    /// [`Msg::RepGetSame`], any other one [`Msg::RepGetResp`].
    RepGetIf {
        /// Request id.
        req: ReqId,
        /// Key to read.
        key: Key,
        /// Fingerprint ([`crate::merkle::fingerprint`]) of the state the
        /// coordinator already holds: its own copy, or the empty state
        /// when it holds none.
        have: u64,
    },
    /// Replica → coordinator: the replica's state for the key hashes to
    /// the `have` of the [`Msg::RepGetIf`] it answers — nothing to ship.
    RepGetSame {
        /// Request id.
        req: ReqId,
    },
    /// Coordinator → replica: replicate the updated state of `key`.
    RepPut {
        /// Request id.
        req: ReqId,
        /// Key written.
        key: Key,
        /// Full post-write state to merge.
        state: M::State,
        /// When the receiver is a fallback, the down replica it stands in
        /// for (hinted handoff).
        hint: Option<ReplicaId>,
    },
    /// Replica → coordinator: replication applied.
    RepPutAck {
        /// Request id.
        req: ReqId,
    },
    /// States for the receiver to merge, outside the quorum legs — the
    /// paper's `sync` under four triggers, told apart by `class`: read
    /// repair (`Replication`), the answer to [`Msg::AaeStates`]' `want`
    /// (`AntiEntropy`), a range transfer (`Transfer`: a current owner, or
    /// a leaving node draining, streams ranges that changed owners) and
    /// hinted handoff (`Handoff`). Merging is monotone, so the receiver
    /// applies a push regardless of how its ring view has moved meanwhile
    /// — refusing one could lose data (the sender drops its copy after
    /// the ack).
    Push {
        /// The ledger the sender charges; the receiver acks in it.
        class: MsgClass,
        /// `Some` when the sender wants a [`Msg::PushAck`] (transfers
        /// and handoffs): unique per sender incarnation, kept by resends.
        id: Option<u64>,
        /// The pushed `(key, state)` pairs.
        entries: Vec<(Key, M::State)>,
        /// When the receiver is a sloppy-quorum fallback, the down
        /// replica it stands in for — recorded as an obligation so the
        /// copies are handed off and retired rather than lingering
        /// untracked (mirrors [`Msg::RepPut`]).
        hint: Option<ReplicaId>,
    },
    /// Push receiver → sender: every entry of push `id` was merged.
    PushAck {
        /// The acknowledged push's class.
        class: MsgClass,
        /// The acknowledged push id.
        id: u64,
    },
    /// Anti-entropy round 1: initiator's Merkle root, with the sender's
    /// ring-view digest piggybacked as a gossip digest.
    AaeRoot {
        /// Root hash over the keys both ends replicate.
        root: u64,
        /// The sender's ring-view digest (gossip piggyback): a receiver
        /// whose digest differs pushes its full view so the two merge.
        digest: u64,
    },
    /// Anti-entropy arc reconciliation: on a shared-root mismatch the
    /// responder recurses into the per-arc Merkle roots instead of
    /// shipping every leaf. Arc indices are positions in the ring's
    /// token order, so both ends must hold identical views — the digest
    /// guards the exchange, and a mismatch aborts it (the next AAE tick
    /// retries after the views converge).
    AaeArcRoots {
        /// `(arc index, arc root)` for every shared arc with data.
        arcs: Vec<(u32, u64)>,
        /// The sender's ring-view digest: scope guard + gossip piggyback.
        digest: u64,
    },
    /// Anti-entropy leaf exchange: the initiator's answer to
    /// [`Msg::AaeArcRoots`], scoped to the shared arcs whose roots
    /// differed.
    AaeLeaves {
        /// `(key, leaf hash)` pairs of the sender's keys in `arcs`.
        leaves: Vec<(Key, u64)>,
        /// The differing arcs, sorted: the receiver diffs `leaves`
        /// against its own leaves in the same arcs. Arc indices are only
        /// meaningful under identical views (see `digest`).
        arcs: Vec<u32>,
        /// The sender's ring-view digest: gossip piggyback, and the
        /// validity guard for the arc indices.
        digest: u64,
    },
    /// Anti-entropy round 3: initiator pushes its divergent states and
    /// names the keys it wants back, which the responder [`Msg::Push`]es.
    AaeStates {
        /// States the initiator believes the peer lacks.
        states: Vec<(Key, M::State)>,
        /// Keys the initiator wants the peer's state for.
        want: Vec<Key>,
    },
    /// Ring-view push: the sender's full mergeable view, sent to any
    /// peer observed with a differing view digest (request headers,
    /// gossip digests, AAE piggybacks) — the one way views reconcile.
    /// The receiver merges it; if the merged result still differs from
    /// what was received — the sender lacks entries the receiver holds —
    /// the receiver pushes the merged view back, so one exchange
    /// converges both ends.
    ///
    /// It is also the one message every membership change travels in: the
    /// control plane posts the changed view to the change's *subject*
    /// (join, leave, re-admission after a timed-out drain or a crash) and
    /// gossip disseminates it from there — no broadcast. What the subject
    /// does about it is read off its own entry in the merged view
    /// (`StoreNode::reconcile_self_status`), so a view that reaches it
    /// second-hand has the same effect as the post.
    RingEpoch {
        /// The sender's complete ring view.
        view: RingView<ReplicaId>,
    },
    /// Periodic gossip: the sender's ring-view digest (a 64-bit hash of
    /// its merged membership state). A receiver whose own digest differs
    /// pushes its full view ([`Msg::RingEpoch`]); equal digests end the
    /// round.
    /// Digests carry no order — merging, not comparison, decides what
    /// changes.
    GossipDigest {
        /// The sender's ring-view digest.
        digest: u64,
    },
}

/// Coarse classification of the wire protocol, for per-class byte
/// accounting: each message belongs to exactly one class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MsgClass {
    /// Client request/response traffic.
    Client = 0,
    /// Quorum replication and read repair.
    Replication = 1,
    /// Merkle anti-entropy exchanges.
    AntiEntropy = 2,
    /// Membership dissemination: gossip digests and views.
    Membership = 3,
    /// Range transfers (rebalance and leave-drain).
    Transfer = 4,
    /// Hinted handoff.
    Handoff = 5,
}

impl MsgClass {
    /// Every class, in display order.
    pub const ALL: [MsgClass; 6] = [
        MsgClass::Client,
        MsgClass::Replication,
        MsgClass::AntiEntropy,
        MsgClass::Membership,
        MsgClass::Transfer,
        MsgClass::Handoff,
    ];

    /// Stable lowercase name (report keys).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MsgClass::Client => "client",
            MsgClass::Replication => "replication",
            MsgClass::AntiEntropy => "anti_entropy",
            MsgClass::Membership => "membership",
            MsgClass::Transfer => "transfer",
            MsgClass::Handoff => "handoff",
        }
    }

    /// Position in [`MsgClass::ALL`] — and, in [`Msg::Push`] /
    /// [`Msg::PushAck`], the class's wire byte.
    fn index(self) -> usize {
        self as usize
    }
}

/// Per-class wire counters a node accumulates for every message it
/// sends (payload plus envelope). Bytes-on-the-wire as a first-class
/// metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    msgs: [u64; 6],
    bytes: [u64; 6],
}

impl WireStats {
    /// Records one sent message of `bytes` in `class`.
    pub fn record(&mut self, class: MsgClass, bytes: usize) {
        self.msgs[class.index()] += 1;
        self.bytes[class.index()] += bytes as u64;
    }

    /// Messages sent in `class`.
    #[must_use]
    pub fn msgs(&self, class: MsgClass) -> u64 {
        self.msgs[class.index()]
    }

    /// Bytes sent in `class`.
    #[must_use]
    pub fn bytes(&self, class: MsgClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Total bytes sent across every class.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Bytes spent *reconciling state* rather than serving clients or
    /// moving data: membership dissemination plus anti-entropy — the
    /// bytes-to-convergence metric.
    #[must_use]
    pub fn reconciliation_bytes(&self) -> u64 {
        self.bytes(MsgClass::Membership) + self.bytes(MsgClass::AntiEntropy)
    }

    /// Adds another node's counters into this one (cluster roll-up).
    pub fn absorb(&mut self, other: &WireStats) {
        for i in 0..self.msgs.len() {
            self.msgs[i] += other.msgs[i];
            self.bytes[i] += other.bytes[i];
        }
    }
}

impl<M: Mechanism<StampedValue>> Msg<M> {
    /// One-byte variant tag, the first wire byte of every message. Tags
    /// 8, 13, 18, 19, 24 and 25 belonged to the variants [`Msg::Push`]
    /// replaced, 16 and 17 to the two that carried a full view beside
    /// [`Msg::RingEpoch`], 21 and 22 to the summary/delta view exchange
    /// it also replaced, 14 and 15 to the delegated write a coordinator
    /// outside the key's preference list ran before it relayed instead;
    /// none is ever reused.
    fn tag(&self) -> u8 {
        match self {
            Msg::ClientGet { .. } => 0,
            Msg::ClientGetResp { .. } => 1,
            Msg::ClientPut { .. } => 2,
            Msg::ClientPutResp { .. } => 3,
            Msg::RepGet { .. } => 4,
            Msg::RepGetResp { .. } => 5,
            Msg::RepPut { .. } => 6,
            Msg::RepPutAck { .. } => 7,
            Msg::AaeRoot { .. } => 9,
            Msg::AaeArcRoots { .. } => 10,
            Msg::AaeLeaves { .. } => 11,
            Msg::AaeStates { .. } => 12,
            Msg::RingEpoch { .. } => 20,
            Msg::GossipDigest { .. } => 23,
            Msg::RepGetIf { .. } => 26,
            Msg::RepGetSame { .. } => 27,
            Msg::Push { .. } => 28,
            Msg::PushAck { .. } => 29,
        }
    }

    /// The message's accounting class.
    #[must_use]
    pub fn class(&self) -> MsgClass {
        match self {
            Msg::ClientGet { .. }
            | Msg::ClientGetResp { .. }
            | Msg::ClientPut { .. }
            | Msg::ClientPutResp { .. } => MsgClass::Client,
            Msg::RepGet { .. }
            | Msg::RepGetResp { .. }
            | Msg::RepGetIf { .. }
            | Msg::RepGetSame { .. }
            | Msg::RepPut { .. }
            | Msg::RepPutAck { .. } => MsgClass::Replication,
            Msg::AaeRoot { .. }
            | Msg::AaeArcRoots { .. }
            | Msg::AaeLeaves { .. }
            | Msg::AaeStates { .. } => MsgClass::AntiEntropy,
            Msg::RingEpoch { .. } | Msg::GossipDigest { .. } => MsgClass::Membership,
            Msg::Push { class, .. } | Msg::PushAck { class, .. } => *class,
        }
    }

    /// Bytes this message occupies on the wire (plus the fixed envelope
    /// the caller adds), for every mechanism: the one field walk
    /// (`Msg::walk`) run over the counting sink [`Count`]. It equals
    /// [`encode_transport`](Msg::encode_transport)`().len()` by
    /// construction — the same walk produces both — and a state in it
    /// costs its [`Mechanism::metadata_size`] plus its values' encodings,
    /// a context its [`Mechanism::context_size`]. This is where metadata
    /// size becomes latency. A message's bytes depend on its fields
    /// alone; the mechanism argument is not consulted.
    pub fn wire_size(&self, _mech: &M) -> usize {
        let mut n = Count(0);
        self.walk(&mut n);
        n.0
    }

    /// What sending this message costs its sender —
    /// [`wire_size`](Self::wire_size) plus the per-message
    /// `header_bytes` — recorded in the sender's `ledger` under the
    /// message's class and returned for the driver
    /// ([`ProcessCtx::send`](simnet::ProcessCtx::send)).
    /// Both node types send through this and nothing else does, so the
    /// charge formula is written once for every driver.
    pub fn charge(&self, mech: &M, header_bytes: usize, ledger: &mut WireStats) -> usize {
        let bytes = self.wire_size(mech) + header_bytes;
        ledger.record(self.class(), bytes);
        bytes
    }

    /// The wire layout of every variant, written once: the tag byte, then
    /// the fields in order, states and contexts in their own codecs.
    /// [`encode_transport`](Msg::encode_transport) walks it into bytes,
    /// [`wire_size`](Msg::wire_size) into a count;
    /// [`decode_transport`](Msg::decode_transport) is its inverse.
    fn walk<S: Sink>(&self, buf: &mut S) {
        buf.byte(self.tag());
        match self {
            Msg::ClientGet { req, key, digest } => {
                wire::put_u64(buf, *req);
                wire::put_key(buf, key);
                wire::put_u64(buf, *digest);
            }
            Msg::ClientGetResp {
                req,
                ok,
                values,
                ctx,
            }
            | Msg::ClientPutResp {
                req,
                ok,
                values,
                ctx,
            } => {
                wire::put_u64(buf, *req);
                buf.byte(u8::from(*ok));
                put_varint(buf, values.len() as u64);
                for v in values {
                    v.encode(buf);
                }
                ctx.encode(buf);
            }
            Msg::ClientPut {
                req,
                key,
                value,
                ctx,
                digest,
            } => {
                wire::put_u64(buf, *req);
                wire::put_key(buf, key);
                value.encode(buf);
                ctx.encode(buf);
                wire::put_u64(buf, *digest);
            }
            Msg::RepGet { req, key } => {
                wire::put_u64(buf, *req);
                wire::put_key(buf, key);
            }
            Msg::RepGetResp { req, key, state } => {
                wire::put_u64(buf, *req);
                wire::put_key(buf, key);
                put_state(buf, state);
            }
            Msg::RepPut {
                req,
                key,
                state,
                hint,
            } => {
                wire::put_u64(buf, *req);
                wire::put_key(buf, key);
                put_state(buf, state);
                wire::put_hint(buf, *hint);
            }
            Msg::RepGetIf { req, key, have } => {
                wire::put_u64(buf, *req);
                wire::put_key(buf, key);
                wire::put_u64(buf, *have);
            }
            Msg::RepPutAck { req } | Msg::RepGetSame { req } => wire::put_u64(buf, *req),
            Msg::Push {
                class,
                id,
                entries,
                hint,
            } => {
                buf.byte(class.index() as u8);
                buf.byte(u8::from(id.is_some()));
                if let Some(id) = id {
                    wire::put_u64(buf, *id);
                }
                put_keyed_states(buf, entries);
                wire::put_hint(buf, *hint);
            }
            Msg::PushAck { class, id } => {
                buf.byte(class.index() as u8);
                wire::put_u64(buf, *id);
            }
            Msg::AaeRoot { root, digest } => {
                wire::put_u64(buf, *root);
                wire::put_u64(buf, *digest);
            }
            Msg::AaeArcRoots { arcs, digest } => {
                wire::put_u64(buf, *digest);
                wire::put_arc_roots(buf, arcs);
            }
            Msg::AaeLeaves {
                leaves,
                arcs,
                digest,
            } => {
                wire::put_u64(buf, *digest);
                wire::put_arc_list(buf, arcs);
                dvv::encode::put_leaf_set(buf, leaves);
            }
            Msg::AaeStates { states, want } => {
                put_keyed_states(buf, states);
                wire::put_key_list(buf, want);
            }
            Msg::RingEpoch { view } => wire::put_view(buf, view),
            Msg::GossipDigest { digest } => wire::put_u64(buf, *digest),
        }
    }

    /// Encodes the message — the store's one byte codec: a variant tag
    /// byte, then the fields through the codecs in [`crate::wire`], with
    /// mechanism states and contexts in their own self-delimiting codecs.
    /// It is `Msg::walk` run over a byte buffer, exactly as
    /// [`Msg::wire_size`] is the same walk run over a counter.
    #[must_use]
    pub fn encode_transport(&self, mech: &M) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_size(mech));
        self.encode_into(&mut buf);
        buf
    }

    /// [`encode_transport`](Msg::encode_transport) appended to `buf` in
    /// place: the one walk, with no sizing pass and no buffer of its
    /// own, for a transport that frames messages back to back into one.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        self.walk(buf);
    }

    /// Parses a message produced by [`Msg::encode_transport`]. Strict:
    /// every byte must be consumed, every invariant the codecs check must
    /// hold. A transport maps any error to a dropped connection.
    ///
    /// Reading needs the one thing writing does not: a decoder for the
    /// mechanism's states, which is what [`WireMechanism`] adds.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed input, including an unknown
    /// variant tag or trailing bytes.
    pub fn decode_transport(mech: &M, bytes: &[u8]) -> Result<Self, DecodeError>
    where
        M: WireMechanism<StampedValue>,
    {
        let mut d = Decoder::new(bytes);
        let tag = d.byte()?;
        let msg = match tag {
            0 => Msg::ClientGet {
                req: wire::get_u64(&mut d)?,
                key: wire::get_key(&mut d)?,
                digest: wire::get_u64(&mut d)?,
            },
            1 | 3 => {
                let req = wire::get_u64(&mut d)?;
                let ok = wire::get_bool(&mut d)?;
                let values = get_values(&mut d)?;
                let ctx = mech.decode_context(&mut d)?;
                if tag == 1 {
                    Msg::ClientGetResp {
                        req,
                        ok,
                        values,
                        ctx,
                    }
                } else {
                    Msg::ClientPutResp {
                        req,
                        ok,
                        values,
                        ctx,
                    }
                }
            }
            2 => Msg::ClientPut {
                req: wire::get_u64(&mut d)?,
                key: wire::get_key(&mut d)?,
                value: StampedValue::decode(&mut d)?,
                ctx: mech.decode_context(&mut d)?,
                digest: wire::get_u64(&mut d)?,
            },
            4 => Msg::RepGet {
                req: wire::get_u64(&mut d)?,
                key: wire::get_key(&mut d)?,
            },
            5 => Msg::RepGetResp {
                req: wire::get_u64(&mut d)?,
                key: wire::get_key(&mut d)?,
                state: mech.decode_state(&mut d)?,
            },
            6 => Msg::RepPut {
                req: wire::get_u64(&mut d)?,
                key: wire::get_key(&mut d)?,
                state: mech.decode_state(&mut d)?,
                hint: wire::get_hint(&mut d)?,
            },
            7 => Msg::RepPutAck {
                req: wire::get_u64(&mut d)?,
            },
            9 => Msg::AaeRoot {
                root: wire::get_u64(&mut d)?,
                digest: wire::get_u64(&mut d)?,
            },
            10 => {
                let digest = wire::get_u64(&mut d)?;
                let arcs = wire::get_arc_roots(&mut d)?;
                Msg::AaeArcRoots { arcs, digest }
            }
            11 => {
                let digest = wire::get_u64(&mut d)?;
                let arcs = wire::get_arc_list(&mut d)?;
                let leaves = dvv::encode::get_leaf_set(&mut d)?;
                Msg::AaeLeaves {
                    leaves,
                    arcs,
                    digest,
                }
            }
            12 => Msg::AaeStates {
                states: get_keyed_states(mech, &mut d)?,
                want: wire::get_key_list(&mut d)?,
            },
            20 => Msg::RingEpoch {
                view: wire::get_view(&mut d)?,
            },
            23 => Msg::GossipDigest {
                digest: wire::get_u64(&mut d)?,
            },
            26 => Msg::RepGetIf {
                req: wire::get_u64(&mut d)?,
                key: wire::get_key(&mut d)?,
                have: wire::get_u64(&mut d)?,
            },
            27 => Msg::RepGetSame {
                req: wire::get_u64(&mut d)?,
            },
            28 => Msg::Push {
                class: get_push_class(&mut d)?,
                id: wire::get_bool(&mut d)?
                    .then(|| wire::get_u64(&mut d))
                    .transpose()?,
                entries: get_keyed_states(mech, &mut d)?,
                hint: wire::get_hint(&mut d)?,
            },
            29 => Msg::PushAck {
                class: get_push_class(&mut d)?,
                id: wire::get_u64(&mut d)?,
            },
            // retired tags (8, 13–19, 21, 22, 24, 25) included
            _ => {
                return Err(DecodeError::InvalidValue {
                    reason: "unknown message tag",
                })
            }
        };
        if d.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                remaining: d.remaining(),
            });
        }
        Ok(msg)
    }
}

/// Appends a per-key state: its own self-delimiting layout, each value
/// through [`StampedValue`]'s codec — byte for byte the state's
/// [`Encode`], which [`WireMechanism::decode_state`] reads back.
fn put_state<S: Sink>(buf: &mut S, state: &impl StateLayout<Value = StampedValue>) {
    state.put(buf, StampedValue::encode);
}

/// Appends a `(key, state)` entry list — [`Msg::Push`] and
/// [`Msg::AaeStates`]: a count, then per entry a shared-prefix-delta key
/// followed by the state.
fn put_keyed_states<S: Sink>(
    buf: &mut S,
    entries: &[(Key, impl StateLayout<Value = StampedValue>)],
) {
    put_varint(buf, entries.len() as u64);
    let mut prev: &[u8] = &[];
    for (k, s) in entries {
        put_key_delta(buf, prev, k);
        put_state(buf, s);
        prev = k;
    }
}

fn get_keyed_states<M: WireMechanism<StampedValue>>(
    mech: &M,
    d: &mut Decoder<'_>,
) -> Result<Vec<(Key, M::State)>, DecodeError> {
    let n = d.varint()? as usize;
    let mut out: Vec<(Key, M::State)> = Vec::with_capacity(n.min(d.remaining() / 2 + 1));
    let mut prev: Vec<u8> = Vec::new();
    for _ in 0..n {
        get_key_delta(d, &mut prev)?;
        out.push((prev.clone(), mech.decode_state(d)?));
    }
    Ok(out)
}

/// Reads the class byte of a push or its ack — the class's position in
/// [`MsgClass::ALL`] — admitting only the four classes a push is sent in.
fn get_push_class(d: &mut Decoder<'_>) -> Result<MsgClass, DecodeError> {
    use MsgClass::{AntiEntropy, Handoff, Replication, Transfer};
    let class = MsgClass::ALL.get(usize::from(d.byte()?)).copied();
    class
        .filter(|c| matches!(c, Replication | AntiEntropy | Transfer | Handoff))
        .ok_or(DecodeError::InvalidValue {
            reason: "not a push class",
        })
}

fn get_values(d: &mut Decoder<'_>) -> Result<Vec<StampedValue>, DecodeError> {
    let n = d.varint()? as usize;
    let mut values = Vec::with_capacity(n.min(d.remaining() / 2 + 1));
    for _ in 0..n {
        values.push(StampedValue::decode(d)?);
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvv::mechanisms::{DvvMechanism, WriteOrigin};
    use dvv::{ClientId, VersionVector};

    use crate::value::WriteId;

    type M = DvvMechanism;

    fn sample_state() -> <M as Mechanism<StampedValue>>::State {
        let mech = DvvMechanism;
        let mut st = Default::default();
        mech.write(
            &mut st,
            WriteOrigin::new(ReplicaId(0), ClientId(1)),
            &VersionVector::new(),
            StampedValue::new(WriteId::new(ClientId(1), 1), vec![0u8; 32]),
        );
        st
    }

    fn push(class: MsgClass, id: Option<u64>, keys: &[&str], hint: Option<ReplicaId>) -> Msg<M> {
        let entry = |k: &&str| (k.as_bytes().to_vec(), sample_state());
        let entries = keys.iter().map(entry).collect();
        Msg::Push {
            class,
            id,
            entries,
            hint,
        }
    }

    #[test]
    fn state_bytes_are_metadata_plus_values() {
        let mech = DvvMechanism;
        let st = sample_state();
        let sz = dvv::encode::to_bytes(&st).len();
        let values: usize = mech.read(&st).0.iter().map(Encode::encoded_len).sum();
        assert_eq!(sz, mech.metadata_size(&st) + values);
        assert!(sz > 32, "must include the 32-byte payload, got {sz}");
        assert!(sz < 128, "should stay small, got {sz}");
    }

    #[test]
    fn message_sizes_scale_with_content() {
        let mech = DvvMechanism;
        let st = sample_state();
        let get: Msg<M> = Msg::ClientGet {
            req: 1,
            key: b"k".to_vec(),
            digest: 0,
        };
        let resp: Msg<M> = Msg::RepGetResp {
            req: 1,
            key: b"k".to_vec(),
            state: st.clone(),
        };
        assert!(get.wire_size(&mech) < resp.wire_size(&mech));
        // tag byte + fixed 8-byte request id
        let ack: Msg<M> = Msg::RepPutAck { req: 1 };
        assert_eq!(ack.wire_size(&mech), 9);
    }

    #[test]
    fn hint_adds_bytes() {
        let mech = DvvMechanism;
        let st = sample_state();
        let plain: Msg<M> = Msg::RepPut {
            req: 1,
            key: b"k".to_vec(),
            state: st.clone(),
            hint: None,
        };
        let hinted: Msg<M> = Msg::RepPut {
            req: 1,
            key: b"k".to_vec(),
            state: st,
            hint: Some(ReplicaId(2)),
        };
        // presence byte is always there; the hint itself is one varint
        assert_eq!(hinted.wire_size(&mech), plain.wire_size(&mech) + 1);
    }

    #[test]
    fn membership_messages_scale_with_members_and_entries() {
        let mech = DvvMechanism;
        let announce: Msg<M> = Msg::RingEpoch {
            view: RingView::from_members([ReplicaId(0), ReplicaId(1), ReplicaId(2)]),
        };
        let small: Msg<M> = Msg::RingEpoch {
            view: RingView::from_members([ReplicaId(0)]),
        };
        assert!(announce.wire_size(&mech) > small.wire_size(&mech));

        let transfer = push(MsgClass::Transfer, Some(1), &["k", "k2"], None);
        let empty = push(MsgClass::Transfer, Some(1), &[], None);
        assert!(transfer.wire_size(&mech) > empty.wire_size(&mech) + 64);
        // tag, class, presence + id, empty entry list, absent hint
        assert_eq!(empty.wire_size(&mech), 1 + 1 + 9 + 1 + 1);
        let class = MsgClass::Transfer;
        let ack: Msg<M> = Msg::PushAck { class, id: 1 };
        assert_eq!(ack.wire_size(&mech), 10);
        let two = RingView::from_members([ReplicaId(0), ReplicaId(1)]);
        let push: Msg<M> = Msg::RingEpoch { view: two };
        // tag, then ids (count + first + gap), two one-byte incarnations
        // and both 2-bit statuses in one byte
        assert_eq!(push.wire_size(&mech), 1 + 3 + 2 + 1);
        assert!(
            push.wire_size(&mech) < 26,
            "delta-coded view must beat the old 13-bytes-per-entry format, got {}",
            push.wire_size(&mech)
        );
        // tombstoned entries still ride along: they are what makes a
        // departure survive merges
        let mut with_tombstone = RingView::from_members([ReplicaId(0), ReplicaId(1)]);
        with_tombstone.bump(&ReplicaId(2), ring::MemberStatus::Removed);
        let bigger: Msg<M> = Msg::RingEpoch {
            view: with_tombstone,
        };
        assert!(bigger.wire_size(&mech) > push.wire_size(&mech));
    }

    #[test]
    fn gossip_messages_are_tiny() {
        let mech = DvvMechanism;
        let digest: Msg<M> = Msg::GossipDigest { digest: 9 };
        assert_eq!(digest.wire_size(&mech), 9);
        // a digest stays fixed-size while view pushes grow per member
        let push: Msg<M> = Msg::RingEpoch {
            view: RingView::from_members([
                ReplicaId(0),
                ReplicaId(1),
                ReplicaId(2),
                ReplicaId(3),
                ReplicaId(4),
            ]),
        };
        assert!(digest.wire_size(&mech) < push.wire_size(&mech));
    }

    #[test]
    fn read_repair_hint_adds_bytes() {
        let mech = DvvMechanism;
        let plain = push(MsgClass::Replication, None, &["k"], None);
        let hinted = push(MsgClass::Replication, None, &["k"], Some(ReplicaId(4)));
        assert_eq!(plain.class(), MsgClass::Replication);
        assert_eq!(hinted.wire_size(&mech), plain.wire_size(&mech) + 1);
    }

    #[test]
    fn aae_root_is_tiny() {
        // tag + 8 bytes of Merkle root + 8 bytes of piggybacked digest
        let mech = DvvMechanism;
        let m: Msg<M> = Msg::AaeRoot {
            root: 42,
            digest: 3,
        };
        assert_eq!(m.wire_size(&mech), 17);
    }

    #[test]
    fn arc_roots_beat_full_leaf_push() {
        // The point of narrowing by arc: (arc, root) pairs for the shared
        // arcs cost far less than pushing every leaf of all 64.
        let mech = DvvMechanism;
        let arcs: Vec<(u32, u64)> = (0..64).map(|i| (i, 0x1234_5678 + u64::from(i))).collect();
        let roots: Msg<M> = Msg::AaeArcRoots { arcs, digest: 1 };
        let leaves: Vec<(Key, u64)> = (0..512)
            .map(|i| (format!("user:{i:05}").into_bytes(), i))
            .collect();
        let full: Msg<M> = Msg::AaeLeaves {
            leaves,
            arcs: (0..64).collect(),
            digest: 1,
        };
        assert!(roots.wire_size(&mech) * 4 < full.wire_size(&mech));
    }

    #[test]
    fn every_class_is_reachable_and_stats_roll_up() {
        let mech = DvvMechanism;
        let digest: Msg<M> = Msg::GossipDigest { digest: 1 };
        assert_eq!(digest.class(), MsgClass::Membership);
        let ho = push(MsgClass::Handoff, Some(0), &["k"], None);
        assert_eq!(ho.class(), MsgClass::Handoff);

        let mut a = WireStats::default();
        a.record(MsgClass::Membership, digest.wire_size(&mech));
        a.record(MsgClass::AntiEntropy, 100);
        let mut b = WireStats::default();
        b.record(MsgClass::Transfer, 40);
        b.absorb(&a);
        assert_eq!(b.total_bytes(), 40 + 100 + 9);
        assert_eq!(b.reconciliation_bytes(), 100 + 9);
        assert_eq!(b.msgs(MsgClass::Membership), 1);
        assert_eq!(MsgClass::ALL.len(), 6);
    }

    #[test]
    fn transport_codec_roundtrips_state_bearing_messages() {
        let mech = DvvMechanism;
        let st = sample_state();
        let msg: Msg<M> = Msg::RepPut {
            req: 42,
            key: b"alpha".to_vec(),
            state: st.clone(),
            hint: Some(ReplicaId(3)),
        };
        let bytes = msg.encode_transport(&mech);
        assert_eq!(bytes.len(), msg.wire_size(&mech));
        let back = Msg::<M>::decode_transport(&mech, &bytes).unwrap();
        match back {
            Msg::RepPut {
                req, key, state, ..
            } => {
                assert_eq!(req, 42);
                assert_eq!(key, b"alpha".to_vec());
                assert_eq!(state, st);
            }
            other => panic!("decoded wrong variant: {other:?}"),
        }
    }

    #[test]
    fn transport_decode_rejects_malformed_input() {
        let mech = DvvMechanism;
        // unknown tag
        assert!(Msg::<M>::decode_transport(&mech, &[200]).is_err());
        // empty input
        assert!(Msg::<M>::decode_transport(&mech, &[]).is_err());
        let msg: Msg<M> = Msg::GossipDigest { digest: 7 };
        let mut bytes = msg.encode_transport(&mech);
        // trailing garbage
        bytes.push(0);
        assert!(Msg::<M>::decode_transport(&mech, &bytes).is_err());
        // truncation anywhere must error, never panic
        let msg: Msg<M> = Msg::RepGetResp {
            req: 1,
            key: b"k".to_vec(),
            state: sample_state(),
        };
        let bytes = msg.encode_transport(&mech);
        for cut in 0..bytes.len() {
            assert!(
                Msg::<M>::decode_transport(&mech, &bytes[..cut]).is_err(),
                "torn message parsed at cut {cut}"
            );
        }
    }

    #[test]
    fn dvvset_states_are_charged_their_encoded_bytes() {
        // Every mechanism's state travels in its own codec with no length
        // prefix: a push costs its header, the prefix-delta keys and the
        // states' encodings, and decodes back to the same states.
        use dvv::mechanisms::DvvSetMechanism;
        let mech = DvvSetMechanism;
        let mut st = <DvvSetMechanism as Mechanism<StampedValue>>::State::default();
        mech.write(
            &mut st,
            WriteOrigin::new(ReplicaId(0), ClientId(1)),
            &VersionVector::new(),
            StampedValue::new(WriteId::new(ClientId(1), 1), vec![0u8; 200]),
        );
        let size = dvv::encode::to_bytes(&st).len();
        let values: usize = mech.read(&st).0.iter().map(Encode::encoded_len).sum();
        assert_eq!(size, mech.metadata_size(&st) + values);
        let ho: Msg<DvvSetMechanism> = Msg::Push {
            class: MsgClass::AntiEntropy,
            id: None,
            entries: vec![(b"alpha".to_vec(), st.clone()), (b"alpine".to_vec(), st)],
            hint: None,
        };
        // tag, class, absent id, count, then per entry: lcp, suffix
        // length, suffix, state — "alpine" shares "alp" with "alpha" —
        // and the absent hint.
        let expect = 1 + 1 + 1 + 1 + (1 + 1 + 5 + size) + (1 + 1 + 3 + size) + 1;
        assert_eq!(ho.wire_size(&mech), expect);
        let bytes = ho.encode_transport(&mech);
        assert_eq!(bytes.len(), expect);
        let back = Msg::<DvvSetMechanism>::decode_transport(&mech, &bytes).unwrap();
        assert_eq!(back.encode_transport(&mech), bytes);
    }

    #[test]
    fn wire_size_matches_encoding_for_sampled_variants() {
        // Spot parity and round trip; the proptest suite in
        // tests/wire_parity.rs walks every variant.
        let mech = DvvMechanism;
        let st = sample_state();
        let msgs: Vec<Msg<M>> = vec![
            Msg::ClientGet {
                req: 7,
                key: b"alpha".to_vec(),
                digest: 3,
            },
            Msg::RepGetResp {
                req: 7,
                key: b"alpha".to_vec(),
                state: st.clone(),
            },
            Msg::AaeLeaves {
                leaves: vec![(b"a".to_vec(), 1), (b"ab".to_vec(), 2)],
                arcs: vec![1, 5, 9],
                digest: 11,
            },
            Msg::RingEpoch {
                view: RingView::from_members([ReplicaId(0), ReplicaId(4)]),
            },
            push(MsgClass::Handoff, Some(u64::MAX), &["k1", "k2"], None),
            Msg::PushAck {
                class: MsgClass::Handoff,
                id: u64::MAX,
            },
        ];
        for m in &msgs {
            let bytes = m.encode_transport(&mech);
            assert_eq!(
                m.wire_size(&mech),
                bytes.len(),
                "wire_size drifted from the encoder for {m:?}"
            );
            let back = Msg::<M>::decode_transport(&mech, &bytes).expect("decodes");
            assert_eq!(back.encode_transport(&mech), bytes, "round trip of {m:?}");
        }
    }

    /// Appended in place after what a buffer already holds, a message is
    /// its `encode_transport` bytes, and nothing before them moves.
    #[test]
    fn encode_into_appends_the_encoding() {
        let mech = DvvMechanism;
        let msgs: Vec<Msg<M>> = vec![
            Msg::RepPutAck { req: 9 },
            Msg::RepGetResp {
                req: 7,
                key: b"alpha".to_vec(),
                state: sample_state(),
            },
        ];
        let mut buf = b"held".to_vec();
        let mut want = buf.clone();
        for m in &msgs {
            m.encode_into(&mut buf);
            want.extend(m.encode_transport(&mech));
        }
        assert_eq!(buf, want);
    }
}
