//! Pluggable per-key causality-tracking mechanisms.
//!
//! The paper's evaluation compares how different logical-clock designs
//! behave when embedded in a multi-version distributed store. This module
//! factors that embedding into one trait, [`Mechanism`]: everything a
//! Dynamo-style store needs to do with causal metadata — serve a read with
//! a context, coordinate a write, merge replica states, and account for
//! metadata size. Each design from the paper is one implementation:
//!
//! | Implementation | Paper role |
//! |---|---|
//! | [`DvvMechanism`] | the contribution (one [`Dvv`](crate::dotted::Dvv) per sibling) |
//! | [`DvvSetMechanism`] | the compact sibling-set extension |
//! | [`CausalHistoryMechanism`] | exact ground truth (impractically large) |
//! | [`VvClientMechanism`] | classic Riak: one VV entry per client, optional unsafe pruning |
//! | [`VvServerMechanism`] | Coda/Ficus: one VV entry per server — loses concurrent client writes (Figure 1b) |
//! | [`LamportMechanism`] | last-writer-wins strawman |
//! | [`OrderedVvMechanism`] | Wang & Amza's sorted VVs with a fast dominance path |
//! | [`VveMechanism`] | WinFS: dot + version-vector-with-exceptions past |

mod causal_histories;
mod dvv_mech;
mod dvvset_mech;
mod lamport;
mod ordered_vv;
mod vv_client;
mod vv_server;
mod vve_mech;

pub use causal_histories::CausalHistoryMechanism;
pub use dvv_mech::DvvMechanism;
pub use dvvset_mech::DvvSetMechanism;
pub use lamport::LamportMechanism;
pub use ordered_vv::{OrderedVv, OrderedVvMechanism};
pub use vv_client::{PruneConfig, VvClientMechanism};
pub use vv_server::VvServerMechanism;
pub use vve_mech::{VveClock, VveMechanism};

use core::fmt::Debug;

use crate::encode::{Decoder, Encode, StateLayout};
use crate::error::DecodeError;
use crate::ids::{ClientId, ReplicaId};

/// Identity of a write request as seen by a mechanism: which replica
/// coordinates it and which client issued it.
///
/// The DVV family assigns the new dot to the **replica**; the per-client
/// baseline assigns the new vector entry to the **client**. Passing both
/// lets every mechanism pick its principal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WriteOrigin {
    /// The replica server coordinating the write.
    pub server: ReplicaId,
    /// The client issuing the write.
    pub client: ClientId,
}

impl WriteOrigin {
    /// Creates a write origin.
    #[must_use]
    pub fn new(server: ReplicaId, client: ClientId) -> Self {
        WriteOrigin { server, client }
    }
}

/// A causality-tracking mechanism: the complete per-key protocol a
/// multi-version store delegates to.
///
/// `V` is the application value type; the store instantiates it with a
/// stamped value so the test oracle can identify every write.
///
/// # Contract
///
/// * [`read`](Mechanism::read) returns all live (mutually concurrent)
///   values plus the opaque *context* a client must echo on its next
///   write for read-modify-write causality.
/// * [`write`](Mechanism::write) installs a new value that causally
///   dominates everything in `ctx` (and nothing else).
/// * [`merge`](Mechanism::merge) is a join: commutative, associative and
///   idempotent over states, used for replication and anti-entropy.
/// * [`metadata_size`](Mechanism::metadata_size) is the wire size in bytes
///   of the causal metadata only: the state's one byte layout
///   ([`StateLayout`]) run over a counter with the values left out.
///   [`context_size`](Mechanism::context_size) is the context's
///   [`Encode::encoded_len`]. A state's bytes on any wire are therefore
///   its metadata size plus its values' encodings, exactly.
pub trait Mechanism<V: Clone>: Clone + Debug {
    /// Complete per-key state at one replica (clocks and values).
    /// `Hash`/`Eq` support anti-entropy fingerprints and read repair.
    /// `Send + 'static` lets states cross thread boundaries in the
    /// threaded runtime driver and live behind boxed storage engines.
    type State: Clone
        + Debug
        + Default
        + PartialEq
        + core::hash::Hash
        + Send
        + 'static
        + StateLayout<Value = V>;
    /// What a reader gets besides the values, and must echo on write.
    type Context: Clone + Debug + Default + Send + Encode;

    /// Short stable name for reports and tables (e.g. `"dvv"`).
    fn name(&self) -> &'static str;

    /// Serves a GET: all sibling values plus the read context.
    fn read(&self, state: &Self::State) -> (Vec<V>, Self::Context);

    /// Coordinates a PUT with read context `ctx` at `origin`.
    fn write(&self, state: &mut Self::State, origin: WriteOrigin, ctx: &Self::Context, value: V);

    /// [`write`](Mechanism::write) with a per-server dot-counter *floor*:
    /// a mechanism that mints `(server, counter)` dots must mint strictly
    /// above `floor` and return the minted counter. The floor is the
    /// crash-recovery epoch guard's hook — after a coarse-durability
    /// restart the store passes its durably reserved counter ceiling so
    /// the lost tail's dots can never be re-minted for different values.
    ///
    /// Mechanisms without server-assigned counters ignore the floor and
    /// return `None`; the default forwards to [`write`](Mechanism::write).
    fn write_with_floor(
        &self,
        state: &mut Self::State,
        origin: WriteOrigin,
        ctx: &Self::Context,
        value: V,
        floor: u64,
    ) -> Option<u64> {
        let _ = floor;
        self.write(state, origin, ctx, value);
        None
    }

    /// Every live version's identity dot, as `((replica, counter), value)`
    /// pairs — the raw material of the fleet-wide dot-uniqueness oracle
    /// (no `(replica, counter)` pair may ever map to two distinct values).
    ///
    /// Mechanisms whose versions are not identified by a single
    /// replica-assigned dot return the empty vector (the oracle then has
    /// nothing to check for them).
    fn dot_map(&self, state: &Self::State) -> Vec<((ReplicaId, u64), V)> {
        let _ = state;
        Vec::new()
    }

    /// Merges a remote replica's state into the local one (replication
    /// delivery or anti-entropy).
    fn merge(&self, local: &mut Self::State, remote: &Self::State);

    /// Joins two read contexts: the combined causal knowledge of a client
    /// that performed both reads. Sessions accumulate contexts with this
    /// (instead of replacing them) to get monotonic session causality —
    /// a quorum read may otherwise return a context that regresses behind
    /// an earlier read's.
    fn merge_contexts(&self, into: &mut Self::Context, from: &Self::Context);

    /// Wire size in bytes of the causal metadata in `state`: its
    /// [`StateLayout::metadata_len`].
    fn metadata_size(&self, state: &Self::State) -> usize;

    /// Wire size in bytes of a read context: its [`Encode::encoded_len`].
    fn context_size(&self, ctx: &Self::Context) -> usize;

    /// Number of live sibling values in `state`.
    fn sibling_count(&self, state: &Self::State) -> usize;

    /// Whether the state holds no live values.
    fn is_empty(&self, state: &Self::State) -> bool {
        self.sibling_count(state) == 0
    }
}

/// A mechanism whose states can also be read back from bytes — what a
/// socket or a log needs on top of [`Mechanism`], which can already write
/// them.
///
/// A state's [`Encode`] is its [`StateLayout`] with each value's own
/// encoder, and a context is its own [`Encode`]; the four methods are those
/// codecs, nothing else. Every layout is self-delimiting, so a decoder
/// reads exactly one state or context and stops. Decoders never panic on
/// malformed input — a driver maps any [`DecodeError`] to a dropped
/// connection. All eight mechanisms implement this with an empty impl.
pub trait WireMechanism<V: Clone + Encode>: Mechanism<V, State: Encode> {
    /// Appends the wire form of `state` (clocks and values).
    fn encode_state(&self, state: &Self::State, buf: &mut Vec<u8>) {
        state.encode(buf);
    }

    /// Parses one state back.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed input.
    fn decode_state(&self, d: &mut Decoder<'_>) -> Result<Self::State, DecodeError> {
        Self::State::decode(d)
    }

    /// Appends the wire form of a read context.
    fn encode_context(&self, ctx: &Self::Context, buf: &mut Vec<u8>) {
        ctx.encode(buf);
    }

    /// Parses one context back.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed input.
    fn decode_context(&self, d: &mut Decoder<'_>) -> Result<Self::Context, DecodeError> {
        Self::Context::decode(d)
    }
}

/// Generic sibling-set merge for mechanisms whose state is a flat list of
/// `(clock, value)` pairs: a version survives iff no version on the other
/// side strictly dominates it (per `dominated`), deduplicated by `same`.
///
/// The merged list is in one canonical order — by each clock's encoding —
/// whichever side it arrived from: two replicas holding one sibling set
/// in two orders would fingerprint differently, find every merge a no-op,
/// and exchange the set by anti-entropy forever (DVV's own state keeps
/// the same rule in [`crate::server::canonicalize`]).
pub(crate) fn merge_siblings<C: Clone + Encode, V: Clone>(
    local: &mut Vec<(C, V)>,
    remote: &[(C, V)],
    dominated: impl Fn(&C, &C) -> bool,
    same: impl Fn(&C, &C) -> bool,
) {
    let mut out: Vec<(C, V)> = Vec::with_capacity(local.len() + remote.len());
    for x in local.iter() {
        if !remote.iter().any(|y| dominated(&x.0, &y.0)) {
            out.push(x.clone());
        }
    }
    for y in remote {
        let dominated_by_local = local.iter().any(|x| dominated(&y.0, &x.0));
        let duplicate = out.iter().any(|x| same(&x.0, &y.0));
        if !dominated_by_local && !duplicate {
            out.push(y.clone());
        }
    }
    sort_siblings(&mut out);
    *local = out;
}

/// Puts a flat sibling list in its one canonical order, by each clock's
/// encoding: the order [`merge_siblings`] leaves, which every `write` of
/// a flat-list mechanism leaves too, so a freshly written state is
/// already what merging it with itself (or with the empty state) gives.
pub(crate) fn sort_siblings<C: Encode, V>(siblings: &mut [(C, V)]) {
    siblings.sort_by_cached_key(|(c, _)| crate::encode::to_bytes(c));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_origin_construction() {
        let o = WriteOrigin::new(ReplicaId(1), ClientId(2));
        assert_eq!(o.server, ReplicaId(1));
        assert_eq!(o.client, ClientId(2));
    }

    #[test]
    fn merge_siblings_keeps_concurrent_drops_dominated() {
        // clocks are plain integers; x dominated by y iff x < y
        let mut local = vec![(1u64, "a"), (5, "b")];
        let remote = vec![(3u64, "c"), (5, "b2")];
        merge_siblings(&mut local, &remote, |x, y| x < y, |x, y| x == y);
        // 1 dominated by 3 and 5; 3 dominated by local 5; 5 deduplicated
        assert_eq!(local, vec![(5, "b")]);
    }

    #[test]
    fn merge_siblings_empty_cases() {
        let mut local: Vec<(u64, &str)> = vec![];
        merge_siblings(&mut local, &[(1, "x")], |x, y| x < y, |x, y| x == y);
        assert_eq!(local, vec![(1, "x")]);
        let mut local = vec![(2u64, "y")];
        merge_siblings(&mut local, &[], |x, y| x < y, |x, y| x == y);
        assert_eq!(local, vec![(2, "y")]);
    }
}
