//! [`OrderedVv`]: Wang & Amza's version vectors with an O(1) fast
//! dominance path (related work [6] in the paper).
//!
//! Wang & Amza (ICDCS 2009) observed that in optimistic replication the
//! common comparison is between a version and one of its ancestors, and
//! that caching the *most recent event* in each vector makes that check
//! O(1): if `b`'s latest event covers `a`'s latest event, and the versions
//! are on the same lineage, then `a ≤ b`. The cache must be kept in sync
//! on every mutation (the "entries must be kept ordered" cost the paper
//! mentions), and — crucially — the fast path is only *conclusive* when it
//! answers "dominated"; unrelated versions still need the O(n) scan, and
//! the scheme inherits plain VVs' inability to track concurrent client
//! writes through one server.

use core::fmt;

use crate::actor::Actor;
use crate::dot::Dot;
use crate::encode::{Decoder, Encode, Sink, StateLayout};
use crate::error::DecodeError;
use crate::ids::ReplicaId;
use crate::order::CausalOrder;
use crate::version_vector::VersionVector;

use super::{merge_siblings, sort_siblings, Mechanism, WireMechanism, WriteOrigin};

/// A version vector that caches its most recent event for an O(1) fast
/// dominance path.
///
/// # Examples
///
/// ```
/// use dvv::mechanisms::OrderedVv;
///
/// let mut a = OrderedVv::new();
/// a.increment("A");
/// let mut b = a.clone();
/// b.increment("A");
/// // fast path: conclusive here because b's latest covers a entirely
/// assert_eq!(a.fast_dominated_by(&b), Some(true));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct OrderedVv<A: Ord> {
    vv: VersionVector<A>,
    /// The most recent event recorded into this vector, if any.
    latest: Option<Dot<A>>,
}

impl<A: Actor> OrderedVv<A> {
    /// Creates an empty clock.
    #[must_use]
    pub fn new() -> Self {
        OrderedVv {
            vv: VersionVector::new(),
            latest: None,
        }
    }

    /// The underlying version vector.
    #[must_use]
    pub fn vv(&self) -> &VersionVector<A> {
        &self.vv
    }

    /// The cached most recent event.
    #[must_use]
    pub fn latest(&self) -> Option<&Dot<A>> {
        self.latest.as_ref()
    }

    /// Advances `actor` and updates the cached latest event.
    pub fn increment(&mut self, actor: A) -> Dot<A> {
        let dot = self.vv.increment(actor);
        self.latest = Some(dot.clone());
        dot
    }

    /// O(1) fast dominance test: `Some(true)` when this version is
    /// certainly dominated by `other` (our latest event is in `other` and
    /// `other`'s latest is *not* in us), `Some(false)` when certainly not
    /// dominated (our latest event is missing from `other`), and `None`
    /// when the fast path is inconclusive and the O(n)
    /// [`OrderedVv::causal_cmp`] must be used.
    #[must_use]
    pub fn fast_dominated_by(&self, other: &Self) -> Option<bool> {
        let mine = self.latest.as_ref()?;
        if !other.vv.contains(mine) {
            return Some(false);
        }
        match &other.latest {
            // Other has seen our newest write and has one we lack: on a
            // write lineage (the Wang & Amza setting) that is dominance.
            Some(theirs) if !self.vv.contains(theirs) => Some(true),
            Some(_) => None, // mutual containment of latests: fall back
            None => None,
        }
    }

    /// Full O(n) comparison (identical to plain version vectors).
    #[must_use]
    pub fn causal_cmp(&self, other: &Self) -> CausalOrder {
        self.vv.causal_cmp(&other.vv)
    }

    /// Dominance test that uses the fast path and falls back to the scan.
    #[must_use]
    pub fn dominated_by(&self, other: &Self) -> bool {
        match self.fast_dominated_by(other) {
            Some(answer) => answer,
            None => other.vv.dominates(&self.vv),
        }
    }

    /// Merges `other` into `self`, keeping the later of the two cached
    /// events (by containment; ties resolved by the canonical dot order).
    pub fn merge(&mut self, other: &Self) {
        self.vv.merge(&other.vv);
        self.latest = match (self.latest.take(), other.latest.clone()) {
            (Some(a), Some(b)) => {
                // prefer the one the merged vector reaches last; canonical
                // tiebreak keeps merge deterministic and commutative.
                if b.counter() > a.counter() || (b.counter() == a.counter() && b > a) {
                    Some(b)
                } else {
                    Some(a)
                }
            }
            (a, b) => a.or(b),
        };
    }
}

impl<A: Actor + fmt::Display> fmt::Display for OrderedVv<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.latest {
            Some(d) => write!(f, "{}@{}", self.vv, d),
            None => write!(f, "{}@-", self.vv),
        }
    }
}

impl<A: Actor + Encode> Encode for OrderedVv<A> {
    fn encode<S: Sink>(&self, buf: &mut S) {
        self.vv.encode(buf);
        match &self.latest {
            Some(d) => {
                buf.byte(1);
                d.encode(buf);
            }
            None => buf.byte(0),
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let vv = VersionVector::<A>::decode(d)?;
        let latest = match d.byte()? {
            0 => None,
            1 => Some(Dot::<A>::decode(d)?),
            _ => {
                return Err(DecodeError::InvalidValue {
                    reason: "unknown ordered-vv latest tag",
                })
            }
        };
        Ok(OrderedVv { vv, latest })
    }
}

/// Store mechanism backed by [`OrderedVv`] with one entry per server —
/// same semantics (and same Figure 1b anomaly) as
/// [`super::VvServerMechanism`], but exercising the fast dominance path so
/// E4 can benchmark it against DVV's O(1) check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderedVvMechanism;

impl<V: Clone + core::fmt::Debug + Eq + core::hash::Hash + Send + 'static> Mechanism<V>
    for OrderedVvMechanism
{
    type State = Vec<(OrderedVv<ReplicaId>, V)>;
    type Context = OrderedVv<ReplicaId>;

    fn name(&self) -> &'static str {
        "ordered-vv"
    }

    fn read(&self, state: &Self::State) -> (Vec<V>, Self::Context) {
        let mut ctx = OrderedVv::new();
        for (c, _) in state {
            ctx.merge(c);
        }
        (state.iter().map(|(_, v)| v.clone()).collect(), ctx)
    }

    fn write(&self, state: &mut Self::State, origin: WriteOrigin, ctx: &Self::Context, value: V) {
        let local_max = state
            .iter()
            .map(|(c, _)| c.vv().get(&origin.server))
            .max()
            .unwrap_or(0);
        let mut clock = ctx.clone();
        let bumped = local_max.max(ctx.vv().get(&origin.server)) + 1;
        clock.vv.set(origin.server, bumped);
        clock.latest = Some(Dot::new(origin.server, bumped));
        state.retain(|(old, _)| !(old.dominated_by(&clock) && old != &clock));
        state.push((clock, value));
        sort_siblings(state);
    }

    fn merge(&self, local: &mut Self::State, remote: &Self::State) {
        merge_siblings(
            local,
            remote,
            |x, y| x.dominated_by(y) && x != y,
            |x, y| x == y,
        );
    }

    fn merge_contexts(&self, into: &mut Self::Context, from: &Self::Context) {
        into.merge(from);
    }

    fn metadata_size(&self, state: &Self::State) -> usize {
        state.metadata_len()
    }

    fn context_size(&self, ctx: &Self::Context) -> usize {
        ctx.encoded_len()
    }

    fn sibling_count(&self, state: &Self::State) -> usize {
        state.len()
    }
}

impl<V: Clone + core::fmt::Debug + Eq + core::hash::Hash + Send + 'static + Encode> WireMechanism<V>
    for OrderedVvMechanism
{
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    #[test]
    fn fast_path_detects_lineage_dominance() {
        let mut a = OrderedVv::new();
        a.increment("A");
        let mut b = a.clone();
        b.increment("A");
        assert_eq!(a.fast_dominated_by(&b), Some(true));
        assert_eq!(b.fast_dominated_by(&a), Some(false));
        assert!(a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
    }

    #[test]
    fn fast_path_detects_non_dominance_of_unrelated() {
        let mut a = OrderedVv::new();
        a.increment("A");
        let mut b = OrderedVv::new();
        b.increment("B");
        assert_eq!(a.fast_dominated_by(&b), Some(false));
        assert_eq!(a.causal_cmp(&b), CausalOrder::Concurrent);
    }

    #[test]
    fn fast_path_inconclusive_on_equal_clocks() {
        let mut a = OrderedVv::new();
        a.increment("A");
        let b = a.clone();
        assert_eq!(a.fast_dominated_by(&b), None, "falls back to full scan");
        assert!(a.dominated_by(&b), "equal counts as dominated (≤)");
    }

    #[test]
    fn empty_clock_fast_path_is_inconclusive() {
        let empty: OrderedVv<&str> = OrderedVv::new();
        let mut b = OrderedVv::new();
        b.increment("A");
        assert_eq!(empty.fast_dominated_by(&b), None);
        assert!(empty.dominated_by(&b));
    }

    #[test]
    fn merge_is_commutative_including_cache() {
        let mut a = OrderedVv::new();
        a.increment("A");
        a.increment("A");
        let mut b = OrderedVv::new();
        b.increment("B");
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn encode_roundtrip() {
        let mut a: OrderedVv<ReplicaId> = OrderedVv::new();
        a.increment(ReplicaId(0));
        a.increment(ReplicaId(1));
        let bytes = crate::encode::to_bytes(&a);
        assert_eq!(bytes.len(), a.encoded_len());
        let back: OrderedVv<ReplicaId> = crate::encode::from_bytes(&bytes).unwrap();
        assert_eq!(back, a);

        let empty: OrderedVv<ReplicaId> = OrderedVv::new();
        let back: OrderedVv<ReplicaId> =
            crate::encode::from_bytes(&crate::encode::to_bytes(&empty)).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn mechanism_inherits_figure_1b_anomaly() {
        let m = OrderedVvMechanism;
        let mut st: Vec<(OrderedVv<ReplicaId>, &str)> = Vec::new();
        let o1 = WriteOrigin::new(ReplicaId(0), ClientId(1));
        let o2 = WriteOrigin::new(ReplicaId(0), ClientId(2));
        let (_, ctx0) = m.read(&st);
        m.write(&mut st, o1, &ctx0, "v1");
        let (_, ctx1) = m.read(&st);
        m.write(&mut st, o1, &ctx1, "v2");
        m.write(&mut st, o2, &ctx1, "v3");
        let (vals, _) = m.read(&st);
        assert_eq!(vals, vec!["v3"], "same lost update as plain per-server VVs");
    }

    #[test]
    fn mechanism_cross_server_concurrency_detected() {
        let m = OrderedVvMechanism;
        let mut a: Vec<(OrderedVv<ReplicaId>, &str)> = Vec::new();
        let mut b: Vec<(OrderedVv<ReplicaId>, &str)> = Vec::new();
        m.write(
            &mut a,
            WriteOrigin::new(ReplicaId(0), ClientId(1)),
            &OrderedVv::new(),
            "x",
        );
        m.write(
            &mut b,
            WriteOrigin::new(ReplicaId(1), ClientId(2)),
            &OrderedVv::new(),
            "y",
        );
        m.merge(&mut a, &b);
        assert_eq!(m.sibling_count(&a), 2);
    }

    #[test]
    fn display_shows_cache() {
        let mut a = OrderedVv::new();
        a.increment("A");
        assert_eq!(a.to_string(), "[A:1]@(A,1)");
        let e: OrderedVv<&str> = OrderedVv::new();
        assert_eq!(e.to_string(), "[]@-");
    }
}
