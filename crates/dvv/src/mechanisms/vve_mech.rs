//! [`VveMechanism`]: WinFS-style tracking — version identifiers separate
//! from an *exception-capable* causal past ([`Vve`]).
//!
//! WinFS (Malkhi & Terry, 2007) also decouples the version id from the
//! causal past, but records the past as a version vector *with
//! exceptions*, able to express arbitrary non-contiguous histories. The
//! paper's related-work section argues that in multi-version stores —
//! where a client can only replace the versions it has seen — a single
//! dot suffices, making the exception machinery pure overhead. This
//! mechanism exists to measure that: it is exactly as correct as
//! [`super::DvvMechanism`], with strictly more metadata whenever
//! histories are gapped.

use crate::dot::Dot;
use crate::encode::{Encode, StateLayout};
use crate::ids::ReplicaId;
use crate::vve::Vve;

use super::{merge_siblings, sort_siblings, Mechanism, WireMechanism, WriteOrigin};

/// One sibling's clock: its dot plus an exact (exception-capable) past.
pub type VveClock = (Dot<ReplicaId>, Vve<ReplicaId>);

/// Store mechanism with WinFS-style clocks: dot + VVE past.
///
/// Correctness-equivalent to the DVV design (the dot-containment test is
/// the same); the difference is that contexts and pasts are exact event
/// sets, so gaps cost explicit exception entries instead of being
/// over-approximated away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VveMechanism;

impl<V: Clone + core::fmt::Debug + Eq + core::hash::Hash + Send + 'static> Mechanism<V>
    for VveMechanism
{
    type State = Vec<(VveClock, V)>;
    type Context = Vve<ReplicaId>;

    fn name(&self) -> &'static str {
        "vve"
    }

    fn read(&self, state: &Self::State) -> (Vec<V>, Self::Context) {
        let mut ctx = Vve::new();
        for ((dot, past), _) in state {
            ctx.union(past);
            ctx.add(*dot);
        }
        (state.iter().map(|(_, v)| v.clone()).collect(), ctx)
    }

    fn write(&self, state: &mut Self::State, origin: WriteOrigin, ctx: &Self::Context, value: V) {
        // fresh dot: above everything this replica has seen of itself
        let local_max = state
            .iter()
            .flat_map(|((dot, past), _)| {
                let from_dot = if dot.actor() == &origin.server {
                    dot.counter()
                } else {
                    0
                };
                let from_past = past
                    .iter_dots()
                    .filter(|d| d.actor() == &origin.server)
                    .map(|d| d.counter())
                    .max()
                    .unwrap_or(0);
                [from_dot, from_past]
            })
            .chain(
                ctx.iter_dots()
                    .filter(|d| d.actor() == &origin.server)
                    .map(|d| d.counter()),
            )
            .max()
            .unwrap_or(0);
        let dot = Dot::new(origin.server, local_max + 1);
        // discard siblings whose dot the context covers — same O(1)-per-
        // sibling test as DVV, but on the exact event set
        state.retain(|((old_dot, _), _)| !ctx.contains(old_dot));
        state.push(((dot, ctx.clone()), value));
        sort_siblings(state);
    }

    fn merge(&self, local: &mut Self::State, remote: &Self::State) {
        merge_siblings(
            local,
            remote,
            |(xd, _), (_, ypast)| ypast.contains(xd),
            |(xd, _), (yd, _)| xd == yd,
        );
    }

    fn merge_contexts(&self, into: &mut Self::Context, from: &Self::Context) {
        into.union(from);
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
    for VveMechanism
{
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use crate::order::CausalOrder;

    fn origin(s: u32, c: u64) -> WriteOrigin {
        WriteOrigin::new(ReplicaId(s), ClientId(c))
    }

    type State = Vec<(VveClock, &'static str)>;

    #[test]
    fn figure_1_trace_matches_dvv() {
        let m = VveMechanism;
        let mut a = State::default();
        m.write(&mut a, origin(0, 1), &Vve::new(), "v1");
        let (_, ctx1) = m.read(&a);
        m.write(&mut a, origin(0, 1), &ctx1, "v2");
        m.write(&mut a, origin(0, 2), &ctx1, "v3");
        assert_eq!(m.sibling_count(&a), 2, "v2 ∥ v3 kept, like the DVV");
        let (_, ctx_all) = m.read(&a);
        m.write(&mut a, origin(0, 3), &ctx_all, "v4");
        assert_eq!(m.sibling_count(&a), 1);
    }

    #[test]
    fn contexts_are_exact_event_sets() {
        let m = VveMechanism;
        let mut a = State::default();
        m.write(&mut a, origin(0, 1), &Vve::new(), "v1"); // (s0,1)
        let (_, ctx1) = m.read(&a);
        m.write(&mut a, origin(0, 1), &ctx1, "v2"); // (s0,2)
        m.write(&mut a, origin(0, 2), &ctx1, "v3"); // (s0,3)

        // a reader that sees only v3 (e.g. at a replica that missed v2):
        let only_v3: State = a.iter().filter(|(_, v)| *v == "v3").cloned().collect();
        let (_, gapped) = m.read(&only_v3);
        // the exact context {s0:1, s0:3} has an exception at 2 — something
        // no plain version vector can express
        assert!(gapped.contains(&Dot::new(ReplicaId(0), 1)));
        assert!(!gapped.contains(&Dot::new(ReplicaId(0), 2)));
        assert!(gapped.contains(&Dot::new(ReplicaId(0), 3)));
        assert_eq!(gapped.exception_count(), 1);
    }

    #[test]
    fn merge_keeps_concurrent_drops_dominated() {
        let m = VveMechanism;
        let mut a = State::default();
        m.write(&mut a, origin(0, 1), &Vve::new(), "v1");
        let mut b = a.clone();
        let (_, ctx) = m.read(&b);
        m.write(&mut b, origin(1, 2), &ctx, "v2");
        m.merge(&mut a, &b);
        let (vals, _) = m.read(&a);
        assert_eq!(vals, vec!["v2"]);

        let mut c = State::default();
        m.write(&mut c, origin(2, 3), &Vve::new(), "v3");
        m.merge(&mut a, &c);
        assert_eq!(m.sibling_count(&a), 2);
    }

    #[test]
    fn counters_never_reused() {
        let m = VveMechanism;
        let mut a = State::default();
        m.write(&mut a, origin(0, 1), &Vve::new(), "v1");
        let (_, ctx) = m.read(&a);
        m.write(&mut a, origin(0, 1), &ctx, "v2"); // (s0,2), discards v1
        let (_, ctx2) = m.read(&a);
        m.write(&mut a, origin(0, 1), &ctx2, "v3");
        let ((dot, _), _) = &a[0];
        assert_eq!(dot, &Dot::new(ReplicaId(0), 3));
    }

    #[test]
    fn metadata_includes_exception_overhead() {
        let m = VveMechanism;
        // gapped context → sibling carries exceptions → bigger than the
        // equivalent DVV whose VV would silently fill the gap
        let mut gapped = Vve::new();
        gapped.add(Dot::new(ReplicaId(0), 1));
        gapped.add(Dot::new(ReplicaId(0), 3));
        let mut st = State::default();
        m.write(&mut st, origin(1, 1), &gapped, "v");
        let with_gap = Mechanism::<&str>::metadata_size(&m, &st);

        let mut compact = Vve::new();
        compact.add(Dot::new(ReplicaId(0), 1));
        compact.add(Dot::new(ReplicaId(0), 2));
        compact.add(Dot::new(ReplicaId(0), 3));
        let mut st2 = State::default();
        m.write(&mut st2, origin(1, 1), &compact, "v");
        let without_gap = Mechanism::<&str>::metadata_size(&m, &st2);
        assert!(with_gap > without_gap, "{with_gap} vs {without_gap}");
    }

    #[test]
    fn dot_comparison_equivalent_to_dvv_semantics() {
        // two writes through the same server with the same context are
        // concurrent: neither dot is in the other's past
        let m = VveMechanism;
        let mut st = State::default();
        m.write(&mut st, origin(0, 1), &Vve::new(), "a");
        m.write(&mut st, origin(0, 2), &Vve::new(), "b");
        let ((d1, p1), _) = &st[0];
        let ((d2, p2), _) = &st[1];
        assert!(!p1.contains(d2) && !p2.contains(d1));
        let _ = CausalOrder::Concurrent;
    }
}
