//! [`CausalHistoryMechanism`]: exact causality via explicit event sets —
//! the reference the paper's Figure 1a is written in.

use crate::causal_history::CausalHistory;
use crate::dot::Dot;
use crate::encode::{Encode, StateLayout};
use crate::ids::ReplicaId;
use crate::order::CausalOrder;

use super::{merge_siblings, sort_siblings, Mechanism, WireMechanism, WriteOrigin};

/// Tracks causality with explicit [`CausalHistory`] sets: always correct,
/// but metadata grows linearly with the total number of writes — the cost
/// every compressed clock is trying to avoid. Used as the ground truth in
/// tests and as the "ideal but impractical" line in size plots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CausalHistoryMechanism;

impl<V: Clone + core::fmt::Debug + Eq + core::hash::Hash + Send + 'static> Mechanism<V>
    for CausalHistoryMechanism
{
    type State = Vec<(CausalHistory<ReplicaId>, V)>;
    type Context = CausalHistory<ReplicaId>;

    fn name(&self) -> &'static str {
        "causal-histories"
    }

    fn read(&self, state: &Self::State) -> (Vec<V>, Self::Context) {
        let mut ctx = CausalHistory::new();
        for (h, _) in state {
            ctx.union(h);
        }
        (state.iter().map(|(_, v)| v.clone()).collect(), ctx)
    }

    fn write(&self, state: &mut Self::State, origin: WriteOrigin, ctx: &Self::Context, value: V) {
        // fresh dot: one above everything this replica has ever seen of
        // itself, locally or in the client's context.
        let local_max = state
            .iter()
            .flat_map(|(h, _)| h.iter())
            .chain(ctx.iter())
            .filter(|d| d.actor() == &origin.server)
            .map(Dot::counter)
            .max()
            .unwrap_or(0);
        let dot = Dot::new(origin.server, local_max + 1);
        let mut history = ctx.clone();
        history.insert(dot);
        state.retain(|(h, _)| !h.is_subset(ctx));
        state.push((history, value));
        sort_siblings(state);
    }

    fn merge(&self, local: &mut Self::State, remote: &Self::State) {
        merge_siblings(
            local,
            remote,
            |x, y| x.causal_cmp(y) == CausalOrder::Before,
            |x, y| x == y,
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
    for CausalHistoryMechanism
{
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    fn origin(s: u32, c: u64) -> WriteOrigin {
        WriteOrigin::new(ReplicaId(s), ClientId(c))
    }

    type State = Vec<(CausalHistory<ReplicaId>, &'static str)>;

    #[test]
    fn figure_1a_trace() {
        let m = CausalHistoryMechanism;
        let mut a = State::default();

        // c1 writes v1: {A1}
        let (_, ctx0) = m.read(&a);
        m.write(&mut a, origin(0, 1), &ctx0, "v1");
        let (_, ctx1) = m.read(&a);
        assert_eq!(ctx1.len(), 1);

        // c1 writes v2 after reading v1: {A1,A2}
        m.write(&mut a, origin(0, 1), &ctx1, "v2");
        // c2 writes v3 with the same old context: {A1,A3} — concurrent
        m.write(&mut a, origin(0, 2), &ctx1, "v3");
        assert_eq!(m.sibling_count(&a), 2);
        assert_eq!(
            a[0].0.causal_cmp(&a[1].0),
            CausalOrder::Concurrent,
            "{{A1,A2}} || {{A1,A3}}"
        );

        // write that saw both collapses the siblings: {A1,A2,A3,A4}
        let (_, ctx_all) = m.read(&a);
        m.write(&mut a, origin(0, 1), &ctx_all, "v4");
        assert_eq!(m.sibling_count(&a), 1);
        assert_eq!(a[0].0.len(), 4);
    }

    #[test]
    fn merge_discards_dominated_histories() {
        let m = CausalHistoryMechanism;
        let mut a = State::default();
        m.write(&mut a, origin(0, 1), &CausalHistory::new(), "v1");
        let mut b = a.clone();
        let (_, ctx) = m.read(&b);
        m.write(&mut b, origin(0, 2), &ctx, "v2");
        m.merge(&mut a, &b);
        let (vals, _) = m.read(&a);
        assert_eq!(vals, vec!["v2"]);
    }

    #[test]
    fn metadata_grows_with_history_length() {
        let m = CausalHistoryMechanism;
        let mut st = State::default();
        let mut last = 0;
        for _ in 0..10 {
            let (_, ctx) = m.read(&st);
            m.write(&mut st, origin(0, 1), &ctx, "v");
            let size = m.metadata_size(&st);
            assert!(size > last, "causal histories grow monotonically");
            last = size;
        }
    }
}
