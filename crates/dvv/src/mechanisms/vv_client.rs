//! [`VvClientMechanism`]: the classic Riak baseline — one version-vector
//! entry per **client**, with optional (unsafe) optimistic pruning.

use crate::encode::{Encode, StateLayout};
use crate::ids::ClientId;
use crate::version_vector::VersionVector;

use super::{merge_siblings, sort_siblings, Mechanism, WireMechanism, WriteOrigin};

/// Configuration for optimistic pruning of per-client version vectors.
///
/// Real systems (the paper cites Riak) cap vector length by dropping
/// entries once the vector exceeds a threshold. The paper's point is that
/// this is **unsafe**: safe pruning (Golding) needs global knowledge, and
/// optimistic pruning can lose updates and introduce false concurrency.
/// Experiment E6 counts exactly those anomalies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PruneConfig {
    /// Maximum number of entries to keep per version vector. When a write
    /// pushes a vector past this, entries with the smallest counters are
    /// dropped first (a stand-in for Riak's drop-oldest-by-timestamp).
    pub max_entries: usize,
}

impl PruneConfig {
    /// Creates a pruning policy keeping at most `max_entries` entries.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries` is zero.
    #[must_use]
    pub fn new(max_entries: usize) -> Self {
        assert!(
            max_entries > 0,
            "pruning to zero entries would drop the writer itself"
        );
        PruneConfig { max_entries }
    }
}

/// One version-vector entry per client (classic Riak vclocks).
///
/// Precise (every concurrent pair is detected) but the vectors grow with
/// the number of distinct clients that ever wrote the key — the paper's
/// claim 3. With `prune: Some(_)`, vectors stay bounded but causality
/// breaks (claim 4); with `prune: None` they are correct but unbounded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VvClientMechanism {
    /// Optional optimistic pruning — the unsafe practice under study.
    pub prune: Option<PruneConfig>,
}

impl VvClientMechanism {
    /// The safe, unbounded variant.
    #[must_use]
    pub fn unbounded() -> Self {
        VvClientMechanism { prune: None }
    }

    /// The unsafe variant pruning to `max_entries` vector entries.
    #[must_use]
    pub fn pruned(max_entries: usize) -> Self {
        VvClientMechanism {
            prune: Some(PruneConfig::new(max_entries)),
        }
    }

    fn prune_vv(&self, vv: &mut VersionVector<ClientId>, keep: ClientId) {
        let Some(cfg) = self.prune else { return };
        while vv.len() > cfg.max_entries {
            // Drop the entry with the smallest counter, never the writer's.
            let victim = vv
                .iter()
                .filter(|(a, _)| **a != keep)
                .min_by_key(|&(a, c)| (c, *a))
                .map(|(a, _)| *a);
            match victim {
                Some(a) => {
                    vv.forget(&a);
                }
                None => break,
            }
        }
    }
}

impl<V: Clone + core::fmt::Debug + Eq + core::hash::Hash + Send + 'static> Mechanism<V>
    for VvClientMechanism
{
    type State = Vec<(VersionVector<ClientId>, V)>;
    type Context = VersionVector<ClientId>;

    fn name(&self) -> &'static str {
        if self.prune.is_some() {
            "vv-client-pruned"
        } else {
            "vv-client"
        }
    }

    fn read(&self, state: &Self::State) -> (Vec<V>, Self::Context) {
        let mut ctx = VersionVector::new();
        for (vv, _) in state {
            ctx.merge(vv);
        }
        (state.iter().map(|(_, v)| v.clone()).collect(), ctx)
    }

    fn write(&self, state: &mut Self::State, origin: WriteOrigin, ctx: &Self::Context, value: V) {
        // The new version's vector is the context with the client's own
        // entry advanced past everything this replica has seen from it.
        let local_max = state
            .iter()
            .map(|(vv, _)| vv.get(&origin.client))
            .max()
            .unwrap_or(0);
        let mut vv = ctx.clone();
        vv.set(origin.client, local_max.max(ctx.get(&origin.client)) + 1);
        self.prune_vv(&mut vv, origin.client);
        state.retain(|(old, _)| !vv.strictly_dominates(old));
        state.push((vv, value));
        sort_siblings(state);
    }

    fn merge(&self, local: &mut Self::State, remote: &Self::State) {
        merge_siblings(local, remote, |x, y| y.strictly_dominates(x), |x, y| x == y);
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
    for VvClientMechanism
{
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ReplicaId;

    fn origin(c: u64) -> WriteOrigin {
        WriteOrigin::new(ReplicaId(0), ClientId(c))
    }

    type State = Vec<(VersionVector<ClientId>, &'static str)>;

    #[test]
    fn unbounded_tracks_concurrency_correctly() {
        let m = VvClientMechanism::unbounded();
        let mut st = State::default();
        let (_, ctx) = m.read(&st);
        m.write(&mut st, origin(1), &ctx, "v1");
        let (_, ctx1) = m.read(&st);
        // two clients write concurrently with the same context
        m.write(&mut st, origin(2), &ctx1, "a");
        m.write(&mut st, origin(3), &ctx1, "b");
        assert_eq!(m.sibling_count(&st), 2, "both concurrent writes kept");
    }

    #[test]
    fn vector_grows_with_client_count() {
        let m = VvClientMechanism::unbounded();
        let mut st = State::default();
        for c in 0..32 {
            let (_, ctx) = m.read(&st);
            m.write(&mut st, origin(c), &ctx, "v");
        }
        let (_, ctx) = m.read(&st);
        assert_eq!(ctx.len(), 32, "one entry per client — the paper's claim 3");
    }

    #[test]
    fn pruned_vectors_stay_bounded_per_version() {
        let m = VvClientMechanism::pruned(4);
        let mut st = State::default();
        for c in 0..32 {
            let (_, ctx) = m.read(&st);
            m.write(&mut st, origin(c), &ctx, "v");
        }
        assert!(
            st.iter().all(|(vv, _)| vv.len() <= 4),
            "every stored vector is pruned to the bound"
        );
        // …but causality is now broken: dominated versions linger as
        // spurious siblings (false concurrency).
        assert!(m.sibling_count(&st) > 1);
    }

    #[test]
    fn pruning_causes_false_concurrency() {
        // Client 1 writes; client 2 reads it and overwrites (causal).
        // With aggressive pruning, client 1's entry is dropped from the new
        // vector, so the old version no longer appears dominated after a
        // replica exchange — a false conflict the paper predicts.
        let m = VvClientMechanism::pruned(1);
        let mut a = State::default();
        let (_, ctx) = m.read(&a);
        m.write(&mut a, origin(1), &ctx, "v1");
        let snapshot_b = a.clone(); // replica B received v1

        let (_, ctx1) = m.read(&a);
        m.write(&mut a, origin(2), &ctx1, "v2"); // causally after v1, but pruned

        // replica exchange: B still has v1; A has pruned v2
        let mut b = snapshot_b;
        m.merge(&mut b, &a);
        assert!(
            m.sibling_count(&b) > 1,
            "pruning made the causal overwrite look concurrent"
        );
    }

    #[test]
    fn unpruned_same_scenario_is_clean() {
        let m = VvClientMechanism::unbounded();
        let mut a = State::default();
        let (_, ctx) = m.read(&a);
        m.write(&mut a, origin(1), &ctx, "v1");
        let snapshot_b = a.clone();
        let (_, ctx1) = m.read(&a);
        m.write(&mut a, origin(2), &ctx1, "v2");
        let mut b = snapshot_b;
        m.merge(&mut b, &a);
        let (vals, _) = m.read(&b);
        assert_eq!(vals, vec!["v2"], "no false concurrency without pruning");
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(
            Mechanism::<&str>::name(&VvClientMechanism::unbounded()),
            "vv-client"
        );
        assert_eq!(
            Mechanism::<&str>::name(&VvClientMechanism::pruned(8)),
            "vv-client-pruned"
        );
    }

    #[test]
    #[should_panic(expected = "zero entries")]
    fn zero_prune_rejected() {
        let _ = PruneConfig::new(0);
    }
}
