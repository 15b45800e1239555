//! [`DvvSetMechanism`]: the compact sibling-set clock as a store mechanism.

use crate::dvvset::DvvSet;
use crate::encode::{Encode, StateLayout};
use crate::ids::ReplicaId;
use crate::version_vector::VersionVector;

use super::{Mechanism, WireMechanism, WriteOrigin};

/// The DVVSet variant: the whole sibling set shares one clock, so causal
/// metadata costs one version vector total instead of one per sibling.
///
/// Functionally equivalent to [`super::DvvMechanism`] (same values survive
/// the same schedules); the difference is metadata size and per-operation
/// cost — quantified by experiment E9.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DvvSetMechanism;

impl<V: Clone + core::fmt::Debug + Eq + core::hash::Hash + Send + 'static> Mechanism<V>
    for DvvSetMechanism
{
    type State = DvvSet<ReplicaId, V>;
    type Context = VersionVector<ReplicaId>;

    fn name(&self) -> &'static str {
        "dvvset"
    }

    fn read(&self, state: &Self::State) -> (Vec<V>, Self::Context) {
        (state.values().cloned().collect(), state.context())
    }

    fn write(&self, state: &mut Self::State, origin: WriteOrigin, ctx: &Self::Context, value: V) {
        state.update(ctx, origin.server, value);
    }

    fn merge(&self, local: &mut Self::State, remote: &Self::State) {
        local.sync_into(remote);
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
        state.sibling_count()
    }
}

impl<V: Clone + core::fmt::Debug + Eq + core::hash::Hash + Send + 'static + Encode> WireMechanism<V>
    for DvvSetMechanism
{
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    fn origin(s: u32, c: u64) -> WriteOrigin {
        WriteOrigin::new(ReplicaId(s), ClientId(c))
    }

    type State = DvvSet<ReplicaId, String>;

    #[test]
    fn read_modify_write_replaces() {
        let m = DvvSetMechanism;
        let mut st = State::default();
        let (_, ctx) = m.read(&st);
        m.write(&mut st, origin(0, 1), &ctx, "v1".into());
        let (_, ctx) = m.read(&st);
        m.write(&mut st, origin(0, 1), &ctx, "v2".into());
        let (vals, _) = m.read(&st);
        assert_eq!(vals, vec!["v2".to_string()]);
    }

    #[test]
    fn concurrent_writes_become_siblings() {
        let m = DvvSetMechanism;
        let mut st = State::default();
        let (_, ctx) = m.read(&st);
        m.write(&mut st, origin(0, 1), &ctx, "a".into());
        m.write(&mut st, origin(0, 2), &ctx, "b".into());
        assert_eq!(m.sibling_count(&st), 2);
    }

    #[test]
    fn merge_converges() {
        let m = DvvSetMechanism;
        let mut a = State::default();
        let mut b = State::default();
        m.write(&mut a, origin(0, 1), &VersionVector::new(), "x".into());
        m.write(&mut b, origin(1, 2), &VersionVector::new(), "y".into());
        let a0 = a.clone();
        m.merge(&mut a, &b);
        m.merge(&mut b, &a0);
        assert_eq!(a, b, "states converge exactly");
        assert_eq!(m.sibling_count(&a), 2);
    }

    #[test]
    fn metadata_is_flat_in_sibling_count() {
        let m = DvvSetMechanism;
        let mut st = State::default();
        for i in 0..50 {
            m.write(
                &mut st,
                origin(0, i),
                &VersionVector::new(),
                format!("v{i}"),
            );
        }
        assert_eq!(m.sibling_count(&st), 50);
        // One server entry no matter how many concurrent clients:
        assert_eq!(st.actor_count(), 1);
        let meta = m.metadata_size(&st);
        assert!(
            meta < 16,
            "dvvset metadata should be a few bytes, got {meta}"
        );
    }
}
