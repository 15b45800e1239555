//! [`VvServerMechanism`]: the Coda/Ficus baseline — plain version vectors
//! with one entry per **server**, which cannot represent concurrent client
//! writes through the same server (the paper's Figure 1b).

use crate::encode::{Encode, StateLayout};
use crate::ids::ReplicaId;
use crate::version_vector::VersionVector;

use super::{merge_siblings, sort_siblings, Mechanism, WireMechanism, WriteOrigin};

/// One version-vector entry per replica server.
///
/// Sufficient for detecting concurrency *between servers* (the distributed
/// file-system setting), but when two clients write through the same
/// server, any vector the server can generate for the second write
/// dominates the first (`[2,0] < [3,0]` in Figure 1b) — silently
/// destroying a truly concurrent sibling. This mechanism exists to exhibit
/// exactly that anomaly; the oracle counts its lost updates in E6/E8.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VvServerMechanism;

impl<V: Clone + core::fmt::Debug + Eq + core::hash::Hash + Send + 'static> Mechanism<V>
    for VvServerMechanism
{
    type State = Vec<(VersionVector<ReplicaId>, V)>;
    type Context = VersionVector<ReplicaId>;

    fn name(&self) -> &'static str {
        "vv-server"
    }

    fn read(&self, state: &Self::State) -> (Vec<V>, Self::Context) {
        let mut ctx = VersionVector::new();
        for (vv, _) in state {
            ctx.merge(vv);
        }
        (state.iter().map(|(_, v)| v.clone()).collect(), ctx)
    }

    fn write(&self, state: &mut Self::State, origin: WriteOrigin, ctx: &Self::Context, value: V) {
        // The server can only advance its own entry; the new vector is the
        // context with this server's counter bumped past local knowledge.
        let local_max = state
            .iter()
            .map(|(vv, _)| vv.get(&origin.server))
            .max()
            .unwrap_or(0);
        let mut vv = ctx.clone();
        vv.set(origin.server, local_max.max(ctx.get(&origin.server)) + 1);
        // VV dominance is all the mechanism can check — and here it wrongly
        // covers concurrent writes from other clients (the Figure 1b flaw).
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
    for VvServerMechanism
{
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    fn origin(s: u32, c: u64) -> WriteOrigin {
        WriteOrigin::new(ReplicaId(s), ClientId(c))
    }

    type State = Vec<(VersionVector<ReplicaId>, &'static str)>;

    #[test]
    fn figure_1b_anomaly_second_concurrent_write_destroys_first() {
        let m = VvServerMechanism;
        let mut a = State::default();

        // v1 = [A:1]
        let (_, ctx0) = m.read(&a);
        m.write(&mut a, origin(0, 1), &ctx0, "v1");
        let (_, ctx1) = m.read(&a);

        // client 1 writes v2 (causal): [A:2]
        m.write(&mut a, origin(0, 1), &ctx1, "v2");
        // client 2 writes v3 with the same old context — truly concurrent
        // with v2, but gets [A:3] which *dominates* [A:2]:
        m.write(&mut a, origin(0, 2), &ctx1, "v3");

        let (vals, _) = m.read(&a);
        assert_eq!(
            vals,
            vec!["v3"],
            "the concurrent sibling v2 was silently destroyed — the paper's Figure 1b"
        );
    }

    #[test]
    fn cross_server_concurrency_is_still_detected() {
        // The setting VV-per-server was designed for works fine.
        let m = VvServerMechanism;
        let mut a = State::default();
        let mut b = State::default();
        m.write(&mut a, origin(0, 1), &VersionVector::new(), "at-a");
        m.write(&mut b, origin(1, 2), &VersionVector::new(), "at-b");
        m.merge(&mut a, &b);
        assert_eq!(m.sibling_count(&a), 2);
    }

    #[test]
    fn causal_overwrite_replaces() {
        let m = VvServerMechanism;
        let mut a = State::default();
        m.write(&mut a, origin(0, 1), &VersionVector::new(), "v1");
        let (_, ctx) = m.read(&a);
        m.write(&mut a, origin(0, 1), &ctx, "v2");
        let (vals, _) = m.read(&a);
        assert_eq!(vals, vec!["v2"]);
    }

    #[test]
    fn metadata_bounded_by_server_count() {
        let m = VvServerMechanism;
        let mut a = State::default();
        for c in 0..64 {
            let (_, ctx) = m.read(&a);
            m.write(&mut a, origin(0, c), &ctx, "v");
        }
        let (_, ctx) = m.read(&a);
        assert_eq!(ctx.len(), 1, "one entry per server — bounded but wrong");
    }
}
