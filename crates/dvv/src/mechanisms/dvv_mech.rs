//! [`DvvMechanism`]: the paper's design — one dotted version vector per
//! sibling, dots assigned at replica servers.

use crate::encode::{Encode, StateLayout};
use crate::ids::ReplicaId;
use crate::server::{self, Tagged};
use crate::version_vector::VersionVector;

use super::{Mechanism, WireMechanism, WriteOrigin};

/// The paper's causality mechanism: each sibling carries a
/// [`Dvv`](crate::dotted::Dvv) whose dot is assigned by the coordinating
/// replica; contexts are plain version vectors with **one entry per
/// replica**, regardless of how many clients write.
///
/// # Examples
///
/// ```
/// use dvv::mechanisms::{DvvMechanism, Mechanism, WriteOrigin};
/// use dvv::{ReplicaId, ClientId};
///
/// let m = DvvMechanism::default();
/// let mut state = Default::default();
/// let origin = WriteOrigin::new(ReplicaId(0), ClientId(1));
/// let (_, ctx) = m.read(&state);
/// m.write(&mut state, origin, &ctx, "v1");
/// let (values, _) = m.read(&state);
/// assert_eq!(values, vec!["v1"]);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DvvMechanism;

impl<V: Clone + core::fmt::Debug + Eq + core::hash::Hash + Send + 'static> Mechanism<V>
    for DvvMechanism
{
    type State = Vec<Tagged<ReplicaId, V>>;
    type Context = VersionVector<ReplicaId>;

    fn name(&self) -> &'static str {
        "dvv"
    }

    fn read(&self, state: &Self::State) -> (Vec<V>, Self::Context) {
        let values = state.iter().map(|t| t.value.clone()).collect();
        (values, server::context(state))
    }

    fn write(&self, state: &mut Self::State, origin: WriteOrigin, ctx: &Self::Context, value: V) {
        server::update(state, ctx, origin.server, value);
    }

    fn write_with_floor(
        &self,
        state: &mut Self::State,
        origin: WriteOrigin,
        ctx: &Self::Context,
        value: V,
        floor: u64,
    ) -> Option<u64> {
        let clock = server::update_with_floor(state, ctx, origin.server, value, floor);
        Some(clock.dot().counter())
    }

    fn dot_map(&self, state: &Self::State) -> Vec<((ReplicaId, u64), V)> {
        state
            .iter()
            .map(|t| {
                let d = t.clock.dot();
                ((*d.actor(), d.counter()), t.value.clone())
            })
            .collect()
    }

    fn merge(&self, local: &mut Self::State, remote: &Self::State) {
        server::sync_into(local, remote);
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
    for DvvMechanism
{
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Decoder;
    use crate::ids::ClientId;

    fn origin(s: u32, c: u64) -> WriteOrigin {
        WriteOrigin::new(ReplicaId(s), ClientId(c))
    }

    type State = Vec<Tagged<ReplicaId, &'static str>>;

    #[test]
    fn read_modify_write_replaces() {
        let m = DvvMechanism;
        let mut st: State = Vec::new();
        let (_, ctx) = m.read(&st);
        m.write(&mut st, origin(0, 1), &ctx, "v1");
        let (vals, ctx) = m.read(&st);
        assert_eq!(vals, vec!["v1"]);
        m.write(&mut st, origin(0, 1), &ctx, "v2");
        let (vals, _) = m.read(&st);
        assert_eq!(vals, vec!["v2"]);
    }

    #[test]
    fn concurrent_clients_both_kept_one_entry_per_server() {
        let m = DvvMechanism;
        let mut st: State = Vec::new();
        let (_, ctx0) = m.read(&st);
        m.write(&mut st, origin(0, 1), &ctx0, "v1");
        let (_, ctx1) = m.read(&st);
        // two clients write with the same context through the same server
        m.write(&mut st, origin(0, 1), &ctx1, "a");
        m.write(&mut st, origin(0, 2), &ctx1, "b");
        assert_eq!(m.sibling_count(&st), 2);
        let (_, ctx) = m.read(&st);
        assert_eq!(ctx.len(), 1, "context has one entry for the single server");
    }

    #[test]
    fn merge_converges_replicas() {
        let m = DvvMechanism;
        let mut a: State = Vec::new();
        let mut b: State = Vec::new();
        m.write(&mut a, origin(0, 1), &VersionVector::new(), "at-a");
        m.write(&mut b, origin(1, 2), &VersionVector::new(), "at-b");
        let a0 = a.clone();
        m.merge(&mut a, &b);
        m.merge(&mut b, &a0);
        assert_eq!(m.sibling_count(&a), 2);
        assert_eq!(m.sibling_count(&b), 2);
        let (mut va, _) = m.read(&a);
        let (mut vb, _) = m.read(&b);
        va.sort();
        vb.sort();
        assert_eq!(va, vb);
    }

    #[test]
    fn metadata_size_counts_clocks_only() {
        let m = DvvMechanism;
        let mut st: State = Vec::new();
        // the empty state is its sibling count, one byte
        assert_eq!(Mechanism::<&str>::metadata_size(&m, &st), 1);
        m.write(&mut st, origin(0, 1), &VersionVector::new(), "v");
        // count, dot (replica, counter), empty past: no value bytes
        assert_eq!(Mechanism::<&str>::metadata_size(&m, &st), 4);
        let (_, ctx) = Mechanism::<&str>::read(&m, &st);
        assert!(Mechanism::<&str>::context_size(&m, &ctx) > 0);
    }

    #[test]
    fn is_empty_default_impl() {
        let m = DvvMechanism;
        let st: State = Vec::new();
        assert!(Mechanism::<&str>::is_empty(&m, &st));
    }

    type WireState = Vec<Tagged<ReplicaId, String>>;

    fn wire_sample() -> WireState {
        let m = DvvMechanism;
        let mut st: WireState = Vec::new();
        let (_, ctx) = m.read(&st);
        m.write(&mut st, origin(0, 1), &ctx, "v1".into());
        let (_, ctx) = m.read(&st);
        // two concurrent writers through two servers → siblings with
        // distinct dots and non-trivial pasts
        m.write(&mut st, origin(0, 1), &ctx, "a".into());
        m.write(&mut st, origin(1, 2), &ctx, "longer-value-b".into());
        st
    }

    #[test]
    fn wire_state_roundtrips_at_exactly_the_modeled_size() {
        let m = DvvMechanism;
        let st = wire_sample();
        let mut buf = Vec::new();
        m.encode_state(&st, &mut buf);
        let modeled = Mechanism::<String>::metadata_size(&m, &st)
            + st.iter().map(|t| t.value.encoded_len()).sum::<usize>();
        assert_eq!(buf.len(), modeled, "bytes are metadata plus values");
        let mut d = Decoder::new(&buf);
        let back = m.decode_state(&mut d).unwrap();
        assert_eq!(d.remaining(), 0);
        assert_eq!(back, st);
    }

    #[test]
    fn wire_context_roundtrips_at_exactly_the_modeled_size() {
        let m = DvvMechanism;
        let st = wire_sample();
        let (_, ctx) = Mechanism::<String>::read(&m, &st);
        let mut buf = Vec::new();
        WireMechanism::<String>::encode_context(&m, &ctx, &mut buf);
        assert_eq!(buf.len(), Mechanism::<String>::context_size(&m, &ctx));
        let mut d = Decoder::new(&buf);
        let back = WireMechanism::<String>::decode_context(&m, &mut d).unwrap();
        assert_eq!(back, ctx);
    }

    #[test]
    fn wire_decode_restores_canonical_order_and_rejects_duplicates() {
        let m = DvvMechanism;
        let mut st = wire_sample();
        // encode in reversed order: decode must restore canonical order
        st.reverse();
        let mut buf = Vec::new();
        m.encode_state(&st, &mut buf);
        let mut d = Decoder::new(&buf);
        let back = m.decode_state(&mut d).unwrap();
        crate::server::canonicalize(&mut st);
        assert_eq!(back, st);

        // a repeated sibling dot is malformed, not a panic
        let mut twice = st.clone();
        twice.push(st[0].clone());
        let mut buf = Vec::new();
        m.encode_state(&twice, &mut buf);
        let mut d = Decoder::new(&buf);
        assert!(WireMechanism::<String>::decode_state(&m, &mut d).is_err());
    }

    #[test]
    fn wire_decode_never_panics_on_torn_input() {
        let m = DvvMechanism;
        let st = wire_sample();
        let mut buf = Vec::new();
        m.encode_state(&st, &mut buf);
        for cut in 0..buf.len() {
            let mut d = Decoder::new(&buf[..cut]);
            // the sibling count up front says how much must follow: a
            // torn state is a clean error, never a short parse
            assert!(
                WireMechanism::<String>::decode_state(&m, &mut d).is_err(),
                "torn input parsed at cut {cut}"
            );
        }
    }
}
