//! [`LamportMechanism`]: last-writer-wins on a Lamport clock — the
//! strawman that keeps no concurrency information at all.

use crate::encode::{Encode, StateLayout};
use crate::ids::ClientId;

use super::{Mechanism, WireMechanism, WriteOrigin};

/// A single Lamport timestamp per key, ties broken by client id; the store
/// keeps exactly one version and every concurrent write silently loses.
///
/// This is the floor of the design space: minimal metadata (a presence
/// byte and two varints), zero sibling maintenance, and maximal data
/// loss. It anchors the E8 anomaly table — every mechanism should beat
/// it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LamportMechanism;

/// Per-key state: the winning version's timestamp, writer, and value.
pub type LamportState<V> = Option<(u64, ClientId, V)>;

impl<V: Clone + core::fmt::Debug + Eq + core::hash::Hash + Send + 'static> Mechanism<V>
    for LamportMechanism
{
    type State = LamportState<V>;
    type Context = u64;

    fn name(&self) -> &'static str {
        "lamport-lww"
    }

    fn read(&self, state: &Self::State) -> (Vec<V>, Self::Context) {
        match state {
            Some((ts, _, v)) => (vec![v.clone()], *ts),
            None => (Vec::new(), 0),
        }
    }

    fn write(&self, state: &mut Self::State, origin: WriteOrigin, ctx: &Self::Context, value: V) {
        let local = state.as_ref().map(|(ts, _, _)| *ts).unwrap_or(0);
        let ts = local.max(*ctx) + 1;
        let candidate = (ts, origin.client, value);
        if state
            .as_ref()
            .is_none_or(|(lts, lc, _)| (ts, origin.client) > (*lts, *lc))
        {
            *state = Some(candidate);
        }
    }

    fn merge(&self, local: &mut Self::State, remote: &Self::State) {
        let remote_wins = match (&*local, remote) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some((lts, lc, _)), Some((rts, rc, _))) => (rts, rc) > (lts, lc),
        };
        if remote_wins {
            local.clone_from(remote);
        }
    }

    fn merge_contexts(&self, into: &mut Self::Context, from: &Self::Context) {
        *into = (*into).max(*from);
    }

    fn metadata_size(&self, state: &Self::State) -> usize {
        state.metadata_len()
    }

    fn context_size(&self, ctx: &Self::Context) -> usize {
        ctx.encoded_len()
    }

    fn sibling_count(&self, state: &Self::State) -> usize {
        usize::from(state.is_some())
    }
}

impl<V: Clone + core::fmt::Debug + Eq + core::hash::Hash + Send + 'static + Encode> WireMechanism<V>
    for LamportMechanism
{
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ReplicaId;

    fn origin(c: u64) -> WriteOrigin {
        WriteOrigin::new(ReplicaId(0), ClientId(c))
    }

    #[test]
    fn single_writer_behaves() {
        let m = LamportMechanism;
        let mut st: LamportState<&str> = None;
        let (_, ctx) = m.read(&st);
        m.write(&mut st, origin(1), &ctx, "v1");
        let (vals, ctx) = m.read(&st);
        assert_eq!(vals, vec!["v1"]);
        m.write(&mut st, origin(1), &ctx, "v2");
        let (vals, _) = m.read(&st);
        assert_eq!(vals, vec!["v2"]);
    }

    #[test]
    fn concurrent_write_silently_loses() {
        let m = LamportMechanism;
        let mut st: LamportState<&str> = None;
        m.write(&mut st, origin(1), &0, "v1");
        // concurrent (same context) write by a higher client id wins:
        m.write(&mut st, origin(2), &0, "v2");
        let (vals, _) = m.read(&st);
        assert_eq!(vals, vec!["v2"]);
        assert_eq!(m.sibling_count(&st), 1, "no sibling is ever kept");
    }

    #[test]
    fn merge_keeps_highest_timestamp() {
        let m = LamportMechanism;
        let mut a: LamportState<&str> = None;
        let mut b: LamportState<&str> = None;
        m.write(&mut a, origin(1), &0, "at-a");
        m.write(&mut b, origin(2), &0, "at-b");
        m.write(&mut b, origin(2), &1, "at-b2"); // ts 2
        let b0 = b;
        m.merge(&mut a, &b);
        m.merge(&mut b, &a.clone());
        assert_eq!(a, b0, "higher timestamp wins deterministically");
        assert_eq!(a, b);
    }

    #[test]
    fn merge_with_empty_sides() {
        let m = LamportMechanism;
        let mut a: LamportState<&str> = None;
        m.merge(&mut a, &None);
        assert!(a.is_none());
        m.merge(&mut a, &Some((1, ClientId(1), "x")));
        assert!(a.is_some());
        let mut b = a;
        m.merge(&mut b, &None);
        assert_eq!(a, b);
    }

    #[test]
    fn metadata_is_tiny() {
        let m = LamportMechanism;
        let mut st: LamportState<&str> = None;
        // the presence byte alone
        assert_eq!(m.metadata_size(&st), 1);
        m.write(&mut st, origin(1), &0, "v");
        // presence, timestamp 1, client 1
        assert_eq!(m.metadata_size(&st), 3);
    }
}
