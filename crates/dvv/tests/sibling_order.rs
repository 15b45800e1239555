//! Sibling order is canonical: for every mechanism whose state is a flat
//! `(clock, value)` list, merging `b` into `a` and `a` into `b` leaves the
//! identical list — not merely the same set. Two replicas that held one
//! set in two orders would fingerprint differently, find every merge a
//! no-op, and exchange the set by anti-entropy forever.

use dvv::mechanisms::{
    CausalHistoryMechanism, Mechanism, OrderedVvMechanism, VvClientMechanism, VvServerMechanism,
    VveMechanism, WriteOrigin,
};
use dvv::{ClientId, ReplicaId};
use proptest::prelude::*;

/// `(server, client, informed)`: a write through `server` by `client`,
/// blind or with the context of a fresh read.
type Step = (u32, u64, bool);

fn arb_script() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u32..3, 0u64..4, any::<bool>()), 0..8)
}

/// Runs `script` on top of `st`. `base` offsets servers, clients and
/// values, so two branches never mint the same event.
fn extend<M: Mechanism<u64>>(mech: &M, st: &mut M::State, script: &[Step], base: u32) {
    for (i, &(server, client, informed)) in script.iter().enumerate() {
        let ctx = if informed {
            mech.read(st).1
        } else {
            M::Context::default()
        };
        let origin = WriteOrigin::new(
            ReplicaId(base + server),
            ClientId(u64::from(base) * 100 + client),
        );
        mech.write(st, origin, &ctx, u64::from(base) * 1000 + i as u64);
    }
}

/// A shared history, then two divergent branches of it: the siblings the
/// branches still share must deduplicate, the rest must interleave the
/// same way from either side.
fn check<M: Mechanism<u64>>(
    mech: &M,
    shared: &[Step],
    left: &[Step],
    right: &[Step],
) -> Result<(), TestCaseError> {
    let mut a = M::State::default();
    extend(mech, &mut a, shared, 0);
    let mut b = a.clone();
    extend(mech, &mut a, left, 3);
    extend(mech, &mut b, right, 6);

    let mut ab = a.clone();
    mech.merge(&mut ab, &b);
    let mut ba = b.clone();
    mech.merge(&mut ba, &a);
    prop_assert_eq!(&ab, &ba, "{}: merge(a, b) != merge(b, a)", mech.name());

    // Once merged, a replica's state is a fixed point of the exchange.
    let mut again = ab.clone();
    mech.merge(&mut again, &ba);
    prop_assert_eq!(&again, &ab, "{}: a settled merge moved", mech.name());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn merge_order_is_canonical(
        shared in arb_script(),
        left in arb_script(),
        right in arb_script(),
    ) {
        check(&VvClientMechanism::unbounded(), &shared, &left, &right)?;
        check(&VvClientMechanism::pruned(2), &shared, &left, &right)?;
        check(&VvServerMechanism, &shared, &left, &right)?;
        check(&CausalHistoryMechanism, &shared, &left, &right)?;
        check(&VveMechanism, &shared, &left, &right)?;
        check(&OrderedVvMechanism, &shared, &left, &right)?;
    }
}
