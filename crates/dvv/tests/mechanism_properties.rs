//! Property tests over the [`Mechanism`] abstraction itself: every
//! implementation — correct or deliberately deficient — must satisfy the
//! replication-lattice laws (merge commutative/associative/idempotent up
//! to sibling order), every state a replica can hold must be a merge
//! fixpoint exactly, and the precise ones must collapse a fully-informed
//! write to a single sibling.

use dvv::mechanisms::{
    CausalHistoryMechanism, DvvMechanism, DvvSetMechanism, LamportMechanism, Mechanism,
    OrderedVvMechanism, VvClientMechanism, VvServerMechanism, VveMechanism, WriteOrigin,
};
use dvv::{ClientId, ReplicaId};
use proptest::prelude::*;

/// One scripted step: a write through `server` by `client`, either blind
/// (empty context) or fully informed (context from a fresh read).
#[derive(Clone, Debug)]
struct Step {
    server: u32,
    client: u64,
    informed: bool,
}

fn arb_script() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0u32..3, 0u64..4, any::<bool>()).prop_map(|(server, client, informed)| Step {
            server,
            client,
            informed,
        }),
        0..12,
    )
}

/// Builds a state by running the script from empty.
///
/// `server_base` and `value_base` keep dots and values globally unique
/// when several divergent branches of one system are built: dots name
/// events, so two branches may only reuse a server id if they share the
/// exact history behind it — simplest is to give each branch its own
/// coordinators, as distinct physical replicas would be.
fn build_branch<M: Mechanism<u64>>(
    mech: &M,
    script: &[Step],
    server_base: u32,
    value_base: u64,
) -> M::State {
    // clients are processes too: branches must not share them either,
    // or client-based clocks would collide exactly like dots would.
    let client_base = u64::from(server_base) * 100;
    let mut st = M::State::default();
    for (i, s) in script.iter().enumerate() {
        let ctx = if s.informed {
            mech.read(&st).1
        } else {
            M::Context::default()
        };
        mech.write(
            &mut st,
            WriteOrigin::new(
                ReplicaId(server_base + s.server),
                ClientId(client_base + s.client),
            ),
            &ctx,
            value_base + i as u64,
        );
    }
    st
}

/// Single-branch build (scripts that never merge can use any ids).
fn build<M: Mechanism<u64>>(mech: &M, script: &[Step]) -> M::State {
    build_branch(mech, script, 0, 0)
}

/// Canonical view of a state: its sorted surviving values.
fn values<M: Mechanism<u64>>(mech: &M, st: &M::State) -> Vec<u64> {
    let (mut v, _) = mech.read(st);
    v.sort_unstable();
    v
}

fn check_lattice<M: Mechanism<u64>>(
    mech: &M,
    a: &[Step],
    b: &[Step],
    c: &[Step],
) -> Result<(), TestCaseError> {
    // three divergent branches of one system: disjoint coordinator sets
    // (so dots stay globally unique) and disjoint value ranges
    let sa = build_branch(mech, a, 0, 0);
    let sb = build_branch(mech, b, 3, 1000);
    let sc = build_branch(mech, c, 6, 2000);

    // commutativity (up to sibling order)
    let mut ab = sa.clone();
    mech.merge(&mut ab, &sb);
    let mut ba = sb.clone();
    mech.merge(&mut ba, &sa);
    prop_assert_eq!(
        values(mech, &ab),
        values(mech, &ba),
        "{} commutativity",
        mech.name()
    );

    // idempotence
    let mut aa = sa.clone();
    mech.merge(&mut aa, &sa);
    prop_assert_eq!(
        values(mech, &aa),
        values(mech, &sa),
        "{} idempotence",
        mech.name()
    );

    // associativity
    let mut ab_c = ab.clone();
    mech.merge(&mut ab_c, &sc);
    let mut bc = sb.clone();
    mech.merge(&mut bc, &sc);
    let mut a_bc = sa.clone();
    mech.merge(&mut a_bc, &bc);
    prop_assert_eq!(
        values(mech, &ab_c),
        values(mech, &a_bc),
        "{} associativity",
        mech.name()
    );

    // merging never invents values
    let mut all: Vec<u64> = values(mech, &sa);
    all.extend(values(mech, &sb));
    for v in values(mech, &ab) {
        prop_assert!(all.contains(&v), "{} invented value {}", mech.name(), v);
    }
    Ok(())
}

/// Every state a replica can hold — one written from empty, and the
/// merge of two divergent ones — is a fixpoint of merging with itself and
/// with the empty state, exactly by `==` and not just up to sibling
/// order: a store that finds its own state changed by such a merge would
/// fingerprint it differently from a replica holding the same siblings.
fn check_stored_states_are_merge_fixpoints<M: Mechanism<u64>>(
    mech: &M,
    a: &[Step],
    b: &[Step],
) -> Result<(), TestCaseError> {
    let written = build_branch(mech, a, 0, 0);
    let mut merged = written.clone();
    mech.merge(&mut merged, &build_branch(mech, b, 3, 1000));
    for st in [written, merged] {
        let mut twice = st.clone();
        mech.merge(&mut twice, &st);
        prop_assert_eq!(&twice, &st, "{}: merge(x, x) == x", mech.name());
        let mut with_empty = st.clone();
        mech.merge(&mut with_empty, &M::State::default());
        prop_assert_eq!(&with_empty, &st, "{}: merge(x, empty) == x", mech.name());
    }
    Ok(())
}

/// Precise mechanisms: a write whose context came from a full read of the
/// state must leave exactly one sibling.
fn check_informed_write_collapses<M: Mechanism<u64>>(
    mech: &M,
    script: &[Step],
) -> Result<(), TestCaseError> {
    let mut st = build(mech, script);
    let ctx = mech.read(&st).1;
    mech.write(
        &mut st,
        WriteOrigin::new(ReplicaId(0), ClientId(99)),
        &ctx,
        u64::MAX,
    );
    prop_assert_eq!(
        mech.sibling_count(&st),
        1,
        "{}: informed write must replace all siblings",
        mech.name()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lattice_laws_all_mechanisms(a in arb_script(), b in arb_script(), c in arb_script()) {
        check_lattice(&DvvMechanism, &a, &b, &c)?;
        check_lattice(&DvvSetMechanism, &a, &b, &c)?;
        check_lattice(&CausalHistoryMechanism, &a, &b, &c)?;
        check_lattice(&VveMechanism, &a, &b, &c)?;
        check_lattice(&VvClientMechanism::unbounded(), &a, &b, &c)?;
        check_lattice(&VvServerMechanism, &a, &b, &c)?;
        check_lattice(&OrderedVvMechanism, &a, &b, &c)?;
        check_lattice(&LamportMechanism, &a, &b, &c)?;
    }

    #[test]
    fn stored_states_are_merge_fixpoints_all_mechanisms(a in arb_script(), b in arb_script()) {
        check_stored_states_are_merge_fixpoints(&DvvMechanism, &a, &b)?;
        check_stored_states_are_merge_fixpoints(&DvvSetMechanism, &a, &b)?;
        check_stored_states_are_merge_fixpoints(&CausalHistoryMechanism, &a, &b)?;
        check_stored_states_are_merge_fixpoints(&VveMechanism, &a, &b)?;
        check_stored_states_are_merge_fixpoints(&VvClientMechanism::unbounded(), &a, &b)?;
        check_stored_states_are_merge_fixpoints(&VvServerMechanism, &a, &b)?;
        check_stored_states_are_merge_fixpoints(&OrderedVvMechanism, &a, &b)?;
        check_stored_states_are_merge_fixpoints(&LamportMechanism, &a, &b)?;
    }

    #[test]
    fn informed_write_collapses_for_precise_mechanisms(script in arb_script()) {
        check_informed_write_collapses(&DvvMechanism, &script)?;
        check_informed_write_collapses(&DvvSetMechanism, &script)?;
        check_informed_write_collapses(&CausalHistoryMechanism, &script)?;
        check_informed_write_collapses(&VveMechanism, &script)?;
        check_informed_write_collapses(&VvClientMechanism::unbounded(), &script)?;
    }

    /// DVV, DVVSet, CH and VVE must agree on surviving values for every
    /// script (they are all exact causality trackers).
    #[test]
    fn precise_mechanisms_agree(script in arb_script()) {
        let dvv = values(&DvvMechanism, &build(&DvvMechanism, &script));
        let dvvset = values(&DvvSetMechanism, &build(&DvvSetMechanism, &script));
        let ch = values(&CausalHistoryMechanism, &build(&CausalHistoryMechanism, &script));
        let vve = values(&VveMechanism, &build(&VveMechanism, &script));
        prop_assert_eq!(&dvv, &dvvset);
        prop_assert_eq!(&dvv, &ch);
        prop_assert_eq!(&dvv, &vve);
    }

    /// The deficient per-server mechanisms never keep MORE than the
    /// precise ones (their failure mode is losing siblings, not inventing
    /// them).
    #[test]
    fn deficient_mechanisms_only_lose(script in arb_script()) {
        let exact = values(&DvvMechanism, &build(&DvvMechanism, &script)).len();
        let vs = values(&VvServerMechanism, &build(&VvServerMechanism, &script)).len();
        let lww = values(&LamportMechanism, &build(&LamportMechanism, &script)).len();
        prop_assert!(vs <= exact);
        prop_assert!(lww <= exact.max(1));
    }
}
