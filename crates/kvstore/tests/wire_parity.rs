//! Wire parity: for **every** `Msg` variant, the hand-derived
//! `Msg::wire_size` must equal `Msg::encode_transport(..).len()` — the
//! byte accounting the benchmarks report is exactly what the codec
//! emits and the socket driver ships — and `decode_transport` must be
//! the encoder's inverse. The spot checks in `messages.rs` pin a
//! handful of shapes; this suite walks all of them with arbitrary keys,
//! payloads, states, contexts and ring views.

use dvv::mechanisms::{DvvMechanism, Mechanism, WriteOrigin};
use dvv::{ClientId, ReplicaId, VersionVector};
use kvstore::messages::Msg;
use kvstore::value::{Key, StampedValue, WriteId};
use proptest::collection::{btree_map, vec};
use proptest::prelude::*;
use ring::{MemberStatus, RingView};

type M = DvvMechanism;
type State = <M as Mechanism<StampedValue>>::State;
type Ctx = <M as Mechanism<StampedValue>>::Context;

fn arb_key() -> impl Strategy<Value = Key> {
    vec(any::<u8>(), 0..20)
}

fn arb_value() -> impl Strategy<Value = StampedValue> {
    (0u64..1 << 16, 1u64..1 << 32, 0usize..64).prop_map(|(client, seq, len)| {
        StampedValue::new(WriteId::new(ClientId(client), seq), vec![0xa5; len])
    })
}

/// A state grown by real mechanism writes, so its metadata shape (dots,
/// version vectors, sibling sets) is whatever `DvvMechanism` actually
/// produces rather than a hand-built approximation.
fn arb_state() -> impl Strategy<Value = State> {
    vec((0u64..8, 0u64..8, 0usize..48), 1..5).prop_map(|writes| {
        let mech = DvvMechanism;
        let mut st = State::default();
        for (i, (replica, client, len)) in writes.into_iter().enumerate() {
            let client = ClientId(client);
            mech.write(
                &mut st,
                WriteOrigin::new(ReplicaId(replica as u32), client),
                &VersionVector::new(),
                StampedValue::new(WriteId::new(client, i as u64 + 1), vec![0x5a; len]),
            );
        }
        st
    })
}

fn arb_ctx() -> impl Strategy<Value = Ctx> {
    btree_map(0u64..64, 1u64..1 << 40, 0..8).prop_map(|m| {
        m.into_iter()
            .map(|(r, c)| (ReplicaId(r as u32), c))
            .collect()
    })
}

/// Views with mixed statuses, incarnations and tombstones — the shapes
/// gossip actually ships, not just fresh `from_members` views.
fn arb_view() -> impl Strategy<Value = RingView<ReplicaId>> {
    vec((0u64..24, 0u64..1 << 20, 0u8..4), 1..12).prop_map(|entries| {
        let mut view = RingView::from_members([ReplicaId(0)]);
        for (id, inc, status) in entries {
            let status = match status {
                0 => MemberStatus::Up,
                1 => MemberStatus::Joining,
                2 => MemberStatus::Leaving,
                _ => MemberStatus::Removed,
            };
            view.set(ReplicaId(id as u32), inc, status);
        }
        view
    })
}

fn arb_entries() -> impl Strategy<Value = Vec<(Key, State)>> {
    btree_map(arb_key(), arb_state(), 0..6).prop_map(|m| m.into_iter().collect())
}

fn arb_leaves() -> impl Strategy<Value = Vec<(Key, u64)>> {
    btree_map(arb_key(), any::<u64>(), 0..10).prop_map(|m| m.into_iter().collect())
}

fn arb_arcs() -> impl Strategy<Value = Vec<(u32, u64)>> {
    btree_map(0u64..512, any::<u64>(), 0..16)
        .prop_map(|m| m.into_iter().map(|(a, r)| (a as u32, r)).collect())
}

fn check(mech: &M, msg: &Msg<M>) -> Result<(), TestCaseError> {
    // The bytes on the wire cost exactly what the model charges…
    let real = msg.encode_transport(mech);
    prop_assert_eq!(
        msg.wire_size(mech),
        real.len(),
        "wire_size disagrees with encode_transport() for {:?}",
        msg
    );
    // …and parse back to the same message (compared by re-encoding,
    // since Msg doesn't implement PartialEq).
    let back = Msg::<M>::decode_transport(mech, &real);
    prop_assert!(
        back.is_ok(),
        "decode_transport failed for {:?}: {:?}",
        msg,
        back.err()
    );
    prop_assert_eq!(
        back.unwrap().encode_transport(mech),
        real,
        "transport roundtrip is not the identity for {:?}",
        msg
    );
    Ok(())
}

proptest! {
    /// Every variant, arbitrary contents:
    /// `wire_size == encode_transport().len()`, and the bytes round-trip.
    #[test]
    fn wire_size_matches_encoding_for_every_variant(
        req in any::<u64>(),
        key in arb_key(),
        digest in any::<u64>(),
        root in any::<u64>(),
        id in any::<u64>(),
        ok in any::<bool>(),
        joining in any::<bool>(),
        value in arb_value(),
        values in vec(arb_value(), 0..4),
        state in arb_state(),
        ctx in arb_ctx(),
        view in arb_view(),
        entries in arb_entries(),
        leaves in arb_leaves(),
        arcs in arb_arcs(),
        hinted in any::<bool>(),
        hint_id in 0u64..64,
        want_keys in btree_map(arb_key(), Just(()), 0..5),
        summary in btree_map(0u64..64, any::<u64>(), 0..10),
        want_members in btree_map(0u64..64, Just(()), 0..6),
    ) {
        let mech = DvvMechanism;
        let hint = hinted.then_some(ReplicaId(hint_id as u32));
        let who = view.members().first().copied().unwrap_or(ReplicaId(0));
        let summary: Vec<(ReplicaId, u64)> =
            summary.into_iter().map(|(r, k)| (ReplicaId(r as u32), k)).collect();
        let delta_entries: Vec<(ReplicaId, ring::MemberEntry)> = view
            .members()
            .into_iter()
            .filter_map(|m| view.entry(&m).map(|e| (m, *e)))
            .collect();
        // id and key lists ride the gap-delta / prefix codecs, which
        // (like every call site in the protocol) require sorted,
        // duplicate-free input
        let want_keys: Vec<Key> = want_keys.into_keys().collect();
        let want_members: Vec<ReplicaId> =
            want_members.into_keys().map(|r| ReplicaId(r as u32)).collect();
        let scoped_arcs: Vec<u32> = arcs.iter().map(|&(a, _)| a).collect();

        let msgs: Vec<Msg<M>> = vec![
            Msg::ClientGet { req, key: key.clone(), digest },
            Msg::ClientGetResp { req, ok, values: values.clone(), ctx: ctx.clone() },
            Msg::ClientPut {
                req,
                key: key.clone(),
                value: value.clone(),
                ctx: ctx.clone(),
                digest,
            },
            Msg::ClientPutResp { req, ok, values, ctx: ctx.clone() },
            Msg::RepGet { req, key: key.clone() },
            Msg::RepGetResp { req, key: key.clone(), state: state.clone() },
            Msg::RepPut { req, key: key.clone(), state: state.clone(), hint },
            Msg::RepPutAck { req },
            Msg::ReadRepair { key: key.clone(), state: state.clone(), hint },
            Msg::AaeRoot { root, digest },
            Msg::AaeArcRoots { arcs, digest },
            Msg::AaeLeaves { leaves: leaves.clone(), arcs: None, digest },
            Msg::AaeLeaves { leaves, arcs: Some(scoped_arcs), digest },
            Msg::AaeStates { states: entries.clone(), want: want_keys.clone() },
            Msg::AaeStatesResp { states: entries.clone() },
            Msg::RepWrite {
                req,
                key: key.clone(),
                value,
                ctx,
                hint,
            },
            Msg::RepWriteResp { req, key: key.clone(), state },
            Msg::JoinAnnounce { view: view.clone(), who, joining },
            Msg::Rejoin { view: view.clone() },
            Msg::RangeTransfer { id, entries: entries.clone() },
            Msg::TransferAck { id },
            Msg::RingEpoch { view },
            Msg::RingSummary { entries: summary },
            Msg::RingDelta { entries: delta_entries, want: want_members },
            Msg::GossipDigest { digest },
            Msg::Handoff { entries },
            Msg::HandoffAck { keys: want_keys },
        ];
        for msg in &msgs {
            check(&mech, msg)?;
        }
    }
}
