//! The message codec seam, for **every** `Msg` variant with arbitrary
//! keys, payloads, states, contexts and ring views: `decode_transport`
//! is the encoder's inverse, and over hostile input — truncated,
//! bit-flipped, spliced or plain arbitrary bytes — it never panics and
//! whatever it accepts is a message that round-trips. `Msg::wire_size`
//! is the encoder's own field walk run over a counting sink, so its
//! agreement with `encode_transport(..).len()` is one smoke assertion
//! here (it still pins the mechanism's modeled sizes against its real
//! codec), not a property of its own.

use dvv::mechanisms::{DvvMechanism, Mechanism, WriteOrigin};
use dvv::{ClientId, ReplicaId, VersionVector};
use kvstore::messages::{Msg, MsgClass};
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

/// One message of every variant, sharing a pool of generated parts.
fn arb_msgs() -> impl Strategy<Value = Vec<Msg<M>>> {
    let scalars = (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        (any::<bool>(), 0u64..64),
    );
    let parts = (
        arb_key(),
        arb_value(),
        vec(arb_value(), 0..4),
        arb_state(),
        arb_ctx(),
        arb_view(),
    );
    let lists = (
        arb_entries(),
        arb_leaves(),
        arb_arcs(),
        btree_map(arb_key(), Just(()), 0..5),
    );
    (scalars, parts, lists).prop_map(|(scalars, parts, lists)| {
        let (req, digest, root, id, ok, (hinted, hint_id)) = scalars;
        let (key, value, values, state, ctx, view) = parts;
        let (entries, leaves, arcs, want_keys) = lists;
        let hint = hinted.then_some(ReplicaId(hint_id as u32));
        // id and key lists ride the gap-delta / prefix codecs, which
        // (like every call site in the protocol) require sorted,
        // duplicate-free input
        let want_keys: Vec<Key> = want_keys.into_keys().collect();
        let scoped_arcs: Vec<u32> = arcs.iter().map(|&(a, _)| a).collect();
        vec![
            Msg::ClientGet {
                req,
                key: key.clone(),
                digest,
            },
            Msg::ClientGetResp {
                req,
                ok,
                values: values.clone(),
                ctx: ctx.clone(),
            },
            Msg::ClientPut {
                req,
                key: key.clone(),
                value,
                ctx: ctx.clone(),
                digest,
            },
            Msg::ClientPutResp {
                req,
                ok,
                values,
                ctx,
            },
            Msg::RepGet {
                req,
                key: key.clone(),
            },
            Msg::RepGetResp {
                req,
                key: key.clone(),
                state: state.clone(),
            },
            Msg::RepGetIf {
                req,
                key: key.clone(),
                have: root,
            },
            Msg::RepGetSame { req },
            Msg::RepPut {
                req,
                key: key.clone(),
                state: state.clone(),
                hint,
            },
            Msg::RepPutAck { req },
            Msg::Push {
                class: MsgClass::Replication,
                id: None,
                entries: vec![(key.clone(), state.clone())],
                hint,
            },
            Msg::AaeRoot { root, digest },
            Msg::AaeArcRoots { arcs, digest },
            Msg::AaeLeaves {
                leaves,
                arcs: scoped_arcs,
                digest,
            },
            Msg::AaeStates {
                states: entries.clone(),
                want: want_keys,
            },
            Msg::Push {
                class: MsgClass::AntiEntropy,
                id: None,
                entries: entries.clone(),
                hint: None,
            },
            Msg::Push {
                class: MsgClass::Transfer,
                id: Some(id),
                entries: entries.clone(),
                hint: None,
            },
            Msg::PushAck {
                class: MsgClass::Transfer,
                id,
            },
            Msg::RingEpoch { view },
            Msg::GossipDigest { digest },
            Msg::Push {
                class: MsgClass::Handoff,
                id: Some(id),
                entries,
                hint,
            },
            Msg::PushAck {
                class: MsgClass::Handoff,
                id,
            },
        ]
    })
}

/// `msg` encodes to bytes that cost what the ledger charges and parse
/// back to an equal message (`Msg` has no `PartialEq`; its canonical
/// bytes and `Debug` form stand in).
fn check(mech: &M, msg: &Msg<M>) -> Result<(), TestCaseError> {
    let real = msg.encode_transport(mech);
    prop_assert_eq!(msg.wire_size(mech), real.len(), "size of {:?}", msg);
    let back = Msg::<M>::decode_transport(mech, &real);
    prop_assert!(
        back.is_ok(),
        "decode_transport failed for {:?}: {:?}",
        msg,
        back.err()
    );
    let back = back.unwrap();
    prop_assert_eq!(format!("{back:?}"), format!("{msg:?}"));
    prop_assert_eq!(
        back.encode_transport(mech),
        real,
        "transport roundtrip is not the identity for {:?}",
        msg
    );
    Ok(())
}

/// Hostile input may be rejected, but never panics — and anything the
/// decoder accepts is a well-formed message in the sense of [`check`].
fn survives(mech: &M, bytes: &[u8]) -> Result<(), TestCaseError> {
    match Msg::<M>::decode_transport(mech, bytes) {
        Ok(msg) => check(mech, &msg),
        Err(_) => Ok(()),
    }
}

proptest! {
    /// Every variant, arbitrary contents: the bytes round-trip.
    #[test]
    fn every_variant_roundtrips(msgs in arb_msgs()) {
        let mech = DvvMechanism;
        for msg in &msgs {
            check(&mech, msg)?;
        }
    }

    /// Fuzzing the seam a socket peer controls: valid encodings
    /// truncated, bit-flipped and spliced into each other, plus
    /// arbitrary bytes behind every variant tag.
    #[test]
    fn hostile_bytes_never_panic_and_accepted_ones_roundtrip(
        msgs in arb_msgs(),
        cut in any::<u64>(),
        flip in any::<u64>(),
        noise in vec(any::<u8>(), 0..96),
    ) {
        let mech = DvvMechanism;
        let encoded: Vec<Vec<u8>> = msgs.iter().map(|m| m.encode_transport(&mech)).collect();
        for (i, bytes) in encoded.iter().enumerate() {
            let at = (cut % bytes.len() as u64) as usize;
            survives(&mech, &bytes[..at])?;

            let mut flipped = bytes.clone();
            let bit = flip % (bytes.len() as u64 * 8);
            flipped[(bit / 8) as usize] ^= 1 << (bit % 8);
            survives(&mech, &flipped)?;

            let donor = &encoded[(i + 1 + (flip % 7) as usize) % encoded.len()];
            let mut spliced = bytes[..at].to_vec();
            spliced.extend_from_slice(&donor[(cut % donor.len() as u64) as usize..]);
            survives(&mech, &spliced)?;
        }
        survives(&mech, &noise)?;
        for tag in 0..=30u8 {
            let mut tagged = vec![tag];
            tagged.extend_from_slice(&noise);
            survives(&mech, &tagged)?;
        }
    }
}
