//! Dedicated encode/decode round-trip coverage for `dvv::encode`:
//! `decode(encode(x)) == x` for [`VersionVector`], [`Dvv`] and
//! [`DvvSet`], whose decoder rebuilds per-actor entries (counter, live
//! values) whose dots are implied. Also pins `encoded_len` against actual
//! output length and checks truncation always errors instead of
//! panicking.
//!
//! The second half holds every mechanism's state and context codec to
//! one contract, on states and contexts built by random executions (as
//! `random_executions.rs` builds them): round trip, the size identity
//! `encoding = metadata_size + Σ value encodings`, no strict prefix
//! parsing back to the value, no panic on a flipped byte, and no
//! reservation a count prefix alone can inflate.

use dvv::encode::{from_bytes, put_varint, to_bytes, Decoder, Encode};
use dvv::mechanisms::{
    CausalHistoryMechanism, DvvMechanism, DvvSetMechanism, LamportMechanism, Mechanism,
    OrderedVvMechanism, VvClientMechanism, VvServerMechanism, VveMechanism, WireMechanism,
    WriteOrigin,
};
use dvv::{ClientId, Dot, Dvv, DvvSet, ReplicaId, VersionVector};
use proptest::collection::vec;
use proptest::prelude::*;

const ACTORS: u32 = 4;

fn arb_vv() -> impl Strategy<Value = VersionVector<ReplicaId>> {
    vec((0..ACTORS, 0u64..40), 0..10).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter(|(_, c)| *c > 0)
            .map(|(a, c)| (ReplicaId(a), c))
            .collect()
    })
}

fn arb_dvv() -> impl Strategy<Value = Dvv<ReplicaId>> {
    ((0..ACTORS, 1u64..40), arb_vv()).prop_map(|((a, c), mut vv)| {
        let dot = Dot::new(ReplicaId(a), c);
        if vv.contains(&dot) {
            vv.set(ReplicaId(a), c - 1);
        }
        Dvv::new(dot, vv)
    })
}

/// One step in a DvvSet-building script: a write through `server`,
/// either informed (context from a fresh read) or blind, carrying
/// `vlen` payload bytes.
#[derive(Clone, Debug)]
struct SetStep {
    server: u32,
    informed: bool,
    vlen: usize,
}

fn arb_script(server_base: u32) -> impl Strategy<Value = Vec<SetStep>> {
    vec(
        (0..ACTORS, any::<bool>(), 0usize..6).prop_map(move |(s, informed, vlen)| SetStep {
            server: server_base + s,
            informed,
            vlen,
        }),
        0..12,
    )
}

/// Builds a structurally-valid DvvSet the only way real systems do: by
/// running the update protocol. Every reachable entry shape (multiple
/// siblings per actor, actors with knowledge but no live values) shows
/// up across scripts.
fn build_set(script: &[SetStep]) -> DvvSet<ReplicaId, Vec<u8>> {
    let mut set = DvvSet::new();
    for (i, step) in script.iter().enumerate() {
        let ctx = if step.informed {
            set.context()
        } else {
            VersionVector::new()
        };
        set.update(&ctx, ReplicaId(step.server), vec![i as u8; step.vlen]);
    }
    set
}

proptest! {
    #[test]
    fn roundtrip_version_vector(a in arb_vv()) {
        let bytes = to_bytes(&a);
        prop_assert_eq!(bytes.len(), a.encoded_len());
        let back: VersionVector<ReplicaId> = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn roundtrip_dvv(d in arb_dvv()) {
        let bytes = to_bytes(&d);
        prop_assert_eq!(bytes.len(), d.encoded_len());
        let back: Dvv<ReplicaId> = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, d);
    }

    #[test]
    fn roundtrip_dvvset(script in arb_script(0)) {
        let set = build_set(&script);
        let bytes = to_bytes(&set);
        prop_assert_eq!(bytes.len(), set.encoded_len());
        let back: DvvSet<ReplicaId, Vec<u8>> = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, set);
    }

    /// Merged states must round-trip too: sync produces entry shapes
    /// (interleaved winners from both sides) that single-branch updates
    /// never reach. Branches use disjoint server ids, as distinct
    /// physical replicas would.
    #[test]
    fn roundtrip_dvvset_after_sync(a in arb_script(0), b in arb_script(ACTORS)) {
        let merged = build_set(&a).sync(&build_set(&b));
        let bytes = to_bytes(&merged);
        prop_assert_eq!(bytes.len(), merged.encoded_len());
        let back: DvvSet<ReplicaId, Vec<u8>> = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, merged);
    }

    /// Every strict prefix of a valid encoding is invalid — the decoder
    /// reports an error rather than panicking or fabricating a value.
    #[test]
    fn truncation_always_errors(script in arb_script(0), cut in 0usize..64) {
        let set = build_set(&script);
        let bytes = to_bytes(&set);
        prop_assume!(!bytes.is_empty());
        let cut = cut % bytes.len();
        let r = from_bytes::<DvvSet<ReplicaId, Vec<u8>>>(&bytes[..cut]);
        prop_assert!(r.is_err(), "decoding a strict prefix must fail");
    }
}

/// A step of a random execution over 3 servers and 4 client sessions.
#[derive(Clone, Debug)]
enum Op {
    /// Client `c` reads at server `s`, joining the context into its own.
    Read { c: usize, s: usize },
    /// Client `c` writes its context through server `s`, then reads.
    Write { c: usize, s: usize },
    /// Servers `a` and `b` exchange states.
    Sync { a: usize, b: usize },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0usize..4, 0usize..3).prop_map(|(c, s)| Op::Read { c, s }),
        (0usize..4, 0usize..3).prop_map(|(c, s)| Op::Write { c, s }),
        (0usize..3, 0usize..3).prop_map(|(a, b)| Op::Sync { a, b }),
    ];
    vec(op, 1..40)
}

/// Runs `ops` under `mech`: every server's state and every session's
/// context at the end. Values are unique per write, some past 128 bytes
/// so states reach two-byte varints.
fn execute<M: Mechanism<Vec<u8>>>(mech: &M, ops: &[Op]) -> (Vec<M::State>, Vec<M::Context>) {
    let mut servers = vec![M::State::default(); 3];
    let mut ctxs = vec![M::Context::default(); 4];
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Read { c, s } => mech.merge_contexts(&mut ctxs[c], &mech.read(&servers[s]).1),
            Op::Write { c, s } => {
                let origin = WriteOrigin::new(ReplicaId(s as u32), ClientId(c as u64));
                let value = vec![i as u8; (i * 37) % 150];
                mech.write(&mut servers[s], origin, &ctxs[c], value);
                mech.merge_contexts(&mut ctxs[c], &mech.read(&servers[s]).1);
            }
            Op::Sync { a, b } => {
                let from_b = servers[b].clone();
                mech.merge(&mut servers[a], &from_b);
                let from_a = servers[a].clone();
                mech.merge(&mut servers[b], &from_a);
            }
        }
    }
    (servers, ctxs)
}

/// `bytes` decodes back to exactly `x` through `decode`; no strict prefix
/// of it does; and no single flipped byte makes `decode` panic.
fn check_bytes<T: PartialEq + core::fmt::Debug>(
    what: &str,
    x: &T,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Option<T>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(decode(bytes).as_ref(), Some(x), "{} round trip", what);
    for cut in 0..bytes.len() {
        prop_assert!(
            decode(&bytes[..cut]).as_ref() != Some(x),
            "{} parsed back from a {}-byte prefix",
            what,
            cut
        );
    }
    for i in 0..bytes.len() {
        for mask in [0x01, 0x80, 0xff] {
            let mut bad = bytes.to_vec();
            bad[i] ^= mask;
            let _ = decode(&bad);
        }
    }
    Ok(())
}

/// The codec contract, for every state and context `ops` leaves behind.
fn check_codecs<M>(mech: &M, ops: &[Op]) -> Result<(), TestCaseError>
where
    M: WireMechanism<Vec<u8>>,
    M::Context: PartialEq,
{
    let name = mech.name();
    let (states, ctxs) = execute(mech, ops);
    for st in &states {
        let mut bytes = Vec::new();
        mech.encode_state(st, &mut bytes);
        prop_assert_eq!(
            &bytes,
            &to_bytes(st),
            "{}: encode_state is the state's Encode",
            name
        );
        let values: usize = mech.read(st).0.iter().map(Encode::encoded_len).sum();
        prop_assert_eq!(
            bytes.len(),
            mech.metadata_size(st) + values,
            "{}: a state's bytes are its metadata plus its values",
            name
        );
        check_bytes(name, st, &bytes, |b| {
            let mut d = Decoder::new(b);
            mech.decode_state(&mut d)
                .ok()
                .filter(|_| d.remaining() == 0)
        })?;
    }
    for ctx in &ctxs {
        let mut bytes = Vec::new();
        mech.encode_context(ctx, &mut bytes);
        prop_assert_eq!(
            bytes.len(),
            mech.context_size(ctx),
            "{}: context size",
            name
        );
        check_bytes(name, ctx, &bytes, |b| {
            let mut d = Decoder::new(b);
            mech.decode_context(&mut d)
                .ok()
                .filter(|_| d.remaining() == 0)
        })?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All eight mechanisms meet the one codec contract on the states and
    /// contexts real executions produce.
    #[test]
    fn every_mechanism_codec_roundtrips_at_its_metadata_size(ops in arb_ops()) {
        check_codecs(&DvvMechanism, &ops)?;
        check_codecs(&DvvSetMechanism, &ops)?;
        check_codecs(&CausalHistoryMechanism, &ops)?;
        check_codecs(&VvClientMechanism::unbounded(), &ops)?;
        check_codecs(&VvClientMechanism::pruned(2), &ops)?;
        check_codecs(&VvServerMechanism, &ops)?;
        check_codecs(&LamportMechanism, &ops)?;
        check_codecs(&OrderedVvMechanism, &ops)?;
        check_codecs(&VveMechanism, &ops)?;
    }
}

/// A count prefix is never trusted for pre-allocation: a state or context
/// that claims 2^64 − 1 elements (or live values) in a few bytes is an
/// error, reached without reserving room for the claim — a decoder sizes
/// a reservation by what the remaining input could hold.
#[test]
fn hostile_counts_error_without_reserving() {
    fn reject<T: Encode>(what: &str) {
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX);
        // a DvvSet entry claiming u64::MAX − 1 live values under
        // counter u64::MAX, then no values at all
        let mut live = vec![1, 0];
        put_varint(&mut live, u64::MAX);
        put_varint(&mut live, u64::MAX - 1);
        for bytes in [huge.clone(), [huge, vec![0, 1, 1]].concat(), live] {
            assert!(from_bytes::<T>(&bytes).is_err(), "{what}: {bytes:?}");
        }
    }
    type St<M> = <M as Mechanism<Vec<u8>>>::State;
    type Ctx<M> = <M as Mechanism<Vec<u8>>>::Context;
    reject::<St<DvvMechanism>>("dvv state");
    reject::<St<DvvSetMechanism>>("dvvset state");
    reject::<St<CausalHistoryMechanism>>("causal-history state");
    reject::<St<VvClientMechanism>>("vv-client state");
    reject::<St<VvServerMechanism>>("vv-server state");
    reject::<St<LamportMechanism>>("lamport state");
    reject::<St<OrderedVvMechanism>>("ordered-vv state");
    reject::<St<VveMechanism>>("vve state");
    reject::<Ctx<DvvMechanism>>("version-vector context");
    reject::<Ctx<CausalHistoryMechanism>>("causal-history context");
    reject::<Ctx<VvClientMechanism>>("vv-client context");
    reject::<Ctx<OrderedVvMechanism>>("ordered-vv context");
    reject::<Ctx<VveMechanism>>("vve context");
}

#[test]
fn varint_boundaries_roundtrip() {
    use dvv::encode::varint_len;
    for v in [
        0u64,
        1,
        127,
        128,
        16_383,
        16_384,
        u64::from(u32::MAX),
        u64::MAX - 1,
        u64::MAX,
    ] {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        assert_eq!(buf.len(), varint_len(v), "length mismatch for {v}");
        let mut d = Decoder::new(&buf);
        assert_eq!(d.varint().unwrap(), v, "round-trip mismatch for {v}");
        assert_eq!(d.remaining(), 0);
    }
}

#[test]
fn empty_structures_roundtrip() {
    let vv = VersionVector::<ReplicaId>::new();
    assert_eq!(
        from_bytes::<VersionVector<ReplicaId>>(&to_bytes(&vv)).unwrap(),
        vv
    );
    let set = DvvSet::<ReplicaId, Vec<u8>>::new();
    assert_eq!(
        from_bytes::<DvvSet<ReplicaId, Vec<u8>>>(&to_bytes(&set)).unwrap(),
        set
    );
}
