//! Golden bytes: a fixed corpus covering every `Msg` variant, with the
//! hex of `encode_transport` committed. The round-trip and size-parity
//! suites would pass a *symmetric* format drift (encoder and decoder
//! changed together); this one does not. The table was generated at the
//! commit before the sink refactor (tags 0–25; the conditional-read pair,
//! tags 26 and 27, was appended when it was introduced) and must only
//! ever change together with a deliberate, documented wire-format change
//! — the failure message prints the fresh table to paste. One such change
//! is recorded here: `ReadRepair`, `AaeStatesResp`, `RangeTransfer`,
//! `TransferAck`, `Handoff` and `HandoffAck` (tags 8, 13, 18, 19, 24, 25)
//! became `Push` / `PushAck` (tags 28, 29); their six entries left the
//! table, five were appended, and no surviving entry's bytes moved. A
//! second was the move to one codec per clock: a state stopped being a
//! length prefix plus the mechanism's bytes and became its own
//! self-delimiting layout (for DVV, a sibling count where the length
//! byte was), and a context lost its length byte. Every state- or
//! context-bearing entry was regenerated then, and `MECHANISMS` was
//! added to pin all eight mechanisms' layouts, not only DVV's. A third
//! retired the summary/delta view exchange (tags 21, 22) and the
//! unscoped `AaeLeaves` form: their three entries left the table, the
//! scoped `AaeLeaves` entry lost its presence byte, and no other entry's
//! bytes moved. A fourth retired the delegated write (tags 14, 15): its
//! two entries left the table, no other entry's bytes moved, and
//! `MECHANISMS` carries each state in a `RepGetResp` (the same layout)
//! instead of a `RepWriteResp`, which changed only each state's tag
//! byte. One `MECHANISMS` change was not a format change: once a write
//! of causal-histories, vv-server, ordered-vv or vve left its siblings in
//! the order a merge does, those four entries list the same two siblings
//! (and their contexts the same two values) the other way round; no
//! layout and no other entry moved. The format itself is written up in
//! `doc/wire_format.md`, which the last test here keeps honest.

use dvv::mechanisms::{
    CausalHistoryMechanism, DvvMechanism, DvvSetMechanism, LamportMechanism, Mechanism,
    OrderedVvMechanism, VvClientMechanism, VvServerMechanism, VveMechanism, WireMechanism,
    WriteOrigin,
};
use dvv::{ClientId, ReplicaId, VersionVector};
use kvstore::messages::{Msg, MsgClass};
use kvstore::value::{Key, StampedValue, WriteId};
use ring::{MemberStatus, RingView};

type M = DvvMechanism;
type State = <M as Mechanism<StampedValue>>::State;
type Ctx = <M as Mechanism<StampedValue>>::Context;

fn value(client: u64, seq: u64, payload: &[u8]) -> StampedValue {
    StampedValue::new(WriteId::new(ClientId(client), seq), payload.to_vec())
}

/// Three siblings: two concurrent writes at different replicas and a
/// concurrent tombstone, one of them on top of a non-empty past.
fn siblings() -> State {
    let mech = DvvMechanism;
    let mut st = State::default();
    let blind = VersionVector::new();
    let w = |r, c| WriteOrigin::new(ReplicaId(r), ClientId(c));
    mech.write(&mut st, w(0, 7), &blind, value(7, 1, b"first"));
    let (_, seen) = mech.read(&st);
    mech.write(&mut st, w(300, 7), &seen, value(7, 2, b"second"));
    mech.write(&mut st, w(2, 9), &blind, value(9, 1 << 20, &[0xa5; 40]));
    mech.write(
        &mut st,
        w(0, 11),
        &blind,
        StampedValue::tombstone(WriteId::new(ClientId(11), 3)),
    );
    assert_eq!(st.len(), 3, "corpus state must be multi-sibling");
    st
}

fn single() -> State {
    let mech = DvvMechanism;
    let mut st = State::default();
    let origin = WriteOrigin::new(ReplicaId(5), ClientId(1));
    mech.write(&mut st, origin, &ctx(), value(1, 200, &[0x11; 12]));
    st
}

fn ctx() -> Ctx {
    [(0u32, 3u64), (2, 1 << 33), (300, 129)]
        .into_iter()
        .map(|(r, c)| (ReplicaId(r), c))
        .collect()
}

/// Every status, uneven incarnations, a gap in the ids and a tombstone.
fn view() -> RingView<ReplicaId> {
    let mut view = RingView::from_members([ReplicaId(0), ReplicaId(1)]);
    view.set(ReplicaId(2), 5, MemberStatus::Joining);
    view.set(ReplicaId(9), 1 << 21, MemberStatus::Leaving);
    view.set(ReplicaId(10), 3, MemberStatus::Removed);
    view.set(ReplicaId(400), 130, MemberStatus::Up);
    view
}

fn keyed() -> Vec<(Key, State)> {
    vec![
        (b"user:0001".to_vec(), single()),
        (b"user:0002".to_vec(), siblings()),
        (b"user:01".to_vec(), State::default()),
        (b"zebra".to_vec(), single()),
    ]
}

fn keys() -> Vec<Key> {
    [&b""[..], b"cart:17", b"cart:170", b"cart:2", b"dog"]
        .iter()
        .map(|k| k.to_vec())
        .collect()
}

fn leaves() -> Vec<(Key, u64)> {
    vec![
        (b"user:0001".to_vec(), 0xdead_beef),
        (b"user:0002".to_vec(), 1),
        (b"user:1".to_vec(), u64::MAX - 6),
        (b"v".to_vec(), 0),
    ]
}

fn corpus() -> Vec<(&'static str, Msg<M>)> {
    let key: Key = b"user:0042".to_vec();
    let req = 0x0102_0304_0506_0708;
    let digest = 0xfeed_face_cafe_f00d;
    let hint = Some(ReplicaId(300));
    let tomb = StampedValue::tombstone(WriteId::new(ClientId(1 << 40), 77));
    let values = vec![value(7, 1, b"first"), tomb];
    let view = view();
    vec![
        (
            "ClientGet",
            Msg::ClientGet {
                req,
                key: key.clone(),
                digest,
            },
        ),
        (
            "ClientGetResp",
            Msg::ClientGetResp {
                req,
                ok: true,
                values: values.clone(),
                ctx: ctx(),
            },
        ),
        (
            "ClientPut",
            Msg::ClientPut {
                req,
                key: key.clone(),
                value: value(3, 9, &[0x5a; 130]),
                ctx: ctx(),
                digest,
            },
        ),
        (
            "ClientPutResp",
            Msg::ClientPutResp {
                req,
                ok: false,
                values,
                ctx: Ctx::default(),
            },
        ),
        (
            "RepGet",
            Msg::RepGet {
                req,
                key: key.clone(),
            },
        ),
        (
            "RepGetResp",
            Msg::RepGetResp {
                req,
                key: key.clone(),
                state: siblings(),
            },
        ),
        (
            "RepPut",
            Msg::RepPut {
                req,
                key: key.clone(),
                state: siblings(),
                hint,
            },
        ),
        ("RepPutAck", Msg::RepPutAck { req }),
        (
            "AaeRoot",
            Msg::AaeRoot {
                root: 0x1122_3344_5566_7788,
                digest,
            },
        ),
        (
            "AaeArcRoots",
            Msg::AaeArcRoots {
                arcs: vec![(0, 17), (3, 0xdead_beef_0bad_cafe), (64, 1), (900, 0)],
                digest,
            },
        ),
        (
            "AaeLeaves/scoped",
            Msg::AaeLeaves {
                leaves: leaves(),
                arcs: vec![1, 2, 40, 511],
                digest,
            },
        ),
        (
            "AaeStates",
            Msg::AaeStates {
                states: keyed(),
                want: keys(),
            },
        ),
        ("RingEpoch", Msg::RingEpoch { view }),
        ("GossipDigest", Msg::GossipDigest { digest }),
        (
            "RepGetIf",
            Msg::RepGetIf {
                req,
                key: b"user:0042".to_vec(),
                have: 0x0123_4567_89ab_cdef,
            },
        ),
        ("RepGetSame", Msg::RepGetSame { req }),
        (
            "Push/Replication",
            Msg::Push {
                class: MsgClass::Replication,
                id: None,
                entries: vec![(key, single())],
                hint,
            },
        ),
        (
            "Push/AntiEntropy",
            Msg::Push {
                class: MsgClass::AntiEntropy,
                id: None,
                entries: keyed(),
                hint: None,
            },
        ),
        (
            "Push/Transfer",
            Msg::Push {
                class: MsgClass::Transfer,
                id: Some(u64::MAX - 1),
                entries: keyed(),
                hint: None,
            },
        ),
        (
            "Push/Handoff",
            Msg::Push {
                class: MsgClass::Handoff,
                id: Some(3),
                entries: keyed()[..2].to_vec(),
                hint: None,
            },
        ),
        (
            "PushAck",
            Msg::PushAck {
                class: MsgClass::Transfer,
                id: u64::MAX - 1,
            },
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const GOLDEN: &[(&str, &str)] = &[
    ("ClientGet", "00080706050403020109757365723a303034320df0fecacefaedfe"),
    ("ClientGetResp", "01080706050403020101020701000566697273748080808080204d0100030003028080808020ac028101"),
    ("ClientPut", "02080706050403020109757365723a3030343203090082015a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a030003028080808020ac0281010df0fecacefaedfe"),
    ("ClientPutResp", "03080706050403020100020701000566697273748080808080204d010000"),
    ("RepGet", "04080706050403020109757365723a30303432"),
    ("RepGetResp", "05080706050403020109757365723a30303432030002000b030100020100098080400028a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5ac0201010001070200067365636f6e64"),
    ("RepPut", "06080706050403020109757365723a30303432030002000b030100020100098080400028a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5ac0201010001070200067365636f6e6401ac02"),
    ("RepPutAck", "070807060504030201"),
    ("AaeRoot", "0988776655443322110df0fecacefaedfe"),
    ("AaeArcRoots", "0a0df0fecacefaedfe0400023cc3061100000000000000fecaad0befbeadde01000000000000000000000000000000"),
    ("AaeLeaves/scoped", "0b0df0fecacefaedfe04010025d603040009757365723a30303031080132050131000176efbeadde000000000100000000000000f9ffffffffffffff0000000000000000"),
    ("AaeStates", "0c040009757365723a30303031010501030003028080808020ac02810101c801000c111111111111111111111111080132030002000b030100020100098080400028a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5ac0201010001070200067365636f6e640601310000057a65627261010501030003028080808020ac02810101c801000c1111111111111111111111110500000007636172743a31370701300501320003646f67"),
    ("RingEpoch", "140600000006008503010105808080010382019003"),
    ("GossipDigest", "170df0fecacefaedfe"),
    ("RepGetIf", "1a080706050403020109757365723a30303432efcdab8967452301"),
    ("RepGetSame", "1b0807060504030201"),
    ("Push/Replication", "1c0100010009757365723a30303432010501030003028080808020ac02810101c801000c11111111111111111111111101ac02"),
    ("Push/AntiEntropy", "1c0200040009757365723a30303031010501030003028080808020ac02810101c801000c111111111111111111111111080132030002000b030100020100098080400028a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5ac0201010001070200067365636f6e640601310000057a65627261010501030003028080808020ac02810101c801000c11111111111111111111111100"),
    ("Push/Transfer", "1c0401feffffffffffffff040009757365723a30303031010501030003028080808020ac02810101c801000c111111111111111111111111080132030002000b030100020100098080400028a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5ac0201010001070200067365636f6e640601310000057a65627261010501030003028080808020ac02810101c801000c11111111111111111111111100"),
    ("Push/Handoff", "1c05010300000000000000020009757365723a30303031010501030003028080808020ac02810101c801000c111111111111111111111111080132030002000b030100020100098080400028a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5ac0201010001070200067365636f6e6400"),
    ("PushAck", "1d04feffffffffffffff"),
];

#[test]
fn encode_transport_matches_committed_bytes() {
    let mech = DvvMechanism;
    let fresh: Vec<(&str, String)> = corpus()
        .iter()
        .map(|(name, msg)| (*name, hex(&msg.encode_transport(&mech))))
        .collect();
    let table: String = fresh
        .iter()
        .map(|(name, h)| format!("    ({name:?}, {h:?}),\n"))
        .collect();
    assert_eq!(fresh.len(), GOLDEN.len(), "corpus changed:\n{table}");
    for ((name, got), (gold_name, gold)) in fresh.iter().zip(GOLDEN) {
        assert_eq!(name, gold_name, "corpus reordered:\n{table}");
        assert_eq!(got, gold, "wire format of {name} changed:\n{table}");
    }
}

/// A state-bearing and a context-bearing message under `mech`, both
/// after the same three writes: a blind one at replica 0, one at replica
/// 300 that read it, and a concurrent blind one at replica 2. Returns the
/// mechanism's name and the two messages' hex, after checking each
/// decodes back and costs what it encodes to.
fn mechanism_entry<M: WireMechanism<StampedValue>>(mech: M) -> (&'static str, String, String) {
    let mut st = <M as Mechanism<StampedValue>>::State::default();
    let w = |r, c| WriteOrigin::new(ReplicaId(r), ClientId(c));
    let blind = <M as Mechanism<StampedValue>>::Context::default();
    mech.write(&mut st, w(0, 7), &blind, value(7, 1, b"a"));
    let (_, seen) = mech.read(&st);
    mech.write(&mut st, w(300, 7), &seen, value(7, 2, b"b"));
    mech.write(&mut st, w(2, 9), &blind, value(9, 3, b"c"));
    let (values, ctx) = mech.read(&st);
    let [state, context] = [
        Msg::<M>::RepGetResp {
            req: 1,
            key: b"k".to_vec(),
            state: st,
        },
        Msg::<M>::ClientGetResp {
            req: 1,
            ok: true,
            values,
            ctx,
        },
    ]
    .map(|msg| {
        let bytes = msg.encode_transport(&mech);
        assert_eq!(msg.wire_size(&mech), bytes.len(), "{}", mech.name());
        let back = Msg::<M>::decode_transport(&mech, &bytes).expect("decodes");
        assert_eq!(back.encode_transport(&mech), bytes, "{}", mech.name());
        hex(&bytes)
    });
    (mech.name(), state, context)
}

/// `(mechanism, RepGetResp hex, ClientGetResp hex)` for all eight
/// mechanisms — every state and context layout, pinned.
const MECHANISMS: &[(&str, &str, &str)] = &[
    (
        "dvv",
        "050100000000000000016b020201000903000163ac02010100010702000162",
        "0101000000000000000102090300016307020001620300010201ac0201",
    ),
    (
        "dvvset",
        "050100000000000000016b030001000201010903000163ac0201010702000162",
        "0101000000000000000102090300016307020001620300010201ac0201",
    ),
    (
        "causal-histories",
        "050100000000000000016b020102010903000163020001ac02010702000162",
        "0101000000000000000102090300016307020001620300010201ac0201",
    ),
    (
        "vv-client",
        "050100000000000000016b0201070207020001620109010903000163",
        "0101000000000000000102070200016209030001630207020901",
    ),
    (
        "vv-server",
        "050100000000000000016b020102010903000163020001ac02010702000162",
        "0101000000000000000102090300016307020001620300010201ac0201",
    ),
    (
        "lamport-lww",
        "050100000000000000016b0103090903000163",
        "0101000000000000000101090300016303",
    ),
    (
        "ordered-vv",
        "050100000000000000016b020102010102010903000163020001ac020101ac02010702000162",
        "0101000000000000000102090300016307020001620300010201ac020101ac0201",
    ),
    (
        "vve",
        "050100000000000000016b02020100000903000163ac0201010001000702000162",
        "0101000000000000000102090300016307020001620300010201ac020100",
    ),
];

#[test]
fn every_mechanism_layout_matches_committed_bytes() {
    let fresh = [
        mechanism_entry(DvvMechanism),
        mechanism_entry(DvvSetMechanism),
        mechanism_entry(CausalHistoryMechanism),
        mechanism_entry(VvClientMechanism::unbounded()),
        mechanism_entry(VvServerMechanism),
        mechanism_entry(LamportMechanism),
        mechanism_entry(OrderedVvMechanism),
        mechanism_entry(VveMechanism),
    ];
    let table: String = fresh
        .iter()
        .map(|(name, state, ctx)| format!("    ({name:?}, {state:?}, {ctx:?}),\n"))
        .collect();
    assert_eq!(
        fresh.len(),
        MECHANISMS.len(),
        "mechanisms changed:\n{table}"
    );
    for ((name, state, ctx), (gold_name, gold_state, gold_ctx)) in fresh.iter().zip(MECHANISMS) {
        assert_eq!(name, gold_name, "mechanisms reordered:\n{table}");
        assert_eq!(
            state, gold_state,
            "state layout of {name} changed:\n{table}"
        );
        assert_eq!(ctx, gold_ctx, "context layout of {name} changed:\n{table}");
    }
}

/// Tags of the six variants [`Msg::Push`] / [`Msg::PushAck`] replaced,
/// of `JoinAnnounce` (16) and `Rejoin` (17) — every membership change
/// travels as a [`Msg::RingEpoch`] — of `RingSummary` (21) and
/// `RingDelta` (22): views reconcile by a full `RingEpoch` push alone —
/// and of `RepWrite` (14) and `RepWriteResp` (15): a server outside a
/// key's preference list relays the client's request to an owner.
const RETIRED: [u8; 12] = [8, 13, 14, 15, 16, 17, 18, 19, 21, 22, 24, 25];

/// The corpus is only a format pin if it really spans the protocol:
/// all 18 live variant tags appear, and every message decodes back.
#[test]
fn corpus_covers_every_variant_and_roundtrips() {
    let mech = DvvMechanism;
    let mut tags = std::collections::BTreeSet::new();
    for (name, msg) in corpus() {
        let bytes = msg.encode_transport(&mech);
        tags.insert(bytes[0]);
        let back = Msg::<M>::decode_transport(&mech, &bytes)
            .unwrap_or_else(|e| panic!("{name} does not decode: {e:?}"));
        assert_eq!(back.encode_transport(&mech), bytes, "{name} round trip");
        assert_eq!(msg.wire_size(&mech), bytes.len(), "{name} size");
    }
    assert_eq!(
        tags.into_iter().collect::<Vec<u8>>(),
        (0..30)
            .filter(|tag| !RETIRED.contains(tag))
            .collect::<Vec<u8>>()
    );
}

/// The wire change is closed: a retired tag is never parsed as
/// anything, and the two new header bytes admit only what the sender can
/// produce.
#[test]
fn retired_tags_and_malformed_push_headers_are_rejected() {
    let mech = DvvMechanism;
    let decode = |bytes: &[u8]| Msg::<M>::decode_transport(&mech, bytes);
    // every retired tag, before bodies that used to parse under it
    for (_, msg) in corpus() {
        let mut bytes = msg.encode_transport(&mech);
        for tag in RETIRED {
            bytes[0] = tag;
            assert!(decode(&bytes).is_err(), "retired tag {tag} decoded");
        }
    }
    let push = |name: &str| {
        let (_, msg) = corpus().into_iter().find(|(n, _)| *n == name).unwrap();
        msg.encode_transport(&mech)
    };
    for name in ["Push/Transfer", "Push/Replication", "PushAck"] {
        let good = push(name);
        assert!(decode(&good).is_ok());
        // byte 1 is the class: only replication (1), anti-entropy (2),
        // transfer (4) and handoff (5) are push classes
        for class in [0u8, 3, 6, 0xff] {
            let mut bad = good.clone();
            bad[1] = class;
            assert!(decode(&bad).is_err(), "{name} with class byte {class}");
        }
    }
    // byte 2 of a push is the id's presence byte; an unhinted push ends
    // with the hint's
    for name in ["Push/Transfer", "Push/AntiEntropy"] {
        let mut bad = push(name);
        bad[2] = 2;
        assert!(decode(&bad).is_err(), "{name} with id presence 2");
    }
    let mut bad = push("Push/AntiEntropy");
    *bad.last_mut().unwrap() = 2;
    assert!(decode(&bad).is_err(), "hint presence 2");
}

/// `doc/wire_format.md` is the format's description for someone without
/// this program; it stays one only if its tag table names what the
/// encoder writes. Every corpus variant must appear in a table row
/// beside its tag byte, and every retired tag in a row that says so.
#[test]
fn format_document_lists_every_tag() {
    let doc = include_str!("../../../doc/wire_format.md");
    let row = |tag: u8| {
        let cell = format!("| {tag} |");
        doc.lines()
            .find(|line| line.starts_with(&cell))
            .unwrap_or_else(|| panic!("no tag-table row for tag {tag}"))
    };
    let mech = DvvMechanism;
    for (name, msg) in corpus() {
        let variant = name.split('/').next().unwrap();
        let tag = msg.encode_transport(&mech)[0];
        assert!(
            row(tag).contains(&format!("`{variant}`")),
            "the row of tag {tag} does not name {variant}: {}",
            row(tag)
        );
    }
    for tag in RETIRED {
        assert!(row(tag).contains("never reused"), "{}", row(tag));
    }
}
