//! Property coverage for the log record codec and torn-tail replay:
//!
//! * decode ∘ encode = id — a `LogEngine` driven through an arbitrary
//!   put/remove/clear script over protocol-built `DvvSet` states,
//!   synced and reopened, replays to exactly the reference contents;
//! * a log truncated at an *arbitrary* byte boundary replays cleanly:
//!   never panics, recovers exactly the records fully inside the kept
//!   prefix, and reports the discarded remainder as torn-tail bytes;
//! * a log with an arbitrary bit flipped replays cleanly: never
//!   panics, recovers exactly the records before the corrupt one, and
//!   discards the rest (the log trusts nothing past a bad checksum);
//! * compaction judges garbage exactly: under any group-sync cadence,
//!   whenever nothing is buffered the engine's live bytes are the sum of
//!   every live key's latest put as `doc/log_format.md` frames it, its
//!   durable bytes are the file, and it has compacted exactly when a
//!   model applying the garbage ratio at each sync says so.

use std::collections::BTreeMap;

use dvv::encode::{varint_len, Encode};
use dvv::{DvvSet, ReplicaId, VersionVector};
use proptest::collection::vec;
use proptest::prelude::*;
use storage::{LogConfig, LogEngine, StorageEngine};

type State = DvvSet<ReplicaId, Vec<u8>>;
type Reference = BTreeMap<Vec<u8>, State>;

const KEYS: u8 = 4;
const SERVERS: u32 = 3;

/// One step of a storage script: mutate a key's DvvSet through the
/// update protocol (so every reachable sibling/context shape occurs),
/// remove a key, or clear the store.
#[derive(Clone, Debug)]
enum Op {
    Put {
        key: u8,
        server: u32,
        informed: bool,
        vlen: usize,
    },
    Remove {
        key: u8,
    },
    Clear,
}

fn arb_put() -> impl Strategy<Value = Op> {
    (0..KEYS, 0..SERVERS, any::<bool>(), 0usize..6).prop_map(|(key, server, informed, vlen)| {
        Op::Put {
            key,
            server,
            informed,
            vlen,
        }
    })
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // the vendored prop_oneof! picks uniformly; weight by repetition so
    // puts dominate (a store script is mostly writes)
    let op = prop_oneof![
        arb_put(),
        arb_put(),
        arb_put(),
        arb_put(),
        (0..KEYS).prop_map(|key| Op::Remove { key }),
        Just(Op::Clear),
    ];
    vec(op, 0..40)
}

/// Applies step `i` of the script to the in-memory reference.
fn apply_ref(reference: &mut Reference, i: usize, op: &Op) {
    match op {
        Op::Put {
            key,
            server,
            informed,
            vlen,
        } => {
            let set = reference.entry(vec![*key]).or_default();
            let ctx = if *informed {
                set.context()
            } else {
                VersionVector::new()
            };
            set.update(&ctx, ReplicaId(*server), vec![i as u8; *vlen]);
        }
        Op::Remove { key } => {
            reference.remove(&vec![*key]);
        }
        Op::Clear => reference.clear(),
    }
}

/// Applies step `i` to the engine under test, mirroring [`apply_ref`]
/// through the engine's mutation doors.
fn apply_engine(engine: &mut LogEngine<State>, i: usize, op: &Op) {
    match op {
        Op::Put {
            key,
            server,
            informed,
            vlen,
        } => {
            let value = vec![i as u8; *vlen];
            engine.apply(&[*key], &mut State::default, &mut |set| {
                let ctx = if *informed {
                    set.context()
                } else {
                    VersionVector::new()
                };
                set.update(&ctx, ReplicaId(*server), value.clone());
            });
        }
        Op::Remove { key } => {
            engine.remove(&[*key]);
        }
        Op::Clear => engine.clear(),
    }
}

/// The reference contents after replaying the first `n` script steps.
fn reference_after(ops: &[Op], n: usize) -> Reference {
    let mut reference = Reference::new();
    for (i, op) in ops[..n].iter().enumerate() {
        apply_ref(&mut reference, i, op);
    }
    reference
}

fn contents(engine: &LogEngine<State>) -> Reference {
    engine.iter().map(|(k, s)| (k.clone(), s.clone())).collect()
}

/// Write-through, compaction disabled: record boundaries on disk map
/// 1:1 to script steps, which the truncation/corruption properties
/// rely on to predict the recovered prefix.
fn plain_config() -> LogConfig {
    LogConfig {
        compact_min_bytes: u64::MAX,
        ..LogConfig::write_through()
    }
}

/// Writes the script through a fresh engine at `path`, returning per
/// step the durable end offset and the cumulative record count — not
/// every op writes a record (removing an absent key is a no-op).
fn write_script(path: &std::path::Path, ops: &[Op]) -> (Vec<u64>, Vec<u64>) {
    let mut engine: LogEngine<State> = LogEngine::open(path, plain_config()).unwrap();
    let mut ends = Vec::with_capacity(ops.len());
    let mut recs = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        apply_engine(&mut engine, i, op);
        ends.push(engine.durable_bytes());
        recs.push(engine.stats().appends);
    }
    (ends, recs)
}

/// The file bytes of a record whose body is `body_len` bytes, by the
/// document's formula: `varint_len(body_len) + body_len + 8`.
fn framed(body_len: usize) -> u64 {
    (varint_len(body_len as u64) + body_len + 8) as u64
}

/// The framed length of the put record that stores `state` under `key`.
fn put_len(key: &[u8], state: &State) -> u64 {
    let mut bytes = Vec::new();
    state.encode(&mut bytes);
    framed(1 + varint_len(key.len() as u64) + key.len() + bytes.len())
}

fn live_len(reference: &Reference) -> u64 {
    reference.iter().map(|(k, s)| put_len(k, s)).sum()
}

proptest! {
    #[test]
    fn reopen_replays_exactly_the_reference_contents(ops in arb_ops()) {
        let dir = storage::scratch_dir("prop-roundtrip");
        let path = dir.join("log");
        let (_, recs) = write_script(&path, &ops);

        let back: LogEngine<State> = LogEngine::open(&path, plain_config()).unwrap();
        prop_assert_eq!(back.stats().torn_tail_bytes, 0);
        prop_assert_eq!(back.stats().replayed_records, recs.last().copied().unwrap_or(0));
        prop_assert_eq!(contents(&back), reference_after(&ops, ops.len()));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn truncated_tail_recovers_the_intact_record_prefix(
        ops in arb_ops(),
        cut in any::<u64>(),
    ) {
        let dir = storage::scratch_dir("prop-truncate");
        let path = dir.join("log");
        let (ends, recs) = write_script(&path, &ops);

        let total = ends.last().copied().unwrap_or(0);
        let cut_at = cut % (total + 1); // 0..=total
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut_at).unwrap();
        drop(file);

        // the survivors: every op whose records lie fully inside the
        // kept prefix (no-op removes ride along with zero records)
        let survivors = ends.iter().filter(|e| **e <= cut_at).count();
        let boundary = if survivors == 0 { 0 } else { ends[survivors - 1] };
        let survivor_records = if survivors == 0 { 0 } else { recs[survivors - 1] };

        let back: LogEngine<State> = LogEngine::open(&path, plain_config()).unwrap();
        prop_assert_eq!(back.stats().replayed_records, survivor_records);
        prop_assert_eq!(back.stats().torn_tail_bytes, cut_at - boundary);
        prop_assert_eq!(
            back.durable_bytes(),
            boundary,
            "file truncated back to the last intact record"
        );
        prop_assert_eq!(contents(&back), reference_after(&ops, survivors));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bit_flipped_tail_never_panics_and_keeps_the_prefix_before_it(
        ops in arb_ops(),
        flip in any::<u64>(),
        bit in 0u8..8,
    ) {
        let dir = storage::scratch_dir("prop-flip");
        let path = dir.join("log");
        let (ends, recs) = write_script(&path, &ops);

        let total = ends.last().copied().unwrap_or(0);
        prop_assume!(total > 0);
        let at = flip % total;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[at as usize] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        // replay keeps every record that ends at or before the corrupt
        // one's start (the record containing byte `at` is the first
        // whose end offset exceeds `at`); everything after the corrupt
        // record is discarded too — nothing past a bad checksum is
        // trusted
        let survivors = ends.iter().filter(|e| **e <= at).count();
        let boundary = if survivors == 0 { 0 } else { ends[survivors - 1] };
        let survivor_records = if survivors == 0 { 0 } else { recs[survivors - 1] };

        let back: LogEngine<State> = LogEngine::open(&path, plain_config()).unwrap();
        prop_assert_eq!(back.stats().replayed_records, survivor_records);
        prop_assert_eq!(contents(&back), reference_after(&ops, survivors));
        prop_assert_eq!(back.durable_bytes(), boundary);
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), boundary);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compaction_judges_garbage_exactly_at_every_sync(
        ops in arb_ops(),
        sync_every in 1usize..8,
    ) {
        let dir = storage::scratch_dir("prop-compact");
        let path = dir.join("log");
        let cfg = LogConfig {
            sync_every_records: sync_every,
            sync_every_bytes: usize::MAX,
            compact_min_bytes: 0,
        };
        let mut engine: LogEngine<State> = LogEngine::open(&path, cfg).unwrap();
        let mut reference = Reference::new();
        // the model: file bytes, buffered bytes and records, compactions
        let (mut file, mut buffered, mut records, mut compactions) = (0u64, 0u64, 0usize, 0u64);
        for (i, op) in ops.iter().enumerate() {
            let stored = |r: &Reference, key: u8| r.contains_key(&vec![key]);
            let removes = matches!(op, Op::Remove { key } if stored(&reference, *key));
            apply_ref(&mut reference, i, op);
            apply_engine(&mut engine, i, op);
            let record = match op {
                Op::Put { key, .. } => Some(put_len(&[*key], &reference[&vec![*key]])),
                // tag, key length, one-byte key
                Op::Remove { .. } => removes.then(|| framed(3)),
                Op::Clear => Some(framed(1)),
            };
            if let Some(len) = record {
                buffered += len;
                records += 1;
            }
            if records == sync_every {
                file += buffered;
                (buffered, records) = (0, 0);
                let live = live_len(&reference);
                if (file - live) as f64 / file as f64 > LogConfig::COMPACT_GARBAGE_RATIO {
                    compactions += 1;
                    file = live;
                }
            }
            prop_assert_eq!(engine.pending_bytes() as u64, buffered);
            if buffered > 0 {
                continue;
            }
            prop_assert_eq!(engine.live_bytes(), live_len(&reference));
            prop_assert_eq!(engine.durable_bytes(), file);
            prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), file);
            prop_assert_eq!(engine.stats().compactions, compactions);
            let copy = dir.join("copy");
            std::fs::copy(&path, &copy).unwrap();
            let back: LogEngine<State> = LogEngine::open(&copy, plain_config()).unwrap();
            prop_assert_eq!(&contents(&back), &reference);
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
