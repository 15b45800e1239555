//! # storage — pluggable per-replica storage engines
//!
//! The store's protocol layer (`kvstore`) keeps every replica's per-key
//! states behind `kvstore::data::DataStore`, whose mutation doors
//! (`mutate` / `remove` / `clear`) maintain the anti-entropy index
//! incrementally. This crate supplies the layer *below* those doors:
//! a [`StorageEngine`] trait with the primitive state operations
//! (apply / remove / clear / iterate / snapshot), and two engines —
//!
//! * [`MemEngine`]: the original in-memory `BTreeMap`, zero overhead,
//!   nothing survives a crash;
//! * [`LogEngine`]: an append-only record log in the spirit of bitcask —
//!   varint-framed, checksummed records reusing the [`dvv::encode`]
//!   codecs, every state held in memory (one map, each key's slot also
//!   carrying its latest record's length, so reads never touch the
//!   disk and no second index exists), batched group-sync with a
//!   configurable durability interval — each group written and synced
//!   by the log's own writer thread while the caller goes on appending —
//!   and size-triggered compaction that rewrites live records and
//!   truncates the dead tail. Opening a
//!   log replays it (tolerating a torn final record) so a crashed
//!   replica comes back with everything it had durably synced. The file
//!   format is `doc/log_format.md`.
//!
//! The engines are deliberately *behaviour-identical* from the protocol
//! layer's point of view: the same workload driven over a `MemEngine`-
//! and a `LogEngine`-backed replica must produce byte-identical per-key
//! states (an equivalence the kvstore recovery suite asserts). Both keep
//! their states in one ordered map of stable slots, so a write looks its
//! key up once and copies the key only when it is new.
//!
//! [`StorageEngine::apply`] is the only door that writes, and a read
//! writes only what it changes: the protocol layer calls it for a GET
//! only when the read brought the coordinator something new, so a read
//! of a key that is in sync, or that no replica holds, costs no record
//! and creates no key.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod log;
pub mod mem;
mod slots;

pub use log::{scan_history, LogConfig, LogEngine, LogStats};
pub use mem::MemEngine;

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A stored key — the same byte-string keys the store uses.
pub type Key = Vec<u8>;

/// The primitive per-key state operations a replica's storage backend
/// must provide. The anti-entropy index layer above (`DataStore`) calls
/// only through this trait, so it is backend-agnostic: whether states
/// live in a plain map or behind a durable log is invisible to the
/// protocol.
///
/// `Send` is a supertrait because engines travel with their node across
/// the threaded runtime's worker threads.
///
/// The repo benchmark (`perfbench/`, a package of its own) implements
/// this trait — its `TracedEngine` times every call into a `LogEngine` —
/// so the method set is frozen with `perfbench/`: adding, removing or
/// re-signing a method breaks the benchmark build.
pub trait StorageEngine<S>: fmt::Debug + Send {
    /// The state stored for `key`, if any.
    fn get(&self, key: &[u8]) -> Option<&S>;

    /// Whether `key` is stored.
    fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Number of stored keys.
    fn len(&self) -> usize;

    /// Whether no keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mutates (inserting `init()` first if absent) the state for `key`
    /// and returns the post-mutation state. This is the single write
    /// door: a durable engine records the post-state here.
    fn apply(
        &mut self,
        key: &[u8],
        init: &mut dyn FnMut() -> S,
        mutate: &mut dyn FnMut(&mut S),
    ) -> &S;

    /// Removes `key`. Returns whether it was stored.
    fn remove(&mut self, key: &[u8]) -> bool;

    /// Drops every key.
    fn clear(&mut self);

    /// `(key, state)` pairs in key order.
    fn iter(&self) -> Box<dyn Iterator<Item = (&Key, &S)> + '_>;

    /// A detached, purely in-memory copy of the current contents (the
    /// copy shares no durability with the original). No crate of the
    /// workspace calls it; `perfbench`'s traced engine implements it.
    fn snapshot(&self) -> Box<dyn StorageEngine<S>>;

    /// Forces any buffered writes to durable storage. No-op for purely
    /// in-memory engines.
    fn sync(&mut self);

    /// The dot-mint reservation `(incarnation_epoch, counter_ceiling)`
    /// this engine recovered or last stored, if any.
    ///
    /// The reservation is the storage half of the store's dot-reuse
    /// epoch guard: before minting a dot past its last reservation, a
    /// replica durably records a new counter ceiling, so a crash that
    /// loses the unsynced data tail can never roll the mint counter back
    /// below dots that already escaped to peers.
    fn load_reservation(&self) -> Option<(u64, u64)> {
        None
    }

    /// Durably records the dot-mint reservation. Unlike data appends,
    /// this **must** reach stable storage before returning regardless of
    /// the engine's group-sync cadence — the caller is about to mint
    /// dots up to `ceiling` and let them escape to peers. No-op for
    /// purely in-memory engines (which lose everything on crash anyway,
    /// and with it every escaped dot's minting replica state).
    fn store_reservation(&mut self, epoch: u64, ceiling: u64) {
        let _ = (epoch, ceiling);
    }

    /// Short stable engine name for reports ("mem", "log").
    fn kind(&self) -> &'static str;
}

/// FNV-1a 64-bit — the record checksum. Self-contained so log files
/// have a stable format independent of `std`'s hasher internals.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fresh scratch directory under the system temp dir, unique per
/// process and call — shared helper for the crash/recovery test suites
/// (no external tempdir crate in this build environment). The caller
/// owns cleanup; leaking under `/tmp` on test failure is acceptable.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("storage-{}-{}-{}", tag, std::process::id(), n));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // reference vectors for FNV-1a 64
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn scratch_dirs_are_unique() {
        let a = scratch_dir("t");
        let b = scratch_dir("t");
        assert_ne!(a, b);
        std::fs::remove_dir_all(a).ok();
        std::fs::remove_dir_all(b).ok();
    }
}
