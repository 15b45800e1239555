//! [`DataStore`]: a replica's per-key states with a persistent,
//! ownership-partitioned anti-entropy index.
//!
//! Every mutation updates one per-arc [`MerkleSummary`] in place — so
//! building the summary a peer exchange needs is a matter of
//! *selecting* arcs, not scanning the keyspace. The arcs are the ring's
//! token arcs ([`ring::HashRing::arc_bounds`]): on every arc a key's
//! preference list is constant, so "the keys this node and peer both
//! replicate" is a union of whole arcs, and (because Merkle roots
//! XOR-combine, see [`crate::merkle::MerkleSummary::root`]) its root is
//! the XOR of the selected arcs' cached roots.
//!
//! The store keeps no per-key metadata of its own. A key's ring point
//! is [`ring::hash_key`] of the key, hashed whenever it is needed (a
//! short key hashes faster than a tree lookup finds it), and the
//! fingerprint of its state is its leaf in its arc's summary.
//!
//! All mutation goes through [`DataStore::mutate`] / [`DataStore::
//! remove`] / [`DataStore::clear`], which keep the summaries consistent
//! by construction. Mutations are cheap: a write only marks its key
//! *dirty*; the fingerprint refresh and summary update are deferred to
//! [`DataStore::flush`], which the read points (anti-entropy tick/root
//! receipt, transfer snapshots, re-partition) run first — so a hot key
//! written a thousand times between AAE ticks is fingerprinted once,
//! and the write path never hashes a state. A read writes only what it
//! changes: the read doors ([`DataStore::get`], [`DataStore::leaf_of`])
//! touch neither the engine's log nor the dirty set, and a coordinator
//! calls [`DataStore::mutate`] at the end of a read only when the read
//! brought something its copy lacks — a GET of a key no replica holds
//! stores nothing. [`DataStore::audit_index`]
//! rebuilds everything from scratch and compares (modulo the pending
//! dirty refreshes, whose invariant it checks too), and is exercised by
//! the incremental-vs-rebuild proptest oracle.
//!
//! The states themselves live *below* the summaries, behind the
//! [`StorageEngine`] seam: the mutation doors forward state changes to
//! the engine, which is also what answers for the stored keys, so the
//! whole Merkle/arc-summary layer is backend-agnostic — an in-memory
//! [`MemEngine`] by default, or a durable [`storage::LogEngine`] whose
//! replay-on-open rebuilds the store after a crash (see
//! [`DataStore::with_engine`]).

use std::collections::BTreeSet;
use std::hash::Hash;

use ring::{arc_index, hash_key};
use storage::{MemEngine, StorageEngine};

use crate::merkle::{fingerprint, MerkleSummary};
use crate::value::Key;

/// Index of the arc containing `key`'s ring point — [`ring::arc_index`],
/// the one shared boundary/wrap convention, so the summaries bucket
/// exactly like the ring's own arc lookups.
fn arc_of(bounds: &[u64], key: &[u8]) -> usize {
    arc_index(bounds, hash_key(key))
}

/// A replica's per-key states plus the incrementally maintained per-arc
/// Merkle summaries (see the module docs).
#[derive(Debug)]
pub struct DataStore<S: 'static> {
    /// Where the states live; all state mutation goes through here.
    engine: Box<dyn StorageEngine<S>>,
    /// The arc partition the summaries are keyed by — a copy of the
    /// current ring's [`ring::HashRing::arc_bounds`] (empty ⇒ one
    /// catch-all arc).
    bounds: Vec<u64>,
    /// One summary per arc, parallel to `bounds` (at least one).
    summaries: Vec<MerkleSummary>,
    /// Keys written since the last [`DataStore::flush`]: their summary
    /// leaf is pending refresh. Keeping the write path to a set insert
    /// (instead of a state hash + summary update per write) is what lets
    /// the AAE index ride the client hot path for free — hot keys
    /// coalesce.
    dirty: BTreeSet<Key>,
}

/// Cloning snapshots the engine ([`StorageEngine::snapshot`]): the copy
/// is a detached in-memory image of the states — audits clone a store
/// to flush it hypothetically — and shares no durability with the
/// original.
impl<S> Clone for DataStore<S> {
    fn clone(&self) -> Self {
        DataStore {
            engine: self.engine.snapshot(),
            bounds: self.bounds.clone(),
            summaries: self.summaries.clone(),
            dirty: self.dirty.clone(),
        }
    }
}

impl<S: Clone + Send + 'static> Default for DataStore<S> {
    fn default() -> Self {
        Self::with_engine(Box::new(MemEngine::new()))
    }
}

impl<S: Clone + Hash + Send + 'static> DataStore<S> {
    /// Creates an empty in-memory store with a single catch-all arc.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl<S: Clone + Send + 'static> DataStore<S> {
    /// Builds a store on top of `engine`, adopting whatever it already
    /// holds (a durable engine arrives pre-populated from replay): all
    /// adopted keys are marked dirty, so the first [`DataStore::flush`]
    /// — which re-partition runs — fingerprints them into the summaries.
    #[must_use]
    pub fn with_engine(engine: Box<dyn StorageEngine<S>>) -> Self {
        let dirty = engine.iter().map(|(key, _)| key.clone()).collect();
        DataStore {
            engine,
            bounds: Vec::new(),
            summaries: vec![MerkleSummary::new()],
            dirty,
        }
    }

    /// The backing engine's short name ("mem", "log").
    #[must_use]
    pub fn engine_kind(&self) -> &'static str {
        self.engine.kind()
    }

    /// Forces buffered engine writes to durable storage (no-op for the
    /// in-memory engine). Harness hook for graceful-shutdown scenarios.
    pub fn sync_storage(&mut self) {
        self.engine.sync();
    }

    /// The engine's dot-mint reservation `(epoch, ceiling)`, if any —
    /// [`storage::StorageEngine::load_reservation`].
    #[must_use]
    pub fn load_reservation(&self) -> Option<(u64, u64)> {
        self.engine.load_reservation()
    }

    /// Durably records the dot-mint reservation before minting into the
    /// reserved range — [`storage::StorageEngine::store_reservation`].
    pub fn store_reservation(&mut self, epoch: u64, ceiling: u64) {
        self.engine.store_reservation(epoch, ceiling);
    }
}

impl<S: Clone + Hash + Send + 'static> DataStore<S> {
    /// The state stored for `key`, if any.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<&S> {
        self.engine.get(key)
    }

    /// Whether `key` is stored.
    #[must_use]
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.engine.contains(key)
    }

    /// Number of stored keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// Whether no keys are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// The stored keys, in order.
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.engine.iter().map(|(k, _)| k)
    }

    /// The stored states, in key order.
    pub fn values(&self) -> impl Iterator<Item = &S> {
        self.engine.iter().map(|(_, s)| s)
    }

    /// `(key, state)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &S)> {
        self.engine.iter()
    }

    /// The state fingerprint of `key`, if stored: `fingerprint` of the
    /// stored state, read once from the engine — what its summary leaf
    /// holds once the pending refreshes are flushed, and what it already
    /// holds for a clean key. A read writes only what it changes, so
    /// this is a read door too: it neither marks the key dirty nor
    /// refreshes its leaf.
    #[must_use]
    pub fn leaf_of(&self, key: &[u8]) -> Option<u64> {
        self.engine.get(key).map(fingerprint)
    }

    /// Mutates (inserting a default first if absent) the state for
    /// `key` and marks it dirty; the fingerprint and summary refresh is
    /// deferred to [`DataStore::flush`]. Returns the post-mutation
    /// state.
    pub fn mutate(&mut self, key: &[u8], f: impl FnOnce(&mut S)) -> &S
    where
        S: Default,
    {
        if !self.dirty.contains(key) {
            self.dirty.insert(key.to_vec());
        }
        let mut f = Some(f);
        self.engine.apply(key, &mut S::default, &mut |state| {
            if let Some(f) = f.take() {
                f(state);
            }
        })
    }

    /// Applies every pending dirty refresh: re-fingerprints each dirty
    /// key and updates its arc summary. Run by every reader of the
    /// per-arc summaries (AAE tick and root receipt, re-partition) and
    /// O(dirty keys) — a hot key written many times between flushes is
    /// hashed once.
    pub fn flush(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        for key in std::mem::take(&mut self.dirty) {
            let Some(state) = self.engine.get(&key) else {
                continue;
            };
            let leaf = fingerprint(state);
            self.summaries[arc_of(&self.bounds, &key)].set(key, leaf);
        }
    }

    /// Whether any dirty refresh is pending (test/audit hook).
    #[must_use]
    pub fn has_pending_refresh(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Removes `key` (and its summary leaf). Returns whether it was
    /// stored.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        if !self.engine.remove(key) {
            return false;
        }
        self.dirty.remove(key);
        self.summaries[arc_of(&self.bounds, key)].remove(key);
        true
    }

    /// Drops every key and empties all summaries (the arc partition is
    /// kept).
    pub fn clear(&mut self) {
        self.engine.clear();
        self.dirty.clear();
        for s in &mut self.summaries {
            *s = MerkleSummary::new();
        }
    }

    /// Re-partitions the summaries for a new ring: adopts `bounds` (the
    /// new ring's arc boundaries) and re-buckets every leaf of the old
    /// summaries into the new ones. O(keys · log arcs) after flushing
    /// the pending refreshes, paid only on view changes — no state is
    /// re-fingerprinted.
    pub fn repartition(&mut self, bounds: Vec<u64>) {
        self.flush();
        self.bounds = bounds;
        let fresh = vec![MerkleSummary::new(); self.bounds.len().max(1)];
        let old = std::mem::replace(&mut self.summaries, fresh);
        for (k, leaf) in old.iter().flat_map(MerkleSummary::leaves) {
            self.summaries[arc_of(&self.bounds, &k)].set(k, leaf);
        }
    }

    /// The arc partition currently indexed (empty ⇒ one catch-all arc).
    #[must_use]
    pub fn arc_bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Cached root of arc `idx` (0 for an out-of-range arc — the XOR
    /// identity, so absent arcs contribute nothing to a combined root).
    #[must_use]
    pub fn arc_root(&self, idx: usize) -> u64 {
        self.summaries.get(idx).map_or(0, MerkleSummary::root)
    }

    /// The maintained summary of arc `idx`, if in range.
    #[must_use]
    pub fn arc_summary(&self, idx: usize) -> Option<&MerkleSummary> {
        self.summaries.get(idx)
    }

    /// Rebuilds the per-arc summaries and roots from scratch — every
    /// stored state fingerprinted into its key's arc — and compares them
    /// with the incrementally maintained ones (after functionally
    /// applying the pending dirty refreshes, whose own invariant — a
    /// dirty key is stored — is checked too). This is the safety net for
    /// the whole incremental-AAE refactor: any mutation path that forgets
    /// to mark its key dirty, or any flush that misses one, shows up
    /// here. It also audits the engine seam: the summaries and the
    /// engine must hold the same keys.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn audit_index(&self) -> Result<(), String> {
        // what flush() would produce, computed without mutating self
        let mut maintained_after_flush = self.summaries.clone();
        for key in &self.dirty {
            let Some(state) = self.engine.get(key) else {
                return Err(format!("dirty key {key:?} is not stored"));
            };
            maintained_after_flush[arc_of(&self.bounds, key)].set_ref(key, fingerprint(state));
        }
        let mut fresh = vec![MerkleSummary::new(); self.summaries.len()];
        for (k, state) in self.engine.iter() {
            fresh[arc_of(&self.bounds, k)].set(k.clone(), fingerprint(state));
        }
        for (idx, (maintained, rebuilt)) in maintained_after_flush.iter().zip(&fresh).enumerate() {
            if maintained.leaves() != rebuilt.leaves() {
                return Err(format!(
                    "arc {idx}: maintained leaves {:?} != rebuilt {:?}",
                    maintained.leaves(),
                    rebuilt.leaves()
                ));
            }
            if maintained.root() != rebuilt.root() {
                return Err(format!(
                    "arc {idx}: maintained root {} != rebuilt {}",
                    maintained.root(),
                    rebuilt.root()
                ));
            }
        }
        Ok(())
    }
}

impl<'a, S: Clone + Hash + Send + 'static> IntoIterator for &'a DataStore<S> {
    type Item = (&'a Key, &'a S);
    type IntoIter = Box<dyn Iterator<Item = (&'a Key, &'a S)> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{scratch_dir, LogConfig, LogEngine};

    fn bounds4() -> Vec<u64> {
        vec![u64::MAX / 4, u64::MAX / 2, u64::MAX / 4 * 3, u64::MAX - 7]
    }

    #[test]
    fn mutate_remove_clear_keep_the_index_consistent() {
        let mut d: DataStore<u64> = DataStore::new();
        d.repartition(bounds4());
        for i in 0..50u8 {
            d.mutate(&[i], |s| *s += u64::from(i) + 1);
            assert!(d.audit_index().is_ok());
            if i % 7 == 0 {
                d.flush(); // audit must hold flushed and unflushed alike
                assert!(d.audit_index().is_ok());
            }
        }
        assert_eq!(d.len(), 50);
        for i in (0..50u8).step_by(3) {
            assert!(d.remove(&[i]));
            d.audit_index().expect("consistent after remove");
        }
        assert!(!d.remove(b"absent"));
        d.mutate(b"x", |s| *s = 9);
        assert_eq!(
            d.leaf_of(b"x"),
            Some(fingerprint(&9u64)),
            "leaf_of computes on demand while the key is dirty"
        );
        d.flush();
        assert!(!d.has_pending_refresh());
        assert_eq!(d.get(b"x"), Some(&9));
        assert_eq!(d.leaf_of(b"x"), Some(fingerprint(&9u64)));
        d.clear();
        assert!(d.is_empty());
        assert!(!d.has_pending_refresh());
        d.audit_index().expect("consistent after clear");
    }

    #[test]
    fn flush_coalesces_repeated_writes_and_refreshes_summaries() {
        let mut d: DataStore<u64> = DataStore::new();
        for round in 1..=5u64 {
            d.mutate(b"hot", |s| *s = round);
        }
        assert!(d.has_pending_refresh());
        assert_eq!(
            d.arc_summary(0).unwrap().len(),
            0,
            "summary refresh is deferred until flush"
        );
        d.flush();
        assert_eq!(d.arc_summary(0).unwrap().len(), 1);
        assert_eq!(d.leaf_of(b"hot"), Some(fingerprint(&5u64)));
        d.audit_index().expect("consistent after flush");
        // flushing with nothing pending is a no-op
        let root = d.arc_root(0);
        d.flush();
        assert_eq!(d.arc_root(0), root);
        // a dirty key removed before the flush leaves no leaf behind
        d.mutate(b"gone", |s| *s = 1);
        d.remove(b"gone");
        d.flush();
        assert_eq!(d.arc_summary(0).unwrap().len(), 1);
        d.audit_index().expect("consistent after dirty remove");
    }

    #[test]
    fn repartition_rebuckets_without_losing_leaves() {
        let mut d: DataStore<u64> = DataStore::new();
        for i in 0..30u8 {
            d.mutate(&[i], |s| *s = u64::from(i));
        }
        d.flush();
        let single_root: u64 = d.arc_root(0);
        d.repartition(bounds4());
        d.audit_index().expect("consistent after repartition");
        let combined: u64 = (0..4).map(|i| d.arc_root(i)).fold(0, |a, r| a ^ r);
        assert_eq!(
            combined, single_root,
            "XOR of arc roots is partition-independent"
        );
        d.repartition(Vec::new());
        assert_eq!(d.arc_root(0), single_root);
        // repartition flushes pending refreshes before re-bucketing
        d.mutate(&[0], |s| *s = 99);
        d.repartition(bounds4());
        d.audit_index().expect("consistent after dirty repartition");
        assert!(!d.has_pending_refresh());
    }

    #[test]
    fn catch_all_arc_serves_the_empty_partition() {
        let mut d: DataStore<u64> = DataStore::new();
        assert!(d.arc_bounds().is_empty());
        d.mutate(b"k", |s| *s = 1);
        d.flush();
        assert_eq!(d.arc_summary(0).unwrap().len(), 1);
        assert_eq!(d.arc_root(7), 0, "out-of-range arcs read as empty");
        assert!(d.arc_summary(7).is_none());
    }

    #[test]
    fn clone_is_a_detached_snapshot() {
        let mut d: DataStore<u64> = DataStore::new();
        d.mutate(b"k", |s| *s = 1);
        let mut snap = d.clone();
        d.mutate(b"k", |s| *s = 2);
        assert_eq!(snap.get(b"k"), Some(&1));
        snap.flush();
        snap.audit_index().expect("snapshot flushes independently");
        assert!(d.has_pending_refresh(), "original dirtiness untouched");
    }

    #[test]
    fn with_engine_adopts_replayed_contents_and_index_holds() {
        let dir = scratch_dir("adopt");
        let path = dir.join("replica.log");
        {
            let mut log: LogEngine<u64> =
                LogEngine::open(&path, LogConfig::write_through()).unwrap();
            for i in 0..20u8 {
                log.apply(&[i], &mut || 0, &mut |s| *s = u64::from(i) * 3);
            }
        }
        let engine: LogEngine<u64> = LogEngine::open(&path, LogConfig::default()).unwrap();
        let mut d = DataStore::with_engine(Box::new(engine));
        assert_eq!(d.engine_kind(), "log");
        assert_eq!(d.len(), 20);
        assert!(d.has_pending_refresh(), "adopted keys await fingerprinting");
        d.repartition(bounds4());
        d.audit_index().expect("consistent after adoption flush");
        assert_eq!(d.get(&[7u8]), Some(&21));
        // an equivalent store built by replaying the same writes in
        // memory has identical leaves, roots and contents
        let mut mem: DataStore<u64> = DataStore::new();
        for i in 0..20u8 {
            mem.mutate(&[i], |s| *s = u64::from(i) * 3);
        }
        mem.repartition(bounds4());
        for idx in 0..4 {
            assert_eq!(d.arc_root(idx), mem.arc_root(idx), "arc {idx} root");
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
