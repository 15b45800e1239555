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
//! remove`] / [`DataStore::clear`], which keep the summaries current by
//! construction: a write fingerprints its key's new state and sets the
//! key's leaf before it returns, so every reader of the index — the AAE
//! tick, the AAE handlers, re-partition, [`DataStore::leaf_of`] — sees
//! it as of the last write, with nothing to reconcile first. A read
//! writes only what it changes: the read doors ([`DataStore::get`],
//! [`DataStore::leaf_of`]) touch neither the engine's log nor the
//! summaries, and a coordinator calls [`DataStore::mutate`] at the end
//! of a read only when the read brought something its copy lacks — a
//! GET of a key no replica holds stores nothing.
//! [`DataStore::audit_index`] rebuilds everything from scratch and
//! compares, and is exercised by the incremental-vs-rebuild proptest
//! oracle.
//!
//! The states themselves live *below* the summaries, behind the
//! [`StorageEngine`] seam: the mutation doors forward state changes to
//! the engine, which is also what answers for the stored keys, so the
//! whole Merkle/arc-summary layer is backend-agnostic — an in-memory
//! [`MemEngine`] by default, or a durable [`storage::LogEngine`] whose
//! replay-on-open rebuilds the store after a crash (see
//! [`DataStore::with_engine`]).

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
    /// One summary per arc, parallel to `bounds` (at least one); each
    /// stored key's leaf is the fingerprint of its current state.
    summaries: Vec<MerkleSummary>,
}

impl<S: Clone + Hash + Send + 'static> Default for DataStore<S> {
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

    /// Builds a store on top of `engine`, adopting whatever it already
    /// holds (a durable engine arrives pre-populated from replay): every
    /// adopted key is fingerprinted into the catch-all summary, which
    /// the first re-partition re-buckets.
    #[must_use]
    pub fn with_engine(engine: Box<dyn StorageEngine<S>>) -> Self {
        let mut catch_all = MerkleSummary::new();
        for (key, state) in engine.iter() {
            catch_all.set(key.clone(), fingerprint(state));
        }
        DataStore {
            engine,
            bounds: Vec::new(),
            summaries: vec![catch_all],
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

    /// The state fingerprint of `key`, if stored: its leaf in its arc's
    /// summary, which every write keeps equal to `fingerprint` of the
    /// stored state. A read door: it hashes nothing and writes nothing.
    #[must_use]
    pub fn leaf_of(&self, key: &[u8]) -> Option<u64> {
        self.summaries[arc_of(&self.bounds, key)].get(key)
    }

    /// Mutates (inserting a default first if absent) the state for
    /// `key`, then sets the key's leaf in its arc's summary to the new
    /// state's fingerprint. Returns the post-mutation state.
    pub fn mutate(&mut self, key: &[u8], f: impl FnOnce(&mut S)) -> &S
    where
        S: Default,
    {
        let mut f = Some(f);
        let state = self.engine.apply(key, &mut S::default, &mut |state| {
            if let Some(f) = f.take() {
                f(state);
            }
        });
        self.summaries[arc_of(&self.bounds, key)].set_ref(key, fingerprint(state));
        state
    }

    /// Does nothing: every write already keeps the summaries current.
    /// Kept for callers outside the workspace's crates that still run it
    /// before reading the index.
    pub fn flush(&mut self) {}

    /// Removes `key` (and its summary leaf). Returns whether it was
    /// stored.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        if !self.engine.remove(key) {
            return false;
        }
        self.summaries[arc_of(&self.bounds, key)].remove(key);
        true
    }

    /// Drops every key and empties all summaries (the arc partition is
    /// kept).
    pub fn clear(&mut self) {
        self.engine.clear();
        for s in &mut self.summaries {
            *s = MerkleSummary::new();
        }
    }

    /// Re-partitions the summaries for a new ring: adopts `bounds` (the
    /// new ring's arc boundaries) and re-buckets every leaf of the old
    /// summaries into the new ones. O(keys · log arcs), paid only on
    /// view changes — no state is re-fingerprinted.
    pub fn repartition(&mut self, bounds: Vec<u64>) {
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
    /// with the incrementally maintained ones. This is the safety net
    /// for the whole incremental-AAE index: any mutation path that
    /// forgets to set or drop its key's leaf shows up here. It also
    /// audits the engine seam: the summaries and the engine must hold
    /// the same keys.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn audit_index(&self) -> Result<(), String> {
        let mut fresh = vec![MerkleSummary::new(); self.summaries.len()];
        for (k, state) in self.engine.iter() {
            fresh[arc_of(&self.bounds, k)].set(k.clone(), fingerprint(state));
        }
        for (idx, (maintained, rebuilt)) in self.summaries.iter().zip(&fresh).enumerate() {
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
            d.audit_index().expect("consistent after mutate");
        }
        assert_eq!(d.len(), 50);
        for i in (0..50u8).step_by(3) {
            assert!(d.remove(&[i]));
            d.audit_index().expect("consistent after remove");
        }
        assert!(!d.remove(b"absent"));
        d.mutate(b"x", |s| *s = 9);
        assert_eq!(d.get(b"x"), Some(&9));
        assert_eq!(d.leaf_of(b"x"), Some(fingerprint(&9u64)));
        assert_eq!(d.leaf_of(b"absent"), None);
        d.clear();
        assert!(d.is_empty());
        d.audit_index().expect("consistent after clear");
    }

    #[test]
    fn every_write_sets_its_leaf_and_every_remove_drops_it() {
        let mut d: DataStore<u64> = DataStore::new();
        let empty_root = d.arc_root(0);
        d.mutate(b"hot", |s| *s = 1);
        let summary = d.arc_summary(0).unwrap();
        assert_eq!(summary.get(b"hot"), Some(fingerprint(&1u64)));
        assert_eq!(d.leaf_of(b"hot"), Some(fingerprint(&1u64)));
        let first_root = d.arc_root(0);
        assert_ne!(first_root, empty_root, "one write moves the arc root");
        d.mutate(b"hot", |s| *s = 2);
        assert_eq!(d.leaf_of(b"hot"), Some(fingerprint(&2u64)));
        assert_ne!(d.arc_root(0), first_root, "an overwrite moves it again");
        d.audit_index().expect("consistent after overwrite");
        assert!(d.remove(b"hot"));
        assert!(d.arc_summary(0).unwrap().is_empty());
        assert_eq!(d.leaf_of(b"hot"), None);
        assert_eq!(d.arc_root(0), empty_root);
    }

    #[test]
    fn repartition_rebuckets_without_losing_leaves() {
        let mut d: DataStore<u64> = DataStore::new();
        for i in 0..30u8 {
            d.mutate(&[i], |s| *s = u64::from(i));
        }
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
        d.mutate(&[0], |s| *s = 99);
        d.repartition(bounds4());
        d.audit_index()
            .expect("consistent after a write and repartition");
    }

    #[test]
    fn catch_all_arc_serves_the_empty_partition() {
        let mut d: DataStore<u64> = DataStore::new();
        assert!(d.arc_bounds().is_empty());
        d.mutate(b"k", |s| *s = 1);
        assert_eq!(d.arc_summary(0).unwrap().len(), 1);
        assert_eq!(d.arc_root(7), 0, "out-of-range arcs read as empty");
        assert!(d.arc_summary(7).is_none());
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
        d.audit_index()
            .expect("adopted keys are fingerprinted at once");
        d.repartition(bounds4());
        d.audit_index().expect("consistent after repartition");
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
