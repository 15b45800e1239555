//! A Merkle summary of a replica's keyspace, used by anti-entropy to
//! detect divergence cheaply before exchanging any state.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use crate::value::Key;

/// Hashes any `Hash` state deterministically (fixed-key SipHash).
#[must_use]
pub fn fingerprint<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Mixes one `(key, leaf)` pair into the 64-bit contribution it XORs into
/// a summary's root. XOR-combining per-leaf mixes makes the root
/// maintainable in O(1) per mutation *and* independent of how the
/// keyspace is partitioned: the root of a union of disjoint summaries is
/// the XOR of their roots, which is what lets ownership-partitioned AAE
/// assemble a shared root from per-arc roots without touching any leaf.
fn leaf_mix(key: &[u8], leaf_hash: u64) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    leaf_hash.hash(&mut h);
    h.finish()
}

/// A two-level Merkle summary: per-key leaf hashes combined into a root.
///
/// Anti-entropy first exchanges roots (8 bytes); only on mismatch are the
/// leaf hashes exchanged (12–40 bytes per key), and only for keys whose
/// leaves differ is actual state shipped. This mirrors Riak's AAE trees,
/// flattened to two levels — sufficient for the simulated scale while
/// keeping message sizes honest.
///
/// # Examples
///
/// ```
/// use kvstore::merkle::MerkleSummary;
/// let mut a = MerkleSummary::new();
/// a.set(b"k1".to_vec(), 11);
/// let mut b = a.clone();
/// assert_eq!(a.root(), b.root());
/// b.set(b"k2".to_vec(), 22);
/// assert_ne!(a.root(), b.root());
/// assert_eq!(a.diff(&b), vec![b"k2".to_vec()]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MerkleSummary {
    leaves: BTreeMap<Key, u64>,
    /// XOR of [`leaf_mix`] over all leaves, maintained incrementally —
    /// [`MerkleSummary::root`] is O(1) instead of re-hashing every leaf.
    /// The empty summary's root is 0.
    root: u64,
}

impl MerkleSummary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        MerkleSummary::default()
    }

    /// Sets the leaf hash for `key`.
    pub fn set(&mut self, key: Key, leaf_hash: u64) {
        if let Some(old) = self.leaves.get_mut(&key) {
            if *old != leaf_hash {
                self.root ^= leaf_mix(&key, *old) ^ leaf_mix(&key, leaf_hash);
                *old = leaf_hash;
            }
            return;
        }
        self.root ^= leaf_mix(&key, leaf_hash);
        self.leaves.insert(key, leaf_hash);
    }

    /// [`MerkleSummary::set`] from a borrowed key: allocates only when
    /// the key is new to the summary (the per-write hot path overwrites
    /// an existing leaf far more often than it inserts one).
    pub fn set_ref(&mut self, key: &[u8], leaf_hash: u64) {
        if let Some(old) = self.leaves.get_mut(key) {
            if *old != leaf_hash {
                self.root ^= leaf_mix(key, *old) ^ leaf_mix(key, leaf_hash);
                *old = leaf_hash;
            }
            return;
        }
        self.root ^= leaf_mix(key, leaf_hash);
        self.leaves.insert(key.to_vec(), leaf_hash);
    }

    /// Removes a key's leaf.
    pub fn remove(&mut self, key: &[u8]) {
        if let Some(old) = self.leaves.remove(key) {
            self.root ^= leaf_mix(key, old);
        }
    }

    /// The leaf hash of `key`, if summarised.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        self.leaves.get(key).copied()
    }

    /// Copies every leaf of `other` into this summary — used to assemble
    /// one summary from disjoint per-arc summaries when a leaf exchange
    /// is actually needed (roots alone combine by XOR, see `leaf_mix`).
    pub fn extend_from(&mut self, other: &MerkleSummary) {
        for (k, v) in &other.leaves {
            self.set(k.clone(), *v);
        }
    }

    /// The root hash over all leaves: XOR of per-leaf mixes, so it is
    /// order- and partition-independent and maintained incrementally by
    /// [`MerkleSummary::set`] / [`MerkleSummary::remove`] — reading it
    /// costs O(1).
    #[must_use]
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Number of keys summarised.
    #[must_use]
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether no keys are summarised.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// The `(key, leaf)` pairs in key order.
    #[must_use]
    pub fn leaves(&self) -> Vec<(Key, u64)> {
        self.leaves.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Keys whose leaf differs from or is missing relative to `other` —
    /// i.e. keys where *other* has data we lack or disagree with.
    #[must_use]
    pub fn diff(&self, other: &MerkleSummary) -> Vec<Key> {
        let mut out = Vec::new();
        for (k, theirs) in &other.leaves {
            if self.leaves.get(k) != Some(theirs) {
                out.push(k.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_reflects_content() {
        let mut a = MerkleSummary::new();
        assert!(a.is_empty());
        let empty_root = a.root();
        a.set(b"x".to_vec(), 1);
        assert_ne!(a.root(), empty_root);
        assert_eq!(a.len(), 1);
        assert_eq!(a.leaves(), [(b"x".to_vec(), 1)]);
        assert_eq!(a.get(b"x"), Some(1));
        assert_eq!(a.get(b"y"), None);
    }

    #[test]
    fn identical_summaries_share_root() {
        let mut a = MerkleSummary::new();
        let mut b = MerkleSummary::new();
        for i in 0..10u8 {
            a.set(vec![i], u64::from(i) * 7);
            b.set(vec![i], u64::from(i) * 7);
        }
        assert_eq!(a.root(), b.root());
        assert!(a.diff(&b).is_empty());
    }

    #[test]
    fn diff_is_directional() {
        let mut a = MerkleSummary::new();
        a.set(b"both".to_vec(), 1);
        a.set(b"only-a".to_vec(), 2);
        let mut b = MerkleSummary::new();
        b.set(b"both".to_vec(), 1);
        b.set(b"only-b".to_vec(), 3);
        assert_eq!(a.diff(&b), vec![b"only-b".to_vec()]);
        assert_eq!(b.diff(&a), vec![b"only-a".to_vec()]);
    }

    #[test]
    fn diff_detects_divergent_values() {
        let mut a = MerkleSummary::new();
        a.set(b"k".to_vec(), 1);
        let mut b = MerkleSummary::new();
        b.set(b"k".to_vec(), 2);
        assert_eq!(a.diff(&b), vec![b"k".to_vec()]);
    }

    #[test]
    fn remove_restores_agreement() {
        let mut a = MerkleSummary::new();
        let mut b = a.clone();
        b.set(b"extra".to_vec(), 9);
        assert_ne!(a.root(), b.root());
        b.remove(b"extra");
        assert_eq!(a.root(), b.root());
        a.remove(b"never-there"); // no-op
    }

    /// From-scratch root: rebuilds a fresh summary with the same leaves —
    /// the oracle the incrementally maintained root must match.
    fn rebuilt_root(s: &MerkleSummary) -> u64 {
        let mut fresh = MerkleSummary::new();
        for (k, v) in s.leaves() {
            fresh.set(k, v);
        }
        fresh.root()
    }

    #[test]
    fn incremental_root_survives_interleaved_sets_and_removes() {
        let mut s = MerkleSummary::new();
        assert_eq!(s.root(), 0, "empty summary has the zero root");
        // interleave sets, overwrites, no-op overwrites, removes, and
        // removes of absent keys; read the root between every step
        let steps: Vec<(bool, u8, u64)> = vec![
            (true, 1, 10),
            (true, 2, 20),
            (true, 1, 11), // overwrite
            (false, 3, 0), // remove absent: no-op
            (true, 3, 30),
            (true, 2, 20), // re-set to a value it once had
            (false, 1, 0),
            (true, 1, 12),
            (true, 1, 12), // no-op overwrite
            (false, 2, 0),
            (false, 2, 0), // double remove
        ];
        for (set, k, v) in steps {
            if set {
                s.set(vec![k], v);
            } else {
                s.remove(&[k]);
            }
            assert_eq!(s.root(), rebuilt_root(&s), "cache diverged after step");
        }
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn root_is_insertion_order_independent() {
        let mut fwd = MerkleSummary::new();
        let mut rev = MerkleSummary::new();
        for i in 0..20u8 {
            fwd.set(vec![i], u64::from(i) * 3 + 1);
        }
        for i in (0..20u8).rev() {
            rev.set(vec![i], u64::from(i) * 3 + 1);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.root(), rev.root());
    }

    #[test]
    fn disjoint_roots_combine_by_xor() {
        // the property ownership-partitioned AAE relies on: the root of a
        // union of disjoint summaries is the XOR of their roots
        let mut a = MerkleSummary::new();
        a.set(b"a1".to_vec(), 1);
        a.set(b"a2".to_vec(), 2);
        let mut b = MerkleSummary::new();
        b.set(b"b1".to_vec(), 3);
        let mut union = a.clone();
        union.extend_from(&b);
        assert_eq!(union.root(), a.root() ^ b.root());
        assert_eq!(union.len(), 3);
        // extend_from an empty summary is a no-op
        let before = union.root();
        union.extend_from(&MerkleSummary::new());
        assert_eq!(union.root(), before);
    }

    #[test]
    fn fingerprint_is_deterministic_and_discriminating() {
        assert_eq!(fingerprint(&42u64), fingerprint(&42u64));
        assert_ne!(fingerprint(&42u64), fingerprint(&43u64));
        assert_eq!(fingerprint(&vec![1u8, 2]), fingerprint(&vec![1u8, 2]));
    }
}
