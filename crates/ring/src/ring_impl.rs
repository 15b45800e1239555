//! [`HashRing`]: virtual-node consistent hashing with ring epochs and an
//! arc-indexed preference-list cache.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt::Debug;

use crate::hash::{hash_key, hash_with_seed};

/// Index of the arc containing ring position `point`, for an arc
/// partition given by its sorted upper boundaries (a ring's token
/// points, see [`HashRing::arc_bounds`]): arc `i > 0` covers
/// `(bounds[i-1], bounds[i]]` and arc 0 the wrapping remainder. Returns
/// 0 for an empty partition (the conventional catch-all arc).
///
/// This is the one place the boundary/wrap convention lives — the
/// ring's own lookups and any external per-arc index (e.g. the store's
/// partitioned AAE summaries) must bucket identically or per-arc data
/// would silently disagree with [`HashRing::arc_prefs`].
#[must_use]
pub fn arc_index(bounds: &[u64], point: u64) -> usize {
    match bounds.partition_point(|b| *b < point) {
        i if i == bounds.len() => 0,
        i => i,
    }
}

/// The precomputed arc table of a ring: the token set partitions the
/// 64-bit circle into arcs on which the clockwise distinct-node walk —
/// and therefore every preference list — is constant. One full walk is
/// stored per arc, so a lookup is a binary search plus a slice read
/// instead of a `BTreeMap` range walk with linear dedup.
///
/// Built lazily on first lookup and dropped by every membership change
/// (ring merges rebuild the ring, so invalidation happens exactly on
/// view changes).
#[derive(Clone, Debug)]
struct ArcTable<N> {
    /// Arc upper boundaries: the token points, sorted ascending. Arc `i`
    /// covers every point whose clockwise walk starts at `bounds[i]` —
    /// `(bounds[i-1], bounds[i]]` for `i > 0`, and the wrapping arc
    /// `(bounds.last(), bounds[0]]` for `i == 0`.
    bounds: Vec<u64>,
    /// All per-arc walks, concatenated (flat storage: one allocation for
    /// the whole table instead of one small `Vec` per arc).
    walk_nodes: Vec<N>,
    /// `walk_nodes[offsets[i]..offsets[i + 1]]` is arc `i`'s walk: all
    /// distinct nodes in clockwise token order starting at `bounds[i]` —
    /// any `n`-replica preference list is a prefix of it.
    offsets: Vec<u32>,
}

impl<N: Clone + Ord> ArcTable<N> {
    fn build(tokens: &BTreeMap<u64, N>, nodes: &[N]) -> Self {
        let bounds: Vec<u64> = tokens.keys().copied().collect();
        let owners: Vec<&N> = tokens.values().collect();
        let t = bounds.len();
        let m = nodes.len();
        let mut walk_nodes: Vec<N> = Vec::with_capacity(t * m);
        let mut offsets: Vec<u32> = Vec::with_capacity(t + 1);
        offsets.push(0);
        // generation-stamped seen set: no per-arc reset
        let mut seen = vec![u32::MAX; m];
        for (i, _) in bounds.iter().enumerate() {
            let mut found = 0usize;
            for j in 0..t {
                let owner = owners[(i + j) % t];
                let oi = nodes
                    .binary_search(owner)
                    .expect("every token owner is a member");
                if seen[oi] != i as u32 {
                    seen[oi] = i as u32;
                    walk_nodes.push(owner.clone());
                    found += 1;
                    if found == m {
                        break;
                    }
                }
            }
            offsets.push(walk_nodes.len() as u32);
        }
        ArcTable {
            bounds,
            walk_nodes,
            offsets,
        }
    }

    /// Index of the arc containing ring position `point`.
    fn arc_of(&self, point: u64) -> usize {
        debug_assert!(!self.bounds.is_empty());
        arc_index(&self.bounds, point)
    }

    fn walk(&self, idx: usize) -> &[N] {
        &self.walk_nodes[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }

    fn walk_at(&self, point: u64) -> &[N] {
        if self.bounds.is_empty() {
            return &[];
        }
        self.walk(self.arc_of(point))
    }
}

/// A key range on the ring together with its replica sets before and
/// after a membership change, as produced by
/// [`HashRing::owned_ranges_diff`].
///
/// The range covers every ring position `h` with `start < h <= end`,
/// wrapping around zero when `start > end`; when `start == end` the range
/// is the whole ring (a one-boundary ring).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeDiff<N> {
    /// Exclusive lower boundary of the arc.
    pub start: u64,
    /// Inclusive upper boundary of the arc.
    pub end: u64,
    /// The preference list of the arc before the change.
    pub old_owners: Vec<N>,
    /// The preference list of the arc after the change.
    pub new_owners: Vec<N>,
}

impl<N> RangeDiff<N> {
    /// Whether ring position `h` falls inside this arc.
    #[must_use]
    pub fn contains(&self, h: u64) -> bool {
        if self.start == self.end {
            true // single-boundary ring: the arc is the full circle
        } else if self.start < self.end {
            h > self.start && h <= self.end
        } else {
            h > self.start || h <= self.end
        }
    }

    /// Whether `key` hashes inside this arc.
    #[must_use]
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.contains(hash_key(key))
    }
}

/// A consistent-hashing ring with virtual nodes.
///
/// Each physical node owns `vnodes` tokens on a 64-bit ring; a key is
/// served by the first `n` *distinct* nodes encountered walking clockwise
/// from the key's hash — its **preference list**. Virtual nodes smooth the
/// load distribution and bound the data movement when membership changes,
/// exactly as in Dynamo/Riak.
///
/// Every membership change ([`HashRing::add_node`],
/// [`HashRing::remove_node`]) bumps the ring's **epoch**, so replicas and
/// clients can detect stale routing views and resynchronise.
///
/// # Examples
///
/// ```
/// use ring::HashRing;
/// let ring: HashRing<&str> = HashRing::with_vnodes(["a", "b", "c"], 32);
/// let prefs = ring.preference_list(b"k", 2);
/// assert_eq!(prefs.len(), 2);
/// assert_ne!(prefs[0], prefs[1]);
/// assert_eq!(ring.epoch(), 3, "one epoch per membership change");
/// ```
#[derive(Clone, Debug)]
pub struct HashRing<N: Ord> {
    tokens: BTreeMap<u64, N>,
    nodes: Vec<N>,
    vnodes: u32,
    epoch: u64,
    /// Lazily built arc → preference-walk table; reset by every
    /// membership change so it can never serve a stale walk.
    arcs: OnceCell<ArcTable<N>>,
}

impl<N: Clone + Ord + Debug> HashRing<N> {
    /// Default number of virtual nodes per physical node.
    pub const DEFAULT_VNODES: u32 = 64;

    /// Creates a ring over `nodes` with the default virtual-node count.
    #[must_use]
    pub fn new(nodes: impl IntoIterator<Item = N>) -> Self {
        Self::with_vnodes(nodes, Self::DEFAULT_VNODES)
    }

    /// Creates a ring with `vnodes` tokens per node.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero.
    #[must_use]
    pub fn with_vnodes(nodes: impl IntoIterator<Item = N>, vnodes: u32) -> Self {
        assert!(vnodes > 0, "a node must own at least one token");
        let mut ring = HashRing {
            tokens: BTreeMap::new(),
            nodes: Vec::new(),
            vnodes,
            epoch: 0,
            arcs: OnceCell::new(),
        };
        for n in nodes {
            ring.add_node(n);
        }
        ring
    }

    /// Rebuilds the ring a given member set and epoch describe.
    ///
    /// Token placement is a pure function of the member *set* (members are
    /// sorted before placement), so every node that learns `(members,
    /// epoch)` — e.g. from a membership announcement — reconstructs an
    /// identical ring.
    #[must_use]
    pub fn from_members(members: impl IntoIterator<Item = N>, vnodes: u32, epoch: u64) -> Self {
        let mut members: Vec<N> = members.into_iter().collect();
        members.sort();
        members.dedup();
        let mut ring = Self::with_vnodes(members, vnodes);
        ring.epoch = epoch;
        ring
    }

    /// The ring's membership epoch: bumped once per effective
    /// [`HashRing::add_node`] / [`HashRing::remove_node`].
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Virtual nodes per physical node.
    #[must_use]
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// Adds a node (idempotent; a no-op does not bump the epoch).
    pub fn add_node(&mut self, node: N) {
        if self.nodes.contains(&node) {
            return;
        }
        for v in 0..self.vnodes {
            // Probe for a free token: a raw `insert` would silently stomp
            // another node's vnode on a (rare but possible) 64-bit hash
            // collision, and removing the stomping node later would drop
            // the stomped node's coverage entirely.
            let mut attempt: u64 = 0;
            loop {
                let seed = u64::from(v) | (attempt << 32);
                let token = hash_with_seed(format!("{node:?}").as_bytes(), seed);
                if let std::collections::btree_map::Entry::Vacant(slot) = self.tokens.entry(token) {
                    slot.insert(node.clone());
                    break;
                }
                attempt += 1;
            }
        }
        self.nodes.push(node);
        self.nodes.sort();
        self.epoch += 1;
        self.arcs = OnceCell::new();
    }

    /// Removes a node and its tokens. Returns whether it was present (the
    /// epoch is bumped only when it was).
    pub fn remove_node(&mut self, node: &N) -> bool {
        let present = self.nodes.iter().any(|n| n == node);
        if present {
            self.tokens.retain(|_, n| n != node);
            self.nodes.retain(|n| n != node);
            self.epoch += 1;
            self.arcs = OnceCell::new();
        }
        present
    }

    /// All member nodes in sorted order.
    #[must_use]
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Number of member nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The lazily built arc table (see [`ArcTable`]).
    fn arc_table(&self) -> &ArcTable<N> {
        self.arcs
            .get_or_init(|| ArcTable::build(&self.tokens, &self.nodes))
    }

    /// The first `n` distinct nodes clockwise from the key's position.
    ///
    /// Returns fewer than `n` nodes only when the ring has fewer members.
    #[must_use]
    pub fn preference_list(&self, key: &[u8], n: usize) -> Vec<N> {
        self.preference_list_at(hash_key(key), n)
    }

    /// The first `n` distinct nodes clockwise from ring position `point`
    /// (inclusive) — the preference list of any key hashing to `point`.
    ///
    /// Served from the arc cache: a binary search plus a slice clone.
    #[must_use]
    pub fn preference_list_at(&self, point: u64, n: usize) -> Vec<N> {
        let walk = self.arc_table().walk_at(point);
        walk[..n.min(walk.len())].to_vec()
    }

    /// Reference implementation of [`HashRing::preference_list_at`]: the
    /// uncached clockwise `BTreeMap` range walk with linear dedup. Kept
    /// for the cache-equivalence property tests and for the store's
    /// from-scratch AAE summary (`StoreNode::rebuild_shared_summary`),
    /// which must not share the cache it audits; protocol paths use the
    /// cached variant.
    #[must_use]
    pub fn walk_preference_list_at(&self, point: u64, n: usize) -> Vec<N> {
        let want = n.min(self.nodes.len());
        let mut out: Vec<N> = Vec::with_capacity(want);
        if want == 0 {
            return out;
        }
        for (_, node) in self.tokens.range(point..).chain(self.tokens.range(..point)) {
            if !out.contains(node) {
                out.push(node.clone());
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// The full distinct-node walk from ring position `point`: every
    /// member, in preference order. Any `n`-replica preference list is a
    /// prefix of this slice — borrowed from the arc cache, so
    /// sloppy-quorum routing allocates nothing to consult it.
    #[must_use]
    pub fn full_walk_at(&self, point: u64) -> &[N] {
        self.arc_table().walk_at(point)
    }

    /// Whether `node` is among the first `n` preferences at `point` —
    /// the allocation-free form of `preference_list_at(..).contains(..)`.
    #[must_use]
    pub fn preference_list_contains(&self, point: u64, n: usize, node: &N) -> bool {
        let walk = self.arc_table().walk_at(point);
        walk[..n.min(walk.len())].contains(node)
    }

    /// The primary (first preference) node for a key, if any.
    #[must_use]
    pub fn primary(&self, key: &[u8]) -> Option<N> {
        self.primary_at(hash_key(key)).cloned()
    }

    /// The primary node at ring position `point`, if any — borrowed from
    /// the arc cache, no allocation.
    #[must_use]
    pub fn primary_at(&self, point: u64) -> Option<&N> {
        self.arc_table().walk_at(point).first()
    }

    /// Arc boundaries of this ring: the token points, sorted ascending.
    /// Arc `i` covers `(bounds[i-1], bounds[i]]` (arc 0 wraps); every
    /// preference list is constant on an arc. Ownership-partitioned AAE
    /// keeps one summary per arc, keyed by this index space.
    #[must_use]
    pub fn arc_bounds(&self) -> &[u64] {
        &self.arc_table().bounds
    }

    /// Number of arcs (equals the token count; zero for an empty ring).
    #[must_use]
    pub fn arc_count(&self) -> usize {
        self.arc_table().bounds.len()
    }

    /// The first `min(n, members)` preferences shared by every point of
    /// arc `idx` (an index into [`HashRing::arc_bounds`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn arc_prefs(&self, idx: usize, n: usize) -> &[N] {
        let walk = self.arc_table().walk(idx);
        &walk[..n.min(walk.len())]
    }

    /// The ring's token points in ascending order — equal to
    /// [`HashRing::arc_bounds`] but read straight off the token map, so
    /// callers that only need the partition (not the walks) don't force
    /// the arc table to build.
    pub fn token_points(&self) -> impl Iterator<Item = u64> + '_ {
        self.tokens.keys().copied()
    }

    /// The key ranges whose `n`-replica preference list differs between
    /// `old` and `new` — exactly the `(key-range, replica set)` pairs a
    /// membership change moved.
    ///
    /// The union of both rings' tokens partitions the ring into arcs on
    /// which both preference lists are constant; one [`RangeDiff`] is
    /// emitted per arc whose old and new owner lists differ. Joining
    /// nodes use this to learn which ranges to stream from current
    /// owners; leaving nodes use it to plan their drain.
    #[must_use]
    pub fn owned_ranges_diff(old: &Self, new: &Self, n: usize) -> Vec<RangeDiff<N>> {
        let mut bounds: Vec<u64> = old
            .tokens
            .keys()
            .chain(new.tokens.keys())
            .copied()
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        let Some(&last) = bounds.last() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut prev = last;
        for &end in &bounds {
            // No token of either ring lies strictly inside (prev, end], so
            // every position in the arc shares the walk starting at `end`.
            let old_owners = old.preference_list_at(end, n);
            let new_owners = new.preference_list_at(end, n);
            if old_owners != new_owners {
                out.push(RangeDiff {
                    start: prev,
                    end,
                    old_owners,
                    new_owners,
                });
            }
            prev = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;

    #[test]
    fn preference_list_has_distinct_nodes() {
        let ring: HashRing<u32> = HashRing::with_vnodes(0..5, 16);
        for i in 0..100 {
            let prefs = ring.preference_list(format!("k{i}").as_bytes(), 3);
            assert_eq!(prefs.len(), 3);
            let mut sorted = prefs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicates in {prefs:?}");
        }
    }

    #[test]
    fn preference_list_is_stable() {
        let ring: HashRing<u32> = HashRing::with_vnodes(0..5, 16);
        assert_eq!(
            ring.preference_list(b"stable", 3),
            ring.preference_list(b"stable", 3)
        );
    }

    #[test]
    fn asking_for_more_than_members_caps() {
        let ring: HashRing<u32> = HashRing::with_vnodes(0..2, 8);
        assert_eq!(ring.preference_list(b"k", 5).len(), 2);
        let empty: HashRing<u32> = HashRing::with_vnodes(std::iter::empty(), 8);
        assert!(empty.preference_list(b"k", 3).is_empty());
        assert!(empty.primary(b"k").is_none());
        assert!(empty.is_empty());
    }

    #[test]
    fn add_node_is_idempotent() {
        let mut ring: HashRing<u32> = HashRing::with_vnodes([1, 2], 8);
        let epoch = ring.epoch();
        ring.add_node(1);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.nodes(), &[1, 2]);
        assert_eq!(ring.epoch(), epoch, "no-op add must not bump the epoch");
    }

    #[test]
    fn remove_node_reroutes_only_its_keys() {
        let mut ring: HashRing<u32> = HashRing::with_vnodes(0..4, 32);
        let before: Map<String, u32> = (0..500)
            .map(|i| {
                let k = format!("k{i}");
                let p = ring.primary(k.as_bytes()).unwrap();
                (k, p)
            })
            .collect();
        assert!(ring.remove_node(&3));
        assert!(!ring.remove_node(&3), "second removal is a no-op");
        let mut moved = 0;
        for (k, old_primary) in &before {
            let new_primary = ring.primary(k.as_bytes()).unwrap();
            if *old_primary != 3 {
                assert_eq!(
                    new_primary, *old_primary,
                    "key {k} moved although its primary stayed up"
                );
            } else {
                moved += 1;
            }
        }
        assert!(moved > 0, "node 3 owned some keys");
    }

    #[test]
    fn load_is_roughly_balanced() {
        let ring: HashRing<u32> = HashRing::new(0..4);
        let mut counts: Map<u32, u32> = Map::new();
        for i in 0..4000 {
            let p = ring.primary(format!("key-{i}").as_bytes()).unwrap();
            *counts.entry(p).or_default() += 1;
        }
        for (node, c) in &counts {
            assert!(
                (400..=1800).contains(c),
                "node {node} owns {c} of 4000 keys — badly balanced"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn zero_vnodes_rejected() {
        let _: HashRing<u32> = HashRing::with_vnodes([1], 0);
    }

    #[test]
    fn epochs_count_membership_changes() {
        let mut ring: HashRing<u32> = HashRing::with_vnodes(0..3, 8);
        assert_eq!(ring.epoch(), 3, "one bump per constructed member");
        ring.add_node(7);
        assert_eq!(ring.epoch(), 4);
        assert!(ring.remove_node(&0));
        assert_eq!(ring.epoch(), 5);
        assert!(!ring.remove_node(&0));
        assert_eq!(ring.epoch(), 5, "failed removal must not bump");
    }

    #[test]
    fn from_members_is_order_independent_and_matches_incremental() {
        let a: HashRing<u32> = HashRing::from_members([3, 1, 2], 16, 9);
        let b: HashRing<u32> = HashRing::from_members([2, 3, 1], 16, 9);
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.epoch(), 9);

        // incremental growth from the same sorted set places identically
        let mut inc: HashRing<u32> = HashRing::with_vnodes([1u32, 2], 16);
        inc.add_node(3);
        assert_eq!(inc.tokens, a.tokens);
    }

    #[test]
    fn token_collision_probes_instead_of_stomping() {
        let mut ring: HashRing<u32> = HashRing::with_vnodes([1], 4);
        // Occupy node 2's first-choice token with node 1's ownership,
        // simulating a 64-bit hash collision between the two nodes.
        let stolen = hash_with_seed(format!("{:?}", 2u32).as_bytes(), 0);
        assert!(
            ring.tokens.insert(stolen, 1).is_none(),
            "the forced token must not already exist"
        );
        ring.add_node(2);
        // Node 2 still placed all its vnodes (one probed to a new seed).
        assert_eq!(ring.tokens.values().filter(|n| **n == 2).count(), 4);
        assert_eq!(
            ring.tokens.get(&stolen),
            Some(&1),
            "occupant keeps its token"
        );
        // Removing the occupant must leave node 2's coverage intact.
        assert!(ring.remove_node(&1));
        assert_eq!(ring.tokens.values().filter(|n| **n == 2).count(), 4);
        assert_eq!(ring.preference_list(b"k", 1), vec![2]);
    }

    #[test]
    fn preference_list_at_matches_key_walks() {
        let ring: HashRing<u32> = HashRing::with_vnodes(0..5, 16);
        for i in 0..50 {
            let key = format!("k{i}");
            assert_eq!(
                ring.preference_list(key.as_bytes(), 3),
                ring.preference_list_at(hash_key(key.as_bytes()), 3)
            );
        }
    }

    #[test]
    fn owned_ranges_diff_covers_exactly_the_moved_keys() {
        let old: HashRing<u32> = HashRing::with_vnodes(0..4, 16);
        let mut new = old.clone();
        new.add_node(4);
        let diffs = HashRing::owned_ranges_diff(&old, &new, 3);
        assert!(!diffs.is_empty(), "adding a node must move some ranges");
        for d in &diffs {
            assert_ne!(d.old_owners, d.new_owners);
            assert!(
                d.new_owners.contains(&4) || d.old_owners.len() != d.new_owners.len(),
                "every moved arc involves the joiner: {d:?}"
            );
        }
        // Ground truth: per-key preference lists changed iff some diff
        // arc contains the key — checked over many keys.
        for i in 0..500 {
            let key = format!("key-{i}");
            let h = hash_key(key.as_bytes());
            let moved =
                old.preference_list(key.as_bytes(), 3) != new.preference_list(key.as_bytes(), 3);
            let in_diff = diffs.iter().any(|d| d.contains(h));
            assert_eq!(moved, in_diff, "key {key} misclassified");
            if moved {
                let d = diffs.iter().find(|d| d.contains(h)).unwrap();
                assert_eq!(d.old_owners, old.preference_list(key.as_bytes(), 3));
                assert_eq!(d.new_owners, new.preference_list(key.as_bytes(), 3));
            }
        }
    }

    #[test]
    fn cached_walks_match_the_reference_implementation() {
        // the arc cache must be observationally identical to the uncached
        // BTreeMap walk, for every n, at token boundaries and wrap points
        let ring: HashRing<u32> = HashRing::with_vnodes(0..6, 16);
        let mut points: Vec<u64> = (0..300)
            .map(|i| hash_key(format!("pt{i}").as_bytes()))
            .collect();
        points.extend(ring.arc_bounds().to_vec()); // exact boundaries
        points.extend(ring.arc_bounds().iter().map(|b| b.wrapping_add(1)));
        points.push(0);
        points.push(u64::MAX);
        for p in points {
            for n in 0..8 {
                assert_eq!(
                    ring.preference_list_at(p, n),
                    ring.walk_preference_list_at(p, n),
                    "cache diverged at point {p} n {n}"
                );
            }
            let full = ring.full_walk_at(p);
            assert_eq!(full.len(), 6, "full walk names every member");
            assert_eq!(ring.primary_at(p), full.first());
            for n in 1..7 {
                for node in 0..6 {
                    assert_eq!(
                        ring.preference_list_contains(p, n, &node),
                        full[..n].contains(&node)
                    );
                }
            }
        }
    }

    #[test]
    fn arc_cache_invalidates_on_membership_change() {
        let mut ring: HashRing<u32> = HashRing::with_vnodes(0..3, 8);
        let p = hash_key(b"probe");
        let before = ring.preference_list_at(p, 3); // builds the cache
        ring.add_node(9);
        assert_eq!(
            ring.preference_list_at(p, 4),
            ring.walk_preference_list_at(p, 4),
            "stale cache survived add_node"
        );
        assert!(ring.full_walk_at(p).contains(&9));
        ring.remove_node(&9);
        assert_eq!(ring.preference_list_at(p, 3), before);
        assert_eq!(ring.arc_count(), 3 * 8);
    }

    #[test]
    fn arc_prefs_agree_with_point_lookups() {
        let ring: HashRing<u32> = HashRing::with_vnodes(0..5, 16);
        let bounds = ring.arc_bounds().to_vec();
        assert_eq!(bounds.len(), ring.arc_count());
        for (i, b) in bounds.iter().enumerate() {
            // the arc's upper boundary point is inside the arc
            assert_eq!(ring.arc_prefs(i, 3), &ring.preference_list_at(*b, 3));
        }
        let empty: HashRing<u32> = HashRing::with_vnodes(std::iter::empty(), 8);
        assert_eq!(empty.arc_count(), 0);
        assert!(empty.full_walk_at(7).is_empty());
        assert!(empty.primary_at(7).is_none());
        assert!(!empty.preference_list_contains(7, 3, &1));
    }

    #[test]
    fn owned_ranges_diff_identical_rings_is_empty() {
        let ring: HashRing<u32> = HashRing::with_vnodes(0..4, 16);
        assert!(HashRing::owned_ranges_diff(&ring, &ring, 3).is_empty());
        let empty: HashRing<u32> = HashRing::with_vnodes(std::iter::empty(), 8);
        assert!(HashRing::owned_ranges_diff(&empty, &empty, 3).is_empty());
    }

    #[test]
    fn range_diff_contains_handles_wrap_and_full_circle() {
        let wrap = RangeDiff::<u32> {
            start: u64::MAX - 10,
            end: 10,
            old_owners: vec![],
            new_owners: vec![],
        };
        assert!(wrap.contains(5));
        assert!(wrap.contains(u64::MAX));
        assert!(!wrap.contains(11));
        assert!(!wrap.contains(u64::MAX - 10), "start is exclusive");
        let full = RangeDiff::<u32> {
            start: 42,
            end: 42,
            old_owners: vec![],
            new_owners: vec![],
        };
        assert!(full.contains(0));
        assert!(full.contains(42));
        assert!(full.contains(u64::MAX));
    }
}
