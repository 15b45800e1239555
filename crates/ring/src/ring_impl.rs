//! [`HashRing`]: virtual-node consistent hashing over a fixed member set,
//! with an arc-indexed preference-list cache and sloppy-quorum routing.

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
/// Built lazily on first lookup. A ring is never mutated (a view change
/// builds a new one), so the table is built at most once per ring.
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

/// A consistent-hashing ring with virtual nodes.
///
/// Each physical node owns `vnodes` tokens on a 64-bit ring; a key is
/// served by the first `n` *distinct* nodes encountered walking clockwise
/// from the key's hash — its **preference list**. Virtual nodes smooth the
/// load distribution and bound the data movement when membership changes,
/// exactly as in Dynamo/Riak.
///
/// A ring is an immutable function of its member *set*: a membership
/// change (a merged [`crate::RingView`]) builds a new ring, and every
/// process that holds the same members routes identically.
///
/// # Examples
///
/// ```
/// use ring::HashRing;
/// let ring: HashRing<&str> = HashRing::with_vnodes(["a", "b", "c"], 32);
/// let prefs = ring.preference_list(b"k", 2);
/// assert_eq!(prefs.len(), 2);
/// assert_ne!(prefs[0], prefs[1]);
/// let same: HashRing<&str> = HashRing::with_vnodes(["c", "a", "b", "a"], 32);
/// assert_eq!(same.preference_list(b"k", 2), prefs, "placement ignores input order");
/// ```
#[derive(Clone, Debug)]
pub struct HashRing<N: Ord> {
    tokens: BTreeMap<u64, N>,
    nodes: Vec<N>,
    vnodes: u32,
    /// Lazily built arc → preference-walk table.
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
    /// Token placement is a pure function of the member *set*: members
    /// are sorted and deduplicated before placement, so every process
    /// that learns the same members — e.g. from a merged view —
    /// reconstructs an identical ring.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero.
    #[must_use]
    pub fn with_vnodes(nodes: impl IntoIterator<Item = N>, vnodes: u32) -> Self {
        assert!(vnodes > 0, "a node must own at least one token");
        let mut nodes: Vec<N> = nodes.into_iter().collect();
        nodes.sort();
        nodes.dedup();
        let mut tokens = BTreeMap::new();
        for node in &nodes {
            place_tokens(&mut tokens, node, vnodes);
        }
        HashRing {
            tokens,
            nodes,
            vnodes,
            arcs: OnceCell::new(),
        }
    }

    /// Virtual nodes per physical node.
    #[must_use]
    pub fn vnodes(&self) -> u32 {
        self.vnodes
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

    /// The first `n` *routable* nodes at ring position `point`, plus the
    /// substitutions made: the sloppy-quorum preference list. Each
    /// `(intended, fallback)` pair records a preferred replica that is
    /// not `routable` and the next routable node clockwise standing in
    /// for it (the hinted-handoff target and holder, respectively).
    ///
    /// Returns fewer than `n` active nodes when fewer are routable. The
    /// walk is borrowed from the arc cache, so consulting it allocates
    /// nothing beyond the two returned lists.
    #[must_use]
    pub fn sloppy_preference_list_at(
        &self,
        point: u64,
        n: usize,
        routable: impl Fn(&N) -> bool,
    ) -> (Vec<N>, Vec<(N, N)>) {
        let extended = self.full_walk_at(point);
        let ideal = &extended[..n.min(extended.len())];
        let mut active: Vec<N> = Vec::with_capacity(n);
        let mut substitutions: Vec<(N, N)> = Vec::new();
        let mut fallbacks = extended.iter().skip(ideal.len());
        for node in ideal {
            if routable(node) {
                active.push(node.clone());
            } else {
                // next routable node not already used
                let fallback = fallbacks
                    .by_ref()
                    .find(|f| routable(f) && !active.contains(*f));
                if let Some(f) = fallback {
                    active.push(f.clone());
                    substitutions.push((node.clone(), f.clone()));
                }
            }
        }
        (active, substitutions)
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
}

/// Places `node`'s `vnodes` tokens into `tokens`, probing past occupied
/// points: a raw `insert` would silently stomp another node's vnode on a
/// (rare but possible) 64-bit hash collision, taking that node's coverage
/// of the arc with it.
fn place_tokens<N: Clone + Debug>(tokens: &mut BTreeMap<u64, N>, node: &N, vnodes: u32) {
    for v in 0..vnodes {
        let mut attempt: u64 = 0;
        loop {
            let seed = u64::from(v) | (attempt << 32);
            let token = hash_with_seed(format!("{node:?}").as_bytes(), seed);
            if let std::collections::btree_map::Entry::Vacant(slot) = tokens.entry(token) {
                slot.insert(node.clone());
                break;
            }
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap as Map, BTreeSet};

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
    fn remove_node_reroutes_only_its_keys() {
        let with: HashRing<u32> = HashRing::with_vnodes(0..4, 32);
        let without: HashRing<u32> = HashRing::with_vnodes(0..3, 32);
        let mut moved = 0;
        for i in 0..500 {
            let k = format!("k{i}");
            let old_primary = with.primary(k.as_bytes()).unwrap();
            let new_primary = without.primary(k.as_bytes()).unwrap();
            if old_primary != 3 {
                assert_eq!(
                    new_primary, old_primary,
                    "key {k} moved although its primary stayed"
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
    fn with_vnodes_is_order_independent() {
        let a: HashRing<u32> = HashRing::with_vnodes([3, 1, 2], 16);
        let b: HashRing<u32> = HashRing::with_vnodes([2, 1, 3], 16);
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.nodes(), &[1, 2, 3]);
        assert_eq!(b.nodes(), &[1, 2, 3]);
    }

    #[test]
    fn with_vnodes_dedups_repeated_members() {
        let a: HashRing<u32> = HashRing::with_vnodes([1, 2, 3], 16);
        let b: HashRing<u32> = HashRing::with_vnodes([2, 3, 1, 3, 1], 16);
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(b.nodes(), &[1, 2, 3]);
        assert_eq!(
            b.arc_count(),
            3 * 16,
            "a repeated member places no extra tokens"
        );
    }

    #[test]
    fn token_collision_probes_instead_of_stomping() {
        let mut tokens: BTreeMap<u64, u32> = BTreeMap::new();
        place_tokens(&mut tokens, &1, 4);
        // Occupy node 2's first-choice token with node 1's ownership,
        // simulating a 64-bit hash collision between the two nodes.
        let stolen = hash_with_seed(format!("{:?}", 2u32).as_bytes(), 0);
        assert!(
            tokens.insert(stolen, 1).is_none(),
            "the forced token must not already exist"
        );
        place_tokens(&mut tokens, &2, 4);
        // Node 2 still placed all its vnodes (one probed to a new seed).
        assert_eq!(tokens.values().filter(|n| **n == 2).count(), 4);
        assert_eq!(tokens.get(&stolen), Some(&1), "occupant keeps its token");
        let probed = hash_with_seed(format!("{:?}", 2u32).as_bytes(), 1 << 32);
        assert_eq!(
            tokens.get(&probed),
            Some(&2),
            "the next seed took its place"
        );
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

    // --- sloppy routing ------------------------------------------------------

    fn ring() -> HashRing<u32> {
        HashRing::with_vnodes(0..5, 16)
    }

    /// The sloppy list for key `k` with the nodes in `down` unroutable.
    fn sloppy(r: &HashRing<u32>, k: &[u8], down: &BTreeSet<u32>) -> (Vec<u32>, Vec<(u32, u32)>) {
        r.sloppy_preference_list_at(hash_key(k), 3, |n| !down.contains(n))
    }

    #[test]
    fn all_up_no_substitutions() {
        let (active, subs) = sloppy(&ring(), b"k", &BTreeSet::new());
        assert_eq!(active.len(), 3);
        assert!(subs.is_empty());
        assert_eq!(active, ring().preference_list(b"k", 3));
    }

    #[test]
    fn down_primary_is_substituted() {
        let r = ring();
        let ideal = r.preference_list(b"k", 3);
        let (active, subs) = sloppy(&r, b"k", &BTreeSet::from([ideal[0]]));
        assert_eq!(active.len(), 3);
        assert!(!active.contains(&ideal[0]));
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].0, ideal[0]);
        assert!(active.contains(&subs[0].1));
    }

    #[test]
    fn too_many_down_yields_short_list() {
        let (active, _) = sloppy(&ring(), b"k", &(0..4).collect());
        assert_eq!(active, vec![4], "only one node is routable");
    }

    #[test]
    fn recovery_restores_routing() {
        let r = ring();
        let ideal = r.preference_list(b"k", 3);
        let mut down = BTreeSet::from([ideal[1]]);
        let (with_down, _) = sloppy(&r, b"k", &down);
        assert!(!with_down.contains(&ideal[1]));
        down.remove(&ideal[1]);
        let (healed, subs) = sloppy(&r, b"k", &down);
        assert_eq!(healed, ideal);
        assert!(subs.is_empty());
    }

    #[test]
    fn fallbacks_never_duplicate_active_nodes() {
        let r = ring();
        for key in 0..50u32 {
            let k = format!("key{key}");
            let ideal = r.preference_list(k.as_bytes(), 3);
            let down = BTreeSet::from([ideal[0], ideal[2]]);
            let (active, _) = sloppy(&r, k.as_bytes(), &down);
            let mut sorted = active.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), active.len(), "duplicate in {active:?}");
        }
    }
}
