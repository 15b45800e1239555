//! [`VersionVector`]: the classic compressed representation of a causal
//! past (Parker et al., 1983).

use core::fmt;
use std::collections::btree_map::{self, BTreeMap};

use crate::actor::Actor;
use crate::dot::Dot;
use crate::order::CausalOrder;

/// A version vector: for each actor `a`, the entry `v[a] = n` states that
/// every event `(a, 1) … (a, n)` is in the represented causal history.
///
/// Version vectors are *compact* causal histories: they can only describe
/// per-actor prefixes of events. That is exactly what makes them unable to
/// name an individual version without conflating it with its past — the
/// deficiency the paper's dotted version vectors repair.
///
/// This type deliberately does **not** implement [`PartialOrd`]: the causal
/// order is partial, and a derived lexicographic order would be semantically
/// wrong. Use [`VersionVector::causal_cmp`] / [`VersionVector::dominates`].
///
/// Absent entries are implicitly zero, and entries are never stored with a
/// zero counter, so structural equality (`==`) coincides with semantic
/// equality of the represented histories.
///
/// # Examples
///
/// ```
/// use dvv::{VersionVector, Dot, CausalOrder};
///
/// let mut a = VersionVector::new();
/// a.record(Dot::new("A", 1));
/// a.record(Dot::new("A", 2));
///
/// let mut b = a.clone();
/// b.record(Dot::new("B", 1));
///
/// assert_eq!(a.causal_cmp(&b), CausalOrder::Before);
/// assert!(b.contains(&Dot::new("A", 1)));
/// assert!(!b.contains(&Dot::new("B", 2)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct VersionVector<A: Ord> {
    entries: BTreeMap<A, u64>,
}

impl<A: Actor> VersionVector<A> {
    /// Creates an empty version vector (the empty causal history).
    #[must_use]
    pub fn new() -> Self {
        VersionVector {
            entries: BTreeMap::new(),
        }
    }

    /// The counter for `actor`; zero if absent.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvv::VersionVector;
    /// let v: VersionVector<&str> = VersionVector::new();
    /// assert_eq!(v.get(&"A"), 0);
    /// ```
    #[must_use]
    pub fn get(&self, actor: &A) -> u64 {
        self.entries.get(actor).copied().unwrap_or(0)
    }

    /// Sets the counter for `actor` to exactly `counter`.
    ///
    /// Setting zero removes the entry, keeping the representation canonical.
    pub fn set(&mut self, actor: A, counter: u64) {
        if counter == 0 {
            self.entries.remove(&actor);
        } else {
            self.entries.insert(actor, counter);
        }
    }

    /// Advances `actor`'s counter by one and returns the dot of the new
    /// event.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvv::{VersionVector, Dot};
    /// let mut v = VersionVector::new();
    /// assert_eq!(v.increment("A"), Dot::new("A", 1));
    /// assert_eq!(v.increment("A"), Dot::new("A", 2));
    /// ```
    pub fn increment(&mut self, actor: A) -> Dot<A> {
        let next = self.get(&actor) + 1;
        self.entries.insert(actor.clone(), next);
        Dot::new(actor, next)
    }

    /// Records `dot` into the summarised history.
    ///
    /// Version vectors can only represent contiguous per-actor prefixes, so
    /// recording `(a, n)` raises `v[a]` to at least `n`; intermediate events
    /// are implied. (Use [`crate::vve::Vve`] when gaps must be represented
    /// exactly.)
    pub fn record(&mut self, dot: Dot<A>) {
        let (actor, counter) = dot.into_parts();
        let e = self.entries.entry(actor).or_insert(0);
        *e = (*e).max(counter);
    }

    /// Whether the event `dot` is included in the represented history.
    ///
    /// This is the O(1) membership test at the heart of the paper: a DVV
    /// comparison is a single `contains` of the left dot in the right past.
    #[must_use]
    pub fn contains(&self, dot: &Dot<A>) -> bool {
        dot.counter() <= self.get(dot.actor())
    }

    /// Pointwise maximum: the join (least upper bound) of the two histories.
    ///
    /// Merging is the lattice join used both when a client combines sibling
    /// contexts and when replicas synchronise.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvv::VersionVector;
    /// let mut a = VersionVector::new();
    /// a.set("A", 2);
    /// let mut b = VersionVector::new();
    /// b.set("B", 1);
    /// a.merge(&b);
    /// assert_eq!(a.get(&"A"), 2);
    /// assert_eq!(a.get(&"B"), 1);
    /// ```
    pub fn merge(&mut self, other: &Self) {
        for (actor, &counter) in &other.entries {
            let e = self.entries.entry(actor.clone()).or_insert(0);
            *e = (*e).max(counter);
        }
    }

    /// Returns the join of two vectors without mutating either.
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Whether `self` includes every event of `other` (`other ⊆ self`).
    ///
    /// This is the classic O(n) entry-wise dominance test the paper
    /// contrasts with the O(1) dotted comparison.
    #[must_use]
    pub fn dominates(&self, other: &Self) -> bool {
        other
            .entries
            .iter()
            .all(|(actor, &counter)| self.get(actor) >= counter)
    }

    /// Whether `self` strictly dominates `other` (`other ⊂ self`).
    #[must_use]
    pub fn strictly_dominates(&self, other: &Self) -> bool {
        self.dominates(other) && self != other
    }

    /// Full four-way causal comparison (set inclusion of the represented
    /// histories). O(n) in the number of entries.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvv::{VersionVector, CausalOrder};
    /// let mut a = VersionVector::new();
    /// a.set("A", 1);
    /// let mut b = VersionVector::new();
    /// b.set("B", 1);
    /// assert_eq!(a.causal_cmp(&b), CausalOrder::Concurrent);
    /// ```
    #[must_use]
    pub fn causal_cmp(&self, other: &Self) -> CausalOrder {
        CausalOrder::from_dominance(other.dominates(self), self.dominates(other))
    }

    /// Number of actors with a non-zero entry.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector represents the empty history.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(actor, counter)` entries in actor order.
    pub fn iter(&self) -> Iter<'_, A> {
        Iter {
            inner: self.entries.iter(),
        }
    }

    /// The most recent dot of `actor`, if any event by it is recorded.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvv::{VersionVector, Dot};
    /// let mut v = VersionVector::new();
    /// v.set("A", 2);
    /// assert_eq!(v.max_dot(&"A"), Some(Dot::new("A", 2)));
    /// assert_eq!(v.max_dot(&"B"), None);
    /// ```
    #[must_use]
    pub fn max_dot(&self, actor: &A) -> Option<Dot<A>> {
        let n = self.get(actor);
        (n > 0).then(|| Dot::new(actor.clone(), n))
    }

    /// Total number of events in the represented history (sum of counters).
    #[must_use]
    pub fn event_count(&self) -> u64 {
        self.entries.values().sum()
    }

    /// Removes the entry for `actor`, *forgetting* part of the history.
    ///
    /// This is the primitive behind the **unsafe optimistic pruning** of
    /// per-client version vectors that the paper warns about; it exists so
    /// the pruning baseline and its anomalies can be reproduced. Returns the
    /// removed counter, if any.
    pub fn forget(&mut self, actor: &A) -> Option<u64> {
        self.entries.remove(actor)
    }

    /// **Safe (Golding-style) pruning**: removes every entry that equals
    /// the globally-stable `floor`, returning how many were removed.
    ///
    /// The paper notes that *safe* mechanisms for pruning version vectors
    /// require global knowledge (Golding 1992). This is that operation:
    /// `floor` must be a vector that **every live version in the system
    /// dominates** (e.g. the pointwise minimum over all replicas'
    /// acknowledged state — information only a coordinated protocol can
    /// provide). Under that precondition, entries exactly at the floor
    /// carry no discriminating information — all live vectors share them
    /// — so removing them pointwise from every vector preserves every
    /// pairwise causal comparison among live versions.
    ///
    /// Violating the precondition reintroduces exactly the anomalies of
    /// optimistic pruning; see the property tests.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvv::VersionVector;
    /// let mut x: VersionVector<&str> = [("A", 3u64), ("B", 7)].into_iter().collect();
    /// let floor: VersionVector<&str> = [("A", 3u64), ("B", 5)].into_iter().collect();
    /// assert_eq!(x.prune_stable(&floor), 1); // only A:3 matches the floor
    /// assert_eq!(x.get(&"A"), 0);
    /// assert_eq!(x.get(&"B"), 7);
    /// ```
    pub fn prune_stable(&mut self, floor: &Self) -> usize {
        let before = self.entries.len();
        self.entries.retain(|a, n| floor.get(a) != *n);
        before - self.entries.len()
    }
}

/// Iterator over the `(actor, counter)` entries of a [`VersionVector`].
#[derive(Debug, Clone)]
pub struct Iter<'a, A> {
    inner: btree_map::Iter<'a, A, u64>,
}

impl<'a, A> Iterator for Iter<'a, A> {
    type Item = (&'a A, u64);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|(a, &c)| (a, c))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a, A> ExactSizeIterator for Iter<'a, A> {}

impl<A: Actor> FromIterator<(A, u64)> for VersionVector<A> {
    fn from_iter<I: IntoIterator<Item = (A, u64)>>(iter: I) -> Self {
        let mut v = VersionVector::new();
        for (a, c) in iter {
            if c > v.get(&a) {
                v.set(a, c);
            }
        }
        v
    }
}

impl<A: Actor> FromIterator<Dot<A>> for VersionVector<A> {
    fn from_iter<I: IntoIterator<Item = Dot<A>>>(iter: I) -> Self {
        let mut v = VersionVector::new();
        for d in iter {
            v.record(d);
        }
        v
    }
}

impl<A: Actor> Extend<Dot<A>> for VersionVector<A> {
    fn extend<I: IntoIterator<Item = Dot<A>>>(&mut self, iter: I) {
        for d in iter {
            self.record(d);
        }
    }
}

impl<'a, A: Actor> IntoIterator for &'a VersionVector<A> {
    type Item = (&'a A, u64);
    type IntoIter = Iter<'a, A>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<A: Actor + fmt::Display> fmt::Display for VersionVector<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (a, c)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}:{c}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::CausalOrder::*;

    fn vv(entries: &[(&'static str, u64)]) -> VersionVector<&'static str> {
        entries.iter().copied().collect()
    }

    #[test]
    fn empty_vector_has_zero_everywhere() {
        let v: VersionVector<&str> = VersionVector::new();
        assert_eq!(v.get(&"A"), 0);
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.event_count(), 0);
    }

    #[test]
    fn set_zero_removes_entry() {
        let mut v = vv(&[("A", 2)]);
        v.set("A", 0);
        assert!(v.is_empty());
        // canonical form: equal to a fresh vector
        assert_eq!(v, VersionVector::new());
    }

    #[test]
    fn increment_returns_fresh_dots() {
        let mut v = VersionVector::new();
        let d1 = v.increment("A");
        let d2 = v.increment("A");
        let d3 = v.increment("B");
        assert_eq!(d1, Dot::new("A", 1));
        assert_eq!(d2, Dot::new("A", 2));
        assert_eq!(d3, Dot::new("B", 1));
        assert_eq!(v.event_count(), 3);
    }

    #[test]
    fn record_is_monotone() {
        let mut v = VersionVector::new();
        v.record(Dot::new("A", 5));
        v.record(Dot::new("A", 2)); // lower dot: no effect
        assert_eq!(v.get(&"A"), 5);
    }

    #[test]
    fn contains_checks_prefix_inclusion() {
        let v = vv(&[("A", 3)]);
        assert!(v.contains(&Dot::new("A", 1)));
        assert!(v.contains(&Dot::new("A", 3)));
        assert!(!v.contains(&Dot::new("A", 4)));
        assert!(!v.contains(&Dot::new("B", 1)));
    }

    #[test]
    fn merge_is_pointwise_max() {
        let mut a = vv(&[("A", 2), ("B", 1)]);
        let b = vv(&[("A", 1), ("C", 4)]);
        a.merge(&b);
        assert_eq!(a, vv(&[("A", 2), ("B", 1), ("C", 4)]));
    }

    #[test]
    fn merge_lattice_laws_smoke() {
        let a = vv(&[("A", 2)]);
        let b = vv(&[("B", 3)]);
        let c = vv(&[("A", 1), ("C", 1)]);
        // commutative
        assert_eq!(a.merged(&b), b.merged(&a));
        // associative
        assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
        // idempotent
        assert_eq!(a.merged(&a), a);
    }

    #[test]
    fn dominance_and_causal_cmp() {
        let small = vv(&[("A", 1)]);
        let big = vv(&[("A", 2), ("B", 1)]);
        let other = vv(&[("C", 1)]);

        assert!(big.dominates(&small));
        assert!(big.strictly_dominates(&small));
        assert!(!small.dominates(&big));
        assert!(big.dominates(&big));
        assert!(!big.strictly_dominates(&big));

        assert_eq!(small.causal_cmp(&big), Before);
        assert_eq!(big.causal_cmp(&small), After);
        assert_eq!(big.causal_cmp(&big), Equal);
        assert_eq!(big.causal_cmp(&other), Concurrent);
    }

    #[test]
    fn paper_figure_1b_dominance_anomaly_setup() {
        // With one entry per server, [2,0] < [3,0] even though the versions
        // were written concurrently — the core deficiency of the baseline.
        let v2 = vv(&[("A", 2)]); // [2,0]
        let v3 = vv(&[("A", 3)]); // [3,0]
        assert_eq!(v2.causal_cmp(&v3), Before);
    }

    #[test]
    fn max_dot_and_forget() {
        let mut v = vv(&[("A", 2), ("B", 1)]);
        assert_eq!(v.max_dot(&"A"), Some(Dot::new("A", 2)));
        assert_eq!(v.forget(&"A"), Some(2));
        assert_eq!(v.max_dot(&"A"), None);
        assert_eq!(v.forget(&"A"), None);
    }

    #[test]
    fn from_dots_iterator() {
        let v: VersionVector<&str> = [Dot::new("A", 1), Dot::new("A", 3), Dot::new("B", 2)]
            .into_iter()
            .collect();
        assert_eq!(v, vv(&[("A", 3), ("B", 2)]));
    }

    #[test]
    fn from_pairs_keeps_max_on_duplicates() {
        let v: VersionVector<&str> = [("A", 1), ("A", 4), ("A", 2)].into_iter().collect();
        assert_eq!(v.get(&"A"), 4);
    }

    #[test]
    fn extend_with_dots() {
        let mut v = VersionVector::new();
        v.extend([Dot::new("A", 2), Dot::new("B", 1)]);
        assert_eq!(v, vv(&[("A", 2), ("B", 1)]));
    }

    #[test]
    fn iter_is_sorted_by_actor_and_exact_size() {
        let v = vv(&[("B", 1), ("A", 2), ("C", 3)]);
        let items: Vec<_> = v.iter().collect();
        assert_eq!(items, vec![(&"A", 2), (&"B", 1), (&"C", 3)]);
        assert_eq!(v.iter().len(), 3);
        let borrowed: Vec<_> = (&v).into_iter().collect();
        assert_eq!(borrowed.len(), 3);
    }

    #[test]
    fn display_lists_entries_in_actor_order() {
        let v = vv(&[("B", 1), ("A", 2)]);
        assert_eq!(v.to_string(), "[A:2, B:1]");
        let e: VersionVector<&str> = VersionVector::new();
        assert_eq!(e.to_string(), "[]");
    }
}
