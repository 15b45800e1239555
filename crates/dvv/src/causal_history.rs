//! [`CausalHistory`]: the exact set-of-events model of causality
//! (Schwarz & Mattern), used throughout this repository as ground truth.

use core::fmt;
use std::collections::btree_set::{self, BTreeSet};

use crate::actor::Actor;
use crate::dot::Dot;
use crate::order::CausalOrder;
use crate::version_vector::VersionVector;

/// A causal history: an explicit set of event identifiers ([`Dot`]s).
///
/// Causal histories characterise causality *precisely*: history `Ha`
/// causally precedes `Hb` iff `Ha ⊂ Hb`, and two histories are concurrent
/// iff neither includes the other. They are impractical (they grow with the
/// number of events) but serve as the reference model — every compressed
/// clock in this crate is validated against them, and the paper's Figure 1a
/// is expressed in them.
///
/// Unlike a [`VersionVector`], a causal history can represent arbitrary,
/// non-contiguous sets of events.
///
/// # Examples
///
/// ```
/// use dvv::{CausalHistory, Dot, CausalOrder};
///
/// let a: CausalHistory<&str> = [Dot::new("A", 1)].into_iter().collect();
/// let mut b = a.clone();
/// b.insert(Dot::new("A", 2));
/// assert_eq!(a.causal_cmp(&b), CausalOrder::Before);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct CausalHistory<A: Ord> {
    events: BTreeSet<Dot<A>>,
}

impl<A: Actor> CausalHistory<A> {
    /// Creates the empty history.
    #[must_use]
    pub fn new() -> Self {
        CausalHistory {
            events: BTreeSet::new(),
        }
    }

    /// Adds one event. Returns `true` if it was not already present.
    pub fn insert(&mut self, dot: Dot<A>) -> bool {
        self.events.insert(dot)
    }

    /// Whether `dot` is in the history.
    #[must_use]
    pub fn contains(&self, dot: &Dot<A>) -> bool {
        self.events.contains(dot)
    }

    /// Set union with another history.
    pub fn union(&mut self, other: &Self) {
        self.events.extend(other.events.iter().cloned());
    }

    /// Returns the union without mutating either operand.
    #[must_use]
    pub fn united(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.union(other);
        out
    }

    /// Whether `self ⊆ other`.
    #[must_use]
    pub fn is_subset(&self, other: &Self) -> bool {
        self.events.is_subset(&other.events)
    }

    /// Four-way causal comparison by set inclusion — the defining semantics
    /// of causality (`Ha < Hb iff Ha ⊂ Hb`).
    #[must_use]
    pub fn causal_cmp(&self, other: &Self) -> CausalOrder {
        CausalOrder::from_dominance(self.is_subset(other), other.is_subset(self))
    }

    /// Number of events in the history.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the history is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events in canonical (actor, counter) order.
    pub fn iter(&self) -> Iter<'_, A> {
        Iter {
            inner: self.events.iter(),
        }
    }

    /// Whether the history is *compact*: for every actor, the events form a
    /// contiguous prefix `(a,1) … (a,n)`. Compact histories are exactly the
    /// ones a plain version vector can represent.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvv::{CausalHistory, Dot};
    /// let mut h = CausalHistory::new();
    /// h.insert(Dot::new("A", 1));
    /// h.insert(Dot::new("A", 2));
    /// assert!(h.is_compact());
    /// h.insert(Dot::new("B", 2)); // gap: (B,1) missing
    /// assert!(!h.is_compact());
    /// ```
    #[must_use]
    pub fn is_compact(&self) -> bool {
        let mut expected: Option<(&A, u64)> = None;
        for dot in &self.events {
            match expected {
                Some((actor, next)) if actor == dot.actor() => {
                    if dot.counter() != next {
                        return false;
                    }
                    expected = Some((dot.actor(), next + 1));
                }
                _ => {
                    if dot.counter() != 1 {
                        return false;
                    }
                    expected = Some((dot.actor(), 2));
                }
            }
        }
        true
    }

    /// The best version-vector summary of this history: per-actor maxima.
    ///
    /// Lossless exactly when [`CausalHistory::is_compact`] holds; otherwise
    /// the vector *over*-approximates the history (it includes the gaps).
    #[must_use]
    pub fn to_version_vector(&self) -> VersionVector<A> {
        self.events.iter().cloned().collect()
    }

    /// The history represented by a version vector: all per-actor prefixes.
    ///
    /// This materialises `v[a]` events per actor — linear in the total event
    /// count, which is exactly the cost the compressed clocks avoid.
    #[must_use]
    pub fn from_version_vector(vv: &VersionVector<A>) -> Self {
        let mut h = CausalHistory::new();
        for (actor, counter) in vv.iter() {
            for n in 1..=counter {
                h.insert(Dot::new(actor.clone(), n));
            }
        }
        h
    }

    /// The maximal events of the history: those not followed by a later
    /// event from the same actor. (Used by tests to recover frontier dots.)
    #[must_use]
    pub fn maximal_dots(&self) -> Vec<Dot<A>> {
        let mut out: Vec<Dot<A>> = Vec::new();
        for dot in &self.events {
            match out.last_mut() {
                Some(last) if last.actor() == dot.actor() => *last = dot.clone(),
                _ => out.push(dot.clone()),
            }
        }
        out
    }
}

/// Iterator over the events of a [`CausalHistory`].
#[derive(Debug, Clone)]
pub struct Iter<'a, A> {
    inner: btree_set::Iter<'a, Dot<A>>,
}

impl<'a, A> Iterator for Iter<'a, A> {
    type Item = &'a Dot<A>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a, A> ExactSizeIterator for Iter<'a, A> {}

impl<A: Actor> FromIterator<Dot<A>> for CausalHistory<A> {
    fn from_iter<I: IntoIterator<Item = Dot<A>>>(iter: I) -> Self {
        CausalHistory {
            events: iter.into_iter().collect(),
        }
    }
}

impl<A: Actor> Extend<Dot<A>> for CausalHistory<A> {
    fn extend<I: IntoIterator<Item = Dot<A>>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

impl<'a, A: Actor> IntoIterator for &'a CausalHistory<A> {
    type Item = &'a Dot<A>;
    type IntoIter = Iter<'a, A>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<A: Actor + fmt::Display> fmt::Display for CausalHistory<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, dot) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}{}", dot.actor(), dot.counter())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::CausalOrder::*;

    fn ch(dots: &[(&'static str, u64)]) -> CausalHistory<&'static str> {
        dots.iter().map(|&(a, c)| Dot::new(a, c)).collect()
    }

    #[test]
    fn empty_history() {
        let h: CausalHistory<&str> = CausalHistory::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert!(h.is_compact());
        assert_eq!(h.to_string(), "{}");
    }

    #[test]
    fn insert_and_contains() {
        let mut h = CausalHistory::new();
        assert!(h.insert(Dot::new("A", 1)));
        assert!(!h.insert(Dot::new("A", 1)), "duplicate insert");
        assert!(h.contains(&Dot::new("A", 1)));
        assert!(!h.contains(&Dot::new("A", 2)));
    }

    #[test]
    fn paper_figure_1a_comparisons() {
        // From Figure 1a: {A1,A3} || {A1,A2} and {A1} < {A1,A2}.
        let h1 = ch(&[("A", 1)]);
        let h12 = ch(&[("A", 1), ("A", 2)]);
        let h13 = ch(&[("A", 1), ("A", 3)]);
        assert_eq!(h1.causal_cmp(&h12), Before);
        assert_eq!(h12.causal_cmp(&h1), After);
        assert_eq!(h13.causal_cmp(&h12), Concurrent);
        // Final state of server A: {A1,A2,A3,A4} dominates everything seen.
        let h_final = ch(&[("A", 1), ("A", 2), ("A", 3), ("A", 4)]);
        assert_eq!(h13.causal_cmp(&h_final), Before);
        assert_eq!(h12.causal_cmp(&h_final), Before);
    }

    #[test]
    fn union_and_subset() {
        let a = ch(&[("A", 1), ("A", 3)]);
        let b = ch(&[("A", 1), ("B", 1)]);
        let u = a.united(&b);
        assert!(a.is_subset(&u));
        assert!(b.is_subset(&u));
        assert_eq!(u.len(), 3);
        assert_eq!(u.causal_cmp(&a), After);
    }

    #[test]
    fn compactness_detection() {
        assert!(ch(&[("A", 1), ("A", 2), ("B", 1)]).is_compact());
        assert!(!ch(&[("A", 2)]).is_compact());
        assert!(!ch(&[("A", 1), ("A", 3)]).is_compact());
        assert!(!ch(&[("A", 1), ("B", 2)]).is_compact());
    }

    #[test]
    fn vv_roundtrip_on_compact_histories() {
        let h = ch(&[("A", 1), ("A", 2), ("B", 1)]);
        let vv = h.to_version_vector();
        assert_eq!(vv.get(&"A"), 2);
        assert_eq!(vv.get(&"B"), 1);
        assert_eq!(CausalHistory::from_version_vector(&vv), h);
    }

    #[test]
    fn vv_overapproximates_gapped_histories() {
        // {A1, A3} → [A:3] → {A1, A2, A3}: the gap (A,2) is filled in.
        let h = ch(&[("A", 1), ("A", 3)]);
        let back = CausalHistory::from_version_vector(&h.to_version_vector());
        assert_eq!(back, ch(&[("A", 1), ("A", 2), ("A", 3)]));
        assert_eq!(h.causal_cmp(&back), Before);
    }

    #[test]
    fn maximal_dots_returns_per_actor_frontier() {
        let h = ch(&[("A", 1), ("A", 3), ("B", 2)]);
        assert_eq!(h.maximal_dots(), vec![Dot::new("A", 3), Dot::new("B", 2)]);
    }

    #[test]
    fn display_matches_paper_notation() {
        let h = ch(&[("A", 1), ("A", 2), ("B", 1)]);
        assert_eq!(h.to_string(), "{A1,A2,B1}");
    }

    #[test]
    fn iterator_and_extend() {
        let mut h = ch(&[("A", 1)]);
        h.extend([Dot::new("B", 1), Dot::new("A", 2)]);
        let dots: Vec<_> = h.iter().cloned().collect();
        assert_eq!(
            dots,
            vec![Dot::new("A", 1), Dot::new("A", 2), Dot::new("B", 1)]
        );
        assert_eq!((&h).into_iter().len(), 3);
    }
}
