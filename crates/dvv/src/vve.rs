//! [`Vve`]: version vectors with exceptions (WinFS-style), a related-work
//! comparator.
//!
//! The paper's related-work section contrasts DVVs with WinFS's *version
//! vectors with exceptions* (Malkhi & Terry, 2007): a VVE records, per
//! actor, a base counter plus an explicit set of missing counters below the
//! base, so it can represent **any** (non-contiguous) causal history — at
//! the cost of unbounded exception lists under sustained concurrency. In
//! most multi-version stores a client can only replace all versions it has
//! seen, making a DVV with a single dot sufficient; this module exists to
//! demonstrate that trade-off empirically.

use core::fmt;
use std::collections::{BTreeMap, BTreeSet};

use crate::actor::Actor;
use crate::dot::Dot;
use crate::order::CausalOrder;
use crate::version_vector::VersionVector;

/// Per-actor state: everything up to `base` is included, except the
/// counters listed in `exceptions` (all of which are `≤ base`).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
struct ActorState {
    base: u64,
    exceptions: BTreeSet<u64>,
}

/// A version vector with exceptions: an exact representation of an
/// arbitrary causal history.
///
/// # Examples
///
/// ```
/// use dvv::vve::Vve;
/// use dvv::Dot;
///
/// let mut h = Vve::new();
/// h.add(Dot::new("A", 1));
/// h.add(Dot::new("A", 3)); // gap at (A,2)
/// assert!(h.contains(&Dot::new("A", 1)));
/// assert!(!h.contains(&Dot::new("A", 2)));
/// assert!(h.contains(&Dot::new("A", 3)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Vve<A: Ord> {
    entries: BTreeMap<A, ActorState>,
}

impl<A: Actor> Vve<A> {
    /// Creates an empty history.
    #[must_use]
    pub fn new() -> Self {
        Vve {
            entries: BTreeMap::new(),
        }
    }

    /// Whether `dot` is in the history.
    #[must_use]
    pub fn contains(&self, dot: &Dot<A>) -> bool {
        self.entries
            .get(dot.actor())
            .is_some_and(|st| dot.counter() <= st.base && !st.exceptions.contains(&dot.counter()))
    }

    /// Adds one event, extending the base or filling an exception as
    /// appropriate. Returns `true` if the event was new.
    pub fn add(&mut self, dot: Dot<A>) -> bool {
        let (actor, counter) = dot.into_parts();
        let st = self.entries.entry(actor).or_default();
        if counter <= st.base {
            st.exceptions.remove(&counter)
        } else {
            for missing in st.base + 1..counter {
                st.exceptions.insert(missing);
            }
            st.base = counter;
            true
        }
    }

    /// Set union with another history.
    pub fn union(&mut self, other: &Self) {
        for (actor, theirs) in &other.entries {
            let st = self.entries.entry(actor.clone()).or_default();
            if theirs.base > st.base {
                // counters in (st.base, theirs.base] that *they* are missing
                // are missing from the union too; ours above base were all
                // missing before.
                for c in st.base + 1..=theirs.base {
                    if theirs.exceptions.contains(&c) {
                        st.exceptions.insert(c);
                    }
                }
                st.base = theirs.base;
            }
            // Below min(base, theirs.base): missing iff missing from both.
            st.exceptions
                .retain(|c| *c > theirs.base || theirs.exceptions.contains(c));
        }
    }

    /// Returns the union without mutating either operand.
    #[must_use]
    pub fn united(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.union(other);
        out
    }

    /// Whether `self ⊆ other` as sets of events.
    #[must_use]
    pub fn is_subset(&self, other: &Self) -> bool {
        self.entries.iter().all(|(actor, st)| {
            let theirs = match other.entries.get(actor) {
                Some(t) => t,
                None => return st.base == st.exceptions.len() as u64,
            };
            // every counter ≤ st.base not excepted here must be present there
            if st.base <= theirs.base {
                // missing-from-them within our range must also be missing here
                theirs
                    .exceptions
                    .iter()
                    .take_while(|c| **c <= st.base)
                    .all(|c| st.exceptions.contains(c))
            } else {
                // we include events above their base unless excepted: all of
                // (theirs.base, st.base] must be excepted here…
                (theirs.base + 1..=st.base).all(|c| st.exceptions.contains(&c))
                    && theirs.exceptions.iter().all(|c| st.exceptions.contains(c))
            }
        })
    }

    /// Four-way causal comparison by set inclusion.
    #[must_use]
    pub fn causal_cmp(&self, other: &Self) -> CausalOrder {
        CausalOrder::from_dominance(self.is_subset(other), other.is_subset(self))
    }

    /// Total number of exceptions across all actors — the metadata overhead
    /// a plain VV does not have.
    #[must_use]
    pub fn exception_count(&self) -> usize {
        self.entries.values().map(|st| st.exceptions.len()).sum()
    }

    /// Number of per-actor entries.
    #[must_use]
    pub fn actor_count(&self) -> usize {
        self.entries.len()
    }

    /// Whether the history is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries
            .values()
            .all(|st| st.base == st.exceptions.len() as u64)
    }

    /// The contiguous-prefix approximation (drops exception information).
    #[must_use]
    pub fn to_version_vector(&self) -> VersionVector<A> {
        self.entries
            .iter()
            .map(|(a, st)| (a.clone(), st.base))
            .collect()
    }

    /// Builds the exact history of a version vector (no exceptions).
    #[must_use]
    pub fn from_version_vector(vv: &VersionVector<A>) -> Self {
        let mut out = Vve::new();
        for (actor, counter) in vv.iter() {
            out.entries.insert(
                actor.clone(),
                ActorState {
                    base: counter,
                    exceptions: BTreeSet::new(),
                },
            );
        }
        out
    }

    /// (crate-internal) marks `dot` as an exception (missing event). Used
    /// when rebuilding from a binary encoding. Returns `false` if the dot's
    /// counter is above the actor's base (not representable as exception).
    pub(crate) fn except(&mut self, dot: &Dot<A>) -> bool {
        match self.entries.get_mut(dot.actor()) {
            Some(st) if dot.counter() <= st.base => {
                st.exceptions.insert(dot.counter());
                true
            }
            _ => false,
        }
    }

    /// Iterates over every event in the history (test/oracle use; linear in
    /// the event count).
    pub fn iter_dots(&self) -> impl Iterator<Item = Dot<A>> + '_ {
        self.entries.iter().flat_map(|(a, st)| {
            (1..=st.base)
                .filter(|c| !st.exceptions.contains(c))
                .map(|c| Dot::new(a.clone(), c))
        })
    }
}

impl<A: Actor> FromIterator<Dot<A>> for Vve<A> {
    fn from_iter<I: IntoIterator<Item = Dot<A>>>(iter: I) -> Self {
        let mut v = Vve::new();
        for d in iter {
            v.add(d);
        }
        v
    }
}

impl<A: Actor + fmt::Display> fmt::Display for Vve<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (a, st)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}:{}", st.base)?;
            if !st.exceptions.is_empty() {
                write!(f, "\\{{")?;
                for (j, c) in st.exceptions.iter().enumerate() {
                    if j > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, "}}")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal_history::CausalHistory;
    use crate::order::CausalOrder::*;

    fn vve(dots: &[(&'static str, u64)]) -> Vve<&'static str> {
        dots.iter().map(|&(a, c)| Dot::new(a, c)).collect()
    }

    fn ch(dots: &[(&'static str, u64)]) -> CausalHistory<&'static str> {
        dots.iter().map(|&(a, c)| Dot::new(a, c)).collect()
    }

    #[test]
    fn empty() {
        let v: Vve<&str> = Vve::new();
        assert!(v.is_empty());
        assert_eq!(v.exception_count(), 0);
        assert!(!v.contains(&Dot::new("A", 1)));
    }

    #[test]
    fn add_contiguous_has_no_exceptions() {
        let v = vve(&[("A", 1), ("A", 2), ("A", 3)]);
        assert_eq!(v.exception_count(), 0);
        assert!(v.contains(&Dot::new("A", 3)));
        assert!(!v.contains(&Dot::new("A", 4)));
    }

    #[test]
    fn add_with_gap_records_exceptions() {
        let v = vve(&[("A", 1), ("A", 4)]);
        assert_eq!(v.exception_count(), 2); // missing 2 and 3
        assert!(!v.contains(&Dot::new("A", 2)));
        assert!(!v.contains(&Dot::new("A", 3)));
        assert!(v.contains(&Dot::new("A", 4)));
    }

    #[test]
    fn filling_a_gap_removes_the_exception() {
        let mut v = vve(&[("A", 1), ("A", 3)]);
        assert_eq!(v.exception_count(), 1);
        assert!(v.add(Dot::new("A", 2)));
        assert!(!v.add(Dot::new("A", 2)), "second add is a no-op");
        assert_eq!(v.exception_count(), 0);
    }

    #[test]
    fn union_matches_set_union_against_reference() {
        type Dots = &'static [(&'static str, u64)];
        let cases: &[(Dots, Dots)] = &[
            (&[("A", 1), ("A", 3)], &[("A", 2)]),
            (&[("A", 2)], &[("B", 1), ("A", 5)]),
            (&[("A", 1), ("B", 3)], &[("A", 4), ("B", 1)]),
            (&[], &[("A", 2)]),
        ];
        for (l, r) in cases {
            let u = vve(l).united(&vve(r));
            let expected: CausalHistory<&str> = ch(l).united(&ch(r));
            let got: CausalHistory<&str> = u.iter_dots().collect();
            assert_eq!(got, expected, "union mismatch for {l:?} ∪ {r:?}");
        }
    }

    #[test]
    fn subset_and_causal_cmp_match_reference() {
        let fixtures: &[&[(&'static str, u64)]] = &[
            &[],
            &[("A", 1)],
            &[("A", 1), ("A", 2)],
            &[("A", 1), ("A", 3)],
            &[("A", 1), ("A", 2), ("B", 1)],
            &[("B", 1)],
            &[("A", 3)],
        ];
        for l in fixtures {
            for r in fixtures {
                let fast = vve(l).causal_cmp(&vve(r));
                let exact = ch(l).causal_cmp(&ch(r));
                assert_eq!(fast, exact, "cmp mismatch for {l:?} vs {r:?}");
            }
        }
    }

    #[test]
    fn paper_gapped_history_is_representable() {
        // {A1, A3} — the history a plain VV cannot express (Figure 1b).
        let v = vve(&[("A", 1), ("A", 3)]);
        let w = vve(&[("A", 1), ("A", 2)]);
        assert_eq!(v.causal_cmp(&w), Concurrent);
    }

    #[test]
    fn vv_roundtrip() {
        let mut vv = VersionVector::new();
        vv.set("A", 3);
        vv.set("B", 1);
        let v = Vve::from_version_vector(&vv);
        assert_eq!(v.exception_count(), 0);
        assert_eq!(v.to_version_vector(), vv);
    }

    #[test]
    fn to_version_vector_overapproximates() {
        let v = vve(&[("A", 1), ("A", 3)]);
        assert_eq!(v.to_version_vector().get(&"A"), 3);
    }

    #[test]
    fn display_shows_exceptions() {
        let v = vve(&[("A", 1), ("A", 3)]);
        assert_eq!(v.to_string(), "[A:3\\{2}]");
        assert_eq!(vve(&[("A", 2)]).to_string(), "[A:2\\{1}]");
    }

    #[test]
    fn is_empty_tolerates_all_excepted_entries() {
        // an entry whose events were all exceptions represents no events
        let mut v: Vve<&str> = Vve::new();
        v.add(Dot::new("A", 2)); // {2}, exception {1}

        // remove the only event by constructing the pathological state via union
        // with an empty history is identity; emptiness here is just structural:
        assert!(!v.is_empty());
    }
}
