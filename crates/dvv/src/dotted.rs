//! [`Dvv`]: the dotted version vector — the paper's contribution.

use core::fmt;

use crate::actor::Actor;
use crate::causal_history::CausalHistory;
use crate::dot::Dot;
use crate::order::CausalOrder;
use crate::version_vector::VersionVector;

/// A dotted version vector: the pair `(dot, vv)` where the [`Dot`] is the
/// globally unique identifier of *this* version and the [`VersionVector`]
/// is its causal past.
///
/// The represented causal history is
/// `C[[((i,n), v)]] = {i_n} ∪ ⋃_j { j_m | 1 ≤ m ≤ v[j] }` — the dot itself
/// plus everything the vector summarises. Note the dot is **not** required
/// to be contiguous with the vector: after concurrent client writes through
/// the same server, a version may be `(A,3)[A:1]`, whose history `{A1, A3}`
/// no plain version vector can express (Figure 1b/1c of the paper).
///
/// # O(1) comparison
///
/// `a < b iff na ≤ vb[ia]` — version `a` precedes `b` exactly when `a`'s
/// dot is inside `b`'s causal past: one map lookup.
///
/// # Examples
///
/// ```
/// use dvv::{Dot, VersionVector, CausalOrder};
/// use dvv::dotted::Dvv;
///
/// // The paper's Figure 1c concurrency: (A,3)[A:1] || (A,2)[A:1]
/// let mut past = VersionVector::new();
/// past.set("A", 1);
/// let v2 = Dvv::new(Dot::new("A", 2), past.clone());
/// let v3 = Dvv::new(Dot::new("A", 3), past);
/// assert_eq!(v3.causal_cmp(&v2), CausalOrder::Concurrent);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Dvv<A: Ord> {
    dot: Dot<A>,
    vv: VersionVector<A>,
}

impl<A: Actor> Dvv<A> {
    /// Creates a dotted version vector from a version identifier and its
    /// causal past.
    ///
    /// The past may or may not already include earlier events by the dot's
    /// actor; it must simply not include the dot itself.
    ///
    /// # Panics
    ///
    /// Panics if `vv` already contains `dot` — that would make the version
    /// its own causal ancestor.
    #[must_use]
    pub fn new(dot: Dot<A>, vv: VersionVector<A>) -> Self {
        assert!(
            !vv.contains(&dot),
            "a version's causal past must not contain its own identifier"
        );
        Dvv { dot, vv }
    }

    /// The unique identifier of this version.
    #[must_use]
    pub fn dot(&self) -> &Dot<A> {
        &self.dot
    }

    /// The causal past of this version (excluding the dot itself).
    #[must_use]
    pub fn past(&self) -> &VersionVector<A> {
        &self.vv
    }

    /// O(1) test: does this version causally precede `other`?
    ///
    /// True exactly when this version's dot is inside `other`'s causal
    /// past — a single map lookup, independent of the number of actors.
    #[must_use]
    pub fn precedes(&self, other: &Self) -> bool {
        other.vv.contains(&self.dot)
    }

    /// O(1) test: are the two versions concurrent?
    #[must_use]
    pub fn concurrent(&self, other: &Self) -> bool {
        self.causal_cmp(other) == CausalOrder::Concurrent
    }

    /// Four-way causal comparison in O(1).
    ///
    /// Two versions are the same iff their dots are equal (dots are
    /// globally unique); otherwise each direction is one containment test.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvv::{Dot, VersionVector, CausalOrder};
    /// use dvv::dotted::Dvv;
    /// let v1 = Dvv::new(Dot::new("A", 1), VersionVector::new());
    /// let mut past = VersionVector::new();
    /// past.set("A", 1);
    /// let v2 = Dvv::new(Dot::new("B", 1), past);
    /// assert_eq!(v1.causal_cmp(&v2), CausalOrder::Before);
    /// ```
    #[must_use]
    pub fn causal_cmp(&self, other: &Self) -> CausalOrder {
        if self.dot == other.dot {
            CausalOrder::Equal
        } else {
            CausalOrder::from_dominance(self.precedes(other), other.precedes(self))
        }
    }

    /// Whether `dot` is in the represented history (the version id or its
    /// past).
    #[must_use]
    pub fn contains(&self, dot: &Dot<A>) -> bool {
        self.dot == *dot || self.vv.contains(dot)
    }

    /// The full history as a version vector, *if* it is expressible as one
    /// — i.e. the dot extends its past contiguously. Returns `None` when
    /// the history has a gap (e.g. `(A,3)[A:1]`).
    #[must_use]
    pub fn to_compact_vv(&self) -> Option<VersionVector<A>> {
        let before = self.vv.get(self.dot.actor());
        (self.dot.counter() == before + 1).then(|| {
            let mut vv = self.vv.clone();
            vv.record(self.dot.clone());
            vv
        })
    }

    /// The join of the version id and its past: the least version vector
    /// that includes the whole history. Over-approximates when the history
    /// is gapped; exact otherwise. This is what a reader's *context*
    /// accumulates.
    #[must_use]
    pub fn join_vv(&self) -> VersionVector<A> {
        let mut vv = self.vv.clone();
        vv.record(self.dot.clone());
        vv
    }

    /// The exact causal history represented by this clock (materialised;
    /// linear in the event count — test/oracle use only).
    #[must_use]
    pub fn to_causal_history(&self) -> CausalHistory<A> {
        let mut h = CausalHistory::from_version_vector(&self.vv);
        h.insert(self.dot.clone());
        h
    }

    /// Destructures into `(dot, past)`.
    #[must_use]
    pub fn into_parts(self) -> (Dot<A>, VersionVector<A>) {
        (self.dot, self.vv)
    }
}

impl<A: Actor + fmt::Display> fmt::Display for Dvv<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.dot, self.vv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::CausalOrder::*;

    fn vv(entries: &[(&'static str, u64)]) -> VersionVector<&'static str> {
        entries.iter().copied().collect()
    }

    fn dvv(actor: &'static str, n: u64, past: &[(&'static str, u64)]) -> Dvv<&'static str> {
        Dvv::new(Dot::new(actor, n), vv(past))
    }

    #[test]
    fn accessors_and_parts() {
        let d = dvv("A", 3, &[("A", 1), ("B", 2)]);
        assert_eq!(d.dot(), &Dot::new("A", 3));
        assert_eq!(d.past().get(&"B"), 2);
        let (dot, past) = d.into_parts();
        assert_eq!(dot, Dot::new("A", 3));
        assert_eq!(past.get(&"A"), 1);
    }

    #[test]
    #[should_panic(expected = "own identifier")]
    fn self_containing_past_rejected() {
        let _ = dvv("A", 1, &[("A", 1)]);
    }

    #[test]
    fn paper_figure_1c_trace() {
        // v1 = (A,1)[] ; v2 = (A,2)[A:1] ; v3 = (A,3)[A:1] ; final (A,4)[A:3,B:1]
        let v1 = dvv("A", 1, &[]);
        let v2 = dvv("A", 2, &[("A", 1)]);
        let v3 = dvv("A", 3, &[("A", 1)]);
        let v4 = dvv("A", 4, &[("A", 3), ("B", 1)]);

        assert_eq!(v1.causal_cmp(&v2), Before);
        assert_eq!(v2.causal_cmp(&v3), Concurrent, "the paper's headline case");
        assert_eq!(v3.causal_cmp(&v2), Concurrent);
        // The final write saw both concurrent versions:
        assert_eq!(v2.causal_cmp(&v4), Before);
        assert_eq!(v3.causal_cmp(&v4), Before);
    }

    #[test]
    fn equal_iff_same_dot() {
        let a = dvv("A", 2, &[("A", 1)]);
        let b = dvv("A", 2, &[("A", 1)]);
        assert_eq!(a.causal_cmp(&b), Equal);
    }

    #[test]
    fn precedes_is_one_lookup_semantics() {
        let a = dvv("A", 1, &[]);
        let b = dvv("B", 1, &[("A", 1)]);
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
        assert!(!a.concurrent(&b));
    }

    #[test]
    fn contains_covers_dot_and_past() {
        let d = dvv("A", 3, &[("A", 1), ("B", 1)]);
        assert!(d.contains(&Dot::new("A", 3)));
        assert!(d.contains(&Dot::new("A", 1)));
        assert!(d.contains(&Dot::new("B", 1)));
        assert!(
            !d.contains(&Dot::new("A", 2)),
            "gap: (A,2) not in {{A1,A3,B1}}"
        );
    }

    #[test]
    fn compact_vv_only_when_contiguous() {
        assert_eq!(
            dvv("A", 2, &[("A", 1)]).to_compact_vv(),
            Some(vv(&[("A", 2)]))
        );
        assert_eq!(dvv("A", 3, &[("A", 1)]).to_compact_vv(), None);
    }

    #[test]
    fn join_vv_records_the_dot() {
        let d = dvv("A", 3, &[("A", 1), ("B", 1)]);
        assert_eq!(d.join_vv(), vv(&[("A", 3), ("B", 1)]));
    }

    #[test]
    fn causal_history_matches_definition() {
        // C[[(A,3)[A:1]]] = {A1, A3}
        let d = dvv("A", 3, &[("A", 1)]);
        let h = d.to_causal_history();
        assert_eq!(h.len(), 2);
        assert!(h.contains(&Dot::new("A", 1)));
        assert!(h.contains(&Dot::new("A", 3)));
        assert!(!h.contains(&Dot::new("A", 2)));
    }

    #[test]
    fn dvv_comparison_agrees_with_history_model_on_fixture() {
        let fixtures = [
            dvv("A", 1, &[]),
            dvv("A", 2, &[("A", 1)]),
            dvv("A", 3, &[("A", 1)]),
            dvv("B", 1, &[("A", 2)]),
            dvv("A", 4, &[("A", 3), ("B", 1)]),
        ];
        for x in &fixtures {
            for y in &fixtures {
                let fast = x.causal_cmp(y);
                let exact = x.to_causal_history().causal_cmp(&y.to_causal_history());
                assert_eq!(fast, exact, "mismatch for {x} vs {y}");
            }
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(dvv("A", 3, &[("A", 1)]).to_string(), "(A,3)[A:1]");
    }
}
