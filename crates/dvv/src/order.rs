//! [`CausalOrder`]: the four possible outcomes of a causality comparison.

use core::fmt;

/// Result of comparing two versions (or clocks) under the causality partial
/// order.
///
/// Unlike [`core::cmp::Ordering`], a causal comparison has a fourth outcome:
/// two versions may be [`Concurrent`](CausalOrder::Concurrent) — neither
/// happened before the other. Because of that fourth case, the clock types
/// in this crate deliberately do **not** implement [`PartialOrd`]; they
/// expose an explicit `causal_cmp` method returning this enum instead.
///
/// # Examples
///
/// ```
/// use dvv::CausalOrder;
/// assert!(CausalOrder::Before.is_before());
/// assert!(CausalOrder::Concurrent.is_concurrent());
/// assert_eq!(CausalOrder::Before.reverse(), CausalOrder::After);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CausalOrder {
    /// The two versions are the same event (identical causal histories).
    Equal,
    /// The left version causally precedes (happened before) the right.
    Before,
    /// The left version causally succeeds (happened after) the right.
    After,
    /// Neither version precedes the other.
    Concurrent,
}

impl CausalOrder {
    /// Returns `true` if the comparison found the two versions equal.
    #[must_use]
    pub fn is_equal(self) -> bool {
        self == CausalOrder::Equal
    }

    /// Returns `true` if the left version happened strictly before the right.
    #[must_use]
    pub fn is_before(self) -> bool {
        self == CausalOrder::Before
    }

    /// Returns `true` if the left version happened strictly after the right.
    #[must_use]
    pub fn is_after(self) -> bool {
        self == CausalOrder::After
    }

    /// Returns `true` if the versions are concurrent.
    #[must_use]
    pub fn is_concurrent(self) -> bool {
        self == CausalOrder::Concurrent
    }

    /// Returns `true` if the left version is dominated by the right
    /// (strictly before, or equal).
    #[must_use]
    pub fn is_dominated(self) -> bool {
        matches!(self, CausalOrder::Before | CausalOrder::Equal)
    }

    /// Returns `true` if the left version dominates the right
    /// (strictly after, or equal).
    #[must_use]
    pub fn dominates(self) -> bool {
        matches!(self, CausalOrder::After | CausalOrder::Equal)
    }

    /// The comparison with the operands swapped.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvv::CausalOrder;
    /// assert_eq!(CausalOrder::Concurrent.reverse(), CausalOrder::Concurrent);
    /// assert_eq!(CausalOrder::After.reverse(), CausalOrder::Before);
    /// ```
    #[must_use]
    pub fn reverse(self) -> CausalOrder {
        match self {
            CausalOrder::Before => CausalOrder::After,
            CausalOrder::After => CausalOrder::Before,
            other => other,
        }
    }

    /// Builds a [`CausalOrder`] from the two dominance predicates
    /// `left ⊆ right` and `right ⊆ left` (set-inclusion of causal
    /// histories, per Schwarz & Mattern).
    ///
    /// # Examples
    ///
    /// ```
    /// use dvv::CausalOrder;
    /// assert_eq!(CausalOrder::from_dominance(true, true), CausalOrder::Equal);
    /// assert_eq!(CausalOrder::from_dominance(true, false), CausalOrder::Before);
    /// assert_eq!(CausalOrder::from_dominance(false, true), CausalOrder::After);
    /// assert_eq!(CausalOrder::from_dominance(false, false), CausalOrder::Concurrent);
    /// ```
    #[must_use]
    pub fn from_dominance(left_included: bool, right_included: bool) -> CausalOrder {
        match (left_included, right_included) {
            (true, true) => CausalOrder::Equal,
            (true, false) => CausalOrder::Before,
            (false, true) => CausalOrder::After,
            (false, false) => CausalOrder::Concurrent,
        }
    }

    /// Converts to a [`core::cmp::Ordering`] when the versions are ordered,
    /// or `None` when they are concurrent.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvv::CausalOrder;
    /// use core::cmp::Ordering;
    /// assert_eq!(CausalOrder::Before.to_ordering(), Some(Ordering::Less));
    /// assert_eq!(CausalOrder::Concurrent.to_ordering(), None);
    /// ```
    #[must_use]
    pub fn to_ordering(self) -> Option<core::cmp::Ordering> {
        match self {
            CausalOrder::Equal => Some(core::cmp::Ordering::Equal),
            CausalOrder::Before => Some(core::cmp::Ordering::Less),
            CausalOrder::After => Some(core::cmp::Ordering::Greater),
            CausalOrder::Concurrent => None,
        }
    }
}

impl fmt::Display for CausalOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CausalOrder::Equal => "=",
            CausalOrder::Before => "<",
            CausalOrder::After => ">",
            CausalOrder::Concurrent => "||",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::CausalOrder::*;
    use super::*;

    #[test]
    fn predicates_cover_all_variants() {
        assert!(Equal.is_equal() && !Equal.is_before() && !Equal.is_concurrent());
        assert!(Before.is_before() && Before.is_dominated() && !Before.dominates());
        assert!(After.is_after() && After.dominates() && !After.is_dominated());
        assert!(
            Concurrent.is_concurrent() && !Concurrent.dominates() && !Concurrent.is_dominated()
        );
        assert!(Equal.dominates() && Equal.is_dominated());
    }

    #[test]
    fn reverse_is_involutive() {
        for o in [Equal, Before, After, Concurrent] {
            assert_eq!(o.reverse().reverse(), o);
        }
    }

    #[test]
    fn from_dominance_matches_set_inclusion_semantics() {
        assert_eq!(CausalOrder::from_dominance(true, true), Equal);
        assert_eq!(CausalOrder::from_dominance(true, false), Before);
        assert_eq!(CausalOrder::from_dominance(false, true), After);
        assert_eq!(CausalOrder::from_dominance(false, false), Concurrent);
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(Concurrent.to_string(), "||");
        assert_eq!(Before.to_string(), "<");
        assert_eq!(After.to_string(), ">");
        assert_eq!(Equal.to_string(), "=");
    }

    #[test]
    fn to_ordering_roundtrip() {
        use core::cmp::Ordering;
        assert_eq!(Equal.to_ordering(), Some(Ordering::Equal));
        assert_eq!(After.to_ordering(), Some(Ordering::Greater));
        assert_eq!(Concurrent.to_ordering(), None);
    }
}
