//! [`Dot`]: a globally unique event identifier.

use core::fmt;

use crate::actor::Actor;

/// A globally unique identifier of one event: a pair `(actor, counter)`.
///
/// Dots are the atoms of causal histories. The paper's key observation is
/// that a version's *identity* is always a single dot, and keeping that dot
/// separate from the causal past is what lets a [`Dvv`](crate::dotted::Dvv)
/// verify causality in O(1).
///
/// Counters start at 1: the first event an actor creates is `(a, 1)`,
/// matching the paper's convention that a version vector entry `v[a] = n`
/// summarises the dots `(a, 1) … (a, n)`.
///
/// # Examples
///
/// ```
/// use dvv::Dot;
/// let d = Dot::new("A", 3);
/// assert_eq!(d.actor(), &"A");
/// assert_eq!(d.counter(), 3);
/// assert_eq!(d.to_string(), "(A,3)");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dot<A> {
    actor: A,
    counter: u64,
}

impl<A: Actor> Dot<A> {
    /// Creates the dot `(actor, counter)`.
    ///
    /// # Panics
    ///
    /// Panics if `counter` is zero — counters are 1-based, and a zero
    /// counter would silently denote “no event”, a classic off-by-one trap.
    #[must_use]
    pub fn new(actor: A, counter: u64) -> Self {
        assert!(counter > 0, "dot counters are 1-based; got 0");
        Dot { actor, counter }
    }

    /// The actor that created this event.
    #[must_use]
    pub fn actor(&self) -> &A {
        &self.actor
    }

    /// The per-actor sequence number of this event (1-based).
    #[must_use]
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// The next event by the same actor: `(a, n) → (a, n+1)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvv::Dot;
    /// assert_eq!(Dot::new("A", 1).advance(), Dot::new("A", 2));
    /// ```
    #[must_use]
    pub fn advance(&self) -> Self {
        Dot {
            actor: self.actor.clone(),
            counter: self.counter + 1,
        }
    }

    /// Destructures into `(actor, counter)`.
    #[must_use]
    pub fn into_parts(self) -> (A, u64) {
        (self.actor, self.counter)
    }
}

impl<A: Actor> From<(A, u64)> for Dot<A> {
    fn from((actor, counter): (A, u64)) -> Self {
        Dot::new(actor, counter)
    }
}

impl<A: Actor + fmt::Display> fmt::Display for Dot<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.actor, self.counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let d = Dot::new("B", 7);
        assert_eq!(d.actor(), &"B");
        assert_eq!(d.counter(), 7);
        assert_eq!(d.into_parts(), ("B", 7));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_counter_panics() {
        let _ = Dot::new("A", 0);
    }

    #[test]
    fn advance_increments_counter_only() {
        let d = Dot::new("A", 1).advance().advance();
        assert_eq!(d, Dot::new("A", 3));
    }

    #[test]
    fn ordering_is_actor_then_counter() {
        // The derived total order is used for canonical storage only,
        // never as a causal order.
        let mut dots = vec![Dot::new("B", 1), Dot::new("A", 2), Dot::new("A", 1)];
        dots.sort();
        assert_eq!(
            dots,
            vec![Dot::new("A", 1), Dot::new("A", 2), Dot::new("B", 1)]
        );
    }

    #[test]
    fn from_tuple() {
        let d: Dot<&str> = ("A", 4).into();
        assert_eq!(d, Dot::new("A", 4));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Dot::new("A", 3).to_string(), "(A,3)");
    }
}
