//! Server-side algorithms over sibling sets of DVV-tagged versions:
//! [`update`] (coordinate a client write) and [`sync`] (merge replica
//! states), exactly as in the paper's storage-system protocol.
//!
//! A multi-version store keeps, per key, a small set of **siblings** —
//! versions no one of which causally dominates another. Clients read all
//! siblings plus a *context* (the join of their clocks), do their
//! read-modify-write, and submit the new value together with that context.

use core::fmt;

use crate::actor::Actor;
use crate::dot::Dot;
use crate::dotted::Dvv;
use crate::version_vector::VersionVector;

/// A value tagged with its dotted-version-vector clock.
///
/// # Examples
///
/// ```
/// use dvv::server::Tagged;
/// use dvv::{Dot, VersionVector};
/// use dvv::dotted::Dvv;
/// let t = Tagged::new(Dvv::new(Dot::new("A", 1), VersionVector::new()), "v1");
/// assert_eq!(t.value, "v1");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Tagged<A: Ord, V> {
    /// The version's clock.
    pub clock: Dvv<A>,
    /// The application value.
    pub value: V,
}

impl<A: Actor, V> Tagged<A, V> {
    /// Tags `value` with `clock`.
    pub fn new(clock: Dvv<A>, value: V) -> Self {
        Tagged { clock, value }
    }
}

impl<A: Actor + fmt::Display, V: fmt::Display> fmt::Display for Tagged<A, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.clock, self.value)
    }
}

/// The read *context* of a sibling set: the join of all sibling clocks.
///
/// This is the plain version vector a client receives on GET and must echo
/// back on PUT; it is what makes the subsequent write dominate everything
/// the client saw.
///
/// # Examples
///
/// ```
/// use dvv::server::{context, Tagged};
/// use dvv::{Dot, VersionVector};
/// use dvv::dotted::Dvv;
/// let s = vec![Tagged::new(Dvv::new(Dot::new("A", 2), VersionVector::new()), 1)];
/// assert_eq!(context(&s).get(&"A"), 2);
/// ```
#[must_use]
pub fn context<A: Actor, V>(siblings: &[Tagged<A, V>]) -> VersionVector<A> {
    let mut ctx = VersionVector::new();
    for s in siblings {
        ctx.merge(s.clock.past());
        ctx.record(s.clock.dot().clone());
    }
    ctx
}

/// Coordinates a client write at replica `server`: generates the new
/// version's clock, discards the siblings it obsoletes, and inserts it.
///
/// Following the paper (§2, *efficient causality tracking in replicated
/// storage systems*) and the tech report's `update` function:
///
/// 1. the new dot is `(server, n+1)` where `n` is the highest counter of
///    `server` known locally (across all sibling clocks) or present in the
///    client context — the server never reuses a counter;
/// 2. the new version's causal past is exactly the client's context `ctx`;
/// 3. a sibling is obsolete iff its dot is contained in `ctx` (an O(1)
///    containment test per sibling — *not* a vector comparison).
///
/// Returns the clock of the newly written version.
///
/// # Examples
///
/// Reproducing Figure 1c's concurrent writes through server `"A"`:
///
/// ```
/// use dvv::server::{update, context};
/// use dvv::VersionVector;
///
/// let mut siblings = Vec::new();
/// // First client writes having read nothing:
/// let v1 = update(&mut siblings, &VersionVector::new(), "A", "w1");
/// let ctx = context(&siblings); // a client reads v1
/// // …and writes back:
/// let v2 = update(&mut siblings, &ctx, "A", "w2");
/// // A slow client that also read v1 writes concurrently:
/// let v3 = update(&mut siblings, &ctx, "A", "w3");
/// assert_eq!(siblings.len(), 2, "v2 and v3 are kept as concurrent siblings");
/// assert!(v2.concurrent(&v3));
/// # let _ = v1;
/// ```
pub fn update<A: Actor, V>(
    siblings: &mut Vec<Tagged<A, V>>,
    ctx: &VersionVector<A>,
    server: A,
    value: V,
) -> Dvv<A> {
    update_with_floor(siblings, ctx, server, value, 0)
}

/// [`update`] with an additional per-server counter *floor*: the minted
/// counter is strictly greater than `floor` as well as everything known
/// locally or in `ctx`.
///
/// The floor is the hook for crash recovery under coarse durability: a
/// replica whose log lost its unsynced tail can have replayed counters
/// *below* dots that already escaped to peers before the crash. Passing
/// the durably reserved counter ceiling as `floor` makes the lost
/// tail's dots unreachable — the server can never re-mint one of them
/// for a different value. A floor of `0` is exactly [`update`].
pub fn update_with_floor<A: Actor, V>(
    siblings: &mut Vec<Tagged<A, V>>,
    ctx: &VersionVector<A>,
    server: A,
    value: V,
    floor: u64,
) -> Dvv<A> {
    let counter = max_counter_of(siblings, &server)
        .max(ctx.get(&server))
        .max(floor)
        + 1;
    let dot = Dot::new(server, counter);
    let clock = Dvv::new(dot, ctx.clone());

    siblings.retain(|s| !ctx.contains(s.clock.dot()));
    siblings.push(Tagged::new(clock.clone(), value));
    canonicalize(siblings);
    clock
}

/// Sorts a sibling set into its canonical representation: ascending by dot.
///
/// Sibling sets are logically unordered, but they are stored and hashed as
/// vectors — anti-entropy fingerprints two replicas' states structurally.
/// Keeping every mutation path canonical makes [`sync`] commutative at the
/// representation level, so replicas that hold the same *set* of versions
/// also hold the same *vector* and their Merkle leaves agree.
pub fn canonicalize<A: Actor, V>(siblings: &mut [Tagged<A, V>]) {
    siblings.sort_by(|a, b| a.clock.dot().cmp(b.clock.dot()));
}

/// The highest counter of `actor` appearing anywhere in the sibling set —
/// in a dot or in a causal past. This is the server's local knowledge used
/// to generate fresh dots.
#[must_use]
pub fn max_counter_of<A: Actor, V>(siblings: &[Tagged<A, V>], actor: &A) -> u64 {
    siblings
        .iter()
        .map(|s| {
            let in_dot = if s.clock.dot().actor() == actor {
                s.clock.dot().counter()
            } else {
                0
            };
            in_dot.max(s.clock.past().get(actor))
        })
        .max()
        .unwrap_or(0)
}

/// Merges two replicas' sibling sets (anti-entropy / replicated put).
///
/// A version survives iff no version on the other side *strictly dominates*
/// it; versions present on both sides (same dot) are kept once. Each
/// pairwise check is the O(1) dot-containment test.
///
/// The result is returned as a fresh vector in canonical (dot-sorted)
/// order — see [`canonicalize`]; inputs are unchanged.
///
/// # Examples
///
/// ```
/// use dvv::server::{update, sync};
/// use dvv::VersionVector;
///
/// let mut at_a = Vec::new();
/// update(&mut at_a, &VersionVector::new(), "A", 1);
/// let mut at_b = Vec::new();
/// update(&mut at_b, &VersionVector::new(), "B", 2);
/// let merged = sync(&at_a, &at_b);
/// assert_eq!(merged.len(), 2, "independent writes are concurrent");
/// ```
#[must_use]
pub fn sync<A: Actor, V: Clone>(s1: &[Tagged<A, V>], s2: &[Tagged<A, V>]) -> Vec<Tagged<A, V>> {
    let mut out: Vec<Tagged<A, V>> = Vec::with_capacity(s1.len() + s2.len());
    for x in s1 {
        let dominated = s2
            .iter()
            .any(|y| y.clock.dot() != x.clock.dot() && y.clock.past().contains(x.clock.dot()));
        if !dominated {
            out.push(x.clone());
        }
    }
    for y in s2 {
        let dominated = s1
            .iter()
            .any(|x| x.clock.dot() != y.clock.dot() && x.clock.past().contains(y.clock.dot()));
        let duplicate = out.iter().any(|x| x.clock.dot() == y.clock.dot());
        if !dominated && !duplicate {
            out.push(y.clone());
        }
    }
    canonicalize(&mut out);
    out
}

/// Merges `remote` into `local` in place (see [`sync`]).
pub fn sync_into<A: Actor, V: Clone>(local: &mut Vec<Tagged<A, V>>, remote: &[Tagged<A, V>]) {
    *local = sync(local, remote);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::CausalOrder;

    type Sib = Vec<Tagged<&'static str, &'static str>>;

    #[test]
    fn update_on_empty_store_creates_first_dot() {
        let mut s: Sib = Vec::new();
        let c = update(&mut s, &VersionVector::new(), "A", "v1");
        assert_eq!(c.dot(), &Dot::new("A", 1));
        assert!(c.past().is_empty());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn causal_write_replaces_predecessor() {
        let mut s: Sib = Vec::new();
        update(&mut s, &VersionVector::new(), "A", "v1");
        let ctx = context(&s);
        let c2 = update(&mut s, &ctx, "A", "v2");
        assert_eq!(s.len(), 1, "v1 was dominated and discarded");
        assert_eq!(s[0].value, "v2");
        assert_eq!(c2.dot(), &Dot::new("A", 2));
    }

    #[test]
    fn concurrent_client_writes_become_siblings_figure_1c() {
        let mut s: Sib = Vec::new();
        update(&mut s, &VersionVector::new(), "A", "v1");
        let ctx = context(&s); // both clients read v1
        let c2 = update(&mut s, &ctx, "A", "v2");
        let c3 = update(&mut s, &ctx, "A", "v3");
        assert_eq!(s.len(), 2);
        // Exactly the paper's (A,2)[A:1] || (A,3)[A:1]
        assert_eq!(c2.dot(), &Dot::new("A", 2));
        assert_eq!(c3.dot(), &Dot::new("A", 3));
        assert_eq!(c2.causal_cmp(&c3), CausalOrder::Concurrent);
    }

    #[test]
    fn stale_context_write_keeps_newer_sibling() {
        let mut s: Sib = Vec::new();
        update(&mut s, &VersionVector::new(), "A", "v1");
        let stale = context(&s);
        let fresh = context(&s);
        let c2 = update(&mut s, &fresh, "A", "v2");
        // Client with stale (pre-v2) context writes now:
        let c3 = update(&mut s, &stale, "A", "v3");
        assert_eq!(s.len(), 2);
        assert_eq!(c2.causal_cmp(&c3), CausalOrder::Concurrent);
    }

    #[test]
    fn write_covering_both_siblings_collapses_them() {
        let mut s: Sib = Vec::new();
        update(&mut s, &VersionVector::new(), "A", "v1");
        let ctx1 = context(&s);
        update(&mut s, &ctx1, "A", "v2");
        update(&mut s, &ctx1, "A", "v3");
        assert_eq!(s.len(), 2);
        let ctx_all = context(&s);
        let c4 = update(&mut s, &ctx_all, "A", "v4");
        assert_eq!(
            s.len(),
            1,
            "a write that saw everything replaces everything"
        );
        assert_eq!(s[0].value, "v4");
        assert_eq!(c4.dot(), &Dot::new("A", 4), "counter keeps increasing");
    }

    #[test]
    fn counters_never_reused_after_discard() {
        let mut s: Sib = Vec::new();
        update(&mut s, &VersionVector::new(), "A", "v1");
        let ctx = context(&s);
        update(&mut s, &ctx, "A", "v2"); // discards v1; (A,2)
        let ctx2 = context(&s);
        let c3 = update(&mut s, &ctx2, "A", "v3"); // must be (A,3), not (A,2)
        assert_eq!(c3.dot(), &Dot::new("A", 3));
    }

    #[test]
    fn floor_lifts_minted_counter_above_lost_tail() {
        // Replayed state knows (A,2); peers hold up to (A,9) from a lost
        // tail. With the reserved ceiling 9 as floor, the fresh dot must
        // be (A,10) even though nothing local mentions counters 3..=9.
        let mut s: Sib = Vec::new();
        let mut ctx = VersionVector::new();
        ctx.set("A", 2);
        let c = update_with_floor(&mut s, &ctx, "A", "v", 9);
        assert_eq!(c.dot(), &Dot::new("A", 10));
        // a zero floor is exactly `update`
        let mut s2: Sib = Vec::new();
        let c2 = update_with_floor(&mut s2, &VersionVector::new(), "A", "v", 0);
        assert_eq!(c2.dot(), &Dot::new("A", 1));
    }

    #[test]
    fn context_from_foreign_replica_bumps_counter() {
        // ctx mentions (A,5) even though this replica has no local siblings;
        // the fresh dot must be (A,6) to avoid reuse.
        let mut s: Sib = Vec::new();
        let mut ctx = VersionVector::new();
        ctx.set("A", 5);
        let c = update(&mut s, &ctx, "A", "v");
        assert_eq!(c.dot(), &Dot::new("A", 6));
    }

    #[test]
    fn max_counter_considers_dots_and_pasts() {
        let mut s: Sib = Vec::new();
        let mut ctx = VersionVector::new();
        ctx.set("B", 7);
        update(&mut s, &ctx, "A", "v1");
        assert_eq!(max_counter_of(&s, &"A"), 1);
        assert_eq!(max_counter_of(&s, &"B"), 7);
        assert_eq!(max_counter_of(&s, &"C"), 0);
    }

    #[test]
    fn sync_drops_dominated_versions() {
        let mut s1: Sib = Vec::new();
        update(&mut s1, &VersionVector::new(), "A", "v1");
        let mut s2 = s1.clone();
        let ctx = context(&s2);
        update(&mut s2, &ctx, "A", "v2"); // dominates v1
        let merged = sync(&s1, &s2);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].value, "v2");
        // symmetric
        let merged_rev = sync(&s2, &s1);
        assert_eq!(merged_rev.len(), 1);
        assert_eq!(merged_rev[0].value, "v2");
    }

    #[test]
    fn sync_keeps_concurrent_versions_from_both_sides() {
        let mut s1: Sib = Vec::new();
        update(&mut s1, &VersionVector::new(), "A", "va");
        let mut s2: Sib = Vec::new();
        update(&mut s2, &VersionVector::new(), "B", "vb");
        let merged = sync(&s1, &s2);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn sync_deduplicates_common_versions() {
        let mut s1: Sib = Vec::new();
        update(&mut s1, &VersionVector::new(), "A", "v1");
        let s2 = s1.clone();
        let merged = sync(&s1, &s2);
        assert_eq!(merged.len(), 1);
    }

    #[test]
    fn sync_is_idempotent_and_commutative_on_fixture() {
        let mut s1: Sib = Vec::new();
        update(&mut s1, &VersionVector::new(), "A", "v1");
        let ctx = context(&s1);
        update(&mut s1, &ctx, "A", "v2");
        let mut s2: Sib = Vec::new();
        update(&mut s2, &VersionVector::new(), "B", "v3");

        let m12 = sync(&s1, &s2);
        let m21 = sync(&s2, &s1);
        assert_eq!(m12.len(), m21.len());
        let again = sync(&m12, &m12);
        assert_eq!(again.len(), m12.len());

        // associativity with a third replica
        let mut s3: Sib = Vec::new();
        update(&mut s3, &VersionVector::new(), "C", "v4");
        let left = sync(&sync(&s1, &s2), &s3);
        let right = sync(&s1, &sync(&s2, &s3));
        assert_eq!(left.len(), right.len());
    }

    #[test]
    fn sync_into_mutates_local() {
        let mut s1: Sib = Vec::new();
        update(&mut s1, &VersionVector::new(), "A", "v1");
        let mut s2: Sib = Vec::new();
        update(&mut s2, &VersionVector::new(), "B", "v2");
        sync_into(&mut s1, &s2);
        assert_eq!(s1.len(), 2);
    }

    #[test]
    fn full_figure_1_replay_with_two_servers() {
        // Figure 1c end-to-end: servers A and B, three clients.
        let mut a: Sib = Vec::new();
        let mut b: Sib = Vec::new();

        // c1 writes v1 at A having read nothing: (A,1)[]
        update(&mut a, &VersionVector::new(), "A", "v1");
        let ctx_v1 = context(&a);

        // c1 re-reads and writes v2 at A: (A,2)[A:1]
        update(&mut a, &ctx_v1, "A", "v2");

        // c2 (read v1 earlier) writes v3 at A: (A,3)[A:1] — concurrent with v2
        update(&mut a, &ctx_v1, "A", "v3");
        assert_eq!(a.len(), 2);

        // replication A → B
        sync_into(&mut b, &a);
        assert_eq!(b.len(), 2);

        // c3 reads everything at B and writes v4 at B: (B,1)[A:3]
        let ctx_all = context(&b);
        let c4 = update(&mut b, &ctx_all, "B", "v4");
        assert_eq!(b.len(), 1);
        assert_eq!(c4.dot(), &Dot::new("B", 1));

        // replication B → A collapses A's siblings too
        sync_into(&mut a, &b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].value, "v4");
    }

    #[test]
    fn tagged_display() {
        let t = Tagged::new(Dvv::new(Dot::new("A", 1), VersionVector::new()), "x");
        assert_eq!(t.to_string(), "(A,1)[]=x");
    }
}
