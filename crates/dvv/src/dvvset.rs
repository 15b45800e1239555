//! [`DvvSet`]: the compact *dotted version vector set* — one clock for an
//! entire sibling set.
//!
//! Where [`crate::server`] tags every sibling with its own
//! [`Dvv`](crate::dotted::Dvv), a `DvvSet` factors the common causal
//! information out: per server it stores one counter `n` and the list of
//! values whose dots `(server, n), (server, n-1), …` are still live. All
//! causal information is positional, so the whole sibling set costs one
//! version-vector's worth of metadata *total* — the extension the tech
//! report develops and that shipped in Riak as `dvvset.erl`.

use core::fmt;
use std::collections::BTreeMap;

use crate::actor::Actor;
use crate::dot::Dot;
use crate::version_vector::VersionVector;

/// Per-actor entry: the highest known counter and the values of the live
/// (still-concurrent) dots, newest first.
///
/// Entry `(n, [v0, v1, …, v(k-1)])` means: dots `(a, 1) … (a, n)` are all
/// in the causal history; of those, dot `(a, n-j)` is live with value `vj`
/// for `j < k`; dots `(a, m)` with `m ≤ n-k` are known and obsolete.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Entry<V> {
    counter: u64,
    /// Values newest-first: `values[j]` belongs to dot `(actor, counter - j)`.
    values: Vec<V>,
}

impl<V> Entry<V> {
    /// Lowest counter that still has a live value, i.e. live counters are
    /// `low()+1 ..= counter`.
    fn low(&self) -> u64 {
        self.counter - self.values.len() as u64
    }
}

/// A dotted version vector *set*: the causal state of a whole sibling set
/// in one compact clock.
///
/// # Examples
///
/// ```
/// use dvv::DvvSet;
/// use dvv::VersionVector;
///
/// let mut s: DvvSet<&str, &str> = DvvSet::new();
/// // two clients write concurrently after reading the empty store:
/// s.update(&VersionVector::new(), "A", "v1");
/// s.update(&VersionVector::new(), "A", "v2");
/// assert_eq!(s.values().count(), 2);
///
/// // a third client reads everything and overwrites:
/// let ctx = s.context();
/// s.update(&ctx, "A", "v3");
/// assert_eq!(s.values().collect::<Vec<_>>(), vec![&"v3"]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DvvSet<A: Ord, V> {
    entries: BTreeMap<A, Entry<V>>,
}

impl<A: Ord, V> Default for DvvSet<A, V> {
    fn default() -> Self {
        DvvSet {
            entries: BTreeMap::new(),
        }
    }
}

impl<A: Actor, V> DvvSet<A, V> {
    /// Creates an empty clock (no knowledge, no values).
    #[must_use]
    pub fn new() -> Self {
        DvvSet {
            entries: BTreeMap::new(),
        }
    }

    /// The causal *context* of the sibling set: a version vector with, for
    /// each server, the highest counter this clock knows. Clients receive
    /// this on GET and echo it on PUT.
    #[must_use]
    pub fn context(&self) -> VersionVector<A> {
        self.entries
            .iter()
            .map(|(a, e)| (a.clone(), e.counter))
            .collect()
    }

    /// Iterates over the live values, newest dots first within each server,
    /// servers in id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.values().flat_map(|e| e.values.iter())
    }

    /// Iterates over `(dot, value)` pairs for the live versions.
    pub fn dotted_values(&self) -> impl Iterator<Item = (Dot<A>, &V)> {
        self.entries.iter().flat_map(|(a, e)| {
            e.values
                .iter()
                .enumerate()
                .map(move |(j, v)| (Dot::new(a.clone(), e.counter - j as u64), v))
        })
    }

    /// Number of live (concurrent) values — the sibling count.
    #[must_use]
    pub fn sibling_count(&self) -> usize {
        self.entries.values().map(|e| e.values.len()).sum()
    }

    /// Whether the clock carries no knowledge at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of per-server entries (the metadata, not the values).
    #[must_use]
    pub fn actor_count(&self) -> usize {
        self.entries.len()
    }

    /// Whether `dot` is in the causal history (live or obsolete).
    #[must_use]
    pub fn contains(&self, dot: &Dot<A>) -> bool {
        self.entries
            .get(dot.actor())
            .is_some_and(|e| dot.counter() <= e.counter)
    }

    /// Coordinates a client write at `server` with read context `ctx`:
    /// discards the siblings the context obsoletes, then adds the new value
    /// with a fresh dot. Returns that dot.
    ///
    /// Equivalent to the tech report's `update` (and `dvvset:update/3`),
    /// with the discard and event steps fused.
    pub fn update(&mut self, ctx: &VersionVector<A>, server: A, value: V) -> Dot<A> {
        self.discard(ctx);
        self.absorb(ctx);
        self.event(server, value)
    }

    /// Folds the context's causal knowledge into the clock without touching
    /// live values. In the Erlang reference (`dvvset.erl`) this happens
    /// implicitly because the new version carries the context's entries;
    /// keeping that knowledge is what lets a later [`DvvSet::sync`] at
    /// another replica recognise remotely-obsoleted values, and it
    /// guarantees fresh dots never collide with dots named in a context.
    ///
    /// Must run after [`DvvSet::discard`] with the same context: any live
    /// value whose dot the context covers has been removed by then, so
    /// raising a counter never re-tags a live value.
    fn absorb(&mut self, ctx: &VersionVector<A>) {
        for (actor, n) in ctx.iter() {
            let e = self.entries.entry(actor.clone()).or_insert(Entry {
                counter: 0,
                values: Vec::new(),
            });
            if n > e.counter {
                debug_assert!(
                    e.values.is_empty(),
                    "discard must have removed values covered by the context"
                );
                e.counter = n;
            }
        }
    }

    /// Removes every live value whose dot is covered by `ctx`, keeping the
    /// causal knowledge. (The *discard* half of a write.)
    pub fn discard(&mut self, ctx: &VersionVector<A>) {
        for (actor, e) in &mut self.entries {
            let seen = ctx.get(actor);
            if seen > e.low() {
                let keep = e.counter.saturating_sub(seen) as usize;
                e.values.truncate(keep);
            }
        }
        // Entries with no values are kept: they still carry causal knowledge.
    }

    /// Adds a new event at `server` holding `value`. (The *event* half of a
    /// write; does not discard anything.)
    pub fn event(&mut self, server: A, value: V) -> Dot<A> {
        let e = self.entries.entry(server.clone()).or_insert(Entry {
            counter: 0,
            values: Vec::new(),
        });
        e.counter += 1;
        e.values.insert(0, value);
        Dot::new(server, e.counter)
    }

    /// (crate-internal) every entry as `(actor, counter, live values
    /// newest first)`, actors ascending — what the binary encoding writes.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&A, u64, &[V])> {
        self.entries
            .iter()
            .map(|(a, e)| (a, e.counter, e.values.as_slice()))
    }

    /// (crate-internal) installs a raw entry; used when rebuilding a clock
    /// from its binary encoding. `values` are newest-first and must be no
    /// more numerous than `counter`.
    pub(crate) fn insert_entry(&mut self, actor: A, counter: u64, values: Vec<V>) {
        debug_assert!(values.len() as u64 <= counter);
        self.entries.insert(actor, Entry { counter, values });
    }

    /// Whether this clock's knowledge dominates `other`'s (every event
    /// known there is known here). O(n) in the number of entries.
    #[must_use]
    pub fn dominates(&self, other: &Self) -> bool {
        other
            .entries
            .iter()
            .all(|(a, e)| self.entries.get(a).is_some_and(|m| m.counter >= e.counter))
    }
}

impl<A: Actor, V: Clone> DvvSet<A, V> {
    /// Merges two replicas' clocks (anti-entropy / replicated put).
    ///
    /// Per server, a live value survives iff the other side either also
    /// holds it live or has never seen its dot; values the other side has
    /// seen *and discarded* are dropped. Commutative, associative and
    /// idempotent.
    #[must_use]
    pub fn sync(&self, other: &Self) -> Self {
        let mut out = BTreeMap::new();
        let actors: Vec<&A> = {
            let mut v: Vec<&A> = self.entries.keys().collect();
            for a in other.entries.keys() {
                if !self.entries.contains_key(a) {
                    v.push(a);
                }
            }
            v
        };
        for actor in actors {
            let empty = Entry {
                counter: 0,
                values: Vec::new(),
            };
            let e1 = self.entries.get(actor).unwrap_or(&empty);
            let e2 = other.entries.get(actor).unwrap_or(&empty);
            let counter = e1.counter.max(e2.counter);
            let low = e1.low().max(e2.low());
            let mut values = Vec::with_capacity((counter - low) as usize);
            // newest first: counters counter, counter-1, …, low+1
            let mut m = counter;
            while m > low {
                let v = if m > e2.counter {
                    // only side 1 can hold it (m ≤ e1.counter since m ≤ counter)
                    e1.values[(e1.counter - m) as usize].clone()
                } else if m > e1.counter {
                    e2.values[(e2.counter - m) as usize].clone()
                } else {
                    // both know the dot; both hold it live (m > both lows)
                    e1.values[(e1.counter - m) as usize].clone()
                };
                values.push(v);
                m -= 1;
            }
            out.insert(actor.clone(), Entry { counter, values });
        }
        DvvSet { entries: out }
    }

    /// In-place [`DvvSet::sync`].
    pub fn sync_into(&mut self, other: &Self) {
        *self = self.sync(other);
    }
}

impl<A: Actor + fmt::Display, V: fmt::Display> fmt::Display for DvvSet<A, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (a, e)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}:{}", e.counter)?;
            write!(f, "[")?;
            for (j, v) in e.values.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, "]")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type S = DvvSet<&'static str, &'static str>;

    #[test]
    fn empty_set() {
        let s: S = DvvSet::new();
        assert!(s.is_empty());
        assert_eq!(s.sibling_count(), 0);
        assert_eq!(s.actor_count(), 0);
        assert!(s.context().is_empty());
        assert_eq!(s.to_string(), "{}");
    }

    #[test]
    fn first_write_gets_dot_one() {
        let mut s: S = DvvSet::new();
        let d = s.update(&VersionVector::new(), "A", "v1");
        assert_eq!(d, Dot::new("A", 1));
        assert_eq!(s.sibling_count(), 1);
        assert_eq!(s.context().get(&"A"), 1);
    }

    #[test]
    fn concurrent_blind_writes_coexist() {
        let mut s: S = DvvSet::new();
        s.update(&VersionVector::new(), "A", "v1");
        s.update(&VersionVector::new(), "A", "v2");
        assert_eq!(s.sibling_count(), 2);
        let vals: Vec<_> = s.values().collect();
        assert_eq!(vals, vec![&"v2", &"v1"], "newest first");
    }

    #[test]
    fn informed_write_discards_what_it_saw() {
        let mut s: S = DvvSet::new();
        s.update(&VersionVector::new(), "A", "v1");
        s.update(&VersionVector::new(), "A", "v2");
        let ctx = s.context();
        let d = s.update(&ctx, "A", "v3");
        assert_eq!(d, Dot::new("A", 3));
        assert_eq!(s.sibling_count(), 1);
        assert_eq!(s.values().collect::<Vec<_>>(), vec![&"v3"]);
        // knowledge preserved
        assert!(s.contains(&Dot::new("A", 1)));
        assert!(s.contains(&Dot::new("A", 2)));
    }

    #[test]
    fn partial_context_discards_only_covered_suffix() {
        let mut s: S = DvvSet::new();
        s.update(&VersionVector::new(), "A", "v1"); // (A,1)
        s.update(&VersionVector::new(), "A", "v2"); // (A,2)
        let mut ctx = VersionVector::new();
        ctx.set("A", 1); // saw only v1
        s.update(&ctx, "A", "v3"); // (A,3)
        assert_eq!(s.sibling_count(), 2, "v2 survives, v1 discarded");
        let dots: Vec<_> = s.dotted_values().map(|(d, _)| d).collect();
        assert_eq!(dots, vec![Dot::new("A", 3), Dot::new("A", 2)]);
    }

    #[test]
    fn dotted_values_positions() {
        let mut s: S = DvvSet::new();
        s.update(&VersionVector::new(), "A", "v1");
        s.update(&VersionVector::new(), "B", "v2");
        let pairs: Vec<_> = s.dotted_values().collect();
        assert_eq!(
            pairs,
            vec![(Dot::new("A", 1), &"v1"), (Dot::new("B", 1), &"v2")]
        );
    }

    #[test]
    fn contains_covers_obsolete_dots() {
        let mut s: S = DvvSet::new();
        s.update(&VersionVector::new(), "A", "v1");
        let ctx = s.context();
        s.update(&ctx, "A", "v2");
        assert!(s.contains(&Dot::new("A", 1)), "discarded but known");
        assert!(s.contains(&Dot::new("A", 2)));
        assert!(!s.contains(&Dot::new("A", 3)));
        assert!(!s.contains(&Dot::new("B", 1)));
    }

    #[test]
    fn sync_identical_is_idempotent() {
        let mut s: S = DvvSet::new();
        s.update(&VersionVector::new(), "A", "v1");
        s.update(&VersionVector::new(), "A", "v2");
        let merged = s.sync(&s);
        assert_eq!(merged, s);
    }

    #[test]
    fn sync_keeps_concurrent_from_both_sides() {
        let mut s1: S = DvvSet::new();
        s1.update(&VersionVector::new(), "A", "va");
        let mut s2: S = DvvSet::new();
        s2.update(&VersionVector::new(), "B", "vb");
        let m = s1.sync(&s2);
        assert_eq!(m.sibling_count(), 2);
        assert_eq!(m, s2.sync(&s1), "commutative");
    }

    #[test]
    fn sync_drops_remotely_discarded_values() {
        // s1 holds v1 live; s2 saw v1 and overwrote it with v2.
        let mut s1: S = DvvSet::new();
        s1.update(&VersionVector::new(), "A", "v1");
        let mut s2 = s1.clone();
        let ctx = s2.context();
        s2.update(&ctx, "A", "v2");
        let m = s1.sync(&s2);
        assert_eq!(m.sibling_count(), 1);
        assert_eq!(m.values().collect::<Vec<_>>(), vec![&"v2"]);
        assert_eq!(m, s2.sync(&s1));
    }

    #[test]
    fn sync_with_knowledge_only_entry_kills_value() {
        // s2 knows (A,1..5) with nothing live; s1 holds (A,3) live → dies.
        let mut s1: S = DvvSet::new();
        s1.entries.insert(
            "A",
            Entry {
                counter: 3,
                values: vec!["v3"],
            },
        );
        let mut s2: S = DvvSet::new();
        s2.entries.insert(
            "A",
            Entry {
                counter: 5,
                values: vec![],
            },
        );
        let m = s1.sync(&s2);
        assert_eq!(m.sibling_count(), 0);
        assert_eq!(m.context().get(&"A"), 5);
    }

    #[test]
    fn sync_associative_on_three_replicas() {
        let mut s1: S = DvvSet::new();
        s1.update(&VersionVector::new(), "A", "va");
        let mut s2: S = DvvSet::new();
        s2.update(&VersionVector::new(), "B", "vb");
        let mut s3 = s1.sync(&s2);
        let ctx = s3.context();
        s3.update(&ctx, "C", "vc");
        let left = s1.sync(&s2).sync(&s3);
        let right = s1.sync(&s2.sync(&s3));
        assert_eq!(left, right);
    }

    #[test]
    fn update_after_sync_collapses_all() {
        let mut s1: S = DvvSet::new();
        s1.update(&VersionVector::new(), "A", "va");
        let mut s2: S = DvvSet::new();
        s2.update(&VersionVector::new(), "B", "vb");
        let mut m = s1.sync(&s2);
        let ctx = m.context();
        m.update(&ctx, "A", "vc");
        assert_eq!(m.values().collect::<Vec<_>>(), vec![&"vc"]);
        assert_eq!(m.context().get(&"A"), 2);
        assert_eq!(m.context().get(&"B"), 1);
    }

    #[test]
    fn dominates_compares_knowledge() {
        let mut s1: S = DvvSet::new();
        s1.update(&VersionVector::new(), "A", "v1");
        let mut s2 = s1.clone();
        let ctx = s2.context();
        s2.update(&ctx, "A", "v2");
        assert!(s2.dominates(&s1));
        assert!(!s1.dominates(&s2));
        assert!(s1.dominates(&s1));
    }

    #[test]
    fn metadata_bounded_by_servers_not_clients() {
        // 100 distinct "clients" (blind writes) through 2 servers: the clock
        // keeps 2 entries, never 100 — claim 3 of the paper.
        let mut s: S = DvvSet::new();
        for i in 0..100u64 {
            let server = if i % 2 == 0 { "A" } else { "B" };
            // each client read the state at some earlier point; worst case blind:
            s.update(&VersionVector::new(), server, "v");
        }
        assert_eq!(s.actor_count(), 2);
    }

    #[test]
    fn display_shows_counters_and_values() {
        let mut s: S = DvvSet::new();
        s.update(&VersionVector::new(), "A", "x");
        assert_eq!(s.to_string(), "{A:1[x]}");
    }

    #[test]
    fn sync_empty_is_identity() {
        let mut s: S = DvvSet::new();
        s.update(&VersionVector::new(), "A", "v");
        let e: S = DvvSet::new();
        assert_eq!(s.sync(&e), s);
        assert_eq!(e.sync(&s), s);
    }
}
