//! [`RingView`]: a *mergeable* ring-membership state, the unit of state
//! exchanged by epidemic (gossip) ring dissemination.
//!
//! Earlier revisions versioned the whole view with one control-plane
//! epoch, which totally orders membership changes: only one change can
//! be in flight, and two concurrent announcements (a join on one side of
//! a partition, a leave on the other) race — whichever epoch is higher
//! clobbers the other. This module versions *each member* instead:
//! a view maps member → [`MemberEntry`] `(incarnation, status)`, and two
//! views join by taking, per member, the entry with the higher
//! incarnation (ties broken by status rank). The join is commutative,
//! associative and idempotent — a state-based CRDT — so views converge
//! under arbitrary delivery orders and concurrent changes *merge*
//! instead of racing.

use std::collections::BTreeMap;
use std::fmt::Debug;

use crate::hash::hash_with_seed;
use crate::ring_impl::HashRing;

/// Lifecycle status of one member entry in a [`RingView`].
///
/// `Up` and `Joining` place the member in the ring (it owns ranges and
/// routes); `Leaving` and `Removed` take it out (`Leaving` = announced
/// departure, still draining its ranges; `Removed` = drain complete,
/// entry kept as a tombstone so the departure survives merges).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberStatus {
    /// Full ring member.
    Up,
    /// In the ring and routable, still streaming its newly-owned ranges.
    Joining,
    /// Out of the ring, still reachable while it drains its ranges.
    Leaving,
    /// Out of the ring for good; tombstone entry.
    Removed,
}

impl MemberStatus {
    /// Whether a member with this status is part of the hash ring
    /// (owns ranges, appears in preference lists).
    #[must_use]
    pub fn in_ring(self) -> bool {
        matches!(self, MemberStatus::Up | MemberStatus::Joining)
    }

    /// Tie-break rank for equal incarnations: the *more departed* status
    /// wins, so a conflicting same-incarnation join/leave pair resolves
    /// deterministically (and conservatively) everywhere.
    fn rank(self) -> u8 {
        match self {
            MemberStatus::Up => 0,
            MemberStatus::Joining => 1,
            MemberStatus::Leaving => 2,
            MemberStatus::Removed => 3,
        }
    }

    /// Stable one-byte wire encoding of this status (equal to its rank).
    #[must_use]
    pub fn wire_tag(self) -> u8 {
        self.rank()
    }

    /// Inverse of [`MemberStatus::wire_tag`].
    #[must_use]
    pub fn from_wire_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(MemberStatus::Up),
            1 => Some(MemberStatus::Joining),
            2 => Some(MemberStatus::Leaving),
            3 => Some(MemberStatus::Removed),
            _ => None,
        }
    }
}

/// One member's versioned entry in a [`RingView`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemberEntry {
    /// Last-writer-wins version for this member: every announcement about
    /// the member (join, leave, re-admission) bumps it by one.
    pub incarnation: u64,
    /// The member's lifecycle status at that incarnation.
    pub status: MemberStatus,
}

impl MemberEntry {
    /// Whether this entry wins a merge against `other`: strictly higher
    /// incarnation, or equal incarnation and higher status rank.
    #[must_use]
    pub fn beats(&self, other: &MemberEntry) -> bool {
        (self.incarnation, self.status.rank()) > (other.incarnation, other.status.rank())
    }
}

/// A mergeable ring-membership state: member → `(incarnation, status)`.
///
/// Because a [`HashRing`] is a pure function of the in-ring member set
/// (see [`HashRing::with_vnodes`]), a `RingView` is all a process needs
/// to reconstruct the full routing state it describes — which makes it
/// the natural payload for gossip: peers exchange *digests* (a 64-bit
/// hash of the merged state) cheaply and push the full view only on
/// mismatch. [`RingView::merge`] is a join-semilattice join, so any two
/// processes that have merged the same set of announcements hold
/// identical views regardless of delivery order.
#[derive(Clone, Debug)]
pub struct RingView<N: Ord> {
    entries: BTreeMap<N, MemberEntry>,
    /// Cached [`RingView::digest`] — a pure function of `entries`,
    /// refreshed by every mutating method. Digests are read on every
    /// message sent or received (request stamps, gossip rounds,
    /// convergence checks), while mutations happen only on membership
    /// announcements and state-changing merges, so the hash is paid
    /// where it is rare.
    digest: u64,
}

impl<N: Ord> PartialEq for RingView<N> {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl<N: Ord> Eq for RingView<N> {}

impl<N: Clone + Ord + Debug> Default for RingView<N> {
    fn default() -> Self {
        let mut view = RingView {
            entries: BTreeMap::new(),
            digest: 0,
        };
        view.refresh_digest();
        view
    }
}

impl<N: Clone + Ord + Debug> RingView<N> {
    /// Creates an empty view.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a view with every given member `Up` at incarnation 1 —
    /// the bootstrap state of a freshly configured cluster.
    #[must_use]
    pub fn from_members(members: impl IntoIterator<Item = N>) -> Self {
        let mut view = RingView {
            entries: members
                .into_iter()
                .map(|n| {
                    (
                        n,
                        MemberEntry {
                            incarnation: 1,
                            status: MemberStatus::Up,
                        },
                    )
                })
                .collect(),
            digest: 0,
        };
        view.refresh_digest();
        view
    }

    /// The member's current entry, if any.
    #[must_use]
    pub fn entry(&self, node: &N) -> Option<&MemberEntry> {
        self.entries.get(node)
    }

    /// The member's current status, if any.
    #[must_use]
    pub fn status(&self, node: &N) -> Option<MemberStatus> {
        self.entries.get(node).map(|e| e.status)
    }

    /// Inserts or overwrites a member's entry verbatim (construction /
    /// test helper; protocol paths use [`RingView::bump`] and
    /// [`RingView::merge`]).
    pub fn set(&mut self, node: N, incarnation: u64, status: MemberStatus) {
        self.entries.insert(
            node,
            MemberEntry {
                incarnation,
                status,
            },
        );
        self.refresh_digest();
    }

    /// Announces a new lifecycle status for `node` under a fresh
    /// incarnation (one above its current entry, or 1 for an unknown
    /// member). Returns the incarnation spent.
    pub fn bump(&mut self, node: &N, status: MemberStatus) -> u64 {
        let incarnation = self.entries.get(node).map_or(0, |e| e.incarnation) + 1;
        self.entries.insert(
            node.clone(),
            MemberEntry {
                incarnation,
                status,
            },
        );
        self.refresh_digest();
        incarnation
    }

    /// Merges `other` into this view: per member, the entry with the
    /// higher `(incarnation, status rank)` wins. Returns whether the
    /// local view changed.
    ///
    /// The merge is commutative, associative and idempotent, and `self`
    /// only ever grows in the entry order — so any set of views merged in
    /// any order, with any duplication, converges to the same state.
    pub fn merge(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (n, theirs) in &other.entries {
            changed |= self.merge_entry(n, theirs);
        }
        if changed {
            self.refresh_digest();
        }
        changed
    }

    /// The per-member join [`RingView::merge`] (and so
    /// [`RingView::absorb`]) applies to every incoming entry: take
    /// `theirs` iff it beats the local entry. Returns whether the local
    /// entry changed. Does not refresh the digest; the caller does, once
    /// per merge.
    fn merge_entry(&mut self, n: &N, theirs: &MemberEntry) -> bool {
        match self.entries.get_mut(n) {
            None => {
                self.entries.insert(n.clone(), *theirs);
                true
            }
            Some(mine) if theirs.beats(mine) => {
                *mine = *theirs;
                true
            }
            Some(_) => false,
        }
    }

    /// Merges an incoming view and reports what the gossip protocol
    /// needs to know: `(changed, sender_lacks)`. `changed` is
    /// [`RingView::merge`]'s return; `sender_lacks` means the *sender's*
    /// copy was missing entries this view holds (the merged state
    /// differs from what was received), so the receiver should push the
    /// merged view back — the rule that makes one digest-mismatch
    /// exchange converge both ends. Views only ever reconcile by such a
    /// full push, and both server and client receive paths go through
    /// here, so the protocol-critical inequality lives in exactly one
    /// place.
    pub fn absorb(&mut self, incoming: &Self) -> (bool, bool) {
        let changed = self.merge(incoming);
        (changed, *self != *incoming)
    }

    /// Whether this view already contains everything in `other` (merging
    /// `other` would change nothing).
    #[must_use]
    pub fn dominates(&self, other: &Self) -> bool {
        other.entries.iter().all(|(n, theirs)| {
            self.entries
                .get(n)
                .is_some_and(|mine| mine == theirs || mine.beats(theirs))
        })
    }

    /// The in-ring members (status `Up` or `Joining`), in sorted order.
    #[must_use]
    pub fn members(&self) -> Vec<N> {
        self.entries
            .iter()
            .filter(|(_, e)| e.status.in_ring())
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Iterates over every entry, departed tombstones included.
    pub fn iter(&self) -> impl Iterator<Item = (&N, &MemberEntry)> {
        self.entries.iter()
    }

    /// Number of in-ring members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.values().filter(|e| e.status.in_ring()).count()
    }

    /// Whether the view has no in-ring members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of entries, tombstones included (wire sizing).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// The digest a gossip round exchanges: a 64-bit hash over every
    /// `(member, incarnation, status)` entry. Equal digests mean (up to
    /// hash collision) identical merged states; there is no order between
    /// digests — on mismatch the full view is exchanged and merged.
    ///
    /// Reads the cached value (request stamping and convergence checks
    /// call this per message); every mutating method refreshes it.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    fn refresh_digest(&mut self) {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for (n, e) in &self.entries {
            let seed = e.incarnation ^ (u64::from(e.status.wire_tag()) << 56);
            let h = hash_with_seed(format!("{n:?}").as_bytes(), seed);
            acc = acc.rotate_left(7) ^ h;
        }
        self.digest = acc;
    }

    /// Monotone progress scalar: the sum of all incarnations. Every
    /// announcement merged in raises it by at least one, so it serves as
    /// a human-readable "how many changes has this process seen" counter
    /// (a node's `ring_epoch`) — but unlike the digest it does not
    /// identify the state: compare digests to test convergence.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.entries.values().map(|e| e.incarnation).sum()
    }

    /// Builds the [`HashRing`] this view describes from its in-ring
    /// members.
    #[must_use]
    pub fn to_ring(&self, vnodes: u32) -> HashRing<N> {
        HashRing::with_vnodes(self.members(), vnodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_members_round_trips_through_the_ring() {
        let view: RingView<u32> = RingView::from_members(0..4);
        assert_eq!(view.members(), vec![0, 1, 2, 3]);
        assert_eq!(view.len(), 4);
        assert!(!view.is_empty());
        assert_eq!(view.version(), 4, "four incarnation-1 members");
        let ring = view.to_ring(16);
        assert_eq!(ring.nodes(), &[0, 1, 2, 3]);
        let direct: HashRing<u32> = HashRing::with_vnodes(0..4, 16);
        for i in 0..50 {
            let k = format!("k{i}");
            assert_eq!(
                ring.preference_list(k.as_bytes(), 3),
                direct.preference_list(k.as_bytes(), 3),
                "rebuilt ring must route identically"
            );
        }
    }

    #[test]
    fn leaving_and_removed_members_are_out_of_the_ring() {
        let mut view: RingView<u32> = RingView::from_members(0..4);
        view.bump(&0, MemberStatus::Leaving);
        view.bump(&1, MemberStatus::Removed);
        assert_eq!(view.members(), vec![2, 3]);
        assert_eq!(view.len(), 2);
        assert_eq!(view.entry_count(), 4, "tombstones are kept");
        assert!(!view.to_ring(8).nodes().contains(&0));
        assert_eq!(view.status(&0), Some(MemberStatus::Leaving));
        assert_eq!(view.status(&9), None);
    }

    #[test]
    fn bump_spends_fresh_incarnations() {
        let mut view: RingView<u32> = RingView::new();
        assert_eq!(view.bump(&7, MemberStatus::Joining), 1);
        assert_eq!(view.bump(&7, MemberStatus::Up), 2);
        assert_eq!(view.bump(&7, MemberStatus::Leaving), 3);
        assert_eq!(view.entry(&7).unwrap().incarnation, 3);
        assert_eq!(view.version(), 3);
    }

    #[test]
    fn merge_is_per_member_last_writer_wins() {
        let mut a: RingView<u32> = RingView::from_members(0..3);
        let mut b = a.clone();
        a.bump(&0, MemberStatus::Leaving); // incarnation 2
        b.bump(&0, MemberStatus::Up); // also incarnation 2: a tie
        b.bump(&0, MemberStatus::Up); // incarnation 3

        let mut merged = a.clone();
        assert!(merged.merge(&b));
        assert_eq!(
            merged.entry(&0),
            Some(&MemberEntry {
                incarnation: 3,
                status: MemberStatus::Up
            }),
            "the higher incarnation wins regardless of status"
        );
        assert!(!merged.merge(&b), "re-merging is a no-op");
        assert!(merged.dominates(&a) && merged.dominates(&b));
        assert!(!a.dominates(&b));
    }

    #[test]
    fn equal_incarnation_ties_break_toward_departure() {
        let mut join: RingView<u32> = RingView::new();
        join.set(5, 4, MemberStatus::Up);
        let mut leave: RingView<u32> = RingView::new();
        leave.set(5, 4, MemberStatus::Leaving);

        let mut ab = join.clone();
        ab.merge(&leave);
        let mut ba = leave.clone();
        ba.merge(&join);
        assert_eq!(ab, ba, "tie-break must be symmetric");
        assert_eq!(ab.status(&5), Some(MemberStatus::Leaving));
        assert_eq!(
            ab.version(),
            ba.version(),
            "ties cannot be told apart by version alone"
        );
        assert_eq!(ab.digest(), ba.digest());
    }

    #[test]
    fn digest_tracks_state_not_just_version() {
        let mut up: RingView<u32> = RingView::new();
        up.set(1, 2, MemberStatus::Up);
        let mut leaving: RingView<u32> = RingView::new();
        leaving.set(1, 2, MemberStatus::Leaving);
        assert_eq!(up.version(), leaving.version());
        assert_ne!(
            up.digest(),
            leaving.digest(),
            "a status flip must change the digest"
        );
        assert_eq!(up.digest(), up.clone().digest(), "digest is pure");
    }

    #[test]
    fn cached_digest_tracks_every_mutation() {
        // the cache must be indistinguishable from recomputing: a view
        // reached by any sequence of mutations digests identically to a
        // freshly built view with the same entries
        let mut mutated: RingView<u32> = RingView::from_members(0..3);
        mutated.bump(&0, MemberStatus::Leaving);
        mutated.set(7, 4, MemberStatus::Joining);
        let mut other: RingView<u32> = RingView::new();
        other.bump(&9, MemberStatus::Up);
        mutated.merge(&other);

        let mut fresh: RingView<u32> = RingView::new();
        for (n, e) in mutated.iter() {
            // rebuild entry-by-entry through a different mutation path
            fresh.set(*n, e.incarnation, e.status);
        }
        assert_eq!(mutated, fresh);
        assert_eq!(mutated.digest(), fresh.digest());
        // a no-op merge must not disturb the cache
        let before = mutated.digest();
        assert!(!mutated.merge(&other.clone()));
        assert_eq!(mutated.digest(), before);
    }

    #[test]
    fn absorb_reports_change_and_sender_gap() {
        let base: RingView<u32> = RingView::from_members(0..2);
        let mut ahead = base.clone();
        ahead.bump(&0, MemberStatus::Leaving);

        // receiver behind, sender complete: change, no reply needed
        let mut behind = base.clone();
        assert_eq!(behind.absorb(&ahead), (true, false));
        // receiver ahead, sender behind: no change, reply needed
        assert_eq!(ahead.clone().absorb(&base), (false, true));
        // incomparable: both change and reply
        let mut left = base.clone();
        left.bump(&0, MemberStatus::Leaving);
        let mut right = base.clone();
        right.bump(&1, MemberStatus::Leaving);
        assert_eq!(left.absorb(&right), (true, true));
        // identical: neither
        assert_eq!(left.clone().absorb(&left), (false, false));
    }

    #[test]
    fn wire_tag_round_trips_every_status() {
        for s in [
            MemberStatus::Up,
            MemberStatus::Joining,
            MemberStatus::Leaving,
            MemberStatus::Removed,
        ] {
            assert_eq!(MemberStatus::from_wire_tag(s.wire_tag()), Some(s));
        }
        assert_eq!(MemberStatus::from_wire_tag(4), None);
    }

    /// One push each way converges two incomparable views: A holds a
    /// newer incarnation B lacks, B a tombstone and a member A has never
    /// seen. B absorbs A's view, finds A lacked entries, and pushes its
    /// merged view back; A absorbs that and owes nothing further.
    #[test]
    fn one_absorb_each_way_converges_incomparable_views_with_a_tombstone() {
        let base: RingView<u32> = RingView::from_members(0..3);
        let mut a = base.clone();
        let mut b = base.clone();
        a.bump(&0, MemberStatus::Leaving); // A ahead on 0
        b.bump(&1, MemberStatus::Removed); // B holds a tombstone for 1
        b.bump(&7, MemberStatus::Joining); // B knows a member A lacks

        // A → B: B merges and must push back
        assert_eq!(b.absorb(&a), (true, true));
        // B → A: A merges, nothing further to say
        assert_eq!(a.absorb(&b), (true, false));
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.status(&1), Some(MemberStatus::Removed));
        assert_eq!(a.members(), vec![2, 7]);
    }

    #[test]
    fn empty_view_builds_an_empty_ring() {
        let view: RingView<u32> = RingView::new();
        assert!(view.is_empty());
        assert!(view.to_ring(8).is_empty());
        assert_eq!(view.version(), 0);
    }
}
