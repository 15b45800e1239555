//! [`TimerWheel`]: a queue of timed entries, popped in due order with
//! same-instant entries in insertion order — every [`Host`]'s agenda,
//! the [`Simulation`]'s and each threaded worker's in the `runtime`
//! crate alike.
//!
//! Pops follow `(due, insertion seq)`: entries due at the same instant
//! pop in the order they were scheduled, which is what makes a seeded
//! run reproducible bit for bit and what lets node logic see the same
//! timer order on every driver (`tests/timer_order.rs` checks it against
//! a stable sort). A named entry — a node's timer — can be cancelled:
//! it is gone there and then, and never pops.
//!
//! [`Host`]: crate::Host
//! [`Simulation`]: crate::Simulation

use std::collections::BTreeMap;
use std::fmt::Debug;

/// What a [`TimerWheel`] holds: an entry, and the name it can be
/// cancelled by, if it has one. A plain `Ord + Copy` value — a timer
/// handle — is its own name.
pub trait Entry {
    /// What names a pending entry.
    type Id: Ord + Copy + Debug;

    /// This entry's name; `None` for one that cannot be cancelled.
    fn id(&self) -> Option<Self::Id>;
}

impl<T: Ord + Copy + Debug> Entry for T {
    type Id = T;

    fn id(&self) -> Option<T> {
        Some(*self)
    }
}

/// A queue of timed entries ordered by `(due_micros, insertion_seq)`.
///
/// An index from each named pending entry to its queue key lets
/// [`cancel`](Self::cancel) delete it there and then, so a cancelled
/// timer never fires and a request timer cancelled on every completed
/// request leaves nothing behind.
///
/// # Examples
///
/// ```
/// use simnet::TimerWheel;
///
/// let mut w = TimerWheel::new();
/// w.schedule(5, 'z');
/// w.schedule(1, 'a');
/// w.schedule(1, 'b');
/// w.cancel('b');
/// assert_eq!(w.next_due(), Some(1));
/// assert_eq!(w.pop_due(1), Some('a'));
/// assert_eq!(w.pop_due(1), None);
/// assert_eq!(w.pop_due(5), Some('z'));
/// assert!(w.is_empty());
/// ```
#[derive(Debug)]
pub struct TimerWheel<T: Entry> {
    queue: BTreeMap<(u64, u64), T>,
    /// Where each named pending entry sits in `queue`.
    index: BTreeMap<T::Id, (u64, u64)>,
    seq: u64,
}

impl<T: Entry> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Entry> TimerWheel<T> {
    /// An empty wheel.
    pub fn new() -> Self {
        TimerWheel {
            queue: BTreeMap::new(),
            index: BTreeMap::new(),
            seq: 0,
        }
    }

    /// Schedules `item` to fire at `due_micros` (absolute, on whatever
    /// monotonic clock the caller uses). Items due at the same instant
    /// pop in the order they were scheduled. A named item is pending at
    /// most once: the caller cancels or awaits one before naming it
    /// again.
    pub fn schedule(&mut self, due_micros: u64, item: T) {
        let key = (due_micros, self.seq);
        self.seq += 1;
        if let Some(id) = item.id() {
            let old = self.index.insert(id, key);
            debug_assert!(old.is_none(), "{id:?} is already pending");
        }
        self.queue.insert(key, item);
    }

    /// Unschedules the item named `id`; a no-op if none is pending.
    pub fn cancel(&mut self, id: T::Id) {
        if let Some(key) = self.index.remove(&id) {
            self.queue.remove(&key);
        }
    }

    /// Unschedules every pending item `keep` rejects.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let index = &mut self.index;
        self.queue.retain(|_, item| {
            let kept = keep(item);
            if let Some(id) = item.id().filter(|_| !kept) {
                index.remove(&id);
            }
            kept
        });
    }

    /// The due time of the earliest pending item, if any.
    pub fn next_due(&self) -> Option<u64> {
        self.queue.keys().next().map(|(due, _)| *due)
    }

    /// Pops the earliest pending item due at or before `now_micros`.
    pub fn pop_due(&mut self, now_micros: u64) -> Option<T> {
        if self.next_due()? > now_micros {
            return None;
        }
        let (_, item) = self.queue.pop_first()?;
        if let Some(id) = item.id() {
            self.index.remove(&id);
        }
        Some(item)
    }

    /// The pending items, in pop order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.queue.values()
    }

    /// Number of pending items.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no item is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut w = TimerWheel::new();
        w.schedule(30, 'c');
        w.schedule(10, 'a');
        w.schedule(10, 'b');
        assert_eq!(w.pop_due(5), None);
        assert_eq!(w.pop_due(10), Some('a'));
        assert_eq!(w.pop_due(10), Some('b'));
        assert_eq!(w.pop_due(10), None);
        assert_eq!(w.pop_due(30), Some('c'));
        assert!(w.is_empty());
    }

    #[test]
    fn cancel_removes_and_reschedule_revives() {
        let mut w = TimerWheel::new();
        w.schedule(10, 1u32);
        w.schedule(20, 2u32);
        w.cancel(1);
        assert_eq!(w.next_due(), Some(20));
        assert_eq!(w.pop_due(100), Some(2));
        assert_eq!(w.pop_due(100), None);
        w.schedule(5, 1);
        assert_eq!(w.pop_due(100), Some(1));
    }

    #[test]
    fn next_due_len_empty() {
        let mut w = TimerWheel::default();
        assert!(w.is_empty());
        assert_eq!(w.next_due(), None);
        w.schedule(5, 'x');
        assert_eq!((w.len(), w.next_due()), (1, Some(5)));
        assert!(!w.is_empty());
        w.pop_due(5);
        assert!(w.is_empty());
    }

    /// What the simulator does all run long: an entry scheduled after a
    /// pop, due earlier than what is pending, still pops first, and
    /// same-instant entries keep their order across the pop.
    #[test]
    fn interleaved_schedule_and_pop_stay_stable() {
        let mut w = TimerWheel::new();
        w.schedule(1, "a");
        w.schedule(2, "b1");
        assert_eq!(w.pop_due(u64::MAX), Some("a"));
        w.schedule(2, "b2");
        w.schedule(1, "late-but-earlier");
        assert_eq!(w.pop_due(u64::MAX), Some("late-but-earlier"));
        assert_eq!(w.pop_due(u64::MAX), Some("b1"));
        assert_eq!(w.pop_due(u64::MAX), Some("b2"));
    }

    /// Regression: `cancel` used to leave the heap entry (and a
    /// tombstone) in place until it reached the top, which a request
    /// timer due seconds after the periodic ones never did — one leaked
    /// entry per completed request.
    #[test]
    fn cancelled_timers_leave_nothing_behind() {
        let mut w = TimerWheel::new();
        for i in 0..10_000u64 {
            w.schedule(10_000_000 + i, i);
            w.cancel(i);
        }
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_due(), None);
    }

    /// Entries without a name share the order with named ones; `retain`
    /// unschedules either kind, and the name of a dropped one is free
    /// again.
    #[test]
    fn unnamed_entries_queue_beside_named_ones() {
        #[derive(Debug, PartialEq)]
        enum Item {
            Timer(u32),
            Note(&'static str),
        }
        impl Entry for Item {
            type Id = u32;
            fn id(&self) -> Option<u32> {
                match self {
                    Item::Timer(t) => Some(*t),
                    Item::Note(_) => None,
                }
            }
        }
        let mut w = TimerWheel::new();
        w.schedule(10, Item::Note("a"));
        w.schedule(10, Item::Timer(1));
        w.schedule(10, Item::Note("a"));
        w.schedule(20, Item::Timer(2));
        w.retain(|item| *item != Item::Timer(1));
        w.cancel(1);
        assert_eq!(w.len(), 3);
        w.schedule(5, Item::Timer(1));
        assert_eq!(w.pop_due(10), Some(Item::Timer(1)));
        assert_eq!(w.pop_due(10), Some(Item::Note("a")));
        assert_eq!(w.pop_due(10), Some(Item::Note("a")));
        assert_eq!(w.pop_due(10), None);
        w.cancel(2);
        assert!(w.is_empty());
    }
}
