//! Same-instant timer ordering, which every driver inherits from the
//! one queue they share.
//!
//! The simulator's event queue and each threaded worker's agenda are
//! both a [`TimerWheel`], so protocol code that arms several timers in
//! one dispatch sees one interleaving on every driver. The contract is a
//! stable sort by due time: entries due at the same instant pop in the
//! order they were scheduled, and a cancelled entry never pops. The
//! properties here drive the wheel with random schedules — duplicate
//! instants deliberately likely — and compare against that model.

use proptest::collection::vec;
use proptest::prelude::*;
use simnet::TimerWheel;

/// The model: labels `0..times.len()`, stably sorted by due time, with
/// the ones `keep` rejects left out.
fn stable_sorted(times: &[u64], keep: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut order: Vec<usize> = (0..times.len()).filter(|l| keep(*l)).collect();
    order.sort_by_key(|l| times[*l]);
    order
}

fn drain(wheel: &mut TimerWheel<usize>) -> Vec<usize> {
    std::iter::from_fn(|| wheel.pop_due(u64::MAX)).collect()
}

proptest! {
    /// One schedule in, the stable sort of it out.
    #[test]
    fn wheel_pops_in_stable_sort_order(times in vec(0u64..8, 1..64)) {
        let mut wheel = TimerWheel::new();
        for (label, &t) in times.iter().enumerate() {
            wheel.schedule(t, label);
        }
        prop_assert_eq!(drain(&mut wheel), stable_sorted(&times, |_| true));
    }

    /// Cancellation only removes the cancelled items; survivors keep
    /// the stable-sort order.
    #[test]
    fn cancelled_timers_never_fire(
        times in vec(0u64..8, 1..48),
        cancel_mask in vec(any::<bool>(), 48),
    ) {
        let mut wheel = TimerWheel::new();
        for (label, &t) in times.iter().enumerate() {
            wheel.schedule(t, label);
        }
        for label in (0..times.len()).filter(|l| cancel_mask[*l]) {
            wheel.cancel(label);
        }
        let expect = stable_sorted(&times, |l| !cancel_mask[l]);
        prop_assert_eq!(drain(&mut wheel), expect);
    }
}

/// The contract in its smallest form: three timers armed for one
/// instant fire in arm order.
#[test]
fn same_instant_fifo() {
    let mut wheel = TimerWheel::new();
    for label in ["first", "second", "third"] {
        wheel.schedule(5, label);
    }
    for expect in ["first", "second", "third"] {
        assert_eq!(wheel.pop_due(5), Some(expect));
    }
}

/// Nothing fires before its due instant.
#[test]
fn respects_due_time() {
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    wheel.schedule(100, 1);
    wheel.schedule(50, 2);
    assert_eq!(wheel.pop_due(49), None);
    assert_eq!(wheel.next_due(), Some(50));
    assert_eq!(wheel.pop_due(50), Some(2));
    assert_eq!(wheel.pop_due(99), None);
    assert_eq!(wheel.pop_due(100), Some(1));
}
