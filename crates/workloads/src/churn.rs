//! Elastic-churn scenario plans: deterministic schedules of node
//! join/leave events to replay against a cluster while a workload runs.
//!
//! Like the other generators in this crate, plans are built either from
//! explicit parameters or from caller-supplied uniform draws, keeping the
//! module decoupled from any particular RNG.

/// One membership change in a churn scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnAction {
    /// Activate the given spare server slot.
    Join(usize),
    /// Drain and retire the given member server slot.
    Leave(usize),
}

/// A membership change scheduled at a virtual-time offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Microseconds of workload to run before this event.
    pub after_micros: u64,
    /// The membership change to apply.
    pub action: ChurnAction,
}

/// A deterministic schedule of join/leave events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// Builds a randomized plan from uniform draws in `[0, 1)`: each draw
    /// either joins the lowest dormant spare (draw < `join_bias`) or
    /// retires the highest removable member. Slots that cannot move (no
    /// spare left, or removal would breach `min_members`) yield no event
    /// for that draw, so the plan is always applicable.
    ///
    /// `initial_members` are the slots in the ring at time zero and
    /// `spares` the dormant slots, mirroring the cluster layout.
    #[must_use]
    pub fn from_draws(
        initial_members: &[usize],
        spares: &[usize],
        min_members: usize,
        join_bias: f64,
        gap_micros: u64,
        draws: &[f64],
    ) -> Self {
        let mut members: Vec<usize> = initial_members.to_vec();
        let mut dormant: Vec<usize> = spares.to_vec();
        let mut events = Vec::new();
        for &u in draws {
            if u < join_bias {
                if let Some(slot) = dormant.first().copied() {
                    dormant.remove(0);
                    members.push(slot);
                    events.push(ChurnEvent {
                        after_micros: gap_micros,
                        action: ChurnAction::Join(slot),
                    });
                }
            } else if members.len() > min_members {
                let slot = *members.iter().max().expect("members nonempty");
                members.retain(|m| *m != slot);
                dormant.push(slot);
                dormant.sort_unstable();
                events.push(ChurnEvent {
                    after_micros: gap_micros,
                    action: ChurnAction::Leave(slot),
                });
            }
        }
        ChurnPlan { events }
    }

    /// The scheduled events, in execution order.
    #[must_use]
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The churn-scenario seed list actually run: `base`, extended by the
/// comma-separated `EXTRA_CHURN_SEEDS` environment variable when set.
/// The soak CI lane uses this to widen the cheap PR-gate seed set into a
/// statistically meaningful nightly run without touching the tests.
#[must_use]
pub fn churn_seeds(base: &[u64]) -> Vec<u64> {
    extend_seeds(base, std::env::var("EXTRA_CHURN_SEEDS").ok().as_deref())
}

fn extend_seeds(base: &[u64], extra: Option<&str>) -> Vec<u64> {
    let mut seeds = base.to_vec();
    for tok in extra.unwrap_or_default().split(',') {
        if let Ok(seed) = tok.trim().parse::<u64>() {
            if !seeds.contains(&seed) {
                seeds.push(seed);
            }
        }
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend_seeds_parses_dedupes_and_ignores_garbage() {
        assert_eq!(extend_seeds(&[1, 2], None), vec![1, 2]);
        assert_eq!(
            extend_seeds(&[1, 2], Some("7, 2,abc, 9,")),
            vec![1, 2, 7, 9],
            "parsed seeds append, duplicates and garbage are dropped"
        );
        assert_eq!(extend_seeds(&[], Some("")), Vec::<u64>::new());
    }

    #[test]
    fn from_draws_is_deterministic_and_respects_bounds() {
        let draws = [0.1, 0.9, 0.2, 0.95, 0.99, 0.05];
        let a = ChurnPlan::from_draws(&[0, 1, 2], &[3, 4], 3, 0.5, 10_000, &draws);
        let b = ChurnPlan::from_draws(&[0, 1, 2], &[3, 4], 3, 0.5, 10_000, &draws);
        assert_eq!(a, b, "same draws, same plan");

        // replay the plan and check it never breaches the bounds
        let mut members = vec![0usize, 1, 2];
        let mut dormant = vec![3usize, 4];
        for e in a.events() {
            match e.action {
                ChurnAction::Join(s) => {
                    assert!(dormant.contains(&s), "join of a non-dormant slot");
                    dormant.retain(|d| *d != s);
                    members.push(s);
                }
                ChurnAction::Leave(s) => {
                    assert!(members.contains(&s), "leave of a non-member");
                    members.retain(|m| *m != s);
                    dormant.push(s);
                    assert!(members.len() >= 3, "breached min_members");
                }
            }
        }
    }

    #[test]
    fn from_draws_skips_impossible_moves() {
        // all-leave draws against a cluster already at the floor
        let plan = ChurnPlan::from_draws(&[0, 1, 2], &[], 3, 0.5, 1, &[0.9, 0.9, 0.9]);
        assert!(plan.is_empty(), "no member can leave at the floor");
        // all-join draws with no spares
        let plan = ChurnPlan::from_draws(&[0, 1, 2], &[], 3, 0.5, 1, &[0.1, 0.1]);
        assert!(plan.is_empty(), "no spare can join");
    }
}
