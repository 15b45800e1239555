//! [`Scenario`]: what happens to a fleet during a run, and when — the
//! one run schedule every driver takes. Each [`Step`] is due at an
//! offset from run start: virtual time on the simulator, wall time on a
//! threaded fleet, where it is an entry ([`Due::Step`]) on the agenda of
//! the worker that hosts its node.
//!
//! [`Due::Step`]: crate::Due::Step

use std::collections::BTreeSet;

use crate::net::LinkFaults;
use crate::time::Duration;

/// One thing a [`Scenario`] does to the fleet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Step {
    /// Kills server `slot` like a power cut: in-memory state, timers and
    /// whatever its storage engine had not synced are gone.
    Kill(usize),
    /// Brings the killed server `slot` back from its storage engine and
    /// re-admits it in band under a fresh `Up` incarnation.
    Revive(usize),
    /// Every link runs with these fault knobs from here on.
    Faults(LinkFaults),
    /// Severs every live connection touching node `node`; a no-op on a
    /// driver without connections.
    CutConn(usize),
}

/// A run's steps, each at its offset from run start, in due order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scenario {
    steps: Vec<(Duration, Step)>,
}

impl Scenario {
    /// The steps sorted by due time; steps due at one instant keep the
    /// order they are listed in.
    pub fn new(steps: impl IntoIterator<Item = (Duration, Step)>) -> Self {
        let mut steps: Vec<_> = steps.into_iter().collect();
        steps.sort_by_key(|(at, _)| *at);
        Scenario { steps }
    }

    /// The steps, in due order.
    #[must_use]
    pub fn steps(&self) -> &[(Duration, Step)] {
        &self.steps
    }

    /// Checks the scenario against the shape of the fleet it is to run
    /// on: `servers` servers, `nodes` nodes in all (servers first), and
    /// whether the fleet has a `network` to set faults on.
    ///
    /// # Panics
    ///
    /// Panics on a kill or revive of a non-server, a second kill of one
    /// server, a kill with no later revive or a revive of a server that
    /// is not down, a cut of an unknown node, and a `Faults` step on a
    /// fleet without a network.
    pub fn check(&self, servers: usize, nodes: usize, network: bool) {
        let (mut killed, mut down) = (BTreeSet::new(), BTreeSet::new());
        for (at, step) in &self.steps {
            match *step {
                Step::Kill(slot) | Step::Revive(slot) if slot >= servers => {
                    panic!("{step:?} at {at}: not a server")
                }
                Step::Kill(slot) => {
                    // A respawn is re-admitted under the one incarnation
                    // the fleet's audit view names for it.
                    assert!(killed.insert(slot), "server {slot} is killed twice");
                    down.insert(slot);
                }
                Step::Revive(slot) => {
                    assert!(down.remove(&slot), "server {slot} is revived but not down");
                }
                Step::Faults(_) => assert!(network, "a Faults step on a fleet without a network"),
                Step::CutConn(node) => assert!(node < nodes, "a cut of unknown node {node}"),
            }
        }
        if let Some(slot) = down.first() {
            panic!("server {slot} is killed and never revived");
        }
    }
}
