//! [`Host`]: the one place a [`Process`] runs. The [`Simulation`] is a
//! host of every node on a virtual clock; a `runtime` worker thread is a
//! host of its own nodes on the wall clock. A host owns its nodes and
//! their RNG streams, one agenda of [`Due`] entries, and the [`Network`]
//! with its [`ReplayStash`]; the node's one [`ProcessCtx`] writes through
//! to them. The driver keeps the clock — every call that runs a node is
//! told `now` — and an [`Outlet`].
//!
//! [`Simulation`]: crate::Simulation

use core::fmt::Debug;

use crate::net::{Network, NodeId, ReplayStash};
use crate::rng::SimRng;
use crate::scenario::Step;
use crate::time::{Duration, SimTime};
use crate::trace::TraceEvent;
use crate::wheel::{Entry, TimerWheel};

/// A deterministic state machine run by a [`Host`].
///
/// Processes communicate only through messages and timers; all
/// nondeterminism must come from the provided RNG so that runs are
/// reproducible from the seed.
pub trait Process {
    /// The message type exchanged between processes.
    type Msg;

    /// What names a timer: the value [`ProcessCtx::set_timer`] arms,
    /// [`ProcessCtx::cancel_timer`] cancels and [`Process::on_timer`]
    /// receives. A process has at most one pending timer per name.
    type Timer: Ord + Copy + Debug;

    /// Called once when the host starts, before any message.
    fn on_start(&mut self, ctx: &mut ProcessCtx<'_, Self::Msg, Self::Timer>) {
        let _ = ctx;
    }

    /// Called when a message addressed to this process arrives.
    fn on_message(
        &mut self,
        ctx: &mut ProcessCtx<'_, Self::Msg, Self::Timer>,
        from: NodeId,
        msg: Self::Msg,
    );

    /// Called when a timer set by this process fires.
    fn on_timer(&mut self, ctx: &mut ProcessCtx<'_, Self::Msg, Self::Timer>, timer: Self::Timer) {
        let _ = (ctx, timer);
    }
}

/// Where a host's traffic meets its driver.
pub trait Outlet<M> {
    /// `msg`, `bytes` long, is due now at `to`, a node hosted elsewhere.
    fn forward(&mut self, from: NodeId, to: NodeId, msg: M, bytes: usize);

    /// What just happened: a node sent (to itself too), the network lost
    /// a message, a timer fired or a message is being delivered.
    fn note(&mut self, event: TraceEvent) {
        let _ = event;
    }
}

/// One entry of a host's agenda.
#[derive(Debug)]
pub enum Due<M, T> {
    /// A node's timer, cancellable by `(node, timer)`.
    Timer(NodeId, T),
    /// A message on its way: dispatched into `to` if the host holds it,
    /// forwarded to the [`Outlet`] otherwise.
    Deliver {
        /// The sending node.
        from: NodeId,
        /// The node it is for.
        to: NodeId,
        /// The message.
        msg: M,
        /// What the sender charged for it.
        bytes: usize,
    },
    /// A [`Scenario`](crate::Scenario) step, which [`Host::pop_due`]
    /// hands back to the driver: only the driver knows what holds a
    /// slot or a connection.
    Step(Step),
}

/// A timer is named by its node and its own name; nothing else has one.
impl<M, T: Ord + Copy + Debug> Entry for Due<M, T> {
    type Id = (NodeId, T);

    fn id(&self) -> Option<(NodeId, T)> {
        match self {
            Due::Timer(node, timer) => Some((*node, *timer)),
            _ => None,
        }
    }
}

/// What a node's context writes through to: the host but its nodes.
struct Plane<M, T: Ord + Copy + Debug> {
    agenda: TimerWheel<Due<M, T>>,
    network: Network,
    stash: ReplayStash<M>,
    /// Off, a message between nodes bypasses `network`: one copy, due
    /// at once.
    faults: bool,
    /// `slots[id]`: the slot of node `id`, if this host holds it.
    slots: Vec<Option<usize>>,
}

impl<M, T: Ord + Copy + Debug> Plane<M, T> {
    fn slot(&self, node: NodeId) -> Option<usize> {
        self.slots.get(node.0 as usize).copied().flatten()
    }
}

/// What a process sees while handling an event, on every driver. It
/// writes through: each send, timer arm and cancel takes effect when the
/// handler makes it, so effects land in call order.
///
/// * [`now`](Self::now) is monotone non-decreasing across a node's
///   events (virtual time on the simulator, a monotonic clock on a
///   threaded worker).
/// * [`rng`](Self::rng) is the node's own seeded stream; all of its
///   nondeterminism must come from it.
/// * [`send`](Self::send) is told the wire bytes the node charged itself
///   and takes them as given; delivery may be delayed, dropped,
///   duplicated or reordered by the host's network.
/// * [`set_timer`](Self::set_timer) arms a timer that is not pending;
///   timers due at the same instant fire in arm order.
/// * [`cancel_timer`](Self::cancel_timer) is exact: a cancelled timer
///   never fires.
pub struct ProcessCtx<'a, M, T: Ord + Copy + Debug> {
    id: NodeId,
    now: SimTime,
    rng: &'a mut SimRng,
    plane: &'a mut Plane<M, T>,
    outlet: &'a mut dyn Outlet<M>,
}

impl<M, T: Ord + Copy + Debug> Debug for ProcessCtx<'_, M, T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ProcessCtx({} at {})", self.id, self.now)
    }
}

impl<M: Clone, T: Ord + Copy + Debug> ProcessCtx<'_, M, T> {
    /// This process's node id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This process's private RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Sends `msg` (`bytes` long on the wire) to `to`. A message to
    /// itself bypasses the network and is due at once. Each copy the
    /// network lets through is due after its delay; one due at once for
    /// a node hosted elsewhere goes to the outlet there and then.
    pub fn send(&mut self, to: NodeId, msg: M, bytes: usize) {
        let (from, time) = (self.id, self.now);
        self.outlet.note(TraceEvent::Sent {
            time,
            from,
            to,
            bytes,
        });
        let plane = &mut *self.plane;
        let elsewhere = to != from && plane.slot(to).is_none();
        let (agenda, outlet) = (&mut plane.agenda, &mut *self.outlet);
        let mut emit = |delay: Duration, msg, bytes| {
            if delay == Duration::ZERO && elsewhere {
                return outlet.forward(from, to, msg, bytes);
            }
            let copy = Due::Deliver {
                from,
                to,
                msg,
                bytes,
            };
            agenda.schedule((time + delay).as_micros(), copy);
        };
        if to == from || !plane.faults {
            emit(Duration::ZERO, msg, bytes);
        } else if !plane
            .network
            .route(&mut plane.stash, from, to, bytes, msg, emit)
        {
            self.outlet.note(TraceEvent::Lost { time, from, to });
        }
    }

    /// Schedules [`Process::on_timer`] with `timer` after `delay`.
    /// `timer` must not be pending already.
    pub fn set_timer(&mut self, delay: Duration, timer: T) {
        let due = (self.now + delay).as_micros();
        self.plane.agenda.schedule(due, Due::Timer(self.id, timer));
    }

    /// Unschedules the pending `timer`, if there is one: it never fires.
    pub fn cancel_timer(&mut self, timer: T) {
        self.plane.agenda.cancel((self.id, timer));
    }
}

/// A set of nodes, their agenda and their network (see the module docs).
pub struct Host<P: Process> {
    /// Slot by slot: each node, its id, its RNG stream and whether it
    /// is down.
    nodes: Vec<P>,
    ids: Vec<NodeId>,
    rngs: Vec<SimRng>,
    down: Vec<bool>,
    plane: Plane<P::Msg, P::Timer>,
}

impl<P: Process + Debug> Debug for Host<P> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let up = self.down.iter().map(|down| !down);
        let nodes: Vec<_> = self.ids.iter().zip(&self.nodes).zip(up).collect();
        f.debug_struct("Host")
            .field("nodes", &nodes)
            .finish_non_exhaustive()
    }
}

impl<P: Process> Host<P> {
    /// A host of `nodes` — each its id, process and RNG stream — whose
    /// messages to one another go through `network`.
    pub fn new(network: Network, nodes: Vec<(NodeId, P, SimRng)>) -> Self {
        let mut slots = Vec::new();
        for (slot, (id, ..)) in nodes.iter().enumerate() {
            let at = id.0 as usize;
            slots.resize(slots.len().max(at + 1), None);
            assert!(slots[at].replace(slot).is_none(), "{id} hosted twice");
        }
        let down = vec![false; nodes.len()];
        let parts = nodes.into_iter().map(|(id, node, rng)| ((id, node), rng));
        let ((ids, nodes), rngs): ((Vec<_>, Vec<_>), Vec<_>) = parts.unzip();
        let plane = Plane {
            agenda: TimerWheel::new(),
            network,
            stash: ReplayStash::new(),
            faults: true,
            slots,
        };
        Host {
            nodes,
            ids,
            rngs,
            down,
            plane,
        }
    }

    /// The id of the node in `slot`.
    #[must_use]
    pub fn id(&self, slot: usize) -> NodeId {
        self.ids[slot]
    }

    /// The process in `slot`.
    #[must_use]
    pub fn node(&self, slot: usize) -> &P {
        &self.nodes[slot]
    }

    /// Mutable access to the process in `slot`, for a harness.
    pub fn node_mut(&mut self, slot: usize) -> &mut P {
        &mut self.nodes[slot]
    }

    /// Every process, in slot order.
    #[must_use]
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Each node's id, process and RNG stream, in slot order.
    pub fn into_nodes(self) -> Vec<(NodeId, P, SimRng)> {
        let parts = self.ids.into_iter().zip(self.nodes).zip(self.rngs);
        parts.map(|((id, node), rng)| (id, node, rng)).collect()
    }

    /// The network (stats, reachability).
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.plane.network
    }

    /// Mutable access to the network (partitions, blocked links).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.plane.network
    }

    /// Whether messages between nodes go through the network (on when
    /// the host is built). Off, each is one copy, due at once.
    pub fn set_faults(&mut self, on: bool) {
        self.plane.faults = on;
    }

    /// The timers `node` has pending, in due order.
    #[must_use]
    pub fn timers(&self, node: NodeId) -> Vec<P::Timer> {
        let timers = self.plane.agenda.iter().filter_map(|due| match due {
            Due::Timer(n, timer) if *n == node => Some(*timer),
            _ => None,
        });
        timers.collect()
    }

    /// Puts `due` on the agenda at `at_micros`: a driver's scheduled
    /// [`Due::Step`].
    pub fn schedule(&mut self, at_micros: u64, due: Due<P::Msg, P::Timer>) {
        self.plane.agenda.schedule(at_micros, due);
    }

    /// Queues `msg` for `node` at `now` as if `node` had sent it to
    /// itself, unheard by the outlet: a driver's control-plane post.
    pub fn post(&mut self, now: SimTime, node: NodeId, msg: P::Msg) {
        let post = Due::Deliver {
            from: node,
            to: node,
            msg,
            bytes: 0,
        };
        self.plane.agenda.schedule(now.as_micros(), post);
    }

    /// Kills `node` like a power cut: the process is dropped and `husk`
    /// holds its slot, its timers and what it queued to itself are gone,
    /// and until [`revive`](Self::revive) it is down: what is delivered
    /// to it is dropped. What it sent to other nodes stays sent.
    pub fn kill(&mut self, node: NodeId, husk: P) {
        let slot = self.slot(node);
        self.nodes[slot] = husk;
        self.down[slot] = true;
        self.plane.agenda.retain(|due| match due {
            Due::Timer(n, _) => *n != node,
            Due::Deliver { from, to, .. } => (*from, *to) != (node, node),
            Due::Step(_) => true,
        });
    }

    /// Brings `node` back, up, as `process`.
    pub fn revive(&mut self, node: NodeId, process: P) {
        let slot = self.slot(node);
        self.nodes[slot] = process;
        self.down[slot] = false;
    }

    /// Unschedules every pending timer of `node`.
    pub fn drop_timers(&mut self, node: NodeId) {
        let agenda = &mut self.plane.agenda;
        agenda.retain(|due| !matches!(due, Due::Timer(n, _) if *n == node));
    }

    /// The due time of the earliest agenda entry, if any.
    #[must_use]
    pub fn next_due(&self) -> Option<u64> {
        self.plane.agenda.next_due()
    }

    /// Pops the earliest agenda entry due at or before `now_micros`.
    pub fn pop_due(&mut self, now_micros: u64) -> Option<Due<P::Msg, P::Timer>> {
        self.plane.agenda.pop_due(now_micros)
    }

    fn slot(&self, node: NodeId) -> usize {
        let slot = self.plane.slot(node);
        slot.unwrap_or_else(|| panic!("{node} is not hosted here"))
    }
}

/// Running nodes needs `P::Msg: Clone`: the network may copy a message.
impl<P: Process> Host<P>
where
    P::Msg: Clone,
{
    /// Starts every node that is up ([`Process::on_start`]) at `now`.
    pub fn start(&mut self, now: SimTime, outlet: &mut dyn Outlet<P::Msg>) {
        for slot in 0..self.nodes.len() {
            self.enter(slot, now, outlet, |p, ctx| p.on_start(ctx));
        }
    }

    /// Carries out a timer or a delivery at `now`: into the hosted node
    /// it is for unless that node is down, or to `outlet` if another
    /// host holds it. Returns the slot of the node that ran, if one did.
    /// A delivery here counts in the network's stats, down node or not.
    ///
    /// # Panics
    ///
    /// Panics on a [`Due::Step`], the driver's to do.
    pub fn dispatch(
        &mut self,
        now: SimTime,
        due: Due<P::Msg, P::Timer>,
        outlet: &mut dyn Outlet<P::Msg>,
    ) -> Option<usize> {
        match due {
            Due::Timer(node, timer) => {
                outlet.note(TraceEvent::TimerFired { time: now, node });
                let slot = self.slot(node);
                self.enter(slot, now, outlet, |p, ctx| p.on_timer(ctx, timer))
            }
            Due::Deliver {
                from,
                to,
                msg,
                bytes,
            } => match self.plane.slot(to) {
                Some(slot) => {
                    self.plane.network.record_delivery(bytes);
                    outlet.note(TraceEvent::Delivered {
                        time: now,
                        from,
                        to,
                        bytes,
                    });
                    self.enter(slot, now, outlet, |p, ctx| p.on_message(ctx, from, msg))
                }
                None => {
                    outlet.forward(from, to, msg, bytes);
                    None
                }
            },
            Due::Step(step) => panic!("{step:?} is the driver's"),
        }
    }

    /// Runs `event` — a call of the [`Process`] entry point it is for —
    /// in the node in `slot`, unless it is down.
    fn enter(
        &mut self,
        slot: usize,
        now: SimTime,
        outlet: &mut dyn Outlet<P::Msg>,
        event: impl FnOnce(&mut P, &mut ProcessCtx<'_, P::Msg, P::Timer>),
    ) -> Option<usize> {
        if self.down[slot] {
            return None;
        }
        let mut ctx = ProcessCtx {
            id: self.ids[slot],
            now,
            rng: &mut self.rngs[slot],
            plane: &mut self.plane,
            outlet,
        };
        event(&mut self.nodes[slot], &mut ctx);
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{LinkFaults, NetworkConfig};
    use crate::sim::tests::{tally_sim, timed, Tally};
    use crate::Simulation;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    fn tally(to_send: u32) -> Tally {
        let seen = vec![];
        Tally { to_send, seen }
    }

    /// After a kill none of the node's timers fire, what it had queued to
    /// itself is dropped, and nothing delivered while it is down reaches
    /// it; after the revive a post does.
    #[test]
    fn a_killed_node_runs_nothing_until_revived() {
        let script = [(10, 1), (20, 2)];
        let nodes = vec![timed(&script, &[]), timed(&script, &[])];
        let mut sim = Simulation::new(1, NetworkConfig::default(), nodes);
        sim.run_until(SimTime::from_micros(15));
        sim.kill(N1, timed(&[], &[]));
        sim.run_to_quiescence();
        assert_eq!(sim.process(0).fired, [(10, 1), (20, 2)]);
        assert_eq!(
            (&sim.process(1).fired[..], sim.events_processed()),
            (&[][..], 3)
        );

        // n0 sends five frames at start, each due 500 µs later.
        let mut sim = tally_sim(1, 5, LinkFaults::default());
        sim.run_until(SimTime::ZERO);
        sim.post(N1, 7);
        sim.kill(N1, tally(0));
        sim.run_to_quiescence();
        assert_eq!(sim.process(1).seen, []);
        assert_eq!(sim.network().stats().delivered, 5, "the wire delivered");
        sim.revive(N1, tally(0));
        sim.post(N1, 9);
        sim.run_to_quiescence();
        assert_eq!(sim.process(1).seen, [9]);
    }

    /// Every copy a hostile network held back arrives as if its sender
    /// had lived.
    #[test]
    fn what_a_killed_node_sent_still_arrives() {
        let run = |kill: bool| {
            let mut sim = tally_sim(3, 100, LinkFaults::hostile());
            sim.run_until(SimTime::ZERO);
            if kill {
                sim.kill(N0, tally(0));
            }
            sim.run_to_quiescence();
            sim.process(1).seen.clone()
        };
        let seen = run(true);
        assert!(seen.len() > 100, "copies were injected");
        assert_eq!(seen, run(false));
    }

    /// What leaves a host for a node it does not hold, in order.
    struct Wire(Vec<(NodeId, u32)>);

    impl Outlet<u32> for Wire {
        fn forward(&mut self, _: NodeId, to: NodeId, msg: u32, _: usize) {
            self.0.push((to, msg));
        }
    }

    /// n0 hosted without n1, as a worker hosts its own nodes: a copy the
    /// network holds back leaves through the outlet when due, after a
    /// kill of its sender too; with the network off, at once.
    #[test]
    fn copies_for_a_node_hosted_elsewhere_leave_through_the_outlet() {
        let sent = [(N1, 0), (N1, 1), (N1, 2)];
        for faults in [true, false] {
            let rng = SimRng::new(1);
            let network = Network::new(NetworkConfig::default(), rng.fork("network"));
            let mut host = Host::new(network, vec![(N0, tally(3), rng.fork("n0"))]);
            host.set_faults(faults);
            let mut wire = Wire(vec![]);
            host.start(SimTime::ZERO, &mut wire);
            if faults {
                assert_eq!(wire.0, [], "each copy is held back 500 µs");
                host.kill(N0, tally(0));
                while let Some(due) = host.pop_due(500) {
                    let now = SimTime::from_micros(500);
                    assert_eq!(host.dispatch(now, due, &mut wire), None);
                }
            }
            assert_eq!((&wire.0[..], host.next_due()), (&sent[..], None));
        }
    }
}
