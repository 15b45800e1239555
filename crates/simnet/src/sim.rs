//! The [`Simulation`] driver: one [`Host`] holding every node, on a
//! virtual clock that jumps to the next due entry.

use crate::host::{Host, Process};
use crate::net::{Network, NetworkConfig, NodeId};
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::trace::Trace;

/// A deterministic discrete-event simulation over a set of processes.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Simulation<P: Process> {
    host: Host<P>,
    now: SimTime,
    trace: Trace,
    events_processed: u64,
    max_events: u64,
    started: bool,
}

impl<P: Process> Simulation<P> {
    /// Default safety bound on processed events per run call.
    pub const DEFAULT_MAX_EVENTS: u64 = 50_000_000;

    /// Creates a simulation with `seed`-derived randomness, the given
    /// network configuration, and one node per process (node `i` hosts
    /// `processes[i]`).
    #[must_use]
    pub fn new(seed: u64, net_config: NetworkConfig, processes: Vec<P>) -> Self {
        let root = SimRng::new(seed);
        let nodes = processes.into_iter().enumerate().map(|(i, p)| {
            let rng = root.fork_indexed("node", i as u64);
            (NodeId(i as u32), Some(p), rng)
        });
        let network = Network::new(net_config, root.fork("network"));
        Simulation {
            host: Host::new(network, nodes.collect()),
            now: SimTime::ZERO,
            trace: Trace::new(),
            events_processed: 0,
            max_events: Self::DEFAULT_MAX_EVENTS,
            started: false,
        }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to the network (stats, reachability).
    #[must_use]
    pub fn network(&self) -> &Network {
        self.host.network()
    }

    /// Mutable access to the network (partitions, blocked links).
    pub fn network_mut(&mut self) -> &mut Network {
        self.host.network_mut()
    }

    /// Read access to process `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or its node is down.
    #[must_use]
    pub fn process(&self, i: usize) -> &P {
        self.host.node(i)
    }

    /// Mutable access to process `i` — for test-harness fault injection
    /// and post-run state extraction, not for use from within the
    /// simulation.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or its node is down.
    pub fn process_mut(&mut self, i: usize) -> &mut P {
        self.host.node_mut(i)
    }

    /// Every node's process, in node order; `None` while it is down.
    #[must_use]
    pub fn processes(&self) -> &[Option<P>] {
        self.host.nodes()
    }

    /// Enqueues `msg` for delivery to `to` at the current instant, as if
    /// `to` had sent it to itself — a harness-level injection point for
    /// control-plane events (e.g. membership changes) and protocol-level
    /// tests, bypassing the network.
    pub fn post(&mut self, to: NodeId, msg: P::Msg) {
        self.host.post(self.now, to, msg);
    }

    /// [`Host::kill`]: `node`'s slot is empty, and `node` down, until
    /// [`revive`](Self::revive).
    pub fn kill(&mut self, node: NodeId) {
        self.host.kill(node);
    }

    /// [`Host::revive`]: `node` is up again, as `process`.
    pub fn revive(&mut self, node: NodeId, process: P) {
        self.host.revive(node, process);
    }

    /// Unschedules every pending timer of `node` — for a harness that
    /// drops or replaces the process there, whose successor must not
    /// receive its predecessor's timers.
    pub fn drop_timers(&mut self, node: NodeId) {
        self.host.drop_timers(node);
    }

    /// The execution trace (enable it before running).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace (to enable/bound it).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Sets the safety bound on total processed events.
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// Total events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

/// The run path needs `P::Msg: Clone` so fault injection (duplication and
/// stale replay) can re-enqueue copies of in-flight messages. Construction
/// and inspection above stay unconstrained.
impl<P: Process> Simulation<P>
where
    P::Msg: Clone,
{
    fn ensure_started(&mut self) {
        if !std::mem::replace(&mut self.started, true) {
            self.host.start(self.now, &mut self.trace);
        }
    }

    /// Runs one event. Returns `false` when the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if the event safety bound is exceeded (runaway message
    /// loops are bugs, not workloads).
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some(due) = self.host.next_due() else {
            return false;
        };
        let entry = self.host.pop_due(due).expect("the earliest entry is due");
        let time = SimTime::from_micros(due);
        assert!(
            self.events_processed < self.max_events,
            "simulation exceeded {} events — livelock?",
            self.max_events
        );
        self.events_processed += 1;
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.host.dispatch(time, entry, &mut self.trace);
        true
    }

    /// Runs until the queue is empty.
    pub fn run_to_quiescence(&mut self) {
        self.ensure_started();
        while self.step() {}
    }

    /// Runs until virtual time reaches `deadline` (events at the deadline
    /// are processed) or the queue empties.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        while let Some(due) = self.host.next_due() {
            if due > deadline.as_micros() {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::host::ProcessCtx;
    use crate::latency::LatencyModel;
    use crate::net::{LinkConfig, LinkFaults};
    use crate::time::Duration;
    use crate::trace::TraceEvent;

    /// Counts messages; replies until a budget is exhausted.
    struct Echo {
        received: u32,
        budget: u32,
    }

    impl Process for Echo {
        type Msg = u32;
        type Timer = ();

        fn on_start(&mut self, ctx: &mut ProcessCtx<'_, u32, ()>) {
            if ctx.id() == NodeId(0) {
                ctx.send(NodeId(1), 0, 16);
            }
        }

        fn on_message(&mut self, ctx: &mut ProcessCtx<'_, u32, ()>, from: NodeId, msg: u32) {
            self.received += 1;
            if self.budget > 0 {
                self.budget -= 1;
                ctx.send(from, msg + 1, 16);
            }
        }
    }

    fn echo_pair(budget: u32) -> Simulation<Echo> {
        Simulation::new(
            7,
            NetworkConfig::default(),
            vec![
                Echo {
                    received: 0,
                    budget,
                },
                Echo {
                    received: 0,
                    budget,
                },
            ],
        )
    }

    #[test]
    fn messages_flow_and_time_advances() {
        let mut sim = echo_pair(2);
        sim.run_to_quiescence();
        // n0 sends 1; each side replies twice: total deliveries = 5
        assert_eq!(sim.network().stats().delivered, 5);
        assert_eq!(sim.now(), SimTime::from_micros(2500), "5 hops × 500µs");
        assert_eq!(sim.process(0).received + sim.process(1).received, 5);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = echo_pair(3);
            sim.run_to_quiescence();
            (sim.now(), sim.network().stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = echo_pair(1000);
        sim.run_until(SimTime::from_micros(1750));
        // deliveries at 500, 1000, 1500 have happened; 2000 has not
        assert_eq!(sim.network().stats().delivered, 3);
        assert_eq!(sim.now(), SimTime::from_micros(1750));
        sim.run_until(SimTime::from_micros(2000));
        assert_eq!(sim.network().stats().delivered, 4);
    }

    /// Arms the timers its script names at start and cancels the ones
    /// it names for then; a message `k` makes it cancel timer `k`. It
    /// notes every fire.
    pub(crate) struct Timed {
        arm: Vec<(u64, u8)>,
        cancel_at_once: Vec<u8>,
        pub(crate) fired: Vec<(u64, u8)>,
    }

    impl Process for Timed {
        type Msg = u8;
        type Timer = u8;
        fn on_start(&mut self, ctx: &mut ProcessCtx<'_, u8, u8>) {
            for &(after, timer) in &self.arm {
                ctx.set_timer(Duration::from_micros(after), timer);
            }
            for &timer in &self.cancel_at_once {
                ctx.cancel_timer(timer);
            }
        }
        fn on_message(&mut self, ctx: &mut ProcessCtx<'_, u8, u8>, _: NodeId, timer: u8) {
            ctx.cancel_timer(timer);
        }
        fn on_timer(&mut self, ctx: &mut ProcessCtx<'_, u8, u8>, timer: u8) {
            self.fired.push((ctx.now().as_micros(), timer));
        }
    }

    pub(crate) fn timed(arm: &[(u64, u8)], cancel_at_once: &[u8]) -> Timed {
        Timed {
            arm: arm.to_vec(),
            cancel_at_once: cancel_at_once.to_vec(),
            fired: vec![],
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let node = timed(&[(30, 1), (10, 2), (10, 3)], &[]);
        let mut sim = Simulation::new(1, NetworkConfig::default(), vec![node]);
        sim.run_to_quiescence();
        assert_eq!(sim.process(0).fired, vec![(10, 2), (10, 3), (30, 1)]);
    }

    #[test]
    fn a_timer_armed_and_cancelled_in_one_dispatch_never_fires() {
        let node = timed(&[(10, 1), (20, 2)], &[1]);
        let mut sim = Simulation::new(1, NetworkConfig::default(), vec![node]);
        sim.run_to_quiescence();
        assert_eq!(sim.process(0).fired, vec![(20, 2)]);
        assert_eq!(sim.events_processed(), 1, "no fire was queued for 1");
    }

    #[test]
    fn a_timer_cancelled_in_a_later_dispatch_never_fires() {
        let node = timed(&[(10, 1), (20, 2)], &[]);
        let mut sim = Simulation::new(1, NetworkConfig::default(), vec![node]);
        sim.run_until(SimTime::from_micros(5));
        sim.post(NodeId(0), 2);
        sim.run_to_quiescence();
        assert_eq!(sim.process(0).fired, vec![(10, 1)]);
        assert_eq!(sim.events_processed(), 2, "the post and one fire");
    }

    #[test]
    fn drop_timers_takes_only_that_nodes_timers() {
        let script = [(10, 1), (20, 2)];
        let nodes = vec![timed(&script, &[]), timed(&script, &[])];
        let mut sim = Simulation::new(1, NetworkConfig::default(), nodes);
        sim.run_until(SimTime::from_micros(15));
        sim.drop_timers(NodeId(1));
        sim.run_to_quiescence();
        assert_eq!(sim.process(0).fired, vec![(10, 1), (20, 2)]);
        assert_eq!(sim.process(1).fired, vec![(10, 1)]);
    }

    #[test]
    fn partition_loses_messages() {
        let mut sim = echo_pair(100);
        sim.network_mut().partition_two([NodeId(0)], [NodeId(1)]);
        sim.run_to_quiescence();
        assert_eq!(sim.network().stats().delivered, 0);
        assert_eq!(sim.network().stats().unreachable, 1);
    }

    #[test]
    fn self_send_is_immediate() {
        struct SelfSender {
            got: bool,
        }
        impl Process for SelfSender {
            type Msg = ();
            type Timer = ();
            fn on_start(&mut self, ctx: &mut ProcessCtx<'_, (), ()>) {
                ctx.send(ctx.id(), (), 0);
            }
            fn on_message(&mut self, ctx: &mut ProcessCtx<'_, (), ()>, from: NodeId, _: ()) {
                assert_eq!(from, ctx.id());
                assert_eq!(ctx.now(), SimTime::ZERO);
                self.got = true;
            }
        }
        let mut sim = Simulation::new(1, NetworkConfig::default(), vec![SelfSender { got: false }]);
        sim.run_to_quiescence();
        assert!(sim.process(0).got);
    }

    /// A handler's effects land in the order it made them: a zero-delay
    /// timer armed before a self-send fires before that send arrives.
    #[test]
    fn effects_land_in_call_order() {
        #[derive(Default)]
        struct ArmThenSend {
            seen: Vec<&'static str>,
        }
        impl Process for ArmThenSend {
            type Msg = ();
            type Timer = ();
            fn on_start(&mut self, ctx: &mut ProcessCtx<'_, (), ()>) {
                ctx.set_timer(Duration::ZERO, ());
                ctx.send(ctx.id(), (), 0);
            }
            fn on_message(&mut self, _: &mut ProcessCtx<'_, (), ()>, _: NodeId, _: ()) {
                self.seen.push("message");
            }
            fn on_timer(&mut self, _: &mut ProcessCtx<'_, (), ()>, _: ()) {
                self.seen.push("timer");
            }
        }
        let node = ArmThenSend::default();
        let mut sim = Simulation::new(1, NetworkConfig::default(), vec![node]);
        sim.run_to_quiescence();
        assert_eq!(sim.process(0).seen, ["timer", "message"]);
    }

    #[test]
    fn trace_records_when_enabled() {
        let mut sim = echo_pair(1);
        sim.trace_mut().enable();
        sim.run_to_quiescence();
        assert!(sim
            .trace()
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Sent { .. })));
        assert_eq!(sim.trace().deliveries_to(NodeId(1)), 2);
    }

    #[test]
    #[should_panic(expected = "livelock")]
    fn runaway_loops_hit_the_event_bound() {
        let mut sim = echo_pair(u32::MAX);
        sim.set_max_events(1_000);
        sim.run_to_quiescence();
    }

    /// One-shot sender: n0 fires `count` distinct messages — each of
    /// its own size, [`frame_bytes`] — at n1, which only tallies what it
    /// sees (no replies — so every extra delivery is fault-injected, not
    /// protocol echo).
    pub(crate) struct Tally {
        pub(crate) to_send: u32,
        pub(crate) seen: Vec<u32>,
    }

    impl Process for Tally {
        type Msg = u32;
        type Timer = ();

        fn on_start(&mut self, ctx: &mut ProcessCtx<'_, u32, ()>) {
            for i in 0..self.to_send {
                ctx.send(NodeId(1), i, frame_bytes(i));
            }
        }

        fn on_message(&mut self, _: &mut ProcessCtx<'_, u32, ()>, _: NodeId, msg: u32) {
            self.seen.push(msg);
        }
    }

    fn frame_bytes(frame: u32) -> usize {
        100 + frame as usize
    }

    pub(crate) fn tally_sim(seed: u64, count: u32, faults: LinkFaults) -> Simulation<Tally> {
        let link = LinkConfig {
            faults,
            ..LinkConfig::default()
        };
        Simulation::new(
            seed,
            NetworkConfig::uniform(link),
            vec![
                Tally {
                    to_send: count,
                    seen: vec![],
                },
                Tally {
                    to_send: 0,
                    seen: vec![],
                },
            ],
        )
    }

    #[test]
    fn duplication_inflates_deliveries() {
        let mut sim = tally_sim(
            11,
            200,
            LinkFaults {
                duplicate_probability: 0.5,
                ..LinkFaults::default()
            },
        );
        sim.run_to_quiescence();
        let seen = &sim.process(1).seen;
        assert!(
            seen.len() > 200,
            "0.5 duplication over 200 sends must inject copies, saw {}",
            seen.len()
        );
        assert_eq!(sim.network().stats().duplicated, (seen.len() - 200) as u64);
        // every original still arrives exactly once-or-more, none invented
        let mut uniq = seen.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn stale_replay_redelivers_old_frames() {
        let mut sim = tally_sim(
            3,
            400,
            LinkFaults {
                replay_probability: 0.2,
                replay_delay: Duration::from_millis(8),
                ..LinkFaults::default()
            },
        );
        sim.run_to_quiescence();
        let stats = sim.network().stats();
        assert!(stats.replayed > 0, "0.2 replay over 400 sends must fire");
        assert_eq!(
            sim.process(1).seen.len() as u64,
            400 + stats.replayed,
            "each replay is one extra delivery of an already-sent frame"
        );
    }

    /// Regression: the stash held messages only, so a stale replay was
    /// delivered — and counted — at the size of the frame that
    /// triggered it.
    #[test]
    fn stale_replay_is_delivered_at_its_own_size() {
        let faults = LinkFaults {
            replay_probability: 0.3,
            ..LinkFaults::default()
        };
        let mut sim = tally_sim(3, 200, faults);
        sim.trace_mut().enable();
        sim.run_to_quiescence();
        let delivered = sim.trace().events().iter().filter_map(|e| match e {
            TraceEvent::Delivered { bytes, .. } => Some(*bytes),
            _ => None,
        });
        let sent_at: Vec<usize> = sim
            .process(1)
            .seen
            .iter()
            .map(|i| frame_bytes(*i))
            .collect();
        assert!(sim.network().stats().replayed > 50);
        assert_eq!(delivered.collect::<Vec<_>>(), sent_at, "message by message");
        let total: usize = sent_at.iter().sum();
        assert_eq!(sim.network().stats().bytes_delivered, total as u64);
    }

    /// Golden pin: delivery order and counters of this run as they were
    /// on the commit before [`Network::route`] replaced the separate
    /// transmit and fault-verdict rolls — "bit-for-bit" as a test.
    #[test]
    fn hostile_run_is_what_it_was_before_route() {
        let mut sim = tally_sim(42, 300, LinkFaults::hostile());
        sim.run_to_quiescence();
        let seen = &sim.process(1).seen;
        let fnv = seen.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, v| {
            (h ^ u64::from(*v)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((seen.len(), fnv), (360, 0x030a_3789_7c8f_e2ae));
        let head = [0, 0, 1, 2, 2, 5, 7, 8, 9, 9, 10, 11, 12, 13, 13, 14];
        assert_eq!(
            (&seen[..16], &seen[356..]),
            (&head[..], &[177, 190, 205, 275][..])
        );
        let s = sim.network().stats();
        let counters = [
            s.sent,
            s.delivered,
            s.dropped,
            s.duplicated,
            s.reordered,
            s.replayed,
        ];
        assert_eq!(counters, [300, 360, 0, 44, 78, 16]);
        assert_eq!(sim.now(), SimTime::from_micros(8000));
    }

    #[test]
    fn hostile_runs_stay_seed_deterministic() {
        let run = |seed| {
            let mut sim = tally_sim(seed, 300, LinkFaults::hostile());
            sim.run_to_quiescence();
            (sim.process(1).seen.clone(), sim.network().stats())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds, different traces");
    }

    #[test]
    fn reordering_breaks_fifo_delivery() {
        let mut sim = tally_sim(
            5,
            100,
            LinkFaults {
                reorder_probability: 0.5,
                reorder_window: Duration::from_millis(4),
                ..LinkFaults::default()
            },
        );
        sim.run_to_quiescence();
        let seen = &sim.process(1).seen;
        assert_eq!(seen.len(), 100, "reorder never loses or copies");
        assert!(
            seen.windows(2).any(|w| w[0] > w[1]),
            "a 4ms window over same-instant sends must break order"
        );
    }

    #[test]
    fn bandwidth_affects_completion_time() {
        let link = LinkConfig {
            latency: LatencyModel::Constant(Duration::from_micros(100)),
            bandwidth: Some(1_000_000),
            ..LinkConfig::default()
        };
        struct Big;
        impl Process for Big {
            type Msg = ();
            type Timer = ();
            fn on_start(&mut self, ctx: &mut ProcessCtx<'_, (), ()>) {
                if ctx.id() == NodeId(0) {
                    ctx.send(NodeId(1), (), 9_900); // 9.9ms at 1MB/s
                }
            }
            fn on_message(&mut self, _: &mut ProcessCtx<'_, (), ()>, _: NodeId, _: ()) {}
        }
        let mut sim = Simulation::new(1, NetworkConfig::uniform(link), vec![Big, Big]);
        sim.run_to_quiescence();
        assert_eq!(sim.now(), SimTime::from_micros(10_000));
    }
}
