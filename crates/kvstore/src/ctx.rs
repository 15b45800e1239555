//! [`NodeCtx`]: the driver-agnostic node↔network boundary.
//!
//! [`StoreNode`](crate::node::StoreNode) and
//! [`ClientNode`](crate::client::ClientNode) are written against this
//! trait rather than a concrete driver, so the *same* protocol logic
//! runs on every driver. A driver is a `NodeCtx` of six forwarding
//! methods:
//!
//! * the deterministic discrete-event simulator — [`simnet::ProcessCtx`]
//!   implements the trait directly (below), and
//!   [`Cluster`](crate::cluster::Cluster) is the oracle-checked harness
//!   over it;
//! * the threaded fleet (the `runtime` crate), whose context writes
//!   through to a worker's router and timer wheel — over in-process
//!   channels or, in `transport`, TCP sockets.
//!
//! What a message costs is **not** decided here. The node's one send
//! door ([`Msg::charge`]: [`Msg::wire_size`] plus the configured
//! per-message header) sizes the message, records it in the node's
//! per-class ledger and hands the same number to [`NodeCtx::send`], so
//! no context carries a mechanism or a header size and the accounting
//! audited by the wire-parity suite cannot drift per driver.

use dvv::mechanisms::Mechanism;
use simnet::{Duration, NodeId, ProcessCtx, SimRng, SimTime, TimerId};

use crate::messages::Msg;
use crate::value::StampedValue;

/// The capabilities a store or client node sees while handling an event,
/// independent of which driver is hosting it.
///
/// Contract, shared by all drivers:
///
/// * [`now`](Self::now) is monotone non-decreasing across a node's
///   events (virtual time on the simulator, a monotonic clock on the
///   threaded runtime).
/// * [`rng`](Self::rng) is a per-node seeded stream; all of a node's
///   nondeterminism must come from it.
/// * [`send`](Self::send) is told the wire bytes the node charged
///   itself (payload + header) and delivers; delivery may be delayed,
///   dropped, or reordered by the driver's network.
/// * [`set_timer`](Self::set_timer) ids are unique per node; timers
///   scheduled for the same instant fire in insertion order.
/// * [`cancel_timer`](Self::cancel_timer) is advisory: a driver may
///   still fire a cancelled timer (the simulator does), so nodes must
///   ignore unknown timer ids — which they already do by keeping their
///   own `TimerId → kind` maps.
pub trait NodeCtx<M: Mechanism<StampedValue>> {
    /// The hosting node's id.
    fn id(&self) -> NodeId;

    /// Current time (virtual or monotonic-wall, driver-dependent).
    fn now(&self) -> SimTime;

    /// This node's private RNG stream.
    fn rng(&mut self) -> &mut SimRng;

    /// Sends `msg` to `to`. `bytes` is what the sending node charged
    /// for it ([`Msg::charge`]): the driver's network model and byte
    /// ledgers take it as given rather than re-deriving it.
    fn send(&mut self, to: NodeId, msg: Msg<M>, bytes: usize);

    /// Schedules a timer after `delay`; the returned id is handed back to
    /// the node's `on_timer` when it fires.
    fn set_timer(&mut self, delay: Duration) -> TimerId;

    /// Best-effort cancellation of a pending timer. Drivers that cannot
    /// unschedule (the simulator) may still deliver the fire; nodes must
    /// treat an unknown id as a no-op.
    fn cancel_timer(&mut self, timer: TimerId);
}

/// The simulator hosts a node directly: its process context already
/// has the trait's shape.
impl<M: Mechanism<StampedValue>> NodeCtx<M> for ProcessCtx<'_, Msg<M>> {
    fn id(&self) -> NodeId {
        ProcessCtx::id(self)
    }

    fn now(&self) -> SimTime {
        ProcessCtx::now(self)
    }

    fn rng(&mut self) -> &mut SimRng {
        ProcessCtx::rng(self)
    }

    fn send(&mut self, to: NodeId, msg: Msg<M>, bytes: usize) {
        ProcessCtx::send(self, to, msg, bytes);
    }

    fn set_timer(&mut self, delay: Duration) -> TimerId {
        ProcessCtx::set_timer(self, delay)
    }

    fn cancel_timer(&mut self, _timer: TimerId) {
        // The simulator's event queue has no removal; the fire is
        // delivered and ignored by the node's own timer map. Keeping the
        // event preserves bit-for-bit determinism of existing runs.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{NodeKit, StoreProc};
    use crate::config::{ClientConfig, StoreConfig};
    use dvv::mechanisms::DvvMechanism;
    use simnet::{LinkConfig, LinkFaults, NetworkConfig, Process, Simulation, TraceEvent};

    /// Not the default, so a charge that ignored the configuration
    /// would show.
    const HEADER: usize = 24;

    /// A real node, hosted as the simulator hosts any node, that also
    /// notes what each message it receives should have cost its sender.
    struct Probe {
        node: StoreProc<DvvMechanism>,
        expect: Vec<usize>,
    }

    impl Process for Probe {
        type Msg = Msg<DvvMechanism>;

        fn on_start(&mut self, ctx: &mut ProcessCtx<'_, Self::Msg>) {
            self.node.on_start(ctx);
        }

        fn on_message(
            &mut self,
            ctx: &mut ProcessCtx<'_, Self::Msg>,
            from: NodeId,
            msg: Self::Msg,
        ) {
            self.expect.push(msg.wire_size(&DvvMechanism) + HEADER);
            self.node.on_message(ctx, from, msg);
        }

        fn on_timer(&mut self, ctx: &mut ProcessCtx<'_, Self::Msg>, timer: TimerId) {
            self.node.on_timer(ctx, timer);
        }
    }

    /// Runs two servers and a client of `cycles` cycles on the bare
    /// simulator under `faults` and checks, message by message, that
    /// the bytes the network delivered to each node are what that
    /// message's size and the header come to. Returns what the nodes
    /// charged themselves and what the deliveries add up to.
    fn charged_and_delivered(faults: LinkFaults, cycles: u32) -> (u64, u64) {
        let store = StoreConfig {
            n: 2,
            anti_entropy_interval: Duration::ZERO,
            gossip_interval: Duration::ZERO,
            handoff_interval: Duration::ZERO,
            header_bytes: HEADER,
            ..StoreConfig::default()
        };
        let kit = NodeKit::new(DvvMechanism, store, 2, None);
        let probe = |node| Probe {
            node,
            expect: Vec::new(),
        };
        let link = LinkConfig {
            faults,
            ..LinkConfig::default()
        };
        let mut sim = Simulation::new(
            1,
            NetworkConfig::uniform(link),
            vec![
                probe(kit.server(0)),
                probe(kit.server(1)),
                probe(kit.client(0, 2, &ClientConfig::default(), cycles)),
            ],
        );
        sim.trace_mut().enable();
        sim.run_to_quiescence();

        let mut charged = 0;
        for (i, p) in sim.processes().iter().enumerate() {
            charged += match &p.node {
                StoreProc::Server(s) => s.wire_stats().total_bytes(),
                StoreProc::Client(c) => {
                    assert_eq!(c.cycles_done(), cycles);
                    c.wire_stats().total_bytes()
                }
            };
            let delivered: Vec<usize> = sim
                .trace()
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Delivered { to, bytes, .. } if to.0 as usize == i => Some(*bytes),
                    _ => None,
                })
                .collect();
            assert_eq!(delivered, p.expect, "node {i}");
        }
        let expected: usize = sim.processes().iter().flat_map(|p| &p.expect).sum();
        assert!(expected > 12 * HEADER, "payloads sized, not just headers");
        assert_eq!(sim.network().stats().bytes_delivered, expected as u64);
        (charged, expected as u64)
    }

    /// The single-source-of-truth property, end to end on the bare
    /// simulator: what the nodes charged themselves is
    /// `wire_size + header_bytes` of every message, and is what the
    /// network was handed and delivered.
    #[test]
    fn sim_ctx_derives_bytes_from_wire_size() {
        let (charged, delivered) = charged_and_delivered(LinkFaults::default(), 3);
        assert_eq!(charged, delivered);
    }

    /// Its hostile-network twin: every copy the network injects — a
    /// duplicate, or a stale replay of an older, differently sized
    /// frame — is delivered at the size *that* message was charged.
    #[test]
    fn sim_ctx_bytes_stay_per_message_on_a_hostile_network() {
        let (charged, delivered) = charged_and_delivered(LinkFaults::hostile(), 40);
        assert!(delivered > charged, "copies were injected");
    }
}
