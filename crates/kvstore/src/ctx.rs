//! [`NodeCtx`]: the driver-agnostic node↔network boundary.
//!
//! [`StoreNode`](crate::node::StoreNode) and
//! [`ClientNode`](crate::client::ClientNode) are written against this
//! trait rather than a concrete driver, so the *same* protocol logic
//! runs on two backends:
//!
//! * [`SimCtx`] — the deterministic discrete-event simulator
//!   ([`simnet::Simulation`]), kept as the oracle-checked harness;
//! * the multi-threaded in-process runtime (the `runtime` crate), which
//!   provides its own implementation over real threads, channels, and a
//!   monotonic clock.
//!
//! The trait is also the **single source of truth for wire bytes**:
//! [`NodeCtx::send`] derives each message's size from
//! [`Msg::wire_size`] plus the configured per-message header overhead
//! and returns it to the caller, so the per-class accounting audited by
//! the wire-parity suite cannot drift per call site.

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
/// * [`send`](Self::send) sizes the message itself and returns the wire
///   bytes charged (payload + header); delivery may be delayed, dropped,
///   or reordered by the driver's network.
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

    /// Sends `msg` to `to`, deriving its wire size internally
    /// ([`Msg::wire_size`] + header bytes). Returns the bytes charged so
    /// the node can record them in its per-class ledger.
    fn send(&mut self, to: NodeId, msg: Msg<M>) -> usize;

    /// Schedules a timer after `delay`; the returned id is handed back to
    /// the node's `on_timer` when it fires.
    fn set_timer(&mut self, delay: Duration) -> TimerId;

    /// Best-effort cancellation of a pending timer. Drivers that cannot
    /// unschedule (the simulator) may still deliver the fire; nodes must
    /// treat an unknown id as a no-op.
    fn cancel_timer(&mut self, timer: TimerId);
}

/// [`NodeCtx`] implementation over the discrete-event simulator's
/// [`ProcessCtx`] — the original driver, now one of two.
///
/// Holds a clone of the mechanism (mechanisms are cheap, usually
/// zero-sized) and the configured header overhead so [`NodeCtx::send`]
/// can size messages without borrowing the node.
#[derive(Debug)]
pub struct SimCtx<'c, 'a, M: Mechanism<StampedValue>> {
    inner: &'c mut ProcessCtx<'a, Msg<M>>,
    mech: M,
    header_bytes: usize,
}

impl<'c, 'a, M: Mechanism<StampedValue>> SimCtx<'c, 'a, M> {
    /// Wraps a simulator process context.
    pub fn new(inner: &'c mut ProcessCtx<'a, Msg<M>>, mech: M, header_bytes: usize) -> Self {
        SimCtx {
            inner,
            mech,
            header_bytes,
        }
    }
}

impl<M: Mechanism<StampedValue>> NodeCtx<M> for SimCtx<'_, '_, M> {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn rng(&mut self) -> &mut SimRng {
        self.inner.rng()
    }

    fn send(&mut self, to: NodeId, msg: Msg<M>) -> usize {
        let bytes = msg.wire_size(&self.mech) + self.header_bytes;
        self.inner.send(to, msg, bytes);
        bytes
    }

    fn set_timer(&mut self, delay: Duration) -> TimerId {
        self.inner.set_timer(delay)
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
    use crate::messages::MsgClass;
    use dvv::mechanisms::DvvMechanism;
    use simnet::{NetworkConfig, Process, Simulation};

    /// A minimal process proving the adapter charges exactly
    /// `wire_size + header_bytes` — the single-source-of-truth property.
    struct Probe {
        header_bytes: usize,
        sent_bytes: Vec<usize>,
    }

    impl Process for Probe {
        type Msg = Msg<DvvMechanism>;

        fn on_start(&mut self, ctx: &mut ProcessCtx<'_, Self::Msg>) {
            let mut c = SimCtx::new(ctx, DvvMechanism, self.header_bytes);
            if c.id() != NodeId(0) {
                return;
            }
            let msg = Msg::GossipDigest { digest: 42 };
            assert_eq!(msg.class(), MsgClass::Membership);
            let expect = msg.wire_size(&DvvMechanism) + self.header_bytes;
            let charged = c.send(NodeId(1), msg);
            assert_eq!(charged, expect);
            self.sent_bytes.push(charged);
        }

        fn on_message(&mut self, _: &mut ProcessCtx<'_, Self::Msg>, _: NodeId, _: Self::Msg) {}
    }

    #[test]
    fn sim_ctx_derives_bytes_from_wire_size() {
        let mut sim = Simulation::new(
            1,
            NetworkConfig::default(),
            vec![
                Probe {
                    header_bytes: 16,
                    sent_bytes: vec![],
                },
                Probe {
                    header_bytes: 16,
                    sent_bytes: vec![],
                },
            ],
        );
        sim.run_to_quiescence();
        let charged = sim.process(0).sent_bytes[0];
        assert!(charged > 16, "payload sized, not just header");
        // the network observed the same byte count the sender was charged
        assert_eq!(sim.network().stats().bytes_delivered, charged as u64);
    }
}
