//! [`Ctx`]: what a node sees of its driver — the one context every
//! driver hands it.
//!
//! [`StoreNode`](crate::node::StoreNode) and
//! [`ClientNode`](crate::client::ClientNode) take a [`Ctx`], which *is*
//! [`simnet::ProcessCtx`] over this crate's message and timer types, so
//! the same protocol logic runs on every driver because every driver
//! hosts it in the same [`simnet::Host`]:
//!
//! * the deterministic discrete-event simulator — one host holding every
//!   node on a virtual clock — with [`Cluster`](crate::cluster::Cluster)
//!   the oracle-checked harness over it;
//! * the threaded fleet (the `runtime` crate), one host per worker
//!   thread on the wall clock, over in-process channels or, in
//!   `transport`, TCP sockets.
//!
//! The context's contract (time, RNG, sends, exact timers) is
//! [`simnet::ProcessCtx`]'s. A timer is named by what it is for, a
//! [`Timer`]: the node arms one, may cancel it, and is handed it back
//! when it fires. Both drivers queue timers on the host's
//! [`simnet::TimerWheel`], so cancellation is exact on every driver: a
//! cancelled timer never fires.
//!
//! What a message costs is **not** decided here. The node's one send
//! door ([`Msg::charge`]: [`Msg::wire_size`] plus the configured
//! per-message header) sizes the message, records it in the node's
//! per-class ledger and hands the same number to
//! [`ProcessCtx::send`](simnet::ProcessCtx::send), so no context carries
//! a mechanism or a header size and the accounting audited by the
//! wire-parity suite cannot drift per driver.

use simnet::ProcessCtx;

use crate::messages::{Msg, ReqId};

/// The context a store or client node handles an event through, on
/// every driver.
pub type Ctx<'a, M> = ProcessCtx<'a, Msg<M>, Timer>;

/// What a pending timer is for. A node has at most one pending timer of
/// each value: it arms one only when none is pending.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Timer {
    /// A request's timeout: the coordinator's for a request it
    /// coordinates, the client's for the one it has in flight.
    Request(ReqId),
    /// A server's next anti-entropy round.
    AntiEntropy,
    /// A server's next gossip digest.
    Gossip,
    /// A server's next push of what it owes.
    Push,
    /// A client's pause before its next cycle.
    Think,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{NodeKit, StoreProc};
    use crate::config::{ClientConfig, StoreConfig};
    use dvv::mechanisms::DvvMechanism;
    use simnet::{
        Duration, LinkConfig, LinkFaults, NetworkConfig, NodeId, Process, Simulation, TraceEvent,
    };

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
        type Timer = Timer;

        fn on_start(&mut self, ctx: &mut ProcessCtx<'_, Self::Msg, Timer>) {
            self.node.on_start(ctx);
        }

        fn on_message(
            &mut self,
            ctx: &mut ProcessCtx<'_, Self::Msg, Timer>,
            from: NodeId,
            msg: Self::Msg,
        ) {
            self.expect.push(msg.wire_size(&DvvMechanism) + HEADER);
            self.node.on_message(ctx, from, msg);
        }

        fn on_timer(&mut self, ctx: &mut ProcessCtx<'_, Self::Msg, Timer>, timer: Timer) {
            self.node.on_timer(ctx, timer);
        }
    }

    /// Runs two servers and a client of `cycles` cycles on the bare
    /// simulator under `faults` and checks, message by message, that
    /// the bytes the network delivered to each node are what that
    /// message's size and the header come to, and that the network
    /// counted every byte the nodes charged as sent. Returns what the
    /// nodes charged themselves and what the deliveries add up to.
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
        for (i, p) in sim.processes().iter().flatten().enumerate() {
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
        let expected: usize = sim
            .processes()
            .iter()
            .flatten()
            .flat_map(|p| &p.expect)
            .sum();
        assert!(expected > 12 * HEADER, "payloads sized, not just headers");
        let stats = sim.network().stats();
        assert_eq!(stats.bytes_delivered, expected as u64);
        assert_eq!(
            charged,
            stats.bytes_sent + stats.self_bytes,
            "every send counted"
        );
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
