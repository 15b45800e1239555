//! [`SocketFleet`]: the kvstore protocol over real TCP sockets.
//!
//! The third driver — and not a second fleet: node hosting (event loop,
//! timers, self-sends, settle/quiesce, stall check, post-run
//! inspection) is [`runtime::Fleet`], the one threaded fleet. This
//! module supplies the part that differs, a [`Link`] backed by the
//! [`Fabric`]: every inter-node message is *actually serialised*
//! ([`Msg::encode_into`]), framed in place ([`crate::frame`]) into the
//! sending worker's outbox for its destination, and written to a
//! loopback TCP connection by that worker's own thread — each outbox in
//! one write when the worker goes to wait, so the send side has no
//! thread of its own and holds nothing past the worker's next poll —
//! and read back by the destination node's own worker: its idle wait is
//! an `epoll` on its listener and accepted connections, and it delivers
//! the decoded messages, as the same [`Packet`]s every link delivers,
//! into its own inbox. The receive side has no thread of its own either.
//! Self-sends are delivered by the worker's host (a node does not dial
//! itself), which counts them in its network's stats; the fleet's
//! [`network_report`](runtime::Fleet::network_report) sums those.
//! A [`Scenario`](simnet::Scenario)'s `CutConn` step is [`Link::cut`]
//! on the worker hosting its node: it severs that node's connections
//! both ways.
//!
//! [`Msg::encode_into`]: kvstore::messages::Msg::encode_into
//!
//! `StoreConfig::header_bytes` is forced to the frame codec's real
//! [`HEADER_BYTES`](crate::frame::HEADER_BYTES), so the per-class wire
//! ledgers charge exactly the bytes written to the sockets — the
//! accounting the paper's evaluation models is measured here, not
//! assumed. The conformance suite asserts to the byte that what the
//! nodes charged is what their hosts counted sent, the self-sends'
//! `self_bytes` included, and that the fabric was handed what was sent,
//! less the bytes the fault plane dropped or found unreachable, plus
//! those it duplicated or replayed — calm, hostile, or with no plane.
//!
//! The fleet runs the in-process fleet's own [`RuntimeConfig`], so the
//! two differ by their link alone. Layout matches the other drivers —
//! node ids `0..servers` are replica servers, `servers..servers +
//! clients` are closed-loop clients — with one worker thread per server
//! and the client sessions partitioned across `client_workers` threads
//! (one by default). The fault plane ([`RuntimeConfig::faults`]), the
//! scenario and the wedged workers of `hang_servers` sit above the
//! link, so each works here as it does in process: a copy the network
//! holds back or duplicates is decided before the link frames it.
//! Post-run, the fleet implements [`kvstore::harness::FleetHarness`],
//! so the same `audit_fleet` stack that gates the other drivers gates
//! this one.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use dvv::mechanisms::WireMechanism;
use dvv::ReplicaId;
use kvstore::client::ClientNode;
use kvstore::harness::FleetHarness;
use kvstore::node::StoreNode;
use kvstore::value::StampedValue;
use ring::RingView;
use runtime::{Fleet, Link, Packet, RuntimeConfig, Wiring};
use simnet::{NodeId, SimRng};

use crate::fabric::{Fabric, FabricStats, Inlet, Poller};
use crate::frame;

/// What an outbox holds before a send writes it out at once rather
/// than at the worker's next wait: a burst between two waits goes out
/// in writes about this big.
const OUTBOX_FLUSH_BYTES: usize = 64 << 10;

/// A [`SocketFleet`]'s configuration: the threaded fleet's own.
///
/// Kept only because the benchmark (`perfbench/src/shapes.rs`) names
/// it; it goes when that code does.
pub type SocketConfig = RuntimeConfig;

/// The secret a [`SocketFleet`]'s nodes key the hello challenge with
/// (see [`crate::fabric::hello_body`]): every node of one fleet agrees
/// on it, and a dialer with another one is rejected at the handshake.
const CLUSTER_SECRET: u64 = 0xd077_edc1_0057_e2ab;

/// What a [`FabricLink`] is opened from: the mechanism whose codec the
/// frames use, the RNG stream seeding the links' backoff jitter, and
/// the fleet's cluster secret.
#[derive(Debug)]
pub struct FabricSpec<M> {
    mech: M,
    rng: SimRng,
    cluster_secret: u64,
}

impl<M> FabricSpec<M> {
    /// The spec a fleet of `seed` opens its link from; `cluster_secret`
    /// keys the hello challenge every inbound connection must answer.
    pub fn new(seed: u64, mech: M, cluster_secret: u64) -> Self {
        FabricSpec {
            mech,
            rng: SimRng::new(seed).fork("socknet").fork("fabric"),
            cluster_secret,
        }
    }
}

/// The socket [`Link`]: messages leave through the [`Fabric`]'s framed
/// TCP connections, and each worker receives its own nodes' frames
/// itself. [`worker`](Link::worker) hands the worker a poller over its
/// nodes' listeners, accepted streams and wake sockets, and the worker's
/// idle arm ([`wait`](Link::wait)) is an `epoll` wait on them: a frame
/// goes from the kernel to the worker that handles it with no thread in
/// between, and opening the link spawns none. A clone sends but
/// receives nothing: the receive state is one worker's alone.
///
/// A [`send`](Link::send) frames the message in place into the handle's
/// outbox for its `(from, to)` link, and [`flush`](Self::flush) writes
/// each non-empty outbox in one write: at the top of every
/// [`wait`](Link::wait) — each poll and each block of the worker — from
/// inside a send once an outbox holds 64 KiB, and when the handle is
/// dropped. So a destination gets one `write(2)` per worker pass, not
/// one per message. A handle driven by hand that sends but never waits
/// calls [`flush`](Self::flush) itself.
///
/// Its idle poll ([`Link::SPIN`], 50 µs) is that same
/// [`wait`](Link::wait) at a zero timeout: each look flushes the
/// outboxes, runs one zero-timeout `epoll` round over the worker's
/// sockets and reads the inbox, so a frame the kernel already holds
/// ends the poll (the numbers are at [`Link::SPIN`]).
#[derive(Debug)]
pub struct FabricLink<M: WireMechanism<StampedValue>> {
    fabric: Arc<Fabric<M>>,
    /// On the fleet's own handle, node `i`'s way in until the worker
    /// hosting it claims it.
    unclaimed: Vec<Option<Inlet>>,
    /// On a worker's handle, its nodes' receive state: polled by the
    /// idle arm, and by a write that waits for socket room.
    poller: RefCell<Option<Poller>>,
    /// What this handle was sent since its last flush, one outbox per
    /// `(from, to)` it has sent on; kept, emptied, between flushes.
    outboxes: RefCell<Vec<Outbox>>,
}

/// The frames one handle holds for one `from → to` link: whole frames
/// back to back, written in one go.
#[derive(Debug)]
struct Outbox {
    from: usize,
    to: usize,
    framed: Vec<u8>,
    frames: u64,
}

impl<M: WireMechanism<StampedValue>> FabricLink<M> {
    /// The fabric under the link: its listen addresses and its ledger.
    pub fn fabric(&self) -> &Fabric<M> {
        &self.fabric
    }

    /// Hands every non-empty outbox to the fabric, each as one write of
    /// all its frames, in the order they were sent.
    pub fn flush(&self) {
        let mut poller = self.poller.borrow_mut();
        for outbox in self.outboxes.borrow_mut().iter_mut() {
            if outbox.frames > 0 {
                self.write_out(outbox, poller.as_mut());
            }
        }
    }

    fn write_out(&self, outbox: &mut Outbox, poller: Option<&mut Poller>) {
        let Outbox { from, to, .. } = *outbox;
        self.fabric
            .send(from, to, &outbox.framed, outbox.frames, poller);
        outbox.framed.clear();
        outbox.frames = 0;
    }
}

impl<M: WireMechanism<StampedValue>> Clone for FabricLink<M> {
    fn clone(&self) -> Self {
        FabricLink {
            fabric: Arc::clone(&self.fabric),
            unclaimed: Vec::new(),
            poller: RefCell::new(None),
            outboxes: RefCell::new(Vec::new()),
        }
    }
}

/// What the handle still holds goes to the fabric, which writes it — or,
/// once the run is shutting down, counts it `dropped` — so every frame
/// is in the ledger when the link closes and the charge identity holds.
/// Not while a panic unwinds the worker: a second panic there (a lock
/// the first one poisoned) would abort the process.
impl<M: WireMechanism<StampedValue>> Drop for FabricLink<M> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.flush();
        }
    }
}

impl<M> Link<M> for FabricLink<M>
where
    M: WireMechanism<StampedValue> + Send + Sync + 'static,
{
    type Spec = FabricSpec<M>;
    type Ledger = FabricStats;

    /// Only the kernel is between a peer's send and the worker's next
    /// look: a reply can be back within the window.
    const SPIN: StdDuration = StdDuration::from_micros(50);

    /// Binds one loopback listener and one wake socket per node.
    fn open(spec: &FabricSpec<M>, wiring: Wiring<M>) -> Self {
        let (fabric, inlets) = Fabric::bind(
            spec.mech.clone(),
            wiring,
            spec.rng.clone(),
            frame::DEFAULT_MAX_FRAME,
            spec.cluster_secret,
        )
        .expect("bind loopback listeners");
        FabricLink {
            fabric,
            unclaimed: inlets.into_iter().map(Some).collect(),
            poller: RefCell::new(None),
            outboxes: RefCell::new(Vec::new()),
        }
    }

    /// Hands the worker one poller over its nodes' inlets.
    fn worker(&mut self, hosts: &[NodeId]) -> Self {
        let inlets = hosts
            .iter()
            .filter_map(|n| self.unclaimed[n.0 as usize].take())
            .collect();
        let worker = self.clone();
        *worker.poller.borrow_mut() = Some(Poller::new(inlets).expect("create an epoll set"));
        worker
    }

    /// Frames the message into the outbox for its link; writes that
    /// outbox out at once if it has reached 64 KiB.
    fn send(&self, pkt: Packet<M>) {
        let (from, to) = (pkt.from.0 as usize, pkt.to.0 as usize);
        let mut outboxes = self.outboxes.borrow_mut();
        let at = outboxes
            .iter()
            .position(|o| (o.from, o.to) == (from, to))
            .unwrap_or_else(|| {
                outboxes.push(Outbox {
                    from,
                    to,
                    framed: Vec::new(),
                    frames: 0,
                });
                outboxes.len() - 1
            });
        let outbox = &mut outboxes[at];
        frame::append_frame(&mut outbox.framed, |buf| pkt.msg.encode_into(buf));
        outbox.frames += 1;
        if outbox.framed.len() >= OUTBOX_FLUSH_BYTES {
            self.write_out(outbox, self.poller.borrow_mut().as_mut());
        }
    }

    /// Flushes the outboxes, then polls the worker's sockets into its
    /// inbox until a packet is there or `timeout` has passed (a zero
    /// `timeout` still polls once).
    fn wait(
        &mut self,
        inbox: &Receiver<Packet<M>>,
        timeout: StdDuration,
    ) -> Result<Packet<M>, RecvTimeoutError> {
        self.flush();
        let Some(poller) = self.poller.get_mut() else {
            return inbox.recv_timeout(timeout);
        };
        let deadline = Instant::now() + timeout;
        let mut polled = false;
        loop {
            match inbox.try_recv() {
                Ok(pkt) => return Ok(pkt),
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {}
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if polled && left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            poller.round(&self.fabric, Some(left), None);
            polled = true;
        }
    }

    /// Writes the wake socket of the worker hosting `to`.
    fn wake(&self, to: NodeId) {
        self.fabric.wake(to.0 as usize);
    }

    /// Severs every live connection touching `node`, both directions.
    fn cut(&self, node: NodeId) {
        self.fabric.kill_node_connections(node.0 as usize);
    }

    fn close(self) -> FabricStats {
        self.fabric.stop();
        self.fabric.stats()
    }
}

/// The socket-transport fleet: a [`runtime::Fleet`] over a
/// [`FabricLink`]. Build with [`SocketFleet::new`]; `run`, `stats`,
/// `server`, `client` and the rest of the fleet surface come through
/// `Deref`; audit through [`kvstore::harness::FleetHarness`] like any
/// other driver.
#[derive(Debug)]
pub struct SocketFleet<M: WireMechanism<StampedValue> + Send + Sync + 'static>(
    Fleet<M, FabricLink<M>>,
);

impl<M> SocketFleet<M>
where
    M: WireMechanism<StampedValue> + Send + Sync + 'static,
{
    /// Builds a fleet. Protocol randomness derives from `seed` through
    /// the same `fork_indexed("node", i)` scheme the other drivers use;
    /// `store.header_bytes` is replaced with the frame codec's real
    /// header size so the wire ledgers account actual socket bytes.
    pub fn new(seed: u64, mech: M, mut config: RuntimeConfig) -> Self {
        config.store.header_bytes = frame::HEADER_BYTES;
        let spec = FabricSpec::new(seed, mech.clone(), CLUSTER_SECRET);
        SocketFleet(Fleet::with_link(seed, mech, config, None, spec))
    }

    /// The fabric's byte/frame ledger from the last completed run.
    ///
    /// # Panics
    ///
    /// Panics if the fleet has not run yet.
    pub fn fabric_report(&self) -> FabricStats {
        *self.0.link_ledger().expect("fabric report requires a run")
    }
}

impl<M> Deref for SocketFleet<M>
where
    M: WireMechanism<StampedValue> + Send + Sync + 'static,
{
    type Target = Fleet<M, FabricLink<M>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<M> DerefMut for SocketFleet<M>
where
    M: WireMechanism<StampedValue> + Send + Sync + 'static,
{
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

/// Delegates to the inner fleet's implementation.
impl<M> FleetHarness<M> for SocketFleet<M>
where
    M: WireMechanism<StampedValue> + Send + Sync + 'static,
{
    fn mechanism(&self) -> &M {
        self.0.mechanism()
    }

    fn member_servers(&self) -> Vec<usize> {
        self.0.member_servers()
    }

    fn client_count(&self) -> usize {
        self.0.client_count()
    }

    fn server_ref(&self, i: usize) -> &StoreNode<M> {
        self.0.server(i)
    }

    fn server_mut_ref(&mut self, i: usize) -> &mut StoreNode<M> {
        self.0.server_mut(i)
    }

    fn client_ref(&self, j: usize) -> &ClientNode<M> {
        self.0.client(j)
    }

    fn audit_view(&self) -> &RingView<ReplicaId> {
        self.0.audit_view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvv::mechanisms::DvvMechanism;
    use kvstore::messages::Msg;
    use runtime::Progress;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::sync_channel;
    use std::thread;

    type M = DvvMechanism;

    const WAIT: StdDuration = StdDuration::from_secs(10);

    /// A link over `nodes` nodes opened outside a fleet — the test plays
    /// the workers — with its inboxes and its shutdown flag.
    fn open(nodes: usize) -> (FabricLink<M>, Vec<Receiver<Packet<M>>>, Arc<AtomicBool>) {
        let shutdown = Arc::new(AtomicBool::new(false));
        let (inboxes, receivers) = (0..nodes).map(|_| sync_channel(1024)).unzip();
        let link = FabricLink::open(
            &FabricSpec::new(11, DvvMechanism, CLUSTER_SECRET),
            Wiring {
                inboxes,
                progress: Arc::new(Progress::new(nodes)),
                shutdown: Arc::clone(&shutdown),
            },
        );
        (link, receivers, shutdown)
    }

    fn ack(from: u32, to: u32, req: u64) -> Packet<M> {
        Packet {
            from: NodeId(from),
            to: NodeId(to),
            msg: Msg::RepPutAck { req },
        }
    }

    /// What `count` packets from `worker`'s inbox carry, in arrival order.
    fn receive(worker: &mut FabricLink<M>, inbox: &Receiver<Packet<M>>, count: usize) -> Vec<u64> {
        (0..count)
            .map(|_| match worker.wait(inbox, WAIT).expect("a frame").msg {
                Msg::RepPutAck { req } => req,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    /// Sends wait in the outbox for the flush, which writes each
    /// destination's frames in one write, in send order.
    #[test]
    fn a_flush_is_one_write_per_destination() {
        let (mut link, receivers, _shutdown) = open(3);
        let sender = link.worker(&[NodeId(0)]);
        let mut one = link.worker(&[NodeId(1)]);
        let mut two = link.worker(&[NodeId(2)]);
        for (to, req) in [(1, 10), (2, 20), (1, 11), (1, 12), (2, 21)] {
            sender.send(ack(0, to, req));
        }
        assert_eq!(link.fabric().stats(), FabricStats::default(), "sent early");

        sender.flush();
        assert_eq!(receive(&mut one, &receivers[1], 3), [10, 11, 12]);
        assert_eq!(receive(&mut two, &receivers[2], 2), [20, 21]);
        let s = link.fabric().stats();
        assert_eq!((s.written_frames, s.writes), (5, 2), "{s:#?}");
        assert_eq!(s.enqueued_frames, s.written_frames, "{s:#?}");
    }

    /// Frames still in an outbox when its handle drops at shutdown are
    /// counted `dropped`, to the byte, so the charge identity balances.
    #[test]
    fn frames_left_at_teardown_are_counted_dropped() {
        let (mut link, _receivers, shutdown) = open(2);
        let sender = link.worker(&[NodeId(0)]);
        let mut charged = 0;
        for req in 0..4 {
            let pkt = ack(0, 1, req);
            charged += pkt.msg.wire_size(&DvvMechanism) + frame::HEADER_BYTES;
            sender.send(pkt);
        }
        shutdown.store(true, Ordering::Relaxed);
        drop(sender);
        let s = link.fabric().stats();
        let want = FabricStats {
            dropped_frames: 4,
            dropped_bytes: charged as u64,
            ..FabricStats::default()
        };
        assert_eq!(s, want);
    }

    /// A burst between two waits is written from inside the sends, in
    /// pieces of about 64 KiB: an outbox never holds much more.
    #[test]
    fn a_burst_is_written_before_any_wait() {
        let (mut link, mut receivers, _shutdown) = open(2);
        let sender = link.worker(&[NodeId(0)]);
        let mut reader = link.worker(&[NodeId(1)]);
        let inbox = receivers.pop().expect("node 1's inbox");
        const SENT: u64 = 200;
        let bulky = |req| Packet {
            from: NodeId(0),
            to: NodeId(1),
            msg: Msg::<M>::ClientGet {
                req,
                key: vec![0x5A; 2 << 10],
                digest: 0,
            },
        };
        let frame = bulky(0).msg.wire_size(&DvvMechanism) + frame::HEADER_BYTES;
        thread::scope(|scope| {
            // The far end reads as a fleet worker would, so no write
            // waits for room.
            scope.spawn(move || {
                for _ in 0..SENT {
                    reader.wait(&inbox, WAIT).expect("a frame");
                }
            });
            for req in 0..SENT {
                sender.send(bulky(req));
                let held = sender.outboxes.borrow()[0].framed.len();
                assert!(held < OUTBOX_FLUSH_BYTES, "outbox holds {held} B");
            }
            let s = link.fabric().stats();
            let flushed = SENT as usize * frame / OUTBOX_FLUSH_BYTES;
            assert!(s.writes as usize >= flushed, "{s:#?}");
            assert!(s.written_frames / s.writes <= (OUTBOX_FLUSH_BYTES / frame + 1) as u64);
            sender.flush();
        });
        let s = link.fabric().stats();
        assert_eq!(s.written_frames, SENT, "{s:#?}");
    }
}
