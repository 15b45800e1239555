//! The [`Link`] seam: where a hosted node's sends go and where its
//! inbox comes from.
//!
//! The threaded fleet ([`crate::fleet`]) owns everything about hosting
//! a node — the event loop, agenda, run schedule, fault plane, settle
//! probe, stall check — and is generic over this one trait for the part
//! that differs between drivers: how an addressed message travels from
//! one worker thread to another. Every link ends the same way: a
//! [`Packet`] — the one inbox item — [`deliver`]ed into the destination
//! worker's bounded inbox. [`ChannelLink`] does just that with the `Msg`
//! value itself; the socket driver's link (`transport::FabricLink`)
//! encodes and frames it into the sending worker's outbox for that
//! destination and writes the outbox — on that worker's own thread, one
//! write per destination when it next goes to [`Link::wait`] — to a TCP
//! connection, and the destination worker, waiting on its own sockets
//! in [`Link::wait`], decodes it and delivers it. A test
//! can substitute a scripted link and drive the loop message by
//! message.
//!
//! Self-sends never reach [`Link::send`]: the worker's host delivers
//! them itself, as entries of its agenda, and counts them in its
//! network's stats (`self_sent`, `self_bytes`), with everything else its
//! nodes sent. A link's ledger is of what it was handed; the fleet's
//! [`network_report`](crate::Fleet::network_report) is of what was sent.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use dvv::mechanisms::Mechanism;
use kvstore::messages::Msg;
use kvstore::value::StampedValue;
use simnet::NodeId;

use crate::watchdog::Progress;

/// An addressed message in flight between nodes.
#[derive(Debug)]
pub struct Packet<M: Mechanism<StampedValue>> {
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// The message.
    pub msg: Msg<M>,
}

/// What a fleet run hands its link at [`Link::open`].
#[derive(Debug)]
pub struct Wiring<M: Mechanism<StampedValue>> {
    /// `inboxes[i]` feeds the worker hosting node `i` (bounded; nodes
    /// of one worker share a channel, and the packet's `to` tells them
    /// apart).
    pub inboxes: Vec<SyncSender<Packet<M>>>,
    /// The run's progress counters; whoever enqueues into `inboxes[i]`
    /// also increments `inbox_depth[i]` (see [`deliver`]).
    pub progress: Arc<Progress>,
    /// Set once by the fleet when the run is over.
    pub shutdown: Arc<AtomicBool>,
}

/// The transport between worker threads of one fleet run.
///
/// A link is a cheap handle: the fleet opens one, keeps it for the main
/// loop ([`wake`](Link::wake), [`close`](Link::close)) and gives every
/// worker a handle of its own ([`worker`](Link::worker); a clone by
/// default) to [`send`](Link::send), [`wait`](Link::wait) and
/// [`cut`](Link::cut) on, so no state is shared between threads that
/// the link does not choose to share. It is a generic parameter of the
/// fleet, so each of these is a direct call.
pub trait Link<M: Mechanism<StampedValue>>: Clone + Send + 'static {
    /// What the fleet keeps from construction until `open`.
    type Spec;
    /// The link's own accounting of a run.
    type Ledger;

    /// How long a worker that has run out of work polls its link
    /// before it parks, so that a packet close behind the last one does
    /// not have to wake a halted vCPU (what that costs, the loop and
    /// its gate are in [`crate::fleet`]'s docs).
    ///
    /// This is a property of the transport, not an option: nothing sets
    /// it but the link's own `impl`. Each look of the poll is a
    /// [`wait`](Link::wait) with a zero timeout, so a link that receives
    /// on the worker's thread is looked at where its packets come from,
    /// not only at the inbox. Zero, the default, is the plain
    /// [`wait`](Link::wait) and is right unless the link has *measured*,
    /// on paired benchmark runs, that (a) a reply can be back within the
    /// window — nothing but the kernel between a peer's
    /// [`send`](Link::send) and the worker's next look — and (b) no
    /// workload of the link pays for the polling. [`ChannelLink`] meets
    /// both at 50 µs (`threaded_rmw` 36.0 k → 172.7 k ops/s and
    /// `durable_rmw` 27.4 k → 49.6 k, each in 10 of 10 pairs). The socket
    /// link meets them at 50 µs too, a look being one zero-timeout
    /// `epoll` round over the worker's sockets, with every client session
    /// on one worker as on `threaded_rmw`: `socket_rmw` 19.1 k → 23.6 k
    /// ops/s alone (9 of 10 pairs) and 18.4 k → 21.5 k beside the other
    /// workloads (10 of 10), CPU/op 84 → 81 µs; `socket_hot_mixed`, bound
    /// by think time, 3.50 k ops/s either way at 133 → 129 µs of CPU/op.
    /// It failed (a) while a reader thread stood between the kernel and
    /// the inbox (50 µs: `socket_rmw` 14.5 k → 12.2 k ops/s, 121 →
    /// 150 µs CPU/op) and while a look read the inbox alone, which on
    /// sockets only the worker's own wait fills. With a thread per client
    /// session, seven threads on two vCPUs, a prototype failed (b): ~5 %
    /// more `socket_rmw` ops/s for ~8 % more `socket_hot_mixed` CPU/op.
    const SPIN: StdDuration = StdDuration::ZERO;

    /// Opens the link at run start.
    fn open(spec: &Self::Spec, wiring: Wiring<M>) -> Self;

    /// Ships one message to another node, on the calling worker's
    /// thread. A link never waits on the destination *node*: a full
    /// inbox is wire loss, which the protocol's timeouts, retries and
    /// anti-entropy absorb — two workers sending to each other with
    /// full inboxes must both return. It may wait on the kernel (a full
    /// socket buffer) only while it keeps taking in what its own worker
    /// is sent: then two workers writing into each other's full buffers
    /// both get on.
    ///
    /// A link may hold what it is sent and ship it later in one go, but
    /// no later than that worker's next [`wait`](Link::wait): it must
    /// flush before it polls or blocks there, so what a worker sent is
    /// on its way by the time that worker looks for more work.
    fn send(&self, pkt: Packet<M>);

    /// The handle the worker hosting `hosts` sends and
    /// [`wait`](Link::wait)s on, made from the fleet's own handle before
    /// that worker starts. A link whose receiving needs state — a socket
    /// link's listeners, streams and wake socket — hands each worker its
    /// own here, so none of it is shared between threads. The default is
    /// a clone.
    fn worker(&mut self, _hosts: &[NodeId]) -> Self {
        self.clone()
    }

    /// The worker's wait for its next packet: at most `timeout`, from an
    /// `inbox` the worker has just found empty. A zero `timeout` is one
    /// look that waits for nothing — the loop's pull of what the link
    /// already holds ahead of a due timer, and each look of its idle
    /// poll. The default is the inbox's own `try_recv` for a zero
    /// `timeout` and its `recv_timeout` otherwise; a link that receives
    /// on the worker's thread does that here and delivers into `inbox`
    /// like any other sender.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when nothing came,
    /// [`RecvTimeoutError::Disconnected`] when nothing can.
    fn wait(
        &mut self,
        inbox: &Receiver<Packet<M>>,
        timeout: StdDuration,
    ) -> Result<Packet<M>, RecvTimeoutError> {
        if !timeout.is_zero() {
            return inbox.recv_timeout(timeout);
        }
        inbox.try_recv().map_err(|e| match e {
            TryRecvError::Empty => RecvTimeoutError::Timeout,
            TryRecvError::Disconnected => RecvTimeoutError::Disconnected,
        })
    }

    /// Called on the fleet's own handle after it put a packet into `to`'s
    /// inbox from outside the worker hosting it — teardown's wake-up:
    /// makes sure that worker looks.
    /// The default does nothing; a worker waiting on the inbox itself
    /// is woken by the channel.
    fn wake(&self, _to: NodeId) {}

    /// Severs every live connection touching `node`, on the handle of
    /// the worker hosting it, when a scenario's `CutConn` step is due.
    /// The default does nothing: a link without connections has nothing
    /// to cut.
    fn cut(&self, _node: NodeId) {}

    /// Tears the link down after every worker has exited (and dropped
    /// its handle) and returns the ledger of the whole run.
    fn close(self) -> Self::Ledger;
}

/// Enqueues `item` for node `to` and accounts its inbox depth. Returns
/// `false` when the inbox is full (or its worker gone): wire loss.
pub fn deliver<T>(inboxes: &[SyncSender<T>], progress: &Progress, to: NodeId, item: T) -> bool {
    let to = to.0 as usize;
    let ok = inboxes[to].try_send(item).is_ok();
    if ok {
        progress.inbox_depth[to].fetch_add(1, Ordering::Relaxed);
    }
    ok
}

/// The in-process link: the `Msg` value moves through the destination
/// worker's bounded `std::sync::mpsc` channel, nothing is serialised.
#[derive(Clone, Debug)]
pub struct ChannelLink<M: Mechanism<StampedValue>> {
    inboxes: Vec<SyncSender<Packet<M>>>,
    progress: Arc<Progress>,
    /// Shared by every clone, so `close` reports the whole run.
    inbox_drops: Arc<AtomicU64>,
}

/// [`ChannelLink`]'s ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages dropped because the destination inbox was full.
    pub inbox_drops: u64,
}

impl<M> Link<M> for ChannelLink<M>
where
    M: Mechanism<StampedValue> + Send + 'static,
{
    type Spec = ();
    type Ledger = ChannelStats;

    /// A peer's `send` is the delivery: a reply can be back in a few µs.
    const SPIN: StdDuration = StdDuration::from_micros(50);

    fn open(_spec: &(), wiring: Wiring<M>) -> Self {
        ChannelLink {
            inboxes: wiring.inboxes,
            progress: wiring.progress,
            inbox_drops: Arc::new(AtomicU64::new(0)),
        }
    }

    fn send(&self, pkt: Packet<M>) {
        if !deliver(&self.inboxes, &self.progress, pkt.to, pkt) {
            self.inbox_drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn close(self) -> ChannelStats {
        ChannelStats {
            inbox_drops: self.inbox_drops.load(Ordering::Relaxed),
        }
    }
}
