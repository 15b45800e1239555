//! [`SocketFleet`]: the kvstore protocol over real TCP sockets.
//!
//! The third driver — and not a second fleet: node hosting (event loop,
//! timers, self-sends, settle/quiesce, stall check, post-run
//! inspection) is [`runtime::Fleet`], the one threaded fleet. This
//! module supplies the part that differs, a [`Link`] backed by the
//! [`Fabric`]: every inter-node message is *actually serialised*
//! ([`Msg::encode_transport`]), framed ([`crate::frame`]) and written
//! to a loopback TCP connection by the node's own worker thread — the
//! send side has no thread or queue of its own — and read back by the
//! destination node's own worker: its idle wait is an `epoll` on its
//! listener and accepted connections, and it delivers the decoded
//! messages, as the same [`Packet`]s every link delivers, into its own
//! inbox. The receive side has no thread of its own either.
//! Self-sends are delivered by the worker's host (a node does not dial
//! itself); the bytes their node charged for them are only noted in the
//! fabric's ledger, so its identity with the nodes' ledgers still holds.
//!
//! [`Msg::encode_transport`]: kvstore::messages::Msg::encode_transport
//!
//! `StoreConfig::header_bytes` is forced to the frame codec's real
//! [`HEADER_BYTES`](crate::frame::HEADER_BYTES), so the per-class wire
//! ledgers charge exactly the bytes written to the sockets — the
//! accounting the paper's evaluation models is measured here, not
//! assumed. The conformance suite asserts the identity to the byte.
//!
//! Layout matches the other drivers — node ids `0..servers` are replica
//! servers, `servers..servers + clients` are closed-loop clients — with
//! one worker thread per node (a configuration choice: an inbox item
//! names its destination, so nothing in the link requires it). Post-run,
//! the fleet implements [`kvstore::harness::FleetHarness`], so the same
//! `audit_fleet` stack that gates the other drivers gates this one.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use dvv::mechanisms::WireMechanism;
use dvv::ReplicaId;
use kvstore::client::ClientNode;
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::harness::FleetHarness;
use kvstore::node::StoreNode;
use kvstore::value::StampedValue;
use ring::RingView;
use runtime::{Fleet, Link, Packet, RuntimeConfig, Wiring};
use simnet::{NodeId, SimRng};

use crate::fabric::{Fabric, FabricStats, Inlet, Poller};
use crate::frame;

/// A scheduled connection fault: at `after` (wall clock from run
/// start), every live TCP connection touching `node` is severed. The
/// frames in flight are wire loss; each link redials on a later send
/// and anti-entropy repairs whatever the outage cost — the run must
/// still audit clean.
#[derive(Clone, Copy, Debug)]
pub struct ConnKill {
    /// Wall clock from run start to the cut.
    pub after: StdDuration,
    /// Node whose connections are severed (both directions).
    pub node: usize,
}

/// Complete configuration of a [`SocketFleet`] run.
#[derive(Clone, Debug)]
pub struct SocketConfig {
    /// Number of replica servers (one event-loop thread each).
    pub servers: usize,
    /// Number of closed-loop client sessions (one thread each).
    pub clients: usize,
    /// Read-modify-write cycles per client.
    pub cycles_per_client: u32,
    /// Store protocol parameters. `header_bytes` is overridden with the
    /// frame codec's real header size at build time.
    pub store: StoreConfig,
    /// Client session parameters (`cycles` overridden by
    /// `cycles_per_client`).
    pub client: ClientConfig,
    /// The run is declared stalled after this long without a client
    /// op completing.
    pub stall_budget: StdDuration,
    /// Hard wall-clock stop for the whole run.
    pub run_budget: StdDuration,
    /// Settling budget after the last client finishes (exits early once
    /// repairs sit still for [`settle_window`](Self::settle_window)).
    pub quiesce: StdDuration,
    /// How long the repair counters must sit still before the quiesce
    /// is settled.
    pub settle_window: StdDuration,
    /// Scheduled connection faults (see [`ConnKill`]).
    pub conn_kills: Vec<ConnKill>,
    /// Shared cluster secret keying the hello challenge every inbound
    /// connection must answer (see [`crate::fabric::hello_body`]). All
    /// nodes of one fleet must agree on it; a dialer with the wrong
    /// secret is terminally rejected at the handshake.
    pub cluster_secret: u64,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            servers: 3,
            clients: 8,
            cycles_per_client: 20,
            store: StoreConfig::default(),
            client: ClientConfig::default(),
            stall_budget: StdDuration::from_secs(10),
            run_budget: StdDuration::from_secs(120),
            quiesce: StdDuration::from_millis(500),
            settle_window: StdDuration::from_millis(400),
            conn_kills: Vec::new(),
            cluster_secret: 0xd077_edc1_0057_e2ab, // any agreed-upon value
        }
    }
}

/// What a [`FabricLink`] is opened from: the mechanism whose codec the
/// frames use, the RNG stream seeding the links' backoff jitter, and
/// the fleet's configuration (for the cluster secret and the
/// connection-kill schedule).
#[derive(Debug)]
pub struct FabricSpec<M> {
    mech: M,
    rng: SimRng,
    config: SocketConfig,
}

impl<M> FabricSpec<M> {
    /// The spec a [`SocketFleet`] of `seed` opens its link from.
    pub fn new(seed: u64, mech: M, config: SocketConfig) -> Self {
        FabricSpec {
            mech,
            rng: SimRng::new(seed).fork("socknet").fork("fabric"),
            config,
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
/// It leaves [`Link::SPIN`] at zero (why, and the numbers, are at
/// [`Link::SPIN`]).
#[derive(Debug)]
pub struct FabricLink<M: WireMechanism<StampedValue>> {
    mech: M,
    fabric: Arc<Fabric<M>>,
    /// The kill schedule still to fire (used on the fleet's own handle).
    conn_kills: Vec<ConnKill>,
    /// On the fleet's own handle, node `i`'s way in until the worker
    /// hosting it claims it.
    unclaimed: Vec<Option<Inlet>>,
    /// On a worker's handle, its nodes' receive state: polled by the
    /// idle arm, and by a send that waits for socket room.
    poller: RefCell<Option<Poller>>,
}

impl<M: WireMechanism<StampedValue>> FabricLink<M> {
    /// The fabric under the link: its listen addresses and its ledger.
    pub fn fabric(&self) -> &Fabric<M> {
        &self.fabric
    }
}

impl<M: WireMechanism<StampedValue>> Clone for FabricLink<M> {
    fn clone(&self) -> Self {
        FabricLink {
            mech: self.mech.clone(),
            fabric: Arc::clone(&self.fabric),
            conn_kills: self.conn_kills.clone(),
            unclaimed: Vec::new(),
            poller: RefCell::new(None),
        }
    }
}

impl<M> Link<M> for FabricLink<M>
where
    M: WireMechanism<StampedValue> + Send + Sync + 'static,
{
    type Spec = FabricSpec<M>;
    type Ledger = FabricStats;

    /// Binds one loopback listener and one wake socket per node.
    fn open(spec: &FabricSpec<M>, wiring: Wiring<M>) -> Self {
        let (fabric, inlets) = Fabric::bind(
            spec.mech.clone(),
            wiring,
            spec.rng.clone(),
            frame::DEFAULT_MAX_FRAME,
            spec.config.cluster_secret,
        )
        .expect("bind loopback listeners");
        FabricLink {
            mech: spec.mech.clone(),
            fabric,
            conn_kills: spec.config.conn_kills.clone(),
            unclaimed: inlets.into_iter().map(Some).collect(),
            poller: RefCell::new(None),
        }
    }

    /// Hands the worker one poller over its nodes' inlets.
    fn worker(&mut self, hosts: &[NodeId]) -> Self {
        let inlets = hosts
            .iter()
            .filter_map(|n| self.unclaimed[n.0 as usize].take())
            .collect();
        let poller = Poller::new(inlets).expect("create an epoll set");
        FabricLink {
            poller: RefCell::new(Some(poller)),
            ..self.clone()
        }
    }

    fn send(&self, pkt: Packet<M>) {
        let body = pkt.msg.encode_transport(&self.mech);
        self.fabric.send(
            pkt.from.0 as usize,
            pkt.to.0 as usize,
            &body,
            self.poller.borrow_mut().as_mut(),
        );
    }

    /// Polls the worker's sockets into its inbox until a packet is there
    /// or `timeout` has passed (a zero `timeout` still polls once).
    fn wait(
        &mut self,
        inbox: &Receiver<Packet<M>>,
        timeout: StdDuration,
    ) -> Result<Packet<M>, RecvTimeoutError> {
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

    /// Self-traffic never touches a socket, but the bytes the node was
    /// charged for it still balance the fabric's ledger identity.
    fn note_self(&self, bytes: usize) {
        self.fabric.note_self(bytes);
    }

    /// Fires every due [`ConnKill`] exactly once.
    fn tick(&mut self, elapsed: StdDuration) -> bool {
        let fabric = &self.fabric;
        self.conn_kills.retain(|k| {
            let due = elapsed >= k.after;
            if due {
                fabric.kill_node_connections(k.node);
            }
            !due
        });
        self.conn_kills.is_empty()
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
    pub fn new(seed: u64, mech: M, config: SocketConfig) -> Self {
        for k in &config.conn_kills {
            assert!(
                k.node < config.servers + config.clients,
                "connection kill on unknown node {}",
                k.node
            );
        }
        let core = RuntimeConfig {
            servers: config.servers,
            clients: config.clients,
            // One worker per client session.
            client_workers: config.clients.max(1),
            cycles_per_client: config.cycles_per_client,
            store: StoreConfig {
                header_bytes: frame::HEADER_BYTES,
                ..config.store
            },
            client: config.client.clone(),
            faults: None,
            hang_servers: Vec::new(),
            stall_budget: config.stall_budget,
            run_budget: config.run_budget,
            quiesce: config.quiesce,
            settle_window: config.settle_window,
            crashes: Vec::new(),
        };
        let spec = FabricSpec::new(seed, mech.clone(), config);
        SocketFleet(Fleet::with_link(seed, mech, core, None, spec))
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
