//! [`Cluster`]: wires servers and clients into a simulation and provides
//! the measurement surface used by tests, examples and benchmarks.

use std::collections::BTreeSet;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use dvv::mechanisms::{Mechanism, WireMechanism};
use dvv::{ClientId, ReplicaId};
use ring::{MemberStatus, RingView};
use simnet::{Duration, NetworkConfig, NodeId, Process, Scenario, SimTime, Simulation, Step};
use storage::{LogConfig, LogEngine, MemEngine, StorageEngine};
use workloads::Histogram;

use crate::client::ClientNode;
use crate::config::{ClientConfig, StoreConfig};
use crate::ctx::{Ctx, Timer};
use crate::harness::FleetHarness;
use crate::messages::Msg;
use crate::node::StoreNode;
use crate::value::{StampedValue, WriteId};

/// A simulation process: either a replica server or a client session.
///
/// The variants differ in size but each node holds exactly one for the
/// whole run, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum StoreProc<M: Mechanism<StampedValue>> {
    /// Replica server.
    Server(StoreNode<M>),
    /// Client session.
    Client(ClientNode<M>),
}

impl<M: Mechanism<StampedValue>> StoreProc<M> {
    /// The replica server this process is.
    ///
    /// # Panics
    ///
    /// Panics if it is a client session.
    pub fn server(&self) -> &StoreNode<M> {
        match self {
            StoreProc::Server(s) => s,
            StoreProc::Client(_) => panic!("a client session, not a server"),
        }
    }

    /// Mutable access to the replica server this process is.
    ///
    /// # Panics
    ///
    /// Panics if it is a client session.
    pub fn server_mut(&mut self) -> &mut StoreNode<M> {
        match self {
            StoreProc::Server(s) => s,
            StoreProc::Client(_) => panic!("a client session, not a server"),
        }
    }

    /// The client session this process is.
    ///
    /// # Panics
    ///
    /// Panics if it is a replica server.
    pub fn client(&self) -> &ClientNode<M> {
        match self {
            StoreProc::Client(c) => c,
            StoreProc::Server(_) => panic!("a server, not a client session"),
        }
    }
}

/// The one Server/Client dispatch: every driver hosts a node as this
/// process.
impl<M: Mechanism<StampedValue>> Process for StoreProc<M> {
    type Msg = Msg<M>;
    type Timer = Timer;

    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        match self {
            StoreProc::Server(s) => s.on_start(ctx),
            StoreProc::Client(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: Msg<M>) {
        match self {
            StoreProc::Server(s) => s.on_message(ctx, from, msg),
            StoreProc::Client(c) => c.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, timer: Timer) {
        match self {
            StoreProc::Server(s) => s.on_timer(ctx, timer),
            StoreProc::Client(c) => c.on_timer(ctx, timer),
        }
    }
}

/// Builds the storage engine for a server slot — shared by initial
/// construction and crash recovery, so a restarted node re-opens
/// exactly the backend (and on-disk state) its predecessor wrote.
/// Cloneable and thread-safe: the threaded runtime hands it to worker
/// threads for in-thread respawn.
pub struct EngineFactory<M: Mechanism<StampedValue>> {
    #[allow(clippy::type_complexity)]
    build: Arc<dyn Fn(usize) -> Box<dyn StorageEngine<M::State>> + Send + Sync>,
}

impl<M: Mechanism<StampedValue>> Clone for EngineFactory<M> {
    fn clone(&self) -> Self {
        EngineFactory {
            build: Arc::clone(&self.build),
        }
    }
}

impl<M: Mechanism<StampedValue>> fmt::Debug for EngineFactory<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("EngineFactory(..)")
    }
}

impl<M: Mechanism<StampedValue>> EngineFactory<M> {
    /// Wraps an arbitrary engine builder.
    pub fn new(
        build: impl Fn(usize) -> Box<dyn StorageEngine<M::State>> + Send + Sync + 'static,
    ) -> Self {
        EngineFactory {
            build: Arc::new(build),
        }
    }

    /// The standard durable layout: one [`LogEngine`] per server slot at
    /// `dir/node-<slot>.log`. Opening replays whatever a previous
    /// incarnation durably synced there.
    ///
    /// # Panics
    ///
    /// The built closure panics if the log cannot be opened (harness
    /// context: an unopenable disk is a test-environment failure).
    pub fn log_in(dir: impl Into<PathBuf>, cfg: LogConfig) -> Self
    where
        M: WireMechanism<StampedValue>,
    {
        let dir = dir.into();
        Self::new(move |slot| {
            Box::new(
                LogEngine::open(dir.join(format!("node-{slot}.log")), cfg)
                    .expect("open log engine"),
            )
        })
    }

    /// Builds the engine for server slot `slot`.
    #[must_use]
    pub fn build(&self, slot: usize) -> Box<dyn StorageEngine<M::State>> {
        (self.build)(slot)
    }
}

/// Builds every node of one fleet — the only place outside tests that
/// constructs a [`StoreNode`] or a [`ClientNode`]. Holds what all of a
/// fleet's nodes share (mechanism, store configuration, the genesis ring
/// view servers boot with, and the per-slot storage engine builder), so
/// a driver keeps one kit instead of those four, and a crash-recovered
/// node is rebuilt from exactly what built its predecessor. Cloneable
/// and thread-safe: the threaded fleet hands a clone to a worker thread
/// for in-thread respawn.
#[derive(Clone, Debug)]
pub struct NodeKit<M: Mechanism<StampedValue>> {
    mech: M,
    store: StoreConfig,
    genesis_view: RingView<ReplicaId>,
    /// In-memory engines when the fleet was given no factory (a crashed
    /// node then restarts empty — the diskless baseline).
    engines: EngineFactory<M>,
}

impl<M: Mechanism<StampedValue>> NodeKit<M> {
    /// A kit for a fleet whose ring starts as server slots `0..servers`.
    ///
    /// # Panics
    ///
    /// Panics if `store` is invalid or replicates wider than `servers`.
    pub fn new(
        mech: M,
        store: StoreConfig,
        servers: usize,
        engines: Option<EngineFactory<M>>,
    ) -> Self {
        assert!(servers > 0, "need at least one server");
        store.validate();
        assert!(
            store.n <= servers,
            "replication factor exceeds server count"
        );
        NodeKit {
            mech,
            store,
            genesis_view: RingView::from_members((0..servers as u32).map(ReplicaId)),
            engines: engines.unwrap_or_else(|| EngineFactory::new(|_| Box::new(MemEngine::new()))),
        }
    }

    /// The fleet's causality mechanism.
    pub fn mech(&self) -> &M {
        &self.mech
    }

    /// The fleet's store configuration.
    pub fn store(&self) -> &StoreConfig {
        &self.store
    }

    /// The view servers boot with — what a crash-recovered node knows
    /// before the view that re-admits it catches it up.
    pub fn genesis_view(&self) -> &RingView<ReplicaId> {
        &self.genesis_view
    }

    /// A replica for `slot` on the slot's storage engine.
    fn replica(&self, slot: usize) -> StoreNode<M> {
        StoreNode::with_engine(
            ReplicaId(slot as u32),
            self.mech.clone(),
            self.store,
            self.genesis_view.clone(),
            self.engines.build(slot),
        )
    }

    /// The serving replica for `slot`, on the slot's storage engine: a
    /// log-backed engine replays its durable prefix on open, so this
    /// builds a member at genesis and a recovered one after a crash.
    pub fn server(&self, slot: usize) -> StoreProc<M> {
        StoreProc::Server(self.replica(slot))
    }

    /// A dormant spare for `slot` on the slot's storage engine — so a
    /// spare that later joins (and everything transferred to it)
    /// persists, and a crashed ex-spare recovers like any other member.
    pub fn spare(&self, slot: usize) -> StoreProc<M> {
        StoreProc::Server(self.replica(slot).dormant())
    }

    /// Client session `j`, hosted as node `node_index`, running
    /// `session` for `cycles` read-modify-write cycles.
    pub fn client(
        &self,
        j: usize,
        node_index: usize,
        session: &ClientConfig,
        cycles: u32,
    ) -> StoreProc<M> {
        let mut config = session.clone();
        config.cycles = cycles;
        StoreProc::Client(ClientNode::new(
            ClientId(j as u64),
            node_index as u32,
            self.mech.clone(),
            config,
            &self.store,
            self.genesis_view.clone(),
        ))
    }
}

/// Complete experiment configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of replica servers.
    pub servers: usize,
    /// Number of additional *dormant* server slots hosted by the
    /// simulation but outside the ring, available to
    /// [`Cluster::add_node_live`]. Spares occupy node ids
    /// `servers..servers + spare_servers`; clients come after them.
    pub spare_servers: usize,
    /// Number of client sessions.
    pub clients: usize,
    /// Read-modify-write cycles per client.
    pub cycles_per_client: u32,
    /// Store protocol parameters.
    pub store: StoreConfig,
    /// Client session parameters (its `cycles` field is overridden by
    /// `cycles_per_client`).
    pub client: ClientConfig,
    /// Network characteristics.
    pub network: NetworkConfig,
    /// The run schedule: each step lands as virtual time reaches its
    /// instant, after every event due at or before it. `Kill` and
    /// `Revive` are [`Cluster::crash_node`] and [`Cluster::restart_node`];
    /// `CutConn` does nothing, the simulator has no connections.
    /// [`Cluster::run`] returns once the clients are done, whatever steps
    /// are left; [`Cluster::run_for`] takes them.
    pub scenario: Scenario,
    /// Hard stop on virtual time (guards against misconfigured runs).
    pub deadline: Duration,
    /// How long a live membership change is supervised before it is
    /// declared unsettled.
    pub membership_settle_budget: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            servers: 3,
            spare_servers: 0,
            clients: 4,
            cycles_per_client: 20,
            store: StoreConfig::default(),
            client: ClientConfig::default(),
            network: NetworkConfig::default(),
            scenario: Scenario::default(),
            deadline: Duration::from_secs(600),
            membership_settle_budget: Duration::from_secs(30),
        }
    }
}

impl ClusterConfig {
    /// [`NetworkConfig::with_env_faults`] on this cluster's network
    /// (`NET_FAULTS=hostile`). The churn suites apply this so the faults
    /// and soak lanes can re-run them under a hostile network without a
    /// code change.
    #[must_use]
    pub fn with_env_net_faults(mut self) -> Self {
        self.network = self.network.with_env_faults();
        self
    }
}

/// Aggregated client latency statistics.
#[derive(Clone, Debug, Default)]
pub struct LatencyReport {
    /// All GET latencies (µs).
    pub get: Histogram,
    /// All PUT latencies (µs).
    pub put: Histogram,
    /// Cycles abandoned after retries.
    pub failed_cycles: u64,
    /// Request retries.
    pub retries: u64,
}

/// Metadata-size statistics over the converged store.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MetadataReport {
    /// Total causal-metadata bytes across replicas and keys.
    pub total_bytes: usize,
    /// Mean metadata bytes per key per replica.
    pub mean_bytes_per_key: f64,
    /// Largest per-key metadata at any replica.
    pub max_bytes_per_key: usize,
    /// Mean sibling count per key.
    pub mean_siblings: f64,
    /// Largest sibling set.
    pub max_siblings: usize,
}

/// A running store cluster: `servers` replica nodes (plus optional
/// dormant spares) and `clients` session nodes on a simulated network.
///
/// Membership is **elastic and concurrent**: [`Cluster::begin_join`]
/// activates a spare slot and [`Cluster::begin_leave`] starts draining a
/// member — any number of changes may be announced before
/// [`Cluster::await_membership`] supervises them to completion, because
/// ring views version each member independently and *merge*
/// ([`ring::RingView`]): a join and a leave announced on different sides
/// of a partition converge instead of racing. Each change is announced
/// to its *subject* only, and every other process learns it transitively
/// by gossip (periodic digests, AAE piggybacks, eager pushes, and
/// request-digest mismatches). A leave whose drain cannot complete
/// within the supervision budget is re-admitted **in band** (a fresh
/// `Up` incarnation, posted like any other change); the harness never
/// force-synchronises views.
/// [`Cluster::add_node_live`] / [`Cluster::remove_node_live`] remain as
/// single-change conveniences (begin + await).
#[derive(Debug)]
pub struct Cluster<M: Mechanism<StampedValue>> {
    sim: Simulation<StoreProc<M>>,
    /// Builds (and after a crash rebuilds) this cluster's nodes.
    kit: NodeKit<M>,
    servers: usize,
    server_slots: usize,
    clients: usize,
    /// Server slots currently in the ring.
    members: BTreeSet<usize>,
    /// The control plane's canonical mergeable view; every announcement
    /// mints its member entries from here.
    view: RingView<ReplicaId>,
    /// Joins announced but not yet supervised to completion.
    pending_joins: BTreeSet<usize>,
    /// Leaves announced but not yet drained/retired.
    pending_leaves: BTreeSet<usize>,
    deadline: SimTime,
    settle_budget: Duration,
    /// The run schedule, with the index of the next step not yet taken
    /// ([`Cluster::take_due_steps`]).
    scenario: Scenario,
    next_step: usize,
}

impl<M: Mechanism<StampedValue>> Cluster<M> {
    /// Builds a cluster on in-memory storage engines. All randomness
    /// derives from `seed`.
    pub fn new(seed: u64, mech: M, config: ClusterConfig) -> Self {
        Self::build(seed, mech, config, None)
    }

    /// Builds a cluster whose servers store through engines built by
    /// `factory` — the durable variant. A [`Cluster::crash_node`] /
    /// [`Cluster::restart_node`] cycle then rebuilds the node from the
    /// same factory, so a log-backed replica comes back with everything
    /// it durably synced before the crash.
    pub fn new_durable(
        seed: u64,
        mech: M,
        config: ClusterConfig,
        factory: EngineFactory<M>,
    ) -> Self {
        Self::build(seed, mech, config, Some(factory))
    }

    fn build(
        seed: u64,
        mech: M,
        config: ClusterConfig,
        engine_factory: Option<EngineFactory<M>>,
    ) -> Self {
        let kit = NodeKit::new(mech, config.store, config.servers, engine_factory);
        let server_slots = config.servers + config.spare_servers;
        let nodes = server_slots + config.clients;
        config.scenario.check(server_slots, nodes, true);
        let mut procs: Vec<StoreProc<M>> = Vec::with_capacity(nodes);
        procs.extend((0..config.servers).map(|slot| kit.server(slot)));
        procs.extend((config.servers..server_slots).map(|slot| kit.spare(slot)));
        procs.extend((0..config.clients).map(|j| {
            kit.client(
                j,
                server_slots + j,
                &config.client,
                config.cycles_per_client,
            )
        }));
        Cluster {
            sim: Simulation::new(seed, config.network, procs),
            view: kit.genesis_view().clone(),
            kit,
            servers: config.servers,
            server_slots,
            clients: config.clients,
            members: (0..config.servers).collect(),
            pending_joins: BTreeSet::new(),
            pending_leaves: BTreeSet::new(),
            deadline: SimTime::ZERO + config.deadline,
            settle_budget: config.membership_settle_budget,
            scenario: config.scenario,
            next_step: 0,
        }
    }

    /// The underlying simulation (for partitions, traces, time).
    pub fn sim(&self) -> &Simulation<StoreProc<M>> {
        &self.sim
    }

    /// Mutable access to the simulation (partitions, fault injection).
    pub fn sim_mut(&mut self) -> &mut Simulation<StoreProc<M>> {
        &mut self.sim
    }

    /// Read access to server `i`'s store node.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a server index, or the server is down.
    pub fn server(&self, i: usize) -> &StoreNode<M> {
        match &self.sim.processes()[i] {
            Some(node) => node.server(),
            None => panic!("server {i} is down"),
        }
    }

    /// Whether server `slot` is crashed: its host holds no node there.
    fn is_crashed(&self, slot: usize) -> bool {
        self.sim.processes()[slot].is_none()
    }

    /// Read access to client `j`'s session node.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not a client index.
    pub fn client(&self, j: usize) -> &ClientNode<M> {
        self.sim.process(self.server_slots + j).client()
    }

    /// Number of initial servers (spare slots excluded); with no elastic
    /// membership operations, identical to the member count.
    pub fn server_count(&self) -> usize {
        self.servers
    }

    /// The server slots currently in the ring, in ascending order.
    pub fn member_slots(&self) -> Vec<usize> {
        self.members.iter().copied().collect()
    }

    /// Monotone version of the control plane's canonical view (raised by
    /// every announcement: join, leave, re-admission, retirement).
    pub fn ring_epoch(&self) -> u64 {
        self.view.version()
    }

    /// Digest of the control plane's canonical view — the value every
    /// process's [`StoreNode::view_digest`] converges to.
    pub fn view_digest(&self) -> u64 {
        self.view.digest()
    }

    /// The control plane's canonical mergeable view.
    pub fn view(&self) -> &RingView<ReplicaId> {
        &self.view
    }

    /// Number of clients.
    pub fn client_count(&self) -> usize {
        self.clients
    }

    /// Marks `replica` down (or up) in every node's failure-detector view
    /// — a global, instantaneous detector, keeping experiments
    /// deterministic.
    pub fn set_replica_status(&mut self, replica: ReplicaId, up: bool) {
        for i in 0..(self.server_slots + self.clients) {
            if self.is_crashed(i) {
                continue;
            }
            match self.sim.process_mut(i) {
                StoreProc::Server(s) => s.set_peer_status(replica, up),
                StoreProc::Client(c) => c.set_peer_status(replica, up),
            }
        }
    }

    /// Debug assertion that gossip alone already converged every member
    /// server's ring view. Called on the happy path of a settled
    /// membership change.
    fn debug_assert_views_converged(&self) {
        for &i in &self.members {
            if self.is_crashed(i) {
                continue; // a crashed member cannot gossip
            }
            debug_assert_eq!(
                self.server(i).view_digest(),
                self.view.digest(),
                "server {i} did not converge to the current ring view via gossip"
            );
        }
    }

    /// Runs the simulation in slices until `settled` holds for the
    /// cluster or `budget` of virtual time elapses. Returns whether the
    /// predicate was met.
    fn run_until_settled(&mut self, budget: Duration, settled: impl Fn(&Self) -> bool) -> bool {
        let deadline = self.sim.now() + budget;
        loop {
            if settled(self) {
                return true;
            }
            if self.sim.now() >= deadline {
                return false;
            }
            let next = self.sim.now() + Duration::from_millis(5);
            self.sim.run_until(next.min(deadline));
        }
    }

    /// The control plane's one move: posts its canonical view to server
    /// `slot` as a [`Msg::RingEpoch`] — to the *subject* of a change
    /// only. What the subject does about it it reads off its own entry
    /// in the merged view, and every other process learns the change
    /// from the subject's gossip.
    fn post_view(&mut self, slot: usize) {
        let view = self.view.clone();
        self.sim.post(NodeId(slot as u32), Msg::RingEpoch { view });
    }

    /// Announces a **live join** of the spare server slot `slot` without
    /// waiting for it to settle: the control plane mints a fresh
    /// `Joining` incarnation for the slot in its canonical view and
    /// posts that view to the joiner — and to the joiner *only*
    /// (as a [`Msg::RingEpoch`]); finding itself newly on the ring is what
    /// wakes the spare.
    /// Every other process learns the merged view by gossip; owners that
    /// merge it stream the ranges the joiner gained
    /// (transfer-class [`Msg::Push`]es). Any number of changes may be begun
    /// before [`Cluster::await_membership`] supervises them — concurrent
    /// announcements merge.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a dormant spare slot (a member, or a
    /// leaver still mid-drain — cancel a drain by letting
    /// [`Cluster::await_membership`] time out into the in-band
    /// re-admission path instead).
    pub fn begin_join(&mut self, slot: usize) {
        assert!(slot < self.server_slots, "slot {slot} is not a server");
        assert!(!self.members.contains(&slot), "slot {slot} already joined");
        assert!(
            !self.pending_leaves.contains(&slot),
            "slot {slot} is mid-drain; await the leave before rejoining it"
        );
        let who = ReplicaId(slot as u32);
        self.members.insert(slot);
        self.pending_joins.insert(slot);
        self.view.bump(&who, MemberStatus::Joining);
        self.post_view(slot);
    }

    /// Announces a **live leave** of member `slot` without waiting for
    /// the drain: the control plane mints a fresh `Leaving` incarnation
    /// for the slot and posts the view to the leaver only. The
    /// leaver merges the view, finds itself out of the ring, and starts
    /// draining every held key range to its successors; gossip spreads
    /// the view meanwhile. Supervision, retirement and the timed-out
    /// recovery live in [`Cluster::await_membership`].
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a member, or if removing it would leave
    /// fewer members than the replication factor (counting any other
    /// leave already begun).
    pub fn begin_leave(&mut self, slot: usize) {
        assert!(self.members.contains(&slot), "slot {slot} is not a member");
        assert!(
            self.members.len() > self.kit.store().n,
            "removal would leave fewer members than the replication factor"
        );
        let who = ReplicaId(slot as u32);
        self.members.remove(&slot);
        self.pending_leaves.insert(slot);
        self.view.bump(&who, MemberStatus::Leaving);
        self.post_view(slot);
    }

    /// Supervises every membership change begun so far to completion:
    /// runs the simulation until all announced views converged (by
    /// digest), every member's transfer backlog drained, and every
    /// leaver's drain completed — or the settle budget elapses.
    ///
    /// On success, drained leavers are retired (store cleared, entry
    /// tombstoned `Removed`) and settled joiners promoted to `Up`; the
    /// final statuses are seeded at one member and gossip spreads them,
    /// with supervision waiting for that last wave too. A leave whose
    /// drain did **not** complete is re-admitted *in band*: the control
    /// plane mints a fresh `Up` incarnation and posts the view to the
    /// subject, which stops draining on finding itself `Up` again and
    /// whose gossip spreads the re-admission once connectivity allows —
    /// there is no forced view synchronisation.
    ///
    /// Returns whether everything settled and converged within budget.
    pub fn await_membership(&mut self) -> bool {
        let target = self.view.digest();
        let settled = self.run_until_settled(self.settle_budget, |c| {
            // crashed slots are excluded: they can neither drain nor
            // converge until restarted
            c.pending_leaves
                .iter()
                .filter(|&&s| !c.is_crashed(s))
                .all(|&s| c.server(s).drain_complete())
                && c.members.iter().filter(|&&i| !c.is_crashed(i)).all(|&i| {
                    let s = c.server(i);
                    s.view_digest() == target && s.transfer_backlog() == 0
                })
        });
        let leaves: Vec<usize> = std::mem::take(&mut self.pending_leaves)
            .into_iter()
            .collect();
        let mut all_ok = settled;
        let mut final_wave = false;
        for slot in leaves {
            if self.is_crashed(slot) {
                // a crashed leaver can neither drain nor be re-admitted
                // until it restarts; keep the leave pending
                self.pending_leaves.insert(slot);
                all_ok = false;
                continue;
            }
            if self.server(slot).drain_complete() {
                // fully drained: retire the node and tombstone its entry
                // so the departure survives every future merge
                self.sim.process_mut(slot).server_mut().finish_leave();
                self.sim.drop_timers(NodeId(slot as u32));
                self.view
                    .bump(&ReplicaId(slot as u32), MemberStatus::Removed);
                final_wave = true;
            } else {
                // Drain timed out (typically a partition): re-admit the
                // leaver in band under a fresh incarnation. The `Up`
                // entry beats the stale `Leaving` one wherever it
                // arrives, so gossip alone re-converges the cluster once
                // connectivity allows — no forced view sync.
                self.members.insert(slot);
                self.view.bump(&ReplicaId(slot as u32), MemberStatus::Up);
                self.post_view(slot);
                // deliver the view before returning, so the
                // subject is observably re-admitted (it keeps serving and
                // gossiping the fresh incarnation from here on)
                let next = self.sim.now() + Duration::from_millis(1);
                self.sim.run_until(next);
                all_ok = false;
            }
        }
        if settled {
            for slot in std::mem::take(&mut self.pending_joins) {
                // a join that went unsettled in an earlier await may have
                // been removed again since: its slot is no longer a
                // member, and promoting the stale entry would resurrect
                // a retired node into every ring view
                if !self.members.contains(&slot) {
                    continue;
                }
                self.view.bump(&ReplicaId(slot as u32), MemberStatus::Up);
                final_wave = true;
            }
        }
        // An unsettled join stays pending: the joiner keeps serving under
        // its `Joining` entry (in-ring, routable), and the next
        // `await_membership` that settles promotes it to `Up` — it is
        // never stranded in the transitional status with no path out.
        if final_wave {
            // seed the final statuses (Removed tombstones, Up
            // promotions) at one member; gossip spreads them
            let seed = *self.members.iter().next().expect("at least one member");
            self.post_view(seed);
            if all_ok {
                let target = self.view.digest();
                let converged = self.run_until_settled(self.settle_budget, |c| {
                    c.members
                        .iter()
                        .filter(|&&i| !c.is_crashed(i))
                        .all(|&i| c.server(i).view_digest() == target)
                });
                all_ok = converged;
            }
        }
        if all_ok {
            self.debug_assert_views_converged();
        }
        all_ok
    }

    /// Crashes server `slot` **with its disk**: the hosted node is
    /// dropped on the spot — taking with it every in-memory structure
    /// *and* whatever its storage engine had buffered past the last
    /// group it handed off to be synced, exactly like a real power cut
    /// (a log's drop lets its writer finish that group) — by the host's
    /// one kill ([`Simulation::kill`], the threaded fleet's too): the slot
    /// is empty, the node's timers and the messages it had queued to
    /// itself are gone, and nothing is dispatched into the slot until
    /// the restart. On top of that — harness decisions —
    /// every network link to it is severed and the global failure
    /// detector marks it down. The slot stays a ring member
    /// (crash ≠ leave): its entry ages in peers' views until
    /// [`Cluster::restart_node`] brings it back.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a member or mid-drain leaver, or is
    /// already crashed.
    pub fn crash_node(&mut self, slot: usize) {
        assert!(
            self.members.contains(&slot) || self.pending_leaves.contains(&slot),
            "slot {slot} is not a serving member"
        );
        assert!(!self.is_crashed(slot), "slot {slot} is already crashed");
        let who = ReplicaId(slot as u32);
        // Dropping the node drops its engine with the un-synced tail
        // still in user space: that tail is genuinely lost.
        self.sim.kill(NodeId(slot as u32));
        for other in 0..(self.server_slots + self.clients) {
            if other != slot {
                let net = self.sim.network_mut();
                net.block_link(NodeId(slot as u32), NodeId(other as u32));
                net.block_link(NodeId(other as u32), NodeId(slot as u32));
            }
        }
        self.set_replica_status(who, false);
    }

    /// Restarts a crashed server from its disk: rebuilds the node from
    /// the cluster's engine factory — a log-backed engine replays its
    /// durable record prefix on open — restores connectivity, and
    /// re-enters the fleet **in band**: the control plane mints a fresh
    /// `Up` incarnation — fresh, so the view is news to a node that booted
    /// with the genesis one — and posts it; merging it re-arms the
    /// recovered node's periodic timers and lets gossip spread the
    /// re-admission. No harness view synchronisation. Without an engine
    /// factory the node restarts empty (diskless baseline).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not crashed.
    pub fn restart_node(&mut self, slot: usize) {
        assert!(self.is_crashed(slot), "slot {slot} is not crashed");
        let who = ReplicaId(slot as u32);
        self.sim.revive(NodeId(slot as u32), self.kit.server(slot));
        for other in 0..(self.server_slots + self.clients) {
            if other != slot {
                let net = self.sim.network_mut();
                net.unblock_link(NodeId(slot as u32), NodeId(other as u32));
                net.unblock_link(NodeId(other as u32), NodeId(slot as u32));
            }
        }
        self.set_replica_status(who, true);
        // The crash aborted any membership flow the node was mid-way
        // through; the fresh `Up` incarnation supersedes it.
        self.pending_joins.remove(&slot);
        self.pending_leaves.remove(&slot);
        self.members.insert(slot);
        self.view.bump(&who, MemberStatus::Up);
        self.post_view(slot);
    }

    /// Server slots currently crashed.
    pub fn crashed_slots(&self) -> Vec<usize> {
        (0..self.server_slots)
            .filter(|&i| self.is_crashed(i))
            .collect()
    }

    /// Forces server `slot`'s storage engine to sync its buffered
    /// writes — the graceful counterpart of [`Cluster::crash_node`]'s
    /// drop-without-sync (tests use it to pin down exactly which prefix
    /// a recovery must replay).
    pub fn sync_server_storage(&mut self, slot: usize) {
        self.sim.process_mut(slot).server_mut().sync_storage();
    }

    /// Adds the spare server slot `slot` to the ring **live** and
    /// supervises the change to completion: [`Cluster::begin_join`]
    /// followed by [`Cluster::await_membership`]. The workload may keep
    /// running throughout.
    ///
    /// Returns whether every member merged the new view and the transfer
    /// protocol settled within the supervision budget. An unsettled join
    /// (e.g. a member partitioned away from every gossip path) is left
    /// to converge in the background — gossip keeps running.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a dormant spare slot.
    pub fn add_node_live(&mut self, slot: usize) -> bool {
        self.begin_join(slot);
        self.await_membership()
    }

    /// Removes member `slot` from the ring **live** and supervises the
    /// drain to completion: [`Cluster::begin_leave`] followed by
    /// [`Cluster::await_membership`]. The leaver streams every held key
    /// range to its successors and only retires (clearing its store)
    /// once every batch is acknowledged, so no acknowledged write can be
    /// lost to the departure.
    ///
    /// Returns whether the drain completed within the supervision budget
    /// (the node is retired if it did, and re-admitted in band if it did
    /// not).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a member, or if removing it would leave
    /// fewer members than the replication factor.
    pub fn remove_node_live(&mut self, slot: usize) -> bool {
        self.begin_leave(slot);
        self.await_membership() && !self.members.contains(&slot)
    }

    /// Takes every step of the scenario whose instant has been reached,
    /// in order.
    fn take_due_steps(&mut self) {
        while let Some(&(at, step)) = self.scenario.steps().get(self.next_step) {
            if SimTime::ZERO + at > self.sim.now() {
                return;
            }
            self.next_step += 1;
            match step {
                Step::Kill(slot) => self.crash_node(slot),
                Step::Revive(slot) => self.restart_node(slot),
                Step::Faults(faults) => self.sim.network_mut().set_faults(faults),
                Step::CutConn(_) => {}
            }
        }
    }

    /// The instant of the next step not yet taken, if any — run loops
    /// stop there so a step lands exactly on time.
    fn next_step_at(&self) -> Option<SimTime> {
        let next = self.scenario.steps().get(self.next_step);
        next.map(|(at, _)| SimTime::ZERO + *at)
    }

    /// Runs until every client finishes its session (or the deadline).
    /// Returns whether all clients finished.
    pub fn run(&mut self) -> bool {
        loop {
            self.take_due_steps();
            let all_done = (0..self.clients).all(|j| self.client(j).is_done());
            if all_done {
                return true;
            }
            if self.sim.now() >= self.deadline {
                return false;
            }
            let mut next = self.sim.now() + Duration::from_millis(100);
            if let Some(b) = self.next_step_at() {
                next = next.min(b);
            }
            self.sim.run_until(next.min(self.deadline));
        }
    }

    /// Runs the simulation for `span` of virtual time (e.g. to let AAE
    /// converge replicas through the protocol itself), honouring the
    /// scenario.
    pub fn run_for(&mut self, span: Duration) {
        let target = self.sim.now() + span;
        loop {
            self.take_due_steps();
            let next = match self.next_step_at() {
                Some(b) if b < target => b,
                _ => target,
            };
            self.sim.run_until(next);
            if self.sim.now() >= target {
                self.take_due_steps();
                return;
            }
        }
    }

    /// The application-visible (non-tombstone) values for `key` at
    /// server `i`.
    pub fn live_values_at(&self, i: usize, key: &[u8]) -> Vec<StampedValue> {
        let s = self.server(i);
        match s.data().get(key) {
            None => Vec::new(),
            Some(st) => {
                let (values, _) = self.kit.mech().read(st);
                values.into_iter().filter(StampedValue::is_live).collect()
            }
        }
    }

    /// Reclaims fully-deleted keys on every server. Call only after
    /// [`FleetHarness::converge`]: premature collection would let anti-entropy
    /// resurrect deleted data. Returns keys reclaimed per server.
    pub fn collect_garbage(&mut self) -> Vec<usize> {
        self.member_servers()
            .into_iter()
            .map(|i| self.sim.process_mut(i).server_mut().collect_garbage())
            .collect()
    }

    /// The union of surviving write ids for `key` across every current
    /// member — what the cluster as a whole still holds. Auditing this
    /// union against the oracle *before* convergence is the strongest
    /// no-loss check across membership changes: a write absent from the
    /// union is gone for good, since convergence can only merge what some
    /// member still has.
    pub fn surviving_union(&self, key: &[u8]) -> BTreeSet<WriteId> {
        let mut union = BTreeSet::new();
        for i in self.member_servers() {
            union.extend(self.surviving_at(i, key));
        }
        union
    }

    /// Aggregates all clients' latency statistics.
    /// (Generic implementation: [`FleetHarness::latency_report`]; kept
    /// because the benchmark calls it without the trait in scope.)
    pub fn latency_report(&self) -> LatencyReport {
        FleetHarness::latency_report(self)
    }

    /// Measures causal metadata across the (ideally converged) store.
    pub fn metadata_report(&self) -> MetadataReport {
        let mut out = MetadataReport::default();
        let mut key_instances = 0usize;
        for i in self.member_servers() {
            let s = self.server(i);
            for st in s.data().values() {
                let bytes = self.kit.mech().metadata_size(st);
                let siblings = self.kit.mech().sibling_count(st);
                out.total_bytes += bytes;
                out.max_bytes_per_key = out.max_bytes_per_key.max(bytes);
                out.max_siblings = out.max_siblings.max(siblings);
                out.mean_siblings += siblings as f64;
                key_instances += 1;
            }
        }
        if key_instances > 0 {
            out.mean_bytes_per_key = out.total_bytes as f64 / key_instances as f64;
            out.mean_siblings /= key_instances as f64;
        }
        out
    }
}

impl<M: Mechanism<StampedValue>> FleetHarness<M> for Cluster<M> {
    fn mechanism(&self) -> &M {
        self.kit.mech()
    }

    /// The members that are up: a crashed member's slot holds no node.
    fn member_servers(&self) -> Vec<usize> {
        let mut members = self.member_slots();
        members.retain(|&i| !self.is_crashed(i));
        members
    }

    /// All server slots that are up, dormant spares included — a
    /// retired leaver keeps gossiping, so its ledger still counts.
    fn ledger_servers(&self) -> Vec<usize> {
        (0..self.server_slots)
            .filter(|&i| !self.is_crashed(i))
            .collect()
    }

    fn client_count(&self) -> usize {
        self.clients
    }

    fn server_ref(&self, i: usize) -> &StoreNode<M> {
        self.server(i)
    }

    fn server_mut_ref(&mut self, i: usize) -> &mut StoreNode<M> {
        self.sim.process_mut(i).server_mut()
    }

    fn client_ref(&self, j: usize) -> &ClientNode<M> {
        self.client(j)
    }

    fn audit_view(&self) -> &RingView<ReplicaId> {
        &self.view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvv::mechanisms::DvvMechanism;

    fn small() -> ClusterConfig {
        ClusterConfig {
            servers: 3,
            clients: 3,
            cycles_per_client: 5,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn cluster_runs_to_completion() {
        let mut c = Cluster::new(1, DvvMechanism, small());
        assert!(c.run(), "all clients finish");
        assert!(c.sim().now() > SimTime::ZERO);
        for j in 0..3 {
            assert_eq!(c.client(j).cycles_done(), 5);
        }
    }

    #[test]
    fn dvv_cluster_is_anomaly_free() {
        let mut c = Cluster::new(2, DvvMechanism, small());
        assert!(c.run());
        c.converge();
        let report = c.anomaly_report();
        assert_eq!(report.total_writes, 15);
        assert!(report.is_clean(), "{report:?}");
        assert!(
            report.surviving_values >= report.keys,
            "at least one value per key"
        );
    }

    #[test]
    fn converge_is_idempotent_and_equalizes_servers() {
        let mut c = Cluster::new(3, DvvMechanism, small());
        c.run();
        c.converge();
        for key in c.oracle().keys() {
            let s0 = c.surviving_at(0, &key);
            for i in 1..c.server_count() {
                assert_eq!(s0, c.surviving_at(i, &key), "server {i} differs");
            }
        }
    }

    #[test]
    fn latency_and_metadata_reports_have_data() {
        let mut c = Cluster::new(4, DvvMechanism, small());
        c.run();
        c.converge();
        let lat = c.latency_report();
        assert!(lat.get.count() > 0);
        assert!(lat.put.count() > 0);
        assert!(lat.get.mean() > 0.0);
        let meta = c.metadata_report();
        assert!(meta.total_bytes > 0);
        assert!(meta.mean_siblings >= 1.0 - 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut c = Cluster::new(seed, DvvMechanism, small());
            c.run();
            c.converge();
            (
                c.sim().now(),
                c.anomaly_report(),
                c.sim().network().stats().delivered,
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).2, 0);
    }

    /// Steps land in due order whatever order they are listed in: a
    /// revive listed before its kill neither holds the kill back nor
    /// undoes it early.
    #[test]
    fn steps_listed_out_of_order_land_in_due_order() {
        let cfg = ClusterConfig {
            scenario: Scenario::new([
                (Duration::from_millis(200), Step::Revive(1)),
                (Duration::from_millis(100), Step::Kill(1)),
            ]),
            ..small()
        };
        let mut c = Cluster::new(5, DvvMechanism, cfg);
        c.run_for(Duration::from_millis(150));
        assert_eq!(c.crashed_slots(), [1]);
        c.run_for(Duration::from_millis(100));
        assert_eq!(c.crashed_slots(), []);
    }

    #[test]
    #[should_panic(expected = "replication factor exceeds")]
    fn n_larger_than_servers_rejected() {
        let cfg = ClusterConfig {
            servers: 2,
            ..ClusterConfig::default()
        };
        let _ = Cluster::new(0, DvvMechanism, cfg);
    }
}
