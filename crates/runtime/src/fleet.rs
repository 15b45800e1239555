//! [`Fleet`]: hosts the kvstore protocol on real threads — the one
//! threaded fleet, generic over the [`Link`] its messages travel on.
//!
//! Layout mirrors [`kvstore::cluster::Cluster`]: node ids `0..servers`
//! are replica servers, `servers..servers + clients` are closed-loop
//! client sessions, the same [`StoreProc`] enum holds either, and the
//! same [`NodeKit`] builds them — at construction and again when a
//! scenario revives a killed server. Each server gets a dedicated
//! event-loop thread; clients are partitioned across `client_workers`
//! threads. Every worker is a bounded inbox and a [`simnet::Host`] of
//! its nodes on the wall clock — the simulator is one on a virtual
//! clock — so a node is hosted here exactly as it is there: the same
//! [`StoreProc`] entry points, the same write-through
//! [`simnet::ProcessCtx`] (effects land in the order the handler made
//! them), a forked RNG stream per node, and one **agenda**, the host's
//! [`simnet::TimerWheel`] of everything the worker will do at a future
//! instant: its nodes' timers, their messages on their way and the
//! steps of the run's scenario that are its to carry out.
//!
//! A node's sends go the host's three ways. A message to itself is an
//! agenda entry due at once: reliable, never fault-injected, never on
//! the wire (the link is only told its bytes, [`Link::note_self`]).
//! With no network configured ([`RuntimeConfig::faults`] is `None`),
//! and during the quiesce, everything else goes straight to the
//! [`Link`]. Otherwise the host asks the simulator's own fault plane —
//! a [`simnet::Network`] over the worker's RNG stream — what becomes of
//! the message: lost, or one or more copies (the original, a duplicate,
//! a stale replay), each held back on the agenda for its delay before
//! the link gets it. The link is [`ChannelLink`] for [`RuntimeFleet`]
//! (a bounded `std::sync::mpsc` inbox per worker), a TCP fabric for
//! `transport::SocketFleet`. Either way a full inbox drops the message
//! (wire loss; the protocol's timeouts, retries and anti-entropy absorb
//! it), so workers can never deadlock on a send.
//!
//! The run's [`Scenario`](simnet::Scenario) ([`RuntimeConfig::scenario`])
//! is agenda entries, all known when the fleet runs: each step goes on
//! the agenda of the worker hosting its node, a `Faults` step on every
//! worker's. A `Kill` and a `Revive` are the host's own kill and revive
//! — the ones the simulator's `Cluster` calls: the kill swaps in an
//! inert husk, drops the node's timers and queued self-sends and marks
//! it down (what reaches it is dropped), the revive rebuilds the node
//! from its [`NodeKit`] and posts it the view that re-admits it. A
//! `Faults` step switches the worker's network's fault knobs, a
//! `CutConn` is [`Link::cut`] on the worker's handle. Nothing crosses
//! threads to order any of them. The scenario, the storage-engine
//! factory and the fault plane all sit above the link, so they work the
//! same on every link.
//! Where a worker's inbox is fed
//! from is the link's too: [`Link::worker`] gives each worker a handle
//! of its own, and the idle arm waits in [`Link::wait`] — on the
//! channel itself for [`ChannelLink`], in `epoll` on the worker's own
//! sockets for the socket link, which reads them into the inbox there.
//!
//! **A run's threads are its workers**, on every link. [`Fleet::run`]
//! spawns one thread per server and one per non-empty client group, and
//! nothing else — and neither does the socket link, whose accepting and
//! reading happens on the workers. The thread that called `run` is the
//! one supervisor: it declares a stall when the op counter sits still
//! for the stall budget, and decides when the run is over — parked in
//! between, and unparked by the worker that sees a client session
//! finish. Everything it knows about the live fleet it reads from
//! [`Progress`], which the workers write with relaxed atomics — that the
//! scenario is over included: the run is past its last step and no
//! server is down. No lock is taken on the dispatch path.
//!
//! **A worker with nothing to do polls before it parks — while that
//! pays.** A worker blocked on an empty inbox lets its vCPU halt, and
//! the packet that ends the wait pays a futex wake, an IPI and the exit
//! from the halt: on the in-process link that was ~31 of
//! `threaded_rmw`'s 42 µs of CPU per operation, at 1.8 parks per
//! operation — the gap to the thread-free simulator's 10.9 µs that had
//! been filed under "the host is bimodal". So the loop's idle arm first
//! looks at its inbox for up to [`Link::SPIN`], yielding the CPU between
//! looks and never past its agenda's next due instant; only
//! then does it park, as it always did, for what is left of the wait.
//! A gate decides whether to poll at all, from what the last idle gap
//! was (`SpinGate`): a saturated fleet holds itself in the cheap regime
//! and an idle one pays a window per worker and then sleeps. `SPIN` is
//! the link's, not a setting: 50 µs on [`ChannelLink`]; zero — this
//! paragraph does not apply, the arm is one [`Link::wait`] — on the
//! socket link, whose numbers are at [`Link::SPIN`]. Which regime a run
//! was in is [`FleetStats::idle`]: on the benchmark's read-modify-write
//! shape `parks / ops_ok` reads 1.8 when every idle moment ends in a
//! sleep, and 0.00 (in memory) or 0.2 (a durable log under it) now.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration as StdDuration, Instant};

use dvv::mechanisms::Mechanism;
use dvv::ReplicaId;
use kvstore::client::ClientNode;
use kvstore::cluster::{EngineFactory, NodeKit, StoreProc};
use kvstore::ctx::Timer;
use kvstore::harness::FleetHarness;
use kvstore::messages::Msg;
use kvstore::node::StoreNode;
use kvstore::value::StampedValue;
use ring::{MemberStatus, RingView};
use simnet::{Due, Host, Network, NodeId, Outlet, SimRng, SimTime, Step, TraceEvent};

use crate::link::{ChannelLink, Link, Packet, Wiring};
use crate::watchdog::{self, Progress, StallReport};
use crate::RuntimeConfig;

/// Inbox slots per hosted node; a full inbox drops (wire loss).
const INBOX_CAPACITY: usize = 1024;

/// The main loop's park between passes while the scenario is not over.
const SCHEDULE_PARK: StdDuration = StdDuration::from_millis(2);

/// The main loop's park once the scenario is over: all that is
/// left to notice by polling is a stall or the run budget (a finishing
/// client unparks it).
const IDLE_PARK: StdDuration = StdDuration::from_millis(25);

/// Clean AAE rounds every server must initiate, after the last observed
/// repair activity, before the quiesce phase may end early (with 3+
/// servers and random peer choice this gives each pair several chances
/// to detect leftover divergence).
const SETTLE_CLEAN_ROUNDS: u64 = 8;

/// State shared by every thread of a run (mechanism-independent).
/// `shutdown` is its own `Arc` so the link can hold the flag without
/// the rest of the struct.
#[derive(Debug)]
struct Shared {
    origin: Instant,
    /// Whether routing consults the workers' [`Network`]s: set when the
    /// run has one configured, cleared for the quiesce.
    faults_on: AtomicBool,
    shutdown: Arc<AtomicBool>,
    /// The thread inside [`Fleet::run`], parked between passes of its
    /// loop; the worker that sees a client session finish unparks it.
    main: Thread,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// One node's live reporting state, as [`FleetStats::snapshot`] reads
/// it.
#[derive(Clone, Debug, Default)]
pub struct NodeSnapshot {
    /// Events this node has dispatched.
    pub events: u64,
}

/// How the run's workers spent their idle moments, fleet-wide: which
/// regime the run was in. On the benchmark's read-modify-write shape
/// `parks / ops_ok` ≈ 1.8 is the expensive one — a worker that runs
/// out of work sleeps, and the next message pays to wake it; near 0,
/// messages find their worker awake.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IdleStats {
    /// Times a worker went to sleep on an empty inbox.
    pub parks: u64,
    /// Idle polls ([`Link::SPIN`]) a packet ended.
    pub spin_hits: u64,
    /// Idle polls that ran their whole window and found nothing; each
    /// burnt at most one `SPIN` of CPU.
    pub spin_misses: u64,
}

/// Clonable live-stats handle: a view over the run's [`Progress`]
/// counters, readable without pausing worker threads. What a node
/// counted itself — its wire ledger, its server or session stats — is
/// read off the node after the run ([`Fleet::server`], [`Fleet::client`],
/// the [`FleetHarness`] reports).
#[derive(Clone, Debug)]
pub struct FleetStats {
    progress: Arc<Progress>,
}

impl FleetStats {
    /// Node `i`'s latest counters (fleet layout order: servers, then
    /// clients).
    pub fn snapshot(&self, i: usize) -> NodeSnapshot {
        NodeSnapshot {
            events: self.progress.events[i].load(Ordering::Relaxed),
        }
    }

    /// The idle counters, as of each worker's latest park (exact once
    /// the run has returned).
    pub fn idle(&self) -> IdleStats {
        let p = &self.progress;
        IdleStats {
            parks: p.parks.load(Ordering::Relaxed),
            spin_hits: p.spin_hits.load(Ordering::Relaxed),
            spin_misses: p.spin_misses.load(Ordering::Relaxed),
        }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.progress.events.len()
    }

    /// True when the handle covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.progress.events.is_empty()
    }
}

/// Outcome of a completed (non-stalled) run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Wall-clock from the run's time origin (the nodes' time zero,
    /// taken before the link opens and the workers spawn) to the last
    /// client finishing (quiesce excluded): the finishing worker wakes
    /// the main loop, which reads the clock.
    pub elapsed: StdDuration,
    /// Client operations completed fleet-wide.
    pub ops_ok: u64,
    /// All clients finished within the run budget.
    pub all_done: bool,
}

/// The multi-threaded fleet over link `L`. Build it ([`RuntimeFleet::new`]
/// for the in-process link, [`Fleet::with_link`] for any other), run
/// with [`Fleet::run`], then inspect nodes and reports exactly like a
/// [`Cluster`](kvstore::cluster::Cluster) after a simulated run.
pub struct Fleet<M: Mechanism<StampedValue>, L: Link<M>> {
    config: RuntimeConfig,
    /// Builds (and at a scenario's revive rebuilds) this fleet's nodes.
    kit: NodeKit<M>,
    /// The genesis view with one `Up` bump per killed server: what the
    /// fleet's views converge to once every revive is re-admitted.
    view: RingView<ReplicaId>,
    /// Every node between runs — its id, process and RNG stream — in id
    /// order; a run hands them to its workers' hosts.
    nodes: Vec<(NodeId, StoreProc<M>, SimRng)>,
    progress: Arc<Progress>,
    net_root: SimRng,
    link_spec: L::Spec,
    link_ledger: Option<L::Ledger>,
}

/// The threaded fleet over in-process channels ([`ChannelLink`]).
pub type RuntimeFleet<M> = Fleet<M, ChannelLink<M>>;

impl<M: Mechanism<StampedValue>, L: Link<M>> std::fmt::Debug for Fleet<M, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("config", &self.config)
            .field("nodes", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

impl<M> RuntimeFleet<M>
where
    M: Mechanism<StampedValue> + Send + 'static,
{
    /// Builds a fleet. All protocol randomness derives from `seed`
    /// through the same `fork_indexed("node", i)` scheme the simulator
    /// uses, so a node's RNG stream depends only on `(seed, i)`.
    pub fn new(seed: u64, mech: M, config: RuntimeConfig) -> Self {
        Self::with_link(seed, mech, config, None, ())
    }

    /// Builds a fleet whose servers persist through `factory`-built
    /// storage engines — the threaded counterpart of
    /// [`Cluster::new_durable`](kvstore::cluster::Cluster::new_durable).
    /// Opening an engine replays whatever a previous incarnation (or a
    /// previous fleet over the same directory) durably synced, and a
    /// scenario's `Revive` rebuilds from the same factory.
    pub fn new_durable(
        seed: u64,
        mech: M,
        config: RuntimeConfig,
        factory: EngineFactory<M>,
    ) -> Self {
        Self::with_link(seed, mech, config, Some(factory), ())
    }
}

impl<M, L> Fleet<M, L>
where
    M: Mechanism<StampedValue> + Send + 'static,
    L: Link<M>,
{
    /// Builds a fleet whose messages travel on `L`, opened from
    /// `link_spec` when the fleet runs. With a `factory` the servers
    /// persist through its storage engines (see
    /// [`RuntimeFleet::new_durable`]).
    pub fn with_link(
        seed: u64,
        mech: M,
        config: RuntimeConfig,
        factory: Option<EngineFactory<M>>,
        link_spec: L::Spec,
    ) -> Self {
        assert!(config.client_workers > 0, "need at least one client worker");
        let kit = NodeKit::new(mech, config.store, config.servers, factory);
        let total = config.servers + config.clients;
        let scenario = &config.scenario;
        scenario.check(config.servers, total, config.faults.is_some());
        let mut view = kit.genesis_view().clone();
        for (_, step) in scenario.steps() {
            if let Step::Kill(slot) = step {
                view.bump(&ReplicaId(*slot as u32), MemberStatus::Up);
            }
        }
        let root = SimRng::new(seed);
        let nodes = (0..total)
            .map(|i| {
                let node = match i.checked_sub(config.servers) {
                    None => kit.server(i),
                    Some(j) => kit.client(j, i, &config.client, config.cycles_per_client),
                };
                (NodeId(i as u32), node, root.fork_indexed("node", i as u64))
            })
            .collect();
        Fleet {
            config,
            view,
            kit,
            nodes,
            progress: Arc::new(Progress::new(total)),
            net_root: root.fork("rtnet"),
            link_spec,
            link_ledger: None,
        }
    }

    /// The link's ledger from the completed run; `None` before it.
    pub fn link_ledger(&self) -> Option<&L::Ledger> {
        self.link_ledger.as_ref()
    }

    /// A clonable handle for observing the fleet while (or after) it
    /// runs.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            progress: Arc::clone(&self.progress),
        }
    }

    /// Runs the fleet to completion: opens the link, spawns per-server
    /// and client-worker threads, waits for every client to finish, lets
    /// the fleet quiesce with faults disabled, then joins all threads,
    /// closes the link and reassembles the nodes for inspection.
    ///
    /// Returns `Err` with per-node diagnostics if no client op completes
    /// for the stall budget, or the run budget expires first.
    pub fn run(&mut self) -> Result<RunReport, StallReport> {
        self.run_during(|| {})
    }

    /// [`run`](Self::run), calling `during` on this thread once every
    /// worker is up; the run does not end before it returns. A test that
    /// drives the workers from outside does it here.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_during(&mut self, during: impl FnOnce()) -> Result<RunReport, StallReport> {
        let cfg = self.config.clone();
        let total = cfg.servers + cfg.clients;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            origin: Instant::now(),
            faults_on: AtomicBool::new(cfg.faults.is_some()),
            shutdown: Arc::clone(&shutdown),
            main: thread::current(),
        });

        // Partition nodes onto workers: one per server, then clients
        // chunked across `client_workers` threads.
        let nodes = std::mem::take(&mut self.nodes);
        let mut groups: Vec<Vec<_>> = Vec::new();
        let mut client_groups: Vec<Vec<_>> = (0..cfg.client_workers).map(|_| Vec::new()).collect();
        for (i, node) in nodes.into_iter().enumerate() {
            if i < cfg.servers {
                groups.push(vec![node]);
            } else {
                client_groups[(i - cfg.servers) % cfg.client_workers].push(node);
            }
        }
        groups.extend(client_groups.into_iter().filter(|g| !g.is_empty()));
        // One node per worker: where teardown posts that worker's wake.
        let wake: Vec<NodeId> = groups.iter().map(|g| g[0].0).collect();

        // One bounded inbox per worker; `inboxes[j]` routes to the
        // worker hosting node j.
        let mut receivers = Vec::with_capacity(groups.len());
        let mut inboxes: Vec<Option<SyncSender<Packet<M>>>> = vec![None; total];
        for g in &groups {
            let (tx, rx) = mpsc::sync_channel(INBOX_CAPACITY * g.len());
            receivers.push(rx);
            for (id, ..) in g {
                inboxes[id.0 as usize] = Some(tx.clone());
            }
        }
        let inboxes: Vec<SyncSender<Packet<M>>> = inboxes
            .into_iter()
            .map(|tx| tx.expect("every node is hosted by a worker"))
            .collect();
        let mut link = L::open(
            &self.link_spec,
            Wiring {
                inboxes: inboxes.clone(),
                progress: Arc::clone(&self.progress),
                shutdown,
            },
        );

        // Worker threads — the only threads a run spawns. Each has the
        // scenario's steps for its nodes on its agenda from the start.
        let mut handles: Vec<JoinHandle<Vec<_>>> = Vec::new();
        for (w, (group, rx)) in groups.into_iter().zip(receivers).enumerate() {
            let hosts: Vec<NodeId> = group.iter().map(|(id, ..)| *id).collect();
            let network = Network::new(
                cfg.faults.clone().unwrap_or_default(),
                self.net_root.fork_indexed("worker", w as u64),
            );
            let mut host = Host::new(network, group);
            host.set_faults(cfg.faults.is_some());
            for &(at, step) in cfg.scenario.steps() {
                let here = match step {
                    Step::Kill(node) | Step::Revive(node) | Step::CutConn(node) => {
                        hosts.contains(&NodeId(node as u32))
                    }
                    Step::Faults(_) => true,
                };
                if here {
                    host.schedule(at.as_micros(), Due::Step(step));
                }
            }
            let inbox_capacity = INBOX_CAPACITY * hosts.len();
            let hang = hosts
                .iter()
                .any(|id| cfg.hang_servers.contains(&(id.0 as usize)));
            let worker = Worker {
                tallies: vec![Tally::default(); hosts.len()],
                host,
                link: link.worker(&hosts),
                shared: Arc::clone(&shared),
                progress: Arc::clone(&self.progress),
                kit: self.kit.clone(),
            };
            handles.push(thread::spawn(move || {
                worker_loop(worker, rx, inbox_capacity, hang)
            }));
        }

        during();

        // Wait for completion, a stall, or the run budget. The workers
        // carry out the scenario, so it is over once the run is past its
        // last step and no server is down.
        let started = shared.origin;
        let last_step = cfg.scenario.steps().last().map(|(at, _)| at.as_micros());
        let last_step = StdDuration::from_micros(last_step.unwrap_or(0));
        let down = &self.progress.expected_down;
        let over =
            || started.elapsed() >= last_step && !down.iter().any(|d| d.load(Ordering::Relaxed));
        // Progress is completed client ops: while any client is still
        // working the counter must move at least once per stall budget.
        let mut last_ops = self.progress.ops_ok.load(Ordering::Relaxed);
        let mut still_since = Instant::now();
        let outcome = loop {
            let scenario_over = over();
            if self.progress.done_clients.load(Ordering::Relaxed) >= cfg.clients as u64 {
                break Ok(started.elapsed());
            }
            let ops = self.progress.ops_ok.load(Ordering::Relaxed);
            if ops != last_ops {
                last_ops = ops;
                still_since = Instant::now();
            }
            let waited = still_since.elapsed();
            if waited >= cfg.stall_budget {
                break Err(watchdog::diagnose(&self.progress, started, waited));
            }
            if started.elapsed() > cfg.run_budget {
                break Err(watchdog::diagnose(&self.progress, started, cfg.run_budget));
            }
            // A spurious or left-over wake-up only brings the next pass
            // forward.
            thread::park_timeout(if scenario_over {
                IDLE_PARK
            } else {
                SCHEDULE_PARK
            });
        };

        if outcome.is_ok() {
            // Successful run: quiesce with faults off so in-flight
            // repairs, handoffs and AAE rounds land on a clean network.
            // Exit early once repair activity has been still for the
            // settle window — anti-entropy keeps gossiping forever, so
            // "done" is a quiet repair ledger, not a quiet wire.
            shared.faults_on.store(false, Ordering::Relaxed);
            let settle_started = Instant::now();
            let (mut last_sig, mut rounds_floor) = self.settle_probe();
            let mut still_since = Instant::now();
            // A scenario still in flight (a revive or a connection cut
            // landing after the last client finished) keeps the quiesce
            // open past its nominal budget — the fault must land and be
            // repaired before the fleet is inspected.
            let mut scenario_over = over();
            while (settle_started.elapsed() < cfg.quiesce || !scenario_over)
                && started.elapsed() <= cfg.run_budget
            {
                thread::sleep(StdDuration::from_millis(50));
                scenario_over = over();
                let (sig, rounds) = self.settle_probe();
                if sig != last_sig {
                    last_sig = sig;
                    rounds_floor = rounds;
                    still_since = Instant::now();
                } else if scenario_over
                    && still_since.elapsed() >= cfg.settle_window
                    && rounds >= rounds_floor + SETTLE_CLEAN_ROUNDS
                {
                    // Quiet for the window *and* every server has since
                    // initiated several divergence-free AAE rounds — the
                    // stillness reflects convergence, not CPU starvation.
                    break;
                }
            }
        }
        shared.shutdown.store(true, Ordering::Relaxed);
        // A parked worker would sit out its wait (the 20 ms cap, when no
        // timer is nearer) before it saw the flag: wake each with one
        // packet put straight into its inbox, and tell the link. Not
        // `deliver`ed — no depth is counted for it, because `receive`
        // drops what it takes once the flag is up. A full inbox means
        // the worker is awake anyway.
        for node in wake {
            let _ = inboxes[node.0 as usize].try_send(Packet {
                from: node,
                to: node,
                msg: Msg::GossipDigest { digest: 0 },
            });
            link.wake(node);
        }

        let mut returned = Vec::with_capacity(total);
        for h in handles {
            returned.extend(h.join().expect("worker thread panicked"));
        }
        self.link_ledger = Some(link.close());
        returned.sort_by_key(|(id, ..)| id.0);
        self.nodes = returned;

        outcome.map(|elapsed| RunReport {
            elapsed,
            ops_ok: self.progress.ops_ok.load(Ordering::Relaxed),
            all_done: true,
        })
    }

    /// Fleet-wide sum of the servers' live repair counters (it changes
    /// while AAE repairs, read repairs, handoffs or transfers are still
    /// landing), plus the minimum per-server count of *initiated* AAE
    /// rounds — the settle loop uses the latter to require actual clean
    /// rounds, not just elapsed quiet time.
    fn settle_probe(&self) -> (u64, u64) {
        let servers = self.config.servers;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        (
            self.progress.repair_activity[..servers]
                .iter()
                .map(load)
                .sum(),
            self.progress.aae_rounds[..servers]
                .iter()
                .map(load)
                .min()
                .unwrap_or(0),
        )
    }

    // ---- post-run inspection (Cluster-equivalent surface) ----

    /// Read access to server `i`'s store node.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a server index.
    pub fn server(&self, i: usize) -> &StoreNode<M> {
        self.nodes[i].1.server()
    }

    /// Read access to client `j`'s session node.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not a client index.
    pub fn client(&self, j: usize) -> &ClientNode<M> {
        self.nodes[self.config.servers + j].1.client()
    }

    /// Number of replica servers.
    pub fn server_count(&self) -> usize {
        self.config.servers
    }

    /// Number of client sessions.
    pub fn client_count(&self) -> usize {
        self.config.clients
    }

    /// Mutable access to server `i`'s store node (harness convergence).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a server index.
    pub fn server_mut(&mut self, i: usize) -> &mut StoreNode<M> {
        self.nodes[i].1.server_mut()
    }
}

/// The post-run measurement surface — `oracle` / `converge` /
/// `anomaly_report` / `residual_copies` / `latency_report` /
/// `wire_report` — comes from [`FleetHarness`]'s provided methods, the
/// same implementation the simulator's `Cluster` runs.
impl<M, L> FleetHarness<M> for Fleet<M, L>
where
    M: Mechanism<StampedValue> + Send + 'static,
    L: Link<M>,
{
    fn mechanism(&self) -> &M {
        self.kit.mech()
    }

    fn member_servers(&self) -> Vec<usize> {
        (0..self.config.servers).collect()
    }

    fn client_count(&self) -> usize {
        self.config.clients
    }

    fn server_ref(&self, i: usize) -> &StoreNode<M> {
        self.server(i)
    }

    fn server_mut_ref(&mut self, i: usize) -> &mut StoreNode<M> {
        self.server_mut(i)
    }

    fn client_ref(&self, j: usize) -> &ClientNode<M> {
        self.client(j)
    }

    fn audit_view(&self) -> &RingView<ReplicaId> {
        &self.view
    }
}

/// Whether an idle worker polls its inbox before it parks, and the
/// worker's idle counters. The rule is "the last idle gap predicts the
/// next": the gate starts open (on a link whose [`Link::SPIN`] is not
/// zero), a poll that finds nothing closes it, and a packet that ends a
/// *parked* wait within `SPIN` of the worker going idle re-opens it. So
/// a saturated fleet stays in the cheap regime — packets find their
/// worker awake — and an idle or thinking one pays one missed window
/// per burst. Two smoother rules were measured and lost, and should not
/// be tried again blind: an EWMA of the gaps against `SPIN / 2`, and
/// "6 of the last 8 gaps ≤ `SPIN / 2`". Neither ever engages on
/// `durable_rmw` — a server's 0.4 ms fsync starves its peers, their
/// gaps grow past the threshold, and in the parked regime a hop is
/// ~27 µs, so they never come back — and the second halves the
/// `threaded_rmw` gain.
#[derive(Debug)]
struct SpinGate {
    spin_us: u64,
    open: bool,
    /// Counted since the last [`fold`](Self::fold).
    tally: IdleStats,
}

impl SpinGate {
    fn new(spin: StdDuration) -> Self {
        let spin_us = spin.as_micros() as u64;
        SpinGate {
            spin_us,
            open: spin_us > 0,
            tally: IdleStats::default(),
        }
    }

    /// A packet ended the poll; the gate stays open.
    fn on_hit(&mut self) {
        self.tally.spin_hits += 1;
    }

    /// The poll ran its whole window and found nothing.
    fn on_miss(&mut self) {
        self.tally.spin_misses += 1;
        self.open = false;
    }

    /// A packet ended a parked wait, `gap_us()` after the worker went
    /// idle (the clock is not read on a link that never polls).
    fn on_wake(&mut self, gap_us: impl FnOnce() -> u64) {
        self.open = self.spin_us > 0 && gap_us() <= self.spin_us;
    }

    /// The worker is about to sleep: the one moment a few shared writes
    /// cost nothing next to what follows.
    fn on_park(&mut self, progress: &Progress) {
        self.tally.parks += 1;
        self.fold(progress);
    }

    /// Adds the tally to the run's counters and zeroes it.
    fn fold(&mut self, progress: &Progress) {
        let t = std::mem::take(&mut self.tally);
        for (cell, n) in [
            (&progress.parks, t.parks),
            (&progress.spin_hits, t.spin_hits),
            (&progress.spin_misses, t.spin_misses),
        ] {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// One worker thread: a [`Host`] of its nodes on the wall clock, the
/// link they send on, and what the worker reports of them.
struct Worker<M: Mechanism<StampedValue>, L> {
    host: Host<StoreProc<M>>,
    link: L,
    shared: Arc<Shared>,
    progress: Arc<Progress>,
    /// Rebuilds the worker's server at a scenario's revive (a log-backed
    /// engine replays its durable prefix on open; without an engine
    /// factory the revive comes back empty, the diskless baseline).
    kit: NodeKit<M>,
    /// Slot by slot, what [`Worker::publish`] has already counted.
    tallies: Vec<Tally>,
}

/// A client's share of the run's counters, as published so far.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    ops: u64,
    done: bool,
}

/// The link as a host's outlet: a message for a node on another worker
/// goes on the link; of a message a node sends itself, which never
/// does, the link is told the bytes.
struct Wire<'a, L>(&'a L);

impl<M: Mechanism<StampedValue>, L: Link<M>> Outlet<Msg<M>> for Wire<'_, L> {
    fn forward(&mut self, from: NodeId, to: NodeId, msg: Msg<M>, _bytes: usize) {
        self.0.send(Packet { from, to, msg });
    }

    fn note(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Sent {
                from, to, bytes, ..
            } if from == to => self.0.note_self(bytes),
            _ => {}
        }
    }
}

impl<M: Mechanism<StampedValue>, L: Link<M>> Worker<M, L> {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.shared.now_us())
    }

    /// Takes one packet off the inbox. Once the run is over whatever is
    /// still queued is dropped where it is, teardown's wake included:
    /// nothing more is dispatched into a node the audit is about to
    /// read. A packet for a down server is dropped by the host (a
    /// crashed box answers nothing), and the depth accounting stays
    /// honest either way.
    fn receive(&mut self, Packet { from, to, msg }: Packet<M>) {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        self.progress.inbox_depth[to.0 as usize].fetch_sub(1, Ordering::Relaxed);
        self.run(Due::Deliver {
            from,
            to,
            msg,
            bytes: 0,
        });
    }

    /// Carries out one agenda entry or inbound message, now. A scenario's
    /// kill is the host's, on the server's own worker: the node is
    /// dropped like a power cut — in-memory state, armed timers, queued
    /// self-sends and the engine's unsynced buffer — and an inert husk
    /// holds the slot. The revive rebuilds it from the kit and posts it
    /// the view that re-admits it: the genesis view with its fresh `Up`
    /// incarnation. Merging that view re-arms the node's timers (it was
    /// built mid-run, so without `on_start`) and lets gossip spread the
    /// re-admission; the other servers' ones reach it by gossip too.
    fn run(&mut self, due: Due<Msg<M>, Timer>) {
        let now = self.now();
        match due {
            Due::Step(Step::Kill(slot)) => {
                self.progress.set_expected_down(slot, true);
                self.host.kill(NodeId(slot as u32), self.kit.husk(slot));
            }
            Due::Step(Step::Revive(slot)) => {
                let node = NodeId(slot as u32);
                self.host.revive(node, self.kit.server(slot));
                let mut view = self.kit.genesis_view().clone();
                view.bump(&ReplicaId(node.0), MemberStatus::Up);
                self.host.post(now, node, Msg::RingEpoch { view });
                self.progress.set_expected_down(slot, false);
            }
            Due::Step(Step::Faults(faults)) => self.host.network_mut().set_faults(faults),
            Due::Step(Step::CutConn(node)) => self.link.cut(NodeId(node as u32)),
            due => {
                if let Some(slot) = self.host.dispatch(now, due, &mut Wire(&self.link)) {
                    self.publish(slot, now);
                }
            }
        }
    }

    /// Publishes what the node in `slot` did at `now` into the progress
    /// atomics: liveness for every node, the settle probe's two numbers
    /// for a server, ops and completion for a client.
    fn publish(&mut self, slot: usize, now: SimTime) {
        let id = self.host.id(slot).0 as usize;
        let progress = &self.progress;
        progress.events[id].fetch_add(1, Ordering::Relaxed);
        progress.last_event_micros[id].store(now.as_micros().max(1), Ordering::Relaxed);
        match self.host.node(slot) {
            StoreProc::Server(s) => {
                let s = s.stats();
                let repairs = s.aae_divergent
                    + s.read_repairs
                    + s.handoffs
                    + s.transfers_in
                    + s.transfers_out;
                store_if_moved(&progress.repair_activity[id], repairs);
                store_if_moved(&progress.aae_rounds[id], s.aae_rounds);
            }
            StoreProc::Client(c) => {
                let tally = &mut self.tallies[slot];
                let stats = c.stats();
                let ops = stats.get_latency.count() + stats.put_latency.count();
                if ops > tally.ops {
                    progress
                        .ops_ok
                        .fetch_add(ops - tally.ops, Ordering::Relaxed);
                    tally.ops = ops;
                }
                if c.is_done() && !tally.done {
                    tally.done = true;
                    progress.done_clients.fetch_add(1, Ordering::Relaxed);
                    self.shared.main.unpark();
                }
            }
        }
    }
}

/// Stores `value` into `cell` if it moved. The settle probe's cells sit
/// next to the other servers' in one cache line and change only when a
/// repair or an AAE round happens, so a store per dispatch would bounce
/// that line between the server threads for nothing.
fn store_if_moved(cell: &AtomicU64, value: u64) {
    if cell.load(Ordering::Relaxed) != value {
        cell.store(value, Ordering::Relaxed);
    }
}

/// One worker thread's event loop over its host: messages from its
/// inbox, and its agenda — timers, messages on their way (held back, or
/// to the node itself), its scenario steps.
fn worker_loop<M: Mechanism<StampedValue>, L: Link<M>>(
    mut w: Worker<M, L>,
    rx: Receiver<Packet<M>>,
    inbox_capacity: usize,
    hang: bool,
) -> Vec<(NodeId, StoreProc<M>, SimRng)> {
    if hang {
        // A wedged worker: never starts its nodes, never drains its
        // inbox. Exists to prove the stall check fires.
        while !w.shared.shutdown.load(Ordering::Relaxed) {
            thread::sleep(StdDuration::from_millis(5));
        }
        return w.host.into_nodes();
    }

    let now = w.now();
    w.host.start(now, &mut Wire(&w.link));
    for slot in 0..w.host.nodes().len() {
        w.publish(slot, now);
    }

    let mut gate = SpinGate::new(L::SPIN);
    // Whether this pass follows the pull ahead of a due entry (below).
    let mut pulled = false;
    'run: loop {
        // The quiesce switches the network off for messages sent from
        // here on.
        w.host
            .set_faults(w.shared.faults_on.load(Ordering::Relaxed));

        // What is already queued goes before what is already due — the
        // simulator's order, where an earlier-delivered message precedes
        // a later-due timer: after a host freeze a request timer and
        // the replies that answer it are both pending, and firing the
        // timer first would fail a request whose replies had arrived.
        // An inbox holds at most its capacity at any instant, so that
        // bounds the drain and timers cannot starve under load.
        for _ in 0..inbox_capacity {
            let Ok(pkt) = rx.try_recv() else { break };
            w.receive(pkt);
        }
        // The stop check comes after the drain, not before it: the
        // drain may be what takes teardown's wake, and a worker that
        // went on to park would sleep through the flag it was sent for.
        if w.shared.shutdown.load(Ordering::Relaxed) {
            break;
        }

        // What the link holds but has not delivered yet — a socket's
        // frames in the kernel — is queued too: before a due entry is
        // done, one pull that waits for nothing, and what it brings goes
        // round through the drain first. Once per due moment, so a stream
        // of arrivals cannot hold the agenda off.
        let now_us = w.shared.now_us();
        let next = w.host.next_due();
        if next.is_some_and(|due| due <= now_us) && !std::mem::replace(&mut pulled, true) {
            if let Ok(pkt) = w.link.wait(&rx, StdDuration::ZERO) {
                w.receive(pkt);
                continue;
            }
        }
        pulled = false;

        // Do what is due now. A handler may arm another timer already
        // due, send to itself, or take long enough for replies to
        // arrive: go round again, inbox first.
        let mut worked = false;
        while let Some(due) = w.host.pop_due(now_us) {
            w.run(due);
            worked = true;
        }
        if worked {
            continue;
        }

        // Nothing is due at `now_us` any more: wait for the agenda's
        // next due instant or the next inbound packet, whichever comes
        // first (capped so a stop is noticed even if its wake found the
        // inbox full).
        let wait_us = next.map_or(20_000, |d| d.saturating_sub(now_us).min(20_000));

        // While the gate is open, poll before parking — never past the
        // next due instant, so timers stay punctual. There are more
        // workers than cores, so the poll steps aside for runnable work
        // between looks: a bare spin would hold the very CPU the reply
        // it waits for needs.
        let mut idle_us = 0;
        if gate.open {
            let window_us = wait_us.min(gate.spin_us);
            let polled = loop {
                match rx.try_recv() {
                    Ok(pkt) => break Some(pkt),
                    Err(TryRecvError::Empty) => {}
                    Err(TryRecvError::Disconnected) => break 'run,
                }
                idle_us = w.shared.now_us().saturating_sub(now_us);
                if idle_us >= window_us {
                    break None;
                }
                thread::yield_now();
            };
            match polled {
                Some(pkt) => {
                    gate.on_hit();
                    w.receive(pkt);
                    continue;
                }
                // Cut short by a due instant: there is work, and
                // nothing was learnt about the gap.
                None if window_us < gate.spin_us => continue,
                None => gate.on_miss(),
            }
        }

        gate.on_park(&w.progress);
        let left = StdDuration::from_micros(wait_us.saturating_sub(idle_us));
        match w.link.wait(&rx, left) {
            Ok(pkt) => {
                gate.on_wake(|| w.shared.now_us().saturating_sub(now_us));
                w.receive(pkt);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    gate.fold(&w.progress);
    w.host.into_nodes()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate, row by row: `(SPIN in µs, what happened, open after)`.
    #[test]
    fn the_spin_gate_as_a_table() {
        #[derive(Debug)]
        enum Event {
            Hit,
            Miss,
            Wake(u64),
            Park,
        }
        use Event::*;
        let rows: &[(u64, &[Event], bool)] = &[
            (50, &[], true),
            (0, &[], false),
            (50, &[Hit, Hit], true),
            (50, &[Miss], false),
            (50, &[Miss, Park, Wake(50)], true),
            (50, &[Miss, Park, Wake(51)], false),
            (50, &[Miss, Park, Wake(7), Hit, Miss], false),
            (50, &[Miss, Park, Wake(51), Park, Wake(3)], true),
            (0, &[Park, Wake(0)], false),
        ];
        for (spin_us, steps, open) in rows {
            let progress = Progress::new(0);
            let mut gate = SpinGate::new(StdDuration::from_micros(*spin_us));
            for step in *steps {
                match step {
                    Hit => gate.on_hit(),
                    Miss => gate.on_miss(),
                    Wake(gap) => gate.on_wake(|| *gap),
                    Park => gate.on_park(&progress),
                }
            }
            assert_eq!(gate.open, *open, "SPIN {spin_us}: {steps:?}");
            // Every step is counted once, wherever the fold fell.
            gate.fold(&progress);
            let count = |f: fn(&Event) -> bool| steps.iter().filter(|s| f(s)).count() as u64;
            let stats = FleetStats {
                progress: Arc::new(progress),
            };
            let want = IdleStats {
                parks: count(|s| matches!(s, Park)),
                spin_hits: count(|s| matches!(s, Hit)),
                spin_misses: count(|s| matches!(s, Miss)),
            };
            assert_eq!(stats.idle(), want, "SPIN {spin_us}: {steps:?}");
        }
        // A link that never polls never reads the clock for the gate.
        SpinGate::new(StdDuration::ZERO).on_wake(|| unreachable!("SPIN is zero"));
    }
}
