//! # runtime — the kvstore protocol on real threads
//!
//! The deterministic simulator (`simnet`) is one driver for the store's
//! protocol logic; this crate is the other. The *same*
//! [`StoreNode`](kvstore::node::StoreNode) and
//! [`ClientNode`](kvstore::client::ClientNode) code, hosted by the
//! *same* [`simnet::Host`], runs here on std threads (no async runtime,
//! nothing vendored beyond std).
//!
//! **One threaded fleet, one host.** Each worker thread is a
//! [`simnet::Host`] of its nodes on the wall clock — the simulator is
//! one on a virtual clock — so the node's context
//! ([`simnet::ProcessCtx`]), its agenda (timers, messages on their way,
//! the scenario's steps for its nodes), its fault plane and its
//! kill and revive are the simulator's own. What is particular to
//! threads lives in [`fleet`], once: the worker event loop, its
//! per-dispatch progress publishing, the main loop that watches over a
//! run (stall check, settle/quiesce) and the post-run
//! [`FleetHarness`](kvstore::harness::FleetHarness) surface. What is
//! not particular to threads is `kvstore`'s, shared with the simulator:
//! [`NodeKit`](kvstore::cluster::NodeKit) builds (and respawns) the
//! nodes, [`StoreProc`](kvstore::cluster::StoreProc) is the one
//! [`simnet::Process`] either kind of node is, and the node itself
//! charges what it sends.
//! [`Fleet`] is generic over a [`Link`] ([`link`]), whose whole job is
//! how an addressed message gets from one worker to another worker's
//! inbox. A link must provide: `open` at run start (it is handed the
//! per-node inbox senders — every inbox carries [`Packet`]s — the
//! [`Progress`] counters and the shutdown flag), a `send` of an
//! addressed message that never waits on the destination node (see
//! [`Link::send`]), `close` returning its ledger, and optionally a
//! cut of a node's connections ([`Link::cut`], a scenario's `CutConn`).
//! Self-sends never reach a link: the host delivers them itself and
//! counts them, with every other send, in its network's stats, which a
//! run sums into [`Fleet::network_report`]. A link that receives on
//! the workers' own threads also gives each worker its own handle
//! ([`Link::worker`]), does its receiving in the worker's wait
//! ([`Link::wait`]) and hears of what the main loop posts into an inbox
//! ([`Link::wake`]); the defaults are
//! a clone, the inbox's `try_recv` (a zero timeout) or `recv_timeout`,
//! and nothing. And a link may say, as [`Link::SPIN`], how long an idle
//! worker of its fleet looks through it — a [`Link::wait`] of zero a
//! look — before parking: zero unless the link has measured otherwise.
//! Two links exist: [`ChannelLink`] here ([`RuntimeFleet`]), and the
//! TCP fabric link in `transport` (`SocketFleet`).
//!
//! What the fleet gives every link:
//!
//! * one event-loop thread per server, clients partitioned across a
//!   configurable number of worker threads — and no other thread: the
//!   caller of [`Fleet::run`] is the supervisor, [`Progress`] is the
//!   one live carrier between it and the workers, and nothing on the
//!   dispatch path takes a lock;
//! * an idle arm that keeps a busy fleet awake: a worker out of work
//!   polls for at most [`Link::SPIN`] before it parks, gated on its last
//!   idle gap, and [`FleetStats::idle`] reports parks, hits and misses
//!   (the mechanism and its numbers are in [`fleet`]'s docs);
//! * bounded inboxes — a full inbox is wire loss, which the protocol's
//!   timeouts, retries and anti-entropy already absorb, so no
//!   backpressure deadlock is possible;
//! * one agenda per worker on the monotonic clock, the simulator's own
//!   queue ([`simnet::TimerWheel`]) — so timers keep the simulator's
//!   same-instant FIFO order and a cancelled one never fires on either
//!   driver — and the simulator's order between the two event sources:
//!   what is already queued is handled before what is already due;
//! * per-node seeded [`SimRng`](simnet::SimRng) streams forked exactly
//!   like the simulator forks them;
//! * the simulator's own fault plane: [`RuntimeConfig::faults`] is a
//!   [`simnet::NetworkConfig`] — loss, latency model, bandwidth,
//!   reorder, duplicate, stale replay, per-link overrides — and each
//!   worker's host asks a [`simnet::Network`] built from it for every
//!   copy's fate, so one network value drives both drivers;
//! * the simulator's own run schedule: [`RuntimeConfig::scenario`] is a
//!   [`simnet::Scenario`], whose kills, revives, fault switches and
//!   connection cuts the workers carry out from their agendas;
//! * a stall check in the main loop that fails a wedged run fast with
//!   per-node inbox depths and last-event timestamps ([`watchdog`]).
//!
//! What this buys over the simulator is *real* concurrency: sustained
//! throughput and tail latency under hundreds of concurrent closed-loop
//! clients (measured by the repo benchmark, `perfbench/`), while the
//! simulator remains the conformance oracle — `tests/conformance.rs`
//! runs a seeded workload on both drivers and asserts both fleets
//! converge to AAE-equivalent, residual-audit-clean, anomaly-free
//! states, and `tests/link_loop.rs` drives the worker loop message by
//! message through a scripted link.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fleet;
pub mod link;
pub mod watchdog;

pub use fleet::{Fleet, FleetStats, IdleStats, NodeSnapshot, RunReport, RuntimeFleet};
pub use kvstore::cluster::EngineFactory;
pub use link::{ChannelLink, ChannelStats, Link, Packet, Wiring};
pub use watchdog::{NodeDiag, Progress, StallReport};

use kvstore::config::{ClientConfig, StoreConfig};
use simnet::{NetworkConfig, Scenario};
use std::time::Duration as StdDuration;

/// Complete configuration of a threaded fleet's run, on any link: a
/// [`RuntimeFleet`] or a `transport::SocketFleet`.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of replica servers (one event-loop thread each).
    pub servers: usize,
    /// Number of closed-loop client sessions.
    pub clients: usize,
    /// Worker threads the client sessions are partitioned across. One
    /// by default: the partition the benchmark runs both links with.
    pub client_workers: usize,
    /// Read-modify-write cycles per client.
    pub cycles_per_client: u32,
    /// Store protocol parameters (shared with the simulator driver).
    pub store: StoreConfig,
    /// Client session parameters (its `cycles` field is overridden by
    /// `cycles_per_client`).
    pub client: ClientConfig,
    /// The network between the nodes while the run is active: `None`
    /// (the default) hands every message straight to the link; `Some`
    /// asks a [`simnet::Network`] of this configuration — the
    /// simulator's fault model, its delays served on the monotonic
    /// clock — for every copy's fate. (`None`, not a default
    /// `NetworkConfig`: that one's link carries 500 µs of latency.)
    /// The plane sits above the link, so it works the same on every
    /// link, TCP included; a scenario's `Faults` step needs it `Some`.
    /// Faults go off for the quiesce phase so the fleet can settle.
    pub faults: Option<NetworkConfig>,
    /// Server node indices whose worker threads wedge on purpose —
    /// never start, never drain their inbox. For stall-report tests.
    pub hang_servers: Vec<usize>,
    /// The run is declared stalled after this long without a single
    /// client op completing.
    pub stall_budget: StdDuration,
    /// Hard wall-clock stop for the whole run.
    pub run_budget: StdDuration,
    /// Fault-free settling budget after the last client finishes,
    /// before threads are stopped (lets repairs, handoffs and AAE
    /// land). The fleet exits the quiesce early once repair activity
    /// has been quiet for [`settle_window`](Self::settle_window).
    pub quiesce: StdDuration,
    /// How long the fleet-wide repair counters (AAE divergence, read
    /// repairs, handoffs, transfers) must sit still before the quiesce
    /// is considered settled.
    pub settle_window: StdDuration,
    /// The run schedule, in wall time from run start. Each step is done
    /// by the worker hosting its node (a `Faults` step, which needs
    /// `faults`, by every worker); a revived server re-admits itself in
    /// band under the fresh `Up` incarnation the fleet's audit view names.
    pub scenario: Scenario,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            servers: 3,
            clients: 8,
            client_workers: 1,
            cycles_per_client: 20,
            store: StoreConfig::default(),
            client: ClientConfig::default(),
            faults: None,
            hang_servers: Vec::new(),
            stall_budget: StdDuration::from_secs(10),
            run_budget: StdDuration::from_secs(120),
            quiesce: StdDuration::from_millis(500),
            settle_window: StdDuration::from_millis(400),
            scenario: Scenario::default(),
        }
    }
}
