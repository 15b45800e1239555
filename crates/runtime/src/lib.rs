//! # runtime — the kvstore protocol on real threads
//!
//! The deterministic simulator (`simnet`) is one driver for the store's
//! protocol logic; this crate is the other. The *same*
//! [`StoreNode`](kvstore::node::StoreNode) and
//! [`ClientNode`](kvstore::client::ClientNode) code — written against
//! [`kvstore::ctx::NodeCtx`] — runs here on std threads (no async
//! runtime, nothing vendored beyond std).
//!
//! **One threaded fleet.** Everything about hosting a node on a thread
//! lives in [`fleet`], once: the worker event loop, its write-through
//! [`NodeCtx`](kvstore::ctx::NodeCtx) and its dispatch bookkeeping, the
//! crash plane, the fault router with its held-back packets, the main
//! loop that watches over a run (crash and link schedules, stall check,
//! settle/quiesce) and the post-run
//! [`FleetHarness`](kvstore::harness::FleetHarness) surface. What is
//! not particular to threads is `kvstore`'s, shared with the simulator:
//! [`NodeKit`](kvstore::cluster::NodeKit) builds (and respawns) the
//! nodes, [`StoreProc`](kvstore::cluster::StoreProc) dispatches an
//! event into one, and the node itself charges what it sends.
//! [`Fleet`] is generic over a [`Link`] ([`link`]), whose whole job is
//! how an addressed message gets from one worker to another worker's
//! inbox. A link must provide: `open` at run start (it is handed the
//! per-node inbox senders — every inbox carries [`Packet`]s — the
//! [`Progress`] counters and the shutdown flag), a `send` of an
//! addressed message that never waits on the destination node (see
//! [`Link::send`]), `close` returning its ledger, and optionally a
//! per-tick schedule hook and a note of the bytes charged for
//! self-sends (which the loop delivers locally and never hands to
//! `send`). Two links exist:
//! [`ChannelLink`] here ([`RuntimeFleet`]), and the TCP fabric link in
//! `transport` (`SocketFleet`).
//!
//! What the fleet gives every link:
//!
//! * one event-loop thread per server, clients partitioned across a
//!   configurable number of worker threads — and no other thread: the
//!   caller of [`Fleet::run`] is the supervisor, [`Progress`] is the
//!   one live carrier between it and the workers, and nothing on the
//!   dispatch path takes a lock;
//! * bounded inboxes — a full inbox is wire loss, which the protocol's
//!   timeouts, retries and anti-entropy already absorb, so no
//!   backpressure deadlock is possible;
//! * a per-node [`TimerWheel`] on the monotonic
//!   clock, with the simulator's same-instant FIFO semantics (and real
//!   cancellation, which the simulator approximates by ignoring fires),
//!   and the simulator's order between the two event sources: what is
//!   already queued is handled before what is already due;
//! * per-node seeded [`SimRng`](simnet::SimRng) streams forked exactly
//!   like the simulator forks them;
//! * an optional loss/latency/duplicate/replay-injecting layer
//!   ([`FaultPlan`]) and scheduled crash/respawn ([`CrashEvent`]) so
//!   fault scenarios carry over from the simulated suites;
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
pub mod wheel;

pub use fleet::{Fleet, FleetStats, NodeSnapshot, RunReport, RuntimeFleet};
pub use kvstore::cluster::EngineFactory;
pub use link::{ChannelLink, ChannelStats, Link, Packet, Wiring};
pub use watchdog::{NodeDiag, Progress, StallReport};
pub use wheel::TimerWheel;

use kvstore::config::{ClientConfig, StoreConfig};
use std::time::Duration as StdDuration;

/// Network fault injection for the threaded runtime: the runtime
/// analogue of `simnet::NetworkConfig`'s loss/latency knobs, applied at
/// routing time while a run is active (faults are switched off for the
/// quiesce phase so the fleet can settle).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Probability of dropping each inter-node message.
    pub drop_probability: f64,
    /// When set, each inter-node message is held back for a uniform
    /// random delay in `[lo, hi]` microseconds.
    pub delay_micros: Option<(u64, u64)>,
    /// Probability a routed inter-node message is delivered *twice*
    /// (the runtime analogue of `simnet::LinkFaults::duplicate_probability`;
    /// with a delay window active, the copy samples its own delay and
    /// usually also arrives out of order).
    pub duplicate_probability: f64,
    /// Probability that, on a routed delivery, one previously captured
    /// frame from the same directed link is re-delivered — a *stale
    /// replay* of arbitrarily old traffic (the runtime analogue of
    /// `simnet::LinkFaults::replay_probability`).
    pub replay_probability: f64,
    /// Server node indices whose worker threads wedge on purpose —
    /// never start, never drain their inbox. For stall-report tests.
    pub hang_servers: Vec<usize>,
}

impl FaultPlan {
    /// True when the plan injects nothing (routing can skip the fault
    /// path entirely).
    pub fn is_noop(&self) -> bool {
        self.drop_probability <= 0.0
            && self.delay_micros.is_none()
            && self.duplicate_probability <= 0.0
            && self.replay_probability <= 0.0
            && self.hang_servers.is_empty()
    }

    /// The runtime counterpart of `simnet::LinkFaults::hostile()`:
    /// heavy duplication and stale replay, plus a small delay window so
    /// copies land out of order. Used by the `NET_FAULTS=hostile`
    /// suites and the crash-mid-burst oracles.
    #[must_use]
    pub fn hostile() -> Self {
        FaultPlan {
            drop_probability: 0.0,
            delay_micros: Some((0, 4_000)),
            duplicate_probability: 0.15,
            replay_probability: 0.05,
            hang_servers: Vec::new(),
        }
    }
}

/// One scheduled crash/respawn of a server during a [`RuntimeFleet`]
/// run: at `kill_after` (wall clock from run start) the server's node is
/// dropped on its worker thread — in-memory state and any storage-engine
/// buffer past the last group sync are gone, like a power cut — and at
/// `respawn_after` it is rebuilt from its engine factory (replaying its
/// durable log when the fleet is durable) and re-admitted **in band**:
/// the control plane posts it a view (`Msg::RingEpoch`) naming it `Up`
/// under a fresh incarnation.
#[derive(Clone, Copy, Debug)]
pub struct CrashEvent {
    /// Server index to crash.
    pub server: usize,
    /// Wall clock from run start to the kill.
    pub kill_after: StdDuration,
    /// Wall clock from run start to the respawn (must exceed
    /// `kill_after`).
    pub respawn_after: StdDuration,
}

/// Complete configuration of a [`RuntimeFleet`] run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of replica servers (one event-loop thread each).
    pub servers: usize,
    /// Number of closed-loop client sessions.
    pub clients: usize,
    /// Worker threads the client sessions are partitioned across.
    pub client_workers: usize,
    /// Read-modify-write cycles per client.
    pub cycles_per_client: u32,
    /// Store protocol parameters (shared with the simulator driver).
    pub store: StoreConfig,
    /// Client session parameters (its `cycles` field is overridden by
    /// `cycles_per_client`).
    pub client: ClientConfig,
    /// Network fault injection while the run is active.
    pub faults: FaultPlan,
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
    /// Scheduled server crash/respawn events (see [`CrashEvent`]).
    pub crashes: Vec<CrashEvent>,
}

impl RuntimeConfig {
    /// Returns a copy whose fault plan is set from the `NET_FAULTS`
    /// environment variable: `hostile` switches on
    /// [`FaultPlan::hostile`] (duplication, stale replay, a small delay
    /// window); anything else leaves the plan as configured. The
    /// runtime counterpart of `ClusterConfig::with_env_net_faults`.
    #[must_use]
    pub fn with_env_net_faults(mut self) -> Self {
        if std::env::var("NET_FAULTS").as_deref() == Ok("hostile") {
            let hang = std::mem::take(&mut self.faults.hang_servers);
            self.faults = FaultPlan {
                hang_servers: hang,
                ..FaultPlan::hostile()
            };
        }
        self
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            servers: 3,
            clients: 8,
            client_workers: 2,
            cycles_per_client: 20,
            store: StoreConfig::default(),
            client: ClientConfig::default(),
            faults: FaultPlan::default(),
            stall_budget: StdDuration::from_secs(10),
            run_budget: StdDuration::from_secs(120),
            quiesce: StdDuration::from_millis(500),
            settle_window: StdDuration::from_millis(400),
            crashes: Vec::new(),
        }
    }
}
