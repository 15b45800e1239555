//! Stall diagnostics: what lets a runtime run fail fast — with per-node
//! detail — instead of letting a deadlocked or wedged fleet hang until
//! the run budget expires.
//!
//! Progress is defined as *completed client operations* (GETs + PUTs
//! acknowledged to a client). While any client is still working, the
//! fleet's main loop ([`Fleet::run`](crate::fleet::Fleet::run), the one
//! supervisor of a run) requires the fleet-wide op counter to move at
//! least once per `stall_budget`; if it does not, it snapshots every
//! node's inbox depth, event count and last-event timestamp into a
//! [`StallReport`] ([`diagnose`]) and ends the run with it. This module
//! holds the two halves of that contract: the [`Progress`] counters the
//! workers write, and the report the main loop reads them into.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::{Duration as StdDuration, Instant};

/// Shared progress counters, written by worker threads after every
/// dispatch and read by the fleet's main loop — the one carrier of live
/// state in a run. All access is relaxed-atomic: the reader needs
/// liveness signals, not a consistent cut.
#[derive(Debug)]
pub struct Progress {
    /// Client operations completed fleet-wide (GET + PUT acks observed).
    pub ops_ok: AtomicU64,
    /// Clients that have finished their closed-loop cycles.
    pub done_clients: AtomicU64,
    /// Events dispatched per node (messages + timers + start).
    pub events: Vec<AtomicU64>,
    /// Monotonic µs timestamp of each node's most recent dispatch.
    pub last_event_micros: Vec<AtomicU64>,
    /// Current inbox depth per node (enqueued − dispatched).
    pub inbox_depth: Vec<AtomicI64>,
    /// Nodes the harness has *deliberately* taken down (crash schedule):
    /// their silence is expected, and the stall diagnostics must not
    /// present them as wedged.
    pub expected_down: Vec<AtomicBool>,
    /// Per node (a client's stays 0), the sum of a server's repair
    /// counters — AAE divergences, read repairs, handoffs, transfers in
    /// and out: it moves while repairs are still landing, and the
    /// quiesce phase waits for it to sit still.
    pub repair_activity: Vec<AtomicU64>,
    /// Per node (a client's stays 0), the AAE rounds a server has
    /// initiated — the quiesce phase requires clean rounds, not just
    /// elapsed quiet time.
    pub aae_rounds: Vec<AtomicU64>,
    /// Times a worker went to sleep on an empty inbox, fleet-wide. The
    /// three idle counters are kept in worker-local integers and folded
    /// in here only when a worker parks or exits — dispatch writes
    /// nothing shared for them (read through `FleetStats::idle`).
    pub parks: AtomicU64,
    /// Idle polls ([`Link::SPIN`](crate::Link::SPIN)) a packet ended.
    pub spin_hits: AtomicU64,
    /// Idle polls that ran their whole window and found nothing.
    pub spin_misses: AtomicU64,
}

impl Progress {
    /// Zeroed counters for `nodes` hosted nodes.
    pub fn new(nodes: usize) -> Self {
        Progress {
            ops_ok: AtomicU64::new(0),
            done_clients: AtomicU64::new(0),
            events: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            last_event_micros: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            inbox_depth: (0..nodes).map(|_| AtomicI64::new(0)).collect(),
            expected_down: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            repair_activity: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            aae_rounds: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            parks: AtomicU64::new(0),
            spin_hits: AtomicU64::new(0),
            spin_misses: AtomicU64::new(0),
        }
    }

    /// Marks node `i` as deliberately down (or back up): crash-schedule
    /// bookkeeping that [`diagnose`] folds into its report.
    pub fn set_expected_down(&self, i: usize, down: bool) {
        self.expected_down[i].store(down, Ordering::Relaxed);
    }
}

/// One node's liveness diagnostics at the moment a stall was declared.
#[derive(Clone, Debug)]
pub struct NodeDiag {
    /// Node index (servers first, then clients — fleet layout order).
    pub node: usize,
    /// Messages sitting unprocessed in the node's inbox.
    pub inbox_depth: i64,
    /// Total events the node has dispatched.
    pub events: u64,
    /// µs since the node last dispatched anything (u64::MAX = never).
    pub last_event_age_micros: u64,
    /// The harness deliberately took this node down (crash schedule):
    /// its silence is expected, not a wedge.
    pub expected_down: bool,
}

/// Why and where a run stalled: returned as the `Err` of
/// [`Fleet::run`](crate::fleet::Fleet::run).
#[derive(Clone, Debug)]
pub struct StallReport {
    /// How long the op counter sat still before the stall was declared.
    pub waited: StdDuration,
    /// Fleet-wide ops completed when the stall was declared.
    pub ops_ok: u64,
    /// Clients done when the stall was declared.
    pub done_clients: u64,
    /// Per-node diagnostics, fleet layout order.
    pub nodes: Vec<NodeDiag>,
}

impl StallReport {
    /// Nodes the crash schedule had deliberately down when the stall
    /// was declared.
    #[must_use]
    pub fn expected_down(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .filter(|d| d.expected_down)
            .map(|d| d.node)
            .collect()
    }

    /// The nodes that actually look wedged: a silent node (never
    /// dispatched, or quiet for at least as long as the stall wait)
    /// that the harness did *not* take down on purpose. A
    /// deliberately-killed server never appears here — that is the
    /// regression the expected-down set exists to prevent.
    #[must_use]
    pub fn wedged_nodes(&self) -> Vec<usize> {
        let stale = self.waited.as_micros() as u64;
        self.nodes
            .iter()
            .filter(|d| !d.expected_down && d.last_event_age_micros >= stale)
            .map(|d| d.node)
            .collect()
    }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "runtime stalled: no client op completed for {:?} ({} ops, {} clients done)",
            self.waited, self.ops_ok, self.done_clients
        )?;
        for d in &self.nodes {
            writeln!(
                f,
                "  node {:>3}: inbox={:<4} events={:<7} last_event={}",
                d.node,
                d.inbox_depth,
                d.events,
                match (d.expected_down, d.last_event_age_micros) {
                    (true, _) => "down (expected)".to_string(),
                    (false, u64::MAX) => "never".to_string(),
                    (false, age) => format!("{age}µs ago"),
                }
            )?;
        }
        Ok(())
    }
}

/// Snapshots the current per-node liveness diagnostics into a
/// [`StallReport`] claiming `waited` of stillness: the stall budget
/// when the op counter stopped, the run budget when that expired.
pub fn diagnose(progress: &Progress, origin: Instant, waited: StdDuration) -> StallReport {
    let now_us = origin.elapsed().as_micros() as u64;
    let nodes = (0..progress.events.len())
        .map(|i| {
            let last = progress.last_event_micros[i].load(Ordering::Relaxed);
            NodeDiag {
                node: i,
                inbox_depth: progress.inbox_depth[i].load(Ordering::Relaxed),
                events: progress.events[i].load(Ordering::Relaxed),
                last_event_age_micros: if last == 0 {
                    u64::MAX
                } else {
                    now_us.saturating_sub(last)
                },
                expected_down: progress.expected_down[i].load(Ordering::Relaxed),
            }
        })
        .collect();
    StallReport {
        waited,
        ops_ok: progress.ops_ok.load(Ordering::Relaxed),
        done_clients: progress.done_clients.load(Ordering::Relaxed),
        nodes,
    }
}
