//! Stall watchdog: a supervisor thread that fails a runtime run fast —
//! with per-node diagnostics — instead of letting a deadlocked or wedged
//! fleet hang until the run budget expires.
//!
//! Progress is defined as *completed client operations* (GETs + PUTs
//! acknowledged to a client). While any client is still working, the
//! watchdog requires the fleet-wide op counter to move at least once per
//! `stall_budget`; if it does not, the watchdog snapshots every node's
//! inbox depth, event count and last-event timestamp into a
//! [`StallReport`], marks the run stalled and pulls the global shutdown
//! flag so worker threads exit promptly.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant};

/// Shared progress counters, written by worker threads after every
/// dispatch and read by the watchdog. All access is relaxed-atomic: the
/// watchdog needs liveness signals, not a consistent cut.
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
    /// Set by the watchdog when it declares a stall.
    pub stalled: AtomicBool,
    /// Nodes the harness has *deliberately* taken down (crash schedule):
    /// their silence is expected, and the watchdog's diagnostics must
    /// not present them as wedged.
    pub expected_down: Vec<AtomicBool>,
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
            stalled: AtomicBool::new(false),
            expected_down: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Marks node `i` as deliberately down (or back up): crash-schedule
    /// bookkeeping the watchdog folds into its diagnostics.
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
    /// How long the op counter sat still before the watchdog fired.
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

/// Supervises `progress` until all `total_clients` clients finish or a
/// stall is declared. Runs on its own thread; returns when the run
/// completes, stalls, or `shutdown` is pulled externally.
///
/// On stall: fills `report_slot`, sets `progress.stalled`, and pulls
/// `shutdown` so workers exit.
pub fn supervise(
    progress: Arc<Progress>,
    shutdown: Arc<AtomicBool>,
    report_slot: Arc<Mutex<Option<StallReport>>>,
    origin: Instant,
    total_clients: u64,
    stall_budget: StdDuration,
    poll: StdDuration,
) {
    let mut last_ops = progress.ops_ok.load(Ordering::Relaxed);
    let mut still_since = Instant::now();
    loop {
        std::thread::sleep(poll);
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        if progress.done_clients.load(Ordering::Relaxed) >= total_clients {
            // Run finished; the main thread handles quiesce + shutdown.
            return;
        }
        let ops = progress.ops_ok.load(Ordering::Relaxed);
        if ops != last_ops {
            last_ops = ops;
            still_since = Instant::now();
            continue;
        }
        let waited = still_since.elapsed();
        if waited < stall_budget {
            continue;
        }
        let report = diagnose(&progress, origin, waited);
        *report_slot.lock().expect("watchdog slot") = Some(report);
        progress.stalled.store(true, Ordering::Relaxed);
        shutdown.store(true, Ordering::Relaxed);
        return;
    }
}

/// Snapshots the current per-node liveness diagnostics into a
/// [`StallReport`] claiming `waited` of stillness. Also used by the
/// fleet when the overall run budget expires.
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
