//! One rep: a fresh fleet built from the rep's seed, run to completion
//! through its public API, then audited outside the timed window.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dvv::mechanisms::{DvvMechanism, WireMechanism};
use kvstore::cluster::EngineFactory;
use kvstore::harness::FleetHarness;
use kvstore::messages::WireStats;
use kvstore::node::NodeStats;
use kvstore::value::StampedValue;
use runtime::{RunReport, RuntimeFleet, StallReport};
use storage::{LogConfig, LogEngine};
use transport::{FabricStats, SocketFleet};
use workloads::Histogram;

use crate::shapes::{Driver, Shape, SERVERS};
use crate::sys;
use crate::trace::{self, Counters, Traced, TracedEngine};

/// The mechanism under test, plain or traced, and how it opens a
/// durable engine for a server slot.
pub trait BenchMech: WireMechanism<StampedValue> + Send + Sync + 'static {
    const TRACED: bool;
    fn log_factory(dir: &Path) -> EngineFactory<Self>;
}

impl BenchMech for DvvMechanism {
    const TRACED: bool = false;
    fn log_factory(dir: &Path) -> EngineFactory<Self> {
        EngineFactory::log_in(dir, LogConfig::default())
    }
}

impl BenchMech for Traced<DvvMechanism> {
    const TRACED: bool = true;
    /// The layout of `EngineFactory::log_in`, each engine wrapped.
    fn log_factory(dir: &Path) -> EngineFactory<Self> {
        let dir = dir.to_path_buf();
        EngineFactory::new(move |slot| {
            let path = dir.join(format!("node-{slot}.log"));
            let log = LogEngine::open(path, LogConfig::default()).expect("open log engine");
            Box::new(TracedEngine(log))
        })
    }
}

/// Most steal a rep may see and still count as measured on a quiet
/// host ([`Rep::quiet`]).
pub const QUIET_STEAL_PCT: f64 = 3.0;

/// Everything one rep measured, raw.
#[derive(Debug)]
pub struct Rep {
    /// Client GETs + PUTs completed (`RunReport::ops_ok`).
    pub ops_ok: u64,
    /// `RunReport::elapsed`: the fleet's own timed window.
    pub elapsed_s: f64,
    /// Wall time of fleet construction + `run()` outside that window.
    pub setup_s: f64,
    /// Process CPU spent across fleet construction and `run()`.
    pub cpu_s: f64,
    /// `VmHWM` when `run()` returned, before the audit allocated.
    pub peak_rss_mb: f64,
    /// Jiffies the hypervisor stole from the machine, and all jiffies,
    /// across fleet construction and `run()`.
    pub steal_jiffies: u64,
    pub host_jiffies: u64,
    pub get: Histogram,
    pub put: Histogram,
    pub retries: u64,
    pub failed_cycles: u64,
    pub wire: WireStats,
    /// Server counters summed over the fleet (only the four the report
    /// reads: quorum timeouts, read repairs, AAE rounds, ignored dups).
    pub node: NodeStats,
    pub mean_siblings: f64,
    pub meta_bytes_per_key: f64,
    /// Writes the sessions logged, acked ones, and Σ observed ids.
    pub writes: u64,
    pub acked_writes: u64,
    pub observed_ids: u64,
    /// Events dispatched fleet-wide (threaded fleets only).
    pub events: Option<u64>,
    /// The fabric ledger (socket fleets only).
    pub fabric: Option<FabricStats>,
    /// Total log file bytes after a final sync (durable fleets only).
    pub log_bytes: Option<u64>,
    /// Mechanism/engine call counters (traced reps only).
    pub trace: Option<Counters>,
    /// Why the rep failed its correctness gate, if it did.
    pub gate_failure: Option<String>,
}

impl Rep {
    pub fn ops_per_s(&self) -> f64 {
        self.ops_ok as f64 / self.elapsed_s.max(1e-9)
    }

    /// Ops that did not complete first time: retries and abandoned
    /// cycles, or every op of a rep that failed its gate.
    pub fn failed_ops(&self) -> u64 {
        if self.gate_failure.is_some() {
            self.attempted_ops()
        } else {
            self.retries + self.failed_cycles
        }
    }

    /// Share of the machine's CPU time the hypervisor withheld during
    /// the rep, in percent.
    pub fn steal_pct(&self) -> f64 {
        100.0 * self.steal_jiffies as f64 / self.host_jiffies.max(1) as f64
    }

    /// Whether the host left the rep alone. An undisturbed sandbox
    /// reads 0–1 % steal over a rep, a throttled one 10–40 % (and runs
    /// the same rep 3–10× slower), for minutes at a time.
    pub fn quiet(&self) -> bool {
        self.steal_pct() <= QUIET_STEAL_PCT
    }

    pub fn attempted_ops(&self) -> u64 {
        (self.ops_ok + self.retries + self.failed_cycles).max(1)
    }
}

/// Runs one rep of `shape` with `cycles` cycles per client.
/// `scratch` is where a durable fleet may create (and must remove) its
/// log directory.
pub fn run_rep<M: BenchMech>(shape: &Shape, mech: M, seed: u64, cycles: u32, scratch: &Path) -> Rep
where
    M::Context: Send,
{
    if M::TRACED {
        trace::discard_thread();
        trace::take_total();
    }
    let host0 = sys::host_steal_and_total_jiffies();
    let cpu0 = sys::process_cpu_s();
    let start = (Instant::now(), cpu0, host0);
    match shape.driver {
        Driver::Threaded => {
            let mut fleet = RuntimeFleet::new(seed, mech, shape.runtime(cycles));
            let outcome = fleet.run();
            let mut rep = finish::<M, _>(&mut fleet, outcome, start);
            rep.events = Some(events_of(&fleet));
            rep
        }
        Driver::Durable => {
            let dir = fresh_dir(scratch);
            let mut fleet =
                RuntimeFleet::new_durable(seed, mech, shape.runtime(cycles), M::log_factory(&dir));
            let outcome = fleet.run();
            let mut rep = finish::<M, _>(&mut fleet, outcome, start);
            rep.events = Some(events_of(&fleet));
            for i in 0..SERVERS {
                fleet.server_mut(i).sync_storage();
            }
            rep.log_bytes = Some(dir_bytes(&dir));
            drop(fleet);
            std::fs::remove_dir_all(&dir).expect("remove the rep's log directory");
            rep
        }
        Driver::Socket => {
            let mut fleet = SocketFleet::new(seed, mech, shape.socket(cycles));
            let outcome = fleet.run();
            let mut rep = finish::<M, _>(&mut fleet, outcome, start);
            rep.fabric = Some(fleet.fabric_report());
            rep
        }
    }
}

fn events_of<M>(fleet: &RuntimeFleet<M>) -> u64
where
    M: BenchMech,
    M::Context: Send,
{
    let stats = fleet.stats();
    (0..stats.len()).map(|i| stats.snapshot(i).events).sum()
}

/// Closes the timed part of a rep, then reads the fleet's public stats
/// and runs the correctness gate: every client done, every dot names
/// one write, and — after the harness converge — no lost update and no
/// false concurrency against the sessions' own observation logs.
fn finish<M, H>(
    fleet: &mut H,
    outcome: Result<RunReport, StallReport>,
    (t0, cpu0, host0): (Instant, f64, (u64, u64)),
) -> Rep
where
    M: BenchMech,
    H: FleetHarness<M>,
{
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = sys::peak_rss_mb();
    let cpu_s = sys::process_cpu_s() - cpu0;
    let host1 = sys::host_steal_and_total_jiffies();
    let trace = M::TRACED.then(|| {
        trace::fold_thread();
        trace::take_total()
    });

    let (ops_ok, elapsed_s, mut gate_failure) = match outcome {
        Ok(r) if r.all_done => (r.ops_ok, r.elapsed.as_secs_f64(), None),
        Ok(r) => (
            r.ops_ok,
            r.elapsed.as_secs_f64(),
            Some("clients not done".to_string()),
        ),
        Err(stall) => (stall.ops_ok, wall_s, Some(format!("stalled:\n{stall}"))),
    };

    let lat = fleet.latency_report();
    let wire = fleet.wire_report();
    let members = fleet.member_servers();
    let mut node = NodeStats::default();
    let (mut keys, mut siblings, mut meta_bytes) = (0usize, 0.0, 0usize);
    for &i in &members {
        let s = fleet.server_ref(i);
        let st = s.stats();
        node.quorum_timeouts += st.quorum_timeouts;
        node.read_repairs += st.read_repairs;
        node.aae_rounds += st.aae_rounds;
        node.dup_writes_ignored += st.dup_writes_ignored;
        keys += s.data().len();
        siblings += s.mean_siblings() * s.data().len() as f64;
        meta_bytes += s.metadata_bytes();
    }
    let (mut writes, mut acked_writes, mut observed_ids) = (0u64, 0u64, 0u64);
    for j in 0..fleet.client_count() {
        for e in fleet.client_ref(j).write_log() {
            writes += 1;
            acked_writes += u64::from(e.acked);
            observed_ids += e.observed.len() as u64;
        }
    }

    if gate_failure.is_none() {
        gate_failure = audit(fleet);
    }
    if M::TRACED {
        trace::discard_thread();
    }

    Rep {
        ops_ok,
        elapsed_s,
        setup_s: (wall_s - elapsed_s).max(0.0),
        cpu_s,
        peak_rss_mb,
        steal_jiffies: host1.0.saturating_sub(host0.0),
        host_jiffies: host1.1.saturating_sub(host0.1),
        get: lat.get,
        put: lat.put,
        retries: lat.retries,
        failed_cycles: lat.failed_cycles,
        wire,
        node,
        mean_siblings: siblings / keys.max(1) as f64,
        meta_bytes_per_key: meta_bytes as f64 / keys.max(1) as f64,
        writes,
        acked_writes,
        observed_ids,
        events: None,
        fabric: None,
        log_bytes: None,
        trace,
        gate_failure,
    }
}

/// The oracle half of the gate. The dot census must run before the
/// converge, which merges by dot and would hide a collision.
fn audit<M: BenchMech, H: FleetHarness<M>>(fleet: &mut H) -> Option<String> {
    let reused = fleet
        .dot_census()
        .values()
        .filter(|ids| ids.len() > 1)
        .count();
    if reused > 0 {
        return Some(format!("{reused} dots name more than one write"));
    }
    fleet.converge();
    let a = fleet.anomaly_report();
    if a.lost_updates > 0 || a.false_concurrency > 0 || a.acked_writes == 0 {
        return Some(format!("oracle audit: {a:?}"));
    }
    None
}

/// A directory no earlier rep of this process has used.
fn fresh_dir(scratch: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = scratch.join(format!("logs-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the rep's log directory");
    dir
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("list the rep's log directory")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum()
}
