//! The four workloads and the fleet configuration they share.
//!
//! Every workload is fixed work in a closed loop: each client session
//! issues its next request only when the previous one completed, and a
//! rep ends when every session has run its fixed number of cycles.
//! Load is sized for two cores: at most four busy sessions (eight when
//! they think between cycles) and one client worker thread.

use std::time::Duration as StdDuration;

use kvstore::config::{ClientConfig, StoreConfig};
use runtime::RuntimeConfig;
use simnet::Duration;
use transport::SocketConfig;

pub const SERVERS: usize = 3;
pub const AAE_INTERVAL_MS: u64 = 50;
pub const GOSSIP_INTERVAL_MS: u64 = 100;
/// Request timeouts sit far above any pause of the shared host. Both
/// fleets fire a node's due timers before they drain its inbox, so a
/// coordinator the host held back for longer than its timeout fails a
/// request whose replies were already queued, and the session retries.
/// At the issue's 250/500 ms that cost 1–4 retries in 7 M ops of
/// `threaded_rmw` (pauses of 0.25–1.3 s show in the round-trip maxima),
/// and the driver takes no workload on which an op fails. No message
/// is lost on these workloads, so the timers never fire and their
/// length moves nothing. The client's stays below `STALL_BUDGET_S`.
pub const SERVER_TIMEOUT_MS: u64 = 10_000;
pub const CLIENT_TIMEOUT_MS: u64 = 15_000;
pub const STALL_BUDGET_S: u64 = 20;
const RUN_BUDGET_S: u64 = 120;
pub const CLIENT_WORKERS: usize = 1;

/// Which fleet hosts the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// `RuntimeFleet::new`: `Msg` values through in-process channels,
    /// in-memory storage.
    Threaded,
    /// `SocketFleet::new`: every message encoded, framed and sent over
    /// loopback TCP.
    Socket,
    /// `RuntimeFleet::new_durable` over one `LogEngine` per server with
    /// `LogConfig::default()` (group sync every 64 records / 64 KiB).
    Durable,
}

impl Driver {
    pub fn name(self) -> &'static str {
        match self {
            Driver::Threaded => "threaded",
            Driver::Socket => "socket",
            Driver::Durable => "durable",
        }
    }
}

/// One workload: a fleet driver plus the client sessions' op mix.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub why: &'static str,
    pub driver: Driver,
    pub clients: usize,
    pub think_us: u64,
    pub key_count: usize,
    pub zipf_alpha: f64,
    pub value_size: usize,
    pub read_only_fraction: f64,
    pub delete_fraction: f64,
    /// GET→PUT cycles each client runs in one rep, sized so a rep takes
    /// ≈1 s on the two-core sandbox. Bounded above by the `ClientNode`
    /// oracle log: it keeps every write id a session has seen per key
    /// and clones that list into each write-log entry, and the audit's
    /// causal closure is cubic in writes per key, so writes per key per
    /// rep stay ≤ ~1 on the uniform workloads and ≤ ~180 on the hottest
    /// key of the hot one (README, "Sizing rules").
    pub cycles_per_client: u32,
}

const RMW: Shape = Shape {
    name: "",
    why: "",
    driver: Driver::Threaded,
    clients: 4,
    think_us: 0,
    key_count: 16_384,
    zipf_alpha: 0.0,
    value_size: 64,
    read_only_fraction: 0.0,
    delete_fraction: 0.0,
    cycles_per_client: 0,
};

pub const SHAPES: [Shape; 4] = [
    Shape {
        name: "threaded_rmw",
        why: "saturates runtime::fleet and kvstore::node dispatch with transport, storage and sibling merging bypassed: the control on which socket, storage and wire-format work must show no change",
        cycles_per_client: 3_200,
        ..RMW
    },
    Shape {
        name: "socket_rmw",
        why: "threaded_rmw's shape over loopback TCP, so the gap between the two is Msg encode/decode, transport::frame and transport::fabric",
        driver: Driver::Socket,
        cycles_per_client: 1_100,
        ..RMW
    },
    Shape {
        name: "durable_rmw",
        why: "threaded_rmw's shape over LogEngine with group sync, so the gap between the two is storage::log append, fsync, compaction and the dot-reservation write-through",
        driver: Driver::Durable,
        cycles_per_client: 2_000,
        ..RMW
    },
    Shape {
        name: "socket_hot_mixed",
        why: "sub-saturation reads, writes and deletes on 16 hot keys with 512 B values over TCP: wake-up latency, sibling sets and context size do the work; a PUT gain that taxes GETs shows here",
        driver: Driver::Socket,
        clients: 8,
        think_us: 3_000,
        key_count: 16,
        zipf_alpha: 1.0,
        value_size: 512,
        read_only_fraction: 0.5,
        delete_fraction: 0.05,
        cycles_per_client: 150,
    },
];

pub fn by_name(name: &str) -> Option<&'static Shape> {
    SHAPES.iter().find(|s| s.name == name)
}

impl Shape {
    /// N=3 / R=2 / W=2 (`StoreConfig::default`) with the benchmark's
    /// timer settings.
    pub fn store(&self) -> StoreConfig {
        StoreConfig {
            request_timeout: Duration::from_millis(SERVER_TIMEOUT_MS),
            anti_entropy_interval: Duration::from_millis(AAE_INTERVAL_MS),
            gossip_interval: Duration::from_millis(GOSSIP_INTERVAL_MS),
            ..StoreConfig::default()
        }
    }

    pub fn client(&self) -> ClientConfig {
        ClientConfig {
            think_time: Duration::from_micros(self.think_us),
            value_size: self.value_size,
            key_count: self.key_count,
            zipf_alpha: self.zipf_alpha,
            request_timeout: Duration::from_millis(CLIENT_TIMEOUT_MS),
            delete_fraction: self.delete_fraction,
            read_only_fraction: self.read_only_fraction,
            ..ClientConfig::default()
        }
    }

    /// The threaded fleet's configuration for a rep of `cycles` cycles
    /// per client. `quiesce = 0`: the timed window ends with the last
    /// client op; convergence is the audit's job.
    pub fn runtime(&self, cycles: u32) -> RuntimeConfig {
        RuntimeConfig {
            servers: SERVERS,
            clients: self.clients,
            client_workers: CLIENT_WORKERS,
            cycles_per_client: cycles,
            store: self.store(),
            client: self.client(),
            stall_budget: StdDuration::from_secs(STALL_BUDGET_S),
            run_budget: StdDuration::from_secs(RUN_BUDGET_S),
            quiesce: StdDuration::ZERO,
            ..RuntimeConfig::default()
        }
    }

    /// The socket fleet's configuration (one thread per session — the
    /// driver has no worker knob).
    pub fn socket(&self, cycles: u32) -> SocketConfig {
        SocketConfig {
            servers: SERVERS,
            clients: self.clients,
            cycles_per_client: cycles,
            store: self.store(),
            client: self.client(),
            stall_budget: StdDuration::from_secs(STALL_BUDGET_S),
            run_budget: StdDuration::from_secs(RUN_BUDGET_S),
            quiesce: StdDuration::ZERO,
            ..SocketConfig::default()
        }
    }
}
