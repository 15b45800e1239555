//! Cross-backend conformance: the same seeded workload, run once on
//! the deterministic simulator and once on the threaded runtime, must
//! leave both fleets in AAE-equivalent, oracle-clean states.
//!
//! "Equivalent" here is *protocol-level*, not bit-level — the threaded
//! driver has real wall-clock interleavings — so the assertions are the
//! store's own convergence and safety audits, applied through the one
//! driver-agnostic surface both fleets implement
//! ([`kvstore::harness::FleetHarness`]): [`audit_fleet`] checks one
//! ring view, pairwise AAE leaf equivalence, zero residual copies, and
//! an oracle-clean converge — the same function, both drivers. And the
//! adversary is the same too: one [`network`] value configures the
//! simulated cluster and the threaded fleet alike (`NET_FAULTS=hostile`
//! makes it hostile on both).
//!
//! `RUNTIME_CONFORMANCE_SEEDS` widens the seed sweep for soak lanes.

use std::time::Duration as StdDuration;

use dvv::mechanisms::DvvMechanism;
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::harness::{audit_fleet, FleetHarness};
use runtime::{RuntimeConfig, RuntimeFleet};
use simnet::{Duration, LatencyModel, LinkConfig, NetworkConfig, NodeId};

const SERVERS: usize = 4;
const CLIENTS: usize = 12;
const CYCLES: u32 = 6;

fn store_config() -> StoreConfig {
    StoreConfig {
        anti_entropy_interval: Duration::from_millis(25),
        gossip_interval: Duration::from_millis(25),
        handoff_interval: Duration::from_millis(30),
        ..StoreConfig::default()
    }
}

fn client_config() -> ClientConfig {
    ClientConfig {
        key_count: 16,
        think_time: Duration::from_millis(1),
        ..ClientConfig::default()
    }
}

/// The one scenario both drivers run under: 3 % loss and 100–400 µs of
/// latency on every link, plus whatever `NET_FAULTS` asks for.
fn network() -> NetworkConfig {
    NetworkConfig::uniform(LinkConfig {
        latency: LatencyModel::Uniform {
            lo: Duration::from_micros(100),
            hi: Duration::from_micros(400),
        },
        drop_probability: 0.03,
        ..LinkConfig::default()
    })
    .with_env_faults()
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        servers: SERVERS,
        clients: CLIENTS,
        client_workers: 3,
        cycles_per_client: CYCLES,
        store: store_config(),
        client: client_config(),
        faults: Some(network()),
        stall_budget: StdDuration::from_secs(10),
        run_budget: StdDuration::from_secs(60),
        // Settle budget, not a fixed sleep: the fleet exits early once
        // repair activity has been quiet for `settle_window`.
        quiesce: StdDuration::from_secs(12),
        settle_window: StdDuration::from_millis(600),
        ..RuntimeConfig::default()
    }
}

/// Seeds to sweep: one by default, more under `RUNTIME_CONFORMANCE_SEEDS`
/// (the nightly soak lane sets it).
fn seeds() -> Vec<u64> {
    let n: u64 = std::env::var("RUNTIME_CONFORMANCE_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    (0..n).map(|i| 0xC0DE + i * 101).collect()
}

/// Runs the seeded workload on the threaded runtime and applies the
/// full audit stack.
fn audit_runtime(seed: u64) {
    let mut fleet = RuntimeFleet::new(seed, DvvMechanism, runtime_config());
    let report = match fleet.run() {
        Ok(r) => r,
        Err(stall) => panic!("seed {seed}: runtime stalled:\n{stall}"),
    };
    assert!(report.all_done, "seed {seed}: clients left unfinished");
    assert_eq!(
        report.ops_ok,
        fleet.latency_report().get.count() + fleet.latency_report().put.count(),
        "seed {seed}: live op counter diverged from client histograms"
    );
    // Every byte the nodes charged is a byte their hosts counted sent,
    // whatever the fault plane then did with it.
    let net = fleet.network_report().expect("a run");
    let charged = FleetHarness::wire_report(&fleet).total_bytes();
    assert_eq!(
        charged,
        net.bytes_sent + net.self_bytes,
        "seed {seed}: {net:#?}"
    );
    assert!(
        net.dropped > 0,
        "seed {seed}: the plane never dropped\n{net:#?}"
    );

    audit_fleet(&mut fleet, &format!("seed {seed} (runtime)"));
}

/// Runs the same seeded workload shape on the simulator and applies the
/// same audit stack — the baseline the runtime must match.
fn audit_sim(seed: u64) {
    let mut cluster = Cluster::new(
        seed,
        DvvMechanism,
        ClusterConfig {
            servers: SERVERS,
            clients: CLIENTS,
            cycles_per_client: CYCLES,
            store: store_config(),
            client: client_config(),
            network: network(),
            ..ClusterConfig::default()
        },
    );
    cluster.run();
    cluster.run_for(Duration::from_millis(1500));
    audit_fleet(&mut cluster, &format!("seed {seed} (simulator)"));
}

#[test]
fn threaded_runtime_matches_simulator_audits() {
    for seed in seeds() {
        audit_sim(seed);
        audit_runtime(seed);
    }
}

/// What only the simulator could do before the drivers shared a fault
/// plane: a per-link override makes `s0 → s1` a dead link, one way,
/// while the clients run (faults go off for the quiesce, as always).
/// Quorums form through `s2`, so no client cycle fails; what `s1`
/// missed from `s0` reaches it by read repair and anti-entropy, and the
/// audit stack is clean. The repairs are `s2`'s: it is the one
/// coordinator that hears `s1` answer while `s1` lacks what `s0` wrote
/// (`s0` never hears `s1`, and `s1` hears only `s2`, which is not behind).
#[test]
fn a_one_way_dead_link_fails_no_cycle_and_audits_clean() {
    let mut net = NetworkConfig::uniform(LinkConfig {
        latency: LatencyModel::Constant(Duration::from_micros(100)),
        ..LinkConfig::default()
    });
    let dead = LinkConfig {
        drop_probability: 1.0,
        ..LinkConfig::default()
    };
    net.set_link(NodeId(0), NodeId(1), dead);
    let config = RuntimeConfig {
        servers: 3,
        faults: Some(net),
        ..runtime_config()
    };
    let mut fleet = RuntimeFleet::new(0xDEAD, DvvMechanism, config);
    let report = match fleet.run() {
        Ok(r) => r,
        Err(stall) => panic!("runtime stalled:\n{stall}"),
    };
    assert!(report.all_done, "clients left unfinished");
    assert_eq!(fleet.latency_report().failed_cycles, 0);
    assert_eq!(report.ops_ok, 2 * u64::from(CYCLES) * CLIENTS as u64);
    assert!(
        fleet.server(2).stats().read_repairs > 0,
        "s2 hears s1 answer without s0's writes, and repairs it"
    );
    audit_fleet(&mut fleet, "one-way dead link (runtime)");
}
