//! Cross-driver conformance over real sockets: the same seeded
//! workload shape, run once on the deterministic simulator and once on
//! the TCP [`SocketFleet`], must leave both fleets in AAE-equivalent,
//! oracle-clean, anomaly-free end states — audited through the one
//! driver-agnostic surface all three drivers implement
//! ([`kvstore::harness::FleetHarness`]).
//!
//! On top of the shared audit stack, the socket run asserts the
//! transport's byte-ledger identity: every byte the protocol charged to
//! a node's wire ledger is a byte the fabric either wrote to a socket,
//! dropped at a full queue or lost to a dead connection, or a self-send
//! its host delivered locally and counted — no modeled bytes, no
//! unaccounted bytes.
//!
//! Then the simulator's fault plane over TCP: the same workload with
//! loss, latency and the hostile duplicate / reorder / replay profile
//! decided above the link, still audit-clean, and the identity with
//! each fate the plane gave a copy counted in.
//!
//! Three seeds by default; `SOCKET_CONFORMANCE_SEEDS` widens the sweep.

use std::time::Duration as StdDuration;

use dvv::mechanisms::DvvMechanism;
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::harness::{audit_fleet, FleetHarness};
use runtime::RuntimeConfig;
use simnet::{Duration, LatencyModel, LinkConfig, LinkFaults, NetworkConfig};
use transport::{SocketFleet, HEADER_BYTES};

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

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        servers: SERVERS,
        clients: CLIENTS,
        cycles_per_client: CYCLES,
        store: store_config(),
        client: client_config(),
        stall_budget: StdDuration::from_secs(10),
        run_budget: StdDuration::from_secs(60),
        quiesce: StdDuration::from_secs(12),
        settle_window: StdDuration::from_millis(600),
        ..RuntimeConfig::default()
    }
}

/// Seeds to sweep: three by default (the acceptance gate),
/// `SOCKET_CONFORMANCE_SEEDS` overrides for soak lanes.
fn seeds() -> Vec<u64> {
    let n: u64 = std::env::var("SOCKET_CONFORMANCE_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    (0..n).map(|i| 0x50C7 + i * 131).collect()
}

/// Runs the seeded workload over real TCP and applies the full audit
/// stack plus the transport byte-ledger identity.
fn audit_socket(seed: u64) {
    let mut fleet = SocketFleet::new(seed, DvvMechanism, runtime_config());
    let report = match fleet.run() {
        Ok(r) => r,
        Err(stall) => panic!("seed {seed}: socket fleet stalled:\n{stall}"),
    };
    assert!(report.all_done, "seed {seed}: clients left unfinished");
    assert_eq!(
        report.ops_ok,
        fleet.latency_report().get.count() + fleet.latency_report().put.count(),
        "seed {seed}: live op counter diverged from client histograms"
    );

    // Honest accounting: the fleet runs with the frame codec's real
    // header size, not the modeled default.
    assert_eq!(fleet.server(0).config().header_bytes, HEADER_BYTES);

    // Ledger identity: bytes charged by the protocol == bytes the
    // fabric enqueued for sockets + dropped at full queues + delivered
    // locally by the hosts. Exact, fleet-wide, to the byte.
    let fabric = fleet.fabric_report();
    assert_ledgers_balance(&fleet, &format!("seed {seed}"));
    // The socket side of the ledger is conserved too: what was written
    // is what was enqueued minus queue-resident/io-lost frames, and the
    // readers never counted more than the writers produced.
    assert!(
        fabric.written_bytes <= fabric.enqueued_bytes,
        "seed {seed}: wrote more than enqueued\n{fabric:#?}"
    );
    assert!(
        fabric.recv_bytes <= fabric.written_bytes,
        "seed {seed}: received more than written\n{fabric:#?}"
    );
    assert!(
        fabric.connects > 0,
        "seed {seed}: no TCP connection was ever dialed"
    );

    audit_fleet(&mut fleet, &format!("seed {seed} (socket)"));

    // The write ledger closes: with the fabric stopped, every frame
    // handed to a connection was either taken by the socket in full or
    // lost with it — none is still counted as written after its write
    // failed, and none is anywhere else.
    assert_eq!(
        fabric.enqueued_frames,
        fabric.written_frames + fabric.io_lost_frames,
        "seed {seed}: write ledger does not close\n{fabric:#?}"
    );
    // Each write carried one or more whole frames.
    assert!(
        1 <= fabric.writes && fabric.writes <= fabric.written_frames,
        "seed {seed}: writes out of range\n{fabric:#?}"
    );
}

/// Runs the same seeded workload shape on the simulator — the baseline
/// the socket driver must match.
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
            ..ClusterConfig::default()
        },
    );
    cluster.run();
    cluster.run_for(Duration::from_millis(1500));
    audit_fleet(&mut cluster, &format!("seed {seed} (simulator)"));
}

#[test]
fn socket_fleet_matches_simulator_audits() {
    for seed in seeds() {
        audit_sim(seed);
        audit_socket(seed);
    }
}

/// The threaded conformance suite's network: 3 % loss and 100–400 µs of
/// latency on every link, with `faults` on top.
fn network(faults: LinkFaults) -> NetworkConfig {
    NetworkConfig::uniform(LinkConfig {
        latency: LatencyModel::Uniform {
            lo: Duration::from_micros(100),
            hi: Duration::from_micros(400),
        },
        drop_probability: 0.03,
        faults,
        ..LinkConfig::default()
    })
}

/// What the nodes charged is what their hosts counted sent, self-sends
/// included; and the fabric was handed every copy the fault plane let
/// through: what was sent, less what it dropped or found unreachable,
/// plus what it duplicated or replayed (each stale frame at its own
/// size). With no plane, or with it off, nothing is dropped or copied,
/// and the fabric was handed exactly what was sent.
fn assert_ledgers_balance(fleet: &SocketFleet<DvvMechanism>, label: &str) {
    let fabric = fleet.fabric_report();
    let net = fleet.network_report().expect("a run");
    let charged = FleetHarness::wire_report(fleet).total_bytes();
    assert_eq!(
        charged,
        net.bytes_sent + net.self_bytes,
        "{label}: wire ledger diverged from what the hosts counted sent\n{net:#?}"
    );
    assert_eq!(
        net.bytes_sent - net.dropped_bytes - net.unreachable_bytes
            + net.duplicated_bytes
            + net.replayed_bytes,
        fabric.enqueued_bytes + fabric.dropped_bytes,
        "{label}: the fabric was not handed what the plane let through\n{net:#?}\n{fabric:#?}"
    );
}

/// The fault plane sits above the link, so a socket fleet takes it as
/// the in-process fleet does: every copy's fate is decided on the
/// sending worker before the link frames it. Calm, then hostile, with
/// two client workers; the audit stack must be clean, and the ledgers
/// balance with every fate the plane gave a copy counted in. No `Kill`
/// step: a write replayed across a crash can still read as false
/// concurrency (ROADMAP item 15).
#[test]
fn the_fault_plane_over_sockets_audits_clean() {
    for (name, faults) in [
        ("calm", LinkFaults::default()),
        ("hostile", LinkFaults::hostile()),
    ] {
        for seed in seeds() {
            let label = format!("seed {seed} ({name} faults, socket)");
            let config = RuntimeConfig {
                client_workers: 2,
                faults: Some(network(faults)),
                ..runtime_config()
            };
            let mut fleet = SocketFleet::new(seed, DvvMechanism, config);
            let report = fleet
                .run()
                .unwrap_or_else(|stall| panic!("{label}: stalled:\n{stall}"));
            assert!(report.all_done, "{label}: clients left unfinished");
            let fabric = fleet.fabric_report();
            assert!(
                fabric.connects > 0,
                "{label}: no TCP connection was ever dialed"
            );
            assert!(
                fleet.network_report().expect("a run").dropped > 0,
                "{label}: the fault plane never dropped a copy"
            );
            assert_ledgers_balance(&fleet, &label);
            audit_fleet(&mut fleet, &label);
        }
    }
}
