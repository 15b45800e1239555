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
//! dropped at a full queue, lost to a dead connection, or delivered
//! locally (self-sends) — no modeled bytes, no unaccounted bytes.
//!
//! Three seeds by default; `SOCKET_CONFORMANCE_SEEDS` widens the sweep.

use std::time::Duration as StdDuration;

use dvv::mechanisms::DvvMechanism;
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::harness::{audit_fleet, FleetHarness};
use simnet::Duration;
use transport::{SocketConfig, SocketFleet, HEADER_BYTES};

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

fn socket_config() -> SocketConfig {
    SocketConfig {
        servers: SERVERS,
        clients: CLIENTS,
        cycles_per_client: CYCLES,
        store: store_config(),
        client: client_config(),
        stall_budget: StdDuration::from_secs(10),
        run_budget: StdDuration::from_secs(60),
        quiesce: StdDuration::from_secs(12),
        settle_window: StdDuration::from_millis(600),
        ..SocketConfig::default()
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
    let mut fleet = SocketFleet::new(seed, DvvMechanism, socket_config());
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
    // locally. Exact, fleet-wide, to the byte.
    let fabric = fleet.fabric_report();
    let charged = FleetHarness::wire_report(&fleet).total_bytes();
    assert_eq!(
        charged,
        fabric.enqueued_bytes + fabric.dropped_bytes + fabric.self_bytes,
        "seed {seed}: wire ledger diverged from fabric accounting\n{fabric:#?}"
    );
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
