//! Session-level guarantees: accumulated contexts give monotonic
//! sessions, read-only mixes work, and sessions never conflict with
//! their own causal past.

use dvv::mechanisms::DvvMechanism;
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::config::ClientConfig;
use kvstore::FleetHarness;
use simnet::{Duration, LatencyModel, LinkConfig, NetworkConfig};

#[test]
fn read_only_mix_reduces_writes() {
    let config = |read_only: f64| ClusterConfig {
        servers: 3,
        clients: 4,
        cycles_per_client: 20,
        client: ClientConfig {
            key_count: 2,
            read_only_fraction: read_only,
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut rw = Cluster::new(3, DvvMechanism, config(0.0));
    assert!(rw.run());
    let mut ro = Cluster::new(3, DvvMechanism, config(0.8));
    assert!(ro.run());

    let rw_writes = rw.anomaly_report().total_writes;
    let ro_writes = ro.anomaly_report().total_writes;
    assert_eq!(rw_writes, 80, "pure RMW: one write per cycle");
    assert!(
        ro_writes < rw_writes / 2,
        "80% read-only cycles must cut writes: {ro_writes} vs {rw_writes}"
    );
    // reads happened for every cycle either way
    assert_eq!(ro.latency_report().get.count(), 80);

    ro.converge();
    assert!(ro.anomaly_report().is_clean());
}

#[test]
fn sessions_never_self_conflict() {
    // A single client doing RMW cycles must never produce siblings by
    // itself (every write dominates its previous one), even on a slow,
    // jittery network where quorum reads could regress without context
    // accumulation.
    let config = ClusterConfig {
        servers: 3,
        clients: 1,
        cycles_per_client: 30,
        client: ClientConfig {
            key_count: 1,
            think_time: Duration::from_micros(100),
            ..ClientConfig::default()
        },
        network: NetworkConfig::uniform(LinkConfig {
            latency: LatencyModel::Uniform {
                lo: Duration::from_micros(100),
                hi: Duration::from_micros(2_000),
            },
            ..LinkConfig::default()
        }),
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(17, DvvMechanism, config);
    assert!(c.run());
    c.converge();
    let report = c.anomaly_report();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(
        report.surviving_values, 1,
        "a lone session must converge to exactly one version"
    );
}

#[test]
fn interleaved_sessions_on_disjoint_keys_never_conflict() {
    // Clients on disjoint keys: zero siblings anywhere.
    let config = ClusterConfig {
        servers: 3,
        clients: 4,
        cycles_per_client: 10,
        client: ClientConfig {
            key_count: 16, // plenty of keys ⇒ rare contention by chance
            zipf_alpha: 0.0,
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(23, DvvMechanism, config);
    assert!(c.run());
    c.converge();
    let report = c.anomaly_report();
    assert!(report.is_clean());
    // most keys should have exactly one survivor (low contention)
    let single = c
        .oracle()
        .keys()
        .iter()
        .filter(|k| c.surviving_at(0, k).len() == 1)
        .count();
    assert!(
        single as f64 >= c.oracle().keys().len() as f64 * 0.5,
        "uniform 16-key workload should mostly be uncontended"
    );
}
