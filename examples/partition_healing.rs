//! A network partition splits the cluster; writes continue on both
//! sides; healing + anti-entropy converges every replica without losing
//! a single update.
//!
//! Run with `cargo run --example partition_healing`.

use dvv::mechanisms::DvvMechanism;
use dvv::ReplicaId;
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::FleetHarness;
use simnet::{Duration, NodeId};

fn main() {
    let config = ClusterConfig {
        servers: 3,
        clients: 4,
        cycles_per_client: 12,
        store: StoreConfig {
            anti_entropy_interval: Duration::from_millis(40),
            ..StoreConfig::default()
        },
        client: ClientConfig {
            key_count: 2,
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(99, DvvMechanism, config);

    println!("phase 1: healthy cluster");
    cluster.run_for(Duration::from_millis(25));
    println!(
        "  t={} deliveries={}",
        cluster.sim().now(),
        cluster.sim().network().stats().delivered
    );

    println!("\nphase 2: server s2 partitioned away (failure detector notices)");
    let majority: Vec<NodeId> = [0u32, 1, 3, 4, 5, 6].into_iter().map(NodeId).collect();
    cluster
        .sim_mut()
        .network_mut()
        .partition_two(majority, [NodeId(2)]);
    cluster.set_replica_status(ReplicaId(2), false);
    cluster.run_for(Duration::from_millis(120));
    let lost_so_far = cluster.sim().network().stats().unreachable;
    println!("  messages refused by the partition so far: {lost_so_far}");

    println!("\nphase 3: heal; sessions finish; anti-entropy repairs s2");
    cluster.sim_mut().network_mut().heal();
    cluster.set_replica_status(ReplicaId(2), true);
    assert!(cluster.run(), "all sessions complete");
    cluster.run_for(Duration::from_millis(2_000)); // let AAE converge

    // verify convergence through the protocol (no harness merging!)
    let keys = cluster.oracle().keys();
    let mut converged = true;
    for key in &keys {
        let s0 = cluster.surviving_at(0, key);
        for i in 1..3 {
            if cluster.surviving_at(i, key) != s0 {
                converged = false;
            }
        }
    }
    println!(
        "  all {} keys identical on all 3 replicas: {converged}",
        keys.len()
    );
    assert!(converged);

    let aae: u64 = (0..3).map(|i| cluster.server(i).stats().aae_rounds).sum();
    println!("  anti-entropy exchanges initiated: {aae}");

    cluster.converge(); // no-op; makes the audit explicit
    let report = cluster.anomaly_report();
    println!("\naudit: {report:?}");
    assert!(report.is_clean(), "no update lost across the partition");
    println!("no lost updates, no false concurrency — through a partition.");
}
