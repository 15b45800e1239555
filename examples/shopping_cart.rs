//! The Dynamo shopping cart on the full simulated store: concurrent
//! shoppers on one cart key, DVV causality, sibling resolution.
//!
//! Run with `cargo run --example shopping_cart`.

use dvv::mechanisms::DvvMechanism;
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::config::ClientConfig;
use kvstore::FleetHarness;
use simnet::Duration;

fn main() {
    // One hot cart key, four shoppers hammering it concurrently.
    let config = ClusterConfig {
        servers: 3,
        clients: 4,
        cycles_per_client: 10,
        client: ClientConfig {
            key_count: 1,
            value_size: 48,
            think_time: Duration::from_micros(300),
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(2024, DvvMechanism, config);

    println!("running 4 shoppers × 10 read-modify-write cycles on one cart…");
    assert!(cluster.run());
    println!("finished at virtual {}", cluster.sim().now());

    let lat = cluster.latency_report();
    println!("\nGET latency: {}", lat.get);
    println!("PUT latency: {}", lat.put);

    // Before convergence: replicas may disagree; after: identical.
    cluster.converge();
    let report = cluster.anomaly_report();
    println!("\naudit after convergence: {report:?}");
    assert!(
        report.is_clean(),
        "DVV must not lose or falsely-conflict writes"
    );

    let meta = cluster.metadata_report();
    println!(
        "cart metadata: mean {:.1} B/key, max {} B, {:.1} siblings on average (max {})",
        meta.mean_bytes_per_key, meta.max_bytes_per_key, meta.mean_siblings, meta.max_siblings
    );

    // Show the final sibling set: the concurrent "cart versions" a reader
    // would merge in the application (Dynamo's add-wins union).
    let key = cluster.oracle().keys().remove(0);
    let survivors = cluster.surviving_at(0, &key);
    println!("\nfinal concurrent cart versions ({}):", survivors.len());
    for id in &survivors {
        println!("  written by {id}");
    }
    println!("\na reader now merges these versions and writes back with the");
    println!("combined context — exactly the Dynamo checkout flow.");
}
