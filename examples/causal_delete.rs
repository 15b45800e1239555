//! Causal deletes: why deleting in a multi-version store needs the same
//! causal contexts as writing — and how DVV tombstones solve Dynamo's
//! famous "deleted item reappears in the cart" problem.
//!
//! Run with `cargo run --example causal_delete`.

use dvv::mechanisms::{DvvMechanism, Mechanism, WriteOrigin};
use dvv::{ClientId, ReplicaId, VersionVector};
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::config::ClientConfig;
use kvstore::{FleetHarness, StampedValue, WriteId};
use simnet::Duration;

fn main() {
    // ------------------------------------------------------------------
    // Act 1: the mechanism-level story.
    // ------------------------------------------------------------------
    let mech = DvvMechanism;
    let mut cart = Default::default();
    let server = ReplicaId(0);

    // Alice puts a book in the cart.
    mech.write(
        &mut cart,
        WriteOrigin::new(server, ClientId(1)),
        &VersionVector::new(),
        StampedValue::new(WriteId::new(ClientId(1), 1), b"book".to_vec()),
    );
    let (_, ctx_after_book) = mech.read(&cart);

    // Alice deletes the cart (tombstone with HER context)…
    mech.write(
        &mut cart,
        WriteOrigin::new(server, ClientId(1)),
        &ctx_after_book,
        StampedValue::tombstone(WriteId::new(ClientId(1), 2)),
    );
    // …while Bob, who also saw only the book, concurrently adds a pen:
    mech.write(
        &mut cart,
        WriteOrigin::new(server, ClientId(2)),
        &ctx_after_book,
        StampedValue::new(WriteId::new(ClientId(2), 1), b"pen".to_vec()),
    );

    let (values, _) = mech.read(&cart);
    println!("cart siblings after concurrent delete + add:");
    for v in &values {
        println!("  {v}");
    }
    let live: Vec<_> = values.iter().filter(|v| v.is_live()).collect();
    assert_eq!(live.len(), 1, "Bob's pen must survive Alice's delete");
    assert_eq!(live[0].payload, b"pen");
    println!("-> the delete removed only what Alice saw; Bob's concurrent");
    println!("   addition survives as a sibling. No resurrection, no loss.\n");

    // ------------------------------------------------------------------
    // Act 2: the same guarantee end-to-end, at store scale, with GC.
    // ------------------------------------------------------------------
    let config = ClusterConfig {
        servers: 3,
        clients: 6,
        cycles_per_client: 10,
        client: ClientConfig {
            key_count: 4,
            delete_fraction: 0.5,
            think_time: Duration::from_micros(300),
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(31, DvvMechanism, config);
    cluster.run();
    cluster.converge();

    let report = cluster.anomaly_report();
    println!("store audit with 50% deletes: {report:?}");
    assert!(report.is_clean());

    let keys = cluster.oracle().keys();
    let before: usize = cluster.server(0).data().len();
    let reclaimed = cluster.collect_garbage();
    println!(
        "garbage collection: {} of {} keys were fully deleted and reclaimed",
        reclaimed[0], before
    );
    for key in &keys {
        let live = cluster.live_values_at(0, key);
        let total = cluster.surviving_at(0, key).len();
        println!(
            "  {:?}: {} live value(s), {} tombstone(s)",
            String::from_utf8_lossy(key),
            live.len(),
            total - live.len()
        );
    }
    println!("\ndeletes are writes: same contexts, same causality, zero anomalies.");
}
