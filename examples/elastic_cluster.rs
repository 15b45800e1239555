//! Elastic membership in action: while a workload runs, a spare node
//! joins the ring (streaming its newly-owned key ranges from current
//! owners) and an original member leaves (draining its ranges to
//! successors) — **concurrently**. Each change is announced to its
//! *subject only*, as a fresh `(incarnation, status)` entry in a
//! mergeable ring view; every other process converges onto the *merge*
//! of both announcements through gossip (periodic digests, AAE
//! piggybacks, eager pushes, request digests), with the harness
//! force-sync disabled. The oracle confirms that not a single
//! acknowledged write is lost across the overlapping changes, and a
//! final audit shows no server holds keys outside its preference list.
//!
//! Run with `cargo run --example elastic_cluster`.

use dvv::mechanisms::DvvMechanism;
use dvv::ReplicaId;
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::FleetHarness;
use ring::HashRing;
use simnet::Duration;

fn main() {
    let config = ClusterConfig {
        servers: 3,
        spare_servers: 1,
        clients: 4,
        cycles_per_client: 30,
        store: StoreConfig {
            n: 2,
            r: 2,
            w: 2,
            anti_entropy_interval: Duration::from_millis(80),
            ..StoreConfig::default()
        },
        client: ClientConfig {
            key_count: 8,
            ..ClientConfig::default()
        },
        deadline: Duration::from_secs(1_000),
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(2026, DvvMechanism, config);

    println!("phase 1: 3-node cluster serving traffic (spare s3 dormant)");
    cluster.run_for(Duration::from_millis(40));
    println!(
        "  t={} members={:?} view_version={}",
        cluster.sim().now(),
        cluster.member_slots(),
        cluster.ring_epoch()
    );

    println!("\nphase 2: s3 joins and s0 leaves — both announced before either");
    println!("  settles. The announcements are per-member versioned entries in a");
    println!("  mergeable view, so the two concurrent changes merge instead of");
    println!("  racing; gossip spreads the merged view and owners stream ranges");
    let held_by_leaver = cluster.server(0).data().len();
    cluster.begin_join(3);
    cluster.begin_leave(0);
    let settled = cluster.await_membership();
    println!(
        "  settled={} members={:?} view_version={}",
        settled,
        cluster.member_slots(),
        cluster.ring_epoch()
    );
    assert!(settled, "overlapping join + leave must settle");
    let joiner = cluster.server(3);
    println!(
        "  joiner s3: transfers_in={} keys={} status={:?}",
        joiner.stats().transfers_in,
        joiner.data().len(),
        cluster.view().status(&ReplicaId(3))
    );
    println!(
        "  leaver s0: keys_drained={} store_empty={} status={:?}",
        held_by_leaver,
        cluster.server(0).data().is_empty(),
        cluster.view().status(&ReplicaId(0))
    );
    assert!(
        cluster.server(0).data().is_empty(),
        "the leaver fully drained"
    );
    for i in cluster.member_slots() {
        let s = cluster.server(i);
        println!(
            "  s{i}: view_digest={:016x} gossip_rounds={} (no force-sync)",
            s.view_digest(),
            s.stats().gossip_rounds
        );
        assert_eq!(s.view_digest(), cluster.view_digest());
    }
    let new_ring = HashRing::with_vnodes([1u32, 2, 3].map(ReplicaId), 32);
    let owned_here = cluster
        .server(3)
        .data()
        .keys()
        .filter(|k| new_ring.preference_list(k, 2).contains(&ReplicaId(3)))
        .count();
    println!("  of the joiner's keys, in its own ranges: {owned_here}");

    println!("\nphase 3: sessions finish on the reshaped cluster");
    assert!(cluster.run(), "all sessions finish");

    println!("\nphase 4: residual-copy audit — after a quiescent period (and");
    println!("  before the harness converge), no server may hold a key");
    println!("  outside its preference list");
    cluster.run_for(Duration::from_secs(3));
    let residuals = cluster.residual_copies();
    println!("  residual copies: {}", residuals.len());
    assert!(
        residuals.is_empty(),
        "unretired residual copies: {residuals:?}"
    );

    cluster.converge();
    let report = cluster.anomaly_report();
    println!(
        "  writes={} acked={} lost_updates={} false_concurrency={}",
        report.total_writes, report.acked_writes, report.lost_updates, report.false_concurrency
    );
    assert!(report.is_clean(), "elastic membership must lose nothing");
    println!("\nno acknowledged write was lost across the overlapping join + leave ✓");
}
