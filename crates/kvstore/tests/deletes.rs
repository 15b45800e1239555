//! Causal deletes: tombstones written with contexts, concurrent-write
//! survival, and safe garbage collection — the extension every real
//! multi-version store needs on top of the paper's clocks.

use dvv::mechanisms::{DvvMechanism, DvvSetMechanism, Mechanism, WriteOrigin};
use dvv::{ClientId, ReplicaId, VersionVector};
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::config::ClientConfig;
use kvstore::{FleetHarness, StampedValue, WriteId};
use simnet::Duration;

#[test]
fn informed_delete_removes_everything_it_saw() {
    let mech = DvvMechanism;
    let mut st = Default::default();
    let origin = WriteOrigin::new(ReplicaId(0), ClientId(1));
    mech.write(
        &mut st,
        origin,
        &VersionVector::new(),
        StampedValue::new(WriteId::new(ClientId(1), 1), vec![1]),
    );
    let (_, ctx) = mech.read(&st);
    mech.write(
        &mut st,
        origin,
        &ctx,
        StampedValue::tombstone(WriteId::new(ClientId(1), 2)),
    );
    let (values, _) = mech.read(&st);
    assert_eq!(values.len(), 1, "only the tombstone survives");
    assert!(values[0].tombstone);
}

#[test]
fn concurrent_write_survives_a_delete() {
    // The whole point of causal deletes: a delete only kills what its
    // issuer saw. A concurrent add must NOT be deleted (the Amazon cart
    // "deleted item reappears" semantics, resolved correctly).
    let mech = DvvMechanism;
    let mut st = Default::default();
    mech.write(
        &mut st,
        WriteOrigin::new(ReplicaId(0), ClientId(1)),
        &VersionVector::new(),
        StampedValue::new(WriteId::new(ClientId(1), 1), vec![1]),
    );
    let (_, ctx) = mech.read(&st);
    // deleter saw v1; a concurrent writer did not see the delete
    mech.write(
        &mut st,
        WriteOrigin::new(ReplicaId(0), ClientId(2)),
        &ctx,
        StampedValue::tombstone(WriteId::new(ClientId(2), 1)),
    );
    mech.write(
        &mut st,
        WriteOrigin::new(ReplicaId(0), ClientId(3)),
        &ctx,
        StampedValue::new(WriteId::new(ClientId(3), 1), vec![3]),
    );
    let (values, _) = mech.read(&st);
    assert_eq!(values.len(), 2, "tombstone ∥ concurrent write");
    let live: Vec<_> = values.iter().filter(|v| v.is_live()).collect();
    assert_eq!(live.len(), 1);
    assert_eq!(live[0].id, WriteId::new(ClientId(3), 1));
}

#[test]
fn store_with_deletes_audits_clean_and_collects_garbage() {
    let config = ClusterConfig {
        servers: 3,
        clients: 6,
        cycles_per_client: 12,
        client: ClientConfig {
            key_count: 3,
            delete_fraction: 0.4,
            think_time: Duration::from_micros(300),
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    // The seed is load-bearing: with delete_fraction 0.4 roughly a fifth
    // of seeds end every key dominated by a live write, leaving nothing
    // for the tombstone and GC assertions below to observe. Seed 9 leaves
    // tombstones on several keys AND fully-deleted keys for GC to reclaim.
    let mut c = Cluster::new(9, DvvMechanism, config);
    assert!(c.run());
    c.converge();

    // deletes are writes: causality must still be exact
    let report = c.anomaly_report();
    assert!(report.is_clean(), "{report:?}");

    // some tombstones must actually have been written
    let tombstones: usize = c
        .oracle()
        .keys()
        .iter()
        .map(|k| {
            let all = c.surviving_at(0, k).len();
            let live = c.live_values_at(0, k).len();
            all - live
        })
        .sum();
    assert!(tombstones > 0, "delete_fraction 0.4 must leave tombstones");

    // GC reclaims exactly the fully-deleted keys, identically everywhere
    let keys_before = c.server(0).data().len();
    let reclaimed = c.collect_garbage();
    assert!(
        reclaimed.iter().all(|r| *r == reclaimed[0]),
        "{reclaimed:?}"
    );
    let keys_after = c.server(0).data().len();
    assert_eq!(keys_before - keys_after, reclaimed[0]);

    // every remaining key still has at least one live value or a
    // tombstone concurrent with live data
    for key in c.oracle().keys() {
        if c.server(0).data().contains_key(&key) {
            let all = c.surviving_at(0, &key);
            let live = c.live_values_at(0, &key);
            assert!(
                !live.is_empty() || all.is_empty(),
                "fully-dead key {key:?} survived GC"
            );
        }
    }
}

#[test]
fn deletes_work_with_dvvset_too() {
    let config = ClusterConfig {
        servers: 3,
        clients: 4,
        cycles_per_client: 10,
        client: ClientConfig {
            key_count: 2,
            delete_fraction: 0.5,
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(13, DvvSetMechanism, config);
    assert!(c.run());
    c.converge();
    assert!(c.anomaly_report().is_clean());
    c.collect_garbage();
}

#[test]
fn premature_gc_would_resurrect_hint() {
    // Documented-safety check: GC before convergence CAN diverge; the
    // API contract (call after converge()) prevents it. This test pins
    // the contract by showing converged GC is idempotent and consistent.
    let config = ClusterConfig {
        servers: 3,
        clients: 3,
        cycles_per_client: 8,
        client: ClientConfig {
            key_count: 1,
            delete_fraction: 1.0, // everything ends deleted
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(5, DvvMechanism, config);
    assert!(c.run());
    c.converge();
    let first = c.collect_garbage();
    let second = c.collect_garbage();
    assert!(
        first.iter().sum::<usize>() >= 1,
        "all-delete workload reclaims the key"
    );
    assert_eq!(second.iter().sum::<usize>(), 0, "idempotent");
}
