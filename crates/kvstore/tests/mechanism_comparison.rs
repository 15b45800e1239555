//! The store run with every mechanism under the same workloads — the
//! behavioural half of the paper's comparison (experiment E8's substance
//! as tests).
//!
//! *Correct* mechanisms (DVV, DVVSet, causal histories, unbounded
//! per-client VVs) must audit clean on every seed; the *deficient* ones
//! (per-server VVs, pruned per-client VVs, last-writer-wins) must exhibit
//! exactly the anomalies the paper attributes to them.

use dvv::mechanisms::{
    CausalHistoryMechanism, DvvMechanism, DvvSetMechanism, LamportMechanism, Mechanism,
    OrderedVvMechanism, VvClientMechanism, VvServerMechanism,
};
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::config::ClientConfig;
use kvstore::{FleetHarness, StampedValue};

/// A contention-heavy configuration: few keys, many clients, so
/// concurrent writes through the same coordinator are common.
fn contended() -> ClusterConfig {
    ClusterConfig {
        servers: 3,
        clients: 8,
        cycles_per_client: 15,
        client: ClientConfig {
            key_count: 2,
            think_time: simnet::Duration::from_micros(200),
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    }
}

fn run_audit<M: Mechanism<StampedValue>>(seed: u64, mech: M) -> kvstore::AnomalyReport {
    let mut c = Cluster::new(seed, mech, contended());
    assert!(c.run(), "clients must finish");
    c.converge();
    c.anomaly_report()
}

#[test]
fn dvv_is_clean_across_seeds() {
    for seed in 0..5 {
        let r = run_audit(seed, DvvMechanism);
        assert!(r.is_clean(), "seed {seed}: {r:?}");
        assert_eq!(r.total_writes, 120);
    }
}

#[test]
fn dvvset_is_clean_across_seeds() {
    for seed in 0..5 {
        let r = run_audit(seed, DvvSetMechanism);
        assert!(r.is_clean(), "seed {seed}: {r:?}");
    }
}

#[test]
fn causal_histories_are_clean_across_seeds() {
    for seed in 0..5 {
        let r = run_audit(seed, CausalHistoryMechanism);
        assert!(r.is_clean(), "seed {seed}: {r:?}");
    }
}

#[test]
fn unbounded_vv_client_is_clean_across_seeds() {
    for seed in 0..5 {
        let r = run_audit(seed, VvClientMechanism::unbounded());
        assert!(r.is_clean(), "seed {seed}: {r:?}");
    }
}

#[test]
fn vv_server_loses_updates_figure_1b_at_scale() {
    // The per-server VV baseline destroys concurrent client writes.
    let mut total_lost = 0;
    for seed in 0..5 {
        let r = run_audit(seed, VvServerMechanism);
        total_lost += r.lost_updates;
    }
    assert!(
        total_lost > 0,
        "per-server VVs must lose concurrent client updates under contention"
    );
}

#[test]
fn ordered_vv_inherits_the_per_server_anomaly() {
    let mut total_lost = 0;
    for seed in 0..5 {
        let r = run_audit(seed, OrderedVvMechanism);
        total_lost += r.lost_updates;
    }
    assert!(total_lost > 0);
}

#[test]
fn pruned_vv_client_misbehaves() {
    // Aggressive pruning (bound 2 « 8 clients) must corrupt causality:
    // false concurrency (resurrected dominated siblings) and/or lost
    // updates, exactly as the paper warns.
    let mut anomalies = 0;
    for seed in 0..5 {
        let r = run_audit(seed, VvClientMechanism::pruned(2));
        anomalies += r.lost_updates + r.false_concurrency;
    }
    assert!(
        anomalies > 0,
        "optimistic pruning must produce causality anomalies under contention"
    );
}

#[test]
fn lamport_lww_loses_concurrent_updates() {
    let mut total_lost = 0;
    for seed in 0..5 {
        let r = run_audit(seed, LamportMechanism);
        total_lost += r.lost_updates;
        // LWW never keeps siblings:
        assert!(r.surviving_values <= r.keys);
    }
    assert!(
        total_lost > 0,
        "last-writer-wins must drop concurrent writes"
    );
}

#[test]
fn dvv_clock_size_bounded_by_replicas_while_vv_client_grows() {
    // The paper's claim 3: a DVV costs one entry per *replica server*
    // regardless of the client population, while a per-client VV grows
    // with every client that ever wrote. Measured as metadata bytes per
    // surviving version (sibling counts are identical across mechanisms —
    // both track the same true concurrency).
    let run_meta = |clients: usize, dvv: bool| -> f64 {
        let cfg = ClusterConfig {
            servers: 3,
            clients,
            cycles_per_client: 6,
            client: ClientConfig {
                key_count: 1,
                think_time: simnet::Duration::from_micros(200),
                ..ClientConfig::default()
            },
            ..ClusterConfig::default()
        };
        let report = if dvv {
            let mut c = Cluster::new(11, DvvMechanism, cfg);
            c.run();
            c.converge();
            c.metadata_report()
        } else {
            let mut c = Cluster::new(11, VvClientMechanism::unbounded(), cfg);
            c.run();
            c.converge();
            c.metadata_report()
        };
        report.mean_bytes_per_key / report.mean_siblings.max(1.0)
    };
    let dvv_small = run_meta(4, true);
    let dvv_big = run_meta(32, true);
    let vvc_small = run_meta(4, false);
    let vvc_big = run_meta(32, false);
    // DVV: per-version clock bounded by #replicas — flat in #clients
    assert!(
        dvv_big < dvv_small * 2.0,
        "dvv per-version clock should stay flat: {dvv_small:.1} → {dvv_big:.1}"
    );
    // VV-per-client: per-version clock grows with the client population
    assert!(
        vvc_big > vvc_small * 3.0,
        "vv-client per-version clock should grow: {vvc_small:.1} → {vvc_big:.1}"
    );
    assert!(
        dvv_big * 3.0 < vvc_big,
        "with many clients the paper's design must be much smaller: dvv={dvv_big:.1} vvc={vvc_big:.1}"
    );
}

#[test]
fn all_mechanisms_converge_replicas_identically() {
    // converge() must equalize all servers regardless of mechanism
    fn check<M: Mechanism<StampedValue>>(mech: M) {
        let mut c = Cluster::new(5, mech, contended());
        c.run();
        c.converge();
        for key in c.oracle().keys() {
            let s0 = c.surviving_at(0, &key);
            for i in 1..c.server_count() {
                assert_eq!(s0, c.surviving_at(i, &key));
            }
        }
    }
    check(DvvMechanism);
    check(DvvSetMechanism);
    check(VvClientMechanism::unbounded());
    check(VvServerMechanism);
    check(LamportMechanism);
    check(CausalHistoryMechanism);
    check(OrderedVvMechanism);
}
