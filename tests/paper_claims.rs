//! Each quantitative claim of the paper, asserted as a cross-crate
//! integration test (operation-count and byte-level shapes; the timing
//! shapes are measured by the `figures` binary, E4 and E9, and the repo
//! benchmark, `perfbench/`).

use dvv::encode::Encode;
use dvv::mechanisms::{DvvMechanism, Mechanism, VvClientMechanism, VvServerMechanism};
use dvv::server::{context, update, Tagged};
use dvv::{CausalOrder, ClientId, Dot, Dvv, ReplicaId, VersionVector};
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::config::ClientConfig;
use kvstore::FleetHarness;
use simnet::Duration;

/// Claim 2 (O(1) verification): a DVV comparison touches one map entry
/// regardless of the number of actors — byte-for-byte, the comparison
/// result must not depend on how many entries pad the vectors.
#[test]
fn dvv_comparison_independent_of_vector_width() {
    for n in [1u32, 10, 1000] {
        let past: VersionVector<ReplicaId> = (0..n).map(|i| (ReplicaId(i), 5u64)).collect();
        let a = Dvv::new(Dot::new(ReplicaId(0), 6), past.clone());
        let mut past_b = past.clone();
        past_b.record(Dot::new(ReplicaId(0), 6));
        let b = Dvv::new(Dot::new(ReplicaId(1), 6), past_b);
        assert_eq!(a.causal_cmp(&b), CausalOrder::Before);
        assert_eq!(b.causal_cmp(&a), CausalOrder::After);
        // and the verdict is reached via a single containment check:
        assert!(b.past().contains(a.dot()));
    }
}

/// Claim 3 (metadata bounded by replication degree): DVV clock entries
/// never exceed the number of replica servers, no matter how many
/// clients write.
#[test]
fn dvv_entries_bounded_by_replicas() {
    let mech = DvvMechanism;
    let servers = [ReplicaId(0), ReplicaId(1), ReplicaId(2)];
    let mut state: Vec<Tagged<ReplicaId, u64>> = Vec::new();
    for c in 0..200u64 {
        let (_, ctx) = mech.read(&state);
        let server = servers[(c % 3) as usize];
        mech.write(
            &mut state,
            dvv::mechanisms::WriteOrigin::new(server, ClientId(c)),
            &ctx,
            c,
        );
    }
    for t in &state {
        assert!(t.clock.past().len() <= 3, "past wider than replica count");
    }
    let (_, ctx) = mech.read(&state);
    assert!(ctx.len() <= 3, "context wider than replica count");
}

/// Claim 3 converse: per-client vectors grow with the client population.
#[test]
fn per_client_vectors_grow_with_clients() {
    let mech = VvClientMechanism::unbounded();
    let mut state: Vec<(VersionVector<ClientId>, u64)> = Vec::new();
    for c in 0..50u64 {
        let (_, ctx) = mech.read(&state);
        mech.write(
            &mut state,
            dvv::mechanisms::WriteOrigin::new(ReplicaId(0), ClientId(c)),
            &ctx,
            c,
        );
    }
    let (_, ctx) = mech.read(&state);
    assert_eq!(ctx.len(), 50, "one entry per client ever seen");
    // and the encoded size reflects it
    assert!(ctx.encoded_len() > 50);
}

/// Claim 4a (Figure 1b): per-server VVs silently destroy a concurrent
/// client write; DVVs never do. (Store-level version in the kvstore
/// integration tests; this is the minimal two-write witness.)
#[test]
fn vv_server_loses_what_dvv_keeps() {
    fn run<M: Mechanism<&'static str>>(mech: M) -> usize {
        let origin = |c: u64| dvv::mechanisms::WriteOrigin::new(ReplicaId(0), ClientId(c));
        let mut st = M::State::default();
        mech.write(&mut st, origin(1), &M::Context::default(), "v1");
        let (_, ctx) = mech.read(&st);
        mech.write(&mut st, origin(1), &ctx, "v2");
        mech.write(&mut st, origin(2), &ctx, "v3");
        mech.sibling_count(&st)
    }
    assert_eq!(run(VvServerMechanism), 1, "v2 destroyed");
    assert_eq!(run(DvvMechanism), 2, "v2 ∥ v3 kept");
}

/// Claim 4b (pruning unsafety): in the full store, pruned per-client
/// vectors produce anomalies that the unpruned and DVV stores never do.
#[test]
fn pruning_anomalies_at_store_level() {
    let config = || ClusterConfig {
        servers: 3,
        clients: 16,
        cycles_per_client: 8,
        client: ClientConfig {
            key_count: 2,
            think_time: Duration::from_micros(200),
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut pruned_anomalies = 0;
    for seed in 0..5 {
        let mut c = Cluster::new(seed, VvClientMechanism::pruned(2), config());
        c.run();
        c.converge();
        let r = c.anomaly_report();
        pruned_anomalies += r.lost_updates + r.false_concurrency;
    }
    assert!(pruned_anomalies > 0, "pruning must corrupt causality");

    for seed in 0..3 {
        let mut c = Cluster::new(seed, DvvMechanism, config());
        c.run();
        c.converge();
        assert!(c.anomaly_report().is_clean());
    }
}

/// Claim 5 (metadata/latency): on the same workload the converged DVV
/// store carries less causal metadata than the per-client-VV store once
/// clients outnumber replicas.
#[test]
fn dvv_store_metadata_smaller_with_many_clients() {
    let config = ClusterConfig {
        servers: 3,
        clients: 24,
        cycles_per_client: 6,
        client: ClientConfig {
            key_count: 1,
            think_time: Duration::from_micros(200),
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut dvv = Cluster::new(9, DvvMechanism, config.clone());
    dvv.run();
    dvv.converge();
    let mut vvc = Cluster::new(9, VvClientMechanism::unbounded(), config);
    vvc.run();
    vvc.converge();
    let d = dvv.metadata_report();
    let v = vvc.metadata_report();
    assert!(
        d.total_bytes * 2 < v.total_bytes,
        "dvv {}B should be far below vv-client {}B",
        d.total_bytes,
        v.total_bytes
    );
}

/// The facade crate re-exports everything the examples need.
#[test]
fn facade_reexports_work() {
    let _vv: dvv_repro::dvv::VersionVector<&str> = dvv_repro::dvv::VersionVector::new();
    let _ring: dvv_repro::ring::HashRing<u32> = dvv_repro::ring::HashRing::new(0..3);
    let _z = dvv_repro::workloads::Zipf::new(10, 1.0);
    let t = dvv_repro::simnet::SimTime::ZERO;
    assert_eq!(t.as_micros(), 0);
}

/// Server-side update/context round-trip across the public API surface.
#[test]
fn public_api_smoke() {
    let mut siblings: Vec<Tagged<&str, &str>> = Vec::new();
    update(&mut siblings, &VersionVector::new(), "A", "x");
    let ctx = context(&siblings);
    assert_eq!(ctx.get(&"A"), 1);
    let clock = update(&mut siblings, &ctx, "B", "y");
    assert_eq!(clock.dot(), &Dot::new("B", 1));
    assert_eq!(siblings.len(), 1);
}
