//! Property-based end-to-end tests: random seeds, workloads and fault
//! schedules — the DVV-family mechanisms must audit clean on all of them.

use dvv::mechanisms::{DvvMechanism, DvvSetMechanism};
use dvv::ReplicaId;
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::config::ClientConfig;
use kvstore::FleetHarness;
use proptest::prelude::*;
use simnet::{Duration, NodeId};

#[derive(Clone, Debug)]
struct Workload {
    seed: u64,
    clients: usize,
    cycles: u32,
    keys: usize,
    think_us: u64,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (any::<u64>(), 1usize..6, 1u32..8, 1usize..4, 100u64..3000).prop_map(
        |(seed, clients, cycles, keys, think_us)| Workload {
            seed,
            clients,
            cycles,
            keys,
            think_us,
        },
    )
}

fn config_for(w: &Workload) -> ClusterConfig {
    ClusterConfig {
        servers: 3,
        clients: w.clients,
        cycles_per_client: w.cycles,
        client: ClientConfig {
            key_count: w.keys,
            think_time: Duration::from_micros(w.think_us),
            ..ClientConfig::default()
        },
        deadline: Duration::from_secs(2_000),
        ..ClusterConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dvv_store_clean_on_random_workloads(w in arb_workload()) {
        let mut c = Cluster::new(w.seed, DvvMechanism, config_for(&w));
        prop_assert!(c.run());
        c.converge();
        let r = c.anomaly_report();
        prop_assert!(r.is_clean(), "workload {:?}: {:?}", w, r);
        prop_assert_eq!(r.total_writes, u64::from(w.cycles) * w.clients as u64);
    }

    #[test]
    fn dvvset_store_clean_on_random_workloads(w in arb_workload()) {
        let mut c = Cluster::new(w.seed, DvvSetMechanism, config_for(&w));
        prop_assert!(c.run());
        c.converge();
        let r = c.anomaly_report();
        prop_assert!(r.is_clean(), "workload {:?}: {:?}", w, r);
    }

    #[test]
    fn dvv_store_clean_under_random_partition(
        w in arb_workload(),
        victim in 0u32..3,
        start_ms in 1u64..30,
        span_ms in 5u64..60,
    ) {
        let mut c = Cluster::new(w.seed, DvvMechanism, config_for(&w));
        c.run_for(Duration::from_millis(start_ms));
        let others: Vec<NodeId> = (0..(3 + w.clients) as u32)
            .filter(|i| *i != victim)
            .map(NodeId)
            .collect();
        c.sim_mut().network_mut().partition_two(others, [NodeId(victim)]);
        c.set_replica_status(ReplicaId(victim), false);
        c.run_for(Duration::from_millis(span_ms));
        c.sim_mut().network_mut().heal();
        c.set_replica_status(ReplicaId(victim), true);
        prop_assert!(c.run(), "sessions must finish after healing");
        c.converge();
        let r = c.anomaly_report();
        prop_assert!(r.is_clean(), "workload {:?} victim {}: {:?}", w, victim, r);
    }

    #[test]
    fn deterministic_replay(w in arb_workload()) {
        let run = || {
            let mut c = Cluster::new(w.seed, DvvMechanism, config_for(&w));
            c.run();
            c.converge();
            (c.sim().now(), c.sim().network().stats(), c.anomaly_report())
        };
        prop_assert_eq!(run(), run());
    }
}
