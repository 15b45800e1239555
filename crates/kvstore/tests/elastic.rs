//! Elastic-membership and ownership-aware-coordination scenarios:
//!
//! * a server outside a key's preference list must not count itself
//!   toward R/W quorums nor write into its own store (regression for the
//!   quorum self-counting bug): it relays the request to an owner;
//! * live node join/leave with key-range transfer must never lose an
//!   acknowledged write, and a joiner must end up serving its ranges;
//! * hint obligations must not leak when garbage collection reclaims
//!   fully-deleted keys;
//! * anti-entropy divergence must be an initiator-side statistic.

use std::collections::BTreeSet;

use dvv::mechanisms::{DvvMechanism, Mechanism, WriteOrigin};
use dvv::{ClientId, ReplicaId};
use kvstore::cluster::{Cluster, ClusterConfig, StoreProc};
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::messages::Msg;
use kvstore::node::StoreNode;
use kvstore::value::{Key, StampedValue, WriteId};
use ring::{HashRing, RingView};
use simnet::{Duration, NetworkConfig, NodeId, SimTime, Simulation};
use workloads::{churn_seeds, ChurnAction, ChurnPlan};

type M = DvvMechanism;

/// Finds a key together with a server that is *not* in its preference
/// list (requires more servers than the replication factor).
fn key_with_outsider(servers: u32, n: usize) -> (Key, ReplicaId, Vec<ReplicaId>) {
    let ring = HashRing::with_vnodes((0..servers).map(ReplicaId), 32);
    for i in 0..10_000 {
        let key = format!("key-{i}").into_bytes();
        let prefs = ring.preference_list(&key, n);
        if let Some(outsider) = (0..servers).map(ReplicaId).find(|r| !prefs.contains(r)) {
            return (key, outsider, prefs);
        }
    }
    panic!("no key with a non-owner among {servers} servers");
}

fn quiet_config(servers: usize) -> ClusterConfig {
    ClusterConfig {
        servers,
        clients: 1,
        cycles_per_client: 0, // traffic is injected via post()
        store: StoreConfig {
            anti_entropy_interval: Duration::ZERO,
            handoff_interval: Duration::ZERO,
            ..StoreConfig::default()
        },
        ..ClusterConfig::default()
    }
}

#[test]
fn non_owner_coordinator_keeps_its_store_empty_and_delegates_writes() {
    let (key, outsider, owners) = key_with_outsider(4, 3);
    let mut c = Cluster::new(7, DvvMechanism, quiet_config(4));
    let digest = c.view_digest();

    let put: Msg<M> = Msg::ClientPut {
        req: 1,
        key: key.clone(),
        value: StampedValue::new(WriteId::new(ClientId(9), 1), vec![7u8; 16]),
        ctx: Default::default(),
        digest,
    };
    c.sim_mut().post(NodeId(outsider.0), put);
    c.run_for(Duration::from_millis(50));

    let relay = c.server(outsider.0 as usize);
    assert!(
        relay.data().is_empty(),
        "a non-owner must not store keys it does not own"
    );
    assert_eq!(
        relay.metadata_bytes(),
        0,
        "no metadata pollution at the non-owner"
    );
    assert_eq!(relay.stats().remote_coordinations, 1);
    assert_eq!(relay.stats().puts_ok + relay.stats().quorum_timeouts, 0);
    let first = c.server(owners[0].0 as usize);
    assert_eq!(first.stats().puts_ok, 1, "W=2 met by the first owner");
    for owner in &owners {
        assert!(
            c.server(owner.0 as usize).data().contains_key(&key),
            "owner {owner:?} must hold the delegated write"
        );
    }

    // the same holds for reads: the first owner's quorum, no local fold
    let get: Msg<M> = Msg::ClientGet {
        req: 2,
        key: key.clone(),
        digest,
    };
    c.sim_mut().post(NodeId(outsider.0), get);
    c.run_for(Duration::from_millis(50));
    let relay = c.server(outsider.0 as usize);
    assert_eq!(relay.stats().remote_coordinations, 2);
    assert_eq!(c.server(owners[0].0 as usize).stats().gets_ok, 1);
    assert!(
        relay.data().is_empty(),
        "a relayed read must not fold state into a non-owner"
    );
}

#[test]
fn non_owner_coordinator_cannot_substitute_for_a_real_replica() {
    // R = W = N = 3: every true owner must answer. Silently partition one
    // owner (failure detector not told) — the pre-fix coordinator would
    // have counted its own store as the third response and acknowledged
    // anyway; the outsider relays to the first owner and must time out.
    let (key, outsider, owners) = key_with_outsider(4, 3);
    let mut cfg = quiet_config(4);
    cfg.store.r = 3;
    cfg.store.w = 3;
    let mut c = Cluster::new(9, DvvMechanism, cfg);
    let digest = c.view_digest();

    let silent = owners[2];
    let reachable: Vec<NodeId> = (0..5u32)
        .map(NodeId)
        .filter(|nid| nid.0 != silent.0)
        .collect();
    c.sim_mut()
        .network_mut()
        .partition_two(reachable, [NodeId(silent.0)]);

    let put: Msg<M> = Msg::ClientPut {
        req: 1,
        key: key.clone(),
        value: StampedValue::new(WriteId::new(ClientId(9), 1), vec![7u8; 16]),
        ctx: Default::default(),
        digest,
    };
    c.sim_mut().post(NodeId(outsider.0), put);
    let get: Msg<M> = Msg::ClientGet {
        req: 2,
        key,
        digest,
    };
    c.sim_mut().post(NodeId(outsider.0), get);
    c.run_for(Duration::from_millis(200));

    let coordinator = c.server(outsider.0 as usize);
    assert_eq!(
        coordinator.stats().puts_ok,
        0,
        "two reachable owners must not satisfy W=3"
    );
    assert_eq!(
        coordinator.stats().gets_ok,
        0,
        "two reachable owners must not satisfy R=3"
    );
    assert_eq!(coordinator.stats().quorum_timeouts, 2);
    assert!(coordinator.data().is_empty());
}

#[test]
fn garbage_collection_purges_hint_obligations_with_their_keys() {
    // Every write is a delete; server 0 is down throughout, so fallbacks
    // accumulate hints for it. With handoff disabled the hints can never
    // drain — after convergence + GC reclaims the all-tombstone keys,
    // the matching hints must be purged rather than leak forever.
    let mut cfg = ClusterConfig {
        servers: 4,
        clients: 3,
        cycles_per_client: 10,
        store: StoreConfig {
            anti_entropy_interval: Duration::ZERO,
            handoff_interval: Duration::ZERO,
            ..StoreConfig::default()
        },
        client: ClientConfig {
            key_count: 6,
            delete_fraction: 1.0,
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    cfg.deadline = Duration::from_secs(1_000);
    let mut c = Cluster::new(5, DvvMechanism, cfg);
    c.set_replica_status(ReplicaId(0), false);
    assert!(c.run(), "sessions finish around the down replica");

    let hints_before: usize = (0..4).map(|i| c.server(i).hint_count()).sum();
    assert!(hints_before > 0, "sloppy quorums must have created hints");

    c.converge();
    let reclaimed: usize = c.collect_garbage().into_iter().sum();
    assert!(reclaimed > 0, "all-tombstone keys must be reclaimed");

    for i in 0..4 {
        let server = c.server(i);
        let keys: BTreeSet<Key> = server.data().keys().cloned().collect();
        for hinted in server.hinted_keys() {
            assert!(
                keys.contains(&hinted),
                "server {i} holds a hint for reclaimed key {hinted:?}"
            );
        }
    }
    let hints_after: usize = (0..4).map(|i| c.server(i).hint_count()).sum();
    assert_eq!(
        hints_after, 0,
        "every key was deleted, so every hint obligation is moot"
    );
}

#[test]
fn aae_divergence_is_an_initiator_side_statistic() {
    // Node 0 runs anti-entropy; node 1 only responds. Seed divergence at
    // node 0 and let the protocol reconcile: exactly one round finds
    // divergent keys, and it must be counted at the initiator — the
    // responder's counters stay zero so divergent/rounds ratios are
    // meaningful per node.
    let replicas = [ReplicaId(0), ReplicaId(1)];
    let view = RingView::from_members(replicas);
    let initiator_cfg = StoreConfig {
        n: 2,
        r: 1,
        w: 1,
        anti_entropy_interval: Duration::from_millis(10),
        handoff_interval: Duration::ZERO,
        vnodes: 16,
        ..StoreConfig::default()
    };
    let responder_cfg = StoreConfig {
        anti_entropy_interval: Duration::ZERO,
        ..initiator_cfg
    };
    let mech = DvvMechanism;
    let mut sim: Simulation<StoreProc<M>> = Simulation::new(
        3,
        NetworkConfig::default(),
        vec![
            StoreProc::Server(StoreNode::new(
                ReplicaId(0),
                mech,
                initiator_cfg,
                view.clone(),
            )),
            StoreProc::Server(StoreNode::new(ReplicaId(1), mech, responder_cfg, view)),
        ],
    );

    let mut state: <M as Mechanism<StampedValue>>::State = Default::default();
    mech.write(
        &mut state,
        WriteOrigin::new(ReplicaId(0), ClientId(7)),
        &Default::default(),
        StampedValue::new(WriteId::new(ClientId(7), 1), vec![1, 2, 3]),
    );
    if let StoreProc::Server(s) = sim.process_mut(0) {
        s.merge_state_direct(b"k", &state);
    }

    sim.run_until(SimTime::ZERO + Duration::from_millis(200));

    let (initiator, responder) = match (sim.process(0), sim.process(1)) {
        (StoreProc::Server(a), StoreProc::Server(b)) => (a, b),
        _ => unreachable!(),
    };
    assert!(initiator.stats().aae_rounds >= 2, "many rounds initiated");
    assert_eq!(
        initiator.stats().aae_divergent,
        1,
        "exactly the first round found divergence, counted at the initiator"
    );
    assert!(initiator.stats().aae_divergent <= initiator.stats().aae_rounds);
    assert_eq!(responder.stats().aae_rounds, 0, "responder never initiated");
    assert_eq!(
        responder.stats().aae_divergent,
        0,
        "responding to AaeRoot/AaeStates must not count as divergence"
    );
    assert!(
        responder.data().contains_key(b"k".as_slice()),
        "anti-entropy delivered the divergent key"
    );
}

fn elastic_config(seed_keys: usize) -> ClusterConfig {
    ClusterConfig {
        servers: 3,
        spare_servers: 1,
        clients: 4,
        cycles_per_client: 30,
        store: StoreConfig {
            anti_entropy_interval: Duration::from_millis(100),
            ..StoreConfig::default()
        },
        client: ClientConfig {
            key_count: seed_keys,
            ..ClientConfig::default()
        },
        deadline: Duration::from_secs(1_000),
        ..ClusterConfig::default()
    }
}

#[test]
fn live_join_streams_owned_ranges_to_the_new_node() {
    let mut c = Cluster::new(17, DvvMechanism, elastic_config(8));

    // workload in flight before the join
    c.run_for(Duration::from_millis(40));
    let keys_before: BTreeSet<Key> = (0..3)
        .flat_map(|i| c.server(i).data().keys().cloned().collect::<Vec<_>>())
        .collect();
    assert!(!keys_before.is_empty(), "pre-join traffic landed");

    assert!(c.add_node_live(3), "join transfers must settle");
    assert_eq!(c.member_slots(), vec![0, 1, 2, 3]);

    let joiner = c.server(3);
    assert!(joiner.is_active());
    assert!(joiner.stats().transfers_in > 0, "ranges were streamed");
    let donated: u64 = (0..3).map(|i| c.server(i).stats().transfers_out).sum();
    assert!(donated > 0, "current owners donated moved ranges");

    // the joiner serves every pre-join key it now owns
    let new_ring = HashRing::with_vnodes((0..4u32).map(ReplicaId), 32);
    let owned: Vec<&Key> = keys_before
        .iter()
        .filter(|k| new_ring.preference_list(k, 3).contains(&ReplicaId(3)))
        .collect();
    assert!(!owned.is_empty(), "the joiner owns some pre-join keys");
    for key in owned {
        assert!(
            c.server(3).data().contains_key(key),
            "joiner missing owned key {key:?}"
        );
    }

    // finish the workload across the grown cluster; nothing may be lost
    assert!(c.run(), "sessions finish after the join");
    c.converge();
    let report = c.anomaly_report();
    assert!(report.is_clean(), "{report:?}");
    assert!(report.acked_writes > 0);
}

#[test]
fn live_leave_drains_ranges_without_losing_acked_writes() {
    let mut cfg = elastic_config(8);
    cfg.servers = 4;
    cfg.spare_servers = 0;
    cfg.store.n = 2;
    cfg.store.r = 2;
    cfg.store.w = 2;
    let mut c = Cluster::new(23, DvvMechanism, cfg);

    c.run_for(Duration::from_millis(40));
    assert!(
        !c.server(0).data().is_empty(),
        "the leaver holds data to drain"
    );

    assert!(c.remove_node_live(0), "drain must settle");
    assert_eq!(c.member_slots(), vec![1, 2, 3]);
    assert!(!c.server(0).is_active(), "the leaver retired");
    assert!(
        c.server(0).data().is_empty(),
        "the leaver's store was fully drained"
    );

    // The strongest no-loss check runs *before* convergence: every acked
    // causally-maximal write must survive somewhere among the remaining
    // members — convergence can only merge what members still hold.
    let oracle = c.oracle();
    for key in oracle.keys() {
        let union = c.surviving_union(&key);
        let (lost, _) = oracle.audit_key(&key, &union);
        assert_eq!(lost, 0, "acked write lost across the leave for {key:?}");
    }

    assert!(c.run(), "sessions finish on the shrunken cluster");
    c.converge();
    let report = c.anomaly_report();
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn failed_drain_readmits_the_leaver_in_band_under_a_fresh_incarnation() {
    // Isolate the leaver so its drain can never be acknowledged: the
    // removal must fail and re-admit the node *in band* — a fresh `Up`
    // incarnation carried by a posted `RingEpoch`, not a harness-forced
    // view sync — keeping its data. While the partition stands, the
    // surviving members still hold the `Leaving` entry; after the heal,
    // gossip alone must merge the re-admission everywhere.
    let mut cfg = elastic_config(6);
    cfg.servers = 4;
    cfg.spare_servers = 0;
    cfg.store.n = 2;
    cfg.store.r = 2;
    cfg.store.w = 2;
    cfg.cycles_per_client = 10;
    cfg.membership_settle_budget = Duration::from_secs(2);
    let mut c = Cluster::new(31, DvvMechanism, cfg);
    assert!(c.run(), "workload completes before the churn");
    assert!(!c.server(0).data().is_empty());

    let version_before = c.ring_epoch();
    let others: Vec<NodeId> = (0..8u32).map(NodeId).filter(|n| n.0 != 0).collect();
    c.sim_mut().network_mut().partition_two(others, [NodeId(0)]);
    assert!(
        !c.remove_node_live(0),
        "an unreachable leaver cannot drain — removal must fail"
    );
    assert!(c.member_slots().contains(&0), "the leaver was re-admitted");
    assert!(
        c.server(0).is_active(),
        "the re-admitted node keeps serving"
    );
    assert!(
        !c.server(0).data().is_empty(),
        "an undrained store must not be cleared"
    );
    assert!(
        c.ring_epoch() >= version_before + 2,
        "the leave and the re-admission each spend a fresh incarnation"
    );
    assert_eq!(
        c.server(0).view_digest(),
        c.view_digest(),
        "the re-admission carried the canonical view to the subject"
    );
    assert!(
        c.member_slots()
            .into_iter()
            .filter(|&i| i != 0)
            .any(|i| c.server(i).view_digest() != c.view_digest()),
        "while partitioned, the survivors cannot have learned the rejoin yet"
    );

    // heal: gossip alone merges the re-admission into every view
    c.sim_mut().network_mut().heal();
    c.run_for(Duration::from_millis(500));
    for i in c.member_slots() {
        assert_eq!(
            c.server(i).view_digest(),
            c.view_digest(),
            "server {i} did not converge onto the re-admitted view by gossip"
        );
    }

    // retry: now the drain goes through
    assert!(c.remove_node_live(0), "drain succeeds once reachable");
    assert_eq!(c.member_slots(), vec![1, 2, 3]);
    c.converge();
    let report = c.anomaly_report();
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn elastic_churn_with_partition_is_oracle_clean_across_seeds() {
    for seed in churn_seeds(&[11, 29, 47]) {
        let mut cfg = ClusterConfig {
            servers: 3,
            spare_servers: 2,
            clients: 4,
            cycles_per_client: 40,
            store: StoreConfig {
                n: 2,
                r: 2,
                w: 2,
                anti_entropy_interval: Duration::from_millis(50),
                ..StoreConfig::default()
            },
            client: ClientConfig {
                key_count: 6,
                ..ClientConfig::default()
            },
            ..ClusterConfig::default()
        }
        // the faults lane re-runs this suite with NET_FAULTS=hostile
        .with_env_net_faults();
        cfg.deadline = Duration::from_secs(2_000);
        let mut c = Cluster::new(seed, DvvMechanism, cfg);

        // phase 1: traffic, then a partition that heals (sloppy quorums
        // + hinted handoff carry the load meanwhile)
        c.run_for(Duration::from_millis(30));
        let everyone_else: Vec<NodeId> = (0..10u32).map(NodeId).filter(|n| n.0 != 1).collect();
        c.sim_mut()
            .network_mut()
            .partition_two(everyone_else, [NodeId(1)]);
        c.set_replica_status(ReplicaId(1), false);
        c.run_for(Duration::from_millis(60));
        c.sim_mut().network_mut().heal();
        c.set_replica_status(ReplicaId(1), true);
        c.run_for(Duration::from_millis(20));

        // phase 2: a randomized (but deterministic) churn plan derived
        // from the seed — joins and leaves interleaved with the workload
        let draws: Vec<f64> = (0..5)
            .map(|i| (((seed * 31 + i * 17) % 100) as f64) / 100.0)
            .collect();
        let plan = ChurnPlan::from_draws(&[0, 1, 2], &[3, 4], 3, 0.5, 20_000, &draws);
        assert!(!plan.is_empty(), "seed {seed} produced no churn");
        for event in plan.events() {
            c.run_for(Duration::from_micros(event.after_micros));
            match event.action {
                ChurnAction::Join(slot) => {
                    assert!(c.add_node_live(slot), "seed {seed}: join {slot} settled");
                }
                ChurnAction::Leave(slot) => {
                    assert!(
                        c.remove_node_live(slot),
                        "seed {seed}: leave {slot} settled"
                    );
                }
            }
        }

        assert!(c.run(), "seed {seed}: sessions finish after churn");
        c.converge();
        let report = c.anomaly_report();
        assert!(report.is_clean(), "seed {seed}: {report:?}");
        assert!(report.acked_writes > 0, "seed {seed}: no acked writes");

        // pre-converge union audit across the final member set
        let oracle = c.oracle();
        for key in oracle.keys() {
            let (lost, _) = oracle.audit_key(&key, &c.surviving_union(&key));
            assert_eq!(lost, 0, "seed {seed}: write lost for {key:?}");
        }
    }
}
