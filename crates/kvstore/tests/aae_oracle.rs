//! The incremental-AAE equivalence oracle: the ownership-partitioned
//! per-arc Merkle summaries that [`kvstore::node::StoreNode`] maintains
//! *in place* at every mutation site must, at any observation point,
//! equal a from-scratch rebuild over the keyspace. This suite is the
//! safety net of the incremental-AAE refactor:
//!
//! * a proptest drives a [`kvstore::data::DataStore`] through arbitrary
//!   interleavings of sets, overwrites, removes, re-partitions and
//!   clears, auditing the index after every step and checking every
//!   key's leaf and presence against a naive model;
//! * deterministic cluster scenarios drive the full protocol stack —
//!   puts, deletes, read repair, AAE, hinted handoff, range transfers,
//!   partitions, live join/leave churn, GC — and audit every member's
//!   index at multiple observation points, mid-flight included;
//! * arc indices a peer sends past the ring's end, or for an arc the two
//!   do not share, neither panic the receiver nor widen the exchange.
//!
//! The nightly soak lane runs this at high `PROPTEST_CASES` and with the
//! extra churn seeds (`workloads::churn_seeds`).

use dvv::mechanisms::{DvvMechanism, Mechanism, WriteOrigin};
use dvv::{ClientId, ReplicaId, VersionVector};
use kvstore::cluster::{Cluster, ClusterConfig, StoreProc};
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::ctx::Timer;
use kvstore::data::DataStore;
use kvstore::merkle::fingerprint;
use kvstore::messages::Msg;
use kvstore::node::StoreNode;
use kvstore::value::{Key, StampedValue, WriteId};
use kvstore::FleetHarness;
use proptest::collection::vec;
use proptest::prelude::*;
use ring::RingView;
use simnet::{Duration, NetworkConfig, NodeId, Process, ProcessCtx, Simulation};

type M = DvvMechanism;

/// One abstract mutation of a data store / its AAE index.
#[derive(Clone, Debug)]
enum Op {
    /// Mutate (insert-or-update) key `k % 24` to hold `v`.
    Set(u8, u64),
    /// Remove key `k % 24`.
    Remove(u8),
    /// Adopt a fresh arc partition derived from the seed (what a view
    /// merge does after rebuilding the ring).
    Repartition(u8),
    /// Drop everything (what `finish_leave` does).
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // the vendored prop_oneof! picks uniformly; weight by repetition so
    // most steps are data mutations, with partition changes and clears
    // sprinkled through
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| Op::Set(k % 24, v)),
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| Op::Set(k % 24, v)),
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| Op::Set(k % 24, v)),
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| Op::Set(k % 24, v)),
        any::<u8>().prop_map(|k| Op::Remove(k % 24)),
        any::<u8>().prop_map(|k| Op::Remove(k % 24)),
        (1u8..12).prop_map(Op::Repartition),
        (10u8..70).prop_map(|s| {
            if s % 9 == 0 {
                Op::Clear
            } else {
                Op::Repartition(s % 12)
            }
        }),
    ]
}

/// Deterministic pseudo-arc-partition for a seed: `count` boundaries
/// spread over the 64-bit circle with seed-dependent jitter.
fn bounds_for(seed: u8) -> Vec<u64> {
    let count = usize::from(seed % 7) + 1;
    (0..count)
        .map(|i| {
            let step = u64::MAX / count as u64;
            step * i as u64 + u64::from(seed) * 0x9e37_79b9
        })
        .collect::<std::collections::BTreeSet<u64>>()
        .into_iter()
        .collect()
}

proptest! {
    #[test]
    fn data_store_index_equals_rebuild_after_arbitrary_interleavings(
        ops in vec(arb_op(), 1..120),
    ) {
        let mut d: DataStore<u64> = DataStore::new();
        let mut model: std::collections::BTreeMap<Vec<u8>, u64> =
            std::collections::BTreeMap::new();
        for op in ops {
            match op {
                Op::Set(k, v) => {
                    d.mutate(&[k], |s| *s = v);
                    model.insert(vec![k], v);
                }
                Op::Remove(k) => {
                    let was = d.remove(&[k]);
                    prop_assert_eq!(was, model.remove(&[k] as &[u8]).is_some());
                }
                Op::Repartition(seed) => d.repartition(bounds_for(seed)),
                Op::Clear => {
                    d.clear();
                    model.clear();
                }
            }
            // the refactor's core invariant, checked after *every* step
            d.audit_index().map_err(TestCaseError::fail)?;
            prop_assert_eq!(d.len(), model.len());
            // every key's leaf, read from its arc's summary, against
            // the model
            for k in 0..24u8 {
                let held = model.get(&[k] as &[u8]);
                prop_assert_eq!(d.leaf_of(&[k]), held.map(fingerprint));
                prop_assert_eq!(d.contains_key(&[k]), held.is_some());
            }
        }
        for (k, v) in &model {
            prop_assert_eq!(d.get(k), Some(v));
        }
    }
}

/// Audits every current member's incremental AAE index against a
/// from-scratch rebuild (per-arc summaries and their leaves, and the
/// assembled shared summary for every peer).
fn audit_all(c: &Cluster<DvvMechanism>, seed: u64, stage: &str) {
    for i in c.member_slots() {
        c.server(i)
            .audit_aae_index()
            .unwrap_or_else(|e| panic!("seed {seed}, {stage}: {e}"));
    }
}

#[test]
fn cluster_churn_keeps_incremental_summaries_equal_to_rebuild() {
    // Full-stack interleavings: client puts and deletes, read repair,
    // AAE exchanges, hinted handoff under a partition, live join/leave
    // (range transfers + view merges by gossip), GC — with the audit
    // run at observation points *during* the run, not just at the end.
    for seed in workloads::churn_seeds(&[7, 19]) {
        let cfg = ClusterConfig {
            servers: 3,
            spare_servers: 2,
            clients: 4,
            cycles_per_client: 25,
            store: StoreConfig {
                n: 2,
                r: 2,
                w: 2,
                anti_entropy_interval: Duration::from_millis(50),
                ..StoreConfig::default()
            },
            client: ClientConfig {
                key_count: 8,
                delete_fraction: 0.15,
                ..ClientConfig::default()
            },
            deadline: Duration::from_secs(2_000),
            ..ClusterConfig::default()
        };
        let mut c = Cluster::new(seed, DvvMechanism, cfg);

        c.run_for(Duration::from_millis(25));
        audit_all(&c, seed, "warm-up traffic");

        // partitioned phase: sloppy quorums, hints, repairs
        let others: Vec<NodeId> = (0..9u32).map(NodeId).filter(|n| n.0 != 1).collect();
        c.sim_mut().network_mut().partition_two(others, [NodeId(1)]);
        c.set_replica_status(ReplicaId(1), false);
        c.run_for(Duration::from_millis(60));
        audit_all(&c, seed, "mid-partition");
        c.sim_mut().network_mut().heal();
        c.set_replica_status(ReplicaId(1), true);
        c.run_for(Duration::from_millis(20));
        audit_all(&c, seed, "post-heal");

        // live churn: joins and a leave reshape every member's arcs
        assert!(c.add_node_live(3), "seed {seed}: join 3 settled");
        audit_all(&c, seed, "post-join");
        assert!(c.remove_node_live(0), "seed {seed}: leave 0 settled");
        audit_all(&c, seed, "post-leave");

        assert!(c.run(), "seed {seed}: sessions finish");
        c.run_for(Duration::from_secs(3));
        audit_all(&c, seed, "quiesced");

        // convergence + GC exercise the harness merge and remove paths
        c.converge();
        audit_all(&c, seed, "converged");
        let report = c.anomaly_report();
        assert!(report.is_clean(), "seed {seed}: {report:?}");
        // GC after the report: reclaiming tombstones drops their write
        // ids from the surviving sets the oracle audits
        c.collect_garbage();
        audit_all(&c, seed, "post-GC");
    }
}

#[test]
fn aae_repair_behaviour_is_unchanged_by_the_incremental_summaries() {
    // Two replicas diverge behind a partition; with read repair off,
    // only anti-entropy can reconcile them. The incremental summaries
    // must drive the exact same repair as the old keyspace scan did:
    // divergence detected, states exchanged, stores converged.
    let cfg = ClusterConfig {
        servers: 2,
        clients: 2,
        cycles_per_client: 10,
        store: StoreConfig {
            n: 2,
            r: 1,
            w: 1,
            read_repair: false,
            anti_entropy_interval: Duration::from_millis(40),
            ..StoreConfig::default()
        },
        client: ClientConfig {
            key_count: 4,
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(11, DvvMechanism, cfg);
    c.run_for(Duration::from_millis(10));
    c.sim_mut()
        .network_mut()
        .partition_two([NodeId(0), NodeId(2)], [NodeId(1), NodeId(3)]);
    assert!(c.run(), "sessions finish despite the partition");
    c.sim_mut().network_mut().heal();
    c.run_for(Duration::from_secs(2));
    audit_all(&c, 11, "healed");

    let divergent: u64 = (0..2).map(|i| c.server(i).stats().aae_divergent).sum();
    assert!(divergent > 0, "anti-entropy must have found divergence");
    for key in c.oracle().keys() {
        assert_eq!(
            c.surviving_at(0, &key),
            c.surviving_at(1, &key),
            "replicas must agree on {key:?} after AAE"
        );
    }
    let report = {
        c.converge();
        c.anomaly_report()
    };
    assert!(report.is_clean(), "{report:?}");
}

/// A server that records the `AaeLeaves` and `AaeStates` it receives,
/// and relays anything posted to it on to `peer` — so the peer sees the
/// message arrive from this server, as a hostile or buggy peer would send
/// it.
struct Relay {
    node: StoreProc<M>,
    peer: NodeId,
    received: Vec<Msg<M>>,
}

impl Process for Relay {
    type Msg = Msg<M>;
    type Timer = Timer;

    fn on_start(&mut self, ctx: &mut ProcessCtx<'_, Msg<M>, Timer>) {
        self.node.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut ProcessCtx<'_, Msg<M>, Timer>, from: NodeId, msg: Msg<M>) {
        if from == ctx.id() {
            ctx.send(self.peer, msg, 0);
            return;
        }
        if matches!(msg, Msg::AaeLeaves { .. } | Msg::AaeStates { .. }) {
            self.received.push(msg.clone());
        }
        self.node.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut ProcessCtx<'_, Msg<M>, Timer>, timer: Timer) {
        self.node.on_timer(ctx, timer);
    }
}

#[test]
fn hostile_arc_indices_are_skipped_not_trusted() {
    // Arc indices are positions in the ring's token order, meaningful only
    // under the view both ends hold. A peer with a matching digest can
    // still name arcs past the end of the ring, or a real arc the two do
    // not share. Such indices must neither panic the receiver nor widen
    // the exchange: node 1 holds a key in an arc it shares with node 0 and
    // one in an arc node 0 does not replicate, and only the first may
    // travel.
    let mech = DvvMechanism;
    let view = RingView::from_members([ReplicaId(0), ReplicaId(1), ReplicaId(2)]);
    let cfg = StoreConfig {
        n: 2,
        r: 1,
        w: 1,
        anti_entropy_interval: Duration::ZERO,
        gossip_interval: Duration::ZERO,
        handoff_interval: Duration::ZERO,
        vnodes: 16,
        ..StoreConfig::default()
    };
    let ring = view.to_ring(cfg.vnodes);
    let arc_of = |key: &Key| ring::arc_index(ring.arc_bounds(), ring::hash_key(key));
    let shared = |arc: usize| {
        let prefs = ring.arc_prefs(arc, cfg.n);
        prefs.contains(&ReplicaId(0)) && prefs.contains(&ReplicaId(1))
    };
    let keys: Vec<Key> = (0..1_000)
        .map(|i| format!("key-{i}").into_bytes())
        .collect();
    let in_shared = keys.iter().find(|k| shared(arc_of(k))).unwrap().clone();
    let outside = keys
        .iter()
        .find(|k| {
            let prefs = ring.arc_prefs(arc_of(k), cfg.n);
            prefs.contains(&ReplicaId(1)) && !prefs.contains(&ReplicaId(0))
        })
        .unwrap()
        .clone();
    let (s, x) = (arc_of(&in_shared) as u32, arc_of(&outside) as u32);
    let hostile = {
        let mut arcs = vec![s, x, ring.arc_count() as u32, u32::MAX];
        arcs.sort_unstable();
        arcs
    };

    let relay = |replica: u32, peer: u32| Relay {
        node: StoreProc::Server(StoreNode::new(ReplicaId(replica), mech, cfg, view.clone())),
        peer: NodeId(peer),
        received: Vec::new(),
    };
    let mut sim = Simulation::new(
        5,
        NetworkConfig::default(),
        vec![relay(0, 1), relay(1, 0), relay(2, 0)],
    );
    let mut st = <M as Mechanism<StampedValue>>::State::default();
    mech.write(
        &mut st,
        WriteOrigin::new(ReplicaId(1), ClientId(1)),
        &VersionVector::new(),
        StampedValue::new(WriteId::new(ClientId(1), 1), vec![0xAB; 24]),
    );
    if let StoreProc::Server(node) = &mut sim.process_mut(1).node {
        node.merge_state_direct(&in_shared, &st);
        node.merge_state_direct(&outside, &st);
    }
    let digest = view.digest();
    let settle = |sim: &mut Simulation<Relay>| {
        let until = sim.now() + Duration::from_millis(50);
        sim.run_until(until);
    };

    // node 1 → node 0: per-arc roots, every listed arc claiming data
    let arcs = hostile.iter().map(|&a| (a, u64::from(a) + 1)).collect();
    sim.post(NodeId(1), Msg::AaeArcRoots { arcs, digest });
    settle(&mut sim);
    // node 0 answered the roots by narrowing to the one shared arc
    let narrowed: Vec<Vec<u32>> = sim
        .process(1)
        .received
        .iter()
        .filter_map(|m| match m {
            Msg::AaeLeaves { arcs, .. } => Some(arcs.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(narrowed, vec![vec![s]]);
    // node 0 → node 1: leaves scoped to every hostile arc, listing no key
    sim.post(
        NodeId(0),
        Msg::AaeLeaves {
            leaves: Vec::new(),
            arcs: hostile,
            digest,
        },
    );
    settle(&mut sim);
    // each of node 1's two replies stayed inside the shared arc
    let replies: Vec<Vec<Key>> = sim
        .process(0)
        .received
        .iter()
        .filter_map(|m| match m {
            Msg::AaeStates { states, want } => Some(
                states
                    .iter()
                    .map(|(k, _)| k.clone())
                    .chain(want.clone())
                    .collect(),
            ),
            _ => None,
        })
        .collect();
    assert_eq!(replies.len(), 2, "one reply per leaf exchange");
    for keys in replies {
        assert!(!keys.is_empty());
        assert!(keys.iter().all(|k| *k == in_shared), "{keys:?}");
    }
}
