//! Gossip-based ring dissemination and the residual-copy/replication
//! bugfix sweep:
//!
//! * a membership change announced to one node must reach every server
//!   transitively — including members that were partitioned during the
//!   announce — through periodic digests, AAE piggybacks, eager pushes,
//!   and request epochs (with the harness force-sync disabled);
//! * read repair pushed to a sloppy-quorum fallback must record a hint
//!   obligation so the repaired copy is handed off and retired;
//! * transfer stats must count every send and every delivery, so the
//!   receiver's count never runs ahead of the donor's;
//! * the handoff timer must not flood duplicate `Handoff` messages at a
//!   slow peer;
//! * range transfers and hinted handoff are one obligation table: one
//!   settle rule for both classes, an ack honoured only from the push's
//!   own target, and a drain that waits for a hinted copy it holds;
//! * after churn under partition, no active server may end up holding a
//!   key outside its preference list, and the pre-convergence
//!   `surviving_union` no-loss oracle must stay clean across seeds.

use dvv::mechanisms::{DvvMechanism, Mechanism, WriteOrigin};
use dvv::{ClientId, ReplicaId, VersionVector};
use kvstore::cluster::{Cluster, ClusterConfig, NodeKit, StoreProc};
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::ctx::Timer;
use kvstore::messages::{Msg, MsgClass};
use kvstore::node::StoreNode;
use kvstore::value::{Key, StampedValue, WriteId};
use kvstore::FleetHarness;
use ring::{HashRing, MemberStatus, RingView};
use simnet::{
    Duration, NetworkConfig, NodeId, Process, ProcessCtx, SimRng, SimTime, Simulation, TraceEvent,
};

type M = DvvMechanism;

/// Finds a key together with a server that is *not* in its preference
/// list (requires more servers than the replication factor).
fn key_with_outsider(servers: u32, n: usize) -> (Key, ReplicaId, Vec<ReplicaId>) {
    let ring = HashRing::with_vnodes((0..servers).map(ReplicaId), StoreConfig::default().vnodes);
    for i in 0..10_000 {
        let key = format!("key-{i}").into_bytes();
        let prefs = ring.preference_list(&key, n);
        if let Some(outsider) = (0..servers).map(ReplicaId).find(|r| !prefs.contains(r)) {
            return (key, outsider, prefs);
        }
    }
    panic!("no key with a non-owner among {servers} servers");
}

fn sample_state(origin: ReplicaId) -> <M as Mechanism<StampedValue>>::State {
    let mech = DvvMechanism;
    let mut st = Default::default();
    mech.write(
        &mut st,
        WriteOrigin::new(origin, ClientId(1)),
        &VersionVector::new(),
        StampedValue::new(WriteId::new(ClientId(1), 1), vec![0xAB; 24]),
    );
    st
}

#[test]
fn gossip_spreads_a_join_through_a_partition() {
    // Server 2 is partitioned away while a spare joins. The join cannot
    // settle (a member is unreachable), but it is not rolled back either:
    // once the partition heals, gossip alone must converge server 2 onto
    // the new ring within bounded virtual time — no force-sync.
    let mut cfg = ClusterConfig {
        servers: 4,
        spare_servers: 1,
        clients: 2,
        cycles_per_client: 10,
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
        membership_settle_budget: Duration::from_secs(2),
        ..ClusterConfig::default()
    };
    cfg.deadline = Duration::from_secs(1_000);
    let mut c = Cluster::new(17, DvvMechanism, cfg);

    c.run_for(Duration::from_millis(30));
    let version_before = c.ring_epoch();
    let digest_before = c.view_digest();

    // cut server 2 off (node ids: servers 0..4, spare 4, clients 5..7)
    let others: Vec<NodeId> = (0..7u32).map(NodeId).filter(|n| n.0 != 2).collect();
    c.sim_mut().network_mut().partition_two(others, [NodeId(2)]);
    c.set_replica_status(ReplicaId(2), false);

    let settled = c.add_node_live(4);
    assert!(!settled, "a partitioned member cannot merge the view");
    assert_eq!(
        c.ring_epoch(),
        version_before + 1,
        "one announcement, one incarnation"
    );
    let digest = c.view_digest();
    for i in [0usize, 1, 3, 4] {
        assert_eq!(
            c.server(i).view_digest(),
            digest,
            "reachable member {i} must have merged the join via gossip"
        );
    }
    assert_eq!(
        c.server(2).view_digest(),
        digest_before,
        "the partitioned member must still be on the old view"
    );
    assert!(c.server(4).is_active(), "the joiner serves regardless");
    assert!(
        c.server(4).stats().transfers_in > 0,
        "reachable owners streamed the joiner's ranges"
    );

    // heal: gossip (periodic digests + AAE piggybacks) must now close the
    // gap without any harness help, within bounded virtual time
    c.sim_mut().network_mut().heal();
    c.set_replica_status(ReplicaId(2), true);
    c.run_for(Duration::from_millis(500));
    for i in c.member_slots() {
        assert_eq!(
            c.server(i).view_digest(),
            digest,
            "server {i} did not converge via gossip after the heal"
        );
    }
    let rounds: u64 = c
        .member_slots()
        .into_iter()
        .map(|i| c.server(i).stats().gossip_rounds)
        .sum();
    assert!(rounds > 0, "convergence must have been gossip-driven");

    // the workload still finishes and loses nothing
    assert!(c.run(), "sessions finish after the healed join");
    c.run_for(Duration::from_secs(2));
    c.converge();
    let report = c.anomaly_report();
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn aae_piggybacked_digests_converge_views_without_gossip_timer() {
    // With the periodic gossip timer disabled, view digests still ride on
    // anti-entropy roots (plus the eager push after adoption) — a join
    // must settle and every member must converge onto the new epoch.
    let mut cfg = ClusterConfig {
        servers: 3,
        spare_servers: 1,
        clients: 2,
        cycles_per_client: 10,
        store: StoreConfig {
            n: 2,
            r: 2,
            w: 2,
            anti_entropy_interval: Duration::from_millis(50),
            gossip_interval: Duration::ZERO,
            ..StoreConfig::default()
        },
        ..ClusterConfig::default()
    };
    cfg.deadline = Duration::from_secs(1_000);
    let mut c = Cluster::new(11, DvvMechanism, cfg);

    c.run_for(Duration::from_millis(30));
    assert!(
        c.add_node_live(3),
        "join must settle on AAE piggybacks alone"
    );
    for i in c.member_slots() {
        assert_eq!(c.server(i).view_digest(), c.view_digest(), "server {i}");
    }
    assert!(c.run());
    c.converge();
    assert!(c.anomaly_report().is_clean());
}

#[test]
fn stale_coordinator_catches_up_from_request_digests() {
    // Both the gossip timer and AAE are off, so after the heal the *only*
    // dissemination channel left is the request path: clients that
    // learned the new view (from RingEpoch pushes) route to the stale
    // server, whose `note_peer_digest` sees a mismatched digest in the
    // request and pushes its own (stale) view — the client merges,
    // notices the server lacked entries, and pushes the merged view
    // back, so the exchange converges the server too.
    let mut cfg = ClusterConfig {
        servers: 4,
        spare_servers: 1,
        clients: 3,
        // enough cycles that plenty of traffic remains after the failed
        // join's supervision window — the request path IS the test
        cycles_per_client: 150,
        store: StoreConfig {
            n: 2,
            r: 2,
            w: 2,
            anti_entropy_interval: Duration::ZERO,
            gossip_interval: Duration::ZERO,
            ..StoreConfig::default()
        },
        client: ClientConfig {
            // wide enough that the stale server owns keys under the new
            // ring, so post-heal traffic actually routes to it
            key_count: 24,
            ..ClientConfig::default()
        },
        membership_settle_budget: Duration::from_millis(500),
        ..ClusterConfig::default()
    };
    cfg.deadline = Duration::from_secs(1_000);
    let mut c = Cluster::new(29, DvvMechanism, cfg);

    c.run_for(Duration::from_millis(30));
    let others: Vec<NodeId> = (0..8u32).map(NodeId).filter(|n| n.0 != 2).collect();
    c.sim_mut().network_mut().partition_two(others, [NodeId(2)]);
    c.set_replica_status(ReplicaId(2), false);
    let old_digest = c.server(2).view_digest();
    assert!(!c.add_node_live(4), "join cannot settle past the partition");

    c.sim_mut().network_mut().heal();
    c.set_replica_status(ReplicaId(2), true);
    assert_eq!(c.server(2).view_digest(), old_digest, "still stale");

    // client traffic alone must now catch server 2 up
    assert!(c.run(), "sessions finish");
    assert_eq!(
        c.server(2).view_digest(),
        c.view_digest(),
        "a request with a mismatched digest must have converged the views"
    );
}

#[test]
fn read_repair_to_a_substitute_records_a_hint_and_retires_the_copy() {
    // Owners p0/p1 hold a value; owner p2 is down, so a GET assembles its
    // quorum with fallback `d`. The read repair pushed to `d` must carry
    // the hint naming p2 — pre-fix it carried none, leaving an untracked
    // residual copy at `d` forever. Once p2 recovers, the handoff must
    // deliver the state and retire d's copy.
    let (key, outsider, owners) = key_with_outsider(4, 3);
    let mut cfg = ClusterConfig {
        servers: 4,
        clients: 1,
        cycles_per_client: 0, // traffic injected via post()
        store: StoreConfig {
            n: 3,
            r: 2,
            w: 2,
            anti_entropy_interval: Duration::ZERO,
            gossip_interval: Duration::ZERO,
            handoff_interval: Duration::from_millis(20),
            ..StoreConfig::default()
        },
        ..ClusterConfig::default()
    };
    cfg.deadline = Duration::from_secs(1_000);
    let mut c = Cluster::new(7, DvvMechanism, cfg);
    let digest = c.view_digest();
    let (p0, p2) = (owners[0], owners[2]);

    // identical state at the two reachable owners; nothing at `d`
    let state = sample_state(p0);
    for owner in [owners[0], owners[1]] {
        if let StoreProc::Server(s) = c.sim_mut().process_mut(owner.0 as usize) {
            s.merge_state_direct(&key, &state);
        }
    }
    c.set_replica_status(p2, false);

    let get: Msg<M> = Msg::ClientGet {
        req: 1,
        key: key.clone(),
        digest,
    };
    c.sim_mut().post(NodeId(p0.0), get);
    c.run_for(Duration::from_millis(10));

    let fallback = c.server(outsider.0 as usize);
    assert!(
        fallback.data().contains_key(&key),
        "the fallback received the read repair"
    );
    assert!(
        fallback.hint_obligations().contains(&(key.clone(), p2)),
        "the repaired copy must carry a hint for the down owner, got {:?}",
        fallback.hint_obligations()
    );
    assert!(c.server(p0.0 as usize).stats().read_repairs >= 1);

    // recovery: the hint drains and the residual copy is retired
    c.set_replica_status(p2, true);
    c.run_for(Duration::from_millis(500));
    let fallback = c.server(outsider.0 as usize);
    assert_eq!(fallback.hint_count(), 0, "hint must drain after recovery");
    assert!(
        !fallback.data().contains_key(&key),
        "a handed-off copy the fallback does not own must be retired"
    );
    assert!(fallback.stats().handoffs >= 1);
    assert!(
        c.server(p2.0 as usize).data().contains_key(&key),
        "the intended owner received the state"
    );
}

#[test]
fn transfer_stats_count_every_send_and_every_receipt() {
    // A leave-drain whose acks are lost: the donor re-sends the same
    // batch every retry interval (each send counted) and the receiver
    // merges and counts every delivery — so `transfers_in` never exceeds
    // `transfers_out`, and equals it once the drain settles.
    let mech = DvvMechanism;
    let replicas = [ReplicaId(0), ReplicaId(1)];
    let view = RingView::from_members(replicas);
    let cfg = StoreConfig {
        n: 1,
        r: 1,
        w: 1,
        anti_entropy_interval: Duration::ZERO,
        handoff_interval: Duration::ZERO,
        gossip_interval: Duration::ZERO,
        vnodes: 16,
        ..StoreConfig::default()
    };
    let mut sim: Simulation<StoreProc<M>> = Simulation::new(
        5,
        NetworkConfig::default(),
        vec![
            StoreProc::Server(StoreNode::new(ReplicaId(0), mech, cfg, view.clone())),
            StoreProc::Server(StoreNode::new(ReplicaId(1), mech, cfg, view.clone())),
        ],
    );
    for k in 0..4u8 {
        let st = sample_state(ReplicaId(0));
        if let StoreProc::Server(s) = sim.process_mut(0) {
            s.merge_state_direct(&[b'k', k], &st);
        }
    }

    // acks (and everything else) from 1 to 0 are lost
    sim.network_mut().block_link(NodeId(1), NodeId(0));
    let mut leave = view;
    leave.bump(&ReplicaId(0), MemberStatus::Leaving);
    sim.post(NodeId(0), Msg::RingEpoch { view: leave });
    sim.run_until(simnet::SimTime::ZERO + Duration::from_millis(200));

    let (out_mid, in_mid) = match (sim.process(0), sim.process(1)) {
        (StoreProc::Server(a), StoreProc::Server(b)) => {
            (a.stats().transfers_out, b.stats().transfers_in)
        }
        _ => unreachable!(),
    };
    assert!(
        out_mid >= 3,
        "every retry send must be counted, got {out_mid}"
    );
    assert!(
        (1..=out_mid).contains(&in_mid),
        "every delivery counts, a send in flight not yet: {in_mid} of {out_mid}"
    );

    // heal the ack path: the drain completes and the totals stay sane
    sim.network_mut().unblock_link(NodeId(1), NodeId(0));
    sim.run_until(simnet::SimTime::ZERO + Duration::from_millis(400));
    let (donor, receiver) = match (sim.process(0), sim.process(1)) {
        (StoreProc::Server(a), StoreProc::Server(b)) => (a, b),
        _ => unreachable!(),
    };
    assert!(donor.drain_complete(), "drain settles once acks flow");
    assert_eq!(
        receiver.stats().transfers_in,
        donor.stats().transfers_out,
        "every send was delivered and counted"
    );
    assert!(
        receiver.stats().transfers_in <= donor.stats().transfers_out,
        "received batches can never exceed sent batches"
    );
    for k in 0..4u8 {
        assert!(
            receiver.data().contains_key([b'k', k].as_slice()),
            "key {k} arrived despite the lossy ack path"
        );
    }
}

#[test]
fn handoff_inflight_tracking_suppresses_duplicate_sends() {
    // A hint whose intended owner looks up but does not answer: the
    // handoff timer fires every 10ms, but only ONE Handoff may be in
    // flight until the retry interval (200ms) passes — pre-fix every tick
    // re-sent the state, flooding ~10 duplicates per 100ms.
    let mech = DvvMechanism;
    let replicas = [ReplicaId(0), ReplicaId(1)];
    let view = RingView::from_members(replicas);
    let cfg = StoreConfig {
        n: 2,
        r: 1,
        w: 1,
        anti_entropy_interval: Duration::ZERO,
        gossip_interval: Duration::ZERO,
        handoff_interval: Duration::from_millis(200),
        vnodes: 16,
        ..StoreConfig::default()
    };
    let mut sim: Simulation<StoreProc<M>> = Simulation::new(
        9,
        NetworkConfig::default(),
        vec![
            StoreProc::Server(StoreNode::new(ReplicaId(0), mech, cfg, view.clone())),
            StoreProc::Server(StoreNode::new(ReplicaId(1), mech, cfg, view)),
        ],
    );
    sim.trace_mut().enable();
    // seed a hinted copy at node 1, intended for node 0
    sim.post(
        NodeId(1),
        Msg::RepPut {
            req: 1,
            key: b"hinted".to_vec(),
            state: sample_state(ReplicaId(0)),
            hint: Some(ReplicaId(0)),
        },
    );
    // node 0 is believed up but unreachable: handoffs are lost
    sim.network_mut().block_link(NodeId(1), NodeId(0));
    sim.run_until(simnet::SimTime::ZERO + Duration::from_millis(105));

    let sends_1_to_0 = sim
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Sent { from, to, .. } if *from == NodeId(1) && *to == NodeId(0)))
        .count();
    assert_eq!(
        sends_1_to_0, 1,
        "one handoff in flight per retry interval, not one per tick"
    );

    // once reachable, the retry goes through and the obligation drains
    sim.network_mut().unblock_link(NodeId(1), NodeId(0));
    sim.run_until(simnet::SimTime::ZERO + Duration::from_millis(600));
    let (intended, fallback) = match (sim.process(0), sim.process(1)) {
        (StoreProc::Server(a), StoreProc::Server(b)) => (a, b),
        _ => unreachable!(),
    };
    assert_eq!(fallback.hint_count(), 0, "hint drained after the retry");
    assert_eq!(fallback.stats().handoffs, 1);
    assert!(intended.data().contains_key(b"hinted".as_slice()));
    assert!(
        fallback.data().contains_key(b"hinted".as_slice()),
        "with n = 2 the fallback is itself an owner: the copy stays"
    );
}

/// A server, hosted as the simulator hosts any node, that also notes the
/// id of every push and push ack it is sent.
struct Tap {
    node: StoreProc<M>,
    pushes: Vec<u64>,
    acks: Vec<u64>,
}

impl Tap {
    fn server(&self) -> &StoreNode<M> {
        match &self.node {
            StoreProc::Server(s) => s,
            StoreProc::Client(_) => unreachable!("taps wrap servers"),
        }
    }
}

impl Process for Tap {
    type Msg = Msg<M>;
    type Timer = Timer;

    fn on_start(&mut self, ctx: &mut ProcessCtx<'_, Msg<M>, Timer>) {
        self.node.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut ProcessCtx<'_, Msg<M>, Timer>, from: NodeId, msg: Msg<M>) {
        match &msg {
            Msg::Push { id: Some(id), .. } => self.pushes.push(*id),
            Msg::PushAck { id, .. } => self.acks.push(*id),
            _ => {}
        }
        self.node.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut ProcessCtx<'_, Msg<M>, Timer>, timer: Timer) {
        self.node.on_timer(ctx, timer);
    }
}

/// The id of the first tracked push of node `node` in a simulation
/// seeded `seed`: the simulator seeds node `i`'s stream as
/// `fork_indexed("node", i)`, and a node draws its push-id counter from
/// that stream at its first tracked push — which, with anti-entropy and
/// gossip off, is its first draw of all.
fn first_push_id(seed: u64, node: u64) -> u64 {
    SimRng::new(seed).fork_indexed("node", node).next_u64()
}

/// A state that strictly dominates [`sample_state`]`(origin)`.
fn advanced_state(origin: ReplicaId) -> <M as Mechanism<StampedValue>>::State {
    let mech = DvvMechanism;
    let mut st = sample_state(origin);
    let (_, seen) = mech.read(&st);
    mech.write(
        &mut st,
        WriteOrigin::new(origin, ClientId(1)),
        &seen,
        StampedValue::new(WriteId::new(ClientId(1), 2), vec![0xCD; 24]),
    );
    st
}

#[test]
fn one_settle_rule_for_both_classes() {
    // The donor (node 1) owes one key to the target (node 0), as a range
    // transfer (it leaves) or as a hinted copy, holding it as an owner
    // or not. Whatever the class:
    //  * a push that is delivered twice under one id is merged twice,
    //    acked twice and counted (transfers only) twice;
    //  * an ack that finds the local state advanced keeps the copy and
    //    the obligation, and the fresher state travels under a fresh id;
    //  * the ack of that push meets the obligation, and the copy is
    //    retired iff the donor is not one of the key's owners.
    const SEED: u64 = 9;
    let (donor, target) = (NodeId(1), NodeId(0));
    let ring = HashRing::with_vnodes([ReplicaId(0), ReplicaId(1)], 16);
    let key = (0..1_000)
        .map(|i| format!("key-{i}").into_bytes())
        .find(|k| ring.preference_list(k, 1) == [ReplicaId(0)])
        .expect("a key node 0 is primary for");
    for (class, n) in [
        (MsgClass::Transfer, 1),
        (MsgClass::Handoff, 1),
        (MsgClass::Handoff, 2),
    ] {
        let row = format!("{class:?}, n = {n}");
        let mech = DvvMechanism;
        let view = RingView::from_members([ReplicaId(0), ReplicaId(1)]);
        let cfg = StoreConfig {
            n,
            r: 1,
            w: 1,
            anti_entropy_interval: Duration::ZERO,
            gossip_interval: Duration::ZERO,
            handoff_interval: Duration::from_millis(40),
            vnodes: 16,
            ..StoreConfig::default()
        };
        let tap = |replica| Tap {
            node: StoreProc::Server(StoreNode::new(replica, mech, cfg, view.clone())),
            pushes: Vec::new(),
            acks: Vec::new(),
        };
        let mut sim = Simulation::new(
            SEED,
            NetworkConfig::default(),
            vec![tap(ReplicaId(0)), tap(ReplicaId(1))],
        );
        let owed = |sim: &Simulation<Tap>| {
            let d = sim.process(1).server();
            d.transfer_backlog() + d.hint_count()
        };

        // the obligation, with the ack path cut
        sim.network_mut().block_link(target, donor);
        if class == MsgClass::Transfer {
            if let StoreProc::Server(s) = &mut sim.process_mut(1).node {
                s.merge_state_direct(&key, &sample_state(ReplicaId(0)));
            }
            let mut leave = view.clone();
            leave.bump(&ReplicaId(1), MemberStatus::Leaving);
            let announce = Msg::RingEpoch { view: leave };
            sim.post(donor, announce);
        } else {
            let put = Msg::RepPut {
                req: 1,
                key: key.clone(),
                state: sample_state(ReplicaId(0)),
                hint: Some(ReplicaId(0)),
            };
            sim.post(donor, put);
        }
        while sim.process(0).pushes.len() < 2 {
            assert!(sim.step(), "{row}: the unacked push is sent again");
        }
        let first = sim.process(0).pushes[0];
        assert_eq!(first, first_push_id(SEED, 1), "{row}: ids start at a draw");
        assert_eq!(sim.process(0).pushes, [first, first], "{row}: a retry");
        // the target sends nothing in the push's class but its acks
        let t = sim.process(0).server();
        assert_eq!(
            t.wire_stats().msgs(class),
            2,
            "{row}: each delivery is acked"
        );
        let counted = u64::from(class == MsgClass::Transfer);
        let deliveries = counted * sim.process(0).pushes.len() as u64;
        assert_eq!(t.stats().transfers_in, deliveries, "{row}: each counted");
        assert_eq!(owed(&sim), 1, "{row}: unacked, so still owed");

        // the ack path heals; the state advances under the next ack
        sim.network_mut().unblock_link(target, donor);
        while sim.process(0).pushes.len() < 3 {
            assert!(sim.step(), "{row}: a third send");
        }
        let advanced = advanced_state(ReplicaId(0));
        if let StoreProc::Server(s) = &mut sim.process_mut(1).node {
            s.merge_state_direct(&key, &advanced);
        }
        while sim.process(1).acks.is_empty() {
            assert!(sim.step(), "{row}: the ack arrives");
        }
        assert_eq!(sim.process(1).acks, [first]);
        let d = sim.process(1).server();
        assert_eq!(d.data().get(&key), Some(&advanced), "{row}: copy kept");
        assert_eq!(owed(&sim), 1, "{row}: the obligation stands");

        // the fresher state goes out under a fresh id and settles
        sim.run_until(sim.now() + Duration::from_millis(200));
        let (t, d) = (sim.process(0), sim.process(1));
        let fresh = *t.pushes.last().unwrap();
        assert_ne!(fresh, first, "{row}: re-pushed under a fresh id");
        assert_eq!(t.pushes[..3], [first; 3], "{row}");
        assert_eq!(d.acks, [first, fresh], "{row}: one ack per delivery");
        assert_eq!(t.server().data().get(&key), Some(&advanced), "{row}");
        let deliveries = counted * t.pushes.len() as u64;
        assert_eq!(t.server().stats().transfers_in, deliveries, "{row}");
        assert_eq!(owed(&sim), 0, "{row}: obligation met");
        assert_eq!(d.server().stats().handoffs, 1 - counted, "{row}");
        assert_eq!(
            d.server().data().contains_key(&key),
            n == 2,
            "{row}: the copy is retired iff the donor is not an owner"
        );
    }
}

#[test]
fn an_ack_counts_only_from_the_target_of_its_push() {
    // Node 0 drains four keys to their new owner, node 1, over a dead
    // link. An ack carrying the live push id — but not from node 1 — must
    // settle nothing: pre-fix the job was looked up by id alone (and ids
    // restarted at 0 in every incarnation), so a stale, replayed or
    // misdirected ack dropped copies their target never received.
    const SEED: u64 = 5;
    let mech = DvvMechanism;
    let view = RingView::from_members([ReplicaId(0), ReplicaId(1), ReplicaId(2)]);
    let cfg = StoreConfig {
        n: 1,
        r: 1,
        w: 1,
        anti_entropy_interval: Duration::ZERO,
        handoff_interval: Duration::ZERO,
        gossip_interval: Duration::ZERO,
        vnodes: 16,
        ..StoreConfig::default()
    };
    let node = |r| StoreProc::Server(StoreNode::new(ReplicaId(r), mech, cfg, view.clone()));
    let mut sim: Simulation<StoreProc<M>> = Simulation::new(
        SEED,
        NetworkConfig::default(),
        vec![node(0), node(1), node(2)],
    );
    let after = HashRing::with_vnodes([ReplicaId(1), ReplicaId(2)], 16);
    let keys: Vec<Key> = (0..1_000)
        .map(|i| format!("key-{i}").into_bytes())
        .filter(|k| after.preference_list(k, 1) == [ReplicaId(1)])
        .take(4)
        .collect();
    for key in &keys {
        if let StoreProc::Server(s) = sim.process_mut(0) {
            s.merge_state_direct(key, &sample_state(ReplicaId(0)));
        }
    }
    let server = |sim: &Simulation<StoreProc<M>>, i: usize| match sim.process(i) {
        StoreProc::Server(s) => (s.transfer_backlog(), s.data().len(), s.drain_complete()),
        StoreProc::Client(_) => unreachable!(),
    };

    sim.network_mut().block_link(NodeId(0), NodeId(1));
    let mut leave = view;
    leave.bump(&ReplicaId(0), MemberStatus::Leaving);
    sim.post(NodeId(0), Msg::RingEpoch { view: leave });
    sim.run_until(SimTime::ZERO + Duration::from_millis(60));
    assert_eq!(server(&sim, 0), (4, 4, false), "all four owed, unsent");

    // `post` delivers as if node 0 had sent it to itself: the live id
    // (and the id every pre-fix incarnation started at), wrong sender
    for id in [first_push_id(SEED, 0), 0] {
        let class = MsgClass::Transfer;
        sim.post(NodeId(0), Msg::PushAck { class, id });
    }
    sim.run_until(SimTime::ZERO + Duration::from_millis(120));
    assert_eq!(
        server(&sim, 0),
        (4, 4, false),
        "an ack from anyone but the target must leave copy and obligation alone"
    );

    sim.network_mut().unblock_link(NodeId(0), NodeId(1));
    sim.run_until(SimTime::ZERO + Duration::from_millis(300));
    assert_eq!(server(&sim, 0), (0, 0, true), "the drain completes");
    assert_eq!(server(&sim, 1).1, 4, "at the keys' real owner");
}

#[test]
fn a_leave_drain_waits_for_a_hinted_copy_it_holds() {
    // Node 0 holds a hinted copy for node 1 and then leaves, with hinted
    // handoff off. The drain's request for the same (target, key) must
    // upgrade the obligation to a transfer: left as a handoff it would
    // never be pushed, the drain would report complete without it, and
    // `finish_leave` would clear the only copy.
    let mech = DvvMechanism;
    let view = RingView::from_members([ReplicaId(0), ReplicaId(1), ReplicaId(2)]);
    let cfg = StoreConfig {
        n: 1,
        r: 1,
        w: 1,
        anti_entropy_interval: Duration::ZERO,
        handoff_interval: Duration::ZERO,
        gossip_interval: Duration::ZERO,
        vnodes: 16,
        ..StoreConfig::default()
    };
    let node = |r| StoreProc::Server(StoreNode::new(ReplicaId(r), mech, cfg, view.clone()));
    let mut sim: Simulation<StoreProc<M>> =
        Simulation::new(5, NetworkConfig::default(), vec![node(0), node(1), node(2)]);
    let ring = HashRing::with_vnodes((0..3).map(ReplicaId), 16);
    let key = (0..1_000)
        .map(|i| format!("key-{i}").into_bytes())
        .find(|k| ring.preference_list(k, 1) == [ReplicaId(1)])
        .expect("a key node 1 owns");
    let server = |sim: &Simulation<StoreProc<M>>, i: usize| match sim.process(i) {
        StoreProc::Server(s) => (s.hint_count(), s.transfer_backlog(), s.drain_complete()),
        StoreProc::Client(_) => unreachable!(),
    };

    sim.post(
        NodeId(0),
        Msg::RepPut {
            req: 1,
            key: key.clone(),
            state: sample_state(ReplicaId(1)),
            hint: Some(ReplicaId(1)),
        },
    );
    sim.run_until(SimTime::ZERO + Duration::from_millis(60));
    assert_eq!(server(&sim, 0), (1, 0, false), "held as a hint, never sent");

    sim.network_mut().block_link(NodeId(0), NodeId(1));
    let mut leave = view;
    leave.bump(&ReplicaId(0), MemberStatus::Leaving);
    sim.post(NodeId(0), Msg::RingEpoch { view: leave });
    sim.run_until(SimTime::ZERO + Duration::from_millis(120));
    assert_eq!(
        server(&sim, 0),
        (0, 1, false),
        "the drain waits for the key"
    );

    sim.network_mut().unblock_link(NodeId(0), NodeId(1));
    sim.run_until(SimTime::ZERO + Duration::from_millis(300));
    assert_eq!(server(&sim, 0), (0, 0, true));
    match (sim.process(0), sim.process(1)) {
        (StoreProc::Server(left), StoreProc::Server(owner)) => {
            assert!(
                !left.data().contains_key(&key),
                "drained copies are dropped"
            );
            assert!(owner.data().contains_key(&key), "the new owner holds it");
        }
        _ => unreachable!(),
    }
}

#[test]
fn gossip_converges_incomparable_views_with_tombstones() {
    // Two members whose views are *incomparable*: node 0 holds a newer
    // incarnation of its own entry, node 1 holds a tombstone node 0 has
    // never seen. This pins the push-back half of the view push: a
    // receiver that merges a view and finds the sender lacked entries
    // must push the merged view back, or the side that spoke first never
    // learns what it lacked and the digests never meet.
    let mech = DvvMechanism;
    let base = RingView::from_members([ReplicaId(0), ReplicaId(1)]);
    let mut va = base.clone();
    va.bump(&ReplicaId(0), MemberStatus::Up);
    let mut vb = base.clone();
    vb.set(ReplicaId(7), 1, MemberStatus::Removed);

    let mut expected = base;
    expected.bump(&ReplicaId(0), MemberStatus::Up);
    expected.set(ReplicaId(7), 1, MemberStatus::Removed);

    let cfg = StoreConfig {
        n: 1,
        r: 1,
        w: 1,
        anti_entropy_interval: Duration::ZERO,
        handoff_interval: Duration::ZERO,
        gossip_interval: Duration::from_millis(20),
        vnodes: 16,
        ..StoreConfig::default()
    };
    let mut sim: Simulation<StoreProc<M>> = Simulation::new(
        3,
        NetworkConfig::default(),
        vec![
            StoreProc::Server(StoreNode::new(ReplicaId(0), mech, cfg, va)),
            StoreProc::Server(StoreNode::new(ReplicaId(1), mech, cfg, vb)),
        ],
    );
    sim.run_until(simnet::SimTime::ZERO + Duration::from_millis(300));

    let (a, b) = match (sim.process(0), sim.process(1)) {
        (StoreProc::Server(a), StoreProc::Server(b)) => (a, b),
        _ => unreachable!(),
    };
    assert_eq!(
        a.view_digest(),
        expected.digest(),
        "node 0 must have merged the tombstone"
    );
    assert_eq!(
        b.view_digest(),
        expected.digest(),
        "node 1 must have received the bumped entry pushed back"
    );
    // the reconciliation really went over the wire, and was accounted
    assert!(
        a.wire_stats()
            .bytes(kvstore::messages::MsgClass::Membership)
            > 0
    );
    assert!(
        b.wire_stats()
            .bytes(kvstore::messages::MsgClass::Membership)
            > 0
    );
}

#[test]
fn batched_transfers_count_every_delivery_across_retries() {
    // Ten keys drain from a leaver with `transfer_batch_keys = 4`: the
    // donor queues ceil(10/4) = 3 batches. With the ack path cut, every
    // retry re-sends all three (each send counted); the receiver merges
    // and counts every delivery — so `transfers_in` is the delivery
    // count, which equals `transfers_out` once the drain settles.
    let mech = DvvMechanism;
    let replicas = [ReplicaId(0), ReplicaId(1)];
    let view = RingView::from_members(replicas);
    let cfg = StoreConfig {
        n: 1,
        r: 1,
        w: 1,
        anti_entropy_interval: Duration::ZERO,
        handoff_interval: Duration::ZERO,
        gossip_interval: Duration::ZERO,
        transfer_batch_keys: 4,
        vnodes: 16,
        ..StoreConfig::default()
    };
    let mut sim: Simulation<StoreProc<M>> = Simulation::new(
        5,
        NetworkConfig::default(),
        vec![
            StoreProc::Server(StoreNode::new(ReplicaId(0), mech, cfg, view.clone())),
            StoreProc::Server(StoreNode::new(ReplicaId(1), mech, cfg, view.clone())),
        ],
    );
    for k in 0..10u8 {
        let st = sample_state(ReplicaId(0));
        if let StoreProc::Server(s) = sim.process_mut(0) {
            s.merge_state_direct(&[b'k', k], &st);
        }
    }

    sim.network_mut().block_link(NodeId(1), NodeId(0));
    let mut leave = view;
    leave.bump(&ReplicaId(0), MemberStatus::Leaving);
    sim.post(NodeId(0), Msg::RingEpoch { view: leave });
    sim.run_until(simnet::SimTime::ZERO + Duration::from_millis(200));

    let (out_mid, in_mid) = match (sim.process(0), sim.process(1)) {
        (StoreProc::Server(a), StoreProc::Server(b)) => {
            (a.stats().transfers_out, b.stats().transfers_in)
        }
        _ => unreachable!(),
    };
    assert!(
        out_mid >= 6,
        "three batches retried at least once must all be counted, got {out_mid}"
    );
    assert!(
        (3..=out_mid).contains(&in_mid),
        "all three batches arrive, a send in flight not yet: {in_mid} of {out_mid}"
    );

    sim.network_mut().unblock_link(NodeId(1), NodeId(0));
    sim.run_until(simnet::SimTime::ZERO + Duration::from_millis(400));
    let (donor, receiver) = match (sim.process(0), sim.process(1)) {
        (StoreProc::Server(a), StoreProc::Server(b)) => (a, b),
        _ => unreachable!(),
    };
    assert!(donor.drain_complete(), "drain settles once acks flow");
    assert_eq!(
        receiver.stats().transfers_in,
        donor.stats().transfers_out,
        "every send was delivered and counted"
    );
    for k in 0..10u8 {
        assert!(
            receiver.data().contains_key([b'k', k].as_slice()),
            "key {k} arrived despite the lossy ack path"
        );
    }
}

#[test]
fn handoff_batches_coalesce_per_target_and_settle_per_key() {
    // Two hinted copies for the same recovered owner fall due on the
    // same handoff tick: they must travel as ONE batched `Handoff` (one
    // send on the wire), and the single ack must settle both
    // obligations.
    let mech = DvvMechanism;
    let replicas = [ReplicaId(0), ReplicaId(1)];
    let view = RingView::from_members(replicas);
    let cfg = StoreConfig {
        n: 2,
        r: 1,
        w: 1,
        anti_entropy_interval: Duration::ZERO,
        gossip_interval: Duration::ZERO,
        handoff_interval: Duration::from_millis(200),
        vnodes: 16,
        ..StoreConfig::default()
    };
    let mut sim: Simulation<StoreProc<M>> = Simulation::new(
        9,
        NetworkConfig::default(),
        vec![
            StoreProc::Server(StoreNode::new(ReplicaId(0), mech, cfg, view.clone())),
            StoreProc::Server(StoreNode::new(ReplicaId(1), mech, cfg, view)),
        ],
    );
    sim.trace_mut().enable();
    for (req, key) in [(1u64, b"hinted-a".to_vec()), (2, b"hinted-b".to_vec())] {
        sim.post(
            NodeId(1),
            Msg::RepPut {
                req,
                key,
                state: sample_state(ReplicaId(0)),
                hint: Some(ReplicaId(0)),
            },
        );
    }
    // node 0 believed up but unreachable: the batch stays in flight
    sim.network_mut().block_link(NodeId(1), NodeId(0));
    sim.run_until(simnet::SimTime::ZERO + Duration::from_millis(105));

    let sends_1_to_0 = sim
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Sent { from, to, .. } if *from == NodeId(1) && *to == NodeId(0)))
        .count();
    assert_eq!(
        sends_1_to_0, 1,
        "two due hints to one target coalesce into one batched Handoff"
    );

    sim.network_mut().unblock_link(NodeId(1), NodeId(0));
    sim.run_until(simnet::SimTime::ZERO + Duration::from_millis(600));
    let (intended, fallback) = match (sim.process(0), sim.process(1)) {
        (StoreProc::Server(a), StoreProc::Server(b)) => (a, b),
        _ => unreachable!(),
    };
    assert_eq!(fallback.hint_count(), 0, "both hints drained");
    assert_eq!(
        fallback.stats().handoffs,
        2,
        "a batch ack settles each key individually"
    );
    for key in [b"hinted-a".as_slice(), b"hinted-b".as_slice()] {
        assert!(intended.data().contains_key(key));
    }
}

#[test]
fn churn_under_partition_leaves_no_residual_copies_across_seeds() {
    // The gossip property suite: traffic + a healed partition + live
    // join/leave/join churn, with the harness force-sync disabled
    // (default). After the workload and a quiescent period:
    //  (a) every active server's epoch converged through gossip alone,
    //  (b) no server holds a key outside its preference list,
    //  (c) the pre-convergence surviving-union no-loss oracle is clean.
    for seed in workloads::churn_seeds(&[5, 13, 21]) {
        let mut cfg = ClusterConfig {
            servers: 3,
            spare_servers: 2,
            clients: 4,
            cycles_per_client: 30,
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

        // partitioned phase: sloppy quorums + hints carry the load
        c.run_for(Duration::from_millis(30));
        let others: Vec<NodeId> = (0..9u32).map(NodeId).filter(|n| n.0 != 1).collect();
        c.sim_mut().network_mut().partition_two(others, [NodeId(1)]);
        c.set_replica_status(ReplicaId(1), false);
        c.run_for(Duration::from_millis(60));
        c.sim_mut().network_mut().heal();
        c.set_replica_status(ReplicaId(1), true);
        c.run_for(Duration::from_millis(20));

        // churn, disseminated by gossip only
        assert!(c.add_node_live(3), "seed {seed}: join 3 settled");
        assert!(c.remove_node_live(0), "seed {seed}: leave 0 settled");
        assert!(c.add_node_live(4), "seed {seed}: join 4 settled");

        assert!(c.run(), "seed {seed}: sessions finish after churn");
        // quiesce: no client traffic; AAE, handoff and transfer retries
        // get to finish their obligations
        c.run_for(Duration::from_secs(3));

        // (a) views converged with force-sync disabled
        for i in c.member_slots() {
            assert_eq!(
                c.server(i).view_digest(),
                c.view_digest(),
                "seed {seed}: server {i} view diverged"
            );
        }
        // (b) residual-copy audit
        let residuals = c.residual_copies();
        assert!(
            residuals.is_empty(),
            "seed {seed}: keys held outside preference lists: {residuals:?}"
        );
        // (c) no acked write lost, checked on the pre-convergence union
        let oracle = c.oracle();
        for key in oracle.keys() {
            let (lost, _) = oracle.audit_key(&key, &c.surviving_union(&key));
            assert_eq!(lost, 0, "seed {seed}: write lost for {key:?}");
        }

        c.converge();
        let report = c.anomaly_report();
        assert!(report.is_clean(), "seed {seed}: {report:?}");
        assert!(report.acked_writes > 0, "seed {seed}: no acked writes");
    }
}

// --- lifecycle is the view entry -------------------------------------------
//
// Two slots on a bare simulation: server 0, a member throughout, and the
// subject in slot 1. Whatever the subject does about a membership change
// it reads off its own entry in the view it merged — the control plane's
// post and a peer's gossip are the same event to it.

/// N = 1 on a 16-vnode ring, anti-entropy and gossip every 100 ms.
fn lifecycle_config() -> StoreConfig {
    StoreConfig {
        n: 1,
        r: 1,
        w: 1,
        anti_entropy_interval: Duration::from_millis(100),
        gossip_interval: Duration::from_millis(100),
        vnodes: 16,
        ..StoreConfig::default()
    }
}

/// `view` with slot 1 bumped to `status` under a fresh incarnation.
fn with_subject(view: &RingView<ReplicaId>, status: MemberStatus) -> RingView<ReplicaId> {
    let mut view = view.clone();
    view.bump(&ReplicaId(1), status);
    view
}

fn lifecycle_sim(zero: StoreProc<M>, subject: StoreProc<M>) -> Simulation<StoreProc<M>> {
    Simulation::new(23, NetworkConfig::default(), vec![zero, subject])
}

fn at(millis: u64) -> SimTime {
    SimTime::ZERO + Duration::from_millis(millis)
}

#[test]
fn a_spare_wakes_for_its_join_however_the_view_reaches_it() {
    let kit = NodeKit::new(DvvMechanism, lifecycle_config(), 1, None);
    let joined = with_subject(kit.genesis_view(), MemberStatus::Joining);
    let assert_woke = |sim: &mut Simulation<StoreProc<M>>, how: &str| {
        sim.run_until(at(1_000));
        let (zero, spare) = (sim.process(0).server(), sim.process(1).server());
        assert!(spare.is_active(), "{how}: the joiner serves");
        assert!(!spare.drain_complete(), "{how}: and is not draining");
        let stats = spare.stats();
        assert!(
            stats.aae_rounds > 0 && stats.gossip_rounds > 0,
            "{how}: periodic timers armed, got {stats:?}"
        );
        assert_eq!(zero.view_digest(), joined.digest(), "{how}");
        assert_eq!(spare.view_digest(), joined.digest(), "{how}");
    };

    // posted by the control plane, to the joiner only
    let mut sim = lifecycle_sim(kit.server(0), kit.spare(1));
    sim.run_until(at(10));
    assert!(!sim.process(1).server().is_active());
    sim.post(
        NodeId(1),
        Msg::RingEpoch {
            view: joined.clone(),
        },
    );
    assert_woke(&mut sim, "posted");

    // no post at all: server 0 already routes under the join, its digest
    // reaches the spare, the spare answers with the view it has, and what
    // wakes it is server 0's push-back
    let ahead = StoreNode::new(
        ReplicaId(0),
        DvvMechanism,
        lifecycle_config(),
        joined.clone(),
    );
    let mut sim = lifecycle_sim(StoreProc::Server(ahead), kit.spare(1));
    assert_woke(&mut sim, "second-hand");
}

#[test]
fn a_retired_leaver_wakes_only_for_a_fresh_join() {
    let kit = NodeKit::new(DvvMechanism, lifecycle_config(), 2, None);
    let mut sim = lifecycle_sim(kit.server(0), kit.server(1));
    let leave = with_subject(kit.genesis_view(), MemberStatus::Leaving);
    sim.post(
        NodeId(1),
        Msg::RingEpoch {
            view: leave.clone(),
        },
    );
    sim.run_until(at(300));
    assert!(sim.process(1).server().drain_complete(), "nothing to drain");
    sim.process_mut(1).server_mut().finish_leave();
    sim.drop_timers(NodeId(1));
    let removed = with_subject(&leave, MemberStatus::Removed);

    // a stale view that names it `Up`: its own entry is the newer one
    let stale = kit.genesis_view().clone();
    sim.post(NodeId(1), Msg::RingEpoch { view: stale });
    sim.post(
        NodeId(1),
        Msg::RingEpoch {
            view: removed.clone(),
        },
    );
    sim.run_until(at(600));
    let leaver = sim.process(1).server();
    assert!(!leaver.is_active(), "a stale `Up` wakes nobody");
    let rounds = leaver.stats().aae_rounds;

    let rejoin = with_subject(&removed, MemberStatus::Joining);
    sim.post(
        NodeId(1),
        Msg::RingEpoch {
            view: rejoin.clone(),
        },
    );
    sim.run_until(at(1_200));
    let leaver = sim.process(1).server();
    assert!(leaver.is_active() && !leaver.drain_complete());
    assert!(leaver.stats().aae_rounds > rounds, "timers armed again");
    assert_eq!(sim.process(0).server().view_digest(), rejoin.digest());
}

#[test]
fn a_readmission_delivered_twice_arms_one_set_of_timers() {
    // a server rebuilt mid-run (crash recovery) gets no `on_start`: its
    // re-admission is what arms its periodic timers — once
    let kit = NodeKit::new(DvvMechanism, lifecycle_config(), 2, None);
    let mut sim = lifecycle_sim(kit.server(0), kit.server(1));
    sim.run_until(at(10));
    *sim.process_mut(1) = kit.server(1);
    sim.drop_timers(NodeId(1));
    let readmitted = with_subject(kit.genesis_view(), MemberStatus::Up);
    for _ in 0..2 {
        let view = readmitted.clone();
        sim.post(NodeId(1), Msg::RingEpoch { view });
    }
    sim.run_until(at(10 + 1_050));
    // one anti-entropy timer (first fire 101 ms after the re-admission,
    // then every 100 ms) and one gossip timer (100.7 ms, then every
    // 100 ms), plus the one eager push of the re-admission itself
    let stats = sim.process(1).server().stats();
    assert_eq!((stats.aae_rounds, stats.gossip_rounds), (10, 1 + 10));
    assert_eq!(sim.process(0).server().view_digest(), readmitted.digest());
}
