//! Concurrent (overlapping) membership changes over mergeable ring
//! views, with the harness force-sync disabled throughout:
//!
//! * two joins announced back-to-back — neither waits for the other —
//!   must both settle, with every member converging onto the *merged*
//!   view by gossip alone;
//! * a join and a leave announced on **opposite sides of a partition**
//!   must merge once the partition heals: neither announcement may
//!   clobber the other, and the no-loss/residual audits must stay clean;
//! * a leave whose drain is cut off by a partition must time out and be
//!   cancelled by the **in-band re-admission path** (a `Msg::RingEpoch` under
//!   a fresh incarnation) — pinning the deleted `sync_all_views`
//!   fallback — while a join begun concurrently still completes;
//! * a seed-parameterised churn property run asserting the
//!   `surviving_union` no-loss oracle and the `residual_copies()` audit
//!   across overlapping changes.

use dvv::mechanisms::DvvMechanism;
use dvv::ReplicaId;
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::FleetHarness;
use ring::MemberStatus;
use simnet::{Duration, NodeId};
use workloads::churn_seeds;

fn overlap_config(seed_keys: usize) -> ClusterConfig {
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
            key_count: seed_keys,
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    }
    // the faults lane re-runs this suite with NET_FAULTS=hostile
    .with_env_net_faults();
    cfg.deadline = Duration::from_secs(2_000);
    cfg
}

/// Runs the audits every overlap scenario must pass once quiescent:
/// digest convergence by gossip alone, the residual-copy audit, and the
/// pre-convergence surviving-union no-loss oracle.
fn assert_cluster_clean(c: &mut Cluster<DvvMechanism>, label: &str) {
    for i in c.member_slots() {
        assert_eq!(
            c.server(i).view_digest(),
            c.view_digest(),
            "{label}: server {i} view diverged"
        );
    }
    let residuals = c.residual_copies();
    assert!(
        residuals.is_empty(),
        "{label}: keys held outside preference lists: {residuals:?}"
    );
    let oracle = c.oracle();
    for key in oracle.keys() {
        let (lost, _) = oracle.audit_key(&key, &c.surviving_union(&key));
        assert_eq!(lost, 0, "{label}: write lost for {key:?}");
    }
    c.converge();
    let report = c.anomaly_report();
    assert!(report.is_clean(), "{label}: {report:?}");
    assert!(report.acked_writes > 0, "{label}: no acked writes");
}

#[test]
fn two_concurrent_joins_settle_together() {
    let mut c = Cluster::new(41, DvvMechanism, overlap_config(8));
    c.run_for(Duration::from_millis(30));

    // both joins are in flight at once; only then is either supervised
    c.begin_join(3);
    c.begin_join(4);
    assert_eq!(c.member_slots(), vec![0, 1, 2, 3, 4]);
    assert!(c.await_membership(), "overlapping joins must settle");

    for slot in [3usize, 4] {
        assert!(c.server(slot).is_active(), "joiner {slot} serves");
        assert!(
            c.server(slot).stats().transfers_in > 0,
            "joiner {slot} was streamed its ranges"
        );
        assert_eq!(
            c.view().status(&ReplicaId(slot as u32)),
            Some(MemberStatus::Up),
            "a settled joiner is promoted from Joining to Up"
        );
    }

    assert!(c.run(), "sessions finish on the grown cluster");
    c.run_for(Duration::from_secs(3));
    assert_cluster_clean(&mut c, "join∥join");
}

#[test]
fn join_and_leave_announced_across_a_partition_merge_after_heal() {
    // Split the cluster so the join announcement (to spare 3, in side A)
    // and the leave announcement (to member 0, in side B... which is a
    // singleton) spread on disjoint sides. Neither change can learn of
    // the other until the heal — with a totally ordered epoch one view
    // would clobber the other; with mergeable views both survive.
    let mut c = Cluster::new(43, DvvMechanism, overlap_config(6));
    c.run_for(Duration::from_millis(30));

    // node ids: servers 0..3, spares 3..5, clients 5..9
    let side_b = [NodeId(0)];
    let side_a: Vec<NodeId> = (0..9u32).map(NodeId).filter(|n| n.0 != 0).collect();
    c.sim_mut().network_mut().partition_two(side_a, side_b);
    c.set_replica_status(ReplicaId(0), false);

    c.begin_join(3); // announced inside side A
    c.begin_leave(0); // announced inside side B; its drain is cut off
    let version_after_mints = c.ring_epoch();

    // let both announcements spread on their own sides
    c.run_for(Duration::from_millis(300));
    assert!(
        c.server(1)
            .view()
            .status(&ReplicaId(3))
            .is_some_and(MemberStatus::in_ring),
        "side A learned the join"
    );
    assert_eq!(
        c.server(1).view().status(&ReplicaId(0)),
        Some(MemberStatus::Up),
        "side A cannot have learned the leave yet"
    );
    assert_eq!(
        c.server(0).view().status(&ReplicaId(0)),
        Some(MemberStatus::Leaving),
        "the leaver adopted its own announcement"
    );
    assert_eq!(
        c.server(0).view().status(&ReplicaId(3)),
        Some(MemberStatus::Joining),
        "announcements carry everything the control plane knew, so the \
         join entry rode along to side B — but nobody on side A can relay \
         side B's Leaving entry back"
    );

    // heal, then supervise both changes: the leaver can finally drain to
    // the (now reachable) owners, and gossip merges join + leave into
    // one view everywhere
    c.sim_mut().network_mut().heal();
    c.set_replica_status(ReplicaId(0), true);
    assert!(
        c.await_membership(),
        "both changes settle once the partition heals"
    );
    assert_eq!(c.member_slots(), vec![1, 2, 3]);
    assert!(!c.server(0).is_active(), "the leaver retired");
    assert!(c.server(0).data().is_empty(), "the leaver fully drained");
    assert_eq!(
        c.view().status(&ReplicaId(0)),
        Some(MemberStatus::Removed),
        "the drained leaver is tombstoned"
    );
    assert!(
        c.ring_epoch() > version_after_mints,
        "retirement and promotion spend their own incarnations"
    );

    assert!(c.run(), "sessions finish on the reshaped cluster");
    c.run_for(Duration::from_secs(3));
    assert_cluster_clean(&mut c, "join∥leave");
}

#[test]
fn leave_cancelled_in_band_while_a_join_overlaps() {
    // Regression for the deleted `sync_all_views` fallback: a leaver cut
    // off from every drain target times out and must be re-admitted by
    // the in-band path (a posted view whose fresh `Up` incarnation the
    // subject gossips), while an overlapping join still completes. After the
    // heal the cluster must converge by gossip alone, with clean
    // residual and no-loss audits.
    let mut c = Cluster::new(47, DvvMechanism, overlap_config(6));
    c.run_for(Duration::from_millis(30));
    assert!(!c.server(0).data().is_empty(), "the leaver holds data");

    // cut member 0 off so its drain can never be acknowledged
    let others: Vec<NodeId> = (0..9u32).map(NodeId).filter(|n| n.0 != 0).collect();
    c.sim_mut().network_mut().partition_two(others, [NodeId(0)]);
    c.set_replica_status(ReplicaId(0), false);

    c.begin_join(3);
    c.begin_leave(0);
    assert!(
        !c.await_membership(),
        "a cut-off drain must time out, not settle"
    );

    // the leave was cancelled in band: member again, fresh Up entry,
    // store intact — and the overlapping join was not rolled back
    assert_eq!(c.member_slots(), vec![0, 1, 2, 3]);
    assert!(
        c.server(0).is_active(),
        "the re-admitted node keeps serving"
    );
    assert!(!c.server(0).data().is_empty(), "no drain ⇒ no clearing");
    assert_eq!(c.view().status(&ReplicaId(0)), Some(MemberStatus::Up));
    assert_eq!(
        c.server(0).view_digest(),
        c.view_digest(),
        "the re-admission carried the canonical view to the subject"
    );
    assert!(c.server(3).is_active(), "the overlapping join stands");

    // heal: gossip alone reconciles the survivors (who still hold the
    // Leaving entry) with the rejoined node's fresh incarnation
    c.sim_mut().network_mut().heal();
    c.set_replica_status(ReplicaId(0), true);
    c.run_for(Duration::from_millis(800));
    for i in c.member_slots() {
        assert_eq!(
            c.server(i).view_digest(),
            c.view_digest(),
            "server {i} did not converge onto the merged view by gossip"
        );
    }

    assert!(c.run(), "sessions finish after the cancelled leave");
    c.run_for(Duration::from_secs(3));
    assert_cluster_clean(&mut c, "leave∥cancel");
}

#[test]
fn stale_pending_join_is_not_promoted_after_a_later_removal() {
    // Regression: a join whose supervision times out stays pending so a
    // later await can promote it — but if the slot is *removed again*
    // before that promotion happens, the stale pending entry must not
    // bump the retired node back to `Up` (which would gossip a phantom
    // member into every ring view).
    let mut c = Cluster::new(61, DvvMechanism, overlap_config(6));
    c.run_for(Duration::from_millis(30));

    // partition member 2 so the join cannot converge in time
    let others: Vec<NodeId> = (0..9u32).map(NodeId).filter(|n| n.0 != 2).collect();
    c.sim_mut().network_mut().partition_two(others, [NodeId(2)]);
    c.set_replica_status(ReplicaId(2), false);
    c.begin_join(3);
    assert!(
        !c.await_membership(),
        "the join cannot settle while cut off"
    );
    assert_eq!(
        c.view().status(&ReplicaId(3)),
        Some(MemberStatus::Joining),
        "an unsettled join stays in its transitional status"
    );

    // heal, then remove the very slot whose join never got promoted
    c.sim_mut().network_mut().heal();
    c.set_replica_status(ReplicaId(2), true);
    c.run_for(Duration::from_millis(300));
    assert!(c.remove_node_live(3), "the leave settles after the heal");
    assert_eq!(c.member_slots(), vec![0, 1, 2]);
    assert_eq!(
        c.view().status(&ReplicaId(3)),
        Some(MemberStatus::Removed),
        "the stale pending join must not resurrect the removed node"
    );
    assert!(!c.server(3).is_active());
    for i in c.member_slots() {
        assert_eq!(c.server(i).view_digest(), c.view_digest(), "server {i}");
    }

    assert!(c.run(), "sessions finish");
    c.run_for(Duration::from_secs(3));
    assert_cluster_clean(&mut c, "stale-join");
}

#[test]
#[should_panic(expected = "mid-drain")]
fn rejoining_a_draining_slot_is_rejected() {
    // begin_join on a slot whose leave is still draining would silently
    // cancel the drain while await_membership keeps waiting on it — the
    // harness must reject the call instead (the in-band re-admission is
    // the supported way to cancel a leave).
    let mut c = Cluster::new(67, DvvMechanism, overlap_config(6));
    c.run_for(Duration::from_millis(30));
    c.begin_leave(0);
    c.begin_join(0);
}

#[test]
fn overlapping_churn_under_partition_is_clean_across_seeds() {
    // The overlap property suite: traffic + a healed partition + two
    // waves of *concurrent* membership changes (join∥join, then
    // join∥leave), gossip-only dissemination, audited per seed by the
    // no-loss oracle and the residual-copy audit.
    for seed in churn_seeds(&[19, 37, 53]) {
        let mut c = Cluster::new(seed, DvvMechanism, overlap_config(6));

        // partitioned phase: sloppy quorums + hints carry the load
        c.run_for(Duration::from_millis(30));
        let others: Vec<NodeId> = (0..9u32).map(NodeId).filter(|n| n.0 != 2).collect();
        c.sim_mut().network_mut().partition_two(others, [NodeId(2)]);
        c.set_replica_status(ReplicaId(2), false);
        c.run_for(Duration::from_millis(60));
        c.sim_mut().network_mut().heal();
        c.set_replica_status(ReplicaId(2), true);
        c.run_for(Duration::from_millis(20));

        // wave 1: both spares join concurrently
        c.begin_join(3);
        c.begin_join(4);
        assert!(c.await_membership(), "seed {seed}: join∥join settled");

        // wave 2: a leave overlapping the traffic
        c.begin_leave(0);
        assert!(c.await_membership(), "seed {seed}: leave settled");

        assert!(c.run(), "seed {seed}: sessions finish after churn");
        c.run_for(Duration::from_secs(3));
        assert_cluster_clean(&mut c, &format!("seed {seed}"));
    }
}
