//! Crash/restart recovery scenarios over the deterministic simulation:
//!
//! * a crashed replica restarted from its durable log replays exactly
//!   the prefix it had synced — with a write-through log, its recovered
//!   state is byte-identical to the pre-crash state (the "AAE-equivalent
//!   to pre-crash" oracle in its strongest form);
//! * re-admission is **in band**: the restarted node re-enters the fleet
//!   via a fresh-incarnation `Msg::RingEpoch` spread by gossip — no harness
//!   view synchronisation;
//! * across seeded crash/heal schedules the fleet loses no acknowledged
//!   write (`surviving_union` audit) and re-converges through its own
//!   anti-entropy;
//! * `MemEngine`- and `LogEngine`-backed clusters driven by the same
//!   seed produce byte-identical per-slot states — the engines are
//!   behaviour-identical behind the `DataStore` doors;
//! * crashes interleaved with membership churn (mid-transfer donor,
//!   mid-drain leaver) recover cleanly: fingerprint-guarded transfer
//!   retries finish the interrupted hand-over and `residual_copies()`
//!   audits clean.

use std::collections::{BTreeMap, BTreeSet};

use dvv::encode::to_bytes;
use dvv::mechanisms::DvvSetMechanism;
use dvv::ReplicaId;
use kvstore::cluster::{Cluster, ClusterConfig, EngineFactory};
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::value::{Key, WriteId};
use kvstore::FleetHarness;
use simnet::Duration;
use storage::LogConfig;
use workloads::churn_seeds;

type M = DvvSetMechanism;

fn durable_config(servers: usize, clients: usize, cycles: u32) -> ClusterConfig {
    ClusterConfig {
        servers,
        clients,
        cycles_per_client: cycles,
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
        deadline: Duration::from_secs(2_000),
        ..ClusterConfig::default()
    }
}

/// Per-key encoded states at server `slot` — the byte-exact fingerprint
/// of everything the replica holds.
fn state_bytes(c: &Cluster<M>, slot: usize) -> BTreeMap<Key, Vec<u8>> {
    c.server(slot)
        .data()
        .iter()
        .map(|(k, st)| (k.clone(), to_bytes(st)))
        .collect()
}

/// Per-key surviving write ids at server `slot`.
fn surviving_map(c: &Cluster<M>, slot: usize) -> BTreeMap<Key, BTreeSet<WriteId>> {
    let keys: Vec<Key> = c.server(slot).data().keys().cloned().collect();
    keys.into_iter()
        .map(|k| {
            let s = c.surviving_at(slot, &k);
            (k, s)
        })
        .collect()
}

#[test]
fn write_through_crash_restart_replays_byte_identical_state() {
    let dir = storage::scratch_dir("recovery-replay");
    let factory = EngineFactory::<M>::log_in(&dir, LogConfig::write_through());
    let mut c = Cluster::new_durable(3, DvvSetMechanism, durable_config(3, 3, 15), factory);
    assert_eq!(c.server(0).data().engine_kind(), "log");

    assert!(c.run(), "sessions finish");
    c.run_for(Duration::from_millis(500)); // let AAE and handoff settle

    let pre = state_bytes(&c, 1);
    assert!(!pre.is_empty(), "server 1 must hold data before the crash");

    c.crash_node(1);
    assert_eq!(c.crashed_slots(), vec![1]);
    c.restart_node(1);
    assert!(c.crashed_slots().is_empty());

    // Write-through: every mutation was synced before the crash, so the
    // replayed state is byte-identical — before any AAE round runs.
    let post = state_bytes(&c, 1);
    assert_eq!(pre, post, "write-through replay must be byte-identical");

    // The rejoin is in band; after gossip + AAE the fleet is clean.
    c.run_for(Duration::from_secs(2));
    c.converge();
    let report = c.anomaly_report();
    assert!(report.is_clean(), "{report:?}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn crash_heal_schedules_recover_across_seeds() {
    // ≥ 3 seeded crash/heal schedules: crash a seed-chosen replica while
    // client traffic is still running, restart it from disk, and require
    //   (a) the recovered node replays exactly its pre-crash state
    //       (write-through log ⇒ AAE-equivalence to pre-crash is byte
    //       equality),
    //   (b) the fleet re-converges through its own protocol after the
    //       in-band rejoin,
    //   (c) no acknowledged write is lost (`surviving_union` audit).
    for seed in churn_seeds(&[13, 37, 59]) {
        let dir = storage::scratch_dir("recovery-seeds");
        let factory = EngineFactory::<M>::log_in(&dir, LogConfig::write_through());
        let mut c = Cluster::new_durable(seed, DvvSetMechanism, durable_config(4, 4, 30), factory);

        // phase 1: some traffic
        c.run_for(Duration::from_millis(40));

        // crash a seed-chosen replica mid-workload
        let victim = (seed % 4) as usize;
        let pre = surviving_map(&c, victim);
        c.crash_node(victim);
        c.run_for(Duration::from_millis(80)); // sloppy quorums carry the load

        // restart from disk: replay + fresh-incarnation rejoin
        c.restart_node(victim);
        let post = surviving_map(&c, victim);
        assert_eq!(
            pre, post,
            "seed {seed}: write-through replay must restore the pre-crash \
             surviving sets at slot {victim}"
        );

        assert!(c.run(), "seed {seed}: sessions finish after the restart");
        c.run_for(Duration::from_secs(3)); // AAE + hint drain

        // every replica holding a key agrees on it — with n < servers a
        // non-owner legitimately holds nothing, so compare holders only
        let oracle = c.oracle();
        for key in oracle.keys() {
            let holders: Vec<usize> = (0..4)
                .filter(|&i| c.server(i).data().contains_key(&key))
                .collect();
            assert!(!holders.is_empty(), "seed {seed}: {key:?} vanished");
            let s0 = c.surviving_at(holders[0], &key);
            for &i in &holders[1..] {
                assert_eq!(
                    s0,
                    c.surviving_at(i, &key),
                    "seed {seed}: server {i} did not converge for {key:?}"
                );
            }
            // no acknowledged write lost fleet-wide
            let (lost, _) = oracle.audit_key(&key, &c.surviving_union(&key));
            assert_eq!(lost, 0, "seed {seed}: write lost for {key:?}");
        }

        c.converge();
        let report = c.anomaly_report();
        assert!(report.is_clean(), "seed {seed}: {report:?}");
        assert!(report.acked_writes > 0, "seed {seed}: no acked writes");
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn coarse_sync_crash_loses_tail_but_aae_restores_it_from_peers() {
    // With a coarse group-sync interval the crash genuinely drops the
    // buffered tail; the replica restarts from an *earlier* durable
    // prefix and anti-entropy restores the difference from its peers.
    let dir = storage::scratch_dir("recovery-coarse");
    let factory = EngineFactory::<M>::log_in(&dir, LogConfig::default());
    let mut c = Cluster::new_durable(5, DvvSetMechanism, durable_config(3, 3, 20), factory);

    // Quiet period first: all client traffic done before the crash, so
    // the lost tail cannot contain an acked-but-unreplicated dot (the
    // replication factor keeps every write alive at a peer).
    assert!(c.run(), "sessions finish");
    c.run_for(Duration::from_millis(500));

    let pre = surviving_map(&c, 2);
    c.crash_node(2);
    c.restart_node(2);

    // replay never panics; the node may legitimately be missing its
    // unsynced tail here
    c.run_for(Duration::from_secs(5)); // AAE rounds through the rejoin

    let post = surviving_map(&c, 2);
    for (key, pre_set) in &pre {
        let post_set = post.get(key).cloned().unwrap_or_default();
        assert_eq!(
            *pre_set, post_set,
            "AAE must restore {key:?} at the recovered node"
        );
    }
    c.converge();
    let report = c.anomaly_report();
    assert!(report.is_clean(), "{report:?}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn mem_and_log_engines_produce_byte_identical_states() {
    // The same seed drives the same deterministic workload; the only
    // difference is the storage engine behind the `DataStore` doors.
    // Every server must end with byte-identical per-key states.
    for seed in [3u64, 17] {
        let cfg = durable_config(3, 3, 20);
        let mut mem = Cluster::new(seed, DvvSetMechanism, cfg.clone());
        let dir = storage::scratch_dir("recovery-equiv");
        let factory = EngineFactory::<M>::log_in(&dir, LogConfig::write_through());
        let mut log = Cluster::new_durable(seed, DvvSetMechanism, cfg, factory);
        assert_eq!(mem.server(0).data().engine_kind(), "mem");
        assert_eq!(log.server(0).data().engine_kind(), "log");

        assert!(mem.run(), "seed {seed}: mem sessions finish");
        assert!(log.run(), "seed {seed}: log sessions finish");
        mem.run_for(Duration::from_secs(1));
        log.run_for(Duration::from_secs(1));

        for slot in 0..3 {
            assert_eq!(
                state_bytes(&mem, slot),
                state_bytes(&log, slot),
                "seed {seed}: engines diverged at slot {slot}"
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn crash_of_transfer_donor_mid_join_recovers_and_settles() {
    // A spare joins; mid-transfer one of the donors crashes. The
    // fingerprint-guarded transfer retry keeps re-offering the ranges
    // until the donor is back, after which the join settles and the
    // residual-copy audit is clean.
    let mut cfg = durable_config(3, 3, 25);
    cfg.spare_servers = 1;
    let dir = storage::scratch_dir("recovery-join");
    let factory = EngineFactory::<M>::log_in(&dir, LogConfig::write_through());
    let mut c = Cluster::new_durable(41, DvvSetMechanism, cfg, factory);

    c.run_for(Duration::from_millis(40));
    c.begin_join(3);
    c.run_for(Duration::from_millis(2)); // transfers in flight

    c.crash_node(0); // a donor dies mid-transfer
    c.run_for(Duration::from_millis(50));
    c.restart_node(0); // replay + in-band rejoin

    assert!(c.await_membership(), "join settles once the donor is back");
    assert!(c.run(), "sessions finish");
    c.run_for(Duration::from_secs(3)); // quiesce: retries, hints, AAE

    let residuals = c.residual_copies();
    assert!(residuals.is_empty(), "residual copies: {residuals:?}");
    let oracle = c.oracle();
    for key in oracle.keys() {
        let (lost, _) = oracle.audit_key(&key, &c.surviving_union(&key));
        assert_eq!(lost, 0, "write lost for {key:?}");
    }
    c.converge();
    let report = c.anomaly_report();
    assert!(report.is_clean(), "{report:?}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn crash_of_leaver_mid_drain_restarts_as_full_member() {
    // A member starts draining out, then crashes mid-drain. Restarting
    // it supersedes the stale `Leaving` entry with a fresh `Up`
    // incarnation: the node is a full member again, the fleet
    // re-converges, and no acknowledged write is lost.
    let mut cfg = durable_config(4, 3, 25);
    cfg.store.n = 2;
    let dir = storage::scratch_dir("recovery-drain");
    let factory = EngineFactory::<M>::log_in(&dir, LogConfig::write_through());
    let mut c = Cluster::new_durable(43, DvvSetMechanism, cfg, factory);

    c.run_for(Duration::from_millis(40));
    c.begin_leave(0);
    c.run_for(Duration::from_millis(2)); // drain in flight

    c.crash_node(0); // mid-drain crash
    assert!(
        !c.await_membership(),
        "a crashed leaver cannot settle its drain"
    );
    c.restart_node(0); // fresh Up incarnation supersedes Leaving

    assert!(c.member_slots().contains(&0), "slot 0 is a member again");
    assert!(c.run(), "sessions finish");
    c.run_for(Duration::from_secs(3));

    let oracle = c.oracle();
    for key in oracle.keys() {
        let (lost, _) = oracle.audit_key(&key, &c.surviving_union(&key));
        assert_eq!(lost, 0, "write lost for {key:?}");
    }
    // residual audit runs pre-converge: converge() force-merges every
    // key into every member, which fabricates residual copies
    let residuals = c.residual_copies();
    assert!(residuals.is_empty(), "residual copies: {residuals:?}");
    c.converge();
    let report = c.anomaly_report();
    assert!(report.is_clean(), "{report:?}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn restart_without_factory_comes_back_empty_and_aae_refills() {
    // The diskless baseline: a mem-engine cluster restart loses
    // everything; the node still rejoins in band and AAE refills it.
    let mut c = Cluster::new(9, DvvSetMechanism, durable_config(3, 3, 15));
    assert!(c.run(), "sessions finish");
    c.run_for(Duration::from_millis(500));

    let pre = surviving_map(&c, 1);
    assert!(!pre.is_empty());
    c.crash_node(1);
    c.restart_node(1);
    assert!(
        c.server(1).data().is_empty(),
        "no disk ⇒ nothing survives the crash"
    );

    c.run_for(Duration::from_secs(5));
    let post = surviving_map(&c, 1);
    for (key, pre_set) in &pre {
        assert_eq!(
            pre_set,
            post.get(key).unwrap_or(&BTreeSet::new()),
            "AAE must refill {key:?}"
        );
    }
    c.converge();
    let report = c.anomaly_report();
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn replica_ids_survive_recovery() {
    // Sanity: the recovered node keeps its ReplicaId (slot identity) —
    // recovery is the same replica with a fresh incarnation, not a new
    // replica. Peers' views must show exactly one Up entry for it.
    let dir = storage::scratch_dir("recovery-id");
    let factory = EngineFactory::<M>::log_in(&dir, LogConfig::write_through());
    let mut c = Cluster::new_durable(11, DvvSetMechanism, durable_config(3, 2, 10), factory);
    assert!(c.run());
    c.crash_node(2);
    c.restart_node(2);
    c.run_for(Duration::from_secs(2));
    for i in 0..3 {
        assert!(
            c.server(i).view().members().contains(&ReplicaId(2)),
            "server {i} must list the recovered replica as a member"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_restarted_server_runs_one_anti_entropy_chain() {
    // The crashed incarnation's pending timers go with it: the restarted
    // node's re-admission arms the only anti-entropy chain it runs. A
    // chain leaked from the old incarnation would about double its
    // rounds.
    let config = durable_config(3, 2, 5);
    let interval = config.store.anti_entropy_interval;
    let mut c = Cluster::new(5, DvvSetMechanism, config);
    c.run_for(Duration::from_millis(30));
    c.crash_node(1);
    c.run_for(Duration::from_millis(30));
    c.restart_node(1);
    c.run_for(Duration::from_millis(10));
    let before = c.server(1).stats().aae_rounds;
    let window = Duration::from_secs(2);
    c.run_for(window);
    let rounds = c.server(1).stats().aae_rounds - before;
    let expect = window.as_micros() / interval.as_micros();
    assert!(
        rounds.abs_diff(expect) <= 1,
        "{rounds} rounds in {window:?}, one chain makes {expect}"
    );
}
