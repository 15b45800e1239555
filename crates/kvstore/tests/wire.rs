//! Bytes-on-the-wire: the reconciliation protocols (full ring-view
//! pushes, arc-scoped anti-entropy) must converge a scripted scenario to
//! the states the script implies — and spend exactly the bytes pinned
//! here doing it.
//!
//! The scenario is clientless and fully scripted so every run sees an
//! identical write set: a preloaded keyspace, live churn (a join and a
//! leave), then four partition/divergence/heal waves against one
//! member, then a long AAE quiesce. Nothing here calls `converge()`
//! before reading the wire report — the bytes measured are the bytes
//! the protocols actually spent converging.

use std::collections::BTreeMap;

use dvv::mechanisms::{DvvMechanism, Mechanism, WriteOrigin};
use dvv::{ClientId, ReplicaId, VersionVector};
use kvstore::cluster::{Cluster, ClusterConfig, StoreProc};
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::messages::{Msg, MsgClass, WireStats};
use kvstore::value::{Key, StampedValue, WriteId};
use kvstore::FleetHarness;
use ring::HashRing;
use simnet::{Duration, NodeId};

type M = DvvMechanism;
type State = <M as Mechanism<StampedValue>>::State;

const SERVERS: u32 = 6;
const N: usize = 3;
/// Large enough that a full leaf push (every shared key) would dwarf the
/// per-arc root exchange — the regime arc-scoped anti-entropy targets.
const KEYS: usize = 20_000;
/// Kept small so divergence stays concentrated in a few arcs.
const DIVERGENT: usize = 10;

/// Bytes-to-convergence of the scenario at `PINNED_SEED`, per message
/// class in `MsgClass::ALL` order (client, replication, anti-entropy,
/// membership, transfer, handoff). Same seed, same simulator, same count
/// on every machine, so any difference is a wire-format or protocol
/// change. A deliberate one updates these numbers in the same change and
/// records the before and after in CHANGES.md.
const PINNED_SEED: u64 = 31;
const BYTES: [u64; 6] = [0, 0, 25_845, 7_151, 1_793_777, 257_521];

fn preload_state(origin: ReplicaId, key_idx: usize) -> State {
    let mech = DvvMechanism;
    let mut st = State::default();
    mech.write(
        &mut st,
        WriteOrigin::new(origin, ClientId(9_000)),
        &VersionVector::new(),
        StampedValue::new(
            WriteId::new(ClientId(9_000), key_idx as u64 + 1),
            vec![0x11; 12],
        ),
    );
    st
}

/// A read-modify-write at `origin`'s replica: reads the node's current
/// state and context, writes a superseding value on top, and returns the
/// state written. Minting the dot against the live state (rather than an
/// empty one) is what makes the write a NEW event — a write built on an
/// empty state would reuse dot `(origin, 1)` and vanish into the preload
/// on merge.
fn inject_write(c: &mut Cluster<M>, origin: ReplicaId, key: &Key, wave: u64, i: u64) -> State {
    let mech = DvvMechanism;
    let client = ClientId(7_000 + wave);
    let mut st = c
        .server(origin.0 as usize)
        .data()
        .get(key)
        .cloned()
        .unwrap_or_default();
    let (_, ctx) = mech.read(&st);
    mech.write(
        &mut st,
        WriteOrigin::new(origin, client),
        &ctx,
        StampedValue::new(WriteId::new(client, i + 1), vec![0x22; 8]),
    );
    if let StoreProc::Server(s) = c.sim_mut().process_mut(origin.0 as usize) {
        s.merge_state_direct(key, &st);
    }
    st
}

/// Runs the scripted churn+heal+AAE scenario and returns the cluster
/// (quiesced, NOT harness-converged) with the model the script implies:
/// every key's final state. A key that never diverged keeps its preload;
/// a divergent key ends at its last wave's write, whose causal past
/// holds every earlier wave's write (each wave reads the origin's state,
/// and only the origin writes).
fn run_scenario(seed: u64) -> (Cluster<M>, BTreeMap<Key, State>) {
    let mut cfg = ClusterConfig {
        servers: SERVERS as usize,
        spare_servers: 1,
        clients: 0,
        cycles_per_client: 0,
        store: StoreConfig {
            n: N,
            r: 2,
            w: 2,
            anti_entropy_interval: Duration::from_millis(100),
            gossip_interval: Duration::from_millis(300),
            ..StoreConfig::default()
        },
        client: ClientConfig::default(),
        ..ClusterConfig::default()
    };
    cfg.deadline = Duration::from_secs(2_000);
    let mut c = Cluster::new(seed, DvvMechanism, cfg);

    // preload: every key replicated at its full preference list
    let ring = HashRing::with_vnodes((0..SERVERS).map(ReplicaId), StoreConfig::default().vnodes);
    let keys: Vec<Key> = (0..KEYS)
        .map(|i| format!("user:{i:04}").into_bytes())
        .collect();
    let mut model = BTreeMap::new();
    for (i, key) in keys.iter().enumerate() {
        let prefs = ring.preference_list(key, N);
        let st = preload_state(prefs[0], i);
        for owner in prefs {
            if let StoreProc::Server(s) = c.sim_mut().process_mut(owner.0 as usize) {
                s.merge_state_direct(key, &st);
            }
        }
        model.insert(key.clone(), st);
    }
    c.run_for(Duration::from_millis(150));

    // live churn first: the spare joins, a founding member drains out.
    // The join's transfer/AAE interleaving is paid here, before the
    // measurement-relevant divergence waves.
    assert!(c.add_node_live(SERVERS as usize), "join settles");
    assert!(c.remove_node_live(0), "leave settles");
    c.run_for(Duration::from_secs(1));

    // The divergence write set: keys from ONE Merkle arc of the
    // post-churn ring that member 1 replicates. Anti-entropy divergence
    // is local by nature — a coordinator's backlog for a down peer
    // covers the ranges they co-own, not the whole keyspace — and a
    // single arc is the unit the arc-scoped exchange can isolate.
    let victim = ReplicaId(1);
    let post_ring =
        HashRing::with_vnodes((1..=SERVERS).map(ReplicaId), StoreConfig::default().vnodes);
    let bounds = post_ring.arc_bounds();
    let mut by_arc: BTreeMap<usize, Vec<Key>> = BTreeMap::new();
    for k in &keys {
        let idx = ring::arc_index(bounds, ring::hash_key(k));
        if post_ring.arc_prefs(idx, N).contains(&victim) {
            by_arc.entry(idx).or_default().push(k.clone());
        }
    }
    // smallest arc that can hold the whole divergent set: the unit the
    // arc-scoped exchange isolates, at its cheapest
    let (arc, group) = by_arc
        .into_iter()
        .filter(|(_, v)| v.len() >= DIVERGENT)
        .min_by_key(|(_, v)| v.len())
        .expect("some arc replicates >= DIVERGENT keys at the victim");
    let origin = *post_ring
        .arc_prefs(arc, N)
        .iter()
        .find(|r| **r != victim)
        .unwrap();
    let divergent: Vec<Key> = group.into_iter().take(DIVERGENT).collect();
    assert_eq!(divergent.len(), DIVERGENT, "keyspace too small to cluster");

    for wave in 0..4u64 {
        let others: Vec<NodeId> = (0..SERVERS + 1).map(NodeId).filter(|n| n.0 != 1).collect();
        c.sim_mut().network_mut().partition_two(others, [NodeId(1)]);
        c.set_replica_status(victim, false);
        for (i, key) in divergent.iter().enumerate() {
            let written = inject_write(&mut c, origin, key, wave, i as u64);
            model.insert(key.clone(), written);
        }
        c.run_for(Duration::from_millis(400));
        c.sim_mut().network_mut().heal();
        c.set_replica_status(victim, true);
        c.run_for(Duration::from_millis(500));
    }

    // quiesce: AAE, handoff and transfer retries finish their work
    c.run_for(Duration::from_secs(3));
    (c, model)
}

/// Every member slot's stored keys and states.
fn slot_contents(c: &Cluster<M>) -> BTreeMap<usize, BTreeMap<Key, State>> {
    c.member_slots()
        .into_iter()
        .map(|i| {
            let data = c
                .server(i)
                .data()
                .iter()
                .map(|(k, s)| (k.clone(), s.clone()))
                .collect();
            (i, data)
        })
        .collect()
}

/// What every member slot must hold once the scenario converged: each
/// key's modelled state at each of its final owners, nothing anywhere
/// else.
fn model_contents(
    c: &Cluster<M>,
    model: &BTreeMap<Key, State>,
) -> BTreeMap<usize, BTreeMap<Key, State>> {
    let ring = c.view().to_ring(StoreConfig::default().vnodes);
    let mut slots: BTreeMap<usize, BTreeMap<Key, State>> = c
        .member_slots()
        .into_iter()
        .map(|i| (i, BTreeMap::new()))
        .collect();
    for (key, st) in model {
        for owner in ring.preference_list(key, N) {
            let slot = slots
                .get_mut(&(owner.0 as usize))
                .expect("owners are members");
            slot.insert(key.clone(), st.clone());
        }
    }
    slots
}

/// Runs the scenario at `seed` and checks what must hold at any seed: it
/// converged on its own (no harness converge) — one view everywhere, no
/// copy outside its preference list — to exactly the model's states.
fn converges_to_the_model(seed: u64) -> Cluster<M> {
    let (c, model) = run_scenario(seed);
    for i in c.member_slots() {
        assert_eq!(
            c.server(i).view_digest(),
            c.view_digest(),
            "seed {seed}: server {i} view diverged"
        );
    }
    let residuals = c.residual_copies();
    assert!(
        residuals.is_empty(),
        "seed {seed}: residual copies: {residuals:?}"
    );
    // (captured unless an assert below fails — diagnostics)
    let r = c.wire_report();
    for class in MsgClass::ALL {
        eprintln!(
            "seed {seed}: {} = {} bytes / {} msgs",
            class.name(),
            r.bytes(class),
            r.msgs(class)
        );
    }
    assert!(
        slot_contents(&c) == model_contents(&c, &model),
        "seed {seed}: final states differ from the scripted model"
    );
    c
}

#[test]
fn churn_converges_to_the_scripted_model_at_the_pinned_bytes() {
    let c = converges_to_the_model(PINNED_SEED);
    let r = c.wire_report();
    assert_eq!(
        MsgClass::ALL.map(|class| r.bytes(class)),
        BYTES,
        "seed {PINNED_SEED}: bytes per class"
    );
    // the soak lane's EXTRA_CHURN_SEEDS
    for seed in workloads::churn_seeds(&[]) {
        converges_to_the_model(seed);
    }
}

/// The per-class accounting itself: a scripted run must attribute bytes
/// to every class it exercised, and the roll-up must equal the sum of
/// parts.
#[test]
fn wire_report_attributes_bytes_per_class() {
    let (c, _) = run_scenario(97);
    let report: WireStats = c.wire_report();
    for class in [
        MsgClass::AntiEntropy,
        MsgClass::Membership,
        MsgClass::Transfer,
        MsgClass::Handoff,
    ] {
        assert!(
            report.bytes(class) > 0,
            "scenario exercised {} but no bytes were recorded",
            class.name()
        );
        assert!(report.msgs(class) > 0);
    }
    // clientless, divergence injected by direct merge: no client or
    // replication-path traffic to attribute
    assert_eq!(report.bytes(MsgClass::Client), 0);
    assert_eq!(report.bytes(MsgClass::Replication), 0);
    let sum: u64 = MsgClass::ALL.iter().map(|c| report.bytes(*c)).sum();
    assert_eq!(report.total_bytes(), sum);
}

/// What a GET's replica leg costs, counted rather than timed: on a
/// three-server cluster with every periodic protocol off, a GET posted
/// to server 0 is the only Replication-class traffic there is.
#[test]
fn conditional_read_charges_nine_bytes_per_replica_in_sync() {
    let mech = DvvMechanism;
    let store = StoreConfig {
        anti_entropy_interval: Duration::ZERO,
        gossip_interval: Duration::ZERO,
        handoff_interval: Duration::ZERO,
        ..StoreConfig::default()
    };
    let header = store.header_bytes;
    let cfg = ClusterConfig {
        servers: 3,
        clients: 0,
        cycles_per_client: 0,
        store,
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(5, DvvMechanism, cfg);
    let merge = |c: &mut Cluster<M>, slot: usize, key: &Key, st: &State| {
        if let StoreProc::Server(s) = c.sim_mut().process_mut(slot) {
            s.merge_state_direct(key, st);
        }
    };
    let get = |c: &mut Cluster<M>, req: u64, key: &Key| -> u64 {
        let before = c.wire_report().bytes(MsgClass::Replication);
        let digest = c.view_digest();
        let key = key.clone();
        c.sim_mut()
            .post(NodeId(0), Msg::ClientGet { req, key, digest });
        c.run_for(Duration::from_millis(20));
        c.wire_report().bytes(MsgClass::Replication) - before
    };
    let size = |msg: Msg<M>| (msg.wire_size(&mech) + header) as u64;
    let fp = kvstore::merkle::fingerprint::<State>;

    // every replica holds the same 512-byte value
    let level: Key = b"user:level".to_vec();
    let mut held = State::default();
    mech.write(
        &mut held,
        WriteOrigin::new(ReplicaId(0), ClientId(1)),
        &VersionVector::new(),
        StampedValue::new(WriteId::new(ClientId(1), 1), vec![0x33; 512]),
    );
    for slot in 0..3 {
        merge(&mut c, slot, &level, &held);
    }
    let ask = |key: &Key, st: &State| {
        size(Msg::RepGetIf {
            req: 1,
            key: key.clone(),
            have: fp(st),
        })
    };
    let same = size(Msg::RepGetSame { req: 1 });
    assert_eq!(same, 9 + header as u64);
    assert_eq!(get(&mut c, 1, &level), 2 * (ask(&level, &held) + same));
    // what the full-state read this replaces would have moved
    let full = |key: &Key, st: &State| {
        size(Msg::RepGetResp {
            req: 1,
            key: key.clone(),
            state: st.clone(),
        })
    };
    let plain = size(Msg::RepGet {
        req: 1,
        key: level.clone(),
    });
    assert!(5 * 2 * (ask(&level, &held) + same) < 2 * (plain + full(&level, &held)));

    // server 2 is one write behind: it answers in full and is repaired
    let stale: Key = b"user:stale".to_vec();
    let old = preload_state(ReplicaId(1), 0);
    let mut new = old.clone();
    let (_, seen) = mech.read(&old);
    mech.write(
        &mut new,
        WriteOrigin::new(ReplicaId(1), ClientId(2)),
        &seen,
        StampedValue::new(WriteId::new(ClientId(2), 1), vec![0x44; 64]),
    );
    merge(&mut c, 0, &stale, &new);
    merge(&mut c, 1, &stale, &new);
    merge(&mut c, 2, &stale, &old);
    let repair = size(Msg::Push {
        class: MsgClass::Replication,
        id: None,
        entries: vec![(stale.clone(), new.clone())],
        hint: None,
    });
    assert_eq!(
        get(&mut c, 2, &stale),
        2 * ask(&stale, &new) + same + full(&stale, &old) + repair
    );
    assert_eq!(c.server(2).data().get(&stale), Some(&new));

    let (same_count, full_count) = (0..3)
        .map(|i| c.server(i).stats())
        .fold((0, 0), |(s, f), st| {
            (s + st.rep_reads_same, f + st.rep_reads_full)
        });
    assert_eq!((same_count, full_count), (3, 1));
    let read_repairs: u64 = (0..3).map(|i| c.server(i).stats().read_repairs).sum();
    assert_eq!(read_repairs, 1);
}

/// Charge parity on the simulator — the counterpart of
/// `transport/tests/charge_parity.rs`: the node charges a message and
/// hands the driver the number, so every byte in the nodes' ledgers is
/// a byte the simulator was handed to carry, on a static fleet and
/// across a live join (transfer, membership and handoff traffic).
#[test]
fn every_byte_a_node_charged_is_a_byte_the_simulator_was_handed() {
    use simnet::TraceEvent;

    let traced = |spare_servers: usize| {
        let cfg = ClusterConfig {
            servers: 3,
            spare_servers,
            clients: 4,
            cycles_per_client: 10,
            ..ClusterConfig::default()
        };
        let mut c = Cluster::new(31, DvvMechanism, cfg);
        c.sim_mut().trace_mut().set_capacity(1 << 22);
        c.sim_mut().trace_mut().enable();
        c
    };
    let assert_parity = |c: &Cluster<M>| -> WireStats {
        let trace = c.sim().trace();
        assert_eq!(trace.overflowed(), 0, "the trace must hold the whole run");
        let handed: u64 = trace
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Sent { bytes, .. } => *bytes as u64,
                _ => 0,
            })
            .sum();
        let charged = c.wire_report();
        assert_eq!(handed, charged.total_bytes());
        charged
    };

    let mut fixed = traced(0);
    assert!(fixed.run(), "all clients finish");
    fixed.run_for(Duration::from_secs(1));
    let charged = assert_parity(&fixed);
    assert!(charged.bytes(MsgClass::Client) > 0 && charged.bytes(MsgClass::AntiEntropy) > 0);

    let mut joined = traced(1);
    joined.run_for(Duration::from_millis(40));
    assert!(joined.add_node_live(3), "join settles");
    assert!(joined.run(), "all clients finish");
    joined.run_for(Duration::from_secs(1));
    let charged = assert_parity(&joined);
    assert!(charged.bytes(MsgClass::Transfer) > 0, "the join moved keys");
}
