//! The experiment runners: one function per table/figure of the
//! reproduction (DESIGN.md §5).

use std::hint::black_box;
use std::time::Instant;

use dvv::mechanisms::{
    DvvMechanism, DvvSetMechanism, LamportMechanism, Mechanism, OrderedVv, OrderedVvMechanism,
    VvClientMechanism, VvServerMechanism, WriteOrigin,
};
use dvv::server::{self, Tagged};
use dvv::{CausalHistory, ClientId, Dot, Dvv, DvvSet, ReplicaId, VersionVector};
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::config::ClientConfig;
use kvstore::{FleetHarness, StampedValue};
use simnet::{Duration, LatencyModel, LinkConfig, NetworkConfig};

use crate::table::Table;

/// Mean nanoseconds per call of `f` over `iters` iterations.
pub fn time_ns<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    // warm-up
    for _ in 0..iters / 10 + 1 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

// ---------------------------------------------------------------------
// E1–E3: Figure 1 replay
// ---------------------------------------------------------------------

/// Replays the paper's Figure 1 script under mechanism `M`, returning one
/// rendered line per figure row.
pub fn figure1_trace<M: Mechanism<&'static str>>(mech: M) -> Vec<String> {
    let a = ReplicaId(0);
    let origin = |c: u64| WriteOrigin::new(a, ClientId(c));
    let mut server_a = M::State::default();
    let mut server_b = M::State::default();
    let mut log = Vec::new();
    let render = |mech: &M, st: &M::State| {
        let (values, _) = mech.read(st);
        format!("{} sibling(s) {:?}", mech.sibling_count(st), values)
    };

    mech.write(&mut server_a, origin(1), &M::Context::default(), "v1");
    log.push(format!("A after v1:   {}", render(&mech, &server_a)));
    let (_, ctx_v1) = mech.read(&server_a);
    mech.write(&mut server_a, origin(1), &ctx_v1, "v2");
    log.push(format!("A after v2:   {}", render(&mech, &server_a)));
    mech.write(&mut server_a, origin(2), &ctx_v1, "v3");
    log.push(format!("A after v3:   {}", render(&mech, &server_a)));
    mech.merge(&mut server_b, &server_a);
    log.push(format!("B after sync: {}", render(&mech, &server_b)));
    let (_, ctx_all) = mech.read(&server_b);
    mech.write(&mut server_a, origin(3), &ctx_all, "v4");
    mech.merge(&mut server_b, &server_a);
    log.push(format!("A after v4:   {}", render(&mech, &server_a)));
    log
}

/// E1–E3 as one table: sibling counts per figure row per representation.
#[must_use]
pub fn e1_e3_figure1() -> Table {
    let ch = figure1_trace(dvv::mechanisms::CausalHistoryMechanism);
    let vv = figure1_trace(VvServerMechanism);
    let dvv = figure1_trace(DvvMechanism);
    let mut t = Table::new(&["step", "1a causal histories", "1b vv-per-server", "1c dvv"]);
    let steps = ["v1@A", "v2@A", "v3@A", "sync→B", "v4@A"];
    for i in 0..5 {
        t.row(vec![
            steps[i].into(),
            ch[i].split(": ").nth(1).unwrap_or("").into(),
            vv[i].split(": ").nth(1).unwrap_or("").into(),
            dvv[i].split(": ").nth(1).unwrap_or("").into(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E4: O(1) vs O(n) causality verification
// ---------------------------------------------------------------------

/// Builds a pair of related version vectors over `n` actors (`b`
/// dominates `a` by one event).
#[must_use]
pub fn vv_pair(n: usize) -> (VersionVector<ReplicaId>, VersionVector<ReplicaId>) {
    let a: VersionVector<ReplicaId> = (0..n as u32).map(|i| (ReplicaId(i), 5u64)).collect();
    let mut b = a.clone();
    b.set(ReplicaId((n as u32) / 2), 6);
    (a, b)
}

/// Builds a pair of related DVVs whose pasts have `n` entries (`a`
/// precedes `b`).
#[must_use]
pub fn dvv_pair(n: usize) -> (Dvv<ReplicaId>, Dvv<ReplicaId>) {
    let (past_a, _) = vv_pair(n);
    let dot_a = Dot::new(ReplicaId(0), 6);
    let a = Dvv::new(dot_a, past_a.clone());
    let mut past_b = past_a;
    past_b.record(dot_a);
    let b = Dvv::new(Dot::new(ReplicaId(1), 6), past_b);
    (a, b)
}

/// Builds a lineage pair of ordered VVs over `n` actors.
#[must_use]
pub fn ordered_pair(n: usize) -> (OrderedVv<ReplicaId>, OrderedVv<ReplicaId>) {
    let mut a = OrderedVv::new();
    for i in 0..n as u32 {
        a.increment(ReplicaId(i));
    }
    let mut b = a.clone();
    b.increment(ReplicaId(0));
    (a, b)
}

/// Builds a pair of causal histories with `n` events each (`a ⊂ b`).
#[must_use]
pub fn history_pair(n: usize) -> (CausalHistory<ReplicaId>, CausalHistory<ReplicaId>) {
    let a: CausalHistory<ReplicaId> = (0..n as u32).map(|i| Dot::new(ReplicaId(i), 1)).collect();
    let mut b = a.clone();
    b.insert(Dot::new(ReplicaId(0), 2));
    (a, b)
}

/// E4: nanoseconds per causality check vs number of actors `n`.
///
/// `dvv precedes` is the paper's O(1) check (one map lookup); `vv
/// dominates` is the classic O(n) scan; `ordered-vv fast` is Wang &
/// Amza's cached check; `history ⊆` is the exact set-inclusion model.
#[must_use]
pub fn e4_compare(ns: &[usize], iters: u32) -> Table {
    let mut t = Table::new(&[
        "actors",
        "dvv precedes",
        "vv dominates",
        "ordered-vv fast",
        "history ⊆",
    ]);
    for &n in ns {
        let (da, db) = dvv_pair(n);
        let (va, vb) = vv_pair(n);
        let (oa, ob) = ordered_pair(n);
        let (ha, hb) = history_pair(n);
        let dvv_ns = time_ns(iters, || {
            black_box(black_box(&da).precedes(black_box(&db)));
        });
        let vv_ns = time_ns(iters, || {
            black_box(black_box(&vb).dominates(black_box(&va)));
        });
        let ovv_ns = time_ns(iters, || {
            black_box(black_box(&oa).fast_dominated_by(black_box(&ob)));
        });
        let ch_ns = time_ns(iters.min(20_000), || {
            black_box(black_box(&ha).is_subset(black_box(&hb)));
        });
        t.row(vec![
            n.to_string(),
            format!("{dvv_ns:.0}"),
            format!("{vv_ns:.0}"),
            format!("{ovv_ns:.0}"),
            format!("{ch_ns:.0}"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E5: metadata bounded by replication degree
// ---------------------------------------------------------------------

fn meta_cluster<M: Mechanism<StampedValue>>(mech: M, clients: usize, seed: u64) -> (f64, u64) {
    let config = ClusterConfig {
        servers: 3,
        clients,
        cycles_per_client: 6,
        client: ClientConfig {
            key_count: 1,
            think_time: Duration::from_micros(200),
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(seed, mech, config);
    c.run();
    c.converge();
    let meta = c.metadata_report();
    let report = c.anomaly_report();
    (
        meta.mean_bytes_per_key / meta.mean_siblings.max(1.0),
        report.lost_updates + report.false_concurrency,
    )
}

/// E5: per-version causal metadata (bytes) vs client count, 3 replicas.
#[must_use]
pub fn e5_metadata(client_counts: &[usize]) -> Table {
    let mut t = Table::new(&["clients", "dvv", "dvvset", "vv-client", "vv-server(unsafe)"]);
    for &clients in client_counts {
        let (dvv, a1) = meta_cluster(DvvMechanism, clients, 7);
        let (dvvset, a2) = meta_cluster(DvvSetMechanism, clients, 7);
        let (vvc, a3) = meta_cluster(VvClientMechanism::unbounded(), clients, 7);
        let (vvs, _) = meta_cluster(VvServerMechanism, clients, 7);
        assert_eq!(a1 + a2 + a3, 0, "correct mechanisms must audit clean");
        t.row(vec![
            clients.to_string(),
            format!("{dvv:.1}"),
            format!("{dvvset:.1}"),
            format!("{vvc:.1}"),
            format!("{vvs:.1}"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E6: optimistic pruning is unsafe
// ---------------------------------------------------------------------

/// E6: anomalies and per-version size vs prune threshold (16 clients).
#[must_use]
pub fn e6_pruning(thresholds: &[usize]) -> Table {
    let mut t = Table::new(&[
        "prune-to",
        "bytes/version",
        "lost updates",
        "false concurrency",
    ]);
    let run = |mech: VvClientMechanism| -> (f64, u64, u64) {
        let mut lost = 0;
        let mut fc = 0;
        let mut bytes = 0.0;
        for seed in 0..5 {
            let config = ClusterConfig {
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
            let mut c = Cluster::new(seed, mech, config);
            c.run();
            c.converge();
            let r = c.anomaly_report();
            lost += r.lost_updates;
            fc += r.false_concurrency;
            let m = c.metadata_report();
            bytes += m.mean_bytes_per_key / m.mean_siblings.max(1.0);
        }
        (bytes / 5.0, lost, fc)
    };
    for &k in thresholds {
        let (bytes, lost, fc) = run(VvClientMechanism::pruned(k));
        t.row(vec![
            k.to_string(),
            format!("{bytes:.1}"),
            lost.to_string(),
            fc.to_string(),
        ]);
    }
    let (bytes, lost, fc) = run(VvClientMechanism::unbounded());
    t.row(vec![
        "∞ (safe)".into(),
        format!("{bytes:.1}"),
        lost.to_string(),
        fc.to_string(),
    ]);
    // DVV reference row
    let (dvv_bytes, anomalies) = meta_cluster(DvvMechanism, 16, 3);
    t.row(vec![
        "dvv".into(),
        format!("{dvv_bytes:.1}"),
        anomalies.to_string(),
        "0".into(),
    ]);
    t
}

// ---------------------------------------------------------------------
// E7: request latency with size-proportional wire cost
// ---------------------------------------------------------------------

fn latency_cluster<M: Mechanism<StampedValue>>(
    mech: M,
    clients: usize,
    seed: u64,
) -> (f64, u64, f64, u64) {
    let config = ClusterConfig {
        servers: 3,
        clients,
        cycles_per_client: 8,
        client: ClientConfig {
            key_count: 1,
            value_size: 16,
            think_time: Duration::from_micros(500),
            ..ClientConfig::default()
        },
        network: NetworkConfig::uniform(LinkConfig {
            latency: LatencyModel::Constant(Duration::from_micros(200)),
            bandwidth: Some(1_000_000), // 1 MB/s: 1µs per byte — metadata counts
            ..LinkConfig::default()
        }),
        deadline: Duration::from_secs(2_000),
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(seed, mech, config);
    c.run();
    let lat = c.latency_report();
    (
        lat.get.mean(),
        lat.get.percentile(0.99),
        lat.put.mean(),
        lat.put.percentile(0.99),
    )
}

/// E7: GET/PUT latency (µs) per mechanism vs client count, on a
/// bandwidth-limited network where metadata size costs time.
#[must_use]
pub fn e7_latency(client_counts: &[usize]) -> Table {
    let mut t = Table::new(&[
        "clients",
        "mechanism",
        "get mean µs",
        "get p99 µs",
        "put mean µs",
        "put p99 µs",
    ]);
    for &clients in client_counts {
        type LatRow = (f64, u64, f64, u64);
        let rows: Vec<(&str, LatRow)> = vec![
            ("dvv", latency_cluster(DvvMechanism, clients, 5)),
            ("dvvset", latency_cluster(DvvSetMechanism, clients, 5)),
            (
                "vv-client",
                latency_cluster(VvClientMechanism::unbounded(), clients, 5),
            ),
        ];
        for (name, (gm, gp, pm, pp)) in rows {
            t.row(vec![
                clients.to_string(),
                name.into(),
                format!("{gm:.0}"),
                gp.to_string(),
                format!("{pm:.0}"),
                pp.to_string(),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E8: anomaly rates per mechanism
// ---------------------------------------------------------------------

/// E8: lost updates / false concurrency per mechanism over contended
/// random workloads (5 seeds × 8 clients × 15 cycles, 2 keys).
#[must_use]
pub fn e8_anomalies() -> Table {
    fn audit<M: Mechanism<StampedValue>>(mech: M) -> (u64, u64, u64, f64) {
        let mut lost = 0;
        let mut fc = 0;
        let mut writes = 0;
        let mut siblings = 0.0;
        for seed in 0..5 {
            let config = ClusterConfig {
                servers: 3,
                clients: 8,
                cycles_per_client: 15,
                client: ClientConfig {
                    key_count: 2,
                    think_time: Duration::from_micros(200),
                    ..ClientConfig::default()
                },
                ..ClusterConfig::default()
            };
            let mut c = Cluster::new(seed, mech.clone(), config);
            c.run();
            c.converge();
            let r = c.anomaly_report();
            lost += r.lost_updates;
            fc += r.false_concurrency;
            writes += r.acked_writes;
            siblings += c.metadata_report().mean_siblings;
        }
        (writes, lost, fc, siblings / 5.0)
    }
    let mut t = Table::new(&[
        "mechanism",
        "acked writes",
        "lost updates",
        "false concurrency",
        "mean siblings",
    ]);
    type AuditRow = (u64, u64, u64, f64);
    let rows: Vec<(&str, AuditRow)> = vec![
        (
            "causal-histories",
            audit(dvv::mechanisms::CausalHistoryMechanism),
        ),
        ("dvv", audit(DvvMechanism)),
        ("dvvset", audit(DvvSetMechanism)),
        ("vv-client", audit(VvClientMechanism::unbounded())),
        ("vv-client-pruned(2)", audit(VvClientMechanism::pruned(2))),
        ("vve (winfs)", audit(dvv::mechanisms::VveMechanism)),
        ("vv-server", audit(VvServerMechanism)),
        ("ordered-vv", audit(OrderedVvMechanism)),
        ("lamport-lww", audit(LamportMechanism)),
    ];
    for (name, (w, l, f, s)) in rows {
        t.row(vec![
            name.into(),
            w.to_string(),
            l.to_string(),
            f.to_string(),
            format!("{s:.1}"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E9: DVVSet ablation
// ---------------------------------------------------------------------

/// Builds a sibling set of `s` concurrent versions in both
/// representations.
#[must_use]
pub fn sibling_fixtures(
    s: usize,
) -> (
    Vec<Tagged<ReplicaId, StampedValue>>,
    DvvSet<ReplicaId, StampedValue>,
) {
    let mut tagged = Vec::new();
    let mut set = DvvSet::new();
    let empty = VersionVector::new();
    for i in 0..s {
        let v = StampedValue::new(kvstore::WriteId::new(ClientId(i as u64), 1), vec![0u8; 16]);
        server::update(&mut tagged, &empty, ReplicaId(0), v.clone());
        set.update(&empty, ReplicaId(0), v);
    }
    (tagged, set)
}

/// E9: metadata bytes and op cost — list-of-DVVs vs DVVSet, vs sibling
/// count.
#[must_use]
pub fn e9_dvvset(sibling_counts: &[usize], iters: u32) -> Table {
    let mech_list = DvvMechanism;
    let mech_set = DvvSetMechanism;
    let mut t = Table::new(&[
        "siblings",
        "dvv-list bytes",
        "dvvset bytes",
        "dvv-list update ns",
        "dvvset update ns",
        "dvv-list sync ns",
        "dvvset sync ns",
    ]);
    for &s in sibling_counts {
        let (tagged, set) = sibling_fixtures(s);
        let list_bytes = Mechanism::<StampedValue>::metadata_size(&mech_list, &tagged);
        let set_bytes = Mechanism::<StampedValue>::metadata_size(&mech_set, &set);
        let ctx = server::context(&tagged);
        let v = StampedValue::new(kvstore::WriteId::new(ClientId(999), 1), vec![0u8; 16]);
        let list_update = time_ns(iters, || {
            let mut st = tagged.clone();
            server::update(&mut st, &ctx, ReplicaId(1), v.clone());
            black_box(&st);
        });
        let set_update = time_ns(iters, || {
            let mut st = set.clone();
            st.update(&ctx, ReplicaId(1), v.clone());
            black_box(&st);
        });
        let (tagged2, set2) = sibling_fixtures(s.max(1) - 1);
        let list_sync = time_ns(iters, || {
            black_box(server::sync(&tagged, &tagged2));
        });
        let set_sync = time_ns(iters, || {
            black_box(set.sync(&set2));
        });
        t.row(vec![
            s.to_string(),
            list_bytes.to_string(),
            set_bytes.to_string(),
            format!("{list_update:.0}"),
            format!("{set_update:.0}"),
            format!("{list_sync:.0}"),
            format!("{set_sync:.0}"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// A1: ablation of the store's repair machinery
// ---------------------------------------------------------------------

/// Runs a partitioned workload and measures how long after the sessions
/// finish the replicas take to converge *through the protocol* (no
/// harness merging). Returns `None` if they fail to converge within 4 s.
fn convergence_time_ms(aae_ms: u64, read_repair: bool, seed: u64) -> Option<u64> {
    use dvv::ReplicaId;
    use simnet::NodeId;

    let config = ClusterConfig {
        servers: 3,
        clients: 4,
        cycles_per_client: 8,
        store: kvstore::StoreConfig {
            anti_entropy_interval: Duration::from_millis(aae_ms),
            read_repair,
            ..kvstore::StoreConfig::default()
        },
        client: ClientConfig {
            key_count: 2,
            think_time: Duration::from_micros(300),
            ..ClientConfig::default()
        },
        deadline: Duration::from_secs(2_000),
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(seed, DvvMechanism, config);
    c.run_for(Duration::from_millis(15));
    let others: Vec<NodeId> = [0u32, 1, 3, 4, 5, 6].into_iter().map(NodeId).collect();
    c.sim_mut().network_mut().partition_two(others, [NodeId(2)]);
    c.set_replica_status(ReplicaId(2), false);
    c.run_for(Duration::from_millis(60));
    c.sim_mut().network_mut().heal();
    c.set_replica_status(ReplicaId(2), true);
    c.run();
    // probe protocol-level convergence in 10 ms steps of virtual time
    for step in 0..=400u64 {
        let keys = c.oracle().keys();
        let converged = keys.iter().all(|k| {
            let s0 = c.surviving_at(0, k);
            (1..3).all(|i| c.surviving_at(i, k) == s0)
        });
        if converged {
            return Some(step * 10);
        }
        c.run_for(Duration::from_millis(10));
    }
    None
}

/// A1: virtual time to protocol-level convergence after a healed
/// partition, as a function of the anti-entropy interval, with and
/// without read repair — the design-choice ablation from DESIGN.md.
#[must_use]
pub fn a1_repair_ablation(aae_intervals_ms: &[u64]) -> Table {
    let mut t = Table::new(&["aae interval ms", "converge ms after heal"]);
    for &ms in aae_intervals_ms {
        let on =
            convergence_time_ms(ms, true, 41).map_or_else(|| ">4000".into(), |v| v.to_string());
        t.row(vec![ms.to_string(), on]);
    }
    t
}

/// A2: with anti-entropy disabled, read repair is the only background
/// repair path; its effect shows up *during* the session as repaired
/// divergence. Reported: read repairs pushed and divergent keys left at
/// session end, repair on vs off.
#[must_use]
pub fn a2_read_repair_ablation(seeds: &[u64]) -> Table {
    use dvv::ReplicaId;
    use simnet::NodeId;

    fn run(seed: u64, read_repair: bool) -> (u64, usize) {
        let config = ClusterConfig {
            servers: 3,
            clients: 4,
            cycles_per_client: 12,
            store: kvstore::StoreConfig {
                anti_entropy_interval: Duration::ZERO,
                read_repair,
                ..kvstore::StoreConfig::default()
            },
            client: ClientConfig {
                key_count: 2,
                think_time: Duration::from_micros(300),
                ..ClientConfig::default()
            },
            deadline: Duration::from_secs(2_000),
            ..ClusterConfig::default()
        };
        let mut c = Cluster::new(seed, DvvMechanism, config);
        c.run_for(Duration::from_millis(10));
        let others: Vec<NodeId> = [0u32, 1, 3, 4, 5, 6].into_iter().map(NodeId).collect();
        c.sim_mut().network_mut().partition_two(others, [NodeId(2)]);
        c.set_replica_status(ReplicaId(2), false);
        c.run_for(Duration::from_millis(40));
        c.sim_mut().network_mut().heal();
        c.set_replica_status(ReplicaId(2), true);
        c.run();
        let repairs: u64 = (0..3).map(|i| c.server(i).stats().read_repairs).sum();
        let divergent = c
            .oracle()
            .keys()
            .iter()
            .filter(|k| {
                let s0 = c.surviving_at(0, k);
                (1..3).any(|i| c.surviving_at(i, k) != s0)
            })
            .count();
        (repairs, divergent)
    }

    let mut t = Table::new(&[
        "seed",
        "repairs (on)",
        "divergent keys (on)",
        "divergent keys (off)",
    ]);
    for &seed in seeds {
        let (repairs_on, div_on) = run(seed, true);
        let (_, div_off) = run(seed, false);
        t.row(vec![
            seed.to_string(),
            repairs_on.to_string(),
            div_on.to_string(),
            div_off.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shapes() {
        let t = e1_e3_figure1();
        assert_eq!(t.len(), 5);
        let s = t.render();
        assert!(s.contains("v3"), "{s}");
    }

    #[test]
    fn e4_rows_match_input() {
        let t = e4_compare(&[2, 8], 1_000);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn clock_pair_builders_are_related() {
        let (a, b) = dvv_pair(8);
        assert!(a.precedes(&b));
        let (va, vb) = vv_pair(8);
        assert!(vb.dominates(&va) && !va.dominates(&vb));
        let (oa, ob) = ordered_pair(8);
        assert_eq!(oa.fast_dominated_by(&ob), Some(true));
        let (ha, hb) = history_pair(8);
        assert!(ha.is_subset(&hb));
    }

    #[test]
    fn sibling_fixtures_agree() {
        let (tagged, set) = sibling_fixtures(4);
        assert_eq!(tagged.len(), 4);
        assert_eq!(set.sibling_count(), 4);
        assert_eq!(server::context(&tagged), set.context());
    }

    #[test]
    fn e9_table_has_rows() {
        let t = e9_dvvset(&[1, 4], 50);
        assert_eq!(t.len(), 2);
    }
}
