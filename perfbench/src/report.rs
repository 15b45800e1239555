//! Turns a run's reps into named metrics, and the metrics into the one
//! output schema: a JSON document per run (one line), a human table,
//! and the driver's result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use kvstore::messages::MsgClass;

use crate::json::escape;
use crate::metrics::{Better, Bound, Stat, END_TO_END, FAILED_OPS_PCT, PER_LAYER};
use crate::rep::Rep;
use crate::shapes::{self, Shape};
use crate::trace::Call;

/// Named stats; a name mapped to `None` (or absent) reads "n/a".
pub type Stats = BTreeMap<&'static str, Option<Stat>>;

fn col(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// Fewest quiet reps a run's timings may rest on.
pub const MIN_QUIET_REPS: usize = 3;

/// The reps a run's gated timings are taken from: those the host left
/// alone ([`Rep::quiet`]), or all of them when the run ended (at its
/// wall cap) with too few of those.
fn timed(reps: &[Rep]) -> Vec<&Rep> {
    let quiet: Vec<&Rep> = reps.iter().filter(|r| r.quiet()).collect();
    if quiet.len() >= MIN_QUIET_REPS {
        quiet
    } else {
        reps.iter().collect()
    }
}

fn ops(reps: &[Rep]) -> Vec<f64> {
    col(reps, |r| r.ops_ok as f64)
}

/// The end-to-end metrics of the measured (untraced) reps.
///
/// `first` is the process's first rep (the warm-up, unless `--quick`).
/// `peak_rss_mb` is the high-water mark when its timed window closed:
/// every later reading would include what the audits of earlier reps
/// allocated, which is the benchmark's memory, not the store's.
pub fn end_to_end(reps: &[Rep], first: &Rep, all_setups: &[f64]) -> Stats {
    let ops = ops(reps);
    // The two gated timings: the better decile of the quiet reps, with
    // every rep's value kept as `samples` (rep order, beside
    // `host.steal_pct`'s) so the gate can be re-applied afterwards.
    let timed = timed(reps);
    let gated = |f: &dyn Fn(&Rep) -> f64, better: Better| {
        let values: Vec<f64> = timed.iter().map(|r| f(r)).collect();
        let mut stat = Stat::better_decile(&values, better)?;
        stat.samples = col(reps, f);
        Some(stat)
    };
    let attempted: f64 = reps.iter().map(|r| r.attempted_ops() as f64).sum();
    let failed: f64 = reps.iter().map(|r| r.failed_ops() as f64).sum();
    Stats::from([
        ("ops_per_s", gated(&Rep::ops_per_s, Better::Higher)),
        (
            "cpu_us_per_op",
            gated(&|r| r.cpu_s * 1e6 / r.ops_ok.max(1) as f64, Better::Lower),
        ),
        (
            "wire_bytes_per_op",
            Stat::pooled(&col(reps, |r| r.wire.total_bytes() as f64), &ops),
        ),
        ("peak_rss_mb", Stat::once(first.peak_rss_mb)),
        ("setup_s", Stat::median(all_setups)),
        (
            FAILED_OPS_PCT,
            Stat::once(100.0 * failed / attempted.max(1.0)),
        ),
    ])
}

/// Per-layer metrics read from the fleets' public stats. Metrics of a
/// layer the workload's driver bypasses stay absent (n/a).
pub fn public_layers(shape: &Shape, reps: &[Rep]) -> Stats {
    let ops = ops(reps);
    let per_op = |f: &dyn Fn(&Rep) -> f64| Stat::pooled(&col(reps, f), &ops);
    let total = |f: &dyn Fn(&Rep) -> f64| Stat::sum(&col(reps, f));
    let mut out = Stats::new();

    out.insert(
        "kvstore.msgs_per_op",
        per_op(&|r| MsgClass::ALL.iter().map(|c| r.wire.msgs(*c)).sum::<u64>() as f64),
    );
    for (class, name) in [
        (MsgClass::Client, "kvstore.client_bytes_per_op"),
        (MsgClass::Replication, "kvstore.replication_bytes_per_op"),
        (MsgClass::AntiEntropy, "kvstore.anti_entropy_bytes_per_op"),
        (MsgClass::Membership, "kvstore.membership_bytes_per_op"),
        (MsgClass::Transfer, "kvstore.transfer_bytes_per_op"),
        (MsgClass::Handoff, "kvstore.handoff_bytes_per_op"),
    ] {
        out.insert(name, per_op(&|r| r.wire.bytes(class) as f64));
    }
    out.insert(
        "kvstore.read_repairs_per_kop",
        per_op(&|r| 1000.0 * r.node.read_repairs as f64),
    );
    out.insert(
        "kvstore.quorum_timeouts",
        total(&|r| r.node.quorum_timeouts as f64),
    );
    out.insert("kvstore.aae_rounds", total(&|r| r.node.aae_rounds as f64));
    out.insert(
        "kvstore.dup_writes_ignored",
        total(&|r| r.node.dup_writes_ignored as f64),
    );
    out.insert(
        "kvstore.mean_siblings",
        Stat::median(&col(reps, |r| r.mean_siblings)),
    );
    out.insert(
        "kvstore.meta_bytes_per_key",
        Stat::median(&col(reps, |r| r.meta_bytes_per_key)),
    );
    out.insert("kvstore.client.retries", total(&|r| r.retries as f64));
    out.insert(
        "kvstore.client.failed_cycles",
        total(&|r| r.failed_cycles as f64),
    );
    out.insert(
        "kvstore.client.get_mean_us",
        Stat::median(&col(reps, |r| r.get.mean())),
    );
    out.insert(
        "kvstore.client.put_mean_us",
        Stat::median(&col(reps, |r| r.put.mean())),
    );
    // log₂ bucket ceilings: informational tails, one bucket flip is 2×.
    out.insert(
        "kvstore.client.get_p99_bucket_us",
        Stat::median(&col(reps, |r| r.get.percentile(0.99) as f64)),
    );
    out.insert(
        "kvstore.client.put_p99_bucket_us",
        Stat::median(&col(reps, |r| r.put.percentile(0.99) as f64)),
    );
    out.insert(
        "kvstore.client.get_max_us",
        Stat::max(&col(reps, |r| r.get.max() as f64)),
    );
    out.insert(
        "kvstore.client.put_max_us",
        Stat::max(&col(reps, |r| r.put.max() as f64)),
    );
    out.insert(
        "kvstore.client.observed_ids_per_put",
        Stat::pooled(
            &col(reps, |r| r.observed_ids as f64),
            &col(reps, |r| r.writes as f64),
        ),
    );

    if reps.iter().all(|r| r.events.is_some()) {
        out.insert(
            "runtime.events_per_op",
            per_op(&|r| r.events.unwrap_or(0) as f64),
        );
    }
    if reps.iter().all(|r| r.fabric.is_some()) {
        let fab = |f: fn(&transport::FabricStats) -> u64| {
            move |r: &Rep| r.fabric.as_ref().map_or(0, f) as f64
        };
        out.insert(
            "transport.frames_per_op",
            per_op(&fab(|f| f.written_frames)),
        );
        out.insert(
            "transport.written_bytes_per_op",
            per_op(&fab(|f| f.written_bytes)),
        );
        out.insert(
            "transport.dropped_frames",
            total(&fab(|f| f.dropped_frames)),
        );
        out.insert("transport.inbox_drops", total(&fab(|f| f.inbox_drops)));
        out.insert(
            "transport.io_lost_frames",
            total(&fab(|f| f.io_lost_frames)),
        );
        out.insert("transport.reconnects", total(&fab(|f| f.reconnects)));
    }
    if reps.iter().all(|r| r.log_bytes.is_some()) {
        let log = col(reps, |r| r.log_bytes.unwrap_or(0) as f64);
        let acked = col(reps, |r| r.acked_writes as f64);
        out.insert("storage.log_bytes_per_put", Stat::pooled(&log, &acked));
        let user: Vec<f64> = acked.iter().map(|a| a * shape.value_size as f64).collect();
        out.insert("storage.log_bytes_per_user_byte", Stat::pooled(&log, &user));
    }
    out
}

/// The share of the machine's CPU time the hypervisor withheld over
/// the timed parts of `reps` — the host, not a layer of the program.
pub fn host<'a>(reps: impl Iterator<Item = &'a Rep>) -> Stats {
    let (steal, all): (Vec<f64>, Vec<f64>) = reps
        .map(|r| (100.0 * r.steal_jiffies as f64, r.host_jiffies as f64))
        .unzip();
    Stats::from([("host.steal_pct", Stat::pooled(&steal, &all))])
}

const DVV_BUSY: [Call; 5] = [
    Call::Read,
    Call::Write,
    Call::Merge,
    Call::MergeCtx,
    Call::Size,
];
const STORAGE_BUSY: [Call; 3] = [Call::Apply, Call::Sync, Call::Reserve];

/// Per-layer metrics from the traced reps' call counters. The engine
/// seam exists only on the durable driver; elsewhere its counters are
/// honest zeros (no call was made), not n/a.
pub fn traced_layers(reps: &[Rep]) -> Stats {
    let ops = ops(reps);
    let counters = |r: &Rep| r.trace.unwrap_or_default();
    let mean_ns = |c: Call| Stat::median(&col(reps, |r| counters(r).get(c).mean_ns()));
    let calls_per_op = |c: Call, scale: f64| {
        Stat::pooled(
            &col(reps, |r| scale * counters(r).get(c).calls as f64),
            &ops,
        )
    };
    let busy_us_per_op = |calls: &'static [Call]| {
        Stat::pooled(
            &col(reps, |r| counters(r).total_ns(calls) as f64 / 1000.0),
            &ops,
        )
    };
    Stats::from([
        ("dvv.read_ns", mean_ns(Call::Read)),
        ("dvv.write_ns", mean_ns(Call::Write)),
        ("dvv.merge_ns", mean_ns(Call::Merge)),
        ("dvv.merge_ctx_ns", mean_ns(Call::MergeCtx)),
        ("dvv.size_ns", mean_ns(Call::Size)),
        ("dvv.read_calls_per_op", calls_per_op(Call::Read, 1.0)),
        ("dvv.merge_calls_per_op", calls_per_op(Call::Merge, 1.0)),
        ("dvv.encode_state_ns", mean_ns(Call::EncodeState)),
        ("dvv.decode_state_ns", mean_ns(Call::DecodeState)),
        ("dvv.encode_ctx_ns", mean_ns(Call::EncodeCtx)),
        ("dvv.decode_ctx_ns", mean_ns(Call::DecodeCtx)),
        ("dvv.busy_us_per_op", busy_us_per_op(&DVV_BUSY)),
        ("storage.apply_ns", mean_ns(Call::Apply)),
        ("storage.sync_ns", mean_ns(Call::Sync)),
        (
            "storage.apply_max_us",
            Stat::max(&col(reps, |r| {
                let c = counters(r);
                c.get(Call::Apply).max_ns.max(c.get(Call::Sync).max_ns) as f64 / 1000.0
            })),
        ),
        (
            "storage.apply_calls_per_op",
            Stat::pooled(
                &col(reps, |r| {
                    let c = counters(r);
                    (c.get(Call::Apply).calls + c.get(Call::Sync).calls) as f64
                }),
                &ops,
            ),
        ),
        (
            "storage.sync_calls_per_kop",
            calls_per_op(Call::Sync, 1000.0),
        ),
        (
            "storage.reserve_us",
            Stat::median(&col(reps, |r| {
                counters(r).get(Call::Reserve).mean_ns() / 1000.0
            })),
        ),
        (
            "storage.reserve_calls",
            Stat::sum(&col(reps, |r| counters(r).get(Call::Reserve).calls as f64)),
        ),
        ("storage.busy_us_per_op", busy_us_per_op(&STORAGE_BUSY)),
    ])
}

/// The per-message codec and framing cost the probes measured, in ns.
/// The fabric's own threads (syscalls, wake-ups) are *not* attributed:
/// their CPU per message depends on how well sends batch, which the
/// two `transport.fabric.*_cpu_us*` probes only bracket — so on the
/// socket driver that cost is the bulk of the unattributed remainder.
const CODEC_NS_PER_MSG: [&str; 4] = [
    "kvstore.messages.encode_ns",
    "transport.frame.write_ns",
    "transport.frame.read_ns",
    "kvstore.messages.decode_ns",
];

/// What tracing cost, and what the budget leaves unexplained: the
/// untraced twins' CPU per op minus the time the traced seams and the
/// codec probes account for. `plain[i]` and `traced[i]` ran back to
/// back on one seed, so the overhead is the median of the per-pair
/// shortfalls — a slow phase of the host hits both halves of a pair.
pub fn budget(plain: &[Rep], traced: &[Rep], layers: &Stats) -> Stats {
    let value = |name: &str| layers.get(name).and_then(|s| s.as_ref()).map(|s| s.value);
    let shortfalls_pct: Vec<f64> = plain
        .iter()
        .zip(traced)
        .map(|(p, t)| 100.0 * (1.0 - t.ops_per_s() / p.ops_per_s()))
        .collect();
    let cpu = crate::metrics::median(&col(plain, |r| r.cpu_s * 1e6 / r.ops_ok.max(1) as f64));
    // Zero off the socket driver: no message is encoded or framed.
    let codec_us = if value("transport.frames_per_op").is_some() {
        let ns_per_msg: f64 = CODEC_NS_PER_MSG.iter().filter_map(|n| value(n)).sum();
        ns_per_msg * value("kvstore.msgs_per_op").unwrap_or(0.0) / 1000.0
    } else {
        0.0
    };
    let unattributed = cpu.and_then(|cpu| {
        Stat::once(
            cpu - value("dvv.busy_us_per_op").unwrap_or(0.0)
                - value("storage.busy_us_per_op").unwrap_or(0.0)
                - codec_us,
        )
    });
    Stats::from([
        (
            "trace.ops_per_s",
            Stat::median(&col(traced, Rep::ops_per_s)),
        ),
        ("trace.overhead_pct", Stat::median(&shortfalls_pct)),
        ("trace.unattributed_us_per_op", unattributed),
    ])
}

/// How the run was made, recorded with its result.
pub struct RunInfo<'a> {
    pub shape: &'a Shape,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub nproc: usize,
    pub reps: usize,
    /// Measured reps the host left alone (the gated timings' reps).
    pub quiet_reps: usize,
    pub warmup_reps: usize,
    pub cycles_per_client: u32,
    pub attempted: u64,
    pub failed: u64,
    pub gate_failures: Vec<String>,
}

impl RunInfo<'_> {
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
    }
}

/// One metric of the output document.
struct Row {
    name: &'static str,
    kind: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<Bound>,
    stat: Option<Stat>,
}

fn rows(traced: bool, stats: &Stats) -> Vec<Row> {
    for name in stats.keys() {
        let known =
            END_TO_END.iter().any(|m| m.name == *name) || PER_LAYER.iter().any(|m| m.0 == *name);
        assert!(known, "metric {name} is not in the catalogue");
    }
    let stat = |name: &str| stats.get(name).cloned().flatten();
    let layer = |&(name, unit, better): &(&'static str, &'static str, Better)| Row {
        name,
        kind: "per_layer",
        unit,
        better,
        bound: None,
        stat: stat(name),
    };
    if traced {
        return PER_LAYER.iter().map(layer).collect();
    }
    // The untraced run also prints the per-layer metrics it can read
    // for free from the public stats.
    let e2e = END_TO_END.iter().map(|m| Row {
        name: m.name,
        kind: "end_to_end",
        unit: m.unit,
        better: m.better,
        bound: Some(m.bound),
        stat: stat(m.name),
    });
    let free = PER_LAYER
        .iter()
        .filter(|m| stats.contains_key(m.0))
        .map(layer);
    e2e.chain(free).collect()
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The run as one JSON document on one line.
pub fn document(info: &RunInfo<'_>, stats: &Stats) -> String {
    let s = info.shape;
    let (store, log) = (s.store(), storage::LogConfig::default());
    let mut o = String::new();
    let _ = write!(
        o,
        "{{\"schema\":\"dvv-e2e/1\",\"workload\":\"{}\",\"why\":\"{}\",\"traced\":{},\"quick\":{},\
         \"seed\":{},\"seconds\":{},\"nproc\":{},\"reps\":{},\"quiet_reps\":{},\"warmup_reps\":{},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"gate_failures\":[{}],",
        s.name,
        escape(s.why),
        info.traced,
        info.quick,
        info.seed,
        num(info.seconds),
        info.nproc,
        info.reps,
        info.quiet_reps,
        info.warmup_reps,
        info.correct(),
        info.attempted,
        info.failed,
        info.gate_failures
            .iter()
            .map(|g| format!("\"{}\"", escape(g)))
            .collect::<Vec<_>>()
            .join(","),
    );
    let _ = write!(
        o,
        "\"config\":{{\"driver\":\"{}\",\"mechanism\":\"dvv\",\"servers\":{},\"n\":{},\"r\":{},\"w\":{},\
         \"clients\":{},\"client_workers\":{},\"cycles_per_client\":{},\"think_us\":{},\
         \"key_count\":{},\"zipf_alpha\":{},\"value_size\":{},\"read_only_fraction\":{},\
         \"delete_fraction\":{},\"aae_interval_ms\":{},\"gossip_interval_ms\":{},\
         \"server_timeout_ms\":{},\"client_timeout_ms\":{},\"quiesce_ms\":0,\"stall_budget_s\":{},\
         \"quiet_steal_pct\":{},\
         \"log_sync_every_records\":{},\"log_sync_every_bytes\":{}}},",
        s.driver.name(),
        shapes::SERVERS,
        store.n,
        store.r,
        store.w,
        s.clients,
        shapes::CLIENT_WORKERS,
        info.cycles_per_client,
        s.think_us,
        s.key_count,
        num(s.zipf_alpha),
        s.value_size,
        num(s.read_only_fraction),
        num(s.delete_fraction),
        shapes::AAE_INTERVAL_MS,
        shapes::GOSSIP_INTERVAL_MS,
        shapes::SERVER_TIMEOUT_MS,
        shapes::CLIENT_TIMEOUT_MS,
        shapes::STALL_BUDGET_S,
        num(crate::rep::QUIET_STEAL_PCT),
        log.sync_every_records,
        log.sync_every_bytes,
    );
    o.push_str("\"metrics\":[");
    for (i, r) in rows(info.traced, stats).iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "{{\"name\":\"{}\",\"kind\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
            r.name,
            r.kind,
            r.unit,
            r.better.name()
        );
        match r.bound {
            Some(Bound::Relative(b)) => {
                let _ = write!(o, ",\"bound\":{},\"bound_kind\":\"relative\"", num(b));
            }
            Some(Bound::Absolute(b)) => {
                let _ = write!(o, ",\"bound\":{},\"bound_kind\":\"absolute\"", num(b));
            }
            None => {}
        }
        match &r.stat {
            Some(s) => {
                let _ = write!(
                    o,
                    ",\"agg\":\"{}\",\"value\":{},\"min\":{},\"max\":{},\"iqr\":{},\"n\":{}",
                    s.agg,
                    num(s.value),
                    num(s.min),
                    num(s.max),
                    num(s.iqr),
                    s.n
                );
                // Per-rep values of the gated metrics, and the steal that
                // decided which reps they rest on, for re-analysis.
                if r.kind == "end_to_end" || r.name == "host.steal_pct" {
                    let samples: Vec<String> = s.samples.iter().map(|v| num(*v)).collect();
                    let _ = write!(o, ",\"samples\":[{}]", samples.join(","));
                }
                o.push('}');
            }
            None => o.push_str(",\"agg\":\"n/a\",\"value\":null,\"n\":0}"),
        }
    }
    o.push_str("]}");
    o
}

/// The human table.
pub fn table(info: &RunInfo<'_>, stats: &Stats) -> String {
    let s = info.shape;
    let mut o = String::new();
    let _ = writeln!(
        o,
        "workload {} ({} driver){}{}  seed {}  nproc {}  reps {} ({} quiet) x {} cycles x {} clients",
        s.name,
        s.driver.name(),
        if info.traced { "  TRACED" } else { "" },
        if info.quick { "  QUICK" } else { "" },
        info.seed,
        info.nproc,
        info.reps,
        info.quiet_reps,
        info.cycles_per_client,
        s.clients,
    );
    let _ = writeln!(
        o,
        "  {:<40} {:>14} {:<6} {:>14} {:>14} {:>12} {:>3}  agg",
        "metric", "value", "unit", "min", "max", "iqr", "n"
    );
    for r in rows(info.traced, stats) {
        match &r.stat {
            Some(st) => {
                let _ = writeln!(
                    o,
                    "  {:<40} {:>14.3} {:<6} {:>14.3} {:>14.3} {:>12.3} {:>3}  {}",
                    r.name, st.value, r.unit, st.min, st.max, st.iqr, st.n, st.agg
                );
            }
            None => {
                let _ = writeln!(o, "  {:<40} {:>14} {:<6}", r.name, "n/a", r.unit);
            }
        }
    }
    let _ = writeln!(
        o,
        "  correctness gate: {}  (attempted {} ops, failed {})",
        if info.correct() { "clean" } else { "FAILED" },
        info.attempted,
        info.failed
    );
    for g in &info.gate_failures {
        let _ = writeln!(o, "    {g}");
    }
    o
}

/// The driver's result line: the `BENCHMARK.json` end-to-end metrics of
/// an untraced run, or every per-layer metric of a traced one (n/a
/// reads 0 there — the contract wants a number).
pub fn result_line(info: &RunInfo<'_>, stats: &Stats) -> String {
    let metrics: Vec<String> = rows(info.traced, stats)
        .iter()
        .filter(|r| info.traced || (r.kind == "end_to_end" && r.name != FAILED_OPS_PCT))
        .map(|r| {
            let v = r.stat.as_ref().map_or(0.0, |s| s.value);
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                r.name,
                if v.is_finite() { v } else { 0.0 },
                r.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        info.correct(),
        info.attempted,
        info.failed,
        metrics.join(",")
    )
}
