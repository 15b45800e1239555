//! Storage-engine lane: what the durable log costs, in isolation from
//! the protocol. Three shapes at 1k and 10k keys:
//!
//! * `append` — distinct-key inserts through the group-sync default
//!   config (the steady-state write path);
//! * `replay` — `LogEngine::open` over the resulting log (the recovery
//!   path a crashed node pays before it can rejoin);
//! * `compact` — overwrite churn against thresholds low enough that
//!   the size-triggered compactor runs repeatedly inside the measured
//!   loop (the reclaim path);
//! * `guard` — the dot-reuse epoch guard's reservation traffic laid
//!   over the append path: group-sync vs write-through durability,
//!   each with and without the guard's headroom-amortised
//!   reservation fsyncs. The guarded group-sync row is the one the
//!   acceptance bar watches — reservation overhead on the
//!   steady-state write path must stay within ~10% of unguarded.
//!
//! Timing numbers, machine-dependent: `scripts/bench_compare.sh`
//! treats deviations as warnings. Committed baseline:
//! `bench-baselines/BENCH_storage.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dvv::{DvvSet, ReplicaId};
use kvstore::node::DOT_HEADROOM;
use std::hint::black_box;
use storage::{LogConfig, LogEngine, StorageEngine};

type State = DvvSet<ReplicaId, Vec<u8>>;

const SIZES: [usize; 2] = [1_000, 10_000];

fn key(i: usize) -> Vec<u8> {
    format!("bench-key-{i:06}").into_bytes()
}

/// Group-sync defaults with compaction disabled: appends measure the
/// write path alone.
fn append_config() -> LogConfig {
    LogConfig {
        compact_min_bytes: u64::MAX,
        ..LogConfig::default()
    }
}

/// Thresholds low enough that overwrite churn compacts repeatedly.
fn churn_config() -> LogConfig {
    LogConfig {
        compact_min_bytes: 16 * 1024,
        compact_garbage_ratio: 0.5,
        ..LogConfig::default()
    }
}

fn put(engine: &mut LogEngine<State>, i: usize, payload: usize) {
    engine.apply(&key(i), &mut State::default, &mut |set| {
        let ctx = set.context();
        set.update(&ctx, ReplicaId((i % 3) as u32), vec![0xAB; payload]);
    });
}

fn fill(engine: &mut LogEngine<State>, n: usize) {
    for i in 0..n {
        put(engine, i, 32);
    }
    engine.sync();
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_log/append");
    group.sample_size(10);
    for n in SIZES {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let dir = storage::scratch_dir("bench-append");
            let mut run = 0u64;
            // The vendored criterion has no iter_batched: opening a
            // fresh empty log inside the loop is noise next to the n
            // appends being measured.
            b.iter(|| {
                run += 1;
                let path = dir.join(format!("log-{run}"));
                let mut engine = LogEngine::<State>::open(path, append_config()).expect("open log");
                fill(&mut engine, n);
                black_box(engine.stats().appends)
            });
            std::fs::remove_dir_all(&dir).ok();
        });
    }
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_log/replay");
    group.sample_size(10);
    for n in SIZES {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let dir = storage::scratch_dir("bench-replay");
            let path = dir.join("log");
            let mut engine = LogEngine::<State>::open(&path, append_config()).expect("open log");
            fill(&mut engine, n);
            drop(engine);
            b.iter(|| {
                let back = LogEngine::<State>::open(&path, append_config()).expect("reopen log");
                assert_eq!(back.len(), n, "replay must recover every key");
                black_box(back.stats().replayed_records)
            });
            std::fs::remove_dir_all(&dir).ok();
        });
    }
    group.finish();
}

/// Write-through durability with compaction disabled: every record
/// fsyncs, so reservation syncs can only add meta-record volume.
fn write_through_config() -> LogConfig {
    LogConfig {
        compact_min_bytes: u64::MAX,
        ..LogConfig::write_through()
    }
}

/// The append path with the node's minting discipline laid over it:
/// one dot per write, and before a mint may pass the durably reserved
/// ceiling a fresh reservation with [`DOT_HEADROOM`]-sized slack is
/// fsynced. Four rows: each durability
/// mode, guarded and bare — the guarded/bare ratio *is* the guard's
/// write-path overhead.
fn bench_guard(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_log/guard");
    group.sample_size(10);
    type Variant = (&'static str, fn() -> LogConfig, bool);
    let variants: [Variant; 4] = [
        ("group_sync", append_config, false),
        ("group_sync_guarded", append_config, true),
        ("write_through", write_through_config, false),
        ("write_through_guarded", write_through_config, true),
    ];
    for (name, config, guarded) in variants {
        for n in SIZES {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
                let dir = storage::scratch_dir("bench-guard");
                let mut run = 0u64;
                b.iter(|| {
                    run += 1;
                    let path = dir.join(format!("log-{run}"));
                    let mut engine = LogEngine::<State>::open(path, config()).expect("open log");
                    let (mut counter, mut ceiling) = (0u64, 0u64);
                    for i in 0..n {
                        put(&mut engine, i, 32);
                        if guarded {
                            counter += 1;
                            if counter > ceiling {
                                ceiling = counter + DOT_HEADROOM;
                                engine.store_reservation(1, ceiling);
                            }
                        }
                    }
                    engine.sync();
                    if guarded {
                        assert_eq!(engine.load_reservation(), Some((1, ceiling)));
                    }
                    black_box(engine.stats().appends)
                });
                std::fs::remove_dir_all(&dir).ok();
            });
        }
    }
    group.finish();
}

fn bench_compact(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_log/compact");
    group.sample_size(10);
    for n in SIZES {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let dir = storage::scratch_dir("bench-compact");
            let mut run = 0u64;
            b.iter(|| {
                run += 1;
                let path = dir.join(format!("log-{run}"));
                let mut engine = LogEngine::<State>::open(path, churn_config()).expect("open log");
                // n overwrites over a 64-key working set: almost every
                // record is garbage, so the low thresholds force
                // repeated compactions inside the loop.
                for i in 0..n {
                    put(&mut engine, i % 64, 64);
                }
                engine.sync();
                let stats = engine.stats();
                assert!(stats.compactions > 0, "churn must trigger compaction");
                black_box(stats.compactions)
            });
            std::fs::remove_dir_all(&dir).ok();
        });
    }
    group.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(700))
        .sample_size(10)
}

criterion_group!(name = benches; config = quick(); targets = bench_append, bench_replay, bench_guard, bench_compact);
criterion_main!(benches);
