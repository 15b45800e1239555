//! Stand-alone probes: public functions of single layers timed in
//! isolation, reported inside the traced run of the workload whose
//! end-to-end numbers they explain. Inputs are built from that
//! workload's value size and measured sibling count. Samples are the
//! benchmark's own, so medians and percentiles are exact.

use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use dvv::mechanisms::{DvvMechanism, Mechanism, WriteOrigin};
use dvv::{ClientId, ReplicaId, VersionVector};
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::data::DataStore;
use kvstore::messages::Msg;
use kvstore::value::{StampedValue, WriteId};
use ring::RingView;
use runtime::Progress;
use simnet::SimRng;
use storage::{LogConfig, LogEngine, StorageEngine};
use transport::{frame, Fabric};
use workloads::{KeySpace, Popularity};

use crate::metrics::{percentile, Stat};
use crate::report::Stats;
use crate::shapes::{Shape, SERVERS};
use crate::sys;

type State = <DvvMechanism as Mechanism<StampedValue>>::State;
type DvvMsg = Msg<DvvMechanism>;

/// A per-key state with `siblings` concurrent values of the workload's
/// size, each minted at a different server for a different client.
fn state_with(shape: &Shape, siblings: usize) -> State {
    let mech = DvvMechanism;
    let mut state = State::default();
    for i in 0..siblings.max(1) as u64 {
        let id = WriteId::new(ClientId(i), 1_000 + i);
        mech.write(
            &mut state,
            WriteOrigin::new(ReplicaId((i % SERVERS as u64) as u32), ClientId(i)),
            &VersionVector::new(),
            StampedValue::new(id, vec![0xA5; shape.value_size]),
        );
    }
    state
}

/// The messages of one GET→PUT cycle coordinated by an owner, in the
/// proportions the protocol sends them (N=3: two peers per quorum op).
fn cycle_corpus(shape: &Shape, siblings: usize) -> Vec<DvvMsg> {
    let mech = DvvMechanism;
    let state = state_with(shape, siblings);
    let (values, ctx) = mech.read(&state);
    let key = KeySpace::new("key", shape.key_count, Popularity::Uniform).key_at(0);
    let (req, digest) = (7u64 << 32 | 11, 0x5eed_u64);
    let value = values[0].clone();
    let mut corpus = vec![
        Msg::ClientGet {
            req,
            key: key.clone(),
            digest,
        },
        Msg::ClientGetResp {
            req,
            ok: true,
            values: values.clone(),
            ctx: ctx.clone(),
        },
        Msg::ClientPut {
            req,
            key: key.clone(),
            value,
            ctx: ctx.clone(),
            digest,
        },
        Msg::ClientPutResp {
            req,
            ok: true,
            values,
            ctx,
        },
    ];
    for _ in 0..2 {
        corpus.push(Msg::RepGet {
            req,
            key: key.clone(),
        });
        corpus.push(Msg::RepGetResp {
            req,
            key: key.clone(),
            state: state.clone(),
        });
        corpus.push(Msg::RepPut {
            req,
            key: key.clone(),
            state: state.clone(),
            hint: None,
        });
        corpus.push(Msg::RepPutAck { req });
    }
    corpus
}

/// Times `samples` batches of `f` and returns ns per unit of work.
fn sample_ns(samples: usize, units_per_batch: usize, mut f: impl FnMut()) -> Vec<f64> {
    f(); // warm caches and allocator
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / units_per_batch as f64
        })
        .collect()
}

/// `kvstore.messages.*`: the message codec over the cycle corpus.
pub fn messages(shape: &Shape, siblings: usize) -> Stats {
    let mech = DvvMechanism;
    let corpus = cycle_corpus(shape, siblings);
    let bodies: Vec<Vec<u8>> = corpus.iter().map(|m| m.encode_transport(&mech)).collect();
    const PASSES: usize = 32;
    let units = PASSES * corpus.len();
    let encode = sample_ns(200, units, || {
        for _ in 0..PASSES {
            for m in &corpus {
                black_box(black_box(m).encode_transport(&mech));
            }
        }
    });
    let decode = sample_ns(200, units, || {
        for _ in 0..PASSES {
            for b in &bodies {
                black_box(DvvMsg::decode_transport(&mech, black_box(b)).expect("corpus decodes"));
            }
        }
    });
    let size = sample_ns(200, units, || {
        for _ in 0..PASSES {
            for m in &corpus {
                black_box(black_box(m).wire_size(&mech));
            }
        }
    });
    Stats::from([
        ("kvstore.messages.encode_ns", Stat::median(&encode)),
        ("kvstore.messages.decode_ns", Stat::median(&decode)),
        ("kvstore.messages.wire_size_ns", Stat::median(&size)),
    ])
}

/// `transport.frame.*` and `transport.fabric.*`: framing into memory,
/// then a two-node fabric over real loopback sockets — ping-pong for
/// one-way latency, a one-directional burst for frame throughput.
pub fn transport(shape: &Shape, siblings: usize) -> Stats {
    let mech = DvvMechanism;
    let corpus = cycle_corpus(shape, siblings);
    let bodies: Vec<Vec<u8>> = corpus.iter().map(|m| m.encode_transport(&mech)).collect();
    const PASSES: usize = 32;
    let units = PASSES * bodies.len();

    let mut sink: Vec<u8> = Vec::new();
    let write = sample_ns(200, units, || {
        sink.clear();
        for _ in 0..PASSES {
            for b in &bodies {
                frame::write_frame(&mut sink, black_box(b)).expect("write to memory");
            }
        }
    });
    let read = sample_ns(200, units, || {
        let mut cur = Cursor::new(&sink);
        while let Some(body) =
            frame::read_frame(&mut cur, frame::DEFAULT_MAX_FRAME).expect("read own frames")
        {
            black_box(body);
        }
    });
    let mut out = Stats::from([
        ("transport.frame.write_ns", Stat::median(&write)),
        ("transport.frame.read_ns", Stat::median(&read)),
    ]);

    // The heaviest message of the cycle: a replicated state.
    let body = bodies
        .iter()
        .max_by_key(|b| b.len())
        .expect("corpus is not empty")
        .clone();
    if let Some(f) = fabric_probe(body) {
        out.insert("transport.fabric.oneway_us", Stat::median(&f.oneway_us));
        out.insert(
            "transport.fabric.oneway_p99_us",
            percentile(&f.oneway_us, 0.99).and_then(Stat::once),
        );
        out.insert(
            "transport.fabric.oneway_cpu_us",
            Stat::once(f.oneway_cpu_us),
        );
        out.insert(
            "transport.fabric.stream_frames_per_s",
            Stat::median(&f.stream_frames_per_s),
        );
        out.insert(
            "transport.fabric.stream_cpu_us_per_frame",
            Stat::once(f.stream_cpu_us_per_frame),
        );
    }
    out
}

const PING_PONGS: usize = 4_000;
const STREAM_FRAMES: usize = 10_000;
const STREAM_ROUNDS: usize = 10;

/// What the two-node fabric measured. The two CPU readings are process
/// CPU per message: one wake-up chain per message in the ping-pong,
/// fully batched writes and reads in the burst.
struct FabricProbe {
    oneway_us: Vec<f64>,
    oneway_cpu_us: f64,
    stream_frames_per_s: Vec<f64>,
    stream_cpu_us_per_frame: f64,
}

/// `None` if the fabric lost a frame (the probe's queues are sized never
/// to).
fn fabric_probe(body: Vec<u8>) -> Option<FabricProbe> {
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx0, rx0) = mpsc::sync_channel(STREAM_FRAMES);
    let (tx1, rx1) = mpsc::sync_channel(STREAM_FRAMES);
    let fabric = Fabric::start(
        DvvMechanism,
        2,
        vec![tx0, tx1],
        Arc::new(Progress::new(2)),
        Arc::clone(&shutdown),
        SimRng::new(1),
        STREAM_FRAMES,
        frame::DEFAULT_MAX_FRAME,
        0x0e2e,
    )
    .expect("bind loopback listeners");

    let wait = |rx: &Receiver<_>| rx.recv_timeout(StdDuration::from_secs(5)).ok();
    let measure = || -> Option<FabricProbe> {
        let mut oneway_us = Vec::with_capacity(PING_PONGS);
        let mut cpu0 = 0.0;
        for i in 0..PING_PONGS + 50 {
            if i == 50 {
                // the first exchanges dialed the two links
                cpu0 = sys::process_cpu_s();
            }
            let t0 = Instant::now();
            fabric.send_bytes(0, 1, body.clone());
            wait(&rx1)?;
            fabric.send_bytes(1, 0, body.clone());
            wait(&rx0)?;
            if i >= 50 {
                oneway_us.push(t0.elapsed().as_secs_f64() * 1e6 / 2.0);
            }
        }
        let oneway_cpu_us = (sys::process_cpu_s() - cpu0) * 1e6 / (2 * PING_PONGS) as f64;
        let mut stream_frames_per_s = Vec::with_capacity(STREAM_ROUNDS);
        let cpu0 = sys::process_cpu_s();
        for _ in 0..STREAM_ROUNDS {
            let t0 = Instant::now();
            for _ in 0..STREAM_FRAMES {
                fabric.send_bytes(0, 1, body.clone());
            }
            for _ in 0..STREAM_FRAMES {
                wait(&rx1)?;
            }
            stream_frames_per_s.push(STREAM_FRAMES as f64 / t0.elapsed().as_secs_f64());
        }
        let stream_cpu_us_per_frame =
            (sys::process_cpu_s() - cpu0) * 1e6 / (STREAM_ROUNDS * STREAM_FRAMES) as f64;
        Some(FabricProbe {
            oneway_us,
            oneway_cpu_us,
            stream_frames_per_s,
            stream_cpu_us_per_frame,
        })
    };
    let result = measure();
    shutdown.store(true, Ordering::Relaxed);
    fabric.stop();
    result
}

/// `storage.log.*`: the log engine on the benchmark's own scratch
/// directory — buffered append, a group sync of the default 64 records,
/// replay at open, and a sync that triggers compaction.
pub fn storage_log(shape: &Shape, siblings: usize, scratch: &Path) -> Stats {
    const KEYS: usize = 2_048;
    const GROUP: usize = 64;
    let state = state_with(shape, siblings);
    let keys: Vec<Vec<u8>> = (0..KEYS).map(|i| format!("key:{i}").into_bytes()).collect();
    let dir = scratch.join(format!("probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create probe directory");
    let put = |log: &mut LogEngine<State>, key: &[u8]| {
        log.apply(key, &mut State::default, &mut |s| *s = state.clone());
    };
    let manual = LogConfig {
        sync_every_records: usize::MAX,
        sync_every_bytes: usize::MAX,
        compact_min_bytes: u64::MAX,
        ..LogConfig::default()
    };

    let path = dir.join("append.log");
    let mut log = LogEngine::<State>::open(&path, manual).expect("open probe log");
    let (mut append_ns, mut sync_us) = (Vec::new(), Vec::new());
    for group in keys.chunks(GROUP) {
        let t0 = Instant::now();
        for key in group {
            put(&mut log, key);
        }
        append_ns.push(t0.elapsed().as_nanos() as f64 / group.len() as f64);
        let t0 = Instant::now();
        log.sync();
        sync_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(log);
    let replay_ns: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let log = LogEngine::<State>::open(&path, manual).expect("reopen probe log");
            let ns = t0.elapsed().as_nanos() as f64;
            ns / log.stats().replayed_records.max(1) as f64
        })
        .collect();

    // Two overwrites of every key make two thirds of the file garbage,
    // so the next sync compacts (threshold: one half).
    let compacting = LogConfig {
        compact_min_bytes: 0,
        ..manual
    };
    let mut log =
        LogEngine::<State>::open(dir.join("compact.log"), compacting).expect("open probe log");
    for key in &keys {
        put(&mut log, key);
    }
    log.sync();
    let mut compact_us = Vec::new();
    for _ in 0..5 {
        for _ in 0..2 {
            for key in &keys {
                put(&mut log, key);
            }
        }
        let before = log.stats().compactions;
        let t0 = Instant::now();
        log.sync();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if log.stats().compactions == before + 1 {
            compact_us.push(us);
        }
    }
    drop(log);
    std::fs::remove_dir_all(&dir).expect("remove probe directory");

    Stats::from([
        ("storage.log.append_ns", Stat::median(&append_ns)),
        ("storage.log.sync_us", Stat::median(&sync_us)),
        ("storage.log.replay_ns_per_record", Stat::median(&replay_ns)),
        ("storage.log.compact_us", Stat::median(&compact_us)),
    ])
}

/// `ring.*`, `kvstore.data.*` and `kvstore.sim.cpu_us_per_op`: the
/// in-memory layers every driver shares, and the workload's op mix on
/// the single-threaded simulator — protocol CPU with no threads, no
/// channels and no sockets.
pub fn protocol(shape: &Shape, siblings: usize, seed: u64) -> Stats {
    let view = RingView::from_members((0..SERVERS as u32).map(ReplicaId));
    let store = shape.store();
    let to_ring_us: Vec<f64> = sample_ns(50, 1, || {
        black_box(black_box(&view).to_ring(store.vnodes));
    })
    .iter()
    .map(|ns| ns / 1000.0)
    .collect();
    let ring = view.to_ring(store.vnodes);
    let space = KeySpace::new("key", shape.key_count, Popularity::Uniform);
    let keys: Vec<Vec<u8>> = (0..shape.key_count.min(1_024))
        .map(|i| space.key_at(i))
        .collect();
    let prefs = sample_ns(100, keys.len(), || {
        for k in &keys {
            black_box(ring.preference_list(black_box(k), store.n));
        }
    });

    // One AAE interval's worth of dirty keys at a few thousand writes/s.
    let dirty = &keys[..keys.len().min(512)];
    let state = state_with(shape, siblings);
    let mut data = DataStore::<State>::new();
    let (mut mutate_ns, mut flush_us) = (Vec::new(), Vec::new());
    for _ in 0..50 {
        let t0 = Instant::now();
        for k in dirty {
            black_box(data.mutate(k, |s| *s = state.clone()));
        }
        mutate_ns.push(t0.elapsed().as_nanos() as f64 / dirty.len() as f64);
        let t0 = Instant::now();
        data.flush();
        flush_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    let sim_us: Vec<f64> = (0..3u64)
        .map(|i| {
            let cycles = (10_000 / shape.clients) as u32;
            let mut cluster = Cluster::new(
                seed + i,
                DvvMechanism,
                ClusterConfig {
                    servers: SERVERS,
                    clients: shape.clients,
                    cycles_per_client: cycles,
                    store,
                    client: shape.client(),
                    ..ClusterConfig::default()
                },
            );
            let cpu0 = sys::thread_cpu_ns();
            let done = cluster.run();
            let cpu_us = (sys::thread_cpu_ns() - cpu0) as f64 / 1000.0;
            let lat = cluster.latency_report();
            assert!(done, "simulated run hit its deadline");
            cpu_us / (lat.get.count() + lat.put.count()).max(1) as f64
        })
        .collect();

    Stats::from([
        ("ring.to_ring_us", Stat::median(&to_ring_us)),
        ("ring.preference_list_ns", Stat::median(&prefs)),
        ("kvstore.data.mutate_ns", Stat::median(&mutate_ns)),
        ("kvstore.data.flush_us", Stat::median(&flush_us)),
        ("kvstore.sim.cpu_us_per_op", Stat::median(&sim_us)),
    ])
}
