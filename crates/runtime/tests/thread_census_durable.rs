//! Thread census of a durable fleet: a `RuntimeFleet::new_durable` run's
//! threads are its workers plus at most one log writer per server — each
//! `storage::LogEngine` spawns its writer at its first group hand-off and
//! joins it when the engine drops — and dropping the fleet leaves no
//! writer running. Counted from the kernel's own list of this process's
//! threads, like `thread_census.rs`. One test per process: any other
//! test in this binary would put its own threads in the count.

#![cfg(target_os = "linux")]

use std::time::{Duration as StdDuration, Instant};

use dvv::mechanisms::DvvMechanism;
use kvstore::config::ClientConfig;
use runtime::{EngineFactory, RuntimeConfig, RuntimeFleet};
use simnet::Duration;
use storage::LogConfig;

const SERVERS: usize = 3;
const CLIENT_WORKERS: usize = 2;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Waits for the thread count to settle at `want`: a joined thread has
/// left userspace but may not have left procfs.
fn settles_at(want: usize) -> usize {
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while threads() != want && Instant::now() < deadline {
        std::thread::yield_now();
    }
    threads()
}

#[test]
fn a_durable_run_adds_one_log_writer_per_server_and_drop_joins_them() {
    let baseline = threads();
    let workers = SERVERS + CLIENT_WORKERS;
    let dir = storage::scratch_dir("rt-census-durable");
    let mut fleet = RuntimeFleet::new_durable(
        0xCE06,
        DvvMechanism,
        RuntimeConfig {
            servers: SERVERS,
            clients: 4,
            client_workers: CLIENT_WORKERS,
            // think time keeps the run going for many samples, and each
            // server logs ~200 records — more than one default group
            // of 64.
            cycles_per_client: 50,
            client: ClientConfig {
                think_time: Duration::from_millis(1),
                ..ClientConfig::default()
            },
            quiesce: StdDuration::ZERO,
            ..RuntimeConfig::default()
        },
        EngineFactory::log_in(&dir, LogConfig::default()),
    );
    assert_eq!(threads(), baseline, "opening the logs spawns no writer");

    // The fleet runs on a thread of its own and comes back to be
    // counted: its engines, and so their writers, outlive the run.
    let runner = std::thread::spawn(move || {
        match fleet.run() {
            Ok(report) => assert!(report.all_done),
            Err(stall) => panic!("{stall}"),
        }
        fleet
    });
    let mut peak = 0;
    while !runner.is_finished() {
        peak = peak.max(threads());
        std::thread::sleep(StdDuration::from_millis(1));
    }
    let fleet = runner.join().expect("the run completes");
    let peak = peak.saturating_sub(baseline + 1);
    assert!(
        (workers..=workers + SERVERS).contains(&peak),
        "a run's threads are its {workers} workers and at most {SERVERS} log writers, saw {peak}"
    );
    assert_eq!(
        settles_at(baseline + SERVERS),
        baseline + SERVERS,
        "after the run: every server has handed off a group, so its writer lives on with its engine"
    );

    drop(fleet);
    assert_eq!(
        settles_at(baseline),
        baseline,
        "dropping the fleet joins every log writer"
    );
    std::fs::remove_dir_all(dir).ok();
}
