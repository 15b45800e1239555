//! Thread census: a fleet run's threads are its workers — one per
//! server, one per non-empty client group — with or without a network
//! that delays what it delivers, and the caller of `run` is the only
//! supervisor. Counted from the kernel's own list of this process's
//! threads, so the numbers cannot drift from what actually runs. One
//! test per process: any other test in this binary would put its own
//! threads in the count.

#![cfg(target_os = "linux")]

use std::time::{Duration as StdDuration, Instant};

use dvv::mechanisms::DvvMechanism;
use kvstore::config::ClientConfig;
use runtime::{RuntimeConfig, RuntimeFleet};
use simnet::{Duration, LinkConfig, LinkFaults, NetworkConfig};

const SERVERS: usize = 3;
const CLIENT_WORKERS: usize = 2;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Runs a fleet on a thread of its own and returns the most threads
/// seen above `baseline` while it ran, that runner excluded. Every
/// thread of a run is spawned before its first event and lives until
/// shutdown, so the peak is the run's thread count.
fn peak_threads_during_run(baseline: usize, faults: Option<NetworkConfig>) -> usize {
    let mut fleet = RuntimeFleet::new(
        0xCE05,
        DvvMechanism,
        RuntimeConfig {
            servers: SERVERS,
            clients: 4,
            client_workers: CLIENT_WORKERS,
            // ≥ 100 ms of think time per session: the run outlasts
            // many samples.
            cycles_per_client: 50,
            client: ClientConfig {
                think_time: Duration::from_millis(1),
                ..ClientConfig::default()
            },
            faults,
            quiesce: StdDuration::ZERO,
            ..RuntimeConfig::default()
        },
    );
    let runner = std::thread::spawn(move || match fleet.run() {
        Ok(report) => assert!(report.all_done),
        Err(stall) => panic!("{stall}"),
    });
    let mut peak = 0;
    while !runner.is_finished() {
        peak = peak.max(threads());
        std::thread::sleep(StdDuration::from_millis(1));
    }
    runner.join().expect("the run completes");
    peak.saturating_sub(baseline + 1)
}

#[test]
fn run_threads_are_the_workers_and_nothing_else() {
    let baseline = threads();
    let workers = SERVERS + CLIENT_WORKERS;
    for (faults, what) in [
        (None, "no supervisor thread"),
        (
            Some(NetworkConfig::uniform(LinkConfig {
                faults: LinkFaults::hostile(),
                ..LinkConfig::default()
            })),
            "no delayer thread under a delay window",
        ),
    ] {
        assert_eq!(peak_threads_during_run(baseline, faults), workers, "{what}");
        // A joined thread has left userspace but may not have left procfs.
        let deadline = Instant::now() + StdDuration::from_secs(5);
        while threads() != baseline && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(threads(), baseline, "run() joins every thread it spawned");
    }
}
