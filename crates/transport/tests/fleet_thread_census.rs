//! Thread census of a socket fleet run: its threads are its workers —
//! one per server, one per client worker — and nothing else. Each
//! worker accepts and reads its own nodes' connections, so there is no
//! accept thread, no reader thread and no writer thread: the transport
//! adds nothing to the fleet's `servers + client_workers`. Counted from
//! the kernel's own list of this process's threads, so the numbers
//! cannot drift from what actually runs. One test per process: any
//! other test in this binary would put its own threads in the count.

#![cfg(target_os = "linux")]

use std::time::{Duration as StdDuration, Instant};

use dvv::mechanisms::DvvMechanism;
use kvstore::config::ClientConfig;
use runtime::RuntimeConfig;
use simnet::Duration;
use transport::SocketFleet;

const SERVERS: usize = 3;
const CLIENTS: usize = 4;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// The most threads a run on `client_workers` client workers adds to
/// the process, its runner excluded; checks that the run dialed and
/// that it joins every thread it spawned.
fn peak_threads(client_workers: usize) -> usize {
    let baseline = threads();
    let mut fleet = SocketFleet::new(
        0xCE05,
        DvvMechanism,
        RuntimeConfig {
            servers: SERVERS,
            clients: CLIENTS,
            client_workers,
            // ≥ 100 ms of think time per session: the run outlasts many
            // samples, and every connection is dialed well before it ends.
            cycles_per_client: 50,
            client: ClientConfig {
                think_time: Duration::from_millis(1),
                ..ClientConfig::default()
            },
            quiesce: StdDuration::ZERO,
            ..RuntimeConfig::default()
        },
    );
    // Every thread of a run is spawned before its first event and lives
    // until shutdown, so the peak is the run's thread count.
    let runner = std::thread::spawn(move || {
        let report = fleet.run().unwrap_or_else(|stall| panic!("{stall}"));
        assert!(report.all_done);
        fleet.fabric_report().connects
    });
    let mut peak = 0;
    while !runner.is_finished() {
        peak = peak.max(threads());
        std::thread::sleep(StdDuration::from_millis(1));
    }
    let connects = runner.join().expect("the run completes");
    assert!(connects > 0, "no connection was dialed");
    // A joined thread has left userspace but may not have left procfs.
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while threads() != baseline && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(threads(), baseline, "run() joins every thread it spawned");
    peak.saturating_sub(baseline + 1)
}

#[test]
fn socket_run_threads_are_the_workers_and_nothing_else() {
    assert_eq!(
        peak_threads(1),
        SERVERS + 1,
        "one worker per server and one for the sessions"
    );
    assert_eq!(
        peak_threads(2),
        SERVERS + 2,
        "one worker per server and one per client worker"
    );
}
