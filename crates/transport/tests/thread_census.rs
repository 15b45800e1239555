//! Thread census: `Fabric::start` runs one poller thread per node —
//! its listener, every connection accepted on it and its wake socket,
//! in one `epoll` loop — so accepting a connection adds no thread, and
//! nothing runs on the send side, where frames are written by whoever
//! calls `send_bytes`. (A fleet runs even those pollers on its workers:
//! `fleet_thread_census.rs`.) Counted from the kernel's own list of this
//! process's threads, so the numbers cannot drift from what actually
//! runs. One test per process: any other test in this binary would put
//! its own threads in the count.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dvv::mechanisms::DvvMechanism;
use kvstore::messages::Msg;
use runtime::Progress;
use simnet::SimRng;
use transport::Fabric;

const NODES: usize = 4;
const LINKS: usize = NODES * (NODES - 1);

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn fabric_threads_are_accept_loops_plus_accepted_connections() {
    let baseline = threads();
    let shutdown = Arc::new(AtomicBool::new(false));
    let (inboxes, receivers): (Vec<_>, Vec<_>) =
        (0..NODES).map(|_| mpsc::sync_channel(NODES)).unzip();
    let fabric = Fabric::start(
        DvvMechanism,
        NODES,
        inboxes,
        Arc::new(Progress::new(NODES)),
        Arc::clone(&shutdown),
        SimRng::new(0xCE05),
        16,
        1 << 20,
        0xCE05,
    )
    .expect("bind loopback listeners");
    assert_eq!(threads(), baseline + NODES, "one poller per node");

    // One frame over every ordered pair, and wait until each has come
    // out of its poller: every link is dialed and accepted by then.
    for from in 0..NODES {
        for to in (0..NODES).filter(|to| *to != from) {
            let ack = Msg::<DvvMechanism>::RepPutAck { req: from as u64 };
            fabric.send_bytes(from, to, ack.encode_transport(&DvvMechanism));
        }
    }
    for rx in &receivers {
        for _ in 1..NODES {
            rx.recv_timeout(Duration::from_secs(10))
                .expect("a frame from every peer");
        }
    }
    assert_eq!(fabric.stats().connects, LINKS as u64);
    assert_eq!(
        threads(),
        baseline + NODES,
        "no thread per accepted connection, none per sending link"
    );

    shutdown.store(true, Ordering::Relaxed);
    fabric.stop();
    // A joined thread has left userspace but may not have left procfs.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != baseline && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(threads(), baseline, "stop() joins every fabric thread");
}
