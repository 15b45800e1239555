//! The receive path with no reader thread: a node's frames are read by
//! whoever hosts its poller — a thread of [`Fabric::start`]'s, or on a
//! fleet the node's own worker, from its idle arm and from a send that
//! waits for socket room. What a reader thread per connection used to
//! give for free has to hold here too: a stalled connection holds no
//! other up, two workers writing into each other's full socket buffers
//! both get on, and teardown does not wait out a worker's wait.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread;
use std::time::{Duration as StdDuration, Instant};

use dvv::mechanisms::DvvMechanism;
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::messages::Msg;
use runtime::{Link, Packet, Progress, Wiring};
use simnet::{Duration, NodeId, SimRng};
use transport::{
    hello_body, write_frame, Fabric, FabricLink, FabricSpec, SocketConfig, SocketFleet,
    HEADER_BYTES,
};

type M = DvvMechanism;

const SECRET: u64 = 0x51_0E_10_25;
const WAIT: StdDuration = StdDuration::from_secs(10);

fn ack(req: u64) -> Msg<M> {
    Msg::RepPutAck { req }
}

fn req_of(pkt: Packet<M>) -> u64 {
    match pkt.msg {
        Msg::RepPutAck { req } => req,
        other => panic!("unexpected {other:?}"),
    }
}

/// Two stalled dialers at node 0: one half-way through its hello's
/// header, one authenticated and half-way through its next frame's.
fn lorises(fabric: &Fabric<M>) -> [TcpStream; 2] {
    let mut early = TcpStream::connect(fabric.addr(0)).expect("dial");
    early.write_all(&[12, 0, 0, 0]).expect("half a header");
    let mut late = TcpStream::connect(fabric.addr(0)).expect("dial");
    write_frame(&mut late, &hello_body(1, SECRET)).expect("hello");
    late.write_all(&[9, 0, 0, 0]).expect("half a header");
    [early, late]
}

/// A fleet's link over `nodes` nodes with inboxes of `capacity`, opened
/// outside a fleet: the test plays the workers.
fn open_link(nodes: usize, capacity: usize) -> (FabricLink<M>, Vec<Receiver<Packet<M>>>) {
    let (inboxes, receivers) = (0..nodes).map(|_| mpsc::sync_channel(capacity)).unzip();
    let config = SocketConfig {
        cluster_secret: SECRET,
        ..SocketConfig::default()
    };
    let link = FabricLink::open(
        &FabricSpec::new(7, DvvMechanism, config),
        Wiring {
            inboxes,
            progress: Arc::new(Progress::new(nodes)),
            shutdown: Arc::new(AtomicBool::new(false)),
        },
    );
    (link, receivers)
}

#[test]
fn a_stalled_connection_holds_up_no_other_on_a_poller_thread() {
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx0, rx0) = mpsc::sync_channel(64);
    let (tx1, _rx1) = mpsc::sync_channel(64);
    let fabric = Fabric::start(
        DvvMechanism,
        2,
        vec![tx0, tx1],
        Arc::new(Progress::new(2)),
        Arc::clone(&shutdown),
        SimRng::new(7),
        0,
        1 << 20,
        SECRET,
    )
    .expect("bind loopback listeners");
    let _stalled = lorises(&fabric);
    for req in 0..10 {
        fabric.send_bytes(1, 0, ack(req).encode_transport(&DvvMechanism));
    }
    for req in 0..10 {
        assert_eq!(req_of(rx0.recv_timeout(WAIT).expect("a frame")), req);
    }
    shutdown.store(true, Ordering::Relaxed);
    fabric.stop();
}

#[test]
fn a_stalled_connection_holds_up_no_other_on_a_worker() {
    let (mut link, receivers) = open_link(2, 64);
    let mut node0 = link.worker(&[NodeId(0)]);
    let node1 = link.worker(&[NodeId(1)]);
    let stalled = lorises(link.fabric());
    for req in 0..10 {
        node1.send(Packet {
            from: NodeId(1),
            to: NodeId(0),
            msg: ack(req),
        });
    }
    node1.flush();
    for req in 0..10 {
        let pkt = node0.wait(&receivers[0], WAIT).expect("a frame");
        assert_eq!(req_of(pkt), req);
    }

    // Hung up on, each is judged like any torn stream: a tear before
    // the hello is a reject, after it a frame error.
    drop(stalled);
    let deadline = Instant::now() + WAIT;
    let fabric = link.fabric();
    while (fabric.stats().hello_rejects, fabric.stats().frame_errors) != (1, 1) {
        assert!(Instant::now() < deadline, "{:#?}", fabric.stats());
        let _ = node0.wait(&receivers[0], StdDuration::from_millis(1));
    }
}

/// Frames of 64 KiB: 1 024 of them per direction is 64 MiB, many times
/// what loopback buffers in both sockets of a connection.
const BURST: u64 = 1_024;

fn bulky(req: u64) -> Msg<M> {
    Msg::ClientGet {
        req,
        key: vec![0x5A; 64 << 10],
        digest: 0,
    }
}

/// Two workers, each writing far more into the other's connection than
/// the kernel buffers, from their own threads and with nobody else
/// reading: each keeps taking in what it is sent while it waits for
/// room, so both sends return. Then each goes on as a fleet worker does,
/// to its idle arm, until every frame is across. The inboxes overflow on
/// the way, and every frame that crossed was delivered or counted as an
/// inbox drop.
#[test]
fn two_workers_bursting_at_each_other_both_return() {
    let (mut link, receivers) = open_link(2, 16);
    let done_sending = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = receivers
        .into_iter()
        .enumerate()
        .map(|(me, inbox)| {
            let mut worker = link.worker(&[NodeId(me as u32)]);
            let done_sending = Arc::clone(&done_sending);
            thread::spawn(move || {
                let peer = 1 - me as u32;
                for req in 0..BURST {
                    worker.send(Packet {
                        from: NodeId(me as u32),
                        to: NodeId(peer),
                        msg: bulky(req),
                    });
                }
                done_sending.fetch_add(1, Ordering::Relaxed);
                let mut delivered = 0;
                loop {
                    let s = worker.fabric().stats();
                    if done_sending.load(Ordering::Relaxed) == 2
                        && s.recv_frames == s.written_frames
                    {
                        break;
                    }
                    if worker.wait(&inbox, StdDuration::from_millis(1)).is_ok() {
                        delivered += 1;
                    }
                }
                delivered + inbox.try_iter().count() as u64
            })
        })
        .collect();
    let deadline = Instant::now() + StdDuration::from_secs(120);
    while !threads.iter().all(|t| t.is_finished()) {
        assert!(
            Instant::now() < deadline,
            "a bursting worker never returned\n{:#?}",
            link.fabric().stats()
        );
        thread::sleep(StdDuration::from_millis(10));
    }
    let delivered: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();

    let s = link.fabric().stats();
    assert_eq!(s.written_frames, 2 * BURST, "{s:#?}");
    assert_eq!(s.recv_frames, 2 * BURST, "{s:#?}");
    assert!(s.inbox_drops > 0, "the inboxes never overflowed\n{s:#?}");
    assert_eq!(delivered + s.inbox_drops, s.recv_frames, "{s:#?}");
    assert_eq!(
        s.io_lost_frames + s.dropped_frames + s.frame_errors,
        0,
        "{s:#?}"
    );
    let frame = (bulky(0).encode_transport(&DvvMechanism).len() + HEADER_BYTES) as u64;
    assert_eq!(s.recv_bytes, s.recv_frames * frame);
}

/// The socket twin of `link_loop.rs`'s teardown test: a worker waiting
/// on its sockets is woken through its wake socket, so `run` returns
/// moments after the run's own clock stopped, not one 20 ms wait cap
/// later.
#[test]
fn teardown_does_not_wait_out_a_polling_worker() {
    let far = Duration::from_secs(600);
    let config = SocketConfig {
        servers: 1,
        clients: 1,
        cycles_per_client: 1,
        store: StoreConfig {
            n: 1,
            r: 1,
            w: 1,
            anti_entropy_interval: far,
            gossip_interval: far,
            handoff_interval: far,
            ..StoreConfig::default()
        },
        client: ClientConfig {
            think_time: Duration::ZERO,
            ..ClientConfig::default()
        },
        quiesce: StdDuration::ZERO,
        ..SocketConfig::default()
    };
    // A frozen host can stretch any single attempt.
    let fastest = (0..3)
        .map(|_| {
            let mut fleet = SocketFleet::new(0x7EA2, DvvMechanism, config.clone());
            let started = Instant::now();
            let report = fleet.run().expect("no stall");
            assert!(report.all_done);
            started.elapsed().saturating_sub(report.elapsed)
        })
        .min()
        .unwrap();
    assert!(
        fastest < StdDuration::from_millis(8),
        "teardown took {fastest:?}"
    );
}
