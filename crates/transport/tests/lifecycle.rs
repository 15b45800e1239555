//! Connection-lifecycle faults: sever every TCP connection touching a
//! server mid-burst. Frames in flight become wire loss (a failure class
//! the protocol already absorbs), dialers reconnect with jittered
//! backoff, and anti-entropy repairs the damage — the run must finish
//! and audit exactly as clean as an unfaulted one, with no operator
//! intervention.

use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration as StdDuration;

use dvv::mechanisms::DvvMechanism;
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::harness::audit_fleet;
use kvstore::messages::Msg;
use runtime::{Packet, Progress, RuntimeConfig};
use simnet::{Duration, Scenario, SimRng, Step};
use transport::{hello_body, write_frame, Fabric, SocketFleet};

#[test]
fn severed_connections_reconnect_and_converge() {
    let config = RuntimeConfig {
        servers: 4,
        clients: 12,
        cycles_per_client: 8,
        store: StoreConfig {
            anti_entropy_interval: Duration::from_millis(25),
            gossip_interval: Duration::from_millis(25),
            handoff_interval: Duration::from_millis(30),
            ..StoreConfig::default()
        },
        client: ClientConfig {
            key_count: 16,
            think_time: Duration::from_millis(1),
            ..ClientConfig::default()
        },
        stall_budget: StdDuration::from_secs(10),
        run_budget: StdDuration::from_secs(60),
        quiesce: StdDuration::from_secs(12),
        settle_window: StdDuration::from_millis(600),
        // Cut server 1's links twice while clients are mid-burst, and
        // server 2's once for good measure.
        scenario: Scenario::new([
            (Duration::from_millis(30), Step::CutConn(1)),
            (Duration::from_millis(60), Step::CutConn(2)),
            (Duration::from_millis(90), Step::CutConn(1)),
        ]),
        ..RuntimeConfig::default()
    };
    let mut fleet = SocketFleet::new(0x51CC, DvvMechanism, config);
    let report = match fleet.run() {
        Ok(r) => r,
        Err(stall) => panic!("socket fleet stalled under connection kills:\n{stall}"),
    };
    assert!(report.all_done, "clients left unfinished");

    let fabric = fleet.fabric_report();
    assert!(
        fabric.reconnects > 0,
        "kills never forced a reconnect — fault did not land\n{fabric:#?}"
    );

    // The full cross-driver audit stack: one view, AAE-equivalent
    // replicas, no residual copies, oracle-clean converge.
    audit_fleet(&mut fleet, "socket fleet with connection kills");

    // Every reconnect re-ran the authenticated hello with the shared
    // secret — none may have been rejected.
    assert_eq!(
        fabric.hello_rejects, 0,
        "legitimate reconnects must pass the hello challenge"
    );

    // The write ledger closes across the kills: a frame whose write
    // the severed socket refused is `io_lost`, never `written`.
    assert_eq!(
        fabric.enqueued_frames,
        fabric.written_frames + fabric.io_lost_frames,
        "write ledger does not close\n{fabric:#?}"
    );
    // Each write carried one or more whole frames.
    assert!(
        1 <= fabric.writes && fabric.writes <= fabric.written_frames,
        "writes out of range\n{fabric:#?}"
    );
}

/// The sender is its own dialer: after a link's connection is severed,
/// a later `send_bytes` from the same thread redials it, and what gets
/// through afterwards is in send order — lost frames leave gaps, never
/// a reordering.
#[test]
fn severed_link_redials_on_a_later_send_from_the_same_thread() {
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx0, _rx0) = mpsc::sync_channel(64);
    let (tx1, rx1) = mpsc::sync_channel(64);
    let fabric = Fabric::<DvvMechanism>::start(
        DvvMechanism,
        2,
        vec![tx0, tx1],
        Arc::new(Progress::new(2)),
        Arc::clone(&shutdown),
        SimRng::new(0x5E7E),
        16,
        1 << 20,
        0x5E7E,
    )
    .expect("bind loopback listeners");
    let send = |req: u64| {
        let ack = Msg::<DvvMechanism>::RepPutAck { req };
        fabric.send_bytes(0, 1, ack.encode_transport(&DvvMechanism));
    };
    let recv = || match rx1.recv_timeout(StdDuration::from_secs(10)) {
        Ok(Packet {
            msg: Msg::RepPutAck { req },
            ..
        }) => req,
        other => panic!("expected an ack from node 0, got {other:?}"),
    };

    send(0);
    assert_eq!(recv(), 0);
    assert_eq!(fabric.kill_node_connections(1), 2, "both ends of 0 → 1");

    // No other thread exists to repair the link: the sends themselves
    // must find it broken and dial again.
    let mut sent = 0;
    while fabric.stats().reconnects == 0 {
        sent += 1;
        assert!(sent < 100, "link never redialed\n{:#?}", fabric.stats());
        send(sent);
    }
    // The send that redialed also wrote its frame on the new connection.
    let mut last = 0;
    while last < sent {
        let req = recv();
        assert!(req > last, "delivery out of order: {req} after {last}");
        last = req;
    }

    shutdown.store(true, Ordering::Relaxed);
    fabric.stop();
    let stats = fabric.stats();
    assert!(
        stats.io_lost_frames >= 1,
        "the kill cost no frame?\n{stats:#?}"
    );
    assert_eq!(
        stats.enqueued_frames,
        stats.written_frames + stats.io_lost_frames,
        "write ledger does not close\n{stats:#?}"
    );
    // Each write carried one or more whole frames.
    assert!(
        1 <= stats.writes && stats.writes <= stats.written_frames,
        "writes out of range\n{stats:#?}"
    );
}

/// Spins up a bare two-node fabric and pokes its handshake directly:
/// a dialer that cannot answer the keyed hello challenge — wrong
/// secret, malformed body, or out-of-range node id — is terminally
/// rejected (socket closed, nothing attributed, nothing delivered),
/// while a dialer holding the secret gets past the hello and is
/// attributed as the peer it claimed.
#[test]
fn bad_hello_is_terminally_rejected() {
    const SECRET: u64 = 0x7357_5EC2_E7AB_CDEF;
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx0, rx0) = mpsc::sync_channel(64);
    let (tx1, _rx1) = mpsc::sync_channel(64);
    let fabric = Fabric::<DvvMechanism>::start(
        DvvMechanism,
        2,
        vec![tx0, tx1],
        Arc::new(Progress::new(2)),
        Arc::clone(&shutdown),
        SimRng::new(0xBAD_4E110),
        16,
        1 << 20,
        SECRET,
    )
    .expect("bind loopback listeners");

    // Reads until the peer closes; returns the bytes it sent us.
    // A rejected connection yields EOF (or reset) without traffic.
    let drain = |s: &mut TcpStream| {
        s.set_read_timeout(Some(StdDuration::from_secs(5))).unwrap();
        let mut sunk = Vec::new();
        let _ = s.read_to_end(&mut sunk);
        sunk.len()
    };

    // Wrong secret: correct id, tag keyed under a different secret.
    let mut rogue = TcpStream::connect(fabric.addr(0)).expect("dial");
    write_frame(&mut rogue, &hello_body(1, SECRET ^ 1)).expect("send hello");
    assert_eq!(drain(&mut rogue), 0, "rejected conn must carry no data");

    // Malformed hello: right length class is enforced, not just tags.
    let mut rogue = TcpStream::connect(fabric.addr(0)).expect("dial");
    write_frame(&mut rogue, b"hi").expect("send hello");
    drain(&mut rogue);

    // Out-of-range node id, correctly tagged: still no entry.
    let mut rogue = TcpStream::connect(fabric.addr(0)).expect("dial");
    write_frame(&mut rogue, &hello_body(7, SECRET)).expect("send hello");
    drain(&mut rogue);

    // The fabric counted every reject and attributed no frame.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
    while fabric.stats().hello_rejects < 3 && std::time::Instant::now() < deadline {
        std::thread::sleep(StdDuration::from_millis(5));
    }
    let stats = fabric.stats();
    assert_eq!(stats.hello_rejects, 3, "three rejects: {stats:#?}");
    assert_eq!(stats.recv_frames, 0, "no frame may pass a failed hello");

    // A dialer holding the secret gets through: its hello is accepted
    // and its next frame reaches the message path (it decodes as
    // garbage, which kills the connection *after* attribution — the
    // decode_errors counter moving proves the hello was accepted).
    let mut member = TcpStream::connect(fabric.addr(0)).expect("dial");
    write_frame(&mut member, &hello_body(1, SECRET)).expect("send hello");
    write_frame(&mut member, b"not a message").expect("send body");
    let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
    while fabric.stats().decode_errors == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(StdDuration::from_millis(5));
    }
    let stats = fabric.stats();
    assert_eq!(stats.hello_rejects, 3, "good hello must not be rejected");
    assert_eq!(stats.recv_frames, 1, "authenticated frame must be read");
    assert_eq!(stats.decode_errors, 1, "garbage body dies after auth");

    shutdown.store(true, Ordering::Relaxed);
    fabric.stop();
    drop(rx0);
}
