//! The socket link's idle poll ([`Link::SPIN`] on [`FabricLink`]) under
//! the same gate as the channel link's, bounded the same way: on the
//! fleet's own counters ([`FleetStats::idle`](runtime::FleetStats::idle)),
//! a missed window burning at most one `SPIN` of CPU. Each look of the
//! poll is a zero-timeout wait on the worker's sockets, so the third test
//! also pins where the poll looks: on sockets only the worker's own wait
//! fills its inbox, and a poll of the inbox alone would never hit.

use std::time::Duration as StdDuration;

use dvv::mechanisms::DvvMechanism;
use kvstore::config::{ClientConfig, StoreConfig};
use runtime::{IdleStats, Link, RuntimeConfig};
use simnet::Duration;
use transport::{FabricLink, SocketFleet};

const SERVERS: usize = 3;
const SPIN: StdDuration = <FabricLink<DvvMechanism> as Link<DvvMechanism>>::SPIN;

/// The most CPU the missed windows can have burnt.
fn burn(idle: IdleStats) -> StdDuration {
    SPIN * idle.spin_misses as u32
}

/// Servers only, nothing to serve: 300 ms of anti-entropy and gossip
/// over TCP. Every miss closes its worker's gate and only a packet
/// re-opens it, so misses are bounded by what was dispatched, and they
/// add up to under 1 % of the workers' time (measured: the three or
/// four windows the gates start with, 0.02 %).
#[test]
fn an_idle_socket_fleet_does_not_spin() {
    const QUIESCE: StdDuration = StdDuration::from_millis(300);
    let mut fleet = SocketFleet::new(
        0x1D1E,
        DvvMechanism,
        RuntimeConfig {
            servers: SERVERS,
            clients: 0,
            store: StoreConfig {
                anti_entropy_interval: Duration::from_millis(50),
                gossip_interval: Duration::from_millis(100),
                ..StoreConfig::default()
            },
            // The settle rule cannot end the quiesce before its budget.
            quiesce: QUIESCE,
            settle_window: QUIESCE,
            ..RuntimeConfig::default()
        },
    );
    fleet.run().expect("no stall");

    let stats = fleet.stats();
    let idle = stats.idle();
    let events: u64 = (0..SERVERS).map(|i| stats.snapshot(i).events).sum();
    assert!(events >= 20, "the timers did run: {events} events");
    assert!(idle.parks >= events / 2, "an idle fleet sleeps: {idle:?}");
    assert!(
        idle.spin_misses <= events + SERVERS as u64,
        "{idle:?} on {events} events"
    );
    assert!(
        burn(idle) <= QUIESCE * SERVERS as u32 / 100,
        "{idle:?}: {:?} burnt in {QUIESCE:?} on {SERVERS} workers",
        burn(idle)
    );
}

/// Sessions that think for 3 ms between requests: each request is a
/// burst that opens the gates and ends in one missed window per worker
/// it touched. That must stay a small tax: under a quarter of the
/// workers' time.
#[test]
fn a_thinking_socket_fleet_pays_a_bounded_tax() {
    const WORKERS: u32 = SERVERS as u32 + 1;
    let mut fleet = SocketFleet::new(
        0x7A11,
        DvvMechanism,
        RuntimeConfig {
            servers: SERVERS,
            clients: 4,
            cycles_per_client: 25,
            client: ClientConfig {
                think_time: Duration::from_millis(3),
                ..ClientConfig::default()
            },
            quiesce: StdDuration::ZERO,
            ..RuntimeConfig::default()
        },
    );
    let report = fleet.run().expect("no stall");
    assert!(report.all_done);

    let idle = fleet.stats().idle();
    assert!(
        idle.spin_hits + idle.spin_misses > 0,
        "it did poll: {idle:?}"
    );
    assert!(
        burn(idle) <= report.elapsed * WORKERS / 4,
        "{idle:?}: {:?} burnt in {:?} on {WORKERS} workers",
        burn(idle),
        report.elapsed
    );
}

/// Sessions that never think keep every worker's gate open, and the
/// replies they wait for arrive as frames in the kernel. A hit means a
/// look of the poll read a socket: nothing else puts a packet in a
/// socket worker's inbox during a run.
#[test]
fn a_busy_socket_fleet_polls_its_sockets() {
    let mut fleet = SocketFleet::new(
        0xB057,
        DvvMechanism,
        RuntimeConfig {
            servers: SERVERS,
            clients: 4,
            cycles_per_client: 100,
            client: ClientConfig {
                think_time: Duration::ZERO,
                ..ClientConfig::default()
            },
            quiesce: StdDuration::ZERO,
            ..RuntimeConfig::default()
        },
    );
    let report = fleet.run().expect("no stall");
    assert!(report.all_done);

    let idle = fleet.stats().idle();
    assert!(
        idle.spin_hits > 0,
        "no look of the poll found a frame: {idle:?}"
    );
}
