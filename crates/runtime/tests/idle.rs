//! The idle poll ([`Link::SPIN`]) is gated, so what it saves a busy
//! fleet it does not charge a quiet one. Both bounds here are on the
//! fleet's own counters ([`FleetStats::idle`](runtime::FleetStats::idle)):
//! a missed window burns at most one `SPIN` of CPU, so misses × `SPIN`
//! bounds the burn without reading a CPU clock.

use std::time::Duration as StdDuration;

use dvv::mechanisms::DvvMechanism;
use kvstore::config::{ClientConfig, StoreConfig};
use runtime::{ChannelLink, IdleStats, Link, RuntimeConfig, RuntimeFleet};
use simnet::Duration;

const SERVERS: usize = 3;
const SPIN: StdDuration = <ChannelLink<DvvMechanism> as Link<DvvMechanism>>::SPIN;

/// The most CPU the missed windows can have burnt.
fn burn(idle: IdleStats) -> StdDuration {
    SPIN * idle.spin_misses as u32
}

/// Servers only, nothing to serve: 300 ms of anti-entropy and gossip
/// timers. Every miss closes its worker's gate and only a packet
/// re-opens it, so misses are bounded by what was dispatched — and they
/// add up to under 1 % of the workers' time (measured: the three or
/// four windows the gates start with, 0.02 %).
#[test]
fn an_idle_fleet_does_not_spin() {
    const QUIESCE: StdDuration = StdDuration::from_millis(300);
    let mut fleet = RuntimeFleet::new(
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
/// it touched. That must stay a small tax — under a quarter of the
/// workers' time (measured: 1.2–1.6 %).
#[test]
fn a_thinking_fleet_pays_a_bounded_tax() {
    const WORKERS: u32 = SERVERS as u32 + 1;
    let mut fleet = RuntimeFleet::new(
        0x7A11,
        DvvMechanism,
        RuntimeConfig {
            servers: SERVERS,
            clients: 4,
            client_workers: 1,
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
