//! The stall watchdog must fire — fast, and with usable diagnostics —
//! when the fleet wedges, and must stay quiet on a healthy run.

use std::time::Duration as StdDuration;

use dvv::mechanisms::DvvMechanism;
use kvstore::config::{ClientConfig, StoreConfig};
use runtime::{RuntimeConfig, RuntimeFleet};
use simnet::{Duration, Scenario, Step};

/// A single-server fleet whose only server is deliberately wedged
/// (thread never starts the node, never drains its inbox): no client op
/// can ever complete, so the watchdog must declare a stall well before
/// the run budget, naming the dead server with a non-empty inbox.
#[test]
fn watchdog_fires_on_wedged_server() {
    let mut fleet = RuntimeFleet::new(
        7,
        DvvMechanism,
        RuntimeConfig {
            servers: 1,
            clients: 4,
            client_workers: 1,
            cycles_per_client: 100,
            store: StoreConfig {
                n: 1,
                r: 1,
                w: 1,
                ..StoreConfig::default()
            },
            client: ClientConfig {
                think_time: Duration::from_micros(100),
                request_timeout: Duration::from_millis(20),
                ..ClientConfig::default()
            },
            hang_servers: vec![0],
            stall_budget: StdDuration::from_millis(300),
            run_budget: StdDuration::from_secs(30),
            quiesce: StdDuration::ZERO,
            ..RuntimeConfig::default()
        },
    );
    let stall = fleet.run().expect_err("wedged fleet must stall");
    assert_eq!(stall.ops_ok, 0, "no op can complete without the server");
    let server = &stall.nodes[0];
    assert_eq!(server.events, 0, "wedged server dispatched nothing");
    assert!(
        server.inbox_depth >= 1,
        "client requests should be piling up in the dead server's inbox: {stall}"
    );
    assert_eq!(
        server.last_event_age_micros,
        u64::MAX,
        "wedged server never dispatched, age must read 'never'"
    );
    // Clients, by contrast, were alive (issuing and timing out).
    assert!(
        stall.nodes[1..].iter().any(|d| d.events > 0),
        "clients should have dispatched events: {stall}"
    );
    let rendered = stall.to_string();
    assert!(
        rendered.contains("runtime stalled"),
        "report renders: {rendered}"
    );
}

/// Regression: a server the *crash schedule* deliberately killed must
/// not be presented as wedged. Server 0 is genuinely wedged (hung
/// worker) so the stall fires; server 1 is down on purpose (scheduled
/// kill, respawn far in the future). The report must mark server 1
/// expected-down, keep it out of `wedged_nodes()`, and still finger
/// server 0.
#[test]
fn watchdog_distinguishes_scheduled_kill_from_wedge() {
    let mut fleet = RuntimeFleet::new(
        19,
        DvvMechanism,
        RuntimeConfig {
            servers: 2,
            clients: 4,
            client_workers: 1,
            cycles_per_client: 100,
            store: StoreConfig {
                n: 2,
                r: 2,
                w: 2,
                ..StoreConfig::default()
            },
            client: ClientConfig {
                think_time: Duration::from_micros(100),
                request_timeout: Duration::from_millis(20),
                ..ClientConfig::default()
            },
            hang_servers: vec![0],
            scenario: Scenario::new([
                (Duration::from_millis(50), Step::Kill(1)),
                (Duration::from_secs(60), Step::Revive(1)),
            ]),
            stall_budget: StdDuration::from_millis(400),
            run_budget: StdDuration::from_secs(30),
            quiesce: StdDuration::ZERO,
            ..RuntimeConfig::default()
        },
    );
    let stall = fleet
        .run()
        .expect_err("fleet with a wedged server must stall");
    assert!(
        stall.nodes[1].expected_down,
        "the scheduled kill was in force when the stall fired: {stall}"
    );
    assert!(
        !stall.nodes[0].expected_down,
        "the wedge was not scheduled: {stall}"
    );
    assert_eq!(
        stall.expected_down(),
        vec![1],
        "exactly the killed server is expected down"
    );
    let wedged = stall.wedged_nodes();
    assert!(
        wedged.contains(&0),
        "the genuinely wedged server is still fingered: {stall}"
    );
    assert!(
        !wedged.contains(&1),
        "a deliberately-killed server must not read as wedged: {stall}"
    );
    let rendered = stall.to_string();
    assert!(
        rendered.contains("down (expected)"),
        "report marks the scheduled kill: {rendered}"
    );
}

/// A healthy fleet finishes without the watchdog interfering.
#[test]
fn watchdog_stays_quiet_on_healthy_run() {
    let mut fleet = RuntimeFleet::new(
        11,
        DvvMechanism,
        RuntimeConfig {
            servers: 3,
            clients: 6,
            client_workers: 2,
            cycles_per_client: 4,
            stall_budget: StdDuration::from_secs(10),
            quiesce: StdDuration::from_millis(200),
            ..RuntimeConfig::default()
        },
    );
    let report = fleet.run().expect("healthy fleet completes");
    assert!(report.all_done);
    assert!(report.ops_ok > 0);
}
