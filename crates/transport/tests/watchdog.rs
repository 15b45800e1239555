//! The stall check over TCP: a socket fleet whose only server is wedged
//! must fail fast, naming that server, as the in-process fleet does
//! (`runtime/tests/watchdog.rs`). The wedge is the fleet's own
//! `hang_servers`, which sits above the link.

use std::time::Duration as StdDuration;

use dvv::mechanisms::DvvMechanism;
use kvstore::config::{ClientConfig, StoreConfig};
use runtime::RuntimeConfig;
use simnet::Duration;
use transport::SocketFleet;

/// Server 0's worker never starts its node and never polls its sockets,
/// so no client op can complete and the stall check must fire well
/// before the run budget. The report names the server by its events and
/// their age, not by its inbox: on sockets the client requests wait in
/// the kernel, and only the wedged worker's own poll would move them
/// into its inbox, so the inbox reads empty.
#[test]
fn watchdog_fires_on_a_wedged_socket_server() {
    let mut fleet = SocketFleet::new(
        7,
        DvvMechanism,
        RuntimeConfig {
            servers: 1,
            clients: 4,
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
    assert_eq!(
        stall.wedged_nodes(),
        [0],
        "only the server is wedged: {stall}"
    );
    let server = &stall.nodes[0];
    assert_eq!(server.events, 0, "wedged server dispatched nothing");
    assert_eq!(
        server.last_event_age_micros,
        u64::MAX,
        "wedged server never dispatched, age must read 'never'"
    );
    assert!(
        stall.nodes[1..].iter().all(|d| d.events > 0),
        "the clients were alive, issuing and timing out: {stall}"
    );
}
