//! Crash-mid-burst on the *threaded* driver — the runtime mirror of the
//! simulator's `crash_burst` suite.
//!
//! A server is killed on its own worker thread in the middle of a write
//! burst under *group-sync* durability (`LogConfig::default()` — the
//! power cut loses the engine's un-synced record tail) while every
//! routed message risks duplication, reordering and stale replay
//! ([`LinkFaults::hostile`], the simulator suite's profile). The victim
//! respawns from its truncated log, re-admits itself in band, and the fleet must converge
//! unaided and pass the full conformance audit stack — which includes
//! the fleet-wide dot-uniqueness census over the live states, plus the
//! *historical* census over the durable log files: append-only logs
//! don't forget, so a re-minted dot is convicted even after sibling
//! domination has erased both bearers from every live state.
//!
//! Thread scheduling makes the crash instant nondeterministic, so the
//! guard-disabled regression (which needs an exactly-timed stale-replay
//! window) lives only in the simulator suite; here the value is that
//! the epoch guard holds on a *real* interleaving, not a scheduled one.

use std::time::Duration as StdDuration;

use dvv::mechanisms::DvvMechanism;
use dvv::ReplicaId;
use kvstore::config::ClientConfig;
use kvstore::harness::{assert_dot_unique_in_logs, audit_fleet};
use kvstore::StoreConfig;
use runtime::{CrashEvent, EngineFactory, RuntimeConfig, RuntimeFleet};
use simnet::{Duration, LinkConfig, LinkFaults, NetworkConfig};
use storage::LogConfig;

const SERVERS: usize = 3;
const VICTIM: usize = 1;

fn burst_config() -> RuntimeConfig {
    RuntimeConfig {
        servers: SERVERS,
        clients: 8,
        client_workers: 2,
        cycles_per_client: 30,
        store: StoreConfig {
            anti_entropy_interval: Duration::from_millis(25),
            gossip_interval: Duration::from_millis(25),
            handoff_interval: Duration::from_millis(30),
            ..StoreConfig::default()
        },
        client: ClientConfig {
            // Few hot keys: post-restart coordinations land on keys whose
            // pre-crash dots escaped, which is where reuse would show.
            key_count: 4,
            think_time: Duration::from_millis(2),
            request_timeout: Duration::from_millis(40),
            ..ClientConfig::default()
        },
        faults: Some(NetworkConfig::uniform(LinkConfig {
            faults: LinkFaults::hostile(),
            ..LinkConfig::default()
        })),
        hang_servers: Vec::new(),
        crashes: vec![CrashEvent {
            server: VICTIM,
            kill_after: StdDuration::from_millis(150),
            respawn_after: StdDuration::from_millis(600),
        }],
        stall_budget: StdDuration::from_secs(15),
        run_budget: StdDuration::from_secs(90),
        quiesce: StdDuration::from_secs(20),
        settle_window: StdDuration::from_millis(600),
    }
}

/// Group-sync durability + hostile faults + a mid-burst power cut: the
/// victim respawns from a log missing its last write burst, and the
/// epoch guard must keep every dot unique anyway — across the live
/// states (via [`audit_fleet`]) and across everything any server ever
/// durably applied (via [`assert_dot_unique_in_logs`]).
#[test]
fn crash_mid_burst_under_hostile_faults_audits_clean() {
    let dir = storage::scratch_dir("rt-crash-burst");
    let mut fleet = RuntimeFleet::new_durable(
        0xB00B5,
        DvvMechanism,
        burst_config(),
        EngineFactory::log_in(&dir, LogConfig::default()),
    );
    let report = match fleet.run() {
        Ok(r) => r,
        Err(stall) => panic!("crash-burst run stalled:\n{stall}"),
    };
    assert!(report.all_done, "clients left unfinished");
    assert_eq!(
        fleet.server(VICTIM).data().engine_kind(),
        "log",
        "victim must be running on its rebuilt log engine"
    );
    assert!(
        fleet
            .server(0)
            .view()
            .members()
            .contains(&ReplicaId(VICTIM as u32)),
        "recovered server missing from the membership"
    );

    // The guard engaged across the respawn: the victim recovered a
    // durable reservation, bumped its incarnation epoch past genesis,
    // and floors minting above every dot that could have escaped.
    let (epoch, ceiling, floor) = fleet.server(VICTIM).dot_guard_state();
    assert!(epoch >= 1, "recovery must bump the dot epoch");
    assert!(floor > 0, "recovery must floor minting");
    assert!(ceiling >= floor, "reservation ceiling below its floor");

    // Historical census first (the harness converge appends merge
    // results to the logs — harmless copies, but audit the raw history).
    for slot in 0..SERVERS {
        fleet.server_mut(slot).sync_storage();
    }
    assert_dot_unique_in_logs(
        &DvvMechanism,
        &dir,
        0..SERVERS,
        "threaded crash-burst histories",
    );

    // Full conformance stack: one view, AAE equivalence, residuals,
    // live dot census, oracle-clean converge.
    audit_fleet(&mut fleet, "threaded crash-burst");
    std::fs::remove_dir_all(dir).ok();
}
