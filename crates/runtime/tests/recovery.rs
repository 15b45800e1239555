//! Crash/recovery on the *threaded* driver: a scenario's `Kill` step
//! kills a server's node on its own worker thread mid-run (dropping
//! in-memory state and any unsynced engine buffer, like a power cut),
//! then respawns it from its storage engine and re-admits it in band
//! via `Msg::RingEpoch` — no harness view synchronisation. The recovered
//! fleet must pass the same audit stack as a healthy conformance run:
//! one ring view, pairwise AAE equivalence, zero residual copies, and
//! an oracle-clean converge (no lost acked writes, no false
//! concurrency).

use std::time::Duration as StdDuration;

use dvv::mechanisms::{DvvSetMechanism, Mechanism, VvClientMechanism, WireMechanism};
use dvv::ReplicaId;
use kvstore::config::ClientConfig;
use kvstore::harness::audit_fleet;
use kvstore::{StampedValue, StoreConfig};
use runtime::{EngineFactory, RuntimeConfig, RuntimeFleet};
use simnet::{Duration, Scenario, Step};
use storage::LogConfig;

const SERVERS: usize = 3;
const VICTIM: usize = 1;

fn recovery_config() -> RuntimeConfig {
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
            key_count: 12,
            think_time: Duration::from_millis(2),
            request_timeout: Duration::from_millis(40),
            ..ClientConfig::default()
        },
        faults: None,
        hang_servers: Vec::new(),
        scenario: Scenario::new([
            (Duration::from_millis(150), Step::Kill(VICTIM)),
            (Duration::from_millis(600), Step::Revive(VICTIM)),
        ]),
        stall_budget: StdDuration::from_secs(15),
        run_budget: StdDuration::from_secs(90),
        quiesce: StdDuration::from_secs(20),
        settle_window: StdDuration::from_millis(600),
    }
}

/// The full post-run audit stack, shared by the durable and diskless
/// recovery scenarios: the generic [`audit_fleet`] stack (one ring
/// view, pairwise AAE equivalence — recovered node included — zero
/// residual copies, oracle-clean converge), plus the recovery-specific
/// check that the victim is a full member again in its peers' eyes.
fn audit<M>(fleet: &mut RuntimeFleet<M>, label: &str)
where
    M: Mechanism<StampedValue> + Send + 'static,
{
    assert!(
        fleet
            .server(0)
            .view()
            .members()
            .contains(&ReplicaId(VICTIM as u32)),
        "{label}: recovered server missing from the membership"
    );
    audit_fleet(fleet, label);
}

/// Durable fleet, write-through log engines: the victim is killed
/// mid-run and respawned *from its disk* — the rebuilt engine replays
/// every record it acked — and the fleet audits clean. Run for the
/// compact DVVSet and for per-client VVs, a list state, each logged in
/// its own codec.
#[test]
fn scheduled_crash_respawns_from_disk_and_audits_clean() {
    crash_from_disk(DvvSetMechanism);
    crash_from_disk(VvClientMechanism::unbounded());
}

fn crash_from_disk<M>(mech: M)
where
    M: WireMechanism<StampedValue> + Send + 'static,
{
    let label = format!("durable {}", mech.name());
    let dir = storage::scratch_dir("rt-recovery-durable");
    let mut fleet = RuntimeFleet::new_durable(
        0xD15C,
        mech,
        recovery_config(),
        EngineFactory::log_in(&dir, LogConfig::write_through()),
    );
    let report = match fleet.run() {
        Ok(r) => r,
        Err(stall) => panic!("{label} recovery run stalled:\n{stall}"),
    };
    assert!(report.all_done, "{label}: clients left unfinished");
    assert_eq!(
        fleet.server(VICTIM).data().engine_kind(),
        "log",
        "{label}: victim must be running on its rebuilt log engine"
    );
    audit(&mut fleet, &label);
    std::fs::remove_dir_all(dir).ok();
}

/// Diskless baseline: no engine factory, so the victim respawns
/// *empty* and anti-entropy refills it from its peers. Every acked
/// write had a quorum, so at least one live copy survives the crash
/// and the oracle still audits clean.
#[test]
fn diskless_crash_respawn_refills_from_peers() {
    let mut fleet = RuntimeFleet::new(0xD15C + 1, DvvSetMechanism, recovery_config());
    let report = match fleet.run() {
        Ok(r) => r,
        Err(stall) => panic!("diskless recovery run stalled:\n{stall}"),
    };
    assert!(report.all_done, "clients left unfinished");
    assert_eq!(
        fleet.server(VICTIM).data().engine_kind(),
        "mem",
        "diskless victim respawns on a fresh in-memory engine"
    );
    audit(&mut fleet, "diskless");
}
