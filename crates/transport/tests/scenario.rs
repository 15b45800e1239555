//! One [`Scenario`] on every driver: the same kill, connection cut and
//! revive run on the simulator's `Cluster`, and from one `RuntimeConfig`
//! on the threaded `RuntimeFleet` and the `SocketFleet`, and each run
//! must audit clean with the revived server back in its peers' view. Then the scenario check's refusals,
//! one test per rule, each through a driver's constructor.

use std::time::Duration as StdDuration;

use dvv::mechanisms::DvvSetMechanism;
use dvv::ReplicaId;
use kvstore::config::ClientConfig;
use kvstore::harness::audit_fleet;
use kvstore::{Cluster, ClusterConfig, FleetHarness, StoreConfig};
use runtime::{RuntimeConfig, RuntimeFleet};
use simnet::{Duration, LinkFaults, Scenario, Step};
use transport::SocketFleet;
use workloads::churn_seeds;

type M = DvvSetMechanism;

const SERVERS: usize = 3;
const CLIENTS: usize = 8;
const CYCLES: u32 = 30;
const VICTIM: usize = 1;

/// Kill the victim mid-run, cut another server's connections while it
/// is down, and bring the victim back.
fn scenario() -> Scenario {
    Scenario::new([
        (Duration::from_millis(150), Step::Kill(VICTIM)),
        (Duration::from_millis(300), Step::CutConn(2)),
        (Duration::from_millis(600), Step::Revive(VICTIM)),
    ])
}

fn store() -> StoreConfig {
    StoreConfig {
        anti_entropy_interval: Duration::from_millis(25),
        gossip_interval: Duration::from_millis(25),
        handoff_interval: Duration::from_millis(30),
        ..StoreConfig::default()
    }
}

fn client() -> ClientConfig {
    ClientConfig {
        key_count: 12,
        think_time: Duration::from_millis(2),
        request_timeout: Duration::from_millis(40),
        ..ClientConfig::default()
    }
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        servers: SERVERS,
        clients: CLIENTS,
        client_workers: 2,
        cycles_per_client: CYCLES,
        store: store(),
        client: client(),
        scenario: scenario(),
        stall_budget: StdDuration::from_secs(15),
        run_budget: StdDuration::from_secs(90),
        quiesce: StdDuration::from_secs(20),
        settle_window: StdDuration::from_millis(600),
        ..RuntimeConfig::default()
    }
}

fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        servers: SERVERS,
        clients: CLIENTS,
        cycles_per_client: CYCLES,
        store: store(),
        client: client(),
        scenario: scenario(),
        ..ClusterConfig::default()
    }
}

/// The audit stack, plus the revived server back in server 0's view at
/// the incarnation its revive minted.
fn audit<H: FleetHarness<M>>(fleet: &mut H, label: &str) {
    let victim = ReplicaId(VICTIM as u32);
    let view = fleet.server_ref(0).view();
    assert!(
        view.members().contains(&victim),
        "{label}: the revived server is missing from server 0's view"
    );
    let incarnation = view.entry(&victim).map(|e| e.incarnation);
    assert_eq!(incarnation, Some(2), "{label}: genesis, then the revive");
    audit_fleet(fleet, label);
}

fn seeds() -> Vec<u64> {
    churn_seeds(&[0x5CE0, 0x5CE1, 0x5CE2])
}

#[test]
fn one_scenario_on_the_simulator() {
    for seed in seeds() {
        let mut cluster = Cluster::new(seed, DvvSetMechanism, cluster_config());
        assert!(cluster.run(), "seed {seed}: clients left unfinished");
        // Past the last step, with time to re-admit and repair.
        let (last, _) = *scenario().steps().last().expect("a step");
        let past = last + Duration::from_secs(2);
        let now = cluster.sim().now().as_micros();
        cluster.run_for(Duration::from_micros(past.as_micros().saturating_sub(now)));
        assert_eq!(cluster.crashed_slots(), [], "seed {seed}");
        audit(&mut cluster, &format!("cluster seed {seed}"));
    }
}

#[test]
fn one_scenario_on_threads() {
    for seed in seeds() {
        let label = format!("threads seed {seed}");
        let mut fleet = RuntimeFleet::new(seed, DvvSetMechanism, runtime_config());
        let report = fleet
            .run()
            .unwrap_or_else(|stall| panic!("{label} stalled:\n{stall}"));
        assert!(report.all_done, "{label}: clients left unfinished");
        audit(&mut fleet, &label);
    }
}

/// The first socket run that crashes a server.
#[test]
fn one_scenario_on_sockets() {
    for seed in seeds() {
        let label = format!("sockets seed {seed}");
        let mut fleet = SocketFleet::new(seed, DvvSetMechanism, runtime_config());
        let report = fleet
            .run()
            .unwrap_or_else(|stall| panic!("{label} stalled:\n{stall}"));
        assert!(report.all_done, "{label}: clients left unfinished");
        let fabric = fleet.fabric_report();
        assert!(fabric.reconnects > 0, "{label}: the cut never landed");
        audit(&mut fleet, &label);
    }
}

fn threads_with(steps: impl IntoIterator<Item = (Duration, Step)>) {
    let config = RuntimeConfig {
        scenario: Scenario::new(steps),
        ..RuntimeConfig::default()
    };
    let _ = RuntimeFleet::new(1, DvvSetMechanism, config);
}

fn sockets_with(steps: impl IntoIterator<Item = (Duration, Step)>) {
    let config = RuntimeConfig {
        scenario: Scenario::new(steps),
        ..RuntimeConfig::default()
    };
    let _ = SocketFleet::new(1, DvvSetMechanism, config);
}

const MS_10: Duration = Duration::from_millis(10);
const MS_20: Duration = Duration::from_millis(20);

#[test]
#[should_panic(expected = "not a server")]
fn a_kill_of_a_non_server_is_refused() {
    // Node 3 is the first client of a three-server fleet.
    threads_with([(MS_10, Step::Kill(3)), (MS_20, Step::Revive(3))]);
}

#[test]
#[should_panic(expected = "killed and never revived")]
fn a_kill_without_a_later_revive_is_refused() {
    let config = ClusterConfig {
        scenario: Scenario::new([(MS_10, Step::Kill(1))]),
        ..ClusterConfig::default()
    };
    let _ = Cluster::new(1, DvvSetMechanism, config);
}

#[test]
#[should_panic(expected = "revived but not down")]
fn a_revive_before_its_kill_is_refused() {
    threads_with([(MS_20, Step::Kill(1)), (MS_10, Step::Revive(1))]);
}

#[test]
#[should_panic(expected = "killed twice")]
fn a_second_kill_of_one_server_is_refused() {
    let ms = Duration::from_millis;
    threads_with([
        (ms(10), Step::Kill(1)),
        (ms(20), Step::Revive(1)),
        (ms(30), Step::Kill(1)),
        (ms(40), Step::Revive(1)),
    ]);
}

#[test]
#[should_panic(expected = "unknown node 11")]
fn a_cut_of_an_unknown_node_is_refused() {
    // Three servers and eight clients: nodes 0 to 10.
    sockets_with([(MS_10, Step::CutConn(11))]);
}

#[test]
#[should_panic(expected = "without a network")]
fn faults_on_threads_without_a_network_are_refused() {
    threads_with([(MS_10, Step::Faults(LinkFaults::hostile()))]);
}

#[test]
#[should_panic(expected = "without a network")]
fn faults_on_sockets_without_a_network_are_refused() {
    sockets_with([(MS_10, Step::Faults(LinkFaults::hostile()))]);
}
