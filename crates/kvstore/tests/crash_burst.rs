//! Crash-mid-burst: the scenario the dot-reuse epoch guard exists for.
//!
//! A replica is killed in the middle of a write burst under *group-sync*
//! durability (`LogConfig::default()` — the crash loses the un-synced
//! log tail) while every link duplicates, reorders and stale-replays
//! traffic ([`LinkFaults::hostile`], installed through the run's
//! scenario). The victim restarts from its truncated log and the
//! fleet must converge unaided and pass the full audit stack — one ring
//! view, pairwise AAE equivalence, zero residuals, a no-loss
//! `surviving_union`, an anomaly-free oracle, **and the fleet-wide
//! dot-uniqueness census** in both of its forms:
//!
//! * the *live* census ([`FleetHarness::dot_census`]), sampled in
//!   flight through the post-restart window — a collision among live
//!   states is transient, because any later write whose context saw
//!   the dot dominates *both* bearers and erases the evidence;
//! * the *historical* census over the durable log files
//!   ([`assert_dot_unique_in_logs`]) — append-only logs don't forget,
//!   so a re-minted dot is convicted even after domination hides it
//!   from every live state.
//!
//! ## Why the recovery window is shaped the way it is
//!
//! Dot reuse needs a write whose context has *forgotten* the victim's
//! escaped dots — and the protocol accidentally shields the victim from
//! ever seeing one. Clients accumulate session contexts (every put
//! context covers every dot the session ever read), the survivor's
//! `w = 2` replication fan-out re-teaches the victim its own past
//! within a round-trip of the restart, and a server mints above the
//! put-context's component for its own actor. All three shields are
//! *luck*, not a guarantee: none of them survives a frame minted from
//! genuinely stale knowledge. The schedule manufactures exactly that
//! frame from faults the adversarial network already models:
//!
//! * a **half-open partition** through the recovery window — the
//!   survivor's frames to the victim are lost (its replication fan-out
//!   cannot re-seed the victim's counter) while the victim's frames
//!   out are delivered (its fresh mints still escape to the
//!   survivor's log);
//! * a **stale-replay storm** around the restart instant — replayed
//!   pre-crash client frames land on the recovered victim *before*
//!   current traffic (the replay delay undercuts the link latency),
//!   and among them are puts whose contexts predate most of the burst.
//!   The victim's duplicate-write dedupe died with it, so a replayed
//!   put coordinates a fresh mint from a stale context — the epoch
//!   guard's floor is the only thing standing between that mint and a
//!   counter the survivor already holds for a different write.
//!
//! The companion regression test runs the identical schedules with
//! `dot_guard: false` and demonstrates the pre-guard code *does*
//! re-mint escaped dots — the hazard is real, the suite is not vacuous,
//! and the guard closes precisely this hole.

use dvv::mechanisms::DvvMechanism;
use kvstore::cluster::{Cluster, ClusterConfig, EngineFactory};
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::harness::{
    assert_dot_unique, assert_dot_unique_in_logs, audit_fleet, dot_census_in_logs, FleetHarness,
};
use simnet::{Duration, LinkFaults, NodeId, Scenario, Step};
use storage::LogConfig;
use workloads::churn_seeds;

// The census walks sibling dots, so the suite runs the paper's
// mechanism (per-sibling dotted version vectors) — `DvvSetMechanism`
// identifies siblings positionally and has no per-value dots to audit.
type M = DvvMechanism;

const SERVERS: usize = 2;
const VICTIM: usize = 1;
const SURVIVOR: usize = 0;

/// Crash 10ms into the burst; restart after a 60ms outage — longer than
/// the request timeout, so every operation in flight at the crash (still
/// carrying a context that remembers the escaped dots) expires before
/// the victim returns.
const CRASH_AT: Duration = Duration::from_millis(10);
const OUTAGE: Duration = Duration::from_millis(60);

/// The stale-replay storm installed around the restart: nearly every
/// delivery re-surfaces a captured pre-crash frame, and the replay
/// delay undercuts the 500µs link latency so the stale copy arrives
/// *first* — the recovered victim meets its own forgotten past before
/// it meets the present.
fn recovery_storm() -> LinkFaults {
    LinkFaults {
        replay_probability: 0.9,
        replay_delay: Duration::from_micros(50),
        ..LinkFaults::hostile()
    }
}

/// One hot key on a two-server ring, coordinated with `r = 1`: reads
/// consult only the coordinator, so a freshly restarted victim hands
/// out contexts that have forgotten its own escaped dots. `w = 2`
/// keeps the no-loss oracle honest (every acked write has a live copy
/// on the survivor). Anti-entropy is slowed so the protocol cannot
/// quietly re-fill the victim before it coordinates again — recovery
/// must be *safe*, not lucky.
fn burst_config() -> ClusterConfig {
    ClusterConfig {
        servers: SERVERS,
        clients: 4,
        cycles_per_client: 60,
        store: StoreConfig {
            n: 2,
            r: 1,
            w: 2,
            anti_entropy_interval: Duration::from_millis(800),
            handoff_interval: Duration::from_millis(1_000),
            gossip_interval: Duration::from_millis(25),
            ..StoreConfig::default()
        },
        client: ClientConfig {
            key_count: 1,
            think_time: Duration::from_millis(2),
            request_timeout: Duration::from_millis(40),
            // No retries: a retried put re-sends its pre-crash context,
            // which re-seeds the restarted victim's counter past every
            // escaped dot before any amnesiac write can expose reuse —
            // the workload must not accidentally shield the guard.
            max_retries: 0,
            ..ClientConfig::default()
        },
        // Hostile from the first event; the replay storm brackets the
        // restart instant; clean again at 10s so the post-burst quiesce
        // also exercises a multi-phase schedule.
        scenario: Scenario::new([
            (Duration::ZERO, Step::Faults(LinkFaults::hostile())),
            (Duration::from_millis(69), Step::Faults(recovery_storm())),
            (
                Duration::from_millis(300),
                Step::Faults(LinkFaults::hostile()),
            ),
            (Duration::from_secs(10), Step::Faults(LinkFaults::default())),
        ]),
        deadline: Duration::from_secs(2_000),
        ..ClusterConfig::default()
    }
}

/// Runs one crash-mid-burst schedule: kill the victim 10ms into the
/// burst — right after its first mints escaped to the survivor but long
/// before the group-sync log's 64-record sync point, so the restart
/// rolls its counters all the way back — then recover it into the
/// half-open partition + replay storm described in the module docs, and
/// let the sessions finish against the recovered fleet, sampling the
/// live census every 10ms through the post-restart window. Returns the
/// cluster (un-quiesced, engines synced), whether the victim had minted
/// before the crash, the peak in-flight collision count, and the log
/// directory for the historical census.
fn run_crash_burst(seed: u64, guard: bool) -> (Cluster<M>, bool, usize, std::path::PathBuf) {
    let dir = storage::scratch_dir("crash-burst");
    let mut cfg = burst_config();
    cfg.store.dot_guard = guard;
    let factory = EngineFactory::<M>::log_in(&dir, LogConfig::default());
    let mut c = Cluster::new_durable(seed, DvvMechanism, cfg, factory);
    c.run_for(CRASH_AT);
    // Whether the victim coordinated any mint pre-crash (its reservation
    // ceiling moved): only then did dots escape, and only then must the
    // recovery path have engaged the guard.
    let minted_before = c.server(VICTIM).dot_guard_state().1 > 0;
    c.crash_node(VICTIM);
    c.run_for(OUTAGE);
    c.restart_node(VICTIM);
    // Half-open partition: survivor→victim lost, victim→survivor fine.
    c.sim_mut()
        .network_mut()
        .block_link(NodeId(SURVIVOR as u32), NodeId(VICTIM as u32));
    let mut peak = 0;
    for _ in 0..5 {
        c.run_for(Duration::from_millis(10));
        peak = peak.max(census_collisions(&c));
    }
    c.sim_mut()
        .network_mut()
        .unblock_link(NodeId(SURVIVOR as u32), NodeId(VICTIM as u32));
    for _ in 0..40 {
        c.run_for(Duration::from_millis(10));
        peak = peak.max(census_collisions(&c));
    }
    assert!(c.run(), "seed {seed}: sessions must finish after recovery");
    peak = peak.max(census_collisions(&c));
    for slot in 0..SERVERS {
        c.sync_server_storage(slot); // buffered records into the files
    }
    (c, minted_before, peak, dir)
}

/// Dots currently tagging more than one distinct write across the live
/// states — non-zero only while both bearers of a re-minted dot are
/// still undominated somewhere in the fleet.
fn census_collisions(c: &Cluster<M>) -> usize {
    c.dot_census().values().filter(|ids| ids.len() > 1).count()
}

/// With the epoch guard on (the default), every crash-mid-burst
/// schedule audits clean: no acked write lost, replicas AAE-equivalent,
/// no residual copies, anomaly-free — and every dot names exactly one
/// write, in every in-flight sample of the live states *and* across the
/// full durable log histories.
#[test]
fn crash_mid_burst_under_hostile_net_audits_clean_across_seeds() {
    for seed in churn_seeds(&[13, 37, 59]) {
        let (mut c, minted_before, peak, dir) = run_crash_burst(seed, true);
        let label = format!("crash-burst seed {seed}");

        // Zero collisions at every in-flight slice, not just at the end
        // (the end state hides transient collisions by domination).
        assert_eq!(peak, 0, "{label}: dot collision observed in flight");

        // If any dot escaped pre-crash the guard must have engaged:
        // recovery bumps the incarnation epoch (genesis is 0) and floors
        // minting above the recovered reservation, so the victim's
        // post-restart mints are provably from a later reservation.
        let (epoch, ceiling, floor) = c.server(VICTIM).dot_guard_state();
        if minted_before {
            assert!(epoch >= 1, "{label}: recovery must bump the dot epoch");
            assert!(floor > 0, "{label}: recovery must floor minting");
        }
        assert!(
            ceiling >= floor,
            "{label}: reservation ceiling below its floor"
        );

        // The strong form: nothing ever durably applied, on any slot,
        // reused a dot — audited before any harness convergence writes
        // into the engines.
        assert_dot_unique_in_logs(c.mechanism(), &dir, 0..SERVERS, &label);
        assert_dot_unique(&c, &label);

        // Unaided convergence: AAE + handoff + gossip only.
        c.run_for(Duration::from_secs(30));

        // No acked write lost, fleet-wide (pre-converge union).
        let oracle = c.oracle();
        for key in oracle.keys() {
            let (lost, _) = oracle.audit_key(&key, &c.surviving_union(&key));
            assert_eq!(lost, 0, "{label}: acked write lost on {key:?}");
        }

        // Full stack: one view, AAE-equivalence, residuals, dot census
        // again on the settled states, then converge + oracle.
        audit_fleet(&mut c, &label);
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The committed regression the tentpole demands: with `dot_guard:
/// false` the *same* schedules re-mint dots that escaped before the
/// crash. The victim's group-sync log loses the whole burst prefix, its
/// counters roll back to zero, and its first post-restart coordinations
/// — stale-replayed pre-crash puts whose contexts predate most of the
/// burst — re-mint `(victim, c)` pairs the survivor's log already holds
/// for different writes. The historical census convicts the reuse even
/// though the live states have long dominated both bearers away — and
/// the guard (same seeds, same timing) makes every collision vanish.
#[test]
fn dot_guard_disabled_reuses_escaped_dots() {
    let seeds = [13, 37, 59];
    let mut collisions = 0usize;
    for seed in seeds {
        let (c, _, _peak, dir) = run_crash_burst(seed, false);
        collisions += dot_census_in_logs(c.mechanism(), &dir, 0..SERVERS)
            .expect("scan log histories")
            .values()
            .filter(|ids| ids.len() > 1)
            .count();
        std::fs::remove_dir_all(dir).ok();
    }
    assert!(
        collisions > 0,
        "pre-guard code must exhibit dot reuse on at least one schedule \
         (seeds {seeds:?}) — if this starts passing, the crash window \
         no longer rolls counters back and the suite lost its teeth"
    );
}
