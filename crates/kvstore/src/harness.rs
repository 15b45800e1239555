//! [`FleetHarness`]: one measurement-and-audit surface for every driver.
//!
//! Three drivers host the same protocol logic in one [`simnet::Host`] —
//! the deterministic simulator ([`crate::cluster::Cluster`]), the
//! threaded in-process runtime (`runtime::RuntimeFleet`) and the socket
//! driver (`transport::SocketFleet`). Each used to hand-copy the
//! measurement surface (`oracle` / `converge` / `anomaly_report` / …),
//! and every copy was a place for the audits to drift apart. This trait
//! inverts that: a driver provides *accessors* (which servers are
//! members, how to reach a node, which view the audit runs against) and
//! inherits the whole surface as provided methods — one implementation,
//! shared verbatim by every present and future driver.
//!
//! The free functions at the bottom ([`audit_fleet`] and its parts) are
//! the conformance audit stack the cross-driver suites assert: one ring
//! view, pairwise AAE equivalence, zero residual copies, oracle-clean
//! convergence. They are deliberately library code, not test code, so
//! the simnet, threaded and socket suites all call the same functions.

use std::collections::{BTreeMap, BTreeSet};

use dvv::mechanisms::{Mechanism, WireMechanism};
use dvv::ReplicaId;
use ring::RingView;

use crate::client::ClientNode;
use crate::cluster::LatencyReport;
use crate::messages::WireStats;
use crate::node::StoreNode;
use crate::oracle::{AnomalyReport, Oracle};
use crate::value::{Key, StampedValue, WriteId};

/// A fleet of store servers and closed-loop clients, post-run: the
/// driver-agnostic audit and measurement surface.
///
/// Implementors provide the accessor methods; the measurement surface
/// (`oracle`, `converge`, `anomaly_report`, `residual_copies`,
/// `latency_report`, `wire_report`) comes as provided methods so every
/// driver shares one implementation.
///
/// Server indices are driver-level slot indices: `server_ref(i)` must
/// accept every index in [`FleetHarness::member_servers`] (and
/// [`FleetHarness::ledger_servers`]), and slot `i` hosts replica
/// `ReplicaId(i)` — the invariant every driver maintains.
pub trait FleetHarness<M: Mechanism<StampedValue>> {
    /// The causality mechanism the fleet runs.
    fn mechanism(&self) -> &M;

    /// The server slots currently in the ring and up, ascending: a
    /// crashed server's slot holds no node to read. Audits span exactly
    /// these.
    fn member_servers(&self) -> Vec<usize>;

    /// The server slots, up, whose wire ledgers
    /// [`FleetHarness::wire_report`] folds. Defaults to the members; a
    /// driver that keeps retired nodes' ledgers around (the simulator's
    /// dormant spares still gossip) widens this.
    fn ledger_servers(&self) -> Vec<usize> {
        self.member_servers()
    }

    /// Number of client sessions.
    fn client_count(&self) -> usize;

    /// Read access to server `i`'s store node.
    fn server_ref(&self, i: usize) -> &StoreNode<M>;

    /// Mutable access to server `i`'s store node (harness convergence).
    fn server_mut_ref(&mut self, i: usize) -> &mut StoreNode<M>;

    /// Read access to client `j`'s session node.
    fn client_ref(&self, j: usize) -> &ClientNode<M>;

    /// The ring view ownership audits run against — the driver's
    /// canonical membership (control-plane view, or genesis view plus
    /// applied membership events).
    fn audit_view(&self) -> &RingView<ReplicaId>;

    // ---- provided: the one measurement surface ----

    /// Builds the ground-truth oracle from all client write logs.
    fn oracle(&self) -> Oracle {
        Oracle::from_logs((0..self.client_count()).flat_map(|j| self.client_ref(j).write_log()))
    }

    /// Deterministically merges every key across all member servers
    /// until a fixpoint — the "infinite anti-entropy" end state the
    /// oracle audits are defined against. Bypasses the network
    /// (test-harness operation).
    fn converge(&mut self) {
        let mech = self.mechanism().clone();
        let members = self.member_servers();
        loop {
            let mut global: BTreeMap<Key, M::State> = BTreeMap::new();
            for &i in &members {
                for (k, st) in self.server_ref(i).data() {
                    let entry = global.entry(k.clone()).or_default();
                    mech.merge(entry, st);
                }
            }
            let mut changed = false;
            for &i in &members {
                let s = self.server_mut_ref(i);
                for (k, st) in &global {
                    let before = s.data().get(k).cloned();
                    s.merge_state_direct(k, st);
                    if s.data().get(k) != before.as_ref() {
                        changed = true;
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// The surviving write ids for `key` at server `i` (tombstones
    /// included — they are writes).
    fn surviving_at(&self, i: usize, key: &[u8]) -> BTreeSet<WriteId> {
        match self.server_ref(i).data().get(key) {
            None => BTreeSet::new(),
            Some(st) => {
                let (values, _) = self.mechanism().read(st);
                values.into_iter().map(|v| v.id).collect()
            }
        }
    }

    /// Audits the converged store against the oracle. Call after the
    /// run plus [`FleetHarness::converge`].
    fn anomaly_report(&self) -> AnomalyReport {
        let oracle = self.oracle();
        let mut report = AnomalyReport::default();
        for j in 0..self.client_count() {
            for e in self.client_ref(j).write_log() {
                report.total_writes += 1;
                if e.acked {
                    report.acked_writes += 1;
                }
            }
        }
        let audit_slot = *self
            .member_servers()
            .first()
            .expect("at least one member server");
        for key in oracle.keys() {
            report.keys += 1;
            let surviving = self.surviving_at(audit_slot, &key);
            report.surviving_values += surviving.len() as u64;
            let (lost, fc) = oracle.audit_key(&key, &surviving);
            report.lost_updates += lost;
            report.false_concurrency += fc;
        }
        report
    }

    /// The residual-copy audit: every `(member slot, key)` pair where a
    /// member holds a key outside the key's current preference list.
    /// Must be empty after a quiescent period.
    fn residual_copies(&self) -> Vec<(usize, Key)> {
        let members = self.member_servers();
        let first = *members.first().expect("at least one member server");
        let config = self.server_ref(first).config();
        let (n, vnodes) = (config.n, config.vnodes);
        let ring = self.audit_view().to_ring(vnodes);
        let mut out = Vec::new();
        for i in members {
            let me = ReplicaId(i as u32);
            for key in self.server_ref(i).data().keys() {
                if !ring.preference_list(key, n).contains(&me) {
                    out.push((i, key.clone()));
                }
            }
        }
        out
    }

    /// Fleet-wide dot census: every `(key, actor, counter)` triple
    /// tagging a live value on any member server, mapped to the set of
    /// distinct write ids it tags. A dot is the *identity* of a write —
    /// the whole mechanism rests on one dot naming one write — so every
    /// set must be a singleton. Two ids under one dot is the dot-reuse
    /// corruption the epoch guard exists to prevent (a post-crash node
    /// re-minting a counter that already escaped to a peer).
    ///
    /// Audit this **before** [`FleetHarness::converge`]: merge dedupes
    /// *by dot*, so converging first silently collapses exactly the
    /// collision this census exists to catch.
    fn dot_census(&self) -> BTreeMap<(Key, ReplicaId, u64), BTreeSet<WriteId>> {
        let mech = self.mechanism();
        let mut census: BTreeMap<(Key, ReplicaId, u64), BTreeSet<WriteId>> = BTreeMap::new();
        for i in self.member_servers() {
            for (key, st) in self.server_ref(i).data() {
                for ((actor, counter), v) in mech.dot_map(st) {
                    census
                        .entry((key.clone(), actor, counter))
                        .or_default()
                        .insert(v.id);
                }
            }
        }
        census
    }

    /// Aggregates all clients' latency statistics.
    fn latency_report(&self) -> LatencyReport {
        let mut out = LatencyReport::default();
        for j in 0..self.client_count() {
            let s = self.client_ref(j).stats();
            out.get.merge(&s.get_latency);
            out.put.merge(&s.put_latency);
            out.failed_cycles += s.failed_cycles;
            out.retries += s.retries;
        }
        out
    }

    /// Sums every node's per-class wire counters — the fleet-wide
    /// bytes-on-the-wire ledger.
    fn wire_report(&self) -> WireStats {
        let mut out = WireStats::default();
        for i in self.ledger_servers() {
            out.absorb(&self.server_ref(i).wire_stats());
        }
        for j in 0..self.client_count() {
            out.absorb(&self.client_ref(j).wire_stats());
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The cross-driver conformance audit stack.

/// Asserts every member server gossiped to one ring view.
///
/// # Panics
///
/// Panics (with `label`) if any two members' view digests differ.
pub fn assert_one_view<M, H>(fleet: &H, label: &str)
where
    M: Mechanism<StampedValue>,
    H: FleetHarness<M> + ?Sized,
{
    let members = fleet.member_servers();
    let first = *members.first().expect("at least one member server");
    let digest0 = fleet.server_ref(first).view_digest();
    for &i in &members {
        assert_eq!(
            fleet.server_ref(i).view_digest(),
            digest0,
            "{label}: server {i} view digest diverged"
        );
    }
}

/// Asserts each member pair's shared Merkle summaries agree
/// leaf-for-leaf — the anti-entropy definition of "replicas converged".
/// On a mismatch, panics with per-key diffs and per-server AAE counters.
///
/// # Panics
///
/// Panics (with `label` and diagnostics) on any divergent pair.
pub fn assert_aae_equivalent<M, H>(fleet: &H, label: &str)
where
    M: Mechanism<StampedValue>,
    H: FleetHarness<M> + ?Sized,
{
    let members = fleet.member_servers();
    for (x, &i) in members.iter().enumerate() {
        for &j in &members[x + 1..] {
            let a = fleet
                .server_ref(i)
                .rebuild_shared_summary(ReplicaId(j as u32));
            let b = fleet
                .server_ref(j)
                .rebuild_shared_summary(ReplicaId(i as u32));
            if a.leaves() == b.leaves() {
                continue;
            }
            let al: BTreeMap<_, _> = a.leaves().into_iter().collect();
            let bl: BTreeMap<_, _> = b.leaves().into_iter().collect();
            let mut detail = String::new();
            for (k, h) in &al {
                if bl.get(k) != Some(h) {
                    detail.push_str(&format!(
                        "\n  key {:?}: {i}={:?} vs {j}={:?}",
                        String::from_utf8_lossy(k),
                        fleet.server_ref(i).data().get(k),
                        fleet.server_ref(j).data().get(k),
                    ));
                }
            }
            for k in bl.keys() {
                if !al.contains_key(k) {
                    detail.push_str(&format!(
                        "\n  key {:?}: missing on {i}",
                        String::from_utf8_lossy(k)
                    ));
                }
            }
            let diag: Vec<String> = members
                .iter()
                .map(|&s| {
                    let st = fleet.server_ref(s).stats();
                    format!(
                        "server {s}: rounds={} divergent={}",
                        st.aae_rounds, st.aae_divergent
                    )
                })
                .collect();
            panic!(
                "{label}: servers {i}/{j} not AAE-equivalent\n{}\ndiffering keys:{detail}",
                diag.join("\n")
            );
        }
    }
}

/// Asserts no member holds a key outside its preference list.
///
/// # Panics
///
/// Panics (with `label`) listing any residual copies.
pub fn assert_no_residuals<M, H>(fleet: &H, label: &str)
where
    M: Mechanism<StampedValue>,
    H: FleetHarness<M> + ?Sized,
{
    let residuals = fleet.residual_copies();
    assert!(
        residuals.is_empty(),
        "{label}: residual copies after quiesce: {residuals:?}"
    );
}

/// Asserts the fleet-wide dot-uniqueness invariant: no
/// `(key, actor, counter)` triple tags two distinct writes anywhere in
/// the fleet ([`FleetHarness::dot_census`]). Runs against the raw
/// pre-converge states — the only place a dot collision is still
/// observable, since merge dedupes by dot.
///
/// # Panics
///
/// Panics (with `label`) listing every colliding dot and the write ids
/// it tags.
pub fn assert_dot_unique<M, H>(fleet: &H, label: &str)
where
    M: Mechanism<StampedValue>,
    H: FleetHarness<M> + ?Sized,
{
    let collisions: Vec<String> = fleet
        .dot_census()
        .into_iter()
        .filter(|(_, ids)| ids.len() > 1)
        .map(|((key, actor, counter), ids)| {
            format!(
                "\n  key {:?} dot ({actor:?}, {counter}) tags {} writes: {ids:?}",
                String::from_utf8_lossy(&key),
                ids.len()
            )
        })
        .collect();
    assert!(
        collisions.is_empty(),
        "{label}: dot reused for distinct writes (minting collided across a crash?):{}",
        collisions.join("")
    );
}

/// Fleet-wide dot census over the *durable log histories* under `dir`
/// (the [`crate::cluster::EngineFactory::log_in`] layout, one
/// `node-<slot>.log` per server): every `(key, actor, counter)` triple
/// tagging a value in any put record ever durably applied by any slot,
/// mapped to the distinct write ids it tagged.
///
/// This is the census's strong form. The live-state census
/// ([`FleetHarness::dot_census`]) only sees a collision while both
/// bearers are live — a re-minted dot's first bearer is usually
/// *dominated* (any later write whose context saw the dot discards
/// both values) before a quiesced fleet can be audited, erasing the
/// evidence and leaving a silently lost acked write. Append-only logs
/// don't forget: the first bearer sits in the survivor's history, the
/// re-mint in the recovered node's, and the union convicts. Sync every
/// engine first (buffered records aren't in the files).
///
/// # Errors
///
/// Propagates I/O errors from reading the log files; a missing file is
/// an empty history (a slot that never synced).
pub fn dot_census_in_logs<M>(
    mech: &M,
    dir: &std::path::Path,
    slots: impl IntoIterator<Item = usize>,
) -> std::io::Result<BTreeMap<(Key, ReplicaId, u64), BTreeSet<WriteId>>>
where
    M: WireMechanism<StampedValue>,
{
    let mut census: BTreeMap<(Key, ReplicaId, u64), BTreeSet<WriteId>> = BTreeMap::new();
    for slot in slots {
        let path = dir.join(format!("node-{slot}.log"));
        for (key, st) in storage::scan_history::<M::State>(&path)? {
            for ((actor, counter), v) in mech.dot_map(&st) {
                census
                    .entry((key.clone(), actor, counter))
                    .or_default()
                    .insert(v.id);
            }
        }
    }
    Ok(census)
}

/// Asserts dot uniqueness over the durable log histories
/// ([`dot_census_in_logs`]) — no `(key, actor, counter)` triple may
/// ever have tagged two distinct writes, across everything any slot
/// durably applied.
///
/// # Panics
///
/// Panics (with `label`) listing every colliding dot, or on log I/O
/// errors.
pub fn assert_dot_unique_in_logs<M>(
    mech: &M,
    dir: &std::path::Path,
    slots: impl IntoIterator<Item = usize>,
    label: &str,
) where
    M: WireMechanism<StampedValue>,
{
    let census = dot_census_in_logs(mech, dir, slots).expect("scan log histories");
    let collisions: Vec<String> = census
        .into_iter()
        .filter(|(_, ids)| ids.len() > 1)
        .map(|((key, actor, counter), ids)| {
            format!(
                "\n  key {:?} dot ({actor:?}, {counter}) tagged {} writes: {ids:?}",
                String::from_utf8_lossy(&key),
                ids.len()
            )
        })
        .collect();
    assert!(
        collisions.is_empty(),
        "{label}: dot re-minted for distinct writes across the log histories:{}",
        collisions.join("")
    );
}

/// Converges the fleet and asserts the oracle audit is clean: zero lost
/// updates, zero false concurrency, and at least one acked write (an
/// all-failed workload would pass the other audits vacuously).
///
/// # Panics
///
/// Panics (with `label`) on any oracle anomaly.
pub fn assert_oracle_clean<M, H>(fleet: &mut H, label: &str)
where
    M: Mechanism<StampedValue>,
    H: FleetHarness<M> + ?Sized,
{
    fleet.converge();
    let anomalies = fleet.anomaly_report();
    assert_eq!(
        anomalies.lost_updates, 0,
        "{label}: lost updates: {anomalies:?}"
    );
    assert_eq!(
        anomalies.false_concurrency, 0,
        "{label}: false concurrency: {anomalies:?}"
    );
    assert!(anomalies.acked_writes > 0, "{label}: no writes acked");
}

/// The full cross-driver conformance audit stack, in dependency order:
/// one ring view, pairwise AAE equivalence, zero residual copies,
/// fleet-wide dot uniqueness, then the destructive harness converge
/// plus oracle audit. Residuals and dot uniqueness are audited *before*
/// the converge, which fabricates residuals and collapses dot
/// collisions by design.
///
/// # Panics
///
/// Panics (with `label`) on the first failed audit.
pub fn audit_fleet<M, H>(fleet: &mut H, label: &str)
where
    M: Mechanism<StampedValue>,
    H: FleetHarness<M> + ?Sized,
{
    assert_one_view(fleet, label);
    assert_aae_equivalent(fleet, label);
    assert_no_residuals(fleet, label);
    assert_dot_unique(fleet, label);
    assert_oracle_clean(fleet, label);
}
