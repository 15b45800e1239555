//! [`StoreNode`]: a replica server — ownership-aware request
//! coordination, replication, read repair, anti-entropy, hinted handoff,
//! and elastic membership (live join/leave with key-range transfer,
//! disseminated by epidemic ring-view gossip).

use std::collections::{BTreeMap, BTreeSet};

use dvv::mechanisms::{Mechanism, WriteOrigin};
use dvv::{ClientId, ReplicaId};
use ring::{HashRing, MemberStatus, RingView};
use simnet::{NodeId, SimTime};

use crate::config::StoreConfig;
use crate::ctx::{Ctx, Timer};
use crate::data::DataStore;
use crate::merkle::{fingerprint, MerkleSummary};
use crate::messages::{Msg, MsgClass, ReqId, WireStats};
use crate::value::{Key, StampedValue, WriteId};

/// Period of the push timer while anything is owed, and how long a
/// [`MsgClass::Transfer`] push stays in flight before it is sent again
/// (a [`MsgClass::Handoff`] push waits `StoreConfig::handoff_interval`).
const PUSH_RETRY_INTERVAL: simnet::Duration = simnet::Duration::from_millis(25);

/// Counter headroom each dot reservation covers: one reservation fsync
/// amortises over this many mints.
pub const DOT_HEADROOM: u64 = 1024;
const _: () = assert!(
    DOT_HEADROOM > 0,
    "the dot guard needs positive counter headroom"
);

/// Counters a server maintains for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// GETs coordinated to success.
    pub gets_ok: u64,
    /// PUTs coordinated to success.
    pub puts_ok: u64,
    /// Requests that timed out waiting for a quorum.
    pub quorum_timeouts: u64,
    /// Read repairs pushed.
    pub read_repairs: u64,
    /// Replica reads ([`Msg::RepGetIf`]) this node answered with
    /// [`Msg::RepGetSame`]: it held what the coordinator held.
    pub rep_reads_same: u64,
    /// Replica reads this node answered with its full state.
    pub rep_reads_full: u64,
    /// Anti-entropy exchanges initiated.
    pub aae_rounds: u64,
    /// Initiated anti-entropy exchanges whose per-arc roots differed.
    pub aae_divergent: u64,
    /// Hinted states handed off to their intended owner.
    pub handoffs: u64,
    /// Requests relayed to the key's first active owner because this
    /// node was not in the key's active preference list.
    pub remote_coordinations: u64,
    /// Range-transfer batches actually sent, retries included (join
    /// donations, leave drains, and residual-copy retirement).
    pub transfers_out: u64,
    /// Range-transfer batches received and merged, duplicate deliveries
    /// of a retried batch included (merging one again changes nothing).
    pub transfers_in: u64,
    /// Ring-view gossip rounds initiated (periodic digests and eager
    /// pushes after adopting a new view).
    pub gossip_rounds: u64,
    /// Client writes refused because their client's write mark already
    /// covers them: a duplicate, a stale replay or a relay that came back
    /// (each would otherwise have minted a spurious fresh dot).
    pub dup_writes_ignored: u64,
}

/// Bookkeeping for one in-flight request. Its coordinator, one of the
/// key's active replicas, gathers answers until a quorum of *distinct*
/// ones is in, replies, then finishes with the stragglers; reads and
/// writes differ only in [`Op`]. A node outside the key's active
/// preference list keeps one too, while it waits for the owner it
/// relayed the request to ([`Op::Relay`]).
#[derive(Debug)]
struct Pending<M: Mechanism<StampedValue>> {
    key: Key,
    client: NodeId,
    expected: usize,
    replied: bool,
    /// The distinct replicas whose answer is in — the coordinator's own
    /// first, then one entry per replica ([`StoreNode::vote`]): its
    /// length is the response count R or W is checked against. With
    /// each, the fingerprint of the state it returned (what read repair
    /// compares; unused for a write's acks).
    seen: Vec<(ReplicaId, u64)>,
    op: Op<M>,
}

/// What a coordinated read and a coordinated write do not share.
#[derive(Debug)]
enum Op<M: Mechanism<StampedValue>> {
    Get {
        acc: M::State,
        /// Fingerprint of the state `acc` started from, sent to the
        /// replicas in [`Msg::RepGetIf`]. `acc` only ever grows from
        /// that snapshot, so a replica that holds exactly it has nothing
        /// to add.
        have: u64,
        /// The substitutions at coordination time, so read repair
        /// pushed to a fallback carries the matching hint.
        subs: Subs,
    },
    Put,
    /// No quorum here: the request went on to the key's first active
    /// owner, whose answer is passed back ([`StoreNode::relay`]).
    Relay {
        /// Whether the relayed request is a GET.
        read: bool,
    },
}

/// The sloppy-quorum substitutions of one coordination: `(intended,
/// fallback)` pairs.
type Subs = Vec<(ReplicaId, ReplicaId)>;

/// The replica `peer` stands in for under `subs`, if any.
fn hint_for(subs: &[(ReplicaId, ReplicaId)], peer: ReplicaId) -> Option<ReplicaId> {
    let sub = subs.iter().find(|(_, fallback)| *fallback == peer);
    sub.map(|(intended, _)| *intended)
}

/// One copy this node owes a peer: the state it holds for a key must
/// reach the target (both are the table's key) and be acknowledged.
/// The state is fingerprinted when a push first carries it; on ack the
/// obligation is met — and a copy this node does not own dropped — only
/// if the state is unchanged. Otherwise the fresher state is pushed
/// again, so no write merged after the snapshot can be lost to a drop.
#[derive(Debug)]
struct Owed {
    /// [`MsgClass::Transfer`] (the range changed owners, or this node is
    /// draining: what a leave waits for) or [`MsgClass::Handoff`] (held
    /// for a replica that was down, or a residual copy).
    class: MsgClass,
    /// The unacknowledged push carrying this key: `(sent_at, push id,
    /// fingerprint of the state first sent under that id)`. A resend
    /// keeps both, so an ack of either vouches for exactly that state.
    flight: Option<(SimTime, u64, u64)>,
}

/// A replica server process.
///
/// Node `i` of the simulation hosts replica `ReplicaId(i)`; clients live
/// on higher node ids. All request coordination follows the Dynamo/Riak
/// pattern; the causality mechanism `M` is the only pluggable part.
///
/// **Only an owner coordinates**: a node runs a request's quorum, its own
/// copy counting toward R/W, only when it appears in the key's active
/// preference list — a dot must be minted from the counter of a replica
/// that stores the key. Any other node relays the request once to the
/// key's first active owner, under its own view digest, and passes that
/// owner's answer back unchanged — so it never substitutes for a real
/// replica, and a node that just left the ring keeps serving stale
/// client requests without polluting its store.
///
/// Ring views spread by **gossip** and are *mergeable*: the control
/// plane posts a changed view ([`Msg::RingEpoch`]) to the change's
/// subject only; every other process learns it from periodic digest
/// exchanges ([`Msg::GossipDigest`]), digests piggybacked on
/// anti-entropy roots, eager pushes after merging a view, and request
/// digests. Views version each member independently ([`RingView`]), so
/// two concurrent changes — announced on different sides of a partition
/// — merge deterministically instead of racing. A node's **lifecycle is
/// a function of its own entry** in the view it merged
/// (`reconcile_self_status`): a spare wakes when a view newly
/// places it on the ring, a member drains when one names it `Leaving`,
/// and a node whose leave-drain timed out, or that was rebuilt after a
/// crash, is re-admitted in band by a fresh `Up` incarnation — whoever
/// delivered the view, never by harness fiat.
///
/// Every copy this node must get to a peer — a range that changed
/// owners, a leave-drain, a hinted write held for a down replica, a
/// residual copy to retire — is an entry of **one obligation table**,
/// served by one flush ([`Msg::Push`] batches per target and class), one
/// settle rule ([`Msg::PushAck`]) and one timer, armed only while
/// something is owed. A range transfer is a hint that a leave waits for.
#[derive(Debug)]
pub struct StoreNode<M: Mechanism<StampedValue>> {
    replica: ReplicaId,
    mech: M,
    config: StoreConfig,
    /// The mergeable membership state this node has gossiped together.
    view: RingView<ReplicaId>,
    /// The hash ring derived from `view` (rebuilt on every view change).
    ring: HashRing<ReplicaId>,
    /// The failure detector's marks: replicas believed down. A replica is
    /// routable iff it is on `ring` and not in here.
    down: BTreeSet<ReplicaId>,
    /// Per-key states plus the persistent ownership-partitioned AAE
    /// index: every mutation sets its key's leaf in its arc's Merkle
    /// summary, so the index is current after every write and
    /// anti-entropy costs O(arcs) instead of a keyspace scan
    /// ([`Self::shared_summary_root`]). Re-partitioned on view changes.
    data: DataStore<M::State>,
    /// Copies owed to peers, by `(target, key)`. The state itself lives
    /// in `data`; this records the obligation. A crash forgets it: the
    /// revived node's re-admission rebuilds it over the keys its log
    /// replayed ([`Self::queue_rebalance`]).
    owed: BTreeMap<(ReplicaId, Key), Owed>,
    /// Next push id: drawn from the node's RNG at this incarnation's
    /// first tracked push — not restarted at 0, so an ack meant for an
    /// earlier incarnation matches nothing — and lazily, so a node that
    /// never owes anything draws nothing.
    next_push: Option<u64>,
    /// Requests in flight, coordinated or relayed. A crash forgets them:
    /// each client's request timeout covers the reply that never comes.
    pending: BTreeMap<ReqId, Pending<M>>,
    /// Whether the anti-entropy and gossip timers run: armed at start or
    /// at the (re-)admission that wakes the node, each re-arms itself.
    periodic_armed: bool,
    /// Whether the push timer is pending.
    push_armed: bool,
    /// Whether this node is a serving cluster member. Spare capacity is
    /// hosted dormant (`false`) and wakes when a view newly places it on
    /// the ring.
    active: bool,
    /// Whether this node is draining its ranges prior to leaving.
    leaving: bool,
    stats: NodeStats,
    /// Per-class bytes/messages this node has put on the wire.
    wire: WireStats,
    /// Dot-reuse epoch guard — this incarnation's number (bumped on
    /// every crash recovery and durably recorded with the reservation):
    /// survives a crash.
    dot_epoch: u64,
    /// Highest dot counter this node has durably reserved: minting past
    /// it fsyncs a new reservation (with headroom) first, so no dot that
    /// escaped to a peer can outlive what the log knows about. Survives a
    /// crash.
    dot_ceiling: u64,
    /// Mint floor: non-zero only after a crash recovery, where it is the
    /// recovered ceiling — every subsequent mint is strictly above it,
    /// making the lost unsynced tail's dots unreachable.
    dot_floor: u64,
    /// Per client, the highest [`WriteId::seq`] this node has coordinated
    /// or relayed ([`Self::note_write`]). Volatile: a crash forgets it,
    /// so a pre-crash `ClientPut` the network replays into the revived
    /// node is coordinated again — the open at-most-once-across-a-crash
    /// hole.
    write_marks: BTreeMap<ClientId, u64>,
}

impl<M: Mechanism<StampedValue>> StoreNode<M> {
    /// Creates the replica server for `replica` on an empty in-memory
    /// storage engine, routing under `view` (the ring is derived from it;
    /// no replica starts marked down).
    pub fn new(
        replica: ReplicaId,
        mech: M,
        config: StoreConfig,
        view: RingView<ReplicaId>,
    ) -> Self {
        Self::with_engine(
            replica,
            mech,
            config,
            view,
            Box::new(storage::MemEngine::new()),
        )
    }

    /// Creates the replica server for `replica` on top of an existing
    /// storage engine — the crash-recovery constructor. The engine
    /// arrives pre-populated (a durable log replays itself on open);
    /// re-partitioning fingerprints the adopted keys into the AAE
    /// index, so the node is immediately AAE-capable over its recovered
    /// contents. The node boots with the genesis `view` it was
    /// originally configured with: everything newer reaches it in band,
    /// starting with the view the control plane posts, which re-admits it
    /// under a fresh incarnation (merging that also arms its periodic
    /// timers — a mid-run node gets no `on_start`).
    pub fn with_engine(
        replica: ReplicaId,
        mech: M,
        config: StoreConfig,
        view: RingView<ReplicaId>,
        engine: Box<dyn storage::StorageEngine<M::State>>,
    ) -> Self {
        config.validate();
        let ring = view.to_ring(config.vnodes);
        let mut data = DataStore::with_engine(engine);
        data.repartition(ring.token_points().collect());
        let mut node = StoreNode {
            replica,
            mech,
            config,
            view,
            ring,
            down: BTreeSet::new(),
            data,
            owed: BTreeMap::new(),
            next_push: None,
            pending: BTreeMap::new(),
            periodic_armed: false,
            push_armed: false,
            active: true,
            leaving: false,
            stats: NodeStats::default(),
            wire: WireStats::default(),
            dot_epoch: 0,
            dot_ceiling: 0,
            dot_floor: 0,
            write_marks: BTreeMap::new(),
        };
        if node.config.dot_guard {
            if let Some((epoch, ceiling)) = node.data.load_reservation() {
                // A previous incarnation reserved up to `ceiling`; under
                // coarse durability the replayed states may sit *below*
                // dots that escaped to peers before the crash. Resume
                // minting strictly above the reservation and bump the
                // incarnation epoch (durably, so a double crash keeps
                // bumping).
                node.dot_epoch = epoch + 1;
                node.dot_ceiling = ceiling;
                node.dot_floor = ceiling;
                node.data.store_reservation(node.dot_epoch, ceiling);
            }
        }
        node
    }

    /// Turns a freshly built node into a dormant one: hosted, but not
    /// serving — a spare slot. It merges views and nothing else, until
    /// one places it on the ring (`reconcile_self_status`). A crashed
    /// server is no node at all: its host's slot is empty until the
    /// revive.
    #[must_use]
    pub fn dormant(mut self) -> Self {
        self.active = false;
        self
    }

    /// This server's replica id.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// The node's store configuration (quorum sizes, intervals, ring
    /// geometry) — harness audits read `n`/`vnodes` from here.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// Per-class wire bytes/messages this node has sent.
    pub fn wire_stats(&self) -> WireStats {
        self.wire
    }

    /// The per-key states this replica currently holds.
    pub fn data(&self) -> &DataStore<M::State> {
        &self.data
    }

    /// Forces the storage engine to make buffered writes durable —
    /// harness hook for graceful-shutdown scenarios (a crash, by
    /// contrast, is modelled by dropping the node *without* syncing,
    /// losing whatever the durability interval had not yet flushed).
    pub fn sync_storage(&mut self) {
        self.data.sync_storage();
    }

    /// The dot-reuse epoch guard's `(incarnation_epoch, counter_ceiling,
    /// mint_floor)` — audit hook for the crash-recovery suites.
    pub fn dot_guard_state(&self) -> (u64, u64, u64) {
        (self.dot_epoch, self.dot_ceiling, self.dot_floor)
    }

    /// Raises `id`'s client mark to `id.seq`; returns `false`, counting a
    /// refusal, when the mark already covers it. Minting is not
    /// idempotent — a write coordinated again would get a *fresh* dot,
    /// resurrecting a superseded value as a sibling — so each client
    /// write is coordinated or relayed at most once, in increasing order.
    /// The mark is exact: a client numbers its writes with one counter,
    /// has one request in flight and stamps a retry with a fresh id, so a
    /// write at or below its mark is a duplicate, a stale replay or a
    /// relay that came back.
    fn note_write(&mut self, id: WriteId) -> bool {
        let mark = self.write_marks.entry(id.client).or_default();
        if id.seq <= *mark {
            self.stats.dup_writes_ignored += 1;
            return false;
        }
        *mark = id.seq;
        true
    }

    /// Coordinates the mechanism write that mints a fresh version,
    /// maintaining the dot-reuse epoch guard: minting is floored at the
    /// recovered counter ceiling, and before a mint may exceed the
    /// durably reserved ceiling a new reservation (with headroom) is
    /// fsynced — strictly before the minted dot escapes in any outgoing
    /// message, which is why this returns before the caller sends.
    fn mint_write(
        &mut self,
        key: &Key,
        origin: WriteOrigin,
        put_ctx: &M::Context,
        value: StampedValue,
    ) -> M::State {
        let mech = &self.mech;
        let floor = if self.config.dot_guard {
            self.dot_floor
        } else {
            0
        };
        let mut minted = None;
        let state = self
            .data
            .mutate(key, |st| {
                minted = mech.write_with_floor(st, origin, put_ctx, value, floor);
            })
            .clone();
        if self.config.dot_guard {
            if let Some(counter) = minted {
                if counter > self.dot_ceiling {
                    self.dot_ceiling = counter + DOT_HEADROOM;
                    self.data
                        .store_reservation(self.dot_epoch, self.dot_ceiling);
                }
            }
        }
        state
    }

    /// Whether this node is currently a serving cluster member.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Monotone version of this node's ring view (sum of member
    /// incarnations — grows with every membership change merged in).
    pub fn ring_epoch(&self) -> u64 {
        self.view.version()
    }

    /// The mergeable membership state this node currently routes under.
    pub fn view(&self) -> &RingView<ReplicaId> {
        &self.view
    }

    /// Digest of this node's ring view; equal digests mean identical
    /// merged membership states (the convergence check).
    pub fn view_digest(&self) -> u64 {
        self.view.digest()
    }

    /// The `(target, key)` obligations of one class.
    fn owed_in(&self, class: MsgClass) -> impl Iterator<Item = &(ReplicaId, Key)> {
        let of_class = move |(entry, o): (_, &Owed)| (o.class == class).then_some(entry);
        self.owed.iter().filter_map(of_class)
    }

    /// Unacknowledged [`MsgClass::Transfer`] obligations (copies).
    pub fn transfer_backlog(&self) -> usize {
        self.owed_in(MsgClass::Transfer).count()
    }

    /// Whether a leave-drain has delivered every owed key range.
    pub fn drain_complete(&self) -> bool {
        self.leaving && self.transfer_backlog() == 0
    }

    /// Direct state merge — used by the test harness's `converge()`, not
    /// by the protocol.
    pub fn merge_state_direct(&mut self, key: &[u8], state: &M::State) {
        let mech = &self.mech;
        self.data.mutate(key, |local| mech.merge(local, state));
    }

    /// Marks a peer down/up in this node's failure detector.
    pub fn set_peer_status(&mut self, peer: ReplicaId, up: bool) {
        if up {
            self.down.remove(&peer);
        } else {
            self.down.insert(peer);
        }
    }

    /// Whether `replica` can be routed to: on the ring and not marked
    /// down.
    fn is_routable(&self, replica: &ReplicaId) -> bool {
        self.ring.nodes().binary_search(replica).is_ok() && !self.down.contains(replica)
    }

    /// The ring's other routable members, ascending — the gossip and
    /// anti-entropy peer candidates.
    fn routable_peers(&self) -> Vec<ReplicaId> {
        let nodes = self.ring.nodes().iter();
        let others = nodes.filter(|p| **p != self.replica && self.is_routable(p));
        others.copied().collect()
    }

    /// Completes a leave after the drain: clears the (fully drained)
    /// store and hint obligations, forgets that its timers run, and
    /// returns to dormancy. The pending timers themselves are the
    /// host's to drop (`simnet::Host::drop_timers`, which the cluster
    /// reaches through `Simulation::drop_timers`).
    ///
    /// # Panics
    ///
    /// Panics if the drain has not completed.
    pub fn finish_leave(&mut self) {
        assert!(self.drain_complete(), "finish_leave before drain completed");
        self.data.clear();
        self.owed.clear();
        self.pending.clear();
        self.periodic_armed = false;
        self.push_armed = false;
        self.leaving = false;
        self.active = false;
    }

    /// Number of hint ([`MsgClass::Handoff`]) obligations currently held.
    pub fn hint_count(&self) -> usize {
        self.owed_in(MsgClass::Handoff).count()
    }

    /// The keys of all currently held hint obligations.
    pub fn hinted_keys(&self) -> Vec<Key> {
        let keys = self.owed_in(MsgClass::Handoff).map(|(_, k)| k.clone());
        keys.collect()
    }

    /// The `(key, intended owner)` pairs of all held hint obligations.
    pub fn hint_obligations(&self) -> Vec<(Key, ReplicaId)> {
        let hints = self.owed_in(MsgClass::Handoff);
        hints.map(|(to, k)| (k.clone(), *to)).collect()
    }

    /// Total causal-metadata bytes across all keys at this replica.
    pub fn metadata_bytes(&self) -> usize {
        self.data.values().map(|s| self.mech.metadata_size(s)).sum()
    }

    /// Removes keys whose every surviving sibling is a tombstone,
    /// returning how many keys were reclaimed. Obligations for reclaimed
    /// keys are purged with them — one without backing data could never
    /// be pushed and would leak forever.
    ///
    /// Dropping a tombstone is only safe once it has reached every
    /// replica (otherwise anti-entropy would resurrect the deleted data
    /// from a replica that never saw the delete) — the caller is
    /// responsible for invoking this after convergence, as
    /// [`crate::cluster::Cluster::collect_garbage`] does.
    pub fn collect_garbage(&mut self) -> usize {
        let dead: Vec<Key> = self
            .data
            .iter()
            .filter(|(_, st)| {
                let (values, _) = self.mech.read(st);
                !values.is_empty() && values.iter().all(|v| v.tombstone)
            })
            .map(|(k, _)| k.clone())
            .collect();
        for k in &dead {
            self.data.remove(k);
        }
        let data = &self.data;
        self.owed.retain(|(_, k), _| data.contains_key(k));
        dead.len()
    }

    /// Mean sibling count across keys (0 when no keys).
    pub fn mean_siblings(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let total: usize = self.data.values().map(|s| self.mech.sibling_count(s)).sum();
        total as f64 / self.data.len() as f64
    }

    /// Whether arc `idx` of the current ring is replicated by both this
    /// node and `peer` — i.e. whether its keys belong in a shared AAE
    /// exchange. Scoping anti-entropy to the shared replica set keeps
    /// AAE from planting copies on nodes that do not own them
    /// (whole-keyspace AAE would slowly turn every node into a replica
    /// of everything, defeating the residual-copy audit).
    fn arc_shared_with(&self, idx: usize, peer: ReplicaId) -> bool {
        let prefs = self.ring.arc_prefs(idx, self.config.n);
        prefs.contains(&self.replica) && prefs.contains(&peer)
    }

    /// Root of the Merkle summary over the keys this node and `peer`
    /// both replicate: the XOR of the cached per-arc roots of the shared
    /// arcs — O(arcs), no keyspace scan, no state rehash.
    fn shared_summary_root(&self, peer: ReplicaId) -> u64 {
        let mut root = 0u64;
        for idx in 0..self.ring.arc_count() {
            if self.arc_shared_with(idx, peer) {
                root ^= self.data.arc_root(idx);
            }
        }
        root
    }

    /// The non-empty shared arcs and their cached roots — the answer to
    /// a shared-root mismatch ([`Msg::AaeArcRoots`]). Empty arcs are
    /// omitted: the receiver iterates its *own* shared arcs and treats a
    /// missing entry as root 0, which is exactly what an empty arc
    /// hashes to, so the comparison stays symmetric under aligned views.
    fn shared_arc_roots(&self, peer: ReplicaId) -> Vec<(u32, u64)> {
        let mut arcs = Vec::new();
        for idx in 0..self.ring.arc_count() {
            if self.arc_shared_with(idx, peer) {
                let root = self.data.arc_root(idx);
                if root != 0 {
                    arcs.push((idx as u32, root));
                }
            }
        }
        arcs
    }

    /// The Merkle summary shared with `peer`, restricted to `arcs` —
    /// the leaves an exchange sends once per-arc roots have narrowed the
    /// divergence down ([`Msg::AaeLeaves`]). Out-of-range or non-shared
    /// arc indices are skipped (they cannot occur under the digest
    /// guard, but a malformed index must not panic the node).
    fn shared_summary_scoped(&self, peer: ReplicaId, arcs: &[u32]) -> MerkleSummary {
        let mut m = MerkleSummary::new();
        for &idx in arcs {
            let idx = idx as usize;
            if idx < self.ring.arc_count() && self.arc_shared_with(idx, peer) {
                if let Some(s) = self.data.arc_summary(idx) {
                    m.extend_from(s);
                }
            }
        }
        m
    }

    /// From-scratch reference implementation of the shared summary: the
    /// pre-cache keyspace scan (per-key hash, uncached ring walk, state
    /// rehash). Used by [`Self::audit_aae_index`] as the equivalence
    /// oracle and by [`crate::harness::assert_aae_equivalent`] as the
    /// convergence check every driver's suites end on.
    pub fn rebuild_shared_summary(&self, peer: ReplicaId) -> MerkleSummary {
        let mut m = MerkleSummary::new();
        for (k, s) in self.data.iter() {
            let prefs = self
                .ring
                .walk_preference_list_at(ring::hash_key(k), self.config.n);
            if prefs.contains(&self.replica) && prefs.contains(&peer) {
                m.set(k.clone(), fingerprint(s));
            }
        }
        m
    }

    /// Audits the incrementally maintained AAE state against a
    /// from-scratch rebuild: the data store's per-arc summaries and
    /// their leaves ([`DataStore::audit_index`]), the arc partition's
    /// agreement with the current ring, and, for every peer, the shared
    /// summary and root the AAE handlers read (`shared_summary_scoped`
    /// over every arc, `shared_summary_root`) against
    /// [`Self::rebuild_shared_summary`]. The index is current after
    /// every write, so this reads the node as it is, at any observation
    /// point. The incremental-vs-rebuild proptest oracle runs this on
    /// every member after arbitrary interleavings of
    /// puts/deletes/GC/transfers/view merges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn audit_aae_index(&self) -> Result<(), String> {
        if self.data.arc_bounds() != self.ring.arc_bounds() {
            return Err(format!(
                "replica {:?}: data partition has {} arcs, ring has {}",
                self.replica,
                self.data.arc_bounds().len(),
                self.ring.arc_count()
            ));
        }
        self.data
            .audit_index()
            .map_err(|e| format!("replica {:?}: {e}", self.replica))?;
        let every_arc: Vec<u32> = (0..self.ring.arc_count() as u32).collect();
        for peer in self.ring.nodes() {
            if *peer == self.replica {
                continue;
            }
            let rebuilt = self.rebuild_shared_summary(*peer);
            let assembled = self.shared_summary_scoped(*peer, &every_arc);
            let root = self.shared_summary_root(*peer);
            if assembled.leaves() != rebuilt.leaves() || root != rebuilt.root() {
                return Err(format!(
                    "replica {:?}: shared summary with {peer:?} diverged \
                     (incremental {} keys root {root}, rebuilt {} keys root {})",
                    self.replica,
                    assembled.len(),
                    rebuilt.len(),
                    rebuilt.root()
                ));
            }
        }
        Ok(())
    }

    /// The node's one send door: charges the message ([`Msg::charge`]),
    /// which records it in this node's ledger, and hands the driver the
    /// same number — so accounting cannot drift per call site or driver.
    fn send(&mut self, ctx: &mut Ctx<'_, M>, to: NodeId, msg: Msg<M>) {
        let bytes = msg.charge(&self.mech, self.config.header_bytes, &mut self.wire);
        ctx.send(to, msg, bytes);
    }

    fn active_replicas(&self, key: &[u8]) -> (Vec<ReplicaId>, Subs) {
        let point = self.key_point(key);
        self.ring
            .sloppy_preference_list_at(point, self.config.n, |r| self.is_routable(r))
    }

    /// The key's ring position. Hashing a (short) key is cheaper than a
    /// tree lookup, so every path hashes: nothing caches a key's point
    /// (see the [`crate::data`] module docs).
    fn key_point(&self, key: &[u8]) -> u64 {
        ring::hash_key(key)
    }

    /// Whether this node is in the preference list at ring position
    /// `point` (allocation-free arc-cache lookup).
    fn owns_point(&self, point: u64) -> bool {
        self.ring
            .preference_list_contains(point, self.config.n, &self.replica)
    }

    /// Whether this node is in the key's current preference list.
    fn owns(&self, key: &[u8]) -> bool {
        self.owns_point(self.key_point(key))
    }

    /// Fingerprint of what this node holds for `key`, an absent key
    /// reading as the empty state — what a conditional replica read
    /// ([`Msg::RepGetIf`]) compares on both ends.
    fn leaf_or_empty(&self, key: &[u8]) -> u64 {
        self.data
            .leaf_of(key)
            .unwrap_or_else(|| fingerprint(&M::State::default()))
    }

    /// Records that this node's copy of `key` must reach `to` and be
    /// acknowledged (see [`Owed`]). An existing obligation keeps its
    /// in-flight push. A transfer request upgrades a handoff entry, never
    /// the reverse: a drain must not report complete while the copy
    /// waits on the slower (or switched-off) class.
    fn owe(&mut self, to: ReplicaId, key: &[u8], class: MsgClass) {
        if to == self.replica {
            return; // the copy is for us — nothing to track
        }
        let fresh = Owed {
            class,
            flight: None,
        };
        let owed = self.owed.entry((to, key.to_vec())).or_insert(fresh);
        if class == MsgClass::Transfer {
            owed.class = class;
        }
    }

    /// Residual-copy retirement: the current primary, to whom a copy held
    /// at ring position `point` without owning it is owed (and dropped
    /// once acknowledged, [`Self::settle_push`]), so copies acquired via
    /// AAE, read repair, or old ownership do not persist on non-owners.
    fn residual_target(&self, point: u64) -> Option<ReplicaId> {
        let primary = self.ring.primary_at(point).copied();
        primary.filter(|_| !self.owns_point(point))
    }

    /// Post-write hook of every path that puts a state into the store:
    /// records whom the copy now held is owed to. A leaving node owes
    /// every newly merged key to its current owners, even if it was
    /// pushed (or acked) before. Any node holds a copy for the replica a
    /// `hint` names (the sloppy-quorum substitute case) or, unhinted and
    /// outside its own preference list, for the key's current primary —
    /// so no residual copy survives unaccounted: it is owned, or an
    /// obligation retires it once acknowledged.
    fn note_copy_held(&mut self, key: &[u8], hint: Option<ReplicaId>) {
        let point = self.key_point(key);
        if self.leaving {
            let walk = self.ring.full_walk_at(point).iter();
            for to in walk.take(self.config.n).copied().collect::<Vec<_>>() {
                self.owe(to, key, MsgClass::Transfer);
            }
        }
        // a named owner that is no longer a ring member (a stale
        // coordinator's view named it) could never acknowledge: treat
        // the copy as unhinted instead
        let intended = hint
            .filter(|intended| self.ring.nodes().contains(intended))
            .or_else(|| self.residual_target(point));
        if let Some(intended) = intended {
            self.owe(intended, key, MsgClass::Handoff);
        }
    }

    /// Merges states received from a peer and records the obligations
    /// they imply (see [`Self::note_copy_held`]; `hint` applies to every
    /// entry) — the one routine behind every state-absorbing message.
    fn absorb(&mut self, entries: Vec<(Key, M::State)>, hint: Option<ReplicaId>) {
        for (key, state) in entries {
            let mech = &self.mech;
            self.data.mutate(&key, |local| mech.merge(local, &state));
            self.note_copy_held(&key, hint);
        }
    }

    // --- ring-view gossip --------------------------------------------------

    /// Reacts to a peer's observed ring-view digest (request header,
    /// gossip digest, or AAE piggyback). Digests carry no order, so
    /// "behind" and "ahead" are meaningless — a mismatch pushes this
    /// node's whole view ([`Msg::RingEpoch`]); the receiver merges it and
    /// pushes the merged view back iff the sender's copy was incomplete
    /// ([`Self::handle_ring_epoch`]), so both ends converge in at most
    /// one round-trip.
    fn note_peer_digest(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, digest: u64) {
        if digest != self.view.digest() {
            let view = self.view.clone();
            self.send(ctx, from, Msg::RingEpoch { view });
        }
    }

    /// Merges a pushed full view ([`RingView::absorb`]), adopting it if
    /// it changed anything ([`Self::after_view_change`]); if the sender's
    /// copy was missing entries this node holds, pushes the merged view
    /// back so the exchange leaves both ends identical.
    fn handle_ring_epoch(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        view: &RingView<ReplicaId>,
    ) {
        let (changed, sender_lacks) = self.view.absorb(view);
        if changed {
            self.after_view_change(ctx);
        }
        if sender_lacks {
            let merged = self.view.clone();
            self.send(ctx, from, Msg::RingEpoch { view: merged });
        }
    }

    /// One gossip round: sends this node's view digest to up to `fanout`
    /// distinct random routable ring peers.
    fn gossip_once(&mut self, ctx: &mut Ctx<'_, M>, fanout: usize) {
        let mut peers = self.routable_peers();
        if peers.is_empty() {
            return;
        }
        self.stats.gossip_rounds += 1;
        let digest = self.view.digest();
        for _ in 0..fanout.min(peers.len()) {
            let idx = ctx.rng().range_u64(0, peers.len() as u64) as usize;
            let peer = peers.swap_remove(idx);
            self.send(ctx, NodeId(peer.0), Msg::GossipDigest { digest });
        }
    }

    fn handle_gossip_timer(&mut self, ctx: &mut Ctx<'_, M>) {
        self.gossip_once(ctx, 1);
        if self.config.gossip_interval > simnet::Duration::ZERO {
            ctx.set_timer(self.config.gossip_interval, Timer::Gossip);
        }
    }

    /// Makes this node's lifecycle what the merged view's entry for it
    /// says, whatever carried the view — the control plane's post to the
    /// subject of a change, or a peer's gossip: a node that learns about
    /// its *own* change second-hand behaves identically.
    ///
    /// * A **dormant** node wakes — serving, not draining, periodic
    ///   timers armed — exactly when the merged view puts it on the
    ///   ring. So a spare wakes for its join; a retired leaver handed a
    ///   stale `Up` its `Removed` entry dominates is never woken by
    ///   traffic.
    /// * A serving node with a `Leaving`/`Removed` entry starts (or
    ///   keeps) the drain.
    /// * A serving node with an `Up`/`Joining` entry that beat a stale
    ///   `Leaving` one is re-admitted in band: stop draining but keep the
    ///   unacked transfer backlog. The retry machinery lets those batches
    ///   finish on their own: on ack, keys this (re-admitted) node owns
    ///   again are simply kept, while keys it holds without owning — e.g.
    ///   residual copies queued for retirement before the leave — are
    ///   still dropped, so no copy goes back to being unaccounted. Its
    ///   periodic timers are armed if none run: a node rebuilt mid-run
    ///   after a crash never saw `on_start`, and its re-admission (a fresh
    ///   incarnation, so always a change) is what makes it gossip and
    ///   anti-entropy again.
    fn reconcile_self_status(&mut self, ctx: &mut Ctx<'_, M>) {
        let status = self.view.status(&self.replica);
        if !self.active {
            if !status.is_some_and(MemberStatus::in_ring) {
                return;
            }
            self.active = true;
            self.down.remove(&self.replica);
        }
        match status {
            Some(MemberStatus::Leaving | MemberStatus::Removed) => self.leaving = true,
            Some(MemberStatus::Up | MemberStatus::Joining) => {
                self.leaving = false;
                if !self.periodic_armed {
                    self.arm_periodic_timers(ctx);
                }
            }
            None => {}
        }
    }

    /// Adopts a changed view: rebuilds the ring, forgets the down marks of
    /// replicas that left it (marks of those still on it survive),
    /// reconciles this node's own lifecycle
    /// ([`Self::reconcile_self_status`]), re-aims obligations aimed at
    /// departed nodes, owes the data motion the *pre/post-merge ownership
    /// diff* implies (donations to owners that gained ranges, retirement
    /// of residual copies this node holds but no longer owns), and pushes
    /// the view on eagerly.
    fn after_view_change(&mut self, ctx: &mut Ctx<'_, M>) {
        let old_ring = std::mem::replace(&mut self.ring, self.view.to_ring(self.config.vnodes));
        self.data.repartition(self.ring.token_points().collect());
        let members = self.view.members();
        self.down.retain(|r| members.contains(r));
        self.reconcile_self_status(ctx);
        self.reaim_owed(&members);
        if self.active {
            self.queue_rebalance(&old_ring);
            // a joiner's ranges leave now, not at the next tick
            self.flush_owed(ctx);
            // eager epidemic push: a new view spreads at message latency,
            // with the periodic digest timer as the partition-proof
            // backstop
            self.gossip_once(ctx, 2);
        }
    }

    /// Re-aims every obligation whose target is not among the ring's
    /// `members` at the key's current primary (dropping it when that is
    /// this node): one aimed at a non-member can never be acknowledged.
    /// Scanning the table itself, not just the old ring's members, also
    /// cures obligations a stale coordinator aimed at an already-gone node.
    fn reaim_owed(&mut self, members: &[ReplicaId]) {
        let stale: Vec<(ReplicaId, Key)> = self
            .owed
            .keys()
            .filter(|(to, _)| !members.contains(to))
            .cloned()
            .collect();
        for entry in stale {
            let class = self.owed.remove(&entry).expect("just listed").class;
            if let Some(primary) = self.ring.primary_at(self.key_point(&entry.1)).copied() {
                self.owe(primary, &entry.1, class);
            }
        }
    }

    /// Plans the data motion a view change implies, over every held key:
    ///
    /// * **donation** — owners that *gained* the key (in the new
    ///   preference list, not in the old) are owed a copy, so a joiner
    ///   receives its ranges from whoever holds them;
    /// * **residual retirement** — a key this node holds but no longer
    ///   owns is additionally owed to its current primary
    ///   ([`Self::residual_target`]), guaranteeing it lands on a current
    ///   owner even when the range's replica set is otherwise unchanged.
    ///
    /// A leaving node owns nothing under the new ring, so this doubles as
    /// the drain plan.
    fn queue_rebalance(&mut self, old_ring: &HashRing<ReplicaId>) {
        let mut plan: Vec<(ReplicaId, Key)> = Vec::new();
        for key in self.data.keys() {
            // both rings' walks come from their arc caches: a binary
            // search plus a slice read per key (no token walk)
            let point = self.key_point(key);
            let new_walk = self.ring.full_walk_at(point);
            let new_owners = &new_walk[..self.config.n.min(new_walk.len())];
            let old_walk = old_ring.full_walk_at(point);
            let old_owners = &old_walk[..self.config.n.min(old_walk.len())];
            let gained = new_owners.iter().filter(|o| !old_owners.contains(o));
            for to in gained.copied().chain(self.residual_target(point)) {
                plan.push((to, key.clone()));
            }
        }
        for (to, key) in plan {
            self.owe(to, &key, MsgClass::Transfer);
        }
    }

    /// The coordinator's one reply to a client: the sibling values and
    /// context read off the quorum's state, or — `None` — the refusal a
    /// request gets when no quorum could be assembled (no active replica
    /// for the key, or the timeout fired first).
    fn reply(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        client: NodeId,
        req: ReqId,
        read: bool,
        body: Option<(Vec<StampedValue>, M::Context)>,
    ) {
        let ok = body.is_some();
        match (ok, read) {
            (false, _) => self.stats.quorum_timeouts += 1,
            (true, true) => self.stats.gets_ok += 1,
            (true, false) => self.stats.puts_ok += 1,
        }
        let (values, read_ctx) = body.unwrap_or_default();
        let msg = if read {
            Msg::ClientGetResp {
                req,
                ok,
                values,
                ctx: read_ctx,
            }
        } else {
            Msg::ClientPutResp {
                req,
                ok,
                values,
                ctx: read_ctx,
            }
        };
        self.send(ctx, client, msg);
    }

    /// What coordinating a read and a write start with: realign views
    /// with the client, refuse a write its client's mark covers
    /// ([`Self::note_write`]), find the key's active replicas (refusing
    /// the request when there are none) and arm the timeout. `write` is
    /// the id of the value a PUT carries, `None` for a GET. Returns the
    /// active set and its sloppy-quorum substitutions — or `None` when
    /// the request goes no further.
    fn begin_request(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        req: ReqId,
        key: &[u8],
        digest: u64,
        write: Option<WriteId>,
    ) -> Option<(Vec<ReplicaId>, Subs)> {
        self.note_peer_digest(ctx, from, digest);
        if write.is_some_and(|id| !self.note_write(id)) {
            return None;
        }
        // nor is any request coordinated twice at once: a network copy
        // arriving while the first is in flight would fan out again and
        // reply twice
        if self.pending.contains_key(&req) {
            return None;
        }
        let (active, subs) = self.active_replicas(key);
        if active.is_empty() {
            self.reply(ctx, from, req, write.is_none(), None);
            return None;
        }
        ctx.set_timer(self.config.request_timeout, Timer::Request(req));
        Some((active, subs))
    }

    /// Hands a client's request for a key this node does not own to
    /// `owner`, the key's first active replica, which coordinates it (a
    /// dot must come from an owner's counter). `msg` carries this node's
    /// view digest, so the owner realigns views with the node that asked
    /// it. The request's timer is already armed: the owner's answer is
    /// passed on unchanged ([`Self::pass_back`]), or the timeout refuses.
    /// A relay that comes back — two stale views each routing the key to
    /// the other — is a repeat that `begin_request` drops.
    fn relay(&mut self, ctx: &mut Ctx<'_, M>, client: NodeId, owner: ReplicaId, msg: Msg<M>) {
        let (Msg::ClientGet { req, key, .. } | Msg::ClientPut { req, key, .. }) = &msg else {
            return;
        };
        self.stats.remote_coordinations += 1;
        let pending = Pending {
            key: key.clone(),
            client,
            expected: 1,
            replied: false,
            seen: Vec::new(),
            op: Op::Relay {
                read: matches!(msg, Msg::ClientGet { .. }),
            },
        };
        self.pending.insert(*req, pending);
        self.send(ctx, NodeId(owner.0), msg);
    }

    /// The answer to a request this node relayed ([`Self::relay`]): it
    /// goes to the client unchanged and retires the relay. A reply this
    /// node is not waiting for — unsolicited, duplicated, or late after
    /// the timeout — is dropped.
    fn pass_back(&mut self, ctx: &mut Ctx<'_, M>, req: ReqId, msg: Msg<M>) {
        let read = matches!(msg, Msg::ClientGetResp { .. });
        let relayed = |p: &&Pending<M>| matches!(p.op, Op::Relay { read: r } if r == read);
        if let Some(client) = self.pending.get(&req).filter(relayed).map(|p| p.client) {
            self.pending.remove(&req);
            ctx.cancel_timer(Timer::Request(req));
            self.send(ctx, client, msg);
        }
    }

    fn handle_client_get(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        req: ReqId,
        key: Key,
        digest: u64,
    ) {
        let Some((active, subs)) = self.begin_request(ctx, from, req, &key, digest, None) else {
            return;
        };
        if !active.contains(&self.replica) {
            let digest = self.view.digest();
            return self.relay(ctx, from, active[0], Msg::ClientGet { req, key, digest });
        }
        let acc = self.data.get(&key).cloned().unwrap_or_default();
        let have = self.leaf_or_empty(&key);
        let pending = Pending {
            key: key.clone(),
            client: from,
            expected: active.len(),
            replied: false,
            seen: vec![(self.replica, have)],
            op: Op::Get { acc, have, subs },
        };
        self.pending.insert(req, pending);
        for peer in &active {
            if *peer != self.replica {
                self.send(
                    ctx,
                    NodeId(peer.0),
                    Msg::RepGetIf {
                        req,
                        key: key.clone(),
                        have,
                    },
                );
            }
        }
        self.try_complete(ctx, req);
    }

    /// One replica's answer to request `req`, with the state it carried:
    /// a read's full state ([`Msg::RepGetResp`]) or `None` for
    /// [`Msg::RepGetSame`] — the replica holds exactly the snapshot `acc`
    /// grew from, so there is nothing to merge and its fingerprint is
    /// `have`; a write's ack ([`Msg::RepPutAck`], `None`). A replica
    /// counts once toward R or W however often the network delivers its
    /// answer, and an answer to a request that already retired, or that
    /// this node relayed, counts for nothing.
    fn vote(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, req: ReqId, state: Option<M::State>) {
        let Some(p) = self.pending.get_mut(&req) else {
            return;
        };
        let replica = ReplicaId(from.0);
        if p.seen.iter().any(|(r, _)| *r == replica) {
            return;
        }
        let fp = match (&mut p.op, state) {
            (Op::Get { acc, .. }, Some(state)) => {
                self.mech.merge(acc, &state);
                fingerprint(&state)
            }
            (Op::Get { have, .. }, None) => *have,
            (Op::Put, _) => 0,
            (Op::Relay { .. }, _) => return,
        };
        p.seen.push((replica, fp));
        self.try_complete(ctx, req);
    }

    /// The one completion rule. Phase 1: reply to the client as soon as
    /// a quorum of distinct replicas — R for a read, W for a write, at
    /// most every active one — has answered. Phase 2: once every active
    /// replica answered, retire the request, cancel its timer and, for a
    /// read, repair the replicas that returned something else.
    fn try_complete(&mut self, ctx: &mut Ctx<'_, M>, req: ReqId) {
        let Some(p) = self.pending.get_mut(&req) else {
            return;
        };
        let read = matches!(p.op, Op::Get { .. });
        let quorum = if read { self.config.r } else { self.config.w };
        let mut body = None;
        if !p.replied && p.seen.len() >= quorum.min(p.expected) {
            p.replied = true;
            let empty = M::State::default();
            let state = match &p.op {
                Op::Get { acc, .. } => acc,
                // return_body: the coordinator reads its own (freshest)
                // state; a relay takes no votes, so never gets here
                Op::Put | Op::Relay { .. } => self.data.get(&p.key).unwrap_or(&empty),
            };
            body = Some(self.mech.read(state));
        }
        let (client, all_in) = (p.client, p.replied && p.seen.len() >= p.expected);
        if body.is_some() {
            self.reply(ctx, client, req, read, body);
        }
        if all_in {
            let p = self.pending.remove(&req).expect("just looked up");
            ctx.cancel_timer(Timer::Request(req));
            if let Op::Get { acc, subs, .. } = p.op {
                self.finish_read_repair(ctx, &p.key, acc, &p.seen, &subs);
            }
        }
    }

    /// The end of a read: folds what it merged into this coordinator's
    /// copy, then pushes the result to every replica that answered with
    /// something else. A read writes only what it changes: when the copy
    /// already equals the merge (merging a stored state with itself is a
    /// no-op), or nothing is held and the merge is the empty state — a
    /// read of a key no replica holds — the store is not touched, so the
    /// read costs no log record and creates no key.
    fn finish_read_repair(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        key: &[u8],
        merged: M::State,
        seen: &[(ReplicaId, u64)],
        subs: &[(ReplicaId, ReplicaId)],
    ) {
        // A replica is stale iff it answered with something other than
        // what the read merged — not the folded copy, which a write that
        // reached this coordinator before the last answer has moved on,
        // making every replica look stale.
        let read_fp = fingerprint(&merged);
        let (canonical, held) = match self.data.get(key) {
            Some(stored) if *stored == merged => (merged, true),
            None if merged == M::State::default() => (merged, false),
            _ => {
                let mech = &self.mech;
                let folded = self.data.mutate(key, |local| mech.merge(local, &merged));
                (folded.clone(), true)
            }
        };
        // the coordinator itself may be a sloppy fallback for a down
        // owner: track that copy like any other hinted state
        if held {
            self.note_copy_held(key, hint_for(subs, self.replica));
        }
        if !self.config.read_repair {
            return;
        }
        for (peer, fp) in seen {
            if *peer != self.replica && *fp != read_fp {
                self.stats.read_repairs += 1;
                self.send(
                    ctx,
                    NodeId(peer.0),
                    Msg::Push {
                        class: MsgClass::Replication,
                        id: None,
                        entries: vec![(key.to_vec(), canonical.clone())],
                        hint: hint_for(subs, *peer),
                    },
                );
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_client_put(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        req: ReqId,
        key: Key,
        value: StampedValue,
        put_ctx: M::Context,
        digest: u64,
    ) {
        let write = Some(value.id);
        let Some((active, subs)) = self.begin_request(ctx, from, req, &key, digest, write) else {
            return;
        };
        if !active.contains(&self.replica) {
            let digest = self.view.digest();
            let put = Msg::ClientPut {
                req,
                key,
                value,
                ctx: put_ctx,
                digest,
            };
            return self.relay(ctx, from, active[0], put);
        }
        let origin = WriteOrigin::new(self.replica, value.id.client);
        let state = self.mint_write(&key, origin, &put_ctx, value);
        // a coordinator standing in for a down owner holds its copy
        // under a hint obligation, like any other fallback
        self.note_copy_held(&key, hint_for(&subs, self.replica));
        for peer in &active {
            if *peer == self.replica {
                continue;
            }
            self.send(
                ctx,
                NodeId(peer.0),
                Msg::RepPut {
                    req,
                    key: key.clone(),
                    state: state.clone(),
                    hint: hint_for(&subs, *peer),
                },
            );
        }
        let pending = Pending {
            key,
            client: from,
            expected: active.len(),
            replied: false,
            seen: vec![(self.replica, 0)],
            op: Op::Put,
        };
        self.pending.insert(req, pending);
        self.try_complete(ctx, req);
    }

    /// The request's timer fired before every active replica answered:
    /// refuse it if the quorum never formed; otherwise the reply is long
    /// sent, and a read still repairs with what arrived.
    fn handle_request_timeout(&mut self, ctx: &mut Ctx<'_, M>, req: ReqId) {
        let Some(p) = self.pending.remove(&req) else {
            return;
        };
        if !p.replied {
            let read = matches!(p.op, Op::Get { .. } | Op::Relay { read: true });
            self.reply(ctx, p.client, req, read, None);
        } else if let Op::Get { acc, subs, .. } = p.op {
            self.finish_read_repair(ctx, &p.key, acc, &p.seen, &subs);
        }
    }

    fn handle_aae_timer(&mut self, ctx: &mut Ctx<'_, M>) {
        // pick a random routable peer and start an exchange
        let peers = self.routable_peers();
        if !peers.is_empty() {
            let peer = *ctx.rng().pick(&peers);
            self.stats.aae_rounds += 1;
            let root = self.shared_summary_root(peer);
            self.send(
                ctx,
                NodeId(peer.0),
                Msg::AaeRoot {
                    root,
                    digest: self.view.digest(),
                },
            );
        }
        // re-arm
        if self.config.anti_entropy_interval > simnet::Duration::ZERO {
            ctx.set_timer(self.config.anti_entropy_interval, Timer::AntiEntropy);
        }
    }

    // --- the obligation table ----------------------------------------------

    /// How long a push of `class` stays in flight before it is sent
    /// again; `None` when the class is never pushed (a zero
    /// `handoff_interval` turns hinted handoff off).
    fn resend_window(&self, class: MsgClass) -> Option<simnet::Duration> {
        match class {
            MsgClass::Transfer => Some(PUSH_RETRY_INTERVAL),
            _ => Some(self.config.handoff_interval).filter(|w| *w > simnet::Duration::ZERO),
        }
    }

    /// Keeps the push timer armed exactly while something pushable is
    /// owed. Run after every event, so a node that owes nothing never
    /// ticks, and an obligation recorded anywhere is flushed within one
    /// period — the wait that batches what separate messages recorded.
    fn ensure_push_timer(&mut self, ctx: &mut Ctx<'_, M>) {
        let pushable = |o: &Owed| self.resend_window(o.class).is_some();
        if !self.push_armed && self.owed.values().any(pushable) {
            ctx.set_timer(PUSH_RETRY_INTERVAL, Timer::Push);
            self.push_armed = true;
        }
    }

    /// The one flush: pushes every obligation that is due — its target
    /// routable and no push of it younger than its class's resend window
    /// — batched per target and class. Obligations with nothing in flight
    /// go in chunks of `transfer_batch_keys` under a fresh id each, their
    /// states snapshotted by the cached fingerprint (no rehash);
    /// unacknowledged ones are sent again under the id and fingerprint
    /// they have, so the receiver can tell a retry from a new batch.
    fn flush_owed(&mut self, ctx: &mut Ctx<'_, M>) {
        let now = ctx.now();
        // (target, class, id already sent under) → keys
        let mut batches: BTreeMap<(ReplicaId, MsgClass, Option<u64>), Vec<Key>> = BTreeMap::new();
        for ((to, key), o) in &self.owed {
            // don't flood a peer the failure detector marks down: the
            // obligation waits, and a later tick pushes it once the peer
            // recovers
            let due = self.is_routable(to)
                && self.data.contains_key(key)
                && self.resend_window(o.class).is_some_and(|window| {
                    o.flight.is_none_or(|(sent_at, ..)| now >= sent_at + window)
                });
            if due {
                let sent_as = o.flight.map(|(_, id, _)| id);
                let batch = batches.entry((*to, o.class, sent_as)).or_default();
                batch.push(key.clone());
            }
        }
        for ((to, class, sent_as), keys) in batches {
            for chunk in keys.chunks(self.config.transfer_batch_keys) {
                let id = sent_as.unwrap_or_else(|| {
                    let id = *self.next_push.get_or_insert_with(|| ctx.rng().next_u64());
                    self.next_push = Some(id.wrapping_add(1));
                    id
                });
                let mut entries = Vec::with_capacity(chunk.len());
                for key in chunk {
                    let held = self.data.get(key).zip(self.data.leaf_of(key));
                    let (state, leaf) = held.expect("only held keys are batched");
                    let entry = (to, key.clone());
                    let owed = self.owed.get_mut(&entry).expect("batched from the table");
                    let fp = owed.flight.map_or(leaf, |(.., sent_fp)| sent_fp);
                    owed.flight = Some((now, id, fp));
                    entries.push((entry.1, state.clone()));
                }
                if class == MsgClass::Transfer {
                    // count the *actual* send, so retries show up and
                    // in/out totals stay comparable under loss
                    self.stats.transfers_out += 1;
                }
                let push = Msg::Push {
                    class,
                    id: Some(id),
                    entries,
                    hint: None,
                };
                self.send(ctx, NodeId(to.0), push);
            }
        }
    }

    /// The one settle: `from` acknowledged push `id`. Only obligations
    /// aimed at `from` whose flight carries that id are touched, so an
    /// ack that is stale, replayed or from another node settles nothing.
    /// Per key: the push carried exactly the state still held — the
    /// obligation is met, and a copy this node does not own is dropped
    /// rather than lingering as an untracked residual (its owner acked
    /// this exact state); the state advanced after the snapshot — the
    /// obligation stands, and the next flush pushes the fresher state
    /// under a fresh id before it can be dropped; the key is gone — moot.
    fn settle_push(&mut self, from: ReplicaId, id: u64) {
        let acked: Vec<(Key, u64)> = self
            .owed
            .range((from, Key::new())..)
            .take_while(|((to, _), _)| *to == from)
            .filter_map(|((_, key), o)| match o.flight {
                Some((_, sent_as, fp)) if sent_as == id => Some((key.clone(), fp)),
                _ => None,
            })
            .collect();
        for (key, sent_fp) in acked {
            let leaf = self.data.leaf_of(&key);
            let entry = (from, key);
            if leaf.is_some_and(|leaf| leaf != sent_fp) {
                self.owed.get_mut(&entry).expect("just listed").flight = None;
                continue;
            }
            let met = self.owed.remove(&entry).expect("just listed");
            if leaf.is_some() {
                self.stats.handoffs += u64::from(met.class == MsgClass::Handoff);
                if !self.owns(&entry.1) {
                    self.data.remove(&entry.1);
                    // gone with the copy: what it owed anyone else (every
                    // target is a ring member — `reaim_owed`)
                    for to in self.ring.nodes() {
                        self.owed.remove(&(*to, entry.1.clone()));
                    }
                }
            }
        }
    }

    // --- elastic membership ------------------------------------------------

    fn arm_periodic_timers(&mut self, ctx: &mut Ctx<'_, M>) {
        // first fires are staggered by replica id — no thundering herd —
        // and the two by different steps, so the fleet's digests do not
        // phase-lock with its anti-entropy rounds
        let periodic = [
            (self.config.anti_entropy_interval, 1_000, Timer::AntiEntropy),
            (self.config.gossip_interval, 700, Timer::Gossip),
        ];
        for (interval, stagger, timer) in periodic {
            if interval > simnet::Duration::ZERO {
                let first = interval.as_micros() + u64::from(self.replica.0) * stagger;
                ctx.set_timer(simnet::Duration::from_micros(first), timer);
            }
        }
        self.periodic_armed = true;
    }

    /// Entry point: dispatches one message.
    pub fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: Msg<M>) {
        if !self.active {
            // A dormant node serves no data, but it stays a good ring
            // citizen: it merges views — waking when one newly places it
            // on the ring ([`Self::reconcile_self_status`]) — and answers
            // digest mismatches (e.g. clients still routing to a retired
            // leaver) with its own view.
            match msg {
                Msg::RingEpoch { .. } | Msg::GossipDigest { .. } => self.handle(ctx, from, msg),
                Msg::AaeRoot { digest, .. }
                | Msg::ClientGet { digest, .. }
                | Msg::ClientPut { digest, .. } => self.note_peer_digest(ctx, from, digest),
                _ => {}
            }
            return;
        }
        self.handle(ctx, from, msg);
        self.ensure_push_timer(ctx);
    }

    /// One message at a serving node.
    fn handle(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: Msg<M>) {
        match msg {
            Msg::ClientGet { req, key, digest } => {
                self.handle_client_get(ctx, from, req, key, digest)
            }
            Msg::ClientPut {
                req,
                key,
                value,
                ctx: put_ctx,
                digest,
            } => self.handle_client_put(ctx, from, req, key, value, put_ctx, digest),
            Msg::RepGetIf { req, key, have } if self.leaf_or_empty(&key) == have => {
                self.stats.rep_reads_same += 1;
                self.send(ctx, from, Msg::RepGetSame { req });
            }
            Msg::RepGet { req, key } | Msg::RepGetIf { req, key, .. } => {
                self.stats.rep_reads_full += 1;
                let state = self.data.get(&key).cloned().unwrap_or_default();
                self.send(ctx, from, Msg::RepGetResp { req, key, state });
            }
            Msg::RepGetResp { req, state, .. } => self.vote(ctx, from, req, Some(state)),
            Msg::RepGetSame { req } | Msg::RepPutAck { req } => self.vote(ctx, from, req, None),
            Msg::RepPut {
                req,
                key,
                state,
                hint,
            } => {
                self.absorb(vec![(key, state)], hint);
                self.send(ctx, from, Msg::RepPutAck { req });
            }
            Msg::Push {
                class,
                id,
                entries,
                hint,
            } => {
                if class == MsgClass::Transfer && id.is_some() {
                    self.stats.transfers_in += 1;
                }
                self.absorb(entries, hint);
                if let Some(id) = id {
                    self.send(ctx, from, Msg::PushAck { class, id });
                }
            }
            Msg::PushAck { id, .. } => self.settle_push(ReplicaId(from.0), id),
            Msg::AaeRoot { root, digest } => {
                // the root doubles as a gossip digest carrier
                self.note_peer_digest(ctx, from, digest);
                let peer = ReplicaId(from.0);
                // cached per-arc roots XOR-combine: comparing costs
                // O(arcs), the arc roots are only listed on mismatch
                if self.shared_summary_root(peer) != root {
                    // "Shared" and arc indices are only well-defined
                    // under identical views: arc roots listed under OUR
                    // view would be compared under ITS view. Skip the
                    // round; note_peer_digest above already started the
                    // realignment and the next AAE tick retries with
                    // aligned views.
                    if digest != self.view.digest() {
                        return;
                    }
                    let arcs = self.shared_arc_roots(peer);
                    self.send(ctx, from, Msg::AaeArcRoots { arcs, digest });
                }
            }
            Msg::AaeArcRoots { arcs, digest } => {
                // we initiated this round; the responder's shared root
                // differed and it answered with its per-arc roots
                if digest != self.view.digest() {
                    // views moved between the root and arc steps: arc
                    // indices no longer align — abort, realign views, and
                    // let the next AAE tick retry
                    self.note_peer_digest(ctx, from, digest);
                    return;
                }
                let peer = ReplicaId(from.0);
                let theirs: BTreeMap<u32, u64> = arcs.into_iter().collect();
                let mut differing: Vec<u32> = Vec::new();
                for idx in 0..self.ring.arc_count() {
                    if self.arc_shared_with(idx, peer) {
                        let mine = self.data.arc_root(idx);
                        let their_root = theirs.get(&(idx as u32)).copied().unwrap_or(0);
                        if mine != their_root {
                            differing.push(idx as u32);
                        }
                    }
                }
                if differing.is_empty() {
                    // shared roots differed but every arc agrees — can
                    // only happen transiently (e.g. a write landed on
                    // either side between the two steps); the next
                    // round settles it
                    return;
                }
                // divergence is an initiator-side statistic
                self.stats.aae_divergent += 1;
                // send even when our scoped summary is empty: the peer
                // may hold keys in these arcs that we lack entirely
                let leaves = self.shared_summary_scoped(peer, &differing).leaves();
                self.send(
                    ctx,
                    from,
                    Msg::AaeLeaves {
                        leaves,
                        arcs: differing,
                        digest,
                    },
                );
            }
            Msg::AaeLeaves {
                leaves,
                arcs,
                digest,
            } => {
                if digest != self.view.digest() {
                    // arc indices are only meaningful under the view the
                    // leaves were built by; realign and retry next tick
                    self.note_peer_digest(ctx, from, digest);
                    return;
                }
                // compare only within the arcs the initiator proved
                // divergent
                let mine = self.shared_summary_scoped(ReplicaId(from.0), &arcs);
                let mut theirs = MerkleSummary::new();
                for (k, h) in leaves {
                    theirs.set(k, h);
                }
                // keys where we differ in either direction
                let mut keys = mine.diff(&theirs); // they have, we differ/lack
                for k in theirs.diff(&mine) {
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
                let states: Vec<(Key, M::State)> = keys
                    .iter()
                    .filter_map(|k| self.data.get(k).map(|s| (k.clone(), s.clone())))
                    .collect();
                if !states.is_empty() || !keys.is_empty() {
                    self.send(ctx, from, Msg::AaeStates { states, want: keys });
                }
            }
            Msg::AaeStates { states, want } => {
                self.absorb(states, None);
                let back: Vec<(Key, M::State)> = want
                    .iter()
                    .filter_map(|k| self.data.get(k).map(|s| (k.clone(), s.clone())))
                    .collect();
                let push = Msg::Push {
                    class: MsgClass::AntiEntropy,
                    id: None,
                    entries: back,
                    hint: None,
                };
                self.send(ctx, from, push);
            }
            Msg::RingEpoch { view } => {
                self.handle_ring_epoch(ctx, from, &view);
            }
            Msg::GossipDigest { digest } => {
                self.note_peer_digest(ctx, from, digest);
            }
            Msg::ClientGetResp { req, .. } | Msg::ClientPutResp { req, .. } => {
                self.pass_back(ctx, req, msg);
            }
        }
    }

    /// Entry point: starts periodic timers.
    pub fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.active {
            self.arm_periodic_timers(ctx);
        }
    }

    /// Entry point: dispatches one timer.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, timer: Timer) {
        match timer {
            Timer::Request(req) => self.handle_request_timeout(ctx, req),
            Timer::AntiEntropy => self.handle_aae_timer(ctx),
            Timer::Push => {
                self.push_armed = false;
                self.flush_owed(ctx);
            }
            Timer::Gossip => self.handle_gossip_timer(ctx),
            // a client's timer: never armed by a server
            Timer::Think => {}
        }
        self.ensure_push_timer(ctx);
    }
}
