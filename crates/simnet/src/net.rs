//! The simulated [`Network`]: latency, bandwidth, loss, and partitions.

use core::fmt;
use std::collections::{BTreeMap, BTreeSet};

use crate::latency::LatencyModel;
use crate::rng::SimRng;
use crate::time::Duration;

/// Identifier of a simulated node (dense, starting at 0).
///
/// # Examples
///
/// ```
/// use simnet::NodeId;
/// assert_eq!(NodeId(3).to_string(), "n3");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Adversarial fault-injection knobs of one link, beyond loss: message
/// duplication, reordering, and stale replay. All probabilities are
/// independent per message and drawn from the network's seeded RNG, so
/// a hostile run is exactly as reproducible as a clean one.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability a delivered message is delivered *twice* (the copy
    /// gets an independently sampled delay, so the duplicate usually
    /// also arrives out of order).
    pub duplicate_probability: f64,
    /// Probability a delivered message is held back by an extra delay
    /// uniform in `[0, reorder_window]` — enough to slip behind later
    /// traffic on the same link.
    pub reorder_probability: f64,
    /// Upper bound of the extra reordering delay.
    pub reorder_window: Duration,
    /// Probability that, on a delivery, one previously captured frame
    /// from the same link is re-delivered — a *stale replay*: the frame
    /// may be arbitrarily old, testing that handlers tolerate ancient
    /// state resurfacing after the conversation has moved on.
    pub replay_probability: f64,
    /// How long after the triggering delivery the stale copy lands.
    pub replay_delay: Duration,
}

impl LinkFaults {
    /// The standard *hostile* profile the `NET_FAULTS=hostile` suites
    /// run under: heavy duplication, aggressive reordering, and stale
    /// replay on every link. Protocol handlers must be idempotent and
    /// commutative to converge under this.
    #[must_use]
    pub fn hostile() -> Self {
        LinkFaults {
            duplicate_probability: 0.15,
            reorder_probability: 0.25,
            reorder_window: Duration::from_millis(4),
            replay_probability: 0.05,
            replay_delay: Duration::from_millis(8),
        }
    }
}

/// Per-link transmission characteristics. The default is a lossless
/// link of infinite bandwidth with [`LatencyModel::default`]'s delay.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkConfig {
    /// Propagation-delay distribution.
    pub latency: LatencyModel,
    /// Link bandwidth in bytes per second; `None` means infinite (message
    /// size does not affect delay). Finite bandwidth is how metadata size
    /// becomes latency in experiment E7.
    pub bandwidth: Option<u64>,
    /// Independent probability that a message is silently lost.
    pub drop_probability: f64,
    /// Adversarial faults injected on this link (duplication, reorder,
    /// stale replay) — all off by default.
    pub faults: LinkFaults,
}

impl LinkConfig {
    /// Total transfer delay for a message of `bytes`.
    fn delay(&self, bytes: usize, rng: &mut SimRng) -> Duration {
        let prop = self.latency.sample(rng);
        match self.bandwidth {
            Some(bw) if bw > 0 => {
                let tx_us = (bytes as u128 * 1_000_000 / bw as u128) as u64;
                prop + Duration::from_micros(tx_us)
            }
            _ => prop,
        }
    }
}

/// Whole-network configuration: a default link plus per-pair overrides.
#[derive(Clone, Debug, Default)]
pub struct NetworkConfig {
    /// Characteristics used for any pair without an override.
    pub default_link: LinkConfig,
    /// Directed per-pair overrides.
    pub overrides: BTreeMap<(NodeId, NodeId), LinkConfig>,
}

impl NetworkConfig {
    /// Uniform configuration with the given link everywhere.
    #[must_use]
    pub fn uniform(link: LinkConfig) -> Self {
        NetworkConfig {
            default_link: link,
            overrides: BTreeMap::new(),
        }
    }

    /// Sets a directed override for `from → to`.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, link: LinkConfig) -> &mut Self {
        self.overrides.insert((from, to), link);
        self
    }

    /// Switches every link's adversarial-fault knobs at once — the
    /// default link and all per-pair overrides.
    pub fn set_faults(&mut self, faults: LinkFaults) {
        self.default_link.faults = faults;
        for link in self.overrides.values_mut() {
            link.faults = faults;
        }
    }

    /// Returns a copy with every link's adversarial faults set from the
    /// `NET_FAULTS` environment variable — the one reader of it, for
    /// every driver: `hostile` switches on [`LinkFaults::hostile`]
    /// everywhere; unset or empty leaves the network as configured (its
    /// loss, latency and bandwidth are kept either way). The churn and
    /// conformance suites apply this so the faults and soak lanes re-run
    /// them under a hostile network without a code change.
    ///
    /// # Panics
    ///
    /// Panics on any other value, so a misspelt lane fails instead of
    /// running calm.
    #[must_use]
    pub fn with_env_faults(mut self) -> Self {
        if hostile_requested(std::env::var("NET_FAULTS").ok().as_deref()) {
            self.set_faults(LinkFaults::hostile());
        }
        self
    }
}

/// Parses a `NET_FAULTS` value: `hostile` is true, unset or empty false,
/// anything else a panic naming what is accepted.
fn hostile_requested(value: Option<&str>) -> bool {
    match value.unwrap_or_default() {
        "" => false,
        "hostile" => true,
        other => panic!("NET_FAULTS={other:?}: expected `hostile`, or unset"),
    }
}

/// Counters of what a host's nodes sent and what became of it: every
/// send lands in exactly one of `sent` and `self_sent`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages a node sent to another node, routed or not.
    pub sent: u64,
    /// Messages delivered to their destination.
    pub delivered: u64,
    /// Messages lost to random drop.
    pub dropped: u64,
    /// Messages refused because of a partition or blocked link.
    pub unreachable: u64,
    /// Total payload bytes of `sent`.
    pub bytes_sent: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Extra copies injected by duplication faults.
    pub duplicated: u64,
    /// Messages held back by a reordering delay.
    pub reordered: u64,
    /// Stale captured frames re-delivered by replay faults.
    pub replayed: u64,
    /// Payload bytes of `dropped`.
    pub dropped_bytes: u64,
    /// Payload bytes of `unreachable`.
    pub unreachable_bytes: u64,
    /// Payload bytes of `duplicated`.
    pub duplicated_bytes: u64,
    /// Payload bytes of `replayed`, each stale frame at its own size.
    pub replayed_bytes: u64,
    /// Messages a node sent to itself (never routed).
    pub self_sent: u64,
    /// Payload bytes of `self_sent`.
    pub self_bytes: u64,
}

impl NetworkStats {
    /// Adds `other`'s counters to these: one report of several hosts.
    pub fn absorb(&mut self, other: &NetworkStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.unreachable += other.unreachable;
        self.bytes_sent += other.bytes_sent;
        self.bytes_delivered += other.bytes_delivered;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.replayed += other.replayed;
        self.dropped_bytes += other.dropped_bytes;
        self.unreachable_bytes += other.unreachable_bytes;
        self.duplicated_bytes += other.duplicated_bytes;
        self.replayed_bytes += other.replayed_bytes;
        self.self_sent += other.self_sent;
        self.self_bytes += other.self_bytes;
    }
}

/// The simulated network fabric: the one place where the fate of an
/// inter-node message is decided, on every driver.
///
/// The network stores no messages. A [`Host`](crate::Host) hands each
/// one to [`Network::route`] together with the [`ReplayStash`] it owns,
/// and is handed back every copy to deliver, which it puts on its
/// agenda for the copy's delay.
/// Partitions and blocked links are dynamic.
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    rng: SimRng,
    /// When `Some`, only nodes in the same group can communicate.
    partition: Option<Vec<BTreeSet<NodeId>>>,
    /// Directed links administratively blocked.
    blocked: BTreeSet<(NodeId, NodeId)>,
    stats: NetworkStats,
}

/// Captured frames kept per directed link for stale-replay injection.
/// Small and bounded: replays should resurface *recent-ish* history, and
/// an unbounded stash would make hostile runs balloon with cloned
/// messages.
pub const REPLAY_STASH_CAP: usize = 16;

/// The frames [`Network::route`] captured for stale replay, per directed
/// link, each with the size it was sent at (a replayed frame is
/// delivered at its own size, not the size of the frame that triggered
/// it). The host owns it — so [`Network`] need not know the message
/// type — and only links whose [`LinkFaults`] enable replay populate it.
pub type ReplayStash<T> = BTreeMap<(NodeId, NodeId), Vec<(T, usize)>>;

impl Network {
    /// Creates a network with the given configuration and RNG stream.
    #[must_use]
    pub fn new(config: NetworkConfig, rng: SimRng) -> Self {
        Network {
            config,
            rng,
            partition: None,
            blocked: BTreeSet::new(),
            stats: NetworkStats::default(),
        }
    }

    fn link(&self, from: NodeId, to: NodeId) -> LinkConfig {
        self.config
            .overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.config.default_link)
    }

    /// Decides everything about one inter-node message of `bytes` from
    /// `from` to `to` (self-sends never come here: the host delivers
    /// them itself, reliable and zero-delay — a node talking to itself
    /// is not on the wire, so no fault may touch it).
    ///
    /// Returns `false` when the message is lost (no route, or the loss
    /// roll). Otherwise each copy to deliver is handed to `emit` as
    /// `(delay, message, bytes)`: a duplicate, then one stale frame from
    /// `stash`, then the original. Every injected copy draws its own
    /// delay, so a duplicate usually lands out of order too. Draws are
    /// in a fixed order — loss, latency, reorder, duplicate and its
    /// delay, replay and its pick — so a seeded run is reproducible.
    pub fn route<T: Clone>(
        &mut self,
        stash: &mut ReplayStash<T>,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        msg: T,
        mut emit: impl FnMut(Duration, T, usize),
    ) -> bool {
        let size = bytes as u64;
        self.stats.sent += 1;
        self.stats.bytes_sent += size;
        if !self.reachable(from, to) {
            self.stats.unreachable += 1;
            self.stats.unreachable_bytes += size;
            return false;
        }
        let link = self.link(from, to);
        if self.rng.chance(link.drop_probability) {
            self.stats.dropped += 1;
            self.stats.dropped_bytes += size;
            return false;
        }
        let mut delay = link.delay(bytes, &mut self.rng);
        let faults = link.faults;
        if self.rng.chance(faults.reorder_probability) {
            // hold the message back far enough to slip behind later
            // traffic on the same link
            let window = faults.reorder_window.as_micros();
            if window > 0 {
                delay = delay + Duration::from_micros(self.rng.range_u64(0, window + 1));
                self.stats.reordered += 1;
            }
        }
        if self.rng.chance(faults.duplicate_probability) {
            self.stats.duplicated += 1;
            self.stats.duplicated_bytes += size;
            emit(link.delay(bytes, &mut self.rng), msg.clone(), bytes);
        }
        if faults.replay_probability > 0.0 {
            let frames = stash.entry((from, to)).or_default();
            if self.rng.chance(faults.replay_probability) {
                // the pick is drawn even when nothing is captured yet
                let pick = self.rng.next_u64() as usize;
                if !frames.is_empty() {
                    let (stale, stale_bytes) = frames[pick % frames.len()].clone();
                    self.stats.replayed += 1;
                    self.stats.replayed_bytes += stale_bytes as u64;
                    emit(faults.replay_delay, stale, stale_bytes);
                }
            }
            if frames.len() >= REPLAY_STASH_CAP {
                frames.remove(0);
            }
            frames.push((msg.clone(), bytes));
        }
        emit(delay, msg, bytes);
        true
    }

    /// Counts a send the host does not route: a self-send, or one made
    /// while the host's fault plane is off.
    pub(crate) fn record_unrouted(&mut self, from: NodeId, to: NodeId, bytes: usize) {
        if from == to {
            self.stats.self_sent += 1;
            self.stats.self_bytes += bytes as u64;
        } else {
            self.stats.sent += 1;
            self.stats.bytes_sent += bytes as u64;
        }
    }

    /// Records a completed delivery (called by the host).
    pub fn record_delivery(&mut self, bytes: usize) {
        self.stats.delivered += 1;
        self.stats.bytes_delivered += bytes as u64;
    }

    /// Whether `from` can currently reach `to`.
    #[must_use]
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        if self.blocked.contains(&(from, to)) {
            return false;
        }
        match &self.partition {
            None => true,
            Some(groups) => groups.iter().any(|g| g.contains(&from) && g.contains(&to)),
        }
    }

    /// Splits the network into isolated groups. Nodes absent from every
    /// group are isolated entirely.
    pub fn partition(&mut self, groups: Vec<BTreeSet<NodeId>>) {
        self.partition = Some(groups);
    }

    /// Convenience: splits into exactly two sides.
    pub fn partition_two(
        &mut self,
        side_a: impl IntoIterator<Item = NodeId>,
        side_b: impl IntoIterator<Item = NodeId>,
    ) {
        self.partition(vec![
            side_a.into_iter().collect(),
            side_b.into_iter().collect(),
        ]);
    }

    /// Removes any partition.
    pub fn heal(&mut self) {
        self.partition = None;
    }

    /// [`NetworkConfig::set_faults`] on the live network. This is how a
    /// scenario's `Faults` step flips the whole fleet hostile (or clean)
    /// mid-run without rebuilding the network.
    pub fn set_faults(&mut self, faults: LinkFaults) {
        self.config.set_faults(faults);
    }

    /// Administratively blocks the directed link `from → to`.
    pub fn block_link(&mut self, from: NodeId, to: NodeId) {
        self.blocked.insert((from, to));
    }

    /// Unblocks the directed link.
    pub fn unblock_link(&mut self, from: NodeId, to: NodeId) {
        self.blocked.remove(&(from, to));
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINK: (NodeId, NodeId) = (NodeId(0), NodeId(1));

    /// A network and the stash a driver would own for it.
    struct Wire(Network, ReplayStash<usize>);

    fn wire(link: LinkConfig) -> Wire {
        let config = NetworkConfig::uniform(link);
        Wire(Network::new(config, SimRng::new(1)), ReplayStash::new())
    }

    fn micros(copies: &[(u64, usize)]) -> Option<Vec<(Duration, usize)>> {
        let timed = |(us, frame): &(u64, usize)| (Duration::from_micros(*us), *frame);
        Some(copies.iter().map(timed).collect())
    }

    impl Wire {
        /// Routes one frame `from → to` — its payload is its own size,
        /// so every copy is recognisable — and returns the copies handed
        /// back as `(delay, frame)` in emit order; `None` when lost.
        fn send(&mut self, from: u32, to: u32, bytes: usize) -> Option<Vec<(Duration, usize)>> {
            let mut copies = Vec::new();
            let emit = |delay, frame, size| {
                assert_eq!(frame, size, "a copy travels at the size it was sent");
                copies.push((delay, frame));
            };
            let (from, to) = (NodeId(from), NodeId(to));
            let delivered = self.0.route(&mut self.1, from, to, bytes, bytes, emit);
            delivered.then_some(copies)
        }
    }

    #[test]
    fn hostile_requested_accepts_hostile_or_nothing() {
        for (value, hostile) in [(None, false), (Some(""), false), (Some("hostile"), true)] {
            assert_eq!(hostile_requested(value), hostile, "{value:?}");
        }
    }

    #[test]
    #[should_panic(expected = "expected `hostile`, or unset")]
    fn hostile_requested_rejects_a_typo() {
        hostile_requested(Some("hostle"));
    }

    #[test]
    fn default_link_delivers_with_latency() {
        let mut w = wire(LinkConfig::default());
        assert_eq!(w.send(0, 1, 100), micros(&[(500, 100)]));
        assert_eq!(w.0.stats().sent, 1);
        assert_eq!(w.0.stats().bytes_sent, 100);
    }

    #[test]
    fn bandwidth_adds_size_proportional_delay() {
        let mut w = wire(LinkConfig {
            latency: LatencyModel::Constant(Duration::from_micros(100)),
            bandwidth: Some(1_000_000), // 1 MB/s → 1µs per byte
            ..LinkConfig::default()
        });
        assert_eq!(w.send(0, 1, 10), micros(&[(110, 10)]));
        assert_eq!(w.send(0, 1, 10_000), micros(&[(10_100, 10_000)]));
    }

    #[test]
    fn drop_probability_loses_messages() {
        let mut w = wire(LinkConfig {
            drop_probability: 1.0,
            ..LinkConfig::default()
        });
        assert_eq!(w.send(0, 1, 7), None);
        assert_eq!((w.0.stats().dropped, w.0.stats().dropped_bytes), (1, 7));
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let mut w = wire(LinkConfig::default());
        w.0.partition_two([NodeId(0), NodeId(1)], [NodeId(2)]);
        assert!(w.0.reachable(NodeId(0), NodeId(1)));
        assert!(!w.0.reachable(NodeId(0), NodeId(2)));
        assert_eq!(w.send(0, 2, 5), None);
        let s = w.0.stats();
        assert_eq!((s.unreachable, s.unreachable_bytes), (1, 5));
        w.0.heal();
        assert!(w.0.reachable(NodeId(0), NodeId(2)));
    }

    #[test]
    fn isolated_node_unreachable_but_self_reachable() {
        let mut n = wire(LinkConfig::default()).0;
        n.partition(vec![[NodeId(0)].into_iter().collect()]);
        assert!(!n.reachable(NodeId(0), NodeId(9)));
        assert!(n.reachable(NodeId(9), NodeId(9)), "self-loop always works");
    }

    #[test]
    fn blocked_links_are_directed() {
        let mut n = wire(LinkConfig::default()).0;
        n.block_link(NodeId(0), NodeId(1));
        assert!(!n.reachable(NodeId(0), NodeId(1)));
        assert!(n.reachable(NodeId(1), NodeId(0)));
        n.unblock_link(NodeId(0), NodeId(1));
        assert!(n.reachable(NodeId(0), NodeId(1)));
    }

    #[test]
    fn overrides_take_precedence() {
        let mut cfg = NetworkConfig::uniform(LinkConfig::default());
        let slow = LinkConfig {
            latency: LatencyModel::Constant(Duration::from_millis(9)),
            ..LinkConfig::default()
        };
        cfg.set_link(NodeId(0), NodeId(1), slow);
        let mut w = Wire(Network::new(cfg, SimRng::new(2)), ReplayStash::new());
        assert_eq!(w.send(0, 1, 1), micros(&[(9_000, 1)]));
        // reverse direction uses the default
        assert_eq!(w.send(1, 0, 1), micros(&[(500, 1)]));
    }

    #[test]
    fn clean_link_delivers_one_copy_and_captures_nothing() {
        let mut w = wire(LinkConfig::default());
        let copies = w.send(0, 1, 64).expect("delivered");
        assert_eq!(copies.len(), 1, "the original and nothing else");
        assert!(w.1.is_empty(), "nothing captured");
        let s = w.0.stats();
        assert_eq!((s.duplicated, s.reordered, s.replayed), (0, 0, 0));
    }

    fn faulty(faults: LinkFaults) -> LinkConfig {
        LinkConfig {
            faults,
            ..LinkConfig::default()
        }
    }

    #[test]
    fn certain_duplication_always_yields_a_copy() {
        let mut w = wire(faulty(LinkFaults {
            duplicate_probability: 1.0,
            ..LinkFaults::default()
        }));
        for _ in 0..10 {
            let copies = w.send(0, 1, 8).expect("delivered");
            assert_eq!(copies.len(), 2, "a duplicate, no replay, the original");
            assert!(w.1.is_empty(), "no replay configured, nothing to stash");
        }
        let s = w.0.stats();
        assert_eq!((s.duplicated, s.duplicated_bytes), (10, 80));
    }

    #[test]
    fn certain_reorder_stretches_delay_within_window() {
        let base = Duration::from_micros(100);
        let mut w = wire(LinkConfig {
            latency: LatencyModel::Constant(base),
            ..faulty(LinkFaults {
                reorder_probability: 1.0,
                reorder_window: Duration::from_millis(2),
                ..LinkFaults::default()
            })
        });
        let mut stretched = false;
        for _ in 0..50 {
            let copies = w.send(0, 1, 8).expect("delivered");
            let [(d, _)] = copies[..] else {
                panic!("reorder never copies: {copies:?}");
            };
            assert!(d >= base);
            assert!(d <= base + Duration::from_millis(2));
            stretched |= d > base;
        }
        assert!(stretched, "a 2ms window should stretch at least one of 50");
        assert_eq!(w.0.stats().reordered, 50);
    }

    #[test]
    fn replay_faults_ask_for_capture_and_roll_picks() {
        let mut w = wire(faulty(LinkFaults {
            replay_probability: 1.0,
            replay_delay: Duration::from_millis(8),
            ..LinkFaults::default()
        }));
        // a certain replay with nothing captured yet injects nothing, so
        // the stats only move when a stale frame actually goes out
        assert_eq!(w.send(0, 1, 8), micros(&[(500, 8)]));
        assert_eq!(w.0.stats().replayed, 0);
        assert_eq!(w.1[&LINK], [(8, 8)], "replay-prone links capture frames");
        // the captured frame resurfaces — at its own size, after the
        // replay delay — and the frame that triggered it is captured too
        assert_eq!(w.send(0, 1, 9), micros(&[(8_000, 8), (500, 9)]));
        let s = w.0.stats();
        assert_eq!((s.replayed, s.replayed_bytes), (1, 8));
        assert_eq!(w.1[&LINK], [(8, 8), (9, 9)]);
        for frame in 0..2 * REPLAY_STASH_CAP {
            w.send(0, 1, frame);
        }
        assert_eq!(w.1[&LINK].len(), REPLAY_STASH_CAP, "the stash is bounded");
    }

    #[test]
    fn hostile_profile_is_not_noop_and_default_is() {
        let mut clean = wire(faulty(LinkFaults::default()));
        let mut w = wire(faulty(LinkFaults::hostile()));
        let mut twice = false;
        for i in 0..400 {
            assert_eq!(clean.send(0, 1, i), micros(&[(500, i)]));
            let copies = w.send(0, 1, i).expect("delivered");
            twice |= copies.iter().filter(|(_, frame)| *frame == i).count() == 2;
        }
        let s = clean.0.stats();
        assert_eq!((s.duplicated, s.reordered, s.replayed), (0, 0, 0));
        assert!(clean.1.is_empty());
        let s = w.0.stats();
        assert!(
            twice && s.duplicated > 0 && s.replayed > 0 && !w.1.is_empty(),
            "hostile should hit every class"
        );
        assert!(s.reordered > 0);
    }

    #[test]
    fn faulty_links_stay_seed_deterministic() {
        let run = |seed| {
            let config = NetworkConfig::uniform(faulty(LinkFaults::hostile()));
            let mut w = Wire(Network::new(config, SimRng::new(seed)), ReplayStash::new());
            let trace: Vec<_> = (0..100).map(|i| w.send(0, 1, i)).collect();
            (trace, w.0.stats())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn record_delivery_updates_stats() {
        let mut n = wire(LinkConfig::default()).0;
        n.record_delivery(64);
        assert_eq!(n.stats().delivered, 1);
        assert_eq!(n.stats().bytes_delivered, 64);
    }
}
