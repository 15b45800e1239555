//! Store and client configuration.

use simnet::Duration;

/// Replication and protocol parameters of the store (Riak's N/R/W model).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Replication factor: each key lives on `n` replicas.
    pub n: usize,
    /// Read quorum: a GET succeeds after `r` replica responses.
    pub r: usize,
    /// Write quorum: a PUT succeeds after `w` replica acks (the
    /// coordinator's own apply counts as one).
    pub w: usize,
    /// Coordinator-side deadline for assembling a quorum.
    pub request_timeout: Duration,
    /// Period of the anti-entropy timer on each server (0 disables).
    pub anti_entropy_interval: Duration,
    /// Whether coordinators push the merged state back to stale replicas
    /// after a GET.
    pub read_repair: bool,
    /// How long a pushed hinted-handoff copy stays *in flight* before it
    /// is pushed again — without that guard a slow or unreachable
    /// intended owner would receive a duplicate on every push tick. 0
    /// disables hinted handoff: obligations are still recorded, but no
    /// handoff-class push is ever sent (range transfers have their own
    /// fixed 25 ms window).
    pub handoff_interval: Duration,
    /// Period of the ring-view gossip timer on each server (0 disables
    /// the periodic timer; view digests still piggyback on anti-entropy
    /// roots and adopting a new view still pushes eagerly).
    pub gossip_interval: Duration,
    /// Fixed per-message envelope overhead in bytes (headers, key, ids).
    pub header_bytes: usize,
    /// Virtual nodes per server on the hash ring a node rebuilds from an
    /// adopted ring view.
    pub vnodes: u32,
    /// Maximum keys per range-transfer batch.
    pub transfer_batch_keys: usize,
    /// Whether the dot-reuse epoch guard is active: before minting a dot
    /// counter past its durably reserved ceiling, a node fsyncs a new
    /// reservation, and after a crash-recovery minting resumes strictly
    /// above the recovered ceiling. Disabling this (tests only) recreates
    /// the pre-guard hazard: under group-sync durability a crash can roll
    /// counters back below dots peers already hold, and a post-recovery
    /// write re-mints an escaped dot for a different value.
    pub dot_guard: bool,
}

impl Default for StoreConfig {
    /// Riak-like defaults: N=3, R=2, W=2, 50ms timeout, AAE every 500ms.
    fn default() -> Self {
        StoreConfig {
            n: 3,
            r: 2,
            w: 2,
            request_timeout: Duration::from_millis(50),
            anti_entropy_interval: Duration::from_millis(500),
            read_repair: true,
            handoff_interval: Duration::from_millis(200),
            gossip_interval: Duration::from_millis(100),
            header_bytes: 16,
            vnodes: 32,
            transfer_batch_keys: 64,
            dot_guard: true,
        }
    }
}

impl StoreConfig {
    /// Validates quorum relationships.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `w` is zero or exceeds `n`.
    pub fn validate(&self) {
        assert!(self.n > 0, "replication factor must be positive");
        assert!(
            (1..=self.n).contains(&self.r),
            "read quorum must be within 1..=n"
        );
        assert!(
            (1..=self.n).contains(&self.w),
            "write quorum must be within 1..=n"
        );
        assert!(self.vnodes > 0, "a node must own at least one token");
        assert!(
            self.transfer_batch_keys > 0,
            "transfer batches must hold at least one key"
        );
    }
}

/// Client session parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientConfig {
    /// Read-modify-write cycles each client performs.
    pub cycles: u32,
    /// Think time between cycles.
    pub think_time: Duration,
    /// Payload bytes per write.
    pub value_size: usize,
    /// Number of keys in the workload key space.
    pub key_count: usize,
    /// Zipf exponent of key popularity (0 = uniform).
    pub zipf_alpha: f64,
    /// Client-side deadline for one request before retrying.
    pub request_timeout: Duration,
    /// Retries per request before giving up on the cycle.
    pub max_retries: u32,
    /// Probability that a cycle's write is a delete (tombstone) instead
    /// of a value write.
    pub delete_fraction: f64,
    /// Probability that a cycle is read-only (GET without the following
    /// PUT) — the read-heavy mixes of YCSB-style workloads.
    pub read_only_fraction: f64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            cycles: 20,
            think_time: Duration::from_millis(5),
            value_size: 64,
            key_count: 8,
            zipf_alpha: 1.0,
            request_timeout: Duration::from_millis(100),
            max_retries: 3,
            delete_fraction: 0.0,
            read_only_fraction: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_riak_profile() {
        let c = StoreConfig::default();
        c.validate();
        assert_eq!((c.n, c.r, c.w), (3, 2, 2));
        assert!(c.read_repair);
    }

    #[test]
    #[should_panic(expected = "read quorum")]
    fn oversized_read_quorum_rejected() {
        StoreConfig {
            r: 4,
            ..StoreConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "write quorum")]
    fn zero_write_quorum_rejected() {
        StoreConfig {
            w: 0,
            ..StoreConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn zero_n_rejected() {
        StoreConfig {
            n: 0,
            r: 1,
            w: 1,
            ..StoreConfig::default()
        }
        .validate();
    }

    #[test]
    fn client_defaults_sane() {
        let c = ClientConfig::default();
        assert!(c.cycles > 0);
        assert!(c.key_count > 0);
    }
}
