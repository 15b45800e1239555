//! # kvstore — a Dynamo/Riak-style multi-version replicated KV store
//!
//! This crate is the "modified Riak" of the paper's evaluation: a
//! replicated, multi-version key-value store running on the deterministic
//! [`simnet`] simulator, **generic over the causality-tracking
//! mechanism** ([`dvv::mechanisms::Mechanism`]). Swapping the mechanism —
//! DVV, DVVSet, per-client VVs (± pruning), per-server VVs, causal
//! histories, last-writer-wins — changes *only* the causal metadata, so
//! every difference in behaviour, metadata size or latency is attributable
//! to the clock design. That is precisely the comparison the paper makes.
//!
//! ## Architecture
//!
//! * [`node::StoreNode`] — replica server: coordinates GETs (R-quorum,
//!   read repair) and PUTs (W-quorum, `return_body` contexts) for the
//!   keys it replicates (any other request it relays to the key's first
//!   active owner and passes the answer back), serves replica traffic, runs
//!   Merkle-based anti-entropy, performs hinted handoff for down peers,
//!   and takes part in elastic membership: joins stream newly-owned key
//!   ranges in, leaves drain held ranges out, all over the simulated
//!   network with view-digest–stamped routing over mergeable ring views
//!   (concurrent membership changes merge; a timed-out leave is
//!   re-admitted in band).
//! * [`client::ClientNode`] — closed-loop client session: read-modify-
//!   write cycles against Zipf-distributed keys, with timeouts and
//!   retries; logs every write with the versions it had observed so the
//!   post-hoc [`oracle`] can reconstruct ground-truth causality.
//! * [`cluster::Cluster`] — wires servers + clients into a
//!   [`simnet::Simulation`], runs workloads, converges replicas, and
//!   produces [`oracle::AnomalyReport`]s and metadata statistics.
//! * [`ctx::Ctx`] — what a node sees of its driver: the one
//!   [`simnet::ProcessCtx`] every driver's [`simnet::Host`] hands it.
//!   Both node types take it and charge their own sends
//!   ([`messages::Msg::charge`]), so the same protocol logic and the
//!   same byte ledger run on the simulator and on the threaded `runtime`
//!   and `transport` fleets. [`cluster::StoreProc`] is the one
//!   Server/Client dispatch and [`cluster::NodeKit`] the one node
//!   builder under all three.
//!
//! ## Quick example
//!
//! ```
//! use dvv::mechanisms::DvvMechanism;
//! use kvstore::cluster::{Cluster, ClusterConfig};
//!
//! let config = ClusterConfig {
//!     servers: 3,
//!     clients: 4,
//!     cycles_per_client: 5,
//!     ..ClusterConfig::default()
//! };
//! let mut cluster = Cluster::new(42, DvvMechanism, config);
//! cluster.run();
//! cluster.converge();
//! let report = cluster.anomaly_report();
//! assert_eq!(report.lost_updates, 0);
//! assert_eq!(report.false_concurrency, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod cluster;
pub mod config;
pub mod ctx;
pub mod data;
pub mod harness;
pub mod merkle;
pub mod messages;
pub mod node;
pub mod oracle;
pub mod value;
pub mod wire;

pub use cluster::{Cluster, ClusterConfig};
pub use config::StoreConfig;
pub use ctx::Ctx;
pub use harness::FleetHarness;
pub use oracle::{AnomalyReport, Oracle};
pub use value::{Key, StampedValue, WriteId};
