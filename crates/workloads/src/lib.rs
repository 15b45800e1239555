//! # workloads — generators and statistics for the DVV evaluation
//!
//! The paper's evaluation exercises a key-value store with populations of
//! clients doing read-modify-write cycles over skewed key spaces. This
//! crate generates those workloads deterministically and summarises the
//! results:
//!
//! * [`zipf::Zipf`] — skewed popularity sampling,
//! * [`keys::KeySpace`] — named keys with uniform or Zipfian popularity,
//! * [`churn::ChurnPlan`] — deterministic elastic-membership schedules
//!   (node joins/leaves to replay while a workload runs),
//! * [`stats::Histogram`] — log-bucketed latency/size histograms with
//!   percentiles.
//!
//! The generators consume caller-supplied uniform draws (`f64` in
//! `[0, 1)`), staying decoupled from the simulator's RNG type:
//!
//! ```
//! use workloads::{KeySpace, Popularity};
//!
//! let keys = KeySpace::new("cart", 1000, Popularity::Zipf(1.0));
//! assert_eq!(keys.sample_key(0.01), b"cart:0".to_vec()); // a very popular key
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod churn;
pub mod keys;
pub mod stats;
pub mod zipf;

pub use churn::{churn_seeds, ChurnAction, ChurnEvent, ChurnPlan};
pub use keys::{KeySpace, Popularity};
pub use stats::Histogram;
pub use zipf::Zipf;
