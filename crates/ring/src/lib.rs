//! # ring — consistent hashing and membership for Dynamo-style stores
//!
//! The store that hosts the paper's clocks (Riak) places keys on replicas
//! with a consistent-hashing ring and routes requests via *preference
//! lists*. This crate provides that placement substrate:
//!
//! * [`hash`]: a dependency-free 64-bit key hash,
//! * [`HashRing`]: virtual-node consistent hashing with N-replica
//!   preference lists — an immutable function of the member set — and
//!   *sloppy* preference lists
//!   ([`HashRing::sloppy_preference_list_at`]: fallback nodes stand in
//!   for unroutable ones, the precondition for hinted handoff),
//! * [`RingView`]: a *mergeable* membership state (member →
//!   `(incarnation, status)`, last-writer-wins per member) a ring is
//!   built from — the unit of state exchanged by gossip-based ring
//!   dissemination. Its merge is a join-semilattice join, so concurrent
//!   membership changes announced on different sides of a partition
//!   merge instead of racing.
//!
//! A process's one membership truth is its merged [`RingView`]; the ring
//! it routes under is [`RingView::to_ring`], and whatever it believes
//! about liveness is a predicate the sloppy list consults.
//!
//! ```
//! use std::collections::BTreeSet;
//! use ring::{hash_key, MemberStatus, RingView};
//!
//! let mut view: RingView<u32> = RingView::from_members([0, 1, 2, 3]);
//! let ring = view.to_ring(16);
//! let prefs = ring.preference_list(b"shopping-cart", 3);
//! assert_eq!(prefs.len(), 3);
//!
//! let down = BTreeSet::from([prefs[0]]);
//! let (active, substituted) =
//!     ring.sloppy_preference_list_at(hash_key(b"shopping-cart"), 3, |n| !down.contains(n));
//! assert_eq!(active.len(), 3, "a fallback stands in for the down node");
//! assert_eq!(substituted.len(), 1);
//! assert_eq!(substituted[0].0, prefs[0]);
//!
//! view.bump(&prefs[0], MemberStatus::Leaving);
//! assert!(!view.to_ring(16).nodes().contains(&prefs[0]), "a leaver is off the ring");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hash;
mod ring_impl;
mod view;

pub use hash::hash_key;
pub use ring_impl::{arc_index, HashRing};
pub use view::{MemberEntry, MemberStatus, RingView};
