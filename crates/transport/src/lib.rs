//! Real socket transport driver for the kvstore protocol.
//!
//! The third — and only non-simulated — driver of the generic protocol
//! stack. Where the simulator's `Cluster` models the network and the
//! threaded `RuntimeFleet` passes `Msg` values through in-process
//! channels, this crate serialises every inter-node message with the
//! wire codec ([`kvstore::messages::Msg::encode_transport`]), frames it
//! ([`frame`]) and ships it over loopback TCP connections managed by a
//! reconnecting connection layer ([`fabric`]). The protocol code is
//! byte-for-byte the same in all three drivers.
//!
//! There is no node loop here. Hosting nodes on threads — event loop,
//! timers, self-sends, settle/quiesce, stall check, post-run
//! inspection — is [`runtime::Fleet`], the one threaded fleet, and this
//! crate plugs into its [`runtime::Link`] seam: [`fleet::FabricLink`]
//! sends by framing into an outbox per destination that the worker
//! writes onto the [`Fabric`] in one write each at its next wait, hands
//! each worker its nodes' listeners and accepted connections, so that the worker's idle wait
//! is an `epoll` on them and what arrives goes as [`runtime::Packet`]s
//! into its inbox with no thread in between, charges self-sends to the
//! fabric's ledger, cuts a node's connections when a scenario's
//! `CutConn` step is due on its worker and returns [`FabricStats`] at
//! close. [`SocketFleet`] is that fleet plus the configuration mapping
//! (one worker per server and one for every client session,
//! `header_bytes` forced to the frame header's real size); a run's
//! threads are its workers and nothing else.
//!
//! Failure semantics deliberately mirror the in-process link: a link
//! that is down or a full inbox drops the message (wire loss the
//! protocol already tolerates), a torn/corrupt frame kills the
//! connection and the sender redials it — at once after a break, behind
//! a jittered backoff deadline while the peer refuses — and
//! anti-entropy repairs whatever an outage cost. [`SocketFleet`]
//! implements [`kvstore::harness::FleetHarness`], so the identical
//! audit stack (single view, AAE equivalence, residual audit,
//! oracle-clean converge) that gates the simulator and the threaded
//! runtime gates the socket driver too.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fabric;
pub mod fleet;
pub mod frame;
// The workspace's one foreign interface (`epoll`), and the one module
// allowed `unsafe`: its invariants are the module's docs.
#[allow(unsafe_code)]
mod poll;

pub use fabric::{hello_body, Fabric, FabricStats};
pub use fleet::{FabricLink, FabricSpec, SocketConfig, SocketFleet};
pub use frame::{
    read_frame, write_frame, FrameError, FrameParser, DEFAULT_MAX_FRAME, HEADER_BYTES,
};
