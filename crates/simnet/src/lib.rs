//! # simnet — a deterministic discrete-event network simulator
//!
//! The paper's evaluation embeds its clocks in a Dynamo-style store (a
//! modified Riak). This crate is the substrate that stands in for the
//! authors' testbed: a single-threaded, fully deterministic discrete-event
//! simulator with
//!
//! * virtual time ([`SimTime`]) with microsecond resolution,
//! * one event queue, a [`TimerWheel`]: due order with stable FIFO
//!   tie-breaking, and exact cancellation of a process's named timers,
//! * a message-passing [`Network`] with pluggable latency distributions,
//!   bandwidth (so *metadata size translates into latency* — the E7
//!   experiment), loss, partitions and adversarial [`LinkFaults`];
//!   [`Network::route`] is the one place a message's fate is decided —
//!   lost, or which copies arrive when, stale replays drawn from a
//!   host-owned [`ReplayStash`] — on every driver, so a
//!   [`NetworkConfig`] means the same on each,
//! * seeded, splittable randomness ([`rng::SimRng`]) so every run is
//!   reproducible from one `u64` seed,
//! * one [`Host`] that runs user-defined [`Process`]es through one
//!   write-through [`ProcessCtx`] — the [`Simulation`] is a host of
//!   every node on a virtual clock, and the threaded `runtime` runs one
//!   host per worker thread on the wall clock, and
//! * one run schedule, a [`Scenario`] of kills, revives, fault switches
//!   and connection cuts, that every driver takes.
//!
//! Determinism policy: no wall-clock, no `HashMap` iteration in scheduling
//! paths, one RNG stream per concern, and total ordering of simultaneous
//! events by insertion sequence.
//!
//! ## Example: ping-pong
//!
//! ```
//! use simnet::{NodeId, Process, ProcessCtx, Simulation, NetworkConfig};
//!
//! struct Ping;
//! impl Process for Ping {
//!     type Msg = u64;
//!     type Timer = ();
//!     fn on_start(&mut self, ctx: &mut ProcessCtx<'_, u64, ()>) {
//!         if ctx.id() == NodeId(0) {
//!             ctx.send(NodeId(1), 1, 8);
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut ProcessCtx<'_, u64, ()>, from: NodeId, msg: u64) {
//!         if msg < 4 {
//!             ctx.send(from, msg + 1, 8);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42, NetworkConfig::default(), vec![Ping, Ping]);
//! sim.run_to_quiescence();
//! assert_eq!(sim.network().stats().delivered, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod host;
pub mod latency;
pub mod net;
pub mod rng;
pub mod scenario;
pub mod sim;
pub mod time;
pub mod trace;
pub mod wheel;

pub use host::{Due, Host, Outlet, Process, ProcessCtx};
pub use latency::LatencyModel;
pub use net::{
    LinkConfig, LinkFaults, Network, NetworkConfig, NetworkStats, NodeId, ReplayStash,
    REPLAY_STASH_CAP,
};
pub use rng::SimRng;
pub use scenario::{Scenario, Step};
pub use sim::Simulation;
pub use time::{Duration, SimTime};
pub use trace::{Trace, TraceEvent};
pub use wheel::{Entry, TimerWheel};

#[cfg(test)]
mod tests {
    use super::SimRng;

    #[test]
    fn seeds_decorrelate() {
        // SplitMix64 seeding: even adjacent seeds start on distinct draws
        let mut firsts: Vec<u64> = (0..64).map(|s| SimRng::new(s).next_u64()).collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 64);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = SimRng::new(7);
        let (mut low, mut high) = (false, false);
        for _ in 0..10_000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
            low |= x < 0.5;
            high |= x >= 0.5;
        }
        assert!(low && high);
    }

    #[test]
    fn gen_range_bounds_respected() {
        let mut r = SimRng::new(9);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some value of 10..20 never drawn");
        // a range at the top of u64 neither overflows nor leaves its bounds
        for _ in 0..1000 {
            let v = r.range_u64(u64::MAX - 5, u64::MAX);
            assert!((u64::MAX - 5..u64::MAX).contains(&v));
        }
    }
}
