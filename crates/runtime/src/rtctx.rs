//! [`RtCtx`]: the threaded runtime's implementation of
//! [`kvstore::ctx::NodeCtx`].
//!
//! One `RtCtx` is stacked up per dispatched event (a start, an inbound
//! message, or a timer fire). During the dispatch it buffers everything
//! the node asked for — outbound messages, timer arms, timer cancels —
//! and the hosting worker thread applies the effects afterwards: timers
//! go into the node's [`TimerWheel`](crate::wheel::TimerWheel), messages
//! are routed through the shared (optionally lossy/laggy) channel layer.
//!
//! Buffering instead of sending inline keeps the dispatch borrow-simple
//! and mirrors the simulator's collect-then-apply structure, so message
//! self-sends and same-instant timers behave identically across drivers.

use dvv::mechanisms::Mechanism;
use kvstore::ctx::NodeCtx;
use kvstore::messages::Msg;
use kvstore::value::StampedValue;
use simnet::{Duration, NodeId, SimRng, SimTime, TimerId};

/// Per-dispatch context handed to a hosted node's `on_start` /
/// `on_message` / `on_timer`.
#[derive(Debug)]
pub struct RtCtx<'a, M: Mechanism<StampedValue>> {
    id: NodeId,
    now: SimTime,
    rng: &'a mut SimRng,
    mech: M,
    header_bytes: usize,
    next_timer: &'a mut u64,
    /// Messages queued during this dispatch, in send order.
    pub outbox: Vec<(NodeId, Msg<M>)>,
    /// Timers armed during this dispatch: (absolute due time µs, id),
    /// in arm order (the wheel preserves it for same-instant fires).
    pub timer_sets: Vec<(u64, TimerId)>,
    /// Timers cancelled during this dispatch.
    pub timer_cancels: Vec<TimerId>,
}

impl<'a, M: Mechanism<StampedValue>> RtCtx<'a, M> {
    /// Opens a dispatch context at monotonic instant `now` for node `id`.
    pub fn new(
        id: NodeId,
        now: SimTime,
        rng: &'a mut SimRng,
        mech: M,
        header_bytes: usize,
        next_timer: &'a mut u64,
    ) -> Self {
        RtCtx {
            id,
            now,
            rng,
            mech,
            header_bytes,
            next_timer,
            outbox: Vec::new(),
            timer_sets: Vec::new(),
            timer_cancels: Vec::new(),
        }
    }
}

impl<M: Mechanism<StampedValue>> NodeCtx<M> for RtCtx<'_, M> {
    fn id(&self) -> NodeId {
        self.id
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    fn send(&mut self, to: NodeId, msg: Msg<M>) -> usize {
        let bytes = msg.wire_size(&self.mech) + self.header_bytes;
        self.outbox.push((to, msg));
        bytes
    }

    fn set_timer(&mut self, delay: Duration) -> TimerId {
        let t = TimerId::from_raw(*self.next_timer);
        *self.next_timer += 1;
        self.timer_sets
            .push((self.now.as_micros() + delay.as_micros(), t));
        t
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.timer_cancels.push(timer);
    }
}
