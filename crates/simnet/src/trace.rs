//! Execution tracing for debugging and assertions in tests.

use core::fmt;

use crate::host::Outlet;
use crate::net::NodeId;
use crate::time::SimTime;

/// One observable scheduling event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message was accepted for transmission.
    Sent {
        /// Virtual time of the send.
        time: SimTime,
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A message reached its destination.
    Delivered {
        /// Virtual time of the delivery.
        time: SimTime,
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A message was lost (drop or partition).
    Lost {
        /// Virtual time of the send.
        time: SimTime,
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
    },
    /// A timer fired on a node.
    TimerFired {
        /// Virtual time of the firing.
        time: SimTime,
        /// Owning node.
        node: NodeId,
    },
}

impl TraceEvent {
    /// Virtual time at which the event occurred.
    #[must_use]
    pub fn time(&self) -> SimTime {
        match self {
            TraceEvent::Sent { time, .. }
            | TraceEvent::Delivered { time, .. }
            | TraceEvent::Lost { time, .. }
            | TraceEvent::TimerFired { time, .. } => *time,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Sent {
                time,
                from,
                to,
                bytes,
            } => {
                write!(f, "{time} {from}→{to} send {bytes}B")
            }
            TraceEvent::Delivered {
                time,
                from,
                to,
                bytes,
            } => {
                write!(f, "{time} {from}→{to} deliver {bytes}B")
            }
            TraceEvent::Lost { time, from, to } => write!(f, "{time} {from}→{to} lost"),
            TraceEvent::TimerFired { time, node } => write!(f, "{time} {node} timer"),
        }
    }
}

/// A bounded in-memory log of [`TraceEvent`]s.
///
/// Disabled by default (zero overhead); enable with [`Trace::enable`] in
/// tests that assert on schedules. The log stops growing at its capacity
/// and counts how many events were discarded.
#[derive(Debug, Default)]
pub struct Trace {
    enabled: bool,
    capacity: usize,
    events: Vec<TraceEvent>,
    overflowed: u64,
}

impl Trace {
    /// Default maximum retained events.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates a disabled trace.
    #[must_use]
    pub fn new() -> Self {
        Trace {
            enabled: false,
            capacity: Self::DEFAULT_CAPACITY,
            events: Vec::new(),
            overflowed: 0,
        }
    }

    /// Starts recording (optionally bounding retained events).
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Sets the retention bound.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// Whether recording is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event (no-op when disabled).
    pub fn record(&mut self, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity {
            self.overflowed += 1;
            return;
        }
        self.events.push(ev);
    }

    /// The retained events in order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// How many events were discarded after the capacity was reached.
    #[must_use]
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Number of deliveries to `node` in the log.
    #[must_use]
    pub fn deliveries_to(&self, node: NodeId) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Delivered { to, .. } if *to == node))
            .count()
    }

    /// Clears the log (keeps enablement and capacity).
    pub fn clear(&mut self) {
        self.events.clear();
        self.overflowed = 0;
    }
}

/// The simulator's outlet: it hosts every node, so nothing is forwarded,
/// and what happens is recorded.
impl<M> Outlet<M> for Trace {
    fn forward(&mut self, _: NodeId, to: NodeId, _: M, _: usize) {
        panic!("the simulation hosts every node, and not {to}");
    }

    fn note(&mut self, event: TraceEvent) {
        self.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(us: u64) -> TraceEvent {
        TraceEvent::Sent {
            time: SimTime::from_micros(us),
            from: NodeId(0),
            to: NodeId(1),
            bytes: 8,
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        t.record(ev(1));
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::new();
        t.enable();
        t.record(ev(1));
        t.record(ev(2));
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].time(), SimTime::from_micros(1));
    }

    #[test]
    fn capacity_bounds_growth() {
        let mut t = Trace::new();
        t.enable();
        t.set_capacity(2);
        for i in 0..5 {
            t.record(ev(i));
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.overflowed(), 3);
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.overflowed(), 0);
    }

    #[test]
    fn deliveries_to_filters() {
        let mut t = Trace::new();
        t.enable();
        t.record(TraceEvent::Delivered {
            time: SimTime::ZERO,
            from: NodeId(0),
            to: NodeId(1),
            bytes: 4,
        });
        t.record(TraceEvent::Delivered {
            time: SimTime::ZERO,
            from: NodeId(0),
            to: NodeId(2),
            bytes: 4,
        });
        assert_eq!(t.deliveries_to(NodeId(1)), 1);
        assert_eq!(t.deliveries_to(NodeId(9)), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ev(1000).to_string(), "t=1ms n0→n1 send 8B");
        let lost = TraceEvent::Lost {
            time: SimTime::ZERO,
            from: NodeId(2),
            to: NodeId(3),
        };
        assert_eq!(lost.to_string(), "t=0us n2→n3 lost");
        let timer = TraceEvent::TimerFired {
            time: SimTime::ZERO,
            node: NodeId(4),
        };
        assert_eq!(timer.to_string(), "t=0us n4 timer");
        let del = TraceEvent::Delivered {
            time: SimTime::ZERO,
            from: NodeId(0),
            to: NodeId(1),
            bytes: 2,
        };
        assert_eq!(del.to_string(), "t=0us n0→n1 deliver 2B");
    }
}
