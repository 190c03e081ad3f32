//! The events a [`Network`](crate::Network) schedules on its
//! [`CalendarWheel`](crate::CalendarWheel).
//!
//! The wheel orders events by `(time, seq)` with a monotone per-queue
//! sequence number, so simultaneous events fire in scheduling order. It
//! is checked against a reference binary heap in
//! `crates/sim/tests/differential.rs`.

use crate::context::TimerToken;
use crate::interface::Interface;
use crate::node::NodeId;

/// The event kernel a load run uses. The timer wheel is the only one:
/// this one-variant type survives only so configurations that copy a
/// `kernel` field keep compiling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Kernel {
    /// Hierarchical timer wheel ([`CalendarWheel`](crate::CalendarWheel)).
    #[default]
    Wheel,
}

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver `msg` to `to`, as sent by `from` over `iface`.
    Deliver {
        from: NodeId,
        to: NodeId,
        iface: Interface,
        msg: M,
    },
    /// Fire a timer on `node`.
    Timer {
        node: NodeId,
        token: TimerToken,
        tag: u64,
    },
    /// Invoke `on_start` for a node added after the network started.
    Start { node: NodeId },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::wheel::CalendarWheel;

    fn timer_event(node: u32, tag: u64) -> EventKind<()> {
        EventKind::Timer {
            node: NodeId(node),
            token: TimerToken(tag),
            tag,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarWheel::new();
        q.push(SimTime::from_micros(30), timer_event(0, 0));
        q.push(SimTime::from_micros(10), timer_event(0, 1));
        q.push(SimTime::from_micros(20), timer_event(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(at, _)| at.as_micros())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = CalendarWheel::new();
        for tag in 0..5 {
            q.push(SimTime::from_micros(100), timer_event(0, tag));
        }
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, kind)| match kind {
                EventKind::Timer { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = CalendarWheel::new();
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(5), timer_event(0, 0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
    }

    #[test]
    fn pop_at_or_before_deadline() {
        let mut q = CalendarWheel::new();
        q.push(SimTime::from_micros(10), timer_event(0, 0));
        q.push(SimTime::from_micros(40), timer_event(0, 1));
        let first = q.pop_at_or_before(SimTime::from_micros(20));
        assert_eq!(first.map(|(at, _)| at), Some(SimTime::from_micros(10)));
        assert!(q.pop_at_or_before(SimTime::from_micros(20)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(format!("{:?}", Kernel::default()), "Wheel");
    }
}
