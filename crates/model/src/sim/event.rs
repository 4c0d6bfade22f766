//! Internal event payload types for the discrete-event engine.
//!
//! Ordering and cancellation live in the generic
//! [`queue::EventQueue`](super::queue::EventQueue); this module only
//! defines what the engine schedules ([`EventKind`]) and the priority
//! band each kind occupies at equal times ([`EventClass`]).

use crate::ids::Slot;

/// Identifier of one broadcast instance (unique per execution).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) struct BcastId(pub u64);

/// Event classes, ordered by processing priority at equal times.
///
/// Crashes fire first (so a crash at time `t` can cut off deliveries at
/// `t`), then receives, then acks — the latter matching the
/// synchronous scheduler's "deliver all current messages, *then* give
/// all nodes their acks" semantics within one lockstep round.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) enum EventClass {
    Crash = 0,
    Receive = 1,
    Ack = 2,
}

#[derive(Clone, Debug)]
pub(crate) enum EventKind {
    /// The head of a delivery run: entry `k` of run `run` — one
    /// broadcast's deliveries into one shard, held in that shard's
    /// run slab — is due. A run has exactly one queue entry at a
    /// time, keyed by its next delivery.
    Receive { run: u32, k: u32 },
    /// Acknowledge completion of `bcast` to its sender.
    Ack { node: Slot, bcast: BcastId },
    /// Crash `node` (scheduled from a [`CrashPlan`](super::crash::CrashPlan)).
    Crash { node: Slot },
}

impl EventKind {
    /// The queue priority band for this event kind.
    pub(crate) fn class(&self) -> u8 {
        (match self {
            EventKind::Crash { .. } => EventClass::Crash,
            EventKind::Receive { .. } => EventClass::Receive,
            EventKind::Ack { .. } => EventClass::Ack,
        }) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::queue::EventQueue;
    use crate::sim::time::Time;

    fn recv(run: u32) -> EventKind {
        EventKind::Receive { run, k: 0 }
    }

    #[test]
    fn queue_pops_time_then_class_then_seq() {
        let mut q = EventQueue::new();
        let ack = EventKind::Ack {
            node: Slot(0),
            bcast: BcastId(0),
        };
        q.push(Time(2), ack.class(), ack);
        q.push(Time(2), recv(1).class(), recv(1));
        let c2 = EventKind::Crash { node: Slot(2) };
        let c3 = EventKind::Crash { node: Slot(3) };
        q.push(Time(1), c2.class(), c2);
        q.push(Time(2), c3.class(), c3);

        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.ticks(), e.payload.class()))
            .collect();
        assert_eq!(
            order,
            vec![
                (1, EventClass::Crash as u8),
                (2, EventClass::Crash as u8),
                (2, EventClass::Receive as u8),
                (2, EventClass::Ack as u8),
            ]
        );
    }

    #[test]
    fn same_class_orders_by_insertion() {
        let mut q = EventQueue::new();
        for run in [3u32, 1, 2] {
            q.push(Time(1), recv(run).class(), recv(run));
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.payload {
                EventKind::Receive { run, .. } => run,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![3, 1, 2], "insertion order, not run order");
    }
}
