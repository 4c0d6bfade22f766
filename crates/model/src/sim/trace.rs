//! Execution traces and aggregate metrics.

use crate::ids::Slot;
use crate::proc::Value;

use super::time::Time;

/// One observable event in an execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// A node's broadcast was accepted by the MAC layer.
    Broadcast {
        /// Event time.
        time: Time,
        /// Sending node.
        slot: Slot,
        /// Number of ids in the message (see [`Payload`](crate::msg::Payload)).
        ids: usize,
    },
    /// A message was delivered.
    Deliver {
        /// Event time.
        time: Time,
        /// Sender.
        from: Slot,
        /// Receiver.
        to: Slot,
        /// Delivered over an unreliable overlay edge.
        unreliable: bool,
    },
    /// A node received the ack for its outstanding broadcast.
    Ack {
        /// Event time.
        time: Time,
        /// Acked node.
        slot: Slot,
    },
    /// A node crashed.
    Crash {
        /// Event time.
        time: Time,
        /// Crashed node.
        slot: Slot,
    },
    /// A node performed its irrevocable decide action.
    Decide {
        /// Event time.
        time: Time,
        /// Deciding node.
        slot: Slot,
        /// Decided value.
        value: Value,
    },
}

impl TraceEvent {
    /// The event's time.
    pub fn time(&self) -> Time {
        match *self {
            TraceEvent::Broadcast { time, .. }
            | TraceEvent::Deliver { time, .. }
            | TraceEvent::Ack { time, .. }
            | TraceEvent::Crash { time, .. }
            | TraceEvent::Decide { time, .. } => time,
        }
    }
}

/// An optionally-recorded event log: a plain `Vec<TraceEvent>`
/// appended to in processing order. Equality is event-sequence
/// equality (plus the enabled flag) — the assertion the sharded
/// engine's determinism contract is stated in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates a trace; events are recorded only when `enabled`.
    ///
    /// Traces are normally produced by the simulation engine, but
    /// constructing one by hand is useful for feeding synthetic event
    /// logs to the [conformance checker](super::conformance).
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            events: Vec::new(),
        }
    }

    /// Appends an event (no-op when recording is disabled).
    pub fn push(&mut self, ev: TraceEvent) {
        if self.enabled {
            self.events.push(ev);
        }
    }

    /// `true` when recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All recorded events, in processing order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Recorded decide events, in order.
    pub fn decisions(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Decide { .. }))
    }
}

/// Aggregate counters for one execution.
///
/// Equality deliberately ignores the wall-clock thread-timing fields
/// ([`Metrics::shard_busy_ns`], [`Metrics::shard_barrier_wait_ns`]),
/// the payload-custody layout counters
/// ([`Metrics::payload_clones`], [`Metrics::payload_moves`],
/// [`Metrics::arena_bytes_peak`]), and the pool-scheduling counters
/// ([`Metrics::worker_wakeups`], [`Metrics::superstep_count`],
/// [`Metrics::serial_window_shortcuts`], [`Metrics::worker_spawns`]):
/// every other counter is a deterministic function of the execution
/// and participates in the byte-identity contract across queue cores,
/// shard counts, and thread counts. The timing fields measure the
/// host machine, the custody counters measure the memory layout — a
/// cross-shard run legitimately clones at `S = 4` where `S = 1` has
/// one run — and the pool counters measure wake policy (serial gate,
/// worker availability), so all three families
/// legitimately differ between semantically identical runs.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Broadcasts accepted by the MAC layer.
    pub broadcasts: u64,
    /// Broadcast attempts discarded because one was outstanding.
    pub busy_discards: u64,
    /// Reliable-edge message deliveries.
    pub deliveries: u64,
    /// Unreliable-overlay deliveries.
    pub unreliable_deliveries: u64,
    /// Acks delivered to senders.
    pub acks: u64,
    /// Crashes that fired.
    pub crashes: u64,
    /// Total events processed by the engine.
    pub events: u64,
    /// Events scheduled: one per delivery, ack and timed crash (the
    /// engine-global event-id count), however few queue entries stood
    /// for them — a delivery run has one.
    pub queue_pushes: u64,
    /// Scheduled events a crash voided before they fired: one per
    /// delivery and ack, whether a queue tombstone or the tail of a
    /// cancelled run stood for it.
    pub queue_cancellations: u64,
    /// Queue entries that missed the core's fast path (calendar
    /// overflow-tier inserts; always 0 on the heap core).
    pub queue_bucket_overflows: u64,
    /// Deliveries scheduled into another shard, riding a run whose
    /// head goes straight into that shard's queue (always 0 on a
    /// serial, single-shard run). High values relative to `deliveries`
    /// mean the shard partition cuts across the traffic pattern.
    pub cross_shard_deliveries: u64,
    /// Conservative time windows the sharded coordinator opened
    /// (always 0 serial). `events / shard_window_advances` is the mean
    /// batch the lookahead buys per window.
    pub shard_window_advances: u64,
    /// Always 0, kept so code that reads every field still compiles:
    /// every event goes straight to its destination shard's queue, so
    /// there are no cross-shard mailboxes to flush. Excluded from
    /// equality.
    pub shard_mailbox_flushes: u64,
    /// Events processed per shard (length = shard count). Populated
    /// by the sharded coordinator only — a serial run reports `[0]`
    /// (its single shard drains one unbounded window without per-shard
    /// accounting, and `events` already carries the total). The spread is the load-imbalance
    /// signal the sweep reports surface.
    pub per_shard_events: Vec<u64>,
    /// Wall-clock nanoseconds each shard's worker spent doing real
    /// work — flushing its staging, draining its queue, and stepping
    /// its events — summed over all parallel windows (length = shard
    /// count; empty unless the thread-per-shard stepper ran). Wall
    /// clock, so **excluded from equality**: see the type docs.
    pub shard_busy_ns: Vec<u64>,
    /// Wall-clock nanoseconds each shard's worker spent waiting at
    /// window-boundary barriers for the slowest sibling (length =
    /// shard count; empty unless the parallel stepper ran). Together
    /// with [`Metrics::shard_busy_ns`] this makes coordination
    /// overhead observable instead of inferred from end-to-end wall
    /// clock: see [`Metrics::barrier_pct`]. Excluded from equality.
    pub shard_barrier_wait_ns: Vec<u64>,
    /// Worker passes through a pool-executed window, summed over all
    /// workers: worker groups × [`Metrics::superstep_count`] (always 0
    /// serial/inline). Scheduling policy, not execution semantics —
    /// the serial gate and the host's core count change it freely — so
    /// **excluded from equality** like the wall-clock fields.
    pub worker_wakeups: u64,
    /// Windows the persistent pool executed (three barrier rounds
    /// each), whether the commit gate then committed or aborted them
    /// (always 0 serial/inline). Excluded from equality (see
    /// [`Metrics::worker_wakeups`]).
    pub superstep_count: u64,
    /// Windows the adaptive serial gate stepped inline on the
    /// coordinator without waking workers, because the previous
    /// window's event count fell below the shortcut threshold (always
    /// 0 serial). Excluded from equality (see
    /// [`Metrics::worker_wakeups`]).
    pub serial_window_shortcuts: u64,
    /// OS threads the engine spawned for this run: the persistent pool
    /// spawns its workers once per `run`/`run_until` call, so this is
    /// O(1) in the window count (always 0 serial/inline). Excluded
    /// from equality (see [`Metrics::worker_wakeups`]).
    pub worker_spawns: u64,
    /// Payload clones the engine performed. Each delivery run owns one
    /// copy of its broadcast's payload, so this is one per delivery to
    /// a live receiver that is not its run's last entry, plus one per
    /// other shard a broadcast's runs cross into. Configuration-
    /// dependent — sharding splits one run into several, each ending
    /// in a move — so **excluded from equality** like the wall-clock
    /// fields.
    pub payload_clones: u64,
    /// Payloads handed to their final consumer by move (no copy): one
    /// per run whose last entry reaches a live receiver. Excluded from
    /// equality (see [`Metrics::payload_clones`]).
    pub payload_moves: u64,
    /// In-flight payload footprint bound in bytes, summed over shards:
    /// the high-water number of delivery runs (each holds at most one
    /// payload) times the payload size. Excluded from equality (see
    /// [`Metrics::payload_clones`]).
    pub arena_bytes_peak: u64,
    /// Largest per-message id count observed.
    pub max_message_ids: usize,
    /// Sum of id counts over all broadcasts.
    pub total_message_ids: u64,
    /// Broadcast count per node (bottleneck analysis, experiment E3).
    pub per_slot_broadcasts: Vec<u64>,
}

impl PartialEq for Metrics {
    /// Field-by-field equality over every *deterministic* counter; the
    /// wall-clock `shard_busy_ns`/`shard_barrier_wait_ns` vectors, the
    /// layout-dependent `payload_clones`/`payload_moves`/
    /// `arena_bytes_peak` counters, and the wake-policy
    /// `worker_wakeups`/`superstep_count`/`serial_window_shortcuts`/
    /// `worker_spawns` counters, and the retired, always-zero flush
    /// counter, are intentionally skipped (see the type docs).
    fn eq(&self, other: &Self) -> bool {
        self.broadcasts == other.broadcasts
            && self.busy_discards == other.busy_discards
            && self.deliveries == other.deliveries
            && self.unreliable_deliveries == other.unreliable_deliveries
            && self.acks == other.acks
            && self.crashes == other.crashes
            && self.events == other.events
            && self.queue_pushes == other.queue_pushes
            && self.queue_cancellations == other.queue_cancellations
            && self.queue_bucket_overflows == other.queue_bucket_overflows
            && self.cross_shard_deliveries == other.cross_shard_deliveries
            && self.shard_window_advances == other.shard_window_advances
            && self.per_shard_events == other.per_shard_events
            && self.max_message_ids == other.max_message_ids
            && self.total_message_ids == other.total_message_ids
            && self.per_slot_broadcasts == other.per_slot_broadcasts
    }
}

impl Eq for Metrics {}

impl Metrics {
    /// Creates zeroed metrics for an `n`-node execution.
    pub fn new(n: usize) -> Self {
        Self {
            per_slot_broadcasts: vec![0; n],
            ..Self::default()
        }
    }

    /// The largest number of broadcasts performed by any single node —
    /// the bottleneck measure behind the `Theta(n * F_ack)` flooding
    /// lower bound discussed in Section 4.2.
    pub fn max_broadcasts_per_slot(&self) -> u64 {
        self.per_slot_broadcasts.iter().copied().max().unwrap_or(0)
    }

    /// Shard load imbalance: the busiest shard's event share over the
    /// mean (`1.0` = perfectly balanced; `1.0` when nothing ran or the
    /// run was serial).
    pub fn shard_skew(&self) -> f64 {
        let total: u64 = self.per_shard_events.iter().sum();
        let max = self.per_shard_events.iter().copied().max().unwrap_or(0);
        if total == 0 || self.per_shard_events.is_empty() {
            1.0
        } else {
            max as f64 * self.per_shard_events.len() as f64 / total as f64
        }
    }

    /// Share of the parallel stepper's worker time lost to
    /// window-boundary barriers, in percent: `wait / (busy + wait)`
    /// summed over all shards. `0.0` when the parallel stepper never
    /// ran (or never did measurable work). Wall-clock derived, so this
    /// is a diagnostic — never part of any identity comparison.
    pub fn barrier_pct(&self) -> f64 {
        let busy: u64 = self.shard_busy_ns.iter().sum();
        let wait: u64 = self.shard_barrier_wait_ns.iter().sum();
        if busy + wait == 0 {
            0.0
        } else {
            wait as f64 * 100.0 / (busy + wait) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        t.push(TraceEvent::Ack {
            time: Time(1),
            slot: Slot(0),
        });
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_and_filters() {
        let mut t = Trace::new(true);
        t.push(TraceEvent::Broadcast {
            time: Time(1),
            slot: Slot(0),
            ids: 2,
        });
        t.push(TraceEvent::Decide {
            time: Time(3),
            slot: Slot(0),
            value: 1,
        });
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.decisions().count(), 1);
        assert_eq!(t.events()[1].time(), Time(3));
    }

    #[test]
    fn ring_roundtrips_every_event_shape() {
        let events = [
            TraceEvent::Broadcast {
                time: Time(0),
                slot: Slot(0),
                ids: 7,
            },
            TraceEvent::Deliver {
                time: Time(12),
                from: Slot(3),
                to: Slot((1 << 30) - 1),
                unreliable: false,
            },
            TraceEvent::Deliver {
                time: Time(u64::MAX),
                from: Slot((1 << 30) - 1),
                to: Slot(0),
                unreliable: true,
            },
            TraceEvent::Ack {
                time: Time(5),
                slot: Slot(9),
            },
            TraceEvent::Crash {
                time: Time(6),
                slot: Slot(1),
            },
            TraceEvent::Decide {
                time: Time(7),
                slot: Slot(2),
                value: u64::MAX,
            },
        ];
        let mut t = Trace::new(true);
        for ev in events {
            t.push(ev);
        }
        assert_eq!(t.events(), &events[..]);
        assert_eq!(t.len(), events.len());
        t.push(events[0]);
        assert_eq!(t.events().len(), events.len() + 1);
        assert_eq!(t.events().last(), Some(&events[0]));
    }

    #[test]
    fn ring_equality_is_event_equality() {
        let ev = TraceEvent::Ack {
            time: Time(3),
            slot: Slot(1),
        };
        let mut a = Trace::new(true);
        let mut b = Trace::new(true);
        a.push(ev);
        assert_ne!(a, b);
        b.push(ev);
        assert_eq!(a, b);
        b.push(ev);
        assert_ne!(a, b);
    }

    #[test]
    fn shard_skew_measures_imbalance() {
        let mut m = Metrics::new(4);
        assert_eq!(m.shard_skew(), 1.0, "no shards recorded");
        m.per_shard_events = vec![10, 10];
        assert_eq!(m.shard_skew(), 1.0, "balanced");
        m.per_shard_events = vec![30, 10];
        assert_eq!(m.shard_skew(), 1.5);
        m.per_shard_events = vec![0, 0, 0];
        assert_eq!(m.shard_skew(), 1.0, "empty run");
    }

    #[test]
    fn metrics_bottleneck_helper() {
        let mut m = Metrics::new(3);
        m.per_slot_broadcasts[1] = 7;
        m.per_slot_broadcasts[2] = 3;
        assert_eq!(m.max_broadcasts_per_slot(), 7);
        assert_eq!(Metrics::new(0).max_broadcasts_per_slot(), 0);
    }
}
