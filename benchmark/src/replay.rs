//! Replay kernels for the layers the engine owns privately. The
//! engine's queue, arena, ledger and trace ring are public types but
//! the engine's *use* of them is not observable from outside, so each
//! kernel drives the public type in the engine's call pattern at the
//! traced run's own depth and fan-out and reports a cost per
//! operation. Multiplied by the run's public counters these give the
//! `*.est_share` figures — estimates, not measurements: the kernels
//! run with warm caches and nothing else competing for them.

use std::hint::black_box;
use std::time::Instant;

use amacl_model::mac::BcastLedger;
use amacl_model::prelude::*;
use amacl_model::sim::arena::PayloadArena;
use amacl_model::sim::trace::{Trace, TraceEvent};

use crate::stats::splitmix64;

/// Operations timed per kernel: enough to run for tens of
/// milliseconds, small next to a campaign.
const OPS: u64 = 400_000;

/// A stand-in for the engine's private event record: four words, the
/// size of a `Receive { to, from, bcast, unreliable }`.
type EventStandIn = [u64; 4];

/// A delay drawn uniformly from `[1, f_ack]`, the `RandomScheduler`'s
/// range.
fn delay(state: &mut u64, f_ack: u64) -> u64 {
    *state = splitmix64(*state);
    1 + *state % f_ack
}

/// A queue on `core` pre-filled to `depth` entries due within one
/// `F_ack` of time zero.
fn filled_queue(
    core: QueueCoreKind,
    depth: u64,
    f_ack: u64,
    rng: &mut u64,
) -> EventQueue<EventStandIn> {
    let mut q = EventQueue::with_core(core);
    for i in 0..depth {
        q.push(Time(delay(rng, f_ack)), (i % 2) as u8, [i; 4]);
    }
    q
}

/// Hold model: with the queue held at `depth` entries, pop the
/// earliest and push one `[1, f_ack]` ticks later. Returns nanoseconds
/// per pop+push pair — what one engine event costs in the queue.
pub fn queue_hold_ns(core: QueueCoreKind, depth: u64, f_ack: u64) -> f64 {
    let mut rng = 0x51ED_27AB_u64;
    let mut q = filled_queue(core, depth.max(1), f_ack, &mut rng);
    let t = Instant::now();
    for _ in 0..OPS {
        let ev = q.pop().expect("hold model keeps the queue non-empty");
        let due = ev.time + delay(&mut rng, f_ack);
        q.push(due, 1, black_box(ev.payload));
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(q.len());
    ns / OPS as f64
}

/// Push one entry onto a queue held at `depth` and cancel it again:
/// nanoseconds per cancellation (push cost included; the engine only
/// cancels what it pushed).
pub fn queue_cancel_ns(core: QueueCoreKind, depth: u64, f_ack: u64) -> f64 {
    let mut rng = 0xC0FF_EE11_u64;
    let mut q = filled_queue(core, depth.max(1), f_ack, &mut rng);
    let t = Instant::now();
    for i in 0..OPS {
        let id = q.push(Time(delay(&mut rng, f_ack)), 0, [i; 4]);
        black_box(q.cancel(id));
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(q.len());
    ns / OPS as f64
}

/// One broadcast's payload custody as the serial engine performs it:
/// `insert(payload, fanout + 1)`, one `release` per delivery (a clone:
/// the ack still holds a reference), one `discard` for the ack.
/// Returns nanoseconds per delivery.
pub fn arena_fanout_ns<M: Clone>(sample: &M, fanout: u32) -> f64 {
    let fanout = fanout.max(1);
    let broadcasts = (OPS / u64::from(fanout)).max(1);
    // Payloads are built outside the timed region: the engine receives
    // them by move from the process.
    const BATCH: usize = 256;
    let mut arena = PayloadArena::new();
    let mut ns = 0u128;
    let mut done = 0;
    while done < broadcasts {
        let batch: Vec<M> = (0..BATCH).map(|_| sample.clone()).collect();
        let t = Instant::now();
        for payload in batch {
            let h = arena.insert(payload, fanout + 1);
            for _ in 0..fanout {
                black_box(arena.release(h));
            }
            black_box(arena.discard(h));
        }
        ns += t.elapsed().as_nanos();
        done += BATCH as u64;
    }
    ns as f64 / (done * u64::from(fanout)) as f64
}

/// One broadcast's ledger bookkeeping as the engine performs it:
/// `admit_broadcast`, then per delivery an `is_crashed` check on the
/// receiver and a `note_delivery`. Returns nanoseconds per broadcast.
pub fn ledger_broadcast_ns(n: usize, fanout: u32) -> f64 {
    let n = n.max(2);
    let fanout = fanout.max(1) as usize;
    let broadcasts = (OPS / fanout as u64).max(1);
    let mut ledger = BcastLedger::new(n);
    let t = Instant::now();
    for b in 0..broadcasts {
        let from = (b as usize) % n;
        black_box(ledger.admit_broadcast(from, b));
        for k in 1..=fanout {
            black_box(ledger.is_crashed((from + k) % n));
            black_box(ledger.note_delivery(b));
        }
    }
    t.elapsed().as_nanos() as f64 / broadcasts as f64
}

/// Nanoseconds to push one record onto an enabled trace ring.
pub fn trace_push_ns() -> f64 {
    let mut trace = Trace::new(true);
    let t = Instant::now();
    for i in 0..OPS {
        trace.push(TraceEvent::Deliver {
            time: Time(i),
            from: Slot((i % 512) as usize),
            to: Slot(((i + 1) % 512) as usize),
            unreliable: false,
        });
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(trace.len());
    ns / OPS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_report_positive_finite_costs() {
        for core in QueueCoreKind::all() {
            let hold = queue_hold_ns(core, 100, 8);
            assert!(hold.is_finite() && hold > 0.0, "{core}: {hold}");
            let cancel = queue_cancel_ns(core, 100, 8);
            assert!(cancel.is_finite() && cancel > 0.0, "{core}: {cancel}");
        }
        assert!(arena_fanout_ns(&[0u64; 8], 3) > 0.0);
        assert!(ledger_broadcast_ns(4, 3) > 0.0);
        assert!(trace_push_ns() > 0.0);
    }
}
