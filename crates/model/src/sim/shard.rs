//! Sharding primitives for the conservative time-windowed engine.
//!
//! The discrete-event engine can partition the process set across `S`
//! worker **shards**. Each shard owns its own
//! [`EventQueue`](super::queue::EventQueue) (heap or calendar core —
//! the [`QueueCore`](super::queue::QueueCore) seam) and processes only
//! the events targeting its slots. A broadcast's deliveries into one
//! shard form one *run* (see the engine module docs) held by that
//! shard; the run's head — its single queue entry — travels from the
//! sender's shard through a deterministic per-edge mailbox (the
//! crate-internal `Mailbox` type) instead of being pushed directly.
//!
//! # The determinism contract
//!
//! Sharding is an **execution-architecture knob, not a semantic one**:
//! for every process set, scheduler, crash plan, seed, and queue core,
//! a run at any shard count produces a trace, decision vector, and
//! semantic counter set **byte-identical** to the serial (`S = 1`)
//! engine. The engine guarantees this with a conservative time-window
//! protocol:
//!
//! * **Lookahead.** The scheduler declares a strictly positive minimum
//!   delay ([`Scheduler::min_delay`](super::sched::Scheduler::min_delay),
//!   the `F_prog`/`F_ack` floor of the abstract MAC layer: every
//!   delivery and every ack lands at least that many ticks after its
//!   broadcast). A window starting at virtual time `W` therefore spans
//!   `[W, W + lookahead)`, and **no event processed inside the window
//!   can schedule another event inside it** — everything new lands at
//!   or beyond the window horizon. Zero-lookahead schedulers are
//!   rejected at build time: a conservative engine cannot advance on
//!   them (it would deadlock waiting for a safe horizon that never
//!   opens).
//! * **Deterministic merge.** Within a window, the coordinator drains
//!   the shards' queue heads in global `(time, class, seq)` order —
//!   the exact order the serial engine's single queue would pop — with
//!   event sequence numbers allocated from one engine-global counter
//!   at scheduling time — one per delivery, even though a run has one
//!   queue entry. Cross-shard run heads keep their allocated seq
//!   through the mailbox, so draining a mailbox into the destination
//!   queue cannot perturb the order.
//! * **Mailbox flushes at window boundaries.** Because nothing
//!   scheduled inside a window is due inside it, mailboxes only need
//!   draining when a window opens. Each drained non-empty mailbox
//!   counts one `mailbox_flush` in
//!   [`Metrics`](super::trace::Metrics).
//!
//! # Cancellation across shards
//!
//! When a sender crashes, its in-flight broadcast's ack and the
//! unfired rest of each of its runs are cancelled wherever the run
//! head lives:
//!
//! * already in a destination shard's queue — O(1) tombstone on that
//!   queue, exactly like the serial engine;
//! * still in a mailbox (scheduled this window, not yet flushed) — the
//!   head is removed from the mailbox by id.
//!
//! Either way every voided delivery counts as one cancellation, so
//! the aggregate `queue_cancellations` metric stays byte-identical to
//! the serial run's. Cancelling an id that is in neither place is a
//! detectable no-op (`false`) in both — the same contract the
//! [`QueueCore`] owes its callers.
//!
//! [`QueueCore`]: super::queue::QueueCore

use super::queue::EventId;
use super::time::Time;

/// A validated shard count (at least 1; the default is serial, `1`).
///
/// Parsing accepts only a positive integer, so a typo in a `--shards`
/// flag is rejected rather than silently running serial.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardCount(usize);

impl ShardCount {
    /// A validated shard count.
    ///
    /// # Errors
    ///
    /// Rejects `0`: a simulation needs at least one shard.
    pub fn new(shards: usize) -> Result<Self, String> {
        if shards == 0 {
            Err("shard count must be at least 1".into())
        } else {
            Ok(Self(shards))
        }
    }

    /// The raw count.
    pub fn get(self) -> usize {
        self.0
    }
}

impl Default for ShardCount {
    fn default() -> Self {
        Self(1)
    }
}

/// A validated worker-thread count for the parallel stepper (at least
/// 1; the default is single-threaded stepping, `1`).
///
/// Like [`ShardCount`], parsing accepts only a positive integer. The
/// engine runs at most `min(threads, shards)` workers:
/// shards are the unit of parallelism, so extra threads never help and
/// are not spawned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ThreadCount(usize);

impl ThreadCount {
    /// A validated thread count.
    ///
    /// # Errors
    ///
    /// Rejects `0`: the coordinator always needs at least one stepper.
    pub fn new(threads: usize) -> Result<Self, String> {
        if threads == 0 {
            Err("thread count must be at least 1".into())
        } else {
            Ok(Self(threads))
        }
    }

    /// The raw count.
    pub fn get(self) -> usize {
        self.0
    }
}

impl Default for ThreadCount {
    fn default() -> Self {
        Self(1)
    }
}

impl std::str::FromStr for ThreadCount {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.parse::<usize>() {
            Ok(n) => Self::new(n),
            Err(_) => Err(format!(
                "unknown thread count `{s}` (expected a positive integer)"
            )),
        }
    }
}

impl std::fmt::Display for ThreadCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::str::FromStr for ShardCount {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.parse::<usize>() {
            Ok(n) => Self::new(n),
            Err(_) => Err(format!(
                "unknown shard count `{s}` (expected a positive integer)"
            )),
        }
    }
}

impl std::fmt::Display for ShardCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Balanced block partition of `n` slots across `S` shards.
///
/// Shard `i` owns the contiguous slot range `[i*n/S, (i+1)*n/S)`
/// (sizes differ by at most one). Contiguous blocks keep neighbor
/// locality on the structured topologies (lines, grids, tori), which
/// is what minimizes cross-shard mailbox traffic. The requested shard
/// count is clamped to `n`, so empty shards never exist.
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// Owning shard per slot.
    owner: Vec<u32>,
    /// `[lo, hi)` slot range per shard.
    ranges: Vec<(usize, usize)>,
}

impl ShardMap {
    /// Partitions `n` slots across (at most) `shards` shards.
    pub fn new(n: usize, shards: usize) -> Self {
        let s = shards.max(1).min(n.max(1));
        let mut owner = vec![0u32; n];
        let mut ranges = Vec::with_capacity(s);
        for i in 0..s {
            let lo = i * n / s;
            let hi = (i + 1) * n / s;
            ranges.push((lo, hi));
            for o in &mut owner[lo..hi] {
                *o = i as u32;
            }
        }
        Self { owner, ranges }
    }

    /// Number of (non-empty) shards.
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// The shard owning `slot`.
    #[inline]
    pub fn shard_of(&self, slot: usize) -> usize {
        self.owner[slot] as usize
    }

    /// The contiguous slot range `[lo, hi)` shard `shard` owns.
    pub fn slots_of(&self, shard: usize) -> std::ops::Range<usize> {
        let (lo, hi) = self.ranges[shard];
        lo..hi
    }
}

/// One cross-shard queue entry in transit — in the engine, a delivery
/// run's head: the payload plus the queue key it was allocated at
/// scheduling time, so draining preserves the global
/// `(time, class, seq)` order.
#[derive(Clone, Debug)]
pub(crate) struct MailEntry<E> {
    pub(crate) time: Time,
    pub(crate) class: u8,
    pub(crate) id: EventId,
    pub(crate) payload: E,
}

/// A deterministic per-edge mailbox: the run heads shard `src`
/// scheduled for shard `dst`, awaiting the next window-boundary flush.
///
/// Entries carry pre-allocated event ids, so the order they sit in the
/// mailbox (and the order they are drained) cannot influence pop
/// order — the destination queue orders by `(time, class, id)`.
#[derive(Debug, Default)]
pub(crate) struct Mailbox<E> {
    entries: Vec<MailEntry<E>>,
}

impl<E> Mailbox<E> {
    pub(crate) fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Deposits one in-transit entry.
    pub(crate) fn push(&mut self, entry: MailEntry<E>) {
        self.entries.push(entry);
    }

    /// `true` when nothing is in transit.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The earliest due time among in-transit entries (`None` when
    /// empty). The threaded stepper defers mailbox flushing to the
    /// destination shard's worker, so the coordinator computes window
    /// starts over queue heads *and* unflushed mailboxes; a linear
    /// scan is fine — a mailbox only ever holds one run head per
    /// broadcast of one window.
    pub(crate) fn min_time(&self) -> Option<Time> {
        self.entries.iter().map(|e| e.time).min()
    }

    /// Removes the in-transit entry with the given id, if present.
    /// Returns `true` on removal — the cancellation-in-flight path of
    /// the [module contract](self).
    pub(crate) fn cancel(&mut self, id: EventId) -> bool {
        match self.entries.iter().position(|e| e.id == id) {
            Some(idx) => {
                // swap_remove is safe: mailbox order is never
                // observable (ids order the destination queue).
                self.entries.swap_remove(idx);
                true
            }
            None => false,
        }
    }

    /// Drains every in-transit entry, handing each to `sink` (the
    /// destination queue's id-preserving insert).
    pub(crate) fn drain_into(&mut self, mut sink: impl FnMut(MailEntry<E>)) {
        for entry in self.entries.drain(..) {
            sink(entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_parses_and_rejects() {
        assert_eq!("4".parse::<ShardCount>().unwrap().get(), 4);
        assert_eq!(ShardCount::default().get(), 1);
        assert!("0".parse::<ShardCount>().is_err());
        assert!("four".parse::<ShardCount>().is_err());
        assert!("".parse::<ShardCount>().is_err());
        assert_eq!(ShardCount::new(3).unwrap().to_string(), "3");
        assert!(ShardCount::new(0).is_err());
    }

    /// Selecting a shard count by name (the `--shards` flag) is exact:
    /// the default is 1, and a typo is an error rather than a silent
    /// fall back to it.
    #[test]
    fn env_selection_rejects_typos_instead_of_falling_back() {
        assert_eq!(ShardCount::default().get(), 1);
        assert_eq!("7".parse::<ShardCount>().unwrap().get(), 7);
        assert!("0".parse::<ShardCount>().is_err());
        assert!("two".parse::<ShardCount>().is_err());
    }

    #[test]
    fn thread_count_parses_and_rejects() {
        assert_eq!("4".parse::<ThreadCount>().unwrap().get(), 4);
        assert_eq!(ThreadCount::default().get(), 1);
        assert!("0".parse::<ThreadCount>().is_err());
        assert!("four".parse::<ThreadCount>().is_err());
        assert!("".parse::<ThreadCount>().is_err());
        assert_eq!(ThreadCount::new(3).unwrap().to_string(), "3");
        assert!(ThreadCount::new(0).is_err());
    }

    /// Selecting a worker count by name (the `--threads` flag) is
    /// exact: the default is 1, and a typo is an error rather than a
    /// silent fall back to it.
    #[test]
    fn thread_env_selection_rejects_typos_instead_of_falling_back() {
        assert_eq!(ThreadCount::default().get(), 1);
        assert_eq!("7".parse::<ThreadCount>().unwrap().get(), 7);
        assert!("0".parse::<ThreadCount>().is_err());
        assert!("two".parse::<ThreadCount>().is_err());
    }

    #[test]
    fn mailbox_min_time_tracks_earliest_entry() {
        let mut mb: Mailbox<u8> = Mailbox::new();
        assert_eq!(mb.min_time(), None);
        for (i, t) in [5u64, 2, 9].iter().enumerate() {
            mb.push(MailEntry {
                time: Time(*t),
                class: 1,
                id: EventId(i as u64),
                payload: 0,
            });
        }
        assert_eq!(mb.min_time(), Some(Time(2)));
        assert!(mb.cancel(EventId(1)));
        assert_eq!(mb.min_time(), Some(Time(5)));
    }

    #[test]
    fn shard_map_partitions_contiguously_and_covers() {
        for n in [1usize, 2, 5, 7, 16, 33] {
            for s in [1usize, 2, 3, 4, 7, 40] {
                let map = ShardMap::new(n, s);
                assert!(map.shards() >= 1 && map.shards() <= s.max(1));
                assert!(map.shards() <= n.max(1));
                let mut covered = 0;
                for shard in 0..map.shards() {
                    let range = map.slots_of(shard);
                    for slot in range.clone() {
                        assert_eq!(map.shard_of(slot), shard, "n={n} s={s} slot={slot}");
                    }
                    covered += range.len();
                }
                assert_eq!(covered, n, "n={n} s={s}: partition must cover");
                // Balanced: sizes differ by at most one.
                let sizes: Vec<usize> = (0..map.shards()).map(|i| map.slots_of(i).len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "n={n} s={s}: unbalanced {sizes:?}");
            }
        }
    }

    #[test]
    fn mailbox_cancel_removes_only_the_named_entry() {
        let mut mb: Mailbox<&'static str> = Mailbox::new();
        for (i, p) in ["a", "b", "c"].iter().enumerate() {
            mb.push(MailEntry {
                time: Time(1),
                class: 1,
                id: EventId(i as u64),
                payload: p,
            });
        }
        assert!(mb.cancel(EventId(1)));
        assert!(!mb.cancel(EventId(1)), "double cancel is a no-op");
        assert!(!mb.cancel(EventId(9)), "unknown id is a no-op");
        let mut drained = Vec::new();
        mb.drain_into(|e| drained.push(e.id.raw()));
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 2]);
        assert!(mb.is_empty());
    }
}
