//! Sharding primitives for the conservative time-windowed engine.
//!
//! The discrete-event engine can partition the process set across `S`
//! worker **shards**. Each shard owns its own
//! [`EventQueue`](super::queue::EventQueue) (heap or calendar core —
//! the [`QueueCore`](super::queue::QueueCore) seam) and processes only
//! the events targeting its slots. A broadcast's deliveries into one
//! shard form one *run* (see the engine module docs) held by that
//! shard; the run's head — its single queue entry — goes straight into
//! that shard's queue when the broadcast is scheduled, wherever the
//! sender lives.
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
//!   queue entry. A key is fixed when its event is scheduled, so which
//!   queue an event sits in, and when it was pushed there, cannot
//!   perturb the order.
//! * **One home per event.** The single-threaded commit that
//!   schedules an event pushes it straight into the queue of the
//!   shard that will run it. The lookahead keeps such a push beyond
//!   the open window, so the destination's drain cannot pop it early.
//!   Only while a pool window's ordered commit runs are pushes staged
//!   in the destination shard's `pending` instead, flushed into its
//!   queue when the next window opens (or when the run stops).
//!
//! # Cancellation across shards
//!
//! When a sender crashes, its in-flight broadcast's ack and the
//! unfired rest of each of its runs are cancelled with one O(1)
//! tombstone per run head, on whichever shard's queue the head sits —
//! exactly like the serial engine. A crash is only ever processed
//! while the staging is empty (windows holding a crash never run on
//! the pool), so every head it voids is in a queue; a head found
//! nowhere is a bug, and the engine panics on it. Every voided
//! delivery counts as one cancellation, so the aggregate
//! `queue_cancellations` metric stays byte-identical to the serial
//! run's.

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
/// is what minimizes cross-shard runs. The requested shard
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
}
