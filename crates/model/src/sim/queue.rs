//! The cancellable event-queue core of the discrete-event engine.
//!
//! The queue is the innermost loop of every simulation, so its
//! implementation is pluggable: [`QueueCore`] is the contract, and two
//! interchangeable cores ship with the crate —
//!
//! * [`HeapCore`] — an indexed binary heap (`O(log n)` push/pop). The
//!   safe default at any size, and the reference implementation the
//!   conformance suite diffs the other core against.
//! * [`CalendarCore`] — a hierarchical calendar (bucket) queue: a
//!   ring of per-tick buckets for the near future backed by an ordered
//!   overflow tier for far-future entries, with **lazy resize** (the
//!   ring doubles only when the overflow tier outgrows it). Push and
//!   pop are `O(1)` amortized when event times are densely clustered —
//!   exactly the profile of large-`n` MAC-layer workloads, where every
//!   broadcast schedules its deliveries at most `F_ack` ticks ahead.
//!
//! [`EventQueue`] wraps whichever core a [`QueueCoreKind`] selects
//! (statically dispatched — no vtable in the hot loop) behind one API.
//!
//! # The `QueueCore` contract
//!
//! Every implementation must provide, observably identically:
//!
//! * **Deterministic tie-breaking.** Entries pop in `(time, class,
//!   insertion order)` order. `class` is a small caller-chosen priority
//!   band (the engine uses crash < receive < ack, see the sim-internal
//!   `EventClass`); within a band, earlier pushes pop first. Two runs
//!   that push the same sequence pop the same sequence, on every
//!   platform and under **every core** — nothing may depend on hash
//!   iteration order or pointer values, and swapping cores must never
//!   change a simulation's trace (a property test in
//!   `model/tests/queue_props.rs` drives both cores through random
//!   interleaved workloads and demands identical behavior).
//! * **O(1) cancellation.** [`QueueCore::push`] returns an
//!   [`EventId`]; [`QueueCore::cancel`] marks that entry dead in O(1)
//!   by adding the id to a tombstone set (the dslab-style scheme).
//!   Dead entries are skipped — and their tombstones reclaimed — when
//!   they surface at the queue head, so a cancel costs O(1) now plus
//!   the pop it would have cost anyway. Cancelling an id that already
//!   fired (or was already cancelled) is a detectable no-op (`cancel`
//!   returns `false`), so callers may bulk-cancel bookkeeping lists
//!   without tracking which entries already ran.
//! * **Exact liveness accounting.** [`QueueCore::len`] and
//!   [`QueueCore::is_empty`] count only live (un-cancelled, un-popped)
//!   entries, so "no events remain" means what a quiescence check
//!   wants it to mean even while tombstoned entries still sit inside.
//!
//! The queue is deliberately ignorant of what the payloads mean: the
//! engine stores its internal `EventKind`s, tests store integers. All
//! model semantics (what a delivery does, when acks are due) live in
//! the driver and in [`crate::mac::BcastLedger`]. Both cores store
//! plain entries — ordering key and payload side by side, compared by
//! key — so a payload lives exactly as long as its entry. The engine's
//! payloads are a few words (a run index, an ack's node and broadcast),
//! so parking them in a side table would save no sift bytes worth a
//! second store.

use std::collections::{BTreeMap, BinaryHeap, HashSet};

use super::time::Time;

/// Handle to one scheduled entry, returned by [`QueueCore::push`] and
/// accepted by [`QueueCore::cancel`].
///
/// Ids are unique per queue and allocated in push order; the id
/// doubles as the deterministic tie-breaker within a `(time, class)`
/// band.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One entry popped from the queue.
#[derive(Clone, Debug)]
pub struct ScheduledEvent<E> {
    /// The entry's due time.
    pub time: Time,
    /// The id [`QueueCore::push`] returned for it.
    pub id: EventId,
    /// The caller's payload.
    pub payload: E,
}

/// The pluggable event-queue core contract.
///
/// See the [module docs](self) for the three guarantees every
/// implementation owes its callers: `(time, class, insertion)`
/// deterministic ordering, tombstone cancellation, and exact liveness
/// accounting. The engine holds cores behind [`EventQueue`] (an enum,
/// statically dispatched); the trait exists so tests, benches, and
/// future cores can be written against one interface.
pub trait QueueCore<E> {
    /// Schedules `payload` at `time` in priority band `class` (lower
    /// classes pop first at equal times). Returns the entry's id.
    fn push(&mut self, time: Time, class: u8, payload: E) -> EventId;

    /// Schedules `payload` under a **caller-allocated** id.
    ///
    /// This is the sharded engine's seam (see [`super::shard`]): event
    /// ids are allocated from one engine-global counter at scheduling
    /// time and inserted here with their original id — straight into
    /// the destination shard's queue, or later from a pool window's
    /// staging — so the `(time, class, id)` pop order of a set of
    /// events is independent of which queue each one landed in, and of
    /// the order they were pushed.
    ///
    /// The caller owes the queue unique ids (never reused across
    /// `push`/`push_at` on the same queue); the id participates in
    /// cancellation and liveness accounting exactly like a
    /// [`QueueCore::push`]-allocated one.
    fn push_at(&mut self, time: Time, class: u8, id: EventId, payload: E);

    /// The `(time, class, id)` key of the earliest live entry, purging
    /// any cancelled entries that have reached the queue head. This is
    /// what the sharded coordinator merges shard heads on.
    fn peek_key(&mut self) -> Option<(Time, u8, u64)>;

    /// Cancels the entry with the given id, if it is still pending.
    ///
    /// Returns `true` if the entry was live (it will now never pop) and
    /// `false` if it had already popped or been cancelled — making
    /// bulk cancellation of stale id lists safe.
    fn cancel(&mut self, id: EventId) -> bool;

    /// The due time of the earliest live entry, purging any cancelled
    /// entries that have reached the queue head.
    fn peek_time(&mut self) -> Option<Time>;

    /// Pops the earliest live entry.
    fn pop(&mut self) -> Option<ScheduledEvent<E>>;

    /// Number of live (pending, un-cancelled) entries.
    fn len(&self) -> usize;

    /// `true` when no live entries remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries ever scheduled (also the next id to be assigned).
    fn scheduled_total(&self) -> u64;

    /// Total successful cancellations so far.
    fn cancelled_total(&self) -> u64;

    /// Entries that missed the core's fast path and took a slow-tier
    /// detour (calendar overflow inserts; always 0 for the heap).
    fn bucket_overflows(&self) -> u64 {
        0
    }
}

/// Which [`QueueCore`] implementation an [`EventQueue`] runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QueueCoreKind {
    /// The indexed binary heap ([`HeapCore`]): `O(log n)` everywhere,
    /// the safe default.
    #[default]
    Heap,
    /// The hierarchical calendar queue ([`CalendarCore`]): amortized
    /// `O(1)` push/pop for densely clustered event times.
    Calendar,
}

impl QueueCoreKind {
    /// Short stable name (`"heap"` / `"calendar"`), for reports and
    /// CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            QueueCoreKind::Heap => "heap",
            QueueCoreKind::Calendar => "calendar",
        }
    }

    /// Both cores, in a stable order — for sweeps that compare them.
    pub fn all() -> [QueueCoreKind; 2] {
        [QueueCoreKind::Heap, QueueCoreKind::Calendar]
    }
}

impl std::str::FromStr for QueueCoreKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "heap" => Ok(QueueCoreKind::Heap),
            "calendar" => Ok(QueueCoreKind::Calendar),
            other => Err(format!("unknown queue core `{other}` (heap|calendar)")),
        }
    }
}

impl std::fmt::Display for QueueCoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One queue entry, shared by both cores: the full `(time, class,
/// id)` ordering key and the caller's payload, compared by key only.
/// Every tier of both cores holds these directly, so an entry's
/// payload is dropped exactly when the entry pops or its tombstone is
/// reaped.
struct Entry<E> {
    time: Time,
    class: u8,
    id: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (Time, u8, u64) {
        (self.time, self.class, self.id)
    }

    fn into_event(self) -> ScheduledEvent<E> {
        ScheduledEvent {
            time: self.time,
            id: EventId(self.id),
            payload: self.payload,
        }
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    // Reversed (`BinaryHeap` is a max-heap) over the key.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

/// Shared id allocation and tombstone bookkeeping for both cores.
///
/// `pending` and `tombstones` are membership-checked only — never
/// iterated — so a hash set cannot leak nondeterminism into pop order.
struct Tombstones {
    pending: HashSet<u64>,
    tombstones: HashSet<u64>,
    next_id: u64,
    cancellations: u64,
}

impl Tombstones {
    fn new() -> Self {
        Self {
            pending: HashSet::new(),
            tombstones: HashSet::new(),
            next_id: 0,
            cancellations: 0,
        }
    }

    fn alloc(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.insert(id);
        id
    }

    /// Registers an externally allocated id as pending (the
    /// [`QueueCore::push_at`] path). Keeps `next_id` ahead of every
    /// registered id so `scheduled_total` stays monotone even when
    /// internal allocation and external ids are mixed.
    fn register(&mut self, id: u64) {
        debug_assert!(!self.pending.contains(&id), "id {id} already pending");
        debug_assert!(!self.tombstones.contains(&id), "id {id} already dead");
        self.pending.insert(id);
        self.next_id = self.next_id.max(id + 1);
    }

    fn cancel(&mut self, id: u64) -> bool {
        if self.pending.remove(&id) {
            self.tombstones.insert(id);
            self.cancellations += 1;
            true
        } else {
            false
        }
    }

    /// `true` when `id` is tombstoned; the tombstone is reclaimed.
    fn reap(&mut self, id: u64) -> bool {
        self.tombstones.remove(&id)
    }
}

/// The indexed-binary-heap [`QueueCore`]: `O(log n)` push and pop,
/// tombstoned cancellation. See the [module docs](self).
pub struct HeapCore<E> {
    heap: BinaryHeap<Entry<E>>,
    ts: Tombstones,
}

impl<E> Default for HeapCore<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapCore<E> {
    /// An empty heap core.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            ts: Tombstones::new(),
        }
    }

    /// Drops cancelled entries sitting at the top of the heap,
    /// reclaiming their tombstones.
    fn purge_cancelled_head(&mut self) {
        while let Some(top) = self.heap.peek() {
            if !self.ts.reap(top.id) {
                break;
            }
            self.heap.pop();
        }
    }
}

impl<E> QueueCore<E> for HeapCore<E> {
    fn push(&mut self, time: Time, class: u8, payload: E) -> EventId {
        let id = EventId(self.ts.alloc());
        self.heap.push(Entry {
            time,
            class,
            id: id.0,
            payload,
        });
        id
    }

    fn push_at(&mut self, time: Time, class: u8, id: EventId, payload: E) {
        self.ts.register(id.0);
        self.heap.push(Entry {
            time,
            class,
            id: id.0,
            payload,
        });
    }

    fn peek_key(&mut self) -> Option<(Time, u8, u64)> {
        self.purge_cancelled_head();
        self.heap.peek().map(Entry::key)
    }

    fn cancel(&mut self, id: EventId) -> bool {
        self.ts.cancel(id.0)
    }

    fn peek_time(&mut self) -> Option<Time> {
        self.purge_cancelled_head();
        self.heap.peek().map(|e| e.time)
    }

    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.purge_cancelled_head();
        let entry = self.heap.pop()?;
        self.ts.pending.remove(&entry.id);
        Some(entry.into_event())
    }

    fn len(&self) -> usize {
        self.ts.pending.len()
    }

    fn scheduled_total(&self) -> u64 {
        self.ts.next_id
    }

    fn cancelled_total(&self) -> u64 {
        self.ts.cancellations
    }
}

/// Initial ring size of the calendar core (buckets = ticks of
/// lookahead). Doubles lazily under overflow pressure.
const CALENDAR_INITIAL_BUCKETS: usize = 64;
/// Ring growth stops here; beyond it the overflow tier absorbs the
/// (necessarily sparse) far future at `O(log n)`.
const CALENDAR_MAX_BUCKETS: usize = 1 << 16;

/// The hierarchical-calendar [`QueueCore`]: a near-future ring of
/// one-tick buckets, an ordered far-future overflow tier, and a sorted
/// "current day" staging vector drained from the back.
///
/// * **push** — `O(1)` into the ring when the entry lands within the
///   ring's lookahead window (the common case: the engine schedules at
///   most `F_ack` ticks ahead); `O(log n)` into the overflow
///   [`BTreeMap`] otherwise (counted by
///   [`bucket_overflows`](QueueCore::bucket_overflows)).
/// * **pop** — `O(1)` from the staging vector; advancing to the next
///   non-empty tick sorts that tick's bucket once (`O(k log k)` for
///   `k` entries sharing the tick — the per-entry amortized cost
///   mirrors the heap's, without the cross-tick comparisons).
/// * **lazy resize** — when the overflow tier outgrows the ring, the
///   ring doubles (rebuilt in one deterministic pass) so subsequent
///   pushes at that horizon take the fast path.
///
/// Ordering, cancellation, and liveness behave bit-identically to
/// [`HeapCore`]; the property suite enforces it. Every tier holds the
/// same plain entries as the heap (the overflow map keys them by their
/// ordering key).
pub struct CalendarCore<E> {
    /// Number of ring buckets (always a power of two).
    nbuckets: usize,
    /// The day (tick) whose entries are staged in `current`; every
    /// earlier day has fully drained.
    cur_day: u64,
    /// Entries of days `<= cur_day`, sorted descending by key so pops
    /// take from the back.
    current: Vec<Entry<E>>,
    /// Ring buckets for days `cur_day + 1 ..= cur_day + nbuckets`
    /// (day `d` lives at `d % nbuckets`), unsorted until staged.
    buckets: Vec<Vec<Entry<E>>>,
    /// Total entries (live or tombstoned) in the ring.
    in_wheel: usize,
    /// Far-future tier: days beyond the ring, in key order.
    overflow: BTreeMap<(Time, u8, u64), E>,
    overflows: u64,
    ts: Tombstones,
}

impl<E> Default for CalendarCore<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarCore<E> {
    /// An empty calendar core.
    pub fn new() -> Self {
        Self {
            nbuckets: CALENDAR_INITIAL_BUCKETS,
            cur_day: 0,
            current: Vec::new(),
            buckets: (0..CALENDAR_INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            in_wheel: 0,
            overflow: BTreeMap::new(),
            overflows: 0,
            ts: Tombstones::new(),
        }
    }

    fn day_of(time: Time) -> u64 {
        time.ticks()
    }

    /// Binary-inserts into `current` (kept sorted descending by key).
    fn insert_current(&mut self, entry: Entry<E>) {
        let key = entry.key();
        let pos = self.current.partition_point(|e| e.key() > key);
        self.current.insert(pos, entry);
    }

    /// Makes the back of `current` the earliest live entry, staging
    /// ring buckets and migrating the overflow tier as needed. After
    /// this, `current` is empty only if the whole queue is empty.
    fn settle(&mut self) {
        loop {
            while let Some(e) = self.current.last() {
                if !self.ts.reap(e.id) {
                    return;
                }
                self.current.pop();
            }
            // The next day is the earlier of the ring's nearest
            // non-empty bucket and the overflow tier's first key —
            // overflow entries may have drifted *inside* the ring
            // window as the cursor advanced, so the tier must be
            // consulted even while the ring is non-empty.
            let ring_day = (self.in_wheel > 0).then(|| {
                (1..=self.nbuckets as u64)
                    .map(|step| self.cur_day + step)
                    .find(|&day| !self.buckets[(day % self.nbuckets as u64) as usize].is_empty())
                    .expect("in_wheel entries live within the ring window")
            });
            let overflow_day = self.overflow.keys().next().map(|&(t, ..)| Self::day_of(t));
            self.cur_day = match (ring_day, overflow_day) {
                (Some(r), Some(o)) => r.min(o),
                (Some(r), None) => r,
                (None, Some(o)) => o,
                (None, None) => return,
            };
            let mut staged = if ring_day == Some(self.cur_day) {
                let idx = (self.cur_day % self.nbuckets as u64) as usize;
                let staged = std::mem::take(&mut self.buckets[idx]);
                self.in_wheel -= staged.len();
                staged
            } else {
                Vec::new()
            };
            // Pull every overflow entry now inside the window back in:
            // today's into the staging vector, later days into the
            // ring, so they take the fast path from here on.
            let horizon = self.cur_day + self.nbuckets as u64;
            while let Some(e) = self.pop_overflow_until(horizon) {
                let day = Self::day_of(e.time);
                if day <= self.cur_day {
                    staged.push(e);
                } else {
                    self.buckets[(day % self.nbuckets as u64) as usize].push(e);
                    self.in_wheel += 1;
                }
            }
            staged.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            self.current = staged;
            // Loop to purge tombstones off the freshly staged day.
        }
    }

    /// Lazy resize: double the ring while the overflow tier outgrows
    /// it, rebuilding ring + reachable overflow in one pass.
    fn maybe_grow(&mut self) {
        if self.overflow.len() <= self.nbuckets || self.nbuckets >= CALENDAR_MAX_BUCKETS {
            return;
        }
        while self.overflow.len() > self.nbuckets && self.nbuckets < CALENDAR_MAX_BUCKETS {
            self.nbuckets *= 2;
        }
        let old: Vec<Entry<E>> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        self.buckets = (0..self.nbuckets).map(|_| Vec::new()).collect();
        self.in_wheel = 0;
        let horizon = self.cur_day + self.nbuckets as u64;
        for e in old {
            // Every old ring entry is within the (larger) new window.
            self.buckets[(Self::day_of(e.time) % self.nbuckets as u64) as usize].push(e);
            self.in_wheel += 1;
        }
        while let Some(e) = self.pop_overflow_until(horizon) {
            self.buckets[(Self::day_of(e.time) % self.nbuckets as u64) as usize].push(e);
            self.in_wheel += 1;
        }
    }

    /// Removes the overflow tier's first entry if its day is at most
    /// `horizon`.
    fn pop_overflow_until(&mut self, horizon: u64) -> Option<Entry<E>> {
        let first = self.overflow.first_entry()?;
        if Self::day_of(first.key().0) > horizon {
            return None;
        }
        let ((time, class, id), payload) = first.remove_entry();
        Some(Entry {
            time,
            class,
            id,
            payload,
        })
    }
}

impl<E> CalendarCore<E> {
    /// Places an entry into the right tier (staged day, ring bucket,
    /// or overflow) — the shared body of `push` and `push_at`.
    fn place(&mut self, entry: Entry<E>) {
        let day = Self::day_of(entry.time);
        if day <= self.cur_day {
            // The entry's day has already been staged (or lies in the
            // past); it must pop before anything still in the ring.
            self.insert_current(entry);
        } else if day <= self.cur_day + self.nbuckets as u64 {
            self.buckets[(day % self.nbuckets as u64) as usize].push(entry);
            self.in_wheel += 1;
        } else {
            self.overflow.insert(entry.key(), entry.payload);
            self.overflows += 1;
            self.maybe_grow();
        }
    }
}

impl<E> QueueCore<E> for CalendarCore<E> {
    fn push(&mut self, time: Time, class: u8, payload: E) -> EventId {
        let id = EventId(self.ts.alloc());
        self.place(Entry {
            time,
            class,
            id: id.0,
            payload,
        });
        id
    }

    fn push_at(&mut self, time: Time, class: u8, id: EventId, payload: E) {
        self.ts.register(id.0);
        self.place(Entry {
            time,
            class,
            id: id.0,
            payload,
        });
    }

    fn peek_key(&mut self) -> Option<(Time, u8, u64)> {
        self.settle();
        self.current.last().map(Entry::key)
    }

    fn cancel(&mut self, id: EventId) -> bool {
        self.ts.cancel(id.0)
    }

    fn peek_time(&mut self) -> Option<Time> {
        self.settle();
        self.current.last().map(|e| e.time)
    }

    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.settle();
        let entry = self.current.pop()?;
        self.ts.pending.remove(&entry.id);
        Some(entry.into_event())
    }

    fn len(&self) -> usize {
        self.ts.pending.len()
    }

    fn scheduled_total(&self) -> u64 {
        self.ts.next_id
    }

    fn cancelled_total(&self) -> u64 {
        self.ts.cancellations
    }

    fn bucket_overflows(&self) -> u64 {
        self.overflows
    }
}

/// A deterministic, cancellable discrete-event priority queue over a
/// selectable [`QueueCore`].
///
/// See the [module docs](self) for the contract. `E` is the event
/// payload type. Construction defaults to the [`HeapCore`]; pass a
/// [`QueueCoreKind`] to [`EventQueue::with_core`] to select the
/// calendar core. Dispatch is a static `match`, not a vtable.
pub enum EventQueue<E> {
    /// Backed by the indexed binary heap.
    Heap(HeapCore<E>),
    /// Backed by the hierarchical calendar queue.
    Calendar(CalendarCore<E>),
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! on_core {
    ($self:ident, $core:ident => $body:expr) => {
        match $self {
            EventQueue::Heap($core) => $body,
            EventQueue::Calendar($core) => $body,
        }
    };
}

impl<E> EventQueue<E> {
    /// An empty queue on the default heap core.
    pub fn new() -> Self {
        EventQueue::Heap(HeapCore::new())
    }

    /// An empty queue on the selected core.
    pub fn with_core(kind: QueueCoreKind) -> Self {
        match kind {
            QueueCoreKind::Heap => EventQueue::Heap(HeapCore::new()),
            QueueCoreKind::Calendar => EventQueue::Calendar(CalendarCore::new()),
        }
    }

    /// Which core this queue runs on.
    pub fn kind(&self) -> QueueCoreKind {
        match self {
            EventQueue::Heap(_) => QueueCoreKind::Heap,
            EventQueue::Calendar(_) => QueueCoreKind::Calendar,
        }
    }

    /// Schedules `payload` at `time` in priority band `class` (lower
    /// classes pop first at equal times). Returns the entry's id.
    pub fn push(&mut self, time: Time, class: u8, payload: E) -> EventId {
        on_core!(self, core => core.push(time, class, payload))
    }

    /// Schedules `payload` under a caller-allocated id; see
    /// [`QueueCore::push_at`].
    pub fn push_at(&mut self, time: Time, class: u8, id: EventId, payload: E) {
        on_core!(self, core => core.push_at(time, class, id, payload))
    }

    /// The `(time, class, id)` key of the earliest live entry; see
    /// [`QueueCore::peek_key`].
    pub fn peek_key(&mut self) -> Option<(Time, u8, u64)> {
        on_core!(self, core => core.peek_key())
    }

    /// Cancels the entry with the given id, if it is still pending.
    /// See [`QueueCore::cancel`].
    pub fn cancel(&mut self, id: EventId) -> bool {
        on_core!(self, core => core.cancel(id))
    }

    /// The due time of the earliest live entry.
    pub fn peek_time(&mut self) -> Option<Time> {
        on_core!(self, core => core.peek_time())
    }

    /// Pops the earliest live entry.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        on_core!(self, core => core.pop())
    }

    /// Number of live (pending, un-cancelled) entries.
    pub fn len(&self) -> usize {
        on_core!(self, core => core.len())
    }

    /// `true` when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries ever scheduled (also the next id to be assigned).
    pub fn scheduled_total(&self) -> u64 {
        on_core!(self, core => core.scheduled_total())
    }

    /// Total successful cancellations so far.
    pub fn cancelled_total(&self) -> u64 {
        on_core!(self, core => core.cancelled_total())
    }

    /// Slow-tier (overflow) inserts so far; 0 on the heap core.
    pub fn bucket_overflows(&self) -> u64 {
        on_core!(self, core => core.bucket_overflows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both_cores() -> Vec<EventQueue<&'static str>> {
        vec![
            EventQueue::with_core(QueueCoreKind::Heap),
            EventQueue::with_core(QueueCoreKind::Calendar),
        ]
    }

    #[test]
    fn pops_by_time_then_class_then_insertion() {
        for mut q in both_cores() {
            q.push(Time(2), 2, "t2-ack");
            q.push(Time(2), 1, "t2-recv-a");
            q.push(Time(1), 2, "t1-ack");
            q.push(Time(2), 1, "t2-recv-b");
            q.push(Time(2), 0, "t2-crash");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
            assert_eq!(
                order,
                vec!["t1-ack", "t2-crash", "t2-recv-a", "t2-recv-b", "t2-ack"],
                "{} core",
                q.kind()
            );
        }
    }

    #[test]
    fn cancelled_entries_never_pop_and_len_tracks_live() {
        for kind in QueueCoreKind::all() {
            let mut q = EventQueue::with_core(kind);
            let a = q.push(Time(1), 0, 'a');
            let b = q.push(Time(2), 0, 'b');
            let c = q.push(Time(3), 0, 'c');
            assert_eq!(q.len(), 3);
            assert!(q.cancel(b));
            assert_eq!(q.len(), 2);
            assert_eq!(q.cancelled_total(), 1);
            assert_eq!(q.pop().unwrap().payload, 'a');
            assert_eq!(q.peek_time(), Some(Time(3)));
            assert_eq!(q.pop().unwrap().payload, 'c');
            assert!(q.is_empty());
            // Already-fired and already-cancelled ids are safe no-ops.
            assert!(!q.cancel(a));
            assert!(!q.cancel(b));
            assert!(!q.cancel(c));
            assert_eq!(q.cancelled_total(), 1);
        }
    }

    #[test]
    fn cancel_head_purges_lazily() {
        for kind in QueueCoreKind::all() {
            let mut q = EventQueue::with_core(kind);
            let a = q.push(Time(1), 0, 1u32);
            q.push(Time(5), 0, 2u32);
            assert!(q.cancel(a));
            // peek_time must skip the dead head.
            assert_eq!(q.peek_time(), Some(Time(5)));
            assert_eq!(q.pop().unwrap().payload, 2);
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn empty_queue_behaves() {
        for kind in QueueCoreKind::all() {
            let mut q: EventQueue<u8> = EventQueue::with_core(kind);
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
            assert!(q.pop().is_none());
            assert_eq!(q.scheduled_total(), 0);
        }
    }

    #[test]
    fn calendar_handles_far_future_and_grows_lazily() {
        let mut q: EventQueue<u64> = EventQueue::with_core(QueueCoreKind::Calendar);
        // Far beyond the initial 64-tick window: overflow tier.
        for i in 0..4u64 {
            q.push(Time(1_000_000 + i), 0, i);
        }
        assert!(q.bucket_overflows() >= 4);
        q.push(Time(1), 0, 99);
        assert_eq!(q.pop().unwrap().payload, 99);
        // The jump across the empty ring lands on the overflow entries
        // in key order.
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(rest, vec![0, 1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_growth_keeps_order_under_overflow_pressure() {
        let mut q: EventQueue<u64> = EventQueue::with_core(QueueCoreKind::Calendar);
        // More far-future entries than ring buckets forces a resize.
        let times: Vec<u64> = (0..200u64).map(|i| 500 + 37 * (i % 40) + i).collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time(t), (i % 3) as u8, i as u64);
        }
        let mut expected: Vec<(u64, u8, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, (i % 3) as u8, i as u64))
            .collect();
        expected.sort_unstable();
        let popped: Vec<(u64, u8, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.ticks(), (e.payload % 3) as u8, e.payload))
            .collect();
        assert_eq!(popped.len(), expected.len());
        for (p, x) in popped.iter().zip(&expected) {
            assert_eq!((p.0, p.2), (x.0, x.2));
        }
    }

    /// `push_at` entries interleave with `push`-allocated ones purely
    /// by `(time, class, id)`, regardless of insertion order — the
    /// property the sharded engine's direct cross-shard pushes and
    /// staging flushes rely on.
    #[test]
    fn push_at_orders_by_id_independent_of_insertion_order() {
        for kind in QueueCoreKind::all() {
            let mut q: EventQueue<u64> = EventQueue::with_core(kind);
            // Insert out of id order, including a far-future entry.
            q.push_at(Time(5), 1, EventId(3), 30);
            q.push_at(Time(5), 1, EventId(1), 10);
            q.push_at(Time(1_000_000), 0, EventId(4), 40);
            q.push_at(Time(5), 0, EventId(2), 20);
            q.push_at(Time(5), 1, EventId(0), 0);
            assert_eq!(q.peek_key(), Some((Time(5), 0, 2)), "{kind}");
            let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
            assert_eq!(order, vec![20, 0, 10, 30, 40], "{kind} core");
            // The external ids count toward scheduling/liveness totals.
            assert_eq!(q.scheduled_total(), 5, "{kind}");
            assert!(q.is_empty());
        }
    }

    /// Cancellation and liveness accounting treat `push_at` ids like
    /// internally allocated ones.
    #[test]
    fn push_at_entries_cancel_like_any_other() {
        for kind in QueueCoreKind::all() {
            let mut q: EventQueue<u8> = EventQueue::with_core(kind);
            q.push_at(Time(1), 0, EventId(0), 1);
            q.push_at(Time(2), 0, EventId(1), 2);
            assert_eq!(q.len(), 2);
            assert!(q.cancel(EventId(0)));
            assert!(!q.cancel(EventId(0)));
            assert_eq!(q.len(), 1);
            assert_eq!(q.peek_time(), Some(Time(2)), "{kind}");
            assert_eq!(q.pop().unwrap().payload, 2);
            assert!(q.pop().is_none());
            assert_eq!(q.cancelled_total(), 1);
        }
    }

    #[test]
    fn queue_core_kind_parses_and_names() {
        assert_eq!("heap".parse::<QueueCoreKind>(), Ok(QueueCoreKind::Heap));
        assert_eq!(
            "calendar".parse::<QueueCoreKind>(),
            Ok(QueueCoreKind::Calendar)
        );
        assert!("fifo".parse::<QueueCoreKind>().is_err());
        assert_eq!(QueueCoreKind::Calendar.name(), "calendar");
        assert_eq!(QueueCoreKind::Heap.to_string(), "heap");
    }

    /// Selecting a core by name (the `--queue` flag) is exact: the
    /// default is the heap, and a typo is an error rather than a silent
    /// fall back to it.
    #[test]
    fn env_selection_rejects_typos_instead_of_falling_back() {
        assert_eq!(QueueCoreKind::default(), QueueCoreKind::Heap);
        assert_eq!(
            "calendar".parse::<QueueCoreKind>(),
            Ok(QueueCoreKind::Calendar)
        );
        // A typo must surface, not silently void calendar coverage.
        assert!("Calendar".parse::<QueueCoreKind>().is_err());
        assert!("calender".parse::<QueueCoreKind>().is_err());
    }
}
