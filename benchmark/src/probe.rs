//! Instrumentation that lives entirely on the benchmark's side of the
//! engine's public API: wrappers implementing the public `Process` and
//! `Scheduler` traits with sampled timers, a span recorder, and a
//! counting global allocator. The engine is never modified; a traced
//! run differs from an untraced one only in that these wrappers sit
//! between the engine and the real process/scheduler.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use amacl_model::prelude::*;

use crate::stats::{ratio, scale_sampled};

/// One call in this many is timed with an `Instant` pair.
pub const SAMPLE_EVERY: u64 = 8;

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

/// Forwards to the system allocator; while [`CountingAlloc::enable`]d
/// it also counts allocations and bytes. Off (one relaxed load per
/// allocation) for end-to-end runs.
pub struct CountingAlloc;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    /// Turns counting on or off.
    pub fn enable(on: bool) {
        COUNTING.store(on, Ordering::Relaxed);
    }

    /// `(allocations, bytes)` counted so far.
    pub fn snapshot() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            ALLOC_BYTES.load(Ordering::Relaxed),
        )
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: arguments are the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

// ---------------------------------------------------------------------
// Sampled call timer
// ---------------------------------------------------------------------

/// Calls counted exactly, durations sampled one call in
/// [`SAMPLE_EVERY`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallTimer {
    /// Calls seen.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Nanoseconds summed over the timed calls (timer cost included).
    pub sampled_ns: u64,
}

impl CallTimer {
    /// Counts a call; returns a start instant when this call is one of
    /// the sampled ones. `phase` staggers which calls are sampled so
    /// that 512 processes do not all time their first call.
    #[inline]
    fn start(&mut self, phase: u64) -> Option<Instant> {
        let sample = self.calls.wrapping_add(phase).is_multiple_of(SAMPLE_EVERY);
        self.calls += 1;
        sample.then(Instant::now)
    }

    #[inline]
    fn stop(&mut self, started: Option<Instant>) {
        if let Some(t) = started {
            self.sampled += 1;
            self.sampled_ns += t.elapsed().as_nanos() as u64;
        }
    }

    /// Folds another timer into this one.
    pub fn add(&mut self, other: &CallTimer) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }

    /// Estimated total nanoseconds over all calls.
    pub fn total_ns(&self, timer_cost_ns: f64) -> f64 {
        scale_sampled(self.sampled_ns, self.sampled, self.calls, timer_cost_ns)
    }

    /// Estimated nanoseconds per call.
    pub fn ns_per_call(&self, timer_cost_ns: f64) -> f64 {
        ratio(self.total_ns(timer_cost_ns), self.calls as f64)
    }
}

/// Mean cost in nanoseconds of one `Instant::now()` / `elapsed()` pair
/// around nothing, measured on this host; subtracted from every
/// sampled duration.
pub fn timer_cost_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let outer = Instant::now();
    let mut sink = 0u64;
    for _ in 0..PAIRS {
        let t = Instant::now();
        sink = sink.wrapping_add(std::hint::black_box(t).elapsed().as_nanos() as u64);
    }
    std::hint::black_box(sink);
    // Two clock reads per pair; a measured interval sees about one of
    // them (the tail of the first read plus the head of the second).
    outer.elapsed().as_nanos() as f64 / f64::from(PAIRS) / 2.0
}

// ---------------------------------------------------------------------
// Process wrapper
// ---------------------------------------------------------------------

/// The three handler timers of one process (or a sum over processes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcTimers {
    /// `Process::on_start`.
    pub on_start: CallTimer,
    /// `Process::on_receive`.
    pub on_receive: CallTimer,
    /// `Process::on_ack`.
    pub on_ack: CallTimer,
}

impl ProcTimers {
    /// Folds another set into this one.
    pub fn add(&mut self, other: &ProcTimers) {
        self.on_start.add(&other.on_start);
        self.on_receive.add(&other.on_receive);
        self.on_ack.add(&other.on_ack);
    }

    /// Estimated nanoseconds spent inside all three handlers.
    pub fn total_ns(&self, timer_cost_ns: f64) -> f64 {
        self.on_start.total_ns(timer_cost_ns)
            + self.on_receive.total_ns(timer_cost_ns)
            + self.on_ack.total_ns(timer_cost_ns)
    }
}

/// What the campaign code needs from a node program, wrapped or not:
/// the program itself and whatever handler timings were taken.
pub trait Probed: Process {
    /// The node program under the wrapper (itself when unwrapped).
    type Raw: Process<Msg = Self::Msg>;
    /// The node program.
    fn raw(&self) -> &Self::Raw;
    /// The node program, mutably (open-loop request injection).
    fn raw_mut(&mut self) -> &mut Self::Raw;
    /// Handler timings and the most recently sampled received message;
    /// empty for an unwrapped program.
    fn probe(&self) -> (ProcTimers, Option<Self::Msg>);
}

/// Implements [`Probed`] for an unwrapped node program.
macro_rules! probed_raw {
    ($($t:ty),+) => {$(
        impl Probed for $t {
            type Raw = Self;
            fn raw(&self) -> &Self { self }
            fn raw_mut(&mut self) -> &mut Self { self }
            fn probe(&self) -> (ProcTimers, Option<Self::Msg>) {
                (ProcTimers::default(), None)
            }
        }
    )+};
}
probed_raw!(
    amacl_core::two_phase::TwoPhase,
    amacl_core::wpaxos::WpaxosNode,
    amacl_checker::workload::OpenLoopNode
);

/// A node program with sampled timers around its three handlers. The
/// timers are per process, so worker threads of the sharded engine
/// never share one.
pub struct Timed<P: Process> {
    inner: P,
    phase: u64,
    timers: ProcTimers,
    sample_msg: Option<P::Msg>,
}

impl<P: Process> Timed<P> {
    /// Wraps `inner`; `slot` staggers the sampling phase.
    pub fn new(inner: P, slot: Slot) -> Self {
        Self {
            inner,
            phase: slot.index() as u64,
            timers: ProcTimers::default(),
            sample_msg: None,
        }
    }
}

impl<P: Process> Process for Timed<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let t = self.timers.on_start.start(self.phase);
        self.inner.on_start(ctx);
        self.timers.on_start.stop(t);
    }

    fn on_receive(&mut self, msg: P::Msg, ctx: &mut Context<'_, P::Msg>) {
        let t = self.timers.on_receive.start(self.phase);
        if t.is_some() {
            // Kept for the arena replay, which needs a message of the
            // workload's real type and size.
            self.sample_msg = Some(msg.clone());
        }
        self.inner.on_receive(msg, ctx);
        self.timers.on_receive.stop(t);
    }

    fn on_ack(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let t = self.timers.on_ack.start(self.phase);
        self.inner.on_ack(ctx);
        self.timers.on_ack.stop(t);
    }
}

impl<P: Process> Probed for Timed<P> {
    type Raw = P;
    fn raw(&self) -> &P {
        &self.inner
    }
    fn raw_mut(&mut self) -> &mut P {
        &mut self.inner
    }
    fn probe(&self) -> (ProcTimers, Option<P::Msg>) {
        (self.timers, self.sample_msg.clone())
    }
}

// ---------------------------------------------------------------------
// Scheduler wrapper
// ---------------------------------------------------------------------

/// Shared read-out of a [`TimedSched`]: the engine owns the scheduler
/// once built, so the counters live behind an `Arc`. `Relaxed`
/// everywhere: plain statistics, written only by the thread that runs
/// `Scheduler::plan` (the coordinator, in every engine mode).
#[derive(Debug, Default)]
pub struct SchedStats {
    calls: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
    neighbors: AtomicU64,
}

impl SchedStats {
    /// The plan timer.
    pub fn timer(&self) -> CallTimer {
        CallTimer {
            calls: self.calls.load(Ordering::Relaxed),
            sampled: self.sampled.load(Ordering::Relaxed),
            sampled_ns: self.sampled_ns.load(Ordering::Relaxed),
        }
    }

    /// Neighbours summed over all plans (÷ calls = mean fan-out).
    pub fn neighbors(&self) -> u64 {
        self.neighbors.load(Ordering::Relaxed)
    }
}

/// A scheduler with a sampled timer around `plan`.
pub struct TimedSched<S> {
    inner: S,
    stats: Arc<SchedStats>,
}

impl<S: Scheduler> TimedSched<S> {
    /// Wraps `inner`, accumulating into `stats`.
    pub fn new(inner: S, stats: Arc<SchedStats>) -> Self {
        Self { inner, stats }
    }
}

impl<S: Scheduler> Scheduler for TimedSched<S> {
    fn f_ack(&self) -> u64 {
        self.inner.f_ack()
    }

    fn min_delay(&self) -> u64 {
        self.inner.min_delay()
    }

    fn plan(&mut self, now: Time, sender: Slot, neighbors: &[Slot]) -> BroadcastPlan {
        let calls = self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats
            .neighbors
            .fetch_add(neighbors.len() as u64, Ordering::Relaxed);
        if calls.is_multiple_of(SAMPLE_EVERY) {
            let t = Instant::now();
            let plan = self.inner.plan(now, sender, neighbors);
            let ns = t.elapsed().as_nanos() as u64;
            self.stats.sampled.fetch_add(1, Ordering::Relaxed);
            self.stats.sampled_ns.fetch_add(ns, Ordering::Relaxed);
            plan
        } else {
            self.inner.plan(now, sender, neighbors)
        }
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// Per-request spans (`engine.run_until`, `engine.inject`) are stored
/// for this many occurrences each; the rest only count towards the
/// per-name totals, so an open-loop campaign of a million requests
/// does not write a gigabyte of JSON.
const LEAF_SPAN_CAP: u64 = 20_000;

/// One recorded interval at a layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Boundary name (`topo.build`, `engine.run`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Which pass of the campaign (the shared identifier).
    pub run: u32,
}

/// An open span; close it with [`Spans::end`].
#[derive(Clone, Copy, Debug)]
pub struct OpenSpan {
    name: &'static str,
    start: Instant,
    parent: Option<usize>,
    run: u32,
}

/// In-memory span recorder; written out once, at exit.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    /// `(name, calls, total ns)`, including spans over the leaf cap.
    totals: Vec<(&'static str, u64, u64)>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            totals: Vec::new(),
        }
    }

    /// Opens a span that may have children: reserves its index now so
    /// children can name it as parent.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, run: u32) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`Spans::begin`]; returns its length
    /// in seconds.
    pub fn finish(&mut self, id: usize) -> f64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.end_ns = now;
        let (name, ns) = (span.name, now - span.start_ns);
        self.bump(name, ns);
        ns as f64 / 1e9
    }

    /// Opens a high-frequency childless span (stored only below
    /// [`LEAF_SPAN_CAP`], always counted).
    #[inline]
    pub fn leaf(&self, name: &'static str, parent: Option<usize>, run: u32) -> OpenSpan {
        OpenSpan {
            name,
            start: Instant::now(),
            parent,
            run,
        }
    }

    /// Closes a span opened with [`Spans::leaf`].
    #[inline]
    pub fn end(&mut self, open: OpenSpan) {
        let end = Instant::now();
        let ns = end.duration_since(open.start).as_nanos() as u64;
        let seen = self.bump(open.name, ns);
        if seen <= LEAF_SPAN_CAP {
            let start_ns = open.start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name: open.name,
                start_ns,
                end_ns: start_ns + ns,
                parent: open.parent,
                run: open.run,
            });
        }
    }

    /// Adds one occurrence to `name`'s totals; returns its call count.
    fn bump(&mut self, name: &'static str, ns: u64) -> u64 {
        match self.totals.iter_mut().find(|t| t.0 == name) {
            Some(t) => {
                t.1 += 1;
                t.2 += ns;
                t.1
            }
            None => {
                self.totals.push((name, 1, ns));
                1
            }
        }
    }

    /// `(calls, total seconds)` recorded under `name`.
    pub fn total(&self, name: &str) -> (u64, f64) {
        self.totals
            .iter()
            .find(|t| t.0 == name)
            .map_or((0, 0.0), |t| (t.1, t.2 as f64 / 1e9))
    }

    /// Every stored span, in start order of the parents.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans counted but not stored (over the leaf cap).
    pub fn dropped(&self) -> u64 {
        let counted: u64 = self.totals.iter().map(|t| t.1).sum();
        counted - self.spans.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_timer_samples_one_in_eight_with_phase() {
        let mut t = CallTimer::default();
        let mut sampled_at = Vec::new();
        for i in 0..32 {
            let s = t.start(3);
            if s.is_some() {
                sampled_at.push(i);
            }
            t.stop(s);
        }
        assert_eq!(t.calls, 32);
        assert_eq!(t.sampled, 4);
        assert_eq!(sampled_at, vec![5, 13, 21, 29]);
    }

    #[test]
    fn spans_link_parents() {
        let mut s = Spans::new();
        let pass = s.begin("pass", None, 0);
        let run = s.begin("engine.run", Some(pass), 0);
        let leaf = s.leaf("engine.inject", Some(run), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.end(leaf);
        s.finish(run);
        s.finish(pass);
        let spans = s.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(run));
        assert_eq!(spans[1].parent, Some(pass));
        assert!(spans[2].start_ns >= spans[1].start_ns && spans[2].end_ns <= spans[1].end_ns);
        assert_eq!(s.total("engine.inject").0, 1);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn leaf_spans_over_the_cap_are_counted_not_stored() {
        let mut s = Spans::new();
        for _ in 0..LEAF_SPAN_CAP + 10 {
            let l = s.leaf("engine.run_until", None, 0);
            s.end(l);
        }
        assert_eq!(s.spans().len() as u64, LEAF_SPAN_CAP);
        assert_eq!(s.total("engine.run_until").0, LEAF_SPAN_CAP + 10);
        assert_eq!(s.dropped(), 10);
    }
}
