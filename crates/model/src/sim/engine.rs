//! The discrete-event execution engine: a sharded driver over the
//! cancellable [`EventQueue`] cores and the shared [`BcastLedger`]
//! delivery/ack/crash bookkeeping.
//!
//! The engine's job is reduced to wiring: it asks the [`Scheduler`]
//! for a delivery plan per broadcast, schedules the resulting
//! receive/ack events on the queue,
//! and lets the ledger answer the semantic questions (is this node
//! crashed, does a planned mid-broadcast crash interrupt this
//! broadcast).
//!
//! # Delivery runs
//!
//! The abstract MAC layer allows each node one outstanding broadcast,
//! delivered to every neighbor within `F_ack` and then acked. The
//! engine therefore does not queue deliveries one by one: a
//! broadcast's deliveries into one shard form a **run**, sorted by
//! `(time, id)`, and the queue holds only the run's head — keyed by
//! its next delivery — beside the acks and crash timers. Popping a
//! head yields that delivery and re-pushes the run under its next
//! entry, so the queue holds at most one head per broadcast and shard
//! plus one ack per node instead of one entry per delivery. Every
//! delivery still gets its own event id, allocated in neighbor order
//! before the ack's, so the global `(time, class, id)` pop order is
//! exactly what one queue entry per delivery would give.
//!
//! When a sender crashes, its in-flight broadcast's
//! remaining events are *cancelled* (an O(1) tombstone on the ack and
//! on each run head) rather than popped-and-skipped, which keeps the
//! hot loop free of per-event liveness checks;
//! [`Metrics::queue_cancellations`] still counts every voided
//! delivery.
//!
//! # Sharded execution
//!
//! The process set can be partitioned across `S` shards
//! ([`SimBuilder::shards`]): each shard owns a
//! `ShardCell` — its own [`EventQueue`], payload arena, and the
//! shard's slice of every slot-indexed hot table — and processes the
//! events targeting its slots, while a **conservative time-window
//! coordinator** ([`Sim::run`] → the windowed loop) advances all
//! shards through `lookahead`-sized windows derived from the
//! scheduler's minimum delay bound ([`Scheduler::min_delay`]). Every
//! event has one home: the commit that schedules it pushes it straight
//! into the queue of the shard that will run it, and the lookahead
//! keeps a push into another shard beyond the open window. Within a
//! window the coordinator drains shard heads in global
//! `(time, class, seq)` order, so the execution — trace, decisions,
//! semantic counters — is **byte-identical** to the serial engine at
//! every shard count. The full protocol and its
//! cancellation-across-shards semantics are documented in
//! [`super::shard`].
//!
//! Every event, at every shard and thread count, runs through **one
//! step and one commit**. The step (`ShardCell::step`) is shard-local:
//! it takes the delivery off its run or retires the ack, runs the
//! process callback with the one [`Context`], checks the message-id
//! budget, and returns a small step record. The commit
//! (`Exec::commit`) is global and ordered: the Deliver/Ack trace
//! record, the undecided count, the broadcast (counters, broadcast id,
//! scheduling, admission crash), the Decide record, and a
//! mid-broadcast crash the delivery completes. Serial (`S = 1`) drains
//! one unbounded window through the same inline loop the coordinator
//! uses for its windows, with no routing and no shard accounting.
//!
//! # Persistent pool and parallel stepping
//!
//! With [`SimBuilder::threads`] above 1, windows
//! are *executed* in parallel by a **persistent worker pool**: one
//! worker per shard group, spawned **once per `run`/`run_until` call**
//! (thread spawns are O(1) in the window count, surfaced as
//! [`Metrics::worker_spawns`]), paced by one reusable barrier. Each
//! `ShardCell` sits behind a mutex; a worker locks
//! exactly its own cells during a window's two phases, and the
//! coordinator locks all of them between windows — the lock is never
//! contended, it only *transfers* ownership at the barriers. Within a
//! window each worker flushes its shard's staging (the pushes the
//! previous window's commit deferred), drains its queue up to the
//! window end, and runs its events — process callbacks included —
//! against its cells. A worker never writes another shard's cell:
//! every cross-shard effect (a run, its payload clone, its head) is
//! made by the single-threaded commit, in the destination cell.
//!
//! A pool-executed window is three barrier rounds — descriptor
//! published, gate statistics complete, phases done
//! ([`Metrics::superstep_count`] counts such windows,
//! [`Metrics::worker_wakeups`] the worker passes through them) — and
//! between windows the workers sleep in the first round's
//! `Barrier::wait` while the coordinator plans. An **adaptive serial
//! gate** steps windows whose predecessor drained fewer than
//! `SERIAL_WINDOW_MIN_EVENTS` events inline on the coordinator without
//! releasing that barrier at all
//! ([`Metrics::serial_window_shortcuts`]) — tiny windows dominate at
//! small `n`, and a merged drain is cheaper than a barrier round. The
//! gate is pure wake-policy: the window sequence and every
//! deterministic counter are unchanged.
//!
//! Byte-identity with the serial engine follows from the step/commit
//! split. Workers run the step and keep the records the commit has
//! work for — a step that broadcast or decided, and every step when
//! tracing; after the window's last barrier, the coordinator commits
//! those records in global `(time, class, seq)` order, allocating
//! broadcast/event ids and consuming engine RNG exactly as the inline
//! loop would have. A window only runs in parallel when a commit gate
//! proves no step inside it can stop the run or mutate cross-shard
//! state (no crash events, no armed mid-broadcast crash machinery, no
//! horizon or event-limit crossing, at least one undecided node
//! untouched); otherwise the drained events are pushed back — ids
//! intact, every run the drain advanced rewound to its first drained
//! delivery — and the window falls back to the merged single-threaded
//! drain.
//!
//! Hot-path state is laid out densely: in-flight broadcasts live in a
//! per-slot table and runs in a per-shard slab whose records keep
//! their entry buffers across broadcasts (no hash maps anywhere in
//! the loop), and payloads live
//! in per-shard generation-indexed arenas ([`super::arena`]) that
//! runs reference by word-sized handle, one reference per pending
//! delivery. The arena's refcounting
//! makes copies minimal and observable ([`Metrics::payload_clones`] /
//! [`Metrics::payload_moves`]): the final consumer of a payload moves
//! it out, earlier shared consumers clone, and deliveries to crashed
//! receivers never touch it. A cross-shard run holds **one**
//! clone of the payload in its destination shard's arena, made at
//! schedule time and shared by refcount among the run's deliveries,
//! so a worker never reads another shard's in-flight entries. The queue
//! core itself is selectable per [`SimBuilder::queue_core`]; see
//! [`super::queue`] for the two implementations.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::ids::{NodeId, Slot};
use crate::mac::{Admission, BcastLedger};
use crate::msg::Payload;
use crate::proc::{Context, Decision, Process, Value};
use crate::topo::unreliable::UnreliableOverlay;
use crate::topo::Topology;

use super::arena::{PayloadArena, PayloadHandle};
use super::config::EngineConfig;
use super::crash::{CrashPlan, CrashSpec};
use super::event::{BcastId, EventClass, EventKind};
use super::queue::{EventId, EventQueue, QueueCoreKind};
use super::sched::random::RandomScheduler;
use super::sched::Scheduler;
use super::shard::ShardMap;
use super::time::Time;
use super::trace::{Metrics, Trace, TraceEvent};

/// Why an execution stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// Every non-crashed node has decided.
    AllDecided,
    /// No events remain (the algorithm went quiescent without all
    /// nodes deciding).
    Quiescent,
    /// The virtual-time horizon was reached.
    MaxTime,
    /// The event-count safety limit was reached.
    EventLimit,
}

/// Summary of a completed [`Sim::run`].
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Why the run stopped.
    pub outcome: RunOutcome,
    /// Virtual time when it stopped.
    pub end_time: Time,
    /// Per-slot decisions (`None` for undecided or crashed-undecided).
    pub decisions: Vec<Option<Decision>>,
    /// Aggregate counters.
    pub metrics: Metrics,
}

impl RunReport {
    /// `true` when the run ended with every non-crashed node decided.
    pub fn all_decided(&self) -> bool {
        self.outcome == RunOutcome::AllDecided
    }

    /// The distinct decided values, sorted.
    pub fn decided_values(&self) -> Vec<Value> {
        let mut vals: Vec<Value> = self.decisions.iter().flatten().map(|d| d.value).collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }

    /// The common decided value, if all deciders agree and at least one
    /// node decided.
    pub fn agreement_value(&self) -> Option<Value> {
        match self.decided_values().as_slice() {
            [v] => Some(*v),
            _ => None,
        }
    }

    /// Latest decision time among deciders.
    pub fn max_decision_time(&self) -> Option<Time> {
        self.decisions.iter().flatten().map(|d| d.time).max()
    }

    /// Earliest decision time among deciders.
    pub fn min_decision_time(&self) -> Option<Time> {
        self.decisions.iter().flatten().map(|d| d.time).min()
    }
}

/// Builder for a [`Sim`].
pub struct SimBuilder<P: Process> {
    topo: Topology,
    procs: Vec<P>,
    ids: Vec<NodeId>,
    scheduler: Box<dyn Scheduler>,
    cfg: EngineConfig,
    max_time: Time,
    max_events: u64,
    stop_when_all_decided: bool,
    message_id_budget: Option<usize>,
    trace_enabled: bool,
    unreliable: Option<(UnreliableOverlay, f64)>,
    pool_workers: Option<usize>,
}

impl<P: Process> SimBuilder<P> {
    /// Starts a builder, constructing one process per topology slot via
    /// `init`.
    ///
    /// Defaults: ids equal to slot indices, a seeded
    /// [`RandomScheduler`] with `F_ack = 8`, a large time horizon,
    /// stop-on-all-decided, no id-budget enforcement, tracing off, and
    /// [`EngineConfig::default`] — seed 0, no crashes, heap queue core,
    /// serial, single-threaded.
    pub fn new(topo: Topology, mut init: impl FnMut(Slot) -> P) -> Self {
        let n = topo.len();
        let procs: Vec<P> = (0..n).map(|i| init(Slot(i))).collect();
        let ids: Vec<NodeId> = (0..n).map(|i| NodeId(i as u64)).collect();
        Self {
            topo,
            procs,
            ids,
            scheduler: Box::new(RandomScheduler::new(8, 0)),
            cfg: EngineConfig::default(),
            max_time: Time(10_000_000),
            max_events: 200_000_000,
            stop_when_all_decided: true,
            message_id_budget: None,
            trace_enabled: false,
            unreliable: None,
            pool_workers: None,
        }
    }

    /// Replaces the whole engine configuration — seed, queue core,
    /// shards, threads, and crash plan — in one call.
    /// The individual fluent setters ([`seed`](Self::seed),
    /// [`queue_core`](Self::queue_core), [`shards`](Self::shards),
    /// [`threads`](Self::threads),
    /// [`crashes`](Self::crashes)) are thin delegates onto the same
    /// stored [`EngineConfig`], so the two styles compose: later calls
    /// win knob by knob.
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the message scheduler (the model's adversary).
    pub fn scheduler(mut self, s: impl Scheduler + 'static) -> Self {
        self.scheduler = Box::new(s);
        self
    }

    /// Selects the event-queue core (heap or calendar). The two cores
    /// are observably identical — same traces, same reports — so this
    /// is purely a performance knob; see [`QueueCoreKind`].
    pub fn queue_core(mut self, kind: QueueCoreKind) -> Self {
        self.cfg = self.cfg.queue_core(kind);
        self
    }

    /// Partitions the execution across `shards` worker shards driven
    /// by the conservative time-window coordinator (clamped to the
    /// node count; see [`super::shard`] for the protocol). Sharding is
    /// observably identity-preserving — traces and reports are
    /// byte-identical at every shard count — so, like the queue core,
    /// this is purely an execution-architecture knob.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg = self.cfg.shards(shards);
        self
    }

    /// Runs the sharded coordinator's windows with up to `threads`
    /// worker threads — one worker per shard, so the effective
    /// parallelism is `min(threads, shards)`. `threads == 1` (the
    /// default) keeps the
    /// merged single-threaded window drain; with one shard the knob
    /// has no effect. Like sharding itself, threading is observably
    /// identity-preserving: traces and reports stay byte-identical to
    /// the serial engine at every `(shards, threads)` combination.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg = self.cfg.threads(threads);
        self
    }

    /// Test hook: forces the persistent pool to spawn exactly `n`
    /// workers (clamped to the shard count), bypassing the
    /// `available_parallelism` cap. Lets pool-protocol tests exercise
    /// real worker threads on single-core machines.
    #[doc(hidden)]
    pub fn debug_force_pool_workers(mut self, n: usize) -> Self {
        self.pool_workers = Some(n);
        self
    }

    /// Assigns custom unique node ids (length must equal `n`).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or duplicate ids.
    pub fn ids(mut self, ids: Vec<NodeId>) -> Self {
        assert_eq!(ids.len(), self.topo.len(), "one id per slot");
        let mut sorted: Vec<_> = ids.iter().map(|i| i.raw()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "ids must be unique");
        self.ids = ids;
        self
    }

    /// Schedules crash failures.
    pub fn crashes(mut self, plan: CrashPlan) -> Self {
        self.cfg = self.cfg.crash_plan(plan);
        self
    }

    /// Sets the virtual-time horizon.
    pub fn max_time(mut self, t: Time) -> Self {
        self.max_time = t;
        self
    }

    /// Sets the event-count safety limit.
    pub fn max_events(mut self, n: u64) -> Self {
        self.max_events = n;
        self
    }

    /// Whether [`Sim::run`] stops as soon as all non-crashed nodes have
    /// decided (default `true`).
    pub fn stop_when_all_decided(mut self, stop: bool) -> Self {
        self.stop_when_all_decided = stop;
        self
    }

    /// Enforces the model's `O(1)`-ids-per-message restriction: any
    /// broadcast whose [`Payload::id_count`] exceeds `budget` panics.
    pub fn message_id_budget(mut self, budget: usize) -> Self {
        self.message_id_budget = Some(budget);
        self
    }

    /// Enables event tracing.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace_enabled = enabled;
        self
    }

    /// Seeds per-node randomness and unreliable-overlay sampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg = self.cfg.seed(seed);
        self
    }

    /// Adds an unreliable-link overlay: each broadcast is additionally
    /// delivered over each overlay edge with probability `p`, at an
    /// arbitrary time within the `F_ack` window, without the ack ever
    /// waiting for it (the dual-graph model variant).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn unreliable(mut self, overlay: UnreliableOverlay, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.unreliable = Some((overlay, p));
        self
    }

    /// Builds the simulator (processes have not started yet; the first
    /// call to [`Sim::run`] or [`Sim::run_until`] starts them).
    ///
    /// # Panics
    ///
    /// Panics when more than one shard is requested and the scheduler
    /// declares zero lookahead ([`Scheduler::min_delay`] returning 0):
    /// a conservative sharded engine cannot advance on zero lookahead
    /// — rejecting the configuration up front beats deadlocking in the
    /// window loop.
    pub fn build(self) -> Sim<P> {
        let n = self.topo.len();
        let shard_map = ShardMap::new(n, self.cfg.shards.get());
        let nshards = shard_map.shards();
        // The conservative window length. An unreliable overlay
        // schedules extra deliveries as little as one tick out,
        // regardless of what the scheduler promises, so it clamps the
        // lookahead to the model floor.
        let lookahead = if self.unreliable.is_some() {
            self.scheduler.min_delay().min(1)
        } else {
            self.scheduler.min_delay()
        };
        if nshards > 1 {
            assert!(
                lookahead >= 1,
                "scheduler declares zero lookahead (min_delay() == 0): the conservative \
                 sharded engine cannot advance a time window on it; run with shards(1) \
                 or fix the scheduler's min_delay()"
            );
        }
        let mut ledger = BcastLedger::new(n);
        let mut queues: Vec<EventQueue<EventKind>> = (0..nshards)
            .map(|_| EventQueue::with_core(self.cfg.queue_core))
            .collect();
        let mut next_event_id = 0u64;
        let mut undecided = n;
        for spec in self.cfg.crash_plan.specs() {
            match *spec {
                CrashSpec::AtTime { slot, time } => {
                    if time == Time::ZERO {
                        ledger.mark_crashed(slot.0);
                        undecided -= 1;
                    } else {
                        // Ids come from the engine-global counter in
                        // spec order, exactly matching the serial
                        // single-queue push order.
                        let id = EventId(next_event_id);
                        next_event_id += 1;
                        queues[shard_map.shard_of(slot.0)].push_at(
                            time,
                            EventClass::Crash as u8,
                            id,
                            EventKind::Crash { node: slot },
                        );
                    }
                }
                CrashSpec::MidBroadcast {
                    slot,
                    nth_broadcast,
                    delivered,
                } => {
                    ledger.arm_watch(slot.0, nth_broadcast, delivered);
                }
            }
        }
        let seed = self.cfg.seed;
        let mut rngs = (0..n).map(|i| {
            SmallRng::seed_from_u64(
                seed ^ (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(1),
            )
        });
        let mut procs = self.procs.into_iter();
        let mut queues = queues.drain(..);
        let cells: Vec<ShardCell<P>> = (0..nshards)
            .map(|shard| {
                let r = shard_map.slots_of(shard);
                let len = r.end - r.start;
                ShardCell {
                    base: r.start,
                    queue: queues.next().expect("one queue per shard"),
                    runs: Runs::new(n),
                    arena: PayloadArena::new(),
                    pending: Vec::new(),
                    crashed: (r.start..r.end).map(|i| ledger.is_crashed(i)).collect(),
                    procs: procs.by_ref().take(len).collect(),
                    decisions: vec![None; len],
                    ts_seqs: vec![0; len],
                    rngs: rngs.by_ref().take(len).collect(),
                    outstanding: vec![None; len],
                    inflight: vec![None; len],
                    scratch: ShardScratch::default(),
                    out: ShardCounters::default(),
                }
            })
            .collect();
        let mut metrics = Metrics::new(n);
        metrics.per_shard_events = vec![0; nshards];
        Sim {
            sh: Shared {
                topo: self.topo,
                ids: self.ids,
                shard_map,
                lookahead,
                threads: self.cfg.threads.get(),
                pool_workers: self.pool_workers,
                max_time: self.max_time,
                max_events: self.max_events,
                message_id_budget: self.message_id_budget,
            },
            core: Core {
                scheduler: self.scheduler,
                next_event_id,
                uncounted_cancels: 0,
                ledger,
                now: Time::ZERO,
                started: false,
                bcast_seq: 0,
                neighbor_scratch: Vec::new(),
                delivery_scratch: Vec::new(),
                defer_local_pushes: false,
                engine_rng: SmallRng::seed_from_u64(seed.wrapping_add(0xA5A5_5A5A)),
                undecided,
                stop_when_all_decided: self.stop_when_all_decided,
                trace: Trace::new(self.trace_enabled),
                metrics,
                unreliable: self.unreliable,
            },
            cells,
        }
    }
}

/// A node's outstanding broadcast, as its own shard sees it: the
/// arena handle of the payload (holding the ack's reference plus one
/// per own-shard delivery) and the ack's event id. Lives from the
/// broadcast until its ack fires or a crash voids it, so the crash
/// path finds both in O(1). Deliveries never touch it: each carries
/// its payload handle in its [`Run`].
#[derive(Clone, Copy)]
struct InFlight {
    payload: PayloadHandle,
    ack: EventId,
}

/// One delivery of a [`Run`]: when it is due, the event id it was
/// allocated (its place in the global `(time, class, id)` order), and
/// its receiver.
#[derive(Clone, Copy)]
struct RunEntry {
    time: Time,
    id: u64,
    to: u32,
    unreliable: bool,
}

impl RunEntry {
    /// The queue key this delivery pops under.
    fn key(&self) -> (Time, u8, u64) {
        (self.time, EventClass::Receive as u8, self.id)
    }
}

/// One broadcast's deliveries into one shard, sorted by `(time, id)`
/// — their global pop order. The event queue holds only the run's
/// *head*, an [`EventKind::Receive`] for entry `cursor` keyed by that
/// entry; popping it takes the delivery and re-pushes the run under
/// its next entry. A crash voids the run by cancelling that one head.
struct Run {
    from: Slot,
    bcast: BcastId,
    /// This shard's handle on the payload: one arena reference per
    /// pending entry (on the sender's own shard, the handle is shared
    /// with the [`InFlight`] and the ack's reference).
    payload: PayloadHandle,
    /// Entries before `cursor` have been taken off the run; the head
    /// stands for entry `cursor`.
    cursor: usize,
    entries: Vec<RunEntry>,
}

/// `Runs::by_sender` value for "no live run".
const NO_RUN: u32 = u32::MAX;

/// One shard's delivery runs: a slab of [`Run`] records recycled
/// through a free list (a freed record keeps its entry buffer, so
/// steady-state broadcasting allocates nothing), plus each sender's
/// newest run here — how a crash finds the runs it voids.
struct Runs {
    slab: Vec<Run>,
    free: Vec<u32>,
    /// Per global sender slot: its newest live run on this shard, or
    /// [`NO_RUN`]. The newest is the only one a crash can void: an
    /// older broadcast's run outlives its ack only with overlay
    /// deliveries, which the ack has already put beyond cancellation.
    by_sender: Vec<u32>,
}

impl Runs {
    fn new(n: usize) -> Self {
        Self {
            slab: Vec::new(),
            free: Vec::new(),
            by_sender: vec![NO_RUN; n],
        }
    }

    /// Stores a run of `entries` (already sorted) and returns its
    /// index.
    fn open(
        &mut self,
        from: Slot,
        bcast: BcastId,
        payload: PayloadHandle,
        entries: &[(u32, RunEntry)],
    ) -> u32 {
        let entries = entries.iter().map(|&(_, e)| e);
        let idx = match self.free.pop() {
            Some(idx) => {
                let run = &mut self.slab[idx as usize];
                run.from = from;
                run.bcast = bcast;
                run.payload = payload;
                run.cursor = 0;
                run.entries.clear();
                run.entries.extend(entries);
                idx
            }
            None => {
                self.slab.push(Run {
                    from,
                    bcast,
                    payload,
                    cursor: 0,
                    entries: entries.collect(),
                });
                u32::try_from(self.slab.len() - 1).expect("run slab fits u32")
            }
        };
        self.by_sender[from.0] = idx;
        idx
    }

    /// Takes entry `k` — the head that just popped — off `run` and
    /// returns the run's next head, if it has one.
    fn advance(&mut self, run: u32, k: u32) -> Option<((Time, u8, u64), EventKind)> {
        let r = &mut self.slab[run as usize];
        debug_assert_eq!(r.cursor, k as usize, "run head out of step");
        r.cursor += 1;
        r.entries
            .get(r.cursor)
            .map(|e| (e.key(), EventKind::Receive { run, k: k + 1 }))
    }

    /// Puts entry `k` back at the head of `run` (a refused parallel
    /// window). Returns `true` for the run's earliest drained entry —
    /// the one whose head must be pushed back.
    fn rewind(&mut self, run: u32, k: u32) -> bool {
        let r = &mut self.slab[run as usize];
        let first = r.cursor > k as usize;
        if first {
            r.cursor = k as usize;
        }
        first
    }

    /// The live run of `sender`'s broadcast `bcast` on this shard.
    fn live(&self, sender: Slot, bcast: BcastId) -> Option<u32> {
        let idx = self.by_sender[sender.0];
        (idx != NO_RUN && self.slab[idx as usize].bcast == bcast).then_some(idx)
    }

    fn release(&mut self, run: u32) {
        let from = self.slab[run as usize].from;
        if self.by_sender[from.0] == run {
            self.by_sender[from.0] = NO_RUN;
        }
        self.free.push(run);
    }
}

/// Placeholder the step parks in `outstanding` when a callback
/// broadcasts: it keeps the node reading busy until the ordered commit
/// replaces it with the real, serially allocated [`BcastId`] — at once
/// on the inline path, after the window's last barrier in a pool
/// worker, where later same-window callbacks on the node still read
/// busy.
const DEFERRED_BCAST: BcastId = BcastId(u64::MAX);

/// What ran a [`Step`]'s callback.
#[derive(Clone, Copy)]
enum Cause {
    /// `on_start` or an injected callback: nothing of its own to trace.
    Callback,
    /// A delivery of `from`'s broadcast `bcast`. `lost` when the
    /// receiver crashed after it was scheduled: no callback ran and the
    /// message was never copied.
    Deliver {
        from: Slot,
        bcast: BcastId,
        unreliable: bool,
        lost: bool,
    },
    /// The node's broadcast was acked.
    Ack,
}

/// The shard-local half of one engine step, handed to the ordered
/// commit ([`Exec::commit`]) by value: which callback ran at which node
/// and time, the broadcast it requested (message and id count), and
/// the decision it made. Every trace record of the step is built from
/// it.
struct Step<M> {
    time: Time,
    slot: Slot,
    cause: Cause,
    broadcast: Option<(M, usize)>,
    decision: Option<Decision>,
}

/// Per-shard scratch buffers for parallel windows, reused across
/// windows so steady-state stepping allocates nothing.
struct ShardScratch<M> {
    /// Events drained for the current window, in shard-local key
    /// order, with their full ordering keys (needed both for the
    /// commit merge and to push them back on gate failure). A
    /// delivery is drained as its run head; the run has already been
    /// advanced past it.
    drained: Vec<((Time, u8, u64), EventKind)>,
    /// Heads of runs the drain advanced whose next entry lies beyond
    /// the window: pushed when the window commits, dropped (the runs
    /// rewound instead) when it is refused.
    parked: Vec<((Time, u8, u64), EventKind)>,
    /// Steps the ordered commit has work for, with their ordering
    /// keys (key-sorted by construction).
    records: Vec<((Time, u8, u64), Step<M>)>,
    /// Shard-local dedup flags for the distinct-undecided-targets
    /// gate statistic (indexed by slot − base).
    touched: Vec<bool>,
    /// Which `touched` flags are set (for O(touched) clearing).
    touched_list: Vec<usize>,
}

impl<M> Default for ShardScratch<M> {
    fn default() -> Self {
        Self {
            drained: Vec::new(),
            parked: Vec::new(),
            records: Vec::new(),
            touched: Vec::new(),
            touched_list: Vec::new(),
        }
    }
}

/// Order-independent counters one shard accumulates (sums commute,
/// so no ordering is needed). Every step counts its delivery or ack
/// and its busy discards here, folded into [`Metrics`] whenever the
/// engine yields; the rest is the pool's, folded after each parallel
/// window's last barrier.
#[derive(Default)]
struct ShardCounters {
    deliveries: u64,
    unreliable_deliveries: u64,
    acks: u64,
    busy_discards: u64,
    /// Events a pool worker stepped in the current window.
    events: u64,
    /// Time of the last (= latest) event a pool worker stepped.
    last_time: Option<Time>,
    /// Wall-clock ns a pool worker spent flushing its staging,
    /// draining, and stepping.
    busy_ns: u64,
}

/// Everything one shard owns: its event queue — the one home of every
/// event due at its slots — payload arena, delivery runs, the staging
/// a pool window's commit pushes into, and
/// the shard's slice of every slot-indexed hot table (`slot − base`
/// indexes the vectors). The engine is a `Vec<ShardCell>` plus the
/// global [`Core`]; during a parallel window each cell sits behind a
/// mutex and a worker locks exactly its own cells — the type system
/// and the lock discipline together enforce that a worker cannot
/// reach another shard's state even by bug.
struct ShardCell<P: Process> {
    /// First slot of the shard's contiguous range.
    base: usize,
    queue: EventQueue<EventKind>,
    /// The delivery runs whose receivers live on this shard, one per
    /// broadcast that reaches it. A run carries its own payload
    /// handle into this shard's arena, so a worker never reads
    /// another shard's tables.
    runs: Runs,
    /// This shard's payload arena — its own senders' in-flight
    /// payloads plus one clone per cross-shard run: a broadcast
    /// clones its payload **once per destination shard** (not per
    /// delivery) and the run's entries share it by refcount. All inserts
    /// happen on the single-threaded coordinator paths; a parallel
    /// window's worker only releases references on its own arena.
    arena: PayloadArena<P::Msg>,
    /// Queue pushes for this shard deferred by a parallel window's
    /// ordered commit, with their full keys — run heads and acks from
    /// any sender; absorbed at the next window boundary (worker phase
    /// 1 or the coordinator's pre-merged flush).
    pending: Vec<((Time, u8, u64), EventKind)>,
    /// Engine-owned mirror of the ledger crash flags for this shard's
    /// slots (windows only run in parallel when the flags are frozen,
    /// so workers read the mirror instead of the shared ledger).
    crashed: Vec<bool>,
    procs: Vec<P>,
    decisions: Vec<Option<Decision>>,
    ts_seqs: Vec<u64>,
    rngs: Vec<SmallRng>,
    outstanding: Vec<Option<BcastId>>,
    /// Each local slot's outstanding broadcast until its ack (or the
    /// crash that voids it); no hashing on the hot path.
    inflight: Vec<Option<InFlight>>,
    /// Worker scratch (drained events, parked heads, step records),
    /// reused across parallel windows.
    scratch: ShardScratch<P::Msg>,
    /// Order-independent counters not yet folded into [`Metrics`].
    out: ShardCounters,
}

impl<P: Process> ShardCell<P> {
    /// Phase 1: flush the deferred pushes into the shard queue, drain
    /// everything due in the window, and publish the statistics the
    /// commit gate needs.
    fn phase1(
        &mut self,
        window_end: Time,
        total_drained: &AtomicU64,
        any_crash: &AtomicBool,
        undecided_touched: &AtomicU64,
    ) {
        let t0 = Instant::now();
        self.flush_pending();
        let queue = &mut self.queue;
        while let Some(key) = queue.peek_key() {
            if key.0 > window_end {
                break;
            }
            let ev = queue.pop().expect("peeked");
            if let EventKind::Receive { run, k } = ev.payload {
                // The run's next head joins this drain when it is due
                // inside the window; otherwise it waits for the gate.
                if let Some((next, head)) = self.runs.advance(run, k) {
                    if next.0 <= window_end {
                        queue.push_at(next.0, next.1, EventId(next.2), head);
                    } else {
                        self.scratch.parked.push((next, head));
                    }
                }
            }
            self.scratch.drained.push((key, ev.payload));
        }
        // Gate statistics. Event targets are always shard-local, so
        // the per-shard distinct-undecided-target counts sum to the
        // exact global figure.
        if self.scratch.touched.len() < self.decisions.len() {
            self.scratch.touched.resize(self.decisions.len(), false);
        }
        let mut crash = false;
        let mut fresh = 0u64;
        for (_, ev) in &self.scratch.drained {
            let target = match *ev {
                EventKind::Crash { .. } => {
                    crash = true;
                    continue;
                }
                EventKind::Receive { run, k } => {
                    self.runs.slab[run as usize].entries[k as usize].to as usize
                }
                EventKind::Ack { node, .. } => node.0,
            };
            let li = target - self.base;
            if self.decisions[li].is_none() && !self.crashed[li] && !self.scratch.touched[li] {
                self.scratch.touched[li] = true;
                self.scratch.touched_list.push(li);
                fresh += 1;
            }
        }
        for &li in &self.scratch.touched_list {
            self.scratch.touched[li] = false;
        }
        self.scratch.touched_list.clear();
        if crash {
            any_crash.store(true, Ordering::Relaxed);
        }
        total_drained.fetch_add(self.scratch.drained.len() as u64, Ordering::Relaxed);
        undecided_touched.fetch_add(fresh, Ordering::Relaxed);
        self.out.busy_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Pushes every deferred entry into the shard queue, ids intact.
    fn flush_pending(&mut self) {
        for ((time, class, id), ev) in self.pending.drain(..) {
            self.queue.push_at(time, class, EventId(id), ev);
        }
    }

    /// Phase 2, gate passed: step every drained event in shard-local
    /// key order, keeping the steps the ordered commit has work for:
    /// those that broadcast or decided, and every step when tracing.
    fn phase2_commit(&mut self, sh: &Shared, trace: bool) {
        let t0 = Instant::now();
        for (key, head) in self.scratch.parked.drain(..) {
            self.queue.push_at(key.0, key.1, EventId(key.2), head);
        }
        let mut drained = std::mem::take(&mut self.scratch.drained);
        self.out.events += drained.len() as u64;
        if let Some(&(key, _)) = drained.last() {
            self.out.last_time = Some(key.0);
        }
        for (key, ev) in drained.drain(..) {
            let step = self.step(key.0, ev, sh);
            if trace || step.broadcast.is_some() || step.decision.is_some() {
                self.scratch.records.push((key, step));
            }
        }
        self.scratch.drained = drained;
        self.out.busy_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Phase 2, gate failed: push every drained event back, keys and
    /// ids intact, so the merged fallback replays the window in the
    /// exact serial order. Each advanced run is rewound to its
    /// earliest drained entry and its head pushed back there, so a
    /// crash in the fallback still voids every delivery the window
    /// took off it.
    fn phase2_abort(&mut self) {
        let t0 = Instant::now();
        self.scratch.parked.clear();
        for ((time, class, id), ev) in self.scratch.drained.drain(..) {
            if let EventKind::Receive { run, k } = ev {
                if !self.runs.rewind(run, k) {
                    continue;
                }
            }
            self.queue.push_at(time, class, EventId(id), ev);
        }
        self.out.busy_ns += t0.elapsed().as_nanos() as u64;
    }

    /// The engine step, shard-local half — the one step body every
    /// loop runs. Takes delivery `k` of `run` off the run (the drain
    /// has already advanced the run's head past it) or retires the
    /// ack, runs the callback, and returns the [`Step`] for the
    /// ordered commit. Crash events are the coordinator's
    /// ([`Exec::handle_crash`]) and never reach a step.
    // Forced inline, like `Exec::commit`: left to the cost model, the
    // step and the commit stay out-of-line calls that copy the step
    // record through memory, measured ~5 % slower on a 2-core host
    // for `openloop-clique4`-style runs (small messages, cheap
    // handlers).
    #[inline(always)]
    fn step(&mut self, time: Time, ev: EventKind, sh: &Shared) -> Step<P::Msg> {
        match ev {
            EventKind::Receive { run, k } => {
                let (to, cause, msg) = self.take_delivery(run, k);
                let Some(msg) = msg else {
                    return Step {
                        time,
                        slot: to,
                        cause,
                        broadcast: None,
                        decision: None,
                    };
                };
                if let Cause::Deliver { unreliable, .. } = cause {
                    self.out.deliveries += u64::from(!unreliable);
                    self.out.unreliable_deliveries += u64::from(unreliable);
                }
                self.callback(to, time, cause, sh, |p, ctx| p.on_receive(msg, ctx))
            }
            EventKind::Ack { node, bcast } => {
                self.retire_ack(node, bcast);
                self.out.acks += 1;
                self.callback(node, time, Cause::Ack, sh, |p, ctx| p.on_ack(ctx))
            }
            EventKind::Crash { .. } => unreachable!("crash events are stepped by the coordinator"),
        }
    }

    /// Consumes delivery `k` of `run` (already taken off the run):
    /// releases its payload reference — the message moves out on the
    /// last reference, is cloned otherwise, and is never copied for a
    /// crashed receiver (`None`) — and frees the run after its last
    /// entry. The run carries the payload handle into this shard's
    /// arena, so a step never reads the sender's shard — the parallel
    /// stepper's ownership contract.
    fn take_delivery(&mut self, run: u32, k: u32) -> (Slot, Cause, Option<P::Msg>) {
        let r = &self.runs.slab[run as usize];
        let e = r.entries[k as usize];
        let (from, bcast, h) = (r.from, r.bcast, r.payload);
        let last = k as usize + 1 == r.entries.len();
        let to = Slot(e.to as usize);
        let msg = if self.crashed[to.0 - self.base] {
            self.arena.discard(h);
            None
        } else {
            Some(self.arena.release(h).0)
        };
        if last {
            self.runs.release(run);
        }
        let cause = Cause::Deliver {
            from,
            bcast,
            unreliable: e.unreliable,
            lost: msg.is_none(),
        };
        (to, cause, msg)
    }

    /// Settles `node`'s broadcast `bcast` at its ack: the in-flight
    /// record retires and the ack's payload reference is dropped
    /// (deliveries still pending on an unreliable overlay keep theirs
    /// through their run).
    fn retire_ack(&mut self, node: Slot, bcast: BcastId) {
        let li = node.0 - self.base;
        let f = self.inflight[li].take().expect("acked broadcast in flight");
        self.arena.discard(f.payload);
        // A crashed sender's ack event is cancelled with its
        // broadcast, so this only fires for live nodes.
        debug_assert!(!self.crashed[li], "ack for a crashed node");
        debug_assert_eq!(self.outstanding[li], Some(bcast));
        self.outstanding[li] = None;
    }

    /// Runs one process callback at live node `slot` with the engine's
    /// one [`Context`]. A requested broadcast is checked against the
    /// id budget here — inside the pool worker that ran it — and
    /// [`DEFERRED_BCAST`] is parked for it until the commit.
    fn callback<F>(
        &mut self,
        slot: Slot,
        time: Time,
        cause: Cause,
        sh: &Shared,
        f: F,
    ) -> Step<P::Msg>
    where
        F: FnOnce(&mut P, &mut Context<'_, P::Msg>),
    {
        let li = slot.0 - self.base;
        let had_decision = self.decisions[li].is_some();
        let mut outbox: Option<P::Msg> = None;
        f(
            &mut self.procs[li],
            &mut Context {
                id: sh.ids[slot.0],
                now: time,
                busy: self.outstanding[li].is_some(),
                outbox: &mut outbox,
                decision: &mut self.decisions[li],
                ts_seq: &mut self.ts_seqs[li],
                busy_discards: &mut self.out.busy_discards,
                rng: &mut self.rngs[li],
            },
        );
        let broadcast = outbox.map(|m| {
            let ids = m.id_count();
            if let Some(budget) = sh.message_id_budget {
                assert!(
                    ids <= budget,
                    "message from {} carries {ids} ids, exceeding the O(1) budget of {budget}: {m:?}",
                    sh.ids[slot.0],
                );
            }
            self.outstanding[li] = Some(DEFERRED_BCAST);
            (m, ids)
        });
        Step {
            time,
            slot,
            cause,
            broadcast,
            decision: self.decisions[li].filter(|_| !had_decision),
        }
    }
}

/// Windows whose predecessor drained fewer events than this are
/// stepped inline by the coordinator (the merged drain) without
/// waking the worker pool: tiny windows dominate at small `n`, and a
/// merged drain is cheaper than a barrier round. Pure wake-policy —
/// the merged and parallel paths produce identical executions
/// ([`Metrics::serial_window_shortcuts`] counts the skips).
const SERIAL_WINDOW_MIN_EVENTS: u64 = 128;

/// Pool command read after the first barrier of a round: run a
/// window ([`CMD_WINDOW`]) or exit ([`CMD_SHUTDOWN`]).
const CMD_WINDOW: u8 = 0;
const CMD_SHUTDOWN: u8 = 1;

/// Locks a mutex, absorbing poisoning: a worker that panicked is
/// already being reported through [`PoolCtl::panic`] and the whole
/// run is about to unwind, so the guard's data is never trusted past
/// that — refusing the lock would just turn one panic into a
/// deadlock at the next barrier.
fn plock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Shared coordination state for one `run`/`run_until` call's
/// persistent worker pool.
///
/// Protocol: a window is three rounds of the one reusable barrier —
/// `W0` descriptor published, `W1` gate statistics complete, `W2`
/// phases done. Between windows the workers sleep in `W0`'s
/// `Barrier::wait` (a mutex + condvar) while the coordinator plans,
/// drains inline windows, or commits; it releases them either with a
/// window descriptor or, on every exit path, with [`CMD_SHUTDOWN`]
/// stored before that one barrier. A worker that panics stashes the
/// payload in `panic` and keeps hitting barriers so nobody deadlocks;
/// the coordinator re-raises it after the window.
struct PoolCtl {
    barrier: Barrier,
    cmd: AtomicU8,
    /// The open window's end (ticks), published before the first
    /// barrier.
    window_end: AtomicU64,
    /// Gate inputs published by the coordinator with the descriptor.
    events_before: AtomicU64,
    undecided_before: AtomicU64,
    /// Gate statistics accumulated by workers during phase 1.
    total_drained: AtomicU64,
    undecided_touched: AtomicU64,
    any_crash: AtomicBool,
    /// First panic payload caught worker-side this window.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl PoolCtl {
    /// The commit gate, valid between `W1` and the next descriptor:
    /// every worker and the coordinator evaluate it from the same
    /// complete statistics, so they all take the same branch.
    fn gate_passes(&self, max_events: u64, stop_all: bool) -> bool {
        !self.any_crash.load(Ordering::Relaxed)
            && self.events_before.load(Ordering::Relaxed)
                + self.total_drained.load(Ordering::Relaxed)
                <= max_events
            && (!stop_all
                || self.undecided_touched.load(Ordering::Relaxed)
                    < self.undecided_before.load(Ordering::Relaxed))
    }
}

/// The persistent pool worker: runs barrier-paced windows over its
/// group of shard cells until told to shut down. All atomics use
/// relaxed ordering — the barriers provide every happens-before edge
/// the protocol needs. Panics from shard phases (e.g. the
/// message-id-budget assertion) are caught, stashed in
/// [`PoolCtl::panic`], and re-raised by the coordinator: a worker
/// that unwound past a barrier would deadlock the pool.
fn pool_worker<P: Process>(
    ctl: &PoolCtl,
    cells: &[Mutex<&mut ShardCell<P>>],
    sh: &Shared,
    trace: bool,
    stop_all: bool,
) {
    loop {
        ctl.barrier.wait(); // W0: window descriptor (or shutdown) published
        if ctl.cmd.load(Ordering::Relaxed) == CMD_SHUTDOWN {
            return;
        }
        let window_end = Time(ctl.window_end.load(Ordering::Relaxed));
        let r = catch_unwind(AssertUnwindSafe(|| {
            for cell in cells {
                plock(cell).phase1(
                    window_end,
                    &ctl.total_drained,
                    &ctl.any_crash,
                    &ctl.undecided_touched,
                );
            }
        }));
        if let Err(p) = r {
            plock(&ctl.panic).get_or_insert(p);
        }
        ctl.barrier.wait(); // W1: gate statistics complete
        let commit_ok = ctl.gate_passes(sh.max_events, stop_all);
        let r = catch_unwind(AssertUnwindSafe(|| {
            for cell in cells {
                let mut cell = plock(cell);
                if commit_ok {
                    cell.phase2_commit(sh, trace);
                } else {
                    cell.phase2_abort();
                }
            }
        }));
        if let Err(p) = r {
            plock(&ctl.panic).get_or_insert(p);
        }
        ctl.barrier.wait(); // W2: phases done; coordinator commits
    }
}

/// The engine's execution-wide knobs and lookup tables — everything
/// immutable while a run is in flight, so the coordinator and the
/// pool workers can share it by plain reference.
struct Shared {
    topo: Topology,
    ids: Vec<NodeId>,
    /// Balanced block partition of slots onto shards.
    shard_map: ShardMap,
    /// The scheduler's declared minimum delay — the conservative
    /// window length.
    lookahead: u64,
    /// Worker-thread budget for parallel window stepping; effective
    /// parallelism is `min(threads, shards)`, and 1 keeps the merged
    /// single-threaded drain.
    threads: usize,
    /// Test hook: forced pool size (bypasses the
    /// `available_parallelism` cap).
    pool_workers: Option<usize>,
    max_time: Time,
    max_events: u64,
    message_id_budget: Option<usize>,
}

/// The engine's global mutable state — everything that is *not*
/// owned by a single shard. Only the single-threaded coordinator
/// paths touch it; parallel-window workers see shard cells only.
struct Core {
    scheduler: Box<dyn Scheduler>,
    /// Engine-global event-id allocator: ids double as the
    /// deterministic `(time, class, seq)` tie-break, so they must be
    /// allocated in scheduling order across all shards.
    next_event_id: u64,
    /// Voided deliveries no queue tombstone counted: the entries
    /// behind a cancelled run head. Folded into `queue_cancellations`,
    /// which so counts every voided event, one per delivery plus the
    /// ack.
    uncounted_cancels: u64,
    ledger: BcastLedger,
    now: Time,
    started: bool,
    bcast_seq: u64,
    /// Recycled neighbor-list buffer for `commit_broadcast_events`.
    neighbor_scratch: Vec<Slot>,
    /// Recycled buffer `commit_broadcast_events` sorts one
    /// broadcast's deliveries in, tagged with their destination shard.
    delivery_scratch: Vec<(u32, RunEntry)>,
    /// True only while the ordered commit of a parallel window runs:
    /// routes every push into its destination cell's `pending`
    /// staging instead of its queue.
    defer_local_pushes: bool,
    engine_rng: SmallRng,
    undecided: usize,
    stop_when_all_decided: bool,
    trace: Trace,
    metrics: Metrics,
    unreliable: Option<(UnreliableOverlay, f64)>,
}

/// A running (or runnable) simulation: the immutable `Shared`
/// tables, the global `Core`, and one `ShardCell` per shard. Every
/// event runs through one step — the shard-local `ShardCell::step` —
/// and one ordered commit, `Exec::commit`, at every shard and thread
/// count; a single shard (`cells.len() == 1`) drains one unbounded
/// window, with no routing and no shard accounting.
pub struct Sim<P: Process> {
    sh: Shared,
    core: Core,
    cells: Vec<ShardCell<P>>,
}

/// One borrow of the whole engine: the immutable shared tables, the
/// global core, and `&mut` access to every shard cell. All engine
/// logic lives here; [`Sim`] entry points construct one via
/// [`Sim::exec`], and the pooled coordinator constructs them over
/// lock guards between barrier rounds. The indirection (`&mut [&mut
/// ShardCell]`) is what lets the same methods run over plain cells
/// and over locked ones.
struct Exec<'e, 'c, P: Process> {
    sh: &'e Shared,
    core: &'e mut Core,
    cells: &'e mut [&'c mut ShardCell<P>],
}

impl<P: Process> Sim<P> {
    /// Runs `f` over an [`Exec`] borrowing this simulation whole.
    fn exec<R>(&mut self, f: impl FnOnce(&mut Exec<'_, '_, P>) -> R) -> R {
        let mut refs: Vec<&mut ShardCell<P>> = self.cells.iter_mut().collect();
        f(&mut Exec {
            sh: &self.sh,
            core: &mut self.core,
            cells: &mut refs,
        })
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.sh.topo
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.core.now
    }

    /// The id assigned to `slot`.
    pub fn id_of(&self, slot: Slot) -> NodeId {
        self.sh.ids[slot.0]
    }

    /// Immutable access to a process (for state inspection between
    /// [`Sim::run_until`] calls, e.g. indistinguishability checks).
    pub fn process(&self, slot: Slot) -> &P {
        let cell = &self.cells[self.sh.shard_map.shard_of(slot.0)];
        &cell.procs[slot.0 - cell.base]
    }

    /// Whether `slot` has crashed.
    pub fn is_crashed(&self, slot: Slot) -> bool {
        self.core.ledger.is_crashed(slot.0)
    }

    /// Per-slot decisions so far, gathered across shards in slot
    /// order.
    pub fn decisions(&self) -> Vec<Option<Decision>> {
        self.cells
            .iter()
            .flat_map(|c| c.decisions.iter().copied())
            .collect()
    }

    /// Counters so far.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// The event trace (empty unless enabled at build time).
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    /// Number of shards this simulation runs on (1 = serial).
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of worker threads parallel windows may use — the
    /// configured budget capped at the shard count (1 = merged
    /// single-threaded windows).
    pub fn thread_count(&self) -> usize {
        self.sh.threads.min(self.cells.len())
    }

    /// The conservative window length (the scheduler's declared
    /// minimum delay).
    pub fn lookahead(&self) -> u64 {
        self.sh.lookahead
    }

    /// `true` when every non-crashed node has decided.
    pub fn all_alive_decided(&self) -> bool {
        self.core.undecided == 0
    }

    /// Runs to completion and reports.
    pub fn run(&mut self) -> RunReport {
        let outcome = self.run_inner(None);
        RunReport {
            outcome,
            end_time: self.core.now,
            decisions: self.decisions(),
            metrics: self.core.metrics.clone(),
        }
    }

    /// Processes all events up to and including virtual time `until`,
    /// ignoring the stop-on-all-decided rule (used for lockstep
    /// inspection of executions).
    pub fn run_until(&mut self, until: Time) -> RunOutcome {
        let saved = self.core.stop_when_all_decided;
        self.core.stop_when_all_decided = false;
        let outcome = self.run_inner(Some(until));
        self.core.stop_when_all_decided = saved;
        if self.core.now < until {
            self.core.now = until;
        }
        outcome
    }

    /// Runs one external callback against a live node — the open-loop
    /// injection seam. Call only while the engine is *paused* between
    /// [`Sim::run_until`] calls; the callback runs at the current
    /// virtual time with a full [`Context`] (it may broadcast, decide,
    /// draw randomness), and any broadcast it requests is scheduled
    /// through the normal path — event ids from the engine-global
    /// counter, every event pushed straight into its destination
    /// shard's queue — so a fixed injection schedule stays
    /// byte-identical across queue cores, shard counts, and thread
    /// counts.
    ///
    /// On the first call (or the first `run*` call, whichever comes
    /// first) all processes are started. Injections into crashed nodes
    /// are ignored; returns `false` in that case and `true` when the
    /// callback ran.
    pub fn inject<F>(&mut self, slot: Slot, f: F) -> bool
    where
        F: FnOnce(&mut P, &mut Context<'_, P::Msg>),
    {
        if !self.core.started {
            self.exec(|ex| ex.start_procs());
        }
        if self.core.ledger.is_crashed(slot.0) {
            return false;
        }
        self.exec(|ex| ex.dispatch(slot, f));
        self.fold_counters();
        true
    }

    fn run_inner(&mut self, until: Option<Time>) -> RunOutcome {
        let s = self.cells.len();
        // The pool only pays off with real hardware parallelism:
        // below two available cores every window would serialize on
        // one CPU anyway, so the merged inline loop (identical
        // execution, no barrier or wakeup cost) is strictly better.
        // The test hook bypasses the cap to exercise the pool
        // protocol deterministically on any machine.
        let nworkers = if s > 1 && self.sh.threads > 1 {
            match self.sh.pool_workers {
                Some(k) => k.clamp(1, s),
                None => self
                    .sh
                    .threads
                    .min(s)
                    .min(
                        std::thread::available_parallelism()
                            .map(|n| n.get())
                            .unwrap_or(1),
                    )
                    .max(1),
            }
        } else {
            1
        };
        if !self.core.started {
            self.exec(|ex| ex.start_procs());
        }
        let outcome = if s == 1 {
            self.exec(|ex| {
                ex.drain_window_merged(Time(u64::MAX), until)
                    .unwrap_or_else(|| ex.idle_outcome())
            })
        } else if nworkers > 1 {
            self.run_pooled(until, nworkers)
        } else {
            self.exec(|ex| loop {
                if let Plan::Stop(outcome) = ex.plan_window(until, None) {
                    break outcome;
                }
            })
        };
        self.fold_counters();
        outcome
    }

    /// Folds the counters the shards and their queue cores keep into
    /// the metrics whenever the engine yields, so reports always carry
    /// up-to-date figures. The pushes figure is the engine-global
    /// allocator (every event ever scheduled, on any shard);
    /// cancellations count tombstones on every shard's queue plus the
    /// voided deliveries no tombstone stands for — together one per
    /// voided event, byte-identical at every shard count. The
    /// payload-custody counters are assigned, not accumulated, because
    /// the arenas count cumulatively.
    fn fold_counters(&mut self) {
        let m = &mut self.core.metrics;
        for c in &mut self.cells {
            let out = &mut c.out;
            m.deliveries += std::mem::take(&mut out.deliveries);
            m.unreliable_deliveries += std::mem::take(&mut out.unreliable_deliveries);
            m.acks += std::mem::take(&mut out.acks);
            m.busy_discards += std::mem::take(&mut out.busy_discards);
        }
        m.queue_pushes = self.core.next_event_id;
        m.queue_cancellations = self
            .cells
            .iter()
            .map(|c| c.queue.cancelled_total())
            .sum::<u64>()
            + self.core.uncounted_cancels;
        m.queue_bucket_overflows = self.cells.iter().map(|c| c.queue.bucket_overflows()).sum();
        m.payload_clones = self.cells.iter().map(|c| c.arena.clones()).sum();
        m.payload_moves = self.cells.iter().map(|c| c.arena.moves()).sum();
        m.arena_bytes_peak = self.cells.iter().map(|c| c.arena.bytes_peak()).sum();
    }
}

/// How one pass of the window coordinator resolved: stop the run, a
/// window already drained inline, or (only when a pool runs) a window
/// to hand to the pool.
enum Plan {
    Stop(RunOutcome),
    Continue,
    Parallel {
        window_end: Time,
        events_before: u64,
        undecided_before: u64,
    },
}

impl<P: Process> Sim<P> {
    /// The persistent-pool parallel coordinator (`S > 1`, `nworkers >
    /// 1`).
    ///
    /// Spawns `nworkers` pool workers **once** (ceil-partitioning the
    /// shards into contiguous groups — [`Metrics::worker_spawns`]
    /// counts them) and then drives conservative windows to
    /// completion. Each window either executes in parallel — three
    /// barrier rounds against the pool, then a single-threaded
    /// ordered commit — or drains inline on this thread: eligibility
    /// is the commit-gate precondition (no armed crash machinery,
    /// window inside every horizon), and on top of it the adaptive
    /// serial gate skips the pool for windows following a
    /// sub-[`SERIAL_WINDOW_MIN_EVENTS`] window. Between parallel
    /// windows the workers sleep at the first barrier. Every stop path
    /// — normal outcomes, coordinator panics (e.g. a lookahead
    /// violation caught mid-commit), and re-raised worker panics —
    /// leaves the loop with the workers at that barrier, so one
    /// [`CMD_SHUTDOWN`] round releases them before the scope joins and
    /// the engine never deadlocks.
    fn run_pooled(&mut self, until: Option<Time>, nworkers: usize) -> RunOutcome {
        let s = self.cells.len();
        if self.core.metrics.shard_busy_ns.len() != s {
            self.core.metrics.shard_busy_ns = vec![0; s];
            self.core.metrics.shard_barrier_wait_ns = vec![0; s];
        }
        let chunk = s.div_ceil(nworkers);
        // Ceil-sized chunks can cover the shards in fewer groups than
        // `nworkers` (6 shards on 4 threads is three groups of two);
        // spawn — and count — only the groups that exist.
        let groups = s.div_ceil(chunk);
        self.core.metrics.worker_spawns += groups as u64;
        let stop_all = self.core.stop_when_all_decided;
        let max_events = self.sh.max_events;
        let trace = self.core.trace.is_enabled();
        let sh = &self.sh;
        let core = &mut self.core;
        let locks: Vec<Mutex<&mut ShardCell<P>>> = self.cells.iter_mut().map(Mutex::new).collect();
        let ctl = PoolCtl {
            barrier: Barrier::new(groups + 1),
            cmd: AtomicU8::new(CMD_WINDOW),
            window_end: AtomicU64::new(0),
            events_before: AtomicU64::new(0),
            undecided_before: AtomicU64::new(0),
            total_drained: AtomicU64::new(0),
            undecided_touched: AtomicU64::new(0),
            any_crash: AtomicBool::new(false),
            panic: Mutex::new(None),
        };
        let result = crossbeam::thread::scope(|sc| {
            let ctl = &ctl;
            for lo in (0..s).step_by(chunk) {
                let hi = (lo + chunk).min(s);
                let group = &locks[lo..hi];
                sc.spawn(move |_| pool_worker(ctl, group, sh, trace, stop_all));
            }
            let r = catch_unwind(AssertUnwindSafe(|| {
                // The serial gate keys off the previous window's
                // event count; MAX sends the first window to the
                // pool.
                let mut last_window_events = u64::MAX;
                loop {
                    // Plan under all cell locks; the guards must drop
                    // before any barrier round.
                    let plan = {
                        let mut guards: Vec<MutexGuard<'_, &mut ShardCell<P>>> =
                            locks.iter().map(plock).collect();
                        let mut refs: Vec<&mut ShardCell<P>> =
                            guards.iter_mut().map(|g| &mut ***g).collect();
                        let mut ex = Exec {
                            sh,
                            core,
                            cells: &mut refs,
                        };
                        ex.plan_window(until, Some(&mut last_window_events))
                    };
                    let (window_end, events_before, undecided_before) = match plan {
                        Plan::Stop(outcome) => return outcome,
                        Plan::Continue => continue,
                        Plan::Parallel {
                            window_end,
                            events_before,
                            undecided_before,
                        } => (window_end, events_before, undecided_before),
                    };
                    core.metrics.superstep_count += 1;
                    core.metrics.worker_wakeups += groups as u64;
                    // Publish the descriptor and run the three
                    // barrier rounds.
                    ctl.window_end.store(window_end.ticks(), Ordering::Relaxed);
                    ctl.events_before.store(events_before, Ordering::Relaxed);
                    ctl.undecided_before
                        .store(undecided_before, Ordering::Relaxed);
                    ctl.total_drained.store(0, Ordering::Relaxed);
                    ctl.undecided_touched.store(0, Ordering::Relaxed);
                    ctl.any_crash.store(false, Ordering::Relaxed);
                    let t0 = Instant::now();
                    ctl.barrier.wait(); // W0: descriptor out
                    ctl.barrier.wait(); // W1: gate statistics in
                    ctl.barrier.wait(); // W2: phases done, cells quiescent
                    let elapsed = t0.elapsed().as_nanos() as u64;
                    // Re-lock the cells and absorb the window.
                    if let Some(p) = plock(&ctl.panic).take() {
                        resume_unwind(p);
                    }
                    let committed = ctl.gate_passes(max_events, stop_all);
                    let mut guards: Vec<MutexGuard<'_, &mut ShardCell<P>>> =
                        locks.iter().map(plock).collect();
                    let mut refs: Vec<&mut ShardCell<P>> =
                        guards.iter_mut().map(|g| &mut ***g).collect();
                    let mut ex = Exec {
                        sh,
                        core,
                        cells: &mut refs,
                    };
                    ex.absorb_parallel_window(committed, elapsed);
                    // A refused window: the workers flushed their
                    // staging and pushed the drained events back
                    // (keys and ids intact), so the merged drain — no
                    // re-flush — replays it in the exact serial order.
                    if !committed {
                        if let Some(outcome) = ex.drain_window_merged(window_end, until) {
                            return outcome;
                        }
                    }
                    last_window_events = ex.core.metrics.events - events_before;
                }
            }));
            // Every way out of the loop — normal stop or unwind —
            // leaves the workers at (or on their way to) W0; release
            // them with the shutdown command so the scope's implicit
            // join cannot deadlock.
            ctl.cmd.store(CMD_SHUTDOWN, Ordering::Relaxed);
            ctl.barrier.wait();
            r
        })
        .expect("persistent pool workers");
        match result {
            Ok(outcome) => outcome,
            Err(p) => resume_unwind(p),
        }
    }
}

impl<P: Process> Exec<'_, '_, P> {
    /// Starts every non-crashed process (first `run*` or `inject`
    /// call only).
    fn start_procs(&mut self) {
        self.core.started = true;
        for i in 0..self.sh.topo.len() {
            if !self.core.ledger.is_crashed(i) {
                self.dispatch(Slot(i), |p, ctx| p.on_start(ctx));
            }
        }
    }

    /// Runs one callback outside any event — `on_start` or an
    /// injection — at live node `slot` and the current time, through
    /// the same callback and commit as every step.
    fn dispatch<F>(&mut self, slot: Slot, f: F)
    where
        F: FnOnce(&mut P, &mut Context<'_, P::Msg>),
    {
        let shard = self.sh.shard_map.shard_of(slot.0);
        let step = self.cells[shard].callback(slot, self.core.now, Cause::Callback, self.sh, f);
        self.commit(step);
    }

    /// How a run with nothing left to step ends.
    fn idle_outcome(&self) -> RunOutcome {
        if self.core.undecided == 0 {
            RunOutcome::AllDecided
        } else {
            RunOutcome::Quiescent
        }
    }

    /// One pass of the conservative time-window coordinator (`S > 1`):
    /// decides whether the run stops, drains a window inline, or hands
    /// it to the pool. The window `[W, W + lookahead)` opens at the
    /// earliest pending time over the queues and the staging a pool
    /// window's commit left, computed *before* flushing — the workers
    /// (or the merged drain) flush as their first act, and a staged
    /// entry has the same time either way. The lookahead guarantees
    /// nothing processed inside the window schedules into it, so an
    /// event pushed straight into another shard's queue waits there
    /// for a later window (see [`super::shard`]).
    ///
    /// `serial_gate` is `None` when no pool runs: every window drains
    /// inline. With a pool it carries the adaptive serial gate's
    /// estimate — the previous window's event count — across calls
    /// (updated by inline windows here and by parallel windows in the
    /// caller).
    fn plan_window(&mut self, until: Option<Time>, serial_gate: Option<&mut u64>) -> Plan {
        if self.core.stop_when_all_decided && self.core.undecided == 0 {
            return Plan::Stop(RunOutcome::AllDecided);
        }
        let window_start = match self.min_pending_time() {
            Some(t) if until.is_none_or(|limit| t <= limit) && t <= self.sh.max_time => t,
            pending => {
                let outcome = match pending {
                    Some(_) => RunOutcome::MaxTime,
                    None => self.idle_outcome(),
                };
                // The stop pass flushes too: a later `inject` may
                // crash a node, and a crash needs empty staging.
                self.flush_local_pending();
                return Plan::Stop(outcome);
            }
        };
        let window_end = Time(window_start.ticks().saturating_add(self.sh.lookahead - 1));
        self.core.metrics.shard_window_advances += 1;
        // A window may run in parallel only when (a) no mid-broadcast
        // crash machinery is armed — crash flags frozen,
        // `note_delivery` a no-op — and (b) it cannot cross the time
        // horizon, so no step inside it can be the one that stops the
        // run on time.
        let eligible = serial_gate.is_some()
            && self.core.ledger.parallel_step_safe()
            && window_end <= self.sh.max_time
            && until.is_none_or(|limit| window_end <= limit);
        let last_window_events = serial_gate.as_deref().copied();
        if eligible && last_window_events >= Some(SERIAL_WINDOW_MIN_EVENTS) {
            return Plan::Parallel {
                window_end,
                events_before: self.core.metrics.events,
                undecided_before: self.core.undecided as u64,
            };
        }
        // Eligible but skipped purely as wake-policy: the merged drain
        // below is byte-identical to what the pool would have produced.
        self.core.metrics.serial_window_shortcuts += u64::from(eligible);
        self.flush_local_pending();
        let before = self.core.metrics.events;
        let stop = self.drain_window_merged(window_end, until);
        if let Some(last_window_events) = serial_gate {
            *last_window_events = self.core.metrics.events - before;
        }
        stop.map_or(Plan::Continue, Plan::Stop)
    }

    /// Drains one open window in global `(time, class, seq)` order on
    /// the coordinator thread — the engine's one inline loop: a single
    /// shard drains one unbounded window through it, and the
    /// coordinator every window it does not hand to the pool.
    /// Any staged pushes must already be flushed. A run head yields
    /// its delivery and is re-pushed under the run's next entry before
    /// the step, so the run is back in the queue for anything the
    /// callback does (a crash that voids it included). Returns `Some(outcome)` when the run stops
    /// mid-window, `None` when the window drains.
    fn drain_window_merged(&mut self, window_end: Time, until: Option<Time>) -> Option<RunOutcome> {
        let sharded = self.cells.len() > 1;
        loop {
            if self.core.stop_when_all_decided && self.core.undecided == 0 {
                return Some(RunOutcome::AllDecided);
            }
            let (shard, next_time) = self.min_head_in_window(window_end)?;
            if until.is_some_and(|limit| next_time > limit) || next_time > self.sh.max_time {
                return Some(RunOutcome::MaxTime);
            }
            if self.core.metrics.events >= self.sh.max_events {
                return Some(RunOutcome::EventLimit);
            }
            let cell = &mut *self.cells[shard];
            let ev = cell.queue.pop().expect("peeked");
            self.core.now = ev.time;
            self.core.metrics.events += 1;
            if sharded {
                self.core.metrics.per_shard_events[shard] += 1;
            }
            match ev.payload {
                EventKind::Crash { node } => self.handle_crash(node),
                kind => {
                    if let EventKind::Receive { run, k } = kind {
                        if let Some((key, head)) = cell.runs.advance(run, k) {
                            cell.queue.push_at(key.0, key.1, EventId(key.2), head);
                        }
                    }
                    let step = cell.step(ev.time, kind, self.sh);
                    self.commit(step);
                }
            }
        }
    }

    /// The earliest pending time anywhere — queue heads and staged
    /// pushes: the earliest queue head a flush would leave, without
    /// flushing (the pooled coordinator flushes inside the workers).
    fn min_pending_time(&mut self) -> Option<Time> {
        self.cells
            .iter_mut()
            .flat_map(|c| {
                [
                    c.queue.peek_time(),
                    c.pending.iter().map(|&((t, ..), _)| t).min(),
                ]
            })
            .flatten()
            .min()
    }

    /// Pushes every staged entry into its queue (the merged-path
    /// counterpart of the workers' phase-1 flush).
    fn flush_local_pending(&mut self) {
        for cell in self.cells.iter_mut() {
            cell.flush_pending();
        }
    }

    /// The shard holding the globally smallest `(time, class, seq)`
    /// head due at or before `window_end`, with that head's time.
    fn min_head_in_window(&mut self, window_end: Time) -> Option<(usize, Time)> {
        let mut best: Option<((Time, u8, u64), usize)> = None;
        for (i, c) in self.cells.iter_mut().enumerate() {
            if let Some(key) = c.queue.peek_key() {
                if key.0 <= window_end && best.is_none_or(|(b, _)| key < b) {
                    best = Some((key, i));
                }
            }
        }
        best.map(|((t, ..), i)| (i, t))
    }

    /// Absorbs one pool-executed window after its last barrier:
    /// wall-clock accounting either way, the event counts (zero in a
    /// refused window), and — when the gate committed — the ordered
    /// commit: [`Exec::commit`] once per recorded step, in global key
    /// order (a cursor merge over the per-shard key-sorted lists), so
    /// the trace and the broadcast/event-id/RNG sequences come out
    /// exactly as the inline loop's. Every push it makes is staged in
    /// its destination cell's `pending` for the next window-boundary
    /// flush.
    fn absorb_parallel_window(&mut self, committed: bool, elapsed: u64) {
        let s = self.cells.len();
        let mut end_time: Option<Time> = None;
        let mut recs = Vec::with_capacity(s);
        for shard in 0..s {
            let cell = &mut *self.cells[shard];
            let out = &mut cell.out;
            let m = &mut self.core.metrics;
            m.shard_busy_ns[shard] += out.busy_ns;
            m.shard_barrier_wait_ns[shard] += elapsed.saturating_sub(out.busy_ns);
            m.events += out.events;
            m.per_shard_events[shard] += out.events;
            end_time = end_time.max(out.last_time.take());
            (out.busy_ns, out.events) = (0, 0);
            recs.push(std::mem::take(&mut cell.scratch.records));
        }
        if !committed {
            return;
        }
        self.core.defer_local_pushes = true;
        let mut cursors = vec![0usize; s];
        loop {
            let mut best: Option<((Time, u8, u64), usize)> = None;
            for (shard, rl) in recs.iter().enumerate() {
                if let Some(&(key, _)) = rl.get(cursors[shard]) {
                    if best.is_none_or(|(k, _)| key < k) {
                        best = Some((key, shard));
                    }
                }
            }
            let Some((key, shard)) = best else { break };
            let rec = &mut recs[shard][cursors[shard]].1;
            cursors[shard] += 1;
            let step = Step {
                broadcast: rec.broadcast.take(),
                ..*rec
            };
            self.core.now = key.0;
            self.commit(step);
        }
        self.core.defer_local_pushes = false;
        if let Some(t) = end_time {
            self.core.now = t;
        }
        for (shard, mut r) in recs.into_iter().enumerate() {
            r.clear();
            self.cells[shard].scratch.records = r;
        }
    }
}

impl<P: Process> Exec<'_, '_, P> {
    /// The engine step, global half — the one ordered commit. Applies
    /// `step` in the serial order: its Deliver/Ack record, the
    /// `undecided` count, the broadcast (counters, [`BcastId`],
    /// scheduling, admission crash), the Decide record, then a
    /// mid-broadcast crash the delivery completes. The inline loop
    /// calls it once per event; after a pool window it runs once per
    /// recorded step in global key order.
    #[inline(always)]
    fn commit(&mut self, step: Step<P::Msg>) {
        let Step {
            time,
            slot,
            cause,
            broadcast,
            decision,
        } = step;
        match cause {
            Cause::Deliver {
                from,
                unreliable,
                lost: false,
                ..
            } => self.core.trace.push(TraceEvent::Deliver {
                time,
                from,
                to: slot,
                unreliable,
            }),
            Cause::Ack => self.core.trace.push(TraceEvent::Ack { time, slot }),
            _ => {}
        }
        // Callbacks only run on live nodes, so the decision counts now:
        // the broadcast below may crash this very node (a mid-broadcast
        // crash armed with zero deliveries), and `handle_crash` only
        // subtracts nodes that have *not* decided.
        if decision.is_some() {
            self.core.undecided -= 1;
        }
        if let Some((msg, ids)) = broadcast {
            debug_assert!(
                !self.core.ledger.is_crashed(slot.0),
                "crashed node broadcast"
            );
            let m = &mut self.core.metrics;
            m.broadcasts += 1;
            m.per_slot_broadcasts[slot.0] += 1;
            m.max_message_ids = m.max_message_ids.max(ids);
            m.total_message_ids += ids as u64;
            self.core
                .trace
                .push(TraceEvent::Broadcast { time, slot, ids });
            let bcast = BcastId(self.core.bcast_seq);
            self.core.bcast_seq += 1;
            let cell = &mut *self.cells[self.sh.shard_map.shard_of(slot.0)];
            let parked = cell.outstanding[slot.0 - cell.base].replace(bcast);
            debug_assert_eq!(
                parked,
                Some(DEFERRED_BCAST),
                "broadcast without its placeholder"
            );
            self.commit_broadcast_events(slot, msg, bcast);
        }
        // The trace keeps Broadcast (and any Crash it triggers) ahead
        // of Decide.
        if let Some(d) = decision {
            self.core.trace.push(TraceEvent::Decide {
                time: d.time,
                slot,
                value: d.value,
            });
        }
        // Mid-broadcast crash: the sender dies immediately after this
        // delivery, and the rest of the broadcast never happens. A
        // lost delivery still consumes its slot in the countdown, so
        // the sender's planned crash fires even when watched
        // deliveries target dead receivers — the contract shared with
        // the threaded ether, whose prefix over all neighbors likewise
        // burns slots on dead receivers (see
        // `Admission::PartialThenCrash`).
        if let Cause::Deliver {
            from,
            bcast,
            unreliable: false,
            ..
        } = cause
        {
            if self.core.ledger.note_delivery(bcast.0) {
                self.handle_crash(from);
            }
        }
    }

    /// Allocates the next engine-global event id.
    fn alloc_id(&mut self) -> u64 {
        let id = self.core.next_event_id;
        self.core.next_event_id += 1;
        id
    }

    /// Pushes an event straight onto the queue of `shard`, the shard
    /// that will run it — or, while the ordered commit of a parallel
    /// window runs, stages it in that cell's `pending` for the next
    /// window-boundary flush, keeping queue mutation off the serial
    /// commit path.
    fn push_local(&mut self, shard: usize, time: Time, id: u64, kind: EventKind) {
        let class = kind.class();
        let cell = &mut *self.cells[shard];
        if self.core.defer_local_pushes {
            cell.pending.push(((time, class, id), kind));
        } else {
            cell.queue.push_at(time, class, EventId(id), kind);
        }
    }

    fn handle_crash(&mut self, node: Slot) {
        // Crashes can cancel queued events, but cancellation never
        // searches the staging: the coordinator only defers pushes
        // inside a window the gate proved crash-free, and flushes the
        // staging before any merged fallback runs. So every event a
        // crash voids is in a queue.
        debug_assert!(
            self.cells.iter().all(|c| c.pending.is_empty()),
            "crash processed with deferred local pushes outstanding"
        );
        if !self.core.ledger.mark_crashed(node.0) {
            return;
        }
        let shard = self.sh.shard_map.shard_of(node.0);
        let (was_undecided, outstanding) = {
            let cell = &mut *self.cells[shard];
            let li = node.0 - cell.base;
            // Keep the engine-owned crash mirror in lockstep with the
            // ledger (workers read the mirror during parallel
            // windows).
            cell.crashed[li] = true;
            (cell.decisions[li].is_none(), cell.outstanding[li].take())
        };
        self.core.metrics.crashes += 1;
        self.core.trace.push(TraceEvent::Crash {
            time: self.core.now,
            slot: node,
        });
        if was_undecided {
            self.core.undecided -= 1;
        }
        if let Some(bcast) = outstanding {
            self.cancel_broadcast(node, bcast);
        }
    }

    /// Voids a crashed sender's in-flight broadcast: its ack and, on
    /// every shard, the unfired rest of its run are cancelled — one
    /// queue tombstone each — so they simply never fire. Each voided
    /// delivery still counts as one cancellation.
    ///
    /// # Panics
    ///
    /// Panics if the ack or a live run's head is not in its queue: a
    /// missed cancellation would let a voided event fire.
    fn cancel_broadcast(&mut self, sender: Slot, bcast: BcastId) {
        // The sender's own arena slot — the ack's reference and its
        // own shard's deliveries — dies at once.
        let src = self.sh.shard_map.shard_of(sender.0);
        {
            let cell = &mut *self.cells[src];
            let li = sender.0 - cell.base;
            let f = cell.inflight[li]
                .take()
                .expect("outstanding broadcast in flight");
            cell.arena.discard_all(f.payload);
            assert!(
                cell.queue.cancel(f.ack),
                "pending ack missing from its sender's queue"
            );
        }
        for shard in 0..self.cells.len() {
            let cell = &mut *self.cells[shard];
            let Some(run) = cell.runs.live(sender, bcast) else {
                continue;
            };
            let r = &cell.runs.slab[run as usize];
            let head = EventId(r.entries[r.cursor].id);
            let voided = (r.entries.len() - r.cursor) as u64;
            assert!(cell.queue.cancel(head), "run head missing from its queue");
            self.core.uncounted_cancels += voided - 1;
            if shard != src {
                // A cross-shard run owns its shard's payload clone.
                cell.arena.discard_all(r.payload);
            }
            cell.runs.release(run);
        }
    }

    /// Plans and schedules one accepted broadcast's deliveries and
    /// ack. The deliveries into each shard form one [`Run`], sorted
    /// by `(time, id)`, with a single queue entry — its head, pushed
    /// straight into that shard's queue — so the queues hold at most
    /// one run head per broadcast and shard plus the acks. Payload
    /// custody follows the shard-ownership split: the sender's arena
    /// slot refcounts its own shard's deliveries and the ack, and each
    /// other shard a run crosses into gets **one** payload clone in
    /// its own arena, shared by refcount among the run's entries.
    fn commit_broadcast_events(&mut self, slot: Slot, msg: P::Msg, bcast: BcastId) {
        // Reuse the scratch neighbor buffer (the scheduler borrows it
        // while `self` stays mutable for the queue pushes below).
        let now = self.core.now;
        let mut neighbors = std::mem::take(&mut self.core.neighbor_scratch);
        neighbors.clear();
        neighbors.extend_from_slice(self.sh.topo.neighbors(slot));
        let plan = self.core.scheduler.plan(now, slot, &neighbors);
        if let Err(e) = plan.validate(neighbors.len(), self.core.scheduler.f_ack()) {
            panic!("scheduler produced an invalid plan for {slot}: {e}");
        }
        if self.cells.len() > 1 {
            // The conservative windows are only sound if every plan
            // honors the declared lookahead; a scheduler that
            // undercuts its own min_delay() would let an event sneak
            // into an already-open window.
            let floor = plan
                .receive_delays
                .iter()
                .copied()
                .chain([plan.ack_delay])
                .min()
                .unwrap_or(plan.ack_delay);
            assert!(
                floor >= self.sh.lookahead,
                "scheduler violated its declared lookahead for {slot}: plans a delay of \
                 {floor} ticks but min_delay() promised >= {}",
                self.sh.lookahead
            );
        }

        // Event ids are allocated exactly as one queue entry per
        // event would take them — the deliveries in neighbor order,
        // then the ack, then any overlay deliveries — so the global
        // `(time, class, id)` order is unchanged by the runs.
        let mut deliveries = std::mem::take(&mut self.core.delivery_scratch);
        deliveries.clear();
        for (i, &nbr) in neighbors.iter().enumerate() {
            let id = self.alloc_id();
            deliveries.push((
                self.sh.shard_map.shard_of(nbr.0) as u32,
                RunEntry {
                    time: now + plan.receive_delays[i],
                    id,
                    to: nbr.0 as u32,
                    unreliable: false,
                },
            ));
        }
        let ack = self.alloc_id();
        // Take the overlay out while sampling so the id allocator can
        // borrow the exec mutably (no clone on the hot path). Overlay
        // delays are >= 1, which the build-time lookahead clamp
        // accounts for.
        if let Some((overlay, p)) = self.core.unreliable.take() {
            let f_ack = self.core.scheduler.f_ack().max(1);
            for nbr in overlay.neighbors(slot) {
                if self.core.engine_rng.gen_bool(p) {
                    let delay = self.core.engine_rng.gen_range(1..=f_ack);
                    let id = self.alloc_id();
                    deliveries.push((
                        self.sh.shard_map.shard_of(nbr.0) as u32,
                        RunEntry {
                            time: now + delay,
                            id,
                            to: nbr.0 as u32,
                            unreliable: true,
                        },
                    ));
                }
            }
            self.core.unreliable = Some((overlay, p));
        }
        deliveries.sort_unstable_by_key(|&(shard, e)| (shard, e.time, e.id));

        // Cross-shard runs first — each clones the payload into its
        // destination's arena, so the original can move into the
        // sender's — then the sender's own run, its in-flight record
        // and the ack. The ack always lands on the sender's shard, so
        // the sender's arena slot is live until at least the ack (or
        // a cancellation).
        let src = self.sh.shard_map.shard_of(slot.0);
        let mut own: &[(u32, RunEntry)] = &[];
        for run in deliveries.chunk_by(|a, b| a.0 == b.0) {
            let dst = run[0].0 as usize;
            if dst == src {
                own = run;
                continue;
            }
            self.core.metrics.cross_shard_deliveries += run.len() as u64;
            let cell = &mut *self.cells[dst];
            let h = cell.arena.insert_cloned(&msg, run.len() as u32);
            let idx = cell.runs.open(slot, bcast, h, run);
            let head = run[0].1;
            self.push_local(
                dst,
                head.time,
                head.id,
                EventKind::Receive { run: idx, k: 0 },
            );
        }
        let cell = &mut *self.cells[src];
        let payload = cell.arena.insert(msg, own.len() as u32 + 1);
        let li = slot.0 - cell.base;
        debug_assert!(cell.inflight[li].is_none(), "double broadcast");
        cell.inflight[li] = Some(InFlight {
            payload,
            ack: EventId(ack),
        });
        if let Some(&(_, head)) = own.first() {
            let idx = cell.runs.open(slot, bcast, payload, own);
            self.push_local(
                src,
                head.time,
                head.id,
                EventKind::Receive { run: idx, k: 0 },
            );
        }
        let ack_time = now + plan.ack_delay;
        self.push_local(src, ack_time, ack, EventKind::Ack { node: slot, bcast });
        self.core.delivery_scratch = deliveries;

        // Resolve any planned mid-broadcast crash against this
        // broadcast via the shared ledger.
        match self.core.ledger.admit_broadcast(slot.0, bcast.0) {
            Admission::Deliver => {}
            Admission::CrashImmediately => self.handle_crash(slot),
            Admission::PartialThenCrash { delivered } => {
                assert!(
                    delivered <= neighbors.len(),
                    "mid-broadcast crash wants {delivered} deliveries but {slot} has {} neighbors",
                    neighbors.len()
                );
            }
        }
        self.core.neighbor_scratch = neighbors;
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::sched::sync::SynchronousScheduler;

    /// Floods a token; decides 1 on first receive, or 0 at start for
    /// the initiator.
    struct Flood {
        initiator: bool,
        relayed: bool,
    }

    #[derive(Clone, Debug)]
    struct Token;
    impl Payload for Token {
        fn id_count(&self) -> usize {
            0
        }
    }

    impl Process for Flood {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut Context<'_, Token>) {
            if self.initiator {
                self.relayed = true;
                ctx.broadcast(Token);
                ctx.decide(0);
            }
        }
        fn on_receive(&mut self, _m: Token, ctx: &mut Context<'_, Token>) {
            if !self.relayed {
                self.relayed = true;
                ctx.broadcast(Token);
            }
            if ctx.decided().is_none() {
                ctx.decide(1);
            }
        }
        fn on_ack(&mut self, _ctx: &mut Context<'_, Token>) {}
    }

    fn flood_sim(topo: Topology) -> Sim<Flood> {
        SimBuilder::new(topo, |s| Flood {
            initiator: s.0 == 0,
            relayed: false,
        })
        .scheduler(SynchronousScheduler::new(1))
        .build()
    }

    #[test]
    fn flood_crosses_line_in_d_rounds() {
        let mut sim = flood_sim(Topology::line(6));
        let report = sim.run();
        assert!(report.all_decided());
        // Node i (i >= 1) receives the token at round i.
        for i in 1..6 {
            assert_eq!(report.decisions[i].unwrap().time, Time(i as u64));
        }
        assert_eq!(report.metrics.broadcasts, 6);
        // The run stops the instant the last node decides; acks still
        // in the heap at that point are never processed.
        assert!(report.metrics.acks >= 4);
    }

    #[test]
    fn single_hop_flood_takes_one_round() {
        let mut sim = flood_sim(Topology::clique(5));
        let report = sim.run();
        assert!(report.all_decided());
        assert_eq!(report.max_decision_time(), Some(Time(1)));
        // Each delivery of the initial broadcast plus relays.
        assert!(report.metrics.deliveries >= 4);
    }

    #[test]
    fn run_until_pauses_mid_execution() {
        let mut sim = flood_sim(Topology::line(8));
        sim.run_until(Time(3));
        assert_eq!(sim.now(), Time(3));
        // Nodes 1..=3 decided, the rest not yet.
        assert!(sim.decisions()[3].is_some());
        assert!(sim.decisions()[4].is_none());
        let report = sim.run();
        assert!(report.all_decided());
    }

    #[test]
    fn crash_at_time_halts_node() {
        let mut sim = SimBuilder::new(Topology::line(4), |s| Flood {
            initiator: s.0 == 0,
            relayed: false,
        })
        .scheduler(SynchronousScheduler::new(1))
        .crashes(CrashPlan::new(vec![CrashSpec::AtTime {
            slot: Slot(2),
            time: Time(1),
        }]))
        .build();
        let report = sim.run();
        // Node 2 crashes as the token reaches node 1; the flood dies there.
        assert_eq!(report.metrics.crashes, 1);
        assert!(report.decisions[1].is_some());
        assert!(report.decisions[3].is_none());
        assert_eq!(report.outcome, RunOutcome::Quiescent);
    }

    #[test]
    fn crash_at_time_zero_excludes_node() {
        let mut sim = SimBuilder::new(Topology::clique(3), |s| Flood {
            initiator: s.0 == 0,
            relayed: false,
        })
        .scheduler(SynchronousScheduler::new(1))
        .crashes(CrashPlan::new(vec![CrashSpec::AtTime {
            slot: Slot(1),
            time: Time::ZERO,
        }]))
        .build();
        let report = sim.run();
        assert!(report.all_decided());
        assert!(report.decisions[1].is_none());
        assert!(report.decisions[2].is_some());
    }

    /// Records every received token.
    struct Counter {
        received: usize,
        emit: bool,
    }

    impl Process for Counter {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut Context<'_, Token>) {
            if self.emit {
                ctx.broadcast(Token);
            }
        }
        fn on_receive(&mut self, _m: Token, _ctx: &mut Context<'_, Token>) {
            self.received += 1;
        }
        fn on_ack(&mut self, _ctx: &mut Context<'_, Token>) {}
    }

    #[test]
    fn mid_broadcast_crash_delivers_to_prefix_only() {
        // Clique of 5; node 0 broadcasts and crashes after exactly 2
        // deliveries. Exactly two other nodes get the message.
        let mut sim = SimBuilder::new(Topology::clique(5), |s| Counter {
            received: 0,
            emit: s.0 == 0,
        })
        .scheduler(SynchronousScheduler::new(1))
        .crashes(CrashPlan::new(vec![CrashSpec::MidBroadcast {
            slot: Slot(0),
            nth_broadcast: 0,
            delivered: 2,
        }]))
        .build();
        let report = sim.run();
        assert_eq!(report.metrics.crashes, 1);
        let total: usize = (1..5).map(|i| sim.process(Slot(i)).received).sum();
        assert_eq!(total, 2, "exactly the allowed prefix was delivered");
        // The sender never got an ack.
        assert_eq!(report.metrics.acks, 0);
    }

    #[test]
    fn mid_broadcast_crash_with_zero_deliveries() {
        let mut sim = SimBuilder::new(Topology::clique(4), |s| Counter {
            received: 0,
            emit: s.0 == 0,
        })
        .scheduler(SynchronousScheduler::new(1))
        .crashes(CrashPlan::new(vec![CrashSpec::MidBroadcast {
            slot: Slot(0),
            nth_broadcast: 0,
            delivered: 0,
        }]))
        .build();
        let report = sim.run();
        let total: usize = (1..4).map(|i| sim.process(Slot(i)).received).sum();
        assert_eq!(total, 0);
        assert_eq!(report.metrics.crashes, 1);
    }

    /// Broadcasts forever; used to exercise busy-discard and horizons.
    struct Chatter;
    impl Process for Chatter {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut Context<'_, Token>) {
            ctx.broadcast(Token);
            ctx.broadcast(Token); // discarded: already busy
        }
        fn on_receive(&mut self, _m: Token, ctx: &mut Context<'_, Token>) {
            ctx.broadcast(Token); // discarded whenever busy
        }
        fn on_ack(&mut self, ctx: &mut Context<'_, Token>) {
            ctx.broadcast(Token);
        }
    }

    #[test]
    fn busy_broadcasts_are_discarded_and_horizon_stops() {
        let mut sim = SimBuilder::new(Topology::clique(3), |_| Chatter)
            .scheduler(SynchronousScheduler::new(1))
            .max_time(Time(50))
            .build();
        let report = sim.run();
        assert_eq!(report.outcome, RunOutcome::MaxTime);
        assert!(report.metrics.busy_discards > 0);
        // One broadcast per node per round, including the start round
        // and the round at the horizon itself.
        assert_eq!(report.metrics.broadcasts, 3 * 51);
    }

    #[test]
    fn trace_records_event_sequence() {
        let mut sim = SimBuilder::new(Topology::line(2), |s| Flood {
            initiator: s.0 == 0,
            relayed: false,
        })
        .scheduler(SynchronousScheduler::new(1))
        .trace(true)
        .build();
        sim.run();
        let events = sim.trace().events();
        assert!(matches!(
            events[0],
            TraceEvent::Broadcast { slot: Slot(0), .. }
        ));
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Deliver {
                from: Slot(0),
                to: Slot(1),
                ..
            }
        )));
        assert!(sim.trace().decisions().count() >= 2);
    }

    #[test]
    fn deterministic_across_identical_builds() {
        let run = |seed| {
            let mut sim = SimBuilder::new(Topology::random_connected(12, 0.2, 3), |s| Flood {
                initiator: s.0 == 0,
                relayed: false,
            })
            .scheduler(RandomScheduler::new(5, seed))
            .seed(seed)
            .build();
            let r = sim.run();
            (r.end_time, r.metrics.deliveries, r.metrics.broadcasts)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// Message carrying a configurable id count.
    #[derive(Clone, Debug)]
    struct Wide(usize);
    impl Payload for Wide {
        fn id_count(&self) -> usize {
            self.0
        }
    }

    struct WideSender(usize);
    impl Process for WideSender {
        type Msg = Wide;
        fn on_start(&mut self, ctx: &mut Context<'_, Wide>) {
            ctx.broadcast(Wide(self.0));
        }
        fn on_receive(&mut self, _m: Wide, _ctx: &mut Context<'_, Wide>) {}
        fn on_ack(&mut self, ctx: &mut Context<'_, Wide>) {
            ctx.decide(0);
        }
    }

    #[test]
    fn id_budget_allows_within_budget() {
        let mut sim = SimBuilder::new(Topology::clique(2), |_| WideSender(3))
            .scheduler(SynchronousScheduler::new(1))
            .message_id_budget(4)
            .build();
        let report = sim.run();
        assert!(report.all_decided());
        assert_eq!(report.metrics.max_message_ids, 3);
    }

    #[test]
    #[should_panic(expected = "exceeding the O(1) budget")]
    fn id_budget_panics_on_violation() {
        let mut sim = SimBuilder::new(Topology::clique(2), |_| WideSender(9))
            .scheduler(SynchronousScheduler::new(1))
            .message_id_budget(4)
            .build();
        sim.run();
    }

    #[test]
    fn ack_arrives_after_all_deliveries() {
        // With the random scheduler over many seeds, a node's ack is
        // always processed after its message reached all neighbors:
        // deliveries of broadcast b never follow b's ack.
        for seed in 0..20 {
            let mut sim = SimBuilder::new(Topology::clique(6), |s| Flood {
                initiator: s.0 == 0,
                relayed: false,
            })
            .scheduler(RandomScheduler::new(9, seed))
            .trace(true)
            .build();
            sim.run();
            let mut acked = std::collections::HashSet::new();
            for ev in sim.trace().events() {
                match *ev {
                    TraceEvent::Ack { slot, .. } => {
                        acked.insert(slot);
                    }
                    TraceEvent::Deliver { from, .. } => {
                        assert!(
                            !acked.contains(&from),
                            "seed {seed}: delivery from {from} after its ack"
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn custom_ids_rejected_when_duplicated() {
        let build =
            || SimBuilder::new(Topology::clique(2), |_| Chatter).ids(vec![NodeId(1), NodeId(1)]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build));
        assert!(result.is_err());
    }

    #[test]
    fn mid_broadcast_crash_fires_even_with_dead_receivers() {
        // clique(3): slot 1 is dead at t=0 and slot 0's first
        // broadcast is watched with delivered=2. One of the two
        // allowed delivery slots falls on the dead receiver; the
        // planned sender crash must still fire (matching the threaded
        // ether, which crashes the sender up front), with exactly one
        // real delivery and no ack.
        let mut sim = SimBuilder::new(Topology::clique(3), |s| Counter {
            received: 0,
            emit: s.0 == 0,
        })
        .scheduler(SynchronousScheduler::new(1))
        .crashes(CrashPlan::new(vec![
            CrashSpec::AtTime {
                slot: Slot(1),
                time: Time::ZERO,
            },
            CrashSpec::MidBroadcast {
                slot: Slot(0),
                nth_broadcast: 0,
                delivered: 2,
            },
        ]))
        .build();
        let report = sim.run();
        assert!(sim.is_crashed(Slot(0)), "planned sender crash skipped");
        assert_eq!(report.metrics.crashes, 1, "time-zero crash is uncounted");
        assert_eq!(report.metrics.deliveries, 1);
        assert_eq!(sim.process(Slot(2)).received, 1);
        assert_eq!(report.metrics.acks, 0, "interrupted broadcast acked");
    }

    /// A run configuration whose observables we compare across shard
    /// counts: trace bytes, decisions, and the semantic counters.
    fn observables(report: &RunReport, sim: &Sim<Flood>) -> impl PartialEq + std::fmt::Debug {
        (
            report.outcome,
            report.end_time,
            report.decisions.clone(),
            report.metrics.broadcasts,
            report.metrics.deliveries,
            report.metrics.acks,
            report.metrics.crashes,
            report.metrics.events,
            report.metrics.queue_pushes,
            report.metrics.queue_cancellations,
            sim.trace().clone(),
        )
    }

    /// The sharded-engine contract: for every shard count and both
    /// queue cores, the trace and report are byte-identical to serial.
    #[test]
    fn sharded_runs_are_byte_identical_to_serial() {
        for core in QueueCoreKind::all() {
            for topo in [
                Topology::line(9),
                Topology::clique(6),
                Topology::random_connected(14, 0.2, 3),
            ] {
                let run = |shards: usize| {
                    let mut sim = SimBuilder::new(topo.clone(), |s| Flood {
                        initiator: s.0 == 0,
                        relayed: false,
                    })
                    .scheduler(RandomScheduler::new(5, 11))
                    .crashes(CrashPlan::new(vec![CrashSpec::AtTime {
                        slot: Slot(topo.len() - 1),
                        time: Time(2),
                    }]))
                    .queue_core(core)
                    .shards(shards)
                    .trace(true)
                    .build();
                    let report = sim.run();
                    (observables(&report, &sim), sim.shard_count())
                };
                let (serial, s1) = run(1);
                assert_eq!(s1, 1);
                for shards in [2usize, 3, 7] {
                    let (sharded, actual) = run(shards);
                    assert_eq!(
                        serial, sharded,
                        "{core} core, {shards} shards ({actual} effective) diverged from serial"
                    );
                }
            }
        }
    }

    /// Mid-broadcast crashes reach across shards: the countdown fires
    /// on a delivery processed by one shard, crashes the sender on
    /// another, and the remaining events — queued on every shard — are
    /// cancelled. Counters must match serial exactly.
    #[test]
    fn sharded_mid_broadcast_crash_matches_serial() {
        let run = |shards: usize| {
            let mut sim = SimBuilder::new(Topology::clique(6), |s| Counter {
                received: 0,
                emit: s.0 == 0,
            })
            .scheduler(SynchronousScheduler::new(1))
            .crashes(CrashPlan::new(vec![CrashSpec::MidBroadcast {
                slot: Slot(0),
                nth_broadcast: 0,
                delivered: 2,
            }]))
            .shards(shards)
            .trace(true)
            .build();
            let report = sim.run();
            (
                report.metrics.deliveries,
                report.metrics.acks,
                report.metrics.crashes,
                report.metrics.queue_cancellations,
                sim.trace().clone(),
            )
        };
        let serial = run(1);
        assert_eq!(serial.0, 2, "exactly the allowed prefix");
        for shards in [2usize, 3, 6] {
            assert_eq!(serial, run(shards), "{shards} shards");
        }
    }

    /// `run_until` pause/resume crosses window boundaries without
    /// losing a queued event or disturbing the merged order.
    #[test]
    fn sharded_run_until_matches_serial() {
        let run = |shards: usize| {
            let mut sim = flood_sim(Topology::line(8));
            let mut sim2 = SimBuilder::new(Topology::line(8), |s| Flood {
                initiator: s.0 == 0,
                relayed: false,
            })
            .scheduler(SynchronousScheduler::new(1))
            .shards(shards)
            .build();
            sim.run_until(Time(3));
            sim2.run_until(Time(3));
            assert_eq!(sim.now(), sim2.now());
            assert_eq!(sim.decisions(), sim2.decisions(), "{shards} shards paused");
            let (a, b) = (sim.run(), sim2.run());
            assert_eq!(a.decisions, b.decisions, "{shards} shards resumed");
            assert_eq!(a.metrics.events, b.metrics.events);
        };
        for shards in [2usize, 4] {
            run(shards);
        }
    }

    /// Sharded runs populate the coordinator counters; serial runs
    /// leave them — and the per-shard, shortcut and pool counters —
    /// zero, although their one shard drains through the coordinator's
    /// window loop.
    #[test]
    fn shard_counters_surface_in_metrics() {
        let run = |shards: usize| {
            let mut sim = SimBuilder::new(Topology::ring(8), |s| Flood {
                initiator: s.0 == 0,
                relayed: false,
            })
            .scheduler(SynchronousScheduler::new(1))
            .shards(shards)
            .build();
            sim.run().metrics
        };
        let serial = run(1);
        assert_eq!(serial.cross_shard_deliveries, 0);
        assert_eq!(serial.shard_window_advances, 0);
        assert_eq!(serial.per_shard_events.iter().sum::<u64>(), 0);
        assert_eq!(serial.serial_window_shortcuts, 0);
        assert_eq!(serial.superstep_count, 0);
        assert_eq!(serial.worker_spawns, 0);
        let sharded = run(4);
        assert!(sharded.cross_shard_deliveries > 0, "{sharded:?}");
        assert!(sharded.shard_window_advances > 0, "{sharded:?}");
        assert_eq!(sharded.per_shard_events.len(), 4);
        assert_eq!(sharded.per_shard_events.iter().sum::<u64>(), sharded.events);
        assert!(sharded.shard_skew() >= 1.0);
    }

    /// Shard counts beyond the node count clamp instead of creating
    /// empty shards.
    #[test]
    fn shard_count_clamps_to_node_count() {
        let mut sim = SimBuilder::new(Topology::clique(3), |s| Flood {
            initiator: s.0 == 0,
            relayed: false,
        })
        .scheduler(SynchronousScheduler::new(1))
        .shards(64)
        .build();
        assert_eq!(sim.shard_count(), 3);
        assert!(sim.run().all_decided());
    }

    /// A scheduler declaring zero lookahead is rejected at build time
    /// with a clear error — the conservative engine must not deadlock
    /// on it. Serial builds still accept it.
    #[test]
    fn zero_lookahead_scheduler_is_rejected_when_sharded() {
        struct ZeroLookahead;
        impl Scheduler for ZeroLookahead {
            fn f_ack(&self) -> u64 {
                4
            }
            fn min_delay(&self) -> u64 {
                0
            }
            fn plan(&mut self, _now: Time, _sender: Slot, neighbors: &[Slot]) -> BroadcastPlan {
                BroadcastPlan {
                    receive_delays: vec![1; neighbors.len()],
                    ack_delay: 1,
                }
            }
        }
        use super::super::sched::BroadcastPlan;
        let build = |shards: usize| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                SimBuilder::new(Topology::clique(4), |s| Flood {
                    initiator: s.0 == 0,
                    relayed: false,
                })
                .scheduler(ZeroLookahead)
                .shards(shards)
                .build()
            }))
        };
        // Serial: zero lookahead is irrelevant, the build succeeds.
        assert!(build(1).is_ok());
        // Sharded: rejected with a message naming the problem.
        let err = match build(2) {
            Ok(_) => panic!("zero-lookahead sharded build must be rejected"),
            Err(e) => e,
        };
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("zero lookahead"),
            "panic message should name the problem: {msg}"
        );
    }

    /// A scheduler whose plans undercut its declared lookahead is
    /// caught by the per-broadcast check instead of corrupting the
    /// window protocol.
    #[test]
    #[should_panic(expected = "violated its declared lookahead")]
    fn lookahead_violations_are_caught() {
        struct Overpromise;
        impl Scheduler for Overpromise {
            fn f_ack(&self) -> u64 {
                8
            }
            fn min_delay(&self) -> u64 {
                4 // promises 4, plans 1
            }
            fn plan(&mut self, _now: Time, _sender: Slot, neighbors: &[Slot]) -> BroadcastPlan {
                BroadcastPlan {
                    receive_delays: vec![1; neighbors.len()],
                    ack_delay: 1,
                }
            }
        }
        use super::super::sched::BroadcastPlan;
        let mut sim = SimBuilder::new(Topology::clique(4), |s| Flood {
            initiator: s.0 == 0,
            relayed: false,
        })
        .scheduler(Overpromise)
        .shards(2)
        .build();
        sim.run();
    }

    /// The max-delay adversary declares `F_ack` lookahead, so the
    /// coordinator batches a whole round per window.
    #[test]
    fn wide_lookahead_batches_windows() {
        let mut sim = SimBuilder::new(Topology::clique(5), |s| Flood {
            initiator: s.0 == 0,
            relayed: false,
        })
        .scheduler(crate::sim::sched::stall::MaxDelayScheduler::new(8))
        .shards(2)
        .build();
        assert_eq!(sim.lookahead(), 8);
        let report = sim.run();
        assert!(report.all_decided());
        assert!(
            report.metrics.shard_window_advances <= report.metrics.events,
            "{:?}",
            report.metrics
        );
    }

    #[test]
    fn sender_crash_cancels_pending_events() {
        // Node 0 broadcasts at t=0 (deliveries at t=1 under the
        // synchronous scheduler) but crashes at t=0 via an AtTime
        // spec processed after its start callback... instead use a
        // mid-broadcast watch with 1 of 4 deliveries: the remaining 3
        // deliveries and the ack are cancelled on the queue, never
        // popped.
        let mut sim = SimBuilder::new(Topology::clique(5), |s| Counter {
            received: 0,
            emit: s.0 == 0,
        })
        .scheduler(SynchronousScheduler::new(1))
        .crashes(CrashPlan::new(vec![CrashSpec::MidBroadcast {
            slot: Slot(0),
            nth_broadcast: 0,
            delivered: 1,
        }]))
        .build();
        let report = sim.run();
        assert_eq!(report.metrics.crashes, 1);
        // 1 delivery fired; 3 deliveries + 1 ack cancelled.
        assert_eq!(report.metrics.deliveries, 1);
        assert_eq!(report.metrics.acks, 0);
    }

    /// Steps `sim` one event at a time (raising the event limit by
    /// one per `run` call) until it stops for another reason, calling
    /// `check` after every pop.
    fn step_each_event<P: Process>(sim: &mut Sim<P>, mut check: impl FnMut(&Sim<P>, &RunReport)) {
        sim.sh.max_events = 0;
        loop {
            sim.sh.max_events += 1;
            let report = sim.run();
            check(sim, &report);
            if report.outcome != RunOutcome::EventLimit {
                return;
            }
        }
    }

    /// One queue entry per in-flight broadcast: on a clique(64) flood
    /// every node's broadcast has 63 deliveries pending at once, yet
    /// the queue never holds more than one run head and one ack per
    /// node, plus the crash timer.
    #[test]
    fn queue_holds_run_heads_not_deliveries() {
        let n = 64;
        let mut sim = SimBuilder::new(Topology::clique(n), |s| Flood {
            initiator: s.0 == 0,
            relayed: false,
        })
        .scheduler(RandomScheduler::new(8, 3))
        .crashes(CrashPlan::new(vec![CrashSpec::AtTime {
            slot: Slot(9),
            time: Time(40),
        }]))
        .stop_when_all_decided(false)
        .build();
        let timers = 1;
        let (mut depth_peak, mut pending_peak) = (0, 0);
        step_each_event(&mut sim, |sim, report| {
            let depth = sim.cells[0].queue.len();
            assert!(
                depth <= 2 * n + timers,
                "queue depth {depth} after {:?}",
                report.metrics.events
            );
            let m = &report.metrics;
            depth_peak = depth_peak.max(depth);
            pending_peak = pending_peak.max(m.queue_pushes - m.events - m.queue_cancellations);
        });
        assert!(
            pending_peak > 20 * n as u64,
            "the flood never had many deliveries pending ({pending_peak}): vacuous"
        );
        assert!(
            depth_peak > n,
            "the heads never piled up ({depth_peak}): vacuous"
        );
    }

    /// Every scheduled event has one home: whenever the engine yields,
    /// each live run's head, each in-flight ack and each unfired crash
    /// timer sits in its shard's queue, and nothing is left staged —
    /// at every shard count, and with the pool stepping windows. The
    /// engine yields after every event, and again after every tick: a
    /// `run_until` that stops right after a pooled window is the stop
    /// that must flush that window's staged pushes.
    #[test]
    fn every_scheduled_event_is_queued_when_the_engine_yields() {
        fn assert_one_home(sim: &Sim<Flood>, at: &str) {
            assert!(
                sim.cells.iter().all(|c| c.pending.is_empty()),
                "{at}: staged"
            );
            let queued: usize = sim.cells.iter().map(|c| c.queue.len()).sum();
            let runs: usize = sim
                .cells
                .iter()
                .map(|c| c.runs.slab.len() - c.runs.free.len())
                .sum();
            let acks: usize = sim
                .cells
                .iter()
                .map(|c| c.inflight.iter().flatten().count())
                .sum();
            let timers = usize::from(!sim.is_crashed(Slot(9)));
            assert_eq!(queued, runs + acks + timers, "{at}");
        }
        let n = 64;
        for (shards, pool) in [(1, None), (2, None), (4, None), (4, Some(2))] {
            let build = || {
                let builder = SimBuilder::new(Topology::clique(n), |s| Flood {
                    initiator: s.0 == 0,
                    relayed: false,
                })
                .scheduler(RandomScheduler::new(8, 3))
                .crashes(CrashPlan::new(vec![CrashSpec::AtTime {
                    slot: Slot(9),
                    time: Time(40),
                }]))
                .stop_when_all_decided(false)
                .shards(shards);
                match pool {
                    Some(workers) => builder.threads(4).debug_force_pool_workers(workers),
                    None => builder,
                }
                .build()
            };
            let label = match pool {
                Some(workers) => format!("S={shards} pool={workers}"),
                None => format!("S={shards}"),
            };
            let mut sim = build();
            step_each_event(&mut sim, |sim, report| {
                assert_one_home(
                    sim,
                    &format!("{label} after {} events", report.metrics.events),
                );
            });
            let mut sim = build();
            for t in 1..=48 {
                sim.run_until(Time(t));
                assert_one_home(&sim, &format!("{label} at t={t}"));
            }
            if pool.is_some() {
                assert!(
                    sim.metrics().superstep_count > 0,
                    "{label}: the pool never ran"
                );
            }
        }
    }

    /// A mid-broadcast crash voids the rest of the run with one queue
    /// tombstone (plus the ack's), while `queue_cancellations` still
    /// counts every voided event — the unfired deliveries and the ack,
    /// as one queue entry per delivery counted them.
    #[test]
    fn mid_broadcast_crash_tombstones_one_head_but_counts_every_delivery() {
        let (n, delivered) = (64, 20);
        let build = |shards: usize| {
            SimBuilder::new(Topology::clique(n), |s| Counter {
                received: 0,
                emit: s.0 == 0,
            })
            .scheduler(RandomScheduler::new(8, 5))
            .crashes(CrashPlan::new(vec![CrashSpec::MidBroadcast {
                slot: Slot(0),
                nth_broadcast: 0,
                delivered,
            }]))
            .shards(shards)
            .build()
        };
        let mut sim = build(1);
        let report = sim.run();
        assert_eq!(report.metrics.crashes, 1);
        assert_eq!(report.metrics.deliveries, delivered as u64);
        assert!(
            sim.cells[0].queue.cancelled_total() <= 2,
            "{} queue tombstones",
            sim.cells[0].queue.cancelled_total()
        );
        let logical = (n - 1 - delivered) as u64 + 1;
        assert_eq!(report.metrics.queue_cancellations, logical);
        // Split per shard — one run head tombstoned on each shard the
        // broadcast reaches — the count is the same.
        for shards in [2, 4] {
            let report = build(shards).run();
            assert_eq!(report.metrics.queue_cancellations, logical, "S={shards}");
        }
    }

    /// The parallel stepper's contract: for every shard count, thread
    /// count, and queue core, trace and report stay byte-identical to
    /// serial. The time-zero crash event forces at least one merged
    /// fallback window, so both paths are exercised in one run.
    ///
    /// With tracing off a pool worker records only the steps that
    /// broadcast or decided, so the comparison there is outcome, end
    /// time, decisions and the semantic counters (the traces are both
    /// empty). The clique of listeners — nodes that decide on the
    /// first token without relaying it — puts decision-only steps
    /// into the pool's first window.
    #[test]
    fn threaded_runs_are_byte_identical_to_serial() {
        for trace in [true, false] {
            for core in QueueCoreKind::all() {
                for (topo, listeners) in [
                    (Topology::line(9), false),
                    (Topology::clique(6), false),
                    (Topology::clique(6), true),
                    (Topology::random_connected(14, 0.2, 3), false),
                ] {
                    let run = |shards: usize, threads: usize| {
                        let mut sim = SimBuilder::new(topo.clone(), |s| Flood {
                            initiator: s.0 == 0,
                            relayed: listeners && s.0 != 0,
                        })
                        .scheduler(RandomScheduler::new(5, 11))
                        .crashes(CrashPlan::new(vec![CrashSpec::AtTime {
                            slot: Slot(topo.len() - 1),
                            time: Time(2),
                        }]))
                        .queue_core(core)
                        .shards(shards)
                        .threads(threads)
                        .trace(trace)
                        .build();
                        let report = sim.run();
                        (observables(&report, &sim), sim.thread_count())
                    };
                    let (serial, _) = run(1, 1);
                    for shards in [2usize, 3, 7] {
                        for threads in [2usize, 4] {
                            let (threaded, actual) = run(shards, threads);
                            assert_eq!(
                                serial, threaded,
                                "trace {trace}, {core} core, listeners {listeners}, \
                                 {shards} shards x {threads} threads ({actual} effective) \
                                 diverged from serial"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Mid-broadcast crash machinery arms the ledger, so
    /// `parallel_step_safe` steers those windows to the merged
    /// fallback — and the counters still match serial exactly.
    #[test]
    fn threaded_mid_broadcast_crash_matches_serial() {
        let run = |shards: usize, threads: usize| {
            let mut sim = SimBuilder::new(Topology::clique(6), |s| Counter {
                received: 0,
                emit: s.0 == 0,
            })
            .scheduler(SynchronousScheduler::new(1))
            .crashes(CrashPlan::new(vec![CrashSpec::MidBroadcast {
                slot: Slot(0),
                nth_broadcast: 0,
                delivered: 2,
            }]))
            .shards(shards)
            .threads(threads)
            .trace(true)
            .build();
            let report = sim.run();
            (
                report.metrics.deliveries,
                report.metrics.acks,
                report.metrics.crashes,
                report.metrics.queue_cancellations,
                sim.trace().clone(),
            )
        };
        let serial = run(1, 1);
        assert_eq!(serial.0, 2, "exactly the allowed prefix");
        for shards in [2usize, 3, 6] {
            assert_eq!(serial, run(shards, 4), "{shards} shards, 4 threads");
        }
    }

    /// `run_until` pause/resume under the parallel stepper: the time
    /// horizon forces merged fallbacks near the limit, and the resumed
    /// run still matches the serial engine step for step.
    #[test]
    fn threaded_run_until_matches_serial() {
        for threads in [2usize, 4] {
            let mut sim = flood_sim(Topology::line(8));
            let mut sim2 = SimBuilder::new(Topology::line(8), |s| Flood {
                initiator: s.0 == 0,
                relayed: false,
            })
            .scheduler(SynchronousScheduler::new(1))
            .shards(4)
            .threads(threads)
            .build();
            sim.run_until(Time(3));
            sim2.run_until(Time(3));
            assert_eq!(sim.now(), sim2.now());
            assert_eq!(
                sim.decisions(),
                sim2.decisions(),
                "{threads} threads paused"
            );
            let (a, b) = (sim.run(), sim2.run());
            assert_eq!(a.decisions, b.decisions, "{threads} threads resumed");
            assert_eq!(a.metrics.events, b.metrics.events);
        }
    }

    /// The deterministic metrics of a pooled run equal the
    /// single-threaded sharded run's field for field, and the
    /// wall-clock worker timings (excluded from that equality) are
    /// populated with one entry per shard. The forced pool size
    /// exercises real worker threads regardless of host parallelism.
    #[test]
    fn threaded_metrics_match_sharded_and_time_the_workers() {
        let run = |threads: usize| {
            let mut builder = SimBuilder::new(Topology::ring(8), |s| Flood {
                initiator: s.0 == 0,
                relayed: false,
            })
            .scheduler(SynchronousScheduler::new(1))
            .shards(4)
            .threads(threads);
            if threads > 1 {
                builder = builder.debug_force_pool_workers(2);
            }
            let mut sim = builder.build();
            sim.run().metrics
        };
        let sharded = run(1);
        let threaded = run(4);
        assert_eq!(sharded, threaded, "deterministic counters diverged");
        assert!(sharded.shard_busy_ns.is_empty(), "timers without threads");
        assert_eq!(sharded.worker_spawns, 0, "workers without threads");
        assert_eq!(threaded.shard_busy_ns.len(), 4);
        assert_eq!(threaded.shard_barrier_wait_ns.len(), 4);
        assert!(threaded.worker_spawns > 0, "pool never spawned");
        assert!(threaded.superstep_count > 0, "pool never woke");
        let pct = threaded.barrier_pct();
        assert!((0.0..=100.0).contains(&pct), "barrier_pct {pct}");
    }

    /// Thread counts beyond the shard count clamp: workers own whole
    /// shards, so extra threads would have nothing to hold.
    #[test]
    fn thread_count_clamps_to_shard_count() {
        let mut sim = SimBuilder::new(Topology::clique(6), |s| Flood {
            initiator: s.0 == 0,
            relayed: false,
        })
        .scheduler(SynchronousScheduler::new(1))
        .shards(2)
        .threads(16)
        .build();
        assert_eq!(sim.thread_count(), 2);
        assert!(sim.run().all_decided());
    }

    /// Unreliable-overlay sampling draws from the engine RNG in
    /// commit order, so overlay runs stay byte-identical across
    /// thread counts (including the RNG-dependent trace).
    #[test]
    fn threaded_unreliable_overlay_matches_serial() {
        let base = Topology::line(6);
        let overlay = UnreliableOverlay::new(&base, &[(0, 2), (0, 3), (1, 4)]);
        let run = |shards: usize, threads: usize| {
            let mut sim = SimBuilder::new(base.clone(), |s| Flood {
                initiator: s.0 == 0,
                relayed: false,
            })
            .scheduler(SynchronousScheduler::new(3))
            .unreliable(overlay.clone(), 0.5)
            .shards(shards)
            .threads(threads)
            .stop_when_all_decided(false)
            .trace(true)
            .build();
            let report = sim.run();
            (
                observables(&report, &sim),
                report.metrics.unreliable_deliveries,
            )
        };
        let (serial, extra) = run(1, 1);
        assert!(extra > 0, "overlay never fired; the test is vacuous");
        for threads in [2usize, 3] {
            assert_eq!(serial, run(3, threads).0, "{threads} threads");
        }
    }

    /// An event limit that lands mid-window trips the commit gate, so
    /// the merged fallback stops at exactly the serial event count.
    #[test]
    fn threaded_event_limit_matches_serial() {
        let run = |shards: usize, threads: usize| {
            let mut sim = SimBuilder::new(Topology::clique(6), |s| Flood {
                initiator: s.0 == 0,
                relayed: false,
            })
            .scheduler(SynchronousScheduler::new(1))
            .max_events(7)
            .shards(shards)
            .threads(threads)
            .stop_when_all_decided(false)
            .trace(true)
            .build();
            let report = sim.run();
            (report.outcome, report.metrics.events, sim.trace().clone())
        };
        let serial = run(1, 1);
        assert_eq!(serial.0, RunOutcome::EventLimit);
        assert_eq!(serial, run(3, 4), "event limit diverged under threads");
    }

    /// A dense sharded sim: clique(64) `Chatter` keeps every window
    /// above [`SERIAL_WINDOW_MIN_EVENTS`], so the serial gate sends
    /// them all to the pool, and with stop-on-all-decided off the
    /// commit gate lets the workers run them (every window touches
    /// every undecided node).
    fn dense_sharded_sim(max_time: u64) -> SimBuilder<Chatter> {
        SimBuilder::new(Topology::clique(64), |_| Chatter)
            .scheduler(SynchronousScheduler::new(1))
            .max_time(Time(max_time))
            .stop_when_all_decided(false)
            .shards(4)
    }

    /// [`dense_sharded_sim`] on a forced two-worker pool.
    fn dense_pool_sim(max_time: u64) -> SimBuilder<Chatter> {
        dense_sharded_sim(max_time)
            .threads(4)
            .debug_force_pool_workers(2)
    }

    /// Every `run*` call spawns the pool exactly once (one worker per
    /// shard group, O(1) in the window count), every dense window goes
    /// through it, and the pooled execution — metrics and trace —
    /// equals the inline sharded one.
    #[test]
    fn pool_spawns_once_per_run_and_matches_inline() {
        let mut sim = dense_pool_sim(10).trace(true).build();
        let report = sim.run();
        assert_eq!(report.outcome, RunOutcome::MaxTime);
        let m = &report.metrics;
        // 4 shards on 2 forced workers = 2 groups, spawned once.
        assert_eq!(m.worker_spawns, 2, "thread spawns must be O(1) per run");
        // The start broadcasts land at t = 1, so windows open at
        // t = 1..=10, and each one is dense enough for the pool.
        assert_eq!(m.shard_window_advances, 10);
        assert_eq!(m.superstep_count, 10, "every window is pool-executed");
        assert_eq!(m.worker_wakeups, m.superstep_count * 2);
        assert_eq!(m.serial_window_shortcuts, 0, "every window is dense");
        let mut inline = dense_sharded_sim(10).trace(true).build();
        assert_eq!(inline.run().metrics, report.metrics, "pool diverged");
        assert_eq!(inline.trace(), sim.trace(), "pool trace diverged");
    }

    /// A crash event landing in a pool-executed window fails the
    /// commit gate: the window aborts to the merged path verbatim, and
    /// the whole run — trace included — stays byte-identical to serial.
    /// Under the random adversary each run spans several one-tick
    /// windows, so the refused window has already taken part of the
    /// crashing sender's run off the queue: the abort must rewind it,
    /// or the merged fallback's crash could not void those deliveries.
    #[test]
    fn gate_failure_aborts_window_to_merged() {
        #[derive(Clone, Copy, PartialEq)]
        enum Mode {
            Serial,
            Inline,
            Pooled,
        }
        let run = |mode: Mode, n: usize, spread: bool| {
            let builder = SimBuilder::new(Topology::clique(n), |_| Chatter);
            let mut builder = if spread {
                builder.scheduler(RandomScheduler::new(8, 21))
            } else {
                builder.scheduler(SynchronousScheduler::new(1))
            }
            .crashes(CrashPlan::new(vec![CrashSpec::AtTime {
                slot: Slot(3),
                time: Time(5),
            }]))
            .max_time(Time(12))
            .stop_when_all_decided(false)
            .trace(true);
            if mode != Mode::Serial {
                builder = builder.shards(4);
            }
            if mode == Mode::Pooled {
                builder = builder.threads(4).debug_force_pool_workers(2);
            }
            let mut sim = builder.build();
            let report = sim.run();
            (report.outcome, report.metrics, sim.trace().clone())
        };
        for (n, spread) in [(16, false), (64, true)] {
            let serial = run(Mode::Serial, n, spread);
            let inline = run(Mode::Inline, n, spread);
            let pooled = run(Mode::Pooled, n, spread);
            // The trace is the byte-identity artifact across every shard
            // and thread count; metrics carry shard-topology counters, so
            // they are compared against the merged run at the same S.
            assert_eq!(serial.0, pooled.0);
            assert_eq!(serial.2, pooled.2, "crash-window trace diverged (n={n})");
            assert_eq!(
                serial.1.queue_cancellations, pooled.1.queue_cancellations,
                "voided deliveries miscounted (n={n})"
            );
            assert_eq!(inline.0, pooled.0);
            assert_eq!(inline.1, pooled.1, "crash-window abort diverged (n={n})");
            assert_eq!(pooled.1.crashes, 1, "the planned crash never fired");
            assert!(
                pooled.1.superstep_count > 0,
                "the crash test never exercised the pool"
            );
        }
    }

    /// Every early stop condition — a `run_until` horizon and an
    /// event limit — shuts the pool down cleanly, and the next `run*`
    /// call spawns a fresh pool that picks up exactly where the last
    /// one stopped.
    #[test]
    fn pool_shuts_down_on_early_stop() {
        let mut sim = dense_pool_sim(20).build();
        assert_eq!(sim.run_until(Time(5)), RunOutcome::MaxTime);
        let spawns_after_first = sim.metrics().worker_spawns;
        assert_eq!(spawns_after_first, 2, "first run_until spawns one pool");
        assert_eq!(sim.run_until(Time(9)), RunOutcome::MaxTime);
        assert_eq!(
            sim.metrics().worker_spawns,
            spawns_after_first + 2,
            "resume spawns a fresh pool once"
        );
        // An event limit inside a window: the gate aborts the window,
        // the merged path stops at the exact count, the pool shuts
        // down on the way out.
        let want = dense_sharded_sim(20).max_events(10_000).build().run();
        assert_eq!(want.outcome, RunOutcome::EventLimit);
        let got = dense_pool_sim(20).max_events(10_000).build().run();
        assert_eq!(got.outcome, RunOutcome::EventLimit);
        assert_eq!(got.metrics, want.metrics, "event-limit stop diverged");
    }

    /// Relays an over-budget message once the token arrives — on a
    /// line that is several windows in, inside a pool worker's phase 2.
    struct LateWide {
        sent: bool,
    }
    impl Process for LateWide {
        type Msg = Wide;
        fn on_start(&mut self, ctx: &mut Context<'_, Wide>) {
            ctx.broadcast(Wide(0));
        }
        fn on_receive(&mut self, _m: Wide, _ctx: &mut Context<'_, Wide>) {}
        fn on_ack(&mut self, ctx: &mut Context<'_, Wide>) {
            let ids = if self.sent { 9 } else { 0 };
            self.sent = true;
            ctx.broadcast(Wide(ids));
        }
    }

    /// A handler panic *inside a pool worker* is stashed, carried past
    /// the window's remaining barriers, and re-raised by `run()` with
    /// its original message; the shutdown round then releases every
    /// worker, so the test finishes instead of hanging.
    #[test]
    #[should_panic(expected = "exceeding the O(1) budget")]
    fn worker_panic_reaches_the_caller_without_hanging() {
        // clique(64) keeps every window dense, so the second-round
        // acks — the ones that broadcast 9 ids — run on the workers.
        let mut sim = SimBuilder::new(Topology::clique(64), |_| LateWide { sent: false })
            .scheduler(SynchronousScheduler::new(1))
            .message_id_budget(4)
            .max_time(Time(10))
            .stop_when_all_decided(false)
            .shards(4)
            .threads(4)
            .debug_force_pool_workers(2)
            .build();
        sim.run();
    }

    /// Decides and broadcasts in `on_start`.
    struct DecideAndSend {
        send: bool,
    }
    impl Process for DecideAndSend {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut Context<'_, Token>) {
            ctx.decide(1);
            if self.send {
                ctx.broadcast(Token);
            }
        }
        fn on_receive(&mut self, _m: Token, _ctx: &mut Context<'_, Token>) {}
        fn on_ack(&mut self, _ctx: &mut Context<'_, Token>) {}
    }

    /// A node that decides and, in the same callback, starts the
    /// broadcast its zero-delivery mid-broadcast crash is armed on was
    /// alive when it decided: it must leave the undecided count, or
    /// the run reports `Quiescent` with every live node decided.
    #[test]
    fn decide_then_crash_in_one_callback_is_counted_as_decided() {
        for shards in [1usize, 4] {
            let mut sim =
                SimBuilder::new(Topology::clique(3), |s| DecideAndSend { send: s.0 == 0 })
                    .scheduler(SynchronousScheduler::new(1))
                    .crashes(CrashPlan::new(vec![CrashSpec::MidBroadcast {
                        slot: Slot(0),
                        nth_broadcast: 0,
                        delivered: 0,
                    }]))
                    .shards(shards)
                    .trace(true)
                    .build();
            let report = sim.run();
            assert!(sim.is_crashed(Slot(0)), "S={shards}: planned crash skipped");
            assert!(report.decisions.iter().all(Option::is_some));
            assert!(sim.all_alive_decided(), "S={shards}: undecided leaked");
            assert_eq!(report.outcome, RunOutcome::AllDecided, "S={shards}");
            // Slot 0's own records keep the Broadcast, Crash, Decide
            // order the identity fixtures were recorded with.
            let kinds: Vec<&str> = sim
                .trace()
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Broadcast { slot: Slot(0), .. } => Some("broadcast"),
                    TraceEvent::Crash { slot: Slot(0), .. } => Some("crash"),
                    TraceEvent::Decide { slot: Slot(0), .. } => Some("decide"),
                    _ => None,
                })
                .collect();
            assert_eq!(kinds, ["broadcast", "crash", "decide"], "S={shards}");
        }
    }
}
