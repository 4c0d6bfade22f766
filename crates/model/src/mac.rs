//! The backend-agnostic abstract MAC layer interface.
//!
//! The paper defines one object — a MAC layer that (1) broadcasts to
//! all neighbors, (2) delivers each broadcast to every non-faulty
//! neighbor before acking the sender, (3) acks within `F_ack`, and
//! (4) lets a crash cut a broadcast off after an arbitrary prefix of
//! deliveries. This crate used to implement that object twice, with
//! subtly independent bookkeeping: once inside the discrete-event
//! engine and once inside the threaded runtime's ether. This module is
//! the single home for what they share:
//!
//! * [`MacLayer`] — the trait both execution backends implement. A
//!   backend takes a per-slot [`Process`] factory, runs the execution
//!   its own way (virtual time vs. real threads), and returns a
//!   [`MacReport`] in a common shape, so algorithms, conformance
//!   cross-checks, and experiment drivers are written once and run on
//!   either substrate.
//! * [`BcastLedger`] — the shared delivery/ack/crash state machine:
//!   which nodes are crashed, how many broadcasts each has issued,
//!   which broadcast a planned mid-broadcast crash interrupts and
//!   after how many deliveries, and which confirmations an in-flight
//!   broadcast still awaits before its sender may be acked. Both
//!   backends drive their delivery planes through this one ledger, so
//!   the partial-delivery crash semantics cannot drift apart again.
//!
//! The engine-backed implementation lives here as [`SimBackend`]; the
//! thread-backed implementation is `MacRuntime` in the `amacl-runtime`
//! crate.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::ids::Slot;
use crate::proc::{Process, Value};
use crate::sim::config::EngineConfig;
use crate::sim::engine::{RunReport, SimBuilder};
use crate::sim::sched::Scheduler;
use crate::sim::time::Time;
use crate::sim::trace::Trace;
use crate::topo::Topology;

/// One execution substrate for the abstract MAC layer.
///
/// Implementations construct one process per topology slot via `init`,
/// run the execution to completion (decision, quiescence, horizon, or
/// timeout — whatever the backend's stopping rule is), and report in
/// the backend-neutral [`MacReport`] shape.
///
/// The same [`Process`] implementation must behave identically under
/// every backend up to the nondeterminism the model grants the
/// scheduler; `amacl-checker`'s cross-check runs one algorithm through
/// two backends via this trait and diffs the reports.
pub trait MacLayer<P: Process> {
    /// Short stable name for reports and divergence messages.
    fn backend_name(&self) -> &'static str;

    /// Runs one execution with processes built by `init`.
    fn execute(&mut self, init: &mut dyn FnMut(Slot) -> P) -> MacReport;
}

/// Backend-neutral outcome of one MAC-layer execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MacReport {
    /// Which backend produced the report.
    pub backend: &'static str,
    /// Per-slot decided values (`None`: undecided or crashed).
    pub decisions: Vec<Option<Value>>,
    /// Whether every node expected to decide did so.
    pub all_decided: bool,
    /// Broadcasts accepted by the MAC layer.
    pub broadcasts: u64,
    /// Reliable deliveries performed.
    pub deliveries: u64,
}

impl MacReport {
    /// Builds a report from an engine [`RunReport`].
    pub fn from_run(report: &RunReport) -> Self {
        Self {
            backend: "sim",
            decisions: report
                .decisions
                .iter()
                .map(|d| d.map(|d| d.value))
                .collect(),
            all_decided: report.all_decided(),
            broadcasts: report.metrics.broadcasts,
            deliveries: report.metrics.deliveries,
        }
    }

    /// Distinct decided values, sorted.
    pub fn decided_values(&self) -> Vec<Value> {
        let mut v: Vec<Value> = self.decisions.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The common decided value, if at least one node decided and all
    /// deciders agree.
    pub fn agreement_value(&self) -> Option<Value> {
        match self.decided_values().as_slice() {
            [v] => Some(*v),
            _ => None,
        }
    }
}

/// How a broadcast is admitted by the [`BcastLedger`]: normally, or
/// interrupted by a planned mid-broadcast crash.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Admission {
    /// Deliver to every non-faulty neighbor, then ack.
    Deliver,
    /// The sender's planned crash interrupts this broadcast before any
    /// delivery: nobody receives, nobody acks.
    CrashImmediately,
    /// The sender's planned crash interrupts this broadcast after at
    /// most `delivered` neighbor deliveries; no ack is ever issued.
    ///
    /// The ledger arms a countdown; backends either report each
    /// delivery attempt via [`BcastLedger::note_delivery`]
    /// (virtual-time engine: the sender crashes the instant the
    /// countdown hits zero) or truncate the delivery set up front
    /// (threaded ether: the sender crashes at broadcast time,
    /// `delivered` messages already in flight). The unified contract
    /// both realize: **the sender always crashes**, and at most
    /// `delivered` neighbors receive — fewer when some of the allowed
    /// slots fall on receivers that are themselves dead (a delivery
    /// attempt on a dead receiver consumes its slot on both backends).
    /// *Which* subset of neighbors receives remains
    /// scheduler-dependent nondeterminism the model explicitly
    /// permits (the engine consumes slots in scheduled-delivery-time
    /// order, the ether in neighbor order), so crash-plan
    /// cross-checks must not demand identical decisions unless the
    /// algorithm's outcome is insensitive to the surviving subset.
    PartialThenCrash {
        /// Deliveries allowed before the sender dies.
        delivered: usize,
    },
}

/// One atomic scheduler step at the MAC-layer seam.
///
/// Both execution backends realize exactly three kinds of externally
/// visible transition — deliver an in-flight broadcast to one
/// neighbor, ack a completed broadcast back to its sender, crash a
/// node — with timing attached. The exhaustive explorer in
/// `amacl-checker` enumerates executions as *untimed* sequences of
/// these choices, driving the same [`BcastLedger`] the backends share.
///
/// The derived `Ord` is meaningful: it sorts deliveries (by sender,
/// then receiver) before acks before crashes, which fixes the
/// deterministic enumeration order of
/// [`BcastLedger::enabled_choices`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MacChoice {
    /// Deliver the in-flight broadcast of `from` to neighbor `to`.
    Deliver {
        /// Sender slot whose broadcast is in flight.
        from: usize,
        /// Receiver slot that has not yet confirmed.
        to: usize,
    },
    /// Ack the slot's broadcast (every confirmation is in).
    Ack(usize),
    /// Crash the slot (consumes one unit of the crash budget).
    Crash(usize),
}

impl MacChoice {
    /// The baseline independence (commutation) relation the explorer's
    /// partial-order reduction uses: two independent choices, both
    /// enabled, may be executed in either order with the same
    /// resulting state, and neither disables the other.
    ///
    /// The relation is deliberately *conservative* (dependence is
    /// over-approximated — extra dependence only costs re-exploration,
    /// never soundness):
    ///
    /// * two deliveries commute iff they target different receivers
    ///   (same receiver ⇒ the receiver's callback order differs);
    /// * a delivery and an ack commute iff the acked node is neither
    ///   the delivery's sender (the ack consumes that sender's
    ///   obligation) nor its receiver (two callbacks at one node);
    /// * two acks commute iff they ack different nodes;
    /// * a crash commutes with nothing (it gates enabledness of every
    ///   choice touching the dead node, and releases obligations at
    ///   arbitrary other nodes).
    pub fn independent(self, other: MacChoice) -> bool {
        use MacChoice::*;
        match (self, other) {
            (Crash(_), _) | (_, Crash(_)) => false,
            (Deliver { to: b, .. }, Deliver { to: d, .. }) => b != d,
            (Deliver { from: a, to: b }, Ack(u)) | (Ack(u), Deliver { from: a, to: b }) => {
                u != a && u != b
            }
            (Ack(u), Ack(v)) => u != v,
        }
    }
}

/// Sentinel for "no sender recorded" in the dense broadcast table.
const NO_SENDER: usize = usize::MAX;

/// The shared delivery/ack/crash bookkeeping of the abstract MAC
/// layer.
///
/// Deliberately free of any notion of time or transport: the engine
/// schedules deliveries on a virtual-time queue, the threaded ether
/// pushes them through channels with jitter, and both consult this
/// ledger for the *semantic* questions — is this node crashed, does a
/// planned crash interrupt this broadcast, which confirmations gate
/// this ack, which acks does a node's death release.
///
/// All state lives in dense `Vec`-indexed tables: per-slot tables for
/// crash flags, broadcast counts, armed watches, partial-delivery
/// countdowns, and ack obligations (the model allows at most one
/// outstanding broadcast per node, so one slot of each suffices), plus
/// a broadcast-id → sender table resolving the id-keyed queries. No
/// hashing, no tree walks on the per-delivery path, and every list the
/// ledger returns is deterministic across runs and platforms.
#[derive(Clone, Debug)]
pub struct BcastLedger {
    crashed: Vec<bool>,
    counts: Vec<u64>,
    /// Armed mid-broadcast crash plans, per slot: (nth broadcast,
    /// deliveries allowed).
    watches: Vec<Option<(u64, usize)>>,
    /// Live partial-delivery countdown, per *sender* slot: (broadcast
    /// id, deliveries remaining before the sender crashes).
    active: Vec<Option<(u64, usize)>>,
    /// Outstanding ack obligation, per *sender* slot: (broadcast id,
    /// confirmations still awaited before the sender may be acked).
    awaiting: Vec<Option<(u64, BTreeSet<usize>)>>,
    /// Broadcast id → sender slot ([`NO_SENDER`] when unrecorded).
    /// Both backends allocate broadcast ids sequentially from zero, so
    /// this stays dense. Deliberate trade-off: the table grows one
    /// `usize` per broadcast ever admitted and is never truncated —
    /// 8 bytes/broadcast buys O(1) sender resolution on every
    /// delivery/confirm, and even a 10M-broadcast soak costs only
    /// ~80 MB. Reclaim (reset completed ids to `NO_SENDER` and trim
    /// the tail) is possible if soak memory ever matters.
    senders: Vec<usize>,
    /// Live entries in `watches` — O(1) answer for the parallel
    /// stepper's per-window eligibility check ([`BcastLedger::parallel_step_safe`]).
    armed_watches: usize,
    /// Live entries in `active` — same purpose.
    active_countdowns: usize,
}

impl BcastLedger {
    /// A ledger for `n` nodes, with no crashes planned.
    pub fn new(n: usize) -> Self {
        Self {
            crashed: vec![false; n],
            counts: vec![0; n],
            watches: vec![None; n],
            active: vec![None; n],
            awaiting: vec![None; n],
            senders: Vec::new(),
            armed_watches: 0,
            active_countdowns: 0,
        }
    }

    /// Plans a mid-broadcast crash: `slot` dies during its
    /// `nth_broadcast` (0-indexed), after exactly `delivered` neighbor
    /// deliveries. At most one plan per slot; a later call replaces an
    /// earlier one.
    pub fn arm_watch(&mut self, slot: usize, nth_broadcast: u64, delivered: usize) {
        if self.watches[slot].is_none() {
            self.armed_watches += 1;
        }
        self.watches[slot] = Some((nth_broadcast, delivered));
    }

    /// Records `from` as the sender of broadcast `bcast` in the dense
    /// id table.
    fn record_sender(&mut self, bcast: u64, from: usize) {
        let idx = bcast as usize;
        if idx >= self.senders.len() {
            self.senders.resize(idx + 1, NO_SENDER);
        }
        self.senders[idx] = from;
    }

    /// The recorded sender of `bcast`, if any.
    fn sender_of(&self, bcast: u64) -> Option<usize> {
        match self.senders.get(bcast as usize) {
            Some(&s) if s != NO_SENDER => Some(s),
            _ => None,
        }
    }

    /// Whether `slot` has crashed.
    pub fn is_crashed(&self, slot: usize) -> bool {
        self.crashed[slot]
    }

    /// Marks `slot` crashed. Returns `false` if it already was (the
    /// caller should then skip its crash side effects).
    pub fn mark_crashed(&mut self, slot: usize) -> bool {
        if self.crashed[slot] {
            false
        } else {
            self.crashed[slot] = true;
            true
        }
    }

    /// Broadcasts `slot` has issued so far.
    pub fn broadcast_count(&self, slot: usize) -> u64 {
        self.counts[slot]
    }

    /// Admits broadcast `bcast` from `from`: counts it against the
    /// sender's sequence and resolves any armed mid-broadcast crash
    /// plan into an [`Admission`].
    pub fn admit_broadcast(&mut self, from: usize, bcast: u64) -> Admission {
        self.record_sender(bcast, from);
        let nth = self.counts[from];
        self.counts[from] += 1;
        match self.watches[from] {
            Some((watch_nth, delivered)) if watch_nth == nth => {
                self.watches[from] = None;
                self.armed_watches -= 1;
                if delivered == 0 {
                    Admission::CrashImmediately
                } else {
                    if self.active[from].is_none() {
                        self.active_countdowns += 1;
                    }
                    self.active[from] = Some((bcast, delivered));
                    Admission::PartialThenCrash { delivered }
                }
            }
            _ => Admission::Deliver,
        }
    }

    /// Records one delivery of `bcast`. Returns `true` when this was
    /// the last delivery a [`Admission::PartialThenCrash`] countdown
    /// allows — the sender must crash now. Broadcasts without a
    /// countdown always return `false`.
    pub fn note_delivery(&mut self, bcast: u64) -> bool {
        // The engine commits every delivery through here; with no
        // countdown live there is nothing to look up.
        if self.active_countdowns == 0 {
            return false;
        }
        let Some(sender) = self.sender_of(bcast) else {
            return false;
        };
        if let Some((b, rem)) = &mut self.active[sender] {
            if *b == bcast {
                *rem -= 1;
                if *rem == 0 {
                    self.active[sender] = None;
                    self.active_countdowns -= 1;
                    return true;
                }
            }
        }
        false
    }

    /// Whether a conservative time window may be stepped with one
    /// worker thread per shard *without* any cross-shard ledger
    /// access: `true` iff no mid-broadcast crash watch is still armed
    /// and no partial-delivery countdown is live.
    ///
    /// This is the ledger half of the parallel stepper's per-window
    /// eligibility check (O(1) — backed by counters maintained at the
    /// arm/admit/fire sites). The two tables it guards are the only
    /// ledger state a *delivery* can mutate across shard boundaries
    /// ([`BcastLedger::note_delivery`] ticks the **sender's** countdown
    /// from the **receiver's** step); when both are empty,
    /// `note_delivery` is a pure no-op for every broadcast in flight,
    /// and each worker can step its shard against nothing but its own
    /// cells: the engine mirrors the crash flags per shard, and every
    /// cross-shard effect is the single-threaded commit's. A crashed
    /// sender's stale watch keeps a run serial forever — conservative,
    /// and correct.
    pub fn parallel_step_safe(&self) -> bool {
        self.armed_watches == 0 && self.active_countdowns == 0
    }

    /// Registers the ack obligation for `bcast`: `sender` may be acked
    /// once every slot in `awaiting` has confirmed. Returns `true`
    /// when the obligation is already complete (no awaited slots) and
    /// the sender should be acked immediately.
    pub fn register_ack_obligation(
        &mut self,
        bcast: u64,
        sender: usize,
        awaiting: BTreeSet<usize>,
    ) -> bool {
        if awaiting.is_empty() {
            true
        } else {
            self.record_sender(bcast, sender);
            self.awaiting[sender] = Some((bcast, awaiting));
            false
        }
    }

    /// Records that `by` confirmed `bcast` (it received and processed
    /// the message, or died and is excused). Returns the sender to ack
    /// when this was the final awaited confirmation; the ack must be
    /// suppressed if the sender is itself crashed by then, which the
    /// ledger checks for the caller.
    pub fn confirm(&mut self, bcast: u64, by: usize) -> Option<usize> {
        let sender = self.sender_of(bcast)?;
        let (b, awaiting) = self.awaiting[sender].as_mut()?;
        if *b != bcast {
            return None;
        }
        awaiting.remove(&by);
        if awaiting.is_empty() {
            self.awaiting[sender] = None;
            if self.crashed[sender] {
                None
            } else {
                Some(sender)
            }
        } else {
            None
        }
    }

    /// The ack obligation outstanding for `slot`'s in-flight
    /// broadcast: the broadcast id and the (ordered) set of neighbors
    /// that have not yet confirmed. `None` when no obligation is
    /// pending — either nothing is in flight, or every confirmation is
    /// in and the ack may fire.
    pub fn awaiting_confirmations(&self, slot: usize) -> Option<(u64, &BTreeSet<usize>)> {
        self.awaiting[slot].as_ref().map(|(b, set)| (*b, set))
    }

    /// Enumerates every scheduler choice the ledger state enables, in
    /// the deterministic [`MacChoice`] order: deliveries (by sender,
    /// then receiver), then acks, then crashes.
    ///
    /// `outstanding[s]` tells the ledger whether slot `s` has a
    /// broadcast in flight (the ledger itself forgets a broadcast the
    /// moment its obligation resolves — the *ack event* is the
    /// caller's to schedule); `crash_budget` is how many further
    /// crashes the adversary may inject. Concretely:
    ///
    /// * `Deliver { from, to }` for every live sender with a pending
    ///   obligation and every live, unconfirmed receiver `to` — a
    ///   crashed sender's remaining deliveries are cancelled, exactly
    ///   as both backends cancel them;
    /// * `Ack(s)` for every live `s` with a broadcast outstanding and
    ///   no pending obligation (all confirmations in);
    /// * `Crash(s)` for every live `s`, if budget remains.
    ///
    /// # Panics
    ///
    /// Panics if `outstanding.len()` differs from the node count.
    pub fn enabled_choices(&self, outstanding: &[bool], crash_budget: usize) -> Vec<MacChoice> {
        assert_eq!(outstanding.len(), self.crashed.len(), "one flag per slot");
        let mut out = Vec::new();
        for from in 0..self.crashed.len() {
            if self.crashed[from] {
                continue;
            }
            if let Some((_, awaiting)) = &self.awaiting[from] {
                for &to in awaiting {
                    if !self.crashed[to] {
                        out.push(MacChoice::Deliver { from, to });
                    }
                }
            }
        }
        for (slot, &in_flight) in outstanding.iter().enumerate() {
            if in_flight && !self.crashed[slot] && self.awaiting[slot].is_none() {
                out.push(MacChoice::Ack(slot));
            }
        }
        if crash_budget > 0 {
            for slot in 0..self.crashed.len() {
                if !self.crashed[slot] {
                    out.push(MacChoice::Crash(slot));
                }
            }
        }
        out
    }

    /// A 64-bit fingerprint of everything that determines the
    /// ledger's future answers: crash flags and, per sender slot, the
    /// awaited confirmations, the live countdown's remaining
    /// deliveries, and any armed watch (with the broadcast count it is
    /// relative to).
    ///
    /// Broadcast ids are names, not state — two interleavings that
    /// reach the same obligations under different id assignments hash
    /// alike — so the id-keyed halves of the tables, the id → sender
    /// table, and the broadcast counts of slots with no watch armed
    /// are left out. Every hashed container is a `Vec` or `BTreeSet`
    /// and `DefaultHasher` uses fixed keys, so the value is a pure
    /// function of ledger state, stable across runs of the same build.
    /// [`MacMachine`](crate::machine::MacMachine) combines it with a
    /// process-state hash to deduplicate converging interleavings.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.crashed.hash(&mut h);
        for slot in 0..self.crashed.len() {
            self.watches[slot]
                .map(|watch| (watch, self.counts[slot]))
                .hash(&mut h);
            self.active[slot]
                .map(|(_, remaining)| remaining)
                .hash(&mut h);
            self.awaiting[slot]
                .as_ref()
                .map(|(_, set)| set)
                .hash(&mut h);
        }
        h.finish()
    }

    /// Releases every obligation awaiting the dead node `dead` (acks
    /// never wait on crashed neighbors). Returns the `(broadcast,
    /// sender)` pairs whose acks this completes, in deterministic
    /// (broadcast id) order.
    pub fn release_obligations_of(&mut self, dead: usize) -> Vec<(u64, usize)> {
        let mut completed: Vec<(u64, usize)> = Vec::new();
        for (sender, slot_ob) in self.awaiting.iter_mut().enumerate() {
            if let Some((bcast, awaiting)) = slot_ob {
                awaiting.remove(&dead);
                if awaiting.is_empty() {
                    completed.push((*bcast, sender));
                    *slot_ob = None;
                }
            }
        }
        completed.sort_unstable();
        completed.retain(|&(_, sender)| !self.crashed[sender]);
        completed
    }
}

/// Produces a fresh boxed [`Scheduler`] for each execution.
///
/// Schedulers are stateful (per-broadcast counters, RNG streams), so a
/// backend that runs many executions needs a *factory*, not an
/// instance: every [`MacLayer::execute`] call starts from a pristine
/// adversary. The factory is `Send + Sync` behind an [`Arc`] so one
/// backend description can fan out across the parallel multi-seed
/// driver.
pub type SchedulerFactory = Arc<dyn Fn() -> Box<dyn Scheduler> + Send + Sync>;

/// The discrete-event engine packaged as a [`MacLayer`] backend.
///
/// Owns everything needed to build a fresh [`SimBuilder`] per
/// [`execute`](MacLayer::execute) call — including an arbitrary
/// [`SchedulerFactory`] (any adversary: partitions, scripted
/// worst cases, dual bounds, ...) and an [`EngineConfig`] with its
/// [`CrashPlan`](crate::sim::crash::CrashPlan) — so one
/// `SimBackend` can run many algorithms (or the same algorithm
/// repeatedly) with identical settings — exactly what the conformance
/// cross-check and adversarial scenario sweeps need.
#[derive(Clone)]
pub struct SimBackend {
    topo: Topology,
    sched: SchedulerFactory,
    sched_label: String,
    cfg: EngineConfig,
    max_time: Time,
}

impl fmt::Debug for SimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimBackend")
            .field("topo", &self.topo)
            .field("sched", &self.sched_label)
            .field("crashes", &self.cfg.crash_plan)
            .field("seed", &self.cfg.seed)
            .field("max_time", &self.max_time)
            .field("queue", &self.cfg.queue_core)
            .field("shards", &self.cfg.shards.get())
            .field("threads", &self.cfg.threads.get())
            .finish()
    }
}

impl SimBackend {
    /// A backend over `topo` driven by an arbitrary scheduler factory.
    /// `label` names the adversary in `Debug` output and reports.
    /// Engine knobs start from [`EngineConfig::default`].
    pub fn with_factory(
        topo: Topology,
        label: impl Into<String>,
        factory: SchedulerFactory,
    ) -> Self {
        Self {
            topo,
            sched: factory,
            sched_label: label.into(),
            cfg: EngineConfig::default(),
            max_time: Time(10_000_000),
        }
    }

    /// Sets every engine knob — seed, queue core, shards, threads,
    /// crash plan — in one call.
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the virtual-time horizon.
    pub fn max_time(mut self, t: Time) -> Self {
        self.max_time = t;
        self
    }

    /// The topology this backend runs over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The adversary label (for reports).
    pub fn sched_label(&self) -> &str {
        &self.sched_label
    }

    /// Runs one execution and also returns the full engine report
    /// (metrics, decision times) alongside the portable [`MacReport`].
    pub fn execute_full<P: Process>(
        &mut self,
        init: &mut dyn FnMut(Slot) -> P,
    ) -> (MacReport, RunReport) {
        let mut sim = self.build_sim(init, false);
        let report = sim.run();
        (MacReport::from_run(&report), report)
    }

    /// Runs one execution with event tracing enabled and returns the
    /// recorded [`Trace`] alongside the reports — the byte-identity
    /// witness the sharded-engine conformance checks compare.
    pub fn execute_traced<P: Process>(
        &mut self,
        init: &mut dyn FnMut(Slot) -> P,
    ) -> (MacReport, RunReport, Trace) {
        let mut sim = self.build_sim(init, true);
        let report = sim.run();
        (MacReport::from_run(&report), report, sim.trace().clone())
    }

    fn build_sim<P: Process>(
        &mut self,
        init: &mut dyn FnMut(Slot) -> P,
        trace: bool,
    ) -> crate::sim::engine::Sim<P> {
        SimBuilder::new(self.topo.clone(), init)
            .config(self.cfg.clone())
            .max_time(self.max_time)
            .scheduler((self.sched)())
            .trace(trace)
            .build()
    }
}

impl<P: Process> MacLayer<P> for SimBackend {
    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn execute(&mut self, init: &mut dyn FnMut(Slot) -> P) -> MacReport {
        self.execute_full(init).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Payload;
    use crate::proc::Context;
    use crate::sim::sched::sync::SynchronousScheduler;

    #[test]
    fn ledger_admits_and_counts() {
        let mut ledger = BcastLedger::new(3);
        assert_eq!(ledger.admit_broadcast(0, 0), Admission::Deliver);
        assert_eq!(ledger.admit_broadcast(0, 1), Admission::Deliver);
        assert_eq!(ledger.broadcast_count(0), 2);
        assert_eq!(ledger.broadcast_count(1), 0);
    }

    #[test]
    fn ledger_watch_interrupts_the_right_broadcast() {
        let mut ledger = BcastLedger::new(2);
        ledger.arm_watch(0, 1, 2);
        assert_eq!(ledger.admit_broadcast(0, 0), Admission::Deliver);
        assert_eq!(
            ledger.admit_broadcast(0, 1),
            Admission::PartialThenCrash { delivered: 2 }
        );
        // The countdown fires on the second delivery.
        assert!(!ledger.note_delivery(1));
        assert!(ledger.note_delivery(1));
        // Later broadcasts (were the sender alive) admit normally.
        assert_eq!(ledger.admit_broadcast(0, 2), Admission::Deliver);
    }

    #[test]
    fn ledger_zero_delivery_watch_crashes_immediately() {
        let mut ledger = BcastLedger::new(1);
        ledger.arm_watch(0, 0, 0);
        assert_eq!(ledger.admit_broadcast(0, 0), Admission::CrashImmediately);
    }

    #[test]
    fn ledger_ack_obligation_lifecycle() {
        let mut ledger = BcastLedger::new(4);
        let awaiting: BTreeSet<usize> = [1, 2, 3].into();
        assert!(!ledger.register_ack_obligation(0, 0, awaiting));
        assert_eq!(ledger.confirm(0, 1), None);
        assert_eq!(ledger.confirm(0, 2), None);
        assert_eq!(ledger.confirm(0, 3), Some(0));
        // Completed obligations are gone.
        assert_eq!(ledger.confirm(0, 3), None);
        // Empty obligations complete immediately.
        assert!(ledger.register_ack_obligation(1, 2, BTreeSet::new()));
    }

    #[test]
    fn ledger_death_releases_obligations_in_order() {
        let mut ledger = BcastLedger::new(4);
        ledger.register_ack_obligation(7, 1, [3].into());
        ledger.register_ack_obligation(2, 0, [3].into());
        ledger.register_ack_obligation(5, 2, [0, 3].into());
        ledger.mark_crashed(3);
        let released = ledger.release_obligations_of(3);
        // Broadcasts 2 and 7 complete (deterministic id order); 5 still
        // awaits node 0.
        assert_eq!(released, vec![(2, 0), (7, 1)]);
        assert_eq!(ledger.confirm(5, 0), Some(2));
    }

    #[test]
    fn ledger_suppresses_acks_to_crashed_senders() {
        let mut ledger = BcastLedger::new(3);
        ledger.register_ack_obligation(0, 0, [1, 2].into());
        ledger.confirm(0, 1);
        ledger.mark_crashed(0);
        assert_eq!(ledger.confirm(0, 2), None);
    }

    #[test]
    fn enabled_choices_enumerate_in_deterministic_order() {
        let mut ledger = BcastLedger::new(3);
        // Slot 0 broadcasts to {1, 2}; slot 2 broadcasts to {0} and is
        // fully confirmed (ack pending).
        assert_eq!(ledger.admit_broadcast(0, 0), Admission::Deliver);
        ledger.register_ack_obligation(0, 0, [1, 2].into());
        assert_eq!(ledger.admit_broadcast(2, 1), Admission::Deliver);
        ledger.register_ack_obligation(1, 2, [0].into());
        assert_eq!(ledger.confirm(1, 0), Some(2));
        let outstanding = [true, false, true];
        assert_eq!(
            ledger.enabled_choices(&outstanding, 1),
            vec![
                MacChoice::Deliver { from: 0, to: 1 },
                MacChoice::Deliver { from: 0, to: 2 },
                MacChoice::Ack(2),
                MacChoice::Crash(0),
                MacChoice::Crash(1),
                MacChoice::Crash(2),
            ]
        );
        // Budget exhausted: no crash choices.
        assert_eq!(ledger.enabled_choices(&outstanding, 0).len(), 3);
        // A crashed sender's remaining deliveries are cancelled, and
        // crashed receivers drop out of delivery sets.
        ledger.mark_crashed(0);
        assert_eq!(
            ledger.enabled_choices(&outstanding, 0),
            vec![MacChoice::Ack(2)]
        );
    }

    #[test]
    fn choice_independence_is_symmetric_and_conservative() {
        use MacChoice::*;
        let d01 = Deliver { from: 0, to: 1 };
        let d10 = Deliver { from: 1, to: 0 };
        let d21 = Deliver { from: 2, to: 1 };
        // Different receivers commute; same receiver does not.
        assert!(d01.independent(d10));
        assert!(!d01.independent(d21));
        // Acks commute with deliveries not touching the acked node.
        assert!(Ack(2).independent(d01));
        assert!(
            !Ack(0).independent(d01),
            "ack consumes sender 0's obligation"
        );
        assert!(!Ack(1).independent(d01), "two callbacks at node 1");
        assert!(Ack(0).independent(Ack(1)));
        // Nothing commutes with a crash, or with itself.
        for c in [d01, d10, Ack(0), Crash(2)] {
            assert!(!c.independent(Crash(0)));
            assert!(!Crash(0).independent(c));
            assert!(!c.independent(c));
        }
        // Symmetry over a small universe.
        let all = [d01, d10, d21, Ack(0), Ack(1), Crash(1)];
        for a in all {
            for b in all {
                assert_eq!(a.independent(b), b.independent(a), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn ledger_fingerprint_tracks_state() {
        let mut a = BcastLedger::new(3);
        let mut b = BcastLedger::new(3);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Broadcast ids are names: the same obligation under different
        // ids (and different id histories) hashes alike.
        a.admit_broadcast(0, 0);
        b.admit_broadcast(1, 0);
        b.admit_broadcast(0, 7);
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.register_ack_obligation(0, 0, [1, 2].into());
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.register_ack_obligation(7, 0, [1, 2].into());
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Confirmations in a different interleaving converge to the
        // same fingerprint once the same set has confirmed.
        a.confirm(0, 1);
        b.confirm(7, 2);
        assert_ne!(a.fingerprint(), b.fingerprint());
        a.confirm(0, 2);
        b.confirm(7, 1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let snap = a.fingerprint();
        assert_eq!(a.clone().fingerprint(), snap, "clone preserves state");
        // Crashes and armed watches are state.
        a.mark_crashed(2);
        assert_ne!(a.fingerprint(), snap);
        b.arm_watch(1, 3, 1);
        assert_ne!(b.fingerprint(), snap);
    }

    #[test]
    fn awaiting_confirmations_reports_the_obligation() {
        let mut ledger = BcastLedger::new(3);
        assert_eq!(ledger.awaiting_confirmations(0), None);
        ledger.register_ack_obligation(7, 0, [1, 2].into());
        let (bcast, set) = ledger.awaiting_confirmations(0).unwrap();
        assert_eq!(bcast, 7);
        assert_eq!(set.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
        ledger.confirm(7, 1);
        ledger.confirm(7, 2);
        assert_eq!(ledger.awaiting_confirmations(0), None);
    }

    /// Minimal process: broadcast once, decide own value on ack.
    #[derive(Clone, Debug)]
    struct Once(Value);
    #[derive(Clone, Copy, Debug)]
    struct Ping;
    impl Payload for Ping {
        fn id_count(&self) -> usize {
            0
        }
    }
    impl Process for Once {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.broadcast(Ping);
        }
        fn on_receive(&mut self, _m: Ping, _ctx: &mut Context<'_, Ping>) {}
        fn on_ack(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.decide(self.0);
        }
    }

    /// A backend over `topo` under the seeded random adversary.
    fn random_backend(topo: Topology, f_ack: u64, seed: u64) -> SimBackend {
        use crate::sim::sched::random::RandomScheduler;
        SimBackend::with_factory(
            topo,
            "random",
            Arc::new(move || Box::new(RandomScheduler::new(f_ack, seed))),
        )
    }

    #[test]
    fn sim_backend_runs_through_the_trait() {
        let mut backend = random_backend(Topology::clique(4), 3, 5);
        let layer: &mut dyn MacLayer<Once> = &mut backend;
        assert_eq!(layer.backend_name(), "sim");
        let report = layer.execute(&mut |s| Once(s.index() as Value));
        assert!(report.all_decided);
        assert_eq!(report.broadcasts, 4);
        assert_eq!(report.decisions.len(), 4);
        for (i, d) in report.decisions.iter().enumerate() {
            assert_eq!(*d, Some(i as Value));
        }
        assert_eq!(report.agreement_value(), None);
    }

    #[test]
    fn sim_backend_takes_arbitrary_scheduler_factories() {
        use crate::sim::sched::partition::{DirectedCut, EdgeDelayScheduler};

        // A partition healing at t=40: node 0's broadcasts to node 1
        // are withheld until then, so node 1's decision (on ack of its
        // own broadcast) is unaffected but node 0's ack — which waits
        // for the stalled delivery — lands at the release.
        let factory: SchedulerFactory = Arc::new(|| {
            Box::new(EdgeDelayScheduler::new(
                SynchronousScheduler::new(1),
                vec![DirectedCut::new([Slot(0)], [Slot(1)], Time(40))],
            ))
        });
        let mut backend = SimBackend::with_factory(Topology::clique(2), "partition", factory);
        assert_eq!(backend.sched_label(), "partition");
        let (report, full) = backend.execute_full(&mut |s| Once(s.index() as Value));
        assert!(report.all_decided);
        // Node 0's ack stalls with the cut; node 1 acks in one tick.
        assert_eq!(full.decisions[0].unwrap().time, Time(40));
        assert_eq!(full.decisions[1].unwrap().time, Time(1));
        // The factory hands out a *fresh* adversary per execution:
        // the second run is bit-identical, not time-shifted.
        let (again, _) = backend.execute_full(&mut |s| Once(s.index() as Value));
        assert_eq!(report, again);
    }

    #[test]
    fn sim_backend_carries_a_crash_plan() {
        use crate::sim::crash::{CrashPlan, CrashSpec};

        let sync: SchedulerFactory = Arc::new(|| Box::new(SynchronousScheduler::new(2)));
        let mut backend = SimBackend::with_factory(Topology::clique(4), "sync", sync).config(
            EngineConfig::new().crash_plan(CrashPlan::new(vec![CrashSpec::AtTime {
                slot: Slot(0),
                time: Time(1),
            }])),
        );
        let report = MacLayer::<Once>::execute(&mut backend, &mut |s| Once(s.index() as Value));
        // Node 0 dies before its ack (acks take 2 ticks): undecided.
        assert!(report.all_decided, "survivors decide");
        assert_eq!(report.decisions[0], None);
        for i in 1..4 {
            assert_eq!(report.decisions[i], Some(i as Value));
        }
        // The plan applies to every execution of the backend.
        let again = MacLayer::<Once>::execute(&mut backend, &mut |s| Once(s.index() as Value));
        assert_eq!(report, again);
    }

    #[test]
    fn sim_backend_is_reusable_and_deterministic() {
        let mut backend = random_backend(Topology::random_connected(8, 0.3, 1), 4, 9)
            .config(EngineConfig::new().seed(9));
        let a = MacLayer::<Once>::execute(&mut backend, &mut |s| Once(s.index() as Value));
        let b = MacLayer::<Once>::execute(&mut backend, &mut |s| Once(s.index() as Value));
        assert_eq!(a, b);
    }
}
