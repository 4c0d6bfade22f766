//! The four workloads. A workload is a campaign of *passes*; a pass is
//! one independent unit of work — one consensus simulation for the
//! closed-loop workloads, one whole rate sweep for the open-loop one —
//! whose inputs are a pure function of the pass seed. The engine only
//! ever receives generated topologies, inputs and request schedules.

use std::sync::Arc;

use amacl_checker::workload::{
    ArrivalKind, CompletedRequest, LoadMsg, LoadScenario, OpenLoopNode, WorkloadSpec,
};
use amacl_core::harness::alternating_inputs;
use amacl_core::two_phase::TwoPhase;
use amacl_core::verify::check_consensus;
use amacl_core::wpaxos::{WpaxosConfig, WpaxosNode};
use amacl_model::prelude::*;
use amacl_model::sim::trace::Metrics;

use crate::probe::{CountingAlloc, Probed, ProcTimers, SchedStats, Spans, Timed, TimedSched};
use crate::stats::{nearest_rank, splitmix64};

/// Which campaign.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// wPAXOS on a sparse random multihop graph, serial engine.
    Wpaxos,
    /// The same simulations through the sharded engine and its pool.
    WpaxosSharded,
    /// Two-Phase Consensus on a clique.
    TwoPhaseClique,
    /// Open-loop request serving on a 4-clique, with a fault run.
    OpenLoop,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Wpaxos,
        Workload::WpaxosSharded,
        Workload::TwoPhaseClique,
        Workload::OpenLoop,
    ];

    /// The name used in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Wpaxos => "wpaxos-n512",
            Workload::WpaxosSharded => "wpaxos-n512-sharded",
            Workload::TwoPhaseClique => "twophase-clique-n512",
            Workload::OpenLoop => "openloop-clique4",
        }
    }

    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Wpaxos => {
                "paper's multihop algorithm, serial: queue, arena, scheduler and wpaxos handlers all work; shard layer idle"
            }
            Workload::WpaxosSharded => {
                "same simulations via shards(4) and the worker pool: any difference is the window coordinator, mailboxes and pool"
            }
            Workload::TwoPhaseClique => {
                "paper's single-hop algorithm: fan-out 511, queue depth 260k in bursts, topology build visible in setup_s"
            }
            Workload::OpenLoop => {
                "open loop, Poisson arrivals at six fixed rates plus a follower crash: depth<=8, per-resume run_until/inject cost, latency SLO"
            }
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(shards, requested threads)`.
    pub fn sharding(self) -> (usize, usize) {
        match self {
            Workload::WpaxosSharded => (SHARDS, SHARDS),
            _ => (1, 1),
        }
    }

    /// Workers that actually run windows in parallel on this host:
    /// `min(threads, shards, host cores)` — the clamp
    /// `Sim::run_inner` applies.
    pub fn effective_workers(self) -> usize {
        let (shards, threads) = self.sharding();
        threads.min(shards).min(host_cores()).max(1)
    }

    /// The scheduler's `F_ack`: the delay range `[1, F_ack]` the queue
    /// replay draws from.
    pub fn f_ack(self) -> u64 {
        match self {
            Workload::Wpaxos | Workload::WpaxosSharded => WPAXOS_F_ACK,
            Workload::TwoPhaseClique => TWOPHASE_F_ACK,
            Workload::OpenLoop => OPEN_F_ACK,
        }
    }
}

/// Cores the host lets this process use.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Shards (and requested threads) of the sharded workload.
pub const SHARDS: usize = 4;
const WPAXOS_EDGE_P: f64 = 0.02;
const WPAXOS_F_ACK: u64 = 4;
const TWOPHASE_F_ACK: u64 = 8;
const OPEN_F_ACK: u64 = 8;
/// Fixed open-loop arrival rates, requests per kilotick. Capacity is
/// about 10: the knee sits between 8 and 10.
pub const OPEN_RATES: [u64; 6] = [2, 4, 6, 7, 8, 10];
/// The rate whose latencies are the workload's `decide_ticks_*`, and
/// the rate of the crash run.
pub const OPEN_SLO_RATE: u64 = 6;
/// Rates up to this one must finish every request before the horizon.
pub const OPEN_MUST_FINISH_RATE: u64 = 7;
/// The latency limit on p99 that defines `workload.slo_max_rate`.
pub const OPEN_SLO_P99_TICKS: u64 = 1500;
const OPEN_DRAIN_TICKS: u64 = 20_000;
const OPEN_GROUP: usize = 4;
const OPEN_BITS: u32 = 8;

/// Problem sizes. `n` is never scaled to fit a time budget; only the
/// number of passes is.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Nodes of the closed-loop workloads.
    pub n: usize,
    /// Arrival window of each open-loop run, in virtual ticks.
    pub open_ticks: u64,
}

/// The measured sizes.
pub const FULL: Sizes = Sizes {
    n: 512,
    open_ticks: 1_000_000,
};
/// Warm-up and `--check` sizes.
pub const TINY: Sizes = Sizes {
    n: 64,
    open_ticks: 100_000,
};

/// How a pass is instrumented.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// The engine's own types, nothing in between: end-to-end runs.
    Plain,
    /// `Timed` processes, `TimedSched`, per-request spans.
    Probed,
    /// Plain, with the engine's own event trace on
    /// (`SimBuilder::trace(true)`).
    EngineTrace,
    /// Plain, stopping once everything is built: the campaign repeats
    /// this and reports the median as `setup_s`, steadier than one
    /// sample per pass.
    SetupOnly,
}

/// Where one pass records: the campaign's recorder, how the pass is
/// instrumented, its index, and the `pass` span everything hangs under.
struct Scope<'a> {
    rec: &'a mut Recorder,
    mode: Mode,
    run: u32,
    root: usize,
}

impl Scope<'_> {
    /// Opens a span under `parent` (the pass span when `None`).
    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        self.rec
            .spans
            .begin(name, Some(parent.unwrap_or(self.root)), self.run)
    }

    /// Closes a span; returns its length in seconds.
    fn finish(&mut self, span: usize) -> f64 {
        self.rec.spans.finish(span)
    }

    /// Builds the engine with the workload's scheduler, wrapped in a
    /// [`TimedSched`] when probed.
    fn build<P: Process>(&self, builder: SimBuilder<P>, sched: RandomScheduler) -> Sim<P> {
        let builder = builder.trace(self.mode == Mode::EngineTrace);
        if self.mode == Mode::Probed {
            builder
                .scheduler(TimedSched::new(sched, self.rec.sched.clone()))
                .build()
        } else {
            builder.scheduler(sched).build()
        }
    }
}

/// What instrumentation accumulates over a campaign.
#[derive(Default)]
pub struct Recorder {
    /// Layer-boundary spans (pass-level spans in every mode: they are
    /// the stopwatch; per-request spans only when probed).
    pub spans: Spans,
    /// `Scheduler::plan` timer, shared with every `TimedSched`.
    pub sched: Arc<SchedStats>,
    /// Handler timers summed over every process of every probed pass.
    pub procs: ProcTimers,
    /// The arena replay, bound to a message the workload really sent.
    pub arena_replay: Option<Box<dyn Fn(u32) -> f64>>,
    /// Engine counters summed over every simulation recorded here.
    pub counters: Counters,
}

/// The engine counters the benchmark reports, summed over simulations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    pub events: u64,
    pub end_ticks: u64,
    pub broadcasts: u64,
    pub busy_discards: u64,
    pub deliveries: u64,
    pub acks: u64,
    pub crashes: u64,
    pub queue_pushes: u64,
    pub queue_cancellations: u64,
    pub queue_bucket_overflows: u64,
    pub cross_shard_deliveries: u64,
    pub window_advances: u64,
    pub mailbox_flushes: u64,
    pub worker_wakeups: u64,
    pub supersteps: u64,
    pub serial_shortcuts: u64,
    pub worker_spawns: u64,
    pub payload_clones: u64,
    pub payload_moves: u64,
    /// Maximum, not sum: a high-water mark.
    pub arena_bytes_peak: u64,
    pub shard_busy_ns: u64,
    pub shard_barrier_wait_ns: u64,
    pub per_shard_events: Vec<u64>,
}

impl Counters {
    /// Folds one simulation's public `Metrics` in.
    pub fn add_metrics(&mut self, m: &Metrics, end: Time) {
        self.events += m.events;
        self.end_ticks += end.ticks();
        self.broadcasts += m.broadcasts;
        self.busy_discards += m.busy_discards;
        self.deliveries += m.deliveries;
        self.acks += m.acks;
        self.crashes += m.crashes;
        self.queue_pushes += m.queue_pushes;
        self.queue_cancellations += m.queue_cancellations;
        self.queue_bucket_overflows += m.queue_bucket_overflows;
        self.cross_shard_deliveries += m.cross_shard_deliveries;
        self.window_advances += m.shard_window_advances;
        self.mailbox_flushes += m.shard_mailbox_flushes;
        self.worker_wakeups += m.worker_wakeups;
        self.supersteps += m.superstep_count;
        self.serial_shortcuts += m.serial_window_shortcuts;
        self.worker_spawns += m.worker_spawns;
        self.payload_clones += m.payload_clones;
        self.payload_moves += m.payload_moves;
        self.arena_bytes_peak = self.arena_bytes_peak.max(m.arena_bytes_peak);
        self.shard_busy_ns += m.shard_busy_ns.iter().sum::<u64>();
        self.shard_barrier_wait_ns += m.shard_barrier_wait_ns.iter().sum::<u64>();
        if self.per_shard_events.len() < m.per_shard_events.len() {
            self.per_shard_events.resize(m.per_shard_events.len(), 0);
        }
        for (acc, e) in self.per_shard_events.iter_mut().zip(&m.per_shard_events) {
            *acc += e;
        }
    }
}

/// Everything one pass produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pass {
    /// Input generation + topology build + `SimBuilder::build`
    /// (+ request schedule and horizon for open loop), seconds.
    pub setup_s: f64,
    /// `Sim::run`, or the whole `run_until`/`inject` loop, seconds.
    pub run_s: f64,
    /// Output verification, seconds.
    pub verify_s: f64,
    /// Edges of the topologies built.
    pub topo_edges: u64,
    /// `Metrics::events`, summed over the pass's simulations.
    pub events: u64,
    /// Consensus instances decided (closed loop: 1 per simulation that
    /// passed `check_consensus`; open loop: requests decided).
    pub decided: u64,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// First failure, for the log.
    pub failure: Option<String>,
    /// Fold of `events`, end time, every node's decision and the
    /// deterministic `Metrics` fields (and, open loop, every completed
    /// request): equal digests mean equal executions.
    pub digest: u64,
    /// Decision ticks of every node (closed loop), or submit→decide
    /// latency of every request of the fault-free SLO-rate run.
    pub decide_ticks: Vec<u64>,
    /// Open loop: requests submitted over all runs.
    pub requests: u64,
    /// Open loop: highest fixed rate meeting the latency limit with
    /// nothing unfinished at the horizon.
    pub slo_max_rate: u64,
    /// Open loop: p99 latency of each fault-free run, in
    /// [`OPEN_RATES`] order.
    pub rate_p99_ticks: Vec<u64>,
    /// Open loop: p99 latency of the crash run.
    pub crash_p99_ticks: u64,
    /// Open loop, probed: proposer backlog high-water, sampled at each
    /// inject.
    pub pending_peak: u64,
    /// Open loop: the fault-free SLO-rate run's completed list, kept
    /// for the comparison against `checker::workload::run_load`.
    pub slo_completed: Vec<CompletedRequest>,
    /// Engine trace records (only with [`Mode::EngineTrace`]).
    pub trace_records: u64,
    /// Heap allocations during `engine.run` (counted only while the
    /// campaign has the counting allocator on).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl Pass {
    /// Setup + run + verification.
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.run_s + self.verify_s
    }

    /// Charges the allocations since `before` to this pass.
    fn count_allocs(&mut self, before: (u64, u64)) {
        let after = CountingAlloc::snapshot();
        self.allocs += after.0 - before.0;
        self.alloc_bytes += after.1 - before.1;
    }

    fn fail(&mut self, count: u64, why: impl FnOnce() -> String) {
        if count > 0 {
            self.failed += count;
            self.failure.get_or_insert_with(why);
        }
    }
}

fn fold(h: u64, x: u64) -> u64 {
    splitmix64(h ^ x)
}

/// Folds the execution-identity fields of a report into `h`: exactly
/// the fields the engine's byte-identity contract covers across queue
/// cores, shard counts and thread counts.
fn digest_report(mut h: u64, report: &RunReport) -> u64 {
    let m = &report.metrics;
    for x in [
        m.events,
        report.end_time.ticks(),
        report.outcome as u64,
        m.broadcasts,
        m.busy_discards,
        m.deliveries,
        m.acks,
        m.crashes,
        m.queue_pushes,
        m.queue_cancellations,
        m.max_message_ids as u64,
        m.total_message_ids,
    ] {
        h = fold(h, x);
    }
    for d in &report.decisions {
        h = match d {
            Some(d) => fold(fold(h, d.value), d.time.ticks()),
            None => fold(h, u64::MAX),
        };
    }
    for &b in &m.per_slot_broadcasts {
        h = fold(h, b);
    }
    h
}

/// Sums handler timers over a simulation's processes into `rec` and
/// binds the arena replay to a sampled message.
fn harvest<P: Probed>(rec: &mut Recorder, sim: &Sim<P>, n: usize) {
    let mut sample = None;
    for i in 0..n {
        let (timers, msg) = sim.process(Slot(i)).probe();
        rec.procs.add(&timers);
        sample = msg.or(sample);
    }
    if let (None, Some(msg)) = (&rec.arena_replay, sample) {
        rec.arena_replay = Some(Box::new(move |fanout| {
            crate::replay::arena_fanout_ns(&msg, fanout)
        }));
    }
}

// ---------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------

/// A built closed-loop simulation, ready to run.
struct Closed<P: Process> {
    sim: Sim<P>,
    inputs: Vec<Value>,
    pass: Pass,
}

/// The closed-loop recipe shared by wPAXOS and Two-Phase: build the
/// topology, generate inputs, build the engine. Everything here is
/// `setup_s`.
fn closed_setup<P: Probed>(
    scope: &mut Scope<'_>,
    topo: impl FnOnce() -> Topology,
    inputs: impl FnOnce(usize) -> Vec<Value>,
    sched: RandomScheduler,
    cfg: EngineConfig,
    id_budget: usize,
    mut mk: impl FnMut(Slot, Value) -> P,
) -> Closed<P> {
    let mut pass = Pass::default();
    let setup = scope.begin("setup", None);
    let span = scope.begin("topo.build", Some(setup));
    let topo = topo();
    scope.finish(span);
    pass.topo_edges = topo.edge_count() as u64;
    let inputs = inputs(topo.len());
    let span = scope.begin("engine.build", Some(setup));
    let builder = SimBuilder::new(topo, |s| mk(s, inputs[s.index()]))
        .config(cfg)
        .message_id_budget(id_budget);
    let sim = scope.build(builder, sched);
    scope.finish(span);
    pass.setup_s = scope.finish(setup);
    Closed { sim, inputs, pass }
}

/// Engine configuration of a closed-loop workload: the default, plus
/// shards and threads on the sharded one. Never read from `AMACL_*`.
fn engine_config(w: Workload) -> EngineConfig {
    match w.sharding() {
        (1, _) => EngineConfig::default(),
        (shards, threads) => EngineConfig::default().shards(shards).threads(threads),
    }
}

/// Builds the closed-loop simulation of workload `w` for `seed`.
fn closed_build<P: Probed>(
    scope: &mut Scope<'_>,
    w: Workload,
    n: usize,
    seed: u64,
    mk: impl FnMut(Slot, Value) -> P,
) -> Closed<P> {
    match w {
        Workload::Wpaxos | Workload::WpaxosSharded => closed_setup(
            scope,
            || Topology::random_connected(n, WPAXOS_EDGE_P, seed),
            alternating_inputs,
            RandomScheduler::new(WPAXOS_F_ACK, seed),
            engine_config(w),
            10,
            mk,
        ),
        Workload::TwoPhaseClique => closed_setup(
            scope,
            || Topology::clique(n),
            |n| {
                // Binary inputs drawn per seed; both values always
                // present so validity is not vacuous.
                let mut v: Vec<Value> = (0..n as u64).map(|i| splitmix64(seed ^ i) & 1).collect();
                v[0] = 0;
                v[n - 1] = 1;
                v
            },
            RandomScheduler::new(TWOPHASE_F_ACK, seed),
            engine_config(w),
            1,
            mk,
        ),
        Workload::OpenLoop => unreachable!("open loop is not a closed-loop workload"),
    }
}

/// Builds one closed-loop simulation, runs it to its decision and
/// verifies agreement, validity and termination.
fn closed_pass<P: Probed>(
    scope: &mut Scope<'_>,
    w: Workload,
    n: usize,
    seed: u64,
    mk: impl FnMut(Slot, Value) -> P,
) -> Pass {
    let Closed {
        mut sim,
        inputs,
        mut pass,
    } = closed_build(scope, w, n, seed, mk);
    if scope.mode == Mode::SetupOnly {
        return pass;
    }
    let allocs = CountingAlloc::snapshot();
    let span = scope.begin("engine.run", None);
    let report = sim.run();
    pass.run_s = scope.finish(span);
    pass.count_allocs(allocs);
    harvest(scope.rec, &sim, inputs.len());
    pass.trace_records = sim.trace().len() as u64;

    let span = scope.begin("verify.check", None);
    let check = check_consensus(&inputs, &report, &[]);
    pass.attempted = 1;
    pass.decided = u64::from(check.ok());
    pass.fail(u64::from(!check.ok()), || {
        check.violation.clone().unwrap_or_else(|| "unknown".into())
    });
    pass.decide_ticks = report
        .decisions
        .iter()
        .flatten()
        .map(|d| d.time.ticks())
        .collect();
    pass.digest = digest_report(0, &report);
    pass.verify_s = scope.finish(span);
    pass.events = report.metrics.events;
    scope
        .rec
        .counters
        .add_metrics(&report.metrics, report.end_time);
    pass
}

// ---------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------

/// One open-loop run's configuration.
fn open_scenario(rate: u64, crash: bool, sizes: &Sizes, seed: u64) -> LoadScenario {
    LoadScenario {
        name: format!("bench-rate{rate}{}", if crash { "-crash" } else { "" }),
        spec: WorkloadSpec {
            arrival: ArrivalKind::Poisson,
            rate_per_kilotick: rate,
            duration: sizes.open_ticks,
            drain: OPEN_DRAIN_TICKS,
            service: None,
            n: OPEN_GROUP,
            bits: OPEN_BITS,
            seed,
            f_ack: OPEN_F_ACK,
        },
        // The last follower dies halfway through the arrival window.
        crash: crash.then_some((OPEN_GROUP - 1, sizes.open_ticks / 2)),
        partition: None,
    }
}

/// The runs of one open-loop pass: every fixed rate fault-free, then
/// the SLO rate with a follower crash.
pub fn open_scenarios(sizes: &Sizes, seed: u64) -> Vec<LoadScenario> {
    OPEN_RATES
        .iter()
        .map(|&r| open_scenario(r, false, sizes, seed))
        .chain([open_scenario(OPEN_SLO_RATE, true, sizes, seed)])
        .collect()
}

/// One open-loop run, all of it landing in `pass`. Set-up — request
/// schedule, horizon, topology, engine — is exactly as
/// `checker::workload::run_load` builds them (which `--check` holds
/// this driver to); the drive alternates `run_until` to the next
/// arrival with `inject`; then the run is verified.
fn open_run<P: Probed<Raw = OpenLoopNode, Msg = LoadMsg>>(
    scope: &mut Scope<'_>,
    scenario: &LoadScenario,
    pass: &mut Pass,
    mut mk: impl FnMut(Slot, OpenLoopNode) -> P,
) {
    let spec = &scenario.spec;
    let setup = scope.begin("setup", None);
    let span = scope.begin("workload.requests", Some(setup));
    let requests = spec.requests();
    let horizon = spec.horizon();
    scope.finish(span);
    let span = scope.begin("topo.build", Some(setup));
    let topo = Topology::clique(spec.n);
    scope.finish(span);
    pass.topo_edges += topo.edge_count() as u64;
    let span = scope.begin("engine.build", Some(setup));
    let cfg = EngineConfig::new()
        .seed(spec.seed)
        .crash_plan(scenario.crash_plan());
    let bits = spec.bits;
    let builder = SimBuilder::new(topo, |slot| {
        mk(slot, OpenLoopNode::new(bits, slot.index() == 0))
    })
    .config(cfg)
    .max_time(horizon)
    .message_id_budget(1);
    let mut sim = scope.build(builder, RandomScheduler::new(spec.f_ack, spec.seed));
    scope.finish(span);
    pass.setup_s += scope.finish(setup);
    if scope.mode == Mode::SetupOnly {
        return;
    }

    let run = scope.run;
    let allocs = CountingAlloc::snapshot();
    let span = scope.begin("engine.run", None);
    let outcome = if scope.mode == Mode::Probed {
        let mut pending_peak = 0;
        for req in &requests {
            let leaf = scope.rec.spans.leaf("engine.run_until", Some(span), run);
            let _ = sim.run_until(req.injected);
            scope.rec.spans.end(leaf);
            let leaf = scope.rec.spans.leaf("engine.inject", Some(span), run);
            sim.inject(Slot(0), |node, ctx| {
                node.raw_mut().submit(req.value, req.submitted, ctx);
                pending_peak = pending_peak.max(node.raw().pending());
            });
            scope.rec.spans.end(leaf);
        }
        pass.pending_peak = pass.pending_peak.max(pending_peak as u64);
        let leaf = scope.rec.spans.leaf("engine.run_until", Some(span), run);
        let outcome = sim.run_until(horizon);
        scope.rec.spans.end(leaf);
        outcome
    } else {
        for req in &requests {
            let _ = sim.run_until(req.injected);
            sim.inject(Slot(0), |node, ctx| {
                node.raw_mut().submit(req.value, req.submitted, ctx);
            });
        }
        sim.run_until(horizon)
    };
    pass.run_s += scope.finish(span);
    pass.count_allocs(allocs);
    harvest(scope.rec, &sim, spec.n);
    pass.trace_records += sim.trace().len() as u64;

    let span = scope.begin("verify.check", None);
    let proposer = sim.process(Slot(0)).raw();
    let completed = proposer.completed();
    let unfinished = proposer.pending() as u64;
    // The single proposer serves its backlog in arrival order, so the
    // i-th completion must be the i-th request, decided to its value.
    let wrong = completed
        .iter()
        .zip(&requests)
        .filter(|(c, r)| c.value != r.value || c.submitted != r.submitted || c.decided < r.injected)
        .count() as u64;
    let lost = (requests.len() as u64).saturating_sub(completed.len() as u64 + unfinished);
    let fault_free = scenario.crash.is_none();
    let must_finish = !fault_free || spec.rate_per_kilotick <= OPEN_MUST_FINISH_RATE;
    let rate = spec.rate_per_kilotick;
    pass.fail(wrong + lost, || {
        format!("rate {rate}: {wrong} requests decided to another value, {lost} lost")
    });
    if must_finish {
        pass.attempted += requests.len() as u64;
        pass.fail(unfinished, || {
            format!("rate {rate}: {unfinished} requests undecided at the horizon")
        });
    } else {
        // Past the knee the backlog is the point; only wrong answers
        // count against these runs.
        pass.attempted += completed.len() as u64;
    }
    pass.decided += completed.len() as u64;
    pass.requests += requests.len() as u64;

    let mut latencies: Vec<u64> = completed.iter().map(CompletedRequest::latency).collect();
    latencies.sort_unstable();
    let p99 = if latencies.is_empty() {
        u64::MAX
    } else {
        nearest_rank(&latencies, 0.99)
    };
    if !fault_free {
        pass.crash_p99_ticks = p99;
    } else {
        pass.rate_p99_ticks.push(p99);
        if unfinished == 0 && p99 <= OPEN_SLO_P99_TICKS {
            pass.slo_max_rate = pass.slo_max_rate.max(rate);
        }
        if rate == OPEN_SLO_RATE {
            pass.decide_ticks = latencies;
            pass.slo_completed = completed.to_vec();
        }
    }

    let report = RunReport {
        outcome,
        end_time: horizon,
        decisions: sim.decisions(),
        metrics: sim.metrics().clone(),
    };
    let mut h = digest_report(pass.digest, &report);
    for c in completed {
        h = fold(
            fold(fold(h, c.value), c.submitted.ticks()),
            c.decided.ticks(),
        );
    }
    pass.digest = fold(h, unfinished);
    pass.verify_s += scope.finish(span);
    pass.events += report.metrics.events;
    scope.rec.counters.add_metrics(&report.metrics, horizon);
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// Runs pass `run` of workload `w` with inputs derived from `seed`.
pub fn pass(
    w: Workload,
    sizes: &Sizes,
    mode: Mode,
    seed: u64,
    run: u32,
    rec: &mut Recorder,
) -> Pass {
    let root = rec.spans.begin("pass", None, run);
    let scope = &mut Scope {
        rec,
        mode,
        run,
        root,
    };
    let probed = mode == Mode::Probed;
    let n = sizes.n;
    let wcfg = WpaxosConfig::new(n);
    let pass = match (w, probed) {
        (Workload::Wpaxos | Workload::WpaxosSharded, false) => {
            closed_pass(scope, w, n, seed, |_, v| WpaxosNode::new(v, wcfg))
        }
        (Workload::Wpaxos | Workload::WpaxosSharded, true) => {
            closed_pass(scope, w, n, seed, |s, v| {
                Timed::new(WpaxosNode::new(v, wcfg), s)
            })
        }
        (Workload::TwoPhaseClique, false) => {
            closed_pass(scope, w, n, seed, |_, v| TwoPhase::new(v))
        }
        (Workload::TwoPhaseClique, true) => {
            closed_pass(scope, w, n, seed, |s, v| Timed::new(TwoPhase::new(v), s))
        }
        (Workload::OpenLoop, _) => {
            let mut pass = Pass::default();
            for scenario in open_scenarios(sizes, seed) {
                if probed {
                    open_run(scope, &scenario, &mut pass, |s, node| Timed::new(node, s));
                } else {
                    open_run(scope, &scenario, &mut pass, |_, node| node);
                }
            }
            pass
        }
    };
    rec.spans.finish(root);
    pass
}

/// Performs only the set-up of a pass and throws the result (spans
/// included: repetitions must not grow memory) away; returns its
/// `setup_s`.
pub fn setup_only(w: Workload, sizes: &Sizes, seed: u64) -> f64 {
    pass(w, sizes, Mode::SetupOnly, seed, 0, &mut Recorder::default()).setup_s
}
