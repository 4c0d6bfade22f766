//! Open-loop heavy-traffic workloads with latency-SLO reporting.
//!
//! Everything else in this crate is *closed-loop*: fix `n`, run one
//! consensus instance to quiescence, report. A production deployment
//! is judged open-loop — client requests arrive continuously, at a
//! rate the service does not control, against a long-lived consensus
//! group — and the numbers that matter are sustained decisions/sec and
//! the p50/p99/p999 submit→decide latency. This module adds that
//! workload layer **on top of** the existing engine, without touching
//! the stepper:
//!
//! * [`WorkloadSpec`] — a pluggable arrival process (deterministic
//!   rate or Poisson via the in-repo rand shim, with optional
//!   LogNormal service times), fully *pre-materialized* into a request
//!   schedule by [`WorkloadSpec::requests`], so the workload is a pure
//!   function of the spec and never perturbs engine determinism;
//! * [`OpenLoopNode`] — a sustained multi-instance consensus driver
//!   that pipelines slots over the existing
//!   [`BitwiseTwoPhase`] machinery: slot 0 is the proposer, requests
//!   queue in its backlog, and each decided instance immediately
//!   starts the next;
//! * `Sim::inject` + `Sim::run_until` (`amacl_model`) are the
//!   pause/resume seam: the driver alternates "advance virtual time to
//!   the next arrival" with "inject the request into the proposer",
//!   and injected broadcasts take the normal scheduling path — so one
//!   fixed-seed workload is **byte-identical** (trace, histogram,
//!   per-request latencies) across queue cores, shard counts, and
//!   thread counts, exactly like the closed-loop sweeps;
//! * [`LatencyHistogram`] — fixed-bucket (power-of-two) submit→decide
//!   latency histogram reporting p50/p99/p999 and the mean;
//! * [`LoadScenario`] — the sustained-load scenario catalogue
//!   (steady state, crash during steady state, partition under
//!   backlog) with the same engine-grid verdict the closed-loop sweep
//!   rows carry, swept by [`sweep_load`].
//!
//! # Instance pipelining and why it stays live
//!
//! Each consensus instance is one fresh [`BitwiseTwoPhase`] machine;
//! messages are wrapped in [`LoadMsg`] carrying the instance number.
//! With a single proposer every candidate in one instance carries the
//! same value, so no node ever observes conflicting evidence — rounds
//! always finish on the phase-2 ack, the bivalent witness machinery
//! never arms, and a crashed *follower* can never stall the pipeline
//! (the stall risk of Algorithm 1's witness sets needs conflicting
//! proposals). Sequential entry is guaranteed by ack ordering: any
//! instance-`k+1` broadcast happens only after its sender finished
//! instance `k`, which required the proposer's instance-`k` broadcast
//! to be acked — i.e. delivered to *every* live node — so every live
//! node sees instance `k` before any instance-`k+1` traffic. Messages
//! that do race ahead are buffered per instance and replayed.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

use amacl_core::multivalued::{BitwiseTwoPhase, BwMsg};
use amacl_model::ids::Slot;
use amacl_model::mac::{MacReport, SchedulerFactory};
use amacl_model::msg::Payload;
use amacl_model::proc::{Context, NodeCell, Process, Value};
use amacl_model::sim::config::EngineConfig;
use amacl_model::sim::crash::{CrashPlan, CrashSpec};
use amacl_model::sim::engine::{RunReport, SimBuilder};
use amacl_model::sim::queue::QueueCoreKind;
use amacl_model::sim::sched::partition::{DirectedCut, EdgeDelayScheduler};
use amacl_model::sim::sched::random::RandomScheduler;
use amacl_model::sim::time::Time;
use amacl_model::sim::trace::Trace;
use amacl_model::topo::Topology;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::grid::{check_engine_grid, grid_token, GridDivergence};

/// Which arrival process generates request times.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArrivalKind {
    /// Evenly spaced arrivals at the target rate.
    Deterministic,
    /// Exponential inter-arrival times with the target mean rate
    /// (sampled from the workload RNG via inverse transform).
    Poisson,
}

impl ArrivalKind {
    /// Short stable name (used in flags and bench rows).
    pub fn name(self) -> &'static str {
        match self {
            ArrivalKind::Deterministic => "det",
            ArrivalKind::Poisson => "poisson",
        }
    }
}

impl std::str::FromStr for ArrivalKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "det" | "deterministic" => Ok(ArrivalKind::Deterministic),
            "poisson" => Ok(ArrivalKind::Poisson),
            other => Err(format!("unknown arrival process `{other}` (det|poisson)")),
        }
    }
}

impl std::fmt::Display for ArrivalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A LogNormal service-time model: each request carries an extra
/// client-side service delay `exp(mu + sigma * Z)` ticks (`Z` standard
/// normal via Box–Muller) between its arrival (the latency clock
/// start) and the moment it is handed to the proposer.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LogNormalService {
    /// Mean of the underlying normal (in ln-ticks).
    pub mu: f64,
    /// Standard deviation of the underlying normal.
    pub sigma: f64,
}

/// One materialized client request: it arrives (and the latency clock
/// starts) at `submitted`, reaches the proposer at `injected`
/// (`submitted` plus any service delay), and proposes `value`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LoadRequest {
    /// Arrival time — the latency clock's zero.
    pub submitted: Time,
    /// When the request is injected into the proposer.
    pub injected: Time,
    /// Proposed value (fits in the spec's bit width).
    pub value: Value,
}

/// An open-loop workload description: arrival process, target rate,
/// duration, consensus group size and value width, and the seed that
/// makes the whole request schedule (and the engine run over it) a
/// pure function of this struct.
#[derive(Clone, PartialEq, Debug)]
pub struct WorkloadSpec {
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Target arrival rate, in requests per 1000 virtual ticks.
    pub rate_per_kilotick: u64,
    /// Length of the arrival window, in ticks (arrivals stop after
    /// this; the run then drains).
    pub duration: u64,
    /// Extra ticks after the arrival window for the backlog to drain.
    pub drain: u64,
    /// Optional LogNormal service delay between arrival and injection.
    pub service: Option<LogNormalService>,
    /// Consensus group size (clique).
    pub n: usize,
    /// Value width in bits (1..=32); each instance decides one value.
    pub bits: u32,
    /// Seed for the workload RNG, the engine, and the scheduler.
    pub seed: u64,
    /// The scheduler's `F_ack` bound.
    pub f_ack: u64,
}

impl WorkloadSpec {
    /// A small default spec used by smoke tests and `amacl load`
    /// defaults: Poisson arrivals, 5 requests per kilotick for 20k
    /// ticks, n = 4, 8-bit values.
    pub fn default_spec() -> Self {
        Self {
            arrival: ArrivalKind::Poisson,
            rate_per_kilotick: 5,
            duration: 20_000,
            drain: 20_000,
            service: None,
            n: 4,
            bits: 8,
            seed: 1,
            f_ack: 8,
        }
    }

    /// Validates the spec.
    pub fn validate(&self) -> Result<(), String> {
        if self.n < 2 {
            return Err(format!("workload needs n >= 2, got {}", self.n));
        }
        if !(1..=32).contains(&self.bits) {
            return Err(format!("bits must be in 1..=32, got {}", self.bits));
        }
        if self.rate_per_kilotick == 0 {
            return Err("rate must be at least 1 request per kilotick".into());
        }
        if self.duration == 0 {
            return Err("duration must be at least 1 tick".into());
        }
        if self.f_ack == 0 {
            return Err("f_ack must be at least 1".into());
        }
        if let Some(s) = self.service {
            if !s.mu.is_finite() || !s.sigma.is_finite() || s.sigma < 0.0 {
                return Err("service mu/sigma must be finite with sigma >= 0".into());
            }
        }
        Ok(())
    }

    /// Materializes the request schedule: arrival times from the
    /// arrival process, values drawn uniformly in `[0, 2^bits)`, and
    /// injection times `arrival + service` — sorted by injection time
    /// (the order the driver replays them in). Pure function of the
    /// spec; the workload RNG is dedicated, so this never touches
    /// engine or scheduler randomness.
    pub fn requests(&self) -> Vec<LoadRequest> {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x6F70_656E_6C6F_6F70);
        let mean_gap = 1000.0 / self.rate_per_kilotick as f64;
        let cap: u64 = 1u64 << self.bits;
        let mut reqs = Vec::new();
        let mut clock = 0.0f64;
        loop {
            let gap = match self.arrival {
                ArrivalKind::Deterministic => mean_gap,
                // Inverse-transform exponential; 1 - u keeps the
                // argument in (0, 1] so ln never sees zero.
                ArrivalKind::Poisson => -(1.0 - rng.gen_range(0.0..1.0)).ln() * mean_gap,
            };
            clock += gap;
            let submitted = clock.round() as u64;
            if submitted >= self.duration {
                break;
            }
            let value = rng.gen_range(0..cap);
            let service = match self.service {
                None => 0,
                Some(LogNormalService { mu, sigma }) => {
                    // Box–Muller: two uniforms to one standard normal.
                    let u1 = 1.0 - rng.gen_range(0.0..1.0);
                    let u2 = rng.gen_range(0.0..1.0);
                    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                    (mu + sigma * z).exp().round().max(0.0) as u64
                }
            };
            reqs.push(LoadRequest {
                submitted: Time(submitted),
                injected: Time(submitted + service),
                value,
            });
        }
        // Service delays can reorder injection relative to arrival;
        // the driver needs non-decreasing injection times. Stable, so
        // equal injection ticks keep arrival order.
        reqs.sort_by_key(|r| r.injected);
        reqs
    }

    /// The virtual-time horizon of a run over this spec.
    pub fn horizon(&self) -> Time {
        let last_inject = self
            .requests()
            .last()
            .map(|r| r.injected.ticks())
            .unwrap_or(0);
        Time(last_inject.max(self.duration).saturating_add(self.drain))
    }
}

/// A message of the open-loop pipeline: one [`BitwiseTwoPhase`]
/// message tagged with the consensus instance it belongs to. The
/// instance number is sequencing metadata (like the round number
/// inside), not a node id, so the id budget stays 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LoadMsg {
    /// Which consensus instance (0-based) this message belongs to.
    pub instance: u64,
    /// The wrapped protocol message.
    pub inner: BwMsg,
}

impl Payload for LoadMsg {
    fn id_count(&self) -> usize {
        self.inner.id_count()
    }
}

/// One request the proposer accepted, with its latency endpoints.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CompletedRequest {
    /// The decided value (equals the request's proposed value: the
    /// proposer is the only source of candidates in its instance).
    pub value: Value,
    /// Arrival time (latency clock start).
    pub submitted: Time,
    /// Decision time at the proposer.
    pub decided: Time,
}

impl CompletedRequest {
    /// Submit→decide latency in ticks.
    pub fn latency(&self) -> u64 {
        self.decided.ticks().saturating_sub(self.submitted.ticks())
    }
}

/// A queued request at the proposer.
#[derive(Clone, Copy, Debug)]
struct PendingRequest {
    value: Value,
    submitted: Time,
}

/// The sustained multi-instance consensus driver at one node: wraps a
/// sequence of [`BitwiseTwoPhase`] machines (one per instance) behind
/// one long-lived engine process.
///
/// Slot 0 is the **proposer**: requests land in its backlog via
/// [`OpenLoopNode::submit`] (driven through `Sim::inject`), and it
/// starts instance `k + 1` the moment instance `k` decides. Every
/// other node is a **follower**: it enters an instance on the first
/// message it sees for it, adopting the carried candidate as its
/// input. Inner machines run against a private [`NodeCell`]; requested
/// broadcasts are forwarded to the real MAC wrapped in [`LoadMsg`],
/// and inner decisions are harvested per instance (the engine-level
/// decision slot stays unused — a long-lived service never "decides").
pub struct OpenLoopNode {
    bits: u32,
    is_proposer: bool,
    /// Current instance (or, when idle, the next instance to enter).
    instance: u64,
    /// The running instance's machine; `None` between instances.
    /// Invariant: a present machine is not done.
    machine: Option<BitwiseTwoPhase>,
    /// Private per-node state the inner machine's contexts borrow.
    cell: NodeCell<BwMsg>,
    /// Messages for instances not entered yet, in arrival order.
    future: BTreeMap<u64, Vec<BwMsg>>,
    /// Proposer: requests waiting for their instance.
    backlog: VecDeque<PendingRequest>,
    /// Proposer: the request the running instance is deciding.
    in_flight: Option<PendingRequest>,
    /// Proposer: finished requests with latency endpoints.
    completed: Vec<CompletedRequest>,
    /// Instances this node has decided (followers too).
    decided_instances: u64,
}

impl OpenLoopNode {
    /// A node of an open-loop group deciding `bits`-bit values.
    /// `is_proposer` must be true for exactly slot 0.
    pub fn new(bits: u32, is_proposer: bool) -> Self {
        Self {
            bits,
            is_proposer,
            instance: 0,
            machine: None,
            cell: NodeCell::new(0),
            future: BTreeMap::new(),
            backlog: VecDeque::new(),
            in_flight: None,
            completed: Vec::new(),
            decided_instances: 0,
        }
    }

    /// Finished requests (proposer only; empty on followers).
    pub fn completed(&self) -> &[CompletedRequest] {
        &self.completed
    }

    /// Requests accepted but not yet decided (backlog + in flight).
    pub fn pending(&self) -> usize {
        self.backlog.len() + usize::from(self.in_flight.is_some())
    }

    /// Instances this node has decided.
    pub fn decided_instances(&self) -> u64 {
        self.decided_instances
    }

    /// Hands one client request to the proposer. Driven from outside
    /// the engine via `Sim::inject`; `submitted` is the arrival time
    /// (the latency clock start), which may precede `ctx.now()` by the
    /// request's service delay.
    pub fn submit(&mut self, value: Value, submitted: Time, ctx: &mut Context<'_, LoadMsg>) {
        assert!(self.is_proposer, "submit on a follower");
        self.backlog.push_back(PendingRequest { value, submitted });
        if self.machine.is_none() {
            self.start_next_instance(ctx);
        }
    }

    /// Runs one inner-machine callback against the private cell, then
    /// forwards any broadcast it requested to the real MAC (before any
    /// further inner call, so the busy flag stays truthful).
    fn drive(
        &mut self,
        ctx: &mut Context<'_, LoadMsg>,
        f: impl FnOnce(&mut BitwiseTwoPhase, &mut Context<'_, BwMsg>),
    ) {
        let machine = self.machine.as_mut().expect("drive without a machine");
        {
            let mut inner = self.cell.ctx(ctx.id(), ctx.now(), ctx.is_busy());
            f(machine, &mut inner);
        }
        if let Some(inner_msg) = self.cell.outbox.take() {
            let outcome = ctx.broadcast(LoadMsg {
                instance: self.instance,
                inner: inner_msg,
            });
            debug_assert!(
                outcome.is_accepted(),
                "outer MAC rejected a forwarded broadcast"
            );
        }
    }

    /// Starts the proposer's next instance from the backlog head (a
    /// no-op when the backlog is empty).
    fn start_next_instance(&mut self, ctx: &mut Context<'_, LoadMsg>) {
        debug_assert!(self.machine.is_none());
        let Some(req) = self.backlog.pop_front() else {
            return;
        };
        self.machine = Some(BitwiseTwoPhase::new(req.value, self.bits));
        self.in_flight = Some(req);
        self.drive(ctx, |m, inner| m.on_start(inner));
        self.replay_buffered(ctx);
        self.harvest(ctx);
    }

    /// Enters the current instance as a follower, seeded by the
    /// candidate of the first message seen for it.
    fn enter_as_follower(&mut self, first: BwMsg, ctx: &mut Context<'_, LoadMsg>) {
        debug_assert!(self.machine.is_none());
        debug_assert!(!self.is_proposer);
        // The carried candidate is MSB-aligned; the constructor wants
        // the plain value. Adopting it preserves validity — every
        // candidate in the instance originates from the proposal.
        let input = first.candidate >> (64 - self.bits);
        self.machine = Some(BitwiseTwoPhase::new(input, self.bits));
        self.drive(ctx, |m, inner| m.on_start(inner));
        self.drive(ctx, |m, inner| m.on_receive(first, inner));
        self.replay_buffered(ctx);
        self.harvest(ctx);
    }

    /// Replays messages buffered for the (just entered) current
    /// instance, in arrival order.
    fn replay_buffered(&mut self, ctx: &mut Context<'_, LoadMsg>) {
        if let Some(early) = self.future.remove(&self.instance) {
            for m in early {
                self.drive(ctx, |mach, inner| mach.on_receive(m, inner));
            }
        }
    }

    /// Checks whether the running machine finished; if so, records the
    /// instance's decision and advances — possibly through several
    /// instances, since entering the next one replays buffered
    /// messages which can in principle finish it too.
    fn harvest(&mut self, ctx: &mut Context<'_, LoadMsg>) {
        while self.machine.as_ref().is_some_and(BitwiseTwoPhase::is_done) {
            let decision = self
                .cell
                .decision
                .take()
                .expect("done machine recorded no decision");
            if self.is_proposer {
                let req = self
                    .in_flight
                    .take()
                    .expect("proposer finished an instance with nothing in flight");
                self.completed.push(CompletedRequest {
                    value: decision.value,
                    submitted: req.submitted,
                    decided: decision.time,
                });
            }
            self.machine = None;
            self.decided_instances += 1;
            self.instance += 1;
            // Drop buffered messages for instances now behind us (none
            // should exist, but stale entries must never accumulate).
            self.future = self.future.split_off(&self.instance);
            if self.is_proposer {
                self.start_next_instance(ctx);
            } else if let Some(early) = self.future.remove(&self.instance) {
                let mut early = VecDeque::from(early);
                let first = early
                    .pop_front()
                    .expect("buffered instance entry is never empty");
                self.future.insert(self.instance, Vec::from(early));
                // Re-insert leftovers first: enter_as_follower replays
                // them after on_start.
                if self.future.get(&self.instance).is_some_and(Vec::is_empty) {
                    self.future.remove(&self.instance);
                }
                self.enter_as_follower(first, ctx);
            }
        }
    }
}

impl Process for OpenLoopNode {
    type Msg = LoadMsg;

    fn on_start(&mut self, _ctx: &mut Context<'_, LoadMsg>) {
        // A long-lived service node is passive until traffic arrives:
        // the proposer acts on submissions, followers on messages.
    }

    fn on_receive(&mut self, msg: LoadMsg, ctx: &mut Context<'_, LoadMsg>) {
        if msg.instance < self.instance {
            // Stale instance: already decided here.
            return;
        }
        if msg.instance > self.instance || (self.machine.is_none() && self.is_proposer) {
            // Ahead of us — or traffic for an instance the proposer
            // has not started yet (its request is still in transit).
            // Buffer; replay on entry.
            self.future.entry(msg.instance).or_default().push(msg.inner);
            return;
        }
        if self.machine.is_none() {
            self.enter_as_follower(msg.inner, ctx);
            return;
        }
        self.drive(ctx, |m, inner| m.on_receive(msg.inner, inner));
        self.harvest(ctx);
    }

    fn on_ack(&mut self, ctx: &mut Context<'_, LoadMsg>) {
        if self.machine.is_some() {
            self.drive(ctx, |m, inner| m.on_ack(inner));
            self.harvest(ctx);
        }
    }
}

/// Number of histogram buckets: bucket 0 holds latency 0, bucket
/// `i >= 1` holds latencies in `[2^(i-1), 2^i - 1]`, bucket 64 tops
/// out at `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket (power-of-two) latency histogram with exact count,
/// sum, min, and max — the submit→decide metrics surface. Quantiles
/// report the upper bound of the bucket containing the target rank,
/// so they are conservative (never under-report) and deterministic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one latency sample (in ticks).
    pub fn record(&mut self, latency: u64) {
        let idx = if latency == 0 {
            0
        } else {
            64 - latency.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(latency);
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in ticks (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0 < q <= 1`) as the containing bucket's
    /// upper bound, clamped to the recorded max. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median latency (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile latency (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile latency (bucket upper bound).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }
}

/// A named sustained-load scenario: a workload spec plus the
/// adversarial overlay (timed follower crash, healing partition) it
/// runs under.
#[derive(Clone, PartialEq, Debug)]
pub struct LoadScenario {
    /// Unique name (stable across PRs; CI greps these).
    pub name: String,
    /// The open-loop workload.
    pub spec: WorkloadSpec,
    /// Crash one follower at a time: `(slot, tick)`. Slot 0 (the
    /// proposer) is rejected by validation.
    pub crash: Option<(usize, u64)>,
    /// A directed cut `(from, to, release)` healing at `release`
    /// (deliveries `from -> to` withheld until then).
    pub partition: Option<(Vec<usize>, Vec<usize>, u64)>,
}

impl LoadScenario {
    /// The sustained-load catalogue: steady state, a follower crash in
    /// steady state, and a partition building backlog before healing.
    pub fn catalogue() -> Vec<LoadScenario> {
        let spec = WorkloadSpec::default_spec();
        vec![
            LoadScenario {
                name: "load-steady-state".into(),
                spec: spec.clone(),
                crash: None,
                partition: None,
            },
            LoadScenario {
                name: "load-crash-steady-state".into(),
                spec: spec.clone(),
                // Crash the last follower mid-run: single-proposer
                // instances carry uniform candidates, so the pipeline
                // must keep deciding without it.
                crash: Some((spec.n - 1, spec.duration / 2)),
                partition: None,
            },
            LoadScenario {
                name: "load-partition-backlog".into(),
                spec: WorkloadSpec {
                    // Higher rate so the cut visibly builds backlog,
                    // and a longer drain so the backlog can clear.
                    rate_per_kilotick: 10,
                    drain: 60_000,
                    ..spec.clone()
                },
                crash: None,
                // Cut the proposer off from half the group until
                // mid-run: its broadcasts cannot ack, instances stall,
                // the backlog grows, and the drain after healing is
                // the latency tail the histogram must capture.
                partition: Some((vec![0], (1..spec.n / 2 + 1).collect(), spec.duration / 2)),
            },
        ]
    }

    /// Validates the scenario.
    pub fn validate(&self) -> Result<(), String> {
        self.spec.validate()?;
        if let Some((slot, _)) = self.crash {
            if slot == 0 {
                return Err("cannot crash the proposer (slot 0)".into());
            }
            if slot >= self.spec.n {
                return Err(format!(
                    "crash slot {slot} out of range (n={})",
                    self.spec.n
                ));
            }
        }
        if let Some((from, to, _)) = &self.partition {
            for &s in from.iter().chain(to.iter()) {
                if s >= self.spec.n {
                    return Err(format!(
                        "partition slot {s} out of range (n={})",
                        self.spec.n
                    ));
                }
            }
        }
        Ok(())
    }

    /// The engine-side crash plan.
    pub fn crash_plan(&self) -> CrashPlan {
        match self.crash {
            None => CrashPlan::none(),
            Some((slot, tick)) => CrashPlan::new(vec![CrashSpec::AtTime {
                slot: Slot(slot),
                time: Time(tick),
            }]),
        }
    }

    /// The scenario's scheduler factory: seeded random delays under
    /// `f_ack`, wrapped in the healing cut when partitioned.
    pub fn scheduler(&self) -> SchedulerFactory {
        let f_ack = self.spec.f_ack;
        let seed = self.spec.seed;
        match self.partition.clone() {
            None => Arc::new(move || Box::new(RandomScheduler::new(f_ack, seed))),
            Some((from, to, release)) => Arc::new(move || {
                Box::new(EdgeDelayScheduler::new(
                    RandomScheduler::new(f_ack, seed),
                    vec![DirectedCut::new(
                        from.iter().copied().map(Slot),
                        to.iter().copied().map(Slot),
                        Time(release),
                    )],
                ))
            }),
        }
    }
}

/// Everything one open-loop run produced: the latency surface, the
/// raw per-request records, and the byte-identity witnesses (trace +
/// condensed report).
#[derive(Clone, PartialEq, Debug)]
pub struct LoadRun {
    /// Submit→decide latency histogram over completed requests.
    pub histogram: LatencyHistogram,
    /// Completed requests in decision order (proposer's view).
    pub completed: Vec<CompletedRequest>,
    /// Requests submitted over the run.
    pub submitted: u64,
    /// Requests still queued or in flight at the horizon.
    pub unfinished: u64,
    /// Engine events processed (the denominator of events/sec).
    pub engine_events: u64,
    /// Virtual end time.
    pub end_time: Time,
    /// Condensed engine report (identity-invariant fields only).
    pub report: MacReport,
    /// The recorded event trace, when tracing was on — the strongest
    /// identity witness.
    pub trace: Trace,
    /// Share of parallel-stepper worker time lost to window barriers,
    /// in percent. Wall-clock derived (0 for serial runs) and never an
    /// identity witness: the sweep's run-diffing ignores it.
    pub barrier_pct: f64,
}

impl LoadRun {
    /// Decisions per 1000 virtual ticks — the deterministic sustained
    /// throughput figure (wall-clock events/sec is the bench layer's
    /// job).
    pub fn decided_per_kilotick(&self) -> f64 {
        if self.end_time.ticks() == 0 {
            0.0
        } else {
            self.histogram.count() as f64 * 1000.0 / self.end_time.ticks() as f64
        }
    }
}

/// Runs one open-loop scenario on the given engine configuration
/// (queue core, shards, threads): builds a long-lived engine over a
/// clique, alternates `Sim::run_until` with `Sim::inject` along
/// the materialized request schedule, drains, and collects the
/// latency surface from the proposer.
pub fn run_load(
    scenario: &LoadScenario,
    core: QueueCoreKind,
    shards: usize,
    threads: usize,
    trace: bool,
) -> LoadRun {
    scenario
        .validate()
        .unwrap_or_else(|e| panic!("invalid load scenario: {e}"));
    let spec = &scenario.spec;
    let requests = spec.requests();
    let horizon = spec.horizon();
    let cfg = EngineConfig::new()
        .seed(spec.seed)
        .queue_core(core)
        .shards(shards)
        .threads(threads)
        .crash_plan(scenario.crash_plan());
    let bits = spec.bits;
    let factory = scenario.scheduler();
    let mut sim = SimBuilder::new(Topology::clique(spec.n), |slot| {
        OpenLoopNode::new(bits, slot.index() == 0)
    })
    .config(cfg)
    .scheduler(factory())
    .max_time(horizon)
    .message_id_budget(1)
    .trace(trace)
    .build();
    for req in &requests {
        let _ = sim.run_until(req.injected);
        sim.inject(Slot(0), |node, ctx| {
            node.submit(req.value, req.submitted, ctx);
        });
    }
    let outcome = sim.run_until(horizon);
    let proposer = sim.process(Slot(0));
    let completed = proposer.completed().to_vec();
    let unfinished = proposer.pending() as u64;
    let mut histogram = LatencyHistogram::new();
    for c in &completed {
        histogram.record(c.latency());
    }
    let report = RunReport {
        outcome,
        end_time: horizon,
        decisions: sim.decisions().to_vec(),
        metrics: sim.metrics().clone(),
    };
    LoadRun {
        histogram,
        submitted: requests.len() as u64,
        unfinished,
        engine_events: report.metrics.events,
        end_time: horizon,
        barrier_pct: report.metrics.barrier_pct(),
        report: MacReport::from_run(&report),
        trace: sim.trace().clone(),
        completed,
    }
}

/// One swept load scenario: the reference run's latency surface plus
/// the engine-grid verdict the closed-loop sweep rows carry.
#[derive(Clone, PartialEq, Debug)]
pub struct LoadSweepRow {
    /// Scenario name.
    pub name: String,
    /// The serial heap reference run.
    pub reference: LoadRun,
    /// `Err` names the first grid configuration that did not
    /// reproduce the reference exactly.
    pub verdict: Result<(), GridDivergence>,
}

impl LoadSweepRow {
    /// `true` when every grid configuration reproduced the reference.
    pub fn ok(&self) -> bool {
        self.verdict.is_ok()
    }

    /// One summary line per row, ending in the same grid token as the
    /// closed-loop sweep's (`engine grid identical` or `DIVERGED at
    /// <config>`).
    pub fn summary(&self) -> String {
        format!(
            "{}: {} decided, {} unfinished | p50 {} p99 {} p999 {} ticks | {}",
            self.name,
            self.reference.histogram.count(),
            self.reference.unfinished,
            self.reference.histogram.p50(),
            self.reference.histogram.p99(),
            self.reference.histogram.p999(),
            grid_token(&self.verdict),
        )
    }
}

/// How two load runs can differ; `None` when byte-identical on every
/// witness (trace, histogram, per-request records, condensed report).
fn diff_runs(reference: &LoadRun, other: &LoadRun) -> Option<String> {
    let what = if reference.trace != other.trace {
        "traces differ"
    } else if reference.histogram != other.histogram {
        "latency histograms differ"
    } else if reference.completed != other.completed {
        "per-request records differ"
    } else if reference.report != other.report {
        "condensed reports differ"
    } else if reference.unfinished != other.unfinished {
        "unfinished backlogs differ"
    } else {
        return None;
    };
    Some(what.to_string())
}

/// Sweeps one load scenario across the
/// [engine grid](crate::grid::engine_grid), every run traced and
/// compared byte-for-byte (trace, histogram, per-request latencies)
/// against the serial heap reference.
pub fn sweep_load(scenario: &LoadScenario) -> LoadSweepRow {
    let (reference, verdict) = check_engine_grid(
        None,
        &[],
        |cfg| {
            run_load(
                scenario,
                cfg.queue_core,
                cfg.shards.get(),
                cfg.threads.get(),
                true,
            )
        },
        diff_runs,
    );
    LoadSweepRow {
        name: scenario.name.clone(),
        reference,
        verdict,
    }
}

/// Renders sweep rows as the deterministic report `amacl load` prints
/// and CI greps.
pub fn render_load_rows(rows: &[LoadSweepRow]) -> String {
    let mut out = String::new();
    for row in rows {
        let _ = writeln!(out, "{}", row.summary());
        if let Err(d) = &row.verdict {
            let _ = writeln!(out, "  FAILURE: {d}");
        }
    }
    let failed = rows.iter().filter(|r| !r.ok()).count();
    let _ = writeln!(
        out,
        "{} load scenarios, {} passed, {} failed",
        rows.len(),
        rows.len() - failed,
        failed
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::new();
        for lat in [0u64, 1, 2, 3, 4, 8, 100, 1000] {
            h.record(lat);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        // p50 rank = 4 → the fourth sample (3) lives in bucket 2
        // (range 2..=3), upper bound 3.
        assert_eq!(h.p50(), 3);
        // The top quantiles land in the last occupied bucket, clamped
        // to the recorded max.
        assert_eq!(h.p99(), 1000);
        assert_eq!(h.p999(), 1000);
        assert!(h.quantile(0.001) == 0);
        assert!((h.mean() - 139.75).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn requests_are_deterministic_and_respect_duration() {
        let spec = WorkloadSpec::default_spec();
        let a = spec.requests();
        let b = spec.requests();
        assert_eq!(a, b, "request schedule must be a pure function of the spec");
        assert!(!a.is_empty());
        let cap = 1u64 << spec.bits;
        for r in &a {
            assert!(r.submitted.ticks() < spec.duration);
            assert!(r.injected >= r.submitted);
            assert!(r.value < cap);
        }
        assert!(a.windows(2).all(|w| w[0].injected <= w[1].injected));
        // Poisson at 5/kilotick over 20k ticks: ~100 requests.
        assert!((50..200).contains(&a.len()), "got {} requests", a.len());
    }

    #[test]
    fn deterministic_arrivals_hit_the_target_rate() {
        let spec = WorkloadSpec {
            arrival: ArrivalKind::Deterministic,
            service: None,
            ..WorkloadSpec::default_spec()
        };
        let reqs = spec.requests();
        let expected = spec.duration * spec.rate_per_kilotick / 1000;
        let got = reqs.len() as u64;
        assert!(
            got.abs_diff(expected) <= 1,
            "expected ~{expected} deterministic arrivals, got {got}"
        );
    }

    #[test]
    fn lognormal_service_delays_injection() {
        let spec = WorkloadSpec {
            service: Some(LogNormalService {
                mu: 3.0,
                sigma: 0.5,
            }),
            ..WorkloadSpec::default_spec()
        };
        let reqs = spec.requests();
        assert!(
            reqs.iter().any(|r| r.injected > r.submitted),
            "service times never delayed an injection"
        );
    }

    #[test]
    fn steady_state_decides_every_request() {
        let scenario = &LoadScenario::catalogue()[0];
        let run = run_load(scenario, QueueCoreKind::Heap, 1, 1, false);
        assert!(run.submitted > 0);
        assert_eq!(
            run.histogram.count() + run.unfinished,
            run.submitted,
            "requests leaked"
        );
        assert_eq!(run.unfinished, 0, "steady state failed to drain");
        // Every decided value equals its request's proposed value and
        // latencies are positive (at least one delivery + ack).
        for c in &run.completed {
            assert!(c.decided > c.submitted);
        }
        assert!(run.histogram.p50() >= 1);
        assert!(run.histogram.p999() >= run.histogram.p50());
    }

    #[test]
    fn crash_scenario_keeps_deciding() {
        let scenario = LoadScenario::catalogue()
            .into_iter()
            .find(|s| s.crash.is_some())
            .expect("catalogue has a crash scenario");
        let run = run_load(&scenario, QueueCoreKind::Heap, 1, 1, false);
        assert_eq!(run.unfinished, 0, "follower crash stalled the pipeline");
        assert_eq!(run.histogram.count(), run.submitted);
    }

    #[test]
    fn partition_builds_then_drains_backlog() {
        let scenario = LoadScenario::catalogue()
            .into_iter()
            .find(|s| s.partition.is_some())
            .expect("catalogue has a partition scenario");
        let run = run_load(&scenario, QueueCoreKind::Heap, 1, 1, false);
        assert_eq!(run.unfinished, 0, "backlog failed to drain after healing");
        // The cut must be visible in the latency tail: the worst
        // request waited out a good part of the partition.
        let release = scenario.partition.as_ref().unwrap().2;
        assert!(
            run.histogram.max() >= release / 4,
            "partition left no latency signature (max {} < {})",
            run.histogram.max(),
            release / 4
        );
        // Log2 buckets are coarse: the tail can share the median's
        // bucket when most requests waited out the cut, so only a
        // non-strict ordering is guaranteed.
        assert!(run.histogram.p999() >= run.histogram.p50());
    }

    #[test]
    fn catalogue_is_named_and_valid() {
        let cat = LoadScenario::catalogue();
        assert_eq!(cat.len(), 3);
        let mut names: Vec<&str> = cat.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len(), "duplicate scenario names");
        for s in &cat {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(s.name.starts_with("load-"));
        }
    }

    #[test]
    fn invalid_scenarios_rejected() {
        let mut s = LoadScenario::catalogue().remove(0);
        s.crash = Some((0, 10));
        assert!(s.validate().is_err(), "proposer crash must be rejected");
        let mut s2 = LoadScenario::catalogue().remove(0);
        s2.spec.bits = 0;
        assert!(s2.validate().is_err());
        let mut s3 = LoadScenario::catalogue().remove(0);
        s3.spec.rate_per_kilotick = 0;
        assert!(s3.validate().is_err());
    }

    #[test]
    fn arrival_kind_parses_and_rejects() {
        assert_eq!("det".parse::<ArrivalKind>(), Ok(ArrivalKind::Deterministic));
        assert_eq!("poisson".parse::<ArrivalKind>(), Ok(ArrivalKind::Poisson));
        assert!("psoison".parse::<ArrivalKind>().is_err());
    }

    #[test]
    fn sweep_proves_identity_on_steady_state() {
        let row = sweep_load(&LoadScenario::catalogue()[0]);
        assert!(row.ok(), "{:?}", row.verdict);
        let rendered = render_load_rows(std::slice::from_ref(&row));
        assert!(rendered.contains("engine grid identical"));
        assert!(rendered.contains("1 passed, 0 failed"));
    }
}
