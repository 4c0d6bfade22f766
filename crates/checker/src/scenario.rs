//! Named adversarial scenarios and the cross-backend sweep over them.
//!
//! The paper's guarantees quantify over every scheduler and every
//! crash placement; a conformance check that only ever runs
//! sync/random/max-delay schedules is sampling a thin slice of that
//! space. A [`Scenario`] is a *data-driven* description of one
//! adversarial setup — algorithm, topology, scheduler (including
//! healing partitions, dual `F_prog`/`F_ack` bounds, and scripted
//! worst-case interleavings), crash plan (timed and mid-broadcast),
//! and inputs — that both execution backends can realize:
//!
//! * the discrete-event engine gets the scenario's scheduler verbatim
//!   via [`SimBackend`]'s scheduler factory plus its crash plan;
//! * the threaded runtime gets the same *crash plan* (timed crashes
//!   mapped onto wall-clock deadlines, one virtual tick =
//!   [`Scenario::TICK`]) under its own wall-clock timing — the
//!   adversarial *schedule* is engine-side by construction, which is
//!   exactly the point: the algorithm's guarantees (agreement,
//!   validity, termination) must hold under *both* timings, so the
//!   sweep cross-checks the outcomes through the shared
//!   [`MacLayer`] trait and reports the
//!   first diverging slot.
//!
//! Scenarios are plain data (no closures), so they can be generated by
//! property tests, rendered into reports, and swept deterministically:
//! the same scenario and seed always produce the same engine report,
//! and — for input-determined instances — the same sweep row.
//!
//! [`Scenario::catalogue`] is the named scenario library the
//! `amacl sweep` CLI subcommand and CI's scenario-sweep gate run;
//! [`Scenario::smoke`] is the bounded subset CI runs on every PR.
//!
//! Beyond the two execution backends, every sweep row also proves the
//! engine's report identical across the
//! [engine grid](crate::grid::engine_grid) — both queue cores, the
//! sharded engine, and the thread-per-shard parallel stepper — and
//! fails the row unless every [`MacReport`] matches field-for-field.
//! The row surfaces the coordinator's cross-shard counters
//! (cross-shard deliveries, window advances, load skew) and the
//! barrier-wait share (`barrier%`) as aligned report columns, so
//! partition imbalance is visible at a glance.
//!
//! # Which crash + schedule combinations stall wPAXOS
//!
//! Recorded findings from sweeping this catalogue and the scenario
//! property tests (`checker/tests/scenario_props.rs`):
//!
//! * **Majority loss stalls, minority loss does not.** wPAXOS needs a
//!   majority quorum of the *original* `n`. Crashing any minority —
//!   even the `f = ⌊(n-1)/2⌋` boundary the `crash-storm-minority`
//!   scenario drives (3 of 7, all at once, early) — leaves the
//!   survivors able to form ballots and terminate under every
//!   scheduler in the catalogue. One more crash (`f ≥ ⌈n/2⌉`) stalls
//!   every schedule: no quorum can ever assemble. This is the
//!   Theorem 3.2 boundary made concrete.
//! * **Crash + scripted starvation stalls legitimately.** A scripted
//!   schedule that defers a proposer's broadcasts to the horizon,
//!   combined with a mid-broadcast crash that silences the nodes its
//!   partial prefix reached, can leave the remaining live nodes
//!   waiting on a ballot that never completes within the horizon
//!   (discovered by the scenario proptests in PR 3 — which is why the
//!   random-descriptor determinism test asserts termination only for
//!   crash-free instances).
//! * **Healing partitions never stall, they only delay.** Any
//!   `Partition`/`MultiCut` schedule with finite release times (the
//!   `partition-heal` and `multi-cut-heal` scenarios) defers decisions
//!   until after the last release but cannot prevent them: `F_ack`
//!   still bounds every ack, so progress resumes once information can
//!   cross the healed cuts.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use amacl_core::two_phase::TwoPhase;
use amacl_core::wpaxos::{WpaxosConfig, WpaxosNode};
use amacl_model::ids::Slot;
use amacl_model::mac::{MacLayer, MacReport, SchedulerFactory, SimBackend};
use amacl_model::proc::Value;
use amacl_model::sim::config::EngineConfig;
use amacl_model::sim::crash::{CrashPlan, CrashSpec};
use amacl_model::sim::engine::RunReport;
use amacl_model::sim::sched::dual::DualBoundScheduler;
use amacl_model::sim::sched::partition::{DirectedCut, EdgeDelayScheduler};
use amacl_model::sim::sched::random::RandomScheduler;
use amacl_model::sim::sched::scripted::ScriptedScheduler;
use amacl_model::sim::sched::stall::MaxDelayScheduler;
use amacl_model::sim::sched::sync::SynchronousScheduler;
use amacl_model::sim::time::Time;
use amacl_model::sim::trace::Metrics;
use amacl_model::topo::Topology;
use amacl_runtime::{MacRuntime, RuntimeConfig};

use crate::crosscheck::{cross_check, CrossCheckConfig, CrossCheckOutcome};
use crate::grid::{check_engine_grid, diff_reports, grid_token};

/// Which algorithm a scenario runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScenarioAlgo {
    /// Algorithm 1 (single-hop, binary): requires a clique topology.
    TwoPhase,
    /// wPAXOS (multihop, majority quorums, needs `n`).
    Wpaxos,
}

/// Which topology a scenario runs over (plain data, generator-friendly).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScenarioTopo {
    /// Complete graph on `n` nodes.
    Clique(usize),
    /// Path on `n` nodes.
    Line(usize),
    /// Cycle on `n` nodes.
    Ring(usize),
    /// `w x h` grid.
    Grid(usize, usize),
    /// `w x h` grid with wraparound edges (every node degree 4, two
    /// disjoint routes around any cut — the sparse-but-redundant
    /// regime sharded large-topology work targets).
    Torus(usize, usize),
    /// `dim`-dimensional hypercube on `2^dim` nodes (logarithmic
    /// diameter, every edge a dimension flip).
    Hypercube(usize),
    /// Uniformly random spanning tree on `n` nodes (every edge a
    /// bridge: any internal crash partitions the network, so only
    /// leaf crashes are survivable).
    RandomTree(usize, u64),
}

impl ScenarioTopo {
    /// Builds the topology.
    pub fn build(&self) -> Topology {
        match *self {
            ScenarioTopo::Clique(n) => Topology::clique(n),
            ScenarioTopo::Line(n) => Topology::line(n),
            ScenarioTopo::Ring(n) => Topology::ring(n),
            ScenarioTopo::Grid(w, h) => Topology::grid(w, h),
            ScenarioTopo::Torus(w, h) => Topology::torus(w, h),
            ScenarioTopo::Hypercube(dim) => Topology::hypercube(dim),
            ScenarioTopo::RandomTree(n, seed) => Topology::random_tree(n, seed),
        }
    }
}

/// The engine-side adversary of a scenario.
///
/// Seeded variants take their seed from the sweep's run seed, so a
/// multi-seed sweep genuinely varies the adversary while staying
/// reproducible.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScenarioSched {
    /// Lockstep rounds of `f_ack` ticks.
    Sync {
        /// The `F_ack` bound.
        f_ack: u64,
    },
    /// Every broadcast takes the full `f_ack` (worst-case stall).
    MaxDelay {
        /// The `F_ack` bound.
        f_ack: u64,
    },
    /// Seeded random delays and skew under `f_ack`.
    Random {
        /// The `F_ack` bound.
        f_ack: u64,
    },
    /// Fast deliveries (`<= f_prog`), adversarially slow acks
    /// (`<= f_ack`) — the slow-ack/fast-progress skew.
    Dual {
        /// The progress bound (`1 <= f_prog <= f_ack`).
        f_prog: u64,
        /// The `F_ack` bound.
        f_ack: u64,
    },
    /// A directed partition healing at `release`: deliveries from
    /// `from` to `to` are withheld until then (on top of lockstep
    /// rounds of `f_ack`).
    Partition {
        /// Base lockstep `F_ack`.
        f_ack: u64,
        /// Sender side of the cut.
        from: Vec<usize>,
        /// Receiver side of the cut.
        to: Vec<usize>,
        /// Healing time.
        release: u64,
    },
    /// Several directed cuts healing at *different* times: cut `i`
    /// withholds deliveries `from_i -> to_i` until `release_i` (on top
    /// of lockstep rounds of `f_ack`). The multi-cut generalization of
    /// [`Partition`](ScenarioSched::Partition): the network heals in
    /// stages, and consensus must survive every intermediate regime.
    MultiCut {
        /// Base lockstep `F_ack`.
        f_ack: u64,
        /// The cuts, as `(from, to, release)` triples.
        cuts: Vec<(Vec<usize>, Vec<usize>, u64)>,
    },
    /// A scripted worst-case interleaving: per-(sender, nth broadcast)
    /// delays over a default.
    Scripted {
        /// Delay for unscripted broadcasts (`>= 1`).
        default_delay: u64,
        /// `(sender, nth broadcast, delay)` overrides (`delay >= 1`).
        delays: Vec<(usize, u64, u64)>,
    },
}

impl ScenarioSched {
    /// Packages this adversary as a fresh-per-execution
    /// [`SchedulerFactory`] for the engine backend.
    pub fn factory(&self, seed: u64) -> SchedulerFactory {
        match self.clone() {
            ScenarioSched::Sync { f_ack } => {
                Arc::new(move || Box::new(SynchronousScheduler::new(f_ack)))
            }
            ScenarioSched::MaxDelay { f_ack } => {
                Arc::new(move || Box::new(MaxDelayScheduler::new(f_ack)))
            }
            ScenarioSched::Random { f_ack } => {
                Arc::new(move || Box::new(RandomScheduler::new(f_ack, seed)))
            }
            ScenarioSched::Dual { f_prog, f_ack } => {
                Arc::new(move || Box::new(DualBoundScheduler::new(f_prog, f_ack, seed)))
            }
            ScenarioSched::Partition {
                f_ack,
                from,
                to,
                release,
            } => Arc::new(move || {
                Box::new(EdgeDelayScheduler::new(
                    SynchronousScheduler::new(f_ack),
                    vec![DirectedCut::new(
                        from.iter().copied().map(Slot),
                        to.iter().copied().map(Slot),
                        Time(release),
                    )],
                ))
            }),
            ScenarioSched::MultiCut { f_ack, cuts } => Arc::new(move || {
                Box::new(EdgeDelayScheduler::new(
                    SynchronousScheduler::new(f_ack),
                    cuts.iter()
                        .map(|(from, to, release)| {
                            DirectedCut::new(
                                from.iter().copied().map(Slot),
                                to.iter().copied().map(Slot),
                                Time(*release),
                            )
                        })
                        .collect(),
                ))
            }),
            ScenarioSched::Scripted {
                default_delay,
                delays,
            } => Arc::new(move || {
                let mut s = ScriptedScheduler::new(default_delay);
                for &(sender, nth, delay) in &delays {
                    s = s.delay(Slot(sender), nth, delay);
                }
                Box::new(s)
            }),
        }
    }

    /// Short adversary label for reports.
    pub fn label(&self) -> String {
        match self {
            ScenarioSched::Sync { f_ack } => format!("sync:{f_ack}"),
            ScenarioSched::MaxDelay { f_ack } => format!("max-delay:{f_ack}"),
            ScenarioSched::Random { f_ack } => format!("random:{f_ack}"),
            ScenarioSched::Dual { f_prog, f_ack } => format!("dual:{f_prog}:{f_ack}"),
            ScenarioSched::Partition { release, .. } => format!("partition@{release}"),
            ScenarioSched::MultiCut { cuts, .. } => format!("multi-cut[{}]", cuts.len()),
            ScenarioSched::Scripted { delays, .. } => format!("scripted[{}]", delays.len()),
        }
    }
}

/// How a scenario assigns initial values.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScenarioInputs {
    /// Everyone starts with `v` (input-determined decisions).
    Uniform(Value),
    /// `0,1,0,1,...`
    Alternating,
    /// An explicit per-slot assignment (how lowered model-checking
    /// counterexamples carry their exact instance; must have one value
    /// per node).
    Explicit(Vec<Value>),
}

impl ScenarioInputs {
    /// Materializes `n` inputs.
    pub fn materialize(&self, n: usize) -> Vec<Value> {
        match self {
            ScenarioInputs::Uniform(v) => vec![*v; n],
            ScenarioInputs::Alternating => (0..n).map(|i| (i % 2) as Value).collect(),
            ScenarioInputs::Explicit(vs) => vs.clone(),
        }
    }
}

/// One named adversarial scenario, runnable on both backends.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Scenario {
    /// Stable name (catalogue key, report label).
    pub name: String,
    /// Algorithm under test.
    pub algo: ScenarioAlgo,
    /// Topology.
    pub topo: ScenarioTopo,
    /// Engine-side adversary.
    pub sched: ScenarioSched,
    /// Crash plan (timed and mid-broadcast), applied to both backends.
    pub crashes: Vec<CrashSpec>,
    /// Initial values.
    pub inputs: ScenarioInputs,
    /// Demand bit-identical per-slot decisions across the backends.
    /// Sound only for crash-free, input-determined instances (uniform
    /// inputs): a crashed slot may decide on one backend and not the
    /// other, and mixed inputs admit several correct outcomes.
    pub strict: bool,
    /// This scenario is *supposed* to stall: the sweep asserts that
    /// not every live node decides (and that safety still holds among
    /// those that did), instead of asserting termination. Stall
    /// scenarios run engine-only — the adversarial schedule that
    /// starves progress is engine-side by construction, and the
    /// threaded runtime would merely burn its wall-clock timeout
    /// re-discovering that nothing happens.
    pub expect_stall: bool,
}

impl Scenario {
    /// Wall-clock length of one virtual tick when a crash plan is
    /// routed into the threaded runtime.
    pub const TICK: Duration = Duration::from_micros(500);

    /// Checks the descriptor's internal consistency (slots in range,
    /// one crash per node, mid-broadcast prefixes within the sender's
    /// degree, strictness only where it is sound).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if let ScenarioTopo::Torus(w, h) = self.topo {
            if w < 3 || h < 3 {
                return Err(format!(
                    "{}: torus needs both dimensions >= 3 (got {w}x{h})",
                    self.name
                ));
            }
        }
        let topo = self.topo.build();
        let n = topo.len();
        if n < 2 {
            return Err(format!("{}: needs at least 2 nodes", self.name));
        }
        if self.algo == ScenarioAlgo::TwoPhase && !matches!(self.topo, ScenarioTopo::Clique(_)) {
            return Err(format!(
                "{}: two-phase is single-hop (clique only)",
                self.name
            ));
        }
        if let ScenarioInputs::Explicit(vs) = &self.inputs {
            if vs.len() != n {
                return Err(format!(
                    "{}: explicit inputs need one value per node (got {} for n={n})",
                    self.name,
                    vs.len()
                ));
            }
        }
        for (i, a) in self.crashes.iter().enumerate() {
            if a.slot().index() >= n {
                return Err(format!(
                    "{}: crash slot {} out of range",
                    self.name,
                    a.slot()
                ));
            }
            if let CrashSpec::MidBroadcast {
                slot, delivered, ..
            } = *a
            {
                if delivered > topo.degree(slot) {
                    return Err(format!(
                        "{}: crash wants {delivered} deliveries but {slot} has degree {}",
                        self.name,
                        topo.degree(slot)
                    ));
                }
            }
            for b in &self.crashes[i + 1..] {
                if a.slot() == b.slot() {
                    return Err(format!("{}: duplicate crash for {}", self.name, a.slot()));
                }
            }
        }
        if let ScenarioSched::Partition { from, to, .. } = &self.sched {
            if from.iter().chain(to).any(|&s| s >= n) {
                return Err(format!(
                    "{}: partition names a slot out of range",
                    self.name
                ));
            }
        }
        if let ScenarioSched::MultiCut { cuts, .. } = &self.sched {
            for (from, to, _) in cuts {
                if from.iter().chain(to).any(|&s| s >= n) {
                    return Err(format!(
                        "{}: multi-cut names a slot out of range",
                        self.name
                    ));
                }
            }
        }
        if self.strict
            && (!self.crashes.is_empty() || !matches!(self.inputs, ScenarioInputs::Uniform(_)))
        {
            return Err(format!(
                "{}: strict comparison requires crash-free uniform inputs",
                self.name
            ));
        }
        if self.expect_stall && self.strict {
            return Err(format!(
                "{}: a stall scenario cannot demand identical decisions",
                self.name
            ));
        }
        Ok(())
    }

    /// The engine backend realizing this scenario on the default
    /// (serial heap) engine configuration.
    pub fn sim_backend(&self, seed: u64) -> SimBackend {
        SimBackend::with_factory(
            self.topo.build(),
            self.sched.label(),
            self.sched.factory(seed),
        )
        .seed(seed)
        .crash_plan(CrashPlan::new(self.crashes.clone()))
    }

    /// The threaded backend realizing this scenario's crash plan under
    /// wall-clock timing.
    pub fn runtime(&self, seed: u64) -> MacRuntime {
        let cfg = RuntimeConfig {
            max_jitter: Duration::from_micros(200),
            seed,
            timeout: Duration::from_secs(10),
            ..RuntimeConfig::default()
        }
        .with_crash_specs(&self.crashes, Self::TICK);
        MacRuntime::new(self.topo.build(), cfg)
    }

    /// Runs the scenario on the engine alone (determinism checks,
    /// quick sanity runs).
    pub fn run_engine(&self, seed: u64) -> MacReport {
        self.run_engine_with(seed, &EngineConfig::default()).0
    }

    /// Runs the scenario on the engine with `cfg`'s queue core, shard
    /// count and worker threads, returning the portable report plus
    /// the full engine report (whose metrics carry the coordinator
    /// counters). The seed and crash plan stay the scenario's.
    pub fn run_engine_with(&self, seed: u64, cfg: &EngineConfig) -> (MacReport, RunReport) {
        let mut backend = self
            .sim_backend(seed)
            .queue_core(cfg.queue_core)
            .shards(cfg.shards.get())
            .threads(cfg.threads.get());
        let n = self.topo.build().len();
        let iv = self.inputs.materialize(n);
        match self.algo {
            ScenarioAlgo::TwoPhase => {
                backend.execute_full(&mut |s: Slot| TwoPhase::new(iv[s.index()]))
            }
            ScenarioAlgo::Wpaxos => backend
                .execute_full(&mut |s: Slot| WpaxosNode::new(iv[s.index()], WpaxosConfig::new(n))),
        }
    }

    /// Runs the scenario on the threaded runtime alone.
    pub fn run_threads(&self, seed: u64) -> MacReport {
        let mut rt = self.runtime(seed);
        let n = self.topo.build().len();
        let iv = self.inputs.materialize(n);
        match self.algo {
            ScenarioAlgo::TwoPhase => rt.execute(&mut |s: Slot| TwoPhase::new(iv[s.index()])),
            ScenarioAlgo::Wpaxos => {
                rt.execute(&mut |s: Slot| WpaxosNode::new(iv[s.index()], WpaxosConfig::new(n)))
            }
        }
    }

    /// Runs the scenario on both backends and cross-checks the
    /// outcomes (per-backend agreement + termination + validity;
    /// identical decisions additionally when [`Scenario::strict`]).
    pub fn cross_check(&self, seed: u64) -> CrossCheckOutcome {
        let n = self.topo.build().len();
        let inputs = self.inputs.materialize(n);
        let mut sim = self.sim_backend(seed);
        let mut rt = self.runtime(seed);
        let cfg = CrossCheckConfig {
            expect_identical_decisions: self.strict,
            check_validity: true,
        };
        let iv = inputs.clone();
        match self.algo {
            ScenarioAlgo::TwoPhase => cross_check(
                &mut sim,
                &mut rt,
                &mut |s: Slot| TwoPhase::new(iv[s.index()]),
                &inputs,
                cfg,
            ),
            ScenarioAlgo::Wpaxos => cross_check(
                &mut sim,
                &mut rt,
                &mut |s: Slot| WpaxosNode::new(iv[s.index()], WpaxosConfig::new(n)),
                &inputs,
                cfg,
            ),
        }
    }

    /// The full named scenario catalogue: every adversary family the
    /// model articulates — lockstep, stalls, random skew, healing
    /// partitions, quorum-member timed crashes, partial-delivery
    /// crashes, slow-ack/fast-progress skew, scripted worst cases, and
    /// combinations.
    pub fn catalogue() -> Vec<Scenario> {
        let s = |name: &str,
                 algo: ScenarioAlgo,
                 topo: ScenarioTopo,
                 sched: ScenarioSched,
                 crashes: Vec<CrashSpec>,
                 inputs: ScenarioInputs,
                 strict: bool| Scenario {
            name: name.to_string(),
            algo,
            topo,
            sched,
            crashes,
            inputs,
            strict,
            expect_stall: false,
        };
        let stall = |name: &str,
                     topo: ScenarioTopo,
                     sched: ScenarioSched,
                     crashes: Vec<CrashSpec>| Scenario {
            name: name.to_string(),
            algo: ScenarioAlgo::Wpaxos,
            topo,
            sched,
            crashes,
            inputs: ScenarioInputs::Alternating,
            strict: false,
            expect_stall: true,
        };
        vec![
            s(
                "sync-lockstep",
                ScenarioAlgo::Wpaxos,
                ScenarioTopo::Clique(5),
                ScenarioSched::Sync { f_ack: 4 },
                vec![],
                ScenarioInputs::Uniform(1),
                true,
            ),
            s(
                "max-delay-stall",
                ScenarioAlgo::TwoPhase,
                ScenarioTopo::Clique(6),
                ScenarioSched::MaxDelay { f_ack: 8 },
                vec![],
                ScenarioInputs::Uniform(0),
                true,
            ),
            s(
                "random-skew-grid",
                ScenarioAlgo::Wpaxos,
                ScenarioTopo::Grid(3, 3),
                ScenarioSched::Random { f_ack: 4 },
                vec![],
                ScenarioInputs::Alternating,
                false,
            ),
            s(
                "partition-heal",
                ScenarioAlgo::Wpaxos,
                ScenarioTopo::Line(6),
                ScenarioSched::Partition {
                    f_ack: 2,
                    from: vec![2],
                    to: vec![3],
                    release: 60,
                },
                vec![],
                ScenarioInputs::Alternating,
                false,
            ),
            s(
                "quorum-timed-crashes",
                ScenarioAlgo::Wpaxos,
                ScenarioTopo::Clique(5),
                ScenarioSched::Random { f_ack: 4 },
                vec![
                    CrashSpec::AtTime {
                        slot: Slot(0),
                        time: Time(3),
                    },
                    CrashSpec::AtTime {
                        slot: Slot(1),
                        time: Time(7),
                    },
                ],
                ScenarioInputs::Alternating,
                false,
            ),
            s(
                "mid-broadcast-partial",
                ScenarioAlgo::Wpaxos,
                ScenarioTopo::Clique(5),
                ScenarioSched::Random { f_ack: 4 },
                vec![CrashSpec::MidBroadcast {
                    slot: Slot(0),
                    nth_broadcast: 1,
                    delivered: 2,
                }],
                ScenarioInputs::Alternating,
                false,
            ),
            s(
                "slow-ack-fast-progress",
                ScenarioAlgo::Wpaxos,
                ScenarioTopo::Grid(3, 2),
                ScenarioSched::Dual {
                    f_prog: 1,
                    f_ack: 16,
                },
                vec![],
                ScenarioInputs::Uniform(1),
                true,
            ),
            s(
                "scripted-late-leader",
                ScenarioAlgo::Wpaxos,
                ScenarioTopo::Clique(4),
                ScenarioSched::Scripted {
                    default_delay: 1,
                    delays: vec![(0, 0, 16), (0, 1, 16), (0, 2, 16)],
                },
                vec![],
                ScenarioInputs::Uniform(0),
                true,
            ),
            s(
                "double-fault",
                ScenarioAlgo::Wpaxos,
                ScenarioTopo::Clique(7),
                ScenarioSched::Random { f_ack: 4 },
                vec![
                    CrashSpec::AtTime {
                        slot: Slot(0),
                        time: Time(4),
                    },
                    CrashSpec::MidBroadcast {
                        slot: Slot(1),
                        nth_broadcast: 0,
                        delivered: 1,
                    },
                ],
                ScenarioInputs::Alternating,
                false,
            ),
            s(
                "ring-timed-crash",
                ScenarioAlgo::Wpaxos,
                ScenarioTopo::Ring(6),
                ScenarioSched::Random { f_ack: 6 },
                vec![CrashSpec::AtTime {
                    slot: Slot(3),
                    time: Time(10),
                }],
                ScenarioInputs::Uniform(1),
                false,
            ),
            // The network heals in stages: the 2->3 cut on a line of 8
            // releases at t=50, the 5->4 cut only at t=110 — consensus
            // must survive the intermediate one-way regime and may only
            // complete once information can flow both ways again.
            s(
                "multi-cut-heal",
                ScenarioAlgo::Wpaxos,
                ScenarioTopo::Line(8),
                ScenarioSched::MultiCut {
                    f_ack: 2,
                    cuts: vec![(vec![2], vec![3], 50), (vec![5], vec![4], 110)],
                },
                vec![],
                ScenarioInputs::Alternating,
                false,
            ),
            // The f = minority boundary: 3 of 7 nodes — the largest
            // crashable set that still leaves a majority — die in one
            // early storm. The surviving 4 are exactly a quorum, so
            // wPAXOS must still terminate; one more crash would stall
            // every schedule (see the module docs).
            s(
                "crash-storm-minority",
                ScenarioAlgo::Wpaxos,
                ScenarioTopo::Clique(7),
                ScenarioSched::Random { f_ack: 4 },
                vec![
                    CrashSpec::AtTime {
                        slot: Slot(0),
                        time: Time(2),
                    },
                    CrashSpec::AtTime {
                        slot: Slot(1),
                        time: Time(2),
                    },
                    CrashSpec::AtTime {
                        slot: Slot(2),
                        time: Time(2),
                    },
                ],
                ScenarioInputs::Alternating,
                false,
            ),
            // A 4x4 torus heals in stages: the column cut 1 -> 2
            // releases at t=40, the row cut (0..4) -> (4..8) only at
            // t=90. Unlike the line scenarios, the wraparound edges
            // leave alternate routes around each cut, so consensus may
            // finish early by routing the long way — the cut delays
            // information without ever severing the graph.
            s(
                "torus-multi-cut",
                ScenarioAlgo::Wpaxos,
                ScenarioTopo::Torus(4, 4),
                ScenarioSched::MultiCut {
                    f_ack: 2,
                    cuts: vec![
                        (vec![1, 5, 9, 13], vec![2, 6, 10, 14], 40),
                        (vec![0, 1, 2, 3], vec![4, 5, 6, 7], 90),
                    ],
                },
                vec![],
                ScenarioInputs::Alternating,
                false,
            ),
            // A random spanning tree under a crash storm at the
            // boundary: every edge is a bridge, so the storm may only
            // take leaves (slots 0, 2, 3 and mid-broadcast-crashed 4
            // all have degree 1 in random_tree(9, 5)) — 4 of 9 crash,
            // the surviving 5 are exactly a majority and stay
            // connected through the hub, so wPAXOS must still
            // terminate.
            s(
                "random-tree-crash-storm",
                ScenarioAlgo::Wpaxos,
                ScenarioTopo::RandomTree(9, 5),
                ScenarioSched::Random { f_ack: 4 },
                vec![
                    CrashSpec::AtTime {
                        slot: Slot(0),
                        time: Time(2),
                    },
                    CrashSpec::AtTime {
                        slot: Slot(2),
                        time: Time(2),
                    },
                    CrashSpec::AtTime {
                        slot: Slot(3),
                        time: Time(3),
                    },
                    CrashSpec::MidBroadcast {
                        slot: Slot(4),
                        nth_broadcast: 0,
                        delivered: 1,
                    },
                ],
                ScenarioInputs::Alternating,
                false,
            ),
            // The F_prog/F_ack skew on a hypercube: deliveries are
            // near-instant, acks adversarially late, and the
            // logarithmic diameter means the skew dominates every
            // ballot round-trip. Crash-free uniform inputs, so the
            // cross-backend comparison is strict.
            s(
                "hypercube-dual-skew",
                ScenarioAlgo::Wpaxos,
                ScenarioTopo::Hypercube(3),
                ScenarioSched::Dual {
                    f_prog: 2,
                    f_ack: 12,
                },
                vec![],
                ScenarioInputs::Uniform(1),
                true,
            ),
            // The first module-docs stall finding, promoted to a named
            // entry: one crash past the minority boundary (4 of 7, all
            // at t=2) removes every possible quorum, so wPAXOS stalls
            // under any schedule — the Theorem 3.2 boundary from the
            // other side. The sweep asserts the stall and that the
            // whole engine grid agrees on it byte for byte.
            stall(
                "wpaxos-majority-loss-stall",
                ScenarioTopo::Clique(7),
                ScenarioSched::Random { f_ack: 4 },
                vec![
                    CrashSpec::AtTime {
                        slot: Slot(0),
                        time: Time(2),
                    },
                    CrashSpec::AtTime {
                        slot: Slot(1),
                        time: Time(2),
                    },
                    CrashSpec::AtTime {
                        slot: Slot(2),
                        time: Time(2),
                    },
                    CrashSpec::AtTime {
                        slot: Slot(3),
                        time: Time(2),
                    },
                ],
            ),
            // The second module-docs stall finding: a scripted schedule
            // that defers a proposer's first broadcast past the virtual
            // horizon, plus a mid-broadcast crash silencing part of the
            // network, leaves the survivors waiting on a ballot that
            // never completes within the horizon. A *legitimate* stall
            // — the scheduler simply never grants the F_ack bound the
            // liveness argument assumes.
            stall(
                "wpaxos-starvation-stall",
                ScenarioTopo::Clique(4),
                ScenarioSched::Scripted {
                    default_delay: 1,
                    delays: vec![(0, 0, 20_000_000)],
                },
                vec![CrashSpec::MidBroadcast {
                    slot: Slot(1),
                    nth_broadcast: 0,
                    delivered: 1,
                }],
            ),
            // A model-checking counterexample, permanently enrolled:
            // the schedule on which the explorer catches the seeded
            // early-ack ledger mutation (two-phase wedges with node 1
            // decided and node 0 waiting on a delivery the mutated
            // ledger pretended had happened), lowered by
            // `MacExploreDescriptor::lower` into a scripted adversary.
            // The literal is pinned byte-for-byte against the
            // converter's output by
            // `explore_mac::tests::catalogue_witness_matches_the_lowering`.
            // On the *unmutated* backends the same schedule must run
            // clean — proving the bug lives behind the seam, not in
            // the schedule.
            Scenario {
                name: "explored-ack-early-witness".to_string(),
                algo: ScenarioAlgo::TwoPhase,
                topo: ScenarioTopo::Clique(2),
                sched: ScenarioSched::Scripted {
                    default_delay: 1,
                    delays: vec![(0, 0, 3), (0, 1, 2), (1, 0, 6), (1, 1, 1)],
                },
                crashes: vec![],
                inputs: ScenarioInputs::Explicit(vec![0, 1]),
                strict: false,
                expect_stall: false,
            },
        ]
    }

    /// The bounded subset CI runs on every PR: every adversary family,
    /// smallest instances.
    pub fn smoke() -> Vec<Scenario> {
        let keep = [
            "sync-lockstep",
            "max-delay-stall",
            "partition-heal",
            "multi-cut-heal",
            "torus-multi-cut",
            "random-tree-crash-storm",
            "quorum-timed-crashes",
            "mid-broadcast-partial",
            "scripted-late-leader",
        ];
        Self::catalogue()
            .into_iter()
            .filter(|s| keep.contains(&s.name.as_str()))
            .collect()
    }

    /// Looks a scenario up by catalogue name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Self::catalogue().into_iter().find(|s| s.name == name)
    }
}

/// The cross-shard coordinator counters of one sweep row's grid runs,
/// surfaced so shard-partition imbalance is visible directly in
/// `amacl sweep` output.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SweepShardStats {
    /// Deliveries scheduled into another shard.
    pub cross_shard_deliveries: u64,
    /// Conservative windows the coordinator opened.
    pub window_advances: u64,
    /// Busiest shard's event share over the mean, in percent
    /// (`100` = perfectly balanced).
    pub skew_pct: u64,
    /// Share of the parallel stepper's worker time lost to window
    /// barriers, in percent (wall-clock derived: varies run to run and
    /// never participates in identity comparisons).
    pub barrier_pct: u64,
    /// Worker passes through pool-executed windows on the parallel
    /// stepper (worker groups × pooled windows; pure wake-policy,
    /// never part of identity comparisons).
    pub worker_wakeups: u64,
    /// Payload clones the sharded run performed (see
    /// [`Metrics::payload_clones`](amacl_model::sim::trace::Metrics::payload_clones);
    /// like `barrier_pct`, this varies with the shard count and never
    /// participates in identity comparisons).
    pub payload_clones: u64,
}

impl SweepShardStats {
    /// Folds in one grid run's counters: the first sharded, serially
    /// stepped run fills the cross-shard and window columns (a sharded
    /// run always opens a window), the parallel-stepped run fills
    /// `barrier%` and `passes`.
    fn record(&mut self, cfg: &EngineConfig, m: &Metrics) {
        if cfg.threads.get() > 1 {
            self.barrier_pct = m.barrier_pct().round() as u64;
            self.worker_wakeups = m.worker_wakeups;
        } else if cfg.shards.get() > 1 && self.window_advances == 0 {
            self.cross_shard_deliveries = m.cross_shard_deliveries;
            self.window_advances = m.shard_window_advances;
            self.skew_pct = (m.shard_skew() * 100.0).round() as u64;
            self.payload_clones = m.payload_clones;
        }
    }
}

/// One sweep row: a scenario run under one seed, condensed to the
/// deterministic facts a report gates on.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SweepRow {
    /// Scenario name.
    pub scenario: String,
    /// Run seed.
    pub seed: u64,
    /// Whether every required property held.
    pub ok: bool,
    /// Condensed outcome: per-backend agreement values, the first
    /// diverging slot (or `-`), and the engine-grid verdict.
    pub summary: String,
    /// Coordinator counters from the row's grid runs.
    pub shard_stats: SweepShardStats,
    /// The failures, verbatim (empty when `ok`).
    pub failures: Vec<String>,
}

/// Runs one scenario under one seed and condenses the outcome.
///
/// A normal row cross-checks the engine against the threaded runtime.
/// An [`Scenario::expect_stall`] row runs the engine alone and asserts
/// the stall (some live node never decides within the horizon) with
/// safety intact among the deciders; the runtime is skipped because
/// the starving schedule is engine-side by construction, and it would
/// only burn its wall-clock timeout confirming that nothing happens.
/// Either way the engine report is then proven identical across the
/// [engine grid](crate::grid::engine_grid), reusing the report already
/// in hand as the reference.
pub fn sweep_scenario(scenario: &Scenario, seed: u64) -> SweepRow {
    if let Err(e) = scenario.validate() {
        return SweepRow {
            scenario: scenario.name.clone(),
            seed,
            ok: false,
            summary: "invalid scenario".into(),
            shard_stats: SweepShardStats::default(),
            failures: vec![e],
        };
    }
    let fmt_vals = |vals: Vec<Value>| -> String {
        if vals.is_empty() {
            "none".to_string()
        } else {
            vals.iter()
                .map(Value::to_string)
                .collect::<Vec<_>>()
                .join(",")
        }
    };
    let (reference, mut failures, head) = if scenario.expect_stall {
        let serial = scenario.run_engine(seed);
        let mut failures = Vec::new();
        if serial.all_decided {
            failures.push("expected a stall, but every node decided".to_string());
        }
        let decided = serial.decided_values();
        if decided.len() > 1 {
            failures.push(format!(
                "agreement violated among the deciders: {decided:?}"
            ));
        }
        let inputs = scenario.inputs.materialize(scenario.topo.build().len());
        for v in &decided {
            if !inputs.contains(v) {
                failures.push(format!("validity violated: decided {v} was nobody's input"));
            }
        }
        let head = format!(
            "sim decided {} | stalled as expected (threads skipped)",
            fmt_vals(decided)
        );
        (serial, failures, head)
    } else {
        let outcome = scenario.cross_check(seed);
        let divergence = match &outcome.divergence {
            None => "-".to_string(),
            Some(d) => format!("slot {}", d.index),
        };
        let head = format!(
            "sim decided {} | threads decided {} | first divergence {divergence}",
            fmt_vals(outcome.left.decided_values()),
            fmt_vals(outcome.right.decided_values()),
        );
        (outcome.left, outcome.failures, head)
    };
    let mut shard_stats = SweepShardStats::default();
    let (_, verdict) = check_engine_grid(
        Some(reference),
        &[],
        |cfg| {
            let (report, full) = scenario.run_engine_with(seed, cfg);
            shard_stats.record(cfg, &full.metrics);
            report
        },
        diff_reports,
    );
    if let Err(d) = &verdict {
        failures.push(d.to_string());
    }
    SweepRow {
        scenario: scenario.name.clone(),
        seed,
        ok: failures.is_empty(),
        summary: format!("{head} | {}", grid_token(&verdict)),
        shard_stats,
        failures,
    }
}

/// The outcome of a full sweep: one row per (scenario, seed).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SweepOutcome {
    /// Rows in (scenario, seed) order.
    pub rows: Vec<SweepRow>,
}

impl SweepOutcome {
    /// `true` when every row passed.
    pub fn ok(&self) -> bool {
        self.rows.iter().all(|r| r.ok)
    }

    /// Deterministic plain-text report (byte-identical across runs of
    /// the same scenarios and seeds, for input-determined scenarios).
    ///
    /// Every column — including the cross-shard counter columns, whose
    /// widths vary wildly between a 4-node clique and a 16-node torus
    /// — is padded to the widest value *across all rows*, so the table
    /// stays aligned whatever mix of scenarios a sweep covers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .rows
            .iter()
            .map(|r| r.scenario.len())
            .max()
            .unwrap_or(8)
            .max(8);
        // Counter columns sized to their widest row (min: header).
        let digits = |v: u64| v.to_string().len();
        let col = |head: &str, f: fn(&SweepShardStats) -> u64| {
            self.rows
                .iter()
                .map(|r| digits(f(&r.shard_stats)))
                .max()
                .unwrap_or(0)
                .max(head.len())
        };
        let (w_xd, w_win, w_skew, w_bar, w_wk, w_pc) = (
            col("xdeliv", |s| s.cross_shard_deliveries),
            col("windows", |s| s.window_advances),
            col("skew%", |s| s.skew_pct),
            col("barrier%", |s| s.barrier_pct),
            col("passes", |s| s.worker_wakeups),
            col("pclones", |s| s.payload_clones),
        );
        let _ = writeln!(
            out,
            "{:<width$} {:>6} {:>6} {:>w_xd$} {:>w_win$} {:>w_skew$} {:>w_bar$} {:>w_wk$} \
             {:>w_pc$}  summary",
            "scenario",
            "seed",
            "status",
            "xdeliv",
            "windows",
            "skew%",
            "barrier%",
            "passes",
            "pclones"
        );
        for row in &self.rows {
            let s = &row.shard_stats;
            let _ = writeln!(
                out,
                "{:<width$} {:>6} {:>6} {:>w_xd$} {:>w_win$} {:>w_skew$} {:>w_bar$} {:>w_wk$} \
                 {:>w_pc$}  {}",
                row.scenario,
                row.seed,
                if row.ok { "ok" } else { "FAIL" },
                s.cross_shard_deliveries,
                s.window_advances,
                s.skew_pct,
                s.barrier_pct,
                s.worker_wakeups,
                s.payload_clones,
                row.summary
            );
            for f in &row.failures {
                let _ = writeln!(out, "{:<width$}        FAILURE: {f}", "");
            }
        }
        let failed = self.rows.iter().filter(|r| !r.ok).count();
        let _ = writeln!(
            out,
            "{} runs, {} passed, {} failed",
            self.rows.len(),
            self.rows.len() - failed,
            failed
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amacl_model::sim::queue::QueueCoreKind;

    #[test]
    fn catalogue_is_large_named_and_valid() {
        let cat = Scenario::catalogue();
        assert!(cat.len() >= 8, "catalogue has {} scenarios", cat.len());
        let mut names: Vec<&str> = cat.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate scenario names");
        for s in &cat {
            s.validate().unwrap_or_else(|e| panic!("{e}"));
        }
        // Every adversary family is represented.
        for family in [
            "Sync",
            "MaxDelay",
            "Random",
            "Dual",
            "Partition",
            "Scripted",
        ] {
            assert!(
                cat.iter()
                    .any(|s| format!("{:?}", s.sched).starts_with(family)),
                "no {family} scenario in the catalogue"
            );
        }
        // The sparse-topology families opened by the sharding work are
        // represented.
        for topo in ["Torus", "Hypercube", "RandomTree"] {
            assert!(
                cat.iter()
                    .any(|s| format!("{:?}", s.topo).starts_with(topo)),
                "no {topo} scenario in the catalogue"
            );
        }
        // And crashes of both kinds are exercised.
        assert!(cat.iter().any(|s| s
            .crashes
            .iter()
            .any(|c| matches!(c, CrashSpec::AtTime { .. }))));
        assert!(cat.iter().any(|s| s
            .crashes
            .iter()
            .any(|c| matches!(c, CrashSpec::MidBroadcast { .. }))));
    }

    #[test]
    fn smoke_is_a_nonempty_catalogue_subset() {
        let smoke = Scenario::smoke();
        assert!(!smoke.is_empty());
        for s in &smoke {
            assert!(Scenario::by_name(&s.name).is_some());
        }
        assert!(smoke.len() < Scenario::catalogue().len());
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(Scenario::by_name("partition-heal").is_some());
        assert!(Scenario::by_name("no-such-scenario").is_none());
    }

    #[test]
    fn validate_rejects_bad_descriptors() {
        let mut s = Scenario::by_name("sync-lockstep").unwrap();
        s.crashes = vec![CrashSpec::AtTime {
            slot: Slot(99),
            time: Time(1),
        }];
        assert!(s.validate().unwrap_err().contains("out of range"));

        let mut s = Scenario::by_name("sync-lockstep").unwrap();
        s.inputs = ScenarioInputs::Alternating; // still strict: unsound
        assert!(s.validate().unwrap_err().contains("strict"));

        let mut s = Scenario::by_name("mid-broadcast-partial").unwrap();
        s.crashes = vec![CrashSpec::MidBroadcast {
            slot: Slot(0),
            nth_broadcast: 0,
            delivered: 99,
        }];
        assert!(s.validate().unwrap_err().contains("degree"));

        let mut s = Scenario::by_name("partition-heal").unwrap();
        s.algo = ScenarioAlgo::TwoPhase;
        assert!(s.validate().unwrap_err().contains("single-hop"));

        let mut s = Scenario::by_name("sync-lockstep").unwrap();
        s.expect_stall = true; // still strict: contradiction
        assert!(s.validate().unwrap_err().contains("stall"));

        let mut s = Scenario::by_name("sync-lockstep").unwrap();
        s.inputs = ScenarioInputs::Explicit(vec![1, 1]); // clique is 5 nodes
        s.strict = false;
        assert!(s.validate().unwrap_err().contains("one value per node"));
    }

    /// The first promoted module-docs stall finding, now a named entry:
    /// 4 of 7 crashing at t=2 removes every quorum and wPAXOS stalls;
    /// dropping any one crash restores the minority boundary and the
    /// same adversary terminates.
    #[test]
    fn majority_loss_stall_entry_stalls_and_healed_variant_terminates() {
        let scenario = Scenario::by_name("wpaxos-majority-loss-stall").unwrap();
        assert!(scenario.expect_stall);
        let report = scenario.run_engine(2);
        assert!(!report.all_decided, "majority loss failed to stall");
        assert!(report.decided_values().len() <= 1, "safety among deciders");
        let mut healed = scenario.clone();
        healed.crashes.pop();
        healed.expect_stall = false;
        let report = healed.run_engine(2);
        assert!(
            report.all_decided,
            "minority loss must terminate: {:?}",
            report.decisions
        );
    }

    /// The second promoted module-docs stall finding: deferring the
    /// proposer's broadcast past the horizon plus a partial-prefix
    /// crash starves consensus; with the crash removed and the delay
    /// made finite, the same shape terminates.
    #[test]
    fn starvation_stall_entry_stalls_and_crash_free_variant_terminates() {
        let scenario = Scenario::by_name("wpaxos-starvation-stall").unwrap();
        assert!(scenario.expect_stall);
        let report = scenario.run_engine(1);
        assert!(!report.all_decided, "starvation schedule failed to stall");
        assert!(report.decided_values().len() <= 1, "safety among deciders");
        let mut healed = scenario.clone();
        healed.crashes.clear();
        healed.sched = ScenarioSched::Scripted {
            default_delay: 1,
            delays: vec![(0, 0, 50)],
        };
        healed.expect_stall = false;
        let report = healed.run_engine(1);
        assert!(
            report.all_decided,
            "finite deferral must only delay: {:?}",
            report.decisions
        );
    }

    /// Stall rows run engine-only and gate on the stall itself: a
    /// scenario marked `expect_stall` that terminates is a sweep
    /// failure.
    #[test]
    fn stall_rows_sweep_engine_only_and_gate_on_the_stall() {
        let scenario = Scenario::by_name("wpaxos-majority-loss-stall").unwrap();
        let row = sweep_scenario(&scenario, 1);
        assert!(row.ok, "{:?}", row.failures);
        assert!(
            row.summary.contains("stalled as expected"),
            "{}",
            row.summary
        );
        let mut bogus = Scenario::by_name("sync-lockstep").unwrap();
        bogus.strict = false;
        bogus.expect_stall = true;
        let row = sweep_scenario(&bogus, 1);
        assert!(!row.ok);
        assert!(
            row.failures.iter().any(|f| f.contains("expected a stall")),
            "{:?}",
            row.failures
        );
    }

    #[test]
    fn engine_runs_are_deterministic_per_scenario_and_seed() {
        for scenario in Scenario::catalogue() {
            let a = scenario.run_engine(7);
            let b = scenario.run_engine(7);
            assert_eq!(a, b, "{} diverged from itself", scenario.name);
        }
    }

    /// Runs every catalogue scenario at each seed over the engine grid
    /// plus `extra`, handing each configuration's full report to
    /// `inspect`, and fails on the first divergence from the reference.
    fn catalogue_on_grid(
        seeds: &[u64],
        extra: &[EngineConfig],
        inspect: impl Fn(&Scenario, &EngineConfig, &RunReport),
    ) {
        for scenario in Scenario::catalogue() {
            for &seed in seeds {
                let run = |cfg: &EngineConfig| {
                    let (report, full) = scenario.run_engine_with(seed, cfg);
                    inspect(&scenario, cfg, &full);
                    report
                };
                if let (_, Err(d)) = check_engine_grid(None, extra, run, diff_reports) {
                    panic!("{} seed {seed}: {d}", scenario.name);
                }
            }
        }
    }

    fn calendar() -> EngineConfig {
        EngineConfig::new().queue_core(QueueCoreKind::Calendar)
    }

    /// The queue cores are interchangeable on the whole catalogue:
    /// heap- and calendar-backed engines (both on the grid) report
    /// byte-identically on every scenario and several seeds.
    #[test]
    fn queue_cores_report_identically_across_the_catalogue() {
        catalogue_on_grid(&[0, 3, 11], &[], |_, _, _| {});
    }

    /// The acceptance gate for the sharded engine: for every catalogue
    /// scenario and **both** queue cores, the S ∈ {2, 4} sharded
    /// engine reports byte-identically to serial, and every sharded run
    /// opens a window.
    #[test]
    fn sharded_engine_reports_identically_across_the_catalogue() {
        let extra = [calendar().shards(2), EngineConfig::new().shards(4)];
        catalogue_on_grid(&[1], &extra, |scenario, cfg, full| {
            assert!(
                cfg.shards.get() == 1 || full.metrics.shard_window_advances > 0,
                "{}: coordinator never opened a window",
                scenario.name
            );
        });
    }

    /// The acceptance gate for the parallel stepper: for every
    /// catalogue scenario and **both** queue cores, the S=4 engine
    /// stepped by 4 worker threads reports byte-identically to serial,
    /// and the worker timers stay coherent (a bounded barrier share).
    #[test]
    fn threaded_engine_reports_identically_across_the_catalogue() {
        let extra = [calendar().shards(4).threads(4)];
        catalogue_on_grid(&[1], &extra, |_, _, full| {
            let pct = full.metrics.barrier_pct();
            assert!((0.0..=100.0).contains(&pct), "barrier share {pct}");
        });
    }

    /// The torus multi-cut heals without ever severing the graph: the
    /// wraparound routes keep consensus possible throughout, and every
    /// node decides.
    #[test]
    fn torus_multi_cut_terminates_with_agreement() {
        let scenario = Scenario::by_name("torus-multi-cut").unwrap();
        let report = scenario.run_engine(4);
        assert!(report.all_decided, "{:?}", report.decisions);
        assert_eq!(report.decided_values().len(), 1, "agreement on the torus");
    }

    /// The random-tree crash storm only takes leaves (any internal
    /// crash would partition the tree), leaving exactly a majority —
    /// which must still decide.
    #[test]
    fn random_tree_crash_storm_spares_the_spine_and_terminates() {
        let scenario = Scenario::by_name("random-tree-crash-storm").unwrap();
        let topo = scenario.topo.build();
        for crash in &scenario.crashes {
            assert_eq!(
                topo.degree(crash.slot()),
                1,
                "{} crashes non-leaf {} — that would partition the tree",
                scenario.name,
                crash.slot()
            );
        }
        assert_eq!(topo.len() - scenario.crashes.len(), 5, "exact majority");
        let report = scenario.run_engine(2);
        assert!(
            report.all_decided,
            "survivor quorum failed to decide: {:?}",
            report.decisions
        );
        assert_eq!(report.decided_values().len(), 1);
    }

    #[test]
    fn multi_cut_heal_delays_decisions_past_the_last_release() {
        let scenario = Scenario::by_name("multi-cut-heal").unwrap();
        let (report, full) = scenario.sim_backend(5).execute_full(&mut |s: Slot| {
            WpaxosNode::new((s.index() % 2) as Value, WpaxosConfig::new(8))
        });
        assert!(report.all_decided);
        // The 5 -> 4 cut only heals at t=110; no global decision can
        // complete while a direction of the line is still severed.
        assert!(
            full.max_decision_time().unwrap() >= Time(110),
            "decided at {:?} before the last cut healed",
            full.max_decision_time()
        );
    }

    #[test]
    fn crash_storm_at_the_minority_boundary_still_terminates() {
        let scenario = Scenario::by_name("crash-storm-minority").unwrap();
        let report = scenario.run_engine(2);
        assert!(
            report.all_decided,
            "survivor quorum failed to decide: {:?}",
            report.decisions
        );
        // The three storm victims never decide (they die at t=2,
        // before any ballot can complete under F_ack = 4).
        for slot in 0..3 {
            assert_eq!(report.decisions[slot], None, "dead node {slot} decided");
        }
        assert_eq!(
            report.decided_values().len(),
            1,
            "agreement among survivors"
        );
    }

    /// One crash past the minority boundary (4 of 7) removes the
    /// quorum: wPAXOS must stall — the Theorem 3.2 boundary the module
    /// docs record.
    #[test]
    fn crash_storm_past_the_boundary_stalls() {
        let mut scenario = Scenario::by_name("crash-storm-minority").unwrap();
        scenario.crashes.push(CrashSpec::AtTime {
            slot: Slot(3),
            time: Time(2),
        });
        scenario.validate().unwrap();
        let report = scenario.run_engine(2);
        assert!(
            !report.all_decided,
            "no majority survives, yet the run claims completion"
        );
    }

    #[test]
    fn partition_scenario_stalls_then_heals_on_the_engine() {
        let scenario = Scenario::by_name("partition-heal").unwrap();
        let (report, full) = scenario.sim_backend(3).execute_full(&mut |s: Slot| {
            WpaxosNode::new((s.index() % 2) as Value, WpaxosConfig::new(6))
        });
        assert!(report.all_decided);
        // The cut withholds 2 -> 3 until t=60; consensus cannot
        // complete before information crosses the healed cut.
        assert!(
            full.max_decision_time().unwrap() >= Time(60),
            "decided at {:?} before the partition healed",
            full.max_decision_time()
        );
    }

    /// The acceptance gate: every catalogue scenario cross-checks
    /// clean on both backends.
    #[test]
    fn full_catalogue_cross_checks_clean() {
        let outcome = SweepOutcome {
            rows: Scenario::catalogue()
                .iter()
                .map(|s| sweep_scenario(s, 1))
                .collect(),
        };
        assert!(outcome.ok(), "sweep failed:\n{}", outcome.render());
        assert_eq!(outcome.rows.len(), Scenario::catalogue().len());
    }

    #[test]
    fn sweep_row_reports_invalid_scenarios_as_failures() {
        let mut s = Scenario::by_name("sync-lockstep").unwrap();
        s.crashes = vec![CrashSpec::AtTime {
            slot: Slot(42),
            time: Time(1),
        }];
        s.strict = false;
        let row = sweep_scenario(&s, 0);
        assert!(!row.ok);
        assert!(row.failures[0].contains("out of range"));
    }

    #[test]
    fn render_is_stable_and_lists_every_row() {
        let rows: Vec<SweepRow> = Scenario::smoke()
            .iter()
            .map(|s| sweep_scenario(s, 2))
            .collect();
        let outcome = SweepOutcome { rows };
        let text = outcome.render();
        for s in Scenario::smoke() {
            assert!(text.contains(&s.name), "{text}");
        }
        assert!(text.contains("passed"), "{text}");
    }
}
