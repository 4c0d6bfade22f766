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
//!   [`MacLayer`](amacl_model::mac::MacLayer) trait and reports the
//!   first diverging slot.
//!
//! Scenarios are plain data (no closures), so they can be generated by
//! property tests, rendered into reports, and swept deterministically:
//! the same scenario and seed always produce the same engine report,
//! and — for input-determined instances — the same sweep row.
//!
//! The four instance descriptors — [`ScenarioAlgo`], [`ScenarioTopo`],
//! [`ScenarioSched`] and [`ScenarioInputs`] — are also the `amacl` CLI's
//! vocabulary: each parses the spec text the CLI takes (`two-phase`,
//! `grid:4x3`, `random:4:42`, `alt`, ...). [`ScenarioAlgo::visit`] is
//! the one table of algorithm constructors, and [`ScenarioAlgo::check`]
//! the one statement of their instance rules, shared by the CLI, the
//! scenarios and the explorer.
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

use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use amacl_core::baselines::flood_gather::FloodGather;
use amacl_core::extensions::ben_or::BenOr;
use amacl_core::extensions::fd_paxos::FdPaxos;
use amacl_core::multivalued::BitwiseTwoPhase;
use amacl_core::tree_gather::TreeGather;
use amacl_core::two_phase::TwoPhase;
use amacl_core::wpaxos::{WpaxosConfig, WpaxosNode};
use amacl_model::ids::Slot;
use amacl_model::mac::{MacReport, SchedulerFactory, SimBackend};
use amacl_model::proc::{Process, Value};
use amacl_model::sim::config::EngineConfig;
use amacl_model::sim::crash::{CrashPlan, CrashSpec};
use amacl_model::sim::engine::RunReport;
use amacl_model::sim::sched::dual::DualBoundScheduler;
use amacl_model::sim::sched::partition::{DirectedCut, EdgeDelayScheduler};
use amacl_model::sim::sched::random::RandomScheduler;
use amacl_model::sim::sched::scripted::ScriptedScheduler;
use amacl_model::sim::sched::stall::MaxDelayScheduler;
use amacl_model::sim::sched::sync::SynchronousScheduler;
use amacl_model::sim::sched::Scheduler;
use amacl_model::sim::time::Time;
use amacl_model::sim::trace::Metrics;
use amacl_model::topo::Topology;
use amacl_runtime::{MacRuntime, RuntimeConfig};

use crate::crosscheck::{cross_check_algo, CrossCheckConfig, CrossCheckOutcome};
use crate::grid::{check_engine_grid, diff_reports, grid_token};

/// Which algorithm an instance runs.
///
/// This enum is the one table of algorithms: [`ScenarioAlgo::visit`]
/// is the only place that names their constructors and id budgets,
/// and [`ScenarioAlgo::check`] the only place that states their
/// instance rules. The CLI, the scenarios and the explorer all go
/// through both.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScenarioAlgo {
    /// Algorithm 1 (single-hop, binary, no knowledge of `n`).
    TwoPhase,
    /// wPAXOS (multihop, majority quorums, needs `n`).
    Wpaxos,
    /// The §4.2 "simpler alternative" on the same services.
    TreeGather,
    /// Flood-and-gather baseline.
    FloodGather,
    /// Bitwise multi-valued composition with the given width
    /// (single-hop).
    Bitwise(u32),
    /// Randomized Ben-Or (single-hop, binary, f = 1, n >= 3).
    BenOr,
    /// Failure-detector-guided Paxos with the given initial timeout
    /// (single-hop).
    FdPaxos(u64),
}

/// What to do with one algorithm's processes. [`ScenarioAlgo::visit`]
/// calls [`visit`](AlgoVisitor::visit) once, with the algorithm's
/// process type, so each caller writes its generic code once instead
/// of matching on the algorithm.
pub trait AlgoVisitor {
    /// What the visit returns.
    type Out;

    /// Receives the algorithm's per-message id budget (what `amacl
    /// run` caps payload ids at) and `make`, which builds the process
    /// of one slot from that slot's input.
    fn visit<P: Process + Clone + fmt::Debug>(
        self,
        id_budget: usize,
        make: impl Fn(Slot) -> P,
    ) -> Self::Out;
}

impl ScenarioAlgo {
    /// Parses `two-phase`, `bitwise:16`, `fd-paxos:8`, ...
    pub fn parse(s: &str) -> Result<Self, String> {
        let (head, tail) = split_head(s);
        match head {
            "two-phase" => no_params(tail, s).map(|()| ScenarioAlgo::TwoPhase),
            "wpaxos" => no_params(tail, s).map(|()| ScenarioAlgo::Wpaxos),
            "tree-gather" => no_params(tail, s).map(|()| ScenarioAlgo::TreeGather),
            "flood-gather" => no_params(tail, s).map(|()| ScenarioAlgo::FloodGather),
            "bitwise" => Ok(ScenarioAlgo::Bitwise(one_param(tail, s)?)),
            "ben-or" => no_params(tail, s).map(|()| ScenarioAlgo::BenOr),
            "fd-paxos" => Ok(match tail {
                None => ScenarioAlgo::FdPaxos(4),
                Some(_) => ScenarioAlgo::FdPaxos(one_param(tail, s)?),
            }),
            _ => Err(format!("unknown algorithm `{s}`")),
        }
    }

    /// The name [`parse`](Self::parse) reads back.
    pub fn name(&self) -> String {
        match self {
            ScenarioAlgo::TwoPhase => "two-phase".into(),
            ScenarioAlgo::Wpaxos => "wpaxos".into(),
            ScenarioAlgo::TreeGather => "tree-gather".into(),
            ScenarioAlgo::FloodGather => "flood-gather".into(),
            ScenarioAlgo::Bitwise(b) => format!("bitwise:{b}"),
            ScenarioAlgo::BenOr => "ben-or".into(),
            ScenarioAlgo::FdPaxos(t) => format!("fd-paxos:{t}"),
        }
    }

    /// Hands `visitor` this algorithm's constructor over `inputs` (one
    /// per slot; `n` is their count) and its id budget. Call
    /// [`check`](Self::check) first: the constructors assert the rules
    /// it reports.
    pub fn visit<V: AlgoVisitor>(self, inputs: &[Value], visitor: V) -> V::Out {
        let n = inputs.len();
        let input = |s: Slot| inputs[s.index()];
        match self {
            ScenarioAlgo::TwoPhase => visitor.visit(1, |s| TwoPhase::new(input(s))),
            ScenarioAlgo::Wpaxos => {
                visitor.visit(10, |s| WpaxosNode::new(input(s), WpaxosConfig::new(n)))
            }
            ScenarioAlgo::TreeGather => visitor.visit(10, |s| TreeGather::new(input(s), n)),
            ScenarioAlgo::FloodGather => visitor.visit(1, |s| FloodGather::new(input(s), n)),
            ScenarioAlgo::Bitwise(bits) => {
                visitor.visit(1, |s| BitwiseTwoPhase::new(input(s), bits))
            }
            ScenarioAlgo::BenOr => visitor.visit(1, |s| BenOr::new(input(s), n)),
            ScenarioAlgo::FdPaxos(timeout) => {
                visitor.visit(3, |s| FdPaxos::new(input(s), n, timeout))
            }
        }
    }

    /// The instance rules: one input per node; the single-hop
    /// algorithms (two-phase, bitwise, ben-or, fd-paxos) need a
    /// clique; two-phase and ben-or are binary; bitwise inputs fit its
    /// width of 1..=64 bits; ben-or needs n >= 3.
    ///
    /// # Errors
    ///
    /// Returns the first broken rule.
    pub fn check(self, topo: &Topology, inputs: &[Value]) -> Result<(), String> {
        let n = topo.len();
        if inputs.len() != n {
            return Err(format!(
                "{} inputs given for a topology of {n} nodes",
                inputs.len()
            ));
        }
        let single_hop = !matches!(
            self,
            ScenarioAlgo::Wpaxos | ScenarioAlgo::TreeGather | ScenarioAlgo::FloodGather
        );
        if single_hop && topo.edge_count() != n * n.saturating_sub(1) / 2 {
            return Err(format!(
                "`{}` is a single-hop algorithm; use a clique topology (got {n} nodes, {} edges)",
                self.name(),
                topo.edge_count()
            ));
        }
        match self {
            ScenarioAlgo::BenOr if n < 3 => Err("ben-or needs n >= 3".into()),
            ScenarioAlgo::TwoPhase | ScenarioAlgo::BenOr if inputs.iter().any(|&v| v > 1) => Err(
                format!("{} is binary; use --inputs with 0/1 values", self.name()),
            ),
            ScenarioAlgo::Bitwise(bits) if !(1..=64).contains(&bits) => {
                Err(format!("bitwise width must be in 1..=64, got {bits}"))
            }
            ScenarioAlgo::Bitwise(bits) => {
                match inputs.iter().find(|&&v| bits < 64 && v >> bits != 0) {
                    Some(v) => Err(format!("input {v} does not fit in {bits} bits")),
                    None => Ok(()),
                }
            }
            _ => Ok(()),
        }
    }

    /// Refuses the algorithms the untimed machine behind `check`,
    /// `fuzz` and `explore` cannot search: ben-or draws random bits (a
    /// fork would replay them) and fd-paxos reads the clock (the
    /// machine has none).
    ///
    /// # Errors
    ///
    /// Names the algorithm and the ones the machine supports.
    pub fn require_untimed(self) -> Result<(), String> {
        match self {
            ScenarioAlgo::BenOr | ScenarioAlgo::FdPaxos(_) => Err(format!(
                "`{}` is randomized or clock-driven, and check, fuzz and explore search an \
                 untimed machine; supported: two-phase, bitwise:<b>, wpaxos, tree-gather, \
                 flood-gather",
                self.name()
            )),
            _ => Ok(()),
        }
    }

    /// Refuses the algorithms a cross-check cannot compare across the
    /// engine and the threaded runtime: fd-paxos's timeouts are read
    /// off a clock whose scale differs between the two.
    ///
    /// # Errors
    ///
    /// Says why.
    pub fn require_crosscheckable(self) -> Result<(), String> {
        match self {
            ScenarioAlgo::FdPaxos(_) => Err(
                "fd-paxos timeouts are clock-scale dependent; crosscheck does not support it"
                    .into(),
            ),
            _ => Ok(()),
        }
    }
}

/// Which topology an instance runs over (plain data, generator-friendly).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ScenarioTopo {
    /// Complete graph on `n` nodes.
    Clique(usize),
    /// Path on `n` nodes.
    Line(usize),
    /// Cycle on `n` nodes.
    Ring(usize),
    /// One hub joined to `n - 1` leaves.
    Star(usize),
    /// `w x h` grid.
    Grid(usize, usize),
    /// `w x h` grid with wraparound edges (every node degree 4, two
    /// disjoint routes around any cut — the sparse-but-redundant
    /// regime sharded large-topology work targets).
    Torus(usize, usize),
    /// `dim`-dimensional hypercube on `2^dim` nodes (logarithmic
    /// diameter, every edge a dimension flip).
    Hypercube(usize),
    /// Complete binary tree with the given number of levels.
    BinaryTree(usize),
    /// Two `k`-cliques joined by a path of `bridge` nodes.
    Barbell(usize, usize),
    /// `arms` lines of `len` nodes hanging off one hub.
    StarOfLines(usize, usize),
    /// A `spine` path, each spine node carrying `legs` leaves.
    Caterpillar(usize, usize),
    /// A `k`-clique with a tail path of `t` nodes.
    Lollipop(usize, usize),
    /// Seeded connected random graph on `n` nodes with edge
    /// probability `p`.
    Random(usize, f64, u64),
    /// Uniformly random spanning tree on `n` nodes (every edge a
    /// bridge: any internal crash partitions the network, so only
    /// leaf crashes are survivable).
    RandomTree(usize, u64),
}

impl ScenarioTopo {
    /// Parses `clique:8`, `grid:4x3`, `random:12:0.2:7`, ... and
    /// [validates](Self::validate) the sizes.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (head, tail) = split_head(s);
        let topo = match head {
            "clique" => ScenarioTopo::Clique(one_param(tail, s)?),
            "line" => ScenarioTopo::Line(one_param(tail, s)?),
            "ring" => ScenarioTopo::Ring(one_param(tail, s)?),
            "star" => ScenarioTopo::Star(one_param(tail, s)?),
            "grid" => {
                let (w, h) = wh_param(tail, s)?;
                ScenarioTopo::Grid(w, h)
            }
            "torus" => {
                let (w, h) = wh_param(tail, s)?;
                ScenarioTopo::Torus(w, h)
            }
            "hypercube" => ScenarioTopo::Hypercube(one_param(tail, s)?),
            "binary-tree" => ScenarioTopo::BinaryTree(one_param(tail, s)?),
            "barbell" => {
                let (k, bridge) = two_params(tail, s)?;
                ScenarioTopo::Barbell(k, bridge)
            }
            "star-of-lines" => {
                let (arms, len) = two_params(tail, s)?;
                ScenarioTopo::StarOfLines(arms, len)
            }
            "caterpillar" => {
                let (spine, legs) = two_params(tail, s)?;
                ScenarioTopo::Caterpillar(spine, legs)
            }
            "lollipop" => {
                let (k, t) = two_params(tail, s)?;
                ScenarioTopo::Lollipop(k, t)
            }
            "random" => {
                let parts = params(tail, s, 3)?;
                let p = parts[1]
                    .parse()
                    .map_err(|_| format!("bad probability in `{s}`"))?;
                ScenarioTopo::Random(parse_num(&parts[0], s)?, p, parse_num(&parts[2], s)?)
            }
            "random-tree" => {
                let (n, seed) = two_params(tail, s)?;
                ScenarioTopo::RandomTree(n, seed)
            }
            _ => return Err(format!("unknown topology `{s}`")),
        };
        topo.validate()?;
        Ok(topo)
    }

    /// Rejects the sizes the builders cannot realize (an empty clique,
    /// a 2-ring, a 2-wide torus, `p` outside `[0, 1]`, ...), so no
    /// descriptor makes a builder panic.
    ///
    /// # Errors
    ///
    /// Names the spec and the broken rule.
    pub fn validate(&self) -> Result<(), String> {
        let at_least = |min: usize, sizes: &[usize]| {
            if sizes.iter().all(|&v| v >= min) {
                Ok(())
            } else {
                Err(format!("sizes must be at least {min}"))
            }
        };
        let rule = match *self {
            ScenarioTopo::Clique(n) | ScenarioTopo::Line(n) | ScenarioTopo::RandomTree(n, _) => {
                at_least(1, &[n])
            }
            ScenarioTopo::Ring(n) => at_least(3, &[n]),
            ScenarioTopo::Star(n) => at_least(2, &[n]),
            ScenarioTopo::Grid(w, h) | ScenarioTopo::StarOfLines(w, h) => at_least(1, &[w, h]),
            ScenarioTopo::Torus(w, h) => at_least(3, &[w, h]),
            ScenarioTopo::Hypercube(d) | ScenarioTopo::BinaryTree(d) => {
                if (1..=16).contains(&d) {
                    Ok(())
                } else {
                    Err("the parameter must be in 1..=16".to_string())
                }
            }
            ScenarioTopo::Barbell(k, _)
            | ScenarioTopo::Caterpillar(k, _)
            | ScenarioTopo::Lollipop(k, _) => at_least(1, &[k]),
            ScenarioTopo::Random(n, p, _) => {
                if (0.0..=1.0).contains(&p) {
                    at_least(1, &[n])
                } else {
                    Err("p must be in [0, 1]".to_string())
                }
            }
        };
        rule.map_err(|rule| format!("`{self}`: {rule}"))
    }

    /// Builds the topology.
    pub fn build(&self) -> Topology {
        match *self {
            ScenarioTopo::Clique(n) => Topology::clique(n),
            ScenarioTopo::Line(n) => Topology::line(n),
            ScenarioTopo::Ring(n) => Topology::ring(n),
            ScenarioTopo::Star(n) => Topology::star(n),
            ScenarioTopo::Grid(w, h) => Topology::grid(w, h),
            ScenarioTopo::Torus(w, h) => Topology::torus(w, h),
            ScenarioTopo::Hypercube(dim) => Topology::hypercube(dim),
            ScenarioTopo::BinaryTree(levels) => Topology::binary_tree(levels),
            ScenarioTopo::Barbell(k, bridge) => Topology::barbell(k, bridge),
            ScenarioTopo::StarOfLines(arms, len) => Topology::star_of_lines(arms, len),
            ScenarioTopo::Caterpillar(spine, legs) => Topology::caterpillar(spine, legs),
            ScenarioTopo::Lollipop(k, t) => Topology::lollipop(k, t),
            ScenarioTopo::Random(n, p, seed) => Topology::random_connected(n, p, seed),
            ScenarioTopo::RandomTree(n, seed) => Topology::random_tree(n, seed),
        }
    }
}

/// The spec [`ScenarioTopo::parse`] reads back.
impl fmt::Display for ScenarioTopo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ScenarioTopo::Clique(n) => write!(f, "clique:{n}"),
            ScenarioTopo::Line(n) => write!(f, "line:{n}"),
            ScenarioTopo::Ring(n) => write!(f, "ring:{n}"),
            ScenarioTopo::Star(n) => write!(f, "star:{n}"),
            ScenarioTopo::Grid(w, h) => write!(f, "grid:{w}x{h}"),
            ScenarioTopo::Torus(w, h) => write!(f, "torus:{w}x{h}"),
            ScenarioTopo::Hypercube(dim) => write!(f, "hypercube:{dim}"),
            ScenarioTopo::BinaryTree(levels) => write!(f, "binary-tree:{levels}"),
            ScenarioTopo::Barbell(k, bridge) => write!(f, "barbell:{k}:{bridge}"),
            ScenarioTopo::StarOfLines(arms, len) => write!(f, "star-of-lines:{arms}:{len}"),
            ScenarioTopo::Caterpillar(spine, legs) => write!(f, "caterpillar:{spine}:{legs}"),
            ScenarioTopo::Lollipop(k, t) => write!(f, "lollipop:{k}:{t}"),
            ScenarioTopo::Random(n, p, seed) => write!(f, "random:{n}:{p}:{seed}"),
            ScenarioTopo::RandomTree(n, seed) => write!(f, "random-tree:{n}:{seed}"),
        }
    }
}

/// The engine-side adversary of a scenario.
///
/// Seeded variants take their seed from outside: a sweep passes its
/// run seed, so a multi-seed sweep genuinely varies the adversary while
/// staying reproducible, and a parsed spec carries its own.
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
    /// Parses `sync:2`, `max-delay:16`, `random:4:42`, `dual:2:8:7`
    /// and returns the seed the text carries (0 for `sync` and
    /// `max-delay`, which draw nothing).
    ///
    /// Every bound must be at least 1, and `F_prog` must not exceed
    /// `F_ack`.
    pub fn parse(s: &str) -> Result<(Self, u64), String> {
        let (head, tail) = split_head(s);
        let parsed = match head {
            "sync" => (
                ScenarioSched::Sync {
                    f_ack: one_param(tail, s)?,
                },
                0,
            ),
            "max-delay" => (
                ScenarioSched::MaxDelay {
                    f_ack: one_param(tail, s)?,
                },
                0,
            ),
            "random" => {
                let (f_ack, seed) = two_params(tail, s)?;
                (ScenarioSched::Random { f_ack }, seed)
            }
            "dual" => {
                let parts = params(tail, s, 3)?;
                let (f_prog, f_ack) = (parse_num(&parts[0], s)?, parse_num(&parts[1], s)?);
                need(f_prog >= 1, s, "F_prog must be at least 1")?;
                need(f_prog <= f_ack, s, "F_prog must not exceed F_ack")?;
                (
                    ScenarioSched::Dual { f_prog, f_ack },
                    parse_num(&parts[2], s)?,
                )
            }
            _ => return Err(format!("unknown scheduler `{s}`")),
        };
        need(parsed.0.f_ack() >= 1, s, "F_ack must be at least 1")?;
        Ok(parsed)
    }

    /// The `F_ack` bound this adversary honors: the base bound, or a
    /// scripted schedule's longest delay.
    pub fn f_ack(&self) -> u64 {
        match self {
            ScenarioSched::Sync { f_ack }
            | ScenarioSched::MaxDelay { f_ack }
            | ScenarioSched::Random { f_ack }
            | ScenarioSched::Dual { f_ack, .. }
            | ScenarioSched::Partition { f_ack, .. }
            | ScenarioSched::MultiCut { f_ack, .. } => *f_ack,
            ScenarioSched::Scripted {
                default_delay,
                delays,
            } => delays.iter().map(|d| d.2).fold(*default_delay, u64::max),
        }
    }

    /// A fresh scheduler realizing this adversary under `seed`.
    pub fn build(&self, seed: u64) -> Box<dyn Scheduler> {
        let cut = |from: &[usize], to: &[usize], release: u64| {
            DirectedCut::new(
                from.iter().copied().map(Slot),
                to.iter().copied().map(Slot),
                Time(release),
            )
        };
        match self {
            ScenarioSched::Sync { f_ack } => Box::new(SynchronousScheduler::new(*f_ack)),
            ScenarioSched::MaxDelay { f_ack } => Box::new(MaxDelayScheduler::new(*f_ack)),
            ScenarioSched::Random { f_ack } => Box::new(RandomScheduler::new(*f_ack, seed)),
            ScenarioSched::Dual { f_prog, f_ack } => {
                Box::new(DualBoundScheduler::new(*f_prog, *f_ack, seed))
            }
            ScenarioSched::Partition {
                f_ack,
                from,
                to,
                release,
            } => Box::new(EdgeDelayScheduler::new(
                SynchronousScheduler::new(*f_ack),
                vec![cut(from, to, *release)],
            )),
            ScenarioSched::MultiCut { f_ack, cuts } => Box::new(EdgeDelayScheduler::new(
                SynchronousScheduler::new(*f_ack),
                cuts.iter()
                    .map(|(from, to, release)| cut(from, to, *release))
                    .collect(),
            )),
            ScenarioSched::Scripted {
                default_delay,
                delays,
            } => {
                let mut s = ScriptedScheduler::new(*default_delay);
                for &(sender, nth, delay) in delays {
                    s = s.delay(Slot(sender), nth, delay);
                }
                Box::new(s)
            }
        }
    }

    /// Packages this adversary as a fresh-per-execution
    /// [`SchedulerFactory`] for the engine backend.
    pub fn factory(&self, seed: u64) -> SchedulerFactory {
        let sched = self.clone();
        Arc::new(move || sched.build(seed))
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

    /// The spec [`parse`](Self::parse) reads back, `seed` included,
    /// for the families it parses; the [label](Self::label) for the
    /// rest.
    pub fn spec(&self, seed: u64) -> String {
        match self {
            ScenarioSched::Random { .. } | ScenarioSched::Dual { .. } => {
                format!("{}:{seed}", self.label())
            }
            _ => self.label(),
        }
    }
}

/// How an instance assigns initial values.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScenarioInputs {
    /// Everyone starts with `v` (input-determined decisions).
    Uniform(Value),
    /// `0,1,0,1,...`
    Alternating,
    /// Seeded uniform draw from `0..=max`.
    Random {
        /// RNG seed.
        seed: u64,
        /// Inclusive maximum value.
        max: Value,
    },
    /// An explicit per-slot assignment (how lowered model-checking
    /// counterexamples carry their exact instance; must have one value
    /// per node).
    Explicit(Vec<Value>),
}

impl ScenarioInputs {
    /// Parses `alt`, `const:3`, `random:7`, `random:7:15`, or a CSV
    /// list like `0,1,1`.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "alt" {
            return Ok(ScenarioInputs::Alternating);
        }
        let (head, tail) = split_head(s);
        match head {
            "const" => return Ok(ScenarioInputs::Uniform(one_param(tail, s)?)),
            "random" => {
                let parts = params(tail, s, usize::MAX)?;
                if parts.len() > 2 {
                    return Err(format!("`{s}`: expected random:<seed>[:<max>]"));
                }
                let seed = parse_num(&parts[0], s)?;
                let max = match parts.get(1) {
                    Some(max) => parse_num(max, s)?,
                    None => 1,
                };
                return Ok(ScenarioInputs::Random { seed, max });
            }
            _ => {}
        }
        let values: Result<Vec<Value>, _> = s.split(',').map(|p| p.trim().parse()).collect();
        values
            .map(ScenarioInputs::Explicit)
            .map_err(|_| format!("bad inputs `{s}`"))
    }

    /// Materializes `n` inputs (an explicit list as given, whatever
    /// its length: [`ScenarioAlgo::check`] reports a mismatch).
    pub fn materialize(&self, n: usize) -> Vec<Value> {
        match self {
            ScenarioInputs::Uniform(v) => vec![*v; n],
            ScenarioInputs::Alternating => (0..n).map(|i| (i % 2) as Value).collect(),
            ScenarioInputs::Random { seed, max } => {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::SmallRng::seed_from_u64(*seed);
                (0..n).map(|_| rng.gen_range(0..=*max)).collect()
            }
            ScenarioInputs::Explicit(vs) => vs.clone(),
        }
    }
}

// --- spec parsing helpers ----------------------------------------------

fn split_head(s: &str) -> (&str, Option<&str>) {
    match s.split_once(':') {
        Some((h, t)) => (h, Some(t)),
        None => (s, None),
    }
}

/// `Ok` when `ok`, else an error naming the spec and the broken rule.
fn need(ok: bool, spec: &str, rule: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("`{spec}`: {rule}"))
    }
}

fn no_params(tail: Option<&str>, full: &str) -> Result<(), String> {
    match tail {
        None => Ok(()),
        Some(_) => Err(format!("`{full}` takes no parameters")),
    }
}

fn params(tail: Option<&str>, full: &str, want: usize) -> Result<Vec<String>, String> {
    let tail = tail.ok_or_else(|| format!("`{full}` needs parameters"))?;
    let parts: Vec<String> = tail.split(':').map(str::to_string).collect();
    if want != usize::MAX && parts.len() != want {
        return Err(format!("`{full}`: expected {want} parameter(s)"));
    }
    Ok(parts)
}

/// Parses one number, naming `ctx` (the spec or the option) on error.
pub fn parse_num<T: std::str::FromStr>(s: &str, ctx: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("bad number `{s}` in `{ctx}`"))
}

fn one_param<T: std::str::FromStr>(tail: Option<&str>, full: &str) -> Result<T, String> {
    let parts = params(tail, full, 1)?;
    parse_num(&parts[0], full)
}

fn two_params<A: std::str::FromStr, B: std::str::FromStr>(
    tail: Option<&str>,
    full: &str,
) -> Result<(A, B), String> {
    let parts = params(tail, full, 2)?;
    Ok((parse_num(&parts[0], full)?, parse_num(&parts[1], full)?))
}

fn wh_param(tail: Option<&str>, full: &str) -> Result<(usize, usize), String> {
    let parts = params(tail, full, 1)?;
    let (w, h) = parts[0]
        .split_once('x')
        .ok_or_else(|| format!("`{full}`: expected <w>x<h>"))?;
    Ok((parse_num(w, full)?, parse_num(h, full)?))
}

/// One named adversarial scenario, runnable on both backends.
#[derive(Clone, PartialEq, Debug)]
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

    /// Checks the descriptor's internal consistency: the topology's
    /// sizes, at least two nodes, the algorithm's instance rules
    /// ([`ScenarioAlgo::check`]) and its support on both backends,
    /// slots in range, one crash per node, mid-broadcast prefixes
    /// within the sender's degree, and strictness only where it is
    /// sound.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        let name = &self.name;
        self.topo.validate().map_err(|e| format!("{name}: {e}"))?;
        let topo = self.topo.build();
        let n = topo.len();
        if n < 2 {
            return Err(format!("{name}: needs at least 2 nodes"));
        }
        self.algo
            .check(&topo, &self.inputs.materialize(n))
            .and_then(|()| self.algo.require_crosscheckable())
            .map_err(|e| format!("{name}: {e}"))?;
        for (i, a) in self.crashes.iter().enumerate() {
            if a.slot().index() >= n {
                return Err(format!("{name}: crash slot {} out of range", a.slot()));
            }
            if let CrashSpec::MidBroadcast {
                slot, delivered, ..
            } = *a
            {
                if delivered > topo.degree(slot) {
                    return Err(format!(
                        "{name}: crash wants {delivered} deliveries but {slot} has degree {}",
                        topo.degree(slot)
                    ));
                }
            }
            for b in &self.crashes[i + 1..] {
                if a.slot() == b.slot() {
                    return Err(format!("{name}: duplicate crash for {}", a.slot()));
                }
            }
        }
        if let ScenarioSched::Partition { from, to, .. } = &self.sched {
            if from.iter().chain(to).any(|&s| s >= n) {
                return Err(format!("{name}: partition names a slot out of range"));
            }
        }
        if let ScenarioSched::MultiCut { cuts, .. } = &self.sched {
            for (from, to, _) in cuts {
                if from.iter().chain(to).any(|&s| s >= n) {
                    return Err(format!("{name}: multi-cut names a slot out of range"));
                }
            }
        }
        if self.strict
            && (!self.crashes.is_empty() || !matches!(self.inputs, ScenarioInputs::Uniform(_)))
        {
            return Err(format!(
                "{name}: strict comparison requires crash-free uniform inputs"
            ));
        }
        if self.expect_stall && self.strict {
            return Err(format!(
                "{name}: a stall scenario cannot demand identical decisions"
            ));
        }
        Ok(())
    }

    /// The scenario's inputs, one per node.
    fn input_values(&self) -> Vec<Value> {
        self.inputs.materialize(self.topo.build().len())
    }

    /// The engine backend realizing this scenario on `cfg`'s queue
    /// core, shard count and worker threads; the seed and crash plan
    /// stay the scenario's.
    pub fn sim_backend(&self, seed: u64, cfg: &EngineConfig) -> SimBackend {
        SimBackend::with_factory(
            self.topo.build(),
            self.sched.label(),
            self.sched.factory(seed),
        )
        .config(
            cfg.clone()
                .seed(seed)
                .crash_plan(CrashPlan::new(self.crashes.clone())),
        )
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
        struct OnEngine(SimBackend);
        impl AlgoVisitor for OnEngine {
            type Out = (MacReport, RunReport);
            fn visit<P: Process + Clone + fmt::Debug>(
                mut self,
                _id_budget: usize,
                make: impl Fn(Slot) -> P,
            ) -> Self::Out {
                self.0.execute_full(&mut |s| make(s))
            }
        }
        self.algo
            .visit(&self.input_values(), OnEngine(self.sim_backend(seed, cfg)))
    }

    /// Runs the scenario on both backends and cross-checks the
    /// outcomes (per-backend agreement + termination + validity;
    /// identical decisions additionally when [`Scenario::strict`]).
    pub fn cross_check(&self, seed: u64) -> CrossCheckOutcome {
        cross_check_algo(
            self.algo,
            &mut self.sim_backend(seed, &EngineConfig::default()),
            &mut self.runtime(seed),
            &self.input_values(),
            CrossCheckConfig {
                expect_identical_decisions: self.strict,
                check_validity: true,
            },
        )
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
        let inputs = scenario.input_values();
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
        assert!(s.validate().unwrap_err().contains("2 inputs given"));

        let mut s = Scenario::by_name("sync-lockstep").unwrap();
        s.algo = ScenarioAlgo::FdPaxos(4);
        assert!(s.validate().unwrap_err().contains("clock-scale"));

        let mut s = Scenario::by_name("sync-lockstep").unwrap();
        s.topo = ScenarioTopo::Torus(2, 4);
        assert!(s.validate().unwrap_err().contains("`torus:2x4`"));
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
        let (report, full) = scenario
            .sim_backend(5, &EngineConfig::default())
            .execute_full(&mut |s: Slot| {
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
        let (report, full) = scenario
            .sim_backend(3, &EngineConfig::default())
            .execute_full(&mut |s: Slot| {
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
