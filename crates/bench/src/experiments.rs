//! Measurement functions, one group per experiment (see DESIGN.md's
//! experiment index).

use std::time::Duration;

use amacl_core::extensions::ben_or::BenOr;
use amacl_core::harness::{alternating_inputs, run_flood_gather, run_two_phase, run_wpaxos};
use amacl_core::two_phase::TwoPhase;
use amacl_core::verify::check_consensus;
use amacl_core::wpaxos::{wpaxos_node, WpaxosConfig, WpaxosNode};
use amacl_lowerbounds::anonymity::{run_anonymity_demo, AnonymityOutcome};
use amacl_lowerbounds::bivalence::{lemma_3_1_extension, Explorer, Valency};
use amacl_lowerbounds::crash_demo::{run_crash_demo, CrashDemoOutcome};
use amacl_lowerbounds::step::StepMachine;
use amacl_lowerbounds::time_lb::{earliest_decision, partition_violation, Algorithm};
use amacl_lowerbounds::unknown_n::{run_unknown_n_demo, UnknownNOutcome};
use amacl_model::prelude::*;
use amacl_model::topo::unreliable::UnreliableOverlay;
use amacl_runtime::{MacRuntime, RuntimeConfig};

/// E1: single-hop two-phase consensus — time is `O(F_ack)`, flat in `n`
/// (Theorem 4.1).
pub mod e1 {
    use super::*;

    /// One measurement point.
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Clique size.
        pub n: usize,
        /// Scheduler bound.
        pub f_ack: u64,
        /// Latest decision, in ticks.
        pub ticks: u64,
        /// `ticks / F_ack` — the paper predicts a small constant.
        pub ratio: f64,
    }

    /// Sweeps `n` and `F_ack` under the max-delay adversary (worst
    /// case for the bound).
    pub fn series(ns: &[usize], f_acks: &[u64]) -> Vec<Row> {
        let mut rows = Vec::new();
        for &f_ack in f_acks {
            for &n in ns {
                let run = run_two_phase(&alternating_inputs(n), MaxDelayScheduler::new(f_ack));
                run.check.assert_ok();
                rows.push(Row {
                    n,
                    f_ack,
                    ticks: run.decision_ticks(),
                    ratio: run.decision_over_f_ack(f_ack),
                });
            }
        }
        rows
    }
}

/// E2: wPAXOS multihop — time is `O(D * F_ack)` (Theorem 4.6).
pub mod e2 {
    use super::*;

    /// One measurement point.
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Topology label.
        pub name: String,
        /// Network size.
        pub n: usize,
        /// Diameter.
        pub d: u64,
        /// Scheduler bound.
        pub f_ack: u64,
        /// Latest decision, in ticks.
        pub ticks: u64,
        /// `ticks / (D * F_ack)` — the paper predicts a constant.
        pub ratio: f64,
    }

    fn measure(name: &str, topo: Topology, f_ack: u64) -> Row {
        let n = topo.len();
        let d = topo.diameter() as u64;
        let run = run_wpaxos(topo, &alternating_inputs(n), MaxDelayScheduler::new(f_ack));
        run.check.assert_ok();
        let ticks = run.decision_ticks();
        Row {
            name: name.to_string(),
            n,
            d,
            f_ack,
            ticks,
            ratio: ticks as f64 / (d.max(1) * f_ack) as f64,
        }
    }

    /// Line-diameter sweep plus assorted topologies at fixed `F_ack`.
    pub fn series(f_ack: u64) -> Vec<Row> {
        let mut rows = Vec::new();
        for d in [2usize, 4, 8, 16, 32] {
            rows.push(measure(
                &format!("line(D={d})"),
                Topology::line(d + 1),
                f_ack,
            ));
        }
        rows.push(measure("grid(6x4)", Topology::grid(6, 4), f_ack));
        rows.push(measure("torus(5x5)", Topology::torus(5, 5), f_ack));
        rows.push(measure("star(25)", Topology::star(25), f_ack));
        rows.push(measure("hypercube(5)", Topology::hypercube(5), f_ack));
        rows.push(measure("binary_tree(5)", Topology::binary_tree(5), f_ack));
        rows.push(measure(
            "random(24,p=.15)",
            Topology::random_connected(24, 0.15, 7),
            f_ack,
        ));
        rows
    }
}

/// E3: the aggregation gap — flooding responses costs `Θ(n * F_ack)`
/// at a bottleneck, tree aggregation stays `O(D * F_ack)` (Section 4.2
/// intro).
pub mod e3 {
    use super::*;

    /// One comparison point on a star (hub = slot 0, leader = a leaf).
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Star size (diameter 2).
        pub n: usize,
        /// wPAXOS (tree + aggregation, paper-literal change trigger):
        /// latest decision, ticks.
        pub wpaxos_ticks: u64,
        /// Hub broadcasts under wPAXOS.
        pub wpaxos_hub: u64,
        /// wPAXOS with the leader-scoped change trigger (the E8
        /// reproduction finding): latest decision, ticks.
        pub scoped_ticks: u64,
        /// Flooded-responses Paxos: latest decision, ticks.
        pub flood_ticks: u64,
        /// Hub broadcasts under flooding — the `Θ(n)` bottleneck.
        pub flood_hub: u64,
        /// Flood-gather baseline: latest decision, ticks.
        pub gather_ticks: u64,
    }

    fn run_cfg(n: usize, cfg: WpaxosConfig, f_ack: u64) -> (u64, u64) {
        let inputs = alternating_inputs(n);
        let iv = inputs.clone();
        let mut sim = SimBuilder::new(Topology::star(n), |s| WpaxosNode::new(iv[s.index()], cfg))
            .scheduler(MaxDelayScheduler::new(f_ack))
            .build();
        let report = sim.run();
        check_consensus(&inputs, &report, &[]).assert_ok();
        (
            report.max_decision_time().expect("decided").ticks(),
            report.metrics.per_slot_broadcasts[0],
        )
    }

    /// Sweeps the star size at fixed diameter 2.
    pub fn series(ns: &[usize], f_ack: u64) -> Vec<Row> {
        ns.iter()
            .map(|&n| {
                let (wpaxos_ticks, wpaxos_hub) = run_cfg(n, WpaxosConfig::new(n), f_ack);
                let (scoped_ticks, _) =
                    run_cfg(n, WpaxosConfig::new(n).with_leader_scoped_changes(), f_ack);
                let (flood_ticks, flood_hub) =
                    run_cfg(n, WpaxosConfig::new(n).flooded_responses(), f_ack);
                let gather = run_flood_gather(
                    Topology::star(n),
                    &alternating_inputs(n),
                    MaxDelayScheduler::new(f_ack),
                );
                gather.check.assert_ok();
                Row {
                    n,
                    wpaxos_ticks,
                    wpaxos_hub,
                    scoped_ticks,
                    flood_ticks,
                    flood_hub,
                    gather_ticks: gather.decision_ticks(),
                }
            })
            .collect()
    }
}

/// E4: the `floor(D/2) * F_ack` decision lower bound (Theorem 3.10).
pub mod e4 {
    use super::*;

    /// One measurement row.
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Line diameter.
        pub d: usize,
        /// Scheduler bound.
        pub f_ack: u64,
        /// The theorem's bound in ticks.
        pub bound: u64,
        /// Earliest wPAXOS decision.
        pub wpaxos_earliest: u64,
        /// Earliest flood-gather decision.
        pub gather_earliest: u64,
    }

    /// Sweeps line diameters under the max-delay adversary.
    pub fn series(f_ack: u64) -> Vec<Row> {
        [4usize, 8, 16, 24]
            .iter()
            .map(|&d| {
                let w = earliest_decision(Algorithm::Wpaxos, d, f_ack);
                let g = earliest_decision(Algorithm::FloodGather, d, f_ack);
                assert!(w.ok && g.ok);
                Row {
                    d,
                    f_ack,
                    bound: w.bound,
                    wpaxos_earliest: w.earliest,
                    gather_earliest: g.earliest,
                }
            })
            .collect()
    }

    /// The violation side: an eager decider gets partitioned.
    pub fn violation(d: usize, f_ack: u64, rounds: u64) -> (bool, u64) {
        let (check, earliest) = partition_violation(d, f_ack, rounds);
        (check.agreement, earliest)
    }
}

/// E5: the anonymity impossibility (Theorem 3.3, Figure 1).
pub mod e5 {
    use super::*;

    /// Runs the demonstration at several diameters.
    pub fn series() -> Vec<AnonymityOutcome> {
        vec![
            run_anonymity_demo(8, 24),
            run_anonymity_demo(10, 36),
            run_anonymity_demo(12, 48),
        ]
    }
}

/// E6: the knowledge-of-`n` impossibility (Theorem 3.9, Figure 2).
pub mod e6 {
    use super::*;

    /// Runs the demonstration at several diameters.
    pub fn series() -> Vec<UnknownNOutcome> {
        [2usize, 4, 8]
            .iter()
            .map(|&d| run_unknown_n_demo(d))
            .collect()
    }
}

/// E7: the crash impossibility (Theorem 3.2) — bivalence census and the
/// concrete termination loss.
pub mod e7 {
    use super::*;

    /// Summary of the valid-step exploration.
    #[derive(Clone, Debug)]
    pub struct Summary {
        /// Valency of the mixed (0,1) two-node configuration with one
        /// crash allowed.
        pub mixed_valency: Valency,
        /// States visited by the exhaustive explorer.
        pub states_visited: u64,
        /// A node whose next step forces univalence at the initial
        /// bivalent configuration (a critical configuration witness).
        pub critical_node: Option<usize>,
        /// With one crash, some schedule strands a live node.
        pub stuck_schedule_exists: bool,
        /// The concrete crash demo outcome.
        pub crash_demo: CrashDemoOutcome,
    }

    /// Runs the census.
    pub fn run() -> Summary {
        let machine = StepMachine::new(vec![TwoPhase::new(0), TwoPhase::new(1)]);
        let mut explorer = Explorer::new(1, 120);
        let result = explorer.explore(&machine);
        let mixed_valency = match (result.zero, result.one) {
            (true, true) => Valency::Bivalent,
            (true, false) => Valency::ZeroValent,
            (false, true) => Valency::OneValent,
            _ => Valency::Unknown,
        };
        let critical_node = (0..2).find(|&u| lemma_3_1_extension(&machine, u, 1, 8, 80).is_none());
        Summary {
            mixed_valency,
            states_visited: explorer.states_visited(),
            critical_node,
            stuck_schedule_exists: result.stuck_undecided,
            crash_demo: run_crash_demo(),
        }
    }
}

/// E8: design ablations — what each wPAXOS service buys (Lemmas
/// 4.4/4.5 instrumentation).
pub mod e8 {
    use super::*;

    /// One ablation row.
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Configuration label.
        pub config: &'static str,
        /// Latest decision, ticks.
        pub ticks: u64,
        /// Total broadcasts network-wide.
        pub broadcasts: u64,
        /// Busiest single node's broadcasts.
        pub max_node_broadcasts: u64,
        /// Total proposals started network-wide.
        pub proposals: u64,
    }

    fn run_cfg(topo: &Topology, cfg: WpaxosConfig, f_ack: u64, label: &'static str) -> Row {
        let n = topo.len();
        let inputs = alternating_inputs(n);
        let iv = inputs.clone();
        let mut sim = SimBuilder::new(topo.clone(), |s| WpaxosNode::new(iv[s.index()], cfg))
            .scheduler(MaxDelayScheduler::new(f_ack))
            .build();
        let report = sim.run();
        check_consensus(&inputs, &report, &[]).assert_ok();
        let proposals = (0..n)
            .map(|i| sim.process(Slot(i)).proposals_started())
            .sum();
        Row {
            config: label,
            ticks: report.max_decision_time().expect("decided").ticks(),
            broadcasts: report.metrics.broadcasts,
            max_node_broadcasts: report.metrics.max_broadcasts_per_slot(),
            proposals,
        }
    }

    /// Runs all four configurations on the given topology.
    pub fn series(topo: &Topology, f_ack: u64) -> Vec<Row> {
        let n = topo.len();
        vec![
            run_cfg(topo, WpaxosConfig::new(n), f_ack, "full wPAXOS"),
            run_cfg(
                topo,
                WpaxosConfig::new(n).without_aggregation(),
                f_ack,
                "no aggregation",
            ),
            run_cfg(
                topo,
                WpaxosConfig::new(n).without_leader_priority(),
                f_ack,
                "no leader priority",
            ),
            run_cfg(
                topo,
                WpaxosConfig::new(n).flooded_responses(),
                f_ack,
                "flooded responses",
            ),
            run_cfg(
                topo,
                WpaxosConfig::new(n).with_leader_scoped_changes(),
                f_ack,
                "leader-scoped changes",
            ),
        ]
    }
}

/// E9: simulator vs the threaded MAC runtime (the deployability claim).
pub mod e9 {
    use super::*;

    /// One cross-substrate row.
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Scenario label.
        pub name: &'static str,
        /// Simulator reached agreement.
        pub sim_agreed: bool,
        /// Threaded runtime reached agreement.
        pub rt_agreed: bool,
        /// Runtime wall-clock to the slowest decision.
        pub rt_latency: Duration,
        /// Runtime broadcasts.
        pub rt_broadcasts: u64,
    }

    /// Runs two-phase (clique 8) and wPAXOS (grid 4x3) on both
    /// substrates.
    pub fn series(seed: u64) -> Vec<Row> {
        let cfg = RuntimeConfig {
            max_jitter: Duration::from_micros(300),
            seed,
            timeout: Duration::from_secs(30),
            ..RuntimeConfig::default()
        };
        let mut rows = Vec::new();

        // Two-phase on a clique of 8.
        let inputs = alternating_inputs(8);
        let sim_run = run_two_phase(&inputs, RandomScheduler::new(5, seed));
        let rt = MacRuntime::new(Topology::clique(8), cfg.clone());
        let report = rt.run(|s| TwoPhase::new((s.index() % 2) as Value));
        rows.push(Row {
            name: "two-phase clique(8)",
            sim_agreed: sim_run.check.ok(),
            rt_agreed: report.all_decided && report.decided_values().len() == 1,
            rt_latency: report
                .decision_latency
                .iter()
                .flatten()
                .max()
                .copied()
                .unwrap_or_default(),
            rt_broadcasts: report.broadcasts,
        });

        // wPAXOS on a 4x3 grid.
        let topo = Topology::grid(4, 3);
        let n = topo.len();
        let sim_run = run_wpaxos(
            topo.clone(),
            &alternating_inputs(n),
            RandomScheduler::new(5, seed),
        );
        let rt = MacRuntime::new(topo, cfg);
        let report = rt.run(|s| wpaxos_node((s.index() % 2) as Value, n));
        rows.push(Row {
            name: "wPAXOS grid(4x3)",
            sim_agreed: sim_run.check.ok(),
            rt_agreed: report.all_decided && report.decided_values().len() == 1,
            rt_latency: report
                .decision_latency
                .iter()
                .flatten()
                .max()
                .copied()
                .unwrap_or_default(),
            rt_broadcasts: report.broadcasts,
        });
        rows
    }
}

/// E10: the future-work extensions — randomized consensus under
/// crashes, and unreliable links.
pub mod e10 {
    use super::*;

    /// Summary of the extension experiments.
    #[derive(Clone, Debug)]
    pub struct Summary {
        /// Ben-Or runs with a mid-broadcast crash: (seeds run, all
        /// satisfied consensus among survivors).
        pub ben_or_crash_runs: (u64, bool),
        /// Worst observed round count before everyone decided.
        pub ben_or_max_rounds: u64,
        /// wPAXOS with an unreliable overlay: all runs safe.
        pub unreliable_safe: bool,
    }

    /// Runs both extension experiments.
    pub fn run(seeds: u64) -> Summary {
        // Ben-Or, f = 1, mid-broadcast crash, many seeds.
        let n = 6;
        let mut all_ok = true;
        let mut max_rounds = 0;
        for seed in 0..seeds {
            let inputs: Vec<Value> = (0..n).map(|i| ((i as u64 + seed) % 2) as Value).collect();
            let iv = inputs.clone();
            let mut sim = SimBuilder::new(Topology::clique(n), |s| BenOr::new(iv[s.index()], n))
                .scheduler(RandomScheduler::new(4, seed))
                .crashes(CrashPlan::new(vec![CrashSpec::MidBroadcast {
                    slot: Slot(1),
                    nth_broadcast: seed % 3,
                    delivered: (seed % 4) as usize,
                }]))
                .seed(seed)
                .build();
            let report = sim.run();
            let mut crashed = vec![false; n];
            crashed[1] = true;
            let check = check_consensus(&inputs, &report, &crashed);
            all_ok &= check.ok();
            for i in 0..n {
                max_rounds = max_rounds.max(sim.process(Slot(i)).rounds_executed());
            }
        }

        // wPAXOS with spurious extra deliveries over unreliable links.
        let mut unreliable_safe = true;
        for seed in 0..seeds.min(10) {
            let base = Topology::ring(10);
            let overlay = UnreliableOverlay::new(&base, &[(0, 5), (2, 7), (1, 6)]);
            let inputs = alternating_inputs(10);
            let iv = inputs.clone();
            let mut sim = SimBuilder::new(base, |s| wpaxos_node(iv[s.index()], 10))
                .scheduler(RandomScheduler::new(4, seed))
                .unreliable(overlay, 0.5)
                .seed(seed)
                .build();
            let report = sim.run();
            unreliable_safe &= check_consensus(&inputs, &report, &[]).ok();
        }

        Summary {
            ben_or_crash_runs: (seeds, all_ok),
            ben_or_max_rounds: max_rounds,
            unreliable_safe,
        }
    }
}

/// E11: the `F_prog` refinement (paper Section 2's omitted second
/// timing parameter, flagged as future work).
pub mod e11 {
    use super::*;
    use amacl_model::msg::Payload;
    use amacl_model::proc::Context;

    /// A one-shot relay wave: the initiator broadcasts, everyone relays
    /// once, and each node "decides" the moment the wave reaches it.
    struct Wave {
        relayed: bool,
    }

    #[derive(Clone, Debug)]
    struct Front;
    impl Payload for Front {
        fn id_count(&self) -> usize {
            0
        }
    }

    impl Process for Wave {
        type Msg = Front;
        fn on_start(&mut self, ctx: &mut Context<'_, Front>) {
            if self.relayed {
                ctx.broadcast(Front);
                ctx.decide(0);
            }
        }
        fn on_receive(&mut self, _m: Front, ctx: &mut Context<'_, Front>) {
            if !self.relayed {
                self.relayed = true;
                ctx.broadcast(Front);
            }
            if ctx.decided().is_none() {
                ctx.decide(0);
            }
        }
        fn on_ack(&mut self, _ctx: &mut Context<'_, Front>) {}
    }

    /// One measurement point.
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Progress bound.
        pub f_prog: u64,
        /// Ack bound.
        pub f_ack: u64,
        /// Line diameter for the wave.
        pub d: usize,
        /// Time for the relay wave to reach the far end — tracks
        /// `D * F_prog`, not `F_ack`.
        pub wave_ticks: u64,
        /// Two-phase consensus decision time on a clique under the same
        /// scheduler — tracks `F_ack`, because consensus is ack-driven.
        pub two_phase_ticks: u64,
    }

    /// Sweeps `F_prog` at fixed `F_ack`.
    pub fn series(d: usize, f_ack: u64, f_progs: &[u64], seed: u64) -> Vec<Row> {
        f_progs
            .iter()
            .map(|&f_prog| {
                let mut sim = SimBuilder::new(Topology::line(d + 1), |s| Wave {
                    relayed: s.index() == 0,
                })
                .scheduler(DualBoundScheduler::new(f_prog, f_ack, seed))
                .build();
                let report = sim.run();
                assert!(report.all_decided());
                let wave_ticks = report.max_decision_time().expect("wave arrived").ticks();

                let run = run_two_phase(
                    &alternating_inputs(8),
                    DualBoundScheduler::new(f_prog, f_ack, seed + 1),
                );
                run.check.assert_ok();
                Row {
                    f_prog,
                    f_ack,
                    d,
                    wave_ticks,
                    two_phase_ticks: run.decision_ticks(),
                }
            })
            .collect()
    }
}

/// E12: majority progress — why the paper keeps Paxos instead of plain
/// gathering — Paxos "only depends on a majority of nodes to make
/// progress, and is therefore not slowed if a small portion of the
/// network is delayed" (Section 1).
pub mod e12 {
    use super::*;
    use amacl_core::tree_gather::TreeGather;

    /// One laggard-adversary comparison.
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Clique size.
        pub n: usize,
        /// The laggard's messages are withheld until this tick.
        pub laggard_release: u64,
        /// wPAXOS: latest decision among non-laggard nodes.
        pub wpaxos_ticks: u64,
        /// Tree-gather: latest decision among non-laggard nodes.
        pub gather_ticks: u64,
    }

    fn laggard_sched(n: usize, release: u64) -> EdgeDelayScheduler<SynchronousScheduler> {
        // Slot 0 (small id, never the leader) is the laggard: nothing
        // it sends arrives before `release`.
        let all: Vec<Slot> = (0..n).map(Slot).collect();
        EdgeDelayScheduler::new(
            SynchronousScheduler::new(1),
            vec![DirectedCut::new([Slot(0)], all, Time(release))],
        )
    }

    /// Runs both algorithms under the laggard adversary.
    pub fn series(n: usize, releases: &[u64]) -> Vec<Row> {
        releases
            .iter()
            .map(|&release| {
                let inputs = alternating_inputs(n);

                let iv = inputs.clone();
                let mut sim = SimBuilder::new(Topology::clique(n), |s| {
                    WpaxosNode::new(iv[s.index()], WpaxosConfig::new(n))
                })
                .scheduler(laggard_sched(n, release))
                .build();
                let wreport = sim.run();
                check_consensus(&inputs, &wreport, &[]).assert_ok();
                let wpaxos_ticks = non_laggard_latest(&wreport);

                let iv = inputs.clone();
                let mut sim =
                    SimBuilder::new(Topology::clique(n), |s| TreeGather::new(iv[s.index()], n))
                        .scheduler(laggard_sched(n, release))
                        .build();
                let greport = sim.run();
                check_consensus(&inputs, &greport, &[]).assert_ok();
                let gather_ticks = non_laggard_latest(&greport);

                Row {
                    n,
                    laggard_release: release,
                    wpaxos_ticks,
                    gather_ticks,
                }
            })
            .collect()
    }

    fn non_laggard_latest(report: &RunReport) -> u64 {
        report.decisions[1..]
            .iter()
            .flatten()
            .map(|d| d.time.ticks())
            .max()
            .expect("non-laggard decisions")
    }
}

/// E13: multi-valued consensus — the paper's open generalization
/// (Section 2). Bitwise composition pays `Theta(B)` rounds; direct
/// value-agnostic Paxos pays one.
pub mod e13 {
    use super::*;
    use amacl_core::multivalued::BitwiseTwoPhase;

    /// One bit-width measurement point.
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Value width in bits.
        pub bits: u32,
        /// Clique size.
        pub n: usize,
        /// Scheduler bound.
        pub f_ack: u64,
        /// Bitwise two-phase: latest decision, ticks.
        pub bitwise_ticks: u64,
        /// `bitwise_ticks / (bits * F_ack)` — predicted constant.
        pub per_bit_ratio: f64,
        /// wPAXOS on the same clique with the same (wide) inputs:
        /// latest decision, ticks — flat in `bits`.
        pub wpaxos_ticks: u64,
    }

    /// Distinct `bits`-wide inputs for an `n`-clique (adversarially
    /// spread across the value range so every round has conflicts).
    fn wide_inputs(n: usize, bits: u32) -> Vec<Value> {
        let top = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        (0..n)
            .map(|i| {
                // Alternate complementary patterns plus extremes.
                match i % 4 {
                    0 => 0,
                    1 => top,
                    2 => top / 3,         // 0b0101...
                    _ => top - (top / 3), // 0b1010...
                }
            })
            .collect()
    }

    /// Sweeps the bit width at fixed `n` and `F_ack` under the
    /// max-delay adversary.
    pub fn series(n: usize, bitss: &[u32], f_ack: u64) -> Vec<Row> {
        bitss
            .iter()
            .map(|&bits| {
                let inputs = wide_inputs(n, bits);
                let iv = inputs.clone();
                let mut sim = SimBuilder::new(Topology::clique(n), |s| {
                    BitwiseTwoPhase::new(iv[s.index()], bits)
                })
                .scheduler(MaxDelayScheduler::new(f_ack))
                .message_id_budget(1)
                .build();
                let report = sim.run();
                check_consensus(&inputs, &report, &[]).assert_ok();
                let bitwise_ticks = report.max_decision_time().expect("decided").ticks();

                let run = run_wpaxos(Topology::clique(n), &inputs, MaxDelayScheduler::new(f_ack));
                run.check.assert_ok();

                Row {
                    bits,
                    n,
                    f_ack,
                    bitwise_ticks,
                    per_bit_ratio: bitwise_ticks as f64 / (bits as u64 * f_ack) as f64,
                    wpaxos_ticks: run.decision_ticks(),
                }
            })
            .collect()
    }
}

/// E14: the failure-detector escape from Theorem 3.2 — deterministic
/// crash-tolerant consensus via `◇P` + Paxos (Section 5 future work).
pub mod e14 {
    use super::*;
    use amacl_core::extensions::fd_paxos::FdPaxos;

    /// One crash-tolerance measurement point.
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Clique size.
        pub n: usize,
        /// Nodes crashed (all minority-sized sets keep a majority).
        pub crashes: usize,
        /// Seeds run.
        pub seeds: u64,
        /// Every run satisfied consensus among survivors.
        pub all_ok: bool,
        /// Worst decision time among survivors, ticks.
        pub worst_ticks: u64,
        /// Worst ballots started by any single node (stabilization
        /// quality: small and bounded).
        pub worst_ballots: u64,
        /// Worst false suspicions recorded by any detector.
        pub worst_false_suspicions: u64,
    }

    /// Runs `seeds` executions per crash count, with crashes placed
    /// adversarially (the initial leader first, mid-broadcast).
    pub fn series(n: usize, crash_counts: &[usize], seeds: u64) -> Vec<Row> {
        crash_counts
            .iter()
            .map(|&crashes| {
                assert!(2 * crashes < n, "majority must survive");
                let mut all_ok = true;
                let mut worst_ticks = 0;
                let mut worst_ballots = 0;
                let mut worst_fs = 0;
                for seed in 0..seeds {
                    let inputs: Vec<Value> =
                        (0..n).map(|i| ((i as u64 + seed) % 2) as Value).collect();
                    let iv = inputs.clone();
                    let specs: Vec<CrashSpec> = (0..crashes)
                        .map(|k| {
                            // Crash the k smallest ids — each the current
                            // leader candidate — mid-broadcast at varying
                            // points.
                            CrashSpec::MidBroadcast {
                                slot: Slot(k),
                                nth_broadcast: seed % 4,
                                delivered: (seed as usize + k) % (n - 1),
                            }
                        })
                        .collect();
                    let mut sim =
                        SimBuilder::new(Topology::clique(n), |s| FdPaxos::new(iv[s.index()], n, 4))
                            .scheduler(RandomScheduler::new(4, seed))
                            .crashes(CrashPlan::new(specs))
                            .message_id_budget(3)
                            .max_time(Time(500_000))
                            .build();
                    let report = sim.run();
                    let crashed: Vec<bool> = (0..n).map(|i| i < crashes).collect();
                    let check = check_consensus(&inputs, &report, &crashed);
                    all_ok &= check.ok();
                    worst_ticks =
                        worst_ticks.max(report.max_decision_time().map_or(0, |t| t.ticks()));
                    for i in 0..n {
                        worst_ballots = worst_ballots.max(sim.process(Slot(i)).ballots_started());
                        worst_fs = worst_fs.max(sim.process(Slot(i)).detector().false_suspicions());
                    }
                }
                Row {
                    n,
                    crashes,
                    seeds,
                    all_ok,
                    worst_ticks,
                    worst_ballots,
                    worst_false_suspicions: worst_fs,
                }
            })
            .collect()
    }
}

/// E15: exhaustive model checking — covering the entire scheduler
/// space for small instances (the quantifier the paper's proofs range
/// over).
pub mod e15 {
    use super::*;
    use amacl_checker::{MacExploreConfig, MacExplorer, SearchOrder, ViolationKind};
    use amacl_core::baselines::flood_gather::FloodGather;
    use amacl_core::multivalued::BitwiseTwoPhase;
    use amacl_model::machine::LedgerMutation;

    /// One exhaustive-verification row.
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Instance label.
        pub name: String,
        /// Crash budget given to the explored scheduler.
        pub crash_budget: usize,
        /// Distinct global states covered.
        pub states: u64,
        /// Terminal states (schedules run to quiescence).
        pub terminals: u64,
        /// Longest schedule followed.
        pub depth: usize,
        /// Verified (full cover, no violations).
        pub verified: bool,
        /// First violation kind, if any.
        pub violation: Option<ViolationKind>,
        /// Length of the violating schedule, if any.
        pub schedule_len: Option<usize>,
    }

    fn row<P: Process + Clone + std::fmt::Debug>(
        name: &str,
        topo: Topology,
        procs: Vec<P>,
        inputs: Vec<Value>,
        crash_budget: usize,
    ) -> Row {
        let out = MacExplorer::new(topo, procs, inputs, crash_budget, LedgerMutation::None)
            .run(&MacExploreConfig::naive(SearchOrder::Dfs));
        Row {
            name: name.to_string(),
            crash_budget,
            states: out.states,
            terminals: out.quiescent_states,
            depth: out.max_depth_reached,
            verified: out.verified(),
            violation: out.violations.first().map(|v| v.kind),
            schedule_len: out.violations.first().map(|v| v.schedule.len()),
        }
    }

    /// Runs the verification census.
    pub fn series() -> Vec<Row> {
        let mut rows = Vec::new();
        let mk_tp = |inputs: &[Value]| -> Vec<TwoPhase> {
            inputs.iter().map(|&v| TwoPhase::new(v)).collect()
        };
        rows.push(row(
            "two-phase clique(2) [0,1]",
            Topology::clique(2),
            mk_tp(&[0, 1]),
            vec![0, 1],
            0,
        ));
        rows.push(row(
            "two-phase clique(3) [0,1,1]",
            Topology::clique(3),
            mk_tp(&[0, 1, 1]),
            vec![0, 1, 1],
            0,
        ));
        rows.push(row(
            "two-phase literal-R2 clique(2) [0,1]",
            Topology::clique(2),
            vec![
                TwoPhase::with_literal_r2_check(0),
                TwoPhase::with_literal_r2_check(1),
            ],
            vec![0, 1],
            0,
        ));
        rows.push(row(
            "two-phase clique(3) [0,1,1] +1 crash",
            Topology::clique(3),
            mk_tp(&[0, 1, 1]),
            vec![0, 1, 1],
            1,
        ));
        rows.push(row(
            "bitwise(2b) clique(2) [0b01,0b10]",
            Topology::clique(2),
            vec![BitwiseTwoPhase::new(0b01, 2), BitwiseTwoPhase::new(0b10, 2)],
            vec![0b01, 0b10],
            0,
        ));
        rows.push(row(
            "flood-gather line(3) [0,1,0]",
            Topology::line(3),
            vec![
                FloodGather::new(0, 3),
                FloodGather::new(1, 3),
                FloodGather::new(0, 3),
            ],
            vec![0, 1, 0],
            0,
        ));
        rows.push(row(
            "flood-gather clique(3) +1 crash",
            Topology::clique(3),
            vec![
                FloodGather::new(0, 3),
                FloodGather::new(1, 3),
                FloodGather::new(1, 3),
            ],
            vec![0, 1, 1],
            1,
        ));
        rows
    }
}
