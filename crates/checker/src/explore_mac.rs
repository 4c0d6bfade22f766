//! Plain-data exploration instances on the `MacLayer` seam, and the
//! lowering of their counterexamples into regression scenarios.
//!
//! [`MacExploreDescriptor`] names one instance the
//! [`MacExplorer`] can search — algorithm, topology, inputs, crash
//! budget and, for mutation-testing the checker itself, a seeded
//! [`LedgerMutation`] (the explorer must find both planted bug
//! classes: acks that fire before every delivery lands, and crashes
//! that fail to release the obligations awaiting the dead node). It is
//! the generator-friendly shape `amacl check`, `fuzz` and `explore` and
//! the proptests build, over any algorithm the untimed machine can
//! search and any topology.
//!
//! Counterexamples become scenarios: every [`MacViolation`] carries its
//! full schedule, and [`MacExploreDescriptor::lower`] converts it into
//! a [`ScriptedScheduler`]-plus-crash-plan [`Scenario`] descriptor, so
//! each counterexample joins the `amacl sweep` catalogue and runs on
//! *both* backends, every queue core, and every shard count from then
//! on.
//!
//! [`ScriptedScheduler`]: amacl_model::sim::sched::scripted::ScriptedScheduler

use std::collections::BTreeMap;
use std::fmt::Debug;

use amacl_model::ids::Slot;
use amacl_model::mac::MacChoice;
use amacl_model::machine::{LedgerMutation, MacMachine};
use amacl_model::prelude::*;

use crate::explore::{MacExploreConfig, MacExploreOutcome, MacExplorer, MacViolation};
use crate::fuzz::{FuzzConfig, FuzzOutcome};
use crate::scenario::{
    AlgoVisitor, Scenario, ScenarioAlgo, ScenarioInputs, ScenarioSched, ScenarioTopo,
};

/// A plain-data exploration instance: which algorithm, topology,
/// inputs, crash budget, and (for mutation testing) which seeded bug.
/// The generator-friendly twin of [`Scenario`]; `amacl check`, `fuzz`
/// and `explore` all search through one.
#[derive(Clone, PartialEq, Debug)]
pub struct MacExploreDescriptor {
    /// Algorithm under test.
    pub algo: ScenarioAlgo,
    /// Topology.
    pub topo: ScenarioTopo,
    /// One input per node.
    pub inputs: Vec<Value>,
    /// How many crash choices the explored scheduler may make.
    pub crash_budget: usize,
    /// Seeded ledger bug (or [`LedgerMutation::None`]).
    pub mutation: LedgerMutation,
}

/// The operations a descriptor runs on its [`MacExplorer`], with the
/// process type erased so the algorithm table builds the explorer in
/// one place.
trait AnyExplorer {
    fn explore(&self, cfg: &MacExploreConfig) -> MacExploreOutcome;
    fn walk(&self, cfg: FuzzConfig) -> FuzzOutcome;
    fn replay_decisions(&self, schedule: &[MacChoice]) -> Vec<Option<Value>>;
    fn lower(&self, schedule: &[MacChoice]) -> (Vec<(usize, u64, u64)>, Vec<CrashSpec>);
}

impl<P: Process + Clone + Debug> AnyExplorer for MacExplorer<P> {
    fn explore(&self, cfg: &MacExploreConfig) -> MacExploreOutcome {
        self.run(cfg)
    }

    fn walk(&self, cfg: FuzzConfig) -> FuzzOutcome {
        self.fuzz(cfg)
    }

    fn replay_decisions(&self, schedule: &[MacChoice]) -> Vec<Option<Value>> {
        self.replay(schedule).decisions()
    }

    fn lower(&self, schedule: &[MacChoice]) -> (Vec<(usize, u64, u64)>, Vec<CrashSpec>) {
        lower_schedule(self, schedule)
    }
}

impl MacExploreDescriptor {
    /// Checks the instance: the topology's sizes, the algorithm's
    /// instance rules ([`ScenarioAlgo::check`]) and its support by the
    /// untimed machine ([`ScenarioAlgo::require_untimed`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        self.topo.validate()?;
        self.algo.require_untimed()?;
        self.algo.check(&self.topo.build(), &self.inputs)
    }

    fn explorer(&self) -> Box<dyn AnyExplorer> {
        struct Build<'a>(&'a MacExploreDescriptor);
        impl AlgoVisitor for Build<'_> {
            type Out = Box<dyn AnyExplorer>;
            fn visit<P: Process + Clone + Debug>(
                self,
                _id_budget: usize,
                make: impl Fn(Slot) -> P,
            ) -> Box<dyn AnyExplorer> {
                let d = self.0;
                Box::new(MacExplorer::new(
                    d.topo.build(),
                    (0..d.inputs.len()).map(|i| make(Slot(i))).collect(),
                    d.inputs.clone(),
                    d.crash_budget,
                    d.mutation,
                ))
            }
        }
        self.algo.visit(&self.inputs, Build(self))
    }

    /// Runs the bounded exploration.
    pub fn explore(&self, cfg: &MacExploreConfig) -> MacExploreOutcome {
        self.explorer().explore(cfg)
    }

    /// Runs random walks through the same choices.
    pub fn fuzz(&self, cfg: FuzzConfig) -> FuzzOutcome {
        self.explorer().walk(cfg)
    }

    /// Replays a schedule and returns the resulting decisions — the
    /// byte-identity witness the replay proptests compare against the
    /// explorer's own report.
    pub fn replay_decisions(&self, schedule: &[MacChoice]) -> Vec<Option<Value>> {
        self.explorer().replay_decisions(schedule)
    }

    /// Lowers a violation's schedule into a both-backends-runnable
    /// [`Scenario`]: a [`ScenarioSched::Scripted`] adversary whose
    /// per-broadcast delays reproduce the schedule's coarse completion
    /// order, plus a crash plan mapping each `Crash` choice onto a
    /// [`CrashSpec`] (mid-broadcast with the exact delivered prefix
    /// when the victim had a broadcast in flight, timed otherwise).
    ///
    /// The lowering is **approximate by design**: a scripted scheduler
    /// assigns one delay per broadcast (applied to all its deliveries
    /// and the ack), so it cannot encode arbitrary per-delivery
    /// interleavings — it preserves crash placement exactly and
    /// completion order coarsely. What the scenario pins as a
    /// regression is the *instance* (algorithm, topology, inputs,
    /// crashes, adversary shape), byte-identically checkable across
    /// backends, cores, and shard counts via `amacl sweep`.
    pub fn lower(&self, name: &str, violation: &MacViolation) -> Scenario {
        let (delays, crashes) = self.explorer().lower(&violation.schedule);
        Scenario {
            name: name.to_string(),
            algo: self.algo,
            topo: self.topo,
            sched: ScenarioSched::Scripted {
                default_delay: 1,
                delays,
            },
            crashes,
            inputs: ScenarioInputs::Explicit(self.inputs.clone()),
            strict: false,
            expect_stall: false,
        }
    }
}

/// Replays `schedule` step by step, recording when each broadcast is
/// issued and acked (in 1-based schedule positions) and where each
/// crash lands, then emits the scripted delays and crash specs the
/// scenario lowering needs.
fn lower_schedule<P: Process + Clone + Debug>(
    explorer: &MacExplorer<P>,
    schedule: &[MacChoice],
) -> (Vec<(usize, u64, u64)>, Vec<CrashSpec>) {
    let mut m = explorer.fork_root();
    // (slot, nth) -> 1-based schedule position the broadcast was
    // issued at (0 for on_start broadcasts).
    let mut births: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    let record_births = |m: &MacMachine<P>, step: u64, births: &mut BTreeMap<_, _>| {
        for slot in 0..m.len() {
            if let Some((nth, _)) = m.in_flight_nth(slot) {
                births.entry((slot, nth)).or_insert(step);
            }
        }
    };
    record_births(&m, 0, &mut births);
    let mut delays: Vec<(usize, u64, u64)> = Vec::new();
    let mut crashes: Vec<CrashSpec> = Vec::new();
    for (i, &c) in schedule.iter().enumerate() {
        let step = (i + 1) as u64;
        match c {
            MacChoice::Ack(u) => {
                let (nth, _) = m.in_flight_nth(u).expect("acked broadcast in flight");
                let born = births[&(u, nth)];
                delays.push((u, nth, (step - born).max(1)));
            }
            MacChoice::Crash(u) => match m.in_flight_nth(u) {
                Some((nth, delivered)) => crashes.push(CrashSpec::MidBroadcast {
                    slot: Slot(u),
                    nth_broadcast: nth,
                    delivered,
                }),
                None => crashes.push(CrashSpec::AtTime {
                    slot: Slot(u),
                    time: Time(step),
                }),
            },
            MacChoice::Deliver { .. } => {}
        }
        m.apply(c);
        record_births(&m, step, &mut births);
    }
    // Broadcasts the schedule never acked complete after everything
    // the schedule did order.
    let horizon = schedule.len() as u64 + 1;
    for &(slot, nth) in births.keys() {
        if !delays.iter().any(|&(s, n, _)| s == slot && n == nth) {
            delays.push((slot, nth, horizon));
        }
    }
    delays.sort_unstable();
    (delays, crashes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{Reduction, SearchOrder, ViolationKind};

    const NAIVE: Reduction = Reduction::Naive(SearchOrder::Dfs);

    /// Broadcast once; decide own input on ack; ignore receipts.
    #[derive(Clone, Debug)]
    struct Solo(Value);

    #[derive(Clone, Copy, Debug)]
    struct Ping(Value);
    impl Payload for Ping {
        fn id_count(&self) -> usize {
            0
        }
    }

    impl Process for Solo {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.broadcast(Ping(self.0));
        }
        fn on_receive(&mut self, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}
        fn on_ack(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.decide(self.0);
        }
    }

    /// Only slot 0 broadcasts; receivers decide the received value,
    /// the broadcaster decides on ack. Maximally concurrent: all
    /// deliveries commute pairwise (distinct receivers), so the whole
    /// space is a single Mazurkiewicz trace — the DPOR-vs-naive
    /// benchmark shape.
    #[derive(Clone, Debug)]
    struct Spray {
        v: Value,
        leader: bool,
    }

    impl Process for Spray {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            if self.leader {
                ctx.broadcast(Ping(self.v));
            }
        }
        fn on_receive(&mut self, msg: Ping, ctx: &mut Context<'_, Ping>) {
            ctx.decide(msg.0);
        }
        fn on_ack(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.decide(self.v);
        }
    }

    fn spray_explorer(n: usize) -> MacExplorer<Spray> {
        MacExplorer::new(
            Topology::clique(n),
            (0..n)
                .map(|i| Spray {
                    v: 7,
                    leader: i == 0,
                })
                .collect(),
            vec![7; n],
            0,
            LedgerMutation::None,
        )
    }

    fn solo_explorer(n: usize, budget: usize, mutation: LedgerMutation) -> MacExplorer<Solo> {
        MacExplorer::new(
            Topology::clique(n),
            (0..n).map(|_| Solo(5)).collect(),
            vec![5; n],
            budget,
            mutation,
        )
    }

    fn two_phase_pair(mutation: LedgerMutation) -> MacExploreDescriptor {
        MacExploreDescriptor {
            algo: ScenarioAlgo::TwoPhase,
            topo: ScenarioTopo::Clique(2),
            inputs: vec![0, 1],
            crash_budget: 0,
            mutation,
        }
    }

    #[test]
    fn machine_drives_the_real_ledger() {
        let mut m = MacMachine::new(
            Topology::clique(2),
            vec![Solo(5), Solo(5)],
            0,
            LedgerMutation::None,
        );
        assert_eq!(
            m.choices(),
            vec![
                MacChoice::Deliver { from: 0, to: 1 },
                MacChoice::Deliver { from: 1, to: 0 },
            ]
        );
        m.apply(MacChoice::Deliver { from: 0, to: 1 });
        assert!(m.choices().contains(&MacChoice::Ack(0)));
        m.apply(MacChoice::Ack(0));
        assert_eq!(m.decisions()[0], Some(5));
        assert!(!m.quiescent(), "node 1's broadcast is still in flight");
        m.apply(MacChoice::Deliver { from: 1, to: 0 });
        m.apply(MacChoice::Ack(1));
        assert!(m.quiescent());
        assert!(m.all_alive_decided());
        assert_eq!(m.moves_taken(), 4);
    }

    #[test]
    fn machine_fingerprints_merge_converging_interleavings() {
        let build = || {
            MacMachine::new(
                Topology::clique(3),
                vec![Solo(5), Solo(5), Solo(5)],
                0,
                LedgerMutation::None,
            )
        };
        let mut a = build();
        let mut b = build();
        a.apply(MacChoice::Deliver { from: 0, to: 1 });
        a.apply(MacChoice::Deliver { from: 0, to: 2 });
        b.apply(MacChoice::Deliver { from: 0, to: 2 });
        b.apply(MacChoice::Deliver { from: 0, to: 1 });
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), build().fingerprint());
    }

    #[test]
    #[should_panic(expected = "no pending delivery")]
    fn stale_replay_fails_loudly() {
        let mut m = MacMachine::new(
            Topology::clique(3),
            vec![Solo(5), Solo(5), Solo(5)],
            0,
            LedgerMutation::None,
        );
        m.apply(MacChoice::Deliver { from: 0, to: 1 });
        m.apply(MacChoice::Deliver { from: 0, to: 1 });
    }

    #[test]
    fn crash_releases_obligations_and_freezes_the_victim() {
        let mut m = MacMachine::new(
            Topology::clique(2),
            vec![Solo(5), Solo(5)],
            1,
            LedgerMutation::None,
        );
        m.apply(MacChoice::Crash(1));
        // Node 0's obligation awaited only node 1; death released it,
        // so the ack is enabled, node 1's broadcast is frozen, and the
        // crash spent the whole budget.
        assert_eq!(m.choices(), vec![MacChoice::Ack(0)]);
        assert_eq!(m.crash_budget(), 0);
        m.apply(MacChoice::Ack(0));
        assert!(m.quiescent());
        assert!(m.all_alive_decided());
    }

    #[test]
    fn clean_solo_instance_verifies_under_both_reductions() {
        for reduction in [NAIVE, Reduction::Dpor] {
            let cfg = MacExploreConfig {
                reduction,
                ..MacExploreConfig::default()
            };
            let out = solo_explorer(3, 0, LedgerMutation::None).run(&cfg);
            assert!(out.verified(), "{reduction:?}: {out:?}");
            assert!(out.quiescent_states > 0);
            assert_eq!(out.reduction, reduction);
        }
    }

    #[test]
    fn crash_tolerant_solo_verifies_with_budget() {
        for reduction in [NAIVE, Reduction::Dpor] {
            let cfg = MacExploreConfig {
                reduction,
                ..MacExploreConfig::default()
            };
            let out = solo_explorer(3, 1, LedgerMutation::None).run(&cfg);
            assert!(out.verified(), "{reduction:?}: {out:?}");
        }
    }

    /// The acceptance counter: on a maximally concurrent instance the
    /// sleep/backtrack sets beat even the naive walk's state dedup —
    /// one representative interleaving instead of the full 2^(n-1)
    /// subset lattice.
    #[test]
    fn dpor_expands_measurably_fewer_states_than_naive() {
        let cfg = |reduction| MacExploreConfig {
            reduction,
            ..MacExploreConfig::default()
        };
        let naive = spray_explorer(6).run(&cfg(NAIVE));
        let dpor = spray_explorer(6).run(&cfg(Reduction::Dpor));
        assert!(naive.verified() && dpor.verified());
        assert!(
            dpor.states < naive.states,
            "DPOR expanded {} states, naive {} — no reduction",
            dpor.states,
            naive.states
        );
        // Naive-with-dedup expands every distinct state; DPOR walks a
        // single trace of the lone Mazurkiewicz class plus sleep-set
        // blocked stubs, so the gap is structural, not noise.
        assert!(dpor.states * 2 < naive.states, "reduction not measurable");
    }

    /// The mutation test: the seeded early-ack bug must be FOUND, and
    /// the emitted schedule must replay to the identical violation.
    #[test]
    fn seeded_ack_early_bug_is_found_and_replays() {
        for reduction in [NAIVE, Reduction::Dpor] {
            let cfg = MacExploreConfig {
                reduction,
                ..MacExploreConfig::default()
            };
            let d = two_phase_pair(LedgerMutation::AckEarly);
            d.validate().unwrap();
            let out = d.explore(&cfg);
            let v = out
                .violations
                .first()
                .unwrap_or_else(|| panic!("{reduction:?} missed the seeded bug: {out:?}"));
            // An early ack loses the undelivered messages, which shows
            // up either as disagreement (a sender completes a phase
            // nobody witnessed) or as a wedge (a node waits forever on
            // a message the ledger pretended was delivered) — both are
            // the seeded bug surfacing.
            assert!(
                matches!(
                    v.kind,
                    ViolationKind::Agreement | ViolationKind::Termination
                ),
                "{:?}",
                v.kind
            );
            assert_eq!(d.replay_decisions(&v.schedule), v.decisions);
            // And the unmutated instance verifies clean.
            let clean = two_phase_pair(LedgerMutation::None).explore(&cfg);
            assert!(clean.verified(), "{reduction:?}: {clean:?}");
        }
    }

    /// The second seeded bug: dropping crash-time obligation releases
    /// wedges the surviving senders — a termination violation under
    /// any positive crash budget.
    #[test]
    fn seeded_drop_releases_bug_is_found() {
        for reduction in [NAIVE, Reduction::Dpor] {
            let cfg = MacExploreConfig {
                reduction,
                ..MacExploreConfig::default()
            };
            let out = solo_explorer(2, 1, LedgerMutation::DropReleases).run(&cfg);
            let v = out
                .violations
                .first()
                .unwrap_or_else(|| panic!("{reduction:?} missed the seeded bug: {out:?}"));
            assert_eq!(v.kind, ViolationKind::Termination);
            assert!(
                v.schedule.contains(&MacChoice::Crash(0))
                    || v.schedule.contains(&MacChoice::Crash(1))
            );
        }
    }

    #[test]
    fn outcomes_are_deterministic_across_runs() {
        let cfg = MacExploreConfig::default();
        let d = two_phase_pair(LedgerMutation::AckEarly);
        let a = d.explore(&cfg);
        let b = d.explore(&cfg);
        assert_eq!(a, b);
        assert_eq!(
            a.violations[0].render(),
            b.violations[0].render(),
            "rendered bytes differ"
        );
    }

    #[test]
    fn truncation_is_reported_not_swallowed() {
        let cfg = MacExploreConfig {
            max_states: 5,
            reduction: Reduction::Dpor,
            ..MacExploreConfig::default()
        };
        let out = solo_explorer(3, 0, LedgerMutation::None).run(&cfg);
        assert!(out.truncated);
        assert!(!out.verified());
        let cfg = MacExploreConfig {
            max_depth: 2,
            reduction: NAIVE,
            ..MacExploreConfig::default()
        };
        let out = solo_explorer(3, 0, LedgerMutation::None).run(&cfg);
        assert!(out.truncated);
        assert!(!out.verified());
    }

    #[test]
    fn descriptor_validation_rejects_bad_instances() {
        let mut d = two_phase_pair(LedgerMutation::None);
        d.inputs = vec![0];
        assert!(d.validate().unwrap_err().contains("1 inputs given"));
        let mut d = two_phase_pair(LedgerMutation::None);
        d.inputs = vec![0, 2];
        assert!(d.validate().unwrap_err().contains("binary"));
        // A 2-node line is a clique; a 3-node line is not.
        let mut d = two_phase_pair(LedgerMutation::None);
        d.topo = ScenarioTopo::Line(3);
        d.inputs = vec![0, 1, 1];
        assert!(d.validate().unwrap_err().contains("clique"));
        let mut d = two_phase_pair(LedgerMutation::None);
        d.algo = ScenarioAlgo::BenOr;
        assert!(d.validate().unwrap_err().contains("randomized"));
    }

    #[test]
    fn lowered_counterexample_is_a_valid_scenario() {
        let d = two_phase_pair(LedgerMutation::AckEarly);
        let out = d.explore(&MacExploreConfig::default());
        let v = &out.violations[0];
        let scenario = d.lower("explored-ack-early-witness", v);
        scenario.validate().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(scenario.algo, ScenarioAlgo::TwoPhase);
        assert!(matches!(scenario.sched, ScenarioSched::Scripted { .. }));
        assert_eq!(
            scenario.inputs,
            ScenarioInputs::Explicit(vec![0, 1]),
            "inputs carried verbatim"
        );
        assert!(
            scenario.crashes.is_empty(),
            "budget-0 witness is crash-free"
        );
        // The lowering is deterministic: same violation, same scenario.
        assert_eq!(scenario, d.lower("explored-ack-early-witness", v));
    }

    #[test]
    fn lowering_maps_crashes_onto_crash_specs() {
        // Build a hand-made violation-shaped schedule with a crash of
        // a node whose broadcast is partially delivered, and one whose
        // broadcast already completed.
        let d = MacExploreDescriptor {
            algo: ScenarioAlgo::Wpaxos,
            topo: ScenarioTopo::Clique(3),
            inputs: vec![1, 1, 1],
            crash_budget: 2,
            mutation: LedgerMutation::None,
        };
        let schedule = vec![
            MacChoice::Deliver { from: 0, to: 1 },
            MacChoice::Crash(0),
            MacChoice::Deliver { from: 1, to: 2 },
            MacChoice::Crash(2),
        ];
        let v = MacViolation {
            kind: ViolationKind::Termination,
            schedule,
            decisions: vec![None, None, None],
        };
        let scenario = d.lower("crash-lowering-probe", &v);
        assert_eq!(
            scenario.crashes[0],
            CrashSpec::MidBroadcast {
                slot: Slot(0),
                nth_broadcast: 0,
                delivered: 1,
            },
            "in-flight victim lowers to the exact delivered prefix"
        );
        assert!(
            matches!(
                scenario.crashes[1],
                CrashSpec::MidBroadcast { slot: Slot(2), .. }
            ) || matches!(scenario.crashes[1], CrashSpec::AtTime { slot: Slot(2), .. })
        );
    }

    /// The counterexample-to-catalogue loop, closed: the catalogue's
    /// "explored-ack-early-witness" entry is byte-identical to what
    /// the converter emits for the seeded bug's first violation. If
    /// the explorer, the search order, or the lowering change, this
    /// fails and the literal must be re-pinned from the new output.
    #[test]
    fn catalogue_witness_matches_the_lowering() {
        let d = two_phase_pair(LedgerMutation::AckEarly);
        let out = d.explore(&MacExploreConfig::default());
        let lowered = d.lower("explored-ack-early-witness", &out.violations[0]);
        let pinned = Scenario::by_name("explored-ack-early-witness").expect("catalogue entry");
        assert_eq!(
            lowered, pinned,
            "re-pin the catalogue literal from the converter output"
        );
    }

    #[test]
    fn mutation_parsing_round_trips() {
        for m in [
            LedgerMutation::None,
            LedgerMutation::AckEarly,
            LedgerMutation::DropReleases,
        ] {
            assert_eq!(LedgerMutation::parse(m.label()), Some(m));
        }
        assert_eq!(LedgerMutation::parse("bogus"), None);
    }
}
