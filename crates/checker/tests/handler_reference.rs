//! Differential tests: the incremental Two-Phase and bitwise handlers
//! against the set-scanning reference they replaced.
//!
//! `reference` keeps the original implementations, which store `R_1`
//! and `R_2` and answer every question by scanning them, exactly as
//! Algorithm 1 is written. The production handlers keep `O(log n)`
//! summaries instead. Both must produce the same trace, the same
//! decisions at the same times and the same node states under every
//! schedule, and the explorer must reach the same verdicts and the same
//! shortest counterexamples with either.

use amacl_checker::{MacExploreConfig, MacExplorer, SearchOrder, ViolationKind};
use amacl_core::multivalued::BitwiseTwoPhase;
use amacl_core::two_phase::{TpStage, TpStatus, TwoPhase};
use amacl_model::machine::LedgerMutation;
use amacl_model::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

mod reference {
    //! The scan-based handlers, kept verbatim in logic as the oracle.

    use std::collections::{BTreeMap, BTreeSet};

    use amacl_core::multivalued::{BwKind, BwMsg, BwStatus};
    use amacl_core::two_phase::{TpMsg, TpStage, TpStatus};
    use amacl_model::prelude::*;

    #[derive(Clone, Debug)]
    pub struct TwoPhase {
        input: Value,
        literal_r2: bool,
        stage: TpStage,
        r1: BTreeSet<TpMsg>,
        r2: BTreeSet<TpMsg>,
        status: Option<TpStatus>,
        witnesses: BTreeSet<NodeId>,
    }

    impl TwoPhase {
        pub fn new(input: Value, literal_r2: bool) -> Self {
            Self {
                input,
                literal_r2,
                stage: TpStage::Phase1,
                r1: BTreeSet::new(),
                r2: BTreeSet::new(),
                status: None,
                witnesses: BTreeSet::new(),
            }
        }

        pub fn stage(&self) -> TpStage {
            self.stage
        }

        pub fn status(&self) -> Option<TpStatus> {
            self.status
        }

        pub fn witnesses(&self) -> &BTreeSet<NodeId> {
            &self.witnesses
        }

        fn saw_conflicting_evidence(&self) -> bool {
            self.r1.iter().any(|m| match *m {
                TpMsg::Phase1 { value, .. } => value != self.input,
                TpMsg::Phase2 { status, .. } => status == TpStatus::Bivalent,
            })
        }

        fn have_phase2_from(&self, id: NodeId) -> bool {
            let check = |m: &TpMsg| matches!(*m, TpMsg::Phase2 { id: i, .. } if i == id);
            self.r1.iter().any(check) || self.r2.iter().any(check)
        }

        fn decided_zero_visible(&self) -> bool {
            let check = |m: &TpMsg| {
                matches!(
                    *m,
                    TpMsg::Phase2 {
                        status: TpStatus::Decided(0),
                        ..
                    }
                )
            };
            if self.literal_r2 {
                self.r2.iter().any(check)
            } else {
                self.r1.iter().any(check) || self.r2.iter().any(check)
            }
        }

        fn try_finish(&mut self, ctx: &mut Context<'_, TpMsg>) {
            if self.witnesses.iter().all(|&w| self.have_phase2_from(w)) {
                let value = if self.decided_zero_visible() { 0 } else { 1 };
                ctx.decide(value);
                self.stage = TpStage::Done;
            }
        }
    }

    impl Process for TwoPhase {
        type Msg = TpMsg;

        fn on_start(&mut self, ctx: &mut Context<'_, TpMsg>) {
            let own = TpMsg::Phase1 {
                id: ctx.id(),
                value: self.input,
            };
            self.r1.insert(own);
            ctx.broadcast(own);
        }

        fn on_receive(&mut self, msg: TpMsg, ctx: &mut Context<'_, TpMsg>) {
            match self.stage {
                TpStage::Phase1 => {
                    self.r1.insert(msg);
                }
                TpStage::Phase2 | TpStage::AwaitWitnesses => {
                    self.r2.insert(msg);
                }
                TpStage::Done => return,
            }
            if self.stage == TpStage::AwaitWitnesses {
                self.try_finish(ctx);
            }
        }

        fn on_ack(&mut self, ctx: &mut Context<'_, TpMsg>) {
            match self.stage {
                TpStage::Phase1 => {
                    let status = if self.saw_conflicting_evidence() {
                        TpStatus::Bivalent
                    } else {
                        TpStatus::Decided(self.input)
                    };
                    self.status = Some(status);
                    self.stage = TpStage::Phase2;
                    let own = TpMsg::Phase2 {
                        id: ctx.id(),
                        status,
                    };
                    self.r2.insert(own);
                    ctx.broadcast(own);
                }
                TpStage::Phase2 => match self.status.expect("status set at phase-1 ack") {
                    TpStatus::Decided(v) => {
                        ctx.decide(v);
                        self.stage = TpStage::Done;
                    }
                    TpStatus::Bivalent => {
                        self.witnesses = self
                            .r1
                            .iter()
                            .chain(self.r2.iter())
                            .map(TpMsg::sender)
                            .collect();
                        self.stage = TpStage::AwaitWitnesses;
                        self.try_finish(ctx);
                    }
                },
                TpStage::AwaitWitnesses | TpStage::Done => {}
            }
        }
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum RoundStage {
        Phase1,
        Phase2,
        AwaitWitnesses,
    }

    #[derive(Clone, Debug)]
    struct Round {
        stage: RoundStage,
        r1: BTreeSet<BwMsg>,
        r2: BTreeSet<BwMsg>,
        status: Option<BwStatus>,
        witnesses: BTreeSet<NodeId>,
    }

    impl Round {
        fn new() -> Self {
            Self {
                stage: RoundStage::Phase1,
                r1: BTreeSet::new(),
                r2: BTreeSet::new(),
                status: None,
                witnesses: BTreeSet::new(),
            }
        }

        fn insert(&mut self, msg: BwMsg) {
            match self.stage {
                RoundStage::Phase1 => {
                    self.r1.insert(msg);
                }
                RoundStage::Phase2 | RoundStage::AwaitWitnesses => {
                    self.r2.insert(msg);
                }
            }
        }

        fn saw_conflicting_evidence(&self, my_bit: u8) -> bool {
            self.r1.iter().any(|m| match m.kind {
                BwKind::Phase1 => bit_of(m.candidate, m.round) != my_bit,
                BwKind::Phase2(status) => status == BwStatus::Bivalent,
            })
        }

        fn have_phase2_from(&self, id: NodeId) -> bool {
            let check = |m: &BwMsg| m.id == id && matches!(m.kind, BwKind::Phase2(_));
            self.r1.iter().any(check) || self.r2.iter().any(check)
        }

        fn decided_zero(&self) -> Option<&BwMsg> {
            self.r1
                .iter()
                .chain(self.r2.iter())
                .find(|m| matches!(m.kind, BwKind::Phase2(BwStatus::Decided(0))))
        }

        fn witnesses_complete(&self) -> bool {
            self.witnesses.iter().all(|&w| self.have_phase2_from(w))
        }
    }

    fn bit_of(v: Value, round: u32) -> u8 {
        ((v >> (63 - round)) & 1) as u8
    }

    fn align(v: Value, bits: u32) -> Value {
        v << (64 - bits)
    }

    fn unalign(v: Value, bits: u32) -> Value {
        v >> (64 - bits)
    }

    #[derive(Clone, Debug)]
    pub struct BitwiseTwoPhase {
        bits: u32,
        candidate: Value,
        seen: BTreeSet<Value>,
        round: u32,
        state: Round,
        buffered: BTreeMap<u32, Vec<BwMsg>>,
        pending_adoption: Option<u8>,
        done: bool,
    }

    impl BitwiseTwoPhase {
        pub fn new(input: Value, bits: u32) -> Self {
            let candidate = align(input, bits);
            Self {
                bits,
                candidate,
                seen: BTreeSet::from([candidate]),
                round: 0,
                state: Round::new(),
                buffered: BTreeMap::new(),
                pending_adoption: None,
                done: false,
            }
        }

        pub fn round(&self) -> u32 {
            self.round
        }

        pub fn is_done(&self) -> bool {
            self.done
        }

        pub fn candidate(&self) -> Value {
            unalign(self.candidate, self.bits)
        }

        fn my_bit(&self) -> u8 {
            bit_of(self.candidate, self.round)
        }

        fn matches_prefix(v: Value, prefix: Value, through_round: u32) -> bool {
            let shift = 63 - through_round;
            (v >> shift) == (prefix >> shift)
        }

        fn broadcast_phase1(&mut self, ctx: &mut Context<'_, BwMsg>) {
            let own = BwMsg {
                round: self.round,
                id: ctx.id(),
                candidate: self.candidate,
                kind: BwKind::Phase1,
            };
            self.state.r1.insert(own);
            ctx.broadcast(own);
        }

        fn finish_round(&mut self, b: u8, ctx: &mut Context<'_, BwMsg>) {
            let shift = 63 - self.round;
            let forced = (self.candidate & !(1u64 << shift)) | ((b as u64) << shift);
            if self.my_bit() != b {
                match self
                    .seen
                    .iter()
                    .copied()
                    .find(|&v| Self::matches_prefix(v, forced, self.round))
                {
                    Some(v) => self.candidate = v,
                    None => {
                        self.pending_adoption = Some(b);
                        return;
                    }
                }
            }
            self.pending_adoption = None;
            if self.round + 1 == self.bits {
                self.done = true;
                ctx.decide(unalign(self.candidate, self.bits));
                return;
            }
            self.round += 1;
            self.state = Round::new();
            self.broadcast_phase1(ctx);
            if let Some(early) = self.buffered.remove(&self.round) {
                for m in early {
                    self.state.r1.insert(m);
                }
            }
        }

        fn try_finish_await(&mut self, ctx: &mut Context<'_, BwMsg>) {
            if self.state.witnesses_complete() {
                let b = if self.state.decided_zero().is_some() {
                    0
                } else {
                    1
                };
                self.finish_round(b, ctx);
            }
        }
    }

    impl Process for BitwiseTwoPhase {
        type Msg = BwMsg;

        fn on_start(&mut self, ctx: &mut Context<'_, BwMsg>) {
            self.broadcast_phase1(ctx);
        }

        fn on_receive(&mut self, msg: BwMsg, ctx: &mut Context<'_, BwMsg>) {
            self.seen.insert(msg.candidate);
            if self.done {
                return;
            }
            if let Some(b) = self.pending_adoption {
                if msg.round > self.round {
                    self.buffered.entry(msg.round).or_default().push(msg);
                }
                self.finish_round(b, ctx);
                return;
            }
            if msg.round < self.round {
                return;
            }
            if msg.round > self.round {
                self.buffered.entry(msg.round).or_default().push(msg);
                return;
            }
            self.state.insert(msg);
            if self.state.stage == RoundStage::AwaitWitnesses {
                self.try_finish_await(ctx);
            }
        }

        fn on_ack(&mut self, ctx: &mut Context<'_, BwMsg>) {
            if self.done || self.pending_adoption.is_some() {
                return;
            }
            match self.state.stage {
                RoundStage::Phase1 => {
                    let status = if self.state.saw_conflicting_evidence(self.my_bit()) {
                        BwStatus::Bivalent
                    } else {
                        BwStatus::Decided(self.my_bit())
                    };
                    self.state.status = Some(status);
                    self.state.stage = RoundStage::Phase2;
                    let own = BwMsg {
                        round: self.round,
                        id: ctx.id(),
                        candidate: self.candidate,
                        kind: BwKind::Phase2(status),
                    };
                    self.state.r2.insert(own);
                    ctx.broadcast(own);
                }
                RoundStage::Phase2 => match self.state.status.expect("status set at phase-1 ack") {
                    BwStatus::Decided(b) => {
                        self.finish_round(b, ctx);
                    }
                    BwStatus::Bivalent => {
                        self.state.witnesses = self
                            .state
                            .r1
                            .iter()
                            .chain(self.state.r2.iter())
                            .map(|m| m.id)
                            .collect();
                        self.state.stage = RoundStage::AwaitWitnesses;
                        self.try_finish_await(ctx);
                    }
                },
                RoundStage::AwaitWitnesses => {}
            }
        }
    }
}

/// What the tests compare of a Two-Phase node.
type TpView = (TpStage, Option<TpStatus>, BTreeSet<NodeId>);

fn tp_view(p: &TwoPhase) -> TpView {
    (p.stage(), p.status(), p.witnesses().clone())
}

fn tp_ref_view(p: &reference::TwoPhase) -> TpView {
    (p.stage(), p.status(), p.witnesses().clone())
}

/// What the tests compare of a bitwise node.
fn bw_view(p: &BitwiseTwoPhase) -> (Value, u32, bool) {
    (p.candidate(), p.round(), p.is_done())
}

fn bw_ref_view(p: &reference::BitwiseTwoPhase) -> (Value, u32, bool) {
    (p.candidate(), p.round(), p.is_done())
}

/// Runs `new` and `old` on `topo` under the same scheduler and crash
/// plan, first in lockstep one tick at a time (comparing every node's
/// view after each tick), then to completion (comparing trace,
/// decisions with their times, and end time).
#[allow(clippy::too_many_arguments)]
fn assert_equivalent<N, O, V, S>(
    topo: &Topology,
    sched: &S,
    crashes: &CrashPlan,
    new: impl Fn(Slot) -> N,
    old: impl Fn(Slot) -> O,
    new_view: impl Fn(&N) -> V,
    old_view: impl Fn(&O) -> V,
    label: &str,
) where
    N: Process,
    O: Process<Msg = N::Msg>,
    V: PartialEq + std::fmt::Debug,
    S: Scheduler + Clone + 'static,
{
    let n = topo.len();
    let build_new = || {
        SimBuilder::new(topo.clone(), &new)
            .scheduler(sched.clone())
            .crashes(crashes.clone())
            .trace(true)
            .build()
    };
    let build_old = || {
        SimBuilder::new(topo.clone(), &old)
            .scheduler(sched.clone())
            .crashes(crashes.clone())
            .trace(true)
            .build()
    };

    let (mut a, mut b) = (build_new(), build_old());
    let (ra, rb) = (a.run(), b.run());
    assert!(a.trace() == b.trace(), "{label}: traces differ");
    assert_eq!(ra.decisions, rb.decisions, "{label}: decisions");
    assert_eq!(ra.end_time, rb.end_time, "{label}: end time");
    assert_eq!(ra.outcome, rb.outcome, "{label}: outcome");
    assert_eq!(ra.metrics, rb.metrics, "{label}: metrics");

    let (mut a, mut b) = (build_new(), build_old());
    for t in 0..=ra.end_time.ticks() {
        a.run_until(Time(t));
        b.run_until(Time(t));
        for i in 0..n {
            assert_eq!(
                new_view(a.process(Slot(i))),
                old_view(b.process(Slot(i))),
                "{label}: node {i} at t={t}"
            );
        }
    }
    assert!(a.trace() == b.trace(), "{label}: lockstep traces differ");
}

/// The adversarial schedule of the `two_phase` module docs: node 0
/// races through both phases while node 1's phase 1 is stalled.
fn racing_schedule() -> ScriptedScheduler {
    ScriptedScheduler::new(1)
        .delay(Slot(0), 0, 1)
        .delay(Slot(0), 1, 1)
        .delay(Slot(1), 0, 10)
        .delay(Slot(1), 1, 1)
}

fn crash_plan(n: usize, crash: u64) -> CrashPlan {
    // `crash` packs (slot, time): zero means no crash.
    if crash == 0 {
        return CrashPlan::none();
    }
    CrashPlan::new(vec![CrashSpec::AtTime {
        slot: Slot(crash as usize % n),
        time: Time(crash / 16),
    }])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two-Phase, both line-23 variants, random schedulers and an
    /// optional crash.
    #[test]
    fn two_phase_matches_the_scanning_reference(
        n in 1usize..12,
        input_bits in 0u64..4096,
        f_ack in 1u64..9,
        seed in 0u64..1_000_000,
        crash in prop_oneof![Just(0u64), 1u64..512],
        literal in any::<bool>(),
    ) {
        let inputs: Vec<Value> = (0..n).map(|i| (input_bits >> i) & 1).collect();
        let make = |s: Slot| {
            if literal {
                TwoPhase::with_literal_r2_check(inputs[s.index()])
            } else {
                TwoPhase::new(inputs[s.index()])
            }
        };
        assert_equivalent(
            &Topology::clique(n),
            &RandomScheduler::new(f_ack, seed),
            &crash_plan(n, crash),
            make,
            |s| reference::TwoPhase::new(inputs[s.index()], literal),
            tp_view,
            tp_ref_view,
            &format!("n={n} inputs={inputs:?} f_ack={f_ack} seed={seed} crash={crash} literal={literal}"),
        );
    }

    /// Bitwise consensus at B in {1, 2, 4, 8}, random schedulers and an
    /// optional crash.
    #[test]
    fn bitwise_matches_the_scanning_reference(
        n in 1usize..12,
        bits in prop_oneof![Just(1u32), Just(2u32), Just(4u32), Just(8u32)],
        raw in proptest::collection::vec(any::<u64>(), 11),
        f_ack in 1u64..9,
        seed in 0u64..1_000_000,
        crash in prop_oneof![Just(0u64), 1u64..2048],
    ) {
        let inputs: Vec<Value> = raw[..n].iter().map(|v| v % (1 << bits)).collect();
        assert_equivalent(
            &Topology::clique(n),
            &RandomScheduler::new(f_ack, seed),
            &crash_plan(n, crash),
            |s| BitwiseTwoPhase::new(inputs[s.index()], bits),
            |s| reference::BitwiseTwoPhase::new(inputs[s.index()], bits),
            bw_view,
            bw_ref_view,
            &format!("n={n} bits={bits} inputs={inputs:?} f_ack={f_ack} seed={seed} crash={crash}"),
        );
    }
}

#[test]
fn racing_schedule_matches_the_scanning_reference() {
    for literal in [false, true] {
        let inputs = [0, 1];
        assert_equivalent(
            &Topology::clique(2),
            &racing_schedule(),
            &CrashPlan::none(),
            |s| {
                if literal {
                    TwoPhase::with_literal_r2_check(inputs[s.index()])
                } else {
                    TwoPhase::new(inputs[s.index()])
                }
            },
            |s| reference::TwoPhase::new(inputs[s.index()], literal),
            tp_view,
            tp_ref_view,
            &format!("racing literal={literal}"),
        );
    }
    for bits in [1u32, 2, 4, 8] {
        let inputs = [0, (1 << bits) - 1, 1];
        assert_equivalent(
            &Topology::clique(3),
            &racing_schedule(),
            &CrashPlan::none(),
            |s| BitwiseTwoPhase::new(inputs[s.index()], bits),
            |s| reference::BitwiseTwoPhase::new(inputs[s.index()], bits),
            bw_view,
            bw_ref_view,
            &format!("racing bits={bits}"),
        );
    }
}

/// The verdict and, when there is a violation, its kind and the BFS
/// minimum schedule length.
fn bfs_verdict<P: Process + Clone + std::fmt::Debug>(
    procs: Vec<P>,
    inputs: &[Value],
    crash_budget: usize,
) -> (bool, Option<(ViolationKind, usize)>) {
    let ex = MacExplorer::new(
        Topology::clique(inputs.len()),
        procs,
        inputs.to_vec(),
        crash_budget,
        LedgerMutation::None,
    );
    let out = ex.run(&MacExploreConfig::naive(SearchOrder::Bfs));
    let shortest = out.violations.first().map(|v| (v.kind, v.schedule.len()));
    (out.verified(), shortest)
}

#[test]
fn explorer_verdicts_and_bfs_minima_match_the_scanning_reference() {
    for inputs in [vec![0, 1], vec![0, 1, 1]] {
        for crash_budget in [0, 1] {
            for literal in [false, true] {
                let new: Vec<TwoPhase> = inputs
                    .iter()
                    .map(|&v| {
                        if literal {
                            TwoPhase::with_literal_r2_check(v)
                        } else {
                            TwoPhase::new(v)
                        }
                    })
                    .collect();
                let old = inputs
                    .iter()
                    .map(|&v| reference::TwoPhase::new(v, literal))
                    .collect();
                assert_eq!(
                    bfs_verdict(new, &inputs, crash_budget),
                    bfs_verdict(old, &inputs, crash_budget),
                    "inputs {inputs:?} crash budget {crash_budget} literal {literal}"
                );
            }
        }
    }
}
