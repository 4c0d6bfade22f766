//! Two-Phase Consensus (Algorithm 1): optimal single-hop consensus.
//!
//! Solves binary consensus in single-hop (clique) topologies in
//! `O(F_ack)` time, assuming unique ids but **no knowledge of `n` or of
//! the participants** (Theorem 4.1). This opens a gap with the
//! asynchronous broadcast model of Abboud et al., where consensus is
//! impossible under those assumptions — the ack is what closes the gap.
//!
//! ## How it works
//!
//! Each node `u` runs two broadcast phases:
//!
//! 1. Broadcast `(phase1, id_u, v_u)`. When the ack arrives, choose a
//!    *status*: if any evidence of a different initial value was seen
//!    (a phase-1 message with `1 - v_u`, or a *bivalent* phase-2
//!    message), the status is `bivalent`; otherwise it is
//!    `decided(v_u)`.
//! 2. Broadcast `(phase2, id_u, status)`. On the ack: a `decided`
//!    node decides its value and terminates. A `bivalent` node builds a
//!    *witness list* `W` of every id heard so far, waits until it holds
//!    a phase-2 message from every witness, then decides 0 if any
//!    witness reported `decided(0)`, else the default 1.
//!
//! The witness wait is the crux of the agreement proof: if some node
//! `u` chose `decided(0)`, every bivalent node either heard from `u`
//! before finishing phase 2 (and thus waits for, and sees, `u`'s
//! status) or — by the ack ordering — `u` must have seen its bivalent
//! phase-2 message during phase 1, contradicting `u`'s decided status.
//!
//! ## A pseudocode discrepancy in the paper (reproduced here)
//!
//! Line 23 of the paper's Algorithm 1 checks for `decided(0)` in `R_2`
//! only, but a witness's phase-2 message can legitimately arrive while
//! the checker is still in phase 1 — landing in `R_1`. The proof of
//! Theorem 4.1 says the waiting node "will therefore see that `u` has a
//! status of decided(0)", which requires scanning `R_1 ∪ R_2`. With the
//! literal `R_2`-only check there is a schedule (see the
//! `literal_r2_check_violates_agreement` test) where agreement fails.
//! This implementation scans `R_1 ∪ R_2`;
//! [`TwoPhase::with_literal_r2_check`] reproduces the paper's literal
//! pseudocode for the regression demonstration.
//!
//! ## Cost per event
//!
//! The handlers never scan `R_1` or `R_2`; neither set is stored.
//! Each receive updates a fixed set of summaries in `O(log n)`: a
//! `conflict` flag, a `decided_zero` flag, one ordered map from each
//! sender heard to whether its phase-2 message has arrived (its keys
//! become `W`), and the count of witnesses still missing. Building `W`
//! at the phase-2 ack costs `O(n log n)` once. The flags are exact
//! because they only ever turn on, just as a set only ever grows.
//! `conflict` is the phase-1 ack's "any conflicting message in `R_1`",
//! so it is only raised while the node is in phase 1. `decided_zero`
//! is line 23's "any `decided(0)` in the scanned sets", so the literal
//! variant does not raise it for messages filed in `R_1`.

use std::collections::{BTreeMap, BTreeSet};

use amacl_model::prelude::*;

/// Status chosen after the phase-1 ack.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum TpStatus {
    /// The node saw only its own initial value: it will decide it.
    Decided(Value),
    /// The node saw evidence of both values.
    Bivalent,
}

/// Messages of Algorithm 1. Each carries exactly one id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum TpMsg {
    /// First-phase announcement of the sender's initial value.
    Phase1 {
        /// Sender id.
        id: NodeId,
        /// Sender's initial value.
        value: Value,
    },
    /// Second-phase announcement of the sender's status.
    Phase2 {
        /// Sender id.
        id: NodeId,
        /// Sender's status.
        status: TpStatus,
    },
}

impl TpMsg {
    /// The sender id embedded in the message.
    pub fn sender(&self) -> NodeId {
        match *self {
            TpMsg::Phase1 { id, .. } | TpMsg::Phase2 { id, .. } => id,
        }
    }
}

impl Payload for TpMsg {
    fn id_count(&self) -> usize {
        1
    }
}

/// Where the algorithm currently is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TpStage {
    /// Waiting for the phase-1 ack.
    Phase1,
    /// Waiting for the phase-2 ack.
    Phase2,
    /// Status was bivalent; waiting for phase-2 messages from all
    /// witnesses.
    AwaitWitnesses,
    /// Decided.
    Done,
}

/// The witness wait, kept incrementally: who has been heard from, and
/// how many witnesses still owe a phase-2 message. Shared with the
/// per-round machine of [`crate::multivalued`].
#[derive(Clone, Debug, Default)]
pub(crate) struct WitnessWait {
    /// Every sender heard so far, mapped to whether its phase-2 message
    /// has arrived. Once `W` is built no sender is added, so the keys
    /// are `W`.
    heard: BTreeMap<NodeId, bool>,
    /// The witness list `W`. Empty until built, and never empty after:
    /// a node always hears its own phase-1 message first.
    witnesses: BTreeSet<NodeId>,
    /// Witnesses whose phase-2 message has not arrived, once `W` is
    /// built.
    missing: usize,
}

impl WitnessWait {
    /// Records a message from `id`; `phase2` says it carries a status.
    pub(crate) fn hear(&mut self, id: NodeId, phase2: bool) {
        if self.witnesses.is_empty() {
            *self.heard.entry(id).or_default() |= phase2;
        } else if phase2 && self.heard.get(&id) == Some(&false) {
            self.heard.insert(id, true);
            self.missing -= 1;
        }
    }

    /// Builds `W` from every sender heard so far (the phase-2 ack).
    pub(crate) fn build(&mut self) {
        self.witnesses = self.heard.keys().copied().collect();
        self.missing = self.heard.values().filter(|&&p2| !p2).count();
    }

    /// `true` once every witness's phase-2 message has arrived.
    pub(crate) fn complete(&self) -> bool {
        self.missing == 0
    }

    /// Drops the bookkeeping after the decision; `W` stays readable.
    pub(crate) fn retire(&mut self) {
        self.heard = BTreeMap::new();
    }

    /// The witness list `W` (empty until built).
    pub(crate) fn witnesses(&self) -> &BTreeSet<NodeId> {
        &self.witnesses
    }
}

/// One node running Two-Phase Consensus.
#[derive(Clone, Debug)]
pub struct TwoPhase {
    input: Value,
    literal_r2: bool,
    stage: TpStage,
    status: Option<TpStatus>,
    /// `R_1` holds a phase-1 message with the other value or a bivalent
    /// phase-2 message.
    conflict: bool,
    /// The sets line 23 scans hold a `decided(0)` phase-2 message.
    decided_zero: bool,
    wait: WitnessWait,
}

impl TwoPhase {
    /// Creates a node with the given binary input.
    ///
    /// # Panics
    ///
    /// Panics unless `input` is 0 or 1 (the paper studies binary
    /// consensus; the default-1 decision rule is binary-specific).
    pub fn new(input: Value) -> Self {
        assert!(input <= 1, "two-phase consensus is binary");
        Self {
            input,
            literal_r2: false,
            stage: TpStage::Phase1,
            status: None,
            conflict: false,
            decided_zero: false,
            wait: WitnessWait::default(),
        }
    }

    /// As [`TwoPhase::new`], but reproducing the paper's literal line
    /// 23 (scan `R_2` only for `decided(0)`). **Unsafe** — exists to
    /// demonstrate the pseudocode discrepancy; see the module docs.
    pub fn with_literal_r2_check(input: Value) -> Self {
        Self {
            literal_r2: true,
            ..Self::new(input)
        }
    }

    /// The node's input value.
    pub fn input(&self) -> Value {
        self.input
    }

    /// Current stage, for inspection in tests.
    pub fn stage(&self) -> TpStage {
        self.stage
    }

    /// The status chosen at the phase-1 ack, once chosen.
    pub fn status(&self) -> Option<TpStatus> {
        self.status
    }

    /// The witness list `W` (empty until built at the phase-2 ack).
    pub fn witnesses(&self) -> &BTreeSet<NodeId> {
        self.wait.witnesses()
    }

    /// Files `msg` into `R_1` (during phase 1) or `R_2` (after), keeping
    /// only what the handlers read from those sets.
    fn record(&mut self, msg: TpMsg) {
        let in_r1 = self.stage == TpStage::Phase1;
        match msg {
            TpMsg::Phase1 { id, value } => {
                self.conflict |= in_r1 && value != self.input;
                self.wait.hear(id, false);
            }
            TpMsg::Phase2 { id, status } => {
                self.conflict |= in_r1 && status == TpStatus::Bivalent;
                self.decided_zero |= status == TpStatus::Decided(0) && !(in_r1 && self.literal_r2);
                self.wait.hear(id, true);
            }
        }
    }

    fn decide(&mut self, value: Value, ctx: &mut Context<'_, TpMsg>) {
        ctx.decide(value);
        self.stage = TpStage::Done;
        self.wait.retire();
    }

    fn try_finish(&mut self, ctx: &mut Context<'_, TpMsg>) {
        debug_assert_eq!(self.stage, TpStage::AwaitWitnesses);
        if self.wait.complete() {
            let value = if self.decided_zero { 0 } else { 1 };
            self.decide(value, ctx);
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
        self.record(own);
        ctx.broadcast(own);
    }

    fn on_receive(&mut self, msg: TpMsg, ctx: &mut Context<'_, TpMsg>) {
        if self.stage == TpStage::Done {
            return;
        }
        self.record(msg);
        if self.stage == TpStage::AwaitWitnesses {
            self.try_finish(ctx);
        }
    }

    fn on_ack(&mut self, ctx: &mut Context<'_, TpMsg>) {
        match self.stage {
            TpStage::Phase1 => {
                let status = if self.conflict {
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
                self.record(own);
                ctx.broadcast(own);
            }
            TpStage::Phase2 => match self.status.expect("status set at phase-1 ack") {
                TpStatus::Decided(v) => self.decide(v, ctx),
                TpStatus::Bivalent => {
                    self.wait.build();
                    self.stage = TpStage::AwaitWitnesses;
                    self.try_finish(ctx);
                }
            },
            // No broadcasts are outstanding after phase 2 completes.
            TpStage::AwaitWitnesses | TpStage::Done => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_consensus;

    fn run(
        inputs: &[Value],
        scheduler: impl Scheduler + 'static,
        literal: bool,
    ) -> (RunReport, Vec<Value>) {
        let topo = Topology::clique(inputs.len());
        let inputs_vec = inputs.to_vec();
        let mut sim = SimBuilder::new(topo, |s| {
            if literal {
                TwoPhase::with_literal_r2_check(inputs_vec[s.index()])
            } else {
                TwoPhase::new(inputs_vec[s.index()])
            }
        })
        .scheduler(scheduler)
        .message_id_budget(1)
        .build();
        (sim.run(), inputs.to_vec())
    }

    #[test]
    fn uniform_inputs_decide_that_value_synchronously() {
        for v in [0u64, 1] {
            let inputs = vec![v; 5];
            let (report, _) = run(&inputs, SynchronousScheduler::new(1), false);
            let check = check_consensus(&inputs, &report, &[]);
            check.assert_ok();
            assert_eq!(check.decided, Some(v));
        }
    }

    #[test]
    fn mixed_inputs_agree_synchronously() {
        let inputs = vec![0, 1, 0, 1, 1, 0];
        let (report, _) = run(&inputs, SynchronousScheduler::new(1), false);
        check_consensus(&inputs, &report, &[]).assert_ok();
    }

    #[test]
    fn decision_time_is_two_rounds_synchronously() {
        // Under the synchronous scheduler everyone sees all phase-1
        // messages before the phase-1 ack, so all nodes finish at
        // exactly 2 rounds = 2 * F_ack.
        for f_ack in [1u64, 5, 20] {
            let inputs = vec![0, 1, 0, 1];
            let (report, _) = run(&inputs, SynchronousScheduler::new(f_ack), false);
            assert!(report.all_decided());
            assert_eq!(report.max_decision_time(), Some(Time(2 * f_ack)));
        }
    }

    #[test]
    fn o_f_ack_bound_under_max_delay_adversary() {
        // Even when every broadcast takes the full F_ack, decisions
        // land within 4 * F_ack (two phases + witness wait).
        for f_ack in [1u64, 7, 32] {
            let inputs = vec![1, 0, 1];
            let (report, _) = run(&inputs, MaxDelayScheduler::new(f_ack), false);
            let check = check_consensus(&inputs, &report, &[]);
            check.assert_ok();
            let max = report.max_decision_time().unwrap();
            assert!(
                max.ticks() <= 4 * f_ack,
                "F_ack={f_ack}: decided at {max}, above 4*F_ack"
            );
        }
    }

    #[test]
    fn random_schedulers_never_violate_consensus() {
        for seed in 0..60 {
            let n = 2 + (seed as usize % 7);
            let inputs: Vec<Value> = (0..n).map(|i| ((seed as usize + i) % 2) as Value).collect();
            let (report, _) = run(&inputs, RandomScheduler::new(6, seed), false);
            let check = check_consensus(&inputs, &report, &[]);
            assert!(check.ok(), "seed {seed}: {:?}", check.violation);
        }
    }

    #[test]
    fn works_without_knowledge_of_n() {
        // The constructor takes no n; a singleton decides its own value.
        let inputs = vec![1];
        let (report, _) = run(&inputs, SynchronousScheduler::new(1), false);
        let check = check_consensus(&inputs, &report, &[]);
        check.assert_ok();
        assert_eq!(check.decided, Some(1));
    }

    /// The adversarial schedule from the module docs: node 0 (input 0)
    /// races through both phases before node 1's phase-1 broadcast
    /// completes, so node 0's `decided(0)` phase-2 message lands in
    /// node 1's `R_1`.
    fn racing_schedule() -> ScriptedScheduler {
        ScriptedScheduler::new(1)
            .delay(Slot(0), 0, 1) // u phase 1: fast
            .delay(Slot(0), 1, 1) // u phase 2: fast
            .delay(Slot(1), 0, 10) // v phase 1: stalled
            .delay(Slot(1), 1, 1) // v phase 2: fast
    }

    #[test]
    fn literal_r2_check_violates_agreement() {
        // Reproduces the paper's pseudocode discrepancy: with the
        // literal line-23 check (R_2 only), this schedule makes node 0
        // decide 0 and node 1 decide 1.
        let inputs = vec![0, 1];
        let (report, _) = run(&inputs, racing_schedule(), true);
        assert!(report.all_decided());
        let check = check_consensus(&inputs, &report, &[]);
        assert!(!check.agreement, "expected the documented violation");
        assert_eq!(report.decisions[0].unwrap().value, 0);
        assert_eq!(report.decisions[1].unwrap().value, 1);
    }

    #[test]
    fn union_check_fixes_the_racing_schedule() {
        let inputs = vec![0, 1];
        let (report, _) = run(&inputs, racing_schedule(), false);
        let check = check_consensus(&inputs, &report, &[]);
        check.assert_ok();
        assert_eq!(check.decided, Some(0));
    }

    #[test]
    fn statuses_cannot_conflict() {
        // After any run, decided(0) and decided(1) never coexist
        // (the key invariant in the proof of Theorem 4.1).
        for seed in 0..40 {
            let inputs: Vec<Value> = (0..5).map(|i| ((i + seed as usize) % 2) as Value).collect();
            let topo = Topology::clique(5);
            let iv = inputs.clone();
            let mut sim = SimBuilder::new(topo, |s| TwoPhase::new(iv[s.index()]))
                .scheduler(RandomScheduler::new(4, seed))
                .build();
            sim.run();
            let statuses: BTreeSet<TpStatus> = (0..5)
                .filter_map(|i| sim.process(Slot(i)).status())
                .collect();
            assert!(
                !(statuses.contains(&TpStatus::Decided(0))
                    && statuses.contains(&TpStatus::Decided(1))),
                "seed {seed}: conflicting decided statuses"
            );
        }
    }

    #[test]
    fn witness_lists_cover_heard_nodes() {
        let inputs = vec![0, 1, 0];
        let topo = Topology::clique(3);
        let iv = inputs.clone();
        let mut sim = SimBuilder::new(topo, |s| TwoPhase::new(iv[s.index()]))
            .scheduler(SynchronousScheduler::new(1))
            .build();
        sim.run();
        // Under the synchronous scheduler everyone hears everyone in
        // phase 1, so any bivalent node's witness list is all of them.
        for i in 0..3 {
            let p = sim.process(Slot(i));
            if p.status() == Some(TpStatus::Bivalent) {
                assert_eq!(p.witnesses().len(), 3);
            }
        }
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn non_binary_input_rejected() {
        TwoPhase::new(2);
    }
}
