//! Ben-Or-style randomized binary consensus, tolerating one crash.
//!
//! Theorem 3.2 generalizes FLP to the abstract MAC layer: no
//! *deterministic* algorithm solves consensus with a single crash
//! failure. The classic escape hatch is randomization. This module
//! implements the textbook Ben-Or protocol for `f = 1` over
//! acknowledged local broadcast in a single-hop network with known `n`:
//!
//! Round `r` has two phases:
//!
//! 1. **Report**: broadcast `(R, r, x)`; collect `n - f` reports for
//!    round `r` (own included). If a strict majority (`> n/2`) of all
//!    `n` reports collected carry the same value `v`, propose `v`, else
//!    propose `⊥`.
//! 2. **Proposal**: broadcast `(P, r, v_or_⊥)`; collect `n - f`
//!    proposals. If at least `f + 1 = 2` carry the same `v != ⊥`,
//!    *decide* `v`; if at least one does, adopt `x = v`; otherwise set
//!    `x` to a fair coin flip.
//!
//! Agreement is deterministic (two different non-`⊥` proposals in one
//! round would each need a strict majority of reports); termination
//! holds with probability 1 (once coin flips coincide, or a decided
//! value saturates, every subsequent round decides). Requires
//! `n >= 2f + 1 = 3`.

use std::collections::BTreeMap;

use amacl_model::ids::NodeId;
use amacl_model::prelude::*;
use rand::Rng;

/// Protocol phase of a message.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum BenOrPhase {
    /// First-phase value report.
    Report,
    /// Second-phase proposal (`None` encodes `⊥`).
    Proposal,
}

/// A Ben-Or message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BenOrMsg {
    /// Sender id.
    pub id: NodeId,
    /// Round number.
    pub round: u64,
    /// Phase.
    pub phase: BenOrPhase,
    /// Reported value, or proposal (`None` = `⊥`; reports always carry
    /// `Some`).
    pub value: Option<Value>,
}

impl Payload for BenOrMsg {
    fn id_count(&self) -> usize {
        1
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    SendReport,
    AwaitReports,
    SendProposal(Option<Value>),
    AwaitProposals,
}

/// A Ben-Or node (binary inputs, `f = 1`).
#[derive(Clone, Debug)]
pub struct BenOr {
    n: usize,
    x: Value,
    round: u64,
    stage: Stage,
    inbox: BTreeMap<(u64, BenOrPhase), BTreeMap<NodeId, Option<Value>>>,
    rounds_executed: u64,
}

impl BenOr {
    /// Crash tolerance of this implementation.
    pub const F: usize = 1;

    /// Creates a node with a binary input for a single-hop network of
    /// known size `n >= 3`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or the input is not binary.
    pub fn new(input: Value, n: usize) -> Self {
        assert!(n > 2 * Self::F, "Ben-Or with f=1 needs n >= 3");
        assert!(input <= 1, "Ben-Or is binary");
        Self {
            n,
            x: input,
            round: 1,
            stage: Stage::SendReport,
            inbox: BTreeMap::new(),
            rounds_executed: 0,
        }
    }

    /// Rounds completed so far (termination-speed diagnostics).
    pub fn rounds_executed(&self) -> u64 {
        self.rounds_executed
    }

    /// The current estimate `x`.
    pub fn estimate(&self) -> Value {
        self.x
    }

    fn quorum(&self) -> usize {
        self.n - Self::F
    }

    fn record(&mut self, msg: BenOrMsg) {
        self.inbox
            .entry((msg.round, msg.phase))
            .or_default()
            .insert(msg.id, msg.value);
    }

    fn try_send(&mut self, ctx: &mut Context<'_, BenOrMsg>) {
        if ctx.is_busy() {
            return;
        }
        match self.stage {
            Stage::SendReport => {
                let msg = BenOrMsg {
                    id: ctx.id(),
                    round: self.round,
                    phase: BenOrPhase::Report,
                    value: Some(self.x),
                };
                self.record(msg);
                self.stage = Stage::AwaitReports;
                ctx.broadcast(msg);
            }
            Stage::SendProposal(v) => {
                let msg = BenOrMsg {
                    id: ctx.id(),
                    round: self.round,
                    phase: BenOrPhase::Proposal,
                    value: v,
                };
                self.record(msg);
                self.stage = Stage::AwaitProposals;
                ctx.broadcast(msg);
            }
            Stage::AwaitReports | Stage::AwaitProposals => {}
        }
    }

    fn advance(&mut self, ctx: &mut Context<'_, BenOrMsg>) {
        loop {
            match self.stage {
                Stage::AwaitReports => {
                    let Some(reports) = self.inbox.get(&(self.round, BenOrPhase::Report)) else {
                        return;
                    };
                    if reports.len() < self.quorum() {
                        return;
                    }
                    let mut counts = [0usize; 2];
                    for v in reports.values().flatten() {
                        counts[*v as usize] += 1;
                    }
                    let vote = if counts[0] * 2 > self.n {
                        Some(0)
                    } else if counts[1] * 2 > self.n {
                        Some(1)
                    } else {
                        None
                    };
                    self.stage = Stage::SendProposal(vote);
                    self.try_send(ctx);
                    if matches!(self.stage, Stage::SendProposal(_)) {
                        return; // still busy; the ack will resume us
                    }
                }
                Stage::AwaitProposals => {
                    let Some(props) = self.inbox.get(&(self.round, BenOrPhase::Proposal)) else {
                        return;
                    };
                    if props.len() < self.quorum() {
                        return;
                    }
                    let mut counts = [0usize; 2];
                    for v in props.values().flatten() {
                        counts[*v as usize] += 1;
                    }
                    // At most one value can have non-zero support: a
                    // non-bot proposal required a strict report
                    // majority.
                    debug_assert!(
                        counts[0] == 0 || counts[1] == 0,
                        "conflicting proposals in one round"
                    );
                    let (support, v) = if counts[0] > 0 {
                        (counts[0], 0)
                    } else {
                        (counts[1], 1)
                    };
                    if support > Self::F {
                        self.x = v;
                        ctx.decide(v);
                    } else if support >= 1 {
                        self.x = v;
                    } else {
                        self.x = ctx.rng().gen_range(0..=1);
                    }
                    // Keep participating after deciding so laggards can
                    // finish their quorums.
                    self.rounds_executed += 1;
                    self.inbox.retain(|(r, _), _| *r >= self.round);
                    self.round += 1;
                    self.stage = Stage::SendReport;
                    self.try_send(ctx);
                    if matches!(self.stage, Stage::SendReport) {
                        return;
                    }
                }
                Stage::SendReport | Stage::SendProposal(_) => {
                    self.try_send(ctx);
                    return;
                }
            }
        }
    }
}

impl Process for BenOr {
    type Msg = BenOrMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, BenOrMsg>) {
        self.try_send(ctx);
    }

    fn on_receive(&mut self, msg: BenOrMsg, ctx: &mut Context<'_, BenOrMsg>) {
        self.record(msg);
        self.advance(ctx);
    }

    fn on_ack(&mut self, ctx: &mut Context<'_, BenOrMsg>) {
        self.advance(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_consensus;

    fn run(
        inputs: &[Value],
        scheduler: impl Scheduler + 'static,
        crashes: CrashPlan,
        seed: u64,
    ) -> RunReport {
        let n = inputs.len();
        let iv = inputs.to_vec();
        let mut sim = SimBuilder::new(Topology::clique(n), |s| BenOr::new(iv[s.index()], n))
            .scheduler(scheduler)
            .crashes(crashes)
            .seed(seed)
            .message_id_budget(1)
            .max_time(Time(1_000_000))
            .build();
        sim.run()
    }

    fn crashed_flags(n: usize, slot: usize) -> Vec<bool> {
        let mut v = vec![false; n];
        v[slot] = true;
        v
    }

    #[test]
    fn uniform_inputs_decide_in_one_round_without_crashes() {
        for v in [0u64, 1] {
            let inputs = vec![v; 5];
            let report = run(&inputs, SynchronousScheduler::new(1), CrashPlan::none(), 1);
            let check = check_consensus(&inputs, &report, &[]);
            check.assert_ok();
            assert_eq!(check.decided, Some(v));
        }
    }

    #[test]
    fn mixed_inputs_terminate_and_agree_without_crashes() {
        for seed in 0..20 {
            let inputs = vec![0, 1, 0, 1, 1];
            let report = run(
                &inputs,
                RandomScheduler::new(4, seed),
                CrashPlan::none(),
                seed,
            );
            let check = check_consensus(&inputs, &report, &[]);
            assert!(check.ok(), "seed {seed}: {:?}", check.violation);
        }
    }

    #[test]
    fn survives_a_mid_broadcast_crash() {
        // The exact failure mode that kills deterministic algorithms
        // (Theorem 3.2): a node dies after delivering its broadcast to
        // only some neighbors.
        for seed in 0..20 {
            let inputs = vec![0, 1, 0, 1, 1, 0];
            let crashes = CrashPlan::new(vec![CrashSpec::MidBroadcast {
                slot: Slot(2),
                nth_broadcast: 1,
                delivered: 2,
            }]);
            let report = run(&inputs, RandomScheduler::new(3, seed), crashes, seed);
            let check = check_consensus(&inputs, &report, &crashed_flags(6, 2));
            assert!(check.ok(), "seed {seed}: {:?}", check.violation);
        }
    }

    #[test]
    fn survives_crashes_at_arbitrary_times() {
        for seed in 0..15 {
            let inputs = vec![1, 0, 1, 0, 1];
            let crashes = CrashPlan::new(vec![CrashSpec::AtTime {
                slot: Slot(0),
                time: Time(1 + seed % 7),
            }]);
            let report = run(&inputs, RandomScheduler::new(3, seed + 50), crashes, seed);
            let check = check_consensus(&inputs, &report, &crashed_flags(5, 0));
            assert!(check.ok(), "seed {seed}: {:?}", check.violation);
        }
    }

    #[test]
    fn validity_with_uniform_inputs_and_a_crash() {
        // All start 1; even with a crash, 0 can never be decided.
        for seed in 0..10 {
            let inputs = vec![1; 5];
            let crashes = CrashPlan::new(vec![CrashSpec::MidBroadcast {
                slot: Slot(4),
                nth_broadcast: 0,
                delivered: 1,
            }]);
            let report = run(&inputs, RandomScheduler::new(2, seed), crashes, seed);
            let check = check_consensus(&inputs, &report, &crashed_flags(5, 4));
            assert!(check.ok(), "seed {seed}: {:?}", check.violation);
            assert_eq!(check.decided, Some(1));
        }
    }

    #[test]
    #[should_panic(expected = "n >= 3")]
    fn tiny_network_rejected() {
        BenOr::new(0, 2);
    }
}
