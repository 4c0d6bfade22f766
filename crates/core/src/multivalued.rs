//! Multi-valued consensus by bitwise composition of Two-Phase
//! Consensus.
//!
//! The paper studies *binary* consensus and notes (Section 2) that
//! generalizing the upper bounds to an arbitrary value set efficiently
//! is non-trivial and open — the obvious approach is "agreeing on the
//! bits of a general value, one by one, using binary consensus". This
//! module implements exactly that obvious approach, carefully, so its
//! cost can be measured against the direct alternatives (experiment
//! E13):
//!
//! * [`BitwiseTwoPhase`] decides an arbitrary `B`-bit value on a
//!   single-hop network in `O(B * F_ack)` time, running `B` sequential
//!   rounds of the Algorithm 1 logic, one per bit (most significant
//!   first). Like Algorithm 1 — and unlike wPAXOS — it needs **no
//!   knowledge of `n`** and no participant information, so it inherits
//!   the separation from the asynchronous broadcast model.
//! * The direct comparison point is wPAXOS run on a clique: Paxos logic
//!   is value-agnostic, so it decides a full `u64` in `O(F_ack)` time —
//!   but requires knowledge of `n`. The `B`-fold gap between the two is
//!   the concrete content of the paper's "non-trivial and open" remark.
//!
//! ## Why naive bitwise composition is wrong, and what this does
//!
//! Deciding each bit independently breaks *validity*: with inputs
//! `0b01` and `0b10`, per-bit majority could assemble `0b00` or `0b11`,
//! neither of which was proposed. The standard fix, used here, is
//! **prefix-constrained candidates**:
//!
//! * every node maintains a *candidate* value, initially its input;
//! * in round `r`, a node proposes bit `r` of its candidate (messages
//!   carry the full candidate value);
//! * after round `r` decides bit `b_r`, a node whose candidate
//!   disagrees **adopts** the smallest candidate value it has *seen*
//!   whose bits `0..=r` match the agreed prefix.
//!
//! The invariant is that at the start of every round each node's
//! candidate (a) is some node's input, and (b) matches the agreed
//! prefix. The adoption step never deadlocks: if round `r` decided 0,
//! some witness had status `decided(0)` and its phase-2 message —
//! which the adopting node waited for — carried a matching candidate.
//! If the round decided the default 1 and a node's own candidate has
//! bit 0, a matching candidate may not have arrived *yet* (bivalence
//! can be learned second-hand, through another node's `bivalent`
//! phase-2 status, before the conflicting phase-1 message itself
//! lands). But bit 1 can only be decided if some node *proposed* 1
//! this round, and with no crashes that node's broadcast is delivered
//! to everyone within `F_ack`; the adopter parks in a
//! *pending-adoption* state and completes on its arrival, adding at
//! most one `F_ack` to the round. After the last round every
//! candidate equals the assembled value, which is therefore an input.
//!
//! Rounds interleave across nodes (a fast node can be two rounds
//! ahead); messages are tagged with their round and buffered until the
//! receiver enters that round. Because a buffered message arrived
//! before the receiver's round-`r` phase-1 ack, it is replayed into
//! `R_1`, preserving the ack-ordering argument of Theorem 4.1 round by
//! round.
//!
//! ## Cost per event
//!
//! Each round keeps the same summaries as [`crate::two_phase`] instead
//! of its `R_1`/`R_2` sets, so a receive costs `O(log n)` and building
//! `W` costs `O(n log n)` once per round. The flags are exact because
//! a node's proposed bit is fixed for the whole round. Adoption reads
//! the smallest seen candidate in the prefix's interval with one
//! ordered-set range query. That works because the candidates sharing
//! an aligned prefix are exactly one contiguous interval.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;

use amacl_model::prelude::*;

use crate::two_phase::WitnessWait;

/// Status chosen at a round's phase-1 ack (the per-bit analogue of
/// [`TpStatus`](crate::two_phase::TpStatus)).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum BwStatus {
    /// The node saw only its own proposed bit this round.
    Decided(u8),
    /// The node saw both bit values proposed this round.
    Bivalent,
}

/// What a round-tagged message announces.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum BwKind {
    /// Phase-1 announcement: the sender proposes bit `r` of `candidate`.
    Phase1,
    /// Phase-2 announcement of the sender's status.
    Phase2(BwStatus),
}

/// A message of the bitwise protocol. Carries one id and the sender's
/// full candidate value (a value is payload data, not an id, so the
/// id budget stays 1, matching Algorithm 1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct BwMsg {
    /// Round (= bit index, most significant first) this message belongs to.
    pub round: u32,
    /// Sender id.
    pub id: NodeId,
    /// Sender's current candidate value.
    pub candidate: Value,
    /// Phase-1 proposal or phase-2 status.
    pub kind: BwKind,
}

impl Payload for BwMsg {
    fn id_count(&self) -> usize {
        1
    }
}

/// Where a node is within its current round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RoundStage {
    Phase1,
    Phase2,
    AwaitWitnesses,
}

/// Per-round two-phase state (the Algorithm 1 machine, parameterized
/// by round).
#[derive(Clone, Debug)]
struct Round {
    stage: RoundStage,
    status: Option<BwStatus>,
    /// `R_1` holds a phase-1 proposal of the other bit or a bivalent
    /// phase-2 message.
    conflict: bool,
    /// `R_1 ∪ R_2` holds a `decided(0)` phase-2 message (the union, per
    /// the Theorem 4.1 proof — see the pseudocode-discrepancy note in
    /// [`crate::two_phase`]).
    decided_zero: bool,
    wait: WitnessWait,
}

impl Round {
    fn new() -> Self {
        Self {
            stage: RoundStage::Phase1,
            status: None,
            conflict: false,
            decided_zero: false,
            wait: WitnessWait::default(),
        }
    }

    /// Files a message of this round into `R_1` or `R_2`; `my_bit` is
    /// the bit this node proposes in the round.
    fn insert(&mut self, msg: BwMsg, my_bit: u8) {
        let in_r1 = self.stage == RoundStage::Phase1;
        match msg.kind {
            BwKind::Phase1 => {
                self.conflict |= in_r1 && bit_of(msg.candidate, msg.round) != my_bit;
                self.wait.hear(msg.id, false);
            }
            BwKind::Phase2(status) => {
                self.conflict |= in_r1 && status == BwStatus::Bivalent;
                self.decided_zero |= status == BwStatus::Decided(0);
                self.wait.hear(msg.id, true);
            }
        }
    }
}

/// Returns the bit proposed in `round` of an MSB-aligned candidate
/// `v`: candidates are stored shifted left so that protocol round `r`
/// always examines absolute bit `63 - r`, independent of the width.
fn bit_of(v: Value, round: u32) -> u8 {
    debug_assert!(round < 64);
    ((v >> (63 - round)) & 1) as u8
}

/// Normalizes a candidate into the fixed 64-bit MSB-aligned frame the
/// round arithmetic uses: bit `r` of the *protocol* is bit `63 - r` of
/// the aligned word.
fn align(v: Value, bits: u32) -> Value {
    v << (64 - bits)
}

/// Undoes [`align`].
fn unalign(v: Value, bits: u32) -> Value {
    v >> (64 - bits)
}

/// One node of the bitwise multi-valued consensus protocol.
///
/// # Examples
///
/// ```
/// use amacl_core::multivalued::BitwiseTwoPhase;
/// use amacl_model::prelude::*;
///
/// let inputs: Vec<Value> = vec![9, 12, 9, 5];
/// let iv = inputs.clone();
/// let mut sim = SimBuilder::new(Topology::clique(4), |s| {
///     BitwiseTwoPhase::new(iv[s.index()], 4)
/// })
/// .scheduler(SynchronousScheduler::new(1))
/// .message_id_budget(1)
/// .build();
/// let report = sim.run();
/// assert!(report.all_decided());
/// let decided = report.agreement_value().unwrap();
/// assert!(inputs.contains(&decided));
/// ```
#[derive(Clone, Debug)]
pub struct BitwiseTwoPhase {
    bits: u32,
    input: Value,
    /// Current candidate, MSB-aligned (see [`align`]).
    candidate: Value,
    /// Every candidate value ever seen in a message (all are inputs),
    /// MSB-aligned.
    seen: BTreeSet<Value>,
    round: u32,
    state: Round,
    /// Messages for rounds this node has not entered yet.
    buffered: BTreeMap<u32, Vec<BwMsg>>,
    /// Set when the round's bit is decided but no prefix-matching
    /// candidate has arrived yet (see module docs); holds the decided
    /// bit while waiting.
    pending_adoption: Option<u8>,
    done: bool,
}

impl BitwiseTwoPhase {
    /// Creates a node with the given input, to be agreed on within
    /// `bits` bits. All nodes must use the same `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 64, or if `input` does not fit
    /// in `bits` bits.
    pub fn new(input: Value, bits: u32) -> Self {
        assert!(
            (1..=64).contains(&bits),
            "bit width must be in 1..=64, got {bits}"
        );
        assert!(
            bits == 64 || input < (1u64 << bits),
            "input {input} does not fit in {bits} bits"
        );
        let candidate = align(input, bits);
        let mut seen = BTreeSet::new();
        seen.insert(candidate);
        Self {
            bits,
            input,
            candidate,
            seen,
            round: 0,
            state: Round::new(),
            buffered: BTreeMap::new(),
            pending_adoption: None,
            done: false,
        }
    }

    /// The node's input value.
    pub fn input(&self) -> Value {
        self.input
    }

    /// The configured bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The round (bit index) the node is currently in; equals `bits`
    /// once done.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// `true` once the node has decided.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The node's current candidate value (un-aligned).
    pub fn candidate(&self) -> Value {
        unalign(self.candidate, self.bits)
    }

    fn my_bit(&self) -> u8 {
        bit_of(self.candidate, self.round)
    }

    /// The candidates whose top `through_round + 1` aligned bits equal
    /// `prefix`'s: one contiguous interval.
    fn prefix_interval(prefix: Value, through_round: u32) -> RangeInclusive<Value> {
        let low = (1u64 << (63 - through_round)) - 1;
        (prefix & !low)..=(prefix | low)
    }

    fn broadcast_phase1(&mut self, ctx: &mut Context<'_, BwMsg>) {
        let own = BwMsg {
            round: self.round,
            id: ctx.id(),
            candidate: self.candidate,
            kind: BwKind::Phase1,
        };
        self.state.insert(own, self.my_bit());
        let outcome = ctx.broadcast(own);
        debug_assert!(outcome.is_accepted(), "round start must find a free MAC");
    }

    /// Completes the current round with decided bit `b`, adopting a
    /// matching candidate and either deciding or starting the next
    /// round. If no matching candidate has arrived yet, parks in the
    /// pending-adoption state; [`Self::on_receive`] retries.
    fn finish_round(&mut self, b: u8, ctx: &mut Context<'_, BwMsg>) {
        // Build the agreed prefix: candidate already matches bits
        // 0..round; force bit `round` to b.
        let shift = 63 - self.round;
        let forced = (self.candidate & !(1u64 << shift)) | ((b as u64) << shift);
        let agreed = Self::prefix_interval(forced, self.round);
        if self.my_bit() != b {
            // Adopt the smallest seen candidate matching the agreed
            // prefix; park if none has arrived yet (module docs: one
            // is always in flight).
            match self.seen.range(agreed.clone()).next() {
                Some(&v) => self.candidate = v,
                None => {
                    self.pending_adoption = Some(b);
                    return;
                }
            }
        }
        self.pending_adoption = None;
        debug_assert!(agreed.contains(&self.candidate));

        if self.round + 1 == self.bits {
            self.done = true;
            ctx.decide(unalign(self.candidate, self.bits));
            return;
        }

        self.round += 1;
        self.state = Round::new();
        self.broadcast_phase1(ctx);
        // Replay messages that arrived before we entered this round:
        // they all precede our phase-1 ack, so they land in R_1.
        if let Some(early) = self.buffered.remove(&self.round) {
            let bit = self.my_bit();
            for m in early {
                self.state.insert(m, bit);
            }
        }
        // Receipt of buffered evidence never completes a round
        // immediately: the phase-1 ack has not arrived yet.
    }

    /// Runs the witness check; on success finishes the round.
    fn try_finish_await(&mut self, ctx: &mut Context<'_, BwMsg>) {
        debug_assert_eq!(self.state.stage, RoundStage::AwaitWitnesses);
        if self.state.wait.complete() {
            let b = if self.state.decided_zero { 0 } else { 1 };
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
            // The round's bit is already decided; we are only waiting
            // for a prefix-matching candidate to adopt. Buffer the
            // message first if it belongs to a future round, so the
            // replay on advancing does not lose it.
            if msg.round > self.round {
                self.buffered.entry(msg.round).or_default().push(msg);
            }
            self.finish_round(b, ctx);
            return;
        }
        if msg.round < self.round {
            // Stale round: that bit is already agreed.
            return;
        }
        if msg.round > self.round {
            self.buffered.entry(msg.round).or_default().push(msg);
            return;
        }
        self.state.insert(msg, self.my_bit());
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
                let status = if self.state.conflict {
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
                self.state.insert(own, self.my_bit());
                ctx.broadcast(own);
            }
            RoundStage::Phase2 => match self.state.status.expect("status set at phase-1 ack") {
                BwStatus::Decided(b) => {
                    self.finish_round(b, ctx);
                }
                BwStatus::Bivalent => {
                    self.state.wait.build();
                    self.state.stage = RoundStage::AwaitWitnesses;
                    self.try_finish_await(ctx);
                }
            },
            RoundStage::AwaitWitnesses => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_consensus;

    fn run(
        inputs: &[Value],
        bits: u32,
        scheduler: impl Scheduler + 'static,
    ) -> (RunReport, crate::verify::ConsensusCheck) {
        let iv = inputs.to_vec();
        let mut sim = SimBuilder::new(Topology::clique(inputs.len()), |s| {
            BitwiseTwoPhase::new(iv[s.index()], bits)
        })
        .scheduler(scheduler)
        .message_id_budget(1)
        .build();
        let report = sim.run();
        let check = check_consensus(inputs, &report, &[]);
        (report, check)
    }

    #[test]
    fn uniform_inputs_decide_that_value() {
        for v in [0u64, 5, 15] {
            let inputs = vec![v; 4];
            let (_, check) = run(&inputs, 4, SynchronousScheduler::new(1));
            check.assert_ok();
            assert_eq!(check.decided, Some(v));
        }
    }

    #[test]
    fn mixed_inputs_decide_some_input() {
        let inputs = vec![9, 12, 3, 9, 5];
        let (_, check) = run(&inputs, 4, SynchronousScheduler::new(2));
        check.assert_ok();
        assert!(inputs.contains(&check.decided.unwrap()));
    }

    #[test]
    fn validity_with_complementary_bit_patterns() {
        // The classic counterexample to naive per-bit agreement:
        // inputs 0b01 and 0b10 must not assemble 0b00 or 0b11.
        let inputs = vec![0b01, 0b10];
        let (_, check) = run(&inputs, 2, SynchronousScheduler::new(1));
        check.assert_ok();
        assert!(inputs.contains(&check.decided.unwrap()));
    }

    #[test]
    fn validity_under_random_adversaries() {
        for seed in 0..80 {
            let n = 2 + (seed as usize % 6);
            let inputs: Vec<Value> = (0..n).map(|i| (seed * 7 + i as u64 * 13) % 16).collect();
            let (_, check) = run(&inputs, 4, RandomScheduler::new(5, seed));
            assert!(check.ok(), "seed {seed}: {:?}", check.violation);
            assert!(
                inputs.contains(&check.decided.unwrap()),
                "seed {seed}: decided non-input {:?} from {inputs:?}",
                check.decided
            );
        }
    }

    #[test]
    fn decision_time_scales_linearly_in_bits() {
        // Under the synchronous scheduler each round costs exactly 2
        // ticks per F_ack=1, so B bits cost 2B.
        let f_ack = 1u64;
        let mut prev = 0;
        for bits in [1u32, 2, 4, 8] {
            let inputs = vec![0, (1 << bits) - 1, 1];
            let (report, check) = run(&inputs, bits, SynchronousScheduler::new(f_ack));
            check.assert_ok();
            let t = report.max_decision_time().unwrap().ticks();
            assert_eq!(t, 2 * bits as u64 * f_ack, "bits={bits}");
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn single_bit_matches_two_phase_semantics() {
        // B = 1 is exactly binary consensus.
        let inputs = vec![0, 1, 1];
        let (_, check) = run(&inputs, 1, SynchronousScheduler::new(1));
        check.assert_ok();
        assert!(check.decided == Some(0) || check.decided == Some(1));
    }

    #[test]
    fn works_without_knowledge_of_n() {
        // Constructor takes no n; a singleton decides its own value.
        let inputs = vec![42];
        let (_, check) = run(&inputs, 6, SynchronousScheduler::new(1));
        check.assert_ok();
        assert_eq!(check.decided, Some(42));
    }

    #[test]
    fn full_width_values_work() {
        let inputs = vec![u64::MAX, 0, u64::MAX - 1];
        let (_, check) = run(&inputs, 64, SynchronousScheduler::new(1));
        check.assert_ok();
        assert!(inputs.contains(&check.decided.unwrap()));
    }

    #[test]
    fn rounds_interleave_under_skewed_schedules() {
        // Stall one node's broadcasts to force multi-round skew; the
        // buffered-replay path must still preserve agreement.
        for seed in [3u64, 17, 99] {
            let inputs = vec![10, 5, 12, 3];
            let (_, check) = run(&inputs, 4, RandomScheduler::new(16, seed));
            assert!(check.ok(), "seed {seed}: {:?}", check.violation);
        }
    }

    #[test]
    fn candidate_tracking_is_observable() {
        let node = BitwiseTwoPhase::new(5, 4);
        assert_eq!(node.candidate(), 5);
        assert_eq!(node.input(), 5);
        assert_eq!(node.bits(), 4);
        assert_eq!(node.round(), 0);
        assert!(!node.is_done());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_input_rejected() {
        BitwiseTwoPhase::new(16, 4);
    }

    #[test]
    #[should_panic(expected = "bit width")]
    fn zero_width_rejected() {
        BitwiseTwoPhase::new(0, 0);
    }

    #[test]
    fn align_round_trip() {
        for bits in [1u32, 4, 63, 64] {
            let v = if bits == 64 {
                u64::MAX
            } else {
                (1 << bits) - 1
            };
            assert_eq!(unalign(align(v, bits), bits), v);
        }
    }
}
