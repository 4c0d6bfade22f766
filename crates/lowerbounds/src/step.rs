//! The valid-step machine of Section 3.1.
//!
//! The FLP generalization defines a *step* of node `u` as either (a)
//! some node `v != u` receiving `u`'s current message, or (b) `u`
//! receiving the ack for its current message. A step is **valid** when
//! deliveries happen in a fixed node order (the smallest non-crashed
//! node that has not yet received the message goes next) and acks only
//! fire once every non-crashed neighbor has received the message.
//! Restricting to valid steps picks out one well-behaved scheduler per
//! choice sequence, which is all the proof needs — and it makes the
//! schedule space small enough to explore exhaustively.
//!
//! [`StepMachine`] executes any [`Process`] over a single-hop network
//! under exactly these semantics, one step at a time, with optional
//! crash steps (a crashed node takes no further steps and its in-flight
//! message is never delivered further — the mid-broadcast partial
//! delivery the model allows).
//!
//! It owns no MAC state of its own: it is the *valid-step restriction*
//! of a clique [`MacMachine`], the forkable state that asks the real
//! [`BcastLedger`](amacl_model::mac::BcastLedger) every delivery, ack
//! and crash question. Each [`Step`] names exactly one of the
//! machine's [`MacChoice`]s, so Theorem 3.2's bivalence search runs on
//! the same ledger the simulator and the threaded runtime do. Like
//! every `MacMachine` execution it is untimed: callbacks observe clock
//! zero.

use std::ops::Deref;

use amacl_model::mac::MacChoice;
use amacl_model::machine::{LedgerMutation, MacMachine};
use amacl_model::prelude::*;

/// One step of the valid-step semantics.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Step {
    /// Deliver node `u`'s current message to the smallest non-crashed
    /// node that has not yet received it (a type-(a) step of `u`).
    Deliver(usize),
    /// Acknowledge node `u`'s current message (a type-(b) step of `u`,
    /// valid only once all non-crashed peers have received it).
    Ack(usize),
    /// Crash node `u` (the adversary's move; how many it may make is
    /// the caller's to budget).
    Crash(usize),
}

/// A single-hop valid-step executor.
///
/// Dereferences to the underlying [`MacMachine`] for read access —
/// `len`, `process`, `is_crashed`, `decisions`, `decided_values`,
/// `all_alive_decided`, `fingerprint` — while every mutation goes
/// through [`StepMachine::apply`], which admits valid steps only.
///
/// `P` must be `Clone` (the explorer forks states) and `Debug` (global
/// states are fingerprinted via their debug representation, which is
/// deterministic for the `BTree`-based algorithm states used here).
#[derive(Clone)]
pub struct StepMachine<P: Process>(MacMachine<P>);

impl<P: Process> Deref for StepMachine<P> {
    type Target = MacMachine<P>;
    fn deref(&self) -> &MacMachine<P> {
        &self.0
    }
}

impl<P: Process + Clone + std::fmt::Debug> StepMachine<P> {
    /// Builds a machine over a clique of `procs.len()` nodes (ids equal
    /// to indices) and runs every `on_start`, collecting initial
    /// broadcasts.
    pub fn new(procs: Vec<P>) -> Self {
        let n = procs.len();
        assert!(n >= 2, "step semantics need at least two nodes");
        // Every node may crash (once): the step semantics leave the
        // crash budget to the adversary driving the machine.
        Self(MacMachine::new(
            Topology::clique(n),
            procs,
            n,
            LedgerMutation::None,
        ))
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.moves_taken()
    }

    /// The valid non-crash steps available now: for each non-crashed
    /// node with a current message, either its next delivery or (once
    /// fully delivered) its ack.
    pub fn valid_steps(&self) -> Vec<Step> {
        (0..self.len())
            .filter_map(|u| self.next_step_of(u))
            .collect()
    }

    /// The next valid non-crash step *of node `u`*, if it has one.
    pub fn next_step_of(&self, u: usize) -> Option<Step> {
        if self.is_crashed(u) {
            return None;
        }
        self.in_flight_nth(u)?;
        Some(match self.next_recipient(u) {
            Some(_) => Step::Deliver(u),
            None => Step::Ack(u),
        })
    }

    /// Applies a step: the delivery goes to the smallest live node
    /// still owed `u`'s message, and the machine refuses an ack while
    /// any such node remains.
    ///
    /// # Panics
    ///
    /// Panics if the step is not currently valid.
    pub fn apply(&mut self, step: Step) {
        self.0.apply(match step {
            Step::Deliver(u) => MacChoice::Deliver {
                from: u,
                to: self
                    .next_recipient(u)
                    .expect("Deliver step requires a pending recipient"),
            },
            Step::Ack(u) => MacChoice::Ack(u),
            Step::Crash(u) => MacChoice::Crash(u),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amacl_core::two_phase::{TpStage, TwoPhase};

    fn machine(inputs: &[Value]) -> StepMachine<TwoPhase> {
        StepMachine::new(inputs.iter().map(|&v| TwoPhase::new(v)).collect())
    }

    #[test]
    fn initial_steps_are_deliveries() {
        let m = machine(&[0, 1]);
        assert_eq!(m.valid_steps(), vec![Step::Deliver(0), Step::Deliver(1)]);
        assert_eq!(m.next_step_of(0), Some(Step::Deliver(0)));
    }

    #[test]
    fn delivery_then_ack_ordering() {
        let mut m = machine(&[0, 1]);
        // Deliver node 0's phase-1 message to node 1.
        m.apply(Step::Deliver(0));
        // Now node 0's message is fully delivered: its next step is the ack.
        assert_eq!(m.next_step_of(0), Some(Step::Ack(0)));
        m.apply(Step::Ack(0));
        // Node 0 moved to phase 2 and has a new message outstanding.
        assert_eq!(m.process(0).stage(), TpStage::Phase2);
        assert_eq!(m.next_step_of(0), Some(Step::Deliver(0)));
    }

    #[test]
    fn round_robin_valid_steps_reach_decision() {
        let mut m = machine(&[0, 1, 1]);
        let mut guard = 0;
        while !m.all_alive_decided() {
            let steps = m.valid_steps();
            assert!(!steps.is_empty(), "live nodes must have steps");
            for s in steps {
                m.apply(s);
            }
            guard += 1;
            assert!(guard < 1000, "execution should terminate");
        }
        assert_eq!(m.decided_values().len(), 1, "agreement under valid steps");
    }

    #[test]
    fn smallest_node_receives_first() {
        let mut m = machine(&[1, 0, 0]);
        // Node 2's message goes to node 0 before node 1.
        m.apply(Step::Deliver(2));
        assert!(m.process(0).stage() == TpStage::Phase1);
        // Still one recipient pending (node 1), so no ack yet.
        assert_eq!(m.next_step_of(2), Some(Step::Deliver(2)));
        m.apply(Step::Deliver(2));
        assert_eq!(m.next_step_of(2), Some(Step::Ack(2)));
    }

    #[test]
    fn crash_freezes_in_flight_message() {
        let mut m = machine(&[0, 1, 1]);
        m.apply(Step::Deliver(0)); // node 1 got node 0's phase-1 msg
        m.apply(Step::Crash(0)); // node 0 dies mid-broadcast
        assert!(m.is_crashed(0));
        // Node 0 has no further steps; node 2 never receives its message.
        assert_eq!(m.next_step_of(0), None);
        assert!(!m.valid_steps().contains(&Step::Deliver(0)));
    }

    #[test]
    fn crashed_recipients_are_skipped() {
        let mut m = machine(&[0, 1, 1]);
        m.apply(Step::Crash(0));
        // Node 1's message now only needs node 2 (node 0 is crashed).
        m.apply(Step::Deliver(1));
        assert_eq!(m.next_step_of(1), Some(Step::Ack(1)));
    }

    /// The restriction claim itself: whatever the step machine calls
    /// valid, the ledger machine underneath has enabled.
    #[test]
    fn every_valid_step_is_an_enabled_ledger_choice() {
        let mut m = machine(&[0, 1, 1]);
        m.apply(Step::Deliver(2));
        m.apply(Step::Crash(0));
        while let Some(&last) = m.valid_steps().last() {
            let enabled = m.choices();
            for step in m.valid_steps() {
                let choice = match step {
                    Step::Deliver(u) => MacChoice::Deliver {
                        from: u,
                        to: m.next_recipient(u).unwrap(),
                    },
                    Step::Ack(u) => MacChoice::Ack(u),
                    Step::Crash(_) => unreachable!("crashes are never offered"),
                };
                assert!(enabled.contains(&choice), "{step:?} in {enabled:?}");
            }
            m.apply(last);
        }
        assert!(m.quiescent());
    }

    #[test]
    fn fingerprints_distinguish_states() {
        let m1 = machine(&[0, 1]);
        let m2 = machine(&[1, 1]);
        assert_ne!(m1.fingerprint(), m2.fingerprint());
        let mut m3 = machine(&[0, 1]);
        assert_eq!(m1.fingerprint(), m3.fingerprint());
        m3.apply(Step::Deliver(0));
        assert_ne!(m1.fingerprint(), m3.fingerprint());
    }

    #[test]
    fn clone_preserves_state() {
        let mut m = machine(&[0, 1]);
        m.apply(Step::Deliver(0));
        let c = m.clone();
        assert_eq!(m.fingerprint(), c.fingerprint());
    }
}
