//! The forkable MAC machine: one global state of an execution, with
//! every delivery/ack/crash question answered by the real
//! [`BcastLedger`].
//!
//! Where the simulator in [`crate::sim`] follows *one* schedule chosen
//! by a scheduler, a [`MacMachine`] exposes the full set of moves the
//! model's nondeterministic scheduler could make next — each in-flight
//! message may be delivered to any live neighbor that has not yet
//! received it, any fully delivered broadcast may be acknowledged, and
//! (within a budget) any live node may crash, freezing its in-flight
//! message mid-broadcast — and applies whichever [`MacChoice`] the
//! caller picks. It is `Clone`, so a search can fork it at every
//! branch point.
//!
//! This is the only executable form of the MAC rules outside the two
//! execution backends: the exhaustive explorer and the schedule fuzzer
//! in `amacl-checker` walk it directly, and the FLP valid-step machine
//! in `amacl-lowerbounds` is a restriction of it to a clique. The
//! machine itself owns no delivery, ack or crash bookkeeping — only
//! process states, payloads and the crash budget — so whatever a search
//! proves, it proves about the ledger the backends run on.
//!
//! Executions are untimed: every callback observes clock zero, which
//! merges states that differ only in timing and matches the paper's
//! safety arguments (they never appeal to real time).

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::ids::{NodeId, Slot};
use crate::mac::{Admission, BcastLedger, MacChoice};
use crate::proc::{Context, NodeCell, Process, Value};
use crate::sim::time::Time;
use crate::topo::Topology;

/// A deliberately seeded ledger bug, for mutation-testing a search: a
/// checker that cannot find a planted bug proves nothing by finding
/// none.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LedgerMutation {
    /// The faithful semantics (no bug).
    None,
    /// Acks may fire while deliveries are still owed: the ledger
    /// behaves as if the remaining confirmations had arrived, and the
    /// undelivered messages are lost. Breaks **agreement** (a sender
    /// can complete a phase nobody else witnessed).
    AckEarly,
    /// A crash fails to release the ack obligations awaiting the dead
    /// node, wedging every sender that was waiting on it. Breaks
    /// **termination** under any positive crash budget.
    DropReleases,
}

impl LedgerMutation {
    /// Parses the CLI spelling (`ack-early` / `drop-releases`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(LedgerMutation::None),
            "ack-early" => Some(LedgerMutation::AckEarly),
            "drop-releases" => Some(LedgerMutation::DropReleases),
            _ => None,
        }
    }

    /// The stable CLI/report spelling.
    pub fn label(self) -> &'static str {
        match self {
            LedgerMutation::None => "none",
            LedgerMutation::AckEarly => "ack-early",
            LedgerMutation::DropReleases => "drop-releases",
        }
    }
}

/// One in-flight broadcast, machine-side: the ledger keeps the
/// obligation, the machine keeps the payload and what the scenario
/// lowering needs to place the broadcast.
#[derive(Clone, Debug)]
struct InFlight<M> {
    /// The sender's 0-indexed accepted-broadcast sequence number.
    nth: u64,
    /// Deliveries performed so far (for mid-broadcast crash lowering).
    delivered: usize,
    /// The payload.
    msg: M,
}

/// A forkable global state driving the real [`BcastLedger`]: process
/// states, per-node in-flight payloads, and the shared ledger the
/// backends use for every semantic delivery/ack/crash question.
///
/// Searches need `P: Clone` (they fork states) and `P: Debug` (global
/// states are fingerprinted through their debug representation, which
/// is deterministic for the `BTree`-based algorithm states used in
/// this workspace). Only deterministic algorithms are meaningful here:
/// a fork copies each node's RNG stream, so both branches would draw
/// the same "random" bits.
#[derive(Clone)]
pub struct MacMachine<P: Process> {
    topo: Arc<Topology>,
    procs: Vec<P>,
    cells: Vec<NodeCell<P::Msg>>,
    ledger: BcastLedger,
    in_flight: Vec<Option<InFlight<P::Msg>>>,
    next_bcast: u64,
    crash_budget: usize,
    mutation: LedgerMutation,
    moves_taken: u64,
}

impl<P: Process + Clone + std::fmt::Debug> MacMachine<P> {
    /// Builds the machine over `topo` (ids equal slot indices), runs
    /// every `on_start` at clock zero, and registers the initial
    /// broadcasts with the ledger. `crash_budget` bounds how many
    /// [`MacChoice::Crash`] moves may be applied.
    ///
    /// # Panics
    ///
    /// Panics if `procs` does not provide one process per topology
    /// vertex.
    pub fn new(
        topo: Topology,
        procs: Vec<P>,
        crash_budget: usize,
        mutation: LedgerMutation,
    ) -> Self {
        let n = topo.len();
        assert_eq!(procs.len(), n, "one process per node");
        let mut m = Self {
            topo: Arc::new(topo),
            procs,
            cells: (0..n).map(|i| NodeCell::new(i as u64)).collect(),
            ledger: BcastLedger::new(n),
            in_flight: vec![None; n],
            next_bcast: 0,
            crash_budget,
            mutation,
            moves_taken: 0,
        };
        for slot in 0..n {
            m.callback(slot, |p, ctx| p.on_start(ctx));
        }
        m
    }

    /// Runs one process callback at `slot` and hands any broadcast it
    /// requested to the ledger.
    fn callback(&mut self, slot: usize, f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>)) {
        let busy = self.in_flight[slot].is_some();
        let mut ctx = self.cells[slot].ctx(NodeId(slot as u64), Time::ZERO, busy);
        f(&mut self.procs[slot], &mut ctx);
        if let Some(msg) = self.cells[slot].outbox.take() {
            self.launch_broadcast(slot, msg);
        }
    }

    /// Admits a fresh broadcast from `slot` into the ledger and arms
    /// its ack obligation over the live neighbors.
    fn launch_broadcast(&mut self, slot: usize, msg: P::Msg) {
        debug_assert!(self.in_flight[slot].is_none(), "one outstanding broadcast");
        let bcast = self.next_bcast;
        self.next_bcast += 1;
        let admission = self.ledger.admit_broadcast(slot, bcast);
        // Crashes are explicit choices here, never armed watches, so
        // admission is always plain delivery.
        debug_assert_eq!(admission, Admission::Deliver);
        let live: BTreeSet<usize> = self
            .topo
            .neighbors(Slot(slot))
            .iter()
            .map(|s| s.index())
            .filter(|&v| !self.ledger.is_crashed(v))
            .collect();
        // An empty obligation (all neighbors dead) completes at once:
        // the ledger stores nothing and the ack is immediately enabled.
        self.ledger.register_ack_obligation(bcast, slot, live);
        self.in_flight[slot] = Some(InFlight {
            nth: self.ledger.broadcast_count(slot) - 1,
            delivered: 0,
            msg,
        });
    }

    fn choices_with_budget(&self, crash_budget: usize) -> Vec<MacChoice> {
        let outstanding: Vec<bool> = self.in_flight.iter().map(Option::is_some).collect();
        let mut out = self.ledger.enabled_choices(&outstanding, crash_budget);
        if self.mutation == LedgerMutation::AckEarly {
            // The seeded bug: an ack may fire while confirmations are
            // still owed.
            for (slot, inf) in self.in_flight.iter().enumerate() {
                if inf.is_some()
                    && !self.ledger.is_crashed(slot)
                    && self.ledger.awaiting_confirmations(slot).is_some()
                {
                    out.push(MacChoice::Ack(slot));
                }
            }
            out.sort_unstable();
        }
        out
    }

    /// Every scheduler choice enabled in this state, in deterministic
    /// [`MacChoice`] order.
    pub fn choices(&self) -> Vec<MacChoice> {
        self.choices_with_budget(self.crash_budget)
    }

    /// `true` when no delivery or ack is enabled: the scheduler may
    /// stay here forever without violating any model obligation (it is
    /// never *obliged* to crash anyone), so liveness is judged in
    /// these states.
    pub fn quiescent(&self) -> bool {
        self.choices_with_budget(0).is_empty()
    }

    /// The smallest live neighbor still owed `slot`'s in-flight
    /// broadcast, if any — the receiver the FLP valid-step order
    /// delivers to next.
    pub fn next_recipient(&self, slot: usize) -> Option<usize> {
        let (_, owed) = self.ledger.awaiting_confirmations(slot)?;
        owed.iter().copied().find(|&v| !self.ledger.is_crashed(v))
    }

    /// Applies one scheduler choice.
    ///
    /// # Panics
    ///
    /// Panics if the choice is not currently enabled — the replay
    /// determinism contract turns a stale schedule into a loud error,
    /// never a silently different execution.
    pub fn apply(&mut self, choice: MacChoice) {
        self.moves_taken += 1;
        match choice {
            MacChoice::Deliver { from, to } => {
                assert!(
                    !self.ledger.is_crashed(from) && !self.ledger.is_crashed(to),
                    "dead endpoint"
                );
                let bcast = self
                    .ledger
                    .awaiting_confirmations(from)
                    .and_then(|(bcast, owed)| owed.contains(&to).then_some(bcast))
                    .expect("no pending delivery");
                let inf = self.in_flight[from].as_mut().expect("message in flight");
                inf.delivered += 1;
                let msg = inf.msg.clone();
                // No countdown is armed here; the call keeps the
                // ledger's delivery accounting faithful regardless.
                self.ledger.note_delivery(bcast);
                self.callback(to, |p, ctx| p.on_receive(msg, ctx));
                self.ledger.confirm(bcast, to);
            }
            MacChoice::Ack(u) => {
                assert!(!self.ledger.is_crashed(u), "dead node");
                self.in_flight[u].take().expect("broadcast outstanding");
                if let Some((bcast, owed)) = self.ledger.awaiting_confirmations(u) {
                    assert_eq!(
                        self.mutation,
                        LedgerMutation::AckEarly,
                        "ack requires a completed obligation"
                    );
                    // The seeded bug in action: the ledger counts
                    // confirmations it never received, and the
                    // undelivered messages are lost forever.
                    for v in owed.clone() {
                        self.ledger.confirm(bcast, v);
                    }
                }
                self.callback(u, |p, ctx| p.on_ack(ctx));
            }
            MacChoice::Crash(u) => {
                assert!(self.crash_budget > 0, "crash budget exhausted");
                self.crash_budget -= 1;
                assert!(self.ledger.mark_crashed(u), "node already crashed");
                // Acks never wait on crashed neighbors; releasing may
                // complete (and thus enable) other senders' acks. The
                // dead node's own in-flight broadcast is frozen — the
                // ledger cancels a crashed sender's remaining
                // deliveries. The seeded bug skips the release, wedging
                // every sender that awaited the dead node.
                if self.mutation != LedgerMutation::DropReleases {
                    self.ledger.release_obligations_of(u);
                }
            }
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// `true` if the machine has no nodes.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// The process at `slot`, for state inspection.
    pub fn process(&self, slot: usize) -> &P {
        &self.procs[slot]
    }

    /// Whether `slot` has crashed.
    pub fn is_crashed(&self, slot: usize) -> bool {
        self.ledger.is_crashed(slot)
    }

    /// Remaining crash budget.
    pub fn crash_budget(&self) -> usize {
        self.crash_budget
    }

    /// Scheduler moves applied so far on this branch.
    pub fn moves_taken(&self) -> u64 {
        self.moves_taken
    }

    /// The `(nth broadcast, deliveries so far)` of `slot`'s in-flight
    /// broadcast, or `None` when nothing is in flight — what the
    /// scenario lowering needs to place scripted delays and
    /// mid-broadcast crash specs.
    pub fn in_flight_nth(&self, slot: usize) -> Option<(u64, usize)> {
        self.in_flight[slot].as_ref().map(|f| (f.nth, f.delivered))
    }

    /// Per-slot decisions so far.
    pub fn decisions(&self) -> Vec<Option<Value>> {
        self.cells
            .iter()
            .map(|c| c.decision.map(|d| d.value))
            .collect()
    }

    /// Distinct decided values so far.
    pub fn decided_values(&self) -> BTreeSet<Value> {
        self.decisions().into_iter().flatten().collect()
    }

    /// `true` when every non-crashed node has decided.
    pub fn all_alive_decided(&self) -> bool {
        (0..self.len()).all(|i| self.ledger.is_crashed(i) || self.cells[i].decision.is_some())
    }

    /// Deterministic fingerprint of everything that determines the
    /// execution's future: the ledger's crash flags and per-sender
    /// awaiting sets ([`BcastLedger::fingerprint`]), and per slot the
    /// process state, the in-flight payload, the decision and the
    /// timestamp counter, plus the remaining crash budget. Run-global
    /// broadcast ids, per-sender broadcast counts and `moves_taken`
    /// depend on the interleaving taken to get here and are excluded,
    /// so converging interleavings merge.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.ledger.fingerprint().hash(&mut h);
        for (i, proc) in self.procs.iter().enumerate() {
            format!("{proc:?}").hash(&mut h);
            format!("{:?}", self.in_flight[i].as_ref().map(|f| &f.msg)).hash(&mut h);
            self.cells[i].decision.map(|d| d.value).hash(&mut h);
            self.cells[i].ts_seq.hash(&mut h);
        }
        self.crash_budget.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Payload;

    /// Broadcast once; decide own input on ack.
    #[derive(Clone, Debug)]
    struct OneShot(Value);

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Ping(u64);
    impl Payload for Ping {
        fn id_count(&self) -> usize {
            0
        }
    }

    impl Process for OneShot {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.broadcast(Ping(self.0));
        }
        fn on_receive(&mut self, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}
        fn on_ack(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.decide(self.0);
        }
    }

    fn line3_with(crash_budget: usize) -> MacMachine<OneShot> {
        MacMachine::new(
            Topology::line(3),
            vec![OneShot(0), OneShot(0), OneShot(0)],
            crash_budget,
            LedgerMutation::None,
        )
    }

    fn line3() -> MacMachine<OneShot> {
        line3_with(0)
    }

    fn deliver(from: usize, to: usize) -> MacChoice {
        MacChoice::Deliver { from, to }
    }

    #[test]
    fn initial_choices_follow_topology() {
        // Middle node owes two deliveries, endpoints one each; 0 and 2
        // are not adjacent.
        assert_eq!(
            line3().choices(),
            vec![deliver(0, 1), deliver(1, 0), deliver(1, 2), deliver(2, 1)]
        );
    }

    #[test]
    fn ack_enabled_after_full_delivery() {
        let mut m = line3();
        assert_eq!(m.next_recipient(1), Some(0));
        m.apply(deliver(0, 1));
        assert_eq!(m.next_recipient(0), None);
        assert!(m.choices().contains(&MacChoice::Ack(0)));
        m.apply(MacChoice::Ack(0));
        assert_eq!(m.decisions()[0], Some(0));
        assert_eq!(m.in_flight_nth(0), None);
    }

    #[test]
    fn terminal_once_everyone_acked() {
        let mut m = line3();
        for c in [
            deliver(0, 1),
            deliver(1, 0),
            deliver(1, 2),
            deliver(2, 1),
            MacChoice::Ack(0),
            MacChoice::Ack(1),
            MacChoice::Ack(2),
        ] {
            assert!(!m.quiescent());
            m.apply(c);
        }
        assert!(m.quiescent());
        assert!(m.all_alive_decided());
        assert_eq!(m.moves_taken(), 7);
    }

    #[test]
    fn crash_consumes_budget_and_freezes_message() {
        let mut m = line3_with(1);
        assert!(m.choices().contains(&MacChoice::Crash(1)));
        m.apply(MacChoice::Crash(1));
        assert!(m.is_crashed(1));
        assert_eq!(m.crash_budget(), 0);
        // Node 1's message is frozen; the endpoints' messages had only
        // node 1 as recipient, which is now dead, so their acks fire.
        assert_eq!(m.choices(), vec![MacChoice::Ack(0), MacChoice::Ack(2)]);
        assert_eq!(m.in_flight_nth(1), Some((0, 0)), "frozen, not dropped");
    }

    #[test]
    fn fingerprints_merge_converging_interleavings() {
        let mut a = line3();
        let mut b = line3();
        a.apply(deliver(1, 0));
        a.apply(deliver(1, 2));
        b.apply(deliver(1, 2));
        b.apply(deliver(1, 0));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), line3().fingerprint());
    }

    /// The run-global broadcast id a rebroadcast receives depends on
    /// which sender was acked first; the state reached does not.
    #[test]
    fn fingerprints_ignore_broadcast_id_assignment_order() {
        /// Broadcasts again from its first ack, then goes quiet.
        #[derive(Clone, Debug)]
        struct Twice(bool);
        impl Process for Twice {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                ctx.broadcast(Ping(0));
            }
            fn on_receive(&mut self, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}
            fn on_ack(&mut self, ctx: &mut Context<'_, Ping>) {
                if !std::mem::replace(&mut self.0, true) {
                    ctx.broadcast(Ping(1));
                }
            }
        }
        let build = || {
            let mut m = MacMachine::new(
                Topology::clique(2),
                vec![Twice(false), Twice(false)],
                0,
                LedgerMutation::None,
            );
            m.apply(deliver(0, 1));
            m.apply(deliver(1, 0));
            m
        };
        let (mut a, mut b) = (build(), build());
        a.apply(MacChoice::Ack(0));
        a.apply(MacChoice::Ack(1));
        b.apply(MacChoice::Ack(1));
        b.apply(MacChoice::Ack(0));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn clone_is_a_true_fork() {
        let mut m = line3();
        let fork = m.clone();
        m.apply(deliver(0, 1));
        assert_ne!(m.fingerprint(), fork.fingerprint());
        assert_eq!(fork.moves_taken(), 0);
        assert_eq!(fork.process(0).0, 0);
    }

    #[test]
    #[should_panic(expected = "no pending delivery")]
    fn double_delivery_rejected() {
        let mut m = line3();
        m.apply(deliver(0, 1));
        m.apply(deliver(0, 1));
    }

    #[test]
    #[should_panic(expected = "one process per node")]
    fn process_count_mismatch_rejected() {
        MacMachine::new(Topology::line(3), vec![OneShot(0)], 0, LedgerMutation::None);
    }
}
