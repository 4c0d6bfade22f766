//! Exhaustive search over every schedule of a [`MacMachine`]:
//! fingerprint-dedup walks in depth- or breadth-first order, and a DPOR
//! walk.
//!
//! [`MacExplorer`] owns a root machine and walks every scheduler
//! branch reachable from it, checking:
//!
//! * **agreement** in every state — at most one distinct decided value;
//! * **validity** in every state — every decided value was some node's
//!   input;
//! * **termination** in every [quiescent](MacMachine::quiescent) state
//!   — every live node has decided.
//!
//! Every [`MacViolation`] carries the choice sequence that reached it,
//! replayable against a fresh machine with [`MacExplorer::replay`].
//!
//! # Strategies
//!
//! [`Reduction::Naive`] deduplicates states by
//! [`MacMachine::fingerprint`], so the walk covers the reachable state
//! *graph* rather than the much larger execution tree; it is sound
//! because without sleep sets a state determines its entire future. Its [`SearchOrder`] picks the frontier
//! discipline: depth-first keeps the frontier small, breadth-first
//! makes the first violation found a *minimum-length* counterexample.
//!
//! [`Reduction::Dpor`] is a conservative Flanagan–Godefroid dynamic
//! partial-order reduction: *sleep sets* prune re-exploration of
//! commuting choices within a subtree, and *backtrack (persistent)
//! sets* — grown by race analysis against the current stack — ensure
//! only non-commuting alternatives fork new branches.
//!
//! # Reduction soundness
//!
//! The independence relation is [`MacChoice::independent`]:
//! deliveries to distinct receivers commute, acks of distinct nodes
//! commute, a delivery and an ack commute when the acked node is
//! neither endpoint, crashes commute with nothing. Each case is a
//! state-commutation argument over the ledger tables plus per-node
//! process state (disjoint footprints), and each holds *under the
//! seeded [`LedgerMutation`]s too* (an early ack touches only the acked
//! node's own obligation). The relation is deliberately conservative:
//! extra dependence only adds backtrack points, never unsoundness.
//!
//! Race analysis is performed FG-style at every state push: for every
//! enabled choice, the deepest stack transition dependent with it gets
//! a backtrack point (the choice itself when it was enabled there, the
//! whole enabled set otherwise — the classical conservative fallback).
//! Sleep sets use the standard propagation: a child's sleep set keeps
//! the parent's sleep set plus its already-explored siblings, filtered
//! to choices independent of the taken one.
//!
//! Because sleep sets make cross-branch state dedup unsound (a state
//! reached with a different sleep set must be re-expanded), DPOR mode
//! keeps **no** visited-set pruning; fingerprints are still collected,
//! but only to report how many distinct states the walk saw.
//!
//! # What bounded search proves
//!
//! A [`MacExploreOutcome`] with [`verified`](MacExploreOutcome::verified)
//! `true` is a machine-checked proof that agreement and validity hold
//! in every reachable state, and termination in every quiescent state,
//! *for that topology, those inputs, and that crash budget* — the
//! explored executions are untimed (callbacks observe clock zero),
//! which is exactly the generality of the paper's safety arguments. A
//! truncated run (state or depth cap hit) proves nothing beyond the
//! frontier and says so: `truncated` is reported honestly and
//! `verified()` returns `false`. Determinism contract: the same
//! explorer and config always produce byte-identical outcomes, and
//! [`MacExplorer::replay`] of any emitted schedule reproduces the
//! violating state exactly.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::fmt::Write as _;

use amacl_model::mac::MacChoice;
use amacl_model::machine::{LedgerMutation, MacMachine};
use amacl_model::prelude::*;

/// Which order the fingerprint-dedup walk visits the state graph in.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SearchOrder {
    /// Depth-first: lowest memory footprint per frontier entry; the
    /// default.
    #[default]
    Dfs,
    /// Breadth-first: the first violation found is reached by a
    /// *minimum-length* schedule — the counterexample a human wants to
    /// read. Costs a wider frontier.
    Bfs,
}

/// What went wrong in a reached state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// Two live nodes decided different values.
    Agreement,
    /// A node decided a value that was nobody's input.
    Validity,
    /// A quiescent state with a live undecided node.
    Termination,
}

/// Which search strategy [`MacExplorer::run`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reduction {
    /// Full state-fingerprint deduplication, walked in the given
    /// order: the baseline DPOR is measured against, and (breadth
    /// first) the source of shortest counterexamples.
    Naive(SearchOrder),
    /// Sleep-set + backtrack-set dynamic partial-order reduction. No
    /// cross-branch state dedup (unsound under sleep sets); commuting
    /// interleavings are pruned instead of memoized.
    Dpor,
}

impl Reduction {
    /// The stable CLI/report spelling.
    pub fn label(self) -> &'static str {
        match self {
            Reduction::Naive(_) => "naive",
            Reduction::Dpor => "dpor",
        }
    }
}

/// Bounds and strategy for one [`MacExplorer::run`].
#[derive(Clone, Copy, Debug)]
pub struct MacExploreConfig {
    /// Stop (and report truncation) after expanding this many states.
    pub max_states: usize,
    /// Do not expand states deeper than this many moves (reported as
    /// truncation when the frontier is cut).
    pub max_depth: usize,
    /// Stop after collecting this many violations.
    pub max_violations: usize,
    /// Search strategy.
    pub reduction: Reduction,
}

impl MacExploreConfig {
    /// The default bounds on the fingerprint-dedup walk in `order`.
    pub fn naive(order: SearchOrder) -> Self {
        Self {
            reduction: Reduction::Naive(order),
            ..Self::default()
        }
    }
}

impl Default for MacExploreConfig {
    fn default() -> Self {
        Self {
            max_states: 500_000,
            max_depth: 10_000,
            max_violations: 1,
            reduction: Reduction::Dpor,
        }
    }
}

/// A property violation, with the exact replayable schedule that
/// produced it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MacViolation {
    /// Which property failed.
    pub kind: ViolationKind,
    /// The scheduler choices from the initial state to the violating
    /// state; [`MacExplorer::replay`] reproduces it exactly.
    pub schedule: Vec<MacChoice>,
    /// Per-slot decisions in the violating state.
    pub decisions: Vec<Option<Value>>,
}

impl MacViolation {
    /// Deterministic plain-text rendering (the byte-identity witness
    /// the replay proptests compare).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "VIOLATION: {:?}", self.kind);
        let _ = writeln!(out, "decisions: {:?}", self.decisions);
        let _ = writeln!(out, "schedule ({} moves):", self.schedule.len());
        for (i, c) in self.schedule.iter().enumerate() {
            let _ = writeln!(out, "  {i:>3}. {c:?}");
        }
        out
    }
}

/// The outcome of one bounded exploration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MacExploreOutcome {
    /// Strategy that produced this outcome.
    pub reduction: Reduction,
    /// States expanded (the DPOR-vs-naive comparison counter; under
    /// [`Reduction::Naive`] every expanded state is distinct).
    pub states: u64,
    /// Transitions applied.
    pub transitions: u64,
    /// Distinct state fingerprints seen (reporting only; DPOR does not
    /// prune on them).
    pub distinct_states: u64,
    /// Quiescent states seen (where termination was judged).
    pub quiescent_states: u64,
    /// Deepest schedule expanded.
    pub max_depth_reached: usize,
    /// `true` when a state/depth cap cut the frontier: the cover is
    /// incomplete and a clean run proves nothing beyond it.
    pub truncated: bool,
    /// Violations found (bounded by
    /// [`MacExploreConfig::max_violations`]).
    pub violations: Vec<MacViolation>,
}

impl MacExploreOutcome {
    fn empty(reduction: Reduction) -> Self {
        Self {
            reduction,
            states: 0,
            transitions: 0,
            distinct_states: 0,
            quiescent_states: 0,
            max_depth_reached: 0,
            truncated: false,
            violations: Vec::new(),
        }
    }

    /// `true` when the walk covered the whole space and found nothing:
    /// agreement/validity hold in every reachable state, termination
    /// in every quiescent one.
    pub fn verified(&self) -> bool {
        !self.truncated && self.violations.is_empty()
    }

    /// Panics with a rendered violation/truncation report unless
    /// [`verified`](Self::verified).
    pub fn assert_verified(&self) {
        if let Some(v) = self.violations.first() {
            panic!("{}", v.render());
        }
        assert!(!self.truncated, "exploration truncated — nothing proven");
    }
}

/// One DPOR stack frame: the state, what is enabled there, and the
/// sleep/done/backtrack sets steering which alternatives fork.
///
/// All three steering sets are `BTreeSet`s: selection takes the
/// *minimum* eligible choice, so the walk order is a pure function of
/// the state — never of hash iteration order (the PR 2 ack-order leak
/// class).
struct Frame<P: Process> {
    machine: MacMachine<P>,
    enabled: Vec<MacChoice>,
    sleep: BTreeSet<MacChoice>,
    done: BTreeSet<MacChoice>,
    backtrack: BTreeSet<MacChoice>,
}

/// An exhaustive checker for one (algorithm, topology, inputs, crash
/// budget) instance.
///
/// # Examples
///
/// ```
/// use amacl_checker::{MacExploreConfig, MacExplorer};
/// use amacl_model::machine::LedgerMutation;
/// use amacl_model::prelude::*;
///
/// /// Broadcast once, decide own value at the ack.
/// #[derive(Clone, Debug)]
/// struct OneShot(Value);
/// #[derive(Clone, Copy, Debug)]
/// struct Ping;
/// impl Payload for Ping {
///     fn id_count(&self) -> usize { 0 }
/// }
/// impl Process for OneShot {
///     type Msg = Ping;
///     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) { ctx.broadcast(Ping); }
///     fn on_receive(&mut self, _: Ping, _: &mut Context<'_, Ping>) {}
///     fn on_ack(&mut self, ctx: &mut Context<'_, Ping>) { ctx.decide(self.0); }
/// }
///
/// // Uniform inputs: agreement holds on every schedule.
/// let outcome = MacExplorer::new(
///     Topology::clique(2),
///     vec![OneShot(1), OneShot(1)],
///     vec![1, 1],
///     0,
///     LedgerMutation::None,
/// )
/// .run(&MacExploreConfig::default());
/// assert!(outcome.verified());
/// ```
pub struct MacExplorer<P: Process> {
    root: MacMachine<P>,
    inputs: Vec<Value>,
}

impl<P: Process + Clone + std::fmt::Debug> MacExplorer<P> {
    /// Builds an explorer over fresh processes with their declared
    /// inputs (used for the validity check), a scheduler crash budget,
    /// and (for mutation testing) a seeded ledger bug.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one process and one input per
    /// node.
    pub fn new(
        topo: Topology,
        procs: Vec<P>,
        inputs: Vec<Value>,
        crash_budget: usize,
        mutation: LedgerMutation,
    ) -> Self {
        assert_eq!(procs.len(), inputs.len(), "one input per node");
        Self {
            root: MacMachine::new(topo, procs, crash_budget, mutation),
            inputs,
        }
    }

    /// The declared inputs.
    pub fn inputs(&self) -> &[Value] {
        &self.inputs
    }

    /// A fresh copy of the initial state.
    pub fn fork_root(&self) -> MacMachine<P> {
        self.root.clone()
    }

    /// Replays a schedule from the initial state, returning the
    /// resulting machine.
    ///
    /// # Panics
    ///
    /// Panics if any choice is not enabled where the schedule claims
    /// it is — the determinism contract fails loudly, never silently.
    pub fn replay(&self, schedule: &[MacChoice]) -> MacMachine<P> {
        let mut m = self.fork_root();
        for &c in schedule {
            m.apply(c);
        }
        m
    }

    /// Judges agreement and validity in `m`'s state, and termination
    /// if it is `quiescent` (the caller's `m.quiescent()`).
    pub(crate) fn check_state(
        &self,
        m: &MacMachine<P>,
        schedule: &[MacChoice],
        quiescent: bool,
    ) -> Option<MacViolation> {
        let decided = m.decided_values();
        let kind = if decided.len() > 1 {
            ViolationKind::Agreement
        } else if decided.iter().any(|v| !self.inputs.contains(v)) {
            ViolationKind::Validity
        } else if quiescent && !m.all_alive_decided() {
            ViolationKind::Termination
        } else {
            return None;
        };
        Some(MacViolation {
            kind,
            schedule: schedule.to_vec(),
            decisions: m.decisions(),
        })
    }

    /// Counts one expanded state and judges it. Returns `true` when
    /// the violation cap is reached and the search must stop.
    fn visit(
        &self,
        m: &MacMachine<P>,
        schedule: &[MacChoice],
        cfg: &MacExploreConfig,
        out: &mut MacExploreOutcome,
    ) -> bool {
        out.states += 1;
        out.max_depth_reached = out.max_depth_reached.max(schedule.len());
        let quiescent = m.quiescent();
        out.quiescent_states += u64::from(quiescent);
        out.violations
            .extend(self.check_state(m, schedule, quiescent));
        out.violations.len() >= cfg.max_violations
    }

    /// Runs the search and reports states, violations, and (honestly)
    /// any truncation.
    pub fn run(&self, cfg: &MacExploreConfig) -> MacExploreOutcome {
        match cfg.reduction {
            Reduction::Naive(order) => self.run_naive(cfg, order),
            Reduction::Dpor => self.run_dpor(cfg),
        }
    }

    /// The fingerprint-dedup walk (no reduction). One deque serves both
    /// orders: depth-first pops the back, breadth-first the front.
    fn run_naive(&self, cfg: &MacExploreConfig, order: SearchOrder) -> MacExploreOutcome {
        let mut out = MacExploreOutcome::empty(cfg.reduction);
        // Membership-only set (never iterated): iteration-order
        // nondeterminism cannot leak into the walk order, which is
        // fully determined by the explicit frontier below.
        let mut seen: HashSet<u64> = HashSet::new();
        seen.insert(self.root.fingerprint());
        let mut frontier: VecDeque<(MacMachine<P>, Vec<MacChoice>)> =
            VecDeque::from([(self.root.clone(), vec![])]);
        while let Some((m, schedule)) = match order {
            SearchOrder::Dfs => frontier.pop_back(),
            SearchOrder::Bfs => frontier.pop_front(),
        } {
            if self.visit(&m, &schedule, cfg, &mut out) {
                break;
            }
            if schedule.len() >= cfg.max_depth {
                out.truncated = true;
                continue;
            }
            if out.states as usize >= cfg.max_states {
                out.truncated = true;
                break;
            }
            let mut choices = m.choices();
            if order == SearchOrder::Dfs {
                // Pushed in reverse so the back pops children in
                // ascending MacChoice order — same first path as DPOR.
                choices.reverse();
            }
            for c in choices {
                let mut child = m.clone();
                child.apply(c);
                out.transitions += 1;
                if seen.insert(child.fingerprint()) {
                    let mut s = schedule.clone();
                    s.push(c);
                    frontier.push_back((child, s));
                }
            }
        }
        out.distinct_states = seen.len() as u64;
        out
    }

    /// Sleep-set + backtrack-set DPOR (see the module docs for the
    /// soundness argument).
    fn run_dpor(&self, cfg: &MacExploreConfig) -> MacExploreOutcome {
        let mut out = MacExploreOutcome::empty(Reduction::Dpor);
        // Counting only — never iterated, never used for pruning.
        let mut fingerprints: HashSet<u64> = HashSet::new();
        let mut frames: Vec<Frame<P>> = Vec::new();
        // schedule[j] is the choice taken out of frames[j]; always
        // exactly one shorter than `frames`.
        let mut schedule: Vec<MacChoice> = Vec::new();

        // Visits a state: counts, checks properties, performs the
        // FG-style race analysis for every enabled choice, and pushes
        // the frame. Returns `true` when the search must stop.
        let mut push_state = |machine: MacMachine<P>,
                              sleep: BTreeSet<MacChoice>,
                              frames: &mut Vec<Frame<P>>,
                              schedule: &[MacChoice],
                              out: &mut MacExploreOutcome|
         -> bool {
            fingerprints.insert(machine.fingerprint());
            if self.visit(&machine, schedule, cfg, out) {
                return true;
            }
            let enabled = machine.choices();
            // Race analysis: for each enabled choice, give the deepest
            // dependent stack transition a backtrack point — the
            // choice itself where it was already enabled, the whole
            // enabled set otherwise (conservative fallback).
            for &c in &enabled {
                for j in (0..schedule.len()).rev() {
                    if !schedule[j].independent(c) {
                        if frames[j].enabled.contains(&c) {
                            frames[j].backtrack.insert(c);
                        } else {
                            let all = frames[j].enabled.clone();
                            frames[j].backtrack.extend(all);
                        }
                        break;
                    }
                }
            }
            let mut backtrack = BTreeSet::new();
            if schedule.len() >= cfg.max_depth {
                if !enabled.is_empty() {
                    out.truncated = true;
                }
            } else if let Some(&first) = enabled.iter().find(|c| !sleep.contains(c)) {
                backtrack.insert(first);
            }
            frames.push(Frame {
                machine,
                enabled,
                sleep,
                done: BTreeSet::new(),
                backtrack,
            });
            if out.states as usize >= cfg.max_states {
                out.truncated = true;
                return true;
            }
            false
        };

        let mut stop = push_state(
            self.root.clone(),
            BTreeSet::new(),
            &mut frames,
            &schedule,
            &mut out,
        );
        while !stop {
            let Some(top) = frames.last_mut() else { break };
            let next = top
                .backtrack
                .iter()
                .copied()
                .find(|c| !top.done.contains(c) && !top.sleep.contains(c));
            let Some(c) = next else {
                frames.pop();
                if !frames.is_empty() {
                    schedule.pop();
                }
                continue;
            };
            top.done.insert(c);
            let mut child = top.machine.clone();
            // Child sleep: parent's sleep plus explored siblings,
            // filtered to choices that commute with the one taken
            // (`c` filters itself out — nothing is self-independent).
            let sleep: BTreeSet<MacChoice> = top
                .sleep
                .union(&top.done)
                .copied()
                .filter(|x| x.independent(c))
                .collect();
            child.apply(c);
            out.transitions += 1;
            schedule.push(c);
            stop = push_state(child, sleep, &mut frames, &schedule, &mut out);
        }
        out.distinct_states = fingerprints.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amacl_core::two_phase::TwoPhase;

    /// Broadcast once; decide own input at the ack. Agreement fails
    /// for mixed inputs — a deliberately broken algorithm for testing
    /// the checker itself.
    #[derive(Clone, Debug)]
    struct Selfish(Value);

    #[derive(Clone, Copy, Debug)]
    struct Ping;
    impl Payload for Ping {
        fn id_count(&self) -> usize {
            0
        }
    }

    impl Process for Selfish {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.broadcast(Ping);
        }
        fn on_receive(&mut self, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}
        fn on_ack(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.decide(self.0);
        }
    }

    /// Never broadcasts, never decides: a liveness counterexample.
    #[derive(Clone, Debug)]
    struct Mute;

    impl Process for Mute {
        type Msg = Ping;
        fn on_start(&mut self, _ctx: &mut Context<'_, Ping>) {}
        fn on_receive(&mut self, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}
        fn on_ack(&mut self, _ctx: &mut Context<'_, Ping>) {}
    }

    fn selfish(topo: Topology, inputs: &[Value], crash_budget: usize) -> MacExplorer<Selfish> {
        MacExplorer::new(
            topo,
            inputs.iter().map(|&v| Selfish(v)).collect(),
            inputs.to_vec(),
            crash_budget,
            LedgerMutation::None,
        )
    }

    #[test]
    fn uniform_selfish_verifies() {
        let out = selfish(Topology::clique(3), &[1, 1, 1], 0)
            .run(&MacExploreConfig::naive(SearchOrder::Dfs));
        out.assert_verified();
        assert!(out.states > 1);
        assert_eq!(out.states, out.distinct_states);
        assert!(out.quiescent_states >= 1);
    }

    #[test]
    fn mixed_selfish_violates_agreement_with_schedule() {
        let explorer = selfish(Topology::clique(2), &[0, 1], 0);
        let out = explorer.run(&MacExploreConfig::naive(SearchOrder::Dfs));
        assert!(!out.verified());
        let v = &out.violations[0];
        assert_eq!(v.kind, ViolationKind::Agreement);
        // The schedule replays to the same bad state.
        let m = explorer.replay(&v.schedule);
        assert_eq!(m.decided_values().len(), 2);
    }

    /// Companion to the iteration-order audit on the walk's `seen` set:
    /// with the only hash collection queried by membership alone,
    /// repeated walks — violation schedules and decision bytes included
    /// — must be identical, under every strategy and with crashes in
    /// play.
    #[test]
    fn walks_are_deterministic_across_runs() {
        for reduction in [
            Reduction::Naive(SearchOrder::Dfs),
            Reduction::Naive(SearchOrder::Bfs),
            Reduction::Dpor,
        ] {
            let run = || {
                selfish(Topology::clique(3), &[0, 1, 1], 1).run(&MacExploreConfig {
                    reduction,
                    max_violations: 4,
                    ..MacExploreConfig::default()
                })
            };
            let out = run();
            assert_eq!(out, run(), "{reduction:?}");
            assert_eq!(out.violations.len(), 4);
        }
    }

    #[test]
    fn mute_algorithm_violates_termination() {
        let explorer = MacExplorer::new(
            Topology::clique(2),
            vec![Mute, Mute],
            vec![0, 0],
            0,
            LedgerMutation::None,
        );
        let out = explorer.run(&MacExploreConfig::naive(SearchOrder::Dfs));
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].kind, ViolationKind::Termination);
        // The initial state is already quiescent: nobody ever broadcast.
        assert!(out.violations[0].schedule.is_empty());
    }

    #[test]
    fn bfs_finds_a_minimal_counterexample() {
        // BFS layers by schedule length, so the first violation found
        // has the minimum number of moves; DFS may find a longer one.
        let explorer = selfish(Topology::clique(2), &[0, 1], 0);
        let bfs = explorer.run(&MacExploreConfig::naive(SearchOrder::Bfs));
        let dfs = explorer.run(&MacExploreConfig::naive(SearchOrder::Dfs));
        let bfs_len = bfs.violations[0].schedule.len();
        assert!(bfs_len <= dfs.violations[0].schedule.len());
        // Selfish needs both nodes acked to disagree, and each ack
        // needs its delivery first: 2 delivers + 2 acks.
        assert_eq!(bfs_len, 4, "{:?}", bfs.violations[0].schedule);
    }

    fn two_phase(inputs: &[Value], crash_budget: usize) -> MacExplorer<TwoPhase> {
        MacExplorer::new(
            Topology::clique(inputs.len()),
            inputs.iter().map(|&v| TwoPhase::new(v)).collect(),
            inputs.to_vec(),
            crash_budget,
            LedgerMutation::None,
        )
    }

    /// What the deleted `checker::machine::ExploreMachine` walk
    /// returned for these instances, recorded before its removal.
    /// Shortest-path lengths do not depend on dedup details, so they
    /// are a true differential between the two implementations of the
    /// MAC rules.
    #[test]
    fn bfs_minimum_counterexamples_match_the_legacy_machine() {
        let shortest = |explorer: MacExplorer<TwoPhase>| {
            let out = explorer.run(&MacExploreConfig::naive(SearchOrder::Bfs));
            let v = out.violations[0].clone();
            assert_eq!(explorer.replay(&v.schedule).decisions(), v.decisions);
            (v.kind, v.schedule.len())
        };
        assert_eq!(
            shortest(two_phase(&[0, 1], 1)),
            (ViolationKind::Termination, 4)
        );
        assert_eq!(
            shortest(two_phase(&[0, 1, 1], 1)),
            (ViolationKind::Termination, 10)
        );
        let literal = MacExplorer::new(
            Topology::clique(2),
            vec![
                TwoPhase::with_literal_r2_check(0),
                TwoPhase::with_literal_r2_check(1),
            ],
            vec![0, 1],
            0,
            LedgerMutation::None,
        );
        assert_eq!(shortest(literal), (ViolationKind::Agreement, 8));
    }

    #[test]
    fn bfs_and_dfs_agree_on_verification() {
        for order in [SearchOrder::Dfs, SearchOrder::Bfs] {
            let out =
                selfish(Topology::clique(3), &[1, 1, 1], 0).run(&MacExploreConfig::naive(order));
            assert!(out.verified(), "{order:?}");
        }
    }

    #[test]
    fn state_cap_reports_truncation() {
        let out = selfish(Topology::clique(3), &[1, 1, 1], 0).run(&MacExploreConfig {
            max_states: 2,
            ..MacExploreConfig::naive(SearchOrder::Dfs)
        });
        assert!(out.truncated);
        assert!(!out.verified());
    }

    #[test]
    fn depth_cap_reports_truncation() {
        for order in [SearchOrder::Dfs, SearchOrder::Bfs] {
            let out = selfish(Topology::clique(3), &[1, 1, 1], 0).run(&MacExploreConfig {
                max_depth: 1,
                ..MacExploreConfig::naive(order)
            });
            assert!(out.truncated, "{order:?}");
        }
    }

    #[test]
    #[should_panic(expected = "one input per node")]
    fn input_mismatch_rejected() {
        MacExplorer::new(
            Topology::clique(2),
            vec![Mute, Mute],
            vec![0],
            0,
            LedgerMutation::None,
        );
    }
}
