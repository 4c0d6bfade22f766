//! Property tests for the checker itself: the explorer's verdicts and
//! the machine's semantics must be internally consistent and agree
//! with the simulator's model semantics.

use amacl_checker::{MacExploreConfig, MacExplorer, SearchOrder};
use amacl_core::two_phase::TwoPhase;
use amacl_model::mac::MacChoice;
use amacl_model::machine::{LedgerMutation, MacMachine};
use amacl_model::prelude::*;
use proptest::prelude::*;

/// Small random connected topologies suitable for exhaustive walks.
fn arb_small_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (2usize..4).prop_map(Topology::clique),
        (2usize..4).prop_map(Topology::line),
        (3usize..4).prop_map(Topology::ring),
        Just(Topology::star(3)),
    ]
}

/// Broadcast once, decide own value at the ack — verifies exactly when
/// inputs are uniform.
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

fn selfish(topo: Topology, inputs: &[Value]) -> MacExplorer<Selfish> {
    MacExplorer::new(
        topo,
        inputs.iter().map(|&v| Selfish(v)).collect(),
        inputs.to_vec(),
        0,
        LedgerMutation::None,
    )
}

fn two_phase(topo: Topology, inputs: &[Value], crash_budget: usize) -> MacMachine<TwoPhase> {
    MacMachine::new(
        topo,
        inputs.iter().map(|&v| TwoPhase::new(v)).collect(),
        crash_budget,
        LedgerMutation::None,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Uniform inputs verify on every topology; mixed inputs violate
    /// agreement on every topology — and BFS, DFS and DPOR agree on
    /// which.
    #[test]
    fn selfish_verdict_matches_input_uniformity(
        topo in arb_small_topology(),
        uniform in any::<bool>(),
    ) {
        let n = topo.len();
        let inputs: Vec<Value> = if uniform {
            vec![1; n]
        } else {
            (0..n).map(|i| (i % 2) as Value).collect()
        };
        for cfg in [
            MacExploreConfig::naive(SearchOrder::Dfs),
            MacExploreConfig::naive(SearchOrder::Bfs),
            MacExploreConfig::default(),
        ] {
            let out = selfish(topo.clone(), &inputs).run(&cfg);
            prop_assert_eq!(out.verified(), uniform, "{:?} on {:?}", cfg.reduction, topo);
        }
    }

    /// Replaying any violation schedule reproduces a state with the
    /// reported decisions.
    #[test]
    fn violation_schedules_replay_exactly(
        topo in arb_small_topology(),
    ) {
        let n = topo.len();
        let inputs: Vec<Value> = (0..n).map(|i| (i % 2) as Value).collect();
        prop_assume!(inputs.contains(&1));
        let explorer = selfish(topo, &inputs);
        let out = explorer.run(&MacExploreConfig::naive(SearchOrder::Dfs));
        prop_assert!(!out.violations.is_empty());
        let v = &out.violations[0];
        let m = explorer.replay(&v.schedule);
        prop_assert_eq!(&m.decisions(), &v.decisions);
    }

    /// Applying the same schedule to two forks yields identical
    /// fingerprints (the machine is deterministic in its choices).
    #[test]
    fn machines_are_deterministic_under_identical_choices(
        steps in 0usize..12,
        picks in proptest::collection::vec(any::<usize>(), 12),
    ) {
        let mk = || two_phase(Topology::clique(3), &[0, 1, 1], 0);
        let mut a = mk();
        let mut b = mk();
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        for i in 0..steps {
            let choices = a.choices();
            if choices.is_empty() {
                break;
            }
            let c = choices[picks[i] % choices.len()];
            a.apply(c);
            b.apply(c);
            prop_assert_eq!(a.fingerprint(), b.fingerprint(), "diverged at move {}", i);
        }
    }

    /// Every choice the machine offers is actually applicable, and
    /// acks only appear once the message reached all live neighbors.
    #[test]
    fn offered_choices_are_always_applicable(
        picks in proptest::collection::vec(any::<usize>(), 24),
        budget in 0usize..2,
    ) {
        let mut m = two_phase(Topology::ring(3), &[0, 1, 0], budget);
        for p in picks {
            let choices = m.choices();
            if choices.is_empty() {
                prop_assert!(m.quiescent());
                break;
            }
            for &c in &choices {
                if let MacChoice::Ack(u) = c {
                    // The ack invariant: a live sender with no live
                    // recipient still owed.
                    prop_assert!(!m.is_crashed(u));
                    prop_assert_eq!(m.next_recipient(u), None);
                }
            }
            m.apply(choices[p % choices.len()]); // must not panic
        }
    }

    /// Two-phase on a 2-clique: the decided value over any random walk
    /// matches an input and never splits (spot-checking the exhaustive
    /// result with independent random walks through the same machine).
    #[test]
    fn random_walks_respect_agreement_and_validity(
        inputs in proptest::collection::vec(0u64..2, 2..=3),
        picks in proptest::collection::vec(any::<usize>(), 64),
    ) {
        let mut m = two_phase(Topology::clique(inputs.len()), &inputs, 0);
        let mut i = 0;
        while !m.quiescent() && i < picks.len() {
            let choices = m.choices();
            m.apply(choices[picks[i] % choices.len()]);
            i += 1;
            let decided = m.decided_values();
            prop_assert!(decided.len() <= 1, "split: {decided:?}");
            prop_assert!(decided.iter().all(|v| inputs.contains(v)));
        }
    }
}
