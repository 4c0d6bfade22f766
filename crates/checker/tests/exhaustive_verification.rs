//! Exhaustive verification of the paper's algorithms on small
//! networks (experiment E15).
//!
//! Randomized schedulers sample the scheduler space; these tests
//! *cover* it. Each `assert_verified` below is a machine-checked proof
//! that the named algorithm satisfies agreement, validity, and
//! termination under **every** schedule the abstract MAC layer allows
//! for that network and input assignment. The crash-budget tests then
//! confirm the flip side — Theorem 3.2 — by exhibiting concrete
//! 1-crash schedules that break each deterministic algorithm.

use amacl_checker::{MacExploreConfig, MacExplorer, SearchOrder, ViolationKind};
use amacl_core::baselines::flood_gather::FloodGather;
use amacl_core::multivalued::BitwiseTwoPhase;
use amacl_core::tree_gather::TreeGather;
use amacl_core::two_phase::TwoPhase;
use amacl_model::machine::LedgerMutation;
use amacl_model::prelude::*;

/// The fingerprint-dedup walk, depth first.
fn cfg() -> MacExploreConfig {
    MacExploreConfig::naive(SearchOrder::Dfs)
}

fn explorer<P: Process + Clone + std::fmt::Debug>(
    topo: Topology,
    procs: Vec<P>,
    inputs: Vec<Value>,
    crash_budget: usize,
) -> MacExplorer<P> {
    MacExplorer::new(topo, procs, inputs, crash_budget, LedgerMutation::None)
}

/// Every binary input assignment for `n` nodes.
fn binary_assignments(n: usize) -> Vec<Vec<Value>> {
    (0..(1u64 << n))
        .map(|mask| (0..n).map(|i| (mask >> i) & 1).collect())
        .collect()
}

#[test]
fn two_phase_verified_for_every_input_pair() {
    for inputs in binary_assignments(2) {
        let procs: Vec<TwoPhase> = inputs.iter().map(|&v| TwoPhase::new(v)).collect();
        let out = explorer(Topology::clique(2), procs, inputs.clone(), 0).run(&cfg());
        assert!(out.verified(), "inputs {inputs:?}: {:?}", out.violations);
        assert!(out.quiescent_states >= 1);
    }
}

/// Bounded (non-exhaustive) configuration for spaces too large to
/// cover in test time: explores up to `max_states` distinct states and
/// requires that none of them violates a property. Unlike
/// `assert_verified`, a clean bounded run is evidence, not proof.
fn bounded(max_states: usize) -> MacExploreConfig {
    MacExploreConfig {
        max_states,
        ..cfg()
    }
}

#[test]
fn two_phase_verified_on_three_cliques() {
    // The full 3-node exploration covers up to ~2k distinct states per
    // input assignment; a mixed assignment plus the uniform pair
    // exercise every status combination.
    for inputs in [vec![0, 1, 1], vec![1, 1, 1]] {
        let procs: Vec<TwoPhase> = inputs.iter().map(|&v| TwoPhase::new(v)).collect();
        let out = explorer(Topology::clique(3), procs, inputs.clone(), 0).run(&cfg());
        assert!(out.verified(), "inputs {inputs:?}: {:?}", out.violations);
    }
}

#[test]
fn two_phase_literal_r2_bug_found_exhaustively() {
    // The paper's literal line-23 pseudocode (scan R_2 only) admits an
    // agreement violation; the explorer finds it without being told
    // the schedule.
    let inputs = vec![0, 1];
    let procs: Vec<TwoPhase> = inputs
        .iter()
        .map(|&v| TwoPhase::with_literal_r2_check(v))
        .collect();
    let ex = explorer(Topology::clique(2), procs, inputs, 0);
    let out = ex.run(&cfg());
    assert!(!out.verified());
    assert_eq!(out.violations[0].kind, ViolationKind::Agreement);
    // And the discovered schedule replays.
    let m = ex.replay(&out.violations[0].schedule);
    assert_eq!(m.decided_values().len(), 2);
}

#[test]
fn two_phase_breaks_under_one_crash_as_theorem_3_2_demands() {
    // Theorem 3.2: no deterministic algorithm solves consensus with a
    // single crash. For Two-Phase Consensus specifically, the explorer
    // exhibits the failure (a stuck execution or an agreement
    // violation) within a 1-crash budget.
    let inputs = vec![0, 1, 1];
    let procs: Vec<TwoPhase> = inputs.iter().map(|&v| TwoPhase::new(v)).collect();
    let out = explorer(Topology::clique(3), procs, inputs, 1).run(&cfg());
    assert!(!out.verified());
    let kind = out.violations[0].kind;
    assert!(
        kind == ViolationKind::Termination || kind == ViolationKind::Agreement,
        "unexpected violation kind {kind:?}"
    );
}

#[test]
fn two_phase_crash_failure_is_not_a_validity_failure() {
    // Under a crash budget the algorithm may block or disagree, but it
    // never invents a value: scan every violation the explorer can
    // find (up to a cap) and check none is a validity violation.
    let inputs = vec![0, 1];
    let procs: Vec<TwoPhase> = inputs.iter().map(|&v| TwoPhase::new(v)).collect();
    let out = explorer(Topology::clique(2), procs, inputs, 1).run(&MacExploreConfig {
        max_violations: 64,
        ..cfg()
    });
    assert!(!out.violations.is_empty());
    assert!(out
        .violations
        .iter()
        .all(|v| v.kind != ViolationKind::Validity));
}

#[test]
fn bitwise_two_phase_verified_for_every_two_bit_pair() {
    // All 16 ordered pairs of 2-bit inputs on a 2-clique, including
    // the complementary patterns (0b01, 0b10) that break naive
    // per-bit agreement.
    for a in 0..4u64 {
        for b in 0..4u64 {
            let inputs = vec![a, b];
            let procs: Vec<BitwiseTwoPhase> =
                inputs.iter().map(|&v| BitwiseTwoPhase::new(v, 2)).collect();
            let out = explorer(Topology::clique(2), procs, inputs.clone(), 0).run(&cfg());
            assert!(out.verified(), "inputs {inputs:?}: {:?}", out.violations);
        }
    }
}

#[test]
fn bitwise_two_phase_bounded_on_three_cliques() {
    // The 3-node two-round space runs to millions of states; check the
    // first 60k breadth of it for safety violations.
    let inputs = vec![0b10, 0b01, 0b11];
    let procs: Vec<BitwiseTwoPhase> = inputs.iter().map(|&v| BitwiseTwoPhase::new(v, 2)).collect();
    let out = explorer(Topology::clique(3), procs, inputs.clone(), 0).run(&bounded(60_000));
    assert!(out.violations.is_empty(), "{:?}", out.violations);
}

#[test]
fn flood_gather_verified_on_multihop_topologies() {
    for (topo, inputs) in [
        (Topology::line(3), vec![0, 1, 0]),
        (Topology::line(3), vec![1, 1, 1]),
        (Topology::ring(3), vec![0, 1, 1]),
    ] {
        let n = topo.len();
        let procs: Vec<FloodGather> = inputs.iter().map(|&v| FloodGather::new(v, n)).collect();
        let out = explorer(topo, procs, inputs.clone(), 0).run(&cfg());
        assert!(out.verified(), "inputs {inputs:?}: {:?}", out.violations);
    }
}

#[test]
fn flood_gather_bounded_on_four_node_ring() {
    let inputs = vec![0, 1, 1, 0];
    let procs: Vec<FloodGather> = inputs.iter().map(|&v| FloodGather::new(v, 4)).collect();
    let out = explorer(Topology::ring(4), procs, inputs.clone(), 0).run(&bounded(60_000));
    assert!(out.violations.is_empty(), "{:?}", out.violations);
}

#[test]
fn tree_gather_verified_on_multihop_topologies() {
    for (topo, inputs) in [
        (Topology::line(3), vec![0, 1, 0]),
        (Topology::star(3), vec![1, 0, 1]),
    ] {
        let n = topo.len();
        let procs: Vec<TreeGather> = inputs.iter().map(|&v| TreeGather::new(v, n)).collect();
        let out = explorer(topo, procs, inputs.clone(), 0).run(&cfg());
        assert!(out.verified(), "inputs {inputs:?}: {:?}", out.violations);
    }
}

#[test]
fn tree_gather_bounded_on_four_node_star() {
    let inputs = vec![1, 0, 1, 1];
    let procs: Vec<TreeGather> = inputs.iter().map(|&v| TreeGather::new(v, 4)).collect();
    let out = explorer(Topology::star(4), procs, inputs.clone(), 0).run(&bounded(60_000));
    assert!(out.violations.is_empty(), "{:?}", out.violations);
}

#[test]
fn flood_gather_stalls_under_one_crash() {
    // Flood-gather waits for all n inputs, so a single crash (even a
    // clean one that delivers everything first) can leave survivors
    // counting forever — exactly why the paper's upper bounds assume
    // no crashes.
    let inputs = vec![0, 1, 1];
    let procs: Vec<FloodGather> = inputs.iter().map(|&v| FloodGather::new(v, 3)).collect();
    let out = explorer(Topology::clique(3), procs, inputs, 1).run(&cfg());
    assert!(!out.verified());
    assert_eq!(out.violations[0].kind, ViolationKind::Termination);
}

mod fuzzing {
    //! The unrestricted-adversary fuzzer at sizes the exhaustive walk
    //! cannot reach.

    use super::*;
    use amacl_checker::FuzzConfig;
    use amacl_core::wpaxos::{WpaxosConfig, WpaxosNode};

    #[test]
    fn wpaxos_survives_unrestricted_adversary_walks() {
        // The delay-based RandomScheduler cannot starve a node or
        // fully decouple delivery order from time; the fuzzer can.
        // wPAXOS must still satisfy consensus on every walk.
        for (topo, label) in [
            (Topology::grid(3, 2), "grid(3x2)"),
            (Topology::ring(6), "ring(6)"),
            (Topology::star(6), "star(6)"),
        ] {
            let n = topo.len();
            let inputs: Vec<Value> = (0..n).map(|i| (i % 2) as Value).collect();
            let procs: Vec<WpaxosNode> = inputs
                .iter()
                .map(|&v| WpaxosNode::new(v, WpaxosConfig::new(n)))
                .collect();
            let out = explorer(topo, procs, inputs, 0).fuzz(FuzzConfig {
                walks: 10,
                seed: 7,
                ..FuzzConfig::default()
            });
            assert!(out.clean(), "{label}: {:?}", out.violations.first());
            assert_eq!(out.decided_walks, 10, "{label}");
        }
    }

    #[test]
    fn two_phase_fuzzes_clean_at_sizes_beyond_exhaustive_reach() {
        // n = 6 would be far past the exhaustive state-count budget;
        // 200 unrestricted walks still cover adversarial interleavings
        // randomized delay schedulers cannot express.
        let inputs: Vec<Value> = (0..6).map(|i| (i % 2) as Value).collect();
        let procs: Vec<TwoPhase> = inputs.iter().map(|&v| TwoPhase::new(v)).collect();
        let out = explorer(Topology::clique(6), procs, inputs, 0).fuzz(FuzzConfig {
            walks: 200,
            seed: 11,
            ..FuzzConfig::default()
        });
        out.assert_clean();
        assert_eq!(out.decided_walks, 200);
    }

    #[test]
    fn fuzzer_rediscovers_the_crash_impossibility() {
        // With a 1-crash budget the fuzzer finds a violating walk for
        // two-phase, matching the exhaustive result (Theorem 3.2).
        let inputs = vec![0, 1, 1];
        let procs: Vec<TwoPhase> = inputs.iter().map(|&v| TwoPhase::new(v)).collect();
        let ex = explorer(Topology::clique(3), procs, inputs, 1);
        let out = ex.fuzz(FuzzConfig {
            walks: 500,
            seed: 5,
            ..FuzzConfig::default()
        });
        assert!(!out.clean(), "some walk must break within 500 tries");
        let v = &out.violations[0];
        let m = ex.replay(&v.schedule);
        assert_eq!(m.decisions(), v.decisions);
    }
}

/// Distinct states of the crash-free walks. The fingerprint hashes each
/// node's `Debug` state, so these counts move only when a process
/// keeps more or less state; they may fall, never rise. With the
/// scan-based Two-Phase handlers, which stored `R_1`/`R_2`, they were
/// 89 / 35,333 / 53,190, equal to the deleted
/// `checker::machine::ExploreMachine` walk. The incremental handlers
/// keep only what the decisions depend on, so states that differed
/// only in already-irrelevant messages merge.
#[test]
fn crash_free_state_counts_are_pinned() {
    for (inputs, states) in [
        (vec![0, 1], 49),
        (vec![0, 1, 1], 2_332),
        (vec![1, 1, 1], 729),
    ] {
        let procs: Vec<TwoPhase> = inputs.iter().map(|&v| TwoPhase::new(v)).collect();
        let out = explorer(Topology::clique(inputs.len()), procs, inputs.clone(), 0).run(&cfg());
        assert!(out.verified(), "inputs {inputs:?}: {:?}", out.violations);
        assert_eq!(out.states, states, "inputs {inputs:?}");
        assert_eq!(out.distinct_states, states, "inputs {inputs:?}");
    }
}

#[test]
fn exploration_statistics_are_plausible() {
    let inputs = vec![0, 1];
    let procs: Vec<TwoPhase> = inputs.iter().map(|&v| TwoPhase::new(v)).collect();
    let out = explorer(Topology::clique(2), procs, inputs, 0).run(&cfg());
    assert!(out.verified());
    // Two nodes, two phases each: at least 8 scheduler moves on the
    // longest branch (2 deliveries + 2 acks per phase).
    assert!(out.max_depth_reached >= 8);
    assert!(out.states > out.quiescent_states);
    assert!(out.quiescent_states >= 1);
}
