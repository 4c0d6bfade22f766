//! Property tests for the explorer's determinism contract.
//!
//! Replay *is* the contract: a violation's schedule must reproduce the
//! identical violating state on a fresh machine, and re-running the
//! same bounded exploration must produce the identical outcome — same
//! counters, same violations, same rendered trace bytes. Descriptors
//! are drawn over the explorable slice of the scenario space: two-phase
//! cliques (wPAXOS's untimed ballot space grows past any useful bound,
//! see `amacl explore`'s usage text), random binary inputs, crash
//! budgets 0–1, and all three ledger mutations, under both reductions.

use amacl_checker::scenario::{ScenarioAlgo, ScenarioTopo};
use amacl_checker::{MacExploreConfig, MacExploreDescriptor, Reduction, SearchOrder};
use amacl_model::machine::LedgerMutation;
use proptest::prelude::*;

fn arb_descriptor() -> impl Strategy<Value = MacExploreDescriptor> {
    (
        2usize..=3,
        proptest::collection::vec(0u64..=1, 3),
        0usize..=1,
        0usize..3,
    )
        .prop_map(|(n, bits, crash_budget, mut_idx)| MacExploreDescriptor {
            algo: ScenarioAlgo::TwoPhase,
            topo: ScenarioTopo::Clique(n),
            inputs: bits[..n].to_vec(),
            crash_budget,
            mutation: [
                LedgerMutation::None,
                LedgerMutation::AckEarly,
                LedgerMutation::DropReleases,
            ][mut_idx],
        })
}

fn bounded(reduction: Reduction) -> MacExploreConfig {
    // Small caps keep the walk fast; truncation is fine — the
    // properties under test are determinism and replay fidelity, not
    // full coverage.
    MacExploreConfig {
        max_states: 8_000,
        max_depth: 200,
        max_violations: 3,
        reduction,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same descriptor + same config = identical outcome (violations,
    /// counters, truncation), identical rendered trace bytes, and
    /// every emitted schedule replays to the identical violating
    /// decisions.
    #[test]
    fn emitted_schedules_replay_to_identical_violations(
        d in arb_descriptor(),
        dpor in any::<bool>(),
    ) {
        prop_assert!(d.validate().is_ok(), "{d:?}");
        let cfg = bounded(if dpor { Reduction::Dpor } else { Reduction::Naive(SearchOrder::Dfs) });
        let a = d.explore(&cfg);
        let b = d.explore(&cfg);
        prop_assert_eq!(&a, &b, "explorer nondeterministic on {:?}", d);
        for (x, y) in a.violations.iter().zip(&b.violations) {
            prop_assert_eq!(x.render(), y.render(), "trace bytes diverged");
        }
        for v in &a.violations {
            prop_assert_eq!(
                d.replay_decisions(&v.schedule),
                v.decisions.clone(),
                "replay diverged from the recorded violation on {:?}",
                d
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every counterexample the explorer emits lowers into a valid
    /// scenario descriptor, and the lowering itself is deterministic.
    #[test]
    fn lowered_counterexamples_always_validate(d in arb_descriptor()) {
        let out = d.explore(&bounded(Reduction::Dpor));
        for (i, v) in out.violations.iter().enumerate() {
            let name = format!("lowered-{i}");
            let s = d.lower(&name, v);
            prop_assert!(
                s.validate().is_ok(),
                "schedule {:?} lowered to invalid scenario {:?}",
                v.schedule,
                s
            );
            prop_assert_eq!(&s, &d.lower(&name, v), "lowering nondeterministic");
        }
    }
}
