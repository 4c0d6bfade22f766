//! Cross-backend conformance of lowered model-checking counterexamples.
//!
//! The loop the tentpole closes: the explorer finds a violation under
//! a deliberately seeded ledger bug, the converter lowers its schedule
//! into a `ScriptedScheduler` + crash-plan [`Scenario`], and from then
//! on that scenario must behave like any other catalogue row — the
//! discrete-event engine and the threaded runtime cross-check clean,
//! and every configuration of the engine grid (plus the sharded and
//! parallel-stepped configurations of the other queue core) reports
//! byte-identically. The *bug* only
//! exists behind the mutated seam; the lowered schedule on the real
//! (unmutated) backends is just another adversarial execution, which
//! is exactly why it is safe to enroll counterexamples as regressions.

use amacl_checker::grid::{check_engine_grid, diff_reports};
use amacl_checker::scenario::{sweep_scenario, Scenario, ScenarioAlgo, ScenarioTopo};
use amacl_checker::{MacExploreConfig, MacExploreDescriptor};
use amacl_model::machine::LedgerMutation;
use amacl_model::sim::config::EngineConfig;
use amacl_model::sim::queue::QueueCoreKind;

/// The two seeded ledger bugs, each on the smallest instance where the
/// explorer catches it.
fn seeded_bug_descriptors() -> Vec<(&'static str, MacExploreDescriptor)> {
    vec![
        (
            "ack-early",
            MacExploreDescriptor {
                algo: ScenarioAlgo::TwoPhase,
                topo: ScenarioTopo::Clique(2),
                inputs: vec![0, 1],
                crash_budget: 0,
                mutation: LedgerMutation::AckEarly,
            },
        ),
        (
            "drop-releases",
            MacExploreDescriptor {
                algo: ScenarioAlgo::TwoPhase,
                topo: ScenarioTopo::Clique(3),
                inputs: vec![0, 1, 1],
                crash_budget: 1,
                mutation: LedgerMutation::DropReleases,
            },
        ),
    ]
}

#[test]
fn lowered_seeded_bug_counterexamples_conform_across_backends_cores_and_shards() {
    for (label, d) in seeded_bug_descriptors() {
        d.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
        let out = d.explore(&MacExploreConfig::default());
        let v = out
            .violations
            .first()
            .unwrap_or_else(|| panic!("{label}: explorer missed the seeded bug"));
        // The determinism contract behind the regression: replaying
        // the emitted schedule reproduces the violating decisions.
        assert_eq!(d.replay_decisions(&v.schedule), v.decisions, "{label}");
        let scenario = d.lower(&format!("explored-{label}"), v);
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("{label}: {e}"));

        // Engine byte-identity across the grid, plus the sharded and
        // parallel-stepped configurations on the other queue core.
        let calendar = || EngineConfig::new().queue_core(QueueCoreKind::Calendar);
        let extra = [
            calendar().shards(2),
            EngineConfig::new().shards(4),
            calendar().shards(4).threads(4),
        ];
        let (_, verdict) = check_engine_grid(
            None,
            &extra,
            |cfg| scenario.run_engine_with(1, cfg).0,
            diff_reports,
        );
        verdict.unwrap_or_else(|d| panic!("{label}: {d}"));

        // The full sweep row — engine-vs-threads cross-check included
        // — passes with the grid gate on.
        let row = sweep_scenario(&scenario, 1);
        assert!(row.ok, "{label}: {:?}", row.failures);
        assert!(
            row.summary.contains("engine grid identical"),
            "{}",
            row.summary
        );
    }
}

/// The permanently enrolled counterexample sweeps clean with the rest
/// of the catalogue (the catalogue-wide tests cover it too; this keeps
/// a direct, named gate).
#[test]
fn pinned_witness_sweeps_clean_on_unmutated_backends() {
    let scenario = Scenario::by_name("explored-ack-early-witness").expect("catalogue entry");
    let row = sweep_scenario(&scenario, 1);
    assert!(row.ok, "{:?}", row.failures);
}
