//! Cross-backend conformance of lowered model-checking counterexamples.
//!
//! The loop the tentpole closes: the explorer finds a violation under
//! a deliberately seeded ledger bug, the converter lowers its schedule
//! into a `ScriptedScheduler` + crash-plan [`Scenario`], and from then
//! on that scenario must behave like any other catalogue row — the
//! discrete-event engine and the threaded runtime cross-check clean,
//! the heap and calendar queue cores report byte-identically, and the
//! sharded engine reproduces serial for S ∈ {1, 2, 4}. The *bug* only
//! exists behind the mutated seam; the lowered schedule on the real
//! (unmutated) backends is just another adversarial execution, which
//! is exactly why it is safe to enroll counterexamples as regressions.

use amacl_checker::scenario::{
    sweep_scenario, sweep_scenario_sharded, Scenario, ScenarioAlgo, ScenarioTopo,
};
use amacl_checker::{MacExploreConfig, MacExploreDescriptor};
use amacl_model::machine::LedgerMutation;
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

        // Engine byte-identity across queue cores and shard counts
        // S ∈ {1, 2, 4} (S = 1 is the sharded machinery in its
        // degenerate configuration — it too must match serial).
        let heap = scenario.run_engine_on(1, QueueCoreKind::Heap);
        let calendar = scenario.run_engine_on(1, QueueCoreKind::Calendar);
        assert_eq!(heap, calendar, "{label}: queue cores diverged");
        for core in QueueCoreKind::all() {
            let serial = scenario.run_engine_on(1, core);
            for shards in [1usize, 2, 4] {
                let (sharded, _) = scenario.run_engine_sharded(1, core, shards);
                assert_eq!(
                    serial, sharded,
                    "{label}: S={shards} on {core} diverged from serial"
                );
            }
        }

        // The full sweep row — engine-vs-threads cross-check included
        // — passes on both cores with the byte-identity gates on.
        for core in QueueCoreKind::all() {
            let row = sweep_scenario_sharded(&scenario, 1, core, &[1, 2, 4], 4);
            assert!(row.ok, "{label} on {core}: {:?}", row.failures);
            assert!(row.summary.contains("cores identical"), "{}", row.summary);
            assert!(row.summary.contains("shards identical"), "{}", row.summary);
            assert!(
                row.summary.contains("threaded identical"),
                "{}",
                row.summary
            );
        }
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
