//! The open-loop determinism grid: a fixed-seed sustained workload
//! must be byte-identical — full trace, latency histogram, every
//! per-request latency, condensed report — across the FULL engine
//! configuration cross product (queue core × shards {1, 2, 4} ×
//! threads {1, 4}), not just the sweep's spot checks.

use amacl_checker::workload::{run_load, ArrivalKind, LoadScenario, WorkloadSpec};
use amacl_model::sim::queue::QueueCoreKind;

/// A shortened steady-state scenario so the 12-configuration grid
/// stays fast: ~20 requests over 4000 ticks plus drain.
fn short_steady_state() -> LoadScenario {
    LoadScenario {
        name: "grid-steady-state".into(),
        spec: WorkloadSpec {
            duration: 4_000,
            drain: 8_000,
            ..WorkloadSpec::default_spec()
        },
        crash: None,
        partition: None,
    }
}

#[test]
fn open_loop_workload_is_identical_across_the_full_engine_grid() {
    let scenario = short_steady_state();
    let reference = run_load(&scenario, QueueCoreKind::Heap, 1, 1, true);
    assert!(
        reference.histogram.count() > 0,
        "grid scenario decided nothing; the test would be vacuous"
    );
    assert_eq!(reference.unfinished, 0, "steady state must drain");
    for core in [QueueCoreKind::Heap, QueueCoreKind::Calendar] {
        for shards in [1usize, 2, 4] {
            for threads in [1usize, 4] {
                let run = run_load(&scenario, core, shards, threads, true);
                let label = format!("core={core:?} S={shards} T={threads}");
                assert_eq!(run.trace, reference.trace, "{label}: trace diverged");
                assert_eq!(
                    run.histogram, reference.histogram,
                    "{label}: histogram diverged"
                );
                assert_eq!(
                    run.completed, reference.completed,
                    "{label}: per-request latencies diverged"
                );
                assert_eq!(run.report, reference.report, "{label}: report diverged");
                assert_eq!(
                    run.unfinished, reference.unfinished,
                    "{label}: backlog diverged"
                );
            }
        }
    }
}

#[test]
fn crash_scenario_is_identical_across_representative_grid_corners() {
    // The crash overlay exercises the CrashPlan path through
    // EngineConfig; corners (serial heap, sharded calendar, threaded
    // heap) cover each engine mechanism once.
    let spec = WorkloadSpec {
        duration: 4_000,
        drain: 8_000,
        ..WorkloadSpec::default_spec()
    };
    let scenario = LoadScenario {
        name: "grid-crash".into(),
        crash: Some((spec.n - 1, spec.duration / 2)),
        partition: None,
        spec,
    };
    let reference = run_load(&scenario, QueueCoreKind::Heap, 1, 1, true);
    assert!(reference.histogram.count() > 0);
    for (core, shards, threads) in [(QueueCoreKind::Calendar, 4, 1), (QueueCoreKind::Heap, 2, 4)] {
        let run = run_load(&scenario, core, shards, threads, true);
        let label = format!("core={core:?} S={shards} T={threads}");
        assert_eq!(run.trace, reference.trace, "{label}: trace diverged");
        assert_eq!(
            run.histogram, reference.histogram,
            "{label}: histogram diverged"
        );
        assert_eq!(
            run.completed, reference.completed,
            "{label}: latencies diverged"
        );
    }
}

/// The default steady-state surface, pinned exactly: submit→decide
/// latency is measured in virtual ticks and the workload is a pure
/// function of its spec (seed 1, 20 000 ticks + 20 000 drain, rate 5),
/// so any movement is a semantic change to the engine or the
/// consensus pipeline, never noise — at every engine configuration.
#[test]
fn default_steady_state_latency_surface_is_pinned() {
    // (arrival, decided, p50, p99, max)
    let surfaces = [
        (ArrivalKind::Deterministic, 99, 125, 125, 125),
        (ArrivalKind::Poisson, 122, 255, 596, 596),
    ];
    for (arrival, decided, p50, p99, max) in surfaces {
        let scenario = LoadScenario {
            name: format!("pinned-{}", arrival.name()),
            spec: WorkloadSpec {
                arrival,
                ..WorkloadSpec::default_spec()
            },
            crash: None,
            partition: None,
        };
        for (shards, threads) in [(1usize, 1usize), (2, 1), (4, 4)] {
            let run = run_load(&scenario, QueueCoreKind::Heap, shards, threads, false);
            let h = &run.histogram;
            assert_eq!(run.unfinished, 0, "{arrival:?}: steady state must drain");
            assert_eq!(
                (h.count(), h.p50(), h.p99(), h.max()),
                (decided, p50, p99, max),
                "{arrival:?} S={shards} T={threads}: latency surface moved"
            );
        }
    }
}
