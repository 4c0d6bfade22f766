//! Property tests over random [`Scenario`] descriptors.
//!
//! 1. Scenario descriptors are plain data, so generating them randomly
//!    and replaying them must be deterministic: the same scenario and
//!    seed always produce the identical engine report.
//! 2. The sweep itself is deterministic where the model promises it:
//!    for crash-free input-determined (uniform-input) scenarios, a
//!    sweep row — which condenses both backends, including the
//!    wall-clock threaded runtime — renders byte-identically across
//!    repeated runs.

use amacl_checker::scenario::{
    sweep_scenario, Scenario, ScenarioAlgo, ScenarioInputs, ScenarioSched, ScenarioTopo,
    SweepOutcome,
};
use amacl_core::wpaxos::{WpaxosConfig, WpaxosNode};
use amacl_model::ids::Slot;
use amacl_model::mac::MacReport;
use amacl_model::sim::config::EngineConfig;
use amacl_model::sim::crash::CrashSpec;
use amacl_model::sim::queue::QueueCoreKind;
use amacl_model::sim::time::Time;
use amacl_model::sim::trace::Trace;
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_topo() -> impl Strategy<Value = ScenarioTopo> {
    prop_oneof![
        (3usize..7).prop_map(ScenarioTopo::Clique),
        (3usize..7).prop_map(ScenarioTopo::Line),
        (4usize..7).prop_map(ScenarioTopo::Ring),
        Just(ScenarioTopo::Grid(2, 2)),
        Just(ScenarioTopo::Grid(3, 2)),
        Just(ScenarioTopo::Torus(3, 3)),
        Just(ScenarioTopo::Hypercube(2)),
        Just(ScenarioTopo::Hypercube(3)),
        (0u64..40).prop_map(|seed| ScenarioTopo::RandomTree(5, seed)),
    ]
}

fn arb_sched() -> impl Strategy<Value = ScenarioSched> {
    prop_oneof![
        (1u64..6).prop_map(|f_ack| ScenarioSched::Sync { f_ack }),
        (1u64..6).prop_map(|f_ack| ScenarioSched::MaxDelay { f_ack }),
        (2u64..8).prop_map(|f_ack| ScenarioSched::Random { f_ack }),
        (1u64..3, 8u64..17).prop_map(|(f_prog, f_ack)| ScenarioSched::Dual { f_prog, f_ack }),
        (1u64..4, 5u64..40).prop_map(|(f_ack, release)| ScenarioSched::Partition {
            f_ack,
            from: vec![0],
            to: vec![1],
            release,
        }),
        (1u64..4, vec((0u64..3, 1u64..12), 0..4)).prop_map(|(default_delay, raw)| {
            ScenarioSched::Scripted {
                default_delay,
                delays: raw
                    .into_iter()
                    .map(|(nth, delay)| (0usize, nth, delay))
                    .collect(),
            }
        }),
    ]
}

/// Random scenarios over the full descriptor space: every scheduler
/// family, both crash kinds (placed on the last slot so lines and
/// rings stay connected), mixed or uniform inputs.
fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (arb_topo(), arb_sched(), 0usize..3, 1u64..20, any::<bool>()).prop_map(
        |(topo, sched, crash_kind, t, uniform)| {
            let n = topo.build().len();
            // A crash is only survivable when a majority remains.
            let crashes = match crash_kind {
                0 => vec![],
                1 if n >= 3 => vec![CrashSpec::AtTime {
                    slot: Slot(n - 1),
                    time: Time(t),
                }],
                _ if n >= 3 => vec![CrashSpec::MidBroadcast {
                    slot: Slot(n - 1),
                    nth_broadcast: t % 3,
                    delivered: 1,
                }],
                _ => vec![],
            };
            Scenario {
                name: "generated".into(),
                algo: ScenarioAlgo::Wpaxos,
                topo,
                sched,
                crashes,
                inputs: if uniform {
                    ScenarioInputs::Uniform(1)
                } else {
                    ScenarioInputs::Alternating
                },
                strict: false,
                expect_stall: false,
            }
        },
    )
}

/// Crash-free uniform-input scenarios: the input-determined slice on
/// which even the threaded backend's condensed outcome is fixed.
fn arb_determined_scenario() -> impl Strategy<Value = Scenario> {
    (arb_topo(), arb_sched(), 0u64..3).prop_map(|(topo, sched, v)| Scenario {
        name: "determined".into(),
        algo: ScenarioAlgo::Wpaxos,
        topo,
        sched,
        crashes: vec![],
        inputs: ScenarioInputs::Uniform(v),
        strict: true,
        expect_stall: false,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same scenario + same seed = bit-identical engine reports,
    /// across the whole descriptor space (partitions, scripted
    /// schedules, timed and mid-broadcast crashes included).
    #[test]
    fn engine_sweep_is_deterministic(scenario in arb_scenario(), seed in 0u64..1000) {
        prop_assert!(scenario.validate().is_ok(), "{scenario:?}");
        let a = scenario.run_engine(seed);
        let b = scenario.run_engine(seed);
        prop_assert_eq!(&a, &b, "scenario replay diverged: {:?}", scenario);
        // Safety holds under every generated adversary: deciders never
        // disagree. Termination is only the paper's promise crash-free
        // (Theorem 3.2: a single crash can stall deterministic
        // consensus under the right schedule, and the generator does
        // find such schedules).
        prop_assert!(a.decided_values().len() <= 1, "disagreement under {scenario:?}");
        if scenario.crashes.is_empty() {
            prop_assert!(a.all_decided, "{:?} did not terminate: {:?}", scenario, a.decisions);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For input-determined scenarios the full cross-backend sweep row
    /// — threaded runtime included — renders byte-identically on
    /// every run: same scenario + seed, same report bytes.
    #[test]
    fn sweep_reports_are_byte_identical(scenario in arb_determined_scenario(), seed in 0u64..100) {
        prop_assert!(scenario.validate().is_ok(), "{scenario:?}");
        let mut first = SweepOutcome { rows: vec![sweep_scenario(&scenario, seed)] };
        let mut second = SweepOutcome { rows: vec![sweep_scenario(&scenario, seed)] };
        prop_assert!(first.ok(), "sweep failed:\n{}", first.render());
        // The barrier share is wall-clock derived (worker timers) and
        // the wakeup count follows the machine's pool size, so those
        // two columns are exempt from the byte-identity promise.
        for row in first.rows.iter_mut().chain(second.rows.iter_mut()) {
            row.shard_stats.barrier_pct = 0;
            row.shard_stats.worker_wakeups = 0;
        }
        prop_assert_eq!(first.render(), second.render());
    }
}

/// One traced wPAXOS engine run of `scenario` at the given queue core,
/// shard count, and worker thread count.
fn traced_run(
    scenario: &Scenario,
    seed: u64,
    core: QueueCoreKind,
    shards: usize,
    threads: usize,
) -> (MacReport, Trace) {
    let n = scenario.topo.build().len();
    let iv = scenario.inputs.materialize(n);
    let cfg = EngineConfig::new()
        .queue_core(core)
        .shards(shards)
        .threads(threads);
    let mut backend = scenario.sim_backend(seed, &cfg);
    let (report, _, trace) =
        backend.execute_traced(&mut |s: Slot| WpaxosNode::new(iv[s.index()], WpaxosConfig::new(n)));
    (report, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sharded engine's determinism contract over the full random
    /// descriptor space: for shard counts {1, 2, 3, 7} and both queue
    /// cores, the event **trace** — not just the condensed report — is
    /// byte-identical to the serial engine's. Crashes (timed and
    /// mid-broadcast), partitions, scripted schedules, and the new
    /// torus/hypercube/random-tree topologies are all in scope.
    #[test]
    fn sharded_traces_are_byte_identical_to_serial(
        scenario in arb_scenario(),
        seed in 0u64..500,
    ) {
        prop_assert!(scenario.validate().is_ok(), "{scenario:?}");
        for core in QueueCoreKind::all() {
            let (serial_report, serial_trace) = traced_run(&scenario, seed, core, 1, 1);
            for shards in [2usize, 3, 7] {
                let (report, trace) = traced_run(&scenario, seed, core, shards, 1);
                prop_assert_eq!(
                    &serial_report, &report,
                    "report diverged: {} core, {} shards, {:?}", core, shards, scenario
                );
                prop_assert_eq!(
                    &serial_trace, &trace,
                    "trace diverged: {} core, {} shards, {:?}", core, shards, scenario
                );
            }
        }
    }

    /// The parallel stepper's determinism contract over the same
    /// descriptor space: with 4 worker threads stepping each window,
    /// the event trace is byte-identical to serial for shard counts
    /// {1, 2, 3, 7} and both queue cores. Crashes force the merged
    /// fallback; crash-free windows take the parallel commit path —
    /// both must land on the same bytes.
    #[test]
    fn threaded_traces_are_byte_identical_to_serial(
        scenario in arb_scenario(),
        seed in 0u64..500,
    ) {
        prop_assert!(scenario.validate().is_ok(), "{scenario:?}");
        for core in QueueCoreKind::all() {
            let (serial_report, serial_trace) = traced_run(&scenario, seed, core, 1, 1);
            for shards in [1usize, 2, 3, 7] {
                let (report, trace) = traced_run(&scenario, seed, core, shards, 4);
                prop_assert_eq!(
                    &serial_report, &report,
                    "report diverged: {} core, {} shards, 4 threads, {:?}", core, shards, scenario
                );
                prop_assert_eq!(
                    &serial_trace, &trace,
                    "trace diverged: {} core, {} shards, 4 threads, {:?}", core, shards, scenario
                );
            }
        }
    }
}
