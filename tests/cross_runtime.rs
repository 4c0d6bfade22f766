//! Experiment E9: the same `Process` implementations on the threaded
//! MAC runtime, cross-validated against the simulator.

use std::time::Duration;

use amacl::algorithms::extensions::ben_or::BenOr;
use amacl::algorithms::two_phase::TwoPhase;
use amacl::algorithms::wpaxos::wpaxos_node;
use amacl::model::prelude::*;
use amacl::runtime::{MacRuntime, RuntimeConfig};

/// The engine backend on `topo` under the seeded random adversary.
fn random_sim(topo: Topology, f_ack: u64, seed: u64) -> SimBackend {
    use amacl::checker::ScenarioSched;
    SimBackend::with_factory(
        topo,
        "random",
        ScenarioSched::Random { f_ack }.factory(seed),
    )
}

fn cfg(seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        max_jitter: Duration::from_micros(250),
        seed,
        timeout: Duration::from_secs(30),
        ..RuntimeConfig::default()
    }
}

#[test]
fn two_phase_agrees_on_threads() {
    for seed in 0..3 {
        let rt = MacRuntime::new(Topology::clique(6), cfg(seed));
        let report = rt.run(|s| TwoPhase::new((s.index() % 2) as Value));
        assert!(report.all_decided, "seed {seed}: {:?}", report.decisions);
        assert_eq!(
            report.decided_values().len(),
            1,
            "seed {seed}: disagreement {:?}",
            report.decisions
        );
    }
}

#[test]
fn two_phase_validity_on_threads() {
    // Uniform inputs must decide that value even under thread racing.
    for v in [0u64, 1] {
        let rt = MacRuntime::new(Topology::clique(5), cfg(v + 10));
        let report = rt.run(|_| TwoPhase::new(v));
        assert!(report.all_decided);
        assert_eq!(report.decided_values(), vec![v]);
    }
}

#[test]
fn wpaxos_agrees_on_threads_multihop() {
    for (seed, topo) in [
        (0u64, Topology::line(6)),
        (1, Topology::grid(3, 3)),
        (2, Topology::star(8)),
        (3, Topology::random_connected(9, 0.25, 4)),
    ] {
        let n = topo.len();
        let rt = MacRuntime::new(topo, cfg(seed));
        let report = rt.run(|s| wpaxos_node((s.index() % 2) as Value, n));
        assert!(report.all_decided, "seed {seed}: {:?}", report.decisions);
        assert_eq!(
            report.decided_values().len(),
            1,
            "seed {seed}: disagreement {:?}",
            report.decisions
        );
    }
}

#[test]
fn ben_or_agrees_on_threads() {
    let n = 5;
    let rt = MacRuntime::new(Topology::clique(n), cfg(42));
    let report = rt.run(|s| BenOr::new((s.index() % 2) as Value, n));
    assert!(report.all_decided, "{:?}", report.decisions);
    assert_eq!(report.decided_values().len(), 1);
}

#[test]
fn simulator_and_runtime_agree_on_validity() {
    // Same algorithm, same uniform input, both substrates: both must
    // decide exactly that input.
    let n = 6;
    let mut sim = SimBuilder::new(Topology::clique(n), |_| TwoPhase::new(1))
        .scheduler(RandomScheduler::new(5, 9))
        .build();
    let sim_report = sim.run();
    assert_eq!(sim_report.decided_values(), vec![1]);

    let rt = MacRuntime::new(Topology::clique(n), cfg(9));
    let rt_report = rt.run(|_| TwoPhase::new(1));
    assert_eq!(rt_report.decided_values(), vec![1]);
}

#[test]
fn both_backends_run_the_same_process_through_the_mac_layer_trait() {
    // The unification claim, end to end: one Process type, one init
    // closure, two backends behind `&mut dyn MacLayer`, outcomes
    // diffed by the checker's conformance cross-check.
    use amacl::checker::{cross_check, CrossCheckConfig};

    let n = 6;
    let mut sim = random_sim(Topology::clique(n), 5, 9);
    let mut rt = MacRuntime::new(Topology::clique(n), cfg(9));
    let backends: [&mut dyn MacLayer<TwoPhase>; 2] = [&mut sim, &mut rt];
    let mut reports = Vec::new();
    for backend in backends {
        let report = backend.execute(&mut |_s| TwoPhase::new(1));
        assert!(
            report.all_decided,
            "{}: {:?}",
            report.backend, report.decisions
        );
        reports.push(report);
    }
    assert_eq!(reports[0].backend, "sim");
    assert_eq!(reports[1].backend, "threads");

    // Uniform inputs: the decision is input-determined, so demand
    // bit-identical per-slot decisions across the backends.
    let outcome = cross_check(
        &mut sim,
        &mut rt,
        &mut |_s| TwoPhase::new(1),
        &[1; 6],
        CrossCheckConfig {
            expect_identical_decisions: true,
            check_validity: true,
        },
    );
    outcome.assert_ok();
    assert_eq!(outcome.divergence, None);
}

#[test]
fn timed_crash_agrees_slot_for_slot_across_backends() {
    // A timed crash (`CrashSpec::AtTime`) routed through BOTH
    // backends: the engine takes it on its virtual clock, the
    // threaded ether on a wall-clock deadline. With uniform inputs
    // the instance is input-determined, so the decision vectors must
    // agree slot for slot: the crashed node (killed before it can be
    // acked on either substrate) decides nowhere, every survivor
    // decides the uniform input everywhere.
    use amacl::checker::{cross_check, CrossCheckConfig};
    use amacl::model::sim::conformance::compare_reports;
    use amacl::runtime::TimedCrash;

    let n = 5;
    let crash = CrashSpec::AtTime {
        slot: Slot(0),
        time: Time(1),
    };
    let mut sim = random_sim(Topology::clique(n), 4, 6).config(
        EngineConfig::new()
            .seed(6)
            .crash_plan(CrashPlan::new(vec![crash])),
    );
    let mut config = cfg(6);
    // Tick length zero: the ether fires the deadline before admitting
    // any broadcast, the wall-clock analogue of dying at t=1 when
    // every ack needs >= 2 more ticks.
    config.timed_crashes = vec![TimedCrash {
        slot: 0,
        at: Duration::ZERO,
    }];
    let mut rt = MacRuntime::new(Topology::clique(n), config);

    let outcome = cross_check(
        &mut sim,
        &mut rt,
        &mut |_s| TwoPhase::new(1),
        &[1; 5],
        CrossCheckConfig {
            expect_identical_decisions: true,
            check_validity: true,
        },
    );
    outcome.assert_ok();
    assert_eq!(
        compare_reports(&outcome.left, &outcome.right),
        None,
        "decision vectors diverged"
    );
    assert_eq!(outcome.left.decisions[0], None, "crashed node decided");
    for slot in 1..n {
        assert_eq!(outcome.left.decisions[slot], Some(1));
        assert_eq!(outcome.right.decisions[slot], Some(1));
    }
}

#[test]
fn wpaxos_cross_check_multihop_through_the_trait() {
    use amacl::checker::{cross_check, CrossCheckConfig};
    use amacl::model::prelude::Value;

    for (seed, topo) in [(0u64, Topology::line(5)), (1, Topology::grid(3, 2))] {
        let n = topo.len();
        let inputs: Vec<Value> = (0..n as u64).map(|i| i % 2).collect();
        let iv = inputs.clone();
        let mut sim = random_sim(topo.clone(), 4, seed);
        let mut rt = MacRuntime::new(topo, cfg(seed));
        let outcome = cross_check(
            &mut sim,
            &mut rt,
            &mut |s| wpaxos_node(iv[s.index()], n),
            &inputs,
            CrossCheckConfig {
                expect_identical_decisions: false,
                check_validity: true,
            },
        );
        outcome.assert_ok();
        assert!(outcome.left.agreement_value().is_some(), "seed {seed}");
        assert!(outcome.right.agreement_value().is_some(), "seed {seed}");
    }
}
