//! High-level run helpers shared by examples, integration tests, and
//! the benchmark harness.

use amacl_model::prelude::*;

use crate::baselines::flood_gather::FloodGather;
use crate::two_phase::TwoPhase;
use crate::verify::{check_consensus, ConsensusCheck};
use crate::wpaxos::{WpaxosConfig, WpaxosNode};

/// A finished consensus execution: the raw report plus the property
/// verdict.
#[derive(Clone, Debug)]
pub struct ConsensusRun {
    /// Input values, one per slot.
    pub inputs: Vec<Value>,
    /// The simulator's report.
    pub report: RunReport,
    /// Agreement/validity/termination verdict.
    pub check: ConsensusCheck,
}

impl ConsensusRun {
    /// Latest decision time, in ticks (panics if nobody decided).
    pub fn decision_ticks(&self) -> u64 {
        self.report
            .max_decision_time()
            .expect("at least one decision")
            .ticks()
    }

    /// Decision time normalized by `F_ack` (the unit the paper's bounds
    /// are stated in).
    pub fn decision_over_f_ack(&self, f_ack: u64) -> f64 {
        self.decision_ticks() as f64 / f_ack as f64
    }
}

/// Runs Two-Phase Consensus on a clique of `inputs.len()` nodes.
pub fn run_two_phase(inputs: &[Value], scheduler: impl Scheduler + 'static) -> ConsensusRun {
    let iv = inputs.to_vec();
    let mut sim = SimBuilder::new(Topology::clique(inputs.len()), |s| {
        TwoPhase::new(iv[s.index()])
    })
    .scheduler(scheduler)
    .message_id_budget(1)
    .build();
    let report = sim.run();
    let check = check_consensus(inputs, &report, &[]);
    ConsensusRun {
        inputs: inputs.to_vec(),
        report,
        check,
    }
}

/// Runs wPAXOS with the paper's default configuration.
pub fn run_wpaxos(
    topo: Topology,
    inputs: &[Value],
    scheduler: impl Scheduler + 'static,
) -> ConsensusRun {
    run_wpaxos_with(topo, inputs, WpaxosConfig::new(inputs.len()), scheduler)
}

/// Runs wPAXOS on an explicit engine queue core (the allocation
/// tripwire measures both; everything else runs on the default core
/// via [`run_wpaxos`]).
pub fn run_wpaxos_on(
    topo: Topology,
    inputs: &[Value],
    scheduler: impl Scheduler + 'static,
    core: QueueCoreKind,
) -> ConsensusRun {
    let cfg = WpaxosConfig::new(inputs.len());
    run_wpaxos_inner(topo, inputs, cfg, scheduler, core)
}

/// Runs wPAXOS with an explicit configuration (ablations, the flooding
/// baseline).
pub fn run_wpaxos_with(
    topo: Topology,
    inputs: &[Value],
    cfg: WpaxosConfig,
    scheduler: impl Scheduler + 'static,
) -> ConsensusRun {
    run_wpaxos_inner(topo, inputs, cfg, scheduler, QueueCoreKind::default())
}

/// The one wPAXOS run recipe every public wrapper shares.
fn run_wpaxos_inner(
    topo: Topology,
    inputs: &[Value],
    cfg: WpaxosConfig,
    scheduler: impl Scheduler + 'static,
    core: QueueCoreKind,
) -> ConsensusRun {
    assert_eq!(topo.len(), inputs.len(), "one input per node");
    let iv = inputs.to_vec();
    let report = SimBuilder::new(topo, |s| WpaxosNode::new(iv[s.index()], cfg))
        .scheduler(scheduler)
        .queue_core(core)
        .message_id_budget(10)
        .build()
        .run();
    let check = check_consensus(inputs, &report, &[]);
    ConsensusRun {
        inputs: inputs.to_vec(),
        report,
        check,
    }
}

/// Runs the flood-and-gather baseline.
pub fn run_flood_gather(
    topo: Topology,
    inputs: &[Value],
    scheduler: impl Scheduler + 'static,
) -> ConsensusRun {
    assert_eq!(topo.len(), inputs.len(), "one input per node");
    let n = inputs.len();
    let iv = inputs.to_vec();
    let mut sim = SimBuilder::new(topo, |s| FloodGather::new(iv[s.index()], n))
        .scheduler(scheduler)
        .message_id_budget(1)
        .build();
    let report = sim.run();
    let check = check_consensus(inputs, &report, &[]);
    ConsensusRun {
        inputs: inputs.to_vec(),
        report,
        check,
    }
}

/// Alternating binary inputs `0, 1, 0, 1, ...` — the adversarial input
/// pattern used across experiments.
pub fn alternating_inputs(n: usize) -> Vec<Value> {
    (0..n).map(|i| (i % 2) as Value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_phase_helper_runs_clean() {
        let run = run_two_phase(&alternating_inputs(5), SynchronousScheduler::new(2));
        run.check.assert_ok();
        assert_eq!(run.decision_ticks(), 4);
        assert!((run.decision_over_f_ack(2) - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn wpaxos_helper_runs_clean() {
        let run = run_wpaxos(
            Topology::grid(3, 2),
            &alternating_inputs(6),
            SynchronousScheduler::new(1),
        );
        run.check.assert_ok();
    }

    #[test]
    fn flood_gather_helper_runs_clean() {
        let run = run_flood_gather(
            Topology::ring(6),
            &alternating_inputs(6),
            SynchronousScheduler::new(1),
        );
        run.check.assert_ok();
        assert_eq!(run.check.decided, Some(0));
    }

    #[test]
    fn alternating_inputs_shape() {
        assert_eq!(alternating_inputs(4), vec![0, 1, 0, 1]);
        assert!(alternating_inputs(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "one input per node")]
    fn input_length_mismatch_rejected() {
        run_wpaxos(Topology::line(3), &[0, 1], SynchronousScheduler::new(1));
    }
}
