//! Simulator ↔ runtime conformance cross-checking through the shared
//! [`MacLayer`] trait.
//!
//! The two execution backends — the discrete-event engine
//! ([`SimBackend`]) and the threaded runtime ([`MacRuntime`]) —
//! implement one trait, so
//! one algorithm can be run on both and the outcomes diffed. This
//! module does exactly that and reports the result the useful way:
//! not "the backends mismatched" but *which slot diverged first and
//! what each backend saw there* (via
//! [`compare_reports`]).
//!
//! What must match depends on the instance:
//!
//! * **Always**: each backend individually satisfies agreement (at
//!   most one decided value) and completes (every expected node
//!   decides).
//! * **When the algorithm's decision is input-determined** (uniform
//!   inputs, or min/max-style deterministic rules): the two backends'
//!   per-slot decisions must be identical — request this with
//!   [`CrossCheckConfig::expect_identical_decisions`].
//!
//! For mixed-input executions of adversarially-scheduled algorithms,
//! identical decisions are *not* required by the model (both 0 and 1
//! can be correct outcomes of two-phase consensus on mixed inputs);
//! demanding them would reject correct backends.

use amacl_model::ids::Slot;
use amacl_model::mac::{MacLayer, MacReport, SimBackend};
use amacl_model::proc::{Process, Value};
use amacl_model::sim::conformance::{compare_reports, Divergence};
use amacl_runtime::MacRuntime;

use crate::scenario::{AlgoVisitor, ScenarioAlgo};

/// What the cross-check should require beyond per-backend agreement
/// and completion.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrossCheckConfig {
    /// Require the two backends' per-slot decisions to be identical
    /// (only sound when the algorithm's outcome is input-determined).
    pub expect_identical_decisions: bool,
    /// When set, every decided value must appear in this input vector
    /// (validity).
    pub check_validity: bool,
}

/// Outcome of one cross-check: both reports, the first divergence (if
/// any), and the per-backend property verdicts.
#[derive(Clone, Debug)]
pub struct CrossCheckOutcome {
    /// The first backend's report.
    pub left: MacReport,
    /// The second backend's report.
    pub right: MacReport,
    /// First diverging slot with both backends' views (`None` when
    /// the reports coincide).
    pub divergence: Option<Divergence>,
    /// Human-readable failures, empty when the check passed.
    pub failures: Vec<String>,
}

impl CrossCheckOutcome {
    /// `true` when every required property held.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Panics with the failure list, for use in tests.
    pub fn assert_ok(&self) {
        assert!(
            self.ok(),
            "cross-check failed ({} issues): {}",
            self.failures.len(),
            self.failures.join("; ")
        );
    }
}

/// Runs the same processes (built per-backend by `init`) on two
/// [`MacLayer`] backends and checks the outcomes against each other.
///
/// `inputs` is consulted only when
/// [`CrossCheckConfig::check_validity`] is set.
pub fn cross_check<P: Process>(
    left: &mut dyn MacLayer<P>,
    right: &mut dyn MacLayer<P>,
    init: &mut dyn FnMut(Slot) -> P,
    inputs: &[Value],
    cfg: CrossCheckConfig,
) -> CrossCheckOutcome {
    let left_report = left.execute(init);
    let right_report = right.execute(init);
    let divergence = compare_reports(&left_report, &right_report);

    let mut failures = Vec::new();
    for report in [&left_report, &right_report] {
        if !report.all_decided {
            failures.push(format!(
                "{}: termination failed, decisions {:?}",
                report.backend, report.decisions
            ));
        }
        if report.decided_values().len() > 1 {
            failures.push(format!(
                "{}: agreement violated, decided {:?}",
                report.backend,
                report.decided_values()
            ));
        }
        if cfg.check_validity {
            for v in report.decided_values() {
                if !inputs.contains(&v) {
                    failures.push(format!(
                        "{}: validity violated, decided {v} not among inputs {inputs:?}",
                        report.backend
                    ));
                }
            }
        }
    }
    if cfg.expect_identical_decisions {
        if let Some(d) = &divergence {
            failures.push(d.to_string());
        }
    }

    CrossCheckOutcome {
        left: left_report,
        right: right_report,
        divergence,
        failures,
    }
}

/// Cross-checks `algo` over `inputs` on the engine and the threaded
/// runtime: the one place `amacl crosscheck` and the scenario sweep
/// hand the algorithm table a pair of backends. Check the instance
/// first ([`ScenarioAlgo::check`],
/// [`ScenarioAlgo::require_crosscheckable`]).
pub fn cross_check_algo(
    algo: ScenarioAlgo,
    sim: &mut SimBackend,
    rt: &mut MacRuntime,
    inputs: &[Value],
    cfg: CrossCheckConfig,
) -> CrossCheckOutcome {
    struct OnBoth<'a> {
        sim: &'a mut SimBackend,
        rt: &'a mut MacRuntime,
        inputs: &'a [Value],
        cfg: CrossCheckConfig,
    }
    impl AlgoVisitor for OnBoth<'_> {
        type Out = CrossCheckOutcome;
        fn visit<P: Process + Clone + std::fmt::Debug>(
            self,
            _id_budget: usize,
            make: impl Fn(Slot) -> P,
        ) -> CrossCheckOutcome {
            cross_check(self.sim, self.rt, &mut |s| make(s), self.inputs, self.cfg)
        }
    }
    algo.visit(
        inputs,
        OnBoth {
            sim,
            rt,
            inputs,
            cfg,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSched;
    use amacl_core::two_phase::TwoPhase;
    use amacl_model::sim::config::EngineConfig;
    use amacl_model::topo::Topology;
    use amacl_runtime::RuntimeConfig;
    use std::time::Duration;

    /// The engine on `clique(n)` under the seeded random adversary.
    fn random_sim(n: usize, f_ack: u64, seed: u64) -> SimBackend {
        SimBackend::with_factory(
            Topology::clique(n),
            "random",
            ScenarioSched::Random { f_ack }.factory(seed),
        )
    }

    fn runtime(n: usize, seed: u64) -> MacRuntime {
        MacRuntime::new(
            Topology::clique(n),
            RuntimeConfig {
                max_jitter: Duration::from_micros(200),
                seed,
                timeout: Duration::from_secs(10),
                ..RuntimeConfig::default()
            },
        )
    }

    #[test]
    fn uniform_two_phase_matches_exactly_across_backends() {
        let n = 5;
        let mut sim = random_sim(n, 4, 3);
        let mut rt = runtime(n, 3);
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
        assert_eq!(outcome.divergence, None);
        assert_eq!(outcome.left.decided_values(), vec![1]);
        assert_eq!(outcome.right.decided_values(), vec![1]);
    }

    #[test]
    fn mixed_two_phase_agrees_within_each_backend() {
        let n = 6;
        let mut sim = random_sim(n, 4, 11);
        let mut rt = runtime(n, 11);
        let inputs: Vec<Value> = (0..n as u64).map(|i| i % 2).collect();
        let iv = inputs.clone();
        let outcome = cross_check(
            &mut sim,
            &mut rt,
            &mut |s| TwoPhase::new(iv[s.index()]),
            &inputs,
            CrossCheckConfig {
                expect_identical_decisions: false,
                check_validity: true,
            },
        );
        outcome.assert_ok();
        assert!(outcome.left.agreement_value().is_some());
        assert!(outcome.right.agreement_value().is_some());
    }

    /// Node 0 floods a seeded random draw; everyone (including node 0)
    /// decides whatever node 0 drew. Agreement always holds within one
    /// backend, but the decided value is a function of the backend's
    /// per-node seed — so two differently-seeded engines diverge.
    struct FloodDraw {
        leader: bool,
    }

    #[derive(Clone, Debug)]
    struct Drawn(Value);
    impl amacl_model::msg::Payload for Drawn {
        fn id_count(&self) -> usize {
            0
        }
    }

    impl Process for FloodDraw {
        type Msg = Drawn;
        fn on_start(&mut self, ctx: &mut amacl_model::proc::Context<'_, Drawn>) {
            if self.leader {
                use rand::Rng;
                let v = ctx.rng().gen_range(0..1_000_000u64);
                ctx.broadcast(Drawn(v));
                ctx.decide(v);
            }
        }
        fn on_receive(&mut self, msg: Drawn, ctx: &mut amacl_model::proc::Context<'_, Drawn>) {
            ctx.decide(msg.0);
        }
        fn on_ack(&mut self, _ctx: &mut amacl_model::proc::Context<'_, Drawn>) {}
    }

    #[test]
    fn divergence_is_reported_with_both_views() {
        let n = 4;
        let mut a = random_sim(n, 4, 0).config(EngineConfig::new().seed(1));
        let mut b = random_sim(n, 4, 0).config(EngineConfig::new().seed(2));
        let outcome = cross_check(
            &mut a,
            &mut b,
            &mut |s| FloodDraw { leader: s.0 == 0 },
            &[],
            CrossCheckConfig {
                expect_identical_decisions: true,
                check_validity: false,
            },
        );
        // Each backend agrees internally...
        assert!(outcome.left.agreement_value().is_some());
        assert!(outcome.right.agreement_value().is_some());
        // ...but the values differ, and the divergence names the slot
        // and both views.
        let d = outcome.divergence.as_ref().expect("seeds 1 and 2 diverge");
        assert!(!outcome.ok());
        assert!(d.left_view.starts_with("decided"), "{d}");
        assert!(d.right_view.starts_with("decided"), "{d}");
        assert!(outcome.failures.iter().any(|f| f.contains("divergence")));
    }
}
