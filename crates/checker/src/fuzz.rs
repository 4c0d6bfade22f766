//! Schedule fuzzing: random walks through the *full* scheduler
//! nondeterminism space.
//!
//! Exhaustive exploration ([`MacExplorer::run`]) covers every schedule
//! but only scales to a few nodes. Delay-based random schedulers
//! (`RandomScheduler`) scale to hundreds of nodes but sample a
//! *restricted* adversary: delays are drawn per broadcast, so the
//! relative order of deliveries is correlated with time. The fuzzer
//! sits between the two — it walks the same branching
//! [`MacMachine`](amacl_model::machine::MacMachine) the exhaustive
//! checker uses, picking one enabled move uniformly at random per
//! step, which can starve a node arbitrarily long, interleave
//! deliveries in any order, and place crashes at any enabled point.
//! Every state a walk passes through is judged exactly as the
//! exhaustive walk judges it: safety always, termination when
//! quiescent.
//!
//! A clean fuzz run is evidence over the *unrestricted* adversary at
//! sizes the exhaustive checker cannot reach; a violation comes with
//! the exact schedule, replayable like any explorer counterexample.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use amacl_model::prelude::*;

use crate::explore::{MacExplorer, MacViolation, ViolationKind};

/// Limits for one fuzzing campaign.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Number of independent random walks.
    pub walks: usize,
    /// Per-walk move cap (walks hitting it count as truncated, not
    /// failed — liveness is only judged at quiescent states).
    pub max_moves: usize,
    /// RNG seed; walks use `seed, seed+1, ...` so campaigns are
    /// reproducible and individually replayable.
    pub seed: u64,
    /// Stop the campaign after this many violations.
    pub max_violations: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            walks: 100,
            max_moves: 100_000,
            seed: 0,
            max_violations: 1,
        }
    }
}

/// Aggregate result of a fuzzing campaign.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// Walks executed.
    pub walks: usize,
    /// Walks that ended with every live node decided (the simulator's
    /// stop rule — algorithms whose services keep broadcasting never
    /// reach a quiescent terminal state).
    pub decided_walks: usize,
    /// Walks that got stuck: a quiescent state with a live node
    /// undecided (each is also a termination violation).
    pub terminal_walks: usize,
    /// Walks cut off by the move cap.
    pub truncated_walks: usize,
    /// Total scheduler moves across all walks.
    pub total_moves: u64,
    /// Longest walk, in moves.
    pub max_walk_moves: usize,
    /// Violations found (with schedules).
    pub violations: Vec<MacViolation>,
}

impl FuzzOutcome {
    /// `true` when no walk violated a property (terminal or not).
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the first violation if the campaign was not clean.
    ///
    /// # Panics
    ///
    /// Panics when a violation was recorded.
    pub fn assert_clean(&self) {
        if let Some(v) = self.violations.first() {
            panic!("fuzz violation:\n{}", v.render());
        }
    }
}

impl<P: Process + Clone + std::fmt::Debug> MacExplorer<P> {
    /// Runs a fuzzing campaign: `cfg.walks` independent uniformly
    /// random walks from the initial state, each checking agreement
    /// and validity after every move and termination at quiescent
    /// states.
    pub fn fuzz(&self, cfg: FuzzConfig) -> FuzzOutcome {
        let mut out = FuzzOutcome {
            walks: 0,
            decided_walks: 0,
            terminal_walks: 0,
            truncated_walks: 0,
            total_moves: 0,
            max_walk_moves: 0,
            violations: Vec::new(),
        };
        for w in 0..cfg.walks {
            let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(w as u64));
            let mut m = self.fork_root();
            let mut path = Vec::new();
            out.walks += 1;
            loop {
                if let Some(v) = self.check_state(&m, &path, m.quiescent()) {
                    if v.kind == ViolationKind::Termination {
                        out.terminal_walks += 1;
                    }
                    out.violations.push(v);
                    break;
                }
                if m.all_alive_decided() {
                    // The simulator's stop rule: consensus is complete;
                    // service chatter past this point proves nothing.
                    out.decided_walks += 1;
                    break;
                }
                if path.len() >= cfg.max_moves {
                    out.truncated_walks += 1;
                    break;
                }
                // Not quiescent (that would have been judged above), so
                // a delivery or an ack is enabled.
                let choices = m.choices();
                let c = choices[rng.gen_range(0..choices.len())];
                m.apply(c);
                path.push(c);
                out.total_moves += 1;
            }
            out.max_walk_moves = out.max_walk_moves.max(path.len());
            if out.violations.len() >= cfg.max_violations {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amacl_model::machine::LedgerMutation;

    /// Broadcast once, decide own value at the ack (breaks agreement
    /// for mixed inputs).
    #[derive(Clone, Debug)]
    struct Selfish(Value);

    #[derive(Clone, Copy, Debug)]
    struct Ping;
    impl Payload for Ping {
        fn id_count(&self) -> usize {
            0
        }
    }

    impl Process for Selfish {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.broadcast(Ping);
        }
        fn on_receive(&mut self, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}
        fn on_ack(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.decide(self.0);
        }
    }

    fn selfish(topo: Topology, inputs: &[Value]) -> MacExplorer<Selfish> {
        MacExplorer::new(
            topo,
            inputs.iter().map(|&v| Selfish(v)).collect(),
            inputs.to_vec(),
            0,
            LedgerMutation::None,
        )
    }

    #[test]
    fn clean_campaign_on_uniform_inputs() {
        let out = selfish(Topology::ring(5), &[1; 5]).fuzz(FuzzConfig {
            walks: 50,
            seed: 3,
            ..FuzzConfig::default()
        });
        out.assert_clean();
        assert_eq!(out.walks, 50);
        assert_eq!(out.decided_walks, 50);
        assert_eq!(out.terminal_walks, 0);
        assert!(out.total_moves > 0);
        assert!(
            out.max_walk_moves >= 15,
            "5 broadcasts, 2 deliveries + ack each"
        );
    }

    #[test]
    fn finds_agreement_violation_with_replayable_schedule() {
        let explorer = selfish(Topology::clique(2), &[0, 1]);
        let out = explorer.fuzz(FuzzConfig {
            walks: 20,
            seed: 0,
            ..FuzzConfig::default()
        });
        assert!(!out.clean());
        let v = &out.violations[0];
        assert_eq!(v.kind, ViolationKind::Agreement);
        let m = explorer.replay(&v.schedule);
        assert_eq!(m.decided_values().len(), 2);
    }

    #[test]
    fn campaigns_are_reproducible() {
        let run = || {
            selfish(Topology::line(4), &[0; 4]).fuzz(FuzzConfig {
                walks: 10,
                seed: 42,
                ..FuzzConfig::default()
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a.total_moves, b.total_moves);
        assert_eq!(a.max_walk_moves, b.max_walk_moves);
    }

    #[test]
    fn move_cap_truncates_rather_than_fails() {
        // A cap below the shortest complete walk.
        let out = selfish(Topology::clique(3), &[1; 3]).fuzz(FuzzConfig {
            walks: 5,
            max_moves: 2,
            seed: 1,
            ..FuzzConfig::default()
        });
        assert_eq!(out.truncated_walks, 5);
        assert!(out.clean(), "truncation is not a violation");
    }
}
