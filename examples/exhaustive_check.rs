//! Exhaustive model checking: covering *every* schedule.
//!
//! The paper's correctness claims quantify over all message schedulers.
//! This example uses `amacl-checker` to enumerate that quantifier for
//! small instances:
//!
//! 1. verifies Two-Phase Consensus over its entire scheduler space on
//!    a 3-clique (a machine-checked Theorem 4.1 for n = 3);
//! 2. lets the explorer *rediscover* the pseudocode discrepancy in the
//!    paper's Algorithm 1 line 23, printing the violating schedule;
//! 3. gives the explored scheduler a single crash and watches it find
//!    the execution Theorem 3.2 promises must exist.
//!
//! Run with: `cargo run --release --example exhaustive_check`

use amacl::algorithms::two_phase::TwoPhase;
use amacl::checker::{MacExploreConfig, MacExplorer, SearchOrder, ViolationKind};
use amacl::model::machine::LedgerMutation;
use amacl::model::prelude::*;

fn explorer(procs: Vec<TwoPhase>, inputs: &[Value], crash_budget: usize) -> MacExplorer<TwoPhase> {
    MacExplorer::new(
        Topology::clique(inputs.len()),
        procs,
        inputs.to_vec(),
        crash_budget,
        LedgerMutation::None,
    )
}

fn main() {
    // Fingerprint-dedup walks: depth first to cover a space, breadth
    // first for the shortest counterexample.
    let walk = MacExploreConfig::naive;

    // 1. Full verification, no crashes.
    let inputs = vec![0, 1, 1];
    let procs: Vec<TwoPhase> = inputs.iter().map(|&v| TwoPhase::new(v)).collect();
    let out = explorer(procs, &inputs, 0).run(&walk(SearchOrder::Dfs));
    println!("Two-Phase on clique(3), inputs {inputs:?}, every schedule:");
    println!(
        "  {} distinct states, {} terminal, deepest schedule {} moves",
        out.states, out.quiescent_states, out.max_depth_reached
    );
    out.assert_verified();
    println!("  verified: agreement, validity, and termination hold on ALL schedules\n");

    // 2. The literal line-23 pseudocode, found guilty automatically.
    let procs = vec![
        TwoPhase::with_literal_r2_check(0),
        TwoPhase::with_literal_r2_check(1),
    ];
    let literal = explorer(procs, &[0, 1], 0);
    let out = literal.run(&walk(SearchOrder::Bfs));
    let v = &out.violations[0];
    assert_eq!(v.kind, ViolationKind::Agreement);
    println!("Literal R_2-only check (the paper's line 23 as written):");
    println!("  violation: {:?} after {} moves", v.kind, v.schedule.len());
    println!("  schedule: {:?}", v.schedule);
    let bad = literal.replay(&v.schedule);
    println!("  replayed decisions: {:?}\n", bad.decisions());

    // 3. One crash is enough to break any deterministic algorithm
    //    (Theorem 3.2); the explorer exhibits the failure.
    let inputs = vec![0, 1, 1];
    let procs: Vec<TwoPhase> = inputs.iter().map(|&v| TwoPhase::new(v)).collect();
    let out = explorer(procs, &inputs, 1).run(&walk(SearchOrder::Bfs));
    let v = &out.violations[0];
    println!("Same algorithm, scheduler allowed one crash:");
    println!("  violation: {:?} after {} moves", v.kind, v.schedule.len());
    println!("  schedule: {:?}", v.schedule);
    println!("  (Theorem 3.2 says some such schedule must exist; here it is.)");
}
