//! Regenerates every experiment series from the reproduction.
//!
//! Usage: `cargo run -p amacl-bench --release --bin tables [-- e1 e2 ...]`
//! With no arguments, all experiments run in order. Output is the
//! source of the measured numbers recorded in `EXPERIMENTS.md`.
//!
//! `tables -- --smoke` is a seconds-long sanity pass (tiny e1/e2
//! slices plus a short engine throughput run) for CI. Host-speed
//! measurement lives in the repository benchmark (`BENCHMARK.json`,
//! `benchmark/`), not here.

use std::time::Instant;

use amacl_bench::experiments::*;
use amacl_core::harness::{alternating_inputs, run_wpaxos};
use amacl_model::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The mode dispatches on the FIRST argument only, so a stray
    // `--smoke` after experiment names cannot silently replace them.
    if args.first().map(String::as_str) == Some("--smoke") {
        run_smoke();
        return;
    }
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    if want("e1") {
        print_e1();
    }
    if want("e2") {
        print_e2();
    }
    if want("e3") {
        print_e3();
    }
    if want("e4") {
        print_e4();
    }
    if want("e5") {
        print_e5();
    }
    if want("e6") {
        print_e6();
    }
    if want("e7") {
        print_e7();
    }
    if want("e8") {
        print_e8();
    }
    if want("e9") {
        print_e9();
    }
    if want("e10") {
        print_e10();
    }
    if want("e11") {
        print_e11();
    }
    if want("e12") {
        print_e12();
    }
    if want("e13") {
        print_e13();
    }
    if want("e14") {
        print_e14();
    }
    if want("e15") {
        print_e15();
    }
}

fn header(id: &str, claim: &str) {
    println!("\n=== {id}: {claim} ===");
}

/// One engine run of the smoke pass's reference workload; returns the
/// event count the engine processed.
fn reference_workload(seed: u64) -> u64 {
    let topo = Topology::random_connected(32, 0.15, seed);
    let n = topo.len();
    let run = run_wpaxos(topo, &alternating_inputs(n), RandomScheduler::new(4, seed));
    run.check.assert_ok();
    run.report.metrics.events
}

/// Seconds-long sanity pass for CI: tiny slices of e1/e2 plus a short
/// engine-throughput measurement, all asserting their consensus
/// checks.
fn run_smoke() {
    println!("=== smoke: e1 slice ===");
    for row in e1::series(&[2, 8], &[1, 4]) {
        println!("n={} F_ack={} ticks={}", row.n, row.f_ack, row.ticks);
    }
    println!("=== smoke: e2 slice ===");
    for row in e2::series(1).into_iter().take(2) {
        println!("{} n={} D={} ticks={}", row.name, row.n, row.d, row.ticks);
    }
    println!("=== smoke: engine throughput (4 seeds) ===");
    let t0 = Instant::now();
    let events: u64 = (0..4).map(reference_workload).sum();
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "events={events} wall={wall:.3}s events/sec={:.0}",
        events as f64 / wall
    );
    println!("smoke OK");
}

fn print_e1() {
    header(
        "E1",
        "two-phase single-hop consensus is O(F_ack), independent of n (Thm 4.1)",
    );
    println!(
        "{:>6} {:>7} {:>8} {:>10}",
        "n", "F_ack", "ticks", "ticks/F_ack"
    );
    for row in e1::series(&[2, 4, 8, 16, 32, 64, 128], &[1, 4, 16]) {
        println!(
            "{:>6} {:>7} {:>8} {:>10.2}",
            row.n, row.f_ack, row.ticks, row.ratio
        );
    }
    println!("shape: ratio constant (=2 under the max-delay adversary), flat in n");
}

fn print_e2() {
    header("E2", "wPAXOS multihop consensus is O(D * F_ack) (Thm 4.6)");
    for f_ack in [1u64, 4] {
        println!(
            "{:>18} {:>5} {:>4} {:>6} {:>8} {:>14}",
            "topology", "n", "D", "F_ack", "ticks", "ticks/(D*F_ack)"
        );
        for row in e2::series(f_ack) {
            println!(
                "{:>18} {:>5} {:>4} {:>6} {:>8} {:>14.1}",
                row.name, row.n, row.d, row.f_ack, row.ticks, row.ratio
            );
        }
        println!();
    }
    println!("shape: ticks grow linearly in D at fixed F_ack; ratio bounded by a constant");
}

fn print_e3() {
    header(
        "E3",
        "response aggregation: O(D*F_ack) vs Theta(n*F_ack) flooding bottleneck (Sec 4.2)",
    );
    println!(
        "{:>5} {:>13} {:>10} {:>13} {:>12} {:>10} {:>13}",
        "n",
        "wPAXOS ticks",
        "hub bcasts",
        "scoped ticks",
        "flood ticks",
        "hub bcasts",
        "gather ticks"
    );
    for row in e3::series(&[8, 16, 32, 48], 4) {
        println!(
            "{:>5} {:>13} {:>10} {:>13} {:>12} {:>10} {:>13}",
            row.n,
            row.wpaxos_ticks,
            row.wpaxos_hub,
            row.scoped_ticks,
            row.flood_ticks,
            row.flood_hub,
            row.gather_ticks
        );
    }
    println!("shape: star has D=2; flooding's hub broadcasts and time grow ~linearly in n");
    println!("(the Omega(n) id-pair bottleneck). Paper-literal wPAXOS keeps a smaller");
    println!("n-term from change-service churn; the leader-scoped trigger (E8 finding)");
    println!("removes it, giving the claimed O(D*F_ack) flat-in-n behavior");
}

fn print_e4() {
    header("E4", "no decision before floor(D/2)*F_ack (Thm 3.10)");
    println!(
        "{:>4} {:>6} {:>7} {:>16} {:>16}",
        "D", "F_ack", "bound", "wPAXOS earliest", "gather earliest"
    );
    for row in e4::series(3) {
        println!(
            "{:>4} {:>6} {:>7} {:>16} {:>16}",
            row.d, row.f_ack, row.bound, row.wpaxos_earliest, row.gather_earliest
        );
    }
    let (agreement, earliest) = e4::violation(12, 3, 2);
    println!(
        "eager decider (2 rounds, D=12): decided at {earliest} < bound 18; agreement = {agreement}"
    );
    println!("shape: correct algorithms always clear the bound; deciding early gets partitioned");
}

fn print_e5() {
    header("E5", "anonymous consensus is impossible (Thm 3.3, Fig 1)");
    println!(
        "{:>4} {:>6} {:>4} {:>8} {:>12} {:>12} {:>12}",
        "D", "n'", "t", "compared", "Lemma 3.6", "B decided", "A agreement"
    );
    for out in e5::series() {
        println!(
            "{:>4} {:>6} {:>4} {:>8} {:>12} {:>6?}/{:>4?} {:>12}",
            out.diameter,
            out.n_prime,
            out.t,
            out.states_compared,
            out.indistinguishable,
            out.alpha_b[0].decided.unwrap(),
            out.alpha_b[1].decided.unwrap(),
            out.alpha_a.agreement
        );
    }
    println!("shape: S_u states identical for t steps; Network A splits 0-vs-1: agreement false");
}

fn print_e6() {
    header(
        "E6",
        "knowledge of n is required in multihop networks (Thm 3.9, Fig 2)",
    );
    println!(
        "{:>4} {:>5} {:>5} {:>9} {:>14} {:>10} {:>10}",
        "D", "n", "t", "compared", "line-identical", "copy1", "copy2"
    );
    for out in e6::series() {
        println!(
            "{:>4} {:>5} {:>5} {:>9} {:>14} {:>10?} {:>10?}",
            out.diameter,
            out.n,
            out.t,
            out.states_compared,
            out.indistinguishable,
            out.copy_decisions[0].unwrap(),
            out.copy_decisions[1].unwrap()
        );
    }
    println!("shape: each K_D copy mirrors a standalone line and decides its own input: split");
}

fn print_e7() {
    header(
        "E7",
        "consensus is impossible with one crash (Thm 3.2 / FLP)",
    );
    let s = e7::run();
    println!(
        "  mixed (0,1) config valency with 1 crash: {:?}",
        s.mixed_valency
    );
    println!("  explorer states visited: {}", s.states_visited);
    println!(
        "  critical configuration (Lemma 3.1 contrapositive) at node: {:?}",
        s.critical_node
    );
    println!(
        "  stuck schedule exists (live node stranded): {}",
        s.stuck_schedule_exists
    );
    println!(
        "  concrete crash demo: termination={} (crash), ok={} (no crash)",
        s.crash_demo.with_crash.termination,
        s.crash_demo.without_crash.ok()
    );
    println!("shape: bivalent + critical + stuck = the impossibility, machine-checked");
}

fn print_e8() {
    header("E8", "ablations: what each wPAXOS design choice buys");
    for (name, topo) in [
        ("star(32)", Topology::star(32)),
        ("grid(6x4)", Topology::grid(6, 4)),
    ] {
        println!("  topology: {name}");
        println!(
            "  {:<20} {:>8} {:>12} {:>14} {:>10}",
            "config", "ticks", "broadcasts", "max node bcast", "proposals"
        );
        for row in e8::series(&topo, 2) {
            println!(
                "  {:<20} {:>8} {:>12} {:>14} {:>10}",
                row.config, row.ticks, row.broadcasts, row.max_node_broadcasts, row.proposals
            );
        }
        println!();
    }
    println!("shape: flooded responses blow up the bottleneck node's broadcasts;");
    println!("aggregation keeps per-node work flat");
}

fn print_e9() {
    header(
        "E9",
        "same code, real threads: simulator vs threaded MAC runtime",
    );
    println!(
        "  {:<22} {:>12} {:>12} {:>14} {:>12}",
        "scenario", "sim agreed", "rt agreed", "rt latency", "rt bcasts"
    );
    for row in e9::series(11) {
        println!(
            "  {:<22} {:>12} {:>12} {:>14?} {:>12}",
            row.name, row.sim_agreed, row.rt_agreed, row.rt_latency, row.rt_broadcasts
        );
    }
    println!("shape: both substrates satisfy consensus with the identical Process impls");
}

fn print_e10() {
    header(
        "E10",
        "extensions: randomization beats the crash bound; unreliable links stay safe",
    );
    let s = e10::run(25);
    println!(
        "  Ben-Or, 1 mid-broadcast crash, {} seeds: all consensus-clean = {}",
        s.ben_or_crash_runs.0, s.ben_or_crash_runs.1
    );
    println!("  worst rounds to global decision: {}", s.ben_or_max_rounds);
    println!(
        "  wPAXOS over a ring + unreliable chords (p=0.5): all runs safe = {}",
        s.unreliable_safe
    );
    println!("shape: randomized termination whp under the crash that kills deterministic algos");
}

fn print_e11() {
    header(
        "E11",
        "the F_prog refinement: deliveries fast, acks slow (Sec 2 future work)",
    );
    let d = 16;
    let f_ack = 32;
    println!(
        "{:>8} {:>7} {:>4} {:>12} {:>18}",
        "F_prog", "F_ack", "D", "wave ticks", "two-phase ticks"
    );
    for row in e11::series(d, f_ack, &[1, 2, 4, 8, 16, 32], 5) {
        println!(
            "{:>8} {:>7} {:>4} {:>12} {:>18}",
            row.f_prog, row.f_ack, row.d, row.wave_ticks, row.two_phase_ticks
        );
    }
    println!("shape: the relay wave scales with D*F_prog while consensus stays pinned");
    println!("near 2*F_ack — the gap that makes the F_prog upper-bound refinement a");
    println!("real open problem rather than bookkeeping");
}

fn print_e12() {
    header(
        "E12",
        "majority progress: Paxos vs gather-all under one laggard (Sec 1)",
    );
    println!(
        "{:>5} {:>16} {:>13} {:>18}",
        "n", "laggard release", "wPAXOS ticks", "tree-gather ticks"
    );
    for row in e12::series(9, &[50, 200, 800]) {
        println!(
            "{:>5} {:>16} {:>13} {:>18}",
            row.n, row.laggard_release, row.wpaxos_ticks, row.gather_ticks
        );
    }
    println!("shape: wPAXOS (majority quorum) decides without the laggard, independent");
    println!("of the release time; tree-gather (needs all n inputs) stalls until release");
}

fn print_e13() {
    header(
        "E13",
        "multi-valued consensus: bitwise composition vs direct Paxos (Sec 2 open question)",
    );
    println!(
        "{:>6} {:>4} {:>6} {:>14} {:>18} {:>13}",
        "bits", "n", "F_ack", "bitwise ticks", "ticks/(B*F_ack)", "wPAXOS ticks"
    );
    for row in e13::series(8, &[1, 2, 4, 8, 16, 32, 64], 4) {
        println!(
            "{:>6} {:>4} {:>6} {:>14} {:>18.2} {:>13}",
            row.bits, row.n, row.f_ack, row.bitwise_ticks, row.per_bit_ratio, row.wpaxos_ticks
        );
    }
    println!("shape: bitwise grows linearly in B (per-bit ratio constant at 2) and needs");
    println!("no knowledge of n; wPAXOS stays flat in B but requires n — the tradeoff");
    println!("behind the paper's 'non-trivial and open' remark");
}

fn print_e14() {
    header(
        "E14",
        "failure detector + Paxos: deterministic consensus despite crashes (Sec 5)",
    );
    println!(
        "{:>4} {:>8} {:>7} {:>8} {:>12} {:>14} {:>18}",
        "n", "crashes", "seeds", "all ok", "worst ticks", "worst ballots", "false suspicions"
    );
    for row in e14::series(7, &[0, 1, 2, 3], 20) {
        println!(
            "{:>4} {:>8} {:>7} {:>8} {:>12} {:>14} {:>18}",
            row.n,
            row.crashes,
            row.seeds,
            row.all_ok,
            row.worst_ticks,
            row.worst_ballots,
            row.worst_false_suspicions
        );
    }
    println!("shape: with the ◇P detector (implementable here thanks to F_ack, unlike in");
    println!("plain asynchrony), every minority-crash run satisfies consensus — the");
    println!("deterministic escape from Theorem 3.2 the paper points to");
}

fn print_e15() {
    header(
        "E15",
        "exhaustive model checking: every schedule, every property (small instances)",
    );
    println!(
        "{:>40} {:>6} {:>9} {:>10} {:>6} {:>9} {:>22}",
        "instance", "crash", "states", "terminals", "depth", "verified", "violation(len)"
    );
    for row in e15::series() {
        let viol = match (row.violation, row.schedule_len) {
            (Some(k), Some(l)) => format!("{k:?}({l})"),
            _ => "-".to_string(),
        };
        println!(
            "{:>40} {:>6} {:>9} {:>10} {:>6} {:>9} {:>22}",
            row.name, row.crash_budget, row.states, row.terminals, row.depth, row.verified, viol
        );
    }
    println!("shape: crash-free instances verify over the full scheduler space (a");
    println!("machine-checked Theorem 4.1 for small n); one crash or the literal-R2");
    println!("pseudocode yields a concrete violating schedule (Theorem 3.2 / the");
    println!("Algorithm 1 discrepancy)");
}
