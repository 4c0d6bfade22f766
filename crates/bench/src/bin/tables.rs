//! Regenerates every experiment series from the reproduction.
//!
//! Usage: `cargo run -p amacl-bench --release --bin tables [-- e1 e2 ...]`
//! With no arguments, all experiments run in order. Output is the
//! source of the measured numbers recorded in `EXPERIMENTS.md`.
//!
//! Special modes:
//!
//! * `tables -- --smoke` — a seconds-long sanity pass (tiny e1/e2
//!   slices plus a short engine throughput run) for CI.
//! * `tables -- bench-engine [--out <path>]` — the scaling sweep:
//!   measures engine events/sec on the reference wPAXOS workload for
//!   every `(queue core, n, shards, threads)` configuration in
//!   [`amacl_bench::scaling::SWEEP`] × [`amacl_bench::scaling::CONFIG_SWEEP`]
//!   (n ∈ {32, 128, 512} × heap/calendar × (S, T) ∈ {(1,1), (4,1),
//!   (4,4)}), serially and with the parallel multi-seed driver, and
//!   writes the `amacl-bench-engine/v6` JSON baseline
//!   (`BENCH_engine.json` at the repo root by convention). Each row
//!   also records the coordinator's cross-shard delivery and window
//!   counts, the payload-arena counters (`payload_clones` summed and
//!   `arena_bytes_peak` maxed over the row's seeds) and — for threaded
//!   rows — the barrier-wait share plus the persistent pool's
//!   superstep and worker-wakeup counts (summed over the row's
//!   seeds); the top-level `events_per_sec` repeats the
//!   heap/n=32/serial reference row for log readers.
//! * `tables -- bench-latency [--out <path>]` — the open-loop latency
//!   sweep: runs the steady-state workload once per
//!   [`amacl_bench::latency::DEFAULT_GRID`] configuration (arrival
//!   process × rate × engine shards/threads) and writes the
//!   `amacl-bench-latency/v1` JSON baseline (`BENCH_latency.json` at
//!   the repo root by convention). The p50/p99/p999 figures are in
//!   virtual ticks and seed-determined — the sweep itself asserts they
//!   are identical across engine configurations.
//! * `tables -- bench-gate [--baseline <path>] [--tolerance <x>]
//!   [--out <path>] [--latency-baseline <path>]` — the CI regression
//!   gate: remeasures, writes the fresh JSON, and exits nonzero when
//!   any configuration collapsed below `baseline / tolerance` (default
//!   tolerance 3x, generous enough for shared-runner variance but not
//!   for a real regression). Every row of the `amacl-bench-engine/v6`
//!   baseline is gated individually and pins its deterministic
//!   `payload_clones` count exactly (the superstep/wakeup counters are
//!   informational: they follow the runner's core count); a baseline
//!   in any other schema is refused. When the latency baseline
//!   file exists (default `BENCH_latency.json`), its rows are gated
//!   alongside the engine rows: virtual-tick quantiles must match
//!   exactly, wall-clock throughput within the same tolerance.

use std::time::Instant;

use amacl_bench::baseline::{gate_rows, json_number, BaselineRow, ENGINE_SCHEMA};
use amacl_bench::experiments::*;
use amacl_bench::latency::{gate_latency_rows, measure_latency, DEFAULT_GRID};
use amacl_bench::parallel::{self, run_seeds};
use amacl_bench::scaling;
use amacl_core::harness::{alternating_inputs, run_wpaxos};
use amacl_model::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    // Modes dispatch on the FIRST argument only, so a mode's own
    // options can never be mistaken for another mode (e.g. a stray
    // `--smoke` after `bench-gate` must not silently replace the
    // regression gate with the smoke pass).
    match args.first().map(String::as_str) {
        Some("--smoke") => {
            run_smoke();
            return;
        }
        Some("bench-engine") => {
            bench_engine(opt("--out").as_deref());
            return;
        }
        Some("bench-latency") => {
            bench_latency(opt("--out").as_deref());
            return;
        }
        Some("bench-gate") => {
            let baseline_path = opt("--baseline").unwrap_or_else(|| "BENCH_engine.json".into());
            let latency_path =
                opt("--latency-baseline").unwrap_or_else(|| "BENCH_latency.json".into());
            let tolerance: f64 = opt("--tolerance")
                .map(|s| s.parse().expect("--tolerance takes a number"))
                .unwrap_or(3.0);
            bench_gate(
                &baseline_path,
                &latency_path,
                tolerance,
                opt("--out").as_deref(),
            );
            return;
        }
        _ => {}
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

/// One engine run of the reference workload; returns the event count
/// the engine processed. Used by both the smoke pass and the JSON
/// baseline.
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
    let results = run_seeds(
        &[0, 1, 2, 3],
        parallel::default_threads(),
        reference_workload,
    );
    let events: u64 = results.iter().map(|r| r.result).sum();
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "events={events} wall={wall:.3}s events/sec={:.0}",
        events as f64 / wall
    );
    println!("smoke OK");
}

/// Runs the full scaling sweep — every `(queue core, n, shards,
/// threads)` configuration in [`scaling::SWEEP`] ×
/// [`scaling::CONFIG_SWEEP`], seeds fanned out over the parallel
/// driver — and returns the v6 JSON and the per-configuration rows.
///
/// The top-level `threads` field is the *driver's* seed-fan-out
/// width; each row's `threads` is the engine's own worker thread count
/// inside the conservative windows.
fn measure_engine() -> (String, Vec<BaselineRow>) {
    let threads = parallel::default_threads();

    // Warm-up (page in code and allocator state).
    let _ = scaling::workload(QueueCoreKind::Heap, 32, 0);

    let mut rows: Vec<BaselineRow> = Vec::new();
    let mut row_json: Vec<String> = Vec::new();
    let mut events_by_n: Vec<(usize, u64)> = Vec::new();
    for core in QueueCoreKind::all() {
        for &(n, nseeds) in scaling::SWEEP {
            for &(shards, step_threads) in scaling::CONFIG_SWEEP {
                let seeds: Vec<u64> = (0..nseeds as u64).collect();
                let report = parallel::measure_speedup(&seeds, threads, |seed| {
                    scaling::workload_threaded(core, n, shards, step_threads, seed)
                });
                let serial_wall = report.serial.as_secs_f64();
                let parallel_wall = report.parallel.as_secs_f64();
                let events: u64 = report.results.iter().map(|r| r.result.sharded.events).sum();
                let cross: u64 = report
                    .results
                    .iter()
                    .map(|r| r.result.sharded.cross_shard_deliveries)
                    .sum();
                let windows: u64 = report
                    .results
                    .iter()
                    .map(|r| r.result.sharded.window_advances)
                    .sum();
                let clones: u64 = report
                    .results
                    .iter()
                    .map(|r| r.result.sharded.payload_clones)
                    .sum();
                let arena_peak = report
                    .results
                    .iter()
                    .map(|r| r.result.sharded.arena_bytes_peak)
                    .max()
                    .unwrap_or(0);
                let barrier_pct = report
                    .results
                    .iter()
                    .map(|r| r.result.barrier_pct)
                    .fold(0.0f64, f64::max);
                let supersteps: u64 = report
                    .results
                    .iter()
                    .map(|r| r.result.superstep_count)
                    .sum();
                let wakeups: u64 = report.results.iter().map(|r| r.result.worker_wakeups).sum();
                // The event count is part of the determinism contract:
                // neither the queue core, the shard count, nor the
                // worker thread count may change what the engine
                // executes.
                match events_by_n.iter().find(|&&(en, _)| en == n) {
                    None => events_by_n.push((n, events)),
                    Some(&(_, expected)) => assert_eq!(
                        events, expected,
                        "core {core} / S={shards} T={step_threads} changed the n={n} event count"
                    ),
                }
                let events_per_sec = events as f64 / serial_wall;
                eprintln!(
                    "measured core={core} n={n} shards={shards} threads={step_threads}: \
                     {events_per_sec:.0} events/sec ({events} events, {serial_wall:.3}s serial, \
                     {cross} cross-shard, {clones} payload clones, {arena_peak} B arena peak, \
                     {barrier_pct:.1}% barrier, {supersteps} supersteps, {wakeups} wakeups)"
                );
                row_json.push(format!(
                    "    {{\"queue_core\": \"{core}\", \"n\": {n}, \"shards\": {shards}, \"threads\": {step_threads}, \"seeds\": {nseeds}, \"events_total\": {events}, \"cross_shard_deliveries\": {cross}, \"window_advances\": {windows}, \"payload_clones\": {clones}, \"arena_bytes_peak\": {arena_peak}, \"barrier_pct\": {barrier_pct:.1}, \"superstep_count\": {supersteps}, \"worker_wakeups\": {wakeups}, \"serial_wall_s\": {serial_wall:.4}, \"events_per_sec\": {events_per_sec:.0}, \"parallel_wall_s\": {parallel_wall:.4}, \"parallel_speedup\": {:.2}}}",
                    report.speedup()
                ));
                rows.push(BaselineRow {
                    queue_core: core.name().to_string(),
                    n: n as u64,
                    shards: shards as u64,
                    threads: step_threads as u64,
                    payload_clones: clones,
                    arena_bytes_peak: arena_peak,
                    superstep_count: supersteps,
                    worker_wakeups: wakeups,
                    events_per_sec,
                });
            }
        }
    }
    let reference = rows
        .iter()
        .find(|r| r.queue_core == "heap" && r.n == 32 && r.shards == 1 && r.threads == 1)
        .expect("heap/n=32/serial reference row")
        .events_per_sec;
    let json = format!(
        "{{\n  \"schema\": \"{ENGINE_SCHEMA}\",\n  \"workload\": \"wpaxos random_connected(n,p(n),seed), RandomScheduler(F_ack=4), both queue cores x (shards, threads) {:?}\",\n  \"threads\": {threads},\n  \"events_per_sec\": {reference:.0},\n  \"rows\": [\n{}\n  ]\n}}\n",
        scaling::CONFIG_SWEEP,
        row_json.join(",\n")
    );
    (json, rows)
}

/// Measures engine events/sec across the scaling sweep and writes the
/// v6 JSON baseline.
fn bench_engine(out: Option<&str>) {
    let (json, _) = measure_engine();
    print!("{json}");
    if let Some(path) = out {
        std::fs::write(path, &json).expect("write baseline");
        eprintln!("wrote {path}");
    }
}

/// Measures the open-loop latency grid and writes the
/// `amacl-bench-latency/v1` JSON baseline.
fn bench_latency(out: Option<&str>) {
    let (json, _) = measure_latency(DEFAULT_GRID);
    print!("{json}");
    if let Some(path) = out {
        std::fs::write(path, &json).expect("write latency baseline");
        eprintln!("wrote {path}");
    }
}

/// The CI regression gate: remeasure, report, and exit nonzero when
/// throughput collapsed relative to the committed baseline. Every
/// `(queue core, n, shards, threads)` row of the v6 baseline is gated
/// and pins `payload_clones` exactly; any other schema is refused.
/// When the committed latency baseline exists, its rows are gated in
/// the same pass (exact virtual-tick quantiles, tolerance-bounded
/// throughput).
fn bench_gate(baseline_path: &str, latency_path: &str, tolerance: f64, out: Option<&str>) {
    let baseline_json = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let (fresh_json, fresh_rows) = measure_engine();
    print!("{fresh_json}");
    if let Some(path) = out {
        std::fs::write(path, &fresh_json).expect("write fresh measurement");
        eprintln!("wrote {path}");
    }
    let verdict = gate_rows(&baseline_json, &fresh_rows, tolerance);
    // The latency baseline rides alongside: gate it whenever the
    // committed file is present (it is optional so older checkouts and
    // engine-only invocations keep working).
    let latency_verdict = match std::fs::read_to_string(latency_path) {
        Err(_) => {
            eprintln!("bench gate: no latency baseline at {latency_path}; skipping latency gate");
            Ok(Vec::new())
        }
        Ok(latency_json) => {
            let (_, fresh_latency) = measure_latency(DEFAULT_GRID);
            gate_latency_rows(&latency_json, &fresh_latency, tolerance)
        }
    };
    match verdict.and_then(|mut lines| {
        latency_verdict.map(|latency_lines| {
            lines.extend(latency_lines);
            lines
        })
    }) {
        Ok(lines) => {
            println!("bench gate OK:");
            for line in lines {
                println!("  {line}");
            }
            // Context for log readers chasing a near-miss: the
            // baseline's own serial wall time, if present.
            if let Some(wall) = json_number(&baseline_json, "serial_wall_s") {
                println!("baseline first serial wall: {wall:.4}s");
            }
        }
        Err(msg) => {
            eprintln!("bench gate FAILED: {msg}");
            std::process::exit(1);
        }
    }
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
