//! Executes parsed [`Command`]s against the workspace libraries and
//! renders plain-text reports.

use std::fmt::Write as _;
use std::time::Duration;

use amacl_checker::grid::{check_engine_grid, config_label, diff_reports, engine_grid};
use amacl_checker::scenario::{
    AlgoVisitor, ScenarioAlgo, ScenarioInputs, ScenarioSched, ScenarioTopo,
};
use amacl_checker::{
    cross_check_algo, CrossCheckConfig, FuzzConfig, MacExploreConfig, MacExploreDescriptor,
    Reduction, SearchOrder, ViolationKind,
};
use amacl_core::verify::check_consensus;
use amacl_model::machine::LedgerMutation;
use amacl_model::prelude::*;
use amacl_model::sim::conformance::check_trace;
use amacl_model::sim::trace::TraceEvent;
use amacl_runtime::{MacRuntime, RuntimeConfig};

use crate::spec::{Command, EngineFlags};

/// Executes a parsed command, returning the rendered report.
///
/// # Errors
///
/// Returns a message when the instance is invalid (e.g. a multihop
/// topology for a single-hop algorithm) or a property fails.
pub fn execute(cmd: Command) -> Result<String, String> {
    match cmd {
        Command::Run {
            algo,
            topo,
            sched,
            inputs,
            crashes,
            trace,
            audit,
            id_budget,
            engine,
        } => run(
            algo, topo, sched, inputs, crashes, trace, audit, id_budget, engine,
        ),
        Command::Check {
            algo,
            topo,
            inputs,
            crash_budget,
            max_states,
            bfs,
        } => check(algo, topo, inputs, crash_budget, max_states, bfs),
        Command::Fuzz {
            algo,
            topo,
            inputs,
            crash_budget,
            walks,
            seed,
        } => fuzz(algo, topo, inputs, crash_budget, walks, seed),
        Command::Topo { topo } => Ok(describe_topo(&topo)),
        Command::CrossCheck {
            algo,
            topo,
            inputs,
            sched,
            f_ack,
            crashes,
            seed,
            jitter_us,
            timeout_ms,
            strict,
            engine,
        } => crosscheck(
            algo, topo, inputs, sched, f_ack, crashes, seed, jitter_us, timeout_ms, strict, engine,
        ),
        Command::Explore {
            algo,
            topo,
            inputs,
            crash_budget,
            max_states,
            max_depth,
            naive,
            mutate,
        } => explore_mac(
            algo,
            topo,
            inputs,
            crash_budget,
            max_states,
            max_depth,
            naive,
            mutate,
        ),
        Command::Sweep {
            smoke,
            scenario,
            seeds,
            list,
        } => sweep(smoke, scenario, seeds, list),
        Command::Load {
            scenario,
            arrival,
            rate,
            duration,
            seed,
            list,
            engine,
        } => load(scenario, arrival, rate, duration, seed, list, engine),
    }
}

/// Termination is judged in quiescent states only; a full cover that
/// met none (wPAXOS's services never stop broadcasting) proved safety
/// alone, and the report says so next to its `VERIFIED` line.
fn note_unjudged_termination(text: &mut String, quiescent_states: u64) {
    if quiescent_states == 0 {
        let _ = writeln!(
            text,
            "note: no quiescent state is reachable, so termination was never judged — \
             only agreement and validity are proven"
        );
    }
}

/// Enumerates the delivery/ack/crash interleavings behind the
/// `MacLayer` seam for one instance, optionally under a seeded ledger
/// bug, and lowers the first violating schedule into a sweep-ready
/// scenario (the round-trip the regression catalogue is grown from).
#[allow(clippy::too_many_arguments)]
fn explore_mac(
    algo: ScenarioAlgo,
    topo: ScenarioTopo,
    inputs: ScenarioInputs,
    crash_budget: usize,
    max_states: usize,
    max_depth: usize,
    naive: bool,
    mutate: Option<String>,
) -> Result<String, String> {
    use amacl_checker::scenario::sweep_scenario;

    let mutation = match mutate.as_deref() {
        None => LedgerMutation::None,
        Some(s) => LedgerMutation::parse(s).ok_or_else(|| {
            format!("unknown mutation `{s}`; supported: none, ack-early, drop-releases")
        })?,
    };
    let descriptor = descriptor(algo, topo, &inputs, crash_budget, mutation)?;
    let cfg = MacExploreConfig {
        max_states,
        max_depth,
        max_violations: 1,
        reduction: if naive {
            Reduction::Naive(SearchOrder::Dfs)
        } else {
            Reduction::Dpor
        },
    };
    let out = descriptor.explore(&cfg);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "explore {} on {topo} (n={}), inputs {:?}, crash budget {crash_budget}, \
         mutation {}, reduction {}",
        algo.name(),
        descriptor.inputs.len(),
        descriptor.inputs,
        mutation.label(),
        out.reduction.label()
    );
    let _ = writeln!(
        text,
        "explored {} states ({} distinct, {} quiescent), {} transitions, \
         deepest schedule {} moves{}",
        out.states,
        out.distinct_states,
        out.quiescent_states,
        out.transitions,
        out.max_depth_reached,
        if out.truncated { " — TRUNCATED" } else { "" }
    );
    match out.violations.first() {
        None if !out.truncated => {
            let _ = writeln!(
                text,
                "VERIFIED: agreement, validity, and termination hold on every interleaving"
            );
            note_unjudged_termination(&mut text, out.quiescent_states);
        }
        None => {
            let _ = writeln!(
                text,
                "no violation found, but the cover is incomplete — raise --max-states/--max-depth"
            );
        }
        Some(v) => {
            text.push_str(&v.render());
            // Lower the counterexample into a scenario descriptor and
            // prove the round trip. Under a seeded mutation the bug
            // only exists behind the mutated seam, so the lowered
            // scenario must sweep CLEAN on the real backends. A
            // termination violation found with NO mutation is a
            // genuine property of the real semantics (e.g. two-phase
            // is not crash tolerant) and is gated differently below.
            let scenario = descriptor.lower("explored-cli", v);
            let _ = writeln!(
                text,
                "lowered scenario: sched {}, {} crash(es), inputs {:?}",
                scenario.sched.label(),
                scenario.crashes.len(),
                scenario.inputs
            );
            scenario
                .validate()
                .map_err(|e| format!("{text}lowering produced an invalid scenario: {e}"))?;
            let genuine_stall =
                mutation == LedgerMutation::None && v.kind == ViolationKind::Termination;
            if genuine_stall {
                // A genuine violation is an algorithm-level property:
                // THERE EXISTS a stalling interleaving. One backend
                // run cannot refute it, and demanding termination on
                // every backend would be category-wrong — the
                // threaded runtime's jitter may hit the stall the
                // engine's scripted timing escapes (and vice versa:
                // the coarse lowering pins only completion order, not
                // the delivery-vs-ack fine structure some stalls
                // need). The deterministic facts to gate on are
                // engine self-consistency and safety.
                let (serial, verdict) = check_engine_grid(
                    None,
                    &[],
                    |cfg| scenario.run_engine_with(1, cfg).0,
                    diff_reports,
                );
                if let Err(d) = verdict {
                    return Err(format!(
                        "{text}round-trip FAILED on the lowered scenario: {d}"
                    ));
                }
                let decided = serial.decided_values();
                if decided.len() > 1 {
                    return Err(format!(
                        "{text}round-trip FAILED: deciders disagree on the lowered scenario: \
                         {decided:?}"
                    ));
                }
                if let Some(bad) = decided.iter().find(|d| !descriptor.inputs.contains(d)) {
                    return Err(format!(
                        "{text}round-trip FAILED: decided value {bad} was nobody's input"
                    ));
                }
                let _ = writeln!(
                    text,
                    "round-trip ok: lowered scenario is byte-identical across the engine \
                     grid with safety intact; the engine {} \
                     (a genuine stall is existential — other timings may still wedge)",
                    if serial.all_decided {
                        "terminates under this scripted timing"
                    } else {
                        "reproduces the stall"
                    }
                );
                return Ok(text);
            }
            let row = sweep_scenario(&scenario, 1);
            if !row.ok {
                return Err(format!(
                    "{text}round-trip FAILED: lowered scenario does not sweep clean on \
                     the real backends: {}",
                    row.failures.join("; ")
                ));
            }
            let _ = writeln!(
                text,
                "round-trip ok: lowered scenario sweeps clean on the real backends \
                 (engine vs threads, and across the engine grid)"
            );
        }
    }
    Ok(text)
}

/// The engine grid's configurations, for report headers.
fn grid_label() -> String {
    let labels: Vec<String> = engine_grid().iter().map(config_label).collect();
    labels.join(", ")
}

/// Runs the named adversarial scenario catalogue on both backends,
/// fanning (scenario, seed) jobs out over the parallel multi-seed
/// driver, and reports per-row outcomes with the first diverging slot.
fn sweep(
    smoke: bool,
    scenario: Option<String>,
    seeds: usize,
    list: bool,
) -> Result<String, String> {
    use crate::parallel::{default_threads, run_seeds};
    use amacl_checker::scenario::{sweep_scenario, Scenario, SweepOutcome};

    if list {
        let mut out = String::from("scenario catalogue:\n");
        for s in Scenario::catalogue() {
            let _ = writeln!(
                out,
                "  {:<24} {:?} on {:?}, sched {}, {} crash(es), inputs {:?}{}",
                s.name,
                s.algo,
                s.topo,
                s.sched.label(),
                s.crashes.len(),
                s.inputs,
                match (s.strict, s.expect_stall) {
                    (true, _) => ", strict",
                    (_, true) => ", expects stall",
                    _ => "",
                }
            );
        }
        return Ok(out);
    }

    let scenarios = match scenario {
        Some(name) => vec![Scenario::by_name(&name)
            .ok_or_else(|| format!("unknown scenario `{name}` (see `amacl sweep --list`)"))?],
        None if smoke => Scenario::smoke(),
        None => Scenario::catalogue(),
    };
    for s in &scenarios {
        s.validate()?;
    }

    let seed_list: Vec<u64> = (0..seeds.max(1) as u64).collect();
    let jobs: Vec<(usize, u64)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(i, _)| seed_list.iter().map(move |&s| (i, s)))
        .collect();
    // Fan out over the parallel driver: one cross-check plus one
    // engine-grid proof per job, results reassembled in (scenario,
    // seed) order.
    let indices: Vec<u64> = (0..jobs.len() as u64).collect();
    let rows = run_seeds(&indices, default_threads(), |i| {
        let (si, seed) = jobs[i as usize];
        sweep_scenario(&scenarios[si], seed)
    });
    let outcome = SweepOutcome { rows };

    let mut out = format!(
        "sweep: {} scenario(s) x {} seed(s), engine vs threads, engine grid ({})\n",
        scenarios.len(),
        seed_list.len(),
        grid_label()
    );
    out.push_str(&outcome.render());
    if outcome.ok() {
        out.push_str("sweep OK\n");
        Ok(out)
    } else {
        Err(format!(
            "{out}sweep FAILED: backend divergence or property violation"
        ))
    }
}

/// Runs the open-loop sustained-load catalogue: arrivals at the target
/// rate are injected into a long-lived consensus pipeline and the
/// submit→decide latency surface (p50/p99/p999) is reported. Without
/// engine flags every scenario is swept across the engine grid with
/// the same verdict token the closed-loop sweep carries; with an
/// engine flag the run is pinned to the resolved configuration.
fn load(
    scenario: Option<String>,
    arrival: Option<amacl_checker::ArrivalKind>,
    rate: Option<u64>,
    duration: Option<u64>,
    seed: Option<u64>,
    list: bool,
    engine: EngineFlags,
) -> Result<String, String> {
    use amacl_checker::workload::{render_load_rows, run_load, sweep_load, LoadScenario};

    let mut scenarios = LoadScenario::catalogue();
    if list {
        let mut out = String::from("load scenario catalogue:\n");
        for s in &scenarios {
            let _ = writeln!(
                out,
                "  {:<24} {} arrivals at {}/kilotick for {} ticks, n={}, {} bits{}{}",
                s.name,
                s.spec.arrival,
                s.spec.rate_per_kilotick,
                s.spec.duration,
                s.spec.n,
                s.spec.bits,
                match s.crash {
                    Some((slot, t)) => format!(", crash slot {slot} at t={t}"),
                    None => String::new(),
                },
                match &s.partition {
                    Some((_, _, release)) => format!(", partition heals at t={release}"),
                    None => String::new(),
                }
            );
        }
        return Ok(out);
    }
    if let Some(name) = &scenario {
        scenarios.retain(|s| &s.name == name);
        if scenarios.is_empty() {
            return Err(format!(
                "unknown load scenario `{name}` (see `amacl load --list`)"
            ));
        }
    }
    for s in &mut scenarios {
        if let Some(a) = arrival {
            s.spec.arrival = a;
        }
        if let Some(r) = rate {
            s.spec.rate_per_kilotick = r;
        }
        if let Some(d) = duration {
            s.spec.duration = d;
        }
        if let Some(sd) = seed {
            s.spec.seed = sd;
        }
        s.validate()?;
    }

    if engine != EngineFlags::default() {
        // Pinned single-configuration mode: one run per scenario on
        // the resolved engine, latency surface only.
        let cfg = engine.resolve();
        let mut out = format!(
            "load: pinned engine ({} core, S={}, T={})\n",
            cfg.queue_core,
            cfg.shards.get(),
            cfg.threads.get()
        );
        for s in &scenarios {
            let run = run_load(
                s,
                cfg.queue_core,
                cfg.shards.get(),
                cfg.threads.get(),
                false,
            );
            let _ = writeln!(
                out,
                "{}: {}/{} decided ({} unfinished) | p50 {} p99 {} p999 {} max {} ticks \
                 | {:.2} decided/kilotick | {} engine events",
                s.name,
                run.histogram.count(),
                run.submitted,
                run.unfinished,
                run.histogram.p50(),
                run.histogram.p99(),
                run.histogram.p999(),
                run.histogram.max(),
                run.decided_per_kilotick(),
                run.engine_events
            );
        }
        return Ok(out);
    }

    let mut out = format!(
        "load: {} scenario(s), open-loop identity sweep, engine grid ({})\n",
        scenarios.len(),
        grid_label()
    );
    let rows: Vec<_> = scenarios.iter().map(sweep_load).collect();
    out.push_str(&render_load_rows(&rows));
    if rows.iter().all(|r| r.ok()) {
        out.push_str("load OK\n");
        Ok(out)
    } else {
        Err(format!(
            "{out}load FAILED: open-loop run diverged across engine configurations"
        ))
    }
}

/// Runs `algo` on the engine and the threaded runtime through the
/// shared `MacLayer` trait and diffs the outcomes.
#[allow(clippy::too_many_arguments)]
fn crosscheck(
    algo: ScenarioAlgo,
    topo_spec: ScenarioTopo,
    inputs: ScenarioInputs,
    sched: Option<(ScenarioSched, u64)>,
    f_ack: u64,
    crashes: Vec<CrashSpec>,
    seed: u64,
    jitter_us: u64,
    timeout_ms: u64,
    strict: bool,
    engine: EngineFlags,
) -> Result<String, String> {
    let topo = topo_spec.build();
    let n = topo.len();
    let inputs = inputs.materialize(n);
    algo.check(&topo, &inputs)?;
    algo.require_crosscheckable()?;
    if strict && !crashes.is_empty() {
        return Err(
            "--strict with --crash is unsound: a crashed slot may decide before its \
             deadline on one backend but not the other (the two clocks are incommensurable), \
             so identical decision vectors cannot be demanded"
                .into(),
        );
    }
    for (i, c) in crashes.iter().enumerate() {
        if c.slot().index() >= n {
            return Err(format!("crash slot {} out of range (n={n})", c.slot()));
        }
        if crashes[i + 1..].iter().any(|d| d.slot() == c.slot()) {
            return Err(format!("duplicate crash for slot {}", c.slot()));
        }
    }
    // Any engine-side adversary works here: the SimBackend takes a
    // scheduler factory, so `--sched` could reach partitions and
    // scripted schedules too; without one, the stock random scheduler.
    let (engine_sched, sched_seed) = sched
        .clone()
        .unwrap_or((ScenarioSched::Random { f_ack }, seed));
    let mut sim = SimBackend::with_factory(
        topo.clone(),
        engine_sched.spec(sched_seed),
        engine_sched.factory(sched_seed),
    )
    .config(
        engine
            .resolve()
            .seed(seed)
            .crash_plan(CrashPlan::new(crashes.clone())),
    );
    let mut rt = MacRuntime::new(
        topo,
        RuntimeConfig {
            max_jitter: Duration::from_micros(jitter_us),
            seed,
            timeout: Duration::from_millis(timeout_ms),
            ..RuntimeConfig::default()
        }
        .with_crash_specs(&crashes, amacl_checker::Scenario::TICK),
    );
    let cfg = CrossCheckConfig {
        expect_identical_decisions: strict,
        check_validity: true,
    };
    let outcome = cross_check_algo(algo, &mut sim, &mut rt, &inputs, cfg);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "crosscheck {} on {topo_spec} (n={n}): {} vs {}",
        algo.name(),
        outcome.left.backend,
        outcome.right.backend
    );
    if let Some((spec, sched_seed)) = sched {
        let _ = writeln!(out, "  engine sched: {}", spec.spec(sched_seed));
    }
    if let Some(core) = engine.queue {
        let _ = writeln!(out, "  engine queue core: {core}");
    }
    if let Some(s) = engine.shards {
        let _ = writeln!(out, "  engine shards: {s}");
    }
    if let Some(t) = engine.threads {
        let _ = writeln!(out, "  engine threads: {t}");
    }
    if !crashes.is_empty() {
        let _ = writeln!(out, "  crashes (both backends): {crashes:?}");
    }
    for report in [&outcome.left, &outcome.right] {
        let _ = writeln!(
            out,
            "  {:>8}: all_decided={} broadcasts={} deliveries={} decided={:?}",
            report.backend,
            report.all_decided,
            report.broadcasts,
            report.deliveries,
            report.decided_values()
        );
    }
    match &outcome.divergence {
        None => {
            let _ = writeln!(out, "  decisions: identical per slot");
        }
        Some(d) => {
            let _ = writeln!(out, "  {d}");
        }
    }
    if outcome.ok() {
        let _ = writeln!(out, "cross-check OK");
        Ok(out)
    } else {
        Err(format!(
            "{out}cross-check FAILED: {}",
            outcome.failures.join("; ")
        ))
    }
}

/// One `amacl run` on the engine: the algorithm's processes under the
/// parsed adversary, crash plan and engine flags.
struct RunOnEngine<'a> {
    topo: &'a Topology,
    engine: EngineConfig,
    sched: &'a ScenarioSched,
    sched_seed: u64,
    id_budget: Option<usize>,
    trace: bool,
    audit: bool,
}

/// What a run reports: the engine report, the rendered trace and audit
/// (when asked for), and the shard and thread counts that ran.
type RunOut = (RunReport, Option<String>, Option<String>, (usize, usize));

impl AlgoVisitor for RunOnEngine<'_> {
    type Out = RunOut;

    fn visit<P: Process + Clone + std::fmt::Debug>(
        self,
        id_budget: usize,
        make: impl Fn(Slot) -> P,
    ) -> RunOut {
        let mut sim = SimBuilder::new(self.topo.clone(), make)
            .config(self.engine)
            .scheduler(self.sched.build(self.sched_seed))
            .message_id_budget(self.id_budget.unwrap_or(id_budget))
            .trace(self.trace || self.audit)
            .max_time(Time(2_000_000))
            .build();
        let report = sim.run();
        let audit_text = self.audit.then(|| {
            let a = check_trace(sim.topology(), sim.trace(), Some(self.sched.f_ack()), None);
            format!(
                "audit: {} broadcasts, {} deliveries, {} acks — violations: {}",
                a.broadcasts,
                a.deliveries,
                a.acks,
                if a.violations.is_empty() {
                    "none".to_string()
                } else {
                    format!("{:?}", a.violations)
                }
            )
        });
        let trace_text = self.trace.then(|| render_trace(sim.trace().events()));
        // The shard and thread counts that ran (the engine clamps the
        // requested ones), printed instead of the flags.
        let ran = (sim.shard_count(), sim.thread_count());
        (report, trace_text, audit_text, ran)
    }
}

#[allow(clippy::too_many_arguments)]
fn run(
    algo: ScenarioAlgo,
    topo_spec: ScenarioTopo,
    (sched, sched_seed): (ScenarioSched, u64),
    inputs: ScenarioInputs,
    crashes: Vec<CrashSpec>,
    trace: bool,
    audit: bool,
    id_budget: Option<usize>,
    engine: EngineFlags,
) -> Result<String, String> {
    let topo = topo_spec.build();
    let n = topo.len();
    let inputs = inputs.materialize(n);
    algo.check(&topo, &inputs)?;
    for c in &crashes {
        if c.slot().index() >= n {
            return Err(format!("crash slot {} out of range (n={n})", c.slot()));
        }
    }
    let crashed: Vec<bool> = (0..n)
        .map(|i| crashes.iter().any(|c| c.slot() == Slot(i)))
        .collect();

    let (report, trace_text, audit_text, (shards, threads)) = algo.visit(
        &inputs,
        RunOnEngine {
            topo: &topo,
            engine: engine.resolve().crash_plan(CrashPlan::new(crashes.clone())),
            sched: &sched,
            sched_seed,
            id_budget,
            trace,
            audit,
        },
    );

    let check = check_consensus(&inputs, &report, &crashed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "algo {} | topo {topo_spec} (n={n}, D={}) | sched {} | inputs {:?}",
        algo.name(),
        topo.diameter(),
        sched.spec(sched_seed),
        inputs
    );
    if !crashes.is_empty() {
        let _ = writeln!(out, "crashes: {crashes:?}");
    }
    let _ = writeln!(
        out,
        "outcome: {:?} at t={} | broadcasts {} | deliveries {}",
        report.outcome,
        report.end_time.ticks(),
        report.metrics.broadcasts,
        report.metrics.deliveries
    );
    let _ = writeln!(
        out,
        "memory: payload clones {} | payload moves {} | payload peak {} B",
        report.metrics.payload_clones,
        report.metrics.payload_moves,
        report.metrics.arena_bytes_peak
    );
    if engine.shards.is_some() {
        let m = &report.metrics;
        let _ = writeln!(
            out,
            "shards: {shards} | cross-shard deliveries {} | windows {} | skew {:.2}",
            m.cross_shard_deliveries,
            m.shard_window_advances,
            m.shard_skew()
        );
        if engine.threads.is_some() {
            let _ = writeln!(
                out,
                "threads: {threads} | busy {:.3} ms | barrier wait {:.3} ms ({:.1}%)",
                m.shard_busy_ns.iter().sum::<u64>() as f64 / 1e6,
                m.shard_barrier_wait_ns.iter().sum::<u64>() as f64 / 1e6,
                m.barrier_pct()
            );
            let _ = writeln!(
                out,
                "pool: spawns {} | pooled windows {} | worker passes {} | serial shortcuts {}",
                m.worker_spawns, m.superstep_count, m.worker_wakeups, m.serial_window_shortcuts
            );
        }
    }
    let _ = writeln!(
        out,
        "consensus: agreement={} validity={} termination={} decided={:?}",
        check.agreement, check.validity, check.termination, check.decided
    );
    if let Some(t) = report.max_decision_time() {
        let _ = writeln!(
            out,
            "latest decision: t={} ({:.2} x F_ack)",
            t.ticks(),
            t.ticks() as f64 / sched.f_ack() as f64
        );
    }
    if let Some(tt) = trace_text {
        let _ = writeln!(out, "{tt}");
    }
    if let Some(at) = audit_text {
        let _ = writeln!(out, "{at}");
    }
    if let Some(v) = check.violation {
        return Err(format!("{out}\nconsensus violation: {v}"));
    }
    Ok(out)
}

fn render_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("trace (decide/crash events):");
    for ev in events {
        match ev {
            TraceEvent::Decide { time, slot, value } => {
                let _ = write!(out, "\n  t={:>6} {slot} decides {value}", time.ticks());
            }
            TraceEvent::Crash { time, slot } => {
                let _ = write!(out, "\n  t={:>6} {slot} CRASHES", time.ticks());
            }
            _ => {}
        }
    }
    out
}

/// The untimed-machine instance `check`, `fuzz` and `explore` search,
/// validated.
fn descriptor(
    algo: ScenarioAlgo,
    topo: ScenarioTopo,
    inputs: &ScenarioInputs,
    crash_budget: usize,
    mutation: LedgerMutation,
) -> Result<MacExploreDescriptor, String> {
    let descriptor = MacExploreDescriptor {
        algo,
        topo,
        inputs: inputs.materialize(topo.build().len()),
        crash_budget,
        mutation,
    };
    descriptor.validate()?;
    Ok(descriptor)
}

fn check(
    algo: ScenarioAlgo,
    topo: ScenarioTopo,
    inputs: ScenarioInputs,
    crash_budget: usize,
    max_states: usize,
    bfs: bool,
) -> Result<String, String> {
    let d = descriptor(algo, topo, &inputs, crash_budget, LedgerMutation::None)?;
    let cfg = MacExploreConfig {
        max_states,
        ..MacExploreConfig::naive(if bfs {
            SearchOrder::Bfs
        } else {
            SearchOrder::Dfs
        })
    };
    let out = d.explore(&cfg);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "checked {} on {topo} (n={}), inputs {:?}, crash budget {crash_budget}",
        algo.name(),
        d.inputs.len(),
        d.inputs
    );
    let _ = writeln!(
        text,
        "explored {} states ({} terminal), deepest schedule {} moves{}",
        out.states,
        out.quiescent_states,
        out.max_depth_reached,
        if out.truncated { " — TRUNCATED" } else { "" }
    );
    match out.violations.first() {
        None if !out.truncated => {
            let _ = writeln!(
                text,
                "VERIFIED: agreement, validity, and termination hold on every schedule"
            );
            note_unjudged_termination(&mut text, out.quiescent_states);
        }
        None => {
            let _ = writeln!(
                text,
                "no violation found, but the cover is incomplete — raise --max-states"
            );
        }
        Some(v) => text.push_str(&v.render()),
    }
    Ok(text)
}

fn fuzz(
    algo: ScenarioAlgo,
    topo: ScenarioTopo,
    inputs: ScenarioInputs,
    crash_budget: usize,
    walks: usize,
    seed: u64,
) -> Result<String, String> {
    let d = descriptor(algo, topo, &inputs, crash_budget, LedgerMutation::None)?;
    let out = d.fuzz(FuzzConfig {
        walks,
        seed,
        ..FuzzConfig::default()
    });

    let mut text = String::new();
    let _ = writeln!(
        text,
        "fuzzed {} on {topo} (n={}), inputs {:?}, crash budget {crash_budget}",
        algo.name(),
        d.inputs.len(),
        d.inputs
    );
    let _ = writeln!(
        text,
        "{} walks ({} decided, {} stuck-terminal, {} truncated), {} total moves, longest walk {}",
        out.walks,
        out.decided_walks,
        out.terminal_walks,
        out.truncated_walks,
        out.total_moves,
        out.max_walk_moves
    );
    match out.violations.first() {
        None => {
            let _ = writeln!(
                text,
                "CLEAN: no walk violated agreement/validity/termination"
            );
        }
        Some(v) => text.push_str(&v.render()),
    }
    Ok(text)
}

fn describe_topo(spec: &ScenarioTopo) -> String {
    let topo = spec.build();
    let n = topo.len();
    let degrees: Vec<usize> = (0..n).map(|i| topo.degree(Slot(i))).collect();
    let mut out = String::new();
    let _ = writeln!(out, "topology {spec}");
    let _ = writeln!(
        out,
        "n = {n}, edges = {}, connected = {}, diameter = {}",
        topo.edge_count(),
        topo.is_connected(),
        topo.diameter()
    );
    let _ = writeln!(
        out,
        "degree: min {} / max {} / mean {:.2}",
        degrees.iter().min().copied().unwrap_or(0),
        degrees.iter().max().copied().unwrap_or(0),
        if n == 0 {
            0.0
        } else {
            degrees.iter().sum::<usize>() as f64 / n as f64
        }
    );
    if n <= 16 {
        for i in 0..n {
            let nb: Vec<String> = topo
                .neighbors(Slot(i))
                .iter()
                .map(|s| s.index().to_string())
                .collect();
            let _ = writeln!(out, "  {i}: {}", nb.join(" "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::run_cli;

    fn cli(s: &str) -> Result<String, String> {
        run_cli(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn run_two_phase_on_clique() {
        let out = cli("run --algo two-phase --topo clique:5 --sched sync:2").unwrap();
        assert!(out.contains("agreement=true"), "{out}");
        assert!(out.contains("latest decision: t=4"), "{out}");
    }

    #[test]
    fn run_wpaxos_on_grid_with_trace_and_audit() {
        let out =
            cli("run --algo wpaxos --topo grid:3x2 --sched random:3:9 --trace --audit").unwrap();
        assert!(out.contains("decides"), "{out}");
        assert!(out.contains("violations: none"), "{out}");
    }

    #[test]
    fn run_fd_paxos_with_crash() {
        let out = cli("run --algo fd-paxos --topo clique:5 --sched random:4:3 \
             --crash slot=0,bcast=1,delivered=2 --inputs const:6")
        .unwrap();
        assert!(out.contains("decided=Some(6)"), "{out}");
    }

    #[test]
    fn run_bitwise_with_wide_inputs() {
        let out = cli("run --algo bitwise:4 --topo clique:3 --sched max-delay:2 --inputs 9,5,12")
            .unwrap();
        assert!(out.contains("agreement=true"), "{out}");
    }

    #[test]
    fn single_hop_algorithms_reject_multihop_topologies() {
        let err = cli("run --algo two-phase --topo line:4").unwrap_err();
        assert!(err.contains("single-hop"), "{err}");
        let err = cli("run --algo ben-or --topo ring:5").unwrap_err();
        assert!(err.contains("single-hop"), "{err}");
    }

    #[test]
    fn binary_algorithms_reject_wide_inputs() {
        let err = cli("run --algo two-phase --topo clique:3 --inputs 0,1,2").unwrap_err();
        assert!(err.contains("binary"), "{err}");
        let err = cli("run --algo bitwise:2 --topo clique:2 --inputs 1,9").unwrap_err();
        assert!(err.contains("does not fit"), "{err}");
    }

    #[test]
    fn check_verifies_two_phase_pair() {
        let out = cli("check --algo two-phase --topo clique:2 --inputs 0,1").unwrap();
        assert!(out.contains("VERIFIED"), "{out}");
    }

    #[test]
    fn check_finds_crash_violation() {
        let out =
            cli("check --algo two-phase --topo clique:2 --inputs 0,1 --crash-budget 1").unwrap();
        assert!(out.contains("VIOLATION"), "{out}");
        assert!(out.contains("schedule"), "{out}");
    }

    #[test]
    fn check_bfs_gives_a_schedule_no_longer_than_dfs() {
        let sched_len = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("schedule ("))
                .and_then(|l| {
                    l.split_once('(')?
                        .1
                        .split_whitespace()
                        .next()?
                        .parse::<usize>()
                        .ok()
                })
                .expect("schedule length line")
        };
        let dfs =
            cli("check --algo two-phase --topo clique:2 --inputs 0,1 --crash-budget 1").unwrap();
        let bfs = cli("check --algo two-phase --topo clique:2 --inputs 0,1 --crash-budget 1 --bfs")
            .unwrap();
        assert!(sched_len(&bfs) <= sched_len(&dfs), "bfs: {bfs}\ndfs: {dfs}");
    }

    #[test]
    fn check_bfs_pins_the_minimum_crash_counterexample() {
        let out = cli("check --algo two-phase --topo clique:2 --inputs 0,1 --crash-budget 1 --bfs")
            .unwrap();
        assert!(out.contains("VIOLATION: Termination"), "{out}");
        assert!(out.contains("schedule (4 moves)"), "{out}");
    }

    #[test]
    fn check_rejects_randomized_algorithms() {
        let err = cli("check --algo ben-or --topo clique:3").unwrap_err();
        assert!(err.contains("randomized or clock-driven"), "{err}");
        assert!(err.contains("wpaxos"), "one algo table with fuzz: {err}");
    }

    /// wPAXOS is neither randomized nor clock-driven, so `check` walks
    /// it like `explore` and `fuzz` do. Its services never quiesce:
    /// the two-node space closes (safety proven, termination never
    /// judged — and the report says so), anything larger truncates.
    #[test]
    fn check_accepts_wpaxos_and_reports_honestly() {
        let out = cli("check --algo wpaxos --topo clique:2 --inputs 0,1").unwrap();
        assert!(out.contains("(0 terminal)"), "{out}");
        assert!(out.contains("VERIFIED"), "{out}");
        assert!(out.contains("termination was never judged"), "{out}");
        let out =
            cli("check --algo wpaxos --topo clique:3 --inputs 0,1,1 --max-states 2000").unwrap();
        assert!(out.contains("explored 2000 states (0 terminal)"), "{out}");
        assert!(out.contains("TRUNCATED"), "{out}");
        assert!(out.contains("cover is incomplete"), "{out}");
        assert!(!out.contains("VERIFIED"), "{out}");
        // A space with quiescent states carries no such note.
        let out = cli("check --algo two-phase --topo clique:2 --inputs 0,1").unwrap();
        assert!(!out.contains("never judged"), "{out}");
    }

    #[test]
    fn fuzz_wpaxos_clean_on_a_grid() {
        let out = cli("fuzz --algo wpaxos --topo grid:2x2 --walks 5 --seed 3").unwrap();
        assert!(out.contains("CLEAN"), "{out}");
        assert!(out.contains("5 walks (5 decided"), "{out}");
    }

    #[test]
    fn fuzz_finds_crash_violation() {
        let out = cli("fuzz --algo flood-gather --topo clique:3 --inputs 0,1,1 \
             --crash-budget 1 --walks 50 --seed 2")
        .unwrap();
        assert!(out.contains("VIOLATION: Termination"), "{out}");
    }

    #[test]
    fn fuzz_rejects_clock_driven_algorithms() {
        let err = cli("fuzz --algo fd-paxos --topo clique:3").unwrap_err();
        assert!(err.contains("randomized or clock-driven"), "{err}");
    }

    #[test]
    fn sweep_list_names_the_catalogue() {
        let out = cli("sweep --list").unwrap();
        assert!(out.contains("partition-heal"), "{out}");
        assert!(out.contains("quorum-timed-crashes"), "{out}");
        assert!(out.contains("scenario catalogue"), "{out}");
        assert!(out.contains("explored-ack-early-witness"), "{out}");
        assert!(out.contains("wpaxos-majority-loss-stall"), "{out}");
        assert!(out.contains("expects stall"), "{out}");
    }

    #[test]
    fn explore_verifies_a_clean_pair() {
        let out = cli("explore --algo two-phase --topo clique:2 --inputs 0,1").unwrap();
        assert!(out.contains("VERIFIED"), "{out}");
        assert!(out.contains("reduction dpor"), "{out}");
        let naive = cli("explore --algo two-phase --topo clique:2 --inputs 0,1 --naive").unwrap();
        assert!(naive.contains("VERIFIED"), "{naive}");
        assert!(naive.contains("reduction naive"), "{naive}");
    }

    #[test]
    fn explore_finds_seeded_bug_and_round_trips_the_counterexample() {
        let out = cli("explore --algo two-phase --topo clique:2 --inputs 0,1 --mutate ack-early")
            .unwrap();
        assert!(out.contains("mutation ack-early"), "{out}");
        assert!(out.contains("VIOLATION"), "{out}");
        assert!(out.contains("lowered scenario"), "{out}");
        assert!(out.contains("round-trip ok"), "{out}");
    }

    #[test]
    fn explore_finds_drop_releases_bug_under_a_crash_budget() {
        let out = cli("explore --algo two-phase --topo clique:3 --inputs 0,1,1 \
             --crash-budget 1 --mutate drop-releases")
        .unwrap();
        assert!(out.contains("VIOLATION: Termination"), "{out}");
        assert!(out.contains("round-trip ok"), "{out}");
    }

    #[test]
    fn explore_round_trips_a_genuine_crash_stall() {
        // No mutation: the violation is a real property of two-phase
        // (it is not crash tolerant), so the round trip gates on
        // engine byte-identity and safety rather than termination —
        // this particular stall needs the delivery-before-ack fine
        // structure scripted delays cannot pin, so the engine
        // terminates while the threaded runtime's jitter can still
        // wedge.
        let out =
            cli("explore --algo two-phase --topo clique:2 --inputs 0,1 --crash-budget 1").unwrap();
        assert!(out.contains("VIOLATION: Termination"), "{out}");
        assert!(out.contains("round-trip ok"), "{out}");
        assert!(
            out.contains("byte-identical across the engine grid"),
            "{out}"
        );
        assert!(
            out.contains("terminates under this scripted timing"),
            "{out}"
        );
    }

    #[test]
    fn explore_reports_truncation_honestly() {
        let out = cli("explore --algo two-phase --topo clique:3 --inputs 0,1,1 \
             --max-states 5")
        .unwrap();
        assert!(out.contains("TRUNCATED"), "{out}");
        assert!(out.contains("cover is incomplete"), "{out}");
        assert!(!out.contains("VERIFIED"), "{out}");
    }

    #[test]
    fn explore_rejects_bad_instances() {
        let err = cli("explore --algo ben-or --topo clique:3").unwrap_err();
        assert!(err.contains("randomized or clock-driven"), "{err}");
        let err = cli("explore --algo two-phase --topo clique:2 --inputs 0,1 --mutate late-ack")
            .unwrap_err();
        assert!(err.contains("unknown mutation"), "{err}");
    }

    /// Every verb refuses each bad instance with the one validator's
    /// message (`ScenarioAlgo::check` and its two predicates), as an
    /// `Err` — never a panic.
    #[test]
    fn bad_instances_are_refused_alike_by_every_verb() {
        let binary = "two-phase is binary; use --inputs with 0/1 values";
        let untimed = "is randomized or clock-driven";
        let clock = "fd-paxos timeouts are clock-scale dependent";
        let all = ["run", "crosscheck", "check", "fuzz", "explore"];
        let rows: [(&str, &[&str], &str); 7] = [
            (
                "--algo two-phase --topo clique:3 --inputs 0,2,1",
                &all,
                binary,
            ),
            (
                "--algo two-phase --topo clique:2 --inputs 0,2",
                &all,
                binary,
            ),
            (
                "--algo bitwise:2 --topo clique:2 --inputs 0,9",
                &all,
                "input 9 does not fit in 2 bits",
            ),
            (
                "--algo ben-or --topo clique:2",
                &["run", "crosscheck"],
                "ben-or needs n >= 3",
            ),
            (
                "--algo two-phase --topo line:3",
                &all,
                "`two-phase` is a single-hop algorithm",
            ),
            (
                "--algo ben-or --topo clique:3",
                &["check", "fuzz", "explore"],
                untimed,
            ),
            (
                "--algo fd-paxos --topo clique:3",
                &["check", "fuzz", "explore"],
                untimed,
            ),
        ];
        for (instance, verbs, message) in rows {
            for verb in verbs {
                let cmd = format!("{verb} {instance}");
                let err = cli(&cmd).expect_err(&cmd);
                assert!(err.contains(message), "{cmd}: {err}");
            }
        }
        let err = cli("crosscheck --algo fd-paxos --topo clique:3").unwrap_err();
        assert!(err.contains(clock), "{err}");
        let err = cli("check --algo ben-or --topo clique:2").unwrap_err();
        assert!(err.contains(untimed), "{err}");
    }

    /// `explore` takes every topology and every untimed algorithm the
    /// other verbs do.
    #[test]
    fn explore_runs_beyond_the_scenario_catalogue() {
        let out = cli("explore --algo flood-gather --topo star:3 --inputs 0,1,1").unwrap();
        assert!(out.contains("VERIFIED"), "{out}");
        let out = cli("explore --algo bitwise:2 --topo clique:2 --inputs 3,1").unwrap();
        assert!(out.contains("VERIFIED"), "{out}");
    }

    #[test]
    fn sweep_single_scenario_passes() {
        let out = cli("sweep --scenario sync-lockstep --seeds 1").unwrap();
        assert!(out.contains("sweep OK"), "{out}");
        assert!(out.contains("sync-lockstep"), "{out}");
        assert!(out.contains("1 runs, 1 passed, 0 failed"), "{out}");
    }

    #[test]
    fn sweep_smoke_runs_the_ci_subset() {
        let out = cli("sweep --smoke --seeds 1").unwrap();
        assert!(out.contains("sweep OK"), "{out}");
        assert!(out.contains("partition-heal"), "{out}");
        assert!(out.contains("0 failed"), "{out}");
    }

    #[test]
    fn sweep_rejects_unknown_scenarios() {
        let err = cli("sweep --scenario nope").unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
    }

    #[test]
    fn crosscheck_with_sched_and_crash() {
        let out = cli(
            "crosscheck --algo wpaxos --topo clique:5 --sched dual:2:8:3 \
             --crash slot=0,time=3 --inputs const:4 --seed 5",
        )
        .unwrap();
        assert!(out.contains("cross-check OK"), "{out}");
        assert!(out.contains("engine sched"), "{out}");
        assert!(out.contains("crashes (both backends)"), "{out}");
    }

    #[test]
    fn crosscheck_accepts_queue_core_selection() {
        let out = cli(
            "crosscheck --algo two-phase --topo clique:4 --inputs const:1 \
             --queue calendar --strict",
        )
        .unwrap();
        assert!(out.contains("cross-check OK"), "{out}");
        assert!(out.contains("engine queue core: calendar"), "{out}");
        let err = cli("crosscheck --algo wpaxos --topo clique:3 --queue fifo").unwrap_err();
        assert!(err.contains("unknown queue core"), "{err}");
    }

    #[test]
    fn sweep_row_reports_core_equivalence() {
        let out = cli("sweep --scenario multi-cut-heal --seeds 1").unwrap();
        assert!(out.contains("sweep OK"), "{out}");
        assert!(out.contains("engine grid identical"), "{out}");
        assert!(out.contains("calendar S=1 T=1"), "{out}");
    }

    #[test]
    fn sweep_row_reports_shard_equivalence_and_counters() {
        let out = cli("sweep --scenario torus-multi-cut --seeds 1").unwrap();
        assert!(out.contains("sweep OK"), "{out}");
        assert!(out.contains("engine grid identical"), "{out}");
        assert!(out.contains("heap S=2 T=1"), "{out}");
        // The counter columns are present and aligned under headers.
        for col in ["xdeliv", "windows", "skew%", "pclones"] {
            assert!(out.contains(col), "missing column {col}: {out}");
        }
    }

    #[test]
    fn run_sharded_reports_counters_and_matches_serial() {
        let serial = cli("run --algo wpaxos --topo torus:4x4 --sched random:4:9").unwrap();
        let sharded =
            cli("run --algo wpaxos --topo torus:4x4 --sched random:4:9 --shards 4").unwrap();
        assert!(
            sharded.contains("shards: 4 | cross-shard deliveries"),
            "{sharded}"
        );
        // Identical outcome line (the sharded line is extra).
        let outcome = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("outcome:"))
                .unwrap()
                .to_string()
        };
        assert_eq!(outcome(&serial), outcome(&sharded));
    }

    #[test]
    fn run_reports_the_shard_count_that_ran() {
        let out = cli("run --algo two-phase --topo clique:3 --shards 8 --threads 4").unwrap();
        assert!(out.contains("shards: 3 |"), "{out}");
        assert!(out.contains("threads: 3 |"), "{out}");
    }

    #[test]
    fn sweep_row_reports_threaded_equivalence_and_barrier_column() {
        let out = cli("sweep --scenario sync-lockstep --seeds 1").unwrap();
        assert!(out.contains("sweep OK"), "{out}");
        assert!(out.contains("engine grid identical"), "{out}");
        assert!(out.contains("heap S=4 T=4"), "{out}");
        assert!(out.contains("barrier%"), "{out}");
    }

    #[test]
    fn run_threaded_reports_worker_timers_and_matches_serial() {
        let serial = cli("run --algo wpaxos --topo torus:4x4 --sched random:4:9").unwrap();
        let threaded = cli("run --algo wpaxos --topo torus:4x4 --sched random:4:9 \
             --shards 4 --threads 2")
        .unwrap();
        assert!(threaded.contains("threads: 2 | busy"), "{threaded}");
        assert!(threaded.contains("barrier wait"), "{threaded}");
        assert!(threaded.contains("pool: spawns"), "{threaded}");
        assert!(threaded.contains("| pooled windows"), "{threaded}");
        let outcome = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("outcome:"))
                .unwrap()
                .to_string()
        };
        assert_eq!(outcome(&serial), outcome(&threaded));
    }

    #[test]
    fn crosscheck_accepts_threads() {
        let out = cli(
            "crosscheck --algo two-phase --topo clique:4 --inputs const:1 \
             --shards 2 --threads 2 --strict",
        )
        .unwrap();
        assert!(out.contains("cross-check OK"), "{out}");
        assert!(out.contains("engine threads: 2"), "{out}");
    }

    #[test]
    fn crosscheck_accepts_shards() {
        let out = cli(
            "crosscheck --algo two-phase --topo clique:4 --inputs const:1 \
             --shards 2 --strict",
        )
        .unwrap();
        assert!(out.contains("cross-check OK"), "{out}");
        assert!(out.contains("engine shards: 2"), "{out}");
        let err = cli("crosscheck --algo wpaxos --topo clique:3 --shards 0").unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn crosscheck_rejects_out_of_range_crash() {
        let err =
            cli("crosscheck --algo wpaxos --topo clique:3 --crash slot=9,time=1").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn crosscheck_rejects_strict_with_crashes() {
        let err = cli(
            "crosscheck --algo two-phase --topo clique:4 --inputs const:1 \
             --crash slot=0,time=40 --strict",
        )
        .unwrap_err();
        assert!(err.contains("unsound"), "{err}");
    }

    #[test]
    fn topo_report_includes_stats() {
        let out = cli("topo --topo barbell:4:2").unwrap();
        assert!(out.contains("n = 10"), "{out}");
        assert!(out.contains("connected = true"), "{out}");
    }

    #[test]
    fn load_list_names_the_catalogue() {
        let out = cli("load --list").unwrap();
        assert!(out.contains("load-steady-state"), "{out}");
        assert!(out.contains("load-crash-steady-state"), "{out}");
        assert!(out.contains("load-partition-backlog"), "{out}");
        assert!(out.contains("partition heals"), "{out}");
    }

    #[test]
    fn load_sweep_reports_identity_columns() {
        let out = cli("load --scenario load-steady-state --duration 4000 --rate 5").unwrap();
        assert!(out.contains("load-steady-state"), "{out}");
        assert!(out.contains("engine grid identical"), "{out}");
        assert!(out.contains("p50"), "{out}");
        assert!(out.contains("load OK"), "{out}");
    }

    #[test]
    fn load_pinned_engine_reports_the_latency_surface() {
        let out = cli("load --scenario load-steady-state --duration 4000 \
             --queue calendar --shards 2 --threads 1")
        .unwrap();
        assert!(
            out.contains("pinned engine (calendar core, S=2, T=1)"),
            "{out}"
        );
        assert!(out.contains("p50"), "{out}");
        assert!(out.contains("decided/kilotick"), "{out}");
        assert!(!out.contains("identical"), "{out}");
    }

    #[test]
    fn load_rejects_unknown_scenarios() {
        let err = cli("load --scenario nope").unwrap_err();
        assert!(err.contains("unknown load scenario"), "{err}");
    }

    #[test]
    fn crash_slot_out_of_range_is_rejected() {
        let err = cli("run --algo wpaxos --topo line:3 --crash slot=9,time=1").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn explicit_input_length_mismatch_is_rejected() {
        let err = cli("run --algo wpaxos --topo line:3 --inputs 0,1").unwrap_err();
        assert!(err.contains("2 inputs given"), "{err}");
    }
}
