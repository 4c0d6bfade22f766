//! One invocation = one campaign: warm up, measure set-up, run passes
//! for the time budget, cross-check the first pass against its
//! reference executions, and turn what was recorded into metrics.

use std::time::Instant;

use amacl_checker::workload::run_load;
use amacl_model::prelude::*;

use crate::probe::{timer_cost_ns, CountingAlloc, Spans};
use crate::replay;
use crate::stats::{derive_seed, littles_depth, median, nearest_rank, quartiles, ratio};
use crate::workloads::{
    open_scenarios, pass, setup_only, Mode, Pass, Recorder, Sizes, Workload, OPEN_RATES,
    OPEN_SLO_RATE, TINY,
};

/// Passes every campaign runs whatever the time budget. The
/// deterministic results (`decide_ticks_*`, the digests) are taken from
/// exactly these, so they depend on the seed and never on how fast the
/// host is.
pub const MIN_PASSES: usize = 5;
/// Set-up is repeated at least this many times and for at least
/// [`SETUP_SECONDS`], before any full-size pass; `setup_s` is the
/// median repetition. (Bursts of repetitions between the passes would
/// shrug off a host stall better, but they were tried and made
/// `peak_rss_mb` bimodal, 57 / 62 MiB on `twophase-clique-n512`: what a
/// burst frees fragments the heap the next pass allocates from.)
const SETUP_MIN_REPS: usize = 25;
const SETUP_SECONDS: f64 = 0.5;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Campaign {
    pub workload: Workload,
    pub sizes: Sizes,
    pub seed: u64,
    /// Time budget of the pass loop, seconds.
    pub seconds: f64,
    /// Per-layer run (probes on) instead of end-to-end run.
    pub traced: bool,
    /// Passes to run at least (and, with a zero budget, exactly).
    pub min_passes: usize,
}

/// What a campaign produced.
pub struct Outcome {
    /// Every output verified and every cross-check held.
    pub correct: bool,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Failed cross-checks and the first failed operation, for the log.
    pub problems: Vec<String>,
    /// `(name, value)`: every end-to-end metric, or with `traced` every
    /// per-layer metric, in manifest order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Execution digests of the first `min_passes` passes.
    pub digests: Vec<u64>,
    /// Human-readable notes printed with the metrics (sample counts,
    /// quartiles, the share breakdown).
    pub notes: Vec<String>,
    /// Passes run.
    pub passes: usize,
    /// The recorder's spans (written to the trace file when traced).
    pub spans: Spans,
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn events_per_sec(p: &Pass) -> f64 {
    ratio(p.events as f64, p.run_s)
}

/// Runs pass 0 again under another instrumentation mode or workload,
/// recording into a scratch recorder so campaign totals stay clean.
fn rerun(w: Workload, c: &Campaign, mode: Mode) -> Pass {
    pass(
        w,
        &c.sizes,
        mode,
        derive_seed(c.seed, 0),
        0,
        &mut Recorder::default(),
    )
}

/// Runs the campaign.
pub fn run(c: &Campaign) -> Outcome {
    let w = c.workload;
    let mut problems = Vec::new();
    let mut notes = Vec::new();

    // Warm-up: one untimed tiny pass faults in code and allocator arenas.
    pass(
        w,
        &TINY,
        Mode::Plain,
        derive_seed(c.seed, u64::MAX),
        0,
        &mut Recorder::default(),
    );

    // Set-up, several times over: the median is `setup_s`.
    let mut setup_samples: Vec<f64> = Vec::new();
    if !c.traced {
        let started = Instant::now();
        while setup_samples.len() < SETUP_MIN_REPS
            || started.elapsed().as_secs_f64() < SETUP_SECONDS.min(c.seconds)
        {
            setup_samples.push(setup_only(w, &c.sizes, derive_seed(c.seed, 0)));
        }
    }

    // The measured passes.
    let mode = if c.traced { Mode::Probed } else { Mode::Plain };
    let timer_cost = if c.traced { timer_cost_ns() } else { 0.0 };
    let mut rec = Recorder::default();
    let mut passes: Vec<Pass> = Vec::new();
    CountingAlloc::enable(c.traced);
    let started = Instant::now();
    while passes.len() < c.min_passes || started.elapsed().as_secs_f64() < c.seconds {
        let i = passes.len() as u64;
        passes.push(pass(
            w,
            &c.sizes,
            mode,
            derive_seed(c.seed, i),
            i as u32,
            &mut rec,
        ));
    }
    CountingAlloc::enable(false);
    let rss_mb = peak_rss_mb();

    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    if let Some(why) = passes.iter().find_map(|p| p.failure.clone()) {
        problems.push(format!(
            "{failed} of {attempted} operations failed, first: {why}"
        ));
    }
    let digests: Vec<u64> = passes.iter().take(c.min_passes).map(|p| p.digest).collect();

    // Cross-checks on pass 0: the same inputs through the reference
    // executions must give the same digest.
    let first = &passes[0];
    let plain = c.traced.then(|| rerun(w, c, Mode::Plain));
    if let Some(p) = &plain {
        if p.digest != first.digest {
            problems.push(format!(
                "traced pass 0 digest {:016x} != untraced {:016x}",
                first.digest, p.digest
            ));
        }
    }
    let serial = (w == Workload::WpaxosSharded).then(|| rerun(Workload::Wpaxos, c, Mode::Plain));
    if let Some(p) = &serial {
        if p.digest != first.digest || p.events != first.events {
            problems.push(format!(
                "sharded pass 0 (events {}, digest {:016x}) != serial (events {}, digest {:016x})",
                first.events, first.digest, p.events, p.digest
            ));
        }
    }
    let engine_traced = c.traced.then(|| rerun(w, c, Mode::EngineTrace));
    if let Some(p) = &engine_traced {
        if p.digest != first.digest || p.trace_records == 0 {
            problems.push(format!(
                "engine-traced pass 0 digest {:016x} ({} records) != {:016x}",
                p.digest, p.trace_records, first.digest
            ));
        }
    }
    if w == Workload::OpenLoop {
        let scenario = open_scenarios(&c.sizes, derive_seed(c.seed, 0))
            .into_iter()
            .find(|s| s.spec.rate_per_kilotick == OPEN_SLO_RATE && s.crash.is_none())
            .expect("the SLO rate is one of the fixed rates");
        let reference = run_load(&scenario, QueueCoreKind::Heap, 1, 1, false);
        if reference.completed != first.slo_completed {
            problems.push(format!(
                "open-loop driver completed {} requests, checker::workload::run_load {}; lists differ",
                first.slo_completed.len(),
                reference.completed.len()
            ));
        }
    }
    let k = &rec.counters;
    if w.sharding().0 == 1 {
        let shard_counters = [
            k.cross_shard_deliveries,
            k.window_advances,
            k.mailbox_flushes,
            k.worker_wakeups,
            k.supersteps,
            k.serial_shortcuts,
            k.worker_spawns,
            k.shard_busy_ns,
            k.shard_barrier_wait_ns,
            k.per_shard_events.iter().sum(),
        ];
        if shard_counters.iter().any(|&x| x != 0) {
            problems.push(format!(
                "serial workload moved shard counters: {shard_counters:?}"
            ));
        }
    }

    // Deterministic results, from the first `min_passes` passes only.
    let mut ticks: Vec<u64> = passes
        .iter()
        .take(c.min_passes)
        .flat_map(|p| p.decide_ticks.iter().copied())
        .collect();
    ticks.sort_unstable();
    let (p50, p99) = if ticks.is_empty() {
        problems.push("no decision recorded".into());
        (0, 0)
    } else {
        (nearest_rank(&ticks, 0.5), nearest_rank(&ticks, 0.99))
    };
    notes.push(format!(
        "decide_ticks: {} samples from the first {} passes",
        ticks.len(),
        c.min_passes.min(passes.len())
    ));

    let n_pass = passes.len() as f64;
    let mut eps: Vec<f64> = passes.iter().map(events_per_sec).collect();
    let eps_median = median(&mut eps);
    let (q1, q3) = quartiles(&mut eps);
    notes.push(format!(
        "events_per_sec: median of {} passes, quartiles {q1:.0} .. {q3:.0}",
        passes.len()
    ));
    notes.push(format!(
        "per pass (events, wall_s): {}",
        passes
            .iter()
            .map(|p| format!("({}, {:.3})", p.events, p.wall_s()))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let decided: u64 = passes.iter().map(|p| p.decided).sum();

    let metrics = if !c.traced {
        let mut walls: Vec<f64> = passes.iter().map(Pass::wall_s).collect();
        let mut decision_rates: Vec<f64> = passes
            .iter()
            .map(|p| ratio(p.decided as f64, p.wall_s()))
            .collect();
        vec![
            ("setup_s", median(&mut setup_samples)),
            ("wall_s", median(&mut walls)),
            ("events_per_sec", eps_median),
            ("decisions_per_sec", median(&mut decision_rates)),
            ("decide_ticks_p50", p50 as f64),
            ("decide_ticks_p99", p99 as f64),
            ("peak_rss_mb", rss_mb),
        ]
    } else {
        let plain = plain.as_ref().expect("traced campaigns rerun pass 0 plain");
        let engine_traced = engine_traced
            .as_ref()
            .expect("traced campaigns rerun pass 0 engine-traced");
        let span_s = |name: &str| rec.spans.total(name).1;
        let span_calls = |name: &str| rec.spans.total(name).0 as f64;
        let per_pass = |x: u64| x as f64 / n_pass;
        let run_s = span_s("engine.run");
        let run_ns = run_s * 1e9;
        let events = k.events as f64;
        let allocs: u64 = passes.iter().map(|p| p.allocs).sum();
        let alloc_bytes: u64 = passes.iter().map(|p| p.alloc_bytes).sum();

        let f_ack = w.f_ack();
        let core = EngineConfig::default().queue_core;
        let depth = littles_depth(k.deliveries + k.acks, (1 + f_ack) as f64 / 2.0, k.end_ticks);
        let hold_heap = replay::queue_hold_ns(QueueCoreKind::Heap, depth as u64, f_ack);
        let hold_calendar = replay::queue_hold_ns(QueueCoreKind::Calendar, depth as u64, f_ack);
        let hold = match core {
            QueueCoreKind::Heap => hold_heap,
            QueueCoreKind::Calendar => hold_calendar,
        };
        let cancel_ns = replay::queue_cancel_ns(core, depth as u64, f_ack);
        let queue_ns = events * hold + k.queue_cancellations as f64 * cancel_ns;

        let plan = rec.sched.timer();
        let sched_ns = plan.total_ns(timer_cost);
        let fanout = ratio(rec.sched.neighbors() as f64, plan.calls as f64);
        let proc_ns = rec.procs.total_ns(timer_cost);

        let nodes = match w {
            Workload::OpenLoop => 4,
            _ => c.sizes.n,
        };
        let ledger_ns = replay::ledger_broadcast_ns(nodes, fanout.round() as u32);
        let mac_ns = k.broadcasts as f64 * ledger_ns;
        let arena_ns_per_delivery = rec
            .arena_replay
            .as_ref()
            .map_or(0.0, |replay| replay(fanout.round() as u32));
        let arena_ns = k.deliveries as f64 * arena_ns_per_delivery;

        let shares = [
            ("proc.share", ratio(proc_ns, run_ns)),
            ("sched.share", ratio(sched_ns, run_ns)),
            ("queue.est_share", ratio(queue_ns, run_ns)),
            ("arena.est_share", ratio(arena_ns, run_ns)),
            ("mac.est_share", ratio(mac_ns, run_ns)),
        ];
        let self_share = 1.0 - shares.iter().map(|s| s.1).sum::<f64>();
        notes.push(format!(
            "engine.run_s breakdown: {} + engine.self_share {self_share:.3} = 1",
            shares
                .iter()
                .map(|(n, v)| format!("{n} {v:.3}"))
                .collect::<Vec<_>>()
                .join(" + ")
        ));

        let sharded = w.sharding().0 > 1;
        let if_sharded = |x: f64| if sharded { x } else { 0.0 };
        let skew = {
            let total: u64 = k.per_shard_events.iter().sum();
            let max = k.per_shard_events.iter().copied().max().unwrap_or(0);
            ratio(max as f64 * k.per_shard_events.len() as f64, total as f64)
        };
        let speedup = serial
            .as_ref()
            .map_or(0.0, |s| ratio(events_per_sec(plain), events_per_sec(s)));

        let open = w == Workload::OpenLoop;
        let requests: u64 = passes.iter().map(|p| p.requests).sum();
        let pending_peak = passes.iter().map(|p| p.pending_peak).max().unwrap_or(0);
        if open && passes.iter().any(|p| p.slo_max_rate != first.slo_max_rate) {
            notes.push(format!(
                "workload.slo_max_rate varies between passes: {:?} (pass 0 reported)",
                passes.iter().map(|p| p.slo_max_rate).collect::<Vec<_>>()
            ));
        }
        let rate_p99 = |i: usize| first.rate_p99_ticks.get(i).map_or(0.0, |&t| t as f64);
        debug_assert!(!open || first.rate_p99_ticks.len() == OPEN_RATES.len());

        vec![
            ("topo.build_s", span_s("topo.build") / n_pass),
            ("topo.edges", first.topo_edges as f64),
            ("engine.build_s", span_s("engine.build") / n_pass),
            ("engine.run_s", run_s / n_pass),
            ("engine.events", per_pass(k.events)),
            ("engine.events_per_sec", eps_median),
            ("engine.ns_per_event", ratio(run_ns, events)),
            ("engine.self_share", self_share),
            ("engine.allocs_per_event", ratio(allocs as f64, events)),
            (
                "engine.alloc_bytes_per_event",
                ratio(alloc_bytes as f64, events),
            ),
            (
                "engine.run_until_calls",
                span_calls("engine.run_until") / n_pass,
            ),
            (
                "engine.run_until_ns_per_call",
                ratio(
                    span_s("engine.run_until") * 1e9,
                    span_calls("engine.run_until"),
                ),
            ),
            ("engine.inject_calls", span_calls("engine.inject") / n_pass),
            (
                "engine.inject_ns_per_call",
                ratio(span_s("engine.inject") * 1e9, span_calls("engine.inject")),
            ),
            ("queue.pushes", per_pass(k.queue_pushes)),
            ("queue.cancellations", per_pass(k.queue_cancellations)),
            ("queue.bucket_overflows", per_pass(k.queue_bucket_overflows)),
            ("queue.depth_est", depth),
            ("queue.heap.hold_ns_per_op", hold_heap),
            ("queue.calendar.hold_ns_per_op", hold_calendar),
            ("queue.cancel_ns_per_op", cancel_ns),
            shares[2],
            ("sched.plan_calls", plan.calls as f64 / n_pass),
            ("sched.plan_ns_per_call", plan.ns_per_call(timer_cost)),
            ("sched.mean_fanout", fanout),
            shares[1],
            (
                "proc.on_start_ns_per_call",
                rec.procs.on_start.ns_per_call(timer_cost),
            ),
            (
                "proc.on_receive_calls",
                rec.procs.on_receive.calls as f64 / n_pass,
            ),
            (
                "proc.on_receive_ns_per_call",
                rec.procs.on_receive.ns_per_call(timer_cost),
            ),
            ("proc.on_ack_calls", rec.procs.on_ack.calls as f64 / n_pass),
            (
                "proc.on_ack_ns_per_call",
                rec.procs.on_ack.ns_per_call(timer_cost),
            ),
            shares[0],
            ("mac.broadcasts", per_pass(k.broadcasts)),
            ("mac.deliveries", per_pass(k.deliveries)),
            ("mac.acks", per_pass(k.acks)),
            ("mac.crashes", per_pass(k.crashes)),
            ("mac.busy_discards", per_pass(k.busy_discards)),
            (
                "mac.broadcasts_per_decision",
                ratio(k.broadcasts as f64, decided as f64),
            ),
            (
                "mac.deliveries_per_broadcast",
                ratio(k.deliveries as f64, k.broadcasts as f64),
            ),
            ("mac.ledger_ns_per_broadcast", ledger_ns),
            shares[4],
            (
                "arena.payload_clones_per_event",
                ratio(k.payload_clones as f64, events),
            ),
            (
                "arena.payload_moves_per_event",
                ratio(k.payload_moves as f64, events),
            ),
            ("arena.bytes_peak", k.arena_bytes_peak as f64),
            ("arena.fanout_ns_per_delivery", arena_ns_per_delivery),
            shares[3],
            ("trace.push_ns_per_record", replay::trace_push_ns()),
            (
                "trace.run_overhead_pct",
                (ratio(engine_traced.run_s, plain.run_s) - 1.0) * 100.0,
            ),
            (
                "trace.bench_overhead_pct",
                (ratio(first.run_s, plain.run_s) - 1.0) * 100.0,
            ),
            (
                "shard.effective_workers",
                if_sharded(w.effective_workers() as f64),
            ),
            (
                "shard.cross_shard_share",
                ratio(k.cross_shard_deliveries as f64, k.deliveries as f64),
            ),
            ("shard.window_advances", per_pass(k.window_advances)),
            (
                "shard.events_per_window",
                ratio(if_sharded(events), k.window_advances as f64),
            ),
            ("shard.mailbox_flushes", per_pass(k.mailbox_flushes)),
            ("shard.skew", skew),
            ("shard.busy_s", k.shard_busy_ns as f64 / 1e9 / n_pass),
            (
                "shard.barrier_wait_s",
                k.shard_barrier_wait_ns as f64 / 1e9 / n_pass,
            ),
            (
                "shard.barrier_pct",
                100.0
                    * ratio(
                        k.shard_barrier_wait_ns as f64,
                        (k.shard_busy_ns + k.shard_barrier_wait_ns) as f64,
                    ),
            ),
            ("shard.supersteps", per_pass(k.supersteps)),
            ("shard.worker_wakeups", per_pass(k.worker_wakeups)),
            ("shard.serial_shortcuts", per_pass(k.serial_shortcuts)),
            ("shard.worker_spawns", per_pass(k.worker_spawns)),
            ("shard.speedup_vs_serial", speedup),
            ("workload.requests", requests as f64 / n_pass),
            (
                "workload.requests_build_s",
                span_s("workload.requests") / n_pass,
            ),
            ("workload.pending_peak", pending_peak as f64),
            ("workload.slo_max_rate", first.slo_max_rate as f64),
            ("workload.rate2_p99_ticks", rate_p99(0)),
            ("workload.rate4_p99_ticks", rate_p99(1)),
            ("workload.rate6_p99_ticks", rate_p99(2)),
            ("workload.rate7_p99_ticks", rate_p99(3)),
            ("workload.rate8_p99_ticks", rate_p99(4)),
            ("workload.rate10_p99_ticks", rate_p99(5)),
            ("workload.crash_run_p99_ticks", first.crash_p99_ticks as f64),
            ("verify.check_s", span_s("verify.check") / n_pass),
            (
                "verify.failed_share",
                ratio(failed as f64, attempted as f64),
            ),
        ]
    };

    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        problems,
        metrics,
        digests,
        notes,
        passes: passes.len(),
        spans: rec.spans,
    }
}
