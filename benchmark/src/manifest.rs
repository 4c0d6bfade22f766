//! The benchmark's contract in one place: workload names, metric
//! names, units, directions and bounds. `BENCHMARK.json` at the
//! repository root is generated from these tables (`--emit-manifest`)
//! and a unit test holds the committed file to them, so the names the
//! binary prints and the names the driver expects cannot drift apart.

use crate::workloads::Workload;

/// How long one run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// An end-to-end metric: what a user of `amacl run|sweep|load` sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A single layer's metric (no bound).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every end-to-end metric, reported by every workload with
/// `--trace 0`.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.20),
    e2e("events_per_sec", "1/s", "higher", 0.20),
    e2e("decisions_per_sec", "1/s", "higher", 0.20),
    e2e("decide_ticks_p50", "ticks", "lower", 0.10),
    e2e("decide_ticks_p99", "ticks", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.20),
];

/// Every per-layer metric, reported by every workload with
/// `--trace 1` (0 where the layer does not run).
pub const PER_LAYER: [PerLayer; 76] = [
    layer("topo.build_s", "s", "lower"),
    layer("topo.edges", "count", "lower"),
    layer("engine.build_s", "s", "lower"),
    layer("engine.run_s", "s", "lower"),
    layer("engine.events", "count", "lower"),
    layer("engine.events_per_sec", "1/s", "higher"),
    layer("engine.ns_per_event", "ns", "lower"),
    layer("engine.self_share", "ratio", "lower"),
    layer("engine.allocs_per_event", "count", "lower"),
    layer("engine.alloc_bytes_per_event", "B", "lower"),
    layer("engine.run_until_calls", "count", "lower"),
    layer("engine.run_until_ns_per_call", "ns", "lower"),
    layer("engine.inject_calls", "count", "lower"),
    layer("engine.inject_ns_per_call", "ns", "lower"),
    layer("queue.pushes", "count", "lower"),
    layer("queue.cancellations", "count", "lower"),
    layer("queue.bucket_overflows", "count", "lower"),
    layer("queue.depth_est", "count", "lower"),
    layer("queue.heap.hold_ns_per_op", "ns", "lower"),
    layer("queue.calendar.hold_ns_per_op", "ns", "lower"),
    layer("queue.cancel_ns_per_op", "ns", "lower"),
    layer("queue.est_share", "ratio", "lower"),
    layer("sched.plan_calls", "count", "lower"),
    layer("sched.plan_ns_per_call", "ns", "lower"),
    layer("sched.mean_fanout", "count", "lower"),
    layer("sched.share", "ratio", "lower"),
    layer("proc.on_start_ns_per_call", "ns", "lower"),
    layer("proc.on_receive_calls", "count", "lower"),
    layer("proc.on_receive_ns_per_call", "ns", "lower"),
    layer("proc.on_ack_calls", "count", "lower"),
    layer("proc.on_ack_ns_per_call", "ns", "lower"),
    layer("proc.share", "ratio", "lower"),
    layer("mac.broadcasts", "count", "lower"),
    layer("mac.deliveries", "count", "lower"),
    layer("mac.acks", "count", "lower"),
    layer("mac.crashes", "count", "lower"),
    layer("mac.busy_discards", "count", "lower"),
    layer("mac.broadcasts_per_decision", "count", "lower"),
    layer("mac.deliveries_per_broadcast", "count", "lower"),
    layer("mac.ledger_ns_per_broadcast", "ns", "lower"),
    layer("mac.est_share", "ratio", "lower"),
    layer("arena.payload_clones_per_event", "count", "lower"),
    layer("arena.payload_moves_per_event", "count", "higher"),
    layer("arena.bytes_peak", "B", "lower"),
    layer("arena.fanout_ns_per_delivery", "ns", "lower"),
    layer("arena.est_share", "ratio", "lower"),
    layer("trace.push_ns_per_record", "ns", "lower"),
    layer("trace.run_overhead_pct", "%", "lower"),
    layer("trace.bench_overhead_pct", "%", "lower"),
    layer("shard.effective_workers", "count", "higher"),
    layer("shard.cross_shard_share", "ratio", "lower"),
    layer("shard.window_advances", "count", "lower"),
    layer("shard.events_per_window", "count", "higher"),
    layer("shard.mailbox_flushes", "count", "lower"),
    layer("shard.skew", "ratio", "lower"),
    layer("shard.busy_s", "s", "lower"),
    layer("shard.barrier_wait_s", "s", "lower"),
    layer("shard.barrier_pct", "%", "lower"),
    layer("shard.supersteps", "count", "lower"),
    layer("shard.worker_wakeups", "count", "lower"),
    layer("shard.serial_shortcuts", "count", "lower"),
    layer("shard.worker_spawns", "count", "lower"),
    layer("shard.speedup_vs_serial", "ratio", "higher"),
    layer("workload.requests", "count", "higher"),
    layer("workload.requests_build_s", "s", "lower"),
    layer("workload.pending_peak", "count", "lower"),
    layer("workload.slo_max_rate", "1/kilotick", "higher"),
    layer("workload.rate2_p99_ticks", "ticks", "lower"),
    layer("workload.rate4_p99_ticks", "ticks", "lower"),
    layer("workload.rate6_p99_ticks", "ticks", "lower"),
    layer("workload.rate7_p99_ticks", "ticks", "lower"),
    layer("workload.rate8_p99_ticks", "ticks", "lower"),
    layer("workload.rate10_p99_ticks", "ticks", "lower"),
    layer("workload.crash_run_p99_ticks", "ticks", "lower"),
    layer("verify.check_s", "s", "lower"),
    layer("verify.failed_share", "ratio", "lower"),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        for m in &END_TO_END {
            assert!(
                valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for m in &PER_LAYER {
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `--emit-manifest > BENCHMARK.json`"
        );
    }
}
