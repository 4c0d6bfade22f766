//! The engine-throughput baseline file and the CI regression gate
//! over it.
//!
//! `BENCH_engine.json` (repo root) is the committed source of truth
//! for engine throughput on the reference workload. CI reruns the
//! measurement on every PR and calls [`gate_rows`] against the
//! committed rows with a generous machine-variance tolerance: CI
//! runners are shared, noisy hardware, so the gate is not "as fast as
//! the baseline" but "not collapsed" — a real regression (an
//! accidental O(n) in the event queue, a lost cancellation path) shows
//! up as a multiple-of-x slowdown that no runner noise produces.
//!
//! The JSON is parsed with a deliberately tiny field extractor rather
//! than a serde dependency: the file is machine-written by `tables
//! bench-engine` and flat.
//!
//! Exactly one schema is understood, [`ENGINE_SCHEMA`]
//! (`amacl-bench-engine/v6`): a `rows` array with one object per
//! `(queue_core, n, shards, threads)` configuration, each carrying its
//! `events_per_sec`, the payload-arena counters (`payload_clones`,
//! `arena_bytes_peak`) and the persistent pool's wake-policy counters
//! (`superstep_count`, `worker_wakeups`). A file announcing any other
//! schema, or a row missing one of those fields, is an error — never a
//! silent default that would switch a check off. To gate against an
//! older file, regenerate it with `tables bench-engine`.

/// The one engine-baseline schema this crate writes and reads.
pub const ENGINE_SCHEMA: &str = "amacl-bench-engine/v6";

/// Extracts a numeric field's value from a flat JSON object, e.g.
/// `json_number(s, "events_per_sec")`. Returns `None` when the field
/// is missing or not a number.
pub fn json_number(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\"");
    let rest = &json[json.find(&key)? + key.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts a string field's value from a flat JSON object, e.g.
/// `json_string(s, "queue_core")`. Returns `None` when the field is
/// missing or not a quoted string.
pub fn json_string(json: &str, field: &str) -> Option<String> {
    let key = format!("\"{field}\"");
    let rest = &json[json.find(&key)? + key.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// One per-configuration row of the engine baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineRow {
    /// Queue core the row measured (`"heap"` / `"calendar"`).
    pub queue_core: String,
    /// Network size of the reference workload.
    pub n: u64,
    /// Shard count of the engine (`1` = serial).
    pub shards: u64,
    /// Worker threads stepping each conservative window (`1` =
    /// single-threaded).
    pub threads: u64,
    /// Payload-arena clones over the row's seeds (deterministic for a
    /// fixed configuration, so gated exactly).
    pub payload_clones: u64,
    /// High-water live arena payload bytes over the row's seeds
    /// (informational).
    pub arena_bytes_peak: u64,
    /// Persistent-pool supersteps over the row's seeds (informational
    /// — follows the runner's core count).
    pub superstep_count: u64,
    /// Individual pool-worker wakeups over the row's seeds
    /// (informational).
    pub worker_wakeups: u64,
    /// Measured serial throughput.
    pub events_per_sec: f64,
}

/// Extracts the per-configuration rows from an [`ENGINE_SCHEMA`]
/// baseline.
///
/// # Errors
///
/// Returns a message when the file announces any other schema, has no
/// rows, or has a row missing one of the schema's fields.
pub fn parse_rows(json: &str) -> Result<Vec<BaselineRow>, String> {
    match json_string(json, "schema") {
        Some(schema) if schema == ENGINE_SCHEMA => {}
        found => {
            return Err(format!(
                "baseline schema is {}, but only `{ENGINE_SCHEMA}` is understood — \
                 regenerate it with `tables bench-engine --out <path>`",
                found.map_or("missing".to_string(), |s| format!("`{s}`"))
            ))
        }
    }
    let mut rows = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find("\"queue_core\"") {
        let after = &rest[pos..];
        let end = after.find('}').unwrap_or(after.len());
        let chunk = &after[..end];
        let number = |field: &str| {
            json_number(chunk, field).ok_or(format!(
                "baseline row {} has no numeric `{field}` field",
                rows.len()
            ))
        };
        let row = BaselineRow {
            queue_core: json_string(chunk, "queue_core")
                .ok_or(format!("baseline row {} has no `queue_core`", rows.len()))?,
            n: number("n")? as u64,
            shards: number("shards")? as u64,
            threads: number("threads")? as u64,
            payload_clones: number("payload_clones")? as u64,
            arena_bytes_peak: number("arena_bytes_peak")? as u64,
            superstep_count: number("superstep_count")? as u64,
            worker_wakeups: number("worker_wakeups")? as u64,
            events_per_sec: number("events_per_sec")?,
        };
        rows.push(row);
        rest = &after[end..];
    }
    if rows.is_empty() {
        return Err("baseline JSON has no rows".into());
    }
    Ok(rows)
}

/// Gates every baseline row against the matching fresh row: each
/// configuration must not have collapsed below `baseline / tolerance`,
/// every baseline configuration must have been re-measured, and the
/// fresh `payload_clones` count must match **exactly** (arena clones
/// are seed-determined; drift means the payload custody protocol
/// changed, which no machine noise produces).
///
/// Returns one human-readable verdict line per row.
///
/// # Errors
///
/// Returns the [`parse_rows`] message for an unreadable baseline, or
/// the joined failure messages when any row is missing, collapsed, or
/// moved its deterministic clone count.
pub fn gate_rows(
    baseline_json: &str,
    fresh: &[BaselineRow],
    tolerance: f64,
) -> Result<Vec<String>, String> {
    assert!(tolerance >= 1.0, "tolerance must be >= 1");
    let baseline = parse_rows(baseline_json)?;
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for b in &baseline {
        let label = format!(
            "core={} n={} shards={} threads={}",
            b.queue_core, b.n, b.shards, b.threads
        );
        match fresh.iter().find(|f| {
            f.queue_core == b.queue_core && f.n == b.n && f.shards == b.shards && f.threads == b.threads
        }) {
            None => failures.push(format!("{label}: no fresh measurement")),
            Some(f) if f.payload_clones != b.payload_clones => {
                failures.push(format!(
                    "{label}: payload clone count moved: {} vs baseline {} \
                     (arena clones are seed-determined; this is a custody-protocol change, \
                     not noise)",
                    f.payload_clones, b.payload_clones
                ));
            }
            Some(f) if f.events_per_sec * tolerance < b.events_per_sec => failures.push(format!(
                "{label}: collapsed to {:.0} events/sec vs baseline {:.0} ({}x slower, tolerance {tolerance}x)",
                f.events_per_sec,
                b.events_per_sec,
                (b.events_per_sec / f.events_per_sec).round()
            )),
            Some(f) => lines.push(format!(
                "{label}: {:.0} events/sec vs baseline {:.0} ({:.2}x, tolerance {tolerance}x)",
                f.events_per_sec,
                b.events_per_sec,
                f.events_per_sec / b.events_per_sec
            )),
        }
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "amacl-bench-engine/v6",
  "workload": "wpaxos random_connected(n,p(n),seed), RandomScheduler(F_ack=4)",
  "threads": 1,
  "events_per_sec": 2500000,
  "rows": [
    {"queue_core": "heap", "n": 32, "shards": 1, "threads": 1, "payload_clones": 41000, "arena_bytes_peak": 2048, "superstep_count": 0, "worker_wakeups": 0, "serial_wall_s": 0.056, "events_per_sec": 2500000},
    {"queue_core": "heap", "n": 32, "shards": 4, "threads": 1, "payload_clones": 52000, "arena_bytes_peak": 2048, "superstep_count": 0, "worker_wakeups": 0, "serial_wall_s": 0.078, "events_per_sec": 1800000},
    {"queue_core": "heap", "n": 32, "shards": 4, "threads": 4, "payload_clones": 52000, "arena_bytes_peak": 2048, "superstep_count": 310, "worker_wakeups": 620, "serial_wall_s": 0.039, "events_per_sec": 3600000}
  ]
}"#;

    /// A fresh row matching one of [`SAMPLE`]'s configurations (same
    /// clone counts), at the given throughput.
    fn row(shards: u64, threads: u64, eps: f64) -> BaselineRow {
        BaselineRow {
            queue_core: "heap".into(),
            n: 32,
            shards,
            threads,
            payload_clones: if shards == 1 { 41_000 } else { 52_000 },
            arena_bytes_peak: 2048,
            superstep_count: 0,
            worker_wakeups: 0,
            events_per_sec: eps,
        }
    }

    #[test]
    fn json_number_extracts_fields() {
        assert_eq!(json_number(SAMPLE, "events_per_sec"), Some(2_500_000.0));
        assert_eq!(json_number(SAMPLE, "serial_wall_s"), Some(0.056));
        assert_eq!(json_number(SAMPLE, "threads"), Some(1.0));
        assert_eq!(json_number(SAMPLE, "missing"), None);
        assert_eq!(json_number(SAMPLE, "schema"), None, "string field");
        assert_eq!(
            json_string(SAMPLE, "schema").as_deref(),
            Some(ENGINE_SCHEMA)
        );
    }

    #[test]
    fn v6_rows_parse() {
        let rows = parse_rows(SAMPLE).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], row(1, 1, 2_500_000.0));
        assert_eq!(rows[1], row(4, 1, 1_800_000.0));
        assert_eq!(
            rows[2],
            BaselineRow {
                superstep_count: 310,
                worker_wakeups: 620,
                ..row(4, 4, 3_600_000.0)
            }
        );
    }

    /// The strict parser must keep accepting what CI gates against.
    #[test]
    fn committed_baseline_is_accepted() {
        let rows = parse_rows(include_str!("../../../BENCH_engine.json")).unwrap();
        assert_eq!(rows.len(), 18, "2 cores x 3 sizes x 3 (shards, threads)");
        assert!(rows.iter().all(|r| r.payload_clones > 0));
    }

    /// The last pre-v6 shape: same rows minus the pool counters. It is
    /// refused by its schema string, not parsed with zeros.
    #[test]
    fn gate_rows_rejects_a_v5_file() {
        let v5 = r#"{
  "schema": "amacl-bench-engine/v5",
  "events_per_sec": 2500000,
  "rows": [
    {"queue_core": "heap", "n": 32, "shards": 1, "threads": 1, "payload_clones": 41000, "arena_bytes_peak": 2048, "events_per_sec": 2500000}
  ]
}"#;
        let err = gate_rows(v5, &[row(1, 1, 2_500_000.0)], 3.0).unwrap_err();
        assert!(err.contains("`amacl-bench-engine/v5`"), "{err}");
        assert!(err.contains("only `amacl-bench-engine/v6`"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn gate_rejects_broken_baselines() {
        let fresh = [row(1, 1, 1.0)];
        let err = gate_rows("{}", &fresh, 3.0).unwrap_err();
        assert!(err.contains("schema is missing"), "{err}");
        let err = gate_rows(r#"{"schema": "amacl-bench-engine/v6"}"#, &fresh, 3.0).unwrap_err();
        assert!(err.contains("no rows"), "{err}");
        // A v6 label on a row that lacks a v6 field is an error, not a
        // zero that would switch the exact clone pin off.
        let err = gate_rows(
            &SAMPLE.replace("\"payload_clones\": 52000, ", ""),
            &fresh,
            3.0,
        )
        .unwrap_err();
        assert!(
            err.contains("row 1 has no numeric `payload_clones`"),
            "{err}"
        );
    }

    #[test]
    fn gate_rows_passes_within_tolerance_per_row() {
        let fresh = vec![
            row(1, 1, 900_000.0),   // 2.8x slower: within 3x
            row(4, 1, 2_000_000.0), // faster
            row(4, 4, 3_600_000.0),
        ];
        let lines = gate_rows(SAMPLE, &fresh, 3.0).unwrap();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("core=heap n=32 shards=1"), "{lines:?}");
    }

    #[test]
    fn gate_rows_fails_on_one_collapsed_row() {
        let fresh = vec![
            row(1, 1, 2_500_000.0),
            row(4, 1, 100_000.0), // 18x slower
            row(4, 4, 3_500_000.0),
        ];
        let err = gate_rows(SAMPLE, &fresh, 3.0).unwrap_err();
        assert!(err.contains("core=heap n=32 shards=4 threads=1"), "{err}");
        assert!(err.contains("collapsed"), "{err}");
        assert!(err.contains("tolerance 3"), "{err}");
    }

    #[test]
    fn gate_rows_fails_on_missing_configuration() {
        let fresh = vec![row(1, 1, 2_500_000.0), row(4, 4, 3_500_000.0)];
        let err = gate_rows(SAMPLE, &fresh, 3.0).unwrap_err();
        assert!(err.contains("shards=4 threads=1"), "{err}");
        assert!(err.contains("no fresh measurement"), "{err}");
    }

    #[test]
    fn gate_rows_distinguishes_shard_counts() {
        // Same (core, n, threads) at another shard count must not
        // satisfy a missing configuration.
        let two_shards = BaselineRow {
            shards: 2,
            ..row(4, 1, 1_800_000.0)
        };
        let fresh = vec![row(1, 1, 2_500_000.0), two_shards, row(4, 4, 3_500_000.0)];
        let err = gate_rows(SAMPLE, &fresh, 3.0).unwrap_err();
        assert!(err.contains("core=heap n=32 shards=4 threads=1"), "{err}");
    }

    #[test]
    fn gate_rows_distinguishes_thread_counts() {
        // Same (core, n, shards) at the other thread count must not
        // satisfy a missing configuration...
        let fresh = vec![row(1, 1, 2_500_000.0), row(4, 1, 1_800_000.0)];
        let err = gate_rows(SAMPLE, &fresh, 3.0).unwrap_err();
        assert!(err.contains("core=heap n=32 shards=4 threads=4"), "{err}");
        // ...and a collapse in only the threaded row is caught per-row.
        let fresh = vec![
            row(1, 1, 2_500_000.0),
            row(4, 1, 1_800_000.0),
            row(4, 4, 100_000.0), // 36x slower
        ];
        let err = gate_rows(SAMPLE, &fresh, 3.0).unwrap_err();
        assert!(err.contains("core=heap n=32 shards=4 threads=4"), "{err}");
        assert!(err.contains("collapsed"), "{err}");
    }

    #[test]
    fn gate_rows_treats_v6_pool_counters_as_informational() {
        // A fresh run whose superstep/wakeup counts differ from the
        // baseline (different core count on this runner) still gates
        // green as long as throughput and clone counts hold.
        let fresh = vec![
            row(1, 1, 2_400_000.0),
            row(4, 1, 1_700_000.0),
            BaselineRow {
                arena_bytes_peak: 4096,
                superstep_count: 17,
                worker_wakeups: 34,
                ..row(4, 4, 3_500_000.0)
            },
        ];
        assert_eq!(gate_rows(SAMPLE, &fresh, 3.0).unwrap().len(), 3);
    }

    /// The `payload_clones` pin (a v5-era field, unconditional now that
    /// every accepted row carries it).
    #[test]
    fn gate_rows_pins_v5_payload_clones_exactly() {
        // A moved clone count fails even when throughput is healthy.
        let fresh = vec![
            row(1, 1, 2_400_000.0),
            BaselineRow {
                payload_clones: 52_001,
                ..row(4, 1, 1_700_000.0)
            },
            row(4, 4, 3_500_000.0),
        ];
        let err = gate_rows(SAMPLE, &fresh, 3.0).unwrap_err();
        assert!(err.contains("payload clone count moved"), "{err}");
        assert!(err.contains("core=heap n=32 shards=4 threads=1"), "{err}");
        // Zero is a count like any other, not "unpinned".
        let zeroed = SAMPLE.replace("\"payload_clones\": 41000", "\"payload_clones\": 0");
        let err = gate_rows(&zeroed, &fresh, 3.0).unwrap_err();
        assert!(err.contains("41000 vs baseline 0"), "{err}");
    }
}
