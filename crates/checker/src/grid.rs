//! The engine-identity grid: the one list of engine configurations
//! that must reproduce the serial-heap execution byte for byte, and
//! the one driver that checks it.
//!
//! The paper's upper bounds hold on any MAC layer; in this workspace
//! that promise is the identity contract of the discrete-event engine.
//! Queue core, shard count and worker threads are execution knobs only
//! — every configuration must produce the same trace, decisions and
//! semantic counters as the reference. [`engine_grid`] names the
//! configurations every proof covers (each queue core, each shard
//! count the sweeps exercise, and the parallel stepper), and
//! [`check_engine_grid`] runs a caller's closure once per
//! configuration, diffs each result against the reference, and names
//! the first configuration that diverges. `amacl sweep`, `amacl load`,
//! the `explore` round trip and the identity tests all go through it.

use std::fmt;

use amacl_model::mac::MacReport;
use amacl_model::sim::config::EngineConfig;
use amacl_model::sim::conformance::compare_reports;
use amacl_model::sim::queue::QueueCoreKind;

/// The grid, reference first: `(heap, S=1, T=1)`, then the calendar
/// core, the sharded engine on both cores, and the parallel stepper.
/// Seeds and crash plans are left at their defaults; they belong to
/// the workload, not to the grid.
pub fn engine_grid() -> Vec<EngineConfig> {
    use QueueCoreKind::{Calendar, Heap};
    [
        (Heap, 1, 1),
        (Calendar, 1, 1),
        (Heap, 2, 1),
        (Calendar, 4, 1),
        (Heap, 4, 4),
    ]
    .into_iter()
    .map(|(core, shards, threads)| {
        EngineConfig::new()
            .queue_core(core)
            .shards(shards)
            .threads(threads)
    })
    .collect()
}

/// Short label for an engine configuration, e.g. `calendar S=4 T=1`.
pub fn config_label(cfg: &EngineConfig) -> String {
    format!("{} S={} T={}", cfg.queue_core, cfg.shards, cfg.threads)
}

/// The first configuration whose run differed from the reference.
#[derive(Clone, Debug, PartialEq)]
pub struct GridDivergence {
    /// The diverging configuration.
    pub config: EngineConfig,
    /// What differed, as the caller's diff reported it.
    pub detail: String,
}

impl fmt::Display for GridDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "engine grid diverged at {}: {}",
            config_label(&self.config),
            self.detail
        )
    }
}

/// Runs `run` for every configuration of [`engine_grid`] and then for
/// every `extra` configuration, comparing each result with the
/// reference through `diff` (`None` means identical). Stops at the
/// first divergence and returns it next to the reference result.
///
/// Pass `reference` when the reference configuration's result is
/// already in hand (a cross-check's engine run, say); the grid then
/// skips that run.
pub fn check_engine_grid<R>(
    reference: Option<R>,
    extra: &[EngineConfig],
    mut run: impl FnMut(&EngineConfig) -> R,
    diff: impl Fn(&R, &R) -> Option<String>,
) -> (R, Result<(), GridDivergence>) {
    let grid = engine_grid();
    let (first, rest) = grid.split_first().expect("the grid is never empty");
    let reference = reference.unwrap_or_else(|| run(first));
    for cfg in rest.iter().chain(extra) {
        if let Some(detail) = diff(&reference, &run(cfg)) {
            let divergence = GridDivergence {
                config: cfg.clone(),
                detail,
            };
            return (reference, Err(divergence));
        }
    }
    (reference, Ok(()))
}

/// The [`check_engine_grid`] diff for condensed engine reports: the
/// first differing slot, or the aggregate counters.
pub fn diff_reports(reference: &MacReport, other: &MacReport) -> Option<String> {
    (reference != other).then(|| match compare_reports(reference, other) {
        Some(d) => d.to_string(),
        None => "aggregate counters differ".to_string(),
    })
}

/// The one-token verdict sweep rows print: `engine grid identical`, or
/// `DIVERGED at <config>`.
pub fn grid_token(verdict: &Result<(), GridDivergence>) -> String {
    match verdict {
        Ok(()) => "engine grid identical".to_string(),
        Err(d) => format!("DIVERGED at {}", config_label(&d.config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_starts_at_the_serial_heap_reference_and_has_no_duplicates() {
        let grid = engine_grid();
        assert_eq!(grid[0], EngineConfig::default());
        for (i, a) in grid.iter().enumerate() {
            assert!(!grid[i + 1..].contains(a), "{} twice", config_label(a));
        }
        assert!(grid.iter().any(|c| c.queue_core == QueueCoreKind::Calendar));
        assert!(grid.iter().any(|c| c.threads.get() > 1));
    }

    #[test]
    fn driver_names_the_first_diverging_config_and_reuses_the_reference() {
        let mut runs = Vec::new();
        let (reference, verdict) = check_engine_grid(
            Some(0u64),
            &[],
            |cfg| {
                runs.push(cfg.clone());
                cfg.shards.get() as u64 / 4
            },
            |a, b| (a != b).then(|| format!("{a} vs {b}")),
        );
        assert_eq!(reference, 0);
        // The reference was supplied, so the grid never re-ran it.
        assert!(!runs.contains(&EngineConfig::default()));
        let d = verdict.unwrap_err();
        assert_eq!(config_label(&d.config), "calendar S=4 T=1");
        assert_eq!(d.detail, "0 vs 1");
        assert_eq!(grid_token(&Err(d)), "DIVERGED at calendar S=4 T=1");
        // Stopped there: the parallel stepper never ran.
        assert!(runs.iter().all(|c| c.threads.get() == 1));
    }

    #[test]
    fn extra_configs_run_after_the_grid() {
        let extra = [EngineConfig::new().shards(3)];
        let mut count = 0;
        let (_, verdict) = check_engine_grid(
            None,
            &extra,
            |cfg| {
                count += 1;
                cfg.shards.get() == 3
            },
            |a, b| (a != b).then(String::new),
        );
        assert_eq!(count, engine_grid().len() + 1);
        assert_eq!(verdict.unwrap_err().config, extra[0]);
    }
}
