//! The unified engine configuration: one struct holding every knob
//! that selects *how* a simulation executes (seed, queue core, shard
//! count, worker threads, crash plan), shared by every surface that
//! builds an engine. [`SimBuilder`](super::engine::SimBuilder),
//! [`SimBackend`](crate::mac::SimBackend) and the CLI all hold an
//! [`EngineConfig`] and delegate their fluent setters to it. It is
//! always passed in explicitly; nothing reads it from the environment.
//!
//! The config deliberately covers only *execution-architecture* knobs
//! plus the crash plan: everything in it except the crash plan is
//! observably identity-preserving (traces, decisions, and semantic
//! metrics are byte-identical across queue cores, shard counts, and
//! thread counts), so swapping an `EngineConfig` for another with the
//! same seed and crash plan can change performance but never the
//! execution. Scheduler choice, topology, horizon, and tracing stay on
//! the individual builders — they *do* change the execution.

use super::crash::CrashPlan;
use super::queue::QueueCoreKind;
use super::shard::{ShardCount, ThreadCount};

/// Every execution-architecture knob an engine accepts, in one place:
/// the RNG seed, the event-queue core, the shard count, the
/// worker-thread budget, and the crash plan.
///
/// Construct with [`EngineConfig::default`] (seed 0, heap core,
/// serial, single-threaded, no crashes), then refine with the fluent
/// setters. Both [`SimBuilder`](super::engine::SimBuilder) and
/// [`SimBackend`](crate::mac::SimBackend) accept a whole config via
/// their `config(...)` method and delegate their individual fluent
/// knobs to one of these internally.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineConfig {
    /// Seed for per-node randomness, the engine RNG, and
    /// unreliable-overlay sampling.
    pub seed: u64,
    /// The event-queue core (heap or calendar); purely a performance
    /// knob, see [`QueueCoreKind`].
    pub queue_core: QueueCoreKind,
    /// Worker shards for the conservative time-window coordinator;
    /// purely an execution-architecture knob, see
    /// [`super::shard`].
    pub shards: ShardCount,
    /// Worker threads stepping each conservative window (effective
    /// parallelism is `min(threads, shards)`).
    pub threads: ThreadCount,
    /// Scheduled crash failures.
    pub crash_plan: CrashPlan,
}

impl EngineConfig {
    /// The default configuration: seed 0, heap queue core, one shard,
    /// one thread, no crashes. Identical to `EngineConfig::default()`;
    /// provided for call sites that read better with a named
    /// constructor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the event-queue core.
    pub fn queue_core(mut self, kind: QueueCoreKind) -> Self {
        self.queue_core = kind;
        self
    }

    /// Sets the shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = ShardCount::new(shards).expect("shard count must be at least 1");
        self
    }

    /// Sets the worker-thread budget.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = ThreadCount::new(threads).expect("thread count must be at least 1");
        self
    }

    /// Sets the crash plan.
    pub fn crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = plan;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_serial_heap_no_crashes() {
        let cfg = EngineConfig::new();
        assert_eq!(cfg.seed, 0);
        assert_eq!(cfg.queue_core, QueueCoreKind::Heap);
        assert_eq!(cfg.shards.get(), 1);
        assert_eq!(cfg.threads.get(), 1);
        assert!(cfg.crash_plan.specs().is_empty());
        assert_eq!(cfg, EngineConfig::default());
    }

    #[test]
    fn fluent_setters_compose() {
        let cfg = EngineConfig::new()
            .seed(7)
            .queue_core(QueueCoreKind::Calendar)
            .shards(4)
            .threads(2);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.queue_core, QueueCoreKind::Calendar);
        assert_eq!(cfg.shards.get(), 4);
        assert_eq!(cfg.threads.get(), 2);
    }

    #[test]
    #[should_panic(expected = "shard count must be at least 1")]
    fn zero_shards_rejected() {
        let _ = EngineConfig::new().shards(0);
    }

    #[test]
    #[should_panic(expected = "thread count must be at least 1")]
    fn zero_threads_rejected() {
        let _ = EngineConfig::new().threads(0);
    }
}
