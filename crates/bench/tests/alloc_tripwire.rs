//! Allocation-count regression tripwire for the engine hot path.
//!
//! This integration-test binary installs a counting `#[global_allocator]`
//! wrapper around the system allocator (integration tests are separate
//! binaries, so the wrapper never leaks into other test executables or
//! shipped code) and measures allocator calls per engine event on the
//! n = 512 reference workload. It is a **tripwire, not a benchmark**:
//! wall-clock never participates, only deterministic allocator-call
//! counts, so the assertion is stable on any machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use amacl_core::harness::{alternating_inputs, run_wpaxos_on};
use amacl_model::prelude::*;

/// Counts every allocation and reallocation routed through the global
/// allocator. Deallocations are not counted: the tripwire watches
/// allocator *pressure* on the hot path, and frees mirror allocs.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// The n = 512 reference workload the ceiling was recorded on: wPAXOS
/// over `random_connected(512, 0.02, seed)` (mean degree ~10, so the
/// run exercises the queue rather than quadratic fan-out) under the
/// random scheduler with `F_ack = 4`. Returns the events processed.
fn workload(core: QueueCoreKind, seed: u64) -> u64 {
    let n = 512;
    let topo = Topology::random_connected(n, 0.02, seed);
    let run = run_wpaxos_on(
        topo,
        &alternating_inputs(n),
        RandomScheduler::new(4, seed),
        core,
    );
    run.check.assert_ok();
    run.report.metrics.events
}

/// Allocator calls per event ×1000 (fixed-point so the recorded
/// ceiling is an integer) for one serial n = 512 reference run.
fn milli_allocs_per_event(core: QueueCoreKind) -> (u64, u64) {
    // Warm-up run: page in code paths and let the allocator settle so
    // the measured run reflects steady state.
    let _ = workload(core, 0);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let events = workload(core, 0);
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert!(events > 1_000_000, "n=512 run is implausibly small");
    ((after - before) * 1000 / events, events)
}

/// Allocator calls per event ×1000 measured on the pre-arena engine
/// (deep-cloned payload custody, array-of-structs queue entries,
/// `Vec<TraceEvent>` trace), recorded so the assertion below states
/// the memory-lean layout's win as a hard floor rather than a
/// benchmark anecdote.
const PRE_ARENA_MILLI_ALLOCS: &[(QueueCoreKind, u64)] =
    &[(QueueCoreKind::Heap, 829), (QueueCoreKind::Calendar, 835)];

/// The arena + structure-of-arrays + trace-ring layout must hold at
/// least a 2x reduction in allocator calls per event against the
/// recorded pre-arena ceiling. (Measured ~6x at the time of the
/// change — 134/140 milli-allocs per event — so this trips on a real
/// regression, not on noise; the counts are deterministic.)
#[test]
fn allocations_per_event_stay_at_least_2x_below_prearena_ceiling() {
    for &(core, ceiling) in PRE_ARENA_MILLI_ALLOCS {
        let (milli, events) = milli_allocs_per_event(core);
        eprintln!(
            "{core}: {milli} milli-allocs/event over {events} events ({:.3} allocs/event, \
             pre-arena ceiling {ceiling})",
            milli as f64 / 1000.0
        );
        assert!(
            milli <= ceiling / 2,
            "{core} core: {milli} milli-allocs/event exceeds half the pre-arena ceiling \
             ({ceiling} / 2 = {}): the hot path regressed into per-event allocations",
            ceiling / 2
        );
    }
}
