//! Order-preserving fan-out of independent jobs over scoped threads —
//! the driver behind `amacl sweep`'s (scenario, seed) grid.
//!
//! Each job depends only on its seed (engines are seeded, never
//! wall-clock-dependent) and results come back **in input order**
//! regardless of which thread finished first, so a parallel sweep and
//! a serial sweep produce identical result vectors.

/// Runs `run(seed)` for every seed on up to `threads` scoped worker
/// threads and returns the results in input order. One thread (or
/// fewer) degenerates to a plain loop; panics in `run` propagate.
pub(crate) fn run_seeds<R, F>(seeds: &[u64], threads: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let threads = threads.clamp(1, seeds.len().max(1));
    if threads == 1 {
        return seeds.iter().map(|&seed| run(seed)).collect();
    }
    // Contiguous blocks keep reassembly trivially order-preserving;
    // seed workloads are statistically uniform, so stealing would buy
    // little.
    let chunk = seeds.len().div_ceil(threads);
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .chunks(chunk)
            .map(|block| scope.spawn(move || block.iter().map(|&s| run(s)).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("seed worker panicked"))
            .collect()
    })
}

/// The worker-thread count to use by default: the machine's available
/// parallelism.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amacl_core::harness::{alternating_inputs, run_wpaxos};
    use amacl_model::prelude::*;

    fn wpaxos_ticks(seed: u64) -> (u64, u64) {
        let topo = Topology::random_connected(10, 0.25, seed);
        let n = topo.len();
        let run = run_wpaxos(topo, &alternating_inputs(n), RandomScheduler::new(3, seed));
        run.check.assert_ok();
        (seed, run.decision_ticks())
    }

    #[test]
    fn parallel_sweep_matches_serial_sweep_exactly() {
        let seeds: Vec<u64> = (0..12).collect();
        let serial = run_seeds(&seeds, 1, wpaxos_ticks);
        let parallel = run_seeds(&seeds, 4, wpaxos_ticks);
        assert_eq!(serial, parallel);
        // Input order preserved.
        let order: Vec<u64> = parallel.iter().map(|r| r.0).collect();
        assert_eq!(order, seeds);
    }

    #[test]
    fn thread_count_edge_cases() {
        let seeds = [7u64];
        // More threads than seeds, and zero threads, both behave.
        assert_eq!(run_seeds(&seeds, 16, |s| s * 2), [14]);
        assert_eq!(run_seeds(&seeds, 0, |s| s * 2), [14]);
        assert!(run_seeds::<u64, _>(&[], 4, |s| s).is_empty());
    }
}
