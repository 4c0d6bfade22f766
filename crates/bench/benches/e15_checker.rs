//! E15: exhaustive model checking throughput — how fast the explorer
//! covers the full scheduler space of small instances, and the cost of
//! adding a crash budget to the explored adversary.

use amacl_checker::{MacExploreConfig, MacExplorer, SearchOrder};
use amacl_core::two_phase::TwoPhase;
use amacl_model::machine::LedgerMutation;
use amacl_model::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn explore(n: usize, crash_budget: usize) -> u64 {
    let inputs: Vec<Value> = (0..n).map(|i| (i % 2) as Value).collect();
    let procs: Vec<TwoPhase> = inputs.iter().map(|&v| TwoPhase::new(v)).collect();
    let explorer = MacExplorer::new(
        Topology::clique(n),
        procs,
        inputs,
        crash_budget,
        LedgerMutation::None,
    );
    let out = explorer.run(&MacExploreConfig {
        max_violations: usize::MAX,
        ..MacExploreConfig::naive(SearchOrder::Dfs)
    });
    black_box(out.states)
}

fn bench_e15(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_exhaustive_checking");
    group.sample_size(10);
    for n in [2usize, 3] {
        group.bench_with_input(BenchmarkId::new("two_phase_clique", n), &n, |b, &n| {
            b.iter(|| explore(n, 0));
        });
    }
    group.bench_function("two_phase_clique2_crash1", |b| {
        b.iter(|| explore(2, 1));
    });
    group.finish();
}

criterion_group!(benches, bench_e15);
criterion_main!(benches);
