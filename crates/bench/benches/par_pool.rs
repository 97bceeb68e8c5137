//! Pooled vs per-call parallel map on the shapes the experiment engine
//! actually runs.
//!
//! The `ablations`/`extensions` commands issue many *small* sweeps back
//! to back. `simkit::pool::map_stats` with no pool installed builds a
//! `WorkerPool` for each call (spawning and joining its workers), while
//! a persistent `WorkerPool` pays that once. This group guards the
//! amortization: `many_small_sweeps/pooled` should not regress against
//! `many_small_sweeps/per_call`, and a real ablation generator is
//! benchmarked both ways, per-call and through the thread-local pool
//! installation the cross-figure scheduler uses.

use bench::bench_scale;
use criterion::{criterion_group, criterion_main, Criterion};
use experiments::ablations;
use simkit::pool::WorkerPool;
use std::sync::Arc;

/// A unit of per-item work comparable to a tiny simulation cell: enough
/// arithmetic that the map overhead does not dominate entirely, small
/// enough that spawn costs show.
fn cell(seed: usize) -> f64 {
    let mut acc = seed as f64 + 1.0;
    for i in 0..2_000 {
        acc = (acc * 1.000_000_1 + i as f64).sqrt() + 1.0;
    }
    acc
}

/// The many-small-sweeps shape: 32 back-to-back sweeps of 16 tiny items
/// each, like the ablation battery at quick scale.
const ROUNDS: usize = 32;
const ITEMS: usize = 16;
const JOBS: usize = 4;

fn bench_many_small_sweeps(c: &mut Criterion) {
    let items: Vec<usize> = (0..ITEMS).collect();
    let mut group = c.benchmark_group("par_pool");
    group.sample_size(10);

    group.bench_function("many_small_sweeps/per_call", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for _ in 0..ROUNDS {
                let (ys, _) = simkit::pool::map_stats(&items, JOBS, |_, &s| cell(s));
                sum += ys.iter().sum::<f64>();
            }
            std::hint::black_box(sum)
        })
    });

    group.bench_function("many_small_sweeps/pooled", |b| {
        let pool = WorkerPool::new(JOBS);
        b.iter(|| {
            let mut sum = 0.0;
            for _ in 0..ROUNDS {
                let (ys, _) = pool.map_stats(0, &items, |_, &s| cell(s));
                sum += ys.iter().sum::<f64>();
            }
            std::hint::black_box(sum)
        })
    });

    group.finish();
}

fn bench_ablation_through_pool(c: &mut Criterion) {
    let mut scale = bench_scale();
    scale.jobs = 2;
    let mut group = c.benchmark_group("par_pool");
    group.sample_size(10);

    group.bench_function("ablation_history/per_call", |b| {
        b.iter(|| std::hint::black_box(ablations::ablation_history(&scale)))
    });

    group.bench_function("ablation_history/pooled", |b| {
        let pool = Arc::new(WorkerPool::new(2));
        let _install = simkit::pool::install(&pool, 0);
        b.iter(|| std::hint::black_box(ablations::ablation_history(&scale)))
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_many_small_sweeps,
    bench_ablation_through_pool
);
criterion_main!(benches);
