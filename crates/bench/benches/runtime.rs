//! Microbenchmarks of the live (thread-based) runtime: collective
//! latency, swap-cycle cost, and end-to-end small runs.

use criterion::{criterion_group, criterion_main, Criterion};
use minimpi::apps::JacobiApp;
use minimpi::comm::{Router, SlotComm};
use minimpi::runtime::{run_iterative, Decider, RuntimeConfig};
use std::sync::Arc;
use std::thread;

/// Runs `f` on `n` communicator threads and waits for all of them.
fn with_comm(n: usize, f: impl Fn(usize, &mut SlotComm) + Send + Sync + 'static) {
    let (router, rxs) = Router::new(n);
    let f = Arc::new(f);
    let handles: Vec<_> = rxs
        .into_iter()
        .enumerate()
        .map(|(slot, rx)| {
            let router = router.clone();
            let f = Arc::clone(&f);
            thread::spawn(move || {
                let mut comm = SlotComm::new(slot, router, rx);
                f(slot, &mut comm);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("bench worker panicked");
    }
}

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("minimpi_collectives");
    group.sample_size(10);
    for &n in &[2usize, 4, 8] {
        group.bench_function(format!("barrier_x100/{n}"), |b| {
            b.iter(|| {
                with_comm(n, |_rank, comm| {
                    for _ in 0..100 {
                        comm.barrier();
                    }
                })
            })
        });
        group.bench_function(format!("allreduce_x100/{n}"), |b| {
            b.iter(|| {
                with_comm(n, |rank, comm| {
                    let mut acc = rank as f64;
                    for _ in 0..100 {
                        acc = comm.allreduce(&acc, |a, b| a + b);
                    }
                    std::hint::black_box(acc);
                })
            })
        });
    }
    group.finish();
}

fn bench_swap_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("minimpi_runtime");
    group.sample_size(10);

    // Full run, no swapping: baseline for the swap overhead measurement.
    group.bench_function("jacobi_20_iters_no_swap", |b| {
        b.iter(|| {
            std::hint::black_box(run_iterative(
                RuntimeConfig::new(2, 2, 20),
                JacobiApp { cells_per_rank: 64 },
            ))
        })
    });

    // Same run with a forced swap after every iteration: the difference
    // is ~20 full state+endpoint transfer cycles.
    group.bench_function("jacobi_20_iters_swap_every", |b| {
        b.iter(|| {
            let mut cfg = RuntimeConfig::new(4, 2, 20);
            cfg.decider = Decider::ForceEvery(1);
            std::hint::black_box(run_iterative(cfg, JacobiApp { cells_per_rank: 64 }))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_collectives, bench_swap_cycle);
criterion_main!(benches);
