//! The trace exporters and their self-checks on the template scenario's
//! two-replication bundle (the `trace_export` workload's trace):
//! writing and parsing JSONL, writing the Chrome trace and validating
//! it.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::scenario::Scenario;
use std::hint::black_box;

fn bench_exporters(c: &mut Criterion) {
    let scenario = Scenario {
        jobs: 1,
        replications: 2,
        ..Scenario::template()
    };
    let (_, bundle) = scenario.run_traced();
    let jsonl = obs::jsonl::to_jsonl(&bundle);
    let chrome = obs::chrome::to_chrome_trace(&bundle);

    let mut group = c.benchmark_group("obs");
    group.sample_size(20);
    group.bench_function("to_jsonl", |b| {
        b.iter(|| obs::jsonl::to_jsonl(black_box(&bundle)))
    });
    group.bench_function("from_jsonl", |b| {
        b.iter(|| obs::jsonl::from_jsonl(black_box(&jsonl)).expect("the JSONL parses"))
    });
    group.bench_function("to_chrome_trace", |b| {
        b.iter(|| obs::chrome::to_chrome_trace(black_box(&bundle)))
    });
    group.bench_function("validate_chrome_trace", |b| {
        b.iter(|| {
            obs::chrome::validate_chrome_trace(black_box(&chrome)).expect("the trace validates")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_exporters);
criterion_main!(benches);
