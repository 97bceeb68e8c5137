//! Microbenchmarks of the simulation substrate's hot paths.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use loadmodel::{DegenerateHyperExp, HyperExpWorkload, OnOffSource};
use simkit::link::{Flow, FluidLink, SharedLink};
use simkit::rng::rng;
use simkit::Timeline;
use simulator::platform::{LoadSpec, PlatformSpec};
use simulator::strategies::{RunContext, Strategy, Swap};
use simulator::AppSpec;
use swap_core::{
    DecisionEngine, HistoryWindow, PerfHistory, PolicyParams, Predictor, ProcessorSnapshot,
    SwapCost,
};

fn timeline_with_segments(n: usize) -> Timeline {
    Timeline::from_points((0..n).map(|i| (i as f64 * 10.0, ((i % 3) + 1) as f64)))
}

fn bench_timeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("timeline");
    for &segments in &[16usize, 256, 4096] {
        let tl = timeline_with_segments(segments);
        let horizon = segments as f64 * 10.0;
        group.bench_function(format!("integrate/{segments}"), |b| {
            b.iter(|| std::hint::black_box(tl.integrate(horizon * 0.1, horizon * 0.9)))
        });
        group.bench_function(format!("advance/{segments}"), |b| {
            b.iter(|| std::hint::black_box(tl.advance(horizon * 0.1, horizon)))
        });
        group.bench_function(format!("value_at/{segments}"), |b| {
            b.iter(|| std::hint::black_box(tl.value_at(horizon * 0.5)))
        });
    }
    group.finish();
}

fn bench_link(c: &mut Criterion) {
    let mut group = c.benchmark_group("fluid_link");
    // 512 flows is where the old rescan-per-event solver went
    // quadratic; the sort-once sweep keeps it near-linear.
    for &flows in &[4usize, 32, 128, 512] {
        let link = FluidLink::new(SharedLink::hpdc03_lan());
        let spec: Vec<Flow> = (0..flows)
            .map(|i| Flow {
                start: i as f64 * 0.1,
                bytes: 1e6 + i as f64 * 1e4,
            })
            .collect();
        group.bench_function(format!("completion_times/{flows}"), |b| {
            b.iter(|| std::hint::black_box(link.completion_times(&spec)))
        });
    }
    group.finish();
}

fn bench_loadgen(c: &mut Criterion) {
    let mut group = c.benchmark_group("loadgen");
    group.bench_function("onoff_150k_s", |b| {
        b.iter_batched(
            || rng(1),
            |mut r| {
                std::hint::black_box(
                    OnOffSource::for_duty_cycle(0.5, 0.08, 30.0).generate(150_000.0, &mut r),
                )
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("hyperexp_150k_s", |b| {
        let w = HyperExpWorkload::new(DegenerateHyperExp::new(600.0, 0.4), 1.0 / 600.0);
        b.iter_batched(
            || rng(2),
            |mut r| std::hint::black_box(w.generate(150_000.0, &mut r)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Whole-platform realization as the figures do it: 32 hosts at the
/// 150 ks horizon. An ON/OFF host is built up to its frontier (1/16 of
/// the horizon) and whole only when a query reads past that, so three
/// arms time it: realization alone, realization with every host then
/// made whole (what a run that reads far pays), and the first query
/// past one host's frontier (what making one host whole costs).
fn bench_realize(c: &mut Criterion) {
    let mut group = c.benchmark_group("realize");
    let platform = |load| PlatformSpec {
        horizon: 150_000.0,
        ..PlatformSpec::hpdc03(load)
    };
    let onoff = platform(LoadSpec::OnOff(OnOffSource::for_duty_cycle(
        0.5, 0.08, 30.0,
    )));
    let hyperexp = platform(LoadSpec::HyperExp(HyperExpWorkload::new(
        DegenerateHyperExp::new(600.0, 0.4),
        1.0 / 600.0,
    )));
    group.bench_function("onoff_32_hosts_150k_s", |b| {
        b.iter(|| std::hint::black_box(onoff.realize(1)))
    });
    group.bench_function("onoff_32_hosts_150k_s_whole", |b| {
        b.iter(|| {
            let platform = onoff.realize(1);
            for host in &platform.hosts {
                std::hint::black_box(host.cpu.availability());
            }
            platform
        })
    });
    group.bench_function("onoff_host_first_query_past_frontier", |b| {
        b.iter_batched(
            || onoff.realize(1),
            |platform| {
                let t = onoff.horizon / 2.0;
                std::hint::black_box(platform.hosts[0].delivered_at(t));
                platform
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("hyperexp_32_hosts_150k_s", |b| {
        b.iter(|| std::hint::black_box(hyperexp.realize(2)))
    });
    group.finish();
}

fn bench_decision(c: &mut Criterion) {
    let mut group = c.benchmark_group("decision_engine");
    for &procs in &[8usize, 32, 128] {
        let snapshots: Vec<ProcessorSnapshot> = (0..procs)
            .map(|i| ProcessorSnapshot {
                id: i,
                active: i < procs / 4,
                predicted_perf: 1e8 + (i as f64 * 7919.0) % 3e8,
            })
            .collect();
        let engine = DecisionEngine::new(PolicyParams::greedy(), SwapCost::new(1e-4, 6e6));
        group.bench_function(format!("greedy_decide/{procs}"), |b| {
            b.iter(|| std::hint::black_box(engine.decide(&snapshots, 60.0, 1e6)))
        });
    }
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    // `predict` runs once per processor per decision point, so its cost
    // scales with history length × processors × iterations. It now
    // streams over the windowed range in place (thread-local scratch for
    // the order-statistic predictors) instead of building two Vecs per
    // call; this group guards that property.
    let mut group = c.benchmark_group("perf_history_predict");
    for &samples in &[16usize, 256, 2048] {
        let now = samples as f64 * 30.0;
        let window = HistoryWindow::seconds(now); // keep every sample in range
        let mut h = PerfHistory::new(window);
        for i in 0..samples {
            h.record(i as f64 * 30.0, 1e8 + (i as f64 * 7919.0) % 3e8);
        }
        let predictors = [
            ("mean", Predictor::WindowedMean),
            ("median", Predictor::WindowedMedian),
            ("ewma", Predictor::Ewma(0.5)),
            ("tw_mean", Predictor::TimeWeightedMean),
            ("nws", Predictor::Nws),
        ];
        for (name, p) in predictors {
            group.bench_function(format!("{name}/{samples}"), |b| {
                b.iter(|| std::hint::black_box(h.predict(p, window, now)))
            });
        }
    }
    group.finish();
}

fn bench_full_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_run");
    group.sample_size(10);
    let spec = PlatformSpec::hpdc03(LoadSpec::OnOff(OnOffSource::for_duty_cycle(
        0.5, 0.08, 30.0,
    )));
    let app = AppSpec::hpdc03(4, 1e6);
    group.bench_function("swap_greedy_50_iters_32_hosts", |b| {
        b.iter_batched(
            || spec.realize(0),
            |platform| {
                let ctx = RunContext::new(&platform, &app, 32);
                std::hint::black_box(Swap::greedy().run(&ctx))
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_timeline,
    bench_link,
    bench_loadgen,
    bench_realize,
    bench_decision,
    bench_predict,
    bench_full_run
);
criterion_main!(benches);
