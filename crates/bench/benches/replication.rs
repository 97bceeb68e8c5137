//! The replication hot path: nested seed-level fan-out and the shared
//! realization cache.
//!
//! `seed_fanout` guards the cell-scope plumbing: running the per-seed
//! loop through an installed pool as nested sub-tasks must not cost
//! more than the serial loop (and wins wall-clock on multi-core hosts).
//! `tournament_cell` measures the realization cache on the shape that
//! motivated it — a 4-series policy-tournament cell where every series
//! replays the same `(platform, fault plan, seed)` realizations: the
//! cached run realizes each input once and the paired series hit.

use criterion::{criterion_group, criterion_main, Criterion};
use loadmodel::OnOffSource;
use simulator::platform::{LoadSpec, PlatformSpec};
use simulator::runner::{enter_cell, RealizationCache, Replication};
use simulator::strategies::Swap;
use simulator::AppSpec;
use std::sync::Arc;

fn loaded_spec() -> PlatformSpec {
    PlatformSpec {
        n_hosts: 16,
        speed_range: (2.0e8, 4.0e8),
        link: simkit::link::SharedLink::hpdc03_lan(),
        startup_per_process: 0.75,
        load: LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.5, 0.25, 20.0)),
        horizon: 50_000.0,
    }
}

fn app() -> AppSpec {
    let mut app = AppSpec::hpdc03(4, 1.0e6);
    app.iterations = 10;
    app
}

const SEEDS: usize = 6;

fn bench_seed_fanout(c: &mut Criterion) {
    let spec = loaded_spec();
    let app = app();
    let seeds: Vec<u64> = (0..SEEDS as u64).collect();
    let mut group = c.benchmark_group("replication");
    group.sample_size(10);

    group.bench_function("seed_fanout/serial", |b| {
        b.iter(|| {
            std::hint::black_box(Replication::new(&spec, &app, &Swap::greedy(), 16, &seeds).run())
        })
    });

    group.bench_function("seed_fanout/nested", |b| {
        let pool = Arc::new(simkit::pool::WorkerPool::new(4));
        let _install = simkit::pool::install(&pool, 0);
        let _cell = enter_cell(4, None);
        b.iter(|| {
            std::hint::black_box(Replication::new(&spec, &app, &Swap::greedy(), 16, &seeds).run())
        })
    });

    group.finish();
}

/// One 4-series tournament cell (the `ext_policies` shape): two
/// placements per fault regime, every series replicating the same seeds.
fn tournament_cell(spec: &PlatformSpec, app: &AppSpec, seeds: &[u64]) -> f64 {
    let cells = [
        (policy::PlacementChoice::FirstAlive, false),
        (policy::PlacementChoice::MtbfAware, false),
        (policy::PlacementChoice::FirstAlive, true),
        (policy::PlacementChoice::RackAware, true),
    ];
    let mut acc = 0.0;
    for (placement, shocks) in cells {
        let fs = if shocks {
            faults::FaultSpec::correlated_shocks(4, 2_000.0, 900.0, 0.8, 0)
        } else {
            faults::FaultSpec {
                host_mtbf_spread: 8.0,
                ..faults::FaultSpec::crashes_only(2_000.0, 0)
            }
        };
        let ps = policy::PolicyConfig::for_placement(placement).build(fs.shock_window_secs);
        acc += Replication::new(spec, app, &Swap::safe(), 16, seeds)
            .with_faults(&fs)
            .with_policies(&ps)
            .run()
            .execution_time
            .mean;
    }
    acc
}

fn bench_tournament_cell(c: &mut Criterion) {
    let spec = loaded_spec();
    let app = app();
    let seeds: Vec<u64> = (0..SEEDS as u64).collect();
    let mut group = c.benchmark_group("replication");
    group.sample_size(10);

    group.bench_function("tournament_cell/uncached", |b| {
        b.iter(|| std::hint::black_box(tournament_cell(&spec, &app, &seeds)))
    });

    group.bench_function("tournament_cell/cached", |b| {
        b.iter(|| {
            // Fresh cache per cell, exactly as `grid_sweep` shares one
            // per figure: the first series of each regime realizes, the
            // paired series hit.
            let cache = Arc::new(RealizationCache::new());
            let _cell = enter_cell(1, Some(cache));
            std::hint::black_box(tournament_cell(&spec, &app, &seeds))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_seed_fanout, bench_tournament_cell);
criterion_main!(benches);
