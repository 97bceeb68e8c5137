//! Lazily realized platforms against the same hosts built whole.
//!
//! `PlatformSpec::realize` builds each ON/OFF host's trace only up to a
//! frontier at `REALIZED_SHARE` of the horizon, and the rest the first
//! time a query reads past it. Here the figures' workloads run on such
//! platforms and on the same hosts generated to the horizon and built
//! through `Host::new`, and must give the same results and traces: a
//! fig6-style 1 GB SWAP/CR run, which makes some hosts whole, a
//! fig4-style run, which makes none, and a nested replication whose
//! concurrent sub-tasks cross the frontier on shared cached platforms.

use loadmodel::OnOffSource;
use simkit::pool::{install, WorkerPool};
use simkit::rng::stream_rng;
use simulator::platform::{Host, LoadSpec, Platform, PlatformSpec, REALIZED_SHARE};
use simulator::runner::{enter_cell, RealizationCache, Replication};
use simulator::strategies::{Cr, Dlb, Nothing, RunContext, Strategy, Swap};
use simulator::AppSpec;
use std::sync::Arc;

/// The figures' platform at ON/OFF duty cycle `duty`.
fn spec(duty: f64) -> PlatformSpec {
    PlatformSpec {
        horizon: 150_000.0,
        ..PlatformSpec::hpdc03(LoadSpec::OnOff(OnOffSource::for_duty_cycle(
            duty, 0.08, 30.0,
        )))
    }
}

/// The platform `spec.realize(seed)` describes, with every host's trace
/// generated to the horizon and built through `Host::new`.
fn eager(spec: &PlatformSpec, seed: u64) -> Platform {
    let LoadSpec::OnOff(source) = spec.load else {
        panic!("an ON/OFF spec")
    };
    let (lo, hi) = spec.speed_range;
    let hosts = (0..spec.n_hosts)
        .map(|i| {
            let mut rng = stream_rng(seed, i as u64);
            let speed = rand::Rng::gen_range(&mut rng, lo..hi);
            Host::new(speed, source.generate(spec.horizon, &mut rng))
        })
        .collect();
    Platform {
        hosts,
        link: spec.link,
        startup_per_process: spec.startup_per_process,
    }
}

/// The paper's application with `n_active` processes of `state_bytes`
/// and the figures' 50 iterations.
fn app(n_active: usize, state_bytes: f64) -> AppSpec {
    let mut app = AppSpec::hpdc03(n_active, state_bytes);
    app.iterations = 50;
    app
}

/// One traced run on all 32 hosts: its result, its trace and every
/// host's load breakpoints up to the run's end, as the runner reads them
/// for `LoadChange` events. Debug text prints every `f64` exactly.
fn run(platform: &Platform, app: &AppSpec, strategy: &dyn Strategy) -> [String; 3] {
    let collector = obs::Collector::new();
    let result = strategy.run(&RunContext::new(platform, app, 32).with_trace(&collector));
    let end = result.execution_time;
    let loads: Vec<Vec<(f64, f64)>> = platform
        .hosts
        .iter()
        .map(|h| {
            let points = h.cpu.load_through(end).points();
            points
                .iter()
                .copied()
                .take_while(|&(t, _)| t <= end)
                .collect()
        })
        .collect();
    [
        format!("{result:?}"),
        format!("{:?}", collector.into_trace()),
        format!("{loads:?}"),
    ]
}

/// Runs every strategy on the lazy and the eager platform of each seed
/// (one platform per seed for all strategies, as the realization cache
/// shares them) and returns the number of hosts made whole.
fn same_as_eager(spec: &PlatformSpec, app: &AppSpec, strategies: &[&dyn Strategy]) -> usize {
    let frontier = spec.horizon * REALIZED_SHARE;
    let mut whole = 0;
    for seed in 0..3 {
        let (lazy, eager) = (spec.realize(seed), eager(spec, seed));
        for s in strategies {
            let got = run(&lazy, app, *s);
            let want = run(&eager, app, *s);
            for (what, (g, w)) in ["result", "trace", "load"]
                .iter()
                .zip(got.iter().zip(&want))
            {
                assert!(g == w, "{} seed {seed}: {what} differs", s.name());
            }
        }
        for h in &lazy.hosts {
            let through = h.cpu.realized_through();
            assert!(through == frontier || through == f64::INFINITY);
            whole += usize::from(through == f64::INFINITY);
        }
    }
    whole
}

#[test]
fn large_state_runs_make_hosts_whole_and_match_eager_hosts() {
    let whole = same_as_eager(
        &spec(0.3),
        &app(4, 1.0e9),
        &[&Swap::greedy(), &Cr::greedy()],
    );
    assert!(whole > 0, "no 1 GB run read past the frontier");
}

#[test]
fn small_state_runs_stay_below_the_frontier_and_match_eager_hosts() {
    let whole = same_as_eager(
        &spec(0.5),
        &app(4, 1.0e6),
        &[&Nothing, &Swap::greedy(), &Dlb, &Cr::greedy()],
    );
    assert_eq!(whole, 0, "a 1 MB run read past the frontier");
}

#[test]
fn nested_sub_tasks_crossing_the_frontier_together_match_eager_hosts() {
    let (spec, app, cr) = (spec(0.3), app(4, 1.0e9), Cr::greedy());
    // Each seed three times, one sub-task per run: the three workers run
    // one cached platform at once and cross its frontier together.
    let seeds = [0, 0, 0, 1, 1, 1];
    let request = Replication::new(&spec, &app, &cr, 32, &seeds);
    let (serial, serial_traces) = request.run_traced();
    let pool = Arc::new(WorkerPool::new(3));
    let _installed = install(&pool, 0);
    let cache = Arc::new(RealizationCache::new());
    let cell = enter_cell(seeds.len(), Some(Arc::clone(&cache)));
    let (nested, nested_traces) = request.run_traced();
    let report = cell.report();
    assert_eq!(report.nested_jobs, seeds.len());
    assert_eq!((report.cache_misses, report.cache_hits), (2, 4));
    assert!(nested_traces == serial_traces, "nested traces differ");
    for ((seed, got), want) in seeds.iter().zip(&nested.runs).zip(&serial.runs) {
        let eager = eager(&spec, *seed);
        let reference = cr.run(&RunContext::new(&eager, &app, 32));
        let reference = format!("{reference:?}");
        assert!(got.execution_time > spec.horizon * REALIZED_SHARE);
        assert!(
            format!("{got:?}") == reference,
            "seed {seed}: nested run differs"
        );
        assert!(
            format!("{want:?}") == reference,
            "seed {seed}: serial run differs"
        );
    }
}
