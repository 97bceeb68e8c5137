//! Property test for the deterministic parallel runner: for *arbitrary*
//! platforms, applications, strategies and seed sets, fanning the
//! replications over worker threads must reproduce the serial result
//! bit for bit.

use mpi_swap::loadmodel::OnOffSource;
use mpi_swap::simulator::platform::{LoadSpec, PlatformSpec};
use mpi_swap::simulator::runner::Replication;
use mpi_swap::simulator::strategies::{Cr, Dlb, Nothing, Strategy, Swap};
use mpi_swap::simulator::AppSpec;
use proptest::prelude::*;

// `Strategy` clashes with simulator::strategies::Strategy; alias the
// proptest trait.
use proptest::strategy::Strategy as Strategy2;

#[derive(Debug, Clone)]
struct Config {
    n_hosts: usize,
    n_active: usize,
    iterations: usize,
    duty: f64,
    seeds: Vec<u64>,
    strategy_pick: u8,
    jobs: usize,
}

fn config_strategy() -> impl Strategy2<Value = Config> {
    (
        4usize..10,                            // n_hosts
        1usize..4,                             // n_active
        2usize..6,                             // iterations
        0.0f64..0.9,                           // duty
        prop::collection::vec(0u64..40, 1..8), // seed set (any size, dups allowed)
        0u8..4,                                // strategy selector
        2usize..9,                             // parallel jobs
    )
        .prop_map(
            |(n_hosts, n_active, iterations, duty, seeds, strategy_pick, jobs)| Config {
                n_hosts,
                n_active: n_active.min(n_hosts),
                iterations,
                duty,
                seeds,
                strategy_pick,
                jobs,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_replication_matches_serial_bit_for_bit(cfg in config_strategy()) {
        let spec = PlatformSpec {
            n_hosts: cfg.n_hosts,
            speed_range: (1e8, 4e8),
            link: mpi_swap::simkit::link::SharedLink::hpdc03_lan(),
            startup_per_process: 0.75,
            load: LoadSpec::OnOff(OnOffSource::for_duty_cycle(cfg.duty, 0.08, 20.0)),
            horizon: 200_000.0,
        };
        let app = AppSpec {
            n_active: cfg.n_active,
            iterations: cfg.iterations,
            flops_per_proc_iter: 1e9,
            bytes_per_proc_iter: 1e5,
            process_state_bytes: 1e6,
        };
        let strategy: Box<dyn Strategy> = match cfg.strategy_pick {
            0 => Box::new(Nothing),
            1 => Box::new(Dlb),
            2 => Box::new(Swap::greedy()),
            _ => Box::new(Cr::greedy()),
        };
        let alloc = cfg.n_hosts;

        let request = Replication::new(&spec, &app, strategy.as_ref(), alloc, &cfg.seeds);
        let serial = request.run();
        let parallel = request.with_jobs(cfg.jobs).run();

        // The whole Summary (mean, stderr, quantiles) must match exactly,
        // not approximately: same seeds -> same runs -> same bits.
        prop_assert_eq!(parallel.execution_time, serial.execution_time);
        prop_assert_eq!(parallel.mean_adaptations, serial.mean_adaptations);
        prop_assert_eq!(parallel.mean_adapt_time, serial.mean_adapt_time);
        prop_assert_eq!(parallel.runs.len(), serial.runs.len());
        for (p, s) in parallel.runs.iter().zip(&serial.runs) {
            prop_assert_eq!(p.execution_time.to_bits(), s.execution_time.to_bits());
            prop_assert_eq!(p.adaptations, s.adaptations);
            prop_assert_eq!(p.adapt_time_total.to_bits(), s.adapt_time_total.to_bits());
        }
        prop_assert_eq!(parallel.seed_wall_secs.len(), cfg.seeds.len());
    }
}

/// A fixed traced workload for the determinism checks below: one swap
/// strategy over enough seeds to exercise the work-stealing scheduler.
fn traced_bundle(jobs: usize) -> mpi_swap::obs::TraceBundle {
    let spec = PlatformSpec {
        n_hosts: 12,
        speed_range: (1e8, 4e8),
        link: mpi_swap::simkit::link::SharedLink::hpdc03_lan(),
        startup_per_process: 0.75,
        load: LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.5, 0.08, 20.0)),
        horizon: 200_000.0,
    };
    let app = AppSpec {
        n_active: 3,
        iterations: 8,
        flops_per_proc_iter: 1e9,
        bytes_per_proc_iter: 1e5,
        process_state_bytes: 1e6,
    };
    let seeds: Vec<u64> = (0..6).collect();
    let mut bundle = mpi_swap::obs::TraceBundle::new();
    for (label, strategy) in [
        ("swap", Box::new(Swap::greedy()) as Box<dyn Strategy>),
        ("cr", Box::new(Cr::greedy())),
    ] {
        let (_, traces) = Replication::new(&spec, &app, strategy.as_ref(), 12, &seeds)
            .with_jobs(jobs)
            .run_traced();
        for (seed, trace) in seeds.iter().zip(traces) {
            bundle.push(label, *seed, trace);
        }
    }
    bundle
}

/// The exported trace artifacts — not just the in-memory event lists —
/// must be byte-identical however many workers produced them.
#[test]
fn trace_exports_are_byte_identical_across_jobs() {
    let serial = traced_bundle(1);
    let two = traced_bundle(2);
    let many = traced_bundle(4);
    assert!(serial.event_count() > 0, "workload produced no events");
    assert_eq!(
        mpi_swap::obs::jsonl::to_jsonl(&serial),
        mpi_swap::obs::jsonl::to_jsonl(&two),
        "JSONL differs between jobs 1 and 2"
    );
    assert_eq!(
        mpi_swap::obs::chrome::to_chrome_trace(&serial),
        mpi_swap::obs::chrome::to_chrome_trace(&many),
        "Chrome trace differs between jobs 1 and 4"
    );
}

/// Repeated same-seed runs replay the exact same event stream.
#[test]
fn trace_exports_are_byte_identical_across_repeated_runs() {
    let first = traced_bundle(3);
    let second = traced_bundle(3);
    assert_eq!(
        mpi_swap::obs::jsonl::to_jsonl(&first),
        mpi_swap::obs::jsonl::to_jsonl(&second)
    );
    assert_eq!(
        mpi_swap::obs::chrome::to_chrome_trace(&first),
        mpi_swap::obs::chrome::to_chrome_trace(&second)
    );
}
