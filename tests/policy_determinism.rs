//! Property tests for the policy layer: for *arbitrary* fault regimes,
//! placement policies, seed sets, and worker counts, policy-routed runs
//! must be deterministic — bit-identical across `jobs` settings and
//! across repeated invocations, decision audit included.

use mpi_swap::loadmodel::OnOffSource;
use mpi_swap::policy::{PlacementChoice, PolicyConfig};
use mpi_swap::simulator::platform::{LoadSpec, PlatformSpec};
use mpi_swap::simulator::runner::Replication;
use mpi_swap::simulator::strategies::{Cr, Strategy, Swap};
use mpi_swap::simulator::AppSpec;
use proptest::prelude::*;

// `Strategy` clashes with simulator::strategies::Strategy; alias the
// proptest trait.
use proptest::strategy::Strategy as Strategy2;

#[derive(Debug, Clone)]
struct Config {
    n_hosts: usize,
    iterations: usize,
    duty: f64,
    mtbf: f64,
    correlated: bool,
    spread: bool,
    placement_pick: u8,
    strategy_pick: u8,
    seeds: Vec<u64>,
    fault_seed: u64,
    jobs: usize,
}

fn config_strategy() -> impl Strategy2<Value = Config> {
    (
        (
            6usize..14,        // n_hosts
            3usize..8,         // iterations
            0.0f64..0.9,       // duty
            500.0f64..8_000.0, // crash / storm MTBF
            any::<bool>(),     // correlated shocks on?
            any::<bool>(),     // heterogeneous MTBFs on?
            0u8..3,            // placement selector
            0u8..2,            // strategy selector
        ),
        (
            prop::collection::vec(0u64..40, 1..6), // seed set (dups allowed)
            0u64..16,                              // fault seed
            2usize..9,                             // parallel jobs
        ),
    )
        .prop_map(
            |(
                (
                    n_hosts,
                    iterations,
                    duty,
                    mtbf,
                    correlated,
                    spread,
                    placement_pick,
                    strategy_pick,
                ),
                (seeds, fault_seed, jobs),
            )| Config {
                n_hosts,
                iterations,
                duty,
                mtbf,
                correlated,
                spread,
                placement_pick,
                strategy_pick,
                seeds,
                fault_seed,
                jobs,
            },
        )
}

fn run_traced(cfg: &Config, jobs: usize) -> (Vec<u64>, String) {
    let spec = PlatformSpec {
        n_hosts: cfg.n_hosts,
        speed_range: (1e8, 4e8),
        link: mpi_swap::simkit::link::SharedLink::hpdc03_lan(),
        startup_per_process: 0.75,
        load: LoadSpec::OnOff(OnOffSource::for_duty_cycle(cfg.duty, 0.08, 20.0)),
        horizon: 60_000.0,
    };
    let app = AppSpec {
        n_active: 2,
        iterations: cfg.iterations,
        flops_per_proc_iter: 1e9,
        bytes_per_proc_iter: 1e5,
        process_state_bytes: 1e6,
    };
    let mut fs = if cfg.correlated {
        mpi_swap::faults::FaultSpec::correlated_shocks(
            3,
            cfg.mtbf * 2.0,
            600.0,
            0.5,
            cfg.fault_seed,
        )
    } else {
        mpi_swap::faults::FaultSpec::disabled()
    };
    fs.mtbf_secs = cfg.mtbf;
    fs.fault_seed = cfg.fault_seed;
    if cfg.spread {
        fs.host_mtbf_spread = 8.0;
    }
    let placement = match cfg.placement_pick {
        0 => PlacementChoice::FirstAlive,
        1 => PlacementChoice::MtbfAware,
        _ => PlacementChoice::RackAware,
    };
    let ps = PolicyConfig::for_placement(placement).build(fs.shock_window_secs);
    let strategy: Box<dyn Strategy> = match cfg.strategy_pick {
        0 => Box::new(Swap::greedy()),
        _ => Box::new(Cr::greedy()),
    };
    let (result, traces) =
        Replication::new(&spec, &app, strategy.as_ref(), cfg.n_hosts, &cfg.seeds)
            .with_jobs(jobs)
            .with_faults(&fs)
            .with_policies(&ps)
            .run_traced();
    let mut bundle = mpi_swap::obs::TraceBundle::new();
    for (seed, trace) in cfg.seeds.iter().zip(traces) {
        bundle.push(placement.name(), *seed, trace);
    }
    let bits = result
        .runs
        .iter()
        .map(|r| r.execution_time.to_bits())
        .collect();
    (bits, mpi_swap::obs::jsonl::to_jsonl(&bundle))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Policy-routed runs — results *and* the PolicyDecision audit
    /// stream — are invariant under the worker count and under
    /// repetition: placements consult only seed-derived observables, so
    /// nothing about thread scheduling may leak into a decision.
    #[test]
    fn policy_runs_are_jobs_invariant_and_replayable(cfg in config_strategy()) {
        let (serial_bits, serial_jsonl) = run_traced(&cfg, 1);
        let (parallel_bits, parallel_jsonl) = run_traced(&cfg, cfg.jobs);
        prop_assert_eq!(&serial_bits, &parallel_bits);
        prop_assert_eq!(&serial_jsonl, &parallel_jsonl, "trace differs across jobs");
        let (replay_bits, replay_jsonl) = run_traced(&cfg, cfg.jobs);
        prop_assert_eq!(&parallel_bits, &replay_bits);
        prop_assert_eq!(&parallel_jsonl, &replay_jsonl, "trace differs across reruns");
    }
}
