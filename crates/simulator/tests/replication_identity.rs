//! Property test for the replication hot path's core guarantee: the
//! nested seed fan-out and the shared realization cache are *pure
//! accelerations*. Across strategies × fault regimes × policy bundles ×
//! jobs settings, a run under a cell scope (cold cache, then warm)
//! produces bit-identical results — execution times, per-run records,
//! and the full trace event stream including every decision audit
//! (`SwapDecision` / `PolicyDecision` events) — to the plain serial run.

use proptest::prelude::*;
use simulator::platform::{LoadSpec, PlatformSpec};
use simulator::runner::{
    default_seeds, enter_cell, RealizationCache, ReplicatedResult, Replication,
};
use simulator::strategies::{Cr, Strategy, Swap};
use simulator::AppSpec;
use std::sync::Arc;

fn spec(duty: f64) -> PlatformSpec {
    PlatformSpec {
        n_hosts: 5,
        speed_range: (1e8, 2e8),
        link: simkit::link::SharedLink::new(1e-4, 6e6),
        startup_per_process: 0.75,
        load: LoadSpec::OnOff(loadmodel::OnOffSource::for_duty_cycle(duty, 0.2, 20.0)),
        horizon: 10_000.0,
    }
}

fn app() -> AppSpec {
    AppSpec {
        n_active: 2,
        iterations: 8,
        flops_per_proc_iter: 1e9,
        bytes_per_proc_iter: 1e5,
        process_state_bytes: 1e6,
    }
}

fn strategy(idx: usize) -> Box<dyn Strategy> {
    match idx % 4 {
        0 => Box::new(Swap::greedy()),
        1 => Box::new(Swap::safe()),
        2 => Box::new(Swap::friendly()),
        _ => Box::new(Cr::greedy()),
    }
}

fn fault_spec(kind: usize, mtbf: f64) -> faults::FaultSpec {
    match kind % 3 {
        0 => faults::FaultSpec::crashes_only(mtbf, 7),
        1 => faults::FaultSpec {
            blackout_mtbf_secs: 300.0,
            blackout_repair_secs: 30.0,
            ..faults::FaultSpec::crashes_only(mtbf, 7)
        },
        _ => faults::FaultSpec::correlated_shocks(2, mtbf, 600.0, 0.7, 7),
    }
}

fn placement(idx: usize) -> policy::PlacementChoice {
    match idx % 3 {
        0 => policy::PlacementChoice::FirstAlive,
        1 => policy::PlacementChoice::MtbfAware,
        _ => policy::PlacementChoice::RackAware,
    }
}

/// One traced replicated run with the requested knobs. `jobs` exercises
/// the non-nested parallel path when the cell scope stays serial.
fn run_case(
    duty: f64,
    s: &dyn Strategy,
    seeds: &[u64],
    jobs: usize,
    faults: Option<&faults::FaultSpec>,
    policies: Option<&policy::PolicySet>,
) -> (ReplicatedResult, Vec<obs::Trace>) {
    let spec = spec(duty);
    let app = app();
    Replication {
        jobs,
        faults,
        policies,
        ..Replication::new(&spec, &app, s, 5, seeds)
    }
    .run_traced()
}

fn assert_identical(
    label: &str,
    a: &(ReplicatedResult, Vec<obs::Trace>),
    b: &(ReplicatedResult, Vec<obs::Trace>),
) {
    assert_eq!(
        a.1, b.1,
        "{label}: trace streams (incl. decision audits) differ"
    );
    assert_eq!(a.0.runs.len(), b.0.runs.len(), "{label}: run count differs");
    for (x, y) in a.0.runs.iter().zip(&b.0.runs) {
        assert_eq!(
            x.execution_time.to_bits(),
            y.execution_time.to_bits(),
            "{label}: execution time differs"
        );
        assert_eq!(x, y, "{label}: per-run record differs");
    }
    assert_eq!(
        a.0.execution_time.mean.to_bits(),
        b.0.execution_time.mean.to_bits(),
        "{label}: summary differs"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cold-cache nested runs and warm-cache reruns are byte-identical
    /// to the plain path, for every strategy / fault / policy / jobs
    /// combination.
    #[test]
    fn nested_and_cached_replication_is_bit_identical(
        strategy_idx in 0usize..4,
        duty in 0.2f64..0.7,
        faults_on in any::<bool>(),
        fault_kind in 0usize..3,
        mtbf in 600.0f64..3_000.0,
        policy_idx in 0usize..4,
        jobs in 1usize..4,
        nested in 1usize..5,
        n_seeds in 2usize..5,
    ) {
        let s = strategy(strategy_idx);
        let seeds = default_seeds(n_seeds);
        let fs = faults_on.then(|| fault_spec(fault_kind, mtbf));
        // policy_idx 0 = no bundle; policies only engage under faults.
        let ps = (policy_idx > 0 && faults_on).then(|| {
            let window = fs.as_ref().map_or(0.0, |f| f.shock_window_secs);
            policy::PolicyConfig::for_placement(placement(policy_idx - 1)).build(window)
        });

        // Baseline: the pre-existing path — no cell scope, serial.
        let base = run_case(duty, s.as_ref(), &seeds, 1, fs.as_ref(), ps.as_ref());

        // Cold cache + nested fan-out (fallback threads; no pool needed).
        let cache = Arc::new(RealizationCache::new());
        let cold = {
            let cell = enter_cell(nested, Some(Arc::clone(&cache)));
            let out = run_case(duty, s.as_ref(), &seeds, jobs, fs.as_ref(), ps.as_ref());
            let report = cell.report();
            prop_assert_eq!(report.cache_misses, n_seeds as u64, "cold misses");
            prop_assert_eq!(report.cache_hits, 0, "cold hits");
            if nested.min(n_seeds) > 1 {
                prop_assert!(report.nested_jobs > 1, "nested fan-out never engaged");
            }
            out
        };
        assert_identical("cold", &cold, &base);

        // Warm cache: every realization is a hit; results unchanged.
        let warm = {
            let cell = enter_cell(nested, Some(Arc::clone(&cache)));
            let out = run_case(duty, s.as_ref(), &seeds, jobs, fs.as_ref(), ps.as_ref());
            let report = cell.report();
            prop_assert_eq!(report.cache_misses, 0, "warm misses");
            prop_assert_eq!(report.cache_hits, n_seeds as u64, "warm hits");
            out
        };
        assert_identical("warm", &warm, &base);
        prop_assert_eq!(cache.len(), n_seeds);
    }
}
