//! Narrow-grid utilization regression check for the nested seed-level
//! fan-out.
//!
//! An `ext_policies`-shaped tournament is the motivating pathology: 4
//! `(placement × fault regime)` cells on one sweep point under
//! `--jobs 8` leave half the pool idle when each cell runs its
//! replications serially — utilization is *analytically* capped at
//! `items / workers = 4/8`. With the nested split each cell fans its
//! seeds out through the idle workers, so measured utilization must
//! beat that ceiling (it approaches 1 when the cells are balanced).
//! The check measures achieved concurrency — per-worker busy windows
//! over wall-clock — so it holds even on an oversubscribed CI host.

use experiments::sweep::grid_sweep;
use experiments::{timing, Scale};
use simulator::platform::{LoadSpec, PlatformSpec};
use simulator::runner::Replication;
use simulator::strategies::Swap;
use simulator::AppSpec;
use std::sync::Arc;
use std::time::Instant;

#[test]
fn narrow_tournament_beats_the_serial_cell_utilization_ceiling_at_jobs_8() {
    // Enough work (about 0.15 s of replications in a debug build, 0.1 s
    // in release) that worker wake-up latencies are noise next to the
    // simulated replications; on a 2-vCPU host, a quarter of the debug
    // work let one run in thirty fall below the bound. Each unit of
    // `work` scales the iterations, the horizon and the crash MTBF
    // together (crashes would otherwise end longer runs as early as
    // short ones); a release build simulates about ten times faster, so
    // it runs five times the debug work.
    let work = if cfg!(debug_assertions) { 4 } else { 20 };
    let scale = Scale {
        seeds: 8,
        sweep_points: 2, // validate() floor; the grid below uses one x
        iterations: 600 * work,
        jobs: 8,
        mtbf: None,
        fault_seed: None,
        placement: None,
    };
    let spec = PlatformSpec {
        n_hosts: 6,
        speed_range: (1e8, 2e8),
        link: simkit::link::SharedLink::new(1e-4, 6e6),
        startup_per_process: 0.75,
        load: LoadSpec::OnOff(loadmodel::OnOffSource::for_duty_cycle(0.5, 0.2, 20.0)),
        horizon: 10_000.0 * work as f64,
    };
    let app = AppSpec {
        n_active: 2,
        iterations: 600 * work,
        flops_per_proc_iter: 1e9,
        bytes_per_proc_iter: 1e5,
        process_state_bytes: 1e6,
    };
    let seeds = scale.seed_list();
    // The ext_policies cell structure: one baseline and one specialist
    // placement per fault regime.
    let cells = [
        ("first_alive", policy::PlacementChoice::FirstAlive, false),
        ("mtbf_aware", policy::PlacementChoice::MtbfAware, false),
        (
            "first_alive/shocks",
            policy::PlacementChoice::FirstAlive,
            true,
        ),
        (
            "rack_aware/shocks",
            policy::PlacementChoice::RackAware,
            true,
        ),
    ];
    let eval = |cell: &(&str, policy::PlacementChoice, bool), mtbf: f64| {
        let (_, placement, shocks) = cell;
        let fs = if *shocks {
            faults::FaultSpec::correlated_shocks(2, mtbf, 600.0, 0.7, 0)
        } else {
            faults::FaultSpec::crashes_only(mtbf, 0)
        };
        let ps = policy::PolicyConfig::for_placement(*placement).build(fs.shock_window_secs);
        Replication::new(&spec, &app, &Swap::safe(), 6, &seeds)
            .with_faults(&fs)
            .with_policies(&ps)
            .run()
            .execution_time
            .mean
    };

    let col = timing::Collection::begin("ext-policies-shaped", scale.jobs, scale.seeds);
    let active = timing::activate(&col);
    let pool = Arc::new(simkit::pool::WorkerPool::new(scale.jobs));
    let installed = simkit::pool::install(&pool, 0);
    let t0 = Instant::now();
    let mtbf = 1_500.0 * work as f64;
    let series = grid_sweep(&scale, &cells, &[mtbf], |c| c.0.to_owned(), eval);
    let elapsed = t0.elapsed().as_secs_f64();
    drop(installed);
    drop(active);
    assert_eq!(series.len(), 4);

    let s = col.finish(elapsed);
    assert_eq!(s.jobs_effective, 8);
    // The regression assertion: serial cells cannot exceed 4/8.
    assert!(
        s.utilization > 0.5,
        "utilization {:.2} did not beat the serial-cell ceiling of 0.50 \
         (busy {:.3}s over {:.3}s wall)",
        s.utilization,
        s.busy_secs,
        s.elapsed_secs
    );
    // Every cell actually engaged the nested split (8 workers / 4 items).
    assert!(
        s.points.iter().all(|p| p.nested_jobs >= 2),
        "split not engaged: {:?}",
        s.points.iter().map(|p| p.nested_jobs).collect::<Vec<_>>()
    );
    // The two series of each fault regime share realizations: one miss
    // per (regime, seed), and the paired series' lookups all hit.
    assert_eq!(s.cache_misses, 2 * scale.seeds as u64);
    assert_eq!(s.cache_hits, 2 * scale.seeds as u64);
}
