//! The parallel sweep engine behind every figure generator.
//!
//! A figure is a grid: a few series (strategies, configurations) times a
//! few sweep points, each cell an independent replicated simulation.
//! [`grid_sweep`] flattens that grid into one work list and fans it out
//! through [`simkit::pool::map_stats_installed`], so an entire figure —
//! not just one cell's seeds — saturates the machine. When a worker pool
//! is installed on the calling thread (the cross-figure scheduler does
//! this), the work items go to the pool's shared queue; otherwise a pool
//! of `jobs` workers is built for this sweep alone, or the cells run
//! serially on the caller's thread when `jobs` resolves to one.
//!
//! Determinism: each cell is a pure function of `(series, x)` (every
//! replication inside realizes its platform from its own seed), and
//! results are reassembled in grid order, so the produced
//! [`Series`] are **bit-identical** for every `jobs` setting and for
//! pooled vs per-call execution.
//!
//! Two cell-level levers ride on every sweep, both output-transparent
//! (see [`simulator::runner::enter_cell`]):
//!
//! * **Nested seed-level parallelism.** A grid narrower than the
//!   installed pool would leave workers idle — exactly the shape of the
//!   tournament figures (few series × few points, many seeds). The
//!   sweep then tells each cell to fan its per-seed loop out as
//!   `ceil(workers / items)` bounded sub-tasks (capped at the seed
//!   count) on the same pool, at the figure's priority.
//! * **A shared realization cache.** All cells of one sweep share a
//!   [`simulator::runner::RealizationCache`], so the series of a
//!   tournament realize each `(spec, faults, seed)` input once instead
//!   of once per strategy.

use crate::config::Scale;
use crate::output::Series;
use crate::timing::{self, CellCost};
use simulator::runner::RealizationCache;
use std::sync::Arc;
use std::time::Instant;

/// The nested per-seed fan-out for a sweep of `items` cells: splits
/// seeds only when an installed pool is wider than the grid (otherwise
/// the grid itself saturates the workers) and there is more than one
/// seed to split.
fn nested_split(scale: &Scale, items: usize) -> usize {
    match simkit::pool::installed() {
        Some((pool, _)) if items > 0 && items < pool.workers() && scale.seeds > 1 => {
            pool.workers().div_ceil(items).min(scale.seeds)
        }
        _ => 1,
    }
}

/// Runs `eval` on every item as one sweep cell and returns the results
/// in item order. `labels[i]` is item `i`'s `(series, x)` for timing and
/// progress output.
///
/// Each cell runs inside a cell scope that shares one realization cache
/// across the sweep. While a [`timing`] collection is active on the
/// calling thread, each completed cell is recorded with the worker slot
/// that ran it, and the workers' busy time is merged in.
fn sweep_cells<T: Sync, R: Send>(
    scale: &Scale,
    items: &[T],
    labels: &[(&str, f64)],
    eval: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    // The collection and pool handles are captured by the worker
    // closure: workers run on pool threads that have no activation (or
    // installation) of their own, so cell scopes must re-establish both.
    let col = timing::current();
    if let Some(c) = &col {
        c.expect_items(items.len());
    }
    let pool_ctx = simkit::pool::installed();
    let nested = nested_split(scale, items.len());
    let cache = Arc::new(RealizationCache::new());
    let (ys, stats) = simkit::pool::map_stats_installed(items, scale.jobs, |idx, item| {
        let _pool = pool_ctx
            .as_ref()
            .map(|(pool, priority)| simkit::pool::install(pool, *priority));
        let cell = simulator::runner::enter_cell(nested, Some(Arc::clone(&cache)));
        let t0 = Instant::now();
        let y = eval(item);
        if let Some(c) = &col {
            let report = cell.report();
            let (series, x) = labels[idx];
            c.record(
                idx,
                CellCost {
                    series,
                    x,
                    wall_secs: t0.elapsed().as_secs_f64(),
                    worker: simkit::pool::worker_slot(),
                    nested_jobs: report.nested_jobs,
                    cache_hits: report.cache_hits,
                    cache_misses: report.cache_misses,
                },
            );
            c.record_worker_busy(&report.worker_busy_secs);
        }
        y
    });
    if let Some(c) = &col {
        c.record_worker_busy(&stats.worker_busy_secs);
    }
    ys
}

/// Evaluates `eval(series_def, x)` for every cell of the
/// `series_defs` × `xs` grid, using the scale's `jobs` worker threads
/// (or the installed worker pool), and returns one [`Series`] per
/// definition (named by `name_of`, points in `xs` order).
///
/// While a [`timing`] collection is active on the calling thread, each
/// completed cell is recorded — with the worker slot that ran it — and
/// reported as a progress line; otherwise the sweep is silent.
pub fn grid_sweep<S: Sync>(
    scale: &Scale,
    series_defs: &[S],
    xs: &[f64],
    name_of: impl Fn(&S) -> String,
    eval: impl Fn(&S, f64) -> f64 + Sync,
) -> Vec<Series> {
    let items: Vec<(usize, usize)> = (0..series_defs.len())
        .flat_map(|si| (0..xs.len()).map(move |xi| (si, xi)))
        .collect();
    let names: Vec<String> = series_defs.iter().map(&name_of).collect();
    let labels: Vec<(&str, f64)> = items
        .iter()
        .map(|&(si, xi)| (names[si].as_str(), xs[xi]))
        .collect();
    let ys = sweep_cells(scale, &items, &labels, |&(si, xi)| {
        eval(&series_defs[si], xs[xi])
    });
    names
        .into_iter()
        .enumerate()
        .map(|(si, name)| {
            let pts = xs
                .iter()
                .enumerate()
                .map(|(xi, &x)| (x, ys[si * xs.len() + xi]))
                .collect();
            Series::new(name, pts)
        })
        .collect()
}

/// One-dimensional variant: evaluates `eval(item)` for every work item
/// in parallel and returns the results in item order. For generators
/// whose cells don't fit the regular grid — irregular x mappings
/// (sentinel points), or cells that produce several series at once
/// (paired BSP/eager runs) — `eval` may return any `Send` value;
/// `x_of` supplies the x coordinate reported in timing/progress output.
pub fn item_sweep<T: Sync, R: Send>(
    scale: &Scale,
    label: &str,
    items: &[T],
    x_of: impl Fn(&T) -> f64,
    eval: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let labels: Vec<(&str, f64)> = items.iter().map(|t| (label, x_of(t))).collect();
    sweep_cells(scale, items, &labels, eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn scale_with_jobs(jobs: usize) -> Scale {
        Scale {
            seeds: 1,
            sweep_points: 2,
            iterations: 2,
            jobs,
            mtbf: None,
            fault_seed: None,
            placement: None,
        }
    }

    #[test]
    fn grid_sweep_matches_serial_evaluation_for_all_jobs() {
        let defs = [2.0f64, 3.0, 5.0];
        let xs = [0.0, 1.0, 2.0, 4.0];
        let expected: Vec<Series> = defs
            .iter()
            .map(|&k| {
                Series::new(
                    format!("k{k}"),
                    xs.iter().map(|&x| (x, k * x + k)).collect::<Vec<_>>(),
                )
            })
            .collect();
        for jobs in [0, 1, 2, 5] {
            let got = grid_sweep(
                &scale_with_jobs(jobs),
                &defs,
                &xs,
                |k| format!("k{k}"),
                |&k, x| k * x + k,
            );
            assert_eq!(got.len(), expected.len(), "jobs {jobs}");
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.name, e.name);
                assert_eq!(g.points, e.points, "jobs {jobs}, series {}", g.name);
            }
        }
    }

    #[test]
    fn grid_sweep_through_installed_pool_matches_per_call_path() {
        let defs = [2.0f64, 3.0];
        let xs = [0.0, 1.0, 2.0];
        let direct = grid_sweep(
            &scale_with_jobs(1),
            &defs,
            &xs,
            |k| format!("k{k}"),
            |&k, x| k * x - 1.0,
        );
        let pool = Arc::new(simkit::pool::WorkerPool::new(2));
        let _g = simkit::pool::install(&pool, 0);
        let pooled = grid_sweep(
            &scale_with_jobs(4),
            &defs,
            &xs,
            |k| format!("k{k}"),
            |&k, x| k * x - 1.0,
        );
        for (d, p) in direct.iter().zip(&pooled) {
            assert_eq!(d.name, p.name);
            assert_eq!(d.points, p.points);
        }
    }

    #[test]
    fn item_sweep_preserves_order() {
        let xs = [3.0f64, 1.0, 2.0];
        let ys = item_sweep(&scale_with_jobs(3), "t", &xs, |&x| x, |&x| (x * 10.0, x));
        assert_eq!(ys, vec![(30.0, 3.0), (10.0, 1.0), (20.0, 2.0)]);
    }

    #[test]
    fn sweeps_record_into_the_active_collection_with_worker_slots() {
        let col = timing::Collection::begin("sweep-test", 2, 1);
        let _g = timing::activate(&col);
        let defs = [1.0f64, 2.0];
        let xs = [0.0, 1.0];
        grid_sweep(
            &scale_with_jobs(2),
            &defs,
            &xs,
            |k| format!("k{k}"),
            |&k, x| k + x,
        );
        drop(_g);
        let s = col.finish(0.01);
        assert_eq!(s.points.len(), 4);
        assert_eq!(s.jobs_effective, 2);
        assert!(s
            .points
            .iter()
            .all(|p| p.worker.is_some_and(|w| w < s.worker_busy_secs.len())));
        // Analytic cells: no replications, so no nesting and no cache.
        assert!(s.points.iter().all(|p| p.nested_jobs == 1));
        assert_eq!((s.cache_hits, s.cache_misses), (0, 0));
    }

    #[test]
    fn narrow_grid_under_a_wide_pool_nests_and_caches_replications() {
        use simulator::platform::{LoadSpec, PlatformSpec};
        use simulator::runner::Replication;
        use simulator::strategies::{Nothing, Swap};
        use simulator::AppSpec;

        let spec = PlatformSpec {
            n_hosts: 4,
            speed_range: (1e8, 2e8),
            link: simkit::link::SharedLink::new(1e-4, 6e6),
            startup_per_process: 0.75,
            load: LoadSpec::OnOff(loadmodel::OnOffSource::for_duty_cycle(0.5, 0.2, 20.0)),
            horizon: 10_000.0,
        };
        let app = AppSpec {
            n_active: 2,
            iterations: 5,
            flops_per_proc_iter: 1e9,
            bytes_per_proc_iter: 1e5,
            process_state_bytes: 1e6,
        };
        let scale = Scale {
            seeds: 6,
            sweep_points: 2,
            iterations: 5,
            jobs: 1,
            mtbf: None,
            fault_seed: None,
            placement: None,
        };
        let seeds: Vec<u64> = (0..scale.seeds as u64).collect();
        // Two strategy series over one sweep point: a 2-cell tournament
        // grid. Both series replicate the same (spec, seed) inputs.
        let eval = |greedy: &bool, _x: f64| {
            let r = if *greedy {
                Replication::new(&spec, &app, &Swap::greedy(), 4, &seeds).run()
            } else {
                Replication::new(&spec, &app, &Nothing, 2, &seeds).run()
            };
            r.execution_time.mean
        };
        let baseline = grid_sweep(&scale, &[false, true], &[0.0], |g| format!("{g}"), eval);

        let col = timing::Collection::begin("narrow-nested", 8, scale.seeds);
        let _t = timing::activate(&col);
        let pool = Arc::new(simkit::pool::WorkerPool::new(8));
        let _p = simkit::pool::install(&pool, 0);
        let nested = grid_sweep(&scale, &[false, true], &[0.0], |g| format!("{g}"), eval);
        drop(_p);
        drop(_t);
        for (b, n) in baseline.iter().zip(&nested) {
            assert_eq!(b.points, n.points, "nesting/caching changed the payload");
        }
        let s = col.finish(0.01);
        // 2 cells under an 8-worker pool → a requested split of 4, which
        // 6 seeds fill as 3 chunks of 2; every realization is computed
        // once and the other series' lookups all hit the shared cache.
        assert!(
            s.points.iter().all(|p| p.nested_jobs == 3),
            "split not engaged: {:?}",
            s.points.iter().map(|p| p.nested_jobs).collect::<Vec<_>>()
        );
        assert_eq!(s.cache_misses, scale.seeds as u64);
        assert_eq!(s.cache_hits, scale.seeds as u64);
        assert!(s.points.iter().all(|p| p.worker.is_some()));
    }
}
