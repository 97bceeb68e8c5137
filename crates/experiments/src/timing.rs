//! Wall-clock instrumentation for the sweep engine.
//!
//! Timing is collected per figure by a [`Collection`] — a cloneable
//! handle to shared state, so any number of figures can record
//! *concurrently* (the cross-figure scheduler in [`crate::schedule`]
//! runs one collection per figure against a shared worker pool). The
//! driver creates a collection with [`Collection::begin`] and activates
//! it on the thread that runs the figure generator ([`activate`]);
//! the sweep helper ([`crate::sweep`]) picks up the active collection
//! via [`current`], records one [`PointTiming`] per `(series, sweep
//! point)` work item and emits a progress line to stderr. When no
//! collection is active (library use, tests, benches) recording is a
//! no-op, so the figure generators need no extra parameters and produce
//! no output noise.
//!
//! Timing is deliberately kept *out* of the figure payloads: the CSV and
//! JSON a figure writes are bit-identical regardless of `jobs` or host
//! speed, while the timing summary goes to a separate
//! `<id>.timing.json` document.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Wall-clock cost of one `(series, sweep point)` work item.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PointTiming {
    /// Series label within the figure.
    pub series: String,
    /// X coordinate of the sweep point.
    pub x: f64,
    /// Wall-clock seconds one worker spent computing this point (all of
    /// its replications).
    pub wall_secs: f64,
    /// Worker slot that computed this point (an index into
    /// `worker_busy_secs`), or `None` when the cell ran outside any
    /// worker — a pool-less sweep on the calling thread, say — instead
    /// of mis-attributing it to slot 0. Together with `start_secs` this
    /// makes stragglers visible: a point that starts early on one worker
    /// and runs long while the other slots go idle is the sweep's
    /// critical path.
    pub worker: Option<usize>,
    /// When this point started computing, in seconds after the figure's
    /// collection began.
    pub start_secs: f64,
    /// Nested seed-level fan-out the cell's replications used (1 = the
    /// per-seed loop stayed serial inside the cell; 0 = the artifact was
    /// written before nested parallelism existed, which also means
    /// serial).
    #[serde(default)]
    pub nested_jobs: usize,
    /// Realization-cache hits charged to this cell.
    #[serde(default)]
    pub cache_hits: u64,
    /// Realization-cache misses charged to this cell.
    #[serde(default)]
    pub cache_misses: u64,
}

/// Machine-readable timing summary for one figure run, written as
/// `<id>.timing.json` next to the figure's CSV/JSON payloads.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimingSummary {
    /// Figure id.
    pub id: String,
    /// The `--jobs` value requested (0 = auto).
    pub jobs_requested: usize,
    /// Worker threads actually spawned for the figure's sweeps — the
    /// widest per-worker busy vector observed. Narrow sweeps clamp the
    /// worker count to the item count, and a shared pool fixes it at the
    /// pool size, so this can differ from the requested knob in either
    /// direction; utilization is computed against *this* number.
    pub jobs_effective: usize,
    /// Replications per sweep point.
    pub seeds: usize,
    /// Sum of per-point wall-clock — the serial-equivalent compute time.
    pub compute_secs: f64,
    /// End-to-end wall-clock of the figure generation, as observed by
    /// the caller of [`Collection::finish`].
    pub elapsed_secs: f64,
    /// Ratio `compute_secs / elapsed_secs` — the speedup over running
    /// the same per-point costs serially. Read it alongside
    /// `jobs_effective`: when workers outnumber physical cores, each
    /// point's wall-clock inflates with time spent descheduled, so the
    /// ratio then reflects concurrency achieved rather than end-to-end
    /// wall-clock gain.
    pub speedup: f64,
    /// Seconds each sweep worker spent inside work items, indexed by
    /// worker slot and accumulated across all sweeps of the figure.
    pub worker_busy_secs: Vec<f64>,
    /// Total busy time across all workers (`worker_busy_secs` summed).
    pub busy_secs: f64,
    /// `busy_secs / (jobs_effective × elapsed_secs)` — the fraction of
    /// the worker pool's wall-clock capacity spent computing. Low values
    /// mean workers idled (too few items, or a straggler point).
    pub utilization: f64,
    /// Realization-cache hits across all cells (sum over `points`).
    #[serde(default)]
    pub cache_hits: u64,
    /// Realization-cache misses across all cells (sum over `points`).
    #[serde(default)]
    pub cache_misses: u64,
    /// Per-point costs, in deterministic (series-major) sweep order.
    pub points: Vec<PointTiming>,
}

/// Everything the sweep engine knows about one finished cell, handed to
/// [`Collection::record`]. Grouping the fields beats a seven-argument
/// positional call, and gives the nested/cache accounting an obvious
/// place to ride along.
#[derive(Clone, Debug)]
pub struct CellCost<'a> {
    /// Series label within the figure.
    pub series: &'a str,
    /// X coordinate of the sweep point.
    pub x: f64,
    /// Wall-clock seconds spent computing the cell.
    pub wall_secs: f64,
    /// Worker slot that ran the cell, `None` outside any worker.
    pub worker: Option<usize>,
    /// Nested seed fan-out the cell used (1 = serial inside the cell).
    pub nested_jobs: usize,
    /// Realization-cache hits charged to the cell.
    pub cache_hits: u64,
    /// Realization-cache misses charged to the cell.
    pub cache_misses: u64,
}

impl<'a> CellCost<'a> {
    /// A plain serial cell: no nested fan-out, no cache traffic. The
    /// common case for analytic sweeps and tests.
    pub fn serial(series: &'a str, x: f64, wall_secs: f64, worker: Option<usize>) -> Self {
        CellCost {
            series,
            x,
            wall_secs,
            worker,
            nested_jobs: 1,
            cache_hits: 0,
            cache_misses: 0,
        }
    }
}

struct Inner {
    id: String,
    jobs_requested: usize,
    seeds: usize,
    started: Instant,
    /// `(item_index, timing)` so [`Collection::finish`] can restore
    /// deterministic sweep order after out-of-order parallel completion.
    points: Vec<(usize, PointTiming)>,
    /// Per-worker busy seconds, accumulated element-wise across sweeps.
    worker_busy_secs: Vec<f64>,
    done: usize,
    total: usize,
}

/// A live timing collection for one figure. Cloneable handle to shared
/// state; clones record into the same collection, so it can travel into
/// sweep worker closures while the driver keeps its own handle for
/// [`Collection::finish`].
#[derive(Clone)]
pub struct Collection {
    inner: Arc<Mutex<Inner>>,
}

impl Collection {
    /// Starts a new, independent collection under the given figure id.
    pub fn begin(id: &str, jobs_requested: usize, seeds: usize) -> Collection {
        Collection {
            inner: Arc::new(Mutex::new(Inner {
                id: id.to_owned(),
                jobs_requested,
                seeds,
                started: Instant::now(),
                points: Vec::new(),
                worker_busy_secs: Vec::new(),
                done: 0,
                total: 0,
            })),
        }
    }

    /// Declares how many work items the upcoming sweep has, so progress
    /// lines can show `done/total`. Sweeps may run back-to-back under
    /// one collection (a figure with several phases); totals add up.
    /// Every sweep must declare its items *before* recording them —
    /// [`Collection::record`] panics if `done` ever exceeds `total`.
    pub fn expect_items(&self, n: usize) {
        self.lock().total += n;
    }

    /// Records one completed work item and emits a progress line. The
    /// cost's `worker` is the slot that computed the point (from
    /// [`simkit::pool::worker_slot`]). Returns quickly; safe to call from
    /// sweep worker threads.
    ///
    /// The progress line echoes the nested fan-out (`×N`) and the cell's
    /// realization-cache traffic (`cache H/M`) whenever either is
    /// non-trivial, so a straggler cell's configuration is diagnosable
    /// from stderr alone.
    ///
    /// # Panics
    /// If more items are recorded than were declared via
    /// [`Collection::expect_items`] — an undeclared sweep phase is an
    /// accounting bug, not something to paper over in the progress line.
    pub fn record(&self, item_index: usize, cost: CellCost<'_>) {
        let CellCost {
            series,
            x,
            wall_secs,
            worker,
            nested_jobs,
            cache_hits,
            cache_misses,
        } = cost;
        let (done, total, id, overflow) = {
            let mut a = self.lock();
            a.done += 1;
            let start_secs = (a.started.elapsed().as_secs_f64() - wall_secs).max(0.0);
            a.points.push((
                item_index,
                PointTiming {
                    series: series.to_owned(),
                    x,
                    wall_secs,
                    worker,
                    start_secs,
                    nested_jobs,
                    cache_hits,
                    cache_misses,
                },
            ));
            (a.done, a.total, a.id.clone(), a.done > a.total)
        };
        // Panic outside the lock so the collection is not poisoned for
        // the other workers' records (their panics would mask this one).
        assert!(
            !overflow,
            "[{id}] recorded item {done} but only {total} were declared via expect_items"
        );
        let mut extras = String::new();
        if nested_jobs > 1 {
            extras.push_str(&format!(" ×{nested_jobs}"));
        }
        if cache_hits + cache_misses > 0 {
            extras.push_str(&format!(" cache {cache_hits}/{cache_misses}"));
        }
        eprintln!("[{id}] {done:>3}/{total} {series:<14} x={x:<10.4} {wall_secs:>7.2}s{extras}");
    }

    /// Accumulates one sweep's per-worker busy time (from
    /// [`simkit::pool::ParStats`]) into the collection, element-wise by
    /// worker slot. Sweeps may run back-to-back under one collection;
    /// busy time adds up per slot, and the slot vector grows to the
    /// widest sweep seen — which is also what `jobs_effective` reports.
    pub fn record_worker_busy(&self, busy_secs: &[f64]) {
        let mut a = self.lock();
        if a.worker_busy_secs.len() < busy_secs.len() {
            a.worker_busy_secs.resize(busy_secs.len(), 0.0);
        }
        for (slot, &b) in busy_secs.iter().enumerate() {
            a.worker_busy_secs[slot] += b;
        }
    }

    /// Ends the collection and returns its summary. `elapsed_secs` is
    /// the caller-observed end-to-end wall-clock for the figure.
    ///
    /// `jobs_effective` is the number of workers actually spawned (the
    /// widest busy vector any sweep reported), *not*
    /// [`simkit::pool::effective_jobs`] of the requested knob: a sweep
    /// narrower than the jobs knob clamps its worker count to the item
    /// count, and utilization must be measured against workers that
    /// existed, or narrow sweeps understate it. The requested knob is
    /// the fallback only when no sweep ran at all.
    pub fn finish(self, elapsed_secs: f64) -> TimingSummary {
        let inner = Arc::try_unwrap(self.inner)
            .map(|m| m.into_inner().expect("timing collection poisoned"))
            .unwrap_or_else(|arc| {
                // Worker closures may still hold clones (they are done
                // recording once the sweep returned); snapshot instead.
                let a = arc.lock().expect("timing collection poisoned");
                Inner {
                    id: a.id.clone(),
                    jobs_requested: a.jobs_requested,
                    seeds: a.seeds,
                    started: a.started,
                    points: a.points.clone(),
                    worker_busy_secs: a.worker_busy_secs.clone(),
                    done: a.done,
                    total: a.total,
                }
            });
        let mut points_indexed = inner.points;
        points_indexed.sort_by_key(|&(i, _)| i);
        let points: Vec<PointTiming> = points_indexed.into_iter().map(|(_, p)| p).collect();
        let compute_secs: f64 = points.iter().map(|p| p.wall_secs).sum();
        let cache_hits: u64 = points.iter().map(|p| p.cache_hits).sum();
        let cache_misses: u64 = points.iter().map(|p| p.cache_misses).sum();
        let spawned = inner.worker_busy_secs.len();
        let jobs_effective = if spawned > 0 {
            spawned
        } else {
            simkit::pool::effective_jobs(inner.jobs_requested)
        };
        let busy_secs: f64 = inner.worker_busy_secs.iter().sum();
        let capacity = jobs_effective as f64 * elapsed_secs;
        TimingSummary {
            id: inner.id,
            jobs_requested: inner.jobs_requested,
            jobs_effective,
            seeds: inner.seeds,
            compute_secs,
            elapsed_secs,
            speedup: if elapsed_secs > 0.0 {
                compute_secs / elapsed_secs
            } else {
                1.0
            },
            worker_busy_secs: inner.worker_busy_secs,
            busy_secs,
            utilization: if capacity > 0.0 {
                busy_secs / capacity
            } else {
                0.0
            },
            cache_hits,
            cache_misses,
            points,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("timing collection poisoned")
    }
}

thread_local! {
    static ACTIVE: RefCell<Vec<Collection>> = const { RefCell::new(Vec::new()) };
}

/// Guard returned by [`activate`]; deactivates the collection on the
/// current thread when dropped.
pub struct ActiveGuard {
    _priv: (),
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        ACTIVE.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Makes `col` the current thread's active collection until the guard
/// drops. Activations nest; the innermost wins. The sweep helpers call
/// [`current`] once per sweep and carry the handle into their worker
/// closures, so activation only needs to cover the thread that *starts*
/// the sweeps — which is how each figure generator stays parameter-free
/// while several figures record concurrently on different threads.
pub fn activate(col: &Collection) -> ActiveGuard {
    ACTIVE.with(|s| s.borrow_mut().push(col.clone()));
    ActiveGuard { _priv: () }
}

/// The current thread's active collection, if any.
pub fn current() -> Option<Collection> {
    ACTIVE.with(|s| s.borrow().last().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collection_lifecycle_records_sorts_and_summarizes() {
        let col = Collection::begin("figX", 4, 3);
        col.expect_items(2);
        // Record out of order, as parallel workers would. The swap cell
        // nested its seeds and hit the realization cache.
        col.record(
            1,
            CellCost {
                series: "swap",
                x: 0.5,
                wall_secs: 2.0,
                worker: Some(1),
                nested_jobs: 3,
                cache_hits: 4,
                cache_misses: 2,
            },
        );
        col.record(0, CellCost::serial("nothing", 0.5, 1.0, Some(0)));
        // Two back-to-back sweeps of different widths: slots accumulate
        // element-wise and the vector grows to the widest sweep.
        col.record_worker_busy(&[1.0, 2.0]);
        col.record_worker_busy(&[0.5, 0.0, 1.5]);
        let s = col.finish(1.5);
        assert_eq!(s.id, "figX");
        assert_eq!(s.jobs_requested, 4);
        // jobs_effective reflects spawned workers (widest sweep), not
        // the requested knob.
        assert_eq!(s.jobs_effective, 3);
        assert_eq!(s.seeds, 3);
        assert_eq!(s.points.len(), 2);
        // Deterministic sweep order restored; worker attribution kept.
        assert_eq!(s.points[0].series, "nothing");
        assert_eq!(s.points[0].worker, Some(0));
        assert_eq!(s.points[0].nested_jobs, 1);
        assert_eq!(s.points[1].series, "swap");
        assert_eq!(s.points[1].worker, Some(1));
        assert_eq!(s.points[1].nested_jobs, 3);
        // Figure-level cache totals are the per-point sums.
        assert_eq!(s.cache_hits, 4);
        assert_eq!(s.cache_misses, 2);
        assert!(s.points.iter().all(|p| p.start_secs >= 0.0));
        assert!((s.compute_secs - 3.0).abs() < 1e-12);
        assert!((s.speedup - 2.0).abs() < 1e-12);
        assert_eq!(s.worker_busy_secs, vec![1.5, 2.0, 1.5]);
        assert!((s.busy_secs - 5.0).abs() < 1e-12);
        // utilization = busy / (jobs_effective × elapsed) = 5 / (3 × 1.5)
        assert!((s.utilization - 5.0 / 4.5).abs() < 1e-12);
    }

    #[test]
    fn narrow_sweep_reports_spawned_workers_not_requested() {
        // Regression: jobs 8 requested, but the sweep only had 2 items,
        // so the per-call pool had 2 workers. Utilization must be exact
        // against the 2 spawned workers, not diluted by the phantom 6.
        let col = Collection::begin("narrow", 8, 1);
        col.expect_items(2);
        col.record(0, CellCost::serial("s", 0.0, 1.0, Some(0)));
        col.record(1, CellCost::serial("s", 1.0, 1.0, Some(1)));
        col.record_worker_busy(&[1.0, 1.0]);
        let s = col.finish(1.0);
        assert_eq!(s.jobs_requested, 8);
        assert_eq!(s.jobs_effective, 2);
        // Equal-cost synthetic sweep: both workers busy the whole
        // elapsed window, so utilization is exactly 1.
        assert!((s.utilization - 1.0).abs() < 1e-12, "{}", s.utilization);
    }

    #[test]
    fn no_sweep_falls_back_to_requested_jobs() {
        let s = Collection::begin("empty", 8, 1).finish(0.5);
        assert_eq!(s.jobs_effective, 8);
        assert_eq!(s.busy_secs, 0.0);
        assert_eq!(s.utilization, 0.0);
        assert!(s.points.is_empty());
    }

    #[test]
    fn concurrent_collections_do_not_clobber_each_other() {
        let a = Collection::begin("figA", 2, 1);
        let b = Collection::begin("figB", 2, 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = activate(&a);
                let col = current().expect("active on this thread");
                col.expect_items(1);
                col.record(0, CellCost::serial("sa", 0.0, 1.0, Some(0)));
                col.record_worker_busy(&[1.0]);
            });
            s.spawn(|| {
                let _g = activate(&b);
                let col = current().expect("active on this thread");
                col.expect_items(2);
                col.record(0, CellCost::serial("sb", 0.0, 2.0, Some(0)));
                col.record(1, CellCost::serial("sb", 1.0, 2.0, Some(0)));
                col.record_worker_busy(&[4.0]);
            });
        });
        assert!(current().is_none(), "activation is scoped to its thread");
        let sa = a.finish(1.0);
        let sb = b.finish(4.0);
        assert_eq!(sa.points.len(), 1);
        assert_eq!(sa.points[0].series, "sa");
        assert!((sa.busy_secs - 1.0).abs() < 1e-12);
        assert_eq!(sb.points.len(), 2);
        assert!(sb.points.iter().all(|p| p.series == "sb"));
        assert!((sb.busy_secs - 4.0).abs() < 1e-12);
    }

    #[test]
    fn activation_nests_innermost_wins() {
        assert!(current().is_none());
        let outer = Collection::begin("outer", 1, 1);
        let inner = Collection::begin("inner", 1, 1);
        let _go = activate(&outer);
        {
            let _gi = activate(&inner);
            current().expect("inner active").expect_items(1);
        }
        current().expect("outer active again").expect_items(2);
        drop(_go);
        assert!(current().is_none());
        assert_eq!(inner.finish(1.0).points.len(), 0);
        let so = outer.finish(1.0);
        assert_eq!(so.points.len(), 0);
    }

    #[test]
    #[should_panic(expected = "only 1 were declared")]
    fn recording_more_than_declared_panics() {
        let col = Collection::begin("over", 1, 1);
        col.expect_items(1);
        col.record(0, CellCost::serial("s", 0.0, 1.0, Some(0)));
        col.record(1, CellCost::serial("s", 1.0, 1.0, Some(0)));
    }

    #[test]
    fn pre_nesting_artifacts_still_parse() {
        // Artifacts written before the worker-Option / nested / cache
        // fields existed must deserialize with the serial defaults, so
        // timing files from older builds still read back.
        let old = r#"{"series":"swap","x":1.5,"wall_secs":2.0,"worker":3,"start_secs":0.1}"#;
        let p: PointTiming = serde_json::from_str(old).unwrap();
        assert_eq!(p.worker, Some(3));
        assert_eq!(p.nested_jobs, 0);
        assert_eq!((p.cache_hits, p.cache_misses), (0, 0));
        // A cell recorded outside any worker round-trips as null.
        let p = PointTiming {
            series: "s".into(),
            x: 0.0,
            wall_secs: 1.0,
            worker: None,
            start_secs: 0.0,
            nested_jobs: 2,
            cache_hits: 1,
            cache_misses: 1,
        };
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.contains("\"worker\":null"), "{json}");
        let back: PointTiming = serde_json::from_str(&json).unwrap();
        assert_eq!(back.worker, None);
        assert_eq!(back.nested_jobs, 2);
    }
}
