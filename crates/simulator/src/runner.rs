//! Replicated experiment execution.
//!
//! The paper uses simulation precisely because "it is infeasible to
//! perform back-to-back experiments or to obtain reproducible results
//! using real systems". The runner replays the *same* realized platform
//! (same seed → same load traces) under every strategy, then aggregates
//! across independent seeds. One [`Replication`] request describes such
//! a run — strategy, seeds, worker count, and optional faults and
//! policies — and [`Replication::run`] or [`Replication::run_traced`]
//! executes it.
//!
//! Two hot-path optimizations live here, both output-transparent:
//!
//! * **Nested seed-level parallelism.** When the caller has entered a
//!   cell scope ([`enter_cell`]) with a split greater than one — the
//!   sweep engine does this for grids narrower than the worker pool —
//!   the per-seed loop fans out through
//!   [`simkit::pool::map_stats_installed`] as bounded sub-tasks instead
//!   of running serially inside the cell. Outside such a scope the seeds
//!   go through [`simkit::pool::map_stats`] with the request's `jobs`,
//!   which ignores an installed pool. Each replication is a pure
//!   function of its seed and results are reassembled in seed order, so
//!   outputs stay bit-identical; only wall-clock changes.
//! * **A shared [`RealizationCache`].** Tournament figures run several
//!   strategies over the *same* `(spec, faults, seed)` inputs;
//!   realizing the platform and generating the fault plan once per
//!   strategy is pure waste. A cache handed in through the cell scope
//!   memoizes the realized inputs (keyed by full canonical spec/fault
//!   JSON plus seed — no fingerprint collisions), and blackout
//!   splicing is copy-on-write so plans without blackout windows reuse
//!   the cached platform untouched.

use crate::app::AppSpec;
use crate::exec::RunResult;
use crate::platform::{Platform, PlatformSpec};
use crate::strategies::{RunContext, Strategy};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Aggregate statistics over replications.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Standard error of the mean (0 for a single replication).
    pub stderr: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Sample median (50th percentile).
    pub median: f64,
    /// 10th percentile (linear interpolation).
    pub p10: f64,
    /// 90th percentile (linear interpolation).
    pub p90: f64,
    /// Number of replications.
    pub n: usize,
}

/// Linear-interpolation quantile of a **sorted** sample, `q ∈ [0, 1]`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Summarizes a sample.
///
/// # Panics
/// Panics on an empty slice.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "cannot summarize an empty sample");
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        mean,
        stderr: (var / n as f64).sqrt(),
        min: sorted[0],
        max: sorted[n - 1],
        median: quantile_sorted(&sorted, 0.5),
        p10: quantile_sorted(&sorted, 0.1),
        p90: quantile_sorted(&sorted, 0.9),
        n,
    }
}

/// One strategy's replicated outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplicatedResult {
    /// Strategy label.
    pub strategy: String,
    /// Execution-time statistics across seeds.
    pub execution_time: Summary,
    /// Mean number of adaptation events per run.
    pub mean_adaptations: f64,
    /// Mean total adaptation time per run, seconds.
    pub mean_adapt_time: f64,
    /// The raw per-seed results.
    #[serde(skip)]
    pub runs: Vec<RunResult>,
    /// Wall-clock seconds this process spent simulating each seed,
    /// parallel to `runs`. Instrumentation only — excluded from
    /// serialization so figure payloads stay independent of the host
    /// machine and of `jobs`.
    #[serde(skip)]
    pub seed_wall_secs: Vec<f64>,
}

/// One fully realized replication input: the (possibly
/// blackout-spliced) platform and the fault plan it came from. Pure
/// data derived from `(spec, faults, seed)` alone, which is what makes
/// it safe to share across strategies.
#[derive(Clone)]
struct Realized {
    platform: Arc<Platform>,
    plan: Option<Arc<faults::FaultPlan>>,
}

/// Realizes the inputs for one replication: platform from the seed,
/// fault plan from the spec pair, blackouts spliced copy-on-write — a
/// plan without blackout windows leaves the realized platform untouched
/// instead of rebuilding value-identical hosts.
fn realize_one(spec: &PlatformSpec, faults: Option<&faults::FaultSpec>, seed: u64) -> Realized {
    let platform = spec.realize(seed);
    let plan =
        faults.map(|f| faults::FaultPlan::generate(f, platform.hosts.len(), spec.horizon, seed));
    let platform = match &plan {
        Some(plan) if plan.has_blackouts() => platform.apply_blackouts(plan),
        _ => platform,
    };
    Realized {
        platform: Arc::new(platform),
        plan: plan.map(Arc::new),
    }
}

/// Memoizes realized replication inputs across the runs that share one
/// scope (typically: every series of one figure's sweep). Keyed by
/// `(spec JSON, fault JSON, seed)` — the *full* canonical serialization,
/// not a hash, so distinct specs can never collide into one entry. The
/// cache is handed to the runner through [`enter_cell`]; runs outside
/// any cell scope realize fresh, exactly as before.
#[derive(Default)]
pub struct RealizationCache {
    inner: simkit::cache::MemoCache<(String, String, u64), Realized>,
}

impl RealizationCache {
    /// An empty cache, ready to share across the cells of one sweep.
    pub fn new() -> Self {
        RealizationCache::default()
    }

    /// Lookups that found an already-realized entry.
    pub fn hits(&self) -> u64 {
        self.inner.hits()
    }

    /// Lookups that realized the entry (distinct inputs seen).
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }

    /// Number of distinct `(spec, faults, seed)` inputs cached.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether nothing has been realized through this cache yet.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// Shared accumulator behind a cell scope; worker threads running the
/// cell's nested sub-tasks update it through the `Arc` captured when a
/// [`Replication`] starts running (thread-locals don't cross pool
/// threads).
struct CellAccum {
    nested_jobs: usize,
    cache: Option<Arc<RealizationCache>>,
    /// Widest nested fan-out any inner run actually used (1 = serial).
    nested_jobs_used: AtomicUsize,
    /// Busy seconds of nested sub-task workers, by pool worker slot,
    /// with the submitting worker's slot zeroed (its time is already
    /// inside the enclosing sweep item's busy window).
    worker_busy_secs: Mutex<Vec<f64>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

thread_local! {
    static CELL: RefCell<Vec<Arc<CellAccum>>> = const { RefCell::new(Vec::new()) };
}

/// The innermost cell scope on this thread, if any.
fn current_cell() -> Option<Arc<CellAccum>> {
    CELL.with(|s| s.borrow().last().cloned())
}

/// What one cell's replicated runs cost beyond their wall-clock: the
/// nested fan-out used, nested worker busy time, and realization-cache
/// traffic. Snapshot via [`CellGuard::report`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellReport {
    /// Widest nested seed fan-out used by any run in the scope
    /// (1 = every run stayed serial inside the cell).
    pub nested_jobs: usize,
    /// Nested sub-task busy seconds by worker slot (submitting worker's
    /// slot zeroed — see [`enter_cell`]); empty when nothing nested.
    pub worker_busy_secs: Vec<f64>,
    /// Realization-cache hits charged to this scope.
    pub cache_hits: u64,
    /// Realization-cache misses charged to this scope.
    pub cache_misses: u64,
}

/// Guard returned by [`enter_cell`]; leaves the scope when dropped.
pub struct CellGuard {
    accum: Arc<CellAccum>,
}

impl CellGuard {
    /// Snapshot of the accounting accumulated so far in this scope.
    pub fn report(&self) -> CellReport {
        CellReport {
            nested_jobs: self.accum.nested_jobs_used.load(Ordering::Relaxed),
            worker_busy_secs: self
                .accum
                .worker_busy_secs
                .lock()
                .expect("cell busy lock")
                .clone(),
            cache_hits: self.accum.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.accum.cache_misses.load(Ordering::Relaxed),
        }
    }
}

impl Drop for CellGuard {
    fn drop(&mut self) {
        CELL.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Opens a cell scope on the current thread until the guard drops:
/// every [`Replication`] run underneath it fans its per-seed loop out as
/// up to `nested_jobs` sub-tasks (through the installed worker pool when
/// there is one) and realizes its inputs through `cache` when one is
/// given. Scopes nest; the innermost wins.
///
/// `nested_jobs <= 1` disables the fan-out but still applies the cache
/// — useful on its own for tournament figures whose strategies share
/// inputs. Either way the results are **bit-identical** to the unscoped
/// run; the guard's [`CellGuard::report`] only changes the accounting
/// side channel.
pub fn enter_cell(nested_jobs: usize, cache: Option<Arc<RealizationCache>>) -> CellGuard {
    let accum = Arc::new(CellAccum {
        nested_jobs: nested_jobs.max(1),
        cache,
        nested_jobs_used: AtomicUsize::new(1),
        worker_busy_secs: Mutex::new(Vec::new()),
        cache_hits: AtomicU64::new(0),
        cache_misses: AtomicU64::new(0),
    });
    CELL.with(|s| s.borrow_mut().push(Arc::clone(&accum)));
    CellGuard { accum }
}

/// One replicated experiment: `strategy` run on `seeds.len()`
/// independent realizations of `spec`/`app`, allocating `allocated`
/// processes, then aggregated. This is the runner's one entry point;
/// [`Replication::new`] starts from a serial, fault-free, policy-free
/// request and the `with_*` builders (or the public fields) add the rest.
///
/// Every replication is a pure function of its seed — the platform is
/// realized from the seed inside the worker — and results land in
/// pre-indexed slots, so the outcome is **bit-identical** at every
/// `jobs` setting, with or without tracing; only the wall-clock changes.
///
/// The example asserts structural properties that hold for every seed
/// set (paired seeds, coherent statistics, NOTHING never adapting) —
/// which strategy wins on three short replications is load luck, and the
/// statistical comparisons live in the experiment suite at real scale.
///
/// ```
/// use loadmodel::OnOffSource;
/// use simulator::platform::{LoadSpec, PlatformSpec};
/// use simulator::runner::{default_seeds, Replication};
/// use simulator::strategies::{Nothing, Swap};
/// use simulator::AppSpec;
///
/// let spec = PlatformSpec::hpdc03(
///     LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.5, 0.08, 30.0)),
/// );
/// let mut app = AppSpec::hpdc03(4, 1e6);
/// app.iterations = 10;
/// let seeds = default_seeds(3);
///
/// let nothing = Replication::new(&spec, &app, &Nothing, 4, &seeds).run();
/// let swap = Replication::new(&spec, &app, &Swap::greedy(), 32, &seeds)
///     .with_jobs(2)
///     .run();
///
/// // Same seeds → same platforms: the comparison is paired. Each result
/// // aggregates one run per seed with coherent statistics.
/// assert_eq!(nothing.execution_time.n, 3);
/// assert_eq!(swap.execution_time.n, 3);
/// assert!(nothing.execution_time.min <= nothing.execution_time.median);
/// assert!(nothing.execution_time.median <= nothing.execution_time.max);
/// // NOTHING never adapts; swapping pays per-adaptation transfer time.
/// assert_eq!(nothing.mean_adaptations, 0.0);
/// assert!(swap.mean_adapt_time >= 0.0);
/// ```
#[derive(Clone, Copy)]
pub struct Replication<'a> {
    /// The platform every seed realizes.
    pub spec: &'a PlatformSpec,
    /// The application description.
    pub app: &'a AppSpec,
    /// The strategy under test.
    pub strategy: &'a dyn Strategy,
    /// Processes allocated at startup (see [`RunContext::allocated`]).
    pub allocated: usize,
    /// One replication per seed, in result order. Must not be empty.
    pub seeds: &'a [u64],
    /// Worker threads for the per-seed runs (`0` = all available
    /// parallelism; 1, the default, is serial).
    pub jobs: usize,
    /// Optional fault injection: each seed runs under a
    /// [`faults::FaultPlan`] generated from the spec and the seed, with
    /// the plan's blackouts spliced into the host timelines. A disabled
    /// spec runs exactly as `None`.
    pub faults: Option<&'a faults::FaultSpec>,
    /// Optional decision-policy bundle, consulted at recovery placement
    /// and checkpoint cadence. The default [`policy::PolicyConfig`]'s set
    /// times every run exactly as `None`.
    pub policies: Option<&'a policy::PolicySet>,
}

impl<'a> Replication<'a> {
    /// A serial request without faults or policies.
    pub fn new(
        spec: &'a PlatformSpec,
        app: &'a AppSpec,
        strategy: &'a dyn Strategy,
        allocated: usize,
        seeds: &'a [u64],
    ) -> Self {
        Replication {
            spec,
            app,
            strategy,
            allocated,
            seeds,
            jobs: 1,
            faults: None,
            policies: None,
        }
    }

    /// Sets [`Replication::jobs`].
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets [`Replication::faults`].
    pub fn with_faults(mut self, faults: &'a faults::FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets [`Replication::policies`].
    pub fn with_policies(mut self, policies: &'a policy::PolicySet) -> Self {
        self.policies = Some(policies);
        self
    }

    /// Runs every seed and aggregates the results.
    ///
    /// # Panics
    /// Panics if `seeds` is empty.
    pub fn run(&self) -> ReplicatedResult {
        self.execute(false).0
    }

    /// Like [`Replication::run`], also returning each seed's event
    /// stream in seed order. Traces carry *simulated* time only, so they
    /// are bit-identical at any `jobs`. After the strategy's own events
    /// each trace gets the host load timelines as
    /// [`obs::TraceEvent::LoadChange`] and every injected fault as
    /// [`obs::TraceEvent::FaultInjected`], clipped to the run's span.
    ///
    /// # Panics
    /// Panics if `seeds` is empty.
    pub fn run_traced(&self) -> (ReplicatedResult, Vec<obs::Trace>) {
        let (result, traces) = self.execute(true);
        (result, traces.expect("tracing was requested"))
    }

    fn execute(&self, trace: bool) -> (ReplicatedResult, Option<Vec<obs::Trace>>) {
        let Replication {
            spec,
            app,
            strategy,
            allocated,
            seeds,
            jobs,
            faults,
            policies,
        } = *self;
        assert!(!seeds.is_empty(), "need at least one seed");
        let faults = faults.filter(|f| f.is_enabled());
        let cell = current_cell();
        let cache = cell.as_ref().and_then(|c| c.cache.clone());
        // Cache keys are serialized once per call, not once per seed; the
        // full JSON (not a hash) is the collision-proof fingerprint.
        let key_prefix = cache.as_ref().map(|_| {
            (
                serde_json::to_string(spec).expect("platform specs serialize"),
                faults.map_or_else(String::new, |f| {
                    serde_json::to_string(f).expect("fault specs serialize")
                }),
            )
        });
        let run_one = |seed: u64| -> (RunResult, f64, Option<obs::Trace>) {
            let t0 = std::time::Instant::now();
            let realized = match (&cache, &key_prefix) {
                (Some(cache), Some((spec_json, fault_json))) => {
                    let (realized, hit) = cache
                        .inner
                        .get_or_insert_with(&(spec_json.clone(), fault_json.clone(), seed), || {
                            realize_one(spec, faults, seed)
                        });
                    if let Some(cell) = &cell {
                        let counter = if hit {
                            &cell.cache_hits
                        } else {
                            &cell.cache_misses
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                    realized
                }
                _ => realize_one(spec, faults, seed),
            };
            let mut ctx = RunContext::new(&realized.platform, app, allocated);
            if let Some(plan) = realized.plan.as_deref() {
                ctx = ctx.with_faults(plan);
            }
            if let Some(ps) = policies {
                ctx = ctx.with_policies(ps);
            }
            let collector = trace.then(obs::Collector::new);
            if let Some(c) = &collector {
                ctx = ctx.with_trace(c);
            }
            let run = strategy.run(&ctx);
            let trace = collector.map(|c| {
                let mut t = c.into_trace();
                append_load_changes(&mut t, &realized.platform, run.execution_time);
                if let Some(plan) = realized.plan.as_deref() {
                    append_fault_events(&mut t, plan, run.execution_time);
                }
                t
            });
            (run, t0.elapsed().as_secs_f64(), trace)
        };
        let nested = cell
            .as_ref()
            .map_or(1, |c| c.nested_jobs)
            .min(seeds.len())
            .max(1);
        let timed_runs: Vec<(RunResult, f64, Option<obs::Trace>)> = if nested > 1 {
            // Fan the seeds out as `nested` contiguous chunks through the
            // installed pool (bounded sub-tasks at the figure's priority;
            // the pool's submitter-helping keeps this deadlock-free from a
            // worker thread). Chunks reassemble in seed order, so the
            // result is bit-identical to the serial loop.
            let chunk_len = seeds.len().div_ceil(nested);
            let chunks: Vec<&[u64]> = seeds.chunks(chunk_len).collect();
            let (chunked, stats) =
                simkit::pool::map_stats_installed(&chunks, nested, |_, chunk| {
                    chunk.iter().map(|&s| run_one(s)).collect::<Vec<_>>()
                });
            if let Some(cell) = &cell {
                cell.nested_jobs_used
                    .fetch_max(chunks.len(), Ordering::Relaxed);
                // The submitting worker helped run sub-tasks, but that time
                // is already inside the enclosing sweep item's busy window
                // — zero its slot so figure-level busy counts it once.
                let mut busy = stats.worker_busy_secs;
                if let Some(slot) = simkit::pool::worker_slot() {
                    if let Some(b) = busy.get_mut(slot) {
                        *b = 0.0;
                    }
                }
                let mut acc = cell.worker_busy_secs.lock().expect("cell busy lock");
                if acc.len() < busy.len() {
                    acc.resize(busy.len(), 0.0);
                }
                for (slot, &b) in busy.iter().enumerate() {
                    acc[slot] += b;
                }
            }
            chunked.into_iter().flatten().collect()
        } else {
            simkit::pool::map_stats(seeds, jobs, |_, &seed| run_one(seed)).0
        };
        let mut runs = Vec::with_capacity(timed_runs.len());
        let mut seed_wall_secs = Vec::with_capacity(timed_runs.len());
        let mut traces = trace.then(Vec::new);
        for (run, wall, t) in timed_runs {
            runs.push(run);
            seed_wall_secs.push(wall);
            if let (Some(traces), Some(t)) = (&mut traces, t) {
                traces.push(t);
            }
        }
        let times: Vec<f64> = runs.iter().map(|r| r.execution_time).collect();
        let result = ReplicatedResult {
            strategy: strategy.name(),
            execution_time: summarize(&times),
            mean_adaptations: runs.iter().map(|r| r.adaptations as f64).sum::<f64>()
                / runs.len() as f64,
            mean_adapt_time: runs.iter().map(|r| r.adapt_time_total).sum::<f64>()
                / runs.len() as f64,
            runs,
            seed_wall_secs,
        };
        (result, traces)
    }
}

/// `Replication::new(spec, app, strategy, allocated, seeds).run()`,
/// kept because `perfbench/` compiles against it.
///
/// ```
/// # use simulator::platform::{LoadSpec, PlatformSpec};
/// # use simulator::runner::{run_replicated, Replication};
/// # use simulator::{AppSpec, Swap};
/// # let (spec, app) = (PlatformSpec::hpdc03(LoadSpec::Unloaded), AppSpec::hpdc03(4, 1e6));
/// let swap = Swap::greedy();
/// let request = Replication::new(&spec, &app, &swap, 8, &[0, 1]);
/// assert_eq!(run_replicated(&spec, &app, &swap, 8, &[0, 1]).runs, request.run().runs);
/// ```
pub fn run_replicated(
    spec: &PlatformSpec,
    app: &AppSpec,
    strategy: &dyn Strategy,
    allocated: usize,
    seeds: &[u64],
) -> ReplicatedResult {
    Replication::new(spec, app, strategy, allocated, seeds).run()
}

/// A [`Replication`] with `jobs`, `faults` and `policies` set, run; kept
/// because `perfbench/` compiles against it.
#[allow(clippy::too_many_arguments)]
pub fn run_replicated_policies(
    spec: &PlatformSpec,
    app: &AppSpec,
    strategy: &dyn Strategy,
    allocated: usize,
    seeds: &[u64],
    jobs: usize,
    faults: &faults::FaultSpec,
    policies: &policy::PolicySet,
) -> ReplicatedResult {
    Replication::new(spec, app, strategy, allocated, seeds)
        .with_jobs(jobs)
        .with_faults(faults)
        .with_policies(policies)
        .run()
}

/// Appends the realized external-load breakpoints of every host as
/// `LoadChange` events, clipped to `[0, horizon_t]`. A lazily built host
/// is read only as far as `horizon_t` ([`simkit::Cpu::load_through`]).
fn append_load_changes(
    trace: &mut obs::Trace,
    platform: &crate::platform::Platform,
    horizon_t: f64,
) {
    for (host, h) in platform.hosts.iter().enumerate() {
        for &(t, competing) in h.cpu.load_through(horizon_t).points() {
            if t > horizon_t {
                break;
            }
            trace
                .events
                .push(obs::TraceEvent::LoadChange { t, host, competing });
        }
    }
}

/// Appends every injected fault in `plan` as `FaultInjected` events,
/// clipped to `[0, horizon_t]`: permanent deaths (no duration; kind
/// `Crash` for the independent draw, `RackShock` when a correlated storm
/// got there first), host blackout windows (duration, clipped), and
/// shared-link degradation windows (duration + bandwidth factor).
/// Emitted by the runner — not the strategies — so each fault appears
/// exactly once per trace.
fn append_fault_events(trace: &mut obs::Trace, plan: &faults::FaultPlan, horizon_t: f64) {
    for (host, sched) in plan.hosts.iter().enumerate() {
        if let Some(c) = plan.crash_time(host) {
            if c <= horizon_t {
                let shocked = sched.shock_kill.is_some_and(|k| k <= c);
                trace.events.push(obs::TraceEvent::FaultInjected {
                    t: c,
                    host: Some(host),
                    fault: if shocked {
                        obs::FaultKind::RackShock
                    } else {
                        obs::FaultKind::Crash
                    },
                    duration_secs: None,
                    factor: None,
                });
            }
        }
        for &(start, end) in &sched.blackouts {
            if start > horizon_t {
                break;
            }
            trace.events.push(obs::TraceEvent::FaultInjected {
                t: start,
                host: Some(host),
                fault: obs::FaultKind::Blackout,
                duration_secs: Some(end.min(horizon_t) - start),
                factor: None,
            });
        }
    }
    for w in &plan.link {
        if w.start > horizon_t {
            break;
        }
        trace.events.push(obs::TraceEvent::FaultInjected {
            t: w.start,
            host: None,
            fault: obs::FaultKind::LinkDegraded,
            duration_secs: Some(w.end.min(horizon_t) - w.start),
            factor: Some(w.factor),
        });
    }
}

/// The default seed set for `n` replications: `0..n`.
pub fn default_seeds(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::LoadSpec;
    use crate::strategies::Nothing;
    use loadmodel::OnOffSource;
    use simkit::link::SharedLink;

    fn tiny_spec(load: LoadSpec) -> PlatformSpec {
        PlatformSpec {
            n_hosts: 4,
            speed_range: (1e8, 2e8),
            link: SharedLink::new(1e-4, 6e6),
            startup_per_process: 0.75,
            load,
            horizon: 10_000.0,
        }
    }

    fn tiny_app() -> AppSpec {
        AppSpec {
            n_active: 2,
            iterations: 5,
            flops_per_proc_iter: 1e9,
            bytes_per_proc_iter: 1e5,
            process_state_bytes: 1e6,
        }
    }

    #[test]
    fn summarize_basic_statistics() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.n, 4);
        // var = 5/3, stderr = sqrt(5/12)
        assert!((s.stderr - (5.0f64 / 12.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_stderr() {
        let s = summarize(&[7.0]);
        assert_eq!(s.stderr, 0.0);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p10, 7.0);
        assert_eq!(s.p90, 7.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.median, 3.0);
        // p10 of [1..5]: pos 0.4 → 1.4; p90: pos 3.6 → 4.6.
        assert!((s.p10 - 1.4).abs() < 1e-12);
        assert!((s.p90 - 4.6).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_ordered() {
        let s = summarize(&[10.0, 30.0, 20.0, 50.0, 40.0, 60.0]);
        assert!(s.min <= s.p10 && s.p10 <= s.median);
        assert!(s.median <= s.p90 && s.p90 <= s.max);
    }

    /// Asserts two replicated results agree run by run, down to the bits
    /// of every execution time.
    fn assert_same_runs(a: &ReplicatedResult, b: &ReplicatedResult, what: &str) {
        assert_eq!(a.runs, b.runs, "{what}");
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(
                x.execution_time.to_bits(),
                y.execution_time.to_bits(),
                "{what}"
            );
        }
    }

    #[test]
    fn replications_vary_with_seed_under_load() {
        let spec = tiny_spec(LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.5, 0.1, 20.0)));
        let r = Replication::new(&spec, &tiny_app(), &Nothing, 2, &default_seeds(6)).run();
        assert_eq!(r.runs.len(), 6);
        assert!(
            r.execution_time.max > r.execution_time.min,
            "all replications identical under random load?"
        );
    }

    #[test]
    fn replications_are_reproducible() {
        let spec = tiny_spec(LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.4, 0.1, 20.0)));
        let app = tiny_app();
        let request = Replication::new(&spec, &app, &Nothing, 2, &[1, 2, 3]);
        assert_eq!(request.run().execution_time, request.run().execution_time);
    }

    #[test]
    fn unloaded_platform_gives_identical_replications() {
        let spec = tiny_spec(LoadSpec::Unloaded);
        let r = Replication::new(&spec, &tiny_app(), &Nothing, 2, &[5, 5]).run();
        assert_eq!(r.execution_time.min, r.execution_time.max);
    }

    const TABLE_SEEDS: usize = 4;
    const TABLE_ITERATIONS: usize = 30;

    /// One cell of the tracing table: a strategy's plain and traced
    /// results under one fault spec, policy bundle and worker count.
    struct TableCell {
        what: String,
        faults: &'static str,
        policies: &'static str,
        jobs: usize,
        plain: ReplicatedResult,
        traced: ReplicatedResult,
        traces: Vec<obs::Trace>,
    }

    impl TableCell {
        fn strategy(&self) -> &str {
            &self.plain.strategy
        }

        /// The cell that differs from this one only in its fault spec
        /// and policy bundle labels.
        fn sibling<'t>(
            &self,
            table: &'t [TableCell],
            faults: &str,
            policies: &str,
        ) -> &'t TableCell {
            table
                .iter()
                .find(|c| {
                    c.strategy() == self.strategy()
                        && c.jobs == self.jobs
                        && c.faults == faults
                        && c.policies == policies
                })
                .expect("every combination is in the table")
        }
    }

    /// SWAP and CR under no faults, a disabled spec, and crashes with
    /// blackouts and link windows; with no policies, the legacy bundle,
    /// and `mtbf_aware`; on one and three workers. Each run both plain
    /// and traced. Built once and shared by the tests below.
    fn tracing_table() -> &'static [TableCell] {
        static TABLE: std::sync::OnceLock<Vec<TableCell>> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| {
            use crate::strategies::{Cr, Swap};
            let spec = tiny_spec(LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.5, 0.2, 20.0)));
            let mut app = tiny_app();
            app.iterations = TABLE_ITERATIONS;
            let seeds = default_seeds(TABLE_SEEDS);
            let off = faults::FaultSpec::disabled();
            let on = faults::FaultSpec {
                blackout_mtbf_secs: 400.0,
                blackout_repair_secs: 40.0,
                link_mtbf_secs: 500.0,
                link_window_secs: 60.0,
                link_factor: 0.25,
                ..faults::FaultSpec::crashes_only(600.0, 7)
            };
            let legacy = policy::PolicyConfig::default().build(0.0);
            let mtbf_aware =
                policy::PolicyConfig::for_placement(policy::PlacementChoice::MtbfAware).build(0.0);
            let mut table = Vec::new();
            for strategy in [&Swap::greedy() as &dyn Strategy, &Cr::greedy()] {
                for jobs in [1, 3] {
                    for (f, faults) in [("none", None), ("disabled", Some(&off)), ("on", Some(&on))]
                    {
                        for (p, policies) in [
                            ("none", None),
                            ("legacy", Some(&legacy)),
                            ("mtbf", Some(&mtbf_aware)),
                        ] {
                            let request = Replication {
                                jobs,
                                faults,
                                policies,
                                ..Replication::new(&spec, &app, strategy, 4, &seeds)
                            };
                            let (traced, traces) = request.run_traced();
                            table.push(TableCell {
                                what: format!(
                                    "{} jobs {jobs} faults {f} policies {p}",
                                    strategy.name()
                                ),
                                faults: f,
                                policies: p,
                                jobs,
                                plain: request.run(),
                                traced,
                                traces,
                            });
                        }
                    }
                }
            }
            table
        })
    }

    /// Tracing never perturbs a run, in any cell of the table; crashes
    /// land only when faults are on; fault-free SWAP logs one decision
    /// per iteration boundary and one exec per adaptation.
    #[test]
    fn traced_runs_match_untraced_and_capture_decisions() {
        use crate::strategies::Swap;
        let table = tracing_table();
        assert_eq!(table.len(), 2 * 2 * 3 * 3);
        for cell in table {
            let what = &cell.what;
            assert_same_runs(&cell.traced, &cell.plain, what);
            assert_eq!(cell.traces.len(), TABLE_SEEDS, "{what}");
            let crashes: usize = cell.plain.runs.iter().map(|r| r.failures).sum();
            assert_eq!(crashes > 0, cell.faults == "on", "{what}");
            if cell.strategy() != Swap::greedy().name() || cell.faults == "on" {
                continue;
            }
            for (trace, run) in cell.traces.iter().zip(&cell.traced.runs) {
                let n = |kind| trace.events.iter().filter(|e| e.kind() == kind).count();
                assert_eq!(n("swap_decision"), TABLE_ITERATIONS - 1, "{what}");
                assert_eq!(n("swap_exec"), run.adaptations, "{what}");
                assert!(n("load_change") > 0, "{what}");
            }
        }
    }

    /// A disabled fault spec is no spec, for SWAP and CR at every policy
    /// bundle and worker count.
    #[test]
    fn disabled_fault_spec_is_bit_identical_to_plain_run() {
        let table = tracing_table();
        for cell in table.iter().filter(|c| c.faults == "disabled") {
            let bare = cell.sibling(table, "none", cell.policies);
            assert_same_runs(&cell.plain, &bare.plain, &cell.what);
        }
    }

    /// The legacy policy bundle is no bundle, for SWAP and CR under every
    /// fault spec, crashes included, at every worker count.
    #[test]
    fn legacy_policy_set_matches_plain_fault_runs_bit_for_bit() {
        let table = tracing_table();
        let mut recovered = 0;
        for cell in table.iter().filter(|c| c.policies == "legacy") {
            let bare = cell.sibling(table, cell.faults, "none");
            assert_same_runs(&cell.plain, &bare.plain, &cell.what);
            recovered += cell.plain.runs.iter().map(|r| r.recoveries).sum::<usize>();
        }
        assert!(recovered > 0, "no crash recovered under the legacy bundle");
    }

    #[test]
    fn traces_are_bit_identical_across_jobs() {
        use crate::strategies::Cr;
        let spec = tiny_spec(LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.5, 0.2, 20.0)));
        let app = tiny_app();
        let seeds = default_seeds(6);
        let cr = Cr::greedy();
        let request = Replication::new(&spec, &app, &cr, 4, &seeds);
        let (_, serial) = request.run_traced();
        for jobs in [2, 4] {
            let (_, parallel) = request.with_jobs(jobs).run_traced();
            assert_eq!(parallel, serial, "jobs {jobs}");
        }
    }

    #[test]
    fn swap_survives_crashes_that_abort_nothing() {
        use crate::strategies::Swap;
        // MTBF well inside the run so most seeds see at least one crash.
        let spec = tiny_spec(LoadSpec::Unloaded);
        let mut app = tiny_app();
        app.iterations = 40;
        let fs = faults::FaultSpec::crashes_only(600.0, 7);
        let seeds = default_seeds(8);
        let swap = Replication::new(&spec, &app, &Swap::greedy(), 4, &seeds)
            .with_faults(&fs)
            .run();
        let nothing = Replication::new(&spec, &app, &Nothing, 2, &seeds)
            .with_faults(&fs)
            .run();
        let crashes: usize = swap.runs.iter().map(|r| r.failures).sum();
        assert!(crashes > 0, "no crash landed inside any replication");
        // Every SWAP failure is recovered through a spare (until stranded);
        // NOTHING can only abort and resubmit.
        let recovered: usize = swap.runs.iter().map(|r| r.recoveries).sum();
        assert!(recovered > 0);
        assert!(swap.runs.iter().all(|r| r.aborts == 0));
        let aborts: usize = nothing.runs.iter().map(|r| r.aborts).sum();
        let n_failures: usize = nothing.runs.iter().map(|r| r.failures).sum();
        assert!(aborts > 0 || n_failures == 0 || nothing.runs.iter().any(|r| r.truncated));
    }

    #[test]
    fn fault_traces_are_bit_identical_across_jobs() {
        use crate::strategies::Cr;
        let spec = tiny_spec(LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.5, 0.2, 20.0)));
        let mut app = tiny_app();
        app.iterations = 30;
        let fs = faults::FaultSpec {
            blackout_mtbf_secs: 400.0,
            blackout_repair_secs: 40.0,
            link_mtbf_secs: 500.0,
            link_window_secs: 60.0,
            link_factor: 0.25,
            ..faults::FaultSpec::crashes_only(1_500.0, 11)
        };
        let seeds = default_seeds(6);
        let cr = Cr::greedy();
        let request = Replication::new(&spec, &app, &cr, 4, &seeds).with_faults(&fs);
        let (serial_r, serial) = request.run_traced();
        for jobs in [2, 4] {
            let (par_r, parallel) = request.with_jobs(jobs).run_traced();
            assert_eq!(parallel, serial, "jobs {jobs}");
            assert_same_runs(&par_r, &serial_r, &format!("jobs {jobs}"));
        }
        // The traces actually carry injected-fault events.
        let injected = serial
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| matches!(e, obs::TraceEvent::FaultInjected { .. }))
            .count();
        assert!(injected > 0, "no fault events recorded");
    }

    #[test]
    fn policy_runs_emit_one_decision_per_spare_placement() {
        use crate::strategies::Swap;
        let spec = tiny_spec(LoadSpec::Unloaded);
        let mut app = tiny_app();
        app.iterations = 40;
        let fs = faults::FaultSpec::crashes_only(600.0, 7);
        let seeds = default_seeds(6);
        let set =
            policy::PolicyConfig::for_placement(policy::PlacementChoice::MtbfAware).build(0.0);
        let (result, traces) = Replication::new(&spec, &app, &Swap::greedy(), 4, &seeds)
            .with_jobs(2)
            .with_faults(&fs)
            .with_policies(&set)
            .run_traced();
        let recoveries: usize = result.runs.iter().map(|r| r.recoveries).sum();
        assert!(recoveries > 0, "no crash recovered in any replication");
        let decisions = traces
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| {
                matches!(e, obs::TraceEvent::PolicyDecision { policy, .. } if policy == "mtbf_aware")
            })
            .count();
        // One ranking per recovered placement, plus one per stranded
        // attempt (empty candidate set still consults the policy).
        assert!(
            decisions >= recoveries,
            "decisions {decisions} < recoveries {recoveries}"
        );
    }

    #[test]
    fn cell_scope_with_cache_and_nesting_is_bit_identical() {
        use crate::strategies::{Cr, Swap};
        let spec = tiny_spec(LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.5, 0.2, 20.0)));
        let mut app = tiny_app();
        app.iterations = 20;
        let fs = faults::FaultSpec {
            blackout_mtbf_secs: 400.0,
            blackout_repair_secs: 40.0,
            ..faults::FaultSpec::crashes_only(1_500.0, 11)
        };
        let seeds = default_seeds(6);
        let strategies: [&dyn Strategy; 2] = [&Swap::greedy(), &Cr::greedy()];
        let request = |s| Replication::new(&spec, &app, s, 4, &seeds).with_faults(&fs);
        // Baseline: no scope, no cache — the pre-existing path.
        let baselines: Vec<_> = strategies
            .iter()
            .map(|s| request(*s).run_traced())
            .collect();
        // Scoped: shared cache (warm after the first strategy) plus a
        // nested fan-out wider than the seed count.
        let cache = Arc::new(RealizationCache::new());
        let cell = enter_cell(4, Some(Arc::clone(&cache)));
        for (s, (base_r, base_t)) in strategies.iter().zip(&baselines) {
            let (r, t) = request(*s).run_traced();
            assert_eq!(&t, base_t, "{} trace differs under cell scope", s.name());
            assert_same_runs(&r, base_r, &s.name());
        }
        let report = cell.report();
        // 6 seeds realized once (misses), then reused by the second
        // strategy (hits).
        assert_eq!(report.cache_misses, 6);
        assert_eq!(report.cache_hits, 6);
        assert_eq!(cache.len(), 6);
        assert!(report.nested_jobs > 1, "nested fan-out never engaged");
        assert!(
            report.worker_busy_secs.iter().sum::<f64>() > 0.0,
            "nested busy time unrecorded"
        );
    }

    #[test]
    fn cache_without_nesting_matches_and_counts_intra_call_reuse() {
        use crate::strategies::Swap;
        let spec = tiny_spec(LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.4, 0.1, 20.0)));
        let app = tiny_app();
        let swap = Swap::greedy();
        let request = Replication::new(&spec, &app, &swap, 4, &[1, 2, 1, 2, 3]);
        let plain = request.run();
        let cache = Arc::new(RealizationCache::new());
        let cell = enter_cell(1, Some(Arc::clone(&cache)));
        assert_same_runs(&request.run(), &plain, "cached");
        let report = cell.report();
        // Repeated seeds hit within a single replicated call too.
        assert_eq!(report.cache_misses, 3);
        assert_eq!(report.cache_hits, 2);
        assert_eq!(report.nested_jobs, 1, "nesting must stay off");
        assert!(report.worker_busy_secs.is_empty());
    }

    #[test]
    fn nested_fan_out_through_an_installed_pool_is_bit_identical() {
        use crate::strategies::Swap;
        let spec = tiny_spec(LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.5, 0.2, 20.0)));
        let app = tiny_app();
        let seeds = default_seeds(9);
        let swap = Swap::greedy();
        let request = Replication::new(&spec, &app, &swap, 4, &seeds);
        let serial = request.run();
        let pool = Arc::new(simkit::pool::WorkerPool::new(3));
        let _pg = simkit::pool::install(&pool, 0);
        let cell = enter_cell(3, None);
        let nested = request.run();
        assert_eq!(nested.execution_time, serial.execution_time);
        assert_same_runs(&nested, &serial, "nested");
        let report = cell.report();
        assert_eq!(report.nested_jobs, 3);
        assert_eq!((report.cache_hits, report.cache_misses), (0, 0));
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_serial() {
        use crate::strategies::Swap;
        let spec = tiny_spec(LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.5, 0.2, 20.0)));
        let app = tiny_app();
        let seeds = default_seeds(9);
        let swap = Swap::greedy();
        let request = Replication::new(&spec, &app, &swap, 4, &seeds);
        let serial = request.run();
        for jobs in [0, 2, 3, 8] {
            let parallel = request.with_jobs(jobs).run();
            assert_eq!(
                parallel.execution_time, serial.execution_time,
                "jobs {jobs}"
            );
            assert_eq!(parallel.mean_adaptations, serial.mean_adaptations);
            assert_eq!(parallel.mean_adapt_time, serial.mean_adapt_time);
            assert_same_runs(&parallel, &serial, &format!("jobs {jobs}"));
            assert_eq!(parallel.seed_wall_secs.len(), seeds.len());
        }
    }
}
