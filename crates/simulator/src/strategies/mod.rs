//! The four execution strategies compared in §7.
//!
//! All strategies share the BSP execution core ([`crate::exec`]) and the
//! initial-schedule rules ([`crate::schedule`]); they differ only in what
//! they do at iteration boundaries. Each runs one iteration loop under
//! the context's fault plan, with a recovery branch for the iterations a
//! crash fails; a fault-free run is the same loop under the inert plan.

mod cr;
mod dlb;
mod dlb_swap;
mod nothing;
mod oracle;
mod swap;

pub use cr::Cr;
pub use dlb::Dlb;
pub use dlb_swap::DlbSwap;
pub use nothing::Nothing;
pub use oracle::Oracle;
pub use swap::Swap;

use crate::app::AppSpec;
use crate::exec::{IterationOutcome, RunResult};
use crate::platform::Platform;
use crate::schedule::{balanced_partition, best_first, equal_partition};

/// Everything a strategy needs for one run.
#[derive(Clone, Copy)]
pub struct RunContext<'a> {
    /// The realized platform (hosts with load traces, the shared link).
    pub platform: &'a Platform,
    /// The application description.
    pub app: &'a AppSpec,
    /// Processes allocated at startup. For SWAP and CR this is
    /// `N + M` (over-allocation); NOTHING and DLB allocate exactly `N`
    /// regardless. Clamped to the platform size.
    pub allocated: usize,
    /// Optional trace sink. `None` (the default) is the zero-cost path:
    /// every emission site is one branch on this option.
    pub trace: Option<&'a dyn obs::TraceSink>,
    /// The fault schedule the run executes under. [`RunContext::new`]
    /// starts from [`faults::FaultPlan::inert`]: no crashes, blackouts
    /// or link windows, and no checkpoint cadence. A fault-free run is
    /// the same loop as a fault run; its recovery branch never fires,
    /// and CR picks its performance-triggered restarts because the plan
    /// carries no cadence.
    pub faults: &'a faults::FaultPlan,
    /// Optional decision-policy bundle. `None` (the default) keeps the
    /// legacy inline choices (probe-ranked spare placement, fixed
    /// checkpoint cadence) with no `PolicyDecision` events, so runs
    /// without a policy layer stay byte-identical to earlier builds.
    pub policies: Option<&'a policy::PolicySet>,
}

impl<'a> RunContext<'a> {
    /// Creates a context under the inert fault plan, validating the
    /// application spec against the platform.
    ///
    /// # Panics
    /// Panics if the app needs more active processors than the platform
    /// has, or the spec fails [`AppSpec::validate`].
    pub fn new(platform: &'a Platform, app: &'a AppSpec, allocated: usize) -> Self {
        app.validate();
        assert!(
            app.n_active <= platform.hosts.len(),
            "application needs {} processors, platform has {}",
            app.n_active,
            platform.hosts.len()
        );
        RunContext {
            platform,
            app,
            allocated: allocated.clamp(app.n_active, platform.hosts.len()),
            trace: None,
            faults: faults::FaultPlan::inert(),
            policies: None,
        }
    }

    /// Attaches a trace sink; all strategies emit their event stream (in
    /// simulated time) into it.
    pub fn with_trace(mut self, sink: &'a dyn obs::TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Runs under `plan` instead of the inert plan: its crashes fire
    /// the strategies' recovery branches, and its checkpoint cadence
    /// switches CR to fault-tolerant checkpointing. The platform must
    /// already carry the plan's blackouts (see
    /// [`Platform::apply_blackouts`]).
    pub fn with_faults(mut self, plan: &'a faults::FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Attaches a policy bundle; strategies consult it at recovery
    /// placement and at CR's checkpoint cadence (and emit a
    /// `PolicyDecision` event per placement).
    pub fn with_policies(mut self, policies: &'a policy::PolicySet) -> Self {
        self.policies = Some(policies);
        self
    }

    /// Emits a lazily-built event when tracing is enabled.
    pub(crate) fn emit(&self, event: impl FnOnce() -> obs::TraceEvent) {
        if let Some(sink) = self.trace {
            sink.emit(event());
        }
    }

    /// Emits one `FailureDetected` event per crashed active host of
    /// iteration `iter`, all at the detection instant `t`.
    pub(crate) fn emit_failures(&self, failed: &[usize], t: f64, iter: usize) {
        for &host in failed {
            self.emit(|| obs::TraceEvent::FailureDetected {
                t,
                host,
                iter: Some(iter),
                cause: obs::FailureCause::InjectedCrash,
                detail: None,
            });
        }
    }

    /// Emits the standard per-iteration events: iteration start, one
    /// compute span per active process, iteration end.
    pub(crate) fn emit_iteration(
        &self,
        index: usize,
        active: &[usize],
        t0: f64,
        out: &IterationOutcome,
    ) {
        let Some(sink) = self.trace else { return };
        sink.emit(obs::TraceEvent::IterStart {
            t: t0,
            iter: index,
            active: active.to_vec(),
        });
        for (&host, &done) in active.iter().zip(&out.completions) {
            sink.emit(obs::TraceEvent::ComputeSpan {
                host,
                iter: index,
                start: t0,
                end: done,
            });
        }
        sink.emit(obs::TraceEvent::IterEnd {
            t: out.end,
            iter: index,
            compute_end: out.compute_end,
        });
    }
}

/// How the application's work is divided among its active processes:
/// the one thing NOTHING and DLB (and SWAP and DLB+SWAP) differ in.
#[derive(Clone, Copy)]
enum Partition {
    /// Equal chunks, the same every iteration (§6, "Initial schedule").
    Equal,
    /// Ideal DLB: chunks proportional to the speeds each host delivers
    /// at the iteration's start.
    Balanced,
}

impl Partition {
    /// Writes the work of the iteration starting at `t` on `active`
    /// into `work`. Equal chunks never change, so they are filled once
    /// and kept.
    fn assign(self, ctx: &RunContext<'_>, active: &[usize], t: f64, work: &mut Vec<f64>) {
        match self {
            Partition::Equal if work.len() == active.len() => {}
            Partition::Equal => *work = equal_partition(active.len(), ctx.app.flops_per_proc_iter),
            Partition::Balanced => {
                let speeds: Vec<f64> = active
                    .iter()
                    .map(|&h| ctx.platform.hosts[h].delivered_at(t))
                    .collect();
                *work = balanced_partition(ctx.app.total_flops_per_iter(), &speeds);
            }
        }
    }
}

/// Ranks `candidates` by mean delivered speed over `[t0, t1]` (best
/// first, ties by id) — how a recovering manager picks replacement hosts:
/// it has probe measurements over the failed iteration's window, nothing
/// more.
pub(crate) fn rank_by_probe(
    platform: &Platform,
    candidates: impl IntoIterator<Item = usize>,
    t0: f64,
    t1: f64,
) -> Vec<usize> {
    best_first(candidates, usize::MAX, |h| {
        crate::exec::probe_host(platform, h, t0, t1)
    })
}

/// Builds the [`policy::SpareCandidate`] descriptors a placement policy
/// sees: one per probe-ranked candidate, carrying everything the fault
/// plan makes observable (effective MTBF, distribution family, last rack
/// alarm at or before `t1`).
fn policy_candidates(
    ctx: &RunContext<'_>,
    ranked: &[usize],
    t1: f64,
) -> Vec<policy::SpareCandidate> {
    let plan = ctx.faults;
    ranked
        .iter()
        .map(|&h| policy::SpareCandidate {
            host: h,
            uptime_secs: t1,
            mtbf_secs: plan.host_mtbf(h),
            dist: plan.crash_dist,
            last_domain_shock: plan
                .domain_of(h)
                .and_then(|d| plan.last_shock_before(d, t1)),
        })
        .collect()
}

/// Ranks the hosts that could replace `dead` at a recovery point, best
/// first: probe-rank the candidates (the legacy order), then — when a
/// policy bundle is attached — let its placement policy re-rank them and
/// emit the `PolicyDecision` audit event. SWAP takes the first spare, CR
/// restarts on the first `N` survivors. With no policy bundle this is
/// byte-identical to the inline `rank_by_probe` the strategies used
/// before the policy layer existed.
pub(crate) fn choose_spare(
    ctx: &RunContext<'_>,
    candidates: impl IntoIterator<Item = usize>,
    dead: usize,
    t0: f64,
    t1: f64,
) -> Vec<usize> {
    let probe_ranked = rank_by_probe(ctx.platform, candidates, t0, t1);
    let Some(ps) = ctx.policies else {
        return probe_ranked;
    };
    let candidates = policy_candidates(ctx, &probe_ranked, t1);
    let ranked = ps.placement.rank(&candidates, t1, ps.lookback_secs);
    ctx.emit(|| obs::TraceEvent::PolicyDecision {
        t: t1,
        policy: ps.placement.name().to_owned(),
        failed: dead,
        chosen: ranked.first().copied(),
        ranked: ranked.clone(),
    });
    ranked
}

/// An execution strategy: how the application reacts (or not) to the
/// changing environment.
///
/// `Send + Sync` is a supertrait so the replicated runner can share one
/// strategy value across worker threads; strategies are parameter
/// bundles (policies, thresholds), so this costs implementations
/// nothing.
pub trait Strategy: Send + Sync {
    /// Human-readable label used in results and figures.
    fn name(&self) -> String;
    /// Simulates one full application run.
    fn run(&self, ctx: &RunContext<'_>) -> RunResult;
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::platform::{LoadSpec, Platform, PlatformSpec};
    use crate::AppSpec;
    use loadmodel::OnOffSource;
    use simkit::link::SharedLink;

    /// A small, fast platform/app pair for strategy unit tests.
    pub fn small_platform(load: LoadSpec, seed: u64) -> Platform {
        PlatformSpec {
            n_hosts: 8,
            speed_range: (1e8, 2e8),
            link: SharedLink::new(1e-4, 6e6),
            startup_per_process: 0.75,
            load,
            horizon: 20_000.0,
        }
        .realize(seed)
    }

    pub fn small_app() -> AppSpec {
        AppSpec {
            n_active: 2,
            // 30 iterations × ~20 s ≈ 600 s: each replication spans
            // several 80 s load sojourns (see `moderate_onoff`), so
            // benefit/harm comparisons measure the policies rather than
            // one lucky or unlucky load event.
            iterations: 30,
            flops_per_proc_iter: 3e9, // 15–30 s/iteration on these hosts
            bytes_per_proc_iter: 1e5,
            process_state_bytes: 1e6,
        }
    }

    pub fn moderate_onoff() -> LoadSpec {
        // 50% duty with mean ON = mean OFF = 80 s: load events persist
        // across ~4 of `small_app`'s ~20 s iterations (so history-driven
        // policies can exploit them) while a 10-iteration run still spans
        // ~2.5 sojourns per host — the same iteration:event:run timescale
        // ordering DESIGN.md §"Dynamism axis" fixes for the experiment
        // sweeps (60 s iterations, 375 s events, multi-hour runs). With
        // events longer than the whole run the environment would be
        // static per-replication and adaptation could never pay.
        LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.5, 0.25, 20.0))
    }
}
