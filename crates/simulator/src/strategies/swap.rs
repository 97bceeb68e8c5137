//! The SWAP strategy: MPI process swapping under a policy (§3, §6).
//!
//! "Over-allocated, spare processors are left idle … an application does
//! not consume more resources because of over-allocation." At the end of
//! each iteration the swap manager collects performance measurements for
//! every allocated processor (active processes report their achieved
//! compute rate; swap handlers probe the spares), feeds them through the
//! policy's history window/predictor, and asks the decision engine
//! whether to exchange the slowest active processor(s) for the fastest
//! spare(s). Each admitted exchange pauses the application for
//! `α + state/β` while the process state crosses the shared link.

use super::{choose_spare, Partition, RunContext, Strategy};
use crate::exec::{
    probe_host_with, run_iteration, FaultedIteration, IterationOutcome, IterationRecord, RunResult,
};
use crate::schedule::fastest_hosts;
use simkit::Cursor;
use swap_core::{ManagerCore, PolicyParams, SwapCost, SwapDecision};

/// MPI process swapping with a configurable policy.
#[derive(Clone, Copy, Debug)]
pub struct Swap {
    policy: PolicyParams,
    label: &'static str,
    max_swaps: Option<usize>,
}

impl Swap {
    /// Swapping under an arbitrary policy (labelled "custom").
    pub fn new(policy: PolicyParams) -> Self {
        Swap {
            policy,
            label: "custom",
            max_swaps: None,
        }
    }

    /// The greedy policy — the paper's default "SWAP" in Figures 4–6.
    pub fn greedy() -> Self {
        Swap {
            policy: PolicyParams::greedy(),
            label: "greedy",
            max_swaps: None,
        }
    }

    /// The safe policy.
    pub fn safe() -> Self {
        Swap {
            policy: PolicyParams::safe(),
            label: "safe",
            max_swaps: None,
        }
    }

    /// The friendly policy.
    pub fn friendly() -> Self {
        Swap {
            policy: PolicyParams::friendly(),
            label: "friendly",
            max_swaps: None,
        }
    }

    /// Caps exchanges per decision point (ablation knob; the paper's
    /// policies swap "the slowest active processor(s) for the fastest
    /// inactive processor(s)" — i.e., possibly several at once).
    pub fn with_max_swaps(mut self, max: usize) -> Self {
        self.max_swaps = Some(max);
        self
    }

    /// The policy driving this strategy.
    pub fn policy(&self) -> &PolicyParams {
        &self.policy
    }
}

impl Strategy for Swap {
    fn name(&self) -> String {
        format!("swap({})", self.label)
    }

    fn run(&self, ctx: &RunContext<'_>) -> RunResult {
        run_swapping(
            ctx,
            self.name(),
            self.policy,
            self.max_swaps,
            Partition::Equal,
        )
    }
}

/// The swap manager's per-run state, shared by SWAP, DLB+SWAP and CR's
/// performance trigger: the shared decision core, plus how the
/// simulator measures each host.
pub(super) struct Manager {
    /// Histories and the decision engine, indexed by host id (not by
    /// pool position, which shifts when crashed hosts leave the pool).
    pub(super) core: ManagerCore,
    /// What the manager knows of each host, indexed by host id.
    hosts: Vec<Tracked>,
}

/// The manager's record of one host.
struct Tracked {
    /// Where the host's last probe ended in its load timeline.
    cursor: Cursor,
    /// Whether an application process runs here, as of the last
    /// [`Manager::mark_active`].
    active: bool,
}

impl Manager {
    pub(super) fn new(
        ctx: &RunContext<'_>,
        policy: PolicyParams,
        max_swaps: Option<usize>,
    ) -> Self {
        let hosts = ctx.platform.hosts.iter().map(|_| Tracked {
            cursor: Cursor::default(),
            active: false,
        });
        Manager {
            core: ManagerCore::new(
                ctx.platform.hosts.len(),
                Some(policy),
                SwapCost::from_link(ctx.platform.link),
                max_swaps,
            ),
            hosts: hosts.collect(),
        }
    }

    /// Flags exactly the hosts in `active` as active.
    fn mark_active(&mut self, active: &[usize]) {
        for host in &mut self.hosts {
            host.active = false;
        }
        for &h in active {
            self.hosts[h].active = true;
        }
    }

    /// Measurement at the end of an iteration that started at `t`:
    /// active processes report their achieved compute rate; swap
    /// handlers probe the spares over the same window.
    pub(super) fn measure(
        &mut self,
        ctx: &RunContext<'_>,
        pool: &[usize],
        active: &[usize],
        t: f64,
        out: &IterationOutcome,
    ) {
        self.mark_active(active);
        for (k, &h) in active.iter().enumerate() {
            self.core.record(h, out.end, out.measured_rates[k]);
        }
        for &h in pool {
            let host = &mut self.hosts[h];
            if host.active {
                continue;
            }
            let probed = probe_host_with(ctx.platform, h, t, out.compute_end, &mut host.cursor);
            self.core.record(h, out.end, probed);
            ctx.emit(|| obs::TraceEvent::Probe {
                t: out.end,
                host: h,
                rate: probed,
            });
        }
    }

    /// Decision point at `now`, after iteration `index` took
    /// `iter_time`: asks the core which exchanges pay back for the pool,
    /// in pool order, and emits the `SwapDecision` audit event.
    pub(super) fn decide(
        &mut self,
        ctx: &RunContext<'_>,
        pool: &[usize],
        active: &[usize],
        index: usize,
        iter_time: f64,
        now: f64,
    ) -> SwapDecision {
        self.mark_active(active);
        let hosts = &self.hosts;
        let state = ctx.app.process_state_bytes;
        let decision = self
            .core
            .decide(
                pool.iter().map(|&h| (h, hosts[h].active)),
                now,
                iter_time,
                state,
            )
            .expect("the simulator's manager has a policy");
        ctx.emit(|| obs::TraceEvent::SwapDecision {
            t: now,
            iter: index,
            old_iter_time: iter_time,
            swap_time: SwapCost::from_link(ctx.platform.link).swap_time(state),
            app_improvement: decision.app_improvement,
            stopped_because: decision.stopped_because,
            admitted: decision.pairs.clone(),
            rejected: decision.rejected,
        });
        decision
    }
}

/// The swap-manager loop SWAP and DLB+SWAP share. At startup the
/// `allocated` best processors are acquired and the best `N` compute;
/// after every iteration but the last (nothing is left to amortize
/// against) the manager measures, predicts and exchanges the slowest
/// active processor(s) for the fastest spare(s) the policy admits, each
/// exchange pausing the application for `α + state/β`.
///
/// The over-allocated spare pool doubles as a recovery pool. A crashed
/// active slot is reported at the next collective (ULFM semantics); the
/// manager treats the death as a *mandatory* swap — the payback algebra
/// is skipped entirely — and restores the process on the best surviving
/// spare from its last registered snapshot (one `α + state/β` transfer,
/// the same price as a voluntary swap). Crashed hosts leave the pool for
/// good. The failed iteration is re-run from the recovery instant. If a
/// dead slot has no spare left, the run is truncated and censored at the
/// plan's horizon.
pub(super) fn run_swapping(
    ctx: &RunContext<'_>,
    strategy: String,
    policy: PolicyParams,
    max_swaps: Option<usize>,
    partition: Partition,
) -> RunResult {
    let app = ctx.app;
    let plan = ctx.faults;
    let n = app.n_active;
    let alloc = ctx.allocated;

    let mut pool = fastest_hosts(ctx.platform, alloc, 0.0);
    let mut active: Vec<usize> = pool[..n].to_vec();
    let mut manager = Manager::new(ctx, policy, max_swaps);

    let startup = ctx.platform.startup_time(alloc);
    let mut t = startup;
    let mut work = Vec::new();
    let mut iterations = Vec::with_capacity(app.iterations);
    let mut swaps = 0usize;
    let mut adapt_total = 0.0;
    let (mut failures, mut recoveries) = (0usize, 0usize);
    let mut truncated = false;
    let transfer = ctx.platform.link.transfer_time(app.process_state_bytes);
    let mut fi = FaultedIteration::default();

    let mut index = 0;
    while index < app.iterations {
        partition.assign(ctx, &active, t, &mut work);
        run_iteration(ctx.platform, app, &active, &work, t, plan, &mut fi);
        if !fi.failed.is_empty() {
            failures += fi.failed.len();
            let detected = fi.detected;
            ctx.emit_failures(&fi.failed, detected, index);
            // Every host known dead by the detection instant leaves
            // the pool — crashed spares are discovered here too.
            pool.retain(|&h| !plan.is_crashed(h, detected));
            let mut pause = 0.0;
            let mut stranded = false;
            for &dead in &fi.failed {
                let spares = pool.iter().copied().filter(|h| !active.contains(h));
                let Some(&best) = choose_spare(ctx, spares, dead, t, detected).first() else {
                    stranded = true;
                    break;
                };
                let slot = active
                    .iter()
                    .position(|&h| h == dead)
                    .expect("failed host is active");
                active[slot] = best;
                ctx.emit(|| obs::TraceEvent::SwapExec {
                    t: detected + pause,
                    iter: index,
                    from: dead,
                    to: best,
                    bytes: app.process_state_bytes,
                    transfer_secs: transfer,
                });
                pause += transfer;
                ctx.emit(|| obs::TraceEvent::RecoveryComplete {
                    t: detected + pause,
                    host: dead,
                    replacement: Some(best),
                    action: obs::RecoveryAction::SpareSwap,
                    pause_secs: transfer,
                });
                swaps += 1;
                recoveries += 1;
            }
            if stranded {
                truncated = true;
                t = plan.horizon.max(detected);
                break;
            }
            adapt_total += pause;
            t = detected + pause;
            continue; // re-run the same iteration index
        }

        let out = &fi.outcome;
        ctx.emit_iteration(index, &active, t, out);
        // Spares that died quietly are discovered by their failed
        // probes at the iteration boundary.
        pool.retain(|&h| !plan.is_crashed(h, out.end));
        manager.measure(ctx, &pool, &active, t, out);

        let active_during = active.clone();
        let mut adapt_time = 0.0;
        if index + 1 < app.iterations {
            let decision = manager.decide(ctx, &pool, &active, index, out.end - t, out.end);
            for pair in &decision.pairs {
                let slot = active
                    .iter()
                    .position(|&h| h == pair.from)
                    .expect("engine swaps an active host");
                active[slot] = pair.to;
                ctx.emit(|| obs::TraceEvent::SwapExec {
                    t: out.end + adapt_time,
                    iter: index,
                    from: pair.from,
                    to: pair.to,
                    bytes: app.process_state_bytes,
                    transfer_secs: transfer,
                });
                adapt_time += transfer;
            }
            swaps += decision.pairs.len();
        }

        iterations.push(IterationRecord {
            index,
            start: t,
            compute_end: out.compute_end,
            end: out.end,
            adapt_time,
            active: active_during,
        });
        adapt_total += adapt_time;
        t = out.end + adapt_time;
        index += 1;
    }

    RunResult {
        strategy,
        execution_time: t,
        startup_time: startup,
        adaptations: swaps,
        adapt_time_total: adapt_total,
        iterations,
        failures,
        recoveries,
        aborts: 0,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{moderate_onoff, small_app, small_platform};
    use super::super::Nothing;
    use super::*;
    use crate::platform::{Host, LoadSpec, Platform};
    use loadmodel::LoadTrace;
    use simkit::link::SharedLink;

    #[test]
    fn no_swaps_on_a_quiescent_platform() {
        let p = small_platform(LoadSpec::Unloaded, 0);
        let app = small_app();
        let ctx = RunContext::new(&p, &app, 8);
        let r = Swap::greedy().run(&ctx);
        assert_eq!(r.adaptations, 0, "nothing to gain, nothing swapped");
        // Identical per-iteration behaviour to NOTHING, except the larger
        // startup (8 vs 2 processes).
        let nothing = Nothing.run(&RunContext::new(&p, &app, 2));
        let extra_startup = p.startup_time(8) - p.startup_time(2);
        assert!((r.execution_time - nothing.execution_time - extra_startup).abs() < 1e-6);
    }

    #[test]
    fn swaps_away_from_a_permanently_loaded_host() {
        // Two fast hosts, one of which becomes loaded after startup; two
        // idle spares. Greedy must move off the loaded host.
        let loaded = LoadTrace::from_intervals([(5.0, 1e9)]);
        let p = Platform {
            hosts: vec![
                Host::new(1.2e8, LoadTrace::unloaded()),
                Host::new(1.1e8, loaded),
                Host::new(1.0e8, LoadTrace::unloaded()),
                Host::new(0.9e8, LoadTrace::unloaded()),
            ],
            link: SharedLink::new(1e-4, 6e6),
            startup_per_process: 0.75,
        };
        let app = small_app();
        let ctx = RunContext::new(&p, &app, 4);
        let r = Swap::greedy().run(&ctx);
        assert!(r.adaptations >= 1, "expected at least one swap");
        let last_active = &r.iterations.last().unwrap().active;
        assert!(
            !last_active.contains(&1),
            "loaded host 1 still active at the end: {last_active:?}"
        );

        // And the adaptive run beats doing nothing.
        let nothing = Nothing.run(&RunContext::new(&p, &app, 2));
        assert!(
            r.execution_time < nothing.execution_time,
            "swap {} vs nothing {}",
            r.execution_time,
            nothing.execution_time
        );
    }

    #[test]
    fn beneficial_under_persistent_onoff_load() {
        let app = small_app();
        let mut swap_wins = 0;
        for seed in 0..8 {
            let p = small_platform(moderate_onoff(), seed);
            let swap = Swap::greedy().run(&RunContext::new(&p, &app, 8));
            let nothing = Nothing.run(&RunContext::new(&p, &app, 2));
            if swap.execution_time < nothing.execution_time {
                swap_wins += 1;
            }
        }
        assert!(
            swap_wins >= 6,
            "greedy swapping won only {swap_wins}/8 replications"
        );
    }

    #[test]
    fn huge_state_makes_greedy_swapping_harmful() {
        // Swap time (1 GB / 6 MB/s ≈ 167 s) far exceeds the iteration
        // time (~15–30 s): the Figure 8 pathology.
        let mut app = small_app();
        app.process_state_bytes = 1e9;
        let mut greedy_worse = 0;
        for seed in 0..6 {
            let p = small_platform(moderate_onoff(), seed);
            let greedy = Swap::greedy().run(&RunContext::new(&p, &app, 8));
            let nothing = Nothing.run(&RunContext::new(&p, &app, 2));
            if greedy.adaptations > 0 && greedy.execution_time > nothing.execution_time {
                greedy_worse += 1;
            }
        }
        assert!(
            greedy_worse >= 3,
            "expected greedy to hurt with 1 GB state, hurt in {greedy_worse}/6"
        );
    }

    #[test]
    fn safe_swaps_at_most_as_often_as_greedy() {
        let app = small_app();
        for seed in 0..5 {
            let p = small_platform(moderate_onoff(), seed);
            let greedy = Swap::greedy().run(&RunContext::new(&p, &app, 8));
            let safe = Swap::safe().run(&RunContext::new(&p, &app, 8));
            assert!(
                safe.adaptations <= greedy.adaptations,
                "seed {seed}: safe {} > greedy {}",
                safe.adaptations,
                greedy.adaptations
            );
        }
    }

    #[test]
    fn deterministic_given_platform() {
        let p = small_platform(moderate_onoff(), 3);
        let app = small_app();
        let a = Swap::greedy().run(&RunContext::new(&p, &app, 8));
        let b = Swap::greedy().run(&RunContext::new(&p, &app, 8));
        assert_eq!(a.execution_time, b.execution_time);
        assert_eq!(a.adaptations, b.adaptations);
    }

    #[test]
    fn no_overallocation_means_no_swaps() {
        let p = small_platform(moderate_onoff(), 4);
        let app = small_app();
        let r = Swap::greedy().run(&RunContext::new(&p, &app, 2));
        assert_eq!(r.adaptations, 0);
    }

    #[test]
    fn adapt_time_matches_swap_count() {
        let p = small_platform(moderate_onoff(), 5);
        let app = small_app();
        let r = Swap::greedy().run(&RunContext::new(&p, &app, 8));
        let per_swap = p.link.transfer_time(app.process_state_bytes);
        assert!((r.adapt_time_total - r.adaptations as f64 * per_swap).abs() < 1e-9);
    }
}
