//! The NOTHING baseline: schedule once, never adapt.

use super::{rank_by_probe, Partition, RunContext, Strategy};
use crate::exec::{run_iteration, FaultedIteration, IterationRecord, RunResult};
use crate::schedule::fastest_hosts;

/// "Do nothing": start on the `N` fastest processors and stay there,
/// equal work partition, whatever the environment does afterwards.
#[derive(Clone, Copy, Debug, Default)]
pub struct Nothing;

impl Strategy for Nothing {
    fn name(&self) -> String {
        "nothing".to_owned()
    }

    fn run(&self, ctx: &RunContext<'_>) -> RunResult {
        run_resubmitting(ctx, self.name(), Partition::Equal)
    }
}

/// The loop NOTHING and DLB share: start on the `N` fastest hosts and
/// never move by choice. Neither has a recovery mechanism, so a crashed
/// active host aborts the whole run. We model resubmission semantics —
/// the job restarts from scratch (losing all completed iterations) on
/// the `N` best surviving hosts, paying startup again — which is what a
/// batch system would do. If fewer than `N` hosts survive, the run can
/// never finish and its execution time is censored at the fault plan's
/// horizon.
pub(super) fn run_resubmitting(
    ctx: &RunContext<'_>,
    strategy: String,
    partition: Partition,
) -> RunResult {
    let app = ctx.app;
    let plan = ctx.faults;
    let n = app.n_active;
    let mut active = fastest_hosts(ctx.platform, n, 0.0);
    let mut work = Vec::new();

    let startup = ctx.platform.startup_time(n);
    let mut t = startup;
    let mut iterations = Vec::with_capacity(app.iterations);
    let (mut failures, mut aborts) = (0usize, 0usize);
    let mut truncated = false;
    let mut adapt_total = 0.0;
    let mut fi = FaultedIteration::default();
    let mut index = 0;
    while index < app.iterations {
        partition.assign(ctx, &active, t, &mut work);
        run_iteration(ctx.platform, app, &active, &work, t, plan, &mut fi);
        if !fi.failed.is_empty() {
            failures += fi.failed.len();
            aborts += 1;
            let detected = fi.detected;
            ctx.emit_failures(&fi.failed, detected, index);
            let alive = plan.alive_hosts(ctx.platform.hosts.len(), detected);
            if alive.len() < n {
                truncated = true;
                t = plan.horizon.max(detected);
                break;
            }
            active = rank_by_probe(ctx.platform, alive, t, detected)[..n].to_vec();
            let pause = ctx.platform.startup_time(n);
            ctx.emit(|| obs::TraceEvent::RecoveryComplete {
                t: detected + pause,
                host: fi.failed[0],
                replacement: None,
                action: obs::RecoveryAction::Abort,
                pause_secs: pause,
            });
            adapt_total += pause;
            t = detected + pause;
            index = 0;
            iterations.clear();
            continue;
        }
        let out = &fi.outcome;
        ctx.emit_iteration(index, &active, t, out);
        iterations.push(IterationRecord {
            index,
            start: t,
            compute_end: out.compute_end,
            end: out.end,
            adapt_time: 0.0,
            active: active.clone(),
        });
        t = out.end;
        index += 1;
    }

    RunResult {
        strategy,
        execution_time: t,
        startup_time: startup,
        adaptations: 0,
        adapt_time_total: adapt_total,
        iterations,
        failures,
        recoveries: 0,
        aborts,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{moderate_onoff, small_app, small_platform};
    use super::*;
    use crate::platform::LoadSpec;

    #[test]
    fn unloaded_run_time_is_deterministic_and_exact() {
        let p = small_platform(LoadSpec::Unloaded, 0);
        let app = small_app();
        let ctx = RunContext::new(&p, &app, app.n_active);
        let r = Nothing.run(&ctx);

        // The two fastest hosts bound each iteration; work/speed of the
        // slower of the two plus the comm phase.
        let active = crate::schedule::fastest_hosts(&p, 2, 0.0);
        let slowest = p.hosts[active[1]].speed;
        let compute = app.flops_per_proc_iter / slowest;
        let comm = p.link.bulk_transfer_time(2, app.bytes_per_proc_iter);
        let expected = p.startup_time(2) + app.iterations as f64 * (compute + comm);
        assert!(
            (r.execution_time - expected).abs() < 1e-6,
            "got {}, expected {expected}",
            r.execution_time
        );
        assert_eq!(r.adaptations, 0);
        assert_eq!(r.iterations.len(), app.iterations);
    }

    #[test]
    fn never_changes_processors() {
        let p = small_platform(moderate_onoff(), 42);
        let app = small_app();
        let ctx = RunContext::new(&p, &app, app.n_active);
        let r = Nothing.run(&ctx);
        let first = &r.iterations[0].active;
        assert!(r.iterations.iter().all(|it| &it.active == first));
    }

    #[test]
    fn load_makes_runs_slower_than_unloaded() {
        let app = small_app();
        let quiet = small_platform(LoadSpec::Unloaded, 7);
        let busy = small_platform(moderate_onoff(), 7);
        let r_quiet = Nothing.run(&RunContext::new(&quiet, &app, 2));
        let r_busy = Nothing.run(&RunContext::new(&busy, &app, 2));
        assert!(
            r_busy.execution_time > r_quiet.execution_time,
            "busy {} <= quiet {}",
            r_busy.execution_time,
            r_quiet.execution_time
        );
    }

    #[test]
    fn allocation_surplus_is_ignored() {
        let p = small_platform(LoadSpec::Unloaded, 0);
        let app = small_app();
        let a = Nothing.run(&RunContext::new(&p, &app, 2));
        let b = Nothing.run(&RunContext::new(&p, &app, 8));
        assert_eq!(a.execution_time, b.execution_time);
        assert_eq!(a.startup_time, p.startup_time(2));
    }
}
