//! Clairvoyant upper bound.
//!
//! Not in the paper — an analysis tool this reproduction adds. The
//! oracle sees the *future*: before every iteration it places the
//! application on the `N` hosts that will deliver the most capacity over
//! the upcoming iteration, paying nothing to move. No measurement-driven
//! policy can beat it; the gap between a policy and the oracle is the
//! value still obtainable from better prediction (`ablation_oracle`
//! quantifies it).

use super::{RunContext, Strategy};
use crate::exec::{run_iteration, FaultedIteration, IterationRecord, RunResult};
use crate::schedule::{best_first, equal_partition};

/// Free-migration, future-seeing host selection — an upper bound on every
/// swapping policy.
///
/// Under faults the oracle also foresees crashes, but we keep it honest
/// by only letting it avoid hosts already dead at the iteration start (it
/// still places ahead by delivered capacity, so a mid-iteration crash can
/// catch it). Recovery is free: the lost iteration is retried from the
/// detection instant on the best survivors, with no transfer or restart
/// pause — the upper bound no real recovery protocol can beat.
#[derive(Clone, Copy, Debug, Default)]
pub struct Oracle;

impl Oracle {
    /// Picks the `n` hosts with the highest delivered capacity over
    /// `[t, t + window]`, best first (ties by id), drawn from
    /// `candidates`.
    fn best_hosts_over(
        ctx: &RunContext<'_>,
        candidates: Vec<usize>,
        n: usize,
        t: f64,
        window: f64,
    ) -> Vec<usize> {
        let hosts = &ctx.platform.hosts;
        best_first(candidates, n, |h| hosts[h].cpu.capacity(t, t + window))
    }
}

impl Strategy for Oracle {
    fn name(&self) -> String {
        "oracle".to_owned()
    }

    fn run(&self, ctx: &RunContext<'_>) -> RunResult {
        let app = ctx.app;
        let plan = ctx.faults;
        let n = app.n_active;
        let work = equal_partition(n, app.flops_per_proc_iter);
        // Startup like NOTHING: the oracle needs no spare pool.
        let startup = ctx.platform.startup_time(n);
        let mut t = startup;
        // Look-ahead window: the unloaded iteration time on a mid-range
        // host, refined to the previous iteration's actual length.
        let mut window = app.unloaded_iter_time(3.0e8);
        let mut iterations = Vec::with_capacity(app.iterations);
        let mut moves = 0usize;
        let (mut failures, mut recoveries) = (0usize, 0usize);
        let mut truncated = false;
        let mut prev_active: Option<Vec<usize>> = None;
        let mut fi = FaultedIteration::default();

        let mut index = 0;
        while index < app.iterations {
            let alive = plan.alive_hosts(ctx.platform.hosts.len(), t);
            if alive.len() < n {
                truncated = true;
                t = plan.horizon.max(t);
                break;
            }
            let active = Oracle::best_hosts_over(ctx, alive, n, t, window);
            if let Some(prev) = &prev_active {
                moves += active.iter().filter(|h| !prev.contains(h)).count();
            }
            run_iteration(ctx.platform, app, &active, &work, t, plan, &mut fi);
            if !fi.failed.is_empty() {
                failures += fi.failed.len();
                let detected = fi.detected;
                ctx.emit_failures(&fi.failed, detected, index);
                ctx.emit(|| obs::TraceEvent::RecoveryComplete {
                    t: detected,
                    host: fi.failed[0],
                    replacement: None,
                    action: obs::RecoveryAction::SpareSwap,
                    pause_secs: 0.0,
                });
                recoveries += fi.failed.len();
                prev_active = Some(active);
                t = detected;
                continue;
            }
            let out = &fi.outcome;
            ctx.emit_iteration(index, &active, t, out);
            window = out.end - t;
            iterations.push(IterationRecord {
                index,
                start: t,
                compute_end: out.compute_end,
                end: out.end,
                adapt_time: 0.0,
                active: active.clone(),
            });
            prev_active = Some(active);
            t = out.end;
            index += 1;
        }

        RunResult {
            strategy: self.name(),
            execution_time: t,
            startup_time: startup,
            adaptations: moves,
            adapt_time_total: 0.0,
            iterations,
            failures,
            recoveries,
            aborts: 0,
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{moderate_onoff, small_app, small_platform};
    use super::super::{Nothing, Swap};
    use super::*;
    use crate::platform::LoadSpec;

    #[test]
    fn matches_nothing_when_quiescent() {
        let p = small_platform(LoadSpec::Unloaded, 0);
        let app = small_app();
        let ctx = RunContext::new(&p, &app, 2);
        let oracle = Oracle.run(&ctx);
        let nothing = Nothing.run(&ctx);
        assert!((oracle.execution_time - nothing.execution_time).abs() < 1e-6);
        assert_eq!(oracle.adaptations, 0);
    }

    #[test]
    fn never_loses_to_greedy_swapping() {
        let app = small_app();
        for seed in 0..8 {
            let p = small_platform(moderate_onoff(), seed);
            let oracle = Oracle.run(&RunContext::new(&p, &app, 8));
            let greedy = Swap::greedy().run(&RunContext::new(&p, &app, 8));
            assert!(
                oracle.execution_time <= greedy.execution_time + 1e-6,
                "seed {seed}: oracle {} > greedy {}",
                oracle.execution_time,
                greedy.execution_time
            );
        }
    }

    #[test]
    fn beats_nothing_under_load() {
        let app = small_app();
        let mut wins = 0;
        for seed in 0..8 {
            let p = small_platform(moderate_onoff(), seed);
            let oracle = Oracle.run(&RunContext::new(&p, &app, 2));
            let nothing = Nothing.run(&RunContext::new(&p, &app, 2));
            if oracle.execution_time < nothing.execution_time {
                wins += 1;
            }
        }
        assert!(wins >= 7, "oracle won only {wins}/8");
    }

    #[test]
    fn deterministic() {
        let p = small_platform(moderate_onoff(), 3);
        let app = small_app();
        let a = Oracle.run(&RunContext::new(&p, &app, 2));
        let b = Oracle.run(&RunContext::new(&p, &app, 2));
        assert_eq!(a.execution_time, b.execution_time);
    }
}
