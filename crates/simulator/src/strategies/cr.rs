//! Checkpoint/restart (§6, "Checkpoint/restart").
//!
//! "At each iteration, the execution rate is analyzed. If performance can
//! be increased by using another set of processors, based on the same
//! criteria used to evaluate process swapping decisions, the application
//! is checkpointed. We simulate the overhead of starting up the
//! application. We assume that application state information is written
//! to a central location. Upon application restart, the checkpoint is
//! read by each process, and execution resumes. Our simulations account
//! for the overhead of writing and reading the checkpoint."
//!
//! Unlike SWAP, a restart relocates *all* processes at once (to the `N`
//! best-predicted processors in the allocated pool), but pays the full
//! checkpoint write + MPI restart + checkpoint read each time.

use super::swap::Manager;
use super::{choose_spare, RunContext, Strategy};
use crate::exec::{run_iteration, FaultedIteration, IterationRecord, RunResult};
use crate::schedule::{equal_partition, fastest_hosts};
use swap_core::{PolicyParams, ProcessorSnapshot};

/// Checkpoint/restart driven by the same decision criteria as swapping.
///
/// The fault plan selects what CR is for. Under a plan with a checkpoint
/// cadence (every plan [`faults::FaultPlan::generate`] builds, whether or
/// not a fault lands) CR is a classic fault-tolerance protocol: every
/// `checkpoint_every` completed iterations the application writes a
/// checkpoint (pausing for the N-process bulk write), and it makes no
/// performance restarts — the cadence is the fault-tolerance knob, not a
/// performance policy. Under the inert plan, which has no cadence, CR is
/// the paper's performance-triggered restart described above.
///
/// Either way, when an active host crashes the run rolls back to the
/// last checkpoint (without a cadence, the one the last performance
/// restart wrote), losing everything since; it pays the restart cost
/// (read + MPI startup), and resumes on the `N` best surviving hosts in
/// the pool. If fewer than `N` pool hosts survive, the run is censored
/// at the plan's horizon.
#[derive(Clone, Copy, Debug)]
pub struct Cr {
    policy: PolicyParams,
}

impl Cr {
    /// CR under the greedy criteria — the paper's "CR" curves.
    pub fn greedy() -> Self {
        Cr {
            policy: PolicyParams::greedy(),
        }
    }

    /// CR under an arbitrary policy (the trigger uses the same gates as
    /// the corresponding SWAP run).
    pub fn new(policy: PolicyParams) -> Self {
        Cr { policy }
    }

    /// Cost of one checkpoint/restart cycle: write all N process states to
    /// the central store over the shared link, restart the N application
    /// processes (0.75 s each — the spare pool stays allocated from the
    /// initial launch), read the states back.
    pub fn restart_cost(ctx: &RunContext<'_>) -> f64 {
        let n = ctx.app.n_active;
        let write = ctx
            .platform
            .link
            .bulk_transfer_time(n, ctx.app.process_state_bytes);
        let read = write;
        write + ctx.platform.startup_time(n) + read
    }
}

impl Strategy for Cr {
    fn name(&self) -> String {
        "cr".to_owned()
    }

    fn run(&self, ctx: &RunContext<'_>) -> RunResult {
        let app = ctx.app;
        let plan = ctx.faults;
        let n = app.n_active;
        let alloc = ctx.allocated;

        let mut pool = fastest_hosts(ctx.platform, alloc, 0.0);
        let mut active: Vec<usize> = pool[..n].to_vec();
        let mut manager = Manager::new(ctx, self.policy, None);

        let startup = ctx.platform.startup_time(alloc);
        let ckpt_write = ctx
            .platform
            .link
            .bulk_transfer_time(n, app.process_state_bytes);
        let restart_pause = ckpt_write + ctx.platform.startup_time(n);
        let cycle_cost = Cr::restart_cost(ctx);
        let mut t = startup;
        let work = equal_partition(n, app.flops_per_proc_iter);
        let mut iterations = Vec::with_capacity(app.iterations);
        let mut restarts = 0usize;
        let mut adapt_total = 0.0;
        let (mut failures, mut recoveries) = (0usize, 0usize);
        let mut truncated = false;
        // Iteration index the last durable checkpoint covers (state as of
        // the *start* of this index). Index 0 is free: the input deck.
        let mut ckpt_index = 0usize;
        // Online estimates a checkpoint policy keys on: observed mean
        // iteration time and the empirical per-host MTBF (total host-time
        // over observed failures; None until the first failure).
        let mut iter_secs_sum = 0.0;
        let mut iters_run = 0usize;
        let mut fi = FaultedIteration::default();

        let mut index = 0;
        while index < app.iterations {
            run_iteration(ctx.platform, app, &active, &work, t, plan, &mut fi);
            if !fi.failed.is_empty() {
                failures += fi.failed.len();
                let detected = fi.detected;
                ctx.emit_failures(&fi.failed, detected, index);
                pool.retain(|&h| !plan.is_crashed(h, detected));
                if pool.len() < n {
                    truncated = true;
                    t = plan.horizon.max(detected);
                    break;
                }
                // Roll back: re-read the checkpoint, restart the N
                // application processes on the best survivors, and lose
                // every iteration since the checkpoint.
                active = choose_spare(ctx, pool.iter().copied(), fi.failed[0], t, detected)[..n]
                    .to_vec();
                ctx.emit(|| obs::TraceEvent::RecoveryComplete {
                    t: detected + restart_pause,
                    host: fi.failed[0],
                    replacement: None,
                    action: obs::RecoveryAction::Restart,
                    pause_secs: restart_pause,
                });
                restarts += 1;
                recoveries += 1;
                adapt_total += restart_pause;
                iterations.retain(|r: &IterationRecord| r.index < ckpt_index);
                t = detected + restart_pause;
                index = ckpt_index;
                continue;
            }

            let out = &fi.outcome;
            ctx.emit_iteration(index, &active, t, out);
            pool.retain(|&h| !plan.is_crashed(h, out.end));

            iter_secs_sum += out.end - t;
            iters_run += 1;

            let completed = index + 1;
            let active_during = active.clone();
            let mut adapt_time = 0.0;
            match plan.checkpoint_every {
                // Fault tolerance: checkpoint on the cadence, never move
                // for performance.
                Some(every) => {
                    let every = every.max(1);
                    // Checkpoint once `interval` iterations have passed
                    // since the last durable one: the plan's fixed cadence,
                    // or a policy bundle's, which `YoungDaly` lets drift
                    // with the observed failure rate.
                    let interval = ctx.policies.map_or(every, |ps| {
                        ps.checkpoint.interval_iters(&policy::CheckpointQuery {
                            delta_secs: ckpt_write,
                            mtbf_secs: (failures > 0)
                                .then(|| out.end * alloc as f64 / failures as f64),
                            mean_iter_secs: iter_secs_sum / iters_run as f64,
                            default_every: every,
                            n_active: n,
                        })
                    });
                    if completed - ckpt_index >= interval && completed < app.iterations {
                        adapt_time = ckpt_write;
                        ctx.emit(|| obs::TraceEvent::Checkpoint {
                            t: out.end,
                            iter: index,
                            bytes: n as f64 * app.process_state_bytes,
                            pause_secs: ckpt_write,
                        });
                        ckpt_index = completed;
                    }
                }
                // Performance: restart on the N best-predicted processors
                // whenever the swap criteria would fire.
                None => {
                    manager.measure(ctx, &pool, &active, t, out);
                    if completed < app.iterations {
                        let decision =
                            manager.decide(ctx, &pool, &active, index, out.end - t, out.end);
                        if decision.will_swap() {
                            let mut ranked: Vec<&ProcessorSnapshot> =
                                manager.core.snapshots().iter().collect();
                            ranked.sort_by(|a, b| {
                                b.predicted_perf
                                    .total_cmp(&a.predicted_perf)
                                    .then(a.id.cmp(&b.id))
                            });
                            active = ranked[..n].iter().map(|s| s.id).collect();
                            adapt_time = cycle_cost;
                            restarts += 1;
                            ctx.emit(|| obs::TraceEvent::Checkpoint {
                                t: out.end,
                                iter: index,
                                bytes: n as f64 * app.process_state_bytes,
                                pause_secs: cycle_cost,
                            });
                            ckpt_index = completed;
                        }
                    }
                }
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
            index = completed;
        }

        RunResult {
            strategy: self.name(),
            execution_time: t,
            startup_time: startup,
            adaptations: restarts,
            adapt_time_total: adapt_total,
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
    use crate::platform::{Host, LoadSpec, Platform};
    use loadmodel::LoadTrace;
    use simkit::link::SharedLink;

    #[test]
    fn no_restarts_on_quiescent_platform() {
        let p = small_platform(LoadSpec::Unloaded, 0);
        let app = small_app();
        let r = Cr::greedy().run(&RunContext::new(&p, &app, 8));
        assert_eq!(r.adaptations, 0);
    }

    #[test]
    fn restarts_away_from_persistent_load() {
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
        let r = Cr::greedy().run(&RunContext::new(&p, &app, 4));
        assert!(r.adaptations >= 1);
        assert!(!r.iterations.last().unwrap().active.contains(&1));
    }

    #[test]
    fn restart_cost_includes_write_startup_read() {
        let p = small_platform(LoadSpec::Unloaded, 0);
        let app = small_app();
        let ctx = RunContext::new(&p, &app, 8);
        let c = Cr::restart_cost(&ctx);
        let transfer = p.link.bulk_transfer_time(2, app.process_state_bytes);
        assert!((c - (2.0 * transfer + p.startup_time(2))).abs() < 1e-9);
    }

    #[test]
    fn cr_pays_more_per_adaptation_than_swap() {
        // Same trigger criteria, heavier mechanism: with identical
        // platforms CR's adaptation time per event exceeds SWAP's.
        let p = small_platform(moderate_onoff(), 2);
        let app = small_app();
        let ctx = RunContext::new(&p, &app, 8);
        let cr = Cr::greedy().run(&ctx);
        let swap = Swap::greedy().run(&ctx);
        if cr.adaptations > 0 && swap.adaptations > 0 {
            let per_cr = cr.adapt_time_total / cr.adaptations as f64;
            let per_swap = swap.adapt_time_total / swap.adaptations as f64;
            assert!(per_cr > per_swap, "cr {per_cr} <= swap {per_swap}");
        }
    }

    #[test]
    fn beneficial_under_persistent_load_despite_cost() {
        let app = small_app();
        let mut wins = 0;
        for seed in 0..8 {
            let p = small_platform(moderate_onoff(), seed);
            let cr = Cr::greedy().run(&RunContext::new(&p, &app, 8));
            let nothing = Nothing.run(&RunContext::new(&p, &app, 2));
            if cr.execution_time < nothing.execution_time {
                wins += 1;
            }
        }
        assert!(wins >= 5, "CR won only {wins}/8 replications");
    }

    #[test]
    fn deterministic_given_platform() {
        let p = small_platform(moderate_onoff(), 3);
        let app = small_app();
        let a = Cr::greedy().run(&RunContext::new(&p, &app, 8));
        let b = Cr::greedy().run(&RunContext::new(&p, &app, 8));
        assert_eq!(a.execution_time, b.execution_time);
    }

    #[test]
    fn crash_without_a_cadence_rolls_back_to_the_input_deck() {
        // Quiescent hosts: no performance restart ever writes a
        // checkpoint, so a crash under a plan without a cadence loses
        // every iteration done so far.
        let p = small_platform(LoadSpec::Unloaded, 0);
        let app = small_app();
        let clean = Cr::greedy().run(&RunContext::new(&p, &app, 8));
        let victim = clean.iterations[0].active[0];
        let crash = clean.iterations[10].end - 1.0;
        let mut plan = faults::FaultPlan::empty(p.hosts.len(), 1e9);
        plan.hosts[victim].crash = Some(crash);
        let r = Cr::greedy().run(&RunContext::new(&p, &app, 8).with_faults(&plan));
        assert_eq!((r.failures, r.recoveries, r.adaptations), (1, 1, 1));
        assert_eq!(r.iterations.len(), app.iterations);
        assert!(r.iterations[0].start > crash, "iteration 0 was not redone");
        assert!(r.iterations.iter().all(|it| !it.active.contains(&victim)));
    }
}
