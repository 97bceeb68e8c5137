//! Event-driven cross-validation of the analytic execution core.
//!
//! [`crate::exec::run_iteration`] computes each process's completion time
//! in closed form (`Timeline::advance`). This module re-derives the same
//! quantities with a *discrete-event* state machine — one event per
//! availability breakpoint per process — and the test suite asserts the
//! two implementations agree to floating-point tolerance on randomized
//! platforms. Two independently-written engines agreeing is the
//! strongest internal-validity evidence a simulator can offer.

use crate::app::AppSpec;
use crate::platform::Platform;
use crate::schedule::{balanced_partition, equal_partition, fastest_hosts};
use simkit::event::EventQueue;

/// Event-driven computation of one BSP iteration; returns
/// `(compute_end, iteration_end)`.
///
/// Each process is advanced breakpoint-by-breakpoint through its host's
/// availability timeline: at every event the current delivered rate is
/// held constant until either the work completes or the availability
/// changes, whichever comes first.
///
/// # Panics
/// Panics on an empty active set or a process that can never finish.
pub fn run_iteration_des(
    platform: &Platform,
    app: &AppSpec,
    active: &[usize],
    work: &[f64],
    t0: f64,
) -> (f64, f64) {
    assert_eq!(active.len(), work.len());
    assert!(!active.is_empty());

    /// One process stepping through availability segments.
    struct Proc {
        host: usize,
        remaining: f64,
        done_at: Option<f64>,
    }

    let mut procs: Vec<Proc> = active
        .iter()
        .zip(work)
        .map(|(&host, &w)| Proc {
            host,
            remaining: w,
            done_at: None,
        })
        .collect();

    let mut queue: EventQueue<usize> = EventQueue::new();
    for i in 0..procs.len() {
        queue.schedule(t0, i);
    }

    while let Some((now, i)) = queue.pop() {
        let p = &mut procs[i];
        if p.remaining <= 0.0 {
            p.done_at.get_or_insert(now);
            continue;
        }
        let host = &platform.hosts[p.host];
        let avail = host.cpu.availability();
        let rate = host.speed * avail.value_at(now);
        let next_bp = avail.next_change_after(now);
        if rate > 0.0 {
            let finish = now + p.remaining / rate;
            match next_bp {
                Some(bp) if bp < finish => {
                    p.remaining -= rate * (bp - now);
                    queue.schedule(bp, i);
                }
                _ => {
                    p.remaining = 0.0;
                    p.done_at = Some(finish);
                }
            }
        } else {
            let bp =
                next_bp.unwrap_or_else(|| panic!("process on host {} can never finish", p.host));
            queue.schedule(bp, i);
        }
    }

    let compute_end = procs
        .iter()
        .map(|p| p.done_at.expect("all processes completed"))
        .fold(t0, f64::max);
    let comm = platform
        .link
        .bulk_transfer_time(active.len(), app.bytes_per_proc_iter);
    (compute_end, compute_end + comm)
}

/// Event-driven re-implementation of the NOTHING run; returns the total
/// execution time.
pub fn run_nothing_des(platform: &Platform, app: &AppSpec) -> f64 {
    app.validate();
    let active = fastest_hosts(platform, app.n_active, 0.0);
    let work = equal_partition(app.n_active, app.flops_per_proc_iter);
    let mut t = platform.startup_time(app.n_active);
    for _ in 0..app.iterations {
        let (_, end) = run_iteration_des(platform, app, &active, &work, t);
        t = end;
    }
    t
}

/// Event-driven re-implementation of the ideal-DLB run.
pub fn run_dlb_des(platform: &Platform, app: &AppSpec) -> f64 {
    app.validate();
    let active = fastest_hosts(platform, app.n_active, 0.0);
    let mut t = platform.startup_time(app.n_active);
    for _ in 0..app.iterations {
        let speeds: Vec<f64> = active
            .iter()
            .map(|&h| platform.hosts[h].delivered_at(t))
            .collect();
        let work = balanced_partition(app.total_flops_per_iter(), &speeds);
        let (_, end) = run_iteration_des(platform, app, &active, &work, t);
        t = end;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_iteration, FaultedIteration, IterationOutcome};
    use crate::platform::{LoadSpec, PlatformSpec};
    use crate::strategies::{Dlb, Nothing, RunContext, Strategy};
    use loadmodel::OnOffSource;
    use proptest::prelude::*;
    use simkit::link::SharedLink;

    fn spec(duty: f64) -> PlatformSpec {
        PlatformSpec {
            n_hosts: 8,
            speed_range: (1e8, 4e8),
            link: SharedLink::hpdc03_lan(),
            startup_per_process: 0.75,
            load: if duty == 0.0 {
                LoadSpec::Unloaded
            } else {
                LoadSpec::OnOff(OnOffSource::for_duty_cycle(duty, 0.08, 20.0))
            },
            horizon: 100_000.0,
        }
    }

    /// The analytic engine's fault-free iteration.
    fn analytic(
        p: &Platform,
        a: &AppSpec,
        active: &[usize],
        w: &[f64],
        t0: f64,
    ) -> IterationOutcome {
        let mut fi = FaultedIteration::default();
        run_iteration(p, a, active, w, t0, faults::FaultPlan::inert(), &mut fi);
        fi.outcome
    }

    fn app(iters: usize) -> AppSpec {
        AppSpec {
            n_active: 3,
            iterations: iters,
            flops_per_proc_iter: 4e9,
            bytes_per_proc_iter: 2e5,
            process_state_bytes: 1e6,
        }
    }

    #[test]
    fn des_iteration_matches_analytic_on_fixed_case() {
        let p = spec(0.5).realize(7);
        let a = app(1);
        let active = [0, 3, 5];
        let work = [4e9, 2e9, 6e9];
        let analytic = analytic(&p, &a, &active, &work, 12.5);
        let (compute_end, end) = run_iteration_des(&p, &a, &active, &work, 12.5);
        assert!((analytic.compute_end - compute_end).abs() < 1e-6);
        assert!((analytic.end - end).abs() < 1e-6);
    }

    #[test]
    fn des_nothing_matches_strategy_across_seeds() {
        let a = app(6);
        for seed in 0..10 {
            let p = spec(0.6).realize(seed);
            let ctx = RunContext::new(&p, &a, a.n_active);
            let analytic = Nothing.run(&ctx).execution_time;
            let des = run_nothing_des(&p, &a);
            assert!(
                (analytic - des).abs() < 1e-6,
                "seed {seed}: analytic {analytic} vs DES {des}"
            );
        }
    }

    #[test]
    fn des_dlb_matches_strategy_across_seeds() {
        let a = app(6);
        for seed in 0..10 {
            let p = spec(0.4).realize(seed);
            let ctx = RunContext::new(&p, &a, a.n_active);
            let analytic = Dlb.run(&ctx).execution_time;
            let des = run_dlb_des(&p, &a);
            assert!(
                (analytic - des).abs() < 1e-6,
                "seed {seed}: analytic {analytic} vs DES {des}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The closed-form and event-driven iteration agree on random
        /// work assignments, start times, and load realizations.
        #[test]
        fn prop_des_equals_analytic(
            seed in 0u64..200,
            duty in 0.0f64..0.9,
            t0 in 0.0f64..5_000.0,
            w in proptest::collection::vec(1e8f64..1e10, 1..5),
        ) {
            let p = spec(duty).realize(seed);
            let a = app(1);
            let active: Vec<usize> = (0..w.len()).collect();
            let analytic = analytic(&p, &a, &active, &w, t0);
            let (compute_end, end) = run_iteration_des(&p, &a, &active, &w, t0);
            prop_assert!(
                (analytic.compute_end - compute_end).abs() < 1e-6,
                "compute_end: {} vs {}", analytic.compute_end, compute_end
            );
            prop_assert!((analytic.end - end).abs() < 1e-6);
        }
    }
}
