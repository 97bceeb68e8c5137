//! Integration tests: structural invariants of every strategy run.
//!
//! Whatever the strategy decides, a run's time accounting must add up,
//! active sets must stay well-formed, and results must be reproducible —
//! fault-free, and under crash, blackout and link-window plans with and
//! without a placement policy.

use mpi_swap::faults::{FaultPlan, FaultSpec};
use mpi_swap::loadmodel::OnOffSource;
use mpi_swap::obs::{Collector, TraceEvent};
use mpi_swap::policy::{PlacementChoice, PolicyConfig, PolicySet};
use mpi_swap::simulator::platform::{LoadSpec, Platform, PlatformSpec};
use mpi_swap::simulator::strategies::{
    Cr, Dlb, DlbSwap, Nothing, Oracle, RunContext, Strategy, Swap,
};
use mpi_swap::simulator::{AppSpec, RunResult};

fn strategies() -> Vec<(Box<dyn Strategy>, usize)> {
    vec![
        (Box::new(Nothing), 4),
        (Box::new(Swap::greedy()), 16),
        (Box::new(Swap::safe()), 16),
        (Box::new(Swap::friendly()), 16),
        (Box::new(Dlb), 4),
        (Box::new(Cr::greedy()), 16),
        (Box::new(DlbSwap::greedy()), 16),
        (Box::new(Oracle), 4),
    ]
}

fn spec() -> PlatformSpec {
    PlatformSpec::hpdc03(LoadSpec::OnOff(OnOffSource::for_duty_cycle(
        0.5, 0.08, 30.0,
    )))
}

fn app() -> AppSpec {
    let mut app = AppSpec::hpdc03(4, 1e7);
    app.iterations = 12;
    app
}

fn make_run(strategy: &dyn Strategy, alloc: usize, seed: u64) -> (RunResult, PlatformSpec) {
    let spec = spec();
    let app = app();
    let platform = spec.realize(seed);
    let ctx = RunContext::new(&platform, &app, alloc);
    (strategy.run(&ctx), spec)
}

/// One run with an optional plan and policy bundle attached, plus the
/// event stream it emitted.
fn traced_run(
    strategy: &dyn Strategy,
    alloc: usize,
    platform: &Platform,
    plan: Option<&FaultPlan>,
    policies: Option<&PolicySet>,
) -> (RunResult, Vec<TraceEvent>) {
    let app = app();
    let sink = Collector::new();
    let mut ctx = RunContext::new(platform, &app, alloc).with_trace(&sink);
    if let Some(plan) = plan {
        ctx = ctx.with_faults(plan);
    }
    if let Some(ps) = policies {
        ctx = ctx.with_policies(ps);
    }
    let run = strategy.run(&ctx);
    (run, sink.into_trace().events)
}

#[test]
fn time_accounting_adds_up() {
    for (strategy, alloc) in strategies() {
        let (r, _) = make_run(strategy.as_ref(), alloc, 1);
        // startup + Σ(iteration durations + adaptation pauses) == total.
        let accounted: f64 = r.startup_time
            + r.iterations
                .iter()
                .map(|it| it.duration() + it.adapt_time)
                .sum::<f64>();
        assert!(
            (accounted - r.execution_time).abs() < 1e-6,
            "{}: accounted {accounted} != total {}",
            r.strategy,
            r.execution_time
        );
        let adapt_sum: f64 = r.iterations.iter().map(|it| it.adapt_time).sum();
        assert!(
            (adapt_sum - r.adapt_time_total).abs() < 1e-9,
            "{}: adapt accounting mismatch",
            r.strategy
        );
    }
}

#[test]
fn iterations_are_contiguous_and_ordered() {
    for (strategy, alloc) in strategies() {
        let (r, _) = make_run(strategy.as_ref(), alloc, 2);
        assert_eq!(r.iterations.len(), 12, "{}", r.strategy);
        let mut expected_start = r.startup_time;
        for (i, it) in r.iterations.iter().enumerate() {
            assert_eq!(it.index, i, "{}", r.strategy);
            assert!(
                (it.start - expected_start).abs() < 1e-6,
                "{}: iteration {i} starts at {} expected {expected_start}",
                r.strategy,
                it.start
            );
            assert!(it.compute_end >= it.start);
            assert!(it.end >= it.compute_end);
            expected_start = it.end + it.adapt_time;
        }
    }
}

#[test]
fn active_sets_stay_well_formed() {
    for (strategy, alloc) in strategies() {
        let (r, _) = make_run(strategy.as_ref(), alloc, 3);
        for it in &r.iterations {
            assert_eq!(it.active.len(), 4, "{}: wrong N", r.strategy);
            let mut sorted = it.active.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "{}: duplicate hosts", r.strategy);
            assert!(
                it.active.iter().all(|&h| h < 32),
                "{}: host out of range",
                r.strategy
            );
        }
    }
}

#[test]
fn runs_are_reproducible() {
    for (strategy, alloc) in strategies() {
        let (a, _) = make_run(strategy.as_ref(), alloc, 4);
        let (b, _) = make_run(strategy.as_ref(), alloc, 4);
        assert_eq!(a.execution_time, b.execution_time, "{}", a.strategy);
        assert_eq!(a.adaptations, b.adaptations, "{}", a.strategy);
        assert_eq!(a.iterations, b.iterations, "{}", a.strategy);
    }
}

#[test]
fn different_seeds_give_different_runs_under_load() {
    let (a, _) = make_run(&Nothing, 4, 10);
    let (b, _) = make_run(&Nothing, 4, 11);
    assert_ne!(
        a.execution_time, b.execution_time,
        "independent platforms should differ"
    );
}

#[test]
fn nothing_and_dlb_never_adapt_swap_and_cr_may() {
    let (n, _) = make_run(&Nothing, 4, 5);
    let (d, _) = make_run(&Dlb, 4, 5);
    assert_eq!(n.adaptations + d.adaptations, 0);
    assert_eq!(n.adapt_time_total + d.adapt_time_total, 0.0);
    let (s, _) = make_run(&Swap::greedy(), 16, 5);
    assert!(s.iterations.iter().all(|it| it.adapt_time >= 0.0));
}

#[test]
fn attaching_the_inert_plan_changes_nothing() {
    let spec = spec();
    let mut cr_restarted = false;
    for seed in 0..3 {
        let platform = spec.realize(seed);
        let inert = FaultPlan::empty(platform.hosts.len(), spec.horizon);
        for (strategy, alloc) in strategies() {
            let plain = traced_run(strategy.as_ref(), alloc, &platform, None, None);
            let attached = traced_run(strategy.as_ref(), alloc, &platform, Some(&inert), None);
            let name = &plain.0.strategy;
            assert_eq!(plain.0, attached.0, "{name}, seed {seed}: results differ");
            assert_eq!(plain.1, attached.1, "{name}, seed {seed}: traces differ");
            cr_restarted |= name == "cr" && plain.0.adaptations > 0;
        }
    }
    // The inert plan has no checkpoint cadence, so CR keeps making the
    // paper's performance-triggered restarts.
    assert!(cr_restarted, "CR never restarted: the check is vacuous");
}

/// Fault regimes every strategy runs under: each class alone, all three
/// together, and crashes dense enough to exhaust the spare pools.
fn fault_regimes() -> Vec<(&'static str, FaultSpec)> {
    let blackouts = FaultSpec {
        blackout_mtbf_secs: 1_500.0,
        blackout_repair_secs: 120.0,
        ..FaultSpec::disabled()
    };
    let link_windows = FaultSpec {
        link_mtbf_secs: 600.0,
        link_window_secs: 200.0,
        link_factor: 0.2,
        ..FaultSpec::disabled()
    };
    let all_three = FaultSpec {
        mtbf_secs: 3_000.0,
        blackout_mtbf_secs: 1_500.0,
        blackout_repair_secs: 120.0,
        link_mtbf_secs: 600.0,
        link_window_secs: 200.0,
        link_factor: 0.2,
        fault_seed: 3,
        ..FaultSpec::disabled()
    };
    vec![
        ("crashes", FaultSpec::crashes_only(3_000.0, 1)),
        ("blackouts", blackouts),
        ("link windows", link_windows),
        ("all three", all_three),
        ("dense crashes", FaultSpec::crashes_only(300.0, 2)),
    ]
}

/// The structural invariants of a run under `plan`.
fn check_fault_invariants(r: &RunResult, plan: &FaultPlan, what: &str) {
    for it in &r.iterations {
        assert!(
            it.active.iter().all(|&h| !plan.is_crashed(h, it.end)),
            "{what}: iteration {} recorded on a host dead by its end {:?}",
            it.index,
            it.active
        );
    }
    assert!(
        r.recoveries <= r.failures,
        "{what}: more recoveries than failures"
    );
    assert!(r.aborts <= r.failures, "{what}: more aborts than failures");
    if r.truncated {
        assert!(
            r.execution_time >= plan.horizon,
            "{what}: truncated at {} before the horizon {}",
            r.execution_time,
            plan.horizon
        );
    } else {
        let indices: Vec<usize> = r.iterations.iter().map(|it| it.index).collect();
        let expected: Vec<usize> = (0..app().iterations).collect();
        assert_eq!(indices, expected, "{what}: records not contiguous");
    }
    let accounted: f64 = r.startup_time
        + r.iterations
            .iter()
            .map(|it| it.duration() + it.adapt_time)
            .sum::<f64>();
    if r.failures == 0 {
        assert!(
            (accounted - r.execution_time).abs() < 1e-6,
            "{what}: accounted {accounted} != total {}",
            r.execution_time
        );
    } else {
        assert!(
            accounted <= r.execution_time + 1e-6,
            "{what}: accounted {accounted} > total {}",
            r.execution_time
        );
    }
}

#[test]
fn fault_and_policy_runs_keep_their_invariants() {
    let spec = spec();
    let bundles = [
        None,
        Some(PolicyConfig::for_placement(PlacementChoice::MtbfAware).build(0.0)),
    ];
    let (mut failed, mut recovered, mut truncated) = (0, 0, 0);
    for (regime, faults) in fault_regimes() {
        for seed in 0..3 {
            let platform = spec.realize(seed);
            let plan = FaultPlan::generate(&faults, platform.hosts.len(), spec.horizon, seed);
            let platform = platform.apply_blackouts(&plan);
            for policies in &bundles {
                for (strategy, alloc) in strategies() {
                    let (r, _) = traced_run(
                        strategy.as_ref(),
                        alloc,
                        &platform,
                        Some(&plan),
                        policies.as_ref(),
                    );
                    let what = format!(
                        "{} under {regime}, seed {seed}, policies {}",
                        r.strategy,
                        policies.is_some()
                    );
                    check_fault_invariants(&r, &plan, &what);
                    failed += usize::from(r.failures > 0);
                    recovered += usize::from(r.recoveries > 0);
                    truncated += usize::from(r.truncated);
                }
            }
        }
    }
    // The regimes must exercise every branch the invariants guard.
    assert!(
        failed > 0 && recovered > 0 && truncated > 0,
        "{failed} {recovered} {truncated}"
    );
}
