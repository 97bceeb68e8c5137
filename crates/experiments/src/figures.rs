//! The nine figure generators.
//!
//! Every generator keeps the paper's model parameters (32 hosts,
//! 200–400 Mflop/s, 6 MB/s shared LAN, 0.75 s/process startup, 1–5 min
//! iterations) and varies only what the figure sweeps. See DESIGN.md for
//! the dynamism-axis interpretation: the ON/OFF sweeps use the long-run
//! duty cycle as "load probability", with the Markov chain clocked at
//! 30 s so load events persist across iterations.

use crate::config::Scale;
use crate::output::{FigureData, Series};
use crate::sweep::grid_sweep;
use loadmodel::{DegenerateHyperExp, HyperExpWorkload, OnOffSource};
use simkit::rng::rng;
use simulator::platform::{LoadSpec, PlatformSpec};
use simulator::runner::Replication;
use simulator::strategies::{Cr, Dlb, Nothing, Strategy, Swap};
use simulator::AppSpec;
use swap_core::payback::payback_distance;

/// Markov-chain clock step for the experiment sweeps, seconds. Load
/// events have mean length `step/q = 375 s` — a few application
/// iterations, like the personal-workstation load the paper targets.
pub const ONOFF_STEP: f64 = 30.0;
/// ON-exit probability per step (the Figure 2 example's q).
pub const ONOFF_Q: f64 = 0.08;

/// The ON/OFF load model at duty cycle `d` used by figures 4–8.
pub fn onoff_duty(d: f64) -> LoadSpec {
    LoadSpec::OnOff(OnOffSource::for_duty_cycle(d, ONOFF_Q, ONOFF_STEP))
}

/// The platform spec shared by all simulation figures (horizon large
/// enough for the slowest Figure 6/8 runs).
pub fn platform(load: LoadSpec) -> PlatformSpec {
    let mut spec = PlatformSpec::hpdc03(load);
    spec.horizon = 150_000.0;
    spec
}

/// Mean execution time of `strategy` over the scale's seeds, on the
/// paper's platform under `load`.
pub(crate) fn mean_exec_time(
    load: LoadSpec,
    app: &AppSpec,
    strategy: &dyn Strategy,
    alloc: usize,
    scale: &Scale,
) -> f64 {
    let spec = platform(load);
    Replication::new(&spec, app, strategy, alloc, &scale.seed_list())
        .run()
        .execution_time
        .mean
}

/// The paper's application at this scale: N active processes, the given
/// process-state size, and the scale's iteration count.
fn paper_app(scale: &Scale, n_active: usize, state_bytes: f64) -> AppSpec {
    let mut app = AppSpec::hpdc03(n_active, state_bytes);
    app.iterations = scale.iterations;
    app
}

/// The duty-cycle sweep used by figures 4, 6 and 7 (capped below 1.0; the
/// constructor rejects a permanently-loaded degenerate chain).
fn duty_sweep(scale: &Scale) -> Vec<f64> {
    scale.linspace(0.0, 0.92)
}

// ---------------------------------------------------------------------
// Figure 1 — payback distance illustration
// ---------------------------------------------------------------------

/// Figure 1: application progress vs time with and without a swap.
///
/// Scenario (the §5 worked example): iteration time 10 s, swap time 10 s,
/// post-swap performance 2× — the swap curve overtakes the no-swap curve
/// exactly `payback_distance = 2` iterations after the swap completes.
pub fn fig1_payback() -> FigureData {
    let old_iter = 10.0;
    let swap_time = 10.0;
    let speedup = 2.0;
    let swap_at = 20.0; // after two iterations
    let horizon = 60.0;

    let no_swap: Vec<(f64, f64)> = sample_curve(horizon, |t| t / old_iter);
    let with_swap: Vec<(f64, f64)> = sample_curve(horizon, |t| {
        if t <= swap_at {
            t / old_iter
        } else if t <= swap_at + swap_time {
            swap_at / old_iter // paused during the state transfer
        } else {
            swap_at / old_iter + (t - swap_at - swap_time) * speedup / old_iter
        }
    });

    // Mark the payback point on its own series (where the curves cross).
    let d = payback_distance(swap_time, old_iter, 1.0, speedup);
    let payback_t = swap_at + swap_time + d * old_iter / speedup;
    let payback_y = payback_t / old_iter;

    FigureData {
        id: "fig1".into(),
        title: "Payback distance (iter 10 s, swap 10 s, 2x speedup)".into(),
        x_label: "time [s]".into(),
        y_label: "application progress [iterations]".into(),
        series: vec![
            Series::new("no swap", no_swap),
            Series::new("with swap", with_swap),
            Series::new("payback point", vec![(payback_t, payback_y)]),
        ],
    }
}

fn sample_curve(horizon: f64, f: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
    let n = 120;
    (0..=n)
        .map(|i| {
            let t = horizon * i as f64 / n as f64;
            (t, f(t))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figures 2 & 3 — example load traces
// ---------------------------------------------------------------------

/// Figure 2: an ON/OFF CPU load trace with the paper's example
/// parameters p = 0.3, q = 0.08 (per second).
pub fn fig2_onoff_trace(seed: u64) -> FigureData {
    let horizon = 300.0;
    let trace = OnOffSource::fig2_example().generate(horizon, &mut rng(seed));
    FigureData {
        id: "fig2".into(),
        title: "ON/OFF CPU load example (p=0.3, q=0.08)".into(),
        x_label: "time [s]".into(),
        y_label: "CPU load [competing processes]".into(),
        series: vec![Series::new("cpu load", trace.sample(horizon, 1.0))],
    }
}

/// Figure 3: a hyperexponential CPU load trace (uniform arrivals,
/// heavy-tailed lifetimes, multiple simultaneous competitors).
pub fn fig3_hyperexp_trace(seed: u64) -> FigureData {
    let horizon = 300.0;
    let workload = HyperExpWorkload::new(DegenerateHyperExp::new(40.0, 0.4), 1.0 / 60.0);
    let trace = workload.generate(horizon, &mut rng(seed));
    FigureData {
        id: "fig3".into(),
        title: "Hyperexponential CPU load example".into(),
        x_label: "time [s]".into(),
        y_label: "CPU load [competing processes]".into(),
        series: vec![Series::new("cpu load", trace.sample(horizon, 1.0))],
    }
}

// ---------------------------------------------------------------------
// Figure 4 — techniques vs environment dynamism
// ---------------------------------------------------------------------

/// Figure 4: execution time of NOTHING / SWAP(greedy) / DLB / CR across
/// the full range of environment dynamism (ON/OFF load). N = 4 active,
/// 32 total, process state 1 MB.
pub fn fig4_techniques_vs_dynamism(scale: &Scale) -> FigureData {
    scale.validate();
    let app = paper_app(scale, 4, 1.0e6);
    let xs = duty_sweep(scale);
    let strategies: Vec<(&str, Box<dyn Strategy>)> = vec![
        ("nothing", Box::new(Nothing)),
        ("swap", Box::new(Swap::greedy())),
        ("dlb", Box::new(Dlb)),
        ("cr", Box::new(Cr::greedy())),
    ];
    let series = grid_sweep(
        scale,
        &strategies,
        &xs,
        |(name, _)| (*name).to_owned(),
        |(_, s), d| mean_exec_time(onoff_duty(d), &app, s.as_ref(), 32, scale),
    );
    FigureData {
        id: "fig4".into(),
        title: "Techniques vs environment dynamism (N=4/32, 1 MB state)".into(),
        x_label: "environment dynamism [load probability]".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

// ---------------------------------------------------------------------
// Figure 5 — over-allocation sweep
// ---------------------------------------------------------------------

/// Figure 5: execution time across a range of over-allocation (8 active
/// processes, moderately dynamic environment, 1 MB state). The x axis is
/// over-allocation in percent of N (0% = no spares, 300% = 8+24=32).
pub fn fig5_overallocation(scale: &Scale) -> FigureData {
    scale.validate();
    let app = paper_app(scale, 8, 1.0e6);
    let load = onoff_duty(0.3); // "load probability of 0.2–0.3: moderately dynamic"
    let xs = scale.linspace(0.0, 300.0);
    let alloc_for = |pct: f64| {
        let n = app.n_active;
        (n + (n as f64 * pct / 100.0).round() as usize).min(32)
    };
    let strategies: Vec<(&str, Box<dyn Strategy>)> = vec![
        ("nothing", Box::new(Nothing)),
        ("swap", Box::new(Swap::greedy())),
        ("dlb", Box::new(Dlb)),
        ("cr", Box::new(Cr::greedy())),
    ];
    let series = grid_sweep(
        scale,
        &strategies,
        &xs,
        |(name, _)| (*name).to_owned(),
        |(_, s), pct| mean_exec_time(load, &app, s.as_ref(), alloc_for(pct), scale),
    );
    FigureData {
        id: "fig5".into(),
        title: "Techniques vs over-allocation (8 active, 1 MB state)".into(),
        x_label: "% overallocation".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

// ---------------------------------------------------------------------
// Figure 6 — process-size sensitivity
// ---------------------------------------------------------------------

/// Figure 6: SWAP and CR at 1 MB vs 1 GB process state across dynamism
/// (NOTHING as the reference). "Both SWAP and CR transition from being
/// beneficial at a process size of 1MB to harmful at a process size of
/// 1GB."
pub fn fig6_process_size(scale: &Scale) -> FigureData {
    scale.validate();
    let xs = duty_sweep(scale);
    let app_small = paper_app(scale, 4, 1.0e6);
    let app_large = paper_app(scale, 4, 1.0e9);

    let configs: Vec<(&str, AppSpec, Box<dyn Strategy>)> = vec![
        ("nothing", app_small, Box::new(Nothing)),
        ("swap 1MB", app_small, Box::new(Swap::greedy())),
        ("cr 1MB", app_small, Box::new(Cr::greedy())),
        ("swap 1GB", app_large, Box::new(Swap::greedy())),
        ("cr 1GB", app_large, Box::new(Cr::greedy())),
    ];
    let series = grid_sweep(
        scale,
        &configs,
        &xs,
        |(name, _, _)| (*name).to_owned(),
        |(_, app, s), d| mean_exec_time(onoff_duty(d), app, s.as_ref(), 32, scale),
    );
    FigureData {
        id: "fig6".into(),
        title: "Process-size sensitivity (N=4/32)".into(),
        x_label: "environment dynamism [load probability]".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

// ---------------------------------------------------------------------
// Figure 7 — the three policies
// ---------------------------------------------------------------------

/// Figure 7: greedy / safe / friendly swapping policies (and NOTHING)
/// across dynamism. N = 4 active, 32 total, process state 100 MB.
pub fn fig7_policies(scale: &Scale) -> FigureData {
    scale.validate();
    let app = paper_app(scale, 4, 1.0e8);
    let xs = duty_sweep(scale);
    let strategies: Vec<(&str, Box<dyn Strategy>)> = vec![
        ("nothing", Box::new(Nothing)),
        ("greedy", Box::new(Swap::greedy())),
        ("safe", Box::new(Swap::safe())),
        ("friendly", Box::new(Swap::friendly())),
    ];
    let series = grid_sweep(
        scale,
        &strategies,
        &xs,
        |(name, _)| (*name).to_owned(),
        |(_, s), d| mean_exec_time(onoff_duty(d), &app, s.as_ref(), 32, scale),
    );
    FigureData {
        id: "fig7".into(),
        title: "Swapping policies vs dynamism (N=4/32, 100 MB state)".into(),
        x_label: "environment dynamism [load probability]".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

// ---------------------------------------------------------------------
// Figure 8 — policies with large process state
// ---------------------------------------------------------------------

/// Figure 8: the three policies when the process state is 1 GB (swap
/// time ≈ 2× iteration time; 2 active of 32). "By the time the process
/// state has been swapped, the environment has changed … the application
/// spends all its time swapping."
pub fn fig8_policies_large_state(scale: &Scale) -> FigureData {
    scale.validate();
    let app = paper_app(scale, 2, 1.0e9);
    let xs = duty_sweep(scale);
    let strategies: Vec<(&str, Box<dyn Strategy>)> = vec![
        ("nothing", Box::new(Nothing)),
        ("greedy", Box::new(Swap::greedy())),
        ("safe", Box::new(Swap::safe())),
        ("friendly", Box::new(Swap::friendly())),
    ];
    let series = grid_sweep(
        scale,
        &strategies,
        &xs,
        |(name, _)| (*name).to_owned(),
        |(_, s), d| mean_exec_time(onoff_duty(d), &app, s.as_ref(), 32, scale),
    );
    FigureData {
        id: "fig8".into(),
        title: "Swapping policies, 1 GB state (N=2/32)".into(),
        x_label: "environment dynamism [load probability]".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

// ---------------------------------------------------------------------
// Figure 9 — hyperexponential load model
// ---------------------------------------------------------------------

/// Figure 9: NOTHING / SWAP / DLB / CR under the hyperexponential load
/// model, sweeping the mean competing-process lifetime (N = 4/32, 1 MB
/// state, fixed arrival rate).
pub fn fig9_hyperexp(scale: &Scale) -> FigureData {
    scale.validate();
    let app = paper_app(scale, 4, 1.0e6);
    let xs = scale.logspace(30.0, 5000.0);
    let load_for = |mean_life: f64| {
        LoadSpec::HyperExp(HyperExpWorkload::new(
            DegenerateHyperExp::new(mean_life, 0.4),
            1.0 / 600.0,
        ))
    };
    let strategies: Vec<(&str, Box<dyn Strategy>)> = vec![
        ("nothing", Box::new(Nothing)),
        ("swap", Box::new(Swap::greedy())),
        ("dlb", Box::new(Dlb)),
        ("cr", Box::new(Cr::greedy())),
    ];
    let series = grid_sweep(
        scale,
        &strategies,
        &xs,
        |(name, _)| (*name).to_owned(),
        |(_, s), l| mean_exec_time(load_for(l), &app, s.as_ref(), 32, scale),
    );
    FigureData {
        id: "fig9".into(),
        title: "Techniques under hyperexponential load (N=4/32, 1 MB)".into(),
        x_label: "environment dynamism [mean process lifetime, s]".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

/// Generates a figure by id (`"fig1"`…`"fig9"`), or `None` for an
/// unknown id. Trace figures use seed 0.
pub fn by_id(id: &str, scale: &Scale) -> Option<FigureData> {
    Some(match id {
        "fig1" => fig1_payback(),
        "fig2" => fig2_onoff_trace(0),
        "fig3" => fig3_hyperexp_trace(0),
        "fig4" => fig4_techniques_vs_dynamism(scale),
        "fig5" => fig5_overallocation(scale),
        "fig6" => fig6_process_size(scale),
        "fig7" => fig7_policies(scale),
        "fig8" => fig8_policies_large_state(scale),
        "fig9" => fig9_hyperexp(scale),
        _ => return None,
    })
}

/// All figure ids, in paper order.
pub const ALL_FIGURES: [&str; 9] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_curves_cross_at_the_payback_point() {
        let f = fig1_payback();
        let no_swap = f.series_named("no swap").unwrap();
        let with_swap = f.series_named("with swap").unwrap();
        let payback = &f.series_named("payback point").unwrap().points[0];
        // Payback at t = 20 + 10 + 2·(10/2) = 40 s, 4 iterations.
        assert!((payback.0 - 40.0).abs() < 1e-9, "t = {}", payback.0);
        assert!((payback.1 - 4.0).abs() < 1e-9);
        // Before the payback point the swap curve is behind; after, ahead.
        for (&(t, y_ns), &(_, y_s)) in no_swap.points.iter().zip(&with_swap.points) {
            if t > 20.0 && t < 39.5 {
                assert!(y_s <= y_ns + 1e-9, "swap ahead too early at t={t}");
            }
            if t > 40.5 {
                assert!(y_s >= y_ns - 1e-9, "swap behind after payback at t={t}");
            }
        }
    }

    #[test]
    fn fig2_trace_is_binary_and_nonempty() {
        let f = fig2_onoff_trace(1);
        let s = &f.series[0];
        assert_eq!(s.points.len(), 301);
        assert!(s.points.iter().all(|&(_, y)| y == 0.0 || y == 1.0));
        assert!(s.points.iter().any(|&(_, y)| y == 1.0), "never loaded?");
    }

    #[test]
    fn fig3_trace_can_exceed_one_competitor() {
        // Pick a seed that produces overlap within the sampled window.
        let found = (0..20).any(|seed| {
            fig3_hyperexp_trace(seed).series[0]
                .points
                .iter()
                .any(|&(_, y)| y >= 2.0)
        });
        assert!(found, "no seed produced simultaneous competitors");
    }

    #[test]
    fn by_id_covers_all_figures() {
        let scale = Scale {
            seeds: 1,
            sweep_points: 2,
            iterations: 2,
            jobs: 0,
            mtbf: None,
            fault_seed: None,
            placement: None,
        };
        for id in ALL_FIGURES.iter().take(3) {
            assert!(by_id(id, &scale).is_some(), "{id} missing");
        }
        assert!(by_id("fig99", &scale).is_none());
    }

    #[test]
    fn fig4_smoke_and_quiescent_agreement() {
        // Tiny scale: 2 sweep points, 1 seed, few iterations.
        let scale = Scale {
            seeds: 1,
            sweep_points: 2,
            iterations: 4,
            jobs: 0,
            mtbf: None,
            fault_seed: None,
            placement: None,
        };
        let f = fig4_techniques_vs_dynamism(&scale);
        assert_eq!(f.series.len(), 4);
        for s in &f.series {
            assert_eq!(s.points.len(), 2);
            assert!(s.points.iter().all(|&(_, y)| y.is_finite() && y > 0.0));
        }
        // At duty 0 (quiescent) NOTHING, SWAP and CR differ only by
        // startup cost (0.75 s × (32 − 4) = 21 s): no adaptation fires.
        let nothing = f.series_named("nothing").unwrap().y(0);
        let swap = f.series_named("swap").unwrap().y(0);
        let cr = f.series_named("cr").unwrap().y(0);
        assert!(
            (swap - nothing - 21.0).abs() < 1.0,
            "swap {swap} vs nothing {nothing}"
        );
        assert!(
            (cr - nothing - 21.0).abs() < 1.0,
            "cr {cr} vs nothing {nothing}"
        );
        // DLB beats NOTHING even when quiescent: it balances work across
        // the heterogeneous host speeds instead of equal chunks.
        let dlb = f.series_named("dlb").unwrap().y(0);
        assert!(
            dlb <= nothing,
            "dlb {dlb} should not lose to nothing {nothing}"
        );
    }
}
