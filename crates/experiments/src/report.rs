//! Automated paper-vs-measured verification report.
//!
//! Regenerates every figure and checks the *qualitative claims* the
//! paper makes about it — who wins, where, by roughly what factor. The
//! output is the table EXPERIMENTS.md embeds; `swapsim report` writes it
//! to `results/report.md`.

use crate::config::Scale;
use crate::output::FigureData;
use crate::schedule::{self, GeneratedFigure};
use loadmodel::stats;
use serde::{Deserialize, Serialize};
use simkit::rng::rng;
use std::fmt::Write as _;

/// One verified claim.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Check {
    /// Figure/experiment id.
    pub id: String,
    /// The paper's claim, abbreviated.
    pub claim: String,
    /// What this reproduction measured.
    pub measured: String,
    /// Whether the claim's shape holds here.
    pub pass: bool,
}

fn check(id: &str, claim: &str, measured: String, pass: bool) -> Check {
    Check {
        id: id.into(),
        claim: claim.into(),
        measured,
        pass,
    }
}

/// Best (max) fractional improvement of `series` over `baseline` across
/// the sweep, with the x where it happens. `None` when no sweep point is
/// comparable (see [`best_benefit_where`]).
fn best_benefit(fig: &FigureData, series: &str, baseline: &str) -> Option<(f64, f64)> {
    best_benefit_where(fig, series, baseline, |_| true)
}

/// Like [`best_benefit`] but restricted to sweep points whose x satisfies
/// the predicate (e.g. "moderately dynamic only"). Returns `None` when no
/// sweep point qualifies: either the predicate matched nothing, or every
/// matching point has a zero baseline (a ratio against it would be
/// meaningless, not a measured benefit).
fn best_benefit_where(
    fig: &FigureData,
    series: &str,
    baseline: &str,
    keep: impl Fn(f64) -> bool,
) -> Option<(f64, f64)> {
    let s = fig.series_named(series).expect("series exists");
    let b = fig.series_named(baseline).expect("baseline exists");
    s.points
        .iter()
        .zip(&b.points)
        .filter(|(&(x, _), &(_, yb))| keep(x) && yb != 0.0)
        .map(|(&(x, ys), &(_, yb))| (1.0 - ys / yb, x))
        .fold(None, |acc: Option<(f64, f64)>, (ben, x)| match acc {
            Some((best, _)) if best >= ben => acc,
            _ => Some((ben, x)),
        })
}

/// [`best_benefit`] for checks that require the comparison to exist:
/// every report figure sweeps a non-degenerate makespan baseline, so an
/// empty comparison is a generator bug worth a loud failure.
fn benefit(fig: &FigureData, series: &str, baseline: &str) -> (f64, f64) {
    best_benefit(fig, series, baseline).unwrap_or_else(|| {
        panic!(
            "{}: no comparable sweep point for {series} vs {baseline}",
            fig.id
        )
    })
}

/// [`best_benefit_where`] with the same must-exist contract as
/// [`benefit`].
fn benefit_where(
    fig: &FigureData,
    series: &str,
    baseline: &str,
    keep: impl Fn(f64) -> bool,
) -> (f64, f64) {
    best_benefit_where(fig, series, baseline, keep).unwrap_or_else(|| {
        panic!(
            "{}: no comparable sweep point for {series} vs {baseline} under predicate",
            fig.id
        )
    })
}

/// y of `series` at the last sweep point.
fn last_y(fig: &FigureData, series: &str) -> f64 {
    let s = fig.series_named(series).expect("series exists");
    s.points.last().expect("non-empty").1
}

/// The figure ids the report generates, in check order. All of them go
/// through the cross-figure scheduler as one global work queue.
pub const REPORT_FIGURES: [&str; 10] = [
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ext_reclamation",
    "ext_dlb_swap",
    "ext_granularity",
    "ext_pareto",
];

/// Runs every check at the given scale. Expensive figures are generated
/// once — all through one shared worker-pool queue ([`schedule`]) — and
/// reused across their checks. Also returns the full per-figure
/// generation record — timing summaries, study traces, and metrics — in
/// [`REPORT_FIGURES`] order (for the `<id>.timing.json` /
/// `<id>.metrics.json` artifacts and the driver's utilization line).
/// The checks are byte-identical regardless of `scale.jobs`.
pub fn run_report(scale: &Scale) -> (Vec<Check>, Vec<GeneratedFigure>) {
    let mut generated: Vec<GeneratedFigure> = Vec::with_capacity(REPORT_FIGURES.len());
    schedule::generate_each(&REPORT_FIGURES, scale, |_, g| {
        generated.push(g.expect("every REPORT_FIGURES id resolves to a generator"));
    });
    let fig = |id: &str| -> &FigureData {
        let i = REPORT_FIGURES
            .iter()
            .position(|&f| f == id)
            .expect("id listed in REPORT_FIGURES");
        &generated[i].fig
    };

    let mut checks = Vec::new();

    // --- Fig 1: the payback algebra's worked examples -----------------
    let d2 = swap_core::payback::payback_distance(10.0, 10.0, 1.0, 2.0);
    let d4 = swap_core::payback::payback_distance(10.0, 10.0, 1.0, 4.0);
    checks.push(check(
        "fig1",
        "2x speedup with swap=iter=10s pays back in 2 iterations; 4x in 1 1/3",
        format!("payback(2x) = {d2:.3}, payback(4x) = {d4:.3}"),
        (d2 - 2.0).abs() < 1e-9 && (d4 - 4.0 / 3.0).abs() < 1e-9,
    ));

    // --- Fig 2: ON/OFF trace statistics --------------------------------
    let horizon = 200_000.0;
    let src = loadmodel::OnOffSource::fig2_example();
    let trace = src.generate(horizon, &mut rng(0));
    let duty = stats::mean_count(&trace, horizon);
    checks.push(check(
        "fig2",
        "two-state ON/OFF source with p=0.3, q=0.08 (duty p/(p+q) ≈ 0.79)",
        format!("measured duty {duty:.3} vs theory {:.3}", src.duty_cycle()),
        (duty - src.duty_cycle()).abs() < 0.02,
    ));

    // --- Fig 3: hyperexponential trace ---------------------------------
    let w =
        loadmodel::HyperExpWorkload::new(loadmodel::DegenerateHyperExp::new(40.0, 0.4), 1.0 / 60.0);
    let t3 = w.generate(horizon, &mut rng(1));
    let mean = stats::mean_count(&t3, horizon);
    let peak = stats::peak_count(&t3, horizon);
    checks.push(check(
        "fig3",
        "heavy-tailed lifetimes, multiple simultaneous competitors allowed",
        format!(
            "mean competitors {mean:.2} (Little's law {:.2}), peak {peak}",
            w.mean_competitors()
        ),
        (mean - w.mean_competitors()).abs() < 0.1 && peak >= 2.0,
    ));

    // --- Fig 4 ----------------------------------------------------------
    let fig4 = fig("fig4");
    let (swap_ben, swap_at) = benefit(fig4, "swap", "nothing");
    let (dlb_ben, _) = benefit(fig4, "dlb", "nothing");
    let (cr_ben, _) = benefit(fig4, "cr", "nothing");
    checks.push(check(
        "fig4",
        "in moderately dynamic environments DLB, CR and SWAP beat NOTHING (up to 40%)",
        format!(
            "best benefit vs NOTHING: swap {:.0}% (at duty {swap_at:.2}), dlb {:.0}%, cr {:.0}%",
            swap_ben * 100.0,
            dlb_ben * 100.0,
            cr_ben * 100.0
        ),
        swap_ben > 0.15 && dlb_ben > 0.10 && cr_ben > 0.10,
    ));
    let nothing0 = fig4.series_named("nothing").expect("series").y(0);
    let swap0 = fig4.series_named("swap").expect("series").y(0);
    let edge_ben = 1.0 - last_y(fig4, "swap") / last_y(fig4, "nothing");
    checks.push(check(
        "fig4b",
        "little difference in quiescent environments; techniques converge in chaos",
        format!(
            "quiescent gap swap−nothing = {:.0} s (over-allocation startup); benefit at max dynamism {:.0}% < peak {:.0}%",
            swap0 - nothing0,
            edge_ben * 100.0,
            swap_ben * 100.0
        ),
        (swap0 - nothing0) < 30.0 && edge_ben < swap_ben,
    ));

    // --- Fig 5 ----------------------------------------------------------
    let fig5 = fig("fig5");
    let swap5 = fig5.series_named("swap").expect("series");
    let first = swap5.y(0);
    let last = swap5.points.last().expect("non-empty").1;
    checks.push(check(
        "fig5",
        "SWAP and CR improve with over-allocation; substantial benefit needs ~100%",
        format!(
            "swap at 0% over-allocation {first:.0} s → at 300% {last:.0} s ({:.0}% better)",
            (1.0 - last / first) * 100.0
        ),
        last < first * 0.97,
    ));

    // --- Fig 6 ----------------------------------------------------------
    let fig6 = fig("fig6");
    let (ben_small, _) = benefit(fig6, "swap 1MB", "nothing");
    // "Harmful": somewhere on the sweep, 1 GB swapping is clearly worse
    // than doing nothing.
    let harm_large = fig6
        .series_named("swap 1GB")
        .expect("series")
        .points
        .iter()
        .zip(&fig6.series_named("nothing").expect("series").points)
        .map(|(&(_, ys), &(_, yn))| ys / yn - 1.0)
        .fold(f64::NEG_INFINITY, f64::max);
    checks.push(check(
        "fig6",
        "SWAP/CR transition from beneficial at 1MB to harmful at 1GB process size",
        format!(
            "swap 1MB best benefit {:.0}%; swap 1GB worst harm +{:.0}% vs NOTHING",
            ben_small * 100.0,
            harm_large * 100.0
        ),
        ben_small > 0.10 && harm_large > 0.05,
    ));

    // --- Fig 7 ----------------------------------------------------------
    // "For moderately dynamic environments, the greedy policy provides a
    // maximum 40% performance increase … in more chaotic situations the
    // safe policy outperforms the greedy policy." Compare the policies in
    // the moderate region (duty ≤ 0.45) and at the chaotic edge.
    let fig7 = fig("fig7");
    let moderate = |x: f64| x <= 0.45;
    let (greedy_ben, _) = benefit_where(fig7, "greedy", "nothing", moderate);
    let (safe_ben, _) = benefit_where(fig7, "safe", "nothing", moderate);
    let greedy_edge = last_y(fig7, "greedy");
    let safe_edge = last_y(fig7, "safe");
    checks.push(check(
        "fig7",
        "greedy gives the largest boost in moderate dynamism; safe outperforms greedy in chaos",
        format!(
            "moderate-region benefit: greedy {:.0}% ≥ safe {:.0}%; at max dynamism safe {safe_edge:.0} s < greedy {greedy_edge:.0} s",
            greedy_ben * 100.0,
            safe_ben * 100.0
        ),
        greedy_ben >= safe_ben && safe_edge < greedy_edge,
    ));

    // --- Fig 8 ----------------------------------------------------------
    let fig8 = fig("fig8");
    let g8 = last_y(fig8, "greedy");
    let s8 = last_y(fig8, "safe");
    let n8 = last_y(fig8, "nothing");
    checks.push(check(
        "fig8",
        "when process state is 1GB only the safe policy is appropriate",
        format!(
            "at max dynamism: safe {s8:.0} s, nothing {n8:.0} s, greedy {g8:.0} s (greedy {:.1}x nothing)",
            g8 / n8
        ),
        s8 < g8 && s8 < n8 * 1.25 && g8 > n8 * 1.2,
    ));

    // --- Fig 9 ----------------------------------------------------------
    let fig9 = fig("fig9");
    let (ben9, at9) = benefit(fig9, "swap", "nothing");
    checks.push(check(
        "fig9",
        "swapping remains viable under the hyperexponential (heavy-tailed) load model",
        format!(
            "best swap benefit {:.0}% at mean lifetime {at9:.0} s",
            ben9 * 100.0
        ),
        ben9 > 0.15,
    ));

    // --- Extensions ------------------------------------------------------
    let extr = fig("ext_reclamation");
    let (ben_r, _) = benefit(extr, "swap", "nothing");
    let (ben_cr, _) = benefit(extr, "cr", "nothing");
    checks.push(check(
        "ext_reclamation",
        "(§2, built out) migration escapes desktop-grid owner reclamation",
        format!(
            "best benefit vs NOTHING under reclamation: swap {:.0}%, cr {:.0}%",
            ben_r * 100.0,
            ben_cr * 100.0
        ),
        ben_r > 0.25 && ben_cr > 0.20,
    ));

    let exth = fig("ext_dlb_swap");
    let (ben_h, _) = benefit(exth, "dlb+swap", "nothing");
    let (ben_s, _) = benefit(exth, "swap", "nothing");
    let (ben_d, _) = benefit(exth, "dlb", "nothing");
    checks.push(check(
        "ext_dlb_swap",
        "(§2, built out) DLB with over-allocated swapping beats either alone",
        format!(
            "best benefit: hybrid {:.0}%, swap {:.0}%, dlb {:.0}%",
            ben_h * 100.0,
            ben_s * 100.0,
            ben_d * 100.0
        ),
        ben_h >= ben_s * 0.95 && ben_h >= ben_d * 0.95,
    ));

    let extg = fig("ext_granularity");
    let g = extg.series_named("greedy").expect("series");
    let s = extg.series_named("safe").expect("series");
    let g_fine = g.y(0);
    let g_coarse = g.points.last().expect("non-empty").1;
    let s_fine = s.y(0);
    checks.push(check(
        "ext_granularity",
        "\"for SWAP to be beneficial the swap time should be shorter than the application iteration time\"",
        format!(
            "greedy benefit {g_fine:.0}% at iteration≈swap-time vs {g_coarse:.0}% at 300 s iterations; safe holds {s_fine:.0}% at fine grain (payback gate)",
        ),
        g_coarse > 5.0 && g_fine < g_coarse && s_fine > g_fine,
    ));

    let extp = fig("ext_pareto");
    let (ben_p, at_p) = benefit(extp, "swap", "nothing");
    checks.push(check(
        "ext_pareto",
        "(beyond the paper) conclusions survive a power-law (α=1.1) lifetime tail",
        format!(
            "best swap benefit {:.0}% at mean lifetime {at_p:.0} s under bounded-Pareto load",
            ben_p * 100.0
        ),
        ben_p > 0.15,
    ));

    (checks, generated)
}

/// Renders the checks as a Markdown table with a pass/fail summary.
pub fn render_markdown(checks: &[Check]) -> String {
    let mut out = String::new();
    let passed = checks.iter().filter(|c| c.pass).count();
    let _ = writeln!(
        out,
        "# Paper-vs-measured report\n\n{passed}/{} checks pass.\n",
        checks.len()
    );
    let _ = writeln!(out, "| id | paper claim | measured here | verdict |");
    let _ = writeln!(out, "|----|-------------|---------------|---------|");
    for c in checks {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} |",
            c.id,
            c.claim,
            c.measured,
            if c.pass { "PASS" } else { "FAIL" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_runs_at_small_scale_and_mostly_passes() {
        // Small but not degenerate: the shape checks need a few sweep
        // points and a couple of seeds.
        let scale = Scale {
            seeds: 2,
            sweep_points: 4,
            iterations: 20,
            jobs: 0,
            mtbf: None,
            fault_seed: None,
            placement: None,
        };
        let (checks, _) = run_report(&scale);
        assert_eq!(checks.len(), 14);
        let failed: Vec<&Check> = checks.iter().filter(|c| !c.pass).collect();
        // Deterministic analytic checks must always pass.
        for c in &checks {
            if matches!(c.id.as_str(), "fig1" | "fig2" | "fig3") {
                assert!(c.pass, "analytic check {} failed: {}", c.id, c.measured);
            }
        }
        // At this reduced scale allow at most two marginal shape checks
        // to wobble.
        assert!(
            failed.len() <= 2,
            "too many failures at small scale: {failed:#?}"
        );
    }

    #[test]
    fn best_benefit_is_none_when_predicate_matches_nothing() {
        let fig = FigureData {
            id: "t".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![
                crate::output::Series::new("s", vec![(0.0, 1.0), (1.0, 2.0)]),
                crate::output::Series::new("base", vec![(0.0, 2.0), (1.0, 2.0)]),
            ],
        };
        // Regression: this used to fold from NEG_INFINITY and hand back
        // (-inf, 0.0) as if it were a measurement.
        assert_eq!(best_benefit_where(&fig, "s", "base", |x| x > 10.0), None);
        let (ben, at) = best_benefit(&fig, "s", "base").expect("points exist");
        assert!((ben - 0.5).abs() < 1e-12);
        assert_eq!(at, 0.0);
    }

    #[test]
    fn best_benefit_skips_zero_baseline_points() {
        let fig = FigureData {
            id: "t".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![
                crate::output::Series::new("s", vec![(0.0, 1.0), (1.0, 1.0)]),
                crate::output::Series::new("base", vec![(0.0, 0.0), (1.0, 4.0)]),
            ],
        };
        // The x=0 point divides by a zero baseline; it must be skipped,
        // not reported as -inf/NaN benefit.
        let (ben, at) = best_benefit(&fig, "s", "base").expect("x=1 qualifies");
        assert!((ben - 0.75).abs() < 1e-12);
        assert_eq!(at, 1.0);
        // All-zero baseline: nothing comparable at all.
        let all_zero = FigureData {
            series: vec![
                crate::output::Series::new("s", vec![(0.0, 1.0)]),
                crate::output::Series::new("base", vec![(0.0, 0.0)]),
            ],
            ..fig
        };
        assert_eq!(best_benefit(&all_zero, "s", "base"), None);
    }

    #[test]
    fn markdown_renders_all_rows() {
        let checks = vec![
            super::check("a", "claim", "measured".into(), true),
            super::check("b", "claim2", "m2".into(), false),
        ];
        let md = render_markdown(&checks);
        assert!(md.contains("1/2 checks pass"));
        assert!(md.contains("| a |"));
        assert!(md.contains("FAIL"));
    }
}
