//! Policy auto-tuning: grid search over the §4.1 parameter space.
//!
//! The paper hand-picks three policies and shows each wins somewhere;
//! the tuner makes the obvious next step executable — given an operating
//! point (dynamism, state size), search the policy grid and report what
//! actually works best there, with the named policies as reference
//! points.

use crate::config::Scale;
use crate::figures::{onoff_duty, platform};
use serde::{Deserialize, Serialize};
use simulator::runner::Replication;
use simulator::strategies::{Nothing, Swap};
use simulator::AppSpec;
use swap_core::{HistoryWindow, PolicyParams, Predictor};

/// One evaluated policy.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TunedPolicy {
    /// The parameters evaluated.
    pub policy: PolicyParams,
    /// Mean execution time across the seeds, seconds.
    pub mean_time: f64,
    /// Fractional benefit vs NOTHING (positive = better).
    pub benefit: f64,
    /// Mean swaps per run.
    pub adaptations: f64,
}

/// The search grid: payback thresholds × history windows × process
/// improvement thresholds (predictor follows the window: last-value for
/// instantaneous, windowed mean otherwise).
pub fn grid() -> Vec<PolicyParams> {
    let paybacks = [0.25, 0.5, 1.0, 2.0, f64::INFINITY];
    let histories = [0.0, 60.0, 300.0];
    let min_improvements = [0.0, 0.1, 0.2];
    let mut out = Vec::new();
    for &pb in &paybacks {
        for &h in &histories {
            for &mi in &min_improvements {
                let predictor = if h == 0.0 {
                    Predictor::LastValue
                } else {
                    Predictor::WindowedMean
                };
                out.push(
                    PolicyParams::greedy()
                        .with_payback_threshold(pb)
                        .with_history(HistoryWindow::seconds(h))
                        .with_predictor(predictor)
                        .with_min_process_improvement(mi),
                );
            }
        }
    }
    out
}

/// Evaluates the whole grid at one operating point and returns the
/// results best-first (plus the NOTHING baseline mean for context).
pub fn tune(duty: f64, state_bytes: f64, scale: &Scale) -> (f64, Vec<TunedPolicy>) {
    scale.validate();
    let mut app = AppSpec::hpdc03(4, state_bytes);
    app.iterations = scale.iterations;
    let spec = platform(onoff_duty(duty.clamp(0.0, 0.99)));
    let seeds = scale.seed_list();
    // The baseline fans over seeds; the grid then fans over policies —
    // both bit-identical to serial at any `jobs` setting.
    let nothing = Replication::new(&spec, &app, &Nothing, 4, &seeds)
        .with_jobs(scale.jobs)
        .run()
        .execution_time
        .mean;

    let candidates = grid();
    let mut results: Vec<TunedPolicy> =
        simkit::par::par_map(&candidates, scale.jobs, |_, policy| {
            let r = Replication::new(&spec, &app, &Swap::new(*policy), 32, &seeds).run();
            TunedPolicy {
                policy: *policy,
                mean_time: r.execution_time.mean,
                benefit: 1.0 - r.execution_time.mean / nothing,
                adaptations: r.mean_adaptations,
            }
        });
    results.sort_by(|a, b| a.mean_time.total_cmp(&b.mean_time));
    (nothing, results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            seeds: 2,
            sweep_points: 2,
            iterations: 10,
            jobs: 0,
            mtbf: None,
            fault_seed: None,
            placement: None,
        }
    }

    #[test]
    fn grid_covers_the_parameter_space() {
        let g = grid();
        assert_eq!(g.len(), 5 * 3 * 3);
        assert!(g.iter().any(|p| p.payback_threshold == f64::INFINITY));
        assert!(g.iter().any(|p| p.history.is_instantaneous()));
        assert!(g.iter().any(|p| p.min_process_improvement == 0.2));
    }

    #[test]
    fn tune_returns_sorted_results_and_a_winner_that_beats_nothing() {
        let (nothing, results) = tune(0.5, 1e6, &tiny());
        assert_eq!(results.len(), grid().len());
        for w in results.windows(2) {
            assert!(w[0].mean_time <= w[1].mean_time, "results not sorted");
        }
        // At 1 MB state under persistent moderate load, *some* policy
        // must beat doing nothing.
        assert!(
            results[0].mean_time < nothing,
            "best tuned policy {} vs nothing {nothing}",
            results[0].mean_time
        );
        assert!(results[0].benefit > 0.0);
    }
}
