//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each ablation varies exactly one mechanism and reports execution time
//! (and swap counts) at a fixed, moderately dynamic operating point —
//! the regime where policy quality matters most.

use crate::config::Scale;
use crate::figures::{mean_exec_time, onoff_duty, platform};
use crate::output::{FigureData, Series};
use crate::sweep::{grid_sweep, item_sweep};
use simulator::runner::Replication;
use simulator::strategies::{Nothing, Swap};
use simulator::AppSpec;
use swap_core::{HistoryWindow, PolicyParams, Predictor};

/// Constructor for a predictor, parameterized by the window length.
type PredictorFor = fn(f64) -> Predictor;
/// Constructor for a load model, parameterized by the sweep coordinate.
type LoadFor = fn(f64) -> simulator::platform::LoadSpec;

/// The shared operating point: N = 4 of 32, 100 MB state (payback is a
/// live constraint), duty-0.5 ON/OFF load.
fn operating_point(scale: &Scale) -> (simulator::PlatformSpec, AppSpec) {
    let mut app = AppSpec::hpdc03(4, 1.0e8);
    app.iterations = scale.iterations;
    (platform(onoff_duty(0.5)), app)
}

fn mean_time(
    spec: &simulator::PlatformSpec,
    app: &AppSpec,
    policy: PolicyParams,
    scale: &Scale,
) -> f64 {
    Replication::new(spec, app, &Swap::new(policy), 32, &scale.seed_list())
        .run()
        .execution_time
        .mean
}

/// History-predictor ablation: last-value vs windowed mean vs median vs
/// EWMA, across window lengths. X axis = window seconds; one series per
/// predictor.
pub fn ablation_history(scale: &Scale) -> FigureData {
    scale.validate();
    let (spec, app) = operating_point(scale);
    let windows = [0.0, 60.0, 300.0, 900.0];
    let predictors: [(&str, PredictorFor); 6] = [
        ("last-value", |_| Predictor::LastValue),
        ("mean", |_| Predictor::WindowedMean),
        ("tw-mean", |_| Predictor::TimeWeightedMean),
        ("median", |_| Predictor::WindowedMedian),
        ("ewma(0.5)", |_| Predictor::Ewma(0.5)),
        ("nws", |_| Predictor::Nws),
    ];
    let series = grid_sweep(
        scale,
        &predictors,
        &windows,
        |(name, _)| (*name).to_owned(),
        |(_, mk), w| {
            let policy = PolicyParams::greedy()
                .with_history(HistoryWindow::seconds(w))
                .with_predictor(mk(w));
            mean_time(&spec, &app, policy, scale)
        },
    );
    FigureData {
        id: "ablation_history".into(),
        title: "History predictor ablation (greedy gates, 100 MB state)".into(),
        x_label: "history window [s]".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

/// Payback-threshold ablation: sweep the threshold with everything else
/// greedy.
pub fn ablation_payback(scale: &Scale) -> FigureData {
    scale.validate();
    let (spec, app) = operating_point(scale);
    let thresholds = [0.1, 0.25, 0.5, 1.0, 2.0, 5.0, f64::INFINITY];
    // Plot infinity at a finite sentinel right of the sweep.
    let plot_x = |t: f64| if t.is_finite() { t } else { 10.0 };
    let ys = item_sweep(
        scale,
        "swap",
        &thresholds,
        |&t| plot_x(t),
        |&t| {
            let policy = PolicyParams::greedy().with_payback_threshold(t);
            mean_time(&spec, &app, policy, scale)
        },
    );
    let pts: Vec<(f64, f64)> = thresholds
        .iter()
        .zip(ys)
        .map(|(&t, y)| (plot_x(t), y))
        .collect();
    let nothing = Replication::new(&spec, &app, &Nothing, 4, &scale.seed_list())
        .run()
        .execution_time
        .mean;
    FigureData {
        id: "ablation_payback".into(),
        title: "Payback-threshold ablation (∞ plotted at x=10)".into(),
        x_label: "payback threshold [iterations]".into(),
        y_label: "execution time [s]".into(),
        series: vec![
            Series::new("swap", pts),
            Series::new("nothing", vec![(0.1, nothing), (10.0, nothing)]),
        ],
    }
}

/// Multi-swap ablation: at most one exchange per decision point vs as
/// many as the policy admits, across dynamism.
pub fn ablation_multiswap(scale: &Scale) -> FigureData {
    scale.validate();
    let mut app = AppSpec::hpdc03(4, 1.0e6);
    app.iterations = scale.iterations;
    let xs = scale.linspace(0.0, 0.92);
    let series = grid_sweep(
        scale,
        &[("multi-swap", None), ("single-swap", Some(1))],
        &xs,
        |(name, _)| (*name).to_owned(),
        |(_, cap), d| {
            let spec = platform(onoff_duty(d));
            let strategy = match cap {
                None => Swap::greedy(),
                Some(k) => Swap::greedy().with_max_swaps(*k),
            };
            Replication::new(&spec, &app, &strategy, 32, &scale.seed_list())
                .run()
                .execution_time
                .mean
        },
    );
    FigureData {
        id: "ablation_multiswap".into(),
        title: "Swaps per decision point (greedy, 1 MB state)".into(),
        x_label: "environment dynamism [load probability]".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

/// Dynamism-axis ablation: the DESIGN.md interpretation (duty cycle with
/// fixed per-step q) vs sweeping the raw OFF→ON probability p directly.
pub fn ablation_dynamism(scale: &Scale) -> FigureData {
    scale.validate();
    let mut app = AppSpec::hpdc03(4, 1.0e6);
    app.iterations = scale.iterations;
    let xs = scale.linspace(0.0, 0.92);
    let interpretations: [(&str, LoadFor); 2] = [
        ("duty-cycle axis", onoff_duty),
        ("raw-p axis", |x| {
            simulator::platform::LoadSpec::OnOff(loadmodel::OnOffSource::with_step(
                x,
                crate::figures::ONOFF_Q,
                crate::figures::ONOFF_STEP,
            ))
        }),
    ];
    let combos: Vec<(String, LoadFor, bool)> = interpretations
        .iter()
        .flat_map(|&(name, load_for)| {
            [("nothing", false), ("swap", true)]
                .into_iter()
                .map(move |(sname, swaps)| (format!("{sname} ({name})"), load_for, swaps))
        })
        .collect();
    let series = grid_sweep(
        scale,
        &combos,
        &xs,
        |(label, _, _)| label.clone(),
        |(_, load_for, swaps), x| {
            if *swaps {
                mean_exec_time(load_for(x), &app, &Swap::greedy(), 32, scale)
            } else {
                mean_exec_time(load_for(x), &app, &Nothing, 4, scale)
            }
        },
    );
    FigureData {
        id: "ablation_dynamism".into(),
        title: "Dynamism-axis interpretation".into(),
        x_label: "axis value".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

/// Oracle gap: greedy swapping vs a clairvoyant, free-migration upper
/// bound across dynamism — how much of the remaining gap to optimal is
/// *prediction* rather than mechanism.
pub fn ablation_oracle(scale: &Scale) -> FigureData {
    scale.validate();
    let mut app = AppSpec::hpdc03(4, 1.0e6);
    app.iterations = scale.iterations;
    let xs = scale.linspace(0.0, 0.92);
    let strategies: Vec<(&str, Box<dyn simulator::strategies::Strategy>, usize)> = vec![
        ("nothing", Box::new(Nothing), 4),
        ("greedy", Box::new(Swap::greedy()), 32),
        ("oracle", Box::new(simulator::strategies::Oracle), 4),
    ];
    let series = grid_sweep(
        scale,
        &strategies,
        &xs,
        |(name, _, _)| (*name).to_owned(),
        |(_, s, alloc), d| mean_exec_time(onoff_duty(d), &app, s.as_ref(), *alloc, scale),
    );
    FigureData {
        id: "ablation_oracle".into(),
        title: "Oracle gap: greedy vs clairvoyant free migration".into(),
        x_label: "environment dynamism [load probability]".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

/// Communication-model ablation: the paper's BSP barrier-then-communicate
/// iteration vs an eager-overlap upper bound (each process starts sending
/// the moment it finishes computing; flows share the link fluidly),
/// across per-process communication volume. Overlap only matters once
/// communication is a substantial fraction of the iteration — justifying
/// the BSP model for the paper's regime.
pub fn ablation_commmodel(scale: &Scale) -> FigureData {
    use simulator::exec::{run_iteration, run_iteration_eager, FaultedIteration};
    use simulator::schedule::{equal_partition, fastest_hosts};
    scale.validate();
    let xs = scale.logspace(1e5, 1e9); // bytes per process per iteration
                                       // Both models share the realized platform per seed, so one work item
                                       // computes the (bsp, eager) pair for a sweep point.
    let pairs = item_sweep(
        scale,
        "bsp+eager",
        &xs,
        |&b| b,
        |&bytes| {
            let mut app = AppSpec::hpdc03(4, 1.0e6);
            app.iterations = scale.iterations;
            app.bytes_per_proc_iter = bytes;
            let mut sums = [0.0f64; 2];
            for &seed in &scale.seed_list() {
                let platform = platform(onoff_duty(0.5)).realize(seed);
                let active = fastest_hosts(&platform, app.n_active, 0.0);
                let work = equal_partition(app.n_active, app.flops_per_proc_iter);
                let plan = faults::FaultPlan::inert();
                let mut fi = FaultedIteration::default();
                for (i, eager) in [false, true].into_iter().enumerate() {
                    let mut t = platform.startup_time(app.n_active);
                    for _ in 0..app.iterations {
                        t = if eager {
                            run_iteration_eager(&platform, &app, &active, &work, t).end
                        } else {
                            run_iteration(&platform, &app, &active, &work, t, plan, &mut fi);
                            fi.outcome.end
                        };
                    }
                    sums[i] += t;
                }
            }
            let n = scale.seeds as f64;
            [sums[0] / n, sums[1] / n]
        },
    );
    let mut series = vec![
        Series::new("bsp", Vec::new()),
        Series::new("eager", Vec::new()),
    ];
    for (&bytes, pair) in xs.iter().zip(pairs) {
        series[0].points.push((bytes, pair[0]));
        series[1].points.push((bytes, pair[1]));
    }
    FigureData {
        id: "ablation_commmodel".into(),
        title: "Communication model: BSP barrier vs eager overlap".into(),
        x_label: "communication per process per iteration [bytes]".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

/// All ablation ids.
pub const ALL_ABLATIONS: [&str; 6] = [
    "ablation_history",
    "ablation_payback",
    "ablation_multiswap",
    "ablation_dynamism",
    "ablation_oracle",
    "ablation_commmodel",
];

/// Generates an ablation by id.
pub fn ablation_by_id(id: &str, scale: &Scale) -> Option<FigureData> {
    Some(match id {
        "ablation_history" => ablation_history(scale),
        "ablation_payback" => ablation_payback(scale),
        "ablation_multiswap" => ablation_multiswap(scale),
        "ablation_dynamism" => ablation_dynamism(scale),
        "ablation_oracle" => ablation_oracle(scale),
        "ablation_commmodel" => ablation_commmodel(scale),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            seeds: 1,
            sweep_points: 2,
            iterations: 3,
            jobs: 0,
            mtbf: None,
            fault_seed: None,
            placement: None,
        }
    }

    #[test]
    fn ablations_produce_finite_data() {
        for id in ALL_ABLATIONS {
            let fig = ablation_by_id(id, &tiny()).unwrap();
            assert!(!fig.series.is_empty(), "{id} empty");
            for s in &fig.series {
                assert!(
                    s.points.iter().all(|&(_, y)| y.is_finite() && y > 0.0),
                    "{id}/{} has bad values",
                    s.name
                );
            }
        }
    }

    #[test]
    fn unknown_ablation_is_none() {
        assert!(ablation_by_id("nope", &tiny()).is_none());
    }

    #[test]
    fn eager_comm_bounds_bsp_from_below_and_matters_only_when_heavy() {
        let scale = Scale {
            seeds: 2,
            sweep_points: 4,
            iterations: 6,
            jobs: 0,
            mtbf: None,
            fault_seed: None,
            placement: None,
        };
        let fig = ablation_commmodel(&scale);
        let bsp = fig.series_named("bsp").unwrap();
        let eager = fig.series_named("eager").unwrap();
        for (b, e) in bsp.points.iter().zip(&eager.points) {
            assert!(
                e.1 <= b.1 + 1e-6,
                "eager {} > bsp {} at {} B",
                e.1,
                b.1,
                b.0
            );
        }
        // Light communication: the models agree within 1%.
        assert!(eager.y(0) > bsp.y(0) * 0.99);
        // Heavy communication: overlap buys a visible margin.
        let last = bsp.points.len() - 1;
        assert!(
            eager.y(last) < bsp.y(last) * 0.995,
            "no overlap benefit at 1 GB: eager {} vs bsp {}",
            eager.y(last),
            bsp.y(last)
        );
    }

    #[test]
    fn oracle_bounds_greedy_from_below() {
        let scale = Scale {
            seeds: 2,
            sweep_points: 3,
            iterations: 8,
            jobs: 0,
            mtbf: None,
            fault_seed: None,
            placement: None,
        };
        let fig = ablation_oracle(&scale);
        let greedy = fig.series_named("greedy").unwrap();
        let oracle = fig.series_named("oracle").unwrap();
        for (g, o) in greedy.points.iter().zip(&oracle.points) {
            assert!(
                o.1 <= g.1 * 1.01,
                "oracle {} should lower-bound greedy {} at duty {}",
                o.1,
                g.1,
                g.0
            );
        }
    }
}
