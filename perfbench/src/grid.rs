//! The sweep workloads. One op is one sweep cell: one `run_replicated*`
//! call at `Scale::full()` with the figure's own spec, app, strategy and
//! allocation. Cells run in grid order under a fresh realization cache
//! per figure, as `grid_sweep` runs them, and each cell's mean is checked
//! bit for bit against the committed `results/<id>.csv`.
//!
//! * `figure_sweep` — fig4–fig9, the paper's own results (325 cells).
//! * `policy_tournament` — `ext_policies` (52 cells): the fault path
//!   (`FaultPlan::generate`, placement rankers) on the unloaded testbed.

use crate::driver::{Counts, Workload};
use crate::layers::{EventCounts, Layers};
use crate::replicate::{replicate, same_result, Memo, Request};
use experiments::figures::{onoff_duty, platform};
use experiments::Scale;
use faults::FaultSpec;
use loadmodel::{DegenerateHyperExp, HyperExpWorkload};
use policy::{PlacementChoice, PolicyConfig, PolicySet};
use simulator::platform::{LoadSpec, PlatformSpec};
use simulator::runner::{
    enter_cell, run_replicated, run_replicated_policies, RealizationCache, ReplicatedResult,
};
use simulator::strategies::{Cr, Dlb, Nothing, Strategy, Swap};
use simulator::AppSpec;
use std::sync::Arc;

struct Cell {
    series: String,
    x: f64,
    spec: PlatformSpec,
    app: AppSpec,
    strategy: Box<dyn Strategy>,
    allocated: usize,
    faults: Option<(FaultSpec, PolicySet)>,
    expected: f64,
}

struct Figure {
    id: &'static str,
    /// Series-major, x-minor: `grid_sweep`'s order.
    cells: Vec<Cell>,
}

pub struct Grid {
    figures: Vec<Figure>,
    /// `(figure, cell)` of every op, figure by figure.
    ops: Vec<(usize, usize)>,
    seeds: Vec<u64>,
    cache: Option<Arc<RealizationCache>>,
    memo: Memo,
}

pub struct CellOut {
    result: ReplicatedResult,
    hits: u64,
    misses: u64,
}

/// The scale of the committed results, on one thread.
fn scale() -> Scale {
    Scale {
        jobs: 1,
        ..Scale::full()
    }
}

/// A committed figure CSV: header `x,<series...>`, one row per x.
struct Oracle {
    path: String,
    names: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl Oracle {
    fn load(id: &str) -> Result<Self, String> {
        let path = format!("results/{id}.csv");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| format!("{path} is empty"))?;
        let names = header.split(',').skip(1).map(str::to_owned).collect();
        let rows = lines
            .map(|line| {
                line.split(',')
                    .map(|v| {
                        v.parse()
                            .map_err(|e| format!("{path}: bad number {v:?}: {e}"))
                    })
                    .collect()
            })
            .collect::<Result<_, String>>()?;
        Ok(Oracle { path, names, rows })
    }

    /// The committed y of `series` at exactly `x`.
    fn y(&self, series: &str, x: f64) -> Result<f64, String> {
        let col = 1 + self
            .names
            .iter()
            .position(|n| n == series)
            .ok_or_else(|| format!("{} has no series {series:?}", self.path))?;
        self.rows
            .iter()
            .find(|row| row[0].to_bits() == x.to_bits())
            .and_then(|row| row.get(col).copied())
            .ok_or_else(|| format!("{} has no {series:?} point at x={x:?}", self.path))
    }
}

/// Builds one series' strategy.
type MakeStrategy = fn() -> Box<dyn Strategy>;

/// One series of a figure: its name, app and strategy.
struct Series {
    name: &'static str,
    app: AppSpec,
    strategy: MakeStrategy,
}

fn nothing() -> Box<dyn Strategy> {
    Box::new(Nothing)
}
fn greedy() -> Box<dyn Strategy> {
    Box::new(Swap::greedy())
}
fn safe() -> Box<dyn Strategy> {
    Box::new(Swap::safe())
}
fn friendly() -> Box<dyn Strategy> {
    Box::new(Swap::friendly())
}
fn dlb() -> Box<dyn Strategy> {
    Box::new(Dlb)
}
fn cr() -> Box<dyn Strategy> {
    Box::new(Cr::greedy())
}

fn paper_app(n_active: usize, state_bytes: f64) -> AppSpec {
    let mut app = AppSpec::hpdc03(n_active, state_bytes);
    app.iterations = scale().iterations;
    app
}

/// The same `app` under each named strategy.
fn series(app: AppSpec, strategies: [(&'static str, MakeStrategy); 4]) -> Vec<Series> {
    strategies
        .into_iter()
        .map(|(name, strategy)| Series {
            name,
            app,
            strategy,
        })
        .collect()
}

/// NOTHING / SWAP / DLB / CR, the series of fig4, fig5 and fig9.
fn techniques(app: AppSpec) -> Vec<Series> {
    series(
        app,
        [
            ("nothing", nothing),
            ("swap", greedy),
            ("dlb", dlb),
            ("cr", cr),
        ],
    )
}

/// NOTHING and the three swapping policies, the series of fig7 and fig8.
fn policies(app: AppSpec) -> Vec<Series> {
    series(
        app,
        [
            ("nothing", nothing),
            ("greedy", greedy),
            ("safe", safe),
            ("friendly", friendly),
        ],
    )
}

/// A fault-free figure: `at(x)` gives each cell's platform spec and
/// allocation, as the figure generator computes them.
fn figure(
    id: &'static str,
    series: Vec<Series>,
    xs: Vec<f64>,
    at: impl Fn(f64) -> (PlatformSpec, usize),
) -> Result<Figure, String> {
    let oracle = Oracle::load(id)?;
    let mut cells = Vec::new();
    for s in &series {
        for &x in &xs {
            let (spec, allocated) = at(x);
            cells.push(Cell {
                series: s.name.to_owned(),
                x,
                spec,
                app: s.app,
                strategy: (s.strategy)(),
                allocated,
                faults: None,
                expected: oracle.y(s.name, x)?,
            });
        }
    }
    Ok(Figure { id, cells })
}

/// fig4–fig9, with the generators' parameters (see `experiments::figures`).
fn paper_figures() -> Result<Vec<Figure>, String> {
    let scale = scale();
    let duty = scale.linspace(0.0, 0.92);
    let onoff = |d: f64| (platform(onoff_duty(d)), 32);
    let (small, large) = (paper_app(4, 1.0e6), paper_app(4, 1.0e9));
    let fig6 = vec![
        Series {
            name: "nothing",
            app: small,
            strategy: nothing,
        },
        Series {
            name: "swap 1MB",
            app: small,
            strategy: greedy,
        },
        Series {
            name: "cr 1MB",
            app: small,
            strategy: cr,
        },
        Series {
            name: "swap 1GB",
            app: large,
            strategy: greedy,
        },
        Series {
            name: "cr 1GB",
            app: large,
            strategy: cr,
        },
    ];
    let over_allocated = |pct: f64| {
        let allocated = (8 + (8.0 * pct / 100.0).round() as usize).min(32);
        (platform(onoff_duty(0.3)), allocated)
    };
    let hyperexp = |mean_life: f64| {
        let load = LoadSpec::HyperExp(HyperExpWorkload::new(
            DegenerateHyperExp::new(mean_life, 0.4),
            1.0 / 600.0,
        ));
        (platform(load), 32)
    };
    Ok(vec![
        figure("fig4", techniques(small), duty.clone(), onoff)?,
        figure(
            "fig5",
            techniques(paper_app(8, 1.0e6)),
            scale.linspace(0.0, 300.0),
            over_allocated,
        )?,
        figure("fig6", fig6, duty.clone(), onoff)?,
        figure("fig7", policies(paper_app(4, 1.0e8)), duty.clone(), onoff)?,
        figure("fig8", policies(paper_app(2, 1.0e9)), duty, onoff)?,
        figure(
            "fig9",
            techniques(small),
            scale.logspace(30.0, 5000.0),
            hyperexp,
        )?,
    ])
}

/// The `ext_policies` tournament testbed: 32 identical unloaded hosts.
fn tournament_platform() -> PlatformSpec {
    PlatformSpec {
        n_hosts: 32,
        speed_range: (4.0e8, 4.0e8),
        link: simkit::link::SharedLink::hpdc03_lan(),
        startup_per_process: 0.75,
        load: LoadSpec::Unloaded,
        horizon: 50_000.0,
    }
}

/// `ext_policies`: two placements per fault regime, SWAP(safe)/32 with
/// 1 GB state, x the crash (or storm) MTBF.
fn tournament() -> Result<Figure, String> {
    let id = "ext_policies";
    let oracle = Oracle::load(id)?;
    let app = paper_app(4, 1.0e9);
    let spread = |mtbf: f64| FaultSpec {
        host_mtbf_spread: 8.0,
        ..FaultSpec::crashes_only(mtbf, 0)
    };
    let shocks = |mtbf: f64| FaultSpec::correlated_shocks(4, mtbf, 900.0, 0.8, 0);
    type FaultsAt<'a> = &'a dyn Fn(f64) -> FaultSpec;
    let regimes: [(&str, PlacementChoice, FaultsAt); 4] = [
        ("first_alive", PlacementChoice::FirstAlive, &spread),
        ("mtbf_aware", PlacementChoice::MtbfAware, &spread),
        ("first_alive/shocks", PlacementChoice::FirstAlive, &shocks),
        ("rack_aware/shocks", PlacementChoice::RackAware, &shocks),
    ];
    let mut cells = Vec::new();
    for (name, placement, fault_for) in regimes {
        for x in scale().logspace(1_000.0, 32_000.0) {
            let fs = fault_for(x);
            let ps = PolicyConfig::for_placement(placement).build(fs.shock_window_secs);
            cells.push(Cell {
                series: name.to_owned(),
                x,
                spec: tournament_platform(),
                app,
                strategy: safe(),
                allocated: 32,
                faults: Some((fs, ps)),
                expected: oracle.y(name, x)?,
            });
        }
    }
    Ok(Figure { id, cells })
}

impl Grid {
    fn new(figures: Vec<Figure>) -> Self {
        let ops = figures
            .iter()
            .enumerate()
            .flat_map(|(f, fig)| (0..fig.cells.len()).map(move |c| (f, c)))
            .collect();
        Grid {
            figures,
            ops,
            seeds: scale().seed_list(),
            cache: None,
            memo: Memo::default(),
        }
    }

    pub fn figure_sweep() -> Result<Self, String> {
        Ok(Grid::new(paper_figures()?))
    }

    pub fn policy_tournament() -> Result<Self, String> {
        Ok(Grid::new(vec![tournament()?]))
    }

    fn is_last(&self, f: usize, c: usize) -> bool {
        c + 1 == self.figures[f].cells.len()
    }
}

impl Workload for Grid {
    type Out = CellOut;

    fn len(&self) -> usize {
        self.ops.len()
    }

    fn group_starts(&self) -> Vec<usize> {
        (0..self.ops.len())
            .filter(|&i| self.ops[i].1 == 0)
            .collect()
    }

    fn run(&mut self, op: usize) -> CellOut {
        let (f, c) = self.ops[op];
        if c == 0 {
            self.cache = Some(Arc::new(RealizationCache::new()));
        }
        let cell = &self.figures[f].cells[c];
        let scope = enter_cell(1, self.cache.clone());
        let (spec, app, strategy) = (&cell.spec, &cell.app, cell.strategy.as_ref());
        let result = match &cell.faults {
            Some((fs, ps)) => {
                run_replicated_policies(spec, app, strategy, cell.allocated, &self.seeds, 1, fs, ps)
            }
            None => run_replicated(spec, app, strategy, cell.allocated, &self.seeds),
        };
        let report = scope.report();
        drop(scope);
        if self.is_last(f, c) {
            self.cache = None;
        }
        CellOut {
            result,
            hits: report.cache_hits,
            misses: report.cache_misses,
        }
    }

    fn run_mirror(
        &mut self,
        op: usize,
        layers: &mut Layers,
        events: Option<&EventCounts>,
    ) -> CellOut {
        let (f, c) = self.ops[op];
        if c == 0 {
            self.memo = Memo::default();
        }
        let cell = &self.figures[f].cells[c];
        let (hits, misses) = (self.memo.hits, self.memo.misses);
        let req = Request {
            spec: &cell.spec,
            app: &cell.app,
            strategy: cell.strategy.as_ref(),
            allocated: cell.allocated,
            seeds: &self.seeds,
            faults: cell.faults.as_ref().map(|(fs, _)| fs),
            policies: cell.faults.as_ref().map(|(_, ps)| ps),
        };
        let sink = events.map(|e| e as &dyn obs::TraceSink);
        let result = replicate(&req, &mut self.memo, sink, layers);
        let out = CellOut {
            result,
            hits: self.memo.hits - hits,
            misses: self.memo.misses - misses,
        };
        layers.add("runner.cache.hits", out.hits);
        layers.add("runner.cache.misses", out.misses);
        if self.is_last(f, c) {
            self.memo = Memo::default();
        }
        out
    }

    fn check(&self, op: usize, out: &CellOut) -> Result<(), String> {
        let (f, c) = self.ops[op];
        let (fig, cell) = (&self.figures[f], &self.figures[f].cells[c]);
        let got = out.result.execution_time.mean;
        if got.to_bits() == cell.expected.to_bits() {
            Ok(())
        } else {
            Err(format!(
                "{} {:?} at x={:?}: mean {got:?}, results/{}.csv has {:?}",
                fig.id, cell.series, cell.x, fig.id, cell.expected
            ))
        }
    }

    fn counts(&self, out: &CellOut, into: &mut Counts) {
        *into.entry("cells").or_default() += 1;
        *into.entry("runner.cache.hits").or_default() += out.hits;
        *into.entry("runner.cache.misses").or_default() += out.misses;
        *into.entry("replications").or_default() += out.result.runs.len() as u64;
        *into.entry("simulated_iterations").or_default() += out
            .result
            .runs
            .iter()
            .map(|r| r.iterations.len() as u64)
            .sum::<u64>();
    }

    fn same(&self, plain: &CellOut, mirror: &CellOut) -> bool {
        same_result(&plain.result, &mirror.result)
            && (plain.hits, plain.misses) == (mirror.hits, mirror.misses)
    }
}
