//! `run_replicated*` re-expressed as the chain of public layer calls the
//! runner makes for each seed, each timed from outside:
//! `PlatformSpec::realize` → `FaultPlan::generate` →
//! `Platform::apply_blackouts` → `Strategy::run`, then `summarize`.
//! The traced run checks that the chain gives the public call's result
//! bit for bit, so its spans describe the program that is measured.

use crate::layers::Layers;
use faults::{FaultPlan, FaultSpec};
use simulator::platform::{Platform, PlatformSpec};
use simulator::runner::{summarize, ReplicatedResult};
use simulator::strategies::{RunContext, Strategy};
use simulator::{AppSpec, RunResult, Summary};
use std::collections::HashMap;
use std::rc::Rc;

/// One replication's inputs, derived as the runner derives them.
pub struct Realized {
    pub platform: Platform,
    pub plan: Option<FaultPlan>,
}

/// Realizes the platform and fault plan of one seed.
pub fn realize(
    spec: &PlatformSpec,
    faults: Option<&FaultSpec>,
    seed: u64,
    layers: &mut Layers,
) -> Realized {
    let platform = layers.time("platform.realize", || spec.realize(seed));
    let breakpoints = platform
        .hosts
        .iter()
        .map(|h| h.cpu.load().points().len() as u64)
        .sum();
    layers.add("platform.realize.breakpoints", breakpoints);
    let plan = faults.map(|f| {
        layers.time("faults.generate", || {
            FaultPlan::generate(f, platform.hosts.len(), spec.horizon, seed)
        })
    });
    let platform = match &plan {
        Some(p) if p.has_blackouts() => {
            layers.time("platform.blackouts", || platform.apply_blackouts(p))
        }
        _ => platform,
    };
    Realized { platform, plan }
}

/// Runs one realized replication through `Strategy::run`.
pub fn run_one(
    realized: &Realized,
    app: &AppSpec,
    strategy: &dyn Strategy,
    allocated: usize,
    policies: Option<&policy::PolicySet>,
    sink: Option<&dyn obs::TraceSink>,
    layers: &mut Layers,
) -> RunResult {
    let mut ctx = RunContext::new(&realized.platform, app, allocated);
    if let Some(plan) = &realized.plan {
        ctx = ctx.with_faults(plan);
    }
    if let Some(ps) = policies {
        ctx = ctx.with_policies(ps);
    }
    if let Some(sink) = sink {
        ctx = ctx.with_trace(sink);
    }
    let run = layers.time("strategies.run", || strategy.run(&ctx));
    layers.add("strategies.run.iterations", run.iterations.len() as u64);
    layers.add("strategies.run.adaptations", run.adaptations as u64);
    layers.add("strategies.run.failures", run.failures as u64);
    layers.add("strategies.run.recoveries", run.recoveries as u64);
    layers.add("strategies.run.truncated", u64::from(run.truncated));
    run
}

/// Aggregates per-seed runs with the runner's arithmetic.
pub fn aggregate(strategy: String, runs: Vec<RunResult>, layers: &mut Layers) -> ReplicatedResult {
    layers.time("runner.summarize", || {
        let times: Vec<f64> = runs.iter().map(|r| r.execution_time).collect();
        let n = runs.len() as f64;
        ReplicatedResult {
            strategy,
            execution_time: summarize(&times),
            mean_adaptations: runs.iter().map(|r| r.adaptations as f64).sum::<f64>() / n,
            mean_adapt_time: runs.iter().map(|r| r.adapt_time_total).sum::<f64>() / n,
            runs,
            seed_wall_secs: Vec::new(),
        }
    })
}

/// Realized inputs shared by the cells of one figure, keyed like the
/// runner's `RealizationCache`: full spec and fault JSON plus the seed.
#[derive(Default)]
pub struct Memo {
    map: HashMap<(String, String, u64), Rc<Realized>>,
    pub hits: u64,
    pub misses: u64,
}

/// The arguments of one `run_replicated*` call.
pub struct Request<'a> {
    pub spec: &'a PlatformSpec,
    pub app: &'a AppSpec,
    pub strategy: &'a dyn Strategy,
    pub allocated: usize,
    pub seeds: &'a [u64],
    pub faults: Option<&'a FaultSpec>,
    pub policies: Option<&'a policy::PolicySet>,
}

/// The chain of layer calls behind `run_replicated*` for `req`,
/// realizing through `memo` as the runner realizes through its cache.
pub fn replicate(
    req: &Request,
    memo: &mut Memo,
    sink: Option<&dyn obs::TraceSink>,
    layers: &mut Layers,
) -> ReplicatedResult {
    let faults = req.faults.filter(|f| f.is_enabled());
    let spec_json = serde_json::to_string(req.spec).expect("platform specs serialize");
    let fault_json = faults.map_or_else(String::new, |f| {
        serde_json::to_string(f).expect("fault specs serialize")
    });
    let mut runs = Vec::with_capacity(req.seeds.len());
    for &seed in req.seeds {
        let key = (spec_json.clone(), fault_json.clone(), seed);
        let realized = match memo.map.get(&key) {
            Some(r) => {
                memo.hits += 1;
                Rc::clone(r)
            }
            None => {
                memo.misses += 1;
                let r = Rc::new(realize(req.spec, faults, seed, layers));
                memo.map.insert(key, Rc::clone(&r));
                r
            }
        };
        runs.push(run_one(
            &realized,
            req.app,
            req.strategy,
            req.allocated,
            req.policies,
            sink,
            layers,
        ));
    }
    aggregate(req.strategy.name(), runs, layers)
}

/// Bit-for-bit equality of two replicated results, wall-clock excluded.
pub fn same_result(a: &ReplicatedResult, b: &ReplicatedResult) -> bool {
    let bits =
        |s: &Summary| [s.mean, s.stderr, s.min, s.max, s.median, s.p10, s.p90].map(f64::to_bits);
    a.strategy == b.strategy
        && bits(&a.execution_time) == bits(&b.execution_time)
        && a.execution_time.n == b.execution_time.n
        && a.mean_adaptations.to_bits() == b.mean_adaptations.to_bits()
        && a.mean_adapt_time.to_bits() == b.mean_adapt_time.to_bits()
        && a.runs == b.runs
}
