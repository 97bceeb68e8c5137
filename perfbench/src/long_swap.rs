//! `long_swap`: one op is one `Strategy::run(&RunContext)` of a long
//! application (2 000 iterations, N = 4 of 32, ON/OFF duty 0.5) on a
//! platform realized once in set-up. The cycle runs SWAP greedy / safe /
//! friendly and CR — the strategies that predict and decide at every
//! iteration — over three platforms, so nearly all the time goes to the
//! exec inner loop and the history/decision engine, with no realization
//! per op. Each run is checked against `perfbench/expected/long_swap.tsv`
//! and must end inside its load horizon.

use crate::driver::{Counts, Workload};
use crate::layers::{EventCounts, Layers};
use crate::replicate::{realize, run_one, Realized};
use experiments::figures::{onoff_duty, platform};
use simulator::strategies::{Cr, RunContext, Strategy, Swap};
use simulator::{AppSpec, PlatformSpec, RunResult};

const ITERATIONS: usize = 2_000;
/// Load traces are generated this far; every run must end before it.
const HORIZON: f64 = 400_000.0;
const PLATFORM_SEEDS: [u64; 3] = [0, 1, 2];
const ALLOCATED: usize = 32;
const EXPECTED: &str = "perfbench/expected/long_swap.tsv";

pub struct LongSwap {
    platforms: Vec<Realized>,
    app: AppSpec,
    strategies: Vec<Box<dyn Strategy>>,
    /// One fingerprint per op, in cycle order.
    expected: Vec<String>,
}

fn spec() -> PlatformSpec {
    let mut spec = platform(onoff_duty(0.5));
    spec.horizon = HORIZON;
    spec
}

impl LongSwap {
    fn realized() -> Self {
        let mut app = AppSpec::hpdc03(4, 1.0e6);
        app.iterations = ITERATIONS;
        let spec = spec();
        LongSwap {
            platforms: PLATFORM_SEEDS
                .iter()
                .map(|&seed| realize(&spec, None, seed, &mut Layers::default()))
                .collect(),
            app,
            strategies: vec![
                Box::new(Swap::greedy()),
                Box::new(Swap::safe()),
                Box::new(Swap::friendly()),
                Box::new(Cr::greedy()),
            ],
            expected: Vec::new(),
        }
    }

    /// Reads the expected fingerprints and realizes the platforms.
    pub fn new() -> Result<Self, String> {
        let text = std::fs::read_to_string(EXPECTED)
            .map_err(|e| format!("cannot read {EXPECTED}: {e}"))?;
        let mut w = LongSwap::realized();
        w.expected = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(str::to_owned)
            .collect();
        if w.expected.len() != w.len() {
            return Err(format!(
                "{EXPECTED} has {} runs, the cycle has {}",
                w.expected.len(),
                w.len()
            ));
        }
        Ok(w)
    }

    /// Which platform and strategy op `op` runs.
    fn split(&self, op: usize) -> (usize, usize) {
        (op / self.strategies.len(), op % self.strategies.len())
    }

    /// One line per op: platform seed, strategy, execution time, swaps,
    /// adaptation time, iterations and a digest of every iteration record.
    fn fingerprint(&self, op: usize, run: &RunResult) -> String {
        let (p, _) = self.split(op);
        format!(
            "{}\t{}\t{:?}\t{}\t{:?}\t{}\t{:016x}",
            PLATFORM_SEEDS[p],
            run.strategy,
            run.execution_time,
            run.adaptations,
            run.adapt_time_total,
            run.iterations.len(),
            digest(run)
        )
    }
}

/// FNV-1a over the bits of every iteration record and the startup time.
fn digest(run: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for it in &run.iterations {
        eat(it.index as u64);
        for v in [it.start, it.compute_end, it.end, it.adapt_time] {
            eat(v.to_bits());
        }
        for &host in &it.active {
            eat(host as u64);
        }
    }
    eat(run.startup_time.to_bits());
    h
}

/// Prints the expected-values file for the current program to stdout.
pub fn print_expected() {
    let mut w = LongSwap::realized();
    println!("# platform_seed\tstrategy\texecution_time\tadaptations\tadapt_time_total\titerations\tdigest");
    for op in 0..w.len() {
        let run = w.run(op);
        println!("{}", w.fingerprint(op, &run));
    }
}

impl Workload for LongSwap {
    type Out = RunResult;

    fn len(&self) -> usize {
        self.platforms.len() * self.strategies.len()
    }

    fn group_starts(&self) -> Vec<usize> {
        (0..self.len()).collect()
    }

    fn run(&mut self, op: usize) -> RunResult {
        let (p, s) = self.split(op);
        let ctx = RunContext::new(&self.platforms[p].platform, &self.app, ALLOCATED);
        self.strategies[s].run(&ctx)
    }

    fn run_mirror(
        &mut self,
        op: usize,
        layers: &mut Layers,
        events: Option<&EventCounts>,
    ) -> RunResult {
        let (p, s) = self.split(op);
        let sink = events.map(|e| e as &dyn obs::TraceSink);
        let strategy = self.strategies[s].as_ref();
        run_one(
            &self.platforms[p],
            &self.app,
            strategy,
            ALLOCATED,
            None,
            sink,
            layers,
        )
    }

    fn check(&self, op: usize, run: &RunResult) -> Result<(), String> {
        let got = self.fingerprint(op, run);
        if got != self.expected[op] {
            return Err(format!(
                "long_swap op {op}: got {got:?}, expected {:?}",
                self.expected[op]
            ));
        }
        if run.truncated || run.execution_time > HORIZON {
            return Err(format!(
                "long_swap op {op}: run ends at {:?}, past its load horizon {HORIZON:?}",
                run.execution_time
            ));
        }
        Ok(())
    }

    fn counts(&self, run: &RunResult, into: &mut Counts) {
        *into.entry("runs").or_default() += 1;
        *into.entry("simulated_iterations").or_default() += run.iterations.len() as u64;
        *into.entry("adaptations").or_default() += run.adaptations as u64;
    }

    fn same(&self, plain: &RunResult, mirror: &RunResult) -> bool {
        plain == mirror
    }
}
