//! The measurement loop shared by every workload: set-up, the untraced
//! run that gives the end-to-end metrics, and the traced run that gives
//! the per-layer metrics.

use crate::calib::Calib;
use crate::layers::{EventCounts, Layers};
use crate::sys;
use crate::Args;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per untraced run, spread over it; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Probes after each set-up, at least: a set-up can be shorter than one.
const SETUP_PROBES: usize = 8;
/// An op's time is this quantile of its passes' scaled times: low, so it
/// favours the fast spells that scaling does not fully make up for, but
/// not the minimum, which would fall as passes grow more numerous.
const OP_QUANTILE: f64 = 0.25;
/// Problems echoed to stderr; the rest are only counted.
const MAX_NOTES: usize = 20;
/// Per-pass counts of every workload: `workload<TAB>count<TAB>value`.
const EXPECTED_COUNTS: &str = "perfbench/expected/counts.tsv";

/// Deterministic counts of one pass, by name.
pub type Counts = BTreeMap<&'static str, u64>;
/// The committed counts of one workload's pass.
type Expected = BTreeMap<String, u64>;

/// One workload: a fixed cycle of ops, each runnable through the public
/// entry point ([`Workload::run`]) or as the chain of layer calls behind
/// it ([`Workload::run_mirror`]).
pub trait Workload: Sized {
    type Out;
    /// Ops in one pass of the cycle.
    fn len(&self) -> usize;
    /// First op of each group. Groups are contiguous and rotate as units,
    /// so the order inside a group (a figure's grid order) never changes.
    fn group_starts(&self) -> Vec<usize>;
    fn run(&mut self, op: usize) -> Self::Out;
    /// `events`, when given, is attached as the runs' trace sink.
    fn run_mirror(
        &mut self,
        op: usize,
        layers: &mut Layers,
        events: Option<&EventCounts>,
    ) -> Self::Out;
    /// Checks one op's output against the oracle.
    fn check(&self, op: usize, out: &Self::Out) -> Result<(), String>;
    /// Adds the output's deterministic counts to `into`.
    fn counts(&self, out: &Self::Out, into: &mut Counts);
    /// Whether a mirror output reproduces the public call's output.
    fn same(&self, plain: &Self::Out, mirror: &Self::Out) -> bool;
}

/// Run-level failures that make the result incorrect without being an
/// op's output mismatch.
#[derive(Default)]
struct Problems(Vec<String>);

impl Problems {
    fn note(&mut self, msg: String) {
        if self.0.len() < MAX_NOTES {
            eprintln!("perfbench: {msg}");
        }
        self.0.push(msg);
    }

    fn threads(&mut self, when: &str) {
        match sys::threads() {
            Some(1) => {}
            n => self.note(format!(
                "{when}: process has {n:?} threads, expected exactly 1"
            )),
        }
    }

    /// Every pass of every run must do the committed work.
    fn counts_match(&mut self, what: &str, counts: &Counts, expected: &Expected) {
        let got: Expected = counts.iter().map(|(&k, &v)| (k.to_owned(), v)).collect();
        if got != *expected {
            self.note(format!(
                "{what} counts {got:?} differ from {EXPECTED_COUNTS}'s {expected:?}"
            ));
        }
    }
}

/// Op and failure tallies of the measured passes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check<W: Workload>(&mut self, w: &W, op: usize, out: &W::Out, problems: &mut Problems) {
        self.attempted += 1;
        if let Err(e) = w.check(op, out) {
            self.failed += 1;
            problems.note(e);
        }
    }
}

type Metric = (String, f64, &'static str);

/// Builds the workload and runs its warm-up op, timed as one set-up.
fn set_up<W: Workload>(
    build: fn() -> Result<W, String>,
    problems: &mut Problems,
) -> Result<(W, f64), String> {
    let t0 = Instant::now();
    let mut w = build()?;
    // Always op 0, so set-up does the same work whatever the seed.
    let warm = w.run(0);
    let secs = t0.elapsed().as_secs_f64();
    if let Err(e) = w.check(0, &warm) {
        problems.note(format!("warm-up op: {e}"));
    }
    Ok((w, secs))
}

/// Reads the committed per-pass counts of `workload`.
fn expected_counts(workload: &str) -> Result<Expected, String> {
    let text = std::fs::read_to_string(EXPECTED_COUNTS)
        .map_err(|e| format!("cannot read {EXPECTED_COUNTS}: {e}"))?;
    let mut counts = Expected::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        match line.split('\t').collect::<Vec<_>>()[..] {
            [w, name, value] => {
                let value = value
                    .parse()
                    .map_err(|e| format!("{EXPECTED_COUNTS}: {line:?}: {e}"))?;
                if w == workload {
                    counts.insert(name.to_owned(), value);
                }
            }
            _ => return Err(format!("{EXPECTED_COUNTS}: bad line {line:?}")),
        }
    }
    if counts.is_empty() {
        return Err(format!("{EXPECTED_COUNTS} has no counts for {workload}"));
    }
    Ok(counts)
}

/// The counts of one checked pass in op order, for `--print-expected counts`.
pub fn pass_counts<W: Workload>(build: fn() -> Result<W, String>) -> Result<Counts, String> {
    let mut w = build()?;
    let mut counts = Counts::new();
    for op in 0..w.len() {
        let out = w.run(op);
        w.check(op, &out)?;
        w.counts(&out, &mut counts);
    }
    Ok(counts)
}

/// Builds the workload, measures it and renders the JSON result line.
pub fn run<W: Workload>(build: fn() -> Result<W, String>, args: &Args) -> Result<String, String> {
    let expected = expected_counts(&args.workload)?;
    let mut problems = Problems::default();
    // Built first, so its table is resident through every set-up and pass.
    let mut calib = Calib::new();
    let (mut w, setup_secs) = set_up(build, &mut problems)?;
    let order = rotated(&w, args.seed);
    problems.threads("after set-up");
    let mut tally = Tally::default();
    let mut metrics = if args.trace {
        traced(
            &mut w,
            &order,
            &mut calib,
            args.seconds,
            &expected,
            &mut tally,
            &mut problems,
        )
    } else {
        let run = Untraced {
            build,
            setup_secs,
            seconds: args.seconds,
            expected,
        };
        run.measure(&mut w, &order, &mut calib, &mut tally, &mut problems)?
    };
    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            problems.note(format!("metric {name} is {value}"));
            *value = 0.0;
        }
    }
    let correct = tally.failed == 0 && problems.0.is_empty();
    Ok(render(correct, &tally, &metrics))
}

/// The cycle's op order for `seed`: the seed picks the group that comes
/// first, so every seed runs the same ops.
fn rotated<W: Workload>(w: &W, seed: u64) -> Vec<usize> {
    let starts = w.group_starts();
    let first = starts[(seed % starts.len() as u64) as usize];
    (0..w.len()).map(|j| (first + j) % w.len()).collect()
}

/// The `q`-quantile of `xs`, interpolating between order statistics.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(|a, b| a.total_cmp(b));
    let at = q * (xs.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Each op's wall and CPU seconds in every pass so far, at the host's
/// reference speed (see [`crate::calib`]). An op's time is the
/// [`OP_QUANTILE`] of its passes.
struct OpTimes {
    wall: Vec<Vec<f64>>,
    cpu: Vec<Vec<f64>>,
    /// `(op, wall, cpu)` of the pass in progress, before scaling.
    pass: Vec<(usize, f64, f64)>,
}

impl OpTimes {
    fn new(ops: usize) -> Self {
        OpTimes {
            wall: vec![Vec::new(); ops],
            cpu: vec![Vec::new(); ops],
            pass: Vec::new(),
        }
    }

    /// Runs `f` as op `op`, then probes the host's speed, untimed. The op
    /// runs on this thread alone (see [`alone`]), so CPU time past its
    /// wall time is the virtual machine's clock skew and is cut off.
    fn time<R>(&mut self, op: usize, calib: &mut Calib, f: impl FnOnce() -> R) -> R {
        let (w0, c0) = (Instant::now(), sys::process_cpu());
        let out = f();
        let (wall, cpu) = (w0.elapsed(), sys::process_cpu() - c0);
        let (wall, cpu) = (wall.as_secs_f64(), cpu.as_secs_f64());
        self.pass.push((op, wall, cpu.min(wall)));
        calib.follow(wall, 1);
        out
    }

    /// Scales the pass's times by the probes that followed its ops.
    fn end_pass(&mut self, calib: &mut Calib) {
        let k = calib.scale();
        for (op, wall, cpu) in self.pass.drain(..) {
            self.wall[op].push(wall * k);
            self.cpu[op].push(cpu * k);
        }
    }

    /// Each op's wall seconds.
    fn op_wall(&self) -> Vec<f64> {
        self.wall
            .iter()
            .map(|xs| quantile(xs, OP_QUANTILE))
            .collect()
    }

    /// Seconds of one pass, summed over the ops.
    fn pass_wall(&self) -> f64 {
        self.op_wall().iter().sum()
    }

    /// CPU seconds of one pass, summed over the ops. Each sample's CPU
    /// time is at most its wall time, so this is at most `pass_wall`.
    fn pass_cpu(&self) -> f64 {
        self.cpu.iter().map(|xs| quantile(xs, OP_QUANTILE)).sum()
    }
}

/// Runs one pass through `f`, then checks that it ran on this thread
/// alone: one thread in the process, and no more CPU time than wall time.
/// A virtual machine's CPU clock can run a fraction of a millisecond
/// ahead of its wall clock when the host deschedules it, hence the slack;
/// a second busy thread would double the CPU time.
fn alone(problems: &mut Problems, f: impl FnOnce(&mut Problems)) {
    let (w0, c0) = (Instant::now(), sys::process_cpu());
    f(problems);
    let (wall, cpu) = (w0.elapsed(), sys::process_cpu() - c0);
    if cpu > wall.mul_f64(1.02) + Duration::from_millis(1) {
        problems.note(format!(
            "a pass used {cpu:?} CPU in {wall:?} wall: hidden threads"
        ));
    }
    problems.threads("after a pass");
}

/// The untraced run: whole passes of public calls for at least `seconds`,
/// with the set-up repeated at even intervals.
struct Untraced<W> {
    build: fn() -> Result<W, String>,
    setup_secs: f64,
    seconds: f64,
    expected: Expected,
}

impl<W: Workload> Untraced<W> {
    fn measure(
        self,
        w: &mut W,
        order: &[usize],
        calib: &mut Calib,
        tally: &mut Tally,
        problems: &mut Problems,
    ) -> Result<Vec<Metric>, String> {
        let mut times = OpTimes::new(w.len());
        let mut setup_secs = vec![Self::scaled_setup(self.setup_secs, calib)];
        let mut passes = 0;
        let start = Instant::now();
        while passes == 0 || start.elapsed().as_secs_f64() < self.seconds {
            let mut counts = Counts::new();
            alone(problems, |problems| {
                for &op in order {
                    let out = times.time(op, calib, || w.run(op));
                    tally.check(w, op, &out, problems);
                    w.counts(&out, &mut counts);
                }
            });
            times.end_pass(calib);
            passes += 1;
            problems.counts_match("pass", &counts, &self.expected);
            // Spread the set-ups over the run, as the passes are spread.
            let due = 1
                + (start.elapsed().as_secs_f64() / self.seconds * (SETUP_REPS - 1) as f64) as usize;
            while setup_secs.len() < due.min(SETUP_REPS) {
                let secs = set_up(self.build, problems)?.1;
                setup_secs.push(Self::scaled_setup(secs, calib));
            }
        }
        while setup_secs.len() < SETUP_REPS {
            let secs = set_up(self.build, problems)?.1;
            setup_secs.push(Self::scaled_setup(secs, calib));
        }
        let ops = order.len() as f64;
        let per_op_ms: Vec<f64> = times.op_wall().iter().map(|s| s * 1e3).collect();
        Ok(vec![
            ("ops_per_s".into(), ops / times.pass_wall(), "1/s"),
            ("op_ms_p50".into(), quantile(&per_op_ms, 0.5), "ms"),
            ("op_ms_p90".into(), quantile(&per_op_ms, 0.9), "ms"),
            ("cpu_ms_per_op".into(), times.pass_cpu() * 1e3 / ops, "ms"),
            (
                "peak_rss_mb".into(),
                sys::peak_rss_mb().unwrap_or(0.0) - calib.resident_mb(),
                "MB",
            ),
            ("setup_s".into(), median(&setup_secs), "s"),
        ])
    }

    /// `secs` of the set-up just done, at the host's reference speed.
    fn scaled_setup(secs: f64, calib: &mut Calib) -> f64 {
        calib.follow(secs, SETUP_PROBES);
        secs * calib.scale()
    }
}

/// One verification pass (public call against the chain of layer calls,
/// with decision events counted), then untraced and traced passes in
/// turn for at least `seconds`.
fn traced<W: Workload>(
    w: &mut W,
    order: &[usize],
    calib: &mut Calib,
    seconds: f64,
    expected: &Expected,
    tally: &mut Tally,
    problems: &mut Problems,
) -> Vec<Metric> {
    let events = EventCounts::default();
    let mut reference = Counts::new();
    for &op in order {
        let plain = w.run(op);
        if let Err(e) = w.check(op, &plain) {
            problems.note(format!("verification pass: {e}"));
        }
        w.counts(&plain, &mut reference);
        let mirror = w.run_mirror(op, &mut Layers::default(), Some(&events));
        if !w.same(&plain, &mirror) {
            problems.note(format!(
                "op {op}: the chain of layer calls does not reproduce the public call"
            ));
        }
    }
    problems.counts_match("verification pass", &reference, expected);

    let (mut plain_times, mut traced_times) = (OpTimes::new(w.len()), OpTimes::new(w.len()));
    let mut total = Layers::default();
    let mut first: Option<Layers> = None;
    let (mut passes, mut op_ns, mut check_ns) = (0, 0u128, 0u128);
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        alone(problems, |problems| {
            for &op in order {
                let out = plain_times.time(op, calib, || w.run(op));
                if let Err(e) = w.check(op, &out) {
                    problems.note(format!("untraced pass: {e}"));
                }
            }
        });
        plain_times.end_pass(calib);
        let mut layers = Layers::default();
        let mut counts = Counts::new();
        alone(problems, |problems| {
            for &op in order {
                let out = traced_times.time(op, calib, || {
                    let t0 = Instant::now();
                    let out = w.run_mirror(op, &mut layers, None);
                    op_ns += t0.elapsed().as_nanos();
                    out
                });
                let t0 = Instant::now();
                tally.check(w, op, &out, problems);
                check_ns += t0.elapsed().as_nanos();
                w.counts(&out, &mut counts);
            }
        });
        traced_times.end_pass(calib);
        passes += 1;
        if counts != reference {
            problems.note(format!(
                "traced pass counts {counts:?} differ from the public calls' {reference:?}"
            ));
        }
        match &first {
            None => {}
            Some(f) if f.same_work(&layers) => {}
            Some(_) => problems.note("traced passes did different work".into()),
        }
        total.merge(&layers);
        first.get_or_insert(layers);
    }

    let passes = passes as f64;
    let span = |name: &str| total.spans.get(name).copied().unwrap_or_default();
    let count = |name: &str| total.counts.get(name).copied().unwrap_or(0) as f64 / passes;
    let per_pass_ms = |ns: u128| ns as f64 / 1e6 / passes;
    let mut m: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_owned(), value, unit));
    for layer in ["platform.realize", "faults.generate", "strategies.run"] {
        let s = span(layer);
        put(&format!("{layer}.calls"), s.calls as f64 / passes, "count");
        put(&format!("{layer}.ms"), per_pass_ms(s.ns), "ms");
        put(
            &format!("{layer}.share"),
            ratio(s.ns as f64, op_ns as f64),
            "ratio",
        );
    }
    let iterations = count("strategies.run.iterations");
    let run_us = span("strategies.run").ns as f64 / 1e3 / passes;
    put(
        "platform.realize.breakpoints",
        count("platform.realize.breakpoints"),
        "count",
    );
    put(
        "platform.blackouts.ms",
        per_pass_ms(span("platform.blackouts").ns),
        "ms",
    );
    put("strategies.run.iterations", iterations, "count");
    put(
        "strategies.run.us_per_iter",
        ratio(run_us, iterations),
        "us",
    );
    for outcome in ["adaptations", "failures", "recoveries", "truncated"] {
        let name = format!("strategies.run.{outcome}");
        put(&name, count(&name), "count");
    }
    for (name, value, unit) in events.metrics() {
        put(name, value, unit);
    }
    let (hits, misses) = (count("runner.cache.hits"), count("runner.cache.misses"));
    put("runner.cache.hits", hits, "count");
    put("runner.cache.misses", misses, "count");
    put(
        "runner.cache.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    put(
        "runner.summarize.ms",
        per_pass_ms(span("runner.summarize").ns),
        "ms",
    );
    put("obs.collect.events", count("obs.collect.events"), "count");
    let mut obs_ns = 0;
    for exporter in ["jsonl", "roundtrip", "chrome", "metrics", "audit"] {
        let s = span(&format!("obs.{exporter}"));
        obs_ns += s.ns;
        put(&format!("obs.{exporter}.ms"), per_pass_ms(s.ns), "ms");
    }
    put("obs.share", ratio(obs_ns as f64, op_ns as f64), "ratio");
    put("obs.jsonl.bytes", count("obs.jsonl.bytes"), "B");
    put("obs.chrome.bytes", count("obs.chrome.bytes"), "B");
    put("bench.check.ms", per_pass_ms(check_ns), "ms");
    let overhead = traced_times.pass_wall() / plain_times.pass_wall() - 1.0;
    put("bench.trace_overhead_pct", overhead * 100.0, "%");
    m
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn render(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
