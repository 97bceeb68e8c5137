//! `trace_export`: `swapsim trace` without the file writes. One op runs
//! `Scenario::run_traced()` on the template (six strategies, one thread),
//! then the JSONL export and its lossless round-trip check, the Chrome
//! export and `validate_chrome_trace`, `Metrics::from_bundle` (rendered)
//! and `audit::render`.

use crate::driver::{Counts, Workload};
use crate::layers::{EventCounts, Layers};
use crate::replicate::{aggregate, realize, run_one, same_result};
use experiments::scenario::Scenario;
use obs::{Trace, TraceBundle, TraceEvent};
use simulator::platform::Platform;
use simulator::runner::ReplicatedResult;

/// Replications per strategy, sized so one op takes about 0.1 s.
const REPLICATIONS: usize = 2;

pub struct TraceExport {
    scenario: Scenario,
}

pub struct Exported {
    results: Vec<ReplicatedResult>,
    bundle: TraceBundle,
    jsonl_bytes: usize,
    roundtrip: Result<(), String>,
    chrome_bytes: usize,
    chrome_events: Result<usize, String>,
    metrics_chars: usize,
    audit_chars: usize,
}

impl TraceExport {
    pub fn new() -> Result<Self, String> {
        Ok(TraceExport {
            scenario: Scenario {
                jobs: 1,
                replications: REPLICATIONS,
                ..Scenario::template()
            },
        })
    }
}

/// Every exporter `swapsim trace` runs, each timed.
fn export(results: Vec<ReplicatedResult>, bundle: TraceBundle, layers: &mut Layers) -> Exported {
    let jsonl = layers.time("obs.jsonl", || obs::jsonl::to_jsonl(&bundle));
    let roundtrip = layers.time("obs.roundtrip", || match obs::jsonl::from_jsonl(&jsonl) {
        Ok(back) if back == bundle => Ok(()),
        Ok(_) => Err("JSONL round-trip lost events".to_owned()),
        Err(e) => Err(format!("JSONL failed self-validation: {e}")),
    });
    let (chrome_bytes, chrome_events) = layers.time("obs.chrome", || {
        let chrome = obs::chrome::to_chrome_trace(&bundle);
        (chrome.len(), obs::chrome::validate_chrome_trace(&chrome))
    });
    let metrics_chars = layers.time("obs.metrics", || {
        obs::Metrics::from_bundle(&bundle).render().len()
    });
    let audit_chars = layers.time("obs.audit", || obs::audit::render(&bundle).len());
    layers.add("obs.collect.events", bundle.event_count() as u64);
    layers.add("obs.jsonl.bytes", jsonl.len() as u64);
    layers.add("obs.chrome.bytes", chrome_bytes as u64);
    Exported {
        results,
        bundle,
        jsonl_bytes: jsonl.len(),
        roundtrip,
        chrome_bytes,
        chrome_events,
        metrics_chars,
        audit_chars,
    }
}

/// The runner's post-run `LoadChange` events: every host's load
/// breakpoints up to the end of the run.
fn append_load_changes(trace: &mut Trace, platform: &Platform, horizon_t: f64) {
    for (host, h) in platform.hosts.iter().enumerate() {
        for &(t, competing) in h.cpu.load().points() {
            if t > horizon_t {
                break;
            }
            trace
                .events
                .push(TraceEvent::LoadChange { t, host, competing });
        }
    }
}

impl Workload for TraceExport {
    type Out = Exported;

    fn len(&self) -> usize {
        1
    }

    fn group_starts(&self) -> Vec<usize> {
        vec![0]
    }

    fn run(&mut self, _op: usize) -> Exported {
        let (results, bundle) = self.scenario.run_traced();
        export(results, bundle, &mut Layers::default())
    }

    fn run_mirror(
        &mut self,
        _op: usize,
        layers: &mut Layers,
        events: Option<&EventCounts>,
    ) -> Exported {
        let s = &self.scenario;
        let seeds: Vec<u64> = (0..s.replications as u64).collect();
        let mut bundle = TraceBundle::new();
        let mut results = Vec::with_capacity(s.strategies.len());
        for sref in &s.strategies {
            let (strategy, allocated) = sref.build(s.app.n_active, s.allocated);
            let mut runs = Vec::with_capacity(seeds.len());
            for &seed in &seeds {
                let realized = realize(&s.platform, None, seed, layers);
                let collector = obs::Collector::new();
                let run = run_one(
                    &realized,
                    &s.app,
                    strategy.as_ref(),
                    allocated,
                    None,
                    Some(&collector),
                    layers,
                );
                let mut trace = collector.into_trace();
                append_load_changes(&mut trace, &realized.platform, run.execution_time);
                bundle.push(strategy.name(), seed, trace);
                runs.push(run);
            }
            results.push(aggregate(strategy.name(), runs, layers));
        }
        if let Some(events) = events {
            for e in bundle.runs.iter().flat_map(|r| &r.trace.events) {
                events.record(e);
            }
        }
        export(results, bundle, layers)
    }

    fn check(&self, _op: usize, out: &Exported) -> Result<(), String> {
        out.roundtrip.clone()?;
        let chrome_events = out
            .chrome_events
            .clone()
            .map_err(|e| format!("Chrome trace failed self-validation: {e}"))?;
        let runs = self.scenario.strategies.len() * self.scenario.replications;
        if out.results.len() != self.scenario.strategies.len()
            || out.bundle.runs.len() != runs
            || chrome_events == 0
            || out.metrics_chars == 0
            || out.audit_chars == 0
        {
            return Err(format!(
                "trace export incomplete: {} results, {} run traces (want {runs}), {chrome_events} Chrome events",
                out.results.len(),
                out.bundle.runs.len()
            ));
        }
        Ok(())
    }

    fn counts(&self, out: &Exported, into: &mut Counts) {
        *into.entry("runs").or_default() += out.bundle.runs.len() as u64;
        *into.entry("obs.collect.events").or_default() += out.bundle.event_count() as u64;
        *into.entry("obs.jsonl.bytes").or_default() += out.jsonl_bytes as u64;
        *into.entry("obs.chrome.bytes").or_default() += out.chrome_bytes as u64;
    }

    fn same(&self, plain: &Exported, mirror: &Exported) -> bool {
        plain.results.len() == mirror.results.len()
            && plain
                .results
                .iter()
                .zip(&mirror.results)
                .all(|(a, b)| same_result(a, b))
            && plain.bundle == mirror.bundle
            && (plain.jsonl_bytes, plain.chrome_bytes) == (mirror.jsonl_bytes, mirror.chrome_bytes)
    }
}
