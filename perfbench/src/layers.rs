//! Per-layer accounting for the traced run: wall-clock spans timed from
//! outside each public layer call, the work counts those calls return,
//! and a trace sink that counts decision-layer events.

use obs::TraceEvent;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Calls made to one layer and the wall time they took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    pub calls: u64,
    pub ns: u128,
}

/// Spans and work counts of one or more passes.
#[derive(Debug, Default)]
pub struct Layers {
    pub spans: BTreeMap<&'static str, Span>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Layers {
    /// Runs `f`, charging its wall time to the span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos();
        let span = self.spans.entry(name).or_default();
        span.calls += 1;
        span.ns += ns;
        out
    }

    /// Adds `n` to the work count `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn merge(&mut self, other: &Layers) {
        for (&name, s) in &other.spans {
            let span = self.spans.entry(name).or_default();
            span.calls += s.calls;
            span.ns += s.ns;
        }
        for (&name, &n) in &other.counts {
            self.add(name, n);
        }
    }

    /// Whether two passes did the same work: same calls per layer and the
    /// same work counts (times may differ).
    pub fn same_work(&self, other: &Layers) -> bool {
        let calls = |l: &Layers| -> Vec<(&'static str, u64)> {
            l.spans.iter().map(|(&n, s)| (n, s.calls)).collect()
        };
        calls(self) == calls(other) && self.counts == other.counts
    }
}

/// Counts the decision-layer events of the runs it is attached to as a
/// trace sink (or fed with [`EventCounts::record`]).
#[derive(Debug, Default)]
pub struct EventCounts {
    decisions: AtomicU64,
    committed: AtomicU64,
    attempted: AtomicU64,
    probes: AtomicU64,
    policy: AtomicU64,
}

impl EventCounts {
    pub fn record(&self, event: &TraceEvent) {
        let bump = |c: &AtomicU64, n: usize| {
            c.fetch_add(n as u64, Ordering::Relaxed);
        };
        match event {
            TraceEvent::SwapDecision {
                admitted, rejected, ..
            } => {
                bump(&self.decisions, 1);
                bump(&self.committed, admitted.len());
                // The engine stops at the first refused candidate, so a
                // round attempted its admitted pairs plus that one.
                bump(
                    &self.attempted,
                    admitted.len() + usize::from(rejected.is_some()),
                );
            }
            TraceEvent::Probe { .. } => bump(&self.probes, 1),
            TraceEvent::PolicyDecision { .. } => bump(&self.policy, 1),
            _ => {}
        }
    }

    /// `(name, value, unit)` rows for the per-layer report.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
        let attempted = get(&self.attempted);
        let swap_yield = if attempted > 0.0 {
            get(&self.committed) / attempted
        } else {
            0.0
        };
        vec![
            ("core.decisions", get(&self.decisions), "count"),
            ("core.swaps_committed", get(&self.committed), "count"),
            ("core.swap_yield", swap_yield, "ratio"),
            ("exec.probes", get(&self.probes), "count"),
            ("policy.decisions", get(&self.policy), "count"),
        ]
    }
}

impl obs::TraceSink for EventCounts {
    fn emit(&self, event: TraceEvent) {
        self.record(&event);
    }
}
