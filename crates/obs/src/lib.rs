//! Deterministic tracing and metrics for the swap simulator.
//!
//! Every layer of the stack (simulator strategies, the parallel runner,
//! the minimpi runtime) can emit typed [`TraceEvent`]s into a
//! [`TraceSink`]. Events carry *simulated* time, so a simulator trace is
//! byte-identical no matter how many worker threads ran the
//! replications — the exporters only ever see the per-run event streams
//! in a deterministic (strategy × seed) order.
//!
//! The layer is zero-cost when disabled: instrumented code holds an
//! `Option<&dyn TraceSink>` that defaults to `None`, and emission sites
//! are a branch on that option. No files are written, no buffers grow.
//!
//! Exporters:
//! * [`jsonl`] — one JSON object per event, the stable machine format;
//! * [`chrome`] — Chrome trace-event JSON (open in Perfetto /
//!   `chrome://tracing`): one track per host, swap flow-arrows between
//!   tracks, load counters;
//! * [`audit`] — a human-readable decision audit showing the payback
//!   algebra behind every swap/hold;
//! * [`Metrics`] — counters and histograms derived from a trace bundle.

pub mod audit;
pub mod chrome;
pub mod event;
pub mod jsonl;
pub mod metrics;
#[cfg(test)]
mod reference;
pub mod sink;
pub mod trace;

pub use event::{FailureCause, FaultKind, ProtocolStep, RecoveryAction, TraceEvent};
pub use metrics::{Histogram, Metrics};
pub use sink::{Collector, NullSink, SharedSink, TraceSink};
pub use trace::{RunTrace, Trace, TraceBundle};
