//! # loadmodel — synthetic CPU load for shared workstations
//!
//! The paper (§6, "CPU load") deliberately uses *synthetic* CPU load rather
//! than replayed traces, "as it allows for a clearer understanding of
//! simulation results". This crate reproduces both of its models:
//!
//! * [`onoff`] — simple ON/OFF sources: a two-state Markov chain with fixed
//!   per-second exit probabilities `p` (OFF→ON) and `q` (ON→OFF). ON means
//!   one competing compute-bound process; multiple sources can be
//!   aggregated for heavier load. The paper's Figure 2 example uses
//!   `p = 0.3`, `q = 0.08`.
//! * [`hyperexp`] — a degenerate hyperexponential distribution of competing
//!   process lifetimes (heavy-tailed, as in Eager–Lazowska–Zahorjan and
//!   Harchol-Balter–Downey), with uniform-random arrivals and *multiple*
//!   simultaneous competitors allowed. This is the Figure 3 / Figure 9
//!   model.
//!
//! Both produce a [`trace::LoadTrace`]: a piecewise-constant
//! competing-process count over time, convertible to a `simkit::Timeline`
//! of availability. [`stats`] computes the summary statistics the test
//! suite uses to verify the generators against their analytic moments.

#![warn(missing_docs)]

pub mod hyperexp;
pub mod onoff;
pub mod pareto;
#[cfg(test)]
mod reference;
pub mod replay;
pub mod stats;
pub mod trace;

pub use hyperexp::{DegenerateHyperExp, HyperExpWorkload};
pub use onoff::OnOffSource;
pub use pareto::{BoundedPareto, ParetoWorkload};
pub use replay::{DiurnalTraceGenerator, TraceReplayer};
pub use trace::LoadTrace;
