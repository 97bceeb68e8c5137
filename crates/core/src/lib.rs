//! # swap-core — policies for swapping MPI processes
//!
//! This crate is the paper's primary contribution, reimplemented as a
//! library: *when* and *how* should an over-allocated iterative MPI
//! application swap a slow active process onto a fast spare processor?
//!
//! The pieces map directly onto the paper's sections:
//!
//! * [`payback`] (§5) — the cost/benefit algebra. A swap costs
//!   `swap_time = α + state_size/β`; its *payback distance* is the number
//!   of post-swap iterations needed before cumulative progress overtakes
//!   the no-swap execution:
//!   `payback = (swap_time / old_iter_time) / (1 − old_perf / new_perf)`.
//! * [`policy`] (§4) — the four policy parameters (payback threshold,
//!   minimum per-process improvement, minimum application improvement,
//!   performance-history window) and the three named instantiations:
//!   **greedy**, **safe**, **friendly**.
//! * [`history`] — per-processor performance histories with a configurable
//!   measurement window (the "amount of history" knob; what NWS-style
//!   monitoring provides in the real implementation), and the predictors
//!   that reduce a window to one value, NWS's fixed forecaster bank
//!   ([`Predictor::Nws`]) among them.
//! * [`decision`] — the swap manager's decision engine: given predicted
//!   per-processor performance, propose slowest-active ↔ fastest-inactive
//!   exchanges and filter them through the policy.
//! * [`manager`] — the swap manager's decision core: a history per
//!   processor, predictions under the policy, and the engine's verdict.
//!   Every swap manager, simulated or live, decides through it.
//! * [`metrics`] — shared performance-metric helpers (improvement
//!   ratios, the bottleneck performance).
//!
//! The crate is deliberately independent of any particular runtime: the
//! `simulator` crate feeds a [`ManagerCore`] with simulated measurements,
//! while `minimpi` feeds one with live measurements from a threaded
//! in-process MPI-like runtime. Both exercise the same decision path.

#![warn(missing_docs)]

pub mod decision;
pub mod history;
pub mod manager;
pub mod metrics;
pub mod payback;
pub mod policy;
#[cfg(test)]
mod reference;

pub use decision::{
    DecisionEngine, ProcessorSnapshot, RejectedSwap, StopReason, SwapDecision, SwapPair,
};
pub use history::{HistoryWindow, PerfHistory, Predictor};
pub use manager::ManagerCore;
pub use payback::{payback_distance, SwapCost};
pub use policy::{NamedPolicy, PolicyParams};
