//! # simulator — the paper's simulation study, reimplemented
//!
//! Models a heterogeneous network of time-shared workstations (§6,
//! "Execution environment"), an iterative data-parallel MPI application,
//! and the four ways of running it that §7 compares:
//!
//! * [`strategies::Nothing`] — run on the initially chosen processors and
//!   never adapt;
//! * [`strategies::Swap`] — MPI process swapping with a
//!   [`swap_core::PolicyParams`] policy (the paper's contribution);
//! * [`strategies::Dlb`] — idealized dynamic load balancing
//!   (free, perfectly informed repartitioning each iteration — a lower
//!   bound, as in the paper);
//! * [`strategies::Cr`] — checkpoint/restart driven by the same decision
//!   criteria as swapping.
//!
//! The execution model is BSP: each iteration every active process
//! computes its share (its completion time follows the host's
//! time-varying availability exactly, via `simkit::Timeline::advance`),
//! then all processes exchange data over the single shared link, then the
//! strategy gets a chance to adapt. Application startup costs
//! 0.75 s/process over *all allocated* processes — which is how
//! over-allocation is priced ("an over-allocation of 30 processors adds
//! approximately 20 seconds to the application startup time").
//!
//! [`runner`] replicates runs over seeds — one [`Replication`] request
//! per strategy — and aggregates the statistics the figure harnesses
//! print.

#![warn(missing_docs)]

pub mod app;
pub mod crossval;
pub mod exec;
pub mod gantt;
pub mod platform;
pub mod protocol;
pub mod runner;
pub mod schedule;
pub mod strategies;

pub use app::AppSpec;
pub use exec::{IterationRecord, RunResult};
pub use platform::{Host, LoadSpec, Platform, PlatformSpec};
pub use runner::{Replication, Summary};
pub use strategies::{Cr, Dlb, DlbSwap, Nothing, Strategy, Swap};
