//! # simkit — discrete-event simulation substrate
//!
//! This crate is the simulation substrate for the reproduction of
//! *Policies for Swapping MPI Processes* (Sievert & Casanova, HPDC 2003).
//! The paper's study was performed with the SimGrid toolkit; `simkit`
//! re-implements the slice of SimGrid that the study needs:
//!
//! * a deterministic **discrete-event engine** ([`engine::Engine`]) with a
//!   stable event ordering,
//! * **piecewise-constant timelines** ([`timeline::Timeline`]) describing
//!   time-varying resource availability, with exact integration and
//!   inversion (turning an amount of work into a completion instant),
//! * a **CPU model** ([`cpu::Cpu`]) whose delivered speed degrades as
//!   `1/(1+k)` under `k` competing processes (standard time-sharing model),
//! * a **shared-link model** ([`link::SharedLink`], [`link::FluidLink`])
//!   with latency/bandwidth semantics and fluid max–min fair sharing among
//!   concurrent flows,
//! * seeded **RNG plumbing** ([`rng`]) so every simulation is reproducible,
//! * a deterministic **parallel map** ([`par::par_map`]) used by the
//!   experiment engine to fan replications out over worker threads
//!   without perturbing results,
//! * a persistent **worker pool** ([`pool::WorkerPool`]) serving one
//!   priority-ordered work queue, so many sweeps — even from concurrent
//!   figures — share a single set of workers with no per-sweep spawn
//!   cost or barrier,
//! * a concurrent **compute-once memo cache** ([`cache::MemoCache`])
//!   so replicated experiments that re-derive identical pure inputs
//!   (realized platforms, fault schedules) build each one exactly once.
//!
//! Everything is pure, single-threaded and deterministic: the same seed and
//! parameters always produce bit-identical results, which is what makes the
//! back-to-back policy comparisons in the paper (and in `simulator`)
//! meaningful.

#![warn(missing_docs)]

pub mod cache;
pub mod cpu;
pub mod engine;
pub mod event;
pub mod link;
pub mod par;
pub mod pool;
pub mod rng;
pub mod time;
pub mod timeline;

pub use cpu::Cpu;
pub use engine::Engine;
pub use event::{EventId, EventQueue};
pub use link::{FluidLink, SharedLink};
pub use time::SimTime;
pub use timeline::{Cursor, Timeline};
