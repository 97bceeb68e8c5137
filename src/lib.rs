//! # mpi-swap — facade crate
//!
//! Re-exports the whole workspace behind one dependency. See the README
//! for the architecture overview and `DESIGN.md` for the paper mapping.
//!
//! * [`swap_core`] — policies, payback algebra, decision engine (the
//!   paper's contribution).
//! * [`simkit`] — fluid simulation substrate: timelines, CPU and link
//!   models, an event queue, the worker pool.
//! * [`loadmodel`] — ON/OFF and hyperexponential CPU load models.
//! * [`faults`] — deterministic fault injection: crash/blackout/link
//!   schedules, correlated rack shocks, per-host MTBF spread.
//! * [`policy`] — the decision layer: the named spare-placement and
//!   checkpoint-interval policies the strategies consult.
//! * [`minimpi`] — in-process MPI-like runtime with live process swapping.
//! * [`simulator`] — platform/application models and the four execution
//!   strategies (NOTHING, SWAP, DLB, CR) plus the experiment runner.

pub use faults;
pub use loadmodel;
pub use minimpi;
pub use obs;
pub use policy;
pub use simkit;
pub use simulator;
pub use swap_core;
