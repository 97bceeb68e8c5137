//! # minimpi — an in-process MPI-like runtime with live process swapping
//!
//! The paper's mechanism (described in §3 and in the companion tech
//! report) runs on MPICH 1.2.4 with real processes on a LAN. An
//! open-source Rust reproduction cannot launch real multi-host MPI jobs
//! (the `rsmpi` ecosystem is thin and process swapping is outside MPI-1
//! semantics anyway), so this crate provides the closest executable
//! equivalent: **an in-process, thread-per-rank message-passing runtime**
//! with the same moving parts —
//!
//! * **over-allocation** — `n_workers` ranks are launched but only
//!   `n_active` compute; spares block idle on a control channel ("spare
//!   processors are left idle (i.e. blocking on an I/O call)");
//! * **communicators** — application communication is addressed to
//!   stable logical *slots* (the private "active" communicator), so the
//!   application never sees which physical worker executes a slot;
//! * **`swap_register()`** — application state lives in a serializable
//!   [`state::Registry`] (or any serde type), transferred byte-for-byte
//!   on swap, exactly like the paper's registered static variables;
//! * **`MPI_Swap()`** — the end-of-iteration swap point is a full
//!   barrier: every active rank reports its measured performance to the
//!   **swap manager** thread, which runs a `swap-core` policy and orders
//!   exchanges; the displaced process's state and communicator endpoints
//!   move to the spare, which resumes the iteration loop in its place;
//! * **synthetic load injection** — a [`load::LoadInjector`] slows
//!   workers according to a `loadmodel` trace (sleeping `k×` the pure
//!   compute time under `k` competitors), so swaps actually fire in the
//!   examples and tests.
//!
//! The decision path — measure, predict through a history window, gate
//! through payback/improvement thresholds, swap slowest-active for
//! fastest-spare — is byte-identical to the simulator's: both decide
//! through `swap_core::ManagerCore`.

#![warn(missing_docs)]

pub mod app;
pub mod apps;
pub mod collective;
pub mod comm;
pub mod load;
pub mod msg;
pub mod nonblocking;
pub mod report;
pub mod runtime;
pub mod state;

pub use app::IterativeApp;
pub use comm::{Router, SlotComm};
pub use load::LoadInjector;
pub use report::{RunReport, SwapEvent};
pub use runtime::{run_iterative, Decider, RuntimeConfig};
pub use state::Registry;
