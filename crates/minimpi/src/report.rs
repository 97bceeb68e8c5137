//! Run reports: what a runtime execution produced.

use serde::{Deserialize, Serialize};

/// One swap performed by the manager.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SwapEvent {
    /// Iteration after which the swap happened.
    pub iter: usize,
    /// The logical slot that moved.
    pub slot: usize,
    /// Physical worker the process left.
    pub from_worker: usize,
    /// Physical worker the process moved to.
    pub to_worker: usize,
    /// Payback distance the decision engine computed for this exchange
    /// (iterations), when a policy made the call (forced swaps report 0).
    pub payback: f64,
}

/// Per-iteration timing observed by the swap manager.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Iterations completed when this round's reports arrived.
    pub iter: usize,
    /// Slowest slot's iteration wall time this round, seconds.
    pub max_iter_secs: f64,
    /// Slot→worker placement *during* this iteration.
    pub placement: Vec<usize>,
}

/// The outcome of [`crate::runtime::run_iterative`].
#[derive(Debug)]
pub struct RunReport<S> {
    /// Final state of each logical slot, in slot order.
    pub final_states: Vec<S>,
    /// Iterations executed (same on every slot).
    pub iterations_run: usize,
    /// Every swap the manager ordered, in time order.
    pub swap_events: Vec<SwapEvent>,
    /// Which physical worker held each slot at the end.
    pub final_placement: Vec<usize>,
    /// Wall-clock duration of the whole run.
    pub wall_time: std::time::Duration,
    /// Per-iteration timings and placements, in iteration order.
    pub rounds: Vec<RoundRecord>,
    /// True when a crashed or evicted active worker found no spare left:
    /// the run stopped at that barrier, after `iterations_run`
    /// iterations, with each slot's state as of that barrier.
    pub truncated: bool,
}

impl<S> RunReport<S> {
    /// Number of swaps performed.
    pub fn swap_count(&self) -> usize {
        self.swap_events.len()
    }

    /// Mean of the per-round slowest-slot iteration times, seconds.
    pub fn mean_iteration_secs(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.max_iter_secs).sum::<f64>() / self.rounds.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_count_and_activity() {
        let report = RunReport {
            final_states: vec![0u8, 1],
            iterations_run: 5,
            swap_events: vec![SwapEvent {
                iter: 2,
                slot: 1,
                from_worker: 1,
                to_worker: 3,
                payback: 0.5,
            }],
            final_placement: vec![0, 3],
            wall_time: std::time::Duration::from_millis(1),
            rounds: vec![
                RoundRecord {
                    iter: 1,
                    max_iter_secs: 0.25,
                    placement: vec![0, 1],
                },
                RoundRecord {
                    iter: 2,
                    max_iter_secs: 0.75,
                    placement: vec![0, 1],
                },
            ],
            truncated: false,
        };
        assert_eq!(report.swap_count(), 1);
        assert!((report.mean_iteration_secs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_rounds_give_zero_mean() {
        let report: RunReport<u8> = RunReport {
            final_states: vec![],
            iterations_run: 0,
            swap_events: vec![],
            final_placement: vec![],
            wall_time: std::time::Duration::ZERO,
            rounds: vec![],
            truncated: false,
        };
        assert_eq!(report.mean_iteration_secs(), 0.0);
    }
}
