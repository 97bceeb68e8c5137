//! The decision core every swap manager shares (§3): a performance
//! history per processor, each one's prediction under the policy, and the
//! engine's verdict. The simulator's manager and the live runtime's
//! manager thread measure differently but decide through one
//! [`ManagerCore`]; each emits its own audit event for the decision.

use crate::decision::{DecisionEngine, ProcessorSnapshot, SwapDecision};
use crate::history::PerfHistory;
use crate::payback::SwapCost;
use crate::policy::PolicyParams;

/// The performance history of each processor `0..n`, and the decision
/// engine that reads them.
///
/// ```
/// use swap_core::{ManagerCore, PolicyParams, SwapCost};
///
/// let cost = SwapCost::new(1e-4, 6e6);
/// let mut core = ManagerCore::new(3, Some(PolicyParams::greedy()), cost, None);
/// core.record(0, 60.0, 1.5e8); // loaded
/// core.record(1, 60.0, 3.0e8);
/// core.record(2, 60.0, 3.2e8); // idle spare
/// // 60 s iterations, 1 MB of process state:
/// let decision = core
///     .decide([(0, true), (1, true), (2, false)], 60.0, 60.0, 1e6)
///     .expect("a core with a policy decides");
/// assert_eq!((decision.pairs[0].from, decision.pairs[0].to), (0, 2));
/// ```
#[derive(Clone, Debug)]
pub struct ManagerCore {
    /// `None` for a manager that keeps histories but picks its swaps
    /// some other way.
    engine: Option<DecisionEngine>,
    /// Indexed by processor id.
    histories: Vec<PerfHistory>,
    /// Every listed processor's prediction at the last decision point,
    /// in the order listed (reused across decision points: the
    /// simulator's replication hot path runs thousands of them).
    snapshots: Vec<ProcessorSnapshot>,
}

impl ManagerCore {
    /// A core for processors `0..n_procs`. With a policy it decides
    /// under that policy at `cost`, admitting at most `max_swaps`
    /// exchanges per decision point when given; without one it only
    /// keeps histories and [`ManagerCore::decide`] answers `None`.
    pub fn new(
        n_procs: usize,
        policy: Option<PolicyParams>,
        cost: SwapCost,
        max_swaps: Option<usize>,
    ) -> Self {
        let engine = policy.map(|policy| {
            let engine = DecisionEngine::new(policy, cost);
            match max_swaps {
                Some(max) => engine.with_max_swaps(max),
                None => engine,
            }
        });
        ManagerCore {
            engine,
            histories: vec![PerfHistory::new(); n_procs],
            snapshots: Vec::new(),
        }
    }

    /// Records a performance measurement of processor `id` taken at `t`.
    #[inline]
    pub fn record(&mut self, id: usize, t: f64, value: f64) {
        self.histories[id].record(t, value);
    }

    /// Processor `id`'s measurements.
    pub fn history(&self, id: usize) -> &PerfHistory {
        &self.histories[id]
    }

    /// Decision point at `now`: predicts each listed `(id, active)`
    /// processor under the policy's predictor and history window, then
    /// asks the engine which exchanges pay back after an iteration of
    /// `iter_time` seconds with `state_bytes` of state per process.
    /// `None` when the core has no policy.
    ///
    /// # Panics
    /// Panics if a listed processor has no measurement.
    pub fn decide(
        &mut self,
        procs: impl IntoIterator<Item = (usize, bool)>,
        now: f64,
        iter_time: f64,
        state_bytes: f64,
    ) -> Option<SwapDecision> {
        let engine = self.engine.as_ref()?;
        let PolicyParams {
            predictor, history, ..
        } = *engine.policy();
        let histories = &self.histories;
        self.snapshots.clear();
        self.snapshots.extend(procs.into_iter().map(|(id, active)| {
            ProcessorSnapshot {
                id,
                active,
                predicted_perf: histories[id]
                    .predict(predictor, history, now)
                    .expect("a listed processor has a measurement"),
            }
        }));
        Some(engine.decide(&self.snapshots, iter_time, state_bytes))
    }

    /// The predictions of the last decision point, in the order listed.
    pub fn snapshots(&self) -> &[ProcessorSnapshot] {
        &self.snapshots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{HistoryWindow, Predictor};
    use proptest::prelude::*;

    #[test]
    fn without_a_policy_it_keeps_histories_but_never_decides() {
        let mut core = ManagerCore::new(2, None, SwapCost::new(1e-4, 6e6), None);
        core.record(0, 1.0, 10.0);
        core.record(1, 1.0, 20.0);
        assert_eq!(core.decide([(0, true), (1, false)], 1.0, 1.0, 1e6), None);
        assert_eq!(core.history(1).last(), Some((1.0, 20.0)));
        assert!(core.snapshots().is_empty());
    }

    proptest! {
        /// The core decides exactly as the engine over snapshots built by
        /// hand from `PerfHistory::predict`, and listing the processors
        /// in another order (the runtime lists actives then spares, the
        /// simulator its pool order) changes nothing.
        #[test]
        fn prop_core_matches_hand_built_snapshots_in_any_order(
            n in 1usize..9,
            samples in proptest::collection::vec((0.0f64..30.0, 0.5f64..100.0), 8..60),
            owners in proptest::collection::vec(0usize..9, 60..61),
            listed in proptest::collection::vec((any::<bool>(), any::<bool>()), 9..10),
            keys in proptest::collection::vec(any::<u32>(), 9..10),
            base in prop::sample::select(vec![
                PolicyParams::greedy(),
                PolicyParams::safe(),
                PolicyParams::friendly(),
            ]),
            predictor in prop::sample::select(vec![
                Predictor::LastValue,
                Predictor::WindowedMean,
                Predictor::WindowedMedian,
                Predictor::Ewma(0.3),
                Predictor::Nws,
                Predictor::TimeWeightedMean,
            ]),
            window in prop::sample::select(vec![0.0, 10.0, 40.0, 300.0]),
            max_swaps in prop::sample::select(vec![None, Some(1), Some(2)]),
            iter_time in 1.0f64..600.0,
            state in prop::sample::select(vec![1e3, 1e6, 1e9]),
        ) {
            let policy = PolicyParams {
                history: HistoryWindow::seconds(window),
                predictor,
                ..base
            };
            let cost = SwapCost::new(1e-4, 6e6);
            let mut core = ManagerCore::new(n, Some(policy), cost, max_swaps);
            let mut hand = vec![PerfHistory::new(); n];
            // Every processor gets a sample at t = 0, then each further
            // sample goes to a random processor at a later time.
            let mut now = 0.0;
            for (k, &(dt, value)) in samples.iter().enumerate() {
                let id = if k < n { k } else { owners[k] % n };
                now += if k < n { 0.0 } else { dt };
                core.record(id, now, value);
                hand[id].record(now, value);
            }
            // A random subset of the processors, each active or spare.
            let procs: Vec<(usize, bool)> = (0..n)
                .filter(|&id| listed[id].0)
                .map(|id| (id, listed[id].1))
                .collect();

            let snapshots: Vec<ProcessorSnapshot> = procs
                .iter()
                .map(|&(id, active)| ProcessorSnapshot {
                    id,
                    active,
                    predicted_perf: hand[id]
                        .predict(predictor, policy.history, now)
                        .expect("every processor was measured"),
                })
                .collect();
            let mut engine = DecisionEngine::new(policy, cost);
            if let Some(max) = max_swaps {
                engine = engine.with_max_swaps(max);
            }
            let expected = engine.decide(&snapshots, iter_time, state);

            prop_assert_eq!(
                core.decide(procs.iter().copied(), now, iter_time, state),
                Some(expected.clone())
            );
            prop_assert_eq!(core.snapshots(), &snapshots[..]);

            let mut permuted = procs.clone();
            permuted.sort_by_key(|&(id, _)| keys[id]);
            prop_assert_eq!(
                core.decide(permuted, now, iter_time, state),
                Some(expected)
            );
        }
    }
}
