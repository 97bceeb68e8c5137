//! The swap manager's decision engine.
//!
//! "All three policies, when they decide to swap, swap the slowest active
//! processor(s) for the fastest inactive processor(s)." The engine pairs
//! candidates in that order and admits each pair only if it clears every
//! policy gate: strict per-process improvement, payback distance within
//! the threshold, and (cumulatively) whole-application improvement.

use crate::metrics::{bottleneck_perf, improvement};
use crate::payback::{payback_distance, SwapCost};
use crate::policy::PolicyParams;
use serde::{Deserialize, Serialize};

/// The decision engine's view of one processor at a decision point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProcessorSnapshot {
    /// Stable processor identifier.
    pub id: usize,
    /// Whether an application process currently runs here.
    pub active: bool,
    /// Predicted near-future performance (any consistent rate unit, e.g.
    /// delivered flop/s), as produced by the policy's predictor over its
    /// history window.
    pub predicted_perf: f64,
}

/// One admitted exchange: move the process on `from` to the spare `to`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SwapPair {
    /// Active processor losing its process.
    pub from: usize,
    /// Spare processor receiving it.
    pub to: usize,
    /// Predicted performance at `from` (the "old performance").
    pub old_perf: f64,
    /// Predicted performance at `to` (the "new performance").
    pub new_perf: f64,
    /// Payback distance of this exchange, iterations.
    pub payback: f64,
    /// Fractional per-process gain `(new − old)/old`.
    pub process_improvement: f64,
}

/// The first candidate exchange a gate refused, recorded so audits can
/// show *why* a decision point held (the rejected pair's payback inputs
/// mirror [`SwapPair`]'s admitted ones).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RejectedSwap {
    /// Active processor that would have lost its process.
    pub from: usize,
    /// Spare processor that would have received it.
    pub to: usize,
    /// Predicted performance at `from`.
    pub old_perf: f64,
    /// Predicted performance at `to`.
    pub new_perf: f64,
    /// Fractional per-process gain `(new − old)/old`.
    pub process_improvement: f64,
    /// Payback distance in iterations, when the evaluation got far
    /// enough to compute it (`None` when an earlier gate fired first or
    /// the measurement was degenerate).
    pub payback: Option<f64>,
}

/// Why the engine stopped admitting pairs at a decision point.
///
/// Pairs are considered best-first, so the first rejection ends the
/// round; this records which gate fired (or why no pairing was possible
/// at all).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// No active process or no spare processor to pair.
    NoCandidates,
    /// The best remaining spare is not faster than the slowest remaining
    /// active processor (or a degenerate non-positive measurement).
    NoImprovement,
    /// The per-process gain did not clear `min_process_improvement`
    /// ("swapping stiction").
    ProcessGateFailed,
    /// The payback distance fell outside `[0, payback_threshold]`.
    PaybackGateFailed,
    /// The cumulative application improvement did not clear
    /// `min_app_improvement` ("don't hoard fast processors").
    AppGateFailed,
    /// The per-decision swap cap was reached.
    CapReached,
    /// Every pairable candidate was admitted.
    Exhausted,
}

impl StopReason {
    /// Stable machine-readable key (metric label / JSON-friendly).
    pub fn key(&self) -> &'static str {
        match self {
            StopReason::NoCandidates => "no_candidates",
            StopReason::NoImprovement => "no_improvement",
            StopReason::ProcessGateFailed => "process_gate",
            StopReason::PaybackGateFailed => "payback_gate",
            StopReason::AppGateFailed => "app_gate",
            StopReason::CapReached => "cap_reached",
            StopReason::Exhausted => "exhausted",
        }
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StopReason::NoCandidates => "no active/spare candidates",
            StopReason::NoImprovement => "best spare no faster than slowest active",
            StopReason::ProcessGateFailed => "below minimum process improvement",
            StopReason::PaybackGateFailed => "payback distance outside threshold",
            StopReason::AppGateFailed => "below minimum application improvement",
            StopReason::CapReached => "per-decision swap cap reached",
            StopReason::Exhausted => "all candidate pairs admitted",
        };
        f.write_str(s)
    }
}

/// The outcome of one decision point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SwapDecision {
    /// Admitted exchanges, best-first. Empty means "do not swap".
    pub pairs: Vec<SwapPair>,
    /// Predicted fractional whole-application improvement if all pairs are
    /// applied (`1 − old_bottleneck/new_bottleneck` in time terms).
    pub app_improvement: f64,
    /// Which gate ended the round — the explanation of why no further
    /// (or no) swaps were admitted.
    pub stopped_because: StopReason,
    /// The candidate pair the stopping gate refused, when one was under
    /// evaluation (absent for `NoCandidates`, `CapReached`, `Exhausted`).
    #[serde(default)]
    pub rejected: Option<RejectedSwap>,
}

impl SwapDecision {
    /// A decision to do nothing.
    pub fn none() -> Self {
        SwapDecision {
            pairs: Vec::new(),
            app_improvement: 0.0,
            stopped_because: StopReason::NoCandidates,
            rejected: None,
        }
    }

    /// True when at least one swap was admitted.
    pub fn will_swap(&self) -> bool {
        !self.pairs.is_empty()
    }
}

/// Applies a [`PolicyParams`] to processor snapshots and produces swap
/// decisions.
///
/// ```
/// use swap_core::{DecisionEngine, PolicyParams, ProcessorSnapshot, SwapCost};
///
/// let engine = DecisionEngine::new(PolicyParams::greedy(), SwapCost::new(1e-4, 6e6));
/// let procs = [
///     ProcessorSnapshot { id: 0, active: true,  predicted_perf: 1.5e8 }, // loaded
///     ProcessorSnapshot { id: 1, active: true,  predicted_perf: 3.0e8 },
///     ProcessorSnapshot { id: 2, active: false, predicted_perf: 3.2e8 }, // idle spare
/// ];
/// // 60 s iterations, 1 MB of process state:
/// let decision = engine.decide(&procs, 60.0, 1e6);
/// assert!(decision.will_swap());
/// assert_eq!((decision.pairs[0].from, decision.pairs[0].to), (0, 2));
/// assert!(decision.pairs[0].payback < 0.01); // 1 MB swaps amortize instantly
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DecisionEngine {
    policy: PolicyParams,
    cost: SwapCost,
    /// Optional cap on exchanges per decision point (`None` = as many as
    /// the policy admits; `Some(1)` reproduces single-swap ablations).
    max_swaps_per_decision: Option<usize>,
}

impl DecisionEngine {
    /// Creates an engine for the given policy and swap-cost model.
    pub fn new(policy: PolicyParams, cost: SwapCost) -> Self {
        DecisionEngine {
            policy,
            cost,
            max_swaps_per_decision: None,
        }
    }

    /// Limits the number of exchanges admitted per decision point.
    pub fn with_max_swaps(mut self, max: usize) -> Self {
        assert!(max >= 1, "cap must admit at least one swap");
        self.max_swaps_per_decision = Some(max);
        self
    }

    /// The policy in force.
    pub fn policy(&self) -> &PolicyParams {
        &self.policy
    }

    /// The swap-cost model in force.
    pub fn cost(&self) -> &SwapCost {
        &self.cost
    }

    /// Decides which swaps (if any) to perform.
    ///
    /// * `procs` — snapshots of every allocated processor (active and
    ///   spare) with predicted performance.
    /// * `old_iter_time` — the application's current iteration time in
    ///   seconds (denominator of the payback distance).
    /// * `process_size_bytes` — per-process state size to transfer.
    ///
    /// Pairs are considered slowest-active-first against
    /// fastest-spare-first; evaluation stops at the first rejected pair
    /// (later pairs are strictly less attractive by construction).
    pub fn decide(
        &self,
        procs: &[ProcessorSnapshot],
        old_iter_time: f64,
        process_size_bytes: f64,
    ) -> SwapDecision {
        assert!(old_iter_time > 0.0, "iteration time must be positive");
        let swap_time = self.cost.swap_time(process_size_bytes);

        let mut active: Vec<&ProcessorSnapshot> = procs.iter().filter(|p| p.active).collect();
        let mut spares: Vec<&ProcessorSnapshot> = procs.iter().filter(|p| !p.active).collect();
        if active.is_empty() || spares.is_empty() {
            return SwapDecision::none();
        }
        // Slowest active first; ties broken by id for determinism.
        active.sort_by(|a, b| {
            a.predicted_perf
                .total_cmp(&b.predicted_perf)
                .then(a.id.cmp(&b.id))
        });
        // Fastest spare first. At most one spare per active process is
        // paired, so only that many are selected and sorted; the order is
        // total, so they are the ones a full sort would put first.
        let fastest_first = |a: &&ProcessorSnapshot, b: &&ProcessorSnapshot| {
            b.predicted_perf
                .total_cmp(&a.predicted_perf)
                .then(a.id.cmp(&b.id))
        };
        if spares.len() > active.len() {
            spares.select_nth_unstable_by(active.len(), fastest_first);
            spares.truncate(active.len());
        }
        spares.sort_by(fastest_first);

        let cap = self.max_swaps_per_decision.unwrap_or(usize::MAX);
        let mut pairs: Vec<SwapPair> = Vec::new();
        // Performance multiset of the active set as swaps are applied, for
        // the cumulative application-improvement gate.
        let mut applied_perfs: Vec<f64> = active.iter().map(|p| p.predicted_perf).collect();
        let original_bottleneck = bottleneck_perf(&applied_perfs);
        let mut stopped_because = StopReason::Exhausted;
        let mut rejected: Option<RejectedSwap> = None;
        let refusal = |slow: &ProcessorSnapshot, fast: &ProcessorSnapshot, payback| RejectedSwap {
            from: slow.id,
            to: fast.id,
            old_perf: slow.predicted_perf,
            new_perf: fast.predicted_perf,
            process_improvement: improvement(slow.predicted_perf, fast.predicted_perf),
            payback,
        };

        for (k, (slow, fast)) in active.iter().zip(spares.iter()).enumerate() {
            if pairs.len() >= cap {
                stopped_because = StopReason::CapReached;
                break;
            }
            let old = slow.predicted_perf;
            let new = fast.predicted_perf;
            if old <= 0.0 || new <= 0.0 {
                // Degenerate measurement; refuse to extrapolate.
                stopped_because = StopReason::NoImprovement;
                rejected = Some(refusal(slow, fast, None));
                break;
            }

            // Gate 1: strict per-process improvement above the threshold.
            let proc_gain = improvement(old, new);
            if proc_gain <= self.policy.min_process_improvement {
                stopped_because = if proc_gain <= 0.0 {
                    StopReason::NoImprovement
                } else {
                    StopReason::ProcessGateFailed
                };
                rejected = Some(refusal(slow, fast, None));
                break;
            }

            // Gate 2: payback distance within the policy threshold.
            let payback = payback_distance(swap_time, old_iter_time, old, new);
            if !(0.0..=self.policy.payback_threshold).contains(&payback) {
                stopped_because = StopReason::PaybackGateFailed;
                rejected = Some(refusal(slow, fast, payback.is_finite().then_some(payback)));
                break;
            }

            // Gate 3 (cumulative): whole-application improvement.
            // With equal work partitions the application rate is set by
            // the slowest active processor; in time terms the improvement
            // is 1 − old_bottleneck/new_bottleneck. The new bottleneck is
            // the minimum of the applied perfs with this pair applied,
            // folded in the same order as `bottleneck_perf`.
            let new_bottleneck = applied_perfs
                .iter()
                .enumerate()
                .fold(f64::INFINITY, |m, (j, &p)| {
                    m.min(if j == k { new } else { p })
                });
            let app_gain = if new_bottleneck > 0.0 {
                1.0 - original_bottleneck / new_bottleneck
            } else {
                0.0
            };
            if self.policy.min_app_improvement > 0.0 && app_gain <= self.policy.min_app_improvement
            {
                stopped_because = StopReason::AppGateFailed;
                rejected = Some(refusal(slow, fast, payback.is_finite().then_some(payback)));
                break;
            }

            applied_perfs[k] = new;
            pairs.push(SwapPair {
                from: slow.id,
                to: fast.id,
                old_perf: old,
                new_perf: new,
                payback,
                process_improvement: proc_gain,
            });
        }

        if pairs.is_empty() {
            return SwapDecision {
                stopped_because,
                rejected,
                ..SwapDecision::none()
            };
        }
        let final_bottleneck = bottleneck_perf(&applied_perfs);
        SwapDecision {
            pairs,
            app_improvement: 1.0 - original_bottleneck / final_bottleneck,
            stopped_because,
            rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyParams;
    use proptest::prelude::*;

    fn snap(id: usize, active: bool, perf: f64) -> ProcessorSnapshot {
        ProcessorSnapshot {
            id,
            active,
            predicted_perf: perf,
        }
    }

    fn cheap_cost() -> SwapCost {
        SwapCost::new(0.0, 1e9) // ~free swaps: isolates the policy gates
    }

    /// The full-sort form of `DecisionEngine::decide`: every spare
    /// sorted, the candidate perfs cloned for each pair. The reference
    /// that partial spare selection must decide exactly as.
    fn full_sort_decide(
        engine: &DecisionEngine,
        procs: &[ProcessorSnapshot],
        old_iter_time: f64,
        process_size_bytes: f64,
    ) -> SwapDecision {
        assert!(old_iter_time > 0.0, "iteration time must be positive");
        let swap_time = engine.cost.swap_time(process_size_bytes);

        let mut active: Vec<&ProcessorSnapshot> = procs.iter().filter(|p| p.active).collect();
        let mut spares: Vec<&ProcessorSnapshot> = procs.iter().filter(|p| !p.active).collect();
        if active.is_empty() || spares.is_empty() {
            return SwapDecision::none();
        }
        // Slowest active first; ties broken by id for determinism.
        active.sort_by(|a, b| {
            a.predicted_perf
                .total_cmp(&b.predicted_perf)
                .then(a.id.cmp(&b.id))
        });
        // Fastest spare first.
        spares.sort_by(|a, b| {
            b.predicted_perf
                .total_cmp(&a.predicted_perf)
                .then(a.id.cmp(&b.id))
        });

        let original_bottleneck =
            bottleneck_perf(&active.iter().map(|p| p.predicted_perf).collect::<Vec<_>>());

        let cap = engine.max_swaps_per_decision.unwrap_or(usize::MAX);
        let mut pairs: Vec<SwapPair> = Vec::new();
        // Performance multiset of the active set as swaps are applied, for
        // the cumulative application-improvement gate.
        let mut applied_perfs: Vec<f64> = active.iter().map(|p| p.predicted_perf).collect();
        let mut stopped_because = StopReason::Exhausted;
        let mut rejected: Option<RejectedSwap> = None;
        let refusal = |slow: &ProcessorSnapshot, fast: &ProcessorSnapshot, payback| RejectedSwap {
            from: slow.id,
            to: fast.id,
            old_perf: slow.predicted_perf,
            new_perf: fast.predicted_perf,
            process_improvement: improvement(slow.predicted_perf, fast.predicted_perf),
            payback,
        };

        for (k, (slow, fast)) in active.iter().zip(spares.iter()).enumerate() {
            if pairs.len() >= cap {
                stopped_because = StopReason::CapReached;
                break;
            }
            let old = slow.predicted_perf;
            let new = fast.predicted_perf;
            if old <= 0.0 || new <= 0.0 {
                // Degenerate measurement; refuse to extrapolate.
                stopped_because = StopReason::NoImprovement;
                rejected = Some(refusal(slow, fast, None));
                break;
            }

            // Gate 1: strict per-process improvement above the threshold.
            let proc_gain = improvement(old, new);
            if proc_gain <= engine.policy.min_process_improvement {
                stopped_because = if proc_gain <= 0.0 {
                    StopReason::NoImprovement
                } else {
                    StopReason::ProcessGateFailed
                };
                rejected = Some(refusal(slow, fast, None));
                break;
            }

            // Gate 2: payback distance within the policy threshold.
            let payback = payback_distance(swap_time, old_iter_time, old, new);
            if !(0.0..=engine.policy.payback_threshold).contains(&payback) {
                stopped_because = StopReason::PaybackGateFailed;
                rejected = Some(refusal(slow, fast, payback.is_finite().then_some(payback)));
                break;
            }

            // Gate 3 (cumulative): whole-application improvement.
            // With equal work partitions the application rate is set by
            // the slowest active processor; in time terms the improvement
            // is 1 − old_bottleneck/new_bottleneck.
            let mut candidate_perfs = applied_perfs.clone();
            candidate_perfs[k] = new;
            let new_bottleneck = bottleneck_perf(&candidate_perfs);
            let app_gain = if new_bottleneck > 0.0 {
                1.0 - original_bottleneck / new_bottleneck
            } else {
                0.0
            };
            if engine.policy.min_app_improvement > 0.0
                && app_gain <= engine.policy.min_app_improvement
            {
                stopped_because = StopReason::AppGateFailed;
                rejected = Some(refusal(slow, fast, payback.is_finite().then_some(payback)));
                break;
            }

            applied_perfs = candidate_perfs;
            pairs.push(SwapPair {
                from: slow.id,
                to: fast.id,
                old_perf: old,
                new_perf: new,
                payback,
                process_improvement: proc_gain,
            });
        }

        if pairs.is_empty() {
            return SwapDecision {
                stopped_because,
                rejected,
                ..SwapDecision::none()
            };
        }
        let final_bottleneck = bottleneck_perf(&applied_perfs);
        SwapDecision {
            pairs,
            app_improvement: 1.0 - original_bottleneck / final_bottleneck,
            stopped_because,
            rejected,
        }
    }

    #[test]
    fn greedy_swaps_on_any_improvement() {
        let eng = DecisionEngine::new(PolicyParams::greedy(), cheap_cost());
        let procs = vec![snap(0, true, 10.0), snap(1, false, 10.5)];
        let d = eng.decide(&procs, 60.0, 1e6);
        assert!(d.will_swap());
        assert_eq!(d.pairs[0].from, 0);
        assert_eq!(d.pairs[0].to, 1);
    }

    #[test]
    fn no_swap_when_spare_is_slower() {
        let eng = DecisionEngine::new(PolicyParams::greedy(), cheap_cost());
        let procs = vec![snap(0, true, 10.0), snap(1, false, 5.0)];
        assert!(!eng.decide(&procs, 60.0, 1e6).will_swap());
    }

    #[test]
    fn no_swap_on_equal_performance() {
        let eng = DecisionEngine::new(PolicyParams::greedy(), cheap_cost());
        let procs = vec![snap(0, true, 10.0), snap(1, false, 10.0)];
        assert!(!eng.decide(&procs, 60.0, 1e6).will_swap());
    }

    #[test]
    fn safe_rejects_small_gains() {
        let eng = DecisionEngine::new(PolicyParams::safe(), cheap_cost());
        // 10% gain: below the safe policy's 20% stiction threshold.
        let procs = vec![snap(0, true, 10.0), snap(1, false, 11.0)];
        assert!(!eng.decide(&procs, 60.0, 1e6).will_swap());
        // 50% gain passes.
        let procs = vec![snap(0, true, 10.0), snap(1, false, 15.0)];
        assert!(eng.decide(&procs, 60.0, 1e6).will_swap());
    }

    #[test]
    fn safe_rejects_long_payback() {
        // Swap time 100 s, iteration 10 s, speedup 2×:
        // payback = (100/10)/(1−0.5) = 20 iterations >> 0.5 threshold.
        let eng = DecisionEngine::new(PolicyParams::safe(), SwapCost::new(0.0, 1e7));
        let procs = vec![snap(0, true, 10.0), snap(1, false, 20.0)];
        let d = eng.decide(&procs, 10.0, 1e9);
        assert!(!d.will_swap());
        // Greedy takes the same swap (infinite payback threshold).
        let eng = DecisionEngine::new(PolicyParams::greedy(), SwapCost::new(0.0, 1e7));
        assert!(eng.decide(&procs, 10.0, 1e9).will_swap());
    }

    #[test]
    fn friendly_requires_app_level_gain() {
        let eng = DecisionEngine::new(PolicyParams::friendly(), cheap_cost());
        // Two active: 10 and 30. Spare at 40. Swapping the slow one (10→40)
        // moves the bottleneck 10→30: app gain = 1 − 10/30 = 67% — allowed.
        let procs = vec![
            snap(0, true, 10.0),
            snap(1, true, 30.0),
            snap(2, false, 40.0),
        ];
        assert!(eng.decide(&procs, 60.0, 1e6).will_swap());

        // Now the other active processor is the bottleneck (5.0): swapping
        // the 10-unit process to the 40-unit spare leaves the app
        // bottleneck at 5.0 — zero app improvement, so friendly refuses
        // (it "does not needlessly hoard fast processors")...
        let procs = vec![
            snap(0, true, 10.0),
            snap(1, true, 5.0),
            snap(2, false, 40.0),
        ];
        let d = eng.decide(&procs, 60.0, 1e6);
        // ...until the 5.0 process itself is the slowest-active candidate,
        // which it is (sorted slowest first): 5→40 lifts the bottleneck to
        // 10 (the next-slowest), an app gain of 50%, so friendly takes it.
        assert!(d.will_swap());
        assert_eq!(d.pairs[0].from, 1);

        // But with only one spare and the bottleneck NOT improvable beyond
        // 2%, friendly refuses: both active at 10, spare at 10.1 — app gain
        // after swapping one of them is 0 (the other stays at 10).
        let procs = vec![
            snap(0, true, 10.0),
            snap(1, true, 10.0),
            snap(2, false, 10.1),
        ];
        assert!(!eng.decide(&procs, 60.0, 1e6).will_swap());
        // Greedy happily takes that same swap.
        let eng = DecisionEngine::new(PolicyParams::greedy(), cheap_cost());
        assert!(eng.decide(&procs, 60.0, 1e6).will_swap());
    }

    #[test]
    fn multiple_pairs_swap_slowest_for_fastest() {
        let eng = DecisionEngine::new(PolicyParams::greedy(), cheap_cost());
        let procs = vec![
            snap(0, true, 1.0),
            snap(1, true, 2.0),
            snap(2, true, 50.0),
            snap(3, false, 100.0),
            snap(4, false, 90.0),
            snap(5, false, 0.5),
        ];
        let d = eng.decide(&procs, 60.0, 1e6);
        assert_eq!(d.pairs.len(), 2);
        assert_eq!((d.pairs[0].from, d.pairs[0].to), (0, 3));
        assert_eq!((d.pairs[1].from, d.pairs[1].to), (1, 4));
        // Third pair (50 → 0.5) is a slowdown and is rejected.
    }

    #[test]
    fn max_swaps_cap_is_respected() {
        let eng = DecisionEngine::new(PolicyParams::greedy(), cheap_cost()).with_max_swaps(1);
        let procs = vec![
            snap(0, true, 1.0),
            snap(1, true, 2.0),
            snap(2, false, 100.0),
            snap(3, false, 90.0),
        ];
        let d = eng.decide(&procs, 60.0, 1e6);
        assert_eq!(d.pairs.len(), 1);
    }

    #[test]
    fn no_spares_means_no_swap() {
        let eng = DecisionEngine::new(PolicyParams::greedy(), cheap_cost());
        let procs = vec![snap(0, true, 1.0), snap(1, true, 2.0)];
        assert!(!eng.decide(&procs, 60.0, 1e6).will_swap());
    }

    #[test]
    fn app_improvement_reported_for_full_decision() {
        let eng = DecisionEngine::new(PolicyParams::greedy(), cheap_cost());
        let procs = vec![
            snap(0, true, 10.0),
            snap(1, true, 40.0),
            snap(2, false, 20.0),
        ];
        let d = eng.decide(&procs, 60.0, 1e6);
        assert!(d.will_swap());
        // Bottleneck 10 → 20: time improvement 1 − 10/20 = 50%.
        assert!((d.app_improvement - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stop_reasons_explain_each_gate() {
        // No spares.
        let eng = DecisionEngine::new(PolicyParams::greedy(), cheap_cost());
        let d = eng.decide(&[snap(0, true, 10.0)], 60.0, 1e6);
        assert_eq!(d.stopped_because, StopReason::NoCandidates);

        // Spare slower than active.
        let d = eng.decide(&[snap(0, true, 10.0), snap(1, false, 5.0)], 60.0, 1e6);
        assert_eq!(d.stopped_because, StopReason::NoImprovement);

        // Stiction: gain exists but below the threshold.
        let eng = DecisionEngine::new(PolicyParams::safe(), cheap_cost());
        let d = eng.decide(&[snap(0, true, 10.0), snap(1, false, 11.0)], 60.0, 1e6);
        assert_eq!(d.stopped_because, StopReason::ProcessGateFailed);

        // Payback too long.
        let eng = DecisionEngine::new(PolicyParams::safe(), SwapCost::new(0.0, 1e7));
        let d = eng.decide(&[snap(0, true, 10.0), snap(1, false, 20.0)], 10.0, 1e9);
        assert_eq!(d.stopped_because, StopReason::PaybackGateFailed);

        // App gate (friendly): two equal actives, one barely-faster spare.
        let eng = DecisionEngine::new(PolicyParams::friendly(), cheap_cost());
        let d = eng.decide(
            &[
                snap(0, true, 10.0),
                snap(1, true, 10.0),
                snap(2, false, 10.1),
            ],
            60.0,
            1e6,
        );
        assert_eq!(d.stopped_because, StopReason::AppGateFailed);

        // Cap.
        let eng = DecisionEngine::new(PolicyParams::greedy(), cheap_cost()).with_max_swaps(1);
        let d = eng.decide(
            &[
                snap(0, true, 1.0),
                snap(1, true, 2.0),
                snap(2, false, 10.0),
                snap(3, false, 9.0),
            ],
            60.0,
            1e6,
        );
        assert_eq!(d.stopped_because, StopReason::CapReached);
        assert_eq!(d.pairs.len(), 1);

        // Exhausted: every pairing admitted.
        let eng = DecisionEngine::new(PolicyParams::greedy(), cheap_cost());
        let d = eng.decide(&[snap(0, true, 1.0), snap(1, false, 10.0)], 60.0, 1e6);
        assert_eq!(d.stopped_because, StopReason::Exhausted);
        assert!(d.will_swap());
    }

    #[test]
    fn refused_candidate_is_recorded_with_payback_inputs() {
        // Payback gate: the candidate reached gate 2, so the rejected
        // record carries the computed payback distance.
        let eng = DecisionEngine::new(PolicyParams::safe(), SwapCost::new(0.0, 1e7));
        let d = eng.decide(&[snap(0, true, 10.0), snap(1, false, 20.0)], 10.0, 1e9);
        let r = d.rejected.expect("payback-gated candidate recorded");
        assert_eq!((r.from, r.to), (0, 1));
        assert_eq!((r.old_perf, r.new_perf), (10.0, 20.0));
        // payback = (100/10)/(1 − 10/20) = 20 iterations.
        assert!((r.payback.unwrap() - 20.0).abs() < 1e-9);

        // Stiction gate fires before the payback is computed.
        let eng = DecisionEngine::new(PolicyParams::safe(), cheap_cost());
        let d = eng.decide(&[snap(0, true, 10.0), snap(1, false, 11.0)], 60.0, 1e6);
        let r = d.rejected.expect("stiction-gated candidate recorded");
        assert!(r.payback.is_none());
        assert!((r.process_improvement - 0.1).abs() < 1e-12);

        // Nothing was refused when every pairing is admitted.
        let eng = DecisionEngine::new(PolicyParams::greedy(), cheap_cost());
        let d = eng.decide(&[snap(0, true, 1.0), snap(1, false, 10.0)], 60.0, 1e6);
        assert!(d.rejected.is_none());

        // ...or when there were no candidates at all.
        assert!(eng
            .decide(&[snap(0, true, 1.0)], 60.0, 1e6)
            .rejected
            .is_none());
    }

    #[test]
    fn stop_reason_keys_are_distinct() {
        let all = [
            StopReason::NoCandidates,
            StopReason::NoImprovement,
            StopReason::ProcessGateFailed,
            StopReason::PaybackGateFailed,
            StopReason::AppGateFailed,
            StopReason::CapReached,
            StopReason::Exhausted,
        ];
        let keys: std::collections::HashSet<_> = all.iter().map(|r| r.key()).collect();
        assert_eq!(keys.len(), all.len());
    }

    #[test]
    fn stop_reasons_render_human_text() {
        for r in [
            StopReason::NoCandidates,
            StopReason::NoImprovement,
            StopReason::ProcessGateFailed,
            StopReason::PaybackGateFailed,
            StopReason::AppGateFailed,
            StopReason::CapReached,
            StopReason::Exhausted,
        ] {
            assert!(!r.to_string().is_empty());
        }
    }

    #[test]
    fn ties_broken_by_id_for_determinism() {
        let eng = DecisionEngine::new(PolicyParams::greedy(), cheap_cost());
        let procs = vec![
            snap(3, true, 10.0),
            snap(1, true, 10.0),
            snap(7, false, 20.0),
            snap(5, false, 20.0),
        ];
        let d = eng.decide(&procs, 60.0, 1e6);
        assert_eq!((d.pairs[0].from, d.pairs[0].to), (1, 5));
    }

    proptest! {
        /// Whatever greedy rejects, safe rejects too (safe's gates are
        /// strictly tighter): the admitted swap *set* of safe is a subset
        /// of greedy's on identical snapshots.
        #[test]
        fn prop_safe_subset_of_greedy(
            perfs in proptest::collection::vec(1.0f64..100.0, 4..12),
            iter_time in 10.0f64..600.0,
            size in 1e3f64..1e8,
        ) {
            let n_active = perfs.len() / 2;
            let procs: Vec<ProcessorSnapshot> = perfs
                .iter()
                .enumerate()
                .map(|(i, &p)| snap(i, i < n_active, p))
                .collect();
            let cost = SwapCost::new(1e-4, 6e6);
            let greedy = DecisionEngine::new(PolicyParams::greedy(), cost)
                .decide(&procs, iter_time, size);
            let safe = DecisionEngine::new(PolicyParams::safe(), cost)
                .decide(&procs, iter_time, size);
            for pair in &safe.pairs {
                prop_assert!(
                    greedy.pairs.iter().any(|g| g.from == pair.from && g.to == pair.to),
                    "safe admitted {:?} that greedy did not", pair
                );
            }
        }

        /// Pairs never reuse a processor: all `from`s and `to`s are
        /// distinct, `from`s are active, `to`s are spares.
        #[test]
        fn prop_pairs_are_disjoint_and_well_typed(
            perfs in proptest::collection::vec(1.0f64..100.0, 4..16),
            iter_time in 10.0f64..600.0,
        ) {
            let n_active = perfs.len() / 2;
            let procs: Vec<ProcessorSnapshot> = perfs
                .iter()
                .enumerate()
                .map(|(i, &p)| snap(i, i < n_active, p))
                .collect();
            let d = DecisionEngine::new(PolicyParams::greedy(), SwapCost::new(1e-4, 6e6))
                .decide(&procs, iter_time, 1e6);
            let mut used = std::collections::HashSet::new();
            for pair in &d.pairs {
                prop_assert!(used.insert(pair.from), "from {} reused", pair.from);
                prop_assert!(used.insert(pair.to), "to {} reused", pair.to);
                prop_assert!(pair.from < n_active, "from must be active");
                prop_assert!(pair.to >= n_active, "to must be a spare");
            }
        }

        /// Admitted pairs come slowest-active-first against
        /// fastest-spare-first: old perfs ascend, new perfs descend.
        #[test]
        fn prop_pairs_are_benefit_ordered(
            perfs in proptest::collection::vec(1.0f64..100.0, 4..16),
        ) {
            let n_active = perfs.len() / 2;
            let procs: Vec<ProcessorSnapshot> = perfs
                .iter()
                .enumerate()
                .map(|(i, &p)| snap(i, i < n_active, p))
                .collect();
            let d = DecisionEngine::new(PolicyParams::greedy(), SwapCost::new(1e-4, 6e6))
                .decide(&procs, 60.0, 1e6);
            for w in d.pairs.windows(2) {
                prop_assert!(w[0].old_perf <= w[1].old_perf);
                prop_assert!(w[0].new_perf >= w[1].new_perf);
            }
        }

        /// A decision never *lowers* the application bottleneck: the
        /// reported app improvement is non-negative whenever swaps were
        /// admitted.
        #[test]
        fn prop_app_improvement_is_nonnegative(
            perfs in proptest::collection::vec(1.0f64..100.0, 4..16),
            thresh in 0.0f64..0.5,
        ) {
            let n_active = perfs.len() / 2;
            let procs: Vec<ProcessorSnapshot> = perfs
                .iter()
                .enumerate()
                .map(|(i, &p)| snap(i, i < n_active, p))
                .collect();
            let policy = PolicyParams::greedy().with_min_process_improvement(thresh);
            let d = DecisionEngine::new(policy, SwapCost::new(1e-4, 6e6))
                .decide(&procs, 60.0, 1e6);
            if d.will_swap() {
                prop_assert!(d.app_improvement >= -1e-12, "{}", d.app_improvement);
            }
        }

        /// Every admitted pair strictly improves its process and has a
        /// non-negative payback within the threshold.
        #[test]
        fn prop_admitted_pairs_respect_gates(
            perfs in proptest::collection::vec(1.0f64..100.0, 4..12),
            iter_time in 10.0f64..600.0,
            size in 1e3f64..1e8,
            thresh in 0.1f64..10.0,
        ) {
            let n_active = perfs.len() / 2;
            let procs: Vec<ProcessorSnapshot> = perfs
                .iter()
                .enumerate()
                .map(|(i, &p)| snap(i, i < n_active, p))
                .collect();
            let policy = PolicyParams::greedy().with_payback_threshold(thresh);
            let d = DecisionEngine::new(policy, SwapCost::new(1e-4, 6e6))
                .decide(&procs, iter_time, size);
            for pair in &d.pairs {
                prop_assert!(pair.new_perf > pair.old_perf);
                prop_assert!(pair.payback >= 0.0);
                prop_assert!(pair.payback <= thresh);
            }
        }

        /// Selecting the fastest spares before sorting them decides
        /// exactly as sorting every spare: the same pairs, application
        /// improvement, stop reason and refusal. Perfs come from a small
        /// set, so ties are common and fall to the id order; there are
        /// fewer, as many or more spares than active processes.
        #[test]
        fn prop_partial_selection_matches_full_sort(
            n_active in 1usize..6,
            n_spares in 0usize..12,
            active_perfs in proptest::collection::vec(
                prop::sample::select(vec![1.0, 2.0, 2.5, 3.0, 5.0, 8.0]),
                6..7,
            ),
            spare_perfs in proptest::collection::vec(
                prop::sample::select(vec![0.0, 1.0, 2.0, 2.5, 3.0, 5.0, 8.0]),
                12..13,
            ),
            stride in prop::sample::select(vec![1usize, 3, 7, 10]),
            offset in 0usize..101,
            iter_time in prop::sample::select(vec![1.0, 10.0, 60.0, 600.0]),
            size in prop::sample::select(vec![1e3, 1e6, 1e8]),
        ) {
            // Distinct ids in a scrambled order (101 is prime).
            let procs: Vec<ProcessorSnapshot> = active_perfs[..n_active]
                .iter()
                .map(|&p| (true, p))
                .chain(spare_perfs[..n_spares].iter().map(|&p| (false, p)))
                .enumerate()
                .map(|(i, (active, p))| snap((i * stride + offset) % 101, active, p))
                .collect();
            let cost = SwapCost::new(1e-4, 6e6);
            let engines = [
                DecisionEngine::new(PolicyParams::greedy(), cost),
                DecisionEngine::new(PolicyParams::safe(), cost),
                DecisionEngine::new(PolicyParams::friendly(), cost),
                DecisionEngine::new(PolicyParams::greedy(), cost).with_max_swaps(1),
            ];
            for engine in &engines {
                prop_assert_eq!(
                    engine.decide(&procs, iter_time, size),
                    full_sort_decide(engine, &procs, iter_time, size)
                );
            }
        }
    }
}
