//! DLB + swapping hybrid — the paper's §2 suggestion, built out.
//!
//! "The performance of an application that supports dynamic load
//! balancing is limited by the achievable performance on the processors
//! that are used. … a DLB implementation could further improve
//! performance through the use of an over-allocation mechanism similar
//! to the one used in our approach."
//!
//! This strategy rebalances work every iteration (like [`super::Dlb`])
//! *and* runs the swap decision engine over the over-allocated pool
//! (like [`super::Swap`]): load balancing handles intra-set skew, while
//! swapping escapes processors whose absolute performance has collapsed.

use super::swap::run_swapping;
use super::{Partition, RunContext, Strategy};
use crate::exec::RunResult;
use swap_core::PolicyParams;

/// Ideal DLB over an over-allocated pool, with policy-driven swapping.
///
/// Under faults it keeps SWAP's failure semantics (a crashed active slot
/// is a mandatory swap to the best surviving spare, state restored from
/// the last snapshot) with DLB's per-iteration rebalancing on top.
#[derive(Clone, Copy, Debug)]
pub struct DlbSwap {
    policy: PolicyParams,
}

impl DlbSwap {
    /// The hybrid under the greedy policy.
    pub fn greedy() -> Self {
        DlbSwap {
            policy: PolicyParams::greedy(),
        }
    }

    /// The hybrid under an arbitrary policy.
    pub fn new(policy: PolicyParams) -> Self {
        DlbSwap { policy }
    }
}

impl Strategy for DlbSwap {
    fn name(&self) -> String {
        "dlb+swap".to_owned()
    }

    fn run(&self, ctx: &RunContext<'_>) -> RunResult {
        run_swapping(ctx, self.name(), self.policy, None, Partition::Balanced)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{moderate_onoff, small_app, small_platform};
    use super::super::{Dlb, Nothing, Swap};
    use super::*;
    use crate::platform::LoadSpec;

    #[test]
    fn matches_dlb_plus_startup_when_quiescent() {
        let p = small_platform(LoadSpec::Unloaded, 0);
        let app = small_app();
        let hybrid = DlbSwap::greedy().run(&RunContext::new(&p, &app, 8));
        let dlb = Dlb.run(&RunContext::new(&p, &app, 2));
        let extra_startup = p.startup_time(8) - p.startup_time(2);
        assert_eq!(hybrid.adaptations, 0);
        assert!(
            (hybrid.execution_time - dlb.execution_time - extra_startup).abs() < 1e-6,
            "hybrid {} vs dlb {} (+{extra_startup})",
            hybrid.execution_time,
            dlb.execution_time
        );
    }

    #[test]
    fn usually_beats_pure_dlb_under_persistent_load() {
        let app = small_app();
        let mut wins = 0;
        for seed in 0..8 {
            let p = small_platform(moderate_onoff(), seed);
            let hybrid = DlbSwap::greedy().run(&RunContext::new(&p, &app, 8));
            let dlb = Dlb.run(&RunContext::new(&p, &app, 2));
            if hybrid.execution_time < dlb.execution_time {
                wins += 1;
            }
        }
        assert!(wins >= 5, "hybrid beat pure DLB only {wins}/8 times");
    }

    #[test]
    fn usually_at_least_as_good_as_pure_swap() {
        let app = small_app();
        let mut wins = 0;
        for seed in 0..8 {
            let p = small_platform(moderate_onoff(), seed);
            let hybrid = DlbSwap::greedy().run(&RunContext::new(&p, &app, 8));
            let swap = Swap::greedy().run(&RunContext::new(&p, &app, 8));
            if hybrid.execution_time <= swap.execution_time * 1.02 {
                wins += 1;
            }
        }
        assert!(wins >= 5, "hybrid ~beat pure SWAP only {wins}/8 times");
    }

    #[test]
    fn beats_nothing_under_load() {
        let app = small_app();
        let mut wins = 0;
        for seed in 0..8 {
            let p = small_platform(moderate_onoff(), seed);
            let hybrid = DlbSwap::greedy().run(&RunContext::new(&p, &app, 8));
            let nothing = Nothing.run(&RunContext::new(&p, &app, 2));
            if hybrid.execution_time < nothing.execution_time {
                wins += 1;
            }
        }
        assert!(wins >= 6, "hybrid beat NOTHING only {wins}/8 times");
    }

    #[test]
    fn deterministic() {
        let p = small_platform(moderate_onoff(), 3);
        let app = small_app();
        let a = DlbSwap::greedy().run(&RunContext::new(&p, &app, 8));
        let b = DlbSwap::greedy().run(&RunContext::new(&p, &app, 8));
        assert_eq!(a.execution_time, b.execution_time);
    }
}
