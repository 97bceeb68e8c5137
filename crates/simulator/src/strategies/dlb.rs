//! Idealized dynamic load balancing (§6, "Dynamic load balancing").
//!
//! "The DLB strategy redistributes work at each iteration so that the
//! iteration times of all the processors are perfectly balanced given
//! their respective performance. … We do not account for the overhead of
//! doing the actual load balancing … Consequently, the application
//! execution times we obtain in our simulation for DLB are lower bounds
//! on what could be obtained in practice."
//!
//! The balance is computed from the performance observed *at the start of
//! each iteration* — which is precisely why the paper finds that "DLB
//! does not perform very well in dynamic environments. When the
//! environment becomes dynamic, DLB chooses uneven work sizes, but the
//! performance changes quickly and the application is left computing a
//! lot of work on a (suddenly) slow processor."

use super::nothing::run_resubmitting;
use super::{Partition, RunContext, Strategy};
use crate::exec::RunResult;

/// Ideal (zero-cost, perfectly informed at rebalance time) dynamic load
/// balancing over the initially chosen `N` processors.
///
/// Under faults DLB behaves like NOTHING: it has no spare pool and no
/// checkpoints, so a crash aborts the run and resubmission restarts it
/// from scratch on the best surviving hosts (rebalancing resumes there).
#[derive(Clone, Copy, Debug, Default)]
pub struct Dlb;

impl Strategy for Dlb {
    fn name(&self) -> String {
        "dlb".to_owned()
    }

    fn run(&self, ctx: &RunContext<'_>) -> RunResult {
        run_resubmitting(ctx, self.name(), Partition::Balanced)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{small_app, small_platform};
    use super::super::Nothing;
    use super::*;
    use crate::platform::{Host, Platform};
    use loadmodel::LoadTrace;
    use simkit::link::SharedLink;

    #[test]
    fn matches_nothing_on_unloaded_homogeneous_platform() {
        // Equal speeds, no load: the balanced partition is the equal one.
        let hosts: Vec<Host> = (0..4)
            .map(|_| Host::new(1e8, LoadTrace::unloaded()))
            .collect();
        let p = Platform {
            hosts,
            link: SharedLink::new(0.0, 6e6),
            startup_per_process: 0.75,
        };
        let app = small_app();
        let ctx = RunContext::new(&p, &app, 2);
        assert!((Dlb.run(&ctx).execution_time - Nothing.run(&ctx).execution_time).abs() < 1e-6);
    }

    #[test]
    fn beats_nothing_under_static_imbalance() {
        // Host 1 permanently loaded: DLB shifts work to host 0 and wins.
        let loaded = LoadTrace::from_intervals([(0.0, 1e9)]);
        let p = Platform {
            hosts: vec![
                Host::new(1e8, LoadTrace::unloaded()),
                Host::new(1e8, loaded),
            ],
            link: SharedLink::new(0.0, 6e6),
            startup_per_process: 0.75,
        };
        let app = small_app();
        let ctx = RunContext::new(&p, &app, 2);
        let dlb = Dlb.run(&ctx);
        let nothing = Nothing.run(&ctx);
        // NOTHING: bottleneck at 5e7 → compute 2·(3e9/1e8)=60 s/iter…
        // DLB: total 6e9 over 1.5e8 delivered → 40 s/iter.
        assert!(
            dlb.execution_time < nothing.execution_time * 0.75,
            "dlb {} vs nothing {}",
            dlb.execution_time,
            nothing.execution_time
        );
    }

    #[test]
    fn suffers_when_load_flips_right_after_rebalance() {
        // Host 0 looks fast at t=startup(1.5 s) but becomes slow
        // immediately after; DLB loads it up and pays the price.
        let flip = LoadTrace::from_intervals([(2.0, 1e9)]);
        let p = Platform {
            hosts: vec![Host::new(1e8, flip), Host::new(1e8, LoadTrace::unloaded())],
            link: SharedLink::new(0.0, 6e6),
            startup_per_process: 0.75,
        };
        let mut app = small_app();
        app.iterations = 1;
        let ctx = RunContext::new(&p, &app, 2);
        let dlb = Dlb.run(&ctx);
        let nothing = Nothing.run(&ctx);
        // DLB gave both hosts 3e9 (equal at the decision instant); host 0
        // then runs at half speed: same as NOTHING here — but if DLB had
        // seen the true future it could have done better. The key check:
        // DLB is NOT better than NOTHING when its information goes stale.
        assert!(dlb.execution_time >= nothing.execution_time - 1e-6);
    }

    #[test]
    fn per_iteration_partitions_track_changing_speeds() {
        let p = small_platform(super::super::testutil::moderate_onoff(), 11);
        let app = small_app();
        let ctx = RunContext::new(&p, &app, 2);
        let r = Dlb.run(&ctx);
        assert_eq!(r.iterations.len(), app.iterations);
        assert_eq!(r.adaptations, 0); // rebalancing is free, not counted
    }
}
