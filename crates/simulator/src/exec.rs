//! The BSP execution core shared by all strategies.
//!
//! One iteration = parallel compute phase (each active process advances
//! through its host's availability timeline) + a communication phase on
//! the single shared link + whatever adaptation the strategy performs at
//! the boundary. The core also produces the per-host performance
//! measurements that feed the swap-policy histories.

use crate::app::AppSpec;
use crate::platform::Platform;
use serde::{Deserialize, Serialize};
use simkit::Cursor;

/// What happened during one application iteration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Iteration index (0-based).
    pub index: usize,
    /// Start of the compute phase.
    pub start: f64,
    /// End of the compute phase (slowest process).
    pub compute_end: f64,
    /// End of the communication phase.
    pub end: f64,
    /// Time spent adapting (swap transfer / checkpoint+restart) after this
    /// iteration, seconds.
    pub adapt_time: f64,
    /// Host ids the application computed on during this iteration.
    pub active: Vec<usize>,
}

impl IterationRecord {
    /// Full iteration duration excluding adaptation.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The outcome of one strategy run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Strategy label (e.g. `"swap(greedy)"`).
    pub strategy: String,
    /// Total wall-clock execution time, startup included, seconds.
    pub execution_time: f64,
    /// Startup portion (0.75 s × allocated processes).
    pub startup_time: f64,
    /// Number of adaptation events (individual process swaps, or
    /// checkpoint/restart cycles).
    pub adaptations: usize,
    /// Total time spent adapting, seconds.
    pub adapt_time_total: f64,
    /// Per-iteration details.
    pub iterations: Vec<IterationRecord>,
    /// Process failures detected (injected crashes of active hosts).
    /// Fault bookkeeping is excluded from serialization so artifacts of
    /// fault-free runs stay byte-identical to earlier versions.
    #[serde(skip)]
    pub failures: usize,
    /// Successful recoveries (spare swaps, checkpoint restarts).
    #[serde(skip)]
    pub recoveries: usize,
    /// Aborts followed by resubmission from scratch (NOTHING/DLB have no
    /// recovery mechanism).
    #[serde(skip)]
    pub aborts: usize,
    /// The run could not finish (too few surviving hosts);
    /// `execution_time` is censored at the fault plan's horizon.
    #[serde(skip)]
    pub truncated: bool,
}

/// Outcome of one iteration's compute+communicate phases.
#[derive(Clone, Debug, Default)]
pub struct IterationOutcome {
    /// End of the compute phase.
    pub compute_end: f64,
    /// End of the communication phase (= iteration end).
    pub end: f64,
    /// Measured compute rate of each active process during this iteration
    /// (flop/s), parallel to the `active`/`work` inputs.
    pub measured_rates: Vec<f64>,
    /// When each process finished its compute phase, parallel to
    /// `active`/`work` (feeds per-host trace spans).
    pub completions: Vec<f64>,
}

/// Mean delivered speed of `host` over `[t0, t1]` — the probe measurement
/// a swap handler reports for a spare processor.
pub fn probe_host(platform: &Platform, host: usize, t0: f64, t1: f64) -> f64 {
    probe_host_with(platform, host, t0, t1, &mut Cursor::default())
}

/// [`probe_host`], searching the host's timeline from `cursor` (a hint;
/// see [`Cursor`]).
pub fn probe_host_with(
    platform: &Platform,
    host: usize,
    t0: f64,
    t1: f64,
    cursor: &mut Cursor,
) -> f64 {
    platform.hosts[host]
        .cpu
        .mean_delivered_speed_with(t0, t1.max(t0), cursor)
}

/// One iteration attempted under a fault plan: either it completed, or
/// one or more active hosts crashed before the collective.
///
/// The `Default` value is an empty scratch: hoist one outside a
/// strategy's iteration loop and [`run_iteration`] recycles its vectors
/// instead of allocating fresh ones every iteration, and carries one
/// timeline [`Cursor`] per host from each iteration to the next.
#[derive(Clone, Debug, Default)]
pub struct FaultedIteration {
    /// The iteration as it would have unfolded with no crash. Only
    /// meaningful when `failed` is empty — strategies must discard it
    /// (and re-run the iteration after recovering) otherwise.
    pub outcome: IterationOutcome,
    /// Active hosts whose permanent crash lands inside this iteration,
    /// in `active` order. Empty means the iteration completed.
    pub failed: Vec<usize>,
    /// When the failure is *detected* (ULFM semantics: the death is
    /// reported at the next collective): the survivors must reach the
    /// barrier and the crash must have happened, so this is the max of
    /// the survivors' compute completions and the failed hosts' crash
    /// instants. Equal to `outcome.end` when nothing failed.
    pub detected: f64,
    /// Where each host's last compute-phase query ended, indexed by host
    /// id: the next iteration starts later, so its search starts here.
    cursors: Vec<Cursor>,
}

/// Runs one BSP iteration starting at `t0` under `plan`, writing into
/// the caller-owned scratch `fi` (its previous contents are fully
/// overwritten).
///
/// * `active` — host ids carrying application processes;
/// * `work` — flops assigned to each (parallel to `active`);
/// * communication: every process sends `app.bytes_per_proc_iter` over
///   the shared link once the slowest process finishes computing; with
///   fluid fair sharing the phase lasts `α + n·b/β`.
///
/// Blackouts are already folded into the host load timelines (see
/// [`Platform::apply_blackouts`]), so the plan adds the two fault
/// effects the timelines cannot express: permanent crashes (an active
/// host whose crash instant falls inside the iteration fails it) and
/// degraded-bandwidth windows on the shared link (the communication
/// phase runs at the scaled bandwidth in force when it starts). Under
/// [`faults::FaultPlan::inert`] neither applies and the iteration is the
/// fault-free one.
///
/// # Panics
/// Panics if `active` and `work` differ in length or are empty, or if any
/// process can never finish (dead availability tail).
pub fn run_iteration(
    platform: &Platform,
    app: &AppSpec,
    active: &[usize],
    work: &[f64],
    t0: f64,
    plan: &faults::FaultPlan,
    fi: &mut FaultedIteration,
) {
    assert_eq!(active.len(), work.len(), "active/work length mismatch");
    assert!(!active.is_empty(), "iteration needs at least one process");

    if fi.cursors.len() < platform.hosts.len() {
        fi.cursors.resize(platform.hosts.len(), Cursor::default());
    }
    let cursors = &mut fi.cursors;
    let out = &mut fi.outcome;
    let mut compute_end = t0;
    out.completions.clear();
    out.completions.reserve(active.len());
    for (&host, &w) in active.iter().zip(work) {
        let done = platform.hosts[host]
            .cpu
            .completion_time_with(t0, w, &mut cursors[host]);
        assert!(
            done.is_finite(),
            "host {host} can never finish {w} flops from t={t0}"
        );
        out.completions.push(done);
        compute_end = compute_end.max(done);
    }

    // Measured compute rate: work / busy time. A zero-work process (DLB
    // can assign arbitrarily small chunks) reports its host's mean
    // delivered speed over the phase instead.
    out.measured_rates.clear();
    out.measured_rates.reserve(active.len());
    for ((&host, &w), done) in active.iter().zip(work).zip(&out.completions) {
        out.measured_rates.push(if *done > t0 && w > 0.0 {
            w / (*done - t0)
        } else {
            let t1 = compute_end.max(t0 + 1.0);
            probe_host_with(platform, host, t0, t1, &mut cursors[host])
        });
    }

    // Communication at the (possibly degraded) bandwidth in force when
    // the barrier is reached. The unscaled link is used verbatim when no
    // window applies, so plans without link faults cannot perturb the
    // arithmetic.
    let factor = plan.link_factor_at(compute_end);
    let link = if factor < 1.0 {
        platform.link.scaled(factor)
    } else {
        platform.link
    };
    let comm = link.bulk_transfer_time(active.len(), app.bytes_per_proc_iter);
    let end = compute_end + comm;
    out.compute_end = compute_end;
    out.end = end;

    // A host fails the iteration if its crash lands before the iteration
    // would have completed (compute or communication phase alike: the
    // collective cannot complete without it).
    fi.failed.clear();
    fi.failed.extend(
        active
            .iter()
            .copied()
            .filter(|&h| plan.crash_time(h).is_some_and(|c| c <= end)),
    );
    fi.detected = if fi.failed.is_empty() {
        end
    } else {
        let survivors = active
            .iter()
            .zip(&fi.outcome.completions)
            .filter(|(h, _)| !fi.failed.contains(h))
            .map(|(_, &done)| done)
            .fold(t0, f64::max);
        let last_crash = fi
            .failed
            .iter()
            .filter_map(|&h| plan.crash_time(h))
            .fold(t0, f64::max);
        survivors.max(last_crash)
    };
}

/// Alternative communication model: **eager overlap**. Each process
/// starts sending as soon as *it* finishes computing (instead of after a
/// barrier), and the flows share the link fluidly — fast processes'
/// messages drain while slow ones still compute. The iteration ends when
/// the last flow completes.
///
/// This is an upper bound on what communication/computation overlap can
/// recover; the paper's model (and [`run_iteration`]) is the BSP
/// barrier-then-communicate variant. Compare with `ablation_commmodel`.
/// Fault-free only: the ablation runs no fault plan.
pub fn run_iteration_eager(
    platform: &Platform,
    app: &AppSpec,
    active: &[usize],
    work: &[f64],
    t0: f64,
) -> IterationOutcome {
    assert_eq!(active.len(), work.len(), "active/work length mismatch");
    assert!(!active.is_empty(), "iteration needs at least one process");

    let mut compute_end = t0;
    let mut flows = Vec::with_capacity(active.len());
    let mut completions = Vec::with_capacity(active.len());
    for (&host, &w) in active.iter().zip(work) {
        let done = platform.hosts[host].cpu.completion_time(t0, w);
        assert!(done.is_finite(), "host {host} can never finish");
        completions.push(done);
        compute_end = compute_end.max(done);
        flows.push(simkit::link::Flow {
            start: done,
            bytes: app.bytes_per_proc_iter,
        });
    }
    let fluid = simkit::link::FluidLink::new(platform.link);
    let end = fluid
        .completion_times(&flows)
        .into_iter()
        .fold(compute_end, f64::max);

    let measured_rates = active
        .iter()
        .zip(work)
        .zip(&completions)
        .map(|((&host, &w), &done)| {
            if done > t0 && w > 0.0 {
                w / (done - t0)
            } else {
                platform.hosts[host].mean_delivered(t0, compute_end.max(t0 + 1.0))
            }
        })
        .collect();
    IterationOutcome {
        compute_end,
        end,
        measured_rates,
        completions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{Host, LoadSpec, Platform, PlatformSpec};
    use loadmodel::LoadTrace;
    use simkit::link::SharedLink;

    /// One fault-free iteration through the shared entry point.
    fn bsp(p: &Platform, a: &AppSpec, active: &[usize], work: &[f64], t0: f64) -> IterationOutcome {
        let mut fi = FaultedIteration::default();
        run_iteration(p, a, active, work, t0, faults::FaultPlan::inert(), &mut fi);
        assert!(fi.failed.is_empty() && fi.detected == fi.outcome.end);
        fi.outcome
    }

    fn app() -> AppSpec {
        AppSpec {
            n_active: 2,
            iterations: 3,
            flops_per_proc_iter: 1e9,
            bytes_per_proc_iter: 6e6, // 1 s/flow on the 6 MB/s link
            process_state_bytes: 1e6,
        }
    }

    fn unloaded_platform() -> Platform {
        PlatformSpec {
            n_hosts: 4,
            speed_range: (1e8, 1e8),
            link: SharedLink::new(0.0, 6e6),
            startup_per_process: 0.75,
            load: LoadSpec::Unloaded,
            horizon: 1e5,
        }
        .realize(0)
    }

    #[test]
    fn unloaded_iteration_time_is_exact() {
        let p = unloaded_platform();
        let a = app();
        let out = bsp(&p, &a, &[0, 1], &[1e9, 1e9], 0.0);
        // Compute: 1e9 / 1e8 = 10 s; comm: 2 × 6e6 / 6e6 = 2 s.
        assert!((out.compute_end - 10.0).abs() < 1e-9);
        assert!((out.end - 12.0).abs() < 1e-9);
        for &r in &out.measured_rates {
            assert!((r - 1e8).abs() < 1.0);
        }
    }

    #[test]
    fn loaded_host_bounds_the_iteration() {
        let loaded = LoadTrace::from_intervals([(0.0, 1e6)]);
        let p = Platform {
            hosts: vec![
                Host::new(1e8, LoadTrace::unloaded()),
                Host::new(1e8, loaded), // delivers 5e7
            ],
            link: SharedLink::new(0.0, 6e6),
            startup_per_process: 0.75,
        };
        let out = bsp(&p, &app(), &[0, 1], &[1e9, 1e9], 0.0);
        assert!((out.compute_end - 20.0).abs() < 1e-9);
        assert!((out.measured_rates[0] - 1e8).abs() < 1.0);
        assert!((out.measured_rates[1] - 5e7).abs() < 1.0);
    }

    #[test]
    fn uneven_work_shifts_the_bottleneck() {
        let p = unloaded_platform();
        let out = bsp(&p, &app(), &[0, 1], &[2e9, 5e8], 0.0);
        assert!((out.compute_end - 20.0).abs() < 1e-9);
    }

    #[test]
    fn measured_rate_reflects_mid_iteration_load_change() {
        // Load arrives at t=5 on host 0: first 5 s at 1e8, then 5e7.
        let loaded = LoadTrace::from_intervals([(5.0, 1e6)]);
        let p = Platform {
            hosts: vec![Host::new(1e8, loaded)],
            link: SharedLink::new(0.0, 6e6),
            startup_per_process: 0.75,
        };
        let out = bsp(&p, &app(), &[0], &[1e9], 0.0);
        // 5e8 done by t=5; remaining 5e8 at 5e7 takes 10 s → done t=15.
        assert!((out.compute_end - 15.0).abs() < 1e-9);
        let rate = out.measured_rates[0];
        assert!((rate - 1e9 / 15.0).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn probe_reports_windowed_mean() {
        let loaded = LoadTrace::from_intervals([(0.0, 10.0)]);
        let p = Platform {
            hosts: vec![Host::new(1e8, loaded)],
            link: SharedLink::new(0.0, 6e6),
            startup_per_process: 0.75,
        };
        assert!((probe_host(&p, 0, 0.0, 20.0) - 7.5e7).abs() < 1.0);
    }

    #[test]
    fn zero_byte_communication_is_latency_only() {
        let mut a = app();
        a.bytes_per_proc_iter = 0.0;
        let mut p = unloaded_platform();
        p.link = SharedLink::new(0.5, 6e6);
        let out = bsp(&p, &a, &[0], &[1e9], 0.0);
        assert!((out.end - (10.0 + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn eager_comm_never_loses_to_bsp() {
        // Overlap can only help: the eager iteration end is ≤ the BSP end
        // for identical inputs.
        let loaded = LoadTrace::from_intervals([(0.0, 1e6)]);
        let p = Platform {
            hosts: vec![
                Host::new(1e8, LoadTrace::unloaded()),
                Host::new(1e8, loaded),
            ],
            link: SharedLink::new(0.0, 6e6),
            startup_per_process: 0.75,
        };
        let a = app();
        let bsp = bsp(&p, &a, &[0, 1], &[1e9, 1e9], 0.0);
        let eager = run_iteration_eager(&p, &a, &[0, 1], &[1e9, 1e9], 0.0);
        assert!(
            eager.end <= bsp.end + 1e-9,
            "eager {} > bsp {}",
            eager.end,
            bsp.end
        );
        assert_eq!(eager.compute_end, bsp.compute_end);
    }

    #[test]
    fn eager_comm_overlaps_fast_senders() {
        // Host 0 finishes at t=10 and its 6 MB message drains fully
        // (1 s at 6 MB/s) before host 1 finishes at t=20; host 1's
        // message then takes 1 s alone: end = 21 < BSP's 20 + 2 = 22.
        let loaded = LoadTrace::from_intervals([(0.0, 1e6)]);
        let p = Platform {
            hosts: vec![
                Host::new(1e8, LoadTrace::unloaded()),
                Host::new(1e8, loaded),
            ],
            link: SharedLink::new(0.0, 6e6),
            startup_per_process: 0.75,
        };
        let a = app(); // 6 MB per process per iteration
        let eager = run_iteration_eager(&p, &a, &[0, 1], &[1e9, 1e9], 0.0);
        assert!((eager.end - 21.0).abs() < 1e-9, "end {}", eager.end);
        let bsp = bsp(&p, &a, &[0, 1], &[1e9, 1e9], 0.0);
        assert!((bsp.end - 22.0).abs() < 1e-9);
    }

    #[test]
    fn eager_equals_bsp_when_processes_finish_together() {
        let p = unloaded_platform();
        let a = app();
        let bsp = bsp(&p, &a, &[0, 1], &[1e9, 1e9], 0.0);
        let eager = run_iteration_eager(&p, &a, &[0, 1], &[1e9, 1e9], 0.0);
        // Simultaneous finish → flows fair-share exactly like the bulk
        // formula.
        assert!((eager.end - bsp.end).abs() < 1e-9);
    }

    #[test]
    fn iteration_starting_late_uses_timeline_from_t0() {
        let loaded = LoadTrace::from_intervals([(0.0, 10.0)]);
        let p = Platform {
            hosts: vec![Host::new(1e8, loaded)],
            link: SharedLink::new(0.0, 6e6),
            startup_per_process: 0.75,
        };
        // Starting after the load clears: full speed.
        let out = bsp(&p, &app(), &[0], &[1e9], 10.0);
        assert!((out.compute_end - 20.0).abs() < 1e-9);
    }

    #[test]
    fn crash_inside_the_iteration_fails_it_at_the_barrier() {
        // Host 1 dies at t=5 of a 12 s iteration; host 0 reaches the
        // barrier at t=10, which is when the death is detected.
        let p = unloaded_platform();
        let mut plan = faults::FaultPlan::empty(4, 1e5);
        plan.hosts[1].crash = Some(5.0);
        let mut fi = FaultedIteration::default();
        run_iteration(&p, &app(), &[0, 1], &[1e9, 1e9], 0.0, &plan, &mut fi);
        assert_eq!(fi.failed, vec![1]);
        assert!((fi.detected - 10.0).abs() < 1e-9);
        // The same scratch, reused after the crash, reports a clean run
        // on the survivors.
        run_iteration(&p, &app(), &[0, 2], &[1e9, 1e9], 10.0, &plan, &mut fi);
        assert!(fi.failed.is_empty());
        assert!((fi.outcome.end - 22.0).abs() < 1e-9);
    }

    #[test]
    fn link_window_slows_the_communication_phase() {
        let p = unloaded_platform();
        let mut plan = faults::FaultPlan::empty(4, 1e5);
        plan.link.push(faults::LinkDegradedWindow {
            start: 5.0,
            end: 15.0,
            factor: 0.5,
        });
        let mut fi = FaultedIteration::default();
        run_iteration(&p, &app(), &[0, 1], &[1e9, 1e9], 0.0, &plan, &mut fi);
        // Barrier at t=10 inside the window: 12 MB at 3 MB/s = 4 s.
        assert!((fi.outcome.end - 14.0).abs() < 1e-9);
        run_iteration(&p, &app(), &[0, 1], &[1e9, 1e9], 20.0, &plan, &mut fi);
        assert!((fi.outcome.end - 32.0).abs() < 1e-9);
    }
}
