//! Extension experiments: the paper's future-work directions, built out.
//!
//! * [`ext_reclamation`] — §2: "By combining our swapping policies with
//!   this [Condor-style] eviction mechanism, a process might also be
//!   evicted and migrated for application performance reasons." We model
//!   desktop-grid owner reclamation (owner present → guest drops to 5%
//!   of the CPU) and compare the techniques across reclamation duty.
//! * [`ext_dlb_swap`] — §2: "a DLB implementation could further improve
//!   performance through the use of an over-allocation mechanism similar
//!   to the one used in our approach." The [`simulator::strategies::DlbSwap`]
//!   hybrid against its two parents.

use crate::config::Scale;
use crate::figures::{mean_exec_time, onoff_duty, platform, ONOFF_Q};
use crate::output::FigureData;
use crate::sweep::grid_sweep;
use faults::FaultSpec;
use loadmodel::OnOffSource;
use simulator::platform::LoadSpec;
use simulator::runner::Replication;
use simulator::strategies::{Cr, Dlb, DlbSwap, Nothing, Strategy, Swap};
use simulator::AppSpec;

/// Owner-reclamation sweep: execution time vs owner-presence duty cycle
/// for NOTHING / SWAP / DLB / CR (N = 4/32, 1 MB state). Reclamation is
/// much harsher than ordinary load: a reclaimed host delivers 5%, so
/// staying put (NOTHING) is catastrophic while migration (SWAP, CR)
/// escapes cheaply. Note that the *ideal* DLB baseline also copes — it
/// instantly and freely shrinks the reclaimed host's share to ~5% — but
/// a real DLB would have to push that host's data over the 6 MB/s link
/// every time an owner comes or goes, which is exactly the cost the
/// paper's DLB lower bound ignores.
pub fn ext_reclamation(scale: &Scale) -> FigureData {
    scale.validate();
    let mut app = AppSpec::hpdc03(4, 1.0e6);
    app.iterations = scale.iterations;
    let xs = scale.linspace(0.0, 0.6);
    let load_for = |duty: f64| LoadSpec::Reclamation {
        source: OnOffSource::for_duty_cycle(duty, 0.04, 30.0), // long absences
        weight: 19.0,
    };
    let strategies: Vec<(&str, Box<dyn Strategy>, usize)> = vec![
        ("nothing", Box::new(Nothing), 4),
        ("swap", Box::new(Swap::greedy()), 32),
        ("dlb", Box::new(Dlb), 4),
        ("cr", Box::new(Cr::greedy()), 32),
    ];
    let series = grid_sweep(
        scale,
        &strategies,
        &xs,
        |(name, _, _)| (*name).to_owned(),
        |(_, s, alloc), d| mean_exec_time(load_for(d), &app, s.as_ref(), *alloc, scale),
    );
    FigureData {
        id: "ext_reclamation".into(),
        title: "Extension: desktop-grid owner reclamation (guest keeps 5%)".into(),
        x_label: "owner presence [duty cycle]".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

/// The DLB+SWAP hybrid against pure DLB, pure SWAP, and NOTHING across
/// ON/OFF dynamism (N = 4/32, 1 MB state).
pub fn ext_dlb_swap(scale: &Scale) -> FigureData {
    scale.validate();
    let mut app = AppSpec::hpdc03(4, 1.0e6);
    app.iterations = scale.iterations;
    let xs = scale.linspace(0.0, 0.92);
    let strategies: Vec<(&str, Box<dyn Strategy>, usize)> = vec![
        ("nothing", Box::new(Nothing), 4),
        ("dlb", Box::new(Dlb), 4),
        ("swap", Box::new(Swap::greedy()), 32),
        ("dlb+swap", Box::new(DlbSwap::greedy()), 32),
    ];
    let series = grid_sweep(
        scale,
        &strategies,
        &xs,
        |(name, _, _)| (*name).to_owned(),
        |(_, s, alloc), d| mean_exec_time(onoff_duty(d), &app, s.as_ref(), *alloc, scale),
    );
    FigureData {
        id: "ext_dlb_swap".into(),
        title: "Extension: DLB + swapping hybrid".into(),
        x_label: "environment dynamism [load probability]".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

/// Bounded-Pareto lifetime sweep — the Figure 9 question asked with a
/// genuinely power-law tail (α = 1.1, as measured by Harchol-Balter &
/// Downey for UNIX process lifetimes). X axis = mean lifetime, matched to
/// the hyperexponential sweep by adjusting the upper bound.
pub fn ext_pareto(scale: &Scale) -> FigureData {
    scale.validate();
    let mut app = AppSpec::hpdc03(4, 1.0e6);
    app.iterations = scale.iterations;
    let xs = scale.logspace(30.0, 5000.0);
    let load_for = |mean_life: f64| {
        // Shape 1.1 with a fixed hi/lo span of 1000×: the mean scales
        // linearly with lo, so solve lo from the analytic mean of the
        // unit-lo distribution. (Scaling hi instead cannot work: with
        // α = 1.1 the mean saturates at ~11·lo as hi → ∞.)
        let unit_mean = loadmodel::BoundedPareto::new(1.1, 1.0, 1000.0).mean();
        let lo = mean_life / unit_mean;
        let dist = loadmodel::BoundedPareto::new(1.1, lo, 1000.0 * lo);
        LoadSpec::Pareto(loadmodel::ParetoWorkload::new(dist, 1.0 / 600.0))
    };
    let strategies: Vec<(&str, Box<dyn Strategy>, usize)> = vec![
        ("nothing", Box::new(Nothing), 4),
        ("swap", Box::new(Swap::greedy()), 32),
        ("dlb", Box::new(Dlb), 4),
        ("cr", Box::new(Cr::greedy()), 32),
    ];
    let series = grid_sweep(
        scale,
        &strategies,
        &xs,
        |(name, _, _)| (*name).to_owned(),
        |(_, s, alloc), l| mean_exec_time(load_for(l), &app, s.as_ref(), *alloc, scale),
    );
    FigureData {
        id: "ext_pareto".into(),
        title: "Extension: power-law (bounded Pareto α=1.1) lifetimes".into(),
        x_label: "mean process lifetime [s]".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

/// Realistic synthetic desktop traces (diurnal + AR(1) + spikes) — the
/// "CPU load traces that better reflect actual environments" direction.
/// X axis = peak diurnal load level.
pub fn ext_traces(scale: &Scale) -> FigureData {
    scale.validate();
    let mut app = AppSpec::hpdc03(4, 1.0e6);
    app.iterations = scale.iterations;
    let xs = scale.linspace(0.0, 4.0);
    let load_for = |peak: f64| {
        LoadSpec::Diurnal(loadmodel::DiurnalTraceGenerator {
            // A compressed 4-hour "day" so several cycles fit in one run.
            day_length: 14_400.0,
            peak_load: peak,
            persistence: 0.9,
            spike_prob: 0.002,
            sample_period: 60.0,
        })
    };
    let strategies: Vec<(&str, Box<dyn Strategy>, usize)> = vec![
        ("nothing", Box::new(Nothing), 4),
        ("swap", Box::new(Swap::greedy()), 32),
        ("safe", Box::new(Swap::safe()), 32),
        ("dlb", Box::new(Dlb), 4),
    ];
    let series = grid_sweep(
        scale,
        &strategies,
        &xs,
        |(name, _, _)| (*name).to_owned(),
        |(_, s, alloc), peak| mean_exec_time(load_for(peak), &app, s.as_ref(), *alloc, scale),
    );
    FigureData {
        id: "ext_traces".into(),
        title: "Extension: realistic diurnal desktop traces".into(),
        x_label: "peak diurnal load [competing processes]".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

/// Iteration-granularity sweep: the paper's rule of thumb is that
/// "swapping is viable for applications whose iteration times are at
/// least as long as the time required to transfer process state". With
/// the state fixed at 100 MB (swap time ≈ 16.7 s on the 6 MB/s LAN), the
/// unloaded iteration time is swept from ~20 s to ~300 s and the figure
/// reports *relative benefit* over NOTHING — the crossover should sit
/// near iteration ≈ swap time.
pub fn ext_granularity(scale: &Scale) -> FigureData {
    scale.validate();
    // Unloaded iteration time on a ~300 Mflop/s host = flops / 3e8.
    let xs = scale.logspace(20.0, 300.0);
    // Hold the load's *relative* persistence fixed (mean busy period ≈
    // 6.25 iterations, as in the main figures where step=30 s against
    // 60 s iterations) so the sweep isolates the swap-cost ratio instead
    // of conflating it with measurement staleness.
    let load_for = |iter_time: f64| {
        LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.5, ONOFF_Q, iter_time / 2.0))
    };
    let policies: Vec<(&str, Box<dyn Strategy>)> = vec![
        ("greedy", Box::new(Swap::greedy())),
        ("safe", Box::new(Swap::safe())),
    ];
    let series = grid_sweep(
        scale,
        &policies,
        &xs,
        |(name, _)| (*name).to_owned(),
        |(_, s), iter_time| {
            let mut app = AppSpec::hpdc03(4, 1.0e8);
            app.flops_per_proc_iter = iter_time * 3.0e8;
            // Keep total simulated work roughly constant across the
            // sweep so runs stay comparable in length.
            app.iterations = ((scale.iterations as f64 * 60.0 / iter_time).round() as usize).max(6);
            let nothing = mean_exec_time(load_for(iter_time), &app, &Nothing, 4, scale);
            let swap = mean_exec_time(load_for(iter_time), &app, s.as_ref(), 32, scale);
            100.0 * (1.0 - swap / nothing)
        },
    );
    FigureData {
        id: "ext_granularity".into(),
        title: "Extension: benefit vs iteration granularity (100 MB state)".into(),
        x_label: "unloaded iteration time [s]".into(),
        y_label: "benefit vs NOTHING [%]".into(),
        series,
    }
}

/// Failure sweep: execution time vs per-host crash MTBF under permanent,
/// hyperexponentially-timed crashes, for NOTHING (abort + resubmit),
/// SWAP at two over-allocations (spares double as *replacements*: a dead
/// active slot is a mandatory swap, recovered from the last registered
/// snapshot), and CR (rollback to the last periodic checkpoint). The
/// fault schedule is derived deterministically from each replication
/// seed plus the scenario's `fault_seed`, so the figure is bit-identical
/// across `--jobs`.
///
/// `--mtbf M` recenters the sweep on `[M/4, 4M]`; `--fault-seed`
/// reseeds the fault streams without touching the platform realization;
/// `--placement NAME` routes every cell through the policy layer's
/// spare-placement policy (`first_alive` reproduces the default
/// probe-ranked choice bit-for-bit).
pub fn ext_faults(scale: &Scale) -> FigureData {
    scale.validate();
    let mut app = AppSpec::hpdc03(4, 1.0e8);
    app.iterations = scale.iterations;
    let (lo, hi) = match scale.mtbf {
        Some(m) => (m / 4.0, m * 4.0),
        None => (2_000.0, 64_000.0),
    };
    let xs = scale.logspace(lo, hi);
    let fault_seed = scale.fault_seed.unwrap_or(0);
    let strategies: Vec<(&str, Box<dyn Strategy>, usize)> = vec![
        ("nothing", Box::new(Nothing), 4),
        ("swap/8", Box::new(Swap::greedy()), 8),
        ("swap/32", Box::new(Swap::greedy()), 32),
        ("cr", Box::new(Cr::greedy()), 32),
    ];
    let series = grid_sweep(
        scale,
        &strategies,
        &xs,
        |(name, _, _)| (*name).to_owned(),
        |(_, s, alloc), mtbf| {
            let spec = platform(onoff_duty(0.5));
            let fs = FaultSpec::crashes_only(mtbf, fault_seed);
            let seeds = scale.seed_list();
            let ps = scale
                .placement
                .map(|p| policy::PolicyConfig::for_placement(p).build(0.0));
            Replication {
                policies: ps.as_ref(),
                ..Replication::new(&spec, &app, s.as_ref(), *alloc, &seeds).with_faults(&fs)
            }
            .run()
            .execution_time
            .mean
        },
    );
    FigureData {
        id: "ext_faults".into(),
        title: "Extension: permanent host crashes (spares as replacements)".into(),
        x_label: "per-host crash MTBF [s]".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

/// The policy tournament testbed: a speed-homogeneous, unloaded rack
/// cluster. Every host computes at the same 400 Mflop/s, so spare
/// probes tie exactly and placement is decided *purely* by the failure
/// model — the tournament isolates reliability-awareness from the
/// load-chasing the rest of the figures study. The horizon censors
/// runs whose spare pool is exhausted, exactly as in [`ext_faults`].
fn tournament_platform() -> simulator::platform::PlatformSpec {
    simulator::platform::PlatformSpec {
        n_hosts: 32,
        speed_range: (4.0e8, 4.0e8),
        link: simkit::link::SharedLink::hpdc03_lan(),
        startup_per_process: 0.75,
        load: LoadSpec::Unloaded,
        horizon: 50_000.0,
    }
}

/// The policy tournament: spare-placement policies head-to-head in the
/// two fault regimes where placement can matter.
///
/// * **Heterogeneous lifetimes** (`host_mtbf_spread = 8`): per-host
///   effective MTBFs span a 64× range and crash timing is bursty
///   (hyperexponential), so a `MtbfAware` ranker that prefers
///   spares with long expected residual lifetime replaces dead hosts
///   with durable ones, while `FirstAlive` keeps handing the
///   state to fragile spares and pays the recovery bill again.
/// * **Correlated rack shocks** (`domains = 4`, storms at the swept
///   MTBF killing 80% of one rack across a 900 s window): a storm
///   dooms several hosts of one rack at once, so `RackAware`
///   — which demotes spares in recently-shocked domains — refuses to
///   place the replacement next to the host that just died, while
///   `FirstAlive` walks straight into the blast radius.
///
/// The experiment design makes the placement decision the *only* lever:
/// the tournament platform is unloaded and speed-homogeneous (all
/// probes tie, so a durable pick costs nothing), the strategy is
/// SWAP(safe)/32 (the safe policy's 20% improvement threshold never
/// admits a voluntary swap here, so a placement persists instead of
/// being churned away at the next decision point), and the 1 GB process
/// state makes every avoidable re-recovery cost a 167 s transfer plus
/// the re-run of the failed iteration. Under these controls each
/// specialist strictly dominates `FirstAlive` wherever its failure
/// regime is active, and the curves converge exactly once failures
/// become too rare to matter. x is the per-host crash MTBF for the
/// spread pair and the per-domain storm MTBF for the shock pair. The
/// fault schedule is seed-derived, so the figure is bit-identical
/// across `--jobs`.
pub fn ext_policies(scale: &Scale) -> FigureData {
    scale.validate();
    let mut app = AppSpec::hpdc03(4, 1.0e9);
    app.iterations = scale.iterations;
    let (lo, hi) = match scale.mtbf {
        Some(m) => (m / 4.0, m * 4.0),
        None => (1_000.0, 32_000.0),
    };
    let xs = scale.logspace(lo, hi);
    let fault_seed = scale.fault_seed.unwrap_or(0);
    let spread_spec = |mtbf: f64| FaultSpec {
        host_mtbf_spread: 8.0,
        ..FaultSpec::crashes_only(mtbf, fault_seed)
    };
    let shock_spec = |mtbf: f64| FaultSpec::correlated_shocks(4, mtbf, 900.0, 0.8, fault_seed);
    // (series, placement, fault regime): the tournament pairs one
    // baseline and one specialist per regime.
    type FaultFor<'a> = &'a (dyn Fn(f64) -> FaultSpec + Sync);
    let cells: Vec<(&str, policy::PlacementChoice, FaultFor)> = vec![
        (
            "first_alive",
            policy::PlacementChoice::FirstAlive,
            &spread_spec,
        ),
        (
            "mtbf_aware",
            policy::PlacementChoice::MtbfAware,
            &spread_spec,
        ),
        (
            "first_alive/shocks",
            policy::PlacementChoice::FirstAlive,
            &shock_spec,
        ),
        (
            "rack_aware/shocks",
            policy::PlacementChoice::RackAware,
            &shock_spec,
        ),
    ];
    let series = grid_sweep(
        scale,
        &cells,
        &xs,
        |(name, _, _)| (*name).to_owned(),
        |(_, placement, fault_for), mtbf| {
            let fs = fault_for(mtbf);
            let spec = tournament_platform();
            let ps = policy::PolicyConfig::for_placement(*placement).build(fs.shock_window_secs);
            Replication::new(&spec, &app, &Swap::safe(), 32, &scale.seed_list())
                .with_faults(&fs)
                .with_policies(&ps)
                .run()
                .execution_time
                .mean
        },
    );
    FigureData {
        id: "ext_policies".into(),
        title: "Extension: spare-placement policy tournament (SWAP/32)".into(),
        x_label: "crash / storm MTBF [s]".into(),
        y_label: "execution time [s]".into(),
        series,
    }
}

/// All extension experiment ids.
pub const ALL_EXTENSIONS: [&str; 7] = [
    "ext_reclamation",
    "ext_dlb_swap",
    "ext_pareto",
    "ext_traces",
    "ext_granularity",
    "ext_faults",
    "ext_policies",
];

/// Generates an extension experiment by id.
pub fn extension_by_id(id: &str, scale: &Scale) -> Option<FigureData> {
    Some(match id {
        "ext_reclamation" => ext_reclamation(scale),
        "ext_dlb_swap" => ext_dlb_swap(scale),
        "ext_pareto" => ext_pareto(scale),
        "ext_traces" => ext_traces(scale),
        "ext_granularity" => ext_granularity(scale),
        "ext_faults" => ext_faults(scale),
        "ext_policies" => ext_policies(scale),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            seeds: 2,
            sweep_points: 3,
            iterations: 8,
            jobs: 0,
            mtbf: None,
            fault_seed: None,
            placement: None,
        }
    }

    #[test]
    fn reclamation_makes_migration_essential() {
        let fig = ext_reclamation(&tiny());
        // At the highest reclamation duty, SWAP must crush NOTHING (the
        // reclaimed host delivers 5%; staying put is catastrophic).
        let nothing = fig.series_named("nothing").unwrap();
        let swap = fig.series_named("swap").unwrap();
        let last = nothing.points.len() - 1;
        assert!(
            swap.y(last) < nothing.y(last) * 0.7,
            "swap {} vs nothing {} under heavy reclamation",
            swap.y(last),
            nothing.y(last)
        );
        // Reclamation hurts NOTHING far more than ordinary 1-competitor
        // load would: at 5% delivered speed the whole run stalls on the
        // reclaimed host.
        assert!(
            nothing.y(last) > nothing.y(0) * 1.5,
            "reclamation barely hurt NOTHING: {} vs {}",
            nothing.y(last),
            nothing.y(0)
        );
        // CR escapes too.
        let cr = fig.series_named("cr").unwrap();
        assert!(cr.y(last) < nothing.y(last) * 0.8);
    }

    #[test]
    fn hybrid_produces_finite_series() {
        let fig = ext_dlb_swap(&tiny());
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            assert!(s.points.iter().all(|&(_, y)| y.is_finite() && y > 0.0));
        }
    }

    #[test]
    fn extension_ids_resolve() {
        for id in ALL_EXTENSIONS {
            assert!(extension_by_id(id, &tiny()).is_some());
        }
        assert!(extension_by_id("ext_nope", &tiny()).is_none());
    }

    #[test]
    fn granularity_benefit_grows_with_iteration_time() {
        let scale = Scale {
            seeds: 3,
            sweep_points: 3,
            iterations: 12,
            jobs: 0,
            mtbf: None,
            fault_seed: None,
            placement: None,
        };
        let fig = ext_granularity(&scale);
        let greedy = fig.series_named("greedy").unwrap();
        let first = greedy.y(0); // iteration ≈ swap time: marginal
        let last = greedy.y(greedy.points.len() - 1); // iteration ≫ swap time
        assert!(
            last > first,
            "benefit should grow with granularity: {first:.1}% → {last:.1}%"
        );
        assert!(
            last > 0.0,
            "coarse-grain swapping not beneficial: {last:.1}%"
        );
    }

    #[test]
    fn fault_sweep_rewards_spares_under_frequent_crashes() {
        // Recenter the sweep on a short MTBF so crashes land inside these
        // short smoke runs.
        let scale = Scale {
            seeds: 3,
            sweep_points: 3,
            iterations: 10,
            jobs: 0,
            mtbf: Some(2_000.0),
            fault_seed: Some(1),
            placement: None,
        };
        let fig = ext_faults(&scale);
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            assert!(s.points.iter().all(|&(_, y)| y.is_finite() && y > 0.0));
        }
        // At the shortest MTBF (most crashes), over-allocated SWAP —
        // which replaces dead hosts from its spare pool — must beat
        // NOTHING, which can only resubmit from scratch.
        let nothing = fig.series_named("nothing").unwrap();
        let swap = fig.series_named("swap/32").unwrap();
        assert!(
            swap.y(0) < nothing.y(0),
            "swap {} vs nothing {} at mtbf {}",
            swap.y(0),
            nothing.y(0),
            fig.series[0].points[0].0
        );
    }

    #[test]
    fn policy_tournament_specialists_beat_first_alive_in_their_regimes() {
        // Short MTBFs so crashes and storms land inside these short
        // smoke runs; the dominance claim is evaluated at the harshest
        // sweep point (x index 0).
        let scale = Scale {
            seeds: 4,
            sweep_points: 3,
            iterations: 10,
            jobs: 0,
            mtbf: Some(2_000.0),
            fault_seed: Some(1),
            placement: None,
        };
        let fig = ext_policies(&scale);
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            assert!(s.points.iter().all(|&(_, y)| y.is_finite() && y > 0.0));
        }
        // Heterogeneous-lifetime regime: ranking spares by expected
        // residual lifetime must beat probe order at the shortest MTBF.
        let first = fig.series_named("first_alive").unwrap();
        let mtbf_aware = fig.series_named("mtbf_aware").unwrap();
        assert!(
            mtbf_aware.y(0) < first.y(0),
            "mtbf_aware {} vs first_alive {} under spread-8 crashes",
            mtbf_aware.y(0),
            first.y(0)
        );
        // Correlated-shock regime: avoiding the freshly-shocked rack
        // must beat walking into it at the shortest storm MTBF.
        let first_shocks = fig.series_named("first_alive/shocks").unwrap();
        let rack_aware = fig.series_named("rack_aware/shocks").unwrap();
        assert!(
            rack_aware.y(0) < first_shocks.y(0),
            "rack_aware {} vs first_alive {} under correlated shocks",
            rack_aware.y(0),
            first_shocks.y(0)
        );
    }

    #[test]
    fn fault_sweep_is_unchanged_by_the_first_alive_placement_route() {
        // `--placement first_alive` sends every cell through the policy
        // layer; the ranking it produces is the legacy probe order, so
        // the figure must be bit-identical to the default path.
        let mut scale = Scale {
            seeds: 2,
            sweep_points: 3,
            iterations: 8,
            jobs: 0,
            mtbf: Some(2_000.0),
            fault_seed: Some(1),
            placement: None,
        };
        let legacy = ext_faults(&scale);
        scale.placement = Some(policy::PlacementChoice::FirstAlive);
        let routed = ext_faults(&scale);
        for (l, r) in legacy.series.iter().zip(&routed.series) {
            assert_eq!(l.name, r.name);
            for (lp, rp) in l.points.iter().zip(&r.points) {
                assert_eq!(lp.0.to_bits(), rp.0.to_bits(), "{}", l.name);
                assert_eq!(lp.1.to_bits(), rp.1.to_bits(), "{}", l.name);
            }
        }
    }

    #[test]
    fn pareto_sweep_keeps_swapping_viable_for_long_lifetimes() {
        let fig = ext_pareto(&tiny());
        let nothing = fig.series_named("nothing").unwrap();
        let swap = fig.series_named("swap").unwrap();
        let last = nothing.points.len() - 1;
        assert!(
            swap.y(last) < nothing.y(last),
            "swap {} vs nothing {} at the longest lifetimes",
            swap.y(last),
            nothing.y(last)
        );
    }

    #[test]
    fn diurnal_traces_preserve_swap_benefit() {
        // Diurnal phase is random per host; average over more seeds and
        // longer runs than the other smoke tests.
        let scale = Scale {
            seeds: 4,
            sweep_points: 3,
            iterations: 15,
            jobs: 0,
            mtbf: None,
            fault_seed: None,
            placement: None,
        };
        let fig = ext_traces(&scale);
        let nothing = fig.series_named("nothing").unwrap();
        let swap = fig.series_named("swap").unwrap();
        // At zero peak load, no benefit; at the heaviest diurnal load,
        // swapping must help.
        let last = nothing.points.len() - 1;
        assert!(
            swap.y(last) < nothing.y(last) * 0.97,
            "swap {} vs nothing {}",
            swap.y(last),
            nothing.y(last)
        );
        // Execution time grows with peak load for the static strategy.
        assert!(
            nothing.y(last) > nothing.y(0) * 1.1,
            "no-load {} vs peak-4 {}",
            nothing.y(0),
            nothing.y(last)
        );
    }
}
