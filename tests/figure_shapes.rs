//! Integration tests: the qualitative shapes of the paper's findings.
//!
//! These run the real experiment stack (platform generation → load
//! models → strategies → replication) at reduced scale and assert the
//! *orderings* the paper reports — who wins, where, and by roughly how
//! much — not absolute numbers.

use mpi_swap::loadmodel::{DegenerateHyperExp, HyperExpWorkload, OnOffSource};
use mpi_swap::simulator::platform::{LoadSpec, PlatformSpec};
use mpi_swap::simulator::runner::{default_seeds, Replication};
use mpi_swap::simulator::strategies::{Cr, Dlb, Nothing, Strategy, Swap};
use mpi_swap::simulator::AppSpec;

fn spec(load: LoadSpec) -> PlatformSpec {
    let mut s = PlatformSpec::hpdc03(load);
    s.horizon = 150_000.0;
    s
}

fn onoff(duty: f64) -> LoadSpec {
    LoadSpec::OnOff(OnOffSource::for_duty_cycle(duty, 0.08, 30.0))
}

fn app(n_active: usize, state: f64, iterations: usize) -> AppSpec {
    let mut a = AppSpec::hpdc03(n_active, state);
    a.iterations = iterations;
    a
}

fn mean_time(load: LoadSpec, a: &AppSpec, s: &dyn Strategy, alloc: usize, seeds: usize) -> f64 {
    Replication::new(&spec(load), a, s, alloc, &default_seeds(seeds))
        .run()
        .execution_time
        .mean
}

/// Figure 4, left edge: in a quiescent environment the techniques
/// differ only by startup/heterogeneity effects (all within ~2%+startup).
#[test]
fn quiescent_environment_makes_techniques_equivalent() {
    let a = app(4, 1e6, 15);
    let nothing = mean_time(onoff(0.0), &a, &Nothing, 4, 2);
    let swap = mean_time(onoff(0.0), &a, &Swap::greedy(), 32, 2);
    let cr = mean_time(onoff(0.0), &a, &Cr::greedy(), 32, 2);
    // 21 s extra startup for the over-allocated strategies, nothing more.
    assert!(
        (swap - nothing - 21.0).abs() < 1.0,
        "swap {swap} vs {nothing}"
    );
    assert!((cr - nothing - 21.0).abs() < 1.0, "cr {cr} vs {nothing}");
}

/// Figure 4, middle: in moderately dynamic environments SWAP, DLB and CR
/// all beat NOTHING substantially (the paper reports up to 40%).
#[test]
fn adaptive_techniques_win_in_moderately_dynamic_environments() {
    let a = app(4, 1e6, 25);
    let seeds = 6;
    let nothing = mean_time(onoff(0.5), &a, &Nothing, 4, seeds);
    let swap = mean_time(onoff(0.5), &a, &Swap::greedy(), 32, seeds);
    let dlb = mean_time(onoff(0.5), &a, &Dlb, 4, seeds);
    let cr = mean_time(onoff(0.5), &a, &Cr::greedy(), 32, seeds);
    for (name, t) in [("swap", swap), ("dlb", dlb), ("cr", cr)] {
        assert!(
            t < nothing * 0.92,
            "{name} ({t:.0}) should beat nothing ({nothing:.0}) by >8%"
        );
    }
    // And SWAP is on par with (here: at least 90% as good as) DLB.
    assert!(
        swap < dlb * 1.1,
        "swap ({swap:.0}) should be on par with ideal DLB ({dlb:.0})"
    );
}

/// Figure 5: swapping benefit grows with over-allocation.
#[test]
fn more_overallocation_means_more_swap_benefit() {
    let a = app(8, 1e6, 20);
    let seeds = 5;
    let t_0 = mean_time(onoff(0.4), &a, &Swap::greedy(), 8, seeds); // no spares
    let t_100 = mean_time(onoff(0.4), &a, &Swap::greedy(), 16, seeds);
    let t_300 = mean_time(onoff(0.4), &a, &Swap::greedy(), 32, seeds);
    assert!(
        t_100 < t_0,
        "100% over-allocation ({t_100:.0}) should beat 0% ({t_0:.0})"
    );
    assert!(
        t_300 < t_0 * 0.95,
        "300% over-allocation ({t_300:.0}) should clearly beat 0% ({t_0:.0})"
    );
}

/// Figure 6: SWAP flips from beneficial at 1 MB state to harmful at 1 GB
/// (swap time ≫ iteration time).
#[test]
fn large_process_state_makes_swapping_harmful() {
    let seeds = 5;
    let small = app(4, 1e6, 20);
    let large = app(4, 1e9, 20);
    let nothing = mean_time(onoff(0.5), &small, &Nothing, 4, seeds);
    let swap_small = mean_time(onoff(0.5), &small, &Swap::greedy(), 32, seeds);
    let swap_large = mean_time(onoff(0.5), &large, &Swap::greedy(), 32, seeds);
    assert!(
        swap_small < nothing,
        "1 MB swapping ({swap_small:.0}) should beat nothing ({nothing:.0})"
    );
    assert!(
        swap_large > nothing,
        "1 GB swapping ({swap_large:.0}) should be harmful vs nothing ({nothing:.0})"
    );
    assert!(swap_large > swap_small * 1.5, "state size should dominate");
}

/// Figure 7/8 orderings: greedy gives the largest boost in moderate
/// dynamism; with 1 GB state only safe is tolerable.
#[test]
fn policy_risk_ordering_holds() {
    let seeds = 6;
    // Moderate dynamism, 100 MB state: greedy beats NOTHING and is at
    // least on par with safe (greedy's eagerness pays off while
    // conditions are forecastable).
    let a7 = app(4, 1e8, 40);
    let greedy = mean_time(onoff(0.3), &a7, &Swap::greedy(), 32, seeds);
    let safe = mean_time(onoff(0.3), &a7, &Swap::safe(), 32, seeds);
    let nothing = mean_time(onoff(0.3), &a7, &Nothing, 4, seeds);
    assert!(
        greedy < nothing,
        "greedy ({greedy:.0}) vs nothing ({nothing:.0})"
    );
    assert!(
        greedy <= safe * 1.05,
        "greedy ({greedy:.0}) should be at least on par with safe ({safe:.0}) here"
    );

    // 1 GB state: greedy thrashes, safe holds near NOTHING.
    let a8 = app(2, 1e9, 25);
    let greedy8 = mean_time(onoff(0.6), &a8, &Swap::greedy(), 32, seeds);
    let safe8 = mean_time(onoff(0.6), &a8, &Swap::safe(), 32, seeds);
    let nothing8 = mean_time(onoff(0.6), &a8, &Nothing, 2, seeds);
    assert!(
        safe8 < greedy8,
        "safe ({safe8:.0}) must beat greedy ({greedy8:.0}) at 1 GB state"
    );
    assert!(
        safe8 < nothing8 * 1.15,
        "safe ({safe8:.0}) should stay near nothing ({nothing8:.0})"
    );
}

/// Figure 9: swapping stays viable under the heavy-tailed
/// hyperexponential load model once competing processes live long.
#[test]
fn swapping_remains_viable_under_hyperexponential_load() {
    let a = app(4, 1e6, 20);
    let seeds = 5;
    let load = LoadSpec::HyperExp(HyperExpWorkload::new(
        DegenerateHyperExp::new(2000.0, 0.4),
        1.0 / 600.0,
    ));
    let nothing = mean_time(load, &a, &Nothing, 4, seeds);
    let swap = mean_time(load, &a, &Swap::greedy(), 32, seeds);
    assert!(
        swap < nothing * 0.9,
        "swap ({swap:.0}) should beat nothing ({nothing:.0}) under long-lived load"
    );
}

/// The friendly policy leaves fast processors alone when the application
/// would not measurably benefit. Holding the predictor fixed, adding the
/// 2% application-improvement gate can only remove swaps at a decision
/// point — so with exactly one decision point (a 2-iteration run, both
/// policies seeing identical measurements), friendly ⊆ ungated on every
/// seed. (Across longer runs trajectories diverge after the first
/// differing decision, so no global nesting is claimed — or true.)
#[test]
fn app_improvement_gate_only_removes_swaps() {
    use mpi_swap::swap_core::PolicyParams;
    let a = app(4, 1e6, 2);
    let friendly = PolicyParams::friendly();
    let ungated = friendly.with_min_app_improvement(0.0);
    // Random platforms: subset property on every seed.
    for seed in 0..8 {
        let platform = spec(onoff(0.5)).realize(seed);
        let ctx = mpi_swap::simulator::strategies::RunContext::new(&platform, &a, 32);
        let g = Swap::new(friendly).run(&ctx);
        let u = Swap::new(ungated).run(&ctx);
        assert!(
            g.adaptations <= u.adaptations,
            "seed {seed}: gated {} > ungated {}",
            g.adaptations,
            u.adaptations
        );
    }

    // A crafted platform where the gate provably bites: both active
    // hosts equally loaded, one barely-faster spare. Swapping one active
    // leaves the application bottlenecked on the other (0% app gain), so
    // friendly refuses what the ungated policy takes — "the application
    // will be less likely to needlessly hoard fast processors".
    use mpi_swap::loadmodel::LoadTrace;
    use mpi_swap::simulator::platform::{Host, Platform};
    let loaded = LoadTrace::from_intervals([(0.0, 1e9)]);
    // The would-be spare is briefly crushed at t=0 (so the initial
    // schedule passes it over) and idle afterwards.
    let briefly_crushed = LoadTrace::from_intervals([(0.0, 5.0); 8]);
    let crafted = Platform {
        hosts: vec![
            Host::new(3.0e8, loaded.clone()),  // active, delivers 1.5e8
            Host::new(3.0e8, loaded),          // active, delivers 1.5e8
            Host::new(3.2e8, briefly_crushed), // spare after startup: 3.2e8
        ],
        link: mpi_swap::simkit::link::SharedLink::hpdc03_lan(),
        startup_per_process: 0.75,
    };
    let mut a2 = a;
    a2.n_active = 2;
    let ctx = mpi_swap::simulator::strategies::RunContext::new(&crafted, &a2, 3);
    let g = Swap::new(friendly).run(&ctx);
    let u = Swap::new(ungated).run(&ctx);
    assert_eq!(g.adaptations, 0, "friendly must not hoard the spare");
    assert!(
        u.adaptations >= 1,
        "the ungated policy should take the swap"
    );
}
