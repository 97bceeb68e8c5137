//! Policy explorer: sweep the policy parameter space on the simulator.
//!
//! ```sh
//! cargo run --release --example policy_explorer
//! ```
//!
//! §4.1 defines the four policy knobs; the three named policies are just
//! points in that space. This example sweeps the payback threshold and
//! the history window around the paper's values and prints the execution
//! time each combination achieves, exposing the risk/benefit trade-off
//! the paper describes.

use mpi_swap::loadmodel::OnOffSource;
use mpi_swap::simulator::platform::LoadSpec;
use mpi_swap::simulator::runner::{default_seeds, Replication};
use mpi_swap::simulator::strategies::{Nothing, Swap};
use mpi_swap::simulator::{AppSpec, PlatformSpec};
use mpi_swap::swap_core::{HistoryWindow, PolicyParams, Predictor};

fn main() {
    // 100 MB state (the Figure 7 regime, where the payback threshold
    // actually discriminates) under a moderately dynamic environment.
    let load = LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.5, 0.08, 30.0));
    let platform = PlatformSpec::hpdc03(load);
    let app = AppSpec::hpdc03(4, 1.0e8);
    let seeds = default_seeds(6);

    let nothing = Replication::new(&platform, &app, &Nothing, 4, &seeds)
        .run()
        .execution_time
        .mean;
    println!("NOTHING baseline: {nothing:.0} s\n");

    let paybacks = [0.25, 0.5, 1.0, 2.0, f64::INFINITY];
    let histories = [0.0, 60.0, 300.0, 900.0];

    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>10}",
        "payback", "history", "exec time", "vs nothing", "swaps"
    );
    for &pb in &paybacks {
        for &h in &histories {
            let policy = PolicyParams::greedy()
                .with_payback_threshold(pb)
                .with_history(HistoryWindow::seconds(h))
                .with_predictor(if h == 0.0 {
                    Predictor::LastValue
                } else {
                    Predictor::WindowedMean
                });
            let r = Replication::new(&platform, &app, &Swap::new(policy), 32, &seeds).run();
            println!(
                "{:<10} {:>8.0} s {:>10.0} s {:>+11.1}% {:>10.1}",
                if pb.is_finite() {
                    format!("{pb:.2}")
                } else {
                    "inf".to_owned()
                },
                h,
                r.execution_time.mean,
                100.0 * (1.0 - r.execution_time.mean / nothing),
                r.mean_adaptations
            );
        }
    }

    println!("\nnamed policies at the same operating point:");
    for (name, s) in [
        ("greedy", Swap::greedy()),
        ("safe", Swap::safe()),
        ("friendly", Swap::friendly()),
    ] {
        let r = Replication::new(&platform, &app, &s, 32, &seeds).run();
        println!(
            "  {:<10} {:>8.0} s ({:+.1}% vs nothing, {:.1} swaps)",
            name,
            r.execution_time.mean,
            100.0 * (1.0 - r.execution_time.mean / nothing),
            r.mean_adaptations
        );
    }
}
