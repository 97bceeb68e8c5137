//! Quickstart: compare the four execution strategies on one simulated
//! platform.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's platform (32 time-shared workstations, shared
//! 6 MB/s LAN), puts a 4-process iterative application on it under a
//! moderately dynamic ON/OFF load, and prints execution time and
//! adaptation counts for NOTHING, SWAP(greedy), DLB and CR.

use mpi_swap::loadmodel::OnOffSource;
use mpi_swap::simulator::platform::LoadSpec;
use mpi_swap::simulator::runner::{default_seeds, Replication};
use mpi_swap::simulator::strategies::{Cr, Dlb, Nothing, Strategy, Swap};
use mpi_swap::simulator::{AppSpec, PlatformSpec};

fn main() {
    // A moderately dynamic environment: hosts are loaded half the time,
    // with load events lasting ~6 application iterations.
    let load = LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.5, 0.08, 30.0));
    let platform = PlatformSpec::hpdc03(load);

    // N = 4 active processes, 1 MB of process state, 50 iterations of
    // ~60 s each.
    let app = AppSpec::hpdc03(4, 1.0e6);
    let seeds = default_seeds(8);

    let strategies: Vec<(Box<dyn Strategy>, usize)> = vec![
        (Box::new(Nothing), 4),         // no over-allocation
        (Box::new(Swap::greedy()), 32), // over-allocate everything
        (Box::new(Dlb), 4),
        (Box::new(Cr::greedy()), 32),
    ];

    println!("platform: 32 hosts, 200-400 Mflop/s, 6 MB/s shared LAN");
    println!(
        "app:      N=4, 1.8e10 flops/proc/iter, 1 MB state, {} iterations",
        app.iterations
    );
    println!("load:     ON/OFF, duty 0.50, mean busy period 375 s");
    println!("seeds:    {} replications\n", seeds.len());
    println!(
        "{:<14} {:>12} {:>8} {:>12} {:>12}",
        "strategy", "exec time", "±stderr", "adaptations", "adapt time"
    );
    let mut baseline = None;
    for (strategy, alloc) in &strategies {
        let r = Replication::new(&platform, &app, strategy.as_ref(), *alloc, &seeds).run();
        if baseline.is_none() {
            baseline = Some(r.execution_time.mean);
        }
        let vs = 100.0 * (1.0 - r.execution_time.mean / baseline.unwrap());
        println!(
            "{:<14} {:>10.0} s {:>8.0} {:>12.1} {:>10.1} s   ({:+.1}% vs nothing)",
            r.strategy,
            r.execution_time.mean,
            r.execution_time.stderr,
            r.mean_adaptations,
            r.mean_adapt_time,
            vs
        );
    }

    // Show where one SWAP run actually computed: host occupancy over time
    // (swaps show up as one row ending where another begins).
    let platform_inst = platform.realize(0);
    let ctx = mpi_swap::simulator::strategies::RunContext::new(&platform_inst, &app, 32);
    let run = Swap::greedy().run(&ctx);
    println!("\nhost occupancy of one swap(greedy) run (seed 0):\n");
    print!("{}", mpi_swap::simulator::gantt::render_ascii(&run, 64));

    println!("\nSWAP achieves DLB-class benefit with a 3-line code change;");
    println!("see examples/jacobi_swap.rs for the live (non-simulated) runtime.");
}
