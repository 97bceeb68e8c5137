//! Desktop-grid owner reclamation, live: scripted evictions in the
//! thread-based runtime plus the simulated reclamation sweep.
//!
//! ```sh
//! cargo run --release --example reclamation
//! ```
//!
//! §2 of the paper: "These [cycle-stealing] systems evict application
//! processes when a resource is reclaimed by its owner. By combining our
//! swapping policies with this eviction mechanism, a process might also
//! be evicted and migrated for application performance reasons."
//! Part 1 shows the mechanism (forced migrations in `minimpi`, identical
//! numerics); part 2 shows the policy side (the simulated SWAP strategy
//! escaping reclaimed hosts).

use mpi_swap::loadmodel::OnOffSource;
use mpi_swap::minimpi::apps::JacobiApp;
use mpi_swap::minimpi::runtime::{run_iterative, RuntimeConfig};
use mpi_swap::simulator::platform::{LoadSpec, PlatformSpec};
use mpi_swap::simulator::runner::{default_seeds, Replication};
use mpi_swap::simulator::strategies::{Nothing, Swap};
use mpi_swap::simulator::AppSpec;

fn main() {
    // ---- Part 1: the live mechanism --------------------------------
    let app = JacobiApp { cells_per_rank: 48 };
    let baseline = run_iterative(RuntimeConfig::new(3, 3, 20), app);

    let mut cfg = RuntimeConfig::new(6, 3, 20);
    // Owners return to workers 0 and 2 mid-run.
    cfg.evictions = vec![(5, 0), (12, 2)];
    let evicted = run_iterative(cfg, app);

    println!("live runtime: 3 active + 3 spare workers, 20 iterations");
    for e in &evicted.swap_events {
        println!(
            "  iter {:>3}: owner reclaimed worker {} -> slot {} migrated to worker {}",
            e.iter, e.from_worker, e.slot, e.to_worker
        );
    }
    println!("final placement: {:?}", evicted.final_placement);
    let identical = baseline.final_states == evicted.final_states;
    println!(
        "numerics identical to uninterrupted run: {}\n",
        if identical { "YES" } else { "NO (bug!)" }
    );
    assert!(identical);

    // ---- Part 2: the policy side, simulated -------------------------
    // Owners present 40% of the time; a reclaimed host gives the guest
    // 5% of the CPU.
    let load = LoadSpec::Reclamation {
        source: OnOffSource::for_duty_cycle(0.4, 0.04, 30.0),
        weight: 19.0,
    };
    let mut spec = PlatformSpec::hpdc03(load);
    spec.horizon = 150_000.0;
    let sim_app = AppSpec::hpdc03(4, 1.0e6);
    let seeds = default_seeds(8);

    let nothing = Replication::new(&spec, &sim_app, &Nothing, 4, &seeds).run();
    let swap = Replication::new(&spec, &sim_app, &Swap::greedy(), 32, &seeds).run();
    println!("simulated reclamation sweep point (owner duty 0.4, weight 19):");
    println!(
        "  nothing: {:>7.0} s    swap(greedy): {:>7.0} s  ({:.0}% better, {:.1} swaps/run)",
        nothing.execution_time.mean,
        swap.execution_time.mean,
        100.0 * (1.0 - swap.execution_time.mean / nothing.execution_time.mean),
        swap.mean_adaptations,
    );
    println!("\nfull sweep: cargo run -p experiments --bin swapsim -- ext_reclamation");
}
