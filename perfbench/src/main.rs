//! `perfbench`: a one-thread benchmark of the swap simulator's public
//! entry points, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --print-expected long_swap|counts   # regenerate expected/*.tsv
//! ```
//!
//! Run it from the repository root: it reads the committed `results/`
//! oracle and `perfbench/expected/`. Every workload is a closed loop with
//! one client running whole passes of a fixed cycle of ops; the seed only
//! picks which group of the cycle comes first, so every run does the same
//! work, and each pass's counts must equal `expected/counts.tsv`. The last
//! line of stdout is the JSON result; `perfbench/README.md` describes the
//! workloads and metrics.

mod calib;
mod driver;
mod grid;
mod layers;
mod long_swap;
mod replicate;
mod sys;
mod trace_export;

use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload figure_sweep|long_swap|policy_tournament|trace_export \
--seed N --seconds S --trace 0|1\n       perfbench --print-expected long_swap|counts";

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Prints the committed per-pass counts of every workload.
fn print_counts() -> Result<(), String> {
    let passes = [
        (
            "figure_sweep",
            driver::pass_counts(grid::Grid::figure_sweep)?,
        ),
        ("long_swap", driver::pass_counts(long_swap::LongSwap::new)?),
        (
            "policy_tournament",
            driver::pass_counts(grid::Grid::policy_tournament)?,
        ),
        (
            "trace_export",
            driver::pass_counts(trace_export::TraceExport::new)?,
        ),
    ];
    println!("# workload\tcount\tvalue");
    for (name, counts) in passes {
        for (count, value) in counts {
            println!("{name}\t{count}\t{value}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, what] = &argv[..] {
        if flag == "--print-expected" {
            match what.as_str() {
                "long_swap" => long_swap::print_expected(),
                "counts" => {
                    if let Err(e) = print_counts() {
                        eprintln!("perfbench: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                _ => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            }
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "figure_sweep" => driver::run(grid::Grid::figure_sweep, &args),
        "policy_tournament" => driver::run(grid::Grid::policy_tournament, &args),
        "long_swap" => driver::run(long_swap::LongSwap::new, &args),
        "trace_export" => driver::run(trace_export::TraceExport::new, &args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
