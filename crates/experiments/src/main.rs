//! `swapsim` — regenerate the paper's figures.
//!
//! ```text
//! swapsim all [--quick] [--jobs N] [--out DIR]     regenerate every figure
//! swapsim fig4 [--quick] [--jobs N] [--out DIR]    regenerate one figure
//! swapsim trace [scenario] [--quick] [--out DIR]   traced run: JSONL + Chrome + audit
//! swapsim protocol [...] [--trace PATH]            one decision round through the DES
//! swapsim list                                     list figure ids and contents
//! ```
//!
//! Each figure is written as `DIR/<id>.csv` (plus `<id>.json` with full
//! metadata, `<id>.timing.json` with the wall-clock breakdown, and —
//! for swept studies — `<id>.metrics.json` derived from the study's
//! deterministic trace). Batch commands (`all`, `ablations`,
//! `extensions`, `report`) also write a `manifest.json` inventory.
//! Figures render as ASCII charts on stdout.
//!
//! `--jobs N` fans the sweep grid out over N worker threads (`0`, the
//! default, uses all available parallelism; `1` is fully serial). The
//! CSV/JSON/metrics payloads are bit-identical at every setting — only
//! the timing file and wall-clock change.

use experiments::ablations::ALL_ABLATIONS;
use experiments::extensions::ALL_EXTENSIONS;
use experiments::figures::ALL_FIGURES;
use experiments::output::{write_manifest, Manifest};
use experiments::report::{render_markdown, run_report_timed_with, REPORT_FIGURES};
use experiments::schedule::{self, GeneratedFigure, Weights};
use experiments::Scale;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }

    let quick = args.iter().any(|a| a == "--quick");
    let out_dir: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    let jobs: usize = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--jobs expects a number (0 = auto), got '{v}'");
                std::process::exit(2);
            })
        })
        .unwrap_or(0);
    let trace_path: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let mtbf: Option<f64> = args
        .iter()
        .position(|a| a == "--mtbf")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--mtbf expects seconds (0 = faults off), got '{v}'");
                std::process::exit(2);
            })
        });
    let fault_seed: Option<u64> = args
        .iter()
        .position(|a| a == "--fault-seed")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--fault-seed expects an integer, got '{v}'");
                std::process::exit(2);
            })
        });
    let placement: Option<policy::PlacementChoice> = args
        .iter()
        .position(|a| a == "--placement")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            policy::PlacementChoice::parse(v).unwrap_or_else(|| {
                eprintln!("--placement expects first_alive|mtbf_aware|rack_aware, got '{v}'");
                std::process::exit(2);
            })
        });
    let mut scale = if quick { Scale::quick() } else { Scale::full() };
    scale.jobs = jobs;
    scale.mtbf = mtbf;
    scale.fault_seed = fault_seed;
    scale.placement = placement;

    // Refuse --trace where it would be silently ignored. Figure sweeps
    // aggregate thousands of cells, so study ids trace their
    // representative scenario (experiments::studies) instead of the
    // sweep itself; only the analytic fig1–fig3 have nothing to trace.
    let traceable = matches!(
        args[0].as_str(),
        "run" | "gantt" | "protocol" | "all" | "ablations" | "extensions" | "faults" | "policy"
    ) || experiments::studies::has_study(&args[0]);
    if trace_path.is_some() && !traceable {
        eprintln!(
            "--trace is supported by 'swapsim run', 'swapsim gantt', 'swapsim protocol', \
             batch commands (all/ablations/extensions), and swept study ids; \
             use 'swapsim trace [scenario.json]' for the full export set"
        );
        std::process::exit(2);
    }

    match args[0].as_str() {
        "list" => {
            println!("figures:");
            for id in ALL_FIGURES {
                println!("  {id}");
            }
            println!("ablations:");
            for id in ALL_ABLATIONS {
                println!("  {id}");
            }
            println!("extensions:");
            for id in ALL_EXTENSIONS {
                println!("  {id}");
            }
            println!("other commands:");
            println!("  report    paper-vs-measured verification table");
            println!("  compare   all strategies at one operating point");
            println!("  gantt     host-occupancy chart of one run");
            println!("  policy    evaluate a custom PolicyParams JSON, or 'policy placements'");
            println!("            for the spare-placement tournament under faults");
            println!("  tune      grid-search the policy space at an operating point");
            println!("  scenario  print a scenario JSON template");
            println!("  run       execute a scenario file (swapsim run exp.json)");
            println!("  trace     run a scenario with full tracing (JSONL, Chrome trace, audit)");
            println!("  protocol  simulate one manager decision round through the link DES");
            println!("  faults    compare strategies under deterministic fault injection");
        }
        "all" => run_figures(
            &ALL_FIGURES,
            &scale,
            &out_dir,
            trace_path.as_deref(),
            Some("all"),
        ),
        "ablations" => run_figures(
            &ALL_ABLATIONS,
            &scale,
            &out_dir,
            trace_path.as_deref(),
            Some("ablations"),
        ),
        "extensions" => run_figures(
            &ALL_EXTENSIONS,
            &scale,
            &out_dir,
            trace_path.as_deref(),
            Some("extensions"),
        ),
        "policy" => {
            // swapsim policy placements [mtbf] [duty] [state_bytes]:
            // spare-placement policies head-to-head under faults.
            // swapsim policy <file.json|--template> [duty] [state_bytes]:
            // evaluate a custom swapping policy (serde JSON of PolicyParams).
            match args.get(1).map(String::as_str) {
                Some("placements") => {
                    let m: f64 = mtbf
                        .or_else(|| args.get(2).and_then(|s| s.parse().ok()))
                        .unwrap_or(3_000.0);
                    let duty: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0.5);
                    let state: f64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(1e8);
                    run_placement_tournament(
                        m,
                        fault_seed.unwrap_or(0),
                        duty,
                        state,
                        &scale,
                        trace_path.as_deref(),
                    );
                }
                Some("--template") | None => {
                    let template = swap_core::PolicyParams::safe();
                    println!(
                        "{}",
                        serde_json::to_string_pretty(&template).expect("serializes")
                    );
                    // Hint goes to stderr so `--template > policy.json`
                    // yields a file that parses.
                    eprintln!("\n# save as policy.json, edit, then: swapsim policy policy.json");
                }
                Some(path) => {
                    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                        eprintln!("cannot read {path}: {e}");
                        std::process::exit(2);
                    });
                    let policy: swap_core::PolicyParams = serde_json::from_str(&text)
                        .unwrap_or_else(|e| {
                            eprintln!("{path} is not a valid PolicyParams JSON: {e}");
                            std::process::exit(2);
                        });
                    let duty: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.5);
                    let state: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1e8);
                    run_policy_eval(policy, duty, state, &scale);
                }
            }
        }
        "scenario" => {
            // swapsim scenario --template: print a scenario JSON template.
            println!(
                "{}",
                serde_json::to_string_pretty(&experiments::scenario::Scenario::template())
                    .expect("serializes")
            );
        }
        "run" => {
            // swapsim run <scenario.json>: execute a scenario file.
            let path = args.get(1).unwrap_or_else(|| {
                eprintln!("usage: swapsim run <scenario.json>");
                std::process::exit(2);
            });
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            let mut scenario: experiments::scenario::Scenario = serde_json::from_str(&text)
                .unwrap_or_else(|e| {
                    eprintln!("{path} is not a valid scenario: {e}");
                    std::process::exit(2);
                });
            // An explicit --jobs overrides the scenario document's knob,
            // and --mtbf/--fault-seed override its faults block
            // (--mtbf 0 turns fault injection off entirely).
            if args.iter().any(|a| a == "--jobs") {
                scenario.jobs = jobs;
            }
            if let Some(m) = mtbf {
                scenario.faults = Some(faults::FaultSpec::crashes_only(m, fault_seed.unwrap_or(0)));
            } else if let (Some(fs), Some(s)) = (fault_seed, scenario.faults.as_mut()) {
                s.fault_seed = fs;
            }
            let t0 = Instant::now();
            let results = match &trace_path {
                Some(path) => {
                    let (results, bundle) = scenario.run_traced();
                    write_trace_file(&bundle, path);
                    results
                }
                None => scenario.run(),
            };
            println!(
                "{:<16} {:>9} {:>9} {:>9} {:>9} {:>8}",
                "strategy", "mean [s]", "p10", "median", "p90", "adapts"
            );
            for r in &results {
                let e = r.execution_time;
                println!(
                    "{:<16} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>8.1}",
                    r.strategy, e.mean, e.p10, e.median, e.p90, r.mean_adaptations
                );
            }
            eprintln!(
                "{} strategies x {} replications in {:.1}s",
                results.len(),
                scenario.replications,
                t0.elapsed().as_secs_f64()
            );
        }
        "trace" => {
            // swapsim trace [scenario.json] [--quick] [--jobs N] [--out DIR]:
            // run a scenario (the template when no file is given) with
            // tracing on and export every format.
            let mut scenario = match args.get(1).filter(|a| !a.starts_with("--")) {
                Some(path) => {
                    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                        eprintln!("cannot read {path}: {e}");
                        std::process::exit(2);
                    });
                    serde_json::from_str(&text).unwrap_or_else(|e| {
                        eprintln!("{path} is not a valid scenario: {e}");
                        std::process::exit(2);
                    })
                }
                None => {
                    let mut s = experiments::scenario::Scenario::template();
                    if quick {
                        s.replications = 2;
                        s.app.iterations = s.app.iterations.min(scale.iterations);
                    }
                    s
                }
            };
            if args.iter().any(|a| a == "--jobs") {
                scenario.jobs = jobs;
            }
            let t0 = Instant::now();
            let (results, bundle) = scenario.run_traced();
            std::fs::create_dir_all(&out_dir).expect("cannot create output directory");

            // JSONL event log — self-validated by a lossless round-trip.
            let jsonl = obs::jsonl::to_jsonl(&bundle);
            match obs::jsonl::from_jsonl(&jsonl) {
                Ok(back) if back == bundle => {}
                Ok(_) => {
                    eprintln!("JSONL round-trip lost events");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("JSONL failed self-validation: {e}");
                    std::process::exit(1);
                }
            }
            let jsonl_path = out_dir.join("trace.jsonl");
            std::fs::write(&jsonl_path, &jsonl).expect("cannot write trace JSONL");

            // Chrome trace-event JSON (load in Perfetto / chrome://tracing).
            let chrome = obs::chrome::to_chrome_trace(&bundle);
            let chrome_events = obs::chrome::validate_chrome_trace(&chrome).unwrap_or_else(|e| {
                eprintln!("Chrome trace failed self-validation: {e}");
                std::process::exit(1);
            });
            let chrome_path = out_dir.join("trace.chrome.json");
            std::fs::write(&chrome_path, &chrome).expect("cannot write Chrome trace");

            // Derived metrics and the decision audit.
            let metrics = obs::Metrics::from_bundle(&bundle);
            let metrics_path = out_dir.join("trace.metrics.json");
            std::fs::write(
                &metrics_path,
                serde_json::to_string_pretty(&metrics).expect("metrics serialize"),
            )
            .expect("cannot write metrics JSON");
            let audit = obs::audit::render(&bundle);
            let audit_path = out_dir.join("trace.audit.txt");
            std::fs::write(&audit_path, &audit).expect("cannot write audit");

            // Data to stdout: the decision audit and the metrics table.
            print!("{audit}");
            println!("{}", metrics.render());
            eprintln!(
                "traced {} strategies x {} replications: {} events in {:.1}s",
                results.len(),
                scenario.replications,
                bundle.event_count(),
                t0.elapsed().as_secs_f64()
            );
            eprintln!(
                "wrote {} ({} events)",
                jsonl_path.display(),
                bundle.event_count()
            );
            eprintln!(
                "wrote {} ({chrome_events} Chrome events)",
                chrome_path.display()
            );
            eprintln!("wrote {}", metrics_path.display());
            eprintln!("wrote {}", audit_path.display());
        }
        "protocol" => {
            // swapsim protocol [n_active] [n_spares] [state_bytes] [swaps]
            // [--trace PATH]: one manager decision round through the
            // shared-link DES, with the full observability pipeline.
            let n_active: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
            let n_spares: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(28);
            let state: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1.0e6);
            let swaps: usize = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(1);
            let params =
                simulator::protocol::ProtocolParams::hpdc03(n_active, n_spares, state, swaps);
            let (sink, collector) = obs::SharedSink::collector();
            let outcome = simulator::protocol::simulate_decision_round_traced(&params, &sink);
            let mut bundle = obs::TraceBundle::new();
            bundle.push("protocol", 0, collector.snapshot());

            println!(
                "decision round: {n_active} active + {n_spares} spares, {state:.0} B state, {swaps} swap(s)"
            );
            println!(
                "  decision ready       {:>10.6} s\n  directives delivered {:>10.6} s\n  round complete       {:>10.6} s",
                outcome.decision_ready, outcome.directives_delivered, outcome.round_complete
            );
            println!(
                "  {} messages, link busy {:.6} s, control overhead {:.6} s",
                outcome.messages,
                outcome.link_busy,
                outcome.control_overhead(&params)
            );
            print!("{}", obs::audit::render(&bundle));
            println!("{}", obs::Metrics::from_bundle(&bundle).render());
            if let Some(path) = &trace_path {
                write_trace_file(&bundle, path);
            }
        }
        "faults" => {
            // swapsim faults [mtbf] [duty] [state_bytes]: every strategy
            // against deterministic crash injection at one operating
            // point, with failure/recovery accounting.
            let mtbf_pos: Option<f64> = args.get(1).and_then(|s| s.parse().ok());
            let m = mtbf.or(mtbf_pos).unwrap_or(3_000.0);
            let duty: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.5);
            let state: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1e8);
            run_faults_compare(
                m,
                fault_seed.unwrap_or(0),
                duty,
                state,
                &scale,
                trace_path.as_deref(),
            );
        }
        "tune" => {
            // swapsim tune [duty] [state_bytes]: grid-search the policy
            // space at one operating point.
            let duty: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.5);
            let state: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1e8);
            let (nothing, results) = experiments::tuner::tune(duty, state, &scale);
            println!(
                "policy grid search at duty {duty}, state {state:.0} B ({} policies, NOTHING = {nothing:.0} s)\n",
                results.len()
            );
            println!(
                "{:<9} {:>8} {:>10} {:>10} {:>9} {:>8}",
                "payback", "history", "min_improv", "time [s]", "benefit", "swaps"
            );
            for r in results.iter().take(10) {
                println!(
                    "{:<9} {:>6.0} s {:>9.0}% {:>10.0} {:>8.1}% {:>8.1}",
                    if r.policy.payback_threshold.is_finite() {
                        format!("{:.2}", r.policy.payback_threshold)
                    } else {
                        "inf".to_owned()
                    },
                    r.policy.history.secs(),
                    r.policy.min_process_improvement * 100.0,
                    r.mean_time,
                    r.benefit * 100.0,
                    r.adaptations
                );
            }
            println!("\n(named policies for reference: greedy=inf/0s/0%, safe=0.5/300s/20%, friendly=inf/60s/0%+2% app gate)");
        }
        "compare" => {
            // swapsim compare [duty] [state_bytes] [n_active] [alloc]:
            // one operating point, every strategy, with spread statistics.
            let duty: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.5);
            let state: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1e6);
            let n_active: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(4);
            let alloc: usize = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(32);
            run_compare(duty, state, n_active, alloc, &scale);
        }
        "gantt" => {
            // swapsim gantt [strategy] [duty] [seed]: render one run's
            // host occupancy.
            let strategy_name = args.get(1).map(String::as_str).unwrap_or("swap");
            let duty: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.5);
            let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0);
            run_gantt(strategy_name, duty, seed, &scale, trace_path.as_deref());
        }
        "report" => {
            let t0 = Instant::now();
            // Self-tuning loop: a previous report run's timing artifacts
            // in the same output directory replace the static weight
            // table, so the queue orders figures by *measured* cost.
            let weights = Weights::from_dir(&out_dir, &REPORT_FIGURES);
            let (checks, generated) = run_report_timed_with(&scale, &weights);
            let md = render_markdown(&checks);
            std::fs::create_dir_all(&out_dir).expect("cannot create output directory");
            let path = out_dir.join("report.md");
            std::fs::write(&path, &md).expect("cannot write report");
            // Full artifact set per generated figure — csv, json,
            // timing, metrics — plus the run's manifest.
            let mut manifest = Manifest::new("report", &scale);
            for (&id, g) in REPORT_FIGURES.iter().zip(&generated) {
                let artifacts = experiments::output::write_artifacts(
                    &out_dir,
                    &g.fig,
                    Some(&g.timing),
                    g.metrics.as_ref(),
                );
                manifest.push(id, &artifacts, g.timing.elapsed_secs);
            }
            let manifest_path = write_manifest(&out_dir, &manifest);
            println!("{md}");
            let elapsed = t0.elapsed().as_secs_f64();
            let busy: f64 = generated.iter().map(|g| g.timing.busy_secs).sum();
            let workers = generated
                .iter()
                .map(|g| g.timing.jobs_effective)
                .max()
                .unwrap_or(1);
            eprintln!(
                "wrote {} ({} figures through one {workers}-worker queue: busy {busy:.1}s over {elapsed:.1}s wall, global utilization {:.0}%)",
                path.display(),
                generated.len(),
                100.0 * busy / (workers as f64 * elapsed).max(f64::EPSILON)
            );
            eprintln!("wrote {}", manifest_path.display());
        }
        id if ALL_FIGURES.contains(&id)
            || ALL_ABLATIONS.contains(&id)
            || ALL_EXTENSIONS.contains(&id) =>
        {
            run_figures(&[id], &scale, &out_dir, trace_path.as_deref(), None);
        }
        other => {
            eprintln!("unknown command '{other}'");
            usage_and_exit();
        }
    }
}

/// Generates `ids` through the cross-figure scheduler (one shared
/// worker-pool queue, heaviest figures first) and streams each figure's
/// artifacts/chart in the given order as results become available.
///
/// With `--trace PATH`: a single id writes its study trace to PATH
/// itself; batch runs treat PATH as a directory and write one
/// `<id>.trace.jsonl` per traced figure. `manifest_command` (set for
/// the batch commands) additionally writes a `manifest.json` inventory
/// under `out_dir`.
fn run_figures(
    ids: &[&str],
    scale: &Scale,
    out_dir: &Path,
    trace_path: Option<&Path>,
    manifest_command: Option<&str>,
) {
    let batch = ids.len() > 1;
    let mut manifest = manifest_command.map(|cmd| Manifest::new(cmd, scale));
    schedule::generate_each(ids, scale, |id, generated| {
        let (generated, artifacts) = emit_figure(id, generated, out_dir);
        match (&trace_path, &generated.trace) {
            (Some(path), Some(trace)) => {
                let file = if batch {
                    path.join(format!("{id}.trace.jsonl"))
                } else {
                    path.to_path_buf()
                };
                write_trace_file(trace, &file);
            }
            (Some(_), None) => {
                eprintln!("note: {id} is analytic (no simulation runs), nothing to trace");
            }
            (None, _) => {}
        }
        if let Some(m) = manifest.as_mut() {
            m.push(id, &artifacts, generated.timing.elapsed_secs);
        }
    });
    if let Some(m) = &manifest {
        let path = write_manifest(out_dir, m);
        eprintln!("wrote {}", path.display());
    }
}

fn emit_figure(
    id: &str,
    generated: Option<GeneratedFigure>,
    out_dir: &Path,
) -> (GeneratedFigure, experiments::output::FigureArtifacts) {
    let Some(generated) = generated else {
        eprintln!("unknown figure id '{id}'");
        std::process::exit(2);
    };
    let artifacts = experiments::output::write_artifacts(
        out_dir,
        &generated.fig,
        Some(&generated.timing),
        generated.metrics.as_ref(),
    );
    let (fig, timing) = (&generated.fig, &generated.timing);
    println!("{}", fig.to_ascii(72, 20));
    eprintln!(
        "wrote {} and {} ({} series, {:.1}s)",
        artifacts.csv.display(),
        artifacts.json.display(),
        fig.series.len(),
        timing.elapsed_secs
    );
    if let Some(metrics_path) = &artifacts.metrics {
        eprintln!("metrics: {}", metrics_path.display());
    }
    // Trace figures (fig1-3) never enter the sweep engine, so their
    // summaries carry no points and get no timing file.
    if let Some(timing_path) = &artifacts.timing {
        let t = timing;
        let cache = if t.cache_hits + t.cache_misses > 0 {
            format!(", cache {}/{}", t.cache_hits, t.cache_misses)
        } else {
            String::new()
        };
        eprintln!(
            "timing: {} points, compute {:.1}s over {} workers, wall {:.1}s ({:.1}x, {:.0}% util{cache}) -> {}",
            t.points.len(),
            t.compute_secs,
            t.jobs_effective,
            t.elapsed_secs,
            t.speedup,
            t.utilization * 100.0,
            timing_path.display()
        );
    }
    println!();
    (generated, artifacts)
}

fn run_policy_eval(policy: swap_core::PolicyParams, duty: f64, state: f64, scale: &Scale) {
    use experiments::figures::{onoff_duty, platform};
    use simulator::runner::Replication;
    use simulator::strategies::{Nothing, Strategy, Swap};

    let mut app = simulator::AppSpec::hpdc03(4, state);
    app.iterations = scale.iterations;
    let spec = platform(onoff_duty(duty.clamp(0.0, 0.99)));
    let seeds = scale.seed_list();
    let run = |strategy: &dyn Strategy, allocated| {
        Replication::new(&spec, &app, strategy, allocated, &seeds)
            .with_jobs(scale.jobs)
            .run()
    };

    println!("custom policy: {policy:#?}\n");
    let nothing = run(&Nothing, 4);
    let custom = run(&Swap::new(policy), 32);
    let greedy = run(&Swap::greedy(), 32);
    let base = nothing.execution_time.mean;
    for r in [&nothing, &custom, &greedy] {
        println!(
            "{:<16} {:>9.0} s   {:>6.1} adaptations   {:+.1}% vs nothing",
            r.strategy,
            r.execution_time.mean,
            r.mean_adaptations,
            100.0 * (1.0 - r.execution_time.mean / base)
        );
    }
}

/// `swapsim policy placements`: every spare-placement policy
/// head-to-head on one operating point that layers both fault regimes —
/// heterogeneous per-host lifetimes (spread 8×) *and* correlated rack
/// storms — so each specialist has something to exploit and the
/// differences are attributable to placement alone (same strategy,
/// seeds, fault schedule).
fn run_placement_tournament(
    mtbf: f64,
    fault_seed: u64,
    duty: f64,
    state: f64,
    scale: &Scale,
    trace_path: Option<&Path>,
) {
    use experiments::figures::{onoff_duty, platform};
    use simulator::runner::Replication;
    use simulator::strategies::Swap;

    let mut app = simulator::AppSpec::hpdc03(4, state);
    app.iterations = scale.iterations;
    let spec = platform(onoff_duty(duty.clamp(0.0, 0.99)));
    let seeds = scale.seed_list();
    let mut fs = faults::FaultSpec::correlated_shocks(4, mtbf * 4.0, 900.0, 0.6, fault_seed);
    fs.mtbf_secs = mtbf;
    fs.host_mtbf_spread = 8.0;

    println!(
        "placement tournament: crash MTBF {mtbf:.0} s/host ({}, spread 8x, fault seed {fault_seed}), \
         {} racks with storms every {:.0} s, duty {duty}, state {state:.0} B, \
         {} iterations, {} seeds",
        fs.crash_dist,
        fs.domains,
        fs.shock_mtbf_secs,
        app.iterations,
        seeds.len()
    );
    println!(
        "\n{:<13} {:>9} {:>9} {:>9} {:>7} {:>9}",
        "placement", "mean [s]", "failures", "recovered", "stuck", "adapts"
    );
    let choices = [
        policy::PlacementChoice::FirstAlive,
        policy::PlacementChoice::MtbfAware,
        policy::PlacementChoice::RackAware,
    ];
    let mut bundle = obs::TraceBundle::new();
    for choice in choices {
        let ps = policy::PolicyConfig::for_placement(choice).build(fs.shock_window_secs);
        let strategy = Swap::greedy();
        let request = Replication::new(&spec, &app, &strategy, 32, &seeds)
            .with_jobs(scale.jobs)
            .with_faults(&fs)
            .with_policies(&ps);
        let r = if trace_path.is_some() {
            let (r, traces) = request.run_traced();
            for (seed, trace) in seeds.iter().zip(traces) {
                bundle.push(choice.name(), *seed, trace);
            }
            r
        } else {
            request.run()
        };
        let sum = |f: fn(&simulator::RunResult) -> usize| -> usize { r.runs.iter().map(f).sum() };
        println!(
            "{:<13} {:>9.0} {:>9} {:>9} {:>7} {:>9.1}",
            choice.name(),
            r.execution_time.mean,
            sum(|x| x.failures),
            sum(|x| x.recoveries),
            r.runs.iter().filter(|x| x.truncated).count(),
            r.mean_adaptations
        );
    }
    println!(
        "\n(same SWAP/32 strategy, seeds, and fault schedule in every row; only the \
         spare-placement ranking differs — each choice is audited as a PolicyDecision \
         trace event)"
    );
    if let Some(path) = trace_path {
        write_trace_file(&bundle, path);
        let metrics = obs::Metrics::from_bundle(&bundle);
        println!("{}", metrics.render());
    }
}

fn run_compare(duty: f64, state: f64, n_active: usize, alloc: usize, scale: &Scale) {
    use experiments::figures::{onoff_duty, platform};
    use simulator::runner::Replication;
    use simulator::strategies::{Cr, Dlb, DlbSwap, Nothing, Strategy, Swap};

    let mut app = simulator::AppSpec::hpdc03(n_active, state);
    app.iterations = scale.iterations;
    let spec = platform(onoff_duty(duty.clamp(0.0, 0.99)));
    let seeds = scale.seed_list();

    println!(
        "operating point: duty {duty}, state {state:.0} B, N={n_active}, alloc={alloc}, {} iterations, {} seeds\n",
        app.iterations,
        seeds.len()
    );
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>8} {:>11}",
        "strategy", "mean [s]", "p10", "median", "p90", "adapts", "vs nothing"
    );
    let strategies: Vec<(Box<dyn Strategy>, usize)> = vec![
        (Box::new(Nothing), n_active),
        (Box::new(Dlb), n_active),
        (Box::new(Swap::greedy()), alloc),
        (Box::new(Swap::safe()), alloc),
        (Box::new(Swap::friendly()), alloc),
        (Box::new(Cr::greedy()), alloc),
        (Box::new(DlbSwap::greedy()), alloc),
    ];
    let mut baseline = None;
    for (s, a) in &strategies {
        let r = Replication::new(&spec, &app, s.as_ref(), *a, &seeds)
            .with_jobs(scale.jobs)
            .run();
        let e = r.execution_time;
        let base = *baseline.get_or_insert(e.mean);
        println!(
            "{:<16} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>8.1} {:>+10.1}%",
            r.strategy,
            e.mean,
            e.p10,
            e.median,
            e.p90,
            r.mean_adaptations,
            100.0 * (1.0 - e.mean / base)
        );
    }
}

fn run_faults_compare(
    mtbf: f64,
    fault_seed: u64,
    duty: f64,
    state: f64,
    scale: &Scale,
    trace_path: Option<&Path>,
) {
    use experiments::figures::{onoff_duty, platform};
    use simulator::runner::Replication;
    use simulator::strategies::{Cr, Dlb, Nothing, Strategy, Swap};

    let mut app = simulator::AppSpec::hpdc03(4, state);
    app.iterations = scale.iterations;
    let spec = platform(onoff_duty(duty.clamp(0.0, 0.99)));
    let seeds = scale.seed_list();
    let fs = faults::FaultSpec::crashes_only(mtbf, fault_seed);

    println!(
        "fault injection: crash MTBF {mtbf:.0} s/host ({} timing, fault seed {fault_seed}), \
         duty {duty}, state {state:.0} B, {} iterations, {} seeds",
        fs.crash_dist,
        app.iterations,
        seeds.len()
    );
    println!(
        "\n{:<12} {:>9} {:>9} {:>9} {:>7} {:>7} {:>9}",
        "strategy", "mean [s]", "failures", "recovered", "aborts", "stuck", "adapts"
    );
    let strategies: Vec<(Box<dyn Strategy>, usize)> = vec![
        (Box::new(Nothing), 4),
        (Box::new(Dlb), 4),
        (Box::new(Swap::greedy()), 8),
        (Box::new(Swap::greedy()), 32),
        (Box::new(Cr::greedy()), 32),
    ];
    let mut bundle = obs::TraceBundle::new();
    for (s, alloc) in &strategies {
        let request = Replication::new(&spec, &app, s.as_ref(), *alloc, &seeds)
            .with_jobs(scale.jobs)
            .with_faults(&fs);
        let r = if trace_path.is_some() {
            let (r, traces) = request.run_traced();
            for (seed, trace) in seeds.iter().zip(traces) {
                bundle.push(format!("{}/{alloc}", r.strategy), *seed, trace);
            }
            r
        } else {
            request.run()
        };
        let sum = |f: fn(&simulator::RunResult) -> usize| -> usize { r.runs.iter().map(f).sum() };
        println!(
            "{:<12} {:>9.0} {:>9} {:>9} {:>7} {:>7} {:>9.1}",
            format!("{}/{alloc}", r.strategy),
            r.execution_time.mean,
            sum(|x| x.failures),
            sum(|x| x.recoveries),
            sum(|x| x.aborts),
            r.runs.iter().filter(|x| x.truncated).count(),
            r.mean_adaptations
        );
    }
    println!(
        "\n(stuck = replications censored at the horizon after too many hosts died; \
         SWAP recovers through its spare pool, CR rolls back to its last checkpoint, \
         NOTHING/DLB abort and resubmit)"
    );
    if let Some(path) = trace_path {
        write_trace_file(&bundle, path);
        let metrics = obs::Metrics::from_bundle(&bundle);
        println!("{}", metrics.render());
    }
}

fn run_gantt(strategy_name: &str, duty: f64, seed: u64, scale: &Scale, trace_path: Option<&Path>) {
    use experiments::figures::{onoff_duty, platform};
    use simulator::strategies::{Cr, Dlb, DlbSwap, Nothing, RunContext, Strategy, Swap};

    let (strategy, alloc): (Box<dyn Strategy>, usize) = match strategy_name {
        "nothing" => (Box::new(Nothing), 4),
        "dlb" => (Box::new(Dlb), 4),
        "swap" | "greedy" => (Box::new(Swap::greedy()), 32),
        "safe" => (Box::new(Swap::safe()), 32),
        "friendly" => (Box::new(Swap::friendly()), 32),
        "cr" => (Box::new(Cr::greedy()), 32),
        "dlb+swap" => (Box::new(DlbSwap::greedy()), 32),
        other => {
            eprintln!("unknown strategy '{other}' (nothing|dlb|swap|safe|friendly|cr|dlb+swap)");
            std::process::exit(2);
        }
    };
    let mut app = simulator::AppSpec::hpdc03(4, 1.0e6);
    app.iterations = scale.iterations;
    let p = platform(onoff_duty(duty.clamp(0.0, 0.99))).realize(seed);
    let collector = trace_path.map(|_| obs::Collector::new());
    let mut ctx = RunContext::new(&p, &app, alloc);
    if let Some(c) = &collector {
        ctx = ctx.with_trace(c);
    }
    let run = strategy.run(&ctx);
    print!("{}", simulator::gantt::render_ascii(&run, 72));
    if let (Some(path), Some(c)) = (trace_path, collector) {
        let mut bundle = obs::TraceBundle::new();
        bundle.push(strategy_name, seed, c.into_trace());
        write_trace_file(&bundle, path);
    }
}

/// Writes a trace bundle to `path`: Chrome trace-event JSON when the
/// name ends in `.chrome.json`, the JSONL event log otherwise.
fn write_trace_file(bundle: &obs::TraceBundle, path: &Path) {
    let text = if path.to_string_lossy().ends_with(".chrome.json") {
        obs::chrome::to_chrome_trace(bundle)
    } else {
        obs::jsonl::to_jsonl(bundle)
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("cannot create trace directory");
        }
    }
    std::fs::write(path, text).expect("cannot write trace");
    eprintln!(
        "trace: wrote {} ({} events)",
        path.display(),
        bundle.event_count()
    );
}

fn usage_and_exit() -> ! {
    eprintln!("usage: swapsim <all|ablations|extensions|report|gantt|list|fig1..fig9|ablation_*|ext_*> [--quick] [--jobs N] [--out DIR] [--trace PATH]\n       swapsim gantt [strategy] [duty] [seed] [--trace PATH]\n       swapsim compare [duty] [state_bytes] [n_active] [alloc]\n       swapsim faults [mtbf] [duty] [state_bytes] [--fault-seed S] [--trace PATH]\n       swapsim tune [duty] [state_bytes]\n       swapsim policy <file.json|--template> [duty] [state_bytes]\n       swapsim policy placements [mtbf] [duty] [state_bytes] [--fault-seed S] [--trace PATH]\n       swapsim run <scenario.json> [--jobs N] [--mtbf M] [--fault-seed S] [--trace PATH]\n       swapsim trace [scenario.json] [--quick] [--jobs N] [--out DIR]\n       swapsim protocol [n_active] [n_spares] [state_bytes] [swaps] [--trace PATH]\n\n       --jobs N      worker threads for sweeps/replications (0 = auto, 1 = serial);\n                     figure CSV/JSON/metrics output is bit-identical at every setting\n       --mtbf M      inject permanent host crashes at MTBF M seconds (0 = off);\n                     recenters the ext_faults sweep, overrides a scenario's faults\n       --fault-seed S  extra seed for the fault streams (layer different fault\n                     schedules over identical platform realizations)\n       --placement NAME  spare-placement policy for the fault studies\n                     (first_alive|mtbf_aware|rack_aware); first_alive reproduces\n                     the default probe-ranked choice bit-for-bit\n       --trace PATH  also record a deterministic event trace: JSONL event log,\n                     or Chrome trace-event JSON when PATH ends in .chrome.json;\n                     swept study ids trace their representative scenario, and batch\n                     commands treat PATH as a directory of <id>.trace.jsonl files");
    std::process::exit(1);
}
