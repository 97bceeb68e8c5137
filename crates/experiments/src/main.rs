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
use experiments::report::{render_markdown, run_report, REPORT_FIGURES};
use experiments::schedule::{self, GeneratedFigure};
use experiments::Scale;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }

    let (flags, ops) = parse_args(&args[1..]).unwrap_or_else(|msg| fail(&msg));
    if let Some(extra) = operand_limit(&args[0], &flags, &ops).and_then(|n| ops.get(n)) {
        fail(&format!(
            "swapsim {}: unexpected operand '{extra}'",
            args[0]
        ));
    }
    let out_dir = flags.out.unwrap_or_else(|| PathBuf::from("results"));
    let trace_path = flags.trace.as_deref();
    let mut scale = if flags.quick {
        Scale::quick()
    } else {
        Scale::full()
    };
    scale.jobs = flags.jobs.unwrap_or(0);
    scale.mtbf = flags.mtbf;
    scale.fault_seed = flags.fault_seed;
    scale.placement = flags.placement;

    // Refuse --trace where it would be silently ignored. Figure sweeps
    // aggregate thousands of cells, so study ids trace their
    // representative scenario (experiments::studies) instead of the
    // sweep itself; only the analytic fig1–fig3 have nothing to trace.
    let traceable = matches!(
        args[0].as_str(),
        "run" | "gantt" | "protocol" | "all" | "ablations" | "extensions" | "faults" | "policy"
    ) || experiments::studies::has_study(&args[0]);
    if trace_path.is_some() && !traceable {
        fail(
            "--trace is supported by 'swapsim run', 'swapsim gantt', 'swapsim protocol', \
             batch commands (all/ablations/extensions), and swept study ids; \
             use 'swapsim trace [scenario.json]' for the full export set",
        );
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
        "all" => run_figures(&ALL_FIGURES, &scale, &out_dir, trace_path, Some("all")),
        "ablations" => run_figures(
            &ALL_ABLATIONS,
            &scale,
            &out_dir,
            trace_path,
            Some("ablations"),
        ),
        "extensions" => run_figures(
            &ALL_EXTENSIONS,
            &scale,
            &out_dir,
            trace_path,
            Some("extensions"),
        ),
        "policy" => {
            // swapsim policy placements [mtbf] [duty] [state_bytes]:
            // spare-placement policies head-to-head under faults.
            // swapsim policy <file.json> [duty] [state_bytes]: evaluate a
            // custom swapping policy (serde JSON of PolicyParams).
            // swapsim policy [--template]: print a PolicyParams template.
            match ops.first().copied() {
                Some("placements") => {
                    let m: f64 = flags.mtbf.or(operand(&ops, 1, "mtbf")).unwrap_or(3_000.0);
                    let duty: f64 = operand(&ops, 2, "duty").unwrap_or(0.5);
                    let state: f64 = operand(&ops, 3, "state_bytes").unwrap_or(1e8);
                    check_operating_point(duty, state, 4, HOSTS, m)
                        .unwrap_or_else(|msg| fail(&msg));
                    run_placement_tournament(
                        m,
                        flags.fault_seed.unwrap_or(0),
                        duty,
                        state,
                        &scale,
                        trace_path,
                    );
                }
                None => {
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
                    let duty: f64 = operand(&ops, 1, "duty").unwrap_or(0.5);
                    let state: f64 = operand(&ops, 2, "state_bytes").unwrap_or(1e8);
                    check_operating_point(duty, state, 4, HOSTS, 0.0)
                        .unwrap_or_else(|msg| fail(&msg));
                    let policy = read_json(path, "a valid PolicyParams JSON");
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
            let path = ops
                .first()
                .unwrap_or_else(|| fail("usage: swapsim run <scenario.json>"));
            let mut scenario: experiments::scenario::Scenario = read_json(path, "a valid scenario");
            // An explicit --jobs overrides the scenario document's knob,
            // and --mtbf/--fault-seed override its faults block
            // (--mtbf 0 turns fault injection off entirely).
            if let Some(jobs) = flags.jobs {
                scenario.jobs = jobs;
            }
            if let Some(m) = flags.mtbf {
                scenario.faults = Some(faults::FaultSpec::crashes_only(
                    m,
                    flags.fault_seed.unwrap_or(0),
                ));
            } else if let (Some(fs), Some(s)) = (flags.fault_seed, scenario.faults.as_mut()) {
                s.fault_seed = fs;
            }
            let t0 = Instant::now();
            let results = match trace_path {
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
            let mut scenario = match ops.first() {
                Some(path) => read_json(path, "a valid scenario"),
                None => {
                    let mut s = experiments::scenario::Scenario::template();
                    if flags.quick {
                        s.replications = 2;
                        s.app.iterations = s.app.iterations.min(scale.iterations);
                    }
                    s
                }
            };
            if let Some(jobs) = flags.jobs {
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
            let n_active: usize = operand(&ops, 0, "n_active").unwrap_or(4);
            let n_spares: usize = operand(&ops, 1, "n_spares").unwrap_or(28);
            let state: f64 = operand(&ops, 2, "state_bytes").unwrap_or(1.0e6);
            let swaps: usize = operand(&ops, 3, "swaps").unwrap_or(1);
            check_protocol(n_active, n_spares, state, swaps).unwrap_or_else(|msg| fail(&msg));
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
            if let Some(path) = trace_path {
                write_trace_file(&bundle, path);
            }
        }
        "faults" => {
            // swapsim faults [mtbf] [duty] [state_bytes]: every strategy
            // against deterministic crash injection at one operating
            // point, with failure/recovery accounting.
            let m: f64 = flags.mtbf.or(operand(&ops, 0, "mtbf")).unwrap_or(3_000.0);
            let duty: f64 = operand(&ops, 1, "duty").unwrap_or(0.5);
            let state: f64 = operand(&ops, 2, "state_bytes").unwrap_or(1e8);
            check_operating_point(duty, state, 4, HOSTS, m).unwrap_or_else(|msg| fail(&msg));
            run_faults_compare(
                m,
                flags.fault_seed.unwrap_or(0),
                duty,
                state,
                &scale,
                trace_path,
            );
        }
        "tune" => {
            // swapsim tune [duty] [state_bytes]: grid-search the policy
            // space at one operating point.
            let duty: f64 = operand(&ops, 0, "duty").unwrap_or(0.5);
            let state: f64 = operand(&ops, 1, "state_bytes").unwrap_or(1e8);
            check_operating_point(duty, state, 4, HOSTS, 0.0).unwrap_or_else(|msg| fail(&msg));
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
            let duty: f64 = operand(&ops, 0, "duty").unwrap_or(0.5);
            let state: f64 = operand(&ops, 1, "state_bytes").unwrap_or(1e6);
            let n_active: usize = operand(&ops, 2, "n_active").unwrap_or(4);
            let alloc: usize = operand(&ops, 3, "alloc").unwrap_or(HOSTS);
            check_operating_point(duty, state, n_active, alloc, 0.0)
                .unwrap_or_else(|msg| fail(&msg));
            run_compare(duty, state, n_active, alloc, &scale);
        }
        "gantt" => {
            // swapsim gantt [strategy] [duty] [seed]: render one run's
            // host occupancy.
            let strategy_name = ops.first().copied().unwrap_or("swap");
            let duty: f64 = operand(&ops, 1, "duty").unwrap_or(0.5);
            let seed: u64 = operand(&ops, 2, "seed").unwrap_or(0);
            check_operating_point(duty, 1e6, 4, HOSTS, 0.0).unwrap_or_else(|msg| fail(&msg));
            run_gantt(strategy_name, duty, seed, &scale, trace_path);
        }
        "report" => {
            let t0 = Instant::now();
            let (checks, generated) = run_report(&scale);
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
            run_figures(&[id], &scale, &out_dir, trace_path, None);
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
        fail(&format!("unknown figure id '{id}'"));
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
    let spec = platform(onoff_duty(duty));
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
    let spec = platform(onoff_duty(duty));
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
    let spec = platform(onoff_duty(duty));
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
    let spec = platform(onoff_duty(duty));
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
        other => fail(&format!(
            "unknown strategy '{other}' (nothing|dlb|swap|safe|friendly|cr|dlb+swap)"
        )),
    };
    let mut app = simulator::AppSpec::hpdc03(4, 1.0e6);
    app.iterations = scale.iterations;
    let p = platform(onoff_duty(duty)).realize(seed);
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

/// What a command line sets besides its operands.
#[derive(Default)]
struct Flags {
    quick: bool,
    template: bool,
    out: Option<PathBuf>,
    jobs: Option<usize>,
    trace: Option<PathBuf>,
    mtbf: Option<f64>,
    fault_seed: Option<u64>,
    placement: Option<policy::PlacementChoice>,
}

/// Stores a flag's value in [`Flags`]; `None` when the value does not
/// parse.
type Store = fn(&mut Flags, &str) -> Option<()>;

/// Every flag that takes a value: its name, what the value must be, and
/// where it goes. The value is part of the flag, never an operand.
const VALUE_FLAGS: [(&str, &str, Store); 6] = [
    ("--out", "a directory", |f, v| {
        v.parse().ok().map(|p| f.out = Some(p))
    }),
    ("--jobs", "a number (0 = auto)", |f, v| {
        v.parse().ok().map(|j| f.jobs = Some(j))
    }),
    ("--trace", "a path", |f, v| {
        v.parse().ok().map(|p| f.trace = Some(p))
    }),
    ("--mtbf", "seconds (0 = faults off)", |f, v| {
        v.parse()
            .ok()
            .filter(|m: &f64| m.is_finite() && *m >= 0.0)
            .map(|m| f.mtbf = Some(m))
    }),
    ("--fault-seed", "an integer", |f, v| {
        v.parse().ok().map(|s| f.fault_seed = Some(s))
    }),
    (
        "--placement",
        "first_alive|mtbf_aware|rack_aware",
        |f, v| policy::PlacementChoice::parse(v).map(|p| f.placement = Some(p)),
    ),
];

/// Splits a command's arguments (command excluded) into its flags and
/// its operands, in order. Flags may sit before, between or after the
/// operands; a repeated flag keeps its first value. Returns the message
/// to exit with when an argument starting with `--` is no flag, or a
/// value flag ends the line, is followed by another flag, or has a
/// value that does not parse.
fn parse_args(args: &[String]) -> Result<(Flags, Vec<&str>), String> {
    let mut flags = Flags::default();
    let mut values = [None; VALUE_FLAGS.len()];
    let mut ops = Vec::new();
    let mut rest = args.iter().map(String::as_str);
    while let Some(a) = rest.next() {
        match VALUE_FLAGS.iter().position(|&(flag, ..)| flag == a) {
            Some(i) => {
                let (flag, what, _) = VALUE_FLAGS[i];
                let v = rest
                    .next()
                    .ok_or_else(|| format!("{flag} expects {what}, got nothing"))?;
                if v.starts_with("--") {
                    return Err(format!("{flag} expects {what}, got the flag '{v}'"));
                }
                values[i].get_or_insert(v);
            }
            None if a == "--quick" => flags.quick = true,
            None if a == "--template" => flags.template = true,
            None if a.starts_with("--") => return Err(format!("unknown flag '{a}'")),
            None => ops.push(a),
        }
    }
    for (&(flag, what, store), v) in VALUE_FLAGS.iter().zip(values) {
        if let Some(v) = v {
            store(&mut flags, v).ok_or_else(|| format!("{flag} expects {what}, got '{v}'"))?;
        }
    }
    Ok((flags, ops))
}

/// Operand `i` parsed as `T`, or `None` when there are fewer operands.
/// An operand that is present but does not parse exits 2 naming it.
fn operand<T: std::str::FromStr>(ops: &[&str], i: usize, name: &str) -> Option<T> {
    let s = ops.get(i)?;
    let v = s.parse().unwrap_or_else(|_| {
        fail(&format!(
            "{name} expects {}, got '{s}'",
            std::any::type_name::<T>()
        ))
    });
    Some(v)
}

/// Refuses a protocol round that cannot run: more swaps than
/// active/spare pairs, or a state size that is negative or not finite.
/// The message names the operand.
fn check_protocol(
    n_active: usize,
    n_spares: usize,
    state: f64,
    swaps: usize,
) -> Result<(), String> {
    let pairs = n_active.min(n_spares);
    if swaps > pairs {
        return Err(format!(
            "swaps expects at most min(n_active, n_spares) = {pairs}, got {swaps}"
        ));
    }
    check_state(state)
}

/// Refuses a process state size that is negative or not finite.
fn check_state(state: f64) -> Result<(), String> {
    if !(state.is_finite() && state >= 0.0) {
        return Err(format!(
            "state_bytes expects a finite byte count >= 0, got {state}"
        ));
    }
    Ok(())
}

/// Hosts on the figures' platform ([`experiments::figures::platform`]):
/// the most an operating point may allocate.
const HOSTS: usize = 32;

/// Refuses an ON/OFF operating point that cannot run, or would run as
/// something other than the header prints: a duty cycle outside [0, 1), a
/// negative or non-finite state size, `n_active` outside 1..=32, `alloc`
/// outside `n_active`..=32, or a negative or non-finite crash MTBF (0
/// turns faults off). The message names the operand.
fn check_operating_point(
    duty: f64,
    state: f64,
    n_active: usize,
    alloc: usize,
    mtbf: f64,
) -> Result<(), String> {
    if !(0.0..1.0).contains(&duty) {
        return Err(format!("duty expects a duty cycle in [0, 1), got {duty}"));
    }
    check_state(state)?;
    if !(1..=HOSTS).contains(&n_active) {
        return Err(format!("n_active expects 1 to {HOSTS}, got {n_active}"));
    }
    if !(n_active..=HOSTS).contains(&alloc) {
        return Err(format!(
            "alloc expects n_active ({n_active}) to {HOSTS}, got {alloc}"
        ));
    }
    if !(mtbf.is_finite() && mtbf >= 0.0) {
        return Err(format!(
            "mtbf expects finite seconds >= 0 (0 = faults off), got {mtbf}"
        ));
    }
    Ok(())
}

/// How many operands `cmd` reads, given its flags and operands; `None`
/// for an unknown command, which gets the usage text instead.
fn operand_limit(cmd: &str, flags: &Flags, ops: &[&str]) -> Option<usize> {
    Some(match cmd {
        "policy" if flags.template => 0,
        "policy" if ops.first() == Some(&"placements") => 4,
        "policy" | "faults" | "gantt" => 3,
        "protocol" | "compare" => 4,
        "tune" => 2,
        "run" | "trace" => 1,
        "list" | "all" | "ablations" | "extensions" | "report" | "scenario" => 0,
        id if ALL_FIGURES.contains(&id)
            || ALL_ABLATIONS.contains(&id)
            || ALL_EXTENSIONS.contains(&id) =>
        {
            0
        }
        _ => return None,
    })
}

/// Reads the JSON document at `path` as a `T`; exits 2 when the file
/// cannot be read or is not `what`.
fn read_json<T: serde::de::DeserializeOwned>(path: &str, what: &str) -> T {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    serde_json::from_str(&text).unwrap_or_else(|e| fail(&format!("{path} is not {what}: {e}")))
}

/// Prints `msg` to stderr and exits 2, the code for bad input.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn usage_and_exit() -> ! {
    eprintln!("usage: swapsim <all|ablations|extensions|report|gantt|list|fig1..fig9|ablation_*|ext_*> [--quick] [--jobs N] [--out DIR] [--trace PATH]\n       swapsim gantt [strategy] [duty] [seed] [--trace PATH]\n       swapsim compare [duty] [state_bytes] [n_active] [alloc]\n       swapsim faults [mtbf] [duty] [state_bytes] [--fault-seed S] [--trace PATH]\n       swapsim tune [duty] [state_bytes]\n       swapsim policy <file.json|--template> [duty] [state_bytes]\n       swapsim policy placements [mtbf] [duty] [state_bytes] [--fault-seed S] [--trace PATH]\n       swapsim run <scenario.json> [--jobs N] [--mtbf M] [--fault-seed S] [--trace PATH]\n       swapsim trace [scenario.json] [--quick] [--jobs N] [--out DIR]\n       swapsim protocol [n_active] [n_spares] [state_bytes] [swaps] [--trace PATH]\n\n       --jobs N      worker threads for sweeps/replications (0 = auto, 1 = serial);\n                     figure CSV/JSON/metrics output is bit-identical at every setting\n       --mtbf M      inject permanent host crashes at MTBF M seconds (0 = off);\n                     recenters the ext_faults sweep, overrides a scenario's faults\n       --fault-seed S  extra seed for the fault streams (layer different fault\n                     schedules over identical platform realizations)\n       --placement NAME  spare-placement policy for the fault studies\n                     (first_alive|mtbf_aware|rack_aware); first_alive reproduces\n                     the default probe-ranked choice bit-for-bit\n       --trace PATH  also record a deterministic event trace: JSONL event log,\n                     or Chrome trace-event JSON when PATH ends in .chrome.json;\n                     swept study ids trace their representative scenario, and batch\n                     commands treat PATH as a directory of <id>.trace.jsonl files");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::{check_operating_point, check_protocol, parse_args, HOSTS};

    /// The flags and operands of a whole command line (command first),
    /// or the message it exits 2 with.
    fn parse(line: &str) -> Result<(super::Flags, Vec<String>), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let (flags, ops) = parse_args(&args[1..])?;
        Ok((flags, ops.into_iter().map(String::from).collect()))
    }

    /// The operands of a whole command line.
    fn ops(line: &str) -> Vec<String> {
        parse(line).expect("parses").1
    }

    #[test]
    fn flag_values_never_become_operands() {
        // Each of these once read a flag's value as an operand: duty 1500,
        // a 3-byte state, alloc = 2 and N = 3.
        assert!(ops("faults --mtbf 1500 --fault-seed 3 --trace f.jsonl").is_empty());
        assert_eq!(
            ops("policy placements 1500 --fault-seed 3 --trace p.jsonl"),
            ["placements", "1500"]
        );
        assert_eq!(ops("compare 0.5 1e8 --jobs 2"), ["0.5", "1e8"]);
        assert!(ops("compare --quick --jobs 3").is_empty());
    }

    #[test]
    fn flags_may_sit_before_between_or_after_the_operands() {
        let want = ["0.5", "1e6", "4", "32"];
        assert_eq!(ops("compare 0.5 1e6 4 32 --quick --jobs 1"), want);
        assert_eq!(ops("compare --jobs 3 --quick 0.5 1e6 4 32"), want);
        assert_eq!(
            ops("compare 0.5 --out d 1e6 --placement rack_aware 4 32"),
            want
        );
        // `--template` is a switch, like `--quick`.
        let (f, ops) = parse("policy --template").unwrap();
        assert!(f.template && ops.is_empty());
    }

    #[test]
    fn unknown_flags_and_flags_as_values_are_refused() {
        let err = |line| parse(line).err().expect(line);
        // `--qiuck` once ran at full scale, and `--out --jobs 2` wrote
        // into a directory named `--jobs`.
        assert_eq!(err("fig1 --qiuck --out o"), "unknown flag '--qiuck'");
        assert_eq!(err("fig4 --"), "unknown flag '--'");
        assert_eq!(
            err("fig1 --out --jobs 2"),
            "--out expects a directory, got the flag '--jobs'"
        );
        assert_eq!(
            err("faults --fault-seed --quick"),
            "--fault-seed expects an integer, got the flag '--quick'"
        );
        // A single dash is a value, however bad.
        assert_eq!(
            err("faults --fault-seed -1"),
            "--fault-seed expects an integer, got '-1'"
        );
        assert_eq!(ops("compare -0.5"), ["-0.5"]);
    }

    #[test]
    fn each_command_reads_a_fixed_number_of_operands() {
        let limit = |line: &str| {
            let (f, ops) = parse(line).expect(line);
            let cmd = line.split_whitespace().next().unwrap();
            let ops: Vec<&str> = ops.iter().map(String::as_str).collect();
            super::operand_limit(cmd, &f, &ops)
        };
        assert_eq!(limit("fig1 --quick bogus"), Some(0));
        assert_eq!(limit("ext_policies"), Some(0));
        assert_eq!(limit("compare 0.5 1e6 4 32 99 --quick"), Some(4));
        assert_eq!(limit("policy placements 1500"), Some(4));
        assert_eq!(limit("policy p.json"), Some(3));
        assert_eq!(limit("policy --template p.json"), Some(0));
        assert_eq!(limit("run s.json"), Some(1));
        assert_eq!(limit("tune"), Some(2));
        // Unknown commands get the usage text, whatever follows them.
        assert_eq!(limit("bogus 1 2"), None);
    }

    #[test]
    fn protocol_refuses_rounds_it_cannot_run() {
        // `protocol 4 0` (one swap by default, no spare) and a negative
        // or NaN state size once panicked inside the round.
        assert_eq!(
            check_protocol(4, 0, 1e6, 1),
            Err("swaps expects at most min(n_active, n_spares) = 0, got 1".into())
        );
        for state in [-1.0, f64::NAN, f64::INFINITY] {
            let msg = check_protocol(4, 28, state, 1).unwrap_err();
            assert!(msg.starts_with("state_bytes expects "), "{msg}");
        }
        for (n_active, n_spares, state, swaps) in
            [(4, 28, 1e6, 4), (1, 0, 1e6, 0), (16, 16, 0.0, 0)]
        {
            assert_eq!(check_protocol(n_active, n_spares, state, swaps), Ok(()));
        }
    }

    #[test]
    fn operating_points_refuse_what_they_cannot_run() {
        // Each of these once panicked inside the simulator, or ran other
        // than its header printed: a duty clamped to 0.99, an allocation
        // clamped into [n_active, 32], a negative MTBF that injected no
        // fault.
        let named = |duty, state, n_active, alloc, mtbf| {
            let msg = check_operating_point(duty, state, n_active, alloc, mtbf).unwrap_err();
            msg.split(' ').next().unwrap().to_owned()
        };
        for duty in [1.0, 1.5, -0.1, f64::NAN, f64::INFINITY] {
            assert_eq!(named(duty, 1e6, 4, 32, 0.0), "duty");
        }
        for state in [-1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(named(0.5, state, 4, 32, 0.0), "state_bytes");
        }
        for n_active in [0, 33, 40] {
            assert_eq!(named(0.5, 1e6, n_active, 32, 0.0), "n_active");
        }
        for (n_active, alloc) in [(4, 2), (4, 33), (4, 64), (32, 31)] {
            assert_eq!(named(0.5, 1e6, n_active, alloc, 0.0), "alloc");
        }
        for mtbf in [-5.0, f64::NAN, f64::INFINITY] {
            assert_eq!(named(0.5, 1e6, 4, 32, mtbf), "mtbf");
        }
        for (duty, state, n_active, alloc, mtbf) in [
            (0.5, 1e6, 4, 32, 0.0),
            (0.0, 0.0, 1, 1, 1500.0),
            (0.995, 1e9, 32, 32, 3000.0),
        ] {
            assert_eq!(
                check_operating_point(duty, state, n_active, alloc, mtbf),
                Ok(())
            );
        }
        // `--mtbf` takes the same range, and 32 is the figures' platform.
        assert_eq!(
            parse("faults --mtbf -5").err(),
            Some("--mtbf expects seconds (0 = faults off), got '-5'".into())
        );
        assert!(parse("run s.json --mtbf 0").is_ok());
        let spec = experiments::figures::platform(experiments::figures::onoff_duty(0.5));
        assert_eq!(spec.n_hosts, HOSTS);
    }

    #[test]
    fn a_value_flag_needs_its_value() {
        // Each of these once took a default: `fig4 --quick --out` wrote
        // into results/ and `compare --jobs` ran at --jobs 0.
        for flag in [
            "--out",
            "--jobs",
            "--trace",
            "--mtbf",
            "--fault-seed",
            "--placement",
        ] {
            let msg = parse(&format!("fig4 --quick {flag}")).err().expect(flag);
            assert!(msg.starts_with(&format!("{flag} expects ")), "{msg}");
            assert!(msg.ends_with(", got nothing"), "{msg}");
        }
        // A bad value keeps its message.
        let err = |line| parse(line).err().expect(line);
        assert_eq!(
            err("compare --jobs x"),
            "--jobs expects a number (0 = auto), got 'x'"
        );
        assert_eq!(
            err("faults --mtbf abc"),
            "--mtbf expects seconds (0 = faults off), got 'abc'"
        );
        assert_eq!(
            err("faults --fault-seed -1"),
            "--fault-seed expects an integer, got '-1'"
        );
        assert_eq!(
            err("ext_faults --placement nope"),
            "--placement expects first_alive|mtbf_aware|rack_aware, got 'nope'"
        );
        // Values reach their fields; the first of a repeated flag counts.
        let (f, _) = parse("run s.json --jobs 3 --jobs 5 --out d --placement rack_aware").unwrap();
        assert_eq!(f.jobs, Some(3));
        assert_eq!(f.out.as_deref(), Some(std::path::Path::new("d")));
        assert_eq!(f.placement, Some(policy::PlacementChoice::RackAware));
        assert!(!f.quick && f.mtbf.is_none() && f.trace.is_none());
    }
}
