//! End-to-end guarantees of the cross-figure work-queue scheduler: the
//! report and every figure artifact produced through the shared worker
//! pool are **byte-identical** to the serial per-figure run, and the
//! extended `<id>.timing.json` schema carries the per-point straggler
//! fields.

use experiments::report::{render_markdown, run_report, REPORT_FIGURES};
use experiments::schedule;
use experiments::Scale;

fn scale_with_jobs(jobs: usize) -> Scale {
    Scale {
        seeds: 1,
        sweep_points: 2,
        iterations: 4,
        jobs,
        mtbf: None,
        fault_seed: None,
        placement: None,
    }
}

#[test]
fn report_markdown_is_byte_identical_across_jobs() {
    let (serial_checks, serial_gen) = run_report(&scale_with_jobs(1));
    let serial_md = render_markdown(&serial_checks);
    let (pooled_checks, pooled_gen) = run_report(&scale_with_jobs(4));
    let pooled_md = render_markdown(&pooled_checks);
    assert_eq!(serial_md, pooled_md, "report.md must not depend on --jobs");
    // Check payloads, not just the rendering: ids, claims and measured
    // strings all derive from figure data.
    for (a, b) in serial_checks.iter().zip(&pooled_checks) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.measured, b.measured);
        assert_eq!(a.pass, b.pass);
    }
    // Timing artifacts exist for every report figure under both paths,
    // and every swept report figure carries trace-derived metrics that
    // are themselves jobs-invariant.
    assert_eq!(serial_gen.len(), REPORT_FIGURES.len());
    assert_eq!(pooled_gen.len(), REPORT_FIGURES.len());
    for ((s, p), &id) in serial_gen.iter().zip(&pooled_gen).zip(&REPORT_FIGURES) {
        assert_eq!(p.timing.id, id);
        assert!(!p.timing.points.is_empty(), "{id} recorded no points");
        let sm = s.metrics.as_ref().expect("swept figure has metrics");
        let pm = p.metrics.as_ref().expect("swept figure has metrics");
        assert_eq!(sm, pm, "{id} metrics must not depend on --jobs");
        assert_eq!(
            serde_json::to_string_pretty(sm).unwrap(),
            serde_json::to_string_pretty(pm).unwrap(),
            "{id} metrics.json must be byte-identical across jobs"
        );
    }
}

#[test]
fn scheduled_figure_payloads_are_byte_identical_across_jobs() {
    let ids = ["fig4", "ablation_payback", "ext_granularity"];
    let serial = schedule::generate_set(&ids, &scale_with_jobs(1));
    let pooled = schedule::generate_set(&ids, &scale_with_jobs(4));
    for ((&id, a), b) in ids.iter().zip(&serial).zip(&pooled) {
        let a = a.as_ref().expect("known id");
        let b = b.as_ref().expect("known id");
        assert_eq!(
            a.fig.to_csv(),
            b.fig.to_csv(),
            "{id} CSV differs between jobs 1 and 4"
        );
        assert_eq!(
            serde_json::to_string_pretty(&a.fig).unwrap(),
            serde_json::to_string_pretty(&b.fig).unwrap(),
            "{id} JSON differs between jobs 1 and 4"
        );
    }
}

#[test]
fn timing_json_schema_has_per_point_straggler_fields() {
    let scale = scale_with_jobs(2);
    let out = schedule::generate_set(&["fig4"], &scale);
    let t = &out[0].as_ref().expect("fig4 exists").timing;
    // Under the shared pool the worker count is the pool size, not the
    // (larger or smaller) per-sweep clamp.
    assert_eq!(t.jobs_effective, 2);
    assert_eq!(t.worker_busy_secs.len(), 2);
    assert!(t.busy_secs > 0.0);
    assert!(t.utilization > 0.0 && t.utilization <= 1.0 + 1e-9);
    for p in &t.points {
        assert!(
            p.worker.is_some_and(|w| w < t.jobs_effective),
            "worker slot out of range"
        );
        assert!(p.start_secs >= 0.0);
        assert!(p.wall_secs >= 0.0);
        assert!(
            p.start_secs + p.wall_secs <= t.elapsed_secs + 0.25,
            "point claims to run past the figure's elapsed window"
        );
    }
    // The serialized document exposes the new fields by name.
    let text = serde_json::to_string_pretty(t).expect("timing serializes");
    for field in [
        "jobs_requested",
        "jobs_effective",
        "worker_busy_secs",
        "busy_secs",
        "utilization",
        "wall_secs",
        "worker",
        "start_secs",
    ] {
        assert!(text.contains(&format!("\"{field}\"")), "missing {field}");
    }
}

#[test]
fn write_artifacts_report_layout_matches_single_figure_layout() {
    // The driver writes report timing files with the same names the
    // single-figure path uses; assert the shared helper produces them.
    let dir = std::env::temp_dir().join(format!("swapsim-queue-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scale = scale_with_jobs(2);
    let out = schedule::generate_set(&["fig4"], &scale);
    let g = out[0].as_ref().expect("fig4 exists");
    let artifacts =
        experiments::output::write_artifacts(&dir, &g.fig, Some(&g.timing), g.metrics.as_ref());
    assert!(artifacts.csv.ends_with("fig4.csv") && artifacts.csv.exists());
    assert!(artifacts.json.ends_with("fig4.json") && artifacts.json.exists());
    let tp = artifacts.timing.expect("sweep figure gets a timing file");
    assert!(tp.ends_with("fig4.timing.json") && tp.exists());
    let mp = artifacts.metrics.expect("swept figure gets a metrics file");
    assert!(mp.ends_with("fig4.metrics.json") && mp.exists());
    let _ = std::fs::remove_dir_all(&dir);
}
