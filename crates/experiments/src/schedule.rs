//! The cross-figure scheduler: every figure's sweep items in one global
//! work queue.
//!
//! The old driver generated figures one at a time; each sweep's
//! parallel map was a barrier, so the tail of every sweep — one
//! straggler point finishing while the other workers idle — was paid
//! once per sweep, figure after figure. This module instead creates one
//! persistent [`simkit::pool::WorkerPool`] and runs each figure's
//! generator on its own lightweight scheduler thread with that pool
//! installed: all figures' work items land in the pool's shared queue,
//! so when one figure drains down to a straggler the workers immediately
//! pull items from the next figure instead of idling.
//!
//! Queue order is **longest-figure-first**: figures are assigned batch
//! priorities by descending [`weight`], the classic LPT heuristic that
//! minimizes the makespan tail (the same reasoning the related
//! malleability work applies to global job queues). The weights are a
//! fixed table, so a run's schedule depends only on its arguments, never
//! on what an earlier run left in the output directory. Each figure
//! records into its own [`timing::Collection`], so `<id>.timing.json`
//! stays per-figure even though the workers are shared.
//!
//! Alongside the payload, every figure with a representative study
//! scenario ([`crate::studies`]) also gets a deterministic trace bundle
//! and the [`obs::Metrics`] derived from it, so the report can write
//! `<id>.metrics.json` next to the CSV without a separate pass.
//!
//! Determinism: a figure's payload depends only on `(id, scale)` — the
//! sweep engine writes results into pre-indexed slots and every
//! replication derives from its own seed — so CSV/JSON output is
//! byte-identical to the serial per-figure run no matter how the queue
//! interleaves items. The same holds for the study trace and metrics,
//! which run in simulated time. Only wall-clock and the timing summaries
//! change.

use crate::ablations;
use crate::config::Scale;
use crate::extensions;
use crate::figures;
use crate::output::FigureData;
use crate::studies;
use crate::timing::{self, TimingSummary};
use simkit::pool::WorkerPool;
use std::sync::Arc;
use std::time::Instant;

/// A figure payload together with the timing summary of its generation
/// and the observability artifacts of its representative study.
pub struct GeneratedFigure {
    /// The figure's deterministic payload (CSV/JSON source).
    pub fig: FigureData,
    /// Wall-clock accounting for generating it.
    pub timing: TimingSummary,
    /// Deterministic trace of the figure's representative study
    /// scenario; `None` for analytic figures with no simulation runs.
    pub trace: Option<obs::TraceBundle>,
    /// Metrics derived from `trace` (the `<id>.metrics.json` payload).
    pub metrics: Option<obs::Metrics>,
}

/// Relative expected cost of generating a figure, used to order the
/// global queue longest-first. The values are a coarse ranking measured
/// from `<id>.timing.json` at full scale, not a promise — anything
/// unknown lands mid-pack, and the analytic figures (no sweeps) go
/// last. The ranking only orders work: outputs are byte-identical under
/// any order.
pub fn weight(id: &str) -> u64 {
    match id {
        "fig6" => 100,
        "fig8" => 90,
        "fig7" => 60,
        "ext_granularity" => 55,
        "fig5" => 50,
        "fig4" | "fig9" => 45,
        "fig1" | "fig2" | "fig3" => 1,
        _ => 30,
    }
}

/// Generates one figure by id (figure, ablation, or extension), with
/// `pool` installed for its sweeps at the given queue priority, and its
/// own timing collection active. Figures with a representative study
/// scenario also get their deterministic trace and metrics (computed
/// serially on this thread — the study is tiny next to the sweeps, and
/// keeping it off the shared pool keeps the pool's queue purely
/// sweep-shaped). Returns `None` for an unknown id.
fn generate_with(
    id: &str,
    scale: &Scale,
    pool: &Arc<WorkerPool>,
    priority: u64,
) -> Option<GeneratedFigure> {
    let col = timing::Collection::begin(id, scale.jobs, scale.seeds);
    let t0 = Instant::now();
    let fig = {
        let _active = timing::activate(&col);
        let _pool = simkit::pool::install(pool, priority);
        figures::by_id(id, scale)
            .or_else(|| ablations::ablation_by_id(id, scale))
            .or_else(|| extensions::extension_by_id(id, scale))?
    };
    let study_scale = Scale { jobs: 1, ..*scale };
    let (trace, metrics) = match studies::run_study_traced(id, &study_scale) {
        Some((_, bundle)) => {
            let metrics = obs::Metrics::from_bundle(&bundle);
            (Some(bundle), Some(metrics))
        }
        None => (None, None),
    };
    let timing = col.finish(t0.elapsed().as_secs_f64());
    Some(GeneratedFigure {
        fig,
        timing,
        trace,
        metrics,
    })
}

/// Generates every id in `ids` through one shared worker pool
/// (`scale.jobs` workers), enqueueing the heaviest figures first by
/// [`weight`], and calls `on_done(id, generated)` **in the original
/// `ids` order** as results become available — so a driver can stream
/// artifacts to disk in a stable order while later figures are still
/// computing.
///
/// Unknown ids yield `None`. A panicking generator propagates after the
/// preceding ids' callbacks have run.
pub fn generate_each(
    ids: &[&str],
    scale: &Scale,
    mut on_done: impl FnMut(&str, Option<GeneratedFigure>),
) {
    let pool = Arc::new(WorkerPool::new(scale.jobs));
    // Priority = rank by descending weight: the heaviest figure's items
    // sit at the front of the shared queue (LPT), ties broken by the
    // caller's ordering for stability.
    let mut rank: Vec<usize> = (0..ids.len()).collect();
    rank.sort_by_key(|&i| std::cmp::Reverse(weight(ids[i])));
    let mut priority = vec![0u64; ids.len()];
    for (p, &i) in rank.iter().enumerate() {
        priority[i] = p as u64;
    }

    std::thread::scope(|s| {
        let handles: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let pool = Arc::clone(&pool);
                let prio = priority[i];
                s.spawn(move || generate_with(id, scale, &pool, prio))
            })
            .collect();
        for (h, &id) in handles.into_iter().zip(ids) {
            match h.join() {
                Ok(generated) => on_done(id, generated),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
}

/// [`generate_each`], collected: one entry per input id, in order.
pub fn generate_set(ids: &[&str], scale: &Scale) -> Vec<Option<GeneratedFigure>> {
    let mut out = Vec::with_capacity(ids.len());
    generate_each(ids, scale, |_, g| out.push(g));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            seeds: 1,
            sweep_points: 2,
            iterations: 4,
            jobs: 2,
            mtbf: None,
            fault_seed: None,
            placement: None,
        }
    }

    #[test]
    fn generate_set_matches_direct_generation_byte_for_byte() {
        let scale = tiny();
        let ids = ["fig4", "ablation_history", "ext_reclamation"];
        let scheduled = generate_set(&ids, &scale);
        for (&id, got) in ids.iter().zip(&scheduled) {
            let got = got.as_ref().expect("known id");
            let direct = figures::by_id(id, &scale)
                .or_else(|| ablations::ablation_by_id(id, &scale))
                .or_else(|| extensions::extension_by_id(id, &scale))
                .expect("known id");
            assert_eq!(got.fig, direct, "{id} payload must not depend on the queue");
            assert_eq!(got.timing.id, id);
            // Swept studies carry their trace-derived metrics.
            let trace = got.trace.as_ref().expect("swept study is traced");
            assert!(trace.event_count() > 0, "{id}");
            let metrics = got.metrics.as_ref().expect("metrics from trace");
            assert_eq!(
                *metrics,
                obs::Metrics::from_bundle(trace),
                "{id} metrics must derive from the attached trace"
            );
        }
    }

    #[test]
    fn timing_summaries_stay_per_figure_under_the_shared_pool() {
        let scale = tiny();
        let out = generate_set(&["fig4", "fig5"], &scale);
        let a = &out[0].as_ref().unwrap().timing;
        let b = &out[1].as_ref().unwrap().timing;
        assert_eq!(a.id, "fig4");
        assert_eq!(b.id, "fig5");
        assert!(!a.points.is_empty() && !b.points.is_empty());
        assert!(a
            .points
            .iter()
            .all(|p| p.worker.is_some_and(|w| w < a.jobs_effective)));
        // The shared pool fixes the worker count at the pool size.
        assert_eq!(a.jobs_effective, 2);
        assert_eq!(b.jobs_effective, 2);
        assert!(a.busy_secs > 0.0 && b.busy_secs > 0.0);
        assert!(a.utilization > 0.0 && a.utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn unknown_ids_yield_none_without_disturbing_the_rest() {
        let out = generate_set(&["nope", "fig1"], &tiny());
        assert!(out[0].is_none());
        let fig1 = out[1].as_ref().expect("fig1 exists");
        assert_eq!(fig1.fig.id, "fig1");
        // Analytic figure: no sweeps, so no points recorded — and no
        // representative study, so no trace or metrics either.
        assert!(fig1.timing.points.is_empty());
        assert!(fig1.trace.is_none());
        assert!(fig1.metrics.is_none());
    }

    #[test]
    fn weight_orders_known_heavy_figures_first() {
        assert!(weight("fig6") > weight("fig4"));
        assert!(weight("fig4") > weight("fig1"));
        assert_eq!(weight("something_new"), 30);
    }
}
