//! Per-processor performance histories and predictors.
//!
//! The real system measures processor performance with NWS-style probes;
//! policies differ in *how much* of that history they look at ("increasing
//! the amount of history reduces the chance of being fooled by a transient
//! load event, but can cause the application to miss good swapping
//! opportunities"). A [`PerfHistory`] stores time-stamped samples; a
//! [`Predictor`] reduces the samples inside the policy's
//! [`HistoryWindow`] to one predicted performance value.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The length of performance history a policy consults.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistoryWindow(f64);

impl HistoryWindow {
    /// Only the most recent measurement is consulted (the greedy policy's
    /// "no performance history").
    pub fn instantaneous() -> Self {
        HistoryWindow(0.0)
    }

    /// A window of `secs` seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or non-finite.
    pub fn seconds(secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "window must be >= 0");
        HistoryWindow(secs)
    }

    /// The window length in seconds (0 = instantaneous).
    pub fn secs(self) -> f64 {
        self.0
    }

    /// True for the zero-length (last-sample-only) window.
    pub fn is_instantaneous(self) -> bool {
        self.0 == 0.0
    }
}

/// How a window of samples becomes one predicted value.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Predictor {
    /// The most recent sample, ignoring the window (the greedy policy).
    LastValue,
    /// Arithmetic mean of the samples inside the window.
    WindowedMean,
    /// Median of the samples inside the window (robust to outliers).
    WindowedMedian,
    /// Exponentially weighted moving average over the windowed samples,
    /// newest-weighted, with the given smoothing factor in `(0, 1]`.
    Ewma(f64),
    /// NWS-style dynamic predictor selection over the windowed samples:
    /// a fixed bank of seven forecasters is replayed through the window
    /// and the one with the lowest cumulative one-step error answers.
    Nws,
    /// Mean of the windowed samples weighted by the *time* each sample
    /// represents (the span until the next sample, or until `now` for the
    /// last). Unlike [`Predictor::WindowedMean`], unevenly spaced samples
    /// — iterations of varying length — do not bias the estimate toward
    /// bursts of short iterations.
    TimeWeightedMean,
}

/// The `(timestamp, performance)` samples of one processor that a
/// prediction over its window can still read.
#[derive(Clone, Debug)]
pub struct PerfHistory {
    samples: VecDeque<(f64, f64)>,
    /// Samples older than this (relative to the newest) are dropped: the
    /// window, or [`MIN_RETENTION`] when the window is shorter.
    retention: f64,
}

/// The shortest span a history keeps, whatever its window. Dropping
/// samples sooner changes no prediction, but it changes when the
/// histories allocate; through glibc's dynamic mmap threshold, that
/// raised perfbench `trace_export`'s peak RSS by 26–31% for most
/// `argv[0]` lengths (glibc 2.36, 2-vCPU container).
const MIN_RETENTION: f64 = 3600.0;

impl PerfHistory {
    /// An empty history that keeps what [`PerfHistory::predict`] over
    /// `window` reads at or after the newest sample.
    pub fn new(window: HistoryWindow) -> Self {
        PerfHistory {
            samples: VecDeque::new(),
            retention: window.secs().max(MIN_RETENTION),
        }
    }

    /// Records a performance sample at time `t`, and drops the samples
    /// no prediction at or after `t` reads: those older than the
    /// retention span. The newest sample always stays.
    ///
    /// # Panics
    /// Panics if timestamps go backwards or the value is not finite and
    /// non-negative.
    pub fn record(&mut self, t: f64, value: f64) {
        assert!(value.is_finite() && value >= 0.0, "bad sample {value}");
        if let Some(&(last_t, _)) = self.samples.back() {
            assert!(t >= last_t, "samples must be time-ordered");
        }
        self.samples.push_back((t, value));
        // A sample before `t − retention` is before `now − window` for
        // every `now >= t`, so no prediction reads it.
        let cutoff = t - self.retention;
        while self.samples.len() > 1 && self.samples[0].0 < cutoff {
            self.samples.pop_front();
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        self.samples.back().copied()
    }

    /// Predicts the processor's near-future performance as seen at time
    /// `now`, using `predictor` over the samples within `window`.
    ///
    /// Returns `None` when no sample is available. If the window contains
    /// no samples (all data older than `now − window`), the most recent
    /// sample is used — a predictor should degrade to last-value rather
    /// than refuse to answer.
    pub fn predict(&self, predictor: Predictor, window: HistoryWindow, now: f64) -> Option<f64> {
        let &(_, last_v) = self.samples.back()?;
        if window.is_instantaneous() || matches!(predictor, Predictor::LastValue) {
            return Some(last_v);
        }
        let cutoff = now - window.secs();
        let start = self.samples.partition_point(|&(t, _)| t < cutoff);
        let n = self.samples.len() - start;
        if n == 0 {
            return Some(last_v);
        }
        // Every predictor streams over the windowed range in place.
        // `predict` runs once per processor per decision point, so the
        // per-call `stamped`/`vals` Vecs this used to build dominated the
        // decision overhead; only the order-statistic predictors (median,
        // NWS) need contiguous values, and they borrow a reusable
        // thread-local scratch buffer instead of allocating.
        let windowed = || self.samples.iter().skip(start).copied();
        let out = match predictor {
            Predictor::LastValue => last_v,
            Predictor::WindowedMean => windowed().map(|(_, v)| v).sum::<f64>() / n as f64,
            Predictor::WindowedMedian => with_scratch(windowed().map(|(_, v)| v), |sorted| {
                sorted.sort_by(f64::total_cmp);
                let mid = sorted.len() / 2;
                if sorted.len() % 2 == 0 {
                    (sorted[mid - 1] + sorted[mid]) / 2.0
                } else {
                    sorted[mid]
                }
            }),
            Predictor::Ewma(alpha) => {
                assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha in (0,1]");
                windowed()
                    .map(|(_, v)| v)
                    .reduce(|acc, v| alpha * v + (1.0 - alpha) * acc)
                    .expect("window is non-empty")
            }
            Predictor::Nws => with_scratch(windowed().map(|(_, v)| v), |vals| {
                nws(vals).unwrap_or(last_v)
            }),
            Predictor::TimeWeightedMean => {
                // Each sample covers the span until the next one; the
                // last covers up to `now` (zero-span tails still count a
                // little so a single sample works).
                let mut weighted = 0.0;
                let mut total_w = 0.0;
                let mut it = windowed().peekable();
                while let Some((t, v)) = it.next() {
                    let span_end = it.peek().map_or(now.max(t), |&(tn, _)| tn);
                    let w = (span_end - t).max(1e-9);
                    weighted += v * w;
                    total_w += w;
                }
                weighted / total_w
            }
        };
        Some(out)
    }
}

/// NWS-style dynamic predictor selection (Wolski et al.'s Network
/// Weather Service) over a sample window, oldest first. A fixed bank of
/// seven forecasters — last value, running mean, sliding means over 3
/// and 8 samples, sliding median over 5, and EWMAs with α = 0.3 and 0.7
/// — is replayed through the window; each member's one-step forecast is
/// scored against every sample from the second on by cumulative
/// absolute error, and the member with the lowest error answers (ties go
/// to the earlier member). `None` on an empty window.
fn nws(vals: &[f64]) -> Option<f64> {
    if vals.is_empty() {
        return None;
    }
    let (errors, forecasts) = nws_bank(vals);
    errors
        .iter()
        .zip(forecasts)
        .min_by(|a, b| a.0.total_cmp(b.0))
        .map(|(_, f)| f)
}

/// The NWS bank replayed through a non-empty window: each member's
/// cumulative absolute one-step error and its forecast of the next
/// sample, in bank order.
fn nws_bank(vals: &[f64]) -> ([f64; 7], [f64; 7]) {
    let mean = |w: &[f64]| w.iter().sum::<f64>() / w.len() as f64;
    let median = |w: &[f64]| {
        let mut buf = [0.0; 5];
        let sorted = &mut buf[..w.len()];
        sorted.copy_from_slice(w);
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        if sorted.len() % 2 == 0 {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        } else {
            sorted[mid]
        }
    };
    let mut errors = [0.0f64; 7];
    let mut forecasts = [0.0f64; 7];
    let mut sum = 0.0;
    for (i, &v) in vals.iter().enumerate() {
        if i > 0 {
            for (err, f) in errors.iter_mut().zip(forecasts) {
                *err += (f - v).abs();
            }
        }
        sum += v;
        // The last `k` samples seen, oldest first.
        let tail = |k: usize| &vals[(i + 1).saturating_sub(k)..=i];
        let ewma = |alpha: f64, acc: f64| {
            if i == 0 {
                v
            } else {
                alpha * v + (1.0 - alpha) * acc
            }
        };
        forecasts = [
            v,
            sum / (i + 1) as f64,
            mean(tail(3)),
            mean(tail(8)),
            median(tail(5)),
            ewma(0.3, forecasts[5]),
            ewma(0.7, forecasts[6]),
        ];
    }
    (errors, forecasts)
}

/// Runs `f` on the iterator's values gathered into a reusable
/// thread-local buffer — scratch space for predictors that need a
/// contiguous, mutable slice (median sort, NWS replay) without a fresh
/// allocation per decision point.
fn with_scratch<R>(values: impl Iterator<Item = f64>, f: impl FnOnce(&mut [f64]) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.clear();
        buf.extend(values);
        f(&mut buf)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history(samples: &[(f64, f64)]) -> PerfHistory {
        let mut h = PerfHistory::new(HistoryWindow::instantaneous());
        for &(t, v) in samples {
            h.record(t, v);
        }
        h
    }

    #[test]
    fn empty_history_predicts_nothing() {
        let h = history(&[]);
        assert_eq!(
            h.predict(Predictor::LastValue, HistoryWindow::instantaneous(), 0.0),
            None
        );
    }

    #[test]
    fn instantaneous_window_returns_last_sample() {
        let h = history(&[(0.0, 10.0), (5.0, 20.0), (9.0, 5.0)]);
        assert_eq!(
            h.predict(
                Predictor::WindowedMean,
                HistoryWindow::instantaneous(),
                10.0
            ),
            Some(5.0)
        );
    }

    #[test]
    fn windowed_mean_averages_recent_samples() {
        let h = history(&[(0.0, 100.0), (8.0, 10.0), (9.0, 20.0)]);
        // Window of 2 s at now=10 sees the samples at t=8, 9.
        assert_eq!(
            h.predict(Predictor::WindowedMean, HistoryWindow::seconds(2.0), 10.0),
            Some(15.0)
        );
        // A huge window sees everything.
        assert_eq!(
            h.predict(Predictor::WindowedMean, HistoryWindow::seconds(100.0), 10.0),
            Some(130.0 / 3.0)
        );
    }

    #[test]
    fn stale_history_degrades_to_last_value() {
        let h = history(&[(0.0, 42.0)]);
        assert_eq!(
            h.predict(Predictor::WindowedMean, HistoryWindow::seconds(5.0), 100.0),
            Some(42.0)
        );
    }

    #[test]
    fn median_is_robust_to_one_spike() {
        let h = history(&[
            (0.0, 10.0),
            (1.0, 10.0),
            (2.0, 1000.0),
            (3.0, 10.0),
            (4.0, 12.0),
        ]);
        let m = h
            .predict(Predictor::WindowedMedian, HistoryWindow::seconds(10.0), 5.0)
            .unwrap();
        assert_eq!(m, 10.0);
    }

    #[test]
    fn ewma_weights_recent_samples_more() {
        let h = history(&[(0.0, 0.0), (1.0, 0.0), (2.0, 100.0)]);
        let e = h
            .predict(Predictor::Ewma(0.5), HistoryWindow::seconds(10.0), 2.0)
            .unwrap();
        assert_eq!(e, 50.0);
        let m = h
            .predict(Predictor::WindowedMean, HistoryWindow::seconds(10.0), 2.0)
            .unwrap();
        assert!(e > m, "EWMA {e} should exceed plain mean {m}");
    }

    #[test]
    fn retention_prunes_but_keeps_newest() {
        // A window shorter than an hour keeps an hour; a sample exactly
        // that old stays.
        let mut h = PerfHistory::new(HistoryWindow::seconds(10.0));
        h.record(0.0, 1.0);
        h.record(3600.0, 2.0);
        assert_eq!(h.len(), 2);
        h.record(3700.0, 3.0);
        assert_eq!(h.len(), 2);
        // A longer window keeps the whole window, and the newest sample
        // always stays.
        let mut h = PerfHistory::new(HistoryWindow::seconds(7200.0));
        h.record(0.0, 1.0);
        h.record(7200.0, 2.0);
        assert_eq!(h.len(), 2);
        h.record(20_000.0, 3.0);
        assert_eq!(h.len(), 1);
        assert_eq!(h.last(), Some((20_000.0, 3.0)));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_out_of_order_samples() {
        let mut h = history(&[]);
        h.record(5.0, 1.0);
        h.record(4.0, 1.0);
    }

    #[test]
    fn nws_predictor_answers_and_degrades_gracefully() {
        let h = history(&[(0.0, 10.0), (1.0, 10.0), (2.0, 10.0), (3.0, 10.0)]);
        assert_eq!(
            h.predict(Predictor::Nws, HistoryWindow::seconds(10.0), 4.0),
            Some(10.0)
        );
        // Stale window → last value, like the other predictors.
        assert_eq!(
            h.predict(Predictor::Nws, HistoryWindow::seconds(0.5), 100.0),
            Some(10.0)
        );
    }

    #[test]
    fn time_weighted_mean_honours_sample_spans() {
        // Value 10 for 90 s, then value 100 for 10 s: the plain mean says
        // 55; the time-weighted mean says 19.
        let h = history(&[(0.0, 10.0), (90.0, 100.0)]);
        let tw = h
            .predict(
                Predictor::TimeWeightedMean,
                HistoryWindow::seconds(200.0),
                100.0,
            )
            .unwrap();
        assert!((tw - 19.0).abs() < 1e-9, "time-weighted {tw}");
        let plain = h
            .predict(
                Predictor::WindowedMean,
                HistoryWindow::seconds(200.0),
                100.0,
            )
            .unwrap();
        assert_eq!(plain, 55.0);
    }

    #[test]
    fn time_weighted_mean_with_one_sample_returns_it() {
        let h = history(&[(5.0, 42.0)]);
        assert_eq!(
            h.predict(
                Predictor::TimeWeightedMean,
                HistoryWindow::seconds(50.0),
                10.0
            ),
            Some(42.0)
        );
    }

    #[test]
    fn nws_predicts_a_constant_series_exactly() {
        assert_eq!(nws(&[5.0; 10]), Some(5.0));
    }

    #[test]
    fn nws_follows_a_steady_trend_with_the_last_value() {
        // On a monotone ramp, last-value has the smallest one-step error
        // of the bank members.
        let samples: Vec<f64> = (0..30).map(|i| i as f64).collect();
        assert_eq!(nws(&samples), Some(29.0));
    }

    #[test]
    fn nws_hugs_the_base_level_under_spiky_noise() {
        // A constant signal with rare huge spikes: last-value is badly
        // punished after each spike, so a robust member must answer.
        let mut samples = vec![10.0; 40];
        for i in (7..40).step_by(8) {
            samples[i] = 1000.0;
        }
        let f = nws(&samples).unwrap();
        assert!(
            (f - 10.0).abs() < 5.0,
            "forecast {f} should hug the base level"
        );
    }

    #[test]
    fn nws_has_no_forecast_for_an_empty_window() {
        assert_eq!(nws(&[]), None);
    }

    mod props {
        use proptest::prelude::*;

        /// A window of 0–64 samples built step by step from zeros of
        /// both signs, plateaus (the last value again, up to 8 times),
        /// spikes, three shared levels (ties across the window) and
        /// uniform draws.
        fn window() -> impl Strategy<Value = Vec<f64>> {
            proptest::collection::vec((0usize..7, 0.0f64..100.0), 0..65).prop_map(|steps| {
                let mut out: Vec<f64> = Vec::new();
                for (kind, x) in steps {
                    let last = out.last().copied().unwrap_or(x);
                    match kind {
                        0 => out.push(0.0),
                        1 => out.push(-0.0),
                        2 => out.extend(std::iter::repeat_n(last, 1 + x as usize % 8)),
                        3 => out.push(x * 1e6),
                        4 => out.push([1.0, 10.0, 100.0][x as usize % 3]),
                        _ => out.push(x),
                    }
                }
                out.truncate(64);
                out
            })
        }

        proptest! {
            /// The one-pass bank answers as the boxed reference bank,
            /// bit for bit, on every window (empty included), and every
            /// member's error and forecast match the reference's.
            #[test]
            fn prop_nws_matches_the_reference_bank(vals in window()) {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let got = super::super::nws(&vals);
                let want = crate::reference::nws_forecast(&vals);
                prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
                if !vals.is_empty() {
                    let (errors, forecasts) = super::super::nws_bank(&vals);
                    let (want_errors, want_forecasts) = crate::reference::nws_members(&vals);
                    prop_assert_eq!(bits(&errors), bits(&want_errors));
                    prop_assert_eq!(bits(&forecasts), bits(&want_forecasts));
                }
            }
        }
    }

    #[test]
    fn even_length_median_averages_middle_pair() {
        let h = history(&[(0.0, 10.0), (1.0, 20.0), (2.0, 30.0), (3.0, 40.0)]);
        assert_eq!(
            h.predict(Predictor::WindowedMedian, HistoryWindow::seconds(10.0), 3.0),
            Some(25.0)
        );
    }
}
