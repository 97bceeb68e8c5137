//! The NWS forecaster bank as trait objects, compiled for tests only:
//! seven boxed `Forecaster`s, each fed every sample, with a cumulative
//! absolute error per member and the lowest-error member answering.
//! A property test in `history` holds `Predictor::Nws`'s one-pass bank
//! to it bit for bit: the answer, and each member's error and forecast.

use std::collections::VecDeque;

/// One elementary forecaster in the bank.
trait Forecaster {
    /// Feeds the next observation.
    fn update(&mut self, value: f64);
    /// Forecast of the next value, if enough data has been seen.
    fn forecast(&self) -> Option<f64>;
}

/// Predicts the most recent observation.
#[derive(Default)]
struct LastValue {
    last: Option<f64>,
}

impl Forecaster for LastValue {
    fn update(&mut self, value: f64) {
        self.last = Some(value);
    }
    fn forecast(&self) -> Option<f64> {
        self.last
    }
}

/// Predicts the mean of everything seen.
#[derive(Default)]
struct RunningMean {
    sum: f64,
    n: usize,
}

impl Forecaster for RunningMean {
    fn update(&mut self, value: f64) {
        self.sum += value;
        self.n += 1;
    }
    fn forecast(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }
}

/// Predicts the mean of the last `k` observations.
struct SlidingMean {
    k: usize,
    buf: VecDeque<f64>,
}

impl SlidingMean {
    fn new(k: usize) -> Self {
        assert!(k >= 1);
        SlidingMean {
            k,
            buf: VecDeque::new(),
        }
    }
}

impl Forecaster for SlidingMean {
    fn update(&mut self, value: f64) {
        self.buf.push_back(value);
        if self.buf.len() > self.k {
            self.buf.pop_front();
        }
    }
    fn forecast(&self) -> Option<f64> {
        (!self.buf.is_empty()).then(|| self.buf.iter().sum::<f64>() / self.buf.len() as f64)
    }
}

/// Predicts the median of the last `k` observations (robust to spikes).
struct SlidingMedian {
    k: usize,
    buf: VecDeque<f64>,
}

impl SlidingMedian {
    fn new(k: usize) -> Self {
        assert!(k >= 1);
        SlidingMedian {
            k,
            buf: VecDeque::new(),
        }
    }
}

impl Forecaster for SlidingMedian {
    fn update(&mut self, value: f64) {
        self.buf.push_back(value);
        if self.buf.len() > self.k {
            self.buf.pop_front();
        }
    }
    fn forecast(&self) -> Option<f64> {
        if self.buf.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = self.buf.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        Some(if sorted.len().is_multiple_of(2) {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        } else {
            sorted[mid]
        })
    }
}

/// Exponentially weighted moving average with smoothing `alpha`.
struct Ewma {
    alpha: f64,
    acc: Option<f64>,
}

impl Ewma {
    fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, acc: None }
    }
}

impl Forecaster for Ewma {
    fn update(&mut self, value: f64) {
        self.acc = Some(match self.acc {
            None => value,
            Some(acc) => self.alpha * value + (1.0 - self.alpha) * acc,
        });
    }
    fn forecast(&self) -> Option<f64> {
        self.acc
    }
}

/// The default NWS-style bank.
fn default_bank() -> Vec<Box<dyn Forecaster>> {
    vec![
        Box::new(LastValue::default()),
        Box::new(RunningMean::default()),
        Box::new(SlidingMean::new(3)),
        Box::new(SlidingMean::new(8)),
        Box::new(SlidingMedian::new(5)),
        Box::new(Ewma::new(0.3)),
        Box::new(Ewma::new(0.7)),
    ]
}

/// A forecaster bank with per-member error tracking and dynamic
/// selection: [`NwsBank::forecast`] answers with the member whose
/// cumulative absolute one-step error is lowest so far.
struct NwsBank {
    members: Vec<Box<dyn Forecaster>>,
    errors: Vec<f64>,
}

impl NwsBank {
    fn new(members: Vec<Box<dyn Forecaster>>) -> Self {
        assert!(!members.is_empty(), "bank needs at least one forecaster");
        let n = members.len();
        NwsBank {
            members,
            errors: vec![0.0; n],
        }
    }

    /// Feeds the next observation: first scores every member's pending
    /// forecast against it, then updates the members.
    fn observe(&mut self, value: f64) {
        for (m, err) in self.members.iter_mut().zip(&mut self.errors) {
            if let Some(f) = m.forecast() {
                *err += (f - value).abs();
            }
            m.update(value);
        }
    }

    /// The current best member's index (lowest cumulative error; ties go
    /// to the earlier member).
    fn best(&self) -> usize {
        self.errors
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("bank is non-empty")
    }

    /// Forecast of the next value from the best member.
    fn forecast(&self) -> Option<f64> {
        self.members[self.best()].forecast()
    }
}

/// One-shot NWS forecast over a sample window: replays the samples
/// through a fresh default bank and returns the best member's forecast.
/// Returns `None` on an empty window.
pub fn nws_forecast(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut bank = NwsBank::new(default_bank());
    for &s in samples {
        bank.observe(s);
    }
    bank.forecast()
}

/// Each member's cumulative error and forecast after replaying a
/// non-empty window through a fresh default bank, in bank order.
pub fn nws_members(samples: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut bank = NwsBank::new(default_bank());
    for &s in samples {
        bank.observe(s);
    }
    let forecasts = bank
        .members
        .iter()
        .map(|m| {
            m.forecast()
                .expect("a member has a forecast after a sample")
        })
        .collect();
    (bank.errors, forecasts)
}
