//! Load traces: competing-process counts over time.

use serde::{Deserialize, Serialize};
use simkit::Timeline;

/// A recorded or generated CPU load trace: the number of competing
/// compute-bound processes as a step function of time.
///
/// This is the interchange type between the load generators
/// ([`crate::onoff`], [`crate::hyperexp`]) and the simulator: a trace can
/// be converted to an availability [`Timeline`] (`1/(1+k)`) or inspected
/// statistically ([`crate::stats`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LoadTrace {
    counts: Timeline,
}

impl LoadTrace {
    /// Wraps an existing competing-count timeline.
    pub fn from_timeline(counts: Timeline) -> Self {
        LoadTrace { counts }
    }

    /// A permanently unloaded trace.
    pub fn unloaded() -> Self {
        LoadTrace {
            counts: Timeline::constant(0.0),
        }
    }

    /// Builds a trace from `(start, end)` busy intervals of individual
    /// competing processes; overlapping intervals stack (the count is the
    /// number of intervals covering each instant). Intervals with
    /// `end <= start` are ignored.
    pub fn from_intervals<I: IntoIterator<Item = (f64, f64)>>(intervals: I) -> Self {
        // Sweep line over +1/-1 deltas.
        let intervals = intervals.into_iter();
        let mut deltas: Vec<(f64, i64)> = Vec::with_capacity(2 * intervals.size_hint().0);
        for (start, end) in intervals {
            assert!(
                start.is_finite() && end.is_finite() && start >= 0.0,
                "intervals must be finite and non-negative"
            );
            if end <= start {
                continue;
            }
            deltas.push((start, 1));
            deltas.push((end, -1));
        }
        // The deltas at one instant (`==`, so 0.0 and -0.0 too) are summed
        // as a group before the count is written, so their order inside a
        // tie cannot change a count and the sort need not be stable.
        deltas.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut counts = Timeline::constant(0.0);
        let mut count: i64 = 0;
        for group in deltas.chunk_by(|a, b| a.0 == b.0) {
            count += group.iter().map(|&(_, d)| d).sum::<i64>();
            let (t, k) = (group[0].0, count as f64);
            if t == 0.0 {
                counts = Timeline::constant(k);
            } else {
                counts.push(t, k);
            }
        }
        LoadTrace { counts }
    }

    /// The competing-process count as a timeline.
    pub fn counts(&self) -> &Timeline {
        &self.counts
    }

    /// The competing-process count timeline, moved out of the trace.
    pub fn into_counts(self) -> Timeline {
        self.counts
    }

    /// The count at instant `t`.
    pub fn count_at(&self, t: f64) -> f64 {
        self.counts.value_at(t)
    }

    /// Availability fraction `1/(1+k(t))` as a timeline — what an
    /// application process of the paper's time-sharing model receives.
    pub fn availability(&self) -> Timeline {
        self.counts.map(|k| 1.0 / (1.0 + k))
    }

    /// Scales every competing-process count by `factor` — e.g. turning a
    /// binary ON/OFF presence trace into a heavy reclamation trace
    /// (`factor = 19` means the owner's return leaves the guest process
    /// 5% of the CPU under the `1/(1+k)` model).
    ///
    /// # Panics
    /// Panics if `factor` is negative or non-finite.
    pub fn scale_counts(&self, factor: f64) -> LoadTrace {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "scale factor must be non-negative"
        );
        LoadTrace {
            counts: self.counts.map(|k| k * factor),
        }
    }

    /// Stacks two traces (total competing count).
    pub fn merge(&self, other: &LoadTrace) -> LoadTrace {
        LoadTrace {
            counts: self.counts.zip_with(&other.counts, |a, b| a + b),
        }
    }

    /// Stacks many traces.
    ///
    /// # Panics
    /// Panics on an empty iterator.
    pub fn merge_all<'a, I: IntoIterator<Item = &'a LoadTrace>>(traces: I) -> LoadTrace {
        let mut it = traces.into_iter();
        let first = it
            .next()
            .expect("merge_all needs at least one trace")
            .clone();
        it.fold(first, |acc, t| acc.merge(t))
    }

    /// Samples the trace at a fixed period, e.g. to export the Figure 2/3
    /// style plots. Returns `(time, count)` rows covering `[0, horizon]`.
    pub fn sample(&self, horizon: f64, period: f64) -> Vec<(f64, f64)> {
        assert!(period > 0.0 && horizon >= 0.0);
        let n = (horizon / period).floor() as usize;
        (0..=n)
            .map(|i| {
                let t = i as f64 * period;
                (t, self.counts.value_at(t))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_stack() {
        let t = LoadTrace::from_intervals([(1.0, 5.0), (3.0, 7.0)]);
        assert_eq!(t.count_at(0.5), 0.0);
        assert_eq!(t.count_at(2.0), 1.0);
        assert_eq!(t.count_at(4.0), 2.0);
        assert_eq!(t.count_at(6.0), 1.0);
        assert_eq!(t.count_at(8.0), 0.0);
    }

    #[test]
    fn empty_and_degenerate_intervals_are_unloaded() {
        let t = LoadTrace::from_intervals([(5.0, 5.0), (7.0, 3.0)]);
        assert_eq!(t, LoadTrace::unloaded());
    }

    #[test]
    fn interval_starting_at_zero_sets_initial_count() {
        let t = LoadTrace::from_intervals([(0.0, 2.0)]);
        assert_eq!(t.count_at(0.0), 1.0);
        assert_eq!(t.count_at(3.0), 0.0);
    }

    #[test]
    fn availability_follows_time_sharing_model() {
        let t = LoadTrace::from_intervals([(0.0, 10.0), (0.0, 10.0), (0.0, 10.0)]);
        let a = t.availability();
        assert_eq!(a.value_at(5.0), 0.25);
        assert_eq!(a.value_at(15.0), 1.0);
    }

    #[test]
    fn merge_adds_counts() {
        let a = LoadTrace::from_intervals([(0.0, 4.0)]);
        let b = LoadTrace::from_intervals([(2.0, 6.0)]);
        let m = a.merge(&b);
        assert_eq!(m.count_at(1.0), 1.0);
        assert_eq!(m.count_at(3.0), 2.0);
        assert_eq!(m.count_at(5.0), 1.0);
    }

    #[test]
    fn sample_produces_regular_grid() {
        let t = LoadTrace::from_intervals([(1.0, 3.0)]);
        let rows = t.sample(4.0, 1.0);
        assert_eq!(
            rows,
            vec![(0.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 0.0), (4.0, 0.0)]
        );
    }

    #[test]
    fn scale_counts_multiplies_pointwise() {
        let t = LoadTrace::from_intervals([(0.0, 5.0), (2.0, 5.0)]);
        let s = t.scale_counts(19.0);
        assert_eq!(s.count_at(1.0), 19.0);
        assert_eq!(s.count_at(3.0), 38.0);
        assert_eq!(s.count_at(6.0), 0.0);
        // Availability collapses to ~5% under reclamation.
        assert!((s.availability().value_at(1.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn coincident_start_end_transitions_are_atomic() {
        // One process ends exactly when another starts: the count should
        // never dip or spike at the shared breakpoint.
        let t = LoadTrace::from_intervals([(0.0, 5.0), (5.0, 10.0)]);
        assert_eq!(t.count_at(5.0), 1.0);
        assert_eq!(t.counts().points().len(), 2); // (0,1), (10,0)
    }
}
