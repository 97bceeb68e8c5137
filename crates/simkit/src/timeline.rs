//! Piecewise-constant timelines.
//!
//! A [`Timeline`] is a right-continuous step function of simulated time,
//! defined from `t = 0` to `t = +∞` (the final segment extends forever).
//! It is the central representation of everything time-varying in the
//! simulation: competing-process counts, CPU availability fractions,
//! delivered flop rates.
//!
//! The two operations that power the whole study are
//! [`Timeline::integrate`] — how much "area" (work capacity) the function
//! delivers over an interval — and its inverse [`Timeline::advance`] —
//! given a start instant and an amount of work, at what instant does the
//! work complete. Both are exact for step functions (no numerical
//! quadrature is involved).
//!
//! A simulation run queries each host's timeline at instants that mostly
//! move forward, so these queries also have a `*_with` form that carries a
//! [`Cursor`]: the segment the previous query ended in. The cursor is
//! only a hint. Any value, stale or out of range, gives the same answer
//! bit for bit; a good one turns the segment search into an O(1) step.

use serde::{Deserialize, Serialize};

/// A right-continuous, piecewise-constant step function of time.
///
/// Invariants (enforced by the constructors):
/// * breakpoints are strictly increasing in time,
/// * the first breakpoint is at `t = 0`,
/// * values are finite and non-negative,
/// * consecutive segments have distinct values (runs are coalesced).
///
/// ```
/// use simkit::Timeline;
///
/// // Availability 1.0 for 10 s, then 0.5 forever (one competitor shows up).
/// let avail = Timeline::from_points([(0.0, 1.0), (10.0, 0.5)]);
/// assert_eq!(avail.integrate(0.0, 20.0), 15.0);   // delivered capacity
/// assert_eq!(avail.advance(0.0, 15.0), 20.0);     // when 15 units finish
/// assert_eq!(avail.value_at(10.0), 0.5);          // right-continuous
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// `(start_time, value)` pairs; each value holds from its start time
    /// until the next breakpoint (or forever, for the last one).
    points: Vec<(f64, f64)>,
}

/// A segment index carried from one [`Timeline`] query to the next.
///
/// A query that takes a cursor starts its segment search there: when the
/// query instant lies in the hinted segment or the one after, the search
/// is O(1); otherwise it binary-searches the breakpoints on the far side
/// of the hint. The answer never depends on the cursor's value, so one
/// cursor may serve queries in any order, even on another timeline.
/// `Cursor::default()` is a fresh search.
///
/// ```
/// use simkit::{Cursor, Timeline};
///
/// let avail = Timeline::from_points([(0.0, 1.0), (10.0, 0.5), (20.0, 1.0)]);
/// let mut cursor = Cursor::default();
/// // One host's iterations: each starts where the previous one ended.
/// let end = avail.advance_with(0.0, 12.5, &mut cursor);
/// assert_eq!(end, 15.0);
/// assert_eq!(avail.advance_with(end, 7.5, &mut cursor), 25.0);
/// // A query that moves backward gets the same answer as a fresh one.
/// assert_eq!(avail.integrate_with(5.0, 15.0, &mut cursor), avail.integrate(5.0, 15.0));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cursor(pub(crate) usize);

impl Timeline {
    /// A timeline that is `value` everywhere.
    pub fn constant(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "timeline values must be finite and non-negative, got {value}"
        );
        Timeline {
            points: vec![(0.0, value)],
        }
    }

    /// Builds a timeline from `(start_time, value)` breakpoints.
    ///
    /// The first breakpoint must be at `t = 0`; times must be strictly
    /// increasing. Runs of equal consecutive values are coalesced.
    ///
    /// # Panics
    /// Panics if the invariants listed on [`Timeline`] are violated.
    pub fn from_points<I: IntoIterator<Item = (f64, f64)>>(points: I) -> Self {
        let points = points.into_iter();
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(points.size_hint().0);
        for (t, v) in points {
            assert!(t.is_finite(), "breakpoint time must be finite, got {t}");
            assert!(
                v.is_finite() && v >= 0.0,
                "timeline values must be finite and non-negative, got {v}"
            );
            match out.last() {
                None => assert!(t == 0.0, "first breakpoint must be at t=0, got {t}"),
                Some(&(last_t, last_v)) => {
                    assert!(t > last_t, "breakpoints must be strictly increasing");
                    if v == last_v {
                        continue; // coalesce equal-value runs
                    }
                }
            }
            out.push((t, v));
        }
        assert!(!out.is_empty(), "timeline needs at least one breakpoint");
        Timeline { points: out }
    }

    /// Appends a breakpoint: from time `t` on, the function takes `value`.
    ///
    /// # Panics
    /// Panics if `t` is not later than the last breakpoint, or `value` is
    /// negative or non-finite.
    pub fn push(&mut self, t: f64, value: f64) {
        assert!(t.is_finite() && value.is_finite() && value >= 0.0);
        let &(last_t, last_v) = self.points.last().expect("timeline is never empty");
        assert!(t > last_t, "breakpoints must be strictly increasing");
        if value != last_v {
            self.points.push((t, value));
        }
    }

    /// The function's value at instant `t` (for `t < 0`, the value at 0).
    pub fn value_at(&self, t: f64) -> f64 {
        match self.points.partition_point(|&(pt, _)| pt <= t) {
            0 => self.points[0].1,
            i => self.points[i - 1].1,
        }
    }

    /// The breakpoints, as `(start_time, value)` pairs.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The index of the segment holding `t` (segment 0 for `t < 0`),
    /// searched from the hint in `cursor`, which is left pointing at it.
    fn seek(&self, t: f64, cursor: &mut Cursor) -> usize {
        let pts = &self.points;
        let hint = cursor.0;
        let idx = if hint < pts.len() && pts[hint].0 <= t {
            // `t` lies in the hinted segment or after it: try the hinted
            // and the next segment, then search the rest.
            let next = hint + 1;
            match pts.get(next) {
                Some(&(start, _)) if start <= t => match pts.get(next + 1) {
                    Some(&(after, _)) if after <= t => {
                        next + pts[next + 1..].partition_point(|&(pt, _)| pt <= t)
                    }
                    _ => next,
                },
                _ => hint,
            }
        } else {
            // Every breakpoint from the hint on lies after `t` (or the
            // hint is out of range): search the ones before it.
            let end = hint.min(pts.len());
            pts[..end].partition_point(|&(pt, _)| pt <= t).max(1) - 1
        };
        cursor.0 = idx;
        idx
    }

    /// The segments from index `start` on that overlap `[t0, t1)`, as
    /// `(index, start, end, value)` clipped to the interval.
    fn segments_from(
        &self,
        start: usize,
        t0: f64,
        t1: f64,
    ) -> impl Iterator<Item = (usize, f64, f64, f64)> + '_ {
        self.points[start..]
            .iter()
            .enumerate()
            .map_while(move |(k, &(seg_start, v))| {
                let i = start + k;
                let seg_end = self
                    .points
                    .get(i + 1)
                    .map_or(f64::INFINITY, |&(next, _)| next);
                let lo = seg_start.max(t0);
                let hi = seg_end.min(t1);
                if lo >= t1 {
                    None
                } else {
                    Some((i, lo, hi, v))
                }
            })
            .filter(|&(_, lo, hi, _)| hi > lo)
    }

    /// Iterates segments overlapping `[t0, t1)` as `(start, end, value)`,
    /// clipped to the interval. The last segment of the timeline is treated
    /// as extending to `t1`.
    pub fn segments_in(&self, t0: f64, t1: f64) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        let start = self.seek(t0, &mut Cursor::default());
        self.segments_from(start, t0, t1)
            .map(|(_, lo, hi, v)| (lo, hi, v))
    }

    /// Exact integral of the function over `[t0, t1]`.
    pub fn integrate(&self, t0: f64, t1: f64) -> f64 {
        self.integrate_with(t0, t1, &mut Cursor::default())
    }

    /// [`integrate`](Self::integrate), searching from `cursor` and leaving
    /// it at the last segment the interval overlaps.
    pub fn integrate_with(&self, t0: f64, t1: f64, cursor: &mut Cursor) -> f64 {
        assert!(
            t1 >= t0,
            "integrate: interval must be ordered ({t0} > {t1})"
        );
        let start = self.seek(t0, cursor);
        self.segments_from(start, t0, t1)
            .map(|(i, lo, hi, v)| {
                cursor.0 = i;
                (hi - lo) * v
            })
            .sum()
    }

    /// Inverse of [`integrate`](Self::integrate): the earliest instant `t`
    /// such that the integral over `[t0, t]` reaches `work`.
    ///
    /// Returns `f64::INFINITY` when the timeline's tail is zero and the
    /// remaining work can never complete.
    pub fn advance(&self, t0: f64, work: f64) -> f64 {
        self.advance_with(t0, work, &mut Cursor::default())
    }

    /// [`advance`](Self::advance), searching from `cursor` and leaving it
    /// at the segment where the work completes.
    pub fn advance_with(&self, t0: f64, work: f64, cursor: &mut Cursor) -> f64 {
        assert!(work >= 0.0, "advance: work must be non-negative");
        if work == 0.0 {
            return t0;
        }
        let mut remaining = work;
        let start_idx = self.seek(t0, cursor);
        for (i, &(seg_start, v)) in self.points[start_idx..].iter().enumerate() {
            let idx = start_idx + i;
            let lo = seg_start.max(t0);
            let seg_end = self
                .points
                .get(idx + 1)
                .map_or(f64::INFINITY, |&(next, _)| next);
            if seg_end <= lo {
                continue;
            }
            cursor.0 = idx;
            if v > 0.0 {
                let capacity = (seg_end - lo) * v; // may be INF for the tail
                if remaining <= capacity {
                    return lo + remaining / v;
                }
                remaining -= capacity;
            } else if seg_end == f64::INFINITY {
                return f64::INFINITY;
            }
        }
        // Unreachable: the loop always ends in a segment with seg_end == INF.
        f64::INFINITY
    }

    /// Mean value over `[t0, t1]` (zero-length intervals return the point
    /// value at `t0`).
    pub fn mean(&self, t0: f64, t1: f64) -> f64 {
        self.mean_with(t0, t1, &mut Cursor::default())
    }

    /// [`mean`](Self::mean), searching from `cursor` as
    /// [`integrate_with`](Self::integrate_with) does.
    pub fn mean_with(&self, t0: f64, t1: f64, cursor: &mut Cursor) -> f64 {
        if t1 <= t0 {
            return self.points[self.seek(t0, cursor)].1;
        }
        self.integrate_with(t0, t1, cursor) / (t1 - t0)
    }

    /// Pointwise transformation of the values. `f` must map equal inputs to
    /// equal outputs (it is applied per segment). Segments that `f` makes
    /// equal are coalesced, and the result is stored at exact size.
    ///
    /// # Panics
    /// Panics if `f` produces a negative or non-finite value.
    pub fn map<F: FnMut(f64) -> f64>(&self, f: F) -> Timeline {
        self.map_before(f64::INFINITY, f)
    }

    /// [`map`](Self::map) on `[0, end)`, and 0 from `end` on, so nothing
    /// the result holds at or past `end` comes from `self`.
    pub(crate) fn map_before<F: FnMut(f64) -> f64>(&self, end: f64, mut f: F) -> Timeline {
        // The times come from a valid timeline, so only the values need
        // checking.
        let kept = self.points.partition_point(|&(t, _)| t < end);
        let cut = kept < self.points.len() || end.is_finite();
        let mut points: Vec<(f64, f64)> = Vec::with_capacity(kept + usize::from(cut));
        for &(t, v) in &self.points[..kept] {
            let v = f(v);
            assert!(
                v.is_finite() && v >= 0.0,
                "timeline values must be finite and non-negative, got {v}"
            );
            if points.last().is_none_or(|&(_, last)| last != v) {
                points.push((t, v));
            }
        }
        if cut {
            match points.last() {
                None => points.push((0.0, 0.0)),
                Some(&(_, last)) if last != 0.0 => points.push((end, 0.0)),
                Some(_) => {}
            }
        }
        points.shrink_to_fit();
        Timeline { points }
    }

    /// Releases the spare capacity that [`push`](Self::push) leaves behind.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.points.shrink_to_fit();
    }

    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.points.capacity()
    }

    /// Returns a copy with `value` overriding the function inside each
    /// `[start, end)` window, resuming the original values on exit — how
    /// a transient outage (e.g. a host blackout) is spliced into a
    /// competing-load timeline without touching the rest of the trace.
    ///
    /// # Panics
    /// Panics if the windows are not sorted, disjoint, and non-negative,
    /// or if `value` is negative or non-finite.
    pub fn splice(&self, windows: &[(f64, f64)], value: f64) -> Timeline {
        assert!(
            value.is_finite() && value >= 0.0,
            "spliced value must be finite and non-negative"
        );
        let mut prev_end = 0.0f64;
        for &(s, e) in windows {
            assert!(
                s >= prev_end && e > s && s >= 0.0,
                "splice windows must be sorted, disjoint, and non-negative"
            );
            prev_end = e;
        }
        if windows.is_empty() {
            return self.clone();
        }
        // Candidate breakpoints: the original ones plus every window
        // edge; evaluate the composed function at each and let
        // `from_points` coalesce equal runs.
        let mut times: Vec<f64> = self.points.iter().map(|&(t, _)| t).collect();
        times.extend(windows.iter().flat_map(|&(s, e)| [s, e]));
        times.push(0.0);
        times.sort_by(f64::total_cmp);
        times.dedup();
        let composed = |t: f64| {
            if windows.iter().any(|&(s, e)| s <= t && t < e) {
                value
            } else {
                self.value_at(t)
            }
        };
        Timeline::from_points(times.into_iter().map(|t| (t, composed(t))))
    }

    /// Pointwise combination of two timelines: the result at time `t` is
    /// `f(self(t), other(t))`. Breakpoints are the union of both inputs'.
    pub fn zip_with<F: FnMut(f64, f64) -> f64>(&self, other: &Timeline, mut f: F) -> Timeline {
        let mut times: Vec<f64> = self
            .points
            .iter()
            .chain(other.points.iter())
            .map(|&(t, _)| t)
            .collect();
        times.sort_by(f64::total_cmp);
        times.dedup();
        Timeline::from_points(
            times
                .into_iter()
                .map(|t| (t, f(self.value_at(t), other.value_at(t)))),
        )
    }

    /// Sums a collection of timelines pointwise (e.g. aggregating several
    /// ON/OFF load sources into a competing-process count).
    ///
    /// # Panics
    /// Panics on an empty iterator.
    pub fn sum<'a, I: IntoIterator<Item = &'a Timeline>>(timelines: I) -> Timeline {
        let mut iter = timelines.into_iter();
        let first = iter
            .next()
            .expect("Timeline::sum needs at least one input")
            .clone();
        iter.fold(first, |acc, t| acc.zip_with(t, |a, b| a + b))
    }

    /// The earliest breakpoint strictly after `t`, or `None` once the
    /// function is constant forever.
    pub fn next_change_after(&self, t: f64) -> Option<f64> {
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        self.points.get(idx).map(|&(pt, _)| pt)
    }

    /// The time of the last breakpoint (after which the value is constant).
    pub fn last_change(&self) -> f64 {
        self.points.last().expect("timeline is never empty").0
    }

    /// The value the function takes from [`last_change`](Self::last_change)
    /// onwards.
    pub fn tail_value(&self) -> f64 {
        self.points.last().expect("timeline is never empty").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn steps() -> Timeline {
        // value 1 on [0,10), 0.5 on [10,20), 0 on [20,30), 2 on [30,∞)
        Timeline::from_points([(0.0, 1.0), (10.0, 0.5), (20.0, 0.0), (30.0, 2.0)])
    }

    #[test]
    fn value_at_queries_correct_segment() {
        let t = steps();
        assert_eq!(t.value_at(0.0), 1.0);
        assert_eq!(t.value_at(9.999), 1.0);
        assert_eq!(t.value_at(10.0), 0.5); // right-continuity
        assert_eq!(t.value_at(25.0), 0.0);
        assert_eq!(t.value_at(1e9), 2.0);
        assert_eq!(t.value_at(-5.0), 1.0);
    }

    #[test]
    fn integrate_across_segments() {
        let t = steps();
        assert_eq!(t.integrate(0.0, 10.0), 10.0);
        assert_eq!(t.integrate(0.0, 20.0), 15.0);
        assert_eq!(t.integrate(5.0, 15.0), 5.0 + 2.5);
        assert_eq!(t.integrate(20.0, 30.0), 0.0);
        assert_eq!(t.integrate(25.0, 35.0), 10.0);
        assert_eq!(t.integrate(7.0, 7.0), 0.0);
    }

    #[test]
    fn advance_inverts_integrate() {
        let t = steps();
        assert_eq!(t.advance(0.0, 10.0), 10.0);
        assert_eq!(t.advance(0.0, 12.5), 15.0);
        // 15 units of work exhausts [0,20); the zero segment is skipped and
        // the rest completes in the tail at rate 2.
        assert_eq!(t.advance(0.0, 15.0 + 4.0), 32.0);
        assert_eq!(t.advance(5.0, 0.0), 5.0);
    }

    #[test]
    fn advance_returns_infinity_on_dead_tail() {
        let t = Timeline::from_points([(0.0, 1.0), (10.0, 0.0)]);
        assert_eq!(t.advance(0.0, 10.0), 10.0);
        assert_eq!(t.advance(0.0, 10.1), f64::INFINITY);
        assert_eq!(t.advance(11.0, 0.5), f64::INFINITY);
    }

    #[test]
    fn push_coalesces_equal_values() {
        let mut t = Timeline::constant(1.0);
        t.push(5.0, 1.0);
        t.push(6.0, 2.0);
        assert_eq!(t.points(), &[(0.0, 1.0), (6.0, 2.0)]);
    }

    #[test]
    fn zip_with_unions_breakpoints() {
        let a = Timeline::from_points([(0.0, 1.0), (10.0, 2.0)]);
        let b = Timeline::from_points([(0.0, 3.0), (5.0, 4.0)]);
        let s = a.zip_with(&b, |x, y| x + y);
        assert_eq!(s.value_at(0.0), 4.0);
        assert_eq!(s.value_at(5.0), 5.0);
        assert_eq!(s.value_at(10.0), 6.0);
        assert_eq!(s.points().len(), 3);
    }

    #[test]
    fn sum_aggregates_sources() {
        let a = Timeline::from_points([(0.0, 0.0), (1.0, 1.0)]);
        let b = Timeline::from_points([(0.0, 1.0), (2.0, 0.0)]);
        let c = Timeline::constant(1.0);
        let s = Timeline::sum([&a, &b, &c]);
        assert_eq!(s.value_at(0.5), 2.0);
        assert_eq!(s.value_at(1.5), 3.0);
        assert_eq!(s.value_at(2.5), 2.0);
    }

    #[test]
    fn mean_over_interval() {
        let t = steps();
        assert_eq!(t.mean(0.0, 20.0), 0.75);
        assert_eq!(t.mean(5.0, 5.0), 1.0); // degenerate interval -> point value
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn push_rejects_non_increasing_time() {
        let mut t = Timeline::constant(1.0);
        t.push(0.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_values() {
        Timeline::constant(-1.0);
    }

    #[test]
    fn splice_overrides_windows_and_resumes() {
        let t = steps(); // 1 on [0,10), 0.5 on [10,20), 0 on [20,30), 2 after
        let s = t.splice(&[(5.0, 12.0), (25.0, 40.0)], 9.0);
        assert_eq!(s.value_at(4.9), 1.0);
        assert_eq!(s.value_at(5.0), 9.0);
        assert_eq!(s.value_at(11.9), 9.0);
        assert_eq!(s.value_at(12.0), 0.5); // resumes the underlying trace
        assert_eq!(s.value_at(24.0), 0.0);
        assert_eq!(s.value_at(30.0), 9.0); // second window still in force
        assert_eq!(s.value_at(40.0), 2.0);
        // Empty windows: unchanged.
        assert_eq!(t.splice(&[], 9.0), t);
        // A window starting at 0 overrides the head.
        assert_eq!(steps().splice(&[(0.0, 1.0)], 7.0).value_at(0.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "sorted, disjoint")]
    fn splice_rejects_overlapping_windows() {
        steps().splice(&[(0.0, 5.0), (4.0, 6.0)], 1.0);
    }

    #[test]
    fn next_change_after_walks_breakpoints() {
        let t = steps();
        assert_eq!(t.next_change_after(0.0), Some(10.0));
        assert_eq!(t.next_change_after(10.0), Some(20.0));
        assert_eq!(t.next_change_after(25.0), Some(30.0));
        assert_eq!(t.next_change_after(30.0), None);
        assert_eq!(t.next_change_after(-1.0), Some(0.0));
    }

    #[test]
    fn map_transforms_values() {
        let t = Timeline::from_points([(0.0, 0.0), (10.0, 3.0)]);
        let avail = t.map(|competing| 1.0 / (1.0 + competing));
        assert_eq!(avail.value_at(0.0), 1.0);
        assert_eq!(avail.value_at(10.0), 0.25);
    }

    #[test]
    fn map_coalesces_merged_segments_and_stores_them_exactly() {
        let t = Timeline::from_points([(0.0, 1.0), (10.0, 2.0), (20.0, 3.0), (30.0, 0.0)]);
        let capped = t.map(|k| k.min(2.0));
        assert_eq!(capped.points(), &[(0.0, 1.0), (10.0, 2.0), (30.0, 0.0)]);
        assert_eq!(capped.points.capacity(), 3);
        assert_eq!(t.map(|k| k * 0.0).points(), &[(0.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn map_rejects_negative_values() {
        Timeline::constant(1.0).map(|k| -k);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_points_rejects_negative_values() {
        Timeline::from_points([(0.0, 1.0), (1.0, -1.0)]);
    }

    /// The `map` that every breakpoint of the result passed through
    /// `from_points`: the reference for the value-only check.
    fn reference_map(tl: &Timeline, mut f: impl FnMut(f64) -> f64) -> Timeline {
        Timeline::from_points(tl.points.iter().map(|&(t, v)| (t, f(v))))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `map` gives the reference's breakpoints bit for bit, at exact
        /// size, for maps that keep every segment and maps that merge
        /// them (a scale by 0 merges all of them).
        #[test]
        fn map_matches_the_from_points_reference(
            segments in proptest::collection::vec(
                (0.1f64..20.0, prop::sample::select(vec![0.0, 1.0, 2.0, 3.0, 0.5, 19.0, 1e6])),
                1..24,
            ),
            which in 0usize..6,
        ) {
            let mut t = 0.0;
            let tl = Timeline::from_points(segments.iter().map(|&(len, v)| {
                let p = (t, v);
                t += len;
                p
            }));
            let f = |k: f64| match which {
                0 => 1.0 / (1.0 + k),
                1 => k * 19.0,
                2 => k * 0.0,
                3 => (k / 2.0).floor(),
                4 => k.min(1.0),
                _ => -0.0 * k,
            };
            let got = tl.map(f);
            let want = reference_map(&tl, f);
            let bits = |tl: &Timeline| -> Vec<(u64, u64)> {
                tl.points.iter().map(|&(t, v)| (t.to_bits(), v.to_bits())).collect()
            };
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(got.points.capacity(), got.points.len());
        }
    }

    proptest! {
        /// advance(t0, integrate(t0, t1)) == t1 whenever the function is
        /// strictly positive on the relevant range.
        #[test]
        fn prop_advance_inverts_integrate(
            vals in proptest::collection::vec(0.1f64..5.0, 1..8),
            t0 in 0.0f64..50.0,
            dt in 0.0f64..100.0,
        ) {
            let points: Vec<(f64, f64)> =
                vals.iter().enumerate().map(|(i, &v)| (i as f64 * 7.0, v)).collect();
            let tl = Timeline::from_points(points);
            let t1 = t0 + dt;
            let work = tl.integrate(t0, t1);
            let back = tl.advance(t0, work);
            prop_assert!((back - t1).abs() < 1e-6, "t1={t1} back={back}");
        }

        /// Integration is additive over adjacent intervals.
        #[test]
        fn prop_integrate_additive(
            vals in proptest::collection::vec(0.0f64..5.0, 1..8),
            a in 0.0f64..30.0,
            b in 0.0f64..30.0,
            c in 0.0f64..30.0,
        ) {
            let mut cuts = [a, b, c];
            cuts.sort_by(f64::total_cmp);
            let points: Vec<(f64, f64)> =
                vals.iter().enumerate().map(|(i, &v)| (i as f64 * 4.0, v)).collect();
            let tl = Timeline::from_points(points);
            let whole = tl.integrate(cuts[0], cuts[2]);
            let split = tl.integrate(cuts[0], cuts[1]) + tl.integrate(cuts[1], cuts[2]);
            prop_assert!((whole - split).abs() < 1e-9);
        }

        /// advance never returns an instant earlier than the start.
        #[test]
        fn prop_advance_monotone(
            vals in proptest::collection::vec(0.0f64..5.0, 1..8),
            t0 in 0.0f64..30.0,
            w1 in 0.0f64..50.0,
            w2 in 0.0f64..50.0,
        ) {
            let points: Vec<(f64, f64)> =
                vals.iter().enumerate().map(|(i, &v)| (i as f64 * 4.0, v)).collect();
            let tl = Timeline::from_points(points);
            let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
            let e1 = tl.advance(t0, lo);
            let e2 = tl.advance(t0, hi);
            prop_assert!(e1 >= t0);
            prop_assert!(e2 >= e1);
        }

        /// A cursor is only a hint: every cursor-carrying query answers
        /// bit for bit what a fresh search answers, whatever the cursor
        /// held (stale, or out of range), along query sequences that move
        /// forward, repeat, jump back, start below 0 and run past the
        /// last breakpoint. Zero-valued segments and a zero tail make
        /// `advance` skip segments and return `INFINITY`.
        #[test]
        fn prop_cursor_is_only_a_hint(
            segments in proptest::collection::vec(
                (0.1f64..20.0, prop::sample::select(vec![0.0, 0.0, 0.25, 0.5, 1.0, 2.0])),
                1..12,
            ),
            start in prop::sample::select(vec![0usize, 1, 2, 3, 5, 8, 11, 12, 13, 40, usize::MAX]),
            queries in proptest::collection::vec((0usize..5, 0.0f64..30.0, 0.0f64..40.0), 1..24),
        ) {
            let mut t = 0.0;
            let points: Vec<(f64, f64)> = segments
                .iter()
                .map(|&(len, v)| {
                    let p = (t, v);
                    t += len;
                    p
                })
                .collect();
            let tl = Timeline::from_points(points);
            let mut cursor = Cursor(start);
            let mut t0 = 0.0;
            for &(step, dt, span) in &queries {
                t0 = match step {
                    // Forward, repeat, back (possibly below 0).
                    0 => t0 + dt,
                    1 => t0,
                    2 => t0 - dt,
                    // Exactly on a breakpoint.
                    3 => tl.points[dt as usize % tl.points.len()].0,
                    // Anywhere, past the last breakpoint too.
                    _ => dt * 10.0 - 20.0,
                };
                // The segment search itself, against the whole-range one.
                let whole = tl.points.partition_point(|&(pt, _)| pt <= t0).max(1) - 1;
                let mut probe = cursor;
                prop_assert_eq!(tl.seek(t0, &mut probe), whole, "seek({}) from {:?}", t0, cursor);
                let fresh = tl.advance(t0, span);
                let hinted = tl.advance_with(t0, span, &mut cursor);
                prop_assert_eq!(hinted.to_bits(), fresh.to_bits(), "advance({}, {})", t0, span);
                let fresh = tl.integrate(t0, t0 + span);
                let hinted = tl.integrate_with(t0, t0 + span, &mut cursor);
                prop_assert_eq!(hinted.to_bits(), fresh.to_bits(), "integrate({}, {})", t0, span);
                for t1 in [t0 + span, t0 - span] {
                    let fresh = tl.mean(t0, t1);
                    let hinted = tl.mean_with(t0, t1, &mut cursor);
                    prop_assert_eq!(hinted.to_bits(), fresh.to_bits(), "mean({}, {})", t0, t1);
                }
            }
        }
    }
}
