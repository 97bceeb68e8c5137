//! The interval-list construction of a load trace, compiled for tests
//! only: an ON/OFF generator that draws every sojourn with two `ln`
//! calls, collects the ON intervals, and stacks them as ±1 deltas under
//! a stable sort into a points list that `Timeline::from_points` checks.
//! Property tests hold the one-pass generator in `onoff` and the sweep
//! in `LoadTrace::from_intervals` to it.

use crate::onoff::OnOffSource;
use crate::trace::LoadTrace;
use rand::Rng;
use simkit::Timeline;

/// `OnOffSource::generate` through an interval list.
pub fn onoff_generate<R: Rng + ?Sized>(src: &OnOffSource, horizon: f64, rng: &mut R) -> LoadTrace {
    assert!(horizon >= 0.0 && horizon.is_finite());
    let mut on = rng.gen_bool(src.duty_cycle().clamp(0.0, 1.0));
    let mut t = 0.0;
    let mut intervals: Vec<(f64, f64)> = Vec::new();
    while t < horizon {
        let exit_prob = if on { src.q } else { src.p };
        let sojourn = geometric_seconds(exit_prob, rng) * src.step;
        let end = (t + sojourn).min(horizon);
        if on {
            intervals.push((t, end));
        }
        if sojourn == f64::INFINITY {
            break;
        }
        t += sojourn;
        on = !on;
    }
    from_intervals(intervals)
}

/// A geometric sojourn in steps (support ≥ 1), with `ln(1 − prob)`
/// computed on every draw. A `prob` below about 2⁻⁵⁴ makes that `ln` 0,
/// and the sojourn then comes out as one step.
fn geometric_seconds<R: Rng + ?Sized>(prob: f64, rng: &mut R) -> f64 {
    if prob <= 0.0 {
        return f64::INFINITY;
    }
    if prob >= 1.0 {
        return 1.0;
    }
    let u: f64 = rng.gen_range(0.0..1.0);
    ((1.0 - u).ln() / (1.0 - prob).ln()).ceil().max(1.0)
}

/// `LoadTrace::from_intervals` with a stable sort and a points list.
pub fn from_intervals<I: IntoIterator<Item = (f64, f64)>>(intervals: I) -> LoadTrace {
    let mut deltas: Vec<(f64, i64)> = Vec::new();
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
    if deltas.is_empty() {
        return LoadTrace::unloaded();
    }
    deltas.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut points: Vec<(f64, f64)> = vec![(0.0, 0.0)];
    let mut count: i64 = 0;
    let mut i = 0;
    while i < deltas.len() {
        let t = deltas[i].0;
        while i < deltas.len() && deltas[i].0 == t {
            count += deltas[i].1;
            i += 1;
        }
        if t == 0.0 {
            points[0].1 = count as f64;
        } else {
            points.push((t, count as f64));
        }
    }
    LoadTrace::from_timeline(Timeline::from_points(points))
}

mod tests {
    use super::*;
    use proptest::prelude::*;
    use simkit::rng::rng;

    fn bits(points: &[(f64, f64)]) -> Vec<(u64, u64)> {
        points
            .iter()
            .map(|&(t, v)| (t.to_bits(), v.to_bits()))
            .collect()
    }

    /// True when `1 − prob` rounds to 1, so `ln(1 − prob)` is 0.
    fn tiny(prob: f64) -> bool {
        prob > 0.0 && 1.0 - prob == 1.0
    }

    /// What the fixed chain realizes, given the reference's trace. Both
    /// draw the same until the chain first enters a state whose exit
    /// probability is tiny: the first breakpoint whose value (1 for ON,
    /// 0 for OFF) names such a state. The reference leaves it after one
    /// step; the fixed chain stays there, so its trace ends at that
    /// breakpoint, and an ON run is cut off at the horizon.
    fn fixed(reference: &LoadTrace, src: &OnOffSource, horizon: f64) -> Vec<(f64, f64)> {
        let points = reference.counts().points();
        let entered = points
            .iter()
            .position(|&(_, v)| if v == 1.0 { tiny(src.q) } else { tiny(src.p) });
        let Some(k) = entered else {
            return points.to_vec();
        };
        let mut out = points[..=k].to_vec();
        if points[k].1 == 1.0 {
            out.push((horizon, 0.0));
        }
        out
    }

    /// An exit probability from one of four classes: 0, below 2⁻⁵⁴
    /// (so `1 − p` rounds to 1), inside (0, 1) (half the time uniform,
    /// else next to 0 or 1), and 1.
    fn probability() -> impl Strategy<Value = f64> {
        (
            0usize..4,
            prop::sample::select(vec![1e-17, 2f64.powi(-54), 2f64.powi(-60), 5e-324]),
            prop::sample::select(vec![
                None,
                None,
                None,
                Some(1e-15),
                Some(2f64.powi(-53)),
                Some(0.9999999),
            ]),
            0.001f64..0.999,
        )
            .prop_map(|(class, below, edge, inside)| match class {
                0 => 0.0,
                1 => below,
                2 => edge.unwrap_or(inside),
                _ => 1.0,
            })
    }

    /// A time instant that often ties with others: 0.0, -0.0 or a shared
    /// breakpoint, else anywhere in [0, 10).
    fn instant() -> impl Strategy<Value = f64> {
        (
            0usize..3,
            prop::sample::select(vec![0.0, -0.0, 1.0, 2.5, 3.0, 7.0]),
            0.0f64..10.0,
        )
            .prop_map(|(c, shared, free)| if c < 2 { shared } else { free })
    }

    /// Past 2⁵³ steps, a one-step sojourn can round away (`t + step == t`).
    /// An ON run that rounds away is skipped, and an OFF sojourn that
    /// rounds away joins two ON runs into one, as in the interval list.
    #[test]
    fn sojourns_that_round_away_match_the_interval_reference() {
        for (p, q) in [(1.0, 1e-15), (1e-15, 1.0)] {
            let src = OnOffSource::with_step(p, q, 1.0);
            for seed in 0..8 {
                let got = src.generate(1e17, &mut rng(seed));
                let want = onoff_generate(&src, 1e17, &mut rng(seed));
                assert_eq!(bits(got.counts().points()), bits(want.counts().points()));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-pass generator realizes the reference's trace bit for
        /// bit wherever the reference's sojourns are defined, and the
        /// fixed chain where an exit probability is tiny. Horizons cover
        /// 0, less than one step, exact multiples of the step and
        /// anything in between.
        #[test]
        fn one_pass_onoff_matches_the_interval_reference(
            (p, q) in (probability(), probability()),
            step in prop::sample::select(vec![1.0, 30.0, 0.75, 7.3]),
            (steps, frac) in (
                prop::sample::select(vec![0.0, 0.4, 1.0, 2.0, 37.0, 400.0, 5000.0]),
                prop::sample::select(vec![0.0, 0.0, 0.25, 0.999]),
            ),
            seed in any::<u64>(),
        ) {
            let src = OnOffSource::with_step(p, q, step);
            let horizon = (steps + frac) * step;
            let got = src.generate(horizon, &mut rng(seed));
            let reference = onoff_generate(&src, horizon, &mut rng(seed));
            let want = if tiny(p) || tiny(q) {
                fixed(&reference, &src, horizon)
            } else {
                reference.counts().points().to_vec()
            };
            prop_assert_eq!(bits(got.counts().points()), bits(&want));
        }

        /// The unstable sweep stacks intervals exactly as the stable one:
        /// several starts and ends at one instant, starts at 0.0 and
        /// -0.0, and empty or inverted intervals.
        #[test]
        fn unstable_sweep_matches_the_stable_reference(
            intervals in prop::collection::vec((instant(), instant()), 0..24),
        ) {
            let got = LoadTrace::from_intervals(intervals.iter().copied());
            let want = from_intervals(intervals.iter().copied());
            prop_assert_eq!(bits(got.counts().points()), bits(want.counts().points()));
        }
    }
}
