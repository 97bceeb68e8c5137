//! ON/OFF Markov load sources (§6, first model; Figure 2).
//!
//! "An ON/OFF source is a two-state Markov chain with fixed probabilities
//! p and q of exiting each state. Using this model we generate traces of
//! CPU loads that take value 1 (ON, i.e. loaded with one competing
//! compute-intensive process) or 0 (OFF, i.e. unloaded)."
//!
//! The chain is clocked once per time step (1 s by default, matching the
//! Figure 2 example; experiment configs use coarser steps so that load
//! events persist across application iterations — see DESIGN.md). Sojourn
//! times in each state are geometric (OFF ~ Geom(p), ON ~ Geom(q), support
//! ≥ 1 step), which is how the generator samples them — one draw per state
//! visit instead of one per step.

use crate::trace::LoadTrace;
use rand::Rng;
use serde::{Deserialize, Serialize};
use simkit::Timeline;

/// A two-state Markov ON/OFF load source.
///
/// ```
/// use loadmodel::OnOffSource;
/// use simkit::rng::rng;
///
/// // The paper's Figure 2 example: p=0.3, q=0.08 per second.
/// let src = OnOffSource::fig2_example();
/// assert!((src.duty_cycle() - 0.789).abs() < 0.001);
///
/// let trace = src.generate(600.0, &mut rng(0));
/// // Counts are binary for a single source.
/// assert!(trace.counts().points().iter().all(|&(_, v)| v == 0.0 || v == 1.0));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OnOffSource {
    /// Per-step probability of leaving OFF (becoming loaded).
    pub p: f64,
    /// Per-step probability of leaving ON (becoming unloaded).
    pub q: f64,
    /// Clock step of the Markov chain, seconds.
    pub step: f64,
}

impl OnOffSource {
    /// Creates a source with OFF→ON probability `p` and ON→OFF probability
    /// `q`, both per one-second step.
    ///
    /// # Panics
    /// Panics unless both probabilities lie in `[0, 1]`.
    pub fn new(p: f64, q: f64) -> Self {
        OnOffSource::with_step(p, q, 1.0)
    }

    /// Creates a source whose Markov chain is clocked every `step` seconds
    /// (`p`, `q` are per-step exit probabilities).
    ///
    /// # Panics
    /// Panics unless both probabilities lie in `[0, 1]` and `step > 0`.
    pub fn with_step(p: f64, q: f64, step: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        assert!((0.0..=1.0).contains(&q), "q must be in [0,1], got {q}");
        assert!(step > 0.0 && step.is_finite(), "step must be positive");
        OnOffSource { p, q, step }
    }

    /// Builds a source with a prescribed long-run duty cycle (fraction of
    /// time loaded), holding the ON-exit probability at `q_per_step` where
    /// possible.
    ///
    /// `p = q·d/(1−d)` reproduces duty cycle `d`; once that would exceed 1
    /// (very high duty), `p` is capped at 1 and `q = (1−d)/d` shrinks
    /// instead, so the whole `d ∈ [0, 1)` range remains reachable and the
    /// high-duty end degenerates into rapid flicker — the paper's "too
    /// chaotic for any technique to do well" regime.
    ///
    /// # Panics
    /// Panics unless `duty ∈ [0, 1)`, `q_per_step ∈ (0, 1]`, `step > 0`.
    pub fn for_duty_cycle(duty: f64, q_per_step: f64, step: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&duty),
            "duty cycle must be in [0,1), got {duty}"
        );
        assert!(
            q_per_step > 0.0 && q_per_step <= 1.0,
            "q must be in (0,1], got {q_per_step}"
        );
        if duty == 0.0 {
            return OnOffSource::with_step(0.0, q_per_step, step);
        }
        let p = q_per_step * duty / (1.0 - duty);
        if p <= 1.0 {
            OnOffSource::with_step(p, q_per_step, step)
        } else {
            OnOffSource::with_step(1.0, (1.0 - duty) / duty, step)
        }
    }

    /// The paper's Figure 2 example parameters: `p = 0.3`, `q = 0.08`.
    pub fn fig2_example() -> Self {
        OnOffSource::new(0.3, 0.08)
    }

    /// Long-run fraction of time the source is ON: `p / (p + q)`.
    ///
    /// Returns 0 for the degenerate `p = q = 0` chain (which stays in its
    /// initial state forever; we start OFF).
    pub fn duty_cycle(&self) -> f64 {
        if self.p + self.q == 0.0 {
            0.0
        } else {
            self.p / (self.p + self.q)
        }
    }

    /// Mean ON sojourn, seconds (`step/q`; infinite when `q = 0`).
    pub fn mean_on(&self) -> f64 {
        if self.q == 0.0 {
            f64::INFINITY
        } else {
            self.step / self.q
        }
    }

    /// Mean OFF sojourn, seconds (`step/p`; infinite when `p = 0`).
    pub fn mean_off(&self) -> f64 {
        if self.p == 0.0 {
            f64::INFINITY
        } else {
            self.step / self.p
        }
    }

    /// Generates a trace of length `horizon` seconds.
    ///
    /// The initial state is drawn from the chain's stationary distribution,
    /// so the trace is statistically homogeneous from `t = 0` (no warm-up
    /// bias between competing strategy runs).
    ///
    /// The chain runs until `horizon`: a source that is ON there is cut
    /// off, so from `horizon` on the trace is 0 (unloaded) whatever the
    /// chain's state.
    ///
    /// Each transition is pushed straight into the count timeline, and
    /// `ln(1 − p)` and `ln(1 − q)` are computed once per trace. A state
    /// whose exit probability is 0, or so small that `1 − p` rounds to 1,
    /// is never left.
    pub fn generate<R: Rng + ?Sized>(&self, horizon: f64, rng: &mut R) -> LoadTrace {
        assert!(horizon >= 0.0 && horizon.is_finite());
        let (leave_off, leave_on) = (Sojourn::new(self.p), Sojourn::new(self.q));
        // Stationary start.
        let mut on = rng.gen_bool(self.duty_cycle().clamp(0.0, 1.0));
        let mut counts = Timeline::constant(0.0);
        // The end of the last ON run, written once the next run starts
        // later: an OFF sojourn too short to move `t` joins two runs.
        let mut busy_until: Option<f64> = None;
        let mut t = 0.0;
        while t < horizon {
            let rule = if on { leave_on } else { leave_off };
            let sojourn = rule.steps(rng) * self.step;
            let end = (t + sojourn).min(horizon);
            if on && end > t {
                match busy_until {
                    Some(e) if e == t => {}
                    Some(e) => {
                        counts.push(e, 0.0);
                        counts.push(t, 1.0);
                    }
                    None if t == 0.0 => counts = Timeline::constant(1.0),
                    None => counts.push(t, 1.0),
                }
                busy_until = Some(end);
            }
            if sojourn == f64::INFINITY {
                break;
            }
            t += sojourn;
            on = !on;
        }
        if let Some(e) = busy_until {
            counts.push(e, 0.0);
        }
        LoadTrace::from_timeline(counts)
    }

    /// Generates and stacks `n` independent sources ("more complex loads
    /// can be easily generated by aggregating ON/OFF sources").
    pub fn generate_aggregate<R: Rng + ?Sized>(
        &self,
        n: usize,
        horizon: f64,
        rng: &mut R,
    ) -> LoadTrace {
        assert!(n >= 1, "need at least one source");
        let traces: Vec<LoadTrace> = (0..n).map(|_| self.generate(horizon, rng)).collect();
        LoadTrace::merge_all(&traces)
    }
}

/// How long the chain stays in one state, in steps: geometric on
/// {1, 2, ...} with the state's exit probability.
#[derive(Clone, Copy, Debug)]
enum Sojourn {
    /// Exit probability 0, or one so small that `1 − p` rounds to 1.
    Forever,
    /// Exit probability 1.
    OneStep,
    /// Any other exit probability, as `ln(1 − p)`.
    Geometric(f64),
}

impl Sojourn {
    fn new(prob: f64) -> Self {
        if prob >= 1.0 {
            return Sojourn::OneStep;
        }
        let ln_stay = (1.0 - prob).ln();
        if prob <= 0.0 || ln_stay == 0.0 {
            Sojourn::Forever
        } else {
            Sojourn::Geometric(ln_stay)
        }
    }

    /// Draws one sojourn (only the geometric case draws).
    fn steps<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        match self {
            Sojourn::Forever => f64::INFINITY,
            Sojourn::OneStep => 1.0,
            Sojourn::Geometric(ln_stay) => {
                // Inverse CDF of the geometric distribution on {1, 2, ...}.
                let u: f64 = rng.gen_range(0.0..1.0);
                ((1.0 - u).ln() / ln_stay).ceil().max(1.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use proptest::strategy::Strategy as _;
    use simkit::rng::rng;

    #[test]
    fn duty_cycle_matches_formula() {
        let s = OnOffSource::fig2_example();
        assert!((s.duty_cycle() - 0.3 / 0.38).abs() < 1e-12);
        assert_eq!(OnOffSource::new(0.0, 0.0).duty_cycle(), 0.0);
    }

    #[test]
    fn p_zero_generates_silence_q_zero_generates_permanence() {
        let mut r = rng(1);
        let silent = OnOffSource::new(0.0, 0.5).generate(1000.0, &mut r);
        assert_eq!(silent.counts().integrate(0.0, 1000.0), 0.0);

        // With p=1,q=0 the source turns ON within a second and stays there.
        let stuck = OnOffSource::new(1.0, 0.0).generate(1000.0, &mut r);
        assert!(stuck.counts().integrate(0.0, 1000.0) >= 998.0);
    }

    #[test]
    fn counts_are_binary() {
        let mut r = rng(7);
        let t = OnOffSource::fig2_example().generate(500.0, &mut r);
        for &(_, v) in t.counts().points() {
            assert!(v == 0.0 || v == 1.0, "single source count must be 0/1");
        }
    }

    #[test]
    fn empirical_duty_cycle_approaches_theory() {
        let mut r = rng(42);
        let src = OnOffSource::fig2_example();
        let horizon = 200_000.0;
        let t = src.generate(horizon, &mut r);
        let measured = t.counts().integrate(0.0, horizon) / horizon;
        let expect = src.duty_cycle();
        assert!(
            (measured - expect).abs() < 0.02,
            "measured {measured}, expected {expect}"
        );
    }

    #[test]
    fn empirical_mean_on_sojourn_approaches_theory() {
        let mut r = rng(11);
        let src = OnOffSource::new(0.2, 0.1);
        let t = src.generate(300_000.0, &mut r);
        let s = stats::sojourn_stats(&t, 300_000.0);
        // Mean geometric(0.1) sojourn = 10 s.
        assert!(
            (s.mean_busy - 10.0).abs() < 1.0,
            "mean ON sojourn {} (expected ≈10)",
            s.mean_busy
        );
    }

    #[test]
    fn aggregation_allows_counts_above_one() {
        let mut r = rng(3);
        let t = OnOffSource::new(0.5, 0.1).generate_aggregate(4, 2000.0, &mut r);
        let max = t
            .counts()
            .points()
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0, f64::max);
        assert!(max >= 2.0, "4 busy sources should overlap, max={max}");
        assert!(max <= 4.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = OnOffSource::fig2_example().generate(1000.0, &mut rng(9));
        let b = OnOffSource::fig2_example().generate(1000.0, &mut rng(9));
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_exit_probabilities_are_never_left() {
        // Below about 2^-54, `1 - p` rounds to 1 and `ln(1 - p)` is 0: such
        // a state must hold like a p = 0 one, not flip every step.
        let horizon = 150_000.0;
        let loaded = |src: OnOffSource| {
            let t = src.generate(horizon, &mut rng(5));
            t.counts().integrate(0.0, horizon) / horizon
        };
        assert_eq!(loaded(OnOffSource::with_step(1e-17, 0.08, 30.0)), 0.0);
        assert_eq!(loaded(OnOffSource::for_duty_cycle(1e-17, 0.08, 30.0)), 0.0);
        assert_eq!(loaded(OnOffSource::with_step(1.0, 1e-17, 30.0)), 1.0);
        assert_eq!(
            loaded(OnOffSource::with_step(1.0, 2f64.powi(-54), 30.0)),
            1.0
        );
    }

    #[test]
    fn the_trace_ends_unloaded_at_the_horizon() {
        let always_on = OnOffSource::with_step(1.0, 0.0, 1.0).generate(1000.0, &mut rng(0));
        assert_eq!(always_on.count_at(999.0), 1.0);
        assert_eq!(always_on.count_at(1000.0), 0.0);
        assert_eq!(always_on.count_at(1e9), 0.0);
    }

    #[test]
    #[should_panic(expected = "[0,1]")]
    fn rejects_invalid_probability() {
        OnOffSource::new(1.5, 0.1);
    }

    #[test]
    fn step_scales_sojourns() {
        let mut r = rng(21);
        let src = OnOffSource::with_step(0.2, 0.1, 30.0);
        assert_eq!(src.mean_on(), 300.0);
        assert_eq!(src.mean_off(), 150.0);
        let t = src.generate(600_000.0, &mut r);
        let s = stats::sojourn_stats(&t, 600_000.0);
        assert!(
            (s.mean_busy - 300.0).abs() < 30.0,
            "mean ON sojourn {} (expected ≈300)",
            s.mean_busy
        );
    }

    #[test]
    fn duty_cycle_constructor_hits_target() {
        for duty in [0.1, 0.5, 0.9, 0.97] {
            let src = OnOffSource::for_duty_cycle(duty, 0.08, 30.0);
            assert!(
                (src.duty_cycle() - duty).abs() < 1e-9,
                "requested {duty}, got {}",
                src.duty_cycle()
            );
            let mut r = rng(31);
            let horizon = 3_000_000.0;
            let t = src.generate(horizon, &mut r);
            let measured = t.counts().integrate(0.0, horizon) / horizon;
            assert!(
                (measured - duty).abs() < 0.03,
                "duty {duty}: measured {measured}"
            );
        }
    }

    #[test]
    fn duty_cycle_zero_is_silent() {
        let src = OnOffSource::for_duty_cycle(0.0, 0.08, 30.0);
        assert_eq!(src.p, 0.0);
        assert_eq!(src.duty_cycle(), 0.0);
    }

    /// The breakpoints of `trace` below `t`, as bits.
    fn bits_below(trace: &LoadTrace, t: f64) -> Vec<(u64, u64)> {
        let points = trace.counts().points().iter();
        points
            .take_while(|&&(bt, _)| bt < t)
            .map(|&(bt, v)| (bt.to_bits(), v.to_bits()))
            .collect()
    }

    proptest::proptest! {
        /// A trace generated to a frontier is the trace generated to the
        /// horizon below it, bit for bit, also once a Reclamation weight
        /// scales it: the chain draws from its stream in time order, so
        /// `PlatformSpec::realize` may build a host only to a frontier and
        /// the rest later.
        #[test]
        fn prop_a_trace_to_a_frontier_is_a_prefix_of_the_whole(
            p in (0.0f64..1.0).prop_map(|x| 1.0 - x),
            q in (0.0f64..1.0).prop_map(|x| 1.0 - x),
            step in proptest::sample::select(vec![1.0, 30.0, 0.25, 7.3]),
            seed in 0u64..1_000,
            horizon in 1.0f64..20_000.0,
            share in 0.0f64..1.0,
            weight in proptest::sample::select(vec![1.0, 19.0, 0.5, 0.0]),
        ) {
            let src = OnOffSource::with_step(p, q, step);
            let frontier = horizon * share;
            let head = src.generate(frontier, &mut rng(seed));
            let whole = src.generate(horizon, &mut rng(seed));
            proptest::prop_assert_eq!(bits_below(&head, frontier), bits_below(&whole, frontier));
            proptest::prop_assert_eq!(
                bits_below(&head.scale_counts(weight), frontier),
                bits_below(&whole.scale_counts(weight), frontier)
            );
        }
    }

    #[test]
    fn extreme_duty_cycle_caps_p_and_shrinks_q() {
        // duty 0.95 with q=0.08 would need p=1.52: the constructor caps p
        // at 1 and lowers q instead.
        let src = OnOffSource::for_duty_cycle(0.95, 0.08, 30.0);
        assert_eq!(src.p, 1.0);
        assert!((src.q - 0.05 / 0.95).abs() < 1e-12);
        assert!((src.duty_cycle() - 0.95).abs() < 1e-9);
    }
}
