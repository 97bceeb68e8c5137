//! Bounded-Pareto process lifetimes.
//!
//! Harchol-Balter & Downey (cited by the paper for "the heavy-tailed
//! nature of the process lifetime distribution") actually measured
//! lifetimes whose tail follows a power law, `P(L > x) ∝ 1/x` — heavier
//! than any hyperexponential. This module adds a bounded-Pareto lifetime
//! model as a third load generator, used by the `ext_pareto` extension
//! experiment to test whether the paper's conclusions survive a genuinely
//! power-law tail.

use crate::hyperexp::poisson_count;
use crate::trace::LoadTrace;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Bounded Pareto distribution on `[lo, hi]` with shape `alpha`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BoundedPareto {
    /// Tail exponent (Harchol-Balter & Downey measured ≈1 for UNIX
    /// process lifetimes).
    pub alpha: f64,
    /// Smallest lifetime, seconds.
    pub lo: f64,
    /// Largest lifetime, seconds.
    pub hi: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto with shape `alpha` on `[lo, hi]`.
    ///
    /// # Panics
    /// Panics unless `alpha > 0` and `0 < lo < hi`.
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Self {
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        assert!(lo > 0.0 && hi > lo && hi.is_finite(), "need 0 < lo < hi");
        BoundedPareto { alpha, lo, hi }
    }

    /// Analytic mean of the distribution.
    pub fn mean(&self) -> f64 {
        let (a, l, h) = (self.alpha, self.lo, self.hi);
        if (a - 1.0).abs() < 1e-12 {
            // α = 1: E[X] = ln(h/l) · l·h / (h − l)
            (h / l).ln() * l * h / (h - l)
        } else {
            let la = l.powf(a);
            (a * la / (1.0 - (l / h).powf(a))) * (l.powf(1.0 - a) - h.powf(1.0 - a)) / (a - 1.0)
        }
    }

    /// Draws one lifetime by inverse-CDF sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (a, l, h) = (self.alpha, self.lo, self.hi);
        let u: f64 = rng.gen_range(0.0..1.0);
        // F(x) = (1 − (l/x)^a) / (1 − (l/h)^a)
        let denom = 1.0 - (l / h).powf(a);
        (l / (1.0 - u * denom).powf(1.0 / a)).min(h)
    }

    /// Draws from the *length-biased* distribution (density ∝ `x·f(x)`),
    /// by exact inverse-CDF: the biased density is `∝ x^{−α}` on
    /// `[lo, hi]`, whose CDF has the closed form below for any `α > 0`.
    /// Used to seed steady state: a process observed at a random instant
    /// has a length-biased total lifetime, and its residual is uniform
    /// over that lifetime (inspection paradox).
    pub fn sample_length_biased<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (a, l, h) = (self.alpha, self.lo, self.hi);
        let u: f64 = rng.gen_range(0.0..1.0);
        if (a - 1.0).abs() < 1e-12 {
            // Biased density ∝ 1/x → CDF (ln x − ln l)/(ln h − ln l).
            (l.ln() + u * (h.ln() - l.ln())).exp()
        } else {
            // ∫ x^{−α} dx = x^{1−α}/(1−α):
            // CDF(x) = (x^{1−α} − l^{1−α}) / (h^{1−α} − l^{1−α}).
            let p = 1.0 - a;
            let lo_p = l.powf(p);
            let hi_p = h.powf(p);
            (lo_p + u * (hi_p - lo_p)).powf(1.0 / p)
        }
    }
}

/// Competing-process workload with bounded-Pareto lifetimes and uniform
/// arrivals, mirroring [`crate::hyperexp::HyperExpWorkload`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParetoWorkload {
    /// Lifetime distribution.
    pub lifetime: BoundedPareto,
    /// Mean arrival rate, processes per second.
    pub arrival_rate: f64,
}

impl ParetoWorkload {
    /// Creates a workload.
    ///
    /// # Panics
    /// Panics unless `arrival_rate` is positive and finite.
    pub fn new(lifetime: BoundedPareto, arrival_rate: f64) -> Self {
        assert!(
            arrival_rate > 0.0 && arrival_rate.is_finite(),
            "arrival rate must be positive"
        );
        ParetoWorkload {
            lifetime,
            arrival_rate,
        }
    }

    /// Expected steady-state competitor count (Little's law).
    pub fn mean_competitors(&self) -> f64 {
        self.arrival_rate * self.lifetime.mean()
    }

    /// Generates a trace of length `horizon` seconds: fresh uniform
    /// arrivals plus a steady-state seed at `t = 0` — the live competitor
    /// count is Poisson(λ·E\[L\]) and each live process carries a residual
    /// lifetime sampled exactly (length-biased total × uniform position,
    /// the inspection-paradox construction). As in
    /// [`HyperExpWorkload::generate`](crate::HyperExpWorkload::generate),
    /// only the arrivals stop at `horizon`; each competitor runs out its
    /// lifetime after it.
    pub fn generate<R: Rng + ?Sized>(&self, horizon: f64, rng: &mut R) -> LoadTrace {
        assert!(horizon > 0.0 && horizon.is_finite());
        let n = poisson_count(self.arrival_rate * horizon, rng);
        let mut intervals = Vec::with_capacity(n);
        for _ in 0..n {
            let start = rng.gen_range(0.0..horizon);
            let life = self.lifetime.sample(rng);
            intervals.push((start, start + life));
        }
        let live = poisson_count(self.mean_competitors(), rng);
        for _ in 0..live {
            let total = self.lifetime.sample_length_biased(rng);
            let residual = rng.gen_range(0.0..1.0) * total;
            if residual > 0.0 {
                intervals.push((0.0, residual));
            }
        }
        LoadTrace::from_intervals(intervals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::rng;

    #[test]
    fn samples_stay_in_bounds() {
        let d = BoundedPareto::new(1.1, 1.0, 1000.0);
        let mut r = rng(1);
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((1.0..=1000.0).contains(&x), "sample {x} out of bounds");
        }
    }

    #[test]
    fn sample_mean_matches_analytic_mean() {
        for &(alpha, lo, hi) in &[(1.5, 1.0, 100.0), (1.0, 2.0, 500.0), (2.5, 1.0, 50.0)] {
            let d = BoundedPareto::new(alpha, lo, hi);
            let mut r = rng(2);
            let n = 300_000;
            let sum: f64 = (0..n).map(|_| d.sample(&mut r)).sum();
            let mean = sum / n as f64;
            let expect = d.mean();
            assert!(
                (mean - expect).abs() < expect * 0.05,
                "α={alpha}: sample mean {mean} vs analytic {expect}"
            );
        }
    }

    #[test]
    fn tail_is_heavier_than_exponential() {
        // For a Pareto(α=1) with the same mean as an exponential, far
        // more mass sits beyond 10× the mean.
        let d = BoundedPareto::new(1.0, 1.0, 10_000.0);
        let mean = d.mean();
        let mut r = rng(3);
        let n = 200_000;
        let beyond = (0..n).filter(|_| d.sample(&mut r) > 10.0 * mean).count();
        let frac = beyond as f64 / n as f64;
        let exp_frac = (-10.0f64).exp(); // ≈ 4.5e-5
        assert!(
            frac > exp_frac * 20.0,
            "tail fraction {frac} not heavier than exponential {exp_frac}"
        );
    }

    #[test]
    fn workload_mean_count_follows_littles_law() {
        let w = ParetoWorkload::new(BoundedPareto::new(1.2, 5.0, 2000.0), 0.005);
        let mut r = rng(4);
        let horizon = 500_000.0;
        let t = w.generate(horizon, &mut r);
        let mean = t.counts().integrate(0.0, horizon) / horizon;
        let expect = w.mean_competitors();
        assert!(
            (mean - expect).abs() < expect * 0.15,
            "mean {mean} vs Little {expect}"
        );
    }

    #[test]
    fn steady_state_seed_loads_the_trace_from_t_zero() {
        // Short windows (relative to the lifetimes) must still see the
        // equilibrium load, not an empty warm-up.
        let w = ParetoWorkload::new(BoundedPareto::new(1.1, 1.0, 50_000.0), 1.0 / 600.0);
        let expect = w.mean_competitors();
        let mut total = 0.0;
        let reps = 200;
        for seed in 0..reps {
            let t = w.generate(2_000.0, &mut rng(seed));
            total += t.counts().integrate(0.0, 2_000.0) / 2_000.0;
        }
        let mean = total / reps as f64;
        assert!(
            mean > expect * 0.6,
            "early-window mean {mean} far below equilibrium {expect}"
        );
    }

    #[test]
    fn length_biased_sampling_matches_theory() {
        // E[length-biased X] = E[X²]/E[X]; check empirically against a
        // numerically integrated second moment.
        let d = BoundedPareto::new(1.5, 1.0, 100.0);
        // E[X²] by fine Riemann sum of x²·f(x).
        let (a, l, h) = (d.alpha, d.lo, d.hi);
        let c = a * l.powf(a) / (1.0 - (l / h).powf(a));
        let steps = 2_000_000;
        let mut ex2 = 0.0;
        for i in 0..steps {
            let x = l + (h - l) * (i as f64 + 0.5) / steps as f64;
            ex2 += x * x * c * x.powf(-a - 1.0) * (h - l) / steps as f64;
        }
        let expect = ex2 / d.mean();
        let mut r = rng(7);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample_length_biased(&mut r)).sum::<f64>() / n as f64;
        assert!(
            (mean - expect).abs() < expect * 0.05,
            "biased mean {mean} vs theory {expect}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let w = ParetoWorkload::new(BoundedPareto::new(1.5, 1.0, 100.0), 0.01);
        assert_eq!(
            w.generate(10_000.0, &mut rng(5)),
            w.generate(10_000.0, &mut rng(5))
        );
    }

    #[test]
    #[should_panic(expected = "0 < lo < hi")]
    fn rejects_bad_bounds() {
        BoundedPareto::new(1.0, 5.0, 2.0);
    }
}
