//! Hyperexponential process-lifetime load (§6, second model; Figures 3, 9).
//!
//! "The second model used to simulate competing process load uses a
//! degenerate hyperexponential distribution of process run times, as in
//! [Eager, Lazowska & Zahorjan]. Compared to the ON/OFF source model, this
//! model should better predict the heavy-tailed nature of the process
//! lifetime distribution. As in the previous model, process arrival adheres
//! to a uniform random distribution. Unlike in the ON/OFF model, we allow
//! multiple simultaneous competing processes per processor."
//!
//! The *degenerate* hyperexponential with branch probability `a` and mean
//! `m` is: lifetime 0 with probability `1−a`, and `Exp(m/a)` with
//! probability `a` — mean `m`, squared coefficient of variation
//! `2/a − 1 > 1`. Small `a` means rare but very long-lived competitors:
//! exactly the heavy tail the paper wants.

use crate::trace::LoadTrace;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Degenerate hyperexponential lifetime distribution.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DegenerateHyperExp {
    /// Probability of the exponential branch (`0 < a <= 1`).
    pub branch: f64,
    /// Overall mean lifetime, seconds.
    pub mean: f64,
}

impl DegenerateHyperExp {
    /// Creates a lifetime distribution with overall mean `mean` seconds and
    /// exponential-branch probability `branch`.
    ///
    /// # Panics
    /// Panics unless `0 < branch <= 1` and `mean > 0`.
    pub fn new(mean: f64, branch: f64) -> Self {
        assert!(
            branch > 0.0 && branch <= 1.0,
            "branch probability must be in (0,1], got {branch}"
        );
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive");
        DegenerateHyperExp { branch, mean }
    }

    /// Squared coefficient of variation: `2/a − 1`.
    pub fn cv2(&self) -> f64 {
        2.0 / self.branch - 1.0
    }

    /// Draws one lifetime.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if rng.gen_range(0.0..1.0) < self.branch {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            -(u.ln()) * (self.mean / self.branch)
        } else {
            0.0
        }
    }
}

/// A workload of competing processes with hyperexponential lifetimes and
/// uniform-random arrivals over the horizon.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HyperExpWorkload {
    /// Lifetime distribution of each competing process.
    pub lifetime: DegenerateHyperExp,
    /// Mean arrival rate, processes per second.
    pub arrival_rate: f64,
}

impl HyperExpWorkload {
    /// Creates a workload with the given lifetime distribution and arrival
    /// rate (processes/second).
    ///
    /// # Panics
    /// Panics unless `arrival_rate` is positive and finite.
    pub fn new(lifetime: DegenerateHyperExp, arrival_rate: f64) -> Self {
        assert!(
            arrival_rate > 0.0 && arrival_rate.is_finite(),
            "arrival rate must be positive"
        );
        HyperExpWorkload {
            lifetime,
            arrival_rate,
        }
    }

    /// Expected competing-process count in steady state (Little's law:
    /// `λ · E[lifetime]`).
    pub fn mean_competitors(&self) -> f64 {
        self.arrival_rate * self.lifetime.mean
    }

    /// Generates a trace of length `horizon` seconds.
    ///
    /// Arrivals are uniform over the horizon: `N ~ Binomial(⌈λ·horizon⌉)`
    /// realized as a Poisson-like fixed-rate count, each arrival instant
    /// drawn `U(0, horizon)` — the paper's "process arrival adheres to a
    /// uniform random distribution". To avoid an empty-start bias, processes
    /// that would already be running at `t = 0` in steady state are seeded
    /// with residual lifetimes.
    ///
    /// Only the arrivals stop at `horizon`. Every competitor runs out its
    /// whole lifetime, so the trace keeps changing after the horizon until
    /// the last one ends, and is 0 from then on:
    ///
    /// ```
    /// use loadmodel::{DegenerateHyperExp, HyperExpWorkload};
    /// use simkit::rng::rng;
    ///
    /// let w = HyperExpWorkload::new(DegenerateHyperExp::new(5000.0, 0.4), 1.0 / 600.0);
    /// let trace = w.generate(1000.0, &mut rng(3));
    /// assert!(trace.counts().last_change() > 60_000.0);
    /// assert_eq!(trace.counts().tail_value(), 0.0);
    /// ```
    pub fn generate<R: Rng + ?Sized>(&self, horizon: f64, rng: &mut R) -> LoadTrace {
        assert!(horizon > 0.0 && horizon.is_finite());
        let mut intervals: Vec<(f64, f64)> = Vec::new();

        // Fresh arrivals, uniform over the horizon.
        let expected = self.arrival_rate * horizon;
        let n = poisson_count(expected, rng);
        intervals.reserve(n);
        for _ in 0..n {
            let start = rng.gen_range(0.0..horizon);
            let life = self.lifetime.sample(rng);
            if life > 0.0 {
                intervals.push((start, start + life));
            }
        }

        // Steady-state residue at t = 0. In equilibrium the number of live
        // competitors is λ·E[L]; each carries an exponential residual
        // lifetime with the mean of the long branch (memorylessness of the
        // exponential branch; the zero branch contributes nothing).
        let live = poisson_count(self.mean_competitors(), rng);
        let branch_mean = self.lifetime.mean / self.lifetime.branch;
        for _ in 0..live {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let residual = -(u.ln()) * branch_mean;
            intervals.push((0.0, residual));
        }

        LoadTrace::from_intervals(intervals)
    }
}

/// Knuth's Poisson sampler (switches to a normal approximation for large
/// means, where the exact product would underflow).
pub(crate) fn poisson_count<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> usize {
    assert!(mean >= 0.0);
    if mean == 0.0 {
        return 0;
    }
    if mean > 64.0 {
        // Normal approximation with continuity clamp — amply accurate for
        // the count magnitudes used here.
        let (u1, u2): (f64, f64) = (
            rng.gen_range(f64::MIN_POSITIVE..1.0),
            rng.gen_range(0.0..1.0),
        );
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        return (mean + z * mean.sqrt()).round().max(0.0) as usize;
    }
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0f64..1.0);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::rng;

    #[test]
    fn cv2_exceeds_exponential() {
        let d = DegenerateHyperExp::new(10.0, 0.25);
        assert_eq!(d.cv2(), 7.0);
        let exp_like = DegenerateHyperExp::new(10.0, 1.0);
        assert_eq!(exp_like.cv2(), 1.0); // branch=1 degenerates to Exp
    }

    #[test]
    fn sample_mean_matches_distribution_mean() {
        let d = DegenerateHyperExp::new(20.0, 0.3);
        let mut r = rng(5);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut r)).sum();
        let mean = sum / n as f64;
        assert!((mean - 20.0).abs() < 0.5, "sample mean {mean}");
    }

    #[test]
    fn zero_branch_produces_many_zero_lifetimes() {
        let d = DegenerateHyperExp::new(10.0, 0.2);
        let mut r = rng(6);
        let zeros = (0..10_000).filter(|_| d.sample(&mut r) == 0.0).count();
        let frac = zeros as f64 / 10_000.0;
        assert!((frac - 0.8).abs() < 0.02, "zero fraction {frac}");
    }

    #[test]
    fn trace_mean_count_follows_littles_law() {
        let w = HyperExpWorkload::new(DegenerateHyperExp::new(30.0, 0.5), 0.02);
        let mut r = rng(8);
        let horizon = 100_000.0;
        let t = w.generate(horizon, &mut r);
        let mean = t.counts().integrate(0.0, horizon) / horizon;
        let expect = w.mean_competitors(); // 0.6
        assert!(
            (mean - expect).abs() < 0.1,
            "mean count {mean}, Little's law {expect}"
        );
    }

    #[test]
    fn multiple_simultaneous_competitors_occur() {
        let w = HyperExpWorkload::new(DegenerateHyperExp::new(50.0, 0.5), 0.05);
        let mut r = rng(9);
        let t = w.generate(20_000.0, &mut r);
        let max = t
            .counts()
            .points()
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0, f64::max);
        assert!(max >= 2.0, "expected overlapping competitors, max={max}");
    }

    #[test]
    fn deterministic_under_seed() {
        let w = HyperExpWorkload::new(DegenerateHyperExp::new(30.0, 0.4), 0.01);
        let a = w.generate(5_000.0, &mut rng(10));
        let b = w.generate(5_000.0, &mut rng(10));
        assert_eq!(a, b);
    }

    #[test]
    fn poisson_sampler_mean() {
        let mut r = rng(11);
        let n = 20_000;
        let sum: usize = (0..n).map(|_| poisson_count(3.5, &mut r)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 3.5).abs() < 0.1, "poisson mean {mean}");
        // Large-mean path.
        let sum: usize = (0..2000).map(|_| poisson_count(100.0, &mut r)).sum();
        let mean = sum as f64 / 2000.0;
        assert!((mean - 100.0).abs() < 1.0, "poisson(100) mean {mean}");
    }

    #[test]
    #[should_panic(expected = "branch")]
    fn rejects_zero_branch() {
        DegenerateHyperExp::new(10.0, 0.0);
    }
}
