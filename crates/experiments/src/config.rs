//! Experiment scale knobs.

use serde::{Deserialize, Serialize};

/// How big an experiment to run. The figure generators keep all model
/// parameters at paper scale and vary only the sampling effort: number of
/// replications (seeds), sweep resolution, and iterations per run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Independent replications per sweep point.
    pub seeds: usize,
    /// Number of x-axis points per sweep.
    pub sweep_points: usize,
    /// Application iterations per simulated run.
    pub iterations: usize,
    /// Worker threads for the sweep engine: `0` = all available
    /// parallelism, `1` = serial. Results are bit-identical at every
    /// setting (see [`simkit::pool`]); only wall-clock changes,
    /// so this is a sampling-effort knob's sibling, not a model knob.
    #[serde(default)]
    pub jobs: usize,
    /// CLI override of the fault MTBF for the `ext_faults` study
    /// (`--mtbf`): replaces the crash MTBF of every swept point. Never
    /// serialized — a command-line knob, not part of the figure's
    /// identity.
    #[serde(skip)]
    pub mtbf: Option<f64>,
    /// CLI override of the extra fault-stream seed (`--fault-seed`).
    #[serde(skip)]
    pub fault_seed: Option<u64>,
    /// CLI override of the spare-placement policy for the fault studies
    /// (`--placement`). `None` keeps each study's default; `Some` routes
    /// the runs through the policy layer. `first_alive` reproduces the
    /// legacy probe-ranked choice bit-for-bit (modulo the extra
    /// `PolicyDecision` trace events), which is what CI's byte-compare
    /// leans on.
    #[serde(skip)]
    pub placement: Option<policy::PlacementChoice>,
}

impl Scale {
    /// Paper-scale regeneration (the default for `swapsim`).
    pub fn full() -> Self {
        Scale {
            seeds: 10,
            sweep_points: 13,
            iterations: 50,
            jobs: 0,
            mtbf: None,
            fault_seed: None,
            placement: None,
        }
    }

    /// Reduced scale for Criterion benches and CI: same models, coarser
    /// sampling.
    pub fn quick() -> Self {
        Scale {
            seeds: 3,
            sweep_points: 6,
            iterations: 15,
            jobs: 0,
            mtbf: None,
            fault_seed: None,
            placement: None,
        }
    }

    /// Validates the knobs.
    ///
    /// # Panics
    /// Panics if any knob is zero.
    pub fn validate(&self) {
        assert!(self.seeds >= 1, "need at least one seed");
        assert!(self.sweep_points >= 2, "need at least two sweep points");
        assert!(self.iterations >= 2, "need at least two iterations");
    }

    /// The seed list used at this scale.
    pub fn seed_list(&self) -> Vec<u64> {
        (0..self.seeds as u64).collect()
    }

    /// `sweep_points` evenly spaced values covering `[lo, hi]` inclusive.
    pub fn linspace(&self, lo: f64, hi: f64) -> Vec<f64> {
        assert!(hi >= lo);
        let n = self.sweep_points;
        (0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
            .collect()
    }

    /// `sweep_points` log-spaced values covering `[lo, hi]` inclusive.
    pub fn logspace(&self, lo: f64, hi: f64) -> Vec<f64> {
        assert!(lo > 0.0 && hi >= lo);
        let n = self.sweep_points;
        (0..n)
            .map(|i| {
                let f = i as f64 / (n - 1) as f64;
                lo * (hi / lo).powf(f)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_valid() {
        Scale::full().validate();
        Scale::quick().validate();
    }

    #[test]
    fn linspace_covers_endpoints() {
        let s = Scale {
            seeds: 1,
            sweep_points: 5,
            iterations: 2,
            jobs: 0,
            mtbf: None,
            fault_seed: None,
            placement: None,
        };
        let v = s.linspace(0.0, 1.0);
        assert_eq!(v, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn logspace_covers_endpoints_geometrically() {
        let s = Scale {
            seeds: 1,
            sweep_points: 3,
            iterations: 2,
            jobs: 0,
            mtbf: None,
            fault_seed: None,
            placement: None,
        };
        let v = s.logspace(1.0, 100.0);
        assert!((v[0] - 1.0).abs() < 1e-9);
        assert!((v[1] - 10.0).abs() < 1e-9);
        assert!((v[2] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn seed_list_length_matches() {
        assert_eq!(Scale::quick().seed_list().len(), Scale::quick().seeds);
    }

    #[test]
    fn jobs_defaults_to_zero_when_absent_from_json() {
        // Scale documents written before the `jobs` knob existed must
        // still parse (0 = auto).
        let s: Scale =
            serde_json::from_str(r#"{"seeds":2,"sweep_points":3,"iterations":4}"#).unwrap();
        assert_eq!(s.jobs, 0);
        let round: Scale = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(round, s);
    }
}
