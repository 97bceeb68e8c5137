//! Checkpoint-interval policies: how often should CR checkpoint?

use serde::{Deserialize, Serialize};

/// Everything a checkpoint policy can see when asked for the next
/// interval. All estimates are *observed* quantities the scheduler
/// already has — nothing here peeks at the fault plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointQuery {
    /// Cost of writing one checkpoint, seconds.
    pub delta_secs: f64,
    /// Current estimate of the per-host MTBF, seconds; `None` until a
    /// failure has been observed (or when faults are off).
    pub mtbf_secs: Option<f64>,
    /// Mean observed iteration duration so far, seconds.
    pub mean_iter_secs: f64,
    /// The configured fixed cadence (iterations), the fallback whenever
    /// an estimate is missing.
    pub default_every: usize,
    /// Number of hosts actively computing (the system-level failure
    /// rate is `n_active / mtbf_secs`).
    pub n_active: usize,
}

/// The checkpoint-cadence policies, selectable from scenario files and
/// CLI flags. Each answers "how many iterations between checkpoints,
/// right now?" with pure arithmetic, recomputed every iteration so the
/// cadence can drift with the observed failure rate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum CheckpointChoice {
    /// Today's behaviour: the configured cadence, regardless of what the
    /// run observes.
    #[default]
    FixedInterval,
    /// The classic Young/Daly optimum: checkpoint every `√(2·δ·M)`
    /// seconds, where `δ` is the checkpoint cost and `M` the *system*
    /// MTBF (per-host MTBF over the active host count), converted to
    /// iterations via the observed mean iteration time. With no MTBF
    /// estimate yet (no failure observed), an infinite MTBF, or no
    /// timing signal, it degenerates to `FixedInterval`.
    YoungDaly,
}

impl CheckpointChoice {
    /// Parses a CLI spelling (`fixed_interval` / `young_daly`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fixed_interval" => Some(CheckpointChoice::FixedInterval),
            "young_daly" => Some(CheckpointChoice::YoungDaly),
            _ => None,
        }
    }

    /// The policy's stable name (used in trace events and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            CheckpointChoice::FixedInterval => "fixed_interval",
            CheckpointChoice::YoungDaly => "young_daly",
        }
    }

    /// Iterations between checkpoints under the observed conditions;
    /// always at least 1.
    pub fn interval_iters(self, q: &CheckpointQuery) -> usize {
        let fallback = q.default_every.max(1);
        let mtbf = match (self, q.mtbf_secs) {
            (CheckpointChoice::YoungDaly, Some(m)) if m.is_finite() && m > 0.0 => m,
            _ => return fallback,
        };
        // NaN or non-positive timing signals degenerate to the fixed
        // cadence rather than poisoning the square root below.
        let usable = q.mean_iter_secs.is_finite()
            && q.mean_iter_secs > 0.0
            && q.delta_secs.is_finite()
            && q.delta_secs > 0.0;
        if !usable {
            return fallback;
        }
        let system_mtbf = mtbf / q.n_active.max(1) as f64;
        let interval_secs = (2.0 * q.delta_secs * system_mtbf).sqrt();
        ((interval_secs / q.mean_iter_secs).round() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyConfig;
    use CheckpointChoice::{FixedInterval, YoungDaly};

    fn query(mtbf: Option<f64>) -> CheckpointQuery {
        CheckpointQuery {
            delta_secs: 30.0,
            mtbf_secs: mtbf,
            mean_iter_secs: 10.0,
            default_every: 5,
            n_active: 32,
        }
    }

    #[test]
    fn fixed_interval_ignores_the_estimates() {
        assert_eq!(FixedInterval.interval_iters(&query(Some(100.0))), 5);
        assert_eq!(FixedInterval.interval_iters(&query(None)), 5);
        let zero = CheckpointQuery {
            default_every: 0,
            ..query(None)
        };
        assert_eq!(FixedInterval.interval_iters(&zero), 1);
    }

    #[test]
    fn young_daly_follows_the_square_root_law() {
        // System MTBF = 64_000 / 32 = 2_000 s; interval = sqrt(2·30·2000)
        // = sqrt(120_000) ≈ 346.4 s ≈ 35 iterations of 10 s.
        let q = query(Some(64_000.0));
        assert_eq!(YoungDaly.interval_iters(&q), 35);
        // A tenfold worse MTBF shortens the cadence by sqrt(10).
        let worse = query(Some(6_400.0));
        assert_eq!(YoungDaly.interval_iters(&worse), 11);
        // Never below one iteration, however bleak the estimate.
        let bleak = CheckpointQuery {
            delta_secs: 0.001,
            ..query(Some(1.0))
        };
        assert_eq!(YoungDaly.interval_iters(&bleak), 1);
    }

    #[test]
    fn young_daly_degenerates_to_fixed_interval_at_infinite_mtbf() {
        // With no failures in sight the optimum interval is unbounded,
        // and the policy must fall back to the fixed cadence.
        for mtbf in [None, Some(f64::INFINITY), Some(f64::NAN), Some(0.0)] {
            let q = query(mtbf);
            assert_eq!(
                YoungDaly.interval_iters(&q),
                FixedInterval.interval_iters(&q),
                "mtbf {mtbf:?} must fall back to the fixed cadence"
            );
        }
        // Likewise with no timing signal yet.
        let no_signal = CheckpointQuery {
            mean_iter_secs: 0.0,
            ..query(Some(64_000.0))
        };
        assert_eq!(YoungDaly.interval_iters(&no_signal), 5);
    }

    #[test]
    fn choice_parses_and_builds() {
        for (s, name) in [
            ("fixed_interval", "fixed_interval"),
            ("young_daly", "young_daly"),
        ] {
            let c = CheckpointChoice::parse(s).unwrap();
            assert_eq!(c.name(), name);
            let config = PolicyConfig {
                checkpoint: c,
                ..PolicyConfig::default()
            };
            assert_eq!(config.build(0.0).checkpoint.name(), name);
        }
        assert_eq!(CheckpointChoice::parse("nope"), None);
    }
}
