//! The decision layer of the swap simulator.
//!
//! The paper is titled *Policies* for Swapping MPI Processes, and this
//! crate makes the policies first-class: instead of embedding choices
//! inline, the strategies consult a [`PolicySet`] at their existing
//! decision points. Each decision is a fixed set of named policies, one
//! enum each —
//!
//! * **Spare placement** ([`PlacementChoice`]): when an active host dies,
//!   which spare replaces it? `FirstAlive` reproduces the legacy
//!   probe-ranked choice byte-for-byte; `MtbfAware` ranks spares by
//!   expected residual lifetime (from the host's
//!   [`faults::MtbfDistribution`] plus elapsed uptime); `RackAware`
//!   avoids co-locating a replacement in a failure domain with a recent
//!   shock.
//! * **Checkpoint cadence** ([`CheckpointChoice`]): how many iterations
//!   between CR checkpoints? `FixedInterval` keeps the configured
//!   cadence; `YoungDaly` applies the classic `√(2·δ·MTBF)` optimum,
//!   recomputed as the observed failure rate drifts.
//!
//! Everything here is pure, deterministic arithmetic — no sampling, no
//! clocks — so a policy-driven run stays bit-reproducible across worker
//! counts and repeated runs, exactly like the strategies themselves.

#![warn(missing_docs)]

mod checkpoint;
mod placement;

pub use checkpoint::{CheckpointChoice, CheckpointQuery};
pub use placement::{PlacementChoice, SpareCandidate};

use serde::{Deserialize, Serialize};

/// The full policy bundle a strategy consults: one placement policy,
/// one checkpoint policy and the resolved rack-alarm lookback. Built by
/// [`PolicyConfig::build`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicySet {
    /// Ranks spare candidates when replacing a dead active host.
    pub placement: PlacementChoice,
    /// Chooses the CR checkpoint cadence.
    pub checkpoint: CheckpointChoice,
    /// How long after a rack alarm `RackAware` keeps avoiding the
    /// domain, seconds (positive, possibly infinite).
    pub lookback_secs: f64,
}

/// Serializable policy selection for scenario files and CLI flags;
/// [`PolicyConfig::build`] resolves it into a [`PolicySet`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Which spare-placement policy to consult.
    #[serde(default)]
    pub placement: PlacementChoice,
    /// Which checkpoint-interval policy to consult.
    #[serde(default)]
    pub checkpoint: CheckpointChoice,
    /// How long after a rack alarm `RackAware` keeps avoiding the
    /// domain, seconds; `0` (the default) means "the fault spec's storm
    /// window", falling back to infinity when no window is configured.
    #[serde(default)]
    pub shock_lookback_secs: f64,
}

impl PolicyConfig {
    /// A config selecting just a placement policy (legacy checkpoints).
    pub fn for_placement(placement: PlacementChoice) -> Self {
        PolicyConfig {
            placement,
            ..PolicyConfig::default()
        }
    }

    /// Resolves the policy set. `default_lookback_secs` seeds
    /// `RackAware`'s avoidance window when `shock_lookback_secs` is 0
    /// (pass the fault spec's `shock_window_secs`, or 0 for "avoid
    /// shocked domains forever").
    pub fn build(&self, default_lookback_secs: f64) -> PolicySet {
        let lookback = if self.shock_lookback_secs > 0.0 {
            self.shock_lookback_secs
        } else if default_lookback_secs > 0.0 {
            default_lookback_secs
        } else {
            f64::INFINITY
        };
        PolicySet {
            placement: self.placement,
            checkpoint: self.checkpoint,
            lookback_secs: lookback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_and_defaults_to_legacy() {
        let c = PolicyConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: PolicyConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        let sparse: PolicyConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(sparse, c);
        let set = sparse.build(0.0);
        assert_eq!(set.placement.name(), "first_alive");
        assert_eq!(set.checkpoint.name(), "fixed_interval");
        assert_eq!(set.lookback_secs, f64::INFINITY);
    }

    #[test]
    fn config_selects_the_named_policies() {
        let json = r#"{"placement": "rack_aware", "checkpoint": "young_daly"}"#;
        let c: PolicyConfig = serde_json::from_str(json).unwrap();
        let set = c.build(600.0);
        assert_eq!(set.placement.name(), "rack_aware");
        assert_eq!(set.checkpoint.name(), "young_daly");
        assert_eq!(set.lookback_secs, 600.0);
        let own = PolicyConfig {
            shock_lookback_secs: 90.0,
            ..c
        };
        assert_eq!(own.build(600.0).lookback_secs, 90.0);
    }
}
