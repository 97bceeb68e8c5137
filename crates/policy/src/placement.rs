//! Spare-placement policies: which spare replaces a dead active host?

use faults::MtbfDistribution;
use serde::{Deserialize, Serialize};

/// Everything the decision layer knows about one spare at a placement
/// decision point. Candidates arrive **probe-ranked** (best measured
/// delivered speed first, ties by host id) — the legacy order — so a
/// policy that returns them unchanged reproduces today's behaviour.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpareCandidate {
    /// Host id.
    pub host: usize,
    /// How long the host has been up, seconds (hosts boot at t = 0 and
    /// crashes are permanent, so this is the decision instant).
    pub uptime_secs: f64,
    /// The host's effective crash MTBF as visible to the scheduler
    /// (per-host when the fault spec spreads MTBFs), or `None` when
    /// crashes are off.
    pub mtbf_secs: Option<f64>,
    /// Crash interarrival distribution family.
    pub dist: MtbfDistribution,
    /// Most recent shock-storm start in the host's domain at or before
    /// now (the rack-level alarm), or `None` if the domain has never
    /// been shocked (or domains are off).
    pub last_domain_shock: Option<f64>,
}

/// The spare-placement policies, selectable from scenario files and CLI
/// flags. Each ranks the probe-ranked candidates best-first,
/// deterministically — same candidates, same ranking — so runs stay
/// bit-reproducible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum PlacementChoice {
    /// Today's behaviour: take the probe ranking as-is, so the first
    /// alive spare with the best measured speed wins. Byte-identical to
    /// the pre-policy inline code.
    #[default]
    FirstAlive,
    /// Ranks spares by expected residual lifetime —
    /// [`MtbfDistribution::residual_mean`] of the host's effective MTBF
    /// at its elapsed uptime — longest expected survivor first. Ties
    /// (exactly equal residual lifetimes, e.g. when the fault spec does
    /// not spread per-host MTBFs) preserve the incoming probe order, so
    /// the policy degenerates to `FirstAlive` on homogeneous hosts.
    MtbfAware,
    /// Avoids co-locating a replacement in a failure domain with a
    /// recent shock: candidates whose domain raised a rack alarm within
    /// the lookback of now are demoted behind every quiet-domain
    /// candidate. Within each group the incoming probe order is
    /// preserved, so with no shocked domains the policy degenerates to
    /// `FirstAlive`.
    RackAware,
}

impl PlacementChoice {
    /// Parses a CLI spelling (`first_alive` / `mtbf_aware` /
    /// `rack_aware`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "first_alive" => Some(PlacementChoice::FirstAlive),
            "mtbf_aware" => Some(PlacementChoice::MtbfAware),
            "rack_aware" => Some(PlacementChoice::RackAware),
            _ => None,
        }
    }

    /// The policy's stable name (used in `PolicyDecision` trace events
    /// and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            PlacementChoice::FirstAlive => "first_alive",
            PlacementChoice::MtbfAware => "mtbf_aware",
            PlacementChoice::RackAware => "rack_aware",
        }
    }

    /// Ranks `candidates` best-first, returning host ids. `now` is the
    /// decision instant (failure detection time); `lookback_secs` is how
    /// long after a rack alarm `RackAware` keeps a domain suspect
    /// (ignored by the others).
    pub fn rank(self, candidates: &[SpareCandidate], now: f64, lookback_secs: f64) -> Vec<usize> {
        match self {
            PlacementChoice::FirstAlive => candidates.iter().map(|c| c.host).collect(),
            PlacementChoice::MtbfAware => {
                let mut scored: Vec<(f64, usize)> = candidates
                    .iter()
                    .map(|c| {
                        let residual = match c.mtbf_secs {
                            Some(m) if m.is_finite() && m > 0.0 => {
                                c.dist.residual_mean(m, c.uptime_secs.max(0.0))
                            }
                            _ => f64::INFINITY,
                        };
                        (residual, c.host)
                    })
                    .collect();
                // Stable sort: equal residuals keep the probe order.
                scored.sort_by(|a, b| b.0.total_cmp(&a.0));
                scored.into_iter().map(|(_, h)| h).collect()
            }
            PlacementChoice::RackAware => {
                let suspect = |c: &SpareCandidate| {
                    c.last_domain_shock
                        .is_some_and(|s| now - s <= lookback_secs)
                };
                let quiet = candidates.iter().filter(|c| !suspect(c)).map(|c| c.host);
                let shocked = candidates.iter().filter(|c| suspect(c)).map(|c| c.host);
                quiet.chain(shocked).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyConfig;

    fn cand(host: usize, mtbf: Option<f64>, shock: Option<f64>) -> SpareCandidate {
        SpareCandidate {
            host,
            uptime_secs: 1_000.0,
            mtbf_secs: mtbf,
            dist: MtbfDistribution::HyperExp { cv2: 4.0 },
            last_domain_shock: shock,
        }
    }

    #[test]
    fn first_alive_preserves_probe_order() {
        let cands = [
            cand(5, None, None),
            cand(2, None, None),
            cand(9, None, None),
        ];
        let first_alive = PlacementChoice::FirstAlive;
        assert_eq!(first_alive.rank(&cands, 0.0, f64::INFINITY), vec![5, 2, 9]);
    }

    #[test]
    fn mtbf_aware_prefers_long_lived_spares_and_keeps_tied_order() {
        let mtbf_aware = PlacementChoice::MtbfAware;
        let cands = [
            cand(5, Some(1_000.0), None),
            cand(2, Some(8_000.0), None),
            cand(9, Some(2_000.0), None),
        ];
        assert_eq!(mtbf_aware.rank(&cands, 1_000.0, 600.0), vec![2, 9, 5]);
        // Homogeneous MTBFs (or no fault info) degenerate to FirstAlive.
        let flat = [
            cand(5, Some(3_000.0), None),
            cand(2, Some(3_000.0), None),
            cand(9, None, None),
        ];
        // Unknown MTBF ranks as "never observed to fail" (infinite
        // residual), ahead of known-mortal hosts; known ties keep order.
        assert_eq!(mtbf_aware.rank(&flat, 0.0, 600.0), vec![9, 5, 2]);
        let none = [cand(5, None, None), cand(2, None, None)];
        assert_eq!(mtbf_aware.rank(&none, 0.0, 600.0), vec![5, 2]);
    }

    #[test]
    fn rack_aware_demotes_recently_shocked_domains() {
        let now = 5_000.0;
        let cands = [
            cand(5, None, Some(4_800.0)), // shocked 200 s ago: suspect
            cand(2, None, None),
            cand(9, None, Some(4_800.0)),
            cand(4, None, Some(1_000.0)), // shocked 4000 s ago: fine
        ];
        let rack_aware = PlacementChoice::RackAware;
        assert_eq!(rack_aware.rank(&cands, now, 600.0), vec![2, 4, 5, 9]);
        // With every domain quiet the probe order survives.
        let quiet = [cand(5, None, None), cand(2, None, None)];
        assert_eq!(rack_aware.rank(&quiet, now, 600.0), vec![5, 2]);
    }

    #[test]
    fn choice_parses_builds_and_round_trips() {
        for (s, name) in [
            ("first_alive", "first_alive"),
            ("mtbf_aware", "mtbf_aware"),
            ("rack_aware", "rack_aware"),
        ] {
            let c = PlacementChoice::parse(s).unwrap();
            assert_eq!(c.name(), name);
            let set = PolicyConfig::for_placement(c).build(100.0);
            assert_eq!(set.placement.name(), name);
        }
        assert_eq!(PlacementChoice::parse("nope"), None);
        let json = serde_json::to_string(&PlacementChoice::RackAware).unwrap();
        assert_eq!(json, r#""rack_aware""#);
    }
}
