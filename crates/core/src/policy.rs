//! The swapping-policy parameter space (§4.1) and the three named policies
//! (§4.2).

use crate::history::{HistoryWindow, Predictor};
use serde::{Deserialize, Serialize};

/// The tunable parameters that define a swapping policy (§4.1).
///
/// "Swapping policies can be categorized by what kind of information they
/// use, how much of that information is used, and how the information is
/// used." The four knobs:
///
/// * **payback threshold** — a proposed swap is allowed only if its payback
///   distance is at most this many iterations. "Smaller values of the
///   payback threshold indicate more risk-aversion."
/// * **minimum process improvement** — "the performance gain of an
///   individual process after a swap must be greater than a minimum
///   improvement threshold, or swapping will not occur … this parameter
///   provides swapping stiction."
/// * **minimum application improvement** — the same, at whole-application
///   level: "higher threshold values mean that the application will be
///   less likely to needlessly hoard fast processors."
/// * **history window** — "the amount of performance history used to
///   predict processor performance … increasing the amount of history
///   reduces the chance of being fooled by a transient load event, but can
///   cause the application to miss good swapping opportunities"
///   (swap-frequency damping).
///
/// ```
/// use swap_core::{HistoryWindow, PolicyParams};
///
/// // Start from a named policy and tune one knob:
/// let cautious_greedy = PolicyParams::greedy().with_payback_threshold(1.0);
/// assert_eq!(cautious_greedy.payback_threshold, 1.0);
/// assert_eq!(cautious_greedy.min_process_improvement, 0.0);
///
/// // The named policies match the paper's §4.2 parameters:
/// assert_eq!(PolicyParams::safe().history, HistoryWindow::seconds(300.0));
/// assert_eq!(PolicyParams::friendly().min_app_improvement, 0.02);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicyParams {
    /// Maximum acceptable payback distance, in iterations.
    /// `f64::INFINITY` disables the check (serialized as JSON `null`,
    /// since JSON has no infinity literal).
    #[serde(with = "serde_maybe_infinite")]
    pub payback_threshold: f64,
    /// Minimum fractional per-process performance gain (strict): a swap
    /// must improve the swapped process's predicted performance by more
    /// than this. `0.0` requires any strictly positive gain.
    pub min_process_improvement: f64,
    /// Minimum fractional whole-application improvement (strict); `0.0`
    /// requires none beyond the per-process conditions.
    pub min_app_improvement: f64,
    /// How much performance history feeds the predictor.
    pub history: HistoryWindow,
    /// How the history window is reduced to one predicted value.
    pub predictor: Predictor,
}

impl PolicyParams {
    /// The **greedy** policy: "an infinite payback threshold, no minimum
    /// process improvement threshold, no minimum application improvement
    /// threshold, and … no performance history. This policy swaps
    /// processes if there is any indication that application performance
    /// will increase."
    pub fn greedy() -> Self {
        PolicyParams {
            payback_threshold: f64::INFINITY,
            min_process_improvement: 0.0,
            min_app_improvement: 0.0,
            history: HistoryWindow::instantaneous(),
            predictor: Predictor::LastValue,
        }
    }

    /// The **safe** policy: "a low payback threshold (0.5 iterations), a
    /// high minimum improvement threshold (20%), no minimum application
    /// improvement threshold, and a large amount of performance history
    /// (5 minutes)."
    ///
    /// (The OCR of the paper renders the improvement threshold as "0%";
    /// 20% is the value consistent with "high minimum improvement
    /// threshold" — see DESIGN.md.)
    pub fn safe() -> Self {
        PolicyParams {
            payback_threshold: 0.5,
            min_process_improvement: 0.20,
            min_app_improvement: 0.0,
            history: HistoryWindow::seconds(300.0),
            predictor: Predictor::WindowedMean,
        }
    }

    /// The **friendly** policy: "no minimum process improvement threshold,
    /// a slight overall application improvement threshold (2%), and …
    /// a moderate amount of performance history (1 minute). The friendly
    /// policy does not use computational resources unnecessarily."
    pub fn friendly() -> Self {
        PolicyParams {
            payback_threshold: f64::INFINITY,
            min_process_improvement: 0.0,
            min_app_improvement: 0.02,
            history: HistoryWindow::seconds(60.0),
            predictor: Predictor::WindowedMean,
        }
    }

    /// Builder-style override of the payback threshold.
    pub fn with_payback_threshold(mut self, iterations: f64) -> Self {
        assert!(iterations >= 0.0, "payback threshold must be >= 0");
        self.payback_threshold = iterations;
        self
    }

    /// Builder-style override of the per-process improvement threshold.
    pub fn with_min_process_improvement(mut self, frac: f64) -> Self {
        assert!(frac >= 0.0, "improvement threshold must be >= 0");
        self.min_process_improvement = frac;
        self
    }

    /// Builder-style override of the application improvement threshold.
    pub fn with_min_app_improvement(mut self, frac: f64) -> Self {
        assert!(frac >= 0.0, "improvement threshold must be >= 0");
        self.min_app_improvement = frac;
        self
    }

    /// Builder-style override of the history window.
    pub fn with_history(mut self, history: HistoryWindow) -> Self {
        self.history = history;
        self
    }

    /// Builder-style override of the predictor.
    pub fn with_predictor(mut self, predictor: Predictor) -> Self {
        self.predictor = predictor;
        self
    }
}

/// Serde helper: `f64::INFINITY ⇄ null` (JSON cannot express infinities;
/// serde_json would silently write `null` and then refuse to read it
/// back).
mod serde_maybe_infinite {
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(v: &f64, s: S) -> Result<S::Ok, S::Error> {
        if v.is_finite() {
            s.serialize_some(v)
        } else {
            s.serialize_none()
        }
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<f64, D::Error> {
        Ok(Option::<f64>::deserialize(d)?.unwrap_or(f64::INFINITY))
    }
}

/// The three policies studied in §4.2/§7.2, as an enum for sweeps and CLI
/// selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NamedPolicy {
    /// Maximum benefit, maximum risk.
    Greedy,
    /// Risk-averse: significant benefit, minimal downside only.
    Safe,
    /// Judicious resource use: swap only when the whole application gains.
    Friendly,
}

impl NamedPolicy {
    /// All three named policies, in the paper's presentation order.
    pub const ALL: [NamedPolicy; 3] = [
        NamedPolicy::Greedy,
        NamedPolicy::Safe,
        NamedPolicy::Friendly,
    ];

    /// The parameter set for this named policy.
    pub fn params(self) -> PolicyParams {
        match self {
            NamedPolicy::Greedy => PolicyParams::greedy(),
            NamedPolicy::Safe => PolicyParams::safe(),
            NamedPolicy::Friendly => PolicyParams::friendly(),
        }
    }

    /// Lower-case display/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            NamedPolicy::Greedy => "greedy",
            NamedPolicy::Safe => "safe",
            NamedPolicy::Friendly => "friendly",
        }
    }
}

impl std::str::FromStr for NamedPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "greedy" => Ok(NamedPolicy::Greedy),
            "safe" => Ok(NamedPolicy::Safe),
            "friendly" => Ok(NamedPolicy::Friendly),
            other => Err(format!("unknown policy '{other}' (greedy|safe|friendly)")),
        }
    }
}

impl std::fmt::Display for NamedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_is_unconstrained() {
        let g = PolicyParams::greedy();
        assert_eq!(g.payback_threshold, f64::INFINITY);
        assert_eq!(g.min_process_improvement, 0.0);
        assert_eq!(g.min_app_improvement, 0.0);
        assert_eq!(g.history.secs(), 0.0);
    }

    #[test]
    fn safe_matches_paper_parameters() {
        let s = PolicyParams::safe();
        assert_eq!(s.payback_threshold, 0.5);
        assert_eq!(s.min_process_improvement, 0.20);
        assert_eq!(s.history.secs(), 300.0);
    }

    #[test]
    fn friendly_matches_paper_parameters() {
        let f = PolicyParams::friendly();
        assert_eq!(f.min_app_improvement, 0.02);
        assert_eq!(f.history.secs(), 60.0);
        assert_eq!(f.min_process_improvement, 0.0);
    }

    #[test]
    fn named_policy_round_trips_through_str() {
        for p in NamedPolicy::ALL {
            let parsed: NamedPolicy = p.name().parse().unwrap();
            assert_eq!(parsed, p);
            assert_eq!(parsed.params(), p.params());
        }
        assert!("bogus".parse::<NamedPolicy>().is_err());
    }

    #[test]
    fn policies_round_trip_through_json_including_infinity() {
        for p in [
            PolicyParams::greedy(), // infinite payback threshold
            PolicyParams::safe(),
            PolicyParams::friendly(),
        ] {
            let json = serde_json::to_string(&p).unwrap();
            let back: PolicyParams = serde_json::from_str(&json).unwrap();
            assert_eq!(back, p, "round trip failed for {json}");
        }
        // The infinite threshold appears as null in the JSON…
        let json = serde_json::to_string(&PolicyParams::greedy()).unwrap();
        assert!(json.contains("\"payback_threshold\":null"), "{json}");
        // …and a user writing null gets infinity back.
        let p: PolicyParams = serde_json::from_str(
            r#"{"payback_threshold":null,"min_process_improvement":0.0,
                "min_app_improvement":0.0,"history":0.0,"predictor":"LastValue"}"#,
        )
        .unwrap();
        assert_eq!(p.payback_threshold, f64::INFINITY);
        // …and so does one leaving it out.
        let p: PolicyParams = serde_json::from_str(
            r#"{"min_process_improvement":0.0,"min_app_improvement":0.0,
                "history":0.0,"predictor":"LastValue"}"#,
        )
        .unwrap();
        assert_eq!(p.payback_threshold, f64::INFINITY);
    }

    #[test]
    fn builders_override_single_fields() {
        let p = PolicyParams::greedy()
            .with_payback_threshold(3.0)
            .with_min_process_improvement(0.1)
            .with_min_app_improvement(0.05);
        assert_eq!(p.payback_threshold, 3.0);
        assert_eq!(p.min_process_improvement, 0.1);
        assert_eq!(p.min_app_improvement, 0.05);
    }
}
