//! Scenario files through the streaming `serde_json`, held to the tree
//! writer and reader it replaced: generated scenarios write the same
//! bytes, compact and pretty, and read back the same value.

#[path = "../../../vendor/serde_json/src/tree.rs"]
mod json_tree;

use experiments::scenario::{Scenario, StrategyRef};
use faults::{FaultSpec, MtbfDistribution};
use loadmodel::{
    BoundedPareto, DegenerateHyperExp, DiurnalTraceGenerator, HyperExpWorkload, OnOffSource,
    ParetoWorkload,
};
use policy::{CheckpointChoice, PlacementChoice, PolicyConfig};
use proptest::prelude::*;
use simulator::platform::LoadSpec;
use swap_core::history::{HistoryWindow, Predictor};
use swap_core::PolicyParams;

const FLOATS: [f64; 9] = [
    0.0,
    -0.0,
    5e-324,
    0.1 + 0.2,
    1e21,
    f64::MAX,
    f64::INFINITY,
    f64::NAN,
    12.5,
];

/// splitmix64: a deterministic stream of choices from one seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn float(&mut self) -> f64 {
        match self.below(3) {
            0 => FLOATS[self.below(FLOATS.len())],
            1 => f64::from_bits(self.next()),
            _ => (self.next() >> 11) as f64 / 1e9,
        }
    }

    fn policy(&mut self) -> PolicyParams {
        let mut p = [
            PolicyParams::greedy(),
            PolicyParams::safe(),
            PolicyParams::friendly(),
        ][self.below(3)];
        p.payback_threshold = self.float();
        p.min_app_improvement = self.float();
        p.history = HistoryWindow::seconds(self.below(600) as f64);
        p.predictor = match self.below(6) {
            0 => Predictor::LastValue,
            1 => Predictor::WindowedMean,
            2 => Predictor::WindowedMedian,
            3 => Predictor::Ewma(self.float()),
            4 => Predictor::Nws,
            _ => Predictor::TimeWeightedMean,
        };
        p
    }

    fn strategy(&mut self) -> StrategyRef {
        match self.below(6) {
            0 => StrategyRef::Nothing,
            1 => StrategyRef::Dlb,
            2 => StrategyRef::Swap {
                policy: self.policy(),
            },
            3 => StrategyRef::Cr {
                policy: self.policy(),
            },
            4 => StrategyRef::DlbSwap {
                policy: self.policy(),
            },
            _ => StrategyRef::Oracle,
        }
    }

    fn load(&mut self) -> LoadSpec {
        let onoff = OnOffSource::for_duty_cycle(0.5, 0.08, 30.0);
        match self.below(6) {
            0 => LoadSpec::Unloaded,
            1 => LoadSpec::OnOff(OnOffSource {
                p: self.float(),
                ..onoff
            }),
            2 => LoadSpec::HyperExp(HyperExpWorkload {
                lifetime: DegenerateHyperExp::new(300.0, 0.25),
                arrival_rate: self.float(),
            }),
            3 => LoadSpec::Reclamation {
                source: onoff,
                weight: self.float(),
            },
            4 => LoadSpec::Pareto(ParetoWorkload {
                lifetime: BoundedPareto::new(1.5, 10.0, 1e5),
                arrival_rate: self.float(),
            }),
            _ => LoadSpec::Diurnal(DiurnalTraceGenerator {
                day_length: 14_400.0,
                peak_load: self.float(),
                persistence: 0.9,
                spike_prob: 0.002,
                sample_period: 60.0,
            }),
        }
    }

    fn scenario(&mut self) -> Scenario {
        let mut s = Scenario::template();
        s.platform.load = self.load();
        s.platform.horizon = self.float();
        s.app.process_state_bytes = self.float();
        s.jobs = self.below(4);
        s.strategies = (0..1 + self.below(5)).map(|_| self.strategy()).collect();
        s.faults = (self.below(2) == 0).then(|| FaultSpec {
            crash_dist: match self.below(3) {
                0 => MtbfDistribution::Exponential,
                1 => MtbfDistribution::HyperExp { cv2: self.float() },
                _ => MtbfDistribution::Weibull {
                    shape: self.float(),
                },
            },
            link_factor: self.float(),
            ..FaultSpec::crashes_only(self.float(), self.next())
        });
        s.policies = (self.below(2) == 0).then(|| PolicyConfig {
            placement: [
                PlacementChoice::FirstAlive,
                PlacementChoice::MtbfAware,
                PlacementChoice::RackAware,
            ][self.below(3)],
            checkpoint: [CheckpointChoice::FixedInterval, CheckpointChoice::YoungDaly]
                [self.below(2)],
            shock_lookback_secs: self.float(),
        });
        s
    }
}

/// A result's `Debug`, which tells `-0.0` from `0.0`.
fn shown<T: std::fmt::Debug>(r: Result<T, String>) -> String {
    format!("{r:?}")
}

fn read(text: &str) -> Result<Scenario, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scenarios_write_and_read_as_the_tree_did(seed in any::<u64>()) {
        let s = Gen(seed).scenario();
        for (text, tree_text) in [
            (serde_json::to_string(&s), json_tree::to_string(&s)),
            (serde_json::to_string_pretty(&s), json_tree::to_string_pretty(&s)),
        ] {
            let text = text.unwrap();
            prop_assert_eq!(&text, &tree_text);
            prop_assert_eq!(shown(read(&text)), shown(json_tree::from_str::<Scenario>(&text)));
        }
    }
}

#[test]
fn a_strategy_kind_after_its_policy_reads_like_one_before_it() {
    let s = Scenario::template();
    let text = serde_json::to_string_pretty(&s).unwrap();
    let kind = "\"kind\": \"swap\",\n";
    let policy_start = text.find(kind).expect("the template has a swap strategy");
    // Move the first swap strategy's tag behind its policy object.
    let after = &text[policy_start + kind.len()..];
    let policy_end = after.find("\n      }").expect("the policy object closes") + "\n      }".len();
    let late = format!(
        "{}{},\n      \"kind\": \"swap\"{}",
        &text[..policy_start],
        after[..policy_end].trim_start(),
        &after[policy_end..]
    );
    assert_ne!(late, text);
    assert_eq!(read(&late).unwrap(), s);
    assert_eq!(
        shown(read(&late)),
        shown(json_tree::from_str::<Scenario>(&late))
    );
}
