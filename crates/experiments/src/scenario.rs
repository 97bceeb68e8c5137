//! Scenario files: a complete experiment as one JSON document.
//!
//! A [`Scenario`] bundles the platform spec, the application spec, the
//! replication seeds, and a list of strategies — everything a
//! [`Replication`] per strategy needs — so downstream users can describe
//! their own study without writing Rust. `swapsim run scenario.json`
//! executes it; `swapsim scenario --template` prints a starting point.

use faults::FaultSpec;
use serde::{Deserialize, Serialize};
use simulator::platform::PlatformSpec;
use simulator::runner::{ReplicatedResult, Replication};
use simulator::strategies::{Cr, Dlb, DlbSwap, Nothing, Oracle, Strategy, Swap};
use simulator::AppSpec;
use swap_core::PolicyParams;

/// A strategy reference, serializable for scenario files.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum StrategyRef {
    /// The NOTHING baseline (allocates exactly N).
    Nothing,
    /// Ideal dynamic load balancing (allocates exactly N).
    Dlb,
    /// Process swapping under a policy.
    Swap {
        /// The swapping policy.
        policy: PolicyParams,
    },
    /// Checkpoint/restart triggered by the same criteria.
    Cr {
        /// The trigger policy.
        policy: PolicyParams,
    },
    /// The DLB + swapping hybrid.
    DlbSwap {
        /// The swapping policy.
        policy: PolicyParams,
    },
    /// The clairvoyant free-migration upper bound.
    Oracle,
}

impl StrategyRef {
    /// Materializes the strategy object and the allocation it wants
    /// (`n_active` for non-over-allocating strategies, `allocated`
    /// otherwise).
    pub fn build(&self, n_active: usize, allocated: usize) -> (Box<dyn Strategy>, usize) {
        match self {
            StrategyRef::Nothing => (Box::new(Nothing), n_active),
            StrategyRef::Dlb => (Box::new(Dlb), n_active),
            StrategyRef::Oracle => (Box::new(Oracle), n_active),
            StrategyRef::Swap { policy } => {
                // Recognize the named presets so results and traces read
                // "swap(greedy)" rather than "swap(custom)".
                let swap = if *policy == PolicyParams::greedy() {
                    Swap::greedy()
                } else if *policy == PolicyParams::safe() {
                    Swap::safe()
                } else if *policy == PolicyParams::friendly() {
                    Swap::friendly()
                } else {
                    Swap::new(*policy)
                };
                (Box::new(swap), allocated)
            }
            StrategyRef::Cr { policy } => (Box::new(Cr::new(*policy)), allocated),
            StrategyRef::DlbSwap { policy } => (Box::new(DlbSwap::new(*policy)), allocated),
        }
    }
}

/// A self-contained experiment description.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Platform to simulate.
    pub platform: PlatformSpec,
    /// Application to run.
    pub app: AppSpec,
    /// Total processes allocated by over-allocating strategies.
    pub allocated: usize,
    /// Number of independent replications (seeds `0..replications`).
    pub replications: usize,
    /// Worker threads for the replications (`0` = all available
    /// parallelism, the default). Results are bit-identical at every
    /// setting; scenario documents written before this knob existed
    /// still parse.
    #[serde(default)]
    pub jobs: usize,
    /// Strategies to compare, in output order.
    pub strategies: Vec<StrategyRef>,
    /// Optional fault-injection scenario. Absent (or disabled) means the
    /// classic fault-free simulation; present and enabled means every
    /// strategy runs under per-seed fault plans derived deterministically
    /// from the replication seeds, recovering from the crashes they
    /// inject.
    #[serde(default)]
    pub faults: Option<FaultSpec>,
    /// Optional decision-policy bundle for the decisions a fault plan
    /// forces (spare placement at crash recovery, CR's checkpoint
    /// cadence). Only consulted when fault injection is enabled; absent
    /// means the legacy inline choices, bit-for-bit. The rack-aware
    /// lookback defaults to the fault spec's `shock_window_secs` when the
    /// config leaves it at zero.
    #[serde(default)]
    pub policies: Option<policy::PolicyConfig>,
}

impl Scenario {
    /// A ready-to-edit template: the Figure 4 operating point at duty
    /// 0.5 with all six strategies.
    pub fn template() -> Self {
        use loadmodel::OnOffSource;
        use simulator::platform::LoadSpec;
        let mut platform = PlatformSpec::hpdc03(LoadSpec::OnOff(OnOffSource::for_duty_cycle(
            0.5, 0.08, 30.0,
        )));
        platform.horizon = 150_000.0;
        Scenario {
            platform,
            app: AppSpec::hpdc03(4, 1.0e6),
            allocated: 32,
            replications: 8,
            jobs: 0,
            faults: None,
            policies: None,
            strategies: vec![
                StrategyRef::Nothing,
                StrategyRef::Dlb,
                StrategyRef::Swap {
                    policy: PolicyParams::greedy(),
                },
                StrategyRef::Swap {
                    policy: PolicyParams::safe(),
                },
                StrategyRef::Cr {
                    policy: PolicyParams::greedy(),
                },
                StrategyRef::Oracle,
            ],
        }
    }

    /// Validates the scenario.
    ///
    /// # Panics
    /// Panics with a descriptive message on inconsistent fields.
    pub fn validate(&self) {
        self.app.validate();
        if let Some(f) = &self.faults {
            f.validate();
        }
        assert!(self.replications >= 1, "need at least one replication");
        assert!(!self.strategies.is_empty(), "need at least one strategy");
        assert!(
            self.app.n_active <= self.platform.n_hosts,
            "app needs {} processors, platform has {}",
            self.app.n_active,
            self.platform.n_hosts
        );
        // Out-of-range values would be clamped silently at run time.
        assert!(
            self.allocated >= self.app.n_active,
            "allocated = {} is below app.n_active = {}",
            self.allocated,
            self.app.n_active
        );
        assert!(
            self.allocated <= self.platform.n_hosts,
            "allocated = {} exceeds platform.n_hosts = {}",
            self.allocated,
            self.platform.n_hosts
        );
    }

    /// The materialized policy bundle, when both fault injection and a
    /// policy config are present (policies decide crash recovery and the
    /// fault plan's checkpoint cadence, so they need faults to act on).
    fn policy_set(&self) -> Option<policy::PolicySet> {
        let f = self.faults.as_ref().filter(|f| f.is_enabled())?;
        Some(self.policies.as_ref()?.build(f.shock_window_secs))
    }

    /// Runs every strategy, in order.
    pub fn run(&self) -> Vec<ReplicatedResult> {
        self.each_replication(|request| (request.run(), ()))
            .into_iter()
            .map(|(result, ())| result)
            .collect()
    }

    /// Runs every strategy with tracing on, returning the results plus
    /// one [`obs::RunTrace`] per `(strategy, seed)`, labelled by result
    /// name, in deterministic (strategy-major, seed-minor) order.
    pub fn run_traced(&self) -> (Vec<ReplicatedResult>, obs::TraceBundle) {
        let mut bundle = obs::TraceBundle::default();
        let results = self
            .each_replication(|request| {
                let (result, traces) = request.run_traced();
                let seeded: Vec<_> = request.seeds.iter().copied().zip(traces).collect();
                (result, seeded)
            })
            .into_iter()
            .map(|(result, seeded)| {
                for (seed, trace) in seeded {
                    bundle.push(&result.strategy, seed, trace);
                }
                result
            })
            .collect();
        (results, bundle)
    }

    /// Validates the scenario, then hands `run` one [`Replication`] per
    /// strategy, in order. Results keep their strategy's name, except
    /// that a later strategy with an earlier one's name gets a ` #2`,
    /// ` #3`, … suffix, so result rows and trace labels tell every run
    /// apart.
    fn each_replication<T>(
        &self,
        mut run: impl FnMut(Replication<'_>) -> (ReplicatedResult, T),
    ) -> Vec<(ReplicatedResult, T)> {
        self.validate();
        let seeds: Vec<u64> = (0..self.replications as u64).collect();
        let policies = self.policy_set();
        let mut names: Vec<String> = Vec::new();
        self.strategies
            .iter()
            .map(|sref| {
                let (strategy, alloc) = sref.build(self.app.n_active, self.allocated);
                let (mut result, extra) = run(Replication {
                    jobs: self.jobs,
                    faults: self.faults.as_ref(),
                    policies: policies.as_ref(),
                    ..Replication::new(&self.platform, &self.app, strategy.as_ref(), alloc, &seeds)
                });
                let earlier = names.iter().filter(|n| **n == result.strategy).count();
                names.push(result.strategy.clone());
                if earlier > 0 {
                    result.strategy = format!("{} #{}", result.strategy, earlier + 1);
                }
                (result, extra)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_round_trips_through_json() {
        let s = Scenario::template();
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn scenario_runs_all_strategies_in_order() {
        let mut s = Scenario::template();
        s.replications = 2;
        s.app.iterations = 6;
        s.strategies = vec![
            StrategyRef::Nothing,
            StrategyRef::Swap {
                policy: PolicyParams::greedy(),
            },
            StrategyRef::Oracle,
        ];
        let results = s.run();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].strategy, "nothing");
        assert_eq!(results[1].strategy, "swap(greedy)");
        assert_eq!(results[2].strategy, "oracle");
        // Oracle lower-bounds everything.
        assert!(results[2].execution_time.mean <= results[1].execution_time.mean + 1e-6);
    }

    #[test]
    fn handwritten_json_is_accepted() {
        // The format a user would write by hand (strategy tags in
        // snake_case, policies inline).
        let json = r#"{
            "platform": {
                "n_hosts": 8,
                "speed_range": [2e8, 4e8],
                "link": { "latency": 1e-4, "bandwidth": 6e6 },
                "startup_per_process": 0.75,
                "load": { "OnOff": { "p": 0.08, "q": 0.08, "step": 30.0 } },
                "horizon": 50000.0
            },
            "app": {
                "n_active": 2,
                "iterations": 5,
                "flops_per_proc_iter": 1.8e10,
                "bytes_per_proc_iter": 1e6,
                "process_state_bytes": 1e6
            },
            "allocated": 8,
            "replications": 2,
            "strategies": [
                { "kind": "nothing" },
                { "kind": "swap", "policy": {
                    "payback_threshold": 0.5,
                    "min_process_improvement": 0.2,
                    "min_app_improvement": 0.0,
                    "history": 300.0,
                    "predictor": "WindowedMean"
                } }
            ]
        }"#;
        let s: Scenario = serde_json::from_str(json).expect("hand JSON parses");
        let results = s.run();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.execution_time.mean > 0.0));
    }

    #[test]
    fn run_traced_matches_plain_run_and_labels_every_seed() {
        let mut s = Scenario::template();
        s.replications = 2;
        s.app.iterations = 8;
        s.platform.horizon = 20_000.0;
        s.strategies = vec![
            StrategyRef::Nothing,
            StrategyRef::Swap {
                policy: PolicyParams::greedy(),
            },
        ];
        let faulted = Scenario {
            faults: Some(FaultSpec::crashes_only(3_000.0, 5)),
            ..s.clone()
        };
        let policied = Scenario {
            policies: Some(policy::PolicyConfig::for_placement(
                policy::PlacementChoice::MtbfAware,
            )),
            ..faulted.clone()
        };
        for s in [s, faulted, policied] {
            let plain = s.run();
            let (traced, bundle) = s.run_traced();
            assert_eq!(traced.len(), plain.len());
            for (t, p) in traced.iter().zip(&plain) {
                assert_eq!(t.strategy, p.strategy);
                assert_eq!(
                    t.runs, p.runs,
                    "tracing must not perturb results ({})",
                    t.strategy
                );
            }
            if s.faults.is_some() {
                let failures: usize = plain.iter().flat_map(|r| &r.runs).map(|r| r.failures).sum();
                assert!(failures > 0, "no crash landed in the faulted scenario");
            }
            // One run trace per (strategy, seed), strategy-major order.
            assert_eq!(bundle.runs.len(), 4);
            let keys: Vec<(String, u64)> = bundle
                .runs
                .iter()
                .map(|r| (r.label.clone(), r.seed))
                .collect();
            assert_eq!(
                keys,
                vec![
                    ("nothing".into(), 0),
                    ("nothing".into(), 1),
                    ("swap(greedy)".into(), 0),
                    ("swap(greedy)".into(), 1),
                ]
            );
            assert!(bundle.event_count() > 0);
        }
    }

    #[test]
    fn strategies_sharing_a_name_get_distinct_results_and_traces() {
        let mut s = Scenario::template();
        s.replications = 1;
        s.app.iterations = 5;
        let custom = |payback_threshold| StrategyRef::Swap {
            policy: PolicyParams {
                payback_threshold,
                ..PolicyParams::safe()
            },
        };
        for (strategies, names) in [
            (
                vec![custom(1.0), custom(3.0)],
                ["swap(custom)", "swap(custom) #2"],
            ),
            (
                vec![StrategyRef::Nothing, StrategyRef::Nothing],
                ["nothing", "nothing #2"],
            ),
        ] {
            s.strategies = strategies;
            let plain: Vec<String> = s.run().into_iter().map(|r| r.strategy).collect();
            assert_eq!(plain, names);
            let (results, bundle) = s.run_traced();
            let labels: Vec<&str> = bundle.runs.iter().map(|r| r.label.as_str()).collect();
            assert_eq!(labels, names);
            assert_eq!(results.len(), 2);
            // The JSONL round trip groups lines by (run, seed), so it
            // keeps both runs only when their labels differ.
            let jsonl = obs::jsonl::to_jsonl(&bundle);
            assert_eq!(obs::jsonl::from_jsonl(&jsonl).unwrap(), bundle);
        }
    }

    #[test]
    fn faulted_scenario_runs_and_traces_fault_events() {
        let mut s = Scenario::template();
        s.replications = 2;
        s.app.iterations = 8;
        s.platform.horizon = 20_000.0;
        s.faults = Some(FaultSpec::crashes_only(3_000.0, 5));
        s.strategies = vec![
            StrategyRef::Nothing,
            StrategyRef::Swap {
                policy: PolicyParams::greedy(),
            },
        ];
        let (results, bundle) = s.run_traced();
        assert_eq!(results.len(), 2);
        let injected = bundle
            .runs
            .iter()
            .flat_map(|r| &r.trace.events)
            .filter(|e| matches!(e, obs::TraceEvent::FaultInjected { .. }))
            .count();
        assert!(injected > 0, "fault plan produced no events in the trace");
        // JSON with a faults block parses back to the same scenario.
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn policied_scenario_emits_decisions_and_round_trips() {
        let mut s = Scenario::template();
        s.replications = 2;
        s.app.iterations = 8;
        s.platform.horizon = 20_000.0;
        s.faults = Some(FaultSpec::crashes_only(3_000.0, 5));
        s.policies = Some(policy::PolicyConfig::for_placement(
            policy::PlacementChoice::MtbfAware,
        ));
        s.strategies = vec![StrategyRef::Swap {
            policy: PolicyParams::greedy(),
        }];
        let (results, bundle) = s.run_traced();
        assert_eq!(results.len(), 1);
        let decisions = bundle
            .runs
            .iter()
            .flat_map(|r| &r.trace.events)
            .filter(|e| matches!(e, obs::TraceEvent::PolicyDecision { .. }))
            .count();
        let recoveries: usize = results[0].runs.iter().map(|r| r.recoveries).sum();
        assert!(recoveries > 0, "fault plan produced no recoveries");
        assert!(
            decisions >= recoveries,
            "every spare placement must be audited: {decisions} decisions, {recoveries} recoveries"
        );
        // JSON with a policies block parses back to the same scenario,
        // and documents without one still parse (None).
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        let legacy: Scenario =
            serde_json::from_str(&serde_json::to_string(&Scenario::template()).unwrap()).unwrap();
        assert_eq!(legacy.policies, None);
    }

    #[test]
    #[should_panic(expected = "at least one strategy")]
    fn empty_strategy_list_rejected() {
        let mut s = Scenario::template();
        s.strategies.clear();
        s.validate();
    }

    #[test]
    #[should_panic(expected = "allocated = 40 exceeds platform.n_hosts = 32")]
    fn allocation_beyond_the_platform_rejected() {
        let mut s = Scenario::template();
        s.allocated = 40;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "allocated = 2 is below app.n_active = 4")]
    fn allocation_below_the_active_count_rejected() {
        let mut s = Scenario::template();
        s.allocated = 2;
        s.validate();
    }
}
