//! Concrete fault schedules, realized once per `(spec, seed)` pair.
//!
//! Stream layout (documented in DESIGN.md §9): every class of draw owns
//! its own salted namespace derived from the fault base seed, so
//! toggling one class can never move another class's draws —
//!
//! * `stream_rng(base, host)` — per-host independent draws, in fixed
//!   prefix order: the crash interarrival first, then blackout windows;
//! * `stream_rng(base, LINK_STREAM)` — the shared link's windows;
//! * `stream_rng(base ^ SPREAD_SALT, host)` — the per-host MTBF
//!   multiplier (crash-class modifier, consumed only when
//!   `host_mtbf_spread > 1`);
//! * `stream_rng(base ^ SHOCK_DOMAIN_SALT, domain)` — per-domain
//!   shock-storm start instants;
//! * `stream_rng(base ^ SHOCK_HOST_SALT, host)` — per-host storm
//!   outcomes (two draws per storm of the host's domain: kill? when?).

use crate::dist::MtbfDistribution;
use crate::spec::FaultSpec;
use rand::rngs::StdRng;
use rand::Rng;
use simkit::rng::{splitmix64, stream_rng};

/// Salt folded into the fault stream namespace so fault draws can never
/// collide with the platform realization streams (`stream_rng(seed, host)`).
const FAULT_STREAM_SALT: u64 = 0xFA17_5EED_0D15_A57E;

/// The shared link's stream index, far outside any plausible host range.
const LINK_STREAM: u64 = 1 << 40;

/// Namespace salt for per-domain shock-storm schedules.
const SHOCK_DOMAIN_SALT: u64 = 0xACC1_DE17_0D0A_0001;

/// Namespace salt for per-host storm outcome draws.
const SHOCK_HOST_SALT: u64 = 0xACC1_DE17_0D0A_0002;

/// Namespace salt for the per-host MTBF spread multiplier.
const SPREAD_SALT: u64 = 0x5CA1_ED5E_ED00_0003;

/// Everything that goes wrong on one host.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct HostFaultSchedule {
    /// Instant of the host's *independent* permanent crash, if one
    /// lands inside the horizon. The effective death instant executors
    /// see is [`FaultPlan::crash_time`] — the earlier of this and
    /// [`HostFaultSchedule::shock_kill`].
    pub crash: Option<f64>,
    /// Transient blackout windows `(start, end)`, sorted and disjoint:
    /// the host delivers (almost) nothing inside each window and resumes
    /// its original behaviour on repair.
    pub blackouts: Vec<(f64, f64)>,
    /// Instant the host is killed by a correlated domain shock, if any
    /// storm of its failure domain takes it down inside the horizon.
    pub shock_kill: Option<f64>,
}

/// One degraded-bandwidth window on the shared link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkDegradedWindow {
    /// Window start, seconds.
    pub start: f64,
    /// Window end, seconds.
    pub end: f64,
    /// Bandwidth multiplier inside the window (`0 < factor <= 1`).
    pub factor: f64,
}

/// A fully realized fault schedule: per-host crash/blackout timelines
/// plus the link's degraded windows. Pure data — executors query it,
/// never mutate it, and no randomness is consumed after generation.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Per-host schedules, indexed by host id.
    pub hosts: Vec<HostFaultSchedule>,
    /// Degraded-bandwidth windows on the shared link, sorted, disjoint.
    pub link: Vec<LinkDegradedWindow>,
    /// The horizon the schedules were generated for; also used as the
    /// censoring value for runs that can never finish.
    pub horizon: f64,
    /// Iterations between implicit checkpoints for failure-aware CR
    /// (carried over from [`FaultSpec::checkpoint_every`] so executors
    /// need only the plan). `None` only for the inert plan
    /// ([`FaultPlan::empty`], [`FaultPlan::inert`]): CR then runs the
    /// paper's performance-triggered restarts instead of a
    /// fault-tolerance cadence.
    pub checkpoint_every: Option<usize>,
    /// Failure-domain id of each host (`host % spec.domains`); empty
    /// when the domain layer is off.
    pub domains: Vec<usize>,
    /// Per-domain shock-storm start instants, sorted ascending; empty
    /// when shocks are off. A rack-level alarm is assumed observable at
    /// the storm start (think a PSU/thermal SNMP trap), which is what
    /// rack-aware placement keys on.
    pub shocks: Vec<Vec<f64>>,
    /// Per-host effective crash MTBF means after the log-uniform spread
    /// (equal to the spec MTBF when the spread is off); empty when
    /// crashes are off. This is the *scheduler-visible* per-host MTBF
    /// estimate an MTBF-aware placement policy ranks by.
    pub host_mtbf: Vec<f64>,
    /// Crash interarrival distribution family (carried from the spec so
    /// policies can compute residual lifetimes from the plan alone).
    pub crash_dist: MtbfDistribution,
}

/// Renewal process of `(start, end)` windows: exponential gaps with mean
/// `gap_mean`, durations drawn by `dur`, truncated to the horizon.
fn windows<R: Rng + ?Sized>(
    gap_mean: f64,
    horizon: f64,
    rng: &mut R,
    mut dur: impl FnMut(&mut R) -> f64,
) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() * gap_mean;
        if t >= horizon {
            return out;
        }
        let d = dur(rng).max(1e-6);
        let end = (t + d).min(horizon);
        if end > t {
            out.push((t, end));
        }
        t = end;
    }
}

impl FaultPlan {
    /// An inert plan over `n_hosts` hosts: no crashes, blackouts or
    /// link windows, and no checkpoint cadence. Running under it is
    /// running fault-free.
    pub fn empty(n_hosts: usize, horizon: f64) -> Self {
        FaultPlan {
            hosts: vec![HostFaultSchedule::default(); n_hosts],
            horizon,
            ..FaultPlan::inert().clone()
        }
    }

    /// The shared inert plan every run starts from: [`FaultPlan::empty`]
    /// over zero hosts with an unbounded horizon. Per-host queries answer
    /// "no fault" for every host id, so it fits a platform of any size.
    pub fn inert() -> &'static FaultPlan {
        static INERT: FaultPlan = FaultPlan {
            hosts: Vec::new(),
            link: Vec::new(),
            horizon: f64::INFINITY,
            checkpoint_every: None,
            domains: Vec::new(),
            shocks: Vec::new(),
            host_mtbf: Vec::new(),
            // `MtbfDistribution::default()`, spelled out for a static.
            crash_dist: MtbfDistribution::HyperExp { cv2: 4.0 },
        };
        &INERT
    }

    /// Realizes the schedule for `n_hosts` hosts over `[0, horizon]`.
    ///
    /// Deterministic in `(spec, n_hosts, horizon, master_seed)`: each
    /// host draws from its own [`stream_rng`] stream inside a namespace
    /// salted away from the platform streams, so the same master seed
    /// yields the same platform *and* the same faults regardless of
    /// `--jobs`, and enabling faults never changes the platform draws.
    /// Each fault class owns its own salted sub-stream (see the module
    /// docs for the exact layout), so enabling a *new* class — e.g.
    /// correlated shocks — leaves every existing class's draws
    /// untouched:
    ///
    /// ```
    /// use faults::{FaultPlan, FaultSpec};
    /// let base = FaultSpec {
    ///     mtbf_secs: 4_000.0,
    ///     blackout_mtbf_secs: 2_000.0,
    ///     blackout_repair_secs: 200.0,
    ///     ..FaultSpec::disabled()
    /// };
    /// let shocked = FaultSpec {
    ///     domains: 4,
    ///     shock_mtbf_secs: 2_000.0,
    ///     shock_window_secs: 300.0,
    ///     shock_severity: 0.5,
    ///     ..base
    /// };
    /// let a = FaultPlan::generate(&base, 16, 50_000.0, 7);
    /// let b = FaultPlan::generate(&shocked, 16, 50_000.0, 7);
    /// assert!(b.hosts.iter().any(|h| h.shock_kill.is_some()));
    /// for (x, y) in a.hosts.iter().zip(&b.hosts) {
    ///     assert_eq!(x.crash, y.crash); // independent crash draws untouched
    ///     assert_eq!(x.blackouts, y.blackouts);
    /// }
    /// ```
    ///
    /// # Panics
    /// Panics if the spec is invalid or the horizon is not positive.
    pub fn generate(spec: &FaultSpec, n_hosts: usize, horizon: f64, master_seed: u64) -> Self {
        spec.validate();
        assert!(horizon > 0.0 && horizon.is_finite(), "bad horizon");
        let base =
            splitmix64(splitmix64(master_seed) ^ splitmix64(spec.fault_seed) ^ FAULT_STREAM_SALT);
        // Per-host effective crash MTBFs: the spec MTBF, optionally
        // scaled by a log-uniform multiplier from the SPREAD_SALT
        // namespace. Consuming the multiplier from its own stream (and
        // only when the spread is on) keeps the independent crash draws
        // byte-stable when the spread is toggled at spread <= 1.
        let host_mtbf: Vec<f64> = if spec.mtbf_secs > 0.0 {
            (0..n_hosts)
                .map(|h| {
                    let m = if spec.host_mtbf_spread > 1.0 {
                        let mut r: StdRng = stream_rng(base ^ SPREAD_SALT, h as u64);
                        let u: f64 = r.gen_range(0.0..1.0);
                        spec.host_mtbf_spread.powf(2.0 * u - 1.0)
                    } else {
                        1.0
                    };
                    spec.mtbf_secs * m
                })
                .collect()
        } else {
            Vec::new()
        };
        let hosts: Vec<HostFaultSchedule> = (0..n_hosts)
            .map(|h| {
                let mut rng: StdRng = stream_rng(base, h as u64);
                // Fixed draw order (crash, then blackouts) keeps the
                // schedule stable when one class is toggled off — each
                // class owns a deterministic prefix of the stream.
                let crash = if spec.mtbf_secs > 0.0 {
                    let t = spec.crash_dist.sample(host_mtbf[h], &mut rng);
                    (t <= horizon).then_some(t)
                } else {
                    None
                };
                let blackouts = if spec.blackout_mtbf_secs > 0.0 {
                    windows(spec.blackout_mtbf_secs, horizon, &mut rng, |r| {
                        let u: f64 = r.gen_range(f64::MIN_POSITIVE..1.0);
                        -u.ln() * spec.blackout_repair_secs
                    })
                } else {
                    Vec::new()
                };
                HostFaultSchedule {
                    crash,
                    blackouts,
                    shock_kill: None,
                }
            })
            .collect();
        let domains: Vec<usize> = if spec.domains > 0 {
            (0..n_hosts).map(|h| h % spec.domains).collect()
        } else {
            Vec::new()
        };
        // Correlated shocks: storm starts per domain from the
        // SHOCK_DOMAIN_SALT namespace (exponential gaps, storms
        // disjoint), then per-host outcomes — two draws per storm of
        // the host's domain (die this storm? when inside the window?)
        // — from the SHOCK_HOST_SALT namespace.
        let mut hosts = hosts;
        let shocks: Vec<Vec<f64>> = if spec.shocks_enabled() {
            let storms: Vec<Vec<f64>> = (0..spec.domains)
                .map(|d| {
                    let mut rng: StdRng = stream_rng(base ^ SHOCK_DOMAIN_SALT, d as u64);
                    let mut out = Vec::new();
                    let mut t = 0.0;
                    loop {
                        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                        t += -u.ln() * spec.shock_mtbf_secs;
                        if t >= horizon {
                            break;
                        }
                        out.push(t);
                        t += spec.shock_window_secs;
                    }
                    out
                })
                .collect();
            for (h, sched) in hosts.iter_mut().enumerate() {
                let d = h % spec.domains;
                let mut rng: StdRng = stream_rng(base ^ SHOCK_HOST_SALT, h as u64);
                let mut kill: Option<f64> = None;
                for &start in &storms[d] {
                    // Always consume both draws so later storms stay
                    // aligned no matter the earlier outcomes.
                    let u_die: f64 = rng.gen_range(0.0..1.0);
                    let u_when: f64 = rng.gen_range(0.0..1.0);
                    if u_die < spec.shock_severity {
                        let span = spec.shock_window_secs.min(horizon - start);
                        let t = start + u_when * span;
                        kill = Some(kill.map_or(t, |k: f64| k.min(t)));
                    }
                }
                sched.shock_kill = kill;
            }
            storms
        } else {
            Vec::new()
        };
        let link = if spec.link_mtbf_secs > 0.0 {
            let mut rng: StdRng = stream_rng(base, LINK_STREAM);
            windows(spec.link_mtbf_secs, horizon, &mut rng, |r| {
                let u: f64 = r.gen_range(f64::MIN_POSITIVE..1.0);
                -u.ln() * spec.link_window_secs
            })
            .into_iter()
            .map(|(start, end)| LinkDegradedWindow {
                start,
                end,
                factor: spec.link_factor,
            })
            .collect()
        } else {
            Vec::new()
        };
        FaultPlan {
            hosts,
            link,
            horizon,
            checkpoint_every: Some(spec.checkpoint_every()),
            domains,
            shocks,
            host_mtbf,
            crash_dist: spec.crash_dist,
        }
    }

    /// Whether the plan contains any fault at all.
    pub fn is_inert(&self) -> bool {
        self.link.is_empty()
            && self
                .hosts
                .iter()
                .all(|h| h.crash.is_none() && h.shock_kill.is_none() && h.blackouts.is_empty())
    }

    /// The permanent death instant of `host`, if any: the earlier of
    /// its independent crash and its correlated shock kill.
    #[inline]
    pub fn crash_time(&self, host: usize) -> Option<f64> {
        self.hosts
            .get(host)
            .and_then(|h| match (h.crash, h.shock_kill) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            })
    }

    /// Failure domain of `host`, or `None` when the domain layer is off.
    pub fn domain_of(&self, host: usize) -> Option<usize> {
        self.domains.get(host).copied()
    }

    /// Scheduler-visible effective crash MTBF of `host`, or `None` when
    /// crashes are off.
    pub fn host_mtbf(&self, host: usize) -> Option<f64> {
        self.host_mtbf.get(host).copied()
    }

    /// The most recent shock-storm start in `domain` at or before `t`
    /// (the rack-level alarm a rack-aware placement policy keys on).
    pub fn last_shock_before(&self, domain: usize, t: f64) -> Option<f64> {
        let storms = self.shocks.get(domain)?;
        match storms.partition_point(|&s| s <= t) {
            0 => None,
            i => Some(storms[i - 1]),
        }
    }

    /// Whether `host` has permanently crashed by instant `t`.
    #[inline]
    pub fn is_crashed(&self, host: usize, t: f64) -> bool {
        self.crash_time(host).is_some_and(|c| c <= t)
    }

    /// Host ids in `0..n_hosts` alive (not yet crashed) at instant `t`,
    /// in id order. The caller passes the platform's host count: the
    /// inert plan lists no hosts at all.
    pub fn alive_hosts(&self, n_hosts: usize, t: f64) -> Vec<usize> {
        (0..n_hosts).filter(|&h| !self.is_crashed(h, t)).collect()
    }

    /// The bandwidth multiplier in force on the shared link at `t`.
    #[inline]
    pub fn link_factor_at(&self, t: f64) -> f64 {
        self.link
            .iter()
            .find(|w| w.start <= t && t < w.end)
            .map_or(1.0, |w| w.factor)
    }

    /// Blackout windows of `host` (sorted, disjoint).
    pub fn blackouts(&self, host: usize) -> &[(f64, f64)] {
        self.hosts
            .get(host)
            .map_or(&[][..], |h| h.blackouts.as_slice())
    }

    /// Whether any host has at least one blackout window. When `false`,
    /// splicing the plan into host timelines is a no-op — executors can
    /// keep the realized platform as-is (copy-on-write) instead of
    /// rebuilding value-identical hosts.
    pub fn has_blackouts(&self) -> bool {
        self.hosts.iter().any(|h| !h.blackouts.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_spec() -> FaultSpec {
        FaultSpec {
            mtbf_secs: 4_000.0,
            blackout_mtbf_secs: 2_000.0,
            blackout_repair_secs: 200.0,
            link_mtbf_secs: 3_000.0,
            link_window_secs: 300.0,
            link_factor: 0.25,
            ..FaultSpec::disabled()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = busy_spec();
        let a = FaultPlan::generate(&spec, 32, 50_000.0, 7);
        let b = FaultPlan::generate(&spec, 32, 50_000.0, 7);
        assert_eq!(a, b);
        assert!(!a.is_inert());
    }

    #[test]
    fn master_and_fault_seeds_both_matter() {
        let spec = busy_spec();
        let base = FaultPlan::generate(&spec, 16, 50_000.0, 7);
        assert_ne!(base, FaultPlan::generate(&spec, 16, 50_000.0, 8));
        let reseeded = FaultSpec {
            fault_seed: 1,
            ..spec
        };
        assert_ne!(base, FaultPlan::generate(&reseeded, 16, 50_000.0, 7));
    }

    #[test]
    fn windows_are_sorted_disjoint_and_inside_horizon() {
        let plan = FaultPlan::generate(&busy_spec(), 24, 30_000.0, 3);
        for h in 0..24 {
            let mut prev_end = 0.0;
            for &(s, e) in plan.blackouts(h) {
                assert!(s >= prev_end && e > s && e <= 30_000.0, "({s}, {e})");
                prev_end = e;
            }
            if let Some(c) = plan.crash_time(h) {
                assert!(c > 0.0 && c <= 30_000.0);
            }
        }
        let mut prev_end = 0.0;
        for w in &plan.link {
            assert!(w.start >= prev_end && w.end > w.start && w.factor == 0.25);
            prev_end = w.end;
        }
    }

    #[test]
    fn crash_queries_answer_consistently() {
        let spec = FaultSpec::crashes_only(2_000.0, 0);
        let plan = FaultPlan::generate(&spec, 32, 100_000.0, 1);
        let crashed: Vec<usize> = (0..32).filter(|&h| plan.crash_time(h).is_some()).collect();
        assert!(
            !crashed.is_empty(),
            "mtbf far below horizon must crash hosts"
        );
        let h = crashed[0];
        let c = plan.crash_time(h).unwrap();
        assert!(!plan.is_crashed(h, c - 1e-9));
        assert!(plan.is_crashed(h, c));
        assert!(!plan.alive_hosts(32, c).contains(&h));
    }

    #[test]
    fn disabling_one_class_leaves_the_others_untouched() {
        // Each fault class draws from a deterministic prefix of the
        // per-host stream, so toggling blackouts cannot move crashes.
        let full = FaultPlan::generate(&busy_spec(), 16, 50_000.0, 7);
        let crashes_only = FaultPlan::generate(
            &FaultSpec {
                blackout_mtbf_secs: 0.0,
                blackout_repair_secs: 0.0,
                link_mtbf_secs: 0.0,
                link_window_secs: 0.0,
                link_factor: 1.0,
                ..busy_spec()
            },
            16,
            50_000.0,
            7,
        );
        for h in 0..16 {
            assert_eq!(full.crash_time(h), crashes_only.crash_time(h), "host {h}");
        }
    }

    #[test]
    fn link_factor_defaults_to_unity_outside_windows() {
        let plan = FaultPlan::generate(&busy_spec(), 4, 50_000.0, 11);
        assert!(!plan.link.is_empty());
        let w = plan.link[0];
        assert_eq!(plan.link_factor_at(w.start), 0.25);
        assert_eq!(plan.link_factor_at(w.end), 1.0);
        if w.start > 0.0 {
            assert_eq!(plan.link_factor_at(0.0), 1.0);
        }
    }

    #[test]
    fn empty_plan_is_inert() {
        for p in [&FaultPlan::empty(8, 1_000.0), FaultPlan::inert()] {
            assert!(p.is_inert());
            assert_eq!(p.checkpoint_every, None);
            assert_eq!(p.alive_hosts(8, 999.0).len(), 8);
            assert_eq!(p.link_factor_at(5.0), 1.0);
        }
        assert_eq!(
            FaultPlan::empty(0, f64::INFINITY),
            *FaultPlan::inert(),
            "the shared inert plan is the zero-host empty plan"
        );
    }

    #[test]
    fn generated_plans_always_carry_a_cadence() {
        // Even a plan in which no fault lands before the horizon selects
        // fault-tolerant CR: the cadence comes from the spec, not from
        // whether anything happened.
        let plan = FaultPlan::generate(&FaultSpec::crashes_only(1e12, 0), 4, 10.0, 0);
        assert!(plan.is_inert());
        assert_eq!(plan.checkpoint_every, Some(5));
    }

    #[test]
    fn shock_kills_land_inside_their_domain_storms() {
        let spec = FaultSpec::correlated_shocks(4, 5_000.0, 600.0, 0.5, 3);
        let plan = FaultPlan::generate(&spec, 32, 100_000.0, 7);
        assert_eq!(plan.shocks.len(), 4);
        assert!(plan.shocks.iter().any(|s| !s.is_empty()));
        let mut kills = 0;
        for h in 0..32 {
            let d = plan.domain_of(h).unwrap();
            assert_eq!(d, h % 4);
            if let Some(k) = plan.hosts[h].shock_kill {
                kills += 1;
                assert!(
                    plan.shocks[d].iter().any(|&s| s <= k && k <= s + 600.0),
                    "kill {k} of host {h} outside every storm of domain {d}"
                );
                // The merged death instant honours the shock kill.
                assert!(plan.crash_time(h).unwrap() <= k);
            }
        }
        assert!(kills > 0, "half severity over 20 storms must kill someone");
        // The rack alarm reports the latest storm at or before t.
        let first = plan.shocks[0][0];
        assert_eq!(plan.last_shock_before(0, first - 1e-9), None);
        assert_eq!(plan.last_shock_before(0, first), Some(first));
        assert_eq!(plan.last_shock_before(0, first + 1.0), Some(first));
    }

    #[test]
    fn full_severity_takes_the_whole_domain_down_together() {
        let spec = FaultSpec::correlated_shocks(2, 10_000.0, 300.0, 1.0, 1);
        let plan = FaultPlan::generate(&spec, 8, 80_000.0, 5);
        for d in 0..2 {
            let Some(&storm) = plan.shocks[d].first() else {
                continue;
            };
            for h in (0..8).filter(|h| h % 2 == d) {
                let k = plan.hosts[h].shock_kill.expect("severity 1 kills all");
                assert!(k >= storm, "host {h} died before its domain's first storm");
            }
        }
    }

    #[test]
    fn mtbf_spread_rescales_crashes_without_moving_draws() {
        let flat = FaultSpec::crashes_only(4_000.0, 2);
        let spread = FaultSpec {
            host_mtbf_spread: 8.0,
            ..flat
        };
        // A long horizon so no crash is censored away by the clip.
        let a = FaultPlan::generate(&flat, 16, 1e9, 7);
        let b = FaultPlan::generate(&spread, 16, 1e9, 7);
        assert_eq!(a.host_mtbf, vec![4_000.0; 16]);
        let mut distinct = std::collections::BTreeSet::new();
        for h in 0..16 {
            let m = b.host_mtbf[h] / 4_000.0;
            assert!((1.0 / 8.0..=8.0).contains(&m), "multiplier {m}");
            distinct.insert((m * 1e9) as i64);
            // The spread only rescales the crash instant: the underlying
            // uniform draws are untouched.
            let (ca, cb) = (a.hosts[h].crash.unwrap(), b.hosts[h].crash.unwrap());
            assert!((cb / ca - m).abs() < 1e-9, "host {h}: {cb} vs {ca} x {m}");
        }
        assert!(distinct.len() > 8, "spread must differentiate hosts");
    }
}
