//! The simulated execution environment (§6).
//!
//! "We simulate a heterogeneous platform that consists of workstations
//! connected via a 100BaseT ethernet LAN. More specifically, we simulate
//! processors in the hundreds-of-megaflops performance range that are
//! connected via a low latency shared communication link capable of
//! transferring 6MB/s. MPI startup is assumed to be 3/4 second per
//! process."

use loadmodel::{DiurnalTraceGenerator, HyperExpWorkload, LoadTrace, OnOffSource, ParetoWorkload};
use serde::{Deserialize, Serialize};
use simkit::link::SharedLink;
use simkit::rng::stream_rng;
use simkit::Cpu;

/// One workstation: a peak speed and the external load it experiences.
#[derive(Clone, Debug)]
pub struct Host {
    /// Peak speed, flop/s.
    pub speed: f64,
    /// The CPU model (speed × availability under the load trace).
    pub cpu: Cpu,
}

impl Host {
    /// Builds a host from its peak speed and load trace, which moves into
    /// the host's [`Cpu`].
    pub fn new(speed: f64, load: LoadTrace) -> Self {
        Host {
            speed,
            cpu: Cpu::new(speed, load.into_counts()),
        }
    }

    /// Delivered speed (flop/s) at instant `t`.
    pub fn delivered_at(&self, t: f64) -> f64 {
        self.cpu.delivered_speed_at(t)
    }

    /// Mean delivered speed over `[t0, t1]` — what a measurement probe
    /// over that window reports.
    pub fn mean_delivered(&self, t0: f64, t1: f64) -> f64 {
        self.cpu.mean_delivered_speed(t0, t1)
    }
}

/// The whole platform: hosts plus the single shared link.
#[derive(Clone, Debug)]
pub struct Platform {
    /// All workstations, indexed by host id.
    pub hosts: Vec<Host>,
    /// The shared communication link.
    pub link: SharedLink,
    /// MPI startup cost, seconds per allocated process.
    pub startup_per_process: f64,
}

/// Competing-load level spliced into a host's timeline during a transient
/// blackout: the host delivers `speed / (1 + 10^6)` — effectively nothing,
/// but still finite, so computations stall through the outage instead of
/// deadlocking the completion-time solver.
pub const BLACKOUT_LOAD: f64 = 1e6;

impl Platform {
    /// Total startup time for `allocated` processes (the over-allocation
    /// price: startup is paid for spares too).
    pub fn startup_time(&self, allocated: usize) -> f64 {
        self.startup_per_process * allocated as f64
    }

    /// Folds a fault plan's transient blackouts into the host load
    /// timelines: inside each blackout window the host's competing load
    /// is overridden to [`BLACKOUT_LOAD`] (delivered speed collapses to
    /// ~one-millionth), and the original trace resumes on repair. Hosts
    /// without blackouts are untouched, so an inert plan returns a
    /// platform with bit-identical behaviour.
    pub fn apply_blackouts(&self, plan: &faults::FaultPlan) -> Platform {
        let hosts = self
            .hosts
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let windows = plan.blackouts(i);
                if windows.is_empty() {
                    h.clone()
                } else {
                    Host {
                        speed: h.speed,
                        cpu: Cpu::new(h.speed, h.cpu.load().splice(windows, BLACKOUT_LOAD)),
                    }
                }
            })
            .collect();
        Platform {
            hosts,
            link: self.link,
            startup_per_process: self.startup_per_process,
        }
    }
}

/// Which CPU load model drives the hosts.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LoadSpec {
    /// No external load anywhere (quiescent platform).
    Unloaded,
    /// Independent ON/OFF Markov source per host (§6 first model).
    OnOff(OnOffSource),
    /// Hyperexponential-lifetime competing processes per host (§6 second
    /// model).
    HyperExp(HyperExpWorkload),
    /// Desktop-grid owner reclamation (the Condor-style scenario of §2):
    /// an ON/OFF presence source whose ON periods count as `weight`
    /// competing processes — the guest application drops to
    /// `1/(1+weight)` of the CPU while the owner is back.
    Reclamation {
        /// Owner-presence source.
        source: OnOffSource,
        /// Effective competing-process count while the owner is present
        /// (e.g. 19 → 5% of the CPU left for the guest).
        weight: f64,
    },
    /// Bounded-Pareto lifetime competitors (power-law tail; the
    /// `ext_pareto` extension).
    Pareto(ParetoWorkload),
    /// Realistic synthetic desktop load: diurnal cycle + AR(1) noise +
    /// long spikes (the "CPU load traces" future-work direction; the
    /// `ext_traces` extension).
    Diurnal(DiurnalTraceGenerator),
}

/// The share of the horizon to which [`PlatformSpec::realize`] builds
/// ON/OFF and Reclamation hosts up front; the rest of a host's trace is
/// built the first time a query reads past it.
///
/// How far the §6 figures' runs read: the largest makespan of any run,
/// as a share of the 150 ks horizon, and the platforms whose hosts a run
/// made whole (seeds 0–9, full scale):
///
/// | runs | largest makespan | platforms made whole |
/// |---|---|---|
/// | fig4, fig5, fig7 | 5.7% | none |
/// | fig8 | 14% | 64 of 130 |
/// | fig6 | 48% | 114 of 130 |
/// | `swapsim scenario` template | 3.3% | none |
///
/// A host that is made whole regenerates its whole trace, so it costs
/// 1/16 of a build more than a host built whole at once; any other host
/// costs 1/16 of one.
pub const REALIZED_SHARE: f64 = 1.0 / 16.0;

/// A reproducible platform description: `realize(seed)` turns it into a
/// concrete [`Platform`] with per-host speeds and load traces.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Number of workstations.
    pub n_hosts: usize,
    /// Uniform range of peak speeds, flop/s.
    pub speed_range: (f64, f64),
    /// The shared link.
    pub link: SharedLink,
    /// MPI startup, seconds per process.
    pub startup_per_process: f64,
    /// The CPU load model.
    pub load: LoadSpec,
    /// Length of generated load traces, seconds; choose it comfortably
    /// above any expected makespan. What a host reads after it depends on
    /// the model:
    /// * `OnOff` and `Reclamation`: 0 from the horizon on; a source still
    ///   ON there is cut off ([`OnOffSource::generate`]);
    /// * `HyperExp` and `Pareto`: arrivals stop at the horizon, but each
    ///   competitor runs out its lifetime, so the count keeps changing
    ///   after it ([`HyperExpWorkload::generate`]);
    /// * `Diurnal`: the last sample's level, forever;
    /// * `Unloaded`: 0 everywhere.
    pub horizon: f64,
}

impl PlatformSpec {
    /// The paper's evaluation platform: 32 workstations in the
    /// hundreds-of-megaflops range (200–400 Mflop/s here), a 6 MB/s shared
    /// LAN, 0.75 s/process MPI startup.
    pub fn hpdc03(load: LoadSpec) -> Self {
        PlatformSpec {
            n_hosts: 32,
            speed_range: (2.0e8, 4.0e8),
            link: SharedLink::hpdc03_lan(),
            startup_per_process: 0.75,
            load,
            horizon: 50_000.0,
        }
    }

    /// Instantiates the platform for one replication. Host `i` of seed `s`
    /// always gets the same speed and load trace (independent RNG streams
    /// per host).
    ///
    /// ON/OFF and Reclamation hosts are built up to a frontier at
    /// [`REALIZED_SHARE`] of the horizon ([`Cpu::lazy`]). The first query
    /// that reads an instant at or past it regenerates the host's whole
    /// trace from its own stream, which is exact: the host draws its speed
    /// and then its trace from that stream in time order, so a trace
    /// generated to the frontier is the whole trace below it. A source
    /// that never turns ON (`p = 0`) has the same trace at any horizon and
    /// is built whole, as are the other load models: HyperExp and Pareto
    /// draw their arrivals over the whole horizon, so no prefix of theirs
    /// is exact.
    ///
    /// # Panics
    /// Panics if the spec is degenerate (no hosts, empty speed range).
    pub fn realize(&self, seed: u64) -> Platform {
        assert!(self.n_hosts >= 1, "platform needs at least one host");
        let (lo, hi) = self.speed_range;
        assert!(lo > 0.0 && hi >= lo, "bad speed range ({lo}, {hi})");
        let frontier = self.horizon * REALIZED_SHARE;
        let hosts = (0..self.n_hosts)
            .map(|i| match self.load {
                LoadSpec::OnOff(source) | LoadSpec::Reclamation { source, .. }
                    if source.p != 0.0 =>
                {
                    let (speed, head) = self.host_load(seed, i, frontier);
                    let spec = *self;
                    let whole = move || spec.host_load(seed, i, spec.horizon).1.into_counts();
                    Host {
                        speed,
                        cpu: Cpu::lazy(speed, head.into_counts(), frontier, whole),
                    }
                }
                _ => {
                    let (speed, trace) = self.host_load(seed, i, self.horizon);
                    Host::new(speed, trace)
                }
            })
            .collect();
        Platform {
            hosts,
            link: self.link,
            startup_per_process: self.startup_per_process,
        }
    }

    /// Host `host`'s speed and its load trace generated to `until`, both
    /// drawn from the host's own stream: the speed first, then the trace.
    fn host_load(&self, seed: u64, host: usize, until: f64) -> (f64, LoadTrace) {
        let mut rng = stream_rng(seed, host as u64);
        let (lo, hi) = self.speed_range;
        let speed = if hi > lo {
            rand::Rng::gen_range(&mut rng, lo..hi)
        } else {
            lo
        };
        let trace = match self.load {
            LoadSpec::Unloaded => LoadTrace::unloaded(),
            LoadSpec::OnOff(src) => src.generate(until, &mut rng),
            LoadSpec::HyperExp(w) => w.generate(until, &mut rng),
            LoadSpec::Reclamation { source, weight } => {
                source.generate(until, &mut rng).scale_counts(weight)
            }
            LoadSpec::Pareto(w) => w.generate(until, &mut rng),
            LoadSpec::Diurnal(g) => g.generate(until, &mut rng),
        };
        (speed, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realize_is_deterministic_per_seed() {
        let spec = PlatformSpec::hpdc03(LoadSpec::OnOff(OnOffSource::fig2_example()));
        let a = spec.realize(3);
        let b = spec.realize(3);
        for (ha, hb) in a.hosts.iter().zip(&b.hosts) {
            assert_eq!(ha.speed, hb.speed);
            assert_eq!(ha.cpu.load(), hb.cpu.load());
        }
        let c = spec.realize(4);
        assert!(a
            .hosts
            .iter()
            .zip(&c.hosts)
            .any(|(x, y)| x.speed != y.speed));
    }

    #[test]
    fn speeds_stay_in_range() {
        let spec = PlatformSpec::hpdc03(LoadSpec::Unloaded);
        let p = spec.realize(0);
        assert_eq!(p.hosts.len(), 32);
        for h in &p.hosts {
            assert!(h.speed >= 2.0e8 && h.speed < 4.0e8);
        }
    }

    #[test]
    fn unloaded_platform_delivers_peak() {
        let spec = PlatformSpec::hpdc03(LoadSpec::Unloaded);
        let p = spec.realize(1);
        for h in &p.hosts {
            assert_eq!(h.delivered_at(123.0), h.speed);
            assert_eq!(h.mean_delivered(0.0, 1000.0), h.speed);
        }
    }

    #[test]
    fn hosts_have_independent_load_traces() {
        let spec = PlatformSpec::hpdc03(LoadSpec::OnOff(OnOffSource::fig2_example()));
        let p = spec.realize(7);
        let first = p.hosts[0].cpu.load();
        assert!(
            p.hosts.iter().skip(1).any(|h| h.cpu.load() != first),
            "all hosts got identical traces"
        );
    }

    #[test]
    fn startup_cost_scales_with_allocation() {
        let spec = PlatformSpec::hpdc03(LoadSpec::Unloaded);
        let p = spec.realize(0);
        // "An over-allocation of 30 processors adds approximately 20
        // seconds to the application startup time."
        assert!((p.startup_time(30) - 22.5).abs() < 1e-9);
    }

    #[test]
    fn reclamation_load_collapses_availability() {
        let spec = PlatformSpec {
            horizon: 100_000.0,
            ..PlatformSpec::hpdc03(LoadSpec::Reclamation {
                source: OnOffSource::for_duty_cycle(0.5, 0.08, 30.0),
                weight: 19.0,
            })
        };
        let p = spec.realize(3);
        // Somewhere, some host must be down to 5% delivered speed.
        let crushed = p.hosts.iter().any(|h| {
            (0..100).any(|i| {
                let t = i as f64 * 1000.0;
                h.delivered_at(t) < h.speed * 0.051
            })
        });
        assert!(crushed, "no host ever got reclaimed");
    }

    #[test]
    fn loaded_host_delivers_reduced_speed() {
        let trace = LoadTrace::from_intervals([(10.0, 20.0)]);
        let h = Host::new(1e8, trace);
        assert_eq!(h.delivered_at(5.0), 1e8);
        assert_eq!(h.delivered_at(15.0), 5e7);
    }
}
