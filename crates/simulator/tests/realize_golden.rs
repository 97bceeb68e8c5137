//! Golden digests of realized platforms.
//!
//! `PlatformSpec::realize` turns a spec and a seed into per-host speeds
//! and load traces, and every figure, metric and trace output reads
//! them. This test realizes every `LoadSpec` variant (and the ON/OFF
//! corner cases: exit probabilities 0 and 1, the capped high-duty
//! source, a one-second step) at the figures' 150 ks horizon and at a
//! 37.5 s horizon shorter than two 30 s steps, over three seeds. Each
//! platform is reduced to one FNV-1a digest of the bits of every host's
//! speed, load breakpoints and availability breakpoints, and the digests
//! must equal `tests/golden/realized_platforms.txt` line for line.
//!
//! The file changes only with a deliberate change to what a platform
//! realizes. Regenerate it with
//! `cargo test -p simulator --test realize_golden -- --ignored`, then
//! review the diff.

use loadmodel::{
    BoundedPareto, DegenerateHyperExp, DiurnalTraceGenerator, HyperExpWorkload, OnOffSource,
    ParetoWorkload,
};
use simulator::platform::{LoadSpec, Platform, PlatformSpec};
use std::path::PathBuf;

const GOLDEN: &str = "realized_platforms.txt";
const HORIZONS: [f64; 2] = [150_000.0, 37.5];
const SEEDS: [u64; 3] = [0, 1, 401];

fn golden() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(GOLDEN)
}

/// The load models under test, named. The ON/OFF sources use the
/// figures' 30 s step and q = 0.08 unless the name says otherwise.
fn loads() -> Vec<(&'static str, LoadSpec)> {
    let onoff = |d: f64| LoadSpec::OnOff(OnOffSource::for_duty_cycle(d, 0.08, 30.0));
    let hyperexp = |m: f64| {
        LoadSpec::HyperExp(HyperExpWorkload::new(
            DegenerateHyperExp::new(m, 0.4),
            1.0 / 600.0,
        ))
    };
    let unit_mean = BoundedPareto::new(1.1, 1.0, 1000.0).mean();
    let lo = 600.0 / unit_mean;
    vec![
        ("unloaded", LoadSpec::Unloaded),
        ("onoff_duty_0.1", onoff(0.1)),
        ("onoff_duty_0.5", onoff(0.5)),
        ("onoff_duty_0.9", onoff(0.9)),
        ("onoff_duty_0.97_p_capped", onoff(0.97)),
        (
            "onoff_fig2_step_1",
            LoadSpec::OnOff(OnOffSource::fig2_example()),
        ),
        (
            "onoff_p0_q0",
            LoadSpec::OnOff(OnOffSource::with_step(0.0, 0.0, 30.0)),
        ),
        (
            "onoff_p0",
            LoadSpec::OnOff(OnOffSource::with_step(0.0, 0.08, 30.0)),
        ),
        (
            "onoff_p1_q0",
            LoadSpec::OnOff(OnOffSource::with_step(1.0, 0.0, 30.0)),
        ),
        (
            "onoff_p1_q1",
            LoadSpec::OnOff(OnOffSource::with_step(1.0, 1.0, 30.0)),
        ),
        (
            "onoff_q1",
            LoadSpec::OnOff(OnOffSource::with_step(0.3, 1.0, 30.0)),
        ),
        ("hyperexp_mean_30", hyperexp(30.0)),
        ("hyperexp_mean_600", hyperexp(600.0)),
        ("hyperexp_mean_5000", hyperexp(5000.0)),
        (
            "reclamation_weight_19",
            LoadSpec::Reclamation {
                source: OnOffSource::for_duty_cycle(0.3, 0.04, 30.0),
                weight: 19.0,
            },
        ),
        (
            "reclamation_weight_0",
            LoadSpec::Reclamation {
                source: OnOffSource::for_duty_cycle(0.3, 0.04, 30.0),
                weight: 0.0,
            },
        ),
        (
            "pareto_mean_600",
            LoadSpec::Pareto(ParetoWorkload::new(
                BoundedPareto::new(1.1, lo, 1000.0 * lo),
                1.0 / 600.0,
            )),
        ),
        (
            "diurnal",
            LoadSpec::Diurnal(DiurnalTraceGenerator {
                day_length: 14_400.0,
                peak_load: 2.0,
                persistence: 0.9,
                spike_prob: 0.002,
                sample_period: 60.0,
            }),
        ),
    ]
}

/// 64-bit FNV-1a, fed one little-endian `u64` at a time. Written out here
/// rather than taken from `std::hash`, whose output may change between
/// Rust releases.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn points(&mut self, points: &[(f64, f64)]) {
        self.word(points.len() as u64);
        for &(t, v) in points {
            self.word(t.to_bits());
            self.word(v.to_bits());
        }
    }
}

/// One line per platform: its name, horizon and seed, its breakpoint
/// counts and the digest of every host's speed and both timelines.
fn line(name: &str, horizon: f64, seed: u64, p: &Platform) -> String {
    let mut h = Fnv1a::new();
    let (mut load, mut avail) = (0, 0);
    for host in &p.hosts {
        h.word(host.speed.to_bits());
        h.word(host.cpu.speed().to_bits());
        h.points(host.cpu.load().points());
        h.points(host.cpu.availability().points());
        load += host.cpu.load().points().len();
        avail += host.cpu.availability().points().len();
    }
    format!(
        "{name} horizon={horizon} seed={seed} hosts={} load_points={load} avail_points={avail} fnv1a={:016x}\n",
        p.hosts.len(),
        h.0
    )
}

fn digests() -> String {
    let mut out = String::new();
    for (name, load) in loads() {
        for horizon in HORIZONS {
            let spec = PlatformSpec {
                horizon,
                ..PlatformSpec::hpdc03(load)
            };
            for seed in SEEDS {
                out.push_str(&line(name, horizon, seed, &spec.realize(seed)));
            }
        }
    }
    out
}

#[test]
fn realized_platforms_match_the_golden_digests() {
    let want = std::fs::read_to_string(golden()).expect("golden digests exist");
    let got = digests();
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "realized platform differs from {GOLDEN}");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{GOLDEN} line count"
    );
}

#[test]
#[ignore = "rewrites the golden digests; run only after a deliberate change to realization"]
fn regenerate_golden_digests() {
    std::fs::create_dir_all(golden().parent().unwrap()).unwrap();
    std::fs::write(golden(), digests()).unwrap();
}
