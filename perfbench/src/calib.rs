//! Host-speed calibration. On a shared host the other tenants slow this
//! process down by up to 1.6x in spells of 10–25 s (measured on a 2-vCPU
//! Xeon KVM guest), so a whole run can fall in a slow spell and no
//! statistic over its passes recovers the fast figure. A fixed probe
//! kernel, independent of the repository's code, runs after every op and
//! slows down with it; every end-to-end time is scaled by
//! [`REFERENCE_SECS`] over the median probe time around it, which gives
//! the time the work takes on the host at its reference speed.
//!
//! The probe mixes what the simulator does: exponential draws into fresh
//! vectors, a sort, map updates, and binary searches of an 8 MiB table, as
//! a long load timeline is searched. On that guest, scaling by it cut the
//! pass-to-pass spread within a run (coefficient of variation) from
//! 13–14% to 3–4% on `figure_sweep` and from 20–22% to 6–7% on
//! `long_swap` (8–9% without the table). The probe is the unit of
//! measure: changing it, or [`REFERENCE_SECS`], changes every end-to-end
//! time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// A uniform draw in (0, 1) from 53 bits of `x`.
fn unit(x: u64) -> f64 {
    ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// The probe time that defines the reference speed: about the fastest
/// per-pass median of the probe on that guest, whose per-pass medians
/// range over 0.47–0.71 ms in a run.
pub const REFERENCE_SECS: f64 = 0.5e-3;
/// Draws per probe.
const SAMPLES: usize = 2_048;
/// Probe time as a share of the time it follows.
const SHARE: f64 = 0.05;

/// Entries of the sorted table the probe searches: 8 MiB of `f64`.
const TABLE: usize = 1 << 20;
/// Binary searches of the table per probe.
const SEARCHES: usize = 512;

pub struct Calib {
    /// The probe's xorshift state; it carries over between probes.
    x: u64,
    /// Ascending breakpoints, like a long load timeline's.
    table: Vec<f64>,
    /// Probe times since the last [`Calib::scale`].
    probes: Vec<f64>,
}

impl Calib {
    pub fn new() -> Self {
        let mut c = Calib {
            x: 0x9e37_79b9_7f4a_7c15,
            table: Vec::with_capacity(TABLE),
            probes: Vec::new(),
        };
        let mut t = 0.0;
        for _ in 0..TABLE {
            t += unit(c.next());
            c.table.push(t);
        }
        c
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// One probe, in seconds.
    fn probe(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut draws: Vec<f64> = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            draws.push(-unit(self.next()).ln() * 600.0);
        }
        let mut total = 0.0;
        let prefix: Vec<f64> = draws
            .iter()
            .map(|d| {
                total += d;
                total
            })
            .collect();
        draws.sort_by(|a, b| a.total_cmp(b));
        let mut buckets: BTreeMap<usize, usize> = BTreeMap::new();
        for i in 0..SAMPLES {
            let at = prefix.partition_point(|&t| t <= unit(self.next()) * total);
            *buckets.entry(at % 257).or_default() += i;
        }
        let end = self.table[TABLE - 1];
        let mut found = 0;
        for _ in 0..SEARCHES {
            let key = unit(self.next()) * end;
            found += self.table.partition_point(|&t| t <= key);
        }
        black_box((draws, buckets, found));
        t0.elapsed().as_secs_f64()
    }

    /// MiB of the probe's table, resident from [`Calib::new`] on.
    pub fn resident_mb(&self) -> f64 {
        (self.table.len() * std::mem::size_of::<f64>()) as f64 / (1 << 20) as f64
    }

    /// Runs at least `min` probes, and enough to take about 5% of `secs`,
    /// the time of the work just done.
    pub fn follow(&mut self, secs: f64, min: usize) {
        let mut spent = 0.0;
        let mut n = 0;
        while n < min || spent < SHARE * secs {
            let t = self.probe();
            self.probes.push(t);
            spent += t;
            n += 1;
        }
    }

    /// The factor that takes a time measured since the last call to the
    /// reference speed: [`REFERENCE_SECS`] over the median probe since then.
    pub fn scale(&mut self) -> f64 {
        self.probes.sort_by(|a, b| a.total_cmp(b));
        let n = self.probes.len();
        assert!(n > 0, "Calib::scale before any probe");
        let median = (self.probes[(n - 1) / 2] + self.probes[n / 2]) / 2.0;
        self.probes.clear();
        REFERENCE_SECS / median
    }
}
