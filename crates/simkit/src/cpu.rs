//! Time-shared CPU model.
//!
//! A [`Cpu`] delivers `speed / (1 + k(t))` flop/s at instant `t`, where
//! `k(t)` is the number of competing compute-bound processes — the standard
//! round-robin time-sharing model the paper's simulation uses (one
//! application process plus `k` competitors each get an equal share).

use crate::timeline::{Cursor, Timeline};
use serde::{Deserialize, Serialize};

/// A workstation CPU with a reference speed and a time-varying external
/// load.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cpu {
    /// Peak (unloaded) speed in flop/s.
    speed: f64,
    /// Competing compute-bound process count over time.
    load: Timeline,
    /// Cached availability fraction `1/(1+k(t))`.
    availability: Timeline,
}

impl Cpu {
    /// Creates a CPU with `speed` flop/s peak and the given competing-load
    /// timeline (values are process *counts*, usually small integers).
    /// Both timelines the CPU keeps are stored at exact size.
    ///
    /// # Panics
    /// Panics if `speed` is not strictly positive and finite.
    pub fn new(speed: f64, mut load: Timeline) -> Self {
        assert!(
            speed.is_finite() && speed > 0.0,
            "CPU speed must be positive, got {speed}"
        );
        load.shrink_to_fit();
        let availability = load.map(|k| 1.0 / (1.0 + k));
        Cpu {
            speed,
            load,
            availability,
        }
    }

    /// An always-unloaded CPU.
    pub fn unloaded(speed: f64) -> Self {
        Cpu::new(speed, Timeline::constant(0.0))
    }

    /// Peak speed in flop/s.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// The competing-process-count timeline.
    pub fn load(&self) -> &Timeline {
        &self.load
    }

    /// The availability-fraction timeline (`1/(1+k)` per segment).
    pub fn availability(&self) -> &Timeline {
        &self.availability
    }

    /// Delivered speed (flop/s) at instant `t`.
    pub fn delivered_speed_at(&self, t: f64) -> f64 {
        self.speed * self.availability.value_at(t)
    }

    /// Mean delivered speed (flop/s) over `[t0, t1]` — what a
    /// measurement-window predictor observes.
    pub fn mean_delivered_speed(&self, t0: f64, t1: f64) -> f64 {
        self.mean_delivered_speed_with(t0, t1, &mut Cursor::default())
    }

    /// [`mean_delivered_speed`](Self::mean_delivered_speed), searching the
    /// availability timeline from `cursor` (a hint; see [`Cursor`]).
    pub fn mean_delivered_speed_with(&self, t0: f64, t1: f64, cursor: &mut Cursor) -> f64 {
        self.speed * self.availability.mean_with(t0, t1, cursor)
    }

    /// The instant at which `flops` of work started at `t0` completes,
    /// accounting for the load the CPU experiences along the way.
    ///
    /// Returns `f64::INFINITY` only if the availability tail is zero, which
    /// the `1/(1+k)` model cannot produce for finite load.
    pub fn completion_time(&self, t0: f64, flops: f64) -> f64 {
        self.completion_time_with(t0, flops, &mut Cursor::default())
    }

    /// [`completion_time`](Self::completion_time), searching the
    /// availability timeline from `cursor` (a hint; see [`Cursor`]).
    pub fn completion_time_with(&self, t0: f64, flops: f64, cursor: &mut Cursor) -> f64 {
        assert!(flops >= 0.0, "work must be non-negative");
        self.availability
            .advance_with(t0, flops / self.speed, cursor)
    }

    /// Total flops the CPU can deliver to the application over `[t0, t1]`.
    pub fn capacity(&self, t0: f64, t1: f64) -> f64 {
        self.speed * self.availability.integrate(t0, t1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_cpu_runs_at_peak() {
        let cpu = Cpu::unloaded(100e6);
        assert_eq!(cpu.delivered_speed_at(42.0), 100e6);
        assert_eq!(cpu.completion_time(0.0, 100e6), 1.0);
        assert_eq!(cpu.capacity(0.0, 10.0), 1e9);
    }

    #[test]
    fn one_competitor_halves_speed() {
        let cpu = Cpu::new(200e6, Timeline::constant(1.0));
        assert_eq!(cpu.delivered_speed_at(0.0), 100e6);
        assert_eq!(cpu.completion_time(0.0, 200e6), 2.0);
    }

    #[test]
    fn load_arriving_mid_computation_delays_completion() {
        // Unloaded for 10 s, then one competitor forever.
        let cpu = Cpu::new(1e8, Timeline::from_points([(0.0, 0.0), (10.0, 1.0)]));
        // 15e8 flops: 10 s at full speed does 1e9; remaining 5e8 at half
        // speed takes 10 s more.
        assert_eq!(cpu.completion_time(0.0, 15e8), 20.0);
    }

    #[test]
    fn mean_delivered_speed_is_windowed() {
        let cpu = Cpu::new(1e8, Timeline::from_points([(0.0, 0.0), (10.0, 1.0)]));
        assert_eq!(cpu.mean_delivered_speed(0.0, 20.0), 0.75e8);
        assert_eq!(cpu.mean_delivered_speed(10.0, 20.0), 0.5e8);
    }

    #[test]
    fn multiple_competitors_follow_fair_share() {
        let cpu = Cpu::new(3e8, Timeline::constant(2.0));
        assert_eq!(cpu.delivered_speed_at(0.0), 1e8);
    }

    #[test]
    fn both_timelines_are_stored_at_exact_size() {
        let mut load = Timeline::constant(0.0);
        for i in 1..=5 {
            load.push(i as f64, (i % 2) as f64);
        }
        let cpu = Cpu::new(1e8, load);
        assert_eq!(cpu.load().points().len(), 6);
        assert_eq!(cpu.load().capacity(), 6);
        assert_eq!(cpu.availability().capacity(), 6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_rejected() {
        Cpu::unloaded(0.0);
    }
}
