//! Time-shared CPU model.
//!
//! A [`Cpu`] delivers `speed / (1 + k(t))` flop/s at instant `t`, where
//! `k(t)` is the number of competing compute-bound processes — the standard
//! round-robin time-sharing model the paper's simulation uses (one
//! application process plus `k` competitors each get an equal share).
//!
//! A CPU built with [`Cpu::lazy`] holds its load only up to a frontier and
//! builds the rest the first time a query reads an instant at or past it,
//! so a run pays only for the load it reads.

use crate::timeline::{Cursor, Timeline};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A workstation CPU with a reference speed and a time-varying external
/// load.
///
/// The load is whole from the start ([`Cpu::new`]) or built lazily
/// ([`Cpu::lazy`]); both answer every query bit for bit alike.
#[derive(Clone, Debug)]
pub struct Cpu {
    /// Peak (unloaded) speed in flop/s.
    speed: f64,
    /// Competing compute-bound process count over time: the whole load,
    /// or a lazy CPU's head, exact below `frontier`.
    load: Timeline,
    /// Cached availability fraction `1/(1+k(t))` of `load`; a lazy CPU's
    /// is 0 from `frontier` on.
    availability: Timeline,
    /// Queries that read only instants below this use the two timelines
    /// above; `INFINITY` for a CPU built whole.
    frontier: f64,
    /// How a lazy CPU builds its whole load, and what it has built.
    rest: Option<Arc<Rest>>,
}

/// The part of a lazy [`Cpu`] past its frontier. Clones of the CPU share
/// it, and `OnceLock` makes every thread that needs a timeline wait for
/// one build of it.
struct Rest {
    /// Builds the whole competing-load timeline (a pure function).
    build: Box<dyn Fn() -> Timeline + Send + Sync>,
    /// The whole load, built only when [`Cpu::load`] asks for it.
    load: OnceLock<Timeline>,
    /// The whole availability, built by the first query past the frontier.
    availability: OnceLock<Timeline>,
}

impl Rest {
    fn load(&self) -> &Timeline {
        self.load.get_or_init(|| {
            let mut load = (self.build)();
            load.shrink_to_fit();
            load
        })
    }

    fn availability(&self) -> &Timeline {
        self.availability.get_or_init(|| match self.load.get() {
            Some(load) => availability_before(load, f64::INFINITY),
            None => availability_before(&(self.build)(), f64::INFINITY),
        })
    }
}

impl fmt::Debug for Rest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rest")
            .field("load", &self.load.get().map(|l| l.points().len()))
            .field(
                "availability",
                &self.availability.get().map(|a| a.points().len()),
            )
            .finish_non_exhaustive()
    }
}

/// The availability fraction `1/(1+k)` of a competing-load timeline on
/// `[0, end)`, and 0 from `end` on.
fn availability_before(load: &Timeline, end: f64) -> Timeline {
    load.map_before(end, |k| 1.0 / (1.0 + k))
}

fn assert_speed(speed: f64) {
    assert!(
        speed.is_finite() && speed > 0.0,
        "CPU speed must be positive, got {speed}"
    );
}

impl Cpu {
    /// Creates a CPU with `speed` flop/s peak and the given competing-load
    /// timeline (values are process *counts*, usually small integers).
    /// Both timelines the CPU keeps are stored at exact size.
    ///
    /// # Panics
    /// Panics if `speed` is not strictly positive and finite.
    pub fn new(speed: f64, mut load: Timeline) -> Self {
        assert_speed(speed);
        load.shrink_to_fit();
        let availability = availability_before(&load, f64::INFINITY);
        Cpu {
            speed,
            load,
            availability,
            frontier: f64::INFINITY,
            rest: None,
        }
    }

    /// Creates a CPU whose load is built only as far as queries read it.
    ///
    /// `head` must equal `whole()` on `[0, frontier)`; what it holds from
    /// `frontier` on is never read. A query that reads only instants below
    /// `frontier` answers from `head`. The first one that reads an instant
    /// at or past it calls `whole` (threads sharing the CPU wait for that
    /// one call) and keeps only the availability it implies;
    /// [`load`](Self::load) calls `whole` again if asked. Every query
    /// answers what [`Cpu::new`] with the whole load answers, bit for bit.
    /// A frontier at or below 0 defers nothing, since every query reads
    /// instant 0 or later: that CPU is built whole at once.
    ///
    /// # Panics
    /// Panics if `speed` is not strictly positive and finite.
    pub fn lazy(
        speed: f64,
        mut head: Timeline,
        frontier: f64,
        whole: impl Fn() -> Timeline + Send + Sync + 'static,
    ) -> Self {
        if frontier <= 0.0 {
            return Cpu::new(speed, whole());
        }
        assert_speed(speed);
        head.shrink_to_fit();
        // 0 from the frontier on: a completion that reaches it never ends
        // in the head, so it is redone on the whole trace.
        let availability = availability_before(&head, frontier);
        Cpu {
            speed,
            load: head,
            availability,
            frontier,
            rest: Some(Arc::new(Rest {
                build: Box::new(whole),
                load: OnceLock::new(),
                availability: OnceLock::new(),
            })),
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

    /// The whole competing-process-count timeline (a lazy CPU builds it
    /// on the first call).
    pub fn load(&self) -> &Timeline {
        match &self.rest {
            Some(rest) => rest.load(),
            None => &self.load,
        }
    }

    /// A competing-process-count timeline exact on `[0, t]`: a lazy CPU's
    /// head while `t` lies below its frontier, else [`load`](Self::load).
    /// Its breakpoints after `t` may differ from the whole load's.
    pub fn load_through(&self, t: f64) -> &Timeline {
        if t < self.frontier {
            &self.load
        } else {
            self.load()
        }
    }

    /// The whole availability-fraction timeline (`1/(1+k)` per segment; a
    /// lazy CPU builds it on the first call).
    pub fn availability(&self) -> &Timeline {
        match &self.rest {
            Some(rest) => rest.availability(),
            None => &self.availability,
        }
    }

    /// The instant up to which queries are answered without building
    /// anything: a lazy CPU's frontier until its whole availability is
    /// built, `INFINITY` after that and for a CPU built whole.
    pub fn realized_through(&self) -> f64 {
        match &self.rest {
            Some(rest) if rest.availability.get().is_none() => self.frontier,
            _ => f64::INFINITY,
        }
    }

    /// The availability timeline that answers a query reading instants up
    /// to `t`.
    fn availability_through(&self, t: f64) -> &Timeline {
        if t < self.frontier {
            &self.availability
        } else {
            self.availability()
        }
    }

    /// Delivered speed (flop/s) at instant `t`.
    pub fn delivered_speed_at(&self, t: f64) -> f64 {
        self.speed * self.availability_through(t).value_at(t)
    }

    /// Mean delivered speed (flop/s) over `[t0, t1]` — what a
    /// measurement-window predictor observes.
    pub fn mean_delivered_speed(&self, t0: f64, t1: f64) -> f64 {
        self.mean_delivered_speed_with(t0, t1, &mut Cursor::default())
    }

    /// [`mean_delivered_speed`](Self::mean_delivered_speed), searching the
    /// availability timeline from `cursor` (a hint; see [`Cursor`]).
    pub fn mean_delivered_speed_with(&self, t0: f64, t1: f64, cursor: &mut Cursor) -> f64 {
        self.speed
            * self
                .availability_through(t0.max(t1))
                .mean_with(t0, t1, cursor)
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
    ///
    /// A lazy CPU first asks its head, which agrees with the whole trace
    /// below the frontier, has its same breakpoint indices there, and is
    /// 0 from the frontier on: an answer below the frontier is the whole
    /// trace's. Otherwise the query is redone on the whole trace, with
    /// the same cursor.
    pub fn completion_time_with(&self, t0: f64, flops: f64, cursor: &mut Cursor) -> f64 {
        assert!(flops >= 0.0, "work must be non-negative");
        let work = flops / self.speed;
        if t0 < self.frontier {
            let done = self.availability.advance_with(t0, work, cursor);
            if done < self.frontier {
                return done;
            }
        }
        self.availability().advance_with(t0, work, cursor)
    }

    /// Total flops the CPU can deliver to the application over `[t0, t1]`.
    pub fn capacity(&self, t0: f64, t1: f64) -> f64 {
        self.speed * self.availability_through(t0.max(t1)).integrate(t0, t1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        let cpu = Cpu::new(1e8, load.clone());
        assert_eq!(cpu.load().points().len(), 6);
        assert_eq!(cpu.load().capacity(), 6);
        assert_eq!(cpu.availability().capacity(), 6);
        let lazy = Cpu::lazy(1e8, load.clone(), 2.5, move || load.clone());
        assert_eq!(lazy.load.capacity(), 6);
        assert_eq!(lazy.availability.points().len(), 4);
        assert_eq!(lazy.availability.capacity(), 4);
        assert_eq!(lazy.load().capacity(), 6);
        assert_eq!(lazy.availability().capacity(), 6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_rejected() {
        Cpu::unloaded(0.0);
    }

    /// A lazy CPU over `whole` with its frontier at `frontier`, whose head
    /// is `whole` below it and `junk` from it on, and a count of the calls
    /// of its `whole` closure.
    fn lazy(
        speed: f64,
        whole: &Timeline,
        frontier: f64,
        junk: &[(f64, f64)],
    ) -> (Cpu, Arc<AtomicUsize>) {
        let kept = whole.points().iter().filter(|&&(t, _)| t < frontier);
        let past = junk.iter().map(|&(dt, v)| (frontier + dt, v));
        let head = Timeline::from_points(kept.copied().chain(past));
        let calls = Arc::new(AtomicUsize::new(0));
        let (counter, whole) = (Arc::clone(&calls), whole.clone());
        let cpu = Cpu::lazy(speed, head, frontier, move || {
            counter.fetch_add(1, Ordering::SeqCst);
            whole.clone()
        });
        (cpu, calls)
    }

    #[test]
    fn a_lazy_cpu_builds_its_whole_load_only_past_the_frontier() {
        let whole = Timeline::from_points([(0.0, 0.0), (10.0, 1.0), (30.0, 0.0)]);
        let (cpu, calls) = lazy(1e8, &whole, 20.0, &[(0.0, 7.0), (5.0, 2.0)]);
        assert_eq!(cpu.realized_through(), 20.0);
        assert_eq!(cpu.completion_time(0.0, 14e8), 18.0);
        assert_eq!(cpu.load_through(19.0).value_at(19.0), 1.0);
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        // 20e8 flops reach past the frontier: the whole trace answers.
        assert_eq!(cpu.completion_time(0.0, 20e8), 30.0);
        assert_eq!(cpu.realized_through(), f64::INFINITY);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // The load is built again only when it is asked for, and once.
        assert_eq!(cpu.load_through(25.0), &whole);
        assert_eq!(cpu.load(), &whole);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn threads_crossing_the_frontier_share_one_build() {
        let whole = Timeline::from_points([(0.0, 0.0), (10.0, 1.0), (30.0, 0.0)]);
        let (cpu, calls) = lazy(1e8, &whole, 5.0, &[]);
        let eager = Cpu::new(1e8, whole);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for k in 0..4 {
                let (cpu, eager, start) = (&cpu, &eager, &start);
                s.spawn(move || {
                    let flops = 1e9 + 1e8 * k as f64;
                    start.wait();
                    assert_eq!(
                        cpu.completion_time(0.0, flops),
                        eager.completion_time(0.0, flops)
                    );
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    proptest! {
        /// A lazy CPU answers all six queries bit for bit as the CPU
        /// built whole does, and builds its whole trace exactly when a
        /// query first reads an instant at or past the frontier. The head
        /// holds junk from the frontier on, so a query that read it would
        /// differ. Query sequences move forward, repeat, jump back (below
        /// the frontier again once the CPU is whole), land on breakpoints
        /// and run past the last one, from any starting cursor, as in
        /// `timeline`'s `prop_cursor_is_only_a_hint`.
        #[test]
        fn prop_lazy_answers_as_whole(
            segments in proptest::collection::vec(
                (0.1f64..20.0, prop::sample::select(vec![0.0, 0.0, 1.0, 1.0, 2.0, 19.0, 0.5, 1e6])),
                1..12,
            ),
            frontier_at in prop::sample::select(vec![0usize, 1, 2, 3, 5, 8, 11, 99]),
            frontier_dt in prop::sample::select(vec![0.0, 0.0, 0.05, 3.0, 11.0]),
            junk in proptest::collection::vec(
                (0.0f64..30.0, prop::sample::select(vec![0.0, 1.0, 3.0, 19.0])),
                0..4,
            ),
            speed in prop::sample::select(vec![1.0, 3.0, 2.5e8]),
            start in prop::sample::select(vec![0usize, 1, 2, 5, 11, 13, 40, usize::MAX]),
            queries in proptest::collection::vec((0usize..5, 0.0f64..30.0, 0.0f64..40.0), 1..24),
        ) {
            let mut t = 0.0;
            let whole = Timeline::from_points(segments.iter().map(|&(len, v)| {
                let p = (t, v);
                t += len;
                p
            }));
            // The frontier: on or just after a breakpoint, or past them all.
            let pts = whole.points();
            let frontier = pts.get(frontier_at).map_or(t, |&(bt, _)| bt) + frontier_dt;
            let mut junk = junk;
            junk.sort_by(|a, b| a.0.total_cmp(&b.0));
            junk.dedup_by(|a, b| a.0 == b.0);
            if frontier == 0.0 && junk.first().is_none_or(|&(dt, _)| dt > 0.0) {
                junk.insert(0, (0.0, 3.0));
            }
            let (cpu, calls) = lazy(speed, &whole, frontier, &junk);
            let eager = Cpu::new(speed, whole.clone());
            let (mut lazy_cursor, mut eager_cursor) = (Cursor(start), Cursor(start));
            let mut crossed = frontier <= 0.0;
            let mut t0 = 0.0;
            for &(step, dt, span) in &queries {
                t0 = match step {
                    0 => t0 + dt,
                    1 => t0,
                    2 => t0 - dt,
                    3 => pts[dt as usize % pts.len()].0,
                    _ => dt * 10.0 - 20.0,
                };
                let bits = |x: f64| x.to_bits();
                prop_assert_eq!(bits(cpu.delivered_speed_at(t0)), bits(eager.delivered_speed_at(t0)));
                crossed |= t0 >= frontier;
                for t1 in [t0 + span, t0 - span] {
                    prop_assert_eq!(
                        bits(cpu.mean_delivered_speed(t0, t1)),
                        bits(eager.mean_delivered_speed(t0, t1)),
                        "mean({}, {})", t0, t1
                    );
                    prop_assert_eq!(
                        bits(cpu.mean_delivered_speed_with(t0, t1, &mut lazy_cursor)),
                        bits(eager.mean_delivered_speed_with(t0, t1, &mut eager_cursor)),
                        "mean_with({}, {})", t0, t1
                    );
                    crossed |= t1 >= frontier;
                }
                prop_assert_eq!(
                    bits(cpu.capacity(t0, t0 + span)),
                    bits(eager.capacity(t0, t0 + span)),
                    "capacity({}, {})", t0, t0 + span
                );
                let flops = span * speed;
                let done = eager.completion_time(t0, flops);
                prop_assert_eq!(bits(cpu.completion_time(t0, flops)), bits(done), "completion({}, {})", t0, flops);
                prop_assert_eq!(
                    bits(cpu.completion_time_with(t0, flops, &mut lazy_cursor)),
                    bits(eager.completion_time_with(t0, flops, &mut eager_cursor)),
                    "completion_with({}, {})", t0, flops
                );
                crossed |= done >= frontier;
                let through = if crossed { f64::INFINITY } else { frontier };
                prop_assert_eq!(cpu.realized_through(), through);
                prop_assert_eq!(calls.load(Ordering::SeqCst), usize::from(crossed));
            }
            prop_assert_eq!(cpu.load(), &whole);
            prop_assert_eq!(cpu.availability(), eager.availability());
        }
    }
}
