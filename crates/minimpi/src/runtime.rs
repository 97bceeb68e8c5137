//! The runtime: worker threads, the swap manager, and the swap protocol.
//!
//! Execution is BSP with a swap point after every iteration (the paper's
//! `MPI_Swap()` with its full-barrier semantics):
//!
//! 1. every active worker finishes `iterate`, suffers its injected load
//!    penalty, and sends a performance report to the manager, then blocks
//!    on its control channel — the barrier;
//! 2. the manager collects all `N` reports and probes every spare's
//!    current availability (the swap-handler role); a round with scripted
//!    crashes or evictions moves each departing process to a spare, any
//!    other round feeds everything through the configured [`Decider`];
//! 3. admitted exchanges move the process state *and* the slot's
//!    communicator endpoint from the displaced worker to the spare over a
//!    one-message channel; the displaced worker parks as a spare, the
//!    spare resumes the iteration loop exactly where the process left
//!    off;
//! 4. everyone else gets `Continue`.
//!
//! All policy arithmetic runs in *virtual* time (wall time × the
//! configured compression), so multi-hour traces and 6 MB/s swap costs
//! can be exercised in milliseconds of wall clock.

use crate::app::IterativeApp;
use crate::comm::{CommParts, CommTracer, Router, SlotComm};
use crate::load::LoadInjector;
use crate::report::{RoundRecord, RunReport, SwapEvent};
use loadmodel::LoadTrace;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;
use swap_core::{ManagerCore, PolicyParams, SwapCost};

/// How swap decisions are made.
#[derive(Clone, Debug)]
pub enum Decider {
    /// Never swap (the NOTHING baseline).
    Never,
    /// Swap unconditionally every `k` iterations, rotating through the
    /// slots — deterministic, for correctness tests ("a swap must not
    /// change the numerical result").
    ForceEvery(usize),
    /// Run a `swap-core` policy on live measurements (the real thing).
    Policy(PolicyParams),
}

/// Configuration of one runtime execution.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Total workers launched (active + spare); the over-allocation.
    pub n_workers: usize,
    /// Workers that compute (`N`); the rest are spares.
    pub n_active: usize,
    /// Iteration cap.
    pub max_iterations: usize,
    /// The swap decider.
    pub decider: Decider,
    /// Virtual link cost model for the payback arithmetic.
    pub cost: SwapCost,
    /// Per-worker injected load traces (empty = all unloaded; otherwise
    /// one per worker).
    pub loads: Vec<LoadTrace>,
    /// Virtual seconds per wall-clock second.
    pub compression: f64,
    /// Scripted owner reclamations, `(iteration, worker)`: after that
    /// iteration's reports, the worker is *evicted* — if it holds a slot,
    /// the process is forcibly migrated to a spare (Condor-style resource
    /// reclamation, §2); afterwards the worker never receives new work.
    /// With no spare left the run stops there, truncated.
    pub evictions: Vec<(usize, usize)>,
    /// Scripted host crashes, `(iteration, worker)`: the worker *fails
    /// permanently* and the failure is detected at that iteration's
    /// report barrier (ULFM-style — surviving ranks learn of the death at
    /// the next collective). A crashed active slot is a **mandatory**
    /// recovery swap: the payback arithmetic is skipped, the manager
    /// re-forms the computation around the best available spare, and the
    /// slot resumes from its last registered snapshot (modeled by the
    /// displaced worker's state channel — the manager holds a copy of
    /// every state it registered at the barrier). A crashed worker is
    /// never probed and never a swap target again. A round's crashes are
    /// handled before its evictions; with no spare left the run stops at
    /// that barrier, truncated ([`RunReport::truncated`]).
    pub crashes: Vec<(usize, usize)>,
    /// When true, every swap pauses the incoming process for the
    /// *virtual* transfer time `cost.swap_time(state)` (converted to wall
    /// time through `compression`) — so the live runtime reproduces the
    /// cost-sensitive behavior of the simulator (e.g. greedy thrash at
    /// 1 GB state, Figure 8) instead of near-free in-memory moves.
    pub charge_swap_cost: bool,
    /// Overrides the measured state size (bytes) in the cost/payback
    /// arithmetic — model a production-size application state while the
    /// demo app carries only kilobytes.
    pub state_size_override: Option<f64>,
    /// Optional trace sink. The manager emits iteration boundaries, swap
    /// decisions (with their payback inputs), and swap executions; slot
    /// endpoints emit application messages and collective spans. All
    /// timestamps are in virtual time. Spare probes are *not* traced:
    /// probe replies arrive in nondeterministic order.
    pub trace: Option<obs::SharedSink>,
}

impl RuntimeConfig {
    /// A minimal unloaded configuration.
    pub fn new(n_workers: usize, n_active: usize, max_iterations: usize) -> Self {
        RuntimeConfig {
            n_workers,
            n_active,
            max_iterations,
            decider: Decider::Never,
            cost: SwapCost::new(1e-4, 6e6),
            loads: Vec::new(),
            compression: 1.0,
            evictions: Vec::new(),
            crashes: Vec::new(),
            charge_swap_cost: false,
            state_size_override: None,
            trace: None,
        }
    }

    fn validate(&self) {
        assert!(self.n_active >= 1, "need at least one active worker");
        assert!(
            self.n_workers >= self.n_active,
            "n_workers {} < n_active {}",
            self.n_workers,
            self.n_active
        );
        assert!(self.max_iterations >= 1, "need at least one iteration");
        assert!(
            self.loads.is_empty() || self.loads.len() == self.n_workers,
            "loads must be empty or one per worker"
        );
        assert!(self.compression > 0.0, "compression must be positive");
        if let Decider::ForceEvery(k) = self.decider {
            assert!(k >= 1, "ForceEvery period must be >= 1");
        }
        for &(iter, worker) in &self.evictions {
            assert!(
                worker < self.n_workers,
                "eviction references unknown worker {worker}"
            );
            assert!(
                iter >= 1 && iter < self.max_iterations,
                "eviction at iteration {iter} can never fire (range 1..{})",
                self.max_iterations
            );
        }
        for &(iter, worker) in &self.crashes {
            assert!(
                worker < self.n_workers,
                "crash references unknown worker {worker}"
            );
            assert!(
                iter >= 1 && iter < self.max_iterations,
                "crash at iteration {iter} can never fire (range 1..{})",
                self.max_iterations
            );
        }
    }
}

/// End-of-iteration performance report (worker → manager).
#[derive(Debug)]
struct Report {
    worker: usize,
    slot: usize,
    /// Iterations completed so far.
    iter: usize,
    pure_secs: f64,
    total_secs: f64,
    state_size: usize,
    converged: bool,
    /// Panic message if the application code panicked this iteration;
    /// the manager aborts the whole run (instead of deadlocking the
    /// report barrier).
    failed: Option<String>,
}

/// The state+endpoint bundle a swap transfers.
struct Activation {
    /// Next iteration the receiving worker must execute.
    iter: usize,
    state_bytes: Vec<u8>,
    comm: CommParts,
    /// Wall-clock pause modeling the virtual state-transfer time (0 when
    /// cost charging is off).
    pause_secs: f64,
}

/// Manager → worker directives.
enum Directive {
    Continue,
    SwapOut {
        to: Sender<Activation>,
        pause_secs: f64,
    },
    Activate {
        from: Receiver<Activation>,
    },
    Probe {
        reply: Sender<(usize, f64)>,
    },
    Stop,
}

/// Runs `app` on an over-allocated set of worker threads with live
/// process swapping, returning the final per-slot states and the swap
/// log.
///
/// ```
/// use minimpi::app::IterativeApp;
/// use minimpi::comm::SlotComm;
/// use minimpi::runtime::{run_iterative, Decider, RuntimeConfig};
///
/// struct Sum;
/// impl IterativeApp for Sum {
///     type State = f64;
///     fn init(&self, _slot: usize, _n: usize) -> f64 { 0.0 }
///     fn iterate(&self, _i: usize, state: &mut f64, comm: &mut SlotComm) {
///         *state += comm.allreduce(&1.0_f64, |a, b| a + b); // +n_slots each iter
///     }
/// }
///
/// // 2 active + 2 spares, swap a slot after every iteration:
/// let mut cfg = RuntimeConfig::new(4, 2, 5);
/// cfg.decider = Decider::ForceEvery(1);
/// let report = run_iterative(cfg, Sum);
/// assert_eq!(report.iterations_run, 5);
/// assert!(report.swap_count() >= 4);
/// assert!(report.final_states.iter().all(|&s| s == 10.0)); // swaps are transparent
/// ```
///
/// # Panics
/// Panics on invalid configuration, or if the application code panics on
/// any rank — the panic message is forwarded as
/// `"application panicked on slot …"`. In the failure case surviving
/// worker threads (possibly blocked mid-collective on the dead rank) are
/// leaked rather than joined; the process is expected to unwind.
pub fn run_iterative<A: IterativeApp>(config: RuntimeConfig, app: A) -> RunReport<A::State> {
    config.validate();
    let app = Arc::new(app);
    let started = Instant::now();
    let tracer: Option<Arc<CommTracer>> = config
        .trace
        .clone()
        .map(|sink| Arc::new(CommTracer::new(sink, started, config.compression)));

    let (router, slot_rxs) = Router::new(config.n_active);
    let (report_tx, report_rx) = channel::<Report>();
    let (result_tx, result_rx) = channel::<(usize, A::State)>();

    let mut controls: Vec<Sender<Directive>> = Vec::with_capacity(config.n_workers);
    let mut handles = Vec::with_capacity(config.n_workers);
    let mut slot_rxs = slot_rxs.into_iter();
    for worker in 0..config.n_workers {
        let (ctl_tx, ctl_rx) = channel::<Directive>();
        controls.push(ctl_tx);
        let initial = if worker < config.n_active {
            Some((worker, slot_rxs.next().expect("one mailbox per slot")))
        } else {
            None
        };
        let trace = config
            .loads
            .get(worker)
            .cloned()
            .unwrap_or_else(LoadTrace::unloaded);
        let mut injector = LoadInjector::new(trace, config.compression);
        injector.rebase(started);

        let app = Arc::clone(&app);
        let router = router.clone();
        let report_tx = report_tx.clone();
        let result_tx = result_tx.clone();
        let max_iterations = config.max_iterations;
        let tracer = tracer.clone();
        handles.push(std::thread::spawn(move || {
            worker_loop(
                worker,
                app,
                router,
                ctl_rx,
                report_tx,
                result_tx,
                injector,
                initial,
                max_iterations,
                tracer,
            );
        }));
    }
    drop(report_tx);
    drop(result_tx);

    let (iterations_run, swap_events, final_placement, rounds, truncated) =
        manager_loop(&config, &report_rx, &controls, started, tracer.as_deref());

    let mut finals: Vec<Option<A::State>> = (0..config.n_active).map(|_| None).collect();
    for _ in 0..config.n_active {
        let (slot, state) = result_rx
            .recv()
            .expect("every active slot reports a final state");
        finals[slot] = Some(state);
    }
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    RunReport {
        final_states: finals
            .into_iter()
            .map(|s| s.expect("all slots collected"))
            .collect(),
        iterations_run,
        swap_events,
        final_placement,
        wall_time: started.elapsed(),
        rounds,
        truncated,
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop<A: IterativeApp>(
    worker: usize,
    app: Arc<A>,
    router: Router,
    control: Receiver<Directive>,
    report_tx: Sender<Report>,
    result_tx: Sender<(usize, A::State)>,
    injector: LoadInjector,
    initial: Option<(usize, Receiver<crate::msg::Msg>)>,
    max_iterations: usize,
    tracer: Option<Arc<CommTracer>>,
) {
    struct Active<S> {
        next_iter: usize,
        state: S,
        comm: SlotComm,
    }

    let mut role: Option<Active<A::State>> = initial.map(|(slot, rx)| {
        let mut comm = SlotComm::new(slot, router.clone(), rx);
        if let Some(tr) = &tracer {
            comm.set_tracer(Arc::clone(tr));
        }
        Active {
            next_iter: 0,
            state: app.init(slot, router.n_slots()),
            comm,
        }
    });

    loop {
        match role.take() {
            Some(mut active) => {
                let t0 = Instant::now();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    app.iterate(active.next_iter, &mut active.state, &mut active.comm);
                }));
                if let Err(payload) = outcome {
                    // Application code panicked: tell the manager so it
                    // can abort the run instead of hanging the barrier.
                    // (`&*payload`: pass the payload itself, not the Box,
                    // or the downcasts silently see the wrong type.)
                    let msg = panic_message(&*payload);
                    let _ = report_tx.send(Report {
                        worker,
                        slot: active.comm.rank(),
                        iter: active.next_iter + 1,
                        pure_secs: 1e-9,
                        total_secs: 1e-9,
                        state_size: 0,
                        converged: true,
                        failed: Some(msg),
                    });
                    return;
                }
                let pure = t0.elapsed();
                injector.throttle(pure);
                let total = t0.elapsed();
                active.next_iter += 1;

                let state_bytes = serde_json::to_vec(&active.state).expect("state must serialize");
                let converged = active.next_iter >= max_iterations
                    || app.converged(active.next_iter - 1, &active.state);
                report_tx
                    .send(Report {
                        worker,
                        slot: active.comm.rank(),
                        iter: active.next_iter,
                        pure_secs: pure.as_secs_f64().max(1e-9),
                        total_secs: total.as_secs_f64().max(1e-9),
                        state_size: state_bytes.len(),
                        converged,
                        failed: None,
                    })
                    .expect("manager alive while workers run");

                match control.recv().expect("manager alive while workers run") {
                    Directive::Continue => role = Some(active),
                    Directive::SwapOut { to, pause_secs } => {
                        to.send(Activation {
                            iter: active.next_iter,
                            state_bytes,
                            comm: active.comm.into_parts(),
                            pause_secs,
                        })
                        .expect("activation peer waits for the state");
                        // role stays None: this worker is now a spare.
                    }
                    Directive::Stop => {
                        result_tx
                            .send((active.comm.rank(), active.state))
                            .expect("runner collects final states");
                        return;
                    }
                    Directive::Activate { .. } | Directive::Probe { .. } => {
                        unreachable!("protocol violation: active worker got a spare directive")
                    }
                }
            }
            None => match control.recv() {
                Ok(Directive::Probe { reply }) => {
                    let _ = reply.send((worker, injector.availability_now()));
                }
                Ok(Directive::Activate { from }) => {
                    let act = from.recv().expect("displaced worker sends its state");
                    if act.pause_secs > 0.0 {
                        // Model the virtual state-transfer time: the
                        // incoming process is paused exactly as the real
                        // runtime pauses during the transfer.
                        std::thread::sleep(std::time::Duration::from_secs_f64(
                            act.pause_secs.min(5.0),
                        ));
                    }
                    let state: A::State =
                        serde_json::from_slice(&act.state_bytes).expect("state must deserialize");
                    role = Some(Active {
                        next_iter: act.iter,
                        state,
                        comm: SlotComm::from_parts(act.comm, router.clone()),
                    });
                }
                Ok(Directive::Stop) | Err(_) => return,
                Ok(Directive::Continue) | Ok(Directive::SwapOut { .. }) => {
                    unreachable!("protocol violation: spare got an active directive")
                }
            },
        }
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Runs the swap manager until the application converges, or until a
/// crashed or evicted active worker finds no spare left (the returned
/// flag: a truncated run). Either way every worker is sent `Stop` at the
/// last barrier.
fn manager_loop(
    config: &RuntimeConfig,
    report_rx: &Receiver<Report>,
    controls: &[Sender<Directive>],
    origin: Instant,
    tracer: Option<&CommTracer>,
) -> (usize, Vec<SwapEvent>, Vec<usize>, Vec<RoundRecord>, bool) {
    let n = config.n_active;
    let mut placement: Vec<usize> = (0..n).collect(); // slot -> worker
    let mut spares: Vec<usize> = (n..config.n_workers).collect();
    // Workers that crashed or whose owner reclaimed them: parked until
    // shutdown, never probed, never swap targets.
    let mut evicted: Vec<usize> = Vec::new();
    let policy = match config.decider {
        Decider::Policy(policy) => Some(policy),
        Decider::Never | Decider::ForceEvery(_) => None,
    };
    let mut core = ManagerCore::new(config.n_workers, policy, config.cost, None);
    let mut events: Vec<SwapEvent> = Vec::new();
    let mut rounds: Vec<RoundRecord> = Vec::new();

    let (iterations_run, truncated) = loop {
        // Barrier: one report per active slot. A failure report aborts
        // the run immediately — peers may be blocked mid-collective on
        // the dead rank and will never report.
        let mut reports: Vec<Report> = Vec::with_capacity(n);
        for _ in 0..n {
            let r = report_rx.recv().expect("active workers report");
            if let Some(msg) = &r.failed {
                // Leave a forensic record before aborting: the audit must
                // distinguish an application bug from an injected fault,
                // because the right response differs (debug vs. recover).
                if let Some(tr) = tracer {
                    tr.emit(obs::TraceEvent::FailureDetected {
                        t: tr.vnow(),
                        host: r.worker,
                        iter: Some(r.iter),
                        cause: obs::FailureCause::AppPanic,
                        detail: Some(msg.clone()),
                    });
                }
                panic!(
                    "application panicked on slot {} (worker {}): {msg}",
                    r.slot, r.worker
                );
            }
            reports.push(r);
        }
        reports.sort_by_key(|r| r.slot);
        let iter = reports[0].iter;
        debug_assert!(
            reports.iter().all(|r| r.iter == iter),
            "BSP lockstep broken"
        );
        rounds.push(RoundRecord {
            iter,
            max_iter_secs: reports.iter().map(|r| r.total_secs).fold(0.0, f64::max),
            placement: placement.clone(),
        });

        let vnow = origin.elapsed().as_secs_f64() * config.compression;
        let iter_time_v = reports
            .iter()
            .map(|r| r.total_secs)
            .fold(0.0, f64::max)
            .max(1e-9)
            * config.compression;
        if let Some(tr) = tracer {
            tr.emit(obs::TraceEvent::IterEnd {
                t: vnow,
                iter: iter - 1,
                compute_end: vnow,
            });
        }

        // Effective state size for cost/payback arithmetic (from the
        // latest reports unless overridden), and the wall pause a swap
        // charges the incoming process.
        let state_size = config
            .state_size_override
            .unwrap_or_else(|| reports.iter().map(|r| r.state_size).max().unwrap_or(0) as f64);
        let pause = if config.charge_swap_cost {
            config.cost.swap_time(state_size) / config.compression
        } else {
            0.0
        };

        // Record active rates (iterations per virtual second).
        for r in &reports {
            core.record(r.worker, vnow, 1.0 / (r.total_secs * config.compression));
        }
        // Probe spares: availability × the unloaded rate reference.
        let mut pure: Vec<f64> = reports.iter().map(|r| r.pure_secs).collect();
        pure.sort_by(f64::total_cmp);
        let pure_med_v = pure[pure.len() / 2] * config.compression;
        if !spares.is_empty() {
            let (ptx, prx) = channel();
            for &s in &spares {
                controls[s]
                    .send(Directive::Probe { reply: ptx.clone() })
                    .expect("spare alive");
            }
            drop(ptx);
            for _ in 0..spares.len() {
                let (w, avail) = prx.recv().expect("spare replies to probe");
                core.record(w, vnow, avail / pure_med_v);
            }
        }

        if reports.iter().all(|r| r.converged) {
            break (iter, false);
        }

        // Mandatory moves pre-empt the policy: the round's scripted
        // crashes, then its owner reclamations. A crash surfaces at the
        // barrier that just completed (ULFM-style: survivors learn of a
        // death at the next collective). Either way an active process
        // MUST move — the payback test is skipped — to the best
        // remaining spare, but only a crash is traced, as a *fault*
        // rather than an owner decision.
        let leaving: Vec<(usize, bool)> = config
            .crashes
            .iter()
            .map(|&(at, w)| (at, w, true))
            .chain(config.evictions.iter().map(|&(at, w)| (at, w, false)))
            .filter(|&(at, _, _)| at == iter)
            .map(|(_, w, crash)| (w, crash))
            .collect();
        let exchanges = if !leaving.is_empty() {
            let mut movers = Vec::new();
            for (w, crash) in leaving {
                if evicted.contains(&w) {
                    continue;
                }
                evicted.push(w);
                if let Some(tr) = tracer.filter(|_| crash) {
                    tr.emit(obs::TraceEvent::FaultInjected {
                        t: tr.vnow(),
                        host: Some(w),
                        fault: obs::FaultKind::Crash,
                        duration_secs: None,
                        factor: None,
                    });
                    tr.emit(obs::TraceEvent::FailureDetected {
                        t: tr.vnow(),
                        host: w,
                        iter: Some(iter - 1),
                        cause: obs::FailureCause::InjectedCrash,
                        detail: None,
                    });
                }
                // A departing active process must move; a departing
                // spare just leaves the pool.
                if let Some(slot) = placement.iter().position(|&a| a == w) {
                    movers.push((slot, w, crash));
                }
            }
            spares.retain(|s| !evicted.contains(s));
            if movers.len() > spares.len() {
                break (iter, true);
            }
            let mut exchanges = Vec::with_capacity(movers.len());
            for (slot, w, crash) in movers {
                // Best remaining spare by most recent measurement.
                let to = spares
                    .iter()
                    .copied()
                    .max_by(|&a, &b| {
                        let ra = core.history(a).last().map_or(0.0, |(_, v)| v);
                        let rb = core.history(b).last().map_or(0.0, |(_, v)| v);
                        ra.total_cmp(&rb).then(b.cmp(&a))
                    })
                    .expect("one spare per moving slot");
                spares.retain(|&s| s != to);
                if let Some(tr) = tracer.filter(|_| crash) {
                    tr.emit(obs::TraceEvent::RecoveryComplete {
                        t: tr.vnow(),
                        host: w,
                        replacement: Some(to),
                        action: obs::RecoveryAction::SpareSwap,
                        pause_secs: pause * config.compression,
                    });
                }
                exchanges.push(SwapEvent {
                    iter,
                    slot,
                    from_worker: w,
                    to_worker: to,
                    payback: 0.0,
                });
            }
            exchanges
        } else if let Decider::ForceEvery(k) = config.decider {
            if iter.is_multiple_of(k) && !spares.is_empty() {
                let slot = (iter / k - 1) % n;
                vec![SwapEvent {
                    iter,
                    slot,
                    from_worker: placement[slot],
                    to_worker: spares[0],
                    payback: 0.0,
                }]
            } else {
                Vec::new()
            }
        } else if let Some(decision) = core.decide(
            placement
                .iter()
                .map(|&w| (w, true))
                .chain(spares.iter().map(|&w| (w, false))),
            vnow,
            iter_time_v,
            state_size,
        ) {
            if let Some(tr) = tracer {
                tr.emit(obs::TraceEvent::SwapDecision {
                    t: vnow,
                    iter: iter - 1,
                    old_iter_time: iter_time_v,
                    swap_time: config.cost.swap_time(state_size),
                    app_improvement: decision.app_improvement,
                    stopped_because: decision.stopped_because,
                    admitted: decision.pairs.clone(),
                    rejected: decision.rejected,
                });
            }
            decision
                .pairs
                .iter()
                .map(|p| SwapEvent {
                    iter,
                    slot: placement
                        .iter()
                        .position(|&w| w == p.from)
                        .expect("pair.from is an active worker"),
                    from_worker: p.from,
                    to_worker: p.to,
                    payback: p.payback,
                })
                .collect()
        } else {
            Vec::new() // Decider::Never
        };

        if let Some(tr) = tracer {
            for ex in &exchanges {
                tr.emit(obs::TraceEvent::SwapExec {
                    t: tr.vnow(),
                    iter: iter - 1,
                    from: ex.from_worker,
                    to: ex.to_worker,
                    bytes: state_size,
                    transfer_secs: pause * config.compression,
                });
            }
        }
        enact(&exchanges, pause, &mut placement, &mut spares, controls);
        events.extend(exchanges);
        // A displaced worker that left is parked, never a spare again.
        spares.retain(|s| !evicted.contains(s));
    };

    // Every worker is active, spare or parked: stop them all.
    for control in controls {
        control.send(Directive::Stop).expect("worker alive");
    }
    (iterations_run, events, placement, rounds, truncated)
}

/// Applies a batch of exchanges: wires the activation rendezvous (each
/// incoming process pauses `pause` wall seconds), updates the placement
/// and spare pool, and releases the untouched active workers with
/// `Continue`.
fn enact(
    exchanges: &[SwapEvent],
    pause: f64,
    placement: &mut [usize],
    spares: &mut Vec<usize>,
    controls: &[Sender<Directive>],
) {
    let mut swapped = vec![false; placement.len()];
    for ex in exchanges {
        let (atx, arx) = channel::<Activation>();
        controls[ex.to_worker]
            .send(Directive::Activate { from: arx })
            .expect("spare alive");
        controls[ex.from_worker]
            .send(Directive::SwapOut {
                to: atx,
                pause_secs: pause,
            })
            .expect("active worker alive");
        placement[ex.slot] = ex.to_worker;
        spares.retain(|&w| w != ex.to_worker);
        spares.push(ex.from_worker);
        swapped[ex.slot] = true;
    }
    for (slot, &w) in placement.iter().enumerate() {
        if !swapped[slot] {
            controls[w]
                .send(Directive::Continue)
                .expect("active worker alive");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::testapps::{SpinApp, SumApp};

    #[test]
    fn runs_to_iteration_cap_without_spares() {
        let report = run_iterative(RuntimeConfig::new(3, 3, 7), SumApp);
        assert_eq!(report.iterations_run, 7);
        assert_eq!(report.swap_count(), 0);
        // Each iteration adds 1+2+3 = 6 to every slot's total.
        for s in &report.final_states {
            assert!((s.total - 42.0).abs() < 1e-12);
        }
        assert_eq!(report.final_placement, vec![0, 1, 2]);
    }

    #[test]
    fn forced_swaps_do_not_change_results() {
        let baseline = run_iterative(RuntimeConfig::new(2, 2, 8), SumApp);
        let mut cfg = RuntimeConfig::new(5, 2, 8);
        cfg.decider = Decider::ForceEvery(2);
        let swapped = run_iterative(cfg, SumApp);
        assert!(swapped.swap_count() >= 3, "swaps: {}", swapped.swap_count());
        assert_eq!(swapped.iterations_run, baseline.iterations_run);
        for (a, b) in baseline.final_states.iter().zip(&swapped.final_states) {
            assert_eq!(a.total, b.total, "swap changed the numerical result");
        }
        // The placement actually moved.
        assert_ne!(swapped.final_placement, vec![0, 1]);
    }

    #[test]
    fn forced_swaps_preserve_spin_state_continuity() {
        let mut cfg = RuntimeConfig::new(4, 2, 6);
        cfg.decider = Decider::ForceEvery(1); // swap a slot after every iteration
        let report = run_iterative(cfg, SpinApp { spin_ms: 1 });
        assert_eq!(report.iterations_run, 6);
        for s in &report.final_states {
            assert_eq!(s.iters_done, 6, "lost iterations across swaps");
        }
        assert!(report.swap_count() >= 5);
    }

    #[test]
    fn policy_swaps_off_a_loaded_worker() {
        use loadmodel::LoadTrace;
        // Worker 1 is crushed by 4 competitors from the start; workers 2
        // and 3 are idle spares. Greedy must move slot 1 off worker 1.
        let loaded = LoadTrace::from_intervals([(0.0, 1e9), (0.0, 1e9), (0.0, 1e9), (0.0, 1e9)]);
        let mut cfg = RuntimeConfig::new(4, 2, 8);
        cfg.decider = Decider::Policy(PolicyParams::greedy());
        cfg.loads = vec![
            LoadTrace::unloaded(),
            loaded,
            LoadTrace::unloaded(),
            LoadTrace::unloaded(),
        ];
        cfg.compression = 1000.0;
        cfg.cost = SwapCost::new(0.0, 1e12); // negligible virtual swap cost
        let report = run_iterative(cfg, SpinApp { spin_ms: 4 });
        assert!(
            report.swap_count() >= 1,
            "greedy never swapped off the loaded worker"
        );
        assert_ne!(
            report.final_placement[1], 1,
            "slot 1 still on the loaded worker"
        );
        for s in &report.final_states {
            assert_eq!(s.iters_done, 8);
        }
    }

    #[test]
    fn never_decider_stays_put_under_load() {
        use loadmodel::LoadTrace;
        let mut cfg = RuntimeConfig::new(3, 2, 4);
        cfg.loads = vec![
            LoadTrace::unloaded(),
            LoadTrace::from_intervals([(0.0, 1e9)]),
            LoadTrace::unloaded(),
        ];
        cfg.compression = 1000.0;
        let report = run_iterative(cfg, SpinApp { spin_ms: 1 });
        assert_eq!(report.swap_count(), 0);
        assert_eq!(report.final_placement, vec![0, 1]);
    }

    #[test]
    fn convergence_stops_early() {
        struct Converges;
        impl IterativeApp for Converges {
            type State = usize;
            fn init(&self, _s: usize, _n: usize) -> usize {
                0
            }
            fn iterate(&self, _i: usize, state: &mut usize, comm: &mut SlotComm) {
                *state += 1;
                comm.barrier();
            }
            fn converged(&self, _iter: usize, state: &usize) -> bool {
                *state >= 3
            }
        }
        let report = run_iterative(RuntimeConfig::new(2, 2, 100), Converges);
        assert_eq!(report.iterations_run, 3);
        assert!(report.final_states.iter().all(|&s| s == 3));
    }

    #[test]
    #[should_panic(expected = "n_workers")]
    fn rejects_underallocation() {
        RuntimeConfig::new(1, 2, 5).validate();
    }

    #[test]
    fn traced_run_captures_decisions_swaps_and_communication() {
        use loadmodel::LoadTrace;
        let loaded = LoadTrace::from_intervals([(0.0, 1e9), (0.0, 1e9), (0.0, 1e9), (0.0, 1e9)]);
        let mut cfg = RuntimeConfig::new(4, 2, 8);
        cfg.decider = Decider::Policy(PolicyParams::greedy());
        cfg.loads = vec![
            LoadTrace::unloaded(),
            loaded,
            LoadTrace::unloaded(),
            LoadTrace::unloaded(),
        ];
        cfg.compression = 1000.0;
        cfg.cost = SwapCost::new(0.0, 1e12);
        let (sink, collector) = obs::SharedSink::collector();
        cfg.trace = Some(sink);
        let report = run_iterative(cfg, SpinApp { spin_ms: 4 });
        assert!(report.swap_count() >= 1);

        let trace = std::sync::Arc::try_unwrap(collector)
            .expect("all sink handles dropped after the run")
            .into_trace();
        let count = |kind: &str| trace.events.iter().filter(|e| e.kind() == kind).count();
        // One IterEnd per round, one SwapDecision per non-final round.
        assert_eq!(count("iter_end"), report.iterations_run);
        assert_eq!(count("swap_decision"), report.iterations_run - 1);
        // Every logged swap appears as a SwapExec with matching endpoints.
        assert_eq!(count("swap_exec"), report.swap_count());
        for ev in &report.swap_events {
            assert!(
                trace.events.iter().any(|e| matches!(
                    e,
                    obs::TraceEvent::SwapExec { iter, from, to, .. }
                        if *iter == ev.iter - 1 && *from == ev.from_worker && *to == ev.to_worker
                )),
                "swap {ev:?} missing from trace"
            );
        }
        // SpinApp's allreduce shows up as collective spans (outermost
        // only — the nested gather/broadcast layers stay silent), and
        // probes never appear (their reply order is nondeterministic).
        assert!(count("collective") > 0);
        assert_eq!(count("probe"), 0);
        // Timestamps are in virtual time, monotone per emission thread
        // overall bounded by the (compressed) run duration.
        let horizon = report.wall_time.as_secs_f64() * 1000.0;
        assert!(trace.events.iter().all(|e| e.time() <= horizon + 1.0));
    }

    #[test]
    fn rounds_record_timings_and_placements() {
        let mut cfg = RuntimeConfig::new(3, 2, 5);
        cfg.decider = Decider::ForceEvery(2);
        let report = run_iterative(cfg, SpinApp { spin_ms: 2 });
        assert_eq!(report.rounds.len(), 5);
        for (i, r) in report.rounds.iter().enumerate() {
            assert_eq!(r.iter, i + 1);
            assert!(r.max_iter_secs > 0.0);
            assert_eq!(r.placement.len(), 2);
        }
        // Placement recorded for the round during which each swap's source
        // worker was still active.
        for e in &report.swap_events {
            let round = &report.rounds[e.iter - 1];
            assert_eq!(round.placement[e.slot], e.from_worker);
        }
        assert!(report.mean_iteration_secs() >= 0.002);
    }

    #[test]
    fn eviction_migrates_the_victim_and_preserves_results() {
        let baseline = run_iterative(RuntimeConfig::new(2, 2, 8), SumApp);
        let mut cfg = RuntimeConfig::new(4, 2, 8);
        cfg.evictions = vec![(3, 0)]; // owner reclaims worker 0 after iter 3
        let evicted = run_iterative(cfg, SumApp);
        assert_eq!(evicted.swap_count(), 1);
        let e = &evicted.swap_events[0];
        assert_eq!((e.iter, e.from_worker), (3, 0));
        assert_ne!(evicted.final_placement[0], 0, "victim still active");
        // Reclamation is transparent to the computation.
        for (a, b) in baseline.final_states.iter().zip(&evicted.final_states) {
            assert_eq!(a.total, b.total);
        }
    }

    #[test]
    fn evicted_spare_is_never_chosen_as_swap_target() {
        let mut cfg = RuntimeConfig::new(4, 2, 10);
        // Evict both spares early, then force swaps every iteration: with
        // no eligible spare the ForceEvery decider must no-op rather than
        // hand a slot to a reclaimed worker.
        cfg.evictions = vec![(1, 2), (1, 3)];
        cfg.decider = Decider::ForceEvery(1);
        let report = run_iterative(cfg, SumApp);
        assert_eq!(report.swap_count(), 0, "swapped onto an evicted worker");
        assert_eq!(report.final_placement, vec![0, 1]);
    }

    #[test]
    fn eviction_of_active_with_load_keeps_iterating() {
        let mut cfg = RuntimeConfig::new(3, 2, 6);
        cfg.evictions = vec![(2, 1)];
        let report = run_iterative(cfg, SpinApp { spin_ms: 1 });
        assert_eq!(report.iterations_run, 6);
        for s in &report.final_states {
            assert_eq!(s.iters_done, 6);
        }
        assert_eq!(report.final_placement[1], 2);
    }

    #[test]
    fn crash_migrates_the_slot_and_preserves_results() {
        let baseline = run_iterative(RuntimeConfig::new(2, 2, 8), SumApp);
        let mut cfg = RuntimeConfig::new(4, 2, 8);
        cfg.crashes = vec![(3, 0)]; // worker 0 dies after iter 3
        let crashed = run_iterative(cfg, SumApp);
        assert_eq!(crashed.swap_count(), 1);
        let e = &crashed.swap_events[0];
        assert_eq!((e.iter, e.from_worker), (3, 0));
        assert_ne!(crashed.final_placement[0], 0, "dead worker still active");
        // Recovery restores the registered snapshot: the computation is
        // numerically unaffected by the crash.
        for (a, b) in baseline.final_states.iter().zip(&crashed.final_states) {
            assert_eq!(a.total, b.total);
        }
    }

    #[test]
    fn crashed_spare_is_never_chosen_as_swap_target() {
        let mut cfg = RuntimeConfig::new(4, 2, 10);
        // Both spares die early, then swaps are forced every iteration:
        // the decider must no-op rather than activate a dead worker.
        cfg.crashes = vec![(1, 2), (1, 3)];
        cfg.decider = Decider::ForceEvery(1);
        let report = run_iterative(cfg, SumApp);
        assert_eq!(report.swap_count(), 0, "swapped onto a crashed worker");
        assert_eq!(report.final_placement, vec![0, 1]);
    }

    #[test]
    fn traced_crash_emits_fault_detection_and_recovery_events() {
        let mut cfg = RuntimeConfig::new(4, 2, 6);
        cfg.crashes = vec![(2, 1)];
        let (sink, collector) = obs::SharedSink::collector();
        cfg.trace = Some(sink);
        let report = run_iterative(cfg, SpinApp { spin_ms: 1 });
        assert_eq!(report.swap_count(), 1);

        let trace = std::sync::Arc::try_unwrap(collector)
            .expect("all sink handles dropped after the run")
            .into_trace();
        let count = |kind: &str| trace.events.iter().filter(|e| e.kind() == kind).count();
        assert_eq!(count("fault_injected"), 1);
        assert_eq!(count("failure_detected"), 1);
        assert_eq!(count("recovery_complete"), 1);
        assert!(trace.events.iter().any(|e| matches!(
            e,
            obs::TraceEvent::FailureDetected {
                host: 1,
                cause: obs::FailureCause::InjectedCrash,
                ..
            }
        )));
        assert!(trace.events.iter().any(|e| matches!(
            e,
            obs::TraceEvent::RecoveryComplete {
                host: 1,
                replacement: Some(_),
                action: obs::RecoveryAction::SpareSwap,
                ..
            }
        )));
        // The audit log reads the crash as a fault, not an owner action.
        let mut bundle = obs::TraceBundle::new();
        bundle.push("crash", 0, trace);
        let audit = obs::audit::render(&bundle);
        assert!(audit.contains("(injected crash)"), "audit:\n{audit}");
    }

    #[test]
    fn traced_app_panic_leaves_a_failure_record() {
        struct Bomb;
        impl IterativeApp for Bomb {
            type State = u8;
            fn init(&self, _s: usize, _n: usize) -> u8 {
                0
            }
            fn iterate(&self, iter: usize, _state: &mut u8, comm: &mut SlotComm) {
                if iter == 2 && comm.rank() == 0 {
                    panic!("boom at iteration 2");
                }
            }
        }
        let (sink, collector) = obs::SharedSink::collector();
        let mut cfg = RuntimeConfig::new(2, 2, 10);
        cfg.trace = Some(sink);
        let run =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_iterative(cfg, Bomb)));
        assert!(run.is_err(), "panic must still abort the run");
        // Workers may not have unwound yet, so snapshot instead of
        // unwrapping the collector.
        let trace = collector.snapshot();
        let panics: Vec<_> = trace
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    obs::TraceEvent::FailureDetected {
                        cause: obs::FailureCause::AppPanic,
                        detail: Some(d),
                        ..
                    } if d.contains("boom")
                )
            })
            .collect();
        assert_eq!(panics.len(), 1, "events: {:?}", trace.events);
        let mut bundle = obs::TraceBundle::new();
        bundle.push("panic", 0, trace);
        let audit = obs::audit::render(&bundle);
        assert!(audit.contains("application panic: boom"), "audit:\n{audit}");
    }

    #[test]
    fn crash_and_eviction_in_the_same_round_both_move() {
        let baseline = run_iterative(RuntimeConfig::new(2, 2, 8), SumApp);
        let mut cfg = RuntimeConfig::new(5, 2, 8);
        cfg.crashes = vec![(3, 0)];
        cfg.evictions = vec![(3, 1)];
        let report = run_iterative(cfg, SumApp);
        let moved: Vec<usize> = report
            .swap_events
            .iter()
            .filter(|e| e.iter == 3)
            .map(|e| e.from_worker)
            .collect();
        assert_eq!(moved, vec![0, 1], "swaps: {:?}", report.swap_events);
        assert!(
            !report.final_placement.contains(&0) && !report.final_placement.contains(&1),
            "a departed worker still holds a slot: {:?}",
            report.final_placement
        );
        assert!(!report.truncated);
        for (a, b) in baseline.final_states.iter().zip(&report.final_states) {
            assert_eq!(a.total, b.total);
        }
    }

    #[test]
    fn a_spare_dying_in_the_same_round_is_never_the_replacement() {
        // On a tie the lower id is the best spare: worker 2, which dies
        // in the round that needs a replacement for worker 0.
        let mut cfg = RuntimeConfig::new(4, 2, 8);
        cfg.crashes = vec![(3, 0), (3, 2)];
        let report = run_iterative(cfg, SumApp);
        assert!(!report.truncated);
        assert_eq!(report.swap_count(), 1);
        assert_eq!(report.final_placement, vec![3, 1]);
    }

    #[test]
    fn crash_without_spares_truncates_the_run() {
        let mut cfg = RuntimeConfig::new(2, 2, 5);
        cfg.crashes = vec![(2, 0)];
        let (sink, collector) = obs::SharedSink::collector();
        cfg.trace = Some(sink);
        let report = run_iterative(cfg, SumApp);
        assert!(report.truncated);
        assert_eq!(report.iterations_run, 2);
        assert_eq!(report.swap_count(), 0);
        assert_eq!(report.final_placement, vec![0, 1]);
        // Each slot's state at the detection barrier: two rounds of 1 + 2.
        assert!(report.final_states.iter().all(|s| s.total == 6.0));

        let trace = std::sync::Arc::try_unwrap(collector)
            .expect("all sink handles dropped after the run")
            .into_trace();
        assert!(trace.events.iter().any(|e| matches!(
            e,
            obs::TraceEvent::FailureDetected {
                host: 0,
                cause: obs::FailureCause::InjectedCrash,
                ..
            }
        )));
        assert!(!trace
            .events
            .iter()
            .any(|e| matches!(e, obs::TraceEvent::RecoveryComplete { host: 0, .. })));
    }

    #[test]
    #[should_panic(expected = "unknown worker")]
    fn crash_of_unknown_worker_rejected() {
        let mut cfg = RuntimeConfig::new(2, 2, 5);
        cfg.crashes = vec![(1, 9)];
        cfg.validate();
    }

    #[test]
    fn charged_swap_costs_slow_the_run_measurably() {
        // Virtual state of 60 MB over the 6 MB/s link = 10 virtual
        // seconds per swap = 10 ms wall at 1000x compression. Forcing a
        // swap after each of the first 7 of 8 iterations charges 7
        // pauses, each slept by the incoming process on its round's
        // critical path.
        let cost = SwapCost::new(1e-4, 6e6);
        let swap_secs = cost.swap_time(6e7);
        let run = |charge_swap_cost: bool| {
            let mut cfg = RuntimeConfig::new(4, 2, 8);
            cfg.decider = Decider::ForceEvery(1);
            cfg.compression = 1000.0;
            cfg.cost = cost;
            cfg.state_size_override = Some(6e7);
            cfg.charge_swap_cost = charge_swap_cost;
            let (sink, collector) = obs::SharedSink::collector();
            cfg.trace = Some(sink);
            let report = run_iterative(cfg, SpinApp { spin_ms: 1 });
            let trace = std::sync::Arc::try_unwrap(collector)
                .expect("all sink handles dropped after the run")
                .into_trace();
            let transfers: Vec<f64> = trace
                .events
                .iter()
                .filter_map(|e| match e {
                    obs::TraceEvent::SwapExec { transfer_secs, .. } => Some(*transfer_secs),
                    _ => None,
                })
                .collect();
            (report, transfers)
        };

        let (free_run, free) = run(false);
        let (paid_run, paid) = run(true);
        // SpinApp's numeric state is wall-clock dependent; compare the
        // structural outcome only.
        for r in [&free_run, &paid_run] {
            assert!(r.final_states.iter().all(|s| s.iters_done == 8));
            assert_eq!(r.swap_count(), 7);
        }
        assert_eq!(free, [0.0; 7], "a free swap transfers in no time");
        assert_eq!(paid, [swap_secs; 7], "a charged swap pays the link");
        // Sleeps never end early, so the bound holds on any host.
        let floor = 7.0 * swap_secs / 1000.0;
        let wall = paid_run.wall_time.as_secs_f64();
        assert!(
            wall >= floor,
            "7 charged swaps of {swap_secs} s at 1000x took only {wall:.4} s of wall time"
        );
    }

    #[test]
    fn state_size_override_feeds_the_payback_gate() {
        use loadmodel::LoadTrace;
        // With a (virtual) 1 GB state and ~60 s virtual iterations, the
        // safe policy's 0.5-iteration payback threshold can never be met:
        // swap time ~ 167 s >> 30 s. No swaps despite heavy load.
        let crushed = || LoadTrace::from_intervals([(0.0, 1e9); 4]);
        let make = |state: f64| {
            let mut cfg = RuntimeConfig::new(4, 2, 8);
            cfg.decider = Decider::Policy(PolicyParams::safe());
            cfg.loads = vec![
                LoadTrace::unloaded(),
                crushed(),
                LoadTrace::unloaded(),
                LoadTrace::unloaded(),
            ];
            cfg.compression = 1000.0;
            cfg.cost = SwapCost::new(1e-4, 6e6);
            cfg.state_size_override = Some(state);
            cfg
        };
        let big = run_iterative(make(1e9), SpinApp { spin_ms: 4 });
        assert_eq!(
            big.swap_count(),
            0,
            "safe must refuse 1 GB swaps that cannot pay back"
        );
        let small = run_iterative(make(1e6), SpinApp { spin_ms: 4 });
        assert!(small.swap_count() >= 1, "1 MB swap should be taken");
    }

    #[test]
    #[should_panic(expected = "application panicked on slot 1")]
    fn app_panic_aborts_instead_of_hanging() {
        struct Bomb;
        impl IterativeApp for Bomb {
            type State = u8;
            fn init(&self, _s: usize, _n: usize) -> u8 {
                0
            }
            fn iterate(&self, iter: usize, _state: &mut u8, comm: &mut SlotComm) {
                if iter == 2 && comm.rank() == 1 {
                    panic!("boom at iteration 2");
                }
                // No collective here: ranks do not block on the bomb.
            }
        }
        run_iterative(RuntimeConfig::new(2, 2, 10), Bomb);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn app_panic_message_is_forwarded() {
        struct Bomb;
        impl IterativeApp for Bomb {
            type State = u8;
            fn init(&self, _s: usize, _n: usize) -> u8 {
                0
            }
            fn iterate(&self, _iter: usize, _state: &mut u8, _comm: &mut SlotComm) {
                panic!("boom");
            }
        }
        run_iterative(RuntimeConfig::new(1, 1, 3), Bomb);
    }

    #[test]
    fn eviction_without_spares_truncates_the_run() {
        let mut cfg = RuntimeConfig::new(2, 2, 5);
        cfg.evictions = vec![(2, 0)];
        let report = run_iterative(cfg, SumApp);
        assert!(report.truncated);
        assert_eq!(report.iterations_run, 2);
        assert_eq!(report.swap_count(), 0);
        assert_eq!(report.final_placement, vec![0, 1]);
        assert!(report.final_states.iter().all(|s| s.total == 6.0));
    }

    #[test]
    #[should_panic(expected = "unknown worker")]
    fn eviction_of_unknown_worker_rejected() {
        let mut cfg = RuntimeConfig::new(2, 2, 5);
        cfg.evictions = vec![(1, 9)];
        cfg.validate();
    }
}
