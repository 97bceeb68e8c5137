//! The one parallel executor: a persistent worker pool serving one
//! global, priority-ordered work queue, and the maps built on it.
//!
//! A parallel map takes one of three arms:
//!
//! 1. **Installed pool.** [`map_stats_installed`] on a thread with a pool
//!    [`install`]ed submits the batch to that pool's queue. The
//!    cross-figure scheduler in `experiments` runs each figure generator
//!    on its own thread against one shared pool, so all figures' work
//!    items compete for the same workers: the threads are spawned once
//!    per command, and no worker waits at a per-figure barrier.
//! 2. **Per-call pool.** [`map_stats`] with more than one worker (after
//!    clamping to the item count) builds a [`WorkerPool`] for that one
//!    call and drops it before returning. This is the route for
//!    replications and candidate grids that run outside the scheduler.
//! 3. **Serial.** [`map_stats`] with one worker or fewer runs `f` in a
//!    plain loop on the caller's thread, under worker slot 0, and creates
//!    no thread.
//!
//! Determinism is the same on every arm: `f` must be a pure function of
//! `(index, item)` and every result lands in a pre-indexed slot, so the
//! output vector is bit-identical to the serial loop no matter how items
//! interleave with other batches. Only wall-clock and busy-time
//! attribution change.
//!
//! Batches are served lowest `priority` value first (FIFO among equal
//! priorities); items within a batch are claimed in index order. A
//! scheduler that assigns low priority values to its longest figures gets
//! longest-figure-first service, which minimizes the straggler tail.
//!
//! Batches may also be submitted **from a pool worker itself** — the
//! nested seed-level parallelism in the experiment engine fans a cell's
//! replications out from inside a sweep item. A worker that submits a
//! batch to its own pool does not just block on it (with every worker
//! blocked on a nested batch nobody would be left to run one): it
//! *helps*, claiming and running its own batch's unclaimed items until
//! none remain, and only then waits for in-flight stragglers. Progress
//! follows by induction on nesting depth — the deepest batch's items run
//! directly and never submit further.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Resolves a `--jobs` style knob: `0` means "use all available
/// parallelism", anything else is taken literally.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs != 0 {
        return jobs;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

thread_local! {
    static WORKER_SLOT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The caller's worker-slot index when running inside a mapped function:
/// `Some(slot)` on a [`WorkerPool`] worker (installed or per-call) or on
/// the serial arm of [`map_stats`] (slot 0); `None` on ordinary threads.
/// Slots index into [`ParStats::worker_busy_secs`], so per-item
/// instrumentation (e.g. the experiment timing layer) can attribute work
/// to the worker that ran it.
pub fn worker_slot() -> Option<usize> {
    WORKER_SLOT.with(Cell::get)
}

/// Marks the current thread as worker `slot` until the guard drops,
/// restoring whatever was set before (a serial map inside a pool worker
/// must not clobber the pool's slot).
fn enter_worker_slot(slot: usize) -> WorkerSlotGuard {
    let prev = WORKER_SLOT.with(|c| c.replace(Some(slot)));
    WorkerSlotGuard { prev }
}

struct WorkerSlotGuard {
    prev: Option<usize>,
}

impl Drop for WorkerSlotGuard {
    fn drop(&mut self) {
        WORKER_SLOT.with(|c| c.set(self.prev));
    }
}

/// Per-map accounting: how much wall time each worker spent *inside*
/// `f`. Busy time excludes queue overhead and idle tail time, so
/// `sum(busy) / (workers × elapsed)` is a faithful utilization figure and
/// `sum(busy)` is the serial-equivalent compute time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParStats {
    /// One entry per worker of the pool that ran the map (a single entry
    /// for the serial arm), in worker slot order.
    pub worker_busy_secs: Vec<f64>,
}

impl ParStats {
    /// Total time spent inside the mapped function, summed over workers.
    pub fn busy_secs(&self) -> f64 {
        self.worker_busy_secs.iter().sum()
    }
}

/// A type-erased "run item `i` of this batch" function. The referent
/// lives on the submitting thread's stack; see the safety contract in
/// [`WorkerPool::map_stats`].
type RunFn = &'static (dyn Fn(usize) + Sync);

/// Completion hand-off between a batch's submitter and the workers.
#[derive(Default)]
struct BatchDone {
    finished: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// One live batch; all mutable fields are guarded by the pool's state
/// mutex.
struct BatchEntry {
    seq: u64,
    priority: u64,
    len: usize,
    /// Next unclaimed item index (`len` once exhausted or cancelled).
    next: usize,
    /// Items currently executing on workers.
    inflight: usize,
    run: RunFn,
    done: Arc<BatchDone>,
}

struct State {
    queue: Vec<BatchEntry>,
    next_seq: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers: new work or shutdown.
    work_cv: Condvar,
    /// Signals submitters: a batch may have completed.
    done_cv: Condvar,
}

/// A persistent pool of worker threads with a shared, priority-ordered
/// work queue. Create once, submit many batches (from any number of
/// threads), drop to shut down.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns `effective_jobs(jobs)` workers (`0` = all available
    /// parallelism). The workers live until the pool is dropped.
    pub fn new(jobs: usize) -> Self {
        let workers = effective_jobs(jobs);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: Vec::new(),
                next_seq: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pool-worker-{slot}"))
                    .spawn(move || worker_loop(&shared, slot))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
        }
    }

    /// Number of worker threads this pool spawned.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items` on the pool's workers, returning results in
    /// item order plus per-worker busy time ([`ParStats`], one entry per
    /// pool worker — idle workers report `0.0`). Blocks the calling
    /// thread until the batch completes; the workers meanwhile also serve
    /// any other batch in the queue, lowest `priority` first.
    ///
    /// `f` receives `(index, &item)` and must be a pure function of them
    /// for the determinism guarantee to hold.
    ///
    /// May be called from one of this pool's own workers (a nested
    /// batch): the calling worker then helps run its batch's items
    /// instead of only blocking, so nested submissions cannot deadlock
    /// the pool even when every worker nests at once.
    ///
    /// # Panics
    /// Propagates the first panic raised by `f` (remaining unclaimed
    /// items of the batch are cancelled).
    pub fn map_stats<T, R, F>(&self, priority: u64, items: &[T], f: F) -> (Vec<R>, ParStats)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return (
                Vec::new(),
                ParStats {
                    worker_busy_secs: vec![0.0; self.workers],
                },
            );
        }

        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let busy: Vec<Mutex<f64>> = (0..self.workers).map(|_| Mutex::new(0.0)).collect();
        let run = |i: usize| {
            let slot = worker_slot().expect("pool workers carry a slot");
            let t0 = Instant::now();
            let out = f(i, &items[i]);
            let secs = t0.elapsed().as_secs_f64();
            *busy[slot].lock().expect("busy slot lock") += secs;
            *slots[i].lock().expect("result slot lock") = Some(out);
        };
        let run_ref: &(dyn Fn(usize) + Sync) = &run;
        // SAFETY: the queue entry holds this reference only until the
        // batch completes (every claimed item finished and no item left
        // to claim), the completing worker removes the entry before
        // signalling, and this function does not return — normally or by
        // unwinding — until `done.finished` is set. The referent
        // (`run`, and transitively `items`, `f`, `slots`, `busy`)
        // therefore outlives every use from the worker threads.
        let run_static: RunFn = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(run_ref)
        };

        let done = Arc::new(BatchDone::default());
        let seq = {
            let mut st = self.shared.state.lock().expect("pool state lock");
            assert!(!st.shutdown, "WorkerPool used after shutdown");
            let seq = st.next_seq;
            st.next_seq += 1;
            st.queue.push(BatchEntry {
                seq,
                priority,
                len: n,
                next: 0,
                inflight: 0,
                run: run_static,
                done: Arc::clone(&done),
            });
            self.shared.work_cv.notify_all();
            seq
        };
        // A pool worker submitting to its own pool helps drain its own
        // batch before waiting: claim-run-finish exactly as the worker
        // loop would, but restricted to this batch so the helper cannot
        // wander off onto an unrelated long item while its own batch is
        // done. Busy time lands in the helper's regular slot via `run`.
        if WORKER_OF.with(Cell::get) == Arc::as_ptr(&self.shared) as usize {
            loop {
                let item = {
                    let mut st = self.shared.state.lock().expect("pool state lock");
                    match st.queue.iter_mut().find(|e| e.seq == seq && e.next < e.len) {
                        Some(e) => {
                            let item = e.next;
                            e.next += 1;
                            e.inflight += 1;
                            item
                        }
                        None => break,
                    }
                };
                let result = catch_unwind(AssertUnwindSafe(|| run_ref(item)));
                finish_item(&self.shared, seq, result);
            }
        }
        {
            let mut st = self.shared.state.lock().expect("pool state lock");
            while !done.finished.load(Ordering::Acquire) {
                st = self.shared.done_cv.wait(st).expect("pool done wait");
            }
        }
        if let Some(payload) = done.panic.lock().expect("panic slot lock").take() {
            resume_unwind(payload);
        }

        let out = slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot lock")
                    .expect("worker completed every item")
            })
            .collect();
        let stats = ParStats {
            worker_busy_secs: busy
                .into_iter()
                .map(|m| m.into_inner().expect("busy slot lock"))
                .collect(),
        };
        (out, stats)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state lock");
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Index of the open batch a worker should serve next: lowest priority
/// value, then submission order.
fn best_open_batch(st: &State) -> Option<usize> {
    st.queue
        .iter()
        .enumerate()
        .filter(|(_, e)| e.next < e.len)
        .min_by_key(|(_, e)| (e.priority, e.seq))
        .map(|(i, _)| i)
}

/// Books one finished item back into its batch: decrements the in-flight
/// count, captures a panic (cancelling the batch's unclaimed items), and
/// — when this was the batch's last item — marks the batch finished,
/// removes it from the queue and wakes its submitter. Shared between the
/// worker loop and the submitter-helping path in
/// [`WorkerPool::map_stats`].
fn finish_item(shared: &Shared, seq: u64, result: Result<(), Box<dyn Any + Send>>) {
    let mut st = shared.state.lock().expect("pool state lock");
    let idx = st
        .queue
        .iter()
        .position(|e| e.seq == seq)
        .expect("batch entry stays queued while items are in flight");
    let e = &mut st.queue[idx];
    e.inflight -= 1;
    if let Err(payload) = result {
        let mut p = e.done.panic.lock().expect("panic slot lock");
        if p.is_none() {
            *p = Some(payload);
        }
        // Cancel the batch's unclaimed items; in-flight ones finish.
        e.next = e.len;
    }
    if e.next >= e.len && e.inflight == 0 {
        e.done.finished.store(true, Ordering::Release);
        st.queue.remove(idx);
        shared.done_cv.notify_all();
    }
}

thread_local! {
    /// Identity (shared-state address) of the pool this thread is a
    /// worker of; `0` on non-worker threads. Lets [`WorkerPool::map_stats`]
    /// recognize a nested submission to the caller's own pool.
    static WORKER_OF: Cell<usize> = const { Cell::new(0) };
}

fn worker_loop(shared: &Arc<Shared>, slot: usize) {
    let _slot = enter_worker_slot(slot);
    WORKER_OF.with(|c| c.set(Arc::as_ptr(shared) as usize));
    loop {
        let (seq, run, item) = {
            let mut st = shared.state.lock().expect("pool state lock");
            loop {
                if let Some(idx) = best_open_batch(&st) {
                    let e = &mut st.queue[idx];
                    let item = e.next;
                    e.next += 1;
                    e.inflight += 1;
                    break (e.seq, e.run, item);
                }
                if st.shutdown {
                    return;
                }
                st = shared.work_cv.wait(st).expect("pool work wait");
            }
        };

        let result = catch_unwind(AssertUnwindSafe(|| run(item)));
        finish_item(shared, seq, result);
    }
}

// ---------------------------------------------------------------------
// Thread-local pool installation
// ---------------------------------------------------------------------

thread_local! {
    static INSTALLED: RefCell<Vec<(Arc<WorkerPool>, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Guard returned by [`install`]; uninstalls the pool from the current
/// thread when dropped.
pub struct InstallGuard {
    _priv: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALLED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Installs `pool` (with the given batch priority) as the current
/// thread's pool until the guard drops. While installed,
/// [`map_stats_installed`] routes work to this pool instead of building
/// a per-call one, which is how the sweep engine picks up the
/// cross-figure queue without threading a pool parameter through every
/// figure generator. Installations nest; the innermost wins.
pub fn install(pool: &Arc<WorkerPool>, priority: u64) -> InstallGuard {
    INSTALLED.with(|s| s.borrow_mut().push((Arc::clone(pool), priority)));
    InstallGuard { _priv: () }
}

/// The pool installed on the current thread, if any, with its priority.
pub fn installed() -> Option<(Arc<WorkerPool>, u64)> {
    INSTALLED.with(|s| s.borrow().last().cloned())
}

/// Maps `f` over `items` with up to `jobs` workers (`0` = all available
/// parallelism), returning results in item order plus per-worker busy
/// time. An installed pool is ignored.
///
/// `f` receives `(index, &item)` and must be a pure function of them for
/// the determinism guarantee to hold — it is invoked exactly once per
/// item, but in an unspecified order and from unspecified threads.
///
/// `jobs` is clamped to the item count. At one worker or fewer, `f` runs
/// in a plain loop on the caller's thread under worker slot 0, with one
/// busy entry and no thread created, so `map_stats(.., 1, f)` is exactly
/// the serial loop. Otherwise the batch runs on a [`WorkerPool`] built
/// for this call and dropped before returning.
///
/// # Panics
/// Propagates the first panic raised by `f`.
pub fn map_stats<T, R, F>(items: &[T], jobs: usize, f: F) -> (Vec<R>, ParStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len().max(1));
    if jobs > 1 {
        return WorkerPool::new(jobs).map_stats(0, items, f);
    }
    let _slot = enter_worker_slot(0);
    let t0 = Instant::now();
    let out = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    let stats = ParStats {
        worker_busy_secs: vec![t0.elapsed().as_secs_f64()],
    };
    (out, stats)
}

/// Maps `f` over `items` on the thread's installed pool, or falls back
/// to [`map_stats`] with `jobs` workers when no pool is installed.
/// Results are bit-identical either way; only scheduling and the
/// busy-time attribution (installed pool's workers vs the per-call
/// ones) differ.
pub fn map_stats_installed<T, R, F>(items: &[T], jobs: usize, f: F) -> (Vec<R>, ParStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match installed() {
        Some((pool, priority)) => pool.map_stats(priority, items, f),
        None => map_stats(items, jobs, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn matches_serial_map_exactly() {
        let pool = WorkerPool::new(3);
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for _ in 0..3 {
            let (out, stats) = pool.map_stats(0, &items, |_, &x| x * x + 1);
            assert_eq!(out, serial);
            assert_eq!(stats.worker_busy_secs.len(), 3);
        }
    }

    #[test]
    fn per_call_map_matches_serial_map_exactly() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for jobs in [0, 1, 2, 3, 7, 64] {
            let (out, _) = map_stats(&items, jobs, |_, &x| x * x + 1);
            assert_eq!(out, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let pool = WorkerPool::new(2);
        let (out, stats) = pool.map_stats(0, &[] as &[u8], |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(stats.worker_busy_secs, vec![0.0, 0.0]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let (out, _) = map_stats(&[] as &[u8], 4, |_, _| 7u32);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_index_order_under_uneven_costs() {
        let items: Vec<usize> = (0..32).collect();
        let (out, _) = map_stats(&items, 4, |i, _| {
            // Make early items the slowest so completion order inverts
            // submission order.
            std::thread::sleep(std::time::Duration::from_micros(
                (items.len() - i) as u64 * 50,
            ));
            i
        });
        assert_eq!(out, items);
    }

    #[test]
    fn effective_jobs_resolves_zero_to_at_least_one() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(5), 5);
    }

    #[test]
    fn stats_report_one_busy_entry_per_worker() {
        let items: Vec<u64> = (0..16).collect();
        let (out, stats) = map_stats(&items, 4, |_, &x| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            x
        });
        assert_eq!(out, items);
        assert_eq!(stats.worker_busy_secs.len(), 4);
        // Every item slept inside f, so total busy covers 16 × 200 µs.
        assert!(stats.busy_secs() >= 16.0 * 200e-6, "{stats:?}");
        assert!(stats.worker_busy_secs.iter().all(|&b| b >= 0.0));
    }

    #[test]
    fn serial_path_reports_a_single_worker() {
        let items = [1u8, 2, 3];
        let (_, stats) = map_stats(&items, 1, |_, &x| x);
        assert_eq!(stats.worker_busy_secs.len(), 1);
        let (_, stats) = map_stats(&[] as &[u8], 4, |_, &x| x);
        assert_eq!(stats.worker_busy_secs.len(), 1);
    }

    #[test]
    fn serial_arm_runs_on_the_callers_thread_under_slot_zero() {
        // Callers that must stay on one thread (a benchmark that counts
        // its threads, say) rely on this arm spawning nothing.
        let caller = std::thread::current().id();
        let ran_on = |items: &[u8], jobs: usize| {
            let (seen, stats) = map_stats(items, jobs, |_, _| {
                (std::thread::current().id(), worker_slot())
            });
            assert_eq!(stats.worker_busy_secs.len(), 1, "jobs {jobs}");
            assert_eq!(worker_slot(), None, "jobs {jobs}: slot not restored");
            seen
        };
        assert_eq!(worker_slot(), None);
        assert_eq!(ran_on(&[1, 2, 3], 1), vec![(caller, Some(0)); 3]);
        assert_eq!(ran_on(&[1], 8), vec![(caller, Some(0))]);
        assert!(ran_on(&[], 8).is_empty());
    }

    #[test]
    fn worker_slot_is_visible_inside_f_and_cleared_outside() {
        assert_eq!(worker_slot(), None);
        let items: Vec<usize> = (0..8).collect();
        // Serial arm: slot 0.
        let (slots, _) = map_stats(&items, 1, |_, _| worker_slot());
        assert!(slots.iter().all(|&s| s == Some(0)));
        assert_eq!(worker_slot(), None, "serial arm must restore the slot");
        // Per-call pool: slots index its workers.
        let (slots, stats) = map_stats(&items, 3, |_, _| {
            std::thread::sleep(std::time::Duration::from_micros(100));
            worker_slot().expect("inside a worker")
        });
        assert!(slots.iter().all(|&s| s < stats.worker_busy_secs.len()));
        assert_eq!(worker_slot(), None);
    }

    #[test]
    fn concurrent_batches_share_the_workers_and_stay_ordered() {
        let pool = Arc::new(WorkerPool::new(4));
        let outs: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|b| {
                    let pool = Arc::clone(&pool);
                    s.spawn(move || {
                        let items: Vec<usize> = (0..32).collect();
                        pool.map_stats(b as u64, &items, |i, _| {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                            i + 1000 * b
                        })
                        .0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (b, out) in outs.iter().enumerate() {
            let expect: Vec<usize> = (0..32).map(|i| i + 1000 * b).collect();
            assert_eq!(out, &expect, "batch {b}");
        }
    }

    #[test]
    fn lower_priority_value_runs_first() {
        // One worker; a held gate item lets us queue two batches, then
        // observe which one the worker picks after the gate clears.
        let pool = Arc::new(WorkerPool::new(1));
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        std::thread::scope(|s| {
            let gate = {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    pool.map_stats(0, &[0u8], |_, _| {
                        std::thread::sleep(std::time::Duration::from_millis(100));
                    })
                })
            };
            std::thread::sleep(std::time::Duration::from_millis(20));
            let lo = {
                let (pool, order) = (Arc::clone(&pool), Arc::clone(&order));
                s.spawn(move || pool.map_stats(5, &[0u8], |_, _| order.lock().unwrap().push("lo")))
            };
            std::thread::sleep(std::time::Duration::from_millis(20));
            let hi = {
                let (pool, order) = (Arc::clone(&pool), Arc::clone(&order));
                s.spawn(move || pool.map_stats(1, &[0u8], |_, _| order.lock().unwrap().push("hi")))
            };
            gate.join().unwrap();
            lo.join().unwrap();
            hi.join().unwrap();
        });
        // "hi" (priority 1) was submitted later but must run before
        // "lo" (priority 5).
        assert_eq!(*order.lock().unwrap(), vec!["hi", "lo"]);
    }

    #[test]
    fn busy_time_lands_on_the_worker_that_ran_the_item() {
        let pool = WorkerPool::new(2);
        let items: Vec<u64> = (0..8).collect();
        let (_, stats) = pool.map_stats(0, &items, |_, &x| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            x
        });
        assert_eq!(stats.worker_busy_secs.len(), 2);
        assert!(stats.busy_secs() >= 8.0 * 0.005, "{stats:?}");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn item_panic_propagates_to_the_submitter() {
        let pool = WorkerPool::new(2);
        let items: Vec<u32> = (0..16).collect();
        let _ = pool.map_stats(0, &items, |i, _| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        let _ = map_stats(&items, 2, |i, _| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        let pool = Arc::new(WorkerPool::new(2));
        let ran = AtomicUsize::new(0);
        let poisoned = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_stats(0, &[0u8, 1, 2, 3], |i, _| {
                if i == 0 {
                    panic!("first batch dies");
                }
            })
        }));
        assert!(poisoned.is_err());
        let (out, _) = pool.map_stats(0, &[10u32, 20, 30], |_, &x| {
            ran.fetch_add(1, Ordering::Relaxed);
            x * 2
        });
        assert_eq!(out, vec![20, 40, 60]);
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn nested_submission_from_a_worker_completes_by_helping() {
        // Every worker is busy with a top-level item, and every top-level
        // item submits a nested batch to the same pool. Without the
        // submitter-helping path this deadlocks (no worker left to serve
        // the nested batches); with it, each submitter drains its own.
        let pool = Arc::new(WorkerPool::new(2));
        let tops: Vec<usize> = (0..2).collect();
        let inner = Arc::clone(&pool);
        let (out, stats) = pool.map_stats(0, &tops, |_, &t| {
            let items: Vec<usize> = (0..8).collect();
            let (nested, nstats) = inner.map_stats(0, &items, |i, _| i + 100 * t);
            assert_eq!(nstats.worker_busy_secs.len(), 2);
            nested.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..2)
            .map(|t| (0..8).sum::<usize>() + 8 * 100 * t)
            .collect();
        assert_eq!(out, expect);
        assert_eq!(stats.worker_busy_secs.len(), 2);
    }

    #[test]
    fn single_worker_pool_survives_deep_nesting() {
        // One worker: the top-level item's nested submission can only
        // make progress through helping, twice over.
        let pool = Arc::new(WorkerPool::new(1));
        let l1 = Arc::clone(&pool);
        let (out, _) = pool.map_stats(0, &[3u64], |_, &x| {
            let l2 = Arc::clone(&l1);
            let (mid, _) = l1.map_stats(0, &[x, x + 1], |_, &y| {
                let (leaf, _) = l2.map_stats(0, &[y, y * 2], |_, &z| z + 1);
                leaf.iter().sum::<u64>()
            });
            mid.iter().sum::<u64>()
        });
        // y=3: (4 + 7) = 11; y=4: (5 + 9) = 14 → 25.
        assert_eq!(out, vec![25]);
    }

    #[test]
    #[should_panic(expected = "nested boom")]
    fn nested_panic_propagates_through_both_batches() {
        let pool = Arc::new(WorkerPool::new(2));
        let inner = Arc::clone(&pool);
        let _ = pool.map_stats(0, &[0u8], |_, _| {
            let items: Vec<usize> = (0..4).collect();
            let _ = inner.map_stats(0, &items, |i, _| {
                if i == 2 {
                    panic!("nested boom");
                }
            });
        });
    }

    #[test]
    fn install_routes_map_stats_installed_to_the_pool() {
        let items: Vec<u64> = (0..10).collect();
        // Not installed: per-call path clamps workers to items.
        let (out, stats) = map_stats_installed(&items, 3, |_, &x| x + 1);
        assert_eq!(out, (1..=10).collect::<Vec<u64>>());
        assert_eq!(stats.worker_busy_secs.len(), 3);
        // Installed: the pool's worker count shows in the stats.
        let pool = Arc::new(WorkerPool::new(5));
        let guard = install(&pool, 7);
        assert_eq!(installed().map(|(_, p)| p), Some(7));
        let (out, stats) = map_stats_installed(&items, 3, |_, &x| x + 1);
        assert_eq!(out, (1..=10).collect::<Vec<u64>>());
        assert_eq!(stats.worker_busy_secs.len(), 5);
        drop(guard);
        assert!(installed().is_none());
    }
}
