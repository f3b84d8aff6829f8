//! Persistent worker-thread pool for the GEMM engine.
//!
//! The PR 2 kernels split row panels across `std::thread::scope`, which
//! re-pays thread spawn and join on every call — measurable exactly in
//! the small-GEMM regime the decode hot path lives in (one 64³ product
//! is ~100 µs of math but a spawn costs tens of µs per thread). This
//! module replaces per-call spawning with a process-wide pool of parked
//! workers:
//!
//! * Workers are spawned once (lazily, on first parallel call) and then
//!   park on a condvar between jobs — an idle pool costs nothing.
//! * A job is a batch of independent tasks `0..count`; workers and the
//!   submitting thread claim task indices from a shared atomic counter,
//!   so row-panel distribution is dynamic (a slow panel never straggles
//!   behind an idle worker).
//! * The submitting thread participates in its own job, so a pool sized
//!   `n` applies `n` threads of compute with `n − 1` parked workers.
//!
//! Determinism: the pool only changes *which thread* computes a task,
//! never what the task computes. The GEMM kernels assign each output
//! cell to exactly one task and accumulate it in ascending-`k` order, so
//! results are bit-identical to the single-threaded path for every pool
//! size (see [`crate::gemm`] module docs).
//!
//! Sizing follows [`crate::gemm::default_threads`]: the `PDAC_THREADS`
//! environment variable when set, else the machine's available
//! parallelism. With one thread the pool spawns no workers at all and
//! every job runs inline on the caller.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A raw pointer to the job closure with the lifetime erased.
///
/// Safety contract: [`WorkerPool::run`] does not return until every task
/// of the job has finished, so the closure outlives every dereference.
#[derive(Clone, Copy)]
struct ErasedFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are
// allowed) and the submitting thread keeps it alive until the job
// completes, which `run` enforces by blocking.
unsafe impl Send for ErasedFn {}
unsafe impl Sync for ErasedFn {}

/// One in-flight batch of tasks.
#[derive(Clone)]
struct Job {
    f: ErasedFn,
    /// Total task count; indices `0..count` run exactly once each.
    count: usize,
    /// Next unclaimed task index.
    next: Arc<AtomicUsize>,
    /// Completed task count; the job is done when it reaches `count`.
    finished: Arc<AtomicUsize>,
    /// Set when any task panicked (the submitter re-panics).
    panicked: Arc<AtomicBool>,
}

impl Job {
    /// Claims and runs tasks until none remain, then reports how many
    /// this thread completed.
    fn work(&self) -> usize {
        let mut done = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.count {
                return done;
            }
            let f = self.f;
            // SAFETY: `run` keeps the closure alive until `finished`
            // reaches `count`, which cannot happen before this call
            // returns and the increment below lands.
            if catch_unwind(AssertUnwindSafe(|| unsafe { (*f.0)(i) })).is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            self.finished.fetch_add(1, Ordering::Release);
            done += 1;
        }
    }

    fn is_done(&self) -> bool {
        self.finished.load(Ordering::Acquire) >= self.count
    }
}

#[derive(Default)]
struct State {
    /// Jobs with (potentially) unclaimed tasks, oldest first. The
    /// submitter removes its own job after completion, so entries whose
    /// tasks are all claimed are skipped, not popped, by workers.
    jobs: Vec<Job>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Wakes parked workers when a job is submitted (or on shutdown).
    work: Condvar,
    /// Wakes submitters waiting for their job's last task.
    done: Condvar,
}

/// A pool of parked worker threads executing batches of independent
/// tasks (see the module docs for the GEMM use and the determinism
/// argument).
///
/// # Examples
///
/// ```
/// use pdac_math::pool::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = WorkerPool::new(4);
/// let sum = AtomicUsize::new(0);
/// pool.run(10, &|i| {
///     sum.fetch_add(i, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 45);
/// ```
pub struct WorkerPool {
    inner: Arc<Inner>,
    workers: usize,
}

impl WorkerPool {
    /// Creates a pool applying `threads` total threads of compute: the
    /// caller plus `threads − 1` parked workers (`threads <= 1` spawns
    /// nothing and [`Self::run`] executes inline).
    pub fn new(threads: usize) -> Self {
        let workers = threads.saturating_sub(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        for w in 0..workers {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("pdac-pool-{w}"))
                .spawn(move || worker_loop(&inner))
                .expect("spawn pool worker");
        }
        Self { inner, workers }
    }

    /// The process-wide pool, sized by
    /// [`crate::gemm::default_threads`] (so `PDAC_THREADS` is honored)
    /// and created on first use.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(crate::gemm::default_threads()))
    }

    /// Number of parked worker threads (total compute is `workers + 1`:
    /// the submitting thread participates).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `task(i)` for every `i in 0..count`, each exactly once,
    /// distributing indices dynamically over the calling thread and the
    /// pool workers. Returns when every task has finished.
    ///
    /// Tasks must be independent; ordering and thread assignment are
    /// unspecified. Concurrent `run` calls from different threads are
    /// allowed and share the workers.
    ///
    /// # Panics
    ///
    /// Panics if any task panicked (after all tasks have completed, so
    /// no task is left running with dangling borrows).
    pub fn run(&self, count: usize, task: &(dyn Fn(usize) + Sync)) {
        if count == 0 {
            return;
        }
        if self.workers == 0 || count == 1 {
            for i in 0..count {
                task(i);
            }
            return;
        }
        let job = Job {
            f: ErasedFn(unsafe {
                // SAFETY: lifetime erasure only; `run` blocks until the
                // last task finished, so the borrow outlives all use.
                std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                    task as *const _,
                )
            }),
            count,
            next: Arc::new(AtomicUsize::new(0)),
            finished: Arc::new(AtomicUsize::new(0)),
            panicked: Arc::new(AtomicBool::new(false)),
        };
        {
            let mut state = self.inner.state.lock().expect("pool state");
            state.jobs.push(job.clone());
        }
        self.inner.work.notify_all();
        // Participate: the submitting thread is one of the pool's
        // compute threads for its own job.
        job.work();
        if !job.is_done() {
            let mut state = self.inner.state.lock().expect("pool state");
            while !job.is_done() {
                state = self.inner.done.wait(state).expect("pool state");
            }
            drop(state);
        }
        // Remove the exhausted job so the queue stays small.
        {
            let mut state = self.inner.state.lock().expect("pool state");
            state
                .jobs
                .retain(|j| !Arc::ptr_eq(&j.finished, &job.finished));
        }
        assert!(
            !job.panicked.load(Ordering::Acquire),
            "worker pool task panicked"
        );
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().expect("pool state");
        state.shutdown = true;
        drop(state);
        self.inner.work.notify_all();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut state = inner.state.lock().expect("pool state");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(job) = state
                    .jobs
                    .iter()
                    .find(|j| j.next.load(Ordering::Relaxed) < j.count)
                {
                    break job.clone();
                }
                state = inner.work.wait(state).expect("pool state");
            }
        };
        if job.work() > 0 && job.is_done() {
            // This worker may have finished the job's last task; wake
            // any submitter blocked on completion. Lock ordering with
            // the submitter's wait loop prevents a missed wakeup.
            let _guard = inner.state.lock().expect("pool state");
            inner.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        for count in [0usize, 1, 2, 3, 7, 64, 257] {
            let hits: Vec<AtomicUsize> = (0..count).map(|_| AtomicUsize::new(0)).collect();
            pool.run(count, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "count={count}"
            );
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 0);
        let sum = AtomicUsize::new(0);
        pool.run(5, &|i| {
            sum.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 15);
    }

    #[test]
    fn sequential_jobs_reuse_the_same_workers() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.into_inner(), 400);
    }

    #[test]
    fn tasks_can_write_disjoint_output_regions() {
        let pool = WorkerPool::new(4);
        let mut out = vec![0usize; 100];
        let chunk = 7;
        let count = out.len().div_ceil(chunk);
        let base = out.as_mut_ptr() as usize;
        let len = out.len();
        pool.run(count, &|i| {
            let start = i * chunk;
            let width = chunk.min(len - start);
            // SAFETY: tasks own disjoint chunks of `out`.
            let slice =
                unsafe { std::slice::from_raw_parts_mut((base as *mut usize).add(start), width) };
            for (off, v) in slice.iter_mut().enumerate() {
                *v = start + off;
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn task_panic_propagates_to_submitter() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, &|i| {
                assert!(i != 2, "boom");
            });
        }));
        assert!(result.is_err());
        // The pool stays usable after a panicked job.
        let sum = AtomicUsize::new(0);
        pool.run(3, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 3);
    }

    #[test]
    fn global_pool_matches_default_threads() {
        let pool = WorkerPool::global();
        assert_eq!(pool.workers() + 1, crate::gemm::default_threads().max(1));
    }

    #[test]
    fn drop_shuts_workers_down() {
        let pool = WorkerPool::new(3);
        pool.run(4, &|_| {});
        drop(pool);
        // Nothing to assert beyond "no hang": workers observed shutdown.
    }
}
