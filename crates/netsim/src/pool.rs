//! A long-lived worker pool shared across queries.
//!
//! Spawning fresh threads on every call is fine for a one-shot
//! experiment, wasteful for a long-lived mediator answering many
//! queries. [`WorkerPool`] spawns its threads once and feeds them
//! through an MPMC job queue, so any number of concurrent callers
//! multiplex their task batches onto the same fixed set of workers.
//! Results come back in submission order and worker panics propagate to
//! the submitting caller.
//!
//! Instrumentation: the pool tracks queue depth (current and peak),
//! jobs submitted/completed, and cumulative queue-wait time, and feeds
//! the process-wide metrics registry (`s2s_pool_*`) when observability
//! is enabled.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{self, Sender};

/// A type-erased unit of work shipped to a worker thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Snapshot of the pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads serving the queue (0 = inline execution).
    pub workers: usize,
    /// Jobs submitted over the pool's lifetime (inline runs included).
    pub jobs: u64,
    /// Jobs finished over the pool's lifetime.
    pub completed: u64,
    /// Jobs currently queued or executing.
    pub queue_depth: usize,
    /// High-water mark of `queue_depth`.
    pub peak_queue_depth: usize,
    /// Cumulative time jobs spent queued before a worker picked them
    /// up, in wall-clock microseconds.
    pub queue_wait_us: u64,
}

/// A fixed set of long-lived worker threads fed by a job queue.
///
/// `run` executes a batch of tasks on the pool and blocks until every
/// task finished, returning results in submission order. Multiple
/// threads may call `run` concurrently on one shared pool; their jobs
/// interleave in the queue and each caller collects exactly its own
/// results.
///
/// A pool of `workers <= 1` spawns no threads at all: batches run
/// inline on the calling thread, preserving strict serial semantics.
///
/// # Examples
///
/// ```
/// use s2s_netsim::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let doubled = pool.run(vec![1, 2, 3], |x| x * 2);
/// assert_eq!(doubled, [2, 4, 6]);
/// assert_eq!(pool.stats().jobs, 3);
/// ```
pub struct WorkerPool {
    workers: usize,
    queue: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    jobs: AtomicU64,
    completed: AtomicU64,
    queued: AtomicUsize,
    peak_queued: AtomicUsize,
    wait_us: AtomicU64,
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (none when `workers <= 1`;
    /// such a pool runs every batch inline, serially).
    pub fn new(workers: usize) -> Self {
        let mut pool = WorkerPool {
            workers,
            queue: None,
            handles: Vec::new(),
            jobs: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            queued: AtomicUsize::new(0),
            peak_queued: AtomicUsize::new(0),
            wait_us: AtomicU64::new(0),
        };
        if workers >= 2 {
            let (tx, rx) = channel::unbounded::<Job>();
            for i in 0..workers {
                let rx = rx.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("s2s-pool-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            // A panicking job is already caught inside
                            // `run`'s wrapper; this outer guard merely
                            // keeps a worker alive should a job's drop
                            // glue misbehave.
                            let _ = catch_unwind(AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawning a pool worker thread");
                pool.handles.push(handle);
            }
            pool.queue = Some(tx);
        }
        if s2s_obs::enabled() {
            s2s_obs::global().gauge(s2s_obs::names::POOL_WORKERS).set(workers as f64);
        }
        pool
    }

    /// Worker-thread count this pool was built with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: if self.queue.is_some() { self.workers } else { 0 },
            jobs: self.jobs.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            queue_depth: self.queued.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_queued.load(Ordering::Relaxed),
            queue_wait_us: self.wait_us.load(Ordering::Relaxed),
        }
    }

    /// Runs `f` over `tasks` on the pool, blocking until every task
    /// finished; results come back in submission order. If any task
    /// panicked, the panic resumes on this thread — after all sibling
    /// tasks of this call have still run to completion.
    ///
    /// Single-task batches and `workers <= 1` pools run inline on the
    /// calling thread (no queue traffic, strict serial order).
    pub fn run<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        self.jobs.fetch_add(n as u64, Ordering::Relaxed);
        if s2s_obs::enabled() {
            s2s_obs::global().counter(s2s_obs::names::POOL_JOBS_TOTAL).add(n as u64);
        }
        let queue = match &self.queue {
            Some(queue) if n > 1 => queue,
            _ => {
                // Inline fast path: a 1-worker pool or a 1-task batch
                // gains nothing from the queue — but it must feed the
                // same depth/wait telemetry as the queued path, or obs
                // reports depth 0 under single-worker configs.
                let mut out = Vec::with_capacity(n);
                for t in tasks {
                    let depth = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
                    self.peak_queued.fetch_max(depth, Ordering::Relaxed);
                    if s2s_obs::enabled() {
                        s2s_obs::global().gauge(s2s_obs::names::POOL_QUEUE_DEPTH).set(depth as f64);
                    }
                    let depth = self.queued.fetch_sub(1, Ordering::Relaxed) - 1;
                    if s2s_obs::enabled() {
                        let metrics = s2s_obs::global();
                        metrics.gauge(s2s_obs::names::POOL_QUEUE_DEPTH).set(depth as f64);
                        // Inline tasks never wait: the "queue" hands
                        // straight to the calling thread.
                        metrics.histogram(s2s_obs::names::POOL_QUEUE_WAIT_US).observe(0);
                    }
                    out.push(f(t));
                    self.completed.fetch_add(1, Ordering::Relaxed);
                }
                return out;
            }
        };

        let f = &f;
        let (results_tx, results_rx) = channel::unbounded::<(usize, Result<R, Panic>)>();
        for (i, t) in tasks.into_iter().enumerate() {
            let results_tx = results_tx.clone();
            let enqueued = Instant::now();
            let depth = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
            self.peak_queued.fetch_max(depth, Ordering::Relaxed);
            if s2s_obs::enabled() {
                s2s_obs::global().gauge(s2s_obs::names::POOL_QUEUE_DEPTH).set(depth as f64);
            }
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let depth = self.queued.fetch_sub(1, Ordering::Relaxed) - 1;
                let waited = enqueued.elapsed().as_micros() as u64;
                self.wait_us.fetch_add(waited, Ordering::Relaxed);
                if s2s_obs::enabled() {
                    let metrics = s2s_obs::global();
                    metrics.gauge(s2s_obs::names::POOL_QUEUE_DEPTH).set(depth as f64);
                    metrics.histogram(s2s_obs::names::POOL_QUEUE_WAIT_US).observe(waited);
                }
                let out = catch_unwind(AssertUnwindSafe(|| f(t)));
                self.completed.fetch_add(1, Ordering::Relaxed);
                // The send is the job's final act; `run` counts exactly
                // one message per job before returning (see SAFETY).
                let _ = results_tx.send((i, out));
            });
            // SAFETY: the job borrows `f`, `self`, and task data that
            // only live for this call ('env), while the worker threads
            // require 'static jobs; the transmute erases that lifetime.
            // It is sound because `run` does not return — normally or
            // by unwinding — until it has received one result message
            // per submitted job, and each job sends its message strictly
            // after its last use of any borrowed data. The only thing a
            // worker touches after the send is dropping the job's
            // environment (the consumed task slot and a results-channel
            // `Sender` clone whose queue no longer holds any `R`),
            // which dereferences nothing borrowed. Should the result
            // channel ever hang up early — impossible while the
            // invariant holds — `run` aborts the process rather than
            // unwind past live borrows.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            if queue.send(job).is_err() {
                // Workers only disconnect when the pool is dropped,
                // which the borrow on `self` makes impossible here.
                unreachable!("worker pool queue closed while in use");
            }
        }
        drop(results_tx);

        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut panicked: Option<Panic> = None;
        for _ in 0..n {
            let Ok((i, out)) = results_rx.recv() else {
                // Every job sends exactly once; losing a message means
                // the soundness invariant is broken, so do not unwind
                // past the borrowed jobs — abort.
                std::process::abort();
            };
            match out {
                Ok(r) => slots[i] = Some(r),
                Err(payload) => panicked = panicked.or(Some(payload)),
            }
        }
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
        slots.into_iter().map(|s| s.expect("one result per job")).collect()
    }
}

type Panic = Box<dyn Any + Send + 'static>;

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the queue lets every worker drain and exit.
        self.queue = None;
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Barrier;

    #[test]
    fn preserves_submission_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<u32> = (0..64).collect();
        let out = pool.run(tasks, |x| x * 3);
        assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert!(pool.handles.is_empty());
        let out = pool.run(vec!["a", "b"], |s| s.to_uppercase());
        assert_eq!(out, ["A", "B"]);
        assert_eq!(pool.stats().workers, 0);
        assert_eq!(pool.stats().completed, 2);
    }

    #[test]
    fn empty_batch_is_empty() {
        let pool = WorkerPool::new(4);
        let out: Vec<u8> = pool.run(Vec::<u8>::new(), |x| x);
        assert!(out.is_empty());
        assert_eq!(pool.stats().jobs, 0);
    }

    #[test]
    fn borrowed_state_is_visible_to_jobs() {
        let pool = WorkerPool::new(3);
        let counter = AtomicU32::new(0);
        let out = pool.run((0..20).collect(), |x: u32| {
            counter.fetch_add(x, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 20);
        assert_eq!(counter.load(Ordering::Relaxed), (0..20).sum::<u32>());
    }

    #[test]
    fn actually_concurrent() {
        // Both jobs must be in flight at once to pass the barrier.
        let pool = WorkerPool::new(2);
        let barrier = Barrier::new(2);
        let out = pool.run(vec![1, 2], |x| {
            barrier.wait();
            x
        });
        assert_eq!(out, [1, 2]);
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        let pool = WorkerPool::new(4);
        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for c in 0..4u32 {
                let pool = &pool;
                joins.push(s.spawn(move || {
                    let tasks: Vec<u32> = (0..16).map(|i| c * 100 + i).collect();
                    let expect: Vec<u32> = tasks.iter().map(|x| x + 1).collect();
                    assert_eq!(pool.run(tasks, |x| x + 1), expect);
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
        });
        assert_eq!(pool.stats().jobs, 64);
        assert_eq!(pool.stats().completed, 64);
        assert_eq!(pool.stats().queue_depth, 0);
    }

    #[test]
    fn panic_propagates_after_siblings_finish() {
        let pool = WorkerPool::new(2);
        let finished = AtomicU32::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..8).collect(), |x: u32| {
                if x == 3 {
                    panic!("job 3 exploded");
                }
                finished.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::Relaxed), 7, "siblings still ran");
        // The pool survives the panic and keeps serving.
        assert_eq!(pool.run(vec![5], |x| x), [5]);
    }

    #[test]
    fn inline_path_tracks_queue_depth_like_the_queued_path() {
        // Regression: the inline ≤1-worker path used to skip the
        // depth counters entirely, so obs reported depth 0 forever
        // under single-worker configs.
        let pool = WorkerPool::new(1);
        let _ = pool.run(vec![1u32, 2, 3], |x| x);
        let stats = pool.stats();
        assert!(stats.peak_queue_depth >= 1, "stats: {stats:?}");
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.jobs, 3);
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn tracks_peak_queue_depth() {
        let pool = WorkerPool::new(2);
        let _ = pool.run((0..32).collect(), |x: u32| x);
        let stats = pool.stats();
        assert!(stats.peak_queue_depth >= 2, "stats: {stats:?}");
        assert_eq!(stats.queue_depth, 0);
    }
}
