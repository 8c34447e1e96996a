//! # vlsi-par — a deterministic static-partition worker pool
//!
//! The execution layer behind the one threaded simulator path: a
//! multi-chip `Cluster` ticking its chips (chip `i` is task `i`). The
//! fabric planes and the region sweep run serially. The design rule is
//! **determinism first**: there is no work stealing and no
//! scheduler feedback of any kind. Task `i` of an `n`-thread region
//! always runs on worker `i % n`, results are always reduced in task
//! order, and nothing about timing can change *what* is computed — so a
//! run at 8 threads is bit-identical to the same run at 1 thread, which
//! is what the thread-matrix CI gate (`ci.sh`) enforces end to end.
//!
//! The pool is zero-dependency (std only) and persistent: workers are
//! spawned once and parked on a condvar between parallel regions, so a
//! region costs two lock handoffs per worker rather than a thread
//! spawn. That is not free: on a 2-core host a 4-chip cluster on two
//! workers serves fewer jobs per second than on one, because most ticks
//! give each chip too little work to pay for the handoffs (EXPERIMENTS
//! Ablation XVI).
//!
//! ```
//! use vlsi_par::Pool;
//!
//! let pool = Pool::new(4);
//! // Results come back in task order no matter which worker ran what.
//! let squares = pool.map(8, |i| (i as u64) * (i as u64));
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```
//!
//! ## Safety model
//!
//! The one `unsafe` corner is lifetime erasure of the region closure:
//! [`Pool::run`] publishes `&dyn Fn(usize)` to the workers as a raw
//! pointer and **does not return until every worker has finished its
//! share** (the `running` count reaches zero under the pool mutex), so
//! the borrow strictly outlives every dereference. Workers never touch
//! the pointer outside the epoch window that published it.
//!
//! Re-entrant regions (a task calling back into the pool) execute
//! inline on the calling thread — deterministic and deadlock-free, so a
//! task that fans out again runs its inner region serially instead of
//! wedging the pool.

#![deny(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

thread_local! {
    /// Whether the current thread is already inside a pool region.
    static IN_REGION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A region closure, lifetime-erased for the worker mailbox. Only ever
/// dereferenced between an epoch publish and the matching `running == 0`
/// acknowledgement, while the original borrow is pinned by [`Pool::run`].
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from any thread are fine)
// and the pointer is only dereferenced inside the region window during
// which `Pool::run` keeps the referent alive and borrowed.
unsafe impl Send for TaskRef {}

struct State {
    /// Region counter; workers run at most one share per epoch.
    epoch: u64,
    /// The published region closure, `None` between regions.
    task: Option<TaskRef>,
    /// Number of tasks in the current region.
    tasks: usize,
    /// Workers still executing the current region.
    running: usize,
    /// A worker share panicked; the leader re-panics after the barrier.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers that a new epoch (or shutdown) is available.
    start: Condvar,
    /// Signals the leader that `running` reached zero.
    done: Condvar,
}

struct Inner {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

/// A deterministic static-partition worker pool.
///
/// `Pool::new(1)` (or [`Pool::serial`]) spawns no threads and runs every
/// region inline — the serial baseline the parallel runs must match
/// bit for bit.
pub struct Pool {
    inner: Option<Inner>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl Pool {
    /// A pool of `threads` executors (the caller's thread counts as one:
    /// `threads - 1` workers are spawned). `threads <= 1` yields the
    /// inline serial pool.
    pub fn new(threads: usize) -> Arc<Pool> {
        if threads <= 1 {
            return Arc::new(Pool { inner: None });
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                task: None,
                tasks: 0,
                running: 0,
                panicked: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vlsi-par-{w}"))
                    .spawn(move || worker_loop(&shared, w, threads))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(Pool {
            inner: Some(Inner {
                shared,
                workers,
                threads,
            }),
        })
    }

    /// The inline serial pool: no threads, every region runs on the
    /// caller. Bit-identical to any thread count by construction.
    pub fn serial() -> Arc<Pool> {
        Pool::new(1)
    }

    /// Executor count (including the calling thread).
    pub fn threads(&self) -> usize {
        self.inner.as_ref().map_or(1, |i| i.threads)
    }

    /// Runs `f(0), f(1), …, f(tasks - 1)` across the pool and returns
    /// once all have finished. Task `i` runs on executor `i % threads` —
    /// a fixed assignment, so the partition never depends on timing.
    /// Tasks must confine their effects to per-task state; reduce in
    /// task order afterwards for a deterministic result.
    ///
    /// Calls from inside a pool task run inline on the calling thread.
    pub fn run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        let inline = self.inner.is_none() || tasks == 1 || IN_REGION.with(|r| r.get());
        if inline {
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        let inner = self.inner.as_ref().expect("checked above");
        let n = inner.threads;
        // SAFETY: see the module docs — the erased borrow is pinned for
        // the whole region because this function blocks on `running == 0`
        // before returning (or unwinding past the barrier).
        let task = TaskRef(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        });
        {
            let mut st = inner.shared.state.lock().unwrap();
            debug_assert!(st.task.is_none(), "pool regions never overlap");
            st.task = Some(task);
            st.tasks = tasks;
            st.running = n - 1;
            st.panicked = false;
            st.epoch += 1;
            inner.shared.start.notify_all();
        }
        // The leader is executor 0 and runs its own share.
        IN_REGION.with(|r| r.set(true));
        let leader = catch_unwind(AssertUnwindSafe(|| {
            let mut i = 0;
            while i < tasks {
                f(i);
                i += n;
            }
        }));
        IN_REGION.with(|r| r.set(false));
        let mut st = inner.shared.state.lock().unwrap();
        while st.running > 0 {
            st = inner.shared.done.wait(st).unwrap();
        }
        st.task = None;
        let worker_panicked = st.panicked;
        drop(st);
        if let Err(p) = leader {
            std::panic::resume_unwind(p);
        }
        if worker_panicked {
            panic!("a pool task panicked on a worker thread");
        }
    }

    /// [`Pool::run`] with collected results, returned **in task order**
    /// regardless of which executor produced them.
    pub fn map<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let slots: Vec<Mutex<Option<R>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
        self.run(tasks, &|i| {
            *slots[i].lock().unwrap() = Some(f(i));
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("every task ran"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        {
            let mut st = inner.shared.state.lock().unwrap();
            st.shutdown = true;
            inner.shared.start.notify_all();
        }
        for w in inner.workers {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize, threads: usize) {
    IN_REGION.with(|r| r.set(true));
    let mut seen = 0u64;
    loop {
        let (task, tasks, epoch) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    if let Some(t) = st.task {
                        break (t, st.tasks, st.epoch);
                    }
                }
                st = shared.start.wait(st).unwrap();
            }
        };
        seen = epoch;
        // SAFETY: the leader pins the referent until `running == 0`,
        // which we only signal after this dereference window closes.
        let f = unsafe { &*task.0 };
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut i = index;
            while i < tasks {
                f(i);
                i += threads;
            }
        }));
        let mut st = shared.state.lock().unwrap();
        if result.is_err() {
            st.panicked = true;
        }
        st.running -= 1;
        if st.running == 0 {
            shared.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn map_results_come_back_in_task_order() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let out = pool.map(37, |i| i * 3);
            assert_eq!(out, (0..37).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = Pool::serial();
        assert_eq!(pool.threads(), 1);
        let main_id = std::thread::current().id();
        pool.run(4, &|_| assert_eq!(std::thread::current().id(), main_id));
    }

    #[test]
    fn effects_land_regardless_of_thread_count() {
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let total = AtomicU64::new(0);
            pool.run(100, &|i| {
                total.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 4950);
        }
    }

    #[test]
    fn reentrant_regions_run_inline_and_complete() {
        let pool = Pool::new(4);
        let out = pool.map(4, |i| {
            // A task fanning out again must not deadlock the pool.
            pool.map(3, |j| i * 10 + j)
        });
        assert_eq!(out[2], vec![20, 21, 22]);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn empty_and_single_task_regions() {
        let pool = Pool::new(4);
        pool.run(0, &|_| panic!("no tasks to run"));
        assert_eq!(pool.map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn many_regions_reuse_the_workers() {
        let pool = Pool::new(4);
        let mut acc = 0u64;
        for round in 0..200u64 {
            let v = pool.map(8, |i| round * 8 + i as u64);
            acc += v.iter().sum::<u64>();
        }
        let expect: u64 = (0..1600u64).sum();
        assert_eq!(acc, expect);
    }

    #[test]
    fn worker_panic_propagates_to_the_leader() {
        let pool = Pool::new(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                // Task 1 lands on worker 1 (fixed assignment), so the
                // panic crosses a thread boundary.
                assert_ne!(i, 1, "boom");
            });
        }));
        assert!(r.is_err());
        // The pool survives and serves later regions.
        assert_eq!(pool.map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Pool::new(8);
        pool.run(8, &|_| {});
        drop(pool); // must not hang or leak
    }
}
