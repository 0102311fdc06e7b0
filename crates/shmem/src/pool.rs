//! One ordered worker pool: [`ordered`] runs jobs on several threads and
//! folds their results on the calling thread, in job order.
//!
//! Workers claim jobs from one shared counter. The calling thread is one of
//! them: it folds the next result once it has arrived, and until then runs the
//! next job itself or waits. No job starts more than [`WINDOW`] jobs per worker
//! ahead of the fold, so at most `WINDOW × workers` results are alive at once,
//! plus the one being folded; while the calling thread runs a long job, the
//! other workers can stall at the window for at most that job's length. A panic
//! in `run` or `fold` stops the pool and wakes every waiting thread; once every
//! worker has stopped, the first panic resumes on the caller.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Jobs each worker may run ahead of the fold.
pub const WINDOW: usize = 4;

/// The worker count a request resolves to: `0` means one per core.
#[must_use]
pub fn workers(requested: usize) -> usize {
    match requested {
        0 => thread::available_parallelism().map_or(1, std::num::NonZero::get),
        n => n,
    }
}

/// Runs `run(k)` for every job `k` in `0..jobs` on
/// [`workers`]`(requested_workers)` threads, at most one per job, and
/// hands each result to `fold(k, result)` on the calling thread in job
/// order. One worker spawns no thread.
pub fn ordered<R: Send>(
    jobs: usize,
    requested_workers: usize,
    run: impl Fn(usize) -> R + Sync,
    mut fold: impl FnMut(usize, R),
) {
    let workers = workers(requested_workers).min(jobs);
    if workers <= 1 {
        return (0..jobs).for_each(|k| fold(k, run(k)));
    }
    let pool = Pool {
        jobs,
        state: Mutex::new(State {
            next: 0,
            folded: 0,
            ready: (0..WINDOW * workers).map(|_| None).collect(),
            waiting: 0,
            panic: None,
        }),
        wake: Condvar::new(),
    };
    thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| pool.guard(|| pool.work(&run)));
        }
        pool.guard(|| pool.lead(&run, &mut fold));
    });
    let first_panic = pool.lock().panic.take();
    if let Some(payload) = first_panic {
        panic::resume_unwind(payload);
    }
}

struct Pool<R> {
    jobs: usize,
    state: Mutex<State<R>>,
    /// Wakes the calling thread for the next result, workers for the window.
    wake: Condvar,
}

struct State<R> {
    /// The next job to claim.
    next: usize,
    /// Results taken for folding so far.
    folded: usize,
    /// The window: job `k`'s result waits for the fold at `k % len`.
    ready: Vec<Option<R>>,
    /// Threads waiting on [`Pool::wake`].
    waiting: usize,
    /// The first panic, which stopped the pool.
    panic: Option<Box<dyn Any + Send>>,
}

type Guard<'a, R> = MutexGuard<'a, State<R>>;
impl<R> Pool<R> {
    // Only `run` and `fold` can panic, and neither holds the lock.
    fn lock(&self) -> Guard<'_, R> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `body`; a panic in it stops the pool and wakes every thread.
    fn guard(&self, body: impl FnOnce()) {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(body)) {
            self.lock().panic.get_or_insert(payload);
            self.wake.notify_all();
        }
    }

    /// Runs the next job if the window admits it and stores its result, or waits.
    fn run_next<'a>(&'a self, mut st: Guard<'a, R>, run: &impl Fn(usize) -> R) -> Guard<'a, R> {
        let (k, window) = (st.next, st.ready.len());
        if k >= self.jobs.min(st.folded + window) {
            st.waiting += 1;
            st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.waiting -= 1;
            return st;
        }
        st.next += 1;
        drop(st);
        let result = run(k);
        let mut st = self.lock();
        st.ready[k % window] = Some(result);
        if k == st.folded && st.waiting > 0 {
            self.wake.notify_all();
        }
        st
    }

    /// A spawned worker: runs jobs until none is left to claim.
    fn work(&self, run: &impl Fn(usize) -> R) {
        let mut st = self.lock();
        while st.panic.is_none() && st.next < self.jobs {
            st = self.run_next(st, run);
        }
    }

    /// The calling thread: folds each result once it is ready, and until then runs jobs.
    fn lead(&self, run: &impl Fn(usize) -> R, fold: &mut impl FnMut(usize, R)) {
        let mut st = self.lock();
        while st.panic.is_none() && st.folded < self.jobs {
            let (k, window) = (st.folded, st.ready.len());
            let Some(result) = st.ready[k % window].take() else {
                st = self.run_next(st, run);
                continue;
            };
            st.folded += 1;
            if st.waiting > 0 {
                self.wake.notify_all();
            }
            drop(st);
            fold(k, result);
            st = self.lock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{ordered, WINDOW};
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn every_job_is_folded_once_in_order() {
        for jobs in [0, 1, 7, 100] {
            for workers in [0, 1, 2, 3, jobs + 5] {
                let runs = AtomicUsize::new(0);
                let mut folded = Vec::new();
                ordered(
                    jobs,
                    workers,
                    |k| {
                        runs.fetch_add(1, Ordering::Relaxed);
                        k * k
                    },
                    |k, r| folded.push((k, r)),
                );
                let want: Vec<_> = (0..jobs).map(|k| (k, k * k)).collect();
                assert_eq!(folded, want, "{jobs} jobs on {workers} workers");
                assert_eq!(runs.into_inner(), jobs, "{jobs} jobs on {workers} workers");
            }
        }
    }

    /// Counts the results alive at once through their drops.
    struct Live<'a> {
        alive: &'a AtomicUsize,
        k: usize,
    }

    impl Drop for Live<'_> {
        fn drop(&mut self) {
            self.alive.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_slow_job_holds_back_at_most_the_window() {
        let workers = 3;
        let window = WINDOW * workers;
        let (alive, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let mut folded = Vec::new();
        ordered(
            200,
            workers,
            |k| {
                if k == 0 {
                    // Job 0 ends only once the rest of the window waits
                    // for it, and then a little later: a pool without
                    // the window would start more jobs meanwhile.
                    while alive.load(Ordering::SeqCst) < window - 1 {
                        thread::yield_now();
                    }
                    thread::sleep(Duration::from_millis(10));
                }
                let now = alive.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                Live { alive: &alive, k }
            },
            |k, live| {
                assert_eq!(k, live.k);
                folded.push(k);
            },
        );
        assert_eq!(folded, (0..200).collect::<Vec<_>>());
        assert_eq!(alive.into_inner(), 0);
        // The window, plus the result being folded.
        let peak = peak.into_inner();
        assert!(peak <= window + 1, "{peak} results alive at once");
    }

    fn panic_message(run: impl FnOnce()) -> String {
        let payload = panic::catch_unwind(AssertUnwindSafe(run)).expect_err("the pool panics");
        payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn a_panic_in_run_reaches_the_caller() {
        for workers in [1, 2, 4] {
            let message = panic_message(|| {
                ordered(64, workers, |k| assert!(k != 9, "job 9 failed"), |_, ()| {});
            });
            assert_eq!(message, "job 9 failed", "{workers} workers");
        }
        // On a spawned worker: the calling thread's first job waits
        // until the other worker has taken a job, which panics.
        let caller = thread::current().id();
        let helper_ran = AtomicBool::new(false);
        let message = panic_message(|| {
            ordered(
                64,
                2,
                |_| {
                    if thread::current().id() != caller {
                        helper_ran.store(true, Ordering::SeqCst);
                        panic!("a helper failed");
                    }
                    while !helper_ran.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                },
                |_, ()| {},
            );
        });
        assert_eq!(message, "a helper failed");
    }

    #[test]
    fn a_panic_in_fold_reaches_the_caller() {
        for workers in [1, 2, 4] {
            let message = panic_message(|| {
                ordered(64, workers, |k| k, |k, _| assert!(k != 9, "fold 9 failed"));
            });
            assert_eq!(message, "fold 9 failed", "{workers} workers");
        }
    }
}
