//! The thread pool behind the rayon facade.
//!
//! Every parallel operation of this shim is one flat job: call `body(i)` for
//! every `i` in `0..tasks` ([`run_parallel`]). A [`Registry`] owns a FIFO
//! queue of jobs and, for `n ≥ 2` threads, `n` persistent worker threads. A
//! worker takes the front job and claims indices from the job's atomic counter
//! until the counter passes `tasks`; then it retires the job from the queue,
//! if it is still at the front, and moves on to the next. The thread that
//! started a job blocks on the job's latch and claims no index itself, so a
//! pool built with `num_threads(n)` computes on exactly `n` threads however
//! many callers share it.
//!
//! A call runs inline on the calling thread when the pool has one thread (the
//! sequential fallback, which spawns no worker), when there is at most one
//! index, or when the caller is one of the pool's own workers — a nested call,
//! or a worker that re-`install`s its own pool — so nesting cannot deadlock
//! the pool.
//!
//! Each index runs under `catch_unwind`; the first panic payload is re-thrown
//! on the caller once every index has finished, and the pool stays usable.
//!
//! The global pool is built on first use, sized from `RAYON_NUM_THREADS` or
//! `available_parallelism`, and its workers are detached. A dedicated pool's
//! workers are joined when its [`crate::ThreadPool`] drops.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// First panic payload captured by a job.
type PanicPayload = Box<dyn Any + Send + 'static>;

/// No user code runs while a pool lock is held, so a poisoned one means the
/// pool itself is broken.
const POISONED: &str = "rayon pool lock poisoned";

/// One parallel operation: `body(i)` for every `i` in `0..tasks`.
struct Job {
    /// The caller's closure, its lifetime erased by [`run_parallel`].
    body: &'static (dyn Fn(usize) + Sync),
    tasks: usize,
    /// The next index to hand out; a claim at or past `tasks` finds no work.
    next: AtomicUsize,
    /// The latch: how many indices have finished, and the first panic.
    progress: Mutex<Progress>,
    all_done: Condvar,
}

struct Progress {
    done: usize,
    panic: Option<PanicPayload>,
}

impl Job {
    fn new(tasks: usize, body: &'static (dyn Fn(usize) + Sync)) -> Job {
        Job {
            body,
            tasks,
            next: AtomicUsize::new(0),
            progress: Mutex::new(Progress {
                done: 0,
                panic: None,
            }),
            all_done: Condvar::new(),
        }
    }

    /// Claims and runs indices until the counter passes `tasks`.
    fn claim_all(&self) {
        loop {
            // Relaxed: the counter only hands out distinct indices. The job's
            // inputs reach this thread through the queue mutex, and the body's
            // effects reach the caller through the latch mutex.
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.tasks {
                return;
            }
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| (self.body)(index)));
            self.finish(outcome.err());
        }
    }

    /// Counts one finished index into the latch, keeping the first panic.
    fn finish(&self, panic: Option<PanicPayload>) {
        let mut progress = self.progress.lock().expect(POISONED);
        progress.done += 1;
        if progress.panic.is_none() {
            progress.panic = panic;
        }
        if progress.done == self.tasks {
            self.all_done.notify_one();
        }
    }

    /// Blocks until every index has finished; returns the first panic.
    fn wait(&self) -> Option<PanicPayload> {
        let mut progress = self.progress.lock().expect(POISONED);
        while progress.done < self.tasks {
            progress = self.all_done.wait(progress).expect(POISONED);
        }
        progress.panic.take()
    }
}

/// Shared state of one thread pool.
pub(crate) struct Registry {
    /// Logical thread count; 1 is the sequential fallback, with no workers.
    num_threads: usize,
    queue: Mutex<Queue>,
    /// Signalled when a job is queued or the pool shuts down.
    work: Condvar,
}

struct Queue {
    jobs: VecDeque<Arc<Job>>,
    shutdown: bool,
}

thread_local! {
    /// The registry parallel calls on this thread target; `None` means the
    /// global pool. Set by `install` frames and, for its whole life, on each
    /// worker thread.
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
    /// The registry this thread is a worker of, compared by address and never
    /// dereferenced; null on every other thread.
    static WORKER_OF: Cell<*const Registry> = const { Cell::new(std::ptr::null()) };
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// Thread count requested by `RAYON_NUM_THREADS`, if set to a positive number.
fn env_num_threads() -> Option<usize> {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Default thread count: env override, else the machine's parallelism.
pub(crate) fn default_num_threads() -> usize {
    env_num_threads().unwrap_or_else(|| {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The process-wide registry used when no pool is installed. It lives as long
/// as the process, so its workers are detached.
fn global_registry() -> &'static Arc<Registry> {
    GLOBAL.get_or_init(|| Registry::spawn(default_num_threads(), "rayon-worker").0)
}

/// The registry parallel operations on this thread currently target.
fn current_registry() -> Arc<Registry> {
    CURRENT
        .with(|current| current.borrow().clone())
        .unwrap_or_else(|| global_registry().clone())
}

/// Number of threads parallel operations on this thread currently fan out to.
pub(crate) fn current_num_threads() -> usize {
    CURRENT
        .with(|current| {
            current
                .borrow()
                .as_ref()
                .map(|registry| registry.num_threads)
        })
        .unwrap_or_else(|| global_registry().num_threads)
}

/// Makes a registry current on this thread until dropped, then restores the
/// previous one: the frame of `ThreadPool::install` and of each worker's life.
pub(crate) struct Frame {
    previous: Option<Arc<Registry>>,
}

impl Frame {
    pub(crate) fn enter(registry: &Arc<Registry>) -> Frame {
        let previous = CURRENT.with(|current| current.replace(Some(registry.clone())));
        Frame { previous }
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        CURRENT.with(|current| current.replace(self.previous.take()));
    }
}

impl Registry {
    /// Creates a registry of `num_threads` and spawns its workers: none for
    /// one thread, the sequential fallback.
    pub(crate) fn spawn(
        num_threads: usize,
        name_prefix: &str,
    ) -> (Arc<Registry>, Vec<thread::JoinHandle<()>>) {
        let registry = Arc::new(Registry {
            num_threads,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let workers = if num_threads >= 2 { num_threads } else { 0 };
        let handles = (0..workers)
            .map(|index| {
                let registry = registry.clone();
                thread::Builder::new()
                    .name(format!("{name_prefix}-{index}"))
                    .spawn(move || worker_loop(registry))
                    .expect("failed to spawn pool worker thread")
            })
            .collect();
        (registry, handles)
    }

    /// Logical thread count of this pool.
    pub(crate) fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// True on the threads that are this registry's own workers.
    fn is_own_worker(&self) -> bool {
        WORKER_OF.with(|worker_of| std::ptr::eq(worker_of.get(), self))
    }

    /// Queues `job` and wakes the idle workers.
    fn push(&self, job: Arc<Job>) {
        self.queue.lock().expect(POISONED).jobs.push_back(job);
        self.work.notify_all();
    }

    /// Tells the workers to exit once the queue is empty.
    pub(crate) fn shutdown(&self) {
        self.queue.lock().expect(POISONED).shutdown = true;
        self.work.notify_all();
    }
}

/// Main loop of one worker thread.
fn worker_loop(registry: Arc<Registry>) {
    WORKER_OF.with(|worker_of| worker_of.set(Arc::as_ptr(&registry)));
    let _frame = Frame::enter(&registry);
    let mut queue = registry.queue.lock().expect(POISONED);
    loop {
        if let Some(job) = queue.jobs.front().cloned() {
            drop(queue);
            job.claim_all();
            queue = registry.queue.lock().expect(POISONED);
            // Every index of `job` is claimed: retire it, unless another
            // worker already has.
            if queue
                .jobs
                .front()
                .is_some_and(|front| Arc::ptr_eq(front, &job))
            {
                queue.jobs.pop_front();
            }
        } else if queue.shutdown {
            return;
        } else {
            // Pushes and shutdown notify after taking this mutex, which the
            // check above held, so no wakeup is lost.
            queue = registry.work.wait(queue).expect(POISONED);
        }
    }
}

/// Runs `body(i)` for every `i` in `0..tasks` on the current pool and returns
/// once all have finished, re-throwing the first panic among them. This is the
/// primitive the parallel iterators drive.
pub(crate) fn run_parallel<F>(tasks: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    let registry = current_registry();
    if tasks <= 1 || registry.num_threads == 1 || registry.is_own_worker() {
        (0..tasks).for_each(body);
        return;
    }
    let body: &(dyn Fn(usize) + Sync) = &body;
    // SAFETY: only the lifetime changes, and `body` outlives every call made
    // through the erased reference:
    // - a worker calls `body` only for an index below `tasks` that it claimed
    //   from `next`, and counts that index into the latch (`Job::finish`)
    //   after the call has returned or unwound;
    // - this function returns only after `Job::wait` has seen the latch count
    //   all `tasks`, so every call has ended by then. The latch lock is never
    //   held across user code, so it cannot be poisoned and `wait` cannot
    //   unwind early;
    // - a later claim finds `next` past `tasks` and never touches `body`; the
    //   `Arc<Job>` keeps the counter alive for it.
    let body = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
    };
    let job = Arc::new(Job::new(tasks, body));
    registry.push(job.clone());
    if let Some(payload) = job.wait() {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop(_: usize) {}

    #[test]
    fn latch_counts_down_and_captures_first_panic() {
        let job = Job::new(2, &noop);
        job.finish(Some(Box::new("first")));
        job.finish(Some(Box::new("second")));
        assert_eq!(job.progress.lock().unwrap().done, 2);
        let payload = job.wait().expect("panic captured");
        assert_eq!(*payload.downcast::<&str>().unwrap(), "first");
    }

    #[test]
    fn sequential_registry_runs_inline() {
        let (registry, handles) = Registry::spawn(1, "test-seq");
        assert!(handles.is_empty());
        let _frame = Frame::enter(&registry);
        let caller = thread::current().id();
        let counter = AtomicUsize::new(0);
        run_parallel(10, |_| {
            assert_eq!(thread::current().id(), caller);
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    /// The one path through the lifetime erasure, small enough for Miri.
    #[test]
    fn workers_run_every_claimed_index_once() {
        let (registry, handles) = Registry::spawn(2, "test-claim");
        {
            let _frame = Frame::enter(&registry);
            let caller = thread::current().id();
            let runs: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
            run_parallel(runs.len(), |index| {
                assert_ne!(
                    thread::current().id(),
                    caller,
                    "the caller claimed an index"
                );
                runs[index].fetch_add(1, Ordering::Relaxed);
            });
            assert!(runs.iter().all(|runs| runs.load(Ordering::Relaxed) == 1));
        }
        registry.shutdown();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(
            Arc::strong_count(&registry),
            1,
            "a worker outlived its join"
        );
    }
}
