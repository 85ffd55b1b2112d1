//! The work-stealing execution engine behind the rayon facade.
//!
//! # Architecture
//!
//! A [`Registry`] owns the shared state of one thread pool:
//!
//! * a **global injector** queue, where threads that are not pool workers
//!   (e.g. the main thread, or a thread `install`ed into another pool) push
//!   work;
//! * one **deque per worker**, used with the Chase–Lev discipline — the owning
//!   worker pushes and pops at the back (LIFO, cache-friendly for nested
//!   operations), thieves steal from the front (FIFO, oldest work first). The
//!   deques are `Mutex<VecDeque>`s rather than lock-free buffers: tasks are
//!   coarse chunks, so queue operations are nowhere near the critical path and
//!   correctness wins over atomics micro-optimisation in an offline shim;
//! * a sleep mutex + condvar so idle workers block instead of spinning, with
//!   the shutdown flag stored under the same mutex so wakeups cannot be missed.
//!
//! Workers are real `std::thread`s. The **global registry** is sized from
//! `RAYON_NUM_THREADS` (like real rayon) falling back to
//! `std::thread::available_parallelism`; `RAYON_NUM_THREADS=1` is the
//! sequential debugging fallback — no workers are spawned and every operation
//! runs inline on the caller. Pool-local registries (via
//! [`crate::ThreadPoolBuilder`]) size themselves explicitly.
//!
//! # Blocking and nesting
//!
//! Every parallel operation is synchronous: the thread that starts it enqueues
//! tasks and waits for the operation's latch. A **pool worker** that waits
//! (because a task hit a nested `join` or parallel iterator) *helps* — it
//! executes queued tasks in the meantime — so nesting cannot deadlock the
//! pool. A **non-worker** caller (the main thread, or a thread inside
//! `ThreadPool::install`) blocks on the latch instead of stealing work, so a
//! pool configured with `num_threads(n)` computes on exactly `n` threads —
//! the thread-count rows of the reproduced tables mean what they say.
//!
//! # Panics
//!
//! Task bodies run under `catch_unwind`; the first panic payload of an
//! operation is stored in its latch and re-thrown on the thread that started
//! the operation once every task of that operation has finished, mirroring
//! rayon's semantics.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

/// Queue-transition points the schedule-permutation layer can perturb.
///
/// The enum is part of the pool's permanent vocabulary — every transition
/// names its point when it calls [`Registry::sched`] — but the perturbation
/// logic behind those calls only exists under `cfg(test)` /
/// `--cfg gk_schedules` (see `crate::schedule`). In ordinary builds the hook
/// is an empty inlined function and the whole layer costs nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SchedPoint {
    /// A task is about to be enqueued (own deque or injector).
    Push,
    /// A worker is about to pop from the back of its own deque.
    PopOwn,
    /// A thread is about to pop from the front of the injector.
    PopInjector,
    /// A thief is about to attempt one steal from a victim deque.
    Steal,
    /// One iteration of a help-while-waiting loop.
    HelpWait,
    /// One iteration of a worker's main loop.
    WorkerLoop,
}

/// A unit of erased work.
///
/// Tasks are boxed closures whose borrows have been lifetime-erased to
/// `'static` (see [`erase_task`]): the operation that enqueued them always
/// blocks until its latch has counted every task complete before returning, so
/// everything a task borrows from the enqueuing stack frame outlives every
/// execution of it.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// First panic payload captured by an operation.
type PanicPayload = Box<dyn Any + Send + 'static>;

/// Erases the lifetime of a task closure so it can sit in a queue shared with
/// `'static` worker threads.
///
/// # Safety
///
/// The transmute changes only the lifetime parameter of the trait object: the
/// vtable and the data pointer are untouched, so the result is bit-identical
/// to the input. What the caller promises is temporal: **no borrow captured by
/// the closure may be invalidated until the task has finished executing** —
/// not merely been popped, *finished*, including its panic path.
///
/// Every call site in this module discharges that obligation the same way:
/// the erased task reports to an [`OpLatch`] as the last thing it does (the
/// `complete` call sits after the closure body, inside the task wrapper), and
/// the frame that owns the borrows blocks on that latch before returning —
/// `run_parallel` and `join` via [`Registry::help_until`], [`Scope::spawn`]
/// via the latch wait in [`scope`]'s epilogue. The scope path additionally
/// counts spawned vs. completed tasks and `debug_assert_eq!`s them once the
/// latch is down, so a bookkeeping bug that would break this contract trips
/// loudly in debug/test builds instead of silently dangling.
unsafe fn erase_task<'a>(task: Box<dyn FnOnce() + Send + 'a>) -> Task {
    // SAFETY: sound per the contract above; only the lifetime is transmuted.
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Task>(task) }
}

/// Completion latch for one parallel operation: an outstanding-task counter
/// plus the first captured panic.
pub(crate) struct OpLatch {
    progress: Mutex<Progress>,
    cv: Condvar,
}

struct Progress {
    remaining: usize,
    panic: Option<PanicPayload>,
}

impl OpLatch {
    fn new(tasks: usize) -> OpLatch {
        OpLatch {
            progress: Mutex::new(Progress {
                remaining: tasks,
                panic: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Registers one more outstanding task (used by [`Scope::spawn`]).
    fn add_one(&self) {
        self.progress.lock().unwrap().remaining += 1;
    }

    /// Marks one task complete, recording its panic payload if it is the
    /// operation's first.
    fn complete(&self, panic: Option<PanicPayload>) {
        let mut progress = self.progress.lock().unwrap();
        progress.remaining -= 1;
        if progress.panic.is_none() {
            if let Some(payload) = panic {
                progress.panic = Some(payload);
            }
        }
        if progress.remaining == 0 {
            self.cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.progress.lock().unwrap().remaining == 0
    }

    /// Blocks until the latch completes (for non-worker callers, which do not
    /// steal work: the computation stays on the pool's own threads).
    fn wait_done(&self) {
        let mut progress = self.progress.lock().unwrap();
        while progress.remaining > 0 {
            progress = self.cv.wait(progress).unwrap();
        }
    }

    /// Parks briefly until either the latch completes or the timeout elapses
    /// (the caller re-scans for stealable work in between).
    fn wait_briefly(&self) {
        let progress = self.progress.lock().unwrap();
        if progress.remaining > 0 {
            let _ = self
                .cv
                .wait_timeout(progress, Duration::from_micros(200))
                .unwrap();
        }
    }

    fn take_panic(&self) -> Option<PanicPayload> {
        self.progress.lock().unwrap().panic.take()
    }

    /// Re-throws the operation's first panic, if any. Only call after the
    /// latch is done.
    fn propagate_panic(&self) {
        if let Some(payload) = self.take_panic() {
            panic::resume_unwind(payload);
        }
    }
}

/// Shared state of one thread pool.
pub(crate) struct Registry {
    /// Logical thread count. `<= 1` means sequential fallback (no workers).
    num_threads: usize,
    /// Queue for work pushed by non-worker threads.
    injector: Mutex<VecDeque<Task>>,
    /// Per-worker deques (empty vector in sequential fallback mode).
    workers: Vec<Mutex<VecDeque<Task>>>,
    /// Shutdown flag; guarded by the sleep mutex so workers cannot miss it.
    sleep: Mutex<bool>,
    wake_cv: Condvar,
    /// Loom-lite schedule controller: when set, every queue transition calls
    /// into it so the schedule suite can yield/sleep/shuffle its way through
    /// push/steal/join interleavings. `None` for all production registries.
    #[cfg(any(test, gk_schedules))]
    schedule: Option<Arc<crate::schedule::Controller>>,
}

thread_local! {
    /// Stack of (registry, worker index) contexts for the current thread.
    ///
    /// A worker thread starts with its own registry at the bottom and never
    /// pops it; `ThreadPool::install` pushes a (pool registry, worker index)
    /// frame on top for its duration — the index is `None` unless the caller
    /// is already a worker of that same pool (see [`inherited_worker_index`]).
    static CURRENT: RefCell<Vec<(Arc<Registry>, Option<usize>)>> =
        const { RefCell::new(Vec::new()) };
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

/// The process-wide registry used when no pool is installed.
pub(crate) fn global_registry() -> Arc<Registry> {
    GLOBAL
        .get_or_init(|| {
            let (registry, handles) = Registry::spawn(default_num_threads(), "rayon-worker");
            // The global pool lives for the whole process; detach the workers.
            drop(handles);
            registry
        })
        .clone()
}

/// The registry parallel operations on this thread currently target.
pub(crate) fn current_registry() -> Arc<Registry> {
    CURRENT
        .with(|current| {
            current
                .borrow()
                .last()
                .map(|(registry, _)| registry.clone())
        })
        .unwrap_or_else(global_registry)
}

/// The calling thread's worker index within `registry`, if it is one of its
/// workers acting as such right now.
fn current_worker_index(registry: &Arc<Registry>) -> Option<usize> {
    CURRENT.with(|current| {
        current.borrow().last().and_then(|(r, index)| {
            if Arc::ptr_eq(r, registry) {
                *index
            } else {
                None
            }
        })
    })
}

/// The calling thread's worker index within `registry`, looking through any
/// stacked `install` frames. Used when entering an `install` frame for a pool:
/// a worker re-installing its own pool must keep its worker identity, so it
/// helps (and pushes to its own deque) instead of blocking — otherwise two
/// workers both re-installing the pool could deadlock it.
pub(crate) fn inherited_worker_index(registry: &Arc<Registry>) -> Option<usize> {
    CURRENT.with(|current| {
        current.borrow().iter().rev().find_map(|(r, index)| {
            if Arc::ptr_eq(r, registry) {
                *index
            } else {
                None
            }
        })
    })
}

/// RAII frame pushed by `install` (and worker startup) onto [`CURRENT`].
pub(crate) struct RegistryGuard;

impl RegistryGuard {
    pub(crate) fn enter(registry: Arc<Registry>, worker: Option<usize>) -> RegistryGuard {
        CURRENT.with(|current| current.borrow_mut().push((registry, worker)));
        RegistryGuard
    }
}

impl Drop for RegistryGuard {
    fn drop(&mut self) {
        CURRENT.with(|current| {
            current.borrow_mut().pop();
        });
    }
}

impl Registry {
    /// Builds the shared state for a pool of `num_threads` (no worker deques
    /// when `num_threads <= 1`: that is the sequential fallback).
    fn new_state(num_threads: usize) -> Registry {
        let workers = if num_threads >= 2 { num_threads } else { 0 };
        Registry {
            num_threads: num_threads.max(1),
            injector: Mutex::new(VecDeque::new()),
            workers: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(false),
            wake_cv: Condvar::new(),
            #[cfg(any(test, gk_schedules))]
            schedule: None,
        }
    }

    /// Spawns one OS thread per worker deque of `registry`.
    fn start_workers(registry: &Arc<Registry>, name_prefix: &str) -> Vec<thread::JoinHandle<()>> {
        (0..registry.workers.len())
            .map(|index| {
                let registry = registry.clone();
                thread::Builder::new()
                    .name(format!("{name_prefix}-{index}"))
                    .spawn(move || worker_loop(registry, index))
                    .expect("failed to spawn pool worker thread")
            })
            .collect()
    }

    /// Creates a registry and spawns its workers (none when `num_threads <= 1`:
    /// that is the sequential fallback).
    pub(crate) fn spawn(
        num_threads: usize,
        name_prefix: &str,
    ) -> (Arc<Registry>, Vec<thread::JoinHandle<()>>) {
        let registry = Arc::new(Self::new_state(num_threads));
        let handles = Self::start_workers(&registry, name_prefix);
        (registry, handles)
    }

    /// Like [`Registry::spawn`] but with a schedule controller attached: every
    /// queue transition of this pool reports to `controller`, which perturbs
    /// thread timing and steal order to drive the pool through adversarial
    /// interleavings. Test layer only.
    #[cfg(any(test, gk_schedules))]
    pub(crate) fn spawn_scheduled(
        num_threads: usize,
        name_prefix: &str,
        controller: Arc<crate::schedule::Controller>,
    ) -> (Arc<Registry>, Vec<thread::JoinHandle<()>>) {
        let mut state = Self::new_state(num_threads);
        state.schedule = Some(controller);
        let registry = Arc::new(state);
        let handles = Self::start_workers(&registry, name_prefix);
        (registry, handles)
    }

    /// Schedule-permutation hook: forwards `point` to the attached controller,
    /// if any. Compiles to an empty inlined function outside the test layer.
    #[inline]
    fn sched(&self, point: SchedPoint) {
        #[cfg(any(test, gk_schedules))]
        if let Some(controller) = &self.schedule {
            controller.perturb(point);
        }
        #[cfg(not(any(test, gk_schedules)))]
        let _ = point;
    }

    /// Logical thread count of this pool.
    pub(crate) fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// True when this registry executes everything inline on the caller.
    pub(crate) fn is_sequential(&self) -> bool {
        self.workers.is_empty()
    }

    /// Enqueues a task: onto the calling worker's own deque when the caller is
    /// a worker of this registry, onto the injector otherwise. Wakes one
    /// sleeper per task (the notify happens under the sleep mutex, which every
    /// worker re-checks queues under before waiting, so no wakeup is lost).
    fn push(self: &Arc<Self>, task: Task) {
        self.sched(SchedPoint::Push);
        match current_worker_index(self) {
            Some(index) => self.workers[index].lock().unwrap().push_back(task),
            None => self.injector.lock().unwrap().push_back(task),
        }
        let _sleep = self.sleep.lock().unwrap();
        self.wake_cv.notify_one();
    }

    /// Pops or steals the next task: own deque back (LIFO), then injector
    /// front, then the other workers' fronts (FIFO steals).
    fn find_task(&self, me: Option<usize>) -> Option<Task> {
        if let Some(index) = me {
            self.sched(SchedPoint::PopOwn);
            if let Some(task) = self.workers[index].lock().unwrap().pop_back() {
                return Some(task);
            }
        }
        self.sched(SchedPoint::PopInjector);
        if let Some(task) = self.injector.lock().unwrap().pop_front() {
            return Some(task);
        }
        let victims = self.workers.len();
        let start = me.map_or(0, |index| index + 1);
        // The schedule layer may rotate the victim scan to a different start
        // so steal races are not limited to the default round-robin order.
        #[cfg(any(test, gk_schedules))]
        let start = match &self.schedule {
            Some(controller) => controller.steal_start(start, victims),
            None => start,
        };
        for offset in 0..victims {
            let victim = (start + offset) % victims;
            if Some(victim) == me {
                continue;
            }
            self.sched(SchedPoint::Steal);
            if let Some(task) = self.workers[victim].lock().unwrap().pop_front() {
                return Some(task);
            }
        }
        None
    }

    /// Any queued task visible? (Used to re-check before sleeping.)
    fn has_visible_work(&self) -> bool {
        if !self.injector.lock().unwrap().is_empty() {
            return true;
        }
        self.workers
            .iter()
            .any(|queue| !queue.lock().unwrap().is_empty())
    }

    /// Waits until `latch` completes. Workers of this registry help — they
    /// execute queued tasks in the meantime, which is what makes nested
    /// parallelism deadlock-free. Non-worker callers block on the latch so the
    /// computation stays on exactly the pool's configured threads.
    fn help_until(self: &Arc<Self>, latch: &OpLatch) {
        let me = match current_worker_index(self) {
            Some(index) => index,
            None => return latch.wait_done(),
        };
        loop {
            self.sched(SchedPoint::HelpWait);
            if latch.is_done() {
                return;
            }
            match self.find_task(Some(me)) {
                Some(task) => task(),
                None => latch.wait_briefly(),
            }
        }
    }

    /// Steals one task from the worker deques only (front = FIFO), never from
    /// the injector. Used by joining non-workers: deque entries are the *sub*
    /// tasks of operations already running on a worker, so they are small and
    /// finish quickly, while the injector holds whole top-level tasks (a
    /// detached spawn, a future parallel operation) that would trap the
    /// joiner long past its own latch completing.
    #[cfg(any(test, gk_schedules))]
    fn steal_subtask(&self) -> Option<Task> {
        for queue in &self.workers {
            self.sched(SchedPoint::Steal);
            if let Some(task) = queue.lock().unwrap().pop_front() {
                return Some(task);
            }
        }
        None
    }

    /// Waits until `latch` completes, executing queued work in the meantime
    /// **even when the caller is not a pool worker**. This is the wait used by
    /// `JoinHandle::join`: a thread that blocks on a spawned task donates its
    /// cycles to the pool instead of idling. A worker of this registry helps
    /// normally (own deque, injector, steals); a non-worker only steals deque
    /// subtasks so it cannot get stuck inside an unrelated top-level task.
    /// Parallel-iterator waits keep the stricter [`Registry::help_until`]
    /// behaviour so a pool configured with `num_threads(n)` still computes on
    /// exactly `n` threads.
    #[cfg(any(test, gk_schedules))]
    fn help_any_until(self: &Arc<Self>, latch: &OpLatch) {
        let me = current_worker_index(self);
        loop {
            self.sched(SchedPoint::HelpWait);
            if latch.is_done() {
                return;
            }
            let task = match me {
                Some(_) => self.find_task(me),
                None => self.steal_subtask(),
            };
            match task {
                Some(task) => task(),
                None => latch.wait_briefly(),
            }
        }
    }

    /// Signals workers to exit once the queues drain.
    pub(crate) fn shutdown(&self) {
        *self.sleep.lock().unwrap() = true;
        self.wake_cv.notify_all();
    }
}

/// Main loop of one worker thread.
fn worker_loop(registry: Arc<Registry>, index: usize) {
    let _frame = RegistryGuard::enter(registry.clone(), Some(index));
    loop {
        registry.sched(SchedPoint::WorkerLoop);
        if let Some(task) = registry.find_task(Some(index)) {
            task();
            continue;
        }
        let sleep = registry.sleep.lock().unwrap();
        if *sleep {
            return;
        }
        // Re-check under the sleep mutex: every push notifies under this same
        // mutex, so either we see the new task here or the notify reaches our
        // wait — idle workers can block indefinitely without polling.
        if registry.has_visible_work() {
            continue;
        }
        let sleep = registry.wake_cv.wait(sleep).unwrap();
        if *sleep {
            return;
        }
    }
}

/// Runs `body(0..tasks)` with each index as one stealable task, blocking until
/// all complete. Panics in any task are re-thrown here after the last task
/// finishes. This is the primitive the parallel iterators drive.
pub(crate) fn run_parallel<F>(tasks: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    if tasks == 0 {
        return;
    }
    let registry = current_registry();
    if registry.is_sequential() || tasks == 1 {
        for index in 0..tasks {
            body(index);
        }
        return;
    }
    let latch = OpLatch::new(tasks);
    for index in 0..tasks {
        let latch = &latch;
        let body = &body;
        let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| body(index)));
            latch.complete(outcome.err());
        });
        // SAFETY: `help_until` below does not return before the latch has
        // counted every task complete, so `body` and `latch` outlive all uses.
        registry.push(unsafe { erase_task(task) });
    }
    registry.help_until(&latch);
    latch.propagate_panic();
}

/// Work-stealing `join`: `oper_b` becomes a stealable task while the calling
/// thread runs `oper_a`, then helps until `oper_b` is done. Both closures'
/// panics propagate (after both have finished).
pub(crate) fn join<A, RA, B, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    RA: Send,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let registry = current_registry();
    if registry.is_sequential() {
        return (oper_a(), oper_b());
    }
    let latch = OpLatch::new(1);
    let b_result: Mutex<Option<RB>> = Mutex::new(None);
    {
        let latch_ref = &latch;
        let b_result_ref = &b_result;
        let task: Box<dyn FnOnce() + Send + '_> =
            Box::new(
                move || match panic::catch_unwind(AssertUnwindSafe(oper_b)) {
                    Ok(value) => {
                        *b_result_ref.lock().unwrap() = Some(value);
                        latch_ref.complete(None);
                    }
                    Err(payload) => latch_ref.complete(Some(payload)),
                },
            );
        // SAFETY: the latch is waited on below before this frame returns.
        registry.push(unsafe { erase_task(task) });
    }
    let a_outcome = panic::catch_unwind(AssertUnwindSafe(oper_a));
    registry.help_until(&latch);
    match a_outcome {
        Ok(ra) => {
            latch.propagate_panic();
            let rb = b_result
                .into_inner()
                .unwrap()
                .expect("join: task finished without result or panic");
            (ra, rb)
        }
        Err(payload) => {
            // `a` panicked: drop b's panic (rayon reports the first panic it
            // sees; we deterministically prefer a's) and re-throw.
            drop(latch.take_panic());
            panic::resume_unwind(payload);
        }
    }
}

/// Handle to one detached task spawned with `spawn_task`: joining blocks
/// until the task has run (helping the pool meanwhile), re-throws the task's
/// panic, and returns its result. Real rayon's `spawn` returns nothing, so
/// the public API has no such handle; it exists for the schedule audit's
/// detached-task phase only.
#[cfg(any(test, gk_schedules))]
pub(crate) struct JoinHandle<T> {
    registry: Arc<Registry>,
    latch: Arc<OpLatch>,
    result: Arc<Mutex<Option<T>>>,
}

#[cfg(any(test, gk_schedules))]
impl<T: Send + 'static> JoinHandle<T> {
    /// Waits for the task and returns its result, re-throwing its panic. The
    /// joining thread executes queued pool work while it waits (whether or not
    /// it is a pool worker).
    pub(crate) fn join(self) -> T {
        self.registry.help_any_until(&self.latch);
        self.latch.propagate_panic();
        self.result
            .lock()
            .unwrap()
            .take()
            .expect("spawned task finished without result or panic")
    }
}

/// Spawns `f` as one stealable task on `registry` and returns a handle to its
/// result. The registry must have workers: a sequential registry would leave
/// the task in its injector, where a non-worker joiner never looks.
#[cfg(any(test, gk_schedules))]
pub(crate) fn spawn_task<T, F>(registry: Arc<Registry>, f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    assert!(
        !registry.is_sequential(),
        "spawn_task needs a pool with workers"
    );
    let latch = Arc::new(OpLatch::new(1));
    let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let task_latch = latch.clone();
    let task_result = result.clone();
    registry.push(Box::new(move || {
        match panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(value) => {
                *task_result.lock().unwrap() = Some(value);
                task_latch.complete(None);
            }
            Err(payload) => task_latch.complete(Some(payload)),
        }
    }));
    JoinHandle {
        registry,
        latch,
        result,
    }
}

/// A scope for spawning borrowed tasks, mirroring `rayon::scope`.
pub struct Scope<'scope> {
    registry: Arc<Registry>,
    latch: OpLatch,
    /// Tasks handed to [`Scope::spawn`], paired with `completed` to
    /// debug-assert the [`erase_task`] contract in [`scope`]'s epilogue:
    /// every erased closure must have finished before `'scope` borrows die.
    spawned: AtomicUsize,
    /// Tasks whose closure (including its panic path) has finished.
    completed: AtomicUsize,
    /// Invariant over `'scope`, as in rayon.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns a task that may borrow from outside the scope. The task becomes
    /// stealable immediately; the surrounding [`scope`](crate::scope) call waits for it.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.latch.add_one();
        // Relaxed: the counters are reconciled only after the latch wait in
        // `scope`'s epilogue, whose mutex release/acquire pairs order every
        // increment before the final loads; no other ordering is needed.
        self.spawned.fetch_add(1, Ordering::Relaxed);
        if self.registry.is_sequential() {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(self)));
            // Relaxed: inline execution, same thread as the epilogue's loads.
            self.completed.fetch_add(1, Ordering::Relaxed);
            self.latch.complete(outcome.err());
            return;
        }
        let scope_ref: &Scope<'scope> = self;
        let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(scope_ref)));
            // Relaxed: ordered before the epilogue's load by the latch mutex
            // (this increment happens-before `complete`, which happens-before
            // the waiter observing `remaining == 0`).
            scope_ref.completed.fetch_add(1, Ordering::Relaxed);
            scope_ref.latch.complete(outcome.err());
        });
        // SAFETY: `scope` waits on this latch before the `Scope` (and anything
        // `'scope` borrows) can be invalidated; the task increments `completed`
        // and reports to the latch as its final acts, so the epilogue's
        // spawned == completed debug-assert rechecks exactly this contract.
        self.registry.push(unsafe { erase_task(task) });
    }
}

/// Creates a scope, runs `body` in it, and blocks until every task spawned
/// (transitively) inside has completed. The first panic — from the body or any
/// task — is re-thrown after all tasks finish, mirroring `rayon::scope`.
pub(crate) fn scope<'scope, OP, R>(body: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let scope = Scope {
        registry: current_registry(),
        latch: OpLatch::new(0),
        spawned: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        _marker: PhantomData,
    };
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| body(&scope)));
    scope.registry.help_until(&scope.latch);
    // The erase_task contract for scope tasks: every closure whose `'scope`
    // borrows die when this frame returns must already have finished. The
    // latch wait above synchronizes-with each task's completion, so these
    // Relaxed loads observe the final counts.
    debug_assert_eq!(
        // Relaxed: see above — the latch wait orders every increment first.
        scope.spawned.load(Ordering::Relaxed),
        // Relaxed: same; both counters are quiescent once the latch is down.
        scope.completed.load(Ordering::Relaxed),
        "scope epilogue: every spawned task must complete before 'scope ends",
    );
    let task_panic = scope.latch.take_panic();
    match outcome {
        Err(payload) => panic::resume_unwind(payload),
        Ok(result) => {
            if let Some(payload) = task_panic {
                panic::resume_unwind(payload);
            }
            result
        }
    }
}

/// Number of threads parallel operations on this thread currently fan out to.
pub(crate) fn current_num_threads() -> usize {
    current_registry().num_threads()
}

/// Worker index of the calling thread in its current pool, `None` off-pool.
pub(crate) fn current_thread_index() -> Option<usize> {
    let registry = current_registry();
    current_worker_index(&registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn latch_counts_down_and_captures_first_panic() {
        let latch = OpLatch::new(2);
        assert!(!latch.is_done());
        latch.complete(Some(Box::new("first")));
        latch.complete(Some(Box::new("second")));
        assert!(latch.is_done());
        let payload = latch.take_panic().expect("panic captured");
        assert_eq!(*payload.downcast::<&str>().unwrap(), "first");
    }

    #[test]
    fn sequential_registry_runs_inline() {
        let (registry, handles) = Registry::spawn(1, "test-seq");
        assert!(handles.is_empty());
        assert!(registry.is_sequential());
        let _frame = RegistryGuard::enter(registry, None);
        let counter = AtomicUsize::new(0);
        run_parallel(10, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn find_task_prefers_own_deque_then_injector() {
        let (registry, handles) = Registry::spawn(1, "test-find");
        drop(handles);
        // Sequential registry: no worker deques, injector only.
        registry.injector.lock().unwrap().push_back(Box::new(|| {}));
        assert!(registry.find_task(None).is_some());
        assert!(registry.find_task(None).is_none());
    }
}
