//! Offline stand-in for `rayon`, backed by a real work-stealing thread pool.
//!
//! The build environment has no registry access, so this crate reproduces the
//! slice of rayon's API the workspace uses — `par_iter` / `into_par_iter` /
//! `par_iter_mut` / `par_chunks`, `join`, `scope`, and `ThreadPoolBuilder` /
//! `ThreadPool::install` — on top of a hand-rolled pool (see the `pool` module for the
//! design: a global injector plus per-worker Chase–Lev-style deques drained by
//! `std::thread` workers, help-while-waiting for deadlock-free nesting, and
//! per-operation panic capture).
//!
//! Differences from real rayon, deliberate for an offline shim:
//!
//! * Parallel iterators materialize their items and evaluate each combinator
//!   eagerly over ordered chunks instead of building a lazy pipeline. Results
//!   are **byte-identical to a sequential run** for the order-preserving
//!   combinators this workspace uses; only scheduling differs.
//! * The worker deques use mutexed `VecDeque`s with the Chase–Lev access
//!   discipline (owner LIFO, thieves FIFO) rather than lock-free buffers.
//!
//! Thread-count control mirrors rayon: the global pool is sized from
//! `RAYON_NUM_THREADS` when set (a positive integer), otherwise from
//! `std::thread::available_parallelism`. **`RAYON_NUM_THREADS=1` is the
//! sequential debugging fallback** — no workers are spawned and every
//! operation runs inline on the calling thread. Per-call-site counts go
//! through `ThreadPoolBuilder::new().num_threads(n).build()` and
//! [`ThreadPool::install`], exactly like the real crate. There is no
//! shim-only entry point (the `schedule` module exists only in test-audit
//! builds): every call a workspace crate makes is one real rayon offers, so
//! swapping in real rayon is a matter of pointing the `rayon` entry of
//! `[workspace.dependencies]` at crates.io — no source changes are needed.

pub mod iter;
mod pool;
/// Loom-lite schedule-permutation layer for the concurrency audit. Compiled
/// only for the unit suite (`cfg(test)`) and the dedicated audit leg
/// (`RUSTFLAGS=--cfg gk_schedules`); absent from production builds.
#[cfg(any(test, gk_schedules))]
pub mod schedule;
pub mod slice;

pub use pool::Scope;

pub mod prelude {
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
    };
    pub use crate::slice::ParallelSlice;
}

/// Error type for [`ThreadPoolBuilder::build`]. Kept for API compatibility;
/// the only failure mode (worker spawn failure) aborts instead.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a dedicated [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests an exact worker count; `0` (the default) means "size from
    /// `RAYON_NUM_THREADS` / `available_parallelism`", as in real rayon.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let num_threads = if self.num_threads == 0 {
            pool::default_num_threads()
        } else {
            self.num_threads
        };
        let (registry, handles) = pool::Registry::spawn(num_threads, "rayon-pool-worker");
        Ok(ThreadPool { registry, handles })
    }
}

/// A dedicated pool with its own workers. Operations run inside
/// [`install`](ThreadPool::install) fan out to this pool instead of the global
/// one; with `num_threads(1)` the pool is the sequential fallback and
/// everything runs inline.
pub struct ThreadPool {
    registry: std::sync::Arc<pool::Registry>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Runs `op` with this pool as the current parallelism context: every
    /// parallel iterator, `join`, or `scope` reached from inside targets this
    /// pool's workers. Calling `install` from one of this pool's own worker
    /// threads keeps that worker identity, so nested installs help the pool
    /// instead of blocking it.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        let inherited = pool::inherited_worker_index(&self.registry);
        let _frame = pool::RegistryGuard::enter(self.registry.clone(), inherited);
        op()
    }

    /// This pool's logical thread count.
    pub fn current_num_threads(&self) -> usize {
        self.registry.num_threads()
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.registry.num_threads())
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Mirrors `rayon::current_num_threads`: the thread count of the pool the
/// calling thread currently targets (the global pool unless inside
/// [`ThreadPool::install`]).
pub fn current_num_threads() -> usize {
    pool::current_num_threads()
}

/// Mirrors `rayon::current_thread_index`: the calling thread's worker index
/// within its pool, or `None` when called from outside any worker.
pub fn current_thread_index() -> Option<usize> {
    pool::current_thread_index()
}

/// Mirrors `rayon::join`: runs both closures, potentially in parallel — the
/// second becomes a stealable task while the caller runs the first, then the
/// caller helps the pool until both are done. Panics propagate after both
/// closures have finished.
///
/// ```
/// let (a, b) = rayon::join(|| 2 + 2, || "ok");
/// assert_eq!((a, b), (4, "ok"));
/// ```
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    pool::join(oper_a, oper_b)
}

/// Mirrors `rayon::scope`: spawn tasks that may borrow from the enclosing
/// frame; the call returns once every spawned task (including nested spawns)
/// has completed.
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// let counter = AtomicUsize::new(0);
/// rayon::scope(|s| {
///     for _ in 0..8 {
///         s.spawn(|_| {
///             counter.fetch_add(1, Ordering::Relaxed);
///         });
///     }
/// });
/// assert_eq!(counter.load(Ordering::Relaxed), 8);
/// ```
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    pool::scope(op)
}
