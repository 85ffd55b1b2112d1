//! Offline stand-in for `rayon`, backed by a real thread pool.
//!
//! The build environment has no registry access, so this crate reproduces the
//! slice of rayon's API the workspace calls — `par_iter` / `par_chunks` with
//! their combinators, `ThreadPoolBuilder` / `ThreadPool::install` and
//! `current_num_threads` — on top of a small pool (see the `pool` module: a
//! FIFO queue of flat "index `i` of `n`" jobs drained by persistent
//! `std::thread` workers that claim indices from one atomic counter per job).
//!
//! Parallel iterators materialize their items and evaluate each combinator
//! eagerly over ordered chunks instead of building a lazy pipeline. Results are
//! **byte-identical to a sequential run** for the order-preserving combinators
//! the workspace uses; only scheduling differs.
//!
//! Thread-count control mirrors rayon: the global pool is sized from
//! `RAYON_NUM_THREADS` when set (a positive integer), otherwise from
//! `std::thread::available_parallelism`. **`RAYON_NUM_THREADS=1` is the
//! sequential debugging fallback** — no workers are spawned and every
//! operation runs inline on the calling thread. Per-call-site counts go
//! through `ThreadPoolBuilder::new().num_threads(n).build()` and
//! [`ThreadPool::install`], exactly like the real crate. Every call the
//! workspace makes through this crate exists in real rayon with a compatible
//! signature, so swapping in real rayon is a matter of pointing the `rayon`
//! entry of `[workspace.dependencies]` at crates.io — no source changes are
//! needed.

#[cfg(test)]
mod audit;
pub mod iter;
mod pool;
pub mod slice;

use std::sync::Arc;
use std::thread::JoinHandle;

pub mod prelude {
    pub use crate::iter::IntoParallelRefIterator;
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
        let (registry, workers) = pool::Registry::spawn(num_threads, "rayon-pool-worker");
        Ok(ThreadPool { registry, workers })
    }
}

/// A dedicated pool with its own workers. Operations run inside
/// [`install`](ThreadPool::install) fan out to this pool instead of the global
/// one; with `num_threads(1)` the pool is the sequential fallback and
/// everything runs inline.
pub struct ThreadPool {
    registry: Arc<pool::Registry>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Runs `op` with this pool as the current parallelism context: every
    /// parallel iterator reached from inside targets this pool's workers.
    /// Called from one of this pool's own workers, the operations inside run
    /// inline on that worker.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        let _frame = pool::Frame::enter(&self.registry);
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
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Mirrors `rayon::current_num_threads`: the thread count of the pool the
/// calling thread currently targets (the global pool unless inside
/// [`ThreadPool::install`]).
pub fn current_num_threads() -> usize {
    pool::current_num_threads()
}
