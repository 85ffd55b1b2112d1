//! Seeded audit of the pool's claim, complete and panic paths.
//!
//! The cases run real pools of 2, 3 and 8 workers over task counts from 0 to
//! 300 under fixed seeds. Every index first sleeps or yields for a seeded
//! while, so the workers reach the claim counter, the latch and the job queue
//! in many orders, and then counts itself in a per-index counter. The cases
//! check that:
//!
//! - every index runs exactly once, and results come back in input order;
//! - the first panic reaches the caller only after every index has finished,
//!   and the pool stays usable;
//! - two to four OS threads can share one pool at once, one of them
//!   panicking, and each gets its own results;
//! - a worker that re-`install`s its own pool runs the nested call inline;
//! - `num_threads(1)` spawns no worker and runs on the caller;
//! - dropping a pool returns with its workers joined.
//!
//! A case that outlives its deadline fails as a hung pool. Run the audit alone
//! with `cargo test --release -p rayon --lib audit::`.

use crate::pool::{run_parallel, Registry};
use crate::prelude::*;
use crate::ThreadPool;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Duration;

const SEEDS: [u64; 3] = [1, 0x5eed, 0xa0d1_7e57];
const POOL_SIZES: [usize; 3] = [2, 3, 8];
/// How long one case may run before the audit calls the pool hung.
const DEADLINE: Duration = Duration::from_secs(120);

/// Every task count up to 24, then every 23rd up to 300.
fn task_counts() -> impl Iterator<Item = usize> {
    (0..=24).chain((47..=300).step_by(23))
}

/// A pool of `threads`, built as `ThreadPoolBuilder::num_threads` builds it.
fn pool(threads: usize) -> ThreadPool {
    let (registry, workers) = Registry::spawn(threads, "audit-worker");
    ThreadPool { registry, workers }
}

/// SplitMix64 finalizer: the seeded schedule noise.
fn mix(x: u64) -> u64 {
    let z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sleeps up to 63 µs on a quarter of the indices and yields on another.
fn perturb(seed: u64, tasks: usize, index: usize) {
    let noise = mix(seed ^ mix(((tasks as u64) << 32) | index as u64));
    match noise % 4 {
        0 => thread::sleep(Duration::from_micros(noise >> 58)),
        1 => thread::yield_now(),
        _ => {}
    }
}

fn counters(tasks: usize) -> Vec<AtomicUsize> {
    (0..tasks).map(|_| AtomicUsize::new(0)).collect()
}

fn assert_each_ran_once(runs: &[AtomicUsize], case: &str) {
    for (index, count) in runs.iter().enumerate() {
        assert_eq!(count.load(Ordering::SeqCst), 1, "{case}: index {index}");
    }
}

/// Runs `case` on its own thread, re-throwing its panic, and fails if it is
/// still running after [`DEADLINE`].
fn within_deadline(case: impl FnOnce() + Send + 'static) {
    let (finished, done) = mpsc::channel();
    let runner = thread::spawn(move || {
        case();
        let _ = finished.send(());
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = done.recv_timeout(DEADLINE) {
        panic!("the pool hung: a case ran past {DEADLINE:?}");
    }
    if let Err(payload) = runner.join() {
        panic::resume_unwind(payload);
    }
}

#[test]
fn every_index_runs_exactly_once_and_results_keep_input_order() {
    within_deadline(|| {
        for threads in POOL_SIZES {
            let pool = pool(threads);
            for seed in SEEDS {
                for tasks in task_counts() {
                    let case = format!("seed {seed:#x}, {threads} workers, {tasks} tasks");
                    let runs = counters(tasks);
                    pool.install(|| {
                        run_parallel(tasks, |index| {
                            perturb(seed, tasks, index);
                            runs[index].fetch_add(1, Ordering::SeqCst);
                        })
                    });
                    assert_each_ran_once(&runs, &case);

                    let items: Vec<usize> = (0..tasks).collect();
                    let mapped: Vec<usize> = pool.install(|| {
                        items
                            .par_iter()
                            .map(|&index| {
                                perturb(seed, tasks, index);
                                index
                            })
                            .collect()
                    });
                    assert_eq!(mapped, items, "{case}: results out of input order");
                }
            }
        }
    });
}

#[test]
fn first_panic_reaches_the_caller_after_every_index_finished() {
    within_deadline(|| {
        for threads in POOL_SIZES {
            let pool = pool(threads);
            for seed in SEEDS {
                for tasks in task_counts().filter(|&tasks| tasks > 0) {
                    let case = format!("seed {seed:#x}, {threads} workers, {tasks} tasks");
                    // One or two panicking indices.
                    let panicking =
                        [seed, seed ^ 1].map(|s| (mix(s ^ tasks as u64) % tasks as u64) as usize);
                    let runs = counters(tasks);
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                        pool.install(|| {
                            run_parallel(tasks, |index| {
                                perturb(seed, tasks, index);
                                runs[index].fetch_add(1, Ordering::SeqCst);
                                if panicking.contains(&index) {
                                    panic!("audit panic at {index}");
                                }
                            })
                        })
                    }));
                    let Err(payload) = outcome else {
                        panic!("{case}: the panic never reached the caller");
                    };
                    let message = payload.downcast_ref::<String>();
                    assert!(
                        panicking
                            .iter()
                            .any(|index| message == Some(&format!("audit panic at {index}"))),
                        "{case}: payload {message:?}"
                    );
                    assert_each_ran_once(&runs, &case);

                    let items: Vec<usize> = (0..tasks).collect();
                    let total: usize = pool.install(|| items.par_iter().sum());
                    assert_eq!(total, tasks * (tasks - 1) / 2, "{case}: pool unusable");
                }
            }
        }
    });
}

#[test]
fn callers_sharing_one_pool_each_get_their_own_results() {
    within_deadline(|| {
        for threads in POOL_SIZES {
            for callers in 2..=4 {
                for seed in SEEDS {
                    let pool = Arc::new(pool(threads));
                    let start = Arc::new(Barrier::new(callers));
                    let handles: Vec<_> = (0..callers)
                        .map(|caller| {
                            let (pool, start) = (pool.clone(), start.clone());
                            thread::spawn(move || {
                                let tasks = 40 + 70 * caller;
                                let items: Vec<usize> = (0..tasks).collect();
                                start.wait();
                                pool.install(|| {
                                    items
                                        .par_iter()
                                        .map(|&index| {
                                            perturb(seed ^ caller as u64, tasks, index);
                                            if caller == 0 && index == tasks / 2 {
                                                panic!("caller 0 panics");
                                            }
                                            (caller, index)
                                        })
                                        .collect::<Vec<_>>()
                                })
                            })
                        })
                        .collect();
                    for (caller, handle) in handles.into_iter().enumerate() {
                        let case = format!(
                            "seed {seed:#x}, {threads} workers, caller {caller} of {callers}"
                        );
                        // A caller's panic reaches its thread's join.
                        match handle.join() {
                            Ok(results) => {
                                let expected: Vec<_> =
                                    (0..40 + 70 * caller).map(|index| (caller, index)).collect();
                                assert_eq!(results, expected, "{case}");
                            }
                            Err(payload) => {
                                assert_eq!(caller, 0, "{case}: unexpected panic");
                                assert_eq!(
                                    payload.downcast_ref::<&str>(),
                                    Some(&"caller 0 panics"),
                                    "{case}"
                                );
                            }
                        }
                    }
                }
            }
        }
    });
}

#[test]
fn a_worker_reinstalling_its_own_pool_runs_inline() {
    within_deadline(|| {
        for threads in POOL_SIZES {
            let pool = Arc::new(pool(threads));
            let nested = pool.clone();
            let outer: Vec<usize> = (0..4 * threads).collect();
            let inner: Vec<usize> = (0..64).collect();
            let inline: Vec<bool> = pool.install(|| {
                outer
                    .par_iter()
                    .map(|_| {
                        let worker = thread::current().id();
                        let ran_on: Vec<thread::ThreadId> = nested
                            .install(|| inner.par_iter().map(|_| thread::current().id()).collect());
                        ran_on.iter().all(|&id| id == worker)
                    })
                    .collect()
            });
            assert!(
                inline.iter().all(|&inline| inline),
                "{threads} workers: a nested call left its worker"
            );
        }
    });
}

#[test]
fn one_thread_pool_spawns_no_worker_and_runs_on_the_caller() {
    within_deadline(|| {
        let pool = pool(1);
        assert!(pool.workers.is_empty());
        let caller = thread::current().id();
        for seed in SEEDS {
            for tasks in task_counts() {
                let runs = counters(tasks);
                pool.install(|| {
                    run_parallel(tasks, |index| {
                        assert_eq!(
                            thread::current().id(),
                            caller,
                            "index {index} left the caller"
                        );
                        perturb(seed, tasks, index);
                        runs[index].fetch_add(1, Ordering::SeqCst);
                    })
                });
                assert_each_ran_once(&runs, &format!("seed {seed:#x}, 1 thread, {tasks} tasks"));
            }
        }
    });
}

#[test]
fn dropping_a_pool_returns_with_its_workers_joined() {
    within_deadline(|| {
        for threads in POOL_SIZES {
            let pool = pool(threads);
            assert_eq!(pool.workers.len(), threads);
            let registry = pool.registry.clone();
            let tasks = 4 * threads;
            pool.install(|| run_parallel(tasks, |index| perturb(SEEDS[0], tasks, index)));
            drop(pool);
            // Each worker holds a handle on the registry until its thread ends.
            assert_eq!(
                Arc::strong_count(&registry),
                1,
                "{threads} workers: one outlived the drop"
            );
        }
    });
}
