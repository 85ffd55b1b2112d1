//! Unit and stress tests for the work-stealing pool behind the rayon shim:
//! real-worker introspection, panic propagation, nested `join`/`scope`,
//! degenerate inputs, oversubscription, and a repeated-run flakiness loop.

use rayon::prelude::*;
use rayon::slice::ParallelSlice;
use std::collections::HashSet;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// True when this process is expected to run parallel (no `RAYON_NUM_THREADS=1`
/// override and more than one core available).
fn expect_parallel() -> bool {
    rayon::current_num_threads() > 1
}

// ---------------------------------------------------------------------------
// Pool introspection: the shim must spawn real worker threads.
// ---------------------------------------------------------------------------

#[test]
fn pool_reports_more_than_one_worker_on_multicore() {
    let available = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let env_override = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    match env_override {
        Some(n) => assert_eq!(rayon::current_num_threads(), n),
        None => assert_eq!(rayon::current_num_threads(), available),
    }
    if env_override.unwrap_or(available) > 1 {
        assert!(
            rayon::current_num_threads() > 1,
            "multicore machine must get a multi-thread pool"
        );
    }
}

#[test]
fn work_executes_on_spawned_worker_threads() {
    if !expect_parallel() {
        return; // sequential fallback: everything runs inline by design
    }
    // Two tasks rendezvous: each waits until both have started, which is only
    // possible if they run concurrently on distinct threads.
    let arrived = AtomicUsize::new(0);
    let names: Mutex<Vec<Option<String>>> = Mutex::new(Vec::new());
    rayon::scope(|s| {
        for _ in 0..2 {
            s.spawn(|_| {
                names
                    .lock()
                    .unwrap()
                    .push(thread::current().name().map(String::from));
                arrived.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while arrived.load(Ordering::SeqCst) < 2 {
                    assert!(Instant::now() < deadline, "tasks never ran concurrently");
                    thread::yield_now();
                }
            });
        }
    });
    assert_eq!(arrived.load(Ordering::SeqCst), 2);
    // Non-worker callers do not steal work, so both tasks must have run on
    // named pool workers; assert at least one to stay robust.
    let names = names.lock().unwrap();
    assert!(
        names
            .iter()
            .flatten()
            .any(|name| name.starts_with("rayon-worker")),
        "no task ran on a pool worker thread: {names:?}"
    );
}

#[test]
fn distinct_threads_observed_under_load() {
    if !expect_parallel() {
        return;
    }
    let ids = Mutex::new(HashSet::new());
    (0..64).into_par_iter().for_each(|_| {
        ids.lock().unwrap().insert(thread::current().id());
        thread::sleep(Duration::from_millis(2));
    });
    assert!(
        ids.lock().unwrap().len() > 1,
        "64 sleepy tasks should spread over more than one thread"
    );
}

#[test]
fn current_thread_index_is_none_off_pool() {
    assert_eq!(rayon::current_thread_index(), None);
    if !expect_parallel() {
        return;
    }
    let saw_worker_index = Mutex::new(false);
    (0..64).into_par_iter().for_each(|_| {
        if rayon::current_thread_index().is_some() {
            *saw_worker_index.lock().unwrap() = true;
        }
        thread::sleep(Duration::from_millis(1));
    });
    assert!(
        *saw_worker_index.lock().unwrap(),
        "no task observed a worker thread index"
    );
}

// ---------------------------------------------------------------------------
// Panic propagation.
// ---------------------------------------------------------------------------

#[test]
fn panic_in_parallel_task_propagates_to_caller() {
    let result = panic::catch_unwind(|| {
        (0..1000usize).into_par_iter().for_each(|i| {
            if i == 537 {
                panic!("boom at {i}");
            }
        });
    });
    let payload = result.expect_err("panic must propagate");
    let message = payload.downcast_ref::<String>().expect("string payload");
    assert!(message.contains("boom at 537"), "got: {message}");
}

#[test]
fn pool_remains_usable_after_a_panicked_operation() {
    let _ = panic::catch_unwind(|| {
        (0..100usize)
            .into_par_iter()
            .for_each(|_| panic!("every task panics"));
    });
    let doubled: Vec<usize> = (0..100usize).into_par_iter().map(|i| i * 2).collect();
    assert_eq!(doubled, (0..100).map(|i| i * 2).collect::<Vec<_>>());
}

#[test]
fn join_propagates_panic_from_either_side() {
    let a_panics = panic::catch_unwind(|| rayon::join(|| panic!("left"), || 1));
    assert!(a_panics.is_err());
    let b_panics = panic::catch_unwind(|| rayon::join(|| 1, || panic!("right")));
    assert!(b_panics.is_err());
    let both_panic =
        panic::catch_unwind(|| rayon::join(|| panic!("left of both"), || panic!("right of both")));
    assert!(both_panic.is_err());
    // And the pool still works.
    assert_eq!(rayon::join(|| 6 * 7, || 6 + 7), (42, 13));
}

#[test]
fn scope_waits_for_tasks_before_propagating_panic() {
    let finished = AtomicUsize::new(0);
    let result = panic::catch_unwind(|| {
        rayon::scope(|s| {
            for i in 0..16 {
                s.spawn(|_| {
                    thread::sleep(Duration::from_millis(1));
                    finished.fetch_add(1, Ordering::SeqCst);
                });
                if i == 7 {
                    // Body panics while tasks are still queued/running.
                    panic!("scope body panic");
                }
            }
        });
    });
    assert!(result.is_err());
    // Every task spawned before the panic still ran to completion.
    assert_eq!(finished.load(Ordering::SeqCst), 8);
}

// ---------------------------------------------------------------------------
// join / scope semantics, including nesting.
// ---------------------------------------------------------------------------

/// Parallel divide-and-conquer sum via nested joins.
fn join_sum(values: &[u64]) -> u64 {
    if values.len() <= 8 {
        return values.iter().sum();
    }
    let mid = values.len() / 2;
    let (left, right) = values.split_at(mid);
    let (a, b) = rayon::join(|| join_sum(left), || join_sum(right));
    a + b
}

#[test]
fn nested_joins_compute_the_sequential_answer() {
    let values: Vec<u64> = (0..10_000).collect();
    assert_eq!(join_sum(&values), values.iter().sum::<u64>());
}

#[test]
fn join_returns_both_closure_results() {
    let (a, b) = rayon::join(|| "left".to_string(), || vec![1, 2, 3]);
    assert_eq!(a, "left");
    assert_eq!(b, vec![1, 2, 3]);
}

#[test]
fn nested_scopes_and_spawn_from_spawn() {
    let counter = AtomicUsize::new(0);
    rayon::scope(|s| {
        for _ in 0..4 {
            s.spawn(|s| {
                counter.fetch_add(1, Ordering::SeqCst);
                // Tasks may spawn siblings onto the same scope.
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            });
        }
    });
    assert_eq!(counter.load(Ordering::SeqCst), 8);
}

#[test]
fn parallel_iterator_nested_inside_parallel_iterator() {
    // Exercises help-while-waiting: workers that hit the inner par_iter must
    // keep executing queued tasks instead of deadlocking.
    let totals: Vec<u64> = (0..16u64)
        .into_par_iter()
        .map(|i| (0..1_000u64).into_par_iter().map(|j| i + j).sum::<u64>())
        .collect();
    let expected: Vec<u64> = (0..16u64)
        .map(|i| (0..1_000u64).map(|j| i + j).sum::<u64>())
        .collect();
    assert_eq!(totals, expected);
}

// ---------------------------------------------------------------------------
// Degenerate inputs.
// ---------------------------------------------------------------------------

#[test]
fn empty_and_single_element_inputs() {
    let empty: Vec<u32> = Vec::new();
    let collected: Vec<u32> = empty.par_iter().map(|&x| x + 1).collect();
    assert!(collected.is_empty());
    assert_eq!(Vec::<u32>::new().into_par_iter().count(), 0);
    assert_eq!(Vec::<u32>::new().into_par_iter().sum::<u32>(), 0);
    assert_eq!(
        Vec::<u32>::new().into_par_iter().reduce(|| 7, |a, b| a + b),
        7
    );

    let one = [41u32];
    let collected: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
    assert_eq!(collected, vec![42]);
    assert_eq!(one.par_iter().map(|&x| x).reduce(|| 0, |a, b| a + b), 41);
}

#[test]
fn par_iter_mut_updates_in_place() {
    let mut values: Vec<u64> = (0..4096).collect();
    values
        .par_iter_mut()
        .for_each(|v| *v = v.wrapping_mul(3) + 1);
    let expected: Vec<u64> = (0..4096u64).map(|v| v.wrapping_mul(3) + 1).collect();
    assert_eq!(values, expected);
}

#[test]
fn combinators_match_sequential_semantics() {
    let input: Vec<i64> = (-500..500).collect();
    let par: Vec<i64> = input
        .par_iter()
        .map(|&x| x * 3)
        .filter(|&x| x % 2 == 0)
        .filter_map(|x| if x >= 0 { Some(x / 2) } else { None })
        .flat_map(|x| [x, x + 1])
        .collect();
    let seq: Vec<i64> = input
        .iter()
        .map(|&x| x * 3)
        .filter(|&x| x % 2 == 0)
        .filter_map(|x| if x >= 0 { Some(x / 2) } else { None })
        .flat_map(|x| [x, x + 1])
        .collect();
    assert_eq!(par, seq);

    let par_zip: i64 = input
        .par_iter()
        .zip(input.par_iter())
        .enumerate()
        .map(|(i, (&a, &b))| a * b + i as i64)
        .sum();
    let seq_zip: i64 = input
        .iter()
        .zip(input.iter())
        .enumerate()
        .map(|(i, (&a, &b))| a * b + i as i64)
        .sum();
    assert_eq!(par_zip, seq_zip);
}

// ---------------------------------------------------------------------------
// par_chunks.
// ---------------------------------------------------------------------------

#[test]
fn par_chunks_covers_every_element_in_order() {
    let data: Vec<u32> = (0..1000).collect();
    for chunk_size in [1usize, 3, 7, 100, 999, 1000, 5000] {
        let reassembled: Vec<u32> = data
            .par_chunks(chunk_size)
            .flat_map(|chunk| chunk.to_vec())
            .collect();
        assert_eq!(reassembled, data, "chunk_size = {chunk_size}");
        let chunk_count = data.par_chunks(chunk_size).count();
        assert_eq!(chunk_count, data.len().div_ceil(chunk_size));
    }
}

#[test]
#[should_panic(expected = "chunk size must be non-zero")]
fn par_chunks_rejects_zero_chunk_size() {
    let data = [1u8, 2, 3];
    let _ = data.par_chunks(0).count();
}

// ---------------------------------------------------------------------------
// Dedicated pools and the sequential fallback.
// ---------------------------------------------------------------------------

#[test]
fn installed_pool_controls_thread_count() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build()
        .unwrap();
    assert_eq!(pool.current_num_threads(), 3);
    assert_eq!(pool.install(rayon::current_num_threads), 3);
    // Outside install, the global pool is current again.
    assert_ne!(rayon::current_num_threads(), 0);
}

#[test]
fn single_thread_pool_runs_inline_on_the_caller() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let caller = thread::current().id();
    let ids: Vec<_> = pool.install(|| {
        (0..256usize)
            .into_par_iter()
            .map(|_| thread::current().id())
            .collect()
    });
    assert!(
        ids.iter().all(|&id| id == caller),
        "sequential fallback must not leave the calling thread"
    );
}

#[test]
fn install_on_own_pool_from_its_workers_does_not_deadlock() {
    // Tasks running on the pool's workers re-install the same pool and start
    // nested operations; the workers must keep their identity (and help)
    // instead of blocking, or the pool wedges with all workers waiting.
    let pool = std::sync::Arc::new(
        rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap(),
    );
    let nested_pool = pool.clone();
    pool.install(|| {
        (0..8).into_par_iter().for_each(|_| {
            let sum: u64 = nested_pool.install(|| (0..1_000u64).into_par_iter().sum());
            assert_eq!(sum, 1_000 * 999 / 2);
        });
    });
}

#[test]
fn dropping_a_pool_joins_its_workers() {
    for _ in 0..8 {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let sum: u64 = pool.install(|| (0..10_000u64).into_par_iter().sum());
        assert_eq!(sum, 10_000 * 9_999 / 2);
        drop(pool); // must not hang or leak panics
    }
}

// ---------------------------------------------------------------------------
// Oversubscription and stress.
// ---------------------------------------------------------------------------

#[test]
fn oversubscription_tasks_far_exceeding_workers() {
    // Thousands of scope tasks against a handful of workers.
    let counter = AtomicUsize::new(0);
    rayon::scope(|s| {
        for _ in 0..4_000 {
            s.spawn(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(counter.load(Ordering::Relaxed), 4_000);

    // And a wide data-parallel op: far more items than threads.
    let n = 200_000usize;
    let sum: u64 = (0..n as u64).into_par_iter().map(|x| x % 17).sum();
    assert_eq!(sum, (0..n as u64).map(|x| x % 17).sum::<u64>());
}

#[test]
fn repeated_runs_are_flake_free() {
    // x100 loop shaking out races: every iteration mixes map/collect, join and
    // reduce, and compares against the sequential answer.
    for round in 0..100u64 {
        let len = 64 + (round as usize * 37) % 1024;
        let input: Vec<u64> = (0..len as u64).map(|i| i * round).collect();

        let mapped: Vec<u64> = input.par_iter().map(|&x| x ^ round).collect();
        let expected: Vec<u64> = input.iter().map(|&x| x ^ round).collect();
        assert_eq!(mapped, expected, "round {round}");

        let (left, right) = rayon::join(
            || input.iter().take(len / 2).sum::<u64>(),
            || input.iter().skip(len / 2).sum::<u64>(),
        );
        let total = input
            .par_iter()
            .map(|&x| x)
            .reduce(|| 0, |a, b| a.wrapping_add(b));
        assert_eq!(left + right, total, "round {round}");
    }
}
