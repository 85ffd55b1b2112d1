//! Unit and stress tests for the thread pool behind the rayon shim:
//! real-worker introspection, panic propagation, nested parallel iterators,
//! degenerate inputs, oversubscription, and a repeated-run flakiness loop.

use rayon::prelude::*;
use rayon::slice::ParallelSlice;
use std::collections::HashSet;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// True when this process is expected to run parallel (no `RAYON_NUM_THREADS=1`
/// override and more than one core available).
fn expect_parallel() -> bool {
    rayon::current_num_threads() > 1
}

/// `0..n` as a vector, the input most tests iterate over with `par_iter`.
fn indices(n: usize) -> Vec<usize> {
    (0..n).collect()
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
    let names: Vec<Option<String>> = indices(2)
        .par_iter()
        .map(|_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while arrived.load(Ordering::SeqCst) < 2 {
                assert!(Instant::now() < deadline, "tasks never ran concurrently");
                thread::yield_now();
            }
            thread::current().name().map(String::from)
        })
        .collect();
    assert_eq!(arrived.load(Ordering::SeqCst), 2);
    // The caller blocks and claims nothing, so both tasks ran on named pool
    // workers.
    assert!(
        names.iter().all(|name| name
            .as_deref()
            .is_some_and(|n| n.starts_with("rayon-worker"))),
        "a task ran off the pool's workers: {names:?}"
    );
}

#[test]
fn distinct_threads_observed_under_load() {
    if !expect_parallel() {
        return;
    }
    let ids: HashSet<thread::ThreadId> = indices(64)
        .par_iter()
        .map(|_| {
            thread::sleep(Duration::from_millis(2));
            thread::current().id()
        })
        .collect();
    assert!(
        ids.len() > 1,
        "64 sleepy tasks should spread over more than one thread"
    );
}

// ---------------------------------------------------------------------------
// Panic propagation.
// ---------------------------------------------------------------------------

#[test]
fn panic_in_parallel_task_propagates_to_caller() {
    let result = panic::catch_unwind(|| {
        indices(1000)
            .par_iter()
            .map(|&i| {
                if i == 537 {
                    panic!("boom at {i}");
                }
            })
            .count()
    });
    let payload = result.expect_err("panic must propagate");
    let message = payload.downcast_ref::<String>().expect("string payload");
    assert!(message.contains("boom at 537"), "got: {message}");
}

#[test]
fn pool_remains_usable_after_a_panicked_operation() {
    let _ = panic::catch_unwind(|| {
        indices(100)
            .par_iter()
            .map(|_| panic!("every task panics"))
            .count()
    });
    let doubled: Vec<usize> = indices(100).par_iter().map(|i| i * 2).collect();
    assert_eq!(doubled, (0..100).map(|i| i * 2).collect::<Vec<_>>());
}

// ---------------------------------------------------------------------------
// Nesting.
// ---------------------------------------------------------------------------

#[test]
fn parallel_iterator_nested_inside_parallel_iterator() {
    // Workers that hit the inner par_iter run it inline instead of queueing
    // work behind themselves and deadlocking.
    let outer: Vec<u64> = (0..16).collect();
    let inner: Vec<u64> = (0..1_000).collect();
    let totals: Vec<u64> = outer
        .par_iter()
        .map(|&i| inner.par_iter().map(|&j| i + j).sum::<u64>())
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
    assert_eq!(empty.par_iter().count(), 0);
    assert_eq!(empty.par_iter().sum::<u32>(), 0);
    assert_eq!(empty.par_iter().map(|&x| x).reduce(|| 7, |a, b| a + b), 7);

    let one = [41u32];
    let collected: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
    assert_eq!(collected, vec![42]);
    assert_eq!(one.par_iter().map(|&x| x).reduce(|| 0, |a, b| a + b), 41);
}

#[test]
fn combinators_match_sequential_semantics() {
    let input: Vec<i64> = (-500..500).collect();
    let par: Vec<i64> = input
        .par_iter()
        .map(|&x| x * 3)
        .filter_map(|x| {
            if x >= 0 && x % 2 == 0 {
                Some(x / 2)
            } else {
                None
            }
        })
        .flat_map(|x| [x, x + 1])
        .collect();
    let seq: Vec<i64> = input
        .iter()
        .map(|&x| x * 3)
        .filter_map(|x| {
            if x >= 0 && x % 2 == 0 {
                Some(x / 2)
            } else {
                None
            }
        })
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
        indices(256)
            .par_iter()
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
    // nested operations; those must run inline on the worker instead of
    // blocking, or the pool wedges with all workers waiting.
    let pool = std::sync::Arc::new(
        rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap(),
    );
    let nested_pool = pool.clone();
    let inner: Vec<u64> = (0..1_000).collect();
    let sums: Vec<u64> = pool.install(|| {
        indices(8)
            .par_iter()
            .map(|_| nested_pool.install(|| inner.par_iter().sum()))
            .collect()
    });
    assert_eq!(sums, vec![1_000 * 999 / 2; 8]);
}

#[test]
fn dropping_a_pool_joins_its_workers() {
    let values: Vec<u64> = (0..10_000).collect();
    for _ in 0..8 {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let sum: u64 = pool.install(|| values.par_iter().sum());
        assert_eq!(sum, 10_000 * 9_999 / 2);
        drop(pool); // must not hang or leak panics
    }
}

// ---------------------------------------------------------------------------
// Oversubscription and stress.
// ---------------------------------------------------------------------------

#[test]
fn oversubscription_tasks_far_exceeding_workers() {
    // Thousands of tiny tasks against a handful of workers.
    let counter = AtomicUsize::new(0);
    let ran = indices(4_000)
        .par_iter()
        .map(|_| counter.fetch_add(1, Ordering::Relaxed))
        .count();
    assert_eq!(ran, 4_000);
    assert_eq!(counter.load(Ordering::Relaxed), 4_000);

    // And a wide data-parallel op: far more items than threads.
    let n = 200_000u64;
    let values: Vec<u64> = (0..n).collect();
    let sum: u64 = values.par_iter().map(|x| x % 17).sum();
    assert_eq!(sum, (0..n).map(|x| x % 17).sum::<u64>());
}

#[test]
fn repeated_runs_are_flake_free() {
    // x100 loop shaking out races: every iteration mixes map/collect, split
    // sums and reduce, and compares against the sequential answer.
    for round in 0..100u64 {
        let len = 64 + (round as usize * 37) % 1024;
        let input: Vec<u64> = (0..len as u64).map(|i| i * round).collect();

        let mapped: Vec<u64> = input.par_iter().map(|&x| x ^ round).collect();
        let expected: Vec<u64> = input.iter().map(|&x| x ^ round).collect();
        assert_eq!(mapped, expected, "round {round}");

        let (left, right) = input.split_at(len / 2);
        let halves = left.par_iter().sum::<u64>() + right.par_iter().sum::<u64>();
        let total = input
            .par_iter()
            .map(|&x| x)
            .reduce(|| 0, |a, b| a.wrapping_add(b));
        assert_eq!(halves, total, "round {round}");
    }
}
