//! Loom-lite schedule permutation for the work-stealing pool.
//!
//! Real loom model-checks every interleaving of a bounded program; that needs
//! an instrumented `std` replacement this offline shim cannot depend on. This
//! layer takes the pragmatic middle ground: the pool reports every queue
//! transition (push, pop, steal attempt, help/worker loop iteration — see
//! [`crate::pool::SchedPoint`]) to a seeded [`Controller`], which injects
//! yields, short sleeps and steal-order shuffles at those points. Each seed
//! deterministically *pressures* the pool toward a different interleaving;
//! the fingerprint of the transitions actually observed (a running FNV hash
//! over `(point, decision)` events in global arrival order) tells distinct
//! explored schedules apart.
//!
//! [`run_scenario`] drives one full workout of the pool under a controller —
//! fan-out with nested joins, nested scopes, detached spawn handles, a
//! panic-propagation leg and a join-trap probe — and asserts the two
//! invariants the audit cares about:
//!
//! 1. **exactly-once execution**: every task bumps its own counter, and every
//!    counter must read exactly 1 at the end;
//! 2. **no join traps**: joining a finished-soon task returns even while an
//!    unrelated top-level task sits parked in the pool (a joiner must never
//!    get stuck executing whole injector tasks past its own latch).
//!
//! The module is compiled only under `cfg(test)` (unit suite, runs in plain
//! `cargo test`) and `--cfg gk_schedules` (the dedicated CI leg driving the
//! integration suite in `tests/schedules.rs` plus the committed seed corpus
//! in `tests/schedule_seeds.txt`).

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::pool::{self, Registry, RegistryGuard, SchedPoint};

/// Committed corpus of adversarial seeds (see [`adversarial_seeds`]).
pub const SEED_CORPUS: &str = include_str!("../tests/schedule_seeds.txt");

/// Deterministic schedule perturbator shared by every thread of one pool.
///
/// All state sits behind one mutex: the controller is itself a serialization
/// point, which is intentional — the order in which racing threads win this
/// lock *is* the interleaving being fingerprinted.
pub struct Controller {
    state: Mutex<ControllerState>,
}

struct ControllerState {
    /// splitmix64 state; seeded per scenario.
    rng: u64,
    /// Running FNV-1a hash over `(point, decision)` events in arrival order.
    trace_hash: u64,
    /// Total events observed.
    events: u64,
    /// Yields injected.
    yields: u64,
    /// Sleeps injected.
    sleeps: u64,
}

/// What one scenario run looked like, for dedup and corpus ranking.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioReport {
    /// The seed the scenario ran under.
    pub seed: u64,
    /// Worker threads in the pool.
    pub threads: usize,
    /// Fingerprint of the observed interleaving.
    pub trace_hash: u64,
    /// Queue-transition events observed.
    pub events: u64,
    /// Yields the controller injected.
    pub yields: u64,
    /// Sleeps the controller injected.
    pub sleeps: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn point_id(point: SchedPoint) -> u64 {
    match point {
        SchedPoint::Push => 1,
        SchedPoint::PopOwn => 2,
        SchedPoint::PopInjector => 3,
        SchedPoint::Steal => 4,
        SchedPoint::HelpWait => 5,
        SchedPoint::WorkerLoop => 6,
    }
}

impl Controller {
    /// A controller whose whole decision stream is a function of `seed`.
    pub fn new(seed: u64) -> Controller {
        Controller {
            state: Mutex::new(ControllerState {
                rng: seed ^ 0xd1b5_4a32_d192_ed03,
                trace_hash: FNV_OFFSET,
                events: 0,
                yields: 0,
                sleeps: 0,
            }),
        }
    }

    /// Draws the next decision, folding `(point, decision)` into the trace.
    fn decide(&self, point: SchedPoint) -> u64 {
        let mut state = self.state.lock().unwrap();
        let decision = splitmix64(&mut state.rng);
        let mut hash = state.trace_hash;
        for byte in [point_id(point) as u8, (decision & 0xff) as u8] {
            hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        state.trace_hash = hash;
        state.events += 1;
        decision
    }

    /// Perturbs the calling thread at `point`: possibly nothing, one or more
    /// `yield_now`s, or (only at the enqueue/steal points, where contention is
    /// interesting and the caller is not inside a wait loop) a microsecond
    /// sleep — enough to let a racing thread win the next queue lock.
    pub(crate) fn perturb(&self, point: SchedPoint) {
        let decision = self.decide(point);
        let heavy = matches!(point, SchedPoint::Push | SchedPoint::Steal);
        match decision & 0x7 {
            0..=3 => {}
            4 | 5 => {
                thread::yield_now();
                self.state.lock().unwrap().yields += 1;
            }
            6 => {
                for _ in 0..1 + (decision >> 3) % 3 {
                    thread::yield_now();
                }
                self.state.lock().unwrap().yields += 1;
            }
            _ => {
                if heavy {
                    thread::sleep(Duration::from_micros(1 + (decision >> 3) % 20));
                    self.state.lock().unwrap().sleeps += 1;
                } else {
                    thread::yield_now();
                    self.state.lock().unwrap().yields += 1;
                }
            }
        }
    }

    /// Picks where a thief starts its victim scan: the default round-robin
    /// start half the time, a seeded rotation otherwise.
    pub(crate) fn steal_start(&self, default: usize, victims: usize) -> usize {
        if victims == 0 {
            return default;
        }
        let decision = self.decide(SchedPoint::Steal);
        if decision & 1 == 0 {
            default
        } else {
            ((decision >> 1) % victims as u64) as usize
        }
    }

    fn report(&self, seed: u64, threads: usize) -> ScenarioReport {
        let state = self.state.lock().unwrap();
        ScenarioReport {
            seed,
            threads,
            trace_hash: state.trace_hash,
            events: state.events,
            yields: state.yields,
            sleeps: state.sleeps,
        }
    }
}

/// Tasks the scenario accounts for in its exactly-once check.
const SCENARIO_TASKS: usize = 16;

/// Runs the full pool workout once on a dedicated `threads`-worker pool whose
/// every queue transition is perturbed by a [`Controller`] seeded with `seed`.
///
/// Panics if any task runs zero times or more than once, if a join result is
/// wrong, if the spawned panic fails to propagate, or if a worker exits
/// uncleanly. Returns the run's [`ScenarioReport`] for interleaving dedup.
pub fn run_scenario(seed: u64, threads: usize) -> ScenarioReport {
    assert!(threads >= 2, "scenario needs a real pool, got {threads}");
    let controller = Arc::new(Controller::new(seed));
    let (registry, workers) = Registry::spawn_scheduled(threads, "gk-sched", controller.clone());

    let ran: Vec<AtomicUsize> = (0..SCENARIO_TASKS).map(|_| AtomicUsize::new(0)).collect();
    let ran = Arc::new(ran);
    {
        let _frame = RegistryGuard::enter(registry.clone(), None);

        // Phase 1 — fan-out with a nested join per task (tasks 0..8). This is
        // the parallel-iterator shape: injector push, worker pops, nested
        // subtask pushes onto worker deques, cross-worker steals.
        pool::run_parallel(8, |index| {
            let (a, b) = pool::join(|| 10 + index, || 20 + index);
            assert_eq!((a, b), (10 + index, 20 + index));
            ran[index].fetch_add(1, Ordering::SeqCst);
        });

        // Phase 2 — nested scopes: spawn-from-spawn exercises latch add_one
        // racing the epilogue's help loop (tasks 8..12).
        pool::scope(|outer| {
            outer.spawn(|inner| {
                ran[8].fetch_add(1, Ordering::SeqCst);
                inner.spawn(|_| {
                    ran[9].fetch_add(1, Ordering::SeqCst);
                });
            });
            outer.spawn(|_| {
                ran[10].fetch_add(1, Ordering::SeqCst);
            });
            ran[11].fetch_add(1, Ordering::SeqCst);
        });

        // Phase 3 — detached handles (tasks 12..16). A sentinel task parks one
        // worker on a channel; joining the quick tasks while it sits there is
        // the no-join-trap probe (the joiner steals worker-deque subtasks
        // only, so it must come back even though a top-level task is blocked).
        let (release, gate) = mpsc::channel::<()>();
        let sentinel = pool::spawn_task(registry.clone(), {
            let ran = ran.clone();
            move || {
                gate.recv().expect("scenario always releases the sentinel");
                ran[12].fetch_add(1, Ordering::SeqCst);
            }
        });
        let quick: Vec<_> = [13usize, 14]
            .into_iter()
            .map(|index| {
                pool::spawn_task(registry.clone(), {
                    let ran = ran.clone();
                    move || {
                        ran[index].fetch_add(1, Ordering::SeqCst);
                        index
                    }
                })
            })
            .collect();
        for (handle, expected) in quick.into_iter().zip([13usize, 14]) {
            assert_eq!(
                handle.join(),
                expected,
                "join returned the wrong task's result"
            );
        }
        let boom = pool::spawn_task(registry.clone(), || -> usize {
            panic!("schedule-harness probe panic");
        });
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| boom.join()));
        assert!(
            outcome.is_err(),
            "spawned panic must propagate through join"
        );
        release.send(()).expect("sentinel still waiting");
        sentinel.join();
        ran[15].fetch_add(1, Ordering::SeqCst);
    }

    registry.shutdown();
    for worker in workers {
        worker.join().expect("pool worker exited uncleanly");
    }
    for (task, counter) in ran.iter().enumerate() {
        assert_eq!(
            counter.load(Ordering::SeqCst),
            1,
            "task {task} must run exactly once under seed {seed:#x}",
        );
    }
    controller.report(seed, threads)
}

/// Derives the `index`-th sweep seed (golden-ratio stride over `u64`).
fn sweep_seed(index: u64) -> u64 {
    (index + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x6a09_e667_f3bc_c909
}

/// Runs `count` scenarios over seeds `0..count` (2–4 workers, round-robin)
/// and returns the reports. Every run asserts exactly-once execution.
pub fn sweep(count: u64) -> Vec<ScenarioReport> {
    (0..count)
        .map(|index| run_scenario(sweep_seed(index), 2 + (index % 3) as usize))
        .collect()
}

/// Parses the committed corpus: one `seed threads` pair per non-comment line.
pub fn adversarial_seeds() -> Vec<(u64, usize)> {
    SEED_CORPUS
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let mut fields = line.split_whitespace();
            let seed = fields
                .next()
                .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
                .expect("corpus line must start with a hex seed");
            let threads = fields
                .next()
                .and_then(|s| s.parse().ok())
                .expect("corpus line must carry a thread count");
            (seed, threads)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn controller_is_deterministic_per_seed() {
        let a = Controller::new(42);
        let b = Controller::new(42);
        for point in [SchedPoint::Push, SchedPoint::Steal, SchedPoint::PopOwn] {
            assert_eq!(a.decide(point), b.decide(point));
        }
        assert_eq!(
            a.state.lock().unwrap().trace_hash,
            b.state.lock().unwrap().trace_hash,
        );
    }

    #[test]
    fn single_scenario_runs_every_task_exactly_once() {
        let report = run_scenario(0xdead_beef, 2);
        assert!(report.events > 0, "the controller saw no pool activity");
    }

    #[test]
    fn adversarial_seed_corpus_replays_exactly_once() {
        let corpus = adversarial_seeds();
        assert!(corpus.len() >= 16, "corpus unexpectedly small");
        for (seed, threads) in corpus {
            run_scenario(seed, threads);
        }
    }

    /// The acceptance bar for the concurrency audit: at least 1000 distinct
    /// interleavings explored, every one of them passing the exactly-once and
    /// no-join-trap asserts inside `run_scenario`.
    #[test]
    fn thousand_distinct_interleavings_exactly_once() {
        let reports = sweep(1100);
        let distinct: HashSet<u64> = reports.iter().map(|r| r.trace_hash).collect();
        assert!(
            distinct.len() >= 1000,
            "only {} distinct interleavings across {} runs",
            distinct.len(),
            reports.len(),
        );
    }

    /// Ranks sweep seeds by observed contention; run with `--ignored
    /// --nocapture` to regenerate `tests/schedule_seeds.txt`.
    #[test]
    #[ignore = "corpus generation helper, not a check"]
    fn rank_seeds_for_corpus() {
        let mut reports = sweep(400);
        reports.sort_by_key(|r| std::cmp::Reverse(r.sleeps * 1000 + r.events));
        for report in reports.iter().take(24) {
            println!(
                "{:#018x} {} # events={} yields={} sleeps={}",
                report.seed, report.threads, report.events, report.yields, report.sleeps,
            );
        }
    }
}
