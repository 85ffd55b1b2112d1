//! The dynamic batcher: many small concurrent requests in, few large
//! backend invocations out.
//!
//! Requests are split into segments of at most
//! [`BatcherConfig::max_batch_pairs`] pairs and queued per tenant. A
//! dedicated batcher thread watches the queues and flushes a batch when any
//! of three triggers fires:
//!
//! 1. **size** — pairs pending for one coalescing key (filter kind,
//!    threshold, read length) reach `max_batch_pairs`;
//! 2. **timer** — the oldest queued segment has waited
//!    `min(flush_interval, its request deadline)`;
//! 3. **idle** — no batch is executing and the oldest segment has waited at
//!    least `idle_coalesce` (work-conserving: never hold work back while the
//!    executors sit idle).
//!
//! Batch assembly runs deficit-weighted round-robin across tenants, so a
//! tenant with weight 3 drains three pairs for every pair of a weight-1
//! tenant under contention. Admission is bounded by
//! [`BatcherConfig::queue_capacity_pairs`]: over-capacity submissions are
//! rejected synchronously with a retry hint instead of growing the heap.
//! Cancellation drops a request's not-yet-batched segments; work already
//! handed to an executor is never interrupted.
//!
//! # Example
//!
//! ```
//! use gk_serve::batcher::BatcherConfig;
//! use std::time::Duration;
//!
//! // The knobs of the size-or-timeout flush policy:
//! let config = BatcherConfig::default()
//!     .with_max_batch_pairs(4096)                      // size trigger + batch capacity
//!     .with_flush_interval(Duration::from_millis(2))   // max coalescing wait
//!     .with_idle_coalesce(Duration::from_micros(100))  // flush-when-idle window
//!     .with_queue_capacity_pairs(1 << 20)              // backpressure bound
//!     .with_executors(1)                               // one simulated device
//!     .with_tenant_weight(7, 3);                       // tenant 7 gets 3× the share
//! assert!(config.coalesce);
//! ```

use gk_core::backend::{FilterBackend, FilterJob, FilterKind};
use gk_filters::traits::FilterDecision;
use gk_seq::pairs::SequencePair;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of the dynamic batcher. See the [module docs](self) for the
/// flush policy they drive.
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Batch capacity in pairs, and the size-trigger threshold. Requests
    /// larger than this are split into segments of at most this many pairs.
    pub max_batch_pairs: usize,
    /// Longest time a request may wait for coalescing partners before its
    /// batch is flushed (clamped per request by the request's own deadline).
    pub flush_interval: Duration,
    /// With every executor idle, flush after this much wait instead of the
    /// full interval — coalescing only pays while the device is busy.
    pub idle_coalesce: Duration,
    /// Total pairs admitted but not yet batched before submissions are
    /// rejected with a retry hint.
    pub queue_capacity_pairs: usize,
    /// Worker threads executing assembled batches. `1` models a single
    /// serialized device; more executors model concurrent kernel streams.
    pub executors: usize,
    /// `false` disables coalescing: every request executes alone, in
    /// arrival order — the unbatched baseline `serve_bench` compares against.
    pub coalesce: bool,
    /// Deficit round-robin quantum in pairs credited per weight unit per
    /// sweep.
    pub quantum_pairs: usize,
    /// Weight for tenants not listed in `weights`.
    pub default_weight: u32,
    /// Per-tenant `(tenant, weight)` overrides for the fair queue.
    pub weights: Vec<(u32, u32)>,
}

impl Default for BatcherConfig {
    fn default() -> BatcherConfig {
        BatcherConfig {
            max_batch_pairs: 8192,
            flush_interval: Duration::from_millis(2),
            idle_coalesce: Duration::from_micros(100),
            queue_capacity_pairs: 1 << 20,
            executors: 1,
            coalesce: true,
            quantum_pairs: 512,
            default_weight: 1,
            weights: Vec::new(),
        }
    }
}

impl BatcherConfig {
    /// Sets the batch capacity / size trigger.
    pub fn with_max_batch_pairs(mut self, pairs: usize) -> BatcherConfig {
        self.max_batch_pairs = pairs.max(1);
        self
    }

    /// Sets the flush interval (timer trigger).
    pub fn with_flush_interval(mut self, interval: Duration) -> BatcherConfig {
        self.flush_interval = interval;
        self
    }

    /// Sets the idle-flush window.
    pub fn with_idle_coalesce(mut self, window: Duration) -> BatcherConfig {
        self.idle_coalesce = window;
        self
    }

    /// Sets the admission bound in pairs.
    pub fn with_queue_capacity_pairs(mut self, pairs: usize) -> BatcherConfig {
        self.queue_capacity_pairs = pairs.max(1);
        self
    }

    /// Sets the executor thread count.
    pub fn with_executors(mut self, executors: usize) -> BatcherConfig {
        self.executors = executors.max(1);
        self
    }

    /// Enables or disables coalescing.
    pub fn with_coalesce(mut self, coalesce: bool) -> BatcherConfig {
        self.coalesce = coalesce;
        self
    }

    /// Sets the deficit round-robin quantum.
    pub fn with_quantum_pairs(mut self, pairs: usize) -> BatcherConfig {
        self.quantum_pairs = pairs.max(1);
        self
    }

    /// Overrides one tenant's fair-queue weight.
    pub fn with_tenant_weight(mut self, tenant: u32, weight: u32) -> BatcherConfig {
        self.weights.retain(|(t, _)| *t != tenant);
        self.weights.push((tenant, weight.max(1)));
        self
    }

    fn weight_for(&self, tenant: u32) -> u32 {
        self.weights
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, w)| *w)
            .unwrap_or(self.default_weight)
            .max(1)
    }
}

/// One filter request as the batcher sees it.
#[derive(Debug, Clone)]
pub struct Request {
    /// Tenant the request is accounted against.
    pub tenant: u32,
    /// Which filter to run.
    pub kind: FilterKind,
    /// Edit-distance threshold `e`.
    pub threshold: u32,
    /// Maximum queueing delay the submitter tolerates; the effective flush
    /// budget is `min(deadline, flush_interval)`.
    pub deadline: Duration,
    /// The pairs to filter.
    pub pairs: Vec<SequencePair>,
}

/// Terminal outcome delivered to a request's responder (exactly once per
/// accepted submission).
#[derive(Debug)]
pub enum Outcome {
    /// Decisions for every submitted pair, in submission order.
    Done(Vec<FilterDecision>),
    /// The request was cancelled before all of its work was batched.
    Cancelled,
}

/// Callback receiving a request's terminal [`Outcome`].
pub type Responder = Box<dyn FnOnce(Outcome) + Send + 'static>;

/// Synchronous admission failures. Anything admitted gets its outcome via
/// the responder instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; retry after the hint.
    QueueFull {
        /// Suggested client-side backoff before resubmitting.
        retry_after: Duration,
    },
    /// The batcher is shutting down.
    Closed,
}

/// Counters exposed for benches and the smoke leg.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatcherStats {
    /// Requests admitted (including empty ones answered inline).
    pub admitted: u64,
    /// Submissions rejected by backpressure.
    pub rejected: u64,
    /// Requests cancelled before execution.
    pub cancelled: u64,
    /// Batches handed to executors.
    pub batches: u64,
    /// Segments across all batches (≈ requests when requests fit one batch).
    pub batched_segments: u64,
    /// Pairs across all batches.
    pub batched_pairs: u64,
    /// Batches flushed by the size trigger.
    pub flush_size: u64,
    /// Batches flushed by the timer trigger.
    pub flush_timer: u64,
    /// Batches flushed by the idle trigger.
    pub flush_idle: u64,
    /// Batches flushed during drain or with coalescing off.
    pub flush_drain: u64,
}

/// Coalescing key: only homogeneous work shares a backend invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BatchKey {
    kind: FilterKind,
    threshold: u32,
    read_len: usize,
}

/// Shared per-request assembly: segments write their decision slices here;
/// the last one triggers the response.
struct Assembly {
    decisions: Vec<FilterDecision>,
    remaining: usize,
    cancelled: bool,
    responder: Option<Responder>,
}

/// A queued slice of one request, owning its pairs until batch assembly
/// moves them into the contiguous batch buffer.
struct Segment {
    ticket: u64,
    arrival: u64,
    enqueued: Instant,
    deadline: Duration,
    key: BatchKey,
    pairs: Vec<SequencePair>,
    dst_offset: usize,
    assembly: Arc<Mutex<Assembly>>,
}

struct BatchItem {
    batch_offset: usize,
    dst_offset: usize,
    len: usize,
    assembly: Arc<Mutex<Assembly>>,
}

struct Batch {
    key: BatchKey,
    pairs: Vec<SequencePair>,
    items: Vec<BatchItem>,
    reason: FlushReason,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushReason {
    Size,
    Timer,
    Idle,
    Drain,
}

struct TenantQueue {
    weight: u32,
    deficit: usize,
    queue: VecDeque<Segment>,
}

struct State {
    tenants: BTreeMap<u32, TenantQueue>,
    key_pairs: HashMap<BatchKey, usize>,
    pending_pairs: usize,
    next_arrival: u64,
    rr_last: Option<u32>,
    in_flight: usize,
    closed: bool,
    stats: BatcherStats,
}

struct Shared {
    config: BatcherConfig,
    backend: Arc<dyn FilterBackend>,
    state: Mutex<State>,
    work: Condvar,
}

/// Locks the batcher state, recovering from a poisoned mutex: the state is a
/// plain queue structure kept consistent at every unlock, so it stays usable
/// even if a peer thread panicked while holding the lock.
fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    match shared.state.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn lock_assembly(assembly: &Mutex<Assembly>) -> MutexGuard<'_, Assembly> {
    match assembly.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The dynamic batcher: owns the batcher thread and the executor pool.
///
/// See the [module docs](self) for the flush policy; see
/// [`crate`] docs for an end-to-end example.
pub struct Batcher {
    shared: Arc<Shared>,
    batcher_thread: Option<JoinHandle<()>>,
    executor_threads: Vec<JoinHandle<()>>,
}

impl Batcher {
    /// Starts the batcher and `config.executors` executor threads over
    /// `backend`.
    pub fn start(config: BatcherConfig, backend: Arc<dyn FilterBackend>) -> Batcher {
        let executors = config.executors.max(1);
        let shared = Arc::new(Shared {
            config,
            backend,
            state: Mutex::new(State {
                tenants: BTreeMap::new(),
                key_pairs: HashMap::new(),
                pending_pairs: 0,
                next_arrival: 0,
                rr_last: None,
                in_flight: 0,
                closed: false,
                stats: BatcherStats::default(),
            }),
            work: Condvar::new(),
        });
        let (batch_tx, batch_rx) = mpsc::sync_channel::<Batch>(executors);
        let batch_rx = Arc::new(Mutex::new(batch_rx));

        let executor_threads = (0..executors)
            .map(|index| {
                let shared = shared.clone();
                let rx = batch_rx.clone();
                std::thread::Builder::new()
                    .name(format!("gk-serve-exec-{index}"))
                    .spawn(move || executor_loop(&shared, &rx))
            })
            .filter_map(|handle| handle.ok())
            .collect();

        let batcher_thread = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("gk-serve-batcher".to_string())
                .spawn(move || batcher_loop(&shared, &batch_tx))
                .ok()
        };

        Batcher {
            shared,
            batcher_thread,
            executor_threads,
        }
    }

    /// Admits a request. `ticket` is the caller's handle for
    /// [`Batcher::cancel`]; `respond` receives the terminal [`Outcome`]
    /// exactly once. Synchronous `Err` means nothing was queued and
    /// `respond` will never be called.
    pub fn submit(
        &self,
        ticket: u64,
        request: Request,
        respond: Responder,
    ) -> Result<(), SubmitError> {
        let total = request.pairs.len();
        if total == 0 {
            // Nothing to batch: answer inline, outside the state lock.
            let mut guard = lock_state(&self.shared);
            if guard.closed {
                return Err(SubmitError::Closed);
            }
            guard.stats.admitted += 1;
            drop(guard);
            respond(Outcome::Done(Vec::new()));
            return Ok(());
        }

        let key = BatchKey {
            kind: request.kind,
            threshold: request.threshold,
            read_len: request.pairs[0].read_len(),
        };
        let assembly = Arc::new(Mutex::new(Assembly {
            decisions: vec![FilterDecision::reject(0); total],
            remaining: 0,
            cancelled: false,
            responder: Some(respond),
        }));

        let mut guard = lock_state(&self.shared);
        if guard.closed {
            return Err(SubmitError::Closed);
        }
        if guard.pending_pairs + total > self.shared.config.queue_capacity_pairs {
            guard.stats.rejected += 1;
            // Hint: one flush interval per whole queue of backlog ahead.
            let backlog = guard.pending_pairs / self.shared.config.max_batch_pairs.max(1) + 1;
            let retry_after = self
                .shared
                .config
                .flush_interval
                .saturating_mul(backlog.min(16) as u32)
                .max(Duration::from_micros(200));
            return Err(SubmitError::QueueFull { retry_after });
        }

        let mut pairs = request.pairs;
        let max = self.shared.config.max_batch_pairs;
        let mut segments = Vec::with_capacity(total.div_ceil(max));
        let mut dst_offset = 0;
        let enqueued = Instant::now();
        while !pairs.is_empty() {
            let take = pairs.len().min(max);
            let rest = pairs.split_off(take);
            let segment_pairs = std::mem::replace(&mut pairs, rest);
            let arrival = guard.next_arrival;
            guard.next_arrival += 1;
            segments.push(Segment {
                ticket,
                arrival,
                enqueued,
                deadline: request.deadline,
                key,
                dst_offset,
                pairs: segment_pairs,
                assembly: assembly.clone(),
            });
            dst_offset += take;
        }
        lock_assembly(&assembly).remaining = segments.len();

        let weight = self.shared.config.weight_for(request.tenant);
        let tenant = guard
            .tenants
            .entry(request.tenant)
            .or_insert_with(|| TenantQueue {
                weight,
                deficit: 0,
                queue: VecDeque::new(),
            });
        tenant.queue.extend(segments);
        guard.pending_pairs += total;
        *guard.key_pairs.entry(key).or_insert(0) += total;
        guard.stats.admitted += 1;
        drop(guard);
        self.shared.work.notify_all();
        Ok(())
    }

    /// Cancels a request by ticket. Only not-yet-batched segments are
    /// dropped: if any were still queued the whole request resolves to
    /// [`Outcome::Cancelled`] (partial executed work is discarded) and this
    /// returns `true`; if everything was already batched the request
    /// completes normally and this returns `false`.
    pub fn cancel(&self, ticket: u64) -> bool {
        let mut guard = lock_state(&self.shared);
        let mut dropped_pairs = 0usize;
        let mut assembly: Option<Arc<Mutex<Assembly>>> = None;
        let mut dropped_segments = 0usize;
        for tenant in guard.tenants.values_mut() {
            tenant.queue.retain(|segment| {
                if segment.ticket == ticket {
                    dropped_pairs += segment.pairs.len();
                    dropped_segments += 1;
                    assembly = Some(segment.assembly.clone());
                    false
                } else {
                    true
                }
            });
        }
        let Some(assembly) = assembly else {
            return false;
        };
        guard.pending_pairs -= dropped_pairs;
        let responder = {
            let mut asm = lock_assembly(&assembly);
            asm.cancelled = true;
            asm.remaining -= dropped_segments;
            asm.decisions = Vec::new();
            asm.responder.take()
        };
        // key_pairs bookkeeping: the dropped segments all share one key.
        let keys: Vec<BatchKey> = guard.key_pairs.keys().copied().collect();
        for key in keys {
            let live: usize = guard
                .tenants
                .values()
                .flat_map(|t| t.queue.iter())
                .filter(|s| s.key == key)
                .map(|s| s.pairs.len())
                .sum();
            if live == 0 {
                guard.key_pairs.remove(&key);
            } else {
                guard.key_pairs.insert(key, live);
            }
        }
        guard.stats.cancelled += 1;
        drop(guard);
        if let Some(respond) = responder {
            respond(Outcome::Cancelled);
        }
        true
    }

    /// Snapshot of the batcher counters.
    pub fn stats(&self) -> BatcherStats {
        lock_state(&self.shared).stats
    }

    /// Drains queued work, answers every outstanding request and joins the
    /// worker threads. Called by `Drop` as well; explicit calls are only for
    /// deterministic teardown points.
    pub fn shutdown(&mut self) {
        {
            let mut guard = lock_state(&self.shared);
            guard.closed = true;
        }
        self.shared.work.notify_all();
        if let Some(handle) = self.batcher_thread.take() {
            let _ = handle.join();
        }
        for handle in self.executor_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn batcher_loop(shared: &Shared, batch_tx: &mpsc::SyncSender<Batch>) {
    let config = &shared.config;
    let mut guard = lock_state(shared);
    loop {
        let oldest = guard
            .tenants
            .values()
            .filter_map(|tenant| tenant.queue.front())
            .min_by_key(|segment| segment.arrival)
            .map(|segment| (segment.key, segment.enqueued, segment.deadline));
        let Some((key, enqueued, deadline)) = oldest else {
            if guard.closed {
                return; // Dropping batch_tx ends the executors after drain.
            }
            guard = match shared.work.wait(guard) {
                Ok(next) => next,
                Err(poisoned) => poisoned.into_inner(),
            };
            continue;
        };

        let age = enqueued.elapsed();
        let budget = deadline.min(config.flush_interval);
        let key_pending = guard.key_pairs.get(&key).copied().unwrap_or(0);
        let reason = if guard.closed || !config.coalesce {
            Some(FlushReason::Drain)
        } else if key_pending >= config.max_batch_pairs {
            Some(FlushReason::Size)
        } else if age >= budget {
            Some(FlushReason::Timer)
        } else if guard.in_flight == 0 && age >= config.idle_coalesce {
            Some(FlushReason::Idle)
        } else {
            None
        };

        if let Some(reason) = reason {
            if let Some(batch) = assemble(&mut guard, key, config, reason) {
                guard.in_flight += 1;
                guard.stats.batches += 1;
                guard.stats.batched_segments += batch.items.len() as u64;
                guard.stats.batched_pairs += batch.pairs.len() as u64;
                match batch.reason {
                    FlushReason::Size => guard.stats.flush_size += 1,
                    FlushReason::Timer => guard.stats.flush_timer += 1,
                    FlushReason::Idle => guard.stats.flush_idle += 1,
                    FlushReason::Drain => guard.stats.flush_drain += 1,
                }
                drop(guard);
                if batch_tx.send(batch).is_err() {
                    return; // Executors are gone; nothing left to do.
                }
                guard = lock_state(shared);
            }
        } else {
            let mut timeout = budget.saturating_sub(age);
            if guard.in_flight == 0 {
                timeout = timeout.min(config.idle_coalesce.saturating_sub(age));
            }
            let wait = timeout.max(Duration::from_micros(50));
            guard = match shared.work.wait_timeout(guard, wait) {
                Ok((next, _)) => next,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

/// Builds one batch for `key` by deficit-weighted round-robin over the
/// tenant queues. With coalescing off, takes exactly the globally oldest
/// segment. Returns `None` only if the queues emptied concurrently.
fn assemble(
    state: &mut State,
    key: BatchKey,
    config: &BatcherConfig,
    reason: FlushReason,
) -> Option<Batch> {
    let mut pairs: Vec<SequencePair> = Vec::new();
    let mut items: Vec<BatchItem> = Vec::new();

    let take_segment = |state: &mut State,
                        tenant_id: u32,
                        index: usize,
                        pairs: &mut Vec<SequencePair>,
                        items: &mut Vec<BatchItem>| {
        let Some(tenant) = state.tenants.get_mut(&tenant_id) else {
            return;
        };
        let Some(mut segment) = tenant.queue.remove(index) else {
            return;
        };
        let len = segment.pairs.len();
        tenant.deficit = tenant.deficit.saturating_sub(len);
        state.pending_pairs -= len;
        match state.key_pairs.get_mut(&segment.key) {
            Some(count) if *count > len => *count -= len,
            _ => {
                state.key_pairs.remove(&segment.key);
            }
        }
        items.push(BatchItem {
            batch_offset: pairs.len(),
            dst_offset: segment.dst_offset,
            len,
            assembly: segment.assembly.clone(),
        });
        pairs.append(&mut segment.pairs);
    };

    if !config.coalesce {
        // Solo mode: the globally oldest segment, alone.
        let target = state
            .tenants
            .iter()
            .filter_map(|(id, tenant)| tenant.queue.front().map(|s| (s.arrival, *id)))
            .min()?;
        take_segment(state, target.1, 0, &mut pairs, &mut items);
    } else {
        let tenant_ids: Vec<u32> = state.tenants.keys().copied().collect();
        let start = state
            .rr_last
            .and_then(|last| tenant_ids.iter().position(|&id| id > last))
            .unwrap_or(0);
        // Bounded by construction: each sweep either takes a segment or
        // grows every matching tenant's deficit by ≥ quantum_pairs, and a
        // segment is never longer than max_batch_pairs.
        let max_sweeps = config.max_batch_pairs / config.quantum_pairs.max(1) + 2;
        for _ in 0..max_sweeps {
            if pairs.len() >= config.max_batch_pairs {
                break;
            }
            let mut any_matching = false;
            let mut took_any = false;
            for offset in 0..tenant_ids.len() {
                let tenant_id = tenant_ids[(start + offset) % tenant_ids.len()];
                let matching = {
                    let Some(tenant) = state.tenants.get_mut(&tenant_id) else {
                        continue;
                    };
                    if tenant.queue.iter().any(|s| s.key == key) {
                        tenant.deficit = tenant
                            .deficit
                            .saturating_add(tenant.weight as usize * config.quantum_pairs);
                        true
                    } else {
                        tenant.deficit = 0;
                        false
                    }
                };
                if !matching {
                    continue;
                }
                any_matching = true;
                loop {
                    if pairs.len() >= config.max_batch_pairs {
                        break;
                    }
                    let next = state.tenants.get(&tenant_id).and_then(|tenant| {
                        tenant.queue.iter().position(|s| {
                            s.key == key
                                && s.pairs.len() <= tenant.deficit
                                && (pairs.is_empty()
                                    || pairs.len() + s.pairs.len() <= config.max_batch_pairs)
                        })
                    });
                    match next {
                        Some(index) => {
                            take_segment(state, tenant_id, index, &mut pairs, &mut items);
                            took_any = true;
                        }
                        None => break,
                    }
                }
                state.rr_last = Some(tenant_id);
            }
            if !any_matching || (!took_any && !pairs.is_empty()) {
                break;
            }
        }
        // Progress guarantee: a flush must always move the oldest segment.
        if items.is_empty() {
            let target = state
                .tenants
                .iter()
                .filter_map(|(id, tenant)| {
                    tenant
                        .queue
                        .iter()
                        .position(|s| s.key == key)
                        .map(|index| (tenant.queue[index].arrival, *id, index))
                })
                .min()?;
            take_segment(state, target.1, target.2, &mut pairs, &mut items);
        }
    }

    if items.is_empty() {
        return None;
    }
    Some(Batch {
        key,
        pairs,
        items,
        reason,
    })
}

fn executor_loop(shared: &Shared, rx: &Mutex<mpsc::Receiver<Batch>>) {
    loop {
        let batch = {
            let receiver = match rx.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            receiver.recv()
        };
        let Ok(batch) = batch else {
            return; // Channel closed: batcher drained and exited.
        };

        let job = FilterJob::new(batch.key.kind, batch.key.threshold, &batch.pairs)
            .with_read_len(batch.key.read_len);
        let decisions = shared.backend.run(&job);
        assert_eq!(
            decisions.len(),
            batch.pairs.len(),
            "backend returned a decision count mismatching its job"
        );

        for item in &batch.items {
            let mut asm = lock_assembly(&item.assembly);
            if !asm.cancelled {
                asm.decisions[item.dst_offset..item.dst_offset + item.len]
                    .copy_from_slice(&decisions[item.batch_offset..item.batch_offset + item.len]);
            }
            asm.remaining -= 1;
            if asm.remaining == 0 && !asm.cancelled {
                if let Some(respond) = asm.responder.take() {
                    let decisions = std::mem::take(&mut asm.decisions);
                    drop(asm);
                    respond(Outcome::Done(decisions));
                }
            }
        }

        let mut guard = lock_state(shared);
        guard.in_flight -= 1;
        drop(guard);
        shared.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_core::backend::CpuSimdBackend;
    use gk_filters::traits::decision_digest;
    use gk_seq::datasets::DatasetProfile;
    use std::sync::mpsc;

    fn backend() -> Arc<dyn FilterBackend> {
        Arc::new(CpuSimdBackend::new(1))
    }

    fn pairs(count: usize, seed: u64) -> Vec<SequencePair> {
        DatasetProfile::set3().generate(count, seed).pairs
    }

    fn request(tenant: u32, pairs: Vec<SequencePair>) -> Request {
        Request {
            tenant,
            kind: FilterKind::GateKeeper,
            threshold: 2,
            deadline: Duration::from_millis(50),
            pairs,
        }
    }

    fn responder(tx: mpsc::Sender<Outcome>) -> Responder {
        Box::new(move |outcome| {
            let _ = tx.send(outcome);
        })
    }

    #[test]
    fn batched_decisions_match_direct_backend() {
        let backend = backend();
        let batcher = Batcher::start(BatcherConfig::default(), backend.clone());
        let input = pairs(300, 7);
        let direct = backend.run(&FilterJob::new(FilterKind::GateKeeper, 2, &input));

        let (tx, rx) = mpsc::channel();
        batcher
            .submit(1, request(0, input), responder(tx))
            .expect("admitted");
        match rx.recv_timeout(Duration::from_secs(5)).expect("outcome") {
            Outcome::Done(decisions) => {
                assert_eq!(decision_digest(&decisions), decision_digest(&direct));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn oversized_requests_split_and_reassemble() {
        let backend = backend();
        let config = BatcherConfig::default().with_max_batch_pairs(128);
        let batcher = Batcher::start(config, backend.clone());
        let input = pairs(1000, 11); // 8 segments
        let direct = backend.run(&FilterJob::new(FilterKind::GateKeeper, 2, &input));

        let (tx, rx) = mpsc::channel();
        batcher
            .submit(1, request(0, input), responder(tx))
            .expect("admitted");
        match rx.recv_timeout(Duration::from_secs(5)).expect("outcome") {
            Outcome::Done(decisions) => {
                assert_eq!(decisions.len(), 1000);
                assert_eq!(decision_digest(&decisions), decision_digest(&direct));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn empty_request_answers_inline() {
        let batcher = Batcher::start(BatcherConfig::default(), backend());
        let (tx, rx) = mpsc::channel();
        batcher
            .submit(1, request(0, Vec::new()), responder(tx))
            .expect("admitted");
        match rx.recv_timeout(Duration::from_secs(1)).expect("outcome") {
            Outcome::Done(decisions) => assert!(decisions.is_empty()),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn backpressure_rejects_with_retry_hint() {
        // A backend that blocks until released, so the queue can fill.
        struct Gate(Mutex<()>, Arc<dyn FilterBackend>);
        impl FilterBackend for Gate {
            fn name(&self) -> &str {
                "gate"
            }
            fn run(&self, job: &FilterJob<'_>) -> Vec<FilterDecision> {
                let _hold = self.0.lock();
                self.1.run(job)
            }
        }
        let inner = backend();
        let gate = Arc::new(Gate(Mutex::new(()), inner));
        let config = BatcherConfig::default()
            .with_queue_capacity_pairs(64)
            .with_max_batch_pairs(32)
            .with_flush_interval(Duration::from_micros(100));
        let batcher = Batcher::start(config, gate.clone());

        let guard = gate.0.lock().expect("gate");
        let (tx, rx) = mpsc::channel();
        let mut rejected = None;
        // Keep submitting until the 64-pair bound trips (in-flight work
        // drains at most one 32-pair batch into the blocked executor).
        for ticket in 0..16 {
            match batcher.submit(ticket, request(0, pairs(16, ticket)), responder(tx.clone())) {
                Ok(()) => {}
                Err(err) => {
                    rejected = Some(err);
                    break;
                }
            }
        }
        let Some(SubmitError::QueueFull { retry_after }) = rejected else {
            panic!("queue never filled: {rejected:?}");
        };
        assert!(retry_after > Duration::ZERO);
        drop(guard);
        drop(tx);
        // Every admitted request still completes.
        while let Ok(outcome) = rx.recv_timeout(Duration::from_secs(5)) {
            assert!(matches!(outcome, Outcome::Done(_)));
        }
        assert!(batcher.stats().rejected >= 1);
    }

    #[test]
    fn cancel_drops_queued_work() {
        // Hold the executor on a first batch so a second request stays queued.
        // The gated backend signals when a batch starts, then blocks until the
        // test drops its hold on the gate.
        struct Gated {
            inner: Arc<dyn FilterBackend>,
            started: mpsc::Sender<()>,
            gate: Mutex<()>,
        }
        impl FilterBackend for Gated {
            fn name(&self) -> &str {
                "gated"
            }
            fn run(&self, job: &FilterJob<'_>) -> Vec<FilterDecision> {
                let _ = self.started.send(());
                let _hold = self.gate.lock();
                self.inner.run(job)
            }
        }
        // A flush interval far longer than the test: request 1 leaves the
        // queue by the idle trigger, and request 2 (arriving while request 1
        // executes) by nothing but `cancel`.
        let hour = Duration::from_secs(3600);
        let (started_tx, started) = mpsc::channel();
        let gated = Arc::new(Gated {
            inner: backend(),
            started: started_tx,
            gate: Mutex::new(()),
        });
        let batcher = Batcher::start(
            BatcherConfig::default().with_flush_interval(hour),
            gated.clone(),
        );
        let hold = gated.gate.lock().expect("gate");
        let (tx1, rx1) = mpsc::channel();
        let (tx2, rx2) = mpsc::channel();
        batcher
            .submit(1, request(0, pairs(8, 1)), responder(tx1))
            .expect("admitted");
        started
            .recv_timeout(Duration::from_secs(5))
            .expect("request 1 reached the executor");
        let queued = Request {
            deadline: hour,
            ..request(0, pairs(8, 2))
        };
        batcher.submit(2, queued, responder(tx2)).expect("admitted");
        assert!(batcher.cancel(2), "request 2 was still queued");
        assert!(!batcher.cancel(2), "double cancel is a no-op");
        assert!(!batcher.cancel(99), "unknown ticket is a no-op");
        match rx2.recv_timeout(Duration::from_secs(5)).expect("outcome") {
            Outcome::Cancelled => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        drop(hold);
        match rx1.recv_timeout(Duration::from_secs(5)).expect("outcome") {
            Outcome::Done(decisions) => assert_eq!(decisions.len(), 8),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(batcher.stats().cancelled, 1);
    }

    #[test]
    fn weighted_tenants_drain_proportionally() {
        // Stall the executor, enqueue contending tenants, then release and
        // inspect the first full batch's composition.
        struct Slow(Arc<dyn FilterBackend>);
        impl FilterBackend for Slow {
            fn name(&self) -> &str {
                "slow"
            }
            fn run(&self, job: &FilterJob<'_>) -> Vec<FilterDecision> {
                std::thread::sleep(Duration::from_millis(30));
                self.0.run(job)
            }
        }
        let config = BatcherConfig::default()
            .with_max_batch_pairs(256)
            .with_quantum_pairs(64)
            .with_tenant_weight(1, 3)
            .with_tenant_weight(2, 1);
        let batcher = Batcher::start(config, Arc::new(Slow(backend())));

        // Request 0 occupies the executor.
        let (tx0, rx0) = mpsc::channel();
        batcher
            .submit(0, request(9, pairs(4, 0)), responder(tx0))
            .expect("admitted");
        std::thread::sleep(Duration::from_millis(10));

        // Both tenants pile up 4 × 64-pair requests behind it.
        let mut receivers = Vec::new();
        let mut ticket = 10;
        for tenant in [1u32, 2u32] {
            for _ in 0..4 {
                let (tx, rx) = mpsc::channel();
                batcher
                    .submit(ticket, request(tenant, pairs(64, ticket)), responder(tx))
                    .expect("admitted");
                receivers.push((tenant, rx));
                ticket += 1;
            }
        }
        // Wait for everything; order of completion reflects batch packing.
        let mut completion: Vec<(u32, Instant)> = Vec::new();
        for (tenant, rx) in receivers {
            let outcome = rx.recv_timeout(Duration::from_secs(10)).expect("outcome");
            assert!(matches!(outcome, Outcome::Done(_)));
            completion.push((tenant, Instant::now()));
        }
        drop(rx0);
        // The 256-pair first batch after release holds 3 × tenant-1 and
        // 1 × tenant-2 requests under 3:1 weights; batches were cut, so
        // more than one batch ran in total.
        let stats = batcher.stats();
        assert!(stats.batches >= 2, "expected multiple batches: {stats:?}");
    }

    #[test]
    fn solo_mode_executes_per_request() {
        let backend = backend();
        let config = BatcherConfig::default().with_coalesce(false);
        let batcher = Batcher::start(config, backend.clone());
        let mut expected = Vec::new();
        let mut receivers = Vec::new();
        for ticket in 0..6 {
            let input = pairs(32, 100 + ticket);
            expected.push(backend.run(&FilterJob::new(FilterKind::GateKeeper, 2, &input)));
            let (tx, rx) = mpsc::channel();
            batcher
                .submit(ticket, request(0, input), responder(tx))
                .expect("admitted");
            receivers.push(rx);
        }
        for (rx, direct) in receivers.into_iter().zip(expected) {
            match rx.recv_timeout(Duration::from_secs(5)).expect("outcome") {
                Outcome::Done(decisions) => {
                    assert_eq!(decision_digest(&decisions), decision_digest(&direct));
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        let stats = batcher.stats();
        assert_eq!(stats.batches, 6, "solo mode must not coalesce: {stats:?}");
    }

    #[test]
    fn shutdown_drains_outstanding_requests() {
        let mut batcher = Batcher::start(
            BatcherConfig::default().with_flush_interval(Duration::from_millis(20)),
            backend(),
        );
        let (tx, rx) = mpsc::channel();
        for ticket in 0..4 {
            batcher
                .submit(ticket, request(0, pairs(16, ticket)), responder(tx.clone()))
                .expect("admitted");
        }
        batcher.shutdown();
        drop(tx);
        let outcomes: Vec<Outcome> = rx.iter().collect();
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|o| matches!(o, Outcome::Done(_))));
        assert!(matches!(
            batcher.submit(9, request(0, pairs(1, 9)), Box::new(|_| {})),
            Err(SubmitError::Closed)
        ));
    }
}
