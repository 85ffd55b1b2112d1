//! The chunked, triple-buffered batch pipeline.
//!
//! GateKeeper-GPU submits each input buffer's prefetch on its own CUDA stream so
//! transfers overlap with kernel execution (§3.4). This module generalises that
//! into a three-stage software pipeline over *chunks* of a batch:
//!
//! ```text
//!   h2d    | prep+encode+H2D c0 | prep+encode+H2D c1 | prep+encode+H2D c2 | …
//!   kernel |                    | kernel c0          | kernel c1          | …
//!   d2h    |                    |                    | readback c0        | …
//! ```
//!
//! While the kernel runs chunk *i*, the host prepares, encodes and uploads chunk
//! *i+1* and the read-back of chunk *i−1* drains — classic triple buffering with
//! three buffer slots rotating through the stages. [`PipelineSchedule`] drives a
//! [`Timeline`] with exactly those cross-stream dependencies and reports the
//! overlapped makespan next to the serialized component sum; [`ChunkPlan`]
//! resolves the chunk size from the [`FilterConfig`] knobs and the
//! system-configuration step's batch capacity.
//!
//! The types here account *simulated time*: decisions are computed chunk by
//! chunk in input order and are byte-identical whether overlap is on or off.
//! The engine driving them (`gk-core::gpu`) additionally overlaps real host
//! work when [`FilterConfig::host_prefetch`] is set — chunk *i+1*'s prep+encode
//! runs as a worker-pool task while chunk *i*'s kernel closure executes, with
//! at most [`PREFETCH_IN_FLIGHT`] encoded chunks in flight — shrinking the
//! *measured* wall-clock (`TimingBreakdown::host_wall_seconds`) without
//! touching the simulated splits.

use crate::config::{FilterConfig, SystemConfig};
use crate::timing::TimingBreakdown;
use gk_gpusim::memory::MemoryStats;
use gk_gpusim::stream::Event;
use gk_gpusim::timeline::{StreamId, Timeline};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Number of buffer slots rotating through the three pipeline stages: chunk
/// *i*'s upload may only start once chunk *i − 3*'s read-back has freed a slot.
pub const BUFFER_SLOTS: usize = 3;

/// Maximum number of *encoded* chunks the host-side prefetch keeps in flight:
/// one being consumed by the kernel closure plus one encoding ahead on the
/// worker pool. Bounded at `BUFFER_SLOTS − 1` so real memory usage mirrors the
/// simulated buffer-slot rotation (the third slot is the drained read-back,
/// which holds no encoded input).
pub const PREFETCH_IN_FLIGHT: usize = BUFFER_SLOTS - 1;

/// Smallest chunk the contention-aware refinement will shrink to: below a few
/// hundred pairs the fixed kernel-launch overhead starts to dominate whatever
/// the finer transfer interleaving saves on the shared link.
pub const MIN_CONTENDED_CHUNK_PAIRS: usize = 256;

/// How a pair set is cut into pipeline chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkPlan {
    /// Pairs per chunk (every chunk but possibly the last is exactly this big).
    pub chunk_pairs: usize,
}

impl ChunkPlan {
    /// Resolves the chunk size for a configuration on a configured system.
    ///
    /// Priority: an explicit `chunk_pairs` knob (capped at the batch capacity);
    /// otherwise the full batch capacity when serialized — the pre-pipeline
    /// behaviour — or a third of it when overlapping, so the [`BUFFER_SLOTS`]
    /// in-flight chunks together still fit the memory budget the
    /// system-configuration step derived.
    ///
    /// The capacity itself is encoding-mode-dependent: with device encode the
    /// buffer slots hold **raw** 1-byte-per-base sequences (~4× the packed
    /// words), so the
    /// system-configuration step derives a smaller `batch_size` and every slot
    /// of the rotation shrinks with it. The plan never has to know which mode
    /// is active beyond that: raw slots are sized exactly like encoded ones,
    /// just over a bigger per-pair footprint.
    pub fn resolve(config: &FilterConfig, system: &SystemConfig) -> ChunkPlan {
        let capacity = system.batch_size.min(config.max_reads_per_batch).max(1);
        let chunk_pairs = if config.chunk_pairs > 0 {
            config.chunk_pairs.min(capacity)
        } else if config.overlap {
            (capacity / BUFFER_SLOTS).max(1)
        } else {
            capacity
        };
        ChunkPlan { chunk_pairs }
    }

    /// Contention-aware refinement: divides the chunk size by the number of
    /// devices sharing this device's host link (from
    /// `gk_gpusim::topology::Topology::sharers`), floored at
    /// [`MIN_CONTENDED_CHUNK_PAIRS`]. One huge chunk per device makes every
    /// sharer's upload collide in a single serialized burst after the host
    /// prep; `sharers`-times-finer chunks let each device's transfer slip into
    /// the link gaps the other devices' host-prep stages leave open, which is
    /// what buys the topology-aware schedule its makespan win on shared links.
    /// A no-op for `sharers <= 1` (private links keep the resolved size).
    pub fn with_link_sharers(mut self, sharers: usize) -> ChunkPlan {
        if sharers > 1 {
            self.chunk_pairs = (self.chunk_pairs / sharers)
                .max(MIN_CONTENDED_CHUNK_PAIRS)
                .min(self.chunk_pairs)
                .max(1);
        }
        self
    }

    /// Number of chunks a run over `total` pairs produces.
    pub fn chunk_count(&self, total: usize) -> usize {
        total.div_ceil(self.chunk_pairs.max(1))
    }

    /// Half-open `[start, end)` pair ranges of every chunk, in order.
    pub fn ranges(&self, total: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let size = self.chunk_pairs.max(1);
        (0..self.chunk_count(total)).map(move |i| (i * size, ((i + 1) * size).min(total)))
    }

    /// Round-robin assignment of chunks to `shards` workers (multi-GPU sharding):
    /// shard `s` receives the ranges of chunks `s, s + shards, s + 2·shards, …`.
    pub fn round_robin(&self, total: usize, shards: usize) -> Vec<Vec<(usize, usize)>> {
        let shards = shards.max(1);
        let mut assignment = vec![Vec::new(); shards];
        for (i, range) in self.ranges(total).enumerate() {
            assignment[i % shards].push(range);
        }
        assignment
    }
}

/// Modelled stage durations of one chunk, as enqueued on the three streams.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ChunkStageSeconds {
    /// Host stage: buffer preparation + encoding + asynchronous H2D prefetch.
    pub h2d_seconds: f64,
    /// Device stage: on-demand page faults (prefetch-less devices) + kernel.
    pub kernel_seconds: f64,
    /// Drain stage: result read-back to the host.
    pub d2h_seconds: f64,
}

/// What the pipeline scheduler measured over one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Chunks (= kernel launches) the run was cut into.
    pub chunks: usize,
    /// Pairs per chunk the plan resolved to.
    pub chunk_pairs: usize,
    /// Whether the run's reported filter time used the overlapped makespan.
    pub overlap: bool,
    /// End-to-end simulated time with the three stages overlapped across chunks.
    pub overlapped_seconds: f64,
    /// The same work executed stage after stage, chunk after chunk.
    pub serialized_seconds: f64,
    /// Whether the run's host side actually prefetched: chunk *i+1*'s
    /// prep+encode executed on the worker pool while chunk *i*'s kernel
    /// closure ran. `false` when the knob was off *or* the pool was
    /// sequential (`RAYON_NUM_THREADS=1` fallback).
    pub host_prefetch: bool,
    /// Whether the run used the device-side encoding execution path (raw
    /// 1-byte-per-base uploads + fused encode+filter kernel) instead of host
    /// `encode_pair_batch`.
    pub device_encode: bool,
    /// Ill-formed simulated durations saturated to zero by the timeline (see
    /// `gk_gpusim::stream::Stream::anomalies`). Always `0` on a healthy run;
    /// non-zero means a release build absorbed what a debug build would have
    /// asserted on, and the reported makespan is a lower bound.
    pub timing_anomalies: u64,
}

impl PipelineReport {
    /// Seconds the overlap saves versus serializing.
    pub fn savings_seconds(&self) -> f64 {
        (self.serialized_seconds - self.overlapped_seconds).max(0.0)
    }

    /// Serialized-over-overlapped speedup (≥ 1 whenever there is any overlap).
    pub fn speedup(&self) -> f64 {
        if self.overlapped_seconds <= 0.0 {
            1.0
        } else {
            self.serialized_seconds / self.overlapped_seconds
        }
    }
}

/// Drives a [`Timeline`] with the triple-buffered H2D / kernel / D2H dependency
/// structure, one [`ChunkStageSeconds`] at a time.
#[derive(Debug, Clone)]
pub struct PipelineSchedule {
    timeline: Timeline,
    h2d: StreamId,
    kernel: StreamId,
    d2h: StreamId,
    /// Completion events of the most recent read-backs; the front one gates the
    /// next upload once all [`BUFFER_SLOTS`] slots are in flight.
    drained: VecDeque<Event>,
    chunks: usize,
}

impl Default for PipelineSchedule {
    fn default() -> PipelineSchedule {
        PipelineSchedule::new()
    }
}

impl PipelineSchedule {
    /// Creates an empty schedule with its three stage streams.
    pub fn new() -> PipelineSchedule {
        let mut timeline = Timeline::new();
        let h2d = timeline.add_stream("h2d");
        let kernel = timeline.add_stream("kernel");
        let d2h = timeline.add_stream("d2h");
        PipelineSchedule {
            timeline,
            h2d,
            kernel,
            d2h,
            drained: VecDeque::with_capacity(BUFFER_SLOTS),
            chunks: 0,
        }
    }

    /// Enqueues one chunk: its upload waits for a free buffer slot, its kernel
    /// waits for its upload, its read-back waits for its kernel — and each
    /// stream serializes its own chunks, which is what lets adjacent chunks
    /// overlap across streams.
    pub fn record_chunk(&mut self, stages: &ChunkStageSeconds) {
        let i = self.chunks;
        if self.drained.len() >= BUFFER_SLOTS {
            if let Some(slot_free) = self.drained.pop_front() {
                self.timeline
                    .wait_event(self.h2d, format!("wait slot (chunk {i})"), &slot_free);
            }
        }
        let uploaded =
            self.timeline
                .enqueue(self.h2d, format!("prep+encode+h2d {i}"), stages.h2d_seconds);
        self.timeline
            .wait_event(self.kernel, format!("wait h2d {i}"), &uploaded);
        let computed =
            self.timeline
                .enqueue(self.kernel, format!("kernel {i}"), stages.kernel_seconds);
        self.timeline
            .wait_event(self.d2h, format!("wait kernel {i}"), &computed);
        let drained = self
            .timeline
            .enqueue(self.d2h, format!("readback {i}"), stages.d2h_seconds);
        self.drained.push_back(drained);
        self.chunks += 1;
    }

    /// Chunks recorded so far.
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// The underlying timeline (for inspection / reporting).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Overlapped end-to-end time of everything recorded so far.
    pub fn overlapped_seconds(&self) -> f64 {
        self.timeline.makespan_seconds()
    }

    /// Serialized sum of everything recorded so far.
    pub fn serialized_seconds(&self) -> f64 {
        self.timeline.serialized_seconds()
    }

    /// Builds the report for a finished run.
    pub fn report(
        &self,
        chunk_pairs: usize,
        overlap: bool,
        host_prefetch: bool,
        device_encode: bool,
    ) -> PipelineReport {
        PipelineReport {
            chunks: self.chunks,
            chunk_pairs,
            overlap,
            overlapped_seconds: self.overlapped_seconds(),
            serialized_seconds: self.serialized_seconds(),
            host_prefetch,
            device_encode,
            timing_anomalies: self.timeline.anomalies(),
        }
    }
}

/// Aggregate result of filtering a *stream* of pair batches, where per-pair
/// decisions are handed to a sink chunk by chunk instead of being materialized
/// (the 30M-pair whole-genome path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamFilterRun {
    /// Pairs filtered.
    pub pairs: usize,
    /// Pairs accepted (including undefined pass-throughs).
    pub accepted: usize,
    /// Undefined pairs passed through without filtration.
    pub undefined: usize,
    /// Timing breakdown (overlapped makespan included when overlap was on).
    pub timing: TimingBreakdown,
    /// Number of batched kernel calls.
    pub batches: usize,
    /// Unified-memory traffic over the whole run.
    pub memory_stats: MemoryStats,
    /// Overlapped-versus-serialized pipeline accounting.
    pub pipeline: PipelineReport,
}

impl StreamFilterRun {
    /// Pairs rejected.
    pub fn rejected(&self) -> usize {
        self.pairs - self.accepted
    }

    /// Host-observed filter time in seconds.
    pub fn filter_seconds(&self) -> f64 {
        self.timing.filter_seconds()
    }

    /// Summed device kernel time in seconds.
    pub fn kernel_seconds(&self) -> f64 {
        self.timing.kernel_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_gpusim::device::DeviceSpec;

    fn plan(config: FilterConfig) -> (ChunkPlan, SystemConfig) {
        let system = SystemConfig::configure(&DeviceSpec::gtx_1080_ti(), &config);
        (ChunkPlan::resolve(&config, &system), system)
    }

    #[test]
    fn serialized_plan_keeps_the_full_batch_capacity() {
        let config = FilterConfig::new(100, 5).with_max_reads_per_batch(10_000);
        let (chunks, system) = plan(config);
        assert_eq!(chunks.chunk_pairs, system.batch_size.min(10_000));
    }

    #[test]
    fn overlapped_plan_sizes_chunks_for_three_slots() {
        // Default capacity is the paper's 100,000 reads per batch (the device
        // fits far more), so three in-flight slots mean 33,333-pair chunks.
        let config = FilterConfig::new(100, 5).with_overlap(true);
        let (chunks, system) = plan(config);
        assert!(system.batch_size > config.max_reads_per_batch);
        assert_eq!(chunks.chunk_pairs, 100_000 / BUFFER_SLOTS);
        // A ≥3 overlapped chunks fit where one serialized chunk did.
        let (serialized, _) = plan(FilterConfig::new(100, 5));
        assert!(chunks.chunk_pairs * BUFFER_SLOTS <= serialized.chunk_pairs);
        // Tiny capacities never resolve to zero-pair chunks.
        let (tiny, _) = plan(
            FilterConfig::new(100, 5)
                .with_overlap(true)
                .with_max_reads_per_batch(2),
        );
        assert_eq!(tiny.chunk_pairs, 1);
    }

    #[test]
    fn raw_slots_shrink_the_memory_bound_chunks() {
        // With device encode the buffer slots hold raw 1-byte-per-base
        // sequences (~4× the packed words), so when the *memory budget* is the
        // binding constraint the auto-sized chunks must shrink accordingly.
        let unbounded = |device: bool| {
            plan(
                FilterConfig::new(100, 5)
                    .with_overlap(true)
                    .with_device_encode(device)
                    .with_max_reads_per_batch(usize::MAX),
            )
        };
        let (host_plan, host_system) = unbounded(false);
        let (device_plan, device_system) = unbounded(true);
        assert!(device_system.thread_load_bytes > host_system.thread_load_bytes);
        assert!(
            device_plan.chunk_pairs < host_plan.chunk_pairs,
            "device {} !< host {}",
            device_plan.chunk_pairs,
            host_plan.chunk_pairs
        );
    }

    #[test]
    fn explicit_chunk_knob_wins_but_is_capped() {
        let config = FilterConfig::new(100, 5)
            .with_max_reads_per_batch(500)
            .with_chunk_pairs(10_000);
        let (chunks, _) = plan(config);
        assert_eq!(chunks.chunk_pairs, 500);
        let config = FilterConfig::new(100, 5).with_chunk_pairs(64);
        let (chunks, _) = plan(config);
        assert_eq!(chunks.chunk_pairs, 64);
    }

    #[test]
    fn link_sharers_shrink_chunks_with_a_floor() {
        let plan = ChunkPlan { chunk_pairs: 5_000 };
        assert_eq!(plan.with_link_sharers(1).chunk_pairs, 5_000);
        assert_eq!(plan.with_link_sharers(8).chunk_pairs, 625);
        // The floor stops the shrink once launch overhead would dominate…
        assert_eq!(plan.with_link_sharers(100).chunk_pairs, 256);
        // …but never grows a chunk that was already below the floor.
        let tiny = ChunkPlan { chunk_pairs: 40 };
        assert_eq!(tiny.with_link_sharers(4).chunk_pairs, 40);
        assert_eq!(
            ChunkPlan { chunk_pairs: 0 }
                .with_link_sharers(4)
                .chunk_pairs,
            1
        );
    }

    #[test]
    fn ranges_cover_everything_in_order() {
        let plan = ChunkPlan { chunk_pairs: 300 };
        let ranges: Vec<(usize, usize)> = plan.ranges(1_000).collect();
        assert_eq!(ranges, vec![(0, 300), (300, 600), (600, 900), (900, 1_000)]);
        assert_eq!(plan.chunk_count(1_000), 4);
        assert_eq!(plan.chunk_count(0), 0);
    }

    #[test]
    fn round_robin_interleaves_chunks_across_shards() {
        let plan = ChunkPlan { chunk_pairs: 100 };
        let shards = plan.round_robin(500, 2);
        assert_eq!(shards[0], vec![(0, 100), (200, 300), (400, 500)]);
        assert_eq!(shards[1], vec![(100, 200), (300, 400)]);
        // Every pair is covered exactly once.
        let total: usize = shards
            .iter()
            .flatten()
            .map(|(start, end)| end - start)
            .sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn schedule_overlaps_adjacent_chunks() {
        let mut schedule = PipelineSchedule::new();
        let stages = ChunkStageSeconds {
            h2d_seconds: 0.3,
            kernel_seconds: 0.5,
            d2h_seconds: 0.2,
        };
        schedule.record_chunk(&stages);
        // One chunk cannot overlap with anything: makespan == serialized.
        assert!((schedule.overlapped_seconds() - 1.0).abs() < 1e-12);
        for _ in 0..7 {
            schedule.record_chunk(&stages);
        }
        assert_eq!(schedule.chunks(), 8);
        let report = schedule.report(100, true, false, false);
        assert!(!report.host_prefetch);
        assert!(!report.device_encode);
        assert_eq!(report.timing_anomalies, 0);
        assert!((report.serialized_seconds - 8.0).abs() < 1e-12);
        // Steady state: the kernel stream dominates after the first fill and
        // before the last drain: 0.3 + 8 × 0.5 + 0.2 = 4.5 s.
        assert!((report.overlapped_seconds - 4.5).abs() < 1e-9);
        assert!(report.savings_seconds() > 0.0);
        assert!(report.speedup() > 1.7);
    }

    #[test]
    fn buffer_slots_gate_uploads_when_the_drain_is_slow() {
        // A read-back much slower than everything else forces the upload of
        // chunk i to wait for chunk i-3's slot, so the d2h stream dominates.
        let mut schedule = PipelineSchedule::new();
        let stages = ChunkStageSeconds {
            h2d_seconds: 0.01,
            kernel_seconds: 0.01,
            d2h_seconds: 1.0,
        };
        for _ in 0..6 {
            schedule.record_chunk(&stages);
        }
        let makespan = schedule.overlapped_seconds();
        // Six drains of 1 s each dominate; the pipeline cannot finish faster.
        assert!(makespan >= 6.0);
        // And the slot gating shows up as wait operations on the h2d stream.
        let h2d_ops = schedule.timeline().streams()[0].len();
        assert!(h2d_ops > 6, "expected wait ops recorded, got {h2d_ops}");
    }
}
