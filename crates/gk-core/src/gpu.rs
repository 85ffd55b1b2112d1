//! The batched GateKeeper-GPU filtering system on the simulated device.
//!
//! This is the Rust analogue of the CUDA host code the paper describes in §3:
//! the host gathers (read, candidate reference segment) pairs into maximal batches
//! (§3.1), places the buffers in unified memory with device-preferred advice and
//! asynchronous prefetching (§3.2/§3.4), launches one kernel per batch with one
//! filtration per thread, and reads the accept/reject bit plus the approximate edit
//! distance back from the result buffer (§3.5).
//!
//! Functional behaviour (the decisions) comes from actually running the improved
//! GateKeeper kernel of `gk-filters` for every pair. Timing comes from the device
//! model in `gk-gpusim` plus a small set of host-side cost constants, calibrated so
//! the *relative* behaviour of the paper is reproduced: kernel time grows mildly
//! with the error threshold while filter time is dominated by host preparation and
//! transfers; host encoding shrinks the transfer but adds host time; prefetch-less
//! devices (Kepler) pay page-fault overhead.
//!
//! The encoding actor selects one of two genuinely different **execution
//! paths**, not just two timing attributions:
//!
//! * **host encode** ([`EncodingActor::Host`]) — the prep stage runs
//!   `gk_seq::pairs::encode_pair_batch` on the worker pool and the device
//!   stage consumes packed words; the H2D buffers carry 2-bit words and the
//!   host pays `TimingBreakdown::encode_seconds`;
//! * **device encode** ([`EncodingActor::Device`],
//!   [`FilterConfig::with_device_encode`]) — the prep stage only *gathers*
//!   chunks into raw 1-byte-per-base transfer arenas
//!   ([`gk_seq::raw::RawPairBatch`], sliced zero-copy per chunk), the H2D
//!   buffers carry ~4× the bytes, and every thread of a **fused
//!   encode+filter kernel** packs its own pair before filtering — the encode
//!   cost lands inside the kernel time
//!   (`TimingBreakdown::encode_device_seconds`, per-base cycle model in
//!   `gk_gpusim::encode`) and the host never touches a packed word.
//!
//! Decisions are byte-identical between the two paths for every chunk size,
//! overlap setting, prefetch setting and device count — the root
//! `encode_mode_equivalence` suite proptests exactly that.
//!
//! Execution is organised as the chunked three-stage pipeline of
//! [`crate::pipeline`]: every run — [`GateKeeperGpu::filter_set`] over a
//! materialized [`PairSet`], or [`GateKeeperGpu::filter_stream_with`] over
//! batches produced on the fly — feeds plan-sized chunks through encode+H2D,
//! kernel, and D2H read-back stages. With [`FilterConfig::overlap`] on, the
//! stages of adjacent chunks overlap on separate simulated streams (§3.4) and
//! the reported filter time is the pipeline makespan; decisions are
//! byte-identical either way.

use crate::config::{EncodingActor, FilterConfig, SystemConfig};
use crate::pipeline::{
    ChunkPlan, ChunkStageSeconds, PipelineReport, PipelineSchedule, StreamFilterRun,
    PREFETCH_IN_FLIGHT,
};
use crate::timing::TimingBreakdown;
use gk_filters::gatekeeper::GateKeeperConfig;
use gk_filters::simd::{
    gatekeeper_filter_block_packed, gatekeeper_filter_block_slices, SimdMode, LANE_BLOCK_PAIRS,
};
use gk_filters::traits::{FilterDecision, PreAlignmentFilter};
use gk_gpusim::device::DeviceSpec;
use gk_gpusim::executor::{launch_kernel, KernelResources, ThreadReport};
use gk_gpusim::memory::{MemAdvise, MemoryStats, UnifiedMemory, PAGE_SIZE};
use gk_gpusim::power::PowerReport;
use gk_gpusim::profiler::Profiler;
use gk_gpusim::stream::Stream;
use gk_gpusim::topology::ChunkLoad;
use gk_seq::pairs::{encode_pair_batch, PairSet, SequencePair};
use gk_seq::raw::{RawPairBatch, RawPairSlice};
use gk_seq::PackedSeq;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::time::Instant;

/// Host-side buffer preparation cost per pair (gathering reads and candidate
/// indices into the transfer buffers, §3.5). `pub(crate)` so the topology-aware
/// multi-GPU scheduler can estimate per-device service rates from the same
/// constants the pipeline charges.
pub(crate) const HOST_PREP_SECONDS_PER_PAIR: f64 = 3.0e-7;
/// Host 2-bit encoding throughput in bases per second (multithreaded host encode).
pub(crate) const HOST_ENCODE_BASES_PER_SECOND: f64 = 2.0e8;
/// Fixed kernel-launch overhead per batch.
pub(crate) const KERNEL_LAUNCH_OVERHEAD_S: f64 = 10e-6;
/// Modelled device cycles: fixed cost per filtration.
pub(crate) const CYCLES_BASE: u64 = 2_000;
/// Modelled device cycles per (mask × word) of bitwise work.
pub(crate) const CYCLES_PER_MASK_WORD: u64 = 1_000;
/// Modelled device cycles consumed by a thread that passes an undefined pair.
const CYCLES_UNDEFINED: u64 = 300;
/// Extra data-dependent cycles per estimated edit (amendment/counting divergence).
const CYCLES_PER_EDIT: u64 = 120;

/// Result of filtering a pair set on the (simulated) GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterRun {
    /// Per-pair decisions, in input order.
    pub decisions: Vec<FilterDecision>,
    /// Timing breakdown; `timing.kernel_seconds` is the summed CUDA-event time and
    /// `timing.filter_seconds()` is the host-observed filter time of §4.3.
    pub timing: TimingBreakdown,
    /// Number of batched kernel calls.
    pub batches: usize,
    /// Unified-memory traffic over the whole run.
    pub memory_stats: MemoryStats,
    /// Average achieved occupancy over the batched launches.
    pub achieved_occupancy: f64,
    /// Theoretical occupancy of the kernel on this device.
    pub theoretical_occupancy: f64,
    /// Average warp execution efficiency.
    pub warp_execution_efficiency: f64,
    /// Average SM efficiency.
    pub sm_efficiency: f64,
    /// Aggregated power report (nvprof-style min/max/average milliwatts).
    pub power: Option<PowerReport>,
    /// Overlapped-versus-serialized pipeline accounting for the run.
    pub pipeline: PipelineReport,
    /// Per-chunk modelled durations and link traffic, in pipeline order — the
    /// currency the multi-GPU contention replay
    /// (`gk_gpusim::topology::simulate_contended`) re-executes on a shared
    /// interconnect. `h2d_bytes` carries the page-rounded per-buffer prefetch
    /// traffic (zero on prefetch-less devices, whose migration cost is already
    /// inside `kernel_seconds` as page faults), so replaying a load on a
    /// private link at this device's PCIe rate reproduces the chunk's stage
    /// durations bit-for-bit.
    pub chunk_loads: Vec<ChunkLoad>,
}

impl FilterRun {
    /// Summed device kernel time in seconds.
    pub fn kernel_seconds(&self) -> f64 {
        self.timing.kernel_seconds
    }

    /// Host-observed filter time in seconds.
    pub fn filter_seconds(&self) -> f64 {
        self.timing.filter_seconds()
    }

    /// Number of accepted pairs.
    pub fn accepted(&self) -> usize {
        self.decisions.iter().filter(|d| d.accepted).count()
    }

    /// Number of rejected pairs.
    pub fn rejected(&self) -> usize {
        self.decisions.len() - self.accepted()
    }
}

/// The GateKeeper-GPU filtering system bound to one simulated device.
#[derive(Debug, Clone)]
pub struct GateKeeperGpu {
    device: DeviceSpec,
    config: FilterConfig,
    system: SystemConfig,
    /// `config.simd` resolved against `GK_SIMD` once, at construction — the
    /// per-chunk device stage must not consult the environment.
    simd: SimdMode,
}

impl GateKeeperGpu {
    /// Creates a GateKeeper-GPU instance on a specific device.
    pub fn new(device: DeviceSpec, config: FilterConfig) -> GateKeeperGpu {
        let system = SystemConfig::configure(&device, &config);
        GateKeeperGpu {
            device,
            system,
            simd: config.simd.resolve(),
            config,
        }
    }

    /// Creates an instance on the paper's Setup 1 device (GeForce GTX 1080 Ti).
    pub fn with_default_device(config: FilterConfig) -> GateKeeperGpu {
        GateKeeperGpu::new(DeviceSpec::gtx_1080_ti(), config)
    }

    /// The device this instance runs on.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The user configuration.
    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// Modelled cycles one fused-kernel thread spends 2-bit packing its pair
    /// (device encoding only; zero when the host already encoded).
    fn encode_cycles_per_pair(&self) -> u64 {
        match self.config.encoding {
            EncodingActor::Device => {
                gk_gpusim::encode::encode_cycles(2 * self.config.read_len as u64)
            }
            EncodingActor::Host => 0,
        }
    }

    /// Modelled device cycles for one filtration.
    fn filtration_cycles(&self, decision: &FilterDecision) -> u64 {
        // In device-encoded mode every thread packs its pair first — an
        // undefined pair is only *discovered* during that packing pass, so
        // even pass-through threads pay the encode cycles.
        let encode = self.encode_cycles_per_pair();
        if decision.undefined {
            return CYCLES_UNDEFINED + encode;
        }
        let words = self.config.words_per_sequence() as u64;
        let masks = 2 * self.config.threshold as u64 + 1;
        CYCLES_BASE
            + masks * words * CYCLES_PER_MASK_WORD
            + encode
            + decision.estimated_edits as u64 * CYCLES_PER_EDIT
    }

    /// The resolved pipeline chunk plan for this instance.
    pub fn chunk_plan(&self) -> ChunkPlan {
        ChunkPlan::resolve(&self.config, &self.system)
    }

    /// Runs the device side of one pipeline chunk (unified-memory traffic,
    /// kernel launch, result read-back) over its prepared input: packed words
    /// in host-encoded mode, a zero-copy raw-arena view in device-encoded
    /// mode (where the kernel is the fused encode+filter variant).
    fn device_stage(
        &self,
        batch_len: usize,
        input: ChunkInput<'_>,
        memory: &mut UnifiedMemory,
        profiler: &mut Profiler,
    ) -> DeviceOutcome {
        // Unified-memory buffers: reads, reference segments, results. The
        // H2D size follows the prepared input itself: packed 2-bit words in
        // host-encoded mode, the raw arena's actual footprint (stride-padded
        // 1-byte bases — padding crosses the link like real bases) in
        // device-encoded mode, so the arena is the single source of truth
        // for raw-mode transfer accounting.
        memory.reset();
        let input_bytes = match &input {
            ChunkInput::Encoded(_) => {
                2 * self.config.words_per_sequence() as u64 * 4 * batch_len as u64
            }
            ChunkInput::Raw(raw) => raw.h2d_bytes(),
        };
        let result_bytes = 8 * batch_len as u64;
        let reads_buffer = memory
            .alloc(input_bytes / 2)
            .expect("batch sized beyond device memory despite system configuration");
        let refs_buffer = memory
            .alloc(input_bytes / 2)
            .expect("batch sized beyond device memory despite system configuration");
        let results_buffer = memory
            .alloc(result_bytes)
            .expect("result buffer allocation failed");

        // memAdvise + asynchronous prefetch on separate streams (§3.4). The PCIe
        // link is shared, so the modelled transfer cost is the sum of the per-buffer
        // prefetches even though they are enqueued on different streams.
        memory
            .mem_advise(reads_buffer, MemAdvise::PreferredLocationDevice)
            .expect("valid buffer");
        memory
            .mem_advise(refs_buffer, MemAdvise::PreferredLocationDevice)
            .expect("valid buffer");
        let mut prefetch_stream_reads = Stream::new("prefetch-reads");
        let mut prefetch_stream_refs = Stream::new("prefetch-refs");
        let mut prefetch_seconds = 0.0;
        // Per-buffer page-rounded prefetch traffic, captured for the multi-GPU
        // contention replay. The buffers are freshly allocated fully
        // host-resident, so each prefetch moves exactly `page_count` pages —
        // the byte counts reproduce `t_reads`/`t_refs` exactly under
        // `PcieLink::transfer_seconds`. Prefetch-less devices move nothing
        // here; their fault traffic is already folded into the kernel stage.
        let mut h2d_bytes = [0u64; 2];
        if self.device.supports_prefetch() {
            for (slot, buffer) in [reads_buffer, refs_buffer].into_iter().enumerate() {
                h2d_bytes[slot] = memory.buffer(buffer).expect("valid buffer").page_count() as u64
                    * PAGE_SIZE as u64;
            }
            let t_reads = memory
                .prefetch_to_device(reads_buffer)
                .expect("valid buffer");
            let t_refs = memory
                .prefetch_to_device(refs_buffer)
                .expect("valid buffer");
            prefetch_stream_reads.enqueue("prefetch reads", t_reads);
            prefetch_stream_refs.enqueue("prefetch refs", t_refs);
            prefetch_seconds = t_reads + t_refs;
        }

        // Stage 2 (device): kernel launch, one warp-like lane group of four
        // per task (lane mode) or one per-bit filtration per pair (scalar
        // mode), over blocks of pairs. In host-encoded mode the threads
        // consume pre-packed words; in device-encoded mode they run the fused
        // kernel — pack the raw bases they were handed, then filter — which
        // is what makes the two paths byte-identical: both end up filtering
        // the same 2-bit sequences.
        let kernel_config = GateKeeperConfig::gpu(self.config.threshold);
        let decisions: Vec<FilterDecision> = match input {
            ChunkInput::Encoded(encoded) => encoded
                .par_chunks(LANE_BLOCK_PAIRS)
                .flat_map(|block| {
                    let refs: Vec<(&PackedSeq, &PackedSeq)> = block
                        .iter()
                        .map(|(read, reference)| (read, reference))
                        .collect();
                    gatekeeper_filter_block_packed(&refs, &kernel_config, self.simd)
                })
                .collect(),
            ChunkInput::Raw(raw) => {
                let starts: Vec<usize> = (0..raw.len()).step_by(LANE_BLOCK_PAIRS).collect();
                starts
                    .into_par_iter()
                    .flat_map(|start| {
                        let end = (start + LANE_BLOCK_PAIRS).min(raw.len());
                        let slices: Vec<(&[u8], &[u8])> = (start..end)
                            .map(|i| (raw.read(i), raw.reference(i)))
                            .collect();
                        gatekeeper_filter_block_slices(&slices, &kernel_config, self.simd)
                    })
                    .collect()
            }
        };

        // On devices without prefetch support the kernel's first touch of each page
        // faults and migrates on demand; that cost lands in the kernel's critical
        // path but is accounted as transfer time for reporting, as in §4.3.
        let fault_reads = memory
            .access_from_device(reads_buffer)
            .expect("valid buffer");
        let fault_refs = memory
            .access_from_device(refs_buffer)
            .expect("valid buffer");
        let fault_seconds = fault_reads + fault_refs;

        let launch = self.system.launch_config(&self.device, batch_len);
        // The fused encode+filter kernel keeps encode scratch live and costs
        // a few extra registers (gk_gpusim::encode); at 1024-thread blocks
        // both variants still fit one block per SM (§5.4.1).
        let resources = match self.config.encoding {
            EncodingActor::Device => KernelResources::gatekeeper_gpu_device_encode(&self.device),
            EncodingActor::Host => KernelResources::gatekeeper_gpu(&self.device),
        };
        let stats = launch_kernel(&self.device, &resources, launch, |ctx| {
            match decisions.get(ctx.global_idx) {
                Some(decision) => ThreadReport {
                    cycles: self.filtration_cycles(decision),
                    active: true,
                },
                None => ThreadReport::idle(),
            }
        });
        // Attribute the in-kernel encode share of the fused kernel by its
        // cycle fraction (every thread with a pair packs 2 × read_len bases).
        let encode_device_seconds = if stats.total_cycles > 0 {
            let encode_cycles = batch_len as u64 * self.encode_cycles_per_pair();
            stats.kernel_seconds * encode_cycles as f64 / stats.total_cycles as f64
        } else {
            0.0
        };
        let kernel_seconds = stats.kernel_seconds + KERNEL_LAUNCH_OVERHEAD_S;
        profiler.record(
            "gatekeeper_gpu_kernel",
            stats,
            self.config.words_per_sequence(),
        );

        // Stage 3 (D2H): the host reads the result buffer back for verification.
        // Only device-resident pages migrate back, so the byte count mirrors
        // the modelled read-back time exactly (zero while the result buffer
        // stays host-resident end to end, the current unified-memory quirk).
        let d2h_bytes = memory
            .buffer(results_buffer)
            .expect("valid buffer")
            .device_resident_pages() as u64
            * PAGE_SIZE as u64;
        let readback_seconds = memory
            .access_from_host(results_buffer)
            .expect("valid buffer");

        DeviceOutcome {
            decisions,
            prefetch_seconds,
            h2d_bytes,
            fault_seconds,
            kernel_seconds,
            encode_device_seconds,
            readback_seconds,
            d2h_bytes,
        }
    }

    /// Filters a whole pair set through the chunked pipeline, reproducing the
    /// paper's kernel-time / filter-time split (with the stream-overlapped
    /// makespan as the filter time when [`FilterConfig::overlap`] is on).
    pub fn filter_set(&self, pairs: &PairSet) -> FilterRun {
        let mut engine = PipelineEngine::new(self);
        let mut decisions = Vec::with_capacity(pairs.len());
        let mut sink = |_: &[SequencePair], chunk_decisions: Vec<FilterDecision>| {
            decisions.extend(chunk_decisions)
        };
        engine.feed(&pairs.pairs, &mut sink);
        engine.flush(&mut sink);
        engine.into_run(decisions)
    }

    /// Filters an explicit sequence of pair slices (e.g. the round-robin chunk
    /// shares of one device in a multi-GPU run) through a single pipeline.
    pub(crate) fn filter_chunks<'a, I>(&self, chunks: I) -> FilterRun
    where
        I: IntoIterator<Item = &'a [SequencePair]>,
    {
        let mut engine = PipelineEngine::new(self);
        let mut decisions = Vec::new();
        let mut sink = |_: &[SequencePair], chunk_decisions: Vec<FilterDecision>| {
            decisions.extend(chunk_decisions)
        };
        for chunk in chunks {
            engine.feed(chunk, &mut sink);
        }
        engine.flush(&mut sink);
        engine.into_run(decisions)
    }

    /// Filters a stream of pair batches without materializing the full pair set
    /// *or* the full decision vector: each chunk's pairs and decisions go to
    /// `sink` before they are dropped, and the run keeps only aggregate counts,
    /// timing and memory traffic. This is the whole-genome-scale entry point
    /// (30M pairs in the paper's sets).
    pub fn filter_stream_with<I, F>(&self, batches: I, mut sink: F) -> StreamFilterRun
    where
        I: IntoIterator<Item = Vec<SequencePair>>,
        F: FnMut(&[SequencePair], &[FilterDecision]),
    {
        let mut engine = PipelineEngine::new(self);
        let mut pairs = 0usize;
        let mut accepted = 0usize;
        let mut undefined = 0usize;
        let mut counting_sink = |chunk: &[SequencePair], chunk_decisions: Vec<FilterDecision>| {
            pairs += chunk_decisions.len();
            accepted += chunk_decisions.iter().filter(|d| d.accepted).count();
            undefined += chunk_decisions.iter().filter(|d| d.undefined).count();
            sink(chunk, &chunk_decisions);
        };
        for batch in batches {
            engine.feed_owned(batch, &mut counting_sink);
        }
        engine.flush(&mut counting_sink);
        engine.into_stream_run(pairs, accepted, undefined)
    }
}

/// Decisions plus per-stage modelled durations of one chunk's *device* side
/// (everything downstream of the host prep).
struct DeviceOutcome {
    decisions: Vec<FilterDecision>,
    prefetch_seconds: f64,
    /// Page-rounded prefetch bytes per input buffer (reads, refs); zero on
    /// prefetch-less devices.
    h2d_bytes: [u64; 2],
    fault_seconds: f64,
    kernel_seconds: f64,
    /// In-kernel encode share of `kernel_seconds` (fused kernel only).
    encode_device_seconds: f64,
    readback_seconds: f64,
    /// Page-rounded result-buffer bytes migrating back to the host.
    d2h_bytes: u64,
}

/// Owned output of one chunk's prep stage — what travels through the prefetch
/// executor's pool tasks.
enum ChunkData {
    /// Host-encoded mode: the packed 2-bit words, ready for the plain kernel.
    Encoded(Vec<(PackedSeq, PackedSeq)>),
    /// Device-encoded mode: the raw transfer arena; the fused kernel packs it.
    Raw(RawPairBatch),
}

impl ChunkData {
    fn as_input(&self) -> ChunkInput<'_> {
        match self {
            ChunkData::Encoded(encoded) => ChunkInput::Encoded(encoded),
            ChunkData::Raw(raw) => ChunkInput::Raw(raw.view()),
        }
    }
}

/// Borrowed view of one chunk's prepared input, as the device stage consumes
/// it.
enum ChunkInput<'a> {
    /// Packed 2-bit words (host-encoded mode).
    Encoded(&'a [(PackedSeq, PackedSeq)]),
    /// Raw 1-byte-per-base arena view (device-encoded mode).
    Raw(RawPairSlice<'a>),
}

/// Owned prepped chunk produced ahead of time by the prefetch executor.
struct PreppedChunk {
    pairs: Vec<SequencePair>,
    data: ChunkData,
    host_prep_seconds: f64,
    encode_seconds: f64,
}

/// The host stage of one chunk: buffer preparation, plus — in host-encoded
/// mode only — the 2-bit packing. In device-encoded mode the host merely
/// *gathers* the raw bases into the flat transfer arena; no `PackedSeq` is
/// ever built on the host, which is the whole point of the path. A free
/// function over owned/`Copy` inputs so the prefetch executor can run it as a
/// `'static` task on the worker pool.
fn prep_stage(
    batch: &[SequencePair],
    read_len: usize,
    encoding: EncodingActor,
) -> (ChunkData, f64, f64) {
    let host_prep_seconds = batch.len() as f64 * HOST_PREP_SECONDS_PER_PAIR;
    match encoding {
        EncodingActor::Host => {
            let encoded: Vec<(PackedSeq, PackedSeq)> = encode_pair_batch(batch);
            let encode_seconds =
                2.0 * batch.len() as f64 * read_len as f64 / HOST_ENCODE_BASES_PER_SECOND;
            (
                ChunkData::Encoded(encoded),
                host_prep_seconds,
                encode_seconds,
            )
        }
        EncodingActor::Device => (
            ChunkData::Raw(RawPairBatch::from_pairs(batch)),
            host_prep_seconds,
            0.0,
        ),
    }
}

/// Stateful chunked execution of one filtering run on one device: owns the
/// unified-memory arena, the profiler and the pipeline schedule, and is fed
/// pair slices in input order by the `filter_*` entry points.
///
/// With [`FilterConfig::host_prefetch`] on (and a parallel worker pool), the
/// engine is a *wall-clock* prefetch executor: each chunk's prep+encode is
/// dispatched as a task on the shared pool, so chunk *i+1* encodes while chunk
/// *i*'s kernel closure runs on the caller. At most [`PREFETCH_IN_FLIGHT`]
/// encoded chunks exist at any moment, keeping memory bounded, and chunks are
/// drained strictly in input order so decisions, sink calls and the simulated
/// timeline are byte-identical to the serial path.
struct PipelineEngine<'g> {
    gpu: &'g GateKeeperGpu,
    plan: ChunkPlan,
    memory: UnifiedMemory,
    profiler: Profiler,
    schedule: PipelineSchedule,
    timing: TimingBreakdown,
    /// One [`ChunkLoad`] per completed chunk, in pipeline order, for the
    /// multi-GPU contention replay.
    chunk_loads: Vec<ChunkLoad>,
    /// True when the engine actually dispatches encode tasks to the pool
    /// (knob on *and* the pool is parallel — under `RAYON_NUM_THREADS=1` the
    /// engine keeps today's serial path).
    prefetch: bool,
    /// Prep tasks in flight, oldest chunk first.
    pending: VecDeque<rayon::JoinHandle<PreppedChunk>>,
    wall_start: Instant,
}

impl<'g> PipelineEngine<'g> {
    fn new(gpu: &'g GateKeeperGpu) -> PipelineEngine<'g> {
        PipelineEngine {
            plan: gpu.chunk_plan(),
            memory: UnifiedMemory::new(gpu.device.clone()),
            profiler: Profiler::new(gpu.device.clone()),
            schedule: PipelineSchedule::new(),
            timing: TimingBreakdown::default(),
            chunk_loads: Vec::new(),
            prefetch: gpu.config.host_prefetch && rayon::current_num_threads() > 1,
            pending: VecDeque::with_capacity(PREFETCH_IN_FLIGHT),
            wall_start: Instant::now(),
            gpu,
        }
    }

    /// Cuts `pairs` into plan-sized chunks and runs each through the three
    /// stages, handing every chunk's decisions to `sink` in input order. In
    /// prefetch mode the encode of the newest chunk runs on the pool while
    /// older chunks' kernel closures execute here; callers must [`Self::flush`]
    /// after the last `feed` to drain what is still in flight.
    fn feed<F>(&mut self, pairs: &[SequencePair], sink: &mut F)
    where
        F: FnMut(&[SequencePair], Vec<FilterDecision>),
    {
        let size = self.plan.chunk_pairs.max(1);
        if self.prefetch {
            for chunk in pairs.chunks(size) {
                self.spawn_prep(chunk.to_vec());
                while self.pending.len() >= PREFETCH_IN_FLIGHT {
                    self.drain_one(sink);
                }
            }
        } else {
            // One prep per chunk in both encode modes: a whole-slice raw
            // arena would copy exactly the same bytes while holding the
            // entire fed slice live, breaking the bounded-memory contract
            // for big materialized sets.
            for chunk in pairs.chunks(size) {
                let (data, host_prep_seconds, encode_seconds) =
                    prep_stage(chunk, self.gpu.config.read_len, self.gpu.config.encoding);
                self.complete_chunk(
                    chunk,
                    data.as_input(),
                    host_prep_seconds,
                    encode_seconds,
                    sink,
                );
            }
        }
    }

    /// Like [`Self::feed`], but takes ownership of the batch so prefetch-mode
    /// chunks *move* into their encode tasks instead of being cloned — the
    /// whole-genome streaming path, where batches are produced owned anyway.
    fn feed_owned<F>(&mut self, batch: Vec<SequencePair>, sink: &mut F)
    where
        F: FnMut(&[SequencePair], Vec<FilterDecision>),
    {
        if !self.prefetch {
            return self.feed(&batch, sink);
        }
        let size = self.plan.chunk_pairs.max(1);
        let mut source = batch.into_iter();
        loop {
            let chunk: Vec<SequencePair> = source.by_ref().take(size).collect();
            if chunk.is_empty() {
                break;
            }
            self.spawn_prep(chunk);
            while self.pending.len() >= PREFETCH_IN_FLIGHT {
                self.drain_one(sink);
            }
        }
    }

    /// Dispatches one owned chunk's prep (gather, plus encode in host mode)
    /// as a task on the worker pool.
    fn spawn_prep(&mut self, owned: Vec<SequencePair>) {
        let read_len = self.gpu.config.read_len;
        let encoding = self.gpu.config.encoding;
        self.pending.push_back(rayon::spawn(move || {
            let (data, host_prep_seconds, encode_seconds) = prep_stage(&owned, read_len, encoding);
            PreppedChunk {
                pairs: owned,
                data,
                host_prep_seconds,
                encode_seconds,
            }
        }));
    }

    /// Drains every prep task still in flight, in input order.
    fn flush<F>(&mut self, sink: &mut F)
    where
        F: FnMut(&[SequencePair], Vec<FilterDecision>),
    {
        while !self.pending.is_empty() {
            self.drain_one(sink);
        }
    }

    fn drain_one<F>(&mut self, sink: &mut F)
    where
        F: FnMut(&[SequencePair], Vec<FilterDecision>),
    {
        if let Some(handle) = self.pending.pop_front() {
            let chunk = handle.join();
            self.complete_chunk(
                &chunk.pairs,
                chunk.data.as_input(),
                chunk.host_prep_seconds,
                chunk.encode_seconds,
                sink,
            );
        }
    }

    /// Runs the device side of one encoded chunk and records its stages on the
    /// simulated timeline — identical bookkeeping whether the encode happened
    /// inline or ahead of time on the pool.
    fn complete_chunk<F>(
        &mut self,
        pairs: &[SequencePair],
        input: ChunkInput<'_>,
        host_prep_seconds: f64,
        encode_seconds: f64,
        sink: &mut F,
    ) where
        F: FnMut(&[SequencePair], Vec<FilterDecision>),
    {
        let gpu = self.gpu;
        let device = gpu.device_stage(pairs.len(), input, &mut self.memory, &mut self.profiler);
        // Page faults sit on the kernel's critical path (§4.3) even though
        // reporting accounts them as transfer time.
        let stages = ChunkStageSeconds {
            h2d_seconds: host_prep_seconds + encode_seconds + device.prefetch_seconds,
            kernel_seconds: device.fault_seconds + device.kernel_seconds,
            d2h_seconds: device.readback_seconds,
        };
        self.schedule.record_chunk(&stages);
        self.chunk_loads.push(ChunkLoad {
            host_seconds: host_prep_seconds + encode_seconds,
            h2d_bytes: device.h2d_bytes,
            kernel_seconds: device.fault_seconds + device.kernel_seconds,
            d2h_bytes: device.d2h_bytes,
        });
        self.timing.host_prep_seconds += host_prep_seconds;
        self.timing.encode_seconds += encode_seconds;
        self.timing.encode_device_seconds += device.encode_device_seconds;
        self.timing.transfer_seconds += device.prefetch_seconds + device.fault_seconds;
        self.timing.kernel_seconds += device.kernel_seconds;
        self.timing.readback_seconds += device.readback_seconds;
        sink(pairs, device.decisions);
    }

    fn finish(
        mut self,
    ) -> (
        TimingBreakdown,
        PipelineReport,
        RunAggregates,
        Vec<ChunkLoad>,
    ) {
        debug_assert!(
            self.pending.is_empty(),
            "pipeline engine finished with encode tasks still in flight"
        );
        let overlap = self.gpu.config.overlap;
        if overlap && self.schedule.chunks() > 0 {
            self.timing.overlapped_seconds = Some(self.schedule.overlapped_seconds());
        }
        self.timing.host_wall_seconds = self.wall_start.elapsed().as_secs_f64();
        let report = self.schedule.report(
            self.plan.chunk_pairs,
            overlap,
            self.prefetch,
            self.gpu.config.device_encode(),
        );
        let aggregates = RunAggregates {
            batches: self.schedule.chunks(),
            memory_stats: self.memory.stats(),
            achieved_occupancy: self.profiler.average_achieved_occupancy(),
            theoretical_occupancy: self
                .profiler
                .profiles()
                .first()
                .map(|p| p.stats.theoretical_occupancy)
                .unwrap_or(0.0),
            warp_execution_efficiency: self.profiler.average_warp_execution_efficiency(),
            sm_efficiency: self.profiler.average_sm_efficiency(),
            power: self.profiler.aggregate_power(),
        };
        (self.timing, report, aggregates, self.chunk_loads)
    }

    fn into_run(self, decisions: Vec<FilterDecision>) -> FilterRun {
        let (timing, pipeline, agg, chunk_loads) = self.finish();
        FilterRun {
            decisions,
            timing,
            batches: agg.batches,
            memory_stats: agg.memory_stats,
            achieved_occupancy: agg.achieved_occupancy,
            theoretical_occupancy: agg.theoretical_occupancy,
            warp_execution_efficiency: agg.warp_execution_efficiency,
            sm_efficiency: agg.sm_efficiency,
            power: agg.power,
            pipeline,
            chunk_loads,
        }
    }

    fn into_stream_run(self, pairs: usize, accepted: usize, undefined: usize) -> StreamFilterRun {
        // The per-chunk loads are dropped here on purpose: the streaming entry
        // point promises bounded memory regardless of stream length.
        let (timing, pipeline, agg, _) = self.finish();
        StreamFilterRun {
            pairs,
            accepted,
            undefined,
            timing,
            batches: agg.batches,
            memory_stats: agg.memory_stats,
            pipeline,
        }
    }
}

/// Profiler/memory aggregates shared by both run flavours.
struct RunAggregates {
    batches: usize,
    memory_stats: MemoryStats,
    achieved_occupancy: f64,
    theoretical_occupancy: f64,
    warp_execution_efficiency: f64,
    sm_efficiency: f64,
    power: Option<PowerReport>,
}

impl PreAlignmentFilter for GateKeeperGpu {
    fn name(&self) -> &str {
        "GateKeeper-GPU"
    }

    fn threshold(&self) -> u32 {
        self.config.threshold
    }

    fn filter_pair(&self, read: &[u8], reference: &[u8]) -> FilterDecision {
        let kernel_config = GateKeeperConfig::gpu(self.config.threshold);
        gatekeeper_filter_block_slices(&[(read, reference)], &kernel_config, self.simd)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_filters::GateKeeperGpuFilter;
    use gk_seq::datasets::DatasetProfile;

    fn pairs(count: usize) -> PairSet {
        DatasetProfile::set3().generate(count, 123)
    }

    fn gpu(threshold: u32, encoding: EncodingActor) -> GateKeeperGpu {
        GateKeeperGpu::with_default_device(
            FilterConfig::new(100, threshold).with_encoding(encoding),
        )
    }

    #[test]
    fn decisions_match_the_reference_filter_implementation() {
        let set = pairs(1_500);
        let run = gpu(5, EncodingActor::Device).filter_set(&set);
        let reference = GateKeeperGpuFilter::new(5);
        for (pair, decision) in set.pairs.iter().zip(run.decisions.iter()) {
            let expected = reference.filter_pair(&pair.read, &pair.reference);
            assert_eq!(decision.accepted, expected.accepted);
        }
    }

    #[test]
    fn encoding_actor_does_not_change_decisions() {
        let set = pairs(800);
        let host = gpu(5, EncodingActor::Host).filter_set(&set);
        let device = gpu(5, EncodingActor::Device).filter_set(&set);
        assert_eq!(host.decisions, device.decisions);
    }

    #[test]
    fn device_encode_skips_the_host_encode_and_reports_the_kernel_split() {
        let set = pairs(1_200);
        let host = gpu(4, EncodingActor::Host).filter_set(&set);
        let device = gpu(4, EncodingActor::Device).filter_set(&set);
        // Host path: encode time on the host, none inside the kernel.
        assert!(host.timing.encode_seconds > 0.0);
        assert_eq!(host.timing.encode_device_seconds, 0.0);
        assert!(!host.pipeline.device_encode);
        // Device path: zero host encode, a positive in-kernel share that
        // stays strictly inside the kernel time.
        assert_eq!(device.timing.encode_seconds, 0.0);
        assert!(device.timing.encode_device_seconds > 0.0);
        assert!(device.timing.encode_device_seconds < device.timing.kernel_seconds);
        assert!(device.pipeline.device_encode);
        // The host-side encode share is strictly lower (zero) on the device
        // path — the acceptance bar of the device-encoding tentpole.
        assert!(device.timing.host_encode_share() < host.timing.host_encode_share());
    }

    #[test]
    fn device_encode_transfers_more_bytes_over_the_link() {
        // Raw 1-byte-per-base uploads are ~4× the packed 2-bit words (100 bp:
        // 200 raw bytes vs 56 packed bytes per pair). Unified memory moves
        // whole 64 KiB pages, so the batch must be big enough for the
        // rounding not to blunt the ratio.
        let set = pairs(4_000);
        let host = gpu(4, EncodingActor::Host).filter_set(&set);
        let device = gpu(4, EncodingActor::Device).filter_set(&set);
        assert!(device.memory_stats.bytes_to_device > 3 * host.memory_stats.bytes_to_device);
        // Result read-back is mode-independent.
        assert_eq!(
            device.memory_stats.bytes_to_host,
            host.memory_stats.bytes_to_host
        );
    }

    #[test]
    fn device_encode_matches_host_across_chunking_overlap_and_streaming() {
        let profile = DatasetProfile::set3();
        let set = profile.generate(1_100, 19);
        for chunk in [1usize, 137, 5_000] {
            let base = FilterConfig::new(100, 5)
                .with_chunk_pairs(chunk)
                .with_overlap(true);
            let host =
                GateKeeperGpu::with_default_device(base.with_device_encode(false)).filter_set(&set);
            let device =
                GateKeeperGpu::with_default_device(base.with_device_encode(true)).filter_set(&set);
            assert_eq!(host.decisions, device.decisions, "chunk {chunk}");
            assert_eq!(host.batches, device.batches);

            // Streamed device-encode equals materialized device-encode.
            let gpu = GateKeeperGpu::with_default_device(base.with_device_encode(true));
            let mut streamed_decisions = Vec::new();
            let streamed = gpu
                .filter_stream_with(profile.stream_batches(1_100, 19, 400), |_, decisions| {
                    streamed_decisions.extend_from_slice(decisions)
                });
            assert_eq!(streamed.pairs, set.len());
            assert_eq!(streamed_decisions, device.decisions, "chunk {chunk}");
            assert_eq!(streamed.timing.encode_seconds, 0.0);
            assert!(streamed.timing.encode_device_seconds > 0.0);
        }
    }

    #[test]
    fn device_encode_handles_undefined_and_huge_thresholds() {
        // Undefined pairs are discovered inside the fused kernel's packing
        // pass, and the e >= read_len clamp (PR 4) must hold on the raw path.
        let mut profile = DatasetProfile::set3();
        profile.undefined_fraction = 0.15;
        let set = profile.generate(600, 77);
        for threshold in [99u32, 100, 101, u32::MAX] {
            let host = gpu(threshold, EncodingActor::Host).filter_set(&set);
            let device = gpu(threshold, EncodingActor::Device).filter_set(&set);
            assert_eq!(host.decisions, device.decisions, "e = {threshold}");
            let undefined = device.decisions.iter().filter(|d| d.undefined).count();
            assert_eq!(undefined, set.undefined_count());
        }
    }

    #[test]
    fn host_encoding_trades_kernel_time_for_filter_time() {
        // Figure 6: host encoding gives higher *kernel* throughput (less kernel
        // work) but lower *filter* throughput (host encode dominates).
        let set = pairs(3_000);
        let host = gpu(4, EncodingActor::Host).filter_set(&set);
        let device = gpu(4, EncodingActor::Device).filter_set(&set);
        assert!(host.kernel_seconds() < device.kernel_seconds());
        assert!(host.filter_seconds() > device.filter_seconds());
    }

    #[test]
    fn kernel_time_grows_with_error_threshold_but_filter_time_barely_moves() {
        let set = pairs(3_000);
        let low = gpu(2, EncodingActor::Device).filter_set(&set);
        let high = gpu(10, EncodingActor::Device).filter_set(&set);
        assert!(high.kernel_seconds() > low.kernel_seconds());
        // Filter time is dominated by host prep + transfer, so the relative growth
        // is much smaller than the kernel-time growth.
        let kernel_growth = high.kernel_seconds() / low.kernel_seconds();
        let filter_growth = high.filter_seconds() / low.filter_seconds();
        assert!(kernel_growth > filter_growth);
    }

    #[test]
    fn kepler_setup_is_slower_than_pascal() {
        let set = pairs(2_000);
        let config = FilterConfig::new(100, 5);
        let pascal = GateKeeperGpu::new(DeviceSpec::gtx_1080_ti(), config).filter_set(&set);
        let kepler = GateKeeperGpu::new(DeviceSpec::tesla_k20x(), config).filter_set(&set);
        assert!(kepler.kernel_seconds() > pascal.kernel_seconds());
        assert!(kepler.filter_seconds() > pascal.filter_seconds());
        // Kepler cannot prefetch, so it page-faults.
        assert!(kepler.memory_stats.page_faults > 0);
        assert_eq!(pascal.memory_stats.page_faults, 0);
    }

    #[test]
    fn batching_respects_max_reads_per_batch() {
        let set = pairs(2_000);
        let run = GateKeeperGpu::with_default_device(
            FilterConfig::new(100, 4).with_max_reads_per_batch(500),
        )
        .filter_set(&set);
        assert_eq!(run.batches, 4);
        assert_eq!(run.decisions.len(), set.len());
        let single = GateKeeperGpu::with_default_device(FilterConfig::new(100, 4)).filter_set(&set);
        assert_eq!(single.batches, 1);
        assert_eq!(single.decisions, run.decisions);
    }

    #[test]
    fn fewer_larger_batches_reduce_filter_time() {
        // Table 1: increasing reads per batch decreases the overall/filter time
        // because the number of transfers shrinks.
        let set = pairs(4_000);
        let small_batches = GateKeeperGpu::with_default_device(
            FilterConfig::new(100, 4).with_max_reads_per_batch(100),
        )
        .filter_set(&set);
        let large_batches = GateKeeperGpu::with_default_device(
            FilterConfig::new(100, 4).with_max_reads_per_batch(4_000),
        )
        .filter_set(&set);
        assert!(small_batches.batches > large_batches.batches);
        assert!(small_batches.filter_seconds() > large_batches.filter_seconds());
    }

    #[test]
    fn occupancy_matches_the_paper_analysis() {
        let set = pairs(5_000);
        let run = gpu(4, EncodingActor::Device).filter_set(&set);
        assert!((run.theoretical_occupancy - 0.5).abs() < 1e-9);
        assert!(run.achieved_occupancy > 0.0 && run.achieved_occupancy <= 0.5);
        assert!(run.warp_execution_efficiency > 0.5);
        assert!(run.sm_efficiency > 0.0);
    }

    #[test]
    fn power_report_present_and_consistent() {
        let set = pairs(2_000);
        let run = gpu(4, EncodingActor::Device).filter_set(&set);
        let power = run.power.expect("power report");
        assert!(power.min_mw <= power.average_mw && power.average_mw <= power.max_mw);
    }

    #[test]
    fn overlap_keeps_decisions_but_shrinks_filter_time() {
        let set = pairs(4_000);
        let serialized =
            GateKeeperGpu::with_default_device(FilterConfig::new(100, 4).with_chunk_pairs(500))
                .filter_set(&set);
        let overlapped = GateKeeperGpu::with_default_device(
            FilterConfig::new(100, 4)
                .with_chunk_pairs(500)
                .with_overlap(true),
        )
        .filter_set(&set);
        // Byte-identical decisions, identical component accounting…
        assert_eq!(serialized.decisions, overlapped.decisions);
        assert_eq!(serialized.batches, 8);
        assert_eq!(overlapped.batches, 8);
        assert_eq!(
            serialized.timing.kernel_seconds,
            overlapped.timing.kernel_seconds
        );
        // …but a strictly lower end-to-end filter time from the overlap.
        assert!(overlapped.filter_seconds() < serialized.filter_seconds());
        assert!(
            (serialized.filter_seconds() - serialized.timing.serialized_seconds()).abs() < 1e-12
        );
        assert!(overlapped.timing.overlap_savings_seconds() > 0.0);
        assert!(overlapped.pipeline.overlap);
        assert!(overlapped.pipeline.speedup() > 1.0);
        // The serialized run still reports what overlap *would* save.
        assert!(serialized.pipeline.overlapped_seconds < serialized.pipeline.serialized_seconds);
    }

    #[test]
    fn single_chunk_runs_cannot_overlap() {
        let set = pairs(1_000);
        let run = GateKeeperGpu::with_default_device(
            FilterConfig::new(100, 4)
                .with_chunk_pairs(10_000)
                .with_overlap(true),
        )
        .filter_set(&set);
        assert_eq!(run.batches, 1);
        assert!((run.filter_seconds() - run.timing.serialized_seconds()).abs() < 1e-12);
    }

    #[test]
    fn filter_stream_matches_filter_set_counts_and_batches() {
        let profile = DatasetProfile::set3();
        let set = profile.generate(3_000, 77);
        let config = FilterConfig::new(100, 5)
            .with_chunk_pairs(400)
            .with_overlap(true);
        let gpu = GateKeeperGpu::with_default_device(config);
        let run = gpu.filter_set(&set);

        // The same pairs delivered as a stream of uneven batches.
        let batches: Vec<Vec<SequencePair>> =
            set.pairs.chunks(700).map(|chunk| chunk.to_vec()).collect();
        let mut streamed_decisions = Vec::new();
        let streamed = gpu.filter_stream_with(batches, |_, decisions| {
            streamed_decisions.extend_from_slice(decisions)
        });
        assert_eq!(streamed.pairs, set.len());
        assert_eq!(streamed.accepted, run.accepted());
        assert_eq!(streamed.rejected(), run.rejected());
        assert_eq!(streamed.undefined, set.undefined_count());
        assert_eq!(streamed_decisions, run.decisions);
        // Stream batches re-chunk at the plan size, but batch boundaries (700)
        // also cut chunks, so the stream sees more kernel launches.
        assert!(streamed.batches >= run.batches);
        assert!(streamed.filter_seconds() > 0.0);
    }

    #[test]
    fn host_prefetch_keeps_everything_but_wall_clock_identical() {
        let set = pairs(3_000);
        for encoding in [EncodingActor::Host, EncodingActor::Device] {
            let base = FilterConfig::new(100, 4)
                .with_encoding(encoding)
                .with_chunk_pairs(250)
                .with_overlap(true);
            let serial = GateKeeperGpu::with_default_device(base).filter_set(&set);
            let prefetched =
                GateKeeperGpu::with_default_device(base.with_host_prefetch(true)).filter_set(&set);
            // Byte-identical decisions and simulated accounting (TimingBreakdown
            // equality deliberately excludes the measured wall clock).
            assert_eq!(serial.decisions, prefetched.decisions);
            assert_eq!(serial.timing, prefetched.timing);
            assert_eq!(serial.batches, prefetched.batches);
            assert_eq!(serial.memory_stats, prefetched.memory_stats);
            assert_eq!(
                serial.pipeline.overlapped_seconds,
                prefetched.pipeline.overlapped_seconds
            );
            assert_eq!(
                serial.pipeline.serialized_seconds,
                prefetched.pipeline.serialized_seconds
            );
            // Both runs measured real wall clock.
            assert!(serial.timing.host_wall_seconds > 0.0);
            assert!(prefetched.timing.host_wall_seconds > 0.0);
            assert!(!serial.pipeline.host_prefetch);
            if rayon::current_num_threads() > 1 {
                assert!(prefetched.pipeline.host_prefetch);
            }
        }
    }

    #[test]
    fn host_prefetch_falls_back_to_serial_on_a_one_thread_pool() {
        let set = pairs(800);
        let config = FilterConfig::new(100, 4)
            .with_chunk_pairs(100)
            .with_host_prefetch(true);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("one-thread pool");
        let run = pool.install(|| GateKeeperGpu::with_default_device(config).filter_set(&set));
        // The engine reports that no prefetching actually happened…
        assert!(!run.pipeline.host_prefetch);
        // …and the output matches the parallel-pool prefetched run exactly.
        let reference = GateKeeperGpu::with_default_device(config).filter_set(&set);
        assert_eq!(run.decisions, reference.decisions);
        assert_eq!(run.timing, reference.timing);
    }

    #[test]
    fn host_prefetch_streaming_matches_materialized() {
        let profile = DatasetProfile::set3();
        let set = profile.generate(2_400, 55);
        let config = FilterConfig::new(100, 5)
            .with_chunk_pairs(300)
            .with_overlap(true)
            .with_host_prefetch(true);
        let gpu = GateKeeperGpu::with_default_device(config);
        let materialized = gpu.filter_set(&set);
        let mut streamed_decisions = Vec::new();
        let streamed = gpu
            .filter_stream_with(profile.stream_batches(2_400, 55, 700), |_, decisions| {
                streamed_decisions.extend_from_slice(decisions)
            });
        assert_eq!(streamed.pairs, set.len());
        assert_eq!(streamed_decisions, materialized.decisions);
        assert_eq!(streamed.accepted, materialized.accepted());
        assert_eq!(streamed.pipeline.timing_anomalies, 0);
    }

    #[test]
    fn chunk_loads_mirror_the_run_accounting() {
        let set = pairs(2_000);
        let run =
            GateKeeperGpu::with_default_device(FilterConfig::new(100, 4).with_chunk_pairs(600))
                .filter_set(&set);
        assert_eq!(run.chunk_loads.len(), run.batches);
        // Host stage and kernel stage re-aggregate exactly from the loads.
        let host: f64 = run.chunk_loads.iter().map(|l| l.host_seconds).sum();
        assert!((host - run.timing.host_prep_seconds - run.timing.encode_seconds).abs() < 1e-15);
        let kernel: f64 = run.chunk_loads.iter().map(|l| l.kernel_seconds).sum();
        // Pascal prefetches, so no fault time hides in the kernel stage.
        assert!((kernel - run.timing.kernel_seconds).abs() < 1e-15);
        // The captured H2D bytes are the prefetched pages, buffer by buffer.
        let h2d: u64 = run.chunk_loads.iter().map(|l| l.total_h2d_bytes()).sum();
        assert_eq!(h2d, run.memory_stats.bytes_to_device);
        assert!(run.chunk_loads.iter().all(|l| l.h2d_bytes[0] > 0));
        // The result buffer never becomes device-resident, so nothing
        // migrates back (the unified-memory quirk the field keeps visible).
        let d2h: u64 = run.chunk_loads.iter().map(|l| l.d2h_bytes).sum();
        assert_eq!(d2h, run.memory_stats.bytes_to_host);
    }

    #[test]
    fn kepler_chunk_loads_fold_migration_into_the_kernel_stage() {
        let set = pairs(1_000);
        let run = GateKeeperGpu::new(DeviceSpec::tesla_k20x(), FilterConfig::new(100, 4))
            .filter_set(&set);
        // No prefetch path on Kepler: the loads carry no H2D bytes, and the
        // fault-driven migration cost sits inside the kernel stage instead.
        assert!(run.chunk_loads.iter().all(|l| l.total_h2d_bytes() == 0));
        let kernel: f64 = run.chunk_loads.iter().map(|l| l.kernel_seconds).sum();
        assert!(kernel > run.timing.kernel_seconds);
        assert!((kernel - run.timing.kernel_seconds - run.timing.transfer_seconds).abs() < 1e-15);
    }

    #[test]
    fn undefined_pairs_are_passed_through() {
        let mut profile = DatasetProfile::set3();
        profile.undefined_fraction = 0.1;
        let set = profile.generate(1_000, 9);
        let run = gpu(5, EncodingActor::Device).filter_set(&set);
        let undefined = run.decisions.iter().filter(|d| d.undefined).count();
        assert_eq!(undefined, set.undefined_count());
    }

    #[test]
    fn single_pair_interface_matches_batch_decisions() {
        let set = pairs(200);
        let system = gpu(5, EncodingActor::Device);
        let run = system.filter_set(&set);
        for (pair, decision) in set.pairs.iter().zip(run.decisions.iter()) {
            assert_eq!(
                system.filter_pair(&pair.read, &pair.reference).accepted,
                decision.accepted
            );
        }
        assert_eq!(system.name(), "GateKeeper-GPU");
        assert_eq!(system.threshold(), 5);
    }
}
