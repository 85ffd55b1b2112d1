//! The batched GateKeeper-GPU filtering system on one or more simulated
//! devices.
//!
//! This is the Rust analogue of the CUDA host code the paper describes in §3:
//! the host gathers (read, candidate reference segment) pairs into maximal
//! batches (§3.1), places the buffers in unified memory with asynchronous
//! prefetching (§3.2/§3.4), launches one kernel per batch with one filtration
//! per thread, and reads the accept/reject bit plus the approximate edit
//! distance back from the result buffer (§3.5).
//!
//! [`GateKeeperGpu`] runs over a non-empty device list. One device is the
//! plain case; with several, the pair set is sharded across them by the
//! scheduler of [`crate::multi_gpu`] (Setup 1's eight GTX 1080 Ti, §3.1 and
//! §4.3) and every device pipelines its share. The run reports every device's
//! own pipeline in [`FilterRun::per_device`] next to the paper's combined
//! kernel and filter times.
//!
//! Functional behaviour (the decisions) comes from actually running the improved
//! GateKeeper kernel of `gk-filters` for every pair. Timing comes from the device
//! model in `gk-gpusim` plus a small set of host-side cost constants: each
//! chunk's buffer sizes go to one `MemoryStats::record_batch` call for the
//! prefetch or page-fault cost, and its per-pair cycle counts go to one
//! `launch_kernel` fold for the kernel time and the nvprof-style statistics.
//! `docs/MODEL.md` lists every constant with the paper datum it was set
//! against. They are calibrated so the *relative* behaviour of the paper is
//! reproduced: kernel time grows mildly with the error threshold while filter
//! time is dominated by host preparation and transfers; host encoding shrinks
//! the transfer but adds host time; prefetch-less devices (Kepler) pay
//! page-fault overhead.
//!
//! The encoding actor selects one of two genuinely different **execution
//! paths**, not just two timing attributions:
//!
//! * **host encode** ([`EncodingActor::Host`]) — the prep stage runs
//!   `gk_seq::pairs::encode_pair_batch` on the worker pool and the device
//!   stage consumes packed words; the H2D buffers carry 2-bit words and the
//!   host pays `TimingBreakdown::encode_seconds`;
//! * **device encode** ([`EncodingActor::Device`]) — the prep stage only
//!   *gathers* each chunk into a raw 1-byte-per-base transfer arena
//!   ([`gk_seq::raw::RawPairBatch`]), the H2D buffers carry ~4× the bytes,
//!   and every thread of a **fused encode+filter kernel** packs its own pair
//!   before filtering — the encode cost lands inside the kernel time
//!   (`TimingBreakdown::encode_device_seconds`, per-base cycle model in
//!   `gk_gpusim::encode`) and the host never touches a packed word.
//!
//! Decisions are byte-identical between the two paths for every chunk size,
//! overlap setting and device count — the root `encode_mode_equivalence`
//! suite proptests exactly that.
//!
//! Execution is organised as the chunked three-stage pipeline of
//! [`crate::pipeline`]: every run — [`GateKeeperGpu::filter_set`] over a
//! materialized [`PairSet`], or [`GateKeeperGpu::filter_stream_with`] over
//! batches produced on the fly — feeds plan-sized chunks through encode+H2D,
//! kernel, and D2H read-back stages. The host runs those stages one chunk
//! after another, in input order. With [`FilterConfig::overlap`] on, the
//! stages of adjacent chunks overlap on separate *simulated* streams (§3.4)
//! and the reported filter time is the pipeline makespan; decisions are
//! byte-identical either way.

use crate::config::{EncodingActor, FilterConfig, SystemConfig};
use crate::multi_gpu::MultiGpuSchedule;
use crate::pipeline::{ChunkPlan, PipelineReport, StreamFilterRun};
use crate::timing::{InterconnectReport, TimingBreakdown};
use gk_filters::gatekeeper::GateKeeperConfig;
use gk_filters::simd::{
    filter_blocks, gatekeeper_filter_block_packed, gatekeeper_filter_block_slices, SimdMode,
};
use gk_filters::traits::{FilterDecision, PreAlignmentFilter};
use gk_gpusim::clock::{ChunkStageSeconds, PipelineClock};
use gk_gpusim::device::DeviceSpec;
use gk_gpusim::executor::{launch_kernel, KernelResources};
use gk_gpusim::memory::{BatchTraffic, MemoryStats};
use gk_gpusim::power::PowerReport;
use gk_gpusim::profiler::Profiler;
use gk_gpusim::topology::ChunkLoad;
use gk_seq::pairs::{encode_pair_batch, PairSet, SequencePair};
use gk_seq::raw::RawPairBatch;
use gk_seq::PackedSeq;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Host-side buffer preparation cost per pair (gathering reads and candidate
/// indices into the transfer buffers, §3.5). `pub(crate)` so the topology-aware
/// multi-GPU scheduler can estimate per-device service rates from the same
/// constants the pipeline charges.
pub(crate) const HOST_PREP_SECONDS_PER_PAIR: f64 = 3.0e-7;
/// Host 2-bit encoding throughput in bases per second (multithreaded host encode).
pub(crate) const HOST_ENCODE_BASES_PER_SECOND: f64 = 2.0e8;
/// Fixed kernel-launch overhead per batch.
const KERNEL_LAUNCH_OVERHEAD_S: f64 = 10e-6;
/// Modelled device cycles: fixed cost per filtration.
const CYCLES_BASE: u64 = 2_000;
/// Modelled device cycles per (mask × word) of bitwise work.
const CYCLES_PER_MASK_WORD: u64 = 1_000;
/// Modelled device cycles consumed by a thread that passes an undefined pair.
const CYCLES_UNDEFINED: u64 = 300;
/// Extra data-dependent cycles per estimated edit (amendment/counting divergence).
const CYCLES_PER_EDIT: u64 = 120;

/// Modelled cycles one fused-kernel thread spends 2-bit packing its pair
/// (device encoding only; zero when the host already encoded).
fn encode_cycles_per_pair(config: &FilterConfig) -> u64 {
    match config.encoding {
        EncodingActor::Device => gk_gpusim::encode::encode_cycles(2 * config.read_len as u64),
        EncodingActor::Host => 0,
    }
}

/// Modelled device cycles of one defined pair before its data-dependent edit
/// term: the fixed cost, the `2e + 1` masks over every word, and the fused
/// kernel's packing pass in device-encoded mode. The pipeline charges this per
/// pair and the topology-aware scheduler estimates kernel rates from it.
pub(crate) fn pair_cycles(config: &FilterConfig) -> u64 {
    let words = config.words_per_sequence() as u64;
    let masks = 2 * config.threshold as u64 + 1;
    CYCLES_BASE + masks * words * CYCLES_PER_MASK_WORD + encode_cycles_per_pair(config)
}

/// Result of filtering a pair set on the (simulated) GPUs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterRun {
    /// Per-pair decisions, in input order.
    pub decisions: Vec<FilterDecision>,
    /// Unified-memory traffic over the whole run, summed over devices.
    pub memory_stats: MemoryStats,
    /// Every device's own pipeline run, indexed like the device list.
    pub per_device: Vec<DeviceRun>,
    /// Contended-versus-private interconnect replay of the run's chunk loads.
    /// Purely additive reporting: [`FilterRun::kernel_seconds`] and
    /// [`FilterRun::filter_seconds`] keep the paper's free-overlap
    /// conventions regardless of topology.
    pub interconnect: InterconnectReport,
}

impl FilterRun {
    /// Kernel time in seconds: the summed CUDA-event time of a lone device,
    /// the slowest device's with several (§4.3).
    pub fn kernel_seconds(&self) -> f64 {
        self.per_device
            .iter()
            .map(|r| r.timing.kernel_seconds)
            .fold(0.0, f64::max)
    }

    /// Host-observed filter time in seconds (§4.3). A lone device reports its
    /// own. With several, the host pays preparation and encoding once (it
    /// fills one buffer per device from the same pass), then the devices
    /// transfer and compute concurrently, so the device-side part is the
    /// slowest device's pipeline time beyond those host stages (its overlapped
    /// makespan when stream overlap is on, its transfer + kernel + readback
    /// sum otherwise).
    pub fn filter_seconds(&self) -> f64 {
        if let [device] = self.per_device.as_slice() {
            return device.timing.filter_seconds();
        }
        let host_once: f64 = self
            .per_device
            .iter()
            .map(|r| r.timing.host_prep_seconds + r.timing.encode_seconds)
            .sum();
        let device_side = self
            .per_device
            .iter()
            .map(|r| {
                (r.timing.filter_seconds() - r.timing.host_prep_seconds - r.timing.encode_seconds)
                    .max(0.0)
            })
            .fold(0.0, f64::max);
        host_once + device_side
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

/// One device's pipeline over its share of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceRun {
    /// Timing breakdown; `timing.kernel_seconds` is the summed CUDA-event time and
    /// `timing.filter_seconds()` is the host-observed filter time of §4.3.
    pub timing: TimingBreakdown,
    /// Number of batched kernel calls.
    pub batches: usize,
    /// Unified-memory traffic of this device.
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
    /// Overlapped-versus-serialized pipeline accounting.
    pub pipeline: PipelineReport,
    /// Per-chunk modelled durations and link traffic, in pipeline order — the
    /// currency the contention replay
    /// (`gk_gpusim::topology::simulate_contended`) re-executes on a shared
    /// interconnect. `h2d_bytes` carries the page-rounded per-buffer prefetch
    /// traffic (zero on prefetch-less devices, whose migration cost is already
    /// inside `kernel_seconds` as page faults), so replaying a load on a
    /// private link at this device's PCIe rate reproduces the chunk's stage
    /// durations bit-for-bit.
    pub chunk_loads: Vec<ChunkLoad>,
}

/// The GateKeeper-GPU filtering system over a non-empty list of simulated
/// devices.
#[derive(Debug, Clone)]
pub struct GateKeeperGpu {
    devices: Vec<DeviceSpec>,
    config: FilterConfig,
    /// `config.simd` resolved against `GK_SIMD` once, at construction — the
    /// per-chunk device stage must not consult the environment.
    simd: SimdMode,
}

impl GateKeeperGpu {
    /// Creates a GateKeeper-GPU instance on a specific device.
    pub fn new(device: DeviceSpec, config: FilterConfig) -> GateKeeperGpu {
        GateKeeperGpu::with_devices(vec![device], config)
    }

    /// Creates an instance on the paper's Setup 1 device (GeForce GTX 1080 Ti).
    pub fn with_default_device(config: FilterConfig) -> GateKeeperGpu {
        GateKeeperGpu::new(DeviceSpec::gtx_1080_ti(), config)
    }

    /// Creates an instance over an explicit (possibly heterogeneous) device
    /// list, kept in order; runs shard across it.
    ///
    /// # Panics
    ///
    /// When `devices` is empty.
    pub fn with_devices(devices: Vec<DeviceSpec>, config: FilterConfig) -> GateKeeperGpu {
        assert!(
            !devices.is_empty(),
            "a GateKeeper-GPU instance needs at least one device"
        );
        GateKeeperGpu {
            devices,
            simd: config.simd.resolve(),
            config,
        }
    }

    /// The devices this instance runs on.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// The user configuration.
    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// Device `index`'s pipeline under `config` (the caller's, or the one the
    /// topology-aware scheduler tuned for that device).
    pub(crate) fn pipeline(&self, index: usize, config: FilterConfig) -> DevicePipeline<'_> {
        let device = &self.devices[index];
        DevicePipeline {
            system: SystemConfig::configure(device, &config),
            device,
            config,
            simd: self.simd,
        }
    }

    /// The resolved pipeline chunk plan for this instance (its first device's).
    pub fn chunk_plan(&self) -> ChunkPlan {
        self.pipeline(0, self.config).chunk_plan()
    }

    /// Filters a whole pair set through the chunked pipeline, reproducing the
    /// paper's kernel-time / filter-time split (with the stream-overlapped
    /// makespan as the filter time when [`FilterConfig::overlap`] is on).
    /// With several devices, the pair set is sharded by
    /// [`GateKeeperGpu::schedule`] on the configured topology.
    pub fn filter_set(&self, pairs: &PairSet) -> FilterRun {
        let schedule = self.schedule(pairs.len());
        let (decisions, per_device) = self.run_schedule(&schedule, &pairs.pairs);
        let mut memory_stats = MemoryStats::default();
        for run in &per_device {
            memory_stats.bytes_to_device += run.memory_stats.bytes_to_device;
            memory_stats.bytes_to_host += run.memory_stats.bytes_to_host;
            memory_stats.page_faults += run.memory_stats.page_faults;
            memory_stats.prefetched_pages += run.memory_stats.prefetched_pages;
            memory_stats.transfer_seconds += run.memory_stats.transfer_seconds;
        }
        FilterRun {
            interconnect: schedule.replay(&per_device),
            decisions,
            memory_stats,
            per_device,
        }
    }

    /// Runs a schedule over `pairs`: each device pipelines its share under its
    /// assigned configuration and writes its decisions straight into their
    /// input-order slots. The shares are independent, so they are processed
    /// one after another here while the timing combines them as if they ran
    /// concurrently (which they do on real hardware).
    pub(crate) fn run_schedule(
        &self,
        schedule: &MultiGpuSchedule,
        pairs: &[SequencePair],
    ) -> (Vec<FilterDecision>, Vec<DeviceRun>) {
        let mut decisions = vec![FilterDecision::accept(0); pairs.len()];
        let mut per_device = Vec::with_capacity(schedule.assignments.len());
        for (index, assignment) in schedule.assignments.iter().enumerate() {
            let mut engine = PipelineEngine::new(self.pipeline(index, assignment.config));
            let mut slots = assignment
                .ranges
                .iter()
                .flat_map(|&(start, end)| start..end);
            let mut chunk_loads = Vec::new();
            let mut sink = |_: &[SequencePair], chunk: Vec<FilterDecision>, load: ChunkLoad| {
                // The chunk drives the zip, so no slot is drawn past its end.
                for (decision, slot) in chunk.into_iter().zip(slots.by_ref()) {
                    decisions[slot] = decision;
                }
                chunk_loads.push(load);
            };
            for &(start, end) in &assignment.ranges {
                engine.feed(&pairs[start..end], &mut sink);
            }
            per_device.push(engine.finish(chunk_loads));
        }
        (decisions, per_device)
    }

    /// Filters a stream of pair batches without materializing the full pair set
    /// *or* the full decision vector: each chunk's pairs and decisions go to
    /// `sink` before they are dropped, and the run keeps only aggregate counts,
    /// timing and memory traffic. This is the whole-genome-scale entry point
    /// (30M pairs in the paper's sets).
    ///
    /// # Panics
    ///
    /// When the instance has more than one device: streaming runs on one
    /// device only, because the shard plan needs the pair total up front.
    pub fn filter_stream_with<I, F>(&self, batches: I, mut sink: F) -> StreamFilterRun
    where
        I: IntoIterator<Item = Vec<SequencePair>>,
        F: FnMut(&[SequencePair], &[FilterDecision]),
    {
        assert_eq!(
            self.devices.len(),
            1,
            "filter_stream_with streams on a single device"
        );
        let mut engine = PipelineEngine::new(self.pipeline(0, self.config));
        let mut pairs = 0usize;
        let mut accepted = 0usize;
        let mut undefined = 0usize;
        // The per-chunk loads are dropped as they come: the streaming entry
        // point promises bounded memory regardless of stream length.
        let mut counting_sink =
            |chunk: &[SequencePair], chunk_decisions: Vec<FilterDecision>, _: ChunkLoad| {
                pairs += chunk_decisions.len();
                accepted += chunk_decisions.iter().filter(|d| d.accepted).count();
                undefined += chunk_decisions.iter().filter(|d| d.undefined).count();
                sink(chunk, &chunk_decisions);
            };
        for batch in batches {
            engine.feed(&batch, &mut counting_sink);
        }
        let run = engine.finish(Vec::new());
        StreamFilterRun {
            pairs,
            accepted,
            undefined,
            timing: run.timing,
            batches: run.batches,
            memory_stats: run.memory_stats,
            pipeline: run.pipeline,
        }
    }
}

/// One device's slice of the system: the device model, the configuration its
/// pipeline runs under, and the system-configuration step's sizing for that
/// pair.
pub(crate) struct DevicePipeline<'g> {
    device: &'g DeviceSpec,
    config: FilterConfig,
    system: SystemConfig,
    simd: SimdMode,
}

impl DevicePipeline<'_> {
    /// The resolved pipeline chunk plan of this device.
    pub(crate) fn chunk_plan(&self) -> ChunkPlan {
        ChunkPlan::resolve(&self.config, &self.system)
    }

    /// Modelled device cycles for one filtration.
    fn filtration_cycles(&self, decision: &FilterDecision) -> u64 {
        // In device-encoded mode every thread packs its pair first — an
        // undefined pair is only *discovered* during that packing pass, so
        // even pass-through threads pay the encode cycles.
        if decision.undefined {
            return CYCLES_UNDEFINED + encode_cycles_per_pair(&self.config);
        }
        pair_cycles(&self.config) + decision.estimated_edits as u64 * CYCLES_PER_EDIT
    }

    /// Runs the device side of one pipeline chunk (unified-memory traffic,
    /// kernel launch, result read-back) over its prepared input: packed words
    /// in host-encoded mode, the raw arena in device-encoded mode (where the
    /// kernel is the fused encode+filter variant).
    fn device_stage(
        &self,
        batch_len: usize,
        input: &ChunkData,
        memory: &mut MemoryStats,
        profiler: &mut Profiler,
    ) -> DeviceOutcome {
        // Unified-memory buffers: reads and reference segments, half the H2D
        // bytes each, and one 8-byte result per pair. The H2D size follows
        // the prepared input itself: packed 2-bit words in host-encoded mode,
        // the raw arena's actual footprint (stride-padded 1-byte bases —
        // padding crosses the link like real bases) in device-encoded mode,
        // so the arena is the single source of truth for raw-mode transfer
        // accounting. The host code prefetches each buffer on its own stream
        // and advises the device as their preferred location (§3.4); the
        // advice has no modelled cost.
        let input_bytes = match input {
            ChunkData::Encoded(_) => {
                2 * self.config.words_per_sequence() as u64 * 4 * batch_len as u64
            }
            ChunkData::Raw(raw) => raw.h2d_bytes(),
        };
        let traffic = memory.record_batch(self.device, input_bytes / 2, 8 * batch_len as u64);

        // Stage 2 (device): kernel launch, one warp-like lane group of four
        // per task (lane mode) or one per-bit filtration per pair (scalar
        // mode), over blocks of pairs. In host-encoded mode the threads
        // consume pre-packed words; in device-encoded mode they run the fused
        // kernel — pack the raw bases they were handed, then filter — which
        // is what makes the two paths byte-identical: both end up filtering
        // the same 2-bit sequences.
        let kernel_config = GateKeeperConfig::gpu(self.config.threshold);
        let decisions: Vec<FilterDecision> = match input {
            ChunkData::Encoded(encoded) => filter_blocks(encoded, |block| {
                let refs: Vec<(&PackedSeq, &PackedSeq)> = block
                    .iter()
                    .map(|(read, reference)| (read, reference))
                    .collect();
                gatekeeper_filter_block_packed(&refs, &kernel_config, self.simd)
            }),
            ChunkData::Raw(raw) => {
                // Fan out pair indices: each block builds only its own
                // slice list, never one for the whole chunk.
                let indices: Vec<usize> = (0..raw.len()).collect();
                filter_blocks(&indices, |block| {
                    let slices: Vec<(&[u8], &[u8])> = block
                        .iter()
                        .map(|&i| (raw.read(i), raw.reference(i)))
                        .collect();
                    gatekeeper_filter_block_slices(&slices, &kernel_config, self.simd)
                })
            }
        };

        let launch = self.system.launch_config(self.device, batch_len);
        // The fused encode+filter kernel keeps encode scratch live and costs
        // a few extra registers (gk_gpusim::encode); at 1024-thread blocks
        // both variants still fit one block per SM (§5.4.1).
        let resources = match self.config.encoding {
            EncodingActor::Device => KernelResources::gatekeeper_gpu_device_encode(self.device),
            EncodingActor::Host => KernelResources::gatekeeper_gpu(self.device),
        };
        let cycles = decisions.iter().map(|d| self.filtration_cycles(d));
        let stats = launch_kernel(self.device, &resources, launch, cycles);
        // Attribute the in-kernel encode share of the fused kernel by its
        // cycle fraction (every thread with a pair packs 2 × read_len bases).
        let encode_device_seconds = if stats.total_cycles > 0 {
            let encode_cycles = batch_len as u64 * encode_cycles_per_pair(&self.config);
            stats.kernel_seconds * encode_cycles as f64 / stats.total_cycles as f64
        } else {
            0.0
        };
        profiler.record(&stats, self.config.words_per_sequence());

        DeviceOutcome {
            decisions,
            traffic,
            kernel_seconds: stats.kernel_seconds + KERNEL_LAUNCH_OVERHEAD_S,
            encode_device_seconds,
        }
    }
}

/// Decisions plus per-stage modelled durations of one chunk's *device* side
/// (everything downstream of the host prep).
struct DeviceOutcome {
    decisions: Vec<FilterDecision>,
    /// Prefetch, page-fault and read-back cost of the chunk's buffers.
    traffic: BatchTraffic,
    kernel_seconds: f64,
    /// In-kernel encode share of `kernel_seconds` (fused kernel only).
    encode_device_seconds: f64,
}

/// Output of one chunk's prep stage, as the device stage consumes it.
enum ChunkData {
    /// Host-encoded mode: the packed 2-bit words, ready for the plain kernel.
    Encoded(Vec<(PackedSeq, PackedSeq)>),
    /// Device-encoded mode: the raw transfer arena; the fused kernel packs it.
    Raw(RawPairBatch),
}

/// The host stage of one chunk: buffer preparation, plus — in host-encoded
/// mode only — the 2-bit packing. In device-encoded mode the host merely
/// *gathers* the raw bases into the flat transfer arena; no `PackedSeq` is
/// ever built on the host, which is the whole point of the path. Returns the
/// prepared input with its modelled prep and encode seconds.
fn prep_stage(batch: &[SequencePair], config: &FilterConfig) -> (ChunkData, f64, f64) {
    let host_prep_seconds = batch.len() as f64 * HOST_PREP_SECONDS_PER_PAIR;
    match config.encoding {
        EncodingActor::Host => {
            let encoded: Vec<(PackedSeq, PackedSeq)> = encode_pair_batch(batch);
            let encode_seconds =
                2.0 * batch.len() as f64 * config.read_len as f64 / HOST_ENCODE_BASES_PER_SECOND;
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
/// unified-memory counters, the profiler and the pipeline clock, and is fed pair
/// slices in input order by the `filter_*` entry points. Each chunk runs
/// prep, device stage and sink one after another on the calling thread; the
/// stage work inside (`encode_pair_batch`, the lane kernel) fans out on the
/// worker pool. Its state does not grow with the chunk count.
struct PipelineEngine<'g> {
    pipeline: DevicePipeline<'g>,
    plan: ChunkPlan,
    memory: MemoryStats,
    profiler: Profiler,
    clock: PipelineClock,
    /// The chunks' stage durations summed in recording order.
    serialized_seconds: f64,
    timing: TimingBreakdown,
    wall_start: Instant,
}

impl<'g> PipelineEngine<'g> {
    fn new(pipeline: DevicePipeline<'g>) -> PipelineEngine<'g> {
        PipelineEngine {
            plan: pipeline.chunk_plan(),
            memory: MemoryStats::default(),
            profiler: Profiler::new(pipeline.device.clone()),
            clock: PipelineClock::new(),
            serialized_seconds: 0.0,
            timing: TimingBreakdown::default(),
            wall_start: Instant::now(),
            pipeline,
        }
    }

    /// Cuts `pairs` into plan-sized chunks and runs each through the three
    /// stages, records its stages on the pipeline clock, and hands every
    /// chunk's decisions and [`ChunkLoad`] to `sink` in input order. One prep
    /// per chunk in both encode modes: a whole-slice raw arena would copy
    /// exactly the same bytes while holding the entire fed slice live,
    /// breaking the bounded-memory contract for big materialized sets.
    fn feed<F>(&mut self, pairs: &[SequencePair], sink: &mut F)
    where
        F: FnMut(&[SequencePair], Vec<FilterDecision>, ChunkLoad),
    {
        for chunk in pairs.chunks(self.plan.chunk_pairs.max(1)) {
            let (input, host_prep_seconds, encode_seconds) =
                prep_stage(chunk, &self.pipeline.config);
            let device = self.pipeline.device_stage(
                chunk.len(),
                &input,
                &mut self.memory,
                &mut self.profiler,
            );
            let traffic = device.traffic;
            // Page faults sit on the kernel's critical path (§4.3) even though
            // reporting accounts them as transfer time.
            let stages = ChunkStageSeconds {
                h2d_seconds: host_prep_seconds + encode_seconds + traffic.prefetch_seconds,
                kernel_seconds: traffic.fault_seconds + device.kernel_seconds,
                d2h_seconds: traffic.readback_seconds,
            };
            self.clock.record(&stages, &mut self.serialized_seconds);
            let load = ChunkLoad {
                host_seconds: host_prep_seconds + encode_seconds,
                h2d_bytes: traffic.h2d_bytes,
                kernel_seconds: traffic.fault_seconds + device.kernel_seconds,
                d2h_bytes: traffic.d2h_bytes,
            };
            self.timing.host_prep_seconds += host_prep_seconds;
            self.timing.encode_seconds += encode_seconds;
            self.timing.encode_device_seconds += device.encode_device_seconds;
            self.timing.transfer_seconds += traffic.prefetch_seconds + traffic.fault_seconds;
            self.timing.kernel_seconds += device.kernel_seconds;
            self.timing.readback_seconds += traffic.readback_seconds;
            sink(chunk, device.decisions, load);
        }
    }

    /// Closes the run: the overlapped makespan, the measured wall clock, the
    /// pipeline report and the profiler/memory aggregates. `chunk_loads` are
    /// the loads the caller kept from `feed`, if any.
    fn finish(mut self, chunk_loads: Vec<ChunkLoad>) -> DeviceRun {
        let config = self.pipeline.config;
        if config.overlap && self.clock.chunks() > 0 {
            self.timing.overlapped_seconds = Some(self.clock.makespan());
        }
        self.timing.host_wall_seconds = self.wall_start.elapsed().as_secs_f64();
        DeviceRun {
            timing: self.timing,
            batches: self.clock.chunks(),
            memory_stats: self.memory,
            achieved_occupancy: self.profiler.average_achieved_occupancy(),
            theoretical_occupancy: self.profiler.theoretical_occupancy(),
            warp_execution_efficiency: self.profiler.average_warp_execution_efficiency(),
            sm_efficiency: self.profiler.average_sm_efficiency(),
            power: self.profiler.aggregate_power(),
            pipeline: PipelineReport {
                chunks: self.clock.chunks(),
                chunk_pairs: self.plan.chunk_pairs,
                overlap: config.overlap,
                overlapped_seconds: self.clock.makespan(),
                serialized_seconds: self.serialized_seconds,
                device_encode: config.encoding == EncodingActor::Device,
                timing_anomalies: self.clock.anomalies(),
            },
            chunk_loads,
        }
    }
}

impl PreAlignmentFilter for GateKeeperGpu {
    fn name(&self) -> &str {
        "GateKeeper-GPU"
    }

    fn threshold(&self) -> u32 {
        self.config.threshold
    }

    fn filter_block(&self, pairs: &[(&[u8], &[u8])]) -> Vec<FilterDecision> {
        let kernel_config = GateKeeperConfig::gpu(self.config.threshold);
        gatekeeper_filter_block_slices(pairs, &kernel_config, self.simd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_filters::GateKeeperFilter;
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
        let reference = GateKeeperFilter::gpu(5);
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
        assert!(host.per_device[0].timing.encode_seconds > 0.0);
        assert_eq!(host.per_device[0].timing.encode_device_seconds, 0.0);
        assert!(!host.per_device[0].pipeline.device_encode);
        // Device path: zero host encode, a positive in-kernel share that
        // stays strictly inside the kernel time.
        assert_eq!(device.per_device[0].timing.encode_seconds, 0.0);
        assert!(device.per_device[0].timing.encode_device_seconds > 0.0);
        assert!(
            device.per_device[0].timing.encode_device_seconds
                < device.per_device[0].timing.kernel_seconds
        );
        assert!(device.per_device[0].pipeline.device_encode);
        // The host-side encode share is strictly lower (zero) on the device
        // path — the acceptance bar of the device-encoding tentpole.
        assert!(
            device.per_device[0].timing.host_encode_share()
                < host.per_device[0].timing.host_encode_share()
        );
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
            let host = GateKeeperGpu::with_default_device(base.with_encoding(EncodingActor::Host))
                .filter_set(&set);
            let device =
                GateKeeperGpu::with_default_device(base.with_encoding(EncodingActor::Device))
                    .filter_set(&set);
            assert_eq!(host.decisions, device.decisions, "chunk {chunk}");
            assert_eq!(host.per_device[0].batches, device.per_device[0].batches);

            // Streamed device-encode equals materialized device-encode.
            let gpu = GateKeeperGpu::with_default_device(base.with_encoding(EncodingActor::Device));
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
        assert_eq!(run.per_device[0].batches, 4);
        assert_eq!(run.decisions.len(), set.len());
        let single = GateKeeperGpu::with_default_device(FilterConfig::new(100, 4)).filter_set(&set);
        assert_eq!(single.per_device[0].batches, 1);
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
        assert!(small_batches.per_device[0].batches > large_batches.per_device[0].batches);
        assert!(small_batches.filter_seconds() > large_batches.filter_seconds());
    }

    #[test]
    fn occupancy_matches_the_paper_analysis() {
        let set = pairs(5_000);
        let run = gpu(4, EncodingActor::Device).filter_set(&set);
        assert!((run.per_device[0].theoretical_occupancy - 0.5).abs() < 1e-9);
        assert!(
            run.per_device[0].achieved_occupancy > 0.0
                && run.per_device[0].achieved_occupancy <= 0.5
        );
        assert!(run.per_device[0].warp_execution_efficiency > 0.5);
        assert!(run.per_device[0].sm_efficiency > 0.0);
    }

    #[test]
    fn power_report_present_and_consistent() {
        let set = pairs(2_000);
        let run = gpu(4, EncodingActor::Device).filter_set(&set);
        let power = run.per_device[0].power.as_ref().expect("power report");
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
        assert_eq!(serialized.per_device[0].batches, 8);
        assert_eq!(overlapped.per_device[0].batches, 8);
        assert_eq!(
            serialized.per_device[0].timing.kernel_seconds,
            overlapped.per_device[0].timing.kernel_seconds
        );
        // …but a strictly lower end-to-end filter time from the overlap.
        assert!(overlapped.filter_seconds() < serialized.filter_seconds());
        assert!(
            (serialized.filter_seconds() - serialized.per_device[0].timing.serialized_seconds())
                .abs()
                < 1e-12
        );
        assert!(overlapped.per_device[0].timing.overlap_savings_seconds() > 0.0);
        assert!(overlapped.per_device[0].pipeline.overlap);
        assert!(overlapped.per_device[0].pipeline.speedup() > 1.0);
        // Both runs measured real wall clock next to the simulated splits.
        assert!(serialized.per_device[0].timing.host_wall_seconds > 0.0);
        assert!(overlapped.per_device[0].timing.host_wall_seconds > 0.0);
        // The serialized run still reports what overlap *would* save.
        assert!(
            serialized.per_device[0].pipeline.overlapped_seconds
                < serialized.per_device[0].pipeline.serialized_seconds
        );
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
        assert_eq!(run.per_device[0].batches, 1);
        assert!(
            (run.filter_seconds() - run.per_device[0].timing.serialized_seconds()).abs() < 1e-12
        );
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
        assert!(streamed.batches >= run.per_device[0].batches);
        assert!(streamed.filter_seconds() > 0.0);
        assert_eq!(streamed.pipeline.timing_anomalies, 0);
    }

    #[test]
    fn chunk_loads_mirror_the_run_accounting() {
        let set = pairs(2_000);
        let run =
            GateKeeperGpu::with_default_device(FilterConfig::new(100, 4).with_chunk_pairs(600))
                .filter_set(&set);
        assert_eq!(
            run.per_device[0].chunk_loads.len(),
            run.per_device[0].batches
        );
        // Host stage and kernel stage re-aggregate exactly from the loads.
        let host: f64 = run.per_device[0]
            .chunk_loads
            .iter()
            .map(|l| l.host_seconds)
            .sum();
        assert!(
            (host
                - run.per_device[0].timing.host_prep_seconds
                - run.per_device[0].timing.encode_seconds)
                .abs()
                < 1e-15
        );
        let kernel: f64 = run.per_device[0]
            .chunk_loads
            .iter()
            .map(|l| l.kernel_seconds)
            .sum();
        // Pascal prefetches, so no fault time hides in the kernel stage.
        assert!((kernel - run.per_device[0].timing.kernel_seconds).abs() < 1e-15);
        // The captured H2D bytes are the prefetched pages, buffer by buffer.
        let h2d: u64 = run.per_device[0]
            .chunk_loads
            .iter()
            .map(|l| l.total_h2d_bytes())
            .sum();
        assert_eq!(h2d, run.memory_stats.bytes_to_device);
        assert!(run.per_device[0]
            .chunk_loads
            .iter()
            .all(|l| l.h2d_bytes[0] > 0));
        // The result buffer never becomes device-resident, so nothing
        // migrates back (the unified-memory quirk the field keeps visible).
        let d2h: u64 = run.per_device[0]
            .chunk_loads
            .iter()
            .map(|l| l.d2h_bytes)
            .sum();
        assert_eq!(d2h, run.memory_stats.bytes_to_host);
    }

    #[test]
    fn kepler_chunk_loads_fold_migration_into_the_kernel_stage() {
        let set = pairs(1_000);
        let run = GateKeeperGpu::new(DeviceSpec::tesla_k20x(), FilterConfig::new(100, 4))
            .filter_set(&set);
        // No prefetch path on Kepler: the loads carry no H2D bytes, and the
        // fault-driven migration cost sits inside the kernel stage instead.
        assert!(run.per_device[0]
            .chunk_loads
            .iter()
            .all(|l| l.total_h2d_bytes() == 0));
        let kernel: f64 = run.per_device[0]
            .chunk_loads
            .iter()
            .map(|l| l.kernel_seconds)
            .sum();
        assert!(kernel > run.per_device[0].timing.kernel_seconds);
        assert!(
            (kernel
                - run.per_device[0].timing.kernel_seconds
                - run.per_device[0].timing.transfer_seconds)
                .abs()
                < 1e-15
        );
    }

    #[test]
    #[should_panic(expected = "filter_stream_with streams on a single device")]
    fn streaming_on_two_devices_panics() {
        let gpu = GateKeeperGpu::with_devices(
            vec![DeviceSpec::gtx_1080_ti(); 2],
            FilterConfig::new(100, 2),
        );
        gpu.filter_stream_with(Vec::<Vec<SequencePair>>::new(), |_, _| {});
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
