//! # gk-gpusim
//!
//! A CUDA-like GPU execution-model **simulator**, used in place of the real NVIDIA
//! hardware the paper runs on (GeForce GTX 1080 Ti and Tesla K20X).
//!
//! ## Why a simulator
//!
//! The GateKeeper-GPU contribution is inseparable from the CUDA execution model:
//! batched kernels, one filtration per thread, unified memory with `memAdvise` and
//! asynchronous prefetching, occupancy tuning, multi-GPU scaling, and power
//! behaviour. Rust has no mature CUDA path and this environment has no GPU, so the
//! reproduction runs the *same per-thread kernel logic* on host threads (functional
//! fidelity — identical accept/reject decisions) while an analytic timing model
//! calibrated to the published device specifications reproduces the *shape* of the
//! performance results (batching effects, the encoding-actor trade-off, prefetch
//! benefit, multi-GPU scaling, occupancy, power).
//!
//! ## What it provides
//!
//! * [`device`] — [`device::DeviceSpec`] with presets for the paper's two setups
//!   (Pascal GTX 1080 Ti, Kepler Tesla K20X) and PCIe link models.
//! * [`occupancy`] — the CUDA occupancy calculator; reproduces the 63% / 50%
//!   theoretical-occupancy numbers of §5.4.1.
//! * [`encode`] — the in-kernel encode-stage model of the device encoding
//!   actor: per-base cycle cost and the fused encode+filter kernel's
//!   register/occupancy footprint.
//! * [`memory`] — unified memory with page-granular residency, on-demand migration
//!   (page faults), `memAdvise`, and asynchronous prefetch (compute capability ≥ 6.x
//!   only, as on the real hardware).
//! * [`executor`] — SIMT kernel launcher: grid/block/warp decomposition, per-thread
//!   closures run in parallel with Rayon, warp-execution-efficiency and
//!   SM-efficiency accounting, and the kernel timing model.
//! * [`stream`] — CUDA-stream/event-style timeline bookkeeping, including
//!   cross-stream dependencies (`wait_event`).
//! * [`timeline`] — [`timeline::Timeline`]: a multi-stream scheduler that chains
//!   H2D / kernel / D2H streams with events and reports the overlapped makespan
//!   versus the serialized sum (the §3.4 multi-stream prefetch model).
//! * [`power`] — nvprof-like power sampling (min/max/average milliwatts).
//! * [`profiler`] — aggregated per-kernel profiling reports.
//! * [`topology`] — interconnect topologies: devices attached to shared host
//!   links (root complex, PCIe switch fan-out, NVLink-style fabric) whose
//!   concurrent transfers serialize instead of overlapping for free, plus the
//!   contended multi-device pipeline replay ([`topology::simulate_contended`]).

#![warn(missing_docs)]

pub mod device;
pub mod encode;
pub mod executor;
pub mod memory;
pub mod occupancy;
pub mod power;
pub mod profiler;
pub mod stream;
pub mod timeline;
pub mod topology;

pub use device::{Architecture, DeviceSpec, PcieLink};
pub use executor::{
    launch_kernel, KernelResources, KernelStats, LaunchConfig, ThreadCtx, ThreadReport,
};
pub use memory::{MemAdvise, MemoryStats, UnifiedBuffer, UnifiedMemory};
pub use occupancy::{theoretical_occupancy, OccupancyLimit, OccupancyResult};
pub use power::{PowerModel, PowerReport};
pub use profiler::{KernelProfile, Profiler};
pub use stream::{Event, Stream};
pub use timeline::{Link, LinkId, StreamId, Timeline};
pub use topology::{
    simulate_contended, weighted_partition, ChunkLoad, ContentionRun, LinkSpec, LinkUsage,
    Topology, TopologyKind,
};
