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
//! behaviour. Rust has no mature CUDA path and no GPU is assumed, so the
//! reproduction computes every decision with the GateKeeper kernel of
//! `gk-filters` on the host (functional fidelity — identical accept/reject
//! decisions), and this crate turns each batch's sizes and per-pair cycle counts
//! into modelled device seconds. The analytic model is calibrated to the
//! published device specifications and reproduces the *shape* of the
//! performance results (batching effects, the encoding-actor trade-off, prefetch
//! benefit, multi-GPU scaling, occupancy, power); `docs/MODEL.md` lists every
//! model constant with the paper datum it was set against.
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
//! * [`memory`] — the unified-memory cost of one batch: page-granular
//!   asynchronous prefetch (compute capability ≥ 6.x only, as on the real
//!   hardware) or on-demand migration by page faults, accumulated per device
//!   in [`memory::MemoryStats`].
//! * [`executor`] — SIMT launch accounting: one sequential fold over a batch's
//!   per-pair cycle counts, grid/block/warp decomposition,
//!   warp-execution-efficiency and SM-efficiency accounting, and the kernel
//!   timing model.
//! * [`clock`] — [`clock::PipelineClock`]: one device's H2D, kernel and D2H
//!   stream cursors with the rotation of [`clock::BUFFER_SLOTS`] buffers, giving
//!   the overlapped makespan of the §3.4 multi-stream prefetch model.
//! * [`power`] — nvprof-like power sampling (min/max/average milliwatts).
//! * [`profiler`] — running nvprof-style aggregates over a run's launches:
//!   average occupancy and efficiencies, and the power report.
//! * [`topology`] — interconnect topologies: devices attached to shared host
//!   links (root complex, PCIe switch fan-out, NVLink-style fabric) whose
//!   concurrent transfers serialize instead of overlapping for free, plus the
//!   contended multi-device pipeline replay ([`topology::simulate_contended`]),
//!   which drives one pipeline clock per device.

#![warn(missing_docs)]

pub mod clock;
pub mod device;
pub mod encode;
pub mod executor;
pub mod memory;
pub mod occupancy;
pub mod power;
pub mod profiler;
pub mod topology;

// Scenario tests of the clock's streams and of whole simulated timelines
// (several streams, devices and links).
#[cfg(test)]
mod stream;
#[cfg(test)]
mod timeline;

pub use clock::{ChunkStageSeconds, PipelineClock, BUFFER_SLOTS};
pub use device::{Architecture, DeviceSpec, PcieLink};
pub use executor::{launch_kernel, KernelResources, KernelStats, LaunchConfig};
pub use memory::{BatchTraffic, MemoryStats};
pub use occupancy::{theoretical_occupancy, OccupancyLimit, OccupancyResult};
pub use power::{PowerModel, PowerReport};
pub use profiler::Profiler;
pub use topology::{
    simulate_contended, weighted_partition, ChunkLoad, ContentionRun, LinkSpec, LinkUsage,
    Topology, TopologyKind,
};
