//! # gk-core
//!
//! The GateKeeper-GPU *system*: everything the paper's Methods section (§3)
//! describes around the filtering algorithm itself.
//!
//! * [`config`] — compile-time-style configuration (read length, error threshold,
//!   encoding actor) and the system-configuration step of §3.1 that sizes batches
//!   from the device's free global memory.
//! * [`gpu`] — [`gpu::GateKeeperGpu`]: batched filtering on the simulated device
//!   (unified-memory buffers, memAdvise + prefetch streams, one filtration per
//!   thread, kernel/filter time split, host- or device-side encoding).
//! * [`pipeline`] — the chunked, triple-buffered batch pipeline: chunk planning,
//!   the stream-overlap scheduler (encode+H2D next chunk ∥ kernel current chunk ∥
//!   D2H previous chunk), and overlapped-versus-serialized reporting.
//! * [`multi_gpu`] — [`multi_gpu::MultiGpuGateKeeper`]: round-robin chunk sharding
//!   across several devices with the paper's timing conventions, and the
//!   topology-aware scheduler that weights shares, picks each device's encoding
//!   actor and sizes chunks by its interconnect link.
//! * [`cpu`] — [`cpu::GateKeeperCpu`]: the multicore CPU baseline used in the
//!   throughput comparison (Table 2), measured in real wall-clock time.
//! * [`timing`] — timing breakdowns and the "billions of filtrations in 40 minutes"
//!   throughput metric used throughout §5.2.
//! * [`backend`] — [`backend::FilterBackend`]: the cpu/gpu/multi-gpu execution
//!   paths behind one registry trait, the dispatch seam of the `gk-serve`
//!   filter-as-a-service daemon.
//!
//! The filtering *algorithm* (masks, amendment, boundary fix) lives in
//! `gk-filters`; this crate wires it into the execution substrate from `gk-gpusim`.

#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod cpu;
pub mod gpu;
pub mod multi_gpu;
pub mod pipeline;
pub mod timing;

pub use backend::{
    BackendRegistry, CpuSimdBackend, FilterBackend, FilterJob, FilterKind, GpuSimBackend,
    MultiGpuBackend,
};
pub use config::{EncodingActor, FilterConfig, SystemConfig};
pub use cpu::{CpuFilterRun, GateKeeperCpu};
pub use gpu::{FilterRun, GateKeeperGpu};
pub use multi_gpu::{DeviceAssignment, MultiGpuGateKeeper, MultiGpuRun, MultiGpuSchedule};
pub use pipeline::{
    ChunkPlan, PipelineReport, PipelineSchedule, StreamFilterRun, MIN_CONTENDED_CHUNK_PAIRS,
};
pub use timing::{billions_in_40_minutes, pairs_per_second, InterconnectReport, TimingBreakdown};
