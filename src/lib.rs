//! # gatekeeper-gpu
//!
//! Umbrella crate for the Rust reproduction of *GateKeeper-GPU: Fast and Accurate
//! Pre-Alignment Filtering in Short Read Mapping* (Bingöl et al., 2021).
//!
//! The actual functionality lives in the workspace crates, re-exported here for
//! convenience:
//!
//! * [`seq`] — DNA sequences, 2-bit packing, FASTA/FASTQ I/O, read & dataset simulators.
//! * [`align`] — edit-distance algorithms (Myers bit-vector, with an optional
//!   bound for verification; the DP it is tested against).
//! * [`filters`] — pre-alignment filters: GateKeeper-GPU and the baselines it is
//!   compared against (GateKeeper-FPGA/SHD, MAGNET, Shouji, SneakySnake).
//! * [`gpusim`] — the analytic GPU cost model used as a hardware substitute
//!   (launch accounting, per-batch unified-memory cost, occupancy, timing and
//!   power models).
//! * [`core`] — the GateKeeper-GPU system: configuration, batching, host/device
//!   encoding, kernel launches, one front end over a device list (one GPU or
//!   several, sharded by a topology-aware scheduler), and the multicore CPU
//!   baseline.
//! * [`mapper`] — an mrFAST-like seed-and-extend read mapper with a pre-alignment
//!   filter hook, used for the whole-genome experiments.
//! * [`serve`] — filter-as-a-service: a dynamic-batching daemon + client speaking
//!   length-prefixed binary frames, executing through the [`core::FilterBackend`]
//!   registry.
//!
//! ## Quick start
//!
//! ```
//! use gatekeeper_gpu::core::{FilterConfig, EncodingActor, GateKeeperGpu};
//! use gatekeeper_gpu::filters::PreAlignmentFilter;
//!
//! let config = FilterConfig::new(100, 4).with_encoding(EncodingActor::Host);
//! let filter = GateKeeperGpu::with_default_device(config);
//! let read = b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTAC\
//!              GTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT";
//! let decision = filter.filter_pair(read, read);
//! assert!(decision.accepted);
//! ```

pub use gk_align as align;
pub use gk_core as core;
pub use gk_filters as filters;
pub use gk_gpusim as gpusim;
pub use gk_mapper as mapper;
pub use gk_seq as seq;
pub use gk_serve as serve;

/// Semantic version of the reproduction.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
