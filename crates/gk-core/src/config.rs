//! Configuration and the system-configuration step of §3.1.
//!
//! GateKeeper-GPU fixes the read length and error threshold at compile time (CUDA
//! kernels cannot allocate dynamically-sized per-thread arrays); in this
//! reproduction they are runtime fields of [`FilterConfig`], with the same meaning.
//! Before the first kernel launch the system-configuration step inspects the device
//! (free global memory, maximum threads per block) and derives
//!
//! * the **thread load** — the per-filtration memory footprint (encoded read and
//!   reference words, the `2e + 1` intermediate masks, and the result slot), and
//! * the **batch size** — the number of filtrations per kernel call, maximised so
//!   the number of host↔device transfers stays minimal (§3.1: "the configuration
//!   step ensures that the batch size is maximized").
//!
//! ```
//! use gk_core::config::{EncodingActor, FilterConfig, SystemConfig};
//! use gk_gpusim::device::DeviceSpec;
//!
//! // 100-base reads, error threshold e = 4, host-side 2-bit encoding.
//! let config = FilterConfig::new(100, 4).with_encoding(EncodingActor::Host);
//! assert_eq!(config.words_per_sequence(), 7); // ⌈100 / 16 bases-per-word⌉
//!
//! // The system-configuration step sizes batches for a concrete device.
//! let system = SystemConfig::configure(&DeviceSpec::gtx_1080_ti(), &config);
//! assert!(system.batch_size > 0);
//! ```

use gk_filters::SimdMode;
use gk_gpusim::device::DeviceSpec;
use gk_gpusim::executor::LaunchConfig;
use gk_gpusim::topology::TopologyKind;
use gk_seq::packed::BASES_PER_WORD;
use serde::{Deserialize, Serialize};

/// Which processor encodes the sequences into their 2-bit representation (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EncodingActor {
    /// The CPU encodes before the transfer: smaller transfers, but host time is
    /// spent encoding ("Encoding in the host ... is cost-effective in data
    /// transfer").
    Host,
    /// Each GPU thread encodes its own sequences: larger (raw ASCII) transfers, more
    /// kernel work, but no host encoding time.
    Device,
}

/// User-facing configuration of a GateKeeper-GPU instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterConfig {
    /// Read length in bases (100, 150, 250… in the paper's datasets).
    pub read_len: usize,
    /// Error threshold `e` (at most 10% of the read length in all experiments).
    pub threshold: u32,
    /// Which processor performs the 2-bit encoding.
    pub encoding: EncodingActor,
    /// Maximum number of reads whose candidates are gathered into one batch before
    /// a kernel call (Table 1 explores this knob; 100,000 works best for mrFAST).
    pub max_reads_per_batch: usize,
    /// Overlap the three pipeline stages (encode+H2D, kernel, D2H read-back) of
    /// consecutive chunks on separate simulated streams (§3.4). Decisions are
    /// byte-identical either way; only the simulated timeline changes.
    pub overlap: bool,
    /// Pairs per pipeline chunk; `0` sizes chunks automatically (the full batch
    /// capacity when serialized, a third of it when overlapping so the three
    /// in-flight buffer slots fit the same memory budget).
    pub chunk_pairs: usize,
    /// SIMD lane selection for the filter kernels: the 4-lane struct-of-arrays
    /// path, the per-bit scalar reference, or `Auto` (the default), which
    /// consults the `GK_SIMD` environment variable. Decisions are
    /// byte-identical across modes.
    pub simd: SimdMode,
    /// How the devices of a multi-GPU run attach to the host interconnect
    /// (private links, one shared root complex, PCIe-switch groups, or an
    /// NVLink-style fabric). Drives the contention replay of
    /// `gk_gpusim::topology::simulate_contended`; decisions are byte-identical
    /// across topologies.
    pub topology: TopologyKind,
    /// Let the multi-GPU sharder exploit the topology: contiguous per-device
    /// shares weighted by each device's effective link bandwidth, per-device
    /// encoding-actor selection, and contention-aware chunk sizing (smaller
    /// chunks on shared links so transfers interleave under host prep).
    /// `false` keeps the round-robin equal split of §3.1. Decisions are
    /// byte-identical either way; only the modelled makespan moves.
    pub topology_aware: bool,
}

impl FilterConfig {
    /// Creates a configuration with the paper's defaults (device encoding,
    /// 100,000 reads per batch).
    pub fn new(read_len: usize, threshold: u32) -> FilterConfig {
        FilterConfig {
            read_len,
            threshold,
            encoding: EncodingActor::Device,
            max_reads_per_batch: 100_000,
            overlap: false,
            chunk_pairs: 0,
            simd: SimdMode::Auto,
            topology: TopologyKind::Independent,
            topology_aware: false,
        }
    }

    /// Sets the encoding actor, which selects the execution path. With
    /// [`EncodingActor::Device`] the pipeline's prep stage skips
    /// `encode_pair_batch` entirely: chunks are gathered into raw
    /// 1-byte-per-base transfer arenas (`gk_seq::raw::RawPairBatch`), the H2D
    /// transfer carries ~4× the bytes, and each kernel thread packs its own
    /// pair at the top of a fused encode+filter kernel
    /// (`TimingBreakdown::encode_device_seconds` reports that in-kernel
    /// share). Decisions are byte-identical to the host path in every mode
    /// combination.
    pub fn with_encoding(mut self, encoding: EncodingActor) -> FilterConfig {
        self.encoding = encoding;
        self
    }

    /// Sets the maximum number of reads per batch.
    pub fn with_max_reads_per_batch(mut self, max_reads: usize) -> FilterConfig {
        self.max_reads_per_batch = max_reads.max(1);
        self
    }

    /// Enables or disables stream-overlapped pipelining of consecutive chunks.
    pub fn with_overlap(mut self, overlap: bool) -> FilterConfig {
        self.overlap = overlap;
        self
    }

    /// Sets an explicit pipeline chunk size in pairs (`0` restores auto-sizing).
    pub fn with_chunk_pairs(mut self, chunk_pairs: usize) -> FilterConfig {
        self.chunk_pairs = chunk_pairs;
        self
    }

    /// Selects the SIMD mode for the filter kernels (lanes, scalar reference,
    /// or environment-driven `Auto`).
    pub fn with_simd_mode(mut self, simd: SimdMode) -> FilterConfig {
        self.simd = simd;
        self
    }

    /// Selects the interconnect topology the multi-GPU devices hang off.
    pub fn with_topology(mut self, topology: TopologyKind) -> FilterConfig {
        self.topology = topology;
        self
    }

    /// Enables or disables topology-aware multi-GPU scheduling (weighted
    /// shares, per-device encoding selection, contention-aware chunks).
    pub fn with_topology_aware(mut self, aware: bool) -> FilterConfig {
        self.topology_aware = aware;
        self
    }

    /// Number of 32-bit words one encoded sequence of this read length occupies.
    pub fn words_per_sequence(&self) -> usize {
        self.read_len.div_ceil(BASES_PER_WORD)
    }
}

/// Output of the system-configuration step (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Approximate per-filtration memory requirement in bytes (thread load).
    pub thread_load_bytes: u64,
    /// Maximum filtrations per kernel call for this device.
    pub batch_size: usize,
    /// Threads per block used for kernel launches.
    pub threads_per_block: u32,
}

impl SystemConfig {
    /// Derives the system configuration for a device and filter configuration.
    pub fn configure(device: &DeviceSpec, config: &FilterConfig) -> SystemConfig {
        let words = config.words_per_sequence() as u64;
        let masks = 2 * config.threshold as u64 + 1;
        // Per filtration: encoded read + encoded reference segment (unified memory
        // input buffers), the intermediate masks in the thread's stack frame, the
        // candidate index and the result/edit-distance slots.
        let input_bytes = match config.encoding {
            EncodingActor::Host => 2 * words * 4,
            EncodingActor::Device => 2 * config.read_len as u64,
        };
        let stack_bytes = masks * words * 4;
        let bookkeeping = 16;
        let thread_load_bytes = input_bytes + stack_bytes + bookkeeping;

        // Fill the free global memory, leaving half for the reference and result
        // buffers that coexist with the batch, and cap at a sane maximum so a single
        // batch never exceeds what one grid can reasonably cover.
        let budget = device.free_global_memory() / 2;
        let by_memory = (budget / thread_load_bytes.max(1)) as usize;
        let batch_size = by_memory.clamp(1024, 64_000_000);

        SystemConfig {
            thread_load_bytes,
            batch_size,
            threads_per_block: device.max_threads_per_block,
        }
    }

    /// Launch configuration for a batch of `pairs` filtrations.
    pub fn launch_config(&self, device: &DeviceSpec, pairs: usize) -> LaunchConfig {
        let pairs = pairs.min(self.batch_size).max(1);
        LaunchConfig::for_work_items(device, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_per_sequence_matches_paper() {
        assert_eq!(FilterConfig::new(100, 5).words_per_sequence(), 7);
        assert_eq!(FilterConfig::new(150, 5).words_per_sequence(), 10);
        assert_eq!(FilterConfig::new(250, 5).words_per_sequence(), 16);
    }

    #[test]
    fn builder_methods_apply() {
        let config = FilterConfig::new(100, 4)
            .with_encoding(EncodingActor::Host)
            .with_max_reads_per_batch(5_000);
        assert_eq!(config.encoding, EncodingActor::Host);
        assert_eq!(config.max_reads_per_batch, 5_000);
        assert_eq!(FilterConfig::new(100, 4).encoding, EncodingActor::Device);
    }

    #[test]
    fn device_encode_knob_is_the_encoding_actor() {
        assert_eq!(FilterConfig::new(100, 4).encoding, EncodingActor::Device);
        let host = FilterConfig::new(100, 4).with_encoding(EncodingActor::Host);
        assert_eq!(host.encoding, EncodingActor::Host);
        assert_eq!(
            host.with_encoding(EncodingActor::Device).encoding,
            EncodingActor::Device
        );
    }

    #[test]
    fn overlap_and_chunk_knobs_apply() {
        let config = FilterConfig::new(100, 4)
            .with_overlap(true)
            .with_chunk_pairs(2_048);
        assert!(config.overlap);
        assert_eq!(config.chunk_pairs, 2_048);
        let defaults = FilterConfig::new(100, 4);
        assert!(!defaults.overlap);
        assert_eq!(defaults.chunk_pairs, 0);
    }

    #[test]
    fn simd_mode_knob_defaults_to_auto_and_applies() {
        assert_eq!(FilterConfig::new(100, 4).simd, SimdMode::Auto);
        assert_eq!(
            FilterConfig::new(100, 4)
                .with_simd_mode(SimdMode::Scalar)
                .simd,
            SimdMode::Scalar
        );
    }

    #[test]
    fn topology_knobs_default_to_the_paper_assumption_and_apply() {
        let defaults = FilterConfig::new(100, 4);
        assert_eq!(defaults.topology, TopologyKind::Independent);
        assert!(!defaults.topology_aware);
        let config = FilterConfig::new(100, 4)
            .with_topology(TopologyKind::SharedRoot)
            .with_topology_aware(true);
        assert_eq!(config.topology, TopologyKind::SharedRoot);
        assert!(config.topology_aware);
        assert_eq!(
            FilterConfig::new(100, 4)
                .with_topology(TopologyKind::Switch { fanout: 2 })
                .topology,
            TopologyKind::Switch { fanout: 2 }
        );
    }

    #[test]
    fn zero_batch_request_is_clamped() {
        assert_eq!(
            FilterConfig::new(100, 4)
                .with_max_reads_per_batch(0)
                .max_reads_per_batch,
            1
        );
    }

    #[test]
    fn thread_load_grows_with_threshold_and_read_length() {
        let device = DeviceSpec::gtx_1080_ti();
        let small = SystemConfig::configure(&device, &FilterConfig::new(100, 2));
        let more_errors = SystemConfig::configure(&device, &FilterConfig::new(100, 10));
        let longer = SystemConfig::configure(&device, &FilterConfig::new(250, 2));
        assert!(more_errors.thread_load_bytes > small.thread_load_bytes);
        assert!(longer.thread_load_bytes > small.thread_load_bytes);
    }

    #[test]
    fn batch_size_shrinks_as_thread_load_grows() {
        let device = DeviceSpec::gtx_1080_ti();
        let small = SystemConfig::configure(&device, &FilterConfig::new(100, 2));
        let big = SystemConfig::configure(&device, &FilterConfig::new(250, 25));
        assert!(big.batch_size < small.batch_size);
        assert!(big.batch_size >= 1024);
    }

    #[test]
    fn smaller_memory_device_gets_smaller_batches() {
        let config = FilterConfig::new(100, 5);
        let pascal = SystemConfig::configure(&DeviceSpec::gtx_1080_ti(), &config);
        let kepler = SystemConfig::configure(&DeviceSpec::tesla_k20x(), &config);
        assert!(kepler.batch_size < pascal.batch_size);
    }

    #[test]
    fn host_encoding_reduces_input_bytes() {
        let device = DeviceSpec::gtx_1080_ti();
        let host = SystemConfig::configure(
            &device,
            &FilterConfig::new(100, 5).with_encoding(EncodingActor::Host),
        );
        let dev = SystemConfig::configure(
            &device,
            &FilterConfig::new(100, 5).with_encoding(EncodingActor::Device),
        );
        assert!(host.thread_load_bytes < dev.thread_load_bytes);
    }

    #[test]
    fn launch_config_never_exceeds_the_batch_size() {
        let device = DeviceSpec::gtx_1080_ti();
        let sys = SystemConfig::configure(&device, &FilterConfig::new(100, 5));
        let launch = sys.launch_config(&device, sys.batch_size * 10);
        assert!(launch.total_threads() <= sys.batch_size + device.max_threads_per_block as usize);
        let tiny = sys.launch_config(&device, 10);
        assert_eq!(tiny.grid_blocks, 1);
    }
}
