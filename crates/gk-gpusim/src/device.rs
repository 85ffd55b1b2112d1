//! Device specifications for the simulated GPUs.
//!
//! The paper evaluates on two machines (§4.2):
//!
//! * **Setup 1** — 8 × NVIDIA GeForce GTX 1080 Ti (Pascal, compute capability 6.1,
//!   ~10 GB usable global memory each), PCIe generation 3 ×16, CUDA 10.1;
//! * **Setup 2** — 4 × NVIDIA Tesla K20X (Kepler, compute capability 3.5, ~5 GB
//!   global memory each), PCIe generation 2 ×16, CUDA 10.2. Kepler does not support
//!   unified-memory prefetching, which is why Setup 2 is consistently slower in the
//!   paper's unified-memory-heavy workload.
//!
//! [`DeviceSpec`] captures the architectural parameters the simulator's occupancy,
//! timing, memory and power models need, with presets for both devices.

use serde::{Deserialize, Serialize};

/// GPU micro-architecture generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Architecture {
    /// Kepler (compute capability 3.x) — no unified-memory prefetch support.
    Kepler,
    /// Pascal (compute capability 6.x) — supports memAdvise and prefetching.
    Pascal,
}

/// A PCIe link between host and device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PcieLink {
    /// PCIe generation (2 or 3 in the paper's setups).
    pub generation: u8,
    /// Number of lanes (16 in both setups).
    pub lanes: u8,
}

impl PcieLink {
    /// Effective host↔device bandwidth in GB/s (per direction), accounting for
    /// protocol overhead (~80% of the raw link rate).
    pub fn bandwidth_gb_per_s(&self) -> f64 {
        // Raw per-lane rates: gen2 = 0.5 GB/s, gen3 = ~0.985 GB/s, gen4 = ~1.97 GB/s.
        let per_lane = match self.generation {
            0 | 1 => 0.25,
            2 => 0.5,
            3 => 0.985,
            _ => 1.97,
        };
        per_lane * self.lanes as f64 * 0.8
    }

    /// Time to move `bytes` across the link, in seconds.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.bandwidth_gb_per_s() * 1e9)
    }
}

/// Static description of a simulated GPU device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"GeForce GTX 1080 Ti"`.
    pub name: String,
    /// Micro-architecture generation.
    pub architecture: Architecture,
    /// CUDA compute capability (major, minor).
    pub compute_capability: (u32, u32),
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// CUDA cores per SM.
    pub cores_per_sm: u32,
    /// Boost clock in GHz.
    pub clock_ghz: f64,
    /// Usable global memory in bytes.
    pub global_memory_bytes: u64,
    /// Device memory bandwidth in GB/s.
    pub memory_bandwidth_gb_per_s: f64,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Register allocation granularity (registers are allocated per warp in units
    /// of this many registers).
    pub register_allocation_granularity: u32,
    /// Shared memory per SM in bytes.
    pub shared_memory_per_sm: u32,
    /// Threads per warp (32 on every CUDA device).
    pub warp_size: u32,
    /// PCIe link to the host.
    pub pcie: PcieLink,
    /// Board power limit in watts.
    pub tdp_watts: f64,
    /// Idle power draw in watts.
    pub idle_watts: f64,
}

impl DeviceSpec {
    /// The Setup 1 device: NVIDIA GeForce GTX 1080 Ti (Pascal, CC 6.1).
    pub fn gtx_1080_ti() -> DeviceSpec {
        DeviceSpec {
            name: "GeForce GTX 1080 Ti".to_string(),
            architecture: Architecture::Pascal,
            compute_capability: (6, 1),
            sm_count: 28,
            cores_per_sm: 128,
            clock_ghz: 1.582,
            global_memory_bytes: 10 * 1024 * 1024 * 1024,
            memory_bandwidth_gb_per_s: 484.0,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            registers_per_sm: 65_536,
            register_allocation_granularity: 256,
            shared_memory_per_sm: 96 * 1024,
            warp_size: 32,
            pcie: PcieLink {
                generation: 3,
                lanes: 16,
            },
            tdp_watts: 250.0,
            idle_watts: 9.0,
        }
    }

    /// The Setup 2 device: NVIDIA Tesla K20X (Kepler, CC 3.5).
    pub fn tesla_k20x() -> DeviceSpec {
        DeviceSpec {
            name: "Tesla K20X".to_string(),
            architecture: Architecture::Kepler,
            compute_capability: (3, 5),
            sm_count: 14,
            cores_per_sm: 192,
            clock_ghz: 0.732,
            global_memory_bytes: 5 * 1024 * 1024 * 1024,
            memory_bandwidth_gb_per_s: 250.0,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 16,
            registers_per_sm: 65_536,
            register_allocation_granularity: 256,
            shared_memory_per_sm: 48 * 1024,
            warp_size: 32,
            pcie: PcieLink {
                generation: 2,
                lanes: 16,
            },
            tdp_watts: 235.0,
            idle_watts: 30.0,
        }
    }

    /// Total number of CUDA cores.
    fn cuda_cores(&self) -> u32 {
        self.sm_count * self.cores_per_sm
    }

    /// Unified-memory prefetching and `memAdvise` require compute capability 6.x or
    /// later (§2.2 / §3.4: "these actions are skipped for lower CUDA compute
    /// capabilities").
    pub fn supports_prefetch(&self) -> bool {
        self.compute_capability.0 >= 6
    }

    /// Peak arithmetic throughput in operations per second (single issue per core).
    pub fn peak_ops_per_second(&self) -> f64 {
        self.cuda_cores() as f64 * self.clock_ghz * 1e9
    }

    /// Free global memory available for buffers, after a fixed runtime reservation.
    /// The system-configuration step of GateKeeper-GPU queries this value to size
    /// its batches (§3.1).
    pub fn free_global_memory(&self) -> u64 {
        let reserved = 512 * 1024 * 1024;
        self.global_memory_bytes.saturating_sub(reserved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx_1080_ti_matches_published_specs() {
        let d = DeviceSpec::gtx_1080_ti();
        // "3584 CUDA cores in NVIDIA Geforce GTX 1080 Ti" (§1).
        assert_eq!(d.cuda_cores(), 3584);
        assert_eq!(d.architecture, Architecture::Pascal);
        assert_eq!(d.compute_capability, (6, 1));
        assert!(d.supports_prefetch());
        assert_eq!(d.pcie.generation, 3);
    }

    #[test]
    fn tesla_k20x_matches_published_specs() {
        let d = DeviceSpec::tesla_k20x();
        assert_eq!(d.cuda_cores(), 2688);
        assert_eq!(d.architecture, Architecture::Kepler);
        assert!(!d.supports_prefetch());
        assert_eq!(d.pcie.generation, 2);
        assert!(d.global_memory_bytes < DeviceSpec::gtx_1080_ti().global_memory_bytes);
    }

    #[test]
    fn pcie_gen3_is_roughly_twice_gen2() {
        let gen2 = PcieLink {
            generation: 2,
            lanes: 16,
        };
        let gen3 = PcieLink {
            generation: 3,
            lanes: 16,
        };
        let ratio = gen3.bandwidth_gb_per_s() / gen2.bandwidth_gb_per_s();
        assert!(ratio > 1.8 && ratio < 2.2, "ratio = {ratio}");
    }

    #[test]
    fn transfer_time_scales_linearly_with_bytes() {
        let link = PcieLink {
            generation: 3,
            lanes: 16,
        };
        let t1 = link.transfer_seconds(1_000_000);
        let t2 = link.transfer_seconds(2_000_000);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        assert!(t1 > 0.0);
    }

    #[test]
    fn pascal_is_faster_than_kepler_in_peak_ops() {
        assert!(
            DeviceSpec::gtx_1080_ti().peak_ops_per_second()
                > DeviceSpec::tesla_k20x().peak_ops_per_second()
        );
    }

    #[test]
    fn free_memory_leaves_a_runtime_reservation() {
        let d = DeviceSpec::gtx_1080_ti();
        assert!(d.free_global_memory() < d.global_memory_bytes);
        assert!(d.free_global_memory() > d.global_memory_bytes / 2);
    }

    #[test]
    fn unknown_pcie_generations_still_give_positive_bandwidth() {
        for generation in [0u8, 1, 2, 3, 4, 5] {
            let link = PcieLink {
                generation,
                lanes: 16,
            };
            assert!(link.bandwidth_gb_per_s() > 0.0);
        }
    }
}
