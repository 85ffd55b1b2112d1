//! SIMT kernel accounting: grid/block/warp decomposition of one launch and the
//! kernel timing model.
//!
//! GateKeeper-GPU assigns one *filtration* to each CUDA thread "to have the least
//! possible dependency between the threads for high filtering throughput" (§3.1).
//! The decisions themselves come from the lane kernels of `gk-filters`; the
//! launcher only sees how much device work each filtration costs. It takes the
//! per-pair cycle counts in pair order, hands pair *i* to global thread *i*,
//! leaves the threads past the last pair idle, and folds the grid block by
//! block, warp by warp, in one sequential pass. From that fold it derives
//!
//! * the **kernel time** under an analytic throughput model (cycles spread over the
//!   device's CUDA cores at its clock, derated by how much latency the achieved
//!   occupancy can hide),
//! * the **warp execution efficiency** (average fraction of active lanes per warp),
//! * the **achieved occupancy** and **SM efficiency**,
//!
//! i.e. the quantities the paper reports from `nvprof` in §5.4.

use crate::device::DeviceSpec;
use crate::occupancy::{theoretical_occupancy, OccupancyResult};
use serde::{Deserialize, Serialize};

// The kernel resource description lives with the occupancy calculator; re-export it
// here because launches always need both.
pub use crate::occupancy::KernelResources;

/// Grid configuration of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

impl LaunchConfig {
    /// A launch sized so that `work_items` threads exist (the batch size of one
    /// GateKeeper-GPU kernel call), using maximum-size blocks as the paper does.
    pub fn for_work_items(device: &DeviceSpec, work_items: usize) -> LaunchConfig {
        let threads_per_block = device.max_threads_per_block;
        let grid_blocks = (work_items as u64).div_ceil(threads_per_block as u64) as u32;
        LaunchConfig {
            grid_blocks: grid_blocks.max(1),
            threads_per_block,
        }
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> usize {
        self.grid_blocks as usize * self.threads_per_block as usize
    }
}

/// Statistics of one simulated kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Launch configuration used.
    pub config: LaunchConfig,
    /// Threads launched (grid × block).
    pub launched_threads: usize,
    /// Threads that had a pair to filter.
    pub active_threads: usize,
    /// Total modelled device cycles across all threads.
    pub total_cycles: u64,
    /// Modelled kernel execution time in seconds (what CUDA events would measure).
    pub kernel_seconds: f64,
    /// Theoretical occupancy for the launch.
    pub theoretical_occupancy: f64,
    /// Achieved occupancy (theoretical, derated when the grid cannot fill the SMs).
    pub achieved_occupancy: f64,
    /// Average fraction of active lanes per warp.
    pub warp_execution_efficiency: f64,
    /// Fraction of SMs kept busy during the launch.
    pub sm_efficiency: f64,
}

/// Launches a kernel over `pair_cycles`, the modelled device cycles of each
/// filtration in pair order: pair *i* runs on global thread *i*, threads past
/// the last pair are idle, and pairs past the last thread are not launched.
/// Derives timing and utilisation statistics from one sequential pass over the
/// grid.
pub fn launch_kernel(
    device: &DeviceSpec,
    resources: &KernelResources,
    config: LaunchConfig,
    pair_cycles: impl IntoIterator<Item = u64>,
) -> KernelStats {
    let threads_per_block = config.threads_per_block.max(1) as usize;
    let warp_size = device.warp_size.max(1) as usize;

    let mut pairs = pair_cycles.into_iter().fuse();
    let mut total_cycles = 0u64;
    let mut active_threads = 0usize;
    let mut total_warps = 0usize;
    // Summed per block, then block sums in grid order.
    let mut warp_eff_sum = 0.0;
    for _ in 0..config.grid_blocks {
        let mut block_eff_sum = 0.0;
        for warp_start in (0..threads_per_block).step_by(warp_size) {
            let lanes = warp_size.min(threads_per_block - warp_start);
            // Warp execution efficiency (nvprof's definition): lanes of a warp
            // execute in lockstep, so the warp is busy for its slowest lane's
            // cycles; lanes that finish early, or never had a pair, waste issue
            // slots. An active lane counts at least one cycle.
            let mut useful = 0u64;
            let mut warp_time = 0u64;
            for cycles in pairs.by_ref().take(lanes) {
                total_cycles += cycles;
                active_threads += 1;
                useful += cycles.max(1);
                warp_time = warp_time.max(cycles.max(1));
            }
            if warp_time > 0 {
                block_eff_sum += useful as f64 / (warp_size as u64 * warp_time) as f64;
                total_warps += 1;
            }
        }
        warp_eff_sum += block_eff_sum;
    }

    let occupancy: OccupancyResult = theoretical_occupancy(device, resources);

    // Achieved occupancy: the theoretical value derated when there are not enough
    // resident warps to fill every SM (small grids), plus a small scheduling loss.
    let resident_warp_capacity =
        (occupancy.active_warps_per_sm as usize * device.sm_count as usize).max(1);
    let fill = (total_warps as f64 / resident_warp_capacity as f64).min(1.0);
    let achieved_occupancy = occupancy.occupancy * fill * 0.97;

    // SM efficiency: fraction of SMs with at least one block, derated slightly for
    // launch/drain overhead (the paper reports ≥ 95–98%).
    let sm_efficiency =
        ((config.grid_blocks as f64 / device.sm_count as f64).min(1.0) * 0.99).min(0.99);

    let warp_execution_efficiency = if total_warps == 0 {
        0.0
    } else {
        warp_eff_sum / total_warps as f64
    };

    // Timing model: total cycles spread over the CUDA cores at the device clock,
    // derated by how well the achieved occupancy hides latency. At 50% occupancy the
    // GateKeeper kernel sustains roughly 70% of peak issue rate.
    let latency_hiding = 0.4 + 0.6 * achieved_occupancy.min(1.0);
    let effective_ops_per_second = device.peak_ops_per_second() * latency_hiding.max(0.05);
    let kernel_seconds = if total_cycles == 0 {
        0.0
    } else {
        total_cycles as f64 / effective_ops_per_second
    };

    KernelStats {
        config,
        launched_threads: config.total_threads(),
        active_threads,
        total_cycles,
        kernel_seconds,
        theoretical_occupancy: occupancy.occupancy,
        achieved_occupancy,
        warp_execution_efficiency,
        sm_efficiency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceSpec {
        DeviceSpec::gtx_1080_ti()
    }

    fn resources(d: &DeviceSpec) -> KernelResources {
        KernelResources::gatekeeper_gpu(d)
    }

    /// Every thread of `config` gets a pair of `cycles` cycles.
    fn uniform(config: LaunchConfig, cycles: u64) -> impl Iterator<Item = u64> {
        std::iter::repeat_n(cycles, config.total_threads())
    }

    #[test]
    fn launch_config_covers_all_work_items() {
        let d = device();
        let config = LaunchConfig::for_work_items(&d, 100_000);
        assert!(config.total_threads() >= 100_000);
        assert!(config.total_threads() < 100_000 + d.max_threads_per_block as usize);
        assert_eq!(config.threads_per_block, d.max_threads_per_block);
    }

    #[test]
    fn every_thread_runs_exactly_once() {
        // Each thread takes exactly one pair, and pairs past the last thread
        // are never drawn.
        let d = device();
        let config = LaunchConfig {
            grid_blocks: 7,
            threads_per_block: 96,
        };
        let mut drawn = 0usize;
        let stats = launch_kernel(
            &d,
            &resources(&d),
            config,
            std::iter::repeat(1).inspect(|_| drawn += 1),
        );
        assert_eq!(drawn, 7 * 96);
        assert_eq!(stats.launched_threads, 7 * 96);
        assert_eq!(stats.active_threads, 7 * 96);
        assert_eq!(stats.total_cycles, 7 * 96);
    }

    #[test]
    fn global_indices_are_unique_and_dense() {
        // Pair i runs on global thread i: with cycles i + 1, warp k holds the
        // pairs 32k..32k + 32, so its efficiency is (1024k + 528) / (1024k +
        // 1024). Any other assignment of pairs to lanes changes the average.
        let d = device();
        let config = LaunchConfig {
            grid_blocks: 3,
            threads_per_block: 64,
        };
        let stats = launch_kernel(&d, &resources(&d), config, 1..=192);
        assert_eq!(stats.active_threads, 192);
        assert_eq!(stats.total_cycles, 192 * 193 / 2);
        let expected = (0..6)
            .map(|k| (1024.0 * k as f64 + 528.0) / (1024.0 * k as f64 + 1024.0))
            .sum::<f64>()
            / 6.0;
        assert!((stats.warp_execution_efficiency - expected).abs() < 1e-12);
    }

    #[test]
    fn partial_last_warp_and_block_match_hand_computed_statistics() {
        // Three 64-thread blocks (two warps each) over 150 pairs: blocks 0 and
        // 1 are full, block 2's first warp has 22 active lanes and its second
        // warp is idle. Pair 40 (block 0, warp 1) is the one slow lane.
        let d = device();
        let config = LaunchConfig {
            grid_blocks: 3,
            threads_per_block: 64,
        };
        let cycles = (0..150u64).map(|i| match i {
            40 => 200,
            0..128 => 100,
            _ => 50,
        });
        let stats = launch_kernel(&d, &resources(&d), config, cycles);
        assert_eq!(stats.launched_threads, 192);
        assert_eq!(stats.active_threads, 150);
        assert_eq!(stats.total_cycles, 127 * 100 + 200 + 22 * 50);
        // Warps: 1, 3300 / 6400, 1, 1, 1100 / 1600; the idle warp is not counted.
        let warp_sum = (1.0 + 0.515625) + (1.0 + 1.0) + 0.6875;
        assert_eq!(stats.warp_execution_efficiency, warp_sum / 5.0);
        assert_eq!(stats.warp_execution_efficiency, 0.840625);
        // 50% theoretical occupancy is 32 resident warps on each of 28 SMs;
        // five busy warps fill 5 / 896 of them.
        assert_eq!(stats.theoretical_occupancy, 0.5);
        let achieved = 0.5 * (5.0 / 896.0) * 0.97;
        assert_eq!(stats.achieved_occupancy, achieved);
        assert_eq!(stats.sm_efficiency, 3.0 / 28.0 * 0.99);
        let ops_per_second = 3584.0 * 1.582 * 1e9 * (0.4 + 0.6 * achieved);
        assert_eq!(stats.kernel_seconds, 14_000.0 / ops_per_second);
    }

    #[test]
    fn kernel_time_scales_with_work() {
        let d = device();
        let config = LaunchConfig {
            grid_blocks: 64,
            threads_per_block: 1024,
        };
        let light = launch_kernel(&d, &resources(&d), config, uniform(config, 100));
        let heavy = launch_kernel(&d, &resources(&d), config, uniform(config, 1000));
        assert!(heavy.kernel_seconds > light.kernel_seconds * 5.0);
    }

    #[test]
    fn faster_device_finishes_sooner() {
        let pascal = DeviceSpec::gtx_1080_ti();
        let kepler = DeviceSpec::tesla_k20x();
        let config = LaunchConfig {
            grid_blocks: 128,
            threads_per_block: 1024,
        };
        let on_pascal = launch_kernel(
            &pascal,
            &KernelResources::gatekeeper_gpu(&pascal),
            config,
            uniform(config, 500),
        );
        let on_kepler = launch_kernel(
            &kepler,
            &KernelResources::gatekeeper_gpu(&kepler),
            config,
            uniform(config, 500),
        );
        assert!(on_kepler.kernel_seconds > on_pascal.kernel_seconds);
    }

    #[test]
    fn achieved_occupancy_tracks_theoretical_for_large_grids() {
        // §5.4.1: achieved occupancy is within a couple of points of the 50%
        // theoretical value for full launches.
        let d = device();
        let config = LaunchConfig {
            grid_blocks: 256,
            threads_per_block: 1024,
        };
        let stats = launch_kernel(&d, &resources(&d), config, uniform(config, 10));
        assert!((stats.theoretical_occupancy - 0.5).abs() < 1e-9);
        assert!(stats.achieved_occupancy > 0.44 && stats.achieved_occupancy <= 0.5);
    }

    #[test]
    fn small_grids_lower_achieved_occupancy_and_sm_efficiency() {
        let d = device();
        let small_config = LaunchConfig {
            grid_blocks: 2,
            threads_per_block: 1024,
        };
        let large_config = LaunchConfig {
            grid_blocks: 256,
            threads_per_block: 1024,
        };
        let small = launch_kernel(&d, &resources(&d), small_config, uniform(small_config, 10));
        let large = launch_kernel(&d, &resources(&d), large_config, uniform(large_config, 10));
        assert!(small.achieved_occupancy < large.achieved_occupancy);
        assert!(small.sm_efficiency < large.sm_efficiency);
        assert!(large.sm_efficiency > 0.95);
    }

    #[test]
    fn inactive_lanes_reduce_warp_execution_efficiency() {
        let d = device();
        let config = LaunchConfig {
            grid_blocks: 8,
            threads_per_block: 1024,
        };
        // 16 pairs: the first warp runs half its lanes and the other 16 lanes
        // idle; the warps past it have no lane at work and do not count.
        let stats = launch_kernel(&d, &resources(&d), config, std::iter::repeat_n(50, 16));
        assert!((stats.warp_execution_efficiency - 0.5).abs() < 0.01);
        let full = launch_kernel(&d, &resources(&d), config, uniform(config, 50));
        assert!(full.warp_execution_efficiency > 0.99);
    }

    #[test]
    fn zero_work_kernel_takes_no_time() {
        let d = device();
        let config = LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 32,
        };
        let stats = launch_kernel(&d, &resources(&d), config, std::iter::empty());
        assert_eq!(stats.kernel_seconds, 0.0);
        assert_eq!(stats.active_threads, 0);
    }
}
