//! Aggregated kernel profiling, in the style of the `nvprof` reports the paper uses
//! for §5.4 (occupancy, warp execution efficiency, SM efficiency, power, cache
//! behaviour).

use crate::device::DeviceSpec;
use crate::executor::KernelStats;
use crate::power::{PowerModel, PowerReport};
use serde::{Deserialize, Serialize};

/// Profile of a single kernel launch (plus the modelled cache behaviour).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Name of the kernel (e.g. `"gatekeeper_filter"`).
    pub kernel: String,
    /// Execution statistics from the launcher.
    pub stats: KernelStats,
    /// Power samples for the launch.
    pub power: PowerReport,
    /// Modelled L2 hit rate. The paper reports GateKeeper-GPU "mainly utilizes L2
    /// cache with an average hit rate of 86.2%".
    pub l2_hit_rate: f64,
    /// Modelled unified/texture L1 hit rate (31.2% on average in the paper — low,
    /// called out as future work).
    pub l1_hit_rate: f64,
}

/// Collects kernel profiles across the batched launches of one run.
#[derive(Debug, Clone)]
pub struct Profiler {
    device: DeviceSpec,
    power_model: PowerModel,
    profiles: Vec<KernelProfile>,
}

impl Profiler {
    /// Creates a profiler for a device.
    pub fn new(device: DeviceSpec) -> Profiler {
        Profiler {
            power_model: PowerModel::new(device.clone()),
            device,
            profiles: Vec::new(),
        }
    }

    /// The device being profiled.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Records one kernel launch. `words_per_thread` is the packed-word footprint of
    /// a single filtration (7 for 100 bp, 16 for 250 bp), which drives the power and
    /// cache models.
    pub fn record(
        &mut self,
        kernel: impl Into<String>,
        stats: KernelStats,
        words_per_thread: usize,
    ) -> &KernelProfile {
        let power = self.power_model.profile(
            stats.achieved_occupancy,
            words_per_thread,
            stats.kernel_seconds.max(0.05),
        );
        // Cache model: each thread streams its own read/reference words, so reuse in
        // L1 is poor (every access is first-touch per thread) while the shared
        // reference segments give L2 healthy reuse. Longer reads stream more data
        // and push both hit rates down slightly.
        let length_penalty = (words_per_thread as f64 / 16.0).min(1.0) * 0.06;
        let l2_hit_rate = (0.88 - length_penalty).clamp(0.0, 1.0);
        let l1_hit_rate = (0.34 - length_penalty).clamp(0.0, 1.0);
        let newest = self.profiles.len();
        self.profiles.push(KernelProfile {
            kernel: kernel.into(),
            stats,
            power,
            l2_hit_rate,
            l1_hit_rate,
        });
        &self.profiles[newest]
    }

    /// All recorded profiles.
    pub fn profiles(&self) -> &[KernelProfile] {
        &self.profiles
    }

    /// Average achieved occupancy across recorded launches.
    pub fn average_achieved_occupancy(&self) -> f64 {
        average(self.profiles.iter().map(|p| p.stats.achieved_occupancy))
    }

    /// Average warp execution efficiency across recorded launches.
    pub fn average_warp_execution_efficiency(&self) -> f64 {
        average(
            self.profiles
                .iter()
                .map(|p| p.stats.warp_execution_efficiency),
        )
    }

    /// Average SM efficiency across recorded launches.
    pub fn average_sm_efficiency(&self) -> f64 {
        average(self.profiles.iter().map(|p| p.stats.sm_efficiency))
    }

    /// Aggregate power report across every recorded launch.
    pub fn aggregate_power(&self) -> Option<PowerReport> {
        if self.profiles.is_empty() {
            return None;
        }
        let min_mw = self
            .profiles
            .iter()
            .map(|p| p.power.min_mw)
            .fold(f64::MAX, f64::min);
        let max_mw = self
            .profiles
            .iter()
            .map(|p| p.power.max_mw)
            .fold(f64::MIN, f64::max);
        let total_samples: usize = self.profiles.iter().map(|p| p.power.samples).sum();
        let weighted_sum: f64 = self
            .profiles
            .iter()
            .map(|p| p.power.average_mw * p.power.samples as f64)
            .sum();
        Some(PowerReport {
            min_mw,
            max_mw,
            average_mw: weighted_sum / total_samples.max(1) as f64,
            samples: total_samples,
        })
    }
}

fn average(values: impl Iterator<Item = f64>) -> f64 {
    let collected: Vec<f64> = values.collect();
    if collected.is_empty() {
        0.0
    } else {
        collected.iter().sum::<f64>() / collected.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{launch_kernel, LaunchConfig, ThreadReport};
    use crate::occupancy::KernelResources;

    fn run_one(blocks: u32) -> KernelStats {
        let device = DeviceSpec::gtx_1080_ti();
        launch_kernel(
            &device,
            &KernelResources::gatekeeper_gpu(&device),
            LaunchConfig {
                grid_blocks: blocks,
                threads_per_block: 1024,
            },
            |_ctx| ThreadReport {
                cycles: 200,
                active: true,
            },
        )
    }

    #[test]
    fn recording_accumulates_profiles_and_kernel_time() {
        let mut profiler = Profiler::new(DeviceSpec::gtx_1080_ti());
        profiler.record("gatekeeper", run_one(64), 7);
        profiler.record("gatekeeper", run_one(64), 7);
        assert_eq!(profiler.profiles().len(), 2);
        assert!(profiler
            .profiles()
            .iter()
            .all(|p| p.stats.kernel_seconds > 0.0));
    }

    #[test]
    fn averages_are_between_zero_and_one() {
        let mut profiler = Profiler::new(DeviceSpec::gtx_1080_ti());
        profiler.record("gatekeeper", run_one(128), 7);
        assert!(profiler.average_achieved_occupancy() > 0.0);
        assert!(profiler.average_achieved_occupancy() <= 1.0);
        assert!(profiler.average_warp_execution_efficiency() <= 1.0);
        assert!(profiler.average_sm_efficiency() <= 1.0);
    }

    #[test]
    fn l2_hit_rate_exceeds_l1_hit_rate() {
        // §6: "GateKeeper-GPU mainly utilizes L2 cache … The hit rate of
        // unified/texture L1 cache is 31.2% on average, which is low."
        let mut profiler = Profiler::new(DeviceSpec::gtx_1080_ti());
        let profile = profiler.record("gatekeeper", run_one(64), 7).clone();
        assert!(profile.l2_hit_rate > 0.8);
        assert!(profile.l1_hit_rate < 0.4);
        assert!(profile.l2_hit_rate > profile.l1_hit_rate);
    }

    #[test]
    fn aggregate_power_spans_recorded_reports() {
        let mut profiler = Profiler::new(DeviceSpec::gtx_1080_ti());
        profiler.record("a", run_one(32), 7);
        profiler.record("b", run_one(32), 16);
        let aggregate = profiler.aggregate_power().unwrap();
        assert!(aggregate.min_mw <= aggregate.average_mw);
        assert!(aggregate.average_mw <= aggregate.max_mw);
    }

    #[test]
    fn empty_profiler_has_no_aggregate_power() {
        let profiler = Profiler::new(DeviceSpec::gtx_1080_ti());
        assert!(profiler.aggregate_power().is_none());
        assert_eq!(profiler.average_achieved_occupancy(), 0.0);
    }

    #[test]
    fn longer_reads_lower_cache_hit_rates() {
        let mut profiler = Profiler::new(DeviceSpec::gtx_1080_ti());
        let short = profiler.record("short", run_one(64), 7).clone();
        let long = profiler.record("long", run_one(64), 16).clone();
        assert!(long.l2_hit_rate < short.l2_hit_rate);
    }
}
