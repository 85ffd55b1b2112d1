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

/// Aggregates kernel profiles across the batched launches of one run. It keeps
/// running sums, not the profiles, so its state does not grow with the launch
/// count.
#[derive(Debug, Clone)]
pub struct Profiler {
    power_model: PowerModel,
    launches: usize,
    /// Theoretical occupancy of the first launch.
    theoretical_occupancy: f64,
    achieved_occupancy_sum: f64,
    warp_execution_efficiency_sum: f64,
    sm_efficiency_sum: f64,
    power_min_mw: f64,
    power_max_mw: f64,
    power_samples: usize,
    /// Sum of each launch's average power weighted by its sample count.
    power_weighted_mw: f64,
}

impl Profiler {
    /// Creates a profiler for a device.
    pub fn new(device: DeviceSpec) -> Profiler {
        Profiler {
            power_model: PowerModel::new(device),
            launches: 0,
            theoretical_occupancy: 0.0,
            achieved_occupancy_sum: 0.0,
            warp_execution_efficiency_sum: 0.0,
            sm_efficiency_sum: 0.0,
            power_min_mw: f64::MAX,
            power_max_mw: f64::MIN,
            power_samples: 0,
            power_weighted_mw: 0.0,
        }
    }

    /// Records one kernel launch and returns its profile. `words_per_thread`
    /// is the packed-word footprint of a single filtration (7 for 100 bp, 16
    /// for 250 bp), which drives the power and cache models.
    pub fn record(
        &mut self,
        kernel: impl Into<String>,
        stats: KernelStats,
        words_per_thread: usize,
    ) -> KernelProfile {
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
        if self.launches == 0 {
            self.theoretical_occupancy = stats.theoretical_occupancy;
        }
        self.launches += 1;
        self.achieved_occupancy_sum += stats.achieved_occupancy;
        self.warp_execution_efficiency_sum += stats.warp_execution_efficiency;
        self.sm_efficiency_sum += stats.sm_efficiency;
        self.power_min_mw = self.power_min_mw.min(power.min_mw);
        self.power_max_mw = self.power_max_mw.max(power.max_mw);
        self.power_samples += power.samples;
        self.power_weighted_mw += power.average_mw * power.samples as f64;
        KernelProfile {
            kernel: kernel.into(),
            stats,
            power,
            l2_hit_rate,
            l1_hit_rate,
        }
    }

    /// Theoretical occupancy of the first recorded launch (0 before any).
    pub fn theoretical_occupancy(&self) -> f64 {
        self.theoretical_occupancy
    }

    /// Average achieved occupancy across recorded launches.
    pub fn average_achieved_occupancy(&self) -> f64 {
        self.average(self.achieved_occupancy_sum)
    }

    /// Average warp execution efficiency across recorded launches.
    pub fn average_warp_execution_efficiency(&self) -> f64 {
        self.average(self.warp_execution_efficiency_sum)
    }

    /// Average SM efficiency across recorded launches.
    pub fn average_sm_efficiency(&self) -> f64 {
        self.average(self.sm_efficiency_sum)
    }

    /// Aggregate power report across every recorded launch.
    pub fn aggregate_power(&self) -> Option<PowerReport> {
        (self.launches > 0).then(|| PowerReport {
            min_mw: self.power_min_mw,
            max_mw: self.power_max_mw,
            average_mw: self.power_weighted_mw / self.power_samples.max(1) as f64,
            samples: self.power_samples,
        })
    }

    fn average(&self, sum: f64) -> f64 {
        if self.launches == 0 {
            0.0
        } else {
            sum / self.launches as f64
        }
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
        let first = profiler.record("gatekeeper", run_one(64), 7);
        let second = profiler.record("gatekeeper", run_one(128), 7);
        assert!(first.stats.kernel_seconds > 0.0);
        assert!(second.stats.kernel_seconds > first.stats.kernel_seconds);
        // The aggregates cover both launches.
        let power = profiler.aggregate_power().unwrap();
        assert_eq!(power.samples, first.power.samples + second.power.samples);
        let occupancy = (first.stats.achieved_occupancy + second.stats.achieved_occupancy) / 2.0;
        assert_eq!(profiler.average_achieved_occupancy(), occupancy);
        assert_eq!(
            profiler.theoretical_occupancy(),
            first.stats.theoretical_occupancy
        );
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
        let profile = profiler.record("gatekeeper", run_one(64), 7);
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
        assert_eq!(profiler.theoretical_occupancy(), 0.0);
    }

    #[test]
    fn longer_reads_lower_cache_hit_rates() {
        let mut profiler = Profiler::new(DeviceSpec::gtx_1080_ti());
        let short = profiler.record("short", run_one(64), 7);
        let long = profiler.record("long", run_one(64), 16);
        assert!(long.l2_hit_rate < short.l2_hit_rate);
    }
}
