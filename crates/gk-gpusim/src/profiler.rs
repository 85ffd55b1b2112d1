//! Aggregated kernel profiling, in the style of the `nvprof` reports the paper uses
//! for §5.4 (occupancy, warp execution efficiency, SM efficiency, power).

use crate::device::DeviceSpec;
use crate::executor::KernelStats;
use crate::power::{PowerModel, PowerReport};

/// Aggregates the batched launches of one run into running sums, so its state
/// does not grow with the launch count.
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

    /// Records one kernel launch. `words_per_thread` is the packed-word
    /// footprint of a single filtration (7 for 100 bp, 16 for 250 bp), which
    /// drives the power model.
    pub fn record(&mut self, stats: &KernelStats, words_per_thread: usize) {
        let power = self.power_model.profile(
            stats.achieved_occupancy,
            words_per_thread,
            stats.kernel_seconds.max(0.05),
        );
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
    use crate::executor::{launch_kernel, LaunchConfig};
    use crate::occupancy::KernelResources;

    fn run_one(blocks: u32) -> KernelStats {
        let device = DeviceSpec::gtx_1080_ti();
        let config = LaunchConfig {
            grid_blocks: blocks,
            threads_per_block: 1024,
        };
        launch_kernel(
            &device,
            &KernelResources::gatekeeper_gpu(&device),
            config,
            std::iter::repeat_n(200, config.total_threads()),
        )
    }

    #[test]
    fn recording_accumulates_profiles_and_kernel_time() {
        let device = DeviceSpec::gtx_1080_ti();
        let mut profiler = Profiler::new(device.clone());
        let (first, second) = (run_one(64), run_one(128));
        profiler.record(&first, 7);
        profiler.record(&second, 7);
        assert!(first.kernel_seconds > 0.0);
        assert!(second.kernel_seconds > first.kernel_seconds);
        // The aggregates cover both launches.
        let model = PowerModel::new(device);
        let samples = |stats: &KernelStats| {
            model
                .profile(stats.achieved_occupancy, 7, stats.kernel_seconds.max(0.05))
                .samples
        };
        let power = profiler.aggregate_power().unwrap();
        assert_eq!(power.samples, samples(&first) + samples(&second));
        let occupancy = (first.achieved_occupancy + second.achieved_occupancy) / 2.0;
        assert_eq!(profiler.average_achieved_occupancy(), occupancy);
        assert_eq!(
            profiler.theoretical_occupancy(),
            first.theoretical_occupancy
        );
    }

    #[test]
    fn averages_are_between_zero_and_one() {
        let mut profiler = Profiler::new(DeviceSpec::gtx_1080_ti());
        profiler.record(&run_one(128), 7);
        assert!(profiler.average_achieved_occupancy() > 0.0);
        assert!(profiler.average_achieved_occupancy() <= 1.0);
        assert!(profiler.average_warp_execution_efficiency() <= 1.0);
        assert!(profiler.average_sm_efficiency() <= 1.0);
    }

    #[test]
    fn aggregate_power_spans_recorded_reports() {
        let mut profiler = Profiler::new(DeviceSpec::gtx_1080_ti());
        profiler.record(&run_one(32), 7);
        profiler.record(&run_one(32), 16);
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
}
