//! Power-consumption model, reporting the min / max / average milliwatt figures the
//! paper collects with `nvprof` (Table 6 and Sup. Table S.27).
//!
//! The model is intentionally simple but captures the paper's observations:
//!
//! * idle draw is the device's published idle power (a GTX 1080 Ti idles below
//!   10 W, a Tesla K20X near 30 W — visible as the `min` rows of Table 6/S.27);
//! * dynamic power grows with device utilisation and with the number of packed
//!   words each thread touches, which is why the 250 bp kernels draw more power
//!   than the 100 bp kernels ("The kernel tends to use more power in longer
//!   sequences due to increased memory usage", §5.4.2);
//! * the encoding actor has a negligible effect, because encoding is a tiny
//!   fraction of the per-thread work.

use crate::device::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Power samples collected over one profiled execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerReport {
    /// Minimum sampled power in milliwatts.
    pub min_mw: f64,
    /// Maximum sampled power in milliwatts.
    pub max_mw: f64,
    /// Average sampled power in milliwatts.
    pub average_mw: f64,
    /// Number of samples behind the statistics.
    pub samples: usize,
}

/// Analytic power model for a device.
#[derive(Debug, Clone)]
pub struct PowerModel {
    device: DeviceSpec,
}

impl PowerModel {
    /// Creates a power model for the given device.
    pub fn new(device: DeviceSpec) -> PowerModel {
        PowerModel { device }
    }

    /// Instantaneous power draw (watts) at a given utilisation (0–1) for a kernel
    /// touching `words_per_thread` packed words per thread.
    fn instantaneous_watts(&self, utilization: f64, words_per_thread: usize) -> f64 {
        let utilization = utilization.clamp(0.0, 1.0);
        // Memory-intensity factor: more words per thread → more DRAM traffic. A
        // 100 bp read is 7 words; a 250 bp read is 16.
        let memory_factor = 0.6 + 0.4 * (words_per_thread as f64 / 16.0).min(1.5);
        let dynamic_range = self.device.tdp_watts - self.device.idle_watts;
        self.device.idle_watts + dynamic_range * utilization * memory_factor.min(1.0)
    }

    /// Produces an nvprof-like sampled power report for an execution phase.
    ///
    /// `occupancy` and `words_per_thread` describe the kernel; `duration_seconds`
    /// sets how many 50 ms samples the profiler would have taken; samples ramp up
    /// from idle (before the kernel) to the plateau and back down, reproducing the
    /// wide min–max spread of the paper's tables.
    pub fn profile(
        &self,
        occupancy: f64,
        words_per_thread: usize,
        duration_seconds: f64,
    ) -> PowerReport {
        let sample_period = 0.05;
        let samples = ((duration_seconds / sample_period).ceil() as usize).clamp(8, 10_000);
        let plateau =
            self.instantaneous_watts(0.2 + 0.3 * occupancy.clamp(0.0, 1.0), words_per_thread);
        let idle = self.device.idle_watts;

        let mut min = f64::MAX;
        let mut max = f64::MIN;
        let mut sum = 0.0;
        for i in 0..samples {
            // Piecewise profile: ramp up over the first 20% of samples, plateau with
            // a small deterministic ripple, ramp down over the last 10%.
            let phase = i as f64 / samples as f64;
            let level = if phase < 0.2 {
                idle + (plateau - idle) * (phase / 0.2)
            } else if phase > 0.9 {
                idle + (plateau - idle) * ((1.0 - phase) / 0.1)
            } else {
                // ±5% ripple from boost-clock behaviour, deterministic for
                // reproducibility.
                let ripple = 0.05 * ((i % 7) as f64 / 6.0 - 0.5);
                plateau * (1.0 + ripple)
            };
            min = min.min(level);
            max = max.max(level);
            sum += level;
        }
        PowerReport {
            min_mw: min * 1000.0,
            max_mw: max * 1000.0,
            average_mw: sum / samples as f64 * 1000.0,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pascal_model() -> PowerModel {
        PowerModel::new(DeviceSpec::gtx_1080_ti())
    }

    #[test]
    fn idle_power_matches_device_floor() {
        let model = pascal_model();
        let report = model.profile(0.5, 7, 10.0);
        // Table 6: minimum around 8.6–8.9 W for the GTX 1080 Ti.
        assert!(report.min_mw >= 8_000.0 && report.min_mw <= 12_000.0);
    }

    #[test]
    fn longer_reads_draw_more_power_on_average() {
        // Table 6: 250 bp average (89 W device-encoded) exceeds 100 bp (62 W).
        let model = pascal_model();
        let short = model.profile(0.5, 7, 10.0);
        let long = model.profile(0.5, 16, 10.0);
        assert!(long.average_mw > short.average_mw);
        assert!(long.max_mw > short.max_mw);
    }

    #[test]
    fn power_never_exceeds_tdp() {
        let device = DeviceSpec::gtx_1080_ti();
        let model = PowerModel::new(device.clone());
        for words in [1usize, 7, 16, 32] {
            for util in [0.0, 0.3, 0.7, 1.0] {
                assert!(model.instantaneous_watts(util, words) <= device.tdp_watts + 1e-9);
                assert!(model.instantaneous_watts(util, words) >= device.idle_watts - 1e-9);
            }
        }
    }

    #[test]
    fn kepler_idles_higher_than_pascal() {
        // Sup. Table S.27: K20X minimum ≈ 30 W vs ≈ 9 W for the 1080 Ti.
        let pascal = pascal_model().profile(0.5, 7, 5.0);
        let kepler = PowerModel::new(DeviceSpec::tesla_k20x()).profile(0.5, 7, 5.0);
        assert!(kepler.min_mw > pascal.min_mw * 2.0);
    }

    #[test]
    fn report_is_internally_consistent() {
        let report = pascal_model().profile(0.6, 10, 3.0);
        assert!(report.min_mw <= report.average_mw);
        assert!(report.average_mw <= report.max_mw);
        assert!(report.samples >= 8);
    }

    #[test]
    fn higher_occupancy_means_more_power() {
        let model = pascal_model();
        let low = model.profile(0.1, 7, 5.0);
        let high = model.profile(0.9, 7, 5.0);
        assert!(high.average_mw > low.average_mw);
    }

    #[test]
    fn short_durations_still_produce_samples() {
        let report = pascal_model().profile(0.5, 7, 0.001);
        assert!(report.samples >= 8);
    }
}
