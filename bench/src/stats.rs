//! Order statistics, the regression-bound rule, and the calibration clock
//! that rescales wall-clock time to a reference core speed.

use crate::spec::Better;
use std::time::Instant;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)` (which extrapolates past the ends of
/// very small samples), so the spreads printed here match the ones computed
/// from the same numbers in Python. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The `q`-quantile (0..=1) by linear interpolation between closest ranks.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it (a p99 needs at least 1000 samples).
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let beyond = values.len() - (q * values.len() as f64).ceil() as usize;
    (beyond >= MIN_BEYOND).then(|| percentile(values, q))
}

/// Median and quartiles of one metric's per-pass samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, q3) = quartiles(samples);
        Summary {
            median: median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// True when `new` is worse than `base` by more than `bound` (a share of
/// `base`) in the metric's direction.
pub fn regressed(base: f64, new: f64, better: Better, bound: f64) -> bool {
    match better {
        Better::Lower => new > base * (1.0 + bound),
        Better::Higher => new < base * (1.0 - bound),
    }
}

/// Iterations of the calibration loop: about 30 ms on an uncontended core
/// of the reference host (Intel Xeon vCPU at 2.0 GHz).
const CALIBRATION_ITERS: u64 = 10_000_000;

/// Seconds [`calibration_seconds`] takes on an uncontended reference core.
pub const REFERENCE_CALIBRATION_S: f64 = 0.0302;

/// Times a fixed integer loop that touches no memory. On a shared host
/// its duration tracks how much CPU the process is actually getting.
pub fn calibration_seconds() -> f64 {
    let start = Instant::now();
    let mut x: u64 = std::hint::black_box(0x9E37_79B9_7F4A_7C15);
    for _ in 0..CALIBRATION_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

/// One timed region: its wall-clock seconds and the speed factor that
/// rescales them to the reference core (`< 1` when the host was contended).
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub raw_s: f64,
    pub factor: f64,
}

impl Timed {
    /// Seconds the region would have taken on an uncontended reference core.
    pub fn seconds(&self) -> f64 {
        self.raw_s * self.factor
    }
}

/// The reference time over the mean of the calibrations that bracket a
/// region.
pub fn speed_factor(before: f64, after: f64) -> f64 {
    REFERENCE_CALIBRATION_S / ((before + after) / 2.0)
}

/// Runs `f` between two calibration loops.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timed) {
    let before = calibration_seconds();
    let start = Instant::now();
    let value = f();
    let raw_s = start.elapsed().as_secs_f64();
    let factor = speed_factor(before, calibration_seconds());
    (value, Timed { raw_s, factor })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        // statistics.quantiles([5, 1, 4, 2, 3, 9, 7], n=4) == [2.0, 4.0, 7.0]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]), (2.0, 7.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn summary_spread_is_relative_to_the_median() {
        let s = Summary::of(&[90.0, 95.0, 100.0, 105.0, 110.0]);
        assert_eq!(s.median, 100.0);
        assert_eq!(s.n, 5);
        assert!((s.spread() - 0.15).abs() < 1e-12, "{}", s.spread());
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(tail_percentile(&v, 0.99).is_some());
        assert!(tail_percentile(&v[..999], 0.99).is_none());
        assert!(tail_percentile(&v[..100], 0.9).is_some());
        assert!(tail_percentile(&v[..99], 0.9).is_none());
        assert!(tail_percentile(&v[..20], 0.5).is_some());
        assert!(tail_percentile(&v[..19], 0.5).is_none());
    }

    #[test]
    fn bounds_apply_in_the_metric_direction() {
        // Higher is better: a drop beyond the bound regresses, a rise never.
        assert!(regressed(100.0, 89.0, Better::Higher, 0.1));
        assert!(!regressed(100.0, 91.0, Better::Higher, 0.1));
        assert!(!regressed(100.0, 150.0, Better::Higher, 0.1));
        // Lower is better: a rise beyond the bound regresses, a drop never.
        assert!(regressed(1.0, 1.11, Better::Lower, 0.1));
        assert!(!regressed(1.0, 1.09, Better::Lower, 0.1));
        assert!(!regressed(1.0, 0.5, Better::Lower, 0.1));
    }

    #[test]
    fn timed_regions_report_a_positive_factor() {
        let (value, t) = timed(|| 6 * 7);
        assert_eq!(value, 42);
        assert!(t.raw_s >= 0.0);
        assert!(t.factor > 0.0 && t.factor.is_finite());
    }
}
