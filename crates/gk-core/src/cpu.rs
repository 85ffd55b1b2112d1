//! GateKeeper-CPU: the multicore CPU baseline of the throughput comparison.
//!
//! The paper implements GateKeeper-CPU "in a multicore fashion" and reports 1-core
//! and 12-core numbers (§4.3). This implementation runs the identical improved
//! GateKeeper algorithm on a Rayon thread pool with a configurable number of
//! threads, and measures *real* wall-clock time — unlike the GPU path, whose timing
//! comes from the device model — so the growth trends the paper highlights (filter
//! time almost linear in the error threshold on the CPU, §5.2) are directly
//! observable.

use crate::timing::TimingBreakdown;
use gk_filters::gatekeeper::{gatekeeper_kernel_reference, GateKeeperConfig};
use gk_filters::simd::{filter_blocks, gatekeeper_filter_block, SimdMode};
use gk_filters::traits::FilterDecision;
use gk_seq::pairs::{encode_pair_batch, PairSet};
use gk_seq::PackedSeq;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Result of a CPU filtering run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuFilterRun {
    /// Per-pair decisions, in input order.
    pub decisions: Vec<FilterDecision>,
    /// Time spent inside the filtering function only (the paper's CPU "kernel
    /// time": "the time exclusively spent by the function that contains the
    /// GateKeeper algorithm").
    pub kernel_seconds: f64,
    /// Total time including encoding (the CPU "filter time").
    pub filter_seconds: f64,
    /// Number of worker threads used.
    pub threads: usize,
}

impl CpuFilterRun {
    /// Number of accepted pairs.
    pub fn accepted(&self) -> usize {
        self.decisions.iter().filter(|d| d.accepted).count()
    }

    /// Timing breakdown in the common format.
    pub fn timing(&self) -> TimingBreakdown {
        TimingBreakdown {
            encode_seconds: (self.filter_seconds - self.kernel_seconds).max(0.0),
            kernel_seconds: self.kernel_seconds,
            ..Default::default()
        }
    }
}

/// The multicore CPU implementation of the improved GateKeeper filter.
///
/// The worker pool is built once at construction and shared by every
/// `filter_set` call (and by clones), so repeated batches pay no thread-spawn
/// cost; with `threads == 1` the pool is the sequential fallback and the run
/// doubles as the determinism reference for the parallel paths.
#[derive(Debug, Clone)]
pub struct GateKeeperCpu {
    threshold: u32,
    threads: usize,
    kernel_config: GateKeeperConfig,
    simd: SimdMode,
    pool: Arc<rayon::ThreadPool>,
}

impl GateKeeperCpu {
    /// Creates a CPU filter with the given error threshold and worker-thread count
    /// (the paper reports 1 and 12 cores).
    pub fn new(threshold: u32, threads: usize) -> GateKeeperCpu {
        let threads = threads.max(1);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build CPU filtering thread pool");
        GateKeeperCpu::with_pool(threshold, threads, Arc::new(pool))
    }

    /// Creates a CPU filter on an existing worker pool. Harness binaries that
    /// sweep thresholds or datasets share one pool per thread count this way
    /// instead of re-spawning workers for every measurement; `threads` must
    /// describe the pool's worker count (it is what gets reported).
    pub fn with_pool(
        threshold: u32,
        threads: usize,
        pool: Arc<rayon::ThreadPool>,
    ) -> GateKeeperCpu {
        GateKeeperCpu {
            threshold,
            threads: threads.max(1),
            kernel_config: GateKeeperConfig::gpu(threshold),
            simd: SimdMode::Auto.resolve(),
            pool,
        }
    }

    /// Selects the SIMD mode (lane-parallel blocks or per-bit scalar
    /// reference; `Auto` consults `GK_SIMD` here, at construction — never on
    /// the per-block hot path). Decisions are byte-identical across modes;
    /// only throughput changes.
    pub fn with_simd_mode(mut self, simd: SimdMode) -> GateKeeperCpu {
        self.simd = simd.resolve();
        self
    }

    /// Error threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The resolved SIMD mode this instance filters with.
    pub fn simd_mode(&self) -> SimdMode {
        self.simd
    }

    /// Filters a whole pair set.
    ///
    /// In lane mode (the default via `Auto`), blocks of pairs are transposed
    /// straight from ASCII into the struct-of-arrays layout inside the kernel
    /// phase — encoding is fused into filtering, so `kernel_seconds` equals
    /// `filter_seconds`. In scalar mode the run keeps the historical two-phase
    /// shape (host encode, then the per-bit reference kernel), which is the
    /// measured baseline the SIMD speedup is reported against. Decisions are
    /// byte-identical across modes and thread counts.
    pub fn filter_set(&self, pairs: &PairSet) -> CpuFilterRun {
        if self.simd == SimdMode::Lanes {
            self.filter_set_lanes(pairs)
        } else {
            self.filter_set_scalar(pairs)
        }
    }

    fn filter_set_lanes(&self, pairs: &PairSet) -> CpuFilterRun {
        let start = Instant::now();
        let config = self.kernel_config;
        let decisions: Vec<FilterDecision> = self.pool.install(|| {
            filter_blocks(&pairs.pairs, |block| {
                gatekeeper_filter_block(block, &config, SimdMode::Lanes)
            })
        });
        let end = Instant::now();
        let elapsed = (end - start).as_secs_f64();

        CpuFilterRun {
            decisions,
            kernel_seconds: elapsed,
            filter_seconds: elapsed,
            threads: self.threads,
        }
    }

    fn filter_set_scalar(&self, pairs: &PairSet) -> CpuFilterRun {
        let start = Instant::now();
        // Encoding phase (the CPU always encodes on the host).
        let encoded: Vec<(PackedSeq, PackedSeq)> =
            self.pool.install(|| encode_pair_batch(&pairs.pairs));
        let encode_done = Instant::now();

        // Filtering phase: the GateKeeper algorithm proper, per-bit reference.
        let config = self.kernel_config;
        let decisions: Vec<FilterDecision> = self.pool.install(|| {
            use rayon::prelude::*;
            encoded
                .par_iter()
                .map(|(read, reference)| {
                    if read.is_undefined() || reference.is_undefined() {
                        FilterDecision::undefined_pass()
                    } else {
                        gatekeeper_kernel_reference(read, reference, &config)
                    }
                })
                .collect()
        });
        let end = Instant::now();

        CpuFilterRun {
            decisions,
            kernel_seconds: (end - encode_done).as_secs_f64(),
            filter_seconds: (end - start).as_secs_f64(),
            threads: self.threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_seq::datasets::DatasetProfile;

    fn small_set() -> PairSet {
        DatasetProfile::set3().generate(2_000, 11)
    }

    #[test]
    fn decisions_cover_every_pair_in_order() {
        let pairs = small_set();
        let run = GateKeeperCpu::new(5, 2).filter_set(&pairs);
        assert_eq!(run.decisions.len(), pairs.len());
        assert!(run.kernel_seconds >= 0.0);
        assert!(run.filter_seconds >= run.kernel_seconds);
    }

    #[test]
    fn undefined_pairs_pass_through() {
        let mut profile = DatasetProfile::set3();
        profile.undefined_fraction = 0.2;
        let pairs = profile.generate(500, 3);
        let run = GateKeeperCpu::new(5, 2).filter_set(&pairs);
        let undefined_decisions = run.decisions.iter().filter(|d| d.undefined).count();
        assert_eq!(undefined_decisions, pairs.undefined_count());
        assert!(run
            .decisions
            .iter()
            .filter(|d| d.undefined)
            .all(|d| d.accepted));
    }

    #[test]
    fn thread_count_does_not_change_decisions() {
        let pairs = small_set();
        let single = GateKeeperCpu::new(5, 1).filter_set(&pairs);
        let multi = GateKeeperCpu::new(5, 4).filter_set(&pairs);
        assert_eq!(single.decisions, multi.decisions);
    }

    #[test]
    fn simd_mode_does_not_change_decisions() {
        let mut profile = DatasetProfile::set3();
        profile.undefined_fraction = 0.1;
        let pairs = profile.generate(1_500, 17);
        for threshold in [0u32, 2, 5] {
            let lanes = GateKeeperCpu::new(threshold, 2)
                .with_simd_mode(SimdMode::Lanes)
                .filter_set(&pairs);
            let scalar = GateKeeperCpu::new(threshold, 2)
                .with_simd_mode(SimdMode::Scalar)
                .filter_set(&pairs);
            assert_eq!(lanes.decisions, scalar.decisions, "e = {threshold}");
            // Lane mode fuses encoding into the kernel phase.
            assert_eq!(lanes.kernel_seconds, lanes.filter_seconds);
        }
    }

    #[test]
    fn accepted_count_matches_decisions() {
        let pairs = small_set();
        let run = GateKeeperCpu::new(5, 2).filter_set(&pairs);
        assert_eq!(
            run.accepted(),
            run.decisions.iter().filter(|d| d.accepted).count()
        );
        assert!(run.accepted() > 0);
        assert!(run.accepted() < pairs.len());
    }

    #[test]
    fn timing_breakdown_matches_measured_times() {
        let pairs = small_set();
        let run = GateKeeperCpu::new(3, 2).filter_set(&pairs);
        let timing = run.timing();
        assert!((timing.filter_seconds() - run.filter_seconds).abs() < 1e-9);
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        assert_eq!(GateKeeperCpu::new(2, 0).threads(), 1);
    }
}
