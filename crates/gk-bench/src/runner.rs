//! Shared experiment runners used by several harness binaries.

use crate::setups::Setup;
use gk_core::config::{EncodingActor, FilterConfig};
use gk_core::cpu::GateKeeperCpu;
use gk_core::gpu::{FilterRun, GateKeeperGpu};
use gk_core::pipeline::StreamFilterRun;
use gk_core::timing::billions_in_40_minutes;
use gk_filters::SimdMode;
use gk_gpusim::topology::TopologyKind;
use gk_seq::pairs::PairSet;
use gk_seq::stream::PairBatches;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Shared worker pools, one per thread count, built lazily and reused for the
/// lifetime of the harness process. Every binary that sweeps thresholds,
/// datasets or setups used to rebuild a `GateKeeperCpu` — and with it a fresh
/// thread pool — per measurement; routing through this cache means the workers
/// are spawned once per thread count and every iteration reuses them.
fn pool_cache() -> &'static Mutex<HashMap<usize, Arc<rayon::ThreadPool>>> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<rayon::ThreadPool>>>> = OnceLock::new();
    POOLS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the process-wide shared pool for `threads` workers, building it on
/// first use.
pub fn shared_pool(threads: usize) -> Arc<rayon::ThreadPool> {
    let threads = threads.max(1);
    let mut pools = pool_cache().lock().expect("pool cache poisoned");
    Arc::clone(pools.entry(threads).or_insert_with(|| {
        Arc::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("failed to build shared harness thread pool"),
        )
    }))
}

/// One throughput measurement (a cell family of Table 2 / S.13–S.15).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputPoint {
    /// Kernel time in seconds for the whole set.
    pub kernel_seconds: f64,
    /// Filter time in seconds for the whole set.
    pub filter_seconds: f64,
    /// Kernel-time throughput in billions of filtrations per 40 minutes.
    pub kernel_b40: f64,
    /// Filter-time throughput in billions of filtrations per 40 minutes.
    pub filter_b40: f64,
    /// Kernel-time throughput in millions of filtrations per second.
    pub kernel_mps: f64,
    /// Filter-time throughput in millions of filtrations per second.
    pub filter_mps: f64,
}

impl ThroughputPoint {
    /// Builds a point from measured times over `pairs` filtrations.
    pub fn new(pairs: usize, kernel_seconds: f64, filter_seconds: f64) -> ThroughputPoint {
        ThroughputPoint {
            kernel_seconds,
            filter_seconds,
            kernel_b40: billions_in_40_minutes(pairs, kernel_seconds),
            filter_b40: billions_in_40_minutes(pairs, filter_seconds),
            kernel_mps: if kernel_seconds > 0.0 {
                pairs as f64 / kernel_seconds / 1e6
            } else {
                0.0
            },
            filter_mps: if filter_seconds > 0.0 {
                pairs as f64 / filter_seconds / 1e6
            } else {
                0.0
            },
        }
    }
}

/// Runs GateKeeper-GPU over a set on `devices` GPUs of a setup.
pub fn gpu_throughput(
    setup: &Setup,
    devices: usize,
    set: &PairSet,
    threshold: u32,
    encoding: EncodingActor,
) -> ThroughputPoint {
    let config = FilterConfig::new(set.read_len, threshold).with_encoding(encoding);
    let run = GateKeeperGpu::with_devices(vec![setup.device(); devices], config).filter_set(set);
    ThroughputPoint::new(set.len(), run.kernel_seconds(), run.filter_seconds())
}

/// Hard gate on the simulated timeline: a clamped duration means the stream
/// model produced an impossible interval and silently reported a lower bound.
/// Release smokes must fail loudly on that instead of printing a number that
/// looks like a result, so every harness entry point routes through this.
pub fn assert_no_timing_anomalies(context: &str, report: &gk_core::pipeline::PipelineReport) {
    assert_eq!(
        report.timing_anomalies, 0,
        "{context}: simulated timeline clamped {} duration(s) — the pipeline \
         model is unsound for this run",
        report.timing_anomalies,
    );
}

/// Runs GateKeeper-GPU over a set on `devices` GPUs of a setup under an
/// explicit interconnect topology and scheduler, returning the full run —
/// decisions, per-device pipelines, and the contended-vs-private replay in
/// [`FilterRun::interconnect`]. Hard-asserts an anomaly-free timeline on
/// every device.
pub fn multi_gpu_run(
    setup: &Setup,
    devices: usize,
    set: &PairSet,
    threshold: u32,
    encoding: EncodingActor,
    topology: TopologyKind,
    aware: bool,
) -> FilterRun {
    let config = FilterConfig::new(set.read_len, threshold)
        .with_encoding(encoding)
        .with_topology(topology)
        .with_topology_aware(aware);
    let run = GateKeeperGpu::with_devices(vec![setup.device(); devices], config).filter_set(set);
    for (device, device_run) in run.per_device.iter().enumerate() {
        let context = format!("{} x{devices} device {device}", setup.name);
        assert_no_timing_anomalies(&context, &device_run.pipeline);
    }
    run
}

/// Runs the multicore GateKeeper-CPU baseline over a set, on the shared pool
/// for `cores` (no per-call thread spawning), in SIMD mode `mode`: `Lanes` for
/// the lane-parallel kernels, `Scalar` for the per-bit reference baseline the
/// speedup is reported against, `Auto` to follow `GK_SIMD`.
pub fn cpu_throughput_with_mode(
    set: &PairSet,
    threshold: u32,
    cores: usize,
    mode: SimdMode,
) -> ThroughputPoint {
    let run = GateKeeperCpu::with_pool(threshold, cores, shared_pool(cores))
        .with_simd_mode(mode)
        .filter_set(set);
    ThroughputPoint::new(set.len(), run.kernel_seconds, run.filter_seconds)
}

/// Drives a streaming pair source through GateKeeper-GPU on one device of a
/// setup without materializing the pair set; the source's read length sizes
/// the filter configuration. `encoding` selects the execution path:
/// [`EncodingActor::Device`] uploads raw reads and packs inside the fused
/// encode+filter kernel (no host `encode_pair_batch` at all),
/// [`EncodingActor::Host`] encodes on the pool before the transfer. Every
/// chunk's pairs and decisions go to `sink` in input order (for callers that
/// checksum or persist decisions without materializing them).
pub fn streaming_gpu_throughput_with<F>(
    setup: &Setup,
    source: PairBatches,
    threshold: u32,
    encoding: EncodingActor,
    overlap: bool,
    chunk_pairs: usize,
    sink: F,
) -> StreamFilterRun
where
    F: FnMut(&[gk_seq::pairs::SequencePair], &[gk_filters::FilterDecision]),
{
    let config = FilterConfig::new(source.read_len(), threshold)
        .with_encoding(encoding)
        .with_overlap(overlap)
        .with_chunk_pairs(chunk_pairs);
    GateKeeperGpu::new(setup.device(), config).filter_stream_with(source, sink)
}

/// Speedup of `baseline_seconds` over `improved_seconds` (≥ 1 means faster).
pub fn speedup(baseline_seconds: f64, improved_seconds: f64) -> f64 {
    if improved_seconds <= 0.0 {
        0.0
    } else {
        baseline_seconds / improved_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::throughput_set;
    use crate::setups::SETUP1;

    #[test]
    fn throughput_point_units_are_consistent() {
        let point = ThroughputPoint::new(1_000_000, 2.0, 10.0);
        assert!((point.kernel_mps - 0.5).abs() < 1e-9);
        assert!(point.kernel_b40 > point.filter_b40);
    }

    #[test]
    fn gpu_beats_cpu_on_kernel_time() {
        let set = throughput_set(100, 3_000);
        let gpu = gpu_throughput(&SETUP1, 1, &set, 2, EncodingActor::Host);
        let cpu = cpu_throughput_with_mode(&set, 2, 2, SimdMode::Auto);
        assert!(gpu.kernel_seconds < cpu.kernel_seconds);
    }

    #[test]
    fn multi_gpu_raises_kernel_throughput() {
        let set = throughput_set(100, 3_000);
        let one = gpu_throughput(&SETUP1, 1, &set, 2, EncodingActor::Host);
        let eight = gpu_throughput(&SETUP1, 8, &set, 2, EncodingActor::Host);
        assert!(eight.kernel_b40 > one.kernel_b40);
    }

    #[test]
    fn multi_gpu_run_reports_contention_on_a_shared_root() {
        let set = throughput_set(100, 2_000);
        let naive = multi_gpu_run(
            &SETUP1,
            4,
            &set,
            2,
            EncodingActor::Device,
            TopologyKind::SharedRoot,
            false,
        );
        let aware = multi_gpu_run(
            &SETUP1,
            4,
            &set,
            2,
            EncodingActor::Device,
            TopologyKind::SharedRoot,
            true,
        );
        assert_eq!(naive.decisions, aware.decisions);
        assert!(naive.interconnect.contention_penalty_seconds() > 0.0);
        assert!(!naive.interconnect.aware);
        assert!(aware.interconnect.aware);
    }

    #[test]
    fn shared_pools_are_reused_per_thread_count() {
        let a = shared_pool(3);
        let b = shared_pool(3);
        let other = shared_pool(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &other));
        assert_eq!(a.current_num_threads(), 3);
    }

    #[test]
    fn streaming_throughput_reports_the_overlap_win() {
        use gk_seq::datasets::DatasetProfile;
        let profile = DatasetProfile::set3();
        let stream = || profile.stream_batches(5_000, 4_242, 1_000);
        let run = |overlap| {
            streaming_gpu_throughput_with(
                &SETUP1,
                stream(),
                2,
                EncodingActor::Host,
                overlap,
                500,
                |_, _| {},
            )
        };
        let (overlapped, serialized) = (run(true), run(false));
        assert_eq!(overlapped.pairs, 5_000);
        assert_eq!(overlapped.batches, 10);
        assert_eq!(overlapped.accepted, serialized.accepted);
        assert_eq!(overlapped.undefined, serialized.undefined);
        assert!(overlapped.pipeline.overlap);
        // Same chunking, same decisions — strictly lower overlapped filter time.
        assert!(overlapped.filter_seconds() < serialized.filter_seconds());
        assert!(overlapped.pipeline.savings_seconds() > 0.0);
    }

    #[test]
    fn cpu_throughput_runs_in_both_simd_modes() {
        let set = throughput_set(100, 2_000);
        let lanes = cpu_throughput_with_mode(&set, 4, 2, SimdMode::Lanes);
        let scalar = cpu_throughput_with_mode(&set, 4, 2, SimdMode::Scalar);
        assert!(lanes.kernel_seconds > 0.0);
        assert!(scalar.kernel_seconds > 0.0);
        // Lane mode fuses encoding into the kernel, so kernel time == filter time.
        assert!((lanes.kernel_seconds - lanes.filter_seconds).abs() < 1e-12);
        assert!(scalar.filter_seconds >= scalar.kernel_seconds);
    }

    #[test]
    fn speedup_is_ratio() {
        assert!((speedup(10.0, 2.0) - 5.0).abs() < 1e-12);
        assert_eq!(speedup(10.0, 0.0), 0.0);
    }
}
