//! Determinism suite for every parallelized host-side path, plus the
//! overlap-versus-serialized determinism contract of the GPU batch pipeline.
//!
//! The rayon shim executes combinators eagerly over ordered chunks, so every
//! wired path — 2-bit batch encoding, the multicore CPU filter baseline, the
//! accuracy sweep, whole simulated GPU runs and their sequential kernel-launch
//! fold, and mapper candidate construction + verification — must produce
//! output **byte-identical** to the sequential fallback. Each test runs the
//! parallel version on the global pool and the reference version inside a
//! one-thread pool (the shim's sequential fallback, the same mode
//! `RAYON_NUM_THREADS=1` selects), across several seeded random batches.
//!
//! The pipeline suite at the bottom asserts the tentpole invariant of the
//! stream-overlapped engine: turning overlap on or changing the chunk size may
//! only change the *simulated timeline*, never a decision, a count, or a mapper
//! record.

use gatekeeper_gpu::core::cpu::GateKeeperCpu;
use gatekeeper_gpu::core::{EncodingActor, FilterConfig, GateKeeperGpu};
use gatekeeper_gpu::filters::accuracy::{evaluate_filter, ground_truth_distances, UndefinedPolicy};
use gatekeeper_gpu::filters::{
    GateKeeperFilter, MagnetFilter, PreAlignmentFilter, ShoujiFilter, SneakySnakeFilter,
};
use gatekeeper_gpu::gpusim::device::DeviceSpec;
use gatekeeper_gpu::gpusim::executor::{launch_kernel, KernelResources, LaunchConfig};
use gatekeeper_gpu::mapper::pipeline::{MapperConfig, PreFilter, ReadMapper};
use gatekeeper_gpu::seq::datasets::DatasetProfile;
use gatekeeper_gpu::seq::fastq::FastqRecord;
use gatekeeper_gpu::seq::pairs::encode_pair_batch;
use gatekeeper_gpu::seq::simulate::{ErrorProfile, ReadSimulator};
use gatekeeper_gpu::seq::{PackedSeq, ReferenceBuilder};

const SEEDS: [u64; 3] = [11, 4242, 990_017];

/// Runs `op` in the shim's sequential fallback (a one-thread pool), producing
/// the reference output the parallel runs must match exactly.
fn sequential<R>(op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread reference pool")
        .install(op)
}

#[test]
fn batch_encoding_is_identical_to_sequential() {
    for seed in SEEDS {
        let pairs = DatasetProfile::set3().generate(2_500, seed);

        let parallel = encode_pair_batch(&pairs.pairs);
        let fallback = sequential(|| encode_pair_batch(&pairs.pairs));
        let plain: Vec<(PackedSeq, PackedSeq)> = pairs.pairs.iter().map(|p| p.packed()).collect();
        assert_eq!(parallel, fallback, "seed {seed}");
        assert_eq!(parallel, plain, "seed {seed}");
    }
}

#[test]
fn cpu_filter_baseline_is_identical_to_sequential() {
    for seed in SEEDS {
        let mut profile = DatasetProfile::set3();
        profile.undefined_fraction = 0.05;
        let pairs = profile.generate(2_000, seed);
        for threshold in [0u32, 3, 7] {
            let parallel = GateKeeperCpu::new(threshold, 4).filter_set(&pairs);
            let one_thread = GateKeeperCpu::new(threshold, 1).filter_set(&pairs);
            assert_eq!(
                parallel.decisions, one_thread.decisions,
                "seed {seed}, e = {threshold}"
            );
        }
    }
}

#[test]
fn simd_lanes_and_scalar_fallback_are_byte_identical_end_to_end() {
    // The SIMD tentpole's contract: the lane-parallel block path and the
    // per-bit scalar reference may differ only in throughput. Decisions must be
    // byte-identical through every wired surface — the multicore CPU baseline
    // at several thread counts, and the full simulated GPU system on both the
    // host-encode and device-encode paths.
    use gatekeeper_gpu::filters::SimdMode;
    for seed in SEEDS {
        let mut profile = DatasetProfile::set3();
        profile.undefined_fraction = 0.05;
        let pairs = profile.generate(1_200, seed);
        for threshold in [0u32, 4] {
            let scalar = GateKeeperCpu::new(threshold, 1)
                .with_simd_mode(SimdMode::Scalar)
                .filter_set(&pairs);
            for threads in [1usize, 4] {
                let lanes = GateKeeperCpu::new(threshold, threads)
                    .with_simd_mode(SimdMode::Lanes)
                    .filter_set(&pairs);
                assert_eq!(
                    lanes.decisions, scalar.decisions,
                    "seed {seed}, e = {threshold}, threads {threads}"
                );
            }
            for encoding in [EncodingActor::Host, EncodingActor::Device] {
                let base = FilterConfig::new(100, threshold)
                    .with_chunk_pairs(333)
                    .with_overlap(true)
                    .with_encoding(encoding);
                let lanes =
                    GateKeeperGpu::with_default_device(base.with_simd_mode(SimdMode::Lanes))
                        .filter_set(&pairs);
                let scalar_gpu =
                    GateKeeperGpu::with_default_device(base.with_simd_mode(SimdMode::Scalar))
                        .filter_set(&pairs);
                assert_eq!(
                    lanes.decisions, scalar_gpu.decisions,
                    "seed {seed}, e = {threshold}, {encoding:?}"
                );
                assert_eq!(lanes.accepted(), scalar_gpu.accepted());
            }
        }
    }
}

#[test]
fn widened_filters_are_digest_identical_across_modes_threads_and_env() {
    // The lane-parallel MAGNET/Shouji/SneakySnake kernels inherit the
    // GateKeeper contract: SIMD mode and thread count may only change
    // throughput. Every (filter, mode, threads) combination must produce the
    // same FNV decision digest, and a `GK_SIMD=scalar` environment must steer
    // `Auto` construction onto the same decisions.
    use gatekeeper_gpu::filters::{decision_digest, MagnetFilter, ShoujiFilter, SimdMode};

    type MakeFilter = Box<dyn Fn(SimdMode) -> Box<dyn PreAlignmentFilter>>;
    let make_filters = |e: u32| -> Vec<MakeFilter> {
        vec![
            Box::new(move |m| Box::new(MagnetFilter::new(e).with_simd_mode(m))),
            Box::new(move |m| Box::new(ShoujiFilter::new(e).with_simd_mode(m))),
            Box::new(move |m| Box::new(SneakySnakeFilter::new(e).with_simd_mode(m))),
        ]
    };
    for seed in SEEDS {
        let mut profile = DatasetProfile::set3();
        profile.undefined_fraction = 0.05;
        let pairs = profile.generate(1_200, seed);
        for e in [0u32, 4] {
            for make in make_filters(e) {
                let filter = make(SimdMode::Scalar);
                let scalar = sequential(|| filter.filter_batch(&pairs.pairs));
                let scalar_digest = decision_digest(&scalar);
                for threads in [1usize, 4] {
                    let lanes = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .expect("lane pool")
                        .install(|| make(SimdMode::Lanes).filter_batch(&pairs.pairs));
                    assert_eq!(
                        decision_digest(&lanes),
                        scalar_digest,
                        "{}: seed {seed}, e = {e}, threads {threads}",
                        filter.name()
                    );
                    assert_eq!(lanes, scalar, "{}: seed {seed}, e = {e}", filter.name());
                }
                // GK_SIMD=scalar leg: Auto resolves against the environment at
                // construction, and the resulting run stays digest-identical.
                std::env::set_var("GK_SIMD", "scalar");
                let from_env = make(SimdMode::Auto);
                std::env::remove_var("GK_SIMD");
                assert_eq!(
                    decision_digest(&from_env.filter_batch(&pairs.pairs)),
                    scalar_digest,
                    "{}: seed {seed}, e = {e}, GK_SIMD=scalar",
                    filter.name()
                );
            }
        }
    }
}

#[test]
fn accuracy_sweep_is_identical_to_sequential() {
    for seed in SEEDS {
        let mut profile = DatasetProfile::low_edit(100);
        profile.undefined_fraction = 0.08;
        let pairs = profile.generate(600, seed);

        let parallel_truth = ground_truth_distances(&pairs);
        let fallback_truth = sequential(|| ground_truth_distances(&pairs));
        assert_eq!(parallel_truth, fallback_truth, "seed {seed}");

        let filters: Vec<Box<dyn PreAlignmentFilter>> = vec![
            Box::new(GateKeeperFilter::gpu(4)),
            Box::new(GateKeeperFilter::shd(4)),
            Box::new(SneakySnakeFilter::new(4)),
        ];
        for filter in &filters {
            for policy in [UndefinedPolicy::Exclude, UndefinedPolicy::CountAsAccepted] {
                let parallel = evaluate_filter(filter.as_ref(), &pairs, policy);
                let fallback = sequential(|| evaluate_filter(filter.as_ref(), &pairs, policy));
                assert_eq!(
                    parallel,
                    fallback,
                    "seed {seed}, filter {}, policy {policy:?}",
                    filter.name()
                );
            }
        }
    }
}

/// Every `PreAlignmentFilter` impl, at batch sizes on both sides of the
/// 256-pair lane block and with ragged, empty, `N` and lowercase pairs mixed
/// in: the batch equals the one-thread batch and the per-pair decisions.
#[test]
fn filter_batch_is_identical_to_sequential() {
    let filters: Vec<Box<dyn PreAlignmentFilter>> = vec![
        Box::new(GateKeeperFilter::gpu(5)),
        Box::new(GateKeeperFilter::fpga(5)),
        Box::new(GateKeeperFilter::shd(5)),
        Box::new(MagnetFilter::new(5)),
        Box::new(ShoujiFilter::new(5)),
        Box::new(SneakySnakeFilter::new(5)),
        Box::new(GateKeeperGpu::with_default_device(FilterConfig::new(
            100, 5,
        ))),
    ];
    for seed in SEEDS {
        let mut pairs = DatasetProfile::low_edit(100).generate(771, seed).pairs;
        for (i, pair) in pairs.iter_mut().enumerate() {
            match i % 9 {
                1 => {
                    pair.read.pop();
                }
                3 => pair.read[i % 90] = b'N',
                5 => pair.read.make_ascii_lowercase(),
                7 => {
                    pair.read.make_ascii_lowercase();
                    pair.reference.make_ascii_lowercase();
                }
                _ if i % 97 == 0 => {
                    pair.read.clear();
                    pair.reference.clear();
                }
                _ => {}
            }
        }
        for filter in &filters {
            for n in [0, 1, 255, 256, 257, 771] {
                let batch = &pairs[..n];
                let parallel = filter.filter_batch(batch);
                let fallback = sequential(|| filter.filter_batch(batch));
                let per_pair: Vec<_> = batch
                    .iter()
                    .map(|p| filter.filter_pair(&p.read, &p.reference))
                    .collect();
                let context = format!("seed {seed}, filter {}, {n} pairs", filter.name());
                assert_eq!(parallel, fallback, "{context}");
                assert_eq!(parallel, per_pair, "{context}");
            }
        }
    }
}

#[test]
fn simulated_gpu_run_is_identical_to_sequential() {
    // The whole GPU-system result (decisions + modelled timing + kernel stats)
    // is derived from counts, not wall clock, so parallel and sequential runs
    // must agree exactly — on one chunk and on an overlapped multi-chunk run.
    for seed in SEEDS {
        let pairs = DatasetProfile::set3().generate(1_500, seed);
        let single = FilterConfig::new(100, 4).with_encoding(EncodingActor::Host);
        for config in [single, single.with_chunk_pairs(90).with_overlap(true)] {
            let parallel = GateKeeperGpu::with_default_device(config).filter_set(&pairs);
            let fallback =
                sequential(|| GateKeeperGpu::with_default_device(config).filter_set(&pairs));
            assert_eq!(
                parallel, fallback,
                "seed {seed}, chunk {}",
                config.chunk_pairs
            );
        }
    }
}

#[test]
fn simulated_kernel_launch_is_identical_to_sequential() {
    // The launch is one sequential fold that never touches the pool; this
    // pins its statistics to the one-thread reference anyway, so a launch
    // fanned out again must keep every bit.
    let device = DeviceSpec::gtx_1080_ti();
    let resources = KernelResources::gatekeeper_gpu(&device);
    let config = LaunchConfig {
        grid_blocks: 48,
        threads_per_block: 256,
    };
    let cycles = || (0..48 * 256 - 1_000).map(|i| 100 + (i as u64 % 97));
    let parallel = launch_kernel(&device, &resources, config, cycles());
    let fallback = sequential(|| launch_kernel(&device, &resources, config, cycles()));
    assert_eq!(parallel, fallback);
}

/// Chunk sizes the pipeline determinism suite sweeps for a 900-pair set:
/// degenerate single-pair chunks, uneven mid-sizes, exactly the pair count, and
/// a chunk larger than the whole set (single-chunk run).
const CHUNK_SIZES: [usize; 5] = [1, 64, 333, 900, 2_000];

#[test]
fn overlap_and_chunking_never_change_decisions_or_counts() {
    for seed in SEEDS {
        let mut profile = DatasetProfile::set3();
        profile.undefined_fraction = 0.03;
        let pairs = profile.generate(900, seed);

        let reference =
            GateKeeperGpu::with_default_device(FilterConfig::new(100, 4)).filter_set(&pairs);
        for chunk in CHUNK_SIZES {
            for overlap in [false, true] {
                let config = FilterConfig::new(100, 4)
                    .with_chunk_pairs(chunk)
                    .with_overlap(overlap);
                let run = GateKeeperGpu::with_default_device(config).filter_set(&pairs);
                assert_eq!(
                    run.decisions, reference.decisions,
                    "seed {seed}, chunk {chunk}, overlap {overlap}"
                );
                assert_eq!(run.accepted(), reference.accepted());
                assert_eq!(run.rejected(), reference.rejected());
                assert_eq!(
                    run.per_device[0].batches,
                    900usize.div_ceil(chunk.max(1)).min(900)
                );
            }
        }
    }
}

#[test]
fn overlapped_multi_chunk_runs_are_strictly_faster_than_serialized() {
    // The acceptance bar of the pipeline refactor: on a multi-batch run
    // (≥ 8 chunks) the overlapped timeline strictly beats the serialized sum
    // while the decisions stay byte-identical (checked above).
    let pairs = DatasetProfile::set3().generate(2_000, 7_001);
    for chunk in [100usize, 250] {
        let serialized =
            GateKeeperGpu::with_default_device(FilterConfig::new(100, 4).with_chunk_pairs(chunk))
                .filter_set(&pairs);
        let overlapped = GateKeeperGpu::with_default_device(
            FilterConfig::new(100, 4)
                .with_chunk_pairs(chunk)
                .with_overlap(true),
        )
        .filter_set(&pairs);
        assert!(serialized.per_device[0].batches >= 8, "chunk {chunk}");
        assert_eq!(serialized.decisions, overlapped.decisions);
        assert!(
            overlapped.filter_seconds() < serialized.filter_seconds(),
            "chunk {chunk}: overlapped {} !< serialized {}",
            overlapped.filter_seconds(),
            serialized.filter_seconds()
        );
    }
}

#[test]
fn streamed_filtering_matches_materialized_filtering_at_every_chunk_size() {
    for seed in SEEDS {
        let profile = DatasetProfile::set3();
        let pairs = profile.generate(900, seed);
        for chunk in CHUNK_SIZES {
            let config = FilterConfig::new(100, 5)
                .with_chunk_pairs(chunk)
                .with_overlap(true);
            let gpu = GateKeeperGpu::with_default_device(config);
            let materialized = gpu.filter_set(&pairs);
            let mut streamed_decisions = Vec::new();
            let streamed = gpu
                .filter_stream_with(profile.stream_batches(900, seed, 450), |_, decisions| {
                    streamed_decisions.extend_from_slice(decisions)
                });
            assert_eq!(streamed.pairs, 900, "seed {seed}, chunk {chunk}");
            assert_eq!(streamed.accepted, materialized.accepted());
            assert_eq!(streamed.rejected(), materialized.rejected());
            assert_eq!(streamed_decisions, materialized.decisions);
        }
    }
}

#[test]
fn device_encode_is_identical_to_sequential_and_to_host_encode() {
    // The raw-upload + fused-kernel path fans its per-pair packing out on the
    // pool inside the kernel closure, so it needs the same two guarantees as
    // every other parallel path: parallel == sequential fallback, and (its own
    // tentpole contract) device-encode == host-encode, at every chunk size.
    for seed in SEEDS {
        let mut profile = DatasetProfile::set3();
        profile.undefined_fraction = 0.04;
        let pairs = profile.generate(900, seed);
        for chunk in [1usize, 333, 2_000] {
            let device_config = FilterConfig::new(100, 4)
                .with_chunk_pairs(chunk)
                .with_overlap(true)
                .with_encoding(EncodingActor::Device);
            let parallel = GateKeeperGpu::with_default_device(device_config).filter_set(&pairs);
            let fallback =
                sequential(|| GateKeeperGpu::with_default_device(device_config).filter_set(&pairs));
            assert_eq!(parallel, fallback, "seed {seed}, chunk {chunk}");
            let host = GateKeeperGpu::with_default_device(
                device_config.with_encoding(EncodingActor::Host),
            )
            .filter_set(&pairs);
            assert_eq!(
                parallel.decisions, host.decisions,
                "seed {seed}, chunk {chunk}"
            );
        }
    }
}

#[test]
fn mapper_records_are_identical_with_overlap_on_or_off() {
    let reference = ReferenceBuilder::new(60_000)
        .seed(123)
        .repeat_fraction(0.25)
        .n_gaps(0, 0)
        .build();
    let reads: Vec<FastqRecord> = ReadSimulator::new(100, ErrorProfile::illumina())
        .seed(9)
        .simulate(&reference, 80)
        .iter()
        .map(|r| r.to_fastq())
        .collect();
    let mapper = ReadMapper::new(reference, MapperConfig::new(3));

    let baseline = mapper.map_reads(
        &reads,
        &PreFilter::Gpu(GateKeeperGpu::with_default_device(FilterConfig::new(
            100, 3,
        ))),
    );
    for chunk in [1usize, 50, 10_000] {
        for overlap in [false, true] {
            let config = FilterConfig::new(100, 3)
                .with_chunk_pairs(chunk)
                .with_overlap(overlap);
            let filter = PreFilter::Gpu(GateKeeperGpu::with_default_device(config));
            let outcome = mapper.map_reads(&reads, &filter);
            assert_eq!(
                outcome.records, baseline.records,
                "chunk {chunk}, overlap {overlap}"
            );
            assert_eq!(outcome.stats.mappings, baseline.stats.mappings);
            assert_eq!(outcome.stats.mapped_reads, baseline.stats.mapped_reads);
            assert_eq!(
                outcome.stats.verification_pairs,
                baseline.stats.verification_pairs
            );
            assert_eq!(outcome.stats.rejected_pairs, baseline.stats.rejected_pairs);
        }
    }
}

#[test]
fn mapper_candidates_and_verification_are_identical_to_sequential() {
    let reference = ReferenceBuilder::new(60_000)
        .seed(77)
        .repeat_fraction(0.25)
        .n_gaps(0, 0)
        .build();
    let reads: Vec<FastqRecord> = ReadSimulator::new(100, ErrorProfile::illumina())
        .seed(5)
        .simulate(&reference, 90)
        .iter()
        .map(|r| r.to_fastq())
        .collect();
    let mapper = ReadMapper::new(reference, MapperConfig::new(3));

    for filter in [
        PreFilter::None,
        PreFilter::Host(Box::new(SneakySnakeFilter::new(3))),
    ] {
        let parallel = mapper.map_reads(&reads, &filter);
        let fallback = sequential(|| mapper.map_reads(&reads, &filter));
        // Timing fields are wall-clock; everything the mapper *computes* must
        // match record-for-record.
        assert_eq!(parallel.records, fallback.records);
        assert_eq!(parallel.stats.mappings, fallback.stats.mappings);
        assert_eq!(parallel.stats.mapped_reads, fallback.stats.mapped_reads);
        assert_eq!(
            parallel.stats.candidate_pairs,
            fallback.stats.candidate_pairs
        );
        assert_eq!(
            parallel.stats.verification_pairs,
            fallback.stats.verification_pairs
        );
        assert_eq!(parallel.stats.rejected_pairs, fallback.stats.rejected_pairs);
    }
}
