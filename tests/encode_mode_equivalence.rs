//! Property suite for the device-side encoding execution path: for **any**
//! dataset profile, chunk size, overlap setting and error threshold
//! (including the `e ≥ read_len` clamp region hardened in PR 4), the
//! device-encode path (raw 1-byte-per-base uploads + fused encode+filter
//! kernel) and the host-encode path (`encode_pair_batch` before the transfer)
//! must produce **byte-identical decisions** — materialized, streamed, and
//! through the read mapper's record pipeline. The timing *attribution* is the
//! only thing allowed to differ: zero host encode time and a positive
//! in-kernel encode share on the device path, the reverse on the host path.

use gatekeeper_gpu::core::{EncodingActor, FilterConfig, GateKeeperGpu};
use gatekeeper_gpu::mapper::pipeline::{MapperConfig, PreFilter, ReadMapper};
use gatekeeper_gpu::seq::datasets::DatasetProfile;
use gatekeeper_gpu::seq::fastq::FastqRecord;
use gatekeeper_gpu::seq::simulate::{ErrorProfile, ReadSimulator};
use gatekeeper_gpu::seq::ReferenceBuilder;
use proptest::prelude::*;

/// The profile pool the equivalence property draws from: all three paper read
/// lengths, low- and high-edit populations, and mapper-like candidate mixes.
fn profiles() -> Vec<DatasetProfile> {
    vec![
        DatasetProfile::set1(),
        DatasetProfile::set3(),
        DatasetProfile::set8(),
        DatasetProfile::set9(),
        DatasetProfile::minimap2_like(),
        DatasetProfile::high_edit(150),
    ]
}

/// Threshold *kinds*, resolved against the profile's read length in the test
/// body so the `e ≥ read_len` clamp cases are always exercised at the right
/// boundary regardless of which profile the case drew.
#[derive(Clone, Copy, Debug)]
enum ThresholdKind {
    Small(u32),
    ReadLenMinusOne,
    ReadLen,
    ReadLenPlusOne,
    Max,
}

impl ThresholdKind {
    fn resolve(self, read_len: usize) -> u32 {
        match self {
            ThresholdKind::Small(e) => e,
            ThresholdKind::ReadLenMinusOne => read_len as u32 - 1,
            ThresholdKind::ReadLen => read_len as u32,
            ThresholdKind::ReadLenPlusOne => read_len as u32 + 1,
            ThresholdKind::Max => u32::MAX,
        }
    }
}

fn threshold_kinds() -> Vec<ThresholdKind> {
    vec![
        ThresholdKind::Small(0),
        ThresholdKind::Small(2),
        ThresholdKind::Small(5),
        ThresholdKind::Small(10),
        ThresholdKind::ReadLenMinusOne,
        ThresholdKind::ReadLen,
        ThresholdKind::ReadLenPlusOne,
        ThresholdKind::Max,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn device_and_host_encode_decide_identically(
        profile_idx in 0usize..6,
        kind in proptest::sample::select(threshold_kinds()),
        chunk in 1usize..400,
        pair_count in 120usize..320,
        seed in 0u64..1_000_000,
        overlap in proptest::sample::select(vec![false, true]),
        undefined_pct in 0usize..12,
    ) {
        let mut profile = profiles()[profile_idx].clone();
        profile.undefined_fraction = undefined_pct as f64 / 100.0;
        let threshold = kind.resolve(profile.read_len);
        let set = profile.generate(pair_count, seed);

        let base = FilterConfig::new(profile.read_len, threshold)
            .with_chunk_pairs(chunk)
            .with_overlap(overlap);
        let host = GateKeeperGpu::with_default_device(base.with_encoding(EncodingActor::Host))
            .filter_set(&set);
        let device = GateKeeperGpu::with_default_device(base.with_encoding(EncodingActor::Device))
            .filter_set(&set);

        // The tentpole contract: byte-identical decisions …
        prop_assert_eq!(&host.decisions, &device.decisions);
        let (host_run, device_run) = (&host.per_device[0], &device.per_device[0]);
        prop_assert_eq!(host_run.batches, device_run.batches);
        // … and the encode cost attributed to exactly one side per mode.
        prop_assert_eq!(device_run.timing.encode_seconds, 0.0);
        prop_assert!(host_run.timing.encode_seconds > 0.0);
        prop_assert_eq!(host_run.timing.encode_device_seconds, 0.0);
        prop_assert!(device_run.timing.encode_device_seconds > 0.0);
        prop_assert!(device_run.timing.encode_device_seconds <= device_run.timing.kernel_seconds);
        prop_assert!(device_run.timing.host_encode_share() < host_run.timing.host_encode_share());
        prop_assert!(device_run.pipeline.device_encode && !host_run.pipeline.device_encode);

        // Streaming the same pairs through the device path chunk-by-chunk
        // reproduces the materialized decisions exactly.
        let gpu = GateKeeperGpu::with_default_device(base.with_encoding(EncodingActor::Device));
        let mut streamed_decisions = Vec::new();
        let source_batch = (pair_count / 3).max(1);
        let streamed = gpu.filter_stream_with(
            profile.stream_batches(pair_count, seed, source_batch),
            |_, decisions| streamed_decisions.extend_from_slice(decisions),
        );
        prop_assert_eq!(streamed.pairs, set.len());
        prop_assert_eq!(&streamed_decisions, &host.decisions);
        prop_assert_eq!(streamed.undefined, set.undefined_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn mapper_records_are_identical_across_encode_modes(
        seed in 0u64..100_000,
        threshold in 1u32..5,
        chunk in proptest::sample::select(vec![1usize, 37, 10_000]),
        read_count in 30usize..60,
    ) {
        let reference = ReferenceBuilder::new(50_000)
            .seed(seed)
            .repeat_fraction(0.25)
            .n_gaps(0, 0)
            .build();
        let reads: Vec<FastqRecord> = ReadSimulator::new(100, ErrorProfile::illumina())
            .seed(seed ^ 0xDEAD)
            .simulate(&reference, read_count)
            .iter()
            .map(|r| r.to_fastq())
            .collect();
        let mapper = ReadMapper::new(reference, MapperConfig::new(threshold));

        let base = FilterConfig::new(100, threshold)
            .with_chunk_pairs(chunk)
            .with_overlap(true);
        let host = mapper.map_reads(
            &reads,
            &PreFilter::Gpu(GateKeeperGpu::with_default_device(
                base.with_encoding(EncodingActor::Host),
            )),
        );
        let device = mapper.map_reads(
            &reads,
            &PreFilter::Gpu(GateKeeperGpu::with_default_device(
                base.with_encoding(EncodingActor::Device),
            )),
        );

        prop_assert_eq!(&host.records, &device.records);
        prop_assert_eq!(host.stats.mappings, device.stats.mappings);
        prop_assert_eq!(host.stats.mapped_reads, device.stats.mapped_reads);
        prop_assert_eq!(host.stats.candidate_pairs, device.stats.candidate_pairs);
        prop_assert_eq!(host.stats.verification_pairs, device.stats.verification_pairs);
        prop_assert_eq!(host.stats.rejected_pairs, device.stats.rejected_pairs);
    }
}

/// Deterministic spot-check of the huge-threshold clamp on the device path
/// (the exact regression PR 4 fixed on the host path): `e = u32::MAX` must
/// not attempt a gigantic mask allocation in the fused kernel either.
#[test]
fn device_encode_survives_the_max_threshold_clamp() {
    let set = DatasetProfile::set3().generate(200, 9);
    let run = GateKeeperGpu::with_default_device(
        FilterConfig::new(100, u32::MAX).with_encoding(EncodingActor::Device),
    )
    .filter_set(&set);
    // Everything within u32::MAX edits is accepted.
    assert_eq!(run.decisions.iter().filter(|d| d.accepted).count(), 200);
}
