//! Criterion bench: batched GateKeeper-GPU runs on the simulated device — wall
//! clock cost of processing a pair set as a function of batch size and encoding
//! actor (the knob explored by Table 1 and Figure 6).
//!
//! The two `gpu_batch` rows per batch size are genuinely different execution
//! paths, printed side by side: `device_encode` gathers raw 1-byte-per-base
//! arenas and packs inside the fused kernel closure, `host_encode` runs
//! `encode_pair_batch` on the pool before the (smaller) simulated transfer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gk_core::config::{EncodingActor, FilterConfig};
use gk_core::gpu::GateKeeperGpu;
use gk_seq::datasets::DatasetProfile;
use std::hint::black_box;

fn bench_gpu_batches(c: &mut Criterion) {
    let mut group = c.benchmark_group("gpu_batch");
    group.sample_size(10);

    let set = DatasetProfile::set3().generate(4_000, 99);
    group.throughput(Throughput::Elements(set.len() as u64));

    for batch_size in [250usize, 1_000, 4_000] {
        for (label, encoding) in [
            ("device_encode", EncodingActor::Device),
            ("host_encode", EncodingActor::Host),
        ] {
            group.bench_with_input(BenchmarkId::new(label, batch_size), &set, |b, set| {
                let gpu = GateKeeperGpu::with_default_device(
                    FilterConfig::new(100, 5)
                        .with_encoding(encoding)
                        .with_max_reads_per_batch(batch_size),
                );
                b.iter(|| gpu.filter_set(black_box(set)).accepted())
            });
        }
    }
    group.finish();
}

fn bench_pipeline_overlap(c: &mut Criterion) {
    // Host wall-clock cost of the chunked pipeline itself (the simulated
    // timeline bookkeeping is the only difference between the two modes).
    let mut group = c.benchmark_group("gpu_pipeline");
    group.sample_size(10);

    let set = DatasetProfile::set3().generate(4_000, 99);
    group.throughput(Throughput::Elements(set.len() as u64));

    for (label, overlap) in [("serialized", false), ("overlapped", true)] {
        group.bench_with_input(BenchmarkId::new(label, 500usize), &set, |b, set| {
            let gpu = GateKeeperGpu::with_default_device(
                FilterConfig::new(100, 5)
                    .with_chunk_pairs(500)
                    .with_overlap(overlap),
            );
            b.iter(|| gpu.filter_set(black_box(set)).accepted())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gpu_batches, bench_pipeline_overlap);
criterion_main!(benches);
