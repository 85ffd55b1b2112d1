//! Criterion bench: host-side prep cost per encoding actor (the trade-off of
//! Figure 6 — host encoding buys smaller transfers at the price of the 2-bit
//! packing work here; device encoding only pays the raw-arena gather).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gk_seq::datasets::DatasetProfile;
use gk_seq::packed::{encode_batch_parallel, PackedSeq};
use gk_seq::pairs::encode_pair_batch;
use gk_seq::raw::RawPairBatch;
use std::hint::black_box;

fn bench_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("encoding");
    group.sample_size(20);

    for read_len in [100usize, 150, 250] {
        let sequences: Vec<Vec<u8>> = (0..512)
            .map(|i| {
                (0..read_len)
                    .map(|j| b"ACGT"[(i * 31 + j * 7) % 4])
                    .collect()
            })
            .collect();
        group.throughput(Throughput::Bytes((read_len * sequences.len()) as u64));

        group.bench_with_input(
            BenchmarkId::new("serial", format!("{read_len}bp")),
            &sequences,
            |b, sequences| {
                b.iter(|| {
                    sequences
                        .iter()
                        .map(|s| black_box(PackedSeq::from_ascii(black_box(s))).len())
                        .sum::<usize>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("parallel", format!("{read_len}bp")),
            &sequences,
            |b, sequences| {
                let refs: Vec<&[u8]> = sequences.iter().map(|s| s.as_slice()).collect();
                b.iter(|| encode_batch_parallel(black_box(&refs)).len())
            },
        );
    }
    group.finish();
}

/// The per-batch host prep of the two execution paths, head to head: the
/// host-encode path runs `encode_pair_batch` (2-bit packing), the
/// device-encode path only gathers the raw transfer arenas
/// (`RawPairBatch::from_pairs`) and leaves the packing to the fused kernel.
fn bench_prep_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("prep_paths");
    group.sample_size(20);

    let profile = DatasetProfile::set3();
    let pairs = 4_096usize;
    let batch = 512usize;
    group.throughput(Throughput::Elements(pairs as u64));

    group.bench_function(BenchmarkId::new("host_encode", "set3"), |b| {
        b.iter(|| {
            profile
                .stream_batches(pairs, 11, batch)
                .map(|chunk| encode_pair_batch(black_box(&chunk)).len())
                .sum::<usize>()
        })
    });
    group.bench_function(BenchmarkId::new("raw_gather", "set3"), |b| {
        b.iter(|| {
            profile
                .stream_batches(pairs, 11, batch)
                .map(|chunk| black_box(RawPairBatch::from_pairs(&chunk).h2d_bytes()))
                .sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_encoding, bench_prep_paths);
criterion_main!(benches);
