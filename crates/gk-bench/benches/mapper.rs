//! Criterion bench: end-to-end read mapping on a small synthetic genome, with and
//! without GateKeeper-GPU pre-alignment filtering (the wall-clock counterpart of
//! Tables 3 and 5), plus the mapper's two seeding layers on a whole-genome-shaped
//! chromosome: building the k-mer index and looking up every read's seeds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gk_core::config::FilterConfig;
use gk_core::gpu::GateKeeperGpu;
use gk_mapper::pipeline::{MapperConfig, PreFilter, ReadMapper};
use gk_mapper::seeding::{candidates_for_read, SeedingConfig};
use gk_mapper::KmerIndex;
use gk_seq::reference::ReferenceBuilder;
use gk_seq::simulate::{ErrorProfile, ReadSimulator};
use std::hint::black_box;

fn bench_mapper(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapper");
    group.sample_size(10);

    let reference = ReferenceBuilder::new(200_000)
        .seed(5)
        .repeat_fraction(0.3)
        .n_gaps(0, 0)
        .build();
    let reads: Vec<_> = ReadSimulator::new(100, ErrorProfile::illumina())
        .seed(6)
        .simulate(&reference, 400)
        .iter()
        .map(|r| r.to_fastq())
        .collect();
    let threshold = 3u32;
    let mapper = ReadMapper::new(reference, MapperConfig::new(threshold));
    group.throughput(Throughput::Elements(reads.len() as u64));

    group.bench_with_input(
        BenchmarkId::new("no_filter", "100bp"),
        &reads,
        |b, reads| {
            b.iter(|| {
                mapper
                    .map_reads(black_box(reads), &PreFilter::None)
                    .stats
                    .mappings
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::new("gatekeeper_gpu", "100bp"),
        &reads,
        |b, reads| {
            b.iter(|| {
                let gpu = GateKeeperGpu::with_default_device(FilterConfig::new(100, threshold));
                mapper
                    .map_reads(black_box(reads), &PreFilter::Gpu(gpu))
                    .stats
                    .mappings
            })
        },
    );

    group.finish();
}

/// The seeding layers on the benchmark's `map-wgs` shape: a 2 Mbp repeat-rich
/// chromosome with two `N` gaps (seed 1: 1,991,967 indexed 12-mers) and 30,000
/// Illumina-profile 100 bp reads seeded at e = 5, i.e. six seeds per strand.
fn bench_seeding(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapper");
    group.sample_size(10);

    let (genome, seed) = (2_000_000, 1);
    let reference = ReferenceBuilder::new(genome)
        .seed(seed)
        .name("chrSim")
        .repeat_fraction(0.4)
        .repeat_family_copies(16)
        .repeat_divergence(0.10)
        .n_gaps(2, genome / 500)
        .build();
    let reads: Vec<Vec<u8>> = ReadSimulator::new(100, ErrorProfile::illumina())
        .seed(seed ^ 0x5EED_0000_0000_0001)
        .simulate(&reference, 30_000)
        .into_iter()
        .map(|r| r.sequence)
        .collect();

    group.throughput(Throughput::Elements(genome as u64));
    group.bench_function("index_build", |b| {
        b.iter(|| KmerIndex::build(black_box(&reference)).total_positions())
    });

    let index = KmerIndex::build(&reference);
    let config = SeedingConfig::new(5);
    group.throughput(Throughput::Elements(reads.len() as u64));
    group.bench_function("seed_lookup", |b| {
        b.iter(|| {
            reads
                .iter()
                .map(|read| candidates_for_read(black_box(read), &index, &config).len())
                .sum::<usize>()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_mapper, bench_seeding);
criterion_main!(benches);
