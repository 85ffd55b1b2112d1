//! Criterion bench: the cost of verification-style alignment — Myers bit-vector
//! edit distance (the Edlib ground truth), full Levenshtein DP, the mapper's
//! verifier (`banded_verification`: the same bit-vector kernel bounded by the
//! threshold) and Needleman-Wunsch traceback. These are the "expensive sequence
//! alignment" costs the pre-alignment filter exists to avoid (Table 4's DP model).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gk_align::dp::{banded_levenshtein, levenshtein};
use gk_align::myers::edit_distance;
use gk_align::nw::{needleman_wunsch, ScoringScheme};
use gk_seq::datasets::DatasetProfile;
use std::hint::black_box;

fn bench_alignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("alignment");
    group.sample_size(20);

    for read_len in [100usize, 250] {
        let set = DatasetProfile::low_edit(read_len).generate(32, 13);
        let threshold = (read_len / 20) as u32;

        group.bench_with_input(
            BenchmarkId::new("myers_bitvector", format!("{read_len}bp")),
            &set,
            |b, set| {
                b.iter(|| {
                    set.pairs
                        .iter()
                        .map(|p| edit_distance(black_box(&p.read), black_box(&p.reference)))
                        .sum::<u32>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("levenshtein_dp", format!("{read_len}bp")),
            &set,
            |b, set| {
                b.iter(|| {
                    set.pairs
                        .iter()
                        .map(|p| levenshtein(black_box(&p.read), black_box(&p.reference)))
                        .sum::<u32>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("banded_verification", format!("{read_len}bp")),
            &set,
            |b, set| {
                b.iter(|| {
                    set.pairs
                        .iter()
                        .filter_map(|p| {
                            banded_levenshtein(
                                black_box(&p.read),
                                black_box(&p.reference),
                                threshold,
                            )
                        })
                        .count()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("needleman_wunsch", format!("{read_len}bp")),
            &set,
            |b, set| {
                b.iter(|| {
                    set.pairs
                        .iter()
                        .map(|p| {
                            needleman_wunsch(
                                black_box(&p.read),
                                black_box(&p.reference),
                                ScoringScheme::default(),
                            )
                            .score
                        })
                        .sum::<i32>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_alignment);
criterion_main!(benches);
