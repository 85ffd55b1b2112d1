//! Criterion bench: single-pair filtration cost of every pre-alignment filter.
//!
//! This is the per-filtration cost underlying the throughput tables (Table 2,
//! S.13–S.15): the GateKeeper-family filters are cheapest, the map-based filters
//! (Shouji, SneakySnake, MAGNET) cost more per pair, and everything is orders of
//! magnitude cheaper than the exact edit-distance computation it replaces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gk_filters::{
    GateKeeperFilter, MagnetFilter, PreAlignmentFilter, ShoujiFilter, SneakySnakeFilter,
};
use gk_seq::datasets::DatasetProfile;
use std::hint::black_box;

fn bench_filters(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter_kernels");
    group.sample_size(20);

    for read_len in [100usize, 250] {
        let threshold = (read_len / 25) as u32;
        let set = DatasetProfile::low_edit(read_len).generate(64, 7);
        let filters: Vec<(&str, Box<dyn PreAlignmentFilter>)> = vec![
            ("gatekeeper_gpu", Box::new(GateKeeperFilter::gpu(threshold))),
            (
                "gatekeeper_fpga",
                Box::new(GateKeeperFilter::fpga(threshold)),
            ),
            ("shouji", Box::new(ShoujiFilter::new(threshold))),
            ("magnet", Box::new(MagnetFilter::new(threshold))),
            ("sneaky_snake", Box::new(SneakySnakeFilter::new(threshold))),
        ];
        for (name, filter) in filters {
            group.bench_with_input(
                BenchmarkId::new(name, format!("{read_len}bp")),
                &set,
                |b, set| {
                    b.iter(|| {
                        let mut accepted = 0usize;
                        for pair in &set.pairs {
                            if filter
                                .filter_pair(black_box(&pair.read), black_box(&pair.reference))
                                .accepted
                            {
                                accepted += 1;
                            }
                        }
                        accepted
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_filters);
criterion_main!(benches);
