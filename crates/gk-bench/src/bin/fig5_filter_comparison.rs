//! Figure 5 (and Sup. Figures S.7–S.11, Tables S.7–S.12) — false-accept comparison
//! between GateKeeper-GPU and the other pre-alignment filters (GateKeeper-FPGA,
//! SHD, Shouji, MAGNET, SneakySnake) on low-edit and high-edit profile datasets.
//! Undefined pairs are counted as accepted for every filter, as in §5.1.2.
//!
//! Usage: `cargo run --release -p gk-bench --bin fig5_filter_comparison [--pairs N] [--full]`
//! (`--full` adds the 150 bp and 250 bp datasets.)

use gk_bench::datasets::{high_edit_set, low_edit_set};
use gk_bench::table::{fmt_count, Table};
use gk_bench::HarnessArgs;
use gk_filters::accuracy::{evaluate_with_truth, ground_truth_distances, UndefinedPolicy};
use gk_filters::{
    GateKeeperFilter, MagnetFilter, PreAlignmentFilter, ShoujiFilter, SneakySnakeFilter,
};
use gk_seq::pairs::PairSet;

fn filters_for(e: u32) -> Vec<Box<dyn PreAlignmentFilter>> {
    vec![
        Box::new(GateKeeperFilter::gpu(e)),
        Box::new(GateKeeperFilter::fpga(e)),
        Box::new(GateKeeperFilter::shd(e)),
        Box::new(ShoujiFilter::new(e)),
        Box::new(MagnetFilter::new(e)),
        Box::new(SneakySnakeFilter::new(e)),
    ]
}

fn compare_on(set: &PairSet, thresholds: &[u32]) {
    let truth = ground_truth_distances(set);
    let mut fa_table = Table::new(vec![
        "e",
        "GateKeeper-GPU",
        "GateKeeper-FPGA",
        "SHD",
        "Shouji",
        "MAGNET",
        "SneakySnake",
    ])
    .with_title(format!(
        "False accepts — {} ({} pairs, {}bp, {} undefined pairs counted as accepted)",
        set.name,
        set.len(),
        set.read_len,
        set.undefined_count()
    ));
    let mut fr_table = Table::new(vec![
        "e",
        "GateKeeper-GPU",
        "GateKeeper-FPGA",
        "SHD",
        "Shouji",
        "MAGNET",
        "SneakySnake",
    ])
    .with_title(format!("False rejects — {}", set.name));

    for &e in thresholds {
        let mut fa_row = vec![e.to_string()];
        let mut fr_row = vec![e.to_string()];
        for filter in filters_for(e) {
            let report = evaluate_with_truth(
                filter.as_ref(),
                set,
                &truth,
                UndefinedPolicy::CountAsAccepted,
            );
            fa_row.push(fmt_count(report.false_accepts as u64));
            fr_row.push(fmt_count(report.false_rejects as u64));
        }
        fa_table.row(fa_row);
        fr_table.row(fr_row);
    }
    fa_table.print();
    fr_table.print();
}

fn main() {
    let args = HarnessArgs::parse();
    let pairs = args.pairs(10_000);

    println!("Figure 5 / Tables S.7-S.12: false-accept comparison across pre-alignment filters\n");

    let read_lengths: Vec<usize> = if args.full {
        vec![100, 150, 250]
    } else {
        vec![100]
    };

    for read_len in read_lengths {
        let thresholds: Vec<u32> = (0..=(read_len as u32 / 10))
            .step_by((read_len / 50).max(1))
            .collect();
        compare_on(&low_edit_set(read_len, pairs), &thresholds);
        compare_on(&high_edit_set(read_len, pairs), &thresholds);
    }

    println!("Expected shape (paper): SneakySnake and MAGNET have the fewest false accepts, Shouji next,");
    println!("then GateKeeper-GPU, with GateKeeper-FPGA and SHD (identical) the least accurate — and only");
    println!("MAGNET ever produces false rejects.");
}
