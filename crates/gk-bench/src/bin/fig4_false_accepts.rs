//! Figure 4 (and Sup. Tables S.2–S.6, Figures S.3–S.6) — accuracy of GateKeeper-GPU
//! with respect to the Edlib ground truth: accepted/rejected counts, false accepts,
//! false-accept rate and true-reject rate across error thresholds from 0 to 10% of
//! the read length. Undefined pairs are excluded, as in §5.1.1.
//!
//! Usage: `cargo run --release -p gk-bench --bin fig4_false_accepts [--pairs N]
//! [--full] [--mapper-profiles]`
//! (`--full` adds 150 bp and 250 bp; `--mapper-profiles` adds the Minimap2- and
//! BWA-MEM-style candidate sets of Figures S.5/S.6.)

use gk_bench::datasets::{accuracy_set, bwa_mem_set, minimap2_set};
use gk_bench::table::{fmt, fmt_count, Table};
use gk_bench::HarnessArgs;
use gk_filters::accuracy::{evaluate_with_truth, ground_truth_distances, UndefinedPolicy};
use gk_filters::GateKeeperFilter;
use gk_seq::pairs::PairSet;

fn report_for_set(set: &PairSet, thresholds: &[u32]) {
    let truth = ground_truth_distances(set);
    let mut table = Table::new(vec![
        "e",
        "Edlib accepted",
        "Edlib rejected",
        "GK-GPU accepted",
        "GK-GPU rejected",
        "False accepts",
        "False accept rate",
        "True reject rate",
        "False rejects",
    ])
    .with_title(format!(
        "{} ({} pairs, {}bp, undefined excluded)",
        set.name,
        set.len(),
        set.read_len
    ));

    for &e in thresholds {
        let filter = GateKeeperFilter::gpu(e);
        let report = evaluate_with_truth(&filter, set, &truth, UndefinedPolicy::Exclude);
        table.row(vec![
            e.to_string(),
            fmt_count(report.edlib_accepted as u64),
            fmt_count(report.edlib_rejected as u64),
            fmt_count(report.filter_accepted as u64),
            fmt_count(report.filter_rejected as u64),
            fmt_count(report.false_accepts as u64),
            format!("{}%", fmt(report.false_accept_rate() * 100.0, 2)),
            format!("{}%", fmt(report.true_reject_rate() * 100.0, 2)),
            fmt_count(report.false_rejects as u64),
        ]);
    }
    table.print();
}

fn main() {
    let args = HarnessArgs::parse();
    let pairs = args.pairs(20_000);

    println!("Figure 4 / Tables S.2-S.4: false-accept analysis of GateKeeper-GPU vs Edlib\n");

    let read_lengths: Vec<usize> = if args.full {
        vec![100, 150, 250]
    } else {
        vec![100]
    };
    for read_len in read_lengths {
        let set = accuracy_set(read_len, pairs);
        let thresholds: Vec<u32> = (0..=(read_len as u32 / 10))
            .step_by((read_len / 100).max(1))
            .collect();
        report_for_set(&set, &thresholds);
    }

    if args.mapper_profiles {
        println!("Figures S.5/S.6: accuracy on Minimap2- and BWA-MEM-style candidate sets\n");
        let thresholds: Vec<u32> = (0..=10).collect();
        report_for_set(&minimap2_set(pairs), &thresholds);
        report_for_set(&bwa_mem_set(pairs / 10 + 100), &thresholds);
    }

    println!("Expected shape (paper): zero false rejects everywhere; >90% true-reject rate below ~3% error");
    println!(
        "thresholds; the false-accept rate climbs with the threshold and with the read length."
    );
}
