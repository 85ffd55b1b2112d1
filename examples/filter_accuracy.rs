//! Compare the accuracy of all implemented pre-alignment filters against the exact
//! edit-distance ground truth, the way §5.1.2 / Figure 5 of the paper does.
//!
//! Run with: `cargo run --release --example filter_accuracy`

use gatekeeper_gpu::filters::accuracy::{
    evaluate_with_truth, ground_truth_distances, UndefinedPolicy,
};
use gatekeeper_gpu::filters::{
    GateKeeperFilter, MagnetFilter, PreAlignmentFilter, ShoujiFilter, SneakySnakeFilter,
};
use gatekeeper_gpu::seq::datasets::DatasetProfile;

fn main() {
    let threshold = 4u32;
    let pairs = DatasetProfile::set1().generate(10_000, 7);
    println!(
        "Filter accuracy on a {}-pair Set 1-style dataset (100bp, e = {threshold})\n",
        pairs.len()
    );

    let truth = ground_truth_distances(&pairs);
    let filters: Vec<Box<dyn PreAlignmentFilter>> = vec![
        Box::new(GateKeeperFilter::gpu(threshold)),
        Box::new(GateKeeperFilter::fpga(threshold)),
        Box::new(ShoujiFilter::new(threshold)),
        Box::new(MagnetFilter::new(threshold)),
        Box::new(SneakySnakeFilter::new(threshold)),
    ];

    println!(
        "{:<18} {:>14} {:>14} {:>14} {:>16}",
        "filter", "false accepts", "false rejects", "true rejects", "false accept %"
    );
    for filter in &filters {
        let report = evaluate_with_truth(
            filter.as_ref(),
            &pairs,
            &truth,
            UndefinedPolicy::CountAsAccepted,
        );
        println!(
            "{:<18} {:>14} {:>14} {:>14} {:>15.2}%",
            report.filter,
            report.false_accepts,
            report.false_rejects,
            report.true_rejects,
            report.false_accept_rate() * 100.0
        );
    }

    println!();
    println!(
        "Expected ordering (paper): SneakySnake and MAGNET are the most accurate, then Shouji,"
    );
    println!("then GateKeeper-GPU, with GateKeeper-FPGA/SHD last; only MAGNET ever false-rejects.");
}
