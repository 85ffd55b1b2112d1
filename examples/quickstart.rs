//! Quickstart: filter a handful of (read, candidate reference segment) pairs with
//! GateKeeper-GPU and compare its decisions against the exact edit distance.
//!
//! Run with: `cargo run --release --example quickstart`

use gatekeeper_gpu::align::edit_distance;
use gatekeeper_gpu::core::{EncodingActor, FilterConfig, GateKeeperGpu};
use gatekeeper_gpu::filters::PreAlignmentFilter;
use gatekeeper_gpu::seq::datasets::DatasetProfile;

fn main() {
    let read_len = 100;
    let threshold = 5;

    // A GateKeeper-GPU instance on the paper's Setup 1 device (GTX 1080 Ti model),
    // encoding the sequences on the host before the (simulated) transfer.
    let filter = GateKeeperGpu::with_default_device(
        FilterConfig::new(read_len, threshold).with_encoding(EncodingActor::Host),
    );

    // A small synthetic candidate set with the paper's "Set 3" edit profile.
    let pairs = DatasetProfile::set3().generate(5_000, 42);

    let run = filter.filter_set(&pairs);
    println!("GateKeeper-GPU quickstart");
    println!("-------------------------");
    println!("pairs filtered      : {}", pairs.len());
    println!("accepted            : {}", run.accepted());
    println!("rejected            : {}", run.rejected());
    println!("kernel time (model) : {:.6} s", run.kernel_seconds());
    println!("filter time (model) : {:.6} s", run.filter_seconds());
    println!(
        "achieved occupancy  : {:.1} %",
        run.per_device[0].achieved_occupancy * 100.0
    );

    // Spot-check a few decisions against the exact edit distance (Edlib-equivalent).
    let mut false_rejects = 0;
    for (pair, decision) in pairs.pairs.iter().zip(run.decisions.iter()).take(1_000) {
        let distance = edit_distance(&pair.read, &pair.reference);
        if distance <= threshold && !decision.accepted {
            false_rejects += 1;
        }
    }
    println!("false rejects in the first 1,000 pairs: {false_rejects} (the paper reports zero)");

    // The same filter also works pair-by-pair.
    let read = b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTAC";
    let decision = filter.filter_pair(read, read);
    println!(
        "identical 50bp pair: accepted = {}, estimated edits = {}",
        decision.accepted, decision.estimated_edits
    );

    // Stream-overlapped batch pipeline: cut the run into chunks and overlap the
    // encode+H2D of the next chunk with the kernel of the current one (§3.4).
    // Decisions are byte-identical; only the simulated timeline changes.
    let overlapped = GateKeeperGpu::with_default_device(
        FilterConfig::new(read_len, threshold)
            .with_encoding(EncodingActor::Host)
            .with_chunk_pairs(500)
            .with_overlap(true),
    )
    .filter_set(&pairs);
    assert_eq!(overlapped.decisions, run.decisions);
    let pipeline = &overlapped.per_device[0].pipeline;
    println!();
    println!(
        "triple-buffered pipeline ({} chunks of 500): serialized {:.6} s -> overlapped {:.6} s ({:.2}x)",
        pipeline.chunks,
        pipeline.serialized_seconds,
        pipeline.overlapped_seconds,
        pipeline.speedup()
    );
}
