//! Table 4 — theoretical versus achieved speedup of the verification (DP) stage
//! when GateKeeper-GPU removes candidate mappings.
//!
//! The theoretical speedup assumes verification time is directly proportional to
//! the number of pairs entering it (a 90% reduction would give 10×); the achieved
//! speedup is what the measured verification time actually shows. It is lower
//! because verification stops as soon as a pair can no longer be within the
//! threshold: the pairs the filter removes, far above it, are the ones
//! verification rejects most cheaply, so removing them saves less time than their
//! count suggests.
//!
//! Usage: `cargo run --release -p gk-bench --bin table4_verification_speedup [--reads N] [--genome N]`

use gk_bench::datasets::{whole_genome_reads, whole_genome_reference};
use gk_bench::runner::speedup;
use gk_bench::table::{fmt, Table};
use gk_bench::{HarnessArgs, SETUP1, SETUP2};
use gk_core::config::{EncodingActor, FilterConfig};
use gk_core::gpu::GateKeeperGpu;
use gk_mapper::pipeline::{MapperConfig, PreFilter, ReadMapper};
use gk_seq::simulate::ErrorProfile;

fn main() {
    let args = HarnessArgs::parse();
    let genome = args.genome(400_000);
    let reads = args.reads(4_000);
    let e = 5u32;

    println!("Table 4: theoretical vs achieved speedup in verification (100bp, e = {e})");
    println!("(synthetic chromosome of {genome} bp, {reads} reads)\n");

    let reference = whole_genome_reference(genome);
    let read_set = whole_genome_reads(&reference, 100, reads, ErrorProfile::illumina());
    let mapper = ReadMapper::new(reference, MapperConfig::new(e));

    let unfiltered = mapper.map_reads(&read_set, &PreFilter::None);
    let dp_baseline = unfiltered.stats.verification_seconds;

    let mut table = Table::new(vec![
        "mrFAST w/",
        "Setup",
        "Reduction",
        "Theoretical DP speedup",
        "Achieved DP time (s)",
        "Achieved DP speedup",
    ]);
    table.row(vec![
        "No Filter".into(),
        "-".into(),
        "NA".into(),
        "NA".into(),
        fmt(dp_baseline, 3),
        "NA".into(),
    ]);

    for setup in [SETUP1, SETUP2] {
        for encoding in [EncodingActor::Device, EncodingActor::Host] {
            let gpu = GateKeeperGpu::new(
                setup.device(),
                FilterConfig::new(100, e).with_encoding(encoding),
            );
            let filtered = mapper.map_reads(&read_set, &PreFilter::Gpu(gpu));
            let stats = filtered.stats;
            let survived = stats.verification_pairs as f64 / stats.candidate_pairs.max(1) as f64;
            let theoretical = if survived > 0.0 { 1.0 / survived } else { 0.0 };
            let achieved = speedup(dp_baseline, stats.verification_seconds);
            let label = match encoding {
                EncodingActor::Device => "GateKeeper-GPU (d)",
                EncodingActor::Host => "GateKeeper-GPU (h)",
            };
            table.row(vec![
                label.into(),
                setup.name.into(),
                format!("{:.0}%", stats.reduction_fraction() * 100.0),
                format!("{theoretical:.1}x"),
                fmt(stats.verification_seconds, 3),
                format!("{achieved:.1}x"),
            ]);
        }
    }

    table.print();
    println!("Expected shape (paper): ~90% reduction gives a ~10.6x theoretical speedup but a 3.6-3.8x achieved");
    println!(
        "speedup, because the pairs the filter removes are the ones verification rejects most cheaply."
    );
}
