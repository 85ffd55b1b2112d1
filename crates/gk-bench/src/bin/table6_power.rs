//! Table 6 (and Sup. Table S.27) — power consumption of a single GPU running
//! GateKeeper-GPU: min / max / average milliwatts for 100 bp and 250 bp datasets,
//! device- and host-encoded, in both setups.
//!
//! Usage: `cargo run --release -p gk-bench --bin table6_power [--pairs N]`

use gk_bench::datasets::throughput_set;
use gk_bench::table::{fmt, Table};
use gk_bench::{HarnessArgs, SETUP1, SETUP2};
use gk_core::config::{EncodingActor, FilterConfig};
use gk_core::gpu::GateKeeperGpu;

fn main() {
    let args = HarnessArgs::parse();
    let pairs = args.pairs(40_000);

    println!("Table 6 / S.27: power consumption of GateKeeper-GPU ({pairs} pairs per run)\n");

    for setup in [SETUP1, SETUP2] {
        let mut table = Table::new(vec![
            "Power (mW)",
            "Device-enc 100bp",
            "Device-enc 250bp",
            "Host-enc 100bp",
            "Host-enc 250bp",
        ])
        .with_title(format!("{} ({})", setup.name, setup.device().name));

        let mut reports = Vec::new();
        for encoding in [EncodingActor::Device, EncodingActor::Host] {
            for (read_len, e) in [(100usize, 4u32), (250, 10)] {
                let set = throughput_set(read_len, pairs);
                let gpu = GateKeeperGpu::new(
                    setup.device(),
                    FilterConfig::new(read_len, e).with_encoding(encoding),
                );
                let run = gpu.filter_set(&set);
                let power = run.per_device[0].power.clone();
                reports.push(power.expect("power report for a non-empty run"));
            }
        }

        for (label, pick) in [("min", 0usize), ("max", 1), ("average", 2)] {
            let value = |idx: usize| -> f64 {
                match pick {
                    0 => reports[idx].min_mw,
                    1 => reports[idx].max_mw,
                    _ => reports[idx].average_mw,
                }
            };
            table.row(vec![
                label.to_string(),
                fmt(value(0), 0),
                fmt(value(1), 0),
                fmt(value(2), 0),
                fmt(value(3), 0),
            ]);
        }
        table.print();
    }

    println!("Expected shape (paper): 250bp kernels draw more power than 100bp kernels; the encoding actor");
    println!("has a negligible effect; the Kepler board idles higher (~30 W) than the Pascal board (~9 W).");
}
