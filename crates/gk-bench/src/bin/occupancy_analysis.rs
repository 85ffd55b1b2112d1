//! §5.4.1 — resource utilisation analysis: theoretical versus achieved warp
//! occupancy, warp execution efficiency and SM efficiency of the GateKeeper-GPU
//! kernel for 100 bp and 250 bp datasets on both setups, plus the occupancy
//! trade-off table for different register budgets and block sizes.
//!
//! Usage: `cargo run --release -p gk-bench --bin occupancy_analysis [--pairs N]`

use gk_bench::datasets::throughput_set;
use gk_bench::table::{fmt, Table};
use gk_bench::{HarnessArgs, SETUP1, SETUP2};
use gk_core::config::{EncodingActor, FilterConfig};
use gk_core::gpu::GateKeeperGpu;
use gk_gpusim::occupancy::{theoretical_occupancy, KernelResources};

fn main() {
    let args = HarnessArgs::parse();
    let pairs = args.pairs(40_000);

    println!("Section 5.4.1: resource utilisation of the GateKeeper-GPU kernel\n");

    // Part 1: the occupancy calculator view (why 1024-thread blocks at 50%).
    let device = SETUP1.device();
    let mut occupancy_table = Table::new(vec![
        "Registers/thread",
        "Threads/block",
        "Blocks/SM",
        "Active warps",
        "Theoretical occupancy",
    ])
    .with_title("CUDA occupancy calculator (GTX 1080 Ti)");
    for (regs, tpb) in [
        (32u32, 1024u32),
        (40, 1024),
        (48, 256),
        (48, 512),
        (48, 1024),
    ] {
        let result = theoretical_occupancy(
            &device,
            &KernelResources {
                registers_per_thread: regs,
                threads_per_block: tpb,
                shared_memory_per_block: 0,
            },
        );
        occupancy_table.row(vec![
            regs.to_string(),
            tpb.to_string(),
            result.blocks_per_sm.to_string(),
            result.active_warps_per_sm.to_string(),
            format!("{}%", fmt(result.occupancy * 100.0, 1)),
        ]);
    }
    occupancy_table.print();

    // Part 2: achieved metrics from profiled runs.
    let mut achieved = Table::new(vec![
        "Setup",
        "Read length",
        "Encoding",
        "Theoretical occ.",
        "Achieved occ.",
        "Warp exec. eff.",
        "SM efficiency",
    ])
    .with_title("Profiled kernel metrics");

    for setup in [SETUP1, SETUP2] {
        for read_len in [100usize, 250] {
            for encoding in [EncodingActor::Device, EncodingActor::Host] {
                let e = if read_len == 100 { 4 } else { 10 };
                let set = throughput_set(read_len, pairs);
                let gpu = GateKeeperGpu::new(
                    setup.device(),
                    FilterConfig::new(read_len, e).with_encoding(encoding),
                );
                let run = &gpu.filter_set(&set).per_device[0];
                achieved.row(vec![
                    setup.name.to_string(),
                    format!("{read_len}bp"),
                    match encoding {
                        EncodingActor::Device => "Device".into(),
                        EncodingActor::Host => "Host".into(),
                    },
                    format!("{}%", fmt(run.theoretical_occupancy * 100.0, 1)),
                    format!("{}%", fmt(run.achieved_occupancy * 100.0, 1)),
                    format!("{}%", fmt(run.warp_execution_efficiency * 100.0, 1)),
                    format!("{}%", fmt(run.sm_efficiency * 100.0, 1)),
                ]);
            }
        }
    }
    achieved.print();

    println!("Expected shape (paper): 48 registers per thread cap theoretical occupancy at 63% (256-thread");
    println!("blocks) or 50% (1024-thread blocks, the configuration used); achieved occupancy lands within a");
    println!("few points of 50%; SM efficiency stays above 95%; warp execution efficiency is lower at 100bp");
    println!("than at 250bp.");
}
