//! Multi-GPU scaling demo: filter the same pair set on 1–8 simulated GTX 1080 Ti
//! devices and watch the kernel-time throughput scale while the filter-time
//! throughput saturates (Figure 8 of the paper in miniature). One
//! `GateKeeperGpu` runs over each device list; a single device is the plain
//! case.
//!
//! Run with: `cargo run --release --example multi_gpu_throughput`

use gatekeeper_gpu::core::{EncodingActor, FilterConfig, GateKeeperGpu};
use gatekeeper_gpu::gpusim::DeviceSpec;
use gatekeeper_gpu::seq::datasets::DatasetProfile;

fn main() {
    let threshold = 2u32;
    let pairs = DatasetProfile::set3().generate(40_000, 11);
    println!(
        "Multi-GPU GateKeeper-GPU throughput on {} pairs (100bp, e = {threshold}, host-encoded)\n",
        pairs.len()
    );
    println!(
        "{:>7} {:>18} {:>18} {:>18}",
        "GPUs", "kernel time (s)", "kernel Mpairs/s", "filter Mpairs/s"
    );

    for devices in 1..=8usize {
        let filter = GateKeeperGpu::with_devices(
            vec![DeviceSpec::gtx_1080_ti(); devices],
            FilterConfig::new(100, threshold).with_encoding(EncodingActor::Host),
        );
        let run = filter.filter_set(&pairs);
        let kernel_mps = pairs.len() as f64 / run.kernel_seconds().max(1e-12) / 1e6;
        let filter_mps = pairs.len() as f64 / run.filter_seconds().max(1e-12) / 1e6;
        println!(
            "{devices:>7} {:>18.6} {:>18.1} {:>18.2}",
            run.kernel_seconds(),
            kernel_mps,
            filter_mps
        );
    }

    println!();
    println!(
        "Expected shape (paper, Figure 8): kernel-time throughput grows almost linearly with the"
    );
    println!(
        "device count; filter-time throughput grows much more slowly because host-side preparation"
    );
    println!("and the shared PCIe complex do not scale with the number of GPUs.");
}
