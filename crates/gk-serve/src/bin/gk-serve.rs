//! The `gk-serve` daemon: filter-as-a-service over localhost TCP.
//!
//! ```text
//! gk-serve [--addr 127.0.0.1:7844] [--backend cpu-simd|gpu-sim]
//!          [--threads N] [--devices N] [--topology private|shared|switch:N|nvlink]
//!          [--flush-ms MS] [--idle-us US] [--max-batch-pairs N]
//!          [--queue-pairs N] [--executors N] [--weight TENANT=W]...
//!          [--no-coalesce]
//! ```
//!
//! `--devices N` (default 1, at least 1) runs `gpu-sim` on N simulated GTX
//! 1080 Ti boards; with more than one, GateKeeper jobs shard across them with
//! the topology-aware scheduler over `--topology` (default `shared`).
//!
//! Clients speak the `gk_seq::frame` protocol (see `gk_serve::client::GkClient`
//! or `serve_bench --connect ADDR` in gk-bench).

use gk_core::backend::{BackendRegistry, CpuSimdBackend, GpuSimBackend};
use gk_gpusim::device::DeviceSpec;
use gk_gpusim::topology::TopologyKind;
use gk_serve::batcher::BatcherConfig;
use gk_serve::server::GkServer;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: gk-serve [--addr HOST:PORT] [--backend cpu-simd|gpu-sim] \
                     [--threads N] [--devices N] [--topology KIND] [--flush-ms MS] [--idle-us US] \
                     [--max-batch-pairs N] [--queue-pairs N] [--executors N] [--weight TENANT=W]... \
                     [--no-coalesce]";

/// Prints the usage to stderr and exits 2, the status of a usage error.
fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(value) = value else {
        eprintln!("gk-serve: {flag} needs a value");
        usage();
    };
    match value.parse() {
        Ok(parsed) => parsed,
        Err(_) => {
            eprintln!("gk-serve: could not parse {flag} value {value:?}");
            usage();
        }
    }
}

fn main() {
    let mut addr = "127.0.0.1:7844".to_string();
    let mut backend_name = "gpu-sim".to_string();
    let mut threads = 0usize; // 0 = pool default (RAYON_NUM_THREADS / cores)
    let mut devices = 1usize;
    let mut topology = TopologyKind::SharedRoot;
    let mut config = BatcherConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse("--addr", args.next()),
            "--backend" => backend_name = parse("--backend", args.next()),
            "--threads" => threads = parse("--threads", args.next()),
            "--devices" => devices = parse("--devices", args.next()),
            "--topology" => topology = parse("--topology", args.next()),
            "--flush-ms" => {
                let ms: u64 = parse("--flush-ms", args.next());
                config = config.with_flush_interval(Duration::from_millis(ms));
            }
            "--idle-us" => {
                let us: u64 = parse("--idle-us", args.next());
                config = config.with_idle_coalesce(Duration::from_micros(us));
            }
            "--max-batch-pairs" => {
                config = config.with_max_batch_pairs(parse("--max-batch-pairs", args.next()));
            }
            "--queue-pairs" => {
                config = config.with_queue_capacity_pairs(parse("--queue-pairs", args.next()));
            }
            "--executors" => config = config.with_executors(parse("--executors", args.next())),
            "--weight" => {
                let spec: String = parse("--weight", args.next());
                let Some((tenant, weight)) = spec.split_once('=') else {
                    eprintln!("gk-serve: --weight expects TENANT=W, got {spec:?}");
                    usage();
                };
                let (Ok(tenant), Ok(weight)) = (tenant.parse(), weight.parse()) else {
                    eprintln!("gk-serve: could not parse --weight {spec:?}");
                    usage();
                };
                config = config.with_tenant_weight(tenant, weight);
            }
            "--no-coalesce" => config = config.with_coalesce(false),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("gk-serve: unknown flag {other:?}");
                usage();
            }
        }
    }

    if devices == 0 {
        eprintln!("gk-serve: --devices needs at least one device");
        usage();
    }

    let mut registry = BackendRegistry::new();
    registry.register(Arc::new(CpuSimdBackend::new(threads)));
    registry.register(Arc::new(GpuSimBackend::with_devices(
        vec![DeviceSpec::gtx_1080_ti(); devices],
        topology,
    )));
    let Some(backend) = registry.get(&backend_name) else {
        eprintln!(
            "gk-serve: unknown backend {backend_name:?} (available: {:?})",
            registry.names()
        );
        std::process::exit(2);
    };

    let coalesce = if config.coalesce { "on" } else { "off" };
    let flush_ms = config.flush_interval.as_secs_f64() * 1e3;
    let max_batch = config.max_batch_pairs;
    let server = match GkServer::start(&addr, backend, config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("gk-serve: could not bind {addr}: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "gk-serve listening on {} (backend {backend_name}, coalesce {coalesce}, \
         flush {flush_ms:.1} ms, max batch {max_batch} pairs)",
        server.local_addr()
    );
    // Serve until killed; connection threads do all the work.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
