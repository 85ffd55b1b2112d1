//! Figure 8 (and Sup. Figure S.15, Tables S.21–S.23) — multi-GPU filtering
//! throughput of GateKeeper-GPU in Setup 1 as the number of devices grows from 1 to
//! 8, by kernel time and filter time, in both encoding modes — plus the
//! interconnect sweep the paper's free-overlap assumption hides: the same 1–8
//! device scaling replayed on a shared host link, naive round-robin sharding
//! against the topology-aware scheduler, contention on and off.
//!
//! Hard-asserted invariants (the binary aborts if any fails):
//! * decisions are digest-identical across naive/aware scheduling and
//!   contention on/off, at every device count;
//! * the private-link run's contended replay matches the shared run's
//!   uncontended twin bit-for-bit (turning contention off reproduces the
//!   paper's independent-link numbers exactly);
//! * on the shared-root topology at the full device count, topology-aware
//!   scheduling strictly beats the naive sharder's makespan.
//!
//! Emits a Markdown comparison table between `<!-- multi-gpu-topology:begin/end -->`
//! markers (lifted into the CI job summary) and machine-readable
//! `BENCH_multi_gpu.json` in the working directory.
//!
//! Usage: `cargo run --release -p gk-bench --bin fig8_multi_gpu
//! [--pairs N] [--full] [--topology shared|switch[:N]|nvlink] [--aware]`
//! (`--full` adds the 150 bp / e = 4 and 250 bp / e = 8 panels of Figure S.15;
//! `--topology` picks the contention-sweep wiring, default the shared root
//! complex).

use gk_bench::datasets::throughput_set;
use gk_bench::runner::{gpu_throughput, multi_gpu_run};
use gk_bench::table::{fmt, Table};
use gk_bench::{HarnessArgs, SETUP1};
use gk_core::config::EncodingActor;
use gk_core::gpu::FilterRun;
use gk_gpusim::topology::TopologyKind;

/// FNV-1a-style digest over the decision stream (the cross-combo identity
/// check).
fn digest(run: &FilterRun) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for d in &run.decisions {
        hash = hash
            .wrapping_mul(1_099_511_628_211)
            .wrapping_add((u64::from(d.accepted) << 1) | u64::from(d.undefined));
    }
    hash
}

/// One device count of the contention sweep: the shared-topology runs under
/// both schedulers, plus their private-link twins (contention off).
struct SweepRow {
    devices: usize,
    naive: FilterRun,
    aware: FilterRun,
    naive_private: FilterRun,
    aware_private: FilterRun,
}

fn ms(seconds: f64) -> String {
    fmt(seconds * 1e3, 3)
}

/// Hand-rolled JSON for one sweep point (the workspace vendors no JSON
/// serializer; `f64` `Display` never emits exponents, so the output stays
/// strictly conformant).
fn json_point(devices: usize, scheduler: &str, pairs: usize, run: &FilterRun) -> String {
    let links = run
        .interconnect
        .links()
        .iter()
        .map(|l| {
            format!(
                "{{\"name\":\"{}\",\"bandwidth_gb_per_s\":{},\"devices\":{},\
                 \"h2d_bytes\":{},\"d2h_bytes\":{},\"busy_seconds\":{},\
                 \"wait_seconds\":{},\"utilization\":{}}}",
                l.name,
                l.bandwidth_gb_per_s,
                l.devices,
                l.h2d_bytes,
                l.d2h_bytes,
                l.busy_seconds,
                l.wait_seconds,
                l.utilization
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "    {{\"devices\":{},\"scheduler\":\"{}\",\"topology\":\"{}\",\
         \"contention\":{},\"pairs_per_second\":{},\"makespan_seconds\":{},\
         \"uncontended_seconds\":{},\"penalty_seconds\":{},\"slowdown\":{},\
         \"link_wait_seconds\":{},\"decisions_digest\":\"{:#018x}\",\
         \"links\":[{}]}}",
        devices,
        scheduler,
        run.interconnect.topology,
        run.interconnect.contention_penalty_seconds() > 0.0,
        gk_core::timing::pairs_per_second(pairs, run.interconnect.makespan_seconds()),
        run.interconnect.makespan_seconds(),
        run.interconnect.uncontended.makespan_seconds,
        run.interconnect.contention_penalty_seconds(),
        run.interconnect.contention_slowdown(),
        run.interconnect.link_wait_seconds(),
        digest(run),
        links
    )
}

fn contention_sweep(kind: TopologyKind, pairs: usize) -> Vec<SweepRow> {
    let set = throughput_set(100, pairs);
    let e = 2u32;
    let mut rows = Vec::new();
    for devices in 1..=SETUP1.max_devices {
        let run = |topology, aware| {
            multi_gpu_run(
                &SETUP1,
                devices,
                &set,
                e,
                EncodingActor::Device,
                topology,
                aware,
            )
        };
        let row = SweepRow {
            devices,
            naive: run(kind, false),
            aware: run(kind, true),
            naive_private: run(TopologyKind::Independent, false),
            aware_private: run(TopologyKind::Independent, true),
        };

        // Decisions must not depend on the scheduler or the wiring.
        let reference = digest(&row.naive);
        for (name, run) in [
            ("aware", &row.aware),
            ("naive/private", &row.naive_private),
            ("aware/private", &row.aware_private),
        ] {
            assert_eq!(
                digest(run),
                reference,
                "decision digest diverged for {name} at {devices} device(s)"
            );
        }

        // Every variant's every device must report a clean simulated
        // timeline; a clamped duration would silently turn the contention
        // numbers below into lower bounds. (`multi_gpu_run` already gates
        // this; repeating it here keeps the smoke self-contained.)
        for (name, run) in [
            ("naive", &row.naive),
            ("aware", &row.aware),
            ("naive/private", &row.naive_private),
            ("aware/private", &row.aware_private),
        ] {
            for (device, device_run) in run.per_device.iter().enumerate() {
                gk_bench::runner::assert_no_timing_anomalies(
                    &format!("fig8 {name} {devices}dev device {device}"),
                    &device_run.pipeline,
                );
            }
        }

        // Contention off reproduces the private-link numbers: on PCIe-rate
        // wirings (shared root, switch) the naive run's uncontended twin IS
        // the private-link replay, bit-for-bit. NVLink links run at the
        // fabric rate instead of the PCIe rate, so there the twin must be at
        // least as fast as the private PCIe replay rather than equal to it.
        let twin = row.naive.interconnect.uncontended.makespan_seconds;
        let private = row.naive_private.interconnect.contended.makespan_seconds;
        if kind == TopologyKind::NvLink {
            assert!(
                twin <= private,
                "nvlink uncontended twin slower than the private PCIe replay \
                 at {devices} device(s) ({twin} s > {private} s)"
            );
        } else {
            assert_eq!(
                twin, private,
                "uncontended twin diverged from the private-link run at {devices} device(s)"
            );
        }

        rows.push(row);
    }

    // The acceptance gate: on a shared-link complex at the full device count,
    // aware placement strictly improves the contended makespan.
    if kind == TopologyKind::SharedRoot {
        let last = rows.last().expect("sweep is non-empty");
        assert!(
            last.aware.interconnect.makespan_seconds() < last.naive.interconnect.makespan_seconds(),
            "topology-aware scheduling must strictly beat naive on {} shared-root devices \
             (aware {} s >= naive {} s)",
            last.devices,
            last.aware.interconnect.makespan_seconds(),
            last.naive.interconnect.makespan_seconds()
        );
    }
    rows
}

fn print_sweep(kind: TopologyKind, pairs: usize, rows: &[SweepRow]) {
    let label = kind.label();
    let mut table = Table::new(vec![
        "# GPUs",
        "naive ms",
        "aware ms",
        "aware gain",
        "naive slow-x",
        "aware slow-x",
        "naive wait ms",
        "aware wait ms",
    ])
    .with_title(format!(
        "Interconnect sweep — `{label}` topology, device encode, contended makespan"
    ));
    for row in rows {
        let naive = &row.naive.interconnect;
        let aware = &row.aware.interconnect;
        table.row(vec![
            row.devices.to_string(),
            ms(naive.makespan_seconds()),
            ms(aware.makespan_seconds()),
            format!(
                "{}x",
                fmt(naive.makespan_seconds() / aware.makespan_seconds(), 2)
            ),
            fmt(naive.contention_slowdown(), 2),
            fmt(aware.contention_slowdown(), 2),
            ms(naive.link_wait_seconds()),
            ms(aware.link_wait_seconds()),
        ]);
    }
    table.print();

    // Markdown block for the CI job summary (lifted verbatim by the workflow).
    println!("<!-- multi-gpu-topology:begin -->");
    println!(
        "### `fig8_multi_gpu` interconnect sweep — `{label}` topology, device encode, {pairs} pairs"
    );
    println!();
    println!(
        "| GPUs | naive makespan ms | aware makespan ms | aware gain | naive contention x | \
         aware contention x | naive link wait ms | aware link wait ms | peak link util |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for row in rows {
        let naive = &row.naive.interconnect;
        let aware = &row.aware.interconnect;
        let peak_util = naive
            .links()
            .iter()
            .map(|l| l.utilization)
            .fold(0.0, f64::max);
        println!(
            "| {} | {} | {} | {}x | {} | {} | {} | {} | {}% |",
            row.devices,
            ms(naive.makespan_seconds()),
            ms(aware.makespan_seconds()),
            fmt(naive.makespan_seconds() / aware.makespan_seconds(), 2),
            fmt(naive.contention_slowdown(), 2),
            fmt(aware.contention_slowdown(), 2),
            ms(naive.link_wait_seconds()),
            ms(aware.link_wait_seconds()),
            fmt(peak_util * 100.0, 1),
        );
    }
    println!();
    let last = rows.last().expect("sweep is non-empty");
    println!(
        "Decisions digest-identical across naive/aware and contention on/off: **yes** \
         (digest `{:#018x}` at {} GPUs).",
        digest(&last.naive),
        last.devices
    );
    println!("<!-- multi-gpu-topology:end -->");
    println!();
}

fn write_bench_json(kind: TopologyKind, pairs: usize, rows: &[SweepRow]) {
    let mut points = Vec::new();
    for row in rows {
        points.push(json_point(row.devices, "naive", pairs, &row.naive));
        points.push(json_point(row.devices, "aware", pairs, &row.aware));
        points.push(json_point(row.devices, "naive", pairs, &row.naive_private));
        points.push(json_point(row.devices, "aware", pairs, &row.aware_private));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"fig8_multi_gpu\",\n  \"setup\": \"{}\",\n  \
         \"pairs\": {},\n  \"read_len\": 100,\n  \"threshold\": 2,\n  \
         \"encoding\": \"device\",\n  \"sweep_topology\": \"{}\",\n  \"points\": [\n{}\n  ]\n}}\n",
        SETUP1.name,
        pairs,
        kind.label(),
        points.join(",\n")
    );
    match std::fs::write("BENCH_multi_gpu.json", &json) {
        Ok(()) => println!(
            "wrote BENCH_multi_gpu.json ({} sweep points)",
            rows.len() * 4
        ),
        Err(err) => eprintln!("warning: could not write BENCH_multi_gpu.json: {err}"),
    }
    println!();
}

fn main() {
    let args = HarnessArgs::parse();
    let pairs = args.pairs(40_000);

    println!("Figure 8 / Tables S.21-S.23: multi-GPU filtering throughput in Setup 1");
    println!("(millions of filtrations per second, {pairs} pairs per point)\n");

    let panels: Vec<(usize, u32)> = if args.full {
        vec![(100, 2), (150, 4), (250, 8)]
    } else {
        vec![(100, 2)]
    };

    for (read_len, e) in panels {
        let set = throughput_set(read_len, pairs);
        let mut table = Table::new(vec![
            "# GPUs",
            "Device-enc kernel",
            "Host-enc kernel",
            "Device-enc filter",
            "Host-enc filter",
        ])
        .with_title(format!("{read_len}bp, e = {e}"));
        for devices in 1..=SETUP1.max_devices {
            let device_enc = gpu_throughput(&SETUP1, devices, &set, e, EncodingActor::Device);
            let host_enc = gpu_throughput(&SETUP1, devices, &set, e, EncodingActor::Host);
            table.row(vec![
                devices.to_string(),
                fmt(device_enc.kernel_mps, 0),
                fmt(host_enc.kernel_mps, 0),
                fmt(device_enc.filter_mps, 1),
                fmt(host_enc.filter_mps, 1),
            ]);
        }
        table.print();
    }

    println!("Expected shape (paper): kernel-time throughput scales almost linearly with the device count");
    println!("(fastest in host-encoded mode), while filter-time throughput grows far more slowly because the");
    println!("host-side preparation does not parallelise across devices.\n");

    // The interconnect sweep. `--topology private` would make every assert
    // trivially vacuous, so the default (and the private spelling) maps to the
    // shared root complex — the wiring the paper's assumption is furthest from.
    let kind = match args.topology() {
        TopologyKind::Independent => TopologyKind::SharedRoot,
        other => other,
    };
    let rows = contention_sweep(kind, pairs);
    print_sweep(kind, pairs, &rows);
    write_bench_json(kind, pairs, &rows);

    println!("Contention sweep invariants held: decisions digest-identical across naive/aware and");
    if kind == TopologyKind::NvLink {
        println!("contention on/off; the uncontended fabric twin ran at least as fast as the");
        println!("private PCIe replay;");
    } else {
        println!(
            "contention on/off; the uncontended twin reproduced the private-link replay \
             bit-for-bit;"
        );
    }
    if kind == TopologyKind::SharedRoot {
        println!(
            "topology-aware scheduling strictly beat the naive sharder at {} shared-root devices.",
            SETUP1.max_devices
        );
    }
}
