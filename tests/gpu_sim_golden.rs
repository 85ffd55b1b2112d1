//! Golden pins for the simulated GPU pipeline: every simulated number a
//! filtering run reports, folded to one digest per configuration, so a
//! refactor of the front end, the scheduler or the run types shows up here as
//! a changed constant instead of a silently moved figure.
//!
//! Each configuration folds the `f64::to_bits` of every simulated field:
//! per-device timing components, batch count, memory statistics, occupancy
//! and efficiency, power, pipeline report and chunk loads; the run's combined
//! kernel time and memory statistics; both interconnect replays; and the
//! decision digest. The one measured value, `TimingBreakdown::host_wall_seconds`,
//! is skipped because it follows the host clock. The combined filter time is
//! pinned in its own column, next to the digest of everything else.
//!
//! The matrix: one device (GTX 1080 Ti, Tesla K20X) × host/device encode ×
//! overlap off/on × auto/137-pair chunks, plus 2, 4 and 8 GTX 1080 Ti boards
//! × naive/aware scheduler × private/shared-root links.

use gatekeeper_gpu::core::config::EncodingActor;
use gatekeeper_gpu::core::{FilterConfig, FilterRun, GateKeeperGpu};
use gatekeeper_gpu::filters::decision_digest;
use gatekeeper_gpu::gpusim::device::DeviceSpec;
use gatekeeper_gpu::gpusim::topology::{ContentionRun, TopologyKind};
use gatekeeper_gpu::seq::datasets::DatasetProfile;
use gatekeeper_gpu::seq::pairs::PairSet;

/// Pairs per run: enough that the aware scheduler's sharer-sized chunks
/// differ from its span-sized ones at four and eight shared-root devices.
const PAIRS: usize = 3_000;

/// (digest of every field but the combined filter time, combined filter time
/// bits), in `matrix()` order.
const GOLDEN: [(u64, u64); 28] = [
    (0x193788d91fd7ee3c, 0x3f704af2489ace91), // 1x gtx-1080-ti host serial auto
    (0xef254de3684ee684, 0x3f7204b5a9506d7a), // 1x gtx-1080-ti host serial 137
    (0x91ff1fc9e317dc30, 0x3f704af2489ace91), // 1x gtx-1080-ti host overlap auto
    (0x84a9a6249cb2ac31, 0x3f70f5e80664b035), // 1x gtx-1080-ti host overlap 137
    (0x261747d28f84022b, 0x3f50a94b27f3a8f4), // 1x gtx-1080-ti device serial auto
    (0x2ddc23417afda5b8, 0x3f570ff4885c7eda), // 1x gtx-1080-ti device serial 137
    (0xebd12e3d0786ed64, 0x3f50a94b27f3a8f4), // 1x gtx-1080-ti device overlap auto
    (0xbf13aa55ab9de20d, 0x3f52b231144090cd), // 1x gtx-1080-ti device overlap 137
    (0x3dd184ff30ec03fb, 0x3f71073040e4d02f), // 1x tesla-k20x host serial auto
    (0xb7df98886103a91c, 0x3f76eabdb0b448c8), // 1x tesla-k20x host serial 137
    (0x8a08a6f52c724cbd, 0x3f71073040e4d02f), // 1x tesla-k20x host overlap auto
    (0x4f7dfca1a56b1f67, 0x3f7049893b0ee433), // 1x tesla-k20x host overlap 137
    (0x8574b3f1a5ac8d31, 0x3f56494a6b73548c), // 1x tesla-k20x device serial auto
    (0xf2cb3e0e78e6c571, 0x3f6575ba9852b29d), // 1x tesla-k20x device serial 137
    (0x05d91afb2c3f983d, 0x3f56494a6b73548c), // 1x tesla-k20x device overlap auto
    (0x339c51f59642bb61, 0x3f5cd8f8565f3329), // 1x tesla-k20x device overlap 137
    (0xd3307007d28ab7ed, 0x3f4fc66a4a461776), // 2x naive private
    (0x5cd79997d5573244, 0x3f4fc66a4a461776), // 2x naive shared
    (0xee9c8d17c40b8abc, 0x3f4fc66a4a461776), // 2x aware private
    (0xe6b35ac225d45d05, 0x3f503af1de1585f8), // 2x aware shared
    (0x8b137f7f391d53ee, 0x3f4ef9de7bf4b75d), // 4x naive private
    (0xfa65deabc1a261cb, 0x3f4ef9de7bf4b75d), // 4x naive shared
    (0x511880baa96c4447, 0x3f4ef9de7bf4b75d), // 4x aware private
    (0xec00e75e1189c822, 0x3f4ffa6bcb0de786), // 4x aware shared
    (0x7762d8c54c168bb6, 0x3f4e6668df3041de), // 8x naive private
    (0x3a62effab78bdae0, 0x3f4e6668df3041de), // 8x naive shared
    (0xd182d72ca573484b, 0x3f4e6668df3041de), // 8x aware private
    (0x96452437d2f311e4, 0x3f4f11c3e9ed438a), // 8x aware shared
];

/// FNV-1a over the little-endian bytes of each folded word.
struct Fold(u64);

impl Fold {
    fn new() -> Fold {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    fn bool(&mut self, value: bool) {
        self.u64(u64::from(value));
    }

    fn str(&mut self, value: &str) {
        self.usize(value.len());
        for byte in value.bytes() {
            self.u64(u64::from(byte));
        }
    }

    fn memory(&mut self, stats: &gatekeeper_gpu::gpusim::memory::MemoryStats) {
        self.u64(stats.bytes_to_device);
        self.u64(stats.bytes_to_host);
        self.u64(stats.page_faults);
        self.u64(stats.prefetched_pages);
        self.f64(stats.transfer_seconds);
    }

    fn replay(&mut self, run: &ContentionRun) {
        self.f64(run.makespan_seconds);
        self.f64(run.serialized_seconds);
        self.usize(run.per_device_finish_seconds.len());
        for &seconds in &run.per_device_finish_seconds {
            self.f64(seconds);
        }
        self.usize(run.per_device_link_wait_seconds.len());
        for &seconds in &run.per_device_link_wait_seconds {
            self.f64(seconds);
        }
        self.usize(run.links.len());
        for link in &run.links {
            self.str(&link.name);
            self.f64(link.bandwidth_gb_per_s);
            self.usize(link.devices);
            self.u64(link.h2d_bytes);
            self.u64(link.d2h_bytes);
            self.f64(link.busy_seconds);
            self.f64(link.wait_seconds);
            self.f64(link.utilization);
        }
        self.u64(run.anomalies);
    }
}

/// Digest of every simulated field of `run` except its combined filter time.
fn fields_digest(run: &FilterRun) -> u64 {
    let mut fold = Fold::new();
    fold.u64(decision_digest(&run.decisions));
    fold.f64(run.kernel_seconds());
    fold.memory(&run.memory_stats);
    fold.usize(run.per_device.len());
    for device in &run.per_device {
        let timing = &device.timing;
        fold.f64(timing.host_prep_seconds);
        fold.f64(timing.encode_seconds);
        fold.f64(timing.encode_device_seconds);
        fold.f64(timing.transfer_seconds);
        fold.f64(timing.kernel_seconds);
        fold.f64(timing.readback_seconds);
        fold.bool(timing.overlapped_seconds.is_some());
        fold.f64(timing.overlapped_seconds.unwrap_or(0.0));
        fold.usize(device.batches);
        fold.memory(&device.memory_stats);
        fold.f64(device.achieved_occupancy);
        fold.f64(device.theoretical_occupancy);
        fold.f64(device.warp_execution_efficiency);
        fold.f64(device.sm_efficiency);
        fold.bool(device.power.is_some());
        if let Some(power) = &device.power {
            fold.f64(power.min_mw);
            fold.f64(power.max_mw);
            fold.f64(power.average_mw);
            fold.usize(power.samples);
        }
        let pipeline = &device.pipeline;
        fold.usize(pipeline.chunks);
        fold.usize(pipeline.chunk_pairs);
        fold.bool(pipeline.overlap);
        fold.f64(pipeline.overlapped_seconds);
        fold.f64(pipeline.serialized_seconds);
        fold.bool(pipeline.device_encode);
        fold.u64(pipeline.timing_anomalies);
        fold.usize(device.chunk_loads.len());
        for load in &device.chunk_loads {
            fold.f64(load.host_seconds);
            fold.u64(load.h2d_bytes[0]);
            fold.u64(load.h2d_bytes[1]);
            fold.f64(load.kernel_seconds);
            fold.u64(load.d2h_bytes);
        }
    }
    let interconnect = &run.interconnect;
    fold.str(&interconnect.topology);
    fold.bool(interconnect.aware);
    fold.replay(&interconnect.contended);
    fold.replay(&interconnect.uncontended);
    fold.0
}

fn run(devices: Vec<DeviceSpec>, config: FilterConfig, set: &PairSet) -> FilterRun {
    GateKeeperGpu::with_devices(devices, config).filter_set(set)
}

/// Every configuration of the matrix, in `GOLDEN` order.
fn matrix() -> Vec<(String, Vec<DeviceSpec>, FilterConfig)> {
    let mut configs = Vec::new();
    for (name, device) in [
        ("gtx-1080-ti", DeviceSpec::gtx_1080_ti()),
        ("tesla-k20x", DeviceSpec::tesla_k20x()),
    ] {
        for (encode, encoding) in [
            ("host", EncodingActor::Host),
            ("device", EncodingActor::Device),
        ] {
            for (mode, overlap) in [("serial", false), ("overlap", true)] {
                for (chunk, chunk_pairs) in [("auto", 0usize), ("137", 137)] {
                    configs.push((
                        format!("1x {name} {encode} {mode} {chunk}"),
                        vec![device.clone()],
                        FilterConfig::new(100, 2)
                            .with_encoding(encoding)
                            .with_overlap(overlap)
                            .with_chunk_pairs(chunk_pairs),
                    ));
                }
            }
        }
    }
    for count in [2usize, 4, 8] {
        for (scheduler, aware) in [("naive", false), ("aware", true)] {
            for (wiring, topology) in [
                ("private", TopologyKind::Independent),
                ("shared", TopologyKind::SharedRoot),
            ] {
                configs.push((
                    format!("{count}x {scheduler} {wiring}"),
                    vec![DeviceSpec::gtx_1080_ti(); count],
                    FilterConfig::new(100, 2)
                        .with_topology(topology)
                        .with_topology_aware(aware),
                ));
            }
        }
    }
    configs
}

#[test]
fn simulated_numbers_match_their_golden_digests() {
    let set = DatasetProfile::set3().generate(PAIRS, 11);
    let configs = matrix();
    assert_eq!(configs.len(), GOLDEN.len());
    let mut mismatches = Vec::new();
    for ((label, devices, config), &golden) in configs.into_iter().zip(GOLDEN.iter()) {
        let run = run(devices, config, &set);
        let observed = (fields_digest(&run), run.filter_seconds().to_bits());
        if observed != golden {
            mismatches.push(format!(
                "    ({:#018x}, {:#018x}), // {label}",
                observed.0, observed.1
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "simulated numbers moved; observed rows:\n{}",
        mismatches.join("\n")
    );
}

/// `|a − b|` relative to the larger magnitude.
fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

#[test]
fn one_device_pipeline_clock_agrees_with_its_replays() {
    // A lone device is timed twice on the same pipeline clock: chunk by chunk
    // as it runs, and again by the interconnect replay of its chunk loads.
    // The two add the same stage durations in a different grouping (the run
    // charges prep + prefetch as one upload, the replay as prep plus two
    // transfers), so they agree to rounding, not always bit for bit; a drift
    // in the slot rule between the two would break this by far more.
    let set = DatasetProfile::set3().generate(PAIRS, 11);
    let one_device = matrix()
        .into_iter()
        .filter(|(_, devices, _)| devices.len() == 1);
    let mut checked = 0;
    for (label, devices, config) in one_device {
        let run = run(devices, config, &set);
        let pipeline = &run.per_device[0].pipeline;
        let interconnect = &run.interconnect;
        for (what, replayed) in [
            ("uncontended", interconnect.uncontended.makespan_seconds),
            ("contended", interconnect.contended.makespan_seconds),
        ] {
            let gap = relative_gap(pipeline.overlapped_seconds, replayed);
            assert!(
                gap <= 1e-14,
                "{label}: makespan {} vs {what} replay {replayed} (relative gap {gap:e})",
                pipeline.overlapped_seconds
            );
        }
        let gap = relative_gap(
            pipeline.serialized_seconds,
            interconnect.uncontended.serialized_seconds,
        );
        assert!(
            gap <= 1e-14,
            "{label}: serialized {} vs replay {} (relative gap {gap:e})",
            pipeline.serialized_seconds,
            interconnect.uncontended.serialized_seconds
        );
        checked += 1;
    }
    assert_eq!(checked, 16);
}
