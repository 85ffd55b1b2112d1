//! Property suite for the interconnect topology model and the multi-GPU
//! schedulers: for **any** wiring (private links, a shared root complex,
//! switch fan-outs, NVLink, arbitrary custom link graphs), device mix and
//! ragged total, the shard plan must partition `0..total` exactly — no gaps,
//! no overlaps — under both the naive round-robin sharder and the
//! topology-aware scheduler; decisions must never depend on the wiring or the
//! scheduler; and turning contention off (the private-link twin) must
//! reproduce the pre-topology independent-link numbers bit-for-bit.

use gatekeeper_gpu::core::config::EncodingActor;
use gatekeeper_gpu::core::{FilterConfig, GateKeeperGpu};
use gatekeeper_gpu::gpusim::device::DeviceSpec;
use gatekeeper_gpu::gpusim::topology::{weighted_partition, LinkSpec, Topology, TopologyKind};
use gatekeeper_gpu::seq::datasets::DatasetProfile;
use proptest::prelude::*;

/// Checks that `ranges` (in any order) tile `0..total` exactly.
fn assert_exact_partition(mut ranges: Vec<(usize, usize)>, total: usize) {
    ranges.sort_unstable();
    let mut cursor = 0usize;
    for (start, end) in ranges {
        assert_eq!(start, cursor, "gap or overlap at {cursor}");
        assert!(end > start, "empty range should not be emitted");
        cursor = end;
    }
    assert_eq!(cursor, total);
}

/// A mixed device list driven by `seed`: bit *i* picks Setup 1's GTX 1080 Ti
/// or Setup 2's Tesla K20X for device *i*.
fn device_mix(count: usize, seed: usize) -> Vec<DeviceSpec> {
    (0..count)
        .map(|i| {
            if (seed >> i) & 1 == 0 {
                DeviceSpec::gtx_1080_ti()
            } else {
                DeviceSpec::tesla_k20x()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any built-in topology kind, heterogeneous device list, ragged total and
    /// chunk knob: both schedulers partition `0..total` exactly.
    #[test]
    fn any_topology_and_scheduler_partition_exactly(
        seed in 0usize..64,
        count in 1usize..7,
        kind_idx in 0usize..5,
        aware in proptest::sample::select(vec![false, true]),
        total in 0usize..20_000,
        chunk in 0usize..3_000,
    ) {
        let kind = match kind_idx {
            0 => TopologyKind::Independent,
            1 => TopologyKind::SharedRoot,
            2 => TopologyKind::Switch { fanout: 1 + seed % 4 },
            3 => TopologyKind::Switch { fanout: 3 },
            _ => TopologyKind::NvLink,
        };
        let config = FilterConfig::new(100, 2)
            .with_chunk_pairs(chunk)
            .with_topology(kind)
            .with_topology_aware(aware);
        let filter = GateKeeperGpu::with_devices(device_mix(count, seed), config);
        let schedule = filter.schedule(total);
        prop_assert_eq!(schedule.assignments.len(), count);
        prop_assert_eq!(schedule.total_pairs(), total);
        let ranges: Vec<(usize, usize)> = schedule
            .assignments
            .iter()
            .flat_map(|a| a.ranges.iter().copied())
            .collect();
        assert_exact_partition(ranges, total);
    }

    /// Arbitrary custom link graphs (uneven bandwidths, arbitrary
    /// device-to-link attachments) through the explicit-topology entry point:
    /// still an exact partition.
    #[test]
    fn custom_topologies_schedule_exactly(
        links in 1usize..4,
        attach_seed in 0usize..4096,
        bw_millis in 1usize..60_000,
        count in 1usize..6,
        total in 0usize..10_000,
    ) {
        let link_specs: Vec<LinkSpec> = (0..links)
            .map(|l| LinkSpec {
                name: format!("l{l}"),
                bandwidth_gb_per_s: bw_millis as f64 / 1_000.0 * (l + 1) as f64,
            })
            .collect();
        let attach: Vec<usize> = (0..count).map(|d| (attach_seed >> d) % links).collect();
        let topology = Topology::custom("prop", link_specs, attach);
        let filter = GateKeeperGpu::with_devices(
            device_mix(count, attach_seed),
            FilterConfig::new(100, 2).with_topology_aware(true),
        );
        let schedule = filter.schedule_for(&topology, total);
        prop_assert_eq!(schedule.total_pairs(), total);
        let ranges: Vec<(usize, usize)> = schedule
            .assignments
            .iter()
            .flat_map(|a| a.ranges.iter().copied())
            .collect();
        assert_exact_partition(ranges, total);
    }

    /// The weighted splitter underneath the aware scheduler: any weight vector
    /// (zeros and degenerate vectors included) yields `n` back-to-back ranges
    /// covering `0..total`.
    #[test]
    fn weighted_partition_is_always_exact(
        total in 0usize..100_000,
        weight_seed in 0u64..1_000_000_000,
        n in 1usize..9,
    ) {
        let weights: Vec<f64> = (0..n)
            .map(|i| ((weight_seed >> (i * 7)) & 0x7f) as f64)
            .collect();
        let spans = weighted_partition(total, &weights);
        prop_assert_eq!(spans.len(), n);
        let mut cursor = 0usize;
        for &(start, end) in &spans {
            prop_assert_eq!(start, cursor);
            prop_assert!(end >= start);
            cursor = end;
        }
        prop_assert_eq!(cursor, total);
    }
}

proptest! {
    // Each case runs four full multi-GPU filter pipelines; keep the draw count
    // modest so the suite stays inside the tier-1 budget.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Contention is reporting-only, and turning it off reproduces the
    /// independent-link numbers bit-for-bit: the shared-root run's uncontended
    /// twin equals the private-link run's replay, decisions are identical
    /// across naive/aware and contention on/off, and the naive run's
    /// pre-topology timing fields never move.
    #[test]
    fn contention_off_reproduces_private_link_numbers(
        pair_count in 200usize..700,
        seed in 0u64..100_000,
        devices in 1usize..5,
        encoding in proptest::sample::select(vec![EncodingActor::Host, EncodingActor::Device]),
    ) {
        let set = DatasetProfile::set3().generate(pair_count, seed);
        let base = FilterConfig::new(100, 2).with_encoding(encoding);
        let run = |kind, aware| {
            GateKeeperGpu::with_devices(
                vec![DeviceSpec::gtx_1080_ti(); devices],
                base.with_topology(kind).with_topology_aware(aware),
            )
            .filter_set(&set)
        };
        let naive_private = run(TopologyKind::Independent, false);
        let naive_shared = run(TopologyKind::SharedRoot, false);
        let aware_private = run(TopologyKind::Independent, true);
        let aware_shared = run(TopologyKind::SharedRoot, true);

        // Decisions never depend on the wiring or the scheduler.
        prop_assert_eq!(&naive_private.decisions, &naive_shared.decisions);
        prop_assert_eq!(&naive_private.decisions, &aware_private.decisions);
        prop_assert_eq!(&naive_private.decisions, &aware_shared.decisions);

        // The naive sharder ignores the topology entirely: the pre-topology
        // timing fields are bit-for-bit identical across wirings.
        prop_assert_eq!(naive_private.kernel_seconds(), naive_shared.kernel_seconds());
        prop_assert_eq!(naive_private.filter_seconds(), naive_shared.filter_seconds());

        // On private links the contended replay IS the uncontended twin.
        for run in [&naive_private, &aware_private] {
            prop_assert_eq!(
                run.interconnect.contended.makespan_seconds,
                run.interconnect.uncontended.makespan_seconds
            );
            prop_assert_eq!(run.interconnect.link_wait_seconds(), 0.0);
            prop_assert_eq!(
                &run.interconnect.contended.per_device_finish_seconds,
                &run.interconnect.uncontended.per_device_finish_seconds
            );
        }

        // Contention off = the private-link numbers, exactly (same loads, so
        // the shared run's uncontended twin replays the private wiring).
        prop_assert_eq!(
            naive_shared.interconnect.uncontended.makespan_seconds,
            naive_private.interconnect.contended.makespan_seconds
        );
        prop_assert_eq!(
            &naive_shared.interconnect.uncontended.per_device_finish_seconds,
            &naive_private.interconnect.contended.per_device_finish_seconds
        );
    }
}

/// The acceptance gate at integration level: eight GTX 1080 Ti boards on one
/// shared root complex, device-encode uploads — the aware scheduler strictly
/// beats round-robin makespan while the decision stream is untouched.
#[test]
fn aware_strictly_beats_naive_on_eight_shared_root_gpus() {
    let set = DatasetProfile::set3().generate(24_000, 4_242);
    let base = FilterConfig::new(100, 2)
        .with_encoding(EncodingActor::Device)
        .with_topology(TopologyKind::SharedRoot);
    let eight = vec![DeviceSpec::gtx_1080_ti(); 8];
    let naive = GateKeeperGpu::with_devices(eight.clone(), base).filter_set(&set);
    let aware = GateKeeperGpu::with_devices(eight, base.with_topology_aware(true)).filter_set(&set);
    assert_eq!(naive.decisions, aware.decisions);
    assert!(
        aware.interconnect.makespan_seconds() < naive.interconnect.makespan_seconds(),
        "aware {} s should strictly beat naive {} s",
        aware.interconnect.makespan_seconds(),
        naive.interconnect.makespan_seconds()
    );
    assert!(naive.interconnect.contention_slowdown() > 1.0);
}
