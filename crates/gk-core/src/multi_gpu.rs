//! Sharding a [`GateKeeperGpu`] run across its device list, with an optional
//! topology-aware scheduler.
//!
//! Setup 1 of the paper attaches eight GTX 1080 Ti boards to one host; the
//! multi-GPU experiments (Figure 8, Sup. Tables S.21–S.23) show kernel-time
//! throughput scaling almost linearly with the device count (especially in the
//! host-encoded mode) while filter-time throughput grows more slowly because the
//! host-side preparation and the shared PCIe complex do not scale.
//!
//! The **naive** sharder (the paper's §3.1 convention, and the default) reuses
//! the [`crate::pipeline`] chunk planner: the pair set is cut into pipeline
//! chunks and chunk *i* goes to device *i mod n* (with the chunk size capped at
//! `⌈total / n⌉` so every device gets work). Timing conventions follow
//! §3.1/§4.3 (see [`crate::gpu::FilterRun::filter_seconds`]): the workload is
//! balanced across devices, the reported multi-GPU kernel time is the slowest
//! device's kernel time, and the host-side costs (preparation, encoding) are
//! paid once. One device is the plain case: its one share is the whole set.
//!
//! The **topology-aware** scheduler ([`FilterConfig::topology_aware`]) reads
//! the interconnect wiring ([`FilterConfig::topology`]) and moves three levers,
//! none of which changes any decision:
//!
//! 1. **weighted shares** — contiguous per-device spans proportional to each
//!    device's estimated service rate (its effective link bandwidth and kernel
//!    rate), via [`gk_gpusim::topology::weighted_partition`];
//! 2. **per-device encoding actor** — each device gets whichever of
//!    host/device encode minimizes its estimated pipeline bottleneck on *its*
//!    link (raw uploads are ~4× the packed words, so a starved link can flip
//!    the paper's device-encode preference);
//! 3. **contention-aware chunks** — per-device chunk sizes shrink by the
//!    link's sharer count ([`ChunkPlan::with_link_sharers`]) so transfers
//!    interleave into the gaps other devices' host-prep stages leave open
//!    instead of colliding in one serialized burst.
//!
//! Every [`GateKeeperGpu::filter_set`] run also replays its per-device chunk
//! loads through [`gk_gpusim::topology::simulate_contended`] — once on the
//! configured topology and once on its private-link twin — and reports both in
//! [`crate::gpu::FilterRun::interconnect`]. The kernel/filter-time figures
//! never include contention, so they match the paper's free-overlap
//! conventions on every wiring.

use crate::config::{EncodingActor, FilterConfig};
use crate::gpu::{
    pair_cycles, DeviceRun, GateKeeperGpu, HOST_ENCODE_BASES_PER_SECOND, HOST_PREP_SECONDS_PER_PAIR,
};
use crate::pipeline::ChunkPlan;
use crate::timing::InterconnectReport;
use gk_gpusim::device::DeviceSpec;
use gk_gpusim::topology::{simulate_contended, weighted_partition, ChunkLoad, Topology};
use serde::{Deserialize, Serialize};

/// One device's slice of a multi-GPU schedule: the pair ranges it filters (in
/// order) and the exact per-device configuration its pipeline runs with. The
/// naive sharder hands every device the caller's configuration verbatim; the
/// topology-aware scheduler overrides the encoding actor and chunk size per
/// device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceAssignment {
    /// Half-open `[start, end)` pair ranges fed to this device's pipeline.
    pub ranges: Vec<(usize, usize)>,
    /// The configuration this device's pipeline runs with.
    pub config: FilterConfig,
}

impl DeviceAssignment {
    /// Pairs assigned to this device.
    pub fn pairs(&self) -> usize {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }
}

/// A complete shard plan: the interconnect topology plus one
/// [`DeviceAssignment`] per device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiGpuSchedule {
    /// The interconnect the devices hang off.
    pub topology: Topology,
    /// Whether the topology-aware scheduler produced the assignments.
    pub aware: bool,
    /// Per-device work and configuration, indexed like the device list.
    pub assignments: Vec<DeviceAssignment>,
}

impl MultiGpuSchedule {
    /// Total pairs covered by every assignment.
    pub fn total_pairs(&self) -> usize {
        self.assignments.iter().map(|a| a.pairs()).sum()
    }

    /// Replays the devices' exact per-chunk loads over this schedule's
    /// topology and over its private-link twin.
    pub(crate) fn replay(&self, per_device: &[DeviceRun]) -> InterconnectReport {
        let loads: Vec<&[ChunkLoad]> = per_device.iter().map(|run| &run.chunk_loads[..]).collect();
        InterconnectReport {
            topology: self.topology.label().to_string(),
            aware: self.aware,
            contended: simulate_contended(&self.topology, &loads),
            uncontended: simulate_contended(&self.topology.to_independent(), &loads),
        }
    }
}

/// Modelled per-pair stage costs of one device under a candidate encoding
/// actor, from the same constants the pipeline charges. `bottleneck_seconds`
/// is the pipeline's steady-state limiter including the *shared* host (one
/// host preps/encodes for all `device_count` streams, so its per-pair cost
/// scales with the device count); `device_seconds` is the device-local limiter
/// (link transfer at the device's effective bandwidth vs. kernel), which is
/// what the weighted split balances across heterogeneous links.
fn estimated_pair_cost(
    device: &DeviceSpec,
    config: &FilterConfig,
    encoding: EncodingActor,
    effective_bw_gb_s: f64,
    device_count: usize,
) -> (f64, f64) {
    let host_per_pair = HOST_PREP_SECONDS_PER_PAIR
        + match encoding {
            EncodingActor::Host => 2.0 * config.read_len as f64 / HOST_ENCODE_BASES_PER_SECOND,
            EncodingActor::Device => 0.0,
        };
    let host_shared = host_per_pair * device_count as f64;
    let h2d_bytes = match encoding {
        EncodingActor::Host => 2.0 * config.words_per_sequence() as f64 * 4.0,
        EncodingActor::Device => 2.0 * config.read_len as f64,
    };
    let h2d = h2d_bytes / (effective_bw_gb_s * 1e9);
    // The cycle count is an integer far below 2^53, so the conversion is exact.
    let kernel = pair_cycles(&config.with_encoding(encoding)) as f64 / device.peak_ops_per_second();
    let device_seconds = h2d.max(kernel);
    (host_shared.max(device_seconds), device_seconds)
}

impl GateKeeperGpu {
    /// The interconnect topology selected by [`FilterConfig::topology`], built
    /// over this instance's device list.
    pub fn topology(&self) -> Topology {
        Topology::build(self.config().topology, self.devices())
    }

    /// The chunk-to-device assignment for `total` pairs: the single-GPU pipeline
    /// chunk plan, with the chunk size capped at `⌈total / devices⌉` so a small
    /// set still spreads across every device, sharded round-robin.
    fn shard_plan(&self, total: usize) -> (ChunkPlan, Vec<Vec<(usize, usize)>>) {
        let devices = self.devices().len();
        let mut plan = self.chunk_plan();
        if devices > 1 && total > 0 {
            plan.chunk_pairs = plan.chunk_pairs.min(total.div_ceil(devices)).max(1);
        }
        let assignment = plan.round_robin(total, devices);
        (plan, assignment)
    }

    /// The shard plan for `total` pairs on the configured topology: the naive
    /// round-robin split when [`FilterConfig::topology_aware`] is off, the
    /// weighted/encoding/chunk-tuned plan when it is on. Either way the
    /// assignments partition `0..total` exactly, so decisions never depend on
    /// the scheduler.
    pub fn schedule(&self, total: usize) -> MultiGpuSchedule {
        self.schedule_for(&self.topology(), total)
    }

    /// Like [`GateKeeperGpu::schedule`], but over an explicit topology (which
    /// must describe this instance's devices) instead of the one named by
    /// [`FilterConfig::topology`].
    pub fn schedule_for(&self, topology: &Topology, total: usize) -> MultiGpuSchedule {
        assert_eq!(
            topology.device_count(),
            self.devices().len(),
            "topology must describe this filter's devices"
        );
        let aware = self.config().topology_aware;
        let assignments = if aware {
            self.aware_assignments(topology, total)
        } else {
            let (_, assignment) = self.shard_plan(total);
            assignment
                .into_iter()
                .map(|ranges| DeviceAssignment {
                    ranges,
                    config: *self.config(),
                })
                .collect()
        };
        MultiGpuSchedule {
            topology: topology.clone(),
            aware,
            assignments,
        }
    }

    /// The topology-aware assignments: per-device encoding actor by estimated
    /// bottleneck, contiguous spans weighted by the inverse device-local cost,
    /// and chunk sizes shrunk by each link's sharer count.
    fn aware_assignments(&self, topology: &Topology, total: usize) -> Vec<DeviceAssignment> {
        let devices = self.devices();
        let base = *self.config();
        let count = devices.len();
        let mut configs = Vec::with_capacity(count);
        let mut weights = Vec::with_capacity(count);
        for (index, device) in devices.iter().enumerate() {
            let bandwidth = topology.effective_bandwidth_gb_per_s(index);
            // Start from the caller's preference so ties never flip the actor.
            let mut best = base.encoding;
            let mut best_cost = estimated_pair_cost(device, &base, best, bandwidth, count);
            for candidate in [EncodingActor::Device, EncodingActor::Host] {
                if candidate == best {
                    continue;
                }
                let cost = estimated_pair_cost(device, &base, candidate, bandwidth, count);
                if cost.0 < best_cost.0 {
                    best = candidate;
                    best_cost = cost;
                }
            }
            weights.push(1.0 / best_cost.1.max(1e-18));
            configs.push(base.with_encoding(best));
        }
        weighted_partition(total, &weights)
            .into_iter()
            .zip(configs)
            .enumerate()
            .map(|(index, ((start, end), config))| {
                let span = end - start;
                let mut plan = self.pipeline(index, config).chunk_plan();
                if span > 0 {
                    plan.chunk_pairs = plan.chunk_pairs.min(span).max(1);
                }
                let plan = plan.with_link_sharers(topology.sharers(index));
                DeviceAssignment {
                    ranges: if span > 0 {
                        vec![(start, end)]
                    } else {
                        Vec::new()
                    },
                    config: config.with_chunk_pairs(plan.chunk_pairs),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncodingActor;
    use crate::gpu::FilterRun;
    use crate::timing::TimingBreakdown;
    use gk_gpusim::topology::{LinkSpec, TopologyKind};
    use gk_seq::datasets::DatasetProfile;
    use gk_seq::pairs::PairSet;

    fn pairs(count: usize) -> PairSet {
        DatasetProfile::set3().generate(count, 321)
    }

    /// `devices` GTX 1080 Ti boards under `config`.
    fn gtx(devices: usize, config: FilterConfig) -> GateKeeperGpu {
        GateKeeperGpu::with_devices(vec![DeviceSpec::gtx_1080_ti(); devices], config)
    }

    fn multi(devices: usize, encoding: EncodingActor) -> GateKeeperGpu {
        gtx(devices, FilterConfig::new(100, 2).with_encoding(encoding))
    }

    /// Every device's timing breakdown, summed.
    fn summed_timing(run: &FilterRun) -> TimingBreakdown {
        let mut total = TimingBreakdown::default();
        for device_run in &run.per_device {
            total.accumulate(&device_run.timing);
        }
        total
    }

    #[test]
    fn heterogeneous_device_lists_keep_their_order() {
        let filter = GateKeeperGpu::with_devices(
            vec![DeviceSpec::gtx_1080_ti(), DeviceSpec::tesla_k20x()],
            FilterConfig::new(100, 2),
        );
        assert_eq!(filter.devices().len(), 2);
        assert_eq!(filter.devices()[1].name, "Tesla K20X");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_panic() {
        multi(0, EncodingActor::Host);
    }

    #[test]
    fn multi_gpu_decisions_match_single_gpu() {
        let set = pairs(2_000);
        let single = multi(1, EncodingActor::Device).filter_set(&set);
        let eight = multi(8, EncodingActor::Device).filter_set(&set);
        assert_eq!(single.decisions, eight.decisions);
        assert_eq!(eight.per_device.len(), 8);
    }

    #[test]
    fn kernel_time_improves_with_more_devices() {
        let set = pairs(4_000);
        let one = multi(1, EncodingActor::Host).filter_set(&set);
        let four = multi(4, EncodingActor::Host).filter_set(&set);
        let eight = multi(8, EncodingActor::Host).filter_set(&set);
        assert!(four.kernel_seconds() < one.kernel_seconds());
        assert!(eight.kernel_seconds() < four.kernel_seconds());
    }

    #[test]
    fn filter_time_scales_sublinearly_because_of_host_costs() {
        let set = pairs(4_000);
        let one = multi(1, EncodingActor::Host).filter_set(&set);
        let eight = multi(8, EncodingActor::Host).filter_set(&set);
        let kernel_speedup = one.kernel_seconds() / eight.kernel_seconds();
        let filter_speedup = one.filter_seconds() / eight.filter_seconds();
        assert!(filter_speedup >= 1.0);
        assert!(
            filter_speedup < kernel_speedup,
            "filter speedup {filter_speedup} should trail kernel speedup {kernel_speedup}"
        );
    }

    #[test]
    fn round_robin_sharding_covers_every_pair_once() {
        let filter = multi(3, EncodingActor::Device);
        let (plan, assignment) = filter.shard_plan(10_000);
        assert_eq!(assignment.len(), 3);
        let mut covered = vec![false; 10_000];
        for (start, end) in assignment.iter().flatten() {
            for flag in &mut covered[*start..*end] {
                assert!(!*flag, "pair covered twice");
                *flag = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        // The cap keeps every device busy even when the pipeline chunk is huge.
        assert!(plan.chunk_pairs <= 10_000usize.div_ceil(3));
        assert!(assignment.iter().all(|ranges| !ranges.is_empty()));
    }

    #[test]
    fn overlap_reduces_multi_gpu_filter_time_without_changing_decisions() {
        let set = pairs(4_000);
        let config = FilterConfig::new(100, 2)
            .with_encoding(EncodingActor::Host)
            .with_chunk_pairs(250);
        let serialized = gtx(4, config).filter_set(&set);
        let overlapped = gtx(4, config.with_overlap(true)).filter_set(&set);
        assert_eq!(serialized.decisions, overlapped.decisions);
        assert_eq!(serialized.kernel_seconds(), overlapped.kernel_seconds());
        assert!(overlapped.filter_seconds() < serialized.filter_seconds());
    }

    #[test]
    fn device_encode_shards_identically_to_host_encode() {
        // The encoding execution path must be transparent to the round-robin
        // sharding: same decisions on 1 and 4 devices, in both modes, and the
        // host-paid-once accounting still holds (device mode pays no host
        // encode at all).
        let set = pairs(3_000);
        let host = multi(4, EncodingActor::Host).filter_set(&set);
        let device = multi(4, EncodingActor::Device).filter_set(&set);
        let single_device = multi(1, EncodingActor::Device).filter_set(&set);
        assert_eq!(host.decisions, device.decisions);
        assert_eq!(device.decisions, single_device.decisions);
        for run in &device.per_device {
            assert_eq!(run.timing.encode_seconds, 0.0);
            assert!(run.timing.encode_device_seconds > 0.0);
            assert!(run.pipeline.device_encode);
        }
        let host_total = summed_timing(&host);
        let device_total = summed_timing(&device);
        assert!(host_total.encode_seconds > 0.0);
        assert_eq!(device_total.encode_seconds, 0.0);
        assert!(device_total.encode_device_seconds > 0.0);
    }

    #[test]
    fn accepted_counts_are_consistent() {
        let set = pairs(1_000);
        let run = multi(3, EncodingActor::Device).filter_set(&set);
        assert_eq!(
            run.accepted(),
            run.decisions.iter().filter(|d| d.accepted).count()
        );
        let combined = run.memory_stats;
        assert!(combined.bytes_to_device > 0);
    }

    #[test]
    fn timing_accumulation_covers_all_devices() {
        let set = pairs(1_000);
        let run = multi(2, EncodingActor::Device).filter_set(&set);
        let total = summed_timing(&run);
        assert!(total.kernel_seconds >= run.kernel_seconds());
    }

    #[test]
    fn naive_runs_on_private_links_replay_without_contention() {
        let set = pairs(1_000);
        let run = multi(2, EncodingActor::Device).filter_set(&set);
        assert_eq!(run.interconnect.topology, "private");
        assert!(!run.interconnect.aware);
        // Private links are their own uncontended twin: identical makespan,
        // zero time spent waiting for a link.
        assert_eq!(
            run.interconnect.contended.makespan_seconds,
            run.interconnect.uncontended.makespan_seconds
        );
        assert_eq!(run.interconnect.link_wait_seconds(), 0.0);
        assert_eq!(run.interconnect.contention_penalty_seconds(), 0.0);
        assert!(run.interconnect.makespan_seconds() > 0.0);
    }

    #[test]
    fn shared_root_contention_shows_up_only_in_the_replay() {
        let set = pairs(4_000);
        let private = multi(4, EncodingActor::Device).filter_set(&set);
        let shared = gtx(
            4,
            FilterConfig::new(100, 2)
                .with_encoding(EncodingActor::Device)
                .with_topology(TopologyKind::SharedRoot),
        )
        .filter_set(&set);
        // The topology knob adds reporting; every pre-existing field is
        // bit-for-bit what the private-link run produced.
        assert_eq!(private.decisions, shared.decisions);
        assert_eq!(private.kernel_seconds(), shared.kernel_seconds());
        assert_eq!(private.filter_seconds(), shared.filter_seconds());
        for (a, b) in private.per_device.iter().zip(shared.per_device.iter()) {
            assert_eq!(a.timing, b.timing);
            assert_eq!(a.chunk_loads, b.chunk_loads);
        }
        // …but the replay sees four uploads colliding on one root complex.
        assert_eq!(shared.interconnect.topology, "shared");
        assert!(shared.interconnect.contention_penalty_seconds() > 0.0);
        assert!(shared.interconnect.contention_slowdown() > 1.0);
        assert!(shared.interconnect.link_wait_seconds() > 0.0);
    }

    #[test]
    fn aware_scheduler_beats_naive_on_a_crowded_shared_root() {
        let set = pairs(40_000);
        let base = FilterConfig::new(100, 2)
            .with_encoding(EncodingActor::Device)
            .with_topology(TopologyKind::SharedRoot);
        let naive = gtx(8, base).filter_set(&set);
        let aware = gtx(8, base.with_topology_aware(true)).filter_set(&set);
        assert_eq!(naive.decisions, aware.decisions);
        assert!(
            aware.interconnect.makespan_seconds() < naive.interconnect.makespan_seconds(),
            "aware {} should beat naive {}",
            aware.interconnect.makespan_seconds(),
            naive.interconnect.makespan_seconds()
        );
    }

    #[test]
    fn a_starved_link_flips_the_encoding_actor_to_host() {
        let filter = gtx(
            2,
            FilterConfig::new(100, 2)
                .with_encoding(EncodingActor::Device)
                .with_topology_aware(true),
        );
        let starved = Topology::custom(
            "starved",
            vec![LinkSpec {
                name: "slow".to_string(),
                bandwidth_gb_per_s: 0.05,
            }],
            vec![0, 0],
        );
        // Raw uploads are ~4x the packed words, so on a starved link the
        // scheduler packs on the host despite the extra host time.
        let schedule = filter.schedule_for(&starved, 2_000);
        for assignment in &schedule.assignments {
            assert_eq!(assignment.config.encoding, EncodingActor::Host);
        }
        // On the paper's PCIe complex the device-encode preference holds.
        for assignment in &filter.schedule(2_000).assignments {
            assert_eq!(assignment.config.encoding, EncodingActor::Device);
        }
        // The flip retunes the plan, never the decisions.
        let set = pairs(2_000);
        let (flipped, _) =
            filter.run_schedule(&filter.schedule_for(&starved, set.len()), &set.pairs);
        let baseline = filter.filter_set(&set);
        assert_eq!(flipped, baseline.decisions);
    }

    #[test]
    fn aware_schedules_partition_exactly_even_for_mixed_devices() {
        let filter = GateKeeperGpu::with_devices(
            vec![
                DeviceSpec::gtx_1080_ti(),
                DeviceSpec::tesla_k20x(),
                DeviceSpec::gtx_1080_ti(),
            ],
            FilterConfig::new(100, 2)
                .with_topology(TopologyKind::SharedRoot)
                .with_topology_aware(true),
        );
        for total in [0usize, 1, 7, 997, 10_001] {
            let schedule = filter.schedule(total);
            assert_eq!(schedule.total_pairs(), total);
            let mut cursor = 0usize;
            for assignment in &schedule.assignments {
                for &(start, end) in &assignment.ranges {
                    assert_eq!(start, cursor, "total {total}");
                    assert!(end > start, "total {total}");
                    cursor = end;
                }
            }
            assert_eq!(cursor, total, "total {total}");
        }
    }

    #[test]
    fn aware_chunks_shrink_by_the_sharer_count() {
        let base = FilterConfig::new(100, 2)
            .with_encoding(EncodingActor::Device)
            .with_topology(TopologyKind::SharedRoot)
            .with_topology_aware(true);
        let filter = gtx(8, base);
        let schedule = filter.schedule(40_000);
        // 5_000 pairs per device, split eight ways on the shared root.
        for assignment in &schedule.assignments {
            assert_eq!(assignment.pairs(), 5_000);
            assert_eq!(assignment.config.chunk_pairs, 625);
        }
    }
}
