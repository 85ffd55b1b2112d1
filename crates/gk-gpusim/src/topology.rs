//! Interconnect topology: which devices share which host links.
//!
//! The paper's Figure 8 multi-GPU scaling implicitly assumes every board owns a
//! private, uncontended PCIe link to the host — eight GTX 1080 Ti boards each
//! moving batches at the full ×16 rate. Real eight-GPU chassis do not look like
//! that: boards hang off PLX switches whose upstream port is a single ×16 link,
//! or share the root complex's host bandwidth outright. This module models that
//! wiring: a [`Topology`] attaches each device to a [`LinkSpec`], and
//! [`simulate_contended`] replays per-device pipeline work, one
//! [`PipelineClock`] per device, over links that serialize concurrent
//! transfers (FIFO at the full link rate) instead of letting them overlap for
//! free.
//!
//! The model is deliberately symmetric with the uncontended one: a transfer on
//! a free link costs exactly
//! [`PcieLink::transfer_seconds`](crate::device::PcieLink::transfer_seconds),
//! so an [`TopologyKind::Independent`] topology reproduces the plain
//! per-device pipeline numbers bit-for-bit and all contention shows up as
//! explicit link waits.

use crate::clock::{Direction, PipelineClock};
use crate::device::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Aggregate per-direction bandwidth of the NVLink-style fabric option, in
/// GB/s (NVLink 2.0 ballpark: 6 sublinks × 25 GB/s raw, derated to an
/// effective ~75 GB/s per direction).
pub const NVLINK_BANDWIDTH_GB_PER_S: f64 = 75.0;

/// Symbolic interconnect topology selector.
///
/// Purely structural — no bandwidths live here (so the type stays `Eq` and can
/// sit in `FilterConfig`); link rates are derived from the attached devices'
/// PCIe specs (or the NVLink constant) when the [`Topology`] is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum TopologyKind {
    /// Every device owns a private host link at its full PCIe rate — the
    /// paper's implicit assumption, and the default.
    #[default]
    Independent,
    /// All devices share one host root-complex link (a single ×16 upstream
    /// port): the worst case for the raw-transfer encode path.
    SharedRoot,
    /// Devices hang off PCIe switches in consecutive groups of `fanout`; each
    /// group shares its switch's single upstream link.
    Switch {
        /// Devices per switch (the last switch may hold fewer).
        fanout: usize,
    },
    /// An NVLink-style shared fabric: still one shared link, but at
    /// [`NVLINK_BANDWIDTH_GB_PER_S`] — fat enough that contention is mostly
    /// invisible.
    NvLink,
}

impl TopologyKind {
    /// Short label for tables and JSON (`private`, `shared`, `switch:4`,
    /// `nvlink`).
    pub fn label(&self) -> String {
        match self {
            TopologyKind::Independent => "private".to_string(),
            TopologyKind::SharedRoot => "shared".to_string(),
            TopologyKind::Switch { fanout } => format!("switch:{fanout}"),
            TopologyKind::NvLink => "nvlink".to_string(),
        }
    }
}

impl std::str::FromStr for TopologyKind {
    type Err = String;

    /// Parses the harness spelling: `private`/`independent`, `shared`/`root`,
    /// `switch` (fanout 4), `switch:N`, `nvlink`.
    fn from_str(s: &str) -> Result<TopologyKind, String> {
        match s {
            "private" | "independent" => Ok(TopologyKind::Independent),
            "shared" | "root" | "shared-root" => Ok(TopologyKind::SharedRoot),
            "switch" => Ok(TopologyKind::Switch { fanout: 4 }),
            "nvlink" => Ok(TopologyKind::NvLink),
            other => {
                if let Some(n) = other.strip_prefix("switch:") {
                    let fanout: usize =
                        n.parse().map_err(|_| format!("bad switch fanout `{n}`"))?;
                    if fanout == 0 {
                        return Err("switch fanout must be >= 1".to_string());
                    }
                    Ok(TopologyKind::Switch { fanout })
                } else {
                    Err(format!(
                        "unknown topology `{other}` (expected private|shared|switch[:N]|nvlink)"
                    ))
                }
            }
        }
    }
}

/// One host link in a topology: a name and a per-direction bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Name for reporting (e.g. `"switch0"`).
    pub name: String,
    /// Per-direction bandwidth in GB/s.
    pub bandwidth_gb_per_s: f64,
}

/// An interconnect topology: links plus a device → link attachment map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    label: String,
    links: Vec<LinkSpec>,
    /// `attach[d]` is the index into `links` of device `d`'s host link.
    attach: Vec<usize>,
}

/// The fattest PCIe rate among a group of devices: a shared upstream port
/// cannot run faster than the best single link hanging off it.
fn group_bandwidth(devices: &[DeviceSpec]) -> f64 {
    devices
        .iter()
        .map(|d| d.pcie.bandwidth_gb_per_s())
        .fold(0.0, f64::max)
}

impl Topology {
    /// Builds the topology selected by `kind` over `devices`.
    pub fn build(kind: TopologyKind, devices: &[DeviceSpec]) -> Topology {
        match kind {
            TopologyKind::Independent => Topology::independent(devices),
            TopologyKind::SharedRoot => Topology::shared_root(devices),
            TopologyKind::Switch { fanout } => Topology::switch(devices, fanout),
            TopologyKind::NvLink => Topology::nvlink(devices),
        }
    }

    /// Every device on its own private link at its full PCIe rate.
    fn independent(devices: &[DeviceSpec]) -> Topology {
        assert!(!devices.is_empty(), "a topology needs at least one device");
        Topology {
            label: "private".to_string(),
            links: devices
                .iter()
                .enumerate()
                .map(|(i, d)| LinkSpec {
                    name: format!("pcie{i}"),
                    bandwidth_gb_per_s: d.pcie.bandwidth_gb_per_s(),
                })
                .collect(),
            attach: (0..devices.len()).collect(),
        }
    }

    /// All devices behind one root-complex link.
    fn shared_root(devices: &[DeviceSpec]) -> Topology {
        assert!(!devices.is_empty(), "a topology needs at least one device");
        Topology {
            label: "shared".to_string(),
            links: vec![LinkSpec {
                name: "pcie-root".to_string(),
                bandwidth_gb_per_s: group_bandwidth(devices),
            }],
            attach: vec![0; devices.len()],
        }
    }

    /// Devices in consecutive groups of `fanout`, one upstream link per group.
    pub fn switch(devices: &[DeviceSpec], fanout: usize) -> Topology {
        assert!(!devices.is_empty(), "a topology needs at least one device");
        assert!(fanout >= 1, "switch fanout must be >= 1");
        let links: Vec<LinkSpec> = devices
            .chunks(fanout)
            .enumerate()
            .map(|(g, group)| LinkSpec {
                name: format!("switch{g}"),
                bandwidth_gb_per_s: group_bandwidth(group),
            })
            .collect();
        let attach = (0..devices.len()).map(|d| d / fanout).collect();
        Topology {
            label: format!("switch:{fanout}"),
            links,
            attach,
        }
    }

    /// One shared NVLink-style fabric at [`NVLINK_BANDWIDTH_GB_PER_S`].
    fn nvlink(devices: &[DeviceSpec]) -> Topology {
        assert!(!devices.is_empty(), "a topology needs at least one device");
        Topology {
            label: "nvlink".to_string(),
            links: vec![LinkSpec {
                name: "nvlink".to_string(),
                bandwidth_gb_per_s: NVLINK_BANDWIDTH_GB_PER_S,
            }],
            attach: vec![0; devices.len()],
        }
    }

    /// An arbitrary topology from explicit links and attachments (for tests
    /// and exotic chassis). `attach[d]` must index into `links`.
    pub fn custom(label: impl Into<String>, links: Vec<LinkSpec>, attach: Vec<usize>) -> Topology {
        assert!(!attach.is_empty(), "a topology needs at least one device");
        assert!(!links.is_empty(), "a topology needs at least one link");
        assert!(
            attach.iter().all(|&l| l < links.len()),
            "attachment indexes a missing link"
        );
        assert!(
            links.iter().all(|l| l.bandwidth_gb_per_s > 0.0),
            "link bandwidth must be positive"
        );
        Topology {
            label: label.into(),
            links,
            attach,
        }
    }

    /// The contention-off twin: every device gets a *private* link at the
    /// bandwidth of the link it is attached to here. Same per-transfer rates,
    /// no sharing — the baseline the contention numbers are compared against.
    pub fn to_independent(&self) -> Topology {
        Topology {
            label: format!("{}+uncontended", self.label),
            links: self
                .attach
                .iter()
                .enumerate()
                .map(|(d, &l)| LinkSpec {
                    name: format!("private{d}"),
                    bandwidth_gb_per_s: self.links[l].bandwidth_gb_per_s,
                })
                .collect(),
            attach: (0..self.attach.len()).collect(),
        }
    }

    /// Number of attached devices.
    pub fn device_count(&self) -> usize {
        self.attach.len()
    }

    /// The links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// How many devices share device `d`'s link (including itself).
    pub fn sharers(&self, device: usize) -> usize {
        let link = self.attach[device];
        self.attach.iter().filter(|&&l| l == link).count()
    }

    /// Full bandwidth of device `d`'s link, in GB/s.
    fn link_bandwidth_gb_per_s(&self, device: usize) -> f64 {
        self.links[self.attach[device]].bandwidth_gb_per_s
    }

    /// Device `d`'s fair share of its link under full contention: link
    /// bandwidth divided by the number of sharers. The weight the
    /// topology-aware sharder feeds on.
    pub fn effective_bandwidth_gb_per_s(&self, device: usize) -> f64 {
        self.link_bandwidth_gb_per_s(device) / self.sharers(device) as f64
    }

    /// Human-readable topology label (`private`, `shared`, `switch:4`, …).
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Splits `total` items into contiguous per-device ranges proportional to
/// `weights`, by largest remainder: every weight gets `floor(total·wᵢ/Σw)`
/// items, and the leftovers go one each to the largest fractional parts
/// (ties to the lower index). Non-finite or negative weights count as zero;
/// equal weights, and an all-zero weight vector, give the equal split with
/// the remainder front-loaded onto the first ranges.
///
/// The result is always an exact partition of `0..total`: `n` half-open
/// ranges, back-to-back, first starting at 0, last ending at `total`.
pub fn weighted_partition(total: usize, weights: &[f64]) -> Vec<(usize, usize)> {
    let n = weights.len();
    assert!(n >= 1, "weighted_partition needs at least one weight");
    let sane: Vec<f64> = weights
        .iter()
        .map(|&w| if w.is_finite() && w > 0.0 { w } else { 0.0 })
        .collect();
    let sum: f64 = sane.iter().sum();
    let mut sizes: Vec<usize> = vec![0; n];
    if sum > 0.0 {
        let mut fractions: Vec<(f64, usize)> = Vec::with_capacity(n);
        let mut assigned = 0usize;
        for (i, &w) in sane.iter().enumerate() {
            let exact = total as f64 * (w / sum);
            // Guard the floor against accumulated rounding pushing past total.
            let floor = (exact.floor() as usize).min(total);
            sizes[i] = floor;
            assigned += floor;
            fractions.push((exact - floor as f64, i));
        }
        // Hand the leftover items to the largest fractional parts; ties break
        // to the lower device index so the split is deterministic.
        let mut leftover = total.saturating_sub(assigned);
        fractions.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut at = 0usize;
        while leftover > 0 {
            sizes[fractions[at % n].1] += 1;
            leftover -= 1;
            at += 1;
        }
    } else {
        // Degenerate weights: equal shares, extras front-loaded.
        let base = total / n;
        let remainder = total % n;
        for (i, size) in sizes.iter_mut().enumerate() {
            *size = base + usize::from(i < remainder);
        }
    }
    let mut ranges = Vec::with_capacity(n);
    let mut start = 0usize;
    for size in sizes {
        ranges.push((start, start + size));
        start += size;
    }
    debug_assert_eq!(start, total);
    ranges
}

/// One pipeline chunk's worth of work on one device, as modelled durations and
/// link traffic — the currency [`simulate_contended`] replays on the shared
/// links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ChunkLoad {
    /// Host-side prep (+ encode, on the host path) that runs on the H2D stream
    /// before the transfer.
    pub host_seconds: f64,
    /// Bytes prefetched over the host link, per input buffer (reads, refs).
    /// Zero on devices without prefetch support, where migration traffic is
    /// already folded into the kernel stage as page faults.
    pub h2d_bytes: [u64; 2],
    /// Kernel execution time.
    pub kernel_seconds: f64,
    /// Result read-back bytes over the device→host direction.
    pub d2h_bytes: u64,
}

impl ChunkLoad {
    /// Total bytes this chunk moves host→device.
    pub fn total_h2d_bytes(&self) -> u64 {
        self.h2d_bytes.iter().sum()
    }
}

/// Per-link accounting out of a contended run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkUsage {
    /// Link name from the topology.
    pub name: String,
    /// Per-direction bandwidth in GB/s.
    pub bandwidth_gb_per_s: f64,
    /// Devices attached to this link.
    pub devices: usize,
    /// Host→device bytes moved.
    pub h2d_bytes: u64,
    /// Device→host bytes moved.
    pub d2h_bytes: u64,
    /// Seconds the link spent moving bytes (both directions summed).
    pub busy_seconds: f64,
    /// Seconds transfers stalled behind other traffic on this link.
    pub wait_seconds: f64,
    /// Peak per-direction busy fraction of the run's makespan.
    pub utilization: f64,
}

/// Result of replaying per-device pipeline loads over shared links.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentionRun {
    /// Completion time of the slowest device after link arbitration.
    pub makespan_seconds: f64,
    /// Back-to-back cost of every replayed operation on one stream.
    pub serialized_seconds: f64,
    /// Per-device completion times.
    pub per_device_finish_seconds: Vec<f64>,
    /// Per-device seconds spent stalled on busy links.
    pub per_device_link_wait_seconds: Vec<f64>,
    /// Per-link traffic and stall accounting.
    pub links: Vec<LinkUsage>,
    /// Ill-formed durations the device clocks clamped (0 when healthy).
    pub anomalies: u64,
}

impl ContentionRun {
    /// Total link-stall seconds across all devices.
    pub fn link_wait_seconds(&self) -> f64 {
        self.per_device_link_wait_seconds.iter().sum()
    }
}

/// One direction of a replay link: FIFO arbitration and its accounting.
#[derive(Debug, Default)]
struct LinkLane {
    busy_until_seconds: f64,
    busy_seconds: f64,
    bytes_moved: u64,
    wait_seconds: f64,
}

impl LinkLane {
    /// Fraction of `horizon_seconds` this direction spent busy (0 when the
    /// horizon is empty).
    fn utilization(&self, horizon_seconds: f64) -> f64 {
        if horizon_seconds > 0.0 {
            self.busy_seconds / horizon_seconds
        } else {
            0.0
        }
    }
}

/// A topology link during a replay: its rate and one lane per direction.
#[derive(Debug)]
struct ReplayLink {
    bandwidth_gb_per_s: f64,
    h2d: LinkLane,
    d2h: LinkLane,
}

impl ReplayLink {
    fn new(spec: &LinkSpec) -> ReplayLink {
        assert!(
            spec.bandwidth_gb_per_s > 0.0,
            "link bandwidth must be positive, got {}",
            spec.bandwidth_gb_per_s
        );
        ReplayLink {
            bandwidth_gb_per_s: spec.bandwidth_gb_per_s,
            h2d: LinkLane::default(),
            d2h: LinkLane::default(),
        }
    }

    /// Moves `bytes` on `clock`'s stream of `direction`. The transfer starts
    /// at the later of the stream's cursor and the moment this direction of
    /// the link frees up; on a free link it costs exactly
    /// [`PcieLink::transfer_seconds`](crate::device::PcieLink::transfer_seconds).
    /// Returns how much the link's wait total grew.
    fn transfer(
        &mut self,
        direction: Direction,
        clock: &mut PipelineClock,
        bytes: u64,
        serialized: &mut f64,
    ) -> f64 {
        let duration = bytes as f64 / (self.bandwidth_gb_per_s * 1e9);
        let lane = match direction {
            Direction::H2d => &mut self.h2d,
            Direction::D2h => &mut self.d2h,
        };
        let waited_before = lane.wait_seconds;
        let ready = clock.cursor(direction);
        if lane.busy_until_seconds > ready {
            lane.wait_seconds += lane.busy_until_seconds - ready;
            clock.wait(direction, lane.busy_until_seconds);
        }
        lane.busy_seconds += clock.run(direction, duration, serialized);
        lane.busy_until_seconds = clock.cursor(direction);
        lane.bytes_moved += bytes;
        lane.wait_seconds - waited_before
    }
}

/// Replays per-device chunk pipelines (`loads[d]` = device `d`'s chunks, in
/// order, owned or borrowed), with every transfer going through the device's
/// topology link.
///
/// Each device runs on its own [`PipelineClock`] with the usual chaining — the
/// kernel waits for its chunk's upload, read-back waits for the kernel, and
/// an upload may only start once a buffer slot has drained. Transfers are
/// granted to links **in global arrival order**: the replay repeatedly picks,
/// across all devices, the pending link operation whose transfer becomes
/// ready earliest (ties break to the lower device index, read-backs before
/// uploads), so a link serves requests exactly as a FIFO arbiter would see
/// them arrive. H2D and D2H directions contend separately (PCIe is full
/// duplex).
///
/// # Panics
///
/// When `loads` does not hold one chunk list per topology device, or a link
/// has a bandwidth that is not positive.
pub fn simulate_contended(topology: &Topology, loads: &[impl AsRef<[ChunkLoad]>]) -> ContentionRun {
    assert_eq!(
        loads.len(),
        topology.device_count(),
        "one chunk list per topology device"
    );
    let mut links: Vec<ReplayLink> = topology.links.iter().map(ReplayLink::new).collect();
    let mut clocks = vec![PipelineClock::new(); loads.len()];
    let mut per_device_wait = vec![0.0f64; loads.len()];
    // One accumulator in global operation order, across every device.
    let mut serialized = 0.0;

    loop {
        // Pick the link operation whose transfer arrives earliest.
        // Candidate key: (arrival seconds, device index, 0 = read-back / 1 = upload).
        let mut best: Option<(f64, usize, u8)> = None;
        let mut consider = |key: (f64, usize, u8)| {
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        };
        for (d, clock) in clocks.iter().enumerate() {
            if let Some(ready) = clock.drain_ready() {
                consider((ready, d, 0));
            }
            let next_upload = loads[d].as_ref().get(clock.chunks());
            if let (Some(load), Some(ready)) = (next_upload, clock.upload_ready()) {
                consider((ready + load.host_seconds, d, 1));
            }
        }
        let Some((_, d, op)) = best else { break };
        let clock = &mut clocks[d];
        let link = &mut links[topology.attach[d]];
        if op == 1 {
            // Upload: slot gate, host prep, transfers, then the kernel is
            // chained eagerly — kernel streams are private per device, so its
            // start time is fully determined by the upload.
            let load = loads[d].as_ref()[clock.chunks()];
            clock.start_upload();
            clock.run(Direction::H2d, load.host_seconds, &mut serialized);
            for bytes in load.h2d_bytes {
                if bytes > 0 {
                    per_device_wait[d] +=
                        link.transfer(Direction::H2d, clock, bytes, &mut serialized);
                }
            }
            clock.launch(load.kernel_seconds, &mut serialized);
        } else {
            // Read-back of the oldest kernel-complete chunk.
            let load = loads[d].as_ref()[clock.drained()];
            clock.start_drain();
            if load.d2h_bytes > 0 {
                per_device_wait[d] +=
                    link.transfer(Direction::D2h, clock, load.d2h_bytes, &mut serialized);
            }
            clock.finish_drain();
        }
    }

    let per_device_finish: Vec<f64> = clocks.iter().map(PipelineClock::makespan).collect();
    let makespan = per_device_finish.iter().copied().fold(0.0, f64::max);
    let links = topology
        .links
        .iter()
        .zip(&links)
        .enumerate()
        .map(|(l, (spec, link))| LinkUsage {
            name: spec.name.clone(),
            bandwidth_gb_per_s: spec.bandwidth_gb_per_s,
            devices: topology.attach.iter().filter(|&&a| a == l).count(),
            h2d_bytes: link.h2d.bytes_moved,
            d2h_bytes: link.d2h.bytes_moved,
            busy_seconds: link.h2d.busy_seconds + link.d2h.busy_seconds,
            wait_seconds: link.h2d.wait_seconds + link.d2h.wait_seconds,
            utilization: link
                .h2d
                .utilization(makespan)
                .max(link.d2h.utilization(makespan)),
        })
        .collect();
    ContentionRun {
        makespan_seconds: makespan,
        serialized_seconds: serialized,
        per_device_finish_seconds: per_device_finish,
        per_device_link_wait_seconds: per_device_wait,
        links,
        anomalies: clocks.iter().map(PipelineClock::anomalies).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pascal(n: usize) -> Vec<DeviceSpec> {
        vec![DeviceSpec::gtx_1080_ti(); n]
    }

    #[test]
    fn builders_wire_the_expected_shapes() {
        let devices = pascal(8);
        let private = Topology::independent(&devices);
        assert_eq!(private.links().len(), 8);
        assert!((0..8).all(|d| private.sharers(d) == 1));

        let shared = Topology::shared_root(&devices);
        assert_eq!(shared.links().len(), 1);
        assert_eq!(shared.sharers(0), 8);
        assert!(
            (shared.effective_bandwidth_gb_per_s(0) - devices[0].pcie.bandwidth_gb_per_s() / 8.0)
                .abs()
                < 1e-12
        );

        let switch = Topology::switch(&devices, 3);
        assert_eq!(switch.links().len(), 3);
        assert_eq!(switch.sharers(0), 3);
        // The ragged last switch holds two devices.
        assert_eq!(switch.sharers(7), 2);
        assert_eq!(switch.attach[6], 2);

        let nvlink = Topology::nvlink(&devices);
        assert_eq!(nvlink.link_bandwidth_gb_per_s(0), NVLINK_BANDWIDTH_GB_PER_S);
        assert_eq!(nvlink.sharers(0), 8);
    }

    #[test]
    fn build_dispatches_on_kind_and_labels_match() {
        let devices = pascal(4);
        for (kind, label) in [
            (TopologyKind::Independent, "private"),
            (TopologyKind::SharedRoot, "shared"),
            (TopologyKind::Switch { fanout: 2 }, "switch:2"),
            (TopologyKind::NvLink, "nvlink"),
        ] {
            let topo = Topology::build(kind, &devices);
            assert_eq!(topo.label(), label);
            assert_eq!(kind.label(), label);
            assert_eq!(topo.device_count(), 4);
        }
    }

    #[test]
    fn kind_parses_from_harness_spellings() {
        assert_eq!("private".parse(), Ok(TopologyKind::Independent));
        assert_eq!("independent".parse(), Ok(TopologyKind::Independent));
        assert_eq!("shared".parse(), Ok(TopologyKind::SharedRoot));
        assert_eq!("switch".parse(), Ok(TopologyKind::Switch { fanout: 4 }));
        assert_eq!("switch:3".parse(), Ok(TopologyKind::Switch { fanout: 3 }));
        assert_eq!("nvlink".parse(), Ok(TopologyKind::NvLink));
        assert!("switch:0".parse::<TopologyKind>().is_err());
        assert!("mesh".parse::<TopologyKind>().is_err());
    }

    #[test]
    fn to_independent_keeps_rates_but_drops_sharing() {
        let shared = Topology::shared_root(&pascal(4));
        let private = shared.to_independent();
        assert_eq!(private.device_count(), 4);
        for d in 0..4 {
            assert_eq!(
                private.link_bandwidth_gb_per_s(d),
                shared.link_bandwidth_gb_per_s(d)
            );
            assert_eq!(private.sharers(d), 1);
        }
    }

    #[test]
    fn heterogeneous_groups_take_the_fattest_member_rate() {
        let devices = vec![DeviceSpec::tesla_k20x(), DeviceSpec::gtx_1080_ti()];
        let shared = Topology::shared_root(&devices);
        assert_eq!(
            shared.link_bandwidth_gb_per_s(0),
            DeviceSpec::gtx_1080_ti().pcie.bandwidth_gb_per_s()
        );
    }

    #[test]
    fn weighted_partition_is_exact_and_proportional() {
        let ranges = weighted_partition(100, &[3.0, 1.0]);
        assert_eq!(ranges, vec![(0, 75), (75, 100)]);
        let ranges = weighted_partition(10, &[1.0, 1.0, 1.0]);
        let sizes: Vec<usize> = ranges.iter().map(|(s, e)| e - s).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn weighted_partition_follows_the_weights_and_equal_weights_front_load_the_remainder() {
        let ranges = weighted_partition(100, &[3.0, 1.0, 1.0, 1.0]);
        assert_eq!(ranges[0], (0, 50));
        assert_eq!(ranges.last().unwrap().1, 100);
        assert_eq!(
            weighted_partition(10, &[1.0; 4]),
            vec![(0, 3), (3, 6), (6, 8), (8, 10)],
            "equal weights must give the equal split with the remainder front-loaded"
        );
    }

    #[test]
    fn weighted_partition_handles_degenerate_weights() {
        // All-zero, negative and non-finite weights degrade to equal shares.
        assert_eq!(
            weighted_partition(7, &[0.0, 0.0, 0.0]),
            vec![(0, 3), (3, 5), (5, 7)]
        );
        let ranges = weighted_partition(9, &[f64::NAN, -2.0, 1.0]);
        assert_eq!(ranges.last().unwrap().1, 9);
        // The only sane weight takes everything.
        assert_eq!(ranges[2], (0, 9));
        assert_eq!(weighted_partition(0, &[2.0, 1.0]), vec![(0, 0), (0, 0)]);
    }

    #[test]
    fn contended_pipeline_is_slower_and_uncontended_matches_private() {
        // Two devices, one chunk each, transfer-dominated: on the shared link
        // one transfer stalls a full transfer-time behind the other.
        let devices = pascal(2);
        let loads = vec![
            vec![ChunkLoad {
                host_seconds: 0.001,
                h2d_bytes: [50_000_000, 50_000_000],
                kernel_seconds: 0.002,
                d2h_bytes: 65_536,
            }];
            2
        ];
        let shared = Topology::shared_root(&devices);
        let contended = simulate_contended(&shared, &loads);
        let free = simulate_contended(&shared.to_independent(), &loads);
        assert!(contended.makespan_seconds > free.makespan_seconds);
        assert!(contended.link_wait_seconds() > 0.0);
        assert_eq!(free.link_wait_seconds(), 0.0);
        assert_eq!(contended.anomalies, 0);
        // Device 0 wins the tie at the FIFO arbiter; device 1 eats the stall.
        assert_eq!(contended.per_device_link_wait_seconds[0], 0.0);
        assert!(contended.per_device_link_wait_seconds[1] > 0.0);
        // Byte accounting covers both directions.
        assert_eq!(contended.links[0].h2d_bytes, 200_000_000);
        assert_eq!(contended.links[0].d2h_bytes, 2 * 65_536);
        assert!(contended.links[0].utilization > 0.0);
        assert!(contended.links[0].utilization <= 1.0 + 1e-12);
    }

    #[test]
    fn uncontended_run_matches_a_plain_per_device_timeline_exactly() {
        // On private links the replay must reproduce the device's clock
        // driven stage by stage bit-for-bit: same f64 operations in the same
        // order.
        let devices = pascal(1);
        let pcie = devices[0].pcie;
        let loads = vec![vec![
            ChunkLoad {
                host_seconds: 0.0015,
                h2d_bytes: [655_360, 655_360],
                kernel_seconds: 0.0007,
                d2h_bytes: 65_536,
            };
            5
        ]];
        let run = simulate_contended(&Topology::independent(&devices), &loads);

        let mut clock = PipelineClock::new();
        let mut serialized = 0.0;
        for load in &loads[0] {
            clock.start_upload();
            clock.run(Direction::H2d, load.host_seconds, &mut serialized);
            for bytes in load.h2d_bytes {
                clock.run(
                    Direction::H2d,
                    pcie.transfer_seconds(bytes),
                    &mut serialized,
                );
            }
            clock.launch(load.kernel_seconds, &mut serialized);
            clock.start_drain();
            clock.run(
                Direction::D2h,
                pcie.transfer_seconds(load.d2h_bytes),
                &mut serialized,
            );
            clock.finish_drain();
        }
        assert_eq!(run.makespan_seconds, clock.makespan());
        assert_eq!(run.per_device_finish_seconds[0], clock.makespan());
        assert_eq!(run.serialized_seconds, serialized);
        assert_eq!(run.link_wait_seconds(), 0.0);
    }

    #[test]
    fn slot_gating_limits_in_flight_chunks() {
        // Chunk 0's read-back is slow and chunk 3 carries a long kernel.
        // Chunk 3's upload needs chunk 0's buffer slot, so its kernel can only
        // start after that read-back; without the gate the kernel would
        // finish long before it.
        let devices = pascal(1);
        let pcie = devices[0].pcie;
        let chunk = |kernel_seconds: f64, d2h_bytes: u64| ChunkLoad {
            host_seconds: 0.001,
            h2d_bytes: [1_000_000, 0],
            kernel_seconds,
            d2h_bytes,
        };
        let loads = vec![vec![
            chunk(0.001, 500_000_000),
            chunk(0.001, 0),
            chunk(0.001, 0),
            chunk(0.1, 0),
        ]];
        let run = simulate_contended(&Topology::independent(&devices), &loads);
        let upload = 0.001 + pcie.transfer_seconds(1_000_000);
        let first_drained = upload + 0.001 + pcie.transfer_seconds(500_000_000);
        let expected = first_drained + upload + 0.1;
        assert!(
            (run.makespan_seconds - expected).abs() < 1e-12,
            "makespan {} != {expected}",
            run.makespan_seconds
        );
        assert!(run.makespan_seconds > first_drained + 0.1);
        assert_eq!(run.anomalies, 0);
    }

    #[test]
    fn empty_loads_produce_an_empty_run() {
        let devices = pascal(2);
        let run = simulate_contended(&Topology::shared_root(&devices), &[Vec::new(), Vec::new()]);
        assert_eq!(run.makespan_seconds, 0.0);
        assert_eq!(run.link_wait_seconds(), 0.0);
        assert_eq!(run.links[0].h2d_bytes, 0);
    }

    #[test]
    fn nvlink_hides_the_contention_a_shared_root_exposes() {
        let devices = pascal(8);
        let loads: Vec<Vec<ChunkLoad>> = (0..8)
            .map(|_| {
                vec![
                    ChunkLoad {
                        host_seconds: 0.0001,
                        h2d_bytes: [10_000_000, 10_000_000],
                        kernel_seconds: 0.0005,
                        d2h_bytes: 65_536,
                    };
                    4
                ]
            })
            .collect();
        let root = simulate_contended(&Topology::shared_root(&devices), &loads);
        let nvlink = simulate_contended(&Topology::nvlink(&devices), &loads);
        assert!(nvlink.makespan_seconds < root.makespan_seconds);
        assert!(nvlink.link_wait_seconds() < root.link_wait_seconds());
    }
}
