//! Timing breakdowns and throughput metrics.
//!
//! The paper reports two time measurements for every filtering run (§4.3):
//!
//! * **kernel time** — time spent on the device only, summed over the batched
//!   kernel calls (CUDA Event API);
//! * **filter time** — total time from the host's perspective, including host-side
//!   preparation, encoding and data transfer.
//!
//! Throughput is expressed as "billions of filtrations in 40 minutes" (Tables 2,
//! S.13–S.15) or "millions of filtrations per second" (Figures 6–8).

use gk_gpusim::topology::{ContentionRun, LinkUsage};
use serde::{Deserialize, Serialize};

/// Time breakdown of one filtering run.
///
/// All fields except [`TimingBreakdown::host_wall_seconds`] are *simulated*
/// seconds derived deterministically from the workload; `host_wall_seconds` is
/// the **measured** wall-clock the host actually spent producing the run
/// (encode + kernel closure + bookkeeping). Equality compares the simulated
/// components only — two runs over the same input are "equal" even though
/// their measured wall-clock inevitably differs, which is what lets the
/// determinism suites compare whole run structs.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct TimingBreakdown {
    /// Host-side buffer preparation (batching reads and candidate indices).
    pub host_prep_seconds: f64,
    /// 2-bit encoding time (host encoding only; zero when the device encodes).
    pub encode_seconds: f64,
    /// Share of [`TimingBreakdown::kernel_seconds`] the fused encode+filter
    /// kernel spent packing raw bases on the *device* (device encoding only;
    /// zero when the host encodes). This is an attribution split **inside**
    /// the kernel time, not an extra component — it is deliberately excluded
    /// from [`TimingBreakdown::serialized_seconds`] so the two encode modes
    /// stay comparable: the host path pays `encode_seconds` on top of its
    /// kernel, the device path pays `encode_device_seconds` inside it.
    pub encode_device_seconds: f64,
    /// Host↔device data movement (unified-memory migrations and prefetches).
    pub transfer_seconds: f64,
    /// Device execution time, summed over batched kernel calls.
    pub kernel_seconds: f64,
    /// Result read-back time.
    pub readback_seconds: f64,
    /// End-to-end makespan of the stream-overlapped pipeline, when the run was
    /// executed with overlap enabled: encode+H2D of chunk *i+1* hides under the
    /// kernel of chunk *i* while D2H of chunk *i−1* drains, so this is smaller
    /// than the serialized component sum. `None` for serialized runs.
    pub overlapped_seconds: Option<f64>,
    /// **Measured** host wall-clock of the run in seconds: the time this
    /// process actually spent preparing, encoding and executing the chunks,
    /// one after another (not simulated). Excluded from equality.
    pub host_wall_seconds: f64,
}

impl PartialEq for TimingBreakdown {
    /// Simulated components only; `host_wall_seconds` is measurement noise.
    fn eq(&self, other: &TimingBreakdown) -> bool {
        self.host_prep_seconds == other.host_prep_seconds
            && self.encode_seconds == other.encode_seconds
            && self.encode_device_seconds == other.encode_device_seconds
            && self.transfer_seconds == other.transfer_seconds
            && self.kernel_seconds == other.kernel_seconds
            && self.readback_seconds == other.readback_seconds
            && self.overlapped_seconds == other.overlapped_seconds
    }
}

impl TimingBreakdown {
    /// The serialized filter time: the plain sum of every component, i.e. what
    /// the run costs when no stage overlap is exploited (the pre-pipeline
    /// behaviour, and the paper's per-component accounting of §4.3).
    pub fn serialized_seconds(&self) -> f64 {
        self.host_prep_seconds
            + self.encode_seconds
            + self.transfer_seconds
            + self.kernel_seconds
            + self.readback_seconds
    }

    /// Filter time: everything the host observes (§4.3: "Filter time represents the
    /// total time spent for filtering, including host operations such as data
    /// transfer and encoding the sequences"). For stream-overlapped runs this is
    /// the pipeline makespan; otherwise the serialized component sum.
    pub fn filter_seconds(&self) -> f64 {
        self.overlapped_seconds
            .unwrap_or_else(|| self.serialized_seconds())
    }

    /// Time the stream overlap saved versus serializing the same work (zero for
    /// serialized runs).
    pub fn overlap_savings_seconds(&self) -> f64 {
        (self.serialized_seconds() - self.filter_seconds()).max(0.0)
    }

    /// Fraction of the serialized filter time spent 2-bit encoding **on the
    /// host**. This is the share the device encoding actor eliminates: with
    /// device encode the packing happens inside the kernel (tracked as
    /// [`TimingBreakdown::encode_device_seconds`]) and this drops to zero.
    pub fn host_encode_share(&self) -> f64 {
        let total = self.serialized_seconds();
        if total <= 0.0 {
            0.0
        } else {
            self.encode_seconds / total
        }
    }

    /// Adds another breakdown (e.g. accumulating per-batch times). Components
    /// add up; the overlapped makespans of two runs executed one after the
    /// other also add (and an overlapped run accumulated with a serialized one
    /// keeps an overlapped total so `filter_seconds` stays consistent).
    pub fn accumulate(&mut self, other: &TimingBreakdown) {
        let combined_overlap = match (self.overlapped_seconds, other.overlapped_seconds) {
            (None, None) => None,
            _ => Some(self.filter_seconds() + other.filter_seconds()),
        };
        self.host_prep_seconds += other.host_prep_seconds;
        self.encode_seconds += other.encode_seconds;
        self.encode_device_seconds += other.encode_device_seconds;
        self.transfer_seconds += other.transfer_seconds;
        self.kernel_seconds += other.kernel_seconds;
        self.readback_seconds += other.readback_seconds;
        self.host_wall_seconds += other.host_wall_seconds;
        self.overlapped_seconds = combined_overlap;
    }
}

/// Interconnect accounting of one multi-GPU run: the same per-device chunk
/// loads replayed twice through `gk_gpusim::topology::simulate_contended` —
/// once on the configured topology (shared links serialize concurrent
/// transfers) and once on its private-link twin (the paper's implicit
/// free-overlap assumption). The gap between the two makespans is what the
/// interconnect costs; the existing kernel/filter-time fields of the run never
/// include it, so all pre-topology numbers stay bit-for-bit unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterconnectReport {
    /// Topology label (`private`, `shared`, `switch:4`, `nvlink`, …).
    pub topology: String,
    /// Whether the topology-aware scheduler produced the shard plan.
    pub aware: bool,
    /// Replay on the configured topology, contention included.
    pub contended: ContentionRun,
    /// Replay of the *same* loads with every device on a private link at the
    /// same per-transfer rate — the contention-off baseline.
    pub uncontended: ContentionRun,
}

impl InterconnectReport {
    /// End-to-end makespan under contention (the headline number).
    pub fn makespan_seconds(&self) -> f64 {
        self.contended.makespan_seconds
    }

    /// Seconds the shared links add over the private-link baseline.
    pub fn contention_penalty_seconds(&self) -> f64 {
        (self.contended.makespan_seconds - self.uncontended.makespan_seconds).max(0.0)
    }

    /// Contended-over-uncontended makespan ratio (≥ 1 whenever links are
    /// shared; 1 exactly on private links).
    pub fn contention_slowdown(&self) -> f64 {
        if self.uncontended.makespan_seconds <= 0.0 {
            1.0
        } else {
            self.contended.makespan_seconds / self.uncontended.makespan_seconds
        }
    }

    /// Total seconds transfers stalled behind other devices' link traffic.
    pub fn link_wait_seconds(&self) -> f64 {
        self.contended.link_wait_seconds()
    }

    /// Per-link traffic/stall/utilization rows of the contended replay.
    pub fn links(&self) -> &[LinkUsage] {
        &self.contended.links
    }
}

/// Filtrations per second given a pair count and elapsed seconds.
pub fn pairs_per_second(pairs: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        pairs as f64 / seconds
    }
}

/// The paper's headline throughput unit: billions of filtrations completed in
/// 40 minutes at the measured rate (§4.3).
pub fn billions_in_40_minutes(pairs: usize, seconds: f64) -> f64 {
    pairs_per_second(pairs, seconds) * 40.0 * 60.0 / 1e9
}

/// Millions of filtrations per second (the unit of Figures 6–8).
pub fn millions_per_second(pairs: usize, seconds: f64) -> f64 {
    pairs_per_second(pairs, seconds) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_time_is_the_sum_of_components() {
        let t = TimingBreakdown {
            host_prep_seconds: 1.0,
            encode_seconds: 2.0,
            transfer_seconds: 3.0,
            kernel_seconds: 4.0,
            readback_seconds: 0.5,
            ..Default::default()
        };
        assert!((t.filter_seconds() - 10.5).abs() < 1e-12);
        assert!((t.serialized_seconds() - 10.5).abs() < 1e-12);
        assert_eq!(t.overlap_savings_seconds(), 0.0);
    }

    #[test]
    fn overlapped_runs_report_the_makespan_as_filter_time() {
        let t = TimingBreakdown {
            host_prep_seconds: 1.0,
            encode_seconds: 2.0,
            transfer_seconds: 3.0,
            kernel_seconds: 4.0,
            readback_seconds: 0.5,
            overlapped_seconds: Some(6.5),
            ..Default::default()
        };
        assert!((t.filter_seconds() - 6.5).abs() < 1e-12);
        assert!((t.serialized_seconds() - 10.5).abs() < 1e-12);
        assert!((t.overlap_savings_seconds() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn accumulating_overlapped_breakdowns_adds_makespans() {
        let mut a = TimingBreakdown {
            kernel_seconds: 2.0,
            transfer_seconds: 1.0,
            overlapped_seconds: Some(2.5),
            ..Default::default()
        };
        let b = TimingBreakdown {
            kernel_seconds: 1.0,
            ..Default::default()
        };
        a.accumulate(&b);
        // Overlapped 2.5 s followed by serialized 1.0 s.
        assert_eq!(a.overlapped_seconds, Some(3.5));
        assert!((a.serialized_seconds() - 4.0).abs() < 1e-12);
        assert!((a.filter_seconds() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn accumulate_adds_componentwise() {
        let mut a = TimingBreakdown {
            kernel_seconds: 1.0,
            ..Default::default()
        };
        let b = TimingBreakdown {
            kernel_seconds: 2.0,
            encode_seconds: 0.5,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.kernel_seconds, 3.0);
        assert_eq!(a.encode_seconds, 0.5);
    }

    #[test]
    fn measured_wall_clock_is_excluded_from_equality_but_accumulates() {
        let mut a = TimingBreakdown {
            kernel_seconds: 1.0,
            host_wall_seconds: 3.0,
            ..Default::default()
        };
        let b = TimingBreakdown {
            kernel_seconds: 1.0,
            host_wall_seconds: 99.0,
            ..Default::default()
        };
        // Same simulated splits, wildly different measured wall-clock: equal.
        assert_eq!(a, b);
        a.accumulate(&b);
        assert_eq!(a.host_wall_seconds, 102.0);
        assert_eq!(a.kernel_seconds, 2.0);
    }

    #[test]
    fn device_encode_split_stays_inside_the_kernel_time() {
        // encode_device_seconds is an attribution split of kernel_seconds, so
        // the serialized sum must not double-count it.
        let t = TimingBreakdown {
            host_prep_seconds: 1.0,
            transfer_seconds: 2.0,
            kernel_seconds: 4.0,
            encode_device_seconds: 0.5,
            readback_seconds: 0.5,
            ..Default::default()
        };
        assert!((t.serialized_seconds() - 7.5).abs() < 1e-12);
        assert_eq!(t.host_encode_share(), 0.0);
        let host = TimingBreakdown {
            encode_seconds: 2.5,
            kernel_seconds: 2.5,
            ..Default::default()
        };
        assert!((host.host_encode_share() - 0.5).abs() < 1e-12);
        assert_eq!(TimingBreakdown::default().host_encode_share(), 0.0);
        // The split participates in equality and accumulation.
        let mut a = t;
        assert_ne!(
            a,
            TimingBreakdown {
                encode_device_seconds: 0.0,
                ..t
            }
        );
        a.accumulate(&t);
        assert_eq!(a.encode_device_seconds, 1.0);
    }

    #[test]
    fn interconnect_report_derives_penalty_and_slowdown() {
        let run = |makespan: f64| ContentionRun {
            makespan_seconds: makespan,
            serialized_seconds: makespan * 2.0,
            per_device_finish_seconds: vec![makespan],
            per_device_link_wait_seconds: vec![0.5],
            links: Vec::new(),
            anomalies: 0,
        };
        let report = InterconnectReport {
            topology: "shared".to_string(),
            aware: false,
            contended: run(3.0),
            uncontended: run(2.0),
        };
        assert_eq!(report.makespan_seconds(), 3.0);
        assert!((report.contention_penalty_seconds() - 1.0).abs() < 1e-12);
        assert!((report.contention_slowdown() - 1.5).abs() < 1e-12);
        assert!((report.link_wait_seconds() - 0.5).abs() < 1e-12);
        // A private topology never reports a negative penalty or < 1 slowdown.
        let private = InterconnectReport {
            topology: "private".to_string(),
            aware: true,
            contended: run(2.0),
            uncontended: run(2.0),
        };
        assert_eq!(private.contention_penalty_seconds(), 0.0);
        assert_eq!(private.contention_slowdown(), 1.0);
        let empty = InterconnectReport {
            topology: "private".to_string(),
            aware: false,
            contended: run(0.0),
            uncontended: run(0.0),
        };
        assert_eq!(empty.contention_slowdown(), 1.0);
    }

    #[test]
    fn throughput_units_are_consistent() {
        // 30 M pairs in 0.29 s (paper's Setup 1 kernel time at e = 2) is ~248 B/40 min.
        let b = billions_in_40_minutes(30_000_000, 0.29);
        assert!(b > 240.0 && b < 260.0, "b = {b}");
        let m = millions_per_second(30_000_000, 0.29);
        assert!(m > 100.0 && m < 110.0, "m = {m}");
    }

    #[test]
    fn zero_elapsed_time_gives_zero_throughput() {
        assert_eq!(pairs_per_second(100, 0.0), 0.0);
        assert_eq!(billions_in_40_minutes(100, 0.0), 0.0);
        assert_eq!(millions_per_second(100, -1.0), 0.0);
    }
}
