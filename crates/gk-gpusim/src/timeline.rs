//! A multi-stream timeline scheduler with cross-stream dependencies.
//!
//! GateKeeper-GPU's host code keeps three kinds of work in flight at once
//! (§3.4): asynchronous prefetches of the *next* input buffers, the kernel over
//! the *current* batch, and result read-back of the *previous* batch, each on
//! its own CUDA stream chained by events. [`Timeline`] models exactly that: a
//! set of [`Stream`]s that all start at time zero, [`Event`]s recorded on one
//! stream and waited on by another, and a **makespan** — the completion time of
//! the slowest stream *after* all cross-stream waits have been applied — in
//! place of summing each stream's cursor independently.
//!
//! The scheduler is purely simulated time: callers enqueue modelled durations
//! and dependencies, and read back how long the overlapped execution takes
//! versus the serialized sum of all enqueued work.

use crate::stream::{Event, Stream};
use serde::{Deserialize, Serialize};

/// Handle to one stream inside a [`Timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamId(usize);

/// Handle to one shared interconnect link inside a [`Timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkId(usize);

/// A shared interconnect link with FIFO arbitration.
///
/// Streams issue transfers against a link via [`Timeline::enqueue_transfer`];
/// while one transfer occupies the link, a transfer arriving from *another*
/// stream stalls until the link frees up. Serving requests back-to-back at the
/// full link rate moves the same aggregate bytes per second as fair
/// bandwidth-splitting would, but with deterministic per-transfer completion
/// times — which is what the contention model needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Name for reporting (e.g. `"pcie-root"`).
    pub name: String,
    /// Link bandwidth in GB/s (per direction).
    pub bandwidth_gb_per_s: f64,
    busy_until_seconds: f64,
    busy_seconds: f64,
    bytes_moved: u64,
    wait_seconds: f64,
}

impl Link {
    /// Time to move `bytes` across this link when it is free, in seconds.
    /// Identical to [`crate::device::PcieLink::transfer_seconds`] so an
    /// uncontended link reproduces the PCIe model bit-for-bit.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.bandwidth_gb_per_s * 1e9)
    }

    /// Total seconds the link spent moving bytes.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_seconds
    }

    /// Total bytes moved over the link.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Total seconds transfers stalled waiting for the link to free up.
    /// Zero on an uncontended link.
    pub fn wait_seconds(&self) -> f64 {
        self.wait_seconds
    }

    /// Fraction of `horizon_seconds` the link spent busy (0 when the horizon
    /// is empty).
    pub fn utilization(&self, horizon_seconds: f64) -> f64 {
        if horizon_seconds > 0.0 {
            self.busy_seconds / horizon_seconds
        } else {
            0.0
        }
    }
}

/// A set of concurrent streams chained by events, with makespan accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    streams: Vec<Stream>,
    links: Vec<Link>,
    /// Total duration of real operations enqueued (waits excluded): what the
    /// same work would cost executed back-to-back on a single stream.
    serialized_seconds: f64,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// Adds a stream; all streams start at time zero.
    pub fn add_stream(&mut self, name: impl Into<String>) -> StreamId {
        self.streams.push(Stream::new(name));
        StreamId(self.streams.len() - 1)
    }

    /// Enqueues `seconds` of work on a stream and returns the completion event,
    /// ready to be waited on from any other stream.
    pub fn enqueue(&mut self, stream: StreamId, label: impl Into<String>, seconds: f64) -> Event {
        let s = &mut self.streams[stream.0];
        s.enqueue(label, seconds);
        self.serialized_seconds += seconds.max(0.0);
        s.record_event()
    }

    /// Chains `stream` behind `event` (recorded on any stream): subsequent work
    /// on `stream` starts no earlier than the event. Idle gaps are recorded on
    /// the stream under `label` for inspection.
    pub fn wait_event(&mut self, stream: StreamId, label: impl Into<String>, event: &Event) {
        self.streams[stream.0].wait_event(label, event);
    }

    /// Adds a shared interconnect link with the given per-direction bandwidth.
    pub fn add_link(&mut self, name: impl Into<String>, bandwidth_gb_per_s: f64) -> LinkId {
        assert!(
            bandwidth_gb_per_s > 0.0,
            "link bandwidth must be positive, got {bandwidth_gb_per_s}"
        );
        self.links.push(Link {
            name: name.into(),
            bandwidth_gb_per_s,
            busy_until_seconds: 0.0,
            busy_seconds: 0.0,
            bytes_moved: 0,
            wait_seconds: 0.0,
        });
        LinkId(self.links.len() - 1)
    }

    /// Enqueues a transfer of `bytes` on `stream` over the shared `link` and
    /// returns the completion event.
    ///
    /// The transfer starts at the later of the stream's cursor and the moment
    /// the link frees up (FIFO in enqueue order across all streams). When the
    /// link is the constraint, the stall is recorded on the stream as an idle
    /// gap labelled `"link wait: <label>"` and accounted in
    /// [`Link::wait_seconds`]. On a free link this degenerates to
    /// `enqueue(stream, label, link.transfer_seconds(bytes))` exactly, so
    /// uncontended timing is unchanged from the plain-stream model.
    pub fn enqueue_transfer(
        &mut self,
        stream: StreamId,
        link: LinkId,
        label: impl Into<String>,
        bytes: u64,
    ) -> Event {
        let label = label.into();
        let l = &mut self.links[link.0];
        let duration = l.transfer_seconds(bytes);
        let s = &mut self.streams[stream.0];
        if l.busy_until_seconds > s.synchronize() {
            let stall = l.busy_until_seconds - s.synchronize();
            s.wait_until(format!("link wait: {label}"), l.busy_until_seconds);
            l.wait_seconds += stall;
        }
        s.enqueue(label, duration);
        self.serialized_seconds += duration.max(0.0);
        l.busy_until_seconds = s.synchronize();
        l.busy_seconds += duration.max(0.0);
        l.bytes_moved += bytes;
        s.record_event()
    }

    /// The links, in creation order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// One link by id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// The streams, in creation order.
    pub fn streams(&self) -> &[Stream] {
        &self.streams
    }

    /// One stream by id.
    pub fn stream(&self, id: StreamId) -> &Stream {
        &self.streams[id.0]
    }

    /// Completion time of the whole timeline: the slowest stream's cursor after
    /// every cross-stream wait has been applied. This is the overlapped
    /// wall-clock cost the multi-stream prefetching of §3.4 is after.
    pub fn makespan_seconds(&self) -> f64 {
        self.streams
            .iter()
            .map(|s| s.synchronize())
            .fold(0.0, f64::max)
    }

    /// What the same operations would cost executed back-to-back on one stream
    /// (waits contribute nothing). Always ≥ the makespan.
    pub fn serialized_seconds(&self) -> f64 {
        self.serialized_seconds
    }

    /// Time saved by overlapping versus serializing, in seconds.
    pub fn overlap_savings_seconds(&self) -> f64 {
        (self.serialized_seconds() - self.makespan_seconds()).max(0.0)
    }

    /// Total ill-formed durations saturated to zero across all streams (see
    /// [`Stream::anomalies`]). Non-zero means the makespan and serialized sum
    /// are lower bounds: a release build absorbed what a debug build would
    /// have asserted on.
    pub fn anomalies(&self) -> u64 {
        self.streams.iter().map(|s| s.anomalies()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_streams_overlap_fully() {
        let mut tl = Timeline::new();
        let a = tl.add_stream("a");
        let b = tl.add_stream("b");
        tl.enqueue(a, "x", 1.0);
        tl.enqueue(b, "y", 0.7);
        assert_eq!(tl.makespan_seconds(), 1.0);
        assert!((tl.serialized_seconds() - 1.7).abs() < 1e-12);
        assert!((tl.overlap_savings_seconds() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn cross_stream_dependencies_serialize_the_chain() {
        // h2d -> kernel -> d2h for one batch: no overlap is possible, so the
        // makespan equals the serialized sum.
        let mut tl = Timeline::new();
        let h2d = tl.add_stream("h2d");
        let kernel = tl.add_stream("kernel");
        let d2h = tl.add_stream("d2h");
        let up = tl.enqueue(h2d, "copy", 0.3);
        tl.wait_event(kernel, "wait copy", &up);
        let done = tl.enqueue(kernel, "kernel", 0.5);
        tl.wait_event(d2h, "wait kernel", &done);
        tl.enqueue(d2h, "readback", 0.2);
        assert!((tl.makespan_seconds() - 1.0).abs() < 1e-12);
        assert!((tl.serialized_seconds() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pipelined_batches_beat_the_serialized_sum() {
        // Two batches, three stages each: stage i of batch 1 overlaps stage
        // i+1 of batch 0, the classic software-pipeline diagram.
        let mut tl = Timeline::new();
        let h2d = tl.add_stream("h2d");
        let kernel = tl.add_stream("kernel");
        let d2h = tl.add_stream("d2h");
        for batch in 0..2 {
            let up = tl.enqueue(h2d, format!("copy {batch}"), 0.3);
            tl.wait_event(kernel, format!("wait copy {batch}"), &up);
            let done = tl.enqueue(kernel, format!("kernel {batch}"), 0.5);
            tl.wait_event(d2h, format!("wait kernel {batch}"), &done);
            tl.enqueue(d2h, format!("readback {batch}"), 0.2);
        }
        // Serialized: 2.0 s. Overlapped: 0.3 + 0.5 + 0.5 + 0.2 = 1.5 s.
        assert!((tl.serialized_seconds() - 2.0).abs() < 1e-12);
        assert!((tl.makespan_seconds() - 1.5).abs() < 1e-12);
        assert!(tl.overlap_savings_seconds() > 0.0);
    }

    #[test]
    fn streams_are_inspectable() {
        let mut tl = Timeline::new();
        let a = tl.add_stream("h2d");
        let b = tl.add_stream("kernel");
        let up = tl.enqueue(a, "copy", 0.1);
        tl.wait_event(b, "wait copy", &up);
        tl.enqueue(b, "kernel", 0.2);
        assert_eq!(tl.streams().len(), 2);
        assert_eq!(tl.stream(a).name, "h2d");
        // The kernel stream recorded the wait gap and the kernel op.
        assert_eq!(tl.stream(b).len(), 2);
    }

    #[test]
    fn uncontended_transfer_matches_plain_enqueue_exactly() {
        // One stream, one link: enqueue_transfer must be bit-identical to a
        // plain enqueue of transfer_seconds(bytes) — the contention-off
        // equivalence the topology model relies on.
        let bw = 12.608;
        let bytes = 3_145_728u64;
        let mut with_link = Timeline::new();
        let s = with_link.add_stream("h2d");
        let l = with_link.add_link("pcie", bw);
        let done = with_link.enqueue_transfer(s, l, "copy", bytes);
        let mut plain = Timeline::new();
        let p = plain.add_stream("h2d");
        let reference = plain.enqueue(p, "copy", bytes as f64 / (bw * 1e9));
        assert_eq!(done.seconds(), reference.seconds());
        assert_eq!(with_link.makespan_seconds(), plain.makespan_seconds());
        assert_eq!(with_link.link(l).wait_seconds(), 0.0);
        assert_eq!(with_link.link(l).bytes_moved(), bytes);
    }

    #[test]
    fn concurrent_transfers_on_a_shared_link_serialize() {
        // Two streams, each wanting 1 GB at 1 GB/s at time zero: on private
        // links they finish together at 1 s, on a shared link the second
        // stalls behind the first and finishes at 2 s.
        let gb = 1_000_000_000u64;
        let mut tl = Timeline::new();
        let a = tl.add_stream("dev0-h2d");
        let b = tl.add_stream("dev1-h2d");
        let shared = tl.add_link("root", 1.0);
        let first = tl.enqueue_transfer(a, shared, "copy a", gb);
        let second = tl.enqueue_transfer(b, shared, "copy b", gb);
        assert!((first.seconds() - 1.0).abs() < 1e-12);
        assert!((second.seconds() - 2.0).abs() < 1e-12);
        assert!((tl.makespan_seconds() - 2.0).abs() < 1e-12);
        let link = tl.link(shared);
        assert!((link.busy_seconds() - 2.0).abs() < 1e-12);
        assert!((link.wait_seconds() - 1.0).abs() < 1e-12);
        assert_eq!(link.bytes_moved(), 2 * gb);
        // The stall is visible on the stalled stream as a labelled idle gap.
        assert!(tl
            .stream(b)
            .operations()
            .iter()
            .any(|(l, gap)| l == "link wait: copy b" && (*gap - 1.0).abs() < 1e-12));
        // Utilization over the makespan is 100%: the link never idled.
        assert!((link.utilization(tl.makespan_seconds()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn separate_links_do_not_interfere() {
        let gb = 1_000_000_000u64;
        let mut tl = Timeline::new();
        let a = tl.add_stream("dev0-h2d");
        let b = tl.add_stream("dev1-h2d");
        let la = tl.add_link("pcie0", 1.0);
        let lb = tl.add_link("pcie1", 1.0);
        tl.enqueue_transfer(a, la, "copy a", gb);
        tl.enqueue_transfer(b, lb, "copy b", gb);
        assert!((tl.makespan_seconds() - 1.0).abs() < 1e-12);
        assert_eq!(tl.link(la).wait_seconds(), 0.0);
        assert_eq!(tl.link(lb).wait_seconds(), 0.0);
        assert_eq!(tl.links().len(), 2);
    }

    #[test]
    fn link_frees_up_between_staggered_transfers() {
        // The second transfer arrives after the first completed: no stall.
        let mut tl = Timeline::new();
        let a = tl.add_stream("a");
        let b = tl.add_stream("b");
        let shared = tl.add_link("root", 1.0);
        tl.enqueue_transfer(a, shared, "early", 500_000_000);
        tl.enqueue(b, "long host prep", 0.8);
        let late = tl.enqueue_transfer(b, shared, "late", 500_000_000);
        assert!((late.seconds() - 1.3).abs() < 1e-12);
        assert_eq!(tl.link(shared).wait_seconds(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_links_panic() {
        Timeline::new().add_link("broken", 0.0);
    }

    #[test]
    fn empty_timeline_has_zero_makespan() {
        let tl = Timeline::new();
        assert_eq!(tl.makespan_seconds(), 0.0);
        assert_eq!(tl.serialized_seconds(), 0.0);
        assert_eq!(tl.anomalies(), 0);
    }

    #[test]
    fn healthy_timelines_report_zero_anomalies() {
        let mut tl = Timeline::new();
        let a = tl.add_stream("a");
        let b = tl.add_stream("b");
        tl.enqueue(a, "x", 1.0);
        tl.enqueue(b, "y", 0.0);
        assert_eq!(tl.anomalies(), 0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn release_clamps_surface_as_timeline_anomalies() {
        let mut tl = Timeline::new();
        let a = tl.add_stream("a");
        let b = tl.add_stream("b");
        tl.enqueue(a, "bad", -2.0);
        tl.enqueue(b, "also bad", -1.0);
        tl.enqueue(b, "fine", 0.5);
        assert_eq!(tl.anomalies(), 2);
        // The clamped operations contribute nothing to either accounting.
        assert_eq!(tl.makespan_seconds(), 0.5);
        assert_eq!(tl.serialized_seconds(), 0.5);
    }
}
