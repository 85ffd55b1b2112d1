//! CUDA-stream and event style timeline bookkeeping.
//!
//! GateKeeper-GPU submits each input buffer's prefetch to a different stream so the
//! migrations overlap (§3.4), and measures kernel time with the CUDA Event API
//! (§4.3). The simulator models a stream as a monotonically growing timeline of
//! simulated seconds; events capture timeline positions so elapsed times can be
//! read back exactly like `cudaEventElapsedTime`.

use serde::{Deserialize, Serialize};

/// A simulated CUDA stream: an ordered timeline of enqueued work.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Stream {
    /// Name for reporting (e.g. `"prefetch-reads"`).
    pub name: String,
    cursor_seconds: f64,
    operations: Vec<(String, f64)>,
    /// Number of ill-formed durations that were saturated to zero (see
    /// [`Stream::enqueue`]). Always `0` on a healthy timeline; release builds
    /// surface the count instead of silently distorting makespans.
    anomalies: u64,
}

impl Stream {
    /// Creates an empty stream.
    pub fn new(name: impl Into<String>) -> Stream {
        Stream {
            name: name.into(),
            cursor_seconds: 0.0,
            operations: Vec::new(),
            anomalies: 0,
        }
    }

    /// Enqueues an operation lasting `seconds`; returns its completion time.
    ///
    /// Durations must be non-negative (NaN is ill-formed too): a bad duration
    /// is a caller bug (debug builds assert), and in release builds it is
    /// **saturated to zero** so the timeline stays monotonic rather than
    /// silently running backwards — with the clamp recorded in
    /// [`Stream::anomalies`] so release-mode distortion is observable instead
    /// of silent.
    pub fn enqueue(&mut self, label: impl Into<String>, seconds: f64) -> f64 {
        debug_assert!(
            seconds >= 0.0,
            "negative duration {seconds} enqueued on stream `{}`",
            self.name
        );
        if seconds < 0.0 || seconds.is_nan() {
            self.anomalies += 1;
        }
        let seconds = seconds.max(0.0);
        self.cursor_seconds += seconds;
        self.operations.push((label.into(), seconds));
        self.cursor_seconds
    }

    /// Makes all subsequently enqueued work wait for `event`, which may have been
    /// recorded on *another* stream (`cudaStreamWaitEvent`) — the cross-stream
    /// dependency primitive the batch pipeline uses to chain H2D → kernel → D2H
    /// stages across streams. If the event lies beyond this stream's current
    /// cursor, the idle gap is recorded as a zero-work operation labelled
    /// `label` so timelines stay inspectable. Returns the new cursor position.
    pub fn wait_event(&mut self, label: impl Into<String>, event: &Event) -> f64 {
        if event.at_seconds > self.cursor_seconds {
            let gap = event.at_seconds - self.cursor_seconds;
            self.cursor_seconds = event.at_seconds;
            self.operations.push((label.into(), gap));
        }
        self.cursor_seconds
    }

    /// Makes all subsequently enqueued work wait until the absolute timeline
    /// position `at_seconds` — the raw-time twin of [`Stream::wait_event`],
    /// used by the [`Timeline`](crate::timeline::Timeline) link arbiter to
    /// stall a transfer behind another stream's traffic on a shared
    /// interconnect. A position at or before the cursor is a no-op; otherwise
    /// the idle gap is recorded under `label`. Returns the new cursor.
    pub fn wait_until(&mut self, label: impl Into<String>, at_seconds: f64) -> f64 {
        if at_seconds > self.cursor_seconds {
            let gap = at_seconds - self.cursor_seconds;
            self.cursor_seconds = at_seconds;
            self.operations.push((label.into(), gap));
        }
        self.cursor_seconds
    }

    /// Records an event at the current end of the stream.
    pub fn record_event(&self) -> Event {
        Event {
            at_seconds: self.cursor_seconds,
        }
    }

    /// Blocks (conceptually) until all enqueued work completes; returns the total
    /// stream time.
    pub fn synchronize(&self) -> f64 {
        self.cursor_seconds
    }

    /// Number of operations enqueued so far.
    pub fn len(&self) -> usize {
        self.operations.len()
    }

    /// True when no work has been enqueued.
    pub fn is_empty(&self) -> bool {
        self.operations.is_empty()
    }

    /// The enqueued operations, in order, as (label, duration seconds).
    pub fn operations(&self) -> &[(String, f64)] {
        &self.operations
    }

    /// Number of ill-formed durations saturated to zero on this stream.
    /// Non-zero means a release build hit a condition that would have asserted
    /// in a debug build; the makespan is a lower bound from that point on.
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }
}

/// A simulated CUDA event: a point on a stream's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    at_seconds: f64,
}

impl Event {
    /// Timeline position of the event, in seconds.
    pub fn seconds(&self) -> f64 {
        self.at_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enqueue_accumulates_time_in_order() {
        let mut s = Stream::new("test");
        assert!(s.is_empty());
        let t1 = s.enqueue("prefetch", 0.5);
        let t2 = s.enqueue("kernel", 1.5);
        assert_eq!(t1, 0.5);
        assert_eq!(t2, 2.0);
        assert_eq!(s.synchronize(), 2.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "negative duration")]
    fn negative_durations_assert_in_debug_builds() {
        let mut s = Stream::new("test");
        s.enqueue("weird", -1.0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn negative_durations_are_clamped_and_counted_in_release_builds() {
        let mut s = Stream::new("test");
        s.enqueue("weird", -1.0);
        assert_eq!(s.synchronize(), 0.0);
        // The clamp is observable: the stream records the anomaly.
        assert_eq!(s.anomalies(), 1);
        s.enqueue("nan", f64::NAN);
        assert_eq!(s.anomalies(), 2);
        s.enqueue("fine", 0.5);
        assert_eq!(s.anomalies(), 2);
        assert_eq!(s.synchronize(), 0.5);
    }

    #[test]
    fn healthy_streams_record_no_anomalies() {
        let mut s = Stream::new("test");
        s.enqueue("a", 0.1);
        s.enqueue("b", 0.0);
        assert_eq!(s.anomalies(), 0);
    }

    #[test]
    fn events_measure_elapsed_time() {
        let mut s = Stream::new("test");
        let start = s.record_event();
        s.enqueue("kernel", 0.25);
        let end = s.record_event();
        assert!((end.seconds() - start.seconds() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn wait_event_advances_the_cursor_across_streams() {
        let mut producer = Stream::new("h2d");
        let mut consumer = Stream::new("kernel");
        producer.enqueue("prefetch", 1.0);
        let uploaded = producer.record_event();
        // The consumer has done less work, so the wait inserts an idle gap.
        consumer.enqueue("kernel batch 0", 0.4);
        let cursor = consumer.wait_event("wait h2d", &uploaded);
        assert_eq!(cursor, 1.0);
        consumer.enqueue("kernel batch 1", 0.5);
        assert_eq!(consumer.synchronize(), 1.5);
        // A wait on an already-passed event is a no-op and records nothing.
        let before = consumer.len();
        consumer.wait_event("stale wait", &uploaded);
        assert_eq!(consumer.len(), before);
        assert_eq!(consumer.synchronize(), 1.5);
    }

    #[test]
    fn operations_are_recorded_with_labels() {
        let mut s = Stream::new("ops");
        s.enqueue("prefetch reads", 0.1);
        s.enqueue("kernel", 0.2);
        let labels: Vec<&str> = s.operations().iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, vec!["prefetch reads", "kernel"]);
    }
}
