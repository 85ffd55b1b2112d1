//! The simulated clock of one device's three-stage batch pipeline.
//!
//! GateKeeper-GPU prefetches each input buffer on its own CUDA stream and
//! chains the streams with events (§3.4), so the upload of the next chunk, the
//! kernel over the current one and the read-back of the previous one run at
//! the same time. [`PipelineClock`] keeps that schedule as three cursors — the
//! completion times of the H2D, kernel and D2H streams, in simulated seconds —
//! and the rotation of [`BUFFER_SLOTS`] buffers: chunk *i*'s upload waits for
//! chunk *i − 3*'s read-back to free its slot, its kernel waits for its
//! upload, and its read-back waits for its kernel. The clock keeps no record
//! of the operations themselves, so its state does not grow with the chunk
//! count.
//!
//! A device's own pipeline records each chunk whole with
//! [`PipelineClock::record`]; the contention replay
//! ([`crate::topology::simulate_contended`]) drives one clock per device stage
//! by stage and adds only the FIFO arbitration of the shared links.
//!
//! Durations must be non-negative. A negative or NaN duration is a caller
//! bug: debug builds assert, and release builds clamp it to zero and count it
//! in [`PipelineClock::anomalies`], so the cursors never run backwards and the
//! distortion stays visible.

/// Number of buffer slots rotating through the three pipeline stages: chunk
/// *i*'s upload may only start once chunk *i − 3*'s read-back has freed a slot.
pub const BUFFER_SLOTS: usize = 3;

/// Modelled stage durations of one chunk, as [`PipelineClock::record`] takes
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkStageSeconds {
    /// Host stage: buffer preparation + encoding + asynchronous H2D prefetch.
    pub h2d_seconds: f64,
    /// Device stage: on-demand page faults (prefetch-less devices) + kernel.
    pub kernel_seconds: f64,
    /// Drain stage: result read-back to the host.
    pub d2h_seconds: f64,
}

/// One of the two transfer streams (PCIe is full duplex).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// Host to device: host preparation and the input uploads.
    H2d,
    /// Device to host: the result read-back.
    D2h,
}

/// One device's H2D, kernel and D2H cursors with the buffer-slot rotation.
#[derive(Debug, Clone, Default)]
pub struct PipelineClock {
    h2d: f64,
    kernel: f64,
    d2h: f64,
    /// Read-back completion times by chunk index modulo `BUFFER_SLOTS`: chunk
    /// *i*'s upload waits on the entry chunk *i − 3*'s read-back wrote (zero
    /// for the first chunks).
    drained: [f64; BUFFER_SLOTS],
    /// Kernel completion times of the chunks awaiting their read-back, by
    /// chunk index modulo `BUFFER_SLOTS`.
    computed: [f64; BUFFER_SLOTS],
    uploads: usize,
    drains: usize,
    anomalies: u64,
}

impl PipelineClock {
    /// A clock at time zero with every buffer slot free.
    pub fn new() -> PipelineClock {
        PipelineClock::default()
    }

    /// Records one whole chunk: its upload waits for a free buffer slot, its
    /// kernel for its upload, its read-back for its kernel, and each stream
    /// serializes its own chunks, which is what lets adjacent chunks overlap
    /// across streams. Adds each stage's duration to `serialized`, in stage
    /// order.
    pub fn record(&mut self, stages: &ChunkStageSeconds, serialized: &mut f64) {
        self.start_upload();
        self.run(Direction::H2d, stages.h2d_seconds, serialized);
        self.launch(stages.kernel_seconds, serialized);
        self.start_drain();
        self.run(Direction::D2h, stages.d2h_seconds, serialized);
        self.finish_drain();
    }

    /// Chunks uploaded so far; every recorded chunk counts.
    pub fn chunks(&self) -> usize {
        self.uploads
    }

    /// Completion time of everything recorded so far: the latest cursor.
    pub fn makespan(&self) -> f64 {
        [self.h2d, self.kernel, self.d2h]
            .into_iter()
            .fold(0.0, f64::max)
    }

    /// Ill-formed durations clamped to zero so far. Non-zero means a release
    /// build absorbed what a debug build would have asserted on, and the
    /// makespan is a lower bound from that point on.
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }

    /// Chunks whose read-back has finished.
    pub(crate) fn drained(&self) -> usize {
        self.drains
    }

    /// When the next upload may start: the later of the H2D cursor and the
    /// moment its buffer slot frees. `None` while every slot is in flight.
    pub(crate) fn upload_ready(&self) -> Option<f64> {
        (self.uploads < self.drains + BUFFER_SLOTS)
            .then(|| self.h2d.max(self.drained[self.uploads % BUFFER_SLOTS]))
    }

    /// When the oldest computed chunk's read-back may start. `None` when no
    /// kernel awaits its read-back.
    pub(crate) fn drain_ready(&self) -> Option<f64> {
        (self.drains < self.uploads)
            .then(|| self.d2h.max(self.computed[self.drains % BUFFER_SLOTS]))
    }

    /// Starts the next upload: the H2D stream waits until its buffer slot
    /// frees.
    ///
    /// # Panics
    ///
    /// When every slot is in flight ([`PipelineClock::upload_ready`] is
    /// `None`).
    pub(crate) fn start_upload(&mut self) {
        assert!(
            self.uploads < self.drains + BUFFER_SLOTS,
            "an upload needs a free buffer slot"
        );
        self.h2d = self.h2d.max(self.drained[self.uploads % BUFFER_SLOTS]);
    }

    /// Runs the uploaded chunk's kernel once the H2D stream has finished it,
    /// which completes the upload.
    pub(crate) fn launch(&mut self, seconds: f64, serialized: &mut f64) {
        self.kernel = self.kernel.max(self.h2d);
        let seconds = self.checked(seconds);
        self.kernel += seconds;
        *serialized += seconds;
        self.computed[self.uploads % BUFFER_SLOTS] = self.kernel;
        self.uploads += 1;
    }

    /// Starts the read-back of the oldest computed chunk: the D2H stream
    /// waits for its kernel.
    ///
    /// # Panics
    ///
    /// When no kernel awaits its read-back.
    pub(crate) fn start_drain(&mut self) {
        assert!(
            self.drains < self.uploads,
            "a read-back needs a computed chunk"
        );
        self.d2h = self.d2h.max(self.computed[self.drains % BUFFER_SLOTS]);
    }

    /// Ends the current read-back: its buffer slot frees at the D2H cursor.
    pub(crate) fn finish_drain(&mut self) {
        self.drained[self.drains % BUFFER_SLOTS] = self.d2h;
        self.drains += 1;
    }

    /// The cursor of one transfer stream.
    pub(crate) fn cursor(&self, direction: Direction) -> f64 {
        match direction {
            Direction::H2d => self.h2d,
            Direction::D2h => self.d2h,
        }
    }

    /// Makes a transfer stream wait until `at_seconds`; a no-op when the
    /// cursor is already there.
    pub(crate) fn wait(&mut self, direction: Direction, at_seconds: f64) {
        let cursor = self.cursor_mut(direction);
        *cursor = cursor.max(at_seconds);
    }

    /// Runs `seconds` of work on a transfer stream and adds it to
    /// `serialized`. Returns the duration after clamping.
    pub(crate) fn run(&mut self, direction: Direction, seconds: f64, serialized: &mut f64) -> f64 {
        let seconds = self.checked(seconds);
        *self.cursor_mut(direction) += seconds;
        *serialized += seconds;
        seconds
    }

    fn cursor_mut(&mut self, direction: Direction) -> &mut f64 {
        match direction {
            Direction::H2d => &mut self.h2d,
            Direction::D2h => &mut self.d2h,
        }
    }

    /// The one duration check: asserts in debug builds, clamps to zero and
    /// counts in release builds.
    fn checked(&mut self, seconds: f64) -> f64 {
        debug_assert!(
            seconds >= 0.0,
            "negative duration {seconds} on the pipeline clock"
        );
        if seconds < 0.0 || seconds.is_nan() {
            self.anomalies += 1;
        }
        seconds.max(0.0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One chunk's stage durations.
    pub(crate) fn stages(
        h2d_seconds: f64,
        kernel_seconds: f64,
        d2h_seconds: f64,
    ) -> ChunkStageSeconds {
        ChunkStageSeconds {
            h2d_seconds,
            kernel_seconds,
            d2h_seconds,
        }
    }

    #[test]
    fn stage_steps_reproduce_a_recorded_chunk_bit_for_bit() {
        // The contention replay drives the clock stage by stage; on a free
        // link that must equal recording the chunk whole.
        let chunk = stages(0.0015, 0.0007, 0.0002);
        let mut whole = PipelineClock::new();
        let mut whole_serialized = 0.0;
        let mut steps = PipelineClock::new();
        let mut steps_serialized = 0.0;
        for _ in 0..5 {
            whole.record(&chunk, &mut whole_serialized);
            steps.start_upload();
            steps.run(Direction::H2d, chunk.h2d_seconds, &mut steps_serialized);
            steps.launch(chunk.kernel_seconds, &mut steps_serialized);
            steps.start_drain();
            steps.run(Direction::D2h, chunk.d2h_seconds, &mut steps_serialized);
            steps.finish_drain();
        }
        assert_eq!(whole.makespan(), steps.makespan());
        assert_eq!(whole_serialized, steps_serialized);
    }

    #[test]
    fn every_slot_in_flight_blocks_the_next_upload() {
        let mut clock = PipelineClock::new();
        let mut serialized = 0.0;
        for _ in 0..BUFFER_SLOTS {
            clock.start_upload();
            clock.launch(1.0, &mut serialized);
        }
        assert_eq!(clock.upload_ready(), None);
        assert_eq!(clock.drain_ready(), Some(1.0));
        clock.start_drain();
        clock.run(Direction::D2h, 0.5, &mut serialized);
        clock.finish_drain();
        // The freed slot is the first read-back's completion.
        assert_eq!(clock.upload_ready(), Some(1.5));
    }
}
