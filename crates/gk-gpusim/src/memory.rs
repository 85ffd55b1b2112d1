//! Unified-memory cost of one batch: asynchronous prefetch, or on-demand
//! migration by page faults.
//!
//! GateKeeper-GPU allocates its read/reference/result buffers in CUDA *unified
//! memory* (§2.2): a single pointer is valid on both host and device, and pages
//! migrate on demand when a processor touches them. Unified memory does not remove
//! the PCIe transfer — it only changes *when* it happens and at what granularity.
//! **Asynchronous prefetching** decides the cost: it moves whole buffers to the
//! device before the kernel runs, eliminating page faults entirely. Prefetching
//! requires compute capability ≥ 6.x, which is why Setup 2 (Kepler) pays
//! per-page fault overhead and ends up slower in every experiment of the paper.
//!
//! Every batch allocates its buffers fresh in host memory, so the cost follows
//! from the buffer sizes alone: each input buffer moves whole
//! [`PAGE_SIZE`] pages once, by prefetch before the kernel on devices that
//! support it and by first-touch faults inside the kernel (plus
//! [`PAGE_FAULT_LATENCY_S`] per page) on devices that do not. The kernel
//! writes the result buffer without migrating it, so the host's read-back
//! moves nothing. [`MemoryStats::record_batch`] charges one batch and returns
//! its per-stage cost.

use crate::device::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Granularity at which unified memory migrates data (64 KiB fault granule).
pub const PAGE_SIZE: usize = 64 * 1024;

/// Latency charged for servicing one GPU page fault (driver + replay overhead).
pub const PAGE_FAULT_LATENCY_S: f64 = 20e-6;

/// Counters describing all unified-memory traffic of one device so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MemoryStats {
    /// Bytes migrated host → device.
    pub bytes_to_device: u64,
    /// Bytes migrated device → host.
    pub bytes_to_host: u64,
    /// GPU page faults serviced (on-demand migrations without prefetch).
    pub page_faults: u64,
    /// Pages moved by explicit prefetches.
    pub prefetched_pages: u64,
    /// Total time spent on transfers and fault handling, in seconds.
    pub transfer_seconds: f64,
}

/// Modelled unified-memory cost of one batch, by pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchTraffic {
    /// Asynchronous prefetch of both input buffers before the kernel (zero on
    /// devices without prefetch support).
    pub prefetch_seconds: f64,
    /// Page-rounded prefetch bytes per input buffer (reads, reference
    /// segments); zero on devices without prefetch support.
    pub h2d_bytes: [u64; 2],
    /// Fault-driven migration of both input buffers inside the kernel (zero on
    /// devices that prefetch).
    pub fault_seconds: f64,
    /// The host's read-back of the result buffer: zero, because the kernel
    /// never migrates that buffer to the device.
    pub readback_seconds: f64,
    /// Page-rounded result bytes migrating back to the host: zero, like the
    /// read-back seconds.
    pub d2h_bytes: u64,
}

impl MemoryStats {
    /// Charges one batch on `device`: two input buffers (reads and reference
    /// segments) of `input_buffer_bytes` each and a result buffer of
    /// `result_bytes`, all freshly allocated in host memory (like
    /// `cudaMallocManaged`) and freed after the batch. Adds the traffic to
    /// these counters buffer by buffer and returns the batch's cost.
    ///
    /// # Panics
    ///
    /// When the three buffers exceed the device's free global memory: the
    /// system-configuration step sizes every batch to fit (§3.1).
    pub fn record_batch(
        &mut self,
        device: &DeviceSpec,
        input_buffer_bytes: u64,
        result_bytes: u64,
    ) -> BatchTraffic {
        let requested = 2 * input_buffer_bytes + result_bytes;
        let available = device.free_global_memory();
        assert!(
            requested <= available,
            "batch buffers of {requested} bytes exceed the {available} bytes of free device memory"
        );
        let pages = input_buffer_bytes.div_ceil(PAGE_SIZE as u64).max(1);
        let bytes = pages * PAGE_SIZE as u64;
        let mut traffic = BatchTraffic::default();
        for h2d_bytes in &mut traffic.h2d_bytes {
            self.bytes_to_device += bytes;
            let seconds = if device.supports_prefetch() {
                // `cudaMemPrefetchAsync` moves every page before the kernel.
                let seconds = device.pcie.transfer_seconds(bytes);
                self.prefetched_pages += pages;
                traffic.prefetch_seconds += seconds;
                *h2d_bytes = bytes;
                seconds
            } else {
                // The kernel's first touch faults every page in.
                let seconds =
                    device.pcie.transfer_seconds(bytes) + pages as f64 * PAGE_FAULT_LATENCY_S;
                self.page_faults += pages;
                traffic.fault_seconds += seconds;
                seconds
            };
            self.transfer_seconds += seconds;
        }
        traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pascal() -> DeviceSpec {
        DeviceSpec::gtx_1080_ti()
    }

    fn kepler() -> DeviceSpec {
        DeviceSpec::tesla_k20x()
    }

    #[test]
    fn allocation_tracks_bytes_and_pages() {
        // Buffers move whole pages: 1,000,000 bytes round up to 16 pages,
        // and an empty buffer still takes one.
        let mut stats = MemoryStats::default();
        let traffic = stats.record_batch(&pascal(), 1_000_000, 8);
        let pages = 1_000_000usize.div_ceil(PAGE_SIZE) as u64;
        assert_eq!(traffic.h2d_bytes, [pages * PAGE_SIZE as u64; 2]);
        assert_eq!(stats.prefetched_pages, 2 * pages);
        let empty = MemoryStats::default().record_batch(&pascal(), 0, 0);
        assert_eq!(empty.h2d_bytes, [PAGE_SIZE as u64; 2]);
    }

    #[test]
    #[should_panic(expected = "exceed the")]
    fn over_allocation_is_rejected() {
        let device = pascal();
        MemoryStats::default().record_batch(&device, device.global_memory_bytes, 0);
    }

    #[test]
    fn error_messages_are_informative() {
        let device = pascal();
        let available = device.free_global_memory();
        let message = std::panic::catch_unwind(|| {
            MemoryStats::default().record_batch(&device, available / 2, 10)
        })
        .expect_err("over-allocation panics");
        let message = message
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(message.contains(&(available + 10).to_string()), "{message}");
        assert!(message.contains(&available.to_string()), "{message}");
    }

    #[test]
    fn reset_frees_all_buffers() {
        // Every batch frees its buffers: two batches that each fill the free
        // memory exactly both fit.
        let device = pascal();
        let half = device.free_global_memory() / 2;
        let mut stats = MemoryStats::default();
        stats.record_batch(&device, half, 0);
        stats.record_batch(&device, half, 0);
        assert_eq!(
            stats.bytes_to_device,
            4 * half.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64
        );
    }

    #[test]
    fn prefetch_moves_every_page_and_charges_transfer_time() {
        let mut stats = MemoryStats::default();
        let traffic = stats.record_batch(&pascal(), 10 * PAGE_SIZE as u64, 8);
        assert!(traffic.prefetch_seconds > 0.0);
        assert_eq!(stats.prefetched_pages, 20);
        assert_eq!(stats.page_faults, 0);
        assert_eq!(stats.transfer_seconds, traffic.prefetch_seconds);
    }

    #[test]
    fn access_after_prefetch_is_free_of_faults() {
        let mut stats = MemoryStats::default();
        let traffic = stats.record_batch(&pascal(), 4 * PAGE_SIZE as u64, 8);
        assert_eq!(traffic.fault_seconds, 0.0);
        assert_eq!(stats.page_faults, 0);
    }

    #[test]
    fn access_without_prefetch_faults_every_page() {
        // Without prefetch support every page of both input buffers faults:
        // the link time plus one fault latency per page.
        let device = kepler();
        let mut stats = MemoryStats::default();
        let traffic = stats.record_batch(&device, 8 * PAGE_SIZE as u64, 8);
        assert_eq!(stats.page_faults, 16);
        let per_buffer =
            device.pcie.transfer_seconds(8 * PAGE_SIZE as u64) + 8.0 * PAGE_FAULT_LATENCY_S;
        assert_eq!(traffic.fault_seconds, per_buffer + per_buffer);
        assert_eq!(stats.bytes_to_device, 16 * PAGE_SIZE as u64);
    }

    #[test]
    fn kepler_prefetch_is_a_noop_so_kernels_always_fault() {
        let mut stats = MemoryStats::default();
        let traffic = stats.record_batch(&kepler(), 8 * PAGE_SIZE as u64, 8);
        assert_eq!(traffic.prefetch_seconds, 0.0);
        assert_eq!(traffic.h2d_bytes, [0, 0]);
        assert_eq!(stats.prefetched_pages, 0);
        assert!(traffic.fault_seconds > 0.0);
        assert_eq!(stats.page_faults, 16);
    }

    #[test]
    fn faulted_access_is_slower_than_prefetched_transfer() {
        // Same bytes on the same link, but the faulting path pays per-page
        // latency on top.
        let mut device = kepler();
        device.pcie = pascal().pcie;
        let prefetched = MemoryStats::default().record_batch(&pascal(), 64 * PAGE_SIZE as u64, 8);
        let faulted = MemoryStats::default().record_batch(&device, 64 * PAGE_SIZE as u64, 8);
        assert!(faulted.fault_seconds > prefetched.prefetch_seconds);
    }

    #[test]
    fn result_read_back_moves_nothing() {
        // The result buffer is never migrated to the device, so the host
        // reads it in place: 0 bytes in 0 s on either device.
        for device in [pascal(), kepler()] {
            let mut stats = MemoryStats::default();
            let traffic = stats.record_batch(&device, 3 * PAGE_SIZE as u64, 8 * 10_000);
            assert_eq!(traffic.readback_seconds, 0.0);
            assert_eq!(traffic.d2h_bytes, 0);
            assert_eq!(stats.bytes_to_host, 0);
        }
    }
}
