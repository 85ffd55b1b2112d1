//! Unified memory simulation: page residency, on-demand migration and
//! asynchronous prefetching.
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
//! The simulator models a buffer as an array of pages with a residency flag and
//! charges: PCIe transfer time for every migrated byte, plus a fixed fault-handling
//! latency per faulted page when the access was not prefetched.

use crate::device::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Granularity at which unified memory migrates data (64 KiB fault granule).
pub const PAGE_SIZE: usize = 64 * 1024;

/// Latency charged for servicing one GPU page fault (driver + replay overhead).
pub const PAGE_FAULT_LATENCY_S: f64 = 20e-6;

/// Where a page currently resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Residency {
    /// Page is in host memory.
    Host,
    /// Page is resident on the device.
    Device,
}

/// A buffer allocated in unified memory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnifiedBuffer {
    /// Buffer identifier (index into the [`UnifiedMemory`] arena).
    pub id: usize,
    /// Logical size in bytes.
    pub size_bytes: u64,
    /// Residency per page.
    residency: Vec<Residency>,
}

impl UnifiedBuffer {
    fn new(id: usize, size_bytes: u64) -> UnifiedBuffer {
        let pages = (size_bytes as usize).div_ceil(PAGE_SIZE).max(1);
        UnifiedBuffer {
            id,
            size_bytes,
            residency: vec![Residency::Host; pages],
        }
    }

    /// Number of pages backing the buffer.
    pub fn page_count(&self) -> usize {
        self.residency.len()
    }

    /// Number of pages currently resident on the device.
    pub fn device_resident_pages(&self) -> usize {
        self.residency
            .iter()
            .filter(|r| **r == Residency::Device)
            .count()
    }
}

/// Counters describing all unified-memory traffic so far.
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

/// A unified-memory arena attached to one device.
#[derive(Debug, Clone)]
pub struct UnifiedMemory {
    device: DeviceSpec,
    buffers: Vec<UnifiedBuffer>,
    stats: MemoryStats,
    allocated_bytes: u64,
}

/// Errors returned by unified-memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// Allocation would exceed the device's free global memory.
    OutOfMemory {
        /// Bytes requested by the failed allocation.
        requested: u64,
        /// Bytes still available on the device.
        available: u64,
    },
    /// Unknown buffer id.
    InvalidBuffer(usize),
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "unified memory allocation of {requested} bytes exceeds available {available} bytes"
            ),
            MemoryError::InvalidBuffer(id) => write!(f, "invalid unified buffer id {id}"),
        }
    }
}

impl std::error::Error for MemoryError {}

impl UnifiedMemory {
    /// Creates a unified-memory arena for a device.
    pub fn new(device: DeviceSpec) -> UnifiedMemory {
        UnifiedMemory {
            device,
            buffers: Vec::new(),
            stats: MemoryStats::default(),
            allocated_bytes: 0,
        }
    }

    /// The device this arena belongs to.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Allocates a buffer of `size_bytes` (like `cudaMallocManaged`).
    pub fn alloc(&mut self, size_bytes: u64) -> Result<usize, MemoryError> {
        let available = self.device.free_global_memory()
            - self.allocated_bytes.min(self.device.free_global_memory());
        if size_bytes > available {
            return Err(MemoryError::OutOfMemory {
                requested: size_bytes,
                available,
            });
        }
        let id = self.buffers.len();
        self.buffers.push(UnifiedBuffer::new(id, size_bytes));
        self.allocated_bytes += size_bytes;
        Ok(id)
    }

    /// Frees every buffer (end of a batch).
    pub fn reset(&mut self) {
        self.buffers.clear();
        self.allocated_bytes = 0;
    }

    /// Returns the buffer with the given id.
    pub fn buffer(&self, id: usize) -> Result<&UnifiedBuffer, MemoryError> {
        self.buffers.get(id).ok_or(MemoryError::InvalidBuffer(id))
    }

    /// Asynchronously prefetches the whole buffer to the device
    /// (`cudaMemPrefetchAsync`). Returns the modelled transfer time, which the
    /// caller typically charges to the H2D stream of a
    /// [`PipelineClock`](crate::clock::PipelineClock) so it overlaps with host
    /// work. Devices below compute capability 6.x do not support prefetching
    /// and the call is a no-op returning zero.
    pub fn prefetch_to_device(&mut self, id: usize) -> Result<f64, MemoryError> {
        if !self.device.supports_prefetch() {
            return Ok(0.0);
        }
        let pcie = self.device.pcie;
        let buffer = self
            .buffers
            .get_mut(id)
            .ok_or(MemoryError::InvalidBuffer(id))?;
        let mut moved_pages = 0u64;
        for page in buffer.residency.iter_mut() {
            if *page == Residency::Host {
                *page = Residency::Device;
                moved_pages += 1;
            }
        }
        let bytes = moved_pages * PAGE_SIZE as u64;
        let seconds = pcie.transfer_seconds(bytes);
        self.stats.bytes_to_device += bytes;
        self.stats.prefetched_pages += moved_pages;
        self.stats.transfer_seconds += seconds;
        Ok(seconds)
    }

    /// Models the device touching the whole buffer during a kernel. Pages that are
    /// not resident fault and migrate on demand; the returned time covers the
    /// migration plus per-page fault latency.
    pub fn access_from_device(&mut self, id: usize) -> Result<f64, MemoryError> {
        let pcie = self.device.pcie;
        let buffer = self
            .buffers
            .get_mut(id)
            .ok_or(MemoryError::InvalidBuffer(id))?;
        let mut faulted_pages = 0u64;
        for page in buffer.residency.iter_mut() {
            if *page == Residency::Host {
                *page = Residency::Device;
                faulted_pages += 1;
            }
        }
        let bytes = faulted_pages * PAGE_SIZE as u64;
        let seconds = pcie.transfer_seconds(bytes) + faulted_pages as f64 * PAGE_FAULT_LATENCY_S;
        self.stats.bytes_to_device += bytes;
        self.stats.page_faults += faulted_pages;
        self.stats.transfer_seconds += seconds;
        Ok(seconds)
    }

    /// Models the host reading back the buffer after the kernel (result buffers).
    pub fn access_from_host(&mut self, id: usize) -> Result<f64, MemoryError> {
        let pcie = self.device.pcie;
        let buffer = self
            .buffers
            .get_mut(id)
            .ok_or(MemoryError::InvalidBuffer(id))?;
        let mut migrated = 0u64;
        for page in buffer.residency.iter_mut() {
            if *page == Residency::Device {
                *page = Residency::Host;
                migrated += 1;
            }
        }
        let bytes = migrated * PAGE_SIZE as u64;
        let seconds = pcie.transfer_seconds(bytes);
        self.stats.bytes_to_host += bytes;
        self.stats.transfer_seconds += seconds;
        Ok(seconds)
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> MemoryStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pascal() -> UnifiedMemory {
        UnifiedMemory::new(DeviceSpec::gtx_1080_ti())
    }

    fn kepler() -> UnifiedMemory {
        UnifiedMemory::new(DeviceSpec::tesla_k20x())
    }

    #[test]
    fn allocation_tracks_bytes_and_pages() {
        let mut mem = pascal();
        let id = mem.alloc(1_000_000).unwrap();
        assert_eq!(mem.allocated_bytes, 1_000_000);
        let buffer = mem.buffer(id).unwrap();
        assert_eq!(buffer.page_count(), 1_000_000usize.div_ceil(PAGE_SIZE));
        assert_eq!(buffer.device_resident_pages(), 0);
    }

    #[test]
    fn over_allocation_is_rejected() {
        let mut mem = pascal();
        let too_big = mem.device().global_memory_bytes * 2;
        assert!(matches!(
            mem.alloc(too_big),
            Err(MemoryError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn prefetch_moves_every_page_and_charges_transfer_time() {
        let mut mem = pascal();
        let id = mem.alloc(10 * PAGE_SIZE as u64).unwrap();
        let t = mem.prefetch_to_device(id).unwrap();
        assert!(t > 0.0);
        assert_eq!(mem.buffer(id).unwrap().device_resident_pages(), 10);
        assert_eq!(mem.stats().prefetched_pages, 10);
        assert_eq!(mem.stats().page_faults, 0);
    }

    #[test]
    fn access_after_prefetch_is_free_of_faults() {
        let mut mem = pascal();
        let id = mem.alloc(4 * PAGE_SIZE as u64).unwrap();
        mem.prefetch_to_device(id).unwrap();
        let t = mem.access_from_device(id).unwrap();
        assert_eq!(t, 0.0);
        assert_eq!(mem.stats().page_faults, 0);
    }

    #[test]
    fn access_without_prefetch_faults_every_page() {
        let mut mem = pascal();
        let id = mem.alloc(8 * PAGE_SIZE as u64).unwrap();
        let t = mem.access_from_device(id).unwrap();
        assert!(t > 0.0);
        assert_eq!(mem.stats().page_faults, 8);
    }

    #[test]
    fn kepler_prefetch_is_a_noop_so_kernels_always_fault() {
        let mut mem = kepler();
        let id = mem.alloc(8 * PAGE_SIZE as u64).unwrap();
        let prefetch_time = mem.prefetch_to_device(id).unwrap();
        assert_eq!(prefetch_time, 0.0);
        assert_eq!(mem.stats().prefetched_pages, 0);
        let t = mem.access_from_device(id).unwrap();
        assert!(t > 0.0);
        assert_eq!(mem.stats().page_faults, 8);
    }

    #[test]
    fn faulted_access_is_slower_than_prefetched_transfer() {
        // Same bytes, but the faulting path pays per-page latency on top.
        let mut a = pascal();
        let id_a = a.alloc(64 * PAGE_SIZE as u64).unwrap();
        let prefetch_time = a.prefetch_to_device(id_a).unwrap();

        let mut b = pascal();
        let id_b = b.alloc(64 * PAGE_SIZE as u64).unwrap();
        let fault_time = b.access_from_device(id_b).unwrap();
        assert!(fault_time > prefetch_time);
    }

    #[test]
    fn host_access_migrates_back() {
        let mut mem = pascal();
        let id = mem.alloc(3 * PAGE_SIZE as u64).unwrap();
        mem.prefetch_to_device(id).unwrap();
        let t = mem.access_from_host(id).unwrap();
        assert!(t > 0.0);
        assert_eq!(mem.buffer(id).unwrap().device_resident_pages(), 0);
        assert_eq!(mem.stats().bytes_to_host, 3 * PAGE_SIZE as u64);
    }

    #[test]
    fn reset_frees_all_buffers() {
        let mut mem = pascal();
        mem.alloc(1_000).unwrap();
        mem.alloc(2_000).unwrap();
        mem.reset();
        assert_eq!(mem.allocated_bytes, 0);
        assert!(matches!(mem.buffer(0), Err(MemoryError::InvalidBuffer(0))));
    }

    #[test]
    fn invalid_buffer_ids_error() {
        let mut mem = pascal();
        assert!(matches!(
            mem.prefetch_to_device(42),
            Err(MemoryError::InvalidBuffer(42))
        ));
        assert!(matches!(
            mem.access_from_device(42),
            Err(MemoryError::InvalidBuffer(42))
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        let err = MemoryError::OutOfMemory {
            requested: 10,
            available: 5,
        };
        assert!(err.to_string().contains("10"));
        assert!(MemoryError::InvalidBuffer(3).to_string().contains('3'));
    }
}
