//! The in-kernel encode-stage model of the device encoding actor (§3.3).
//!
//! When the device encodes, every GPU thread packs its own read and candidate
//! reference segment into 2-bit words at the top of a **fused encode+filter
//! kernel** before running the GateKeeper bitwise phase. The model here
//! charges that work the way the rest of the simulator does — in per-thread
//! cycles — and captures the two system-level consequences the paper's
//! encoding-actor analysis turns on:
//!
//! * **transfer accounting** — the H2D buffers carry raw ASCII
//!   (1 byte/base) instead of packed words (¼ byte/base), so the PCIe link
//!   moves ~4× the bytes (the pipeline charges the raw arena's actual
//!   footprint);
//! * **occupancy impact** — the fused kernel keeps the encode scratch
//!   (current word accumulator, base cursor, undefined flag) live alongside
//!   the filter state, costing a handful of extra registers per thread
//!   ([`KernelResources::gatekeeper_gpu_device_encode`]). At GateKeeper-GPU's
//!   maximum-size 1024-thread blocks both variants fit exactly one block per
//!   SM, so the §5.4.1 theoretical occupancy of 50% is unchanged — but at the
//!   256-thread blocks the paper's occupancy discussion also considers, the
//!   extra registers cost a residency step (62.5% → 50%).
//!
//! The per-base encode cost is calibrated so a 100 bp pair's in-kernel encode
//! (~6.5k cycles) stays small next to its filter phase (`(2e+1)` masks × 7
//! words × [`crate::executor`] mask-word cost ≈ 63k cycles at e = 4),
//! reproducing the paper's observation that device encoding is effectively
//! free on the kernel side while host encoding dominates filter time.

use crate::device::DeviceSpec;
use crate::occupancy::KernelResources;

/// Modelled device cycles each thread spends packing one base (load, LUT
/// translate, shift-or into the word accumulator).
pub const ENCODE_CYCLES_PER_BASE: u64 = 32;

/// Fixed per-thread encode setup cost (pointer math, word flush, undefined
/// flag write-back).
pub const ENCODE_CYCLES_PER_THREAD: u64 = 120;

/// Extra registers the fused encode+filter kernel keeps live versus the
/// plain filter kernel's 48 (§5.4.1).
pub const ENCODE_EXTRA_REGISTERS: u32 = 6;

/// Modelled cycles one thread spends encoding `bases` raw bases in the fused
/// kernel (both sequences of a pair: pass `2 × read_len`).
pub fn encode_cycles(bases: u64) -> u64 {
    ENCODE_CYCLES_PER_THREAD + bases * ENCODE_CYCLES_PER_BASE
}

impl KernelResources {
    /// The fused encode+filter kernel of the device encoding actor: the
    /// GateKeeper-GPU launch shape with [`ENCODE_EXTRA_REGISTERS`] more
    /// registers per thread for the encode scratch.
    pub fn gatekeeper_gpu_device_encode(device: &DeviceSpec) -> KernelResources {
        let base = KernelResources::gatekeeper_gpu(device);
        KernelResources {
            registers_per_thread: base.registers_per_thread + ENCODE_EXTRA_REGISTERS,
            ..base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::theoretical_occupancy;

    #[test]
    fn encode_cost_is_linear_in_bases_with_a_fixed_setup() {
        assert_eq!(encode_cycles(0), ENCODE_CYCLES_PER_THREAD);
        let pair_100bp = encode_cycles(200);
        assert_eq!(
            pair_100bp,
            ENCODE_CYCLES_PER_THREAD + 200 * ENCODE_CYCLES_PER_BASE
        );
        // Small next to the e = 4 filter phase (~63k mask-word cycles).
        assert!(pair_100bp < 10_000);
    }

    #[test]
    fn fused_kernel_keeps_50_percent_occupancy_at_full_blocks() {
        // §5.4.1: one 1024-thread block per SM either way — the encode
        // registers do not change the headline 50% theoretical occupancy.
        let device = DeviceSpec::gtx_1080_ti();
        let plain = theoretical_occupancy(&device, &KernelResources::gatekeeper_gpu(&device));
        let fused = theoretical_occupancy(
            &device,
            &KernelResources::gatekeeper_gpu_device_encode(&device),
        );
        assert!((plain.occupancy - 0.5).abs() < 1e-9);
        assert!((fused.occupancy - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fused_kernel_costs_a_residency_step_at_256_thread_blocks() {
        let device = DeviceSpec::gtx_1080_ti();
        let small = |registers_per_thread| {
            theoretical_occupancy(
                &device,
                &KernelResources {
                    registers_per_thread,
                    threads_per_block: 256,
                    shared_memory_per_block: 0,
                },
            )
        };
        let plain = small(KernelResources::gatekeeper_gpu(&device).registers_per_thread);
        let fused =
            small(KernelResources::gatekeeper_gpu_device_encode(&device).registers_per_thread);
        assert!(
            fused.occupancy < plain.occupancy,
            "fused {} !< plain {}",
            fused.occupancy,
            plain.occupancy
        );
    }
}
