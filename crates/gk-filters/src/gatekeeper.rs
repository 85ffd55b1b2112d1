//! The GateKeeper filtering algorithm — original and GPU-improved variants.
//!
//! GateKeeper (§2.1) decides whether a pair can align within `e` edits using only
//! bitwise operations:
//!
//! 1. encode both sequences in 2 bits per base;
//! 2. XOR them to obtain the *Hamming mask* (1 = mismatching base);
//! 3. for every `k = 1..=e`, shift the read by `k` bases to the right (deletions)
//!    and to the left (insertions) and XOR each shifted copy with the reference,
//!    yielding `2e` more masks;
//! 4. *amend* each mask by turning streaks of `0`s shorter than three bases into
//!    `1`s (random 1–2 base matches carry no information and would otherwise hide
//!    errors during the AND);
//! 5. AND all `2e + 1` masks and count the errors left in the final bitvector; the
//!    pair is rejected when the count exceeds `e`.
//!
//! The GPU implementation adds two things (§3.4):
//!
//! * **carry-bit transfer** between the words of the encoded read during shifts —
//!   the GPU has no 200-bit registers, so every shift must propagate bits across
//!   the word array (implemented in [`crate::words`]);
//! * the **leading/trailing bit fix**: a shift vacates `k` positions whose bits
//!   are `0` in the shifted mask even though they correspond to comparisons against
//!   bases outside the segment and should count as potential errors. GateKeeper-GPU
//!   ORs `1`s into those positions after amendment, which removes a whole class of
//!   false accepts (up to 52× fewer than GateKeeper-FPGA / SHD) and keeps the
//!   filter functional at high error thresholds where the original collapses.
//!
//! Error counting follows the window/LUT semantics of the GateKeeper hardware
//! ([`EditCounting::WindowedRuns`]): the final bitvector is charged `⌈L / 3⌉` edits
//! per maximal streak of `L` ones, so edits whose separating matches were merged by
//! the amendment pass are never over-counted (the zero-false-reject property the
//! paper reports) while grossly dissimilar pairs still accumulate far more than `e`
//! errors and are rejected. The raw popcount is available as
//! [`EditCounting::Popcount`] for ablation studies.

use crate::simd::{gatekeeper_filter_block_slices, SimdMode};
use crate::traits::{FilterDecision, PreAlignmentFilter};
use crate::words::{shift_left_bases, shift_right_bases, xor_to_base_mask_reference};
use gk_seq::PackedSeq;
use serde::{Deserialize, Serialize};

/// How the errors remaining in the final bitvector are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EditCounting {
    /// Windowed LUT counting: each maximal streak of `L` ones counts as
    /// `⌈L / (amendment length + 1)⌉` edits (GateKeeper hardware semantics; never
    /// over-counts amended streaks, so no false rejects).
    WindowedRuns,
    /// Every 1 bit counts as one edit (stricter; rejects more pairs but can reject
    /// pairs whose amended masks merged adjacent edits — used only for ablation).
    Popcount,
}

/// Configuration of one GateKeeper kernel instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GateKeeperConfig {
    /// Error threshold `e`.
    pub threshold: u32,
    /// Apply the GateKeeper-GPU leading/trailing bit fix (§3.4).
    pub improved_boundaries: bool,
    /// Error counting scheme for the final bitvector.
    pub counting: EditCounting,
    /// Maximum zero-run length flipped by the amendment pass (the paper and SHD use
    /// 2: streaks of one or two matches between errors are considered noise).
    pub amend_run_len: usize,
    /// Pass pairs containing `N` through the filter unexamined (GateKeeper-GPU
    /// behaviour, §3.3). The FPGA/SHD baselines have no such handling.
    pub pass_undefined: bool,
}

impl GateKeeperConfig {
    /// GateKeeper-GPU configuration for error threshold `e`.
    pub fn gpu(threshold: u32) -> GateKeeperConfig {
        GateKeeperConfig {
            threshold,
            improved_boundaries: true,
            counting: EditCounting::WindowedRuns,
            amend_run_len: 2,
            pass_undefined: true,
        }
    }

    /// Original GateKeeper (FPGA) / SHD configuration for error threshold `e`.
    pub fn fpga(threshold: u32) -> GateKeeperConfig {
        GateKeeperConfig {
            threshold,
            improved_boundaries: false,
            counting: EditCounting::WindowedRuns,
            amend_run_len: 2,
            pass_undefined: false,
        }
    }
}

/// Runs the GateKeeper algorithm on a pre-encoded pair, one bit at a time.
///
/// This is the per-thread device function of GateKeeper-GPU: one call is one
/// *filtration* (§3.1). The caller is responsible for the undefined-pair check
/// when [`GateKeeperConfig::pass_undefined`] is in effect.
///
/// Per-bit reference twin of [`crate::simd::gatekeeper_kernel_x4`]: every mask
/// operation is a per-bit loop, so this is the measured "scalar" baseline of
/// the SIMD layer, the path of every pair the lanes cannot take, and the
/// oracle of the differential test suite — its decisions must be
/// byte-identical to the lane kernel's.
pub fn gatekeeper_kernel_reference(
    read: &PackedSeq,
    reference: &PackedSeq,
    config: &GateKeeperConfig,
) -> FilterDecision {
    let len = read.len().min(reference.len());
    if len == 0 {
        return FilterDecision::accept(0);
    }
    let e = config.threshold;
    let window = config.amend_run_len + 1;

    // Hamming mask: exact-match detection.
    let mut hamming = xor_to_base_mask_reference(read.words(), reference.words(), len);

    if e == 0 {
        // Exact matching: any difference rejects the pair.
        let errors = match config.counting {
            EditCounting::WindowedRuns => hamming.count_edits_windowed_reference(window),
            EditCounting::Popcount => hamming.count_ones(),
        };
        return if hamming.count_ones() == 0 {
            FilterDecision::accept(0)
        } else {
            FilterDecision::reject(errors.max(1))
        };
    }

    // Approximate matching: build the shifted masks. Shift distances are
    // clamped below the sequence length: a shift by `k ≥ len` vacates every
    // position, so its mask carries no alignment information — with the
    // boundary fix it is all 1s (AND-neutral) and without it it compares the
    // reference against nothing. Building those masks anyway used to make the
    // mask count (and the allocation) proportional to `e` even for `e` far
    // beyond the read length, which for huge thresholds aborted on allocation;
    // `e ≥ len` now degrades to the full set of meaningful shifts.
    let max_shift = (e as usize).min(len.saturating_sub(1));
    hamming.amend_short_zero_runs_reference(config.amend_run_len);
    // The Hamming mask seeds the running AND; each shifted mask is folded in
    // as soon as it is built, so no `2e + 1` mask vector is ever held.
    let mut combined = hamming;

    for k in 1..=max_shift {
        // Deletion mask: read shifted towards higher positions by k bases.
        let shifted = shift_right_bases(read.words(), k);
        let mut del_mask = xor_to_base_mask_reference(&shifted, reference.words(), len);
        del_mask.amend_short_zero_runs_reference(config.amend_run_len);
        if config.improved_boundaries {
            // The first k positions were vacated by the shift; the comparison there
            // is against bases outside the read and must signal a potential error.
            del_mask.set_range_reference(0, k.min(len));
        }
        combined.and_assign(&del_mask);

        // Insertion mask: read shifted towards lower positions by k bases.
        let shifted = shift_left_bases(read.words(), k);
        let mut ins_mask = xor_to_base_mask_reference(&shifted, reference.words(), len);
        ins_mask.amend_short_zero_runs_reference(config.amend_run_len);
        if config.improved_boundaries {
            // The last k positions were vacated by the shift.
            ins_mask.set_range_reference(len.saturating_sub(k), len);
        }
        combined.and_assign(&ins_mask);
    }

    let errors = match config.counting {
        EditCounting::WindowedRuns => combined.count_edits_windowed_reference(window),
        EditCounting::Popcount => combined.count_ones(),
    };
    if errors <= e {
        FilterDecision::accept(errors)
    } else {
        FilterDecision::reject(errors)
    }
}

/// A GateKeeper-family pre-alignment filter: one mask pipeline, three
/// configurations the paper compares.
///
/// This type runs the *algorithm* on the host; the batched, device-simulated
/// system (configuration, unified-memory buffers, kernel launches, multi-GPU)
/// lives in the `gk-core` crate and runs the same block functions
/// ([`crate::simd::gatekeeper_filter_block_packed`] and
/// [`crate::simd::gatekeeper_filter_block_slices`]).
#[derive(Debug, Clone)]
pub struct GateKeeperFilter {
    name: &'static str,
    config: GateKeeperConfig,
    /// Resolved against `GK_SIMD` once, at construction — not per pair.
    simd: SimdMode,
}

impl GateKeeperFilter {
    /// GateKeeper-GPU (this paper): the improved algorithm with the
    /// leading/trailing-bit fix of §3.4, for error threshold `e`.
    pub fn gpu(threshold: u32) -> GateKeeperFilter {
        GateKeeperFilter::with_config(GateKeeperConfig::gpu(threshold))
    }

    /// The original FPGA GateKeeper (no leading/trailing fix, no `N`
    /// handling), for error threshold `e`.
    pub fn fpga(threshold: u32) -> GateKeeperFilter {
        GateKeeperFilter::named("GateKeeper-FPGA", GateKeeperConfig::fpga(threshold))
    }

    /// Shifted Hamming Distance (SHD), for error threshold `e`. The
    /// bit-parallel algorithm is the one GateKeeper was built from; its
    /// accept/reject decisions match GateKeeper-FPGA (the paper's comparison
    /// tables list identical false-accept counts for the two).
    pub fn shd(threshold: u32) -> GateKeeperFilter {
        GateKeeperFilter::named("SHD", GateKeeperConfig::fpga(threshold))
    }

    /// A GateKeeper-GPU filter with a fully custom configuration (for
    /// ablation).
    pub fn with_config(config: GateKeeperConfig) -> GateKeeperFilter {
        GateKeeperFilter::named("GateKeeper-GPU", config)
    }

    fn named(name: &'static str, config: GateKeeperConfig) -> GateKeeperFilter {
        GateKeeperFilter {
            name,
            config,
            simd: SimdMode::Auto.resolve(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GateKeeperConfig {
        &self.config
    }
}

impl PreAlignmentFilter for GateKeeperFilter {
    fn name(&self) -> &str {
        self.name
    }

    fn threshold(&self) -> u32 {
        self.config.threshold
    }

    fn filter_block(&self, pairs: &[(&[u8], &[u8])]) -> Vec<FilterDecision> {
        gatekeeper_filter_block_slices(pairs, &self.config, self.simd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_align::edit_distance;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, rng: &mut StdRng) -> Vec<u8> {
        (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect()
    }

    #[test]
    fn exact_match_is_accepted_at_every_threshold() {
        let seq: Vec<u8> = (0..100).map(|i| b"ACGT"[i % 4]).collect();
        for e in [0u32, 2, 5, 10] {
            let filter = GateKeeperFilter::gpu(e);
            let d = filter.filter_pair(&seq, &seq);
            assert!(d.accepted, "e = {e}");
            assert_eq!(d.estimated_edits, 0);
        }
    }

    #[test]
    fn zero_threshold_is_exact_hamming_match() {
        let a: Vec<u8> = (0..100).map(|i| b"ACGT"[i % 4]).collect();
        let mut b = a.clone();
        let filter = GateKeeperFilter::gpu(0);
        assert!(filter.filter_pair(&a, &b).accepted);
        b[50] = if b[50] == b'A' { b'C' } else { b'A' };
        assert!(!filter.filter_pair(&a, &b).accepted);
    }

    #[test]
    fn substitutions_within_threshold_are_accepted() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_seq(100, &mut rng);
        let mut b = a.clone();
        // 3 well-separated substitutions.
        for &pos in &[10usize, 50, 90] {
            b[pos] = match b[pos] {
                b'A' => b'C',
                b'C' => b'G',
                b'G' => b'T',
                _ => b'A',
            };
        }
        let filter = GateKeeperFilter::gpu(3);
        let d = filter.filter_pair(&b, &a);
        assert!(d.accepted);
        assert!(d.estimated_edits <= 3);
    }

    #[test]
    fn single_indel_within_threshold_is_accepted() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_seq(100, &mut rng);
        // Delete base 40 from the read and pad the end.
        let mut read = a.clone();
        read.remove(40);
        read.push(b'A');
        let filter = GateKeeperFilter::gpu(2);
        assert!(filter.filter_pair(&read, &a).accepted);
    }

    #[test]
    fn dissimilar_pair_is_rejected() {
        let a = vec![b'A'; 100];
        let b: Vec<u8> = (0..100).map(|i| b"CGTC"[i % 4]).collect();
        for e in [1u32, 3, 5] {
            let filter = GateKeeperFilter::gpu(e);
            assert!(!filter.filter_pair(&a, &b).accepted, "e = {e}");
        }
    }

    /// The central accuracy property of the paper: GateKeeper-GPU never rejects a
    /// pair whose true edit distance is within the threshold.
    #[test]
    fn no_false_rejects_on_randomised_pairs() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..300 {
            let len = 100;
            let e = rng.gen_range(0u32..=10);
            let reference = random_seq(len, &mut rng);
            let read = gk_seq::simulate::mutate_with_edits(&reference, e as usize, 0.3, &mut rng);
            let true_distance = edit_distance(&read, &reference);
            if true_distance <= e {
                let filter = GateKeeperFilter::gpu(e);
                let d = filter.filter_pair(&read, &reference);
                assert!(
                    d.accepted,
                    "false reject: e = {e}, true distance = {true_distance}"
                );
            }
        }
    }

    #[test]
    fn gpu_variant_accepts_no_more_pairs_than_fpga_in_aggregate() {
        // The boundary fix adds 1s to the shifted masks, so across a population the
        // improved filter accepts at most as many pairs as the original — this is
        // the "up to 52× fewer false accepts" headline of the paper in miniature.
        let mut rng = StdRng::seed_from_u64(4);
        let mut gpu_accepts = 0usize;
        let mut fpga_accepts = 0usize;
        for _ in 0..400 {
            let reference = random_seq(100, &mut rng);
            let edits = rng.gen_range(0usize..20);
            let read = gk_seq::simulate::mutate_with_edits(&reference, edits, 0.4, &mut rng);
            let e = rng.gen_range(1u32..=10);
            if GateKeeperFilter::gpu(e)
                .filter_pair(&read, &reference)
                .accepted
            {
                gpu_accepts += 1;
            }
            if GateKeeperFilter::fpga(e)
                .filter_pair(&read, &reference)
                .accepted
            {
                fpga_accepts += 1;
            }
        }
        assert!(
            gpu_accepts <= fpga_accepts,
            "GPU accepted {gpu_accepts} pairs, FPGA accepted {fpga_accepts}"
        );
    }

    #[test]
    fn undefined_pairs_pass_through_gpu_but_not_fpga() {
        let read = b"ACGTNACGTACGTACGTACG".to_vec();
        let reference = b"TTTTTTTTTTTTTTTTTTTT".to_vec();
        let gpu = GateKeeperFilter::gpu(2).filter_pair(&read, &reference);
        assert!(gpu.accepted && gpu.undefined);
        let fpga = GateKeeperFilter::fpga(2).filter_pair(&read, &reference);
        assert!(!fpga.undefined);
        assert!(!fpga.accepted); // the N encodes as A and the pair is hugely different
    }

    #[test]
    fn shd_matches_gatekeeper_fpga_decisions() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let reference = random_seq(150, &mut rng);
            let edits = rng.gen_range(0usize..25);
            let read = gk_seq::simulate::mutate_with_edits(&reference, edits, 0.3, &mut rng);
            let e = rng.gen_range(0u32..=15);
            let shd = GateKeeperFilter::shd(e).filter_pair(&read, &reference);
            let fpga = GateKeeperFilter::fpga(e).filter_pair(&read, &reference);
            assert_eq!(shd.accepted, fpga.accepted);
            assert_eq!(shd.estimated_edits, fpga.estimated_edits);
        }
    }

    #[test]
    fn popcount_counting_is_at_least_as_strict_as_runs() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let reference = random_seq(100, &mut rng);
            let read = gk_seq::simulate::mutate_with_edits(&reference, 6, 0.3, &mut rng);
            let runs_cfg = GateKeeperConfig::gpu(5);
            let pop_cfg = GateKeeperConfig {
                counting: EditCounting::Popcount,
                ..runs_cfg
            };
            let runs = GateKeeperFilter::with_config(runs_cfg).filter_pair(&read, &reference);
            let pop = GateKeeperFilter::with_config(pop_cfg).filter_pair(&read, &reference);
            if pop.accepted {
                assert!(runs.accepted);
            }
        }
    }

    #[test]
    fn estimated_edits_lower_bound_behaviour() {
        // The estimate is approximate but for an accepted pair it never exceeds e.
        let mut rng = StdRng::seed_from_u64(7);
        let reference = random_seq(250, &mut rng);
        let read = gk_seq::simulate::mutate_with_edits(&reference, 5, 0.2, &mut rng);
        let filter = GateKeeperFilter::gpu(10);
        let d = filter.filter_pair(&read, &reference);
        if d.accepted {
            assert!(d.estimated_edits <= 10);
        }
    }

    #[test]
    fn empty_pair_is_accepted() {
        let filter = GateKeeperFilter::gpu(3);
        assert!(filter.filter_pair(b"", b"").accepted);
    }

    /// Regression: thresholds at and beyond the read length. The shifted masks
    /// for `k ≥ len` are fully vacated (all 1s after the boundary fix), so the
    /// filter must behave exactly as with every meaningful shift built — and
    /// since any two length-`len` sequences align within `len` edits, `e ≥ len`
    /// must accept every pair, never blanket-reject or blow up.
    #[test]
    fn thresholds_at_and_beyond_read_length_are_well_defined() {
        let mut rng = StdRng::seed_from_u64(8);
        let len = 24usize;
        for _ in 0..50 {
            let a = random_seq(len, &mut rng);
            let b = random_seq(len, &mut rng);
            let reference = GateKeeperFilter::gpu(len as u32 - 1).filter_pair(&a, &b);
            for e in [len as u32, len as u32 + 1, 4 * len as u32] {
                let d = GateKeeperFilter::gpu(e).filter_pair(&a, &b);
                // e ≥ len: true distance ≤ len ≤ e, so everything is accepted…
                assert!(d.accepted, "e = {e} must accept");
                assert!(d.estimated_edits <= len as u32);
                // …and the degenerate shifts change nothing versus e = len − 1
                // beyond the threshold comparison itself.
                assert_eq!(d.estimated_edits, reference.estimated_edits);
            }
            // The FPGA variant's masks for k < len are unchanged by the clamp.
            let fpga_low = GateKeeperFilter::fpga(len as u32 - 1).filter_pair(&a, &b);
            let fpga_high = GateKeeperFilter::fpga(2 * len as u32).filter_pair(&a, &b);
            assert!(fpga_high.accepted);
            assert!(fpga_low.estimated_edits >= fpga_high.estimated_edits);
        }
    }

    /// Regression: a huge threshold used to allocate `2e + 1` masks up front
    /// (hundreds of gigabytes for `e = u32::MAX`), aborting the process. The
    /// shift clamp bounds the mask count by the read length instead.
    #[test]
    fn huge_thresholds_do_not_allocate_per_error_masks() {
        let read = b"ACGTACGTACGTACGT";
        let reference = b"TGCATGCATGCATGCA";
        for e in [100_000u32, u32::MAX] {
            let d = GateKeeperFilter::gpu(e).filter_pair(read, reference);
            assert!(d.accepted, "e = {e}");
            assert!(d.estimated_edits <= read.len() as u32);
            let fpga = GateKeeperFilter::fpga(e).filter_pair(read, reference);
            assert!(fpga.accepted, "e = {e}");
        }
    }

    #[test]
    fn single_base_pairs_survive_any_threshold() {
        for e in [0u32, 1, 2, 100] {
            let same = GateKeeperFilter::gpu(e).filter_pair(b"A", b"A");
            assert!(same.accepted, "e = {e}");
            let diff = GateKeeperFilter::gpu(e).filter_pair(b"A", b"T");
            // A single substitution: rejected only under exact matching.
            assert_eq!(diff.accepted, e >= 1, "e = {e}");
        }
    }

    #[test]
    fn filter_metadata() {
        let f = GateKeeperFilter::gpu(4);
        assert_eq!(f.name(), "GateKeeper-GPU");
        assert_eq!(f.threshold(), 4);
        assert!(f.config().improved_boundaries);
        assert_eq!(GateKeeperFilter::fpga(2).name(), "GateKeeper-FPGA");
        assert_eq!(GateKeeperFilter::shd(2).name(), "SHD");
    }
}
