//! Shouji pre-alignment filter (Alser et al. 2019).
//!
//! Shouji (§2.3) builds a *neighborhood map*: a `(2e + 1) × n` binary matrix whose
//! rows are the diagonals of the edit band and whose entry is `0` where the read
//! and reference bases on that diagonal agree. It then slides a small window (four
//! columns) over the map; inside each window it picks the diagonal segment with the
//! most matches and copies it into the *Shouji bit-vector*, keeping for every
//! column the best (most-matching) evidence seen so far. The number of `1`s left in
//! the Shouji bit-vector is the edit estimate; pairs whose estimate exceeds the
//! threshold are rejected.
//!
//! Accuracy sits between GateKeeper and MAGNET/SneakySnake, matching the ordering
//! of Figure 5 / Tables S.7–S.12 in the paper: better than GateKeeper-FPGA and SHD
//! everywhere, slightly better than GateKeeper-GPU at 150/250 bp, well behind
//! SneakySnake.

use crate::bitvec::BaseMask;
use crate::simd::{
    build_mask_rows, canonical_acgt, filter_block_with, pair_slices, set_range_rows, shl_rows,
    shr_rows, LaneRow, SimdMode, WORD_BITS,
};
use crate::traits::{FilterDecision, PreAlignmentFilter};
use crate::words::{nibble_min, nibble_popcounts, sum_nibbles};
use gk_seq::pairs::{SequencePair, SoaGroup, SOA_LANES};

/// Width of the sliding search window, as in the Shouji paper.
const WINDOW: usize = 4;

/// The Shouji pre-alignment filter.
#[derive(Debug, Clone)]
pub struct ShoujiFilter {
    threshold: u32,
    simd: SimdMode,
}

impl ShoujiFilter {
    /// Creates a Shouji filter for error threshold `e`. The SIMD mode is
    /// resolved against `GK_SIMD` once, here — not per batch.
    pub fn new(threshold: u32) -> ShoujiFilter {
        ShoujiFilter {
            threshold,
            simd: SimdMode::Auto.resolve(),
        }
    }

    /// Selects the SIMD mode for `filter_pair` and `filter_batch` (resolved
    /// immediately; `Auto` consults `GK_SIMD` now, not on the hot path). Decisions are
    /// byte-identical across modes; only throughput changes.
    pub fn with_simd_mode(mut self, simd: SimdMode) -> ShoujiFilter {
        self.simd = simd.resolve();
        self
    }

    /// The resolved SIMD mode this instance filters with.
    pub fn simd_mode(&self) -> SimdMode {
        self.simd
    }
}

/// Per-bit reference twin of [`shouji_kernel_x4`] — the `SimdMode::Scalar`
/// leg and the path of every pair the lanes cannot take, mirroring the
/// GateKeeper and MAGNET reference paths.
///
/// Materialises the full neighborhood map the paper describes (one mismatch
/// [`BaseMask`] per in-band diagonal, built from raw ASCII comparisons —
/// `'a' ≠ 'A'`, `'N'` mismatches everything — with out-of-range columns as
/// mismatches) and scores every window on every diagonal one bit at a time
/// with no early exits.
///
/// The windows are non-overlapping: each four-column window independently
/// picks the diagonal segment with the most matches and copies its bits into
/// the Shouji bit-vector. (The original Shouji additionally searches
/// overlapping window placements to stitch segments that straddle a window
/// border; the non-overlapping approximation keeps the qualitative accuracy
/// ordering of the paper — tighter than GateKeeper, looser than SneakySnake —
/// at the cost of a rare over-estimate around indel junctions.)
pub fn shouji_pair_decision_reference(read: &[u8], reference: &[u8], e: u32) -> FilterDecision {
    let len = read.len().min(reference.len());
    if len == 0 {
        return FilterDecision::accept(0);
    }
    // Diagonals outside the reachable band (`col + diag` out of reference
    // range for every column) are all-mismatch and can never beat the seeded
    // window width, so clamp the band instead of building up to ~2^33 no-op
    // diagonals when a caller passes a huge threshold.
    let lo = -((e as usize).min(len - 1) as isize);
    let hi = (e as usize).min(reference.len() - 1) as isize;
    let map: Vec<BaseMask> = (lo..=hi)
        .map(|diag| {
            BaseMask::from_bools((0..len).map(|col| {
                let t = col as isize + diag;
                t < 0 || t as usize >= reference.len() || read[col] != reference[t as usize]
            }))
        })
        .collect();
    let mut edits = 0u32;
    let mut col = 0usize;
    while col < len {
        let end = (col + WINDOW).min(len);
        // The seed is the all-mismatch score of the (possibly tail-truncated)
        // window, which every in-band diagonal can only improve on.
        let mut best_mismatches = (end - col) as u32;
        for mask in &map {
            let mismatches = (col..end).filter(|&c| mask.get(c)).count() as u32;
            if mismatches < best_mismatches {
                best_mismatches = mismatches;
            }
        }
        edits += best_mismatches;
        col = end;
    }
    if edits <= e {
        FilterDecision::accept(edits)
    } else {
        FilterDecision::reject(edits)
    }
}

/// Per-window widths as packed nibbles, one nibble per window: `4` for every
/// full window, `len % 4` for a tail window, `0` past the sequence — the
/// all-mismatch seed every in-band diagonal can only improve on.
fn window_seed_words(len: usize, mask_rows: usize) -> Vec<u64> {
    const WINDOWS_PER_WORD: usize = WORD_BITS / WINDOW;
    let mut seed = vec![0u64; mask_rows];
    let full_windows = len / WINDOW;
    for window in 0..full_windows {
        seed[window / WINDOWS_PER_WORD] |= (WINDOW as u64) << (4 * (window % WINDOWS_PER_WORD));
    }
    let tail = len % WINDOW;
    if tail != 0 {
        seed[full_windows / WINDOWS_PER_WORD] |=
            (tail as u64) << (4 * (full_windows % WINDOWS_PER_WORD));
    }
    seed
}

/// Runs Shouji on all lanes of a struct-of-arrays group at once. Decisions of
/// inactive lanes (`lane >= group.lanes`) are meaningless.
///
/// The window width equals four bases — one nibble of the per-base mask rows
/// — and windows start at multiples of four, so every window is one
/// nibble-aligned 4-bit field: per diagonal, [`nibble_popcounts`] scores all
/// 16 windows of a word at once and [`nibble_min`] folds the per-window
/// minimum across diagonals, in every lane in parallel. The per-window sweep
/// is uniform across lanes (unlike MAGNET/SneakySnake no lane retires early),
/// so no active-mask is needed here.
pub fn shouji_kernel_x4(group: &SoaGroup, e: u32) -> [FilterDecision; SOA_LANES] {
    let len = group.len;
    debug_assert!(len > 0, "SoaGroup guarantees a nonzero length");
    let mask_rows = len.div_ceil(WORD_BITS);

    // Equal-length lanes make the reference's asymmetric band clamps
    // coincide: lo = −min(e, len−1), hi = +min(e, len−1).
    let maxd = (e as usize).min(len - 1);

    let seed = window_seed_words(len, mask_rows);
    let mut acc = vec![[0u64; SOA_LANES]; mask_rows];
    for (row, &seed_word) in acc.iter_mut().zip(seed.iter()) {
        *row = [seed_word; SOA_LANES];
    }

    let mut shifted = vec![[0u64; SOA_LANES]; group.ref_words.len()];
    let mut mask = vec![[0u64; SOA_LANES]; mask_rows];
    for d in -(maxd as isize)..=(maxd as isize) {
        // Diagonal d compares read[col] with ref[col + d]: shift the
        // *reference* so position col + d lands at col, then force the
        // out-of-range columns (t < 0 or t ≥ len) to mismatch — the shift
        // vacates them with zero bits, i.e. 'A' codes that could falsely
        // match.
        let mismatch_rows: &[LaneRow] = if d == 0 {
            &group.ref_words
        } else if d > 0 {
            shr_rows(&group.ref_words, 2 * d as usize, &mut shifted);
            &shifted
        } else {
            shl_rows(&group.ref_words, 2 * (-d) as usize, &mut shifted);
            &shifted
        };
        build_mask_rows(&group.read_words, mismatch_rows, len, &mut mask);
        if d > 0 {
            set_range_rows(&mut mask, len, len - d as usize, len);
        } else if d < 0 {
            set_range_rows(&mut mask, len, 0, (-d) as usize);
        }
        for (acc_row, mask_row) in acc.iter_mut().zip(mask.iter()) {
            for lane in 0..SOA_LANES {
                // Window scores are ≤ 4, well inside nibble_min's ≤ 7 domain.
                acc_row[lane] = nibble_min(acc_row[lane], nibble_popcounts(mask_row[lane]));
            }
        }
    }

    let mut out = [FilterDecision::accept(0); SOA_LANES];
    for (lane, decision) in out.iter_mut().enumerate().take(group.lanes) {
        let edits: u32 = acc.iter().map(|row| sum_nibbles(row[lane])).sum();
        *decision = if edits <= e {
            FilterDecision::accept(edits)
        } else {
            FilterDecision::reject(edits)
        };
    }
    out
}

/// Filters a block of raw ASCII pairs through Shouji, lane-parallel where
/// possible. The reference compares raw ASCII bytes (`'a' ≠ 'A'`) while the
/// lane kernel compares 2-bit codes, so lane eligibility is restricted to
/// uppercase `ACGT` pairs where the two comparisons provably agree; everything
/// else runs [`shouji_pair_decision_reference`], as does every pair in scalar
/// mode. Output order matches input order.
pub fn shouji_filter_block_slices(
    pairs: &[(&[u8], &[u8])],
    threshold: u32,
    mode: SimdMode,
) -> Vec<FilterDecision> {
    filter_block_with(
        pairs,
        mode,
        |(read, reference)| canonical_acgt(read) && canonical_acgt(reference),
        |group| shouji_kernel_x4(group, threshold),
        |(read, reference)| shouji_pair_decision_reference(read, reference, threshold),
    )
}

/// [`shouji_filter_block_slices`] over owned [`SequencePair`]s.
pub fn shouji_filter_block(
    pairs: &[SequencePair],
    threshold: u32,
    mode: SimdMode,
) -> Vec<FilterDecision> {
    shouji_filter_block_slices(&pair_slices(pairs), threshold, mode)
}

impl PreAlignmentFilter for ShoujiFilter {
    fn name(&self) -> &str {
        "Shouji"
    }

    fn threshold(&self) -> u32 {
        self.threshold
    }

    fn filter_block(&self, pairs: &[(&[u8], &[u8])]) -> Vec<FilterDecision> {
        shouji_filter_block_slices(pairs, self.threshold, self.simd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gatekeeper::GateKeeperFilter;
    use gk_align::edit_distance;
    use gk_seq::simulate::mutate_with_edits;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, rng: &mut StdRng) -> Vec<u8> {
        (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect()
    }

    /// Brute-force window scorer: enumerates the full `[-e, e]` band with naive
    /// indexing and seeds each window from `u32::MAX` rather than the window
    /// width, so it shares no shortcut with the reference — in particular not
    /// the truncated-width seed of the final, tail-overhanging window.
    fn brute_force_estimate(read: &[u8], reference: &[u8], e: u32) -> u32 {
        let len = read.len().min(reference.len());
        let mut edits = 0u32;
        let mut col = 0usize;
        while col < len {
            let end = (col + WINDOW).min(len);
            let mut best = u32::MAX;
            for diag in -(e as i64)..=(e as i64) {
                let mismatches = (col..end)
                    .filter(|&c| {
                        let t = c as i64 + diag;
                        t < 0 || t as usize >= reference.len() || read[c] != reference[t as usize]
                    })
                    .count() as u32;
                best = best.min(mismatches);
            }
            // The band always contains diag = 0, so `best` is a real score.
            edits += best;
            col = end;
        }
        edits
    }

    /// Edit estimate of the reference twin.
    fn estimate(read: &[u8], reference: &[u8], e: u32) -> u32 {
        shouji_pair_decision_reference(read, reference, e).estimated_edits
    }

    #[test]
    fn exact_match_is_accepted() {
        let seq: Vec<u8> = (0..100).map(|i| b"ACGT"[i % 4]).collect();
        let d = ShoujiFilter::new(0).filter_pair(&seq, &seq);
        assert!(d.accepted);
        assert_eq!(d.estimated_edits, 0);
    }

    #[test]
    fn well_separated_substitutions_are_accepted() {
        let mut rng = StdRng::seed_from_u64(1);
        let reference = random_seq(120, &mut rng);
        let mut read = reference.clone();
        for &pos in &[15usize, 60, 100] {
            read[pos] = match read[pos] {
                b'A' => b'G',
                _ => b'A',
            };
        }
        let d = ShoujiFilter::new(3).filter_pair(&read, &reference);
        assert!(d.accepted);
        assert!(d.estimated_edits <= 3);
    }

    #[test]
    fn indel_within_threshold_is_accepted() {
        let mut rng = StdRng::seed_from_u64(2);
        let reference = random_seq(100, &mut rng);
        let mut read = reference.clone();
        read.remove(50);
        read.push(b'A');
        let d = ShoujiFilter::new(3).filter_pair(&read, &reference);
        assert!(d.accepted);
    }

    #[test]
    fn dissimilar_pair_is_rejected() {
        let a = vec![b'A'; 100];
        let b = vec![b'T'; 100];
        assert!(!ShoujiFilter::new(8).filter_pair(&a, &b).accepted);
    }

    #[test]
    fn no_false_rejects_on_substitution_only_pairs() {
        // With substitution-only edits the best diagonal of every window is the true
        // diagonal, so the estimate equals the true edit distance and can never
        // falsely reject. (Indel junctions can add a small over-estimate in this
        // non-overlapping-window approximation; see the module documentation.)
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let reference = random_seq(100, &mut rng);
            let e = rng.gen_range(1u32..=10);
            let read = mutate_with_edits(&reference, e as usize, 0.0, &mut rng);
            if edit_distance(&read, &reference) <= e {
                let d = ShoujiFilter::new(e).filter_pair(&read, &reference);
                assert!(d.accepted, "false reject at e = {e}");
            }
        }
    }

    #[test]
    fn false_rejects_are_rare_on_indel_pairs() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut eligible = 0u32;
        let mut false_rejects = 0u32;
        for _ in 0..300 {
            let reference = random_seq(100, &mut rng);
            let e = rng.gen_range(2u32..=10);
            let read = mutate_with_edits(&reference, e as usize, 0.4, &mut rng);
            if edit_distance(&read, &reference) <= e {
                eligible += 1;
                if !ShoujiFilter::new(e).filter_pair(&read, &reference).accepted {
                    false_rejects += 1;
                }
            }
        }
        assert!(eligible > 50, "not enough eligible pairs ({eligible})");
        assert!(
            (false_rejects as f64) < 0.05 * eligible as f64,
            "{false_rejects} false rejects out of {eligible}"
        );
    }

    #[test]
    fn accepts_no_more_than_gatekeeper_fpga_on_divergent_population() {
        let mut rng = StdRng::seed_from_u64(4);
        let e = 5u32;
        let shouji = ShoujiFilter::new(e);
        let fpga = GateKeeperFilter::fpga(e);
        let mut shouji_accepts = 0;
        let mut fpga_accepts = 0;
        for _ in 0..300 {
            let reference = random_seq(100, &mut rng);
            let edits = rng.gen_range(6usize..20);
            let read = mutate_with_edits(&reference, edits, 0.3, &mut rng);
            if edit_distance(&read, &reference) <= e {
                continue;
            }
            if shouji.filter_pair(&read, &reference).accepted {
                shouji_accepts += 1;
            }
            if fpga.filter_pair(&read, &reference).accepted {
                fpga_accepts += 1;
            }
        }
        assert!(
            shouji_accepts <= fpga_accepts,
            "Shouji accepted {shouji_accepts}, GateKeeper-FPGA accepted {fpga_accepts}"
        );
    }

    #[test]
    fn window_scores_match_brute_force_scorer() {
        // Equivalence sweep for the window scoring, with deliberate coverage of
        // final windows that overhang the read tail (len % WINDOW != 0) and of
        // reads shorter/longer than the reference: the production scorer seeds
        // `best_mismatches` with the truncated window width, and this sweep
        // pins that seed to the naive full-band minimum.
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..400 {
            let ref_len = rng.gen_range(1usize..=70);
            let reference = random_seq(ref_len, &mut rng);
            let read = if case % 3 == 0 {
                // Ragged lengths, hitting every len % WINDOW residue over time.
                random_seq(rng.gen_range(1usize..=70), &mut rng)
            } else {
                mutate_with_edits(&reference, rng.gen_range(0usize..8), 0.4, &mut rng)
            };
            let e = rng.gen_range(0u32..=12);
            assert_eq!(
                estimate(&read, &reference, e),
                brute_force_estimate(&read, &reference, e),
                "read {} bp vs reference {} bp at e = {e}",
                read.len(),
                reference.len(),
            );
        }
    }

    #[test]
    fn overhanging_final_window_scores_match_brute_force_at_fixed_lengths() {
        // Deterministic pass over every window residue right at the tail.
        let mut rng = StdRng::seed_from_u64(8);
        for len in [
            1usize, 2, 3, 4, 5, 6, 7, 8, 9, 97, 98, 99, 100, 101, 102, 103,
        ] {
            let reference = random_seq(len, &mut rng);
            let read = mutate_with_edits(&reference, 3, 0.5, &mut rng);
            for e in [0u32, 1, 3, 5] {
                assert_eq!(
                    estimate(&read, &reference, e),
                    brute_force_estimate(&read, &reference, e),
                    "len {len}, e = {e}"
                );
            }
        }
    }

    #[test]
    fn huge_threshold_terminates() {
        // Regression: the diagonal sweep used to iterate the raw `-e..=e` range,
        // which at e = u32::MAX is ~8.6 billion no-op diagonals per window.
        let a: Vec<u8> = (0..101).map(|i| b"ACGT"[i % 4]).collect();
        let b: Vec<u8> = (0..97).map(|i| b"ACGT"[(i + 1) % 4]).collect();
        let d = ShoujiFilter::new(u32::MAX).filter_pair(&a, &b);
        assert!(d.accepted);
        assert_eq!(
            estimate(&a, &b, u32::MAX),
            brute_force_estimate(&a, &b, 150),
        );
    }

    #[test]
    fn empty_pair_is_accepted() {
        assert!(ShoujiFilter::new(2).filter_pair(b"", b"").accepted);
    }

    #[test]
    fn metadata() {
        let f = ShoujiFilter::new(6);
        assert_eq!(f.name(), "Shouji");
        assert_eq!(f.threshold(), 6);
    }

    /// Satellite regression for the short-read window residues: every length
    /// around the window width, pinned to the independent brute-force scorer
    /// at the exact e values the sweep's clamps care about (0, 1, len−1, len).
    #[test]
    fn short_reads_around_window_width_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(9);
        for len in [1usize, WINDOW - 1, WINDOW, WINDOW + 1] {
            for _ in 0..50 {
                let reference = random_seq(len, &mut rng);
                let read = mutate_with_edits(&reference, rng.gen_range(0..=len), 0.5, &mut rng);
                for e in [0u32, 1, len.saturating_sub(1) as u32, len as u32] {
                    assert_eq!(
                        estimate(&read, &reference, e),
                        brute_force_estimate(&read, &reference, e),
                        "len {len}, e = {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_x4_matches_per_pair_path_on_random_groups() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..200 {
            let len = rng.gen_range(1usize..=200);
            let e = rng.gen_range(0u32..=12);
            let lanes = rng.gen_range(1usize..=SOA_LANES);
            let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..lanes)
                .map(|_| {
                    let reference = random_seq(len, &mut rng);
                    let edits = rng.gen_range(0usize..=(e as usize + 4));
                    let read = mutate_with_edits(&reference, edits, 0.3, &mut rng);
                    (read, reference)
                })
                .collect();
            let slices: Vec<(&[u8], &[u8])> = pairs
                .iter()
                .map(|(r, s)| (r.as_slice(), s.as_slice()))
                .collect();
            let group = SoaGroup::encode_slices(&slices).expect("lane-eligible group");
            let lane_decisions = shouji_kernel_x4(&group, e);
            for (lane, (read, reference)) in pairs.iter().enumerate() {
                let expected = shouji_pair_decision_reference(read, reference, e);
                assert_eq!(
                    lane_decisions[lane], expected,
                    "len = {len}, e = {e}, lane = {lane}"
                );
            }
        }
    }

    #[test]
    fn kernel_x4_handles_word_boundary_lengths() {
        let mut rng = StdRng::seed_from_u64(32);
        for len in [1usize, 3, 4, 5, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129] {
            for e in [0u32, 1, 4, 40] {
                let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..SOA_LANES)
                    .map(|_| {
                        let reference = random_seq(len, &mut rng);
                        let read =
                            mutate_with_edits(&reference, rng.gen_range(0..=6), 0.3, &mut rng);
                        (read, reference)
                    })
                    .collect();
                let slices: Vec<(&[u8], &[u8])> = pairs
                    .iter()
                    .map(|(r, s)| (r.as_slice(), s.as_slice()))
                    .collect();
                let group = SoaGroup::encode_slices(&slices).unwrap();
                let lane_decisions = shouji_kernel_x4(&group, e);
                for (lane, (read, reference)) in pairs.iter().enumerate() {
                    let expected = shouji_pair_decision_reference(read, reference, e);
                    assert_eq!(lane_decisions[lane], expected, "len = {len}, e = {e}");
                }
            }
        }
    }

    #[test]
    fn block_driver_matches_per_pair_decisions_with_mixed_pairs() {
        // Mixed lengths, ragged pairs, empty pairs, and lowercase/N bases —
        // the latter two must leave the lanes because Shouji's reference is
        // case-sensitive while the 2-bit lanes are not.
        let mut rng = StdRng::seed_from_u64(33);
        let e = 4u32;
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for i in 0..97 {
            let len = match i % 5 {
                0 | 1 => 100,
                2 => 64,
                3 => 33,
                _ => 100,
            };
            let reference = random_seq(len, &mut rng);
            let mut read = mutate_with_edits(&reference, rng.gen_range(0..8), 0.3, &mut rng);
            if i % 7 == 0 {
                read[len / 2] = read[len / 2].to_ascii_lowercase();
            }
            if i % 11 == 0 {
                read[len / 3] = b'N';
            }
            if i % 13 == 0 {
                read.pop();
            }
            pairs.push((read, reference));
        }
        pairs.push((Vec::new(), Vec::new()));
        let slices: Vec<(&[u8], &[u8])> = pairs
            .iter()
            .map(|(r, s)| (r.as_slice(), s.as_slice()))
            .collect();
        let expected: Vec<FilterDecision> = pairs
            .iter()
            .map(|(read, reference)| shouji_pair_decision_reference(read, reference, e))
            .collect();
        let lanes = shouji_filter_block_slices(&slices, e, SimdMode::Lanes);
        assert_eq!(lanes, expected);
        let scalar = shouji_filter_block_slices(&slices, e, SimdMode::Scalar);
        assert_eq!(scalar, expected);
    }

    #[test]
    fn filter_batch_is_identical_across_simd_modes() {
        let mut rng = StdRng::seed_from_u64(34);
        let batch: Vec<SequencePair> = (0..600)
            .map(|_| {
                let reference = random_seq(100, &mut rng);
                let read = mutate_with_edits(&reference, rng.gen_range(0..10), 0.3, &mut rng);
                SequencePair::new(read, reference)
            })
            .collect();
        let filter = ShoujiFilter::new(5);
        let lanes = filter
            .clone()
            .with_simd_mode(SimdMode::Lanes)
            .filter_batch(&batch);
        let scalar = filter.with_simd_mode(SimdMode::Scalar).filter_batch(&batch);
        assert_eq!(lanes, scalar);
        let per_pair: Vec<FilterDecision> = batch
            .iter()
            .map(|p| shouji_pair_decision_reference(&p.read, &p.reference, 5))
            .collect();
        assert_eq!(lanes, per_pair);
    }
}
