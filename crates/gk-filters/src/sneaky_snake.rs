//! SneakySnake pre-alignment filter (Alser et al. 2020).
//!
//! SneakySnake reformulates approximate string matching as a single-net routing
//! problem (§2.3): build a "chip maze" of `2e + 1` rows (one per diagonal within
//! the edit band) and `n` columns, where a cell is an *obstacle* if the two bases
//! on that diagonal/column disagree. A signal (the snake) must travel from the
//! first to the last column; it may switch rows freely, and passing through an
//! obstacle costs one edit. The greedy solution — repeatedly take the longest
//! obstacle-free horizontal segment available from the current column, then pay one
//! edit to cross into the next column — yields a lower bound on the true edit
//! distance, which is why SneakySnake produces no false rejects and the fewest
//! false accepts of all the filters compared in the paper.

use crate::bitvec::{zero_run_length_in_words_reference, BaseMask};
use crate::simd::{
    build_mask_rows, canonical_acgt, filter_block_with, pair_slices, set_range_rows, shl_rows,
    shr_rows, LaneMask, LaneRow, SimdMode, WORD_BITS,
};
use crate::traits::{FilterDecision, PreAlignmentFilter};
use gk_seq::pairs::{SequencePair, SoaGroup, SOA_LANES};

/// The SneakySnake pre-alignment filter.
#[derive(Debug, Clone)]
pub struct SneakySnakeFilter {
    threshold: u32,
    simd: SimdMode,
}

impl SneakySnakeFilter {
    /// Creates a SneakySnake filter for error threshold `e`. The SIMD mode is
    /// resolved against `GK_SIMD` once, here — not per batch.
    pub fn new(threshold: u32) -> SneakySnakeFilter {
        SneakySnakeFilter {
            threshold,
            simd: SimdMode::Auto.resolve(),
        }
    }

    /// Selects the SIMD mode for `filter_pair` and `filter_batch` (resolved
    /// immediately; `Auto` consults `GK_SIMD` now, not on the hot path). Decisions are
    /// byte-identical across modes; only throughput changes.
    pub fn with_simd_mode(mut self, simd: SimdMode) -> SneakySnakeFilter {
        self.simd = simd.resolve();
        self
    }

    /// The resolved SIMD mode this instance filters with.
    pub fn simd_mode(&self) -> SimdMode {
        self.simd
    }
}

/// Per-bit reference twin of [`sneaky_snake_kernel_x4`] — the
/// `SimdMode::Scalar` leg and the path of every pair the lanes cannot take,
/// mirroring the GateKeeper and MAGNET reference paths.
///
/// Materialises the full chip maze the paper describes (one obstacle
/// [`BaseMask`] per in-band diagonal, built from raw ASCII comparisons —
/// `'a' ≠ 'A'`, `'N'` mismatches everything — with out-of-range columns as
/// obstacles) and runs the greedy traversal, probing every free run one bit
/// at a time through [`zero_run_length_in_words_reference`]. Decisions are
/// byte-identical to the lane kernel; only throughput differs.
pub fn sneaky_snake_pair_decision_reference(
    read: &[u8],
    reference: &[u8],
    e: u32,
) -> FilterDecision {
    let len = read.len().min(reference.len());
    if len == 0 {
        return FilterDecision::accept(0);
    }
    // Diagonals whose offset lands outside the reference for every column are
    // all-obstacle and contribute no runs; clamp the band so a huge threshold
    // does not build ~2^33 no-op diagonals.
    let lo = -((e as usize).min(len - 1) as isize);
    let hi = (e as usize).min(reference.len() - 1) as isize;
    let maze: Vec<BaseMask> = (lo..=hi)
        .map(|diag| {
            BaseMask::from_bools((0..len).map(|col| {
                let t = col as isize + diag;
                t < 0 || t as usize >= reference.len() || read[col] != reference[t as usize]
            }))
        })
        .collect();
    let mut col = 0usize;
    let mut edits = 0u32;
    while col < len {
        let mut best = 0usize;
        for mask in &maze {
            let run = zero_run_length_in_words_reference(mask.words(), col, len);
            if run > best {
                best = run;
            }
        }
        col += best;
        if col < len {
            // Crossing the obstacle in the next column costs one edit.
            edits += 1;
            col += 1;
        }
    }
    if edits <= e {
        FilterDecision::accept(edits)
    } else {
        FilterDecision::reject(edits)
    }
}

/// The length of the zero run starting at `start` (clipped to `len`) in one
/// lane's column of a row-major `[LaneRow]` mask — the whole-word twin of
/// [`zero_run_length_in_words_reference`], reading `rows[row][lane]` in place
/// so the kernel never materialises per-lane word vectors.
fn strided_zero_run(rows: &[LaneRow], lane: usize, start: usize, len: usize) -> usize {
    let mut pos = start;
    while pos < len {
        let bit = pos % WORD_BITS;
        let word = rows[pos / WORD_BITS][lane] >> bit;
        if word != 0 {
            return (pos + word.trailing_zeros() as usize).min(len) - start;
        }
        pos += WORD_BITS - bit;
    }
    len - start
}

/// Runs SneakySnake on all lanes of a struct-of-arrays group at once.
/// Decisions of inactive lanes (`lane >= group.lanes`) are meaningless.
///
/// The `2·min(e, len−1) + 1` diagonal obstacle masks are built lane-parallel
/// with the same row primitives as the other kernels; each free-run probe is
/// then a whole-word trailing-zeros scan instead of a per-bit walk. The
/// traversal itself is where lanes diverge — each snake reaches the last
/// column after a different number of greedy steps — so the group steps
/// round-major and retires finished lanes from a lane mask while the rest
/// keep walking.
pub fn sneaky_snake_kernel_x4(group: &SoaGroup, e: u32) -> [FilterDecision; SOA_LANES] {
    let len = group.len;
    debug_assert!(len > 0, "SoaGroup guarantees a nonzero length");
    let mask_rows = len.div_ceil(WORD_BITS);

    // Equal-length lanes make the reference's asymmetric band clamps
    // coincide: lo = −min(e, len−1), hi = +min(e, len−1).
    let maxd = (e as usize).min(len - 1);

    // All diagonal masks live in one flat row-major buffer (diagonal-major,
    // `mask_rows` rows each); the traversal probes them in place through
    // [`strided_zero_run`], so the whole group costs two mask allocations
    // plus the memo below instead of per-diagonal and per-lane vectors.
    let num_diags = 2 * maxd + 1;
    let mut diag_masks = vec![[0u64; SOA_LANES]; num_diags * mask_rows];
    let mut shifted = vec![[0u64; SOA_LANES]; group.ref_words.len()];
    for (d_idx, rows) in diag_masks.chunks_exact_mut(mask_rows).enumerate() {
        let d = d_idx as isize - maxd as isize;
        // Diagonal d compares read[col] with ref[col + d]: shift the
        // *reference* so position col + d lands at col, then force the
        // out-of-range columns (t < 0 or t ≥ len) to obstacles — the shift
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
        build_mask_rows(&group.read_words, mismatch_rows, len, rows);
        if d > 0 {
            set_range_rows(rows, len, len - d as usize, len);
        } else if d < 0 {
            set_range_rows(rows, len, 0, (-d) as usize);
        }
    }

    let mut cols = [0usize; SOA_LANES];
    let mut edits = [0u32; SOA_LANES];

    // Round-major greedy traversal: every round advances each active snake by
    // one greedy step (longest free run over the band, then one edit to cross
    // the next obstacle). Each step advances the column by at least one, so
    // the loop terminates after at most `len` rounds. Probes always rescan
    // from the current column — a next-obstacle memo can never help here,
    // because every step advances the column past the probed obstacle of
    // *every* diagonal (the best run's obstacle is crossed, and all other
    // runs are shorter still).
    let mut active = LaneMask::active(group.lanes);
    while active.any() {
        for lane in 0..group.lanes {
            if !active.is_active(lane) {
                continue;
            }
            let col = cols[lane];
            let mut best = 0usize;
            for d_idx in 0..num_diags {
                let rows = &diag_masks[d_idx * mask_rows..][..mask_rows];
                let run = strided_zero_run(rows, lane, col, len);
                if run > best {
                    best = run;
                }
                if col + best >= len {
                    break;
                }
            }
            cols[lane] += best;
            if cols[lane] < len {
                // Crossing the obstacle in the next column costs one edit.
                edits[lane] += 1;
                cols[lane] += 1;
            }
            if cols[lane] >= len {
                active.retire(lane);
            }
        }
    }

    let mut out = [FilterDecision::accept(0); SOA_LANES];
    for (lane, &lane_edits) in edits.iter().enumerate().take(group.lanes) {
        out[lane] = if lane_edits <= e {
            FilterDecision::accept(lane_edits)
        } else {
            FilterDecision::reject(lane_edits)
        };
    }
    out
}

/// Filters a block of raw ASCII pairs through SneakySnake, lane-parallel
/// where possible. The reference compares raw ASCII bytes (`'a' ≠ 'A'`)
/// while the lane kernel compares 2-bit codes, so lane eligibility is
/// restricted to uppercase `ACGT` pairs where the two comparisons provably
/// agree; everything else runs [`sneaky_snake_pair_decision_reference`], as
/// does every pair in scalar mode. Output order matches input order.
pub fn sneaky_snake_filter_block_slices(
    pairs: &[(&[u8], &[u8])],
    threshold: u32,
    mode: SimdMode,
) -> Vec<FilterDecision> {
    filter_block_with(
        pairs,
        mode,
        |(read, reference)| canonical_acgt(read) && canonical_acgt(reference),
        |group| sneaky_snake_kernel_x4(group, threshold),
        |(read, reference)| sneaky_snake_pair_decision_reference(read, reference, threshold),
    )
}

/// [`sneaky_snake_filter_block_slices`] over owned [`SequencePair`]s.
pub fn sneaky_snake_filter_block(
    pairs: &[SequencePair],
    threshold: u32,
    mode: SimdMode,
) -> Vec<FilterDecision> {
    sneaky_snake_filter_block_slices(&pair_slices(pairs), threshold, mode)
}

impl PreAlignmentFilter for SneakySnakeFilter {
    fn name(&self) -> &str {
        "SneakySnake"
    }

    fn threshold(&self) -> u32 {
        self.threshold
    }

    fn filter_block(&self, pairs: &[(&[u8], &[u8])]) -> Vec<FilterDecision> {
        sneaky_snake_filter_block_slices(pairs, self.threshold, self.simd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_align::edit_distance;
    use gk_seq::simulate::mutate_with_edits;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, rng: &mut StdRng) -> Vec<u8> {
        (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect()
    }

    /// Brute-force greedy traversal: enumerates the full `[-e, e]` band with
    /// naive per-byte runs and no band clamp, so it shares no shortcut with the
    /// reference. Callers keep `e` small enough for
    /// the unclamped band to stay cheap.
    fn brute_force_obstacles(read: &[u8], reference: &[u8], e: u32) -> u32 {
        let len = read.len().min(reference.len());
        let mut col = 0usize;
        let mut edits = 0u32;
        while col < len {
            let mut best = 0usize;
            for diag in -(e as i64)..=(e as i64) {
                let mut run = 0usize;
                while col + run < len {
                    let t = (col + run) as i64 + diag;
                    if t < 0
                        || t as usize >= reference.len()
                        || read[col + run] != reference[t as usize]
                    {
                        break;
                    }
                    run += 1;
                }
                best = best.max(run);
            }
            col += best;
            if col < len {
                edits += 1;
                col += 1;
            }
        }
        edits
    }

    /// Obstacle count of the reference twin.
    fn count_obstacles(read: &[u8], reference: &[u8], e: u32) -> u32 {
        sneaky_snake_pair_decision_reference(read, reference, e).estimated_edits
    }

    #[test]
    fn exact_match_has_zero_obstacles() {
        let seq: Vec<u8> = (0..100).map(|i| b"ACGT"[i % 4]).collect();
        let d = SneakySnakeFilter::new(0).filter_pair(&seq, &seq);
        assert!(d.accepted);
        assert_eq!(d.estimated_edits, 0);
    }

    #[test]
    fn single_substitution_costs_one_edit() {
        let a: Vec<u8> = (0..100).map(|i| b"ACGT"[i % 4]).collect();
        let mut b = a.clone();
        b[50] = if b[50] == b'A' { b'C' } else { b'A' };
        let d = SneakySnakeFilter::new(2).filter_pair(&b, &a);
        assert!(d.accepted);
        assert_eq!(d.estimated_edits, 1);
    }

    #[test]
    fn estimate_is_a_lower_bound_within_the_band() {
        // Whenever the true edit distance fits inside the band (d ≤ e), the snake's
        // obstacle count never exceeds it — exactly why SneakySnake has no false
        // rejects. (Outside the band the count is meaningless but the pair would be
        // rejected by verification anyway.)
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..300 {
            let reference = random_seq(100, &mut rng);
            let edits = rng.gen_range(0usize..15);
            let read = mutate_with_edits(&reference, edits, 0.3, &mut rng);
            let e = rng.gen_range(0u32..=10);
            let truth = edit_distance(&read, &reference);
            if truth > e {
                continue;
            }
            let estimate = count_obstacles(&read, &reference, e);
            assert!(
                estimate <= truth,
                "estimate {estimate} exceeds true distance {truth} (e = {e})"
            );
        }
    }

    #[test]
    fn no_false_rejects() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let reference = random_seq(150, &mut rng);
            let e = rng.gen_range(0u32..=15);
            let read = mutate_with_edits(&reference, e as usize, 0.3, &mut rng);
            if edit_distance(&read, &reference) <= e {
                let d = SneakySnakeFilter::new(e).filter_pair(&read, &reference);
                assert!(d.accepted, "false reject at e = {e}");
            }
        }
    }

    #[test]
    fn dissimilar_pair_is_rejected() {
        let a = vec![b'A'; 100];
        let b = vec![b'T'; 100];
        assert!(!SneakySnakeFilter::new(9).filter_pair(&a, &b).accepted);
    }

    #[test]
    fn accepts_fewer_pairs_than_gatekeeper_on_divergent_population() {
        use crate::gatekeeper::GateKeeperFilter;
        let mut rng = StdRng::seed_from_u64(3);
        let e = 5u32;
        let snake = SneakySnakeFilter::new(e);
        let gk = GateKeeperFilter::gpu(e);
        let mut snake_accepts = 0;
        let mut gk_accepts = 0;
        for _ in 0..300 {
            let reference = random_seq(100, &mut rng);
            let edits = rng.gen_range(6usize..20);
            let read = mutate_with_edits(&reference, edits, 0.3, &mut rng);
            if edit_distance(&read, &reference) <= e {
                continue;
            }
            if snake.filter_pair(&read, &reference).accepted {
                snake_accepts += 1;
            }
            if gk.filter_pair(&read, &reference).accepted {
                gk_accepts += 1;
            }
        }
        assert!(snake_accepts <= gk_accepts);
    }

    #[test]
    fn huge_threshold_terminates() {
        // Regression: the diagonal sweep used to iterate the raw `-e..=e` range,
        // which at e = u32::MAX is ~8.6 billion no-op diagonals per column.
        let a: Vec<u8> = (0..101).map(|i| b"ACGT"[i % 4]).collect();
        let b: Vec<u8> = (0..97).map(|i| b"ACGT"[(i + 1) % 4]).collect();
        let d = SneakySnakeFilter::new(u32::MAX).filter_pair(&a, &b);
        assert!(d.accepted);
        // The clamped band covers every reachable diagonal, so the count matches
        // a band that is merely "large enough".
        assert_eq!(d.estimated_edits, count_obstacles(&a, &b, 150));
    }

    #[test]
    fn empty_pair_is_accepted() {
        assert!(SneakySnakeFilter::new(0).filter_pair(b"", b"").accepted);
    }

    #[test]
    fn metadata() {
        let f = SneakySnakeFilter::new(3);
        assert_eq!(f.name(), "SneakySnake");
        assert_eq!(f.threshold(), 3);
    }

    /// Equivalence sweep for the traversal against the independent
    /// brute-force scorer, with ragged lengths and e = 0 included.
    #[test]
    fn traversal_matches_brute_force_scorer() {
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..400 {
            let ref_len = rng.gen_range(1usize..=70);
            let reference = random_seq(ref_len, &mut rng);
            let read = if case % 3 == 0 {
                random_seq(rng.gen_range(1usize..=70), &mut rng)
            } else {
                mutate_with_edits(&reference, rng.gen_range(0usize..8), 0.4, &mut rng)
            };
            let e = rng.gen_range(0u32..=12);
            assert_eq!(
                count_obstacles(&read, &reference, e),
                brute_force_obstacles(&read, &reference, e),
                "read {} bp vs reference {} bp at e = {e}",
                read.len(),
                reference.len(),
            );
        }
    }

    /// Satellite regression for short reads (the lengths around Shouji's
    /// window width double as the interesting snake lengths: the band clamp
    /// `min(e, len−1)` and the first/last-column edge cases all trigger
    /// here), pinned to the brute-force scorer.
    #[test]
    fn short_reads_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(12);
        for len in [1usize, 3, 4, 5] {
            for _ in 0..50 {
                let reference = random_seq(len, &mut rng);
                let read = mutate_with_edits(&reference, rng.gen_range(0..=len), 0.5, &mut rng);
                for e in [0u32, 1, len.saturating_sub(1) as u32, len as u32] {
                    assert_eq!(
                        count_obstacles(&read, &reference, e),
                        brute_force_obstacles(&read, &reference, e),
                        "len {len}, e = {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_x4_matches_per_pair_path_on_random_groups() {
        let mut rng = StdRng::seed_from_u64(41);
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
            let lane_decisions = sneaky_snake_kernel_x4(&group, e);
            for (lane, (read, reference)) in pairs.iter().enumerate() {
                let expected = sneaky_snake_pair_decision_reference(read, reference, e);
                assert_eq!(
                    lane_decisions[lane], expected,
                    "len = {len}, e = {e}, lane = {lane}"
                );
            }
        }
    }

    #[test]
    fn kernel_x4_handles_word_boundary_lengths() {
        let mut rng = StdRng::seed_from_u64(42);
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
                let lane_decisions = sneaky_snake_kernel_x4(&group, e);
                for (lane, (read, reference)) in pairs.iter().enumerate() {
                    let expected = sneaky_snake_pair_decision_reference(read, reference, e);
                    assert_eq!(lane_decisions[lane], expected, "len = {len}, e = {e}");
                }
            }
        }
    }

    #[test]
    fn block_driver_matches_per_pair_decisions_with_mixed_pairs() {
        // Mixed lengths, ragged pairs, empty pairs, and lowercase/N bases —
        // the latter two must leave the lanes because the reference is
        // case-sensitive while the 2-bit lanes are not.
        let mut rng = StdRng::seed_from_u64(43);
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
            .map(|(read, reference)| sneaky_snake_pair_decision_reference(read, reference, e))
            .collect();
        let lanes = sneaky_snake_filter_block_slices(&slices, e, SimdMode::Lanes);
        assert_eq!(lanes, expected);
        let scalar = sneaky_snake_filter_block_slices(&slices, e, SimdMode::Scalar);
        assert_eq!(scalar, expected);
    }

    #[test]
    fn filter_batch_is_identical_across_simd_modes() {
        let mut rng = StdRng::seed_from_u64(44);
        let batch: Vec<SequencePair> = (0..600)
            .map(|_| {
                let reference = random_seq(100, &mut rng);
                let read = mutate_with_edits(&reference, rng.gen_range(0..10), 0.3, &mut rng);
                SequencePair::new(read, reference)
            })
            .collect();
        let filter = SneakySnakeFilter::new(5);
        let lanes = filter
            .clone()
            .with_simd_mode(SimdMode::Lanes)
            .filter_batch(&batch);
        let scalar = filter.with_simd_mode(SimdMode::Scalar).filter_batch(&batch);
        assert_eq!(lanes, scalar);
        let per_pair: Vec<FilterDecision> = batch
            .iter()
            .map(|p| sneaky_snake_pair_decision_reference(&p.read, &p.reference, 5))
            .collect();
        assert_eq!(lanes, per_pair);
    }
}
