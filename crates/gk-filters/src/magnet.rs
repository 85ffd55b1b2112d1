//! MAGNET pre-alignment filter (Alser, Mutlu, Alkan 2017).
//!
//! MAGNET was designed to fix the two accuracy problems of SHD/GateKeeper that the
//! GateKeeper-GPU paper recounts (§2.3): ignoring leading/trailing zeros and
//! counting a streak of consecutive 1s as a single edit. Instead of AND-combining
//! the masks, MAGNET *extracts* non-overlapping exact-matching segments:
//!
//! 1. build the same `2e + 1` Hamming/shifted masks as SHD (no amendment);
//! 2. repeatedly take the longest run of 0s across all masks inside the remaining
//!    search intervals — each extraction is one exactly matching segment of a
//!    candidate alignment, and the position next to each side of the segment is
//!    consumed as a divider (one edit);
//! 3. after at most `e + 1` extractions, every base that is not covered by an
//!    extracted segment counts towards the edit estimate.
//!
//! The resulting count is much closer to the true edit distance (two orders of
//! magnitude fewer false accepts than SHD), at the cost of occasionally
//! *over*-estimating — MAGNET is the one baseline that produces false rejects, a
//! behaviour the paper points out in §5.1.2 and which the accuracy harness here
//! reproduces.
//!
//! The per-bit reference ([`magnet_pair_decision_reference`]) keeps the
//! pending intervals in a list. The lane kernel ([`magnet_kernel_x4`]) runs the
//! same extraction as bit algebra on every mask's *erosion levels* (bit `p` of
//! level `k` set when positions `p .. p + 2^k − 1` lie in one zero run).

use crate::bitvec::BaseMask;
use crate::simd::{
    and_rows, build_mask_rows, filter_block_with, lane_alphabet, pair_slices, set_range_rows,
    shl_rows, shr_rows, LaneRow, SimdMode, WORD_BITS,
};
use crate::traits::{FilterDecision, PreAlignmentFilter};
use crate::words::{shift_left_bases, shift_right_bases, xor_to_base_mask_reference};
use gk_seq::pairs::{SequencePair, SoaGroup, SOA_LANES};
use gk_seq::PackedSeq;

/// The MAGNET pre-alignment filter.
#[derive(Debug, Clone)]
pub struct MagnetFilter {
    threshold: u32,
    simd: SimdMode,
}

impl MagnetFilter {
    /// Creates a MAGNET filter for error threshold `e`. The SIMD mode is
    /// resolved against `GK_SIMD` once, here — not per batch.
    pub fn new(threshold: u32) -> MagnetFilter {
        MagnetFilter {
            threshold,
            simd: SimdMode::Auto.resolve(),
        }
    }

    /// Selects the SIMD mode for `filter_pair` and `filter_batch` (resolved
    /// immediately; `Auto` consults `GK_SIMD` now, not on the hot path). Decisions are
    /// byte-identical across modes; only throughput changes.
    pub fn with_simd_mode(mut self, simd: SimdMode) -> MagnetFilter {
        self.simd = simd.resolve();
        self
    }

    /// The resolved SIMD mode this instance filters with.
    pub fn simd_mode(&self) -> SimdMode {
        self.simd
    }

    fn build_masks(read: &PackedSeq, reference: &PackedSeq, e: u32, len: usize) -> Vec<BaseMask> {
        // Same shift clamp as the GateKeeper kernel: a shift by `k ≥ len`
        // vacates every position and MAGNET pads vacated positions with 1s, so
        // those masks are all 1s and contribute no zero runs — building them
        // only made mask count and allocation proportional to `e`, which for
        // huge thresholds aborted on allocation.
        let max_shift = (e as usize).min(len.saturating_sub(1));
        let mut masks = Vec::with_capacity(2 * max_shift + 1);
        masks.push(xor_to_base_mask_reference(
            read.words(),
            reference.words(),
            len,
        ));
        for k in 1..=max_shift {
            let shifted = shift_right_bases(read.words(), k);
            let mut del_mask = xor_to_base_mask_reference(&shifted, reference.words(), len);
            // MAGNET explicitly pads the vacated positions with 1s (this is the very
            // behaviour GateKeeper-GPU later adopted).
            del_mask.set_range(0, k.min(len));
            masks.push(del_mask);

            let shifted = shift_left_bases(read.words(), k);
            let mut ins_mask = xor_to_base_mask_reference(&shifted, reference.words(), len);
            ins_mask.set_range(len.saturating_sub(k), len);
            masks.push(ins_mask);
        }
        masks
    }

    /// Greedy divide-and-conquer extraction of the longest zero runs, as a
    /// pure function of `masks` via [`Extraction`] (kept as a mask-level entry
    /// point for the extraction regression tests; the decision paths go
    /// through [`magnet_pair_decision_reference`] / [`magnet_kernel_x4`]).
    #[cfg(test)]
    fn estimate_edits(masks: &[BaseMask], len: usize, e: u32) -> u32 {
        Self::estimate_edits_with(len, e, |start, end| best_mask_run(masks, start, end))
    }

    /// The extraction loop over an abstract run finder: `best_run(start, end)`
    /// returns the longest (leftmost on ties) zero run across all masks inside
    /// `[start, end)`. Drives the per-bit reference twin.
    fn estimate_edits_with<F>(len: usize, e: u32, mut best_run: F) -> u32
    where
        F: FnMut(usize, usize) -> Option<(usize, usize)>,
    {
        let mut extraction = Extraction::new(len, &mut best_run);
        // At most e + 1 extractions; each covers ≥ 1 position, so len + 1
        // rounds is a ceiling that keeps huge thresholds from looping.
        let rounds = (e as usize).saturating_add(1).min(len + 1);
        for _ in 0..rounds {
            if !extraction.step(&mut best_run) {
                break;
            }
        }
        extraction.edits(len)
    }
}

/// The longest (leftmost on ties) zero run across all masks inside
/// `[start, end)`.
fn best_mask_run(masks: &[BaseMask], start: usize, end: usize) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    for mask in masks {
        if let Some((run_start, run_len)) = mask.longest_zero_run_in_reference(start, end) {
            let better = match best {
                None => true,
                Some((best_start, best_len)) => {
                    run_len > best_len || (run_len == best_len && run_start < best_start)
                }
            };
            if better {
                best = Some((run_start, run_len));
            }
        }
    }
    best
}

/// Every mask's erosion levels for one lane group, which MAGNET's lane
/// extraction reads and clears.
///
/// Level 0 of a mask marks its free positions, the zero bits inside
/// `[0, len)`. Level `k + 1` is level `k` AND (level `k` >> 2^k), so bit `p` of
/// level `k` says that positions `p .. p + 2^k − 1` lie in one zero run. The
/// masks of a level sit end to end, `stride` words each with at least one
/// blocked bit past `len`, so no run continues into the next mask and every
/// shift runs over a whole level. The levels are built on `[u64; 4]` rows,
/// all four lanes shifting together; each lane then extracts on its own bits.
struct ErosionLevels {
    /// Row `w` of mask `j` at level `k` is `rows[k * plane + j * stride + w]`.
    rows: Vec<LaneRow>,
    plane: usize,
    stride: usize,
    len: usize,
    /// One lane's surviving run starts while a round lifts, one level wide.
    cur: Vec<u64>,
    next: Vec<u64>,
}

impl ErosionLevels {
    /// Zeroed levels for `masks` masks of `len` bits: write each mask into
    /// [`ErosionLevels::mask_mut`], then [`ErosionLevels::erode`] them.
    fn new(len: usize, masks: usize) -> ErosionLevels {
        let stride = (len + 1).div_ceil(WORD_BITS);
        let plane = masks * stride;
        // Levels 0 ..= ⌊log2 len⌋: the longest run a level can hold fits.
        let levels = (usize::BITS - len.leading_zeros()) as usize;
        ErosionLevels {
            rows: vec![[0; SOA_LANES]; levels * plane],
            plane,
            stride,
            len,
            cur: vec![0; plane],
            next: vec![0; plane],
        }
    }

    /// Mask `j`'s `len.div_ceil(64)` rows at level 0.
    fn mask_mut(&mut self, j: usize) -> &mut [LaneRow] {
        &mut self.rows[j * self.stride..][..self.len.div_ceil(WORD_BITS)]
    }

    /// Turns every mask into its level 0 and builds the levels above it.
    fn erode(&mut self) {
        let plane = self.plane;
        for mask in self.rows[..plane].chunks_exact_mut(self.stride) {
            for (w, row) in mask.iter_mut().enumerate() {
                // The mask rows hold 0 past `len`, which must read as blocked.
                let inside = !at_or_past(self.len, w);
                *row = row.map(|mismatch| !mismatch & inside);
            }
        }
        for k in 1..self.rows.len() / plane {
            let (below, above) = self.rows.split_at_mut(k * plane);
            let (below, out) = (&below[(k - 1) * plane..], &mut above[..plane]);
            shr_rows(below, 1 << (k - 1), out);
            and_rows(out, below);
            // No lane has a run of 2^k, so no higher level has a bit either.
            if out.iter().all(|row| *row == [0; SOA_LANES]) {
                self.rows.truncate(k * plane);
                break;
            }
        }
    }

    /// Runs up to `rounds` extractions on `lane` and returns how many
    /// positions the extracted runs cover. Each round takes the longest zero
    /// run left in any mask, leftmost on ties (the pick [`Extraction::step`]
    /// makes), and blocks it with one divider on each side. The lane stops
    /// early once no free position is left.
    fn extract(&mut self, lane: usize, rounds: usize) -> usize {
        let mut top = self.rows.len() / self.plane - 1;
        let mut covered = 0;
        for _ in 0..rounds {
            // The highest level with a bit left: the longest run is at least
            // 2^top and less than 2^(top + 1) long. Blocking only shortens
            // runs, so each round resumes the search where the last stopped.
            while !self.seed(top, lane) {
                if top == 0 {
                    return covered;
                }
                top -= 1;
            }
            let mut run = 1 << top;
            for i in (0..top).rev() {
                if self.lift(i, lane, run) {
                    run += 1 << i;
                }
            }
            let Some(start) = self.leftmost() else {
                return covered;
            };
            covered += run;
            // One range covers the run and both dividers. A run that abuts
            // a blocked position or a sequence end has no divider there, and
            // blocking that neighbour again is harmless.
            self.block(lane, top, start.max(1) - 1, (start + run + 1).min(self.len));
        }
        covered
    }

    /// Loads `lane`'s bits of level `k` as the run starts; false when it has
    /// none.
    fn seed(&mut self, k: usize, lane: usize) -> bool {
        let level = &self.rows[k * self.plane..][..self.plane];
        for (start, row) in self.cur.iter_mut().zip(level) {
            *start = row[lane];
        }
        self.cur.iter().any(|&bits| bits != 0)
    }

    /// Keeps the run starts `p` whose run of `shift` continues through level
    /// `i` at `p + shift` (`cur AND (level i >> shift)`), so their runs are
    /// `shift + 2^i` long. False, with the starts unchanged, when none is left.
    fn lift(&mut self, i: usize, lane: usize, shift: usize) -> bool {
        let level = &self.rows[i * self.plane..][..self.plane];
        let (word_shift, bit_shift) = (shift / WORD_BITS, shift % WORD_BITS);
        let mut any = 0;
        for (w, (next, &cur)) in self.next.iter_mut().zip(&self.cur).enumerate() {
            let lo = level
                .get(w + word_shift)
                .map_or(0, |row| row[lane] >> bit_shift);
            // `<< 1 << (63 − b)` is `<< (64 − b)`, and 0 when b = 0.
            let hi = level
                .get(w + word_shift + 1)
                .map_or(0, |row| row[lane] << 1 << (WORD_BITS - 1 - bit_shift));
            *next = cur & (lo | hi);
            any |= *next;
        }
        if any == 0 {
            return false;
        }
        std::mem::swap(&mut self.cur, &mut self.next);
        true
    }

    /// The leftmost run start across the masks: the lowest bit of the first
    /// word that any mask has a start in.
    fn leftmost(&self) -> Option<usize> {
        (0..self.stride).find_map(|w| {
            let starts = self.cur[w..]
                .iter()
                .step_by(self.stride)
                .fold(0, |acc, &bits| acc | bits);
            (starts != 0).then(|| w * WORD_BITS + starts.trailing_zeros() as usize)
        })
    }

    /// Blocks positions `[from, to)` of `lane` in every mask: clears bit `p`
    /// of level `k` wherever `p .. p + 2^k − 1` meets the range, that is bits
    /// `[from − 2^k + 1, to)`. The lane's levels above `top` are already empty.
    fn block(&mut self, lane: usize, top: usize, from: usize, to: usize) {
        let levels = self.rows.chunks_exact_mut(self.plane).take(top + 1);
        for (k, level) in levels.enumerate() {
            let lo = (from + 1).saturating_sub(1 << k);
            for w in lo / WORD_BITS..=(to - 1) / WORD_BITS {
                let keep = !(at_or_past(lo, w) & !at_or_past(to, w));
                for row in level[w..].iter_mut().step_by(self.stride) {
                    row[lane] &= keep;
                }
            }
        }
    }
}

/// The bits of word `w` that stand at or past position `bit`.
fn at_or_past(bit: usize, w: usize) -> u64 {
    let shift = bit.saturating_sub(w * WORD_BITS).min(WORD_BITS);
    u64::MAX.checked_shl(shift as u32).unwrap_or(0)
}

/// One pending search interval of the extraction loop, with its best zero run
/// memoized: the masks never change, so an interval's best run is computed
/// once — when the interval is created — and each round only rescans the ≤ 2
/// remainder sub-intervals the extraction carves out.
struct Interval {
    start: usize,
    end: usize,
    best: Option<(usize, usize)>,
}

/// One sequence's extraction state (pending intervals in position order plus
/// the covered-position count). The per-bit reference drives one of these to
/// completion; the lane kernel makes the same picks on [`ErosionLevels`].
///
/// Ties between equal-length runs are broken towards the **leftmost** start
/// position, and the pending intervals are kept in position order, so the
/// extraction sequence is a pure function of the masks. (An earlier version
/// `swap_remove`d intervals and kept the first equal-length run in scan
/// order, which made tie-breaking depend on the extraction history: the
/// dividers consumed beside an arbitrarily chosen run could eat neighbouring
/// runs another order would have extracted, shifting the final count in
/// either direction.) The memoized per-interval bests preserve that order:
/// intervals are disjoint, so per-interval bests have distinct starts and the
/// global (longest, then leftmost) pick is the same run a flat rescan of
/// every interval would select.
struct Extraction {
    intervals: Vec<Interval>,
    covered: usize,
}

impl Extraction {
    fn new<F>(len: usize, best_run: &mut F) -> Extraction
    where
        F: FnMut(usize, usize) -> Option<(usize, usize)>,
    {
        Extraction {
            intervals: vec![Interval {
                start: 0,
                end: len,
                best: best_run(0, len),
            }],
            covered: 0,
        }
    }

    /// One extraction round: takes the globally best memoized run, consumes a
    /// divider position on each side (a run abutting an interval boundary
    /// consumes no divider there) and replaces the interval with the
    /// non-empty remainders. Returns `false` — retire this lane — once no
    /// zero run is left anywhere.
    fn step<F>(&mut self, best_run: &mut F) -> bool
    where
        F: FnMut(usize, usize) -> Option<(usize, usize)>,
    {
        let mut best: Option<(usize, usize, usize)> = None; // (interval idx, start, len)
        for (idx, interval) in self.intervals.iter().enumerate() {
            if let Some((run_start, run_len)) = interval.best {
                let better = match best {
                    None => true,
                    Some((_, best_start, best_len)) => {
                        run_len > best_len || (run_len == best_len && run_start < best_start)
                    }
                };
                if better {
                    best = Some((idx, run_start, run_len));
                }
            }
        }
        let Some((idx, run_start, run_len)) = best else {
            return false;
        };
        self.covered += run_len;
        let (ivl_start, ivl_end) = (self.intervals[idx].start, self.intervals[idx].end);
        let mut remainders: Vec<Interval> = Vec::with_capacity(2);
        if run_start > ivl_start + 1 {
            remainders.push(Interval {
                start: ivl_start,
                end: run_start - 1,
                best: best_run(ivl_start, run_start - 1),
            });
        }
        let run_end = run_start + run_len;
        if run_end + 1 < ivl_end {
            remainders.push(Interval {
                start: run_end + 1,
                end: ivl_end,
                best: best_run(run_end + 1, ivl_end),
            });
        }
        self.intervals.splice(idx..=idx, remainders);
        true
    }

    fn edits(&self, len: usize) -> u32 {
        (len - self.covered.min(len)) as u32
    }
}

/// Per-bit reference twin of [`magnet_kernel_x4`]: the reference XOR mask
/// build, per-bit run scans and per-bit extraction probes for one pair, of
/// any lengths. Decisions are byte-identical to the lane kernel; only
/// throughput differs. This is the `SimdMode::Scalar` leg, the path of every
/// pair the lanes cannot take, and the function the differential property
/// suite pins the lane kernel against (the `kernel-twin` invariant in
/// `gk-analyze` checks it stays that way).
pub fn magnet_pair_decision_reference(read: &[u8], reference: &[u8], e: u32) -> FilterDecision {
    let read_packed = PackedSeq::from_ascii(read);
    let ref_packed = PackedSeq::from_ascii(reference);
    let len = read_packed.len().min(ref_packed.len());
    if len == 0 {
        return FilterDecision::accept(0);
    }
    if e == 0 {
        let ones =
            xor_to_base_mask_reference(read_packed.words(), ref_packed.words(), len).count_ones();
        return if ones == 0 {
            FilterDecision::accept(0)
        } else {
            FilterDecision::reject(ones)
        };
    }
    let masks = MagnetFilter::build_masks(&read_packed, &ref_packed, e, len);
    let edits =
        MagnetFilter::estimate_edits_with(len, e, |start, end| best_mask_run(&masks, start, end));
    if edits <= e {
        FilterDecision::accept(edits)
    } else {
        FilterDecision::reject(edits)
    }
}

/// Runs MAGNET on all lanes of a struct-of-arrays group at once. Decisions of
/// inactive lanes (`lane >= group.lanes`) are meaningless.
///
/// The `2·min(e, len−1) + 1` masks and their erosion levels are built
/// lane-parallel with the same row primitives as the GateKeeper kernel. The
/// extraction diverges: each lane runs its up to `e + 1` rounds in its own
/// loop, each round bit algebra on the lane's levels — lift down to the
/// longest run, take its leftmost start, clear one range.
pub fn magnet_kernel_x4(group: &SoaGroup, e: u32) -> [FilterDecision; SOA_LANES] {
    let len = group.len;
    debug_assert!(len > 0, "SoaGroup guarantees a nonzero length");

    // Same shift clamp as the reference: shifts ≥ len yield all-ones masks
    // with no zero runs to extract.
    let max_shift = (e as usize).min(len - 1);
    let mut levels = ErosionLevels::new(len, 2 * max_shift + 1);
    let hamming = levels.mask_mut(0);
    build_mask_rows(&group.read_words, &group.ref_words, len, hamming);

    let mut out = [FilterDecision::accept(0); SOA_LANES];

    if e == 0 {
        for (lane, decision) in out.iter_mut().enumerate().take(group.lanes) {
            let ones: u32 = hamming.iter().map(|row| row[lane].count_ones()).sum();
            *decision = if ones == 0 {
                FilterDecision::accept(0)
            } else {
                FilterDecision::reject(ones)
            };
        }
        return out;
    }

    let mut shifted = vec![[0u64; SOA_LANES]; group.read_words.len()];
    for k in 1..=max_shift {
        // Deletion mask: read shifted towards higher positions by k bases;
        // MAGNET pads the k vacated positions with 1s.
        shl_rows(&group.read_words, 2 * k, &mut shifted);
        let del = levels.mask_mut(2 * k - 1);
        build_mask_rows(&shifted, &group.ref_words, len, del);
        set_range_rows(del, len, 0, k);

        // Insertion mask: read shifted towards lower positions by k bases.
        shr_rows(&group.read_words, 2 * k, &mut shifted);
        let ins = levels.mask_mut(2 * k);
        build_mask_rows(&shifted, &group.ref_words, len, ins);
        set_range_rows(ins, len, len - k, len);
    }
    levels.erode();

    let rounds = (e as usize).saturating_add(1).min(len + 1);
    for (lane, decision) in out.iter_mut().enumerate().take(group.lanes) {
        let edits = (len - levels.extract(lane, rounds)) as u32;
        *decision = if edits <= e {
            FilterDecision::accept(edits)
        } else {
            FilterDecision::reject(edits)
        };
    }
    out
}

/// Filters a block of raw ASCII pairs through MAGNET, lane-parallel where
/// possible. In lane mode, consecutive runs of lane-eligible pairs (defined
/// bases, equal nonzero lengths) are transposed into [`SoaGroup`]s and run
/// through [`magnet_kernel_x4`]; everything else runs
/// [`magnet_pair_decision_reference`], as does every pair in scalar mode.
/// Output order matches input order.
pub fn magnet_filter_block_slices(
    pairs: &[(&[u8], &[u8])],
    threshold: u32,
    mode: SimdMode,
) -> Vec<FilterDecision> {
    filter_block_with(
        pairs,
        mode,
        |(read, reference)| lane_alphabet(read) && lane_alphabet(reference),
        |group| magnet_kernel_x4(group, threshold),
        |(read, reference)| magnet_pair_decision_reference(read, reference, threshold),
    )
}

/// [`magnet_filter_block_slices`] over owned [`SequencePair`]s.
pub fn magnet_filter_block(
    pairs: &[SequencePair],
    threshold: u32,
    mode: SimdMode,
) -> Vec<FilterDecision> {
    magnet_filter_block_slices(&pair_slices(pairs), threshold, mode)
}

impl PreAlignmentFilter for MagnetFilter {
    fn name(&self) -> &str {
        "MAGNET"
    }

    fn threshold(&self) -> u32 {
        self.threshold
    }

    fn filter_block(&self, pairs: &[(&[u8], &[u8])]) -> Vec<FilterDecision> {
        magnet_filter_block_slices(pairs, self.threshold, self.simd)
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

    /// A random mask of `len` bits: all ones, all zeros, or one of several
    /// densities, down to sparse masks whose runs cross 64-bit words.
    fn random_mask(len: usize, rng: &mut StdRng) -> BaseMask {
        match rng.gen_range(0..7) {
            0 => BaseMask::ones(len),
            1 => BaseMask::zeros(len),
            density => {
                let p = [0.02, 0.1, 0.3, 0.5, 0.8][density - 2];
                BaseMask::from_bools((0..len).map(|_| rng.gen_bool(p)))
            }
        }
    }

    /// The lane extraction over erosion levels leaves exactly the edits the
    /// brute-force reference leaves, on random masks of 1–260 bits, so the
    /// level clears and the lifting shifts cross 64-bit words. Every lane
    /// holds different masks, and the thresholds run from 0 to past the
    /// number of runs.
    #[test]
    fn level_extraction_matches_the_brute_force_reference() {
        let mut rng = StdRng::seed_from_u64(26);
        for case in 0..600 {
            let len = rng.gen_range(1usize..=260);
            let e = match case % 4 {
                0 => rng.gen_range(0u32..4),
                1 => rng.gen_range(0u32..16),
                2 => rng.gen_range(0..=len as u32 + 1),
                _ => u32::MAX,
            };
            let mask_count = rng.gen_range(1usize..=4);
            let lane_masks: Vec<Vec<BaseMask>> = (0..SOA_LANES)
                .map(|_| {
                    (0..mask_count)
                        .map(|_| random_mask(len, &mut rng))
                        .collect()
                })
                .collect();
            let mut levels = ErosionLevels::new(len, mask_count);
            for (lane, masks) in lane_masks.iter().enumerate() {
                for (j, mask) in masks.iter().enumerate() {
                    for (row, &word) in levels.mask_mut(j).iter_mut().zip(mask.words()) {
                        row[lane] = word;
                    }
                }
            }
            levels.erode();
            let rounds = (e as usize).saturating_add(1).min(len + 1);
            for (lane, masks) in lane_masks.iter().enumerate() {
                let edits = (len - levels.extract(lane, rounds)) as u32;
                assert_eq!(
                    edits,
                    reference_estimate(masks, len, e),
                    "case {case}: len {len}, e {e}, lane {lane}, masks {masks:?}"
                );
            }
        }
    }

    /// Spec-faithful brute-force reference for the extraction loop:
    /// repeatedly take the longest zero run across all masks inside any
    /// pending interval (leftmost on ties), consume one divider position on
    /// each side, for at most `e + 1` extractions; every uncovered base is one
    /// estimated edit. Written with naive per-position scans and re-sorted
    /// interval lists so it shares no run-finding or bookkeeping code with the
    /// implementation under test.
    fn reference_estimate(masks: &[BaseMask], len: usize, e: u32) -> u32 {
        let mut intervals: Vec<(usize, usize)> = vec![(0, len)];
        let mut covered = 0usize;
        let rounds = (e as usize).saturating_add(1).min(len + 1);
        for _ in 0..rounds {
            let mut best: Option<(usize, usize, usize)> = None; // (ivl idx, start, len)
            for (idx, &(start, end)) in intervals.iter().enumerate() {
                if start >= end {
                    continue;
                }
                for mask in masks {
                    let mut i = start;
                    while i < end {
                        if !mask.get(i) {
                            let run_start = i;
                            while i < end && !mask.get(i) {
                                i += 1;
                            }
                            let run_len = i - run_start;
                            let better = match best {
                                None => true,
                                Some((_, best_start, best_len)) => {
                                    run_len > best_len
                                        || (run_len == best_len && run_start < best_start)
                                }
                            };
                            if better {
                                best = Some((idx, run_start, run_len));
                            }
                        } else {
                            i += 1;
                        }
                    }
                }
            }
            let Some((idx, run_start, run_len)) = best else {
                break;
            };
            covered += run_len;
            let (ivl_start, ivl_end) = intervals[idx];
            intervals.remove(idx);
            if run_start > ivl_start {
                intervals.push((ivl_start, run_start - 1));
            }
            if run_start + run_len < ivl_end {
                intervals.push(((run_start + run_len + 1).min(ivl_end), ivl_end));
            }
            intervals.sort_unstable();
        }
        (len - covered.min(len)) as u32
    }

    /// Regression (tie-breaking): with masks `1111101` and `1011010` the three
    /// single-position runs of the second mask can all be extracted, but the
    /// pre-fix scan-order tie-break picked the first mask's run at position 5
    /// first — its dividers at 4 and 6 then destroyed two of them, yielding 5
    /// instead of 4. Found by the randomized cross-check below.
    #[test]
    fn tie_breaking_is_leftmost_not_scan_order() {
        let m1 = BaseMask::from_bools([true, true, true, true, true, false, true]);
        let m2 = BaseMask::from_bools([true, false, true, true, false, true, false]);
        let masks = vec![m1, m2];
        assert_eq!(MagnetFilter::estimate_edits(&masks, 7, 5), 4);
        assert_eq!(reference_estimate(&masks, 7, 5), 4);
    }

    /// Regression: a run starting one position into the interval
    /// (`run_start == ivl_start + 1`) leaves no coverable space to its left —
    /// the single leading position is the consumed divider and counts as one
    /// edit, no more and no less.
    #[test]
    fn run_one_past_interval_start_consumes_exactly_one_divider() {
        // 1 0 0 0 0 1 1: run (1,4); position 0 is the divider; 5 and 6 stay 1.
        let mask = BaseMask::from_bools([true, false, false, false, false, true, true]);
        let masks = vec![mask];
        for e in [1u32, 3, 10] {
            assert_eq!(MagnetFilter::estimate_edits(&masks, 7, e), 3, "e = {e}");
            assert_eq!(reference_estimate(&masks, 7, e), 3, "e = {e}");
        }
    }

    /// Regression: a run ending exactly at the interval end consumes no
    /// trailing divider, and the remainder bookkeeping must not fabricate an
    /// empty or out-of-range interval.
    #[test]
    fn run_ending_at_interval_end_consumes_no_trailing_divider() {
        // 1 1 0 0 0: run (2,3) abuts the end; only position 1 is a divider.
        let mask = BaseMask::from_bools([true, true, false, false, false]);
        assert_eq!(MagnetFilter::estimate_edits(&[mask], 5, 2), 2);
        // 0 0 1 0 0: both runs abut a boundary; the middle 1 is consumed as
        // the first extraction's divider, so two extractions cover everything.
        let mask = BaseMask::from_bools([false, false, true, false, false]);
        assert_eq!(
            MagnetFilter::estimate_edits(std::slice::from_ref(&mask), 5, 1),
            1
        );
        // With e = 0 (one extraction) the second run stays uncovered.
        assert_eq!(MagnetFilter::estimate_edits(&[mask], 5, 0), 3);
    }

    /// Regression: `e` larger than the number of zero runs — the loop must
    /// stop once no run is left, not keep consuming dividers or underflow.
    #[test]
    fn threshold_beyond_available_runs_terminates_cleanly() {
        let mask = BaseMask::from_bools([true, false, true, true, false, true]);
        // Two single-position runs; dividers eat the rest incrementally.
        assert_eq!(
            MagnetFilter::estimate_edits(std::slice::from_ref(&mask), 6, 50),
            4
        );
        assert_eq!(MagnetFilter::estimate_edits(&[mask], 6, u32::MAX), 4);
        // An all-ones mask has no runs at all: every base is an edit.
        assert_eq!(MagnetFilter::estimate_edits(&[BaseMask::ones(6)], 6, 50), 6);
        // An all-zero mask is covered whole by the first extraction.
        assert_eq!(
            MagnetFilter::estimate_edits(&[BaseMask::zeros(6)], 6, 50),
            0
        );
    }

    /// Randomized cross-check of the extraction loop against the brute-force
    /// reference (the property-test twin at the sequence level lives in
    /// `tests/properties.rs`).
    #[test]
    fn estimate_matches_the_brute_force_reference_on_random_masks() {
        let mut rng = StdRng::seed_from_u64(12345);
        for case in 0..20_000 {
            let len = rng.gen_range(1usize..24);
            let e = rng.gen_range(0u32..6);
            let mask_count = rng.gen_range(1usize..4);
            let masks: Vec<BaseMask> = (0..mask_count)
                .map(|_| BaseMask::from_bools((0..len).map(|_| rng.gen_bool(0.5))))
                .collect();
            let actual = MagnetFilter::estimate_edits(&masks, len, e);
            let expected = reference_estimate(&masks, len, e);
            assert_eq!(
                actual, expected,
                "case {case}: len {len}, e {e}, masks {masks:?}"
            );
        }
    }

    #[test]
    fn exact_match_is_accepted() {
        let seq: Vec<u8> = (0..100).map(|i| b"ACGT"[i % 4]).collect();
        for e in [0u32, 2, 5] {
            let d = MagnetFilter::new(e).filter_pair(&seq, &seq);
            assert!(d.accepted);
            assert_eq!(d.estimated_edits, 0);
        }
    }

    #[test]
    fn well_separated_substitutions_are_accepted() {
        let mut rng = StdRng::seed_from_u64(1);
        let reference = random_seq(100, &mut rng);
        let mut read = reference.clone();
        for &pos in &[20usize, 60] {
            read[pos] = match read[pos] {
                b'A' => b'C',
                _ => b'A',
            };
        }
        assert!(MagnetFilter::new(2).filter_pair(&read, &reference).accepted);
    }

    #[test]
    fn dissimilar_pair_is_rejected() {
        let a = vec![b'A'; 100];
        let b = vec![b'T'; 100];
        assert!(!MagnetFilter::new(5).filter_pair(&a, &b).accepted);
    }

    #[test]
    fn magnet_is_more_accurate_than_gatekeeper_on_divergent_pairs() {
        // MAGNET's extraction counts edits more faithfully, so over a divergent
        // population it accepts no more pairs than GateKeeper-GPU.
        let mut rng = StdRng::seed_from_u64(2);
        let e = 5u32;
        let magnet = MagnetFilter::new(e);
        let gk = GateKeeperFilter::gpu(e);
        let mut magnet_accepts = 0;
        let mut gk_accepts = 0;
        for _ in 0..300 {
            let reference = random_seq(100, &mut rng);
            let edits = rng.gen_range(6usize..20);
            let read = mutate_with_edits(&reference, edits, 0.3, &mut rng);
            if edit_distance(&read, &reference) <= e {
                continue; // only count genuinely dissimilar pairs
            }
            if magnet.filter_pair(&read, &reference).accepted {
                magnet_accepts += 1;
            }
            if gk.filter_pair(&read, &reference).accepted {
                gk_accepts += 1;
            }
        }
        assert!(
            magnet_accepts <= gk_accepts,
            "MAGNET accepted {magnet_accepts}, GateKeeper-GPU accepted {gk_accepts}"
        );
    }

    #[test]
    fn estimate_never_exceeds_read_length() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_seq(150, &mut rng);
        let b = random_seq(150, &mut rng);
        let d = MagnetFilter::new(10).filter_pair(&a, &b);
        assert!(d.estimated_edits <= 150);
    }

    #[test]
    fn empty_pair_is_accepted() {
        assert!(MagnetFilter::new(3).filter_pair(b"", b"").accepted);
    }

    #[test]
    fn metadata() {
        let f = MagnetFilter::new(7);
        assert_eq!(f.name(), "MAGNET");
        assert_eq!(f.threshold(), 7);
    }

    #[test]
    fn kernel_x4_matches_per_pair_path_on_random_groups() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..150 {
            let len = rng.gen_range(1usize..=200);
            let e = rng.gen_range(0u32..=10);
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
            let lane_decisions = magnet_kernel_x4(&group, e);
            for (lane, (read, reference)) in pairs.iter().enumerate() {
                let expected = magnet_pair_decision_reference(read, reference, e);
                assert_eq!(
                    lane_decisions[lane], expected,
                    "len = {len}, e = {e}, lane = {lane}"
                );
            }
        }
    }

    #[test]
    fn kernel_x4_handles_word_boundary_lengths() {
        let mut rng = StdRng::seed_from_u64(22);
        for len in [
            1usize, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129, 191, 192, 193, 255, 256, 257,
        ] {
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
                let lane_decisions = magnet_kernel_x4(&group, e);
                for (lane, (read, reference)) in pairs.iter().enumerate() {
                    let expected = magnet_pair_decision_reference(read, reference, e);
                    assert_eq!(lane_decisions[lane], expected, "len = {len}, e = {e}");
                }
            }
        }
    }

    /// `filter_pair` is a one-pair block: one lane of the x4 kernel for an
    /// eligible pair, the reference for a ragged, empty or undefined one.
    #[test]
    fn per_pair_path_matches_its_per_bit_reference_twin() {
        let mut rng = StdRng::seed_from_u64(23);
        for case in 0..300 {
            let len = rng.gen_range(0usize..=96);
            let e = rng.gen_range(0u32..=8);
            let reference = random_seq(len, &mut rng);
            let mut read = if len == 0 {
                Vec::new()
            } else {
                mutate_with_edits(&reference, rng.gen_range(0..=8), 0.3, &mut rng)
            };
            if case % 5 == 0 && !read.is_empty() {
                let mid = read.len() / 2;
                read[mid] = b'N';
            }
            let filter = MagnetFilter::new(e).with_simd_mode(SimdMode::Lanes);
            assert_eq!(
                filter.filter_pair(&read, &reference),
                magnet_pair_decision_reference(&read, &reference, e),
                "len = {len}, e = {e}"
            );
        }
    }

    #[test]
    fn block_driver_matches_per_pair_decisions_with_mixed_pairs() {
        let mut rng = StdRng::seed_from_u64(24);
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
            if i % 11 == 0 {
                read[len / 2] = b'N'; // undefined pair → per-pair fallback
            }
            if i % 13 == 0 {
                read.pop(); // ragged length → per-pair fallback
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
            .map(|(read, reference)| magnet_pair_decision_reference(read, reference, e))
            .collect();
        let lanes = magnet_filter_block_slices(&slices, e, SimdMode::Lanes);
        assert_eq!(lanes, expected);
        let scalar = magnet_filter_block_slices(&slices, e, SimdMode::Scalar);
        assert_eq!(scalar, expected);
    }

    #[test]
    fn filter_batch_is_identical_across_simd_modes() {
        let mut rng = StdRng::seed_from_u64(25);
        let batch: Vec<SequencePair> = (0..600)
            .map(|_| {
                let reference = random_seq(100, &mut rng);
                let read = mutate_with_edits(&reference, rng.gen_range(0..10), 0.3, &mut rng);
                SequencePair::new(read, reference)
            })
            .collect();
        let filter = MagnetFilter::new(5);
        let lanes = filter
            .clone()
            .with_simd_mode(SimdMode::Lanes)
            .filter_batch(&batch);
        let scalar = filter.with_simd_mode(SimdMode::Scalar).filter_batch(&batch);
        assert_eq!(lanes, scalar);
        let per_pair: Vec<FilterDecision> = batch
            .iter()
            .map(|p| magnet_pair_decision_reference(&p.read, &p.reference, 5))
            .collect();
        assert_eq!(lanes, per_pair);
    }
}
