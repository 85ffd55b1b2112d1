//! Property-based tests for the pre-alignment filters.
//!
//! The invariant that matters most is the paper's central accuracy claim: the
//! GateKeeper-GPU filter never rejects a pair whose true edit distance is within
//! the threshold (zero false rejects), for any read content, threshold, or edit mix.

use gk_align::edit_distance;
use gk_filters::bitvec::{count_edits_windowed_in_words, BaseMask};
use gk_filters::gatekeeper::{gatekeeper_kernel_reference, GateKeeperConfig};
use gk_filters::simd::{gatekeeper_filter_block_slices, SimdMode};
use gk_filters::words::{
    nibble_min, nibble_min_reference, nibble_popcounts, nibble_popcounts_reference,
    shift_left_bases, shift_right_bases, sum_nibbles, sum_nibbles_reference,
    xor_to_base_mask_reference,
};
use gk_filters::{
    decision_digest, magnet_filter_block_slices, magnet_kernel_x4, magnet_pair_decision_reference,
    shouji_filter_block_slices, shouji_kernel_x4, shouji_pair_decision_reference,
    sneaky_snake_filter_block_slices, sneaky_snake_kernel_x4, sneaky_snake_pair_decision_reference,
    GateKeeperFilter, MagnetFilter, PreAlignmentFilter, ShoujiFilter, SneakySnakeFilter,
};
use gk_seq::pairs::{SequencePair, SoaGroup};
use gk_seq::PackedSeq;
use proptest::prelude::*;
use rayon::slice::ParallelSlice;

fn dna(len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(vec![b'A', b'C', b'G', b'T']), len)
}

/// The filters that carry the paper's zero-false-reject guarantee for arbitrary
/// edit mixes (§5.1.1). MAGNET is excluded by design (it is the one baseline
/// documented to false-reject), and Shouji's guarantee only covers
/// substitution-only pairs — see `shouji_has_no_false_rejects_on_substitutions`.
fn sound_filters(e: u32) -> Vec<Box<dyn PreAlignmentFilter>> {
    vec![
        Box::new(GateKeeperFilter::gpu(e)),
        Box::new(GateKeeperFilter::fpga(e)),
        Box::new(GateKeeperFilter::shd(e)),
        Box::new(SneakySnakeFilter::new(e)),
    ]
}

/// A pair differing from the reference by at most `max_subs` substitutions.
fn substituted_pair(len: usize, max_subs: usize) -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (
        dna(len),
        proptest::collection::vec(0usize..len, 0..=max_subs),
    )
        .prop_map(|(reference, positions)| {
            let mut read = reference.clone();
            for pos in positions {
                read[pos] = match read[pos] {
                    b'A' => b'C',
                    b'C' => b'G',
                    b'G' => b'T',
                    _ => b'A',
                };
            }
            (read, reference)
        })
}

/// A pair built from a reference plus a scripted list of edits, so the true edit
/// distance is bounded by construction.
fn edited_pair(len: usize, max_edits: usize) -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (
        dna(len),
        proptest::collection::vec((0usize..len, 0u8..3), 0..=max_edits),
    )
        .prop_map(move |(reference, edits)| {
            let mut read = reference.clone();
            for (pos, kind) in edits {
                let pos = pos.min(read.len().saturating_sub(1));
                match kind {
                    0 => {
                        // substitution
                        read[pos] = match read[pos] {
                            b'A' => b'C',
                            b'C' => b'G',
                            b'G' => b'T',
                            _ => b'A',
                        };
                    }
                    1 => {
                        // deletion (pad the tail to keep the read length)
                        read.remove(pos);
                        read.push(b'A');
                    }
                    _ => {
                        // insertion (truncate to keep the read length)
                        read.insert(pos, b'G');
                        read.truncate(len);
                    }
                }
            }
            (read, reference)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// GateKeeper-GPU never false-rejects: if the true edit distance is ≤ e, the
    /// pair is accepted.
    #[test]
    fn gatekeeper_gpu_has_no_false_rejects((read, reference) in edited_pair(100, 8), e in 0u32..=10) {
        let truth = edit_distance(&read, &reference);
        if truth <= e {
            let decision = GateKeeperFilter::gpu(e).filter_pair(&read, &reference);
            prop_assert!(decision.accepted, "truth = {truth}, e = {e}");
        }
    }

    /// The same holds at 150 bp and 250 bp read lengths (multi-word masks).
    #[test]
    fn no_false_rejects_at_longer_read_lengths((read, reference) in edited_pair(250, 12), e in 0u32..=25) {
        let truth = edit_distance(&read, &reference);
        if truth <= e {
            let decision = GateKeeperFilter::gpu(e).filter_pair(&read, &reference);
            prop_assert!(decision.accepted, "truth = {truth}, e = {e}");
        }
    }

    /// SneakySnake's obstacle count is a lower bound within the band, so it never
    /// false-rejects either.
    #[test]
    fn sneaky_snake_has_no_false_rejects((read, reference) in edited_pair(100, 8), e in 0u32..=10) {
        let truth = edit_distance(&read, &reference);
        if truth <= e {
            let decision = SneakySnakeFilter::new(e).filter_pair(&read, &reference);
            prop_assert!(decision.accepted, "truth = {truth}, e = {e}");
        }
    }

    /// Identical sequences pass every filter at every threshold.
    #[test]
    fn exact_matches_always_pass(reference in dna(100), e in 0u32..=10) {
        let filters: Vec<Box<dyn PreAlignmentFilter>> = vec![
            Box::new(GateKeeperFilter::gpu(e)),
            Box::new(GateKeeperFilter::fpga(e)),
            Box::new(GateKeeperFilter::shd(e)),
            Box::new(MagnetFilter::new(e)),
            Box::new(SneakySnakeFilter::new(e)),
        ];
        for filter in &filters {
            prop_assert!(
                filter.filter_pair(&reference, &reference).accepted,
                "{} rejected an exact match at e = {e}",
                filter.name()
            );
        }
    }

    /// Accepting is monotone in the threshold: a pair accepted at e is accepted at
    /// every larger threshold.
    #[test]
    fn gatekeeper_acceptance_is_monotone_in_threshold((read, reference) in edited_pair(100, 10), e in 0u32..=8) {
        let at_e = GateKeeperFilter::gpu(e).filter_pair(&read, &reference).accepted;
        let at_e_plus = GateKeeperFilter::gpu(e + 2).filter_pair(&read, &reference).accepted;
        if at_e {
            prop_assert!(at_e_plus, "accepted at e = {e} but rejected at e = {}", e + 2);
        }
    }

    /// SHD and GateKeeper-FPGA implement the same algorithm and must agree.
    #[test]
    fn shd_equals_gatekeeper_fpga((read, reference) in edited_pair(150, 10), e in 0u32..=15) {
        let shd = GateKeeperFilter::shd(e).filter_pair(&read, &reference);
        let fpga = GateKeeperFilter::fpga(e).filter_pair(&read, &reference);
        prop_assert_eq!(shd.accepted, fpga.accepted);
        prop_assert_eq!(shd.estimated_edits, fpga.estimated_edits);
    }

    /// The paper's central soundness claim, checked against the Myers bit-vector
    /// oracle for every filter that carries the guarantee: if the true edit
    /// distance is within the threshold, no sound pre-alignment filter rejects.
    #[test]
    fn no_sound_filter_ever_false_rejects((read, reference) in edited_pair(100, 10), e in 0u32..=12) {
        let truth = edit_distance(&read, &reference);
        if truth <= e {
            for filter in sound_filters(e) {
                let decision = filter.filter_pair(&read, &reference);
                prop_assert!(
                    decision.accepted,
                    "{} false-rejected: truth = {truth}, e = {e}",
                    filter.name()
                );
            }
        }
    }

    /// The same soundness claim at 250 bp (multi-word masks, wider bands).
    #[test]
    fn no_sound_filter_ever_false_rejects_at_250bp((read, reference) in edited_pair(250, 14), e in 0u32..=20) {
        let truth = edit_distance(&read, &reference);
        if truth <= e {
            for filter in sound_filters(e) {
                let decision = filter.filter_pair(&read, &reference);
                prop_assert!(
                    decision.accepted,
                    "{} false-rejected: truth = {truth}, e = {e}",
                    filter.name()
                );
            }
        }
    }

    /// Shouji's guarantee covers substitution-only pairs; within that domain it
    /// must never reject a pair whose true edit distance is within threshold.
    #[test]
    fn shouji_has_no_false_rejects_on_substitutions((read, reference) in substituted_pair(100, 8), e in 0u32..=10) {
        let truth = edit_distance(&read, &reference);
        if truth <= e {
            let decision = ShoujiFilter::new(e).filter_pair(&read, &reference);
            prop_assert!(decision.accepted, "truth = {truth}, e = {e}");
        }
    }

    /// The filter decision only depends on the pair contents (purity / determinism).
    #[test]
    fn decisions_are_deterministic((read, reference) in edited_pair(100, 6), e in 0u32..=10) {
        let filter = GateKeeperFilter::gpu(e);
        let a = filter.filter_pair(&read, &reference);
        let b = filter.filter_pair(&read, &reference);
        prop_assert_eq!(a, b);
    }

    /// Chunked parallel processing reassembles to the sequential result for
    /// arbitrary chunk sizes and input lengths: running `filter_batch` per
    /// `par_chunks` chunk and concatenating equals one whole-batch call.
    #[test]
    fn par_chunks_filter_batch_reassembles_to_sequential(
        raw_pairs in proptest::collection::vec(edited_pair(48, 6), 0..24),
        chunk_size in 1usize..10,
        e in 0u32..=6,
    ) {
        let pairs: Vec<SequencePair> = raw_pairs
            .into_iter()
            .map(|(read, reference)| SequencePair::new(read, reference))
            .collect();
        let filter = GateKeeperFilter::gpu(e);
        let whole = filter.filter_batch(&pairs);
        let chunked: Vec<_> = pairs
            .par_chunks(chunk_size)
            .flat_map(|chunk| filter.filter_batch(chunk))
            .collect();
        prop_assert_eq!(whole, chunked);
    }

    /// The same reassembly property over plain data: a chunked parallel map
    /// concatenates to the sequential element-wise map, for any chunk size and
    /// any input length (including empty and chunk > len).
    #[test]
    fn par_chunks_map_reassembly_matches_sequential(
        data in proptest::collection::vec(0u32..10_000, 0..300),
        chunk_size in 1usize..40,
    ) {
        let parallel: Vec<u64> = data
            .par_chunks(chunk_size)
            .flat_map(|chunk| {
                chunk
                    .iter()
                    .map(|&x| u64::from(x) * 31 + 7)
                    .collect::<Vec<u64>>()
            })
            .collect();
        let sequential: Vec<u64> = data.iter().map(|&x| u64::from(x) * 31 + 7).collect();
        prop_assert_eq!(parallel, sequential);
        let chunk_count = data.par_chunks(chunk_size).count();
        prop_assert_eq!(chunk_count, data.len().div_ceil(chunk_size));
    }
}

// ---------------------------------------------------------------------------
// MAGNET: brute-force cross-check of the whole estimate pipeline.
// ---------------------------------------------------------------------------

/// Builds MAGNET's `2·min(e, len−1) + 1` masks from first principles using the
/// public per-bit word primitives: the Hamming mask plus, per shift distance,
/// the deletion/insertion masks with their vacated positions padded with 1s.
fn magnet_reference_masks(read: &[u8], reference: &[u8], e: u32) -> (Vec<BaseMask>, usize) {
    let read_packed = PackedSeq::from_ascii(read);
    let ref_packed = PackedSeq::from_ascii(reference);
    let len = read_packed.len().min(ref_packed.len());
    let mut masks = vec![xor_to_base_mask_reference(
        read_packed.words(),
        ref_packed.words(),
        len,
    )];
    for k in 1..=(e as usize).min(len.saturating_sub(1)) {
        let mut del_mask = xor_to_base_mask_reference(
            &shift_right_bases(read_packed.words(), k),
            ref_packed.words(),
            len,
        );
        del_mask.set_range_reference(0, k);
        masks.push(del_mask);
        let mut ins_mask = xor_to_base_mask_reference(
            &shift_left_bases(read_packed.words(), k),
            ref_packed.words(),
            len,
        );
        ins_mask.set_range_reference(len - k, len);
        masks.push(ins_mask);
    }
    (masks, len)
}

/// Spec-faithful greedy extraction over explicit position sets: repeatedly take
/// the longest zero run across all masks inside any pending interval (leftmost
/// on ties), consume one divider position per interior side, at most `e + 1`
/// times; uncovered positions are the estimate. Naive O(len²)-per-round scans,
/// sharing no code with the implementation.
fn magnet_reference_estimate(masks: &[BaseMask], len: usize, e: u32) -> u32 {
    let mut intervals = vec![(0usize, len)];
    let mut covered = 0usize;
    for _ in 0..(e as usize).saturating_add(1).min(len + 1) {
        let mut best: Option<(usize, usize, usize)> = None;
        for (idx, &(start, end)) in intervals.iter().enumerate() {
            for mask in masks {
                let mut i = start;
                while i < end {
                    if mask.get(i) {
                        i += 1;
                        continue;
                    }
                    let run_start = i;
                    while i < end && !mask.get(i) {
                        i += 1;
                    }
                    let run_len = i - run_start;
                    let better = match best {
                        None => true,
                        Some((_, bs, bl)) => run_len > bl || (run_len == bl && run_start < bs),
                    };
                    if better {
                        best = Some((idx, run_start, run_len));
                    }
                }
            }
        }
        let Some((idx, run_start, run_len)) = best else {
            break;
        };
        covered += run_len;
        let (ivl_start, ivl_end) = intervals.remove(idx);
        if run_start > ivl_start + 1 {
            intervals.push((ivl_start, run_start - 1));
        }
        if run_start + run_len + 1 < ivl_end {
            intervals.push((run_start + run_len + 1, ivl_end));
        }
        intervals.sort_unstable();
    }
    (len - covered.min(len)) as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// MAGNET's reported estimate equals the brute-force reference built from
    /// first principles, for arbitrary pairs and thresholds — the regression
    /// net over the extraction loop's divider and tie-break bookkeeping.
    #[test]
    fn magnet_estimate_matches_brute_force_reference(
        (read, reference) in edited_pair(48, 8),
        e in 1u32..=8,
    ) {
        let (masks, len) = magnet_reference_masks(&read, &reference, e);
        let expected = magnet_reference_estimate(&masks, len, e);
        let decision = MagnetFilter::new(e).filter_pair(&read, &reference);
        prop_assert_eq!(
            decision.estimated_edits, expected,
            "read {:?} vs reference {:?} at e = {}", read, reference, e
        );
        prop_assert_eq!(decision.accepted, expected <= e);
    }

    /// The estimate is invariant under reversing both sequences' roles in the
    /// sense that it stays within [0, len] and rejects iff it exceeds e —
    /// guarding the threshold comparison around the extraction loop.
    #[test]
    fn magnet_estimate_is_bounded_by_length((read, reference) in edited_pair(48, 12), e in 1u32..=48) {
        let decision = MagnetFilter::new(e).filter_pair(&read, &reference);
        prop_assert!(decision.estimated_edits <= 48);
    }
}

// ---------------------------------------------------------------------------
// SIMD layer: whole-word primitives and lane kernels vs. their per-bit references,
// with mask lengths deliberately pinned to the word-boundary edge cases
// (len == 0 and len % 64 == 0 included).
// ---------------------------------------------------------------------------

/// Boundary-heavy mask lengths: empty, word-exact multiples, and neighbors.
fn mask_len() -> impl Strategy<Value = usize> {
    proptest::sample::select(vec![
        0usize, 1, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129, 191, 192, 200,
    ])
}

/// Raw backing words for a mask; `BaseMask::from_words` resizes and clears
/// the padding, so over- and under-length inputs are both fair game.
fn mask_words() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..=u64::MAX, 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `from_words` normalizes any raw buffer: exact word count for the length,
    /// every bit beyond `len` cleared — including at len == 0 and len % 64 == 0,
    /// where the padding mask degenerates.
    #[test]
    fn from_words_clears_dirty_padding(words in mask_words(), len in mask_len()) {
        let mask = BaseMask::from_words(words, len);
        prop_assert_eq!(mask.len(), len);
        prop_assert_eq!(mask.words().len(), len.div_ceil(64));
        let popcount: u32 = mask.words().iter().map(|w| w.count_ones()).sum();
        prop_assert_eq!(popcount, mask.count_ones());
        if len % 64 != 0 {
            let last = *mask.words().last().unwrap();
            prop_assert_eq!(last >> (len % 64), 0u64, "padding bits survived at len = {}", len);
        }
    }

    /// `ones` fills exactly `len` bits and counts as a single run (or zero runs
    /// for the empty mask), and the whole-word and per-bit windowed counters
    /// agree on it.
    #[test]
    fn ones_is_exact_at_boundary_lengths(len in mask_len()) {
        let mask = BaseMask::ones(len);
        prop_assert_eq!(mask.count_ones() as usize, len);
        prop_assert_eq!(mask.count_runs_reference(), u32::from(len > 0));
        prop_assert_eq!(
            count_edits_windowed_in_words(mask.words(), 3),
            mask.count_edits_windowed_reference(3)
        );
    }

    /// Widened `set_range` equals the per-bit reference for every sub-range,
    /// including empty ranges and ranges ending exactly on word boundaries.
    #[test]
    fn set_range_matches_reference(
        words in mask_words(),
        len in mask_len(),
        s in 0usize..=200,
        t in 0usize..=200,
    ) {
        let mut wide = BaseMask::from_words(words, len);
        let mut narrow = wide.clone();
        let start = s.min(len);
        let end = t.clamp(start, len);
        wide.set_range(start, end);
        narrow.set_range_reference(start, end);
        prop_assert_eq!(wide.words(), narrow.words(), "range {}..{} at len {}", start, end, len);
    }

    /// The lane kernels' whole-word windowed edit counter equals the per-bit
    /// reference for arbitrary bit patterns and window widths (including
    /// windows wider than a word).
    #[test]
    fn counters_match_reference(words in mask_words(), len in mask_len(), window in 1usize..=130) {
        let mask = BaseMask::from_words(words, len);
        prop_assert_eq!(
            count_edits_windowed_in_words(mask.words(), window),
            mask.count_edits_windowed_reference(window)
        );
    }

    /// The widened (one-lane x4) GateKeeper kernel agrees with the per-bit
    /// reference kernel on bounded-edit pairs, for both boundary-handling
    /// variants.
    #[test]
    fn widened_kernel_matches_reference_on_edited_pairs(
        (read, reference) in edited_pair(100, 10),
        e in 0u32..=12,
    ) {
        let r = PackedSeq::from_ascii(&read);
        let f = PackedSeq::from_ascii(&reference);
        for config in [GateKeeperConfig::gpu(e), GateKeeperConfig::fpga(e)] {
            let wide = gatekeeper_filter_block_slices(&[(&read, &reference)], &config, SimdMode::Lanes);
            let narrow = gatekeeper_kernel_reference(&r, &f, &config);
            prop_assert_eq!(wide[0], narrow, "e = {}", e);
        }
    }

    /// The same agreement on unrelated ragged pairs (read and reference lengths
    /// independent, including empty and word-exact), with thresholds from 0 to
    /// far past the read length: equal-length pairs take one lane of the x4
    /// kernel, the rest the reference.
    #[test]
    fn widened_kernel_matches_reference_on_ragged_pairs(
        read in dna(200),
        reference in dna(200),
        read_len in proptest::sample::select(vec![0usize, 1, 31, 32, 33, 64, 100, 128, 200]),
        ref_len in proptest::sample::select(vec![0usize, 1, 31, 32, 33, 64, 100, 128, 200]),
        e in proptest::sample::select(vec![0u32, 1, 2, 5, 63, 64, 65, 1000]),
    ) {
        let (read, reference) = (&read[..read_len], &reference[..ref_len]);
        let r = PackedSeq::from_ascii(read);
        let f = PackedSeq::from_ascii(reference);
        for config in [GateKeeperConfig::gpu(e), GateKeeperConfig::fpga(e)] {
            let wide = gatekeeper_filter_block_slices(&[(read, reference)], &config, SimdMode::Lanes);
            let narrow = gatekeeper_kernel_reference(&r, &f, &config);
            prop_assert_eq!(wide[0], narrow, "lens {}/{}, e = {}", read_len, ref_len, e);
        }
    }

    /// End to end: the lane block driver and the all-scalar block driver hand
    /// back identical decision vectors over mixed batches — ragged lengths,
    /// word-exact lengths, undefined (`N`) pairs, empty pairs — and
    /// `filter_pair`, a one-pair block, returns the same decision per pair in
    /// either mode.
    #[test]
    fn lane_block_driver_matches_scalar_block_driver(
        raw in proptest::collection::vec(
            (dna(96), dna(96), 0usize..=96, 0usize..=96, 0u8..=4),
            0..24,
        ),
        e in 0u32..=8,
    ) {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = raw
            .into_iter()
            .map(|(a, b, la, lb, tag)| {
                let mut read = a[..la].to_vec();
                let reference = b[..lb].to_vec();
                if tag == 0 && !read.is_empty() {
                    let mid = read.len() / 2;
                    read[mid] = b'N';
                }
                (read, reference)
            })
            .collect();
        let slices: Vec<(&[u8], &[u8])> = pairs
            .iter()
            .map(|(r, f)| (r.as_slice(), f.as_slice()))
            .collect();
        for config in [GateKeeperConfig::gpu(e), GateKeeperConfig::fpga(e)] {
            let lanes = gatekeeper_filter_block_slices(&slices, &config, SimdMode::Lanes);
            let scalar = gatekeeper_filter_block_slices(&slices, &config, SimdMode::Scalar);
            prop_assert_eq!(&lanes, &scalar, "e = {}", e);
            // The GateKeeper filters take their mode from `GK_SIMD`; the CI
            // scalar leg reruns this suite with `GK_SIMD=scalar`.
            let filter = GateKeeperFilter::with_config(config);
            for (&(read, reference), block) in slices.iter().zip(&lanes) {
                prop_assert_eq!(filter.filter_pair(read, reference), *block, "e = {}", e);
            }
        }
    }

    /// Both struct-of-arrays encode paths — straight from ASCII and transposed
    /// from packed `u32` words — lay every base out at the same LSB-first lane
    /// position, each under its own 2-bit coding (the codings differ on G/T,
    /// which XOR cannot see), with clean zeros beyond `len` and in the spare row.
    #[test]
    fn soa_encode_paths_lay_out_every_base_identically(
        pairs in proptest::collection::vec((dna(96), dna(96)), 1..=4),
        len in 1usize..=96,
    ) {
        let cut: Vec<(Vec<u8>, Vec<u8>)> = pairs
            .iter()
            .map(|(r, f)| (r[..len].to_vec(), f[..len].to_vec()))
            .collect();
        let slices: Vec<(&[u8], &[u8])> = cut
            .iter()
            .map(|(r, f)| (r.as_slice(), f.as_slice()))
            .collect();
        let from_ascii = SoaGroup::encode_slices(&slices).expect("eligible group");
        let packed: Vec<(PackedSeq, PackedSeq)> = cut
            .iter()
            .map(|(r, f)| (PackedSeq::from_ascii(r), PackedSeq::from_ascii(f)))
            .collect();
        let refs: Vec<(&PackedSeq, &PackedSeq)> = packed.iter().map(|(r, f)| (r, f)).collect();
        // The packed group reuses a scratch that held a longer all-`T` group,
        // so the dirt checks below also cover the buffer reset.
        let mut packed_group = SoaGroup::scratch();
        let dirt = PackedSeq::from_ascii(&[b'T'; 96]);
        prop_assert!(packed_group.encode_packed_into(&[(&dirt, &dirt); 4]));
        prop_assert!(packed_group.encode_packed_into(&refs), "eligible group");

        prop_assert_eq!(from_ascii.len, len);
        prop_assert_eq!(packed_group.len, len);
        prop_assert_eq!(from_ascii.lanes, cut.len());
        prop_assert_eq!(packed_group.lanes, cut.len());

        let code_at = |rows: &[[u64; 4]], lane: usize, i: usize| -> u64 {
            (rows[i / 32][lane] >> (2 * (i % 32))) & 3
        };
        for (lane, (read, reference)) in cut.iter().enumerate() {
            for i in 0..len {
                // ASCII fast path: (byte >> 1) & 3.
                prop_assert_eq!(
                    code_at(&from_ascii.read_words, lane, i),
                    u64::from((read[i] >> 1) & 3)
                );
                prop_assert_eq!(
                    code_at(&from_ascii.ref_words, lane, i),
                    u64::from((reference[i] >> 1) & 3)
                );
                // Packed path: the paper's A=00, C=01, G=10, T=11 coding.
                prop_assert_eq!(
                    code_at(&packed_group.read_words, lane, i),
                    u64::from(gk_seq::Base::from_ascii(read[i]).code().unwrap())
                );
                prop_assert_eq!(
                    code_at(&packed_group.ref_words, lane, i),
                    u64::from(gk_seq::Base::from_ascii(reference[i]).code().unwrap())
                );
            }
        }
        // Bases past `len` and the spare row must be zero in both layouts.
        for group in [&from_ascii, &packed_group] {
            for rows in [&group.read_words, &group.ref_words] {
                for lane in 0..group.lanes {
                    for i in len..rows.len() * 32 {
                        prop_assert_eq!(code_at(rows, lane, i), 0u64, "dirt at base {}", i);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lane-parallel MAGNET / Shouji / SneakySnake: differential SIMD oracles
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every widened primitive the new kernels lean on agrees bit-for-bit with
    /// its per-bit `_reference` twin over arbitrary words.
    #[test]
    fn widened_primitives_match_reference_twins(
        x in 0u64..=u64::MAX,
        y in 0u64..=u64::MAX,
    ) {
        prop_assert_eq!(nibble_popcounts(x), nibble_popcounts_reference(x));
        prop_assert_eq!(sum_nibbles(x), sum_nibbles_reference(x));
        // `nibble_min`'s precondition: every nibble <= 7.
        let (a, b) = (x & 0x7777_7777_7777_7777, y & 0x7777_7777_7777_7777);
        prop_assert_eq!(nibble_min(a, b), nibble_min_reference(a, b));
    }

    /// The three new 4-lane kernels reproduce their per-bit reference twins
    /// exactly on random full and partial lane groups at every group length.
    #[test]
    fn new_lane_kernels_match_per_pair_decisions(
        pairs in proptest::collection::vec((dna(96), dna(96)), 1..=4),
        len in 1usize..=96,
        e in 0u32..=8,
    ) {
        let cut: Vec<(Vec<u8>, Vec<u8>)> = pairs
            .iter()
            .map(|(r, f)| (r[..len].to_vec(), f[..len].to_vec()))
            .collect();
        let slices: Vec<(&[u8], &[u8])> = cut
            .iter()
            .map(|(r, f)| (r.as_slice(), f.as_slice()))
            .collect();
        let group = SoaGroup::encode_slices(&slices).expect("eligible group");
        let magnet = magnet_kernel_x4(&group, e);
        let shouji = shouji_kernel_x4(&group, e);
        let snake = sneaky_snake_kernel_x4(&group, e);
        for (lane, (read, reference)) in cut.iter().enumerate() {
            prop_assert_eq!(
                magnet[lane],
                magnet_pair_decision_reference(read, reference, e),
                "magnet reference twin, lane {}, len {}, e {}", lane, len, e
            );
            prop_assert_eq!(
                shouji[lane],
                shouji_pair_decision_reference(read, reference, e),
                "shouji reference twin, lane {}, len {}, e {}", lane, len, e
            );
            prop_assert_eq!(
                snake[lane],
                sneaky_snake_pair_decision_reference(read, reference, e),
                "sneaky-snake reference twin, lane {}, len {}, e {}", lane, len, e
            );
        }
    }

    /// MAGNET's lane kernel reproduces its reference twin on groups of up to
    /// 260 bp, where the erosion levels span five 64-bit words and the level
    /// clears and lifting shifts cross word boundaries. The pairs are edited
    /// copies, so long zero runs cross words too.
    #[test]
    fn magnet_lane_kernel_matches_reference_up_to_260bp(
        pairs in proptest::collection::vec(edited_pair(260, 12), 1..=4),
        len in 1usize..=260,
        e in 0u32..=12,
    ) {
        let cut: Vec<(Vec<u8>, Vec<u8>)> = pairs
            .iter()
            .map(|(r, f)| (r[..len].to_vec(), f[..len].to_vec()))
            .collect();
        let slices: Vec<(&[u8], &[u8])> = cut
            .iter()
            .map(|(r, f)| (r.as_slice(), f.as_slice()))
            .collect();
        let group = SoaGroup::encode_slices(&slices).expect("eligible group");
        let magnet = magnet_kernel_x4(&group, e);
        for (lane, (read, reference)) in cut.iter().enumerate() {
            prop_assert_eq!(
                magnet[lane],
                magnet_pair_decision_reference(read, reference, e),
                "lane {}, len {}, e {}", lane, len, e
            );
        }
    }

    /// Block drivers for the three new filters: lane mode and all-scalar mode
    /// hand back digest-identical decision vectors over mixed batches — ragged
    /// lengths, undefined (`N`) pairs, lowercase bases (which the byte-exact
    /// Shouji/SneakySnake references treat as mismatches, forcing those pairs
    /// off the lane path), and empty pairs — and `filter_pair`, a one-pair
    /// block, returns the same decision per pair in both modes.
    #[test]
    fn new_filter_block_drivers_match_across_modes(
        raw in proptest::collection::vec(
            (dna(96), dna(96), 0usize..=96, 0usize..=96, 0u8..=5),
            0..24,
        ),
        e in 0u32..=8,
    ) {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = raw
            .into_iter()
            .map(|(a, b, la, lb, tag)| {
                let mut read = a[..la].to_vec();
                let reference = b[..lb].to_vec();
                if !read.is_empty() {
                    let mid = read.len() / 2;
                    if tag == 0 {
                        read[mid] = b'N';
                    } else if tag == 1 {
                        read[mid] = read[mid].to_ascii_lowercase();
                    }
                }
                (read, reference)
            })
            .collect();
        let slices: Vec<(&[u8], &[u8])> = pairs
            .iter()
            .map(|(r, f)| (r.as_slice(), f.as_slice()))
            .collect();

        let m_lanes = magnet_filter_block_slices(&slices, e, SimdMode::Lanes);
        let m_scalar = magnet_filter_block_slices(&slices, e, SimdMode::Scalar);
        prop_assert_eq!(decision_digest(&m_lanes), decision_digest(&m_scalar));
        prop_assert_eq!(&m_lanes, &m_scalar, "magnet, e = {}", e);

        let sh_lanes = shouji_filter_block_slices(&slices, e, SimdMode::Lanes);
        let sh_scalar = shouji_filter_block_slices(&slices, e, SimdMode::Scalar);
        prop_assert_eq!(decision_digest(&sh_lanes), decision_digest(&sh_scalar));
        prop_assert_eq!(&sh_lanes, &sh_scalar, "shouji, e = {}", e);

        let sn_lanes = sneaky_snake_filter_block_slices(&slices, e, SimdMode::Lanes);
        let sn_scalar = sneaky_snake_filter_block_slices(&slices, e, SimdMode::Scalar);
        prop_assert_eq!(decision_digest(&sn_lanes), decision_digest(&sn_scalar));
        prop_assert_eq!(&sn_lanes, &sn_scalar, "sneaky-snake, e = {}", e);

        for mode in [SimdMode::Lanes, SimdMode::Scalar] {
            let magnet = MagnetFilter::new(e).with_simd_mode(mode);
            let shouji = ShoujiFilter::new(e).with_simd_mode(mode);
            let snake = SneakySnakeFilter::new(e).with_simd_mode(mode);
            for (i, &(read, reference)) in slices.iter().enumerate() {
                prop_assert_eq!(magnet.filter_pair(read, reference), m_lanes[i], "magnet {}", mode);
                prop_assert_eq!(shouji.filter_pair(read, reference), sh_lanes[i], "shouji {}", mode);
                prop_assert_eq!(snake.filter_pair(read, reference), sn_lanes[i], "snake {}", mode);
            }
        }
    }

    /// `SoaGroup` tail handling through the public `filter_batch` surface:
    /// batch sizes that are not multiples of 4 — including the empty batch and
    /// 1–3-pair partial groups — with maximal per-pair length spread produce
    /// digest-identical decisions in lane and scalar mode for every widened
    /// filter.
    #[test]
    fn tail_groups_and_length_spread_are_mode_invariant(
        raw in proptest::collection::vec((dna(96), dna(96), 1usize..=96), 0..=11),
        e in 0u32..=6,
    ) {
        let batch: Vec<SequencePair> = raw
            .iter()
            .map(|(r, f, len)| SequencePair::new(r[..*len].to_vec(), f[..*len].to_vec()))
            .collect();

        let magnet_lanes = MagnetFilter::new(e).with_simd_mode(SimdMode::Lanes);
        let magnet_scalar = MagnetFilter::new(e).with_simd_mode(SimdMode::Scalar);
        prop_assert_eq!(
            decision_digest(&magnet_lanes.filter_batch(&batch)),
            decision_digest(&magnet_scalar.filter_batch(&batch)),
            "magnet, batch of {}", batch.len()
        );

        let shouji_lanes = ShoujiFilter::new(e).with_simd_mode(SimdMode::Lanes);
        let shouji_scalar = ShoujiFilter::new(e).with_simd_mode(SimdMode::Scalar);
        prop_assert_eq!(
            decision_digest(&shouji_lanes.filter_batch(&batch)),
            decision_digest(&shouji_scalar.filter_batch(&batch)),
            "shouji, batch of {}", batch.len()
        );

        let snake_lanes = SneakySnakeFilter::new(e).with_simd_mode(SimdMode::Lanes);
        let snake_scalar = SneakySnakeFilter::new(e).with_simd_mode(SimdMode::Scalar);
        prop_assert_eq!(
            decision_digest(&snake_lanes.filter_batch(&batch)),
            decision_digest(&snake_scalar.filter_batch(&batch)),
            "sneaky-snake, batch of {}", batch.len()
        );
    }
}
