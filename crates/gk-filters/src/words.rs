//! Word-level operations on 2-bit packed sequences.
//!
//! The FPGA GateKeeper works on a single arbitrarily wide register (a 100 bp read
//! is one 200-bit value). A GPU — and a CPU — only has machine words, so "an
//! encoded read becomes an array of 7 words. Additionally, logical shift operations
//! produce incorrect bits between array's elements. For correcting these bits, we
//! apply carry-bit transfers" (§3.4). This module implements exactly those
//! primitives on the `u32` word arrays produced by [`gk_seq::PackedSeq`]:
//!
//! * [`shift_right_bases`] / [`shift_left_bases`] — base-granular shifts of the
//!   whole sequence with explicit carry transfer between adjacent words (one shift
//!   and one carry per word per `k`, matching the 2e shift + 2e carry operation
//!   count the paper states);
//! * [`xor_to_base_mask_reference`] — XOR of two packed sequences followed by
//!   the per-base OR reduction, producing the Hamming-style [`BaseMask`] of
//!   the per-bit reference kernels;
//! * the nibble operations Shouji's lane kernel scores its windows with.

use crate::bitvec::BaseMask;
use gk_seq::packed::{BASES_PER_WORD, BITS_PER_BASE};

/// Shifts the packed sequence towards *higher* base positions by `bases`
/// (position `i` moves to `i + bases`); vacated leading positions become `A` (00).
///
/// In the word array (sequence starts at the MSB of word 0) this is a logical right
/// shift of the whole bit string by `2·bases` bits, with the bits shifted out of
/// word `w` carried into word `w + 1`.
pub fn shift_right_bases(words: &[u32], bases: usize) -> Vec<u32> {
    let word_shift = bases / BASES_PER_WORD;
    let bit_shift = (bases % BASES_PER_WORD) * BITS_PER_BASE;
    let mut out = vec![0u32; words.len()];
    for i in (0..words.len()).rev() {
        let src = i as isize - word_shift as isize;
        if src < 0 {
            continue;
        }
        let src = src as usize;
        let mut value = if bit_shift == 0 {
            words[src]
        } else {
            words[src] >> bit_shift
        };
        // Carry the low bits of the previous word into the vacated high bits.
        if bit_shift != 0 && src >= 1 {
            value |= words[src - 1] << (32 - bit_shift);
        }
        out[i] = value;
    }
    out
}

/// Shifts the packed sequence towards *lower* base positions by `bases`
/// (position `i` moves to `i - bases`); vacated trailing positions become `A` (00).
pub fn shift_left_bases(words: &[u32], bases: usize) -> Vec<u32> {
    let word_shift = bases / BASES_PER_WORD;
    let bit_shift = (bases % BASES_PER_WORD) * BITS_PER_BASE;
    let mut out = vec![0u32; words.len()];
    for (i, slot) in out.iter_mut().enumerate() {
        let src = i + word_shift;
        if src >= words.len() {
            continue;
        }
        let mut value = if bit_shift == 0 {
            words[src]
        } else {
            words[src] << bit_shift
        };
        // Carry the high bits of the next word into the vacated low bits.
        if bit_shift != 0 && src + 1 < words.len() {
            value |= words[src + 1] >> (32 - bit_shift);
        }
        *slot = value;
    }
    out
}

/// XORs two packed word arrays and reduces each 2-bit base difference to a
/// single mask bit (1 = mismatching base), truncated to `len` bases, one base
/// at a time. Missing words act as all-`A`, exactly like shifted-in padding.
///
/// The mask builder of the per-bit reference kernels; the lane kernels build
/// the same masks row-parallel in `simd`.
pub fn xor_to_base_mask_reference(a: &[u32], b: &[u32], len: usize) -> BaseMask {
    let mut mask = BaseMask::zeros(len);
    let words = len.div_ceil(BASES_PER_WORD);
    for w in 0..words {
        let xa = a.get(w).copied().unwrap_or(0);
        let xb = b.get(w).copied().unwrap_or(0);
        let diff = xa ^ xb;
        if diff == 0 {
            continue;
        }
        let hi = (diff >> 1) & 0x5555_5555;
        let lo = diff & 0x5555_5555;
        let per_base = hi | lo;
        let base_count = (len - w * BASES_PER_WORD).min(BASES_PER_WORD);
        for slot in 0..base_count {
            // Base `slot` of this word sits at bit pair starting at MSB.
            let bit_index = (BASES_PER_WORD - 1 - slot) * BITS_PER_BASE;
            if per_base & (1u32 << bit_index) != 0 {
                mask.set(w * BASES_PER_WORD + slot);
            }
        }
    }
    mask
}

const NIBBLE_HI: u64 = 0x8888_8888_8888_8888;

/// Per-nibble population counts: nibble `i` of the result holds the number of
/// set bits (0..=4) in nibble `i` of `x`.
///
/// This is the first two halvings of the classic SWAR popcount, stopped at
/// nibble granularity — Shouji's four-column windows line up exactly with the
/// sixteen nibbles of a mask word, so one call scores sixteen windows of one
/// diagonal at once.
pub fn nibble_popcounts(x: u64) -> u64 {
    let pairs = x - ((x >> 1) & 0x5555_5555_5555_5555);
    (pairs & 0x3333_3333_3333_3333) + ((pairs >> 2) & 0x3333_3333_3333_3333)
}

/// Per-nibble reference for [`nibble_popcounts`], counting bit by bit.
pub fn nibble_popcounts_reference(x: u64) -> u64 {
    let mut out = 0u64;
    for nibble in 0..16 {
        let count = ((x >> (4 * nibble)) & 0xF).count_ones() as u64;
        out |= count << (4 * nibble);
    }
    out
}

/// Per-nibble minimum of two words whose nibble values are all ≤ 7 (the high
/// bit of every nibble clear — window scores of width ≤ 4 satisfy this).
///
/// Borrow trick: with the high bit pre-set on `a`, the per-nibble subtraction
/// `(a | 8) - b` cannot borrow across nibbles, and its high bit survives
/// exactly where `a ≥ b` — that bit is fanned out to an all-ones nibble mask
/// selecting `b` (else `a`).
pub fn nibble_min(a: u64, b: u64) -> u64 {
    debug_assert!(a & NIBBLE_HI == 0 && b & NIBBLE_HI == 0);
    let ge = ((a | NIBBLE_HI) - b) & NIBBLE_HI;
    let sel = (ge >> 3) * 0xF;
    (b & sel) | (a & !sel)
}

/// Per-nibble reference for [`nibble_min`], comparing nibble by nibble.
pub fn nibble_min_reference(a: u64, b: u64) -> u64 {
    let mut out = 0u64;
    for nibble in 0..16 {
        let na = (a >> (4 * nibble)) & 0xF;
        let nb = (b >> (4 * nibble)) & 0xF;
        out |= na.min(nb) << (4 * nibble);
    }
    out
}

/// Horizontal sum of all sixteen nibbles of `x` (each 0..=15; the total fits
/// a byte, so the byte-fold multiply cannot overflow between lanes).
pub fn sum_nibbles(x: u64) -> u32 {
    let bytes = (x & 0x0F0F_0F0F_0F0F_0F0F) + ((x >> 4) & 0x0F0F_0F0F_0F0F_0F0F);
    (bytes.wrapping_mul(0x0101_0101_0101_0101) >> 56) as u32
}

/// Per-nibble reference for [`sum_nibbles`].
pub fn sum_nibbles_reference(x: u64) -> u32 {
    (0..16)
        .map(|nibble| ((x >> (4 * nibble)) & 0xF) as u32)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_seq::PackedSeq;

    fn packed(seq: &[u8]) -> PackedSeq {
        PackedSeq::from_ascii(seq)
    }

    /// Shifting the packed words right by `k` bases must equal packing the sequence
    /// with `k` leading `A`s (and the tail truncated). Bits shifted into the word
    /// padding beyond the sequence length are irrelevant (every consumer truncates
    /// to `len` bases), so the comparison decodes the first `len` bases.
    #[test]
    fn shift_right_matches_reencoding() {
        let seq = b"ACGTACGTACGTACGTTGCATGCATGCATGCAAACCGGTT"; // 40 bases, 3 words
        let p = packed(seq);
        for k in [0usize, 1, 3, 15, 16, 17, 20, 33] {
            let shifted = shift_right_bases(p.words(), k);
            let mut expected_seq = vec![b'A'; k.min(seq.len())];
            expected_seq.extend_from_slice(&seq[..seq.len() - k.min(seq.len())]);
            let decoded = PackedSeq::from_words(shifted, seq.len()).to_ascii();
            assert_eq!(decoded, expected_seq, "k = {k}");
        }
    }

    /// Shifting left by `k` bases must equal dropping the first `k` bases and
    /// padding the tail with `A`s.
    #[test]
    fn shift_left_matches_reencoding() {
        let seq = b"ACGTACGTACGTACGTTGCATGCATGCATGCAAACCGGTT";
        let p = packed(seq);
        for k in [0usize, 1, 3, 15, 16, 17, 20, 33] {
            let shifted = shift_left_bases(p.words(), k);
            let mut expected_seq = seq[k.min(seq.len())..].to_vec();
            expected_seq.resize(seq.len(), b'A');
            let expected = packed(&expected_seq);
            assert_eq!(shifted, expected.words(), "k = {k}");
        }
    }

    #[test]
    fn shift_by_zero_is_identity() {
        let p = packed(b"ACGTACGTACGTACGTACGT");
        assert_eq!(shift_right_bases(p.words(), 0), p.words());
        assert_eq!(shift_left_bases(p.words(), 0), p.words());
    }

    #[test]
    fn shift_beyond_length_clears_everything() {
        let p = packed(b"ACGTACGT");
        let right = shift_right_bases(p.words(), 100);
        let left = shift_left_bases(p.words(), 100);
        assert!(right.iter().all(|&w| w == 0));
        assert!(left.iter().all(|&w| w == 0));
    }

    #[test]
    fn left_then_right_restores_middle() {
        let seq = b"ACGTACGTACGTACGTTGCATGCATGCATGCA";
        let p = packed(seq);
        let k = 5;
        let round = shift_right_bases(&shift_left_bases(p.words(), k), k);
        // Positions k..len-? should match the original; the first k bases are A-padded.
        let restored = PackedSeq::from_words(round, seq.len());
        let restored_ascii = restored.to_ascii();
        assert_eq!(&restored_ascii[k..seq.len() - k], &seq[k..seq.len() - k]);
    }

    #[test]
    fn xor_mask_marks_exactly_the_mismatching_bases() {
        let a = packed(b"ACGTACGTACGTACGTACGTA");
        let b = packed(b"ACGTACGAACGTACGTACGTC");
        let mask = xor_to_base_mask_reference(a.words(), b.words(), 21);
        let expected: Vec<bool> = (0..21).map(|i| i == 7 || i == 20).collect();
        assert_eq!(mask, BaseMask::from_bools(expected));
    }

    #[test]
    fn xor_mask_of_identical_sequences_is_zero() {
        let a = packed(b"TTTTGGGGCCCCAAAATTTTGGGG");
        let mask = xor_to_base_mask_reference(a.words(), a.words(), 24);
        assert_eq!(mask.count_ones(), 0);
    }

    #[test]
    fn xor_mask_counts_match_hamming_distance() {
        let a = packed(b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT");
        let b = packed(b"ACGAACGTACGTACCTACGTACGTAAGTACGTACGTACGA");
        let mask = xor_to_base_mask_reference(a.words(), b.words(), 40);
        assert_eq!(Some(mask.count_ones()), a.hamming_distance(&b));
    }

    #[test]
    fn nibble_popcounts_match_reference_on_structured_and_random_words() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for x in [0u64, u64::MAX, 0x8000_0000_0000_0001, 0xF0F0_F0F0_F0F0_F0F0] {
            assert_eq!(nibble_popcounts(x), nibble_popcounts_reference(x), "{x:#x}");
        }
        for _ in 0..10_000 {
            let x: u64 = rng.gen();
            assert_eq!(nibble_popcounts(x), nibble_popcounts_reference(x), "{x:#x}");
        }
    }

    #[test]
    fn nibble_min_matches_reference_for_all_in_range_nibble_values() {
        // Exhaustive over one nibble pair (the lanes are independent).
        for a in 0u64..8 {
            for b in 0u64..8 {
                assert_eq!(nibble_min(a, b), a.min(b), "a = {a}, b = {b}");
            }
        }
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..10_000 {
            // Random words with every nibble ≤ 7 (the documented precondition).
            let a: u64 = rng.gen::<u64>() & !NIBBLE_HI;
            let b: u64 = rng.gen::<u64>() & !NIBBLE_HI;
            assert_eq!(
                nibble_min(a, b),
                nibble_min_reference(a, b),
                "{a:#x} {b:#x}"
            );
        }
    }

    #[test]
    fn sum_nibbles_matches_reference_including_saturated_words() {
        assert_eq!(sum_nibbles(0), 0);
        assert_eq!(sum_nibbles(u64::MAX), 16 * 15);
        assert_eq!(sum_nibbles(0x1111_1111_1111_1111), 16);
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10_000 {
            let x: u64 = rng.gen();
            assert_eq!(sum_nibbles(x), sum_nibbles_reference(x), "{x:#x}");
        }
    }

    #[test]
    fn xor_mask_handles_word_boundary_mismatches() {
        // Mismatches at positions 15, 16 (boundary between word 0 and 1) and 31, 32.
        let mut seq_b = b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT".to_vec();
        for &pos in &[15usize, 16, 31, 32] {
            seq_b[pos] = if seq_b[pos] == b'A' { b'C' } else { b'A' };
        }
        let a = packed(b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT");
        let b = packed(&seq_b);
        let mask = xor_to_base_mask_reference(a.words(), b.words(), 40);
        for pos in 0..40 {
            assert_eq!(mask.get(pos), [15, 16, 31, 32].contains(&pos), "pos {pos}");
        }
    }
}
