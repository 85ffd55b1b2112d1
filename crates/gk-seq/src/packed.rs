//! 2-bit packed sequences stored in `u32` words.
//!
//! GateKeeper-GPU represents sequences as arrays of 32-bit words, 16 bases per
//! word (§3.3: "a 16-character window is encoded into an unsigned integer … thus a
//! 100bp read is represented as seven words"). Bases are stored left-to-right from
//! the most significant bit pair of word 0, which keeps the word array in the same
//! visual order as the sequence and lets the filter implement base-granular shifts
//! with explicit carry transfer between adjacent words — the correction the paper
//! highlights as a difference from the FPGA's arbitrarily wide registers (§3.4).
//!
//! `N` bases have no 2-bit code. A [`PackedSeq`] therefore carries a parallel
//! *undefined flag*: if any input base was not `ACGT` the sequence is marked
//! undefined and GateKeeper-GPU gives the pair a free pass (§3.3). The packed words
//! encode `N` as `A` so that word arithmetic stays well-defined.

use crate::alphabet::Base;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of bases packed into a single `u32` word.
pub const BASES_PER_WORD: usize = 16;
/// Number of bits used per base.
pub const BITS_PER_BASE: usize = 2;

/// A DNA sequence packed two bits per base into `u32` words.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PackedSeq {
    words: Vec<u32>,
    len: usize,
    undefined: bool,
    n_positions: Vec<u32>,
}

impl PackedSeq {
    /// Packs an ASCII sequence. Characters outside `ACGTacgt` are encoded as `A`
    /// and the sequence is flagged [`PackedSeq::is_undefined`].
    pub fn from_ascii(seq: &[u8]) -> PackedSeq {
        let len = seq.len();
        let mut words = vec![0u32; Self::words_for_len(len)];
        let mut undefined = false;
        let mut n_positions = Vec::new();
        for (i, &ch) in seq.iter().enumerate() {
            let base = Base::from_ascii(ch);
            let code = match base.code() {
                Some(code) => code,
                None => {
                    undefined = true;
                    n_positions.push(i as u32);
                    0
                }
            };
            let word = i / BASES_PER_WORD;
            let slot = i % BASES_PER_WORD;
            let shift = (BASES_PER_WORD - 1 - slot) * BITS_PER_BASE;
            words[word] |= (code as u32) << shift;
        }
        PackedSeq {
            words,
            len,
            undefined,
            n_positions,
        }
    }

    /// Builds a packed sequence directly from words. The caller asserts that only
    /// the first `len` base slots are meaningful; trailing slots are zeroed.
    pub fn from_words(mut words: Vec<u32>, len: usize) -> PackedSeq {
        let needed = Self::words_for_len(len);
        words.resize(needed, 0);
        // Zero the padding slots so equality and hashing are canonical.
        if !len.is_multiple_of(BASES_PER_WORD) {
            let used_bits = (len % BASES_PER_WORD) * BITS_PER_BASE;
            let mask = if used_bits == 0 {
                0
            } else {
                !0u32 << (32 - used_bits)
            };
            if let Some(last) = words.last_mut() {
                *last &= mask;
            }
        }
        PackedSeq {
            words,
            len,
            undefined: false,
            n_positions: Vec::new(),
        }
    }

    /// Number of `u32` words needed for a sequence of `len` bases.
    #[inline]
    fn words_for_len(len: usize) -> usize {
        len.div_ceil(BASES_PER_WORD)
    }

    /// Sequence length in bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the sequence has no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if the original input contained a base outside `ACGT` (e.g. `N`).
    #[inline]
    pub fn is_undefined(&self) -> bool {
        self.undefined
    }

    /// Positions (0-based) of the undefined bases in the original input.
    #[inline]
    pub fn undefined_positions(&self) -> &[u32] {
        &self.n_positions
    }

    /// The packed word array (16 bases per word, sequence start at the MSB of word 0).
    #[inline]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Returns the 2-bit code of the base at `pos`.
    ///
    /// # Panics
    /// Panics if `pos >= self.len()`.
    #[inline]
    pub fn code_at(&self, pos: usize) -> u8 {
        assert!(
            pos < self.len,
            "position {pos} out of range (len {})",
            self.len
        );
        let word = self.words[pos / BASES_PER_WORD];
        let slot = pos % BASES_PER_WORD;
        let shift = (BASES_PER_WORD - 1 - slot) * BITS_PER_BASE;
        ((word >> shift) & 0b11) as u8
    }

    /// Returns the base at `pos`. Undefined input bases decode as [`Base::A`]
    /// (their packed placeholder); use [`PackedSeq::undefined_positions`] to
    /// recover where the `N`s were.
    #[inline]
    fn base_at(&self, pos: usize) -> Base {
        Base::from_code(self.code_at(pos))
    }

    /// Decodes back to an ASCII sequence, restoring `N` at the recorded positions.
    pub fn to_ascii(&self) -> Vec<u8> {
        let mut out: Vec<u8> = (0..self.len).map(|i| self.base_at(i).to_ascii()).collect();
        for &pos in &self.n_positions {
            out[pos as usize] = b'N';
        }
        out
    }

    /// Extracts a sub-sequence `[start, start + len)` as a new packed sequence.
    ///
    /// # Panics
    /// Panics if the range does not lie within the sequence.
    pub fn slice(&self, start: usize, len: usize) -> PackedSeq {
        assert!(
            start + len <= self.len,
            "slice [{start}, {}) out of range (len {})",
            start + len,
            self.len
        );
        let ascii = self.to_ascii();
        PackedSeq::from_ascii(&ascii[start..start + len])
    }

    /// Hamming distance between two equal-length packed sequences, computed with
    /// word-level XOR + popcount on the per-base OR-reduced difference — the same
    /// primitive GateKeeper uses for its Hamming mask.
    pub fn hamming_distance(&self, other: &PackedSeq) -> Option<u32> {
        if self.len != other.len {
            return None;
        }
        let mut total = 0u32;
        for (i, (&a, &b)) in self.words.iter().zip(other.words.iter()).enumerate() {
            let mut diff = a ^ b;
            if i == self.words.len() - 1 && !self.len.is_multiple_of(BASES_PER_WORD) {
                let used_bits = (self.len % BASES_PER_WORD) * BITS_PER_BASE;
                diff &= !0u32 << (32 - used_bits);
            }
            // OR the two bits of every base so each mismatching base counts once.
            let hi = diff & 0xAAAA_AAAA;
            let lo = diff & 0x5555_5555;
            let per_base = (hi >> 1) | lo;
            total += per_base.count_ones();
        }
        Some(total)
    }
}

impl fmt::Debug for PackedSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ascii = self.to_ascii();
        let shown = if ascii.len() > 48 {
            format!("{}…", String::from_utf8_lossy(&ascii[..48]))
        } else {
            String::from_utf8_lossy(&ascii).into_owned()
        };
        f.debug_struct("PackedSeq")
            .field("len", &self.len)
            .field("undefined", &self.undefined)
            .field("seq", &shown)
            .finish()
    }
}

impl fmt::Display for PackedSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&String::from_utf8_lossy(&self.to_ascii()))
    }
}

/// Encodes a batch of ASCII sequences across the worker pool. This is the
/// "encoding in host" path of the paper (§3.3): the CPU packs the reads before they
/// are copied to the device. Output order matches input order, so the result is
/// identical to a sequential `seqs.iter().map(PackedSeq::from_ascii)` pass;
/// set `RAYON_NUM_THREADS=1` to force that sequential fallback.
pub fn encode_batch_parallel(seqs: &[&[u8]]) -> Vec<PackedSeq> {
    use rayon::prelude::*;
    seqs.par_iter().map(|s| PackedSeq::from_ascii(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_count_matches_paper() {
        // "a 100bp read is represented as seven words"
        assert_eq!(PackedSeq::words_for_len(100), 7);
        assert_eq!(PackedSeq::words_for_len(150), 10);
        assert_eq!(PackedSeq::words_for_len(250), 16);
        assert_eq!(PackedSeq::words_for_len(16), 1);
        assert_eq!(PackedSeq::words_for_len(17), 2);
        assert_eq!(PackedSeq::words_for_len(0), 0);
    }

    #[test]
    fn round_trip_ascii() {
        let seq = b"ACGTACGTACGTACGTTGCA";
        let packed = PackedSeq::from_ascii(seq);
        assert_eq!(packed.len(), seq.len());
        assert_eq!(packed.to_ascii(), seq.to_vec());
        assert!(!packed.is_undefined());
    }

    #[test]
    fn n_bases_flag_undefined_and_round_trip() {
        let seq = b"ACGTNACGT";
        let packed = PackedSeq::from_ascii(seq);
        assert!(packed.is_undefined());
        assert_eq!(packed.undefined_positions(), &[4]);
        assert_eq!(packed.to_ascii(), seq.to_vec());
    }

    #[test]
    fn code_at_matches_encoding() {
        let packed = PackedSeq::from_ascii(b"ACGT");
        assert_eq!(packed.code_at(0), 0b00);
        assert_eq!(packed.code_at(1), 0b01);
        assert_eq!(packed.code_at(2), 0b10);
        assert_eq!(packed.code_at(3), 0b11);
    }

    #[test]
    fn first_base_occupies_most_significant_bits() {
        let packed = PackedSeq::from_ascii(b"T");
        assert_eq!(packed.words()[0] >> 30, 0b11);
    }

    #[test]
    fn slice_extracts_expected_sub_sequence() {
        let packed = PackedSeq::from_ascii(b"AAAACCCCGGGGTTTTACGT");
        let sub = packed.slice(4, 8);
        assert_eq!(sub.to_ascii(), b"CCCCGGGG".to_vec());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        PackedSeq::from_ascii(b"ACGT").slice(2, 10);
    }

    #[test]
    fn hamming_distance_counts_mismatching_bases_once() {
        let a = PackedSeq::from_ascii(b"ACGTACGTACGTACGTA");
        let b = PackedSeq::from_ascii(b"ACGTACGTACGTACGTT");
        assert_eq!(a.hamming_distance(&b), Some(1));
        // A (00) vs T (11) differs in both bits but is a single base mismatch.
        let c = PackedSeq::from_ascii(b"AAAA");
        let d = PackedSeq::from_ascii(b"TTTT");
        assert_eq!(c.hamming_distance(&d), Some(4));
    }

    #[test]
    fn hamming_distance_rejects_length_mismatch() {
        let a = PackedSeq::from_ascii(b"ACGT");
        let b = PackedSeq::from_ascii(b"ACG");
        assert_eq!(a.hamming_distance(&b), None);
    }

    #[test]
    fn hamming_distance_ignores_padding() {
        let a = PackedSeq::from_ascii(b"ACGTACG");
        let b = PackedSeq::from_ascii(b"ACGTACG");
        assert_eq!(a.hamming_distance(&b), Some(0));
    }

    #[test]
    fn from_words_zeroes_padding() {
        let words = vec![u32::MAX];
        let packed = PackedSeq::from_words(words, 4);
        // Only the first 8 bits (4 bases) should survive.
        assert_eq!(packed.words()[0], 0xFF00_0000);
        assert_eq!(packed.to_ascii(), b"TTTT".to_vec());
    }

    #[test]
    fn parallel_batch_encoding_matches_serial() {
        let seqs: Vec<Vec<u8>> = (0..64)
            .map(|i| {
                (0..100)
                    .map(|j| b"ACGT"[(i * 7 + j * 3) % 4])
                    .collect::<Vec<u8>>()
            })
            .collect();
        let refs: Vec<&[u8]> = seqs.iter().map(|s| s.as_slice()).collect();
        let batch = encode_batch_parallel(&refs);
        for (seq, packed) in seqs.iter().zip(batch.iter()) {
            assert_eq!(&packed.to_ascii(), seq);
        }
    }

    #[test]
    fn display_and_debug_render() {
        let packed = PackedSeq::from_ascii(b"ACGTN");
        assert_eq!(format!("{packed}"), "ACGTN");
        assert!(format!("{packed:?}").contains("undefined: true"));
    }
}
