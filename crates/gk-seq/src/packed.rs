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
//!
//! [`PackedSeq::from_ascii`] is the host-encode packer (§3.3, Figure 6). It
//! packs eight bases per step with the SWAR classifier and MSB-first packer of
//! [`crate::alphabet`]; the tests pin it to a one-base-per-step reference.
//! [`PackedSeq::kmer_code`] cuts a k-mer's code out of the words, and
//! [`reverse_complement_code`] turns it into the reverse strand's code; the
//! mapper seeds with both.

use crate::alphabet::{self, Base};
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
    ///
    /// Each `u32` word is packed in two steps of eight bases. A step is
    /// classified as it is packed (the SWAR classifier and MSB-first packer
    /// of [`alphabet`]): a flagged byte packs as `A`, and the `N` positions
    /// are read off the classifier's mask, so a sequence with undefined bases
    /// takes the same path as one without. The last step of a sequence is
    /// padded with `A`, which packs to the zero bits the padding slots must
    /// hold.
    pub fn from_ascii(seq: &[u8]) -> PackedSeq {
        let mut words = Vec::with_capacity(Self::words_for_len(seq.len()));
        let mut n_positions = Vec::new();
        let mut windows = seq.chunks_exact(BASES_PER_WORD);
        for (w, window) in windows.by_ref().enumerate() {
            let (high, low) = window.split_at(8);
            words.push(pack_word(high, low, w * BASES_PER_WORD, &mut n_positions));
        }
        let rest = windows.remainder();
        if !rest.is_empty() {
            let start = seq.len() - rest.len();
            let (high, low) = rest.split_at(rest.len().min(8));
            words.push(pack_word(high, low, start, &mut n_positions));
        }
        PackedSeq {
            words,
            len: seq.len(),
            undefined: !n_positions.is_empty(),
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

    /// Returns the `2k`-bit code of bases `[start, start + k)`, first base in
    /// the most significant bits: the window cut from the packed words in one
    /// step, not packed a base at a time. Undefined input bases read as `A`,
    /// their packed placeholder; check the window against
    /// [`PackedSeq::undefined_positions`] where that matters.
    ///
    /// # Panics
    /// Panics if `k` is outside 1–31 or the window does not lie within the
    /// sequence.
    #[inline]
    pub fn kmer_code(&self, start: usize, k: usize) -> u64 {
        assert!(
            (1..=31).contains(&k),
            "k-mer length {k} out of range 1..=31"
        );
        assert!(
            k <= self.len && start <= self.len - k,
            "k-mer [{start}, {}) out of range (len {})",
            start + k,
            self.len
        );
        // A window of at most 31 bases spans at most three words from any
        // slot: the 64 bits from the window's first base are the first two
        // words shifted up, with the head of the third shifted in below.
        let first = start / BASES_PER_WORD;
        let skip = start % BASES_PER_WORD * BITS_PER_BASE;
        let word = |i| u64::from(self.words.get(first + i).copied().unwrap_or(0));
        let bits = (word(0) << 32 | word(1)) << skip | word(2) >> (32 - skip);
        bits >> (64 - k * BITS_PER_BASE)
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

/// Returns the code of the reverse complement of the `k` bases that `code`
/// holds in the layout of [`PackedSeq::kmer_code`]. In the paper's codes the
/// complement of a base is its bitwise NOT (`A=00` ↔ `T=11`, `C=01` ↔
/// `G=10`); the 2-bit groups are then reversed in two mask-and-shift steps
/// and a byte swap, and the `k` bases shifted down from the top.
///
/// # Panics
/// Panics if `k` is outside 1–32.
#[inline]
pub fn reverse_complement_code(code: u64, k: usize) -> u64 {
    assert!(
        (1..=32).contains(&k),
        "k-mer length {k} out of range 1..=32"
    );
    let x = !code;
    let x = (x >> 2 & 0x3333_3333_3333_3333) | (x & 0x3333_3333_3333_3333) << 2;
    let x = (x >> 4 & 0x0F0F_0F0F_0F0F_0F0F) | (x & 0x0F0F_0F0F_0F0F_0F0F) << 4;
    x.swap_bytes() >> (64 - k * BITS_PER_BASE)
}

/// Packs one word of up to sixteen bases, given as its first eight (`high`)
/// and the rest (`low`), which start at base `start` of the sequence.
/// Appends the positions of its undefined bases to `n_positions`.
#[inline]
fn pack_word(high: &[u8], low: &[u8], start: usize, n_positions: &mut Vec<u32>) -> u32 {
    let high = pack_step(high, start, n_positions);
    let low = pack_step(low, start + 8, n_positions);
    (u32::from(high) << 16) | u32::from(low)
}

/// Packs one step of up to eight bases that start at base `start`.
#[inline]
fn pack_step(step: &[u8], start: usize, n_positions: &mut Vec<u32>) -> u16 {
    let bytes = u64::from_be_bytes(alphabet::step8(step));
    let undefined = alphabet::undefined_bytes8(bytes);
    // Big-endian load: base `k` of the step owns the flag at bit 63 − 8k.
    let mut flags = undefined;
    while flags != 0 {
        let offset = flags.leading_zeros();
        n_positions.push((start + offset as usize / 8) as u32);
        flags ^= 1 << (63 - offset);
    }
    alphabet::pack8_codes(bytes, undefined)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{random_mix, SWAR_TEST_LENGTHS};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-base definition of [`PackedSeq::from_ascii`]: one base per
    /// step through [`Base::from_ascii`].
    fn from_ascii_reference(seq: &[u8]) -> PackedSeq {
        let len = seq.len();
        let mut words = vec![0u32; PackedSeq::words_for_len(len)];
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

    /// Compares words, length, undefined flag and `N` positions.
    fn assert_packs_like_reference(seq: &[u8]) {
        let packed = PackedSeq::from_ascii(seq);
        let reference = from_ascii_reference(seq);
        assert_eq!(packed.words, reference.words, "{seq:?}");
        assert_eq!(packed.len, reference.len, "{seq:?}");
        assert_eq!(packed.undefined, reference.undefined, "{seq:?}");
        assert_eq!(packed.n_positions, reference.n_positions, "{seq:?}");
    }

    /// Every byte value at every offset of a one-word sequence (both of its
    /// steps) whose other bases are one letter of `ACGTacgt`.
    #[test]
    fn swar_packer_matches_reference_for_every_byte_at_every_offset() {
        for fill in *b"ACGTacgt" {
            for offset in 0..BASES_PER_WORD {
                for value in 0..=u8::MAX {
                    let mut seq = [fill; BASES_PER_WORD];
                    seq[offset] = value;
                    assert_packs_like_reference(&seq);
                }
            }
        }
    }

    /// Every length around a step or word boundary: clean, with `N` or
    /// lowercase at each position, and random mixes with `N`, lowercase and
    /// other bytes outside the alphabet.
    #[test]
    fn swar_packer_matches_reference_on_every_length() {
        let mut rng = StdRng::seed_from_u64(0x9AC4);
        for &len in SWAR_TEST_LENGTHS {
            for dirt in [0.0, 0.02, 0.16, 0.5, 1.0] {
                for _ in 0..20 {
                    assert_packs_like_reference(&random_mix(len, dirt, &mut rng));
                }
            }
            let clean = random_mix(len, 0.0, &mut rng);
            for pos in 0..len {
                for ch in [b'N', b'n', b'a', b'T'] {
                    let mut seq = clean.clone();
                    seq[pos] = ch;
                    assert_packs_like_reference(&seq);
                }
            }
        }
    }

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

    /// The per-base definition of a k-mer code: each base's 2-bit code
    /// (`A` for an undefined byte), first base in the high bits.
    fn ascii_code(kmer: &[u8]) -> u64 {
        kmer.iter().fold(0, |code, &ch| {
            code << 2 | u64::from(Base::from_ascii(ch).code().unwrap_or(0))
        })
    }

    /// Every `k` from 1 to 31 at every start, across four word boundaries,
    /// with `N` and lowercase bases in the sequence.
    #[test]
    fn kmer_code_matches_per_base_packing_at_every_start() {
        let mut rng = StdRng::seed_from_u64(0x6B3E);
        for dirt in [0.0, 0.1] {
            let seq = random_mix(5 * BASES_PER_WORD + 3, dirt, &mut rng);
            let packed = PackedSeq::from_ascii(&seq);
            for k in 1..=31 {
                for start in 0..=seq.len() - k {
                    assert_eq!(
                        packed.kmer_code(start, k),
                        ascii_code(&seq[start..start + k]),
                        "k = {k}, start = {start}, {seq:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn kmer_code_past_the_end_panics() {
        PackedSeq::from_ascii(b"ACGTACGT").kmer_code(5, 4);
    }

    /// The code arithmetic against `reverse_complement` followed by packing,
    /// for every `k` from 1 to 32.
    #[test]
    fn reverse_complement_code_matches_packing_the_reverse_complement() {
        let mut rng = StdRng::seed_from_u64(0x7C0D);
        for k in 1..=32 {
            for _ in 0..64 {
                let kmer = random_mix(k, 0.0, &mut rng);
                assert_eq!(
                    reverse_complement_code(ascii_code(&kmer), k),
                    ascii_code(&alphabet::reverse_complement(&kmer)),
                    "{kmer:?}"
                );
            }
        }
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
    fn display_and_debug_render() {
        let packed = PackedSeq::from_ascii(b"ACGTN");
        assert_eq!(format!("{packed}"), "ACGTN");
        assert!(format!("{packed:?}").contains("undefined: true"));
    }
}
