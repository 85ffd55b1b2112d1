//! (read, candidate reference segment) pairs — the unit of work of a pre-alignment
//! filter.
//!
//! Every filtering, accuracy and throughput experiment in the paper operates on
//! sets of 30 million such pairs seeded by mrFAST (or extracted from Minimap2 /
//! BWA-MEM just before their first dynamic-programming step, §4.1). [`SequencePair`]
//! is one pair; [`PairSet`] is a named collection with the bookkeeping the
//! experiments need (read length, undefined-pair counting, batching).

use crate::alphabet::has_undefined;
use crate::packed::PackedSeq;
use serde::{Deserialize, Serialize};

/// Number of sequences processed lane-parallel by one struct-of-arrays group
/// (four 64-bit lanes = one 256-bit SIMD-style vector).
pub const SOA_LANES: usize = 4;

/// Bases carried per 64-bit word in the struct-of-arrays layout (2 bits/base).
pub const SOA_BASES_PER_WORD: usize = 32;

/// A read and the candidate reference segment it may align to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SequencePair {
    /// The read sequence (ASCII).
    pub read: Vec<u8>,
    /// The candidate reference segment (ASCII), normally the same length as the read.
    pub reference: Vec<u8>,
}

impl SequencePair {
    /// Creates a pair from ASCII sequences.
    pub fn new(read: impl Into<Vec<u8>>, reference: impl Into<Vec<u8>>) -> SequencePair {
        SequencePair {
            read: read.into(),
            reference: reference.into(),
        }
    }

    /// Read length in bases.
    pub fn read_len(&self) -> usize {
        self.read.len()
    }

    /// True if either sequence contains a base outside `ACGT` (an *undefined* pair,
    /// which GateKeeper-GPU passes through the filter without examining, §3.3).
    pub fn is_undefined(&self) -> bool {
        has_undefined(&self.read) || has_undefined(&self.reference)
    }

    /// Packs both sequences into the 2-bit device representation.
    pub fn packed(&self) -> (PackedSeq, PackedSeq) {
        (
            PackedSeq::from_ascii(&self.read),
            PackedSeq::from_ascii(&self.reference),
        )
    }
}

/// A named collection of sequence pairs, as used by the accuracy and throughput
/// experiments (the paper's "Set 1" … "Set 12").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairSet {
    /// Human-readable dataset name.
    pub name: String,
    /// Read length of the pairs in the set.
    pub read_len: usize,
    /// The pairs themselves.
    pub pairs: Vec<SequencePair>,
}

impl PairSet {
    /// Creates a pair set, asserting that all reads share `read_len`.
    pub fn new(name: impl Into<String>, read_len: usize, pairs: Vec<SequencePair>) -> PairSet {
        PairSet {
            name: name.into(),
            read_len,
            pairs,
        }
    }

    /// Number of pairs in the set.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the set holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of undefined pairs (pairs containing an `N`), the quantity the paper
    /// reports per dataset in Sup. Table S.1.
    pub fn undefined_count(&self) -> usize {
        self.pairs.iter().filter(|p| p.is_undefined()).count()
    }

    /// Splits the set into batches of at most `batch_size` pairs, preserving order.
    /// This mirrors the batched kernel launches of GateKeeper-GPU (§3.1).
    pub fn batches(&self, batch_size: usize) -> impl Iterator<Item = &[SequencePair]> {
        let batch_size = batch_size.max(1);
        self.pairs.chunks(batch_size)
    }

    /// Borrow the pairs as parallel slices of (read, reference) for bulk encoding.
    pub fn as_slices(&self) -> (Vec<&[u8]>, Vec<&[u8]>) {
        let reads = self.pairs.iter().map(|p| p.read.as_slice()).collect();
        let refs = self.pairs.iter().map(|p| p.reference.as_slice()).collect();
        (reads, refs)
    }
}

/// Struct-of-arrays transpose of up to [`SOA_LANES`] equal-length, fully
/// defined (ACGT-only) pairs, laid out for lane-parallel filtering.
///
/// Row `w` holds the `w`-th 2-bit word of **every** lane's sequence:
/// `read_words[w][lane]` is word `w` of read `lane`. Within a word the layout
/// is LSB-first — base `i` of a sequence sits at bit pair `2·(i % 32)` of word
/// `i / 32` — so a shift of the sequence towards higher base positions is a
/// plain left shift of the bit string, lane-wise, with carry between rows.
///
/// The 2-bit code is derived directly from ASCII as `(byte >> 1) & 3`
/// (`A=00, C=01, T=10, G=11`, case-insensitive). This differs from the
/// [`PackedSeq`] code assignment, but any injective recoding of `ACGT`
/// preserves the per-base mismatch structure — and both codings encode `A`
/// as `00`, so the zeros vacated by shifts compare exactly like the `A`s
/// vacated in the packed-word reference path. Filter decisions are therefore
/// byte-identical to the [`PackedSeq`] pipeline.
///
/// One spare all-zero row is kept past the last sequence word, and all bits
/// beyond `2·len` are zero: the lane kernels rely on clean padding for their
/// carry-propagating shifts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoaGroup {
    /// Uniform sequence length (bases) of every lane, > 0.
    pub len: usize,
    /// Number of active lanes (1..=[`SOA_LANES`]); results of inactive lanes
    /// are meaningless and must be ignored.
    pub lanes: usize,
    /// SoA read words: `len.div_ceil(32) + 1` rows (last row is the zero spare).
    pub read_words: Vec<[u64; SOA_LANES]>,
    /// SoA reference words, same shape as `read_words`.
    pub ref_words: Vec<[u64; SOA_LANES]>,
}

impl SoaGroup {
    /// Transposes up to [`SOA_LANES`] pairs into the lane layout.
    ///
    /// Returns `None` when the group is not lane-eligible: empty, more pairs
    /// than lanes, any sequence length differing from the first read's, a zero
    /// length, or any base outside `ACGT`/`acgt` (undefined pairs keep their
    /// scalar undefined-pass handling).
    pub fn encode(pairs: &[&SequencePair]) -> Option<SoaGroup> {
        let slices: Vec<(&[u8], &[u8])> = pairs
            .iter()
            .map(|p| (p.read.as_slice(), p.reference.as_slice()))
            .collect();
        SoaGroup::encode_slices(&slices)
    }

    /// [`SoaGroup::encode`] over raw ASCII `(read, reference)` slices.
    pub fn encode_slices(pairs: &[(&[u8], &[u8])]) -> Option<SoaGroup> {
        let mut group = SoaGroup::scratch();
        group.encode_slices_into(pairs).then_some(group)
    }

    /// An empty placeholder group for buffer reuse with
    /// [`SoaGroup::encode_slices_into`]. Not a valid group (`len == 0`,
    /// `lanes == 0`) until an encode into it succeeds.
    pub fn scratch() -> SoaGroup {
        SoaGroup {
            len: 0,
            lanes: 0,
            read_words: Vec::new(),
            ref_words: Vec::new(),
        }
    }

    /// Re-encodes `pairs` into `self`, reusing its row buffers — the hot-loop
    /// twin of [`SoaGroup::encode_slices`] (block drivers encode one group per
    /// four pairs; reuse keeps that off the allocator). Eligibility is
    /// identical; returns `false` — leaving `self` unspecified — when the
    /// group is not lane-eligible.
    pub fn encode_slices_into(&mut self, pairs: &[(&[u8], &[u8])]) -> bool {
        let lanes = pairs.len();
        if lanes == 0 || lanes > SOA_LANES {
            return false;
        }
        let len = pairs[0].0.len();
        if len == 0 {
            return false;
        }
        for (read, reference) in pairs {
            if read.len() != len || reference.len() != len {
                return false;
            }
            if has_undefined(read) || has_undefined(reference) {
                return false;
            }
        }
        let rows = len.div_ceil(SOA_BASES_PER_WORD) + 1;
        self.len = len;
        self.lanes = lanes;
        self.read_words.clear();
        self.read_words.resize(rows, [0u64; SOA_LANES]);
        self.ref_words.clear();
        self.ref_words.resize(rows, [0u64; SOA_LANES]);
        for (lane, (read, reference)) in pairs.iter().enumerate() {
            pack_ascii_lane(read, lane, &mut self.read_words);
            pack_ascii_lane(reference, lane, &mut self.ref_words);
        }
        true
    }

    /// Transposes up to [`SOA_LANES`] already-packed pairs into the lane
    /// layout, reversing each `u32`'s MSB-first 2-bit fields into the
    /// LSB-first lane order. Eligibility mirrors [`SoaGroup::encode`]:
    /// uniform nonzero length and no undefined sequences.
    pub fn from_packed(pairs: &[(&PackedSeq, &PackedSeq)]) -> Option<SoaGroup> {
        let lanes = pairs.len();
        if lanes == 0 || lanes > SOA_LANES {
            return None;
        }
        let len = pairs[0].0.len();
        if len == 0 {
            return None;
        }
        for (read, reference) in pairs {
            if read.len() != len || reference.len() != len {
                return None;
            }
            if read.is_undefined() || reference.is_undefined() {
                return None;
            }
        }
        let rows = len.div_ceil(SOA_BASES_PER_WORD) + 1;
        let mut read_words = vec![[0u64; SOA_LANES]; rows];
        let mut ref_words = vec![[0u64; SOA_LANES]; rows];
        for (lane, (read, reference)) in pairs.iter().enumerate() {
            pack_words_lane(read.words(), lane, &mut read_words);
            pack_words_lane(reference.words(), lane, &mut ref_words);
        }
        Some(SoaGroup {
            len,
            lanes,
            read_words,
            ref_words,
        })
    }

    /// Number of meaningful (non-spare) 64-bit words per sequence.
    pub fn words_per_sequence(&self) -> usize {
        self.len.div_ceil(SOA_BASES_PER_WORD)
    }
}

/// Compacts the 2-bit codes of eight ASCII bases (one little-endian `u64`
/// load) into sixteen LSB-first bits: extract bits 1–2 of every byte, then
/// fold the byte-stride fields down to 2-bit stride in three halving steps.
#[inline]
fn pack8_ascii(bytes: u64) -> u64 {
    let x = (bytes >> 1) & 0x0303_0303_0303_0303;
    let x = (x | (x >> 6)) & 0x000F_000F_000F_000F;
    let x = (x | (x >> 12)) & 0x0000_00FF_0000_00FF;
    (x | (x >> 24)) & 0xFFFF
}

/// Packs one ASCII sequence into lane `lane` of the SoA rows, eight bases per
/// step on the aligned body and byte-at-a-time on the tail.
fn pack_ascii_lane(seq: &[u8], lane: usize, rows: &mut [[u64; SOA_LANES]]) {
    for (row, chunk) in seq.chunks(SOA_BASES_PER_WORD).enumerate() {
        let mut word = 0u64;
        let mut eights = chunk.chunks_exact(8);
        for (i, eight) in eights.by_ref().enumerate() {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(eight);
            word |= pack8_ascii(u64::from_le_bytes(raw)) << (16 * i);
        }
        let packed = chunk.len() / 8 * 8;
        for (i, &b) in eights.remainder().iter().enumerate() {
            word |= u64::from((b >> 1) & 3) << (2 * (packed + i));
        }
        rows[row][lane] = word;
    }
}

/// Packs one [`PackedSeq`] word array into lane `lane` of the SoA rows: each
/// MSB-first `u32` (16 bases) has its 2-bit fields order-reversed, and two
/// reversed `u32`s form one LSB-first `u64` row entry.
fn pack_words_lane(words: &[u32], lane: usize, rows: &mut [[u64; SOA_LANES]]) {
    for (w, &word) in words.iter().enumerate() {
        let reversed = u64::from(reverse_base_fields(word));
        rows[w / 2][lane] |= reversed << (32 * (w % 2));
    }
}

/// Reverses the order of the sixteen 2-bit fields of a `u32` (base slot `s`
/// moves from bit pair `(15 − s)·2` to bit pair `s·2`) without altering the
/// bits inside each field.
#[inline]
fn reverse_base_fields(v: u32) -> u32 {
    let v = ((v >> 2) & 0x3333_3333) | ((v & 0x3333_3333) << 2);
    let v = ((v >> 4) & 0x0F0F_0F0F) | ((v & 0x0F0F_0F0F) << 4);
    let v = ((v >> 8) & 0x00FF_00FF) | ((v & 0x00FF_00FF) << 8);
    v.rotate_left(16)
}

/// Packs every pair into the 2-bit device representation, fanning the batch
/// out across the thread pool. This is the host-side encoding stage shared by
/// the GPU system (host-encoding actor, §3.3) and the multicore CPU baseline;
/// output order matches input order exactly, so results are identical to a
/// sequential `pairs.iter().map(|p| p.packed())` pass.
pub fn encode_pair_batch(pairs: &[SequencePair]) -> Vec<(PackedSeq, PackedSeq)> {
    use rayon::prelude::*;
    pairs.par_iter().map(|p| p.packed()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(read: &[u8], reference: &[u8]) -> SequencePair {
        SequencePair::new(read.to_vec(), reference.to_vec())
    }

    #[test]
    fn undefined_detection_checks_both_sides() {
        assert!(pair(b"ACGN", b"ACGT").is_undefined());
        assert!(pair(b"ACGT", b"NCGT").is_undefined());
        assert!(!pair(b"ACGT", b"ACGT").is_undefined());
    }

    #[test]
    fn packed_round_trips() {
        let p = pair(b"ACGTACGT", b"TGCATGCA");
        let (r, s) = p.packed();
        assert_eq!(r.to_ascii(), p.read);
        assert_eq!(s.to_ascii(), p.reference);
    }

    #[test]
    fn undefined_count_matches_manual_count() {
        let set = PairSet::new(
            "test",
            4,
            vec![
                pair(b"ACGT", b"ACGT"),
                pair(b"ACGN", b"ACGT"),
                pair(b"ACGT", b"NNNN"),
            ],
        );
        assert_eq!(set.undefined_count(), 2);
    }

    #[test]
    fn batches_cover_all_pairs_in_order() {
        let pairs: Vec<SequencePair> = (0..10)
            .map(|i| pair(&[b"ACGT"[i % 4]; 4], b"ACGT"))
            .collect();
        let set = PairSet::new("test", 4, pairs.clone());
        let collected: Vec<SequencePair> = set.batches(3).flatten().cloned().collect();
        assert_eq!(collected, pairs);
        assert_eq!(set.batches(3).count(), 4);
        assert_eq!(set.batches(100).count(), 1);
    }

    #[test]
    fn batches_with_zero_size_does_not_panic() {
        let set = PairSet::new("test", 4, vec![pair(b"ACGT", b"ACGT")]);
        assert_eq!(set.batches(0).count(), 1);
    }

    #[test]
    fn as_slices_preserves_order() {
        let set = PairSet::new(
            "test",
            4,
            vec![pair(b"AAAA", b"CCCC"), pair(b"GGGG", b"TTTT")],
        );
        let (reads, refs) = set.as_slices();
        assert_eq!(reads, vec![b"AAAA".as_slice(), b"GGGG".as_slice()]);
        assert_eq!(refs, vec![b"CCCC".as_slice(), b"TTTT".as_slice()]);
    }
}
