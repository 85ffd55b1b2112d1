//! Flat k-mer index over the reference genome.
//!
//! mrFAST builds an index of fixed-length k-mers (12-mers by default) over the
//! reference; seeding looks up the k-mers extracted from each read and every hit
//! becomes a candidate mapping location. Regions containing `N` are skipped during
//! construction, mirroring §3.5 ("the locations of 'N' bases on the reference
//! genome are also recorded since the segments containing this character will not
//! be evaluated").
//!
//! # Layout
//!
//! Every indexed position is stored once, in one array ordered by (k-mer code,
//! position), next to a parallel array holding each entry's 2-bit code. A bucket
//! table of prefix sums over the top `b` bits of the `2k`-bit code maps a code to
//! a short run of both arrays; a binary search over the run's codes finds the
//! k-mer, whose positions come back as one ascending slice. `b` is
//! `min(2k, ⌊log2 n⌋)` for `n` indexed positions, about one bucket per position,
//! so the input decides it.
//!
//! # Build
//!
//! One pass over the reference collects `(code, position)` in position order.
//! Stable LSD counting-sort passes, each at most 16 bits wide, sort the `2k − b`
//! low bits of the code; a last counting pass on the top `b` bits finishes the
//! sort, and its histogram's prefix sums are the bucket table. Stability keeps
//! positions ascending within each code. The build is O(n) with a fixed number of
//! allocations: no hashing and no per-k-mer vector.
//!
//! # Memory
//!
//! Twelve bytes per indexed position (an 8-byte code, a 4-byte position) plus
//! four per bucket: about 27 MiB for the 2 Mbp `map-wgs` chromosome's 1,991,967
//! positions. The build briefly holds a second copy of both arrays as the sort's
//! scatter target. Positions and offsets are `u32`, so the reference must be
//! shorter than 2^32 bases.

use gk_seq::alphabet::encode_base;
use gk_seq::reference::Reference;
use serde::{Deserialize, Serialize};

/// Default seed length, matching mrFAST's 12-mer index.
pub const DEFAULT_KMER_LEN: usize = 12;

/// Widest digit of the low-bit counting-sort passes (a 64k-entry histogram).
const MAX_PASS_BITS: u32 = 16;

/// A flat k-mer index over one reference sequence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KmerIndex {
    k: usize,
    /// Every indexed position once, ordered by (k-mer code, position).
    positions: Vec<u32>,
    /// Each entry's 2-bit packed k-mer code, parallel to `positions`.
    codes: Vec<u64>,
    /// Prefix sums over the top `b` bits of the code: bucket `t` is
    /// `buckets[t]..buckets[t + 1]`, and there are `2^b + 1` entries.
    buckets: Vec<u32>,
    reference_len: usize,
}

impl KmerIndex {
    /// Builds an index with the default k-mer length.
    pub fn build(reference: &Reference) -> KmerIndex {
        KmerIndex::build_with_k(reference, DEFAULT_KMER_LEN)
    }

    /// Builds an index with an explicit k-mer length (2–31).
    ///
    /// # Panics
    ///
    /// If `k` is outside 2–31, or if the reference has 2^32 bases or more
    /// (positions are stored as `u32`).
    pub fn build_with_k(reference: &Reference, k: usize) -> KmerIndex {
        assert!(
            (2..=31).contains(&k),
            "k-mer length {k} out of range 2..=31"
        );
        let seq = &reference.sequence;
        assert!(
            u32::try_from(seq.len()).is_ok(),
            "reference of {} bases is too long to index: positions are u32, so it must be shorter than 2^32 bases",
            seq.len()
        );

        let mut codes = Vec::with_capacity(seq.len().saturating_sub(k - 1));
        let mut positions = Vec::with_capacity(codes.capacity());
        for_each_kmer(seq, k, |code, position| {
            codes.push(code);
            positions.push(position);
        });

        let code_bits = 2 * k as u32;
        let bucket_bits = code_bits.min(positions.len().checked_ilog2().unwrap_or(0));
        let low_bits = code_bits - bucket_bits;
        let mut out_codes = vec![0u64; codes.len()];
        let mut out_positions = vec![0u32; positions.len()];
        let mut shift = 0;
        while shift < low_bits {
            let width = (low_bits - shift).min(MAX_PASS_BITS);
            counting_pass(
                (&codes, &positions),
                (&mut out_codes, &mut out_positions),
                shift,
                width,
            );
            std::mem::swap(&mut codes, &mut out_codes);
            std::mem::swap(&mut positions, &mut out_positions);
            shift += width;
        }
        let buckets = counting_pass(
            (&codes, &positions),
            (&mut out_codes, &mut out_positions),
            low_bits,
            bucket_bits,
        );

        KmerIndex {
            k,
            positions: out_positions,
            codes: out_codes,
            buckets,
            reference_len: seq.len(),
        }
    }

    /// The seed length of the index.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Length of the indexed reference.
    pub fn reference_len(&self) -> usize {
        self.reference_len
    }

    /// Total number of indexed positions.
    pub fn total_positions(&self) -> usize {
        self.positions.len()
    }

    /// Packs an ASCII k-mer into its 2-bit value; `None` if it contains a non-ACGT
    /// base or has the wrong length.
    fn pack_kmer(&self, kmer: &[u8]) -> Option<u64> {
        if kmer.len() != self.k {
            return None;
        }
        let mut value = 0u64;
        for &base in kmer {
            value = (value << 2) | encode_base(base)? as u64;
        }
        Some(value)
    }

    /// Reference positions where the k-mer occurs, ascending (empty slice if
    /// absent or invalid).
    pub fn lookup(&self, kmer: &[u8]) -> &[u32] {
        let Some(code) = self.pack_kmer(kmer) else {
            return &[];
        };
        let bucket_bits = (self.buckets.len() - 1).trailing_zeros();
        let bucket = (code >> (2 * self.k as u32 - bucket_bits)) as usize;
        let start = self.buckets[bucket] as usize;
        let run = &self.codes[start..self.buckets[bucket + 1] as usize];
        let first = run.partition_point(|&c| c < code);
        let end = run.partition_point(|&c| c <= code);
        &self.positions[start + first..start + end]
    }
}

/// Calls `visit(code, position)` for every window of `k` definite bases in
/// `seq`, in position order, with `code` the window's 2-bit packing. A base
/// outside `ACGT` restarts the rolling code. `seq` must be shorter than 2^32
/// bases.
fn for_each_kmer(seq: &[u8], k: usize, mut visit: impl FnMut(u64, u32)) {
    let mask = (1u64 << (2 * k)) - 1;
    let mut value = 0u64;
    let mut valid = 0usize; // number of consecutive definite bases ending here
    for (i, &base) in seq.iter().enumerate() {
        match encode_base(base) {
            Some(code) => {
                value = ((value << 2) | code as u64) & mask;
                valid += 1;
            }
            None => {
                valid = 0;
                value = 0;
            }
        }
        if valid >= k {
            visit(value, (i + 1 - k) as u32);
        }
    }
}

/// One stable counting-sort pass on the `width`-bit digit at bit `shift` of
/// each code: scatters `(codes, positions)` into `(out_codes, out_positions)`,
/// keeping entries with equal digits in input order, and returns the digit
/// histogram's prefix sums (`2^width + 1` entries; digit `d` lands in
/// `sums[d]..sums[d + 1]`).
fn counting_pass(
    (codes, positions): (&[u64], &[u32]),
    (out_codes, out_positions): (&mut [u64], &mut [u32]),
    shift: u32,
    width: u32,
) -> Vec<u32> {
    let mask = (1u64 << width) - 1;
    let digit = |code: u64| ((code >> shift) & mask) as usize;
    let mut sums = vec![0u32; (1usize << width) + 1];
    for &code in codes {
        sums[digit(code) + 1] += 1;
    }
    let mut total = 0;
    for sum in &mut sums {
        total += *sum;
        *sum = total;
    }
    let mut next = sums.clone();
    for (&code, &position) in codes.iter().zip(positions) {
        let slot = &mut next[digit(code)];
        out_codes[*slot as usize] = code;
        out_positions[*slot as usize] = position;
        *slot += 1;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_seq::reference::ReferenceBuilder;
    use std::collections::BTreeMap;

    /// Number of distinct k-mers in `index` (its codes are sorted, so equal
    /// codes sit next to each other).
    fn distinct_kmers(index: &KmerIndex) -> usize {
        let mut codes = index.codes.clone();
        codes.dedup();
        codes.len()
    }

    #[test]
    fn indexes_every_position_of_a_small_reference() {
        let reference = Reference::from_ascii("t", b"ACGTACGTACGT");
        let index = KmerIndex::build_with_k(&reference, 4);
        assert_eq!(index.total_positions(), 12 - 4 + 1);
        assert_eq!(index.lookup(b"ACGT"), &[0, 4, 8]);
        assert_eq!(index.lookup(b"CGTA"), &[1, 5]);
        assert_eq!(index.lookup(b"TTTT"), &[] as &[u32]);
    }

    #[test]
    fn skips_kmers_spanning_n_bases() {
        let reference = Reference::from_ascii("t", b"ACGTNACGT");
        let index = KmerIndex::build_with_k(&reference, 4);
        // Only positions 0 and 5 host N-free 4-mers.
        assert_eq!(index.lookup(b"ACGT"), &[0, 5]);
        assert_eq!(index.total_positions(), 2);
    }

    #[test]
    fn lookup_of_invalid_kmer_is_empty() {
        let reference = Reference::from_ascii("t", b"ACGTACGT");
        let index = KmerIndex::build_with_k(&reference, 4);
        assert_eq!(index.lookup(b"ACGN"), &[] as &[u32]);
        assert_eq!(index.lookup(b"ACG"), &[] as &[u32]);
    }

    #[test]
    fn finds_planted_kmers_in_a_synthetic_genome() {
        let reference = ReferenceBuilder::new(50_000).seed(7).n_gaps(0, 0).build();
        let index = KmerIndex::build(&reference);
        assert_eq!(index.k(), DEFAULT_KMER_LEN);
        for start in [0usize, 1_000, 25_000, 49_900 - DEFAULT_KMER_LEN] {
            let kmer = &reference.sequence[start..start + DEFAULT_KMER_LEN];
            assert!(
                index.lookup(kmer).contains(&(start as u32)),
                "position {start} missing"
            );
        }
    }

    #[test]
    fn repeats_create_multi_hit_kmers() {
        let reference = ReferenceBuilder::new(100_000)
            .seed(3)
            .repeat_fraction(0.5)
            .repeat_divergence(0.0)
            .n_gaps(0, 0)
            .build();
        let index = KmerIndex::build(&reference);
        // More positions than distinct k-mers: some k-mer has several hits.
        assert!(
            index.total_positions() > distinct_kmers(&index),
            "expected repeated k-mers in a repeat-rich genome"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unreasonable_k_panics() {
        let reference = Reference::from_ascii("t", b"ACGT");
        KmerIndex::build_with_k(&reference, 40);
    }

    #[test]
    fn short_reference_yields_empty_index() {
        let reference = Reference::from_ascii("t", b"ACG");
        let index = KmerIndex::build_with_k(&reference, 5);
        assert_eq!(index.total_positions(), 0);
        assert_eq!(distinct_kmers(&index), 0);
    }

    /// Seed lengths covering `2k` below, at and above the bucket bits, and from
    /// none to four low-bit counting passes.
    const SWEEP_KS: [usize; 8] = [2, 3, 4, 11, 12, 16, 17, 31];

    /// The brute-force answer to every lookup: each window of `k` bases without
    /// an `N`, grouped by its bases, with positions in scan (ascending) order.
    fn brute_force(seq: &[u8], k: usize) -> BTreeMap<&[u8], Vec<u32>> {
        let mut hits: BTreeMap<&[u8], Vec<u32>> = BTreeMap::new();
        for (start, window) in seq.windows(k).enumerate() {
            if !window.contains(&b'N') {
                hits.entry(window).or_default().push(start as u32);
            }
        }
        hits
    }

    /// Checks every lookup of a `k`-mer index over `reference` against
    /// [`brute_force`]: each present k-mer (and, for every `stride`-th one, its
    /// lowercase, `N`-bearing and wrong-length variants), plus random queries,
    /// most of them absent for larger `k`.
    fn assert_matches_brute_force(reference: &Reference, k: usize, stride: usize) {
        let index = KmerIndex::build_with_k(reference, k);
        let hits = brute_force(&reference.sequence, k);
        let expected = |query: &[u8]| -> Vec<u32> {
            // The index packs bases case-insensitively; the reference is uppercase.
            hits.get(&query.to_ascii_uppercase()[..])
                .cloned()
                .unwrap_or_default()
        };
        let label = format!("k = {k}, reference length {}", reference.len());
        assert_eq!(distinct_kmers(&index), hits.len(), "{label}");
        assert_eq!(
            index.total_positions(),
            hits.values().map(Vec::len).sum::<usize>(),
            "{label}"
        );
        for (i, (kmer, positions)) in hits.iter().enumerate() {
            assert_eq!(index.lookup(kmer), &positions[..], "{label}");
            if i % stride != 0 {
                continue;
            }
            let lowercase = kmer.to_ascii_lowercase();
            assert_eq!(index.lookup(&lowercase), &positions[..], "{label}");
            let mut with_n = kmer.to_vec();
            with_n[i % k] = b'N';
            assert_eq!(index.lookup(&with_n), &[] as &[u32], "{label}");
            assert_eq!(index.lookup(&kmer[..k - 1]), &[] as &[u32], "{label}");
            let longer = [&kmer[..], &b"A"[..]].concat();
            assert_eq!(index.lookup(&longer), &[] as &[u32], "{label}");
        }
        let mut state = ((reference.len() as u64) << 8) | k as u64;
        for _ in 0..64 {
            let query: Vec<u8> = (0..k)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    b"ACGT"[(state >> 62) as usize]
                })
                .collect();
            assert_eq!(index.lookup(&query), expected(&query), "{label}");
        }
    }

    #[test]
    fn lookups_match_a_brute_force_scan_of_small_references() {
        for len in 0..=300usize {
            let reference = ReferenceBuilder::new(len)
                .seed(len as u64)
                .repeat_unit_len(10 + len % 37)
                .repeat_fraction(0.5)
                .repeat_family_copies(3)
                .repeat_divergence(0.0)
                .n_gaps(2, 1 + len % 7)
                .build();
            for k in SWEEP_KS {
                assert_matches_brute_force(&reference, k, 1);
            }
        }
    }

    #[test]
    fn lookups_match_a_brute_force_scan_of_a_200_kbp_reference() {
        let reference = ReferenceBuilder::new(200_000)
            .seed(15)
            .repeat_fraction(0.4)
            .repeat_family_copies(16)
            .repeat_divergence(0.0)
            .n_gaps(4, 300)
            .build();
        for k in SWEEP_KS {
            assert_matches_brute_force(&reference, k, 97);
        }
    }
}
