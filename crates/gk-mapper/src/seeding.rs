//! Seeding: candidate-location generation from k-mer hits.
//!
//! mrFAST guarantees full sensitivity within the error threshold by the
//! pigeonhole principle: a read partitioned into `e + 1` non-overlapping segments
//! must contain at least one segment with no edit when the read maps within `e`
//! edits, so looking up `e + 1` seeds and verifying every hit finds every valid
//! location. This module reproduces that strategy (on both strands) on top of the
//! [`crate::index::KmerIndex`]. Because genomic repeats make seeds hit many places,
//! the number of candidates per read is large — the over-production that makes
//! pre-alignment filtering worthwhile (§1).
//!
//! Seeds are cut from the read's 2-bit packed words, GateKeeper's own sequence
//! representation. A reverse-strand seed is the reverse complement of a
//! forward window, computed on its code as minimap2 does, so the read is
//! never reverse-complemented as bytes.

use crate::index::KmerIndex;
use gk_seq::packed::{reverse_complement_code, PackedSeq};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A candidate mapping location produced by seeding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CandidateLocation {
    /// 0-based reference position where the read would start.
    pub position: u32,
    /// True if the candidate is on the reverse strand (the reverse-complemented
    /// read is compared against the forward reference segment).
    pub reverse: bool,
}

/// Seeding parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedingConfig {
    /// Error threshold the mapper runs with; `threshold + 1` seeds are queried.
    pub threshold: u32,
    /// Map the reverse strand as well (true for all whole-genome experiments).
    pub both_strands: bool,
    /// Drop seeds whose hit list exceeds this length (mrFAST's repeat masking);
    /// `0` disables the cap.
    pub max_hits_per_seed: usize,
}

impl SeedingConfig {
    /// Default configuration for an error threshold.
    pub fn new(threshold: u32) -> SeedingConfig {
        SeedingConfig {
            threshold,
            both_strands: true,
            max_hits_per_seed: 0,
        }
    }
}

/// One seed of a read: where it sits in the oriented read, its k-mer code
/// and the index bucket that code falls in.
struct Seed {
    offset: usize,
    reverse: bool,
    code: u64,
    bucket: Range<usize>,
}

/// Generates candidate locations for one read.
///
/// The read is partitioned into non-overlapping k-mers; the first `e + 1` of them
/// (or all, when the read is short) are looked up in the index, and every hit is
/// translated back to the position where the *read* would start. On the reverse
/// strand the seeds are those of the reverse-complemented read. A seed holding
/// a byte outside `ACGTacgt` is skipped. The result is sorted by strand, then
/// position, with exact duplicates (the same start on the same strand, e.g. hit
/// by two seeds of one read) collapsed into one; distinct starts are kept however
/// close they are.
pub fn candidates_for_read(
    read: &[u8],
    index: &KmerIndex,
    config: &SeedingConfig,
) -> Vec<CandidateLocation> {
    let k = index.k();
    if read.len() < k {
        return Vec::new();
    }
    let packed = PackedSeq::from_ascii(read);
    let seeds_per_strand = (config.threshold as usize + 1).min(read.len() / k);

    // Every seed's code and bucket first, so that their bucket loads are in
    // flight together. Seed `i` of the reverse-complemented read is the
    // reverse complement of the window ending `i * k` bases before the end.
    let strands: &[bool] = if config.both_strands {
        &[false, true]
    } else {
        &[false]
    };
    let mut seeds = Vec::with_capacity(strands.len() * seeds_per_strand);
    for &reverse in strands {
        for offset in (0..seeds_per_strand).map(|i| i * k) {
            let start = if reverse {
                read.len() - offset - k
            } else {
                offset
            };
            if !is_definite(&packed, start, k) {
                continue;
            }
            let code = packed.kmer_code(start, k);
            let code = if reverse {
                reverse_complement_code(code, k)
            } else {
                code
            };
            let bucket = index.bucket(code);
            seeds.push(Seed {
                offset,
                reverse,
                code,
                bucket,
            });
        }
    }

    // Then each seed's hits, as one (strand, start) key per candidate.
    let limit = index.reference_len() + config.threshold as usize;
    let mut keys = Vec::new();
    for seed in seeds {
        let hits = index.hits(seed.code, seed.bucket);
        if config.max_hits_per_seed > 0 && hits.len() > config.max_hits_per_seed {
            continue;
        }
        for &hit in hits {
            let Some(position) = (hit as usize).checked_sub(seed.offset) else {
                continue;
            };
            if position + read.len() <= limit {
                keys.push(u64::from(seed.reverse) << 32 | position as u64);
            }
        }
    }
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|key| CandidateLocation {
            position: key as u32,
            reverse: key >> 32 != 0,
        })
        .collect()
}

/// True when bases `[start, start + k)` of `packed` hold none of its
/// undefined positions.
fn is_definite(packed: &PackedSeq, start: usize, k: usize) -> bool {
    let undefined = packed.undefined_positions();
    let after = undefined.partition_point(|&p| (p as usize) < start);
    undefined
        .get(after)
        .is_none_or(|&p| p as usize >= start + k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_seq::alphabet::{is_valid_base, reverse_complement};
    use gk_seq::reference::{Reference, ReferenceBuilder};
    use gk_seq::simulate::{ErrorProfile, ReadSimulator};
    use std::collections::BTreeMap;

    fn indexed_reference() -> (Reference, KmerIndex) {
        let reference = ReferenceBuilder::new(60_000).seed(5).n_gaps(0, 0).build();
        let index = KmerIndex::build(&reference);
        (reference, index)
    }

    #[test]
    fn perfect_forward_read_finds_its_origin() {
        let (reference, index) = indexed_reference();
        let origin = 12_345usize;
        let read = reference.segment(origin, 100).to_vec();
        let candidates = candidates_for_read(&read, &index, &SeedingConfig::new(2));
        assert!(candidates
            .iter()
            .any(|c| !c.reverse && c.position == origin as u32));
    }

    #[test]
    fn reverse_strand_read_finds_its_origin() {
        let (reference, index) = indexed_reference();
        let origin = 30_000usize;
        let segment = reference.segment(origin, 100);
        let read = reverse_complement(segment);
        let candidates = candidates_for_read(&read, &index, &SeedingConfig::new(2));
        assert!(candidates
            .iter()
            .any(|c| c.reverse && c.position == origin as u32));
    }

    #[test]
    fn read_with_edits_still_finds_its_origin_by_pigeonhole() {
        let (reference, index) = indexed_reference();
        let reads = ReadSimulator::new(100, ErrorProfile::low_indel())
            .seed(9)
            .reverse_fraction(0.0)
            .simulate(&reference, 50);
        let config = SeedingConfig::new(3);
        let mut found = 0;
        for read in &reads {
            let candidates = candidates_for_read(&read.sequence, &index, &config);
            if candidates
                .iter()
                .any(|c| !c.reverse && c.position.abs_diff(read.origin as u32) <= 3)
            {
                found += 1;
            }
        }
        // Pigeonhole holds when the planted edits are at most the threshold; the
        // low-indel profile occasionally exceeds it, so demand a high hit rate
        // rather than perfection.
        assert!(found >= 45, "only {found}/50 reads recovered their origin");
    }

    #[test]
    fn candidates_are_deduplicated_and_sorted() {
        let (reference, index) = indexed_reference();
        let read = reference.segment(5_000, 100).to_vec();
        let candidates = candidates_for_read(&read, &index, &SeedingConfig::new(4));
        for pair in candidates.windows(2) {
            assert!(
                (pair[0].reverse, pair[0].position) < (pair[1].reverse, pair[1].position),
                "candidates not strictly ordered"
            );
        }
    }

    #[test]
    fn repeat_rich_references_produce_many_candidates() {
        let reference = ReferenceBuilder::new(100_000)
            .seed(11)
            .repeat_fraction(0.6)
            .repeat_divergence(0.0)
            .repeat_family_copies(16)
            .n_gaps(0, 0)
            .build();
        let index = KmerIndex::build(&reference);
        let reads = ReadSimulator::new(100, ErrorProfile::perfect())
            .seed(13)
            .reverse_fraction(0.0)
            .simulate(&reference, 100);
        let config = SeedingConfig::new(2);
        let total: usize = reads
            .iter()
            .map(|r| candidates_for_read(&r.sequence, &index, &config).len())
            .sum();
        // On average more than one candidate per read: repeats inflate the list.
        assert!(total > 120, "total candidates = {total}");
    }

    #[test]
    fn max_hits_cap_prunes_repetitive_seeds() {
        let reference = Reference::from_ascii("t", &b"ACGT".repeat(1000));
        let index = KmerIndex::build_with_k(&reference, 4);
        let read = b"ACGTACGTACGTACGTACGT".to_vec();
        let unlimited = candidates_for_read(&read, &index, &SeedingConfig::new(1));
        let mut capped_config = SeedingConfig::new(1);
        capped_config.max_hits_per_seed = 10;
        let capped = candidates_for_read(&read, &index, &capped_config);
        assert!(capped.len() < unlimited.len());
    }

    #[test]
    fn short_reads_produce_no_candidates() {
        let (_, index) = indexed_reference();
        let candidates = candidates_for_read(b"ACGT", &index, &SeedingConfig::new(2));
        assert!(candidates.is_empty());
    }

    #[test]
    fn forward_only_configuration_skips_reverse_candidates() {
        let (reference, index) = indexed_reference();
        let origin = 9_000usize;
        let read = reverse_complement(reference.segment(origin, 100));
        let mut config = SeedingConfig::new(2);
        config.both_strands = false;
        let candidates = candidates_for_read(&read, &index, &config);
        assert!(candidates.iter().all(|c| !c.reverse));
    }

    /// Where each k-mer of `reference` starts, found by scanning every window:
    /// case is folded and windows with a byte outside `ACGTacgt` are left out.
    fn kmer_starts(reference: &[u8], k: usize) -> BTreeMap<Vec<u8>, Vec<usize>> {
        let mut starts: BTreeMap<Vec<u8>, Vec<usize>> = BTreeMap::new();
        for (start, window) in reference.windows(k).enumerate() {
            if window.iter().all(|&b| is_valid_base(b)) {
                starts
                    .entry(window.to_ascii_uppercase())
                    .or_default()
                    .push(start);
            }
        }
        starts
    }

    /// Seeding by its ASCII definition: the reverse strand's seeds are cut
    /// from the read reverse-complemented as bytes, and each seed's hits come
    /// from [`kmer_starts`], not from an index.
    fn seeding_oracle(
        read: &[u8],
        reference_len: usize,
        starts: &BTreeMap<Vec<u8>, Vec<usize>>,
        k: usize,
        config: &SeedingConfig,
    ) -> Vec<CandidateLocation> {
        let mut strands = vec![(false, read.to_vec())];
        if config.both_strands {
            strands.push((true, reverse_complement(read)));
        }
        let seeds = (config.threshold as usize + 1).min(read.len() / k);
        let mut out = Vec::new();
        for (reverse, oriented) in strands {
            for offset in (0..seeds).map(|i| i * k) {
                let seed = &oriented[offset..offset + k];
                if !seed.iter().all(|&b| is_valid_base(b)) {
                    continue;
                }
                let hits = starts
                    .get(&seed.to_ascii_uppercase())
                    .map_or(&[][..], Vec::as_slice);
                if config.max_hits_per_seed > 0 && hits.len() > config.max_hits_per_seed {
                    continue;
                }
                for &hit in hits {
                    if hit >= offset
                        && hit - offset + read.len() <= reference_len + config.threshold as usize
                    {
                        let position = (hit - offset) as u32;
                        out.push(CandidateLocation { position, reverse });
                    }
                }
            }
        }
        out.sort_by_key(|c| (c.reverse, c.position));
        out.dedup();
        out
    }

    /// Reads of the lengths seeding's edge cases turn on (none, `k − 1`, `k`,
    /// `k + 1`, 100 and 250 bases): copied from both ends of the reference,
    /// across its first `N` gap and from inside it, on either strand, as they
    /// are, lowercased, with an `N` or with substitutions, plus random bases.
    fn edge_reads(reference: &Reference, k: usize, state: &mut u64) -> Vec<Vec<u8>> {
        let mut next = |bound: usize| {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*state >> 33) as usize % bound
        };
        let seq = &reference.sequence;
        let (gap_start, _) = reference.n_intervals[0];
        let mut reads = Vec::new();
        for len in [0, k - 1, k, k + 1, 100, 250] {
            let last = seq.len() - len;
            for start in [0, last, gap_start.saturating_sub(len / 2), next(last + 1)] {
                let copy = &seq[start..start + len];
                let mut with_n = copy.to_vec();
                let mut substituted = reverse_complement(copy);
                if len > 0 {
                    with_n[next(len)] = b'N';
                    for _ in 0..=len / 16 {
                        substituted[next(len)] = b"ACGT"[next(4)];
                    }
                }
                reads.extend([
                    copy.to_vec(),
                    reverse_complement(copy),
                    copy.to_ascii_lowercase(),
                    with_n,
                    substituted,
                ]);
            }
            reads.push((0..len).map(|_| b"ACGTacgtN"[next(9)]).collect());
        }
        reads
    }

    #[test]
    fn seeding_matches_its_ascii_definition() {
        let mut reference = ReferenceBuilder::new(2_000)
            .seed(41)
            .repeat_unit_len(60)
            .repeat_fraction(0.5)
            .repeat_family_copies(4)
            .repeat_divergence(0.0)
            .n_gaps(3, 40)
            .build();
        // Soft-masked and ambiguous bytes, as a hand-built reference may hold.
        reference.sequence[100..160].make_ascii_lowercase();
        reference.sequence[300] = b'R';
        let mut state = 0x5EED;
        for k in [2, 3, 4, 11, 12, 16, 17, 31] {
            let index = KmerIndex::build_with_k(&reference, k);
            let starts = kmer_starts(&reference.sequence, k);
            for read in edge_reads(&reference, k, &mut state) {
                let per_read = read.len() / k;
                let thresholds = [0, 1, 2, per_read.saturating_sub(1), per_read, per_read + 1];
                for threshold in thresholds {
                    let both = SeedingConfig::new(threshold as u32);
                    let forward = SeedingConfig {
                        both_strands: false,
                        ..both
                    };
                    let capped = SeedingConfig {
                        max_hits_per_seed: 3,
                        ..both
                    };
                    for config in [both, forward, capped] {
                        assert_eq!(
                            candidates_for_read(&read, &index, &config),
                            seeding_oracle(&read, reference.len(), &starts, k, &config),
                            "k = {k}, {config:?}, read {:?}",
                            String::from_utf8_lossy(&read)
                        );
                    }
                }
            }
        }
    }
}
