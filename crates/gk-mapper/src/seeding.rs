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

use crate::index::KmerIndex;
use gk_seq::alphabet::reverse_complement;
use serde::{Deserialize, Serialize};

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

/// Generates candidate locations for one read.
///
/// The read is partitioned into non-overlapping k-mers; the first `e + 1` of them
/// (or all, when the read is short) are looked up in the index, and every hit is
/// translated back to the position where the *read* would start. The result is
/// sorted by strand, then position, with exact duplicates (the same start on the
/// same strand, e.g. hit by two seeds of one read) collapsed into one; distinct
/// starts are kept however close they are.
pub fn candidates_for_read(
    read: &[u8],
    index: &KmerIndex,
    config: &SeedingConfig,
) -> Vec<CandidateLocation> {
    let mut candidates = Vec::new();
    collect_candidates(read, index, config, false, &mut candidates);
    if config.both_strands {
        let rc = reverse_complement(read);
        collect_candidates(&rc, index, config, true, &mut candidates);
    }
    dedupe(candidates)
}

fn collect_candidates(
    read: &[u8],
    index: &KmerIndex,
    config: &SeedingConfig,
    reverse: bool,
    out: &mut Vec<CandidateLocation>,
) {
    let k = index.k();
    if read.len() < k {
        return;
    }
    let available_seeds = read.len() / k;
    let seeds_to_use = (config.threshold as usize + 1).min(available_seeds).max(1);
    for seed_idx in 0..seeds_to_use {
        let offset = seed_idx * k;
        let seed = &read[offset..offset + k];
        let hits = index.lookup(seed);
        if config.max_hits_per_seed > 0 && hits.len() > config.max_hits_per_seed {
            continue;
        }
        for &hit in hits {
            let position = hit as i64 - offset as i64;
            if position < 0 {
                continue;
            }
            let position = position as u32;
            if (position as usize + read.len()) > index.reference_len() + config.threshold as usize
            {
                continue;
            }
            out.push(CandidateLocation { position, reverse });
        }
    }
}

/// Sorts candidates by (strand, position) and removes exact duplicates only;
/// nearby but distinct starts stay separate candidates.
fn dedupe(mut candidates: Vec<CandidateLocation>) -> Vec<CandidateLocation> {
    candidates.sort_by_key(|c| (c.reverse, c.position));
    candidates.dedup_by(|a, b| a.reverse == b.reverse && a.position == b.position);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_seq::reference::{Reference, ReferenceBuilder};
    use gk_seq::simulate::{ErrorProfile, ReadSimulator};

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
}
