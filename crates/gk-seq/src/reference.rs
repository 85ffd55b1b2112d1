//! Reference genome representation and synthetic reference generation.
//!
//! The paper maps reads against GRCh37. Because the real reference cannot be
//! shipped, [`ReferenceBuilder`] synthesizes references with the two properties the
//! experiments actually depend on:
//!
//! 1. **Repeat structure** — genomic repeats are the reason seeding produces many
//!    candidate locations per read (§1), which is what makes pre-alignment
//!    filtering worthwhile. The builder plants tandem and dispersed repeats with a
//!    configurable fraction of the genome covered.
//! 2. **Unknown bases** — runs of `N` appear in real references (assembly gaps) and
//!    drive the *undefined pair* handling of GateKeeper-GPU (§3.3/§3.5).
//!
//! A [`Reference`] also records where its `N` runs are so the mapper can skip them,
//! mirroring the mrFAST integration ("the locations of 'N' bases on the reference
//! genome are also recorded", §3.5).

use crate::alphabet::is_valid_base;
use crate::fasta::FastaRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// An in-memory reference sequence (one chromosome / contig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Contig name, e.g. `"chr1"`.
    pub name: String,
    /// Uppercase ASCII sequence.
    pub sequence: Vec<u8>,
    /// Half-open `[start, end)` intervals covering every run of `N` bases.
    pub n_intervals: Vec<(usize, usize)>,
}

impl Reference {
    /// Builds a reference from raw ASCII, normalising case and recording `N` runs.
    pub fn from_ascii(name: impl Into<String>, sequence: &[u8]) -> Reference {
        let sequence: Vec<u8> = sequence
            .iter()
            .map(|&b| {
                let up = b.to_ascii_uppercase();
                if is_valid_base(up) {
                    up
                } else {
                    b'N'
                }
            })
            .collect();
        let n_intervals = find_n_intervals(&sequence);
        Reference {
            name: name.into(),
            sequence,
            n_intervals,
        }
    }

    /// Builds a reference from a parsed FASTA record.
    pub fn from_fasta(record: &FastaRecord) -> Reference {
        Reference::from_ascii(record.id.clone(), &record.sequence)
    }

    /// Reference length in bases.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// True when the reference holds no sequence.
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }

    /// Extracts the segment `[start, start + len)`, clamped to the reference end.
    /// This is the "candidate reference segment" extraction each GPU thread performs
    /// from its candidate index (§3.5).
    pub fn segment(&self, start: usize, len: usize) -> &[u8] {
        let start = start.min(self.sequence.len());
        let end = (start + len).min(self.sequence.len());
        &self.sequence[start..end]
    }

    /// Returns true if `[start, start + len)` overlaps any recorded `N` run.
    pub fn overlaps_n(&self, start: usize, len: usize) -> bool {
        let end = start + len;
        self.n_intervals
            .iter()
            .any(|&(ns, ne)| start < ne && ns < end)
    }

    /// Converts back into a FASTA record.
    pub fn to_fasta(&self) -> FastaRecord {
        FastaRecord::new(self.name.clone(), self.sequence.clone())
    }

    /// Fraction of the reference covered by `N` bases.
    pub fn n_fraction(&self) -> f64 {
        if self.sequence.is_empty() {
            return 0.0;
        }
        let n: usize = self.n_intervals.iter().map(|&(s, e)| e - s).sum();
        n as f64 / self.sequence.len() as f64
    }
}

fn find_n_intervals(seq: &[u8]) -> Vec<(usize, usize)> {
    let mut intervals = Vec::new();
    let mut run_start: Option<usize> = None;
    for (i, &b) in seq.iter().enumerate() {
        if b == b'N' {
            if run_start.is_none() {
                run_start = Some(i);
            }
        } else if let Some(start) = run_start.take() {
            intervals.push((start, i));
        }
    }
    if let Some(start) = run_start {
        intervals.push((start, seq.len()));
    }
    intervals
}

/// Configurable synthetic reference generator.
///
/// The generated sequence is a random i.i.d. background with planted repeat
/// families (each family is one random template copied, with light mutation, to
/// several dispersed locations) plus optional `N` gaps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReferenceBuilder {
    length: usize,
    seed: u64,
    repeat_fraction: f64,
    repeat_unit_len: usize,
    repeat_family_copies: usize,
    repeat_divergence: f64,
    n_gap_count: usize,
    n_gap_len: usize,
    name: String,
}

impl Default for ReferenceBuilder {
    fn default() -> Self {
        ReferenceBuilder {
            length: 1_000_000,
            seed: 0xBEEF_CAFE,
            repeat_fraction: 0.25,
            repeat_unit_len: 500,
            repeat_family_copies: 8,
            repeat_divergence: 0.02,
            n_gap_count: 2,
            n_gap_len: 500,
            name: "chrSim".to_string(),
        }
    }
}

impl ReferenceBuilder {
    /// Creates a builder for a reference of `length` bases.
    pub fn new(length: usize) -> ReferenceBuilder {
        ReferenceBuilder {
            length,
            ..ReferenceBuilder::default()
        }
    }

    /// Sets the RNG seed (generation is fully deterministic for a given seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the contig name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the approximate fraction of the genome covered by repeats (0.0–0.9).
    pub fn repeat_fraction(mut self, fraction: f64) -> Self {
        self.repeat_fraction = fraction.clamp(0.0, 0.9);
        self
    }

    /// Sets the length of one repeat unit.
    pub fn repeat_unit_len(mut self, len: usize) -> Self {
        self.repeat_unit_len = len.max(10);
        self
    }

    /// Sets how many (lightly mutated) copies each repeat family gets.
    pub fn repeat_family_copies(mut self, copies: usize) -> Self {
        self.repeat_family_copies = copies.max(1);
        self
    }

    /// Sets the per-base divergence applied to each repeat copy.
    pub fn repeat_divergence(mut self, divergence: f64) -> Self {
        self.repeat_divergence = divergence.clamp(0.0, 0.5);
        self
    }

    /// Sets how many `N` gaps to plant and their length.
    pub fn n_gaps(mut self, count: usize, len: usize) -> Self {
        self.n_gap_count = count;
        self.n_gap_len = len;
        self
    }

    /// Generates the reference.
    pub fn build(&self) -> Reference {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut seq: Vec<u8> = (0..self.length)
            .map(|_| b"ACGT"[rng.gen_range(0..4)])
            .collect();

        if self.length > self.repeat_unit_len * 2 && self.repeat_fraction > 0.0 {
            let target_repeat_bases = (self.length as f64 * self.repeat_fraction) as usize;
            let bases_per_family = self.repeat_unit_len * self.repeat_family_copies;
            let families = (target_repeat_bases / bases_per_family.max(1)).max(1);
            for _ in 0..families {
                let template: Vec<u8> = (0..self.repeat_unit_len)
                    .map(|_| b"ACGT"[rng.gen_range(0..4)])
                    .collect();
                for _ in 0..self.repeat_family_copies {
                    let pos = rng.gen_range(0..self.length - self.repeat_unit_len);
                    for (offset, &base) in template.iter().enumerate() {
                        let mutated = if rng.gen_bool(self.repeat_divergence) {
                            b"ACGT"[rng.gen_range(0..4)]
                        } else {
                            base
                        };
                        seq[pos + offset] = mutated;
                    }
                }
            }
        }

        if self.n_gap_len > 0 {
            for _ in 0..self.n_gap_count {
                if self.length <= self.n_gap_len {
                    break;
                }
                let pos = rng.gen_range(0..self.length - self.n_gap_len);
                for b in seq.iter_mut().skip(pos).take(self.n_gap_len) {
                    *b = b'N';
                }
            }
        }

        Reference::from_ascii(self.name.clone(), &seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_intervals_cover_all_runs() {
        let r = Reference::from_ascii("t", b"NNACGTNNNACGTN");
        assert_eq!(r.n_intervals, vec![(0, 2), (6, 9), (13, 14)]);
    }

    #[test]
    fn lowercase_and_ambiguity_are_normalised() {
        let r = Reference::from_ascii("t", b"acgtRyacgt");
        assert_eq!(r.sequence, b"ACGTNNACGT".to_vec());
        assert_eq!(r.n_intervals, vec![(4, 6)]);
    }

    #[test]
    fn segment_clamps_to_reference_end() {
        let r = Reference::from_ascii("t", b"ACGTACGT");
        assert_eq!(r.segment(4, 100), b"ACGT");
        assert_eq!(r.segment(100, 10), b"");
    }

    #[test]
    fn overlaps_n_detects_overlap_and_non_overlap() {
        let r = Reference::from_ascii("t", b"ACGTNNNNACGT");
        assert!(r.overlaps_n(2, 4));
        assert!(r.overlaps_n(4, 4));
        assert!(!r.overlaps_n(0, 4));
        assert!(!r.overlaps_n(8, 4));
    }

    #[test]
    fn builder_is_deterministic_for_a_seed() {
        let a = ReferenceBuilder::new(10_000).seed(7).build();
        let b = ReferenceBuilder::new(10_000).seed(7).build();
        let c = ReferenceBuilder::new(10_000).seed(8).build();
        assert_eq!(a.sequence, b.sequence);
        assert_ne!(a.sequence, c.sequence);
    }

    #[test]
    fn builder_plants_n_gaps() {
        let r = ReferenceBuilder::new(50_000).seed(3).n_gaps(3, 200).build();
        assert!(r.n_fraction() > 0.0);
        assert!(!r.n_intervals.is_empty());
    }

    #[test]
    fn builder_without_gaps_has_no_n() {
        let r = ReferenceBuilder::new(20_000).seed(3).n_gaps(0, 0).build();
        assert_eq!(r.n_fraction(), 0.0);
        assert!(r.n_intervals.is_empty());
    }

    #[test]
    fn builder_repeats_create_duplicated_kmers() {
        // With strong repeat content, some 32-mers must occur more than once.
        let r = ReferenceBuilder::new(100_000)
            .seed(11)
            .repeat_fraction(0.5)
            .repeat_divergence(0.0)
            .n_gaps(0, 0)
            .build();
        use std::collections::HashMap;
        let mut counts: HashMap<&[u8], usize> = HashMap::new();
        for w in r.sequence.windows(32).step_by(16) {
            *counts.entry(w).or_default() += 1;
        }
        assert!(counts.values().any(|&c| c > 1));
    }

    #[test]
    fn fasta_round_trip() {
        let r = ReferenceBuilder::new(1000).seed(1).build();
        let rec = r.to_fasta();
        let back = Reference::from_fasta(&rec);
        assert_eq!(back, r);
    }
}
