//! Mason-like short-read simulation.
//!
//! The paper evaluates on reads simulated with Mason at several lengths and error
//! profiles ("sim set 1": 300 bp with a rich deletion profile, "sim set 2": 150 bp
//! with a low indel profile, Sup. Table S.1). [`ReadSimulator`] reproduces that
//! capability: it samples read positions from a [`Reference`], optionally from the
//! reverse strand, and injects substitutions, insertions, deletions and `N` calls
//! according to an [`ErrorProfile`]. Every simulated read remembers its origin so
//! mapper accuracy can be checked against the planted truth.
//!
//! The module also provides [`mutate_with_edits`], the primitive used by the
//! dataset generators to plant a *known number* of edits into a reference segment —
//! this is how the accuracy experiments control the edit-distance profile of each
//! pair population.

use crate::alphabet::complement;
use crate::fastq::FastqRecord;
use crate::reference::Reference;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Per-base error rates applied while simulating a read.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorProfile {
    /// Probability of substituting a base.
    pub substitution_rate: f64,
    /// Probability of inserting a random base before a position.
    pub insertion_rate: f64,
    /// Probability of deleting a base.
    pub deletion_rate: f64,
    /// Probability of replacing a base call with `N`.
    pub n_rate: f64,
}

impl ErrorProfile {
    /// Typical Illumina profile: ~0.1% substitutions, rare indels, rare `N`s.
    pub fn illumina() -> ErrorProfile {
        ErrorProfile {
            substitution_rate: 0.001,
            insertion_rate: 0.0001,
            deletion_rate: 0.0001,
            n_rate: 0.0005,
        }
    }

    /// "sim set 2" of the paper: low indel profile (mostly substitutions).
    pub fn low_indel() -> ErrorProfile {
        ErrorProfile {
            substitution_rate: 0.01,
            insertion_rate: 0.0002,
            deletion_rate: 0.0002,
            n_rate: 0.0,
        }
    }

    /// "sim set 1" of the paper: rich deletion profile.
    pub fn rich_deletion() -> ErrorProfile {
        ErrorProfile {
            substitution_rate: 0.005,
            insertion_rate: 0.001,
            deletion_rate: 0.02,
            n_rate: 0.0,
        }
    }

    /// Error-free reads (useful for exact-match experiments at e = 0).
    pub fn perfect() -> ErrorProfile {
        ErrorProfile {
            substitution_rate: 0.0,
            insertion_rate: 0.0,
            deletion_rate: 0.0,
            n_rate: 0.0,
        }
    }
}

/// A simulated read together with its planted ground truth.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimulatedRead {
    /// Read identifier.
    pub id: String,
    /// Read sequence (ASCII).
    pub sequence: Vec<u8>,
    /// 0-based origin position on the forward strand of the reference.
    pub origin: usize,
    /// True if the read was sampled from the reverse strand.
    pub reverse_strand: bool,
    /// Number of substitutions injected.
    pub substitutions: u32,
    /// Number of insertions injected.
    pub insertions: u32,
    /// Number of deletions injected.
    pub deletions: u32,
    /// Number of `N` calls injected.
    pub n_calls: u32,
}

impl SimulatedRead {
    /// Total number of edits (substitutions + indels) planted into the read.
    pub fn planted_edits(&self) -> u32 {
        self.substitutions + self.insertions + self.deletions
    }

    /// Converts to a FASTQ record with uniform quality.
    pub fn to_fastq(&self) -> FastqRecord {
        FastqRecord::with_uniform_quality(self.id.clone(), self.sequence.clone())
    }
}

/// Deterministic, seedable read simulator over a reference.
#[derive(Debug, Clone)]
pub struct ReadSimulator {
    read_len: usize,
    profile: ErrorProfile,
    reverse_fraction: f64,
    seed: u64,
}

impl ReadSimulator {
    /// Creates a simulator producing reads of `read_len` bases under `profile`.
    pub fn new(read_len: usize, profile: ErrorProfile) -> ReadSimulator {
        ReadSimulator {
            read_len,
            profile,
            reverse_fraction: 0.5,
            seed: 0x5EED,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fraction of reads sampled from the reverse strand (default 0.5).
    pub fn reverse_fraction(mut self, fraction: f64) -> Self {
        self.reverse_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Read length this simulator produces.
    pub fn read_len(&self) -> usize {
        self.read_len
    }

    /// Simulates `count` reads from `reference`. Reads never start inside an `N`
    /// gap (origins overlapping gaps are re-drawn, as Mason does by rejecting
    /// windows with too many `N`s).
    pub fn simulate(&self, reference: &Reference, count: usize) -> Vec<SimulatedRead> {
        assert!(
            reference.len() > self.read_len + self.read_len / 4 + 1,
            "reference ({}) too short for {}bp reads",
            reference.len(),
            self.read_len
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut reads = Vec::with_capacity(count);
        // Sample a slightly longer window so deletions can still fill the read.
        let window = self.read_len + self.read_len / 4;
        let max_start = reference.len() - window;
        for i in 0..count {
            let mut origin = rng.gen_range(0..=max_start);
            let mut tries = 0;
            while reference.overlaps_n(origin, window) && tries < 64 {
                origin = rng.gen_range(0..=max_start);
                tries += 1;
            }
            let template = reference.segment(origin, window);
            let reverse = rng.gen_bool(self.reverse_fraction);
            let oriented: Vec<u8> = if reverse {
                template.iter().rev().map(|&b| complement(b)).collect()
            } else {
                template.to_vec()
            };
            let (sequence, stats) = apply_profile(&oriented, self.read_len, self.profile, &mut rng);
            reads.push(SimulatedRead {
                id: format!("simread_{i}"),
                sequence,
                origin,
                reverse_strand: reverse,
                substitutions: stats.0,
                insertions: stats.1,
                deletions: stats.2,
                n_calls: stats.3,
            });
        }
        reads
    }
}

/// Applies an error profile to `template`, producing a read of exactly `read_len`
/// bases (or shorter if the template runs out). Returns the read and the counts of
/// (substitutions, insertions, deletions, n_calls).
fn apply_profile(
    template: &[u8],
    read_len: usize,
    profile: ErrorProfile,
    rng: &mut StdRng,
) -> (Vec<u8>, (u32, u32, u32, u32)) {
    let mut out = Vec::with_capacity(read_len);
    let mut subs = 0;
    let mut ins = 0;
    let mut dels = 0;
    let mut ns = 0;
    let mut i = 0;
    while out.len() < read_len && i < template.len() {
        if rng.gen_bool(profile.insertion_rate) {
            out.push(b"ACGT"[rng.gen_range(0..4)]);
            ins += 1;
            continue;
        }
        if rng.gen_bool(profile.deletion_rate) {
            i += 1;
            dels += 1;
            continue;
        }
        let mut base = template[i];
        if rng.gen_bool(profile.substitution_rate) {
            let original = base;
            while base == original {
                base = b"ACGT"[rng.gen_range(0..4)];
            }
            subs += 1;
        }
        if rng.gen_bool(profile.n_rate) {
            base = b'N';
            ns += 1;
        }
        out.push(base);
        i += 1;
    }
    (out, (subs, ins, dels, ns))
}

/// Plants exactly `edits` edits (random mix of substitutions, insertions and
/// deletions, according to `indel_fraction`) into `segment`, returning a sequence
/// trimmed/padded back to the original length. The true edit distance of the result
/// is at most `edits` (random edits can cancel, so it is an upper bound — the
/// accuracy harness always re-measures the exact distance with `gk-align`).
pub fn mutate_with_edits(
    segment: &[u8],
    edits: usize,
    indel_fraction: f64,
    rng: &mut StdRng,
) -> Vec<u8> {
    let mut seq = segment.to_vec();
    for _ in 0..edits {
        if seq.is_empty() {
            break;
        }
        let pos = rng.gen_range(0..seq.len());
        let roll: f64 = rng.gen();
        if roll < indel_fraction / 2.0 {
            // insertion
            seq.insert(pos, b"ACGT"[rng.gen_range(0..4)]);
        } else if roll < indel_fraction {
            // deletion
            seq.remove(pos);
        } else {
            // substitution
            let original = seq[pos];
            let mut new = original;
            while new == original {
                new = b"ACGT"[rng.gen_range(0..4)];
            }
            seq[pos] = new;
        }
    }
    // Restore the original length so pairs stay comparable (mrFAST candidates are
    // read-length segments).
    match seq.len().cmp(&segment.len()) {
        std::cmp::Ordering::Less => {
            while seq.len() < segment.len() {
                seq.push(b"ACGT"[rng.gen_range(0..4)]);
            }
        }
        std::cmp::Ordering::Greater => seq.truncate(segment.len()),
        std::cmp::Ordering::Equal => {}
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceBuilder;

    fn test_reference() -> Reference {
        ReferenceBuilder::new(100_000)
            .seed(42)
            .n_gaps(1, 300)
            .build()
    }

    #[test]
    fn simulates_requested_number_of_reads() {
        let reference = test_reference();
        let sim = ReadSimulator::new(100, ErrorProfile::illumina()).seed(1);
        let reads = sim.simulate(&reference, 250);
        assert_eq!(reads.len(), 250);
        assert!(reads.iter().all(|r| r.sequence.len() == 100));
    }

    #[test]
    fn perfect_profile_reproduces_reference_forward_reads() {
        let reference = test_reference();
        let sim = ReadSimulator::new(80, ErrorProfile::perfect())
            .seed(2)
            .reverse_fraction(0.0);
        let reads = sim.simulate(&reference, 50);
        for read in reads {
            assert_eq!(read.planted_edits(), 0);
            let segment = reference.segment(read.origin, 80);
            assert_eq!(read.sequence, segment);
        }
    }

    #[test]
    fn reverse_reads_are_reverse_complements_of_origin() {
        let reference = test_reference();
        let sim = ReadSimulator::new(60, ErrorProfile::perfect())
            .seed(3)
            .reverse_fraction(1.0);
        let reads = sim.simulate(&reference, 20);
        for read in reads {
            assert!(read.reverse_strand);
            let window = 60 + 60 / 4;
            let template = reference.segment(read.origin, window);
            let rc: Vec<u8> = template.iter().rev().map(|&b| complement(b)).collect();
            assert_eq!(read.sequence, rc[..60].to_vec());
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let reference = test_reference();
        let a = ReadSimulator::new(100, ErrorProfile::low_indel())
            .seed(9)
            .simulate(&reference, 30);
        let b = ReadSimulator::new(100, ErrorProfile::low_indel())
            .seed(9)
            .simulate(&reference, 30);
        assert_eq!(a, b);
    }

    #[test]
    fn rich_deletion_profile_plants_more_deletions_than_insertions() {
        let reference = test_reference();
        let reads = ReadSimulator::new(300, ErrorProfile::rich_deletion())
            .seed(4)
            .simulate(&reference, 200);
        let dels: u32 = reads.iter().map(|r| r.deletions).sum();
        let ins: u32 = reads.iter().map(|r| r.insertions).sum();
        assert!(
            dels > ins,
            "expected deletions ({dels}) > insertions ({ins})"
        );
    }

    #[test]
    fn reads_avoid_n_gaps() {
        let reference = ReferenceBuilder::new(50_000).seed(5).n_gaps(5, 500).build();
        let reads = ReadSimulator::new(100, ErrorProfile::perfect())
            .seed(6)
            .reverse_fraction(0.0)
            .simulate(&reference, 200);
        let with_n = reads.iter().filter(|r| r.sequence.contains(&b'N')).count();
        // Rejection sampling makes N reads rare (not impossible when gaps are dense).
        assert!(with_n < reads.len() / 10);
    }

    #[test]
    fn mutate_with_edits_zero_is_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let seq = b"ACGTACGTACGTACGTACGT";
        assert_eq!(mutate_with_edits(seq, 0, 0.3, &mut rng), seq.to_vec());
    }

    #[test]
    fn mutate_with_edits_preserves_length() {
        let mut rng = StdRng::seed_from_u64(8);
        let seq: Vec<u8> = (0..150).map(|i| b"ACGT"[i % 4]).collect();
        for edits in [1, 5, 15, 40] {
            let mutated = mutate_with_edits(&seq, edits, 0.4, &mut rng);
            assert_eq!(mutated.len(), seq.len());
        }
    }

    #[test]
    fn mutate_with_edits_changes_sequence() {
        let mut rng = StdRng::seed_from_u64(9);
        let seq: Vec<u8> = (0..100).map(|i| b"ACGT"[i % 4]).collect();
        let mutated = mutate_with_edits(&seq, 10, 0.3, &mut rng);
        assert_ne!(mutated, seq);
    }

    #[test]
    fn to_fastq_has_matching_quality_length() {
        let reference = test_reference();
        let read = &ReadSimulator::new(100, ErrorProfile::illumina())
            .seed(10)
            .simulate(&reference, 1)[0];
        let fq = read.to_fastq();
        assert_eq!(fq.sequence.len(), fq.quality.len());
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn simulating_from_tiny_reference_panics() {
        let reference = Reference::from_ascii("t", b"ACGTACGT");
        ReadSimulator::new(100, ErrorProfile::perfect()).simulate(&reference, 1);
    }
}
