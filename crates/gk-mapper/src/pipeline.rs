//! The full read-mapping pipeline with the pre-alignment-filter hook.
//!
//! The paper integrates GateKeeper-GPU into mrFAST (§3.5): reads are processed in
//! batches of up to 100,000; seeding produces candidate locations; the batch of
//! (read, candidate reference segment) pairs goes through the filter on the GPU;
//! only accepted pairs enter verification; and the mapper reports the metrics of
//! §4.5 — number of mappings, mapped reads, candidate mappings, candidate mappings
//! that enter verification, and the time spent in each stage. [`ReadMapper`]
//! reproduces that workflow with a pluggable [`PreFilter`].

use crate::index::KmerIndex;
use crate::record::MappingRecord;
use crate::seeding::{candidates_for_read, CandidateLocation, SeedingConfig};
use gk_align::cigar::{Cigar, CigarOp};
use gk_align::dp::banded_levenshtein;
use gk_align::nw::{needleman_wunsch, ScoringScheme};
use gk_core::gpu::GateKeeperGpu;
use gk_filters::traits::{FilterDecision, PreAlignmentFilter};
use gk_seq::alphabet::reverse_complement;
use gk_seq::fastq::FastqRecord;
use gk_seq::pairs::{PairSet, SequencePair};
use gk_seq::reference::Reference;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Mapper configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MapperConfig {
    /// Error threshold `e` for both filtering and verification.
    pub threshold: u32,
    /// Seeding parameters.
    pub seeding: SeedingConfig,
    /// Maximum number of reads whose candidates are batched before filtering
    /// (100,000 in the paper; Table 1 sweeps this value).
    pub max_reads_per_batch: usize,
    /// Produce full traceback CIGARs for reported mappings (slower; off for the
    /// throughput experiments).
    pub report_alignments: bool,
}

impl MapperConfig {
    /// Default configuration for an error threshold.
    pub fn new(threshold: u32) -> MapperConfig {
        MapperConfig {
            threshold,
            seeding: SeedingConfig::new(threshold),
            max_reads_per_batch: 100_000,
            report_alignments: false,
        }
    }

    /// Sets the number of reads per batch.
    pub fn with_max_reads_per_batch(mut self, reads: usize) -> MapperConfig {
        self.max_reads_per_batch = reads.max(1);
        self
    }
}

/// The pre-alignment filter plugged into the mapper.
pub enum PreFilter {
    /// No filtering: every candidate enters verification (the "No Filter" rows).
    None,
    /// Any host-side filter (GateKeeper-CPU, SneakySnake, MAGNET, …).
    Host(Box<dyn PreAlignmentFilter + Send + Sync>),
    /// GateKeeper-GPU on one simulated device.
    Gpu(GateKeeperGpu),
}

impl PreFilter {
    /// Human-readable name for reports.
    pub fn name(&self) -> &str {
        match self {
            PreFilter::None => "No Filter",
            PreFilter::Host(filter) => filter.name(),
            PreFilter::Gpu(_) => "GateKeeper-GPU",
        }
    }

    /// Applies the filter to a batch of pairs. Returns the per-pair decisions plus
    /// (kernel seconds, filter seconds).
    fn apply(&self, pairs: &PairSet) -> (Vec<FilterDecision>, f64, f64) {
        match self {
            PreFilter::None => (vec![FilterDecision::accept(0); pairs.len()], 0.0, 0.0),
            PreFilter::Host(filter) => {
                let start = Instant::now();
                let decisions = filter.filter_batch(&pairs.pairs);
                let elapsed = start.elapsed().as_secs_f64();
                (decisions, elapsed, elapsed)
            }
            PreFilter::Gpu(gpu) => {
                let run = gpu.filter_set(pairs);
                let (kernel, filter) = (run.kernel_seconds(), run.filter_seconds());
                (run.decisions, kernel, filter)
            }
        }
    }
}

/// The whole-genome metrics of §4.5 / Tables 3, S.24–S.26.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MappingStats {
    /// Number of reads processed.
    pub reads: usize,
    /// Number of reported mappings (a read can map to several locations).
    pub mappings: u64,
    /// Number of reads with at least one mapping.
    pub mapped_reads: u64,
    /// Total candidate mappings produced by seeding.
    pub candidate_pairs: u64,
    /// Candidate mappings that entered verification (passed the filter).
    pub verification_pairs: u64,
    /// Candidate mappings rejected by the pre-alignment filter.
    pub rejected_pairs: u64,
    /// Time spent preparing batches (seeding, segment extraction, buffer filling).
    pub preprocessing_seconds: f64,
    /// Device kernel time spent filtering (zero without a GPU filter).
    pub filter_kernel_seconds: f64,
    /// Total filtering time from the host's perspective (modelled for the simulated
    /// GPU filters, measured for host filters).
    pub filter_seconds: f64,
    /// Wall-clock time this process actually spent producing the filter decisions
    /// (functional simulation cost; lets reports exclude it when modelling a real
    /// device).
    pub filter_wall_seconds: f64,
    /// Verification time: the bounded edit distance of every accepted pair.
    pub verification_seconds: f64,
    /// End-to-end mapping time.
    pub total_seconds: f64,
}

impl MappingStats {
    /// Fraction of candidate mappings removed before verification (the
    /// "(Reduction)" column of Table 3).
    pub fn reduction_fraction(&self) -> f64 {
        if self.candidate_pairs == 0 {
            0.0
        } else {
            self.rejected_pairs as f64 / self.candidate_pairs as f64
        }
    }

    /// Combined filtering + verification time (the "Filtering + DP Time" column of
    /// Table 5; kernel time is used for the filter, as in the paper).
    pub fn filtering_plus_dp_seconds(&self) -> f64 {
        self.filter_kernel_seconds + self.verification_seconds
    }
}

/// Result of mapping a read set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingOutcome {
    /// Reported mappings.
    pub records: Vec<MappingRecord>,
    /// Aggregate statistics.
    pub stats: MappingStats,
}

/// One read's contribution to a filter batch: the candidate pairs plus, for
/// each pair, the (read index, candidate location) it came from.
type ReadCandidates = (Vec<SequencePair>, Vec<(usize, CandidateLocation)>);

/// The seed-and-extend read mapper.
pub struct ReadMapper {
    reference: Reference,
    index: KmerIndex,
    config: MapperConfig,
}

impl ReadMapper {
    /// Builds a mapper (and its k-mer index) over a reference.
    pub fn new(reference: Reference, config: MapperConfig) -> ReadMapper {
        let index = KmerIndex::build(&reference);
        ReadMapper {
            reference,
            index,
            config,
        }
    }

    /// The reference being mapped against.
    pub fn reference(&self) -> &Reference {
        &self.reference
    }

    /// The mapper configuration.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// Maps a set of reads with the given pre-alignment filter.
    pub fn map_reads(&self, reads: &[FastqRecord], filter: &PreFilter) -> MappingOutcome {
        let total_start = Instant::now();
        let mut stats = MappingStats {
            reads: reads.len(),
            ..Default::default()
        };
        let mut records = Vec::new();

        for batch in reads.chunks(self.config.max_reads_per_batch.max(1)) {
            self.map_batch(batch, filter, &mut stats, &mut records);
        }

        stats.total_seconds = total_start.elapsed().as_secs_f64();
        MappingOutcome { records, stats }
    }

    fn map_batch(
        &self,
        reads: &[FastqRecord],
        filter: &PreFilter,
        stats: &mut MappingStats,
        records: &mut Vec<MappingRecord>,
    ) {
        // Empty reads yield no candidates; skip the batch only when every read is empty.
        let Some(read_len) = reads.iter().map(|r| r.sequence.len()).find(|&len| len > 0) else {
            return;
        };

        // Preprocessing: seeding + candidate segment extraction + buffer filling,
        // fanned out per read in a single parallel pass (seeding, segment copies
        // and reverse-complement orientation are all per-read independent). The
        // flatten below walks the per-read results in read order, so the batch
        // is identical to a sequential build.
        let prep_start = Instant::now();
        let per_read: Vec<ReadCandidates> = reads
            .par_iter()
            .enumerate()
            .map(|(read_idx, read)| {
                let candidates =
                    candidates_for_read(&read.sequence, &self.index, &self.config.seeding);
                let mut read_pairs = Vec::with_capacity(candidates.len());
                let mut owners = Vec::with_capacity(candidates.len());
                // Computed at most once per read, shared by all its
                // reverse-strand candidates.
                let mut reverse_read: Option<Vec<u8>> = None;
                for candidate in candidates {
                    let segment = self
                        .reference
                        .segment(candidate.position as usize, read.sequence.len());
                    if segment.len() < read.sequence.len() {
                        continue;
                    }
                    let oriented_read = if candidate.reverse {
                        reverse_read
                            .get_or_insert_with(|| reverse_complement(&read.sequence))
                            .clone()
                    } else {
                        read.sequence.clone()
                    };
                    read_pairs.push(SequencePair::new(oriented_read, segment.to_vec()));
                    owners.push((read_idx, candidate));
                }
                (read_pairs, owners)
            })
            .collect();

        let mut pairs: Vec<SequencePair> = Vec::new();
        let mut pair_owner: Vec<(usize, CandidateLocation)> = Vec::new();
        for (read_pairs, owners) in per_read {
            pairs.extend(read_pairs);
            pair_owner.extend(owners);
        }
        let pair_set = PairSet::new("mapper batch", read_len, pairs);
        stats.preprocessing_seconds += prep_start.elapsed().as_secs_f64();
        stats.candidate_pairs += pair_set.len() as u64;

        // Pre-alignment filtering.
        let filter_wall_start = Instant::now();
        let (decisions, kernel_seconds, filter_seconds) = filter.apply(&pair_set);
        stats.filter_wall_seconds += filter_wall_start.elapsed().as_secs_f64();
        stats.filter_kernel_seconds += kernel_seconds;
        stats.filter_seconds += filter_seconds;
        let accepted: Vec<usize> = decisions
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.accepted.then_some(i))
            .collect();
        stats.verification_pairs += accepted.len() as u64;
        stats.rejected_pairs += (pair_set.len() - accepted.len()) as u64;

        // Verification: the edit distance, bounded by the threshold.
        let verify_start = Instant::now();
        let threshold = self.config.threshold;
        let verified: Vec<(usize, u32)> = accepted
            .par_iter()
            .filter_map(|&pair_idx| {
                let pair = &pair_set.pairs[pair_idx];
                banded_levenshtein(&pair.read, &pair.reference, threshold)
                    .map(|distance| (pair_idx, distance))
            })
            .collect();
        stats.verification_seconds += verify_start.elapsed().as_secs_f64();

        // Reporting.
        let mut read_mapped = vec![false; reads.len()];
        for (pair_idx, distance) in verified {
            let (read_idx, candidate) = pair_owner[pair_idx];
            read_mapped[read_idx] = true;
            stats.mappings += 1;
            let pair = &pair_set.pairs[pair_idx];
            let cigar = if self.config.report_alignments {
                needleman_wunsch(
                    &pair.read,
                    &pair.reference,
                    ScoringScheme {
                        match_score: 0,
                        mismatch: -1,
                        gap: -1,
                    },
                )
                .cigar
            } else {
                let mut cigar = Cigar::new();
                cigar.push(CigarOp::Match, pair.read.len() as u32);
                cigar
            };
            records.push(MappingRecord {
                read_id: reads[read_idx].id.clone(),
                reference_name: self.reference.name.clone(),
                position: candidate.position,
                reverse: candidate.reverse,
                edit_distance: distance,
                cigar,
            });
        }
        stats.mapped_reads += read_mapped.iter().filter(|&&m| m).count() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_align::dp::levenshtein;
    use gk_core::config::FilterConfig;
    use gk_filters::SneakySnakeFilter;
    use gk_seq::reference::ReferenceBuilder;
    use gk_seq::simulate::{ErrorProfile, ReadSimulator};

    fn reference() -> Reference {
        ReferenceBuilder::new(80_000)
            .seed(21)
            .repeat_fraction(0.3)
            .n_gaps(0, 0)
            .build()
    }

    fn simulated_reads(
        reference: &Reference,
        count: usize,
        profile: ErrorProfile,
    ) -> Vec<FastqRecord> {
        ReadSimulator::new(100, profile)
            .seed(17)
            .simulate(reference, count)
            .iter()
            .map(|r| r.to_fastq())
            .collect()
    }

    fn gpu_filter(threshold: u32) -> PreFilter {
        PreFilter::Gpu(GateKeeperGpu::with_default_device(FilterConfig::new(
            100, threshold,
        )))
    }

    #[test]
    fn perfect_reads_all_map_to_their_origin() {
        let reference = reference();
        let reads = simulated_reads(&reference, 100, ErrorProfile::perfect());
        let mapper = ReadMapper::new(reference, MapperConfig::new(2));
        let outcome = mapper.map_reads(&reads, &PreFilter::None);
        assert_eq!(outcome.stats.mapped_reads, 100);
        assert!(outcome.stats.mappings >= 100);
        assert_eq!(outcome.stats.reads, 100);
        assert_eq!(
            outcome.stats.candidate_pairs,
            outcome.stats.verification_pairs
        );
    }

    #[test]
    fn filtering_does_not_change_the_mappings() {
        // Table 3 at e = 0: the number of mappings and mapped reads is identical
        // with and without GateKeeper-GPU; only the verification workload shrinks.
        let reference = reference();
        let reads = simulated_reads(&reference, 120, ErrorProfile::illumina());
        let mapper = ReadMapper::new(reference, MapperConfig::new(3));

        let unfiltered = mapper.map_reads(&reads, &PreFilter::None);
        let filtered = mapper.map_reads(&reads, &gpu_filter(3));

        assert_eq!(unfiltered.stats.mappings, filtered.stats.mappings);
        assert_eq!(unfiltered.stats.mapped_reads, filtered.stats.mapped_reads);
        assert_eq!(
            unfiltered.stats.candidate_pairs,
            filtered.stats.candidate_pairs
        );
        assert!(filtered.stats.verification_pairs <= unfiltered.stats.verification_pairs);
        assert!(filtered.stats.rejected_pairs > 0);
    }

    #[test]
    fn filter_reduces_verification_workload_substantially() {
        let reference = reference();
        let reads = simulated_reads(&reference, 150, ErrorProfile::illumina());
        let mapper = ReadMapper::new(reference, MapperConfig::new(2));
        let filtered = mapper.map_reads(&reads, &gpu_filter(2));
        // Repeat-rich seeding produces many hopeless candidates; GateKeeper-GPU
        // should reject a large share of them.
        assert!(
            filtered.stats.reduction_fraction() > 0.2,
            "reduction = {}",
            filtered.stats.reduction_fraction()
        );
    }

    #[test]
    fn host_filter_hook_works_too() {
        let reference = reference();
        let reads = simulated_reads(&reference, 60, ErrorProfile::illumina());
        let mapper = ReadMapper::new(reference, MapperConfig::new(2));
        let snake = PreFilter::Host(Box::new(SneakySnakeFilter::new(2)));
        assert_eq!(snake.name(), "SneakySnake");
        let outcome = mapper.map_reads(&reads, &snake);
        let unfiltered = mapper.map_reads(&reads, &PreFilter::None);
        assert_eq!(outcome.stats.mappings, unfiltered.stats.mappings);
        assert!(outcome.stats.verification_pairs <= unfiltered.stats.verification_pairs);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let reference = reference();
        let reads = simulated_reads(&reference, 80, ErrorProfile::low_indel());
        let mapper = ReadMapper::new(reference, MapperConfig::new(4));
        let outcome = mapper.map_reads(&reads, &gpu_filter(4));
        let stats = outcome.stats;
        assert_eq!(
            stats.candidate_pairs,
            stats.verification_pairs + stats.rejected_pairs
        );
        assert!(stats.mapped_reads <= stats.reads as u64);
        assert!(stats.mappings >= stats.mapped_reads);
        assert!(stats.total_seconds > 0.0);
        assert!(stats.filter_kernel_seconds <= stats.filter_seconds);
        assert_eq!(outcome.records.len() as u64, stats.mappings);
    }

    #[test]
    fn reported_positions_match_planted_origins() {
        let reference = reference();
        let sim_reads = ReadSimulator::new(100, ErrorProfile::perfect())
            .seed(33)
            .reverse_fraction(0.0)
            .simulate(&reference, 50);
        let fastq: Vec<FastqRecord> = sim_reads.iter().map(|r| r.to_fastq()).collect();
        let mapper = ReadMapper::new(reference, MapperConfig::new(2));
        let outcome = mapper.map_reads(&fastq, &gpu_filter(2));
        for sim in &sim_reads {
            let found = outcome
                .records
                .iter()
                .any(|r| r.read_id == sim.id && r.position as usize == sim.origin);
            assert!(found, "read {} not mapped to its origin", sim.id);
        }
    }

    #[test]
    fn alignment_reporting_produces_traceback_cigars() {
        let reference = reference();
        let reads = simulated_reads(&reference, 20, ErrorProfile::low_indel());
        let config = MapperConfig {
            report_alignments: true,
            ..MapperConfig::new(3)
        };
        let mapper = ReadMapper::new(reference, config);
        let outcome = mapper.map_reads(&reads, &PreFilter::None);
        for record in &outcome.records {
            assert_eq!(record.cigar.read_len() as usize, 100);
            assert!(record.cigar.reference_len() > 0);
        }
    }

    #[test]
    fn batching_does_not_change_results() {
        let reference = reference();
        let reads = simulated_reads(&reference, 90, ErrorProfile::illumina());
        let single = ReadMapper::new(reference.clone(), MapperConfig::new(2));
        let batched = ReadMapper::new(reference, MapperConfig::new(2).with_max_reads_per_batch(10));
        let a = single.map_reads(&reads, &PreFilter::None);
        let b = batched.map_reads(&reads, &PreFilter::None);
        assert_eq!(a.stats.mappings, b.stats.mappings);
        assert_eq!(a.stats.candidate_pairs, b.stats.candidate_pairs);
        assert_eq!(a.stats.mapped_reads, b.stats.mapped_reads);
    }

    #[test]
    fn an_empty_read_at_the_head_of_a_batch_does_not_drop_the_batch() {
        let reference = reference();
        let reads = simulated_reads(&reference, 20, ErrorProfile::perfect());
        let mapper = ReadMapper::new(reference, MapperConfig::new(2));
        let filter = gpu_filter(2);
        let expected = mapper.map_reads(&reads, &filter);
        assert!(expected.stats.mapped_reads > 0);

        let mut with_empty = vec![FastqRecord::with_uniform_quality("empty", Vec::<u8>::new())];
        with_empty.extend(reads.iter().cloned());
        let outcome = mapper.map_reads(&with_empty, &filter);
        assert_eq!(outcome.records, expected.records);
        assert_eq!(outcome.stats.reads, reads.len() + 1);
        assert_eq!(outcome.stats.mapped_reads, expected.stats.mapped_reads);
    }

    #[test]
    fn mappings_match_an_independent_full_dp() {
        // The oracle shares no code with the verifier: it enumerates every
        // candidate again and measures it with the full DP.
        let reference = reference();
        let oriented = |read: &[u8], reverse: bool| {
            if reverse {
                reverse_complement(read)
            } else {
                read.to_vec()
            }
        };
        for profile in [ErrorProfile::illumina(), ErrorProfile::low_indel()] {
            let reads = simulated_reads(&reference, 60, profile);
            for threshold in [2, 5] {
                let mapper = ReadMapper::new(reference.clone(), MapperConfig::new(threshold));
                let mut within = 0;
                for read in &reads {
                    let seq = &read.sequence;
                    for c in candidates_for_read(seq, &mapper.index, &mapper.config.seeding) {
                        let segment = reference.segment(c.position as usize, seq.len());
                        if segment.len() == seq.len()
                            && levenshtein(&oriented(seq, c.reverse), segment) <= threshold
                        {
                            within += 1;
                        }
                    }
                }
                assert!(within > 0);
                for filter in [PreFilter::None, gpu_filter(threshold)] {
                    let outcome = mapper.map_reads(&reads, &filter);
                    assert_eq!(outcome.stats.mappings, within, "e = {threshold}");
                    for record in &outcome.records {
                        let read = reads.iter().find(|r| r.id == record.read_id).unwrap();
                        let segment =
                            reference.segment(record.position as usize, read.sequence.len());
                        let distance =
                            levenshtein(&oriented(&read.sequence, record.reverse), segment);
                        assert_eq!(record.edit_distance, distance, "read {}", record.read_id);
                        assert!(distance <= threshold);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_read_set_maps_nothing() {
        let reference = reference();
        let mapper = ReadMapper::new(reference, MapperConfig::new(2));
        let outcome = mapper.map_reads(&[], &PreFilter::None);
        assert_eq!(outcome.stats.mappings, 0);
        assert_eq!(outcome.records.len(), 0);
    }
}
