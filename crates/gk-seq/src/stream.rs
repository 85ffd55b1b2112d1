//! Streaming pair sources: iterators of pair batches generated on the fly.
//!
//! The paper's evaluation sets hold 30 million pairs each (§4.1) — materializing
//! one as a [`crate::pairs::PairSet`] costs gigabytes. A [`PairBatches`] source
//! instead drives the same deterministic generator one batch at a time, so a
//! whole-genome-scale run only ever holds one batch (plus whatever the consumer
//! keeps in flight). Concatenating the batches reproduces
//! [`DatasetProfile::generate`] with the same seed **byte for byte**, because
//! both walk a single seeded RNG pair by pair.

use crate::datasets::DatasetProfile;
use crate::pairs::SequencePair;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Iterator of deterministically generated pair batches.
#[derive(Debug, Clone)]
pub struct PairBatches {
    profile: DatasetProfile,
    rng: StdRng,
    remaining: usize,
    batch_pairs: usize,
}

impl PairBatches {
    /// Creates a source that yields `count` pairs of `profile` (seeded with
    /// `seed`) in batches of at most `batch_pairs`.
    pub fn new(
        profile: DatasetProfile,
        count: usize,
        seed: u64,
        batch_pairs: usize,
    ) -> PairBatches {
        PairBatches {
            profile,
            rng: StdRng::seed_from_u64(seed),
            remaining: count,
            batch_pairs: batch_pairs.max(1),
        }
    }

    /// Read length of the generated pairs.
    pub fn read_len(&self) -> usize {
        self.profile.read_len
    }
}

impl Iterator for PairBatches {
    type Item = Vec<SequencePair>;

    fn next(&mut self) -> Option<Vec<SequencePair>> {
        if self.remaining == 0 {
            return None;
        }
        let take = self.remaining.min(self.batch_pairs);
        let mut batch = Vec::with_capacity(take);
        for _ in 0..take {
            batch.push(self.profile.generate_pair(&mut self.rng));
        }
        self.remaining -= take;
        Some(batch)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let batches = self.remaining.div_ceil(self.batch_pairs);
        (batches, Some(batches))
    }
}

impl ExactSizeIterator for PairBatches {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_batches_reproduce_generate_exactly() {
        let profile = DatasetProfile::set3();
        let reference = profile.generate(1_000, 42);
        let streamed: Vec<SequencePair> =
            profile.stream_batches(1_000, 42, 128).flatten().collect();
        assert_eq!(streamed, reference.pairs);
    }

    #[test]
    fn batch_sizes_and_counts_are_as_requested() {
        let profile = DatasetProfile::set1();
        let mut source = profile.stream_batches(1_000, 7, 300);
        assert_eq!(source.len(), 4);
        assert_eq!(source.remaining, 1_000);
        let sizes: Vec<usize> = source.by_ref().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![300, 300, 300, 100]);
        assert_eq!(source.remaining, 0);
        assert!(source.next().is_none());
    }

    #[test]
    fn zero_batch_size_is_clamped() {
        let profile = DatasetProfile::set1();
        let batches: Vec<_> = profile.stream_batches(5, 3, 0).collect();
        assert_eq!(batches.len(), 5);
    }

    #[test]
    fn read_len_is_exposed_for_downstream_config() {
        let source = DatasetProfile::set9().stream_batches(10, 1, 4);
        assert_eq!(source.read_len(), 250);
    }
}
