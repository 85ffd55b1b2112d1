//! Streaming pair sources: iterators of pair batches generated on the fly.
//!
//! The paper's evaluation sets hold 30 million pairs each (§4.1) — materializing
//! one as a [`crate::pairs::PairSet`] costs gigabytes. A [`PairBatches`] source
//! instead drives the same deterministic generator one batch at a time, so a
//! whole-genome-scale run only ever holds one batch (plus whatever the consumer
//! keeps in flight). Concatenating the batches reproduces
//! [`DatasetProfile::generate`] with the same seed **byte for byte**, because
//! both walk a single seeded RNG pair by pair.
//!
//! [`EncodedPairBatches`] adapts any pair-batch iterator into an iterator of
//! 2-bit *encoded* batches (the host-encoding stage of §3.3), for consumers
//! that want packed words rather than ASCII pairs.

use crate::datasets::DatasetProfile;
use crate::packed::PackedSeq;
use crate::pairs::{encode_pair_batch, SequencePair};
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

    /// Adapts the source into an iterator of 2-bit encoded batches.
    pub fn encoded(self) -> EncodedPairBatches<PairBatches> {
        EncodedPairBatches::new(self)
    }

    /// Adapts the source into an iterator of raw transfer batches
    /// ([`crate::raw::RawPairBatch`]) — the device-encoding counterpart of
    /// [`PairBatches::encoded`]: the host gathers each batch into flat
    /// 1-byte-per-base arenas but leaves the 2-bit packing to the kernel.
    pub fn raw(self) -> crate::raw::RawPairBatches<PairBatches> {
        crate::raw::RawPairBatches::new(self)
    }

    /// Adapts the source into a read-ahead iterator: the next batch is
    /// generated as a task on the worker pool while the consumer processes the
    /// current one, so generation cost hides under downstream work. Yields
    /// exactly the same batches in the same order.
    pub fn read_ahead(self) -> ReadAhead<PairBatches> {
        ReadAhead::new(self)
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

/// Adapter turning an iterator of pair batches into an iterator of encoded
/// batches (each pair packed into its 2-bit device representation, fanned out
/// across the thread pool exactly like the host encoding actor).
#[derive(Debug, Clone)]
pub struct EncodedPairBatches<I> {
    inner: I,
}

impl<I> EncodedPairBatches<I>
where
    I: Iterator<Item = Vec<SequencePair>>,
{
    /// Wraps a pair-batch iterator.
    pub fn new(inner: I) -> EncodedPairBatches<I> {
        EncodedPairBatches { inner }
    }
}

impl<I> Iterator for EncodedPairBatches<I>
where
    I: Iterator<Item = Vec<SequencePair>>,
{
    type Item = Vec<(PackedSeq, PackedSeq)>;

    fn next(&mut self) -> Option<Vec<(PackedSeq, PackedSeq)>> {
        self.inner.next().map(|batch| encode_pair_batch(&batch))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Read-ahead adapter over any owned iterator: item *i+1* is produced by a
/// task on the worker pool while the consumer is still busy with item *i*.
///
/// The inner iterator travels inside the in-flight task (it is moved into the
/// spawn and handed back with the produced item), so ordering and values are
/// identical to driving the iterator directly — only *where* and *when* the
/// production work happens changes. Exactly one item is generated ahead, so
/// memory stays bounded at one extra batch. Under the `RAYON_NUM_THREADS=1`
/// sequential fallback the spawn runs inline, degrading to an eager-by-one
/// serial iterator with unchanged output.
#[derive(Debug)]
pub struct ReadAhead<I: Iterator> {
    inflight: Option<rayon::JoinHandle<(Option<I::Item>, I)>>,
}

impl<I> ReadAhead<I>
where
    I: Iterator + Send + 'static,
    I::Item: Send + 'static,
{
    /// Wraps an iterator and immediately starts producing its first item on
    /// the pool.
    pub fn new(inner: I) -> ReadAhead<I> {
        ReadAhead {
            inflight: Some(Self::advance(inner)),
        }
    }

    fn advance(mut inner: I) -> rayon::JoinHandle<(Option<I::Item>, I)> {
        rayon::spawn(move || {
            let item = inner.next();
            (item, inner)
        })
    }
}

impl<I> Iterator for ReadAhead<I>
where
    I: Iterator + Send + 'static,
    I::Item: Send + 'static,
{
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let (item, inner) = self.inflight.take()?.join();
        if item.is_some() {
            // Start producing the following item before handing this one to
            // the consumer — that is the whole point of the adapter.
            self.inflight = Some(Self::advance(inner));
        }
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // The inner iterator is inside the in-flight task; without it the only
        // universally correct hint is the trivial one.
        (0, None)
    }
}

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
    fn encoded_batches_match_direct_encoding() {
        let profile = DatasetProfile::set3();
        let raw = profile.generate(500, 9);
        let encoded: Vec<(PackedSeq, PackedSeq)> = profile
            .stream_batches(500, 9, 64)
            .encoded()
            .flatten()
            .collect();
        let direct = encode_pair_batch(&raw.pairs);
        assert_eq!(encoded, direct);
        assert_eq!(encoded.len(), 500);
    }

    #[test]
    fn read_len_is_exposed_for_downstream_config() {
        let source = DatasetProfile::set9().stream_batches(10, 1, 4);
        assert_eq!(source.read_len(), 250);
    }

    #[test]
    fn read_ahead_yields_identical_batches_in_order() {
        let profile = DatasetProfile::set3();
        let direct: Vec<Vec<SequencePair>> = profile.stream_batches(1_000, 13, 128).collect();
        let ahead: Vec<Vec<SequencePair>> = profile
            .stream_batches(1_000, 13, 128)
            .read_ahead()
            .collect();
        assert_eq!(ahead, direct);
    }

    #[test]
    fn read_ahead_handles_empty_and_single_batch_sources() {
        let profile = DatasetProfile::set1();
        let empty: Vec<Vec<SequencePair>> = profile.stream_batches(0, 1, 10).read_ahead().collect();
        assert!(empty.is_empty());
        let single: Vec<Vec<SequencePair>> =
            profile.stream_batches(5, 1, 10).read_ahead().collect();
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].len(), 5);
    }

    #[test]
    fn read_ahead_is_fused_after_exhaustion() {
        let mut ahead = DatasetProfile::set1().stream_batches(4, 2, 2).read_ahead();
        assert!(ahead.next().is_some());
        assert!(ahead.next().is_some());
        assert!(ahead.next().is_none());
        assert!(ahead.next().is_none());
    }

    #[test]
    fn read_ahead_composes_with_generic_iterators() {
        let items: Vec<u32> = ReadAhead::new(0u32..50).collect();
        assert_eq!(items, (0..50).collect::<Vec<u32>>());
    }
}
