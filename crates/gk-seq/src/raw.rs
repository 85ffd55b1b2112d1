//! Raw (unencoded) pair batches: the transfer representation of the
//! device-side encoding path.
//!
//! With the host encoding actor (§3.3) the CPU packs every sequence into 2-bit
//! words *before* the transfer, so the H2D buffers hold `⌈len/16⌉` `u32` words
//! per sequence. With the **device** encoding actor the host ships the raw
//! 1-byte-per-base sequences instead — roughly 4× the bytes on the PCIe link —
//! and each GPU thread packs its own pair at the top of the fused
//! encode+filter kernel, where the bit twiddling is effectively free next to
//! the `2e + 1` mask computations. [`RawPairBatch`] is that transfer buffer: a
//! flat, stride-addressed byte arena holding every read and candidate
//! reference segment of a batch contiguously, exactly the layout a
//! `cudaMemcpy`/unified-memory prefetch would move.
//!
//! The arena supports **zero-copy slicing**: [`RawPairBatch::slice`] and
//! [`RawPairSlice::slice`] return borrowed views at pair granularity, so a
//! pipeline can gather one arena per source batch and feed plan-sized chunks
//! to the device stage without re-copying a single base. Sequences shorter
//! than the stride are zero-padded in the arena and their true lengths kept in
//! a side table, so ragged batches (e.g. indel-mutated references) round-trip
//! exactly.

use crate::pairs::SequencePair;
use serde::{Deserialize, Serialize};

/// A batch of (read, reference segment) pairs in the raw 1-byte-per-base
/// transfer layout: two flat arenas (`reads`, `refs`) addressed with a common
/// per-pair stride, plus the true per-sequence lengths.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawPairBatch {
    stride: usize,
    len: usize,
    reads: Vec<u8>,
    refs: Vec<u8>,
    read_lens: Vec<u32>,
    ref_lens: Vec<u32>,
}

impl RawPairBatch {
    /// Gathers a batch of pairs into the flat transfer arenas (the host-side
    /// buffer-preparation step of §3.5, minus the encoding). The stride is the
    /// longest sequence in the batch; shorter sequences are zero-padded.
    pub fn from_pairs(pairs: &[SequencePair]) -> RawPairBatch {
        let stride = pairs
            .iter()
            .map(|p| p.read.len().max(p.reference.len()))
            .max()
            .unwrap_or(0)
            .max(1);
        let mut reads = vec![0u8; stride * pairs.len()];
        let mut refs = vec![0u8; stride * pairs.len()];
        let mut read_lens = Vec::with_capacity(pairs.len());
        let mut ref_lens = Vec::with_capacity(pairs.len());
        for (i, pair) in pairs.iter().enumerate() {
            let slot = i * stride;
            reads[slot..slot + pair.read.len()].copy_from_slice(&pair.read);
            refs[slot..slot + pair.reference.len()].copy_from_slice(&pair.reference);
            read_lens.push(pair.read.len() as u32);
            ref_lens.push(pair.reference.len() as u32);
        }
        RawPairBatch {
            stride,
            len: pairs.len(),
            reads,
            refs,
            read_lens,
            ref_lens,
        }
    }

    /// Number of pairs in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes reserved per sequence slot (the transfer stride).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total bytes the batch occupies on the H2D link (read + reference
    /// arenas, padding included — padding is transferred like real bases).
    pub fn h2d_bytes(&self) -> u64 {
        2 * (self.stride * self.len) as u64
    }

    /// Borrows the whole batch as a zero-copy view.
    pub fn view(&self) -> RawPairSlice<'_> {
        self.slice(0, self.len)
    }

    /// Borrows pairs `[start, end)` as a zero-copy view of the arenas.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > self.len()`.
    pub fn slice(&self, start: usize, end: usize) -> RawPairSlice<'_> {
        assert!(
            start <= end && end <= self.len,
            "slice [{start}, {end}) out of range (len {})",
            self.len
        );
        RawPairSlice {
            stride: self.stride,
            reads: &self.reads[start * self.stride..end * self.stride],
            refs: &self.refs[start * self.stride..end * self.stride],
            read_lens: &self.read_lens[start..end],
            ref_lens: &self.ref_lens[start..end],
        }
    }
}

/// A zero-copy view over a contiguous range of a [`RawPairBatch`]'s arenas.
#[derive(Debug, Clone, Copy)]
pub struct RawPairSlice<'a> {
    stride: usize,
    reads: &'a [u8],
    refs: &'a [u8],
    read_lens: &'a [u32],
    ref_lens: &'a [u32],
}

impl<'a> RawPairSlice<'a> {
    /// Number of pairs in the view.
    pub fn len(&self) -> usize {
        self.read_lens.len()
    }

    /// True when the view holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.read_lens.is_empty()
    }

    /// Bytes reserved per sequence slot (the transfer stride).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The raw read bytes of pair `i` (no padding).
    pub fn read(&self, i: usize) -> &'a [u8] {
        let slot = i * self.stride;
        &self.reads[slot..slot + self.read_lens[i] as usize]
    }

    /// The raw reference-segment bytes of pair `i` (no padding).
    pub fn reference(&self, i: usize) -> &'a [u8] {
        let slot = i * self.stride;
        &self.refs[slot..slot + self.ref_lens[i] as usize]
    }

    /// Bytes this view occupies on the H2D link.
    pub fn h2d_bytes(&self) -> u64 {
        2 * (self.stride * self.len()) as u64
    }

    /// Sub-view of pairs `[start, end)` relative to this view — still
    /// zero-copy.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > self.len()`.
    pub fn slice(&self, start: usize, end: usize) -> RawPairSlice<'a> {
        assert!(
            start <= end && end <= self.len(),
            "slice [{start}, {end}) out of range (len {})",
            self.len()
        );
        RawPairSlice {
            stride: self.stride,
            reads: &self.reads[start * self.stride..end * self.stride],
            refs: &self.refs[start * self.stride..end * self.stride],
            read_lens: &self.read_lens[start..end],
            ref_lens: &self.ref_lens[start..end],
        }
    }
}

/// Adapter turning an iterator of pair batches into an iterator of raw
/// transfer batches (the device-encoding counterpart of
/// [`crate::stream::EncodedPairBatches`]).
#[derive(Debug, Clone)]
pub struct RawPairBatches<I> {
    inner: I,
}

impl<I> RawPairBatches<I>
where
    I: Iterator<Item = Vec<SequencePair>>,
{
    /// Wraps a pair-batch iterator.
    pub fn new(inner: I) -> RawPairBatches<I> {
        RawPairBatches { inner }
    }
}

impl<I> Iterator for RawPairBatches<I>
where
    I: Iterator<Item = Vec<SequencePair>>,
{
    type Item = RawPairBatch;

    fn next(&mut self) -> Option<RawPairBatch> {
        self.inner
            .next()
            .map(|batch| RawPairBatch::from_pairs(&batch))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetProfile;

    fn pair(read: &[u8], reference: &[u8]) -> SequencePair {
        SequencePair::new(read.to_vec(), reference.to_vec())
    }

    /// The owned pairs a view addresses, rebuilt for round-trip checks.
    fn to_pairs(view: RawPairSlice<'_>) -> Vec<SequencePair> {
        (0..view.len())
            .map(|i| SequencePair::new(view.read(i), view.reference(i)))
            .collect()
    }

    #[test]
    fn gather_round_trips_uniform_pairs() {
        let pairs = vec![pair(b"ACGT", b"TGCA"), pair(b"AAAA", b"CCCC")];
        let raw = RawPairBatch::from_pairs(&pairs);
        assert_eq!(raw.len(), 2);
        assert_eq!(raw.stride(), 4);
        assert_eq!(raw.h2d_bytes(), 16);
        assert_eq!(to_pairs(raw.view()), pairs);
        assert_eq!(raw.view().read(1), b"AAAA");
        assert_eq!(raw.view().reference(0), b"TGCA");
    }

    #[test]
    fn ragged_pairs_keep_their_true_lengths() {
        let pairs = vec![pair(b"ACGTACGT", b"ACG"), pair(b"AC", b"TTTTTT")];
        let raw = RawPairBatch::from_pairs(&pairs);
        assert_eq!(raw.stride(), 8);
        assert_eq!(to_pairs(raw.view()), pairs);
        assert_eq!(raw.view().read(1), b"AC");
        assert_eq!(raw.view().reference(0), b"ACG");
    }

    #[test]
    fn undefined_bases_survive_the_gather_verbatim() {
        let pairs = vec![pair(b"ACNT", b"NNNN")];
        let raw = RawPairBatch::from_pairs(&pairs);
        assert_eq!(raw.view().read(0), b"ACNT");
        assert_eq!(raw.view().reference(0), b"NNNN");
    }

    #[test]
    fn slicing_is_zero_copy_and_composes() {
        let pairs = DatasetProfile::set3().generate(100, 7).pairs;
        let raw = RawPairBatch::from_pairs(&pairs);
        let mid = raw.slice(20, 80);
        assert_eq!(mid.len(), 60);
        // A sub-slice of a slice addresses the same arena bytes.
        let sub = mid.slice(10, 20);
        for i in 0..10 {
            assert_eq!(sub.read(i), pairs[30 + i].read.as_slice());
            assert_eq!(sub.reference(i), pairs[30 + i].reference.as_slice());
            // Pointer identity: the view borrows the original arena.
            assert_eq!(sub.read(i).as_ptr(), raw.slice(30, 40).read(i).as_ptr());
        }
        assert_eq!(raw.slice(0, 0).len(), 0);
        assert!(raw.slice(5, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slice_panics() {
        let raw = RawPairBatch::from_pairs(&[pair(b"ACGT", b"ACGT")]);
        raw.slice(0, 2);
    }

    #[test]
    fn empty_batch_is_well_formed() {
        let raw = RawPairBatch::from_pairs(&[]);
        assert!(raw.is_empty());
        assert_eq!(raw.h2d_bytes(), 0);
        assert!(to_pairs(raw.view()).is_empty());
    }

    #[test]
    fn raw_batches_adapter_matches_direct_gather() {
        let profile = DatasetProfile::set3();
        let direct: Vec<RawPairBatch> = profile
            .stream_batches(500, 9, 64)
            .map(|b| RawPairBatch::from_pairs(&b))
            .collect();
        let adapted: Vec<RawPairBatch> = profile.stream_batches(500, 9, 64).raw().collect();
        assert_eq!(adapted, direct);
        assert_eq!(adapted.len(), 8);
    }

    #[test]
    fn raw_transfer_is_about_four_times_the_packed_transfer() {
        // 250 bp packs into 16 u32 words = 64 bytes; raw ASCII is 250 bytes.
        let pairs = DatasetProfile::set9().generate(10, 3).pairs;
        let raw = RawPairBatch::from_pairs(&pairs);
        let packed_bytes = 2 * 16 * 4 * pairs.len() as u64;
        let ratio = raw.h2d_bytes() as f64 / packed_bytes as f64;
        assert!(ratio > 3.5 && ratio < 4.5, "ratio = {ratio}");
    }
}
