//! Parallel iterators over materialized item sets.
//!
//! Unlike real rayon, which builds a lazy producer/consumer pipeline, this
//! shim materializes the source items into a `Vec` and then executes each
//! combinator **eagerly** across the pool: the items are split into ordered
//! chunks (a few per worker), each chunk is one index of a pool job, and the
//! per-chunk outputs are reassembled in order. That keeps every output
//! byte-identical to a sequential run — the workspace only uses
//! order-preserving combinators — while the expensive per-item closures
//! (filter kernels, 2-bit encoding, edit-distance verification) genuinely fan
//! out across worker threads.
//!
//! Closure bounds are `Fn + Sync` and items are `Send`, exactly as a real
//! parallel backend requires.

use crate::pool;
use std::sync::Mutex;

/// Chunks created per pool thread by one combinator: a little
/// oversubscription so the claim counter can rebalance uneven chunks.
const CHUNKS_PER_THREAD: usize = 4;

/// One input chunk, taken by the index that processes it.
type ChunkSlot<T> = Mutex<Option<Vec<T>>>;

/// Rayon-style parallel iterator over an already-materialized item set.
///
/// Inherent methods reproduce the rayon signatures the workspace uses
/// (notably `reduce(identity, op)`).
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub(crate) fn from_vec(items: Vec<T>) -> ParIter<T> {
        ParIter { items }
    }

    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter::from_vec(process_chunks(self.items, |chunk| {
            chunk.into_iter().map(&f).collect()
        }))
    }

    pub fn filter_map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> Option<R> + Sync,
    {
        ParIter::from_vec(process_chunks(self.items, |chunk| {
            chunk.into_iter().filter_map(&f).collect()
        }))
    }

    pub fn flat_map<R, F>(self, f: F) -> ParIter<R::Item>
    where
        R: IntoIterator,
        R::Item: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter::from_vec(process_chunks(self.items, |chunk| {
            chunk.into_iter().flat_map(&f).collect()
        }))
    }

    /// Attaches the (stable, input-order) index to every item.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter::from_vec(self.items.into_iter().enumerate().collect())
    }

    /// Pairs items with another parallel iterator, truncating to the shorter.
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter::from_vec(self.items.into_iter().zip(other.items).collect())
    }

    /// Drains the (already parallel-processed) items into any collection.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    pub fn count(self) -> usize {
        self.items.len()
    }

    pub fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<T> + std::iter::Sum<S>,
    {
        process_chunks(self.items, |chunk| vec![chunk.into_iter().sum::<S>()])
            .into_iter()
            .sum()
    }

    /// Rayon-style reduce: identity element plus an associative combiner.
    /// Partial results are folded per chunk and combined in input order, so
    /// the result is deterministic for any associative `op`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T + Sync,
        OP: Fn(T, T) -> T + Sync,
    {
        if self.items.is_empty() {
            return identity();
        }
        process_chunks(self.items, |chunk| {
            vec![chunk.into_iter().fold(identity(), &op)]
        })
        .into_iter()
        .fold(identity(), op)
    }
}

/// Splits `items` into ordered chunks, runs `process` over every chunk as one
/// index of a pool job, and reassembles the per-chunk outputs in input order.
/// Sequential-fallback pools (and trivially small inputs) process inline,
/// producing byte-identical output by construction.
pub(crate) fn process_chunks<T, R, F>(items: Vec<T>, process: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(Vec<T>) -> Vec<R> + Sync,
{
    let total = items.len();
    let threads = pool::current_num_threads();
    if threads <= 1 || total < 2 {
        return process(items);
    }

    let chunk_count = total.min(threads * CHUNKS_PER_THREAD);
    let chunk_size = total.div_ceil(chunk_count);
    // Single O(n) pass: each item is moved into its chunk exactly once.
    let mut chunks: Vec<ChunkSlot<T>> = Vec::with_capacity(chunk_count);
    let mut source = items.into_iter();
    loop {
        let chunk: Vec<T> = source.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(Mutex::new(Some(chunk)));
    }

    let outputs: Vec<Mutex<Option<Vec<R>>>> = (0..chunks.len()).map(|_| Mutex::new(None)).collect();
    pool::run_parallel(chunks.len(), |index| {
        let chunk = chunks[index]
            .lock()
            .unwrap()
            .take()
            .expect("chunk executed twice");
        let result = process(chunk);
        *outputs[index].lock().unwrap() = Some(result);
    });

    let mut reassembled = Vec::with_capacity(total);
    for slot in outputs {
        let mut part = slot
            .into_inner()
            .unwrap()
            .expect("chunk finished without a result");
        reassembled.append(&mut part);
    }
    reassembled
}

/// Shared-reference conversion, mirroring `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'data> {
    type Item: Send + 'data;
    type Iter;
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, C: ?Sized> IntoParallelRefIterator<'data> for C
where
    C: 'data,
    &'data C: IntoIterator,
    <&'data C as IntoIterator>::Item: Send + 'data,
{
    type Item = <&'data C as IntoIterator>::Item;
    type Iter = ParIter<Self::Item>;
    fn par_iter(&'data self) -> ParIter<Self::Item> {
        ParIter::from_vec(self.into_iter().collect())
    }
}
