//! The common interface every pre-alignment filter implements.

use crate::simd::{filter_blocks, pair_slices};
use gk_seq::pairs::SequencePair;
use serde::{Deserialize, Serialize};

/// Outcome of filtering one (read, reference segment) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterDecision {
    /// True if the pair passes the filter and should proceed to verification.
    pub accepted: bool,
    /// The filter's (approximate) edit-distance estimate. GateKeeper-GPU "does not
    /// calculate but approximates the edit distance between pairs" (§3.4); the
    /// estimate is written back alongside the accept/reject bit.
    pub estimated_edits: u32,
    /// True if the pair was passed through without filtration because it contains
    /// an unknown base (`N`) — the *undefined pair* handling of §3.3.
    pub undefined: bool,
}

impl FilterDecision {
    /// An accept decision produced by actual filtration.
    pub fn accept(estimated_edits: u32) -> FilterDecision {
        FilterDecision {
            accepted: true,
            estimated_edits,
            undefined: false,
        }
    }

    /// A reject decision produced by actual filtration.
    pub fn reject(estimated_edits: u32) -> FilterDecision {
        FilterDecision {
            accepted: false,
            estimated_edits,
            undefined: false,
        }
    }

    /// The free pass given to a pair containing an unknown base call.
    pub fn undefined_pass() -> FilterDecision {
        FilterDecision {
            accepted: true,
            estimated_edits: 0,
            undefined: true,
        }
    }
}

/// FNV-1a digest of a decision sequence — the oracle the differential
/// SIMD == scalar sweeps and the `simd_speedup` acceptance bench compare:
/// byte-identical decisions in identical order, nothing weaker.
pub fn decision_digest(decisions: &[FilterDecision]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
    for d in decisions {
        let word = (u64::from(d.estimated_edits) << 2)
            | (u64::from(d.accepted) << 1)
            | u64::from(d.undefined);
        h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3); // FNV-1a prime
    }
    h
}

/// A pre-alignment filter: decides per pair whether expensive verification can be
/// skipped. Implementations carry their error threshold.
///
/// A filter implements one method, [`PreAlignmentFilter::filter_block`], over
/// a block of borrowed `(read, reference)` slices. A single pair is a
/// one-pair block, and a batch fans out into blocks through
/// [`crate::simd::filter_blocks`]; no implementation overrides either.
pub trait PreAlignmentFilter: Sync {
    /// Human-readable filter name, as used in the paper's tables.
    fn name(&self) -> &str;

    /// The error threshold `e` this filter instance was configured with.
    fn threshold(&self) -> u32;

    /// Filters one block of pairs, decisions in input order.
    fn filter_block(&self, pairs: &[(&[u8], &[u8])]) -> Vec<FilterDecision>;

    /// Filters a single pair (a one-pair block).
    fn filter_pair(&self, read: &[u8], reference: &[u8]) -> FilterDecision {
        self.filter_block(&[(read, reference)])[0]
    }

    /// Filters a batch of pairs in parallel: lane blocks across the
    /// thread pool, order-preserving, so the decisions vector is
    /// identical to a sequential pass — also how the multicore GateKeeper-CPU
    /// baseline of the paper is organised.
    fn filter_batch(&self, pairs: &[SequencePair]) -> Vec<FilterDecision> {
        filter_blocks(pairs, |block| self.filter_block(&pair_slices(block)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AcceptAll;
    impl PreAlignmentFilter for AcceptAll {
        fn name(&self) -> &str {
            "accept-all"
        }
        fn threshold(&self) -> u32 {
            0
        }
        fn filter_block(&self, pairs: &[(&[u8], &[u8])]) -> Vec<FilterDecision> {
            vec![FilterDecision::accept(0); pairs.len()]
        }
    }

    struct RejectAll;
    impl PreAlignmentFilter for RejectAll {
        fn name(&self) -> &str {
            "reject-all"
        }
        fn threshold(&self) -> u32 {
            0
        }
        fn filter_block(&self, pairs: &[(&[u8], &[u8])]) -> Vec<FilterDecision> {
            vec![FilterDecision::reject(99); pairs.len()]
        }
    }

    fn pairs(n: usize) -> Vec<SequencePair> {
        (0..n)
            .map(|i| SequencePair::new(vec![b"ACGT"[i % 4]; 8], b"ACGTACGT".to_vec()))
            .collect()
    }

    #[test]
    fn decision_constructors() {
        assert!(FilterDecision::accept(3).accepted);
        assert!(!FilterDecision::reject(9).accepted);
        let undef = FilterDecision::undefined_pass();
        assert!(undef.accepted && undef.undefined);
    }

    #[test]
    fn default_batch_filtering_matches_per_pair() {
        for n in [0, 37, 600] {
            let batch = AcceptAll.filter_batch(&pairs(n));
            assert_eq!(batch.len(), n);
            assert!(batch.iter().all(|d| d.accepted));
            let rejected = RejectAll.filter_batch(&pairs(n));
            assert_eq!(rejected.len(), n);
            assert!(rejected.iter().all(|d| !d.accepted));
        }
        assert_eq!(
            AcceptAll.filter_pair(b"ACGT", b"TTTT"),
            FilterDecision::accept(0)
        );
        assert_eq!(
            RejectAll.filter_pair(b"ACGT", b"ACGT"),
            FilterDecision::reject(99)
        );
    }

    #[test]
    fn decision_digest_is_order_and_field_sensitive() {
        let a = [FilterDecision::accept(1), FilterDecision::reject(2)];
        let b = [FilterDecision::reject(2), FilterDecision::accept(1)];
        assert_ne!(decision_digest(&a), decision_digest(&b));
        let a_copy = a;
        assert_eq!(decision_digest(&a), decision_digest(&a_copy));
        assert_ne!(
            decision_digest(&[FilterDecision::accept(0)]),
            decision_digest(&[FilterDecision::undefined_pass()]),
        );
        // Empty input hashes to the FNV offset basis.
        assert_eq!(decision_digest(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
