//! Property-based tests for the alignment substrate.
//!
//! The most important invariant in the whole reproduction is that the Myers
//! bit-vector distance (our Edlib stand-in, the accuracy ground truth) agrees with
//! the straightforward DP on arbitrary inputs — otherwise every accuracy table
//! would be measured against a broken reference.

use gk_align::dp::{banded_levenshtein, levenshtein};
use gk_align::myers::edit_distance;
use proptest::prelude::*;

fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
        0..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn myers_matches_dp(a in dna(200), b in dna(200)) {
        prop_assert_eq!(edit_distance(&a, &b), levenshtein(&a, &b));
    }

    #[test]
    fn myers_matches_dp_on_long_similar_sequences(a in dna(300), edits in 0usize..12) {
        // Start from a copy and plant a few substitutions so the sequences are similar,
        // which exercises the small-distance paths of the bit-vector kernel.
        let mut b = a.clone();
        for i in 0..edits.min(b.len()) {
            let pos = (i * 37) % b.len().max(1);
            b[pos] = if b[pos] == b'A' { b'C' } else { b'A' };
        }
        prop_assert_eq!(edit_distance(&a, &b), levenshtein(&a, &b));
    }

    #[test]
    fn edit_distance_is_symmetric(a in dna(150), b in dna(150)) {
        prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
    }

    #[test]
    fn edit_distance_bounded_by_length(a in dna(150), b in dna(150)) {
        let d = edit_distance(&a, &b);
        prop_assert!(d as usize >= a.len().abs_diff(b.len()));
        prop_assert!(d as usize <= a.len().max(b.len()));
    }

    #[test]
    fn hamming_upper_bounds_edit_distance(a in dna(120), b in dna(120)) {
        if a.len() == b.len() {
            let mismatches = a.iter().zip(&b).filter(|(x, y)| x != y).count();
            prop_assert!(edit_distance(&a, &b) as usize <= mismatches);
        }
    }

    #[test]
    fn banded_agrees_with_full_dp(a in dna(300), b in dna(300), k in 0u32..20) {
        let full = levenshtein(&a, &b);
        match banded_levenshtein(&a, &b, k) {
            Some(d) => {
                prop_assert_eq!(d, full);
                prop_assert!(d <= k);
            }
            None => prop_assert!(full > k),
        }
    }

    #[test]
    fn banded_with_exact_threshold_is_some(a in dna(100), b in dna(100)) {
        let full = levenshtein(&a, &b);
        prop_assert_eq!(banded_levenshtein(&a, &b, full), Some(full));
    }

    #[test]
    fn identity_has_zero_distance(a in dna(250)) {
        prop_assert_eq!(edit_distance(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(banded_levenshtein(&a, &a, 0), Some(0));
    }

    #[test]
    fn triangle_inequality(a in dna(60), b in dna(60), c in dna(60)) {
        prop_assert!(edit_distance(&a, &c) <= edit_distance(&a, &b) + edit_distance(&b, &c));
    }
}
