//! Dynamic-programming edit distance.
//!
//! The quadratic-time Levenshtein distance is one of the "traditional practices"
//! the paper sets out to avoid calling too often (§1). Here it is the reference
//! against which the Myers bit-vector kernel ([`crate::myers`]) is tested, both
//! unbounded and bounded. The mapper's verifier, [`banded_levenshtein`], is named
//! here but runs that kernel.

/// Full `O(n·m)` Levenshtein (unit-cost edit) distance between two sequences.
///
/// Uses two rolling rows so memory stays `O(min(n, m))`.
pub fn levenshtein(a: &[u8], b: &[u8]) -> u32 {
    // Keep the shorter sequence as the row to minimise memory.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len() as u32;
    }
    let mut prev: Vec<u32> = (0..=short.len() as u32).collect();
    let mut curr: Vec<u32> = vec![0; short.len() + 1];
    for (i, &cb) in long.iter().enumerate() {
        curr[0] = i as u32 + 1;
        for (j, &ca) in short.iter().enumerate() {
            let cost = u32::from(ca != cb);
            curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[short.len()]
}

/// The mapper's verification kernel: the edit distance of `a` and `b` if it is
/// at most the threshold, otherwise `None`. It is
/// [`crate::myers::bounded_edit_distance`], Myers' bit-vector algorithm with a
/// cut-off at the threshold, under the name the mapper and the benchmark call.
pub use crate::myers::bounded_edit_distance as banded_levenshtein;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_have_zero_distance() {
        assert_eq!(levenshtein(b"ACGTACGT", b"ACGTACGT"), 0);
        assert_eq!(banded_levenshtein(b"ACGTACGT", b"ACGTACGT", 0), Some(0));
    }

    #[test]
    fn single_edit_kinds() {
        assert_eq!(levenshtein(b"ACGT", b"AGGT"), 1); // substitution
        assert_eq!(levenshtein(b"ACGT", b"ACGGT"), 1); // insertion
        assert_eq!(levenshtein(b"ACGT", b"AGT"), 1); // deletion
    }

    #[test]
    fn empty_sequences() {
        assert_eq!(levenshtein(b"", b""), 0);
        assert_eq!(levenshtein(b"", b"ACGT"), 4);
        assert_eq!(levenshtein(b"ACGT", b""), 4);
        assert_eq!(banded_levenshtein(b"", b"AC", 2), Some(2));
        assert_eq!(banded_levenshtein(b"", b"AC", 1), None);
    }

    #[test]
    fn classic_textbook_example() {
        assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
        assert_eq!(banded_levenshtein(b"kitten", b"sitting", 3), Some(3));
        assert_eq!(banded_levenshtein(b"kitten", b"sitting", 2), None);
    }

    #[test]
    fn distance_is_symmetric() {
        let pairs: &[(&[u8], &[u8])] = &[
            (b"ACGTACGTAC", b"ACGTTCGTAC"),
            (b"AAAA", b"TTTT"),
            (b"ACGT", b"ACG"),
            (b"GATTACA", b"TACTAGATTACA"),
        ];
        for (a, b) in pairs {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
        }
    }

    #[test]
    fn banded_matches_full_when_within_threshold() {
        let a = b"ACGTACGTACGTACGTACGTACGT";
        let b = b"ACGTACCTACGTACGAACGTACGT";
        let full = levenshtein(a, b);
        assert_eq!(banded_levenshtein(a, b, full), Some(full));
        assert_eq!(banded_levenshtein(a, b, full + 3), Some(full));
    }

    #[test]
    fn banded_rejects_above_threshold() {
        let a = b"AAAAAAAAAA";
        let b = b"TTTTTTTTTT";
        assert_eq!(levenshtein(a, b), 10);
        assert_eq!(banded_levenshtein(a, b, 5), None);
        assert_eq!(banded_levenshtein(a, b, 10), Some(10));
    }

    #[test]
    fn banded_length_difference_short_circuit() {
        assert_eq!(banded_levenshtein(b"ACGTACGTACGT", b"AC", 3), None);
    }

    #[test]
    fn triangle_inequality_on_samples() {
        let seqs: Vec<&[u8]> = vec![b"ACGTACGT", b"ACGTTCGT", b"TTTTACGT", b"ACG"];
        for a in &seqs {
            for b in &seqs {
                for c in &seqs {
                    assert!(levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c));
                }
            }
        }
    }
}
