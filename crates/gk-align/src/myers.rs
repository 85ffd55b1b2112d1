//! Myers' bit-vector edit distance: the algorithm behind Edlib, and the mapper's
//! verifier.
//!
//! The paper uses Edlib's *global* alignment mode as the accuracy ground truth
//! (§2.3, §4.4). Edlib is an implementation of Myers' 1999 bit-parallel algorithm
//! with Hyyrö's block extension for patterns longer than the machine word. This
//! module re-implements that algorithm as one column loop over `u128` words, with
//! two ways to hold the pattern's match masks:
//!
//! * a pattern of at most 128 bases is one word, and its masks live on the stack;
//! * a longer pattern (the paper's reads run to 300 bp) is split into
//!   [`PatternBlocks`], one word per 128 bases.
//!
//! [`bounded_edit_distance`] takes an error bound and stops as soon as the distance
//! can no longer be within it; the mapper verifies its candidates this way,
//! through [`crate::dp::banded_levenshtein`].
//! [`edit_distance`] is the same call without a bound. Both compute the exact
//! global (Levenshtein) distance in `O(⌈m/128⌉ · n)` word operations, and both are
//! tested against the plain DP in [`crate::dp`].

type Word = u128;
const WORD_BITS: usize = Word::BITS as usize;

/// Per-byte match masks of a pattern in 128-base blocks (the `Peq` table of Myers'
/// algorithm): the storage for patterns longer than one word.
#[derive(Debug, Clone)]
pub struct PatternBlocks {
    /// `peq[block][byte]`: bit `i` set iff `pattern[block * 128 + i] == byte`.
    peq: Vec<[Word; 256]>,
    len: usize,
}

impl PatternBlocks {
    /// Preprocesses a pattern into per-block match masks.
    pub fn new(pattern: &[u8]) -> PatternBlocks {
        let mut peq = vec![[0; 256]; pattern.len().div_ceil(WORD_BITS)];
        for (i, &ch) in pattern.iter().enumerate() {
            peq[i / WORD_BITS][usize::from(ch)] |= 1 << (i % WORD_BITS);
        }
        PatternBlocks {
            peq,
            len: pattern.len(),
        }
    }

    /// Pattern length in bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the pattern is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Global edit distance between the pattern and `text` if it is at most `k`,
    /// otherwise `None`, with the cut-off of [`bounded_edit_distance`].
    pub fn distance(&self, text: &[u8], k: u32) -> Option<u32> {
        if self.len == 0 {
            return within(text.len() as i64, k);
        }
        let mut pv = vec![Word::MAX; self.peq.len()];
        let mut mv = vec![0; self.peq.len()];
        bounded_columns(self.len, text, k, |ch| {
            // The first row of a global alignment is 0, 1, 2, …, so +1 enters block 0.
            let mut hin = 1;
            let mut deltas = (0, 0);
            for ((peq, pv), mv) in self.peq.iter().zip(&mut pv).zip(&mut mv) {
                let (ph, mh);
                (*pv, *mv, ph, mh) = advance_block(peq[usize::from(ch)], *pv, *mv, hin);
                hin = delta_at(ph, mh, 1 << (WORD_BITS - 1));
                deltas = (ph, mh);
            }
            deltas
        })
    }
}

/// One column step of a block (Hyyrö's `advance_block`, as in Edlib): `eq` is the
/// block's match mask for the text byte and `hin` the horizontal delta entering
/// its first row. Returns the new vertical deltas `(pv, mv)` and the horizontal
/// deltas `(ph, mh)` before the shift, so the caller can read the delta at any row.
#[inline(always)]
fn advance_block(eq: Word, pv: Word, mv: Word, hin: i32) -> (Word, Word, Word, Word) {
    let xv = eq | mv;
    let eq = eq | Word::from(hin < 0);
    let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
    let ph = mv | !(xh | pv);
    let mh = pv & xh;
    let ph_in = (ph << 1) | Word::from(hin > 0);
    let mh_in = (mh << 1) | Word::from(hin < 0);
    (mh_in | !(xv | ph_in), ph_in & xv, ph, mh)
}

/// The horizontal delta (+1, −1 or 0) at the row whose bit is `row`.
#[inline(always)]
fn delta_at(ph: Word, mh: Word, row: Word) -> i32 {
    i32::from(ph & row != 0) - i32::from(mh & row != 0)
}

/// The column loop both storage sizes share, with the cut-off. `column(ch)`
/// advances the pattern's blocks by text byte `ch` and returns the horizontal
/// deltas `(ph, mh)` of the block that holds the last of the `m ≥ 1` pattern
/// rows. The loop tracks that row's score, which is the distance at the end.
#[inline(always)]
fn bounded_columns(
    m: usize,
    text: &[u8],
    k: u32,
    mut column: impl FnMut(u8) -> (Word, Word),
) -> Option<u32> {
    let last_row: Word = 1 << ((m - 1) % WORD_BITS);
    let mut score = m as i64;
    let mut columns_left = text.len() as i64;
    for &ch in text {
        let (ph, mh) = column(ch);
        score += i64::from(delta_at(ph, mh, last_row));
        columns_left -= 1;
        // Each column left can lower the last-row score by at most one.
        if score - columns_left > i64::from(k) {
            return None;
        }
    }
    within(score, k)
}

/// `Some(distance)` exactly when it is at most `k`.
fn within(distance: i64, k: u32) -> Option<u32> {
    (distance <= i64::from(k)).then_some(distance as u32)
}

/// Global (Levenshtein) edit distance between two sequences if it is at most `k`,
/// otherwise `None`, by Myers' bit-vector algorithm with a cut-off: it returns
/// `None` as soon as the distance can no longer be within `k`.
///
/// Bytes compare as they are (`N` matches `N`; case matters). The shorter
/// sequence, or `a` when the lengths tie, is the pattern. Up to 128 bases it is
/// one word whose masks live on the stack, so the call allocates nothing; a longer
/// pattern goes through [`PatternBlocks`].
pub fn bounded_edit_distance(a: &[u8], b: &[u8], k: u32) -> Option<u32> {
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if text.len() - pattern.len() > k as usize {
        return None;
    }
    if !(1..=WORD_BITS).contains(&pattern.len()) {
        return PatternBlocks::new(pattern).distance(text, k);
    }
    let mut peq = [0; 256];
    for (i, &ch) in pattern.iter().enumerate() {
        peq[usize::from(ch)] |= 1 << i;
    }
    let (mut pv, mut mv) = (Word::MAX, 0);
    bounded_columns(pattern.len(), text, k, |ch| {
        let (ph, mh);
        (pv, mv, ph, mh) = advance_block(peq[usize::from(ch)], pv, mv, 1);
        (ph, mh)
    })
}

/// Global (Levenshtein) edit distance between two sequences by Myers' bit-vector
/// algorithm: [`bounded_edit_distance`] without a bound (a distance beyond
/// `u32::MAX` saturates). This is the Edlib-equivalent entry point used as ground
/// truth throughout the reproduction.
pub fn edit_distance(a: &[u8], b: &[u8]) -> u32 {
    bounded_edit_distance(a, b, u32::MAX).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{banded_levenshtein, levenshtein};

    #[test]
    fn matches_dp_on_small_cases() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"", b""),
            (b"A", b""),
            (b"", b"ACGT"),
            (b"ACGT", b"ACGT"),
            (b"ACGT", b"AGGT"),
            (b"ACGT", b"ACGGT"),
            (b"ACGT", b"AGT"),
            (b"kitten", b"sitting"),
            (b"GATTACA", b"TACTAGATTACA"),
            (b"AAAA", b"TTTT"),
        ];
        for (a, b) in cases {
            assert_eq!(
                edit_distance(a, b),
                levenshtein(a, b),
                "case {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn single_word_kernel_matches_dp() {
        let a = b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"; // 61
        let b = b"ACGTACGTACGTTCGTACGTACGTACGAACGTACGTACGTACGTACGGACGTACGTACGT";
        let full = levenshtein(a, b);
        assert_eq!(edit_distance(a, b), full);
        assert_eq!(bounded_edit_distance(a, b, full), Some(full));
        assert_eq!(bounded_edit_distance(a, b, full - 1), None);
    }

    #[test]
    fn block_kernel_handles_100bp_reads() {
        // 100 bp with a few planted edits, like the paper's primary read length.
        let a: Vec<u8> = (0..100).map(|i| b"ACGT"[i % 4]).collect();
        let mut b = a.clone();
        b[10] = b'T';
        b[55] = b'A';
        b.remove(80);
        b.push(b'G');
        assert_eq!(edit_distance(&a, &b), levenshtein(&a, &b));
    }

    #[test]
    fn block_kernel_handles_exact_multiples_of_64() {
        // 128 bases fill the word; 256 fill two blocks.
        for len in [128usize, 256] {
            let a: Vec<u8> = (0..len).map(|i| b"ACGT"[(i * 7) % 4]).collect();
            let mut b = a.clone();
            b[0] = if b[0] == b'A' { b'C' } else { b'A' };
            b[len - 1] = if b[len - 1] == b'G' { b'T' } else { b'G' };
            assert_eq!(edit_distance(&a, &b), levenshtein(&a, &b));
            assert_eq!(edit_distance(&a, &a), 0);
        }
    }

    #[test]
    fn block_kernel_handles_250_and_300bp_reads() {
        for len in [250usize, 300] {
            let a: Vec<u8> = (0..len).map(|i| b"ACGT"[(i * 13 + 1) % 4]).collect();
            let mut b = a.clone();
            for pos in (0..len).step_by(37) {
                b[pos] = b"ACGT"[(pos + 2) % 4];
            }
            b.drain(100..103);
            assert_eq!(edit_distance(&a, &b), levenshtein(&a, &b));
        }
    }

    #[test]
    fn completely_different_sequences() {
        let a = vec![b'A'; 200];
        let b = vec![b'T'; 200];
        assert_eq!(edit_distance(&a, &b), 200);
    }

    #[test]
    fn distance_is_symmetric() {
        let a: Vec<u8> = (0..150).map(|i| b"ACGT"[(i * 3) % 4]).collect();
        let b: Vec<u8> = (0..140).map(|i| b"ACGT"[(i * 5 + 1) % 4]).collect();
        assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
    }

    #[test]
    fn pattern_blocks_reuse_across_texts() {
        let pattern: Vec<u8> = (0..150).map(|i| b"ACGT"[(i * 11) % 4]).collect();
        let blocks = PatternBlocks::new(&pattern);
        assert_eq!(blocks.len(), 150);
        for shift in 0..4 {
            let text: Vec<u8> = (0..150).map(|i| b"ACGT"[(i * 11 + shift) % 4]).collect();
            let full = levenshtein(&pattern, &text);
            assert_eq!(blocks.distance(&text, u32::MAX), Some(full));
            assert_eq!(blocks.distance(&text, full), Some(full));
            if full > 0 {
                assert_eq!(blocks.distance(&text, full - 1), None);
            }
        }
    }

    #[test]
    fn empty_pattern_blocks() {
        let blocks = PatternBlocks::new(b"");
        assert!(blocks.is_empty());
        assert_eq!(blocks.distance(b"ACGT", u32::MAX), Some(4));
        assert_eq!(blocks.distance(b"ACGT", 3), None);
    }

    /// A small xorshift generator, so the differential test below is seeded and
    /// replayable without a dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        /// A sequence over `ACGT` with `N` and lowercase bytes mixed in.
        fn sequence(&mut self, len: usize) -> Vec<u8> {
            const BYTES: &[u8] = b"ACGTACGTACGTACGTNacgtn";
            (0..len).map(|_| BYTES[self.below(BYTES.len())]).collect()
        }

        /// `a` with `edits` random edits, then resized to `len` by random
        /// insertions or deletions.
        fn edited(&mut self, a: &[u8], edits: usize, len: usize) -> Vec<u8> {
            let mut b = a.to_vec();
            for _ in 0..edits {
                let byte = self.sequence(1)[0];
                match (self.below(3), b.len()) {
                    (_, 0) | (0, _) => b.insert(self.below(b.len() + 1), byte),
                    (1, n) => b[self.below(n)] = byte,
                    (_, n) => {
                        b.remove(self.below(n));
                    }
                }
            }
            while b.len() < len {
                let byte = self.sequence(1)[0];
                b.insert(self.below(b.len() + 1), byte);
            }
            while b.len() > len {
                b.remove(self.below(b.len()));
            }
            b
        }
    }

    #[test]
    fn bounded_kernel_matches_dp_at_every_word_edge() {
        const LENGTHS: [usize; 10] = [0, 1, 63, 64, 65, 100, 127, 128, 129, 250];
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut cut_off = 0;
        for la in LENGTHS {
            for lb in LENGTHS {
                let a = rng.sequence(la);
                // Unrelated, lightly edited and heavily edited partners; the
                // lengths of each pair differ by anything from 0 to 250.
                for edits in [None, Some(2), Some(9)] {
                    let b = match edits {
                        None => rng.sequence(lb),
                        Some(edits) => rng.edited(&a, edits, lb),
                    };
                    let d = levenshtein(&a, &b);
                    let longest = la.max(lb) as u32;
                    let small = rng.below(8) as u32;
                    for k in [
                        0,
                        small,
                        d.saturating_sub(1),
                        d,
                        longest,
                        longest + 1,
                        u32::MAX,
                    ] {
                        let expected = (d <= k).then_some(d);
                        for (x, y) in [(&a, &b), (&b, &a)] {
                            assert_eq!(
                                banded_levenshtein(x, y, k),
                                expected,
                                "{la} vs {lb} bp, k = {k}, distance {d}"
                            );
                            assert_eq!(edit_distance(x, y), d);
                        }
                        cut_off += usize::from(expected.is_none() && la.abs_diff(lb) <= k as usize);
                    }
                }
            }
        }
        // The bound rejected pairs whose lengths alone did not rule them out.
        assert!(cut_off > 100, "only {cut_off} pairs reached the cut-off");
    }
}
