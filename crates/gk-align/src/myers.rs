//! Myers' bit-vector edit distance — the algorithm behind Edlib.
//!
//! The paper uses Edlib's *global* alignment mode as the accuracy ground truth
//! (§2.3, §4.4). Edlib is an implementation of Myers' 1999 bit-parallel algorithm
//! with Hyyrö's block extension for patterns longer than the machine word. This
//! module re-implements that algorithm:
//!
//! * `edit_distance_64` — single-word kernel for patterns of at most 64 bases;
//! * [`edit_distance`] — block-based kernel for arbitrary pattern lengths (reads in
//!   the paper are 50–300 bp, i.e. up to five 64-base blocks), which hands
//!   patterns of at most 64 bases to the single-word kernel.
//!
//! Both compute the exact global (Needleman-Wunsch / Levenshtein) distance in
//! `O(⌈m/64⌉ · n)` word operations, and both are property-tested against the plain
//! DP in [`crate::dp`].

const WORD_BITS: usize = 64;

/// Per-character match masks for a pattern (the `Peq` table of Myers' algorithm).
///
/// Building the table once and reusing it across many texts is how Edlib (and the
/// verification stage of a mapper) amortises preprocessing; [`PatternBlocks::distance`]
/// runs the column loop only.
#[derive(Debug, Clone)]
pub struct PatternBlocks {
    /// `peq[block][byte]`: bit `i` set iff `pattern[block*64 + i] == byte`.
    peq: Vec<[u64; 256]>,
    len: usize,
}

impl PatternBlocks {
    /// Preprocesses a pattern into per-block match masks.
    pub fn new(pattern: &[u8]) -> PatternBlocks {
        let blocks = pattern.len().div_ceil(WORD_BITS).max(1);
        let mut peq = vec![[0u64; 256]; blocks];
        for (i, &ch) in pattern.iter().enumerate() {
            peq[i / WORD_BITS][ch as usize] |= 1u64 << (i % WORD_BITS);
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

    /// Global edit distance between the preprocessed pattern and `text`.
    pub fn distance(&self, text: &[u8]) -> u32 {
        if self.len == 0 {
            return text.len() as u32;
        }
        if text.is_empty() {
            return self.len as u32;
        }
        let blocks = self.peq.len();
        let mut pv = vec![u64::MAX; blocks];
        let mut mv = vec![0u64; blocks];
        // Score is tracked at the last pattern row.
        let mut score = self.len as u32;
        let last_block = (self.len - 1) / WORD_BITS;
        let last_bit = 1u64 << ((self.len - 1) % WORD_BITS);

        for &ch in text {
            // Horizontal input into the bottom row of block 0 is +1: the first DP
            // row of a *global* alignment is 0,1,2,…
            let mut hin: i32 = 1;
            for b in 0..=last_block {
                let eq = self.peq[b][ch as usize];
                let (new_pv, new_mv, hout, ph, mh) = advance_block(eq, pv[b], mv[b], hin);
                pv[b] = new_pv;
                mv[b] = new_mv;
                if b == last_block {
                    if ph & last_bit != 0 {
                        score += 1;
                    } else if mh & last_bit != 0 {
                        score -= 1;
                    }
                }
                hin = hout;
            }
        }
        score
    }
}

/// One column step of a 64-row block (Hyyrö's `advance_block`, as used in Edlib).
///
/// Returns `(pv, mv, hout, ph, mh)` where `ph`/`mh` are the *pre-shift* horizontal
/// delta vectors so the caller can read the delta at an arbitrary row (needed when
/// the pattern does not fill the top block).
#[inline]
fn advance_block(eq: u64, pv: u64, mv: u64, hin: i32) -> (u64, u64, i32, u64, u64) {
    let mut eq = eq;
    let xv = eq | mv;
    if hin < 0 {
        eq |= 1;
    }
    let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
    let ph = mv | !(xh | pv);
    let mh = pv & xh;

    let mut hout = 0i32;
    if ph & (1u64 << 63) != 0 {
        hout = 1;
    } else if mh & (1u64 << 63) != 0 {
        hout = -1;
    }

    let mut ph_shift = ph << 1;
    let mut mh_shift = mh << 1;
    if hin < 0 {
        mh_shift |= 1;
    } else if hin > 0 {
        ph_shift |= 1;
    }

    let new_pv = mh_shift | !(xv | ph_shift);
    let new_mv = ph_shift & xv;
    (new_pv, new_mv, hout, ph, mh)
}

/// Global edit distance with the single-word Myers kernel.
///
/// # Panics
/// Panics if `pattern.len() > 64`; use [`edit_distance`] for longer patterns.
fn edit_distance_64(pattern: &[u8], text: &[u8]) -> u32 {
    assert!(
        pattern.len() <= WORD_BITS,
        "pattern of {} bases exceeds the 64-base single-word kernel",
        pattern.len()
    );
    if pattern.is_empty() {
        return text.len() as u32;
    }
    if text.is_empty() {
        return pattern.len() as u32;
    }
    let mut peq = [0u64; 256];
    for (i, &ch) in pattern.iter().enumerate() {
        peq[ch as usize] |= 1u64 << i;
    }
    let m = pattern.len();
    let last = 1u64 << (m - 1);
    let mut pv = u64::MAX;
    let mut mv = 0u64;
    let mut score = m as u32;
    for &ch in text {
        let eq = peq[ch as usize];
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & last != 0 {
            score += 1;
        } else if mh & last != 0 {
            score -= 1;
        }
        // Horizontal input at row 0 is +1 for global alignment.
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

/// Global (Levenshtein) edit distance between two sequences using Myers' bit-vector
/// algorithm, with block extension for patterns longer than 64 bases. This is the
/// Edlib-equivalent entry point used as ground truth throughout the reproduction.
pub fn edit_distance(a: &[u8], b: &[u8]) -> u32 {
    // The shorter sequence becomes the (vertical) pattern to minimise block count.
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if pattern.len() <= WORD_BITS {
        edit_distance_64(pattern, text)
    } else {
        PatternBlocks::new(pattern).distance(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::levenshtein;

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
        assert_eq!(edit_distance_64(a, b), levenshtein(a, b));
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-base")]
    fn single_word_kernel_rejects_long_patterns() {
        let long = vec![b'A'; 65];
        edit_distance_64(&long, b"ACGT");
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
        let a: Vec<u8> = (0..128).map(|i| b"ACGT"[(i * 7) % 4]).collect();
        let mut b = a.clone();
        b[0] = if b[0] == b'A' { b'C' } else { b'A' };
        b[127] = if b[127] == b'G' { b'T' } else { b'G' };
        assert_eq!(edit_distance(&a, &b), levenshtein(&a, &b));
        assert_eq!(edit_distance(&a, &a), 0);
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
            assert_eq!(blocks.distance(&text), levenshtein(&pattern, &text));
        }
    }

    #[test]
    fn empty_pattern_blocks() {
        let blocks = PatternBlocks::new(b"");
        assert!(blocks.is_empty());
        assert_eq!(blocks.distance(b"ACGT"), 4);
    }
}
