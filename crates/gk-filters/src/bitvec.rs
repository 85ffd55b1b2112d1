//! Per-base bitmasks — the Hamming / shifted / amended masks of GateKeeper.
//!
//! After the 2-bit XOR between read and reference, GateKeeper OR-combines the two
//! bits of every base "to simplify the differences on individual bitvectors and
//! reduce resource usage" (§2.1). The result is a mask with **one bit per base**:
//! `1` marks a mismatching base, `0` a matching one. [`BaseMask`] is that mask,
//! together with the operations the filtering pipeline needs:
//!
//! * bitwise AND/OR across masks (the final `2e + 1`-way AND),
//! * the *amendment* pass that turns short streaks of `0`s into `1`s so that
//!   meaningless 1–2 base random matches cannot hide errors during the AND,
//! * setting leading/trailing ranges to `1` (the GateKeeper-GPU boundary fix), and
//! * the two edit-counting schemes (distinct 1-runs, as the SHD/GateKeeper
//!   hardware effectively counts, or raw popcount for ablation).
//!
//! [`BaseMask`] is the mask type of the per-bit reference kernels: its
//! `*_reference` walks are per-bit loops, the oracle the differential property
//! suite checks the lane kernels against and the runtime scalar path
//! (`GK_SIMD=scalar`). The lane kernels keep their masks in `[u64; 4]` rows
//! (see `simd`) and share only two whole-word walks from here —
//! [`count_edits_windowed_in_words`] and [`zero_runs_in_words`] — each
//! differentially tested against its per-bit twin.
//!
//! Invariant: the bits beyond `len` in the last storage word are always zero
//! (every constructor and mutator restores this), so the word-level walks can
//! trust the padding.

use serde::{Deserialize, Serialize};
use std::fmt;

const WORD_BITS: usize = 64;

/// Windowed edit count across LSB-first words with clean padding: every
/// maximal streak of `L` ones contributes `⌈L / window⌉`. Scans streak by
/// streak with `trailing_zeros`/`trailing_ones`, carrying runs across word
/// boundaries, so the cost scales with the number of runs, not the length.
/// The lane kernels' counting epilogue; its per-bit twin is
/// [`BaseMask::count_edits_windowed_reference`].
pub fn count_edits_windowed_in_words(words: &[u64], window: usize) -> u32 {
    let window = window.max(1);
    let mut edits = 0u32;
    let mut run = 0usize; // length of the streak continuing from the last word
    for &word in words {
        let mut w = word;
        let mut bits_left = WORD_BITS;
        while bits_left > 0 {
            if w & 1 == 0 {
                if run > 0 {
                    edits += run.div_ceil(window) as u32;
                    run = 0;
                }
                let zeros = (w.trailing_zeros() as usize).min(bits_left);
                w = w.checked_shr(zeros as u32).unwrap_or(0);
                bits_left -= zeros;
            } else {
                let ones = (w.trailing_ones() as usize).min(bits_left);
                run += ones;
                w = w.checked_shr(ones as u32).unwrap_or(0);
                bits_left -= ones;
            }
        }
    }
    if run > 0 {
        edits += run.div_ceil(window) as u32;
    }
    edits
}

/// Longest run of consecutive 0 bits within `[start, end)` of LSB-first
/// words, one bit at a time; returns `(run_start, run_len)` or `None` if
/// every bit is 1. The strict `>` comparison keeps the leftmost run on equal
/// lengths — MAGNET's tie-break.
fn longest_zero_run_in_words_reference(
    words: &[u64],
    start: usize,
    end: usize,
) -> Option<(usize, usize)> {
    let end = end.min(words.len() * WORD_BITS);
    let get = |i: usize| words[i / WORD_BITS] >> (i % WORD_BITS) & 1 != 0;
    let mut best: Option<(usize, usize)> = None;
    let mut i = start;
    while i < end {
        if !get(i) {
            let run_start = i;
            while i < end && !get(i) {
                i += 1;
            }
            let run_len = i - run_start;
            if best.map(|(_, l)| run_len > l).unwrap_or(true) {
                best = Some((run_start, run_len));
            }
        } else {
            i += 1;
        }
    }
    best
}

/// Length of the run of consecutive 0 bits starting exactly at `pos`, bounded
/// by `end` — equivalently, the distance from `pos` to the next 1 bit — one
/// bit at a time. SneakySnake's per-bit free-run probe.
pub fn zero_run_length_in_words_reference(words: &[u64], pos: usize, end: usize) -> usize {
    let end = end.min(words.len() * WORD_BITS);
    let mut i = pos;
    while i < end && words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 0 {
        i += 1;
    }
    i - pos.min(i)
}

/// Appends every maximal zero run within `[0, len)` of LSB-first words to
/// `out`, in position order, as `(start, len)` pairs.
///
/// MAGNET's extraction loop re-queries overlapping sub-intervals of the same
/// masks every round, so the kernel collects each mask's runs once with this
/// word-parallel walk and answers the queries from the run list instead of
/// re-walking mask bits.
pub fn zero_runs_in_words(words: &[u64], len: usize, out: &mut Vec<(u32, u32)>) {
    let end = len.min(words.len() * WORD_BITS);
    let mut i = 0usize;
    while i < end {
        let chunk = words[i / WORD_BITS] >> (i % WORD_BITS);
        let ones = chunk.trailing_ones() as usize;
        if ones > 0 {
            i += ones.min(WORD_BITS - i % WORD_BITS);
            continue;
        }
        let run_start = i;
        loop {
            if i >= end {
                break;
            }
            let chunk = words[i / WORD_BITS] >> (i % WORD_BITS);
            if chunk == 0 {
                i = (i / WORD_BITS + 1) * WORD_BITS;
            } else {
                i += chunk.trailing_zeros() as usize;
                break;
            }
        }
        out.push((run_start as u32, (i.min(end) - run_start) as u32));
    }
}

/// Per-bit reference for [`zero_runs_in_words`].
pub fn zero_runs_in_words_reference(words: &[u64], len: usize, out: &mut Vec<(u32, u32)>) {
    let end = len.min(words.len() * WORD_BITS);
    let get = |i: usize| words[i / WORD_BITS] >> (i % WORD_BITS) & 1 != 0;
    let mut i = 0usize;
    while i < end {
        if get(i) {
            i += 1;
            continue;
        }
        let run_start = i;
        while i < end && !get(i) {
            i += 1;
        }
        out.push((run_start as u32, (i - run_start) as u32));
    }
}

/// A bitmask over base positions (bit `i` describes base `i`; LSB-first layout).
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaseMask {
    bits: Vec<u64>,
    len: usize,
}

impl BaseMask {
    /// All-zero mask over `len` bases.
    pub fn zeros(len: usize) -> BaseMask {
        BaseMask {
            bits: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// All-one mask over `len` bases.
    pub fn ones(len: usize) -> BaseMask {
        let mut mask = BaseMask::zeros(len);
        for i in 0..mask.bits.len() {
            mask.bits[i] = u64::MAX;
        }
        mask.clear_padding();
        mask
    }

    /// Builds a mask from an iterator of booleans (`true` = 1).
    pub fn from_bools(values: impl IntoIterator<Item = bool>) -> BaseMask {
        let values: Vec<bool> = values.into_iter().collect();
        let mut mask = BaseMask::zeros(values.len());
        for (i, v) in values.iter().enumerate() {
            if *v {
                mask.set(i);
            }
        }
        mask
    }

    /// Builds a mask over `len` bases directly from LSB-first 64-bit words
    /// (bit `i` of the mask is bit `i % 64` of word `i / 64`). The word vector
    /// is resized to the exact storage size and any bits beyond `len` are
    /// cleared, so callers may hand over scratch words with dirty padding.
    pub fn from_words(mut bits: Vec<u64>, len: usize) -> BaseMask {
        bits.resize(len.div_ceil(WORD_BITS), 0);
        let mut mask = BaseMask { bits, len };
        mask.clear_padding();
        mask
    }

    /// The underlying LSB-first storage words (padding bits beyond
    /// [`BaseMask::len`] are guaranteed zero).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Number of base positions covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers no positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i` to 1.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.bits[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.bits[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Sets every bit in `[start, end)` to 1 (clamped to the mask length).
    /// Word-parallel: whole-word masks instead of a per-bit loop.
    pub fn set_range(&mut self, start: usize, end: usize) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        let first = start / WORD_BITS;
        let last = (end - 1) / WORD_BITS;
        let head = u64::MAX << (start % WORD_BITS);
        let tail = u64::MAX >> (WORD_BITS - 1 - (end - 1) % WORD_BITS);
        if first == last {
            self.bits[first] |= head & tail;
        } else {
            self.bits[first] |= head;
            for w in &mut self.bits[first + 1..last] {
                *w = u64::MAX;
            }
            self.bits[last] |= tail;
        }
    }

    /// Per-bit reference implementation of [`BaseMask::set_range`] (the
    /// runtime scalar fallback and differential-test oracle).
    pub fn set_range_reference(&mut self, start: usize, end: usize) {
        let end = end.min(self.len);
        for i in start..end {
            self.set(i);
        }
    }

    /// In-place AND with another mask of the same length.
    pub fn and_assign(&mut self, other: &BaseMask) {
        assert_eq!(self.len, other.len, "mask length mismatch in AND");
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a &= b;
        }
    }

    /// Number of 1 bits.
    pub fn count_ones(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Number of maximal runs of consecutive 1 bits, counted bit by bit.
    pub fn count_runs_reference(&self) -> u32 {
        let mut runs = 0u32;
        let mut in_run = false;
        for i in 0..self.len {
            if self.get(i) {
                if !in_run {
                    runs += 1;
                    in_run = true;
                }
            } else {
                in_run = false;
            }
        }
        runs
    }

    /// Windowed edit counting over the final bitvector, bit by bit: every
    /// maximal streak of 1s of length `L` contributes `⌈L / window⌉` edits.
    ///
    /// This models the window/LUT error counting of the GateKeeper hardware (§2.1:
    /// "the errors are counted by following a window approach with a look-up
    /// table"). With `window = amendment length + 1` a cluster of `d` true edits
    /// whose separating matches were flipped by the amendment pass produces a streak
    /// of at most `window·d - 2` bits and is therefore never counted as more than
    /// `d` edits — the property behind the paper's zero-false-reject observation —
    /// while a fully mismatching pair still counts ~`len / window` edits and is
    /// rejected. `window = 1` degenerates to a plain popcount.
    pub fn count_edits_windowed_reference(&self, window: usize) -> u32 {
        let window = window.max(1);
        let mut edits = 0u32;
        let mut i = 0usize;
        while i < self.len {
            if self.get(i) {
                let start = i;
                while i < self.len && self.get(i) {
                    i += 1;
                }
                let run = i - start;
                edits += run.div_ceil(window) as u32;
            } else {
                i += 1;
            }
        }
        edits
    }

    /// Amendment pass: flips every maximal run of `0`s of length at most
    /// `max_run` that is flanked by `1`s on both sides (§2.1: "the bitvectors are
    /// amended before AND to turn short streaks of 0s into 1s considering these 0s
    /// are useless and do not represent an informative part").
    ///
    /// Bit by bit; the lane kernels run the same flip as a morphological
    /// closing over their mask rows.
    pub fn amend_short_zero_runs_reference(&mut self, max_run: usize) {
        if self.len == 0 || max_run == 0 {
            return;
        }
        let mut i = 0usize;
        while i < self.len {
            if !self.get(i) {
                let start = i;
                while i < self.len && !self.get(i) {
                    i += 1;
                }
                let end = i; // [start, end) is a zero run
                let flanked_left = start > 0;
                let flanked_right = end < self.len;
                if end - start <= max_run && flanked_left && flanked_right {
                    for j in start..end {
                        self.set(j);
                    }
                }
            } else {
                i += 1;
            }
        }
    }

    /// Longest run of consecutive 0 bits within `[start, end)`, bit by bit;
    /// returns `(run_start, run_len)` or `None` if every bit is 1. The
    /// leftmost run wins ties.
    pub fn longest_zero_run_in_reference(
        &self,
        start: usize,
        end: usize,
    ) -> Option<(usize, usize)> {
        longest_zero_run_in_words_reference(&self.bits, start, end.min(self.len))
    }

    fn clear_padding(&mut self) {
        let used = self.len % WORD_BITS;
        if used != 0 {
            if let Some(last) = self.bits.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
        if self.len == 0 {
            self.bits.clear();
        }
    }
}

impl fmt::Debug for BaseMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered: String = (0..self.len.min(128))
            .map(|i| if self.get(i) { '1' } else { '0' })
            .collect();
        write!(f, "BaseMask(len={}, {})", self.len, rendered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_have_expected_counts() {
        assert_eq!(BaseMask::zeros(100).count_ones(), 0);
        assert_eq!(BaseMask::ones(100).count_ones(), 100);
        assert_eq!(BaseMask::ones(64).count_ones(), 64);
        assert_eq!(BaseMask::ones(65).count_ones(), 65);
    }

    #[test]
    fn set_get_clear() {
        let mut m = BaseMask::zeros(70);
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(69);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(69));
        assert!(!m.get(1) && !m.get(65));
        m.clear(64);
        assert!(!m.get(64));
        assert_eq!(m.count_ones(), 3);
    }

    #[test]
    fn from_bools_round_trips() {
        let pattern = [true, false, true, true, false, false, true];
        let m = BaseMask::from_bools(pattern);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(m.get(i), b);
        }
        assert_eq!(m.count_ones(), 4);
    }

    #[test]
    fn and_or_assign() {
        let a = BaseMask::from_bools([true, true, false, false]);
        let b = BaseMask::from_bools([true, false, true, false]);
        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(and, BaseMask::from_bools([true, false, false, false]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_with_mismatched_length_panics() {
        let mut a = BaseMask::zeros(4);
        a.and_assign(&BaseMask::zeros(5));
    }

    #[test]
    fn count_runs_counts_maximal_streaks() {
        let m = BaseMask::from_bools([true, true, false, true, false, false, true, true, true]);
        assert_eq!(m.count_runs_reference(), 3);
        assert_eq!(BaseMask::zeros(10).count_runs_reference(), 0);
        assert_eq!(BaseMask::ones(10).count_runs_reference(), 1);
    }

    #[test]
    fn windowed_counting_rounds_runs_up() {
        let m = BaseMask::from_bools([true, true, false, true, false, false, true, true, true]);
        // Runs of length 2, 1, 3 with window 3 → 1 + 1 + 1.
        assert_eq!(m.count_edits_windowed_reference(3), 3);
        // With window 1 it is a plain popcount.
        assert_eq!(m.count_edits_windowed_reference(1), m.count_ones());
        // A long streak is charged proportionally.
        assert_eq!(BaseMask::ones(100).count_edits_windowed_reference(3), 34);
        assert_eq!(BaseMask::zeros(50).count_edits_windowed_reference(3), 0);
        // The lane kernels' whole-word counter agrees.
        assert_eq!(count_edits_windowed_in_words(m.words(), 3), 3);
        assert_eq!(
            count_edits_windowed_in_words(BaseMask::ones(100).words(), 3),
            34
        );
    }

    #[test]
    fn windowed_counting_with_zero_window_is_popcount() {
        let m = BaseMask::from_bools([true, false, true, true]);
        assert_eq!(m.count_edits_windowed_reference(0), m.count_ones());
        assert_eq!(count_edits_windowed_in_words(m.words(), 0), m.count_ones());
    }

    #[test]
    fn amendment_flips_short_flanked_zero_runs() {
        // 1 0 1  and  1 0 0 1 are flipped; 1 0 0 0 1 is not (run of 3 > 2).
        let mut m = BaseMask::from_bools([
            true, false, true, false, false, true, false, false, false, true,
        ]);
        m.amend_short_zero_runs_reference(2);
        assert_eq!(
            m,
            BaseMask::from_bools([true, true, true, true, true, true, false, false, false, true])
        );
    }

    #[test]
    fn amendment_does_not_touch_unflanked_runs() {
        // Leading and trailing zero runs are not flanked on both sides.
        let mut m = BaseMask::from_bools([false, true, false, true, false]);
        m.amend_short_zero_runs_reference(2);
        assert_eq!(m, BaseMask::from_bools([false, true, true, true, false]));
    }

    #[test]
    fn amendment_zero_window_is_a_noop() {
        let mut m = BaseMask::from_bools([true, false, true]);
        let before = m.clone();
        m.amend_short_zero_runs_reference(0);
        assert_eq!(m, before);
    }

    #[test]
    fn set_range_clamps_to_len() {
        let mut m = BaseMask::zeros(10);
        m.set_range(7, 20);
        assert_eq!(m.count_ones(), 3);
        assert!(m.get(7) && m.get(9));
    }

    #[test]
    fn longest_zero_run_finds_the_longest() {
        let m = BaseMask::from_bools([true, false, false, true, false, false, false, true]);
        assert_eq!(m.longest_zero_run_in_reference(0, 8), Some((4, 3)));
        assert_eq!(m.longest_zero_run_in_reference(0, 4), Some((1, 2)));
        assert_eq!(BaseMask::ones(5).longest_zero_run_in_reference(0, 5), None);
    }

    #[test]
    fn zero_run_length_at_position() {
        let m = BaseMask::from_bools([false, false, true, false]);
        let at = |pos| zero_run_length_in_words_reference(m.words(), pos, m.len());
        assert_eq!(at(0), 2);
        assert_eq!(at(2), 0);
        assert_eq!(at(3), 1);
    }

    #[test]
    fn widened_run_scans_match_their_references_on_random_words() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for case in 0..4_000 {
            let words: Vec<u64> = (0..rng.gen_range(0usize..4))
                .map(|_| {
                    // Mix dense, sparse and structured words so runs cross
                    // word boundaries and whole-zero words get exercised.
                    match rng.gen_range(0..4) {
                        0 => rng.gen(),
                        1 => 0,
                        2 => u64::MAX,
                        _ => rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>(),
                    }
                })
                .collect();
            let total = words.len() * 64;
            let end = rng.gen_range(0..=total + 3);
            let len = end.min(total);
            let mut runs = Vec::new();
            let mut runs_ref = Vec::new();
            zero_runs_in_words(&words, len, &mut runs);
            zero_runs_in_words_reference(&words, len, &mut runs_ref);
            assert_eq!(runs, runs_ref, "case {case}: words {words:?}, len {len}");
            // The collected list is consistent with the single-run scanners:
            // position-ordered, disjoint, its longest entry is the one
            // `longest_zero_run_in_words_reference` reports over the same
            // range, and every run is as long as the probe from its start.
            for pair in runs.windows(2) {
                assert!(pair[0].0 + pair[0].1 < pair[1].0, "overlapping runs");
            }
            let longest = runs
                .iter()
                .copied()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|(s, l)| (s as usize, l as usize));
            assert_eq!(longest, longest_zero_run_in_words_reference(&words, 0, len));
            for &(start, run) in &runs {
                assert_eq!(
                    zero_run_length_in_words_reference(&words, start as usize, len),
                    run as usize
                );
            }
        }
    }

    #[test]
    fn padding_bits_never_leak_into_counts() {
        let m = BaseMask::ones(100);
        assert_eq!(m.count_ones(), 100);
        assert_eq!(m.count_runs_reference(), 1);
        assert_eq!(count_edits_windowed_in_words(m.words(), 1), 100);
    }
}
