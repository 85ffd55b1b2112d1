//! Lane-parallel (SIMD-style) GateKeeper kernels over the struct-of-arrays
//! batch layout.
//!
//! The paper's pipeline is pure bit algebra — XOR, shifts with carry transfer,
//! OR-reduction, a `2e + 1`-way AND (§3.4) — which makes it embarrassingly
//! wide: the same operation applies to every pair independently. Four pairs
//! are transposed into the [`SoaGroup`] struct-of-arrays layout (`[u64; 4]`
//! rows ≙ one 256-bit vector) and filtered together, every mask walk a
//! whole-word bit trick — the shims world has no `std::simd`, so the lanes
//! are portable `[u64; 4]` arrays the compiler auto-vectorizes.
//!
//! Every filter has exactly two decision paths: its `*_kernel_x4` lane kernel
//! and its per-bit `*_reference` twin. One grouping loop backs every block
//! function (`*_filter_block*`): it puts lane-eligible pairs on the lanes and
//! runs the reference for everything else (ragged, empty or undefined
//! pairs); a single pair is a one-pair block. [`filter_blocks`] is the one
//! fan-out of a batch into blocks across the work-stealing pool, and the
//! block size is private to this module. [`SimdMode`] selects between the
//! lane path and the all-reference path at runtime (`GK_SIMD=scalar` forces
//! the latter; the CI matrix keeps both green). Decisions are byte-identical
//! across modes: the differential property suite and the `simd_speedup`
//! bench assert it.

use crate::bitvec::count_edits_windowed_in_words;
use crate::gatekeeper::{gatekeeper_kernel_reference, EditCounting, GateKeeperConfig};
use crate::traits::FilterDecision;
use gk_seq::alphabet::{has_undefined, is_uppercase_acgt};
use gk_seq::pairs::{SequencePair, SoaGroup, SOA_LANES};
use gk_seq::PackedSeq;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Environment variable consulted by [`SimdMode::Auto`]: set to `scalar` to
/// force the per-bit fallback without touching any configuration.
pub const SIMD_MODE_ENV: &str = "GK_SIMD";

/// Runtime selection between the lane-parallel kernels and the per-bit scalar
/// reference implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SimdMode {
    /// Consult the `GK_SIMD` environment variable (`scalar` forces the
    /// fallback; anything else — including unset — selects lanes).
    #[default]
    Auto,
    /// Always use the 4-lane struct-of-arrays kernels.
    Lanes,
    /// Always use the per-bit reference implementations.
    Scalar,
}

impl SimdMode {
    /// Resolves [`SimdMode::Auto`] against the environment; explicit modes
    /// win over the `GK_SIMD` variable. An unrecognized value warns once per
    /// process and falls back to [`SimdMode::Lanes`] (the same choice as
    /// unset), so a typo degrades to the fast path loudly instead of being
    /// silently reinterpreted.
    ///
    /// Resolution reads the environment, so hot paths must not call it per
    /// pair or per block — the filters resolve once at construction and
    /// thread the explicit mode through.
    pub fn resolve(self) -> SimdMode {
        match self {
            SimdMode::Auto => match std::env::var(SIMD_MODE_ENV) {
                Err(_) => SimdMode::Lanes,
                Ok(value) => {
                    let (mode, recognized) = classify_env_value(&value);
                    if !recognized {
                        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                        WARN_ONCE.call_once(|| {
                            eprintln!(
                                "warning: unrecognized {SIMD_MODE_ENV}='{value}' \
                                 (expected auto, lanes, simd or scalar); \
                                 using the lane-parallel kernels"
                            );
                        });
                    }
                    mode
                }
            },
            explicit => explicit,
        }
    }

    /// True when the resolved mode runs the lane-parallel kernels.
    fn use_lanes(self) -> bool {
        self.resolve() == SimdMode::Lanes
    }
}

/// Pure classification of a `GK_SIMD` value: the resolved mode plus whether
/// the value was recognized (the warn-once side effect lives in
/// [`SimdMode::resolve`] so this stays trivially testable).
fn classify_env_value(value: &str) -> (SimdMode, bool) {
    if value.is_empty() {
        return (SimdMode::Lanes, true);
    }
    match value.parse::<SimdMode>() {
        Ok(SimdMode::Scalar) => (SimdMode::Scalar, true),
        Ok(_) => (SimdMode::Lanes, true),
        Err(_) => (SimdMode::Lanes, false),
    }
}

impl FromStr for SimdMode {
    type Err = String;

    fn from_str(s: &str) -> Result<SimdMode, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(SimdMode::Auto),
            "lanes" | "simd" => Ok(SimdMode::Lanes),
            "scalar" => Ok(SimdMode::Scalar),
            other => Err(format!(
                "unknown SIMD mode '{other}' (expected auto, lanes or scalar)"
            )),
        }
    }
}

impl fmt::Display for SimdMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimdMode::Auto => write!(f, "auto"),
            SimdMode::Lanes => write!(f, "lanes"),
            SimdMode::Scalar => write!(f, "scalar"),
        }
    }
}

pub(crate) type LaneRow = [u64; SOA_LANES];

pub(crate) const WORD_BITS: usize = 64;
const EVEN_BITS: u64 = 0x5555_5555_5555_5555;

/// Pairs handed to one lane-parallel block task by [`filter_blocks`]: large
/// enough to amortise the struct-of-arrays transpose, small enough to keep
/// the work-stealing queue full.
const LANE_BLOCK_PAIRS: usize = 256;

/// Splits a batch into lane blocks across the work-stealing pool: `block`
/// decides one block of items, and the decisions come back in input order,
/// identical to one sequential pass at any pool size. Every batch path — the
/// [`crate::PreAlignmentFilter`] provided `filter_batch`, the CPU backends
/// and the simulated device stage — fans out through here.
pub fn filter_blocks<T, F>(items: &[T], block: F) -> Vec<FilterDecision>
where
    T: Sync,
    F: Fn(&[T]) -> Vec<FilterDecision> + Sync + Send,
{
    items.par_chunks(LANE_BLOCK_PAIRS).flat_map(block).collect()
}

/// Borrows owned pairs as the `(read, reference)` slices the block functions
/// take.
pub(crate) fn pair_slices(pairs: &[SequencePair]) -> Vec<(&[u8], &[u8])> {
    pairs
        .iter()
        .map(|p| (p.read.as_slice(), p.reference.as_slice()))
        .collect()
}

/// Per-lane active mask for divergent lane-parallel loops.
///
/// SneakySnake's greedy traversal is *data-dependent*: each lane finishes its
/// column walk at a different step. Rather than padding every lane to the
/// slowest one, the kernel keeps stepping the group while retiring finished
/// lanes from this mask — the bookkeeping a GPU warp needs when its threads
/// diverge. (MAGNET's lanes diverge too, but each runs its extraction rounds
/// in its own loop, so it needs no mask.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneMask {
    bits: u8,
}

impl LaneMask {
    /// A mask with the first `lanes` lanes active.
    pub(crate) fn active(lanes: usize) -> LaneMask {
        debug_assert!(lanes <= SOA_LANES);
        LaneMask {
            bits: ((1u16 << lanes) - 1) as u8,
        }
    }

    /// Retires one lane; further steps skip it.
    pub(crate) fn retire(&mut self, lane: usize) {
        self.bits &= !(1u8 << lane);
    }

    /// True while `lane` still participates in the group's steps.
    pub(crate) fn is_active(self, lane: usize) -> bool {
        self.bits & (1u8 << lane) != 0
    }

    /// True while any lane is still active (the group keeps stepping).
    pub(crate) fn any(self) -> bool {
        self.bits != 0
    }
}

/// OR of the two bits of every 2-bit base field of the XOR difference: even
/// bit `2s` is set iff base `s` differs.
#[inline]
fn per_base_diff(a: u64, b: u64) -> u64 {
    let d = a ^ b;
    (d | (d >> 1)) & EVEN_BITS
}

/// Packs the even-indexed bits of `x` (bits 0, 2, …, 62) into the low 32 bits.
#[inline]
fn compress_even_u64(x: u64) -> u64 {
    let x = x & EVEN_BITS;
    let x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    let x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    let x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    let x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF
}

/// Zeroes the mask bits at and beyond `len` in the last mask row. The rows
/// exactly cover `len.div_ceil(64)` words, so only the final row can carry
/// garbage (from shifted-sequence bits beyond the sequence length).
#[inline]
pub(crate) fn clear_tail_rows(rows: &mut [LaneRow], len: usize) {
    let used = len % WORD_BITS;
    if used != 0 {
        if let Some(last) = rows.last_mut() {
            let keep = (1u64 << used) - 1;
            for lane in last.iter_mut() {
                *lane &= keep;
            }
        }
    }
}

/// XOR + per-base OR-reduction of two SoA sequence arrays into per-base mask
/// rows (`out.len() == len.div_ceil(64)`; one mask row condenses two sequence
/// rows). Bits beyond `len` are cleared.
pub(crate) fn build_mask_rows(
    read: &[LaneRow],
    reference: &[LaneRow],
    len: usize,
    out: &mut [LaneRow],
) {
    for (mrow, slot) in out.iter_mut().enumerate() {
        let lo_row = 2 * mrow;
        let hi_row = 2 * mrow + 1;
        for lane in 0..SOA_LANES {
            let lo = compress_even_u64(per_base_diff(read[lo_row][lane], reference[lo_row][lane]));
            let hi = compress_even_u64(per_base_diff(read[hi_row][lane], reference[hi_row][lane]));
            slot[lane] = lo | (hi << 32);
        }
    }
    clear_tail_rows(out, len);
}

/// Lane-wise shift of the SoA bit rows towards *higher* bit positions by
/// `bits` (sequence shift towards higher base positions when `bits = 2k`);
/// vacated low bits become zero, exactly the `A` the reference kernels
/// shift in.
pub(crate) fn shl_rows(src: &[LaneRow], bits: usize, out: &mut [LaneRow]) {
    let word_shift = bits / WORD_BITS;
    let bit_shift = bits % WORD_BITS;
    for r in 0..out.len() {
        if r < word_shift {
            out[r] = [0; SOA_LANES];
            continue;
        }
        let lo = src[r - word_shift];
        if bit_shift == 0 {
            out[r] = lo;
        } else {
            let carry = if r > word_shift {
                src[r - word_shift - 1]
            } else {
                [0; SOA_LANES]
            };
            for lane in 0..SOA_LANES {
                out[r][lane] = (lo[lane] << bit_shift) | (carry[lane] >> (WORD_BITS - bit_shift));
            }
        }
    }
}

/// Lane-wise shift of the SoA bit rows towards *lower* bit positions by
/// `bits`; vacated high bits become zero.
pub(crate) fn shr_rows(src: &[LaneRow], bits: usize, out: &mut [LaneRow]) {
    let word_shift = bits / WORD_BITS;
    let bit_shift = bits % WORD_BITS;
    for (r, row) in out.iter_mut().enumerate() {
        let lo_src = r + word_shift;
        if lo_src >= src.len() {
            *row = [0; SOA_LANES];
            continue;
        }
        let lo = src[lo_src];
        if bit_shift == 0 {
            *row = lo;
        } else {
            let carry = if lo_src + 1 < src.len() {
                src[lo_src + 1]
            } else {
                [0; SOA_LANES]
            };
            for lane in 0..SOA_LANES {
                row[lane] = (lo[lane] >> bit_shift) | (carry[lane] << (WORD_BITS - bit_shift));
            }
        }
    }
}

/// Lane-wise amendment: flips every zero run of length at most `max_run`
/// flanked by 1s on both sides, like
/// [`crate::bitvec::BaseMask::amend_short_zero_runs_reference`].
///
/// The flip is a morphological closing: dilate with `m` iterations of
/// `d |= d << 1` (so `d = OR of x << j` for `j = 0..=m`), erode with `m`
/// iterations of `d &= d >> 1`, and OR the result back into the mask. A zero
/// run of length `L ≤ m` flanked by 1s is fully covered by the dilation of its
/// left flank and survives the erosion thanks to its right flank; longer runs
/// keep a dead zone, and unflanked leading/trailing runs never dilate from the
/// missing side. `scratch` is reused across calls; it grows to
/// `mask.len() + max_run/64 + 2` rows of dilation head-room, so dilation past
/// a word-aligned `len` is not truncated.
pub(crate) fn amend_rows(
    mask: &mut [LaneRow],
    len: usize,
    max_run: usize,
    scratch: &mut Vec<LaneRow>,
) {
    if len == 0 || max_run == 0 {
        return;
    }
    let m = max_run.min(len);
    let total = mask.len() + m / WORD_BITS + 2;
    scratch.clear();
    scratch.resize(total, [0; SOA_LANES]);
    scratch[..mask.len()].copy_from_slice(mask);
    for _ in 0..m {
        // d |= d << 1 across rows, high row first so carries read the
        // not-yet-updated lower neighbour.
        for r in (0..total).rev() {
            let below = if r > 0 {
                scratch[r - 1]
            } else {
                [0; SOA_LANES]
            };
            for (word, carry_src) in scratch[r].iter_mut().zip(below.iter()) {
                *word |= (*word << 1) | (carry_src >> 63);
            }
        }
    }
    for _ in 0..m {
        // d &= d >> 1 across rows, low row first for the same reason.
        for r in 0..total {
            let above = if r + 1 < total {
                scratch[r + 1]
            } else {
                [0; SOA_LANES]
            };
            for (word, carry_src) in scratch[r].iter_mut().zip(above.iter()) {
                *word &= (*word >> 1) | (carry_src << 63);
            }
        }
    }
    for (row, closed) in mask.iter_mut().zip(scratch.iter()) {
        for lane in 0..SOA_LANES {
            row[lane] |= closed[lane];
        }
    }
    clear_tail_rows(mask, len);
}

/// Lane-wise `set_range`: sets mask bits `[start, end)` (clamped to `len`) in
/// every lane using whole-word head/tail masks.
pub(crate) fn set_range_rows(mask: &mut [LaneRow], len: usize, start: usize, end: usize) {
    let end = end.min(len);
    if start >= end {
        return;
    }
    let first = start / WORD_BITS;
    let last = (end - 1) / WORD_BITS;
    let head = u64::MAX << (start % WORD_BITS);
    let tail = u64::MAX >> (WORD_BITS - 1 - (end - 1) % WORD_BITS);
    if first == last {
        for word in &mut mask[first] {
            *word |= head & tail;
        }
    } else {
        for word in &mut mask[first] {
            *word |= head;
        }
        for row in &mut mask[first + 1..last] {
            *row = [u64::MAX; SOA_LANES];
        }
        for word in &mut mask[last] {
            *word |= tail;
        }
    }
}

/// Lane-wise in-place AND.
pub(crate) fn and_rows(acc: &mut [LaneRow], other: &[LaneRow]) {
    for (a, b) in acc.iter_mut().zip(other.iter()) {
        for lane in 0..SOA_LANES {
            a[lane] &= b[lane];
        }
    }
}

/// Extracts one lane's mask words for the per-lane counting epilogue.
pub(crate) fn lane_words(mask: &[LaneRow], lane: usize, out: &mut Vec<u64>) {
    out.clear();
    out.extend(mask.iter().map(|row| row[lane]));
}

/// Runs the GateKeeper kernel on all lanes of a struct-of-arrays group at
/// once. Decisions of inactive lanes (`lane >= group.lanes`) are meaningless.
///
/// The mask algebra is identical to [`gatekeeper_kernel_reference`] — same
/// shift clamp, same amend-before-boundary-fix ordering, same windowed
/// counting — so the per-lane decisions are byte-identical to running the
/// per-bit reference on each pair individually.
pub fn gatekeeper_kernel_x4(
    group: &SoaGroup,
    config: &GateKeeperConfig,
) -> [FilterDecision; SOA_LANES] {
    let len = group.len;
    debug_assert!(len > 0, "SoaGroup guarantees a nonzero length");
    let e = config.threshold;
    let window = config.amend_run_len + 1;
    let mask_rows = len.div_ceil(WORD_BITS);

    let mut hamming = vec![[0u64; SOA_LANES]; mask_rows];
    build_mask_rows(&group.read_words, &group.ref_words, len, &mut hamming);

    let mut out = [FilterDecision::accept(0); SOA_LANES];
    let mut words: Vec<u64> = Vec::with_capacity(mask_rows);

    if e == 0 {
        for (lane, decision) in out.iter_mut().enumerate() {
            lane_words(&hamming, lane, &mut words);
            let ones: u32 = words.iter().map(|w| w.count_ones()).sum();
            *decision = if ones == 0 {
                FilterDecision::accept(0)
            } else {
                let errors = match config.counting {
                    EditCounting::WindowedRuns => count_edits_windowed_in_words(&words, window),
                    EditCounting::Popcount => ones,
                };
                FilterDecision::reject(errors.max(1))
            };
        }
        return out;
    }

    let max_shift = (e as usize).min(len - 1);
    let mut scratch: Vec<LaneRow> = Vec::new();
    amend_rows(&mut hamming, len, config.amend_run_len, &mut scratch);
    let mut combined = hamming;

    let mut shifted = vec![[0u64; SOA_LANES]; group.read_words.len()];
    let mut mask = vec![[0u64; SOA_LANES]; mask_rows];
    for k in 1..=max_shift {
        // Deletion mask: read shifted towards higher positions by k bases.
        shl_rows(&group.read_words, 2 * k, &mut shifted);
        build_mask_rows(&shifted, &group.ref_words, len, &mut mask);
        amend_rows(&mut mask, len, config.amend_run_len, &mut scratch);
        if config.improved_boundaries {
            set_range_rows(&mut mask, len, 0, k);
        }
        and_rows(&mut combined, &mask);

        // Insertion mask: read shifted towards lower positions by k bases.
        shr_rows(&group.read_words, 2 * k, &mut shifted);
        build_mask_rows(&shifted, &group.ref_words, len, &mut mask);
        amend_rows(&mut mask, len, config.amend_run_len, &mut scratch);
        if config.improved_boundaries {
            set_range_rows(&mut mask, len, len - k, len);
        }
        and_rows(&mut combined, &mask);
    }

    for (lane, decision) in out.iter_mut().enumerate() {
        lane_words(&combined, lane, &mut words);
        let errors = match config.counting {
            EditCounting::WindowedRuns => count_edits_windowed_in_words(&words, window),
            EditCounting::Popcount => words.iter().map(|w| w.count_ones()).sum(),
        };
        *decision = if errors <= e {
            FilterDecision::accept(errors)
        } else {
            FilterDecision::reject(errors)
        };
    }
    out
}

/// Per-bit reference decision for one packed pair, with the undefined-pair
/// pass of `GateKeeperCpu` / the device kernels.
fn packed_pair_decision(
    read: &PackedSeq,
    reference: &PackedSeq,
    config: &GateKeeperConfig,
) -> FilterDecision {
    if config.pass_undefined && (read.is_undefined() || reference.is_undefined()) {
        return FilterDecision::undefined_pass();
    }
    gatekeeper_kernel_reference(read, reference, config)
}

/// [`packed_pair_decision`] for one raw ASCII pair.
fn scalar_pair_decision(
    read: &[u8],
    reference: &[u8],
    config: &GateKeeperConfig,
) -> FilterDecision {
    packed_pair_decision(
        &PackedSeq::from_ascii(read),
        &PackedSeq::from_ascii(reference),
        config,
    )
}

/// A pair the grouping loop can put on a lane: raw ASCII slices or packed
/// 2-bit sequences, each with its [`SoaGroup`] encoder.
pub(crate) trait LanePair: Copy {
    /// Read and reference lengths in bases.
    fn lens(self) -> (usize, usize);
    /// Transposes `members` into `group`; false when they are not
    /// lane-eligible.
    fn encode(group: &mut SoaGroup, members: &[Self]) -> bool;
}

impl LanePair for (&[u8], &[u8]) {
    fn lens(self) -> (usize, usize) {
        (self.0.len(), self.1.len())
    }
    fn encode(group: &mut SoaGroup, members: &[Self]) -> bool {
        group.encode_slices_into(members)
    }
}

impl LanePair for (&PackedSeq, &PackedSeq) {
    fn lens(self) -> (usize, usize) {
        (self.0.len(), self.1.len())
    }
    fn encode(group: &mut SoaGroup, members: &[Self]) -> bool {
        group.encode_packed_into(members)
    }
}

/// The grouping loop behind every block function of all four filters.
///
/// In lane mode, consecutive runs of lane-eligible pairs (nonzero equal
/// lengths plus the filter's own `eligible_pair` predicate) are transposed
/// into [`SoaGroup`]s of up to four and handed to `kernel`; everything else
/// runs `scalar` (the filter's per-bit reference) per pair. In scalar (or
/// unresolved-to-scalar) mode every pair runs `scalar`. Output order matches
/// input order.
pub(crate) fn filter_block_with<P, E, K, S>(
    pairs: &[P],
    mode: SimdMode,
    eligible_pair: E,
    mut kernel: K,
    mut scalar: S,
) -> Vec<FilterDecision>
where
    P: LanePair,
    E: Fn(P) -> bool,
    K: FnMut(&SoaGroup) -> [FilterDecision; SOA_LANES],
    S: FnMut(P) -> FilterDecision,
{
    if !mode.use_lanes() {
        return pairs.iter().map(|&pair| scalar(pair)).collect();
    }

    let mut decisions = vec![FilterDecision::accept(0); pairs.len()];
    let mut eligible: Vec<usize> = Vec::with_capacity(pairs.len());
    for (i, &pair) in pairs.iter().enumerate() {
        let (read_len, ref_len) = pair.lens();
        if read_len > 0 && read_len == ref_len && eligible_pair(pair) {
            eligible.push(i);
        } else {
            decisions[i] = scalar(pair);
        }
    }

    // One scratch group and member array reused across every group in the
    // block: the grouping loop itself never touches the allocator.
    let Some(&first) = eligible.first() else {
        return decisions;
    };
    let mut group = SoaGroup::scratch();
    let mut members = [pairs[first]; SOA_LANES];
    let mut start = 0;
    while start < eligible.len() {
        let len0 = pairs[eligible[start]].lens().0;
        let mut end = start + 1;
        while end < eligible.len()
            && end - start < SOA_LANES
            && pairs[eligible[end]].lens().0 == len0
        {
            end += 1;
        }
        for (slot, &i) in members.iter_mut().zip(eligible[start..end].iter()) {
            *slot = pairs[i];
        }
        if P::encode(&mut group, &members[..end - start]) {
            let lane_decisions = kernel(&group);
            for (lane, &i) in eligible[start..end].iter().enumerate() {
                decisions[i] = lane_decisions[lane];
            }
        } else {
            for &i in &eligible[start..end] {
                decisions[i] = scalar(pairs[i]);
            }
        }
        start = end;
    }
    decisions
}

/// True when every byte is an upper- or lowercase `A`/`C`/`G`/`T` call — the
/// lane-eligibility alphabet of the 2-bit-packed kernels.
pub(crate) fn lane_alphabet(seq: &[u8]) -> bool {
    !has_undefined(seq)
}

/// True when every byte is an *uppercase* `A`/`C`/`G`/`T`. Shouji and
/// SneakySnake compare raw ASCII bytes in their references ("`a` ≠ `A`"),
/// so their lane kernels — which compare 2-bit codes and would equate the
/// cases — only take pairs where the two comparisons provably agree.
pub(crate) fn canonical_acgt(seq: &[u8]) -> bool {
    is_uppercase_acgt(seq)
}

/// Filters a block of raw ASCII pairs, lane-parallel where possible.
///
/// In lane mode, consecutive runs of lane-eligible pairs (defined, equal
/// nonzero lengths) are transposed into [`SoaGroup`]s of up to four and run
/// through [`gatekeeper_kernel_x4`]; everything else — undefined pairs,
/// ragged or empty lengths — runs [`gatekeeper_kernel_reference`] with the
/// undefined-pass semantics of the device kernels. In scalar mode every pair
/// runs the reference. Output order matches input order.
pub fn gatekeeper_filter_block_slices(
    pairs: &[(&[u8], &[u8])],
    config: &GateKeeperConfig,
    mode: SimdMode,
) -> Vec<FilterDecision> {
    filter_block_with(
        pairs,
        mode,
        |(read, reference)| lane_alphabet(read) && lane_alphabet(reference),
        |group| gatekeeper_kernel_x4(group, config),
        |(read, reference)| scalar_pair_decision(read, reference, config),
    )
}

/// [`gatekeeper_filter_block_slices`] over owned [`SequencePair`]s.
pub fn gatekeeper_filter_block(
    pairs: &[SequencePair],
    config: &GateKeeperConfig,
    mode: SimdMode,
) -> Vec<FilterDecision> {
    gatekeeper_filter_block_slices(&pair_slices(pairs), config, mode)
}

/// Filters a block of already-encoded pairs, lane-parallel where possible —
/// the device-side counterpart of [`gatekeeper_filter_block_slices`] used by
/// the simulated GPU's encoded chunk path. Pairs off the lanes run the
/// per-bit reference directly on the packed words (no re-encoding).
pub fn gatekeeper_filter_block_packed(
    pairs: &[(&PackedSeq, &PackedSeq)],
    config: &GateKeeperConfig,
    mode: SimdMode,
) -> Vec<FilterDecision> {
    filter_block_with(
        pairs,
        mode,
        |(read, reference)| !read.is_undefined() && !reference.is_undefined(),
        |group| gatekeeper_kernel_x4(group, config),
        |(read, reference)| packed_pair_decision(read, reference, config),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, rng: &mut StdRng) -> Vec<u8> {
        (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect()
    }

    fn mutated(reference: &[u8], edits: usize, rng: &mut StdRng) -> Vec<u8> {
        gk_seq::simulate::mutate_with_edits(reference, edits, 0.3, rng)
    }

    fn per_pair_decisions(
        pairs: &[(Vec<u8>, Vec<u8>)],
        config: &GateKeeperConfig,
    ) -> Vec<FilterDecision> {
        pairs
            .iter()
            .map(|(read, reference)| scalar_pair_decision(read, reference, config))
            .collect()
    }

    #[test]
    fn mode_parsing_and_display_round_trip() {
        for mode in [SimdMode::Auto, SimdMode::Lanes, SimdMode::Scalar] {
            assert_eq!(mode.to_string().parse::<SimdMode>().unwrap(), mode);
        }
        assert_eq!("SIMD".parse::<SimdMode>().unwrap(), SimdMode::Lanes);
        assert!("avx512".parse::<SimdMode>().is_err());
        assert_eq!(SimdMode::default(), SimdMode::Auto);
    }

    #[test]
    fn explicit_modes_resolve_to_themselves() {
        assert_eq!(SimdMode::Lanes.resolve(), SimdMode::Lanes);
        assert_eq!(SimdMode::Scalar.resolve(), SimdMode::Scalar);
        assert!(SimdMode::Lanes.use_lanes());
        assert!(!SimdMode::Scalar.use_lanes());
    }

    #[test]
    fn env_value_classification_covers_every_spelling() {
        assert_eq!(classify_env_value("scalar"), (SimdMode::Scalar, true));
        assert_eq!(classify_env_value("SCALAR"), (SimdMode::Scalar, true));
        assert_eq!(classify_env_value("lanes"), (SimdMode::Lanes, true));
        assert_eq!(classify_env_value("simd"), (SimdMode::Lanes, true));
        assert_eq!(classify_env_value("auto"), (SimdMode::Lanes, true));
        assert_eq!(classify_env_value(""), (SimdMode::Lanes, true));
        // Unrecognized values fall back to Lanes (flagged for the one-time
        // warning) instead of being silently treated as "not scalar".
        assert_eq!(classify_env_value("avx512"), (SimdMode::Lanes, false));
        assert_eq!(classify_env_value("1"), (SimdMode::Lanes, false));
        assert_eq!(classify_env_value("Scalar mode"), (SimdMode::Lanes, false));
    }

    #[test]
    fn auto_resolution_falls_back_to_lanes_on_unrecognized_env() {
        // Save/restore so the other tests in this binary see a consistent
        // environment; every value set here resolves Auto to Lanes, which is
        // also what an unset variable resolves to, so a concurrent Auto
        // resolution cannot observe a different mode than it would otherwise.
        let saved = std::env::var(SIMD_MODE_ENV).ok();
        std::env::set_var(SIMD_MODE_ENV, "avx512");
        assert_eq!(SimdMode::Auto.resolve(), SimdMode::Lanes);
        std::env::set_var(SIMD_MODE_ENV, "LANES");
        assert_eq!(SimdMode::Auto.resolve(), SimdMode::Lanes);
        match saved {
            Some(value) => std::env::set_var(SIMD_MODE_ENV, value),
            None => std::env::remove_var(SIMD_MODE_ENV),
        }
    }

    #[test]
    fn lane_mask_retires_lanes_independently() {
        let mut mask = LaneMask::active(3);
        assert!(mask.any());
        assert!(mask.is_active(0) && mask.is_active(1) && mask.is_active(2));
        assert!(!mask.is_active(3));
        mask.retire(1);
        assert!(mask.is_active(0) && !mask.is_active(1) && mask.is_active(2));
        mask.retire(0);
        mask.retire(2);
        assert!(!mask.any());
        assert!(!LaneMask::active(0).any());
    }

    #[test]
    fn compress_even_extracts_alternating_bits() {
        assert_eq!(compress_even_u64(EVEN_BITS), 0xFFFF_FFFF);
        assert_eq!(compress_even_u64(0), 0);
        // Explicit positions: even bits 0, 2, 6 set → output bits 0, 1, 3.
        let x = (1u64 << 0) | (1 << 2) | (1 << 6);
        assert_eq!(compress_even_u64(x), 0b1011);
    }

    /// The lane XOR-reduce builds, in every lane, exactly the per-bit
    /// reference mask of that lane's pair — at word-boundary lengths, for
    /// partial groups, with dense and sparse mismatches.
    #[test]
    fn lane_xor_reduce_matches_reference() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut words = Vec::new();
        for len in [
            1usize, 15, 16, 17, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129, 200,
        ] {
            for _ in 0..20 {
                let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..rng.gen_range(1..=SOA_LANES))
                    .map(|_| {
                        let reference = random_seq(len, &mut rng);
                        let read = if rng.gen_bool(0.5) {
                            random_seq(len, &mut rng)
                        } else {
                            let mut read = reference.clone();
                            read[rng.gen_range(0..len)] = b"ACGT"[rng.gen_range(0..4)];
                            read
                        };
                        (read, reference)
                    })
                    .collect();
                let slices: Vec<(&[u8], &[u8])> = pairs
                    .iter()
                    .map(|(r, s)| (r.as_slice(), s.as_slice()))
                    .collect();
                let group = SoaGroup::encode_slices(&slices).expect("lane-eligible group");
                let mut rows = vec![[0u64; SOA_LANES]; len.div_ceil(WORD_BITS)];
                build_mask_rows(&group.read_words, &group.ref_words, len, &mut rows);
                for (lane, (read, reference)) in pairs.iter().enumerate() {
                    lane_words(&rows, lane, &mut words);
                    let expected = crate::words::xor_to_base_mask_reference(
                        PackedSeq::from_ascii(read).words(),
                        PackedSeq::from_ascii(reference).words(),
                        len,
                    );
                    assert_eq!(words, expected.words(), "len = {len}, lane = {lane}");
                }
            }
        }
    }

    /// The lane morphological closing equals the per-bit amendment for any
    /// `max_run` — including 0, runs straddling word boundaries and widths
    /// beyond one word — with a different mask in every lane.
    #[test]
    fn lane_amend_matches_reference() {
        use crate::bitvec::BaseMask;
        let mut rng = StdRng::seed_from_u64(16);
        let mut scratch = Vec::new();
        for case in 0..2_000 {
            let len = rng.gen_range(1usize..=200);
            let max_run = rng.gen_range(0usize..=130);
            let density = [0.1, 0.5, 0.9][case % 3];
            let masks: Vec<BaseMask> = (0..SOA_LANES)
                .map(|_| BaseMask::from_bools((0..len).map(|_| rng.gen_bool(density))))
                .collect();
            let mut rows: Vec<LaneRow> = (0..len.div_ceil(WORD_BITS))
                .map(|row| std::array::from_fn(|lane| masks[lane].words()[row]))
                .collect();
            amend_rows(&mut rows, len, max_run, &mut scratch);
            for (lane, mask) in masks.iter().enumerate() {
                let mut expected = mask.clone();
                expected.amend_short_zero_runs_reference(max_run);
                let lane_mask: Vec<u64> = rows.iter().map(|row| row[lane]).collect();
                assert_eq!(
                    lane_mask,
                    expected.words(),
                    "case {case}: len {len}, max_run {max_run}, lane {lane}"
                );
            }
        }
    }

    #[test]
    fn kernel_x4_matches_scalar_kernel_on_random_groups() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let len = rng.gen_range(1usize..=200);
            let e = rng.gen_range(0u32..=12);
            let config = if rng.gen_bool(0.5) {
                GateKeeperConfig::gpu(e)
            } else {
                GateKeeperConfig::fpga(e)
            };
            let lanes = rng.gen_range(1usize..=SOA_LANES);
            let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..lanes)
                .map(|_| {
                    let reference = random_seq(len, &mut rng);
                    let edits = rng.gen_range(0usize..=(e as usize + 4));
                    let read = mutated(&reference, edits, &mut rng);
                    (read, reference)
                })
                .collect();
            let slices: Vec<(&[u8], &[u8])> = pairs
                .iter()
                .map(|(r, s)| (r.as_slice(), s.as_slice()))
                .collect();
            let group = SoaGroup::encode_slices(&slices).expect("lane-eligible group");
            let lane_decisions = gatekeeper_kernel_x4(&group, &config);
            for (lane, (read, reference)) in pairs.iter().enumerate() {
                let expected = gatekeeper_kernel_reference(
                    &PackedSeq::from_ascii(read),
                    &PackedSeq::from_ascii(reference),
                    &config,
                );
                assert_eq!(
                    lane_decisions[lane], expected,
                    "len = {len}, e = {e}, lane = {lane}"
                );
            }
        }
    }

    #[test]
    fn kernel_x4_handles_word_boundary_lengths() {
        let mut rng = StdRng::seed_from_u64(12);
        for len in [1usize, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129] {
            for e in [0u32, 1, 4, 40] {
                let config = GateKeeperConfig::gpu(e);
                let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..SOA_LANES)
                    .map(|_| {
                        let reference = random_seq(len, &mut rng);
                        let read = mutated(&reference, rng.gen_range(0..=6), &mut rng);
                        (read, reference)
                    })
                    .collect();
                let slices: Vec<(&[u8], &[u8])> = pairs
                    .iter()
                    .map(|(r, s)| (r.as_slice(), s.as_slice()))
                    .collect();
                let group = SoaGroup::encode_slices(&slices).unwrap();
                let lane_decisions = gatekeeper_kernel_x4(&group, &config);
                for (lane, (read, reference)) in pairs.iter().enumerate() {
                    let expected = gatekeeper_kernel_reference(
                        &PackedSeq::from_ascii(read),
                        &PackedSeq::from_ascii(reference),
                        &config,
                    );
                    assert_eq!(lane_decisions[lane], expected, "len = {len}, e = {e}");
                }
            }
        }
    }

    #[test]
    fn block_driver_matches_per_pair_decisions_with_mixed_pairs() {
        let mut rng = StdRng::seed_from_u64(13);
        let config = GateKeeperConfig::gpu(4);
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for i in 0..97 {
            let len = match i % 5 {
                0 => 100,
                1 => 100,
                2 => 64,
                3 => 33,
                _ => 100,
            };
            let reference = random_seq(len, &mut rng);
            let mut read = mutated(&reference, rng.gen_range(0..8), &mut rng);
            if i % 11 == 0 {
                read[len / 2] = b'N'; // undefined pair
            }
            if i % 13 == 0 {
                read.pop(); // ragged length
            }
            pairs.push((read, reference));
        }
        pairs.push((Vec::new(), Vec::new())); // empty pair
        let slices: Vec<(&[u8], &[u8])> = pairs
            .iter()
            .map(|(r, s)| (r.as_slice(), s.as_slice()))
            .collect();
        let expected = per_pair_decisions(&pairs, &config);
        let lanes = gatekeeper_filter_block_slices(&slices, &config, SimdMode::Lanes);
        assert_eq!(lanes, expected);
        let scalar = gatekeeper_filter_block_slices(&slices, &config, SimdMode::Scalar);
        assert_eq!(scalar, expected);
    }

    #[test]
    fn packed_block_driver_matches_ascii_block_driver() {
        let mut rng = StdRng::seed_from_u64(14);
        let config = GateKeeperConfig::gpu(3);
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..50)
            .map(|i| {
                let reference = random_seq(80, &mut rng);
                let mut read = mutated(&reference, rng.gen_range(0..6), &mut rng);
                if i % 9 == 0 {
                    read[40] = b'N';
                }
                (read, reference)
            })
            .collect();
        let packed: Vec<(PackedSeq, PackedSeq)> = pairs
            .iter()
            .map(|(r, s)| (PackedSeq::from_ascii(r), PackedSeq::from_ascii(s)))
            .collect();
        let packed_refs: Vec<(&PackedSeq, &PackedSeq)> =
            packed.iter().map(|(r, s)| (r, s)).collect();
        let slices: Vec<(&[u8], &[u8])> = pairs
            .iter()
            .map(|(r, s)| (r.as_slice(), s.as_slice()))
            .collect();
        for mode in [SimdMode::Lanes, SimdMode::Scalar] {
            let from_ascii = gatekeeper_filter_block_slices(&slices, &config, mode);
            let packed_decisions = gatekeeper_filter_block_packed(&packed_refs, &config, mode);
            assert_eq!(from_ascii, packed_decisions, "mode = {mode}");
        }
    }

    #[test]
    fn undefined_pairs_run_the_kernel_when_pass_undefined_is_off() {
        let config = GateKeeperConfig::fpga(2); // pass_undefined: false
        let pairs = [
            (b"ACGTNACGTACGTACGTACG".to_vec(), vec![b'T'; 20]),
            (
                b"ACGTACGTACGTACGTACGT".to_vec(),
                b"ACGTACGTACGTACGTACGT".to_vec(),
            ),
        ];
        let slices: Vec<(&[u8], &[u8])> = pairs
            .iter()
            .map(|(r, s)| (r.as_slice(), s.as_slice()))
            .collect();
        for mode in [SimdMode::Lanes, SimdMode::Scalar] {
            let decisions = gatekeeper_filter_block_slices(&slices, &config, mode);
            assert!(!decisions[0].undefined, "mode = {mode}");
            assert!(!decisions[0].accepted, "mode = {mode}");
            assert!(decisions[1].accepted, "mode = {mode}");
        }
    }

    #[test]
    fn lowercase_bases_filter_like_uppercase_in_lane_groups() {
        let config = GateKeeperConfig::gpu(2);
        let upper = [
            (b"ACGTACGTACGTACGT".to_vec(), b"ACGTACGAACGTACGT".to_vec()),
            (b"TTTTGGGGCCCCAAAA".to_vec(), b"TTTTGGGGCCCCAAAA".to_vec()),
        ];
        let lower: Vec<(Vec<u8>, Vec<u8>)> = upper
            .iter()
            .map(|(r, s)| (r.to_ascii_lowercase(), s.to_ascii_lowercase()))
            .collect();
        let upper_slices: Vec<(&[u8], &[u8])> = upper
            .iter()
            .map(|(r, s)| (r.as_slice(), s.as_slice()))
            .collect();
        let lower_slices: Vec<(&[u8], &[u8])> = lower
            .iter()
            .map(|(r, s)| (r.as_slice(), s.as_slice()))
            .collect();
        assert_eq!(
            gatekeeper_filter_block_slices(&upper_slices, &config, SimdMode::Lanes),
            gatekeeper_filter_block_slices(&lower_slices, &config, SimdMode::Lanes),
        );
    }
}
