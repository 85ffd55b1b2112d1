//! DNA alphabet and the 2-bit base encoding used throughout GateKeeper.
//!
//! GateKeeper encodes each base in two bits (`A=00, C=01, G=10, T=11`, §2.1 of the
//! paper). The unknown base call `N` is *not* representable in two bits; pairs that
//! contain an `N` are called *undefined* and are passed through the filter
//! unfiltered (§3.3). This module provides the per-byte encoding primitives
//! and their eight-bytes-per-step (SWAR) twins: an exact classifier that flags
//! every byte outside `ACGTacgt` (and an uppercase-only variant), and two
//! packers that compact eight bases into sixteen bits, one in the paper's
//! MSB-first codes for [`crate::packed`] and one in the LSB-first lane codes
//! for [`crate::pairs::SoaGroup`]. [`has_undefined`] and
//! [`is_uppercase_acgt`] scan with the classifier.

use serde::{Deserialize, Serialize};

/// A DNA nucleotide, including the IUPAC unknown base `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Base {
    /// Adenine, encoded as `00`.
    A,
    /// Cytosine, encoded as `01`.
    C,
    /// Guanine, encoded as `10`.
    G,
    /// Thymine, encoded as `11`.
    T,
    /// Unknown base call. Has no 2-bit encoding; sequences containing `N` are
    /// treated as *undefined* by the pre-alignment filters.
    N,
}

impl Base {
    /// All four definite bases in encoding order.
    pub const DEFINITE: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Returns the 2-bit code of the base, or `None` for [`Base::N`].
    #[inline]
    pub fn code(self) -> Option<u8> {
        match self {
            Base::A => Some(0b00),
            Base::C => Some(0b01),
            Base::G => Some(0b10),
            Base::T => Some(0b11),
            Base::N => None,
        }
    }

    /// Builds a base from a 2-bit code. Codes larger than 3 are masked.
    #[inline]
    pub fn from_code(code: u8) -> Base {
        match code & 0b11 {
            0b00 => Base::A,
            0b01 => Base::C,
            0b10 => Base::G,
            _ => Base::T,
        }
    }

    /// Parses an ASCII character (case-insensitive). Any IUPAC ambiguity code other
    /// than `ACGT` collapses to [`Base::N`], mirroring how mrFAST treats them.
    #[inline]
    pub fn from_ascii(ch: u8) -> Base {
        match ch.to_ascii_uppercase() {
            b'A' => Base::A,
            b'C' => Base::C,
            b'G' => Base::G,
            b'T' => Base::T,
            _ => Base::N,
        }
    }

    /// ASCII representation of the base.
    #[inline]
    pub fn to_ascii(self) -> u8 {
        match self {
            Base::A => b'A',
            Base::C => b'C',
            Base::G => b'G',
            Base::T => b'T',
            Base::N => b'N',
        }
    }

    /// Watson-Crick complement. `N` complements to `N`.
    #[inline]
    pub fn complement(self) -> Base {
        match self {
            Base::A => Base::T,
            Base::C => Base::G,
            Base::G => Base::C,
            Base::T => Base::A,
            Base::N => Base::N,
        }
    }
}

/// Encodes an ASCII base into its 2-bit code, or `None` for non-`ACGT` characters.
#[inline]
pub fn encode_base(ch: u8) -> Option<u8> {
    Base::from_ascii(ch).code()
}

/// Decodes a 2-bit code back into an ASCII base.
#[inline]
pub fn decode_base(code: u8) -> u8 {
    Base::from_code(code).to_ascii()
}

/// Returns true if the character is one of `ACGTacgt`.
#[inline]
pub fn is_valid_base(ch: u8) -> bool {
    matches!(ch.to_ascii_uppercase(), b'A' | b'C' | b'G' | b'T')
}

/// Returns the complement of an ASCII base (`N` and unknown characters map to `N`).
#[inline]
pub fn complement(ch: u8) -> u8 {
    Base::from_ascii(ch).complement().to_ascii()
}

/// Reverse-complements an ASCII sequence in place-allocating fashion.
pub fn reverse_complement(seq: &[u8]) -> Vec<u8> {
    seq.iter().rev().map(|&b| complement(b)).collect()
}

/// Uppercases an ASCII sequence in place.
///
/// Reference genomes ship soft-masked repeats as lowercase bases. The packed
/// 2-bit encoders fold case, but the raw-ASCII filter paths compare bytes
/// directly, where `b'a' != b'A'` would silently score a soft-masked base as a
/// mismatch — so the parsers normalize at read time instead.
#[inline]
pub fn normalize_sequence(seq: &mut [u8]) {
    seq.make_ascii_uppercase();
}

/// Returns true if the ASCII sequence contains any base outside `ACGT`
/// (case-insensitive): `seq.iter().any(|&b| !is_valid_base(b))`, eight bytes
/// per step.
pub fn has_undefined(seq: &[u8]) -> bool {
    any_flagged(seq, undefined_bytes8)
}

/// Returns true if every byte is an *uppercase* `A`, `C`, `G` or `T`:
/// `seq.iter().all(|&b| matches!(b, b'A' | b'C' | b'G' | b'T'))`, eight bytes
/// per step.
pub fn is_uppercase_acgt(seq: &[u8]) -> bool {
    !any_flagged(seq, non_acgt_bytes8)
}

/// `byte` in every byte of a `u64`.
const fn splat(byte: u8) -> u64 {
    0x0101_0101_0101_0101 * byte as u64
}

/// The high bit of every byte.
const HIGH_BITS: u64 = splat(0x80);
/// The low seven bits of every byte.
const LOW_BITS: u64 = splat(0x7F);

/// Sets the high bit of every nonzero byte of `x` and clears every other
/// bit. Exact per byte: a byte's low seven bits plus `0x7F` stay below
/// `0x100`, so no carry reaches its neighbour.
#[inline]
fn nonzero_bytes(x: u64) -> u64 {
    (((x & LOW_BITS) + LOW_BITS) | x) & HIGH_BITS
}

/// The uppercase-only classifier: sets the high bit of every byte of `bytes`
/// that is none of `A`, `C`, `G` and `T` (so `acgt` are flagged too), and
/// clears every other bit.
#[inline]
fn non_acgt_bytes8(bytes: u64) -> u64 {
    nonzero_bytes(bytes ^ splat(b'A'))
        & nonzero_bytes(bytes ^ splat(b'C'))
        & nonzero_bytes(bytes ^ splat(b'G'))
        & nonzero_bytes(bytes ^ splat(b'T'))
}

/// `!is_valid_base` on eight bytes at once: sets the high bit of every byte
/// outside `ACGTacgt` and clears every other bit. Clearing bit 5 folds `acgt`
/// onto `ACGT` and no other byte onto either.
#[inline]
pub(crate) fn undefined_bytes8(bytes: u64) -> u64 {
    non_acgt_bytes8(bytes & !splat(0x20))
}

/// Up to eight bytes of `step` as one array, padded with `A` past its end.
/// `A` has code 0 in both packers and no classifier flags it, so padding
/// packs to zero bits and is never reported.
///
/// # Panics
/// Panics if `step` is longer than eight bytes.
#[inline]
pub(crate) fn step8(step: &[u8]) -> [u8; 8] {
    let mut raw = [b'A'; 8];
    raw[..step.len()].copy_from_slice(step);
    raw
}

/// True when `flag` marks any byte of `seq`, classified eight bytes per
/// step (the byte order of the load does not matter to a per-byte flag).
#[inline]
fn any_flagged(seq: &[u8], flag: impl Fn(u64) -> u64) -> bool {
    let mut steps = seq.chunks_exact(8);
    steps
        .by_ref()
        .any(|step| flag(u64::from_le_bytes(step8(step))) != 0)
        || flag(u64::from_le_bytes(step8(steps.remainder()))) != 0
}

/// Gathers the low two bits of every byte of `x` into one 16-bit value: byte
/// `k`, counted from the least significant end, lands in bits `2k..2k + 2`.
/// The byte-stride fields fold down to 2-bit stride in three halving steps.
#[inline]
fn gather_bit_pairs(x: u64) -> u64 {
    let x = (x | (x >> 6)) & 0x000F_000F_000F_000F;
    let x = (x | (x >> 12)) & 0x0000_00FF_0000_00FF;
    (x | (x >> 24)) & 0xFFFF
}

/// Packs eight ASCII bases (one little-endian `u64` load, base 0 in the low
/// byte) into sixteen LSB-first bits of the lane codes `(byte >> 1) & 3`
/// (`A=00, C=01, T=10, G=11`, case-insensitive): base `i` lands in bits
/// `2i..2i + 2`. Bytes outside `ACGTacgt` pack to arbitrary codes.
#[inline]
pub(crate) fn pack8_ascii(bytes: u64) -> u64 {
    gather_bit_pairs((bytes >> 1) & splat(3))
}

/// Packs eight ASCII bases (one big-endian `u64` load, base 0 in the high
/// byte) into sixteen MSB-first bits of the paper's codes (`A=00, C=01,
/// G=10, T=11`, case-insensitive): base 0 lands in bits 15–14. The lane
/// code `x = (byte >> 1) & 3` becomes the paper's code as `x ^ (x >> 1)`.
/// Every byte flagged in `undefined` (as [`undefined_bytes8`] flags it)
/// packs as `A`.
#[inline]
pub(crate) fn pack8_codes(bytes: u64, undefined: u64) -> u16 {
    let x = (bytes >> 1) & splat(3);
    let codes = (x ^ ((x >> 1) & splat(1))) & !((undefined >> 7) * 3);
    gather_bit_pairs(codes) as u16
}

/// Sequence lengths the SWAR differential tests cover: empty, around one
/// 8-byte step, one and two 16-base words, one and two lane words, and the
/// paper's 100 and 250 bp reads.
#[cfg(test)]
pub(crate) const SWAR_TEST_LENGTHS: &[usize] = &[0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 250];

/// `len` random `ACGTacgt` bases, each replaced at rate `dirt` by `N`, `n`
/// or another byte outside the alphabet.
#[cfg(test)]
pub(crate) fn random_mix(len: usize, dirt: f64, rng: &mut rand::rngs::StdRng) -> Vec<u8> {
    use rand::Rng;
    (0..len)
        .map(|_| {
            if rng.gen_bool(dirt) {
                [b'N', b'n', b'R', b'-', b'@', b'U', 0, 0xC1][rng.gen_range(0..8)]
            } else {
                b"ACGTacgt"[rng.gen_range(0..8)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn codes_match_paper_encoding() {
        assert_eq!(Base::A.code(), Some(0b00));
        assert_eq!(Base::C.code(), Some(0b01));
        assert_eq!(Base::G.code(), Some(0b10));
        assert_eq!(Base::T.code(), Some(0b11));
        assert_eq!(Base::N.code(), None);
    }

    #[test]
    fn from_code_round_trips() {
        for base in Base::DEFINITE {
            assert_eq!(Base::from_code(base.code().unwrap()), base);
        }
    }

    #[test]
    fn ascii_round_trips_case_insensitive() {
        for (lower, upper) in [(b'a', b'A'), (b'c', b'C'), (b'g', b'G'), (b't', b'T')] {
            assert_eq!(Base::from_ascii(lower), Base::from_ascii(upper));
            assert_eq!(Base::from_ascii(upper).to_ascii(), upper);
        }
    }

    #[test]
    fn ambiguity_codes_collapse_to_n() {
        for ch in [
            b'R', b'Y', b'S', b'W', b'K', b'M', b'B', b'D', b'H', b'V', b'N', b'-',
        ] {
            assert_eq!(Base::from_ascii(ch), Base::N);
        }
    }

    #[test]
    fn complement_is_an_involution() {
        for base in [Base::A, Base::C, Base::G, Base::T, Base::N] {
            assert_eq!(base.complement().complement(), base);
        }
    }

    #[test]
    fn complement_pairs() {
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::C.complement(), Base::G);
    }

    #[test]
    fn reverse_complement_of_palindrome() {
        assert_eq!(reverse_complement(b"ACGT"), b"ACGT".to_vec());
        assert_eq!(reverse_complement(b"AACC"), b"GGTT".to_vec());
    }

    #[test]
    fn undefined_counting() {
        assert!(has_undefined(b"ACGNT"));
        assert!(!has_undefined(b"acgt"));
    }

    /// `valid` applied to every byte of a little-endian step, as a classifier
    /// mask: the high bit of every rejected byte.
    fn reference_flags(step: [u8; 8], valid: impl Fn(u8) -> bool) -> u64 {
        (0..8)
            .filter(|&k| !valid(step[k]))
            .fold(0, |mask, k| mask | 0x80 << (8 * k))
    }

    fn is_uppercase_base(b: u8) -> bool {
        matches!(b, b'A' | b'C' | b'G' | b'T')
    }

    /// Every byte value at every offset of a step whose other seven bytes
    /// are one letter of `ACGTacgt`. Each fill matches one classifier target
    /// on both sides of the tested byte, where a zero-byte test that borrows
    /// across bytes would hide an invalid byte (`@` next to `A`, `B` next to
    /// `C`).
    #[test]
    fn classifiers_match_their_per_byte_definitions_at_every_offset() {
        for fill in *b"ACGTacgt" {
            for offset in 0..8 {
                for value in 0..=u8::MAX {
                    let mut step = [fill; 8];
                    step[offset] = value;
                    let bytes = u64::from_le_bytes(step);
                    assert_eq!(
                        undefined_bytes8(bytes),
                        reference_flags(step, is_valid_base),
                        "{step:?}"
                    );
                    assert_eq!(
                        non_acgt_bytes8(bytes),
                        reference_flags(step, is_uppercase_base),
                        "{step:?}"
                    );
                    assert_eq!(
                        undefined_bytes8(u64::from_be_bytes(step)),
                        reference_flags(step, is_valid_base).swap_bytes(),
                        "{step:?}"
                    );
                }
            }
        }
    }

    /// The scans agree with their per-byte definitions on every length
    /// around a step or word boundary, with one invalid byte at each
    /// position, and on random mixes.
    #[test]
    fn scans_match_their_per_byte_definitions() {
        let mut rng = StdRng::seed_from_u64(0x5EA1);
        let check = |seq: &[u8]| {
            assert_eq!(
                has_undefined(seq),
                seq.iter().any(|&b| !is_valid_base(b)),
                "{seq:?}"
            );
            assert_eq!(
                is_uppercase_acgt(seq),
                seq.iter().all(|&b| is_uppercase_base(b)),
                "{seq:?}"
            );
        };
        for &len in SWAR_TEST_LENGTHS {
            for dirt in [0.0, 0.02, 0.3] {
                for _ in 0..20 {
                    check(&random_mix(len, dirt, &mut rng));
                }
            }
            for pos in 0..len {
                let mut seq: Vec<u8> = (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
                check(&seq);
                seq[pos] = b'N';
                check(&seq);
                seq[pos] = b'a';
                check(&seq);
            }
        }
    }

    /// Both packers against the per-byte codes: the lane packer's
    /// `(byte >> 1) & 3`, LSB-first, and the paper's `Base::code`, MSB-first
    /// with a flagged byte packed as `A`.
    #[test]
    fn packers_match_their_per_byte_definitions() {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for _ in 0..2_000 {
            let mut step = [0u8; 8];
            step.copy_from_slice(&random_mix(8, 0.2, &mut rng));
            let lanes = (0..8).fold(0, |word, i| word | u64::from((step[i] >> 1) & 3) << (2 * i));
            assert_eq!(pack8_ascii(u64::from_le_bytes(step)), lanes, "{step:?}");
            let paper = (0..8).fold(0, |word, i| {
                let code = encode_base(step[i]).unwrap_or(0);
                word | u16::from(code) << (14 - 2 * i)
            });
            let bytes = u64::from_be_bytes(step);
            assert_eq!(
                pack8_codes(bytes, undefined_bytes8(bytes)),
                paper,
                "{step:?}"
            );
        }
    }

    #[test]
    fn short_steps_pad_with_a() {
        assert_eq!(step8(b"CG"), *b"CGAAAAAA");
        assert_eq!(step8(b""), [b'A'; 8]);
        assert_eq!(pack8_ascii(u64::from_le_bytes(step8(b"T"))), 0b10);
    }

    #[test]
    fn encode_decode_scalar() {
        for &ch in b"ACGT" {
            let code = encode_base(ch).unwrap();
            assert_eq!(decode_base(code), ch);
        }
        assert_eq!(encode_base(b'N'), None);
    }
}
