//! DNA alphabet and the 2-bit base encoding used throughout GateKeeper.
//!
//! GateKeeper encodes each base in two bits (`A=00, C=01, G=10, T=11`, §2.1 of the
//! paper). The unknown base call `N` is *not* representable in two bits; pairs that
//! contain an `N` are called *undefined* and are passed through the filter
//! unfiltered (§3.3). This module provides the scalar encoding primitives; the
//! packed word-level representation lives in [`crate::packed`].

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

/// Returns true if the ASCII sequence contains any base outside `ACGT`.
pub fn has_undefined(seq: &[u8]) -> bool {
    seq.iter().any(|&b| !is_valid_base(b))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn encode_decode_scalar() {
        for &ch in b"ACGT" {
            let code = encode_base(ch).unwrap();
            assert_eq!(decode_base(code), ch);
        }
        assert_eq!(encode_base(b'N'), None);
    }
}
