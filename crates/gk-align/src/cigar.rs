//! CIGAR strings describing alignments.
//!
//! Mappers report verified alignments in SAM format, whose CIGAR column encodes the
//! sequence of matches/mismatches, insertions and deletions. The traceback aligner
//! in [`crate::nw`] produces a [`Cigar`]; the mapper crate embeds it in its mapping
//! records.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One CIGAR operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CigarOp {
    /// Alignment match or mismatch (`M`).
    Match,
    /// Insertion to the reference (read base with no reference base, `I`).
    Insertion,
    /// Deletion from the reference (reference base with no read base, `D`).
    Deletion,
    /// Soft clip (read base not aligned, `S`).
    SoftClip,
}

impl CigarOp {
    /// SAM character for this operation.
    fn symbol(self) -> char {
        match self {
            CigarOp::Match => 'M',
            CigarOp::Insertion => 'I',
            CigarOp::Deletion => 'D',
            CigarOp::SoftClip => 'S',
        }
    }

    /// True if the operation consumes a read base.
    fn consumes_read(self) -> bool {
        matches!(
            self,
            CigarOp::Match | CigarOp::Insertion | CigarOp::SoftClip
        )
    }

    /// True if the operation consumes a reference base.
    fn consumes_reference(self) -> bool {
        matches!(self, CigarOp::Match | CigarOp::Deletion)
    }
}

/// A run-length-encoded CIGAR string.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cigar {
    ops: Vec<(u32, CigarOp)>,
}

impl Cigar {
    /// Creates an empty CIGAR.
    pub fn new() -> Cigar {
        Cigar::default()
    }

    /// Appends `count` repetitions of `op`, merging with the previous run when the
    /// operation matches.
    pub fn push(&mut self, op: CigarOp, count: u32) {
        if count == 0 {
            return;
        }
        if let Some(last) = self.ops.last_mut() {
            if last.1 == op {
                last.0 += count;
                return;
            }
        }
        self.ops.push((count, op));
    }

    /// Runs of the CIGAR in order.
    pub fn runs(&self) -> &[(u32, CigarOp)] {
        &self.ops
    }

    /// True when the CIGAR holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of read bases covered.
    pub fn read_len(&self) -> u32 {
        self.ops
            .iter()
            .filter(|(_, op)| op.consumes_read())
            .map(|(n, _)| n)
            .sum()
    }

    /// Number of reference bases covered.
    pub fn reference_len(&self) -> u32 {
        self.ops
            .iter()
            .filter(|(_, op)| op.consumes_reference())
            .map(|(n, _)| n)
            .sum()
    }

    /// Reverses the CIGAR (used when reporting reverse-strand alignments).
    pub fn reversed(&self) -> Cigar {
        Cigar {
            ops: self.ops.iter().rev().cloned().collect(),
        }
    }
}

impl fmt::Display for Cigar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ops.is_empty() {
            return f.write_str("*");
        }
        for (count, op) in &self.ops {
            write!(f, "{}{}", count, op.symbol())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_merges_adjacent_runs() {
        let mut c = Cigar::new();
        c.push(CigarOp::Match, 10);
        c.push(CigarOp::Match, 5);
        c.push(CigarOp::Insertion, 1);
        c.push(CigarOp::Match, 3);
        assert_eq!(c.runs().len(), 3);
        assert_eq!(c.to_string(), "15M1I3M");
    }

    #[test]
    fn zero_count_is_ignored() {
        let mut c = Cigar::new();
        c.push(CigarOp::Match, 0);
        assert!(c.is_empty());
        assert_eq!(c.to_string(), "*");
    }

    #[test]
    fn read_and_reference_lengths() {
        let mut c = Cigar::new();
        c.push(CigarOp::SoftClip, 2);
        c.push(CigarOp::Match, 10);
        c.push(CigarOp::Insertion, 3);
        c.push(CigarOp::Deletion, 4);
        c.push(CigarOp::Match, 5);
        assert_eq!(c.read_len(), 2 + 10 + 3 + 5);
        assert_eq!(c.reference_len(), 10 + 4 + 5);
    }

    #[test]
    fn reversed_reverses_run_order() {
        let mut c = Cigar::new();
        c.push(CigarOp::Match, 4);
        c.push(CigarOp::Deletion, 1);
        c.push(CigarOp::Match, 6);
        assert_eq!(c.reversed().to_string(), "6M1D4M");
    }

    #[test]
    fn op_consumption_flags() {
        assert!(CigarOp::Match.consumes_read() && CigarOp::Match.consumes_reference());
        assert!(CigarOp::Insertion.consumes_read() && !CigarOp::Insertion.consumes_reference());
        assert!(!CigarOp::Deletion.consumes_read() && CigarOp::Deletion.consumes_reference());
        assert!(CigarOp::SoftClip.consumes_read() && !CigarOp::SoftClip.consumes_reference());
    }
}
