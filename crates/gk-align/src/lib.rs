//! # gk-align
//!
//! Alignment and edit-distance substrate for the GateKeeper-GPU reproduction.
//!
//! The paper leans on two alignment components that are external tools in the
//! original work and are re-implemented here from scratch:
//!
//! * **Edlib** is the ground truth for every accuracy table — its global alignment
//!   mode computes the exact Levenshtein distance of each pair. Edlib implements
//!   Myers' bit-vector algorithm; [`myers`] provides the same algorithm (one
//!   128-bit word, or blocks for longer patterns), and [`dp`] provides the
//!   straightforward dynamic-programming computation used to cross-check it.
//! * **Verification** in mrFAST is an edit-distance check against the error
//!   threshold, followed by alignment for reporting. The same bit-vector kernel
//!   with a bound, [`dp::banded_levenshtein`], stops as soon as a pair can no
//!   longer be within the threshold; the global traceback aligner in [`nw`]
//!   covers reporting, with CIGAR output in [`cigar`].
//!
//! Everything operates on plain ASCII `&[u8]` sequences so the crate is usable both
//! on raw reads and on segments extracted from a reference genome.

#![warn(missing_docs)]

pub mod cigar;
pub mod dp;
pub mod myers;
pub mod nw;

pub use cigar::{Cigar, CigarOp};
pub use dp::{banded_levenshtein, levenshtein};
pub use myers::edit_distance;
pub use nw::{needleman_wunsch, GlobalAlignment, ScoringScheme};
