//! # gk-align
//!
//! Alignment and edit-distance substrate for the GateKeeper-GPU reproduction.
//!
//! The paper leans on two alignment components that are external tools in the
//! original work and are re-implemented here from scratch:
//!
//! * **Edlib** is the ground truth for every accuracy table — its global alignment
//!   mode computes the exact Levenshtein distance of each pair. Edlib implements
//!   Myers' bit-vector algorithm; [`myers`] provides the same algorithm (block-based
//!   for patterns longer than 64 bases), and [`dp`] provides the straightforward
//!   dynamic-programming computation used to cross-check it.
//! * **Verification** in mrFAST is a banded edit-distance check against the error
//!   threshold, followed by alignment for reporting; [`dp::banded_levenshtein`] and
//!   the global traceback aligner in [`nw`] cover that role, with CIGAR output in
//!   [`cigar`].
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
