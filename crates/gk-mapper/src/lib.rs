//! # gk-mapper
//!
//! A seed-and-extend short-read mapper in the mould of mrFAST, used for the
//! whole-genome experiments of the paper (§3.5, §5.3).
//!
//! mrFAST is a *fully sensitive* mapper: seeding enumerates every candidate
//! location that could possibly align within the error threshold, and verification
//! (a bounded edit distance, Myers' bit-vector algorithm with a cut-off at the
//! threshold) decides which candidates are real mappings. Seeding over-produces
//! candidates by orders of magnitude, and in mrFAST verifying them dominates the
//! runtime — the stage GateKeeper-GPU shields. Here the bit-vector verifier
//! bounded by the threshold is cheap enough that seeding is the largest stage
//! of a mapping pass.
//!
//! The crate provides:
//!
//! * [`index`] — a flat k-mer index over the 2-bit packed reference
//!   (counting-sorted positions behind a bucket table);
//! * [`seeding`] — candidate generation by non-overlapping k-mer seeds on both
//!   strands (the e+1 partition strategy), cut from each read's packed words;
//! * [`pipeline`] — the full mapper: batching, the pre-alignment-filter hook
//!   (none / any host filter / GateKeeper-GPU), verification, and the
//!   mapping statistics the paper reports (mappings, mapped reads, verification
//!   pairs, rejected pairs, stage timings);
//! * [`record`] — mapping records: read, position, strand and edit distance.

#![warn(missing_docs)]

pub mod index;
pub mod pipeline;
pub mod record;
pub mod seeding;

pub use index::KmerIndex;
pub use pipeline::{MapperConfig, MappingOutcome, MappingStats, PreFilter, ReadMapper};
pub use record::MappingRecord;
pub use seeding::{CandidateLocation, SeedingConfig};
