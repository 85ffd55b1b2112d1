//! # gk-mapper
//!
//! A seed-and-extend short-read mapper in the mould of mrFAST, used for the
//! whole-genome experiments of the paper (§3.5, §5.3).
//!
//! mrFAST is a *fully sensitive* mapper: seeding enumerates every candidate
//! location that could possibly align within the error threshold, and verification
//! (a bounded edit distance, Myers' bit-vector algorithm with a cut-off at the
//! threshold) decides which candidates are real mappings. Because
//! seeding over-produces candidates by orders of magnitude, the verification stage
//! dominates the runtime — which is exactly the stage GateKeeper-GPU shields.
//!
//! The crate provides:
//!
//! * [`index`] — a flat k-mer index over the reference (counting-sorted
//!   positions behind a bucket table);
//! * [`seeding`] — candidate generation by non-overlapping k-mer seeds on both
//!   strands (the e+1 partition strategy);
//! * [`pipeline`] — the full mapper: batching, the pre-alignment-filter hook
//!   (none / any host filter / GateKeeper-GPU), verification, and the
//!   mapping statistics the paper reports (mappings, mapped reads, verification
//!   pairs, rejected pairs, stage timings);
//! * [`record`] — mapping records with CIGARs.

#![warn(missing_docs)]

pub mod index;
pub mod pipeline;
pub mod record;
pub mod seeding;

pub use index::KmerIndex;
pub use pipeline::{MapperConfig, MappingOutcome, MappingStats, PreFilter, ReadMapper};
pub use record::MappingRecord;
pub use seeding::{CandidateLocation, SeedingConfig};
