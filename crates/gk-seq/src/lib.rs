//! # gk-seq
//!
//! Sequence substrate for the GateKeeper-GPU reproduction.
//!
//! The paper's experiments run on Illumina short reads (50–300 bp) drawn from the
//! 1000 Genomes Project mapped against GRCh37, plus reads simulated with Mason.
//! None of that data can be bundled here, so this crate provides everything needed
//! to *synthesize* workloads with the same statistical shape:
//!
//! * [`alphabet`] — the DNA alphabet, 2-bit base codes (`A=00, C=01, G=10, T=11`,
//!   exactly the encoding of GateKeeper), complements and validation helpers,
//!   and the SWAR layer that classifies and packs eight bases per step.
//! * [`packed`] — [`packed::PackedSeq`], a 2-bit packed sequence stored in `u32`
//!   words (16 bases per word; a 100 bp read occupies 7 words as in §3.3 of the
//!   paper), with encode/decode, slicing and word-level access used by the filters.
//! * [`fasta`] / [`fastq`] — minimal, dependency-free FASTA/FASTQ readers and
//!   writers for interoperability with real data when available.
//! * [`mod@reference`] — synthetic reference-genome generator with controllable repeat
//!   structure (repeats are what make seeding produce many candidate locations).
//! * [`simulate`] — a Mason-like read simulator: samples reads from a reference and
//!   injects substitutions, insertions, deletions and unknown (`N`) bases according
//!   to a configurable [`simulate::ErrorProfile`].
//! * [`pairs`] — (read, candidate reference segment) pair containers used by the
//!   filtering and accuracy experiments.
//! * [`datasets`] — generators reproducing the *edit-distance profiles* of the
//!   paper's datasets (Set 1 … Set 12, the Minimap2 and BWA-MEM candidate sets),
//!   so that every accuracy table and figure can be regenerated without access to
//!   the original read archives.
//! * [`raw`] — the raw 1-byte-per-base transfer representation of the
//!   device-side encoding path: flat stride-addressed arenas read pair by
//!   pair, as a `cudaMemcpy` of unencoded reads would move.
//! * [`stream`] — streaming pair sources: deterministic iterators of pair
//!   batches, so 30-million-pair runs never materialize a full set.
//! * [`frame`] — the length-prefixed binary wire format of the `gk-serve`
//!   filter service: request/cancel/response frames and the packed decision
//!   words clients receive.

#![warn(missing_docs)]

pub mod alphabet;
pub mod datasets;
pub mod fasta;
pub mod fastq;
pub mod frame;
pub mod packed;
pub mod pairs;
pub mod raw;
pub mod reference;
pub mod simulate;
pub mod stream;

pub use alphabet::{complement, decode_base, encode_base, is_valid_base, normalize_sequence, Base};
pub use packed::PackedSeq;
pub use pairs::{encode_pair_batch, PairSet, SequencePair};
pub use raw::RawPairBatch;
pub use reference::{Reference, ReferenceBuilder};
pub use simulate::{ErrorProfile, ReadSimulator, SimulatedRead};
pub use stream::PairBatches;
