//! # gk-filters
//!
//! Pre-alignment filters: the improved GateKeeper algorithm of GateKeeper-GPU and
//! every baseline the paper compares against.
//!
//! A *pre-alignment filter* answers one question per (read, candidate reference
//! segment) pair: could this pair possibly align within `e` edits? Pairs that
//! cannot are rejected before the expensive dynamic-programming verification step.
//! A useful filter must never reject a pair that would verify (no false rejects)
//! and should reject as many hopeless pairs as possible (few false accepts).
//!
//! Implemented filters (all behind [`PreAlignmentFilter`], which each type
//! implements as one block method):
//!
//! | Filter | Paper | Notes |
//! |---|---|---|
//! | [`GateKeeperFilter::gpu`] | this paper | GateKeeper with the leading/trailing-bit fix of §3.4 |
//! | [`GateKeeperFilter::fpga`] | Alser et al. 2017 | original GateKeeper semantics (no boundary fix) |
//! | [`GateKeeperFilter::shd`] | Xin et al. 2015 | Shifted Hamming Distance; same mask pipeline as GateKeeper |
//! | [`MagnetFilter`] | Alser et al. 2017 (MAGNET) | greedy extraction of longest zero segments |
//! | [`ShoujiFilter`] | Alser et al. 2019 | sliding-window neighborhood-map filter |
//! | [`SneakySnakeFilter`] | Alser et al. 2020 | single-net-routing greedy, exact lower bound |
//!
//! The [`accuracy`] module evaluates any filter against the Edlib-equivalent ground
//! truth from `gk-align`, producing the false-accept / false-reject / true-reject
//! counts reported in Figure 4, Figure 5 and Supplementary Tables S.2–S.12.

#![warn(missing_docs)]

pub mod accuracy;
pub mod bitvec;
pub mod gatekeeper;
pub mod magnet;
pub mod shouji;
pub mod simd;
pub mod sneaky_snake;
pub mod traits;
pub mod words;

pub use accuracy::{evaluate_filter, evaluate_with_truth, ground_truth_distances, AccuracyReport};
pub use bitvec::BaseMask;
pub use gatekeeper::{
    gatekeeper_kernel_reference, EditCounting, GateKeeperConfig, GateKeeperFilter,
};
pub use magnet::{
    magnet_filter_block, magnet_filter_block_slices, magnet_kernel_x4,
    magnet_pair_decision_reference, MagnetFilter,
};
pub use shouji::{
    shouji_filter_block, shouji_filter_block_slices, shouji_kernel_x4,
    shouji_pair_decision_reference, ShoujiFilter,
};
pub use simd::{
    filter_blocks, gatekeeper_filter_block, gatekeeper_filter_block_packed,
    gatekeeper_filter_block_slices, gatekeeper_kernel_x4, LaneMask, SimdMode, SIMD_MODE_ENV,
};
pub use sneaky_snake::{
    sneaky_snake_filter_block, sneaky_snake_filter_block_slices, sneaky_snake_kernel_x4,
    sneaky_snake_pair_decision_reference, SneakySnakeFilter,
};
pub use traits::{decision_digest, FilterDecision, PreAlignmentFilter};
