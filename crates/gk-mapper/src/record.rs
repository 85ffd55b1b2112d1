//! Mapping records.

use gk_align::cigar::Cigar;
use serde::{Deserialize, Serialize};

/// One reported alignment of a read at a verified location.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappingRecord {
    /// Read identifier.
    pub read_id: String,
    /// Reference contig name.
    pub reference_name: String,
    /// 0-based mapping position on the forward reference.
    pub position: u32,
    /// True for reverse-strand mappings.
    pub reverse: bool,
    /// Edit distance of the verified alignment.
    pub edit_distance: u32,
    /// Alignment CIGAR.
    pub cigar: Cigar,
}
