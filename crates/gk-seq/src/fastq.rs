//! Minimal FASTQ reader/writer.
//!
//! Short reads (the `ERR…`/`SRR…` sets of the paper) arrive as FASTQ. Only the
//! strict 4-line record layout is supported (`@header`, sequence, `+`, quality) —
//! the layout emitted by Illumina pipelines and by this crate's read simulator.
//! CRLF line endings are accepted, and soft-masked (lowercase) bases are
//! uppercased at parse time so the raw-ASCII filter paths, which compare bytes
//! directly, score them like their uppercase forms.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

/// A single FASTQ record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    /// Read identifier (text after `@`, up to the first whitespace).
    pub id: String,
    /// Sequence bytes.
    pub sequence: Vec<u8>,
    /// Phred+33 quality string, same length as the sequence.
    pub quality: Vec<u8>,
}

impl FastqRecord {
    /// Creates a record with a flat quality string of `I` (Phred 40).
    pub fn with_uniform_quality(id: impl Into<String>, sequence: impl Into<Vec<u8>>) -> Self {
        let sequence = sequence.into();
        let quality = vec![b'I'; sequence.len()];
        FastqRecord {
            id: id.into(),
            sequence,
            quality,
        }
    }

    /// Read length in bases.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// True when the record carries no sequence.
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }
}

/// Errors produced while parsing FASTQ input.
#[derive(Debug)]
pub enum FastqError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Record did not start with `@`.
    BadHeader {
        /// 1-based line number.
        line: usize,
    },
    /// The `+` separator line is missing.
    BadSeparator {
        /// 1-based line number.
        line: usize,
    },
    /// Quality string length does not match the sequence length.
    LengthMismatch {
        /// Identifier of the offending record.
        id: String,
    },
    /// Quality string contains a byte outside the printable Phred+33 range
    /// (`'!'`..=`'~'`). Mapping such bytes to quality 0 would silently mask
    /// malformed input, so they are rejected at parse time instead.
    InvalidQuality {
        /// Identifier of the offending record.
        id: String,
        /// The offending byte.
        byte: u8,
        /// 0-based position of the byte within the quality string.
        position: usize,
    },
    /// File ended in the middle of a record.
    TruncatedRecord {
        /// Identifier of the partial record, if the header was read.
        id: Option<String>,
    },
}

impl fmt::Display for FastqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastqError::Io(e) => write!(f, "I/O error while reading FASTQ: {e}"),
            FastqError::BadHeader { line } => write!(f, "line {line}: expected '@' header"),
            FastqError::BadSeparator { line } => write!(f, "line {line}: expected '+' separator"),
            FastqError::LengthMismatch { id } => {
                write!(
                    f,
                    "record {id}: quality length differs from sequence length"
                )
            }
            FastqError::InvalidQuality { id, byte, position } => {
                write!(
                    f,
                    "record {id}: quality byte 0x{byte:02x} at position {position} \
                     is outside the Phred+33 range '!'..='~'"
                )
            }
            FastqError::TruncatedRecord { id } => match id {
                Some(id) => write!(f, "record {id}: truncated"),
                None => write!(f, "truncated record at end of file"),
            },
        }
    }
}

impl std::error::Error for FastqError {}

impl From<io::Error> for FastqError {
    fn from(e: io::Error) -> Self {
        FastqError::Io(e)
    }
}

/// Parses all records from a reader.
pub fn read_fastq<R: Read>(reader: R) -> Result<Vec<FastqRecord>, FastqError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate();
    let mut records = Vec::new();

    while let Some((idx, line)) = lines.next() {
        let header = line?;
        let header = header.trim_end();
        if header.is_empty() {
            continue;
        }
        if !header.starts_with('@') {
            return Err(FastqError::BadHeader { line: idx + 1 });
        }
        let id = header[1..]
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_string();

        let mut sequence = match lines.next() {
            Some((_, line)) => line?.trim_end().as_bytes().to_vec(),
            None => return Err(FastqError::TruncatedRecord { id: Some(id) }),
        };
        crate::alphabet::normalize_sequence(&mut sequence);
        let (sep_idx, separator) = match lines.next() {
            Some((idx, line)) => (idx, line?),
            None => return Err(FastqError::TruncatedRecord { id: Some(id) }),
        };
        if !separator.trim_end().starts_with('+') {
            return Err(FastqError::BadSeparator { line: sep_idx + 1 });
        }
        let quality = match lines.next() {
            Some((_, line)) => line?.trim_end().as_bytes().to_vec(),
            None => return Err(FastqError::TruncatedRecord { id: Some(id) }),
        };
        if quality.len() != sequence.len() {
            return Err(FastqError::LengthMismatch { id });
        }
        // Phred+33 qualities are printable ASCII: '!' (Phred 0) through '~'
        // (Phred 93). Anything else is a malformed record, not quality 0.
        if let Some(position) = quality.iter().position(|&q| !(b'!'..=b'~').contains(&q)) {
            return Err(FastqError::InvalidQuality {
                id,
                byte: quality[position],
                position,
            });
        }
        records.push(FastqRecord {
            id,
            sequence,
            quality,
        });
    }
    Ok(records)
}

/// Reads all records from a FASTQ file on disk.
pub fn read_fastq_file(path: impl AsRef<Path>) -> Result<Vec<FastqRecord>, FastqError> {
    let file = std::fs::File::open(path)?;
    read_fastq(file)
}

/// Writes records in strict 4-line layout.
pub fn write_fastq<W: Write>(writer: &mut W, records: &[FastqRecord]) -> io::Result<()> {
    for rec in records {
        writeln!(writer, "@{}", rec.id)?;
        writer.write_all(&rec.sequence)?;
        writer.write_all(b"\n+\n")?;
        writer.write_all(&rec.quality)?;
        writer.write_all(b"\n")?;
    }
    Ok(())
}

/// Writes records to a FASTQ file on disk.
pub fn write_fastq_file(path: impl AsRef<Path>, records: &[FastqRecord]) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    write_fastq(&mut file, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_two_records() {
        let data = b"@r1 extra\nACGT\n+\nIIII\n@r2\nTTTT\n+\n!!!!\n";
        let records = read_fastq(&data[..]).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].id, "r1");
        assert_eq!(records[0].sequence, b"ACGT".to_vec());
        assert_eq!(records[1].quality, b"!!!!".to_vec());
    }

    #[test]
    fn crlf_line_endings_parse_like_lf() {
        let unix = b"@r1 extra\nACGT\n+\nIIII\n@r2\nTTTT\n+\n!!!!\n";
        let dos = b"@r1 extra\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nTTTT\r\n+\r\n!!!!\r\n";
        assert_eq!(
            read_fastq(&unix[..]).unwrap(),
            read_fastq(&dos[..]).unwrap()
        );
    }

    #[test]
    fn soft_masked_lowercase_bases_are_uppercased() {
        let data = b"@r1\nacgtn\n+\nIIIII\n";
        let records = read_fastq(&data[..]).unwrap();
        assert_eq!(records[0].sequence, b"ACGTN".to_vec());
    }

    #[test]
    fn bad_header_is_detected() {
        let data = b"r1\nACGT\n+\nIIII\n";
        assert!(matches!(
            read_fastq(&data[..]),
            Err(FastqError::BadHeader { line: 1 })
        ));
    }

    #[test]
    fn bad_separator_is_detected() {
        let data = b"@r1\nACGT\nX\nIIII\n";
        assert!(matches!(
            read_fastq(&data[..]),
            Err(FastqError::BadSeparator { line: 3 })
        ));
    }

    #[test]
    fn length_mismatch_is_detected() {
        let data = b"@r1\nACGT\n+\nIII\n";
        assert!(matches!(
            read_fastq(&data[..]),
            Err(FastqError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn truncated_record_is_detected() {
        let data = b"@r1\nACGT\n";
        assert!(matches!(
            read_fastq(&data[..]),
            Err(FastqError::TruncatedRecord { .. })
        ));
    }

    #[test]
    fn out_of_range_quality_bytes_are_rejected_not_masked() {
        // A space (0x20) is below '!' and used to be silently mapped to
        // quality 0 by `saturating_sub(33)`; it must be a parse error.
        let data = b"@r1\nACGT\n+\nII I\n";
        match read_fastq(&data[..]) {
            Err(FastqError::InvalidQuality { id, byte, position }) => {
                assert_eq!(id, "r1");
                assert_eq!(byte, b' ');
                assert_eq!(position, 2);
            }
            other => panic!("expected InvalidQuality, got {other:?}"),
        }
        // Bytes above '~' (e.g. DEL = 0x7f) are equally malformed.
        let data = b"@r1\nACGT\n+\nII\x7fI\n";
        assert!(matches!(
            read_fastq(&data[..]),
            Err(FastqError::InvalidQuality { byte: 0x7f, .. })
        ));
        // The full valid Phred+33 range still parses.
        let data = b"@r1\nACGT\n+\n!I5~\n";
        let records = read_fastq(&data[..]).unwrap();
        assert_eq!(records[0].quality, b"!I5~".to_vec());
    }

    #[test]
    fn invalid_quality_error_message_names_the_byte() {
        let err = FastqError::InvalidQuality {
            id: "r9".to_string(),
            byte: 0x1f,
            position: 4,
        };
        let message = err.to_string();
        assert!(message.contains("r9"));
        assert!(message.contains("0x1f"));
        assert!(message.contains("position 4"));
    }

    #[test]
    fn write_then_read_round_trips() {
        let records = vec![
            FastqRecord::with_uniform_quality("a", b"ACGTACGT".to_vec()),
            FastqRecord {
                id: "b".to_string(),
                sequence: b"NNNN".to_vec(),
                quality: b"!!!!".to_vec(),
            },
        ];
        let mut buf = Vec::new();
        write_fastq(&mut buf, &records).unwrap();
        assert_eq!(read_fastq(&buf[..]).unwrap(), records);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("gk_seq_fastq_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.fq");
        let records = vec![FastqRecord::with_uniform_quality("x", b"ACGT".to_vec())];
        write_fastq_file(&path, &records).unwrap();
        assert_eq!(read_fastq_file(&path).unwrap(), records);
        std::fs::remove_file(&path).ok();
    }
}
