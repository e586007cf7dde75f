//! Error type for the trace store.
//!
//! Corruption is reported through *typed* variants — a damaged fleet
//! recording must surface as a diagnosable error, never a panic, and the
//! caller must be able to distinguish "not a store file" ([`Error::BadMagic`])
//! from "store file with a damaged region" ([`Error::ChunkChecksum`],
//! [`Error::FooterChecksum`], [`Error::Truncated`]).

use std::fmt;

/// Result alias used throughout [`ivnt_store`](crate).
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by writing, opening and scanning store files.
#[derive(Debug)]
pub enum Error {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the store magic — not a store file.
    BadMagic,
    /// The file ends before a structurally required region.
    Truncated(String),
    /// A chunk's stored checksum disagrees with its bytes.
    ChunkChecksum {
        /// Index of the damaged chunk in the footer index.
        chunk: usize,
    },
    /// The footer's stored checksum disagrees with its bytes.
    FooterChecksum,
    /// Structurally well-placed but semantically invalid bytes
    /// (overlong varint, unknown protocol tag, out-of-range dictionary
    /// reference, ...).
    Format(String),
    /// Failure converting decoded chunks into tabular batches.
    Frame(ivnt_frame::Error),
    /// A sealed store whose chunks are not group frames — written before
    /// every store was framed. It reads, but cannot be followed.
    Unframed,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "store i/o error: {e}"),
            Error::BadMagic => write!(f, "not a trace store file (bad magic)"),
            Error::Truncated(what) => write!(f, "truncated store file: {what}"),
            Error::ChunkChecksum { chunk } => {
                write!(f, "chunk {chunk} failed its checksum (corrupt data)")
            }
            Error::FooterChecksum => write!(f, "footer failed its checksum (corrupt index)"),
            Error::Format(msg) => write!(f, "malformed store file: {msg}"),
            Error::Frame(e) => write!(f, "frame error: {e}"),
            Error::Unframed => write!(
                f,
                "sealed store without group frames (written before every store was framed): \
                 it reads, but cannot be followed; compact it to rewrite it framed"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<ivnt_frame::Error> for Error {
    fn from(e: ivnt_frame::Error) -> Self {
        Error::Frame(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        assert_eq!(
            Error::ChunkChecksum { chunk: 3 }.to_string(),
            "chunk 3 failed its checksum (corrupt data)"
        );
        assert!(Error::BadMagic.source().is_none());
        let io = Error::from(std::io::Error::other("x"));
        assert!(io.source().is_some());
    }
}
