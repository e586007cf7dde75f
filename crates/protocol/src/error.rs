//! Error type for protocol encoding/decoding.

use std::fmt;

/// Result alias used throughout [`ivnt_protocol`](crate).
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the signal codecs and the catalog.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A signal's bit range does not fit into the payload.
    BitRangeOutOfBounds {
        /// Start bit of the offending range.
        start_bit: u16,
        /// Bit length of the offending range.
        bit_len: u16,
        /// Payload size in bytes.
        payload_len: usize,
    },
    /// A bit length outside `1..=64`.
    InvalidBitLength(u16),
    /// A physical value cannot be represented by the signal's raw coding.
    ValueOutOfRange {
        /// Signal name.
        signal: String,
        /// Offending physical value.
        value: f64,
    },
    /// A raw value has no label in the signal's enumeration.
    UnknownEnumValue {
        /// Signal name.
        signal: String,
        /// Raw value without a label.
        raw: u64,
    },
    /// A label is not part of the signal's enumeration.
    UnknownEnumLabel {
        /// Signal name.
        signal: String,
        /// Unmatched label.
        label: String,
    },
    /// A payload is shorter than its layout requires.
    TruncatedFrame {
        /// Expected minimum size in bytes.
        expected: usize,
        /// Actual size in bytes.
        actual: usize,
    },
    /// Catalog lookup failed.
    UnknownMessage {
        /// Channel identifier.
        bus: String,
        /// Message identifier.
        message_id: u32,
    },
    /// Signal lookup failed.
    UnknownSignal(String),
    /// Specification-level inconsistency (duplicate ids, overlapping bits...).
    InvalidSpec(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::BitRangeOutOfBounds {
                start_bit,
                bit_len,
                payload_len,
            } => write!(
                f,
                "bit range start={start_bit} len={bit_len} exceeds {payload_len}-byte payload"
            ),
            Error::InvalidBitLength(n) => write!(f, "bit length {n} outside 1..=64"),
            Error::ValueOutOfRange { signal, value } => {
                write!(f, "value {value} out of range for signal {signal}")
            }
            Error::UnknownEnumValue { signal, raw } => {
                write!(f, "raw value {raw} has no label for signal {signal}")
            }
            Error::UnknownEnumLabel { signal, label } => {
                write!(f, "label {label} unknown for signal {signal}")
            }
            Error::TruncatedFrame { expected, actual } => {
                write!(f, "frame truncated: need {expected} bytes, got {actual}")
            }
            Error::UnknownMessage { bus, message_id } => {
                write!(f, "no message {message_id} on channel {bus}")
            }
            Error::UnknownSignal(name) => write!(f, "unknown signal: {name}"),
            Error::InvalidSpec(msg) => write!(f, "invalid specification: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = Error::InvalidBitLength(0);
        assert_eq!(e.to_string(), "bit length 0 outside 1..=64");
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<Error>();
    }
}
