//! The record type — the paper's byte tuple `k_b`.
//!
//! Defined here so the store sits *below* the simulator in the dependency
//! graph; `ivnt_simulator::trace::TraceRecord` is a re-export of this
//! type, so in-memory traces and store files hold the same records.

use std::sync::Arc;

use ivnt_protocol::message::Protocol;

use crate::error::{Error, Result};

/// One stored byte tuple `(t, l, b_id, m_id, m_info)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Timestamp in microseconds since recording start (`t`).
    pub timestamp_us: u64,
    /// Channel identifier (`b_id`), shared across records.
    pub bus: Arc<str>,
    /// Message identifier on that channel (`m_id`).
    pub message_id: u32,
    /// Raw payload bytes (`l`).
    pub payload: Vec<u8>,
    /// Protocol family the frame used (`m_info`).
    pub protocol: Protocol,
}

impl Record {
    /// Timestamp in seconds.
    pub fn timestamp_s(&self) -> f64 {
        self.timestamp_us as f64 / 1e6
    }
}

/// On-disk tag of a protocol family (shared with the legacy trace format).
pub fn protocol_tag(p: Protocol) -> u8 {
    match p {
        Protocol::Can => 0,
        Protocol::Lin => 1,
        Protocol::SomeIp => 2,
        Protocol::CanFd => 3,
    }
}

/// Inverse of [`protocol_tag`].
///
/// # Errors
///
/// Returns [`Error::Format`] for unknown tags.
pub fn protocol_from_tag(tag: u8) -> Result<Protocol> {
    Ok(match tag {
        0 => Protocol::Can,
        1 => Protocol::Lin,
        2 => Protocol::SomeIp,
        3 => Protocol::CanFd,
        other => return Err(Error::Format(format!("unknown protocol tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_tags_roundtrip() {
        for p in [
            Protocol::Can,
            Protocol::Lin,
            Protocol::SomeIp,
            Protocol::CanFd,
        ] {
            assert_eq!(protocol_from_tag(protocol_tag(p)).unwrap(), p);
        }
        assert!(protocol_from_tag(200).is_err());
    }

    #[test]
    fn timestamp_seconds() {
        let r = Record {
            timestamp_us: 2_500_000,
            bus: Arc::from("FC"),
            message_id: 1,
            payload: vec![],
            protocol: Protocol::Can,
        };
        assert_eq!(r.timestamp_s(), 2.5);
    }
}
