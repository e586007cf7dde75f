//! SOME/IP messages (service-oriented payloads with optional fields).

use bytes::Bytes;

use crate::error::{Error, Result};

/// SOME/IP message type field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageType {
    /// Fire-and-forget request.
    Notification,
    /// Request expecting a response.
    Request,
    /// Response to a request.
    Response,
    /// Error response.
    Error,
}

impl MessageType {
    fn to_byte(self) -> u8 {
        match self {
            MessageType::Request => 0x00,
            MessageType::Notification => 0x02,
            MessageType::Response => 0x80,
            MessageType::Error => 0x81,
        }
    }

    fn from_byte(b: u8) -> Result<MessageType> {
        Ok(match b {
            0x00 => MessageType::Request,
            0x02 => MessageType::Notification,
            0x80 => MessageType::Response,
            0x81 => MessageType::Error,
            other => {
                return Err(Error::InvalidSpec(format!(
                    "unknown SOME/IP message type {other:#04x}"
                )))
            }
        })
    }
}

/// A SOME/IP message: the standard 16-byte header plus payload.
///
/// The *message id* (service id « 16 | method id) plays the role of the
/// paper's `m_id` on SOME/IP channels.
///
/// # Examples
///
/// ```
/// use ivnt_protocol::someip::{MessageType, SomeIpMessage};
///
/// # fn main() -> ivnt_protocol::Result<()> {
/// let msg = SomeIpMessage::new(0x00D4, 0x0001, MessageType::Notification, &[0x0A, 0x0B]);
/// let wire = msg.to_wire();
/// let parsed = SomeIpMessage::from_wire(&wire)?;
/// assert_eq!(parsed.message_id(), msg.message_id());
/// assert_eq!(parsed.payload(), &[0x0A, 0x0B]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SomeIpMessage {
    service_id: u16,
    method_id: u16,
    client_id: u16,
    session_id: u16,
    interface_version: u8,
    message_type: MessageType,
    return_code: u8,
    payload: Bytes,
}

/// SOME/IP protocol version carried in every header.
pub const PROTOCOL_VERSION: u8 = 0x01;
/// Header length in bytes (after the length field's own coverage begins).
pub const HEADER_LEN: usize = 16;

impl SomeIpMessage {
    /// Creates a notification/request message.
    pub fn new(
        service_id: u16,
        method_id: u16,
        message_type: MessageType,
        payload: &[u8],
    ) -> SomeIpMessage {
        SomeIpMessage {
            service_id,
            method_id,
            client_id: 0,
            session_id: 0,
            interface_version: 1,
            message_type,
            return_code: 0,
            payload: Bytes::copy_from_slice(payload),
        }
    }

    /// Combined message id: `service_id << 16 | method_id`.
    pub fn message_id(&self) -> u32 {
        (self.service_id as u32) << 16 | self.method_id as u32
    }

    /// Service identifier.
    pub fn service_id(&self) -> u16 {
        self.service_id
    }

    /// Method/event identifier.
    pub fn method_id(&self) -> u16 {
        self.method_id
    }

    /// Message type field.
    pub fn message_type(&self) -> MessageType {
        self.message_type
    }

    /// The payload bytes following the header.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Sets the request id (client and session).
    pub fn with_request_id(mut self, client_id: u16, session_id: u16) -> SomeIpMessage {
        self.client_id = client_id;
        self.session_id = session_id;
        self
    }

    /// Serializes to the standard SOME/IP on-wire layout (big endian).
    pub fn to_wire(&self) -> Vec<u8> {
        let length = 8 + self.payload.len() as u32; // request id .. payload
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&self.service_id.to_be_bytes());
        out.extend_from_slice(&self.method_id.to_be_bytes());
        out.extend_from_slice(&length.to_be_bytes());
        out.extend_from_slice(&self.client_id.to_be_bytes());
        out.extend_from_slice(&self.session_id.to_be_bytes());
        out.push(PROTOCOL_VERSION);
        out.push(self.interface_version);
        out.push(self.message_type.to_byte());
        out.push(self.return_code);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses the wire layout of [`SomeIpMessage::to_wire`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::TruncatedFrame`] when shorter than the header or the
    /// declared length, and [`Error::InvalidSpec`] for unknown protocol
    /// versions or message types.
    pub fn from_wire(wire: &[u8]) -> Result<SomeIpMessage> {
        if wire.len() < HEADER_LEN {
            return Err(Error::TruncatedFrame {
                expected: HEADER_LEN,
                actual: wire.len(),
            });
        }
        let service_id = u16::from_be_bytes([wire[0], wire[1]]);
        let method_id = u16::from_be_bytes([wire[2], wire[3]]);
        let length = u32::from_be_bytes([wire[4], wire[5], wire[6], wire[7]]) as usize;
        if length < 8 || wire.len() < 8 + length {
            return Err(Error::TruncatedFrame {
                expected: 8 + length.max(8),
                actual: wire.len(),
            });
        }
        let client_id = u16::from_be_bytes([wire[8], wire[9]]);
        let session_id = u16::from_be_bytes([wire[10], wire[11]]);
        if wire[12] != PROTOCOL_VERSION {
            return Err(Error::InvalidSpec(format!(
                "unsupported SOME/IP protocol version {:#04x}",
                wire[12]
            )));
        }
        let interface_version = wire[13];
        let message_type = MessageType::from_byte(wire[14])?;
        let return_code = wire[15];
        let payload = Bytes::copy_from_slice(&wire[16..8 + length]);
        Ok(SomeIpMessage {
            service_id,
            method_id,
            client_id,
            session_id,
            interface_version,
            message_type,
            return_code,
            payload,
        })
    }
}

/// An optional-field payload: the first byte is a presence bitmask gating up
/// to eight fixed-width fields that follow in mask-bit order.
///
/// This models the paper's SOME/IP peculiarity that "values of preceding
/// bytes define the presence of a signal type in succeeding bytes": a field's
/// byte position in the payload depends on which earlier fields are present.
///
/// # Examples
///
/// ```
/// use ivnt_protocol::someip::OptionalFieldLayout;
///
/// # fn main() -> ivnt_protocol::Result<()> {
/// // Three optional 2-byte fields.
/// let layout = OptionalFieldLayout::new(vec![2, 2, 2]);
/// let payload = layout.encode(&[Some(&[0x01, 0x02]), None, Some(&[0x05, 0x06])])?;
/// assert_eq!(payload[0], 0b101); // presence mask
/// assert_eq!(layout.decode_field(&payload, 2)?, Some(vec![0x05, 0x06]));
/// assert_eq!(layout.decode_field(&payload, 1)?, None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptionalFieldLayout {
    field_sizes: Vec<usize>,
}

impl OptionalFieldLayout {
    /// Creates a layout with the given per-field byte widths (max 8 fields).
    ///
    /// # Panics
    ///
    /// Panics if more than 8 fields are declared.
    pub fn new(field_sizes: Vec<usize>) -> OptionalFieldLayout {
        assert!(field_sizes.len() <= 8, "presence mask covers 8 fields");
        OptionalFieldLayout { field_sizes }
    }

    /// Encodes present fields after a presence-mask byte.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpec`] when the slice count differs from the
    /// layout or a present field has the wrong width.
    pub fn encode(&self, fields: &[Option<&[u8]>]) -> Result<Vec<u8>> {
        if fields.len() != self.field_sizes.len() {
            return Err(Error::InvalidSpec(format!(
                "layout has {} fields, got {}",
                self.field_sizes.len(),
                fields.len()
            )));
        }
        let mut mask = 0u8;
        let mut out = vec![0u8];
        for (i, (field, &size)) in fields.iter().zip(&self.field_sizes).enumerate() {
            if let Some(data) = field {
                if data.len() != size {
                    return Err(Error::InvalidSpec(format!(
                        "field {i} expects {size} bytes, got {}",
                        data.len()
                    )));
                }
                mask |= 1 << i;
                out.extend_from_slice(data);
            }
        }
        out[0] = mask;
        Ok(out)
    }

    /// Byte offset of `field` within `payload`, or `None` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TruncatedFrame`] for an empty payload and
    /// [`Error::InvalidSpec`] for an out-of-range field index.
    pub fn field_offset(&self, payload: &[u8], field: usize) -> Result<Option<usize>> {
        if payload.is_empty() {
            return Err(Error::TruncatedFrame {
                expected: 1,
                actual: 0,
            });
        }
        if field >= self.field_sizes.len() {
            return Err(Error::InvalidSpec(format!(
                "field index {field} outside layout of {}",
                self.field_sizes.len()
            )));
        }
        let mask = payload[0];
        if mask & (1 << field) == 0 {
            return Ok(None);
        }
        let mut offset = 1usize;
        for i in 0..field {
            if mask & (1 << i) != 0 {
                offset += self.field_sizes[i];
            }
        }
        Ok(Some(offset))
    }

    /// Decodes `field` from `payload`, or `None` when absent.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OptionalFieldLayout::field_offset`], plus
    /// [`Error::TruncatedFrame`] when the payload ends inside the field.
    pub fn decode_field(&self, payload: &[u8], field: usize) -> Result<Option<Vec<u8>>> {
        let Some(offset) = self.field_offset(payload, field)? else {
            return Ok(None);
        };
        let size = self.field_sizes[field];
        if payload.len() < offset + size {
            return Err(Error::TruncatedFrame {
                expected: offset + size,
                actual: payload.len(),
            });
        }
        Ok(Some(payload[offset..offset + size].to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip() {
        let m = SomeIpMessage::new(0x00D4, 0x0001, MessageType::Notification, &[1, 2, 3])
            .with_request_id(0x1111, 0x0007);
        let parsed = SomeIpMessage::from_wire(&m.to_wire()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.message_id(), 0x00D4_0001);
    }

    #[test]
    fn truncated_and_bad_version() {
        assert!(matches!(
            SomeIpMessage::from_wire(&[0; 10]),
            Err(Error::TruncatedFrame { .. })
        ));
        let m = SomeIpMessage::new(1, 2, MessageType::Request, &[]);
        let mut wire = m.to_wire();
        wire[12] = 0x42;
        assert!(matches!(
            SomeIpMessage::from_wire(&wire),
            Err(Error::InvalidSpec(_))
        ));
        let mut wire = m.to_wire();
        wire[14] = 0x55;
        assert!(SomeIpMessage::from_wire(&wire).is_err());
    }

    #[test]
    fn declared_length_enforced() {
        let m = SomeIpMessage::new(1, 2, MessageType::Response, &[9, 9, 9]);
        let wire = m.to_wire();
        assert!(matches!(
            SomeIpMessage::from_wire(&wire[..wire.len() - 1]),
            Err(Error::TruncatedFrame { .. })
        ));
    }

    #[test]
    fn optional_fields_shift_with_presence() {
        let layout = OptionalFieldLayout::new(vec![1, 2, 1]);
        // All present: field 2 at offset 1+1+2 = 4.
        let p = layout
            .encode(&[Some(&[0xAA]), Some(&[0xBB, 0xCC]), Some(&[0xDD])])
            .unwrap();
        assert_eq!(layout.field_offset(&p, 2).unwrap(), Some(4));
        // Field 1 absent: field 2 moves to offset 2.
        let p = layout
            .encode(&[Some(&[0xAA]), None, Some(&[0xDD])])
            .unwrap();
        assert_eq!(layout.field_offset(&p, 2).unwrap(), Some(2));
        assert_eq!(layout.decode_field(&p, 2).unwrap(), Some(vec![0xDD]));
        assert_eq!(layout.decode_field(&p, 1).unwrap(), None);
    }

    #[test]
    fn optional_field_validation() {
        let layout = OptionalFieldLayout::new(vec![2]);
        assert!(layout.encode(&[Some(&[1])]).is_err());
        assert!(layout.encode(&[]).is_err());
        assert!(layout.decode_field(&[], 0).is_err());
        let p = layout.encode(&[Some(&[1, 2])]).unwrap();
        assert!(layout.decode_field(&p, 5).is_err());
        assert!(layout.decode_field(&p[..2], 0).is_err());
    }
}
