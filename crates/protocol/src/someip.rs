//! SOME/IP optional-field payloads: the presence-mask layout that
//! `ivnt-core`'s `Packing::OptionalField` rules read.

use crate::error::{Error, Result};

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
