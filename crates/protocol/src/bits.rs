//! Bit-level extraction and insertion of raw signal values.
//!
//! In-vehicle protocols pack several signals into one payload at arbitrary
//! bit positions. Two start-bit conventions are in industry use (both
//! supported here, matching DBC semantics):
//!
//! * **Intel (little endian)** — `start_bit` addresses the signal's least
//!   significant bit; successive bits walk towards higher bit positions.
//! * **Motorola (big endian)** — `start_bit` addresses the signal's *most*
//!   significant bit; successive bits walk down within a byte and then jump
//!   to bit 7 of the following byte (the classic "sawtooth").
//!
//! Bit `p` addresses byte `p / 8`, bit `p % 8` with LSB-first numbering
//! inside each byte.

use crate::error::{Error, Result};

/// Byte order (start-bit convention) of a packed signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ByteOrder {
    /// Little endian; start bit = LSB.
    Intel,
    /// Big endian; start bit = MSB ("sawtooth" walk).
    Motorola,
}

fn check(start_bit: u16, bit_len: u16, payload_len: usize, order: ByteOrder) -> Result<()> {
    if bit_len == 0 || bit_len > 64 {
        return Err(Error::InvalidBitLength(bit_len));
    }
    let out_of_bounds = Error::BitRangeOutOfBounds {
        start_bit,
        bit_len,
        payload_len,
    };
    match order {
        ByteOrder::Intel => {
            let end = start_bit as usize + bit_len as usize;
            if end > payload_len * 8 {
                return Err(out_of_bounds);
            }
        }
        ByteOrder::Motorola => {
            // Walk the sawtooth to find the final bit position.
            let mut pos = start_bit as usize;
            if pos >= payload_len * 8 {
                return Err(out_of_bounds);
            }
            for _ in 1..bit_len {
                pos = if pos.is_multiple_of(8) {
                    pos + 15
                } else {
                    pos - 1
                };
                if pos >= payload_len * 8 {
                    return Err(out_of_bounds);
                }
            }
        }
    }
    Ok(())
}

#[inline]
fn get_bit(data: &[u8], pos: usize) -> u64 {
    ((data[pos / 8] >> (pos % 8)) & 1) as u64
}

#[inline]
fn set_bit(data: &mut [u8], pos: usize, bit: u64) {
    let mask = 1u8 << (pos % 8);
    if bit != 0 {
        data[pos / 8] |= mask;
    } else {
        data[pos / 8] &= !mask;
    }
}

/// Extracts an unsigned raw value of `bit_len` bits starting at `start_bit`.
///
/// # Errors
///
/// Returns [`Error::InvalidBitLength`] for `bit_len` outside `1..=64` and
/// [`Error::BitRangeOutOfBounds`] if the range leaves the payload.
pub fn extract(data: &[u8], start_bit: u16, bit_len: u16, order: ByteOrder) -> Result<u64> {
    check(start_bit, bit_len, data.len(), order)?;
    let mut value = 0u64;
    match order {
        ByteOrder::Intel => {
            for i in 0..bit_len as usize {
                value |= get_bit(data, start_bit as usize + i) << i;
            }
        }
        ByteOrder::Motorola => {
            let mut pos = start_bit as usize;
            for _ in 0..bit_len {
                value = (value << 1) | get_bit(data, pos);
                pos = if pos.is_multiple_of(8) {
                    pos + 15
                } else {
                    pos.wrapping_sub(1)
                };
            }
        }
    }
    Ok(value)
}

/// Sign-extends `raw` interpreted as a `bit_len`-bit two's complement value.
pub fn sign_extend(raw: u64, bit_len: u16) -> i64 {
    if bit_len == 64 {
        return raw as i64;
    }
    let sign = 1u64 << (bit_len - 1);
    if raw & sign != 0 {
        (raw | !((1u64 << bit_len) - 1)) as i64
    } else {
        raw as i64
    }
}

/// Inserts the low `bit_len` bits of `value` at `start_bit`.
///
/// Bits of `value` above `bit_len` are ignored.
///
/// # Errors
///
/// Same conditions as [`extract`].
pub fn insert(
    data: &mut [u8],
    start_bit: u16,
    bit_len: u16,
    order: ByteOrder,
    value: u64,
) -> Result<()> {
    check(start_bit, bit_len, data.len(), order)?;
    match order {
        ByteOrder::Intel => {
            for i in 0..bit_len as usize {
                set_bit(data, start_bit as usize + i, (value >> i) & 1);
            }
        }
        ByteOrder::Motorola => {
            let mut pos = start_bit as usize;
            for i in (0..bit_len as usize).rev() {
                set_bit(data, pos, (value >> i) & 1);
                pos = if pos.is_multiple_of(8) {
                    pos + 15
                } else {
                    pos.wrapping_sub(1)
                };
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intel_byte_aligned() {
        let data = [0x5A, 0x01, 0xFF, 0x00];
        assert_eq!(extract(&data, 0, 8, ByteOrder::Intel).unwrap(), 0x5A);
        assert_eq!(extract(&data, 8, 8, ByteOrder::Intel).unwrap(), 0x01);
        assert_eq!(extract(&data, 0, 16, ByteOrder::Intel).unwrap(), 0x015A);
    }

    #[test]
    fn intel_unaligned() {
        // 0b1011_0100 -> bits 2..6 = 0b1101
        let data = [0b1011_0100];
        assert_eq!(extract(&data, 2, 4, ByteOrder::Intel).unwrap(), 0b1101);
    }

    #[test]
    fn motorola_byte_aligned() {
        let data = [0x12, 0x34];
        // start bit 7 (MSB of byte 0), 16 bits -> big-endian 0x1234
        assert_eq!(extract(&data, 7, 16, ByteOrder::Motorola).unwrap(), 0x1234);
    }

    #[test]
    fn motorola_sawtooth_crosses_bytes() {
        // 12-bit signal starting at bit 3 of byte 0: bits 3..0 of byte 0,
        // then bits 7..0 of byte 1.
        let data = [0b0000_1010, 0xCD];
        let v = extract(&data, 3, 12, ByteOrder::Motorola).unwrap();
        assert_eq!(v, 0b1010_1100_1101);
    }

    #[test]
    fn sign_extend_widths() {
        assert_eq!(sign_extend(0b111, 3), -1);
        assert_eq!(sign_extend(0b011, 3), 3);
        assert_eq!(sign_extend(u64::MAX, 64), -1);
    }

    #[test]
    fn insert_extract_roundtrip_intel() {
        let mut data = [0u8; 8];
        insert(&mut data, 13, 11, ByteOrder::Intel, 0x5A5).unwrap();
        assert_eq!(extract(&data, 13, 11, ByteOrder::Intel).unwrap(), 0x5A5);
    }

    #[test]
    fn insert_extract_roundtrip_motorola() {
        let mut data = [0u8; 8];
        insert(&mut data, 5, 14, ByteOrder::Motorola, 0x2B7D).unwrap();
        assert_eq!(extract(&data, 5, 14, ByteOrder::Motorola).unwrap(), 0x2B7D);
    }

    #[test]
    fn insert_does_not_clobber_neighbours() {
        let mut data = [0xFFu8; 2];
        insert(&mut data, 4, 4, ByteOrder::Intel, 0).unwrap();
        assert_eq!(data, [0x0F, 0xFF]);
    }

    #[test]
    fn bounds_checked() {
        let data = [0u8; 2];
        assert!(matches!(
            extract(&data, 10, 8, ByteOrder::Intel),
            Err(Error::BitRangeOutOfBounds { .. })
        ));
        assert!(matches!(
            extract(&data, 2, 12, ByteOrder::Motorola),
            Err(Error::BitRangeOutOfBounds { .. })
        ));
        assert!(matches!(
            extract(&data, 0, 0, ByteOrder::Intel),
            Err(Error::InvalidBitLength(0))
        ));
        assert!(matches!(
            extract(&data, 0, 65, ByteOrder::Intel),
            Err(Error::InvalidBitLength(65))
        ));
    }

    #[test]
    fn full_64_bit_roundtrip() {
        let mut data = [0u8; 8];
        insert(&mut data, 0, 64, ByteOrder::Intel, u64::MAX).unwrap();
        assert_eq!(extract(&data, 0, 64, ByteOrder::Intel).unwrap(), u64::MAX);
        let mut data = [0u8; 8];
        insert(&mut data, 7, 64, ByteOrder::Motorola, 0xDEAD_BEEF_0123_4567).unwrap();
        assert_eq!(
            extract(&data, 7, 64, ByteOrder::Motorola).unwrap(),
            0xDEAD_BEEF_0123_4567
        );
    }
}
