//! LEB128 varints and zigzag deltas — the store's integer codec.
//!
//! Timestamps, row indices, dictionary ids, message ids and payload lengths
//! are all small-after-delta integers; LEB128 keeps the common case at one
//! byte while still covering the full `u64` range.

use crate::error::{Error, Result};

/// Appends `v` as an LEB128 varint.
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` zigzag-mapped (so small negatives stay small) as a varint.
pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    write_u64(out, zigzag(v));
}

/// Appends `v`'s raw IEEE-754 bit pattern, little-endian.
///
/// Floats never travel as text anywhere in this codebase — a decimal
/// round-trip would quietly break bit-identity guarantees downstream
/// (NaN payloads, signed zeros, subnormals). Consumers pair this with
/// [`Cursor::read_f64_bits`].
pub fn write_f64_bits(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Maps signed to unsigned keeping small magnitudes small.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A cursor over an encoded chunk's bytes.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The bytes not yet read, without consuming them.
    pub fn peek_rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Truncated`] at end of input.
    pub fn read_u8(&mut self) -> Result<u8> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| Error::Truncated("byte expected".into()))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a fixed little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Truncated`] at end of input.
    pub fn read_u32_le(&mut self) -> Result<u32> {
        let bytes = self.read_slice(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Reads a fixed little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Truncated`] at end of input.
    pub fn read_u64_le(&mut self) -> Result<u64> {
        let bytes = self.read_slice(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Truncated`] when fewer than `n` bytes remain.
    pub fn read_slice(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| Error::Truncated(format!("{n} bytes expected")))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads an LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Truncated`] at end of input and [`Error::Format`]
    /// for varints longer than 10 bytes (not produced by any writer).
    #[inline]
    pub fn read_u64(&mut self) -> Result<u64> {
        match self.bytes.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(u64::from(byte))
            }
            _ => self.read_u64_long(),
        }
    }

    /// [`Cursor::read_u64`] past its one-byte case, over a local slice.
    fn read_u64_long(&mut self) -> Result<u64> {
        let rest = &self.bytes[self.pos..];
        let mut v: u64 = 0;
        for (i, &byte) in rest.iter().take(10).enumerate() {
            // The 10th byte may only contribute the low bit of the 64-bit
            // value; anything else overflows.
            if i == 9 && byte > 1 {
                return Err(Error::Format("varint overflows u64".into()));
            }
            v |= u64::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(v);
            }
        }
        // Ten bytes always end a varint or overflow it: fewer are left.
        Err(Error::Truncated("byte expected".into()))
    }

    /// Reads a zigzag varint.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cursor::read_u64`].
    pub fn read_i64(&mut self) -> Result<i64> {
        Ok(unzigzag(self.read_u64()?))
    }

    /// Reads a float written by [`write_f64_bits`] — bit-exact.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Truncated`] at end of input.
    pub fn read_f64_bits(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.read_u64_le()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        let samples = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &samples {
            write_u64(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf);
        for &v in &samples {
            assert_eq!(cur.read_u64().unwrap(), v);
        }
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn i64_roundtrip() {
        let samples = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        let mut buf = Vec::new();
        for &v in &samples {
            write_i64(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf);
        for &v in &samples {
            assert_eq!(cur.read_i64().unwrap(), v);
        }
    }

    #[test]
    fn truncation_and_overflow_rejected() {
        let mut cur = Cursor::new(&[0x80]);
        assert!(matches!(cur.read_u64(), Err(Error::Truncated(_))));
        // Eleven continuation bytes can never be a valid u64.
        let overlong = [0xFFu8; 11];
        let mut cur = Cursor::new(&overlong);
        assert!(matches!(cur.read_u64(), Err(Error::Format(_))));
        // A 10-byte varint whose last byte exceeds one bit overflows.
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        let mut cur = Cursor::new(&overflow);
        assert!(matches!(cur.read_u64(), Err(Error::Format(_))));
    }

    #[test]
    fn f64_bits_roundtrip_bit_exactly() {
        let specials = [
            f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::NEG_INFINITY,
            -0.0,
            f64::MIN_POSITIVE / 2.0,
            f64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &specials {
            write_f64_bits(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf);
        for &v in &specials {
            assert_eq!(cur.read_f64_bits().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn fixed_width_reads() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.read_u8().unwrap(), 7);
        assert_eq!(cur.read_u32_le().unwrap(), 0xDEAD_BEEF);
        assert_eq!(cur.read_u64_le().unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(cur.read_u8().is_err());
    }
}
