//! Signal specifications: how a physical quantity is packed into payload bits.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::bits::{self, ByteOrder};
use crate::error::{Error, Result};

/// How the raw bit pattern is interpreted before scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RawKind {
    /// Unsigned integer.
    Unsigned,
    /// Two's complement signed integer.
    Signed,
}

/// A decoded physical signal value.
///
/// Numeric signals decode to [`PhysicalValue::Num`]; enumerated signals
/// (status words, switch positions, validity flags) decode to
/// [`PhysicalValue::Text`] labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PhysicalValue {
    /// Physical quantity after `factor * raw + offset`.
    Num(f64),
    /// Enumeration label.
    Text(String),
}

impl PhysicalValue {
    /// Numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            PhysicalValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Label payload, if this is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            PhysicalValue::Text(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for PhysicalValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysicalValue::Num(v) => write!(f, "{v}"),
            PhysicalValue::Text(s) => f.write_str(s),
        }
    }
}

/// Packing and interpretation rule for one signal within a message payload.
///
/// Mirrors a DBC signal entry: bit position/length/byte order describe the
/// packing, `factor`/`offset` the linear physical coding and an optional
/// enumeration maps raw values to labels. Construct via
/// [`SignalSpec::builder`].
///
/// # Examples
///
/// ```
/// use ivnt_protocol::signal::SignalSpec;
/// use ivnt_protocol::bits::ByteOrder;
///
/// # fn main() -> ivnt_protocol::Result<()> {
/// // Wiper position: bytes 1-2, factor 0.5 (paper's Table 1 rule v = 0.5 * l').
/// let wpos = SignalSpec::builder("wpos", 0, 16)
///     .byte_order(ByteOrder::Intel)
///     .factor(0.5)
///     .unit("deg")
///     .build()?;
/// let payload = [0x5A, 0x00, 0x01, 0x00];
/// let v = wpos.decode(&payload)?;
/// assert_eq!(v.as_num(), Some(45.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignalSpec {
    name: String,
    start_bit: u16,
    bit_len: u16,
    byte_order: ByteOrder,
    raw_kind: RawKind,
    factor: f64,
    offset: f64,
    unit: Option<String>,
    /// raw -> label; non-empty means the signal is enumerated.
    enumeration: BTreeMap<u64, String>,
    min: Option<f64>,
    max: Option<f64>,
}

impl SignalSpec {
    /// Starts building a signal with mandatory name and packing geometry.
    pub fn builder(name: impl Into<String>, start_bit: u16, bit_len: u16) -> SignalSpecBuilder {
        SignalSpecBuilder {
            spec: SignalSpec {
                name: name.into(),
                start_bit,
                bit_len,
                byte_order: ByteOrder::Intel,
                raw_kind: RawKind::Unsigned,
                factor: 1.0,
                offset: 0.0,
                unit: None,
                enumeration: BTreeMap::new(),
                min: None,
                max: None,
            },
        }
    }

    /// Signal name (the paper's `s_id`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// First bit of the packed value (convention depends on byte order).
    pub fn start_bit(&self) -> u16 {
        self.start_bit
    }

    /// Packed width in bits.
    pub fn bit_len(&self) -> u16 {
        self.bit_len
    }

    /// Packing convention.
    pub fn byte_order(&self) -> ByteOrder {
        self.byte_order
    }

    /// Raw integer interpretation.
    pub fn raw_kind(&self) -> RawKind {
        self.raw_kind
    }

    /// Linear scale factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Linear offset.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Physical unit, if declared.
    pub fn unit(&self) -> Option<&str> {
        self.unit.as_deref()
    }

    /// `true` if the signal decodes to enumeration labels.
    pub fn is_enumerated(&self) -> bool {
        !self.enumeration.is_empty()
    }

    /// The enumeration (raw → label), empty for numeric signals.
    pub fn enumeration(&self) -> &BTreeMap<u64, String> {
        &self.enumeration
    }

    /// Extracts the raw (unscaled) value from a payload.
    ///
    /// # Errors
    ///
    /// Propagates bit-range errors from [`bits::extract`].
    pub fn decode_raw(&self, payload: &[u8]) -> Result<u64> {
        bits::extract(payload, self.start_bit, self.bit_len, self.byte_order)
    }

    /// Decodes the physical value from a payload.
    ///
    /// Enumerated signals map the raw value through the enumeration;
    /// numeric ones apply `factor * raw + offset` (raw sign-extended for
    /// [`RawKind::Signed`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownEnumValue`] when an enumerated signal holds
    /// an unlabeled raw value, plus bit-range errors.
    pub fn decode(&self, payload: &[u8]) -> Result<PhysicalValue> {
        let raw = self.decode_raw(payload)?;
        if self.is_enumerated() {
            return self
                .enumeration
                .get(&raw)
                .map(|label| PhysicalValue::Text(label.clone()))
                .ok_or_else(|| Error::UnknownEnumValue {
                    signal: self.name.clone(),
                    raw,
                });
        }
        let signed = match self.raw_kind {
            RawKind::Unsigned => raw as i64 as f64,
            RawKind::Signed => bits::sign_extend(raw, self.bit_len) as f64,
        };
        let phys = if self.raw_kind == RawKind::Unsigned {
            self.factor * (raw as f64) + self.offset
        } else {
            self.factor * signed + self.offset
        };
        Ok(PhysicalValue::Num(phys))
    }

    /// Encodes a physical value into a payload.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownEnumLabel`] for unknown labels,
    /// [`Error::ValueOutOfRange`] when the scaled raw value does not fit the
    /// packed width or violates declared min/max, and bit-range errors.
    pub fn encode(&self, payload: &mut [u8], value: &PhysicalValue) -> Result<()> {
        let raw = self.raw_for(value)?;
        bits::insert(payload, self.start_bit, self.bit_len, self.byte_order, raw)
    }

    /// Computes the raw bit pattern for a physical value without writing it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SignalSpec::encode`].
    pub fn raw_for(&self, value: &PhysicalValue) -> Result<u64> {
        match value {
            PhysicalValue::Text(label) => {
                if let Some((raw, _)) = self.enumeration.iter().find(|(_, l)| *l == label) {
                    Ok(*raw)
                } else {
                    Err(Error::UnknownEnumLabel {
                        signal: self.name.clone(),
                        label: label.clone(),
                    })
                }
            }
            PhysicalValue::Num(v) => {
                if let (Some(lo), true) = (self.min, self.min.is_some()) {
                    if *v < lo {
                        return Err(Error::ValueOutOfRange {
                            signal: self.name.clone(),
                            value: *v,
                        });
                    }
                }
                if let Some(hi) = self.max {
                    if *v > hi {
                        return Err(Error::ValueOutOfRange {
                            signal: self.name.clone(),
                            value: *v,
                        });
                    }
                }
                let scaled = (v - self.offset) / self.factor;
                let rounded = scaled.round();
                let fits = match self.raw_kind {
                    RawKind::Unsigned => {
                        let max = if self.bit_len >= 64 {
                            u64::MAX as f64
                        } else {
                            ((1u128 << self.bit_len) - 1) as f64
                        };
                        rounded >= 0.0 && rounded <= max
                    }
                    RawKind::Signed => {
                        let half = 1i128 << (self.bit_len - 1);
                        rounded >= -(half as f64) && rounded <= (half - 1) as f64
                    }
                };
                if !fits || !rounded.is_finite() {
                    return Err(Error::ValueOutOfRange {
                        signal: self.name.clone(),
                        value: *v,
                    });
                }
                let raw = match self.raw_kind {
                    RawKind::Unsigned => rounded as u64,
                    RawKind::Signed => {
                        let mask = if self.bit_len == 64 {
                            u64::MAX
                        } else {
                            (1u64 << self.bit_len) - 1
                        };
                        (rounded as i64 as u64) & mask
                    }
                };
                Ok(raw)
            }
        }
    }
}

/// Builder for [`SignalSpec`].
#[derive(Debug, Clone)]
pub struct SignalSpecBuilder {
    spec: SignalSpec,
}

impl SignalSpecBuilder {
    /// Sets the byte order (default [`ByteOrder::Intel`]).
    pub fn byte_order(mut self, order: ByteOrder) -> Self {
        self.spec.byte_order = order;
        self
    }

    /// Sets the raw interpretation (default [`RawKind::Unsigned`]).
    pub fn raw_kind(mut self, kind: RawKind) -> Self {
        self.spec.raw_kind = kind;
        self
    }

    /// Sets the linear scale factor (default `1.0`).
    pub fn factor(mut self, factor: f64) -> Self {
        self.spec.factor = factor;
        self
    }

    /// Sets the linear offset (default `0.0`).
    pub fn offset(mut self, offset: f64) -> Self {
        self.spec.offset = offset;
        self
    }

    /// Declares the physical unit.
    pub fn unit(mut self, unit: impl Into<String>) -> Self {
        self.spec.unit = Some(unit.into());
        self
    }

    /// Declares a physical minimum.
    pub fn min(mut self, min: f64) -> Self {
        self.spec.min = Some(min);
        self
    }

    /// Declares a physical maximum.
    pub fn max(mut self, max: f64) -> Self {
        self.spec.max = Some(max);
        self
    }

    /// Adds one enumeration entry (raw → label); turns the signal into an
    /// enumerated one.
    pub fn label(mut self, raw: u64, label: impl Into<String>) -> Self {
        self.spec.enumeration.insert(raw, label.into());
        self
    }

    /// Adds many enumeration entries.
    pub fn labels<I, S>(mut self, entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, S)>,
        S: Into<String>,
    {
        for (raw, label) in entries {
            self.spec.enumeration.insert(raw, label.into());
        }
        self
    }

    /// Validates and finishes the spec.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBitLength`] for widths outside `1..=64`,
    /// and [`Error::InvalidSpec`] for a zero factor, an empty name, or
    /// enumeration raw values that cannot fit the packed width.
    pub fn build(self) -> Result<SignalSpec> {
        let s = self.spec;
        if s.bit_len == 0 || s.bit_len > 64 {
            return Err(Error::InvalidBitLength(s.bit_len));
        }
        if s.name.is_empty() {
            return Err(Error::InvalidSpec("signal name must be non-empty".into()));
        }
        if s.factor == 0.0 {
            return Err(Error::InvalidSpec(format!(
                "signal {} has zero factor",
                s.name
            )));
        }
        if s.bit_len < 64 {
            let max = (1u64 << s.bit_len) - 1;
            if let Some((&raw, _)) = s.enumeration.iter().next_back() {
                if raw > max {
                    return Err(Error::InvalidSpec(format!(
                        "signal {} enumeration value {raw} exceeds {}-bit range",
                        s.name, s.bit_len
                    )));
                }
            }
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wpos() -> SignalSpec {
        SignalSpec::builder("wpos", 0, 16)
            .factor(0.5)
            .unit("deg")
            .build()
            .unwrap()
    }

    #[test]
    fn numeric_decode_applies_factor() {
        let payload = [0x5A, 0x00];
        assert_eq!(wpos().decode(&payload).unwrap(), PhysicalValue::Num(45.0));
    }

    #[test]
    fn numeric_encode_roundtrip() {
        let s = wpos();
        let mut payload = [0u8; 2];
        s.encode(&mut payload, &PhysicalValue::Num(60.0)).unwrap();
        assert_eq!(s.decode(&payload).unwrap().as_num(), Some(60.0));
    }

    #[test]
    fn signed_signal_with_offset() {
        let s = SignalSpec::builder("temp", 0, 8)
            .raw_kind(RawKind::Signed)
            .factor(0.5)
            .offset(-40.0)
            .build()
            .unwrap();
        let mut payload = [0u8; 1];
        s.encode(&mut payload, &PhysicalValue::Num(-52.5)).unwrap();
        assert_eq!(s.decode(&payload).unwrap().as_num(), Some(-52.5));
    }

    #[test]
    fn enumerated_decode_and_encode() {
        let s = SignalSpec::builder("belt", 0, 2)
            .label(0, "OFF")
            .label(1, "ON")
            .build()
            .unwrap();
        let mut payload = [0u8; 1];
        s.encode(&mut payload, &PhysicalValue::Text("ON".into()))
            .unwrap();
        assert_eq!(
            s.decode(&payload).unwrap(),
            PhysicalValue::Text("ON".into())
        );
        payload[0] = 3;
        assert!(matches!(
            s.decode(&payload),
            Err(Error::UnknownEnumValue { .. })
        ));
        assert!(matches!(
            s.encode(&mut payload, &PhysicalValue::Text("HALF".into())),
            Err(Error::UnknownEnumLabel { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let s = wpos();
        let mut p = [0u8; 2];
        // 16 bits * factor 0.5 -> max 32767.5
        assert!(matches!(
            s.encode(&mut p, &PhysicalValue::Num(40000.0)),
            Err(Error::ValueOutOfRange { .. })
        ));
        let bounded = SignalSpec::builder("spd", 0, 16)
            .min(0.0)
            .max(300.0)
            .build()
            .unwrap();
        assert!(bounded.raw_for(&PhysicalValue::Num(301.0)).is_err());
        assert!(bounded.raw_for(&PhysicalValue::Num(-1.0)).is_err());
    }

    #[test]
    fn builder_validation() {
        assert!(SignalSpec::builder("", 0, 8).build().is_err());
        assert!(SignalSpec::builder("x", 0, 0).build().is_err());
        assert!(SignalSpec::builder("x", 0, 8).factor(0.0).build().is_err());
        assert!(SignalSpec::builder("x", 0, 2)
            .label(7, "oops")
            .build()
            .is_err());
    }

    #[test]
    fn physical_value_accessors() {
        assert_eq!(PhysicalValue::Num(1.5).as_num(), Some(1.5));
        assert_eq!(PhysicalValue::Text("a".into()).as_text(), Some("a"));
        assert_eq!(PhysicalValue::Num(1.5).as_text(), None);
        assert_eq!(PhysicalValue::Num(1.5).to_string(), "1.5");
    }
}
