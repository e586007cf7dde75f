//! Property tests: the bit and signal codecs roundtrip for arbitrary valid
//! inputs.

use ivnt_protocol::bits::{self, ByteOrder};
use ivnt_protocol::signal::{PhysicalValue, RawKind, SignalSpec};
use proptest::prelude::*;

proptest! {
    /// Intel insert/extract roundtrips for any in-bounds geometry.
    #[test]
    fn intel_bit_roundtrip(
        start in 0u16..48,
        len in 1u16..17,
        value in any::<u64>(),
    ) {
        let mut data = [0u8; 8];
        let masked = value & ((1u64 << len) - 1);
        bits::insert(&mut data, start, len, ByteOrder::Intel, masked).unwrap();
        prop_assert_eq!(bits::extract(&data, start, len, ByteOrder::Intel).unwrap(), masked);
    }

    /// Motorola insert/extract roundtrips when the sawtooth stays in bounds.
    #[test]
    fn motorola_bit_roundtrip(
        byte in 0u16..6,
        bit in 0u16..8,
        len in 1u16..17,
        value in any::<u64>(),
    ) {
        let start = byte * 8 + bit;
        let mut data = [0u8; 8];
        let masked = value & ((1u64 << len) - 1);
        if bits::insert(&mut data, start, len, ByteOrder::Motorola, masked).is_ok() {
            prop_assert_eq!(
                bits::extract(&data, start, len, ByteOrder::Motorola).unwrap(),
                masked
            );
        }
    }

    /// Inserting one field never disturbs a disjoint field (Intel).
    #[test]
    fn intel_insert_is_local(
        a_start in 0u16..16,
        b_start in 32u16..48,
        a_len in 1u16..16,
        b_len in 1u16..16,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let mut data = [0u8; 8];
        let am = a & ((1u64 << a_len) - 1);
        let bm = b & ((1u64 << b_len) - 1);
        bits::insert(&mut data, a_start, a_len, ByteOrder::Intel, am).unwrap();
        bits::insert(&mut data, b_start, b_len, ByteOrder::Intel, bm).unwrap();
        prop_assert_eq!(bits::extract(&data, a_start, a_len, ByteOrder::Intel).unwrap(), am);
        prop_assert_eq!(bits::extract(&data, b_start, b_len, ByteOrder::Intel).unwrap(), bm);
    }

    /// Signed extraction matches two's complement semantics.
    #[test]
    fn sign_extension_reference(len in 2u16..63, raw in any::<u64>()) {
        let masked = raw & ((1u64 << len) - 1);
        let expected = if masked >> (len - 1) == 1 {
            masked as i64 - (1i64 << len)
        } else {
            masked as i64
        };
        prop_assert_eq!(bits::sign_extend(masked, len), expected);
    }

    /// Linear-coded unsigned signals roundtrip within quantization error.
    #[test]
    fn signal_linear_roundtrip(
        raw in 0u64..65536,
        factor in prop::sample::select(vec![0.01f64, 0.1, 0.25, 0.5, 1.0, 2.0]),
        offset in -100.0f64..100.0,
    ) {
        let s = SignalSpec::builder("s", 0, 16)
            .factor(factor)
            .offset(offset)
            .build()
            .unwrap();
        let phys = factor * raw as f64 + offset;
        let mut payload = [0u8; 2];
        s.encode(&mut payload, &PhysicalValue::Num(phys)).unwrap();
        let decoded = s.decode(&payload).unwrap().as_num().unwrap();
        prop_assert!((decoded - phys).abs() <= factor / 2.0 + 1e-9);
    }

    /// Signed signals roundtrip exactly on raw grid points.
    #[test]
    fn signal_signed_roundtrip(raw in -128i64..128) {
        let s = SignalSpec::builder("t", 0, 8)
            .raw_kind(RawKind::Signed)
            .build()
            .unwrap();
        let mut payload = [0u8; 1];
        s.encode(&mut payload, &PhysicalValue::Num(raw as f64)).unwrap();
        prop_assert_eq!(s.decode(&payload).unwrap().as_num(), Some(raw as f64));
    }
}
