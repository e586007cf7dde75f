//! Property test: arbitrary generated catalogs survive a DBC export/import
//! roundtrip.

use ivnt_protocol::bits::ByteOrder;
use ivnt_protocol::catalog::Catalog;
use ivnt_protocol::dbc::{parse_dbc, to_dbc};
use ivnt_protocol::message::{MessageSpec, Protocol};
use ivnt_protocol::signal::{RawKind, SignalSpec};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct SigPlan {
    byte_slot: usize,
    width: u16,
    intel: bool,
    signed: bool,
    factor_id: usize,
    offset: i32,
    labels: usize,
}

fn arb_signal() -> impl Strategy<Value = SigPlan> {
    (
        0usize..8,
        1u16..9,
        any::<bool>(),
        any::<bool>(),
        0usize..4,
        -50i32..50,
        0usize..4,
    )
        .prop_map(
            |(byte_slot, width, intel, signed, factor_id, offset, labels)| SigPlan {
                byte_slot,
                width,
                intel,
                signed,
                factor_id,
                offset,
                labels,
            },
        )
}

fn build_catalog(plans: &[Vec<SigPlan>]) -> Catalog {
    const FACTORS: [f64; 4] = [1.0, 0.5, 0.25, 2.0];
    let mut catalog = Catalog::new();
    for (mi, signals) in plans.iter().enumerate() {
        let mut builder =
            MessageSpec::builder(100 + mi as u32, format!("M{mi}"), "B", Protocol::Can)
                .dlc(8)
                .cycle_time_ms(100 * (mi as u32 + 1));
        for (si, p) in signals.iter().enumerate() {
            // One signal per byte slot avoids overlap concerns; Motorola
            // start bit = MSB of the byte.
            let start = if p.intel {
                (p.byte_slot * 8) as u16
            } else {
                (p.byte_slot * 8 + 7) as u16
            };
            let width = p.width.min(8);
            let mut sig = SignalSpec::builder(format!("m{mi}_s{si}"), start, width)
                .byte_order(if p.intel {
                    ByteOrder::Intel
                } else {
                    ByteOrder::Motorola
                })
                .factor(FACTORS[p.factor_id])
                .offset(p.offset as f64);
            if p.labels >= 2 && !p.signed {
                let max = (1u64 << width).min(8);
                for raw in 0..(p.labels as u64).min(max) {
                    sig = sig.label(raw, format!("L{raw}"));
                }
            } else if p.signed {
                sig = sig.raw_kind(RawKind::Signed);
            }
            builder = builder.signal(sig.build().expect("valid signal"));
        }
        catalog
            .add_message(builder.build().expect("valid message"))
            .expect("unique");
    }
    catalog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dbc_roundtrip_preserves_catalog(
        plans in prop::collection::vec(
            prop::collection::vec(arb_signal(), 1..4),
            1..5,
        )
    ) {
        // Deduplicate byte slots within a message so signals don't overlap.
        let plans: Vec<Vec<SigPlan>> = plans
            .into_iter()
            .map(|mut sigs| {
                let mut used = std::collections::HashSet::new();
                sigs.retain(|s| used.insert(s.byte_slot));
                sigs
            })
            .filter(|sigs| !sigs.is_empty())
            .collect();
        prop_assume!(!plans.is_empty());

        let catalog = build_catalog(&plans);
        let text = to_dbc(&catalog, "B");
        let (reparsed, _) = parse_dbc(&text, "B").expect("reparse");

        prop_assert_eq!(reparsed.num_messages(), catalog.num_messages());
        for m in catalog.messages() {
            let rm = reparsed.message("B", m.id()).expect("message");
            prop_assert_eq!(rm.dlc(), m.dlc());
            prop_assert_eq!(rm.cycle_time_ms(), m.cycle_time_ms());
            for (a, b) in m.signals().iter().zip(rm.signals()) {
                prop_assert_eq!(a.name(), b.name());
                prop_assert_eq!(a.start_bit(), b.start_bit());
                prop_assert_eq!(a.bit_len(), b.bit_len());
                prop_assert_eq!(a.byte_order(), b.byte_order());
                prop_assert_eq!(a.raw_kind(), b.raw_kind());
                prop_assert_eq!(a.factor(), b.factor());
                prop_assert_eq!(a.offset(), b.offset());
                prop_assert_eq!(a.enumeration(), b.enumeration());
                // Decoding agrees on an arbitrary payload.
                let payload = [0xA5u8, 0x5A, 0x0F, 0xF0, 0x33, 0xCC, 0x01, 0x80];
                let da = a.decode(&payload);
                let db = b.decode(&payload);
                match (da, db) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                    (Err(_), Err(_)) => {}
                    other => prop_assert!(false, "decode disagreement: {other:?}"),
                }
            }
        }
    }
}
