//! Compiled decode plans against their scalar reference: for arbitrary
//! signal specs (start bit, width, endianness, signedness, scaling,
//! enumerations, multiplexors, SOME/IP optional-field layouts) and
//! arbitrary payloads — including
//! truncated and null ones — `DecodePlan::decode` must be bit-identical
//! to the `Rule::relevant_bytes` + `Rule::decode_relevant` scalar path,
//! reproducing its full error policy: decode errors yield null-valued
//! instances, absent multiplex cases and absent optional fields yield no
//! instance.

use std::sync::Arc;

use ivnt_core::rules::{DecodePlan, Packing, PlanDecoded, Rule, RuleInfo};
use ivnt_protocol::bits::ByteOrder;
use ivnt_protocol::signal::{PhysicalValue, RawKind, SignalSpec};
use ivnt_protocol::someip::OptionalFieldLayout;
use proptest::prelude::*;

/// A decode outcome as both sides are compared: numeric values by
/// `f64::to_bits`, so the plan may not even differ in NaN payload or
/// signed zero, and labels by content.
#[derive(Debug, PartialEq)]
enum Outcome {
    Num(u64),
    Text(String),
    Null,
    Absent,
}

/// The scalar oracle: `decode_instance`'s error policy, verbatim.
fn oracle(rule: &Rule, payload: Option<&[u8]>) -> Outcome {
    match payload {
        None => Outcome::Null,
        Some(p) => match rule.relevant_bytes(p) {
            Ok(Some(rel)) => match rule.decode_relevant(rel) {
                Ok(PhysicalValue::Num(v)) => Outcome::Num(v.to_bits()),
                Ok(PhysicalValue::Text(s)) => Outcome::Text(s),
                Err(_) => Outcome::Null,
            },
            Ok(None) => Outcome::Absent,
            Err(_) => Outcome::Null,
        },
    }
}

/// The plan's outcome, its label index resolved.
fn outcome(plan: &DecodePlan, decoded: PlanDecoded) -> Outcome {
    match decoded {
        PlanDecoded::Num(v) => Outcome::Num(v.to_bits()),
        PlanDecoded::Text(i) => Outcome::Text(plan.labels()[i as usize].to_string()),
        PlanDecoded::Null => Outcome::Null,
        PlanDecoded::Absent => Outcome::Absent,
    }
}

fn assert_bit_identical(rule: &Rule, payload: Option<&[u8]>) {
    let plan = DecodePlan::compile(&Arc::new(rule.clone()));
    let got = outcome(&plan, plan.decode(payload));
    let want = oracle(rule, payload);
    assert!(
        got == want,
        "plan {got:?} != scalar {want:?} for payload {payload:?}, rule {rule:?}"
    );
}

/// A window-relative spec. Start bits and widths deliberately range past
/// the window so out-of-range shapes (compile-time scalar fallback, decode
/// errors) are generated too.
fn spec_strategy() -> impl Strategy<Value = SignalSpec> {
    (
        0u16..40,
        1u16..=64,
        any::<bool>(),
        any::<bool>(),
        prop::sample::select(vec![1.0, 0.5, 0.125, 3.0]),
        prop::sample::select(vec![0.0, -40.0, 7.25]),
        any::<bool>(),
    )
        .prop_map(|(start, len, motorola, signed, factor, offset, labeled)| {
            let order = if motorola {
                ByteOrder::Motorola
            } else {
                ByteOrder::Intel
            };
            let mut b = SignalSpec::builder("s", start, len)
                .byte_order(order)
                .factor(factor)
                .offset(offset)
                .raw_kind(if signed {
                    RawKind::Signed
                } else {
                    RawKind::Unsigned
                });
            if labeled && len >= 2 {
                // Sparse labels: most raws miss, hitting the
                // unlabeled-value decode-error path.
                b = b.labels([(0u64, "OFF"), (1, "ON"), (3, "ERR")]);
            }
            b.build().expect("generated spec is valid")
        })
}

fn fixed_rule_strategy() -> impl Strategy<Value = Rule> {
    (0usize..3, 1usize..=9, spec_strategy()).prop_map(|(first_byte, num_bytes, spec)| Rule {
        signal: "s".to_string(),
        bus: "FC".to_string(),
        message_id: 7,
        info: RuleInfo {
            spec,
            packing: Packing::Fixed {
                first_byte,
                num_bytes,
            },
            home_channel: true,
            comparable: true,
            expected_cycle_s: None,
        },
    })
}

/// Multiplexed rules: a payload-relative selector plus a window-relative
/// body. `selector_value` is drawn small so both match and mismatch
/// (absent) instances occur against random payloads.
fn mux_rule_strategy() -> impl Strategy<Value = Rule> {
    (
        0u16..12,
        1u16..=6,
        any::<bool>(),
        0u64..8,
        0usize..3,
        1usize..=9,
        spec_strategy(),
    )
        .prop_map(
            |(sel_start, sel_len, sel_motorola, sel_value, first_byte, num_bytes, spec)| {
                let selector = SignalSpec::builder("mux", sel_start, sel_len)
                    .byte_order(if sel_motorola {
                        ByteOrder::Motorola
                    } else {
                        ByteOrder::Intel
                    })
                    .build()
                    .expect("selector spec is valid");
                let mask = (1u64 << sel_len) - 1;
                Rule {
                    signal: "s".to_string(),
                    bus: "FC".to_string(),
                    message_id: 7,
                    info: RuleInfo {
                        spec,
                        packing: Packing::Multiplexed {
                            selector,
                            selector_value: sel_value & mask,
                            first_byte,
                            num_bytes,
                        },
                        home_channel: true,
                        comparable: true,
                        expected_cycle_s: None,
                    },
                }
            },
        )
}

/// SOME/IP optional-field rules: layouts of 1–8 fields of 1–8 bytes and
/// any field index, in range or not. `OptionalFieldLayout::field_offset`
/// is the parser that reads the presence mask out of trace bytes.
fn optional_field_rule_strategy() -> impl Strategy<Value = Rule> {
    (
        prop::collection::vec(1usize..=8, 1..9),
        any::<bool>(),
        0usize..8,
        any::<usize>(),
        spec_strategy(),
    )
        .prop_map(|(sizes, in_range, near, far, spec)| Rule {
            signal: "s".to_string(),
            bus: "SOMEIP".to_string(),
            message_id: 7,
            info: RuleInfo {
                spec,
                packing: Packing::OptionalField {
                    layout: OptionalFieldLayout::new(sizes),
                    field: if in_range { near } else { far },
                },
                home_channel: true,
                comparable: true,
                expected_cycle_s: None,
            },
        })
}

/// Payloads 0–10 bytes (shorter than many generated windows, so truncation
/// is common), or null.
fn payload_strategy() -> impl Strategy<Value = Option<Vec<u8>>> {
    prop::option::of(prop::collection::vec(any::<u8>(), 0..11))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fixed_plans_match_scalar_decode(
        rule in fixed_rule_strategy(),
        payload in payload_strategy(),
    ) {
        assert_bit_identical(&rule, payload.as_deref());
    }

    #[test]
    fn multiplexed_plans_match_scalar_decode(
        rule in mux_rule_strategy(),
        payload in payload_strategy(),
    ) {
        assert_bit_identical(&rule, payload.as_deref());
    }

    #[test]
    fn optional_field_plans_match_scalar_decode(
        rule in optional_field_rule_strategy(),
        payload in prop::option::of(prop::collection::vec(any::<u8>(), 0..41)),
    ) {
        assert_bit_identical(&rule, payload.as_deref());
    }
}

/// An unaligned 64-bit field spans 9 bytes — no single `u64` load covers
/// it, so compilation must fall back to the scalar path and still agree.
#[test]
fn nine_byte_span_falls_back_to_scalar() {
    let spec = SignalSpec::builder("wide", 4, 64)
        .build()
        .expect("valid spec");
    let rule = Rule {
        signal: "wide".to_string(),
        bus: "FC".to_string(),
        message_id: 1,
        info: RuleInfo {
            spec,
            packing: Packing::Fixed {
                first_byte: 0,
                num_bytes: 9,
            },
            home_channel: true,
            comparable: true,
            expected_cycle_s: None,
        },
    };
    let payload: Vec<u8> = (0..9).collect();
    assert_bit_identical(&rule, Some(&payload));
    assert_bit_identical(&rule, Some(&payload[..5])); // truncated
    assert_bit_identical(&rule, None);
}

/// Exact enum/absent/truncation corners on a hand-built multiplexed rule.
#[test]
fn multiplexed_corners_match_scalar_decode() {
    let selector = SignalSpec::builder("mux", 0, 4).build().expect("selector");
    let body = SignalSpec::builder("gear", 0, 8)
        .labels([(1u64, "P"), (2, "R"), (3, "N"), (4, "D")])
        .build()
        .expect("body");
    let rule = Rule {
        signal: "gear".to_string(),
        bus: "FC".to_string(),
        message_id: 2,
        info: RuleInfo {
            spec: body,
            packing: Packing::Multiplexed {
                selector,
                selector_value: 5,
                first_byte: 1,
                num_bytes: 1,
            },
            home_channel: true,
            comparable: false,
            expected_cycle_s: None,
        },
    };
    let plan = DecodePlan::compile(&Arc::new(rule.clone()));
    // Selector matches, labeled raw.
    assert_eq!(
        outcome(&plan, plan.decode(Some(&[0x05, 0x02]))),
        Outcome::Text("R".into())
    );
    // Selector matches, unlabeled raw -> decode error -> null instance.
    assert_eq!(plan.decode(Some(&[0x05, 0x09])), PlanDecoded::Null);
    // Selector mismatch -> absent (no instance).
    assert_eq!(plan.decode(Some(&[0x04, 0x02])), PlanDecoded::Absent);
    // Selector readable but body truncated -> null instance.
    assert_eq!(plan.decode(Some(&[0x05])), PlanDecoded::Null);
    // Payload too short for the selector itself -> null instance.
    assert_eq!(plan.decode(Some(&[])), PlanDecoded::Null);
    // Null payload -> null instance, selector never evaluated.
    assert_eq!(plan.decode(None), PlanDecoded::Null);
    for p in [
        Some(&[0x05u8, 0x02][..]),
        Some(&[0x05, 0x09][..]),
        Some(&[0x04, 0x02][..]),
        Some(&[0x05][..]),
        Some(&[][..]),
        None,
    ] {
        assert_bit_identical(&rule, p);
    }
}
