//! The fused interpretation kernel against its executable specification:
//! `extract_signals(raw)` must be *bit-identical* to
//! `interpret(&preselect(raw)?)` — same rows, same order — for arbitrary
//! catalogs, traces (including null keys, truncated payloads and unlabeled
//! raw values), rule id bands narrow and wide, partition counts and worker
//! counts.

use ivnt_core::interpret::{extract_signals, interpret, preselect};
use ivnt_core::rules::RuleSet;
use ivnt_core::tabular::{raw_schema, trace_to_frame};
use ivnt_frame::prelude::*;
use ivnt_protocol::catalog::Catalog;
use ivnt_protocol::message::{MessageSpec, Protocol};
use ivnt_protocol::signal::SignalSpec;
use proptest::prelude::*;

/// Message id of catalog slot `slot` (0-based): `slot + 1`, moved up by
/// `offset` for every slot but the first, so a non-zero offset spreads the
/// rule ids of a multi-message catalog over a band wider than the kernel's
/// cache-resident id table.
fn message_id(slot: i64, offset: i64) -> i64 {
    slot + 1 + if slot > 0 { offset } else { 0 }
}

/// A small catalog: `n_msgs` messages (ids from [`message_id`]),
/// alternating FC/DC buses, `sigs_per_msg` 12-bit signals each. Odd signal
/// slots carry sparse labels so most instances hit the unlabeled-raw
/// decode-error path.
fn catalog(n_msgs: usize, sigs_per_msg: usize, factor: f64, offset: i64) -> Catalog {
    let mut cat = Catalog::new();
    for m in 0..n_msgs {
        let id = u32::try_from(message_id(m as i64, offset)).unwrap();
        let bus = if m % 2 == 0 { "FC" } else { "DC" };
        let mut builder = MessageSpec::builder(id, format!("Msg{id}"), bus, Protocol::Can).dlc(8);
        for k in 0..sigs_per_msg {
            let name = format!("s{m}_{k}");
            let start_bit = (k * 16) as u16;
            let sig = if k % 2 == 1 {
                SignalSpec::builder(&name, start_bit, 12)
                    .labels([(0u64, "A"), (1, "B"), (2, "C")])
                    .build()
                    .unwrap()
            } else {
                SignalSpec::builder(&name, start_bit, 12)
                    .factor(factor)
                    .build()
                    .unwrap()
            };
            builder = builder.signal(sig);
        }
        cat.add_message(builder.build().unwrap()).unwrap();
    }
    cat
}

/// Builds the raw frame directly (not via `trace_to_frame`) so null bus and
/// null message-id rows are exercised too.
fn raw_frame(rows: &[(usize, i64, Option<Vec<u8>>, f64)], partitions: usize) -> DataFrame {
    let schema = raw_schema();
    let chunk = rows.len().div_ceil(partitions).max(1);
    let mut batches = Vec::new();
    for slice in rows.chunks(chunk) {
        let batch = Batch::from_rows(
            schema.clone(),
            slice.iter().map(|(bus_choice, mid, payload, t)| {
                let bus = match bus_choice {
                    0 => Value::from("FC"),
                    1 => Value::from("DC"),
                    2 => Value::from("XX"), // never in any catalog
                    _ => Value::Null,
                };
                let mid = if *bus_choice == 4 {
                    Value::Null
                } else {
                    Value::Int(*mid)
                };
                let payload = match payload {
                    Some(p) => Value::from(p.clone()),
                    None => Value::Null,
                };
                vec![Value::Float(*t), payload, bus, mid, Value::from("CAN")]
            }),
        )
        .unwrap();
        batches.push(batch);
    }
    if batches.is_empty() {
        batches.push(Batch::empty(schema.clone()));
    }
    DataFrame::from_partitions(schema, batches).unwrap()
}

fn reference_rows(raw: &DataFrame, u_comb: &RuleSet) -> Vec<Vec<Value>> {
    interpret(&preselect(raw, u_comb).unwrap(), u_comb)
        .unwrap()
        .collect_rows()
        .unwrap()
}

fn fused_rows(raw: &DataFrame, u_comb: &RuleSet) -> Vec<Vec<Value>> {
    extract_signals(raw, u_comb)
        .unwrap()
        .collect_rows()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fused_is_bit_identical_to_reference(
        n_msgs in 1usize..=3,
        sigs_per_msg in 1usize..=3,
        factor_idx in 0usize..3,
        rows in prop::collection::vec(
            (
                0usize..=4,                                    // bus: FC/DC/unknown/null, 4 = null mid
                0i64..10,                                      // slots 0 and 4..10 never match
                prop::option::of(prop::collection::vec(0u8..=255u8, 0usize..10)),
                0.0f64..100.0,
            ),
            0..200usize,
        ),
        partitions in 1usize..=4,
        // 0: ids 1..=3, one narrow band; 1 << 17: ids past the first sit
        // 131 072 above it, a union band wider than the id table covers.
        id_offset in prop::sample::select(vec![0i64, 1 << 17]),
    ) {
        let factor = [1.0, 0.5, 0.1][factor_idx];
        let u_comb = RuleSet::from_catalog(&catalog(n_msgs, sigs_per_msg, factor, id_offset));
        // Row ids are catalog slots; slot 0 stays an id no catalog uses.
        let rows: Vec<_> = rows
            .into_iter()
            .map(|(bus, slot, payload, t)| {
                let mid = if slot == 0 { 0 } else { message_id(slot - 1, id_offset) };
                (bus, mid, payload, t)
            })
            .collect();
        let raw = raw_frame(&rows, partitions);

        let reference = reference_rows(&raw, &u_comb);
        let fused = fused_rows(&raw, &u_comb);
        prop_assert_eq!(&fused, &reference);

        // Bit-identical across partition counts too: the row stream never
        // depends on where partition boundaries fall.
        let single = fused_rows(&raw_frame(&rows, 1), &u_comb);
        prop_assert_eq!(&fused, &single);

        // And across worker counts.
        for workers in [1usize, 2, 8] {
            let capped = fused_rows(&raw.clone().with_executor(Executor::new(workers)), &u_comb);
            prop_assert_eq!(&fused, &capped);
        }
    }
}

/// The presence-conditional SOME/IP path (`relevant_bytes -> Ok(None)`,
/// i.e. "no instance at all") through both implementations.
#[test]
fn fused_matches_reference_on_conditional_fields() {
    use ivnt_simulator::adas::{generate_object_trace, object_list};

    let model = object_list().expect("model builds");
    let trace = generate_object_trace(&model, 30.0, 7).expect("trace generates");
    let mut u_comb = RuleSet::new();
    for (field, spec) in model.field_specs.iter().enumerate() {
        u_comb.push_optional_field(
            &model.bus,
            model.message_id,
            model.layout.clone(),
            field,
            spec.clone(),
            None,
        );
    }
    for partitions in [1usize, 3, 5] {
        let raw = trace_to_frame(&trace, partitions).unwrap();
        assert!(raw.num_rows() > 0);
        assert_eq!(
            fused_rows(&raw, &u_comb),
            reference_rows(&raw, &u_comb),
            "conditional-field mismatch at {partitions} partitions"
        );
    }
}

/// Rows whose payload is null must still produce (null-valued) instances,
/// identically in both paths.
#[test]
fn fused_keeps_null_payload_instances() {
    let u_comb = RuleSet::from_catalog(&catalog(1, 2, 1.0, 0));
    let rows = vec![
        (0usize, 1i64, None, 0.5),       // null payload, matching key
        (0, 1, Some(vec![0u8; 8]), 1.0), // decodable
        (3, 1, Some(vec![0u8; 8]), 1.5), // null bus: dropped
        (4, 1, Some(vec![0u8; 8]), 2.0), // null mid: dropped
    ];
    let raw = raw_frame(&rows, 2);
    let fused = fused_rows(&raw, &u_comb);
    let reference = reference_rows(&raw, &u_comb);
    assert_eq!(fused, reference);
    // 2 matching rows x 2 rules each.
    assert_eq!(fused.len(), 4);
    assert!(fused[0][3].is_null() && fused[0][4].is_null());
}

#[test]
fn arc_sharing_in_output_does_not_change_values() {
    // The fused kernel shares one Arc<str> per signal name; equality with
    // the reference (fresh Arc per row) must be by value, and sorting the
    // fused output must behave identically.
    let u_comb = RuleSet::from_catalog(&catalog(2, 2, 0.5, 0));
    let rows: Vec<(usize, i64, Option<Vec<u8>>, f64)> = (0..50)
        .map(|i| (i % 2, 1 + (i as i64 % 3), Some(vec![i as u8; 8]), i as f64))
        .collect();
    let raw = raw_frame(&rows, 3);
    let fused = extract_signals(&raw, &u_comb).unwrap();
    let reference = interpret(&preselect(&raw, &u_comb).unwrap(), &u_comb).unwrap();
    let sort = |df: &DataFrame| {
        df.sort_by(&["t", "s_id"], &[true, true])
            .unwrap()
            .collect_rows()
            .unwrap()
    };
    assert_eq!(sort(&fused), sort(&reference));
}
