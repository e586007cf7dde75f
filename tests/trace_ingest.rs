//! The trace source's ingest — record-level preselection, then one
//! column-wise batch per partition slice — against the composition it
//! replaced: `extract_signals(&row_wise_frame)`, where `row_wise_frame`
//! boxes every record through `Batch::from_rows` (the pre-columnar
//! `trace_to_frame`, kept here as the oracle). `K_s` must agree byte for
//! byte, partition for partition, empty partitions included.

use std::io::Cursor;
use std::sync::Arc;

use ivnt::cluster::codec::encode_batch;
use ivnt::core::interpret::{extract_signals, interpret};
use ivnt::core::prelude::*;
use ivnt::core::tabular::{null_counts, raw_schema, trace_to_frame};
use ivnt::frame::prelude::*;
use ivnt::protocol::message::Protocol;
use ivnt::protocol::SignalSpec;
use ivnt::simulator::adas::{generate_object_trace, object_list};
use ivnt::simulator::prelude::*;
use ivnt::store::{StoreReader, StoreWriter, WriterOptions};

/// The row-boxed frame build `trace_to_frame` used before the columnar
/// ingest: a `Vec<Value>` per record, partitions cut at `n.div_ceil(parts)`.
fn row_wise_frame(trace: &Trace, partitions: usize) -> DataFrame {
    let schema = raw_schema();
    let chunk = trace.len().div_ceil(partitions.max(1)).max(1);
    let mut batches: Vec<Batch> = trace
        .records()
        .chunks(chunk)
        .map(|slice| {
            Batch::from_rows(
                schema.clone(),
                slice.iter().map(|r| {
                    vec![
                        Value::Float(r.timestamp_s()),
                        Value::from(r.payload.clone()),
                        Value::Str(r.bus.clone()),
                        Value::Int(i64::from(r.message_id)),
                        Value::from(r.protocol.to_string()),
                    ]
                }),
            )
            .expect("row-wise batch")
        })
        .collect();
    if batches.is_empty() {
        batches.push(Batch::empty(schema.clone()));
    }
    DataFrame::from_partitions(schema, batches).expect("row-wise frame")
}

fn partition_bytes(frame: &DataFrame) -> Vec<Vec<u8>> {
    frame.partitions().iter().map(encode_batch).collect()
}

fn row_bytes(frame: &DataFrame) -> Vec<u8> {
    encode_batch(&frame.to_single_batch().expect("single batch"))
}

fn rec(t_us: u64, bus: &Arc<str>, message_id: u32, payload: Vec<u8>) -> TraceRecord {
    TraceRecord {
        timestamp_us: t_us,
        bus: bus.clone(),
        message_id,
        payload,
        protocol: Protocol::Can,
    }
}

/// Every `stride`-th signal of a generated data set: a domain narrow
/// enough that preselection drops most of the trace.
fn every_nth_signal(data: &GeneratedDataSet, stride: usize) -> Vec<String> {
    data.signal_names().into_iter().step_by(stride).collect()
}

/// Page-multiplexed rules on `(PT, 0x60)`: byte 0 selects which of two
/// 16-bit signals bytes 1..3 carry.
fn mux_rules() -> RuleSet {
    let selector = SignalSpec::builder("diag_page", 0, 8).build().unwrap();
    let temp = |name: &str| {
        SignalSpec::builder(name, 0, 16)
            .factor(0.1)
            .offset(-40.0)
            .build()
            .unwrap()
    };
    let mut rules = RuleSet::new();
    rules.push_multiplexed(
        "PT",
        0x60,
        selector.clone(),
        0,
        1,
        2,
        temp("oil_temp"),
        None,
    );
    rules.push_multiplexed("PT", 0x60, selector, 1, 1, 2, temp("coolant_temp"), None);
    rules
}

fn mux_payload(page: u8, value: u16) -> Vec<u8> {
    let [lo, hi] = value.to_le_bytes();
    vec![page, lo, hi]
}

/// One identity-table row: a trace, its full rule table and the domain's
/// signal selection (empty = all of `u_rel`).
struct Case {
    name: &'static str,
    trace: Trace,
    u_rel: RuleSet,
    signals: Vec<String>,
}

fn scenario_case(name: &'static str, spec: DataSetSpec) -> Case {
    let data = generate(&spec.with_seed(13).with_target_examples(1_200)).expect("generate");
    Case {
        name,
        signals: every_nth_signal(&data, 5),
        u_rel: RuleSet::from_network(&data.network),
        trace: data.trace,
    }
}

fn multiplexed_case() -> Case {
    let pt: Arc<str> = Arc::from("PT");
    let body: Arc<str> = Arc::from("BODY");
    let records = (0..400u64)
        .map(|i| match i % 4 {
            0 => rec(
                i * 1_000,
                &pt,
                0x60,
                mux_payload((i / 4 % 2) as u8, 800 + i as u16),
            ),
            1 => rec(i * 1_000, &body, 0x60, mux_payload(0, 1)),
            2 => rec(i * 1_000, &pt, 0x61, vec![0; 8]),
            // Truncated payload on the selected message: null decode.
            _ => rec(i * 1_000, &pt, 0x60, vec![0]),
        })
        .collect();
    Case {
        name: "multiplexed",
        trace: Trace::from_records(records),
        u_rel: mux_rules(),
        signals: Vec::new(),
    }
}

/// The SOME/IP object list interleaved with a SYN journey. The service
/// id sits ~14 M above the CAN ids, so the rule ids span too wide a band
/// for the byte table and the selector probes every record.
fn adas_case() -> Case {
    let data =
        generate(&DataSetSpec::syn().with_seed(29).with_target_examples(800)).expect("generate");
    let model = object_list().expect("model");
    let mut trace = data.trace.clone();
    trace.merge(generate_object_trace(&model, trace.duration_s().max(1.0), 5).expect("adas"));
    let mut u_rel = RuleSet::from_network(&data.network);
    for (field, spec) in model.field_specs.iter().enumerate() {
        u_rel.push_optional_field(
            &model.bus,
            model.message_id,
            model.layout.clone(),
            field,
            spec.clone(),
            None,
        );
    }
    let mut signals = every_nth_signal(&data, 7);
    signals.extend(model.field_specs.iter().map(|s| s.name().to_string()));
    Case {
        name: "adas-someip",
        trace,
        u_rel,
        signals,
    }
}

fn session_frame(pipeline: &Pipeline, trace: &Trace, preselection: bool) -> DataFrame {
    let opts = RunOptions::trace(trace);
    let opts = if preselection {
        opts
    } else {
        opts.without_preselection()
    };
    pipeline.session(opts).extract().expect("extract").frame
}

fn oracle_frame(pipeline: &Pipeline, trace: &Trace, preselection: bool) -> DataFrame {
    let raw = row_wise_frame(trace, pipeline.profile().partitions);
    if preselection {
        extract_signals(&raw, pipeline.u_comb()).expect("oracle extract")
    } else {
        interpret(&raw, pipeline.u_comb()).expect("oracle interpret")
    }
}

#[test]
fn session_extract_equals_the_row_wise_composition() {
    let cases = [
        scenario_case("syn", DataSetSpec::syn()),
        scenario_case("lig", DataSetSpec::lig()),
        scenario_case("sta", DataSetSpec::sta()),
        multiplexed_case(),
        adas_case(),
    ];
    for case in &cases {
        let n = case.trace.len();
        for partitions in [1, 2, 3, 7, n + 5] {
            let profile = DomainProfile::new(case.name)
                .with_signals(case.signals.iter().map(String::as_str))
                .with_partitions(partitions)
                .with_workers(2);
            let pipeline = Pipeline::new(case.u_rel.clone(), profile).expect("pipeline");
            for preselection in [true, false] {
                let got = session_frame(&pipeline, &case.trace, preselection);
                let want = oracle_frame(&pipeline, &case.trace, preselection);
                assert!(
                    want.num_rows() > 0,
                    "{}: oracle extracted nothing",
                    case.name
                );
                assert_eq!(
                    partition_bytes(&got),
                    partition_bytes(&want),
                    "{} at {partitions} partitions, preselection {preselection}",
                    case.name
                );
            }
        }
    }
}

#[test]
fn selector_edge_cases_match_the_oracle() {
    let pt: Arc<str> = Arc::from("PT");
    let other: Arc<str> = Arc::from("BODY");
    let hit = |t: u64, bus: &Arc<str>| rec(t, bus, 0x60, mux_payload(0, 900));
    let cases: Vec<(&str, Trace, usize)> = vec![
        ("empty trace", Trace::new(), 0),
        (
            "no record admitted",
            Trace::from_records(
                (0..50)
                    .map(|i| rec(i, &other, 0x10 + i as u32, vec![1, 2, 3]))
                    .collect(),
            ),
            0,
        ),
        (
            "ids outside the rule band",
            Trace::from_records(vec![
                rec(0, &pt, 0, mux_payload(0, 1)),
                rec(1, &pt, 0x5F, mux_payload(0, 1)),
                hit(2, &pt),
                rec(3, &pt, 0x61, mux_payload(0, 1)),
                rec(4, &pt, u32::MAX, mux_payload(0, 1)),
            ]),
            1,
        ),
        (
            "bus matches but id does not, id matches but bus does not",
            Trace::from_records(vec![
                rec(0, &pt, 0x61, mux_payload(0, 1)),
                rec(1, &other, 0x60, mux_payload(0, 1)),
                hit(2, &pt),
            ]),
            1,
        ),
        (
            // A fresh `Arc` per record — more distinct pointers than the
            // learned-pointer table holds — so admission must come from
            // the string compare, not from pointer identity.
            "equal bus names behind distinct Arcs",
            Trace::from_records(
                (0..80)
                    .map(|i| hit(i, &Arc::from(if i % 2 == 0 { "PT" } else { "BODY" })))
                    .collect(),
            ),
            40,
        ),
    ];
    for (name, trace, expected_rows) in &cases {
        for partitions in [1, 3] {
            let profile = DomainProfile::new("edge")
                .with_partitions(partitions)
                .with_workers(2);
            let pipeline = Pipeline::new(mux_rules(), profile).expect("pipeline");
            let got = session_frame(&pipeline, trace, true);
            assert_eq!(got.num_rows(), *expected_rows, "{name}");
            assert_eq!(
                partition_bytes(&got),
                partition_bytes(&oracle_frame(&pipeline, trace, true)),
                "{name} at {partitions} partitions"
            );
        }
    }
}

#[test]
fn columnar_frame_equals_the_row_wise_frame() {
    let fc: Arc<str> = Arc::from("FC");
    let eth: Arc<str> = Arc::from("ETH");
    let mut records = Vec::new();
    for i in 0..30u64 {
        let mut r = rec(
            i * 500,
            if i % 3 == 0 { &eth } else { &fc },
            i as u32 % 4,
            vec![i as u8; (i % 9) as usize],
        );
        r.protocol = [Protocol::Can, Protocol::SomeIp, Protocol::Lin][(i % 3) as usize];
        records.push(r);
    }
    let trace = Trace::from_records(records);
    for partitions in [1, 4, 64] {
        let frame = trace_to_frame(&trace, partitions).expect("frame");
        assert_eq!(
            frame.partitions(),
            row_wise_frame(&trace, partitions).partitions()
        );
        assert!(frame
            .partitions()
            .iter()
            .all(|batch| null_counts(batch).iter().all(|&n| n == 0)));
    }

    // Every row of one bus shares the trace's `Arc` (the kernel learns
    // buses by pointer), and within a partition — the builder's unit, so
    // worker threads never share a refcount — every row of one protocol
    // shares one interned name.
    let frame = trace_to_frame(&trace, 4).expect("frame");
    let schema = raw_schema();
    let (bus_col, info_col) = (
        schema.index_of("b_id").unwrap(),
        schema.index_of("m_info").unwrap(),
    );
    let mut row = 0;
    for batch in frame.partitions() {
        let mut names: Vec<Arc<str>> = Vec::new();
        let buses = batch.column(bus_col).as_str_slice().expect("bus column");
        let infos = batch.column(info_col).as_str_slice().expect("info column");
        for (bus, info) in buses.iter().zip(infos) {
            let (bus, info) = (bus.as_ref().unwrap(), info.as_ref().unwrap());
            assert!(Arc::ptr_eq(bus, &trace.records()[row].bus), "row {row} bus");
            match names.iter().find(|n| n.as_ref() == info.as_ref()) {
                Some(first) => assert!(Arc::ptr_eq(first, info), "row {row} protocol name"),
                None => names.push(info.clone()),
            }
            row += 1;
        }
        assert_eq!(names.len(), 3);
    }
    assert_eq!(row, trace.len());
}

#[test]
fn time_window_gives_the_same_rows_from_trace_and_store() {
    let data =
        generate(&DataSetSpec::syn().with_seed(17).with_target_examples(4_000)).expect("generate");
    let profile = DomainProfile::new("window")
        .with_signals(every_nth_signal(&data, 4).iter().map(String::as_str))
        .with_partitions(3)
        .with_workers(2);
    let pipeline = Pipeline::new(RuleSet::from_network(&data.network), profile).expect("pipeline");

    let options = WriterOptions {
        chunk_rows: 128,
        chunks_per_group: 4,
        ..WriterOptions::default()
    };
    let mut writer = StoreWriter::new(Vec::new(), options).expect("create store");
    for r in data.trace.records() {
        writer.append(r).expect("append");
    }
    let bytes = writer.finish().expect("finish");

    let full = session_frame(&pipeline, &data.trace, true);
    // Bounds that fall exactly on the timestamps of selected records: both
    // ends are inclusive, from either source.
    let selected: Vec<u64> = pipeline
        .preselect(&data.trace)
        .expect("preselect")
        .column_values("t")
        .expect("t")
        .iter()
        .map(|t| (t.as_float().unwrap() * 1e6).round() as u64)
        .collect();
    let on_timestamps = (
        selected[selected.len() / 4],
        selected[selected.len() * 3 / 5],
    );
    let last = data.trace.records().last().unwrap().timestamp_us;
    let windows = [
        ("bounds on timestamps", on_timestamps),
        ("single instant", (on_timestamps.0, on_timestamps.0)),
        ("everything", (0, u64::MAX)),
        ("past the end", (last + 1, last + 1_000)),
        ("inverted", (on_timestamps.1, on_timestamps.0)),
    ];
    for (name, (from, to)) in windows {
        let from_trace = pipeline
            .session(RunOptions::trace(&data.trace).with_time_window(from, to))
            .extract()
            .expect("trace extract")
            .frame;
        let mut reader = StoreReader::from_reader(Cursor::new(bytes.clone())).expect("reader");
        let from_store = pipeline
            .session(RunOptions::store(&mut reader).with_time_window(from, to))
            .extract()
            .expect("store extract")
            .frame;
        assert_eq!(row_bytes(&from_trace), row_bytes(&from_store), "{name}");
        let in_window = full
            .column_values("t")
            .expect("t")
            .iter()
            .filter(|t| (from..=to).contains(&((t.as_float().unwrap() * 1e6).round() as u64)))
            .count();
        assert_eq!(from_trace.num_rows(), in_window, "{name}");
        // The window also applies when the session does not preselect.
        let unselected = pipeline
            .session(
                RunOptions::trace(&data.trace)
                    .with_time_window(from, to)
                    .without_preselection(),
            )
            .extract()
            .expect("windowed full extract")
            .frame;
        assert_eq!(row_bytes(&unselected), row_bytes(&from_trace), "{name}");
    }
    let empty = pipeline
        .session(RunOptions::trace(&data.trace).with_time_window(last + 1, last + 1_000))
        .extract()
        .expect("extract")
        .frame;
    assert_eq!(empty.num_rows(), 0);
    assert_eq!(empty.num_partitions(), 3, "empty partitions are kept");
}
