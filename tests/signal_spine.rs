//! The per-signal spine: sequences the kernel emits straight out of the
//! decode loop must equal, byte for byte, what splitting the interpreted
//! table `K_s` produced before emission-time routing existed. The old
//! `HashMap` / `take` / `concat` / sort split lives on here as the oracle.
//!
//! Checked per case: signal order, per-signal partition count, and every
//! cell of every column (floats by bit pattern).

use std::collections::HashMap;
use std::sync::Arc;

use ivnt::cluster::codec::encode_batch;
use ivnt::core::interpret::{extract_signals, signal_schema};
use ivnt::core::prelude::*;
use ivnt::core::split::{split_by_signal, Selection};
use ivnt::core::tabular::{columns as c, raw_schema, trace_to_frame};
use ivnt::frame::prelude::*;
use ivnt::protocol::message::Protocol;
use ivnt::protocol::SignalSpec;
use ivnt::simulator::adas::{generate_object_trace, object_list};
use ivnt::simulator::prelude::*;
use ivnt::store::schema::records_to_batch;
use ivnt::store::{StoreReader, StoreWriter, WriterOptions};

/// The split as it was before the kernel routed at emission: bucket
/// `(partition, row)` per signal name, gather, concatenate, stable-sort by
/// time.
fn oracle_split(ks: &DataFrame) -> Vec<SignalSequence> {
    let schema = ks.schema().clone();
    let sig_idx = schema.index_of(c::SIGNAL).expect("s_id");
    let t_idx = schema.index_of(c::T).expect("t");
    let mut buckets: HashMap<Arc<str>, Vec<Vec<usize>>> = HashMap::new();
    let n_parts = ks.num_partitions();
    for (pi, batch) in ks.partitions().iter().enumerate() {
        let Some(names) = batch.column(sig_idx).as_dict() else {
            continue;
        };
        for (row, name) in names.iter().enumerate() {
            let Some(name) = name else { continue };
            buckets
                .entry(name.clone())
                .or_insert_with(|| vec![Vec::new(); n_parts])[pi]
                .push(row);
        }
    }
    let mut names: Vec<Arc<str>> = buckets.keys().cloned().collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let gathered: Vec<Batch> = buckets[&name]
                .iter()
                .enumerate()
                .filter(|(_, idx)| !idx.is_empty())
                .map(|(pi, idx)| ks.partitions()[pi].take(idx))
                .collect();
            let merged = Batch::concat(&gathered).expect("concat");
            let times = merged.column(t_idx).as_float_slice().unwrap_or(&[]);
            let mut order: Vec<usize> = (0..merged.num_rows()).collect();
            order.sort_by(|&a, &b| {
                let ta = times[a].unwrap_or(f64::NAN);
                let tb = times[b].unwrap_or(f64::NAN);
                ta.total_cmp(&tb)
            });
            SignalSequence {
                signal: name.to_string(),
                frame: DataFrame::from_partitions(schema.clone(), vec![merged.take(&order)])
                    .expect("frame"),
            }
        })
        .collect()
}

/// `(signal, schema field names, encoded partitions)` per sequence.
fn bytes(seqs: &[SignalSequence]) -> Vec<(String, Vec<String>, Vec<Vec<u8>>)> {
    seqs.iter()
        .map(|s| {
            let fields = s.frame.schema().fields().iter();
            (
                s.signal.clone(),
                fields.map(|f| f.name().to_string()).collect(),
                s.frame.partitions().iter().map(encode_batch).collect(),
            )
        })
        .collect()
}

#[track_caller]
fn assert_same(fused: &[SignalSequence], oracle: &[SignalSequence], case: &str) {
    let names = |s: &[SignalSequence]| s.iter().map(|q| q.signal.clone()).collect::<Vec<_>>();
    assert_eq!(names(fused), names(oracle), "{case}: signal order");
    assert_eq!(bytes(fused), bytes(oracle), "{case}: sequence bytes");
}

/// One rule table and trace to push through every source and option.
struct Case {
    name: &'static str,
    rules: RuleSet,
    signals: Vec<String>,
    trace: Trace,
}

fn generated(name: &'static str, spec: DataSetSpec, every: usize) -> Case {
    let data = generate(&spec).expect("generate");
    Case {
        name,
        rules: RuleSet::from_network(&data.network),
        signals: data.signal_names().into_iter().step_by(every).collect(),
        trace: data.trace,
    }
}

/// Byte 0 selects the page; bytes 1..3 carry `oil_temp` (page 0) or
/// `coolant_temp` (page 1). `unused_temp` (page 7) has a rule and no data.
fn multiplexed() -> Case {
    let rec = |t_ms: u64, page: u8, value: u16| TraceRecord {
        timestamp_us: t_ms * 1000,
        bus: Arc::from("PT"),
        message_id: 0x60,
        payload: {
            let mut p = vec![page, 0, 0];
            p[1..3].copy_from_slice(&value.to_le_bytes());
            p
        },
        protocol: Protocol::Can,
    };
    let trace = Trace::from_records(
        (0..600u16)
            .map(|i| rec(u64::from(i) * 100, (i % 2) as u8, 800 + i))
            .collect(),
    );
    let selector = SignalSpec::builder("diag_page", 0, 8).build().unwrap();
    let mut rules = RuleSet::new();
    for (page, name) in [(0, "oil_temp"), (1, "coolant_temp"), (7, "unused_temp")] {
        rules.push_multiplexed(
            "PT",
            0x60,
            selector.clone(),
            page,
            1,
            2,
            SignalSpec::builder(name, 0, 16)
                .factor(0.1)
                .offset(-40.0)
                .build()
                .unwrap(),
            None,
        );
    }
    Case {
        name: "multiplexed",
        rules,
        signals: Vec::new(),
        trace,
    }
}

fn adas() -> Case {
    let model = object_list().expect("model");
    let trace = generate_object_trace(&model, 60.0, 21).expect("trace");
    let mut rules = RuleSet::new();
    for (field, spec) in model.field_specs.iter().enumerate() {
        rules.push_optional_field(
            &model.bus,
            model.message_id,
            model.layout.clone(),
            field,
            spec.clone(),
            Some(model.period_ms as f64 / 1e3),
        );
    }
    Case {
        name: "adas",
        rules,
        signals: Vec::new(),
        trace,
    }
}

fn cases() -> Vec<Case> {
    let spec = |s: DataSetSpec, seed| s.with_seed(seed).with_target_examples(3_000);
    vec![
        generated("syn", spec(DataSetSpec::syn(), 31), 3),
        generated("lig", spec(DataSetSpec::lig(), 32), 2),
        generated("sta", spec(DataSetSpec::sta(), 33), 2),
        multiplexed(),
        adas(),
    ]
}

/// A profile under which `extract_reduced` hands back the split sequence
/// untouched, as the dedup report's representative.
fn pipeline(case: &Case, partitions: usize, workers: usize) -> Pipeline {
    let profile = DomainProfile::new(case.name)
        .with_signals(case.signals.iter().cloned())
        .with_dedup(false)
        .with_partitions(partitions)
        .with_workers(workers);
    Pipeline::new(case.rules.clone(), profile).expect("pipeline")
}

fn fused<R: std::io::Read + std::io::Seek>(
    p: &Pipeline,
    opts: RunOptions<'_, R>,
) -> Vec<SignalSequence> {
    let reduced = p.session(opts).extract_reduced().expect("extract_reduced");
    reduced
        .into_iter()
        .map(|(_, d, _)| d.representative)
        .collect()
}

fn oracle<R: std::io::Read + std::io::Seek>(
    p: &Pipeline,
    opts: RunOptions<'_, R>,
) -> Vec<SignalSequence> {
    oracle_split(&p.session(opts).extract().expect("extract").frame)
}

/// The inclusive µs window covering the middle half of `trace`.
fn middle_window(trace: &Trace) -> (u64, u64) {
    let at = |i: usize| trace.records()[i].timestamp_us;
    (at(trace.len() / 4), at(3 * trace.len() / 4))
}

/// Trace options: the per-signal fan-out serial or not, the window or not.
fn trace_opts(trace: &Trace, serial: bool, window: Option<(u64, u64)>) -> RunOptions<'_> {
    let mut opts = RunOptions::trace(trace);
    if serial {
        opts = opts.serial();
    }
    if let Some((from, to)) = window {
        opts = opts.with_time_window(from, to);
    }
    opts
}

#[test]
fn trace_sessions_match_the_oracle() {
    for case in cases() {
        let window = Some(middle_window(&case.trace));
        for partitions in [1, 2, 7, case.trace.len() + 5] {
            for workers in [1, 2] {
                let p = pipeline(&case, partitions, workers);
                let tag = format!("{} p={partitions} w={workers}", case.name);
                let serial = workers == 1;
                let whole = fused(&p, trace_opts(&case.trace, serial, None));
                assert!(!whole.is_empty(), "{tag}: nothing extracted");
                assert_same(&whole, &oracle(&p, RunOptions::trace(&case.trace)), &tag);

                let cut = fused(&p, trace_opts(&case.trace, serial, window));
                let expect = oracle(&p, trace_opts(&case.trace, false, window));
                assert_same(&cut, &expect, &format!("{tag} window"));
                let rows = |s: &[SignalSequence]| s.iter().map(SignalSequence::len).sum::<usize>();
                assert!(rows(&cut) < rows(&whole), "{tag}: window cut nothing");
            }
        }
    }
}

#[test]
fn store_and_shard_sessions_match_the_oracle() {
    for case in cases() {
        // Small groups: the sequences are stitched from many row groups.
        let options = WriterOptions {
            chunk_rows: 64,
            chunks_per_group: 2,
            cluster: true,
        };
        let mut writer = StoreWriter::new(Vec::new(), options).expect("writer");
        for r in case.trace.records() {
            writer.append(r).expect("append");
        }
        let bytes = writer.seal().expect("seal");
        let mut reader = StoreReader::from_reader(std::io::Cursor::new(bytes)).expect("reader");
        let groups = reader.footer().groups;
        assert!(groups >= 4, "{}: {groups} groups", case.name);
        let window = middle_window(&case.trace);

        for workers in [1, 2] {
            let p = pipeline(&case, 2, workers);
            let tag = format!("{} store w={workers}", case.name);
            let whole = fused(&p, RunOptions::store(&mut reader));
            assert_same(&whole, &oracle(&p, RunOptions::store(&mut reader)), &tag);
            // Same rows as the in-memory trace, from either side.
            assert_same(&whole, &oracle(&p, RunOptions::trace(&case.trace)), &tag);

            let cut = fused(
                &p,
                RunOptions::store(&mut reader).with_time_window(window.0, window.1),
            );
            let expect = oracle(
                &p,
                RunOptions::store(&mut reader).with_time_window(window.0, window.1),
            );
            assert_same(&cut, &expect, &format!("{tag} window"));

            for shard in [0..1, 1..groups - 1, groups..groups] {
                let got = fused(&p, RunOptions::store_shard(&mut reader, shard.clone()));
                let expect = oracle(&p, RunOptions::store_shard(&mut reader, shard.clone()));
                assert_same(&got, &expect, &format!("{tag} shard {shard:?}"));
                assert_eq!(got.is_empty(), shard.is_empty() || expect.is_empty());
            }
        }
    }
}

/// The stream tier's entry: one raw micro-batch through the pipeline's
/// kernel, against the table route over the same batch.
#[test]
fn kernel_sequences_match_split_of_extract() {
    for case in cases() {
        let p = pipeline(&case, 1, 1);
        let records = case.trace.records();
        for chunk in [records.len(), 97, 1] {
            for (i, slice) in records.chunks(chunk).take(40).enumerate() {
                let batch = records_to_batch(raw_schema(), slice).expect("batch");
                let got = p
                    .kernel()
                    .coded_sequences(&batch)
                    .expect("coded sequences")
                    .iter()
                    .map(|s| s.to_sequence(&Selection::All))
                    .collect::<Result<Vec<_>, _>>()
                    .expect("sequences");
                let raw = DataFrame::from_partitions(raw_schema(), vec![batch]).expect("raw");
                let ks = extract_signals(&raw, p.u_comb()).expect("extract");
                let tag = format!("{} chunk {chunk} #{i}", case.name);
                assert_same(&got, &oracle_split(&ks), &tag);
                assert_same(
                    &split_by_signal(&ks).expect("split"),
                    &oracle_split(&ks),
                    &tag,
                );
            }
        }
    }
}

/// Records out of time order, and with equal timestamps on both sides of a
/// partition cut, take the stable-sort fallback: same order as the oracle.
#[test]
fn unordered_and_tied_timestamps_keep_partition_then_row_order() {
    let case = multiplexed();
    let mut records = case.trace.records().to_vec();
    records.reverse();
    records.swap(3, 17);
    for r in &mut records[10..30] {
        r.timestamp_us = 1_500_000; // one long tie across the cuts below
    }
    let trace = Trace::from_records(records);
    for partitions in [1, 2, 7, 64] {
        for workers in [1, 2] {
            let p = pipeline(&case, partitions, workers);
            let got = fused(&p, RunOptions::trace(&trace));
            let expect = oracle(&p, RunOptions::trace(&trace));
            assert_same(
                &got,
                &expect,
                &format!("unordered p={partitions} w={workers}"),
            );
            let times = got[0].times().expect("times");
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted: {times:?}");
        }
    }
}

#[test]
fn a_rule_without_data_yields_no_sequence() {
    let case = multiplexed();
    let got = fused(&pipeline(&case, 2, 1), RunOptions::trace(&case.trace));
    let names: Vec<&str> = got.iter().map(|s| s.signal.as_str()).collect();
    assert_eq!(names, ["coolant_temp", "oil_temp"], "no empty unused_temp");
}

type Row<'a> = (Option<f64>, Option<&'a str>, Option<&'a str>, Option<f64>);

/// A hand-built `K_s`: every cell its own `Arc`, `per_part` rows per
/// partition.
fn ks(rows: &[Row<'_>], per_part: usize) -> DataFrame {
    let parts = rows
        .chunks(per_part.max(1))
        .map(|chunk| {
            Batch::from_rows(
                signal_schema(),
                chunk.iter().map(|&(t, s, b, v)| {
                    let text = v.is_none().then_some("label");
                    vec![
                        Value::from(t),
                        s.map_or(Value::Null, Value::from),
                        b.map_or(Value::Null, Value::from),
                        Value::from(v),
                        text.map_or(Value::Null, Value::from),
                    ]
                }),
            )
            .expect("batch")
        })
        .collect();
    DataFrame::from_partitions(signal_schema(), parts).expect("ks")
}

#[test]
fn hand_built_tables_split_like_the_oracle() {
    let nan = f64::NAN;
    let rows: Vec<Row<'_>> = vec![
        (Some(2.0), Some("b"), Some("FC"), Some(1.0)),
        (Some(1.0), Some("a"), Some("FC"), Some(2.0)),
        (Some(2.0), Some("b"), Some("DC"), Some(3.0)), // tie with row 0
        (None, Some("a"), Some("DC"), Some(4.0)),      // null t sorts as NaN
        (Some(1.0), None, Some("FC"), Some(5.0)),      // null s_id: dropped
        (Some(nan), Some("b"), Some("FC"), None),      // NaN t, text value
        (Some(-nan), Some("b"), None, Some(6.0)),      // negative NaN first
        (Some(0.0), Some("a"), Some("FC"), Some(7.0)),
        (Some(-0.0), Some("a"), Some("FC"), Some(8.0)), // -0.0 before 0.0
        (Some(2.0), Some("b"), Some("FC"), Some(9.0)),  // tie, later partition
        (Some(1.5), Some("c"), Some("DC"), Some(0.0)),
    ];
    for per_part in [1, 2, 3, rows.len()] {
        let table = ks(&rows, per_part);
        let got = split_by_signal(&table).expect("split");
        assert_same(
            &got,
            &oracle_split(&table),
            &format!("{per_part} rows/partition"),
        );
        assert_eq!(got.len(), 3);
        assert_eq!(
            got.iter().map(SignalSequence::len).sum::<usize>(),
            rows.len() - 1
        );
        // Equal-content names in distinct `Arc`s are one signal, one channel.
        assert_eq!(got[0].channels().expect("channels"), ["DC", "FC"]);
    }

    let empty = DataFrame::empty(signal_schema());
    assert!(split_by_signal(&empty).expect("split").is_empty());
    assert!(oracle_split(&empty).is_empty());
    let raw = trace_to_frame(&Trace::new(), 3).expect("raw");
    let p = pipeline(&multiplexed(), 3, 2);
    assert!(fused(&p, RunOptions::trace(&Trace::new())).is_empty());
    assert!(oracle_split(&extract_signals(&raw, p.u_comb()).expect("extract")).is_empty());
}
