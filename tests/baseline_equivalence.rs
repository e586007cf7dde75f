//! Cross-validation: the distributed pipeline's `K_s` and the sequential
//! in-house tool's store must both agree value-for-value with an oracle
//! that decodes every record through the catalog's own
//! `SignalSpec::decode`. Both sides run the compiled kernel — the pipeline
//! after preselection, the tool over every record — so this pins both
//! admission paths to the protocol semantics.

use std::collections::HashMap;

use ivnt::baseline::SequentialAnalyzer;
use ivnt::core::prelude::*;
use ivnt::core::tabular::columns as c;
use ivnt::protocol::PhysicalValue;
use ivnt::simulator::prelude::*;

/// `(t in µs, v_num, v_text)` per `(signal, bus)`, in time order.
type ByChannel = HashMap<(String, String), Vec<(i64, Option<f64>, Option<String>)>>;

fn micros(t: f64) -> i64 {
    (t * 1e6).round() as i64
}

fn oracle(data: &GeneratedDataSet) -> ByChannel {
    let mut out = ByChannel::new();
    for record in data.trace.iter() {
        let Some(spec) = data.network.resolve(&record.bus, record.message_id) else {
            continue;
        };
        for signal in spec.signals() {
            let Ok(value) = signal.decode(&record.payload) else {
                continue;
            };
            let (num, text) = match value {
                PhysicalValue::Num(v) => (Some(v), None),
                PhysicalValue::Text(s) => (None, Some(s)),
            };
            out.entry((signal.name().to_string(), record.bus.to_string()))
                .or_default()
                .push((micros(record.timestamp_s()), num, text));
        }
    }
    out
}

fn assert_matches_oracle(side: &str, got: &ByChannel, oracle: &ByChannel) {
    assert_eq!(
        got.len(),
        oracle.len(),
        "{side}: (signal, bus) pairs differ"
    );
    for (key, expected) in oracle {
        let rows = got
            .get(key)
            .unwrap_or_else(|| panic!("{side} produced no rows for {key:?}"));
        assert_eq!(
            rows.len(),
            expected.len(),
            "{side}: count differs for {key:?}"
        );
        assert!(rows == expected, "{side}: values differ for {key:?}");
    }
}

#[test]
fn pipeline_and_baseline_decode_identically() {
    let data = generate(&DataSetSpec::syn().with_target_examples(10_000)).expect("generate");
    let signals = data.signal_names();
    let selected: Vec<&str> = signals.iter().map(String::as_str).collect();
    let oracle = oracle(&data);

    // Proposed: K_s straight after interpretation (no reduction).
    let pipeline = Pipeline::new(
        RuleSet::from_network(&data.network),
        DomainProfile::new("equiv").with_signals(selected.clone()),
    )
    .expect("pipeline");
    let ks = pipeline
        .session(RunOptions::trace(&data.trace))
        .extract()
        .expect("extract")
        .frame
        .sort_by(&[c::T, c::SIGNAL, c::BUS], &[true, true, true])
        .expect("sort");
    let mut pipe = ByChannel::new();
    for row in ks.collect_rows().expect("rows") {
        let signal = row[1].as_str().expect("s_id").to_string();
        let bus = row[2].as_str().expect("b_id").to_string();
        pipe.entry((signal, bus)).or_default().push((
            micros(row[0].as_float().expect("t")),
            row[3].as_float(),
            row[4].as_str().map(str::to_string),
        ));
    }
    assert_matches_oracle("pipeline", &pipe, &oracle);

    // Baseline: interpret-on-ingest store.
    let ingested = SequentialAnalyzer::new(&data.network)
        .ingest(&data.trace)
        .expect("ingest");
    let mut base = ByChannel::new();
    for seq in ingested.extract(&selected) {
        let view = seq.view();
        for row in view.rows {
            let bus = view.channel(row).expect("b_id").to_string();
            base.entry((seq.signal.to_string(), bus))
                .or_default()
                .push((
                    micros(row.t().expect("t")),
                    row.num(),
                    view.text(row).map(|t| t.to_string()),
                ));
        }
    }
    assert_matches_oracle("baseline", &base, &oracle);

    let compared: usize = oracle.values().map(Vec::len).sum();
    assert!(compared > 5_000, "only {compared} instances compared");
}
