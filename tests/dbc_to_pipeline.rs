//! End to end from real documentation: a DBC file (with multiplexing)
//! parameterizes the pipeline, exactly how a domain would start from the
//! vehicle's communication matrix.

use std::sync::Arc;

use ivnt::core::prelude::*;
use ivnt::core::tabular::columns as c;
use ivnt::protocol::message::Protocol;
use ivnt::simulator::prelude::*;

const MATRIX: &str = r#"
VERSION "integration matrix"

BO_ 3 WiperStatus: 4 WiperEcu
 SG_ wpos : 0|16@1+ (0.5,0) [0|180] "deg" Body
 SG_ wvel : 16|16@1+ (1,0) [0|10] "rad/min" Body

BO_ 96 Diagnostics: 3 Gateway
 SG_ diag_page M : 0|8@1+ (1,0) [0|1] "" Tester
 SG_ oil_temp m0 : 8|16@1+ (0.1,-40) [-40|150] "C" Tester
 SG_ coolant_temp m1 : 8|16@1+ (0.1,-40) [-40|150] "C" Tester

BA_ "GenMsgCycleTime" BO_ 3 100;
"#;

fn rules_from_matrix() -> RuleSet {
    RuleSet::from_dbc(MATRIX, "PT").expect("matrix parses")
}

fn trace() -> Trace {
    let rec = |t_ms: u64, id: u32, payload: Vec<u8>| TraceRecord {
        timestamp_us: t_ms * 1000,
        bus: Arc::from("PT"),
        message_id: id,
        payload,
        protocol: Protocol::Can,
    };
    let temp = |raw: u16, page: u8| {
        let mut p = vec![page, 0, 0];
        p[1..3].copy_from_slice(&raw.to_le_bytes());
        p
    };
    Trace::from_records(vec![
        rec(0, 3, vec![0x5A, 0x00, 0x01, 0x00]),   // wpos 45, wvel 1
        rec(50, 96, temp(820, 0)),                 // oil 42 C
        rec(100, 3, vec![0x78, 0x00, 0x01, 0x00]), // wpos 60
        rec(150, 96, temp(905, 1)),                // coolant 50.5 C
    ])
}

#[test]
fn dbc_parameterizes_the_pipeline() {
    let rules = rules_from_matrix();
    // Fixed rules: wpos, wvel, diag_page; conditional: oil, coolant.
    assert_eq!(rules.len(), 5);
    let output = Pipeline::new(rules, DomainProfile::new("from-dbc"))
        .expect("pipeline")
        .session(RunOptions::trace(&trace()))
        .run()
        .expect("run");
    assert_eq!(output.signals.len(), 5);
    assert!(output.state.schema().contains("oil_temp"));
    assert!(output.state.schema().contains("coolant_temp"));
    assert!(output.state.schema().contains("wpos"));
}

#[test]
fn dbc_mux_values_decode_correctly() {
    let rules = rules_from_matrix()
        .select(&["oil_temp", "coolant_temp"])
        .expect("select");
    let pipeline = Pipeline::new(rules, DomainProfile::new("diag")).expect("pipeline");
    let ks = pipeline
        .session(RunOptions::trace(&trace()))
        .extract()
        .expect("extract")
        .frame;
    let rows = ks
        .sort_by(&[c::T], &[true])
        .expect("sort")
        .collect_rows()
        .expect("rows");
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][1].as_str(), Some("oil_temp"));
    assert!((rows[0][3].as_float().expect("oil") - 42.0).abs() < 1e-9);
    assert_eq!(rows[1][1].as_str(), Some("coolant_temp"));
    assert!((rows[1][3].as_float().expect("coolant") - 50.5).abs() < 1e-9);
}

#[test]
fn cycle_time_flows_from_dbc_attribute() {
    let rules = rules_from_matrix();
    let wpos = rules
        .rules()
        .iter()
        .find(|r| r.signal == "wpos")
        .expect("wpos rule");
    assert_eq!(wpos.info.expected_cycle_s, Some(0.1));
}

/// A DBC signal name is user text; the per-signal counters must escape it
/// into a valid label value.
#[test]
fn dbc_signal_names_are_escaped_in_metrics() {
    let matrix =
        "BO_ 3 WiperStatus: 4 WiperEcu\n SG_ x\"y : 0|16@1+ (0.5,0) [0|180] \"deg\" Body\n";
    let rules = RuleSet::from_dbc(matrix, "PT").expect("matrix parses");
    assert_eq!(rules.rules()[0].signal, "x\"y");
    let registry = Arc::new(ivnt::obs::Registry::new());
    Pipeline::new(rules, DomainProfile::new("escape"))
        .expect("pipeline")
        .session(RunOptions::trace(&trace()).with_subscriber(Arc::clone(&registry)))
        .run()
        .expect("run");
    let text = registry.snapshot().to_prometheus();
    assert!(
        text.contains(r#"pipeline_rows_total{signal="x\"y",stage="reduced"} "#),
        "signal name not escaped:\n{text}"
    );
}
