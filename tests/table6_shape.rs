//! The Table 6 shape as an executable assertion (medians of repeated runs,
//! wide tolerances — this guards the *shape*, not absolute numbers):
//!
//! 1. the in-house tool's extraction time is flat in the number of
//!    requested signals;
//! 2. the proposed pipeline beats the in-house tool when few signals are
//!    extracted (the preselection advantage).
//!
//! Both sides decode through the same compiled kernel, so they must also
//! extract the same instances — checked deterministically.

use std::time::Instant;

use ivnt::core::pipeline::RunOptions;
use ivnt_baseline::SequentialAnalyzer;
use ivnt_bench::{domain_pipeline, select_signals_for_fraction, vehicle_journey};

fn median_ms<F: FnMut()>(mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[1]
}

#[test]
fn table6_shape_holds() {
    let data = vehicle_journey(40_000, 0).expect("generate");
    let few = select_signals_for_fraction(&data, 9, 0.027);
    let many = select_signals_for_fraction(&data, 89, 0.165);

    let tool = SequentialAnalyzer::new(&data.network);
    let few_refs: Vec<&str> = few.iter().map(String::as_str).collect();
    let many_refs: Vec<&str> = many.iter().map(String::as_str).collect();
    let in_house_few = median_ms(|| {
        tool.extract_signals(&data.trace, &few_refs);
    });
    let in_house_many = median_ms(|| {
        tool.extract_signals(&data.trace, &many_refs);
    });

    let pipeline_few = domain_pipeline(&data, &few).expect("pipeline");
    let proposed_few = median_ms(|| {
        pipeline_few
            .session(RunOptions::trace(&data.trace))
            .extract_reduced()
            .expect("extract");
    });

    // Shape 1: in-house flat in #signals (within 50% either way).
    let ratio = in_house_many / in_house_few.max(1e-9);
    assert!(
        (0.5..=1.5).contains(&ratio),
        "in-house should be flat in #signals: {in_house_few:.1} ms vs {in_house_many:.1} ms"
    );

    // Shape 2: proposed wins for few signals (allow generous noise margin:
    // it must at least not lose).
    assert!(
        proposed_few < in_house_few * 1.1,
        "proposed ({proposed_few:.1} ms) should beat in-house ({in_house_few:.1} ms) at 9 signals"
    );
}

#[test]
fn in_house_extracts_the_proposed_ks_rows() {
    let data = vehicle_journey(10_000, 0).expect("generate");
    let tool = SequentialAnalyzer::new(&data.network);
    for (n, fraction) in [(9, 0.027), (89, 0.165)] {
        let signals = select_signals_for_fraction(&data, n, fraction);
        let names: Vec<&str> = signals.iter().map(String::as_str).collect();
        let ks_rows = domain_pipeline(&data, &signals)
            .expect("pipeline")
            .session(RunOptions::trace(&data.trace))
            .extract()
            .expect("extract")
            .frame
            .num_rows();
        assert!(ks_rows > 0);
        assert_eq!(
            tool.extract_signals(&data.trace, &names),
            ks_rows,
            "{n} signals"
        );
    }
}
