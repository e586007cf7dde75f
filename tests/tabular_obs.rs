//! The trace→frame ingest is visible without a profiler: a `tabular` span
//! under `run` and the rows-in / rows-kept counters whose ratio is the
//! preselection's selectivity. Alone in its file: the subscriber is
//! process-wide, so a concurrently running test would add to the counts.

use std::sync::Arc;

use ivnt::core::prelude::*;
use ivnt::simulator::prelude::*;

#[test]
fn tabular_stage_is_observable() {
    let data =
        generate(&DataSetSpec::syn().with_seed(19).with_target_examples(2_000)).expect("generate");
    let profile = DomainProfile::new("obs")
        .with_signals(data.signal_names().iter().step_by(6).map(String::as_str))
        .with_workers(2);
    let pipeline = Pipeline::new(RuleSet::from_network(&data.network), profile).expect("pipeline");
    let kept = pipeline
        .preselect(&data.trace)
        .expect("preselect")
        .num_rows() as u64;
    assert!(kept > 0 && kept < data.trace.len() as u64);

    let registry = Arc::new(ivnt::obs::Registry::new());
    let output = pipeline
        .session(RunOptions::trace(&data.trace).with_subscriber(Arc::clone(&registry)))
        .run()
        .expect("run");
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counters["tabular_rows_in_total"],
        data.trace.len() as u64
    );
    assert_eq!(snapshot.counters["tabular_rows_kept_total"], kept);
    let span = &snapshot.spans["run/tabular"];
    assert_eq!(span.count, 1);
    assert_eq!(span.seconds, output.timing.tabular);
    assert!(output.timing.tabular > 0.0);
    assert!(output.timing.tabular + output.timing.interpret <= output.timing.total);
}
