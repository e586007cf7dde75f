//! What a session tells its subscriber, asserted on exact counts: the
//! trace→frame ingest (a `tabular` span under `run`, rows in / rows kept),
//! the kernel compiled once, the split's ordered-run counters, and the
//! scatter taken only with two or more workers.
//!
//! The subscriber is process-wide, so a concurrently running session would
//! add to another test's registry: every test here holds [`SUBSCRIBER`]
//! for its whole body, and no other test file asserts exact counts.

use std::sync::{Arc, Mutex};

use ivnt::core::prelude::*;
use ivnt::simulator::prelude::*;

/// Serializes the tests of this file around the process-wide subscriber.
static SUBSCRIBER: Mutex<()> = Mutex::new(());

#[test]
fn tabular_stage_is_observable() {
    let _alone = SUBSCRIBER.lock().unwrap_or_else(|e| e.into_inner());
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

#[test]
fn one_worker_session_skips_the_scatter_machinery() {
    let _alone = SUBSCRIBER.lock().unwrap_or_else(|e| e.into_inner());
    let data =
        generate(&DataSetSpec::syn().with_seed(23).with_target_examples(8_000)).expect("generate");
    let u_rel = RuleSet::from_network(&data.network);

    // `pipeline_scatter_total` is bumped exactly when the per-signal
    // fan-out goes through the executor. At 1 effective worker the session
    // must take the serial loop — a 1-worker pool is pure round-trip
    // overhead — while >=2 workers must still scatter.
    let mut scatters = Vec::new();
    for workers in [1usize, 2] {
        let profile = DomainProfile::new("scatter")
            .with_partitions(4)
            .with_workers(workers);
        let pipeline = Pipeline::new(u_rel.clone(), profile).expect("pipeline");
        let registry = Arc::new(ivnt::obs::Registry::new());
        let output = pipeline
            .session(RunOptions::trace(&data.trace).with_subscriber(Arc::clone(&registry)))
            .run()
            .expect("run");
        let counters = registry.snapshot().counters;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0);
        scatters.push(count("pipeline_scatter_total"));
        // One kernel for the selector, all four partitions and the split's
        // dictionaries; a time-ordered trace never takes the sort fallback.
        assert_eq!(count("interpret_kernel_builds_total"), 1);
        assert_eq!(
            count("split_runs_monotone_total"),
            output.signals.len() as u64
        );
        assert_eq!(counters.get("split_runs_sorted_total"), Some(&0));
    }
    assert_eq!(scatters, vec![0, 1], "serial fast path at 1 worker only");
}
