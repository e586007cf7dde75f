//! What a session tells its subscriber, asserted on exact counts: the
//! trace→frame ingest (a `tabular` span under `run`, rows in / rows kept),
//! the run's whole stage span tree (a query batch's too), the kernel
//! compiled once, the split's ordered-run counters, and the scatter taken
//! only with two or more workers.
//!
//! The subscriber is process-wide, so a concurrently running session would
//! add to another test's registry: every test here holds [`SUBSCRIBER`]
//! for its whole body, and no other test file asserts exact counts.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::{Arc, Mutex};

use ivnt::core::prelude::*;
use ivnt::core::{Query, Session};
use ivnt::simulator::prelude::*;
use ivnt::store::{StoreReader, StoreWriter, WriterOptions};

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
    pipeline
        .session(RunOptions::trace(&data.trace).with_subscriber(Arc::clone(&registry)))
        .run()
        .expect("run");
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counters["tabular_rows_in_total"],
        data.trace.len() as u64
    );
    assert_eq!(snapshot.counters["tabular_rows_kept_total"], kept);
    let spans = &snapshot.spans;
    let tabular = &spans["run/tabular"];
    assert_eq!(tabular.count, 1);
    assert!(tabular.seconds > 0.0);
    assert!(tabular.seconds + spans["run/interpret"].seconds <= spans["run"].seconds);
}

#[test]
fn a_run_records_one_span_tree_rooted_at_run() {
    let _alone = SUBSCRIBER.lock().unwrap_or_else(|e| e.into_inner());
    let data =
        generate(&DataSetSpec::syn().with_seed(23).with_target_examples(8_000)).expect("generate");
    // Extensions on two signals, so the per-signal extend and the gather
    // both do work.
    let mut profile = DomainProfile::new("tree").with_workers(2);
    for signal in data.signal_names().iter().take(2) {
        profile = profile.with_extension(ExtensionRule::Gap {
            signal: signal.clone(),
            alias: format!("{signal}Gap"),
        });
    }
    let pipeline = Pipeline::new(RuleSet::from_network(&data.network), profile).expect("pipeline");
    let registry = Arc::new(ivnt::obs::Registry::new());
    let output = pipeline
        .session(RunOptions::trace(&data.trace).with_subscriber(Arc::clone(&registry)))
        .run()
        .expect("run");
    let spans = registry.snapshot().spans;

    // Every stage is present: the serial stages once under `run`, the
    // per-signal stages once per signal under `fan_out` — and nothing else.
    let signals = output.signals.len() as u64;
    let run_stages = [
        "tabular",
        "interpret",
        "split",
        "fan_out",
        "extend_gather",
        "merge",
        "state",
    ];
    let fan_out_stages = ["dedup", "reduce", "extend", "classify", "branch"];
    let want: BTreeMap<String, u64> = std::iter::once(("run".to_string(), 1))
        .chain(run_stages.map(|s| (format!("run/{s}"), 1)))
        .chain(fan_out_stages.map(|s| (format!("fan_out/{s}"), signals)))
        .collect();
    let got: BTreeMap<String, u64> = spans.iter().map(|(k, s)| (k.clone(), s.count)).collect();
    assert_eq!(got, want);

    // The stages under `run` are disjoint intervals inside it.
    let run = spans["run"].seconds;
    let children: f64 = spans
        .values()
        .filter(|s| s.parent == "run")
        .map(|s| s.seconds)
        .sum();
    assert!(children <= run, "children {children} s exceed run {run} s");
    assert!(spans.values().all(|s| s.seconds >= 0.0));
}

#[test]
fn a_query_batch_is_one_run_sharing_one_interpret_and_split() {
    let _alone = SUBSCRIBER.lock().unwrap_or_else(|e| e.into_inner());
    let data =
        generate(&DataSetSpec::syn().with_seed(29).with_target_examples(4_000)).expect("generate");
    let options = WriterOptions {
        chunk_rows: 256,
        chunks_per_group: 4,
        cluster: true,
    };
    let mut writer = StoreWriter::new(Vec::new(), options).expect("create store");
    for r in data.trace.records() {
        writer.append(r).expect("append");
    }
    let mut reader =
        StoreReader::from_reader(Cursor::new(writer.seal().expect("seal"))).expect("open");

    // Two signal-disjoint domains: the shared pass decodes for both once.
    let names = data.signal_names();
    let u_rel = RuleSet::from_network(&data.network);
    let pipelines: Vec<Pipeline> = [&names[..3], &names[3..7]]
        .iter()
        .map(|signals| {
            let profile = DomainProfile::new("q")
                .with_signals(signals.iter().map(String::as_str))
                .with_workers(2);
            Pipeline::new(u_rel.clone(), profile).expect("pipeline")
        })
        .collect();
    let registry = Arc::new(ivnt::obs::Registry::new());
    let multi = Session::many(pipelines.iter().map(Query::new).collect(), &mut reader)
        .with_subscriber(Arc::clone(&registry))
        .run_each()
        .expect("shared run");
    let spans = registry.snapshot().spans;

    // One `run`, one shared `interpret` and `split`; each query's back
    // half once per query, its per-signal stages once per signal.
    let queries = multi.results.len() as u64;
    let signals: u64 = (multi.results.iter())
        .map(|q| q.output.signals.len() as u64)
        .sum();
    assert_eq!((queries, signals), (2, 7));
    let count = |key: &str| spans.get(key).map(|s| s.count);
    for key in ["run", "run/interpret", "run/split"] {
        assert_eq!(count(key), Some(1), "{key}");
    }
    for stage in ["fan_out", "extend_gather", "merge", "state"] {
        assert_eq!(count(&format!("run/{stage}")), Some(queries), "{stage}");
    }
    for stage in ["dedup", "reduce", "extend", "classify", "branch"] {
        assert_eq!(count(&format!("fan_out/{stage}")), Some(signals), "{stage}");
    }
    assert_eq!(count("run/tabular"), None, "a store pass has no ingest");
    let run = spans["run"].seconds;
    let children: f64 = spans
        .values()
        .filter(|s| s.parent == "run")
        .map(|s| s.seconds)
        .sum();
    assert!(children <= run, "children {children} s exceed run {run} s");
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
