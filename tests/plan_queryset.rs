//! Cross-crate integration: the multi-query planner's bit-identity
//! contract.
//!
//! `Pipeline::session_many` answers N queries from one shared store pass;
//! every answer must be bit-identical to running the same query as its own
//! [`Pipeline::session`]. Covered here: the signal-disjoint union-kernel
//! fast path, the overlapping-signal fallback, windowed queries, queries
//! the zone maps prune entirely.

use std::io::Cursor;
use std::sync::OnceLock;

use ivnt::core::pipeline::{Pipeline, PipelineOutput, RunOptions};
use ivnt::frame::frame::DataFrame;
use ivnt::plan::{Query, SessionMany};
use ivnt::store::{StoreReader, StoreWriter, WriterOptions};
use ivnt_bench::{disjoint_domains, domain_pipeline, vehicle_journey};

struct Fixture {
    data: ivnt::simulator::scenario::GeneratedDataSet,
    bytes: Vec<u8>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let data = vehicle_journey(12_000, 9).expect("workload generates");
        let options = WriterOptions {
            chunk_rows: 256,
            chunks_per_group: 4,
            cluster: true,
        };
        let mut writer = StoreWriter::new(Vec::new(), options).expect("create store");
        for r in data.trace.records() {
            writer.append(r).expect("append");
        }
        let bytes = writer.finish().expect("finish");
        Fixture { data, bytes }
    })
}

fn reader(fx: &Fixture) -> StoreReader<Cursor<Vec<u8>>> {
    StoreReader::from_reader(Cursor::new(fx.bytes.clone())).expect("open store")
}

fn assert_frames_eq(got: &DataFrame, want: &DataFrame, what: &str) {
    assert_eq!(got.schema(), want.schema(), "{what}: schema diverged");
    assert_eq!(
        got.collect_rows().expect("got rows"),
        want.collect_rows().expect("want rows"),
        "{what}: rows diverged"
    );
}

fn assert_outputs_eq(got: &PipelineOutput, want: &PipelineOutput, what: &str) {
    assert_eq!(
        got.signals.len(),
        want.signals.len(),
        "{what}: signal count"
    );
    for (g, w) in got.signals.iter().zip(&want.signals) {
        assert_eq!(g.signal, w.signal, "{what}: signal order");
        assert_eq!(g.classification, w.classification, "{what}/{}", g.signal);
        assert_eq!(
            g.representative_channel, w.representative_channel,
            "{what}/{}: representative",
            g.signal
        );
        assert_eq!(
            g.corresponding_channels, w.corresponding_channels,
            "{what}/{}: corresponding",
            g.signal
        );
        assert_eq!(
            g.mismatched_channels, w.mismatched_channels,
            "{what}/{}: mismatched",
            g.signal
        );
        assert_eq!(
            g.rows_interpreted, w.rows_interpreted,
            "{what}/{}: rows_interpreted",
            g.signal
        );
        assert_eq!(
            g.rows_reduced, w.rows_reduced,
            "{what}/{}: rows_reduced",
            g.signal
        );
        assert_frames_eq(&g.frame, &w.frame, &format!("{what}/{} K_res", g.signal));
    }
    assert_frames_eq(&got.extensions, &want.extensions, &format!("{what}: W"));
    assert_frames_eq(&got.merged, &want.merged, &format!("{what}: K_rep"));
    assert_frames_eq(&got.state, &want.state, &format!("{what}: state"));
}

fn solo_extract(p: &Pipeline, fx: &Fixture, window: Option<(u64, u64)>) -> DataFrame {
    let mut r = reader(fx);
    let mut opts = RunOptions::store(&mut r);
    if let Some((from, to)) = window {
        opts = opts.with_time_window(from, to);
    }
    p.session(opts).extract().expect("solo extract").frame
}

fn solo_run(p: &Pipeline, fx: &Fixture, window: Option<(u64, u64)>) -> PipelineOutput {
    let mut r = reader(fx);
    let mut opts = RunOptions::store(&mut r);
    if let Some((from, to)) = window {
        opts = opts.with_time_window(from, to);
    }
    p.session(opts).run().expect("solo run")
}

/// Disjoint-signal tenants: the union kernel runs once, yet every query's
/// extraction and full output match its solo session bit for bit.
#[test]
fn disjoint_domains_share_one_interpret_pass_bit_identically() {
    let fx = fixture();
    let domains: Vec<Vec<String>> = disjoint_domains(&fx.data, 4)
        .into_iter()
        .map(|mut d| {
            d.truncate(12);
            d
        })
        .collect();
    let pipelines: Vec<Pipeline> = domains
        .iter()
        .map(|d| domain_pipeline(&fx.data, d).expect("pipeline builds"))
        .collect();

    let mut r = reader(fx);
    let queries: Vec<Query<'_>> = pipelines
        .iter()
        .enumerate()
        .map(|(i, p)| Query::new(p).with_label(format!("dom{i}")))
        .collect();
    let multi = Pipeline::session_many(queries, &mut r)
        .extract()
        .expect("shared extract");

    assert!(multi.plan.shared_interpret, "disjoint domains must share");
    assert_eq!(multi.plan.queries, 4);
    assert_eq!(multi.plan.scans_saved, 3, "4 queries, 1 scan");
    assert!(multi.plan.scan.is_some(), "a scan must have run");
    for (i, (qx, p)) in multi.frames.iter().zip(&pipelines).enumerate() {
        assert_eq!(qx.label, format!("dom{i}"));
        assert!(qx.stats.rows_routed > 0, "dom{i} routed no rows");
        let want = solo_extract(p, fx, None);
        assert_frames_eq(&qx.frame, &want, &format!("dom{i} K_s"));
    }

    let mut r = reader(fx);
    let queries: Vec<Query<'_>> = pipelines.iter().map(Query::new).collect();
    let multi = Pipeline::session_many(queries, &mut r)
        .run()
        .expect("shared run");
    for (i, (qr, p)) in multi.results.iter().zip(&pipelines).enumerate() {
        let want = solo_run(p, fx, None);
        assert_outputs_eq(&qr.output, &want, &format!("dom{i}"));
    }
}

/// Overlapping signal sets force the per-query fallback; identity holds.
#[test]
fn overlapping_domains_fall_back_and_stay_identical() {
    let fx = fixture();
    let base = disjoint_domains(&fx.data, 2);
    let mut a = base[0].clone();
    a.truncate(10);
    let mut b = base[1].clone();
    b.truncate(10);
    // Claim one of a's signals in b too: ownership is now ambiguous.
    b.push(a[0].clone());
    let pa = domain_pipeline(&fx.data, &a).expect("pipeline a");
    let pb = domain_pipeline(&fx.data, &b).expect("pipeline b");

    let mut r = reader(fx);
    let multi = Pipeline::session_many(vec![Query::new(&pa), Query::new(&pb)], &mut r)
        .extract()
        .expect("shared extract");
    assert!(
        !multi.plan.shared_interpret,
        "overlapping signals must not share the kernel"
    );
    assert_frames_eq(
        &multi.frames[0].frame,
        &solo_extract(&pa, fx, None),
        "overlap a",
    );
    assert_frames_eq(
        &multi.frames[1].frame,
        &solo_extract(&pb, fx, None),
        "overlap b",
    );

    let mut r = reader(fx);
    let multi = Pipeline::session_many(vec![Query::new(&pa), Query::new(&pb)], &mut r)
        .run()
        .expect("shared run");
    assert_outputs_eq(&multi.results[0].output, &solo_run(&pa, fx, None), "a");
    assert_outputs_eq(&multi.results[1].output, &solo_run(&pb, fx, None), "b");
}

/// A windowed query matches a solo session restricted by
/// [`RunOptions::with_time_window`]; mixing windowed and full queries in
/// one batch disables the union kernel but not the shared scan.
#[test]
fn windowed_queries_match_windowed_solo_sessions() {
    let fx = fixture();
    let last = fx
        .data
        .trace
        .records()
        .iter()
        .map(|r| r.timestamp_us)
        .max()
        .unwrap_or(0);
    let window = (last / 4, last / 2);

    let domains = disjoint_domains(&fx.data, 2);
    let mut a = domains[0].clone();
    a.truncate(8);
    let mut b = domains[1].clone();
    b.truncate(8);
    let pa = domain_pipeline(&fx.data, &a).expect("pipeline a");
    let pb = domain_pipeline(&fx.data, &b).expect("pipeline b");

    let mut r = reader(fx);
    let queries = vec![
        Query::new(&pa).with_window(window.0, window.1),
        Query::new(&pb),
    ];
    let multi = Pipeline::session_many(queries, &mut r)
        .extract()
        .expect("shared extract");
    assert!(
        !multi.plan.shared_interpret,
        "a windowed query must disable the union kernel"
    );
    assert_frames_eq(
        &multi.frames[0].frame,
        &solo_extract(&pa, fx, Some(window)),
        "windowed a",
    );
    assert_frames_eq(&multi.frames[1].frame, &solo_extract(&pb, fx, None), "b");

    let mut r = reader(fx);
    let queries = vec![
        Query::new(&pa).with_window(window.0, window.1),
        Query::new(&pb),
    ];
    let multi = Pipeline::session_many(queries, &mut r)
        .run()
        .expect("shared run");
    assert_outputs_eq(
        &multi.results[0].output,
        &solo_run(&pa, fx, Some(window)),
        "windowed a",
    );
    assert_outputs_eq(&multi.results[1].output, &solo_run(&pb, fx, None), "b");
}

/// A query whose window excludes the whole trace still gets the store
/// source's empty-frame padding, exactly like its solo session.
#[test]
fn fully_pruned_query_matches_solo_empty_extraction() {
    let fx = fixture();
    let last = fx
        .data
        .trace
        .records()
        .iter()
        .map(|r| r.timestamp_us)
        .max()
        .unwrap_or(0);
    let window = (last + 1_000_000, last + 2_000_000);

    let domains = disjoint_domains(&fx.data, 2);
    let mut a = domains[0].clone();
    a.truncate(6);
    let pa = domain_pipeline(&fx.data, &a).expect("pipeline a");
    let mut b = domains[1].clone();
    b.truncate(6);
    let pb = domain_pipeline(&fx.data, &b).expect("pipeline b");

    let mut r = reader(fx);
    let queries = vec![
        Query::new(&pa).with_window(window.0, window.1),
        Query::new(&pb),
    ];
    let multi = Pipeline::session_many(queries, &mut r)
        .extract()
        .expect("shared extract");
    assert_eq!(multi.frames[0].stats.rows_routed, 0);
    assert_eq!(
        multi.frames[0].frame.num_rows(),
        0,
        "window is past the end"
    );
    assert_frames_eq(
        &multi.frames[0].frame,
        &solo_extract(&pa, fx, Some(window)),
        "pruned a",
    );
    assert_frames_eq(&multi.frames[1].frame, &solo_extract(&pb, fx, None), "b");
}

/// The serial oracle and the parallel fan-out agree (the planner's analog
/// of the pipeline's own serial/parallel determinism guarantee).
#[test]
fn serial_and_parallel_multi_runs_agree() {
    let fx = fixture();
    let domains: Vec<Vec<String>> = disjoint_domains(&fx.data, 2)
        .into_iter()
        .map(|mut d| {
            d.truncate(8);
            d
        })
        .collect();
    let pipelines: Vec<Pipeline> = domains
        .iter()
        .map(|d| domain_pipeline(&fx.data, d).expect("pipeline builds"))
        .collect();

    let mut r = reader(fx);
    let queries: Vec<Query<'_>> = pipelines.iter().map(Query::new).collect();
    let parallel = Pipeline::session_many(queries, &mut r)
        .run()
        .expect("parallel run");
    let mut r = reader(fx);
    let queries: Vec<Query<'_>> = pipelines.iter().map(Query::new).collect();
    let serial = Pipeline::session_many(queries, &mut r)
        .serial()
        .run()
        .expect("serial run");
    for (p, s) in parallel.results.iter().zip(&serial.results) {
        assert_outputs_eq(&p.output, &s.output, "serial vs parallel");
    }
}

/// A query label is user text (`ivnt query --domain NAME=…`); the
/// per-query counter must escape it into a valid label value.
#[test]
fn query_labels_are_escaped_in_metrics() {
    let fx = fixture();
    let domain = &disjoint_domains(&fx.data, 1)[0][..3];
    let pipeline = domain_pipeline(&fx.data, domain).expect("pipeline builds");
    let registry = std::sync::Arc::new(ivnt::obs::Registry::new());
    let mut r = reader(fx);
    Pipeline::session_many(vec![Query::new(&pipeline).with_label("a\"b\\c")], &mut r)
        .with_subscriber(std::sync::Arc::clone(&registry))
        .run()
        .expect("shared run");
    let text = registry.snapshot().to_prometheus();
    assert!(
        text.contains(r#"plan_rows_routed_total{query="a\"b\\c"} "#),
        "label not escaped:\n{text}"
    );
}
