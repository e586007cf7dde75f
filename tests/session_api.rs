//! Regression contract for the `Pipeline::session` API redesign: every
//! legacy entry point (`run`, `run_serial`, `extract`,
//! `extract_without_preselection`, `extract_reduced`,
//! `extract_from_store`, `extract_from_store_with_stats`,
//! `extract_store_shard`) must be bit-identical to the equivalent
//! [`RunOptions`]-configured session, and installing an observability
//! subscriber must not change any output bit.
#![allow(deprecated)]

use ivnt::cluster::codec::encode_batch;
use ivnt::core::dedup::Dedup;
use ivnt::core::pipeline::{PipelineOutput, RunOptions};
use ivnt::core::prelude::*;
use ivnt::simulator::prelude::*;
use ivnt::store::{StoreReader, StoreWriter, WriterOptions};

fn dataset() -> GeneratedDataSet {
    generate(&DataSetSpec::syn().with_seed(41).with_target_examples(6_000)).expect("generate")
}

fn pipeline(data: &GeneratedDataSet, workers: Option<usize>) -> Pipeline {
    let u_rel = RuleSet::from_network(&data.network);
    let mut profile = DomainProfile::new("session-api");
    if let Some(w) = workers {
        profile = profile.with_workers(w);
    }
    Pipeline::new(u_rel, profile).expect("pipeline")
}

/// Re-encodes every output frame partition plus the per-signal metadata;
/// timing is measurement, not output, and is deliberately excluded.
fn fingerprint(output: &PipelineOutput) -> Vec<Vec<u8>> {
    let mut fp = Vec::new();
    for frame in [&output.extensions, &output.merged, &output.state] {
        fp.extend(frame.partitions().iter().map(encode_batch));
    }
    for s in &output.signals {
        fp.push(
            format!(
                "{} {:?} {} {:?} {:?} {} {}",
                s.signal,
                s.classification,
                s.representative_channel,
                s.corresponding_channels,
                s.mismatched_channels,
                s.rows_interpreted,
                s.rows_reduced
            )
            .into_bytes(),
        );
        fp.extend(s.frame.partitions().iter().map(encode_batch));
    }
    fp
}

fn frame_fp(frame: &ivnt::frame::frame::DataFrame) -> Vec<Vec<u8>> {
    frame.partitions().iter().map(encode_batch).collect()
}

fn reduced_fp(reduced: &[(SignalSequence, Dedup, usize)]) -> Vec<Vec<u8>> {
    let mut fp = Vec::new();
    for (seq, dedup, rows) in reduced {
        fp.push(
            format!(
                "{} {} {:?} {:?} {rows}",
                seq.signal, dedup.representative_channel, dedup.corresponding, dedup.mismatched
            )
            .into_bytes(),
        );
        fp.extend(frame_fp(&seq.frame));
        fp.extend(frame_fp(&dedup.representative.frame));
    }
    fp
}

#[test]
fn session_run_matches_legacy_run_and_run_serial() {
    let data = dataset();
    let p = pipeline(&data, Some(2));

    let legacy = fingerprint(&p.run(&data.trace).expect("run"));
    let session = fingerprint(
        &p.session(RunOptions::trace(&data.trace))
            .run()
            .expect("session run"),
    );
    assert_eq!(session, legacy, "session.run != legacy run");

    let legacy_serial = fingerprint(&p.run_serial(&data.trace).expect("run_serial"));
    let session_serial = fingerprint(
        &p.session(RunOptions::trace(&data.trace).serial())
            .run()
            .expect("session serial run"),
    );
    assert_eq!(
        session_serial, legacy_serial,
        "session.serial().run != legacy run_serial"
    );
    assert_eq!(legacy, legacy_serial, "parallel != serial reference");
}

#[test]
fn session_with_workers_matches_profile_workers() {
    let data = dataset();
    let via_profile = fingerprint(&pipeline(&data, Some(3)).run(&data.trace).expect("run"));
    let via_session = fingerprint(
        &pipeline(&data, None)
            .session(RunOptions::trace(&data.trace).with_workers(3))
            .run()
            .expect("session run"),
    );
    assert_eq!(via_session, via_profile);
}

#[test]
fn session_extract_matches_legacy_extract_paths() {
    let data = dataset();
    let p = pipeline(&data, Some(2));

    let legacy = p.extract(&data.trace).expect("extract");
    let session = p
        .session(RunOptions::trace(&data.trace))
        .extract()
        .expect("session extract");
    assert!(session.scan.is_none(), "trace sources carry no scan stats");
    assert_eq!(frame_fp(&session.frame), frame_fp(&legacy));

    let legacy_unpre = p
        .extract_without_preselection(&data.trace)
        .expect("extract_without_preselection");
    let session_unpre = p
        .session(RunOptions::trace(&data.trace).without_preselection())
        .extract()
        .expect("session unpreselected extract");
    assert_eq!(frame_fp(&session_unpre.frame), frame_fp(&legacy_unpre));
}

#[test]
fn session_extract_reduced_matches_legacy() {
    let data = dataset();
    let p = pipeline(&data, Some(2));
    let legacy = p.extract_reduced(&data.trace).expect("extract_reduced");
    let session = p
        .session(RunOptions::trace(&data.trace))
        .extract_reduced()
        .expect("session extract_reduced");
    assert_eq!(reduced_fp(&session), reduced_fp(&legacy));
}

#[test]
fn session_store_sources_match_legacy_store_entry_points() {
    let data = dataset();
    let p = pipeline(&data, Some(2));
    let path = std::env::temp_dir().join(format!("ivnt-session-api-{}.ivns", std::process::id()));
    let options = WriterOptions {
        chunk_rows: 128,
        chunks_per_group: 2,
        cluster: true,
    };
    let mut writer = StoreWriter::create(&path, options).expect("create store");
    for r in data.trace.records() {
        writer.append(r).expect("append");
    }
    writer.finish().expect("finish");

    let open = || StoreReader::open(&path).expect("open store");
    let groups = open().footer().groups;
    assert!(groups >= 2, "need multiple groups to shard");

    let legacy = p.extract_from_store(&mut open()).expect("from_store");
    let (legacy_stats_frame, legacy_stats) = p
        .extract_from_store_with_stats(&mut open())
        .expect("from_store_with_stats");
    let session = p
        .session(RunOptions::store(&mut open()))
        .extract()
        .expect("session store extract");
    assert_eq!(frame_fp(&session.frame), frame_fp(&legacy));
    assert_eq!(frame_fp(&session.frame), frame_fp(&legacy_stats_frame));
    assert_eq!(
        session.scan.expect("store sources carry scan stats"),
        legacy_stats
    );

    // Shards: each group range matches the legacy shard extractor, and the
    // concatenation over all groups reproduces the whole-store scan.
    let mut concatenated = Vec::new();
    for g in 0..groups {
        let legacy_shard = p
            .extract_store_shard(&mut open(), g..g + 1)
            .expect("legacy shard");
        let session_shard = p
            .session(RunOptions::store_shard(&mut open(), g..g + 1))
            .extract()
            .expect("session shard");
        let legacy_bytes: Vec<Vec<u8>> = legacy_shard.iter().map(encode_batch).collect();
        assert_eq!(
            frame_fp(&session_shard.frame),
            legacy_bytes,
            "shard {g} diverged"
        );
        concatenated.extend(legacy_bytes);
    }
    assert_eq!(concatenated, frame_fp(&legacy), "shards must tile the scan");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn subscriber_changes_no_output_bit_and_counters_are_deterministic() {
    let data = dataset();
    let p = pipeline(&data, Some(2));
    let bare = fingerprint(&p.run(&data.trace).expect("bare run"));

    let mut row_counters = Vec::new();
    for workers in [1usize, 2, 8] {
        let registry = std::sync::Arc::new(ivnt::obs::Registry::new());
        let run = p
            .session(
                RunOptions::trace(&data.trace)
                    .with_workers(workers)
                    .with_subscriber(std::sync::Arc::clone(&registry)),
            )
            .run()
            .expect("instrumented run");
        assert_eq!(
            fingerprint(&run),
            bare,
            "subscriber changed output at {workers} workers"
        );
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["pipeline_runs_total"], 1);
        let rows: Vec<(String, u64)> = snapshot
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("pipeline_rows_total"))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert!(!rows.is_empty(), "per-signal row counters recorded");
        row_counters.push(rows);
    }
    // The per-signal row counts — and their BTreeMap ordering — are
    // identical no matter how the fan-out was scheduled.
    assert_eq!(row_counters[0], row_counters[1]);
    assert_eq!(row_counters[0], row_counters[2]);
}
