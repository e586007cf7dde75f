//! Cross-path identities of the `Pipeline::session` API: every source and
//! switch a [`RunOptions`] can name must produce the same bits as its
//! reference session — trace vs `.serial()`, trace vs store (for extraction,
//! the reduced sequences and the full run), the store's row-group shards vs
//! the whole store, and an installed observability subscriber vs none.
//!
//! The subscriber is process-wide, so every test holds [`SUBSCRIBER`]:
//! a concurrent session would add to the subscriber test's counters.

use ivnt::cluster::codec::encode_batch;
use ivnt::core::dedup::Dedup;
use ivnt::core::pipeline::{PipelineOutput, RunOptions};
use ivnt::core::prelude::*;
use ivnt::simulator::prelude::*;
use ivnt::store::{StoreReader, StoreWriter, WriterOptions};

/// Serializes the tests of this file around the process-wide subscriber.
static SUBSCRIBER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn alone() -> std::sync::MutexGuard<'static, ()> {
    SUBSCRIBER.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// Re-encodes every output frame partition plus the per-signal metadata.
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

fn state_csv(output: &PipelineOutput) -> Vec<u8> {
    let mut csv = Vec::new();
    ivnt::frame::csv::write_csv(&output.state, &mut csv).expect("csv");
    csv
}

/// The dataset as an in-memory `.ivns` file of several row groups.
fn store_bytes(data: &GeneratedDataSet) -> Vec<u8> {
    let options = WriterOptions {
        chunk_rows: 128,
        chunks_per_group: 2,
        cluster: true,
    };
    let mut writer = StoreWriter::new(Vec::new(), options).expect("create store");
    for r in data.trace.records() {
        writer.append(r).expect("append");
    }
    writer.seal().expect("seal")
}

fn open(bytes: &[u8]) -> StoreReader<std::io::Cursor<&[u8]>> {
    StoreReader::from_reader(std::io::Cursor::new(bytes)).expect("open store")
}

#[test]
fn parallel_session_matches_serial_reference() {
    let _alone = alone();
    let data = dataset();
    let p = pipeline(&data, Some(2));
    let parallel = fingerprint(
        &p.session(RunOptions::trace(&data.trace))
            .run()
            .expect("run"),
    );
    let serial = fingerprint(
        &p.session(RunOptions::trace(&data.trace).serial())
            .run()
            .expect("serial run"),
    );
    assert_eq!(parallel, serial, "parallel != serial reference");
}

/// The reduced per-signal sequences, their dedup reports and pre-reduction
/// lengths as comparable rows (partition boundaries excluded: a store scan
/// and a trace cut their frames differently).
fn reduced_rows(reduced: &[(SignalSequence, Dedup, usize)]) -> Vec<String> {
    let mut out = Vec::new();
    for (seq, dedup, rows) in reduced {
        out.push(format!(
            "{} {} {:?} {:?} {rows}",
            seq.signal, dedup.representative_channel, dedup.corresponding, dedup.mismatched
        ));
        for frame in [&seq.frame, &dedup.representative.frame] {
            out.push(format!("{:?}", frame.collect_rows().expect("rows")));
        }
    }
    out
}

#[test]
fn reduced_sequences_match_across_serial_and_store_sources() {
    let _alone = alone();
    let data = dataset();
    let p = pipeline(&data, Some(2));
    let parallel = p
        .session(RunOptions::trace(&data.trace))
        .extract_reduced()
        .expect("reduced");
    assert!(!parallel.is_empty(), "the dataset yields signals");
    let serial = p
        .session(RunOptions::trace(&data.trace).serial())
        .extract_reduced()
        .expect("serial reduced");
    assert_eq!(reduced_rows(&serial), reduced_rows(&parallel));
    let bytes = store_bytes(&data);
    let store = p
        .session(RunOptions::store(&mut open(&bytes)))
        .extract_reduced()
        .expect("store reduced");
    assert_eq!(reduced_rows(&store), reduced_rows(&parallel));
}

#[test]
fn store_session_matches_trace_session() {
    let _alone = alone();
    // SYN, and STA, whose value-table signals carry text labels.
    let sta = generate(&DataSetSpec::sta().with_seed(41)).expect("generate STA");
    for data in [dataset(), sta] {
        let p = pipeline(&data, Some(2));
        let bytes = store_bytes(&data);

        let trace_ex = p
            .session(RunOptions::trace(&data.trace))
            .extract()
            .expect("trace extract");
        assert!(trace_ex.scan.is_none(), "trace sources carry no scan stats");
        let store_ex = p
            .session(RunOptions::store(&mut open(&bytes)))
            .extract()
            .expect("store extract");
        assert!(store_ex.scan.is_some(), "store sources carry scan stats");
        let rows = trace_ex.frame.collect_rows().expect("trace rows");
        assert_eq!(store_ex.frame.collect_rows().expect("store rows"), rows);
        let labels = rows.iter().filter(|r| !r[4].is_null()).count();
        assert!(
            labels > 0 || data.spec.name != "STA",
            "STA labels in v_text"
        );

        // The full run — what `ivnt run --state-csv` writes — is identical
        // too.
        let trace_run = p
            .session(RunOptions::trace(&data.trace))
            .run()
            .expect("trace run");
        let store_run = p
            .session(RunOptions::store(&mut open(&bytes)))
            .run()
            .expect("store run");
        assert_eq!(state_csv(&store_run), state_csv(&trace_run));
    }
}

#[test]
fn store_shards_tile_the_store_scan() {
    let _alone = alone();
    let data = dataset();
    let p = pipeline(&data, Some(2));
    let bytes = store_bytes(&data);
    let groups = open(&bytes).footer().groups;
    assert!(groups >= 3, "need at least three groups to shard");

    let whole = p
        .session(RunOptions::store(&mut open(&bytes)))
        .extract()
        .expect("store extract");
    // A 3-way split of the group range, concatenated in group order.
    let cuts = [0, groups / 3, 2 * groups / 3, groups];
    let mut concatenated = Vec::new();
    for w in cuts.windows(2) {
        let shard = p
            .session(RunOptions::store_shard(&mut open(&bytes), w[0]..w[1]))
            .extract()
            .expect("shard extract");
        concatenated.extend(frame_fp(&shard.frame));
    }
    assert_eq!(
        concatenated,
        frame_fp(&whole.frame),
        "shards must tile the scan"
    );
}

#[test]
fn subscriber_changes_no_output_bit_and_counters_are_deterministic() {
    let _alone = alone();
    let data = dataset();
    let bare = fingerprint(
        &pipeline(&data, Some(2))
            .session(RunOptions::trace(&data.trace))
            .run()
            .expect("bare run"),
    );

    let mut row_counters = Vec::new();
    for workers in [1usize, 2, 8] {
        let registry = std::sync::Arc::new(ivnt::obs::Registry::new());
        let run = pipeline(&data, Some(workers))
            .session(
                RunOptions::trace(&data.trace).with_subscriber(std::sync::Arc::clone(&registry)),
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
