//! Incremental ≡ batch: the streaming pipeline's concatenated deltas and
//! close-time summaries must be bit-identical to the batch
//! `Pipeline::session(..).extract_reduced()` output for closed streams,
//! under arbitrary micro-batch boundaries (including single-row batches),
//! with arrival jitter inside the watermark, and with dedup on or off.

use std::collections::HashMap;
use std::sync::OnceLock;

use ivnt_core::dedup::Dedup;
use ivnt_core::pipeline::{DomainProfile, Pipeline, RunOptions};
use ivnt_core::reduce::{ConditionFn, Constraint};
use ivnt_core::rules::RuleSet;
use ivnt_core::split::SignalSequence;
use ivnt_simulator::prelude::*;
use ivnt_store::{Record, StoreReader, StoreWriter, WriterOptions};
use ivnt_stream::{
    flatten_reduced, summarize_batch, DeltaRow, SignalSummary, StreamOptions, StreamingSession,
};
use proptest::prelude::*;

fn dataset() -> &'static GeneratedDataSet {
    static DATA: OnceLock<GeneratedDataSet> = OnceLock::new();
    DATA.get_or_init(|| {
        generate(&DataSetSpec::syn().with_seed(41).with_target_examples(4_000))
            .expect("generate SYN dataset")
    })
}

fn pipeline(network: &NetworkModel, profile: DomainProfile) -> Pipeline {
    Pipeline::new(RuleSet::from_network(network), profile).expect("pipeline")
}

fn records(trace: &Trace) -> Vec<Record> {
    trace.records().to_vec()
}

fn batch_reduced(p: &Pipeline, trace: &Trace) -> Vec<(SignalSequence, Dedup, usize)> {
    p.session(RunOptions::trace(trace))
        .extract_reduced()
        .expect("batch extract_reduced")
}

/// Streams `records` in chunks drawn round-robin from `chunk_sizes`,
/// returning concatenated per-signal rows, the summaries, and the
/// session's buffered-rows high-water mark.
fn stream_reduced(
    p: &Pipeline,
    records: &[Record],
    chunk_sizes: &[usize],
    options: StreamOptions,
) -> (HashMap<String, Vec<DeltaRow>>, Vec<SignalSummary>, usize) {
    let mut session = StreamingSession::new(p, options).expect("streaming session");
    let mut rows: HashMap<String, Vec<DeltaRow>> = HashMap::new();
    let mut offset = 0;
    let mut pick = 0;
    while offset < records.len() {
        let size = chunk_sizes[pick % chunk_sizes.len()].max(1);
        pick += 1;
        let end = (offset + size).min(records.len());
        for delta in session.push_records(&records[offset..end]).expect("push") {
            rows.entry(delta.signal).or_default().extend(delta.rows);
        }
        offset = end;
    }
    let peak = session.peak_buffered_rows();
    let close = session.close().expect("close");
    for delta in close.deltas {
        rows.entry(delta.signal).or_default().extend(delta.rows);
    }
    (rows, close.summaries, peak)
}

/// Asserts one streaming run is bit-identical to one batch run.
fn assert_identical(
    batch: &[(SignalSequence, Dedup, usize)],
    rows: &HashMap<String, Vec<DeltaRow>>,
    summaries: &[SignalSummary],
) {
    assert_eq!(batch.len(), summaries.len(), "signal count");
    for ((reduced, dedup, interpreted), summary) in batch.iter().zip(summaries) {
        let expect = summarize_batch(reduced, dedup, *interpreted);
        assert_eq!(&expect, summary, "summary for {}", reduced.signal);
        let expect_rows = flatten_reduced(reduced).expect("flatten");
        let got = rows.get(&reduced.signal).cloned().unwrap_or_default();
        assert_eq!(expect_rows, got, "rows for {}", reduced.signal);
    }
}

#[test]
fn fixed_chunks_match_batch() {
    let data = dataset();
    let p = pipeline(&data.network, DomainProfile::new("stream-id"));
    let batch = batch_reduced(&p, &data.trace);
    let recs = records(&data.trace);
    let (rows, summaries, _) = stream_reduced(&p, &recs, &[64], StreamOptions::default());
    assert_identical(&batch, &rows, &summaries);
    assert!(summaries.iter().all(|s| s.rep_conflicts == 0));
    // The gateway must actually be exercised: some signal has a
    // corresponding channel, or this test proves nothing about dedup.
    assert!(summaries.iter().any(|s| !s.corresponding.is_empty()));
}

#[test]
fn single_row_batches_match_batch() {
    let data = dataset();
    let p = pipeline(&data.network, DomainProfile::new("stream-id-1row"));
    let batch = batch_reduced(&p, &data.trace);
    let recs = records(&data.trace);
    let (rows, summaries, _) = stream_reduced(&p, &recs, &[1], StreamOptions::default());
    assert_identical(&batch, &rows, &summaries);
}

#[test]
fn dedup_disabled_matches_batch() {
    let data = dataset();
    let p = pipeline(
        &data.network,
        DomainProfile::new("stream-nodedup").with_dedup(false),
    );
    let batch = batch_reduced(&p, &data.trace);
    let recs = records(&data.trace);
    let (rows, summaries, _) = stream_reduced(&p, &recs, &[97], StreamOptions::default());
    assert_identical(&batch, &rows, &summaries);
}

#[test]
fn alternate_constraints_match_batch() {
    let data = dataset();
    let constraints = vec![Constraint::global(vec![
        ConditionFn::ValueChanged,
        ConditionFn::GapExceeds { max_gap_s: 0.25 },
        ConditionFn::EveryNth { n: 37 },
    ])];
    let p = pipeline(
        &data.network,
        DomainProfile::new("stream-constraints").with_constraints(constraints),
    );
    let batch = batch_reduced(&p, &data.trace);
    let recs = records(&data.trace);
    let (rows, summaries, _) = stream_reduced(&p, &recs, &[33], StreamOptions::default());
    assert_identical(&batch, &rows, &summaries);
}

#[test]
fn cluster_reduction_is_rejected() {
    let data = dataset();
    let p = pipeline(
        &data.network,
        DomainProfile::new("stream-cluster").with_reduction(
            ivnt_core::reduce::Reduction::Cluster {
                k: 4,
                max_iterations: 10,
            },
        ),
    );
    let err = StreamingSession::new(&p, StreamOptions::default());
    assert!(matches!(err, Err(ivnt_stream::Error::Unsupported(_))));
}

/// Jitter inside the watermark: records arrive slightly out of time order;
/// the reorder buffer must reconstruct the exact batch order. The batch
/// reference runs over a store holding the *same jittered record
/// sequence*, so both sides see identical input rows.
#[test]
fn jittered_arrival_matches_batch_over_store() {
    let data = dataset();
    let p = pipeline(&data.network, DomainProfile::new("stream-jitter"));
    let mut recs = records(&data.trace);
    // Deterministic local shuffle: swap neighbors a few positions apart.
    // Timestamps stay untouched, so the time order the batch sort
    // recovers is unchanged — only arrival order differs.
    let n = recs.len();
    for i in (0..n.saturating_sub(7)).step_by(5) {
        let j = i + 1 + (i * 2_654_435_761) % 6;
        recs.swap(i, j.min(n - 1));
    }
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ivnt-stream-jitter-{}.ivns", std::process::id()));
    let mut writer = StoreWriter::create(&path, WriterOptions::default()).expect("store writer");
    for r in &recs {
        writer.append(r).expect("append");
    }
    writer.seal().expect("seal");
    let mut reader = StoreReader::open(&path).expect("open");
    let batch = p
        .session(RunOptions::store(&mut reader))
        .extract_reduced()
        .expect("batch over store");
    drop(reader);
    let _ = std::fs::remove_file(&path);

    let (rows, summaries, _) = stream_reduced(&p, &recs, &[71], StreamOptions::default());
    assert_identical(&batch, &rows, &summaries);
}

/// Bounded memory: stream many laps of the trace (far more rows than one
/// watermark window holds) and check the buffered-rows high-water mark is
/// a small fraction of the total and stops growing after warm-up.
#[test]
fn memory_stays_bounded_over_many_windows() {
    let data = dataset();
    let p = pipeline(&data.network, DomainProfile::new("stream-bounded"));
    let base = records(&data.trace);
    let lap_span = base.iter().map(|r| r.timestamp_us).max().unwrap_or(0) + 1_000;
    let laps = 12usize;
    let options = StreamOptions {
        // One lap spans `duration_s` seconds; the watermark covers a small
        // slice of it, so 12 laps stream ≥ 10× the reorder window.
        watermark_s: data.spec.duration_s / 10.0,
        ..StreamOptions::default()
    };
    let mut session = StreamingSession::new(&p, options).expect("session");
    let mut total = 0usize;
    let mut warmup_peak = 0usize;
    for lap in 0..laps {
        let shifted: Vec<Record> = base
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.timestamp_us += lap as u64 * lap_span;
                r
            })
            .collect();
        for chunk in shifted.chunks(256) {
            session.push_records(chunk).expect("push");
            total += chunk.len();
        }
        if lap == 2 {
            warmup_peak = session.peak_buffered_rows();
        }
    }
    let peak = session.peak_buffered_rows();
    session.close().expect("close");
    assert!(total >= 10 * 256, "stream long enough to matter");
    assert!(
        peak * 4 < total,
        "peak buffered rows {peak} should be well under total {total}"
    );
    assert!(
        peak <= warmup_peak * 3 / 2,
        "buffer kept growing after warm-up: {warmup_peak} -> {peak}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The core identity property: ANY micro-batch boundary placement
    /// (sizes 1..=120, cycled) reproduces the batch output bit-for-bit.
    #[test]
    fn randomized_micro_batch_boundaries_match_batch(
        sizes in prop::collection::vec(1usize..120, 1..12),
    ) {
        let data = dataset();
        let p = pipeline(&data.network, DomainProfile::new("stream-prop"));
        let batch = batch_reduced(&p, &data.trace);
        let recs = records(&data.trace);
        let (rows, summaries, _) =
            stream_reduced(&p, &recs, &sizes, StreamOptions::default());
        prop_assert_eq!(batch.len(), summaries.len());
        for ((reduced, dedup, interpreted), summary) in batch.iter().zip(&summaries) {
            let expect = summarize_batch(reduced, dedup, *interpreted);
            prop_assert_eq!(&expect, summary);
            let expect_rows = flatten_reduced(reduced).expect("flatten");
            let got = rows.get(&reduced.signal).cloned().unwrap_or_default();
            prop_assert_eq!(expect_rows, got);
        }
    }
}

/// The stream's three counted deviations from batch, as exact counts, on
/// one gatewayed signal streamed alone with every row kept by reduction:
/// (a) a row pushed behind the released watermark is counted late and
/// still emitted; (b) a home channel held back past the first release
/// leaves the other channel pinned, one conflict per held-back home row;
/// (c) a mirror lagging its representative by more than `history_cap`
/// rows is declared mismatched although batch calls it corresponding.
#[test]
fn counted_deviations_are_exact() {
    let data = dataset();
    let all = RuleSet::from_network(&data.network);
    let p = pipeline(&data.network, DomainProfile::new("stream-deviations"));
    let (_, gatewayed, _) = batch_reduced(&p, &data.trace)
        .into_iter()
        .find(|(_, d, _)| d.corresponding.len() == 1 && d.mismatched.is_empty())
        .expect("a signal with exactly one faithful gateway copy");
    let (home, mirror) = (
        gatewayed.representative_channel.as_str(),
        gatewayed.corresponding[0].as_str(),
    );
    let rules = all
        .select(&[gatewayed.representative.signal.as_str()])
        .expect("select");
    let p = Pipeline::new(
        rules.clone(),
        DomainProfile::new("stream-deviations-1").with_constraints(Vec::new()),
    )
    .expect("pipeline");
    let keys: Vec<(&str, u32)> = rules
        .rules()
        .iter()
        .map(|r| (r.bus.as_str(), r.message_id))
        .collect();
    let on = |bus: &str| -> Vec<Record> {
        records(&data.trace)
            .into_iter()
            .filter(|r| &*r.bus == bus && keys.contains(&(bus, r.message_id)))
            .collect()
    };
    let (home_recs, mirror_recs) = (on(home), on(mirror));
    let run = |options: StreamOptions, pushes: &[Vec<Record>]| {
        let mut session = StreamingSession::new(&p, options).expect("session");
        let mut rows = Vec::new();
        for push in pushes {
            for chunk in push.chunks(16) {
                for delta in session.push_records(chunk).expect("push") {
                    rows.extend(delta.rows);
                }
            }
        }
        let late = session.late_rows();
        let close = session.close().expect("close");
        rows.extend(close.deltas.into_iter().flat_map(|d| d.rows));
        assert_eq!(close.summaries.len(), 1);
        (rows, close.summaries[0].clone(), late)
    };

    // (a) One home record held back to the end of its own stream.
    let mut early = home_recs.clone();
    let late = early.remove(early.len() / 2);
    let (rows, summary, late_rows) = run(StreamOptions::default(), &[early, vec![late.clone()]]);
    assert_eq!(late_rows, 1);
    assert_eq!(rows.len(), home_recs.len());
    assert!(rows.iter().any(|r| r.t == late.timestamp_s()));
    assert_eq!(summary.rep_conflicts, 0);

    // (b) Every home record held back until the mirror has streamed.
    let (rows, summary, _) = run(
        StreamOptions::default(),
        &[mirror_recs.clone(), home_recs.clone()],
    );
    assert_eq!(summary.representative_channel, mirror);
    assert_eq!(summary.rep_conflicts, home_recs.len() as u64);
    assert_eq!(rows.len(), mirror_recs.len());

    // (c) The mirror's records run half a second behind the home's: inside
    // the watermark, so both channels are observed before the first
    // release, and dozens of rows behind the representative.
    let shifted: Vec<Record> = mirror_recs
        .iter()
        .map(|r| Record {
            timestamp_us: r.timestamp_us + 500_000,
            ..r.clone()
        })
        .collect();
    let mut merged: Vec<Record> = home_recs.iter().cloned().chain(shifted).collect();
    merged.sort_by_key(|r| r.timestamp_us);
    let capped = StreamOptions {
        history_cap: 4,
        ..StreamOptions::default()
    };
    let (_, summary, _) = run(capped, std::slice::from_ref(&merged));
    assert_eq!(summary.representative_channel, home);
    assert_eq!(summary.mismatched, [mirror]);
    let (_, summary, _) = run(StreamOptions::default(), &[merged]);
    assert_eq!(summary.corresponding, [mirror]);
    assert!(summary.mismatched.is_empty());
}
