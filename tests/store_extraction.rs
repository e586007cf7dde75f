//! Cross-crate integration: out-of-core extraction from the columnar store.
//!
//! The contract under test is the one the probe (`store_probe`) enforces in
//! CI: running the interpretation pipeline against an `.ivns` file must be
//! an *optimization only* — bit-identical output to the in-memory path,
//! with whole chunks skipped via zone maps and memory bounded by one group
//! buffer even when the trace is several times larger.

use ivnt::core::pipeline::RunOptions;
use ivnt::store::{StoreReader, StoreWriter, WriterOptions};
use ivnt_bench::{domain_pipeline, select_signals_for_fraction, vehicle_journey};

fn write_store(
    trace: &ivnt::simulator::trace::Trace,
    path: &std::path::Path,
    options: WriterOptions,
) {
    let mut writer = StoreWriter::create(path, options).expect("create store");
    for r in trace.records() {
        writer.append(r).expect("append");
    }
    writer.seal().expect("seal");
}

#[test]
fn store_extraction_is_bit_identical_and_out_of_core() {
    let data = vehicle_journey(40_000, 0).expect("workload generates");
    let signals = select_signals_for_fraction(&data, 9, 0.027);
    let pipeline = domain_pipeline(&data, &signals).expect("pipeline builds");

    let options = WriterOptions {
        chunk_rows: 512,
        chunks_per_group: 8,
        cluster: true,
    };
    let group_rows = options.group_rows();
    assert!(
        data.trace.len() >= 4 * group_rows,
        "trace of {} rows must exceed 4 group buffers of {group_rows}",
        data.trace.len()
    );

    let path =
        std::env::temp_dir().join(format!("ivnt-store-extraction-{}.ivns", std::process::id()));
    write_store(&data.trace, &path, options);

    let baseline = pipeline
        .session(RunOptions::trace(&data.trace))
        .extract()
        .expect("in-memory extract")
        .frame;
    let mut reader = StoreReader::open(&path).expect("open store");
    let ex = pipeline
        .session(RunOptions::store(&mut reader))
        .extract()
        .expect("store extract");
    let (frame, stats) = (ex.frame, ex.scan.expect("store sessions report scan stats"));
    let _ = std::fs::remove_file(&path);

    // Bit-identity: the pushed-down scan is invisible in the output.
    assert_eq!(frame.schema(), baseline.schema());
    assert_eq!(
        frame.collect_rows().expect("store rows"),
        baseline.collect_rows().expect("baseline rows"),
        "store scan and in-memory extraction diverged"
    );

    // Zone maps prune: a 9-signal domain touches a small traffic fraction,
    // so over half the clustered chunks must be skipped without decoding.
    assert!(
        stats.skip_ratio() > 0.5,
        "only {:.1}% of {} chunks skipped",
        stats.skip_ratio() * 100.0,
        stats.chunks_total
    );

    // Out-of-core: the scan never held more than one group buffer of rows,
    // although the file is several group buffers long.
    assert!(
        stats.peak_rows_buffered <= group_rows,
        "scan buffered {} rows, budget is {group_rows}",
        stats.peak_rows_buffered
    );
}

#[test]
fn unselective_extraction_still_matches_without_pruning() {
    // With every signal selected no chunk can be proven absent; the scan
    // must degrade gracefully to a full decode with identical output.
    let data = vehicle_journey(8_000, 1).expect("workload generates");
    let all: Vec<String> = {
        let mut names: Vec<String> = data
            .network
            .catalog()
            .messages()
            .iter()
            .flat_map(|m| m.signals().iter().map(|s| s.name().to_string()))
            .collect();
        names.sort();
        names
    };
    let pipeline = domain_pipeline(&data, &all).expect("pipeline builds");

    let path = std::env::temp_dir().join(format!(
        "ivnt-store-unselective-{}.ivns",
        std::process::id()
    ));
    write_store(&data.trace, &path, WriterOptions::default());

    let baseline = pipeline
        .session(RunOptions::trace(&data.trace))
        .extract()
        .expect("in-memory extract")
        .frame;
    let mut reader = StoreReader::open(&path).expect("open store");
    let ex = pipeline
        .session(RunOptions::store(&mut reader))
        .extract()
        .expect("store extract");
    let (frame, stats) = (ex.frame, ex.scan.expect("store sessions report scan stats"));
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        frame.collect_rows().expect("store rows"),
        baseline.collect_rows().expect("baseline rows"),
    );
    assert_eq!(
        stats.chunks_scanned + stats.chunks_skipped,
        stats.chunks_total
    );
    assert_eq!(stats.rows_emitted as usize, data.trace.len());
}
