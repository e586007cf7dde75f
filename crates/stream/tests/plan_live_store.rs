//! The planner over a live store across an append+seal cycle.
//!
//! A recovered, unsealed append store is a valid scan source: the shared
//! pass over it must answer exactly what a solo session over the same
//! snapshot answers. Once the rest of the trace lands and the file is
//! sealed, the same query over the sealed store equals a solo session
//! there too, and sees the appended rows.

use std::sync::OnceLock;

use ivnt_core::pipeline::{DomainProfile, Pipeline, RunOptions, Session};
use ivnt_core::query::Query;
use ivnt_core::rules::RuleSet;
use ivnt_simulator::prelude::*;
use ivnt_store::{open_recovered, AppendOptions, Record, StoreReader, StoreWriter};

fn dataset() -> &'static GeneratedDataSet {
    static DATA: OnceLock<GeneratedDataSet> = OnceLock::new();
    DATA.get_or_init(|| {
        generate(&DataSetSpec::syn().with_seed(43).with_target_examples(4_000))
            .expect("generate SYN dataset")
    })
}

fn append_options() -> AppendOptions {
    AppendOptions {
        writer: ivnt_store::WriterOptions {
            chunk_rows: 64,
            chunks_per_group: 2,
            cluster: true,
        },
        // Micro-batch flushes: many small groups, many generation bumps.
        flush_rows: 96,
        flush_interval_us: 0,
    }
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ivnt-plan-live-{tag}-{}.ivns", std::process::id()))
}

fn pipeline(network: &NetworkModel) -> Pipeline {
    Pipeline::new(RuleSet::from_network(network), DomainProfile::new("live"))
        .expect("pipeline builds")
}

fn rows_of(frame: &ivnt_frame::frame::DataFrame) -> Rows {
    frame.collect_rows().expect("rows")
}

type Rows = Vec<Vec<ivnt_frame::value::Value>>;
type FileReader = StoreReader<std::io::BufReader<std::fs::File>>;

/// `Session::extract_each` of `p` alone over `reader`, and a solo session's
/// extraction over a second reader of the same file; both as rows.
fn shared_and_solo(
    p: &Pipeline,
    reader: &mut FileReader,
    solo_reader: &mut FileReader,
) -> (Rows, Rows) {
    let shared = Session::many(vec![Query::new(p)], reader)
        .extract_each()
        .expect("shared extract");
    let solo = p
        .session(RunOptions::store(solo_reader))
        .extract()
        .expect("solo extract");
    (rows_of(&shared.frames[0].frame), rows_of(&solo.frame))
}

#[test]
fn extract_matches_solo_across_an_append_and_seal_cycle() {
    let data = dataset();
    let records: Vec<Record> = data.trace.records().to_vec();
    let half = records.len() / 2;
    let path = temp_path("cycle");
    let p = pipeline(&data.network);

    // Phase 1: half the session has landed; the file is live (unsealed).
    let mut writer = StoreWriter::create(&path, append_options()).expect("create");
    for r in &records[..half] {
        writer.append(r).expect("append");
    }
    writer.flush().expect("flush");

    let (mut reader, recovered) = open_recovered(&path).expect("recover live store");
    assert!(!recovered.sealed);
    assert!(
        reader.generation() > 1,
        "micro-batches must have flushed several groups"
    );
    let (mut solo_reader, _) = open_recovered(&path).expect("re-open live store");
    let (live, solo) = shared_and_solo(&p, &mut reader, &mut solo_reader);
    assert_eq!(live, solo, "live-store answer diverged from a solo session");

    // Phase 2: the rest of the session lands and the file is sealed.
    for r in &records[half..] {
        writer.append(r).expect("append");
    }
    let _ = writer.seal().expect("seal");

    let mut reader = StoreReader::open(&path).expect("open sealed store");
    let mut solo_reader = StoreReader::open(&path).expect("re-open sealed store");
    let (sealed, solo) = shared_and_solo(&p, &mut reader, &mut solo_reader);
    assert_eq!(
        sealed, solo,
        "sealed-store answer diverged from a solo session"
    );
    assert!(
        sealed.len() > live.len(),
        "the sealed answer must see the appended rows"
    );

    let _ = std::fs::remove_file(&path);
}
