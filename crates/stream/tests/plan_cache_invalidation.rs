//! The planner's result cache across a live append+seal cycle.
//!
//! `ivnt-plan` keys cached extractions by `(query fingerprint, store
//! epoch)` where the epoch hashes the footer's `generation` — the number
//! of row-group flushes ever performed. The contract under test: while an
//! appendable store is unchanged, a repeated query hits the cache; the
//! moment more micro-batches land (and again when the file is sealed),
//! every cached answer is stale and the planner silently rescans,
//! producing results identical to a fresh solo session over the grown
//! store.

use std::sync::OnceLock;

use ivnt_core::pipeline::{DomainProfile, Pipeline, RunOptions};
use ivnt_core::rules::RuleSet;
use ivnt_plan::{Planner, Query, SessionMany};
use ivnt_simulator::prelude::*;
use ivnt_store::{open_recovered, AppendOptions, AppendWriter, Record, StoreReader};

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
    std::env::temp_dir().join(format!(
        "ivnt-plan-invalidation-{tag}-{}.ivns",
        std::process::id()
    ))
}

fn pipeline(network: &NetworkModel) -> Pipeline {
    Pipeline::new(RuleSet::from_network(network), DomainProfile::new("live"))
        .expect("pipeline builds")
}

fn rows_of(frame: &ivnt_frame::frame::DataFrame) -> Vec<Vec<ivnt_frame::value::Value>> {
    frame.collect_rows().expect("rows")
}

#[test]
fn cache_invalidates_across_an_append_and_seal_cycle() {
    let data = dataset();
    let records: Vec<Record> = data.trace.records().to_vec();
    let half = records.len() / 2;
    let path = temp_path("cycle");
    let p = pipeline(&data.network);
    let mut planner = Planner::new();

    // Phase 1: half the session has landed; the file is live (unsealed).
    let mut writer = AppendWriter::create(&path, append_options()).expect("create");
    for r in &records[..half] {
        writer.append(r).expect("append");
    }
    writer.flush().expect("flush");

    let (mut reader, recovered) = open_recovered(&path).expect("recover live store");
    assert!(!recovered.sealed);
    let gen_live = reader.generation();
    assert!(
        gen_live > 1,
        "micro-batches must have flushed several groups"
    );

    let cold = Pipeline::session_many(vec![Query::new(&p)], &mut reader)
        .with_planner(&mut planner)
        .extract()
        .expect("cold extract");
    assert_eq!(cold.plan.cache_misses, 1);
    assert_eq!(planner.cached(), 1);

    // Same live snapshot, same query: answered from cache, same bytes.
    let (mut reader, _) = open_recovered(&path).expect("re-open live store");
    let warm = Pipeline::session_many(vec![Query::new(&p)], &mut reader)
        .with_planner(&mut planner)
        .extract()
        .expect("warm extract");
    assert_eq!(warm.plan.cache_hits, 1);
    assert!(warm.frames[0].stats.cache_hit);
    assert_eq!(
        rows_of(&warm.frames[0].frame),
        rows_of(&cold.frames[0].frame),
        "cache replayed different bytes"
    );

    // Phase 2: the rest of the session lands and the file is sealed. The
    // generation advances past every cached epoch.
    for r in &records[half..] {
        writer.append(r).expect("append");
    }
    let _ = writer.seal().expect("seal");

    let mut reader = StoreReader::open(&path).expect("open sealed store");
    let gen_sealed = reader.generation();
    assert!(
        gen_sealed > gen_live,
        "appending more micro-batches must advance the generation \
         ({gen_live} -> {gen_sealed})"
    );

    let fresh = Pipeline::session_many(vec![Query::new(&p)], &mut reader)
        .with_planner(&mut planner)
        .extract()
        .expect("post-seal extract");
    assert_eq!(
        fresh.plan.cache_misses, 1,
        "a grown store must not be answered from the old epoch's cache"
    );
    assert!(!fresh.frames[0].stats.cache_hit);

    // The rescan's answer equals a solo session over the sealed store —
    // and covers the full trace, not the cached half.
    let mut solo_reader = StoreReader::open(&path).expect("re-open sealed store");
    let solo = p
        .session(RunOptions::store(&mut solo_reader))
        .extract()
        .expect("solo extract");
    assert_eq!(
        rows_of(&fresh.frames[0].frame),
        rows_of(&solo.frame),
        "post-invalidation answer diverged from a fresh session"
    );
    assert!(
        fresh.frames[0].frame.num_rows() > cold.frames[0].frame.num_rows(),
        "the refreshed answer must see the appended rows"
    );

    // And the refreshed epoch caches normally again.
    let mut reader = StoreReader::open(&path).expect("open sealed store again");
    let warm = Pipeline::session_many(vec![Query::new(&p)], &mut reader)
        .with_planner(&mut planner)
        .extract()
        .expect("second warm extract");
    assert_eq!(warm.plan.cache_hits, 1);

    let _ = std::fs::remove_file(&path);
}
