//! Degenerate store extraction: an empty `.ivns` file and a predicate
//! that prunes every chunk must both come back as an empty but
//! correctly-schema'd result — single-process and through the cluster
//! coordinator, which must answer locally without touching a worker.

use std::path::{Path, PathBuf};

use ivnt::cluster::{run_job, ClusterConfig, JobSpec};
use ivnt::core::interpret::signal_schema;
use ivnt::core::pipeline::RunOptions;
use ivnt::simulator::scenario::{self, DataSetSpec};
use ivnt::store::{StoreReader, StoreWriter, WriterOptions};

fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ivnt-degenerate-{tag}-{}.ivns", std::process::id()))
}

/// An `.ivns` file that was created and finalized without a single row.
fn write_empty_store(path: &Path) {
    StoreWriter::create(path, WriterOptions::default())
        .expect("store create")
        .finish()
        .expect("store finish");
}

/// A store holding only STA-scenario traffic — every chunk's zone map
/// fails a SYN pipeline's message predicate.
fn write_foreign_store(path: &Path) {
    let data = scenario::generate(&DataSetSpec::sta().with_seed(5).with_duration_s(2.0))
        .expect("scenario generates");
    let mut writer = StoreWriter::create(path, WriterOptions::default()).expect("store create");
    for r in data.trace.records() {
        writer.append(r).expect("store append");
    }
    writer.finish().expect("store finish");
}

fn assert_empty_signal_frame(frame: &ivnt::frame::frame::DataFrame) {
    assert_eq!(frame.num_rows(), 0);
    assert_eq!(frame.schema(), &signal_schema(), "schema must survive");
    assert_eq!(frame.partitions().len(), 1, "one empty batch, not zero");
    assert!(frame.collect_rows().expect("collectable").is_empty());
}

#[test]
fn empty_store_extracts_empty_schemad_frame() {
    let path = temp_store("empty");
    write_empty_store(&path);
    let job = JobSpec::new("syn", path.display().to_string()).with_seed(3);
    let pipeline = job.pipeline().expect("pipeline");
    let mut reader = StoreReader::open(&path).expect("store opens");
    let ex = pipeline
        .session(RunOptions::store(&mut reader))
        .extract()
        .expect("empty store extracts");
    let (frame, stats) = (ex.frame, ex.scan.expect("store sessions report scan stats"));
    assert_empty_signal_frame(&frame);
    assert_eq!(stats.chunks_total, 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn all_pruning_predicate_extracts_empty_schemad_frame() {
    let path = temp_store("pruned");
    write_foreign_store(&path);
    let job = JobSpec::new("syn", path.display().to_string()).with_seed(3);
    let pipeline = job.pipeline().expect("pipeline");
    let mut reader = StoreReader::open(&path).expect("store opens");
    let ex = pipeline
        .session(RunOptions::store(&mut reader))
        .extract()
        .expect("fully pruned store extracts");
    let (frame, stats) = (ex.frame, ex.scan.expect("store sessions report scan stats"));
    assert_empty_signal_frame(&frame);
    assert!(stats.chunks_total > 0, "the store is not empty");
    assert_eq!(stats.chunks_scanned, 0, "every chunk must be pruned");
    std::fs::remove_file(&path).ok();
}

/// The cluster coordinator plans zero tasks for a degenerate store and
/// must answer locally: the worker addresses here are unreachable on
/// purpose, so any connection attempt would fail the job.
#[test]
fn cluster_answers_degenerate_jobs_without_workers() {
    for (tag, write) in [
        ("cluster-empty", write_empty_store as fn(&Path)),
        ("cluster-pruned", write_foreign_store as fn(&Path)),
    ] {
        let path = temp_store(tag);
        write(&path);
        let job = JobSpec::new("syn", path.display().to_string()).with_seed(3);
        // TEST-NET-1: guaranteed no worker is listening here.
        let run = run_job(&job, &["192.0.2.1:9".into()], &ClusterConfig::default())
            .expect("degenerate job resolves locally");
        assert_empty_signal_frame(&run.frame);
        assert_eq!(run.stats.tasks, 0, "{tag}: nothing to schedule");
        assert_eq!(run.stats.rows, 0);
        std::fs::remove_file(&path).ok();
    }
}
