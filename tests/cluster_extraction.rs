//! Tier-1 acceptance: distributed extraction is bit-identical to the
//! single-process pipeline, including across a worker killed mid-task.
//! The exhaustive matrix (worker counts, every fault, protocol fuzzing)
//! lives in `crates/cluster/tests/`; this is the root-level contract.

use std::path::PathBuf;

use ivnt::cluster::codec::encode_batch;
use ivnt::cluster::{run_job, ClusterConfig, JobSpec, WorkerFaults, WorkerServer};
use ivnt::core::pipeline::RunOptions;
use ivnt::simulator::scenario::{self, DataSetSpec};

fn build_store(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ivnt-cluster-accept-{tag}-{}.ivns",
        std::process::id()
    ));
    let data = scenario::generate(&DataSetSpec::syn().with_seed(41).with_duration_s(4.0))
        .expect("scenario generates");
    let options = ivnt::store::WriterOptions {
        chunk_rows: 128,
        chunks_per_group: 2,
        cluster: true,
    };
    let mut writer = ivnt::store::StoreWriter::create(&path, options).expect("store create");
    for r in data.trace.records() {
        writer.append(r).expect("store append");
    }
    writer.finish().expect("store finish");
    path
}

fn fingerprint(frame: &ivnt::frame::frame::DataFrame) -> Vec<Vec<u8>> {
    frame.partitions().iter().map(encode_batch).collect()
}

fn spawn_workers(faults: Vec<WorkerFaults>) -> Vec<String> {
    faults
        .into_iter()
        .map(|f| {
            let server = WorkerServer::bind("127.0.0.1:0")
                .expect("worker binds")
                .with_faults(f);
            let addr = server.local_addr().expect("addr").to_string();
            std::thread::spawn(move || {
                let _ = server.serve_once();
            });
            addr
        })
        .collect()
}

#[test]
fn distributed_extraction_matches_single_process_bit_for_bit() {
    let path = build_store("clean");
    let job = JobSpec::new("syn", path.display().to_string()).with_seed(41);
    let pipeline = job.pipeline().expect("pipeline rebuilds");
    let mut reader = ivnt::store::StoreReader::open(&path).expect("store opens");
    let expected = pipeline
        .session(RunOptions::store(&mut reader))
        .extract()
        .expect("single-process extraction")
        .frame;
    assert!(expected.num_rows() > 0);

    let config = ClusterConfig {
        heartbeat_ms: 25,
        liveness_timeout_ms: 500,
        ..ClusterConfig::default()
    };

    // Two healthy workers.
    let addrs = spawn_workers(vec![WorkerFaults::none(); 2]);
    let run = run_job(&job, &addrs, &config).expect("clean cluster run");
    assert_eq!(fingerprint(&run.frame), fingerprint(&expected));
    assert_eq!(run.stats.retries, 0);

    // One of two workers dies mid-task: retried elsewhere, same bytes.
    let addrs = spawn_workers(vec![
        WorkerFaults {
            kill_mid_task: true,
            ..WorkerFaults::none()
        },
        WorkerFaults::none(),
    ]);
    let run = run_job(&job, &addrs, &config).expect("faulted cluster run");
    assert_eq!(fingerprint(&run.frame), fingerprint(&expected));
    assert_eq!(run.stats.workers_lost, 1);
    assert!(run.stats.retries >= 1);

    std::fs::remove_file(&path).ok();
}
