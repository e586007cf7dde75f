//! Coordinator-restart fault injection.
//!
//! The fifth fault the cluster must shrug off: the *coordinator* dies
//! mid-run. With a checkpoint configured the first coordinator persists
//! every completed task's result; a successor resumes from the file,
//! re-plans only the uncovered groups, and the final merge is still
//! bit-identical to a single-process run — with already-merged tasks
//! never re-fetched from a worker (re-merging one would duplicate rows
//! and break bit-identity, which is asserted here).
//!
//! These tests share [`FAULT_ENV`] process state, so they serialize on a
//! mutex instead of trusting the test harness's thread scheduling.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ivnt_cluster::codec::encode_batch;
use ivnt_cluster::{run_job, ClusterConfig, Error, JobSpec, WorkerServer, FAULT_ENV};
use ivnt_core::pipeline::RunOptions;
use ivnt_simulator::scenario::{self, DataSetSpec};

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn temp_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ivnt-restart-{tag}-{}-{tid:?}.{ext}",
        std::process::id(),
        tid = std::thread::current().id(),
    ))
}

fn write_store(path: &Path, seed: u64) {
    let spec = DataSetSpec::syn().with_seed(seed).with_duration_s(4.0);
    let data = scenario::generate(&spec).expect("scenario generates");
    let options = ivnt_store::WriterOptions {
        chunk_rows: 128,
        chunks_per_group: 2,
        cluster: true,
    };
    let mut writer = ivnt_store::StoreWriter::create(path, options).expect("store create");
    for r in data.trace.records() {
        writer.append(r).expect("store append");
    }
    writer.seal().expect("store seal");
}

fn single_process_fingerprint(job: &JobSpec) -> Vec<Vec<u8>> {
    let pipeline = job.pipeline().expect("pipeline rebuilds");
    let mut reader = ivnt_store::StoreReader::open(&job.store_path).expect("store opens");
    let frame = pipeline
        .session(RunOptions::store(&mut reader))
        .extract()
        .expect("single-process extraction")
        .frame;
    frame.partitions().iter().map(encode_batch).collect()
}

/// Workers that serve sessions until the test process exits — a
/// restarted coordinator reconnects to the same addresses.
fn start_persistent_workers(n: usize) -> Vec<String> {
    let mut addrs = Vec::new();
    for _ in 0..n {
        let server = WorkerServer::bind("127.0.0.1:0").expect("worker binds");
        addrs.push(server.local_addr().expect("worker addr").to_string());
        std::thread::spawn(move || {
            let _ = server.serve();
        });
    }
    addrs
}

fn restart_config(checkpoint: &Path) -> ClusterConfig {
    ClusterConfig {
        heartbeat_ms: 25,
        liveness_timeout_ms: 400,
        connect_timeout_ms: 2_000,
        checkpoint_path: Some(checkpoint.display().to_string()),
        ..ClusterConfig::default()
    }
}

#[test]
fn env_armed_coordinator_restart_resumes_bit_identically() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    let store = temp_path("env", "ivns");
    let ckpt = temp_path("env", "ckpt");
    write_store(&store, 47);
    let job = JobSpec::new("syn", store.display().to_string()).with_seed(47);
    let expected = single_process_fingerprint(&job);
    let addrs = start_persistent_workers(2);
    let config = restart_config(&ckpt);

    std::env::set_var(FAULT_ENV, "coordinator_restart");
    let err = run_job(&job, &addrs, &config).expect_err("first coordinator must crash");
    assert!(
        matches!(&err, Error::Job(m) if m.contains("coordinator restarted")),
        "typed restart failure: {err}"
    );
    assert!(ckpt.exists(), "the crash leaves the checkpoint behind");

    // The successor (env still armed — the fault must not refire on a
    // resumed run) picks the checkpoint up and finishes the job.
    let run = run_job(&job, &addrs, &config).expect("resumed coordinator finishes");
    std::env::remove_var(FAULT_ENV);

    let got: Vec<Vec<u8>> = run.frame.partitions().iter().map(encode_batch).collect();
    assert_eq!(got, expected, "resume must stay bit-identical");
    assert!(
        run.stats.tasks_resumed >= 1,
        "at least the pre-crash task comes from the checkpoint: {:?}",
        run.stats
    );
    assert!(
        !ckpt.exists(),
        "a completed run removes its checkpoint file"
    );
    std::fs::remove_file(&store).ok();
}

#[test]
fn env_armed_restart_without_checkpoint_is_a_typed_config_error() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    let store = temp_path("nockpt", "ivns");
    write_store(&store, 53);
    let job = JobSpec::new("syn", store.display().to_string()).with_seed(53);

    std::env::set_var(FAULT_ENV, "coordinator_restart");
    let err = run_job(&job, &["127.0.0.1:1".into()], &ClusterConfig::default())
        .expect_err("restart fault needs somewhere to restart from");
    std::env::remove_var(FAULT_ENV);
    assert!(
        matches!(&err, Error::Job(m) if m.contains("checkpoint")),
        "typed config failure: {err}"
    );
    std::fs::remove_file(&store).ok();
}

#[test]
fn explicit_restart_config_crashes_then_resumes() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    let store = temp_path("explicit", "ivns");
    let ckpt = temp_path("explicit", "ckpt");
    write_store(&store, 59);
    let job = JobSpec::new("syn", store.display().to_string()).with_seed(59);
    let expected = single_process_fingerprint(&job);
    let addrs = start_persistent_workers(2);

    // Crash later than the env-armed default: two merged tasks survive.
    let config = ClusterConfig {
        restart_after_tasks: Some(2),
        ..restart_config(&ckpt)
    };
    let err = run_job(&job, &addrs, &config).expect_err("configured crash fires");
    assert!(matches!(err, Error::Job(_)));

    let config = ClusterConfig {
        restart_after_tasks: None,
        ..config
    };
    let run = run_job(&job, &addrs, &config).expect("resumed run finishes");
    let got: Vec<Vec<u8>> = run.frame.partitions().iter().map(encode_batch).collect();
    assert_eq!(got, expected);
    assert!(run.stats.tasks_resumed >= 2, "stats: {:?}", run.stats);

    // A third run over the now-missing checkpoint is just a plain run.
    let run = run_job(&job, &addrs, &config).expect("fresh run after resume");
    let got: Vec<Vec<u8>> = run.frame.partitions().iter().map(encode_batch).collect();
    assert_eq!(got, expected);
    assert_eq!(run.stats.tasks_resumed, 0);
    std::fs::remove_file(&store).ok();
}

#[test]
fn checkpoint_from_a_different_job_refuses_to_resume() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    let store = temp_path("fpmismatch", "ivns");
    let ckpt = temp_path("fpmismatch", "ckpt");
    write_store(&store, 61);
    let job = JobSpec::new("syn", store.display().to_string()).with_seed(61);
    let addrs = start_persistent_workers(1);

    let config = ClusterConfig {
        restart_after_tasks: Some(1),
        ..restart_config(&ckpt)
    };
    let _ = run_job(&job, &addrs, &config).expect_err("crash leaves checkpoint");
    assert!(ckpt.exists());

    // Same checkpoint, different job (another seed ⇒ another pipeline).
    let other = JobSpec::new("syn", store.display().to_string()).with_seed(62);
    let err = run_job(&other, &addrs, &restart_config(&ckpt))
        .expect_err("fingerprint mismatch must refuse");
    assert!(
        matches!(&err, Error::Job(m) if m.contains("different job")),
        "typed mismatch failure: {err}"
    );
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&store).ok();
}
