//! End-to-end cluster runs against in-process workers.
//!
//! The acceptance criterion, tested directly: for every worker count —
//! and through injected worker kills, corrupted result frames,
//! undecodable batches and stalled heartbeats — the merged distributed
//! result is *bit-identical*
//! to a single-process `RunOptions::store` session over the same
//! store. Bit-identity is asserted by re-encoding both results'
//! partitions with the wire codec and comparing bytes.

use std::path::{Path, PathBuf};

use ivnt_cluster::codec::encode_batch;
use ivnt_cluster::wire::{read_frame, write_frame};
use ivnt_cluster::{run_job, ClusterConfig, Error, JobSpec, Message, WorkerFaults, WorkerServer};
use ivnt_core::pipeline::RunOptions;
use ivnt_simulator::scenario::{self, DataSetSpec};

fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ivnt-cluster-{tag}-{}-{tid:?}.ivns",
        std::process::id(),
        tid = std::thread::current().id(),
    ))
}

/// Records the SYN scenario into a store with enough row groups that a
/// multi-worker plan actually has shards to spread. Returns the sorted
/// signal names for selection tests.
fn write_store(path: &Path, seed: u64) -> Vec<String> {
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
    writer.finish().expect("store finish");
    data.signal_names()
}

fn job_for(path: &Path, seed: u64) -> JobSpec {
    JobSpec::new("syn", path.display().to_string()).with_seed(seed)
}

/// Byte-level fingerprint of a frame's partition list.
fn fingerprint(frame: &ivnt_frame::frame::DataFrame) -> Vec<Vec<u8>> {
    frame.partitions().iter().map(encode_batch).collect()
}

fn single_process_fingerprint(job: &JobSpec) -> (Vec<Vec<u8>>, usize) {
    let pipeline = job.pipeline().expect("pipeline rebuilds");
    let mut reader = ivnt_store::StoreReader::open(&job.store_path).expect("store opens");
    let frame = pipeline
        .session(RunOptions::store(&mut reader))
        .extract()
        .expect("single-process extraction")
        .frame;
    (fingerprint(&frame), frame.num_rows())
}

/// Starts `faults.len()` in-process workers, each serving one session.
fn start_workers(faults: &[WorkerFaults]) -> (Vec<String>, Vec<std::thread::JoinHandle<()>>) {
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for &f in faults {
        let server = WorkerServer::bind("127.0.0.1:0")
            .expect("worker binds")
            .with_faults(f);
        addrs.push(server.local_addr().expect("worker addr").to_string());
        handles.push(std::thread::spawn(move || {
            // Session failures (including injected ones) are the
            // coordinator's problem; the worker thread just ends.
            let _ = server.serve_once();
        }));
    }
    (addrs, handles)
}

fn fast_config() -> ClusterConfig {
    ClusterConfig {
        heartbeat_ms: 25,
        liveness_timeout_ms: 400,
        max_task_retries: 3,
        tasks_per_worker: 3,
        connect_timeout_ms: 2_000,
        collect_metrics: true,
        ..ClusterConfig::default()
    }
}

#[test]
fn distributed_extraction_is_bit_identical_for_every_worker_count() {
    let path = temp_store("counts");
    write_store(&path, 11);
    let job = job_for(&path, 11);
    let (expected, expected_rows) = single_process_fingerprint(&job);
    assert!(expected_rows > 0, "test store must produce signal rows");

    for workers in 1..=3usize {
        let (addrs, handles) = start_workers(&vec![WorkerFaults::none(); workers]);
        let run = run_job(&job, &addrs, &fast_config()).expect("cluster run");
        for h in handles {
            h.join().expect("worker thread");
        }
        assert_eq!(
            fingerprint(&run.frame),
            expected,
            "{workers}-worker merge must be bit-identical"
        );
        assert_eq!(run.stats.rows, expected_rows);
        assert_eq!(run.stats.workers, workers);
        assert_eq!(run.stats.workers_lost, 0);
        assert_eq!(run.stats.retries, 0);
        assert!(run.stats.tasks >= workers.min(2));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn signal_selection_pushdown_stays_bit_identical() {
    let path = temp_store("signals");
    let names = write_store(&path, 13);
    // A narrow selection makes the planner prune groups; the merge must
    // still match the single-process run of the same restricted job.
    let job = job_for(&path, 13).with_signals(names.into_iter().take(2));
    let (expected, _) = single_process_fingerprint(&job);

    let (addrs, handles) = start_workers(&[WorkerFaults::none(), WorkerFaults::none()]);
    let run = run_job(&job, &addrs, &fast_config()).expect("cluster run");
    for h in handles {
        h.join().expect("worker thread");
    }
    assert_eq!(fingerprint(&run.frame), expected);
    std::fs::remove_file(&path).ok();
}

#[test]
fn worker_killed_mid_task_is_retried_elsewhere() {
    let path = temp_store("kill");
    write_store(&path, 17);
    let job = job_for(&path, 17);
    let (expected, _) = single_process_fingerprint(&job);

    let faults = [
        WorkerFaults {
            kill_mid_task: true,
            ..WorkerFaults::none()
        },
        WorkerFaults::none(),
    ];
    let (addrs, handles) = start_workers(&faults);
    let run = run_job(&job, &addrs, &fast_config()).expect("cluster survives the kill");
    for h in handles {
        h.join().expect("worker thread");
    }
    assert_eq!(fingerprint(&run.frame), expected);
    assert_eq!(run.stats.workers_lost, 1, "the killed worker was noticed");
    assert!(run.stats.retries >= 1, "its task was requeued");
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_result_frame_is_rejected_and_retried() {
    let path = temp_store("corrupt");
    write_store(&path, 19);
    let job = job_for(&path, 19);
    let (expected, _) = single_process_fingerprint(&job);

    let faults = [
        WorkerFaults {
            corrupt_result: true,
            ..WorkerFaults::none()
        },
        WorkerFaults::none(),
    ];
    let (addrs, handles) = start_workers(&faults);
    let run = run_job(&job, &addrs, &fast_config()).expect("cluster survives corruption");
    for h in handles {
        h.join().expect("worker thread");
    }
    assert_eq!(fingerprint(&run.frame), expected);
    assert!(run.stats.retries >= 1, "the corrupt result was not merged");
    std::fs::remove_file(&path).ok();
}

#[test]
fn stalled_heartbeat_trips_the_liveness_timeout() {
    let path = temp_store("stall");
    write_store(&path, 23);
    let job = job_for(&path, 23);
    let (expected, _) = single_process_fingerprint(&job);

    let faults = [
        WorkerFaults {
            stall_heartbeat: true,
            ..WorkerFaults::none()
        },
        WorkerFaults::none(),
    ];
    let (addrs, handles) = start_workers(&faults);
    let run = run_job(&job, &addrs, &fast_config()).expect("cluster survives the stall");
    // The stalled worker sleeps out its fault then exits; don't block
    // the assertion on it.
    drop(handles);
    assert_eq!(fingerprint(&run.frame), expected);
    assert_eq!(run.stats.workers_lost, 1, "the silent worker timed out");
    assert!(run.stats.retries >= 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn v3_sessions_stream_compressed_partials() {
    let path = temp_store("stream");
    write_store(&path, 37);
    let job = job_for(&path, 37);
    let (expected, _) = single_process_fingerprint(&job);

    let (addrs, handles) = start_workers(&[WorkerFaults::none(), WorkerFaults::none()]);
    let run = run_job(&job, &addrs, &fast_config()).expect("cluster run");
    for h in handles {
        h.join().expect("worker thread");
    }
    assert_eq!(fingerprint(&run.frame), expected);
    assert!(
        run.stats.partial_frames as usize >= run.stats.tasks,
        "every task should stream at least one partial, got {} frames for {} tasks",
        run.stats.partial_frames,
        run.stats.tasks
    );
    assert!(
        run.stats.wire_result_bytes < run.stats.wire_result_raw_bytes,
        "compressed result traffic ({}) must undercut the v2 encoding ({})",
        run.stats.wire_result_bytes,
        run.stats.wire_result_raw_bytes
    );
    assert!(
        run.stats.compression_ratio() >= 2.0,
        "signal batches should compress well, got {:.2}x",
        run.stats.compression_ratio()
    );
    std::fs::remove_file(&path).ok();
}

/// A peer that completes the handshake as `version` and then answers
/// its first assignment with `reply(task_id, group_start)` — the
/// misbehaving workers no fault flag of the real one can produce.
fn start_rogue_worker(
    version: u32,
    reply: impl Fn(u32, u32) -> Message + Send + 'static,
) -> (String, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("rogue binds");
    let addr = listener.local_addr().expect("rogue addr").to_string();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("coordinator connects");
        let _hello = read_frame(&mut stream);
        let hello = Message::Hello {
            version,
            peer: "rogue".into(),
        };
        if write_frame(&mut stream, &hello).is_err() {
            return;
        }
        // Job preamble, then frames until the coordinator hangs up.
        while let Ok(msg) = read_frame(&mut stream) {
            if let Message::Assign { task } = msg {
                let _ = write_frame(&mut stream, &reply(task.task_id, task.group_start));
            }
        }
    });
    (addr, handle)
}

#[test]
fn undecodable_partial_fails_its_connection_not_the_job() {
    let path = temp_store("undecodable");
    write_store(&path, 41);
    let job = job_for(&path, 41);
    let (expected, _) = single_process_fingerprint(&job);

    // The frame is well-formed and its checksum valid; only the batch
    // inside is garbage. Decoded on arrival, that must cost the rogue
    // its connection and requeue the task on the healthy worker.
    let (rogue, rogue_handle) = start_rogue_worker(ivnt_cluster::WIRE_VERSION, |task_id, group| {
        Message::PartialResult {
            task_id,
            seq: 0,
            group,
            raw_bytes: 3,
            batches: vec![vec![0xFF, 0xFF, 0xFF]],
        }
    });
    let (mut addrs, handles) = start_workers(&[WorkerFaults::none()]);
    addrs.insert(0, rogue);
    let run = run_job(&job, &addrs, &fast_config()).expect("cluster survives the rogue");
    rogue_handle.join().expect("rogue thread");
    for h in handles {
        h.join().expect("worker thread");
    }
    assert_eq!(fingerprint(&run.frame), expected);
    assert_eq!(run.stats.workers_lost, 1, "the rogue was dropped");
    assert!(run.stats.retries >= 1, "its task was requeued");
    std::fs::remove_file(&path).ok();
}

#[test]
fn peers_below_the_v3_floor_are_refused_with_a_typed_error() {
    let path = temp_store("floor");
    write_store(&path, 47);
    let job = job_for(&path, 47);

    // A v2 worker: the coordinator refuses it at the handshake, and with
    // nobody else to talk to the job fails typed.
    let (rogue, rogue_handle) = start_rogue_worker(2, |task_id, _| Message::TaskError {
        task_id,
        message: "a refused peer is never assigned work".into(),
    });
    let err = run_job(&job, &[rogue], &fast_config()).expect_err("v2 worker is no worker");
    rogue_handle.join().expect("rogue thread");
    assert!(matches!(err, Error::Job(_)), "typed job failure: {err}");

    // A v2 coordinator: the worker refuses it the same way.
    let server = WorkerServer::bind("127.0.0.1:0").expect("worker binds");
    let addr = server.local_addr().expect("worker addr");
    let worker = std::thread::spawn(move || server.serve_once());
    let mut stream = std::net::TcpStream::connect(addr).expect("connects");
    let hello = Message::Hello {
        version: 2,
        peer: "old coordinator".into(),
    };
    write_frame(&mut stream, &hello).expect("hello sent");
    let refused = worker.join().expect("worker thread");
    assert!(
        matches!(refused, Err(Error::Protocol(_))),
        "typed refusal: {refused:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn straggler_is_truncated_and_its_tail_split_across_the_fleet() {
    let path = temp_store("straggler");
    write_store(&path, 43);
    let job = job_for(&path, 43);
    let (expected, _) = single_process_fingerprint(&job);

    // One worker crawls (but keeps heartbeating), one is healthy. Two
    // big shards, an armed straggler detector, and a split tail the
    // healthy worker can absorb.
    let config = ClusterConfig {
        tasks_per_worker: 1,
        straggler_factor: 1.5,
        straggler_min_samples: 1,
        min_split_groups: 1,
        liveness_timeout_ms: 2_000,
        ..fast_config()
    };
    let faults = [
        WorkerFaults {
            slow_task: true,
            ..WorkerFaults::none()
        },
        WorkerFaults::none(),
    ];
    let (addrs, handles) = start_workers(&faults);
    let run = run_job(&job, &addrs, &config).expect("cluster absorbs the straggler");
    for h in handles {
        h.join().expect("worker thread");
    }
    assert_eq!(fingerprint(&run.frame), expected);
    assert_eq!(run.stats.workers_lost, 0, "slow is not dead");
    assert!(
        run.stats.splits >= 1,
        "the straggling shard should have been split (stats: {:?})",
        run.stats
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn sole_worker_dying_fails_the_job_with_a_typed_error() {
    let path = temp_store("solo");
    write_store(&path, 29);
    let job = job_for(&path, 29);

    let faults = [WorkerFaults {
        kill_mid_task: true,
        ..WorkerFaults::none()
    }];
    let (addrs, handles) = start_workers(&faults);
    let err = run_job(&job, &addrs, &fast_config()).expect_err("no worker can finish");
    for h in handles {
        h.join().expect("worker thread");
    }
    assert!(matches!(err, Error::Job(_)), "typed job failure: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn unreachable_workers_fail_the_job() {
    let path = temp_store("unreachable");
    write_store(&path, 31);
    let job = job_for(&path, 31);
    let config = ClusterConfig {
        connect_timeout_ms: 200,
        ..fast_config()
    };
    // TEST-NET-1 address: connection cannot succeed.
    let err = run_job(&job, &["192.0.2.1:9".into()], &config).expect_err("nobody to talk to");
    assert!(matches!(err, Error::Job(_)), "typed job failure: {err}");
    std::fs::remove_file(&path).ok();
}
