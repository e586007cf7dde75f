//! Machine-readable probe of distributed extraction scaling.
//!
//! Records a SYN workload into an `.ivns` store, then runs the same
//! extraction job several ways: single-process (`extract_from_store`),
//! through `ivnt-cluster` with 1, 2 and (cores permitting) 4 subprocess
//! workers (the binary re-executes itself in `__worker` mode, exactly
//! like the CLI's `--local`), once with one artificially slowed worker
//! (the straggler phase — truncate/split must keep it from dominating
//! wall time), and once through a coordinator crash + checkpoint resume.
//! Results go to `BENCH_cluster.json` plus a human-readable summary on
//! stdout, following the `store_probe`/`BENCH_store.json` conventions.
//!
//! Enforced, not just reported:
//!
//! * every distributed run must be bit-identical to the single-process
//!   extraction (checked by re-encoding all partitions);
//! * the wire v3 result compression must shrink result traffic by at
//!   least `IVNT_CLUSTER_MIN_WIRE_RATIO` (default 3.0) versus the flat
//!   v2 encoding — compression is core-count-independent, so this gate
//!   always applies;
//! * one worker plus the coordinator may cost at most
//!   [`MAX_CLUSTER_TAX`] times the single-process extraction —
//!   `cluster_tax`, the median ratio of interleaved (single-process,
//!   1-worker) pairs. It needs no spare core to hold, so it is enforced
//!   everywhere;
//! * on machines with at least as many cores as workers, the N-worker
//!   run must beat the 1-worker run by `IVNT_CLUSTER_MIN_SPEEDUP`
//!   (default 1.0) — the median ratio of interleaved (1-worker,
//!   N-worker) pairs, with both worker pools alive throughout. With fewer
//!   cores than workers a speedup is physically impossible and the
//!   contention makes the timings too noisy to gate on, so there the
//!   speedup is report-only (the speedup over the single process is
//!   reported beside it, ungated).
//!
//! `IVNT_BENCH_SCALE` scales the workload as in the other probes.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

use ivnt_bench::{env_f64, paired_secs, scale, time_secs};
use ivnt_cluster::codec::encode_batch;
use ivnt_cluster::{
    run_job, spawn_local_workers, ClusterConfig, ClusterRun, JobSpec, LocalSpawnSpec, WorkerServer,
    FAULT_ENV,
};
use ivnt_core::pipeline::RunOptions;
use ivnt_simulator::scenario::{self, DataSetSpec};
use ivnt_store::{StoreWriter, WriterOptions};

const SEED: u64 = 7;

/// Interleaved (single-process, 1-worker cluster) pairs behind
/// `cluster_tax`.
const TAX_PAIRS: usize = 5;

/// Gate on `cluster_tax`: distributing to one worker may cost at most
/// this many times the single-process extraction. The codec used to sit
/// on the critical path and read 2.7–3.5 here; overlapped it reads
/// 1.0–1.2, and ROADMAP's target is 1.3.
const MAX_CLUSTER_TAX: f64 = 2.5;

/// Child mode: bind an ephemeral worker, announce it, serve until killed.
fn worker_main() -> Result<(), Box<dyn std::error::Error>> {
    let server =
        WorkerServer::bind("127.0.0.1:0")?.with_faults(ivnt_cluster::WorkerFaults::from_env()?);
    println!("{}{}", ivnt_cluster::LISTEN_PREFIX, server.local_addr()?);
    std::io::stdout().flush()?;
    server.serve()?;
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().nth(1).as_deref() == Some("__worker") {
        return worker_main();
    }

    let examples = (2_000_000.0 * scale()) as usize;
    let runs = 3;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    let path = std::env::temp_dir().join(format!("ivnt-cluster-scale-{}.ivns", std::process::id()));
    let data = scenario::generate(
        &DataSetSpec::syn()
            .with_seed(SEED)
            .with_target_examples(examples),
    )?;
    let trace_rows = data.trace.len();
    let options = WriterOptions {
        chunk_rows: 1024,
        chunks_per_group: 4,
        cluster: true,
    };
    let mut writer = StoreWriter::create(&path, options)?;
    for r in data.trace.records() {
        writer.append(r)?;
    }
    writer.finish()?;

    let job = JobSpec::new("syn", path.display().to_string()).with_seed(SEED);
    eprintln!(
        "workload: {trace_rows} store rows, {cores} cores, {TAX_PAIRS} single-process/1-worker \
         pairs, {runs} runs per multi-worker point"
    );

    // Single-process reference: both the timing baseline and the
    // bit-identity oracle for every distributed run.
    let pipeline = job.pipeline()?;
    let expected = {
        let mut reader = ivnt_store::StoreReader::open(&path)?;
        pipeline
            .session(RunOptions::store(&mut reader))
            .extract()?
            .frame
    };
    let expected_fp: Vec<Vec<u8>> = expected.partitions().iter().map(encode_batch).collect();
    let time_single = || {
        time_secs(|| {
            let mut reader = ivnt_store::StoreReader::open(&path).expect("open");
            pipeline
                .session(RunOptions::store(&mut reader))
                .extract()
                .expect("extract");
        })
    };

    let check = |run: &ClusterRun, label: &str| {
        let fp: Vec<Vec<u8>> = run.frame.partitions().iter().map(encode_batch).collect();
        assert_eq!(fp, expected_fp, "{label} result diverged");
    };
    // Bench tasks run seconds of pegged CPU on possibly one core; the
    // default 1 s liveness window can starve out and flag a healthy
    // worker dead. Liveness behaviour has its own fault-injection tests —
    // here the generous timeout just keeps the probe honest about speed.
    let config = ClusterConfig {
        liveness_timeout_ms: 30_000,
        ..ClusterConfig::default()
    };
    // One timed cluster run over `addrs`; the bit-identity check and the
    // wire stats stay outside the measurement.
    let wire_stats = RefCell::new(None);
    let time_cluster = |addrs: &[String], label: &str| {
        let t0 = Instant::now();
        let run = run_job(&job, addrs, &config).expect("cluster run");
        let secs = t0.elapsed().as_secs_f64();
        check(&run, label);
        *wire_stats.borrow_mut() = Some(run.stats);
        secs
    };

    let mut counts = vec![2usize];
    if cores >= 4 {
        counts.push(4);
    }
    let spawn_spec = LocalSpawnSpec {
        exe: std::env::current_exe()?,
        args: vec!["__worker".into()],
    };
    // Spawns an `n`-worker pool and runs one warmup session on it (which
    // also absorbs worker process start-up).
    let pool = |n: usize| -> Result<_, Box<dyn std::error::Error>> {
        let workers = spawn_local_workers(&spawn_spec, n, &Default::default())?;
        let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
        time_cluster(&addrs, &format!("{n}-worker warmup"));
        Ok((workers, addrs))
    };

    // One worker against the single process, as interleaved pairs;
    // `cluster_tax` is the median of the per-pair ratios.
    let (one_worker, one_addrs) = pool(1)?;
    let tax = paired_secs(
        TAX_PAIRS,
        || time_cluster(&one_addrs, "1-worker"),
        time_single,
    );
    let (one_worker_secs, single_secs, cluster_tax) = (tax.a_secs, tax.b_secs, tax.a_over_b);

    // Each N-worker pool against the still-running 1-worker pool, as
    // interleaved pairs; the scaling gate reads the largest pool's
    // median per-pair ratio.
    let mut points = vec![(1usize, one_worker_secs)];
    let mut speedup = 1.0;
    for &n in &counts {
        let (workers, addrs) = pool(n)?;
        let pair = paired_secs(
            runs,
            || time_cluster(&one_addrs, "1-worker"),
            || time_cluster(&addrs, &format!("{n}-worker")),
        );
        points.push((n, pair.b_secs));
        speedup = pair.a_over_b;
        drop(workers);
    }
    drop(one_worker);
    let wire = wire_stats.take().expect("at least one cluster run");

    // Straggler phase: worker 0 crawls (slow-task fault via the child's
    // env) while the rest are healthy; straggler truncation + tail
    // splitting must keep the run from degrading to the slow worker's
    // pace. Bit-identity is still the hard assertion.
    let straggler_workers = counts.last().copied().unwrap_or(2).max(2);
    let straggler_faults = std::collections::HashMap::from([(0usize, "slow-task".to_string())]);
    let workers = spawn_local_workers(&spawn_spec, straggler_workers, &straggler_faults)?;
    let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let t0 = Instant::now();
    let straggler_run = run_job(&job, &addrs, &config)?;
    let straggler_secs = t0.elapsed().as_secs_f64();
    check(&straggler_run, "straggler");
    let straggler_stats = straggler_run.stats;
    drop(workers);

    // Restart phase: the coordinator crashes after its first merged task
    // (env-armed fault) and a successor resumes from the checkpoint.
    let ckpt = std::env::temp_dir().join(format!("ivnt-cluster-scale-{}.ckpt", std::process::id()));
    let restart_config = ClusterConfig {
        checkpoint_path: Some(ckpt.display().to_string()),
        ..config.clone()
    };
    let workers = spawn_local_workers(&spawn_spec, 2, &Default::default())?;
    let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    std::env::set_var(FAULT_ENV, "coordinator_restart");
    run_job(&job, &addrs, &restart_config)
        .expect_err("restart fault must interrupt the first coordinator");
    let t0 = Instant::now();
    let resumed = run_job(&job, &addrs, &restart_config)?;
    let resume_secs = t0.elapsed().as_secs_f64();
    std::env::remove_var(FAULT_ENV);
    check(&resumed, "checkpoint resume");
    assert!(
        resumed.stats.tasks_resumed >= 1,
        "resume must reuse checkpointed tasks"
    );
    let tasks_resumed = resumed.stats.tasks_resumed;
    drop(workers);
    let _ = std::fs::remove_file(&path);

    let &(n_max, tn) = points.last().expect("at least one point");
    let speedup_sp = single_secs / tn;
    let gate = env_f64("IVNT_CLUSTER_MIN_SPEEDUP", 1.0);
    let wire_gate = env_f64("IVNT_CLUSTER_MIN_WIRE_RATIO", 3.0);
    // With fewer cores than workers a speedup is physically impossible
    // and the contention makes timings too noisy to gate on at all —
    // the speedup is then report-only. Bit-identity, the cluster tax and
    // the wire compression ratio stay enforced on every run regardless.
    let gated = cores >= n_max;
    let effective_gate = if gated { gate } else { 0.0 };
    let wire_ratio = wire.compression_ratio();

    let point_entries: Vec<String> = points
        .iter()
        .map(|(n, secs)| {
            format!(
                "    {{\"workers\": {n}, \"seconds\": {secs:.6}, \
                 \"rows_per_sec\": {:.1}}}",
                trace_rows as f64 / secs
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": {{\n",
            "    \"trace_rows\": {},\n",
            "    \"signal_rows\": {},\n",
            "    \"cores\": {},\n",
            "    \"runs\": {}\n",
            "  }},\n",
            "  \"single_process_seconds\": {:.6},\n",
            "  \"cluster_tax\": {{\n",
            "    \"pairs\": {},\n",
            "    \"median\": {:.3},\n",
            "    \"max_gate\": {:.2}\n",
            "  }},\n",
            "  \"cluster\": [\n{}\n  ],\n",
            "  \"scaling\": {{\n",
            "    \"workers_max\": {},\n",
            "    \"speedup_vs_one_worker\": {:.3},\n",
            "    \"speedup_vs_single_process\": {:.3},\n",
            "    \"min_speedup_gate\": {:.2},\n",
            "    \"effective_gate\": {:.2}\n",
            "  }},\n",
            "  \"wire\": {{\n",
            "    \"partial_frames\": {},\n",
            "    \"result_bytes\": {},\n",
            "    \"result_raw_bytes\": {},\n",
            "    \"compression_ratio\": {:.3},\n",
            "    \"min_wire_ratio_gate\": {:.2}\n",
            "  }},\n",
            "  \"straggler\": {{\n",
            "    \"workers\": {},\n",
            "    \"seconds\": {:.6},\n",
            "    \"splits\": {}\n",
            "  }},\n",
            "  \"restart\": {{\n",
            "    \"resume_seconds\": {:.6},\n",
            "    \"tasks_resumed\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        trace_rows,
        expected.num_rows(),
        cores,
        runs,
        single_secs,
        TAX_PAIRS,
        cluster_tax,
        MAX_CLUSTER_TAX,
        point_entries.join(",\n"),
        n_max,
        speedup,
        speedup_sp,
        gate,
        effective_gate,
        wire.partial_frames,
        wire.wire_result_bytes,
        wire.wire_result_raw_bytes,
        wire_ratio,
        wire_gate,
        straggler_workers,
        straggler_secs,
        straggler_stats.splits,
        resume_secs,
        tasks_resumed,
    );
    std::fs::write("BENCH_cluster.json", &json)?;

    println!(
        "single-process        {:>9.1} ms  {:>12.0} rows/s",
        single_secs * 1e3,
        trace_rows as f64 / single_secs
    );
    for (n, secs) in &points {
        println!(
            "cluster {n} worker(s)    {:>9.1} ms  {:>12.0} rows/s",
            secs * 1e3,
            trace_rows as f64 / secs
        );
    }
    println!(
        "straggler ({straggler_workers} workers, one slowed)  {:>6.1} ms  \
         {} splits",
        straggler_secs * 1e3,
        straggler_stats.splits,
    );
    println!(
        "restart resume        {:>9.1} ms  {tasks_resumed} tasks from checkpoint",
        resume_secs * 1e3
    );
    println!(
        "wire compression: {wire_ratio:.2}x ({} -> {} result bytes, gate {wire_gate:.2}x)",
        wire.wire_result_raw_bytes, wire.wire_result_bytes
    );
    println!(
        "cluster tax: {cluster_tax:.2}x the single process for 1 worker \
         (median of {TAX_PAIRS} interleaved pairs, gate <= {MAX_CLUSTER_TAX:.2})"
    );
    let gate_note = if gated {
        format!("gate {effective_gate:.2}x")
    } else {
        format!("report-only: {n_max} workers on {cores} core(s) cannot scale")
    };
    println!(
        "speedup {n_max} vs 1 workers: {speedup:.2}x, vs single-process: {speedup_sp:.2}x \
         ({gate_note}); all runs bit-identical to single-process"
    );

    let mut failed = false;
    if wire_ratio < wire_gate {
        eprintln!("FAIL: wire compression {wire_ratio:.2}x below gate {wire_gate:.2}x");
        failed = true;
    }
    if speedup < effective_gate {
        eprintln!("FAIL: {n_max}-worker speedup {speedup:.2}x below gate {effective_gate:.2}x");
        failed = true;
    }
    if cluster_tax > MAX_CLUSTER_TAX {
        eprintln!(
            "FAIL: 1-worker cluster costs {cluster_tax:.2}x the single process \
             (gate {MAX_CLUSTER_TAX:.2}) — codec or merge work is back on the critical path"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    Ok(())
}
