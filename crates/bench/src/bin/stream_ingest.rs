//! Machine-readable probe of the live-session streaming layer.
//!
//! Three phases, following the `store_probe`/`BENCH_store.json`
//! conventions (human summary on stdout, JSON to `BENCH_stream.json`):
//!
//! 1. **Ingest throughput** — the vehicle workload's frame lines through a
//!    [`LineSource`] and the ingest driver into an appendable `.ivns`
//!    store, measuring sustained frames/s, the micro-batch flush-latency
//!    distribution (p50/p99), and the queue/backpressure behavior; and
//!    `ingest_overlap`, the same lines parsed and appended inline on one
//!    thread over the `ingest()` wall time, the median of interleaved
//!    pairs.
//! 2. **Incremental pipeline** — tails the sealed store with a
//!    [`StoreFollower`] and pushes every row group through the
//!    [`StreamingSession`], measuring reduced-rows/s and the resident
//!    reorder-buffer high-water mark. The concatenated streaming output
//!    is asserted bit-identical to the batch `extract_reduced` — the
//!    incremental path is an optimization, not an approximation.
//! 3. **Kill-mid-stream** — spawns itself as a child (selected by the
//!    `IVNT_STREAM_CHILD_PATH` env var) that loops the workload forever,
//!    kills it mid-write, and asserts the store recovers: the frame walk
//!    drops at most the torn tail, `seal_recovered` makes the file a
//!    first-class sealed store, and every surviving row reads back.
//!
//! The probe exits non-zero when `ingest_overlap` falls below
//! [`MIN_INGEST_OVERLAP`], so a hand-off whose cost eats the overlap of
//! its two threads fails CI. `IVNT_BENCH_SCALE` scales the workload as in the
//! other probes.

use std::collections::HashMap;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use ivnt_bench::{
    domain_pipeline, median_secs, paired_secs, scale, select_signals_for_fraction, time_secs,
};
use ivnt_core::pipeline::RunOptions;
use ivnt_store::{
    recover, seal_recovered, AppendOptions, GroupColumns, StoreFollower, StoreReader, StoreWriter,
    WriterOptions,
};
use ivnt_stream::{
    flatten_reduced, format_line, ingest, summarize_batch, DeltaRow, FrameSource, IngestOptions,
    IngestStats, LineSource, SimulatorSource, SourceEvent, StopFlag, StreamOptions,
    StreamingSession,
};

/// Interleaved (inline, `ingest()`) pairs behind `ingest_overlap`.
const OVERLAP_PAIRS: usize = 9;

/// Gate on `ingest_overlap` (inline parse + append on one thread over the
/// `ingest()` wall time): `ingest()` may take at most 1/0.85 ≈ 1.18× the
/// inline work. With two free cores the batched hand-off reads 1.2–1.9 (the
/// threads overlap); with one core free it reads 0.92–0.95 (the hand-off's
/// own cost). One `Record` per channel message read 0.66–0.76 either way.
const MIN_INGEST_OVERLAP: f64 = 0.85;

/// The p-th quantile of a latency sample, by sorted rank.
fn sample_quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Micro-batch geometry used by every phase: small groups so the
/// default-scale run flushes dozens of times (the latency distribution
/// needs samples) and the kill test tears mid-file, not mid-first-group.
fn append_options() -> AppendOptions {
    AppendOptions {
        writer: WriterOptions {
            chunk_rows: 512,
            chunks_per_group: 2,
            cluster: true,
        },
        flush_rows: 1024,
        flush_interval_us: 0,
    }
}

/// Child mode for the kill-mid-stream phase: loop the workload into the
/// given path forever (no seal) until the parent kills this process.
fn run_child(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let data = ivnt_bench::vehicle_journey(20_000, 1)?;
    let writer = StoreWriter::create(path, append_options())?;
    let options = IngestOptions {
        seal: false,
        ..IngestOptions::default()
    };
    let stop = StopFlag::new();
    let _ = ingest(
        SimulatorSource::new(&data.trace).looped(),
        writer,
        &options,
        &stop,
    )?;
    Ok(())
}

/// Kill-mid-stream smoke: returns (rows recovered, torn bytes).
fn kill_mid_stream(path: &std::path::Path) -> Result<(u64, u64), Box<dyn std::error::Error>> {
    let _ = std::fs::remove_file(path);
    let mut child = std::process::Command::new(std::env::current_exe()?)
        .env("IVNT_STREAM_CHILD_PATH", path)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()?;
    // Wait until a few complete groups hit the disk, then kill mid-write.
    let deadline = Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        if len > 64 * 1024 {
            break;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err("child produced no groups within 60 s".into());
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.kill()?;
    let _ = child.wait();

    let recovered = recover(path)?;
    assert!(!recovered.sealed, "killed child cannot have sealed");
    assert!(recovered.footer.rows > 0, "no rows survived the kill");
    let torn = recovered.torn_bytes();
    let sealed = seal_recovered(path)?;
    assert!(sealed.sealed);
    assert_eq!(sealed.footer.rows, recovered.footer.rows);
    let mut reader = StoreReader::open(path)?;
    let rows = reader.read_all()?.len() as u64;
    assert_eq!(rows, recovered.footer.rows, "sealed rows must read back");
    Ok((rows, torn))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if let Ok(path) = std::env::var("IVNT_STREAM_CHILD_PATH") {
        return run_child(&path);
    }

    let target = (120_000.0 * scale()) as usize;
    let runs = 3;
    let data = ivnt_bench::vehicle_journey(target, 0)?;
    let trace_rows = data.trace.len();
    let signals = select_signals_for_fraction(&data, 9, 0.027);
    let pipeline = domain_pipeline(&data, &signals)?;

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path = dir.join(format!("ivnt-stream-probe-{pid}.ivns"));
    let kill_path = dir.join(format!("ivnt-stream-probe-kill-{pid}.ivns"));

    eprintln!(
        "workload: {trace_rows} frames, 9 signals, {} rows/flush trigger",
        append_options().effective_flush_rows(),
    );

    // --- Phase 1: sustained ingest throughput -------------------------
    let lines: Arc<[u8]> = data
        .trace
        .records()
        .iter()
        .map(|r| format_line(r) + "\n")
        .collect::<String>()
        .into_bytes()
        .into();
    let run_ingest = || -> IngestStats {
        let writer = StoreWriter::create(&path, append_options()).expect("create");
        let (_, stats) = ingest(
            LineSource::new(Cursor::new(lines.clone())),
            writer,
            &IngestOptions::default(),
            &StopFlag::new(),
        )
        .expect("ingest");
        assert_eq!(stats.frames, trace_rows as u64);
        assert!(stats.sealed);
        stats
    };
    // The same lines parsed and appended on one thread.
    let run_inline = || {
        let mut writer = StoreWriter::create(&path, append_options()).expect("create");
        let mut source = LineSource::new(Cursor::new(lines.clone()));
        let mut batch = GroupColumns::default();
        loop {
            batch.clear();
            let event = source.fill(&mut batch, 256).expect("fill");
            writer.append_batch(&batch, |_| {}).expect("append");
            if event == SourceEvent::End {
                break;
            }
        }
        writer.seal().expect("seal");
    };
    run_inline(); // warmup
    let overlap = paired_secs(
        OVERLAP_PAIRS,
        || time_secs(run_inline),
        || {
            time_secs(|| {
                run_ingest();
            })
        },
    );
    let (inline_secs, ingest_secs, ingest_overlap) =
        (overlap.a_secs, overlap.b_secs, overlap.a_over_b);
    // One final instrumented run; its sealed file feeds phase 2.
    let stats = run_ingest();
    let frames_per_sec = trace_rows as f64 / ingest_secs;
    let flush_p50 = sample_quantile(&stats.flush_seconds, 0.50);
    let flush_p99 = sample_quantile(&stats.flush_seconds, 0.99);

    // --- Phase 2: incremental pipeline over the store -----------------
    let follow_once = || -> (HashMap<String, Vec<DeltaRow>>, ivnt_stream::StreamClose, usize, u64) {
        let mut follower = StoreFollower::open(&path).expect("follower");
        let mut session =
            StreamingSession::new(&pipeline, StreamOptions::default()).expect("session");
        let mut rows: HashMap<String, Vec<DeltaRow>> = HashMap::new();
        let mut groups = 0u64;
        loop {
            let batch = follower.poll().expect("poll");
            for group in &batch.groups {
                groups += 1;
                for delta in session.push_records(&group.records).expect("push") {
                    rows.entry(delta.signal).or_default().extend(delta.rows);
                }
            }
            if batch.sealed {
                break;
            }
        }
        let peak = session.peak_buffered_rows();
        let close = session.close().expect("close");
        (rows, close, peak, groups)
    };
    let stream_secs = median_secs(runs, || {
        follow_once();
    });

    // Identity assert (outside the timing loop): streaming ≡ batch.
    let (mut rows, close, peak_buffered, groups_followed) = follow_once();
    for delta in close.deltas {
        rows.entry(delta.signal).or_default().extend(delta.rows);
    }
    let batch = pipeline
        .session(RunOptions::trace(&data.trace))
        .extract_reduced()?;
    assert_eq!(batch.len(), close.summaries.len(), "signal count diverged");
    let mut reduced_rows = 0usize;
    for ((reduced, dedup, interpreted), summary) in batch.iter().zip(&close.summaries) {
        let expect = summarize_batch(reduced, dedup, *interpreted);
        assert_eq!(&expect, summary, "summary diverged for {}", reduced.signal);
        let expect_rows = flatten_reduced(reduced)?;
        let got = rows.get(&reduced.signal).cloned().unwrap_or_default();
        assert_eq!(expect_rows, got, "rows diverged for {}", reduced.signal);
        reduced_rows += expect_rows.len();
    }
    let _ = std::fs::remove_file(&path);

    // --- Phase 3: kill-mid-stream recovery ----------------------------
    let (recovered_rows, torn_bytes) = kill_mid_stream(&kill_path)?;
    let _ = std::fs::remove_file(&kill_path);

    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": {{\n",
            "    \"frames\": {},\n",
            "    \"signals_selected\": 9,\n",
            "    \"flush_rows\": {},\n",
            "    \"runs\": {},\n",
            "    \"overlap_pairs\": {}\n",
            "  }},\n",
            "  \"ingest\": {{\n",
            "    \"seconds\": {:.6},\n",
            "    \"inline_seconds\": {:.6},\n",
            "    \"frames_per_sec\": {:.1},\n",
            "    \"flushes\": {},\n",
            "    \"flush_p50_s\": {:.6},\n",
            "    \"flush_p99_s\": {:.6},\n",
            "    \"peak_queue_depth\": {},\n",
            "    \"backpressure_waits\": {},\n",
            "    \"bytes\": {}\n",
            "  }},\n",
            "  \"streaming\": {{\n",
            "    \"seconds\": {:.6},\n",
            "    \"frames_per_sec\": {:.1},\n",
            "    \"groups\": {},\n",
            "    \"reduced_rows\": {},\n",
            "    \"peak_buffered_rows\": {},\n",
            "    \"batch_identical\": true\n",
            "  }},\n",
            "  \"recovery\": {{\n",
            "    \"rows_recovered\": {},\n",
            "    \"torn_bytes\": {}\n",
            "  }},\n",
            "  \"gate\": {{\n",
            "    \"ingest_overlap\": {:.3},\n",
            "    \"min_ingest_overlap\": {:.2}\n",
            "  }}\n",
            "}}\n"
        ),
        trace_rows,
        append_options().effective_flush_rows(),
        runs,
        OVERLAP_PAIRS,
        ingest_secs,
        inline_secs,
        frames_per_sec,
        stats.flush_seconds.len(),
        flush_p50,
        flush_p99,
        stats.peak_queue_depth,
        stats.backpressure_waits,
        stats.bytes,
        stream_secs,
        trace_rows as f64 / stream_secs,
        groups_followed,
        reduced_rows,
        peak_buffered,
        recovered_rows,
        torn_bytes,
        ingest_overlap,
        MIN_INGEST_OVERLAP,
    );
    std::fs::write("BENCH_stream.json", &json)?;

    println!(
        "ingest:    {:>9.1} ms  {:>12.0} frames/s  ({} flushes, p50 {:.3} ms, p99 {:.3} ms)",
        ingest_secs * 1e3,
        frames_per_sec,
        stats.flush_seconds.len(),
        flush_p50 * 1e3,
        flush_p99 * 1e3,
    );
    println!(
        "overlap:   inline {:.1} ms / ingest() {:.1} ms: ingest_overlap {ingest_overlap:.2} \
         (median of {OVERLAP_PAIRS} interleaved pairs, gate >= {MIN_INGEST_OVERLAP:.2})",
        inline_secs * 1e3,
        ingest_secs * 1e3,
    );
    println!(
        "queue:     peak depth {} rows, {} backpressure waits",
        stats.peak_queue_depth, stats.backpressure_waits,
    );
    println!(
        "streaming: {:>9.1} ms  {:>12.0} frames/s  ({} groups -> {} reduced rows, \
         peak {} rows buffered, batch-identical)",
        stream_secs * 1e3,
        trace_rows as f64 / stream_secs,
        groups_followed,
        reduced_rows,
        peak_buffered,
    );
    println!("recovery:  killed child left {recovered_rows} readable rows ({torn_bytes} torn bytes dropped)");
    println!("wrote BENCH_stream.json");

    if ingest_overlap < MIN_INGEST_OVERLAP {
        eprintln!(
            "FAIL: ingest_overlap {ingest_overlap:.2} below gate {MIN_INGEST_OVERLAP:.2} — \
             the ingest hand-off costs more than its two threads overlap"
        );
        std::process::exit(1);
    }
    Ok(())
}
