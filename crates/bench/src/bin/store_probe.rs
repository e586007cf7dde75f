//! Machine-readable probe of the chunked columnar trace store.
//!
//! Writes the Table 6 vehicle workload into an `.ivns` file, then measures
//! the storage path end to end: ingest throughput, full-decode scan, and
//! the 9-of-400-signal extraction running directly against the store with
//! the preselection predicate pushed into the chunk scan. Results go to
//! `BENCH_store.json` (plus a human-readable summary on stdout), following
//! the same conventions as `speed_probe`/`BENCH_interpret.json`.
//!
//! Four invariants are enforced, not just reported:
//!
//! * the store extraction must be bit-identical to the in-memory
//!   extraction (the zero-materialization path is an optimization, not an
//!   approximation),
//! * the zone maps must actually prune: the probe exits non-zero when the
//!   chunk-skip ratio falls below `IVNT_STORE_MIN_SKIP` (default 0.5), so
//!   CI catches a layout regression that silently degenerates the store
//!   into a plain row file,
//! * the in-memory source must preselect before it materializes:
//!   `mem_over_store` — in-memory over from-store extraction time, the
//!   median ratio of interleaved pairs — must stay at or below
//!   [`MAX_MEM_OVER_STORE`] (a loose bound: at probe scale a fixed
//!   per-call cost dominates both sides, so this ratio barely moves when
//!   the scan does), and
//! * the store scan must test keys before it materializes payloads:
//!   `store_scan_columns` — scan plus kernel through the row-materializing
//!   scan the columnar core replaced (every admitted chunk decoded to
//!   records, filtered, sorted, `records_to_batch`, kernel) over what a
//!   session runs (`scan_columns`, the kernel over each group's columns)
//!   under the domain's predicate, the median ratio of interleaved pairs —
//!   must stay at or above [`MIN_SCAN_COLUMNS_SPEEDUP`]. The public row
//!   views (`scan`, `scan_indexed`) sit over the core, so they cannot be
//!   the baseline.
//!
//! `IVNT_BENCH_SCALE` scales the workload as in the other probes.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;
use std::time::Instant;

use ivnt_bench::{
    covered_fraction, domain_pipeline, env_f64, median_secs, paired_secs, scale,
    select_signals_for_fraction, time_secs,
};
use ivnt_core::interpret::Kernel;
use ivnt_core::pipeline::RunOptions;
use ivnt_frame::batch::Batch;
use ivnt_store::layout::{checksum, decode_chunk};
use ivnt_store::schema::{raw_trace_schema, records_to_batch};
use ivnt_store::{Error, IndexedRecord, Predicate, StoreReader, StoreWriter, WriterOptions};

/// Interleaved (in-memory, from-store) extraction pairs behind
/// `mem_over_store`; an extraction takes milliseconds, so pairs are cheap.
const EXTRACT_PAIRS: usize = 15;

/// Gate on `mem_over_store`: the roadmap's "in-memory extract ≤ 1.5× the
/// from-store time".
const MAX_MEM_OVER_STORE: f64 = 1.5;

/// Interleaved (row-materializing, columnar) scan pairs behind
/// `store_scan_columns`.
const SCAN_PAIRS: usize = 15;

/// Floor on `store_scan_columns`: the columnar scan must beat the
/// row-materializing scan it replaced by this factor on the same predicate.
/// It reads 2.3–2.5 at full and CI scale; a core that materialized every
/// decoded row again would read about 1.
const MIN_SCAN_COLUMNS_SPEEDUP: f64 = 2.0;

/// Seconds to scan `path` under `pred` and decode each group's rows into
/// `K_s` with `kernel`, through the columnar core (`columns`: the kernel
/// reads the scan's columns) or the row-materializing scan it replaced
/// (the kernel reads a raw batch per group); both sides also return their
/// `K_s` batches, which must agree.
fn scan_secs(path: &Path, pred: &Predicate, kernel: &Kernel, columns: bool) -> (f64, Vec<Batch>) {
    let schema = raw_trace_schema();
    let t0 = Instant::now();
    let mut reader = StoreReader::open(path).expect("open");
    let compiled = pred.compile(reader.footer());
    let mut batches = Vec::new();
    if columns {
        reader
            .scan_columns::<Error, _>(std::slice::from_ref(&compiled), |group| {
                batches.push(kernel.extract_batch(group).expect("kernel"));
                Ok(())
            })
            .expect("columnar scan");
    } else {
        // Every admitted chunk decoded into records, filtered row by row,
        // sorted by trace position per group, then `records_to_batch`.
        let footer = reader.footer();
        let mut file = BufReader::new(File::open(path).expect("open"));
        let mut pending: Vec<IndexedRecord> = Vec::new();
        let mut emit = |pending: &mut Vec<IndexedRecord>| {
            if !pending.is_empty() {
                pending.sort_by_key(|r| r.index);
                let rows = pending.iter().map(|r| &r.record);
                let raw = records_to_batch(schema.clone(), rows).expect("batch");
                batches.push(kernel.extract_batch(&raw).expect("kernel"));
                pending.clear();
            }
        };
        let mut group = None;
        for meta in footer.chunks.iter() {
            if group.is_some_and(|g| g != meta.group) {
                emit(&mut pending);
            }
            group = Some(meta.group);
            if !compiled.chunk_may_match(meta) {
                continue;
            }
            let mut bytes = vec![0u8; meta.len as usize];
            file.seek(SeekFrom::Start(meta.offset)).expect("seek");
            file.read_exact(&mut bytes).expect("read");
            assert_eq!(checksum(&bytes), meta.checksum, "chunk checksum");
            let rows = decode_chunk(&bytes, &footer.buses).expect("decode");
            pending.extend(rows.into_iter().filter(|r| {
                compiled.matches(r.bus_id, r.record.message_id, r.record.timestamp_us)
            }));
        }
        emit(&mut pending);
    }
    (t0.elapsed().as_secs_f64(), batches)
}

struct Measurement {
    name: &'static str,
    secs: f64,
    rows_in: usize,
    rows_out: usize,
}

impl Measurement {
    fn rows_per_sec(&self) -> f64 {
        self.rows_in as f64 / self.secs
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"seconds\": {:.6},\n",
                "      \"rows_in\": {},\n",
                "      \"rows_out\": {},\n",
                "      \"rows_per_sec\": {:.1}\n",
                "    }}"
            ),
            self.name,
            self.secs,
            self.rows_in,
            self.rows_out,
            self.rows_per_sec()
        )
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target = (120_000.0 * scale()) as usize;
    let runs = 5;
    let data = ivnt_bench::vehicle_journey(target, 0)?;
    let trace_rows = data.trace.len();
    let signals = select_signals_for_fraction(&data, 9, 0.027);
    let fraction = covered_fraction(&data, &signals);
    let pipeline = domain_pipeline(&data, &signals)?;

    // Smaller groups than the writer default so the default-scale trace
    // spans well over 4 group buffers — the out-of-core claim is about a
    // file that cannot fit the scan budget, not a single-group toy.
    let options = WriterOptions {
        chunk_rows: 1024,
        chunks_per_group: 16,
        cluster: true,
    };
    let group_rows = options.group_rows();
    let path = std::env::temp_dir().join(format!("ivnt-store-probe-{}.ivns", std::process::id()));

    eprintln!(
        "workload: {trace_rows} rows, 9 signals ({:.1}% of traffic), \
         {} rows/group ({:.1} groups)",
        fraction * 100.0,
        group_rows,
        trace_rows as f64 / group_rows as f64,
    );

    let mut measurements = Vec::new();

    let write_store = || {
        let mut writer = StoreWriter::create(&path, options).expect("create store");
        for r in data.trace.records() {
            writer.append(r).expect("append");
        }
        writer.seal().expect("seal");
    };
    let secs = median_secs(runs, write_store);
    measurements.push(Measurement {
        name: "store_write",
        secs,
        rows_in: trace_rows,
        rows_out: trace_rows,
    });

    let ivns_bytes = std::fs::metadata(&path)?.len();

    let mut reader = StoreReader::open(&path)?;
    let chunks_total = reader.footer().chunks.len();
    assert_eq!(reader.read_all()?.len(), trace_rows);
    let secs = median_secs(runs, || {
        let mut reader = StoreReader::open(&path).expect("open");
        reader.read_all().expect("read_all");
    });
    measurements.push(Measurement {
        name: "store_scan_full",
        secs,
        rows_in: trace_rows,
        rows_out: trace_rows,
    });

    let baseline = pipeline
        .session(RunOptions::trace(&data.trace))
        .extract()?
        .frame;
    let mut reader = StoreReader::open(&path)?;
    let ex = pipeline.session(RunOptions::store(&mut reader)).extract()?;
    let (frame, stats) = (ex.frame, ex.scan.unwrap_or_default());
    assert_eq!(
        frame.collect_rows()?,
        baseline.collect_rows()?,
        "store and in-memory extraction diverged"
    );
    assert!(
        stats.peak_rows_buffered <= group_rows,
        "scan buffered {} rows, budget is {group_rows}",
        stats.peak_rows_buffered
    );

    // Both sources timed as interleaved pairs; `mem_over_store` is the
    // median of the per-pair ratios. The two runs above were the warmup.
    let extract = paired_secs(
        EXTRACT_PAIRS,
        || {
            time_secs(|| {
                pipeline
                    .session(RunOptions::trace(&data.trace))
                    .extract()
                    .expect("extract");
            })
        },
        || {
            time_secs(|| {
                let mut reader = StoreReader::open(&path).expect("open");
                pipeline
                    .session(RunOptions::store(&mut reader))
                    .extract()
                    .expect("extract_from_store");
            })
        },
    );
    let (mem_secs, store_secs, mem_over_store) = (extract.a_secs, extract.b_secs, extract.a_over_b);
    measurements.push(Measurement {
        name: "extract_in_memory",
        secs: mem_secs,
        rows_in: trace_rows,
        rows_out: baseline.num_rows(),
    });
    measurements.push(Measurement {
        name: "extract_from_store",
        secs: store_secs,
        rows_in: trace_rows,
        rows_out: frame.num_rows(),
    });

    // Scan plus kernel, columnar core vs the row-materializing scan, same
    // predicate, same `K_s`.
    let pred = pipeline.store_predicate();
    let kernel = pipeline.kernel();
    assert_eq!(
        scan_secs(&path, &pred, kernel, true).1,
        scan_secs(&path, &pred, kernel, false).1,
        "columnar and row scans decoded different K_s"
    );
    let scan = paired_secs(
        SCAN_PAIRS,
        || scan_secs(&path, &pred, kernel, false).0,
        || scan_secs(&path, &pred, kernel, true).0,
    );
    let (row_scan_secs, columns_scan_secs, scan_columns_speedup) =
        (scan.a_secs, scan.b_secs, scan.a_over_b);
    for (name, secs) in [
        ("store_scan_rows", row_scan_secs),
        ("store_scan_columns", columns_scan_secs),
    ] {
        measurements.push(Measurement {
            name,
            secs,
            rows_in: trace_rows,
            rows_out: stats.rows_emitted as usize,
        });
    }

    let _ = std::fs::remove_file(&path);

    let skip_ratio = stats.skip_ratio();
    let min_skip = env_f64("IVNT_STORE_MIN_SKIP", 0.5);

    let entries: Vec<String> = measurements.iter().map(Measurement::to_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": {{\n",
            "    \"trace_rows\": {},\n",
            "    \"signals_selected\": 9,\n",
            "    \"traffic_fraction\": {:.4},\n",
            "    \"chunk_rows\": {},\n",
            "    \"chunks_per_group\": {},\n",
            "    \"group_rows\": {},\n",
            "    \"runs\": {}\n",
            "  }},\n",
            "  \"file\": {{\n",
            "    \"ivns_bytes\": {},\n",
            "    \"bytes_per_row\": {:.2}\n",
            "  }},\n",
            "  \"measurements\": [\n{}\n  ],\n",
            "  \"extract\": {{\n",
            "    \"pairs\": {},\n",
            "    \"mem_over_store\": {:.4},\n",
            "    \"max_gate\": {:.2}\n",
            "  }},\n",
            "  \"store_scan_columns\": {{\n",
            "    \"pairs\": {},\n",
            "    \"rows_over_columns\": {:.4},\n",
            "    \"min_gate\": {:.2}\n",
            "  }},\n",
            "  \"scan\": {{\n",
            "    \"chunks_total\": {},\n",
            "    \"chunks_scanned\": {},\n",
            "    \"chunks_skipped\": {},\n",
            "    \"rows_decoded\": {},\n",
            "    \"rows_emitted\": {},\n",
            "    \"skip_ratio\": {:.4},\n",
            "    \"min_skip_gate\": {:.2},\n",
            "    \"peak_rows_buffered\": {},\n",
            "    \"group_budget_rows\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        trace_rows,
        fraction,
        options.chunk_rows,
        options.chunks_per_group,
        group_rows,
        runs,
        ivns_bytes,
        ivns_bytes as f64 / trace_rows.max(1) as f64,
        entries.join(",\n"),
        EXTRACT_PAIRS,
        mem_over_store,
        MAX_MEM_OVER_STORE,
        SCAN_PAIRS,
        scan_columns_speedup,
        MIN_SCAN_COLUMNS_SPEEDUP,
        chunks_total,
        stats.chunks_scanned,
        stats.chunks_skipped,
        stats.rows_decoded,
        stats.rows_emitted,
        skip_ratio,
        min_skip,
        stats.peak_rows_buffered,
        group_rows,
    );
    std::fs::write("BENCH_store.json", &json)?;

    for m in &measurements {
        println!(
            "{:<22} {:>9.1} ms  {:>12.0} rows/s  ({} -> {} rows)",
            m.name,
            m.secs * 1e3,
            m.rows_per_sec(),
            m.rows_in,
            m.rows_out
        );
    }
    println!(
        "file: {ivns_bytes} bytes ({:.2} B/row)",
        ivns_bytes as f64 / trace_rows.max(1) as f64
    );
    println!(
        "scan: {}/{chunks_total} chunks decoded, {} skipped ({:.1}% pruned), \
         peak {} of {group_rows} budgeted rows buffered",
        stats.chunks_scanned,
        stats.chunks_skipped,
        skip_ratio * 100.0,
        stats.peak_rows_buffered,
    );
    println!(
        "extract: in-memory / from-store = {mem_over_store:.2} \
         (median of {EXTRACT_PAIRS} interleaved pairs, gate <= {MAX_MEM_OVER_STORE:.2})"
    );
    println!(
        "scan: rows / columnar = {scan_columns_speedup:.2} \
         (median of {SCAN_PAIRS} interleaved pairs, gate >= {MIN_SCAN_COLUMNS_SPEEDUP:.2}; \
         {} of {} decoded rows emitted)",
        stats.rows_emitted, stats.rows_decoded,
    );
    println!("wrote BENCH_store.json");

    if skip_ratio < min_skip {
        eprintln!(
            "FAIL: chunk skip ratio {skip_ratio:.2} below gate {min_skip:.2} — \
             zone-map pushdown degenerated"
        );
        std::process::exit(1);
    }
    if mem_over_store > MAX_MEM_OVER_STORE {
        eprintln!(
            "FAIL: in-memory extraction takes {mem_over_store:.2}x the from-store time \
             (gate {MAX_MEM_OVER_STORE:.2}) — the trace ingest materializes rows it should drop"
        );
        std::process::exit(1);
    }
    if scan_columns_speedup < MIN_SCAN_COLUMNS_SPEEDUP {
        eprintln!(
            "FAIL: the columnar scan is only {scan_columns_speedup:.2}x the row scan \
             (gate {MIN_SCAN_COLUMNS_SPEEDUP:.2}) — the store scan materializes rows it should drop"
        );
        std::process::exit(1);
    }
    Ok(())
}
