//! The staged replay: each job re-executed as calls into the public
//! functions of the layers it crosses, one wrapper per layer, each inside
//! a span. This is the only file that pins per-layer API, so a later
//! signature change is a one-line fix here (README lists the symbols).
//!
//! The replay is single-threaded where the real job fans out per signal,
//! so its wall time differs from `job_s`; the difference is reported as
//! `trace_overhead`. Every replayed result is fingerprinted against the
//! same reference as the real job — a replay that drifted from what
//! `Session::run` does would fail the oracle, not mis-attribute quietly.

use std::io::{Read, Seek, Write};
use std::net::TcpStream;

use ivnt_cluster::codec::{decode_batch_compressed, encode_batch_compressed};
use ivnt_cluster::wire::{self, Message, WIRE_VERSION};
use ivnt_cluster::{run_job, ClusterRun, JobSpec};
use ivnt_core::branch;
use ivnt_core::classify::{classify, Classification};
use ivnt_core::dedup::deduplicate_all;
use ivnt_core::extend::extend_all;
use ivnt_core::interpret::{extract_signals, signal_schema};
use ivnt_core::pipeline::Pipeline;
use ivnt_core::reduce::reduce_all;
use ivnt_core::represent::{merge_results, state_representation};
use ivnt_core::split::{split_by_signal, SignalSequence};
use ivnt_core::tabular::{raw_schema, trace_to_frame};
use ivnt_frame::{Batch, DataFrame, Executor};
use ivnt_plan::{PlanStats, Query, SessionMany};
use ivnt_simulator::trace::Trace;
use ivnt_store::schema::records_to_batch;
use ivnt_store::{AppendWriter, Record, ScanStats, StoreReader};
use ivnt_stream::parse_line;

use crate::jobs::{
    cluster_config, follow_sealed, scan_bytes, stream_groups, Ctx, Streamed, LIVE_APPEND,
};
use crate::oracle::{self, Fingerprint, SignalView};
use crate::trace::{Counts, Tracer, ROOT};
use crate::workload::Meta;
use crate::Error;

/// Counts the spans do not carry, as `(metric name, value)`.
pub type Extras = Vec<(&'static str, f64)>;

/// What one traced job yields beyond its spans.
pub struct Replayed {
    /// The replayed result matched the reference.
    pub ok: bool,
    pub extras: Extras,
}

fn rows(n: usize) -> u64 {
    n as u64
}

fn total_rows(seqs: &[SignalSequence]) -> u64 {
    seqs.iter().map(|s| rows(s.len())).sum()
}

fn with_profile_executor(pipeline: &Pipeline, frame: DataFrame) -> DataFrame {
    match pipeline.profile().workers {
        Some(workers) => frame.with_executor(Executor::new(workers)),
        None => frame,
    }
}

/// `core.tabular`: the in-memory trace as a partitioned raw frame.
fn tabular(t: &mut Tracer, trace: &Trace, pipeline: &Pipeline) -> Result<DataFrame, Error> {
    t.span("core.tabular", |_| {
        let raw = trace_to_frame(trace, pipeline.profile().partitions)?;
        let counts = Counts {
            rows_in: rows(trace.len()),
            rows_out: rows(raw.num_rows()),
            bytes: 0,
        };
        Ok((with_profile_executor(pipeline, raw), counts))
    })
}

/// Frees the raw frame, still on `core.tabular`'s account: a million
/// row-boxed cells cost as much to drop as a layer costs to run, and in
/// the real session they die inside the job too.
fn release_raw(t: &mut Tracer, raw: DataFrame) {
    let idx = t.open("core.tabular");
    drop(raw);
    t.close(idx, Counts::default());
}

/// `core.interpret`: prefilter + vectorized decode kernel (lines 3–6).
fn interpret(t: &mut Tracer, raw: &DataFrame, pipeline: &Pipeline) -> Result<DataFrame, Error> {
    t.span("core.interpret", |_| {
        let ks = extract_signals(raw, pipeline.u_comb())?;
        let counts = Counts {
            rows_in: rows(raw.num_rows()),
            rows_out: rows(ks.num_rows()),
            bytes: 0,
        };
        Ok((ks, counts))
    })
}

/// `core.split`: `K_s` into per-signal sequences (line 7). Like every
/// wrapper below it takes its input by value and frees it inside its own
/// span, as the real session does when it moves a stage's output into the
/// next stage.
fn split(t: &mut Tracer, ks: DataFrame) -> Result<Vec<SignalSequence>, Error> {
    t.span("core.split", |_| {
        let seqs = split_by_signal(&ks)?;
        let counts = Counts {
            rows_in: rows(ks.num_rows()),
            rows_out: total_rows(&seqs),
            bytes: 0,
        };
        Ok((seqs, counts))
    })
}

/// Per-signal dedup report without its representative sequence.
struct Channels {
    representative: String,
    corresponding: Vec<String>,
    mismatched: Vec<String>,
    rows_interpreted: usize,
}

/// `core.dedup`: the gateway equality check (line 9).
fn dedup(
    t: &mut Tracer,
    seqs: Vec<SignalSequence>,
    pipeline: &Pipeline,
) -> Result<(Vec<SignalSequence>, Vec<Channels>), Error> {
    t.span("core.dedup", |_| {
        let dedups = deduplicate_all(&seqs, pipeline.u_comb())?;
        let (reps, channels): (Vec<_>, Vec<_>) = dedups
            .into_iter()
            .map(|d| {
                let channels = Channels {
                    representative: d.representative_channel,
                    corresponding: d.corresponding,
                    mismatched: d.mismatched,
                    rows_interpreted: d.representative.len(),
                };
                (d.representative, channels)
            })
            .unzip();
        let counts = Counts {
            rows_in: total_rows(&seqs),
            rows_out: total_rows(&reps),
            bytes: 0,
        };
        Ok(((reps, channels), counts))
    })
}

/// `core.reduce`: constraint reduction of the representatives (line 10).
fn reduce(
    t: &mut Tracer,
    reps: Vec<SignalSequence>,
    pipeline: &Pipeline,
) -> Result<Vec<SignalSequence>, Error> {
    t.span("core.reduce", |_| {
        let reduced = reduce_all(&reps, &pipeline.profile().constraints)?;
        let counts = Counts {
            rows_in: total_rows(&reps),
            rows_out: total_rows(&reduced),
            bytes: 0,
        };
        Ok((reduced, counts))
    })
}

/// A replayed run's result, in the shape the oracle fingerprints.
struct RunResult {
    reduced: Vec<SignalSequence>,
    channels: Vec<Channels>,
    signals: Vec<(Classification, DataFrame)>,
    extensions: DataFrame,
    merged: DataFrame,
    state: DataFrame,
}

impl RunResult {
    fn fingerprint(&self) -> Fingerprint {
        oracle::run_fingerprint(
            self.reduced
                .iter()
                .zip(&self.channels)
                .zip(&self.signals)
                .map(|((seq, ch), (classification, frame))| SignalView {
                    signal: &seq.signal,
                    classification,
                    representative_channel: &ch.representative,
                    corresponding: &ch.corresponding,
                    mismatched: &ch.mismatched,
                    rows_interpreted: ch.rows_interpreted,
                    rows_reduced: seq.len(),
                    frame,
                }),
            &self.extensions,
            &self.merged,
            &self.state,
        )
    }
}

/// `core.branch`: extension rules, classification, the α/β/γ branches,
/// the merge into `K_rep` and the state table (lines 12–29, Sec. 4.3).
fn branch_all(
    t: &mut Tracer,
    reduced: Vec<SignalSequence>,
    channels: Vec<Channels>,
    pipeline: &Pipeline,
) -> Result<RunResult, Error> {
    t.span("core.branch", |_| {
        let profile = pipeline.profile();
        let extensions = extend_all(&reduced, &profile.extensions)?;
        let mut signals = Vec::with_capacity(reduced.len());
        for seq in &reduced {
            let mut rules = pipeline
                .u_comb()
                .rules()
                .iter()
                .filter(|r| r.signal == seq.signal);
            let first = rules.next();
            let comparable = first.is_none_or(|r| r.info.comparable);
            let home = first
                .filter(|r| r.info.home_channel)
                .or_else(|| rules.find(|r| r.info.home_channel))
                .or(first);
            let classification = classify(seq, comparable, &profile.classify)?;
            let frame = branch::process(
                seq,
                &classification,
                home.map(|r| r.as_ref()),
                &profile.branch,
            )?;
            signals.push((classification, frame));
        }
        let merged = merge_results(signals.iter().map(|(_, f)| f), &extensions)?;
        let state = state_representation(&merged)?;
        let counts = Counts {
            rows_in: total_rows(&reduced),
            rows_out: rows(merged.num_rows()),
            bytes: 0,
        };
        Ok((
            RunResult {
                reduced,
                channels,
                signals,
                extensions,
                merged,
                state,
            },
            counts,
        ))
    })
}

/// Lines 7–29 from an extracted `K_s`.
fn back_half(t: &mut Tracer, ks: DataFrame, pipeline: &Pipeline) -> Result<RunResult, Error> {
    let seqs = split(t, ks)?;
    let (reps, channels) = dedup(t, seqs, pipeline)?;
    let reduced = reduce(t, reps, pipeline)?;
    branch_all(t, reduced, channels, pipeline)
}

/// `store.scan` with `core.interpret` nested per row group: the zone-map
/// pruned scan under the pipeline's predicate, each surviving group turned
/// into a raw batch (`records_to_batch`, still store time) and fed to the
/// kernel as its own morsel — what `RunOptions::store` does.
fn store_scan<R: Read + Seek>(
    t: &mut Tracer,
    reader: &mut StoreReader<R>,
    pipeline: &Pipeline,
) -> Result<(DataFrame, ScanStats), Error> {
    let bytes_read = scan_bytes(reader, [pipeline]);
    t.span("store.scan", |t| {
        let compiled = pipeline.store_predicate().compile(reader.footer());
        let schema = raw_schema();
        let mut parts: Vec<Batch> = Vec::new();
        let stats = reader.scan_indexed::<Error, _>(std::slice::from_ref(&compiled), |group| {
            let records: Vec<Record> = group.into_iter().map(|r| r.record).collect();
            let raw = records_to_batch(schema.clone(), &records)?;
            let morsel = DataFrame::from_partitions(schema.clone(), vec![raw])?;
            let ks = interpret(t, &morsel, pipeline)?;
            parts.extend(ks.into_partitions());
            Ok(())
        })?;
        if parts.is_empty() {
            parts.push(Batch::empty(signal_schema()));
        }
        let ks = with_profile_executor(
            pipeline,
            DataFrame::from_partitions(signal_schema(), parts)?,
        );
        let counts = Counts {
            rows_in: reader.footer().rows,
            rows_out: stats.rows_emitted,
            bytes: bytes_read,
        };
        Ok(((ks, stats), counts))
    })
}

fn scan_extras(stats: &ScanStats) -> Extras {
    vec![
        ("store.scan.chunks_scanned", stats.chunks_scanned as f64),
        ("store.scan.chunks_skipped", stats.chunks_skipped as f64),
        ("store.scan.skip_ratio", stats.skip_ratio()),
    ]
}

/// `plan.exec`: the planner's shared union scan, interpretation and
/// routing for the whole batch — opaque from outside, one span.
fn plan_exec<R: Read + Seek>(
    t: &mut Tracer,
    reader: &mut StoreReader<R>,
    pipelines: &[Pipeline],
) -> Result<(Vec<DataFrame>, PlanStats), Error> {
    t.span("plan.exec", |_| {
        let queries = pipelines.iter().map(Query::new).collect();
        let multi = Pipeline::session_many(queries, reader).extract()?;
        let counts = Counts {
            rows_in: reader.footer().rows,
            rows_out: multi.frames.iter().map(|f| rows(f.frame.num_rows())).sum(),
            bytes: 0,
        };
        let frames = multi.frames.into_iter().map(|f| f.frame).collect();
        Ok(((frames, multi.plan), counts))
    })
}

pub fn plan_extras(plan: &PlanStats) -> Extras {
    let mut extras = vec![
        ("plan.exec.groups_scanned", f64::from(plan.groups_scanned)),
        ("plan.exec.scans_saved", plan.scans_saved as f64),
        (
            "plan.exec.shared_interpret",
            f64::from(u8::from(plan.shared_interpret)),
        ),
    ];
    if let Some(scan) = &plan.scan {
        extras.extend(scan_extras(scan));
    }
    extras
}

/// `stream.parse`: every frame line through `parse_line`.
fn stream_parse(t: &mut Tracer, lines: &[u8]) -> Result<Vec<Record>, Error> {
    t.span("stream.parse", |_| {
        let mut records = Vec::new();
        let mut n_lines = 0u64;
        for line in std::str::from_utf8(lines)?.lines() {
            n_lines += 1;
            records.extend(parse_line(line)?);
        }
        let counts = Counts {
            rows_in: n_lines,
            rows_out: rows(records.len()),
            bytes: rows(lines.len()),
        };
        Ok((records, counts))
    })
}

/// `store.append`: `AppendWriter::append` per record, the tail `flush`,
/// and `seal`.
fn store_append(t: &mut Tracer, records: Vec<Record>, out: &std::path::Path) -> Result<(), Error> {
    t.span("store.append", |_| {
        let mut writer = AppendWriter::create(out, LIVE_APPEND)?;
        for r in &records {
            writer.append(r)?;
        }
        writer.flush()?;
        let bytes = writer.bytes_written();
        writer.seal()?.flush()?;
        let counts = Counts {
            rows_in: rows(records.len()),
            rows_out: rows(records.len()),
            bytes,
        };
        Ok(((), counts))
    })
}

/// `store.scan` on the live path: the follower's catch-up poll decoding
/// the sealed file's groups.
fn store_follow(t: &mut Tracer, out: &std::path::Path) -> Result<Vec<Vec<Record>>, Error> {
    t.span("store.scan", |_| {
        let (groups, bytes) = follow_sealed(out)?;
        let n: u64 = groups.iter().map(|g| rows(g.len())).sum();
        let counts = Counts {
            rows_in: n,
            rows_out: n,
            bytes,
        };
        Ok((groups, counts))
    })
}

/// `stream.session`: `push_records` per group, then `close`.
fn stream_session(
    t: &mut Tracer,
    groups: Vec<Vec<Record>>,
    pipeline: &Pipeline,
) -> Result<Streamed, Error> {
    t.span("stream.session", |_| {
        let streamed = stream_groups(&groups, pipeline)?;
        let counts = Counts {
            rows_in: groups.iter().map(|g| rows(g.len())).sum(),
            rows_out: streamed.rows.values().map(|v| rows(v.len())).sum(),
            bytes: 0,
        };
        Ok((streamed, counts))
    })
}

/// `cluster.connect`: TCP connect, the `Hello` handshake, the `Job`
/// preamble (the worker rebuilds its pipeline and opens the store), one
/// `MetricsRequest` round trip to know the worker got that far, and an
/// orderly `Shutdown` — a session with no shard in it.
fn cluster_connect(t: &mut Tracer, addr: &str, job: &JobSpec) -> Result<(), Error> {
    t.span("cluster.connect", |_| {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        wire::write_frame(
            &mut stream,
            &Message::Hello {
                version: WIRE_VERSION,
                peer: "benchmark".into(),
            },
        )?;
        match wire::read_frame(&mut stream)? {
            Message::Hello { .. } => {}
            other => return Err(format!("expected Hello, got {other:?}").into()),
        }
        wire::write_frame(
            &mut stream,
            &Message::Job {
                job: job.clone(),
                heartbeat_ms: cluster_config().heartbeat_ms as u32,
            },
        )?;
        wire::write_frame(&mut stream, &Message::MetricsRequest)?;
        loop {
            match wire::read_frame(&mut stream)? {
                Message::Metrics { .. } => break,
                Message::Heartbeat { .. } => {}
                other => return Err(format!("expected Metrics, got {other:?}").into()),
            }
        }
        wire::write_frame(&mut stream, &Message::Shutdown)?;
        stream.flush()?;
        Ok(((), Counts::default()))
    })
}

/// `cluster.encode` / `cluster.decode`: the worker's and the coordinator's
/// codec work, replayed here on the job's own result batches.
fn cluster_codec(t: &mut Tracer, run: &ClusterRun) -> Result<(), Error> {
    let n = rows(run.frame.num_rows());
    let encoded = t.span("cluster.encode", |_| -> Result<_, Error> {
        let encoded: Vec<Vec<u8>> = run
            .frame
            .partitions()
            .iter()
            .map(encode_batch_compressed)
            .collect();
        let counts = Counts {
            rows_in: n,
            rows_out: n,
            bytes: encoded.iter().map(|e| rows(e.len())).sum(),
        };
        Ok((encoded, counts))
    })?;
    t.span("cluster.decode", |_| {
        let schema = signal_schema();
        let mut decoded = 0u64;
        for bytes in &encoded {
            decoded += rows(decode_batch_compressed(bytes, &schema)?.num_rows());
        }
        let counts = Counts {
            rows_in: n,
            rows_out: decoded,
            bytes: encoded.iter().map(|e| rows(e.len())).sum(),
        };
        Ok(((), counts))
    })
}

pub fn cluster_extras(run: &ClusterRun) -> Extras {
    vec![
        ("cluster.partial_frames", run.stats.partial_frames as f64),
        ("cluster.raw_bytes", run.stats.wire_result_raw_bytes as f64),
        ("cluster.wire_bytes", run.stats.wire_result_bytes as f64),
        ("cluster.retries", run.stats.retries as f64),
    ]
}

/// A replayed result waiting for the oracle, with its reference's name.
enum Pending {
    Run(String, RunResult),
    Stream(Streamed),
}

/// One traced job of `ctx`'s workload: the root span, the job replayed
/// layer by layer inside it, then — outside the span, like the real job's
/// check is outside the clock — the replayed result against `meta`.
pub fn replay(ctx: &mut Ctx, t: &mut Tracer, meta: &Meta) -> Result<Replayed, Error> {
    t.next_job();
    if let Ctx::Cluster { job, addrs, .. } = ctx {
        // The job itself is one opaque span: what the worker does is
        // invisible from here and stays unattributed. The replays run
        // after the job, outside its root.
        let run = t.span(ROOT, |_| {
            Ok::<_, Error>((run_job(job, addrs, &cluster_config())?, Counts::default()))
        })?;
        cluster_connect(t, &addrs[0], job)?;
        cluster_codec(t, &run)?;
        return Ok(Replayed {
            ok: oracle::frame_fingerprint(&run.frame) == meta.reference("cluster")?,
            extras: cluster_extras(&run),
        });
    }
    let (pending, extras) = t.span(ROOT, |t| {
        Ok::<_, Error>((staged(ctx, t, meta)?, Counts::default()))
    })?;
    let mut ok = true;
    for p in &pending {
        ok &= match p {
            Pending::Run(reference, result) => result.fingerprint() == meta.reference(reference)?,
            Pending::Stream(result) => result.fingerprint() == meta.reference("live")?,
        };
    }
    Ok(Replayed { ok, extras })
}

fn staged(ctx: &mut Ctx, t: &mut Tracer, meta: &Meta) -> Result<(Vec<Pending>, Extras), Error> {
    Ok(match ctx {
        Ctx::Mem {
            trace, pipeline, ..
        } => {
            let raw = tabular(t, trace, pipeline)?;
            let ks = interpret(t, &raw, pipeline)?;
            release_raw(t, raw);
            (
                vec![Pending::Run("narrow".into(), back_half(t, ks, pipeline)?)],
                vec![("core.interpret.admit_ratio", meta.narrow_fraction)],
            )
        }
        Ctx::Store {
            reader,
            pipeline,
            reference,
        } => {
            let (ks, stats) = store_scan(t, reader, pipeline)?;
            let mut extras = scan_extras(&stats);
            // The scan already dropped every row outside the predicate.
            extras.push(("core.interpret.admit_ratio", 1.0));
            (
                vec![Pending::Run(
                    reference.to_string(),
                    back_half(t, ks, pipeline)?,
                )],
                extras,
            )
        }
        Ctx::Fleet { reader, pipelines } => {
            let (frames, plan) = plan_exec(t, reader, pipelines)?;
            if frames.len() != pipelines.len() {
                return Err("planner answered a different number of queries".into());
            }
            let mut pending = Vec::with_capacity(frames.len());
            for (i, (ks, pipeline)) in frames.into_iter().zip(pipelines.iter()).enumerate() {
                pending.push(Pending::Run(
                    format!("fleet.{i}"),
                    back_half(t, ks, pipeline)?,
                ));
            }
            (pending, plan_extras(&plan))
        }
        Ctx::Live {
            lines,
            out,
            pipeline,
        } => {
            let records = stream_parse(t, lines.as_ref())?;
            store_append(t, records, out)?;
            let groups = store_follow(t, out)?;
            (
                vec![Pending::Stream(stream_session(t, groups, pipeline)?)],
                Vec::new(),
            )
        }
        Ctx::Cluster { .. } => unreachable!("replay handles the cluster job itself"),
    })
}
