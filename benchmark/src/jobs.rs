//! The six jobs as a user runs them: one public entry point each, timed
//! from input handed over to result in hand, then checked against the
//! oracle outside the clock.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{BufReader, Cursor, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ivnt_cluster::{
    run_job, spawn_local_workers, ClusterConfig, ClusterRun, JobSpec, LocalSpawnSpec,
    LocalWorkerHandle,
};
use ivnt_core::dedup::Dedup;
use ivnt_core::pipeline::{Pipeline, PipelineOutput, RunOptions};
use ivnt_core::split::SignalSequence;
use ivnt_plan::{MultiOutput, Query, SessionMany};
use ivnt_simulator::trace::Trace;
use ivnt_store::{AppendOptions, AppendWriter, Record, StoreFollower, StoreReader, WriterOptions};
use ivnt_stream::{
    flatten_reduced, ingest, summarize_batch, DeltaRow, IngestOptions, IngestStats, LineSource,
    SignalSummary, StopFlag, StreamOptions, StreamingSession,
};

use crate::oracle::{self, Fingerprint, SignalView};
use crate::workload::{self, Meta, Workload};
use crate::Error;

/// Argument that turns the benchmark binary into a cluster worker.
pub const WORKER_ARG: &str = "__worker";

/// Micro-batch geometry of `live.ingest`: a group is flushed every 1024
/// rows as two 512-row chunks, so followers see data a fraction of a
/// second old and one journey flushes ~1200 times.
pub const LIVE_APPEND: AppendOptions = AppendOptions {
    writer: WriterOptions {
        chunk_rows: 512,
        chunks_per_group: 2,
        cluster: true,
    },
    flush_rows: 1024,
    flush_interval_us: 0,
};

/// The ingest driver's defaults, minus the idle flush: a scheduling stall
/// longer than the poll timeout would cut an extra group and make
/// `bytes_per_row` depend on the machine's mood.
fn live_ingest_options() -> IngestOptions {
    IngestOptions {
        flush_on_idle: false,
        ..IngestOptions::default()
    }
}

/// Cluster defaults with a liveness window that a worker pegged for
/// seconds on a two-core box cannot starve out of.
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        liveness_timeout_ms: 30_000,
        ..ClusterConfig::default()
    }
}

type Reader = StoreReader<BufReader<File>>;

/// `J.lines` in memory, shared with each job's `LineSource` without a copy
/// (`Arc<[u8]>` would copy the file's 50 MB once more at set-up and put
/// the benchmark's own transient on top of the workload's peak).
#[derive(Clone)]
pub struct Lines(Arc<Vec<u8>>);

impl AsRef<[u8]> for Lines {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A workload set up and ready to run jobs.
pub enum Ctx {
    /// `journey.mem`: `J` in memory (and its records' size), narrow domain.
    Mem {
        trace: Trace,
        bytes: u64,
        pipeline: Pipeline,
    },
    /// `journey.store` (narrow) and `journey.wide`: the same session over
    /// `J.ivns`.
    Store {
        reader: Reader,
        pipeline: Pipeline,
        reference: &'static str,
    },
    /// `fleet.cold`: eight disjoint domains, one planner batch.
    Fleet {
        reader: Reader,
        pipelines: Vec<Pipeline>,
    },
    /// `live.ingest`: `J.lines` in memory, written and followed.
    Live {
        lines: Lines,
        out: PathBuf,
        pipeline: Pipeline,
    },
    /// `cluster.w1`: coordinator here, one standing worker process.
    Cluster {
        job: JobSpec,
        addrs: Vec<String>,
        store: PathBuf,
        /// Killed and reaped on drop.
        workers: Vec<LocalWorkerHandle>,
    },
}

/// What `live.ingest` hands back.
pub struct LiveOutput {
    pub stats: IngestStats,
    /// Wall time of the ingest phase (lines in → sealed file).
    pub ingest_s: f64,
    pub file_bytes: u64,
    pub streamed: Streamed,
}

/// What a streaming session over the followed groups emitted.
pub struct Streamed {
    /// Reduced rows per signal: every push's deltas, then the close's.
    pub rows: BTreeMap<String, Vec<DeltaRow>>,
    pub summaries: Vec<SignalSummary>,
    pub peak_buffered_rows: usize,
    pub late_rows: u64,
}

impl Streamed {
    pub fn fingerprint(&self) -> Fingerprint {
        let mut summaries: Vec<&SignalSummary> = self.summaries.iter().collect();
        summaries.sort_by(|a, b| a.signal.cmp(&b.signal));
        oracle::stream_fingerprint(
            summaries
                .into_iter()
                .map(|s| (s, self.rows.get(&s.signal).map_or(&[][..], Vec::as_slice))),
        )
    }
}

/// A job's result in hand.
pub enum Output {
    Run(Box<PipelineOutput>),
    Fleet(MultiOutput),
    Live(LiveOutput),
    Cluster(Box<ClusterRun>),
}

/// The oracle's verdict on one job.
pub struct Checked {
    pub ok: bool,
    /// Bytes the job moved across its storage or wire boundary: the store
    /// file it wrote (`live.ingest`), result frames it received
    /// (`cluster.w1`), chunk bytes its scan read (`journey.store`,
    /// `journey.wide`, `fleet.cold`). `journey.mem` touches neither; its
    /// figure is the size of the records it was handed and cannot move.
    pub bytes_moved: u64,
}

/// Chunk bytes a scan under the union of `pipelines`' predicates reads:
/// every chunk at least one zone-map test admits, as `scan_indexed` does.
pub fn scan_bytes<'a, R: Read + Seek>(
    reader: &StoreReader<R>,
    pipelines: impl IntoIterator<Item = &'a Pipeline>,
) -> u64 {
    let footer = reader.footer();
    let compiled: Vec<_> = pipelines
        .into_iter()
        .map(|p| p.store_predicate().compile(footer))
        .collect();
    footer
        .chunks
        .iter()
        .filter(|c| compiled.iter().any(|p| p.chunk_may_match(c)))
        .map(|c| c.len as u64)
        .sum()
}

/// In-memory size of `trace`'s records: timestamp, id, protocol, payload.
fn trace_bytes(trace: &Trace) -> u64 {
    trace
        .iter()
        .map(|r| (8 + 4 + 1 + r.payload.len()) as u64)
        .sum()
}

pub fn output_fingerprint(output: &PipelineOutput) -> Fingerprint {
    oracle::run_fingerprint(
        output.signals.iter().map(|s| SignalView {
            signal: &s.signal,
            classification: &s.classification,
            representative_channel: &s.representative_channel,
            corresponding: &s.corresponding_channels,
            mismatched: &s.mismatched_channels,
            rows_interpreted: s.rows_interpreted,
            rows_reduced: s.rows_reduced,
            frame: &s.frame,
        }),
        &output.extensions,
        &output.merged,
        &output.state,
    )
}

/// Fingerprint of a batch `extract_reduced` in the streaming form.
pub fn reduced_fingerprint(
    reduced: &[(SignalSequence, Dedup, usize)],
) -> Result<Fingerprint, Error> {
    let mut signals = Vec::with_capacity(reduced.len());
    for (seq, dedup, interpreted) in reduced {
        signals.push((
            summarize_batch(seq, dedup, *interpreted),
            flatten_reduced(seq)?,
        ));
    }
    signals.sort_by(|a, b| a.0.signal.cmp(&b.0.signal));
    Ok(oracle::stream_fingerprint(
        signals.iter().map(|(s, rows)| (s, rows.as_slice())),
    ))
}

impl Ctx {
    /// Set-up as a user pays it: load the inputs, build rule tables and
    /// pipelines, open the store or spawn the worker — then one warm-up
    /// job, which must pass the oracle.
    pub fn setup(workload: Workload, meta: &Meta, dir: &Path) -> Result<Ctx, Error> {
        let mut ctx = match workload {
            Workload::JourneyMem => {
                let data = workload::generate_rows(&workload::journey_spec(meta.seed), meta.rows)?;
                if workload::checksum(data.trace.records()) != meta.journey_fnv {
                    return Err("journey regenerated in the child differs from prepare's".into());
                }
                let pipeline =
                    workload::domain_pipeline(&workload::rule_set(&data), "narrow", &meta.narrow)?;
                Ctx::Mem {
                    bytes: trace_bytes(&data.trace),
                    trace: data.trace,
                    pipeline,
                }
            }
            Workload::JourneyStore | Workload::JourneyWide => {
                let (reference, signals) = if workload == Workload::JourneyStore {
                    ("narrow", &meta.narrow)
                } else {
                    ("wide", &meta.wide)
                };
                Ctx::Store {
                    reader: StoreReader::open(workload::journey_store(dir))?,
                    pipeline: workload::domain_pipeline(
                        &workload::journey_rules(meta.seed)?,
                        reference,
                        signals,
                    )?,
                    reference,
                }
            }
            Workload::FleetCold => {
                let u_rel = workload::journey_rules(meta.seed)?;
                Ctx::Fleet {
                    reader: StoreReader::open(workload::journey_store(dir))?,
                    pipelines: meta
                        .fleet
                        .iter()
                        .enumerate()
                        .map(|(i, d)| workload::domain_pipeline(&u_rel, &format!("fleet.{i}"), d))
                        .collect::<Result<_, _>>()?,
                }
            }
            Workload::LiveIngest => Ctx::Live {
                lines: Lines(Arc::new(std::fs::read(workload::journey_lines(dir))?)),
                out: dir.join("live.ivns"),
                pipeline: workload::domain_pipeline(
                    &workload::journey_rules(meta.seed)?,
                    "narrow",
                    &meta.narrow,
                )?,
            },
            Workload::ClusterW1 => {
                let spawn = LocalSpawnSpec {
                    exe: std::env::current_exe()?,
                    args: vec![WORKER_ARG.into()],
                };
                let workers = spawn_local_workers(&spawn, 1, &HashMap::new())?;
                let store = workload::syn_store(dir);
                Ctx::Cluster {
                    job: workload::cluster_job(meta.seed, &store),
                    addrs: workers.iter().map(|w| w.addr().to_string()).collect(),
                    store,
                    workers,
                }
            }
        };
        let warm = ctx.job(false)?;
        if !ctx.check(&warm, meta)?.ok {
            return Err(format!("{}: warm-up job failed the oracle", workload.name()).into());
        }
        Ok(ctx)
    }

    /// One job through the workload's public entry point. `serial` forces
    /// the per-signal fan-out serial — the numerator of
    /// `frame.exec.fanout_ratio`; workloads without that switch ignore it.
    pub fn job(&mut self, serial: bool) -> Result<Output, Error> {
        Ok(match self {
            Ctx::Mem {
                trace, pipeline, ..
            } => {
                let opts = RunOptions::trace(trace);
                let opts = if serial { opts.serial() } else { opts };
                Output::Run(Box::new(pipeline.session(opts).run()?))
            }
            Ctx::Store {
                reader, pipeline, ..
            } => {
                let opts = RunOptions::store(reader);
                let opts = if serial { opts.serial() } else { opts };
                Output::Run(Box::new(pipeline.session(opts).run()?))
            }
            Ctx::Fleet { reader, pipelines } => {
                // No planner handed in: `run` builds a fresh one, so the
                // result cache is cold on every job.
                let queries = pipelines.iter().map(Query::new).collect();
                let set = Pipeline::session_many(queries, reader);
                let set = if serial { set.serial() } else { set };
                Output::Fleet(set.run()?)
            }
            Ctx::Live {
                lines,
                out,
                pipeline,
            } => Output::Live(live_job(lines, out, pipeline)?),
            Ctx::Cluster { job, addrs, .. } => {
                Output::Cluster(Box::new(run_job(job, addrs, &cluster_config())?))
            }
        })
    }

    /// Fingerprints `output` and compares it with prepare's reference.
    pub fn check(&self, output: &Output, meta: &Meta) -> Result<Checked, Error> {
        Ok(match (self, output) {
            (Ctx::Mem { bytes, .. }, Output::Run(out)) => Checked {
                ok: output_fingerprint(out) == meta.reference("narrow")?,
                bytes_moved: *bytes,
            },
            (
                Ctx::Store {
                    reader,
                    pipeline,
                    reference,
                },
                Output::Run(out),
            ) => Checked {
                ok: output_fingerprint(out) == meta.reference(reference)?,
                bytes_moved: scan_bytes(reader, [pipeline]),
            },
            (Ctx::Fleet { reader, pipelines }, Output::Fleet(multi)) => {
                let mut ok = multi.results.len() == pipelines.len();
                for (i, result) in multi.results.iter().enumerate() {
                    ok &= output_fingerprint(&result.output)
                        == meta.reference(&format!("fleet.{i}"))?;
                }
                Checked {
                    ok,
                    bytes_moved: scan_bytes(reader, pipelines),
                }
            }
            (Ctx::Live { .. }, Output::Live(out)) => Checked {
                ok: out.streamed.fingerprint() == meta.reference("live")?
                    && out.stats.frames == meta.rows as u64
                    && out.stats.dropped_frames == 0
                    && out.stats.sealed,
                bytes_moved: out.file_bytes,
            },
            (Ctx::Cluster { .. }, Output::Cluster(run)) => Checked {
                ok: oracle::frame_fingerprint(&run.frame) == meta.reference("cluster")?,
                bytes_moved: run.stats.wire_result_bytes,
            },
            _ => return Err("job output does not belong to this workload".into()),
        })
    }
}

/// `J.lines` → `LineSource` → `ingest` → `AppendWriter` → seal, then the
/// sealed file → `StoreFollower` → `StreamingSession` → close. The phases
/// run one after the other, so at most two threads are busy (the ingest
/// driver's producer and consumer).
fn live_job(lines: &Lines, out: &Path, pipeline: &Pipeline) -> Result<LiveOutput, Error> {
    let t0 = std::time::Instant::now();
    let writer = AppendWriter::create(out, LIVE_APPEND)?;
    let source = LineSource::new(Cursor::new(lines.clone()));
    let (sink, stats) = ingest(source, writer, &live_ingest_options(), &StopFlag::new())?;
    if let Some(mut sink) = sink {
        sink.flush()?;
    }
    let ingest_s = t0.elapsed().as_secs_f64();
    let file_bytes = std::fs::metadata(out)?.len();
    let (groups, _) = follow_sealed(out)?;
    Ok(LiveOutput {
        stats,
        ingest_s,
        file_bytes,
        streamed: stream_groups(&groups, pipeline)?,
    })
}

/// Every group of the sealed store at `out`, through a follower: the
/// records per group in trace order, and the bytes the follower read.
pub fn follow_sealed(out: &Path) -> Result<(Vec<Vec<Record>>, u64), Error> {
    let mut follower = StoreFollower::open(out)?;
    let mut groups = Vec::new();
    loop {
        let batch = follower.poll()?;
        let progressed = !batch.groups.is_empty();
        groups.extend(batch.groups.into_iter().map(|g| g.records));
        if batch.sealed {
            return Ok((groups, follower.position()));
        }
        if !progressed {
            return Err("live.ivns ends without a seal".into());
        }
    }
}

/// The incremental session over `groups`: one `push_records` per group,
/// then `close`.
pub fn stream_groups(groups: &[Vec<Record>], pipeline: &Pipeline) -> Result<Streamed, Error> {
    let mut session = StreamingSession::new(pipeline, StreamOptions::default())?;
    let mut rows: BTreeMap<String, Vec<DeltaRow>> = BTreeMap::new();
    for group in groups {
        for delta in session.push_records(group)? {
            rows.entry(delta.signal).or_default().extend(delta.rows);
        }
    }
    let peak_buffered_rows = session.peak_buffered_rows();
    let late_rows = session.late_rows();
    let close = session.close()?;
    for delta in close.deltas {
        rows.entry(delta.signal).or_default().extend(delta.rows);
    }
    Ok(Streamed {
        rows,
        summaries: close.summaries,
        peak_buffered_rows,
        late_rows,
    })
}

/// Peak resident set of process `pid` (`VmHWM`), in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, Error> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("/proc/{pid}/status has no VmHWM").into())
}
