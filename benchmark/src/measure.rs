//! The measuring child: one workload in its own process, so its peak
//! memory is its own. Sets the workload up (several times, for a median
//! set-up time), runs the closed job loop with tracing off — or the traced
//! replay — and prints one JSON record for the parent.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ivnt_core::pipeline::RunOptions;
use ivnt_store::StoreReader;

use crate::jobs::{self, Ctx, Output};
use crate::json::Json;
use crate::layers;
use crate::metrics::{END_TO_END, LAYERS, PER_LAYER};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workload::{Meta, Workload};
use crate::Error;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Jobs timed per run at the least, however long they take.
const MIN_JOBS: usize = 10;

/// Traced jobs per traced run at the least; likewise the untraced and the
/// serial jobs a traced run times for its two ratios.
const MIN_TRACED_JOBS: usize = 3;

/// A traced run keeps timing untraced jobs for this long, up to
/// [`MAX_BASE_JOBS`] of them.
const BASE_SECONDS: f64 = 2.0;
const MAX_BASE_JOBS: usize = 12;

/// A run stops adding jobs at this multiple of `--seconds` even short of
/// [`MIN_JOBS`], so a slow machine cannot push it past the run cap.
const OVERRUN: f64 = 2.5;

/// Jobs attempted and failed in a run: the contract's pair, and
/// `fail_ratio`.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Runs `SETUPS` set-ups and keeps the last. The first is timed from
/// process start, so loading the binary is in it.
fn setups(
    workload: Workload,
    meta: &Meta,
    dir: &Path,
    started: Instant,
) -> Result<(Ctx, Vec<f64>), Error> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut ctx = None;
    for i in 0..SETUPS {
        // Tear the previous set-up down first: a second worker process or
        // a second copy of the journey would not be what a user holds.
        drop(ctx.take());
        let t0 = if i == 0 { started } else { Instant::now() };
        ctx = Some(Ctx::setup(workload, meta, dir)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((ctx.expect("SETUPS > 0"), times))
}

/// One timed job: seconds and, outside the clock, the oracle's verdict.
fn timed_job(
    ctx: &mut Ctx,
    meta: &Meta,
    serial: bool,
) -> Result<(f64, jobs::Checked, Output), Error> {
    let t0 = Instant::now();
    let output = ctx.job(serial)?;
    let secs = t0.elapsed().as_secs_f64();
    let checked = ctx.check(&output, meta)?;
    Ok((secs, checked, output))
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(
    workload: Workload,
    dir: &Path,
    seconds: f64,
    started: Instant,
) -> Result<Json, Error> {
    let meta = Meta::load(dir)?;
    let (mut ctx, setup_times) = setups(workload, &meta, dir, started)?;

    // Closed loop, one client: the next job starts when the previous
    // one's result has been checked.
    let mut samples = Vec::new();
    let mut bytes_moved = Vec::new();
    let mut tally = Tally::default();
    let loop_start = Instant::now();
    loop {
        let outcome = timed_job(&mut ctx, &meta, false);
        tally.note(matches!(&outcome, Ok((_, checked, _)) if checked.ok));
        match outcome {
            Ok((secs, checked, _)) if checked.ok => {
                samples.push(secs);
                bytes_moved.push(checked.bytes_moved);
            }
            Ok(_) => eprintln!("{}: a job failed the oracle", workload.name()),
            Err(e) => eprintln!("{}: a job errored: {e}", workload.name()),
        }
        let elapsed = loop_start.elapsed().as_secs_f64();
        if (elapsed >= seconds && tally.attempted as usize >= MIN_JOBS)
            || elapsed >= seconds * OVERRUN
        {
            break;
        }
    }
    let peak_rss_mb = jobs::peak_rss_mib(std::process::id())?;
    if samples.is_empty() {
        return Err(format!("{}: no job passed the oracle", workload.name()).into());
    }
    // The same input must cost the same bytes on every job.
    let bytes_repeat = bytes_moved.iter().all(|b| *b == bytes_moved[0]);
    if !bytes_repeat {
        eprintln!(
            "{}: bytes moved differ between jobs: {bytes_moved:?}",
            workload.name()
        );
    }

    let job_s = stats::median(&samples);
    let mut detail = vec![
        ("n", Json::count(samples.len() as u64)),
        ("rows_per_s", Json::Num(meta.rows as f64 / job_s)),
        ("setup_n", Json::count(setup_times.len() as u64)),
        (
            "setup_samples",
            Json::Arr(setup_times.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("prepare_s", Json::Num(meta.prepare_s)),
        ("bytes_moved", Json::count(bytes_moved[0])),
        ("bytes_repeat", Json::Bool(bytes_repeat)),
    ];
    if let Some((q1, _, q3)) = stats::quartiles(&samples) {
        detail.push(("job_s_q1", Json::Num(q1)));
        detail.push(("job_s_q3", Json::Num(q3)));
    }
    if let Some(p) = stats::tail_percentile(samples.len()) {
        detail.push(("tail_percentile", Json::count(u64::from(p))));
        detail.push(("job_s_tail", Json::Num(stats::percentile(&samples, p))));
    }
    if let Ctx::Cluster {
        store,
        workers,
        job,
        ..
    } = &ctx
    {
        // The roadmap's "1 worker ≤ 1.3× single process": the same
        // extraction without the cluster around it, timed after the loop
        // so it is in neither `job_s` nor `setup_s`.
        let pipeline = job.pipeline()?;
        let mut extract = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            let mut reader = StoreReader::open(store)?;
            std::hint::black_box(pipeline.session(RunOptions::store(&mut reader)).extract()?);
            extract.push(t0.elapsed().as_secs_f64());
        }
        let extract_s = stats::median(&extract);
        detail.push(("extract_s", Json::Num(extract_s)));
        detail.push(("cluster_tax", Json::Num(job_s / extract_s)));
        detail.push((
            "worker_rss_mb",
            Json::Num(jobs::peak_rss_mib(workers[0].pid())?),
        ));
    }

    let values = [
        job_s,
        stats::median(&setup_times),
        peak_rss_mb,
        bytes_moved[0] as f64 / meta.rows as f64,
    ];
    Ok(record(
        workload,
        &meta,
        false,
        &tally,
        bytes_repeat,
        END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| (*n, metric(v, u))),
        detail,
    ))
}

/// Counts a normal job's own result carries, as per-layer metrics.
fn observed(output: &Output) -> layers::Extras {
    match output {
        Output::Run(_) => Vec::new(),
        Output::Fleet(multi) => layers::plan_extras(&multi.plan),
        Output::Live(out) => vec![
            ("store.append.flushes", f64::from(out.stats.groups)),
            ("store.append.bytes", out.stats.bytes as f64),
            // Rewritten below into `stream.queue.busy_s`, once the replay
            // has priced parse and append on their own.
            ("stream.queue.busy_s", out.ingest_s),
            (
                "stream.queue.backpressure_waits",
                out.stats.backpressure_waits as f64,
            ),
            ("stream.queue.peak_depth", out.stats.peak_queue_depth as f64),
            (
                "stream.session.peak_buffered_rows",
                out.streamed.peak_buffered_rows as f64,
            ),
            ("stream.session.late_rows", out.streamed.late_rows as f64),
        ],
        Output::Cluster(run) => layers::cluster_extras(run),
    }
}

/// The traced run: every per-layer metric, from a staged replay.
pub fn run_traced(
    workload: Workload,
    dir: &Path,
    seconds: f64,
    out_dir: &Path,
) -> Result<Json, Error> {
    let meta = Meta::load(dir)?;
    let mut ctx = Ctx::setup(workload, &meta, dir)?;
    let run_start = Instant::now();
    let mut tally = Tally::default();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let named = |extras: layers::Extras| extras.into_iter().map(|(n, v)| (n.to_string(), v));

    // Untraced jobs first: the base of `trace_overhead` and of
    // `fanout_ratio`, and the source of the counts only a real job has.
    // Enough of them that the first jobs after set-up, which still fault
    // their memory in, do not decide the median.
    let mut base = Vec::new();
    while base.len() < MIN_TRACED_JOBS
        || (base.len() < MAX_BASE_JOBS && run_start.elapsed().as_secs_f64() < BASE_SECONDS)
    {
        let (secs, checked, output) = timed_job(&mut ctx, &meta, false)?;
        tally.note(checked.ok);
        base.push(secs);
        values.extend(named(observed(&output)));
    }
    let base_job_s = stats::median(&base);

    if matches!(ctx, Ctx::Mem { .. } | Ctx::Store { .. } | Ctx::Fleet { .. }) {
        let mut serial = Vec::new();
        for _ in 0..MIN_TRACED_JOBS {
            let (secs, checked, _) = timed_job(&mut ctx, &meta, true)?;
            tally.note(checked.ok);
            serial.push(secs);
        }
        values.insert(
            "frame.exec.fanout_ratio".into(),
            stats::median(&serial) / base_job_s,
        );
    }
    if let Ctx::Fleet { reader, pipelines } = &mut ctx {
        // Σ solo sessions over the shared batch: what the planner saves.
        let t0 = Instant::now();
        for p in pipelines.iter() {
            std::hint::black_box(p.session(RunOptions::store(reader)).run()?);
        }
        values.insert(
            "plan.exec.solo_ratio".into(),
            t0.elapsed().as_secs_f64() / base_job_s,
        );
    }

    let mut tracer = Tracer::new();
    let mut jobs_traced = Vec::new();
    while jobs_traced.len() < MIN_TRACED_JOBS || run_start.elapsed().as_secs_f64() < seconds {
        let replayed = layers::replay(&mut ctx, &mut tracer, &meta)?;
        tally.note(replayed.ok);
        values.extend(named(replayed.extras));
        jobs_traced.push(trace::breakdown(
            tracer.spans(),
            jobs_traced.len() as u32 + 1,
        ));
        if run_start.elapsed().as_secs_f64() >= seconds * OVERRUN {
            break;
        }
    }

    // Times: median over the traced jobs. Counts: the last job's — they
    // repeat exactly, which `counts_repeat` confirms.
    let secs = |ns: u64| ns as f64 / 1e9;
    let last = jobs_traced.last().expect("MIN_TRACED_JOBS > 0");
    let counts_repeat = jobs_traced.iter().all(|j| {
        j.layers.iter().all(|(name, l)| {
            last.layers.get(name).is_some_and(|m| {
                (l.rows_in, l.rows_out, l.bytes) == (m.rows_in, m.rows_out, m.bytes)
            })
        })
    });
    let median_of = |f: &dyn Fn(&trace::JobBreakdown) -> f64| {
        stats::median(&jobs_traced.iter().map(f).collect::<Vec<_>>())
    };
    let mut shares = Vec::new();
    for layer in LAYERS {
        let Some(totals) = last.layers.get(layer) else {
            continue;
        };
        let busy = median_of(&|j| j.layers.get(layer).map_or(0.0, |l| secs(l.self_ns)));
        values.insert(format!("{layer}.busy_s"), busy);
        values.insert(format!("{layer}.rows_in"), totals.rows_in as f64);
        values.insert(format!("{layer}.rows_out"), totals.rows_out as f64);
        match *layer {
            "store.scan" => values.insert("store.scan.bytes_read".into(), totals.bytes as f64),
            "store.append" => values.insert("store.append.bytes".into(), totals.bytes as f64),
            _ => None,
        };
        shares.push((*layer, busy));
    }
    if let Some(ingest_s) = values.get("stream.queue.busy_s").copied() {
        // What the bounded-channel hand-off between the source thread and
        // the writer costs: the real `ingest()` wall minus parse and append
        // done inline. Negative would mean the overlap wins.
        let inline = values["stream.parse.busy_s"] + values["store.append.busy_s"];
        values.insert("stream.queue.busy_s".into(), ingest_s - inline);
    }
    let traced_job_s = median_of(&|j| secs(j.wall_ns));
    values.insert("traced_job_s".into(), traced_job_s);
    values.insert(
        "unattributed_s".into(),
        median_of(&|j| secs(j.unattributed_ns())),
    );
    values.insert(
        "trace_coverage".into(),
        median_of(&|j| secs(j.attributed_ns()).min(secs(j.wall_ns)) / secs(j.wall_ns)),
    );
    values.insert("trace_overhead".into(), traced_job_s / base_job_s - 1.0);

    std::fs::create_dir_all(out_dir)?;
    let trace_path = out_dir.join(format!("trace-{}-seed{}.json", workload.name(), meta.seed));
    std::fs::write(
        &trace_path,
        trace::chrome_trace(tracer.spans(), workload.name()).to_string(),
    )?;

    let detail = vec![
        ("n", Json::count(jobs_traced.len() as u64)),
        ("base_job_s", Json::Num(base_job_s)),
        ("base_n", Json::count(base.len() as u64)),
        ("counts_repeat", Json::Bool(counts_repeat)),
        ("trace_file", Json::str(trace_path.display().to_string())),
        (
            "shares",
            Json::Obj(
                shares
                    .iter()
                    .map(|(l, busy)| (l.to_string(), Json::Num(busy / traced_job_s)))
                    .collect(),
            ),
        ),
    ];
    Ok(record(
        workload,
        &meta,
        true,
        &tally,
        true,
        PER_LAYER
            .iter()
            .map(|(n, u)| (*n, metric(values.get(*n).copied().unwrap_or(0.0), u))),
        detail,
    ))
}

/// One run's record. `sound` is whatever beyond "no job failed" the run
/// needs to count as correct.
fn record<'a>(
    workload: Workload,
    meta: &Meta,
    traced: bool,
    tally: &Tally,
    sound: bool,
    metrics: impl Iterator<Item = (&'a str, Json)>,
    detail: Vec<(&str, Json)>,
) -> Json {
    let input_fnv = if workload == Workload::ClusterW1 {
        meta.syn_fnv
    } else {
        meta.journey_fnv
    };
    Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::count(meta.seed)),
        ("trace", Json::count(u64::from(traced))),
        ("rows", Json::count(meta.rows as u64)),
        ("input_fnv", Json::str(format!("{input_fnv:016x}"))),
        ("correct", Json::Bool(tally.failed == 0 && sound)),
        ("attempted", Json::count(tally.attempted)),
        ("failed", Json::count(tally.failed)),
        ("metrics", Json::obj(metrics)),
        ("detail", Json::obj(detail)),
    ])
}
