//! The CLI subcommands.

use std::fs::File;
use std::io::{BufReader, BufWriter};

use ivnt_core::prelude::*;
use ivnt_core::represent::render_state_table;
use ivnt_protocol::ByteOrder;
use ivnt_simulator::prelude::*;
use ivnt_simulator::scenario;

use crate::args::Args;
use crate::options::SharedOptions;
use crate::output::{self, JsonWriter};

/// Valueless flags; everything else is `--key value`.
pub const SWITCHES: &[&str] = &[
    "json", "once", "verify", "timing", "serial", "metrics", "stdin", "no-seal",
];

type CmdResult = Result<(), String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Resolves `--rules authored|inferred|merged|FILE.dbc` to a rule catalog.
///
/// `authored` (the default) rebuilds the tables from the scenario's
/// network model, `inferred` synthesizes them from raw payloads with
/// `ivnt-infer` (no interpretation knowledge needed — `--scenario` can be
/// omitted), `merged` extends the authored tables with inferred rules for
/// unclaimed payload regions, and any other value is read as a DBC file.
/// Both table builders are closures so a command only pays for the source
/// it selects.
fn rule_catalog<A, F>(args: &Args, authored: A, infer: F) -> Result<RuleCatalog, String>
where
    A: FnOnce() -> Result<RuleCatalog, String>,
    F: FnOnce(&InferParams) -> Result<ivnt_infer::InferredTables, String>,
{
    match args.get_or("rules", "authored") {
        "authored" => authored(),
        "inferred" => infer(&InferParams::default())?.to_catalog().map_err(err),
        "merged" => infer(&InferParams::default())?
            .merged_with(&authored()?)
            .map_err(err),
        path => {
            let bus = args.get_or("bus", "CAN");
            let text = std::fs::read_to_string(path).map_err(|e| {
                format!("--rules {path:?}: {e} (use authored|inferred|merged|FILE.dbc)")
            })?;
            Ok(RuleCatalog::from_authored(
                RuleSet::from_dbc(&text, bus).map_err(err)?,
            ))
        }
    }
}

/// The authored-table builder shared by `run`/`extract`/`query`:
/// regenerates a short slice of the scenario purely for its network model
/// and comparability hints (the catalog/documentation role).
fn authored_catalog(args: &Args) -> Result<RuleCatalog, String> {
    let spec = scenario_spec(args)?;
    let data = scenario::generate(&spec.with_duration_s(0.5)).map_err(err)?;
    Ok(RuleCatalog::from_dataset(&data))
}

/// Resolves a `--scenario` name (with optional `--seed`) to its spec.
fn scenario_spec(args: &Args) -> Result<DataSetSpec, String> {
    let name = args.get_or("scenario", "syn");
    let mut spec = match name {
        "syn" => DataSetSpec::syn(),
        "lig" => DataSetSpec::lig(),
        "sta" => DataSetSpec::sta(),
        other => return Err(format!("unknown scenario {other:?} (use syn|lig|sta)")),
    };
    if let Some(seed) = args.get_parsed::<u64>("seed")? {
        spec = spec.with_seed(seed);
    }
    if let Some(examples) = args.get_parsed::<usize>("examples")? {
        spec = spec.with_target_examples(examples);
    }
    Ok(spec)
}

/// `ivnt record --scenario syn|lig|sta [--examples N] [--seed S]
/// [--chunk-rows N] [--chunks-per-group N] [--cluster true|false]
/// <out.ivns>`
///
/// Simulates a scenario and records it as an `.ivns` store file — the
/// same writer the journey repository uses. `--scenario`/`--seed` re-create
/// any recording deterministically.
///
/// # Errors
///
/// Reports generation and I/O failures as messages.
pub fn record(args: &Args) -> CmdResult {
    let out_path = args.positional(0, "out.ivns")?;
    let spec = scenario_spec(args)?;
    let data = scenario::generate(&spec).map_err(err)?;
    write_store(out_path, &data.trace, args)?;
    println!(
        "recorded {}: {} records, {:.1} s, {} signal types ({})",
        out_path,
        data.trace.len(),
        data.trace.duration_s(),
        data.signal_classes.len(),
        spec.name,
    );
    Ok(())
}

/// Writes `trace` to `out_path` as a sealed store file under the
/// chunk-geometry flags.
fn write_store(out_path: &str, trace: &Trace, args: &Args) -> CmdResult {
    let mut writer =
        ivnt_store::StoreWriter::create(out_path, writer_options(args)?).map_err(err)?;
    for r in trace.records() {
        writer.append(r).map_err(err)?;
    }
    writer.finish().map_err(err)?;
    Ok(())
}

/// `ivnt inspect <trace.ivns>` — structural statistics of a trace file.
///
/// # Errors
///
/// Reports I/O and format failures as messages.
pub fn inspect(args: &Args) -> CmdResult {
    let path = args.positional(0, "trace.ivns")?;
    let mut reader = ivnt_store::StoreReader::open(path).map_err(err)?;
    let trace = Trace::from_records(reader.read_all().map_err(err)?);

    let stats = ivnt_simulator::stats::trace_stats(&trace);
    println!(
        "{path}: {} records over {:.1} s ({:.0} msg/s, {} payload bytes)",
        stats.records, stats.duration_s, stats.rate_hz, stats.payload_bytes,
    );
    println!("channels: {}", stats.channels.join(", "));
    println!("top message streams:");
    println!(
        "  {:<10} {:<12} {:>8} {:>12} {:>12} {:>12}",
        "m_id", "bus", "count", "mean gap", "max gap", "jitter"
    );
    for m in stats.top_talkers(12) {
        println!(
            "  {:<10} {:<12} {:>8} {:>10.1}ms {:>10.1}ms {:>10.2}ms",
            m.message_id,
            m.bus,
            m.count,
            m.mean_gap_s * 1e3,
            m.max_gap_s * 1e3,
            m.jitter_s * 1e3,
        );
    }
    Ok(())
}

/// Opens a store and resolves the `--rules` catalog for it;
/// `inferred`/`merged` tables are recovered from the store itself.
fn store_catalog(
    args: &Args,
    path: &str,
) -> Result<(RuleCatalog, ivnt_store::StoreReader<BufReader<File>>), String> {
    let mut reader = ivnt_store::StoreReader::open(path).map_err(err)?;
    let catalog = rule_catalog(
        args,
        || authored_catalog(args),
        |params| ivnt_infer::infer_store(&mut reader, params).map_err(err),
    )?;
    Ok((catalog, reader))
}

/// The `cli` domain profile, narrowed to `--signals a,b` when given.
fn signal_profile(args: &Args) -> DomainProfile {
    let profile = DomainProfile::new("cli");
    match args.get("signals") {
        Some(list) => profile.with_signals(list.split(',').map(str::trim).map(String::from)),
        None => profile,
    }
}

/// Applies the shared `--serial`/`--workers` flags and the `--metrics`
/// subscriber to a session's options.
fn session_options<'a, R: std::io::Read + std::io::Seek>(
    mut opts: RunOptions<'a, R>,
    shared: &SharedOptions,
    registry: Option<&std::sync::Arc<ivnt_obs::Registry>>,
) -> RunOptions<'a, R> {
    if shared.serial {
        opts = opts.serial();
    }
    if let Some(workers) = shared.workers {
        opts = opts.with_workers(workers);
    }
    if let Some(r) = registry {
        opts = opts.with_subscriber(std::sync::Arc::clone(r));
    }
    opts
}

/// Prints the per-stage timing table of one run: `busy` is the summed
/// per-signal task time, `wall` the stage's elapsed makespan — they only
/// differ for the fan-out stages, where `busy / wall` approximates the
/// stage's effective parallelism.
fn print_timing(t: &ivnt_core::pipeline::StageTiming) {
    let ms = |s: f64| format!("{:.3}", s * 1e3);
    let fan_out = |name: &str, busy: f64, wall: f64| {
        println!("  {:<22} {:>10} {:>10}", name, ms(busy), ms(wall));
    };
    let serial = |name: &str, busy: f64| fan_out(name, busy, busy);
    println!("\nstage timing (busy = summed per-signal task time, wall = stage makespan):");
    println!("  {:<22} {:>10} {:>10}", "stage", "busy ms", "wall ms");
    serial("tabular (ingest)", t.tabular);
    serial("interpret (fused)", t.interpret);
    serial("split", t.split);
    fan_out("dedup", t.dedup, t.wall.dedup);
    fan_out("reduce", t.reduce, t.wall.reduce);
    fan_out("extend", t.extend, t.wall.extend);
    fan_out("classify", t.classify, t.wall.classify);
    fan_out("branch", t.branch, t.wall.branch);
    serial("merge", t.merge);
    serial("state", t.state);
    println!("  {:<22} {:>10} {:>10}", "total", "", ms(t.total));
}

/// Renders per-signal run summaries as the `signals` JSON array.
fn signals_json(w: &mut JsonWriter, signals: &[ivnt_core::pipeline::SignalOutput]) {
    w.begin_array(Some("signals"));
    for s in signals {
        w.begin_object(None);
        w.field_str("signal", &s.signal);
        w.field_str("branch", &s.classification.branch.to_string());
        w.field_u64("rows_interpreted", s.rows_interpreted as u64);
        w.field_u64("rows_reduced", s.rows_reduced as u64);
        w.end_object();
    }
    w.end_array();
}

/// Renders one run's timing as a JSON object (seconds, not ms).
fn timing_json(w: &mut JsonWriter, t: &ivnt_core::pipeline::StageTiming) {
    w.begin_object(Some("timing"));
    w.field_f64("tabular", t.tabular);
    w.field_f64("interpret", t.interpret);
    w.field_f64("split", t.split);
    w.field_f64("dedup", t.dedup);
    w.field_f64("reduce", t.reduce);
    w.field_f64("extend", t.extend);
    w.field_f64("classify", t.classify);
    w.field_f64("branch", t.branch);
    w.field_f64("merge", t.merge);
    w.field_f64("state", t.state);
    w.field_f64("total", t.total);
    w.begin_object(Some("wall"));
    w.field_f64("dedup", t.wall.dedup);
    w.field_f64("reduce", t.wall.reduce);
    w.field_f64("extend", t.wall.extend);
    w.field_f64("classify", t.wall.classify);
    w.field_f64("branch", t.wall.branch);
    w.end_object();
    w.end_object();
}

/// `ivnt run --scenario syn --seed 7 [--signals a,b] [--workers N]
/// [--timing] [--serial] [--metrics] [--json] [--state-csv out.csv]
/// <trace.ivns>`
///
/// The full Algorithm 1 straight from the store (zone maps prune chunks
/// the domain cannot match): `--timing` prints the per-stage busy/wall
/// breakdown, `--serial` forces the sequential reference path,
/// `--workers` caps the per-signal fan-out, `--metrics` prints the run's
/// observability snapshot (Prometheus text, or JSON with `--json`), and
/// `--json` switches the whole summary to machine-readable output.
///
/// # Errors
///
/// Reports pipeline and I/O failures as messages.
pub fn run(args: &Args) -> CmdResult {
    let path = args.positional(0, "trace.ivns")?;
    let shared = SharedOptions::parse(args)?;
    let (catalog, mut reader) = store_catalog(args, path)?;
    let pipeline = Pipeline::from_catalog(&catalog, signal_profile(args)).map_err(err)?;
    let registry = output::metrics_registry(&shared);
    let opts = session_options(
        RunOptions::store(&mut reader),
        &shared,
        registry.as_ref().map(|(r, _)| r),
    );
    let output = pipeline.session(opts).run().map_err(err)?;
    let snapshot = registry.as_ref().map(|(r, _)| r.snapshot());

    if shared.json {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        signals_json(&mut w, &output.signals);
        timing_json(&mut w, &output.timing);
        w.field_metrics(snapshot.as_ref());
        w.end_object();
        println!("{}", w.finish());
    } else {
        println!("extracted {} signals:", output.signals.len());
        for s in &output.signals {
            println!(
                "  {:<14} branch {:<6} {:>8} -> {:>8} rows",
                s.signal, s.classification.branch, s.rows_interpreted, s.rows_reduced
            );
        }
        if shared.timing {
            print_timing(&output.timing);
        }
        output::print_metrics(snapshot.as_ref());
    }
    if let Some(report_path) = args.get("report") {
        let md = ivnt_analysis::report::render_report(
            "cli",
            &output,
            &ivnt_analysis::report::ReportConfig::default(),
        )
        .map_err(err)?;
        std::fs::write(report_path, md).map_err(err)?;
        if !shared.json {
            println!("report written to {report_path}");
        }
    }
    if let Some(csv_path) = args.get("state-csv") {
        let file = File::create(csv_path).map_err(err)?;
        ivnt_frame::csv::write_csv(&output.state, BufWriter::new(file)).map_err(err)?;
        if !shared.json {
            println!("state representation written to {csv_path}");
        }
    } else if !shared.json {
        let rows = args.get_parsed::<usize>("rows")?.unwrap_or(15);
        println!(
            "\n{}",
            render_state_table(&output.state, rows).map_err(err)?
        );
    }
    Ok(())
}

/// `ivnt store <ingest|info|compact>` — the chunked columnar trace store.
///
/// # Errors
///
/// Reports unknown subcommands and the subcommands' own failures.
pub fn store(args: &Args) -> CmdResult {
    match args.positional(0, "ingest|info|compact")? {
        "ingest" => store_ingest(args),
        "info" => store_info(args),
        "compact" => store_compact(args),
        other => Err(format!(
            "unknown store subcommand {other:?} (use ingest|info|compact)"
        )),
    }
}

/// Chunk-geometry flags shared by `record`, `store ingest`, `store
/// compact` and `stream ingest`.
fn writer_options(args: &Args) -> Result<ivnt_store::WriterOptions, String> {
    let mut options = ivnt_store::WriterOptions::default();
    if let Some(rows) = args.get_parsed::<usize>("chunk-rows")? {
        options.chunk_rows = rows;
    }
    if let Some(chunks) = args.get_parsed::<usize>("chunks-per-group")? {
        options.chunks_per_group = chunks;
    }
    if let Some(cluster) = args.get_parsed::<bool>("cluster")? {
        options.cluster = cluster;
    }
    Ok(options)
}

/// `ivnt store ingest --from trace.csv [--chunk-rows N]
/// [--chunks-per-group N] [--cluster true|false] <out.ivns>`
///
/// Imports a raw-trace CSV (`t,l,b_id,m_id,m_info`) into the chunked
/// columnar format.
fn store_ingest(args: &Args) -> CmdResult {
    let out_path = args.positional(1, "out.ivns")?;
    let from = args
        .get("from")
        .ok_or_else(|| "need --from <trace.csv>".to_string())?;
    let file = File::open(from).map_err(err)?;
    let trace = ivnt_simulator::store::read_csv_trace(BufReader::new(file)).map_err(err)?;
    write_store(out_path, &trace, args)?;
    println!(
        "ingested {out_path}: {} records over {:.1} s ({} rows/group)",
        trace.len(),
        trace.duration_s(),
        writer_options(args)?.group_rows(),
    );
    Ok(())
}

/// Resolves a store file to its footer plus lifecycle state: a sealed
/// file opens through the normal reader; an appendable (unsealed) one
/// gets its index rebuilt by walking the checksummed group frames, which
/// also measures any torn tail left by a crash.
fn store_state(path: &str) -> Result<(ivnt_store::Footer, bool, u64), String> {
    match ivnt_store::StoreReader::open(path) {
        Ok(reader) => Ok((reader.footer().clone(), true, 0)),
        Err(_) => {
            let recovered = ivnt_store::recover(path).map_err(err)?;
            let torn = recovered.torn_bytes();
            Ok((recovered.footer, recovered.sealed, torn))
        }
    }
}

/// Min/max record timestamps of one group's chunk range.
fn group_time_span(footer: &ivnt_store::Footer, span: &ivnt_store::GroupSpan) -> (u64, u64) {
    let chunks = &footer.chunks[span.chunk_start..span.chunk_end];
    let min_t = chunks.iter().map(|c| c.zone.min_t_us).min().unwrap_or(0);
    let max_t = chunks.iter().map(|c| c.zone.max_t_us).max().unwrap_or(0);
    (min_t, max_t)
}

/// `ivnt store info --json <trace.ivns>` — the footer and full chunk
/// index as a machine-readable JSON document, for scripted health checks
/// and shard planning outside the pipeline.
fn store_info_json(path: &str, footer: &ivnt_store::Footer, sealed: bool, torn: u64) -> CmdResult {
    let payload_bytes: u64 = footer.chunks.iter().map(|c| u64::from(c.len)).sum();
    let min_t = footer.chunks.iter().map(|c| c.zone.min_t_us).min();
    let max_t = footer.chunks.iter().map(|c| c.zone.max_t_us).max();
    let mut w = JsonWriter::new();
    w.begin_object(None);
    w.field_str("path", path);
    w.field_str("state", if sealed { "sealed" } else { "appendable" });
    w.field_u64("torn_bytes", torn);
    w.field_u64("rows", footer.rows);
    w.field_u64("groups", u64::from(footer.groups));
    w.field_u64("group_rows", u64::from(footer.group_rows));
    w.field_bool("clustered", footer.clustered);
    w.field_u64("generation", footer.generation);
    w.field_u64("payload_bytes", payload_bytes);
    w.field_u64("min_t_us", min_t.unwrap_or(0));
    w.field_u64("max_t_us", max_t.unwrap_or(0));
    let buses: Vec<String> = footer.buses.iter().map(|b| output::json_str(b)).collect();
    w.field_raw("buses", &format!("[{}]", buses.join(", ")));
    w.begin_array(Some("group_spans"));
    for span in footer.group_spans() {
        let (min_t, max_t) = group_time_span(footer, &span);
        w.element_raw(&format!(
            "{{\"group\": {}, \"rows\": {}, \"chunks\": {}, \
             \"chunk_start\": {}, \"chunk_end\": {}, \
             \"min_t_us\": {min_t}, \"max_t_us\": {max_t}}}",
            span.group,
            span.rows,
            span.chunk_end - span.chunk_start,
            span.chunk_start,
            span.chunk_end,
        ));
    }
    w.end_array();
    w.begin_array(Some("chunks"));
    for (i, c) in footer.chunks.iter().enumerate() {
        let chunk_buses: Vec<String> = footer
            .buses
            .iter()
            .enumerate()
            .filter(|(b, _)| c.zone.has_bus(*b as u32))
            .map(|(_, name)| output::json_str(name))
            .collect();
        w.element_raw(&format!(
            "{{\"chunk\": {i}, \"group\": {}, \"rows\": {}, \"offset\": {}, \
             \"len\": {}, \"checksum\": {}, \"min_t_us\": {}, \"max_t_us\": {}, \
             \"min_mid\": {}, \"max_mid\": {}, \"buses\": [{}]}}",
            c.group,
            c.rows,
            c.offset,
            c.len,
            output::json_str(&format!("{:#018x}", c.checksum)),
            c.zone.min_t_us,
            c.zone.max_t_us,
            c.zone.min_mid,
            c.zone.max_mid,
            chunk_buses.join(", "),
        ));
    }
    w.end_array();
    w.end_object();
    println!("{}", w.finish());
    Ok(())
}

/// `ivnt store info [--json] [--chunks N] [--groups N] <trace.ivns>` —
/// footer statistics, lifecycle state (sealed vs still appendable, with
/// any torn tail bytes), per-row-group time spans, and the chunk index;
/// `--json` emits the machine-readable form. Appendable files written by
/// `ivnt stream ingest --no-seal` (or cut short by a crash) are indexed
/// by walking their checksummed group frames.
fn store_info(args: &Args) -> CmdResult {
    let path = args.positional(1, "trace.ivns")?;
    let (footer, sealed, torn) = store_state(path)?;
    let footer = &footer;
    if args.has("json") {
        return store_info_json(path, footer, sealed, torn);
    }
    let layout = if footer.clustered {
        "clustered"
    } else {
        "time-ordered"
    };
    let state = if sealed { "sealed" } else { "appendable" };
    println!(
        "{path}: {} records in {} chunks / {} groups ({state}, {layout}, {} rows/group)",
        footer.rows,
        footer.chunks.len(),
        footer.groups,
        footer.group_rows,
    );
    if torn > 0 {
        println!("torn tail: {torn} bytes past the last complete group");
    }
    let buses: Vec<&str> = footer.buses.iter().map(AsRef::as_ref).collect();
    println!("buses: {}", buses.join(", "));
    if let (Some(first), Some(last)) = (footer.chunks.first(), footer.chunks.last()) {
        let min_t = footer.chunks.iter().map(|c| c.zone.min_t_us).min();
        let max_t = footer.chunks.iter().map(|c| c.zone.max_t_us).max();
        println!(
            "time span: {:.3} s – {:.3} s, payload region {} bytes",
            min_t.unwrap_or(first.zone.min_t_us) as f64 / 1e6,
            max_t.unwrap_or(last.zone.max_t_us) as f64 / 1e6,
            footer.chunks.iter().map(|c| u64::from(c.len)).sum::<u64>(),
        );
    }
    let groups_listed = args.get_parsed::<usize>("groups")?.unwrap_or(0);
    if groups_listed > 0 {
        println!(
            "  {:<6} {:>8} {:>6} {:>12} {:>12}",
            "group", "rows", "chunks", "min t", "max t"
        );
        for span in footer.group_spans().iter().take(groups_listed) {
            let (min_t, max_t) = group_time_span(footer, span);
            println!(
                "  {:<6} {:>8} {:>6} {:>10.3}s {:>10.3}s",
                span.group,
                span.rows,
                span.chunk_end - span.chunk_start,
                min_t as f64 / 1e6,
                max_t as f64 / 1e6,
            );
        }
    }
    let listed = args.get_parsed::<usize>("chunks")?.unwrap_or(0);
    if listed > 0 {
        println!(
            "  {:<6} {:<6} {:>6} {:>12} {:>12} {:>10}",
            "chunk", "group", "rows", "min t", "max t", "m_id range"
        );
        for (i, c) in footer.chunks.iter().take(listed).enumerate() {
            println!(
                "  {:<6} {:<6} {:>6} {:>10.3}s {:>10.3}s {:>4}..{}",
                i,
                c.group,
                c.rows,
                c.zone.min_t_us as f64 / 1e6,
                c.zone.max_t_us as f64 / 1e6,
                c.zone.min_mid,
                c.zone.max_mid,
            );
        }
    }
    Ok(())
}

/// `ivnt extract --scenario syn [--seed S] [--signals a,b]
/// [--rules authored|inferred|merged|FILE.dbc] [--workers N] [--serial]
/// [--metrics] [--json] [--csv out.csv] <trace.ivns>`
///
/// Lines 3–6 only: interprets the store into `K_s` and reports the scan.
/// The pipeline's preselection predicate is pushed into the chunk scan,
/// so chunks whose zone maps cannot match are never read from disk.
///
/// # Errors
///
/// Reports pipeline and I/O failures as messages.
pub fn extract(args: &Args) -> CmdResult {
    let path = args.positional(0, "trace.ivns")?;
    let shared = SharedOptions::parse(args)?;
    let (catalog, mut reader) = store_catalog(args, path)?;
    let pipeline = Pipeline::from_catalog(&catalog, signal_profile(args)).map_err(err)?;
    let registry = output::metrics_registry(&shared);
    let opts = session_options(
        RunOptions::store(&mut reader),
        &shared,
        registry.as_ref().map(|(r, _)| r),
    );
    let extraction = pipeline.session(opts).extract().map_err(err)?;
    let frame = extraction.frame;
    let stats = extraction.scan.unwrap_or_default();
    let snapshot = registry.as_ref().map(|(r, _)| r.snapshot());

    if shared.json {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        w.field_str("path", path);
        w.field_u64("rows", frame.num_rows() as u64);
        w.begin_object(Some("scan"));
        w.field_u64("chunks_total", stats.chunks_total as u64);
        w.field_u64("chunks_scanned", stats.chunks_scanned as u64);
        w.field_u64("chunks_skipped", stats.chunks_skipped as u64);
        w.field_f64("skip_ratio", stats.skip_ratio());
        w.field_u64("rows_decoded", stats.rows_decoded);
        w.field_u64("rows_emitted", stats.rows_emitted);
        w.field_u64("peak_rows_buffered", stats.peak_rows_buffered as u64);
        w.end_object();
        w.field_metrics(snapshot.as_ref());
        w.end_object();
        println!("{}", w.finish());
    } else {
        println!("interpreted {} signal rows from {path}", frame.num_rows());
        println!(
            "scan: {}/{} chunks decoded, {} skipped by zone maps ({:.0}% pruned), \
             {} of {} decoded rows kept, peak {} rows buffered",
            stats.chunks_scanned,
            stats.chunks_total,
            stats.chunks_skipped,
            stats.skip_ratio() * 100.0,
            stats.rows_emitted,
            stats.rows_decoded,
            stats.peak_rows_buffered,
        );
    }
    if let Some(csv_path) = args.get("csv") {
        let file = File::create(csv_path).map_err(err)?;
        ivnt_frame::csv::write_csv(&frame, BufWriter::new(file)).map_err(err)?;
        if !shared.json {
            println!("interpreted signals written to {csv_path}");
        }
    } else if !shared.json {
        let mut by_name = std::collections::BTreeMap::<String, usize>::new();
        for v in frame
            .column_values(ivnt_core::tabular::columns::SIGNAL)
            .map_err(err)?
        {
            let name = match v {
                ivnt_frame::value::Value::Str(s) => s.to_string(),
                other => format!("{other:?}"),
            };
            *by_name.entry(name).or_default() += 1;
        }
        let mut counts: Vec<(String, usize)> = by_name.into_iter().collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (name, count) in counts {
            println!("  {name:<14} {count:>8} rows");
        }
    }
    if !shared.json {
        output::print_metrics(snapshot.as_ref());
    }
    Ok(())
}

/// `ivnt store compact [--chunk-rows N] [--chunks-per-group N]
/// [--cluster true|false] [--json] <in.ivns> <out.ivns>`
///
/// Rewrites a store into full-size row groups. Stores sealed from append
/// mode carry the ingest's micro-batch group boundaries (whatever
/// `--flush-rows`/`--flush-ms` produced), which cost readers per-group
/// overhead; compaction merges them into the batch writer's geometry.
/// Contents are bit-identical — only the layout changes.
fn store_compact(args: &Args) -> CmdResult {
    let in_path = args.positional(1, "in.ivns")?;
    let out_path = args.positional(2, "out.ivns")?;
    let options = writer_options(args)?;
    let report = ivnt_store::compact_file(in_path, out_path, options).map_err(err)?;
    if args.has("json") {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        w.field_str("input", in_path);
        w.field_str("output", out_path);
        w.field_u64("rows", report.rows);
        w.field_u64("groups_before", u64::from(report.groups_before));
        w.field_u64("groups_after", u64::from(report.groups_after));
        w.field_u64("chunks_before", report.chunks_before as u64);
        w.field_u64("chunks_after", report.chunks_after as u64);
        w.end_object();
        println!("{}", w.finish());
    } else {
        println!(
            "compacted {in_path} -> {out_path}: {} rows, {} -> {} groups, {} -> {} chunks",
            report.rows,
            report.groups_before,
            report.groups_after,
            report.chunks_before,
            report.chunks_after,
        );
    }
    Ok(())
}

/// One `--domain NAME=SIG[+SIG..][@FROM_US..TO_US]` specification.
struct DomainSpec {
    name: String,
    signals: Vec<String>,
    window: Option<(u64, u64)>,
}

/// Parses `NAME=a+b+c@1000..5000` (window optional, µs, inclusive).
fn parse_domain_spec(spec: &str) -> Result<DomainSpec, String> {
    let (name, rest) = spec
        .split_once('=')
        .ok_or_else(|| format!("--domain {spec:?}: expected NAME=SIG[+SIG..][@FROM..TO]"))?;
    if name.is_empty() {
        return Err(format!("--domain {spec:?}: empty domain name"));
    }
    let (signals_part, window) = match rest.split_once('@') {
        Some((s, w)) => {
            let (from, to) = w
                .split_once("..")
                .ok_or_else(|| format!("--domain {spec:?}: window must be FROM_US..TO_US"))?;
            let from: u64 = from
                .parse()
                .map_err(|_| format!("--domain {spec:?}: bad window start {from:?}"))?;
            let to: u64 = to
                .parse()
                .map_err(|_| format!("--domain {spec:?}: bad window end {to:?}"))?;
            (s, Some((from, to)))
        }
        None => (rest, None),
    };
    let signals: Vec<String> = signals_part
        .split('+')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if signals.is_empty() {
        return Err(format!("--domain {spec:?}: no signals listed"));
    }
    Ok(DomainSpec {
        name: name.to_string(),
        signals,
        window,
    })
}

/// `ivnt query --scenario syn|lig|sta [--seed S]
/// --domain NAME=SIG[+SIG..][@FROM_US..TO_US] [--domain ..]
/// [--signal SIG [--signal ..]] [--workers N] [--serial] [--metrics]
/// [--json] <trace.ivns>`
///
/// Answers N domain queries over one store from a single shared pass via
/// the `ivnt-plan` planner: preselection predicates are merged into one
/// union scan, signal-disjoint windowless batches share the interpret
/// kernel, and every per-query answer is bit-identical to running that
/// domain as its own `ivnt extract`-style session. `--signal SIG`
/// is shorthand for `--domain SIG=SIG`.
///
/// # Errors
///
/// Reports planner and I/O failures as messages.
pub fn query(args: &Args) -> CmdResult {
    let path = args.positional(0, "trace.ivns")?;
    let shared = SharedOptions::parse(args)?;

    let mut specs: Vec<DomainSpec> = Vec::new();
    for raw in args.get_all("domain") {
        specs.push(parse_domain_spec(raw)?);
    }
    for raw in args.get_all("signal") {
        specs.push(DomainSpec {
            name: raw.clone(),
            signals: vec![raw.clone()],
            window: None,
        });
    }
    if specs.is_empty() {
        return Err("need at least one --domain NAME=SIG[+SIG..] or --signal SIG".into());
    }

    let (catalog, mut reader) = store_catalog(args, path)?;
    let pipelines: Vec<Pipeline> = specs
        .iter()
        .map(|d| {
            let profile = DomainProfile::new(d.name.clone()).with_signals(d.signals.clone());
            Pipeline::from_catalog(&catalog, profile).map_err(err)
        })
        .collect::<Result<_, _>>()?;

    let queries: Vec<ivnt_plan::Query<'_>> = pipelines
        .iter()
        .zip(&specs)
        .map(|(p, d)| {
            let q = ivnt_plan::Query::new(p).with_label(d.name.clone());
            match d.window {
                Some((from, to)) => q.with_window(from, to),
                None => q,
            }
        })
        .collect();

    let registry = output::metrics_registry(&shared);
    use ivnt_plan::SessionMany as _;
    let mut set = Pipeline::session_many(queries, &mut reader);
    if shared.serial {
        set = set.serial();
    }
    if let Some((r, _)) = &registry {
        set = set.with_subscriber(std::sync::Arc::clone(r));
    }
    let multi = set.run().map_err(err)?;
    let snapshot = registry.as_ref().map(|(r, _)| r.snapshot());

    let plan = &multi.plan;
    let strategy = if plan.shared_interpret {
        "shared-interpret"
    } else {
        "per-query"
    };
    if shared.json {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        w.field_str("path", path);
        w.begin_object(Some("plan"));
        w.field_u64("queries", plan.queries as u64);
        w.field_str("strategy", strategy);
        w.field_u64("scans_saved", plan.scans_saved as u64);
        w.field_u64("groups_scanned", u64::from(plan.groups_scanned));
        if let Some(s) = &plan.scan {
            w.begin_object(Some("scan"));
            w.field_u64("chunks_total", s.chunks_total as u64);
            w.field_u64("chunks_scanned", s.chunks_scanned as u64);
            w.field_u64("chunks_skipped", s.chunks_skipped as u64);
            w.field_f64("skip_ratio", s.skip_ratio());
            w.field_u64("peak_rows_buffered", s.peak_rows_buffered as u64);
            w.end_object();
        }
        w.end_object();
        w.begin_array(Some("queries"));
        for qr in &multi.results {
            w.begin_object(None);
            w.field_str("label", &qr.label);
            w.field_u64("rows_routed", qr.stats.rows_routed);
            w.field_u64("groups", u64::from(qr.stats.groups));
            signals_json(&mut w, &qr.output.signals);
            w.end_object();
        }
        w.end_array();
        w.field_metrics(snapshot.as_ref());
        w.end_object();
        println!("{}", w.finish());
    } else {
        let scan = plan
            .scan
            .as_ref()
            .map(|s| {
                format!(
                    ", {}/{} chunks decoded ({:.0}% pruned)",
                    s.chunks_scanned,
                    s.chunks_total,
                    s.skip_ratio() * 100.0,
                )
            })
            .unwrap_or_default();
        println!(
            "answered {} queries from one pass over {path} ({strategy}, \
             {} store scans saved{scan})",
            plan.queries, plan.scans_saved,
        );
        for qr in &multi.results {
            println!(
                "  {:<14} {:>8} raw rows over {:>4} groups",
                qr.label, qr.stats.rows_routed, qr.stats.groups,
            );
            for s in &qr.output.signals {
                println!(
                    "    {:<14} branch {:<6} {:>8} -> {:>8} rows",
                    s.signal, s.classification.branch, s.rows_interpreted, s.rows_reduced,
                );
            }
        }
        output::print_metrics(snapshot.as_ref());
    }
    Ok(())
}

/// `ivnt stream <ingest|follow>` — live-session ingest and tailing.
///
/// # Errors
///
/// Reports unknown subcommands and the subcommands' own failures.
pub fn stream(args: &Args) -> CmdResult {
    match args.positional(0, "ingest|follow")? {
        "ingest" => stream_ingest(args),
        "follow" => stream_follow(args),
        other => Err(format!(
            "unknown stream subcommand {other:?} (use ingest|follow)"
        )),
    }
}

/// The p-th quantile of a small latency sample, by sorted rank.
fn sample_quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// `ivnt stream ingest [--stdin | --listen ADDR | --scenario syn|lig|sta
/// [--seed S] [--examples N] [--frames N]] [--flush-rows N] [--flush-ms N]
/// [--queue N] [--poll-ms N] [--no-seal] [--chunk-rows N]
/// [--chunks-per-group N] [--cluster true|false] [--metrics] [--json]
/// <out.ivns>`
///
/// Appends live frames into an `.ivns` store as micro-batched row groups.
/// Sources: `--stdin` reads the frame-line format from standard input,
/// `--listen` accepts one TCP peer speaking the same format, and the
/// default replays a simulated scenario (looped when `--frames` caps the
/// run). Frames reach the writer in batches; `--queue N` bounds the rows
/// queued between source and writer, and a batch that would exceed it
/// waits (one backpressure wait per blocked hand-off). Every flushed group
/// is checksummed and immediately durable, so killing the process
/// mid-stream loses at most the unflushed tail — `ivnt store info` and
/// the pipeline recover the rest. `--no-seal` leaves the file appendable
/// on exit.
fn stream_ingest(args: &Args) -> CmdResult {
    let out_path = args.positional(1, "out.ivns")?;
    let shared = SharedOptions::parse_switches(args);

    let mut append = ivnt_store::AppendOptions {
        writer: writer_options(args)?,
        ..ivnt_store::AppendOptions::default()
    };
    if let Some(rows) = args.get_parsed::<usize>("flush-rows")? {
        append.flush_rows = rows;
    }
    if let Some(ms) = args.get_parsed::<u64>("flush-ms")? {
        append.flush_interval_us = ms.saturating_mul(1_000);
    }

    let mut options = ivnt_stream::IngestOptions {
        max_frames: args.get_parsed::<u64>("frames")?,
        ..ivnt_stream::IngestOptions::default()
    };
    if let Some(cap) = args.get_parsed::<usize>("queue")? {
        options.queue_capacity = cap.max(1);
    }
    if let Some(ms) = args.get_parsed::<u64>("poll-ms")? {
        options.poll_timeout = std::time::Duration::from_millis(ms.max(1));
    }
    options.seal = !args.has("no-seal");

    let registry = output::metrics_registry(&shared);
    let writer = ivnt_store::AppendWriter::create(out_path, append).map_err(err)?;
    let stop = ivnt_stream::StopFlag::new();
    let (_, stats) = if args.has("stdin") {
        let source = ivnt_stream::LineSource::new(BufReader::new(std::io::stdin()));
        ivnt_stream::ingest(source, writer, &options, &stop).map_err(err)?
    } else if let Some(addr) = args.get("listen") {
        if !shared.json {
            println!("waiting for one peer on {addr} ...");
        }
        let source =
            ivnt_stream::TcpLineSource::accept_on(addr, options.poll_timeout).map_err(err)?;
        ivnt_stream::ingest(source, writer, &options, &stop).map_err(err)?
    } else {
        let data = scenario::generate(&scenario_spec(args)?).map_err(err)?;
        let mut source = ivnt_stream::SimulatorSource::new(&data.trace);
        if options.max_frames.is_some() {
            source = source.looped();
        }
        ivnt_stream::ingest(source, writer, &options, &stop).map_err(err)?
    };
    let snapshot = registry.as_ref().map(|(r, _)| r.snapshot());

    let p50 = sample_quantile(&stats.flush_seconds, 0.50);
    let p99 = sample_quantile(&stats.flush_seconds, 0.99);
    if shared.json {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        w.field_str("path", out_path);
        w.field_u64("frames", stats.frames);
        w.field_u64("groups", u64::from(stats.groups));
        w.field_u64("bytes", stats.bytes);
        w.field_bool("sealed", stats.sealed);
        w.field_f64("flush_p50_s", p50);
        w.field_f64("flush_p99_s", p99);
        w.field_u64("backpressure_waits", stats.backpressure_waits);
        w.field_u64("peak_queue_depth", stats.peak_queue_depth as u64);
        w.field_u64("dropped_frames", stats.dropped_frames);
        w.field_metrics(snapshot.as_ref());
        w.end_object();
        println!("{}", w.finish());
    } else {
        let state = if stats.sealed { "sealed" } else { "appendable" };
        println!(
            "ingested {out_path}: {} frames in {} groups, {} bytes ({state})",
            stats.frames, stats.groups, stats.bytes,
        );
        println!(
            "flush latency over {} flushes: p50 {:.3} ms, p99 {:.3} ms",
            stats.flush_seconds.len(),
            p50 * 1e3,
            p99 * 1e3,
        );
        println!(
            "queue: peak depth {} rows, {} backpressure waits, {} dropped frames",
            stats.peak_queue_depth, stats.backpressure_waits, stats.dropped_frames,
        );
        output::print_metrics(snapshot.as_ref());
    }
    Ok(())
}

/// `ivnt stream follow --scenario syn|lig|sta [--seed S] [--signals a,b]
/// [--watermark-ms N] [--history-cap N] [--sax K] [--poll-ms N] [--once]
/// [--metrics] [--json] <trace.ivns>`
///
/// Tails a store being written by `ivnt stream ingest`, pushing each
/// completed row group through the incremental pipeline and printing the
/// reduced state deltas as they materialize. Runs until the writer seals
/// the file; `--once` instead stops at the first poll that makes no
/// progress (use it on finished files). `--sax K` adds incremental
/// SWAB + SAX symbolization with a K-letter alphabet. On a closed stream
/// the concatenated deltas are bit-identical to the batch pipeline's
/// reduced output over the same records.
fn stream_follow(args: &Args) -> CmdResult {
    let path = args.positional(1, "trace.ivns")?;
    let shared = SharedOptions::parse_switches(args);

    let pipeline =
        Pipeline::from_catalog(&authored_catalog(args)?, signal_profile(args)).map_err(err)?;

    let mut options = ivnt_stream::StreamOptions::default();
    if let Some(ms) = args.get_parsed::<u64>("watermark-ms")? {
        options.watermark_s = ms as f64 / 1e3;
    }
    if let Some(cap) = args.get_parsed::<usize>("history-cap")? {
        options.history_cap = cap;
    }
    if let Some(alphabet) = args.get_parsed::<usize>("sax")? {
        options.symbolize = Some(ivnt_stream::SymbolizeOptions {
            alphabet_size: alphabet,
            ..ivnt_stream::SymbolizeOptions::default()
        });
    }
    let poll_ms = args.get_parsed::<u64>("poll-ms")?.unwrap_or(200);

    let registry = output::metrics_registry(&shared);
    let mut session = ivnt_stream::StreamingSession::new(&pipeline, options).map_err(err)?;
    let mut follower = ivnt_store::StoreFollower::open(path).map_err(err)?;
    let mut groups = 0u64;
    let mut rows = 0u64;
    let mut sealed = false;
    loop {
        let batch = follower.poll().map_err(err)?;
        let progressed = !batch.groups.is_empty();
        for group in &batch.groups {
            groups += 1;
            let deltas = session.push_records(&group.records).map_err(err)?;
            print_deltas(&shared, &deltas, &mut rows);
        }
        if batch.sealed {
            sealed = true;
            break;
        }
        if args.has("once") && !progressed {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms.max(1)));
    }
    let peak_buffered = session.peak_buffered_rows();
    let late_rows = session.late_rows();
    let close = session.close().map_err(err)?;
    print_deltas(&shared, &close.deltas, &mut rows);
    let snapshot = registry.as_ref().map(|(r, _)| r.snapshot());

    if shared.json {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        w.field_str("path", path);
        w.field_bool("sealed", sealed);
        w.field_u64("groups", groups);
        w.field_u64("rows_emitted", rows);
        w.field_u64("peak_buffered_rows", peak_buffered as u64);
        w.field_u64("late_rows", late_rows);
        w.begin_array(Some("signals"));
        for s in &close.summaries {
            w.begin_object(None);
            w.field_str("signal", &s.signal);
            w.field_str("representative_channel", &s.representative_channel);
            let quote = |names: &[String]| -> Vec<String> {
                names.iter().map(|n| output::json_str(n)).collect()
            };
            w.field_raw(
                "corresponding",
                &format!("[{}]", quote(&s.corresponding).join(", ")),
            );
            w.field_raw(
                "mismatched",
                &format!("[{}]", quote(&s.mismatched).join(", ")),
            );
            w.field_u64("rows_interpreted", s.rows_interpreted as u64);
            w.field_u64("rows_emitted", s.rows_emitted as u64);
            w.field_u64("rep_conflicts", s.rep_conflicts);
            w.end_object();
        }
        w.end_array();
        w.field_metrics(snapshot.as_ref());
        w.end_object();
        println!("{}", w.finish());
    } else {
        let ending = if sealed { "sealed" } else { "stopped" };
        println!(
            "{ending}: {} signals, {rows} reduced rows over {groups} groups \
             (peak {peak_buffered} rows buffered, {late_rows} late)",
            close.summaries.len(),
        );
        for s in &close.summaries {
            let lists = if s.corresponding.is_empty() && s.mismatched.is_empty() {
                String::new()
            } else {
                format!(
                    "  corr [{}] mism [{}]",
                    s.corresponding.join(", "),
                    s.mismatched.join(", "),
                )
            };
            println!(
                "  {:<14} rep {:<12} {:>8} -> {:>8} rows{lists}",
                s.signal, s.representative_channel, s.rows_interpreted, s.rows_emitted,
            );
        }
        output::print_metrics(snapshot.as_ref());
    }
    Ok(())
}

/// Prints one poll's state deltas (text mode only) and counts their rows.
fn print_deltas(shared: &SharedOptions, deltas: &[ivnt_stream::SignalDelta], rows: &mut u64) {
    for d in deltas {
        *rows += d.rows.len() as u64;
        if shared.json || d.rows.is_empty() {
            continue;
        }
        let last_t = d.rows.last().map_or(0.0, |r| r.t);
        let sax = if d.segments.is_empty() {
            String::new()
        } else {
            let word: String = d.segments.iter().map(|s| s.symbol).collect();
            format!("  sax \"{word}\"")
        };
        println!(
            "  {:<14} +{:>5} rows (t <= {last_t:.3}s){sax}",
            d.signal,
            d.rows.len(),
        );
    }
}

/// `ivnt cluster <worker|run>` — distributed extraction.
///
/// # Errors
///
/// Reports unknown subcommands and the subcommands' own failures.
pub fn cluster(args: &Args) -> CmdResult {
    match args.positional(0, "worker|run")? {
        "worker" => cluster_worker(args),
        "run" => cluster_run(args),
        other => Err(format!(
            "unknown cluster subcommand {other:?} (use worker|run)"
        )),
    }
}

/// `ivnt cluster worker [--listen ADDR] [--once]`
///
/// Binds a worker, announces `cluster worker listening on ADDR` on
/// stdout (parsed by `--local` parents), then serves coordinator
/// sessions — exactly one with `--once`, forever otherwise. Fault
/// injection is armed via `IVNT_CLUSTER_FAULT`.
fn cluster_worker(args: &Args) -> CmdResult {
    use std::io::Write;
    let listen = args.get_or("listen", "127.0.0.1:0");
    let faults = ivnt_cluster::WorkerFaults::from_env().map_err(err)?;
    let server = ivnt_cluster::WorkerServer::bind(listen)
        .map_err(err)?
        .with_faults(faults);
    let addr = server.local_addr().map_err(err)?;
    println!("{}{addr}", ivnt_cluster::LISTEN_PREFIX);
    std::io::stdout().flush().map_err(err)?;
    if args.has("once") {
        server.serve_once().map_err(err)
    } else {
        server.serve().map_err(err)
    }
}

/// `ivnt cluster run --scenario syn [--seed S] [--signals a,b]
/// (--workers A,B,.. | --local N) [--heartbeat-ms N] [--timeout-ms N]
/// [--retries N] [--tasks N] [--checkpoint PATH]
/// [--straggler-factor F] [--csv out.csv] [--verify] [--metrics]
/// [--json] <trace.ivns>`
///
/// Plans shards from the store footer, distributes them over the given
/// workers (or over `--local N` subprocess copies of this binary), and
/// merges the results in deterministic task order. `--verify` re-runs
/// the extraction single-process and asserts the merged result is
/// bit-identical. `--checkpoint` persists completed tasks so a
/// restarted coordinator resumes instead of recomputing.
/// `--straggler-factor` tunes when a slow shard is truncated and its
/// tail re-split across idle workers. `--metrics` prints the
/// coordinator's snapshot merged with every worker's end-of-session
/// snapshot (here `--workers` is the address list, so the shared
/// `--workers N` thread cap does not apply).
fn cluster_run(args: &Args) -> CmdResult {
    let store_path = args.positional(1, "trace.ivns")?;
    let shared = SharedOptions::parse_switches(args);
    let mut job = ivnt_cluster::JobSpec::new(args.get_or("scenario", "syn"), store_path);
    if let Some(seed) = args.get_parsed::<u64>("seed")? {
        job = job.with_seed(seed);
    }
    if let Some(examples) = args.get_parsed::<u64>("examples")? {
        job = job.with_examples(examples);
    }
    if let Some(list) = args.get("signals") {
        job = job.with_signals(list.split(',').map(str::trim).map(String::from));
    }

    let mut config = ivnt_cluster::ClusterConfig::default();
    if let Some(v) = args.get_parsed::<u64>("heartbeat-ms")? {
        config.heartbeat_ms = v;
    }
    if let Some(v) = args.get_parsed::<u64>("timeout-ms")? {
        config.liveness_timeout_ms = v;
    }
    if let Some(v) = args.get_parsed::<u32>("retries")? {
        config.max_task_retries = v;
    }
    if let Some(v) = args.get_parsed::<usize>("tasks")? {
        config.tasks_per_worker = v;
    }
    if let Some(path) = args.get("checkpoint") {
        config.checkpoint_path = Some(path.to_string());
    }
    if let Some(v) = args.get_parsed::<f64>("straggler-factor")? {
        if !v.is_finite() || v <= 1.0 {
            return Err("--straggler-factor must be a finite number > 1".into());
        }
        config.straggler_factor = v;
    }
    config.collect_metrics = shared.metrics || shared.json;

    // Resolve the worker set: explicit addresses, or local subprocesses.
    let mut locals = Vec::new();
    let addrs: Vec<String> = match (args.get("workers"), args.get_parsed::<usize>("local")?) {
        (Some(_), Some(_)) => return Err("use --workers or --local, not both".into()),
        (Some(list), None) => list.split(',').map(str::trim).map(String::from).collect(),
        (None, Some(n)) if n > 0 => {
            let spec = ivnt_cluster::LocalSpawnSpec {
                exe: std::env::current_exe().map_err(err)?,
                args: ["cluster", "worker", "--listen", "127.0.0.1:0", "--once"]
                    .map(String::from)
                    .to_vec(),
            };
            let faults = ivnt_cluster::local_faults_from_env().map_err(err)?;
            locals = ivnt_cluster::spawn_local_workers(&spec, n, &faults).map_err(err)?;
            locals.iter().map(|w| w.addr().to_string()).collect()
        }
        _ => return Err("need --workers A,B,.. or --local N".into()),
    };

    // The coordinator's own instrumentation (heartbeat gaps, retries,
    // per-shard wall clock) lands in this registry; worker snapshots
    // arrive over the wire in `run.worker_metrics` and are merged below.
    let registry = output::metrics_registry(&shared);
    let run = ivnt_cluster::run_job(&job, &addrs, &config).map_err(err)?;
    drop(locals);
    let snapshot = registry.as_ref().map(|(r, _)| {
        let mut merged = r.snapshot();
        merged.merge(&run.worker_metrics);
        merged
    });

    if shared.json {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        w.field_str("path", store_path);
        w.field_u64("rows", run.stats.rows as u64);
        w.field_u64("workers", run.stats.workers as u64);
        w.field_u64("tasks", run.stats.tasks as u64);
        w.field_u64("groups_total", run.stats.groups_total as u64);
        w.field_u64("groups_pruned", run.stats.groups_pruned as u64);
        w.field_u64("retries", run.stats.retries as u64);
        w.field_u64("workers_lost", run.stats.workers_lost as u64);
        w.field_u64("splits", run.stats.splits);
        w.field_u64("tasks_resumed", run.stats.tasks_resumed as u64);
        w.field_u64("partial_frames", run.stats.partial_frames);
        w.field_u64("wire_result_bytes", run.stats.wire_result_bytes);
        w.field_u64("wire_result_raw_bytes", run.stats.wire_result_raw_bytes);
        w.field_f64("wire_compression_ratio", run.stats.compression_ratio());
        w.field_metrics(snapshot.as_ref());
        w.end_object();
        println!("{}", w.finish());
    } else {
        println!(
            "cluster extracted {} signal rows from {store_path} across {} workers",
            run.stats.rows, run.stats.workers,
        );
        println!(
            "schedule: {} tasks over {} groups ({} pruned), {} retries, {} workers lost, \
             {} splits, {} resumed",
            run.stats.tasks,
            run.stats.groups_total,
            run.stats.groups_pruned,
            run.stats.retries,
            run.stats.workers_lost,
            run.stats.splits,
            run.stats.tasks_resumed,
        );
        println!(
            "wire: {} partial frames, {} result bytes ({} raw, {:.2}x compression)",
            run.stats.partial_frames,
            run.stats.wire_result_bytes,
            run.stats.wire_result_raw_bytes,
            run.stats.compression_ratio(),
        );
        output::print_metrics(snapshot.as_ref());
    }

    if args.has("verify") {
        let pipeline = job.pipeline().map_err(err)?;
        let mut reader = ivnt_store::StoreReader::open(store_path).map_err(err)?;
        let expected = pipeline
            .session(RunOptions::store(&mut reader))
            .extract()
            .map_err(err)?
            .frame;
        let fp = |frame: &ivnt_frame::frame::DataFrame| -> Vec<Vec<u8>> {
            frame
                .partitions()
                .iter()
                .map(ivnt_cluster::codec::encode_batch)
                .collect()
        };
        if fp(&run.frame) != fp(&expected) {
            return Err("verify FAILED: distributed result differs from single-process".into());
        }
        if !shared.json {
            println!("verify: bit-identical to single-process extraction");
        }
    }

    if let Some(csv_path) = args.get("csv") {
        let file = File::create(csv_path).map_err(err)?;
        ivnt_frame::csv::write_csv(&run.frame, BufWriter::new(file)).map_err(err)?;
        if !shared.json {
            println!("interpreted signals written to {csv_path}");
        }
    }
    Ok(())
}

/// `ivnt dbc <file.dbc> [--bus NAME]` — parse and summarize a DBC file.
///
/// # Errors
///
/// Reports parse failures (with line numbers) as messages.
pub fn dbc(args: &Args) -> CmdResult {
    let path = args.positional(0, "file.dbc")?;
    let bus = args.get_or("bus", "CAN");
    let text = std::fs::read_to_string(path).map_err(err)?;
    let (catalog, mux) = ivnt_protocol::dbc::parse_dbc(&text, bus).map_err(err)?;
    println!(
        "{path}: {} messages, {} signals ({} multiplexed) on channel {bus}",
        catalog.num_messages(),
        catalog.num_signals() + mux.len(),
        mux.len()
    );
    let describe = |s: &ivnt_protocol::SignalSpec| {
        let kind = if s.is_enumerated() {
            format!("enum[{}]", s.enumeration().len())
        } else {
            format!("num x{} {}", s.factor(), s.unit().unwrap_or(""))
        };
        format!(
            "    SG_ {:<20} {:>3}|{:<2} {kind}",
            s.name(),
            s.start_bit(),
            s.bit_len()
        )
    };
    for m in catalog.messages() {
        let cycle = m
            .cycle_time_ms()
            .map(|ms| format!("{ms} ms"))
            .unwrap_or_else(|| "event".into());
        println!(
            "  BO_ {:<6} {:<24} dlc {} cycle {}",
            m.id(),
            m.name(),
            m.dlc(),
            cycle
        );
        for s in m.signals() {
            println!("{}", describe(s));
        }
        for e in mux.iter().filter(|e| e.message_id == m.id()) {
            println!(
                "{} when {} = {}",
                describe(&e.signal).trim_end(),
                e.selector.name(),
                e.selector_value
            );
        }
    }
    Ok(())
}

/// Parses a message id in decimal or `0x` hex.
fn parse_mid(v: &str) -> Result<u32, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u32::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("flag --mid has invalid value {v:?}"))
}

/// `ivnt infer --store trace.ivns [--mid ID] [--min-samples N] [--json]`
///
/// DBC-less signal-boundary inference: profiles every `(bus, message id)`
/// key of the store in two out-of-core scan passes and prints the
/// synthesized interpretation table — start bit, width, byte order,
/// behavioural class and recovery confidence per signal. No scenario or
/// DBC is consulted; the same tables drive `run`/`query` via
/// `--rules inferred`.
///
/// # Errors
///
/// Reports store and inference failures as messages.
pub fn infer(args: &Args) -> CmdResult {
    let path = args
        .get("store")
        .ok_or_else(|| "need --store <trace.ivns>".to_string())?;
    let mut params = InferParams::default();
    if let Some(n) = args.get_parsed::<u64>("min-samples")? {
        params.min_samples = n;
    }
    let mid = match args.get("mid") {
        Some(v) => Some(parse_mid(v)?),
        None => None,
    };

    let mut reader = ivnt_store::StoreReader::open(path).map_err(err)?;
    let tables = ivnt_infer::infer_store(&mut reader, &params).map_err(err)?;
    let signals: Vec<&ivnt_infer::InferredSignal> = tables
        .signals
        .iter()
        .filter(|s| mid.is_none_or(|m| s.message_id == m))
        .collect();

    if args.has("json") {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        w.field_str("path", path);
        w.field_u64("profiled_keys", tables.profiled_keys() as u64);
        w.field_u64("min_samples", tables.params.min_samples);
        w.begin_array(Some("signals"));
        for s in &signals {
            w.begin_object(None);
            w.field_str("bus", &s.bus);
            w.field_u64("message_id", u64::from(s.message_id));
            w.field_str("name", &s.name);
            w.field_u64("start_bit", u64::from(s.start_bit));
            w.field_u64("bit_len", u64::from(s.bit_len));
            w.field_str(
                "byte_order",
                match s.byte_order {
                    ByteOrder::Intel => "intel",
                    ByteOrder::Motorola => "motorola",
                },
            );
            w.field_str("class", s.class.label());
            w.field_f64("confidence", s.confidence);
            w.field_u64("samples", s.samples);
            w.field_f64("mean_bit_entropy", s.mean_bit_entropy);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        println!("{}", w.finish());
    } else {
        println!(
            "{path}: {} signals recovered from {} message streams (min {} samples/key)",
            signals.len(),
            tables.profiled_keys(),
            tables.params.min_samples,
        );
        println!(
            "  {:<12} {:<8} {:<16} {:>5} {:>4} {:<9} {:<9} {:>5} {:>8} {:>8}",
            "bus", "m_id", "name", "start", "len", "order", "class", "conf", "samples", "entropy"
        );
        for s in &signals {
            println!(
                "  {:<12} {:<8} {:<16} {:>5} {:>4} {:<9} {:<9} {:>5.2} {:>8} {:>8.3}",
                s.bus,
                format!("0x{:03x}", s.message_id),
                s.name,
                s.start_bit,
                s.bit_len,
                match s.byte_order {
                    ByteOrder::Intel => "intel",
                    ByteOrder::Motorola => "motorola",
                },
                s.class.label(),
                s.confidence,
                s.samples,
                s.mean_bit_entropy,
            );
        }
    }
    Ok(())
}

/// Usage text.
pub fn usage() -> &'static str {
    "ivnt — in-vehicle network trace preprocessing (DAC'18 reproduction)

USAGE:
  ivnt record  --scenario syn|lig|sta [--examples N] [--seed S]
               [--chunk-rows N] [--chunks-per-group N]
               [--cluster true|false] <out.ivns>
  ivnt inspect <trace.ivns>
  ivnt run     --scenario syn|lig|sta [--seed S] [--signals a,b,..]
               [--rules authored|inferred|merged|FILE.dbc] [shared flags]
               [--state-csv out.csv] [--report out.md] [--rows N]
               <trace.ivns>
  ivnt extract --scenario syn|lig|sta [--seed S] [--signals a,b,..]
               [--rules authored|inferred|merged|FILE.dbc] [shared flags]
               [--csv out.csv] <trace.ivns>
  ivnt query   --scenario syn|lig|sta [--seed S]
               --domain NAME=SIG[+SIG..][@FROM_US..TO_US] [--domain ..]
               [--signal SIG [--signal ..]]
               [--rules authored|inferred|merged|FILE.dbc] [shared flags]
               <trace.ivns>
  ivnt infer   --store trace.ivns [--mid ID] [--min-samples N] [--json]
  ivnt store ingest  --from trace.csv [--chunk-rows N]
                      [--chunks-per-group N] [--cluster true|false] <out.ivns>
  ivnt store info    [--chunks N] [--groups N] [--json] <trace.ivns>
  ivnt store compact [--chunk-rows N] [--chunks-per-group N]
                      [--cluster true|false] [--json] <in.ivns> <out.ivns>
  ivnt stream ingest [--stdin | --listen ADDR | --scenario syn|lig|sta
                      [--seed S] [--examples N] [--frames N]]
                      [--flush-rows N] [--flush-ms N] [--queue N]
                      [--poll-ms N] [--no-seal] [--chunk-rows N]
                      [--chunks-per-group N] [--cluster true|false]
                      [--metrics] [--json] <out.ivns>
  ivnt stream follow --scenario syn|lig|sta [--seed S] [--signals a,b,..]
                      [--watermark-ms N] [--history-cap N] [--sax K]
                      [--poll-ms N] [--once] [--metrics] [--json]
                      <trace.ivns>
  ivnt cluster worker [--listen ADDR] [--once]
  ivnt cluster run   --scenario syn|lig|sta [--seed S] [--signals a,b,..]
                      (--workers A,B,.. | --local N) [--heartbeat-ms N]
                      [--timeout-ms N] [--retries N] [--tasks N]
                      [--checkpoint PATH] [--straggler-factor F]
                      [--csv out.csv] [--verify] [--metrics] [--json]
                      <trace.ivns>
  ivnt dbc     <file.dbc> [--bus NAME]

RULE SOURCES (run, extract, query):
  --rules authored   rebuild tables from the scenario network (default)
  --rules inferred   recover packing tables from raw payloads (ivnt-infer;
                     no DBC or --scenario knowledge needed)
  --rules merged     authored tables + inferred rules for unclaimed regions
  --rules FILE.dbc   parse tables from a DBC file ([--bus NAME])
  `infer` prints the synthesized table itself: per-signal start bit,
  width, byte order, constant/counter/sensor class and confidence.

MULTI-QUERY:
  `query` answers N domain queries from ONE store pass (`ivnt-plan`):
  predicates merge into a union zone-map scan, signal-disjoint windowless
  batches share the vectorized interpret kernel, and each answer is
  bit-identical to a solo session. `store compact` rewrites micro-batched
  (append-mode) stores into full-size row groups, contents unchanged.

TRACE FILES:
  Every trace is an `.ivns` store: `record` simulates one, `store ingest`
  imports a raw-trace CSV, `stream ingest` appends live frames. `run` is
  the full Algorithm 1 (state representation); `extract` stops at the
  interpreted signals K_s and reports the zone-map scan. Both read the
  store directly, so chunks the domain cannot match are never decoded.

SHARED FLAGS (run, extract, query):
  --workers N   cap the per-signal fan-out executor
  --serial      force the sequential reference path
  --timing      print the per-stage busy/wall timing table (run)
  --metrics     print an ivnt-obs snapshot of the run (Prometheus text)
  --json        machine-readable output; with --metrics, the snapshot
                is embedded as JSON

  `cluster run` also accepts --metrics/--json; there --workers is the
  worker ADDRESS LIST and the snapshot merges coordinator and workers.

STREAMING:
  `stream ingest` appends micro-batched, checksummed row groups; a killed
  writer loses at most the unflushed tail and `store info` still indexes
  the file. Frames move from source to writer in batches; `--queue N`
  (default 1024) bounds the rows in flight, and a batch that would exceed
  it waits (counted once per blocked hand-off as a backpressure wait).
  Lines longer than 64 KiB are rejected. `stream follow` tails such a store through the incremental
  pipeline; on a sealed stream its concatenated output is bit-identical
  to the batch `run` over the same records. Frame-line stdin format:
  `<timestamp_us> <bus> <message_id> <payload_hex|-> [can|canfd|lin|someip]`
"
}
