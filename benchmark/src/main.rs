//! One end-to-end + per-layer benchmark for the `run` / `store` / `query` /
//! `stream` / `cluster` tiers. See `README.md` for the workloads, the
//! metrics and what each is for; `run.sh` builds and starts this binary.
//!
//! The process plays one of four parts:
//!
//! * **parent** (default): prepares the inputs for `--seed` once, then runs
//!   each workload in a child process, checks and prints what it reports,
//!   and writes `out/result.json`;
//! * **child** (`__child`): sets one workload up and measures it;
//! * **worker** (`__worker`): the standing cluster worker of `cluster.w1`;
//! * **compare** (`--compare A B`): applies the bounds to two result files.

mod compare;
mod jobs;
mod json;
mod layers;
mod measure;
mod metrics;
mod oracle;
mod stats;
mod trace;
mod workload;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use workload::Workload;

pub type Error = Box<dyn std::error::Error>;

/// Argument that turns the binary into a measuring child.
const CHILD_ARG: &str = "__child";

/// Which of a workload's two runs the parent starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tracing {
    /// `--trace 0` (default): the untraced run, end-to-end metrics.
    Off,
    /// `--trace 1`: the traced run, per-layer metrics.
    On,
    /// bare `--trace`: both, untraced first.
    Both,
}

impl Tracing {
    /// The child runs to start, as their `traced` flags.
    fn passes(self) -> &'static [bool] {
        match self {
            Tracing::Off => &[false],
            Tracing::On => &[true],
            Tracing::Both => &[false, true],
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    /// `--workload` was given: print the contract's one-line result last.
    single: bool,
    seed: u64,
    seconds: f64,
    tracing: Tracing,
    runs: u64,
    out: Option<PathBuf>,
}

const USAGE: &str = "\
usage: run.sh [--seed S] [--runs N] [--seconds T] [--trace] [--out FILE]
       run.sh --workload NAME --seed S --seconds T --trace 0|1
       run.sh --compare A.json B.json
workloads: journey.mem journey.store journey.wide fleet.cold live.ingest cluster.w1";

fn parse_args(argv: &[String]) -> Result<Args, Error> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        single: false,
        seed: 0,
        seconds: 10.0,
        tracing: Tracing::Off,
        runs: 1,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let w = Workload::from_name(name)
                    .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
                args.workloads = vec![w];
                args.single = true;
            }
            "--seed" => args.seed = value("--seed")?.parse()?,
            "--seconds" => args.seconds = value("--seconds")?.parse()?,
            "--runs" => args.runs = value("--runs")?.parse()?,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--trace" => {
                args.tracing = match it.peek().map(|s| s.as_str()) {
                    Some("0") => Tracing::Off,
                    Some("1") => Tracing::On,
                    _ => Tracing::Both,
                };
                if args.tracing != Tracing::Both {
                    it.next();
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}").into()),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) || args.runs == 0 {
        return Err(format!("--seconds and --runs must be positive\n{USAGE}").into());
    }
    Ok(args)
}

/// The `benchmark/` directory: `run.sh` exports it; from a bare
/// `cargo run` it is the manifest's directory.
fn bench_dir() -> PathBuf {
    std::env::var_os("IVNT_BENCHMARK_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn load_bounds() -> Result<Vec<compare::Bound>, Error> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    compare::bounds(&Json::parse(&text)?).ok_or_else(|| "BENCHMARK.json: bad end_to_end".into())
}

/// A prepared-input directory, removed when the run is over.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload in a child process and returns its record.
fn run_child(dir: &Path, workload: Workload, seconds: f64, traced: bool) -> Result<Json, Error> {
    let output = Command::new(std::env::current_exe()?)
        .arg(CHILD_ARG)
        .arg(dir)
        .arg(workload.name())
        .arg(seconds.to_string())
        .arg(if traced { "1" } else { "0" })
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(format!("{}: child exited with {}", workload.name(), output.status).into());
    }
    let stdout = String::from_utf8(output.stdout)?;
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    Ok(Json::parse(line)?)
}

fn field(record: &Json, key: &str) -> f64 {
    record.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn detail(record: &Json, key: &str) -> Option<f64> {
    record.get("detail")?.get(key)?.as_f64()
}

/// Prints one record: every metric by name with value, unit, sample count
/// and bound, then the supporting numbers.
fn print_record(record: &Json, bounds: &[compare::Bound]) {
    let workload = record.get("workload").and_then(Json::as_str).unwrap_or("?");
    let traced = field(record, "trace") == 1.0;
    let n = detail(record, "n").unwrap_or(0.0);
    println!(
        "\n== {workload}  seed {}  {}  jobs {} attempted / {} failed  {}",
        field(record, "seed"),
        if traced { "traced" } else { "untraced" },
        field(record, "attempted"),
        field(record, "failed"),
        if record.get("correct").and_then(Json::as_bool) == Some(true) {
            "correct"
        } else {
            "INCORRECT"
        },
    );
    let shares = record.get("detail").and_then(|d| d.get("shares"));
    for (name, m) in record.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = field(m, "value");
        if traced && value == 0.0 {
            continue; // a layer this workload never enters
        }
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        // Set-up ran three times, memory peaks once; the rest is per job.
        let n = match name.as_str() {
            "setup_s" => detail(record, "setup_n").unwrap_or(0.0),
            "peak_rss_mb" => 1.0,
            _ => n,
        };
        let mut line = format!("  {name:<36} {value:>16.6} {unit:<6} n={n}");
        if let Some(b) = bounds.iter().find(|b| b.metric == *name) {
            line.push_str(&format!("  bound {:.0} %", b.bound * 100.0));
        }
        let layer = name.strip_suffix(".busy_s");
        if let Some(share) = layer.and_then(|l| shares?.get(l)?.as_f64()) {
            line.push_str(&format!("  share {:.1} %", share * 100.0));
        }
        println!("{line}");
    }
    if traced {
        println!(
            "  base job_s {:.6} s (untraced, n={}); counts repeat: {}",
            detail(record, "base_job_s").unwrap_or(f64::NAN),
            detail(record, "base_n").unwrap_or(0.0),
            record
                .get("detail")
                .and_then(|d| d.get("counts_repeat"))
                .and_then(Json::as_bool)
                .unwrap_or(false),
        );
        return;
    }
    let mut line = format!(
        "  job_s quartiles {:.6} / {:.6} s",
        detail(record, "job_s_q1").unwrap_or(f64::NAN),
        detail(record, "job_s_q3").unwrap_or(f64::NAN),
    );
    match detail(record, "tail_percentile") {
        Some(p) => line.push_str(&format!(
            "; p{p} {:.6} s",
            detail(record, "job_s_tail").unwrap_or(f64::NAN)
        )),
        None => line.push_str("; no tail percentile (fewer than 10 samples beyond any)"),
    }
    println!(
        "{line}; rows_per_s {:.0}",
        detail(record, "rows_per_s").unwrap_or(f64::NAN)
    );
    if let Some(tax) = detail(record, "cluster_tax") {
        println!(
            "  cluster_tax {tax:.3} = job_s / single-process extract {:.6} s (base); worker peak rss {:.1} MiB",
            detail(record, "extract_s").unwrap_or(f64::NAN),
            detail(record, "worker_rss_mb").unwrap_or(f64::NAN),
        );
    }
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn contract_line(record: &Json) -> Json {
    Json::Obj(
        ["correct", "attempted", "failed", "metrics"]
            .iter()
            .map(|k| (k.to_string(), record.get(k).cloned().unwrap_or(Json::Null)))
            .collect(),
    )
}

fn parent(args: &Args) -> Result<ExitCode, Error> {
    // Bounds are decoration here: a run outside the repo still measures.
    let bounds = load_bounds().unwrap_or_default();
    let dir = bench_dir();
    let mut records = Vec::new();
    for run in 0..args.runs {
        let seed = args.seed + run;
        let scratch = Scratch(dir.join(format!("scratch/{}-seed{seed}", std::process::id())));
        let meta = workload::prepare(&scratch.0, seed, &args.workloads)?;
        println!(
            "prepared seed {seed}: {} rows per journey, J fnv {:016x}, S fnv {:016x}, \
             narrow {:.2} % / wide {:.2} % of rows, prepare_s {:.3}",
            meta.rows,
            meta.journey_fnv,
            meta.syn_fnv,
            meta.narrow_fraction * 100.0,
            meta.wide_fraction * 100.0,
            meta.prepare_s,
        );
        for &workload in &args.workloads {
            for &traced in args.tracing.passes() {
                let record = run_child(&scratch.0, workload, args.seconds, traced)?;
                print_record(&record, &bounds);
                records.push(record);
            }
        }
    }

    let all_correct = records
        .iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    let attempted: f64 = records.iter().map(|r| field(r, "attempted")).sum();
    let failed: f64 = records.iter().map(|r| field(r, "failed")).sum();
    let last = records.last().map(contract_line);
    let result = Json::obj([
        ("schema", Json::count(1)),
        ("runs", Json::Arr(records)),
        ("fail_ratio", Json::Num(failed / attempted.max(1.0))),
        ("claim", Json::Null),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| dir.join("out/result.json"));
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&out, result.pretty())?;
    println!(
        "\nwrote {}: fail_ratio {} ({failed} of {attempted} jobs); \"claim\": null",
        out.display(),
        failed / attempted.max(1.0),
    );
    if let (true, Some(line)) = (args.single, last) {
        println!("{line}");
    }
    std::io::stdout().flush()?;
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn child(argv: &[String], started: Instant) -> Result<(), Error> {
    let [dir, workload, seconds, traced] = argv else {
        return Err("child: expected <dir> <workload> <seconds> <0|1>".into());
    };
    let dir = Path::new(dir);
    let workload = Workload::from_name(workload).ok_or("child: unknown workload")?;
    let seconds: f64 = seconds.parse()?;
    ivnt_frame::exec::set_default_workers(workload::WORKERS);
    let record = if traced == "1" {
        measure::run_traced(workload, dir, seconds, &bench_dir().join("out"))?
    } else {
        measure::run_untraced(workload, dir, seconds, started)?
    };
    println!("{record}");
    Ok(())
}

fn worker() -> Result<(), Error> {
    ivnt_frame::exec::set_default_workers(workload::WORKERS);
    let server = ivnt_cluster::WorkerServer::bind("127.0.0.1:0")?;
    println!("{}{}", ivnt_cluster::LISTEN_PREFIX, server.local_addr()?);
    std::io::stdout().flush()?;
    server.serve()?;
    Ok(())
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, Error> {
    let bounds = load_bounds()?;
    let read = |p: &str| -> Result<Json, Error> {
        Ok(Json::parse(
            &std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?,
        )?)
    };
    let rows = compare::compare(&read(a)?, &read(b)?, &bounds)?;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "spread", "bound", "runs"
    );
    for r in &rows {
        println!(
            "{:<14} {:<14} {:>14.6} {:>14.6} {:>8.4} {:>7.2}% {:>6.1}% {:>3}/{:<3} {}  (base A = {:.6} {})",
            r.workload,
            r.metric,
            r.base,
            r.other,
            r.ratio,
            r.spread * 100.0,
            r.bound * 100.0,
            r.runs.0,
            r.runs.1,
            r.verdict.label(),
            r.base,
            r.unit,
        );
    }
    let code = compare::exit_code(&rows);
    println!(
        "{} rows: {}",
        rows.len(),
        match code {
            0 => "all ok",
            1 => "at least one worse",
            _ => "nothing worse, at least one unresolved",
        }
    );
    Ok(ExitCode::from(code as u8))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some(jobs::WORKER_ARG) => worker().map(|()| ExitCode::SUCCESS),
        Some(CHILD_ARG) => child(&argv[1..], started).map(|()| ExitCode::SUCCESS),
        Some("--compare") => match &argv[1..] {
            [a, b] => compare_files(a, b),
            _ => Err(USAGE.into()),
        },
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => parse_args(&argv).and_then(|args| parent(&args)),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
