//! Trace-file smoke test over the real binary: `record` writes an `.ivns`
//! store that `inspect`, `run` and `extract` read back, the parallel and
//! serial runs agree byte for byte, `run --timing` adds its span tree and
//! changes nothing else, `query` honours `--workers`, `--help` after a
//! command prints the usage, `stream follow` follows a recorded store
//! (and refuses one written before stores were framed), files that are
//! not stores fail with a typed `error:` line instead of a panic, a flag
//! the command does not read is refused by name, a reader that closes
//! early ends the output quietly, `inspect` prints `-` for the gap of a
//! stream seen once, and `stream ingest` counts its tail flush and keeps
//! the rows a failing source accepted.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const SCENARIO: [&str; 6] = ["--scenario", "syn", "--seed", "7", "--examples", "5000"];

fn ivnt(args: &[&str], file: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ivnt"))
        .args(args)
        .arg(file)
        .output()
        .expect("ivnt runs")
}

/// Runs `verb` with the scenario flags plus `extra` and returns stdout,
/// failing the test on a non-zero exit.
fn ivnt_ok(verb: &[&str], extra: &[&str], file: &Path) -> String {
    let args = [verb, &SCENARIO, extra].concat();
    let out = ivnt(&args, file);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?} failed\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `store info --json` of `file` (it reads no scenario flags).
fn store_info(file: &Path) -> String {
    let out = ivnt(&["store", "info", "--json"], file);
    assert!(out.status.success(), "store info: {out:?}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ivnt-trace-cli-{tag}-{}", std::process::id()))
}

#[test]
fn help_after_a_command_prints_the_usage() {
    let usage = Command::new(env!("CARGO_BIN_EXE_ivnt"))
        .arg("--help")
        .output()
        .expect("ivnt runs");
    assert!(usage.status.success());
    assert!(String::from_utf8_lossy(&usage.stdout).starts_with("ivnt — "));
    for command in ["run", "query"] {
        let out = Command::new(env!("CARGO_BIN_EXE_ivnt"))
            .args([command, "--help"])
            .output()
            .expect("ivnt runs");
        assert!(out.status.success(), "{command} --help: {out:?}");
        assert_eq!(out.stdout, usage.stdout, "{command} --help");
        assert!(out.stderr.is_empty(), "{command} --help: {out:?}");
    }
}

#[test]
fn record_inspect_run_extract_roundtrip() {
    let trace = temp_path("t.ivns");
    let (a, b) = (temp_path("a.csv"), temp_path("b.csv"));
    let (a_arg, b_arg) = (a.to_str().expect("utf-8"), b.to_str().expect("utf-8"));

    assert!(ivnt_ok(&["record"], &[], &trace).contains("records"));
    let out = ivnt(&["inspect"], &trace);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("top message streams"));

    let plain = ivnt_ok(&["run"], &["--state-csv", a_arg], &trace);
    ivnt_ok(&["run", "--serial"], &["--state-csv", b_arg], &trace);
    let parallel = std::fs::read(&a).expect("parallel csv");
    assert!(!parallel.is_empty());
    assert!(
        parallel == std::fs::read(&b).expect("serial csv"),
        "parallel and serial state CSVs differ"
    );

    // `--timing` prints the span tree between the signal list and the
    // rest, which stays byte-identical.
    let timed = ivnt_ok(&["run", "--timing"], &["--state-csv", a_arg], &trace);
    assert!(parallel == std::fs::read(&a).expect("timed csv"));
    let lines: Vec<&str> = timed.lines().collect();
    let start = (lines.iter())
        .position(|l| l.starts_with("stage timing"))
        .expect("timing block");
    let end = (lines[start + 1..].iter())
        .position(|l| !l.starts_with("  "))
        .map_or(lines.len(), |i| start + 1 + i);
    let rest = [&lines[..start - 1], &lines[end..]].concat();
    assert_eq!(
        rest.join("\n"),
        plain.trim_end(),
        "--timing changed other output"
    );
    let tree = &lines[start + 2..end];
    assert!(tree[0].starts_with("  run "), "{timed}");
    for (indent, stages) in [
        (
            4,
            &[
                "interpret",
                "split",
                "fan_out",
                "extend_gather",
                "merge",
                "state",
            ][..],
        ),
        (6, &["dedup", "reduce", "extend", "classify", "branch"][..]),
    ] {
        for stage in stages {
            let line = format!("{:indent$}{stage} ", "");
            assert!(
                tree.iter().any(|l| l.starts_with(&line)),
                "{stage}: {timed}"
            );
        }
    }

    // The JSON form: the same tree as a `timing` array, the only member
    // `--timing` adds; the stages under `run` sum to no more than `run`.
    let json = ivnt_ok(&["run"], &["--json"], &trace);
    let timed = ivnt_ok(&["run", "--timing"], &["--json"], &trace);
    let (head, timing) = timed
        .split_once(",\n  \"timing\": [")
        .expect("timing member");
    assert_eq!(format!("{head}\n}}\n"), json, "--timing changed other JSON");
    let spans = timing_entries(timing);
    assert_eq!((spans[0].0.as_str(), spans[0].1.as_str()), ("run", ""));
    let signals = json.matches("\"signal\": ").count() as u64;
    for (name, parent, count, _) in &spans {
        if parent == "fan_out" {
            assert_eq!(*count, signals, "{name}");
        }
    }
    let run = spans[0].3;
    let children: f64 = (spans.iter())
        .filter(|(_, parent, ..)| parent == "run")
        .map(|s| s.3)
        .sum();
    assert!(children <= run, "children {children} s exceed run {run} s");

    let json = ivnt_ok(&["extract"], &["--signals", "syn_s0000", "--json"], &trace);
    let skipped: u64 = json
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"chunks_skipped\": "))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
        .expect("chunks_skipped in extract --json");
    assert!(skipped > 0, "zone maps pruned nothing: {json}");

    for path in [&trace, &a, &b] {
        std::fs::remove_file(path).ok();
    }
}

/// `(span, parent, count, seconds)` per entry of a `timing` JSON array.
fn timing_entries(json: &str) -> Vec<(String, String, u64, f64)> {
    let mut entries = Vec::new();
    let (mut span, mut parent, mut count) = (String::new(), String::new(), 0);
    for line in json.lines().map(str::trim) {
        let value = |key: &str| {
            let v = line.strip_prefix(&format!("\"{key}\": "))?;
            Some(v.trim_end_matches(',').trim_matches('"').to_string())
        };
        if let Some(v) = value("span") {
            span = v;
        } else if let Some(v) = value("parent") {
            parent = v;
        } else if let Some(v) = value("count") {
            count = v.parse().expect("count");
        } else if let Some(v) = value("seconds") {
            let seconds = v.parse().expect("seconds");
            entries.push((span.clone(), parent.clone(), count, seconds));
        }
    }
    entries
}

#[test]
fn query_workers_flag_reaches_every_domain() {
    let trace = temp_path("query.ivns");
    ivnt_ok(&["record"], &[], &trace);
    // `pipeline_scatter_total` counts per-signal fan-outs through the
    // executor, which a 1-worker query skips.
    let scatters = |workers: &str| {
        let domains = [
            "--signal",
            "syn_s0000",
            "--domain",
            "pair=syn_s0001+syn_s0002",
        ];
        let flags = ["--workers", workers, "--metrics", "--json"];
        ivnt_ok(&["query"], &[&domains[..], &flags].concat(), &trace)
            .contains("\"pipeline_scatter_total\"")
    };
    assert!(!scatters("1"), "--workers 1 still scattered");
    assert!(scatters("2"), "--workers 2 did not scatter");
    std::fs::remove_file(&trace).ok();
}

/// The number after `"key": ` in a JSON document.
fn json_u64(json: &str, key: &str) -> u64 {
    let at = json.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect(key)
}

/// Rewrites the store at `framed` to `out` as stores were written before
/// every store was framed: the chunks back to back after the header, then
/// the footer and trailer.
fn unframe(framed: &Path, out: &Path) {
    use ivnt_store::layout::{checksum, encode_footer, END_MAGIC, MAGIC};
    let bytes = std::fs::read(framed).expect("read store");
    let reader = ivnt_store::StoreReader::open(framed).expect("open store");
    let mut footer = reader.footer().clone();
    let mut file = MAGIC.to_vec();
    for chunk in &mut footer.chunks {
        let at = chunk.offset as usize;
        chunk.offset = file.len() as u64;
        file.extend_from_slice(&bytes[at..at + chunk.len as usize]);
    }
    let footer_at = file.len() as u64;
    let footer_bytes = encode_footer(&footer).expect("encode footer");
    file.extend_from_slice(&footer_bytes);
    file.extend_from_slice(&footer_at.to_le_bytes());
    file.extend_from_slice(&(footer_bytes.len() as u64).to_le_bytes());
    file.extend_from_slice(&checksum(&footer_bytes).to_le_bytes());
    file.extend_from_slice(END_MAGIC);
    std::fs::write(out, file).expect("write unframed store");
}

#[test]
fn stream_follow_follows_a_recorded_store() {
    let trace = temp_path("follow.ivns");
    let layout = ["--chunk-rows", "256", "--chunks-per-group", "2"];
    ivnt_ok(&["record"], &layout, &trace);
    let info = store_info(&trace);
    let follow = ["--signals", "syn_s0000,syn_s0003", "--once", "--json"];
    let followed = ivnt_ok(&["stream", "follow"], &follow, &trace);
    assert!(json_u64(&info, "groups") > 1, "{info}");
    assert_eq!(
        json_u64(&followed, "groups"),
        json_u64(&info, "groups"),
        "{followed}"
    );
    assert!(json_u64(&followed, "rows_emitted") > 0, "{followed}");
    assert!(followed.contains("\"sealed\": true"), "{followed}");

    // A store without frames still reads, but cannot be followed.
    let unframed = temp_path("unframed.ivns");
    unframe(&trace, &unframed);
    let info = store_info(&unframed);
    assert!(info.contains("\"state\": \"sealed\""), "{info}");
    ivnt_ok(&["extract"], &["--signals", "syn_s0000"], &unframed);
    let args = [&["stream", "follow"][..], &SCENARIO, &follow].concat();
    let out = ivnt(&args, &unframed);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("without group frames"), "{stderr}");

    for path in [&trace, &unframed] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn non_store_files_fail_with_a_typed_error() {
    // The retired sequential format's header (5-byte magic, zero record
    // count), then plain garbage.
    let legacy = temp_path("legacy.ivns");
    let header = [b"IVNT".as_slice(), b"1", &0u64.to_le_bytes()].concat();
    std::fs::write(&legacy, header).expect("write legacy file");
    let garbage = temp_path("garbage.ivns");
    std::fs::write(&garbage, b"\x00\xffnot a trace at all\n").expect("write garbage file");

    for file in [&legacy, &garbage] {
        for verb in ["inspect", "run", "extract"] {
            let out = ivnt(&[verb], file);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{verb}: {stderr}");
            assert!(stderr.starts_with("error: "), "{verb}: {stderr}");
            assert!(!stderr.contains("panicked"), "{verb}: {stderr}");
        }
        std::fs::remove_file(file).ok();
    }
}

/// A communication matrix with a multiplexed message: `--rules FILE.dbc`
/// and `ivnt dbc` take its paged signals as presence-conditional rules.
const MUX_MATRIX: &str = r#"
VERSION "integration matrix"

BO_ 3 WiperStatus: 4 WiperEcu
 SG_ wpos : 0|16@1+ (0.5,0) [0|180] "deg" Body
 SG_ wvel : 16|16@1+ (1,0) [0|10] "rad/min" Body

BO_ 96 Diagnostics: 3 Gateway
 SG_ diag_page M : 0|8@1+ (1,0) [0|1] "" Tester
 SG_ oil_temp m0 : 8|16@1+ (0.1,-40) [-40|150] "C" Tester
 SG_ coolant_temp m1 : 8|16@1+ (0.1,-40) [-40|150] "C" Tester

BA_ "GenMsgCycleTime" BO_ 3 100;
"#;

#[test]
fn multiplexed_dbc_rules_load() {
    let matrix = temp_path("mux.dbc");
    std::fs::write(&matrix, MUX_MATRIX).expect("write dbc");
    let trace = temp_path("mux.ivns");
    ivnt_ok(&["record"], &[], &trace);

    let out = ivnt(&["dbc", "--bus", "PT"], &matrix);
    let listing = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "ivnt dbc failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(listing.contains("2 multiplexed"), "{listing}");
    assert!(listing.contains("when diag_page = 1"), "{listing}");

    let rules = matrix.to_str().expect("utf-8");
    ivnt_ok(&["extract"], &["--rules", rules, "--bus", "PT"], &trace);

    for path in [&matrix, &trace] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn unknown_flags_are_refused_by_name() {
    let trace = temp_path("flags.ivns");
    ivnt_ok(&["record"], &[], &trace);
    for (args, flag) in [
        (&["extract", "--signal", "x"][..], "--signal"),
        (&["stream", "follow", "--sax", "5"][..], "--sax"),
    ] {
        let out = ivnt(args, &trace);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{args:?}: {stderr}"
        );
        assert!(
            stderr.contains("USAGE:"),
            "{args:?} prints the usage: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
    // The flags a command does read still pass.
    ivnt_ok(&["extract"], &["--signals", "syn_s0010", "--json"], &trace);
    std::fs::remove_file(&trace).ok();
}

#[test]
fn a_reader_closing_early_ends_the_output_quietly() {
    let trace = temp_path("pipe.ivns");
    ivnt_ok(&["record"], &[], &trace);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ivnt"))
        .args(["extract", "--scenario", "syn", "--seed", "7", "--json"])
        .arg(&trace)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ivnt runs");
    // The reader is gone before the first line is written.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("ivnt exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panicked: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(&trace).ok();
}

#[test]
fn inspect_prints_no_gap_for_a_stream_seen_once() {
    let csv = temp_path("once.csv");
    let store = temp_path("once.ivns");
    let rows = "t,l,b_id,m_id,m_info\n0.5,0102,FC,3,CAN\n0.6,0102,FC,4,CAN\n0.7,0304,FC,3,CAN\n";
    std::fs::write(&csv, rows).expect("write csv");
    let from = csv.to_str().expect("utf-8 path");
    let out = ivnt(&["store", "ingest", "--from", from], &store);
    assert!(out.status.success(), "store ingest: {out:?}");
    let out = ivnt(&["inspect"], &store);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&store).ok();
    assert!(out.status.success(), "inspect: {out:?}");
    assert!(!stdout.contains("NaN"), "{stdout}");
    let once = stdout
        .lines()
        .find(|l| l.split_whitespace().next() == Some("4"))
        .expect("the m_id 4 stream");
    assert_eq!(once.split_whitespace().nth(3), Some("-"), "{stdout}");
    let twice = stdout
        .lines()
        .find(|l| l.split_whitespace().next() == Some("3"))
        .expect("the m_id 3 stream");
    assert_eq!(twice.split_whitespace().nth(3), Some("200.0ms"), "{stdout}");
}

#[test]
fn stream_ingest_counts_the_tail_flush() {
    let store = temp_path("tail.ivns");
    let args = [
        "stream",
        "ingest",
        "--scenario",
        "syn",
        "--seed",
        "7",
        "--frames",
        "5000",
        "--flush-rows",
        "1024",
        "--metrics",
    ];
    let out = ivnt(&args, &store);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    std::fs::remove_file(&store).ok();
    assert!(out.status.success(), "{out:?}");
    assert!(stdout.contains("5000 frames in 5 groups"), "{stdout}");
    assert!(stdout.contains("flush latency over 5 flushes"), "{stdout}");
    assert!(
        stdout.lines().any(|l| l == "stream_groups_flushed_total 5"),
        "{stdout}"
    );
}

#[test]
fn a_failing_stdin_source_keeps_the_frames_before_it() {
    let store = temp_path("bad-line.ivns");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ivnt"))
        .args(["stream", "ingest", "--stdin"])
        .arg(&store)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ivnt runs");
    let lines = "1000 BUS-A 291 0102030405060708 can\n\
                 2000 BUS-A 291 1112131415161718 can\n\
                 3000 BUS-B 292 1112131415161718 can\n\
                 bad line\n";
    let mut stdin = child.stdin.take().expect("stdin");
    stdin.write_all(lines.as_bytes()).expect("write lines");
    drop(stdin);
    let out = child.wait_with_output().expect("ivnt exits");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let info = store_info(&store);
    std::fs::remove_file(&store).ok();
    assert_eq!(json_u64(&info, "rows"), 3, "{info}");
    assert!(info.contains("\"state\": \"appendable\""), "{info}");
}
