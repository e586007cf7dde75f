//! Trace-file smoke test over the real binary: `record` writes an `.ivns`
//! store that `inspect`, `run` and `extract` read back, the parallel and
//! serial runs agree byte for byte, and files that are not stores fail
//! with a typed `error:` line instead of a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ivnt-trace-cli-{tag}-{}", std::process::id()))
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

    ivnt_ok(&["run"], &["--state-csv", a_arg], &trace);
    ivnt_ok(&["run", "--serial"], &["--state-csv", b_arg], &trace);
    let parallel = std::fs::read(&a).expect("parallel csv");
    assert!(!parallel.is_empty());
    assert!(
        parallel == std::fs::read(&b).expect("serial csv"),
        "parallel and serial state CSVs differ"
    );

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
