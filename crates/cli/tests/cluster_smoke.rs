//! Loopback cluster smoke test over the real binary: a coordinator and
//! two subprocess workers, one of which is killed mid-task, must still
//! produce a result bit-identical to the single-process extraction
//! (`--verify` runs that comparison inside the coordinator process).

use std::path::PathBuf;
use std::process::Command;

fn ivnt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ivnt"))
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ivnt-cli-smoke-{tag}-{}", std::process::id()))
}

#[test]
fn local_cluster_survives_a_killed_worker_bit_identically() {
    let store = temp_path("kill.ivns");

    let record = ivnt()
        .args([
            "record",
            "--scenario",
            "syn",
            "--seed",
            "7",
            "--chunk-rows",
            "256",
            "--chunks-per-group",
            "2",
        ])
        .arg(&store)
        .output()
        .expect("record runs");
    assert!(
        record.status.success(),
        "record failed: {}",
        String::from_utf8_lossy(&record.stderr)
    );

    let run = ivnt()
        .args([
            "cluster",
            "run",
            "--scenario",
            "syn",
            "--seed",
            "7",
            "--local",
            "2",
            "--verify",
            "--heartbeat-ms",
            "25",
            "--timeout-ms",
            "500",
        ])
        .arg(&store)
        .env("IVNT_CLUSTER_FAULT_LOCAL", "0:kill-mid-task")
        .output()
        .expect("cluster run executes");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        run.status.success(),
        "cluster run failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stdout.contains("verify: bit-identical to single-process extraction"),
        "missing verify line in: {stdout}"
    );
    assert!(
        stdout.contains("1 workers lost"),
        "the killed worker went unnoticed in: {stdout}"
    );
    assert!(
        !stdout.contains(" 0 retries"),
        "the kill must force at least one retry in: {stdout}"
    );

    std::fs::remove_file(&store).ok();
}

#[test]
fn store_info_json_is_machine_readable() {
    let store = temp_path("info.ivns");
    let record = ivnt()
        .args(["record", "--scenario", "syn", "--seed", "3"])
        .arg(&store)
        .output()
        .expect("record runs");
    assert!(record.status.success());

    let info = ivnt()
        .args(["store", "info", "--json"])
        .arg(&store)
        .output()
        .expect("info runs");
    assert!(info.status.success());
    let json = String::from_utf8_lossy(&info.stdout);
    // Not a JSON parser, but enough to catch the format regressing into
    // the human layout: document shape plus the per-chunk keys.
    assert!(json.trim_start().starts_with('{'));
    assert!(json.trim_end().ends_with('}'));
    for key in [
        "\"rows\"",
        "\"groups\"",
        "\"group_rows\"",
        "\"clustered\"",
        "\"buses\"",
        "\"chunks\"",
        "\"min_t_us\"",
        "\"max_mid\"",
        "\"checksum\"",
    ] {
        assert!(json.contains(key), "missing {key} in: {json}");
    }

    std::fs::remove_file(&store).ok();
}
