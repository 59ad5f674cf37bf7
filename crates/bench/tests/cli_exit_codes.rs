//! End-to-end exit-code contract of `seda_cli` on the failure paths:
//! violated expectation blocks must exit 5 while still writing a valid
//! telemetry snapshot, budget-skipped points under `on_failure: "skip"`
//! must exit 4 while leaving a valid checkpoint journal, violated
//! serving ceilings must exit 5 while still writing the serving
//! snapshot, and `seda_cli stream` must exit 3 on a malformed stream
//! spec (an oversized payload included) and 4 on a tampered block with
//! the `seda-stream/v1` snapshot written before the nonzero exit. An
//! unwritable `--json` or `--telemetry` path exits 1 with a one-line
//! error, and `stream_bench` rejects a malformed flag with exit 2. Each
//! scenario-backed test spawns the real binary against a private
//! scenario registry under a temp directory (`SEDA_SCENARIOS`).

use std::path::{Path, PathBuf};
use std::process::Command;

/// A private scenario registry for one test, cleaned up on drop.
struct TempRegistry {
    dir: PathBuf,
}

impl TempRegistry {
    fn new(tag: &str, files: &[(&str, &str)]) -> Self {
        let dir = std::env::temp_dir().join(format!("seda-cli-exit-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp registry dir");
        for (name, json) in files {
            std::fs::write(dir.join(format!("{name}.json")), json).expect("scenario file");
        }
        Self { dir }
    }

    fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    fn cli(&self) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_seda_cli"));
        cmd.env("SEDA_SCENARIOS", &self.dir);
        cmd
    }
}

impl Drop for TempRegistry {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("expected artifact at {}: {e}", path.display()))
}

/// A scheme that provably adds traffic cannot stay under a 1.0001x
/// normalized-traffic ceiling: the run must exit 5 (expectations
/// violated) and still write the telemetry snapshot — CI archives it as
/// part of the failure artifact.
#[test]
fn violated_expect_block_exits_5_with_a_telemetry_snapshot() {
    let reg = TempRegistry::new(
        "expect",
        &[(
            "expect_fail",
            r#"{
              "name": "expect_fail",
              "title": "SGX traffic cannot be baseline-flat",
              "npus": ["edge"],
              "workloads": ["let"],
              "schemes": ["baseline", "SGX-64B"],
              "outputs": ["traffic"],
              "expect": {"scheme": "SGX-64B", "traffic_norm_max": 1.0001}
            }"#,
        )],
    );
    let telemetry = reg.path("telemetry.json");
    let out = reg
        .cli()
        .args([
            "--telemetry",
            telemetry.to_str().expect("utf-8 temp path"),
            "scenario",
            "run",
            "expect_fail",
        ])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(
        out.status.code(),
        Some(5),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("expectation(s) not met"),
        "stderr must name the violation:\n{stderr}"
    );
    let snapshot = read(&telemetry);
    assert!(
        snapshot.contains("\"seda-telemetry/v1\""),
        "telemetry snapshot must be schema-tagged even on failure:\n{snapshot}"
    );
}

/// A 1 ms point budget kills the single point; under `on_failure:
/// "skip"` the run degrades instead of aborting, exits 4 (point
/// failures), and the streamed checkpoint journal stays valid.
#[test]
fn budget_skipped_point_exits_4_with_a_valid_journal() {
    let reg = TempRegistry::new(
        "skip",
        &[(
            "budget_skip",
            r#"{
              "name": "budget_skip",
              "title": "one point, one impossible budget",
              "npus": ["server"],
              "workloads": [{"transformer_decode": {"context": 2048}}],
              "schemes": ["SGX-64B"],
              "outputs": ["traffic"],
              "on_failure": "skip",
              "point_budget_ms": 1
            }"#,
        )],
    );
    let journal = reg.path("journal.jsonl");
    let out = reg
        .cli()
        .args([
            "scenario",
            "run",
            "budget_skip",
            "--journal",
            journal.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(
        out.status.code(),
        Some(4),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let header = read(&journal);
    assert!(
        header.contains("\"seda-checkpoint/v1\""),
        "journal must carry the checkpoint schema:\n{header}"
    );
}

/// A serving ceiling no scheduler can meet must exit 5, and the
/// `seda-serve/v1` snapshot must still be written for the post-mortem.
#[test]
fn violated_serving_ceiling_exits_5_with_a_serving_snapshot() {
    let reg = TempRegistry::new(
        "serve",
        &[(
            "serve_impossible",
            r#"{
              "name": "serve_impossible",
              "title": "a picosecond SLA",
              "npus": ["edge"],
              "workloads": ["let"],
              "schemes": ["SeDA"],
              "outputs": ["traffic"],
              "serving": {
                "seed": 7,
                "scheduler": "fcfs",
                "arrival": {"open_loop": {"rate_rps": 2000.0, "requests": 40}},
                "tenants": [
                  {"name": "only", "workload": "let", "scheme": "SeDA"}
                ],
                "expect": [
                  {"tenant": "only", "p50_ms_max": 0.0000001}
                ]
              }
            }"#,
        )],
    );
    let snapshot_path = reg.path("serve.json");
    let out = reg
        .cli()
        .args([
            "serve",
            "serve_impossible",
            "--json",
            snapshot_path.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(
        out.status.code(),
        Some(5),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("serving expectation(s) not met"),
        "stderr must name the serving violation:\n{stderr}"
    );
    let snapshot = read(&snapshot_path);
    assert!(
        snapshot.contains("\"seda-serve/v1\""),
        "serving snapshot must be written before the nonzero exit:\n{snapshot}"
    );
}

/// A malformed stream spec — layer lengths that are not positive
/// multiples of the 64-byte protection block — must exit 3 with the
/// validation error on stderr, before any sealing happens.
#[test]
fn malformed_stream_spec_exits_3() {
    let out = Command::new(env!("CARGO_BIN_EXE_seda_cli"))
        .args(["stream", "let", "--lens", "128,100"])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("not a positive multiple"),
        "stderr must carry the spec validation error:\n{stderr}"
    );

    // An unknown model is a spec error too, not an internal one.
    let out = Command::new(env!("CARGO_BIN_EXE_seda_cli"))
        .args(["stream", "no-such-model"])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(out.status.code(), Some(3));
}

/// A tampered stream block must exit 4 with the typed rejection on
/// stderr — and the `seda-stream/v1` snapshot must already be on disk
/// when the process exits, recording the failure for CI to archive.
#[test]
fn tampered_stream_block_exits_4_with_a_snapshot() {
    let dir = std::env::temp_dir().join(format!("seda-cli-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp snapshot dir");
    let snapshot_path = dir.join("stream.json");
    let out = Command::new(env!("CARGO_BIN_EXE_seda_cli"))
        .args([
            "stream",
            "let",
            "--flip",
            "200",
            "--json",
            snapshot_path.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(
        out.status.code(),
        Some(4),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("stream rejected"),
        "stderr must carry the typed rejection:\n{stderr}"
    );
    let snapshot = read(&snapshot_path);
    assert!(
        snapshot.contains("\"seda-stream/v1\""),
        "stream snapshot must be schema-tagged:\n{snapshot}"
    );
    assert!(
        snapshot.contains("\"ok\": false"),
        "stream snapshot must record the rejection:\n{snapshot}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--flip` offset must name a byte of the sealed stream: one at or
/// past its end is a usage error (exit 2, like a non-numeric offset),
/// while the last byte is a real tamper (exit 4).
#[test]
fn out_of_range_flip_offset_exits_2() {
    // One 64-byte layer: the stream is the header plus a single frame.
    let len = seda_stream::header_len(1) + seda_stream::FRAME_BYTES;
    let flip = |offset: String| {
        Command::new(env!("CARGO_BIN_EXE_seda_cli"))
            .args(["stream", "let", "--lens", "64", "--flip", &offset])
            .output()
            .expect("seda_cli spawns")
    };
    for offset in [len.to_string(), (len + 1).to_string(), "x".to_owned()] {
        let out = flip(offset.clone());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--flip {offset}: {stderr}");
        assert!(stderr.contains("--flip wants a byte offset"), "{stderr}");
    }
    assert_eq!(flip((len - 1).to_string()).status.code(), Some(4));
}

/// An untampered stream provisions cleanly: exit 0 and a success
/// snapshot with a positive sustained throughput.
#[test]
fn clean_stream_exits_0_with_a_throughput_snapshot() {
    let dir = std::env::temp_dir().join(format!("seda-cli-stream-ok-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp snapshot dir");
    let snapshot_path = dir.join("stream.json");
    let out = Command::new(env!("CARGO_BIN_EXE_seda_cli"))
        .args([
            "stream",
            "let",
            "--json",
            snapshot_path.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let snapshot = read(&snapshot_path);
    assert!(snapshot.contains("\"ok\": true"), "{snapshot}");
    assert!(snapshot.contains("\"gbps_sustained\""), "{snapshot}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scenario without a serving block must be rejected with the spec
/// exit code, not a panic.
#[test]
fn serve_without_a_serving_block_exits_3() {
    let reg = TempRegistry::new(
        "noserve",
        &[(
            "plain",
            r#"{
              "name": "plain",
              "title": "no serving block",
              "npus": ["edge"],
              "workloads": ["let"],
              "schemes": ["baseline"],
              "outputs": ["traffic"]
            }"#,
        )],
    );
    let out = reg
        .cli()
        .args(["serve", "plain"])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(out.status.code(), Some(3));
}

/// A payload past `seda_stream::MAX_PAYLOAD_BYTES` is a spec error
/// (exit 3) raised before anything is allocated: the geometries here
/// would abort the process if sealing ever tried to hold them.
#[test]
fn oversized_stream_payload_exits_3() {
    for lens in [
        "4611686018427387904",
        "9223372036854775808,9223372036854775808",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_seda_cli"))
            .args(["stream", "let", "--lens", lens])
            .output()
            .expect("seda_cli spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "--lens {lens}: {stderr}");
        assert!(stderr.contains("payload cap"), "--lens {lens}: {stderr}");
    }
}

/// An output path in a directory that does not exist ends the run with
/// exit 1 and one `error: cannot write <path>: ...` line, not a panic.
#[test]
fn unwritable_output_paths_exit_1() {
    let missing = std::env::temp_dir()
        .join(format!("seda-cli-missing-{}", std::process::id()))
        .join("out.json");
    let path = missing.to_str().expect("utf-8 temp path");
    for args in [
        vec!["stream", "let", "--lens", "64", "--json", path],
        vec!["--telemetry", path, "workloads"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_seda_cli"))
            .args(&args)
            .output()
            .expect("seda_cli spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
        assert!(
            errors[0].starts_with(&format!("error: cannot write {path}: ")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// `stream_bench` answers a missing or malformed flag value, or an
/// unknown model, with its usage line and exit 2, before any work and
/// without writing a record.
#[test]
fn stream_bench_rejects_malformed_flags_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("seda-stream-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp record dir");
    let record = dir.join("BENCH_stream.json");
    let record = record.to_str().expect("utf-8 temp path");
    for flags in [
        &["--min-gbps", "abc"][..],
        &["--min-gbps", "NaN"],
        &["--min-gbps", "-1"],
        &["--min-gbps"],
        &["--layers", "x"],
        &["--layers", "-3"],
        &["--layers", "1000000000000"],
        &["--layers"],
        &["--model"],
        &["--model", "no-such-model"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_stream_bench"))
            .arg(record)
            .args(flags)
            .output()
            .expect("stream_bench spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(
            stderr.contains("usage: stream_bench"),
            "{flags:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flags:?} must not run the bench");
    }
    assert!(!Path::new(record).exists(), "no record is written");
    let _ = std::fs::remove_dir_all(&dir);
}
