//! `seda_cli` argument and output contract outside the scenario paths:
//! `run` rejects a bad NPU or inference count with the usage message and
//! exit 2 instead of coercing it, and a closed stdout (a pipe whose
//! reader already exited, as in `seda_cli workloads | head -1`) is a
//! clean exit 0, not a panic.

use std::process::{Command, Output, Stdio};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_seda_cli"))
        .args(args)
        .output()
        .expect("spawn seda_cli")
}

fn assert_usage_error(args: &[&str]) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(
        stderr.contains("usage: seda_cli"),
        "{args:?}: stderr {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} must not report a run");
}

#[test]
fn run_rejects_zero_inferences() {
    assert_usage_error(&["run", "let", "edge", "SeDA", "0"]);
}

#[test]
fn run_rejects_a_non_numeric_inference_count() {
    assert_usage_error(&["run", "let", "edge", "SeDA", "three"]);
}

#[test]
fn run_rejects_an_unknown_npu() {
    assert_usage_error(&["run", "let", "cloud", "SeDA"]);
}

#[test]
fn run_accepts_well_formed_arguments() {
    let out = cli(&["run", "let", "server", "SeDA", "2"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().count(),
        2,
        "one line per inference: {stdout}"
    );
}

/// Runs `seda_cli` with a stdout pipe whose read end is closed before
/// the process starts, so its first write fails with EPIPE every time.
fn run_with_closed_stdout(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_seda_cli"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn seda_cli")
}

#[test]
fn closed_stdout_is_a_clean_exit() {
    for args in [&["workloads"][..], &["scenario", "list"], &["schemes"]] {
        let out = run_with_closed_stdout(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr}");
    }
}
