//! CLI contract tests for the `experiments` gate pipeline, on the real
//! binary via Cargo's `CARGO_BIN_EXE_*` environment contract: a healthy
//! smoke run exits 0, a failed artifact write fails the run, and malformed
//! or removed flags exit 2. The bounds themselves are unit-tested on
//! synthetic records in `skyline_bench::gate`. E13 smoke is the cheapest
//! record-producing experiment (schedule-bound, a few seconds), so the
//! runs ride on it.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env_remove("SKYLINE_THREADS")
        .output()
        .expect("experiments binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn healthy_smoke_gate_exits_0_and_reports_slo_coverage() {
    let out = run(&["e13", "--profile", "smoke", "--gate"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    let summary = err
        .lines()
        .find(|l| l.starts_with("gate: ") && l.contains("checks honored by"))
        .unwrap_or_else(|| panic!("gate summary missing: {err}"));
    for row in ["parallel-regression", "slo-p99", "slo-p999"] {
        assert!(summary.contains(row), "{row} missing from {summary}");
    }
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("## E13"), "E13 table missing: {stdout}");
}

#[test]
fn unwritable_json_fails_a_healthy_gated_run() {
    let out = run(&[
        "e13",
        "--profile",
        "smoke",
        "--gate",
        "--json",
        "/nonexistent-experiments-gate-dir/records.json",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(
        err.contains(
            "gate violation: cannot write bench records to \
             /nonexistent-experiments-gate-dir/records.json"
        ),
        "artifact failure missing: {err}"
    );
    assert!(
        err.lines().any(|l| l == "1 gate violation(s)"),
        "the write failure is the only violation: {err}"
    );
}

#[test]
fn malformed_gate_flags_exit_2() {
    for args in [
        // The bounds are a fixed table: no flag overrides them.
        &["e11", "--gate-ratio", "2"][..],
        &["e11", "--gate-floor-ms", "5"][..],
        &["e11", "--efficiency-ratio", "1"][..],
        &["e13", "--slo-scale", "1"][..],
        &["--profile"][..],
        &["--profile", "huge"][..],
        &["--json"][..],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "args = {args:?}");
        let err = stderr(&out);
        assert!(err.contains("Usage: experiments"), "args = {args:?}: {err}");
    }
    let err = stderr(&run(&["--gate-floor-ms", "5"]));
    assert!(
        err.contains("unknown argument '--gate-floor-ms'"),
        "removed flags are unknown arguments: {err}"
    );
}
