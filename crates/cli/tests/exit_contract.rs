//! The `skydiag` exit contract, checked on the real binary: a failing
//! command exits 2 on a usage error (bad arguments, an unknown
//! subcommand, mode or kind) and 1 on any other failure, prints nothing on
//! stdout, and reports one `skydiag: ...` line on stderr — a typed error,
//! never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn skydiag(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_skydiag"))
        .args(args)
        .output()
        .expect("the skydiag binary starts")
}

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skydiag-exit-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

fn path_str(path: &std::path::Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

/// Exit code of a usage error.
const USAGE: i32 = 2;
/// Exit code of every other failure.
const FAILURE: i32 = 1;

/// Asserts the failure half of the contract, with exit code `code`, and
/// returns stderr.
fn assert_clean_failure(out: &Output, code: i32, what: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "{what}: stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{what}: wrote to stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.starts_with("skydiag: "), "{what}: stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{what}: stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    stderr
}

#[test]
fn query_on_a_missing_file_fails_cleanly() {
    let missing = scratch("missing").join("absent.skyd");
    let out = skydiag(&["query", path_str(&missing), "--at", "12,81"]);
    let stderr = assert_clean_failure(&out, FAILURE, "missing file");
    assert!(stderr.contains("io error"), "{stderr}");
}

#[test]
fn query_on_a_bit_flipped_file_fails_cleanly() {
    let path = scratch("flipped").join("hotel.skyd");
    let built = skydiag(&["build", "hotel", "--out", path_str(&path)]);
    assert!(built.status.success(), "{built:?}");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let out = skydiag(&["query", path_str(&path), "--at", "12,81"]);
    let stderr = assert_clean_failure(&out, FAILURE, "bit-flipped file");
    assert!(stderr.contains("container error"), "{stderr}");
}

#[test]
fn query_on_a_saved_index_points_to_load() {
    let path = scratch("index").join("hotel.skd");
    let saved = skydiag(&["save", path_str(&path), "--data", "hotel"]);
    assert!(saved.status.success(), "{saved:?}");

    let out = skydiag(&["query", path_str(&path), "--at", "12,81"]);
    let stderr = assert_clean_failure(&out, FAILURE, "index container");
    assert!(stderr.contains("skydiag load"), "{stderr}");
}

#[test]
fn build_with_a_zero_band_order_fails_cleanly() {
    let path = scratch("zero-k").join("band.skyd");
    let out = skydiag(&[
        "build",
        "hotel",
        "--out",
        path_str(&path),
        "--kind",
        "skyband",
        "--k",
        "0",
    ]);
    let stderr = assert_clean_failure(&out, USAGE, "--k 0");
    assert!(stderr.contains("--k"), "{stderr}");
    assert!(!path.exists(), "nothing is written");
}

#[test]
fn load_on_a_missing_file_fails_cleanly() {
    let missing = scratch("load-missing").join("absent.skd");
    let out = skydiag(&["load", path_str(&missing)]);
    let stderr = assert_clean_failure(&out, FAILURE, "load of a missing file");
    assert!(stderr.contains("io error"), "{stderr}");
}

#[test]
fn mem_with_an_unknown_mode_fails_cleanly() {
    let out = skydiag(&["mem", "frobnicate"]);
    let stderr = assert_clean_failure(&out, USAGE, "unknown mem mode");
    assert!(stderr.contains("unknown mem mode"), "{stderr}");
}

#[test]
fn trace_build_with_an_unknown_kind_fails_cleanly() {
    let out_path = scratch("trace-kind").join("trace.json");
    let out = skydiag(&[
        "trace",
        "build",
        "--kind",
        "warp",
        "--out",
        path_str(&out_path),
    ]);
    let stderr = assert_clean_failure(&out, USAGE, "unknown trace kind");
    assert!(stderr.contains("unknown kind \"warp\""), "{stderr}");
    assert!(!out_path.exists(), "nothing is written");
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let out = skydiag(&["gen", "--bogus", "1"]);
    let stderr = assert_clean_failure(&out, USAGE, "unknown flag");
    assert!(stderr.contains("unknown flags: --bogus"), "{stderr}");
}

#[test]
fn an_unknown_subcommand_is_a_usage_error() {
    let out = skydiag(&["frobnicate"]);
    let stderr = assert_clean_failure(&out, USAGE, "unknown subcommand");
    assert!(
        stderr.contains("unknown subcommand \"frobnicate\""),
        "{stderr}"
    );
}
