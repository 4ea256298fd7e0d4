//! `exp_driver` parses its flags strictly: a removed or misspelled flag
//! fails loudly instead of silently running the whole suite, `--help`
//! is cheap, and none of these invocations writes a file.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the driver in a fresh empty working directory and returns its
/// output plus what it left behind there.
fn run(tag: &str, args: &[&str]) -> (Output, Vec<PathBuf>) {
    let dir = std::env::temp_dir().join(format!("exp_driver_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_exp_driver"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn exp_driver");
    let left: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("list scratch dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (out, left)
}

fn assert_usage_error(tag: &str, args: &[&str], names: &str) {
    let (out, left) = run(tag, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2; stderr: {stderr}"
    );
    assert!(
        stderr.contains(names),
        "{args:?}: stderr must name {names:?}: {stderr}"
    );
    assert!(
        stderr.contains("usage: exp_driver"),
        "{args:?}: usage on stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?}: no experiment output");
    assert!(left.is_empty(), "{args:?} wrote {left:?}");
}

#[test]
fn removed_and_unknown_flags_fail_loudly() {
    assert_usage_error("shards", &["--shards", "4"], "--shards");
    assert_usage_error("scaling", &["--quick", "--no-scaling"], "--no-scaling");
    assert_usage_error("nojson", &["--no-json"], "--no-json");
    assert_usage_error("nothru", &["--quick", "--no-thru"], "--no-thru");
    assert_usage_error("thruonly", &["--thru-only"], "--thru-only");
    assert_usage_error("bogus", &["--bogus"], "--bogus");
}

#[test]
fn bad_and_missing_values_fail_loudly() {
    assert_usage_error("threads", &["--threads", "x"], "--threads");
    assert_usage_error("json", &["--json"], "--json");
    // One unknown id fails the whole list, even beside a known one.
    assert_usage_error("only", &["--quick", "--only", "table2,figg4"], "figg4");
    assert_usage_error("onlyall", &["--only", "no-such-exp"], "no-such-exp");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let (out, left) = run("help", &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: exp_driver"));
    assert!(left.is_empty(), "--help wrote {left:?}");
}

#[test]
fn record_is_written_only_when_asked() {
    let args = ["--quick", "--only", "table2"];
    let (out, left) = run("norecord", &args);
    assert_eq!(out.status.code(), Some(0));
    assert!(left.is_empty(), "a run without --json wrote {left:?}");

    let (out, left) = run("record", &[&args[..], &["--json", "rec.json"]].concat());
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(left.len(), 1, "exactly the requested record: {left:?}");
    assert!(left[0].ends_with("rec.json"));
}

#[test]
fn record_bearing_experiments_are_measured_once() {
    let ids = ["chaos", "serving", "chaos_serve"];
    let (out, _) = run("once", &["--quick", "--only", &ids.join(","), "--json", "rec.json"]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for id in ids {
        let runs = stderr.lines().filter(|l| l.split_whitespace().next() == Some(id)).count();
        assert_eq!(runs, 1, "{id} progress lines: {stderr}");
    }
}
