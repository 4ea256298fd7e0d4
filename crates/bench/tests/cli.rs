//! `exp_driver` parses its flags strictly: a removed or misspelled flag
//! fails loudly instead of silently running the whole suite, `--help`
//! is cheap, and it writes only the files it is asked for.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

use disagg_bench::{exp, Scenario};
use disagg_obs::json::{parse, Value};
use disagg_obs::validate_chrome_trace;

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
    // Each run's metrics sit beside its trace (`--trace-out`).
    assert_usage_error("metrics", &["--quick", "--metrics-out", "m.json"], "--metrics-out");
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
    let ids = ["chaos", "serving"];
    let (out, _) = run("once", &["--quick", "--only", &ids.join(","), "--json", "rec.json"]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for id in ids {
        let runs = stderr.lines().filter(|l| l.split_whitespace().next() == Some(id)).count();
        assert_eq!(runs, 1, "{id} progress lines: {stderr}");
    }
}

/// `--trace-out` writes one artifact set per run the experiments build,
/// named after the row the run feeds, and nothing for a run no
/// experiment built: every trace validates, and the exemplars of the
/// serving run the record's tail attribution reads are the record's.
#[test]
fn trace_out_writes_the_runs_the_experiments_build() {
    let dir = std::env::temp_dir().join(format!("exp_driver_cli_{}_traces", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_exp_driver"))
        .args(["--quick", "--only", "fig1,fig4,serving", "--trace-out", "traces"])
        .current_dir(&dir)
        .output()
        .expect("spawn exp_driver");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let traces = dir.join("traces");
    let written: BTreeSet<String> = std::fs::read_dir(&traces)
        .expect("the trace directory")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("a UTF-8 name"))
        .collect();

    let quick = Scenario { quick: true, ..Scenario::default() };
    let plan = exp::fig1::plan(&quick);
    let waves = plan.demands.len() / plan.servers;
    let record = exp::serving::measure(&quick);
    let mut runs: Vec<String> = ["compute-centric", "cxl-pool"]
        .iter()
        .flat_map(|arch| (0..waves).map(move |w| format!("fig1.{arch}.wave{w}")))
        .collect();
    for policy in ["transfer", "copy"] {
        runs.extend(["64KiB", "1024KiB", "16384KiB"].map(|b| format!("fig4.{policy}.{b}")));
    }
    runs.extend(record.rows.iter().map(|r| format!("serving.{}", r.label())));
    assert_eq!(runs.iter().collect::<BTreeSet<_>>().len(), runs.len(), "unique names: {runs:?}");
    let mut expected = BTreeSet::new();
    for run in &runs {
        for suffix in ["trace.json", "folded.txt", "critical.txt", "metrics.json"] {
            expected.insert(format!("{run}.{suffix}"));
        }
        if run.starts_with("serving.") {
            expected.insert(format!("{run}.exemplars.trace.json"));
        }
    }
    assert_eq!(written, expected, "one artifact set per run");

    let read = |name: &str| std::fs::read_to_string(traces.join(name)).expect("an artifact");
    for name in written.iter().filter(|n| n.ends_with(".trace.json")) {
        if let Err(e) = validate_chrome_trace(&read(name)) {
            panic!("{name}: {e}");
        }
    }
    let knee = &record.rows[record.knee_run()];
    let doc = parse(&read(&format!("serving.{}.exemplars.trace.json", knee.label()))).expect("JSON");
    let shown: BTreeSet<u64> = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents")
        .iter()
        .filter_map(|e| e.get("args")?.get("request")?.as_f64())
        .map(|id| id as u64)
        .collect();
    let exemplars: BTreeSet<u64> =
        record.tail_attribution.iter().flat_map(|t| t.exemplars.iter().copied()).collect();
    assert!(!exemplars.is_empty());
    assert_eq!(shown, exemplars, "the knee run's exemplars are the record's");
    let _ = std::fs::remove_dir_all(&dir);
}
