//! End-to-end observability round-trips: real runs through the public
//! facade, exported as Chrome traces / folded stacks / critical paths,
//! and validated structurally. Pins the acceptance criteria for the
//! observability PR: traces parse and nest within the makespan, the
//! diamond's critical path is the known longest chain, and the sink's
//! metrics snapshot agrees with the run report.

use std::sync::{Arc, Mutex};

use disagg::obs::{chrome_trace, folded_stacks, validate_chrome_trace};
use disagg::prelude::*;

/// Quickstart producer/consumer on the single-server preset, run with a
/// streaming [`FullObserver`] attached.
fn observed_quickstart() -> (Runtime, RunReport, Arc<Mutex<FullObserver>>) {
    let (topo, _ids) = presets::single_server();
    let sink = Arc::new(Mutex::new(FullObserver::new()));
    let mut rt = Runtime::new(
        topo,
        RuntimeConfig::default().with_observer(ObserverSlot::shared(sink.clone())),
    );
    let mut job = JobBuilder::new("quickstart");
    let produce = job.task(
        TaskSpec::new("produce")
            .work(WorkClass::Vector, 100_000)
            .output_bytes(1 << 20)
            .body(|ctx| {
                let chunk = [7u8; 4096];
                for i in 0..256 {
                    ctx.write_output(i * 4096, &chunk)?;
                }
                Ok(())
            }),
    );
    let consume = job.task(
        TaskSpec::new("consume")
            .work(WorkClass::Scalar, 100_000)
            .body(|ctx| {
                let mut buf = vec![0u8; 1 << 20];
                ctx.read_input(0, &mut buf)?;
                Ok(())
            }),
    );
    job.edge(produce, consume);
    let report = rt.execute(job.build().unwrap()).unwrap();
    (rt, report, sink)
}

#[test]
fn chrome_trace_round_trips_and_nests_within_makespan() {
    let (rt, report, sink) = observed_quickstart();
    let obs = sink.lock().unwrap();
    let doc = chrome_trace(&obs.events, rt.topology());
    let stats = validate_chrome_trace(&doc).expect("emitted trace must parse");

    let lanes = rt.topology().compute_devices().len() + rt.topology().mem_devices().len();
    assert_eq!(stats.lanes, lanes, "one lane per compute/memory device");
    assert_eq!(
        stats.task_spans,
        report.tasks.len(),
        "one complete span per executed task"
    );
    assert!(stats.mem_spans > 0, "the 1 MiB handover shows up on a memory lane");
    assert!(
        stats.last_ns <= report.makespan.as_nanos(),
        "spans nest within the makespan: {} > {}",
        stats.last_ns,
        report.makespan.as_nanos()
    );

    // Deterministic export: same events, same bytes.
    assert_eq!(doc, chrome_trace(&obs.events, rt.topology()));
}

#[test]
fn diamond_critical_path_is_the_heavy_chain() {
    // A diamond where the right branch does 4x the work of the left:
    // the longest chain is source -> right -> sink, by construction.
    let (topo, _ids) = presets::single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::default());
    let mut job = JobBuilder::new("diamond");
    let mk = |name: &str, work: u64| {
        TaskSpec::new(name)
            .work(WorkClass::Scalar, work)
            .output_bytes(4096)
            .body(move |ctx| {
                ctx.compute(WorkClass::Scalar, work);
                ctx.write_output(0, &[1u8; 4096])?;
                Ok(())
            })
    };
    let source = job.task(mk("source", 100_000));
    let left = job.task(mk("left", 100_000));
    let right = job.task(mk("right", 400_000));
    let sink = job.task(mk("sink", 100_000));
    job.edge(source, left);
    job.edge(source, right);
    job.edge(left, sink);
    job.edge(right, sink);
    let report = rt.execute(job.build().unwrap()).unwrap();

    let (spans, paths) = report.critical_paths(2);
    assert!(!paths.is_empty(), "a path exists");
    let names: Vec<&str> = paths[0].spans.iter().map(|&i| spans[i].name.as_str()).collect();
    assert_eq!(names, ["source", "right", "sink"], "heavy chain wins");
    assert!(
        paths[0].total.as_nanos() <= report.makespan.as_nanos(),
        "critical path fits inside the makespan"
    );

    let folded = folded_stacks(&spans);
    assert!(folded.contains(";right;"), "flamegraph carries the heavy task");
}

#[test]
fn metrics_snapshot_agrees_with_the_run_report() {
    let (_rt, report, sink) = observed_quickstart();
    // The metrics live in the sink the caller holds, not in the report.
    let snap = sink.lock().unwrap().registry.snapshot();

    let tasks = report.tasks.len() as u64;
    assert_eq!(snap.counter("events.task_start"), tasks);
    assert_eq!(snap.counter("events.task_finish"), tasks);
    assert_eq!(snap.counter("events.transfer"), report.ownership_transfers);
    assert!(snap.counter("bytes.moved") > 0, "data movement was metered");
    assert!(
        snap.histogram("queue_wait_ns").is_some(),
        "queue-wait histogram is registered"
    );

    // Virtual-time determinism: a second identical run snapshots
    // byte-identically.
    let (_rt2, _report2, sink2) = observed_quickstart();
    assert_eq!(sink2.lock().unwrap().registry.snapshot().to_json(), snap.to_json());
}
