//! Trace exporters: Chrome trace-event JSON (Perfetto-loadable) and
//! folded flamegraph stacks.
//!
//! The Chrome trace gives every compute and memory device its own lane:
//! task executions become complete (`ph:"X"`) spans on compute lanes,
//! memory accesses and migrations become spans on memory lanes, and
//! alloc/free/ownership-transfer become instants. Timestamps are the
//! run's *virtual* nanoseconds rendered as microseconds (the trace-event
//! unit), formatted from integers so the output is bit-for-bit
//! deterministic. Load the file at `ui.perfetto.dev` or
//! `chrome://tracing`.
//!
//! Serving runs get a third process: [`serving_chrome_trace`] adds one
//! lane per *tenant* carrying that tenant's request spans (arrival →
//! last finish, with the five-way latency attribution in `args`), and
//! [`exemplar_chrome_trace`] exports only each tenant's p99 exemplar
//! requests with their per-segment breakdown — the "open the three
//! worst requests in Perfetto" workflow.
//!
//! [`validate_chrome_trace`] is the matching reader: it re-parses an
//! emitted document with [`crate::json`] and checks the structural
//! invariants (non-empty, named lanes, well-formed spans), so tests and
//! `exp_driver --trace-out` never write a file Perfetto would reject.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

use disagg_hwsim::device::AccessOp;
use disagg_hwsim::topology::Topology;
use disagg_hwsim::trace::TraceEvent;

use crate::analyze::TaskSpan;
use crate::json::{self, Value};
use crate::request::{tail_attribution, RequestSpan};

/// Perfetto "process" grouping the compute-device lanes.
const PID_COMPUTE: u32 = 1;
/// Perfetto "process" grouping the memory-device lanes.
const PID_MEM: u32 = 2;
/// Perfetto "process" grouping the per-tenant request lanes.
const PID_TENANT: u32 = 3;

/// Renders virtual nanoseconds as a microsecond literal with three
/// fractional digits — integer math, so deterministic.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn meta(out: &mut String, pid: u32, tid: u32, key: &str, name: &str) {
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{key}\",\"args\":{{\"name\":\"{}\"}}}}",
        json::escape(name)
    );
}

fn span(out: &mut String, pid: u32, tid: u32, name: &str, ts: u64, dur: u64, args: &str) {
    let _ = write!(
        out,
        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{}\",\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
        json::escape(name),
        us(ts),
        us(dur)
    );
}

fn instant(out: &mut String, pid: u32, tid: u32, name: &str, ts: u64, args: &str) {
    let _ = write!(
        out,
        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{}\",\"ts\":{},\"args\":{{{args}}}}}",
        json::escape(name),
        us(ts)
    );
}

fn wrap(parts: Vec<String>) -> String {
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
        parts.join(",\n")
    )
}

/// Renders an event stream as a Chrome trace-event JSON document with
/// one lane per device of `topo`.
pub fn chrome_trace(events: &[TraceEvent], topo: &Topology) -> String {
    wrap(device_parts(events, topo))
}

/// The device-lane entries shared by [`chrome_trace`] and
/// [`serving_chrome_trace`].
fn device_parts(events: &[TraceEvent], topo: &Topology) -> Vec<String> {
    let mut parts: Vec<String> = Vec::new();

    // Lane names first: process_name for the two groups, thread_name
    // per device.
    let mut m = String::new();
    meta(&mut m, PID_COMPUTE, 0, "process_name", "compute");
    parts.push(std::mem::take(&mut m));
    meta(&mut m, PID_MEM, 0, "process_name", "memory");
    parts.push(std::mem::take(&mut m));
    for (i, c) in topo.compute_devices().iter().enumerate() {
        meta(
            &mut m,
            PID_COMPUTE,
            i as u32,
            "thread_name",
            &format!("{}{}", c.kind.name(), i),
        );
        parts.push(std::mem::take(&mut m));
    }
    for (i, d) in topo.mem_devices().iter().enumerate() {
        meta(
            &mut m,
            PID_MEM,
            i as u32,
            "thread_name",
            &format!("{}{}", d.kind.name(), i),
        );
        parts.push(std::mem::take(&mut m));
    }

    // Task spans, one per attempt: a TaskStart joins the end of its
    // attempt, the TaskFinish or, for an attempt a fault abandoned, its
    // FaultDetected (an end may carry a future timestamp). A task's
    // attempts run one after another, so its n-th start pairs with its
    // n-th end.
    let mut ends: BTreeMap<(u64, u64), VecDeque<u64>> = BTreeMap::new();
    for e in events {
        if let TraceEvent::TaskFinish { job, task, at, .. }
        | TraceEvent::FaultDetected { job, task, at, .. } = *e
        {
            ends.entry((job, task)).or_default().push_back(at.as_nanos());
        }
    }

    for e in events {
        let mut s = String::new();
        match *e {
            TraceEvent::TaskStart { job, task, on, at } => {
                let start = at.as_nanos();
                let end = ends
                    .get_mut(&(job, task))
                    .and_then(VecDeque::pop_front)
                    .unwrap_or(start);
                span(
                    &mut s,
                    PID_COMPUTE,
                    on.0,
                    &format!("job{job}/task{task}"),
                    start,
                    end.saturating_sub(start),
                    &format!("\"job\":{job},\"task\":{task}"),
                );
            }
            TraceEvent::TaskDispatch { job, task, on, at, waited } => {
                let w = waited.as_nanos();
                if w > 0 {
                    span(
                        &mut s,
                        PID_COMPUTE,
                        on.0,
                        "queue-wait",
                        at.as_nanos() - w,
                        w,
                        &format!("\"job\":{job},\"task\":{task}"),
                    );
                }
            }
            TraceEvent::Access { region, dev, bytes, op, at, took } => {
                let name = match op {
                    AccessOp::Read => "read",
                    AccessOp::Write => "write",
                };
                span(
                    &mut s,
                    PID_MEM,
                    dev.0,
                    name,
                    at.as_nanos(),
                    took.as_nanos(),
                    &format!("\"region\":{region},\"bytes\":{bytes}"),
                );
            }
            TraceEvent::Migrate { region, from, to, bytes, at, took } => {
                // Show the copy on the destination lane (where the
                // bytes land), with the source in args.
                span(
                    &mut s,
                    PID_MEM,
                    to.0,
                    "migrate",
                    at.as_nanos(),
                    took.as_nanos(),
                    &format!("\"region\":{region},\"bytes\":{bytes},\"from\":{}", from.0),
                );
            }
            TraceEvent::Alloc { region, dev, bytes, at } => {
                instant(
                    &mut s,
                    PID_MEM,
                    dev.0,
                    "alloc",
                    at.as_nanos(),
                    &format!("\"region\":{region},\"bytes\":{bytes}"),
                );
            }
            TraceEvent::Free { region, dev, bytes, at } => {
                instant(
                    &mut s,
                    PID_MEM,
                    dev.0,
                    "free",
                    at.as_nanos(),
                    &format!("\"region\":{region},\"bytes\":{bytes}"),
                );
            }
            TraceEvent::OwnershipTransfer { region, from_task, to_task, bytes, at } => {
                // No device in the event — the whole point is that no
                // memory device did any work. Pin to lane 0.
                instant(
                    &mut s,
                    PID_MEM,
                    0,
                    "ownership-transfer",
                    at.as_nanos(),
                    &format!(
                        "\"region\":{region},\"bytes\":{bytes},\"from_task\":{from_task},\"to_task\":{to_task}"
                    ),
                );
            }
            TraceEvent::FaultDetected { job, task, on, at } => {
                instant(
                    &mut s,
                    PID_COMPUTE,
                    on.0,
                    "fault-detected",
                    at.as_nanos(),
                    &format!("\"job\":{job},\"task\":{task}"),
                );
            }
            TraceEvent::TaskRetry { job, task, from, to, attempt, at, lost } => {
                instant(
                    &mut s,
                    PID_COMPUTE,
                    to.0,
                    "task-retry",
                    at.as_nanos(),
                    &format!(
                        "\"job\":{job},\"task\":{task},\"from\":{},\"attempt\":{attempt},\"lost_ns\":{}",
                        from.0,
                        lost.as_nanos()
                    ),
                );
            }
            TraceEvent::Reconstruct { region, dev, bytes, at, took, .. } => {
                span(
                    &mut s,
                    PID_MEM,
                    dev.0,
                    "reconstruct",
                    at.as_nanos(),
                    took.as_nanos(),
                    &format!("\"region\":{region},\"bytes\":{bytes}"),
                );
            }
            TraceEvent::TaskFinish { .. }
            | TraceEvent::TaskQueued { .. }
            | TraceEvent::RequestTag { .. }
            // Breaker and serving-control events have no device lane in
            // the Chrome view; they surface via metrics and the CSV.
            | TraceEvent::BreakerTrip { .. }
            | TraceEvent::BreakerProbe { .. }
            | TraceEvent::BreakerClose { .. }
            | TraceEvent::RequestShed { .. }
            | TraceEvent::RequestDegraded { .. } => {}
        }
        if !s.is_empty() {
            parts.push(s);
        }
    }

    parts
}

/// Per-request attribution rendered as span args.
fn span_args(s: &RequestSpan) -> String {
    let a = &s.attribution;
    format!(
        "\"request\":{},\"tenant\":{},\"job\":{},\"latency_ns\":{},\"admission_ns\":{},\"queue_ns\":{},\"compute_ns\":{},\"transfer_ns\":{},\"recovery_ns\":{},\"dominant\":\"{}\"",
        s.request,
        s.tenant,
        s.job,
        s.latency().as_nanos(),
        a.admission.as_nanos(),
        a.queue.as_nanos(),
        a.compute.as_nanos(),
        a.transfer.as_nanos(),
        a.recovery.as_nanos(),
        a.dominant().name(),
    )
}

/// One lane per tenant, one complete span per request. With
/// `with_segments`, each request additionally carries its
/// single-component segments as child spans (they tile the request
/// span, so Perfetto nests them).
fn tenant_parts(spans: &[RequestSpan], with_segments: bool) -> Vec<String> {
    let mut parts: Vec<String> = Vec::new();
    let mut m = String::new();
    meta(&mut m, PID_TENANT, 0, "process_name", "serving");
    parts.push(std::mem::take(&mut m));
    let tenants: BTreeSet<u64> = spans.iter().map(|s| s.tenant).collect();
    for &t in &tenants {
        meta(&mut m, PID_TENANT, t as u32, "thread_name", &format!("tenant{t}"));
        parts.push(std::mem::take(&mut m));
    }
    for s in spans {
        let mut p = String::new();
        span(
            &mut p,
            PID_TENANT,
            s.tenant as u32,
            &format!("req{}", s.request),
            s.arrival.as_nanos(),
            s.latency().as_nanos(),
            &span_args(s),
        );
        parts.push(p);
        if with_segments {
            for seg in s.segments.iter().filter(|seg| !seg.is_empty()) {
                let mut p = String::new();
                let args = match seg.task {
                    Some(task) => format!("\"request\":{},\"task\":{task}", s.request),
                    None => format!("\"request\":{}", s.request),
                };
                span(
                    &mut p,
                    PID_TENANT,
                    s.tenant as u32,
                    seg.kind.name(),
                    seg.start.as_nanos(),
                    seg.len().as_nanos(),
                    &args,
                );
                parts.push(p);
            }
        }
    }
    parts
}

/// Renders a serving run: the full device-lane trace of
/// [`chrome_trace`] plus one lane per tenant carrying request spans
/// with their latency attribution in `args`. Load at `ui.perfetto.dev`
/// and correlate a slow request against the device lanes below it.
pub fn serving_chrome_trace(
    events: &[TraceEvent],
    topo: &Topology,
    spans: &[RequestSpan],
) -> String {
    let mut parts = device_parts(events, topo);
    parts.extend(tenant_parts(spans, false));
    wrap(parts)
}

/// Renders only each tenant's p99 exemplar requests (per
/// [`tail_attribution`]), each broken into its single-component
/// segments — a small document focused on *why* the tail was slow.
/// Returns `None` when there are no spans to export.
pub fn exemplar_chrome_trace(spans: &[RequestSpan]) -> Option<String> {
    let ids: BTreeSet<u64> = tail_attribution(spans)
        .into_iter()
        .flat_map(|t| t.exemplars)
        .collect();
    let exemplars: Vec<RequestSpan> = spans
        .iter()
        .filter(|s| ids.contains(&s.request))
        .cloned()
        .collect();
    if exemplars.is_empty() {
        return None;
    }
    Some(wrap(tenant_parts(&exemplars, true)))
}

/// What [`validate_chrome_trace`] learned about a document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeTraceStats {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// Complete (`ph:"X"`) spans on compute lanes (task executions and
    /// queue waits).
    pub task_spans: usize,
    /// Complete spans on memory lanes (accesses and migrations).
    pub mem_spans: usize,
    /// Complete spans on tenant lanes (request spans and their
    /// segments, from the serving exports).
    pub request_spans: usize,
    /// Named lanes (thread_name metadata entries).
    pub lanes: usize,
    /// Earliest span start, in virtual nanoseconds.
    pub first_ns: u64,
    /// Latest span end (`ts + dur`), in virtual nanoseconds.
    pub last_ns: u64,
}

/// Parses a Chrome trace-event document and checks the invariants the
/// exporter guarantees. Returns aggregate stats on success.
pub fn validate_chrome_trace(doc: &str) -> Result<ChromeTraceStats, String> {
    let v = json::parse(doc).map_err(|e| e.to_string())?;
    let events = v
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".to_string());
    }
    let mut stats = ChromeTraceStats { first_ns: u64::MAX, ..Default::default() };
    stats.events = events.len();
    for e in events {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or("event without ph")?;
        let pid = e
            .get("pid")
            .and_then(Value::as_f64)
            .ok_or("event without pid")? as u32;
        e.get("tid")
            .and_then(Value::as_f64)
            .ok_or("event without tid")?;
        e.get("name")
            .and_then(Value::as_str)
            .ok_or("event without name")?;
        match ph {
            "M" => {
                if e.get("name").and_then(Value::as_str) == Some("thread_name") {
                    if e.get("args").and_then(|a| a.get("name")).is_none() {
                        return Err("thread_name metadata without args.name".to_string());
                    }
                    stats.lanes += 1;
                }
            }
            "X" => {
                let ts = e.get("ts").and_then(Value::as_f64).ok_or("span without ts")?;
                let dur = e.get("dur").and_then(Value::as_f64).ok_or("span without dur")?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("negative span time: ts={ts} dur={dur}"));
                }
                let start = (ts * 1_000.0).round() as u64;
                let end = ((ts + dur) * 1_000.0).round() as u64;
                stats.first_ns = stats.first_ns.min(start);
                stats.last_ns = stats.last_ns.max(end);
                match pid {
                    PID_COMPUTE => stats.task_spans += 1,
                    PID_MEM => stats.mem_spans += 1,
                    PID_TENANT => stats.request_spans += 1,
                    other => return Err(format!("span in unknown process {other}")),
                }
            }
            "i" => {
                e.get("ts").and_then(Value::as_f64).ok_or("instant without ts")?;
            }
            other => return Err(format!("unexpected phase {other:?}")),
        }
    }
    if stats.lanes == 0 {
        return Err("no named lanes".to_string());
    }
    if stats.first_ns == u64::MAX {
        stats.first_ns = 0;
    }
    Ok(stats)
}

/// Renders task spans as folded flamegraph stacks
/// (`job;task;layer count`), one line per non-zero layer, duplicate
/// stacks summed — feed to `flamegraph.pl` or any FlameGraph viewer.
pub fn folded_stacks(spans: &[TaskSpan]) -> String {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        for (layer, d) in [
            ("compute", s.compute),
            ("mem_stall", s.mem_stall),
            ("runtime", s.runtime),
        ] {
            if d.as_nanos() > 0 {
                *folded
                    .entry(format!("job{};{};{layer}", s.job, s.name))
                    .or_default() += d.as_nanos();
            }
        }
    }
    let mut out = String::new();
    for (stack, count) in folded {
        let _ = writeln!(out, "{stack} {count}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::ids::{ComputeId, MemDeviceId};
    use disagg_hwsim::presets;
    use disagg_hwsim::time::{SimDuration, SimTime};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Alloc { region: 1, dev: MemDeviceId(0), bytes: 4096, at: SimTime(0) },
            TraceEvent::TaskQueued { job: 0, task: 0, on: ComputeId(0), at: SimTime(0) },
            TraceEvent::TaskDispatch {
                job: 0,
                task: 0,
                on: ComputeId(0),
                at: SimTime(100),
                waited: SimDuration(100),
            },
            TraceEvent::TaskStart { job: 0, task: 0, on: ComputeId(0), at: SimTime(100) },
            TraceEvent::TaskFinish { job: 0, task: 0, on: ComputeId(0), at: SimTime(1_600) },
            TraceEvent::Access {
                region: 1,
                dev: MemDeviceId(0),
                bytes: 4096,
                op: AccessOp::Read,
                at: SimTime(200),
                took: SimDuration(300),
            },
            TraceEvent::Migrate {
                region: 1,
                from: MemDeviceId(0),
                to: MemDeviceId(1),
                bytes: 4096,
                at: SimTime(700),
                took: SimDuration(400),
            },
            TraceEvent::OwnershipTransfer {
                region: 1,
                from_task: 0,
                to_task: 1,
                bytes: 4096,
                at: SimTime(1_200),
            },
            TraceEvent::Free { region: 1, dev: MemDeviceId(1), bytes: 4096, at: SimTime(1_700) },
        ]
    }

    #[test]
    fn chrome_trace_round_trips() {
        let (topo, _) = presets::single_server();
        let doc = chrome_trace(&sample_events(), &topo);
        let stats = validate_chrome_trace(&doc).expect("emitted trace must validate");
        let lanes = topo.compute_devices().len() + topo.mem_devices().len();
        assert_eq!(stats.lanes, lanes, "one lane per device");
        // task span + queue-wait span on compute; access + migrate on
        // memory.
        assert_eq!(stats.task_spans, 2);
        assert_eq!(stats.mem_spans, 2);
        assert_eq!(stats.first_ns, 0, "queue wait starts at t=0");
        assert_eq!(stats.last_ns, 1_600, "task span ends at finish");
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        let (topo, _) = presets::single_server();
        let events = sample_events();
        assert_eq!(chrome_trace(&events, &topo), chrome_trace(&events, &topo));
    }

    #[test]
    fn microsecond_rendering_is_integer_exact() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(3_001_495), "3001.495");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        // A span missing dur must be rejected.
        let bad = "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"t\",\"ts\":0}]}";
        assert!(validate_chrome_trace(bad).is_err());
    }

    fn serving_events() -> Vec<TraceEvent> {
        let mut events = sample_events();
        events.insert(
            0,
            TraceEvent::RequestTag { request: 9, tenant: 2, job: 0, at: SimTime(0) },
        );
        events
    }

    #[test]
    fn serving_trace_adds_one_lane_per_tenant() {
        let (topo, _) = presets::single_server();
        let events = serving_events();
        let spans = crate::request::assemble_request_spans(&events);
        assert_eq!(spans.len(), 1);
        let doc = serving_chrome_trace(&events, &topo, &spans);
        let stats = validate_chrome_trace(&doc).expect("serving trace must validate");
        let device_lanes = topo.compute_devices().len() + topo.mem_devices().len();
        assert_eq!(stats.lanes, device_lanes + 1, "one extra lane for tenant 2");
        assert_eq!(stats.request_spans, 1, "one request span");
        assert_eq!(stats.task_spans, 2, "device lanes still present");
        assert!(doc.contains("\"tenant2\""), "{doc}");
        assert!(doc.contains("\"dominant\""), "attribution rides in args");
        // Deterministic output.
        assert_eq!(doc, serving_chrome_trace(&events, &topo, &spans));
    }

    #[test]
    fn exemplar_trace_exports_only_tail_requests_with_segments() {
        let events = serving_events();
        let spans = crate::request::assemble_request_spans(&events);
        let doc = exemplar_chrome_trace(&spans).expect("one exemplar");
        let stats = validate_chrome_trace(&doc).expect("exemplar trace must validate");
        // The request span plus its component segments, nothing else.
        assert_eq!(stats.request_spans, 1 + spans[0].segments.len());
        assert_eq!(stats.task_spans, 0, "no device lanes in the exemplar view");
        assert!(doc.contains("req9"), "{doc}");
        assert!(exemplar_chrome_trace(&[]).is_none());
    }

    #[test]
    fn folded_stacks_sum_duplicates_and_skip_zero_layers() {
        let mk = |name: &str, compute: u64, stall: u64| TaskSpan {
            job: 0,
            task: 0,
            name: name.to_string(),
            lane: 0,
            start: SimTime(0),
            finish: SimTime(compute + stall),
            compute: SimDuration(compute),
            mem_stall: SimDuration(stall),
            runtime: SimDuration::ZERO,
        };
        let spans = vec![mk("scan", 100, 40), mk("scan", 50, 0), mk("join", 10, 0)];
        let folded = folded_stacks(&spans);
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"job0;scan;compute 150"), "{folded}");
        assert!(lines.contains(&"job0;scan;mem_stall 40"), "{folded}");
        assert!(lines.contains(&"job0;join;compute 10"), "{folded}");
        assert!(!folded.contains("runtime"), "zero layers omitted: {folded}");
    }
}
