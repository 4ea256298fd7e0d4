//! Parallel experiment driver.
//!
//! Virtual time is single-threaded by design — one event loop per
//! [`Runtime`] keeps the simulation bit-for-bit deterministic. Sweeps
//! are not: the 16 `exp_*` experiments and intra-experiment config
//! sweeps are independent simulations, so the driver fans them across
//! cores with `std::thread::scope` (no external dependencies) and
//! merges results back in submission order. The merge is index-stable:
//! result `i` always lands in slot `i` no matter which worker finishes
//! first, so parallel output is byte-identical to a serial run.
//!
//! The driver also measures simulator throughput (events/sec of the
//! executor's event loop on a rack-scale stress batch) and emits a
//! machine-readable `BENCH_disagg.json` so successive PRs accumulate a
//! performance trajectory.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use disagg_core::obs::{
    chrome_trace, folded_stacks, render_critical_paths, validate_chrome_trace, FullObserver,
    ObserverSlot,
};
use disagg_core::prelude::{RecoveryPolicy, RunReport, Runtime, RuntimeConfig};
use disagg_dataflow::job::JobSpec;
use disagg_dataflow::task::TaskId;
use disagg_dataflow::{JobBuilder, TaskSpec};
use disagg_hwsim::compute::WorkClass;
use disagg_hwsim::fault::{FaultInjector, FaultKind};
use disagg_hwsim::presets::{
    disaggregated_rack, hetero_storage_server, single_server, two_socket,
};
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;
use disagg_workloads::dbms::{query_job, DbmsConfig};
use disagg_workloads::hospital::{hospital_job, HospitalConfig};
use disagg_workloads::hpc::{stencil_job, HpcConfig};
use disagg_workloads::ml::{training_job, MlConfig};
use disagg_workloads::streaming::{windowed_job, StreamConfig};

use crate::exp;
use crate::exp::chaos::ChaosRow;
use crate::exp::chaos_serve::ChaosServeRecord;
use crate::exp::serving::ServingRecord;

/// Order-preserving parallel map: runs `f` over `items` on up to
/// `threads` workers and returns results in input order. `threads <= 1`
/// degenerates to a serial loop (the byte-identical reference path).
pub fn sweep<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = threads.min(n);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().unwrap().take().expect("claimed once");
                let r = f(item);
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

/// One experiment's outcome: rendered table plus its wall-clock.
#[derive(Debug, Clone)]
pub struct ExpResult {
    /// Experiment id ("table1", "fig4", ...).
    pub id: &'static str,
    /// The rendered ASCII table (deterministic; what gets printed).
    pub output: String,
    /// Host wall-clock the experiment took.
    pub wall: Duration,
}

/// Runs the experiment suite — all of it, or the ids in `only` — across
/// `threads` workers. Results come back in registry order regardless of
/// completion order.
pub fn run_experiments(only: &[String], quick: bool, threads: usize) -> Vec<ExpResult> {
    let suite: Vec<exp::Experiment> = exp::all()
        .into_iter()
        .filter(|(id, _)| only.is_empty() || only.iter().any(|o| o == id))
        .collect();
    sweep(suite, threads, |(id, runner)| {
        let t = Instant::now();
        let table = runner(quick);
        ExpResult { id, output: table.render(), wall: t.elapsed() }
    })
}

/// The rack-scale event-loop stress workload: `jobs` layered DAGs of
/// `layers`×`width` small tasks each, every non-source task depending
/// on two tasks of the previous layer.
pub fn stress_jobs(jobs: usize, layers: usize, width: usize) -> Vec<JobSpec> {
    (0..jobs)
        .map(|j| {
            let mut job = JobBuilder::new(format!("sweep{j}"));
            let mut prev: Vec<TaskId> = Vec::new();
            for l in 0..layers {
                let cur: Vec<_> = (0..width)
                    .map(|i| {
                        job.task(
                            TaskSpec::new(format!("t{l}_{i}"))
                                .work(WorkClass::Scalar, 10_000)
                                .output_bytes(4096),
                        )
                    })
                    .collect();
                for (i, &t) in cur.iter().enumerate() {
                    if l > 0 {
                        job.edge(prev[i % prev.len()], t);
                        job.edge(prev[(i + 1) % prev.len()], t);
                    }
                }
                prev = cur;
            }
            job.build().expect("stress job is a valid DAG")
        })
        .collect()
}

/// Simulator throughput on one stress configuration.
#[derive(Debug, Clone)]
pub struct Throughput {
    /// Configuration label, e.g. `"j8_l16_w16"`.
    pub name: String,
    /// Tasks executed.
    pub tasks: usize,
    /// Executor event-loop events processed.
    pub events: u64,
    /// Best wall-clock over the measurement repetitions.
    pub wall: Duration,
    /// Pool backing bytes the pass materialized
    /// (`MemoryPool::bytes_materialized`; exact per configuration).
    pub materialized: u64,
}

impl Throughput {
    /// The record of one timed pass: counts from its report, the pool
    /// counter from the runtime it ran on.
    fn of(name: String, run: &RunReport, wall: Duration, rt: &Runtime) -> Self {
        Throughput {
            name,
            tasks: run.tasks.len(),
            events: run.events,
            wall,
            materialized: rt.manager().pool().bytes_materialized(),
        }
    }

    /// Events per host second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64()
    }

    /// Tasks per host second.
    pub fn tasks_per_sec(&self) -> f64 {
        self.tasks as f64 / self.wall.as_secs_f64()
    }
}

/// Runs the stress batch once on the rack-scale preset.
pub fn stress_run(jobs: usize, layers: usize, width: usize) -> Throughput {
    let (topo, _rack) = disaggregated_rack(4, 16, 4, 256);
    let mut rt = Runtime::new(topo, RuntimeConfig::default());
    let batch = stress_jobs(jobs, layers, width);
    let t = Instant::now();
    let report = rt.execute(batch).expect("stress batch runs");
    let wall = t.elapsed();
    Throughput::of(format!("j{jobs}_l{layers}_w{width}"), &report, wall, &rt)
}

/// The fastest of `reps` passes (at least one).
fn best_of(reps: usize, pass: impl Fn() -> Throughput) -> Throughput {
    (0..reps.max(1)).map(|_| pass()).min_by_key(|t| t.wall).expect("at least one rep")
}

/// Best-of-`reps` throughput for one stress configuration.
pub fn measure_throughput(jobs: usize, layers: usize, width: usize, reps: usize) -> Throughput {
    best_of(reps, || stress_run(jobs, layers, width))
}

/// Pre-refactor (seed executor) tasks/sec on the same stress configs and
/// host class, captured before this PR's hot-path work landed. The event
/// sequence per workload is unchanged (bit-for-bit identical reports),
/// so tasks/sec ratios equal events/sec ratios.
pub const BASELINE_TASKS_PER_SEC: [(&str, f64); 3] = [
    ("j4_l8_w8", 142_951.0),
    ("j8_l16_w16", 116_836.0),
    ("j16_l24_w24", 79_527.0),
];

/// The stress configurations the driver measures (quick keeps only the
/// smallest).
pub fn throughput_suite(quick: bool) -> Vec<(usize, usize, usize)> {
    if quick {
        vec![(4, 8, 8)]
    } else {
        vec![(4, 8, 8), (8, 16, 16), (16, 24, 24)]
    }
}

/// A representative observed workload for one experiment id: the
/// topology, config, and jobs whose event stream stands in for the
/// experiment's behavior. Experiments construct their runtimes
/// internally (often many per sweep), so trace artifacts re-run one
/// matching workload with an observer attached instead of threading an
/// observer through every sweep point.
pub fn representative(id: &str, quick: bool) -> Option<(Topology, RuntimeConfig, Vec<JobSpec>)> {
    let config = RuntimeConfig::default();
    let dbms = || {
        query_job(DbmsConfig {
            tuples: if quick { 2_000 } else { 20_000 },
            probe_tuples: if quick { 1_000 } else { 10_000 },
            ..DbmsConfig::default()
        })
    };
    let some = |topo: Topology, jobs: Vec<JobSpec>| Some((topo, config.clone(), jobs));
    match id {
        // Static tables: a small pipeline on the plain server stands in.
        "table1" | "table2" | "table3" | "fig3" | "ablation" => {
            some(single_server().0, vec![dbms()])
        }
        // The CXL-pool rack of fig1 has no persistent tier, so the rack
        // representative is the fully disaggregated one.
        "fig1" => some(disaggregated_rack(4, 16, 4, 256).0, vec![dbms()]),
        "fig2" => some(
            single_server().0,
            vec![hospital_job(HospitalConfig {
                frames: if quick { 4 } else { 16 },
                ..HospitalConfig::default()
            })],
        ),
        // two_socket is DRAM-only, so the NUMA representative runs a
        // plain layered DAG (no persistent outputs to place).
        "numa" => some(two_socket().0, stress_jobs(1, 4, 4)),
        "fig4" | "hpc" => some(
            single_server().0,
            vec![stencil_job(HpcConfig {
                cells: if quick { 2_048 } else { 8_192 },
                ..HpcConfig::default()
            })],
        ),
        "naive" | "tiering" => some(hetero_storage_server().0, vec![dbms()]),
        "async" | "stream" => some(
            single_server().0,
            vec![windowed_job(StreamConfig {
                events: if quick { 4_000 } else { 20_000 },
                ..StreamConfig::default()
            })],
        ),
        "ftol" => some(
            disaggregated_rack(4, 16, 4, 256).0,
            vec![training_job(MlConfig {
                samples: if quick { 1_024 } else { 4_096 },
                ..MlConfig::default()
            })],
        ),
        "online" => some(
            disaggregated_rack(4, 16, 4, 256).0,
            stress_jobs(if quick { 2 } else { 4 }, 4, 4),
        ),
        // The chaos representative crashes a node halfway through the
        // fault-free makespan (probed first), so the observer sees the
        // detect → retry path.
        "chaos" => {
            let mut probe = Runtime::new(disaggregated_rack(4, 16, 4, 256).0, config.clone());
            let t = probe.execute(vec![dbms()]).expect("chaos probe run").makespan;
            let (topo, rack) = disaggregated_rack(4, 16, 4, 256);
            let mut faults = FaultInjector::none();
            faults.schedule(SimTime(t.0 / 2), FaultKind::NodeCrash(rack.nodes[0]));
            faults.schedule(SimTime(t.0 / 2 + t.0 / 4), FaultKind::NodeRecover(rack.nodes[0]));
            let recovery = RecoveryPolicy::default()
                .with_detection_delay(SimDuration(2_000))
                .with_backoff(SimDuration(1_000));
            Some((topo, config.with_faults(faults).with_recovery(recovery), vec![dbms()]))
        }
        _ => None,
    }
}

/// The observability artifacts of one representative run.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// Experiment id the run represents.
    pub id: String,
    /// Perfetto-loadable Chrome trace-event JSON (validated).
    pub chrome_trace: String,
    /// Metrics snapshot as JSON.
    pub metrics_json: String,
    /// Folded flamegraph stacks (`job;task;layer count`).
    pub folded: String,
    /// Rendered top-3 critical paths with per-layer attribution.
    pub critical_paths: String,
}

/// Runs the representative workload for `id` with a full observer
/// attached and returns its artifacts. The emitted Chrome trace is
/// round-trip validated before being returned; a validation failure is
/// a bug, so it errors rather than writing a broken file.
pub fn observed_artifacts(id: &str, quick: bool) -> Option<Result<Artifacts, String>> {
    let (topo, config, jobs) = representative(id, quick)?;
    let sink = Arc::new(Mutex::new(FullObserver::new()));
    let mut rt = Runtime::new(topo, config.with_observer(ObserverSlot::shared(sink.clone())));
    let report = match rt.execute(jobs) {
        Ok(r) => r,
        Err(e) => return Some(Err(format!("{id}: representative run failed: {e:?}"))),
    };
    let obs = sink.lock().expect("observer lock");
    let doc = chrome_trace(&obs.events, rt.topology());
    if let Err(e) = validate_chrome_trace(&doc) {
        return Some(Err(format!("{id}: emitted chrome trace is invalid: {e}")));
    }
    let metrics_json = report
        .metrics
        .as_ref()
        .map(|m| m.to_json())
        .unwrap_or_else(|| "{}".to_string());
    let (spans, paths) = report.critical_paths(3);
    Some(Ok(Artifacts {
        id: id.to_string(),
        chrome_trace: doc,
        metrics_json,
        folded: folded_stacks(&spans),
        critical_paths: render_critical_paths(&spans, &paths),
    }))
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Re-measures the chaos sweep for the benchmark record. Unlike the
/// rendered table, these rows carry raw virtual-time numbers; every
/// field is simulation-derived (no wall-clock), so the section is
/// byte-identical across runs.
pub fn chaos_record(quick: bool) -> Vec<ChaosRow> {
    exp::chaos::measure(quick)
}

/// Re-measures the serving sweep for the benchmark record. Like the
/// chaos section, every field is virtual-time-only, so the section is
/// byte-identical across runs.
pub fn serving_record(quick: bool) -> ServingRecord {
    exp::serving::measure(quick)
}

/// Re-measures the chaos-under-load sweep (fault-aware controls vs the
/// uncontrolled baseline) for the `serving.chaos` section. Virtual-time
/// only, byte-identical across runs.
pub fn chaos_serve_record(quick: bool) -> ChaosServeRecord {
    exp::chaos_serve::measure(quick)
}

/// Best-of-`reps` wall-clock throughput of one saturation-load serving
/// pass (the `serving_mix` record `scripts/bench_guard.sh` watches).
/// The virtual outputs are deterministic; only the wall-clock moves.
pub fn measure_serving_throughput(reps: usize, quick: bool) -> Throughput {
    let requests = if quick { 32 } else { 96 };
    let layer = exp::serving::templates();
    let cfg = exp::serving::saturated_config(requests);
    best_of(reps, || {
        let (topo, _rack) = disaggregated_rack(4, 8, 2, 32);
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        let t = Instant::now();
        let report = layer.run(&mut rt, &cfg).expect("serving throughput pass");
        let wall = t.elapsed();
        Throughput::of("serving_mix".into(), &report.run, wall, &rt)
    })
}

/// One traced saturation serving pass rendered as Perfetto documents:
/// the full trace (device lanes plus one request-span lane per tenant)
/// and the exemplar-only view (each tenant's p99 exemplar requests
/// broken into latency-component segments). Both documents are
/// validated before being returned, so callers never write a file
/// Perfetto would reject.
pub fn serving_trace_artifacts(quick: bool) -> Result<(String, String), String> {
    let requests = if quick { 32 } else { 96 };
    let layer = exp::serving::templates();
    let cfg = exp::serving::saturated_config(requests);
    let (topo, _rack) = disaggregated_rack(4, 8, 2, 32);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let report = layer
        .run(&mut rt, &cfg)
        .map_err(|e| format!("serving trace pass failed: {e}"))?;
    let doc = disagg_core::obs::serving_chrome_trace(
        rt.trace().events(),
        rt.topology(),
        &report.spans,
    );
    let stats = validate_chrome_trace(&doc).map_err(|e| format!("invalid serving trace: {e}"))?;
    if stats.request_spans != report.admitted {
        return Err(format!(
            "serving trace carries {} request spans for {} admitted requests",
            stats.request_spans, report.admitted
        ));
    }
    let exemplars = disagg_core::obs::exemplar_chrome_trace(&report.spans)
        .ok_or("serving pass produced no exemplar requests")?;
    validate_chrome_trace(&exemplars).map_err(|e| format!("invalid exemplar trace: {e}"))?;
    Ok((doc, exemplars))
}

/// Renders the machine-readable benchmark record (`BENCH_disagg.json`).
/// Hand-rolled JSON keeps the workspace dependency-free.
pub fn bench_json(
    experiments: &[ExpResult],
    throughputs: &[Throughput],
    chaos: &[ChaosRow],
    serving: Option<&ServingRecord>,
    chaos_serve: Option<&ChaosServeRecord>,
    quick: bool,
    threads: usize,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"disagg-bench-v1\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str("  \"throughput\": [\n");
    for (i, t) in throughputs.iter().enumerate() {
        let baseline = BASELINE_TASKS_PER_SEC
            .iter()
            .find(|(n, _)| *n == t.name)
            .map(|&(_, b)| b);
        let speedup = baseline.map(|b| t.tasks_per_sec() / b);
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"tasks\": {}, \"events\": {}, \"wall_s\": {:.6}, \
             \"events_per_sec\": {:.0}, \"tasks_per_sec\": {:.0}, \
             \"baseline_tasks_per_sec\": {}, \"speedup_vs_seed\": {}}}{}\n",
            json_escape(&t.name),
            t.tasks,
            t.events,
            t.wall.as_secs_f64(),
            t.events_per_sec(),
            t.tasks_per_sec(),
            baseline.map(|b| format!("{b:.0}")).unwrap_or_else(|| "null".into()),
            speedup.map(|s| format!("{s:.2}")).unwrap_or_else(|| "null".into()),
            if i + 1 < throughputs.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"experiments\": [\n");
    for (i, e) in experiments.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"wall_s\": {:.6}}}{}\n",
            json_escape(e.id),
            e.wall.as_secs_f64(),
            if i + 1 < experiments.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    // Virtual-time only — this section must be byte-identical between
    // runs (CI diffs it to police chaos-sweep determinism).
    out.push_str("  \"chaos\": [\n");
    for (i, r) in chaos.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"mttf\": \"{}\", \"makespan_ns\": {}, \
             \"baseline_ns\": {}, \"slowdown\": {:.4}, \"retries\": {}, \
             \"detected\": {}, \"reconstructs\": {}}}{}\n",
            json_escape(r.workload),
            json_escape(r.mttf),
            r.makespan.0,
            r.baseline.0,
            r.slowdown(),
            r.retries,
            r.detected,
            r.reconstructs,
            if i + 1 < chaos.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    // Virtual-time only, like the chaos section — CI diffs two runs of
    // this section to police serving determinism. The chaos-under-load
    // record nests inside it as `serving.chaos` (emitted alone when
    // only the chaos-serve sweep ran).
    match (serving, chaos_serve) {
        (None, None) => out.push_str("  \"serving\": null\n"),
        (None, Some(cs)) => {
            out.push_str("  \"serving\": {\n");
            push_serving_chaos(&mut out, cs);
            out.push_str("  }\n");
        }
        (Some(rec), cs) => {
            out.push_str("  \"serving\": {\n");
            out.push_str(&format!(
                "    \"tenants\": {}, \"requests\": {}, \"seed\": {},\n",
                rec.tenants, rec.requests, rec.seed
            ));
            out.push_str("    \"sweep\": [\n");
            for (i, r) in rec.sweep.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"load\": \"{}\", \"mean_gap_ns\": {}, \"offered\": {}, \
                     \"admitted\": {}, \"rejected\": {}, \"makespan_ns\": {}, \
                     \"p50_ns\": {}, \"p99_ns\": {}, \"peak_util\": {:.6}}}{}\n",
                    json_escape(r.load),
                    r.mean_gap.0,
                    r.offered,
                    r.admitted,
                    r.rejected,
                    r.makespan.0,
                    r.p50.0,
                    r.p99.0,
                    r.peak_util,
                    if i + 1 < rec.sweep.len() { "," } else { "" },
                ));
            }
            out.push_str("    ],\n");
            out.push_str(&format!(
                "    \"knee\": {{\"load\": \"{}\", \"mean_gap_ns\": {}, \"p99_ns\": {}}},\n",
                json_escape(rec.sweep[rec.knee].load),
                rec.sweep[rec.knee].mean_gap.0,
                rec.sweep[rec.knee].p99.0,
            ));
            out.push_str("    \"knee_tenants\": [\n");
            for (i, t) in rec.knee_tenants.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"tenant\": {}, \"offered\": {}, \"admitted\": {}, \
                     \"rejected\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"slo_met\": {}}}{}\n",
                    t.tenant,
                    t.offered,
                    t.admitted,
                    t.rejected,
                    t.p50.0,
                    t.p99.0,
                    t.slo_met,
                    if i + 1 < rec.knee_tenants.len() { "," } else { "" },
                ));
            }
            out.push_str("    ],\n");
            out.push_str("    \"util_curve\": [\n");
            for (i, (at, frac)) in rec.util_curve.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"at_ns\": {}, \"frac\": {:.6}}}{}\n",
                    at.0,
                    frac,
                    if i + 1 < rec.util_curve.len() { "," } else { "" },
                ));
            }
            out.push_str("    ],\n");
            // Request-centric tail attribution at the knee: per tenant,
            // the exact p99, the five-component breakdown (sums to the
            // tenant's total request time), exemplar request ids, and
            // the SLO burn curve. Virtual-time only, byte-identical
            // across runs.
            out.push_str("    \"tail_attribution\": [\n");
            for (i, ta) in rec.tail_attribution.iter().enumerate() {
                let a = &ta.total;
                let exemplars: Vec<String> =
                    ta.exemplars.iter().map(u64::to_string).collect();
                out.push_str(&format!(
                    "      {{\"tenant\": {}, \"requests\": {}, \"p99_ns\": {}, \
                     \"admission_ns\": {}, \"queue_ns\": {}, \"compute_ns\": {}, \
                     \"transfer_ns\": {}, \"recovery_ns\": {}, \"dominant\": \"{}\", \
                     \"exemplars\": [{}], \"burn\": [",
                    ta.tenant,
                    ta.requests,
                    ta.p99.0,
                    a.admission.0,
                    a.queue.0,
                    a.compute.0,
                    a.transfer.0,
                    a.recovery.0,
                    ta.dominant.name(),
                    exemplars.join(", "),
                ));
                let burn = rec
                    .burn
                    .iter()
                    .find(|b| b.tenant == ta.tenant)
                    .map(|b| b.windows.as_slice())
                    .unwrap_or(&[]);
                for (j, w) in burn.iter().enumerate() {
                    out.push_str(&format!(
                        "{}{{\"start_ns\": {}, \"end_ns\": {}, \"good\": {}, \"bad\": {}, \
                         \"rate\": {:.4}}}",
                        if j == 0 { "" } else { ", " },
                        w.start.0,
                        w.end.0,
                        w.good,
                        w.bad,
                        w.burn_rate(),
                    ));
                }
                out.push_str(&format!(
                    "]}}{}\n",
                    if i + 1 < rec.tail_attribution.len() { "," } else { "" },
                ));
            }
            out.push_str("    ],\n");
            match cs {
                None => out.push_str("    \"chaos\": null\n"),
                Some(cs) => push_serving_chaos(&mut out, cs),
            }
            out.push_str("  }\n");
        }
    }
    out.push_str("}\n");
    out
}

/// Emits the `serving.chaos` object body (the chaos-under-load sweep):
/// per (load, variant) row, admission/shed/degrade/fast-fail counts,
/// SLO goodput, breaker trips, the fault window, and burn
/// during/after with the measured recovery. All fields virtual-time.
fn push_serving_chaos(out: &mut String, rec: &ChaosServeRecord) {
    out.push_str("    \"chaos\": {\n");
    out.push_str(&format!(
        "      \"tenants\": {}, \"requests\": {}, \"seed\": {}, \"slo_p99_ns\": {},\n",
        rec.tenants, rec.requests, rec.seed, rec.slo_p99.0
    ));
    out.push_str("      \"rows\": [\n");
    for (i, r) in rec.rows.iter().enumerate() {
        out.push_str(&format!(
            "        {{\"load\": \"{}\", \"controls\": {}, \"mean_gap_ns\": {}, \
             \"offered\": {}, \"admitted\": {}, \"rejected\": {}, \"shed\": {}, \
             \"degraded\": {}, \"fast_failed\": {}, \"goodput\": {}, \"p99_ns\": {}, \
             \"makespan_ns\": {}, \"breaker_trips\": {}, \"fault_start_ns\": {}, \
             \"fault_end_ns\": {}, \"burn_during\": {:.4}, \"burn_after\": {:.4}, \
             \"recovered\": {}, \"recovery_ns\": {}}}{}\n",
            json_escape(r.load),
            r.controls,
            r.mean_gap.0,
            r.offered,
            r.admitted,
            r.rejected,
            r.shed,
            r.degraded,
            r.fast_failed,
            r.goodput,
            r.p99.0,
            r.makespan.0,
            r.breaker_trips,
            r.fault_start.0,
            r.fault_end.0,
            r.burn_during,
            r.burn_after,
            r.recovered,
            r.recovery.0,
            if i + 1 < rec.rows.len() { "," } else { "" },
        ));
    }
    out.push_str("      ]\n    }\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let doubled = sweep(items.clone(), 8, |i| i * 2);
        assert_eq!(doubled, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        let serial = sweep(items.clone(), 1, |i| i * 2);
        assert_eq!(doubled, serial);
    }

    #[test]
    fn stress_batch_is_deterministic() {
        let a = stress_run(2, 3, 3);
        let b = stress_run(2, 3, 3);
        assert_eq!((a.tasks, a.events, a.materialized), (b.tasks, b.events, b.materialized));
        assert_eq!(a.tasks, 2 * 3 * 3, "every stress task executes");
        assert!(a.events >= a.tasks as u64, "at least one event per task");
    }

    #[test]
    fn bench_json_is_well_formed_enough() {
        let thru = vec![Throughput {
            name: "j4_l8_w8".into(),
            tasks: 256,
            events: 1024,
            wall: Duration::from_millis(2),
            materialized: 0,
        }];
        let exps = vec![ExpResult {
            id: "table1",
            output: String::new(),
            wall: Duration::from_millis(1),
        }];
        let chaos = vec![ChaosRow {
            workload: "dbms",
            mttf: "0.50T",
            makespan: SimDuration(3_000),
            baseline: SimDuration(2_000),
            retries: 2,
            detected: 1,
            reconstructs: 1,
        }];
        let serving = ServingRecord {
            tenants: 2,
            requests: 8,
            seed: 7,
            sweep: vec![crate::exp::serving::ServingRow {
                load: "1.00x",
                mean_gap: SimDuration(1_000),
                offered: 8,
                admitted: 7,
                rejected: 1,
                makespan: SimDuration(9_000),
                p50: SimDuration(2_000),
                p99: SimDuration(5_000),
                peak_util: 0.125,
            }],
            knee: 0,
            knee_tenants: vec![crate::exp::serving::TenantRow {
                tenant: 0,
                offered: 8,
                admitted: 7,
                rejected: 1,
                p50: SimDuration(2_000),
                p99: SimDuration(5_000),
                slo_met: true,
            }],
            util_curve: vec![(SimDuration::ZERO, 0.0), (SimDuration(4_500), 0.125)],
            tail_attribution: vec![disagg_obs::TenantAttribution {
                tenant: 0,
                requests: 7,
                total: disagg_obs::Attribution {
                    admission: SimDuration(100),
                    queue: SimDuration(5_000),
                    compute: SimDuration(3_000),
                    transfer: SimDuration(400),
                    recovery: SimDuration(0),
                },
                p99: SimDuration(5_000),
                exemplars: vec![3, 5],
                dominant: disagg_obs::SegmentKind::Queue,
            }],
            burn: vec![disagg_obs::TenantBurn {
                tenant: 0,
                windows: vec![disagg_obs::BurnWindow {
                    start: disagg_hwsim::time::SimTime(0),
                    end: disagg_hwsim::time::SimTime(4_500),
                    good: 6,
                    bad: 1,
                }],
            }],
        };
        let chaos_serve = crate::exp::chaos_serve::ChaosServeRecord {
            tenants: 2,
            requests: 8,
            seed: 7,
            slo_p99: SimDuration(16_000),
            rows: vec![crate::exp::chaos_serve::ChaosServeRow {
                load: "1.00x",
                mean_gap: SimDuration(1_000),
                controls: true,
                offered: 8,
                admitted: 6,
                rejected: 1,
                shed: 1,
                degraded: 2,
                fast_failed: 1,
                goodput: 5,
                p99: SimDuration(5_000),
                makespan: SimDuration(9_000),
                breaker_trips: 3,
                fault_start: disagg_hwsim::time::SimTime(2_000),
                fault_end: disagg_hwsim::time::SimTime(4_000),
                burn_during: 7.5,
                burn_after: 0.25,
                recovered: true,
                recovery: SimDuration(1_500),
            }],
        };
        let s = bench_json(
            &exps,
            &thru,
            &chaos,
            Some(&serving),
            Some(&chaos_serve),
            true,
            4,
        );
        assert!(s.contains("\"schema\": \"disagg-bench-v1\""));
        assert!(s.contains("\"serving\": {"));
        assert!(s.contains("\"knee\": {\"load\": \"1.00x\""));
        assert!(s.contains("\"tail_attribution\": ["));
        assert!(s.contains("\"dominant\": \"queue\""));
        assert!(s.contains("\"exemplars\": [3, 5]"));
        assert!(s.contains("\"rate\": 14.2857"), "1 bad of 7 burns ~14x the 1% budget");
        assert!(s.contains("\"peak_util\": 0.125000"));
        assert!(s.contains("\"slo_met\": true"));
        assert!(s.contains("\"chaos\": {"));
        assert!(s.contains("\"breaker_trips\": 3"));
        assert!(s.contains("\"burn_during\": 7.5000"));
        assert!(s.contains("\"recovered\": true"));
        assert!(s.contains("\"recovery_ns\": 1500"));
        let without = bench_json(&exps, &thru, &chaos, None, None, true, 4);
        assert!(without.contains("\"serving\": null"));
        assert_eq!(without.matches('{').count(), without.matches('}').count());
        let chaos_only = bench_json(
            &exps,
            &thru,
            &chaos,
            Some(&serving),
            None,
            true,
            4,
        );
        assert!(chaos_only.contains("\"chaos\": null"));
        assert_eq!(chaos_only.matches('{').count(), chaos_only.matches('}').count());
        assert!(s.contains("\"name\": \"j4_l8_w8\""));
        assert!(s.contains("\"speedup_vs_seed\""));
        assert!(s.contains("\"id\": \"table1\""));
        assert!(s.contains("\"workload\": \"dbms\""));
        assert!(s.contains("\"slowdown\": 1.5000"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }
}
