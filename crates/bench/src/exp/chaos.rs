//! E16 — chaos sweep: makespan under injected faults vs. a fault-free
//! baseline, across an MTTF sweep and three workloads.
//!
//! Each sweep point runs the same job on the same rack with a
//! deterministic fault plan derived from the fault-free makespan `T`:
//! node crash/recover pairs spaced `MTTF` apart (rotating through the
//! compute nodes, each repaired after `MTTF/4`), one corruption burst on
//! the first pool blade, and one degraded-fabric window at quarter
//! bandwidth. Everything — fault times, detection, backoff, re-placement
//! — is virtual time, so two runs of the sweep are byte-identical.

use disagg_core::prelude::{Runtime, RuntimeConfig};
use disagg_core::RecoveryPolicy;
use disagg_dataflow::job::JobId;
use disagg_hwsim::fault::{FaultInjector, FaultKind};
use disagg_hwsim::presets::{disaggregated_rack, Rack};
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;
use disagg_hwsim::trace::TraceEvent;

use crate::apps::App;
use crate::{fmt_dur, Fragment, Scenario, Shape, Table};

/// One (workload, MTTF) sweep point.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Workload label ("dbms", "ml", "stream").
    pub workload: &'static str,
    /// MTTF label relative to the fault-free makespan ("none", "1.00T", ...).
    pub mttf: &'static str,
    /// Makespan of this run (faulty or baseline).
    pub makespan: SimDuration,
    /// Fault-free makespan of the same workload.
    pub baseline: SimDuration,
    /// Task retries the recovery loop performed.
    pub retries: u64,
    /// Faults the runtime detected mid-task.
    pub detected: u64,
    /// Online reconstructions (corrupt reads healed + re-replications).
    pub reconstructs: u64,
    /// Whether the run's final output, decoded, equals the workload's
    /// own reference.
    pub output_matches: bool,
}

impl ChaosRow {
    /// Makespan relative to the fault-free run.
    pub fn slowdown(&self) -> f64 {
        self.makespan.as_nanos_f64() / self.baseline.as_nanos_f64()
    }
}

/// The `chaos` section of the benchmark record: the sweep points with
/// their raw virtual-time numbers (the table rounds them).
fn fragment(rows: &[ChaosRow]) -> Fragment {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"mttf\": \"{}\", \"makespan_ns\": {}, \
                 \"baseline_ns\": {}, \"slowdown\": {:.4}, \"retries\": {}, \
                 \"detected\": {}, \"reconstructs\": {}}}",
                r.workload,
                r.mttf,
                r.makespan.0,
                r.baseline.0,
                r.slowdown(),
                r.retries,
                r.detected,
                r.reconstructs,
            )
        })
        .collect();
    Fragment { members: format!("\"chaos\": [\n{}\n  ]", rows.join(",\n")) }
}

/// The sweep's workloads.
const APPS: [App; 3] = [App::Dbms, App::Ml, App::Stream];

/// MTTF levels as (label, divisor): `mttf = baseline / divisor`.
fn levels(scenario: &Scenario) -> &'static [(&'static str, u64)] {
    if scenario.quick {
        &[("0.50T", 2)]
    } else {
        &[("1.00T", 1), ("0.50T", 2), ("0.25T", 4)]
    }
}

/// The recovery policy every sweep point runs with: a real (non-oracle)
/// detector, exponential backoff, and a bounded per-task retry cap.
fn policy() -> RecoveryPolicy {
    RecoveryPolicy::default()
        .with_max_retries(8)
        .with_detection_delay(SimDuration(2_000))
        .with_backoff(SimDuration(1_000))
}

/// Builds the deterministic fault plan for one sweep point: rotating
/// node crash/recover pairs every `mttf` out to twice the fault-free
/// horizon, one corruption burst, one quarter-bandwidth fabric window.
fn chaos_plan(topo: &Topology, rack: &Rack, baseline: SimDuration, mttf: SimDuration) -> FaultInjector {
    let mut f = FaultInjector::none();
    let repair = SimDuration(mttf.0 / 4);
    let mut k = 1u64;
    while k.saturating_mul(mttf.0) < baseline.0.saturating_mul(2) {
        let at = SimTime(k * mttf.0);
        let node = rack.nodes[(k as usize - 1) % rack.nodes.len()];
        f.schedule(at, FaultKind::NodeCrash(node));
        f.schedule(at + repair, FaultKind::NodeRecover(node));
        k += 1;
    }
    // Silent corruption bursts, early enough that the workload still
    // reads through them and pays the online reconstruction. Local DRAM
    // is where declarative placement puts the hot regions; the pool
    // blade covers spill/far-memory placements.
    for dev in [rack.drams[0], rack.pool[0]] {
        f.schedule(SimTime(mttf.0 / 3), FaultKind::Corrupt { dev, offset: 0, len: 4 << 20 });
    }
    // A degraded-fabric window on the CPU→pool bottleneck link.
    if let Some(link) = topo.path(rack.cpus[0], rack.pool[0]).and_then(|p| p.bottleneck_link) {
        f.schedule(SimTime(mttf.0 / 2), FaultKind::LinkDegraded { link, factor_pct: 25 });
        f.schedule(SimTime(mttf.0 / 2 + mttf.0 / 4), FaultKind::LinkUp(link));
    }
    f
}

fn run_once(app: App, scenario: &Scenario, faults: FaultInjector) -> ChaosRow {
    let (topo, _rack) = disaggregated_rack(4, 16, 4, 256);
    let config = RuntimeConfig::traced().with_faults(faults).with_recovery(policy());
    let mut rt = Runtime::new(topo, config);
    let report = rt
        .execute(app.job(scenario))
        .expect("chaos sweep point completes within its retry cap");
    let (mut retries, mut detected, mut reconstructs) = (0u64, 0u64, 0u64);
    for e in rt.trace().events() {
        match e {
            TraceEvent::TaskRetry { .. } => retries += 1,
            TraceEvent::FaultDetected { .. } => detected += 1,
            TraceEvent::Reconstruct { .. } => reconstructs += 1,
            _ => {}
        }
    }
    ChaosRow {
        workload: app.name(),
        mttf: "none",
        makespan: report.makespan,
        baseline: report.makespan,
        retries,
        detected,
        reconstructs,
        output_matches: app.output_matches(scenario, &rt, &report, JobId(0)),
    }
}

/// Runs the full sweep: for each workload, one fault-free baseline plus
/// one faulty run per MTTF level.
pub fn measure(scenario: &Scenario) -> Vec<ChaosRow> {
    let mut rows = Vec::new();
    for app in APPS {
        let base = run_once(app, scenario, FaultInjector::none());
        let baseline = base.makespan;
        rows.push(base);
        for &(label, divisor) in levels(scenario) {
            let mttf = SimDuration(baseline.0 / divisor);
            let (topo, rack) = disaggregated_rack(4, 16, 4, 256);
            let plan = chaos_plan(&topo, &rack, baseline, mttf);
            rows.push(ChaosRow { mttf: label, baseline, ..run_once(app, scenario, plan) });
        }
    }
    rows
}

/// Runs E16.
pub fn run(scenario: &Scenario) -> Table {
    let rows = measure(scenario);
    let mut t = Table::new(
        "chaos",
        "Chaos sweep: makespan under faults vs. fault-free baseline",
        &["Workload", "MTTF", "Makespan", "Baseline", "Slowdown", "Retries", "Detected", "Reconstructs"],
    );
    for r in &rows {
        t.row(vec![
            r.workload.to_string(),
            r.mttf.to_string(),
            fmt_dur(r.makespan),
            fmt_dur(r.baseline),
            format!("{:.2}x", r.slowdown()),
            r.retries.to_string(),
            r.detected.to_string(),
            r.reconstructs.to_string(),
        ]);
    }
    t.note("fault plan is derived from the fault-free makespan T; all detection/backoff/retry is virtual time, so the sweep is bit-for-bit deterministic");
    t.note("shorter MTTF -> more crash/recover cycles and retries; the corruption burst and degraded-link window also scale with MTTF, so slowdown is not monotone in it");
    let (clean, faulty): (Vec<&ChaosRow>, Vec<&ChaosRow>) = rows.iter().partition(|r| r.mttf == "none");
    t.claim(
        "fault-free-runs-are-clean",
        "a run with no faults injected detects and retries nothing (detections + retries per baseline)",
        Shape::AtMost(0.0),
        clean.iter().map(|r| (r.detected + r.retries) as f64).collect(),
    );
    t.claim(
        "faults-never-speed-a-run-up",
        "every faulty run survives at a makespan no shorter than its fault-free baseline (slowdown)",
        Shape::AtLeast(1.0),
        faulty.iter().map(|r| r.slowdown()).collect(),
    );
    t.claim(
        "faulty-outputs-match-the-reference",
        "every faulty run's final output, decoded, equals the workload's own reference (mismatches per faulty run)",
        Shape::AtMost(0.0),
        faulty.iter().map(|r| f64::from(u8::from(!r.output_matches))).collect(),
    );
    let total = |f: fn(&ChaosRow) -> u64| rows.iter().map(f).sum::<u64>() as f64;
    let (detected, retries) = (total(|r| r.detected), total(|r| r.retries));
    t.claim(
        "faults-are-detected-and-retried",
        "the sweep exercises mid-task fault detection and the retry path (detections, retries, across the sweep)",
        Shape::AtLeast(1.0),
        vec![detected, retries],
    );
    t.claim(
        "every-detection-relaunches",
        "every detected fault relaunches its task at least once (detections, then retries)",
        Shape::Ascending { slack: 0.0 },
        vec![detected, retries],
    );
    t.record = Some(fragment(&rows));
    t
}
