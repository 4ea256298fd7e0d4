//! E18 — chaos under load: the fault-aware serving control plane
//! (retry budgets, circuit breakers, deadline shedding, brownout
//! degradation) against an uncontrolled baseline, swept across offered
//! load with deterministic fault windows injected mid-run.
//!
//! Each sweep point first probes the healthy arrival span `A` of the
//! load level, then derives a fault plan from it — six overlapping
//! node-crash windows rotating over three of the four servers, spanning
//! `[A/4, 0.95A)` — and runs the same
//! seeded request stream twice on identically faulted racks: once with
//! no controls (quota admission only, the pre-control serving path) and
//! once with the full control plane. Goodput here is *SLO goodput*:
//! requests that completed within their tenant's p99 SLO. Everything is
//! virtual time, so the sweep — and the `serving.chaos` section of
//! `BENCH_disagg.json` it feeds — is byte-identical across runs.

use disagg_core::prelude::{Runtime, RuntimeConfig};
use disagg_core::RecoveryPolicy;
use disagg_hwsim::fault::{FaultInjector, FaultKind};
use disagg_hwsim::presets::disaggregated_rack;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_serve::{
    ArrivalProcess, ControlPlane, Request, ServeConfig, ServeLayer, Slo, Verdict,
};

use crate::{fmt_dur, Fragment, Scenario, Shape, Table};

/// One (load, variant) sweep point.
#[derive(Debug, Clone)]
pub struct ChaosServeRow {
    /// Offered-load label relative to service capacity ("1.00x", ...).
    pub load: &'static str,
    /// Mean inter-arrival gap driven at this point.
    pub mean_gap: SimDuration,
    /// Whether the fault-aware control plane was on (`false` = the
    /// uncontrolled baseline on the identical fault plan).
    pub controls: bool,
    /// Requests offered.
    pub offered: usize,
    /// Requests admitted (quota-admitted, including later fast-fails).
    pub admitted: usize,
    /// Requests rejected by quota admission.
    pub rejected: usize,
    /// Requests shed by the deadline check.
    pub shed: usize,
    /// Admitted requests served from a degraded (brownout) template.
    pub degraded: usize,
    /// Admitted requests that failed fast (retry budget or retry cap
    /// under failure isolation).
    pub fast_failed: usize,
    /// SLO goodput: requests completed within their tenant's p99 SLO.
    pub goodput: usize,
    /// Tail sojourn across completed requests.
    pub p99: SimDuration,
    /// Virtual serving horizon of this run.
    pub makespan: SimDuration,
    /// Breaker trips (Closed/HalfOpen → Open transitions) committed.
    pub breaker_trips: usize,
    /// First node crash of the fault plan.
    pub fault_start: SimTime,
    /// Last node recovery of the fault plan.
    pub fault_end: SimTime,
    /// Peak SLO burn rate over windows overlapping the fault windows
    /// (1.0 = burning exactly the 1% error budget).
    pub burn_during: f64,
    /// Peak SLO burn rate over windows entirely after the last
    /// recovery.
    pub burn_after: f64,
    /// Whether burn returned to at or below the 1% budget in some
    /// post-fault window.
    pub recovered: bool,
    /// Virtual time from the last node recovery until the end of the
    /// first post-fault window burning at or below budget (the full
    /// post-fault tail when it never recovers).
    pub recovery: SimDuration,
}

/// The full chaos-under-load record feeding `serving.chaos`.
#[derive(Debug, Clone)]
pub struct ChaosServeRecord {
    /// Tenants in the mix.
    pub tenants: usize,
    /// Requests per sweep point.
    pub requests: usize,
    /// Root seed.
    pub seed: u64,
    /// The p99 SLO every tenant is held to.
    pub slo_p99: SimDuration,
    /// Two rows per load level: baseline first, controls second.
    pub rows: Vec<ChaosServeRow>,
}

impl ChaosServeRecord {
    /// The `serving.chaos` section of the benchmark record: per (load,
    /// variant) row, admission/shed/degrade/fast-fail counts, SLO
    /// goodput, breaker trips, the fault window, and burn during/after
    /// with the measured recovery.
    fn fragment(&self) -> Fragment {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "        {{\"load\": \"{}\", \"controls\": {}, \"mean_gap_ns\": {}, \
                     \"offered\": {}, \"admitted\": {}, \"rejected\": {}, \"shed\": {}, \
                     \"degraded\": {}, \"fast_failed\": {}, \"goodput\": {}, \"p99_ns\": {}, \
                     \"makespan_ns\": {}, \"breaker_trips\": {}, \"fault_start_ns\": {}, \
                     \"fault_end_ns\": {}, \"burn_during\": {:.4}, \"burn_after\": {:.4}, \
                     \"recovered\": {}, \"recovery_ns\": {}}}",
                    r.load,
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
                )
            })
            .collect();
        Fragment {
            parent: "serving",
            members: format!(
                "    \"chaos\": {{\n      \"tenants\": {}, \"requests\": {}, \"seed\": {}, \
                 \"slo_p99_ns\": {},\n      \"rows\": [\n{}\n      ]\n    }}",
                self.tenants,
                self.requests,
                self.seed,
                self.slo_p99.0,
                rows.join(",\n"),
            ),
        }
    }
}

/// The chaos mix: the same three request shapes as the serving sweep
/// (point lookup, analytics fan-out, sharded ingest) but compute-bound
/// — every task's body charges real device time via `ctx.compute`
/// (the declared `.work(...)` estimate alone is only a scheduler hint),
/// so server compute is the scarce resource. That matters for a
/// node-crash experiment: crashes must interrupt in-flight work and a
/// downed server must translate into lost capacity and queueing, which
/// a transfer-bound mix (where compute sits ~5% utilized) never shows.
/// Each template also carries a degraded (brownout) variant: the same
/// shape at roughly a quarter of the work — a cheaper answer, not a
/// refusal.
pub fn templates() -> ServeLayer {
    use disagg_dataflow::{JobBuilder, TaskSpec};
    use disagg_hwsim::compute::WorkClass;
    fn crunch(class: WorkClass, elems: u64) -> impl Fn(&mut disagg_dataflow::TaskCtx<'_, '_>) -> Result<(), disagg_dataflow::TaskError> + 'static {
        move |ctx| {
            ctx.compute(class, elems);
            Ok(())
        }
    }
    let mut layer = ServeLayer::new();
    layer.register("interactive", |req: &Request| {
        let mut j = JobBuilder::new("interactive");
        let lookup_work = 300_000 + req.seed % 60_000;
        let a = j.task(
            TaskSpec::new("lookup")
                .work(WorkClass::Scalar, lookup_work)
                .output_bytes(1 << 20)
                .body(crunch(WorkClass::Scalar, lookup_work)),
        );
        let b = j.task(
            TaskSpec::new("render")
                .work(WorkClass::Scalar, 150_000)
                .body(crunch(WorkClass::Scalar, 150_000)),
        );
        j.edge(a, b);
        j.build().expect("interactive template is a valid DAG")
    });
    layer.register("analytics", |req: &Request| {
        let mut j = JobBuilder::new("analytics");
        let scan_work = 10_000_000 + req.seed % 2_000_000;
        let scan = j.task(
            TaskSpec::new("scan")
                .work(WorkClass::Vector, scan_work)
                .output_bytes(8 << 20)
                .body(crunch(WorkClass::Vector, scan_work)),
        );
        let agg = j.task(
            TaskSpec::new("agg")
                .work(WorkClass::Vector, 5_000_000)
                .output_bytes(1 << 20)
                .body(crunch(WorkClass::Vector, 5_000_000)),
        );
        for i in 0..3 {
            let part = j.task(
                TaskSpec::new(format!("part{i}"))
                    .work(WorkClass::Vector, 4_000_000)
                    .output_bytes(2 << 20)
                    .body(crunch(WorkClass::Vector, 4_000_000)),
            );
            j.edge(scan, part);
            j.edge(part, agg);
        }
        j.build().expect("analytics template is a valid DAG")
    });
    layer.register("ingest", |req: &Request| {
        let mut j = JobBuilder::new("ingest");
        let recv = j.task(
            TaskSpec::new("recv")
                .work(WorkClass::Scalar, 200_000)
                .output_bytes(16 << 20)
                .body(crunch(WorkClass::Scalar, 200_000)),
        );
        let store = j.task(
            TaskSpec::new("store")
                .work(WorkClass::Scalar, 100_000)
                .body(crunch(WorkClass::Scalar, 100_000)),
        );
        let shard_work = 6_000_000 + req.seed % 1_000_000;
        for i in 0..4 {
            let shard = j.task(
                TaskSpec::new(format!("shard{i}"))
                    .work(WorkClass::Vector, shard_work)
                    .output_bytes(4 << 20)
                    .body(crunch(WorkClass::Vector, shard_work)),
            );
            j.edge(recv, shard);
            j.edge(shard, store);
        }
        j.build().expect("ingest template is a valid DAG")
    });
    layer.register_degraded("interactive", |req: &Request| {
        let mut j = JobBuilder::new("interactive-lite");
        let w = 75_000 + req.seed % 15_000;
        j.task(
            TaskSpec::new("lookup")
                .work(WorkClass::Scalar, w)
                .output_bytes(1 << 20)
                .body(crunch(WorkClass::Scalar, w)),
        );
        j.build().expect("degraded interactive template is a valid DAG")
    });
    layer.register_degraded("analytics", |req: &Request| {
        let mut j = JobBuilder::new("analytics-lite");
        let w = 2_500_000 + req.seed % 500_000;
        let scan = j.task(
            TaskSpec::new("scan")
                .work(WorkClass::Vector, w)
                .output_bytes(2 << 20)
                .body(crunch(WorkClass::Vector, w)),
        );
        let agg = j.task(
            TaskSpec::new("agg")
                .work(WorkClass::Vector, 1_250_000)
                .output_bytes(1 << 20)
                .body(crunch(WorkClass::Vector, 1_250_000)),
        );
        j.edge(scan, agg);
        j.build().expect("degraded analytics template is a valid DAG")
    });
    layer.register_degraded("ingest", |req: &Request| {
        let mut j = JobBuilder::new("ingest-lite");
        let recv = j.task(
            TaskSpec::new("recv")
                .work(WorkClass::Scalar, 50_000)
                .output_bytes(4 << 20)
                .body(crunch(WorkClass::Scalar, 50_000)),
        );
        let store = j.task(
            TaskSpec::new("store")
                .work(WorkClass::Scalar, 25_000)
                .body(crunch(WorkClass::Scalar, 25_000)),
        );
        let w = 1_500_000 + req.seed % 250_000;
        let shard = j.task(
            TaskSpec::new("shard0")
                .work(WorkClass::Vector, w)
                .output_bytes(2 << 20)
                .body(crunch(WorkClass::Vector, w)),
        );
        j.edge(recv, shard);
        j.edge(shard, store);
        j.build().expect("degraded ingest template is a valid DAG")
    });
    layer
}

/// Offered-load levels as (label, gap divisor): `mean_gap = svc * 4 /
/// divisor` (same convention as the serving sweep).
fn levels(scenario: &Scenario) -> &'static [(&'static str, u64)] {
    if scenario.quick {
        &[("16.00x", 64), ("24.00x", 96)]
    } else {
        &[("12.00x", 48), ("16.00x", 64), ("24.00x", 96)]
    }
}

/// The recovery policy both variants run with: a real detector,
/// exponential backoff, and a bounded per-task retry cap.
fn recovery() -> RecoveryPolicy {
    RecoveryPolicy::default()
        .with_max_retries(8)
        .with_detection_delay(SimDuration(2_000))
        .with_backoff(SimDuration(1_000))
}

/// Rotating node-crash windows derived from the arrival span `A` (the
/// last request's arrival time): six crash/recover pairs cycling over
/// three of the four servers (node 3 never fails, so the rack always
/// has healthy capacity), starting at `A/4` with a new window every
/// `A/10`, each `A/5` long — the fault era spans `[A/4, 0.95A)`,
/// strictly inside the arrival span, so every run outlives it and burn
/// has post-fault windows to recover in. Adjacent windows overlap, so
/// stretches of the fault era run with two servers gone — sustained
/// capacity loss and queueing, not just the crash edges, are what the
/// control plane has to survive.
fn fault_plan(span: SimDuration) -> (FaultInjector, SimTime, SimTime) {
    let t = span.0.max(60);
    let down = t / 5;
    let pitch = t / 10;
    let mut f = FaultInjector::none();
    let (_, rack) = disaggregated_rack(4, 8, 2, 32);
    let first = t / 4;
    let mut last_end = first;
    for k in 0..6u64 {
        let node = rack.nodes[(k % 3) as usize];
        let start = first + k * pitch;
        f.schedule(SimTime(start), FaultKind::NodeCrash(node));
        f.schedule(SimTime(start + down), FaultKind::NodeRecover(node));
        last_end = start + down;
    }
    (f, SimTime(first), SimTime(last_end))
}

/// Runs one sweep point and folds the report into a row.
#[allow(clippy::too_many_arguments)]
fn run_point(
    label: &'static str,
    mean_gap: SimDuration,
    controls: bool,
    requests: usize,
    tenants: usize,
    seed: u64,
    slo: Slo,
    span: SimDuration,
) -> ChaosServeRow {
    let (faults, fault_start, fault_end) = fault_plan(span);
    let config = RuntimeConfig::traced().with_faults(faults).with_recovery(recovery());
    let (topo, _rack) = disaggregated_rack(4, 8, 2, 32);
    let mut rt = Runtime::new(topo, config);
    let cfg = ServeConfig {
        arrivals: ArrivalProcess::Poisson { mean_gap },
        requests,
        tenants,
        zipf_theta: 1.0,
        seed,
        quota: Some(512u64 << 20),
        slo: Some(slo),
        control: controls.then(ControlPlane::default),
        ..ServeConfig::default()
    };
    let report = templates().run(&mut rt, &cfg).expect("chaos-serve sweep point completes");

    // SLO goodput: completions within the tenant's p99 target. Sheds,
    // rejections, fast-fails, and over-SLO completions all miss it.
    let goodput = report
        .requests
        .iter()
        .filter(|r| {
            r.verdict == Verdict::Completed && r.latency.map(|l| l <= slo.p99).unwrap_or(false)
        })
        .count();
    let breaker_trips = rt
        .breaker_transitions()
        .iter()
        .filter(|t| t.to == disagg_core::breaker::BreakerState::Open)
        .count();

    // Burn during vs after the fault windows, aggregated across
    // tenants on the shared window grid, expressed against the 1%
    // error budget (1.0 = at budget). Recovery: time from the last
    // node repair to the end of the first post-fault window back at or
    // below budget.
    let grid = report.burn.first().map(|b| b.windows.len()).unwrap_or(0);
    let mut burn_during = 0.0f64;
    let mut burn_after = 0.0f64;
    let mut recovered = false;
    let mut recovery = report.makespan.0.saturating_sub(fault_end.0);
    for w in 0..grid {
        let (mut good, mut bad) = (0u64, 0u64);
        let (mut start, mut end) = (SimTime::ZERO, SimTime::ZERO);
        for tb in &report.burn {
            let win = &tb.windows[w];
            good += win.good;
            bad += win.bad;
            start = win.start;
            end = win.end;
        }
        let total = good + bad;
        let rate = if total == 0 { 0.0 } else { (bad as f64 / total as f64) / 0.01 };
        if start < fault_end && end > fault_start {
            burn_during = burn_during.max(rate);
        }
        if start >= fault_end {
            burn_after = burn_after.max(rate);
            if !recovered && rate <= 1.0 {
                recovered = true;
                recovery = end.0.saturating_sub(fault_end.0);
            }
        }
    }

    ChaosServeRow {
        load: label,
        mean_gap,
        controls,
        offered: report.offered,
        admitted: report.admitted,
        rejected: report.rejected,
        shed: report.shed,
        degraded: report.degraded,
        fast_failed: report.fast_failed,
        goodput,
        p99: report.p99(),
        makespan: report.makespan,
        breaker_trips,
        fault_start,
        fault_end,
        burn_during,
        burn_after,
        recovered,
        recovery: SimDuration(recovery),
    }
}

/// Runs the full chaos-under-load sweep.
pub fn measure(scenario: &Scenario) -> ChaosServeRecord {
    let svc = super::serving::mean_service(&templates(), scenario);
    let tenants = 6;
    let requests = if scenario.quick { 36 } else { 72 };
    let seed = scenario.stream(0xfa_0175);
    // p99 at 6× the calibrated mean service: the healthy rack's drain
    // tail rides just under it at 8×, so SLO misses at that load are
    // fault-caused — the uncontrolled baseline only burns when the
    // crash windows steal capacity and stretch the backlog.
    let slo = Slo { p50: SimDuration(svc.0 * 2), p99: SimDuration(svc.0 * 6) };

    let mut rows = Vec::new();
    for &(label, divisor) in levels(scenario) {
        let mean_gap = SimDuration((svc.0 * 4) / divisor);
        // Arrival span of this load level, probed on a healthy rack
        // with no controls. The fault plan is anchored to the span
        // rather than the probe's makespan: both variants draw the
        // identical seeded arrival stream, and the last request cannot
        // complete before it arrives, so a fault era strictly inside
        // the span leaves every run — however fast the control plane
        // finishes — with post-fault burn windows to recover in.
        let span = {
            let (topo, _rack) = disaggregated_rack(4, 8, 2, 32);
            let mut rt = Runtime::new(topo, RuntimeConfig::default());
            let cfg = ServeConfig {
                arrivals: ArrivalProcess::Poisson { mean_gap },
                requests,
                tenants,
                zipf_theta: 1.0,
                seed,
                quota: Some(512u64 << 20),
                slo: Some(slo),
                ..ServeConfig::default()
            };
            let probe = templates().run(&mut rt, &cfg).expect("healthy probe");
            probe.requests.iter().map(|r| r.arrival).max().unwrap_or(probe.makespan)
        };
        for controls in [false, true] {
            rows.push(run_point(
                label, mean_gap, controls, requests, tenants, seed, slo, span,
            ));
        }
    }
    ChaosServeRecord { tenants, requests, seed, slo_p99: slo.p99, rows }
}

/// Runs E18.
pub fn run(scenario: &Scenario) -> Table {
    let rec = measure(scenario);
    let mut t = Table::new(
        "chaos_serve",
        "Chaos under load: fault-aware controls vs uncontrolled baseline (goodput = completions within p99 SLO)",
        &[
            "Load", "Controls", "Offered", "Admitted", "Shed", "Degraded", "FastFail",
            "Goodput", "p99", "Trips", "BurnDuring", "BurnAfter", "Recovery",
        ],
    );
    for r in &rec.rows {
        t.row(vec![
            r.load.to_string(),
            if r.controls { "on".into() } else { "off".into() },
            r.offered.to_string(),
            r.admitted.to_string(),
            r.shed.to_string(),
            r.degraded.to_string(),
            r.fast_failed.to_string(),
            r.goodput.to_string(),
            fmt_dur(r.p99),
            r.breaker_trips.to_string(),
            format!("{:.2}", r.burn_during),
            format!("{:.2}", r.burn_after),
            if r.recovered { fmt_dur(r.recovery) } else { "never".into() },
        ]);
    }
    t.note(format!(
        "{} tenants (Zipf 1.0), {} requests/point, seed {:#x}, p99 SLO {}; six rotating node-crash windows per point anchored to the healthy arrival span",
        rec.tenants,
        rec.requests,
        rec.seed,
        fmt_dur(rec.slo_p99)
    ));
    t.note("burn rates are against the 1% error budget (1.0 = at budget), peak over the shared window grid; all fields are virtual time, so the sweep is bit-for-bit deterministic");
    let (base, ctrl): (Vec<&ChaosServeRow>, Vec<&ChaosServeRow>) = rec.rows.iter().partition(|r| !r.controls);
    let goodput = |rows: &[&ChaosServeRow]| rows.iter().map(|r| r.goodput).sum::<usize>() as f64;
    t.claim(
        "baseline-is-uncontrolled",
        "the baseline runs without breakers, shedding, degradation or fast-fails (their count per baseline run)",
        Shape::AtMost(0.0),
        base.iter().map(|r| (r.breaker_trips + r.shed + r.degraded + r.fast_failed) as f64).collect(),
    );
    // Goodput is reported, not claimed: with a retry's regions placed
    // on live devices the baseline misses few requests, and controlled
    // minus baseline goodput changes sign from seed to seed — every
    // controlled loss is requests it shed (EXPERIMENTS.md).
    t.note(format!(
        "SLO goodput across the sweep: controlled {} vs baseline {}",
        goodput(&ctrl),
        goodput(&base)
    ));
    t.claim(
        "admitted-requests-meet-the-slo",
        "every request a controlled run admits completes within its SLO: the controls' misses are sheds, taken before a request runs, never late completions (controlled completions over p99, per run)",
        Shape::AtMost(0.0),
        ctrl.iter().map(|r| (r.admitted - r.fast_failed - r.goodput) as f64).collect(),
    );
    t.claim(
        "crashes-trip-breakers",
        "node crashes trip breakers in the controlled runs (trips across the sweep)",
        Shape::AtLeast(1.0),
        vec![ctrl.iter().map(|r| r.breaker_trips).sum::<usize>() as f64],
    );
    t.claim(
        "burn-recovers-after-the-faults",
        "every controlled run returns to the 1% burn budget in some post-fault window (1 = recovered)",
        Shape::AtLeast(1.0),
        ctrl.iter().map(|r| f64::from(r.recovered)).collect(),
    );
    t.claim(
        "post-fault-burn-stays-in-budget",
        "controlled runs: peak post-fault burn rate, and recovery time over makespan",
        Shape::AtMost(1.0),
        ctrl.iter().flat_map(|r| [r.burn_after, r.recovery.as_nanos_f64() / r.makespan.as_nanos_f64()]).collect(),
    );
    t.record = Some(rec.fragment());
    t
}
