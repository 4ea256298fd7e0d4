//! E17 — serving sweep: open-loop multi-tenant traffic against the
//! rack, offered load swept to find the saturation knee.
//!
//! Each sweep point runs the same seeded request stream (Poisson
//! arrivals, Zipf tenant mix, per-tenant quotas and SLOs) at a
//! different mean inter-arrival gap, expressed as a multiple of the
//! calibrated mean service time. Light load leaves the rack idle
//! between requests; past the knee, queueing blows the p99 up. Every
//! number is virtual-time-only, so the sweep — and the `serving`
//! section of `BENCH_disagg.json` it feeds — is byte-identical across
//! runs.

use disagg_core::prelude::{Runtime, RuntimeConfig};
use disagg_dataflow::{JobBuilder, TaskSpec};
use disagg_hwsim::compute::WorkClass;
use disagg_hwsim::presets::disaggregated_rack;
use disagg_hwsim::time::SimDuration;
use disagg_obs::{TenantAttribution, TenantBurn};
use disagg_serve::{ArrivalProcess, Request, ServeConfig, ServeLayer, Slo, TenantStats};

use crate::{fmt_dur, Fragment, Scenario, Shape, Table};

/// The tag of the seeded request stream the sweep and the traced
/// serving pass share.
const MIX: u64 = 0xd15a66;

/// One offered-load sweep point.
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// Offered-load label relative to service capacity ("0.25x", ...).
    pub load: &'static str,
    /// Mean inter-arrival gap driven at this point.
    pub mean_gap: SimDuration,
    /// Requests offered / admitted / rejected.
    pub offered: usize,
    /// Requests admitted past the per-tenant quotas.
    pub admitted: usize,
    /// Requests rejected by quota admission.
    pub rejected: usize,
    /// Virtual serving horizon.
    pub makespan: SimDuration,
    /// Median sojourn across admitted requests.
    pub p50: SimDuration,
    /// Tail sojourn across admitted requests.
    pub p99: SimDuration,
    /// Exact peak pooled-memory utilization during the run.
    pub peak_util: f64,
}

/// The full serving record: the sweep, where it saturates, and the
/// per-tenant + utilization detail at that point.
#[derive(Debug, Clone)]
pub struct ServingRecord {
    /// Tenants in the mix.
    pub tenants: usize,
    /// Requests per sweep point.
    pub requests: usize,
    /// Root seed.
    pub seed: u64,
    /// The offered-load sweep, lightest first.
    pub sweep: Vec<ServingRow>,
    /// Index into `sweep` of the saturation knee: the first point whose
    /// p99 exceeds twice the lightest-load p99, if one does.
    pub knee: Option<usize>,
    /// Per-tenant outcomes of the knee run.
    pub knee_tenants: Vec<TenantStats>,
    /// Pooled-memory utilization over the knee run as
    /// `(offset, fraction)` samples.
    pub util_curve: Vec<(SimDuration, f64)>,
    /// Per-tenant tail-latency attribution of the knee run: exact p99,
    /// the summed component breakdown, the dominant component, and the
    /// exemplar request ids behind the tail.
    pub tail_attribution: Vec<TenantAttribution>,
    /// Per-tenant SLO burn curves of the knee run (aligned virtual-time
    /// windows of good/bad counts against each tenant's p99 SLO).
    pub burn: Vec<TenantBurn>,
}

impl ServingRecord {
    /// Index into `sweep` of the knee run: the knee, or the heaviest
    /// point when the knee rule does not fire.
    fn knee_run(&self) -> usize {
        self.knee.unwrap_or(self.sweep.len() - 1)
    }

    /// The `serving` section of the benchmark record: the sweep, the
    /// knee, and at the knee the per-tenant outcomes, the utilization
    /// curve and the request-centric tail attribution — per tenant the
    /// exact p99, the five-component breakdown (sums to the tenant's
    /// total request time), exemplar request ids and the SLO burn curve.
    fn fragment(&self) -> Fragment {
        let sweep: Vec<String> = self
            .sweep
            .iter()
            .map(|r| {
                format!(
                    "      {{\"load\": \"{}\", \"mean_gap_ns\": {}, \"offered\": {}, \
                     \"admitted\": {}, \"rejected\": {}, \"makespan_ns\": {}, \
                     \"p50_ns\": {}, \"p99_ns\": {}, \"peak_util\": {:.6}}}",
                    r.load,
                    r.mean_gap.0,
                    r.offered,
                    r.admitted,
                    r.rejected,
                    r.makespan.0,
                    r.p50.0,
                    r.p99.0,
                    r.peak_util,
                )
            })
            .collect();
        let knee = &self.sweep[self.knee_run()];
        let tenants: Vec<String> = self
            .knee_tenants
            .iter()
            .map(|t| {
                format!(
                    "      {{\"tenant\": {}, \"offered\": {}, \"admitted\": {}, \
                     \"rejected\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"slo_met\": {}}}",
                    t.tenant, t.offered, t.admitted, t.rejected, t.p50.0, t.p99.0, t.slo_met,
                )
            })
            .collect();
        let util: Vec<String> = self
            .util_curve
            .iter()
            .map(|(at, frac)| format!("      {{\"at_ns\": {}, \"frac\": {:.6}}}", at.0, frac))
            .collect();
        let tails: Vec<String> = self
            .tail_attribution
            .iter()
            .map(|ta| {
                let a = &ta.total;
                let exemplars: Vec<String> = ta.exemplars.iter().map(u64::to_string).collect();
                let burn: Vec<String> = self
                    .burn
                    .iter()
                    .filter(|b| b.tenant == ta.tenant)
                    .flat_map(|b| &b.windows)
                    .map(|w| {
                        format!(
                            "{{\"start_ns\": {}, \"end_ns\": {}, \"good\": {}, \"bad\": {}, \
                             \"rate\": {:.4}}}",
                            w.start.0,
                            w.end.0,
                            w.good,
                            w.bad,
                            w.burn_rate(),
                        )
                    })
                    .collect();
                format!(
                    "      {{\"tenant\": {}, \"requests\": {}, \"p99_ns\": {}, \
                     \"admission_ns\": {}, \"queue_ns\": {}, \"compute_ns\": {}, \
                     \"transfer_ns\": {}, \"recovery_ns\": {}, \"dominant\": \"{}\", \
                     \"exemplars\": [{}], \"burn\": [{}]}}",
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
                    burn.join(", "),
                )
            })
            .collect();
        Fragment {
            parent: "serving",
            members: format!(
                "    \"tenants\": {}, \"requests\": {}, \"seed\": {},\n    \
                 \"sweep\": [\n{}\n    ],\n    \
                 \"knee\": {{\"load\": \"{}\", \"mean_gap_ns\": {}, \"p99_ns\": {}}},\n    \
                 \"knee_tenants\": [\n{}\n    ],\n    \
                 \"util_curve\": [\n{}\n    ],\n    \
                 \"tail_attribution\": [\n{}\n    ]",
                self.tenants,
                self.requests,
                self.seed,
                sweep.join(",\n"),
                knee.load,
                knee.mean_gap.0,
                knee.p99.0,
                tenants.join(",\n"),
                util.join(",\n"),
                tails.join(",\n"),
            ),
        }
    }
}

/// The heterogeneous template mix: an interactive point lookup, a small
/// analytics fan-out, and a sharded bulk ingest. Work jitters per
/// request off the request seed.
pub fn templates() -> ServeLayer {
    let mut layer = ServeLayer::new();
    layer.register("interactive", |req: &Request| {
        let mut j = JobBuilder::new("interactive");
        let a = j.task(
            TaskSpec::new("lookup")
                .work(WorkClass::Scalar, 20_000 + req.seed % 4_000)
                .output_bytes(8 << 20),
        );
        let b = j.task(TaskSpec::new("render").work(WorkClass::Scalar, 10_000));
        j.edge(a, b);
        j.build().expect("interactive template is a valid DAG")
    });
    layer.register("analytics", |req: &Request| {
        let mut j = JobBuilder::new("analytics");
        let scan = j.task(
            TaskSpec::new("scan")
                .work(WorkClass::Vector, 40_000 + req.seed % 8_000)
                .output_bytes(64 << 20),
        );
        let agg = j.task(TaskSpec::new("agg").work(WorkClass::Vector, 20_000).output_bytes(8 << 20));
        for i in 0..3 {
            let part = j.task(
                TaskSpec::new(format!("part{i}"))
                    .work(WorkClass::Vector, 15_000)
                    .output_bytes(16 << 20),
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
                .work(WorkClass::Scalar, 15_000)
                .output_bytes(128 << 20),
        );
        let store = j.task(TaskSpec::new("store").work(WorkClass::Scalar, 8_000));
        for i in 0..4 {
            let shard = j.task(
                TaskSpec::new(format!("shard{i}"))
                    .work(WorkClass::Vector, 25_000 + req.seed % 5_000)
                    .output_bytes(32 << 20),
            );
            j.edge(recv, shard);
            j.edge(shard, store);
        }
        j.build().expect("ingest template is a valid DAG")
    });
    layer
}

/// The mean service time of a template mix on the sweeps' rack shape:
/// each template's fixed representative request, timed alone.
pub(crate) fn mean_service(layer: &ServeLayer, scenario: &Scenario) -> SimDuration {
    let (topo, _rack) = disaggregated_rack(4, 8, 2, 32);
    let total: u64 = (0..layer.len())
        .map(|ti| {
            let probe = Request {
                index: 0,
                tenant: ti,
                arrival: SimDuration::ZERO,
                seed: scenario.stream(0x5eed ^ ti as u64),
            };
            layer.service_time(&topo, &probe).0
        })
        .sum();
    SimDuration(total / layer.len().max(1) as u64)
}

/// Offered-load levels as (label, gap divisor): `mean_gap = svc * 4 /
/// divisor`, so "1.00x" drives one request per mean service time.
fn levels(scenario: &Scenario) -> &'static [(&'static str, u64)] {
    if scenario.quick {
        &[("0.50x", 2), ("2.00x", 8), ("8.00x", 32)]
    } else {
        &[("0.25x", 1), ("0.50x", 2), ("1.00x", 4), ("2.00x", 8), ("4.00x", 16), ("8.00x", 32)]
    }
}

/// Runs the sweep and extracts the knee.
pub fn measure(scenario: &Scenario) -> ServingRecord {
    let svc = mean_service(&templates(), scenario);
    let tenants = 6;
    let requests = if scenario.quick { 48 } else { 160 };
    let seed = scenario.stream(MIX);
    // Quota: 512 MiB per tenant — two concurrent ingest-sized requests;
    // generous at light load, binding for the ingest tenants past the
    // knee. The sum of quotas (3 GiB) is also the utilization
    // denominator in the sweep's util curve.
    let quota = Some(512u64 << 20);
    let slo = Some(Slo { p50: SimDuration(svc.0 * 4), p99: SimDuration(svc.0 * 16) });

    let mut sweep = Vec::new();
    let mut reports = Vec::new();
    for &(label, divisor) in levels(scenario) {
        let mean_gap = SimDuration((svc.0 * 4) / divisor);
        let cfg = ServeConfig {
            arrivals: ArrivalProcess::Poisson { mean_gap },
            requests,
            tenants,
            zipf_theta: 1.0,
            seed,
            quota,
            slo,
            ..ServeConfig::default()
        };
        let mut rt = Runtime::new(disaggregated_rack(4, 8, 2, 32).0, RuntimeConfig::traced());
        let report = templates().run(&mut rt, &cfg).expect("sweep point serves");
        sweep.push(ServingRow {
            load: label,
            mean_gap,
            offered: report.offered,
            admitted: report.admitted,
            rejected: report.rejected,
            makespan: report.makespan,
            p50: report.p50(),
            p99: report.p99(),
            peak_util: report.peak_util,
        });
        reports.push(report);
    }

    // The knee: first point whose p99 more than doubles the lightest
    // load's p99 — queueing has taken over.
    let base_p99 = sweep.first().map(|r| r.p99.0).unwrap_or(0);
    let knee = sweep.iter().position(|r| r.p99.0 > base_p99 * 2);

    let mut rec = ServingRecord {
        tenants,
        requests,
        seed,
        sweep,
        knee,
        knee_tenants: Vec::new(),
        util_curve: Vec::new(),
        tail_attribution: Vec::new(),
        burn: Vec::new(),
    };
    let run = &reports[rec.knee_run()];
    rec.knee_tenants = run.tenants.clone();
    rec.util_curve = run.util_curve.iter().map(|s| (s.at, s.frac)).collect();
    rec.tail_attribution = run.tail_attribution.clone();
    rec.burn = run.burn.clone();
    rec
}

/// The saturation-load serving config of the traced serving pass
/// (`driver::serving_trace_artifacts`). Arrivals ~8x denser than the
/// mean service time keep the executor busy end to end without piling
/// up hundreds of concurrent bulk transfers (which would stress the
/// contention ledger, not the serving path).
pub fn saturated_config(scenario: &Scenario) -> ServeConfig {
    ServeConfig {
        arrivals: ArrivalProcess::Poisson { mean_gap: SimDuration::from_micros(75) },
        requests: if scenario.quick { 32 } else { 96 },
        tenants: 6,
        zipf_theta: 1.0,
        seed: scenario.stream(MIX),
        ..ServeConfig::default()
    }
}

/// Runs E17.
pub fn run(scenario: &Scenario) -> Table {
    let rec = measure(scenario);
    let mut t = Table::new(
        "serving",
        "Serving sweep: open-loop Poisson/Zipf traffic, offered load vs. latency",
        &["Load", "Gap", "Offered", "Admitted", "Rejected", "p50", "p99", "PeakUtil", "Knee"],
    );
    for (i, r) in rec.sweep.iter().enumerate() {
        t.row(vec![
            r.load.to_string(),
            fmt_dur(r.mean_gap),
            r.offered.to_string(),
            r.admitted.to_string(),
            r.rejected.to_string(),
            fmt_dur(r.p50),
            fmt_dur(r.p99),
            format!("{:.4}", r.peak_util),
            if rec.knee == Some(i) { "<-".to_string() } else { String::new() },
        ]);
    }
    let met = rec.knee_tenants.iter().filter(|t| t.slo_met).count();
    t.note(format!(
        "{} tenants (Zipf 1.0), {} requests/point, seed {:#x}; load = requests per mean service time",
        rec.tenants, rec.requests, rec.seed
    ));
    let knee = match rec.knee {
        Some(k) => format!("knee at {}", rec.sweep[k].load),
        None => "no knee, the heaviest point stands in".to_string(),
    };
    t.note(format!(
        "{knee} ({met} of {} tenants met their SLO there); all latencies are virtual time, so the sweep is bit-for-bit deterministic",
        rec.knee_tenants.len()
    ));
    if !rec.tail_attribution.is_empty() {
        let parts: Vec<String> = rec
            .tail_attribution
            .iter()
            .map(|ta| {
                format!(
                    "t{} p99={} <- {} (exemplars {:?})",
                    ta.tenant,
                    fmt_dur(ta.p99),
                    ta.dominant.name(),
                    ta.exemplars
                )
            })
            .collect();
        t.note(format!("tail attribution at the knee: {}", parts.join("; ")));
    }
    t.claim(
        "heavier-load-cannot-shrink-the-tail",
        "p99 (ns) at the heaviest offered load is no lower than at the lightest",
        Shape::Ascending { slack: 0.0 },
        vec![rec.sweep[0].p99.0 as f64, rec.sweep[rec.sweep.len() - 1].p99.0 as f64],
    );
    // The quick sweep's 48 requests a point do not double the lightest
    // p99 (1.97x at its heaviest point, and at 9 of the 10 grid seeds
    // not at all), so only the full sweep claims a knee.
    if !scenario.quick {
        t.claim(
            "knee-rule-fires",
            "some point's p99 exceeds twice the lightest load's, so the sweep has a knee (1 = it does)",
            Shape::AtLeast(1.0),
            vec![f64::from(rec.knee.is_some())],
        );
    }
    t.claim(
        "knee-run-explains-itself",
        "the traced knee run carries every tenant, a utilization curve that rises above zero (1 = it does), burn curves, and per attributed tenant exemplars and a non-zero breakdown",
        Shape::AtLeast(1.0),
        vec![
            rec.knee_tenants.len() as f64 / rec.tenants as f64,
            rec.util_curve.len() as f64,
            f64::from(rec.util_curve.iter().any(|&(_, frac)| frac > 0.0)),
            rec.burn.len() as f64,
            rec.tail_attribution.len() as f64,
            rec.tail_attribution.iter().map(|ta| ta.exemplars.len()).min().unwrap_or(0) as f64,
            rec.tail_attribution.iter().map(|ta| ta.total.total().0).min().unwrap_or(0) as f64,
        ],
    );
    t.record = Some(rec.fragment());
    t
}
