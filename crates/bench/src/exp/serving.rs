//! E17 — serving: open-loop multi-tenant traffic against the rack (§2.1's
//! "dataflow systems that serve thousands of jobs in parallel"), swept
//! over offered load, the runtime that serves it, and faults
//! (Challenge 8).
//!
//! One sweep, rows keyed by (mix, load, variant). A mix is data: its
//! request templates, its seeded request stream, requests per point, its
//! SLO as multiples of its calibrated mean service time, and its load
//! levels. Every point draws the mix's stream — Poisson arrivals, Zipf
//! 1.0 over six tenants, a 512 MiB quota per tenant — at a mean
//! inter-arrival gap that is a fraction of that service time, on
//! `disaggregated_rack(4, 8, 2, 32)`.
//!
//! - `transfer` hands bulk outputs between short tasks. Its `calm`
//!   (declarative) rows find the saturation knee — the first load whose
//!   p99 more than doubles the lightest load's — and explain the run
//!   there: per-tenant outcomes, the pooled-memory utilization curve,
//!   tail attribution and SLO burn. Its `compute-centric` rows serve the
//!   same stream with explicit local placement and copy-based handover.
//! - `crunch` charges device time in every task body, so a crash
//!   interrupts real in-flight work. It does not saturate the servers:
//!   no task of a `calm` row waits in a ready queue (all 55 at seeds
//!   0–10, both sizes), and handover transfer is most of the summed
//!   request latency in 45 of them. Its `faults` and `faults+controls`
//!   rows serve the same stream on a rack with six rotating node-crash
//!   windows, without and with the fault-aware control plane (circuit
//!   breakers, epochs, deadline shedding, brownout). The windows are
//!   anchored to the arrival span of the `calm` row at the same load, so
//!   every faulted run outlives them and has post-fault burn windows to
//!   recover in. What the crashes change is the crashes' own effect:
//!   with the same windows moved past the end of the run, every `faults`
//!   row equals its `calm` row.
//!
//! Goodput is SLO goodput: requests completed within their tenant's p99
//! SLO. Every number is virtual time, so the sweep — and the `serving`
//! section of `BENCH_disagg.json` it feeds — is byte-identical across
//! runs.

use disagg_core::breaker::BreakerState;
use disagg_core::prelude::{Runtime, RuntimeConfig};
use disagg_core::RecoveryPolicy;
use disagg_dataflow::{JobBuilder, TaskCtx, TaskError, TaskSpec};
use disagg_hwsim::compute::WorkClass;
use disagg_hwsim::fault::{FaultInjector, FaultKind};
use disagg_hwsim::presets::{disaggregated_rack, Rack};
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_obs::{TenantAttribution, TenantBurn};
use disagg_serve::{
    ArrivalProcess, ControlPlane, Request, ServeConfig, ServeLayer, ServeReport, Slo, TenantStats,
    Verdict,
};

use crate::{fmt_dur, fmt_ratio, Fragment, Scenario, Shape, Table};

/// How a point's runtime serves the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The declarative runtime on a healthy rack.
    Calm,
    /// `RuntimeConfig::compute_centric()`: explicit local placement and
    /// copy-based handover, on a healthy rack.
    ComputeCentric,
    /// The declarative runtime under the fault plan, quota admission
    /// only: the uncontrolled baseline.
    Faults,
    /// The same fault plan with the fault-aware control plane on.
    FaultsControls,
}

impl Variant {
    /// The variant's name in the table and the record.
    fn name(self) -> &'static str {
        match self {
            Variant::Calm => "calm",
            Variant::ComputeCentric => "compute-centric",
            Variant::Faults => "faults",
            Variant::FaultsControls => "faults+controls",
        }
    }
}

/// An offered-load level as (label, gap divisor): `mean_gap = svc * 4 /
/// divisor`, so "1.00x" drives one request per mean service time.
type Level = (&'static str, u64);

/// A request mix: everything a sweep over it draws from.
struct Mix {
    name: &'static str,
    templates: fn() -> ServeLayer,
    /// The tag of the mix's seeded request stream.
    stream: u64,
    /// Requests per point, (quick, full).
    requests: (usize, usize),
    /// p50 and p99 SLO in mean service times.
    slo: (u64, u64),
    /// Load levels, lightest first, (quick, full).
    levels: (&'static [Level], &'static [Level]),
    /// The variants run at every level, `Calm` first.
    variants: &'static [Variant],
}

impl Mix {
    fn requests(&self, scenario: &Scenario) -> usize {
        if scenario.quick { self.requests.0 } else { self.requests.1 }
    }

    fn levels(&self, scenario: &Scenario) -> &'static [Level] {
        if scenario.quick { self.levels.0 } else { self.levels.1 }
    }

    fn slo(&self, svc: SimDuration) -> Slo {
        Slo { p50: SimDuration(svc.0 * self.slo.0), p99: SimDuration(svc.0 * self.slo.1) }
    }
}

/// The transfer-bound mix: at 16 service times its p99 SLO leaves room
/// for the queueing the knee is looked for in.
const TRANSFER: Mix = Mix {
    name: "transfer",
    templates: transfer_templates,
    stream: 0xd15a66,
    requests: (48, 160),
    slo: (4, 16),
    levels: (
        &[("0.50x", 2), ("2.00x", 8), ("8.00x", 32)],
        &[("0.25x", 1), ("0.50x", 2), ("1.00x", 4), ("2.00x", 8), ("4.00x", 16), ("8.00x", 32)],
    ),
    variants: &[Variant::Calm, Variant::ComputeCentric],
};

/// The compute-heavy mix under faults, with a p99 SLO of 6 service
/// times. At 12x–24x the healthy rack's drain tail already exceeds it
/// (the `calm` rows' p99), so a faulted row's misses are read against
/// the `calm` row at its load, not against zero.
const CRUNCH: Mix = Mix {
    name: "crunch",
    templates: crunch_templates,
    stream: 0xfa_0175,
    requests: (36, 72),
    slo: (2, 6),
    levels: (&[("16.00x", 64), ("24.00x", 96)], &[("12.00x", 48), ("16.00x", 64), ("24.00x", 96)]),
    variants: &[Variant::Calm, Variant::Faults, Variant::FaultsControls],
};

/// The mixes in sweep order.
const MIXES: [&Mix; 2] = [&TRANSFER, &CRUNCH];

/// What a faulted point's crash windows did to its SLO burn.
#[derive(Debug, Clone, Copy)]
pub struct FaultEra {
    /// First node crash of the fault plan.
    pub start: SimTime,
    /// Last node recovery of the fault plan.
    pub end: SimTime,
    /// Peak SLO burn rate over windows overlapping the fault era (1.0 =
    /// burning exactly the 1% error budget).
    pub burn_during: f64,
    /// Peak SLO burn rate over windows entirely after the last recovery.
    pub burn_after: f64,
    /// Whether burn returned to at or below the 1% budget in some
    /// post-fault window.
    pub recovered: bool,
    /// Virtual time from the last node recovery until the end of the
    /// first post-fault window burning at or below budget (the full
    /// post-fault tail when it never recovers).
    pub recovery: SimDuration,
}

/// One (mix, load, variant) point.
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// The mix's name (`"transfer"`, `"crunch"`).
    pub mix: &'static str,
    /// Offered-load label relative to service capacity ("0.25x", ...).
    pub load: &'static str,
    /// How the point was served.
    pub variant: Variant,
    /// Mean inter-arrival gap driven at this point.
    pub mean_gap: SimDuration,
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
    /// Admitted requests that failed alone: a task exhausted the retry
    /// cap.
    pub fast_failed: usize,
    /// SLO goodput: requests completed within their tenant's p99 SLO.
    pub goodput: usize,
    /// Virtual serving horizon.
    pub makespan: SimDuration,
    /// Median sojourn across completed requests.
    pub p50: SimDuration,
    /// Tail sojourn across completed requests.
    pub p99: SimDuration,
    /// Exact peak pooled-memory utilization during the run.
    pub peak_util: f64,
    /// Breaker trips (Closed/HalfOpen → Open transitions) committed.
    pub breaker_trips: usize,
    /// The last request's arrival offset; a `calm` row's anchors the
    /// fault plan of the faulted rows at its load.
    pub last_arrival: SimDuration,
    /// The fault plan's era and its burn, for the faulted variants.
    pub faults: Option<FaultEra>,
}

/// The serving record: the sweep, where `transfer` saturates, and the
/// per-tenant, utilization and tail detail of that run.
#[derive(Debug, Clone)]
pub struct ServingRecord {
    /// Tenants in every mix.
    pub tenants: usize,
    /// Per mix, in sweep order: its name, requests per point, root seed
    /// and SLO.
    pub mixes: Vec<(&'static str, usize, u64, Slo)>,
    /// Every point: by mix, then load (lightest first), then variant.
    pub rows: Vec<ServingRow>,
    /// Index into `rows` of the saturation knee: the first `transfer`
    /// `calm` row whose p99 exceeds twice the lightest one's, if any.
    pub knee: Option<usize>,
    /// Per-tenant outcomes of the knee run.
    pub knee_tenants: Vec<TenantStats>,
    /// Pooled-memory utilization over the knee run as `(offset,
    /// fraction)` samples.
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
    /// The rows of one mix and variant, lightest load first.
    fn rows_of(&self, mix: &str, variant: Variant) -> Vec<&ServingRow> {
        self.rows.iter().filter(|r| r.mix == mix && r.variant == variant).collect()
    }

    /// Index into `rows` of the knee run: the knee, or the heaviest
    /// `transfer` `calm` row when the knee rule does not fire.
    fn knee_run(&self) -> usize {
        self.knee.unwrap_or_else(|| {
            let calm = |r: &ServingRow| r.mix == TRANSFER.name && r.variant == Variant::Calm;
            self.rows.iter().rposition(calm).expect("the sweep has calm transfer rows")
        })
    }

    /// The `serving` section of the benchmark record: the mixes, every
    /// row (a faulted row adds its fault era, burn during/after and the
    /// measured recovery), the knee, and at the knee the per-tenant
    /// outcomes, the utilization curve and the request-centric tail
    /// attribution — per tenant the exact p99, the five-component
    /// breakdown (sums to the tenant's total request time), exemplar
    /// request ids and the SLO burn curve.
    fn fragment(&self) -> Fragment {
        let mixes: Vec<String> = self
            .mixes
            .iter()
            .map(|(name, requests, seed, slo)| {
                format!(
                    "      {{\"mix\": \"{name}\", \"requests\": {requests}, \"seed\": {seed}, \
                     \"slo_p50_ns\": {}, \"slo_p99_ns\": {}}}",
                    slo.p50.0, slo.p99.0,
                )
            })
            .collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let era = r.faults.as_ref().map_or(String::new(), |f| {
                    format!(
                        ", \"fault_start_ns\": {}, \"fault_end_ns\": {}, \"burn_during\": {:.4}, \
                         \"burn_after\": {:.4}, \"recovered\": {}, \"recovery_ns\": {}",
                        f.start.0, f.end.0, f.burn_during, f.burn_after, f.recovered, f.recovery.0,
                    )
                });
                format!(
                    "      {{\"mix\": \"{}\", \"load\": \"{}\", \"variant\": \"{}\", \
                     \"mean_gap_ns\": {}, \"offered\": {}, \"admitted\": {}, \"rejected\": {}, \
                     \"shed\": {}, \"degraded\": {}, \"fast_failed\": {}, \"goodput\": {}, \
                     \"makespan_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"peak_util\": {:.6}, \
                     \"breaker_trips\": {}, \"last_arrival_ns\": {}{era}}}",
                    r.mix,
                    r.load,
                    r.variant.name(),
                    r.mean_gap.0,
                    r.offered,
                    r.admitted,
                    r.rejected,
                    r.shed,
                    r.degraded,
                    r.fast_failed,
                    r.goodput,
                    r.makespan.0,
                    r.p50.0,
                    r.p99.0,
                    r.peak_util,
                    r.breaker_trips,
                    r.last_arrival.0,
                )
            })
            .collect();
        let knee = &self.rows[self.knee_run()];
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
            members: format!(
                "\"serving\": {{\n    \"tenants\": {},\n    \
                 \"mixes\": [\n{}\n    ],\n    \
                 \"rows\": [\n{}\n    ],\n    \
                 \"knee\": {{\"load\": \"{}\", \"mean_gap_ns\": {}, \"p99_ns\": {}}},\n    \
                 \"knee_tenants\": [\n{}\n    ],\n    \
                 \"util_curve\": [\n{}\n    ],\n    \
                 \"tail_attribution\": [\n{}\n    ]\n  }}",
                self.tenants,
                mixes.join(",\n"),
                rows.join(",\n"),
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

/// The `transfer` mix: an interactive point lookup, a small analytics
/// fan-out, and a sharded bulk ingest, each handing 8–128 MiB outputs
/// between short tasks. Work jitters per request off the request seed.
pub fn transfer_templates() -> ServeLayer {
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

/// A task of the `crunch` mix: declared work `elems` of `class`, and a
/// body that charges it (the declared work alone is only the
/// scheduler's estimate).
fn crunch(name: impl Into<String>, class: WorkClass, elems: u64) -> TaskSpec {
    let body = move |ctx: &mut TaskCtx<'_, '_>| -> Result<(), TaskError> {
        ctx.compute(class, elems);
        Ok(())
    };
    TaskSpec::new(name).work(class, elems).body(body)
}

/// The `crunch` mix: the same three request shapes as `transfer`
/// (point lookup, analytics fan-out, sharded ingest) with heavy compute
/// — every task's body charges device time, so a crash interrupts real
/// work and its retry pays for it again. Compute is not what a request
/// waits for, though: at seed 0, full size, the `calm` rows' ready-queue
/// wait is 0 on all eight computes, the faulted rows' at most 22 µs in
/// all, and handover transfer is 100.6 of 172.9 ms of summed latency at
/// 12x (147.7 of 217.8 ms at 24x). Each template also carries a degraded
/// (brownout) variant: the same shape at roughly a quarter of the work —
/// a cheaper answer, not a refusal.
pub fn crunch_templates() -> ServeLayer {
    use WorkClass::{Scalar, Vector};
    let mut layer = ServeLayer::new();
    layer.register("interactive", |req: &Request| {
        let mut j = JobBuilder::new("interactive");
        let a = j.task(crunch("lookup", Scalar, 300_000 + req.seed % 60_000).output_bytes(1 << 20));
        let b = j.task(crunch("render", Scalar, 150_000));
        j.edge(a, b);
        j.build().expect("interactive template is a valid DAG")
    });
    layer.register("analytics", |req: &Request| {
        let mut j = JobBuilder::new("analytics");
        let scan_work = 10_000_000 + req.seed % 2_000_000;
        let scan = j.task(crunch("scan", Vector, scan_work).output_bytes(8 << 20));
        let agg = j.task(crunch("agg", Vector, 5_000_000).output_bytes(1 << 20));
        for i in 0..3 {
            let part = j.task(crunch(format!("part{i}"), Vector, 4_000_000).output_bytes(2 << 20));
            j.edge(scan, part);
            j.edge(part, agg);
        }
        j.build().expect("analytics template is a valid DAG")
    });
    layer.register("ingest", |req: &Request| {
        let mut j = JobBuilder::new("ingest");
        let recv = j.task(crunch("recv", Scalar, 200_000).output_bytes(16 << 20));
        let store = j.task(crunch("store", Scalar, 100_000));
        let shard_work = 6_000_000 + req.seed % 1_000_000;
        for i in 0..4 {
            let shard = j.task(crunch(format!("shard{i}"), Vector, shard_work).output_bytes(4 << 20));
            j.edge(recv, shard);
            j.edge(shard, store);
        }
        j.build().expect("ingest template is a valid DAG")
    });
    layer.register_degraded("interactive", |req: &Request| {
        let mut j = JobBuilder::new("interactive-lite");
        j.task(crunch("lookup", Scalar, 75_000 + req.seed % 15_000).output_bytes(1 << 20));
        j.build().expect("degraded interactive template is a valid DAG")
    });
    layer.register_degraded("analytics", |req: &Request| {
        let mut j = JobBuilder::new("analytics-lite");
        let w = 2_500_000 + req.seed % 500_000;
        let scan = j.task(crunch("scan", Vector, w).output_bytes(2 << 20));
        let agg = j.task(crunch("agg", Vector, 1_250_000).output_bytes(1 << 20));
        j.edge(scan, agg);
        j.build().expect("degraded analytics template is a valid DAG")
    });
    layer.register_degraded("ingest", |req: &Request| {
        let mut j = JobBuilder::new("ingest-lite");
        let recv = j.task(crunch("recv", Scalar, 50_000).output_bytes(4 << 20));
        let store = j.task(crunch("store", Scalar, 25_000));
        let w = 1_500_000 + req.seed % 250_000;
        let shard = j.task(crunch("shard0", Vector, w).output_bytes(2 << 20));
        j.edge(recv, shard);
        j.edge(shard, store);
        j.build().expect("degraded ingest template is a valid DAG")
    });
    layer
}

/// The mean service time of a template mix on the sweep's rack shape:
/// each template's fixed representative request, timed alone.
fn mean_service(layer: &ServeLayer, scenario: &Scenario) -> SimDuration {
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

/// The serving config of one point of `mix`: its seeded stream at
/// `divisor`'s gap, six tenants under Zipf 1.0, the quota and the mix's
/// SLO; the control plane for `faults+controls` only.
fn config(
    mix: &Mix,
    scenario: &Scenario,
    svc: SimDuration,
    divisor: u64,
    variant: Variant,
) -> ServeConfig {
    ServeConfig {
        arrivals: ArrivalProcess::Poisson { mean_gap: SimDuration((svc.0 * 4) / divisor) },
        requests: mix.requests(scenario),
        tenants: 6,
        zipf_theta: 1.0,
        seed: scenario.stream(mix.stream),
        // 512 MiB per tenant — two concurrent `transfer` ingests;
        // generous at light load, binding for the ingest tenants past
        // the knee. The sum of quotas (3 GiB) is also the utilization
        // curve's denominator.
        quota: Some(512u64 << 20),
        slo: Some(mix.slo(svc)),
        control: (variant == Variant::FaultsControls).then(ControlPlane::default),
        ..ServeConfig::default()
    }
}

/// The traced serving pass of `driver::serving_trace_artifacts`: the
/// `transfer` mix's heaviest `calm` point, ~8x its service capacity.
pub fn traced_pass(scenario: &Scenario) -> (ServeLayer, ServeConfig) {
    let layer = (TRANSFER.templates)();
    let svc = mean_service(&layer, scenario);
    let &(_, divisor) = TRANSFER.levels(scenario).last().expect("transfer has load levels");
    let cfg = config(&TRANSFER, scenario, svc, divisor, Variant::Calm);
    (layer, cfg)
}

/// The recovery policy the faulted variants run with: a real detector,
/// exponential backoff, and a bounded per-task retry cap.
fn recovery() -> RecoveryPolicy {
    RecoveryPolicy::default()
        .with_max_retries(8)
        .with_detection_delay(SimDuration(2_000))
        .with_backoff(SimDuration(1_000))
}

/// Rotating node-crash windows on `rack`, derived from the arrival span
/// `A` (the last request's arrival time): six crash/recover pairs
/// cycling over three of the four servers (node 3 never fails, so the
/// rack always has healthy capacity), starting at `A/4` with a new
/// window every `A/10`, each `A/5` long — the fault era spans `[A/4,
/// 0.95A)`, strictly inside the arrival span. Both faulted variants draw
/// the identical seeded arrival stream, and the last request cannot
/// complete before it arrives, so every run — however fast the control
/// plane finishes — outlives the era and has post-fault burn windows to
/// recover in. Adjacent windows overlap, so stretches of the era run
/// with two servers gone: sustained capacity loss, not just the crash
/// edges, is what the control plane has to survive.
fn fault_plan(rack: &Rack, span: SimDuration) -> (FaultInjector, SimTime, SimTime) {
    let t = span.0.max(60);
    let down = t / 5;
    let pitch = t / 10;
    let mut f = FaultInjector::none();
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

/// Burn during and after a fault era, aggregated across tenants on the
/// shared window grid and expressed against the 1% error budget (1.0 =
/// at budget); recovery is the time from the last node repair to the
/// end of the first post-fault window back at or below budget.
fn fault_era(report: &ServeReport, start: SimTime, end: SimTime) -> FaultEra {
    let grid = report.burn.first().map(|b| b.windows.len()).unwrap_or(0);
    let mut era = FaultEra {
        start,
        end,
        burn_during: 0.0,
        burn_after: 0.0,
        recovered: false,
        recovery: SimDuration(report.makespan.0.saturating_sub(end.0)),
    };
    for w in 0..grid {
        let (mut good, mut bad) = (0u64, 0u64);
        let (mut from, mut to) = (SimTime::ZERO, SimTime::ZERO);
        for tb in &report.burn {
            let win = &tb.windows[w];
            good += win.good;
            bad += win.bad;
            from = win.start;
            to = win.end;
        }
        let total = good + bad;
        let rate = if total == 0 { 0.0 } else { (bad as f64 / total as f64) / 0.01 };
        if from < end && to > start {
            era.burn_during = era.burn_during.max(rate);
        }
        if from >= end {
            era.burn_after = era.burn_after.max(rate);
            if !era.recovered && rate <= 1.0 {
                era.recovered = true;
                era.recovery = SimDuration(to.0.saturating_sub(end.0));
            }
        }
    }
    era
}

/// Runs one point and folds its report into a row; `span` is the
/// same-load `calm` row's last arrival, which anchors a faulted point's
/// fault plan.
fn run_point(
    mix: &Mix,
    scenario: &Scenario,
    svc: SimDuration,
    &(load, divisor): &Level,
    variant: Variant,
    span: SimDuration,
) -> (ServingRow, ServeReport) {
    let (topo, rack) = disaggregated_rack(4, 8, 2, 32);
    let cfg = config(mix, scenario, svc, divisor, variant);
    let (runtime, era) = match variant {
        Variant::Calm => (RuntimeConfig::traced(), None),
        Variant::ComputeCentric => (RuntimeConfig::compute_centric(), None),
        Variant::Faults | Variant::FaultsControls => {
            let (faults, start, end) = fault_plan(&rack, span);
            let runtime = RuntimeConfig::traced().with_faults(faults).with_recovery(recovery());
            (runtime, Some((start, end)))
        }
    };
    let mut rt = Runtime::new(topo, runtime);
    let report = (mix.templates)().run(&mut rt, &cfg).expect("a serving point completes");
    let slo = mix.slo(svc);
    // Sheds, rejections, fast-fails and over-SLO completions all miss.
    let goodput = report
        .requests
        .iter()
        .filter(|r| r.verdict == Verdict::Completed && r.latency.is_some_and(|l| l <= slo.p99))
        .count();
    let breaker_trips =
        rt.breaker_transitions().iter().filter(|t| t.to == BreakerState::Open).count();
    let row = ServingRow {
        mix: mix.name,
        load,
        variant,
        mean_gap: SimDuration((svc.0 * 4) / divisor),
        offered: report.offered,
        admitted: report.admitted,
        rejected: report.rejected,
        shed: report.shed,
        degraded: report.degraded,
        fast_failed: report.fast_failed,
        goodput,
        makespan: report.makespan,
        p50: report.p50(),
        p99: report.p99(),
        peak_util: report.peak_util,
        breaker_trips,
        last_arrival: report.requests.iter().map(|r| r.arrival).max().unwrap_or(report.makespan),
        faults: era.map(|(start, end)| fault_era(&report, start, end)),
    };
    (row, report)
}

/// Runs the sweep — every mix, level and variant — and extracts the
/// knee.
pub fn measure(scenario: &Scenario) -> ServingRecord {
    let mut rec = ServingRecord {
        tenants: 6,
        mixes: Vec::new(),
        rows: Vec::new(),
        knee: None,
        knee_tenants: Vec::new(),
        util_curve: Vec::new(),
        tail_attribution: Vec::new(),
        burn: Vec::new(),
    };
    // The reports of the `transfer` `calm` rows, by row index: one of
    // them is the knee run.
    let mut calm_reports = Vec::new();
    for mix in MIXES {
        let svc = mean_service(&(mix.templates)(), scenario);
        let seed = scenario.stream(mix.stream);
        rec.mixes.push((mix.name, mix.requests(scenario), seed, mix.slo(svc)));
        for level in mix.levels(scenario) {
            let mut span = SimDuration::ZERO;
            for &variant in mix.variants {
                let (row, report) = run_point(mix, scenario, svc, level, variant, span);
                if variant == Variant::Calm {
                    span = row.last_arrival;
                    if mix.name == TRANSFER.name {
                        calm_reports.push((rec.rows.len(), report));
                    }
                }
                rec.rows.push(row);
            }
        }
    }

    // The knee: the first `transfer` `calm` point whose p99 more than
    // doubles the lightest load's — queueing has taken over.
    let base_p99 = rec.rows[calm_reports[0].0].p99.0;
    rec.knee = calm_reports.iter().map(|(i, _)| *i).find(|&i| rec.rows[i].p99.0 > base_p99 * 2);
    let knee_run = rec.knee_run();
    let (_, run) =
        calm_reports.into_iter().find(|(i, _)| *i == knee_run).expect("the knee run is calm");
    rec.knee_tenants = run.tenants;
    rec.util_curve = run.util_curve.iter().map(|s| (s.at, s.frac)).collect();
    rec.tail_attribution = run.tail_attribution;
    rec.burn = run.burn;
    rec
}

/// Runs E17.
pub fn run(scenario: &Scenario) -> Table {
    let rec = measure(scenario);
    let mut t = Table::new(
        "serving",
        "Serving: open-loop Poisson/Zipf traffic by mix, offered load and variant (goodput = completions within p99 SLO)",
        &[
            "Mix", "Load", "Variant", "Gap", "Offered", "Admitted", "Rejected", "Shed", "Degraded",
            "FastFail", "Goodput", "p50", "p99", "PeakUtil", "Trips", "BurnDuring", "BurnAfter",
            "Recovery", "Knee",
        ],
    );
    for (i, r) in rec.rows.iter().enumerate() {
        let era = |cell: fn(&FaultEra) -> String| r.faults.as_ref().map_or("-".into(), cell);
        t.row(vec![
            r.mix.to_string(),
            r.load.to_string(),
            r.variant.name().to_string(),
            fmt_dur(r.mean_gap),
            r.offered.to_string(),
            r.admitted.to_string(),
            r.rejected.to_string(),
            r.shed.to_string(),
            r.degraded.to_string(),
            r.fast_failed.to_string(),
            r.goodput.to_string(),
            fmt_dur(r.p50),
            fmt_dur(r.p99),
            format!("{:.4}", r.peak_util),
            r.breaker_trips.to_string(),
            era(|f| format!("{:.2}", f.burn_during)),
            era(|f| format!("{:.2}", f.burn_after)),
            era(|f| if f.recovered { fmt_dur(f.recovery) } else { "never".into() }),
            if rec.knee == Some(i) { "<-".to_string() } else { String::new() },
        ]);
    }
    t.note(format!(
        "{} tenants (Zipf 1.0), 512 MiB quota each; load = requests per mean service time; all latencies are virtual time, so the sweep is bit-for-bit deterministic",
        rec.tenants
    ));
    for (name, requests, seed, slo) in &rec.mixes {
        t.note(format!(
            "{name}: {requests} requests/point, seed {seed:#x}, SLO p50 {} / p99 {}",
            fmt_dur(slo.p50),
            fmt_dur(slo.p99)
        ));
    }
    t.note("faulted rows: six rotating node-crash windows anchored to the arrival span of the calm row at the same load; burn rates are against the 1% error budget (1.0 = at budget), peak over the shared window grid");

    let calm = rec.rows_of(TRANSFER.name, Variant::Calm);
    let met = rec.knee_tenants.iter().filter(|t| t.slo_met).count();
    let knee = match rec.knee {
        Some(k) => format!("transfer knee at {}", rec.rows[k].load),
        None => "no transfer knee, the heaviest calm point stands in".to_string(),
    };
    t.note(format!("{knee} ({met} of {} tenants met their SLO there)", rec.knee_tenants.len()));
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
        vec![calm[0].p99.0 as f64, calm[calm.len() - 1].p99.0 as f64],
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

    let centric = rec.rows_of(TRANSFER.name, Variant::ComputeCentric);
    let ratio = |a: SimDuration, b: SimDuration| a.as_nanos_f64() / b.as_nanos_f64();
    let gaps: Vec<[f64; 2]> =
        centric.iter().zip(&calm).map(|(c, d)| [ratio(c.p50, d.p50), ratio(c.p99, d.p99)]).collect();
    let shown: Vec<String> = calm
        .iter()
        .zip(&gaps)
        .map(|(r, [p50, p99])| format!("{} {}/{}", r.load, fmt_ratio(*p50), fmt_ratio(*p99)))
        .collect();
    t.note(format!("transfer, compute-centric over calm (p50/p99): {}", shown.join(", ")));
    t.claim(
        "compute-centric-is-slower-at-every-load",
        "at every transfer load the compute-centric runtime's p50 and p99 are no lower than the declarative runtime's (compute-centric over calm)",
        Shape::AtLeast(1.0),
        gaps.concat(),
    );

    let base = rec.rows_of(CRUNCH.name, Variant::Faults);
    let ctrl = rec.rows_of(CRUNCH.name, Variant::FaultsControls);
    let era = |r: &ServingRow| r.faults.expect("a faulted row has a fault era");
    let goodput = |rows: &[&ServingRow]| rows.iter().map(|r| r.goodput).sum::<usize>();
    t.claim(
        "baseline-is-uncontrolled",
        "the baseline runs without the control plane: no breaker trips, sheds or degradations (their count per baseline run)",
        Shape::AtMost(0.0),
        base.iter().map(|r| (r.breaker_trips + r.shed + r.degraded) as f64).collect(),
    );
    // Goodput is reported, not claimed: with a retry's regions placed
    // on live devices the baseline misses few requests, and controlled
    // minus baseline goodput changes sign from seed to seed — every
    // controlled loss is requests it shed (EXPERIMENTS.md).
    t.note(format!(
        "crunch SLO goodput across the faulted sweep: controlled {} vs baseline {}",
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
        ctrl.iter().map(|r| f64::from(era(r).recovered)).collect(),
    );
    t.claim(
        "post-fault-burn-stays-in-budget",
        "controlled runs: peak post-fault burn rate, and recovery time over makespan",
        Shape::AtMost(1.0),
        ctrl.iter()
            .flat_map(|r| {
                let f = era(r);
                [f.burn_after, f.recovery.as_nanos_f64() / r.makespan.as_nanos_f64()]
            })
            .collect(),
    );
    t.record = Some(rec.fragment());
    t
}
