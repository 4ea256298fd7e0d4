//! `serve_bulk` and `serve_ctrl` — the same rack and the same
//! `ServeLayer::run`, used two ways.
//!
//! `serve_bulk` offers few requests with 2–32 MiB outputs and no
//! controls: the region data plane (backing, zeroing, free) dominates
//! host time and the event loop is idle. `serve_ctrl` offers many tiny
//! requests with quota, SLO and the control plane on, traced: admission,
//! epochs, shedding, span assembly and burn accounting dominate and
//! bytes cost nothing. A data-plane gain must not show on `serve_ctrl`
//! and a serve/obs gain must not show on `serve_bulk`.

use disagg_core::obs::{
    assemble_request_spans, chrome_trace, slo_burn_by, tail_attribution, validate_chrome_trace,
};
use disagg_core::{Runtime, RuntimeConfig, Submission};
use disagg_dataflow::job::{JobBuilder, JobSpec};
use disagg_dataflow::task::TaskSpec;
use disagg_hwsim::compute::{ComputeKind, WorkClass};
use disagg_hwsim::contention::{BandwidthLedger, ResourceKey};
use disagg_hwsim::presets::disaggregated_rack;
use disagg_hwsim::rng::SimRng;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;
use disagg_region::pool::MemoryPool;
use disagg_sched::schedule::Scheduler;
use disagg_serve::{
    ArrivalProcess, ControlPlane, QuotaTracker, Request, ServeConfig, ServeLayer, ServeReport, Slo,
    Verdict,
};

use super::{digest_report, time_per_call, worked, PassOutcome, Size, Workload};
use crate::stats::{median, percentile, rung_in_slo, sorted_completed, Fnv};
use crate::tracer::Tracer;

/// Which of the two serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Bulk,
    Ctrl,
}

/// `serve_bulk`: one unit of template output. The E17 templates size
/// their outputs 8–128 MiB; at that size one pass costs 4–17 s of page
/// faults on the 2-core box, so the shapes are kept and the unit is a
/// quarter MiB: outputs of 2–32 MiB, about a second per pass.
const BULK_UNIT: u64 = 256 << 10;
/// `serve_bulk`: mean arrival gap — far denser than the mean service
/// time, so the rack is saturated from the first request to the last.
const BULK_GAP_NS: u64 = 5_000;
/// `serve_bulk`: completed within this counts as goodput. Fixed; seed 1
/// lands at 0.92.
const BULK_LIMIT_NS: u64 = 1_000_000;
/// `serve_ctrl`: the per-tenant SLO, and the limit a ladder rung must
/// hold at p99.
const CTRL_SLO: Slo = Slo {
    p50: SimDuration(4_000),
    p99: SimDuration(40_000),
};
/// `serve_ctrl`: completed within this counts as goodput. Fixed; sits
/// between the lookup and the fan-out latency clusters, seed 1 lands at
/// 0.72.
const CTRL_LIMIT_NS: u64 = 5_000;
/// `serve_ctrl`: mean arrival gaps of the rate ladder, loosest first,
/// a factor √2 apart. The rack saturates near 39 ns, midway between two
/// rungs, so each rung's verdict is the same at every seed.
const LADDER_GAPS_NS: [u64; 8] = [200, 141, 100, 71, 50, 35, 25, 18];
/// `serve_ctrl`: mean arrival gap of the timed passes: two rungs looser
/// than the tightest rung in SLO. One rung looser, the control plane
/// degrades half the requests and the median flips between the two
/// halves from seed to seed.
const CTRL_GAP_NS: u64 = LADDER_GAPS_NS[2];
/// SLO burn windows, as `ServeLayer::run` uses.
const BURN_WINDOWS: usize = 16;
/// `serve_ctrl`: scalar elements of a full task; degraded variants do a
/// quarter.
const CTRL_WORK: u64 = 2_000;

pub struct Serve {
    kind: Kind,
    layer: ServeLayer,
    cfg: ServeConfig,
    ladder_requests: usize,
}

/// The three E17 template shapes — an interactive point lookup, a small
/// analytics fan-out and a sharded bulk ingest — behind one registered
/// template that deals them out by request index in the 3:2:1 ratio of
/// a six-tenant Zipf(1.0) mix. Dealing by index instead of by sampled
/// tenant keeps the bytes a pass materialises the same at every seed, so
/// host time does not inherit the sampling noise of 48 draws.
fn bulk_templates() -> ServeLayer {
    let units = |n: u64| n * BULK_UNIT;
    let mut layer = ServeLayer::new();
    layer.register("bulk-mix", move |req: &Request| match req.index % 6 {
        0..=2 => {
            let mut j = JobBuilder::new("interactive");
            let a = j.task(
                worked("lookup", WorkClass::Scalar, 20_000 + req.seed % 4_000)
                    .output_bytes(units(8)),
            );
            let b = j.task(worked("render", WorkClass::Scalar, 10_000));
            j.edge(a, b);
            j.build().expect("interactive shape is a valid DAG")
        }
        3 | 4 => {
            let mut j = JobBuilder::new("analytics");
            let scan = j.task(
                worked("scan", WorkClass::Vector, 40_000 + req.seed % 8_000)
                    .output_bytes(units(64)),
            );
            let agg = j.task(worked("agg", WorkClass::Vector, 20_000).output_bytes(units(8)));
            for i in 0..3 {
                let part = j.task(
                    worked(format!("part{i}"), WorkClass::Vector, 15_000).output_bytes(units(16)),
                );
                j.edge(scan, part);
                j.edge(part, agg);
            }
            j.build().expect("analytics shape is a valid DAG")
        }
        _ => {
            let mut j = JobBuilder::new("ingest");
            let recv = j.task(worked("recv", WorkClass::Scalar, 15_000).output_bytes(units(128)));
            let store = j.task(worked("store", WorkClass::Scalar, 8_000));
            for i in 0..4 {
                let shard = j.task(
                    worked(
                        format!("shard{i}"),
                        WorkClass::Vector,
                        25_000 + req.seed % 5_000,
                    )
                    .output_bytes(units(32)),
                );
                j.edge(recv, shard);
                j.edge(shard, store);
            }
            j.build().expect("ingest shape is a valid DAG")
        }
    });
    layer
}

/// Two small templates with KiB outputs, each with a cheaper degraded
/// variant for brownout: a two-step lookup and a 1→2→1 fan-out.
fn ctrl_templates() -> ServeLayer {
    fn cpu(name: impl Into<String>, elems: u64) -> TaskSpec {
        worked(name, WorkClass::Scalar, elems).require(ComputeKind::Cpu)
    }
    fn lookup(work: u64, req: &Request) -> JobSpec {
        let mut j = JobBuilder::new("lookup");
        let a = j.task(cpu("probe", work + req.seed % 400).output_bytes(1 << 10));
        let b = j.task(cpu("reply", work / 2));
        j.edge(a, b);
        j.build().expect("lookup template is a valid DAG")
    }
    fn fanout(work: u64, req: &Request) -> JobSpec {
        let mut j = JobBuilder::new("fanout");
        let split = j.task(cpu("split", work + req.seed % 400).output_bytes(4 << 10));
        let join = j.task(cpu("join", work / 2).output_bytes(1 << 10));
        for i in 0..2 {
            let part = j.task(cpu(format!("part{i}"), work).output_bytes(2 << 10));
            j.edge(split, part);
            j.edge(part, join);
        }
        j.build().expect("fanout template is a valid DAG")
    }
    let mut layer = ServeLayer::new();
    layer.register("lookup", |req: &Request| lookup(CTRL_WORK, req));
    layer.register_degraded("lookup", |req: &Request| lookup(CTRL_WORK / 4, req));
    layer.register("fanout", |req: &Request| fanout(CTRL_WORK, req));
    layer.register_degraded("fanout", |req: &Request| fanout(CTRL_WORK / 4, req));
    layer
}

impl Serve {
    pub fn setup(kind: Kind, seed: u64, size: Size) -> Serve {
        match kind {
            Kind::Bulk => Serve {
                kind,
                layer: bulk_templates(),
                cfg: ServeConfig {
                    arrivals: ArrivalProcess::Poisson {
                        mean_gap: SimDuration(BULK_GAP_NS),
                    },
                    requests: if size == Size::Full { 48 } else { 8 },
                    tenants: 6,
                    zipf_theta: 1.0,
                    seed: seed ^ 0xb01c,
                    ..ServeConfig::default()
                },
                ladder_requests: 0,
            },
            Kind::Ctrl => Serve {
                kind,
                layer: ctrl_templates(),
                cfg: ServeConfig {
                    arrivals: ArrivalProcess::Poisson {
                        mean_gap: SimDuration(CTRL_GAP_NS),
                    },
                    requests: if size == Size::Full { 32_000 } else { 2_000 },
                    tenants: 6,
                    zipf_theta: 1.0,
                    seed: seed ^ 0xc7e1,
                    quota: Some(1 << 20),
                    slo: Some(CTRL_SLO),
                    control: Some(ControlPlane::default()),
                    ..ServeConfig::default()
                },
                ladder_requests: if size == Size::Full { 8_000 } else { 4_000 },
            },
        }
    }

    fn topology() -> Topology {
        disaggregated_rack(4, 8, 2, 32).0
    }

    fn rt_config(&self) -> RuntimeConfig {
        match self.kind {
            Kind::Bulk => RuntimeConfig::default(),
            Kind::Ctrl => RuntimeConfig::traced(),
        }
    }

    fn run(
        &self,
        cfg: &ServeConfig,
        config: RuntimeConfig,
        t: &mut Tracer,
    ) -> Result<(Runtime, ServeReport), String> {
        let topo = t.span("hwsim.topology_build", |_| Self::topology());
        let mut rt = t.span("core.runtime_new", |_| Runtime::new(topo, config));
        let report = t
            .span("serve.run", |_| self.layer.run(&mut rt, cfg))
            .map_err(|e| format!("serve run: {e}"))?;
        Ok((rt, report))
    }

    /// The request stream `ServeLayer::run` draws from `cfg.seed`: same
    /// forks, same order.
    fn requests(&self, cfg: &ServeConfig) -> Vec<Request> {
        let mut rng = SimRng::new(cfg.seed);
        let offsets = cfg.arrivals.sample_offsets(cfg.requests, &mut rng.fork(0));
        let zipf = disagg_workloads::gen::Zipf::new(cfg.tenants, cfg.zipf_theta);
        let mut tenant_rng = rng.fork(1);
        let mut seed_rng = rng.fork(2);
        offsets
            .into_iter()
            .enumerate()
            .map(|(index, arrival)| Request {
                index,
                tenant: zipf.sample(&mut tenant_rng),
                arrival,
                seed: seed_rng.next_u64(),
            })
            .collect()
    }
}

/// Latency per offered request, `None` unless it completed.
fn latencies(report: &ServeReport) -> Vec<Option<u64>> {
    report
        .requests
        .iter()
        .map(|r| match r.verdict {
            Verdict::Completed => r.latency.map(|l| l.as_nanos()),
            _ => None,
        })
        .collect()
}

impl Workload for Serve {
    fn pass(&self, t: &mut Tracer) -> Result<PassOutcome, String> {
        let (rt, report) = self.run(&self.cfg, self.rt_config(), t)?;

        let mut out = PassOutcome {
            fault_slowdown: 1.0,
            ..PassOutcome::default()
        };
        let mut h = Fnv::new();
        digest_report(&mut h, &report.run);
        for r in &report.requests {
            h.word(r.verdict as u64);
            h.word(u64::from(r.degraded));
        }
        out.digest = h.finish();
        out.makespan_ns = report.makespan.as_nanos();
        out.virtual_span_ns = out.makespan_ns;
        out.events = report.run.events;
        out.tasks = report.run.tasks.len();
        out.bytes_moved = report.run.bytes_moved;
        out.latencies = latencies(&report);
        out.check(report.requests.len() == self.cfg.requests, || {
            format!(
                "{} request records for {} offered",
                report.requests.len(),
                self.cfg.requests
            )
        });
        out.check(
            report.admitted + report.rejected + report.shed == report.offered,
            || "admitted + rejected + shed != offered".to_string(),
        );
        // Every request span's five components sum to its latency.
        let span_mismatches = report
            .spans
            .iter()
            .filter(|s| s.attribution.total() != s.latency())
            .count();
        out.check(span_mismatches == 0, || {
            format!("{span_mismatches} request spans do not sum to their latency")
        });
        if self.kind == Kind::Ctrl {
            out.check(
                report.spans.len() == report.admitted - report.fast_failed,
                || {
                    format!(
                        "{} spans for {} completed requests",
                        report.spans.len(),
                        report.admitted
                    )
                },
            );
        }
        let completed = sorted_completed(&out.latencies);
        let hist_over_exact = if completed.is_empty() {
            0.0
        } else {
            report.p99().as_nanos() as f64 / percentile(&completed, 0.99) as f64
        };
        out.counters = vec![
            ("serve.admitted", report.admitted as f64),
            ("serve.rejected", report.rejected as f64),
            ("serve.shed", report.shed as f64),
            ("serve.degraded", report.degraded as f64),
            ("serve.fast_failed", report.fast_failed as f64),
            ("serve.peak_util", report.peak_util),
            ("obs.span_sum_mismatches", span_mismatches as f64),
            ("obs.hist_p99_over_exact", hist_over_exact),
        ];
        t.span("core.drop", |_| drop((rt, report)));
        Ok(out)
    }

    fn latency_limit_ns(&self) -> Option<u64> {
        Some(match self.kind {
            Kind::Bulk => BULK_LIMIT_NS,
            Kind::Ctrl => CTRL_LIMIT_NS,
        })
    }

    fn max_rate_in_slo(&self, t: &mut Tracer) -> Result<Option<f64>, String> {
        if self.kind != Kind::Ctrl {
            return Ok(None);
        }
        // Virtual time only: control off, untraced, fewer requests.
        let limit = CTRL_SLO.p99.as_nanos();
        let mut tightest_in: Option<u64> = None;
        let mut any_out = false;
        t.span("bench.ladder", |_| -> Result<(), String> {
            for gap in LADDER_GAPS_NS {
                let cfg = ServeConfig {
                    arrivals: ArrivalProcess::Poisson {
                        mean_gap: SimDuration(gap),
                    },
                    requests: self.ladder_requests,
                    control: None,
                    ..self.cfg.clone()
                };
                let (_rt, report) =
                    self.run(&cfg, RuntimeConfig::default(), &mut Tracer::new(false))?;
                if rung_in_slo(&latencies(&report), limit) {
                    tightest_in = Some(gap);
                } else {
                    any_out = true;
                }
            }
            Ok(())
        })?;
        // The ladder must cross the knee: fail rather than fall back.
        match (tightest_in, any_out) {
            (Some(gap), true) => Ok(Some(1e9 / gap as f64)),
            (None, _) => Err("rate ladder: no rung meets the latency limit".into()),
            (Some(_), false) => {
                Err("rate ladder: every rung meets the limit, the knee is not reached".into())
            }
        }
    }

    fn replay(
        &self,
        first: &PassOutcome,
        t: &mut Tracer,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let mut m: Vec<(&'static str, f64)> = Vec::new();
        let topo = Self::topology();
        let n = self.cfg.requests;
        let requests = self.requests(&self.cfg);

        // serve: ServeLayer::run against Runtime::execute on the same
        // jobs at the same offsets (admitted requests only).
        let run_s = t.median_s("serve.run");
        let admitted: Vec<&Request> = requests
            .iter()
            .zip(&first.latencies)
            .filter_map(|(r, l)| l.map(|_| r))
            .collect();
        let mut exec_s = Vec::new();
        for _ in 0..3 {
            let arrivals: Vec<(SimDuration, JobSpec)> = admitted
                .iter()
                .map(|r| (r.arrival, self.layer.instantiate(r.tenant, r)))
                .collect();
            let mut rt = Runtime::new(Self::topology(), self.rt_config());
            let (report, s) = t.timed("replay.execute", |_| {
                rt.execute(Submission::arriving(arrivals))
            });
            let report = report.map_err(|e| format!("replayed execute: {e}"))?;
            exec_s.push(s);
            drop((rt, report));
        }
        let exec_s = median(&exec_s);
        m.push(("serve.run_ms_per_pass", run_s * 1e3));
        m.push(("serve.overhead_over_execute", run_s / exec_s));

        if self.kind == Kind::Bulk {
            // region: alloc + free over the pass's output-size multiset.
            let jobs: Vec<JobSpec> = admitted
                .iter()
                .map(|r| self.layer.instantiate(r.tenant, r))
                .collect();
            let sizes: Vec<u64> = jobs
                .iter()
                .flat_map(|j| j.tasks.iter().map(|t| t.output_bytes))
                .filter(|&b| b > 0)
                .collect();
            let mems: Vec<_> = topo.mem_ids().collect();
            let mut walls = Vec::new();
            for _ in 0..3 {
                let mut pool = MemoryPool::new(&topo);
                let ((), s) = t.timed("region.pool_bulk_alloc_free", |_| {
                    for (i, &size) in sizes.iter().enumerate() {
                        let id = pool.alloc(mems[i % mems.len()], size).expect("output fits");
                        pool.free(id).expect("just allocated");
                    }
                });
                walls.push(s);
            }
            m.push((
                "region.pool_bulk_alloc_free_us_per_op",
                median(&walls) * 1e6 / sizes.len() as f64,
            ));

            // hwsim: one overlapping multi-MiB reservation per transfer.
            let mut ledger = BandwidthLedger::default_buckets();
            let mut i = 0usize;
            let contended_s = t.span("hwsim.ledger_reserve_contended", |_| {
                time_per_call(sizes.len(), || {
                    let size = sizes[i % sizes.len()];
                    i += 1;
                    std::hint::black_box(ledger.reserve(
                        ResourceKey::Mem(mems[0]),
                        SimTime(i as u64 * 1_000),
                        size as f64,
                        64.0,
                    ));
                })
            });
            m.push((
                "hwsim.ledger_reserve_contended_ns_per_call",
                contended_s * 1e9,
            ));
        }

        if self.kind == Kind::Ctrl {
            // core: events per host second of the whole serving run. Not
            // reported on `serve_bulk`, where host time is bounded by
            // bytes materialised, not by events.
            m.push(("core.ns_per_event", run_s * 1e9 / first.events as f64));
            m.push(("core.events_per_host_s", first.events as f64 / run_s));

            // dataflow + serve: template instantiation per request.
            let mut k = 0usize;
            let inst_s = t.span("serve.instantiate", |_| {
                time_per_call(n, || {
                    let r = &requests[k % n];
                    k += 1;
                    std::hint::black_box(self.layer.instantiate(r.tenant, r));
                })
            });
            m.push(("serve.instantiate_ns_per_req", inst_s * 1e9));
            m.push(("dataflow.job_build_us_per_job", inst_s * 1e6));

            let mut rng = SimRng::new(self.cfg.seed);
            let offs_s = t.span("serve.sample_offsets", |_| {
                time_per_call(3, || {
                    std::hint::black_box(self.cfg.arrivals.sample_offsets(n, &mut rng));
                })
            });
            m.push(("serve.sample_offsets_ns_per_req", offs_s * 1e9 / n as f64));

            let mut quotas = QuotaTracker::new(self.cfg.tenants, self.cfg.quota);
            let mut k = 0usize;
            let mut epoch = 0u64;
            let quota_s = t.span("serve.quota_admit", |_| {
                time_per_call(n, || {
                    let r = &requests[k % n];
                    if k.is_multiple_of(n) {
                        epoch += 1;
                    }
                    k += 1;
                    let at = SimTime(epoch * 1_000_000_000) + r.arrival;
                    quotas.release_until(at);
                    std::hint::black_box(quotas.admit(r.tenant, 8 << 10, at, SimDuration(2_000)));
                })
            });
            m.push(("serve.quota_admit_ns_per_req", quota_s * 1e9));

            // sched: plan the pass's jobs.
            let jobs: Vec<JobSpec> = admitted
                .iter()
                .map(|r| self.layer.instantiate(r.tenant, r))
                .collect();
            let refs: Vec<_> = jobs
                .iter()
                .enumerate()
                .map(|(j, s)| (disagg_dataflow::job::JobId(j as u64), s))
                .collect();
            let tasks: usize = jobs.iter().map(|j| j.tasks.len()).sum();
            let scheduler = Scheduler::default();
            let mut plan_s = Vec::new();
            for _ in 0..3 {
                let (plan, s) = t.timed("sched.plan", |_| scheduler.plan(&topo, &refs));
                plan.map_err(|e| format!("replayed plan: {e:?}"))?;
                plan_s.push(s);
            }
            let plan_s = median(&plan_s);
            m.push(("sched.plan_us_per_pass", plan_s * 1e6));
            m.push(("sched.plan_ns_per_task", plan_s * 1e9 / tasks as f64));

            // obs: span assembly, attribution, burn and export on the
            // pass's own trace.
            let (rt, report) = self.run(&self.cfg, self.rt_config(), &mut Tracer::new(false))?;
            let events = rt.trace().events();
            let mut asm_s = Vec::new();
            let mut tail_s = Vec::new();
            let mut burn_s = Vec::new();
            for _ in 0..3 {
                let (spans, s) = t.timed("obs.assemble_spans", |_| assemble_request_spans(events));
                asm_s.push(s);
                let (tail, s) = t.timed("obs.tail_attribution", |_| tail_attribution(&spans));
                tail_s.push(s);
                let (burn, s) = t.timed("obs.slo_burn", |_| {
                    slo_burn_by(&spans, BURN_WINDOWS, |_| Some(CTRL_SLO.p99))
                });
                burn_s.push(s);
                std::hint::black_box((tail, burn));
            }
            m.push((
                "obs.assemble_spans_ns_per_event",
                median(&asm_s) * 1e9 / events.len() as f64,
            ));
            m.push(("obs.tail_attribution_us", median(&tail_s) * 1e6));
            m.push(("obs.slo_burn_us", median(&burn_s) * 1e6));
            let (valid, export_s) = t.timed("obs.chrome_trace", |_| {
                validate_chrome_trace(&chrome_trace(events, rt.topology()))
            });
            valid.map_err(|e| format!("emitted chrome trace invalid: {e}"))?;
            m.push((
                "obs.chrome_trace_ns_per_event",
                export_s * 1e9 / events.len() as f64,
            ));
            drop((rt, report));
        }
        Ok(m)
    }
}
