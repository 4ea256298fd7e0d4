//! # disagg-serve — open-loop request serving for the disagg runtime
//!
//! Every workload elsewhere in this repository is a pre-built DAG run
//! to completion. A production disaggregated runtime instead faces an
//! *open* stream of requests from many tenants — "disaggregation must
//! be evaluated against live application traffic, not beside it". This
//! crate puts that traffic in front of the executor:
//!
//! - **Arrival processes** ([`ArrivalProcess`]): Poisson arrivals in
//!   virtual time, seeded via `SimRng`.
//! - **Tenant mix**: requests are attributed to tenants by a Zipf draw
//!   (`disagg_workloads::gen::Zipf`) — tenant 0 is the hottest.
//! - **Templates**: each tenant maps to a registered job template; a
//!   template instantiates a fresh DAG per request from a derived seed.
//! - **Admission** ([`QuotaTracker`]): one memory-pool quota per tenant,
//!   charged with [`admission::predicted_footprint`] and a calibrated
//!   service-time estimate; decisions are causal and identical on every
//!   execution.
//! - **SLOs** ([`Slo`]): one p50/p99 sojourn target for every tenant, in
//!   virtual time, held per tenant against exact order statistics
//!   (`disagg_obs::nearest_rank`) of the completed requests' latencies.
//!
//! The whole pipeline is virtual-time-only: a seeded [`ServeConfig`]
//! produces a bit-for-bit identical [`ServeReport`] on every run.
//!
//! ```
//! use disagg_core::prelude::*;
//! use disagg_serve::{ArrivalProcess, ServeConfig, ServeLayer};
//!
//! let (topo, _ids) = disagg_hwsim::presets::single_server();
//! let mut rt = Runtime::new(topo, RuntimeConfig::default());
//!
//! let mut layer = ServeLayer::new();
//! layer.register("echo", |req| {
//!     let mut j = JobBuilder::new("echo");
//!     j.task(TaskSpec::new("work").work(WorkClass::Scalar, 10_000 + (req.seed % 1000)));
//!     j.build().unwrap()
//! });
//!
//! let cfg = ServeConfig {
//!     requests: 16,
//!     tenants: 2,
//!     arrivals: ArrivalProcess::Poisson { mean_gap: SimDuration::from_micros(5) },
//!     ..ServeConfig::default()
//! };
//! let report = layer.run(&mut rt, &cfg).unwrap();
//! assert_eq!(report.offered, 16);
//! assert_eq!(report.admitted + report.rejected, 16);
//! ```

pub mod admission;
pub mod arrival;
pub mod report;

pub use admission::QuotaTracker;
pub use arrival::ArrivalProcess;
pub use report::{RequestRecord, ServeReport, Slo, TenantStats, UtilSample, Verdict};

use disagg_core::report::RunReport;
use disagg_core::{Runtime, RuntimeConfig, RuntimeError, Submission};
use disagg_dataflow::job::JobSpec;
use disagg_hwsim::rng::SimRng;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;
use disagg_hwsim::trace::TraceEvent;
use disagg_obs::{assemble_request_spans, RequestSpan};
use disagg_workloads::gen::Zipf;

/// Context handed to a job template when instantiating one request.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Position in the arrival sequence.
    pub index: usize,
    /// Issuing tenant (Zipf rank; 0 = hottest).
    pub tenant: usize,
    /// Arrival offset relative to the serving run's start.
    pub arrival: SimDuration,
    /// Per-request seed for sizing/body randomness inside the template.
    pub seed: u64,
}

/// Turns on the overload- and fault-aware serving controls, all
/// deterministic in virtual time; `None` on [`ServeConfig::control`]
/// runs the whole stream as one batch under quota admission only. The
/// control law has no settings — its constants are the four below:
///
/// - The runtime's half of the plane: [`Runtime::enable_fault_control`]
///   (per-node circuit breakers) is on for the run and after it.
///   Failure isolation is not part of the plane: with or without it, a
///   request whose task exhausts the runtime's retry cap fails alone
///   ([`Verdict::FastFailed`]) while the rest of the stream runs on.
/// - The request stream is split into `EPOCHS` **epochs**; each epoch's
///   admitted jobs run as one submission.
/// - **Deadline shedding**, per arrival: a request whose completion
///   estimate — the calibrated service time inflated by `DEPTH_FACTOR`
///   per in-flight request of its tenant, plus the wait for its epoch —
///   misses the tenant's p99 SLO is admitted on the tenant's degraded
///   template if the estimate at `DEGRADED_COST_RATIO` fits, and shed
///   otherwise. Tenants without an SLO are never shed.
/// - **Brownout**, per epoch boundary: a tenant switches to its
///   degraded template while any circuit breaker is open or more than
///   `BROWNOUT_BAD_FRACTION` of its requests in the closing epoch were
///   shed, failed fast or finished over p99.
///
/// What each control buys, measured by removing it alone from the
/// `serving` experiment's faulted `crunch` rows, is EXPERIMENTS.md's
/// "What each serving control buys".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ControlPlane {}

const EPOCHS: usize = 8;
const DEPTH_FACTOR: f64 = 0.5;
const DEGRADED_COST_RATIO: f64 = 0.25;
const BROWNOUT_BAD_FRACTION: f64 = 0.25;

/// Describes one open-loop serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// When requests arrive.
    pub arrivals: ArrivalProcess,
    /// How many requests the run offers.
    pub requests: usize,
    /// Number of tenants in the mix.
    pub tenants: usize,
    /// Zipf skew across tenants (0 = uniform, ~1 = classic).
    pub zipf_theta: f64,
    /// Root seed; everything downstream forks from it.
    pub seed: u64,
    /// Every tenant's memory quota in bytes (`None` = unlimited).
    pub quota: Option<u64>,
    /// Every tenant's latency SLO (`None` = no SLO).
    pub slo: Option<Slo>,
    /// Overload/fault controls; `None` runs one batch under quota
    /// admission only.
    pub control: Option<ControlPlane>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            arrivals: ArrivalProcess::Poisson { mean_gap: SimDuration::from_micros(10) },
            requests: 64,
            tenants: 4,
            zipf_theta: 0.9,
            seed: 42,
            quota: None,
            slo: None,
            control: None,
        }
    }
}

type TemplateFn = Box<dyn Fn(&Request) -> JobSpec>;

/// One registered template: the primary job builder plus an optional
/// degraded (brownout) variant serving cheaper answers under stress.
struct Template {
    name: String,
    make: TemplateFn,
    degraded: Option<TemplateFn>,
}

/// A registry of job templates plus the serving loop over them.
///
/// Tenant `t` is served by template `t % templates`, so one template
/// serves a uniform fleet and several templates make a heterogeneous
/// mix.
#[derive(Default)]
pub struct ServeLayer {
    templates: Vec<Template>,
}

impl ServeLayer {
    /// An empty registry.
    pub fn new() -> ServeLayer {
        ServeLayer { templates: Vec::new() }
    }

    /// Registers a job template under a name; returns `self` for
    /// chaining.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        template: impl Fn(&Request) -> JobSpec + 'static,
    ) -> &mut ServeLayer {
        self.templates.push(Template {
            name: name.into(),
            make: Box::new(template),
            degraded: None,
        });
        self
    }

    /// Attaches a degraded (brownout) variant to an already registered
    /// template: while a tenant is browned out, new requests
    /// instantiate this cheaper job instead of the primary one.
    ///
    /// # Panics
    ///
    /// Panics when no template named `name` is registered.
    pub fn register_degraded(
        &mut self,
        name: &str,
        template: impl Fn(&Request) -> JobSpec + 'static,
    ) -> &mut ServeLayer {
        let t = self
            .templates
            .iter_mut()
            .find(|t| t.name == name)
            .expect("register the primary template before its degraded variant");
        t.degraded = Some(Box::new(template));
        self
    }

    /// Number of registered templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// True when no template is registered.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Instantiates one request's job from the template serving
    /// `tenant` — what the serving loop does internally, exposed for
    /// calibration and tests.
    pub fn instantiate(&self, tenant: usize, req: &Request) -> JobSpec {
        (self.templates[tenant % self.templates.len()].make)(req)
    }

    /// The virtual time `req`'s job takes alone on a fresh default
    /// runtime over `topo`: the service-time probe behind admission
    /// estimates (one representative request per template) and behind
    /// experiments that scale SLOs and arrival gaps to the workload.
    /// Zero when the probe run fails; the serving run itself then
    /// surfaces the error. Measured latencies never come from here.
    pub fn service_time(&self, topo: &Topology, req: &Request) -> SimDuration {
        Runtime::new(topo.clone(), RuntimeConfig::default())
            .execute(self.instantiate(req.tenant, req))
            .map_or(SimDuration::ZERO, |r| r.makespan)
    }

    /// Runs one open-loop serving pass: draws arrivals and the tenant
    /// mix, instantiates per-request DAGs, applies quota admission, and
    /// executes the admitted stream on `rt` with each request held to
    /// its arrival offset.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`], before anything runs, if no
    /// template is registered, `cfg.tenants == 0`, the Zipf skew is
    /// negative or not finite, or an arrival overflows virtual time;
    /// otherwise whatever the executor returns.
    pub fn run(&self, rt: &mut Runtime, cfg: &ServeConfig) -> Result<ServeReport, RuntimeError> {
        let invalid = |what| Err(RuntimeError::InvalidConfig { what });
        if self.templates.is_empty() {
            return invalid("no template registered");
        }
        if cfg.tenants == 0 {
            return invalid("a serving run needs at least one tenant");
        }
        if !(cfg.zipf_theta.is_finite() && cfg.zipf_theta >= 0.0) {
            return invalid("the tenant mix's Zipf skew must be finite and non-negative");
        }
        let mut rng = SimRng::new(cfg.seed);
        // Offsets are nondecreasing, so the last one is the latest arrival.
        let fits = |offsets: &Vec<SimDuration>| {
            offsets.last().is_none_or(|last| rt.now().0.checked_add(last.0).is_some())
        };
        let Some(offsets) = cfg.arrivals.checked_offsets(cfg.requests, &mut rng.fork(0)).filter(fits)
        else {
            return invalid("an arrival overflows virtual time");
        };

        if cfg.control.is_some() {
            rt.enable_fault_control();
        }

        let zipf = Zipf::new(cfg.tenants, cfg.zipf_theta);
        let mut tenant_rng = rng.fork(1);
        let mut seed_rng = rng.fork(2);

        // Draw the request stream.
        let mut requests = Vec::with_capacity(cfg.requests);
        for (index, &arrival) in offsets.iter().enumerate() {
            requests.push(Request {
                index,
                tenant: zipf.sample(&mut tenant_rng),
                arrival,
                seed: seed_rng.next_u64(),
            });
        }

        // Admission estimates: one representative request per template,
        // timed alone; footprints come from `predicted_footprint`.
        let est_service: Vec<SimDuration> = (0..self.templates.len())
            .map(|ti| {
                let probe = Request {
                    index: 0,
                    tenant: ti,
                    arrival: SimDuration::ZERO,
                    seed: SimRng::new(cfg.seed ^ ti as u64).next_u64(),
                };
                self.service_time(rt.topology(), &probe)
            })
            .collect();
        let mut quotas = QuotaTracker::new(cfg.tenants, cfg.quota);

        // Utilization denominator: the admission-managed pool — tenants
        // × quota when a finite, non-zero quota is set, the rack's total
        // memory capacity otherwise. Measuring against the managed pool
        // keeps the curve legible: request footprints are invisible
        // against multi-TiB rack capacity. Snapshotted before the run so
        // `pool_at_start` reads pre-run residency.
        let pool_capacity: u64 = match cfg.quota {
            Some(quota) if quota > 0 && quota != u64::MAX => {
                quota.saturating_mul(cfg.tenants as u64)
            }
            _ => rt.topology().mem_ids().map(|d| rt.manager().pool().capacity(d)).sum(),
        };
        let pool_at_start: u64 = rt
            .topology()
            .mem_ids()
            .map(|d| rt.manager().pool().allocated(d))
            .sum();

        // The run's one set of books: a record per request, pushed at
        // admission and completed when its epoch has executed. The
        // per-tenant stats are read off them when the run is over.
        let mut records: Vec<RequestRecord> = Vec::with_capacity(cfg.requests);
        let mut run_acc = RunReport::default();
        // Request-centric observability: one causal span per admitted
        // request, assembled from each epoch's own slice of the
        // `RequestTag`-stamped event stream as soon as the epoch has run.
        let mut spans: Vec<RequestSpan> = Vec::new();
        // Where each epoch's events begin in the run's trace slice.
        let mut epoch_marks: Vec<usize> = Vec::new();

        let t0 = rt.now();
        let trace_mark = rt.trace().len();
        let control = cfg.control.is_some();
        let epochs = if control { EPOCHS } else { 1 };
        let mut browned = vec![false; cfg.tenants];
        let (mut ran, mut bad) = (vec![0usize; cfg.tenants], vec![0usize; cfg.tenants]);

        let mut chunks = requests.chunks(cfg.requests.div_ceil(epochs).max(1));
        let mut sized = false;
        while let Some(chunk) = chunks.next() {
            // Admission over this epoch's arrivals, causal in arrival
            // order: deadline shedding first (a request whose completion
            // estimate already misses its p99 SLO never enters), then
            // quota admission; browned-out tenants instantiate their
            // degraded template.
            let epoch_start = rt.now();
            let epoch_mark = rt.trace().len();
            epoch_marks.push(epoch_mark - trace_mark);
            let epoch_records = records.len();
            let mut jobs: Vec<JobSpec> = Vec::with_capacity(chunk.len());
            let mut offs: Vec<SimDuration> = Vec::with_capacity(chunk.len());
            let mut tags: Vec<(u64, u64, SimDuration)> = Vec::with_capacity(chunk.len());
            let mut epoch_slots: Vec<usize> = Vec::with_capacity(chunk.len());
            for req in chunk {
                let arrival_abs = t0 + req.arrival;
                let svc = est_service[req.tenant % est_service.len()];
                let template = &self.templates[req.tenant % self.templates.len()];
                let mut degrade = browned[req.tenant] && template.degraded.is_some();
                let verdict = 'admit: {
                    if let (true, Some(slo)) = (control, cfg.slo) {
                        quotas.release_until(arrival_abs);
                        let depth = quotas.inflight(req.tenant);
                        // Latency budget already burned waiting for this
                        // epoch: the request arrived at `arrival_abs` but
                        // is only being admitted now, at `epoch_start`.
                        // Under overload this lag, not the queue depth,
                        // is what makes a request hopeless.
                        let lag = epoch_start - arrival_abs;
                        let est_at = |cost: f64| {
                            lag + SimDuration::from_nanos_f64(
                                cost * (1.0 + DEPTH_FACTOR * depth as f64),
                            )
                        };
                        if est_at(svc.as_nanos() as f64) > slo.p99 {
                            // Degrade before drop: a hopeless full
                            // request may still meet its deadline on
                            // the tenant's cheaper template.
                            let deg_cost = svc.as_nanos() as f64 * DEGRADED_COST_RATIO;
                            if template.degraded.is_none() || est_at(deg_cost) > slo.p99 {
                                rt.annotate(TraceEvent::RequestShed {
                                    request: req.index as u64,
                                    tenant: req.tenant as u64,
                                    at: arrival_abs,
                                });
                                break 'admit Verdict::Shed;
                            }
                            degrade = true;
                        }
                    }
                    let job = match &template.degraded {
                        Some(lite) if degrade => lite(req),
                        _ => (template.make)(req),
                    };
                    let footprint = admission::predicted_footprint(&job);
                    if !quotas.admit(req.tenant, footprint, arrival_abs, svc) {
                        break 'admit Verdict::Rejected;
                    }
                    if degrade {
                        rt.annotate(TraceEvent::RequestDegraded {
                            request: req.index as u64,
                            tenant: req.tenant as u64,
                            at: arrival_abs,
                        });
                    }
                    epoch_slots.push(req.index);
                    jobs.push(job);
                    // Arrival offsets stay anchored at t0; an epoch
                    // starting after a request's arrival releases it
                    // immediately (the request was ready, batching was
                    // the gate), and its tag carries that wait, so its
                    // span starts at its arrival and books the wait as
                    // admission. One of the two is zero.
                    offs.push(arrival_abs - epoch_start);
                    tags.push((req.index as u64, req.tenant as u64, epoch_start - arrival_abs));
                    // Until its epoch has run and says otherwise.
                    Verdict::Completed
                };
                records.push(RequestRecord {
                    tenant: req.tenant,
                    arrival: req.arrival,
                    latency: None,
                    verdict,
                    degraded: verdict.admitted() && degrade,
                });
            }
            if jobs.is_empty() {
                continue;
            }

            // Execute the epoch. The executor hands out sequential JobIds
            // in submission order, so job `base + k` is the request in
            // `epoch_slots[k]`.
            let base = rt.next_job_id().0;
            let run: RunReport =
                rt.execute(Submission::batch(jobs).arrivals(offs).requests(tags))?;
            for t in &run.tasks {
                let rec = &mut records[epoch_slots[(t.job.0 - base) as usize]];
                let lat = t.finish - (t0 + rec.arrival);
                rec.latency = Some(rec.latency.map_or(lat, |l| l.max(lat)));
            }
            for f in &run.failed_jobs {
                let rec = &mut records[epoch_slots[(f.job.0 - base) as usize]];
                rec.verdict = Verdict::FastFailed;
                rec.latency = None;
            }
            run_acc.absorb(run);
            // A job's events all lie in its own epoch's slice, and the
            // epochs' requests follow one another, so the epochs' spans
            // line up in request order.
            spans.append(&mut assemble_request_spans(&rt.trace().events()[epoch_mark..]));
            // Size the run once: the first epoch that ran stands for
            // the epochs still to come, so the trace and the report's
            // lists grow in one step instead of doubling their way up
            // (each doubling copies everything before it). Unwritten
            // capacity is untouched virtual memory.
            if !sized {
                sized = true;
                let rest = chunks.len();
                let room = |first: usize| first * rest + first * rest / 4;
                rt.reserve_trace(room(rt.trace().len() - trace_mark));
                run_acc.tasks.reserve_exact(room(run_acc.tasks.len()));
                run_acc.placements.reserve_exact(room(run_acc.placements.len()));
                run_acc.edges.reserve_exact(room(run_acc.edges.len()));
                spans.reserve_exact(room(spans.len()));
            }

            // Close the epoch's books. A shed admission is an SLO miss
            // the control plane took pre-emptively: it counts toward the
            // tenant's bad fraction, or heavy shedding masks the very
            // overload brownout exists to relieve.
            ran.fill(0);
            bad.fill(0);
            for rec in &records[epoch_records..] {
                let missed = match rec.verdict {
                    Verdict::Rejected => continue,
                    Verdict::Shed | Verdict::FastFailed => true,
                    Verdict::Completed => {
                        let lat = rec.latency.expect("a job that did not fail ran its tasks");
                        cfg.slo.is_some_and(|slo| lat > slo.p99)
                    }
                };
                ran[rec.tenant] += 1;
                bad[rec.tenant] += usize::from(missed);
            }
            // Brownout decision at the epoch boundary: any open breaker
            // or a tenant burning SLO too fast switches that tenant's
            // *next* instantiations to the degraded template; both
            // clearing switches it back.
            if control {
                let tripped = !rt.unhealthy_nodes().is_empty();
                for t in 0..cfg.tenants {
                    browned[t] = tripped
                        || (ran[t] > 0 && bad[t] as f64 > BROWNOUT_BAD_FRACTION * ran[t] as f64);
                }
            }
        }

        // Debug builds check that each span explains the latency its
        // request's record states.
        #[cfg(debug_assertions)]
        for s in &spans {
            if let Some(latency) = records[s.request as usize].latency {
                assert_eq!(latency, s.latency(), "request {}'s span vs its record", s.request);
            }
        }

        let tenants = report::tenant_stats(&records, cfg.tenants, cfg.slo);

        // This run's own slice of the trace (empty when the runtime does
        // not trace), walked epoch by epoch.
        let events = &rt.trace().events()[trace_mark..];
        let (util_curve, peak_util) =
            util_curve(events, &epoch_marks, t0, run_acc.makespan, pool_at_start, pool_capacity);

        // Per-tenant tail attribution, and SLO burn curves against each
        // tenant's p99.
        let tail = disagg_obs::tail_attribution(&spans);
        let burn = disagg_obs::slo_burn_by(&spans, BURN_WINDOWS, |_| cfg.slo.map(|slo| slo.p99));

        Ok(ServeReport {
            offered: cfg.requests,
            admitted: tenants.iter().map(|t| t.admitted).sum(),
            rejected: tenants.iter().map(|t| t.rejected).sum(),
            shed: tenants.iter().map(|t| t.shed).sum(),
            fast_failed: tenants.iter().map(|t| t.fast_failed).sum(),
            degraded: tenants.iter().map(|t| t.degraded).sum(),
            makespan: run_acc.makespan,
            tenants,
            requests: records,
            util_curve,
            peak_util,
            spans,
            tail_attribution: tail,
            burn,
            run: run_acc,
        })
    }
}

/// Windows in a serving run's SLO burn curve — matches the granularity
/// of the utilization curve's sampling (one window per two samples).
const BURN_WINDOWS: usize = 16;

/// Samples pooled-memory utilization at 33 evenly spaced instants over
/// the run that started at `t0`, reconstructed from the Alloc/Free
/// events among the run's `events`; also returns the *exact* peak
/// fraction from the full event walk (the sampled curve can miss
/// allocations shorter than a sample gap). Every allocation and free of
/// a run is traced, so the walk never goes below zero and ends where the
/// pool ends. Fractions are not clamped (see [`UtilSample::frac`]).
/// Empty when the runtime traces nothing or the run was empty.
///
/// The walk takes the pool movements in time order, trace order among
/// equal times, one epoch at a time: `epochs` holds where each epoch's
/// events begin in `events`. An epoch begins where the one before it
/// ended, and a wave ends after every attempt it started and every
/// region it freed, so no movement of an epoch is timed after any of the
/// next epoch's. Sorting each epoch's movements in turn thus gives the
/// order one stable sort of the whole run's movements gives, with one
/// epoch's movements in memory, not the run's.
fn util_curve(
    events: &[TraceEvent],
    epochs: &[usize],
    t0: SimTime,
    makespan: SimDuration,
    at_start: u64,
    capacity: u64,
) -> (Vec<UtilSample>, f64) {
    if capacity == 0 || makespan == SimDuration::ZERO {
        return (Vec::new(), 0.0);
    }
    let delta = |e: &TraceEvent| match *e {
        TraceEvent::Alloc { bytes, at, .. } => Some((at, bytes as i64)),
        TraceEvent::Free { bytes, at, .. } => Some((at, -(bytes as i64))),
        _ => None,
    };
    const SAMPLES: usize = 33;
    let span = makespan.as_nanos();
    let offset = |k: usize| SimDuration::from_nanos(span * k as u64 / (SAMPLES as u64 - 1));
    let mut curve = Vec::with_capacity(SAMPLES);
    let (mut level, mut peak) = (at_start as i64, at_start as i64);
    // One movement in time order, after the samples due before it: a
    // sample reads every movement at or before its instant.
    let mut step = |at: SimTime, d: i64| {
        while curve.len() < SAMPLES && t0 + offset(curve.len()) < at {
            let frac = level as f64 / capacity as f64;
            curve.push(UtilSample { at: offset(curve.len()), frac });
        }
        level += d;
        debug_assert!(level >= 0, "resident bytes below zero at {at}: a free without its alloc");
        peak = peak.max(level);
    };
    // One epoch's (time, signed delta) pool movements.
    let mut deltas: Vec<(SimTime, i64)> = Vec::new();
    let mut moved = false;
    for (k, &begin) in epochs.iter().enumerate() {
        let end = epochs.get(k + 1).copied().unwrap_or(events.len());
        deltas.clear();
        deltas.extend(events[begin..end].iter().filter_map(delta));
        deltas.sort_by_key(|&(at, _)| at);
        moved |= !deltas.is_empty();
        for &(at, d) in &deltas {
            step(at, d);
        }
    }
    if !moved {
        return (Vec::new(), 0.0);
    }
    // The samples after the last movement.
    step(SimTime(u64::MAX), 0);
    (curve, peak as f64 / capacity as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_core::prelude::{JobBuilder, TaskSpec, WorkClass};
    use disagg_hwsim::presets::single_server;

    fn layer() -> ServeLayer {
        let mut l = ServeLayer::new();
        l.register("unit", |req: &Request| {
            let mut j = JobBuilder::new("unit");
            j.task(
                TaskSpec::new("work")
                    .work(WorkClass::Scalar, 5_000 + (req.seed % 5_000))
                    .output_bytes(1 << 16),
            );
            j.build().unwrap()
        });
        l
    }

    /// `layer()`'s light template for even tenants, and a heavy one for
    /// odd tenants: 16× the output bytes (1 MiB against 64 KiB) and a
    /// body that computes for about 10 ms.
    fn mixed_layer() -> ServeLayer {
        let mut l = layer();
        l.register("heavy", |_req: &Request| {
            let mut j = JobBuilder::new("heavy");
            j.task(
                TaskSpec::new("work")
                    .work(WorkClass::Scalar, 10_000_000)
                    .output_bytes(1 << 20)
                    .body(|ctx| {
                        ctx.compute(WorkClass::Scalar, 10_000_000);
                        Ok(())
                    }),
            );
            j.build().unwrap()
        });
        l
    }

    #[test]
    fn serving_run_accounts_every_request() {
        let (topo, _ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        let cfg = ServeConfig { requests: 24, tenants: 3, ..ServeConfig::default() };
        let report = layer().run(&mut rt, &cfg).unwrap();
        assert_eq!(report.offered, 24);
        assert_eq!(report.admitted, 24, "no quota — everything admitted");
        assert_eq!(report.requests.len(), 24);
        assert_eq!(report.tenants.iter().map(|t| t.offered).sum::<usize>(), 24);
        assert!(report.p99() >= report.p50());
        // Latency = finish − arrival is positive for every request.
        assert!(report
            .requests
            .iter()
            .all(|r| r.latency.unwrap() > SimDuration::ZERO));
    }

    #[test]
    fn an_empty_registry_is_a_typed_error() {
        let (topo, _ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        let got = ServeLayer::new().run(&mut rt, &ServeConfig::default());
        assert!(
            matches!(got, Err(RuntimeError::InvalidConfig { .. })),
            "{:?}",
            got.err()
        );
        assert_eq!(rt.now(), SimTime::ZERO, "nothing ran");
    }

    #[test]
    fn zero_tenants_is_a_typed_error() {
        let (topo, _ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        let cfg = ServeConfig {
            tenants: 0,
            ..ServeConfig::default()
        };
        let got = layer().run(&mut rt, &cfg);
        assert!(
            matches!(got, Err(RuntimeError::InvalidConfig { .. })),
            "{:?}",
            got.err()
        );
        assert_eq!(rt.now(), SimTime::ZERO, "nothing ran");
    }

    /// An arrival gap whose draws overflow virtual time is refused
    /// before anything runs; in a debug build the sum used to panic in
    /// `SimDuration`'s `+=`, and a release build wrapped it.
    #[test]
    fn an_arrival_past_the_end_of_time_is_a_typed_error() {
        let (topo, _ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let cfg = ServeConfig {
            arrivals: ArrivalProcess::Poisson { mean_gap: SimDuration(u64::MAX / 2) },
            requests: 16,
            ..ServeConfig::default()
        };
        let got = layer().run(&mut rt, &cfg);
        assert!(
            matches!(got, Err(RuntimeError::InvalidConfig { .. })),
            "{:?}",
            got.err()
        );
        assert_eq!(rt.now(), SimTime::ZERO, "nothing ran");
        assert!(rt.trace().events().is_empty(), "nothing ran");
        // The same draws fit when the gaps are small enough.
        let fits = ArrivalProcess::Poisson { mean_gap: SimDuration::from_micros(10) };
        let mut rng = SimRng::new(7);
        let checked = fits.checked_offsets(16, &mut rng.clone()).expect("fits");
        assert_eq!(checked, fits.sample_offsets(16, &mut rng));
    }

    #[test]
    fn zipf_mix_skews_toward_tenant_zero() {
        let (topo, _ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        let cfg = ServeConfig {
            requests: 200,
            tenants: 4,
            zipf_theta: 1.2,
            ..ServeConfig::default()
        };
        let report = layer().run(&mut rt, &cfg).unwrap();
        assert!(
            report.tenants[0].offered > report.tenants[3].offered,
            "hot tenant should dominate a skewed mix"
        );
    }

    #[test]
    fn seeded_runs_agree_exactly() {
        let cfg = ServeConfig { requests: 32, tenants: 3, ..ServeConfig::default() };
        let run = || {
            let (topo, _ids) = single_server();
            let mut rt = Runtime::new(topo, RuntimeConfig::default());
            layer().run(&mut rt, &cfg).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.tenants, b.tenants);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn tight_quota_rejects_but_never_starves_others() {
        let (topo, _ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        let cfg = ServeConfig {
            requests: 40,
            tenants: 2,
            zipf_theta: 1.0,
            // Above a light request's 64 KiB footprint, below a heavy
            // one's 1 MiB: tenant 1's template never fits.
            quota: Some(256 << 10),
            ..ServeConfig::default()
        };
        let report = mixed_layer().run(&mut rt, &cfg).unwrap();
        assert_eq!(report.tenants[1].admitted, 0, "tenant 1 can never fit");
        assert!(report.tenants[0].admitted > 0, "tenant 0 unaffected");
        assert_eq!(report.admitted + report.rejected, 40);
    }

    #[test]
    fn slo_verdicts_follow_the_quantiles() {
        let (topo, _ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        // Generous for tenant 0's light template, out of reach for
        // tenant 1's heavy one.
        let slo = Slo {
            p50: SimDuration::from_millis(1),
            p99: SimDuration::from_millis(1),
        };
        let cfg = ServeConfig {
            requests: 16,
            tenants: 2,
            slo: Some(slo),
            ..ServeConfig::default()
        };
        let report = mixed_layer().run(&mut rt, &cfg).unwrap();
        assert!(report.tenants[0].slo_met);
        if report.tenants[1].admitted > 0 {
            assert!(!report.tenants[1].slo_met);
        }
    }

    #[test]
    fn traced_runtime_yields_a_utilization_curve() {
        let (topo, _ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let cfg = ServeConfig { requests: 16, tenants: 2, ..ServeConfig::default() };
        let report = layer().run(&mut rt, &cfg).unwrap();
        assert!(!report.util_curve.is_empty());
        assert!(report.peak_util > 0.0);
        assert!(report.util_curve.iter().all(|s| (0.0..=1.0).contains(&s.frac)));
    }

    #[test]
    fn traced_runtime_yields_conservative_request_spans() {
        let (topo, _ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let slo = Slo {
            p50: SimDuration::from_micros(20),
            p99: SimDuration::from_micros(60),
        };
        let cfg = ServeConfig {
            requests: 24,
            tenants: 3,
            slo: Some(slo),
            ..ServeConfig::default()
        };
        let report = layer().run(&mut rt, &cfg).unwrap();
        assert_eq!(report.spans.len(), report.admitted, "one span per admitted request");
        for s in &report.spans {
            // The span agrees exactly with the task-derived record.
            let rec = &report.requests[s.request as usize];
            assert_eq!(rec.tenant as u64, s.tenant);
            assert_eq!(rec.latency, Some(s.latency()), "span vs record for req {}", s.request);
            // Conservative and complete: the five components sum to the
            // end-to-end latency with no remainder.
            assert_eq!(s.attribution.total(), s.latency(), "req {}", s.request);
        }
        // Tail attribution covers every tenant that got work through.
        let served = report.tenants.iter().filter(|t| t.admitted > 0).count();
        assert_eq!(report.tail_attribution.len(), served);
        for ta in &report.tail_attribution {
            assert!(!ta.exemplars.is_empty());
        }
        // Burn curves: every admitted request lands in exactly one
        // window of its tenant's curve.
        assert_eq!(report.burn.len(), served);
        let counted: u64 = report
            .burn
            .iter()
            .flat_map(|b| b.windows.iter())
            .map(|w| w.good + w.bad)
            .sum();
        assert_eq!(counted, report.admitted as u64);
    }

    #[test]
    fn untraced_runtime_reports_no_spans() {
        let (topo, _ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        let cfg = ServeConfig { requests: 8, tenants: 2, ..ServeConfig::default() };
        let report = layer().run(&mut rt, &cfg).unwrap();
        assert!(report.spans.is_empty());
        assert!(report.tail_attribution.is_empty());
        assert!(report.burn.is_empty());
    }

    #[test]
    fn deadline_shedding_sheds_hopeless_requests() {
        let (topo, _ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        let cfg = ServeConfig {
            requests: 16,
            tenants: 2,
            // Even the calibrated estimate at depth 0 misses this SLO.
            slo: Some(Slo {
                p50: SimDuration::from_nanos(1),
                p99: SimDuration::from_nanos(1),
            }),
            control: Some(ControlPlane::default()),
            ..ServeConfig::default()
        };
        let report = layer().run(&mut rt, &cfg).unwrap();
        assert_eq!(report.shed, 16, "every request is hopeless at arrival");
        assert_eq!(report.admitted, 0);
        assert_eq!(report.rejected, 0, "shed is not a quota rejection");
        assert!(report.requests.iter().all(|r| r.verdict == Verdict::Shed));
        assert_eq!(report.tenants.iter().map(|t| t.shed).sum::<usize>(), 16);
    }

    #[test]
    fn queue_depth_inflates_the_shedding_estimate() {
        // SLO sits above the bare service estimate but below the
        // depth-inflated one (half a service time per in-flight
        // request): early (shallow-queue) requests pass the check,
        // later ones behind a standing queue are shed.
        let (topo, _ids) = single_server();
        let seed = ServeConfig::default().seed;
        // The run's own calibration probe for template 0.
        let probe = Request {
            index: 0,
            tenant: 0,
            arrival: SimDuration::ZERO,
            seed: SimRng::new(seed).next_u64(),
        };
        let svc = layer().service_time(&topo, &probe);
        let mut rt = Runtime::new(topo, RuntimeConfig::default());

        let cfg = ServeConfig {
            // Arrivals far denser than the service time → queue builds.
            arrivals: ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_nanos(svc.as_nanos() / 64),
            },
            requests: 64,
            tenants: 1,
            seed,
            slo: Some(Slo {
                p50: svc,
                p99: SimDuration::from_nanos(svc.as_nanos() * 2),
            }),
            control: Some(ControlPlane::default()),
            ..ServeConfig::default()
        };
        let report = layer().run(&mut rt, &cfg).unwrap();
        assert!(report.shed > 0, "standing queue must trigger sheds");
        assert!(report.admitted > 0, "shallow-queue arrivals still pass");
        let verdicts: Vec<Verdict> = report.requests.iter().take(4).map(|r| r.verdict).collect();
        assert_eq!(
            verdicts,
            [Verdict::Completed, Verdict::Completed, Verdict::Completed, Verdict::Shed],
            "depths 0..=2 estimate at most 2x the service time, depth 3 estimates 2.5x"
        );
    }

    #[test]
    fn brownout_switches_to_the_degraded_template() {
        // The calibration probe (request index 0) is 40x cheaper than a
        // live request, so every admission estimate fits the SLO while
        // every real latency burns it: the first epoch's bad fraction
        // browns the tenant out for the next.
        let mut l = ServeLayer::new();
        l.register("unit", |req: &Request| {
            let mut j = JobBuilder::new("unit");
            let ops = if req.index == 0 { 5_000 } else { 200_000 };
            j.task(TaskSpec::new("work").body(move |ctx| {
                ctx.compute(WorkClass::Scalar, ops);
                Ok(())
            }));
            j.build().unwrap()
        });
        l.register_degraded("unit", |req: &Request| {
            let mut j = JobBuilder::new("unit-lite");
            j.task(TaskSpec::new("work").work(WorkClass::Scalar, 500 + (req.seed % 500)));
            j.build().unwrap()
        });
        let (topo, _ids) = single_server();
        let at = |index| Request { index, tenant: 0, arrival: SimDuration::ZERO, seed: 0 };
        let (est, live) = (l.service_time(&topo, &at(0)), l.service_time(&topo, &at(1)));
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        let cfg = ServeConfig {
            // Sparse arrivals: no queue depth and no epoch lag, so the
            // estimate at admission is the bare calibrated one.
            arrivals: ArrivalProcess::Poisson { mean_gap: SimDuration(live.0 * 8) },
            requests: 32,
            tenants: 1,
            slo: Some(Slo { p50: est, p99: SimDuration(est.0 * 4) }),
            control: Some(ControlPlane::default()),
            ..ServeConfig::default()
        };
        let report = l.run(&mut rt, &cfg).unwrap();
        assert!(report.degraded > 0, "later epochs must serve the degraded template");
        assert!(
            report.requests.iter().take(4).all(|r| r.verdict == Verdict::Completed && !r.degraded),
            "the first epoch runs in full before any brownout signal exists"
        );
        assert!(
            report.requests[4..8].iter().all(|r| r.degraded || r.verdict == Verdict::Shed),
            "the second epoch is browned out"
        );
        assert_eq!(
            report.requests.iter().filter(|r| r.degraded).count(),
            report.degraded,
        );
        assert_eq!(report.tenants[0].degraded, report.degraded);
    }

    #[test]
    fn register_degraded_requires_the_primary() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut l = ServeLayer::new();
            l.register_degraded("ghost", |_req: &Request| {
                JobBuilder::new("ghost").build().unwrap()
            });
        }));
        assert!(result.is_err(), "degraded variant without a primary must panic");
    }

    #[test]
    fn goodput_subtracts_fast_failures() {
        let r = ServeReport {
            offered: 10,
            admitted: 8,
            rejected: 1,
            shed: 1,
            fast_failed: 3,
            degraded: 0,
            makespan: SimDuration::ZERO,
            tenants: Vec::new(),
            requests: Vec::new(),
            util_curve: Vec::new(),
            peak_util: 0.0,
            spans: Vec::new(),
            tail_attribution: Vec::new(),
            burn: Vec::new(),
            run: RunReport::default(),
        };
        assert_eq!(r.goodput(), 5);
    }
}
