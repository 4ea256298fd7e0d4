//! What a serving run reports.
//!
//! Everything here is measured in *virtual* time and derived from the
//! executor's deterministic output, so a seeded serving run produces a
//! bit-for-bit identical [`ServeReport`] on every execution — latency
//! SLOs included.

use disagg_core::report::RunReport;
use disagg_hwsim::time::SimDuration;
use disagg_obs::{nearest_rank, RequestSpan, TenantAttribution, TenantBurn};

/// A latency SLO in virtual time, held per tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Target median sojourn (arrival → last task finish).
    pub p50: SimDuration,
    /// Target tail sojourn.
    pub p99: SimDuration,
}

/// How the serving control plane disposed of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Admitted and ran to completion.
    Completed,
    /// Rejected by quota admission (the tenant was over budget).
    Rejected,
    /// Shed at admission: the deadline check predicted the request
    /// could not meet its SLO, so it never entered the system.
    Shed,
    /// Admitted, but a task of its job exhausted the runtime's retry cap
    /// ([`disagg_core::RecoveryPolicy::max_retries`]): the request
    /// failed alone while the rest of the stream ran on, with or
    /// without the control plane.
    FastFailed,
}

impl Verdict {
    /// Whether admission let the request through: it completed or
    /// failed fast.
    pub fn admitted(self) -> bool {
        matches!(self, Verdict::Completed | Verdict::FastFailed)
    }
}

/// One request's fate; its position in [`ServeReport::requests`] is its
/// position in the arrival sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// The tenant that issued it.
    pub tenant: usize,
    /// Arrival offset relative to the serving run's start.
    pub arrival: SimDuration,
    /// Sojourn time (arrival → last task finish); `None` unless the
    /// request completed.
    pub latency: Option<SimDuration>,
    /// How the run disposed of it. Never `Shed` when the run has no
    /// [`crate::ControlPlane`].
    pub verdict: Verdict,
    /// Whether a brownout served this request from its tenant's
    /// degraded template.
    pub degraded: bool,
}

/// Per-tenant serving outcome, read off the request records when the
/// run is over.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantStats {
    /// Tenant index (Zipf rank: tenant 0 is the hottest).
    pub tenant: usize,
    /// Requests the tenant offered.
    pub offered: usize,
    /// Requests admitted.
    pub admitted: usize,
    /// Requests rejected by quota admission.
    pub rejected: usize,
    /// Requests shed by the deadline check (zero without a control
    /// plane).
    pub shed: usize,
    /// Admitted requests that failed alone during execution (retry cap
    /// exhausted).
    pub fast_failed: usize,
    /// Admitted requests served from the tenant's degraded template.
    pub degraded: usize,
    /// Median sojourn of the tenant's completed requests (an exact
    /// order statistic, [`nearest_rank`]; zero when none completed).
    pub p50: SimDuration,
    /// Tail sojourn of the tenant's completed requests.
    pub p99: SimDuration,
    /// The SLO this tenant was held to, if any: the run's one SLO.
    pub slo: Option<Slo>,
    /// Whether both p50 and p99 stayed within the SLO (vacuously true
    /// without an SLO or without admitted requests).
    pub slo_met: bool,
}

/// One sample of pooled-memory utilization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilSample {
    /// Offset from the serving run's start.
    pub at: SimDuration,
    /// Allocated bytes over the managed pool's capacity; above `1.0` when
    /// they exceed a quota pool (quotas leave out handover copies).
    pub frac: f64,
}

/// The outcome of one open-loop serving run.
#[derive(Debug)]
pub struct ServeReport {
    /// Requests offered (arrival process length).
    pub offered: usize,
    /// Requests admitted.
    pub admitted: usize,
    /// Requests rejected by quota admission.
    pub rejected: usize,
    /// Requests shed by the deadline check (zero without a control
    /// plane).
    pub shed: usize,
    /// Admitted requests that failed alone during execution: a task of
    /// the job exhausted the runtime's retry cap.
    pub fast_failed: usize,
    /// Admitted requests served from a degraded template (brownout).
    pub degraded: usize,
    /// Virtual time from run start to the end of the last task attempt.
    pub makespan: SimDuration,
    /// Per-tenant outcomes, indexed by tenant.
    pub tenants: Vec<TenantStats>,
    /// Every request in arrival order.
    pub requests: Vec<RequestRecord>,
    /// Pooled-memory utilization over the run (empty when the runtime
    /// was built without tracing). Fractions are measured against the
    /// admission-managed pool: tenants × quota when a quota is set, the
    /// rack's total memory capacity otherwise.
    pub util_curve: Vec<UtilSample>,
    /// Exact peak utilization over the run — computed from the full
    /// Alloc/Free event walk, so it catches allocations too short-lived
    /// for the sampled curve. Unclamped, like [`UtilSample::frac`]; `0.0`
    /// without a trace.
    pub peak_util: f64,
    /// One causal span per admitted request (arrival → last task
    /// finish, tiled into admission / queue / compute / transfer /
    /// recovery segments whose durations sum exactly to the sojourn).
    /// Empty when the runtime was built without tracing.
    pub spans: Vec<RequestSpan>,
    /// Per-tenant tail-latency attribution: exact p99, the exemplar
    /// requests behind it, and the dominant latency component. Empty
    /// without a trace.
    pub tail_attribution: Vec<TenantAttribution>,
    /// Per-tenant SLO burn curves (rolling virtual-time windows of
    /// good/bad counts against each tenant's p99 SLO). Empty without a
    /// trace or when no tenant carries an SLO.
    pub burn: Vec<TenantBurn>,
    /// The underlying executor report for the admitted batch.
    pub run: RunReport,
}

/// The p50 and p99 of sorted sojourns in ns: exact order statistics
/// ([`nearest_rank`]); zero when there are none.
fn quantiles(sorted: &[u64]) -> (SimDuration, SimDuration) {
    let at = |p| nearest_rank(sorted, p).map_or(SimDuration::ZERO, SimDuration::from_nanos);
    (at(0.50), at(0.99))
}

/// The p50 and p99 sojourn of the completed requests among `requests`.
fn sojourn_quantiles(requests: &[RequestRecord]) -> (SimDuration, SimDuration) {
    let mut lats: Vec<u64> =
        requests.iter().filter_map(|r| r.latency).map(|l| l.as_nanos()).collect();
    lats.sort_unstable();
    quantiles(&lats)
}

/// The per-tenant books, read off the request records in one pass —
/// the records are the run's one set of books: how many requests each
/// of the `tenants` tenants offered and how each was disposed of, and
/// the p50/p99 of its completed requests held against `slo`.
pub(crate) fn tenant_stats(
    records: &[RequestRecord],
    tenants: usize,
    slo: Option<Slo>,
) -> Vec<TenantStats> {
    let mut stats: Vec<TenantStats> =
        (0..tenants).map(|tenant| TenantStats { tenant, slo, ..TenantStats::default() }).collect();
    let mut lats: Vec<Vec<u64>> = vec![Vec::new(); tenants];
    for r in records {
        let ts = &mut stats[r.tenant];
        ts.offered += 1;
        ts.admitted += usize::from(r.verdict.admitted());
        ts.degraded += usize::from(r.degraded);
        match r.verdict {
            Verdict::Rejected => ts.rejected += 1,
            Verdict::Shed => ts.shed += 1,
            Verdict::FastFailed => ts.fast_failed += 1,
            Verdict::Completed => {}
        }
        lats[r.tenant].extend(r.latency.map(|l| l.as_nanos()));
    }
    for (ts, mut lats) in stats.iter_mut().zip(lats) {
        lats.sort_unstable();
        (ts.p50, ts.p99) = quantiles(&lats);
        ts.slo_met = match ts.slo {
            Some(slo) if ts.admitted > 0 => ts.p50 <= slo.p50 && ts.p99 <= slo.p99,
            _ => true,
        };
    }
    stats
}

impl ServeReport {
    /// p50 sojourn across all completed requests.
    pub fn p50(&self) -> SimDuration {
        sojourn_quantiles(&self.requests).0
    }

    /// p99 sojourn across all completed requests.
    pub fn p99(&self) -> SimDuration {
        sojourn_quantiles(&self.requests).1
    }

    /// Requests that completed successfully (admitted minus fast-fails).
    pub fn goodput(&self) -> usize {
        self.admitted - self.fast_failed
    }
}
