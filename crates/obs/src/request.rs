//! Request-centric spans and tail-latency attribution.
//!
//! The serving layer stamps every admitted request's identity into the
//! trace as a [`TraceEvent::RequestTag`] at submission; this module
//! assembles, per request, a causal span covering its whole sojourn
//! (`arrival .. last task finish`) and decomposes that latency into
//! five exhaustive components:
//!
//! - **admission** — arrival until the job's first task entered a ready
//!   queue (admission-wave wait);
//! - **queue** — some task of the request sat in a ready queue and
//!   nothing of the request was computing;
//! - **compute** — at least one task of the request was executing;
//! - **transfer** — dataflow handover gaps between tasks (outputs in
//!   flight, no task running or queued progress);
//! - **recovery** — time lost to interrupted attempts (detection
//!   delay plus backoff, from `TaskRetry.lost`) or spent rebuilding
//!   corrupted bytes (`Reconstruct`).
//!
//! The decomposition is an interval sweep over the request's sojourn:
//! every virtual nanosecond is assigned to exactly one component
//! (priority: recovery > compute > queue; uncovered time is admission
//! before the first enqueue, transfer after), so the components **sum
//! exactly to the end-to-end latency** — conservative and complete by
//! construction. The sweep consumes only committed trace events, whose
//! order and content are bit-for-bit deterministic, so spans and
//! attributions are too.

use std::collections::BTreeMap;

use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::trace::TraceEvent;

/// The latency component a span segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentKind {
    /// Waiting for an admission wave before any task could queue.
    Admission,
    /// Waiting in a compute device's ready queue.
    Queue,
    /// At least one of the request's tasks was executing.
    Compute,
    /// Dataflow handover: outputs in flight between tasks.
    Transfer,
    /// Retry loss (detection + backoff) or reconstruction of lost bytes.
    Recovery,
}

impl SegmentKind {
    /// Stable lowercase name (JSON keys, report rows).
    pub fn name(self) -> &'static str {
        match self {
            SegmentKind::Admission => "admission",
            SegmentKind::Queue => "queue",
            SegmentKind::Compute => "compute",
            SegmentKind::Transfer => "transfer",
            SegmentKind::Recovery => "recovery",
        }
    }

    /// All components in report order.
    pub const ALL: [SegmentKind; 5] = [
        SegmentKind::Admission,
        SegmentKind::Queue,
        SegmentKind::Compute,
        SegmentKind::Transfer,
        SegmentKind::Recovery,
    ];
}

/// One contiguous, single-component slice of a request's sojourn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Which component this time belongs to.
    pub kind: SegmentKind,
    /// Segment start.
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
    /// The task the segment is attributed to, when one task's interval
    /// won the sweep (queue/compute/recovery); `None` for ambient time
    /// (admission, handover gaps).
    pub task: Option<u64>,
}

impl Segment {
    /// The segment's duration.
    pub fn len(&self) -> SimDuration {
        self.end - self.start
    }

    /// True when the segment is degenerate (zero-width).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A request's latency decomposed into the five components. The
/// components of a [`RequestSpan`] sum exactly to its latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Admission-wave wait before the first enqueue.
    pub admission: SimDuration,
    /// Ready-queue wait with nothing computing.
    pub queue: SimDuration,
    /// Task execution.
    pub compute: SimDuration,
    /// Dataflow handover gaps.
    pub transfer: SimDuration,
    /// Retry loss and reconstruction.
    pub recovery: SimDuration,
}

impl Attribution {
    /// The component for a kind.
    pub fn component(&self, kind: SegmentKind) -> SimDuration {
        match kind {
            SegmentKind::Admission => self.admission,
            SegmentKind::Queue => self.queue,
            SegmentKind::Compute => self.compute,
            SegmentKind::Transfer => self.transfer,
            SegmentKind::Recovery => self.recovery,
        }
    }

    /// Adds time to a component.
    pub fn add(&mut self, kind: SegmentKind, d: SimDuration) {
        let slot = match kind {
            SegmentKind::Admission => &mut self.admission,
            SegmentKind::Queue => &mut self.queue,
            SegmentKind::Compute => &mut self.compute,
            SegmentKind::Transfer => &mut self.transfer,
            SegmentKind::Recovery => &mut self.recovery,
        };
        *slot += d;
    }

    /// Sum of all components — equal to the request's end-to-end
    /// latency for spans assembled here.
    pub fn total(&self) -> SimDuration {
        self.admission + self.queue + self.compute + self.transfer + self.recovery
    }

    /// Component-wise sum.
    pub fn merge(&mut self, other: &Attribution) {
        for k in SegmentKind::ALL {
            self.add(k, other.component(k));
        }
    }

    /// The largest component (earlier in [`SegmentKind::ALL`] wins
    /// ties, so the answer is deterministic).
    pub fn dominant(&self) -> SegmentKind {
        let mut best = SegmentKind::ALL[0];
        for k in SegmentKind::ALL {
            if self.component(k) > self.component(best) {
                best = k;
            }
        }
        best
    }
}

/// One served request's causal span: identity, sojourn bounds, the
/// single-component segments tiling the sojourn, and the summed
/// attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpan {
    /// Request identifier (the serving layer's request index).
    pub request: u64,
    /// Owning tenant.
    pub tenant: u64,
    /// The job instantiated for the request.
    pub job: u64,
    /// Arrival time (from the tag).
    pub arrival: SimTime,
    /// Last task finish.
    pub end: SimTime,
    /// Single-component segments tiling `[arrival, end)` in time order.
    pub segments: Vec<Segment>,
    /// The latency decomposition (sums exactly to `latency()`).
    pub attribution: Attribution,
}

impl RequestSpan {
    /// End-to-end latency (sojourn time).
    pub fn latency(&self) -> SimDuration {
        self.end - self.arrival
    }
}

/// A classified covering interval collected from the trace before the
/// sweep (all times in ns).
#[derive(Debug, Clone, Copy)]
struct Covering {
    start: u64,
    end: u64,
    kind: SegmentKind,
    task: Option<u64>,
}

/// Sweep priority: when intervals overlap, the highest class claims the
/// time. Recovery loss always shows (it *is* wasted time even while a
/// sibling task computes); compute beats queue (a queued task is not
/// the bottleneck while another makes progress).
fn priority(kind: SegmentKind) -> u8 {
    match kind {
        SegmentKind::Recovery => 3,
        SegmentKind::Compute => 2,
        SegmentKind::Queue => 1,
        // Admission/transfer never appear as covering intervals; they
        // classify uncovered time.
        SegmentKind::Admission | SegmentKind::Transfer => 0,
    }
}

/// Assembles one [`RequestSpan`] per tagged request found in `events`.
/// Requests whose jobs never finished a task (nothing executed) are
/// skipped. Output is ordered by request id.
pub fn assemble_request_spans(events: &[TraceEvent]) -> Vec<RequestSpan> {
    // Tag pass: job -> (request, tenant, arrival).
    let mut tag_of_job: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    for e in events {
        if let TraceEvent::RequestTag { request, tenant, job, at } = *e {
            tag_of_job.insert(job, (request, tenant, at.as_nanos()));
        }
    }
    if tag_of_job.is_empty() {
        return Vec::new();
    }

    // Collection pass: per tagged job, the classified intervals plus
    // the sojourn bounds.
    let mut first_queued: BTreeMap<u64, u64> = BTreeMap::new();
    let mut last_finish: BTreeMap<u64, u64> = BTreeMap::new();
    let mut task_start: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut covering: BTreeMap<u64, Vec<Covering>> = BTreeMap::new();
    let tagged = |job: u64| tag_of_job.contains_key(&job);
    for e in events {
        match *e {
            TraceEvent::TaskQueued { job, at, .. } if tagged(job) => {
                let t = at.as_nanos();
                first_queued
                    .entry(job)
                    .and_modify(|f| *f = (*f).min(t))
                    .or_insert(t);
            }
            TraceEvent::TaskDispatch { job, task, at, waited, .. }
                if tagged(job) && waited > SimDuration::ZERO =>
            {
                covering.entry(job).or_default().push(Covering {
                    start: at.as_nanos() - waited.as_nanos(),
                    end: at.as_nanos(),
                    kind: SegmentKind::Queue,
                    task: Some(task),
                });
            }
            TraceEvent::TaskStart { job, task, at, .. } if tagged(job) => {
                task_start.insert((job, task), at.as_nanos());
            }
            TraceEvent::TaskFinish { job, task, at, .. } if tagged(job) => {
                let t = at.as_nanos();
                last_finish
                    .entry(job)
                    .and_modify(|f| *f = (*f).max(t))
                    .or_insert(t);
                if let Some(&start) = task_start.get(&(job, task)) {
                    covering.entry(job).or_default().push(Covering {
                        start,
                        end: t,
                        kind: SegmentKind::Compute,
                        task: Some(task),
                    });
                }
            }
            TraceEvent::TaskRetry { job, task, at, lost, .. }
                if tagged(job) && lost > SimDuration::ZERO =>
            {
                covering.entry(job).or_default().push(Covering {
                    start: at.as_nanos() - lost.as_nanos(),
                    end: at.as_nanos(),
                    kind: SegmentKind::Recovery,
                    task: Some(task),
                });
            }
            TraceEvent::Reconstruct { job: Some(job), task, at, took, .. }
                if tagged(job) && took > SimDuration::ZERO =>
            {
                covering.entry(job).or_default().push(Covering {
                    start: at.as_nanos(),
                    end: at.as_nanos() + took.as_nanos(),
                    kind: SegmentKind::Recovery,
                    task,
                });
            }
            _ => {}
        }
    }

    // Sweep pass: tile each request's sojourn with single-component
    // segments.
    let mut spans: Vec<RequestSpan> = Vec::with_capacity(tag_of_job.len());
    for (&job, &(request, tenant, arrival)) in &tag_of_job {
        let Some(&end) = last_finish.get(&job) else {
            continue; // nothing executed for this request
        };
        let end = end.max(arrival);
        let fq = first_queued.get(&job).copied().unwrap_or(end).clamp(arrival, end);
        let mut ivs: Vec<Covering> = covering.remove(&job).unwrap_or_default();
        for iv in &mut ivs {
            iv.start = iv.start.clamp(arrival, end);
            iv.end = iv.end.clamp(arrival, end);
        }
        ivs.retain(|iv| iv.end > iv.start);
        // Stable winner selection: sort by (priority desc, task, start)
        // so the covering scan below is deterministic.
        ivs.sort_by_key(|iv| (std::cmp::Reverse(priority(iv.kind)), iv.task, iv.start));

        let mut cuts: Vec<u64> = Vec::with_capacity(ivs.len() * 2 + 3);
        cuts.push(arrival);
        cuts.push(fq);
        cuts.push(end);
        for iv in &ivs {
            cuts.push(iv.start);
            cuts.push(iv.end);
        }
        cuts.sort_unstable();
        cuts.dedup();

        let mut segments: Vec<Segment> = Vec::new();
        let mut attribution = Attribution::default();
        for pair in cuts.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            // Highest-priority covering interval wins; first in the
            // sorted order on priority ties.
            let winner = ivs.iter().find(|iv| iv.start <= a && iv.end >= b);
            let (kind, task) = match winner {
                Some(iv) => (iv.kind, iv.task),
                None if a < fq => (SegmentKind::Admission, None),
                None => (SegmentKind::Transfer, None),
            };
            attribution.add(kind, SimDuration(b - a));
            match segments.last_mut() {
                Some(s) if s.kind == kind && s.task == task && s.end == SimTime(a) => {
                    s.end = SimTime(b);
                }
                _ => segments.push(Segment {
                    kind,
                    start: SimTime(a),
                    end: SimTime(b),
                    task,
                }),
            }
        }
        debug_assert_eq!(
            attribution.total(),
            SimTime(end) - SimTime(arrival),
            "sweep must tile the sojourn exactly"
        );
        spans.push(RequestSpan {
            request,
            tenant,
            job,
            arrival: SimTime(arrival),
            end: SimTime(end),
            segments,
            attribution,
        });
    }
    spans.sort_by_key(|s| s.request);
    spans
}

/// How many exemplar requests to surface per tenant.
pub const EXEMPLARS_PER_TENANT: usize = 3;

/// One tenant's tail-latency attribution: where its p99 comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantAttribution {
    /// Tenant index.
    pub tenant: u64,
    /// Requests with spans (admitted and executed).
    pub requests: u64,
    /// Component-wise sum over all the tenant's requests.
    pub total: Attribution,
    /// Exact p99 sojourn (order statistic over the tenant's spans).
    pub p99: SimDuration,
    /// The slowest requests at/above the p99 (ids, slowest first, at
    /// most [`EXEMPLARS_PER_TENANT`]).
    pub exemplars: Vec<u64>,
    /// The component dominating the exemplars' summed attribution —
    /// the one-word answer to "why did the tail blow up?".
    pub dominant: SegmentKind,
}

/// Per-tenant tail attribution over assembled spans, ordered by tenant.
pub fn tail_attribution(spans: &[RequestSpan]) -> Vec<TenantAttribution> {
    let mut by_tenant: BTreeMap<u64, Vec<&RequestSpan>> = BTreeMap::new();
    for s in spans {
        by_tenant.entry(s.tenant).or_default().push(s);
    }
    by_tenant
        .into_iter()
        .map(|(tenant, group)| {
            let mut total = Attribution::default();
            for s in &group {
                total.merge(&s.attribution);
            }
            let mut lats: Vec<u64> = group.iter().map(|s| s.latency().as_nanos()).collect();
            lats.sort_unstable();
            let n = lats.len();
            let rank = ((n as f64 * 0.99).ceil() as usize).clamp(1, n);
            let p99 = lats[rank - 1];
            let mut tail: Vec<&&RequestSpan> = group
                .iter()
                .filter(|s| s.latency().as_nanos() >= p99)
                .collect();
            tail.sort_by_key(|s| (std::cmp::Reverse(s.latency()), s.request));
            tail.truncate(EXEMPLARS_PER_TENANT);
            let mut tail_attr = Attribution::default();
            for s in &tail {
                tail_attr.merge(&s.attribution);
            }
            TenantAttribution {
                tenant,
                requests: group.len() as u64,
                total,
                p99: SimDuration(p99),
                exemplars: tail.iter().map(|s| s.request).collect(),
                dominant: tail_attr.dominant(),
            }
        })
        .collect()
}

/// The error budget a p99 SLO implies: 1% of requests may miss it.
pub const P99_ERROR_BUDGET: f64 = 0.01;

/// One rolling window of SLO burn accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurnWindow {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive; the last window absorbs the remainder).
    pub end: SimTime,
    /// Requests completing in the window within the SLO threshold.
    pub good: u64,
    /// Requests completing in the window over the threshold.
    pub bad: u64,
}

impl BurnWindow {
    /// Burn rate: the fraction of the 1% error budget this window
    /// consumed per unit budget — 1.0 means burning exactly at budget,
    /// 100.0 means every request was bad.
    pub fn burn_rate(&self) -> f64 {
        let total = self.good + self.bad;
        if total == 0 {
            return 0.0;
        }
        (self.bad as f64 / total as f64) / P99_ERROR_BUDGET
    }
}

/// A tenant's burn curve over the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantBurn {
    /// Tenant index.
    pub tenant: u64,
    /// Equal-width virtual-time windows spanning the run, each with its
    /// good/bad counts (requests bucketed by completion time).
    pub windows: Vec<BurnWindow>,
}

/// Computes per-tenant SLO burn curves: the run `[min arrival, max
/// end]` is cut into `windows` equal virtual-time windows, each request
/// lands in the window holding its completion time, and a request is
/// bad when its sojourn exceeds `threshold` (the p99 SLO). Ordered by
/// tenant; every tenant carries every window so curves align.
pub fn slo_burn(spans: &[RequestSpan], threshold: SimDuration, windows: usize) -> Vec<TenantBurn> {
    slo_burn_by(spans, windows, |_| Some(threshold))
}

/// [`slo_burn`] with a per-tenant SLO threshold: tenants for which
/// `threshold_of` returns `None` are held to no SLO and get no burn
/// curve. The window grid is shared across tenants (derived from *all*
/// spans), so the curves stay aligned even when only some tenants carry
/// SLOs.
pub fn slo_burn_by(
    spans: &[RequestSpan],
    windows: usize,
    threshold_of: impl Fn(u64) -> Option<SimDuration>,
) -> Vec<TenantBurn> {
    if spans.is_empty() || windows == 0 {
        return Vec::new();
    }
    let t_lo = spans.iter().map(|s| s.arrival.as_nanos()).min().unwrap_or(0);
    let t_hi = spans
        .iter()
        .map(|s| s.end.as_nanos())
        .max()
        .unwrap_or(t_lo)
        .max(t_lo + 1);
    let width = (t_hi - t_lo).div_ceil(windows as u64).max(1);
    let mut by_tenant: BTreeMap<u64, Vec<BurnWindow>> = BTreeMap::new();
    let blank: Vec<BurnWindow> = (0..windows as u64)
        .map(|i| BurnWindow {
            start: SimTime(t_lo + i * width),
            end: SimTime((t_lo + (i + 1) * width).min(t_hi)),
            good: 0,
            bad: 0,
        })
        .collect();
    for s in spans {
        let Some(threshold) = threshold_of(s.tenant) else {
            continue;
        };
        let wins = by_tenant.entry(s.tenant).or_insert_with(|| blank.clone());
        let idx = (((s.end.as_nanos() - t_lo) / width) as usize).min(windows - 1);
        if s.latency() > threshold {
            wins[idx].bad += 1;
        } else {
            wins[idx].good += 1;
        }
    }
    by_tenant
        .into_iter()
        .map(|(tenant, windows)| TenantBurn { tenant, windows })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::ids::ComputeId;

    fn tag(request: u64, tenant: u64, job: u64, at: u64) -> TraceEvent {
        TraceEvent::RequestTag { request, tenant, job, at: SimTime(at) }
    }

    fn queued(job: u64, task: u64, at: u64) -> TraceEvent {
        TraceEvent::TaskQueued { job, task, on: ComputeId(0), at: SimTime(at) }
    }

    fn dispatch(job: u64, task: u64, at: u64, waited: u64) -> TraceEvent {
        TraceEvent::TaskDispatch {
            job,
            task,
            on: ComputeId(0),
            at: SimTime(at),
            waited: SimDuration(waited),
        }
    }

    fn start(job: u64, task: u64, at: u64) -> TraceEvent {
        TraceEvent::TaskStart { job, task, on: ComputeId(0), at: SimTime(at) }
    }

    fn finish(job: u64, task: u64, at: u64) -> TraceEvent {
        TraceEvent::TaskFinish { job, task, on: ComputeId(0), at: SimTime(at) }
    }

    /// A two-task chain with admission delay, queue wait, a handover
    /// gap, and a retry: every component appears and they sum exactly.
    #[test]
    fn sweep_tiles_the_sojourn_exactly() {
        let events = vec![
            tag(42, 1, 0, 0),
            // Admission: nothing queued until t=10.
            queued(0, 0, 10),
            dispatch(0, 0, 25, 15), // queue wait [10, 25)
            start(0, 0, 25),
            // Retry: attempt lost [40, 60), relaunched at 60.
            TraceEvent::TaskRetry {
                job: 0,
                task: 0,
                from: ComputeId(0),
                to: ComputeId(1),
                attempt: 1,
                at: SimTime(60),
                lost: SimDuration(20),
            },
            finish(0, 0, 100), // compute [25, 100) minus the recovery slice
            // Handover gap [100, 120), then task 1 runs back-to-back.
            queued(0, 1, 120),
            dispatch(0, 1, 120, 0),
            start(0, 1, 120),
            finish(0, 1, 150),
        ];
        let spans = assemble_request_spans(&events);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!((s.request, s.tenant, s.job), (42, 1, 0));
        assert_eq!(s.latency(), SimDuration(150));
        let a = &s.attribution;
        assert_eq!(a.admission, SimDuration(10));
        assert_eq!(a.queue, SimDuration(15));
        assert_eq!(a.recovery, SimDuration(20));
        assert_eq!(a.compute, SimDuration(55 + 30)); // [25,100) minus recovery + [120,150)
        assert_eq!(a.transfer, SimDuration(20)); // the handover gap
        assert_eq!(a.total(), s.latency(), "components must sum to latency");
        // Segments tile [arrival, end) without gaps or overlaps.
        assert_eq!(s.segments.first().unwrap().start, s.arrival);
        assert_eq!(s.segments.last().unwrap().end, s.end);
        for w in s.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start, "no gaps between segments");
        }
    }

    #[test]
    fn untagged_jobs_and_empty_traces_produce_no_spans() {
        assert!(assemble_request_spans(&[]).is_empty());
        let events = vec![queued(0, 0, 0), start(0, 0, 5), finish(0, 0, 9)];
        assert!(assemble_request_spans(&events).is_empty());
        // A tag whose job never ran is skipped, not fabricated.
        let events = vec![tag(1, 0, 7, 0)];
        assert!(assemble_request_spans(&events).is_empty());
    }

    #[test]
    fn overlapping_tasks_count_wall_clock_once() {
        // Two tasks computing in parallel [10, 50) and [20, 60): the
        // request spends 50 ns in compute, not 80.
        let events = vec![
            tag(0, 0, 0, 0),
            queued(0, 0, 0),
            dispatch(0, 0, 10, 10),
            start(0, 0, 10),
            queued(0, 1, 0),
            dispatch(0, 1, 20, 20),
            start(0, 1, 20),
            finish(0, 0, 50),
            finish(0, 1, 60),
        ];
        let spans = assemble_request_spans(&events);
        let a = &spans[0].attribution;
        assert_eq!(a.compute, SimDuration(50));
        assert_eq!(a.queue, SimDuration(10), "queue only while nothing computes");
        assert_eq!(a.total(), spans[0].latency());
    }

    #[test]
    fn tail_attribution_names_the_dominant_component() {
        let mk = |request, tenant, queue_ns, compute_ns| {
            let mut attribution = Attribution::default();
            attribution.add(SegmentKind::Queue, SimDuration(queue_ns));
            attribution.add(SegmentKind::Compute, SimDuration(compute_ns));
            RequestSpan {
                request,
                tenant,
                job: request,
                arrival: SimTime(0),
                end: SimTime(queue_ns + compute_ns),
                segments: Vec::new(),
                attribution,
            }
        };
        let spans = vec![
            mk(0, 0, 0, 100),
            mk(1, 0, 900, 100), // the tenant-0 tail: queue-dominated
            mk(2, 1, 0, 500),
        ];
        let tails = tail_attribution(&spans);
        assert_eq!(tails.len(), 2);
        let t0 = &tails[0];
        assert_eq!(t0.tenant, 0);
        assert_eq!(t0.requests, 2);
        assert_eq!(t0.p99, SimDuration(1000));
        assert_eq!(t0.exemplars, vec![1]);
        assert_eq!(t0.dominant, SegmentKind::Queue);
        assert_eq!(tails[1].dominant, SegmentKind::Compute);
    }

    #[test]
    fn burn_windows_bucket_by_completion_and_align_across_tenants() {
        let mk = |request, tenant, arrival, end| RequestSpan {
            request,
            tenant,
            job: request,
            arrival: SimTime(arrival),
            end: SimTime(end),
            segments: Vec::new(),
            attribution: Attribution::default(),
        };
        let spans = vec![
            mk(0, 0, 0, 10),    // good, window 0
            mk(1, 0, 0, 95),    // bad (latency 95 > 50), window 3
            mk(2, 1, 5, 40),    // good, window 1
        ];
        let burn = slo_burn(&spans, SimDuration(50), 4);
        assert_eq!(burn.len(), 2);
        for b in &burn {
            assert_eq!(b.windows.len(), 4, "curves align across tenants");
        }
        let t0 = &burn[0];
        assert_eq!((t0.windows[0].good, t0.windows[0].bad), (1, 0));
        assert_eq!((t0.windows[3].good, t0.windows[3].bad), (0, 1));
        assert_eq!(t0.windows[3].burn_rate(), 100.0, "all-bad window burns 100x budget");
        assert_eq!(t0.windows[1].burn_rate(), 0.0);
        let t1 = &burn[1];
        assert_eq!((t1.windows[1].good, t1.windows[1].bad), (1, 0));
        assert!(slo_burn(&[], SimDuration(1), 4).is_empty());
    }
}
