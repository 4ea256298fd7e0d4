//! Request-centric spans and tail-latency attribution.
//!
//! The serving layer stamps every admitted request's identity into the
//! trace as a [`TraceEvent::RequestTag`] at submission; this module
//! assembles, per request, a causal span covering its whole sojourn
//! (`arrival .. last task finish`) and decomposes that latency into
//! five exhaustive components:
//!
//! - **admission** — arrival until the job's first task entered a ready
//!   queue (the wait for the request's serving epoch);
//! - **queue** — some task of the request sat in a ready queue and
//!   nothing of the request was computing;
//! - **compute** — at least one task of the request was executing;
//! - **transfer** — dataflow handover gaps between tasks (outputs in
//!   flight, no task running or queued progress);
//! - **recovery** — time lost to interrupted attempts (from each lost
//!   attempt's start through its detection and the backoff, from
//!   `TaskRetry.lost`) or spent rebuilding
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

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::trace::TraceEvent;

use crate::metrics::nearest_rank;

/// The latency component a span segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentKind {
    /// From the request's tagged arrival to its job's first queue
    /// entry. The executor queues a job's source tasks at its release,
    /// and the tag is stamped at the request's arrival, which a serving
    /// epoch may release later: this component is the wait for the
    /// epoch, and zero where a request is released when it arrives.
    Admission,
    /// Waiting in a compute device's ready queue.
    Queue,
    /// At least one of the request's tasks was executing.
    Compute,
    /// Dataflow handover: outputs in flight between tasks.
    Transfer,
    /// A lost attempt (its run, detection and backoff) or reconstruction
    /// of lost bytes.
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
    /// Tagged arrival to the first enqueue ([`SegmentKind::Admission`]).
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

/// The covering kinds in sweep-priority order: when intervals overlap,
/// the lowest rank claims the time. Recovery loss always shows (it *is*
/// wasted time even while a sibling task computes); compute beats queue
/// (a queued task is not the bottleneck while another makes progress).
const KIND_BY_RANK: [SegmentKind; 3] = [
    SegmentKind::Recovery,
    SegmentKind::Compute,
    SegmentKind::Queue,
];

/// A covering kind's index in [`KIND_BY_RANK`].
fn sweep_rank(kind: SegmentKind) -> u8 {
    let rank = KIND_BY_RANK.iter().position(|&k| k == kind);
    rank.expect("admission and transfer classify uncovered time, never cover it") as u8
}

/// Everything the collection pass keeps about one job, in the table
/// [`assemble_request_spans`] indexes by `job - lowest tagged job`.
#[derive(Debug, Default)]
struct JobRecord {
    /// `(request, tenant, arrival)` of the job's last `RequestTag`;
    /// `None` for an untagged job inside the tagged id range.
    tag: Option<(u64, u64, u64)>,
    /// Earliest queue entry, `at − waited`, over the job's attempts.
    first_queued: Option<u64>,
    /// Latest end of a completed attempt.
    last_finish: Option<u64>,
    /// Classified intervals, in trace order.
    covering: Vec<Covering>,
}

/// The record of a tagged job. A job below `lo` wraps to an index past
/// the table.
fn tagged(table: &mut [JobRecord], lo: u64, job: u64) -> Option<&mut JobRecord> {
    table
        .get_mut(job.wrapping_sub(lo) as usize)
        .filter(|rec| rec.tag.is_some())
}

/// Assembles one [`RequestSpan`] per tagged request found in `events`.
/// Requests whose jobs never finished a task (nothing executed) are
/// skipped. Output is ordered by request id.
///
/// A runtime issues job ids consecutively, so per-job state lives in one
/// `Vec` indexed by `job - lowest tagged job` (sized by the tagged job-id
/// range, whatever the trace holds besides): an array hit per trace
/// event, no tree or hash lookup. Each [`TraceEvent::TaskAttempt`]
/// carries its own queue wait, start and end, so nothing is paired up.
pub fn assemble_request_spans(events: &[TraceEvent]) -> Vec<RequestSpan> {
    // Tag pass: the tagged job-id range, then job -> (request, tenant,
    // arrival); a job's last tag wins.
    let mut tags: Vec<(u64, (u64, u64, u64))> = Vec::new();
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for e in events {
        if let TraceEvent::RequestTag { request, tenant, job, at } = *e {
            lo = lo.min(job);
            hi = hi.max(job);
            tags.push((job, (request, tenant, at.as_nanos())));
        }
    }
    if tags.is_empty() {
        return Vec::new();
    }
    let mut table: Vec<JobRecord> = Vec::new();
    table.resize_with((hi - lo) as usize + 1, JobRecord::default);
    for (job, tag) in tags {
        table[(job - lo) as usize].tag = Some(tag);
    }

    // Collection pass: per tagged job, the classified intervals plus
    // the sojourn bounds.
    for e in events {
        match *e {
            TraceEvent::TaskAttempt { job, task, at, waited, end, completed, .. } => {
                if let Some(rec) = tagged(&mut table, lo, job) {
                    let (start, queued) = (at.as_nanos(), at.as_nanos() - waited.as_nanos());
                    rec.first_queued = Some(rec.first_queued.map_or(queued, |f| f.min(queued)));
                    if queued < start {
                        rec.covering.push(Covering {
                            start: queued,
                            end: start,
                            kind: SegmentKind::Queue,
                            task: Some(task),
                        });
                    }
                    if completed {
                        let t = end.as_nanos();
                        rec.last_finish = Some(rec.last_finish.map_or(t, |f| f.max(t)));
                        rec.covering.push(Covering {
                            start,
                            end: t,
                            kind: SegmentKind::Compute,
                            task: Some(task),
                        });
                    }
                }
            }
            TraceEvent::TaskRetry {
                job,
                task,
                at,
                lost,
                ..
            } if lost > SimDuration::ZERO => {
                if let Some(rec) = tagged(&mut table, lo, job) {
                    rec.covering.push(Covering {
                        start: at.as_nanos() - lost.as_nanos(),
                        end: at.as_nanos(),
                        kind: SegmentKind::Recovery,
                        task: Some(task),
                    });
                }
            }
            TraceEvent::Reconstruct { ref by, at, took, .. } if took > SimDuration::ZERO => {
                let Some(job) = by.job() else { continue };
                let task = by.task();
                if let Some(rec) = tagged(&mut table, lo, job) {
                    rec.covering.push(Covering {
                        start: at.as_nanos(),
                        end: at.as_nanos() + took.as_nanos(),
                        kind: SegmentKind::Recovery,
                        task,
                    });
                }
            }
            _ => {}
        }
    }

    // Sweep pass: tile each request's sojourn with single-component
    // segments, in job order. `cuts`, `open` and `segments` are scratch
    // reused across requests; a span keeps a copy of its segments at
    // their exact length.
    let mut spans: Vec<RequestSpan> = Vec::new();
    let mut cuts: Vec<u64> = Vec::new();
    let mut segments: Vec<Segment> = Vec::new();
    // The intervals open at the sweep position as `(rank, task, end)`,
    // best claim on top. The window's kind and task are the key itself,
    // so equal keys need no further order.
    let mut open: BinaryHeap<Reverse<(u8, Option<u64>, u64)>> = BinaryHeap::new();
    for (i, rec) in table.iter_mut().enumerate() {
        let (Some((request, tenant, arrival)), Some(end)) = (rec.tag, rec.last_finish) else {
            continue; // untagged, or nothing executed for this request
        };
        let end = end.max(arrival);
        let fq = rec.first_queued.unwrap_or(end).clamp(arrival, end);
        let mut ivs = std::mem::take(&mut rec.covering);
        for iv in &mut ivs {
            iv.start = iv.start.clamp(arrival, end);
            iv.end = iv.end.clamp(arrival, end);
        }
        ivs.retain(|iv| iv.end > iv.start);
        ivs.sort_unstable_by_key(|iv| iv.start);

        cuts.clear();
        cuts.extend([arrival, fq, end]);
        cuts.extend(ivs.iter().flat_map(|iv| [iv.start, iv.end]));
        cuts.sort_unstable();
        cuts.dedup();

        // Every interval bound is a cut, so an interval covers the
        // window [a, b) exactly when it starts at or before `a` and ends
        // after it: open what the sweep has reached, drop the top while
        // it has ended, and the top is the highest-priority claim (lowest
        // task on priority ties).
        open.clear();
        let mut reached = 0usize;
        segments.clear();
        let mut attribution = Attribution::default();
        for pair in cuts.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            while let Some(iv) = ivs.get(reached).filter(|iv| iv.start <= a) {
                open.push(Reverse((sweep_rank(iv.kind), iv.task, iv.end)));
                reached += 1;
            }
            while open.peek().is_some_and(|&Reverse((_, _, end))| end <= a) {
                open.pop();
            }
            let (kind, task) = match open.peek() {
                Some(&Reverse((rank, task, _))) => (KIND_BY_RANK[rank as usize], task),
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
        let span = RequestSpan {
            request,
            tenant,
            job: lo + i as u64,
            arrival: SimTime(arrival),
            end: SimTime(end),
            segments: segments.clone(),
            attribution,
        };
        #[cfg(debug_assertions)]
        audit_span(&span);
        spans.push(span);
    }
    spans.sort_by_key(|s| s.request);
    spans
}

/// The serving check of the runtime's wave audit, compiled into debug
/// builds only (`disagg_core` audits the pool and the owners at each
/// wave's end): a request span's components sum to its latency.
///
/// # Panics
///
/// When they do not.
#[cfg(debug_assertions)]
fn audit_span(span: &RequestSpan) {
    assert_eq!(
        span.attribution.total(),
        span.latency(),
        "wave audit: request {}'s span components do not sum to its latency",
        span.request
    );
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
            let p99 = nearest_rank(&lats, 0.99).expect("a tenant is listed for its spans");
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
/// bad when its sojourn exceeds its tenant's threshold (the p99 SLO).
/// Tenants for which `threshold_of` returns `None` are held to no SLO
/// and get no burn curve. Ordered by tenant; the window grid is shared
/// across tenants (derived from *all* spans), so every curve carries
/// every window and the curves align.
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
    use disagg_hwsim::ids::{ComputeId, MemDeviceId};
    use disagg_hwsim::rng::SimRng;
    use disagg_hwsim::trace::RebuildFor;

    fn tag(request: u64, tenant: u64, job: u64, at: u64) -> TraceEvent {
        TraceEvent::RequestTag { request, tenant, job, at: SimTime(at) }
    }

    fn attempt(job: u64, task: u64, at: u64, waited: u64, end: u64, completed: bool) -> TraceEvent {
        TraceEvent::TaskAttempt {
            job,
            task,
            on: ComputeId(0),
            at: SimTime(at),
            waited: SimDuration(waited),
            end: SimTime(end),
            completed,
        }
    }

    /// A completed attempt that queued at `queued`, started at `at` and
    /// finished at `end`.
    fn ran(job: u64, task: u64, queued: u64, at: u64, end: u64) -> TraceEvent {
        attempt(job, task, at, at - queued, end, true)
    }

    fn retry(job: u64, task: u64, at: u64, lost: u64) -> TraceEvent {
        TraceEvent::TaskRetry {
            job,
            task,
            from: ComputeId(0),
            to: ComputeId(1),
            attempt: 1,
            at: SimTime(at),
            lost: SimDuration(lost),
        }
    }

    fn reconstruct(job: Option<u64>, task: Option<u64>, at: u64, took: u64) -> TraceEvent {
        TraceEvent::Reconstruct {
            region: 0,
            dev: MemDeviceId(0),
            bytes: 64,
            at: SimTime(at),
            took: SimDuration(took),
            by: Box::new(match (job, task) {
                (Some(job), Some(task)) => RebuildFor::Task { job, task: task as u32 },
                (Some(job), None) => RebuildFor::Job(job),
                (None, _) => RebuildFor::Nobody,
            }),
        }
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

    /// One attempt of a tagged job as `(task, queued, start, end,
    /// completed)`, times in nanoseconds.
    type Attempt = (u64, u64, u64, u64, bool);

    /// The `BTreeMap`-keyed assembly this module shipped before the dense
    /// table, kept as the oracle the tests below compare against. It
    /// gathers a job's attempts first and derives the job's queue entry,
    /// last finish and queue and compute intervals from them afterwards.
    fn reference_spans(events: &[TraceEvent]) -> Vec<RequestSpan> {
        // Tag pass: job -> (request, tenant, arrival).
        let mut tag_of_job: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
        for e in events {
            if let TraceEvent::RequestTag {
                request,
                tenant,
                job,
                at,
            } = *e
            {
                tag_of_job.insert(job, (request, tenant, at.as_nanos()));
            }
        }
        if tag_of_job.is_empty() {
            return Vec::new();
        }

        // Collection pass: per tagged job, its attempts and its recovery
        // intervals.
        let mut attempts: BTreeMap<u64, Vec<Attempt>> = BTreeMap::new();
        let mut covering: BTreeMap<u64, Vec<Covering>> = BTreeMap::new();
        let tagged = |job: u64| tag_of_job.contains_key(&job);
        for e in events {
            match *e {
                TraceEvent::TaskAttempt { job, task, at, waited, end, completed, .. }
                    if tagged(job) =>
                {
                    let (start, end) = (at.as_nanos(), end.as_nanos());
                    let queued = start - waited.as_nanos();
                    attempts.entry(job).or_default().push((task, queued, start, end, completed));
                }
                TraceEvent::TaskRetry {
                    job,
                    task,
                    at,
                    lost,
                    ..
                } if tagged(job) && lost > SimDuration::ZERO => {
                    covering.entry(job).or_default().push(Covering {
                        start: at.as_nanos() - lost.as_nanos(),
                        end: at.as_nanos(),
                        kind: SegmentKind::Recovery,
                        task: Some(task),
                    });
                }
                TraceEvent::Reconstruct { ref by, at, took, .. } if took > SimDuration::ZERO => {
                    if let Some(job) = by.job().filter(|&job| tagged(job)) {
                        covering.entry(job).or_default().push(Covering {
                            start: at.as_nanos(),
                            end: at.as_nanos() + took.as_nanos(),
                            kind: SegmentKind::Recovery,
                            task: by.task(),
                        });
                    }
                }
                _ => {}
            }
        }

        // Sweep pass: tile each request's sojourn with single-component
        // segments.
        let mut spans: Vec<RequestSpan> = Vec::with_capacity(tag_of_job.len());
        for (&job, &(request, tenant, arrival)) in &tag_of_job {
            let tries = attempts.remove(&job).unwrap_or_default();
            let finishes = tries.iter().filter(|a| a.4).map(|a| a.3);
            let Some(end) = finishes.max() else {
                continue; // nothing executed for this request
            };
            let end = end.max(arrival);
            let fq = tries.iter().map(|a| a.1).min().unwrap_or(end).clamp(arrival, end);
            let mut ivs: Vec<Covering> = covering.remove(&job).unwrap_or_default();
            for &(task, queued, start, finish, completed) in &tries {
                let task = Some(task);
                if queued < start {
                    let kind = SegmentKind::Queue;
                    ivs.push(Covering { start: queued, end: start, kind, task });
                }
                if completed {
                    let kind = SegmentKind::Compute;
                    ivs.push(Covering { start, end: finish, kind, task });
                }
            }
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

    /// A random trace that is hostile rather than causal: two disjoint
    /// tagged job-id ranges with untagged jobs inside, between and
    /// around them, times drawn from a small range so intervals overlap
    /// and tie, re-tagged jobs, tasks with up to three attempts (a
    /// quarter of them interrupted, so some jobs never finish a task),
    /// retries that lost time, reconstructions with and without an owner
    /// — all shuffled, so events of a job precede its tag.
    fn random_trace(seed: u64) -> Vec<TraceEvent> {
        let mut rng = SimRng::new(seed);
        let mut events = Vec::new();
        let base = rng.range(3, 40);
        for job in base - 3..base + 45 {
            let in_range =
                (base..base + 12).contains(&job) || (base + 30..base + 40).contains(&job);
            if in_range && rng.chance(0.85) {
                for _ in 0..1 + rng.next_below(2) {
                    events.push(tag(
                        rng.next_below(64),
                        rng.next_below(4),
                        job,
                        rng.next_below(300),
                    ));
                }
            }
            for task in 0..1 + rng.next_below(6) {
                let dispatched = rng.range(50, 1_080);
                // Attempts, interrupted or not, may overlap and tie.
                for _ in 0..1 + rng.next_below(3) {
                    let at = dispatched + rng.next_below(40);
                    let waited = rng.next_below(at.min(120));
                    let end = at + rng.next_below(400);
                    events.push(attempt(job, task, at, waited, end, rng.chance(0.75)));
                }
                if rng.chance(0.3) {
                    let relaunch = dispatched + rng.range(1, 200);
                    events.push(retry(
                        job,
                        task,
                        relaunch,
                        rng.next_below(150).min(relaunch),
                    ));
                }
                if rng.chance(0.3) {
                    let owner = rng.chance(0.7).then_some(job);
                    let task = rng.chance(0.6).then_some(task);
                    events.push(reconstruct(
                        owner,
                        task,
                        dispatched + rng.next_below(100),
                        rng.next_below(60),
                    ));
                }
            }
        }
        rng.shuffle(&mut events);
        events
    }

    #[test]
    fn dense_assembly_equals_the_reference_on_random_traces() {
        let mut tagged_spans = 0;
        for seed in [1, 7, 23, 99, 0xdead, 0xbeef] {
            let events = random_trace(seed);
            let spans = assemble_request_spans(&events);
            assert_eq!(spans, reference_spans(&events), "seed {seed}");
            for s in &spans {
                assert_eq!(
                    s.attribution.total(),
                    s.latency(),
                    "seed {seed} request {}",
                    s.request
                );
            }
            tagged_spans += spans.len();
        }
        assert!(
            tagged_spans > 60,
            "the generator must tag work: {tagged_spans}"
        );
    }

    /// The trace of a real serving run: the two-template mix of
    /// `tests/serving.rs` under its chaos plan (rotating node crashes,
    /// two corruption bursts), with `ControlPlane::default()` so the run
    /// spans eight epochs of tagged job ids and its breakers trip.
    #[test]
    fn dense_assembly_equals_the_reference_on_a_chaotic_serving_trace() {
        use disagg_core::prelude::{
            JobBuilder, RecoveryPolicy, Runtime, RuntimeConfig, TaskSpec, WorkClass,
        };
        use disagg_hwsim::fault::{FaultInjector, FaultKind};
        use disagg_hwsim::presets::disaggregated_rack;
        use disagg_serve::{ArrivalProcess, ControlPlane, Request, ServeConfig, ServeLayer, Slo};

        let mut layer = ServeLayer::new();
        layer.register("chain", |req: &Request| {
            let mut j = JobBuilder::new("chain");
            let a = j.task(
                TaskSpec::new("a")
                    .work(WorkClass::Scalar, 20_000 + req.seed % 1_000)
                    .output_bytes(1 << 20),
            );
            let b = j.task(TaskSpec::new("b").work(WorkClass::Scalar, 10_000));
            j.edge(a, b);
            j.build().expect("chain template")
        });
        layer.register("fan", |req: &Request| {
            let mut j = JobBuilder::new("fan");
            let src = j.task(
                TaskSpec::new("src")
                    .work(WorkClass::Vector, 30_000 + req.seed % 2_000)
                    .output_bytes(4 << 20),
            );
            let sink = j.task(TaskSpec::new("sink").work(WorkClass::Scalar, 5_000));
            for i in 0..3 {
                let mid = j.task(
                    TaskSpec::new(format!("mid{i}"))
                        .work(WorkClass::Vector, 10_000)
                        .output_bytes(1 << 20),
                );
                j.edge(src, mid);
                j.edge(mid, sink);
            }
            j.build().expect("fan template")
        });
        let cfg = ServeConfig {
            arrivals: ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_micros(15),
            },
            requests: 48,
            tenants: 4,
            zipf_theta: 0.9,
            seed: 0xbeef,
            slo: Some(Slo {
                p50: SimDuration::from_micros(200),
                p99: SimDuration::from_millis(5),
            }),
            control: Some(ControlPlane::default()),
            ..ServeConfig::default()
        };

        // Probe the healthy horizon so the chaos schedule lands mid-run.
        let horizon = {
            let (topo, _rack) = disaggregated_rack(2, 4, 1, 8);
            let mut rt = Runtime::new(topo, RuntimeConfig::default());
            layer.run(&mut rt, &cfg).expect("probe run").makespan
        };
        let (topo, rack) = disaggregated_rack(2, 4, 1, 8);
        let mut faults = FaultInjector::none();
        let mttf = horizon.0 / 4;
        for k in 1..=4u64 {
            let node = rack.nodes[(k as usize - 1) % rack.nodes.len()];
            faults.schedule(SimTime(k * mttf), FaultKind::NodeCrash(node));
            faults.schedule(SimTime(k * mttf + mttf / 2), FaultKind::NodeRecover(node));
        }
        for dev in [rack.drams[0], rack.pool[0]] {
            faults.schedule(
                SimTime(horizon.0 / 8),
                FaultKind::Corrupt {
                    dev,
                    offset: 0,
                    len: 4 << 20,
                },
            );
        }
        let config = RuntimeConfig::traced().with_faults(faults.clone()).with_recovery(
            RecoveryPolicy::default()
                .with_detection_delay(SimDuration(2_000))
                .with_backoff(SimDuration(1_000)),
        );
        let mut rt = Runtime::new(topo, config);
        let report = layer.run(&mut rt, &cfg).expect("faulty serving run");

        let events = rt.trace().events();
        let disturbed = |e: &TraceEvent| {
            matches!(
                e,
                TraceEvent::TaskRetry { .. } | TraceEvent::Reconstruct { .. }
            )
        };
        assert!(
            events.iter().any(disturbed),
            "the chaos plan must disturb the run"
        );
        // `control: Some` also turns on the runtime's breakers, so the
        // differential covers a trace with trips and probes in it.
        assert!(!rt.breaker_transitions().is_empty(), "the crashes must trip a breaker");
        assert!(events.iter().any(|e| matches!(e, TraceEvent::BreakerTrip { .. })));
        let spans = assemble_request_spans(events);
        assert_eq!(
            spans.len(),
            report.admitted,
            "one span per admitted request"
        );
        assert!(spans
            .iter()
            .any(|s| s.attribution.recovery > SimDuration::ZERO));
        assert_eq!(spans, reference_spans(events));

        // With no retry allowed, the crashes fail requests alone: the
        // last attempt of each such request ends interrupted.
        let (topo, _rack) = disaggregated_rack(2, 4, 1, 8);
        let recovery = RecoveryPolicy::default().with_max_retries(0);
        let config = RuntimeConfig::traced().with_faults(faults).with_recovery(recovery);
        let mut rt = Runtime::new(topo, config);
        let report = layer.run(&mut rt, &cfg).expect("serving run failing requests alone");
        assert!(report.fast_failed > 0, "the crashes must fail a request");
        let events = rt.trace().events();
        assert_eq!(assemble_request_spans(events), reference_spans(events));
    }

    /// One 512-task fan-out request: a source, 510 staggered middles on
    /// a few lanes, a sink. The old sweep compared every cut window with
    /// every interval (~10⁶ here); the sorted sweep must give the same
    /// segments, and they are known.
    #[test]
    fn a_512_task_fan_out_sweeps_like_the_reference() {
        const MID: u64 = 510;
        let mut events = vec![tag(9, 2, 100, 0), ran(100, 0, 5, 5, 20)];
        // Middles become ready at 30 (a 10 ns handover), wait for one of
        // 8 lanes, and run 16 ns each: lane round `r` starts at 30 + 16 r.
        for m in 0..MID {
            let begin = 30 + 16 * (m / 8);
            events.push(ran(100, 1 + m, 30, begin, begin + 16));
        }
        let last_mid_end = 30 + 16 * ((MID - 1) / 8) + 16;
        // Two reconstructions in the middle of the fan-out, one owned by
        // task 7, one ambient; recovery outranks the compute under it.
        events.push(reconstruct(Some(100), Some(7), 100, 10));
        events.push(reconstruct(Some(100), None, 200, 4));
        let sink = MID + 1;
        events.push(ran(100, sink, last_mid_end + 6, last_mid_end + 6, last_mid_end + 26));

        let spans = assemble_request_spans(&events);
        assert_eq!(spans, reference_spans(&events));
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!((s.request, s.tenant, s.job), (9, 2, 100));
        assert_eq!(s.latency(), SimDuration(last_mid_end + 26));
        let a = &s.attribution;
        assert_eq!(a.admission, SimDuration(5));
        assert_eq!(
            a.queue,
            SimDuration(0),
            "something of the request always computes while middles wait"
        );
        assert_eq!(a.recovery, SimDuration(14));
        assert_eq!(a.transfer, SimDuration(10 + 6));
        assert_eq!(a.compute, SimDuration(15 + (last_mid_end - 30) - 14 + 20));
        assert_eq!(a.total(), s.latency());
        // Compute time goes to the lowest-numbered task running: the
        // first task of each lane round. Task 7's rebuild takes the end
        // of its round (one more segment), the ambient one the middle of
        // its round (two more).
        let rounds = MID.div_ceil(8) as usize;
        assert_eq!(s.segments.len(), 1 + 1 + 1 + rounds + 3 + 1 + 1);
        let seg = |kind, start, end, task| Segment {
            kind,
            start: SimTime(start),
            end: SimTime(end),
            task,
        };
        assert_eq!(s.segments[0], seg(SegmentKind::Admission, 0, 5, None));
        assert_eq!(s.segments[1], seg(SegmentKind::Compute, 5, 20, Some(0)));
        assert_eq!(s.segments[2], seg(SegmentKind::Transfer, 20, 30, None));
        assert_eq!(s.segments[3], seg(SegmentKind::Compute, 30, 46, Some(1)));
        // Round 4 is [94, 110), led by task 33; task 7's rebuild cuts it.
        let at = s
            .segments
            .iter()
            .position(|g| g.kind == SegmentKind::Recovery)
            .unwrap();
        assert_eq!(
            s.segments[at - 1],
            seg(SegmentKind::Compute, 94, 100, Some(33))
        );
        assert_eq!(
            s.segments[at],
            seg(SegmentKind::Recovery, 100, 110, Some(7))
        );
        assert_eq!(
            s.segments[at + 1],
            seg(SegmentKind::Compute, 110, 126, Some(41))
        );
        let ambient = s
            .segments
            .iter()
            .find(|g| g.kind == SegmentKind::Recovery && g.task.is_none());
        assert_eq!(ambient, Some(&seg(SegmentKind::Recovery, 200, 204, None)));
        let n = s.segments.len();
        assert_eq!(
            s.segments[n - 2],
            seg(SegmentKind::Transfer, last_mid_end, last_mid_end + 6, None)
        );
        assert_eq!(s.segments[n - 1].task, Some(sink));
    }

    /// A two-task chain with admission delay, queue wait, a handover
    /// gap, and a retry: every component appears and they sum exactly.
    #[test]
    fn sweep_tiles_the_sojourn_exactly() {
        let events = vec![
            tag(42, 1, 0, 0),
            // Admission: nothing queued until t=10; queue wait [10, 25),
            // then compute [25, 100) minus the recovery slice.
            ran(0, 0, 10, 25, 100),
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
            // Handover gap [100, 120), then task 1 runs back-to-back.
            ran(0, 1, 120, 120, 150),
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
        let events = vec![ran(0, 0, 0, 5, 9)];
        assert!(assemble_request_spans(&events).is_empty());
        // A tag whose job never ran is skipped, not fabricated; nor does
        // an interrupted attempt alone make a span.
        let events = vec![tag(1, 0, 7, 0), attempt(7, 0, 5, 5, 9, false)];
        assert!(assemble_request_spans(&events).is_empty());
    }

    #[test]
    fn overlapping_tasks_count_wall_clock_once() {
        // Two tasks computing in parallel [10, 50) and [20, 60): the
        // request spends 50 ns in compute, not 80.
        let events = vec![
            tag(0, 0, 0, 0),
            ran(0, 0, 0, 10, 50),
            ran(0, 1, 0, 20, 60),
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "request 7's span components do not sum to its latency")]
    fn a_span_whose_components_miss_its_latency_breaks_the_books() {
        audit_span(&RequestSpan {
            request: 7,
            tenant: 0,
            job: 0,
            arrival: SimTime(0),
            end: SimTime(10),
            segments: Vec::new(),
            attribution: Attribution {
                queue: SimDuration(4),
                compute: SimDuration(5),
                ..Attribution::default()
            },
        });
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
        let burn = slo_burn_by(&spans, 4, |_| Some(SimDuration(50)));
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
        assert!(slo_burn_by(&[], 4, |_| Some(SimDuration(1))).is_empty());
    }
}
