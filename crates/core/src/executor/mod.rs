//! The discrete-event, out-of-order executor.
//!
//! `run_wave` drives one submission's jobs through virtual time as a
//! proper event simulation instead of a serial drain:
//!
//! - an **event heap** keyed on [`SimTime`] orders everything that can
//!   change executor state: a job arriving, a dataflow edge being
//!   satisfied (output handed over / transfer complete), a compute lane
//!   freeing up;
//! - **dependency counting** over [`disagg_dataflow::graph::Dag`]
//!   in-degrees moves a task into its assigned device's **ready queue**
//!   the instant its last incoming edge is satisfied;
//! - each compute device **dispatches** queued tasks into free lanes
//!   highest upward rank first (the scheduler's cost model feeds the
//!   order); a task whose attempt a fault interrupted re-enters a ready
//!   queue and is dispatched the same way;
//! - compute and region transfer **overlap**: a producer's successors
//!   are unblocked by per-edge events (pipelined early for streaming
//!   pairs), so independent DAG branches advance concurrently on
//!   different devices while transfers are still in flight elsewhere.
//!
//! There is exactly one loop: take the minimum `(time, seq)` event, apply
//! it against the runtime, repeat until none is left. Every commit
//! mutates the one shared [`Runtime`], so there is nothing for a second
//! loop to run beside it (DESIGN.md §11 has the measurement).
//!
//! Events known before the loop starts — every job's source tasks
//! becoming ready at its arrival — never enter the heap: they are a
//! `(time, seq)`-sorted vector consumed by a cursor and merged with the
//! heap's top, so the heap holds in-flight events only (an epoch of
//! 4 000 requests used to sit under every one of them).
//!
//! Determinism: the heap breaks time ties by the monotone sequence
//! number, queue pops break rank ties by (queue time, job, task), and
//! the bandwidth ledger is charged in event order — two runs of the
//! same submission produce identical reports.
//!
//! # Hot-path layout
//!
//! Per-task state is kept in dense arenas indexed by a one-time global
//! task numbering (`task_base[ji] + task.index()`), not `(job, task)`
//! hash maps: dependency counts, pending inputs, and start/finish times
//! are all O(1) array hits. Ready queues and lanes are indexed directly
//! by [`ComputeId::index`]; ready queues are binary heaps whose key *is*
//! the dispatch order (see `task::QueueEntry`), and a device's lanes are
//! a min-heap of their free times. Deferred
//! task exits live in one min-heap ordered by `(finish, seq)`, so the
//! event loop never re-sorts.
//!
//! Committing a task allocates nothing: the inputs handed to each
//! consumer sit in one flat buffer sliced by prefix sums of the
//! in-degrees (`Wave::push_input`), the co-placement accessor list is a
//! reused scratch, a [`TaskReport`](crate::report::TaskReport) is a
//! fixed record that shares its spec's name, its placements go straight
//! into the report's run-wide list, and `report.tasks` and that list are
//! reserved from the wave's task and declared-region counts
//! (`tests/alloc_budget.rs` holds the whole path to a budget).
//!
//! Debug builds close every wave with the wave audit (`crate::audit`):
//! the pool moved by exactly what the trace booked, none of the wave's
//! tasks still owns a live region, and no device ran more attempts at
//! once than it has slots. While the wave runs, the audit asserts that
//! event times never decrease and that regions land on usable devices.

mod task;

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use disagg_dataflow::job::{JobId, JobSpec};
use disagg_dataflow::task::TaskId;
use disagg_hwsim::fx::FxHashMap;
use disagg_hwsim::ids::ComputeId;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::trace::TraceEvent;
use disagg_region::pool::RegionId;
use disagg_region::region::OwnerId;
use disagg_region::typed::RegionType;
use disagg_sched::enforce::check_placement;
use disagg_sched::schedule::{Schedule, Scheduler};

use crate::error::DisaggError;
use crate::report::RunReport;
use crate::runtime::Runtime;

use task::{enqueue, queue_on, service, QueueEntry};

/// What can happen at an instant of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
    /// A task with no (remaining) prerequisites becomes ready: sources
    /// fire this at their job's arrival time.
    Ready { ji: usize, task: TaskId },
    /// One incoming dataflow edge of a task was satisfied (the
    /// producer's output is transferred/copied and addressable).
    EdgeDone { ji: usize, task: TaskId },
    /// A lane on a compute device became free.
    LaneFree { compute: ComputeId },
    /// A task whose attempt a fault interrupted re-enters the ready queue
    /// of `to`, the replacement chosen when the fault was detected.
    Retry { ji: usize, task: TaskId, to: ComputeId },
}

/// What a task a fault has interrupted carries into its next attempt —
/// not its regions: the retry places its own, like a first attempt.
pub(crate) struct Retry {
    /// Attempts interrupted so far: the retry count.
    pub attempts: u32,
    /// The index of the last fault event that interrupted an attempt; a
    /// later attempt looks only past it.
    pub handled: usize,
}

/// Mutable per-wave state threaded through the event loop.
pub(crate) struct Wave {
    pub job_ids: Vec<JobId>,
    pub schedule: Schedule,
    /// The event heap (min on `(time, seq)`).
    pub heap: BinaryHeap<Reverse<(SimTime, u64, EventKind)>>,
    /// Event sequence, assigned at push time: breaks time ties in push
    /// order, so the heap is totally ordered.
    pub seq: u64,
    /// Ready queues, one per compute device, indexed by
    /// [`ComputeId::index`] (min-heap on [`QueueEntry`]).
    pub queues: Vec<BinaryHeap<Reverse<QueueEntry>>>,
    /// Per compute device ([`ComputeId::index`]), a min-heap of its
    /// lanes' free times, one entry per lane: a dispatch takes the top
    /// if it is free by then, and an attempt's end puts it back.
    pub lanes: Vec<BinaryHeap<Reverse<SimTime>>>,
    /// Task-exit cleanup deferred until virtual time passes the task's
    /// finish. Min-heap on `(finish, seq)`.
    pub pending_exits: BinaryHeap<Reverse<(SimTime, u64, OwnerId)>>,
    /// Exit sequence (same trick as `seq`: equal finishes drain in
    /// deferral order).
    pub exit_seq: u64,
    /// Global task numbering: task `(ji, t)` owns arena slot
    /// `task_base[ji] + t.index()`.
    pub task_base: Vec<usize>,
    /// Unsatisfied incoming-edge counts, indexed by global task number.
    pub deps_left: Vec<u32>,
    /// Handed-over input regions awaiting each consumer, all in one
    /// buffer: task `g`'s are `inputs[inputs_at[g]..][..inputs_len[g]]`.
    /// `inputs_at` is the prefix sums of the in-degrees (one more entry
    /// than tasks), which bound how many regions a task can be handed.
    pub inputs: Vec<RegionId>,
    pub inputs_at: Vec<u32>,
    pub inputs_len: Vec<u32>,
    /// Scratch for the compute devices that will touch a region being
    /// placed (`PlacementEngine::choose_shared`'s accessor list).
    pub accessors: Vec<ComputeId>,
    /// First-attempt start, per task.
    pub start_at: Vec<SimTime>,
    /// The latest end of any attempt so far, completed or interrupted:
    /// the wave ends there.
    pub last_end: SimTime,
    /// The retry state of every task a fault has interrupted, keyed by
    /// global task number. Few tasks are ever interrupted, so this is a
    /// map, and a fault-free wave leaves it empty.
    pub retries: FxHashMap<usize, Retry>,
    /// Job-scoped published-region maps (user-facing string keys).
    pub published: Vec<FxHashMap<String, RegionId>>,
    pub global_state: Vec<Option<RegionId>>,
    /// Per-job tenant identity from the submission's request tags: a
    /// tagged job that exhausts its retries fails alone.
    pub tenants: Vec<Option<u64>>,
    /// Jobs declared failed under fail-fast isolation: their remaining
    /// events are committed as no-ops instead of erroring the wave.
    pub failed: Vec<bool>,
    /// Per-task completion flags (global task numbering), so a fail-fast
    /// knows which of the job's tasks it is cancelling.
    pub ran: Vec<bool>,
    /// Tasks cancelled by fail-fast isolation, for the end-of-wave
    /// drain accounting.
    pub failed_tasks: usize,
    /// Events committed (the loop's unit of work).
    pub events: u64,
    pub report: RunReport,
    #[cfg(debug_assertions)]
    pub books: crate::audit::Books,
}

impl Wave {
    /// Schedules an event at `at`, behind everything already scheduled
    /// for the same instant.
    pub(crate) fn push_event(&mut self, at: SimTime, kind: EventKind) {
        self.heap.push(Reverse((at, self.seq, kind)));
        self.seq += 1;
    }

    /// Ends an attempt that started at `start` on `compute` at `end`: the
    /// lane it took is free again from `end`, the device is woken then so
    /// queued work dispatches the instant it opens, and the wave lasts at
    /// least until `end`.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub(crate) fn end_attempt(&mut self, compute: ComputeId, start: SimTime, end: SimTime) {
        #[cfg(debug_assertions)]
        self.books.attempt(compute, start, end);
        self.last_end = self.last_end.max(end);
        self.lanes[compute.index()].push(Reverse(end));
        self.push_event(end, EventKind::LaneFree { compute });
    }

    /// Global arena slot of a task.
    pub(crate) fn gx(&self, ji: usize, task: TaskId) -> usize {
        self.task_base[ji] + task.index()
    }

    /// Hands `region` over to task `g` as its next input.
    pub(crate) fn push_input(&mut self, g: usize, region: RegionId) {
        let at = self.inputs_at[g] + self.inputs_len[g];
        debug_assert!(at < self.inputs_at[g + 1], "more inputs than incoming edges");
        self.inputs[at as usize] = region;
        self.inputs_len[g] += 1;
    }

    /// Defers a task's exit cleanup until virtual time passes `finish`.
    pub(crate) fn defer_exit(&mut self, finish: SimTime, who: OwnerId) {
        self.pending_exits
            .push(Reverse((finish, self.exit_seq, who)));
        self.exit_seq += 1;
    }

    /// Applies deferred task exits to the pool in `(finish, seq)` order:
    /// those with `finish <= t` for `upto = Some(t)` (the pre-allocation
    /// flush in [`task::run_task`]), all of them for `None` (end of
    /// wave).
    pub(crate) fn flush_exits(&mut self, rt: &mut Runtime, upto: Option<SimTime>) {
        while let Some(&Reverse((t, _, who))) = self.pending_exits.peek() {
            if upto.is_some_and(|b| t > b) {
                break;
            }
            self.pending_exits.pop();
            rt.mgr.release_all_traced(&mut rt.trace, who, t);
        }
    }
}

/// Applies one event against the runtime state, in `(time, seq)` order.
fn commit(
    rt: &mut Runtime,
    w: &mut Wave,
    jobs: &[JobSpec],
    at: SimTime,
    kind: EventKind,
) -> Result<(), DisaggError> {
    w.events += 1;
    #[cfg(debug_assertions)]
    w.books.commit(at);
    match kind {
        // Events addressed to a fail-fast-isolated job are spent as
        // no-ops: the wave keeps draining, the job stays cancelled.
        EventKind::Ready { ji, task } => {
            if w.failed[ji] {
                return Ok(());
            }
            enqueue(rt, w, jobs, ji, task, at)
        }
        EventKind::EdgeDone { ji, task } => {
            if w.failed[ji] {
                return Ok(());
            }
            let g = w.gx(ji, task);
            w.deps_left[g] -= 1;
            if w.deps_left[g] == 0 {
                enqueue(rt, w, jobs, ji, task, at)
            } else {
                Ok(())
            }
        }
        EventKind::LaneFree { compute } => service(rt, w, jobs, compute, at),
        EventKind::Retry { ji, task, to } => {
            if w.failed[ji] {
                return Ok(());
            }
            queue_on(rt, w, jobs, ji, task, to, at, at)
        }
    }
}

/// Runs one submission's jobs, all admitted at once, as one wave.
/// `offsets` are per-job arrival delays relative to the wave start;
/// `tags` are optional per-job `(request, tenant, waited)` identities
/// stamped into the trace at the request's arrival, `waited` before the
/// job's release, for request-centric attribution.
pub(crate) fn run_wave(
    rt: &mut Runtime,
    jobs: Vec<JobSpec>,
    offsets: Vec<SimDuration>,
    tags: Vec<Option<(u64, u64, SimDuration)>>,
) -> Result<RunReport, DisaggError> {
    let t0 = rt.clock;
    let moved_mark = rt.trace.bytes_moved();
    let ownership_mark = rt.trace.bytes_transferred_by_ownership();
    let job_ids: Vec<JobId> = jobs
        .iter()
        .map(|_| {
            let id = JobId(rt.next_job);
            rt.next_job += 1;
            id
        })
        .collect();
    let pairs: Vec<(JobId, &JobSpec)> = job_ids.iter().copied().zip(jobs.iter()).collect();
    let schedule = Scheduler::new(rt.config.sched).plan(&rt.topo, &pairs)?;
    // The books open before the wave's first allocation, the job-wide
    // state below.
    #[cfg(debug_assertions)]
    let books = crate::audit::Books::open(rt, jobs.iter().map(|j| j.tasks.len()).sum());

    // Job-wide global state, placed where every assigned device can
    // address it.
    let mut global_state: Vec<Option<RegionId>> = vec![None; jobs.len()];
    let mut violations = Vec::new();
    for (ji, (&jid, spec)) in job_ids.iter().zip(jobs.iter()).enumerate() {
        if spec.global_state_bytes == 0 {
            continue;
        }
        let mut computes: Vec<ComputeId> = (0..spec.tasks.len())
            .filter_map(|t| schedule.assignment(jid, TaskId(t as u32)))
            .collect();
        computes.dedup();
        let props = RegionType::GlobalState.properties();
        let (size, faults) = (spec.global_state_bytes, &rt.config.faults);
        let dev = rt
            .engine
            .choose_shared(&rt.topo, rt.mgr.pool(), faults, &computes, &props, size, t0)
            .ok_or(DisaggError::Placement {
                job: jid,
                task: TaskId(0),
                what: "global state",
            })?;
        #[cfg(debug_assertions)]
        crate::audit::placed(faults, &rt.topo, computes[0], dev, t0);
        let id = rt.mgr.alloc_traced(
            &mut rt.trace,
            dev,
            spec.global_state_bytes,
            RegionType::GlobalState,
            props.clone(),
            OwnerId::Job(jid.0),
            t0,
        )?;
        check_placement(&rt.topo, computes[0], id, dev, &props, &mut violations);
        global_state[ji] = Some(id);
    }

    // One-time global task numbering: per-job offsets into flat arenas.
    // The wave's declared regions bound its report's placements: an
    // interrupted attempt's leave the list before its retry adds its own.
    let mut task_base = Vec::with_capacity(jobs.len());
    let (mut total_tasks, mut declared) = (0usize, 0usize);
    for spec in &jobs {
        task_base.push(total_tasks);
        total_tasks += spec.tasks.len();
        declared += spec
            .tasks
            .iter()
            .map(|t| [t.private_scratch, t.output_bytes, t.global_scratch])
            .map(|bytes| bytes.iter().filter(|&&b| b > 0).count())
            .sum::<usize>();
    }
    let mut deps_left: Vec<u32> = Vec::with_capacity(total_tasks);
    for spec in &jobs {
        deps_left.extend(spec.dag.indegrees());
    }
    let mut inputs_at = Vec::with_capacity(total_tasks + 1);
    let mut total_edges = 0u32;
    inputs_at.push(0);
    for &d in &deps_left {
        total_edges += d;
        inputs_at.push(total_edges);
    }
    let mut w = Wave {
        job_ids,
        schedule,
        heap: BinaryHeap::new(),
        seq: 0,
        queues: rt.topo.compute_ids().map(|_| BinaryHeap::new()).collect(),
        lanes: rt
            .topo
            .compute_devices()
            .iter()
            .map(|c| vec![Reverse(t0); c.slots as usize].into())
            .collect(),
        pending_exits: BinaryHeap::new(),
        exit_seq: 0,
        task_base,
        deps_left,
        inputs: vec![RegionId(0); total_edges as usize],
        inputs_at,
        inputs_len: vec![0; total_tasks],
        accessors: Vec::new(),
        start_at: vec![SimTime::ZERO; total_tasks],
        last_end: t0,
        retries: FxHashMap::default(),
        published: jobs.iter().map(|_| FxHashMap::default()).collect(),
        global_state,
        tenants: tags.iter().map(|t| t.map(|(_, tenant, _)| tenant)).collect(),
        failed: vec![false; jobs.len()],
        ran: vec![false; total_tasks],
        failed_tasks: 0,
        events: 0,
        report: RunReport {
            tasks: Vec::with_capacity(total_tasks),
            placements: Vec::with_capacity(declared),
            violations,
            ..RunReport::default()
        },
        #[cfg(debug_assertions)]
        books,
    };

    // Seed the frontier: source tasks become ready when their job is
    // released. Request-tagged jobs stamp their identity into the trace
    // here, before any event commits, so the tag block leads the wave;
    // the tag is stamped at the request's own arrival, `waited` before
    // the release, so its span covers the wait for submission.
    let mut arrivals: Vec<(SimTime, u64, EventKind)> = Vec::new();
    for (ji, spec) in jobs.iter().enumerate() {
        let release = t0 + offsets[ji];
        if let Some(&Some((request, tenant, waited))) = tags.get(ji) {
            rt.trace.push(TraceEvent::RequestTag {
                request,
                tenant,
                job: w.job_ids[ji].0,
                at: SimTime(release.as_nanos().saturating_sub(waited.as_nanos())),
            });
        }
        for task in spec.dag.frontier() {
            arrivals.push((release, w.seq, EventKind::Ready { ji, task }));
            w.seq += 1;
        }
    }
    // Sequence numbers rise in push order, so a stable sort on time
    // alone leaves the vector in the `(time, seq)` order the heap would
    // have popped it in.
    arrivals.sort_by_key(|&(at, _, _)| at);

    // One hotness decay tick per wave, so old heat fades before this
    // wave's accesses are recorded.
    rt.mgr.hotness_mut().decay();
    let mut arrivals = arrivals.into_iter().peekable();
    loop {
        // The next event is the smaller of the next arrival and the
        // heap's top; sequence numbers are unique, so there is no tie.
        let arrival_first = match (arrivals.peek(), w.heap.peek()) {
            (Some(&(at, seq, _)), Some(&Reverse((top_at, top_seq, _)))) => {
                (at, seq) < (top_at, top_seq)
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let (at, _, kind) = if arrival_first {
            arrivals.next().expect("peeked")
        } else {
            w.heap.pop().expect("peeked").0
        };
        commit(rt, &mut w, &jobs, at, kind)?;
    }
    assert_eq!(
        w.report.tasks.len() + w.failed_tasks,
        total_tasks,
        "event heap drained with tasks unrun; DAG validation should prevent this"
    );

    // End of wave: flush the remaining task exits in time order, then
    // release job-scoped regions as the last attempt ends — a finish, or
    // the detection of an interrupted attempt, which a failed request's
    // last one may be; App-scoped (persistent) regions survive.
    let end = w.last_end;
    w.flush_exits(rt, None);
    for &jid in &w.job_ids {
        rt.mgr.release_all_traced(&mut rt.trace, OwnerId::Job(jid.0), end);
    }
    #[cfg(debug_assertions)]
    w.books.close(rt, &w.job_ids, &jobs);

    rt.clock = end;
    let mut report = w.report;
    report.events = w.events;
    report.makespan = end - t0;
    // This wave's share of the trace's running totals: reports are
    // summed across waves and epochs, so each must carry only its own.
    report.bytes_moved = rt.trace.bytes_moved() - moved_mark;
    report.bytes_ownership_transferred =
        rt.trace.bytes_transferred_by_ownership() - ownership_mark;
    // `(job, task)` is unique per report, so the order is fully decided.
    report
        .tasks
        .sort_unstable_by_key(|t| (t.finish, t.job, t.task));
    // Each report shares its own spec's name. A name repeats across the
    // wave's jobs (every instance of a serving template spells its tasks
    // alike), so the reports of equal names are given the first one's
    // string and the specs' copies die with them when this call ends.
    if let Some(&JobId(first)) = w.job_ids.first() {
        let mut names: FxHashMap<&str, &Arc<str>> = FxHashMap::default();
        for t in &mut report.tasks {
            let name = &jobs[(t.job.0 - first) as usize].tasks[t.task.index()].name;
            t.name = Arc::clone(names.entry(name).or_insert(name));
        }
    }
    // The DAG the wave honored, for critical-path analysis.
    for (ji, spec) in jobs.iter().enumerate() {
        let jid = w.job_ids[ji];
        for ti in 0..spec.dag.len() {
            let task = TaskId(ti as u32);
            for &succ in spec.dag.successors(task) {
                report.edges.push((jid, task, succ));
            }
        }
    }
    Ok(report)
}
