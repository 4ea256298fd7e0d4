//! Task-level execution: dispatch, region allocation, body execution,
//! fault retries, and successor handover. An attempt a fault interrupts
//! ends at its detection; the retry is one more dispatch.
//!
//! Everything here runs inside the event loop's commit step (see the
//! module docs in [`super`]): handlers mutate the [`Runtime`] — the
//! pool, ledger and trace — and the wave's report one event at a time,
//! in `(SimTime, seq)` order. Every region a task's run places is audited
//! against its declared properties into that report.

use std::cmp::Reverse;
use std::sync::Arc;

use disagg_dataflow::ctx::{Placer, TaskCtx, TaskRegions};
use disagg_dataflow::job::{JobId, JobSpec};
use disagg_dataflow::task::{TaskError, TaskId, TaskSpec};
use disagg_hwsim::calibration;
use disagg_hwsim::compute::WorkClass;
use disagg_hwsim::fault::{FaultInjector, FaultKind, Target};
use disagg_hwsim::ids::{ComputeId, LinkId, NodeId};
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::trace::TraceEvent;
use disagg_region::access::{AccessStats, Accessor};
use disagg_region::pool::RegionId;
use disagg_region::props::PropertySet;
use disagg_region::migrate::charge_copy;
use disagg_region::region::{OwnerId, RegionError};
use disagg_region::typed::RegionType;
use disagg_sched::enforce::{check_placement, needs_encryption, Violation};
use disagg_sched::placement::PlacementEngine;
use disagg_sched::schedule::Scheduler;

use crate::config::HandoverPolicy;
use crate::error::DisaggError;
use crate::report::{FailedJob, Placed, PlacedKind};
use crate::runtime::Runtime;

use super::{EventKind, Retry, Wave};

/// A ready-queue entry: `(rank key, queue time, ji, task)`.
///
/// The tuple's lexicographic `Ord` *is* the dispatch order, so the
/// per-device ready queue is a binary heap (O(log n) pop): highest
/// upward rank first, then the `(queue time, ji, task)` tail as the
/// deterministic tie-break — `(ji, task)` is unique per queue.
pub(crate) type QueueEntry = (u64, SimTime, usize, TaskId);

/// The heap key (smallest pops first). Upward ranks are finite and
/// non-negative, where `f64::to_bits` is monotone increasing, so the
/// bitwise complement is monotone *decreasing* — the min-heap pops the
/// highest rank first, matching `total_cmp` descending.
pub(crate) fn queue_key(rank: f64, queued_at: SimTime, ji: usize, task: TaskId) -> QueueEntry {
    (!rank.to_bits(), queued_at, ji, task)
}

/// A dispatched queue entry, decoded.
pub(crate) struct Queued {
    pub ji: usize,
    pub task: TaskId,
    pub queued_at: SimTime,
}

/// Adapter exposing the placement engine as the programming model's
/// [`Placer`] trait (for ad-hoc allocations inside task bodies): the
/// engine picks among the devices usable at the body's current virtual
/// time, the task's accessor allocates, and the placement is audited into
/// the wave's report like any other.
struct EnginePlacer<'e> {
    engine: &'e mut PlacementEngine,
    faults: &'e FaultInjector,
    violations: &'e mut Vec<Violation>,
}

impl Placer for EnginePlacer<'_> {
    fn place(
        &mut self,
        acc: &mut Accessor<'_>,
        rtype: RegionType,
        props: PropertySet,
        size: u64,
    ) -> Result<RegionId, TaskError> {
        let (topo, compute, at) = (acc.topology(), acc.compute, acc.now);
        let dev = self
            .engine
            .choose(topo, acc.manager().pool(), self.faults, compute, &props, size, at)
            .ok_or_else(|| TaskError::new("no device satisfies the requested properties"))?;
        let region = acc.alloc(dev, size, rtype, props.clone())?;
        #[cfg(debug_assertions)]
        crate::audit::placed(self.faults, acc.topology(), compute, dev, at);
        check_placement(acc.topology(), compute, region, dev, &props, self.violations);
        Ok(region)
    }
}

/// Runs the body of task `g` of job `ji` once on `compute`, starting at
/// `at` plus the device's launch overhead, over `regions` plus the
/// inputs handed over to it so far. Returns the attempt's virtual finish
/// time, its access statistics, and the body's result.
#[allow(clippy::too_many_arguments)]
fn run_body_once(
    rt: &mut Runtime,
    w: &mut Wave,
    ji: usize,
    g: usize,
    tspec: &TaskSpec,
    regions: TaskRegions<'_>,
    compute: ComputeId,
    who: OwnerId,
    at: SimTime,
) -> (SimTime, AccessStats, Result<(), TaskError>) {
    let first = w.inputs_at[g] as usize;
    let regions = TaskRegions {
        inputs: &w.inputs[first..first + w.inputs_len[g] as usize],
        ..regions
    };
    let published = &mut w.published[ji];
    let launch = SimDuration::from_nanos_f64(rt.topo.compute(compute).launch_overhead_ns);
    let mut acc = Accessor::new(
        &rt.topo,
        &mut rt.ledger,
        &mut rt.mgr,
        &mut rt.trace,
        compute,
        who,
        at + launch,
    )
    .with_faults(&rt.config.faults);
    let mut placer = EnginePlacer {
        engine: &mut rt.engine,
        faults: &rt.config.faults,
        violations: &mut w.report.violations,
    };
    let mut ctx = TaskCtx::new(&mut acc, regions, &mut placer, published, &mut rt.app_published);
    let result = (tspec.body)(&mut ctx);
    (acc.now, acc.stats, result)
}

/// How a task's declared region of `kind` comes to exist at `at`, for an
/// attempt running on `compute` — a first attempt or a retry alike:
/// properties from the region type and the task's resolved declarations,
/// a device chosen by them among those usable from `compute` at `at`,
/// then the traced allocation (zeroed, owned by the task), the audit of
/// the placement, and the entry in the wave report's `placements` and in
/// `regions`. A kind the task declares no bytes for is skipped.
#[allow(clippy::too_many_arguments)]
fn create_declared(
    rt: &mut Runtime,
    w: &mut Wave,
    spec: &JobSpec,
    jid: JobId,
    task: TaskId,
    kind: PlacedKind,
    compute: ComputeId,
    at: SimTime,
    regions: &mut TaskRegions<'_>,
) -> Result<(), DisaggError> {
    let tspec = &spec.tasks[task.index()];
    let eff = tspec.props.effective(&spec.defaults);
    let (bytes, rtype, what, slot) = match kind {
        PlacedKind::PrivateScratch => (
            tspec.private_scratch,
            RegionType::PrivateScratch,
            "private scratch",
            &mut regions.private_scratch,
        ),
        PlacedKind::Output => {
            (tspec.output_bytes, RegionType::Output, "output", &mut regions.output)
        }
        PlacedKind::GlobalScratch => (
            tspec.global_scratch,
            RegionType::GlobalScratch,
            "global scratch",
            &mut regions.global_scratch,
        ),
    };
    if bytes == 0 {
        return Ok(());
    }
    let mut props = rtype.properties();
    props.confidential = eff.confidential;
    let (topo, pool, faults) = (&rt.topo, rt.mgr.pool(), &rt.config.faults);
    let chosen = match kind {
        PlacedKind::PrivateScratch => {
            if let Some(latency) = eff.mem_latency {
                props.latency = latency;
            }
            rt.engine.choose(topo, pool, faults, compute, &props, bytes, at)
        }
        PlacedKind::Output => {
            props.persistent = eff.persistent;
            // Co-placement: every consumer must be able to address the
            // output for handover to be a pure transfer.
            w.accessors.clear();
            w.accessors.push(compute);
            for &s in spec.dag.successors(task) {
                if let Some(c) = w.schedule.assignment(jid, s) {
                    if !w.accessors.contains(&c) {
                        w.accessors.push(c);
                    }
                }
            }
            // Failing that, producer-only placement (handover will copy).
            rt.engine
                .choose_shared(topo, pool, faults, &w.accessors, &props, bytes, at)
                .or_else(|| rt.engine.choose(topo, pool, faults, compute, &props, bytes, at))
        }
        PlacedKind::GlobalScratch => {
            w.accessors.clear();
            w.accessors.extend(
                (0..spec.tasks.len()).filter_map(|t| w.schedule.assignment(jid, TaskId(t as u32))),
            );
            w.accessors.dedup();
            rt.engine.choose_shared(topo, pool, faults, &w.accessors, &props, bytes, at)
        }
    };
    let dev = chosen.ok_or(DisaggError::Placement { job: jid, task, what })?;
    #[cfg(debug_assertions)]
    crate::audit::placed(&rt.config.faults, &rt.topo, compute, dev, at);
    let who = OwnerId::Task { job: jid.0, task: task.0 as u64 };
    let id = rt.mgr.alloc_traced(&mut rt.trace, dev, bytes, rtype, props.clone(), who, at)?;
    check_placement(&rt.topo, compute, id, dev, &props, &mut w.report.violations);
    w.report.placements.push((kind, id, dev));
    *slot = Some(id);
    Ok(())
}

/// The first fault event in the closed attempt window `[from, to]`,
/// past the progress cursor `after`, that interrupts an attempt running
/// on `compute`: the node hosting it crashing, a device backing one of
/// the task's fresh placements failing, or the bottleneck link to such
/// a device going down. Returns the event's index in the schedule and
/// its strike time; advancing the cursor past handled events keeps a
/// task's retries making progress even under a zero-delay, zero-backoff
/// policy.
fn first_interrupt(
    rt: &Runtime,
    compute: ComputeId,
    placements: &[Placed],
    after: Option<usize>,
    from: SimTime,
    to: SimTime,
) -> Option<(usize, SimTime)> {
    let node = rt.topo.node_of_compute(compute);
    let links: Vec<LinkId> = placements
        .iter()
        .filter_map(|&(_, _, dev)| rt.topo.path(compute, dev)?.bottleneck_link)
        .collect();
    for (i, e) in rt.config.faults.events().iter().enumerate() {
        if e.at > to {
            break;
        }
        if e.at < from || after.is_some_and(|h| i <= h) {
            continue;
        }
        let hits = match e.kind {
            FaultKind::NodeCrash(n) => n == node,
            FaultKind::DeviceFail(d) => placements.iter().any(|&(_, _, pd)| pd == d),
            FaultKind::LinkDown(l) => links.contains(&l),
            _ => false,
        };
        if hits {
            return Some((i, e.at));
        }
    }
    None
}

/// Whether `node`'s circuit breaker lets the task `key` through at `at`
/// — always, without a breaker bank. A cooled-down breaker grants `key`
/// its half-open probe slot, which is traced.
fn breaker_admits(rt: &mut Runtime, node: NodeId, at: SimTime, key: (u64, u64)) -> bool {
    let Some(bank) = rt.breakers.as_mut() else {
        return true;
    };
    let (ok, probe) = bank.allows(node, at, key);
    if probe.is_some() {
        rt.trace.push(TraceEvent::BreakerProbe { node, at });
    }
    ok
}

/// The cheapest live candidate for (re)placing `task` at `at`: the
/// first in the scheduler's cost ranking that is usable and whose
/// breaker admits `key`. When *every* live candidate is breaker-blocked
/// the pick falls back to plain liveness — breakers degrade placement
/// quality, never availability.
fn pick_candidate(
    rt: &mut Runtime,
    spec: &JobSpec,
    task: TaskId,
    at: SimTime,
    key: (u64, u64),
) -> Option<ComputeId> {
    let live: Vec<(ComputeId, NodeId)> =
        Scheduler::ranked_candidates_where(&rt.topo, spec, task, |c| {
            rt.config.faults.usable(&rt.topo, Target::Compute(c), at)
        })
        .into_iter()
        .map(|(c, _)| (c, rt.topo.node_of_compute(c)))
        .collect();
    live.iter()
        .find(|&&(_, node)| breaker_admits(rt, node, at, key))
        .or(live.first())
        .map(|&(c, _)| c)
}

/// Fails request-tagged job `ji`, of `tenant`, alone: the wave
/// keeps draining, every not-yet-run task of the job is cancelled (its
/// pending events commit as no-ops), the regions already handed over
/// to cancelled tasks are scheduled for release, and the report records
/// the failure.
fn fail_job(w: &mut Wave, spec: &JobSpec, ji: usize, task: TaskId, at: SimTime, tenant: u64) {
    let jid = w.job_ids[ji];
    w.failed[ji] = true;
    for t in 0..spec.tasks.len() {
        let t_id = TaskId(t as u32);
        if w.ran[w.gx(ji, t_id)] {
            continue;
        }
        w.failed_tasks += 1;
        // Handed-over inputs awaiting a task that will never run are
        // owned by that task; schedule their release at the fail time.
        // (The failing task's own exit below also covers its placements.)
        w.defer_exit(at, OwnerId::Task { job: jid.0, task: u64::from(t_id.0) });
    }
    w.report.failed_jobs.push(FailedJob { job: jid, task, tenant, at });
}

/// A ready task joins its assigned device's queue (rerouted if the
/// node is down).
pub(crate) fn enqueue(
    rt: &mut Runtime,
    w: &mut Wave,
    jobs: &[JobSpec],
    ji: usize,
    task: TaskId,
    at: SimTime,
) -> Result<(), DisaggError> {
    let jid = w.job_ids[ji];
    // Fault-aware admission: fall back to the cheapest live eligible
    // device if the assigned one's node is down at ready time, or (when
    // breakers are configured) if its node's breaker is open.
    let mut compute = w.schedule.assignment(jid, task).expect("every task is scheduled");
    let key = (jid.0, u64::from(task.0));
    let (node, target) = (rt.topo.node_of_compute(compute), Target::Compute(compute));
    if !rt.config.faults.usable(&rt.topo, target, at) || !breaker_admits(rt, node, at, key) {
        compute = pick_candidate(rt, &jobs[ji], task, at, key)
            .ok_or(DisaggError::NoComputeAvailable { job: jid, task })?;
    }
    queue_on(rt, w, jobs, ji, task, compute, at, at)
}

/// Task `task` of job `ji` joins `compute`'s ready queue at `at`, its
/// wait counted from `queued_at`, then the device tries to dispatch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn queue_on(
    rt: &mut Runtime,
    w: &mut Wave,
    jobs: &[JobSpec],
    ji: usize,
    task: TaskId,
    compute: ComputeId,
    at: SimTime,
    queued_at: SimTime,
) -> Result<(), DisaggError> {
    let jid = w.job_ids[ji];
    let rank = w.schedule.entry(jid, task).expect("every task is scheduled").rank;
    w.queues[compute.index()].push(Reverse(queue_key(rank, queued_at, ji, task)));
    service(rt, w, jobs, compute, at)
}

/// Dispatches queued tasks into free lanes until the device runs out
/// of either. The ready queue is a min-heap on [`QueueEntry`], so the
/// pop *is* the dispatch order. A device whose node is down dispatches
/// nothing: each task it would take moves to the cheapest live candidate
/// instead, still counting its wait from when it first queued.
pub(crate) fn service(
    rt: &mut Runtime,
    w: &mut Wave,
    jobs: &[JobSpec],
    compute: ComputeId,
    now: SimTime,
) -> Result<(), DisaggError> {
    let ci = compute.index();
    while w.lanes[ci].peek().is_some_and(|&Reverse(free)| free <= now) {
        let Some(Reverse((_, queued_at, ji, task))) = w.queues[ci].pop() else {
            return Ok(());
        };
        if w.failed[ji] {
            // The job failed fast after this entry was queued; discard
            // it without taking the lane.
            continue;
        }
        if !rt.config.faults.usable(&rt.topo, Target::Compute(compute), now) {
            let jid = w.job_ids[ji];
            let to = pick_candidate(rt, &jobs[ji], task, now, (jid.0, u64::from(task.0)))
                .ok_or(DisaggError::NoComputeAvailable { job: jid, task })?;
            queue_on(rt, w, jobs, ji, task, to, now, queued_at)?;
            continue;
        }
        w.lanes[ci].pop();
        run_task(rt, w, jobs, Queued { ji, task, queued_at }, compute, now)?;
    }
    Ok(())
}

/// Ends the attempt `q` dispatched at `start` on `compute` that `fault`
/// — `(index, strike time)` in the fault schedule — interrupted: its
/// work is lost. The attempt holds its lane until the virtual-time
/// detection delay has passed, is traced as ending then, and its regions
/// — the wave report's placements from `placed_at` on, which leave the
/// report — are released then. Unless its retries are spent, the task
/// re-enters the ready queue of the cheapest surviving candidate from the
/// scheduler's cost ranking after the policy's exponential backoff (task
/// bodies are re-runnable `Fn`s), so the makespan pays for every
/// attempt. The retry cap bounds how much work a flapping resource can
/// waste before the run, or for a request-tagged job the job alone,
/// fails cleanly.
#[allow(clippy::too_many_arguments)]
fn abandon(
    rt: &mut Runtime,
    w: &mut Wave,
    spec: &JobSpec,
    q: Queued,
    compute: ComputeId,
    start: SimTime,
    (idx, fault_at): (usize, SimTime),
    placed_at: usize,
) -> Result<(), DisaggError> {
    let (ji, task) = (q.ji, q.task);
    let jid = w.job_ids[ji];
    let policy = rt.config.recovery;
    let detect_at = fault_at + policy.detection_delay;
    rt.trace.push(TraceEvent::TaskAttempt {
        job: jid.0,
        task: task.0 as u64,
        on: compute,
        at: start,
        waited: start - q.queued_at,
        end: detect_at,
        completed: false,
    });
    let g = w.gx(ji, task);
    let retry = w.retries.entry(g).or_insert(Retry { attempts: 0, handled: idx });
    retry.attempts += 1;
    retry.handled = idx;
    let retries = retry.attempts;
    w.end_attempt(compute, start, detect_at);

    // Past the retry cap a request fails alone; an untagged batch job
    // fails the run.
    if policy.exhausted(retries) {
        if let Some(tenant) = w.tenants[ji] {
            w.report.placements.truncate(placed_at);
            fail_job(w, spec, ji, task, detect_at, tenant);
            return Ok(());
        }
        return Err(DisaggError::RetriesExhausted { job: jid, task, attempts: retries });
    }
    rt.trace.push(TraceEvent::FaultDetected {
        job: jid.0,
        task: task.0 as u64,
        on: compute,
        at: detect_at,
    });
    // Charge the node that faulted; a trip excludes it from the
    // replacement ranking below (and from everyone else's).
    if let Some(bank) = rt.breakers.as_mut() {
        let node = rt.topo.node_of_compute(compute);
        if bank.on_fault(node, detect_at).is_some() {
            rt.trace.push(TraceEvent::BreakerTrip { node, at: detect_at });
        }
    }
    let key = (jid.0, u64::from(task.0));
    let to = pick_candidate(rt, spec, task, detect_at, key)
        .ok_or(DisaggError::NoComputeAvailable { job: jid, task })?;
    let relaunch_at = detect_at + policy.backoff_for(retries);
    rt.trace.push(TraceEvent::TaskRetry {
        job: jid.0,
        task: task.0 as u64,
        from: compute,
        to,
        attempt: retries,
        at: relaunch_at,
        lost: relaunch_at - start,
    });
    let who = OwnerId::Task { job: jid.0, task: task.0 as u64 };
    for (_, id, _) in w.report.placements.drain(placed_at..) {
        rt.mgr.release_traced(&mut rt.trace, id, who, detect_at)?;
    }
    w.push_event(relaunch_at, EventKind::Retry { ji, task, to });
    Ok(())
}

/// Hands `out`, the output of a task of job `ji` on `producer` that
/// finished at `now`, to its consumer `s` as the consumer's next input,
/// and counts the handover in the wave's report. Returns how long the
/// handover takes and whether ownership moved without a copy.
///
/// §2.3: "handover is just a memory ownership transfer, and physical data
/// movement is minimized". The first consumer (`release` names the
/// producer, who lets go of `out`) takes the region itself when its
/// device addresses it in place, the region's type can be transferred
/// and the policy is [`HandoverPolicy::TransferWhenPossible`]: O(1)
/// bookkeeping, zero bytes on any wire (Figure 4). Otherwise — and for
/// every fan-out consumer after the first (`release` is `None`) — the
/// bytes are copied into a fresh region the placement engine chooses for
/// the consumer, with the source's properties, audited like every other
/// placement and priced by [`charge_copy`]; the first consumer's copy
/// then releases the source.
#[allow(clippy::too_many_arguments)]
fn hand_over(
    rt: &mut Runtime,
    w: &mut Wave,
    ji: usize,
    out: RegionId,
    release: Option<OwnerId>,
    s: TaskId,
    producer: ComputeId,
    now: SimTime,
) -> Result<(SimDuration, bool), DisaggError> {
    let jid = w.job_ids[ji];
    let cons = w.schedule.assignment(jid, s).unwrap_or(producer);
    let to = OwnerId::Task { job: jid.0, task: s.0 as u64 };
    let src = rt.mgr.placement(out)?;
    let meta = rt.mgr.meta(out)?;
    let (region, took, transferred) = match release {
        // A producer is always a task.
        Some(from @ OwnerId::Task { task: from_task, .. })
            if rt.config.handover == HandoverPolicy::TransferWhenPossible
                && rt.topo.reachable(cons, src.dev)
                && meta.rtype.transferable() =>
        {
            rt.mgr.transfer(out, from, to)?;
            rt.trace.push(TraceEvent::OwnershipTransfer {
                region: out.0,
                from_task,
                to_task: s.0 as u64,
                bytes: src.size,
                at: now,
            });
            let took = calibration::mechanisms().ownership_transfer_ns.value;
            (out, SimDuration::from_nanos(took), true)
        }
        _ => {
            let props = meta.props.clone();
            let dev = rt
                .engine
                .choose(&rt.topo, rt.mgr.pool(), &rt.config.faults, cons, &props, src.size, now)
                .ok_or(RegionError::NoPlacement { region: out, consumer: cons, size: src.size })?;
            #[cfg(debug_assertions)]
            crate::audit::placed(&rt.config.faults, &rt.topo, cons, dev, now);
            let input = RegionType::Input;
            let new = rt.mgr.alloc_traced(&mut rt.trace, dev, src.size, input, props.clone(), to, now)?;
            check_placement(&rt.topo, cons, new, dev, &props, &mut w.report.violations);
            rt.mgr.copy_contents(out, new)?;
            let took = charge_copy(&rt.topo, &mut rt.ledger, &mut rt.trace, out, src, dev, now);
            if let Some(from) = release {
                rt.mgr.release_traced(&mut rt.trace, out, from, now)?;
            }
            (new, took, false)
        }
    };
    if transferred {
        w.report.ownership_transfers += 1;
    } else {
        w.report.handover_copies += 1;
    }
    let gs = w.gx(ji, s);
    w.push_input(gs, region);
    Ok((took, transferred))
}

/// Runs one attempt of a task dispatched at `at` on `compute`: creates
/// its declared regions, placed by their properties at `at` — a retry's
/// exactly as a first attempt's, so none lands on a device the fault
/// made unusable — and runs the body against the virtual clock. An
/// attempt a fault interrupts is handed to [`abandon`]; one that
/// finishes hands its output over to successors and emits their edge
/// events.
pub(crate) fn run_task(
    rt: &mut Runtime,
    w: &mut Wave,
    jobs: &[JobSpec],
    q: Queued,
    compute: ComputeId,
    at: SimTime,
) -> Result<(), DisaggError> {
    let ji = q.ji;
    let task = q.task;
    let jid = w.job_ids[ji];
    let spec = &jobs[ji];
    let tspec = &spec.tasks[task.index()];
    let eff = tspec.props.effective(&spec.defaults);
    let who = OwnerId::Task {
        job: jid.0,
        task: task.0 as u64,
    };

    // Flush exits whose virtual finish precedes this start: their
    // regions are genuinely gone by the time this task allocates.
    w.flush_exits(rt, Some(at));

    // --- Region allocation, by declared properties. ---
    let g = w.gx(ji, task);
    let placed_at = w.report.placements.len();
    // Output, scratch and state handles; `run_body_once` adds the inputs.
    let mut regions = TaskRegions {
        global_state: w.global_state[ji],
        ..TaskRegions::default()
    };
    // A retry's regions are new: the interrupted attempt's were freed at
    // its detection, so the retry never sees its partial results.
    if !w.retries.contains_key(&g) {
        w.start_at[g] = at;
    }
    for kind in [PlacedKind::PrivateScratch, PlacedKind::Output, PlacedKind::GlobalScratch] {
        create_declared(rt, w, spec, jid, task, kind, compute, at, &mut regions)?;
    }

    // --- Execute the body. ---
    let (mut finish, stats, body_result) =
        run_body_once(rt, w, ji, g, tspec, regions, compute, who, at);
    if body_result.is_ok() && !rt.config.faults.is_empty() {
        let handled = w.retries.get(&g).map(|r| r.handled);
        let placed = &w.report.placements[placed_at..];
        if let Some(fault) = first_interrupt(rt, compute, placed, handled, at, finish) {
            return abandon(rt, w, spec, q, compute, at, fault, placed_at);
        }
    }

    if let Err(error) = body_result {
        return Err(DisaggError::Task {
            job: jid,
            task,
            name: tspec.name.to_string(),
            error,
        });
    }

    // Confidential data leaving the trust boundary pays the encryption
    // toll on every written byte.
    if eff.confidential {
        let crypto_bytes: u64 = w.report.placements[placed_at..]
            .iter()
            .filter(|(_, _, dev)| needs_encryption(&rt.topo, *dev))
            .map(|_| stats.bytes_written)
            .sum();
        if crypto_bytes > 0 {
            finish += rt
                .topo
                .compute(compute)
                .exec_cost(WorkClass::Crypto, crypto_bytes);
        }
    }

    rt.trace.push(TraceEvent::TaskAttempt {
        job: jid.0,
        task: task.0 as u64,
        on: compute,
        at,
        waited: at - q.queued_at,
        end: finish,
        completed: true,
    });
    // A clean finish heals: the node's strike count resets, and any
    // breaker this task held a half-open probe slot on closes.
    if let Some(bank) = rt.breakers.as_mut() {
        let node = rt.topo.node_of_compute(compute);
        for t in bank.on_success(node, (jid.0, u64::from(task.0)), finish) {
            rt.trace.push(TraceEvent::BreakerClose { node: t.node, at: finish });
        }
    }
    w.end_attempt(compute, at, finish);

    // --- Handover to successors: emit one EdgeDone per outgoing edge
    // at the instant the consumer can actually address the data. ---
    let succs = spec.dag.successors(task);
    // When an edge to `s` releases: a streaming producer feeding a
    // streaming consumer over a `pipelined` edge releases its first chunk
    // after 1/depth of its runtime, so the consumer starts on it while the
    // producer's tail is still streaming — the paper's stream-vs-batch
    // property made operational. The chunks come from this attempt: a
    // retried producer streams from its retry's start, not the lost one's.
    let depth = calibration::mechanisms().pipeline_depth.value;
    let release_to = |s: TaskId, pipelined: bool| {
        let consumer_streams = spec.tasks[s.index()].props.effective(&spec.defaults).streaming;
        if pipelined && eff.streaming && consumer_streams {
            at + (finish - at) / depth
        } else {
            finish
        }
    };
    if let Some(out) = regions.output {
        if succs.is_empty() {
            if eff.persistent {
                // Persistent results outlive the job (App scope).
                rt.mgr.transfer(out, who, OwnerId::App)?;
            }
        } else {
            // Copies for fan-out consumers beyond the first...
            for &s in &succs[1..] {
                let (took, _) = hand_over(rt, w, ji, out, None, s, compute, finish)?;
                w.push_event(finish + took, EventKind::EdgeDone { ji, task: s });
            }
            // ...then the transfer (or copy) to the first. Only a pure
            // ownership transfer can pipeline.
            let s0 = succs[0];
            let (took, transferred) = hand_over(rt, w, ji, out, Some(who), s0, compute, finish)?;
            w.push_event(release_to(s0, transferred) + took, EventKind::EdgeDone { ji, task: s0 });
        }
    } else {
        // No output region: successors are gated on (pipelined) finish
        // alone.
        for &s in succs {
            w.push_event(release_to(s, true), EventKind::EdgeDone { ji, task: s });
        }
    }

    // Published global-scratch regions get job scope so later tasks can
    // use them; app-published ones get App scope so later *jobs* can.
    // Everything else the task still owns is released (the §2.3
    // lifetime rule) when virtual time passes its finish.
    let app = rt.app_published.values().map(|&r| (r, OwnerId::App));
    let job = w.published[ji].values().map(|&r| (r, OwnerId::Job(jid.0)));
    for (r, scope) in app.chain(job) {
        if rt.mgr.meta(r).is_ok_and(|m| m.ownership.is_owner(who)) {
            rt.mgr.transfer(r, who, scope)?;
        }
    }
    w.defer_exit(finish, who);

    w.ran[g] = true;
    w.report.push_task(
        jid,
        task,
        // Shared with the spec; `run_wave` merges equal names at its end.
        Arc::clone(&tspec.name),
        compute,
        // A retried task's span runs from its first attempt's start.
        w.start_at[g],
        finish,
        placed_at,
        stats,
    );
    Ok(())
}
