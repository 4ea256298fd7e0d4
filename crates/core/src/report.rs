//! Execution reports: what the runtime tells you after a run.
//!
//! Experiments regenerate the paper's tables from these reports: makespan,
//! bytes physically moved vs handed over by ownership transfer, where each
//! task's regions went, and the property audit. A report says what its
//! run did and nothing else, so the reports of consecutive runs add up;
//! what accumulates across runs — device peaks
//! ([`Runtime::devices`](crate::Runtime::devices)), an observer's
//! metrics — is read from the runtime and the sink.

use std::sync::Arc;

use disagg_dataflow::job::JobId;
use disagg_dataflow::task::TaskId;
use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_region::access::AccessStats;
use disagg_region::pool::RegionId;
use disagg_sched::enforce::Violation;

/// Which of a task's declared regions a placement is for. A byte, where
/// the `&'static str` it replaces was sixteen in every [`TaskReport`]
/// three times over; it still compares with and prints as that string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacedKind {
    /// The task's private scratch.
    PrivateScratch,
    /// The task's output.
    Output,
    /// The global scratch the task creates.
    GlobalScratch,
}

impl PlacedKind {
    /// `"private_scratch"`, `"output"` or `"global_scratch"`.
    pub fn name(self) -> &'static str {
        match self {
            PlacedKind::PrivateScratch => "private_scratch",
            PlacedKind::Output => "output",
            PlacedKind::GlobalScratch => "global_scratch",
        }
    }
}

impl PartialEq<&str> for PlacedKind {
    fn eq(&self, other: &&str) -> bool {
        self.name() == *other
    }
}

impl std::fmt::Display for PlacedKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One placed region of a task: `(kind, region, device)`.
pub type Placed = (PlacedKind, RegionId, MemDeviceId);

/// A [`TaskReport`] that refers to no access-statistics entry.
const NO_ACCESS: u32 = u32::MAX;

/// Where one task ran and what it did: a fixed 72-byte record, built
/// without touching the allocator. Inline is only what every task has —
/// its identity, device, name, span and compute time; the name is shared
/// with the [`TaskSpec`](disagg_dataflow::task::TaskSpec), and when the
/// wave that consumed the specs ends, the reports of equal names are
/// given one string between them (see `run_wave`). The regions it placed
/// and its accessor's statistics live once, out of line, in its
/// [`RunReport`]'s lists: read them with
/// [`RunReport::placements_of`] and [`RunReport::access_of`].
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// The job.
    pub job: JobId,
    /// The task.
    pub task: TaskId,
    /// Task name, one shared string per distinct name in a wave.
    pub name: Arc<str>,
    /// Compute device it ran on.
    pub compute: ComputeId,
    /// Actual start time.
    pub start: SimTime,
    /// Actual finish time.
    pub finish: SimTime,
    /// Pure compute time its body charged.
    pub compute_time: SimDuration,
    /// Where its placements start in `RunReport::placements`.
    placed_at: u32,
    /// How many placements it has: one per declared region kind at most.
    placed_len: u8,
    /// Its entry in `RunReport::access`, or [`NO_ACCESS`] when its
    /// accessor did nothing but compute.
    access: u32,
}

// A traced serving pass holds ninety thousand of these.
const _: () = assert!(std::mem::size_of::<TaskReport>() <= 72);

impl TaskReport {
    /// Wall-clock (virtual) duration of the task.
    pub fn duration(&self) -> SimDuration {
        self.finish - self.start
    }
}

/// One request-tagged job whose task exhausted its retries and that
/// failed alone instead of erroring the whole submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailedJob {
    /// The job.
    pub job: JobId,
    /// The task whose retries ran out.
    pub task: TaskId,
    /// The tenant the job's request belongs to.
    pub tenant: u64,
    /// Virtual time the job was declared failed.
    pub at: SimTime,
}

/// Per-device usage summary, cumulative over a runtime's life
/// ([`Runtime::devices`](crate::Runtime::devices)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSummary {
    /// The device.
    pub dev: MemDeviceId,
    /// Peak bytes ever allocated on it.
    pub peak_bytes: u64,
    /// Device capacity.
    pub capacity: u64,
    /// Total bytes transferred through the device.
    pub bytes_transferred: u64,
}

impl DeviceSummary {
    /// Peak capacity utilization in `[0, 1]`.
    pub fn peak_utilization(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.peak_bytes as f64 / self.capacity as f64
        }
    }
}

/// The full result of running a batch of jobs.
///
/// Each task's record in `tasks` refers into two run-wide lists: its
/// placements are a slice of `placements`, and its access statistics an
/// entry of `access` that only a task whose accessor read, wrote, waited
/// or repaired has — the statistics of a task that only computed are its
/// record's `compute_time`. [`placements_of`](Self::placements_of) and
/// [`access_of`](Self::access_of) read them back.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Virtual time from submission to the end of the last task attempt:
    /// a finish, or the detection that ended an interrupted attempt.
    pub makespan: SimDuration,
    /// One report per executed task, in completion order.
    pub tasks: Vec<TaskReport>,
    /// The regions every executed task placed, each task's run of them
    /// contiguous, in the order the tasks' completed attempts ran.
    pub placements: Vec<Placed>,
    /// The access statistics of every executed task that did more than
    /// compute, in the order the tasks' completed attempts ran.
    pub access: Vec<AccessStats>,
    /// Bytes physically moved (accesses, copies, migrations) by this run
    /// alone: reports of one runtime add up to its trace's total.
    pub bytes_moved: u64,
    /// Bytes whose movement was avoided by ownership transfer, this run.
    pub bytes_ownership_transferred: u64,
    /// Number of pure ownership transfers.
    pub ownership_transfers: u64,
    /// Number of physical handover copies.
    pub handover_copies: u64,
    /// Property-audit findings: every region the run placed (declared,
    /// job-wide, copied on handover, allocated by a body) judged against
    /// its declared properties; empty when all were honored.
    pub violations: Vec<Violation>,
    /// Simulation events processed by the executor's event loop (ready,
    /// edge-done, and lane-free events across all waves). Dividing by
    /// wall-clock gives the simulator's events/sec throughput.
    pub events: u64,
    /// Dataflow edges the executor honored, as `(job, from, to)` — the
    /// DAG the critical-path analyzer walks.
    pub edges: Vec<(JobId, TaskId, TaskId)>,
    /// Request-tagged jobs whose task exhausted its retries and that
    /// failed alone; empty on every run where no request did.
    pub failed_jobs: Vec<FailedJob>,
}

/// `into` followed by `next`; a first batch is moved, not copied.
fn append<T>(into: &mut Vec<T>, mut next: Vec<T>) {
    if into.is_empty() {
        *into = next;
    } else {
        into.append(&mut next);
    }
}

impl RunReport {
    /// Folds in the report of the run that followed this one on the same
    /// runtime, such as the next serving epoch. Runs
    /// are back to back, so makespans and counters add and lists extend.
    /// `next`'s records are rebased onto the extended lists.
    pub fn absorb(&mut self, mut next: RunReport) {
        self.makespan += next.makespan;
        let (placed, access) = (self.placements.len(), self.access.len());
        if placed + access > 0 {
            let placed = u32::try_from(placed).expect("fewer than 2^32 placements");
            let access = u32::try_from(access).expect("fewer than 2^32 entries");
            for t in &mut next.tasks {
                t.placed_at += placed;
                if t.access != NO_ACCESS {
                    t.access += access;
                }
            }
        }
        append(&mut self.tasks, next.tasks);
        append(&mut self.placements, next.placements);
        append(&mut self.access, next.access);
        self.bytes_moved += next.bytes_moved;
        self.bytes_ownership_transferred += next.bytes_ownership_transferred;
        self.ownership_transfers += next.ownership_transfers;
        self.handover_copies += next.handover_copies;
        append(&mut self.violations, next.violations);
        self.events += next.events;
        append(&mut self.edges, next.edges);
        append(&mut self.failed_jobs, next.failed_jobs);
    }

    /// The regions `task`, a record of this report, placed, as
    /// `(kind, region, device)`.
    pub fn placements_of(&self, task: &TaskReport) -> &[Placed] {
        let at = task.placed_at as usize;
        &self.placements[at..at + usize::from(task.placed_len)]
    }

    /// The statistics of `task`'s accessor, `task` being a record of this
    /// report: its entry in `access`, or only its compute time.
    pub fn access_of(&self, task: &TaskReport) -> AccessStats {
        if task.access == NO_ACCESS {
            AccessStats { compute_time: task.compute_time, ..AccessStats::default() }
        } else {
            self.access[task.access as usize]
        }
    }

    /// Records a completed task that placed the entries of `placements`
    /// from `placed_at` on and whose accessor gathered `stats`; `stats`
    /// joins `access` unless the task only computed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_task(
        &mut self,
        job: JobId,
        task: TaskId,
        name: Arc<str>,
        compute: ComputeId,
        start: SimTime,
        finish: SimTime,
        placed_at: usize,
        stats: AccessStats,
    ) {
        let compute_only = AccessStats { compute_time: stats.compute_time, ..AccessStats::default() };
        let access = if stats == compute_only {
            NO_ACCESS
        } else {
            self.access.push(stats);
            u32::try_from(self.access.len() - 1).expect("fewer than 2^32 entries")
        };
        self.tasks.push(TaskReport {
            job,
            task,
            name,
            compute,
            start,
            finish,
            compute_time: stats.compute_time,
            placed_at: u32::try_from(placed_at).expect("fewer than 2^32 placements"),
            placed_len: u8::try_from(self.placements.len() - placed_at)
                .expect("a task places one region of each kind at most"),
            access,
        });
    }

    /// Reports for one job.
    pub fn job_tasks(&self, job: JobId) -> impl Iterator<Item = &TaskReport> {
        self.tasks.iter().filter(move |t| t.job == job)
    }

    /// The task report by job and name.
    pub fn task_by_name(&self, job: JobId, name: &str) -> Option<&TaskReport> {
        self.tasks.iter().find(|t| t.job == job && &*t.name == name)
    }

    /// Fraction of handovers that were pure ownership transfers.
    pub fn transfer_ratio(&self) -> f64 {
        let total = self.ownership_transfers + self.handover_copies;
        if total == 0 {
            0.0
        } else {
            self.ownership_transfers as f64 / total as f64
        }
    }

    /// True if every placement honored its declared properties.
    pub fn placements_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(transfers: u64, copies: u64) -> RunReport {
        RunReport {
            ownership_transfers: transfers,
            handover_copies: copies,
            ..RunReport::default()
        }
    }

    /// A run of one task `t` that placed `placed` and gathered `stats`.
    fn run_of(t: u32, placed: &[Placed], stats: AccessStats) -> RunReport {
        let mut run = RunReport { placements: placed.to_vec(), ..RunReport::default() };
        let (job, task, at) = (JobId(0), TaskId(t), SimTime::ZERO);
        run.push_task(job, task, Arc::from("t"), ComputeId(0), at, at, 0, stats);
        run
    }

    #[test]
    fn task_placements_read_as_a_slice_of_string_like_kinds() {
        let placed = [
            (PlacedKind::PrivateScratch, RegionId(7), MemDeviceId(1)),
            (PlacedKind::Output, RegionId(8), MemDeviceId(2)),
        ];
        let run = run_of(0, &placed, AccessStats::default());
        let p = run.placements_of(&run.tasks[0]);
        assert_eq!(p.len(), 2);
        let (kind, region, dev) = p.iter().find(|(k, _, _)| *k == "output").unwrap();
        assert_eq!((*region, *dev), (RegionId(8), MemDeviceId(2)));
        assert_eq!(kind.to_string(), "output");
        let kinds: Vec<&str> = p.iter().map(|(k, _, _)| k.name()).collect();
        assert_eq!(kinds, ["private_scratch", "output"]);
        assert_eq!(PlacedKind::GlobalScratch.name(), "global_scratch");
    }

    #[test]
    fn a_task_that_only_computes_keeps_no_access_entry() {
        let compute_only = AccessStats { compute_time: SimDuration(40), ..AccessStats::default() };
        let run = run_of(0, &[], compute_only);
        assert!(run.access.is_empty() && run.placements_of(&run.tasks[0]).is_empty());
        assert_eq!(run.tasks[0].compute_time, SimDuration(40));
        assert_eq!(run.access_of(&run.tasks[0]), compute_only);
        let reader = AccessStats { bytes_read: 64, sync_ops: 1, ..compute_only };
        let run = run_of(0, &[], reader);
        assert_eq!(run.access, [reader]);
        assert_eq!(run.access_of(&run.tasks[0]), reader);
    }

    #[test]
    fn absorb_adds_counters_and_appends_lists() {
        use disagg_region::props::Unmet;
        let run = |makespan, edge: u32| {
            let placed = (PlacedKind::Output, RegionId(u64::from(edge)), MemDeviceId(edge));
            let stats = AccessStats { bytes_written: u64::from(edge) + 1, ..AccessStats::default() };
            RunReport {
                makespan: SimDuration(makespan),
                events: 3,
                bytes_moved: 10,
                edges: vec![(JobId(0), TaskId(edge), TaskId(edge + 1))],
                violations: vec![Violation {
                    region: RegionId(u64::from(edge)),
                    dev: MemDeviceId(0),
                    unmet: Unmet::Persistence,
                }],
                ..run_of(edge, &[placed], stats)
            }
        };
        let mut all = RunReport::default();
        all.absorb(run(5, 0));
        all.absorb(run(7, 2));
        all.absorb(run_of(4, &[], AccessStats::default()));
        all.absorb(run(1, 6));
        assert_eq!(all.makespan, SimDuration(13));
        assert_eq!((all.events, all.bytes_moved), (9, 30));
        assert_eq!(
            all.edges,
            vec![
                (JobId(0), TaskId(0), TaskId(1)),
                (JobId(0), TaskId(2), TaskId(3)),
                (JobId(0), TaskId(6), TaskId(7))
            ]
        );
        let regions: Vec<RegionId> = all.violations.iter().map(|v| v.region).collect();
        assert_eq!(regions, [RegionId(0), RegionId(2), RegionId(6)]);
        assert!(!all.placements_clean());
        // Every absorbed record still reads its own placements and
        // statistics from the extended lists.
        assert_eq!((all.placements.len(), all.access.len()), (3, 3));
        for t in &all.tasks {
            let (placed, stats) = (all.placements_of(t), all.access_of(t));
            if t.task == TaskId(4) {
                assert!(placed.is_empty());
                assert_eq!(stats, AccessStats::default());
                continue;
            }
            let n = u64::from(t.task.0);
            assert_eq!(placed, [(PlacedKind::Output, RegionId(n), MemDeviceId(t.task.0))]);
            assert_eq!(stats.bytes_written, n + 1);
        }
    }

    #[test]
    fn transfer_ratio_handles_empty_runs() {
        assert_eq!(report_with(0, 0).transfer_ratio(), 0.0);
        assert_eq!(report_with(3, 1).transfer_ratio(), 0.75);
        assert_eq!(report_with(4, 0).transfer_ratio(), 1.0);
    }

    #[test]
    fn device_summary_utilization() {
        let d = DeviceSummary {
            dev: MemDeviceId(0),
            peak_bytes: 50,
            capacity: 200,
            bytes_transferred: 0,
        };
        assert_eq!(d.peak_utilization(), 0.25);
        let empty = DeviceSummary {
            dev: MemDeviceId(1),
            peak_bytes: 0,
            capacity: 0,
            bytes_transferred: 0,
        };
        assert_eq!(empty.peak_utilization(), 0.0);
    }
}
