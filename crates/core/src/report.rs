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

/// The devices chosen for a task's regions. A task declares at most one
/// each of private scratch, output and global scratch, so the list lives
/// inline in the report instead of in a heap `Vec` per task; it reads as
/// a slice of [`Placed`].
#[derive(Debug, Clone, Copy)]
pub struct TaskPlacements {
    len: u8,
    slots: [Placed; 3],
}

impl Default for TaskPlacements {
    fn default() -> Self {
        TaskPlacements {
            len: 0,
            slots: [(PlacedKind::Output, RegionId(0), MemDeviceId(0)); 3],
        }
    }
}

impl TaskPlacements {
    /// Appends a placement.
    ///
    /// # Panics
    ///
    /// Panics on a fourth: the three region kinds are the type's bound.
    pub fn push(&mut self, placed: Placed) {
        self.slots[usize::from(self.len)] = placed;
        self.len += 1;
    }
}

impl std::ops::Deref for TaskPlacements {
    type Target = [Placed];

    fn deref(&self) -> &[Placed] {
        &self.slots[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a TaskPlacements {
    type Item = &'a Placed;
    type IntoIter = std::slice::Iter<'a, Placed>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Where one task ran and what it did. Built without touching the
/// allocator: the placements are inline and the name is shared with the
/// [`TaskSpec`](disagg_dataflow::task::TaskSpec). When the wave that
/// consumed the specs ends, the reports of equal names are given one
/// string between them (see `run_wave`).
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
    /// Access statistics from the task's accessor.
    pub stats: AccessStats,
    /// Devices chosen for the task's regions.
    pub placements: TaskPlacements,
}

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
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Virtual time from submission to the end of the last task attempt:
    /// a finish, or the detection that ended an interrupted attempt.
    pub makespan: SimDuration,
    /// One report per executed task, in completion order.
    pub tasks: Vec<TaskReport>,
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
    /// runtime — the next admission wave, the next serving epoch. Runs
    /// are back to back, so makespans and counters add and lists extend.
    pub fn absorb(&mut self, next: RunReport) {
        self.makespan += next.makespan;
        append(&mut self.tasks, next.tasks);
        self.bytes_moved += next.bytes_moved;
        self.bytes_ownership_transferred += next.bytes_ownership_transferred;
        self.ownership_transfers += next.ownership_transfers;
        self.handover_copies += next.handover_copies;
        append(&mut self.violations, next.violations);
        self.events += next.events;
        append(&mut self.edges, next.edges);
        append(&mut self.failed_jobs, next.failed_jobs);
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

    #[test]
    fn task_placements_read_as_a_slice_of_string_like_kinds() {
        let mut p = TaskPlacements::default();
        assert!(p.is_empty());
        p.push((PlacedKind::PrivateScratch, RegionId(7), MemDeviceId(1)));
        p.push((PlacedKind::Output, RegionId(8), MemDeviceId(2)));
        assert_eq!(p.len(), 2);
        let (kind, region, dev) = p.iter().find(|(k, _, _)| *k == "output").unwrap();
        assert_eq!((*region, *dev), (RegionId(8), MemDeviceId(2)));
        assert_eq!(kind.to_string(), "output");
        let kinds: Vec<&str> = (&p).into_iter().map(|(k, _, _)| k.name()).collect();
        assert_eq!(kinds, ["private_scratch", "output"]);
        assert_eq!(PlacedKind::GlobalScratch.name(), "global_scratch");
    }

    #[test]
    fn absorb_adds_counters_and_appends_lists() {
        use disagg_region::props::Unmet;
        let run = |makespan, edge: u32| RunReport {
            makespan: SimDuration(makespan),
            events: 3,
            bytes_moved: 10,
            edges: vec![(JobId(0), TaskId(edge), TaskId(edge + 1))],
            violations: vec![Violation {
                region: RegionId(u64::from(edge)),
                dev: MemDeviceId(0),
                unmet: Unmet::Persistence,
            }],
            ..RunReport::default()
        };
        let mut all = RunReport::default();
        all.absorb(run(5, 0));
        all.absorb(run(7, 2));
        assert_eq!(all.makespan, SimDuration(12));
        assert_eq!((all.events, all.bytes_moved), (6, 20));
        assert_eq!(
            all.edges,
            vec![(JobId(0), TaskId(0), TaskId(1)), (JobId(0), TaskId(2), TaskId(3))]
        );
        let regions: Vec<RegionId> = all.violations.iter().map(|v| v.region).collect();
        assert_eq!(regions, [RegionId(0), RegionId(2)]);
        assert!(!all.placements_clean());
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
