//! Resource-aware DAG scheduling over heterogeneous compute devices.
//!
//! The RTS "must also schedule and map tasks to different types of devices
//! using cost models that consider topology and access paths ... to
//! optimize for concurrently running jobs". The [`Scheduler`] implements
//! HEFT-style list scheduling: tasks are ranked by their upward rank
//! (critical path to a sink, including estimated communication), then
//! greedily assigned to the compute device minimizing their earliest
//! finish time, honoring per-device parallelism (`slots`) and hard
//! compute-class requirements. A round-robin baseline is included for the
//! ablation experiments.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use disagg_hwsim::calibration;
use disagg_hwsim::ids::ComputeId;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;

use disagg_dataflow::job::{JobId, JobSpec};
use disagg_dataflow::task::{ComputePref, TaskId, TaskSpec};

/// Scheduling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// HEFT-style list scheduling (the real scheduler).
    #[default]
    Heft,
    /// Round-robin over eligible devices in topological order (baseline).
    RoundRobin,
}

/// One scheduled task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleEntry {
    /// The job.
    pub job: JobId,
    /// The task within the job.
    pub task: TaskId,
    /// Assigned compute device.
    pub compute: ComputeId,
    /// Estimated start time.
    pub est_start: SimTime,
    /// Estimated finish time.
    pub est_finish: SimTime,
    /// Upward rank (estimated critical path to a sink, ns). The
    /// executor's ready queues dispatch the highest rank first; 0 under
    /// policies that do not rank (round-robin).
    pub rank: f64,
}

/// Sentinel for "no entry" in the dense lookup table.
const NO_ENTRY: u32 = u32::MAX;

/// A complete schedule for a set of jobs.
///
/// Lookups are hot — the executor resolves every dispatch decision
/// through [`Schedule::entry`] — so instead of a `(JobId, TaskId)` hash
/// map the schedule keeps one flat table: job ids within one plan are
/// clustered (the runtime issues them consecutively per wave), so
/// `index[row_start[job - base_job] + task]` resolves a rank/assignment
/// lookup with two array indexes. The table is built once, from the
/// entries in their final order.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Entries in estimated execution order.
    pub entries: Vec<ScheduleEntry>,
    /// Lowest job id in the plan; row 0 of the table belongs to it.
    base_job: u64,
    /// Row `job - base_job` of `index` is
    /// `row_start[row]..row_start[row + 1]`, one slot per task index.
    row_start: Vec<u32>,
    /// Entry position per `(row, task)` ([`NO_ENTRY`] if absent).
    index: Vec<u32>,
}

impl Schedule {
    /// Indexes `entries`, which are in their final order. When an entry
    /// repeats a `(job, task)`, the later one answers lookups.
    fn indexed(entries: Vec<ScheduleEntry>) -> Schedule {
        let Some(base_job) = entries.iter().map(|e| e.job.0).min() else {
            return Schedule::default();
        };
        let row = |e: &ScheduleEntry| (e.job.0 - base_job) as usize;
        let rows = entries.iter().map(row).max().unwrap_or(0) + 1;
        // Row widths (highest task index + 1), then their running sum.
        let mut row_start = vec![0u32; rows + 1];
        for e in &entries {
            let width = &mut row_start[row(e) + 1];
            *width = (*width).max(e.task.0 + 1);
        }
        for r in 0..rows {
            row_start[r + 1] += row_start[r];
        }
        let mut index = vec![NO_ENTRY; row_start[rows] as usize];
        for (i, e) in entries.iter().enumerate() {
            index[row_start[row(e)] as usize + e.task.index()] = i as u32;
        }
        Schedule {
            entries,
            base_job,
            row_start,
            index,
        }
    }

    fn slot(&self, job: JobId, task: TaskId) -> Option<usize> {
        let row = job.0.checked_sub(self.base_job)? as usize;
        let lo = *self.row_start.get(row)? as usize;
        let hi = *self.row_start.get(row + 1)? as usize;
        let &i = self.index[lo..hi].get(task.index())?;
        (i != NO_ENTRY).then_some(i as usize)
    }

    /// The compute device assigned to a task.
    pub fn assignment(&self, job: JobId, task: TaskId) -> Option<ComputeId> {
        self.slot(job, task).map(|i| self.entries[i].compute)
    }

    /// The entry for a task.
    pub fn entry(&self, job: JobId, task: TaskId) -> Option<&ScheduleEntry> {
        self.slot(job, task).map(|i| &self.entries[i])
    }

    /// The estimated makespan across all entries.
    pub fn est_makespan(&self) -> SimDuration {
        self.entries
            .iter()
            .map(|e| e.est_finish)
            .fold(SimTime::ZERO, SimTime::max)
            - SimTime::ZERO
    }
}

/// Scheduling failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// A task requires a compute class the topology does not provide.
    NoEligibleDevice {
        /// The job.
        job: JobId,
        /// The task.
        task: TaskId,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoEligibleDevice { job, task } => {
                write!(f, "no eligible compute device for {job}/{task}")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// `f64::total_cmp` as an integer key: `total_order_key(a).cmp(&total_order_key(b))`
/// equals `a.total_cmp(&b)` (the same sign-magnitude flip `total_cmp`
/// itself does).
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Penalty multiplier applied to estimated durations on devices the task
/// merely *prefers* not to use (soft preference).
const NON_PREFERRED_PENALTY: f64 = 2.0;

/// The DAG scheduler.
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    /// Active policy.
    pub policy: SchedPolicy,
}

impl Scheduler {
    /// A scheduler with the given policy.
    pub fn new(policy: SchedPolicy) -> Self {
        Scheduler { policy }
    }

    /// Devices eligible for a task under its compute preference.
    fn eligible(topo: &Topology, pref: ComputePref) -> Vec<ComputeId> {
        topo.compute_ids()
            .filter(|&c| pref.allows(topo.compute(c).kind))
            .collect()
    }

    /// Best reachable memory bandwidth per compute device (bytes/ns),
    /// indexed by `ComputeId`. The topology is immutable during a plan,
    /// so this `O(computes × mems)` scan runs once instead of once per
    /// `(task, device)` estimate.
    fn best_bws(topo: &Topology) -> Vec<f64> {
        topo.compute_ids()
            .map(|c| {
                topo.mem_ids()
                    .filter_map(|m| {
                        topo.path(c, m).map(|p| topo.mem(m).read_bw_bpns.min(p.bandwidth_bpns))
                    })
                    .fold(1.0f64, f64::max)
            })
            .collect()
    }

    /// The memory traffic a task's estimate charges, whatever device it
    /// runs on: dataflow in/out plus created scratch streams. The
    /// private-scratch *footprint* is capacity, not traffic — a job with
    /// a large working set does not necessarily stream all of it.
    fn traffic_bytes(spec: &JobSpec, task: TaskId) -> u64 {
        let t = &spec.tasks[task.index()];
        let input_bytes: u64 = spec
            .dag
            .predecessors(task)
            .iter()
            .map(|p| spec.tasks[p.index()].output_bytes)
            .sum();
        input_bytes + t.output_bytes + t.global_scratch
    }

    /// Estimated duration of a task on a device: launch + compute +
    /// optimistic traffic (`bytes`, see [`Scheduler::traffic_bytes`]) at
    /// the device's best reachable bandwidth (precomputed in `bw`, see
    /// [`Scheduler::best_bws`]).
    fn estimate_with(topo: &Topology, bw: &[f64], t: &TaskSpec, bytes: u64, c: ComputeId) -> f64 {
        let model = topo.compute(c);
        let exec = model.exec_cost(t.work.class, t.work.elems).as_nanos_f64();
        let mem = bytes as f64 / bw[c.index()];
        let base = exec + mem;
        match t.compute {
            ComputePref::Prefer(k) if k != model.kind => base * NON_PREFERRED_PENALTY,
            _ => base,
        }
    }

    /// Eligible devices for a task that pass `pred`, ranked
    /// cheapest-first by the same cost model `plan` uses (estimated
    /// duration, ties broken by device id). The recovery layer re-places
    /// interrupted tasks with this: it filters out dead devices and
    /// nodes whose circuit breaker is open *before* ranking, so an
    /// excluded device never shadows a healthy one in the ordering.
    pub fn ranked_candidates_where(
        topo: &Topology,
        spec: &JobSpec,
        task: TaskId,
        pred: impl Fn(ComputeId) -> bool,
    ) -> Vec<(ComputeId, f64)> {
        let bw = Self::best_bws(topo);
        let t = &spec.tasks[task.index()];
        let bytes = Self::traffic_bytes(spec, task);
        let mut ranked: Vec<(ComputeId, f64)> = Self::eligible(topo, t.compute)
            .into_iter()
            .filter(|&c| pred(c))
            .map(|c| (c, Self::estimate_with(topo, &bw, t, bytes, c)))
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        ranked
    }

    /// Plans a schedule for the given jobs.
    pub fn plan(
        &self,
        topo: &Topology,
        jobs: &[(JobId, &JobSpec)],
    ) -> Result<Schedule, SchedError> {
        // Flatten all tasks into one item arena; `base[si] + task` is a
        // job-local task's global item index (no per-task hashing).
        struct Item {
            job: JobId,
            task: TaskId,
            /// The item's predecessors, as item indices: this range of
            /// `preds` (the placement loop visits items in rank order,
            /// and must not chase each one's `JobSpec` for them).
            preds: std::ops::Range<u32>,
            /// Index into `elig_sets`: tasks sharing a compute
            /// preference share one eligible-device list.
            elig: u32,
            /// Where the item's estimated durations start in `durs`: one
            /// per eligible device, parallel to the eligible list.
            durs_at: u32,
            /// Mean estimate over the eligible devices (ns).
            avg: f64,
            /// What a consumer on another device waits for this task's
            /// output after it finishes.
            comm: SimDuration,
        }
        let bw = Self::best_bws(topo);
        // Cross-device communication is estimated at one assumed fabric
        // bandwidth: a constant keeps ranking cheap, and the executor
        // charges real path costs later.
        let fabric_bw = calibration::mechanisms().planner_fabric_bpns.value;
        // Distinct compute preferences per batch are few (Any plus a
        // handful of Prefer/Require kinds): dedup the eligible lists
        // instead of collecting one Vec per task.
        let mut elig_sets: Vec<(ComputePref, Vec<ComputeId>)> = Vec::new();
        let mut base: Vec<usize> = Vec::with_capacity(jobs.len());
        let mut items: Vec<Item> = Vec::new();
        let mut durs: Vec<SimDuration> = Vec::new();
        let mut preds: Vec<u32> = Vec::new();
        for &(job, spec) in jobs {
            let first = items.len();
            base.push(first);
            for ti in 0..spec.tasks.len() {
                let task = TaskId(ti as u32);
                let pref = spec.tasks[ti].compute;
                let elig = match elig_sets.iter().position(|(p, _)| *p == pref) {
                    Some(i) => i,
                    None => {
                        elig_sets.push((pref, Self::eligible(topo, pref)));
                        elig_sets.len() - 1
                    }
                };
                let eligible = &elig_sets[elig].1;
                if eligible.is_empty() {
                    return Err(SchedError::NoEligibleDevice { job, task });
                }
                let t = &spec.tasks[ti];
                let bytes = Self::traffic_bytes(spec, task);
                let durs_at = durs.len();
                let mut sum = 0.0f64;
                for &c in eligible {
                    let est = Self::estimate_with(topo, &bw, t, bytes, c);
                    sum += est;
                    durs.push(SimDuration::from_nanos_f64(est));
                }
                let preds_at = preds.len() as u32;
                preds.extend(
                    spec.dag
                        .predecessors(task)
                        .iter()
                        .map(|p| (first + p.index()) as u32),
                );
                items.push(Item {
                    job,
                    task,
                    preds: preds_at..preds.len() as u32,
                    elig: elig as u32,
                    durs_at: durs_at as u32,
                    avg: sum / eligible.len() as f64,
                    comm: SimDuration::from_nanos_f64(t.output_bytes as f64 / fabric_bw),
                });
            }
        }

        // Upward ranks (per job; jobs are independent DAGs).
        let mut rank = vec![0.0f64; items.len()];
        for (si, &(_, spec)) in jobs.iter().enumerate() {
            for &task in spec.dag.topo_order().iter().rev() {
                let i = base[si] + task.index();
                let mut best_succ = 0.0f64;
                for &s in spec.dag.successors(task) {
                    let succ = base[si] + s.index();
                    let comm = spec.tasks[task.index()].output_bytes as f64 / fabric_bw;
                    best_succ = best_succ.max(comm + rank[succ]);
                }
                rank[i] = items[i].avg + best_succ;
            }
        }

        // Processing order: HEFT = rank descending, then job, then task
        // (sorted on precomputed keys; the trailing item index keeps a
        // repeated `(job, task)` in push order); round-robin = job
        // submission then topological order, which is how items were
        // pushed.
        let order: Vec<usize> = match self.policy {
            SchedPolicy::Heft => {
                let mut keyed: Vec<(Reverse<i64>, JobId, TaskId, u32)> = items
                    .iter()
                    .zip(&rank)
                    .enumerate()
                    .map(|(i, (it, &r))| (Reverse(total_order_key(r)), it.job, it.task, i as u32))
                    .collect();
                keyed.sort_unstable();
                keyed.into_iter().map(|k| k.3 as usize).collect()
            }
            SchedPolicy::RoundRobin => (0..items.len()).collect(),
        };

        // Per-device lanes (slots) as a min-heap of free times: placing
        // a task reads the earliest-free lane and replaces it, and which
        // lane that is never shows in the schedule.
        let mut lanes: Vec<BinaryHeap<Reverse<SimTime>>> = topo
            .compute_devices()
            .iter()
            .map(|m| (0..m.slots).map(|_| Reverse(SimTime::ZERO)).collect())
            .collect();
        // Finish time + device per item, indexed like `items`.
        let mut finish: Vec<Option<(SimTime, ComputeId)>> = vec![None; items.len()];
        let mut entries: Vec<ScheduleEntry> = Vec::with_capacity(items.len());
        let mut rr_cursor = 0usize;
        // Tasks assigned per device: breaks exact EFT ties toward the
        // least-loaded device so equal work spreads across equal hardware
        // (and with it, memory pressure across nodes).
        let mut assigned: Vec<usize> = vec![0; topo.compute_devices().len()];

        // Dependencies must be scheduled before dependents for the ready
        // time to be known. HEFT's rank order guarantees that within a
        // job; enforce it by deferring items whose predecessors are not
        // yet placed.
        let mut pending: std::collections::VecDeque<usize> = order.into();
        let mut guard = 0usize;
        // Reusable per-item scratch for HEFT's finish-time evaluation.
        let mut fins: Vec<SimTime> = Vec::new();
        while let Some(i) = pending.pop_front() {
            let item = &items[i];
            let preds = &preds[item.preds.start as usize..item.preds.end as usize];
            if !preds.iter().all(|&p| finish[p as usize].is_some()) {
                pending.push_back(i);
                guard += 1;
                assert!(
                    guard < items.len() * items.len() + 16,
                    "scheduler made no progress; DAG validation should prevent this"
                );
                continue;
            }
            guard = 0;
            let eligible: &[ComputeId] = &elig_sets[item.elig as usize].1;

            // `(start, finish)` of the item on its `ei`-th eligible device.
            let choose_on = |ei: usize, lanes: &[BinaryHeap<Reverse<SimTime>>]| {
                let c = eligible[ei];
                let ready = preds
                    .iter()
                    .map(|&p| {
                        let (f, pc) = finish[p as usize].expect("preds checked above");
                        if pc == c {
                            f
                        } else {
                            f + items[p as usize].comm
                        }
                    })
                    .fold(SimTime::ZERO, SimTime::max);
                let &Reverse(free) = lanes[c.index()]
                    .peek()
                    .expect("devices have at least one slot");
                let start = ready.max(free);
                (start, start + durs[item.durs_at as usize + ei])
            };

            let ei = match self.policy {
                SchedPolicy::Heft => {
                    // Evaluate each eligible device once (min_by would
                    // recompute per comparison), then min with the same
                    // EFT → least-assigned → id tie-break.
                    fins.clear();
                    fins.extend((0..eligible.len()).map(|ei| choose_on(ei, &lanes).1));
                    (0..eligible.len())
                        .min_by(|&a, &b| {
                            let (ca, cb) = (eligible[a], eligible[b]);
                            fins[a]
                                .cmp(&fins[b])
                                .then(assigned[ca.index()].cmp(&assigned[cb.index()]))
                                .then(ca.cmp(&cb))
                        })
                        .expect("eligibility checked at collection")
                }
                SchedPolicy::RoundRobin => {
                    let ei = rr_cursor % eligible.len();
                    rr_cursor += 1;
                    ei
                }
            };
            let c = eligible[ei];
            let (start, fin) = choose_on(ei, &lanes);
            assigned[c.index()] += 1;
            *lanes[c.index()]
                .peek_mut()
                .expect("devices have at least one slot") = Reverse(fin);
            finish[i] = Some((fin, c));
            entries.push(ScheduleEntry {
                job: item.job,
                task: item.task,
                compute: c,
                est_start: start,
                est_finish: fin,
                rank: rank[i],
            });
        }
        // `(job, task)` is unique per entry, so the unstable sort has
        // one possible outcome.
        entries.sort_unstable_by_key(|e| (e.est_start, e.job, e.task));
        Ok(Schedule::indexed(entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_dataflow::job::JobBuilder;
    use disagg_dataflow::task::TaskSpec;
    use disagg_hwsim::compute::{ComputeKind, WorkClass};
    use disagg_hwsim::presets::{single_server, two_socket};

    fn pipeline(n: usize, class: WorkClass, elems: u64) -> JobSpec {
        let mut job = JobBuilder::new("pipe");
        let ids: Vec<_> = (0..n)
            .map(|i| {
                job.task(
                    TaskSpec::new(format!("t{i}"))
                        .work(class, elems)
                        .output_bytes(1 << 20),
                )
            })
            .collect();
        job.chain(&ids);
        job.build().unwrap()
    }

    #[test]
    fn precedence_is_respected() {
        let (topo, _) = single_server();
        let spec = pipeline(5, WorkClass::Scalar, 100_000);
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        for w in 0..4u32 {
            let a = sched.entry(JobId(0), TaskId(w)).unwrap();
            let b = sched.entry(JobId(0), TaskId(w + 1)).unwrap();
            assert!(a.est_finish <= b.est_start, "task {w} must finish first");
        }
    }

    #[test]
    fn tensor_work_lands_on_an_accelerator() {
        let (topo, ids) = single_server();
        let mut job = JobBuilder::new("ml");
        job.task(TaskSpec::new("train").work(WorkClass::Tensor, 100_000_000));
        let spec = job.build().unwrap();
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        let c = sched.assignment(JobId(0), TaskId(0)).unwrap();
        assert_eq!(c, ids.gpu, "tensor work should pick the GPU");
    }

    #[test]
    fn scalar_work_stays_on_the_cpu() {
        let (topo, ids) = single_server();
        let mut job = JobBuilder::new("db");
        job.task(TaskSpec::new("probe").work(WorkClass::Scalar, 10_000_000));
        let spec = job.build().unwrap();
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        assert_eq!(sched.assignment(JobId(0), TaskId(0)).unwrap(), ids.cpu);
    }

    #[test]
    fn require_is_a_hard_constraint() {
        let (topo, ids) = single_server();
        let mut job = JobBuilder::new("gpu-only");
        // Scalar work that would prefer the CPU, but the developer pinned it.
        job.task(
            TaskSpec::new("kernel")
                .require(ComputeKind::Gpu)
                .work(WorkClass::Scalar, 1_000_000),
        );
        let spec = job.build().unwrap();
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        assert_eq!(sched.assignment(JobId(0), TaskId(0)).unwrap(), ids.gpu);
    }

    #[test]
    fn missing_required_device_errors() {
        let (topo, _) = two_socket();
        let mut job = JobBuilder::new("gpu-only");
        job.task(TaskSpec::new("x").require(ComputeKind::Gpu));
        let spec = job.build().unwrap();
        assert_eq!(
            Scheduler::new(SchedPolicy::Heft)
                .plan(&topo, &[(JobId(3), &spec)])
                .unwrap_err(),
            SchedError::NoEligibleDevice {
                job: JobId(3),
                task: TaskId(0)
            }
        );
    }

    #[test]
    fn independent_tasks_run_in_parallel_lanes() {
        let (topo, _) = single_server();
        let mut job = JobBuilder::new("fan");
        for i in 0..8 {
            job.task(TaskSpec::new(format!("t{i}")).work(WorkClass::Scalar, 1_000_000));
        }
        let spec = job.build().unwrap();
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        // With 32 CPU slots, all 8 independent tasks start at time zero.
        assert!(sched.entries.iter().all(|e| e.est_start == SimTime::ZERO));
    }

    #[test]
    fn slots_serialize_oversubscribed_devices() {
        let (topo, _) = single_server();
        // 40 independent CPU-required tasks on a 32-slot CPU: at least 8
        // must start after the first wave.
        let mut job = JobBuilder::new("wave");
        for i in 0..40 {
            job.task(
                TaskSpec::new(format!("t{i}"))
                    .require(ComputeKind::Cpu)
                    .work(WorkClass::Scalar, 1_000_000),
            );
        }
        let spec = job.build().unwrap();
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        let delayed = sched
            .entries
            .iter()
            .filter(|e| e.est_start > SimTime::ZERO)
            .count();
        assert_eq!(delayed, 8);
    }

    #[test]
    fn heft_beats_round_robin_on_heterogeneous_work() {
        let (topo, _) = single_server();
        // A mix of scalar and tensor tasks: HEFT routes each to its best
        // device; round-robin scatters them (all scalars first, so its
        // alternation puts half the scalar work on the GPU).
        let mut job = JobBuilder::new("mix");
        for i in 0..6 {
            job.task(TaskSpec::new(format!("s{i}")).work(WorkClass::Scalar, 50_000_000));
        }
        for i in 0..6 {
            job.task(TaskSpec::new(format!("t{i}")).work(WorkClass::Tensor, 50_000_000));
        }
        let spec = job.build().unwrap();
        let heft = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        let rr = Scheduler::new(SchedPolicy::RoundRobin)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        assert!(
            heft.est_makespan() < rr.est_makespan(),
            "HEFT {:?} vs RR {:?}",
            heft.est_makespan(),
            rr.est_makespan()
        );
    }

    #[test]
    fn multiple_jobs_schedule_together() {
        let (topo, _) = single_server();
        let a = pipeline(3, WorkClass::Scalar, 1_000_000);
        let b = pipeline(3, WorkClass::Vector, 1_000_000);
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &a), (JobId(1), &b)])
            .unwrap();
        assert_eq!(sched.entries.len(), 6);
        assert!(sched.assignment(JobId(1), TaskId(2)).is_some());
        assert!(sched.est_makespan() > SimDuration::ZERO);
    }

    #[test]
    fn total_order_key_sorts_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            7.25e18,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn lookups_cover_sparse_job_ids_and_reject_everything_else() {
        let (topo, _) = single_server();
        let a = pipeline(3, WorkClass::Scalar, 1_000_000);
        let b = pipeline(5, WorkClass::Vector, 1_000_000);
        // Not in id order, with a gap between the ids.
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(9), &b), (JobId(6), &a)])
            .unwrap();
        for (i, e) in sched.entries.iter().enumerate() {
            assert_eq!(sched.entry(e.job, e.task), Some(e), "entry {i}");
            assert_eq!(sched.assignment(e.job, e.task), Some(e.compute));
        }
        assert_eq!(sched.entries.len(), 8);
        for (job, task) in [
            (5, 0),
            (6, 3),
            (7, 0),
            (8, 0),
            (9, 5),
            (10, 0),
            (u64::MAX, 0),
        ] {
            assert_eq!(sched.entry(JobId(job), TaskId(task)), None, "{job}/{task}");
        }
        assert_eq!(Schedule::default().entry(JobId(0), TaskId(0)), None);
    }

    #[test]
    fn ranked_candidates_orders_by_cost_model() {
        let (topo, ids) = single_server();
        let mut job = JobBuilder::new("rank");
        job.task(TaskSpec::new("train").work(WorkClass::Tensor, 100_000_000));
        let spec = job.build().unwrap();
        let ranked = Scheduler::ranked_candidates_where(&topo, &spec, TaskId(0), |_| true);
        assert!(!ranked.is_empty());
        assert_eq!(ranked[0].0, ids.gpu, "tensor work ranks the GPU first");
        for w in ranked.windows(2) {
            assert!(w[0].1 <= w[1].1, "cheapest-first order");
        }
    }
}
