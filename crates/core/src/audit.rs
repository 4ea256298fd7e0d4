//! The wave audit. Compiled into debug builds only: every test and every
//! debug run closes each wave through it, and a release build carries
//! none of it (there is nothing to switch on or off). At a wave's end it
//! asserts that
//!
//! - the pool moved by exactly the `Alloc` − `Free` bytes the trace
//!   counted over the wave ([`Trace::push`] counts both whether or not
//!   it buffers),
//! - no region owned by one of the wave's tasks is still live, and
//! - no compute device ran more attempts at once than it has slots. An
//!   attempt counts from its start to its finish, or to its detection if
//!   a fault abandoned it; the executor reports each one as it ends, into
//!   a list sized for one attempt per task when the wave opens, so the
//!   fault-free commit path allocates nothing for it.
//!
//! The books open before the wave's first allocation, and while the wave
//! runs they assert that no event commits earlier than the one before it
//! and ([`placed`]) that every region lands on a device its compute can use.
//! One more check sits where serving spans are assembled
//! (`disagg_obs::assemble_request_spans`, debug builds only as well):
//! every span's components sum to its latency.
//!
//! [`Trace::push`]: disagg_hwsim::trace::Trace::push

use disagg_dataflow::job::{JobId, JobSpec};
use disagg_hwsim::fault::{FaultInjector, Target};
use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::time::SimTime;
use disagg_hwsim::topology::Topology;
use disagg_region::region::OwnerId;

use crate::runtime::Runtime;

/// The books as a wave opens them.
pub(crate) struct Books {
    resident: u64,
    allocated: u64,
    freed: u64,
    /// Every attempt of the wave as `(device, start, end)`.
    attempts: Vec<(ComputeId, SimTime, SimTime)>,
    /// The time of the last event the wave committed.
    now: SimTime,
}

/// Asserts that `dev`, allocated at `at` for a region of the task on
/// `compute`, is usable from `compute` then.
pub(crate) fn placed(
    faults: &FaultInjector,
    topo: &Topology,
    compute: ComputeId,
    dev: MemDeviceId,
    at: SimTime,
) {
    assert!(
        faults.usable(topo, Target::Mem { dev, from: Some(compute) }, at),
        "wave audit: a region for {compute:?} is allocated on unusable {dev:?} at {at:?}"
    );
}

/// Bytes allocated in the runtime's pool, over every device.
fn resident(rt: &Runtime) -> u64 {
    let pool = rt.mgr.pool();
    rt.topo.mem_ids().map(|dev| pool.allocated(dev)).sum()
}

impl Books {
    /// Opens the books of a wave of `tasks` tasks.
    pub(crate) fn open(rt: &Runtime, tasks: usize) -> Books {
        Books {
            resident: resident(rt),
            allocated: rt.trace.bytes_allocated(),
            freed: rt.trace.bytes_freed(),
            attempts: Vec::with_capacity(tasks),
            now: rt.clock,
        }
    }

    /// Records that the wave commits an event at `at`.
    ///
    /// # Panics
    ///
    /// If `at` is earlier than the last event committed: the event loop
    /// never goes back in virtual time.
    pub(crate) fn commit(&mut self, at: SimTime) {
        assert!(
            at >= self.now,
            "wave audit: an event commits at {at:?}, after one at {:?}",
            self.now
        );
        self.now = at;
    }

    /// Records an attempt that ran on `compute` over `[start, end)`.
    pub(crate) fn attempt(&mut self, compute: ComputeId, start: SimTime, end: SimTime) {
        self.attempts.push((compute, start, end));
    }

    /// Closes the books of the wave that ran `jobs` under `job_ids`.
    ///
    /// # Panics
    ///
    /// On the first check that fails.
    pub(crate) fn close(self, rt: &Runtime, job_ids: &[JobId], jobs: &[JobSpec]) {
        let booked = i128::from(rt.trace.bytes_allocated() - self.allocated)
            - i128::from(rt.trace.bytes_freed() - self.freed);
        let moved = i128::from(resident(rt)) - i128::from(self.resident);
        assert_eq!(
            moved, booked,
            "wave audit: the pool moved {moved} B but the trace booked Alloc − Free = {booked} B"
        );
        for (&job, spec) in job_ids.iter().zip(jobs) {
            for task in 0..spec.tasks.len() as u64 {
                let who = OwnerId::Task { job: job.0, task };
                assert!(
                    !rt.mgr.owns_any(who),
                    "wave audit: {who:?} still owns a live region after its wave"
                );
            }
        }
        // Sweep each device's attempt bounds in time order, an end before
        // a start at the same instant: the running count is the attempts
        // running at once (each device's bounds sum to zero).
        let mut bounds: Vec<(ComputeId, SimTime, i8)> = self
            .attempts
            .iter()
            .flat_map(|&(c, start, end)| [(c, start, 1), (c, end, -1)])
            .collect();
        bounds.sort_unstable();
        let mut running = 0i64;
        for (compute, at, step) in bounds {
            running += i64::from(step);
            let slots = rt.topo.compute(compute).slots;
            assert!(
                running <= i64::from(slots),
                "wave audit: {compute:?} runs {running} attempts at once at {at:?} on {slots} slots"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_dataflow::job::JobBuilder;
    use disagg_dataflow::task::TaskSpec;
    use disagg_hwsim::presets::single_server;
    use disagg_hwsim::time::SimTime;
    use disagg_region::props::PropertySet;
    use disagg_region::typed::RegionType;

    use crate::config::RuntimeConfig;

    fn one_task_job() -> JobSpec {
        let mut j = JobBuilder::new("one");
        j.task(TaskSpec::new("t"));
        j.build().unwrap()
    }

    #[test]
    fn balanced_books_close_quietly() {
        let (topo, ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        let books = Books::open(&rt, 1);
        let who = OwnerId::Job(0);
        let r = rt
            .mgr
            .alloc_traced(
                &mut rt.trace,
                ids.dram,
                4096,
                RegionType::GlobalState,
                PropertySet::new(),
                who,
                SimTime::ZERO,
            )
            .unwrap();
        rt.mgr
            .release_traced(&mut rt.trace, r, who, SimTime(1))
            .unwrap();
        books.close(&rt, &[JobId(0)], &[one_task_job()]);
    }

    #[test]
    #[should_panic(expected = "the pool moved 4096 B but the trace booked Alloc − Free = 0 B")]
    fn an_untraced_allocation_breaks_the_books() {
        let (topo, ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        let books = Books::open(&rt, 1);
        rt.mgr
            .alloc(
                ids.dram,
                4096,
                RegionType::GlobalScratch,
                PropertySet::new(),
                OwnerId::App,
                SimTime::ZERO,
            )
            .unwrap();
        books.close(&rt, &[], &[]);
    }

    #[test]
    fn attempts_up_to_the_slot_count_close_quietly() {
        let (topo, ids) = single_server();
        let rt = Runtime::new(topo, RuntimeConfig::default());
        let slots = u64::from(rt.topo.compute(ids.cpu).slots);
        let mut books = Books::open(&rt, 1);
        // Every slot busy over [0, 10), then back to back over [10, 20).
        for _ in 0..slots {
            books.attempt(ids.cpu, SimTime(0), SimTime(10));
            books.attempt(ids.cpu, SimTime(10), SimTime(20));
        }
        books.close(&rt, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "attempts at once at SimTime(5)")]
    fn one_attempt_past_the_slot_count_breaks_the_books() {
        let (topo, ids) = single_server();
        let rt = Runtime::new(topo, RuntimeConfig::default());
        let slots = u64::from(rt.topo.compute(ids.cpu).slots);
        let mut books = Books::open(&rt, 1);
        for _ in 0..slots {
            books.attempt(ids.cpu, SimTime(0), SimTime(10));
        }
        // An abandoned attempt counts until its detection at 7.
        books.attempt(ids.cpu, SimTime(5), SimTime(7));
        books.close(&rt, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "still owns a live region after its wave")]
    fn a_task_region_left_live_breaks_the_books() {
        let (topo, ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        let books = Books::open(&rt, 1);
        let who = OwnerId::Task { job: 0, task: 0 };
        rt.mgr
            .alloc_traced(
                &mut rt.trace,
                ids.dram,
                4096,
                RegionType::PrivateScratch,
                PropertySet::new(),
                who,
                SimTime::ZERO,
            )
            .unwrap();
        books.close(&rt, &[JobId(0)], &[one_task_job()]);
    }
}
