//! The wave audit. Compiled into debug builds only: every test and every
//! debug run closes each wave through it, and a release build carries
//! none of it (there is nothing to switch on or off). At a wave's end it
//! asserts that
//!
//! - the pool moved by exactly the `Alloc` − `Free` bytes the trace
//!   counted over the wave ([`Trace::push`] counts both whether or not
//!   it buffers), and
//! - no region owned by one of the wave's tasks is still live.
//!
//! The third check sits where serving spans are assembled
//! (`disagg_obs::assemble_request_spans`, debug builds only as well):
//! every span's components sum to its latency.
//!
//! [`Trace::push`]: disagg_hwsim::trace::Trace::push

use disagg_dataflow::job::{JobId, JobSpec};
use disagg_region::region::OwnerId;

use crate::runtime::Runtime;

/// The books as a wave opens them.
pub(crate) struct Books {
    resident: u64,
    allocated: u64,
    freed: u64,
}

/// Bytes allocated in the runtime's pool, over every device.
fn resident(rt: &Runtime) -> u64 {
    let pool = rt.mgr.pool();
    rt.topo.mem_ids().map(|dev| pool.allocated(dev)).sum()
}

impl Books {
    pub(crate) fn open(rt: &Runtime) -> Books {
        Books {
            resident: resident(rt),
            allocated: rt.trace.bytes_allocated(),
            freed: rt.trace.bytes_freed(),
        }
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
        let books = Books::open(&rt);
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
        let books = Books::open(&rt);
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
    #[should_panic(expected = "still owns a live region after its wave")]
    fn a_task_region_left_live_breaks_the_books() {
        let (topo, ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        let books = Books::open(&rt);
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
