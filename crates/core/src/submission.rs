//! The unified submission API.
//!
//! [`Runtime::execute`](crate::Runtime::execute) is the runtime's only
//! entry point. A [`Submission`] covers the three shapes of work — one
//! job, a closed batch, and a batch whose jobs arrive over virtual
//! time — in one builder. Every job of a submission is admitted at once:
//!
//! ```
//! use disagg_core::prelude::*;
//!
//! let (topo, _ids) = disagg_hwsim::presets::single_server();
//! let mut rt = Runtime::new(topo, RuntimeConfig::default());
//!
//! let mk = |name: &str| {
//!     let mut j = JobBuilder::new(name);
//!     j.task(TaskSpec::new("t").work(WorkClass::Scalar, 10_000));
//!     j.build().unwrap()
//! };
//!
//! // A closed batch:
//! let report = rt.execute(Submission::batch(vec![mk("a"), mk("b")])).unwrap();
//! assert_eq!(report.tasks.len(), 2);
//!
//! // An open arrival stream: each job's tasks wait for its offset.
//! let report = rt
//!     .execute(
//!         Submission::batch(vec![mk("c"), mk("d")])
//!             .arrivals(vec![SimDuration::ZERO, SimDuration::from_micros(5)]),
//!     )
//!     .unwrap();
//! assert_eq!(report.tasks.len(), 2);
//! ```

use disagg_dataflow::job::JobSpec;
use disagg_hwsim::time::SimDuration;

/// One unit of work handed to [`Runtime::execute`](crate::Runtime::execute):
/// a batch of jobs, optional per-job arrival offsets, and optional
/// request identities.
///
/// Built with [`Submission::batch`] / [`Submission::job`] /
/// [`Submission::arriving`] and refined with the builder methods.
#[derive(Debug)]
pub struct Submission {
    pub(crate) jobs: Vec<JobSpec>,
    pub(crate) offsets: Option<Vec<SimDuration>>,
    /// Per-job `(request, tenant)` identities for request-centric
    /// observability. When set, the executor stamps a
    /// [`TraceEvent::RequestTag`](disagg_hwsim::trace::TraceEvent) per
    /// job at its arrival, so the whole trace can be attributed back to
    /// requests; untagged submissions emit nothing extra.
    pub(crate) tags: Option<Vec<(u64, u64)>>,
}

impl Submission {
    /// A closed batch: every job arrives at the current virtual time.
    pub fn batch(jobs: Vec<JobSpec>) -> Submission {
        Submission { jobs, offsets: None, tags: None }
    }

    /// A single job.
    pub fn job(job: JobSpec) -> Submission {
        Submission::batch(vec![job])
    }

    /// An arrival stream given as `(offset, job)` pairs: each job's
    /// tasks may not start before its offset relative to the current
    /// virtual time.
    pub fn arriving(arrivals: Vec<(SimDuration, JobSpec)>) -> Submission {
        let (offsets, jobs): (Vec<_>, Vec<_>) = arrivals.into_iter().unzip();
        Submission { jobs, offsets: Some(offsets), tags: None }
    }

    /// Attaches per-job arrival offsets (must be one per job; checked
    /// at execution time).
    pub fn arrivals(mut self, offsets: Vec<SimDuration>) -> Submission {
        self.offsets = Some(offsets);
        self
    }

    /// Attaches per-job `(request, tenant)` identities (must be one per
    /// job; checked at execution time). Each tagged job gets a
    /// `RequestTag` trace event at its arrival so spans, retries, and
    /// reconstructions can be attributed to the owning request.
    pub fn requests(mut self, tags: Vec<(u64, u64)>) -> Submission {
        self.tags = Some(tags);
        self
    }

    /// Number of jobs in the submission.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the submission carries no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

impl From<JobSpec> for Submission {
    fn from(job: JobSpec) -> Submission {
        Submission::job(job)
    }
}

impl From<Vec<JobSpec>> for Submission {
    fn from(jobs: Vec<JobSpec>) -> Submission {
        Submission::batch(jobs)
    }
}

impl From<Vec<(SimDuration, JobSpec)>> for Submission {
    fn from(arrivals: Vec<(SimDuration, JobSpec)>) -> Submission {
        Submission::arriving(arrivals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_dataflow::job::JobBuilder;
    use disagg_dataflow::task::TaskSpec;

    fn job(name: &str) -> JobSpec {
        let mut j = JobBuilder::new(name);
        j.task(TaskSpec::new("t"));
        j.build().unwrap()
    }

    #[test]
    fn builder_shapes_compose() {
        let s = Submission::batch(vec![job("a"), job("b")]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(s.offsets.is_none());

        let s = Submission::job(job("solo"))
            .arrivals(vec![SimDuration::from_nanos(5)])
            .requests(vec![(17, 3)]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.offsets.as_ref().unwrap().len(), 1);
        assert_eq!(s.tags.as_ref().unwrap(), &[(17, 3)]);

        let s = Submission::arriving(vec![
            (SimDuration::ZERO, job("x")),
            (SimDuration::from_nanos(9), job("y")),
        ]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.offsets.as_ref().unwrap()[1], SimDuration::from_nanos(9));
    }

    #[test]
    fn from_impls_cover_the_common_shapes() {
        let s: Submission = job("a").into();
        assert_eq!(s.len(), 1);
        let s: Submission = vec![job("a"), job("b")].into();
        assert_eq!(s.len(), 2);
    }
}
