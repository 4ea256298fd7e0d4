//! The unified error type for the whole `disagg` API surface.
//!
//! Every layer used to surface its own error enum (`SchedError`,
//! `RegionError`, `TaskError`, `AllocError`); callers of the runtime
//! dealt with a different type per entry point. [`DisaggError`] folds
//! them into one non-exhaustive enum with `From` conversions, so `?`
//! works across layers and new failure classes can be added without
//! breaking downstream matches.

use disagg_dataflow::graph::GraphError;
use disagg_dataflow::job::JobId;
use disagg_dataflow::task::{TaskError, TaskId};
use disagg_region::pool::AllocError;
use disagg_region::region::RegionError;
use disagg_sched::schedule::SchedError;

/// Any failure surfaced by the disagg runtime and its layers.
///
/// Marked `#[non_exhaustive]`: match with a wildcard arm, new variants
/// may appear in future versions.
#[derive(Debug)]
#[non_exhaustive]
pub enum DisaggError {
    /// Scheduling failed.
    Sched(SchedError),
    /// A region operation failed outside a task body.
    Region(RegionError),
    /// A raw allocation failed outside the region layer.
    Alloc(AllocError),
    /// A dataflow graph failed validation.
    Graph(GraphError),
    /// A task body error lifted without job/task context (helper code
    /// running outside the executor).
    Body(TaskError),
    /// No feasible device for one of a task's declared regions.
    Placement {
        /// The job.
        job: JobId,
        /// The task.
        task: TaskId,
        /// Which region kind could not be placed.
        what: &'static str,
    },
    /// Every eligible compute device for a task is down.
    NoComputeAvailable {
        /// The job.
        job: JobId,
        /// The task.
        task: TaskId,
    },
    /// A task kept being interrupted by faults until its
    /// [`crate::RecoveryPolicy`] retry budget ran out.
    RetriesExhausted {
        /// The job.
        job: JobId,
        /// The task.
        task: TaskId,
        /// Attempts made (initial execution + retries).
        attempts: u32,
    },
    /// A task was interrupted by a fault but its tenant's retry budget
    /// (token bucket, [`crate::RetryBudgets`]) was empty: the
    /// request fails fast instead of spending more of the
    /// [`crate::RecoveryPolicy`] cap during a fault storm.
    RetryBudgetExhausted {
        /// The job.
        job: JobId,
        /// The task.
        task: TaskId,
        /// The tenant whose bucket ran dry.
        tenant: u64,
        /// Attempts made before the budget gated further retries.
        attempts: u32,
    },
    /// A [`Submission`](crate::Submission) was malformed: the arrival
    /// offsets do not line up one-per-job.
    Submission {
        /// Number of jobs in the submission.
        jobs: usize,
        /// Number of arrival offsets attached.
        offsets: usize,
    },
    /// A configuration a layer above the executor was handed cannot
    /// describe any run (e.g. a serving run with no template or no
    /// tenant).
    InvalidConfig {
        /// What is wrong with it.
        what: &'static str,
    },
    /// A task body returned an error.
    Task {
        /// The job.
        job: JobId,
        /// The task.
        task: TaskId,
        /// Task name.
        name: String,
        /// The body's error.
        error: TaskError,
    },
}

/// The historical name for [`DisaggError`]; kept so existing call sites
/// and pattern matches keep compiling.
pub type RuntimeError = DisaggError;

impl From<SchedError> for DisaggError {
    fn from(e: SchedError) -> Self {
        DisaggError::Sched(e)
    }
}

impl From<RegionError> for DisaggError {
    fn from(e: RegionError) -> Self {
        DisaggError::Region(e)
    }
}

impl From<AllocError> for DisaggError {
    fn from(e: AllocError) -> Self {
        DisaggError::Alloc(e)
    }
}

impl From<GraphError> for DisaggError {
    fn from(e: GraphError) -> Self {
        DisaggError::Graph(e)
    }
}

impl From<TaskError> for DisaggError {
    fn from(e: TaskError) -> Self {
        DisaggError::Body(e)
    }
}

impl std::fmt::Display for DisaggError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DisaggError::Sched(e) => write!(f, "scheduling failed: {e}"),
            DisaggError::Region(e) => write!(f, "region operation failed: {e}"),
            DisaggError::Alloc(e) => write!(f, "allocation failed: {e}"),
            DisaggError::Graph(e) => write!(f, "invalid dataflow graph: {e}"),
            DisaggError::Body(e) => write!(f, "task body failed: {e}"),
            DisaggError::Placement { job, task, what } => {
                write!(f, "no feasible placement for {what} of {job}/{task}")
            }
            DisaggError::NoComputeAvailable { job, task } => {
                write!(f, "no live compute device for {job}/{task}")
            }
            DisaggError::RetriesExhausted { job, task, attempts } => {
                write!(
                    f,
                    "{job}/{task} kept failing: retry budget exhausted after {attempts} attempts"
                )
            }
            DisaggError::RetryBudgetExhausted { job, task, tenant, attempts } => {
                write!(
                    f,
                    "{job}/{task} failed fast: tenant {tenant}'s retry budget empty after {attempts} attempts"
                )
            }
            DisaggError::Submission { jobs, offsets } => {
                write!(
                    f,
                    "malformed submission: {jobs} jobs but {offsets} arrival offsets"
                )
            }
            DisaggError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            DisaggError::Task { job, task, name, error } => {
                write!(f, "{job}/{task} ('{name}') failed: {error}")
            }
        }
    }
}

impl std::error::Error for DisaggError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DisaggError::Sched(e) => Some(e),
            DisaggError::Region(e) => Some(e),
            DisaggError::Alloc(e) => Some(e),
            DisaggError::Graph(e) => Some(e),
            DisaggError::Body(e) => Some(e),
            DisaggError::Task { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_impls_lift_every_layer_error() {
        let s: DisaggError = SchedError::NoEligibleDevice {
            job: JobId(1),
            task: TaskId(2),
        }
        .into();
        assert!(matches!(s, DisaggError::Sched(_)));

        let a: DisaggError = AllocError::ZeroSize.into();
        assert!(matches!(a, DisaggError::Alloc(_)));

        let g: DisaggError = GraphError::SelfLoop(TaskId(0)).into();
        assert!(matches!(g, DisaggError::Graph(_)));

        let t: DisaggError = TaskError::new("boom").into();
        assert!(matches!(t, DisaggError::Body(_)));
    }

    #[test]
    fn display_and_source_cover_wrapped_errors() {
        use std::error::Error;
        let e: DisaggError = TaskError::new("boom").into();
        assert!(e.to_string().contains("boom"));
        assert!(e.source().is_some());
        let p = DisaggError::Placement {
            job: JobId(0),
            task: TaskId(1),
            what: "output",
        };
        assert!(p.to_string().contains("output"));
        assert!(p.source().is_none());
    }
}
