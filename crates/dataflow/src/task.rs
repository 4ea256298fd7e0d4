//! Task specifications: the unit of computation in a dataflow job.
//!
//! A task declares *what* it needs — a compute-device class, memory
//! properties (Figure 2c: `comp. device`, `confidential`, `persistent`,
//! `mem. latency`), scratch sizes, and a work profile for the scheduler's
//! cost model — and provides a body, a plain Rust closure that runs
//! against a [`crate::ctx::TaskCtx`]. The body never names a physical
//! device; the runtime resolves every memory request at placement time.

use disagg_hwsim::compute::{ComputeKind, WorkClass};
use disagg_region::props::LatencyClass;

use crate::ctx::TaskCtx;

/// Identifies a task within its job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// How strongly a task is bound to a compute-device class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComputePref {
    /// The scheduler picks freely on cost.
    #[default]
    Any,
    /// Prefer this class, but fall back if it is saturated or missing.
    Prefer(ComputeKind),
    /// Hard requirement (e.g. the body uses GPU-only kernels).
    Require(ComputeKind),
}

impl ComputePref {
    /// The preferred kind, if one is named.
    pub fn kind(self) -> Option<ComputeKind> {
        match self {
            ComputePref::Any => None,
            ComputePref::Prefer(k) | ComputePref::Require(k) => Some(k),
        }
    }

    /// True if `kind` is acceptable under this preference.
    pub fn allows(self, kind: ComputeKind) -> bool {
        match self {
            ComputePref::Any | ComputePref::Prefer(_) => true,
            ComputePref::Require(k) => k == kind,
        }
    }
}

/// The declarative properties attachable to a task (Figure 2c).
///
/// `None` means "inherit the job-level default"; see
/// [`TaskProps::effective`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskProps {
    /// Processed data is sensitive: isolated between jobs and encrypted
    /// when leaving the coherence domain.
    pub confidential: Option<bool>,
    /// The task's output must survive crashes.
    pub persistent: Option<bool>,
    /// Required latency class for the task's working memory.
    pub mem_latency: Option<LatencyClass>,
    /// Streaming (latency-sensitive per item) vs batch processing.
    pub streaming: Option<bool>,
}

impl TaskProps {
    /// Resolves task-level properties against job-level defaults.
    pub fn effective(&self, job_defaults: &TaskProps) -> ResolvedProps {
        ResolvedProps {
            confidential: self
                .confidential
                .or(job_defaults.confidential)
                .unwrap_or(false),
            persistent: self.persistent.or(job_defaults.persistent).unwrap_or(false),
            mem_latency: self.mem_latency.or(job_defaults.mem_latency),
            streaming: self.streaming.or(job_defaults.streaming).unwrap_or(false),
        }
    }
}

/// Fully resolved task properties (no inheritance holes left).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedProps {
    /// Sensitive data.
    pub confidential: bool,
    /// Output must persist.
    pub persistent: bool,
    /// Working-memory latency requirement (`None`: keep the region
    /// type's own default).
    pub mem_latency: Option<LatencyClass>,
    /// Streaming task.
    pub streaming: bool,
}

/// The scheduler-facing work estimate for a task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkProfile {
    /// Dominant work class (drives compute-device affinity).
    pub class: WorkClass,
    /// Estimated elements processed.
    pub elems: u64,
}

impl Default for WorkProfile {
    fn default() -> Self {
        WorkProfile {
            class: WorkClass::Scalar,
            elems: 0,
        }
    }
}

/// Machine-readable classification of a task-body failure, so callers
/// can react to *what* failed without sniffing the message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaskErrorKind {
    /// An ordinary failure with no special runtime handling.
    #[default]
    Generic,
    /// The body was denied access to a confidential region it does not
    /// own; the run fails with this kind, enforcement having held.
    ConfidentialityDenied,
}

/// Errors returned by task bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Human-readable failure description.
    pub msg: String,
    /// What class of failure this is.
    pub kind: TaskErrorKind,
}

impl TaskError {
    /// Builds a generic error from anything printable.
    pub fn new(msg: impl Into<String>) -> Self {
        TaskError {
            msg: msg.into(),
            kind: TaskErrorKind::Generic,
        }
    }

    /// True if this is a confidentiality denial.
    pub fn is_confidentiality_denial(&self) -> bool {
        self.kind == TaskErrorKind::ConfidentialityDenied
    }
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task failed: {}", self.msg)
    }
}

impl std::error::Error for TaskError {}

impl From<disagg_region::RegionError> for TaskError {
    fn from(e: disagg_region::RegionError) -> Self {
        let kind = match e {
            disagg_region::RegionError::ConfidentialityViolation { .. } => {
                TaskErrorKind::ConfidentialityDenied
            }
            _ => TaskErrorKind::Generic,
        };
        TaskError {
            msg: e.to_string(),
            kind,
        }
    }
}

/// The body closure type. Bodies may run more than once (retry after an
/// injected fault), hence `Fn`, not `FnOnce`.
pub type TaskBody = Box<dyn Fn(&mut TaskCtx<'_, '_>) -> Result<(), TaskError>>;

/// A complete task specification.
pub struct TaskSpec {
    /// Human-readable name (Figure 2b: "Preprocessing", "Face Recog.", …).
    pub name: String,
    /// Compute-device binding.
    pub compute: ComputePref,
    /// Declarative properties (holes inherit from the job).
    pub props: TaskProps,
    /// Work estimate for the scheduler.
    pub work: WorkProfile,
    /// Requested private-scratch bytes (0 = none).
    pub private_scratch: u64,
    /// Requested global-scratch bytes this task *creates* (0 = none).
    pub global_scratch: u64,
    /// Estimated output bytes (the successor's input).
    pub output_bytes: u64,
    /// The body.
    pub body: TaskBody,
}

impl std::fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskSpec")
            .field("name", &self.name)
            .field("compute", &self.compute)
            .field("props", &self.props)
            .field("work", &self.work)
            .field("private_scratch", &self.private_scratch)
            .field("global_scratch", &self.global_scratch)
            .field("output_bytes", &self.output_bytes)
            .finish_non_exhaustive()
    }
}

impl TaskSpec {
    /// Starts a task spec with a no-op body and no requirements.
    pub fn new(name: impl Into<String>) -> Self {
        TaskSpec {
            name: name.into(),
            compute: ComputePref::Any,
            props: TaskProps::default(),
            work: WorkProfile::default(),
            private_scratch: 0,
            global_scratch: 0,
            output_bytes: 0,
            body: Box::new(|_| Ok(())),
        }
    }

    /// Prefers a compute-device class.
    pub fn on(mut self, kind: ComputeKind) -> Self {
        self.compute = ComputePref::Prefer(kind);
        self
    }

    /// Requires a compute-device class.
    pub fn require(mut self, kind: ComputeKind) -> Self {
        self.compute = ComputePref::Require(kind);
        self
    }

    /// Marks the task's data confidential.
    pub fn confidential(mut self, yes: bool) -> Self {
        self.props.confidential = Some(yes);
        self
    }

    /// Requires the task's output to be persistent.
    pub fn persistent(mut self, yes: bool) -> Self {
        self.props.persistent = Some(yes);
        self
    }

    /// Requires a working-memory latency class.
    pub fn mem_latency(mut self, class: LatencyClass) -> Self {
        self.props.mem_latency = Some(class);
        self
    }

    /// Marks the task streaming (vs batch).
    pub fn streaming(mut self, yes: bool) -> Self {
        self.props.streaming = Some(yes);
        self
    }

    /// Declares the work estimate.
    pub fn work(mut self, class: WorkClass, elems: u64) -> Self {
        self.work = WorkProfile { class, elems };
        self
    }

    /// Requests private scratch space.
    pub fn private_scratch(mut self, bytes: u64) -> Self {
        self.private_scratch = bytes;
        self
    }

    /// Requests global scratch space created by this task.
    pub fn global_scratch(mut self, bytes: u64) -> Self {
        self.global_scratch = bytes;
        self
    }

    /// Declares the estimated output size.
    pub fn output_bytes(mut self, bytes: u64) -> Self {
        self.output_bytes = bytes;
        self
    }

    /// Sets the body.
    pub fn body(
        mut self,
        f: impl Fn(&mut TaskCtx<'_, '_>) -> Result<(), TaskError> + 'static,
    ) -> Self {
        self.body = Box::new(f);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_declarations() {
        let t = TaskSpec::new("face-recognition")
            .on(ComputeKind::Gpu)
            .confidential(true)
            .mem_latency(LatencyClass::Low)
            .work(WorkClass::Tensor, 1_000_000)
            .private_scratch(1 << 20)
            .output_bytes(4096);
        assert_eq!(t.name, "face-recognition");
        assert_eq!(t.compute, ComputePref::Prefer(ComputeKind::Gpu));
        assert_eq!(t.props.confidential, Some(true));
        assert_eq!(t.props.mem_latency, Some(LatencyClass::Low));
        assert_eq!(t.work.class, WorkClass::Tensor);
        assert_eq!(t.private_scratch, 1 << 20);
        assert_eq!(t.output_bytes, 4096);
    }

    #[test]
    fn props_inherit_job_defaults() {
        let job_defaults = TaskProps {
            confidential: Some(true),
            persistent: None,
            mem_latency: Some(LatencyClass::Medium),
            streaming: Some(false),
        };
        let task = TaskProps {
            confidential: None,
            persistent: Some(true),
            mem_latency: None,
            streaming: None,
        };
        let eff = task.effective(&job_defaults);
        assert!(eff.confidential, "inherited from job");
        assert!(eff.persistent, "task override");
        assert_eq!(eff.mem_latency, Some(LatencyClass::Medium));
        assert!(!eff.streaming);
    }

    #[test]
    fn unset_props_resolve_to_permissive_defaults() {
        let eff = TaskProps::default().effective(&TaskProps::default());
        assert!(!eff.confidential);
        assert!(!eff.persistent);
        assert_eq!(eff.mem_latency, None);
        assert!(!eff.streaming);
    }

    #[test]
    fn compute_pref_gates_placement() {
        assert!(ComputePref::Any.allows(ComputeKind::Cpu));
        assert!(ComputePref::Prefer(ComputeKind::Gpu).allows(ComputeKind::Cpu));
        assert!(ComputePref::Require(ComputeKind::Gpu).allows(ComputeKind::Gpu));
        assert!(!ComputePref::Require(ComputeKind::Gpu).allows(ComputeKind::Cpu));
        assert_eq!(ComputePref::Prefer(ComputeKind::Gpu).kind(), Some(ComputeKind::Gpu));
        assert_eq!(ComputePref::Any.kind(), None);
    }

    #[test]
    fn task_error_wraps_region_errors() {
        let e: TaskError = disagg_region::RegionError::SharedTransfer(disagg_region::RegionId(3)).into();
        assert!(e.msg.contains("r3"));
        assert_eq!(e.kind, TaskErrorKind::Generic);
    }

    #[test]
    fn confidentiality_violations_carry_a_typed_kind() {
        let e: TaskError = disagg_region::RegionError::ConfidentialityViolation {
            region: disagg_region::RegionId(7),
            owner_job: Some(1),
            accessor_job: Some(2),
        }
        .into();
        assert!(e.is_confidentiality_denial());
        assert_eq!(e.kind, TaskErrorKind::ConfidentialityDenied);
        assert!(!TaskError::new("plain").is_confidentiality_denial());
    }
}
