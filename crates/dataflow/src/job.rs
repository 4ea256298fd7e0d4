//! Jobs: validated bundles of tasks forming a DAG.
//!
//! Applications launch *jobs* consisting of *tasks* (§2.1, Figure 2). A
//! [`JobBuilder`] accumulates task specs, dataflow edges, and job-level
//! property defaults, then validates everything into a [`JobSpec`] the
//! runtime can place and schedule.

use crate::graph::{Dag, GraphError};
use crate::task::{TaskId, TaskProps, TaskSpec};

/// Identifies a job within a runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "J{}", self.0)
    }
}

/// Errors from job construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job has no tasks.
    Empty,
    /// Structural DAG error.
    Graph(GraphError),
    /// Two tasks share a name (names key reports and published regions).
    DuplicateTaskName(String),
}

impl From<GraphError> for JobError {
    fn from(e: GraphError) -> Self {
        JobError::Graph(e)
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Empty => write!(f, "job has no tasks"),
            JobError::Graph(e) => write!(f, "invalid dataflow graph: {e}"),
            JobError::DuplicateTaskName(n) => write!(f, "duplicate task name '{n}'"),
        }
    }
}

impl std::error::Error for JobError {}

/// A validated job, ready for submission.
pub struct JobSpec {
    /// Job name (for reports).
    pub name: String,
    /// Task specifications, indexed by [`TaskId`].
    pub tasks: Vec<TaskSpec>,
    /// The dataflow DAG.
    pub dag: Dag,
    /// Job-level property defaults tasks inherit from.
    pub defaults: TaskProps,
    /// Bytes of job-wide global state to allocate (0 = none).
    pub global_state_bytes: u64,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("tasks", &self.tasks.len())
            .field("edges", &self.dag.topo_order().len())
            .finish_non_exhaustive()
    }
}

impl JobSpec {
    /// Looks a task up by name.
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.tasks
            .iter()
            .position(|t| t.name == name)
            .map(|i| TaskId(i as u32))
    }
}

/// Builds a [`JobSpec`].
pub struct JobBuilder {
    name: String,
    tasks: Vec<TaskSpec>,
    edges: Vec<(TaskId, TaskId)>,
    defaults: TaskProps,
    global_state_bytes: u64,
}

impl JobBuilder {
    /// Starts a job.
    pub fn new(name: impl Into<String>) -> Self {
        JobBuilder {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
            defaults: TaskProps::default(),
            global_state_bytes: 0,
        }
    }

    /// Sets job-level property defaults all tasks inherit.
    pub fn defaults(mut self, defaults: TaskProps) -> Self {
        self.defaults = defaults;
        self
    }

    /// Requests a job-wide global-state region of `bytes`.
    pub fn global_state(mut self, bytes: u64) -> Self {
        self.global_state_bytes = bytes;
        self
    }

    /// Adds a task, returning its id.
    pub fn task(&mut self, spec: TaskSpec) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(spec);
        id
    }

    /// Adds a dataflow edge `from → to` (the producer's output becomes
    /// the consumer's input).
    pub fn edge(&mut self, from: TaskId, to: TaskId) -> &mut Self {
        self.edges.push((from, to));
        self
    }

    /// Adds a linear chain of edges through the given tasks.
    pub fn chain(&mut self, tasks: &[TaskId]) -> &mut Self {
        for pair in tasks.windows(2) {
            self.edges.push((pair[0], pair[1]));
        }
        self
    }

    /// Validates and finalizes the job.
    pub fn build(self) -> Result<JobSpec, JobError> {
        if self.tasks.is_empty() {
            return Err(JobError::Empty);
        }
        // Sorted by name, then position, every repeat of a name sits
        // right after an earlier use of it; the first repeat in task
        // order is the one reported.
        let mut names: Vec<(&str, usize)> =
            self.tasks.iter().enumerate().map(|(i, t)| (t.name.as_str(), i)).collect();
        names.sort_unstable();
        let repeat = names.windows(2).filter(|w| w[0].0 == w[1].0).map(|w| w[1].1).min();
        if let Some(i) = repeat {
            return Err(JobError::DuplicateTaskName(self.tasks[i].name.clone()));
        }
        let dag = Dag::new(self.tasks.len(), &self.edges)?;
        Ok(JobSpec {
            name: self.name,
            tasks: self.tasks,
            dag,
            defaults: self.defaults,
            global_state_bytes: self.global_state_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::compute::ComputeKind;
    use disagg_region::props::LatencyClass;

    #[test]
    fn hospital_job_shape_builds() {
        // Figure 2: T1 → T2 → {T3, T4, T5}.
        let mut job = JobBuilder::new("hospital").defaults(TaskProps {
            confidential: Some(true),
            ..TaskProps::default()
        });
        let t1 = job.task(TaskSpec::new("preprocessing").on(ComputeKind::Gpu));
        let t2 = job.task(
            TaskSpec::new("face-recognition")
                .on(ComputeKind::Gpu)
                .mem_latency(LatencyClass::Low),
        );
        let t3 = job.task(TaskSpec::new("track-hours"));
        let t4 = job.task(TaskSpec::new("compute-utilization").confidential(false));
        let t5 = job.task(TaskSpec::new("alert-caregivers").persistent(true));
        job.edge(t1, t2);
        job.edge(t2, t3);
        job.edge(t2, t4);
        job.edge(t2, t5);
        let spec = job.build().unwrap();
        assert_eq!(spec.tasks.len(), 5);
        assert_eq!(spec.dag.successors(t2), &[t3, t4, t5]);
        assert_eq!(spec.task_by_name("track-hours"), Some(t3));

        // Property inheritance: t3 inherits job-level confidentiality,
        // t4 overrides it off.
        let eff3 = spec.tasks[t3.index()].props.effective(&spec.defaults);
        let eff4 = spec.tasks[t4.index()].props.effective(&spec.defaults);
        assert!(eff3.confidential);
        assert!(!eff4.confidential);
        let eff5 = spec.tasks[t5.index()].props.effective(&spec.defaults);
        assert!(eff5.persistent);
    }

    #[test]
    fn empty_job_is_rejected() {
        assert_eq!(JobBuilder::new("empty").build().unwrap_err(), JobError::Empty);
    }

    #[test]
    fn cyclic_job_is_rejected() {
        let mut job = JobBuilder::new("cyclic");
        let a = job.task(TaskSpec::new("a"));
        let b = job.task(TaskSpec::new("b"));
        job.edge(a, b);
        job.edge(b, a);
        assert!(matches!(job.build().unwrap_err(), JobError::Graph(GraphError::Cycle(_))));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut job = JobBuilder::new("dups");
        job.task(TaskSpec::new("same"));
        job.task(TaskSpec::new("same"));
        assert_eq!(
            job.build().unwrap_err(),
            JobError::DuplicateTaskName("same".into())
        );
    }

    #[test]
    fn the_first_repeat_in_task_order_is_the_duplicate_reported() {
        for (names, first_repeat) in [(["a", "b", "b", "a"], "b"), (["a", "b", "a", "b"], "a")] {
            let mut job = JobBuilder::new("dups");
            for name in names {
                job.task(TaskSpec::new(name));
            }
            assert_eq!(
                job.build().unwrap_err(),
                JobError::DuplicateTaskName(first_repeat.into()),
                "{names:?}"
            );
        }
    }

    #[test]
    fn chain_builds_linear_pipelines() {
        let mut job = JobBuilder::new("pipeline");
        let ids: Vec<TaskId> = (0..4)
            .map(|i| job.task(TaskSpec::new(format!("stage{i}"))))
            .collect();
        job.chain(&ids);
        let spec = job.build().unwrap();
        for pair in ids.windows(2) {
            assert_eq!(spec.dag.successors(pair[0]), &[pair[1]]);
        }
    }

    #[test]
    fn global_state_request_is_recorded() {
        let mut job = JobBuilder::new("with-state");
        job.task(TaskSpec::new("t"));
        let spec = job.global_state(4096).build().unwrap();
        assert_eq!(spec.global_state_bytes, 4096);
    }
}
