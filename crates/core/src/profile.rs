//! Profiling across abstraction layers (the paper's Challenge 8(1)).
//!
//! "How can we debug, profile, and optimize dataflow applications with
//! multiple abstraction layers for performance when the runtime system
//! hides performance-relevant details?" — by having the runtime *keep*
//! the details. Every task's virtual time is attributed to the layer
//! that spent it:
//!
//! - **application**: pure compute charged by the task body;
//! - **programming model**: synchronous memory stalls and un-hidden
//!   asynchronous stalls (time the memory interfaces cost the task);
//! - **runtime system**: launch overhead plus whatever the executor
//!   spent around the body (placement, handover bookkeeping);
//!
//! and the trace lets reports drill from a task to the regions and
//! devices it touched.

use disagg_hwsim::time::SimDuration;

use crate::report::{RunReport, TaskReport};

/// One task's virtual time attributed per layer.
#[derive(Debug, Clone)]
pub struct TaskProfile {
    /// Task name.
    pub name: String,
    /// Total task duration.
    pub total: SimDuration,
    /// Application layer: pure compute.
    pub compute: SimDuration,
    /// Programming-model layer: synchronous memory stalls.
    pub sync_stall: SimDuration,
    /// Programming-model layer: async join stalls not hidden by compute.
    pub async_stall: SimDuration,
    /// Runtime layer: launch overhead + everything unaccounted above
    /// (placement, handover crediting, encryption toll).
    pub runtime: SimDuration,
}

impl TaskProfile {
    fn from_report(report: &RunReport, t: &TaskReport) -> TaskProfile {
        let total = t.duration();
        let stats = report.access_of(t);
        let compute = stats.compute_time;
        let sync_stall = stats.sync_stall;
        let async_stall = stats.async_stall;
        let accounted = compute + sync_stall + async_stall;
        TaskProfile {
            name: t.name.to_string(),
            total,
            compute,
            sync_stall,
            async_stall,
            runtime: total.saturating_sub(accounted),
        }
    }

    /// Fraction of the task spent in pure compute.
    pub fn compute_fraction(&self) -> f64 {
        if self.total == SimDuration::ZERO {
            0.0
        } else {
            self.compute.as_nanos_f64() / self.total.as_nanos_f64()
        }
    }

    /// Fraction of the task stalled on memory (sync + async).
    pub fn memory_fraction(&self) -> f64 {
        if self.total == SimDuration::ZERO {
            0.0
        } else {
            (self.sync_stall + self.async_stall).as_nanos_f64() / self.total.as_nanos_f64()
        }
    }
}

/// Whole-run profile: per-task layers plus aggregates.
#[derive(Debug, Clone)]
pub struct RunProfile {
    /// One entry per executed task.
    pub tasks: Vec<TaskProfile>,
}

impl RunProfile {
    /// Builds the profile from a run report.
    pub fn new(report: &RunReport) -> RunProfile {
        RunProfile {
            tasks: report.tasks.iter().map(|t| TaskProfile::from_report(report, t)).collect(),
        }
    }

    /// Aggregate time per layer across all tasks:
    /// `(compute, memory_stall, runtime)`.
    pub fn totals(&self) -> (SimDuration, SimDuration, SimDuration) {
        self.tasks.iter().fold(
            (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO),
            |(c, m, r), t| (c + t.compute, m + t.sync_stall + t.async_stall, r + t.runtime),
        )
    }

    /// The task with the largest memory-stall fraction (the tuning
    /// target a profiler should point at first).
    pub fn most_memory_bound(&self) -> Option<&TaskProfile> {
        self.tasks
            .iter()
            .filter(|t| t.total > SimDuration::ZERO)
            .max_by(|a, b| a.memory_fraction().total_cmp(&b.memory_fraction()))
    }

    /// Renders an aligned per-task breakdown.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "task                  total        compute      mem-stall    runtime\n",
        );
        for t in &self.tasks {
            out.push_str(&format!(
                "{:20}  {:>11}  {:>11}  {:>11}  {:>11}\n",
                t.name,
                t.total.to_string(),
                t.compute.to_string(),
                (t.sync_stall + t.async_stall).to_string(),
                t.runtime.to_string(),
            ));
        }
        let (c, m, r) = self.totals();
        out.push_str(&format!(
            "{:20}  {:>11}  {:>11}  {:>11}  {:>11}\n",
            "TOTAL",
            (c + m + r).to_string(),
            c.to_string(),
            m.to_string(),
            r.to_string(),
        ));
        out
    }
}

impl RunReport {
    /// Profiles this run across abstraction layers (Challenge 8(1)).
    pub fn profile(&self) -> RunProfile {
        RunProfile::new(self)
    }

    /// The run as analyzer input: one [`TaskSpan`] per executed task
    /// (layer attribution from [`TaskProfile`]) plus the honored
    /// dataflow edges as index pairs into the span list.
    ///
    /// [`TaskSpan`]: disagg_obs::TaskSpan
    pub fn task_spans(&self) -> (Vec<disagg_obs::TaskSpan>, Vec<(usize, usize)>) {
        let spans: Vec<disagg_obs::TaskSpan> = self
            .tasks
            .iter()
            .map(|t| {
                let p = TaskProfile::from_report(self, t);
                disagg_obs::TaskSpan {
                    job: t.job.0,
                    task: t.task.0 as u64,
                    name: t.name.to_string(),
                    lane: t.compute.0,
                    start: t.start,
                    finish: t.finish,
                    compute: p.compute,
                    mem_stall: p.sync_stall + p.async_stall,
                    runtime: p.runtime,
                }
            })
            .collect();
        let index: std::collections::HashMap<(u64, u64), usize> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| ((s.job, s.task), i))
            .collect();
        let edges = self
            .edges
            .iter()
            .filter_map(|&(j, a, b)| {
                Some((
                    *index.get(&(j.0, a.0 as u64))?,
                    *index.get(&(j.0, b.0 as u64))?,
                ))
            })
            .collect();
        (spans, edges)
    }

    /// The top-`k` heaviest dependent chains of this run, with per-layer
    /// attribution — returns `(spans, paths)` so the paths can be
    /// rendered against their spans.
    pub fn critical_paths(
        &self,
        k: usize,
    ) -> (Vec<disagg_obs::TaskSpan>, Vec<disagg_obs::CriticalPath>) {
        let (spans, edges) = self.task_spans();
        let paths = disagg_obs::critical_paths(&spans, &edges, k);
        (spans, paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_dataflow::{JobBuilder, TaskSpec};
    use disagg_hwsim::compute::WorkClass;
    use disagg_hwsim::device::AccessPattern;
    use disagg_hwsim::presets::single_server;
    use crate::{Runtime, RuntimeConfig};

    fn run_mixed() -> RunReport {
        let (topo, ids) = single_server();
        let far = ids.far;
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let mut job = JobBuilder::new("profiled");
        job.task(
            TaskSpec::new("compute-bound")
                .work(WorkClass::Scalar, 1_000_000)
                .body(|ctx| {
                    ctx.compute(WorkClass::Scalar, 1_000_000);
                    Ok(())
                }),
        );
        job.task(TaskSpec::new("memory-bound").body(move |ctx| {
            let props = disagg_region::props::PropertySet::new()
                .with_mode(disagg_region::props::AccessMode::Async);
            let _ = far;
            let r = ctx.alloc(
                disagg_region::typed::RegionType::GlobalScratch,
                props,
                1 << 20,
            )?;
            let mut buf = vec![0u8; 1 << 20];
            // Force a far placement by reading something big through the
            // sync interface on whatever device the runtime picked; the
            // stall shows up either way.
            ctx.acc.read(r, 0, &mut buf, AccessPattern::Random)?;
            Ok(())
        }));
        rt.execute(job.build().unwrap()).unwrap()
    }

    #[test]
    fn layers_sum_to_the_total() {
        let report = run_mixed();
        for t in report.profile().tasks {
            let sum = t.compute + t.sync_stall + t.async_stall + t.runtime;
            assert_eq!(sum, t.total, "{}: layers must partition the total", t.name);
        }
    }

    #[test]
    fn the_profiler_points_at_the_memory_bound_task() {
        let report = run_mixed();
        let profile = report.profile();
        let worst = profile.most_memory_bound().expect("tasks ran");
        assert_eq!(worst.name, "memory-bound");
        assert!(worst.memory_fraction() > 0.5, "{}", worst.memory_fraction());

        let cb = profile
            .tasks
            .iter()
            .find(|t| t.name == "compute-bound")
            .unwrap();
        assert!(cb.compute_fraction() > 0.8, "{}", cb.compute_fraction());
    }

    #[test]
    fn render_contains_every_task_and_a_total() {
        let report = run_mixed();
        let text = report.profile().render();
        assert!(text.contains("compute-bound"));
        assert!(text.contains("memory-bound"));
        assert!(text.contains("TOTAL"));
    }
}
