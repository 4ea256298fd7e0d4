//! The four workloads. Each is a [`Workload`]: a set-up that runs once
//! per process, and a *pass* — build topology → `Runtime::new` → run →
//! drop, the unit of work a user pays for — that the driver repeats.

pub mod apps_chaos;
pub mod batch_dag;
pub mod serve;

use disagg_core::report::RunReport;
use disagg_dataflow::job::JobId;
use disagg_dataflow::task::TaskSpec;
use disagg_hwsim::compute::WorkClass;

use crate::stats::Fnv;
use crate::tracer::Tracer;

/// How big a run is: the committed sizes, or the `--smoke` sizes that
/// exercise every code path in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// What one pass produced. Everything here is virtual-time or a count,
/// so two passes of one commit at one seed must agree on all of it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassOutcome {
    /// FNV digest of (makespan, events, per-task finish times, verdicts).
    pub digest: u64,
    /// Virtual makespan (apps_chaos: sum over the clean apps).
    pub makespan_ns: u64,
    /// Virtual time the pass's jobs occupied: the makespan, or the sum
    /// of makespans when the pass runs jobs on one runtime after another.
    pub virtual_span_ns: u64,
    /// Executor events processed.
    pub events: u64,
    /// Tasks executed.
    pub tasks: usize,
    /// `RunReport::bytes_moved`, summed over the pass's runs.
    pub bytes_moved: u64,
    /// One entry per offered job or request, in arrival order: its
    /// latency from scheduled arrival to last task finish, `None` when
    /// it was refused, shed or failed fast.
    pub latencies: Vec<Option<u64>>,
    /// Checks attempted (task counts, app outputs, read-back bytes,
    /// span sums).
    pub checks: usize,
    /// The checks that failed, in words.
    pub check_failures: Vec<String>,
    /// Faulty over clean makespan; 1 where no fault is injected.
    pub fault_slowdown: f64,
    /// Per-layer counts and virtual-time figures (`layer.metric`),
    /// exact per seed.
    pub counters: Vec<(&'static str, f64)>,
}

impl PassOutcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.check_failures.push(what());
        }
    }

    #[cfg(test)]
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// One workload, set up for one seed.
pub trait Workload {
    /// One pass. Spans around each library call are recorded when the
    /// tracer is enabled.
    fn pass(&self, t: &mut Tracer) -> Result<PassOutcome, String>;

    /// The fixed latency limit `sim_goodput_share` is judged against;
    /// `None` for a closed batch, which has no deadline.
    fn latency_limit_ns(&self) -> Option<u64>;

    /// Virtual-time work after the timed passes that an end-to-end
    /// metric needs (the `serve_ctrl` rate ladder). Returns the highest
    /// offered rate that held the limit, when the workload has one.
    fn max_rate_in_slo(&self, _t: &mut Tracer) -> Result<Option<f64>, String> {
        Ok(None)
    }

    /// Traced run only: replays the pass's calls into each layer's
    /// public functions and derives the per-layer host metrics.
    fn replay(
        &self,
        first: &PassOutcome,
        t: &mut Tracer,
    ) -> Result<Vec<(&'static str, f64)>, String>;
}

/// A synthetic task that does what it declares: `elems` elements of
/// `class` work, charged in virtual time by its body. (A body-less task
/// costs only its launch overhead, whatever work it declares to the
/// scheduler.)
pub fn worked(name: impl Into<String>, class: WorkClass, elems: u64) -> TaskSpec {
    TaskSpec::new(name).work(class, elems).body(move |ctx| {
        ctx.compute(class, elems);
        Ok(())
    })
}

/// Folds a run report into a digest: makespan, event count, then every
/// task's identity and finish time in completion order.
pub fn digest_report(h: &mut Fnv, report: &RunReport) {
    h.word(report.makespan.as_nanos());
    h.word(report.events);
    h.word(report.tasks.len() as u64);
    for t in &report.tasks {
        h.word(t.job.0);
        h.word(u64::from(t.task.0));
        h.word(t.finish.as_nanos());
    }
}

/// Latest task finish per job, for jobs numbered `base..base + n`.
pub fn job_finish_ns(report: &RunReport, base: JobId, n: usize) -> Vec<u64> {
    let mut finish = vec![0u64; n];
    for t in &report.tasks {
        let j = (t.job.0 - base.0) as usize;
        finish[j] = finish[j].max(t.finish.as_nanos());
    }
    finish
}

/// Seconds per call of `f`, over enough calls to fill `min_calls` and
/// 2 ms, so one-microsecond library calls are timed above clock noise.
pub fn time_per_call(min_calls: usize, mut f: impl FnMut()) -> f64 {
    let t = std::time::Instant::now();
    let mut calls = 0usize;
    while calls < min_calls || t.elapsed().as_micros() < 2_000 {
        f();
        calls += 1;
    }
    t.elapsed().as_secs_f64() / calls as f64
}
