//! Runtime configuration.

use disagg_hwsim::fault::FaultInjector;
use disagg_hwsim::time::SimDuration;
use disagg_obs::ObserverSlot;
use disagg_sched::cost::TopologyAwareness;
use disagg_sched::placement::PlacementPolicy;
use disagg_sched::schedule::SchedPolicy;

/// How a finished task's output reaches its successors (§2.3, Figure 4;
/// the E7 ablation switch). Either way the executor's handover copies
/// whatever a transfer cannot serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HandoverPolicy {
    /// Transfer ownership whenever the consumer can address the memory.
    #[default]
    TransferWhenPossible,
    /// Always copy (models systems without a shared address space).
    AlwaysCopy,
}

/// How the runtime detects and recovers from mid-task faults
/// (Challenge 8(3)). All delays are virtual time, so recovery behavior
/// is as reproducible as the fault schedule itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// How many times one task may be re-placed after being interrupted
    /// before the run surfaces [`crate::DisaggError::RetriesExhausted`]
    /// (a request-tagged job fails alone instead).
    /// The default (3) bounds the work a flapping node can waste.
    pub max_retries: u32,
    /// Virtual time between a fault striking and the runtime noticing
    /// it (failure detectors are not instant: lease expiry, missed
    /// heartbeats). Zero models an oracle detector.
    pub detection_delay: SimDuration,
    /// Base relaunch backoff. Attempt `n` (1-based) waits
    /// `backoff * 2^(n-1)` after detection before the task restarts
    /// elsewhere, so repeated failures of the same task back off
    /// exponentially.
    pub backoff: SimDuration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            detection_delay: SimDuration::ZERO,
            backoff: SimDuration::ZERO,
        }
    }
}

impl RecoveryPolicy {
    /// Sets the per-task retry cap.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Sets the fault-detection delay.
    pub fn with_detection_delay(mut self, d: SimDuration) -> Self {
        self.detection_delay = d;
        self
    }

    /// Sets the base relaunch backoff (doubled per attempt).
    pub fn with_backoff(mut self, d: SimDuration) -> Self {
        self.backoff = d;
        self
    }

    /// The relaunch delay after the fault is detected, for 1-based
    /// attempt `n`: `backoff * 2^(n-1)`.
    ///
    /// # Contract: saturation vs. exhaustion
    ///
    /// This is *pure arithmetic* — it does not know or enforce
    /// [`max_retries`](Self::max_retries). Two distinct behaviors meet
    /// here and must not be confused:
    ///
    /// - **Saturation** (this function): once `backoff * 2^(n-1)`
    ///   overflows, the result pins at `u64::MAX` nanoseconds; and a
    ///   zero base backoff stays zero at
    ///   *every* attempt — doubling zero is still zero, not an error.
    ///   Callers asking for attempt 7 of a policy whose cap is 3 get a
    ///   well-defined delay, not a panic.
    /// - **Exhaustion** is the *caller's* check, made *before* asking
    ///   for a delay: the executor compares the attempt count against
    ///   `max_retries` and surfaces
    ///   [`crate::DisaggError::RetriesExhausted`] (a request-tagged job
    ///   fails alone instead, [`crate::RunReport::failed_jobs`]) rather
    ///   than scheduling another relaunch.
    ///
    /// Use [`exhausted`](Self::exhausted) to ask the policy directly.
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        let factor = 1u64.checked_shl(attempt.saturating_sub(1)).unwrap_or(u64::MAX);
        SimDuration(self.backoff.0.saturating_mul(factor))
    }

    /// True when 1-based attempt `n` exceeds the retry cap — the
    /// explicit exhaustion check `backoff_for` deliberately does not
    /// perform (see its contract note).
    pub fn exhausted(&self, attempt: u32) -> bool {
        attempt > self.max_retries
    }
}

/// Configuration for a [`crate::Runtime`].
///
/// The defaults are the paper's vision: declarative placement, HEFT
/// scheduling, ownership-transfer handover, topology-aware costs. Every
/// knob exists so an experiment can switch one ingredient to a baseline
/// and measure the difference; each field names the experiment
/// (`exp_driver --only <id>`), benchmark workload or example that does.
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfig {
    /// How declarative memory requests are resolved to devices.
    /// Switched by `ingredients`, `fig1`, `naive` and `serving`
    /// (compute-centric, worst-feasible and first-fit baselines).
    pub placement: PlacementPolicy,
    /// How tasks are assigned to compute devices. Switched by
    /// `ingredients` (round-robin).
    pub sched: SchedPolicy,
    /// How outputs reach successors (transfer vs copy). Switched by
    /// `fig4`, `ingredients` and every compute-centric baseline.
    pub handover: HandoverPolicy,
    /// Cost-model topology awareness. Switched by `ingredients`.
    pub awareness: TopologyAwareness,
    /// Record a full event trace (costs memory on big runs). On in
    /// almost every experiment; off in the benchmark's `batch_dag`.
    /// The report's aggregates read the same either way.
    pub trace: bool,
    /// Streaming event sink: sees every trace event at emission time,
    /// independent of whether `trace` buffers them. The default is the
    /// null slot — no tap is installed and observability costs nothing.
    /// Attached by the benchmark's `batch_dag` observer probe.
    pub observer: ObserverSlot,
    /// Injected faults for this run. Set by `chaos`, `serving`'s
    /// faulted rows, the benchmark's `apps_chaos` and `examples/far_memory_resilience`.
    pub faults: FaultInjector,
    /// How mid-task faults are detected and retried. Set wherever
    /// `faults` is.
    pub recovery: RecoveryPolicy,
}

impl RuntimeConfig {
    /// The paper's configuration with tracing enabled (what examples and
    /// experiments usually want).
    pub fn traced() -> Self {
        RuntimeConfig {
            trace: true,
            ..RuntimeConfig::default()
        }
    }

    /// The compute-centric baseline of Figure 1a: explicit local
    /// placement, copy-based handover.
    pub fn compute_centric() -> Self {
        RuntimeConfig {
            placement: PlacementPolicy::ComputeCentric,
            handover: HandoverPolicy::AlwaysCopy,
            trace: true,
            ..RuntimeConfig::default()
        }
    }

    /// Sets the placement policy.
    pub fn with_placement(mut self, p: PlacementPolicy) -> Self {
        self.placement = p;
        self
    }

    /// Sets the scheduling policy.
    pub fn with_sched(mut self, s: SchedPolicy) -> Self {
        self.sched = s;
        self
    }

    /// Sets the handover policy.
    pub fn with_handover(mut self, h: HandoverPolicy) -> Self {
        self.handover = h;
        self
    }

    /// Attaches a streaming observer (use [`ObserverSlot::shared`] to
    /// keep a handle for reading results back after the run).
    pub fn with_observer(mut self, o: ObserverSlot) -> Self {
        self.observer = o;
        self
    }

    /// Sets the fault plan.
    pub fn with_faults(mut self, f: FaultInjector) -> Self {
        self.faults = f;
        self
    }

    /// Sets the failure-recovery policy.
    pub fn with_recovery(mut self, r: RecoveryPolicy) -> Self {
        self.recovery = r;
        self
    }

    /// Sets cost-model topology awareness.
    pub fn with_awareness(mut self, a: TopologyAwareness) -> Self {
        self.awareness = a;
        self
    }

    /// Ignored: the executor has exactly one event loop. The sharded
    /// loop this used to select was deleted after it measured 3.7–7.0×
    /// slower at 2 shards (DESIGN.md §11). The method remains, inert,
    /// only because `benchmark/` (frozen for the PR that removed the
    /// loop) still calls it for its `core.shards2_over_shards1_host`
    /// probe, which now reads ≈ 1.0; the `benchmark` PR that retires
    /// that probe removes this method with it.
    pub fn with_shards(self, _n: usize) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_vision() {
        let c = RuntimeConfig::default();
        assert_eq!(c.placement, PlacementPolicy::Declarative);
        assert_eq!(c.sched, SchedPolicy::Heft);
        assert_eq!(c.handover, HandoverPolicy::TransferWhenPossible);
        assert!(!c.trace);
    }

    #[test]
    fn compute_centric_flips_the_baseline_knobs() {
        let c = RuntimeConfig::compute_centric();
        assert_eq!(c.placement, PlacementPolicy::ComputeCentric);
        assert_eq!(c.handover, HandoverPolicy::AlwaysCopy);
    }

    #[test]
    fn builder_methods_compose() {
        let c = RuntimeConfig::traced()
            .with_placement(PlacementPolicy::WorstFeasible)
            .with_sched(SchedPolicy::RoundRobin)
            .with_handover(HandoverPolicy::AlwaysCopy);
        assert!(c.trace);
        assert_eq!(c.placement, PlacementPolicy::WorstFeasible);
        assert_eq!(c.sched, SchedPolicy::RoundRobin);
    }

    #[test]
    fn recovery_policy_backoff_is_exponential() {
        let p = RecoveryPolicy::default()
            .with_max_retries(5)
            .with_detection_delay(SimDuration(100))
            .with_backoff(SimDuration(1_000));
        assert_eq!(p.max_retries, 5);
        assert_eq!(p.backoff_for(1), SimDuration(1_000));
        assert_eq!(p.backoff_for(2), SimDuration(2_000));
        assert_eq!(p.backoff_for(4), SimDuration(8_000));
        // Zero backoff stays zero at any attempt: saturation, not an
        // exhaustion signal (backoff_for's documented contract).
        assert_eq!(RecoveryPolicy::default().backoff_for(7), SimDuration::ZERO);
        let c = RuntimeConfig::traced().with_recovery(p);
        assert_eq!(c.recovery.max_retries, 5);
    }

    #[test]
    fn backoff_saturates_and_exhaustion_is_a_separate_check() {
        let p = RecoveryPolicy::default()
            .with_max_retries(3)
            .with_backoff(SimDuration(1_000));
        // Saturation: a nonzero base pins at u64::MAX past the shift
        // width instead of wrapping — still a valid delay, not an error.
        assert_eq!(p.backoff_for(100), SimDuration(u64::MAX));
        // ... and the shift itself saturates before the multiply does.
        assert_eq!(p.backoff_for(64), SimDuration(u64::MAX));
        // Exhaustion is asked explicitly, independent of the delay math.
        assert!(!p.exhausted(3));
        assert!(p.exhausted(4));
        assert!(p.exhausted(100));
    }
}
