//! Per-tenant memory-quota admission: the one admission barrier above
//! the executor, and the one home of the charge it levies.
//!
//! The serving layer decides admission *before* handing an epoch's jobs
//! to the executor. Each request is charged its job's
//! [`predicted_footprint`] against its tenant's quota, for as long as a
//! calibrated per-template service-time estimate says it runs.
//! Decisions are therefore causal (made in arrival order, from
//! information available at the arrival instant) — a rejected request
//! is rejected identically on every execution.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use disagg_dataflow::job::JobSpec;
use disagg_hwsim::time::{SimDuration, SimTime};

/// Predicted memory footprint of a job: every declared region — scratch,
/// outputs and global state — all assumed live at once. It has no term
/// for the copies a handover makes, nor for a task body's own
/// allocations.
pub fn predicted_footprint(spec: &JobSpec) -> u64 {
    spec.global_state_bytes
        + spec
            .tasks
            .iter()
            .map(|t| t.private_scratch + t.output_bytes + t.global_scratch)
            .sum::<u64>()
}

/// Tracks each tenant's outstanding (admitted but not yet estimated to
/// have finished) memory footprint against the one per-tenant quota.
#[derive(Debug)]
pub struct QuotaTracker {
    /// Every tenant's quota in bytes (`u64::MAX` = unlimited).
    quota: u64,
    /// Per-tenant outstanding predicted bytes.
    outstanding: Vec<u64>,
    /// Per-tenant count of in-flight admitted requests — the queue-depth
    /// signal deadline shedding reads.
    depth: Vec<usize>,
    /// Admitted requests still in flight: (estimated finish, tenant,
    /// bytes), popped as the arrival clock passes their finish.
    inflight: BinaryHeap<Reverse<(SimTime, usize, u64)>>,
}

impl QuotaTracker {
    /// A tracker for `tenants` tenants, each held to `quota` bytes
    /// (`None` = unlimited).
    pub fn new(tenants: usize, quota: Option<u64>) -> QuotaTracker {
        QuotaTracker {
            quota: quota.unwrap_or(u64::MAX),
            outstanding: vec![0; tenants],
            depth: vec![0; tenants],
            inflight: BinaryHeap::new(),
        }
    }

    /// Releases every in-flight request whose estimated finish is at or
    /// before `now`.
    pub fn release_until(&mut self, now: SimTime) {
        while let Some(&Reverse((finish, tenant, bytes))) = self.inflight.peek() {
            if finish > now {
                break;
            }
            self.inflight.pop();
            self.outstanding[tenant] = self.outstanding[tenant].saturating_sub(bytes);
            self.depth[tenant] = self.depth[tenant].saturating_sub(1);
        }
    }

    /// Admits or rejects a request arriving at `now`: admitted when the
    /// tenant's outstanding bytes plus this request stay within quota.
    /// On admission the request occupies the tenant's quota until
    /// `now + est_service`.
    pub fn admit(
        &mut self,
        tenant: usize,
        bytes: u64,
        now: SimTime,
        est_service: SimDuration,
    ) -> bool {
        self.release_until(now);
        let used = self.outstanding[tenant];
        if used.saturating_add(bytes) > self.quota {
            return false;
        }
        self.outstanding[tenant] = used + bytes;
        self.depth[tenant] += 1;
        self.inflight.push(Reverse((now + est_service, tenant, bytes)));
        true
    }

    /// A tenant's currently outstanding predicted bytes.
    pub fn outstanding(&self, tenant: usize) -> u64 {
        self.outstanding.get(tenant).copied().unwrap_or(0)
    }

    /// A tenant's current in-flight request count (admitted, not yet
    /// past its estimated finish). Call [`Self::release_until`] first to
    /// read the depth as of a given instant.
    pub fn inflight(&self, tenant: usize) -> usize {
        self.depth.get(tenant).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_rejects_over_budget_and_releases_on_finish() {
        let mut q = QuotaTracker::new(2, Some(100));
        let t0 = SimTime::ZERO;
        let svc = SimDuration::from_micros(10);
        assert!(q.admit(0, 60, t0, svc));
        assert!(!q.admit(0, 60, t0, svc), "second 60B request overflows tenant 0");
        assert!(q.admit(1, 60, t0, svc), "tenant 1 has its own budget");
        assert_eq!(q.outstanding(1), 60);
        // After the first requests' estimated finish, quota frees up.
        let later = t0 + SimDuration::from_micros(11);
        assert!(q.admit(0, 60, later, svc));
        assert_eq!(q.outstanding(1), 0, "tenant 1's request also finished by then");
    }

    #[test]
    fn unlimited_quota_admits_everything() {
        let mut q = QuotaTracker::new(1, None);
        let t0 = SimTime::ZERO;
        for i in 0..32 {
            assert!(q.admit(0, u64::MAX / 64, t0, SimDuration::from_nanos(i)));
        }
    }

    #[test]
    fn inflight_depth_tracks_admissions_and_releases() {
        let mut q = QuotaTracker::new(2, None);
        let svc = SimDuration::from_micros(10);
        assert_eq!(q.inflight(0), 0);
        assert!(q.admit(0, 10, SimTime::ZERO, svc));
        assert!(q.admit(0, 10, SimTime(1), svc));
        assert!(q.admit(1, 10, SimTime(2), svc));
        assert_eq!(q.inflight(0), 2);
        assert_eq!(q.inflight(1), 1);
        q.release_until(SimTime(10_000));
        assert_eq!(q.inflight(0), 1, "first request past its estimated finish");
        q.release_until(SimTime(20_000));
        assert_eq!(q.inflight(0), 0);
        assert_eq!(q.inflight(1), 0);
    }
}
