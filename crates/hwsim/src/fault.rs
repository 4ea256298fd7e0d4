//! Deterministic fault injection.
//!
//! The paper's Challenge 8(3) asks how the runtime mitigates "network
//! errors, corrupted memory, and planned and unplanned node faults". The
//! [`FaultInjector`] holds a pre-planned, time-ordered schedule of fault
//! events; the runtime and the fault-tolerance layer query it at simulated
//! times. Because the schedule is data, every failure experiment is
//! reproducible.

use crate::ids::{LinkId, MemDeviceId, NodeId};
use crate::time::SimTime;

/// What kind of fault occurs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A whole node (and all devices on it) stops responding.
    NodeCrash(NodeId),
    /// A previously crashed node comes back (contents of volatile devices
    /// are lost; persistent devices retain data).
    NodeRecover(NodeId),
    /// A single memory device fails (until a later [`FaultKind::DeviceRecover`]).
    DeviceFail(MemDeviceId),
    /// A previously failed memory device is serviced and comes back
    /// empty (contents were lost with the failure).
    DeviceRecover(MemDeviceId),
    /// A link goes down (until a later [`FaultKind::LinkUp`]).
    LinkDown(LinkId),
    /// A previously down or degraded link returns to full health.
    LinkUp(LinkId),
    /// A link keeps carrying traffic but at a fraction of its nominal
    /// bandwidth (flaky optics, a failed lane, congestion collapse)
    /// until the next [`FaultKind::LinkUp`]. The factor is fixed-point
    /// so fault schedules stay `Eq`/hashable.
    LinkDegraded {
        /// The affected link.
        link: LinkId,
        /// Remaining bandwidth in percent of nominal (e.g. 25 = quarter
        /// speed). Clamped to at least 1% when queried.
        factor_pct: u32,
    },
    /// A range of bytes on a device is silently corrupted.
    Corrupt {
        /// The affected device.
        dev: MemDeviceId,
        /// First corrupted byte offset within the device.
        offset: u64,
        /// Number of corrupted bytes.
        len: u64,
    },
}

/// A fault scheduled at a point in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-ordered fault schedule with point-in-time liveness queries.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
}

impl FaultInjector {
    /// An injector with no faults.
    pub fn none() -> Self {
        FaultInjector::default()
    }

    /// Builds an injector from a list of events (sorted internally).
    pub fn with_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultInjector { events }
    }

    /// Schedules one more event.
    pub fn schedule(&mut self, at: SimTime, kind: FaultKind) {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, FaultEvent { at, kind });
    }

    /// All events, time-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if no faults are scheduled at all. The runtime uses this to
    /// skip every per-access fault query on the (common) calm path.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// True if `node` is down at time `t` (crashed without a later
    /// recovery at or before `t`).
    pub fn node_down(&self, node: NodeId, t: SimTime) -> bool {
        let mut down = false;
        for e in &self.events {
            if e.at > t {
                break;
            }
            match e.kind {
                FaultKind::NodeCrash(n) if n == node => down = true,
                FaultKind::NodeRecover(n) if n == node => down = false,
                _ => {}
            }
        }
        down
    }

    /// True if `dev` is failed at time `t` (failed without a later
    /// recovery at or before `t`).
    pub fn device_failed(&self, dev: MemDeviceId, t: SimTime) -> bool {
        let mut failed = false;
        for e in &self.events {
            if e.at > t {
                break;
            }
            match e.kind {
                FaultKind::DeviceFail(d) if d == dev => failed = true,
                FaultKind::DeviceRecover(d) if d == dev => failed = false,
                _ => {}
            }
        }
        failed
    }

    /// The bandwidth multiplier in effect on `link` at time `t`: 1.0
    /// when healthy, `factor_pct / 100` while degraded. A
    /// [`FaultKind::LinkUp`] restores full bandwidth. Going down and
    /// back up also clears any degradation.
    pub fn link_degradation(&self, link: LinkId, t: SimTime) -> f64 {
        let mut factor = 1.0f64;
        for e in &self.events {
            if e.at > t {
                break;
            }
            match e.kind {
                FaultKind::LinkDegraded { link: l, factor_pct } if l == link => {
                    factor = f64::from(factor_pct.clamp(1, 100)) / 100.0;
                }
                FaultKind::LinkUp(l) if l == link => factor = 1.0,
                _ => {}
            }
        }
        factor
    }

    /// Returns the corrupted byte ranges on `dev` visible at time `t`.
    pub fn corrupted_ranges(&self, dev: MemDeviceId, t: SimTime) -> Vec<(u64, u64)> {
        self.events
            .iter()
            .take_while(|e| e.at <= t)
            .filter_map(|e| match e.kind {
                FaultKind::Corrupt { dev: d, offset, len } if d == dev => Some((offset, len)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_means_everything_up() {
        let inj = FaultInjector::none();
        assert!(!inj.node_down(NodeId(0), SimTime(1_000)));
        assert!(!inj.device_failed(MemDeviceId(0), SimTime(1_000)));
        assert_eq!(inj.link_degradation(LinkId(0), SimTime(1_000)), 1.0);
    }

    #[test]
    fn crash_takes_effect_at_its_time() {
        let inj = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(500),
            kind: FaultKind::NodeCrash(NodeId(1)),
        }]);
        assert!(!inj.node_down(NodeId(1), SimTime(499)));
        assert!(inj.node_down(NodeId(1), SimTime(500)));
        assert!(inj.node_down(NodeId(1), SimTime(10_000)));
        assert!(!inj.node_down(NodeId(0), SimTime(10_000)));
    }

    #[test]
    fn recovery_clears_a_crash() {
        let inj = FaultInjector::with_events(vec![
            FaultEvent {
                at: SimTime(500),
                kind: FaultKind::NodeCrash(NodeId(1)),
            },
            FaultEvent {
                at: SimTime(900),
                kind: FaultKind::NodeRecover(NodeId(1)),
            },
        ]);
        assert!(inj.node_down(NodeId(1), SimTime(700)));
        assert!(!inj.node_down(NodeId(1), SimTime(900)));
    }

    #[test]
    fn events_are_sorted_regardless_of_insertion_order() {
        let mut inj = FaultInjector::none();
        assert!(inj.is_empty());
        inj.schedule(SimTime(900), FaultKind::DeviceFail(MemDeviceId(2)));
        inj.schedule(SimTime(100), FaultKind::LinkDown(LinkId(0)));
        inj.schedule(SimTime(500), FaultKind::NodeCrash(NodeId(0)));
        let times: Vec<u64> = inj.events().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(times, vec![100, 500, 900]);
        assert!(!inj.is_empty());
    }

    #[test]
    fn corruption_ranges_accumulate() {
        let inj = FaultInjector::with_events(vec![
            FaultEvent {
                at: SimTime(10),
                kind: FaultKind::Corrupt {
                    dev: MemDeviceId(0),
                    offset: 0,
                    len: 64,
                },
            },
            FaultEvent {
                at: SimTime(20),
                kind: FaultKind::Corrupt {
                    dev: MemDeviceId(0),
                    offset: 128,
                    len: 64,
                },
            },
        ]);
        assert_eq!(inj.corrupted_ranges(MemDeviceId(0), SimTime(15)).len(), 1);
        assert_eq!(inj.corrupted_ranges(MemDeviceId(0), SimTime(25)).len(), 2);
        assert!(inj.corrupted_ranges(MemDeviceId(1), SimTime(25)).is_empty());
    }

    #[test]
    fn device_recovery_clears_a_failure() {
        let inj = FaultInjector::with_events(vec![
            FaultEvent {
                at: SimTime(100),
                kind: FaultKind::DeviceFail(MemDeviceId(2)),
            },
            FaultEvent {
                at: SimTime(400),
                kind: FaultKind::DeviceRecover(MemDeviceId(2)),
            },
        ]);
        assert!(!inj.device_failed(MemDeviceId(2), SimTime(99)));
        assert!(inj.device_failed(MemDeviceId(2), SimTime(100)));
        assert!(inj.device_failed(MemDeviceId(2), SimTime(399)));
        assert!(!inj.device_failed(MemDeviceId(2), SimTime(400)));
        assert!(!inj.device_failed(MemDeviceId(3), SimTime(200)));
    }

    #[test]
    fn link_up_clears_down_and_degradation() {
        let inj = FaultInjector::with_events(vec![
            FaultEvent {
                at: SimTime(10),
                kind: FaultKind::LinkDown(LinkId(5)),
            },
            FaultEvent {
                at: SimTime(20),
                kind: FaultKind::LinkUp(LinkId(5)),
            },
            FaultEvent {
                at: SimTime(30),
                kind: FaultKind::LinkDegraded { link: LinkId(5), factor_pct: 25 },
            },
            FaultEvent {
                at: SimTime(40),
                kind: FaultKind::LinkUp(LinkId(5)),
            },
        ]);
        assert_eq!(inj.link_degradation(LinkId(5), SimTime(25)), 1.0);
        assert_eq!(inj.link_degradation(LinkId(5), SimTime(35)), 0.25);
        assert_eq!(inj.link_degradation(LinkId(5), SimTime(40)), 1.0);
        assert_eq!(inj.link_degradation(LinkId(6), SimTime(35)), 1.0);
    }

    #[test]
    fn degradation_factor_is_clamped_to_a_sane_range() {
        let inj = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(0),
            kind: FaultKind::LinkDegraded { link: LinkId(0), factor_pct: 0 },
        }]);
        assert_eq!(inj.link_degradation(LinkId(0), SimTime(1)), 0.01);
    }
}
