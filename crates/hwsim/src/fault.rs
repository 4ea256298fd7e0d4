//! Deterministic fault injection.
//!
//! The paper's Challenge 8(3) asks how the runtime mitigates "network
//! errors, corrupted memory, and planned and unplanned node faults". The
//! [`FaultInjector`] holds a pre-planned, time-ordered schedule of fault
//! events; the runtime and the fault-tolerance layer query it at simulated
//! times. Because the schedule is data, every failure experiment is
//! reproducible.

use crate::ids::{ComputeId, LinkId, MemDeviceId, NodeId};
use crate::time::SimTime;
use crate::topology::Topology;

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

/// What a liveness query ([`FaultInjector::usable`]) asks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A compute device: usable while its node is up.
    Compute(ComputeId),
    /// A memory device, as reached from the compute device `from` — the
    /// one that would use it — or in itself when `from` is `None`.
    Mem {
        /// The memory device.
        dev: MemDeviceId,
        /// The compute device whose path to `dev` must be up, if any.
        from: Option<ComputeId>,
    },
}

/// A time-ordered fault schedule with point-in-time liveness queries.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
}

impl FaultInjector {
    /// An injector with no faults.
    pub const fn none() -> Self {
        FaultInjector { events: Vec::new() }
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

    /// True if `target` can be used at `t`: its node is up and, for a
    /// memory device, the device has not failed and the bottleneck link
    /// of the path from `from` (when given) is not down. Each condition
    /// holds from its fault event until the matching recovery
    /// (`NodeRecover`, `DeviceRecover`, `LinkUp`) at or before `t`. This
    /// is the one liveness rule: placement, dispatch, healing and the
    /// fault-tolerance layer all ask it. An empty plan answers `true`
    /// without looking at the topology.
    pub fn usable(&self, topo: &Topology, target: Target, t: SimTime) -> bool {
        if self.events.is_empty() {
            return true;
        }
        let (node, dev, link) = match target {
            Target::Compute(c) => (topo.node_of_compute(c), None, None),
            Target::Mem { dev, from } => (
                topo.node_of_mem(dev),
                Some(dev),
                from.and_then(|c| topo.path(c, dev)?.bottleneck_link),
            ),
        };
        let (mut node_down, mut failed, mut link_down) = (false, false, false);
        for e in &self.events {
            if e.at > t {
                break;
            }
            match e.kind {
                FaultKind::NodeCrash(n) if n == node => node_down = true,
                FaultKind::NodeRecover(n) if n == node => node_down = false,
                FaultKind::DeviceFail(d) if Some(d) == dev => failed = true,
                FaultKind::DeviceRecover(d) if Some(d) == dev => failed = false,
                FaultKind::LinkDown(l) if Some(l) == link => link_down = true,
                FaultKind::LinkUp(l) if Some(l) == link => link_down = false,
                _ => {}
            }
        }
        !(node_down || failed || link_down)
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
    use crate::presets::{disaggregated_rack, Rack};

    /// Two servers and two memory blades.
    fn rack() -> (Topology, Rack) {
        disaggregated_rack(2, 32, 2, 64)
    }

    fn event(at: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent { at: SimTime(at), kind }
    }

    #[test]
    fn no_faults_means_everything_up() {
        let (topo, rack) = rack();
        let inj = FaultInjector::none();
        assert!(inj.usable(&topo, Target::Compute(rack.cpus[0]), SimTime(1_000)));
        let blade = Target::Mem { dev: rack.pool[0], from: Some(rack.cpus[0]) };
        assert!(inj.usable(&topo, blade, SimTime(1_000)));
        assert_eq!(inj.link_degradation(LinkId(0), SimTime(1_000)), 1.0);
    }

    #[test]
    fn crash_takes_effect_at_its_time() {
        let (topo, rack) = rack();
        let inj = FaultInjector::with_events(vec![event(500, FaultKind::NodeCrash(rack.nodes[1]))]);
        let cpu1 = Target::Compute(rack.cpus[1]);
        assert!(inj.usable(&topo, cpu1, SimTime(499)));
        assert!(!inj.usable(&topo, cpu1, SimTime(500)));
        assert!(!inj.usable(&topo, cpu1, SimTime(10_000)));
        assert!(inj.usable(&topo, Target::Compute(rack.cpus[0]), SimTime(10_000)));
    }

    #[test]
    fn recovery_clears_a_crash() {
        let (topo, rack) = rack();
        let inj = FaultInjector::with_events(vec![
            event(500, FaultKind::NodeCrash(rack.nodes[1])),
            event(900, FaultKind::NodeRecover(rack.nodes[1])),
        ]);
        let cpu1 = Target::Compute(rack.cpus[1]);
        assert!(!inj.usable(&topo, cpu1, SimTime(700)));
        assert!(inj.usable(&topo, cpu1, SimTime(900)));
    }

    #[test]
    fn usable_covers_the_device_its_node_and_the_path_from_the_compute() {
        let (topo, rack) = rack();
        let (cpu0, cpu1) = (rack.cpus[0], rack.cpus[1]);
        let (dram0, blade0) = (rack.drams[0], rack.pool[0]);
        let on = topo.path(cpu0, blade0).unwrap().bottleneck_link.expect("a remote path");
        let off = topo.path(cpu1, blade0).unwrap().bottleneck_link.expect("a remote path");
        assert_ne!(on, off, "each server reaches the blade over its own link");
        let inj = FaultInjector::with_events(vec![
            // The device fails and is serviced.
            event(100, FaultKind::DeviceFail(blade0)),
            event(200, FaultKind::DeviceRecover(blade0)),
            // Its node crashes and recovers.
            event(300, FaultKind::NodeCrash(topo.node_of_mem(blade0))),
            event(400, FaultKind::NodeRecover(topo.node_of_mem(blade0))),
            // The bottleneck link of cpu0's path goes down and comes up.
            event(500, FaultKind::LinkDown(on)),
            event(600, FaultKind::LinkUp(on)),
            // A link off that path goes down for good.
            event(700, FaultKind::LinkDown(off)),
        ]);
        let from0 = Target::Mem { dev: blade0, from: Some(cpu0) };
        let itself = Target::Mem { dev: blade0, from: None };
        let usable = |target, t| inj.usable(&topo, target, SimTime(t));
        let times = [50, 100, 199, 200, 300, 399, 400, 500, 599, 600, 700];
        let timeline: Vec<(u64, bool, bool)> =
            times.into_iter().map(|t| (t, usable(from0, t), usable(itself, t))).collect();
        assert_eq!(
            timeline,
            [
                (50, true, true),
                (100, false, false),
                (199, false, false),
                (200, true, true),
                (300, false, false),
                (399, false, false),
                (400, true, true),
                // A down link on the path cuts cpu0 off; the device itself
                // is fine.
                (500, false, true),
                (599, false, true),
                (600, true, true),
                // A down link off the path changes nothing for cpu0.
                (700, true, true),
            ]
        );
        // A failed blade leaves the rest of its node usable.
        assert!(usable(Target::Mem { dev: rack.pool[1], from: Some(cpu0) }, 150));
        // The off-path link is cpu1's bottleneck: it cannot use the blade.
        assert!(!usable(Target::Mem { dev: blade0, from: Some(cpu1) }, 700));
        // The crashed memory blade hosts no compute, and server 0's DRAM
        // and CPU never went down.
        assert!(usable(Target::Mem { dev: dram0, from: Some(cpu0) }, 350));
        assert!(usable(Target::Compute(cpu0), 350));
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
        let (topo, rack) = rack();
        let inj = FaultInjector::with_events(vec![
            event(100, FaultKind::DeviceFail(rack.pool[0])),
            event(400, FaultKind::DeviceRecover(rack.pool[0])),
        ]);
        let dev = |dev| Target::Mem { dev, from: None };
        assert!(inj.usable(&topo, dev(rack.pool[0]), SimTime(99)));
        assert!(!inj.usable(&topo, dev(rack.pool[0]), SimTime(100)));
        assert!(!inj.usable(&topo, dev(rack.pool[0]), SimTime(399)));
        assert!(inj.usable(&topo, dev(rack.pool[0]), SimTime(400)));
        assert!(inj.usable(&topo, dev(rack.pool[1]), SimTime(200)));
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
