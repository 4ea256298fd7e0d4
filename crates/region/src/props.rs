//! The declarative property vocabulary.
//!
//! The paper's central move: applications stop naming memory devices and
//! instead *describe* the memory they need — "low latency from where I
//! run", "persistent", "coherently shareable", "confidential". A
//! [`PropertySet`] is such a description. The runtime system resolves it
//! against the physical topology; [`PropertySet::satisfied_by`] is the
//! feasibility check the placement optimizer builds on.

use disagg_hwsim::device::{AccessOp, AccessPattern, MemDeviceModel};
use disagg_hwsim::topology::PathCost;

/// Latency requirement classes, evaluated against the *achieved* access
/// latency (device + interconnect path) from the executing compute device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LatencyClass {
    /// Near memory: ≤ 200 ns per access (DRAM/HBM/cache territory).
    Low,
    /// ≤ 1 µs per access (PMem, CXL, NUMA-remote).
    Medium,
    /// ≤ 100 µs per access (far memory, fast NVMe).
    High,
    /// No latency requirement.
    #[default]
    Any,
}

impl LatencyClass {
    /// The inclusive upper bound in nanoseconds, if any.
    pub fn max_ns(self) -> Option<f64> {
        match self {
            LatencyClass::Low => Some(200.0),
            LatencyClass::Medium => Some(1_000.0),
            LatencyClass::High => Some(100_000.0),
            LatencyClass::Any => None,
        }
    }

    /// Name for reports.
    pub fn name(self) -> &'static str {
        match self {
            LatencyClass::Low => "low",
            LatencyClass::Medium => "medium",
            LatencyClass::High => "high",
            LatencyClass::Any => "any",
        }
    }
}

/// Bandwidth requirement classes, evaluated against the achievable
/// sequential bandwidth (bottleneck of device and path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BandwidthClass {
    /// ≥ 100 GB/s (HBM/GDDR/DRAM).
    High,
    /// ≥ 10 GB/s (CXL, far memory, PMem reads).
    Medium,
    /// ≥ 1 GB/s (NVMe).
    Low,
    /// No bandwidth requirement.
    #[default]
    Any,
}

impl BandwidthClass {
    /// The inclusive lower bound in bytes/ns, if any.
    pub fn min_bpns(self) -> Option<f64> {
        match self {
            BandwidthClass::High => Some(100.0),
            BandwidthClass::Medium => Some(10.0),
            BandwidthClass::Low => Some(1.0),
            BandwidthClass::Any => None,
        }
    }

    /// Name for reports.
    pub fn name(self) -> &'static str {
        match self {
            BandwidthClass::High => "high",
            BandwidthClass::Medium => "medium",
            BandwidthClass::Low => "low",
            BandwidthClass::Any => "any",
        }
    }
}

/// Which access interface the task intends to use (the paper's §2.2(3):
/// near memory wants synchronous loads/stores, far memory an asynchronous
/// interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessMode {
    /// Synchronous loads/stores; requires a device that supports them.
    #[default]
    Sync,
    /// Asynchronous issue/poll/wait; any device can serve it.
    Async,
}

/// Declared access behaviour, used by the cost model to weigh latency
/// against bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessHint {
    /// Random or sequential.
    pub pattern: AccessPattern,
    /// Fraction of accesses that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Typical bytes per access (for latency-vs-bandwidth weighting).
    pub typical_bytes: u64,
}

impl Default for AccessHint {
    fn default() -> Self {
        AccessHint {
            pattern: AccessPattern::Sequential,
            read_fraction: 0.7,
            typical_bytes: 4096,
        }
    }
}

impl AccessHint {
    /// A random, small-access, read-mostly hint (index lookups).
    pub fn random_reads() -> Self {
        AccessHint {
            pattern: AccessPattern::Random,
            read_fraction: 0.95,
            typical_bytes: 64,
        }
    }

    /// A streaming, large-access hint (scans).
    pub fn streaming() -> Self {
        AccessHint {
            pattern: AccessPattern::Sequential,
            read_fraction: 0.8,
            typical_bytes: 1 << 20,
        }
    }

    /// A balanced read/write random hint (operator state updates).
    pub fn mixed_random() -> Self {
        AccessHint {
            pattern: AccessPattern::Random,
            read_fraction: 0.5,
            typical_bytes: 256,
        }
    }

    /// The dominant operation implied by the read fraction.
    pub fn dominant_op(&self) -> AccessOp {
        if self.read_fraction >= 0.5 {
            AccessOp::Read
        } else {
            AccessOp::Write
        }
    }
}

/// A declarative memory request: what the application needs, not where it
/// should live.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertySet {
    /// Required latency class (achieved, from the executing device).
    pub latency: LatencyClass,
    /// Required bandwidth class (achieved, from the executing device).
    pub bandwidth: BandwidthClass,
    /// Contents must survive crashes/power loss.
    pub persistent: bool,
    /// The region will be shared between concurrent tasks and therefore
    /// must live in the cache-coherence domain with strong ordering.
    pub coherent: bool,
    /// The data is sensitive: isolated from other jobs and encrypted when
    /// it leaves the coherence domain.
    pub confidential: bool,
    /// Intended access interface.
    pub mode: AccessMode,
    /// Declared access behaviour.
    pub hint: AccessHint,
}

impl Default for PropertySet {
    fn default() -> Self {
        PropertySet {
            latency: LatencyClass::Any,
            bandwidth: BandwidthClass::Any,
            persistent: false,
            coherent: false,
            confidential: false,
            mode: AccessMode::Sync,
            hint: AccessHint::default(),
        }
    }
}

impl PropertySet {
    /// Starts from the defaults (no requirements).
    pub fn new() -> Self {
        Self::default()
    }

    /// Requires a latency class.
    pub fn with_latency(mut self, latency: LatencyClass) -> Self {
        self.latency = latency;
        self
    }

    /// Requires a bandwidth class.
    pub fn with_bandwidth(mut self, bandwidth: BandwidthClass) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// Requires persistence.
    pub fn persistent(mut self, yes: bool) -> Self {
        self.persistent = yes;
        self
    }

    /// Requires coherent shareability.
    pub fn coherent(mut self, yes: bool) -> Self {
        self.coherent = yes;
        self
    }

    /// Marks the data confidential.
    pub fn confidential(mut self, yes: bool) -> Self {
        self.confidential = yes;
        self
    }

    /// Selects the access interface.
    pub fn with_mode(mut self, mode: AccessMode) -> Self {
        self.mode = mode;
        self
    }

    /// Declares the access behaviour.
    pub fn with_hint(mut self, hint: AccessHint) -> Self {
        self.hint = hint;
        self
    }

    /// Achieved per-access latency for this request on `dev` over `path`.
    pub fn achieved_latency_ns(&self, dev: &MemDeviceModel, path: PathCost) -> f64 {
        dev.latency(self.hint.dominant_op()) + path.latency_ns
    }

    /// Achieved sequential bandwidth for this request on `dev` over `path`.
    pub fn achieved_bandwidth_bpns(&self, dev: &MemDeviceModel, path: PathCost) -> f64 {
        dev.bandwidth(self.hint.dominant_op()).min(path.bandwidth_bpns)
    }

    /// The hard conditions a region with these properties fails on `dev`
    /// when accessed over `path` (`None`: no route at all) — the one rule
    /// placement filters by ([`satisfied_by`](Self::satisfied_by)) and
    /// the runtime's audit reports from:
    ///
    /// - there must be a route;
    /// - `persistent` requires a persistent device;
    /// - `coherent` requires a device inside the coherence domain;
    /// - `mode == Sync` requires a device capable of synchronous access;
    /// - latency/bandwidth classes bound the achieved values (judged only
    ///   over a route).
    ///
    /// Confidentiality is *not* a device constraint: it is enforced by the
    /// runtime through isolation and encryption (see `sched::enforce`).
    pub fn unmet(
        &self,
        dev: &MemDeviceModel,
        path: Option<PathCost>,
    ) -> impl Iterator<Item = Unmet> {
        let latency = self.latency.max_ns().zip(path).and_then(|(required_ns, path)| {
            let achieved_ns = self.achieved_latency_ns(dev, path);
            (achieved_ns > required_ns).then_some(Unmet::Latency {
                required_ns,
                achieved_ns,
            })
        });
        let bandwidth = self.bandwidth.min_bpns().zip(path).and_then(|(required_bpns, path)| {
            let achieved_bpns = self.achieved_bandwidth_bpns(dev, path);
            (achieved_bpns < required_bpns).then_some(Unmet::Bandwidth {
                required_bpns,
                achieved_bpns,
            })
        });
        [
            path.is_none().then_some(Unmet::Unreachable),
            (self.persistent && !dev.persistent).then_some(Unmet::Persistence),
            (self.coherent && !dev.coherent).then_some(Unmet::Coherence),
            (self.mode == AccessMode::Sync && !dev.sync.allows_sync()).then_some(Unmet::SyncAccess),
            latency,
            bandwidth,
        ]
        .into_iter()
        .flatten()
    }

    /// Hard feasibility: can a region with these properties live on `dev`
    /// when accessed over `path`? True when [`unmet`](Self::unmet) finds
    /// nothing.
    pub fn satisfied_by(&self, dev: &MemDeviceModel, path: PathCost) -> bool {
        self.unmet(dev, Some(path)).next().is_none()
    }
}

/// One hard condition of a [`PropertySet`] that a placement fails (see
/// [`PropertySet::unmet`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Unmet {
    /// The accessing compute device has no route to the device.
    Unreachable,
    /// Persistent data on a volatile device.
    Persistence,
    /// A coherent (shareable) region outside the coherence domain.
    Coherence,
    /// Synchronous access declared on a device that only serves
    /// asynchronous access.
    SyncAccess,
    /// Achieved latency above the declared class.
    Latency {
        /// Declared bound, ns.
        required_ns: f64,
        /// Achieved value, ns.
        achieved_ns: f64,
    },
    /// Achieved bandwidth below the declared class.
    Bandwidth {
        /// Declared bound, bytes/ns.
        required_bpns: f64,
        /// Achieved value, bytes/ns.
        achieved_bpns: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::device::MemDeviceKind;

    fn dev(kind: MemDeviceKind) -> MemDeviceModel {
        MemDeviceModel::preset(kind)
    }

    const LOCAL: PathCost = PathCost::LOCAL;

    #[test]
    fn default_properties_accept_anything_sync_capable() {
        let p = PropertySet::default();
        assert!(p.satisfied_by(&dev(MemDeviceKind::Dram), LOCAL));
        assert!(p.satisfied_by(&dev(MemDeviceKind::Pmem), LOCAL));
        // Default mode is Sync, which SSDs cannot serve.
        assert!(!p.satisfied_by(&dev(MemDeviceKind::Ssd), LOCAL));
        assert!(p
            .with_mode(AccessMode::Async)
            .satisfied_by(&dev(MemDeviceKind::Ssd), LOCAL));
    }

    #[test]
    fn persistence_is_a_hard_constraint() {
        let p = PropertySet::new().persistent(true);
        assert!(!p.satisfied_by(&dev(MemDeviceKind::Dram), LOCAL));
        assert!(p.satisfied_by(&dev(MemDeviceKind::Pmem), LOCAL));
        assert!(p
            .clone()
            .with_mode(AccessMode::Async)
            .satisfied_by(&dev(MemDeviceKind::Ssd), LOCAL));
    }

    #[test]
    fn coherence_excludes_noncoherent_devices() {
        let p = PropertySet::new().coherent(true);
        assert!(p.satisfied_by(&dev(MemDeviceKind::Dram), LOCAL));
        assert!(p.satisfied_by(&dev(MemDeviceKind::CxlDram), LOCAL));
        let far = PropertySet::new().coherent(true).with_mode(AccessMode::Async);
        assert!(!far.satisfied_by(&dev(MemDeviceKind::FarMemory), LOCAL));
    }

    #[test]
    fn latency_class_bounds_achieved_latency() {
        let p = PropertySet::new().with_latency(LatencyClass::Low);
        assert!(p.satisfied_by(&dev(MemDeviceKind::Dram), LOCAL));
        assert!(!p.satisfied_by(&dev(MemDeviceKind::Pmem), LOCAL));
        // The same DRAM behind a slow path fails the Low bound.
        let slow_path = PathCost {
            latency_ns: 500.0,
            bandwidth_bpns: 40.0,
            hops: 2,
            bottleneck_link: None,
        };
        assert!(!p.satisfied_by(&dev(MemDeviceKind::Dram), slow_path));
    }

    #[test]
    fn bandwidth_class_bounds_achieved_bandwidth() {
        let p = PropertySet::new().with_bandwidth(BandwidthClass::High);
        assert!(p.satisfied_by(&dev(MemDeviceKind::Dram), LOCAL));
        assert!(!p.satisfied_by(&dev(MemDeviceKind::CxlDram), LOCAL));
        // DRAM behind a narrow path is bottlenecked below the class.
        let narrow = PathCost {
            latency_ns: 0.0,
            bandwidth_bpns: 12.0,
            hops: 1,
            bottleneck_link: None,
        };
        assert!(!p.satisfied_by(&dev(MemDeviceKind::Dram), narrow));
    }

    #[test]
    fn confidentiality_is_not_a_device_filter() {
        let p = PropertySet::new().confidential(true);
        assert!(p.satisfied_by(&dev(MemDeviceKind::Dram), LOCAL));
        assert!(p
            .clone()
            .with_mode(AccessMode::Async)
            .satisfied_by(&dev(MemDeviceKind::FarMemory), LOCAL));
    }

    #[test]
    fn write_heavy_hints_use_write_latency() {
        let hint = AccessHint {
            pattern: AccessPattern::Random,
            read_fraction: 0.1,
            typical_bytes: 64,
        };
        assert_eq!(hint.dominant_op(), AccessOp::Write);
        let p = PropertySet::new()
            .with_hint(hint)
            .with_latency(LatencyClass::Medium);
        // PMem write latency 450 ns still fits Medium (≤ 1 µs).
        assert!(p.satisfied_by(&dev(MemDeviceKind::Pmem), LOCAL));
    }

    #[test]
    fn unmet_names_every_failed_condition() {
        let p = PropertySet::new()
            .persistent(true)
            .coherent(true)
            .with_latency(LatencyClass::Low)
            .with_bandwidth(BandwidthClass::High);
        let far = dev(MemDeviceKind::FarMemory);
        let got: Vec<Unmet> = p.unmet(&far, Some(LOCAL)).collect();
        assert_eq!(
            got,
            [
                Unmet::Persistence,
                Unmet::Coherence,
                Unmet::SyncAccess,
                Unmet::Latency {
                    required_ns: 200.0,
                    achieved_ns: far.latency(AccessOp::Read)
                },
                Unmet::Bandwidth {
                    required_bpns: 100.0,
                    achieved_bpns: far.bandwidth(AccessOp::Read)
                },
            ]
        );
        assert!(!p.satisfied_by(&far, LOCAL));
        // Without a route only what the device alone decides is judged.
        let dram = dev(MemDeviceKind::Dram);
        let got: Vec<Unmet> = p.unmet(&dram, None).collect();
        assert_eq!(got, [Unmet::Unreachable, Unmet::Persistence]);
        assert_eq!(PropertySet::new().unmet(&dram, Some(LOCAL)).count(), 0);
    }

    #[test]
    fn class_thresholds_are_ordered() {
        assert!(LatencyClass::Low.max_ns() < LatencyClass::Medium.max_ns());
        assert!(LatencyClass::Medium.max_ns() < LatencyClass::High.max_ns());
        assert_eq!(LatencyClass::Any.max_ns(), None);
        assert!(BandwidthClass::High.min_bpns() > BandwidthClass::Medium.min_bpns());
        assert!(BandwidthClass::Medium.min_bpns() > BandwidthClass::Low.min_bpns());
        assert_eq!(BandwidthClass::Any.min_bpns(), None);
    }
}
