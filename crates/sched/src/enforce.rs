//! Runtime property enforcement and auditing.
//!
//! Declaring properties is only half the story; the runtime must *enforce*
//! them (Challenge 3: "How to enforce deployment policies at runtime?").
//! [`check_placement`] judges every placement of a run against its
//! region's declared properties with the rule placement itself filters by
//! ([`PropertySet::unmet`]) and records what fails in the running wave's
//! report. [`needs_encryption`] draws the platform's trust boundary: a
//! confidential task pays [`WorkClass::Crypto`] time on its compute device
//! for the bytes it wrote, once per region it placed outside the boundary
//! (the executor charges it). No byte is transformed: the encryption is a
//! cost, not a cipher.
//!
//! [`WorkClass::Crypto`]: disagg_hwsim::compute::WorkClass::Crypto

use disagg_hwsim::device::Attachment;
use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::topology::Topology;
use disagg_region::pool::RegionId;
use disagg_region::props::{PropertySet, Unmet};

/// A placement that fails one of its region's declared hard properties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    /// The region.
    pub region: RegionId,
    /// The device it was placed on.
    pub dev: MemDeviceId,
    /// The condition it fails.
    pub unmet: Unmet,
}

/// Judges `region`'s placement on `dev` against `props` as seen from
/// `compute`, pushing one [`Violation`] per failed condition onto `out`.
pub fn check_placement(
    topo: &Topology,
    compute: ComputeId,
    region: RegionId,
    dev: MemDeviceId,
    props: &PropertySet,
    out: &mut Vec<Violation>,
) {
    let path = topo.path(compute, dev);
    out.extend(
        props
            .unmet(topo.mem(dev), path)
            .map(|unmet| Violation { region, dev, unmet }),
    );
}

/// Whether confidential data on this device leaves the platform's trust
/// boundary and must therefore be encrypted at rest. We draw the boundary
/// at the chassis: anything behind the NIC or SATA (shared far memory,
/// cold storage) is outside; CPU-, GPU-, and PCIe/CXL-attached devices are
/// within the coherent/secured enclosure.
pub fn needs_encryption(topo: &Topology, dev: MemDeviceId) -> bool {
    matches!(topo.mem(dev).attachment, Attachment::Nic | Attachment::Sata)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::presets::single_server;
    use disagg_region::props::{AccessMode, BandwidthClass, LatencyClass};

    /// What the audit finds for a placement on `dev`, judged from `compute`.
    fn unmet(
        topo: &Topology,
        compute: ComputeId,
        dev: MemDeviceId,
        props: &PropertySet,
    ) -> Vec<Unmet> {
        let mut out = Vec::new();
        check_placement(topo, compute, RegionId(1), dev, props, &mut out);
        assert!(out.iter().all(|v| (v.region, v.dev) == (RegionId(1), dev)));
        out.into_iter().map(|v| v.unmet).collect()
    }

    #[test]
    fn clean_placement_passes() {
        let (topo, ids) = single_server();
        let props = PropertySet::new().with_latency(LatencyClass::Low);
        assert_eq!(unmet(&topo, ids.cpu, ids.dram, &props), []);
    }

    #[test]
    fn persistent_on_volatile_is_flagged() {
        let (topo, ids) = single_server();
        let props = PropertySet::new().persistent(true);
        assert_eq!(
            unmet(&topo, ids.cpu, ids.dram, &props),
            [Unmet::Persistence]
        );
    }

    #[test]
    fn latency_breach_reports_required_and_achieved() {
        let (topo, ids) = single_server();
        let props = PropertySet::new()
            .with_latency(LatencyClass::Low)
            .with_mode(AccessMode::Async);
        match unmet(&topo, ids.cpu, ids.far, &props)[..] {
            [Unmet::Latency {
                required_ns,
                achieved_ns,
            }] => {
                assert_eq!(required_ns, 200.0);
                assert!(achieved_ns > 2_000.0);
            }
            ref other => panic!("expected one latency violation, got {other:?}"),
        }
    }

    #[test]
    fn bandwidth_breach_is_flagged() {
        let (topo, ids) = single_server();
        let props = PropertySet::new().with_bandwidth(BandwidthClass::High);
        assert!(matches!(
            unmet(&topo, ids.cpu, ids.pmem, &props)[..],
            [Unmet::Bandwidth { .. }]
        ));
    }

    #[test]
    fn coherent_outside_domain_is_flagged() {
        let (topo, ids) = single_server();
        let props = PropertySet::new()
            .coherent(true)
            .with_mode(AccessMode::Async);
        assert_eq!(unmet(&topo, ids.cpu, ids.far, &props), [Unmet::Coherence]);
    }

    #[test]
    fn the_audit_judges_by_the_placement_rule() {
        // Synchronous access to an async-only device: the condition the
        // audit used to skip while placement filtered on it.
        let (topo, ids) = single_server();
        assert_eq!(
            unmet(&topo, ids.cpu, ids.far, &PropertySet::new()),
            [Unmet::SyncAccess]
        );
        // Audit and filter agree on every device of the server.
        let props = PropertySet::new().with_latency(LatencyClass::Medium);
        for dev in topo.mem_ids() {
            let path = topo
                .path(ids.cpu, dev)
                .expect("the CPU reaches every device");
            let feasible = props.satisfied_by(topo.mem(dev), path);
            assert_eq!(
                unmet(&topo, ids.cpu, dev, &props).is_empty(),
                feasible,
                "{dev}"
            );
        }
    }

    #[test]
    fn trust_boundary_is_the_chassis() {
        let (topo, ids) = single_server();
        assert!(!needs_encryption(&topo, ids.dram));
        assert!(!needs_encryption(&topo, ids.cxl));
        assert!(!needs_encryption(&topo, ids.gddr));
        assert!(needs_encryption(&topo, ids.far));
        assert!(needs_encryption(&topo, ids.hdd));
    }
}
