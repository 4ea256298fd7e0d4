//! Runtime property enforcement and auditing.
//!
//! Declaring properties is only half the story; the runtime must *enforce*
//! them (Challenge 3: "How to enforce deployment policies at runtime?").
//! The [`Auditor`] checks every placement decision against the declared
//! properties and records violations; confidential data leaving the
//! platform's trust boundary must be encrypted, for which this module
//! supplies the (cost-modelled) cipher.

use disagg_hwsim::device::Attachment;
use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::topology::Topology;
use disagg_region::pool::RegionId;
use disagg_region::props::PropertySet;

/// A detected property violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Persistent data placed on a volatile device.
    Persistence {
        /// The region.
        region: RegionId,
        /// The offending device.
        dev: MemDeviceId,
    },
    /// Achieved latency exceeds the declared class.
    Latency {
        /// The region.
        region: RegionId,
        /// The offending device.
        dev: MemDeviceId,
        /// Declared bound, ns.
        required_ns: f64,
        /// Achieved value, ns.
        achieved_ns: f64,
    },
    /// Achieved bandwidth below the declared class.
    Bandwidth {
        /// The region.
        region: RegionId,
        /// The offending device.
        dev: MemDeviceId,
        /// Declared bound, bytes/ns.
        required_bpns: f64,
        /// Achieved value, bytes/ns.
        achieved_bpns: f64,
    },
    /// A coherent (shareable) region placed outside the coherence domain.
    Coherence {
        /// The region.
        region: RegionId,
        /// The offending device.
        dev: MemDeviceId,
    },
    /// A cross-job access to confidential data was attempted (and denied).
    ConfidentialAccessDenied {
        /// The region.
        region: RegionId,
        /// The job owning the secret.
        owner_job: Option<u64>,
        /// The job that tried.
        accessor_job: Option<u64>,
    },
}

/// Audits placements and records enforcement events.
#[derive(Debug, Default)]
pub struct Auditor {
    /// Violations found (empty after a clean run), denied confidential
    /// accesses among them.
    pub violations: Vec<Violation>,
}

impl Auditor {
    /// Verifies that `region`'s placement on `dev` honors `props` as seen
    /// from `compute`. Any breach is recorded.
    pub fn check_placement(
        &mut self,
        topo: &Topology,
        compute: ComputeId,
        region: RegionId,
        dev: MemDeviceId,
        props: &PropertySet,
    ) {
        let model = topo.mem(dev);
        if props.persistent && !model.persistent {
            self.violations.push(Violation::Persistence { region, dev });
        }
        if props.coherent && !model.coherent {
            self.violations.push(Violation::Coherence { region, dev });
        }
        if let Some(path) = topo.path(compute, dev) {
            if let Some(max) = props.latency.max_ns() {
                let achieved = props.achieved_latency_ns(model, path);
                if achieved > max {
                    self.violations.push(Violation::Latency {
                        region,
                        dev,
                        required_ns: max,
                        achieved_ns: achieved,
                    });
                }
            }
            if let Some(min) = props.bandwidth.min_bpns() {
                let achieved = props.achieved_bandwidth_bpns(model, path);
                if achieved < min {
                    self.violations.push(Violation::Bandwidth {
                        region,
                        dev,
                        required_bpns: min,
                        achieved_bpns: achieved,
                    });
                }
            }
        }
    }

    /// Records a *denied* cross-job access to a confidential region. A
    /// denial is enforcement working as intended; it lands in
    /// `violations` so reports can show the attempted breach.
    pub fn record_denial(
        &mut self,
        region: RegionId,
        owner_job: Option<u64>,
        accessor_job: Option<u64>,
    ) {
        self.violations.push(Violation::ConfidentialAccessDenied {
            region,
            owner_job,
            accessor_job,
        });
    }
}

/// Whether confidential data on this device leaves the platform's trust
/// boundary and must therefore be encrypted at rest. We draw the boundary
/// at the chassis: anything behind the NIC or SATA (shared far memory,
/// cold storage) is outside; CPU-, GPU-, and PCIe/CXL-attached devices are
/// within the coherent/secured enclosure.
pub fn needs_encryption(topo: &Topology, dev: MemDeviceId) -> bool {
    matches!(topo.mem(dev).attachment, Attachment::Nic | Attachment::Sata)
}

/// A simple stream cipher (xorshift keystream) standing in for AES-class
/// memory encryption. It is *not* cryptographically strong — the
/// simulation needs a real, invertible byte transform with modelled cost,
/// not security. Applying it twice with the same key round-trips.
pub fn xor_cipher(data: &mut [u8], key: u64) {
    let mut state = key | 1;
    for chunk in data.chunks_mut(8) {
        // xorshift64.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let ks = state.to_le_bytes();
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::presets::single_server;
    use disagg_region::props::{BandwidthClass, LatencyClass};

    #[test]
    fn clean_placement_passes() {
        let (topo, ids) = single_server();
        let mut a = Auditor::default();
        let props = PropertySet::new().with_latency(LatencyClass::Low);
        a.check_placement(&topo, ids.cpu, RegionId(1), ids.dram, &props);
        assert!(a.violations.is_empty());
    }

    #[test]
    fn persistent_on_volatile_is_flagged() {
        let (topo, ids) = single_server();
        let mut a = Auditor::default();
        let props = PropertySet::new().persistent(true);
        a.check_placement(&topo, ids.cpu, RegionId(1), ids.dram, &props);
        assert!(matches!(a.violations[..], [Violation::Persistence { .. }]));
    }

    #[test]
    fn latency_breach_reports_required_and_achieved() {
        let (topo, ids) = single_server();
        let mut a = Auditor::default();
        let props = PropertySet::new().with_latency(LatencyClass::Low);
        a.check_placement(&topo, ids.cpu, RegionId(2), ids.far, &props);
        match &a.violations[0] {
            Violation::Latency { required_ns, achieved_ns, .. } => {
                assert_eq!(*required_ns, 200.0);
                assert!(*achieved_ns > 2_000.0);
            }
            other => panic!("expected latency violation, got {other:?}"),
        }
    }

    #[test]
    fn bandwidth_breach_is_flagged() {
        let (topo, ids) = single_server();
        let mut a = Auditor::default();
        let props = PropertySet::new().with_bandwidth(BandwidthClass::High);
        a.check_placement(&topo, ids.cpu, RegionId(3), ids.pmem, &props);
        assert!(a
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Bandwidth { .. })));
    }

    #[test]
    fn coherent_outside_domain_is_flagged() {
        let (topo, ids) = single_server();
        let mut a = Auditor::default();
        let props = PropertySet::new()
            .coherent(true)
            .with_mode(disagg_region::props::AccessMode::Async);
        a.check_placement(&topo, ids.cpu, RegionId(4), ids.far, &props);
        assert!(a
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Coherence { .. })));
    }

    #[test]
    fn denials_count_as_enforcement_not_breach() {
        let mut a = Auditor::default();
        a.record_denial(RegionId(5), Some(1), Some(2));
        assert_eq!(
            a.violations,
            [Violation::ConfidentialAccessDenied {
                region: RegionId(5),
                owner_job: Some(1),
                accessor_job: Some(2),
            }],
            "a denial is reported once, as what it is"
        );
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

    #[test]
    fn cipher_round_trips_and_actually_scrambles() {
        let mut data = *b"patient record: confidential!!!!";
        let original = data;
        xor_cipher(&mut data, 0xDEAD_BEEF);
        assert_ne!(data, original, "ciphertext must differ");
        let differing = data
            .iter()
            .zip(original.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert!(differing > data.len() / 2, "most bytes should change");
        xor_cipher(&mut data, 0xDEAD_BEEF);
        assert_eq!(data, original, "decryption restores plaintext");
    }

    #[test]
    fn cipher_keys_matter() {
        let mut data = *b"secret";
        xor_cipher(&mut data, 1);
        xor_cipher(&mut data, 2);
        assert_ne!(&data, b"secret", "wrong key must not decrypt");
    }
}
