//! Lifetime management: ownership handover between dataflow tasks.
//!
//! §2.3: "The runtime system allocates input and output memory so that
//! handover is just a memory ownership transfer, and physical data
//! movement is minimized." When a task finishes, its output region must
//! reach the successor. Two mechanisms exist:
//!
//! - **Ownership transfer** (Figure 4): if the consumer's compute device
//!   can address the region where it lies, the handle moves — O(1)
//!   bookkeeping, zero bytes on any wire.
//! - **Physical copy**: otherwise (or under the `AlwaysCopy` baseline of
//!   experiment E7), a new region is allocated near the consumer and the
//!   bytes are copied at full transfer cost.
//!
//! The copy's allocation and the source's release go through the
//! [`RegionManager`]'s traced path, like every allocation in a run, and
//! the copy's placement is audited like every other.

use disagg_hwsim::calibration;
use disagg_hwsim::contention::BandwidthLedger;
use disagg_hwsim::ids::ComputeId;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;
use disagg_hwsim::trace::{Trace, TraceEvent};
use disagg_region::migrate::charge_copy;
use disagg_region::pool::RegionId;
use disagg_region::region::{OwnerId, RegionError, RegionManager};
use disagg_region::typed::RegionType;

use crate::enforce::{check_placement, Violation};
use crate::placement::PlacementEngine;

/// Handover strategy (the E7 ablation switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HandoverPolicy {
    /// Transfer ownership whenever the consumer can address the memory.
    #[default]
    TransferWhenPossible,
    /// Always copy (models systems without a shared address space).
    AlwaysCopy,
}

/// The result of a handover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandoverOutcome {
    /// The region the consumer now owns (may differ from the producer's
    /// region id if a copy was made).
    pub region: RegionId,
    /// True if ownership moved without copying.
    pub transferred: bool,
    /// Bytes physically copied (0 on transfer).
    pub bytes_copied: u64,
    /// Virtual time the handover took.
    pub took: SimDuration,
}

/// Manages handover.
#[derive(Debug, Clone, Copy, Default)]
pub struct LifetimeManager {
    /// Active handover policy.
    pub policy: HandoverPolicy,
}

impl LifetimeManager {
    /// A manager with the given policy.
    pub fn new(policy: HandoverPolicy) -> Self {
        LifetimeManager { policy }
    }

    /// Hands a producer's output region to a consumer task.
    ///
    /// Under [`HandoverPolicy::TransferWhenPossible`], if the consumer's
    /// compute device can address the region in place, ownership moves and
    /// no bytes are copied. Otherwise the bytes are physically copied to a
    /// device chosen (by the placement engine) for the consumer, and the
    /// producer's region is released.
    #[allow(clippy::too_many_arguments)]
    pub fn handover(
        &self,
        mgr: &mut RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        trace: &mut Trace,
        engine: &mut PlacementEngine,
        violations: &mut Vec<Violation>,
        region: RegionId,
        from: OwnerId,
        to: OwnerId,
        consumer_compute: ComputeId,
        now: SimTime,
    ) -> Result<HandoverOutcome, RegionError> {
        let placement = mgr.placement(region)?;
        let addressable = topo.reachable(consumer_compute, placement.dev);
        let transferable = mgr.meta(region)?.rtype.transferable();

        if self.policy == HandoverPolicy::TransferWhenPossible && addressable && transferable {
            mgr.transfer(region, from, to)?;
            let (from_task, to_task) = owner_task_ids(from, to);
            trace.push(TraceEvent::OwnershipTransfer {
                region: region.0,
                from_task,
                to_task,
                bytes: placement.size,
                at: now,
            });
            return Ok(HandoverOutcome {
                region,
                transferred: true,
                bytes_copied: 0,
                took: SimDuration::from_nanos(calibration::mechanisms().ownership_transfer_ns.value),
            });
        }
        self.copy_to(
            mgr,
            topo,
            ledger,
            trace,
            engine,
            violations,
            region,
            Some(from),
            to,
            consumer_compute,
            now,
        )
    }

    /// Copies a region's contents into a fresh region placed for
    /// `consumer_compute` and owned by `to`, auditing the placement into
    /// `violations` (the copy keeps its source's properties). If
    /// `release_from` is set, the source region is released by that owner
    /// afterwards. Used for the copy path of handover and for fan-out
    /// edges beyond the first consumer (who got the transfer).
    #[allow(clippy::too_many_arguments)]
    pub fn copy_to(
        &self,
        mgr: &mut RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        trace: &mut Trace,
        engine: &mut PlacementEngine,
        violations: &mut Vec<Violation>,
        region: RegionId,
        release_from: Option<OwnerId>,
        to: OwnerId,
        consumer_compute: ComputeId,
        now: SimTime,
    ) -> Result<HandoverOutcome, RegionError> {
        let placement = mgr.placement(region)?;
        let props = mgr.meta(region)?.props.clone();

        let dst_dev = engine
            .choose(topo, mgr.pool(), consumer_compute, &props, placement.size)
            .ok_or(RegionError::NoPlacement {
                region,
                consumer: consumer_compute,
                size: placement.size,
            })?;
        let input = RegionType::Input;
        let new = mgr.alloc_traced(trace, dst_dev, placement.size, input, props.clone(), to, now)?;
        check_placement(topo, consumer_compute, new, dst_dev, &props, violations);

        // Real byte copy of whatever the source ever had written.
        mgr.copy_contents(region, new)?;

        // Charge the physical movement and trace it.
        let base = topo
            .transfer_cost(placement.dev, dst_dev, placement.size)
            .unwrap_or(SimDuration::ZERO);
        let took = charge_copy(topo, ledger, trace, region, placement, dst_dev, base, now);

        if let Some(from) = release_from {
            mgr.release_traced(trace, region, from, now)?;
        }
        Ok(HandoverOutcome {
            region: new,
            transferred: false,
            bytes_copied: placement.size,
            took,
        })
    }
}

fn owner_task_ids(from: OwnerId, to: OwnerId) -> (u64, u64) {
    let idx = |o: OwnerId| match o {
        OwnerId::Task { task, .. } => task,
        OwnerId::Job(j) => j,
        OwnerId::App => u64::MAX,
    };
    (idx(from), idx(to))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementPolicy;
    use disagg_hwsim::ids::MemDeviceId;
    use disagg_hwsim::presets::{disaggregated_rack, single_server};
    use disagg_region::props::PropertySet;

    const P: OwnerId = OwnerId::Task { job: 0, task: 0 };

    fn transfer_overhead() -> SimDuration {
        SimDuration::from_nanos(calibration::mechanisms().ownership_transfer_ns.value)
    }
    const C: OwnerId = OwnerId::Task { job: 0, task: 1 };

    #[test]
    fn addressable_handover_is_a_pure_transfer() {
        let (topo, ids) = single_server();
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
        let lm = LifetimeManager::default();

        let out = mgr
            .alloc(ids.dram, 1 << 20, RegionType::Output, PropertySet::new(), P, SimTime::ZERO)
            .unwrap();
        mgr.write(out, P, 0, &[0xEE; 64]).unwrap();

        let o = lm
            .handover(&mut mgr, &topo, &mut ledger, &mut trace, &mut engine, &mut Vec::new(), out, P, C, ids.gpu, SimTime::ZERO)
            .unwrap();
        assert!(o.transferred);
        assert_eq!(o.bytes_copied, 0);
        assert_eq!(o.region, out);
        assert_eq!(o.took, transfer_overhead());
        assert_eq!(&mgr.bytes(out, C).unwrap()[..64], &[0xEE; 64]);
        assert_eq!(trace.bytes_transferred_by_ownership(), 1 << 20);
        assert_eq!(trace.bytes_moved(), 0);
    }

    #[test]
    fn always_copy_policy_moves_bytes() {
        let (topo, ids) = single_server();
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
        let lm = LifetimeManager::new(HandoverPolicy::AlwaysCopy);

        let out = mgr
            .alloc(ids.dram, 1 << 20, RegionType::Output, PropertySet::new(), P, SimTime::ZERO)
            .unwrap();
        mgr.write(out, P, 0, &[0xAB; 32]).unwrap();

        let o = lm
            .handover(&mut mgr, &topo, &mut ledger, &mut trace, &mut engine, &mut Vec::new(), out, P, C, ids.cpu, SimTime::ZERO)
            .unwrap();
        assert!(!o.transferred);
        assert_eq!(o.bytes_copied, 1 << 20);
        assert_ne!(o.region, out);
        assert!(o.took > transfer_overhead());
        assert_eq!(&mgr.bytes(o.region, C).unwrap()[..32], &[0xAB; 32]);
        // Producer's region was released, and the trace books the copy's
        // allocation and the source's free.
        assert!(!mgr.is_live(out));
        assert_eq!(trace.bytes_moved(), 1 << 20);
        let books: Vec<(bool, u64)> = trace
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Alloc { region, .. } => Some((true, region)),
                TraceEvent::Free { region, .. } => Some((false, region)),
                _ => None,
            })
            .collect();
        assert_eq!(books, [(true, o.region.0), (false, out.0)]);
    }

    /// Two fully disjoint islands `(topo, d0, cpu1, d1)`: `cpu1` has no
    /// route to `d0` (think: another host's private memory with no RDMA
    /// window), only to its own `d1`. Both DRAMs hold 16 MiB.
    fn islands() -> (Topology, MemDeviceId, ComputeId, MemDeviceId) {
        use disagg_hwsim::compute::{ComputeKind, ComputeModel};
        use disagg_hwsim::device::{MemDeviceKind, MemDeviceModel};
        use disagg_hwsim::topology::LinkKind;

        let mut b = Topology::builder();
        let n0 = b.node("a");
        let n1 = b.node("b");
        let cpu0 = b.compute(n0, ComputeModel::preset(ComputeKind::Cpu));
        let cpu1 = b.compute(n1, ComputeModel::preset(ComputeKind::Cpu));
        let d0 = b.mem(n0, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, 1 << 24));
        let d1 = b.mem(n1, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, 1 << 24));
        b.link(cpu0, d0, LinkKind::MemBus);
        b.link(cpu1, d1, LinkKind::MemBus);
        (b.build().unwrap(), d0, cpu1, d1)
    }

    #[test]
    fn unaddressable_region_falls_back_to_copy() {
        // The consumer cannot address the producer's DRAM: handover must
        // fall back to a physical copy.
        let (topo, d0, cpu1, d1) = islands();

        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
        let lm = LifetimeManager::default();

        let out = mgr
            .alloc(d0, 4096, RegionType::Output, PropertySet::new(), P, SimTime::ZERO)
            .unwrap();
        mgr.write(out, P, 0, &[7; 8]).unwrap();
        let o = lm
            .handover(&mut mgr, &topo, &mut ledger, &mut trace, &mut engine, &mut Vec::new(), out, P, C, cpu1, SimTime::ZERO)
            .unwrap();
        assert!(!o.transferred, "cpu1 cannot address d0; must copy");
        assert_eq!(mgr.placement(o.region).unwrap().dev, d1);
        assert_eq!(&mgr.bytes(o.region, C).unwrap()[..8], &[7; 8]);
    }

    #[test]
    fn copy_with_nowhere_to_go_names_the_consumer_and_keeps_the_source() {
        // cpu1 reaches only d1, and d1 is full.
        let (topo, d0, cpu1, d1) = islands();

        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
        let lm = LifetimeManager::default();

        let out = mgr
            .alloc(d0, 4096, RegionType::Output, PropertySet::new(), P, SimTime::ZERO)
            .unwrap();
        mgr.write(out, P, 0, &[7; 8]).unwrap();
        mgr.alloc(d1, 1 << 24, RegionType::GlobalScratch, PropertySet::new(), OwnerId::App, SimTime::ZERO)
            .unwrap();

        let err = lm
            .handover(&mut mgr, &topo, &mut ledger, &mut trace, &mut engine, &mut Vec::new(), out, P, C, cpu1, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, RegionError::NoPlacement { region: out, consumer: cpu1, size: 4096 });
        let msg = err.to_string();
        assert!(msg.contains(&cpu1.to_string()) && msg.contains("4096"), "{msg}");
        // Nothing was released, allocated or traced on the way out.
        assert_eq!(&mgr.bytes(out, P).unwrap()[..8], &[7; 8]);
        assert_eq!(mgr.owned_by(C), vec![]);
        assert_eq!(mgr.live_count(), 2);
        assert_eq!(trace.bytes_moved(), 0);
    }

    #[test]
    fn fan_out_copies_for_secondary_consumers() {
        let (topo, rack) = disaggregated_rack(2, 32, 2, 512);
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
        let lm = LifetimeManager::default();

        let out = mgr
            .alloc(rack.pool[0], 8192, RegionType::Output, PropertySet::new(), P, SimTime::ZERO)
            .unwrap();
        mgr.write(out, P, 0, &[3; 16]).unwrap();

        // First consumer gets the transfer…
        let c2 = OwnerId::Task { job: 0, task: 2 };
        let o1 = lm
            .handover(&mut mgr, &topo, &mut ledger, &mut trace, &mut engine, &mut Vec::new(), out, P, C, rack.cpus[0], SimTime::ZERO)
            .unwrap();
        assert!(o1.transferred);
        // …the second gets an independent copy (no release of the source).
        let o2 = lm
            .copy_to(&mut mgr, &topo, &mut ledger, &mut trace, &mut engine, &mut Vec::new(), out, None, c2, rack.cpus[1], SimTime::ZERO)
            .unwrap();
        assert!(!o2.transferred);
        assert!(mgr.is_live(out));
        assert!(mgr.is_live(o2.region));
        assert_eq!(&mgr.bytes(o2.region, c2).unwrap()[..16], &[3; 16]);
        // On the host the copy shares the source's buffer until one side
        // writes, and the write stays on its side.
        assert_eq!(mgr.pool().bytes_materialized(), 8192);
        mgr.write(o2.region, c2, 0, &[4; 16]).unwrap();
        assert_eq!(mgr.pool().bytes_materialized(), 2 * 8192);
        assert_eq!(&mgr.bytes(out, C).unwrap()[..16], &[3; 16]);
    }

    #[test]
    fn task_exit_releases_everything() {
        let (topo, ids) = single_server();
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
        let lm = LifetimeManager::default();
        for _ in 0..3 {
            mgr.alloc(ids.dram, 4096, RegionType::PrivateScratch, PropertySet::new(), P, SimTime::ZERO)
                .unwrap();
        }
        let out = mgr
            .alloc(ids.dram, 4096, RegionType::Output, PropertySet::new(), P, SimTime::ZERO)
            .unwrap();
        lm.handover(&mut mgr, &topo, &mut ledger, &mut trace, &mut engine, &mut Vec::new(), out, P, C, ids.gpu, SimTime::ZERO)
            .unwrap();
        assert_eq!(mgr.live_count(), 4);
        // The producer's exit frees its three scratch regions; the output it
        // handed over belongs to the consumer and stays live.
        mgr.release_all_traced(&mut trace, P, SimTime(100));
        assert_eq!(mgr.live_count(), 1);
        assert!(mgr.is_live(out));
        assert_eq!(trace.count(|e| matches!(e, TraceEvent::Free { .. })), 3);
    }
}
