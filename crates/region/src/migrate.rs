//! Region migration, and the price of every physical copy.
//!
//! The runtime may move a region between physical devices after placement
//! (tiering, in `disagg-sched`, picks where). A migration is a *physical*
//! copy — it pays the full transfer cost on both devices and the path
//! between them, unlike an ownership transfer, which is free. The
//! contrast between the two is exactly the paper's Figure 4 experiment.

use disagg_hwsim::contention::{BandwidthLedger, ResourceKey};
use disagg_hwsim::ids::MemDeviceId;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;
use disagg_hwsim::trace::{Trace, TraceEvent};

use crate::pool::{Placement, RegionId};
use crate::region::{RegionError, RegionManager};

/// Physically moves a region to another device, charging the transfer on
/// both devices' ledgers. Returns the new placement and how long the copy
/// took. Contents and region id are preserved; ownership is untouched.
pub fn migrate(
    mgr: &mut RegionManager,
    topo: &Topology,
    ledger: &mut BandwidthLedger,
    trace: &mut Trace,
    id: RegionId,
    to: MemDeviceId,
    now: SimTime,
) -> Result<(Placement, SimDuration), RegionError> {
    let old = mgr.placement(id)?;
    if old.dev == to {
        return Ok((old, SimDuration::ZERO));
    }
    if topo.mem_path(old.dev, to).is_none() {
        // No route between the devices: reuse the closest error shape
        // without inventing a new variant for an unreachable copy.
        return Err(RegionError::IncoherentShare { region: id, dev: to });
    }
    let new = mgr.pool_mut().rebind(id, to)?;
    let took = charge_copy(topo, ledger, trace, id, old, to, now);
    Ok((new, took))
}

/// Books one copy of `bytes` from device `src` onto `to`, starting at
/// `now`: read bandwidth at the source, write bandwidth at the
/// destination and the narrowest interconnect link between them (which
/// other traffic contends with). Returns how long the copy takes: the
/// longer of the bookings and the uncontended
/// [`Topology::transfer_cost`], or the bookings alone where no route
/// joins the devices (a caller that refuses such a copy checks
/// [`Topology::mem_path`] first). Every physical copy the runtime makes
/// is priced here: [`charge_copy`]'s and `ftol`'s replica recovery.
pub fn reserve_copy(
    topo: &Topology,
    ledger: &mut BandwidthLedger,
    src: MemDeviceId,
    to: MemDeviceId,
    bytes: u64,
    now: SimTime,
) -> SimDuration {
    let floor = topo.transfer_cost(src, to, bytes).unwrap_or(SimDuration::ZERO);
    let bytes = bytes as f64;
    let f1 = ledger.reserve(ResourceKey::Mem(src), now, bytes, topo.mem(src).read_bw_bpns);
    let f2 = ledger.reserve(ResourceKey::Mem(to), now, bytes, topo.mem(to).write_bw_bpns);
    let mut finish = f1.max(f2);
    if let Some(path) = topo.mem_path(src, to) {
        if let Some(link) = path.bottleneck_link {
            let f3 = ledger.reserve(ResourceKey::Link(link), now, bytes, path.bandwidth_bpns);
            finish = finish.max(f3);
        }
    }
    floor.max(finish - now)
}

/// Charges one device-to-device copy of the region at `src` onto `to`,
/// starting at `now`, priced by [`reserve_copy`], and traces it as one
/// [`TraceEvent::Migrate`]. Migration, handover copies and fan-out are
/// all charged here.
pub fn charge_copy(
    topo: &Topology,
    ledger: &mut BandwidthLedger,
    trace: &mut Trace,
    region: RegionId,
    src: Placement,
    to: MemDeviceId,
    now: SimTime,
) -> SimDuration {
    let took = reserve_copy(topo, ledger, src.dev, to, src.size, now);
    trace.push(TraceEvent::Migrate {
        region: region.0,
        from: src.dev,
        to,
        bytes: src.size,
        at: now,
        took,
    });
    took
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::PropertySet;
    use crate::region::OwnerId;
    use crate::typed::RegionType;
    use disagg_hwsim::compute::{ComputeKind, ComputeModel};
    use disagg_hwsim::device::{MemDeviceKind, MemDeviceModel};
    use disagg_hwsim::topology::LinkKind;

    const WHO: OwnerId = OwnerId::App;

    fn setup() -> (Topology, RegionManager, MemDeviceId, MemDeviceId) {
        let mut b = Topology::builder();
        let n = b.node("host");
        let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        let dram = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, 4096));
        let cxl = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::CxlDram, 1 << 20));
        b.link(cpu, dram, LinkKind::MemBus);
        b.link(cpu, cxl, LinkKind::PcieCxl);
        b.link(dram, cxl, LinkKind::PcieCxl);
        let topo = b.build().unwrap();
        let mgr = RegionManager::new(&topo);
        (topo, mgr, dram, cxl)
    }

    fn alloc(mgr: &mut RegionManager, dev: MemDeviceId, size: u64) -> RegionId {
        mgr.alloc(dev, size, RegionType::GlobalScratch, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap()
    }

    #[test]
    fn migrate_moves_bytes_and_charges_time() {
        let (topo, mut mgr, dram, cxl) = setup();
        let id = alloc(&mut mgr, cxl, 1024);
        mgr.write(id, WHO, 0, &[0xCD; 16]).unwrap();
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let (new, took) =
            migrate(&mut mgr, &topo, &mut ledger, &mut trace, id, dram, SimTime::ZERO).unwrap();
        assert_eq!(new.dev, dram);
        assert!(took > SimDuration::ZERO);
        assert_eq!(&mgr.bytes(id, WHO).unwrap()[..16], &[0xCD; 16]);
        assert_eq!(trace.count(|e| matches!(e, TraceEvent::Migrate { .. })), 1);
    }

    #[test]
    fn migrate_to_same_device_is_free() {
        let (topo, mut mgr, dram, _) = setup();
        let id = alloc(&mut mgr, dram, 512);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let (p, took) =
            migrate(&mut mgr, &topo, &mut ledger, &mut trace, id, dram, SimTime::ZERO).unwrap();
        assert_eq!(p.dev, dram);
        assert_eq!(took, SimDuration::ZERO);
        assert!(trace.is_empty());
    }

    #[test]
    fn migrate_fails_when_target_full() {
        let (topo, mut mgr, dram, cxl) = setup();
        // DRAM arena is 4096 bytes; fill it.
        let _filler = alloc(&mut mgr, dram, 4000);
        let id = alloc(&mut mgr, cxl, 1024);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        assert!(migrate(&mut mgr, &topo, &mut ledger, &mut trace, id, dram, SimTime::ZERO).is_err());
        // Region remains usable at the old placement.
        assert_eq!(mgr.placement(id).unwrap().dev, cxl);
    }
}
