//! Region migration and watermark-based tiering.
//!
//! The runtime may move a region between physical devices after placement:
//! promoting hot data toward fast memory, demoting cold data toward
//! capacity tiers, or evacuating a device ahead of planned maintenance.
//! A migration is a *physical* copy — it pays the full transfer cost on
//! both devices and the path between them, unlike an ownership transfer,
//! which is free. The contrast between the two is exactly the paper's
//! Figure 4 experiment.

use disagg_hwsim::contention::{BandwidthLedger, ResourceKey};
use disagg_hwsim::ids::MemDeviceId;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;
use disagg_hwsim::trace::{Trace, TraceEvent};

use crate::hotness::HotnessTracker;
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

/// A tier list, fastest first, with promote/demote watermarks.
#[derive(Debug, Clone)]
pub struct TieringPolicy {
    /// Devices ordered fastest → slowest.
    pub tiers: Vec<MemDeviceId>,
    /// Regions with hotness score at or above this are promotion
    /// candidates.
    pub promote_score: f64,
    /// Regions with score strictly below this are demotion candidates.
    pub demote_score: f64,
    /// Do not fill a faster tier beyond this utilization when promoting.
    pub high_watermark: f64,
}

impl TieringPolicy {
    /// A sensible default policy over the given tier order.
    pub fn new(tiers: Vec<MemDeviceId>) -> Self {
        TieringPolicy {
            tiers,
            promote_score: 8.0,
            demote_score: 1.0,
            high_watermark: 0.9,
        }
    }

    /// Builds a tier order from the topology itself: every memory device,
    /// fastest (lowest read latency) first. Storage-class devices make
    /// natural demotion targets; the watermark keeps promotion sane.
    pub fn by_latency(topo: &Topology) -> Self {
        let mut tiers: Vec<MemDeviceId> = topo.mem_ids().collect();
        tiers.sort_by(|&a, &b| {
            topo.mem(a)
                .read_lat_ns
                .total_cmp(&topo.mem(b).read_lat_ns)
                .then(a.cmp(&b))
        });
        TieringPolicy::new(tiers)
    }

    fn tier_rank(&self, dev: MemDeviceId) -> Option<usize> {
        self.tiers.iter().position(|&d| d == dev)
    }

    /// True if moving the region to `target` would not break its declared
    /// properties (persistence, coherence, sync capability are device
    /// attributes; latency/bandwidth classes are re-audited by the caller
    /// against the actual accessor).
    fn target_safe(mgr: &RegionManager, topo: &Topology, id: RegionId, target: MemDeviceId) -> bool {
        let Ok(meta) = mgr.meta(id) else { return false };
        let dev = topo.mem(target);
        if meta.props.persistent && !dev.persistent {
            return false;
        }
        if meta.props.coherent && !dev.coherent {
            return false;
        }
        if meta.props.mode == crate::props::AccessMode::Sync && !dev.sync.allows_sync() {
            return false;
        }
        true
    }

    /// Plans migrations: hot regions move one tier up (if capacity under
    /// the watermark allows), cold regions move one tier down. Declared
    /// properties are never violated: a persistent region will not be
    /// "promoted" onto volatile memory. Returns `(region, destination)`
    /// pairs; the caller executes them with [`migrate`].
    pub fn plan(
        &self,
        mgr: &RegionManager,
        topo: &Topology,
        hotness: &HotnessTracker,
    ) -> Vec<(RegionId, MemDeviceId)> {
        let mut planned: Vec<(RegionId, MemDeviceId)> = Vec::new();
        // Track planned inflow so one pass doesn't overshoot a watermark.
        let mut planned_in: Vec<u64> = vec![0; self.tiers.len()];

        for (id, score) in hotness.hot(self.promote_score) {
            let Ok(p) = mgr.placement(id) else { continue };
            let Some(rank) = self.tier_rank(p.dev) else { continue };
            if rank == 0 {
                continue; // Already in the fastest tier.
            }
            // Climb to the highest safe tier with watermark headroom.
            let pool = mgr.pool();
            let target = (0..rank)
                .find(|&t| {
                    let up = self.tiers[t];
                    let would_use = pool.allocated(up) + planned_in[t] + p.size;
                    Self::target_safe(mgr, topo, id, up)
                        && (would_use as f64) <= self.high_watermark * pool.capacity(up) as f64
                });
            if let Some(t) = target {
                planned_in[t] += p.size;
                planned.push((id, self.tiers[t]));
                let _ = score;
            }
        }
        for (id, _score) in hotness.cold(self.demote_score) {
            let Ok(p) = mgr.placement(id) else { continue };
            let Some(rank) = self.tier_rank(p.dev) else { continue };
            if rank + 1 >= self.tiers.len() {
                continue; // Already in the slowest tier.
            }
            let down = self.tiers[rank + 1];
            if Self::target_safe(mgr, topo, id, down) {
                planned.push((id, down));
            }
        }
        planned
    }
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

    #[test]
    fn tiering_promotes_hot_and_demotes_cold() {
        let (_topo, mut mgr, dram, cxl) = setup();
        let hot = alloc(&mut mgr, cxl, 256);
        let cold = alloc(&mut mgr, dram, 256);
        let mut tracker = HotnessTracker::new();
        for _ in 0..20 {
            tracker.record(hot, 64, SimTime(0));
        }
        tracker.record(cold, 64, SimTime(0));
        for _ in 0..8 {
            tracker.decay();
        }
        // Re-heat the hot region after decay.
        for _ in 0..20 {
            tracker.record(hot, 64, SimTime(1));
        }
        let policy = TieringPolicy::new(vec![dram, cxl]);
        let plan = policy.plan(&mgr, &_topo, &tracker);
        assert!(plan.contains(&(hot, dram)), "hot region promotes to DRAM");
        assert!(plan.contains(&(cold, cxl)), "cold region demotes to CXL");
    }

    #[test]
    fn tiering_respects_high_watermark() {
        let (_topo, mut mgr, dram, cxl) = setup();
        // Fill DRAM (4096 B) beyond the 90% watermark.
        let _filler = alloc(&mut mgr, dram, 3800);
        let hot = alloc(&mut mgr, cxl, 1024);
        let mut tracker = HotnessTracker::new();
        for _ in 0..50 {
            tracker.record(hot, 64, SimTime(0));
        }
        let policy = TieringPolicy::new(vec![dram, cxl]);
        let plan = policy.plan(&mgr, &_topo, &tracker);
        assert!(
            !plan.iter().any(|&(r, _)| r == hot),
            "promotion must not breach the watermark"
        );
    }

    #[test]
    fn tiering_ignores_regions_already_in_extreme_tiers() {
        let (_topo, mut mgr, dram, cxl) = setup();
        let hot_in_fast = alloc(&mut mgr, dram, 64);
        let cold_in_slow = alloc(&mut mgr, cxl, 64);
        let mut tracker = HotnessTracker::new();
        for _ in 0..50 {
            tracker.record(hot_in_fast, 64, SimTime(0));
        }
        tracker.record(cold_in_slow, 1, SimTime(0));
        // Make the cold one *actually* cold.
        for _ in 0..10 {
            tracker.decay();
        }
        for _ in 0..50 {
            tracker.record(hot_in_fast, 64, SimTime(1));
        }
        let policy = TieringPolicy::new(vec![dram, cxl]);
        let plan = policy.plan(&mgr, &_topo, &tracker);
        assert!(plan.is_empty(), "nothing to do: {plan:?}");
    }
}
