//! Hotness-driven tiering as a placement decision.
//!
//! A hot region moves to the faster tier the [`PlacementEngine`] prefers
//! among those filled under the watermark, a cold one to the next tier
//! down. The engine's filter holds as for any placement (declared
//! properties from the vantage compute, free capacity, liveness); tiering
//! adds its tier rule and a route from the region's current device.

use disagg_hwsim::contention::BandwidthLedger;
use disagg_hwsim::fault::FaultInjector;
use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;
use disagg_hwsim::trace::Trace;
use disagg_region::migrate::migrate;
use disagg_region::pool::RegionId;
use disagg_region::region::RegionManager;

use crate::placement::PlacementEngine;

/// The hotness score at or above which a region is promoted.
const PROMOTE_SCORE: f64 = 4.0;
/// The hotness score below which a region is demoted.
const DEMOTE_SCORE: f64 = 0.5;
/// A promotion fills a faster tier to at most this share of its capacity.
const HIGH_WATERMARK: f64 = 0.9;

/// A tier list, fastest first.
#[derive(Debug, Clone)]
pub struct TieringPolicy {
    /// Devices ordered fastest → slowest.
    pub tiers: Vec<MemDeviceId>,
}

impl TieringPolicy {
    /// A policy over the given tier order.
    pub fn new(tiers: Vec<MemDeviceId>) -> Self {
        TieringPolicy { tiers }
    }

    /// Every memory device of the topology, fastest (lowest read latency)
    /// first.
    pub fn by_latency(topo: &Topology) -> Self {
        let mut tiers: Vec<MemDeviceId> = topo.mem_ids().collect();
        // A stable sort: devices of equal latency stay in id order.
        tiers.sort_by(|&a, &b| topo.mem(a).read_lat_ns.total_cmp(&topo.mem(b).read_lat_ns));
        TieringPolicy::new(tiers)
    }

    /// One tiering pass at `now`, placing from the compute `from`: hot
    /// regions (hottest first), then cold ones (coldest first), each
    /// migrated as soon as the engine picks its target. A region with no
    /// acceptable target, or whose copy the target's arena refuses, stays.
    /// Returns every move with its copy time, and the pass's duration:
    /// the copies run in parallel, so it is the longest one.
    #[allow(clippy::too_many_arguments)]
    pub fn apply(
        &self,
        engine: &mut PlacementEngine,
        mgr: &mut RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        trace: &mut Trace,
        faults: &FaultInjector,
        from: ComputeId,
        now: SimTime,
    ) -> (Vec<(RegionId, MemDeviceId, SimDuration)>, SimDuration) {
        let hot = mgr.hotness().hot(PROMOTE_SCORE).into_iter().map(|(id, _)| (id, true));
        let cold = mgr.hotness().cold(DEMOTE_SCORE).into_iter().map(|(id, _)| (id, false));
        let (mut moved, mut longest) = (Vec::new(), SimDuration::ZERO);
        for (id, promote) in hot.chain(cold) {
            let (Ok(meta), Ok(at)) = (mgr.meta(id), mgr.placement(id)) else { continue };
            let Some(rank) = self.tiers.iter().position(|&d| d == at.dev) else { continue };
            let pool = mgr.pool();
            let under_watermark =
                |d| (pool.allocated(d) + at.size) as f64 <= HIGH_WATERMARK * pool.capacity(d) as f64;
            let allowed = |d: MemDeviceId| {
                let tier = if promote {
                    self.tiers[..rank].contains(&d) && under_watermark(d)
                } else {
                    self.tiers.get(rank + 1) == Some(&d)
                };
                tier && topo.mem_path(at.dev, d).is_some()
            };
            let props = &meta.props;
            let Some(to) = engine.choose_where(topo, pool, faults, from, props, at.size, now, allowed)
            else {
                continue;
            };
            if let Ok((_, took)) = migrate(mgr, topo, ledger, trace, id, to, now) {
                longest = longest.max(took);
                moved.push((id, to, took));
            }
        }
        (moved, longest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::compute::{ComputeKind, ComputeModel};
    use disagg_hwsim::device::{MemDeviceKind, MemDeviceModel};
    use disagg_hwsim::topology::LinkKind;
    use disagg_region::props::PropertySet;
    use disagg_region::region::OwnerId;
    use disagg_region::typed::RegionType;

    const WHO: OwnerId = OwnerId::App;

    /// One host: a CPU, 4 KiB of DRAM and 1 MiB of CXL memory.
    fn setup() -> (Topology, RegionManager, ComputeId, MemDeviceId, MemDeviceId) {
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
        (topo, mgr, cpu, dram, cxl)
    }

    fn alloc(mgr: &mut RegionManager, dev: MemDeviceId, size: u64) -> RegionId {
        mgr.alloc(dev, size, RegionType::GlobalScratch, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap()
    }

    fn heat(mgr: &mut RegionManager, id: RegionId, accesses: usize, at: u64) {
        for _ in 0..accesses {
            mgr.hotness_mut().record(id, 64, SimTime(at));
        }
    }

    /// One calm pass at time zero; what moved, as `(region, target)`.
    fn pass(
        policy: &TieringPolicy,
        mgr: &mut RegionManager,
        topo: &Topology,
        cpu: ComputeId,
    ) -> Vec<(RegionId, MemDeviceId)> {
        let mut engine = PlacementEngine::default();
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::disabled();
        let calm = FaultInjector::none();
        let (moved, _) = policy.apply(
            &mut engine, mgr, topo, &mut ledger, &mut trace, &calm, cpu, SimTime::ZERO,
        );
        moved.into_iter().map(|(id, to, _)| (id, to)).collect()
    }

    #[test]
    fn tiering_promotes_hot_and_demotes_cold() {
        let (topo, mut mgr, cpu, dram, cxl) = setup();
        let hot = alloc(&mut mgr, cxl, 256);
        let cold = alloc(&mut mgr, dram, 256);
        heat(&mut mgr, hot, 20, 0);
        heat(&mut mgr, cold, 1, 0);
        for _ in 0..8 {
            mgr.hotness_mut().decay();
        }
        // Re-heat the hot region after decay.
        heat(&mut mgr, hot, 20, 1);
        let policy = TieringPolicy::new(vec![dram, cxl]);
        let plan = pass(&policy, &mut mgr, &topo, cpu);
        assert!(plan.contains(&(hot, dram)), "hot region promotes to DRAM");
        assert!(plan.contains(&(cold, cxl)), "cold region demotes to CXL");
    }

    #[test]
    fn tiering_respects_high_watermark() {
        let (topo, mut mgr, cpu, dram, cxl) = setup();
        // DRAM (4096 B) has room for the hot region, but taking it would
        // fill DRAM beyond the 90% watermark.
        let _filler = alloc(&mut mgr, dram, 3000);
        let hot = alloc(&mut mgr, cxl, 1024);
        heat(&mut mgr, hot, 50, 0);
        let policy = TieringPolicy::new(vec![dram, cxl]);
        let plan = pass(&policy, &mut mgr, &topo, cpu);
        assert!(
            !plan.iter().any(|&(r, _)| r == hot),
            "promotion must not breach the watermark"
        );
    }

    #[test]
    fn tiering_ignores_regions_already_in_extreme_tiers() {
        let (topo, mut mgr, cpu, dram, cxl) = setup();
        let hot_in_fast = alloc(&mut mgr, dram, 64);
        let cold_in_slow = alloc(&mut mgr, cxl, 64);
        heat(&mut mgr, hot_in_fast, 50, 0);
        mgr.hotness_mut().record(cold_in_slow, 1, SimTime(0));
        // Make the cold one *actually* cold.
        for _ in 0..10 {
            mgr.hotness_mut().decay();
        }
        heat(&mut mgr, hot_in_fast, 50, 1);
        let policy = TieringPolicy::new(vec![dram, cxl]);
        let plan = pass(&policy, &mut mgr, &topo, cpu);
        assert!(plan.is_empty(), "nothing to do: {plan:?}");
    }
}
