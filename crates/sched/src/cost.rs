//! The topology-aware cost model.
//!
//! The paper's RTS "must schedule and map tasks to different types of
//! devices using cost models that consider topology and access paths". The
//! [`CostModel`] estimates, for a declarative memory request, how expensive
//! it would be to serve that request from each candidate device *as seen
//! from the executing compute device* — the quantity the placement
//! optimizer minimizes. It combines:
//!
//! - what the region's accesses cost uncontended: the declared volume
//!   touched in `typical_bytes` calls of the declared pattern and
//!   dominant op, each priced by the one access formula
//!   ([`AccessCostParts::of`]) exactly as the region accessor charges it;
//! - a contention estimate from the device's current utilization; and
//! - a small capacity-pressure and dollar-cost tiebreaker, so equal
//!   candidates prefer the cheaper, emptier device.

use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::topology::{AccessCostParts, Topology};
use disagg_region::pool::MemoryPool;
use disagg_region::props::PropertySet;

// The weights of the score. No experiment re-weights the model, so they
// are constants: the placement engine's score table can then be keyed on
// the request and the topology alone.
/// Multiplier applied per unit of current device utilization.
const W_CONTENTION: f64 = 1.0;
/// Weight of the capacity-pressure tiebreaker.
const W_PRESSURE: f64 = 0.05;
/// Weight of the dollar-cost tiebreaker.
const W_DOLLARS: f64 = 0.01;

/// Ablation switch: ignore the interconnect path entirely (treat every
/// device as if it were local). Used by `ingredients` (E3) to show what
/// topology awareness buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologyAwareness {
    /// Full path costs (the real model).
    #[default]
    Aware,
    /// Pretend all devices are directly attached.
    Blind,
}

/// The utilization-independent part of a score (see
/// [`CostModel::static_score`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticScore {
    /// The uncontended cost of the region's accesses, nanoseconds.
    base: f64,
    /// The dollar-cost tiebreaker.
    dollars: f64,
}

/// The cost model.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    /// Topology awareness (ablation switch).
    pub awareness: TopologyAwareness,
}

impl CostModel {
    /// The topology-aware model.
    pub fn new() -> Self {
        CostModel::default()
    }

    /// Estimated cost (virtual nanoseconds, lower is better) of serving a
    /// region with `props` of `size` bytes from `dev`, accessed by a task
    /// on `compute`. Returns `None` when the device is unreachable or the
    /// hard properties are unsatisfiable there.
    ///
    /// `utilization` is the device's current memory-capacity utilization
    /// in `[0, 1]`, used as the contention proxy.
    ///
    /// This is [`static_score`](Self::static_score) followed by
    /// [`finish`](Self::finish): the reference the placement engine's
    /// score table is checked against, and what `rank` uses.
    pub fn score(
        &self,
        topo: &Topology,
        compute: ComputeId,
        dev: MemDeviceId,
        props: &PropertySet,
        size: u64,
        utilization: f64,
    ) -> Option<f64> {
        self.static_score(topo, compute, dev, props, size)
            .map(|s| self.finish(s, utilization))
    }

    /// The part of [`score`](Self::score) that does not depend on the
    /// device's utilization: feasibility, the uncontended access cost,
    /// and the dollar tiebreaker. It reads the topology
    /// (path and device model), the awareness switch, `size`, and these
    /// `props` fields: the two requirement classes, `persistent`,
    /// `coherent`, `mode`, and from the hint the dominant op, the pattern
    /// and `typical_bytes`.
    pub fn static_score(
        &self,
        topo: &Topology,
        compute: ComputeId,
        dev: MemDeviceId,
        props: &PropertySet,
        size: u64,
    ) -> Option<StaticScore> {
        let real_path = topo.path(compute, dev)?;
        let path = match self.awareness {
            TopologyAwareness::Aware => real_path,
            TopologyAwareness::Blind => disagg_hwsim::topology::PathCost::LOCAL,
        };
        if !props.satisfied_by(topo.mem(dev), path) {
            return None;
        }
        let model = topo.mem(dev);
        // The body touches the region in `typical_bytes` calls (one call
        // for a smaller region); each costs what the accessor charges
        // it, unrounded.
        let chunk = props.hint.typical_bytes.max(1).min(size.max(1));
        let chunks = (size.max(1) as f64 / chunk as f64).ceil();
        let parts =
            AccessCostParts::of(model, path, chunk, props.hint.dominant_op(), props.hint.pattern);
        Some(StaticScore {
            base: chunks * (parts.latency_ns + parts.eff_bytes as f64 / parts.bandwidth_bpns),
            dollars: W_DOLLARS * model.cost_per_gib,
        })
    }

    /// Completes a [`StaticScore`] with the device's current
    /// utilization. The three operations and their order are part of the
    /// goldens: every placement tie-break compares these `f64`s bit for
    /// bit.
    pub fn finish(&self, s: StaticScore, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let contended = s.base * (1.0 + W_CONTENTION * u);
        let pressure = W_PRESSURE * s.base * u;
        contended + pressure + s.dollars
    }

    /// Scores every feasible device, cheapest first.
    pub fn rank(
        &self,
        topo: &Topology,
        pool: &MemoryPool,
        compute: ComputeId,
        props: &PropertySet,
        size: u64,
    ) -> Vec<(MemDeviceId, f64)> {
        let mut out: Vec<(MemDeviceId, f64)> = topo
            .mem_ids()
            .filter(|&d| pool.capacity(d) - pool.allocated(d) >= size)
            .filter_map(|d| {
                self.score(topo, compute, d, props, size, pool.utilization(d))
                    .map(|s| (d, s))
            })
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::presets::single_server;
    use disagg_region::props::{AccessHint, AccessMode, LatencyClass};

    #[test]
    fn dram_beats_cxl_for_random_low_latency_from_cpu() {
        let (topo, ids) = single_server();
        let m = CostModel::new();
        let props = PropertySet::new().with_hint(AccessHint::random_reads());
        let dram = m.score(&topo, ids.cpu, ids.dram, &props, 1 << 20, 0.0).unwrap();
        let cxl = m.score(&topo, ids.cpu, ids.cxl, &props, 1 << 20, 0.0).unwrap();
        assert!(dram < cxl);
    }

    #[test]
    fn gddr_beats_dram_from_the_gpu() {
        let (topo, ids) = single_server();
        let m = CostModel::new();
        let props = PropertySet::new().with_hint(AccessHint::mixed_random());
        let gddr = m.score(&topo, ids.gpu, ids.gddr, &props, 1 << 20, 0.0).unwrap();
        let dram = m.score(&topo, ids.gpu, ids.dram, &props, 1 << 20, 0.0).unwrap();
        assert!(gddr < dram, "GDDR {gddr} should beat DRAM {dram} from GPU");
    }

    #[test]
    fn dram_beats_gddr_from_the_cpu() {
        let (topo, ids) = single_server();
        let m = CostModel::new();
        let props = PropertySet::new().with_hint(AccessHint::mixed_random());
        let dram = m.score(&topo, ids.cpu, ids.dram, &props, 1 << 20, 0.0).unwrap();
        let gddr = m.score(&topo, ids.cpu, ids.gddr, &props, 1 << 20, 0.0).unwrap();
        assert!(dram < gddr, "DRAM {dram} should beat GDDR {gddr} from CPU");
    }

    #[test]
    fn infeasible_properties_score_none() {
        let (topo, ids) = single_server();
        let m = CostModel::new();
        let persistent = PropertySet::new().persistent(true);
        assert!(m.score(&topo, ids.cpu, ids.dram, &persistent, 64, 0.0).is_none());
        assert!(m.score(&topo, ids.cpu, ids.pmem, &persistent, 64, 0.0).is_some());
        let low_lat = PropertySet::new().with_latency(LatencyClass::Low);
        assert!(m.score(&topo, ids.cpu, ids.far, &low_lat, 64, 0.0).is_none());
    }

    #[test]
    fn utilization_inflates_cost() {
        let (topo, ids) = single_server();
        let m = CostModel::new();
        let props = PropertySet::new();
        let idle = m.score(&topo, ids.cpu, ids.dram, &props, 1 << 20, 0.0).unwrap();
        let busy = m.score(&topo, ids.cpu, ids.dram, &props, 1 << 20, 0.9).unwrap();
        assert!(busy > idle);
    }

    #[test]
    fn rank_orders_feasible_devices_cheapest_first() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let m = CostModel::new();
        let props = PropertySet::new().with_hint(AccessHint::random_reads());
        let ranked = m.rank(&topo, &pool, ids.cpu, &props, 1 << 20);
        assert!(!ranked.is_empty());
        // Cache is the fastest feasible device for small random reads.
        assert_eq!(ranked[0].0, ids.cache);
        for w in ranked.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn rank_respects_free_capacity() {
        let (topo, ids) = single_server();
        let mut pool = MemoryPool::new(&topo);
        // Fill the cache completely.
        let cache_cap = pool.capacity(ids.cache);
        pool.alloc(ids.cache, cache_cap).unwrap();
        let m = CostModel::new();
        let ranked = m.rank(&topo, &pool, ids.cpu, &PropertySet::new(), 1 << 20);
        assert!(ranked.iter().all(|&(d, _)| d != ids.cache));
    }

    #[test]
    fn blind_model_cannot_tell_local_from_remote() {
        let (topo, ids) = single_server();
        let blind = CostModel { awareness: TopologyAwareness::Blind };
        let props = PropertySet::new()
            .with_mode(AccessMode::Async)
            .with_hint(AccessHint::streaming());
        // Blind to the NIC hop, far memory's rated bandwidth looks fine.
        let far_blind = blind.score(&topo, ids.cpu, ids.far, &props, 1 << 20, 0.0).unwrap();
        let aware = CostModel::new();
        let far_aware = aware.score(&topo, ids.cpu, ids.far, &props, 1 << 20, 0.0).unwrap();
        assert!(far_blind <= far_aware);
    }

    #[test]
    fn streaming_hint_tolerates_latency_random_does_not() {
        let (topo, ids) = single_server();
        let m = CostModel::new();
        // Far memory: 25x the latency of DRAM but only 8x less bandwidth.
        // Random access should therefore hate it much more than streaming.
        let streaming = PropertySet::new()
            .with_mode(AccessMode::Async)
            .with_hint(AccessHint::streaming());
        let random = PropertySet::new()
            .with_mode(AccessMode::Async)
            .with_hint(AccessHint::random_reads());
        let ratio = |p: &PropertySet| {
            let d = m.score(&topo, ids.cpu, ids.dram, p, 64 << 20, 0.0).unwrap();
            let f = m.score(&topo, ids.cpu, ids.far, p, 64 << 20, 0.0).unwrap();
            f / d
        };
        assert!(ratio(&random) > ratio(&streaming));
    }

    /// What an `Accessor` charges one access of `bytes` to a fresh
    /// region on `dev` from `compute`, on an idle ledger.
    fn accessor_charge(
        topo: &Topology,
        compute: ComputeId,
        dev: MemDeviceId,
        bytes: u64,
        hint: AccessHint,
    ) -> f64 {
        use disagg_hwsim::contention::BandwidthLedger;
        use disagg_hwsim::device::AccessOp;
        use disagg_hwsim::time::SimTime;
        use disagg_hwsim::trace::Trace;
        use disagg_region::access::Accessor;
        use disagg_region::region::{OwnerId, RegionManager};
        use disagg_region::typed::RegionType;

        const WHO: OwnerId = OwnerId::App;
        let mut mgr = RegionManager::new(topo);
        let props = PropertySet::new();
        let region = mgr
            .alloc(dev, bytes, RegionType::GlobalScratch, props, WHO, SimTime::ZERO)
            .unwrap();
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::disabled();
        let mut acc =
            Accessor::new(topo, &mut ledger, &mut mgr, &mut trace, compute, WHO, SimTime::ZERO);
        let mut buf = vec![0u8; bytes as usize];
        let took = match hint.dominant_op() {
            AccessOp::Read => acc.read(region, 0, &mut buf, hint.pattern),
            AccessOp::Write => acc.write(region, 0, &buf, hint.pattern),
        };
        took.unwrap().as_nanos_f64()
    }

    #[test]
    fn the_placement_estimate_is_the_accessors_charge() {
        use disagg_hwsim::device::AccessPattern;
        use disagg_hwsim::presets::disaggregated_rack;

        let (server, ids) = single_server();
        let (rack, r) = disaggregated_rack(2, 32, 2, 64);
        let m = CostModel::new();
        let mut checked = 0;
        for (topo, compute) in [(&server, ids.cpu), (&rack, r.cpus[0])] {
            for dev in topo.mem_ids().filter(|&d| topo.reachable(compute, d)) {
                for pattern in [AccessPattern::Random, AccessPattern::Sequential] {
                    for read_fraction in [1.0, 0.0] {
                        for typical_bytes in [1, 64, 256, 4096, 1 << 20] {
                            let hint = AccessHint { pattern, read_fraction, typical_bytes };
                            let props = PropertySet::new().with_mode(AccessMode::Async).with_hint(hint);
                            for size in [0u64, 1, 63, 4096, 1 << 20] {
                                let base = m
                                    .static_score(topo, compute, dev, &props, size)
                                    .expect("every reachable device takes an async request")
                                    .base;
                                // The region is touched in chunks of `typical_bytes`.
                                let chunk = typical_bytes.min(size.max(1));
                                let chunks = size.max(1).div_ceil(chunk) as f64;
                                let charged = chunks * accessor_charge(topo, compute, dev, chunk, hint);
                                assert!(
                                    (base - charged).abs() <= chunks,
                                    "{dev} {hint:?} size {size}: estimate {base} vs charged {charged}"
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(checked >= 1000, "{checked} cases");
    }

    #[test]
    fn async_mode_unlocks_storage_devices() {
        let (topo, ids) = single_server();
        let m = CostModel::new();
        let sync = PropertySet::new();
        let async_ = PropertySet::new().with_mode(AccessMode::Async);
        assert!(m.score(&topo, ids.cpu, ids.ssd, &sync, 64, 0.0).is_none());
        assert!(m.score(&topo, ids.cpu, ids.ssd, &async_, 64, 0.0).is_some());
    }
}
