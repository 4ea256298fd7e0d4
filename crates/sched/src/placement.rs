//! The placement optimizer — and the baselines the paper argues against.
//!
//! Placement turns a declarative memory request into a physical device:
//! filter the devices that satisfy the hard properties *as seen from the
//! executing compute device*, then take the cost-model argmin. For
//! dataflow outputs the optimizer also considers the consumers' compute
//! devices ([`PlacementEngine::choose_shared`]) so that handover can be a
//! pure ownership transfer instead of a copy. A caller with a constraint
//! of its own (the heal, tiering) narrows the filter with
//! [`PlacementEngine::choose_where`].
//!
//! Placement is fault-aware: every entry point takes the allocation time
//! and the run's fault plan, and skips every device that is not
//! [usable](FaultInjector::usable) then from the computes that will touch
//! it. An empty plan is checked once per placement, outside the device
//! loop, so the calm path is the fault-blind one.
//!
//! Three strategies are provided because the paper's Figure 1 is a
//! comparison: the **declarative** memory-centric optimizer (our vision),
//! the **compute-centric** strategy (always use the executing device's
//! local memory — today's default), and a **worst-feasible** adversary
//! used to bound how bad naïve placement can get (experiment E9).

use disagg_hwsim::device::{AccessOp, AccessPattern};
use disagg_hwsim::fault::{FaultInjector, Target};
use disagg_hwsim::fx::FxHashMap;
use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::time::SimTime;
use disagg_hwsim::topology::Topology;
use disagg_region::pool::MemoryPool;
use disagg_region::props::PropertySet;

use crate::cost::{CostModel, StaticScore, TopologyAwareness};

/// Placement strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// The memory-centric optimizer: hard-property filter + cost argmin.
    #[default]
    Declarative,
    /// Compute-centric: always the executing device's local memory (fall
    /// back to the cheapest feasible device only when locals are full or
    /// infeasible). Models today's explicit placement.
    ComputeCentric,
    /// Adversarial: the *worst* feasible device. Bounds naïve placement.
    WorstFeasible,
    /// First feasible device in id order, ignoring cost entirely. Models
    /// a naive allocator with no cost model.
    FirstFit,
}

/// What a [`ScoreTable`] row is keyed on: the executing device, the
/// request size, and every [`PropertySet`] field
/// [`CostModel::static_score`] reads (`confidential` is not one). The
/// small fields share one word so a lookup hashes three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RowKey {
    /// `compute` in the high half; below it a byte each for the latency
    /// class, the bandwidth class, the access mode, and one of flags
    /// (dominant op, pattern, persistent, coherent).
    who_and_how: u64,
    size: u64,
    typical_bytes: u64,
}

impl RowKey {
    fn new(compute: ComputeId, props: &PropertySet, size: u64) -> RowKey {
        let flags = u64::from(props.hint.dominant_op() == AccessOp::Write)
            | u64::from(props.hint.pattern == AccessPattern::Random) << 1
            | u64::from(props.persistent) << 2
            | u64::from(props.coherent) << 3;
        RowKey {
            who_and_how: u64::from(compute.0) << 32
                | (props.latency as u64) << 24
                | (props.bandwidth as u64) << 16
                | (props.mode as u64) << 8
                | flags,
            size,
            typical_bytes: props.hint.typical_bytes,
        }
    }
}

/// The utilization-independent part of every score the engine has been
/// asked for, one row of [`CostModel::static_score`] results per
/// [`RowKey`] with one cell per memory device (`None`: infeasible),
/// filled on first use. A placement then costs one row lookup per
/// accessor and one [`CostModel::finish`] per feasible device.
#[derive(Debug, Default)]
struct ScoreTable {
    /// Fingerprint of the topology the cells were computed from. A
    /// caller may pass another topology, so it is compared on every
    /// placement and a mismatch empties the table. (The engine's model
    /// is fixed at construction.)
    topo: u64,
    /// Row key → offset of the row's first cell.
    rows: FxHashMap<RowKey, u32>,
    cells: Vec<Option<StaticScore>>,
}

impl ScoreTable {
    /// Rows kept before the table starts over. Runs place a handful of
    /// region shapes (a few KiB of table); one that draws a fresh size
    /// per request would otherwise grow it without bound, and refilling
    /// a row costs what every placement cost before there was a table.
    const MAX_ROWS: usize = 1024;

    /// Readies the table for one placement that will ask for up to
    /// `rows` rows: empties it if it was filled under another topology,
    /// or has no room left. (Once per placement, not per row:
    /// `choose_shared` holds row offsets across its lookups.)
    fn prepare(&mut self, topo: &Topology, rows: usize) {
        let fingerprint = topo.fingerprint();
        if self.topo != fingerprint || self.rows.len() + rows > Self::MAX_ROWS {
            self.rows.clear();
            self.cells.clear();
            self.topo = fingerprint;
        }
    }

    /// Offset into `cells` of the row for `(compute, props, size)`,
    /// after [`prepare`](Self::prepare).
    fn row(
        &mut self,
        model: &CostModel,
        topo: &Topology,
        compute: ComputeId,
        props: &PropertySet,
        size: u64,
    ) -> usize {
        let cells = &mut self.cells;
        *self.rows.entry(RowKey::new(compute, props, size)).or_insert_with(|| {
            let at = cells.len() as u32;
            cells.extend(
                topo.mem_ids()
                    .map(|dev| model.static_score(topo, compute, dev, props, size)),
            );
            at
        }) as usize
    }
}

/// Resolves declarative requests to devices under a chosen policy.
#[derive(Debug, Default)]
pub struct PlacementEngine {
    /// The cost model used for ranking, fixed at construction (the
    /// score table is filled under it).
    model: CostModel,
    /// Active policy.
    pub policy: PlacementPolicy,
    table: ScoreTable,
    /// `choose_shared`'s row offsets, one per accessor (accessor lists
    /// are not deduplicated and have no fixed bound).
    shared_rows: Vec<usize>,
}

impl PlacementEngine {
    /// An engine with the given policy and the topology-aware cost model.
    pub fn new(policy: PlacementPolicy) -> Self {
        PlacementEngine::with_awareness(policy, TopologyAwareness::Aware)
    }

    /// An engine whose cost model sees interconnect paths, or not (the
    /// topology-blind column of `ingredients`).
    pub fn with_awareness(policy: PlacementPolicy, awareness: TopologyAwareness) -> Self {
        PlacementEngine {
            model: CostModel { awareness },
            policy,
            ..PlacementEngine::default()
        }
    }

    /// Chooses a device for a request from a single compute device,
    /// among those `faults` leaves usable from it at `at`.
    #[allow(clippy::too_many_arguments)]
    pub fn choose(
        &mut self,
        topo: &Topology,
        pool: &MemoryPool,
        faults: &FaultInjector,
        compute: ComputeId,
        props: &PropertySet,
        size: u64,
        at: SimTime,
    ) -> Option<MemDeviceId> {
        self.choose_where(topo, pool, faults, compute, props, size, at, |_| true)
    }

    /// [`choose`](Self::choose) among the devices `keep` accepts, a
    /// caller's constraint on top of the engine's filter.
    #[allow(clippy::too_many_arguments)]
    pub fn choose_where(
        &mut self,
        topo: &Topology,
        pool: &MemoryPool,
        faults: &FaultInjector,
        compute: ComputeId,
        props: &PropertySet,
        size: u64,
        at: SimTime,
        keep: impl Fn(MemDeviceId) -> bool,
    ) -> Option<MemDeviceId> {
        self.pick(topo, pool, faults, compute, props, size, at, keep).map(|(dev, _)| dev)
    }

    /// Chooses a device for a region that several compute devices will
    /// touch (a producer's output and its consumers): every listed device
    /// must be able to address it, and the policy ranks the devices by
    /// summed cost (compute-centric: the first accessor's local memory
    /// first). This is what makes output→input handover an ownership
    /// transfer. A device `faults` leaves unusable at `at` from any of
    /// them is skipped.
    #[allow(clippy::too_many_arguments)]
    pub fn choose_shared(
        &mut self,
        topo: &Topology,
        pool: &MemoryPool,
        faults: &FaultInjector,
        computes: &[ComputeId],
        props: &PropertySet,
        size: u64,
        at: SimTime,
    ) -> Option<MemDeviceId> {
        self.pick_shared(topo, pool, faults, computes, props, size, at).map(|(dev, _)| dev)
    }

    /// [`choose_where`](Self::choose_where)'s device and its score.
    ///
    /// One streaming pass over the devices instead of building and
    /// sorting a ranked `Vec` per call (this sits under every region
    /// allocation): each policy's pick is a running extremum over the
    /// feasible set, reproducing exactly what the former
    /// rank-then-select computed. Devices are visited in id order, so
    /// "keep the earlier on ties" selects the smaller id (the sort's
    /// tie-break) and "replace on ties" the larger.
    #[allow(clippy::too_many_arguments)]
    fn pick(
        &mut self,
        topo: &Topology,
        pool: &MemoryPool,
        faults: &FaultInjector,
        compute: ComputeId,
        props: &PropertySet,
        size: u64,
        at: SimTime,
        keep: impl Fn(MemDeviceId) -> bool,
    ) -> Option<(MemDeviceId, f64)> {
        use std::cmp::Ordering;

        let locals = match self.policy {
            PlacementPolicy::ComputeCentric => Some(&topo.compute(compute).local_mem),
            _ => None,
        };
        self.table.prepare(topo, 1);
        let row = self.table.row(&self.model, topo, compute, props, size);
        // Minimum (score, id): Declarative's pick and everyone's fallback.
        let mut best: Option<(MemDeviceId, f64)> = None;
        // Maximum (score, id): WorstFeasible's pick.
        let mut worst: Option<(MemDeviceId, f64)> = None;
        // First feasible in id order: FirstFit's pick.
        let mut first: Option<(MemDeviceId, f64)> = None;
        // Minimum (score, id) among the executor's local devices.
        let mut best_local: Option<(MemDeviceId, f64)> = None;
        let faulty = !faults.is_empty();
        let cells = &self.table.cells[row..];
        for (dev, cell) in topo.mem_ids().zip(cells) {
            if pool.capacity(dev) - pool.allocated(dev) < size {
                continue;
            }
            let Some(cell) = *cell else {
                continue;
            };
            if !keep(dev)
                || faulty && !faults.usable(topo, Target::Mem { dev, from: Some(compute) }, at)
            {
                continue;
            }
            let score = self.model.finish(cell, pool.utilization(dev));
            if first.is_none() {
                first = Some((dev, score));
            }
            if best.is_none_or(|(_, b)| score.total_cmp(&b) == Ordering::Less) {
                best = Some((dev, score));
            }
            if worst.is_none_or(|(_, w)| score.total_cmp(&w) != Ordering::Less) {
                worst = Some((dev, score));
            }
            if locals.is_some_and(|l| l.contains(&dev))
                && best_local.is_none_or(|(_, b)| score.total_cmp(&b) == Ordering::Less)
            {
                best_local = Some((dev, score));
            }
        }
        match self.policy {
            PlacementPolicy::Declarative => best,
            PlacementPolicy::WorstFeasible => worst,
            PlacementPolicy::FirstFit => first,
            PlacementPolicy::ComputeCentric => best_local.or(best),
        }
    }

    /// [`choose_shared`](Self::choose_shared)'s device and its summed
    /// score.
    #[allow(clippy::too_many_arguments)]
    fn pick_shared(
        &mut self,
        topo: &Topology,
        pool: &MemoryPool,
        faults: &FaultInjector,
        computes: &[ComputeId],
        props: &PropertySet,
        size: u64,
        at: SimTime,
    ) -> Option<(MemDeviceId, f64)> {
        assert!(!computes.is_empty(), "choose_shared needs at least one accessor");
        self.table.prepare(topo, computes.len());
        self.shared_rows.clear();
        for &c in computes {
            let row = self.table.row(&self.model, topo, c, props, size);
            self.shared_rows.push(row);
        }
        let locals = match self.policy {
            PlacementPolicy::ComputeCentric => Some(&topo.compute(computes[0]).local_mem),
            _ => None,
        };
        // The policy's pick over every device (ComputeCentric: its
        // fallback); ties keep the lower id.
        let mut best: Option<(MemDeviceId, f64)> = None;
        // Minimum (total, id) among the first accessor's local devices.
        let mut best_local: Option<(MemDeviceId, f64)> = None;
        let faulty = !faults.is_empty();
        for dev in topo.mem_ids() {
            if pool.capacity(dev) - pool.allocated(dev) < size {
                continue;
            }
            if faulty
                && !computes
                    .iter()
                    .all(|&c| faults.usable(topo, Target::Mem { dev, from: Some(c) }, at))
            {
                continue;
            }
            let utilization = pool.utilization(dev);
            // Summed in accessor order: the total's bits depend on it.
            let mut total = 0.0;
            let mut ok = true;
            for &row in &self.shared_rows {
                match self.table.cells[row + dev.index()] {
                    Some(cell) => total += self.model.finish(cell, utilization),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let better = match (self.policy, best) {
                (_, None) => true,
                (PlacementPolicy::WorstFeasible, Some((_, b))) => total > b,
                (PlacementPolicy::FirstFit, Some(_)) => false,
                (_, Some((_, b))) => total < b,
            };
            if better {
                best = Some((dev, total));
            }
            if locals.is_some_and(|l| l.contains(&dev))
                && best_local.is_none_or(|(_, b)| total < b)
            {
                best_local = Some((dev, total));
            }
        }
        best_local.or(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::presets::single_server;
    use disagg_hwsim::rng::SimRng;
    use disagg_region::props::{AccessHint, LatencyClass};

    /// The fault plan of a calm run.
    static CALM: FaultInjector = FaultInjector::none();

    #[test]
    fn declarative_places_fast_local_scratch_per_device() {
        // The Figure 3 experiment in miniature: the same logical request
        // resolves to DRAM under the CPU and GDDR under the GPU.
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut eng = PlacementEngine::new(PlacementPolicy::Declarative);
        let props = PropertySet::new()
            .with_latency(LatencyClass::Low)
            .with_hint(AccessHint::mixed_random());
        // Big enough that the tiny cache scratchpad cannot hold it.
        let size = 1 << 30;
        let from_cpu =
            eng.choose(&topo, &pool, &CALM, ids.cpu, &props, size, SimTime::ZERO).unwrap();
        let from_gpu =
            eng.choose(&topo, &pool, &CALM, ids.gpu, &props, size, SimTime::ZERO).unwrap();
        assert_eq!(from_cpu, ids.dram);
        assert_eq!(from_gpu, ids.gddr);
    }

    #[test]
    fn worst_feasible_picks_the_most_expensive_device() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut best = PlacementEngine::new(PlacementPolicy::Declarative);
        let mut worst = PlacementEngine::new(PlacementPolicy::WorstFeasible);
        let props = PropertySet::new().with_hint(AccessHint::random_reads());
        let all = |_| true;
        let (b, b_score) =
            best.pick(&topo, &pool, &CALM, ids.cpu, &props, 1 << 20, SimTime::ZERO, all).unwrap();
        let (w, w_score) =
            worst.pick(&topo, &pool, &CALM, ids.cpu, &props, 1 << 20, SimTime::ZERO, all).unwrap();
        assert_ne!(b, w);
        assert!(w_score > b_score);
    }

    #[test]
    fn compute_centric_pins_to_local_memory() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut eng = PlacementEngine::new(PlacementPolicy::ComputeCentric);
        // A streaming request the declarative optimizer would send to HBM;
        // compute-centric still picks a CPU-local device.
        let props = PropertySet::new().with_hint(AccessHint::streaming());
        let dev = eng.choose(&topo, &pool, &CALM, ids.cpu, &props, 1 << 20, SimTime::ZERO).unwrap();
        assert!(topo.compute(ids.cpu).local_mem.contains(&dev));
    }

    #[test]
    fn persistent_requests_only_land_on_persistent_devices() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        for policy in [
            PlacementPolicy::Declarative,
            PlacementPolicy::ComputeCentric,
            PlacementPolicy::WorstFeasible,
            PlacementPolicy::FirstFit,
        ] {
            let mut eng = PlacementEngine::new(policy);
            let props = PropertySet::new().persistent(true);
            let dev =
                eng.choose(&topo, &pool, &CALM, ids.cpu, &props, 1 << 20, SimTime::ZERO).unwrap();
            assert!(
                topo.mem(dev).persistent,
                "{policy:?} placed persistent data on volatile {dev}"
            );
        }
        let _ = ids;
    }

    #[test]
    fn impossible_requests_return_none() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut eng = PlacementEngine::new(PlacementPolicy::Declarative);
        // Persistent + low-latency is unsatisfiable in this topology
        // (PMem's 300 ns read latency exceeds the Low bound).
        let props = PropertySet::new()
            .persistent(true)
            .with_latency(LatencyClass::Low);
        assert!(eng.choose(&topo, &pool, &CALM, ids.cpu, &props, 64, SimTime::ZERO).is_none());
    }

    #[test]
    fn choose_shared_lands_where_all_parties_can_reach() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut eng = PlacementEngine::new(PlacementPolicy::Declarative);
        let props = PropertySet::new().with_hint(AccessHint::streaming());
        let dev = eng
            .choose_shared(&topo, &pool, &CALM, &[ids.cpu, ids.gpu], &props, 1 << 20, SimTime::ZERO)
            .unwrap();
        assert!(topo.reachable(ids.cpu, dev));
        assert!(topo.reachable(ids.gpu, dev));
    }

    #[test]
    fn choose_shared_balances_both_accessors() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut eng = PlacementEngine::new(PlacementPolicy::Declarative);
        // Latency-sensitive shared data between CPU and GPU: GDDR is great
        // for the GPU but poor for the CPU; the optimizer should pick a
        // device neither party hates (in this topology, a CPU-side or
        // hub-attached device both can reach with moderate cost).
        let props = PropertySet::new().with_hint(AccessHint::mixed_random());
        let shared = eng
            .choose_shared(&topo, &pool, &CALM, &[ids.cpu, ids.gpu], &props, 1 << 26, SimTime::ZERO)
            .unwrap();
        let m = CostModel::new();
        let total = |d| {
            m.score(&topo, ids.cpu, d, &props, 1 << 26, 0.0).unwrap()
                + m.score(&topo, ids.gpu, d, &props, 1 << 26, 0.0).unwrap()
        };
        // The chosen device must be no worse than either party's favourite.
        assert!(total(shared) <= total(ids.dram) + 1e-9);
        assert!(total(shared) <= total(ids.gddr) + 1e-9);
    }

    #[test]
    fn first_fit_ignores_cost() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut eng = PlacementEngine::new(PlacementPolicy::FirstFit);
        let props = PropertySet::new();
        let dev = eng.choose(&topo, &pool, &CALM, ids.cpu, &props, 1 << 20, SimTime::ZERO).unwrap();
        // First feasible by id order: the cache (mem0) qualifies for a
        // property-free 1 MiB request.
        assert_eq!(dev, ids.cache);
    }

    #[test]
    fn choose_shared_follows_the_policy() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let props = PropertySet::new().with_hint(AccessHint::mixed_random());
        let shared = |policy, computes: &[ComputeId]| {
            PlacementEngine::new(policy)
                .choose_shared(&topo, &pool, &CALM, computes, &props, 1 << 20, SimTime::ZERO)
                .unwrap()
        };
        // Randomly accessed data the GPU and the CPU share: the
        // optimizer meets them in the middle, on PMem.
        assert_eq!(shared(PlacementPolicy::Declarative, &[ids.gpu, ids.cpu]), ids.pmem);
        // Compute-centric keeps it in the first accessor's local memory
        // when the others can reach it too; the CPU's locals hold PMem.
        assert_eq!(shared(PlacementPolicy::ComputeCentric, &[ids.gpu, ids.cpu]), ids.gddr);
        assert_eq!(shared(PlacementPolicy::ComputeCentric, &[ids.cpu, ids.gpu]), ids.pmem);
        // First fit takes the lowest id both can use, whatever it costs.
        assert_eq!(shared(PlacementPolicy::FirstFit, &[ids.gpu, ids.cpu]), ids.cache);
    }

    #[test]
    fn placement_skips_devices_that_are_unusable_at_its_time() {
        use disagg_hwsim::fault::{FaultEvent, FaultKind};
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let props = PropertySet::new()
            .with_latency(LatencyClass::Low)
            .with_hint(AccessHint::mixed_random());
        let size = 1 << 30;
        let faults = FaultInjector::with_events(vec![
            FaultEvent { at: SimTime(100), kind: FaultKind::DeviceFail(ids.dram) },
            FaultEvent { at: SimTime(200), kind: FaultKind::DeviceRecover(ids.dram) },
        ]);
        let mut eng = PlacementEngine::new(PlacementPolicy::Declarative);
        let mut at = |t| eng.choose(&topo, &pool, &faults, ids.cpu, &props, size, SimTime(t));
        // The calm answer before the failure and after the repair; in
        // between, the next best device.
        assert_eq!(at(99), Some(ids.dram));
        let during = at(100).expect("another device qualifies");
        assert_ne!(during, ids.dram);
        assert_eq!(at(200), Some(ids.dram));
        assert_eq!(
            eng.choose(&topo, &pool, &CALM, ids.cpu, &props, size, SimTime(150)),
            Some(ids.dram)
        );
        // A shared placement skips it as well.
        let both = [ids.cpu, ids.gpu];
        let shared = |eng: &mut PlacementEngine, faults, t| {
            eng.choose_shared(&topo, &pool, faults, &both, &PropertySet::new(), 1 << 20, SimTime(t))
        };
        let calm = shared(&mut eng, &CALM, 150).unwrap();
        let fail = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(100),
            kind: FaultKind::DeviceFail(calm),
        }]);
        assert_eq!(shared(&mut eng, &fail, 99), Some(calm));
        assert_ne!(shared(&mut eng, &fail, 150), Some(calm));
    }

    /// `pick` as it was before the score table — a scan over
    /// [`CostModel::score`] — kept as the oracle, over the devices `keep`
    /// accepts.
    #[allow(clippy::too_many_arguments)]
    fn reference_choose(
        model: &CostModel,
        policy: PlacementPolicy,
        topo: &Topology,
        pool: &MemoryPool,
        compute: ComputeId,
        props: &PropertySet,
        size: u64,
        keep: impl Fn(MemDeviceId) -> bool,
    ) -> Option<(MemDeviceId, f64)> {
        use std::cmp::Ordering;
        let locals = &topo.compute(compute).local_mem;
        let (mut best, mut worst, mut first, mut best_local) = (None, None, None, None);
        for dev in topo.mem_ids() {
            if pool.capacity(dev) - pool.allocated(dev) < size || !keep(dev) {
                continue;
            }
            let Some(score) = model.score(topo, compute, dev, props, size, pool.utilization(dev))
            else {
                continue;
            };
            if first.is_none() {
                first = Some((dev, score));
            }
            if best.is_none_or(|(_, b): (_, f64)| score.total_cmp(&b) == Ordering::Less) {
                best = Some((dev, score));
            }
            if worst.is_none_or(|(_, w): (_, f64)| score.total_cmp(&w) != Ordering::Less) {
                worst = Some((dev, score));
            }
            if locals.contains(&dev)
                && best_local.is_none_or(|(_, b): (_, f64)| score.total_cmp(&b) == Ordering::Less)
            {
                best_local = Some((dev, score));
            }
        }
        match policy {
            PlacementPolicy::Declarative => best,
            PlacementPolicy::WorstFeasible => worst,
            PlacementPolicy::FirstFit => first,
            PlacementPolicy::ComputeCentric => best_local.or(best),
        }
    }

    /// `pick_shared` as a scan over [`CostModel::score`]: each policy's
    /// device among those every accessor can use, ranked by summed score.
    fn reference_choose_shared(
        model: &CostModel,
        policy: PlacementPolicy,
        topo: &Topology,
        pool: &MemoryPool,
        computes: &[ComputeId],
        props: &PropertySet,
        size: u64,
    ) -> Option<(MemDeviceId, f64)> {
        let locals = &topo.compute(computes[0]).local_mem;
        let mut feasible: Vec<(MemDeviceId, f64)> = Vec::new();
        for dev in topo.mem_ids() {
            if pool.capacity(dev) - pool.allocated(dev) < size {
                continue;
            }
            let mut total = 0.0;
            let mut ok = true;
            for &c in computes {
                match model.score(topo, c, dev, props, size, pool.utilization(dev)) {
                    Some(s) => total += s,
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                feasible.push((dev, total));
            }
        }
        // Strict comparisons: the lowest id wins every tie.
        let min = |set: &[(MemDeviceId, f64)]| {
            set.iter().copied().fold(None, |m: Option<(MemDeviceId, f64)>, (d, t)| {
                if m.is_none_or(|(_, b)| t < b) { Some((d, t)) } else { m }
            })
        };
        let max = feasible.iter().copied().fold(None, |m: Option<(MemDeviceId, f64)>, (d, t)| {
            if m.is_none_or(|(_, b)| t > b) { Some((d, t)) } else { m }
        });
        let local: Vec<_> = feasible.iter().copied().filter(|(d, _)| locals.contains(d)).collect();
        match policy {
            PlacementPolicy::Declarative => min(&feasible),
            PlacementPolicy::WorstFeasible => max,
            PlacementPolicy::FirstFit => feasible.first().copied(),
            PlacementPolicy::ComputeCentric => min(&local).or(min(&feasible)),
        }
    }

    fn random_props(rng: &mut SimRng, size: u64) -> PropertySet {
        use disagg_region::props::{AccessHint, AccessMode, BandwidthClass};
        const LAT: [LatencyClass; 4] =
            [LatencyClass::Low, LatencyClass::Medium, LatencyClass::High, LatencyClass::Any];
        const BW: [BandwidthClass; 4] =
            [BandwidthClass::High, BandwidthClass::Medium, BandwidthClass::Low, BandwidthClass::Any];
        // Requirements are drawn sparsely so that most requests stay
        // feasible somewhere.
        let pick_req = |rng: &mut SimRng| rng.chance(0.3);
        PropertySet {
            latency: if pick_req(rng) { *rng.pick(&LAT) } else { LatencyClass::Any },
            bandwidth: if pick_req(rng) { *rng.pick(&BW) } else { BandwidthClass::Any },
            persistent: rng.chance(0.15),
            coherent: rng.chance(0.2),
            confidential: rng.chance(0.5),
            mode: if rng.chance(0.5) { AccessMode::Sync } else { AccessMode::Async },
            hint: AccessHint {
                pattern: if rng.chance(0.5) { AccessPattern::Random } else { AccessPattern::Sequential },
                read_fraction: *rng.pick(&[0.0, 0.3, 0.49, 0.5, 0.8, 1.0]),
                // Chunks larger and smaller than the request, and 0.
                typical_bytes: match rng.next_below(4) {
                    0 => 0,
                    1 => 1 + rng.next_below(size.max(2)),
                    2 => size.saturating_mul(2).max(64),
                    _ => *rng.pick(&[64, 256, 4096, 1 << 20]),
                },
            },
        }
    }

    #[test]
    fn table_backed_placement_matches_a_scan_over_score() {
        use disagg_hwsim::presets::disaggregated_rack;

        let topologies = [single_server().0, disaggregated_rack(4, 16, 4, 256).0];
        let policies = [
            PlacementPolicy::Declarative,
            PlacementPolicy::ComputeCentric,
            PlacementPolicy::WorstFeasible,
            PlacementPolicy::FirstFit,
        ];
        let (mut placed, mut refused, mut repeats) = (0usize, 0usize, 0usize);
        for seed in [1u64, 2, 3, 23] {
            for policy in policies {
                for awareness in [TopologyAwareness::Aware, TopologyAwareness::Blind] {
                    // One engine, warm from the first topology when it
                    // meets the second.
                    let mut eng = PlacementEngine::with_awareness(policy, awareness);
                    for (ti, topo) in topologies.iter().enumerate() {
                        let what = format!("seed {seed} topo {ti} {policy:?} {awareness:?}");
                        let mut rng = SimRng::new(seed ^ (ti as u64) << 8);
                        let computes: Vec<ComputeId> = topo.compute_ids().collect();
                        let mems: Vec<MemDeviceId> = topo.mem_ids().collect();
                        let mut pool = MemoryPool::new(topo);
                        let mut held = Vec::new();
                        // Some devices full from the start, some part-filled.
                        for &dev in &mems {
                            let cap = pool.capacity(dev);
                            let fill = match rng.next_below(4) {
                                0 => cap,
                                1 => 0,
                                _ => rng.next_below(cap),
                            };
                            if fill > 0 {
                                held.push(pool.alloc(dev, fill).unwrap());
                            }
                        }
                        // A handful of shapes recur, as they do in a real run.
                        let sizes = [0, 1, 4096, 1 + rng.next_below(1 << 16), 1 << 30];
                        let shapes: Vec<PropertySet> = (0..6)
                            .map(|_| {
                                let size = *rng.pick(&sizes);
                                random_props(&mut rng, size)
                            })
                            .collect();
                        for step in 0..200 {
                            // Drift the fill.
                            if !held.is_empty() && rng.chance(0.2) {
                                let i = rng.next_below(held.len() as u64) as usize;
                                pool.free(held.swap_remove(i)).unwrap();
                            }
                            let size = *rng.pick(&sizes);
                            let props = if rng.chance(0.7) {
                                repeats += 1;
                                rng.pick(&shapes).clone()
                            } else {
                                random_props(&mut rng, size)
                            };
                            let (got, want) = if rng.chance(0.5) {
                                let c = *rng.pick(&computes);
                                // Half the time every device, otherwise
                                // a random subset of them.
                                let mask = if rng.chance(0.5) { u64::MAX } else { rng.next_u64() };
                                let keep = |d: MemDeviceId| mask >> (d.index() % 64) & 1 == 1;
                                (
                                    eng.pick(topo, &pool, &CALM, c, &props, size, SimTime::ZERO, keep),
                                    reference_choose(
                                        &eng.model, policy, topo, &pool, c, &props, size, keep,
                                    ),
                                )
                            } else {
                                // Un-deduplicated, up to twelve entries.
                                let list: Vec<ComputeId> = (0..1 + rng.next_below(12))
                                    .map(|_| *rng.pick(&computes))
                                    .collect();
                                (
                                    eng.pick_shared(
                                        topo, &pool, &CALM, &list, &props, size, SimTime::ZERO,
                                    ),
                                    reference_choose_shared(
                                        &eng.model, policy, topo, &pool, &list, &props, size,
                                    ),
                                )
                            };
                            let bits =
                                |p: Option<(MemDeviceId, f64)>| p.map(|(d, s)| (d, s.to_bits()));
                            assert_eq!(bits(got), bits(want), "{what} step {step}");
                            match want {
                                None => refused += 1,
                                Some((dev, _)) => {
                                    placed += 1;
                                    // (A fragmented arena may refuse what
                                    // its free total would hold.)
                                    if size > 0 && rng.chance(0.5) {
                                        held.extend(pool.alloc(dev, size));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(placed > 5_000 && refused > 500 && repeats > 5_000, "{placed} {refused} {repeats}");
    }

    #[test]
    fn the_score_table_is_bounded() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut eng = PlacementEngine::new(PlacementPolicy::Declarative);
        let props = PropertySet::new();
        let both = [ids.cpu, ids.gpu];
        // One row, then two a call: the limit falls between the two
        // lookups of one placement, whose first offset must stay good.
        eng.choose(&topo, &pool, &CALM, ids.cpu, &props, 1 << 40, SimTime::ZERO);
        for size in 1..=3 * ScoreTable::MAX_ROWS as u64 {
            let got = eng.pick_shared(&topo, &pool, &CALM, &both, &props, size, SimTime::ZERO);
            let want =
                reference_choose_shared(&eng.model, eng.policy, &topo, &pool, &both, &props, size);
            let bits = |p: Option<(MemDeviceId, f64)>| p.map(|(d, s)| (d, s.to_bits()));
            assert_eq!(bits(got), bits(want), "size {size}");
            assert!(eng.table.rows.len() <= ScoreTable::MAX_ROWS);
            assert_eq!(eng.table.cells.len(), eng.table.rows.len() * topo.mem_devices().len());
        }
    }

    #[test]
    fn one_engine_follows_a_change_of_topology() {
        // The same warm engine asked about another machine must not
        // answer from the first one's rows.
        use disagg_hwsim::presets::disaggregated_rack;
        let (a, _) = single_server();
        let (b, _) = disaggregated_rack(2, 8, 2, 64);
        let mut eng = PlacementEngine::new(PlacementPolicy::Declarative);
        let props = PropertySet::new();
        for topo in [&a, &b, &a] {
            let pool = MemoryPool::new(topo);
            for c in topo.compute_ids() {
                let got = eng.choose(topo, &pool, &CALM, c, &props, 4096, SimTime::ZERO);
                let want =
                    reference_choose(&eng.model, eng.policy, topo, &pool, c, &props, 4096, |_| true);
                assert_eq!(got, want.map(|(d, _)| d));
            }
        }
    }
}
