//! E9 — the §1 claim "a naïve data placement in a heterogeneous storage
//! landscape can reduce a database system's performance by up to 3×".
//!
//! The cited system (Mosaic) places database columns across
//! DRAM/PMem/SSD tiers under a budget; a bad placement strands the hot
//! working set a tier below where it belongs. We reproduce the shape
//! directly: the same scan + probe query runs against the working set
//! placed on each tier, and against the placements chosen by the
//! declarative optimizer vs the naïve baselines.

use disagg_hwsim::compute::WorkClass;
use disagg_hwsim::contention::BandwidthLedger;
use disagg_hwsim::device::AccessPattern;
use disagg_hwsim::fault::FaultInjector;
use disagg_hwsim::ids::MemDeviceId;
use disagg_hwsim::presets::hetero_storage_server;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::trace::Trace;
use disagg_region::access::Accessor;
use disagg_region::props::{AccessMode, PropertySet};
use disagg_region::region::{OwnerId, RegionManager};
use disagg_region::typed::RegionType;
use disagg_sched::placement::{PlacementEngine, PlacementPolicy};

use crate::{fmt_dur, fmt_ratio, Scenario, Shape, Table};

/// One tier's query cost.
#[derive(Debug, Clone)]
pub struct TierRow {
    /// Tier label.
    pub tier: String,
    /// Time for the query mix against the working set on this tier.
    pub time: SimDuration,
}

const WHO: OwnerId = OwnerId::App;

/// Runs the query mix (one full scan + `probes` random point lookups +
/// per-tuple compute) against a working set on `dev`.
fn query_time(
    topo: &disagg_hwsim::topology::Topology,
    cpu: disagg_hwsim::ids::ComputeId,
    dev: MemDeviceId,
    bytes: u64,
    probes: u64,
) -> SimDuration {
    let mut mgr = RegionManager::new(topo);
    let props = PropertySet::new().with_mode(AccessMode::Async);
    let ws = mgr
        .alloc(dev, bytes, RegionType::GlobalScratch, props, WHO, SimTime::ZERO)
        .expect("working set fits");
    let mut ledger = BandwidthLedger::default_buckets();
    let mut trace = Trace::disabled();
    let mut acc = Accessor::new(topo, &mut ledger, &mut mgr, &mut trace, cpu, WHO, SimTime::ZERO);

    // Scan: stream the set in 1 MiB chunks, filtering as we go.
    let chunk = 1u64 << 20;
    let mut buf = vec![0u8; chunk as usize];
    for off in (0..bytes).step_by(chunk as usize) {
        let take = chunk.min(bytes - off) as usize;
        acc.async_read(ws, off, &mut buf[..take], AccessPattern::Sequential)
            .expect("scan read");
        // Per-tuple predicate work (16-byte tuples, Scalar).
        acc.overlap_compute(WorkClass::Scalar, take as u64 / 16 / 8);
        acc.wait_async();
    }
    // Point lookups (index probes into the same working set).
    let mut probe_buf = [0u8; 64];
    for i in 0..probes {
        let off = (i * 7_919) % (bytes - 64);
        acc.read(ws, off, &mut probe_buf, AccessPattern::Random)
            .expect("probe read");
        acc.compute_work(WorkClass::Scalar, 20);
    }
    acc.now - SimTime::ZERO
}

/// Measures the query mix per tier, plus the tiers the placement
/// policies would pick.
pub fn measure(scenario: &Scenario) -> (Vec<TierRow>, Vec<(String, String)>) {
    let (topo, h) = hetero_storage_server();
    let bytes: u64 = if scenario.quick { 16 << 20 } else { 256 << 20 };
    let probes: u64 = if scenario.quick { 2_000 } else { 20_000 };

    let tiers = [(h.dram, "DRAM"), (h.pmem, "PMem"), (h.ssd, "SSD")];
    let rows: Vec<TierRow> = tiers
        .iter()
        .map(|&(dev, name)| TierRow {
            tier: name.to_string(),
            time: query_time(&topo, h.cpu, dev, bytes, probes),
        })
        .collect();

    // Which tier does each policy put the working set on?
    let props = PropertySet::new().with_mode(AccessMode::Async);
    let pool = disagg_region::pool::MemoryPool::new(&topo);
    let picks: Vec<(String, String)> = [
        ("declarative optimizer", PlacementPolicy::Declarative),
        ("first-fit (no cost model)", PlacementPolicy::FirstFit),
        ("worst feasible (naive bound)", PlacementPolicy::WorstFeasible),
    ]
    .iter()
    .map(|&(name, policy)| {
        let mut engine = PlacementEngine::new(policy);
        let dev = engine
            .choose(&topo, &pool, &FaultInjector::none(), h.cpu, &props, bytes, SimTime::ZERO)
            .expect("feasible");
        (name.to_string(), topo.mem(dev).kind.name().to_string())
    })
    .collect();
    (rows, picks)
}

/// Runs E9.
pub fn run(scenario: &Scenario) -> Table {
    let (rows, picks) = measure(scenario);
    let best = rows
        .iter()
        .map(|r| r.time.as_nanos_f64())
        .fold(f64::INFINITY, f64::min);
    let mut t = Table::new(
        "naive",
        "Claim: naive placement in heterogeneous storage costs up to 3x",
        &["Working set on", "Query mix time", "vs best tier"],
    );
    let vs_best: Vec<f64> = rows.iter().map(|r| r.time.as_nanos_f64() / best).collect();
    for (r, &ratio) in rows.iter().zip(&vs_best) {
        t.row(vec![r.tier.clone(), fmt_dur(r.time), fmt_ratio(ratio)]);
    }
    for (policy, pick) in &picks {
        t.note(format!("{policy} places the working set on {pick}"));
    }
    t.claim(
        "one-tier-down-costs-3x",
        "paper cites Mosaic [59]: a tier-misplaced working set costs up to 3x; PMem over DRAM is at least that",
        Shape::AtLeast(3.0),
        vec![rows[1].time.as_nanos_f64() / rows[0].time.as_nanos_f64()],
    );
    t.claim("further-tiers-cost-more", "each further tier costs more (DRAM, PMem, SSD)", Shape::Ascending { slack: 0.0 }, vs_best);
    let on_dram = |policy: &str| {
        let (_, pick) = picks.iter().find(|(p, _)| p.starts_with(policy)).expect("policy measured");
        vec![f64::from(pick == "DRAM")]
    };
    t.claim(
        "optimizer-picks-the-fast-tier",
        "the declarative optimizer places the working set on DRAM (1 = yes)",
        Shape::AtLeast(1.0),
        on_dram("declarative"),
    );
    t.claim(
        "adversary-does-not",
        "the worst-feasible bound places it anywhere but DRAM (1 = on DRAM)",
        Shape::AtMost(0.0),
        on_dram("worst feasible"),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_results_do_not_depend_on_tier() {
        // Same bytes in, same bytes out — tiers change time only. (The
        // Accessor round-trips real data; a quick spot check.)
        let (topo, h) = hetero_storage_server();
        let mut mgr = RegionManager::new(&topo);
        let props = PropertySet::new().with_mode(AccessMode::Async);
        for dev in [h.dram, h.ssd] {
            let r = mgr
                .alloc(dev, 4096, RegionType::GlobalScratch, props.clone(), WHO, SimTime::ZERO)
                .unwrap();
            mgr.write(r, WHO, 0, b"same bytes").unwrap();
            let mut buf = [0u8; 10];
            mgr.read(r, WHO, 0, &mut buf).unwrap();
            assert_eq!(&buf, b"same bytes");
        }
    }
}
