//! E14 — hotness-driven tiering (the RTS's "optimize the placement of
//! memory regions ... pointer tagging to track the hotness of pages or
//! objects" discussion, Challenges 1-3).
//!
//! A working set of many regions starts spread across DRAM / CXL / far
//! memory with no knowledge of future access patterns. Accesses follow a
//! Zipf distribution over regions; after every epoch the tiering policy
//! promotes what turned out hot and demotes what turned out cold. The
//! assertable shape: with tiering on, per-epoch access time converges
//! well below the static placement; the first epoch pays a migration
//! toll.

use disagg_hwsim::contention::BandwidthLedger;
use disagg_hwsim::device::AccessPattern;
use disagg_hwsim::fault::FaultInjector;
use disagg_hwsim::presets::single_server;
use disagg_hwsim::rng::SimRng;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::trace::Trace;
use disagg_region::access::Accessor;
use disagg_region::pool::RegionId;
use disagg_region::props::{AccessMode, PropertySet};
use disagg_region::region::{OwnerId, RegionManager};
use disagg_region::typed::RegionType;
use disagg_sched::{PlacementEngine, PlacementPolicy, TieringPolicy};
use disagg_workloads::gen::Zipf;

use crate::{fmt_dur, fmt_ratio, Scenario, Shape, Table};

const WHO: OwnerId = OwnerId::App;

/// Per-epoch measurements for one configuration.
#[derive(Debug, Clone)]
pub struct EpochSeries {
    /// Configuration label.
    pub config: &'static str,
    /// Access time per epoch (excluding migration).
    pub epoch_access: Vec<SimDuration>,
    /// Migration time per epoch (zero when tiering is off).
    pub epoch_migration: Vec<SimDuration>,
}

/// Runs `epochs` of Zipf-skewed accesses over `regions` regions, with or
/// without a tiering pass between epochs.
pub fn measure_one(tiering_on: bool, scenario: &Scenario) -> EpochSeries {
    let (topo, h) = single_server();
    let regions_n = 48usize;
    let region_bytes: u64 = 2 << 20;
    let epochs = if scenario.quick { 5 } else { 8 };
    let accesses_per_epoch = if scenario.quick { 400 } else { 2_000 };

    let mut mgr = RegionManager::new(&topo);
    let mut ledger = BandwidthLedger::default_buckets();
    let mut trace = Trace::disabled();
    let props = PropertySet::new().with_mode(AccessMode::Async);

    // Initial spread: round-robin DRAM / CXL / far (placement made with
    // zero knowledge of the future access skew).
    let homes = [h.dram, h.cxl, h.far];
    let ids: Vec<RegionId> = (0..regions_n)
        .map(|i| {
            mgr.alloc(
                homes[i % homes.len()],
                region_bytes,
                RegionType::GlobalScratch,
                props.clone(),
                WHO,
                SimTime::ZERO,
            )
            .expect("region fits")
        })
        .collect();

    let zipf = Zipf::new(regions_n, 1.1);
    let mut rng = SimRng::new(scenario.stream(99));
    // Tier order restricted to the three homes: tiering moves data among
    // the pool tiers, not onto the CPU cache.
    let policy = TieringPolicy::new(vec![h.dram, h.cxl, h.far]);
    let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);

    let mut now = SimTime::ZERO;
    let mut epoch_access = Vec::with_capacity(epochs);
    let mut epoch_migration = Vec::with_capacity(epochs);
    let mut buf = vec![0u8; 64 << 10];
    for _ in 0..epochs {
        // The access epoch; the manager records every read's hotness.
        let mut acc = Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, h.cpu, WHO, now);
        for _ in 0..accesses_per_epoch {
            let r = ids[zipf.sample(&mut rng)];
            let off = rng.next_below(region_bytes - buf.len() as u64);
            acc.read(r, off, &mut buf, AccessPattern::Sequential)
                .expect("read");
        }
        let end = acc.now;
        epoch_access.push(end - now);
        now = end;

        // The tiering pass.
        let mut mig_time = SimDuration::ZERO;
        if tiering_on {
            let calm = FaultInjector::none();
            (_, mig_time) = policy.apply(
                &mut engine, &mut mgr, &topo, &mut ledger, &mut trace, &calm, h.cpu, now,
            );
            now += mig_time;
        }
        epoch_migration.push(mig_time);
        mgr.hotness_mut().decay();
    }
    EpochSeries {
        config: if tiering_on { "tiering on" } else { "static spread" },
        epoch_access,
        epoch_migration,
    }
}

/// Runs E14.
pub fn run(scenario: &Scenario) -> Table {
    let off = measure_one(false, scenario);
    let on = measure_one(true, scenario);
    let mut t = Table::new(
        "tiering",
        "Hotness-driven tiering: per-epoch access time, static vs tiered",
        &["Epoch", "Static spread", "Tiering on", "Migration cost", "Speedup"],
    );
    let ns = |d: &SimDuration| d.as_nanos_f64();
    let speedups: Vec<f64> =
        off.epoch_access.iter().zip(&on.epoch_access).map(|(off, on)| ns(off) / ns(on)).collect();
    for (i, &speedup) in speedups.iter().enumerate() {
        t.row(vec![
            format!("{}", i + 1),
            fmt_dur(off.epoch_access[i]),
            fmt_dur(on.epoch_access[i]),
            fmt_dur(on.epoch_migration[i]),
            fmt_ratio(speedup),
        ]);
    }
    t.note("Zipf(1.1) accesses over 48 regions spread round-robin across DRAM/CXL/far memory");
    let last = speedups.len() - 1;
    t.claim(
        "tiering-converges-faster",
        "with tiering on, the last epoch's access time sits well below the static spread's (speedup)",
        Shape::AtLeast(1.5),
        vec![speedups[last]],
    );
    t.claim(
        "static-spread-stays-flat",
        "without tiering nothing improves: last over first epoch access time",
        Shape::Within { lo: 0.8, hi: 1.2 },
        vec![ns(&off.epoch_access[last]) / ns(&off.epoch_access[0])],
    );
    t.claim(
        "migration-is-paid-up-front",
        "hot regions promote to DRAM after the first epoch; the first epoch pays a migration toll (ns)",
        Shape::AtLeast(1.0),
        vec![ns(&on.epoch_migration[0])],
    );
    t.claim(
        "migration-subsides",
        "the last epoch migrates no more than the first (last over first migration time)",
        Shape::AtMost(1.0),
        vec![ns(&on.epoch_migration[last]) / ns(&on.epoch_migration[0])],
    );
    t
}
