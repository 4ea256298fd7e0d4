//! E10 — the §2.2(3) claim: near memory wants synchronous loads/stores;
//! far memory wants an asynchronous interface.
//!
//! The workload fetches P 4 KiB pages and runs a little compute per
//! page. Each page is one contiguous access and an access's cost does
//! not depend on its address, so the pages are simply consecutive: no
//! random offset could change a number. Synchronously, every fetch pays
//! the full device latency in
//! series. Asynchronously, fetches pipeline: all but one latency is
//! hidden and the stream becomes bandwidth-bound — but every issued
//! operation pays a fixed software toll (submission + completion
//! handling). The crossover the paper predicts falls out: for DRAM the
//! toll eats the win and sync is the right interface; the farther the
//! device, the more latency pipelining buys.

use disagg_hwsim::compute::WorkClass;
use disagg_hwsim::contention::BandwidthLedger;
use disagg_hwsim::ids::MemDeviceId;
use disagg_hwsim::presets::single_server;
use disagg_hwsim::time::SimTime;
use disagg_hwsim::trace::Trace;
use disagg_region::access::Accessor;
use disagg_region::props::PropertySet;
use disagg_region::region::{OwnerId, RegionManager};
use disagg_region::typed::RegionType;

use crate::{fmt_dur, fmt_ratio, Scenario, Shape, Table};

const WHO: OwnerId = OwnerId::App;
const PAGE: u64 = 4096;

/// Runs E10: both interfaces on every tier.
pub fn run(scenario: &Scenario) -> Table {
    let (topo, h) = single_server();
    let pages: u64 = if scenario.quick { 256 } else { 4_096 };
    let region_bytes = 64 << 20;
    let compute_per_page: u64 = 20; // Scalar elements (~20 ns on a CPU).

    let tiers: [(MemDeviceId, &str); 4] = [
        (h.dram, "DRAM"),
        (h.cxl, "CXL-DRAM"),
        (h.far, "Disagg. Mem."),
        (h.ssd, "SSD"),
    ];
    let mut t = Table::new(
        "async",
        "Claim: sync for near memory, async for far memory (random 4 KiB pages)",
        &["Device", "Sync", "Async (depth 32)", "Async gain"],
    );
    // sync / async improvement factor per tier (< 1 means sync wins).
    let mut gains = Vec::new();
    for (dev, name) in tiers {
        let mut mgr = RegionManager::new(&topo);
        let region = mgr
            .alloc(dev, region_bytes, RegionType::GlobalScratch, PropertySet::new(), WHO, SimTime::ZERO)
            .expect("tier allocable");
        let offs: Vec<u64> = (0..pages).map(|i| i * PAGE).collect();
        let mut buf = vec![0u8; PAGE as usize];

        // Synchronous: fetch page, compute, repeat.
        let sync = {
            let mut ledger = BandwidthLedger::default_buckets();
            let mut trace = Trace::disabled();
            let mut acc = Accessor::new(
                &topo, &mut ledger, &mut mgr, &mut trace, h.cpu, WHO, SimTime::ZERO,
            );
            for &off in &offs {
                acc.read(region, off, &mut buf, disagg_hwsim::device::AccessPattern::Sequential)
                    .expect("read");
                acc.compute_work(WorkClass::Scalar, compute_per_page);
            }
            acc.now - SimTime::ZERO
        };

        // Asynchronous: issue a window of fetches, overlap the
        // compute, drain, repeat (queue depth 32).
        let asynk = {
            let mut ledger = BandwidthLedger::default_buckets();
            let mut trace = Trace::disabled();
            let mut acc = Accessor::new(
                &topo, &mut ledger, &mut mgr, &mut trace, h.cpu, WHO, SimTime::ZERO,
            );
            for window in offs.chunks(32) {
                for &off in window {
                    acc.async_read(
                        region,
                        off,
                        &mut buf,
                        disagg_hwsim::device::AccessPattern::Sequential,
                    )
                    .expect("read");
                }
                acc.overlap_compute(WorkClass::Scalar, compute_per_page * window.len() as u64);
                acc.wait_async();
            }
            acc.now - SimTime::ZERO
        };
        let gain = sync.as_nanos_f64() / asynk.as_nanos_f64();
        gains.push(gain);
        t.row(vec![name.to_string(), fmt_dur(sync), fmt_dur(asynk), fmt_ratio(gain)]);
    }
    t.note("async pipelining hides per-access latency but pays a fixed issue toll per op");
    t.claim(
        "gain-grows-with-distance",
        "the async gain grows with device distance (DRAM, CXL, disaggregated memory, SSD)",
        Shape::Ascending { slack: 0.0 },
        gains.clone(),
    );
    t.claim(
        "near-memory-prefers-sync",
        "~1x (or below) for DRAM: the issue toll eats the win, so sync is the right interface",
        Shape::AtMost(1.15),
        gains[..1].to_vec(),
    );
    t.claim("far-memory-wants-async", "disaggregated memory gains more than 2x from async", Shape::AtLeast(2.0), gains[2..3].to_vec());
    t
}
