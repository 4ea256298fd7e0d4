//! E2 — Table 2: the predefined region types resolve to devices that
//! satisfy their property bundles.
//!
//! For each of the paper's three named regions (Global State, Global
//! Scratch, Private Scratch) we ask the placement optimizer for a device
//! — once from the CPU and once from the GPU — and audit the chosen
//! device against the bundle. The claims: placements differ by executing
//! device exactly where Table 2's properties allow it, and no placement
//! violates its bundle.

use disagg_hwsim::ids::ComputeId;
use disagg_hwsim::presets::single_server;
use disagg_region::pool::MemoryPool;
use disagg_region::typed::RegionType;
use disagg_sched::placement::{PlacementEngine, PlacementPolicy};

use crate::{Scenario, Shape, Table};

/// Runs E2: resolves each Table 2 region type from the CPU and the GPU.
pub fn run(_: &Scenario) -> Table {
    let (topo, h) = single_server();
    let pool = MemoryPool::new(&topo);
    let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
    let mut t = Table::new(
        "table2",
        "Table 2: Common Memory Regions resolved by the runtime",
        &["Region", "From", "Chosen device", "Bundle satisfied"],
    );
    let computes: [(ComputeId, &str); 2] = [(h.cpu, "CPU"), (h.gpu, "GPU")];
    // 1.0 per shared (coherent-bundle) region type whose device is coherent.
    let mut shared_on_coherent = Vec::new();
    for rtype in RegionType::TABLE2 {
        for &(c, cname) in &computes {
            let props = rtype.properties();
            let dev = engine
                .choose(&topo, &pool, c, &props, 32 << 20)
                .expect("single_server satisfies every Table 2 bundle");
            let path = topo.path(c, dev).expect("chosen devices are reachable");
            if rtype != RegionType::PrivateScratch {
                shared_on_coherent.push(f64::from(topo.mem(dev).coherent));
            }
            t.row(vec![
                rtype.name().to_string(),
                cname.to_string(),
                topo.mem(dev).kind.name().to_string(),
                if props.satisfied_by(topo.mem(dev), path) { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    t.note("Global State {coherent, sync}; Global Scratch {coherent, async}; Private Scratch {noncoherent, sync}");
    t.claim(
        "bundles-satisfied",
        "no placement violates its property bundle",
        Shape::Cells(vec![
            ["Global State / CPU", "Bundle satisfied", "yes"],
            ["Global State / GPU", "Bundle satisfied", "yes"],
            ["Global Scratch / CPU", "Bundle satisfied", "yes"],
            ["Global Scratch / GPU", "Bundle satisfied", "yes"],
            ["Private Scratch / CPU", "Bundle satisfied", "yes"],
            ["Private Scratch / GPU", "Bundle satisfied", "yes"],
        ]),
        vec![],
    );
    t.claim(
        "private-scratch-is-device-relative",
        "private scratch is device-relative: the CPU's cache under the CPU (32 MiB fits its 96 MiB), GDDR under the GPU",
        Shape::Cells(vec![
            ["Private Scratch / CPU", "Chosen device", "Cache"],
            ["Private Scratch / GPU", "Chosen device", "GDDR"],
        ]),
        vec![],
    );
    t.claim(
        "shared-types-on-coherent-devices",
        "Global State and Global Scratch land on coherent devices (1 = coherent)",
        Shape::AtLeast(1.0),
        shared_on_coherent,
    );
    t
}
