//! E2 — Table 2: the predefined region types resolve to devices that
//! satisfy their property bundles.
//!
//! For each of the paper's three named regions (Global State, Global
//! Scratch, Private Scratch) we ask the placement optimizer for a device
//! — once from the CPU and once from the GPU — and audit the chosen
//! device against the bundle. The claims: placements differ by executing
//! device exactly where Table 2's properties allow it, and no placement
//! violates its bundle.

use disagg_hwsim::fault::FaultInjector;
use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::presets::single_server;
use disagg_hwsim::time::SimTime;
use disagg_hwsim::topology::Topology;
use disagg_region::pool::MemoryPool;
use disagg_region::typed::RegionType;
use disagg_sched::placement::{PlacementEngine, PlacementPolicy};

use crate::{Scenario, Shape, Table};

/// The device the engine places a 32 MiB region of `rtype` on when `c`
/// asks, or `None` if no reachable device of `topo` satisfies the bundle.
fn resolve(
    engine: &mut PlacementEngine,
    topo: &Topology,
    pool: &MemoryPool,
    c: ComputeId,
    rtype: RegionType,
) -> Option<MemDeviceId> {
    let calm = FaultInjector::none();
    engine.choose(topo, pool, &calm, c, &rtype.properties(), 32 << 20, SimTime::ZERO)
}

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
            let dev = resolve(&mut engine, &topo, &pool, c, rtype);
            if rtype != RegionType::PrivateScratch {
                shared_on_coherent.push(dev.map_or(0.0, |d| f64::from(topo.mem(d).coherent)));
            }
            let satisfied = dev.is_some_and(|d| {
                let path = topo.path(c, d).expect("chosen devices are reachable");
                props.satisfied_by(topo.mem(d), path)
            });
            t.row(vec![
                rtype.name().to_string(),
                cname.to_string(),
                dev.map_or("none", |d| topo.mem(d).kind.name()).to_string(),
                if satisfied { "yes" } else { "NO" }.to_string(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::compute::{ComputeKind, ComputeModel};
    use disagg_hwsim::device::{MemDeviceKind, MemDeviceModel};
    use disagg_hwsim::topology::LinkKind;

    /// A CPU with only block storage: no coherent memory anywhere.
    #[test]
    fn a_bundle_no_device_satisfies_resolves_to_none() {
        let mut b = Topology::builder();
        let node = b.node("host0");
        let cpu = b.compute(node, ComputeModel::preset(ComputeKind::Cpu));
        let ssd = b.mem(node, MemDeviceModel::preset(MemDeviceKind::Ssd));
        b.link(cpu, ssd, LinkKind::PcieCxl);
        let topo = b.build().expect("valid topology");
        assert!(topo.mem_devices().iter().all(|m| !m.coherent));
        let pool = MemoryPool::new(&topo);
        let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
        for rtype in [RegionType::GlobalState, RegionType::GlobalScratch] {
            assert_eq!(resolve(&mut engine, &topo, &pool, cpu, rtype), None, "{}", rtype.name());
        }
    }
}
