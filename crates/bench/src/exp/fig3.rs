//! E6 — Figure 3: the same logical region maps to different physical
//! devices depending on the executing compute device.
//!
//! A single declarative request — "fast local scratch, mixed random
//! access" — is resolved once from the CPU and once from the GPU. The
//! runtime picks DRAM and GDDR respectively; the table also quantifies
//! what ignoring the executing device would cost by measuring the same
//! access pattern against the *other* device's choice.

use disagg_hwsim::device::{AccessOp, AccessPattern};
use disagg_hwsim::fault::FaultInjector;
use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::presets::single_server;
use disagg_hwsim::time::SimTime;
use disagg_region::pool::MemoryPool;
use disagg_region::props::{AccessHint, LatencyClass, PropertySet};
use disagg_sched::placement::{PlacementEngine, PlacementPolicy};

use crate::{fmt_ratio, Scenario, Shape, Table};

/// Runs E6: resolves the Figure 3 request from both devices and measures
/// the swap penalty with a mixed random workload.
pub fn run(scenario: &Scenario) -> Table {
    let bytes: u64 = if scenario.quick { 8 << 20 } else { 64 << 20 };
    let (topo, h) = single_server();
    let pool = MemoryPool::new(&topo);
    let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
    let props = PropertySet::new()
        .with_latency(LatencyClass::Low)
        .with_hint(AccessHint::mixed_random());
    let size = 1u64 << 30;
    let calm = FaultInjector::none();

    let cost = |c: ComputeId, d: MemDeviceId| {
        topo.access_cost(c, d, bytes, AccessOp::Read, AccessPattern::Random)
            .map(|t| t.as_nanos_f64())
            .unwrap_or(f64::INFINITY)
    };
    let cpu_choice = engine
        .choose(&topo, &pool, &calm, h.cpu, &props, size, SimTime::ZERO)
        .expect("CPU viewpoint resolvable");
    let gpu_choice = engine
        .choose(&topo, &pool, &calm, h.gpu, &props, size, SimTime::ZERO)
        .expect("GPU viewpoint resolvable");
    let mut t = Table::new(
        "fig3",
        "Figure 3: 'fast local scratch' resolved per executing device",
        &["From", "Runtime picks", "Cost (ms)", "Other view's pick (ms)", "Swap penalty"],
    );
    // Per viewpoint: the cost on its own pick, and on the *other*
    // viewpoint's pick.
    let mut penalties = Vec::new();
    for (from, c, chosen, other) in
        [("CPU", h.cpu, cpu_choice, gpu_choice), ("GPU", h.gpu, gpu_choice, cpu_choice)]
    {
        let (chosen_ns, swapped_ns) = (cost(c, chosen), cost(c, other));
        let penalty = swapped_ns / chosen_ns;
        penalties.push(penalty);
        t.row(vec![
            from.to_string(),
            topo.mem(chosen).kind.name().to_string(),
            format!("{:.2}", chosen_ns / 1e6),
            format!("{:.2}", swapped_ns / 1e6),
            fmt_ratio(penalty),
        ]);
    }
    t.note("location-based placement cannot express this; property-based placement gets it for free");
    t.claim(
        "picks-follow-the-viewpoint",
        "the identical declarative request lands on DRAM for the CPU and GDDR for the GPU",
        Shape::Cells(vec![["CPU", "Runtime picks", "DRAM"], ["GPU", "Runtime picks", "GDDR"]]),
        vec![],
    );
    t.claim(
        "swapping-is-expensive",
        "using the other viewpoint's pick costs both devices more than 1.5x (swap penalty)",
        Shape::AtLeast(1.5),
        penalties,
    );
    t
}
