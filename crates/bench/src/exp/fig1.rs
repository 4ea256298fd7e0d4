//! E4/E11 — Figure 1: compute-centric vs memory-centric architecture,
//! and the pooling-economics claims.
//!
//! The paper motivates disaggregation with two numbers: servers are
//! provisioned for peak so "average memory utilization … remains low,
//! typically in the range of 50-65%", and memory is "50% of Azure's
//! server cost / 40% of Meta's rack cost". We reproduce the comparison:
//!
//! - **Figure 1a (compute-centric)**: every server owns DRAM sized for
//!   the *largest* job it may ever host (peak provisioning); jobs use
//!   their local memory only.
//! - **Figure 1b (memory-centric)**: lean servers in front of a shared
//!   CXL pool sized for the *peak concurrent total* — statistical
//!   multiplexing across skewed jobs.
//!
//! Jobs arrive in waves with Zipf-skewed memory demands; both racks run
//! the same waves. The table reports provisioned capacity, dollar cost,
//! average utilization, and makespan.

use disagg_core::prelude::*;
use disagg_hwsim::compute::WorkClass;
use disagg_hwsim::presets::{compute_centric_rack, cxl_pool_rack};
use disagg_workloads::gen::skewed_demands;

use crate::{fmt_bytes, fmt_dur, Scenario, Shape, Table};

const GIB: u64 = 1 << 30;

/// One architecture's measured outcome.
#[derive(Debug, Clone)]
pub struct ArchResult {
    /// Architecture label.
    pub name: &'static str,
    /// Provisioned memory bytes (DRAM + pool, the capacity you must buy).
    pub provisioned: u64,
    /// Acquisition cost of that memory, dollars.
    pub dollars: f64,
    /// Average utilization of provisioned memory across waves.
    pub avg_utilization: f64,
    /// Total virtual time to run all waves.
    pub total_makespan: SimDuration,
}

fn demand_job(name: String, demand: u64, traffic: u64) -> JobSpec {
    let mut j = JobBuilder::new(name);
    j.task(
        TaskSpec::new("work")
            .work(WorkClass::Scalar, 1_000_000)
            // Working sets this large tolerate pool-class latency; the
            // override is what lets the runtime multiplex them onto CXL.
            .mem_latency(LatencyClass::Medium)
            .private_scratch(demand)
            .body(move |ctx| {
                // Stream a bounded amount of traffic through one
                // chunk-sized window of the working set: the footprint
                // (not the traffic) is what provisioning pays for, and a
                // write's charge does not depend on its offset, so the
                // window spares the host pages no claim reads.
                let scratch = ctx.private_scratch()?;
                let chunk = vec![7u8; (1 << 20).min(traffic) as usize];
                let mut off = 0u64;
                while off < traffic {
                    ctx.acc.write(scratch, 0, &chunk, AccessPattern::Sequential)?;
                    off += chunk.len() as u64;
                }
                ctx.compute(WorkClass::Scalar, 1_000_000);
                Ok(())
            }),
    );
    j.build().expect("demand job is valid")
}

/// The wave plan shared by both architectures.
pub struct Plan {
    /// Per-job scratch demands (bytes), wave-major.
    pub demands: Vec<u64>,
    /// Jobs per wave (== servers).
    pub servers: usize,
    /// Traffic per job, bytes.
    pub traffic: u64,
}

/// Builds the shared plan.
pub fn plan(scenario: &Scenario) -> Plan {
    let servers = 8;
    let waves = if scenario.quick { 3 } else { 8 };
    let seed = scenario.stream(20_230_622);
    Plan {
        demands: skewed_demands(servers * waves, GIB / 4, 24 * GIB, 1.1, seed),
        servers,
        traffic: if scenario.quick { 8 << 20 } else { 64 << 20 },
    }
}

/// Runs the wave plan on one architecture, `arch` in its runs' labels.
/// `mk_runtime` builds a fresh runtime per wave (so peaks are
/// per-wave); `provisioned` counts the device capacities that the
/// architecture had to buy for job memory.
fn run_plan(
    p: &Plan,
    scenario: &Scenario,
    arch: &str,
    mut mk_runtime: impl FnMut() -> (Runtime, Vec<disagg_hwsim::ids::MemDeviceId>),
    name: &'static str,
    dollars: f64,
    provisioned: u64,
) -> ArchResult {
    let mut total_makespan = SimDuration::ZERO;
    let mut util_sum = 0.0;
    let mut waves = 0usize;
    for wave in p.demands.chunks(p.servers) {
        let (mut rt, job_devices) = mk_runtime();
        let jobs: Vec<JobSpec> = wave
            .iter()
            .enumerate()
            .map(|(i, &d)| demand_job(format!("job{i}"), d, p.traffic))
            .collect();
        let report = rt.execute(jobs).expect("wave runs");
        scenario.observed(&format!("{arch}.wave{waves}"), &rt, &report);
        total_makespan += report.makespan;
        let used: u64 = rt
            .devices()
            .iter()
            .filter(|d| job_devices.contains(&d.dev))
            .map(|d| d.peak_bytes)
            .sum();
        util_sum += used as f64 / provisioned as f64;
        waves += 1;
    }
    ArchResult {
        name,
        provisioned,
        dollars,
        avg_utilization: util_sum / waves as f64,
        total_makespan,
    }
}

/// Runs both architectures over the same plan.
pub fn measure(scenario: &Scenario) -> (ArchResult, ArchResult) {
    let p = plan(scenario);
    let max_demand = *p.demands.iter().max().expect("nonempty plan");
    let total_per_wave: Vec<u64> = p
        .demands
        .chunks(p.servers)
        .map(|w| w.iter().sum())
        .collect();
    let peak_wave_total = *total_per_wave.iter().max().expect("nonempty");

    // Figure 1a: each server's DRAM must fit the largest possible job.
    let static_per_node_gib = max_demand.div_ceil(GIB);
    let static_provisioned = p.servers as u64 * static_per_node_gib * GIB;
    let compute_centric = {
        let (topo0, rack0) = compute_centric_rack(p.servers, static_per_node_gib);
        let dollars: f64 = rack0
            .drams
            .iter()
            .map(|&d| topo0.mem(d).cost_per_gib * (topo0.mem(d).capacity / GIB) as f64)
            .sum();
        run_plan(
            &p,
            scenario,
            "compute-centric",
            || {
                let (topo, rack) = compute_centric_rack(p.servers, static_per_node_gib);
                (scenario.runtime(topo, RuntimeConfig::compute_centric()), rack.drams.clone())
            },
            "Fig 1a compute-centric",
            dollars,
            static_provisioned,
        )
    };

    // Figure 1b: lean local DRAM + a CXL pool sized for the peak wave
    // total (plus 5% headroom), shared by everyone.
    // One logical CXL pool sized for the peak *concurrent* total (plus
    // 8% headroom) — statistical multiplexing means the pool rides the
    // sum, not servers x max. A single pool device also sidesteps
    // bin-packing artifacts; its bandwidth is shared, so pool contention
    // is honestly modeled.
    let local_gib = 1u64;
    let blades = 1usize;
    let blade_gib = ((peak_wave_total as f64 * 1.08 / GIB as f64).ceil() as u64)
        .max(max_demand.div_ceil(GIB));
    let pooled_provisioned =
        p.servers as u64 * local_gib * GIB + blades as u64 * blade_gib * GIB;
    let memory_centric = {
        let (topo0, rack0) = cxl_pool_rack(p.servers, local_gib, blades, blade_gib);
        let job_devs: Vec<_> = rack0
            .drams
            .iter()
            .chain(rack0.pool.iter())
            .copied()
            .collect();
        let dollars: f64 = job_devs
            .iter()
            .map(|&d| topo0.mem(d).cost_per_gib * (topo0.mem(d).capacity / GIB) as f64)
            .sum();
        run_plan(
            &p,
            scenario,
            "cxl-pool",
            || {
                let (topo, rack) = cxl_pool_rack(p.servers, local_gib, blades, blade_gib);
                let devs: Vec<_> =
                    rack.drams.iter().chain(rack.pool.iter()).copied().collect();
                (scenario.runtime(topo, RuntimeConfig::traced()), devs)
            },
            "Fig 1b memory-centric",
            dollars,
            pooled_provisioned,
        )
    };
    (compute_centric, memory_centric)
}

/// Runs E4 + E11.
pub fn run(scenario: &Scenario) -> Table {
    let (a, b) = measure(scenario);
    let mut t = Table::new(
        "fig1",
        "Figure 1: compute-centric vs memory-centric rack (pooling economics)",
        &["Architecture", "Provisioned", "Memory $", "Avg utilization", "Makespan (all waves)"],
    );
    for r in [&a, &b] {
        t.row(vec![
            r.name.to_string(),
            fmt_bytes(r.provisioned),
            format!("${:.0}", r.dollars),
            format!("{:.0}%", r.avg_utilization * 100.0),
            fmt_dur(r.total_makespan),
        ]);
    }
    t.note(format!(
        "pooling buys {:.1}x higher utilization at {:.0}% of the memory cost",
        b.avg_utilization / a.avg_utilization,
        b.dollars / a.dollars * 100.0
    ));
    t.claim(
        "pooling-raises-utilization",
        "pooling multiplexes skewed demand: memory-centric over compute-centric average utilization",
        Shape::AtLeast(1.0),
        vec![b.avg_utilization / a.avg_utilization],
    );
    t.claim(
        "pooling-cuts-provisioning",
        "the pooled rack buys less memory: memory-centric over compute-centric dollars and bytes",
        Shape::AtMost(1.0),
        vec![b.dollars / a.dollars, b.provisioned as f64 / a.provisioned as f64],
    );
    t.claim(
        "static-utilization-is-low",
        "paper: static fleets sit at 50-65% utilization; the peak-provisioned rack stays under 70%",
        Shape::AtMost(0.70),
        vec![a.avg_utilization],
    );
    t.claim(
        "both-racks-run-the-waves",
        "both architectures run every wave (total makespan, ns)",
        Shape::AtLeast(1.0),
        vec![a.total_makespan.as_nanos_f64(), b.total_makespan.as_nanos_f64()],
    );
    t
}
