//! E3 — Table 3: the four application types run on the three regions,
//! and declarative placement beats naïve placement on every one of them.
//!
//! Each workload (DBMS, ML/AI, HPC, streaming) is executed twice on the
//! same hardware — once with the memory-centric declarative optimizer,
//! once with the worst-feasible adversary bounding naïve placement — and
//! the table reports both makespans and the speedup.

use disagg_core::prelude::*;
use disagg_hwsim::presets::single_server;
use disagg_workloads::{dbms, hpc, ml, streaming};

use crate::{fmt_dur, fmt_ratio, Scenario, Shape, Table};

fn job_for(app: &str, scenario: &Scenario) -> JobSpec {
    let scale = if scenario.quick { 1 } else { 4 };
    match app {
        "DBMS" => dbms::query_job(dbms::DbmsConfig {
            tuples: 4_000 * scale,
            probe_tuples: 2_000 * scale,
            seed: scenario.stream(dbms::DbmsConfig::default().seed),
            ..dbms::DbmsConfig::default()
        }),
        "ML/AI" => ml::training_job(ml::MlConfig {
            samples: 2_048 * scale,
            epochs: 2 * scale,
            seed: scenario.stream(ml::MlConfig::default().seed),
            ..ml::MlConfig::default()
        }),
        "HPC" => hpc::stencil_job(hpc::HpcConfig {
            cells: 4_096 * scale,
            sweeps: 6 * scale,
            seed: scenario.stream(hpc::HpcConfig::default().seed),
            ..hpc::HpcConfig::default()
        }),
        "Streaming" => streaming::windowed_job(streaming::StreamConfig {
            events: 5_000 * scale,
            seed: scenario.stream(streaming::StreamConfig::default().seed),
            ..streaming::StreamConfig::default()
        }),
        other => panic!("unknown app {other}"),
    }
}

/// Runs E3: every application under both placement policies.
pub fn run(scenario: &Scenario) -> Table {
    let mut t = Table::new(
        "table3",
        "Table 3: Application types on the three Memory Regions",
        &["Application", "Declarative", "Naive (worst feasible)", "Speedup"],
    );
    let mut speedups = Vec::new();
    for app in ["DBMS", "ML/AI", "HPC", "Streaming"] {
        let run = |policy: PlacementPolicy| {
            let (topo, _) = single_server();
            let mut rt = Runtime::new(topo, RuntimeConfig::traced().with_placement(policy));
            rt.execute(job_for(app, scenario)).expect("workload runs").makespan
        };
        let declarative = run(PlacementPolicy::Declarative);
        let naive = run(PlacementPolicy::WorstFeasible);
        let speedup = naive.as_nanos_f64() / declarative.as_nanos_f64().max(1.0);
        t.row(vec![app.to_string(), fmt_dur(declarative), fmt_dur(naive), fmt_ratio(speedup)]);
        speedups.push(speedup);
    }
    t.note("each app uses private scratch / global state / global scratch per Table 3");
    t.claim(
        "declarative-wins",
        "declarative placement beats worst-feasible placement on every application class (speedup)",
        Shape::AtLeast(1.0),
        speedups,
    );
    t
}
