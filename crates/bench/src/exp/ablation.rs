//! E13 — ablations: what each RTS ingredient buys.
//!
//! Starting from the full vision configuration, each row knocks out one
//! ingredient and reruns the same mixed batch (DBMS + ML + streaming):
//!
//! - topology-blind cost model (no path awareness),
//! - round-robin scheduling (no HEFT),
//! - copy-based handover (no ownership transfer),
//! - worst-feasible placement (no optimizer at all).

use disagg_core::prelude::*;
use disagg_hwsim::presets::single_server;
use disagg_sched::cost::TopologyAwareness;
use disagg_workloads::{dbms, ml, streaming};

use crate::{fmt_dur, fmt_ratio, Scenario, Shape, Table};

fn batch(scenario: &Scenario) -> Vec<JobSpec> {
    let scale = if scenario.quick { 1 } else { 4 };
    vec![
        dbms::query_job(dbms::DbmsConfig {
            tuples: 4_000 * scale,
            probe_tuples: 2_000 * scale,
            seed: scenario.stream(dbms::DbmsConfig::default().seed),
            ..dbms::DbmsConfig::default()
        }),
        ml::training_job(ml::MlConfig {
            samples: 2_048 * scale,
            epochs: 2,
            seed: scenario.stream(ml::MlConfig::default().seed),
            ..ml::MlConfig::default()
        }),
        streaming::windowed_job(streaming::StreamConfig {
            events: 5_000 * scale,
            seed: scenario.stream(streaming::StreamConfig::default().seed),
            ..streaming::StreamConfig::default()
        }),
    ]
}

/// Runs E13: the mixed batch under each configuration.
pub fn run(scenario: &Scenario) -> Table {
    let configs: Vec<(&'static str, RuntimeConfig)> = vec![
        ("full vision (baseline)", RuntimeConfig::traced()),
        (
            "- topology awareness",
            RuntimeConfig::traced().with_awareness(TopologyAwareness::Blind),
        ),
        (
            "- HEFT (round-robin)",
            RuntimeConfig::traced().with_sched(SchedPolicy::RoundRobin),
        ),
        (
            "- ownership transfer (copy)",
            RuntimeConfig::traced().with_handover(HandoverPolicy::AlwaysCopy),
        ),
        (
            "- optimizer (worst feasible)",
            RuntimeConfig::traced().with_placement(PlacementPolicy::WorstFeasible),
        ),
    ];
    let makespans: Vec<(&str, SimDuration)> = configs
        .into_iter()
        .map(|(name, config)| {
            let (topo, _) = single_server();
            let mut rt = Runtime::new(topo, config);
            (name, rt.execute(batch(scenario)).expect("batch runs").makespan)
        })
        .collect();
    let base = makespans[0].1.as_nanos_f64();
    let slowdowns: Vec<f64> = makespans.iter().map(|(_, m)| m.as_nanos_f64() / base).collect();
    let mut t = Table::new(
        "ablation",
        "Ablations: removing one RTS ingredient at a time",
        &["Configuration", "Makespan", "Slowdown vs full"],
    );
    for (&(name, makespan), &slowdown) in makespans.iter().zip(&slowdowns) {
        t.row(vec![name.to_string(), fmt_dur(makespan), fmt_ratio(slowdown)]);
    }
    t.note("mixed batch: DBMS query + ML training + streaming windows, co-scheduled");
    // Individual knobs can jitter a few percent on the quick batch;
    // nothing should *substantially* beat the full configuration.
    t.claim(
        "no-ablation-beats-full-badly",
        "every ablation completes, and none beats the full configuration by more than 25% (slowdown vs full)",
        Shape::AtLeast(0.75),
        slowdowns[1..].to_vec(),
    );
    t.claim(
        "scheduler-and-optimizer-are-load-bearing",
        "removing HEFT or the placement optimizer hurts by more than 1.5x",
        Shape::AtLeast(1.5),
        makespans
            .iter()
            .zip(&slowdowns)
            .filter(|((name, _), _)| name.contains("HEFT") || name.contains("optimizer"))
            .map(|(_, &s)| s)
            .collect(),
    );
    t
}
