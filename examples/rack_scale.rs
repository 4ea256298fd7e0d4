//! The whole vision on one rack: lean compute nodes over a CXL memory
//! pool, a mixed batch of application jobs placed by declared
//! properties, a hotness-driven tiering pass after the batch, and the
//! cross-layer profile of where the time went.
//!
//! Run with: `cargo run --example rack_scale`

use disagg::prelude::*;
use disagg::sched::TieringPolicy;
use disagg::workloads::{dbms, hospital, ml, streaming};

fn main() {
    // Figure 1b: three lean servers, a pooled fabric, persistent + far
    // blades (the preset adds one of each).
    let (topo, rack) = disagg::presets::disaggregated_rack(3, 16, 3, 128);
    println!(
        "rack: {} compute nodes, {} pool devices, {} total memory",
        rack.cpus.len(),
        rack.pool.len(),
        topo.total_mem_capacity() / (1 << 30)
    );
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());

    let jobs = vec![
        dbms::query_job(dbms::DbmsConfig {
            tuples: 8_000,
            probe_tuples: 4_000,
            ..dbms::DbmsConfig::default()
        }),
        ml::training_job(ml::MlConfig {
            samples: 4_096,
            epochs: 2,
            ..ml::MlConfig::default()
        }),
        streaming::windowed_job(streaming::StreamConfig {
            events: 8_000,
            ..streaming::StreamConfig::default()
        }),
        hospital::hospital_job(hospital::HospitalConfig::default()),
    ];
    let report = rt.execute(jobs).expect("the batch runs");

    println!(
        "batch: {} tasks, makespan {}, {} ownership transfers / {} copies",
        report.tasks.len(),
        report.makespan,
        report.ownership_transfers,
        report.handover_copies
    );
    println!(
        "moved {} bytes physically; {} handed over by ownership",
        report.bytes_moved, report.bytes_ownership_transferred
    );
    assert!(report.placements_clean());

    // Where did the time go, per abstraction layer?
    let profile = report.profile();
    let (compute, memory, runtime) = profile.totals();
    println!("layers: compute {compute}, memory stalls {memory}, runtime {runtime}");
    if let Some(worst) = profile.most_memory_bound() {
        println!(
            "most memory-bound task: '{}' ({:.0}% stalled)",
            worst.name,
            worst.memory_fraction() * 100.0
        );
    }

    // After the batch, the runtime re-tiers what survived (persistent
    // results) by observed heat. Here nothing moves: the four survivors
    // sit on the persistent blade, and their heat lies between the
    // policy's demote and promote scores.
    let moved = rt.run_tiering(&TieringPolicy::by_latency(rt.topology()));
    println!("tiering pass migrated {} regions", moved.len());

    // Utilization per pool device.
    for d in &rt.devices() {
        if d.peak_bytes > 0 {
            println!(
                "  {:?}: peak {:.1}% of {} GiB",
                d.dev,
                d.peak_utilization() * 100.0,
                d.capacity >> 30
            );
        }
    }
}
