//! The paper's Figure 2: the hospital CCTV dataflow.
//!
//! Five tasks — GPU preprocessing and face recognition over confidential
//! video, CPU bookkeeping, a public utilization feed, and persistent
//! caregiver alerts — with properties declared per task and enforced by
//! the runtime.
//!
//! Run with: `cargo run --example hospital`

use disagg::prelude::*;
use disagg::workloads::hospital::{decode_count, expected, hospital_job, HospitalConfig};
use disagg::workloads::util::final_output;

fn main() {
    let cfg = HospitalConfig::default();
    let truth = expected(&cfg);

    let (topo, _) = disagg::presets::single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let report = rt.execute(hospital_job(cfg)).expect("hospital job runs");

    println!("hospital dataflow: {} tasks, makespan {}", report.tasks.len(), report.makespan);
    for t in &report.tasks {
        let placements: Vec<String> = report
            .placements_of(t)
            .iter()
            .map(|(k, _, d)| format!("{k}={}", rt.topology().mem(*d).kind.name()))
            .collect();
        println!(
            "  {:20} on {:3}  {}",
            t.name,
            rt.topology().compute(t.compute).kind.name(),
            placements.join(", ")
        );
    }

    let patients = decode_count(&final_output(&rt, &report, JobId(0), "alert-caregivers"));
    println!(
        "alerted {} missing patients (ground truth {}), {} faces recognized in total",
        patients, truth.patients, truth.faces
    );
    assert_eq!(patients, truth.patients);

    // The alert list was declared persistent: it outlives the job.
    let alert = report
        .task_by_name(JobId(0), "alert-caregivers")
        .expect("alert task ran");
    let (_, region, dev) = report
        .placements_of(alert)
        .iter()
        .find(|(k, _, _)| *k == "output")
        .expect("alert output placed");
    println!(
        "alert list lives on persistent {} and survives the job: {}",
        rt.topology().mem(*dev).kind.name(),
        rt.manager().is_live(*region)
    );
    assert!(report.placements_clean());
}
