//! E5 — Figure 2: the hospital dataflow runs end-to-end with every
//! declared property honored.
//!
//! The table shows, per task, where it ran, where its regions landed,
//! and whether its Figure 2c properties (compute device, confidential,
//! persistent, memory latency) were satisfied — plus the pipeline's
//! verified ground-truth results.

use disagg_core::prelude::*;
use disagg_hwsim::presets::single_server;
use disagg_hwsim::trace::TraceEvent;
use disagg_workloads::hospital::{decode_count, expected, hospital_job};
use disagg_workloads::util::final_output;

use crate::apps::hospital_config;
use crate::{fmt_dur, Scenario, Shape, Table};

/// Runs E5.
pub fn run(scenario: &Scenario) -> Table {
    let cfg = hospital_config(scenario);
    let exp = expected(&cfg);
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let report = rt.execute(hospital_job(cfg)).expect("hospital job runs");

    let mut t = Table::new(
        "fig2",
        "Figure 2: hospital dataflow — tasks, placements, properties",
        &["Task", "Compute", "Scratch on", "Output on", "Duration"],
    );
    for task in report.job_tasks(JobId(0)) {
        let dev_name = |kind: &str| {
            report
                .placements_of(task)
                .iter()
                .find(|(k, _, _)| *k == kind)
                .map(|(_, _, d)| rt.topology().mem(*d).kind.name().to_string())
                .unwrap_or_else(|| "-".to_string())
        };
        t.row(vec![
            task.name.to_string(),
            rt.topology().compute(task.compute).kind.name().to_string(),
            dev_name("private_scratch"),
            dev_name("output"),
            fmt_dur(task.duration()),
        ]);
    }

    // Only the persistent alert output survives the job (the lifetime
    // rule frees everything else), so it is the verification point.
    let patients = decode_count(&final_output(&rt, &report, JobId(0), "alert-caregivers"));
    t.note(format!(
        "verified: {} patients alerted == ground truth {} (of {} recognized faces)",
        patients, exp.patients, exp.faces
    ));
    // Every region the run placed is audited: one check per `Alloc`.
    let checks = rt.trace().count(|e| matches!(e, TraceEvent::Alloc { .. }));
    t.note(format!(
        "placement audit: {} checks, {} violations",
        checks,
        report.violations.len()
    ));
    t.claim(
        "alerts-match-ground-truth",
        "the pipeline's persistent output carries the ground-truth patient count",
        Shape::Within { lo: exp.patients as f64, hi: exp.patients as f64 },
        vec![patients as f64],
    );
    t.claim(
        "audit-clean",
        "every declared property is honored: placement-audit violations",
        Shape::AtMost(0.0),
        vec![report.violations.len() as f64],
    );
    t.claim(
        "figure-2c-placements",
        "five tasks on their declared compute devices; GPU tasks scratch on GDDR; T5's persistent output survives on PMem, the one sync persistent device",
        Shape::Cells(vec![
            ["preprocessing", "Compute", "GPU"],
            ["face-recognition", "Compute", "GPU"],
            ["compute-utilization", "Compute", "CPU"],
            ["track-hours", "Compute", "CPU"],
            ["alert-caregivers", "Compute", "CPU"],
            ["preprocessing", "Scratch on", "GDDR"],
            ["face-recognition", "Scratch on", "GDDR"],
            ["alert-caregivers", "Output on", "PMem"],
        ]),
        vec![],
    );
    t
}
