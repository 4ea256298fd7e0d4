//! E15 — the paper's batch-vs-stream property ("Jobs and tasks could be
//! either streamed or processed in batches", §2.1).
//!
//! The same task chain runs twice: declared batch (each stage waits for
//! its predecessor's full output) and declared streaming (a stage starts
//! once the predecessor's first chunk is out, when the handover is a
//! zero-copy ownership transfer). The assertable shape: the streaming
//! speedup grows with chain depth and saturates near the pipeline depth.

use disagg_core::prelude::*;
use disagg_hwsim::compute::WorkClass;
use disagg_hwsim::presets::single_server;

use crate::{fmt_dur, fmt_ratio, Scenario, Shape, Table};

fn chain_job(stages: usize, streaming: bool, elems: u64) -> JobSpec {
    let mut job = JobBuilder::new("chain");
    let ids: Vec<TaskId> = (0..stages)
        .map(|i| {
            job.task(
                TaskSpec::new(format!("stage{i}"))
                    .streaming(streaming)
                    .work(WorkClass::Scalar, elems)
                    .output_bytes(1 << 20)
                    .body(move |ctx| {
                        ctx.compute(WorkClass::Scalar, elems);
                        ctx.write_output(0, &[1u8; 1 << 20])?;
                        Ok(())
                    }),
            )
        })
        .collect();
    job.chain(&ids);
    job.build().expect("chain job is valid")
}

/// Runs E15: both modes over a sweep of chain depths.
pub fn run(scenario: &Scenario) -> Table {
    let elems: u64 = if scenario.quick { 500_000 } else { 5_000_000 };
    let depths: &[usize] = if scenario.quick { &[2, 4, 8] } else { &[2, 4, 8, 16, 24] };
    let mut t = Table::new(
        "stream",
        "Batch vs stream: pipelined task chains (the Figure 2c property)",
        &["Stages", "Batch", "Streamed", "Speedup"],
    );
    let mut speedups = Vec::new();
    for &stages in depths {
        let run = |streaming| {
            let (topo, _) = single_server();
            let mut rt = scenario.runtime(topo, RuntimeConfig::traced());
            let report = rt.execute(chain_job(stages, streaming, elems)).expect("chain runs");
            let mode = if streaming { "streamed" } else { "batch" };
            scenario.observed(&format!("{mode}.stages{stages}"), &rt, &report);
            report.makespan
        };
        let (batch, streamed) = (run(false), run(true));
        let speedup = batch.as_nanos_f64() / streamed.as_nanos_f64();
        speedups.push(speedup);
        t.row(vec![stages.to_string(), fmt_dur(batch), fmt_dur(streamed), fmt_ratio(speedup)]);
    }
    t.note("streaming edges release consumers at first-chunk time (pipeline depth 8)");
    t.claim(
        "speedup-grows-with-depth",
        "speedup grows with chain depth and saturates near the pipeline depth",
        Shape::Ascending { slack: 0.05 },
        speedups.clone(),
    );
    t.claim("deep-chains-pipeline-well", "the deepest chain gains more than 2x", Shape::AtLeast(2.0), speedups[speedups.len() - 1..].to_vec());
    t.claim(
        "bounded-by-stage-count",
        "n stages cannot beat n-fold: speedup over stage count",
        Shape::AtMost(1.0),
        depths.iter().zip(&speedups).map(|(&n, s)| s / n as f64).collect(),
    );
    t.claim("two-stages-gain-modestly", "a 2-stage chain gains, but less than 2x", Shape::Within { lo: 1.0, hi: 2.0 }, speedups[..1].to_vec());
    t
}
