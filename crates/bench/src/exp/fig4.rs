//! E7 — Figure 4: output→input handover as ownership transfer vs copy.
//!
//! A pipeline of N tasks passes a B-byte buffer down the chain. Under
//! the paper's ownership model the handover is a metadata update — zero
//! bytes move; under the copy baseline every edge moves the full buffer.
//! The table sweeps the buffer size and reports bytes moved and makespan
//! for both policies.

use disagg_core::prelude::*;
use disagg_hwsim::compute::WorkClass;
use disagg_hwsim::presets::single_server;

use crate::{fmt_bytes, fmt_dur, fmt_ratio, Scenario, Shape, Table};

fn pipeline_job(n: usize, buffer: u64) -> JobSpec {
    let mut job = JobBuilder::new("fig4-pipe");
    let ids: Vec<TaskId> = (0..n)
        .map(|i| {
            job.task(
                TaskSpec::new(format!("stage{i}"))
                    .work(WorkClass::Scalar, 1_000)
                    .output_bytes(buffer)
                    .body(move |ctx| {
                        // Touch a small header of the input (the payload
                        // moves by handover, not by re-reading).
                        if !ctx.inputs().is_empty() {
                            let mut hdr = [0u8; 64];
                            ctx.read_input(0, &mut hdr)?;
                        }
                        ctx.compute(WorkClass::Scalar, 1_000);
                        ctx.write_output(0, &[0xAB; 64])?;
                        Ok(())
                    }),
            )
        })
        .collect();
    job.chain(&ids);
    job.build().expect("fig4 pipeline is valid")
}

/// Handover-attributable bytes: Migrate trace events are exactly the
/// physical handover copies in this job (no tiering runs here). `name`
/// labels the policy's runs.
fn run_once(
    scenario: &Scenario,
    (name, policy): (&str, HandoverPolicy),
    n: usize,
    buffer: u64,
) -> (u64, SimDuration) {
    let (topo, _) = single_server();
    let mut rt = scenario.runtime(topo, RuntimeConfig::traced().with_handover(policy));
    let report = rt.execute(pipeline_job(n, buffer)).expect("pipeline runs");
    scenario.observed(&format!("{name}.{}KiB", buffer >> 10), &rt, &report);
    let moved = rt
        .trace()
        .events()
        .iter()
        .map(|e| match *e {
            disagg_hwsim::trace::TraceEvent::Migrate { bytes, .. } => bytes,
            _ => 0,
        })
        .sum();
    (moved, report.makespan)
}

/// Runs E7: sweeps the buffer size under both handover policies.
pub fn run(scenario: &Scenario) -> Table {
    let n = 6;
    let sizes: &[u64] = if scenario.quick {
        &[1 << 16, 1 << 20, 16 << 20]
    } else {
        &[1 << 16, 1 << 20, 16 << 20, 128 << 20, 1 << 30]
    };
    let mut t = Table::new(
        "fig4",
        "Figure 4: ownership transfer vs physical copy at task handover",
        &[
            "Buffer",
            "Handover bytes (transfer)",
            "Handover bytes (copy)",
            "Makespan (transfer)",
            "Makespan (copy)",
            "Speedup",
        ],
    );
    let (mut transferred, mut copied_per_edge, mut speedups) = (Vec::new(), Vec::new(), Vec::new());
    for &buffer in sizes {
        let (transfer_moved, transfer_makespan) =
            run_once(scenario, ("transfer", HandoverPolicy::TransferWhenPossible), n, buffer);
        let (copy_moved, copy_makespan) =
            run_once(scenario, ("copy", HandoverPolicy::AlwaysCopy), n, buffer);
        let speedup = copy_makespan.as_nanos_f64() / transfer_makespan.as_nanos_f64();
        transferred.push(transfer_moved as f64);
        copied_per_edge.push(copy_moved as f64 / (buffer * (n as u64 - 1)) as f64);
        speedups.push(speedup);
        t.row(vec![
            fmt_bytes(buffer),
            fmt_bytes(transfer_moved),
            fmt_bytes(copy_moved),
            fmt_dur(transfer_makespan),
            fmt_dur(copy_makespan),
            fmt_ratio(speedup),
        ]);
    }
    t.claim(
        "transfer-moves-nothing",
        "ownership transfer moves 0 handover bytes regardless of buffer size: O(1) vs O(B*N)",
        Shape::AtMost(0.0),
        transferred,
    );
    t.claim(
        "copy-moves-a-buffer-per-edge",
        "the copy baseline moves exactly B bytes on each of the N-1 edges (bytes moved over B*(N-1))",
        Shape::Within { lo: 1.0, hi: 1.0 },
        copied_per_edge,
    );
    t.claim(
        "copy-penalty-grows-with-buffer",
        "the copy/transfer makespan ratio does not shrink as buffers grow",
        Shape::Ascending { slack: 0.05 },
        speedups.clone(),
    );
    t.claim(
        "large-buffers-pay-over-2x",
        "at the largest buffer the copy costs more than twice the transfer",
        Shape::AtLeast(2.0),
        speedups[speedups.len() - 1..].to_vec(),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep's largest point charges 5 GiB of copies in virtual
    /// time; on the host each stage writes a 64-byte header, so each
    /// output and each copy of it may hold one sparse page, not a GiB.
    #[test]
    fn gib_copies_cost_the_host_a_page_each() {
        let (n, buffer) = (6, 1 << 30);
        let (topo, _) = single_server();
        let config = RuntimeConfig::traced().with_handover(HandoverPolicy::AlwaysCopy);
        let mut rt = Runtime::new(topo, config);
        rt.execute(pipeline_job(n, buffer)).expect("pipeline runs");
        let copies = rt
            .trace()
            .count(|e| matches!(e, disagg_hwsim::trace::TraceEvent::Migrate { .. }));
        assert_eq!(copies, n - 1, "every edge copied");
        let materialized = rt.manager().pool().bytes_materialized();
        assert!(materialized > 0, "the headers are real bytes");
        assert!(materialized <= n as u64 * 2 * (64 << 10), "{materialized} bytes materialized");
    }
}
