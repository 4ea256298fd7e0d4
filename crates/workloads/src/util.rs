//! Small helpers shared by the application workloads.

use disagg_core::prelude::*;
use disagg_region::region::OwnerId;

/// Writes a `count`-prefixed payload into the task's output region:
/// 8 bytes of little-endian length, then the payload.
pub fn write_counted_output(
    ctx: &mut TaskCtx<'_, '_>,
    payload: &[u8],
) -> Result<(), TaskError> {
    ctx.write_output(0, &(payload.len() as u64).to_le_bytes())?;
    if !payload.is_empty() {
        ctx.write_output(8, payload)?;
    }
    Ok(())
}

/// Reads a `count`-prefixed payload from the task's (first) input region.
pub fn read_counted_input(ctx: &mut TaskCtx<'_, '_>) -> Result<Vec<u8>, TaskError> {
    let mut hdr = [0u8; 8];
    ctx.read_input(0, &mut hdr)?;
    let len = u64::from_le_bytes(hdr) as usize;
    let mut payload = vec![0u8; len];
    if len > 0 {
        ctx.read_input(8, &mut payload)?;
    }
    Ok(payload)
}

/// Fetches the bytes of a finished task's (persistent, App-scoped) output
/// region. Panics with a clear message when the task or region is gone —
/// this is a test/experiment helper, not production API.
pub fn final_output(rt: &Runtime, report: &RunReport, job: JobId, task_name: &str) -> Vec<u8> {
    let task = report
        .task_by_name(job, task_name)
        .unwrap_or_else(|| panic!("no task '{task_name}' in report"));
    let (_, region, _) = report
        .placements_of(task)
        .iter()
        .find(|(k, _, _)| *k == "output")
        .unwrap_or_else(|| panic!("task '{task_name}' has no output placement"));
    rt.manager()
        .bytes(*region, OwnerId::App)
        .unwrap_or_else(|e| panic!("output of '{task_name}' unreadable: {e}"))
        .to_vec()
}

/// Decodes a count-prefixed payload from raw region bytes.
pub fn decode_counted(bytes: &[u8]) -> Vec<u8> {
    let len = u64::from_le_bytes(bytes[..8].try_into().expect("8-byte header")) as usize;
    bytes[8..8 + len].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counted_round_trip_through_a_real_job() {
        let (topo, _) = disagg_hwsim::presets::single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let mut job = JobBuilder::new("counted");
        let a = job.task(
            TaskSpec::new("produce")
                .output_bytes(1024)
                .body(|ctx| write_counted_output(ctx, b"hello counted world")),
        );
        let b = job.task(
            TaskSpec::new("check")
                .persistent(true)
                .output_bytes(64)
                .body(|ctx| {
                    let payload = read_counted_input(ctx)?;
                    if payload != b"hello counted world" {
                        return Err(TaskError::new("payload mismatch"));
                    }
                    write_counted_output(ctx, &payload[..5])
                }),
        );
        job.edge(a, b);
        let report = rt.execute(job.build().unwrap()).unwrap();
        let out = final_output(&rt, &report, JobId(0), "check");
        assert_eq!(decode_counted(&out), b"hello");
    }
}
