//! HPC workload: an iterative 1-D stencil (heat diffusion).
//!
//! Table 3's HPC row: "node-local working mem." in **private scratch**,
//! "job metadata, node states" in **global state**, "object/blob storage"
//! in **global scratch**. The solver keeps its working grid in private
//! scratch, checkpoints snapshots into global scratch (the blob store),
//! and reduces to a verifiable sum at the end. Values are fixed-point
//! integers so the reference computation matches bit-for-bit.

use disagg_core::prelude::*;
use disagg_hwsim::compute::WorkClass;
use disagg_hwsim::rng::SimRng;

use crate::util::{read_counted_input, write_counted_output};

/// Parameters for the stencil job.
#[derive(Debug, Clone, Copy)]
pub struct HpcConfig {
    /// Grid cells.
    pub cells: usize,
    /// Smoothing sweeps.
    pub sweeps: usize,
    /// Checkpoint every `checkpoint_every` sweeps (0 = never).
    pub checkpoint_every: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HpcConfig {
    fn default() -> Self {
        HpcConfig {
            cells: 8_192,
            sweeps: 10,
            checkpoint_every: 4,
            seed: 11,
        }
    }
}

fn initial_grid(cfg: &HpcConfig) -> Vec<i64> {
    let mut rng = SimRng::new(cfg.seed);
    (0..cfg.cells).map(|_| rng.next_below(1_000) as i64).collect()
}

fn sweep(grid: &[i64]) -> Vec<i64> {
    let n = grid.len();
    (0..n)
        .map(|i| {
            let l = grid[if i == 0 { n - 1 } else { i - 1 }];
            let r = grid[(i + 1) % n];
            // Integer diffusion: new = (l + 2*mid + r) / 4.
            (l + 2 * grid[i] + r) / 4
        })
        .collect()
}

/// Reference result: the grid sum after all sweeps.
pub fn expected_sum(cfg: &HpcConfig) -> i64 {
    let mut grid = initial_grid(cfg);
    for _ in 0..cfg.sweeps {
        grid = sweep(&grid);
    }
    grid.iter().sum()
}

fn encode_grid(grid: &[i64]) -> Vec<u8> {
    grid.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn decode_grid(bytes: &[u8]) -> Vec<i64> {
    bytes
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("8")))
        .collect()
}

/// Builds the stencil job: `init → sweep ×N (with checkpoints) → reduce`.
pub fn stencil_job(cfg: HpcConfig) -> JobSpec {
    let mut job = JobBuilder::new("hpc-stencil").global_state(4096);
    let grid_bytes = (cfg.cells * 8) as u64;

    let init = job.task(
        TaskSpec::new("init")
            .work(WorkClass::Vector, cfg.cells as u64)
            .output_bytes(grid_bytes + 8)
            .body(move |ctx| {
                let grid = initial_grid(&cfg);
                ctx.compute(WorkClass::Vector, cfg.cells as u64);
                write_counted_output(ctx, &encode_grid(&grid))
            }),
    );

    let solve = job.task(
        TaskSpec::new("solve")
            .work(WorkClass::Vector, (cfg.cells * cfg.sweeps) as u64)
            .mem_latency(LatencyClass::Low)
            .private_scratch(2 * grid_bytes)
            .global_scratch(grid_bytes * 4)
            .output_bytes(grid_bytes + 8)
            .body(move |ctx| {
                let mut grid = decode_grid(&read_counted_input(ctx)?);
                // Load the working set into node-local scratch (charged).
                ctx.scratch_write(0, &encode_grid(&grid))?;
                let blob = ctx.global_scratch()?;
                let mut checkpoints = 0u64;
                for s in 0..cfg.sweeps {
                    grid = sweep(&grid);
                    ctx.compute(WorkClass::Vector, cfg.cells as u64);
                    // The working buffer ping-pongs in private scratch.
                    let half = (s % 2) as u64 * (cfg.cells as u64 * 8);
                    ctx.scratch_write(half, &encode_grid(&grid))?;
                    // Node-state heartbeat.
                    ctx.state_write(0, &(s as u64 + 1).to_le_bytes())?;
                    if cfg.checkpoint_every > 0 && (s + 1) % cfg.checkpoint_every == 0 {
                        // Checkpoint asynchronously into the blob store;
                        // the next sweep overlaps the flush.
                        ctx.async_write(
                            blob,
                            (checkpoints % 4) * (cfg.cells as u64 * 8),
                            &encode_grid(&grid),
                        )?;
                        checkpoints += 1;
                    }
                }
                ctx.wait_async();
                write_counted_output(ctx, &encode_grid(&grid))
            }),
    );

    let reduce = job.task(
        TaskSpec::new("reduce")
            .work(WorkClass::Scalar, cfg.cells as u64)
            .persistent(true)
            .output_bytes(64)
            .body(move |ctx| {
                let grid = decode_grid(&read_counted_input(ctx)?);
                ctx.compute(WorkClass::Scalar, grid.len() as u64);
                let sum: i64 = grid.iter().sum();
                write_counted_output(ctx, &sum.to_le_bytes())
            }),
    );

    job.edge(init, solve);
    job.edge(solve, reduce);
    job.build().expect("hpc job is a valid DAG")
}

/// Decodes the reduce task's output sum.
pub fn decode_sum(out: &[u8]) -> i64 {
    let payload = crate::util::decode_counted(out);
    i64::from_le_bytes(payload[..8].try_into().expect("8-byte sum"))
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::final_output;
    use disagg_hwsim::presets::single_server;

    #[test]
    fn stencil_matches_the_reference_sum() {
        let cfg = HpcConfig::default();
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let report = rt.execute(stencil_job(cfg)).unwrap();
        let out = final_output(&rt, &report, JobId(0), "reduce");
        assert_eq!(decode_sum(&out), expected_sum(&cfg));
        assert!(report.placements_clean());
    }

    #[test]
    fn checkpoints_flow_to_the_blob_store() {
        let cfg = HpcConfig {
            sweeps: 8,
            checkpoint_every: 2,
            ..HpcConfig::default()
        };
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let report = rt.execute(stencil_job(cfg)).unwrap();
        let solve = report.task_by_name(JobId(0), "solve").unwrap();
        assert_eq!(report.access_of(solve).async_ops, 4, "8 sweeps / every 2 = 4 checkpoints");
    }

    #[test]
    fn sweeps_conserve_mass_approximately() {
        // The integer stencil only loses mass to rounding; the sum must
        // never grow.
        let cfg = HpcConfig::default();
        let start: i64 = initial_grid(&cfg).iter().sum();
        assert!(expected_sum(&cfg) <= start);
        assert!(expected_sum(&cfg) > 0);
    }
}
