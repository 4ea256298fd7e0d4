//! ML input pipeline + training, after Cachew.
//!
//! Table 3's AI/ML row: "model training state" in **private scratch**,
//! "metadata, worker state" in **global state**, "input data, cached
//! transformed data" in **global scratch**. The pipeline mirrors Cachew:
//! ingest raw samples, preprocess them once into a shared cache, then run
//! several training epochs on an accelerator that stream the cache
//! asynchronously while the tensor work overlaps the fetches.

use disagg_core::prelude::*;
use disagg_hwsim::compute::WorkClass;
use disagg_hwsim::rng::SimRng;

use crate::util::{read_counted_input, write_counted_output};

/// Parameters for the ML pipeline.
#[derive(Debug, Clone, Copy)]
pub struct MlConfig {
    /// Training samples.
    pub samples: usize,
    /// Features (bytes) per sample.
    pub features: usize,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MlConfig {
    fn default() -> Self {
        MlConfig {
            samples: 4_096,
            features: 64,
            epochs: 3,
            seed: 7,
        }
    }
}

impl MlConfig {
    /// Bytes of the raw / transformed data set.
    pub fn dataset_bytes(&self) -> u64 {
        (self.samples * self.features) as u64
    }
}

/// The feature transform: a toy normalization every byte goes through.
/// Deterministic so the final model checksum is verifiable.
fn transform(b: u8) -> u8 {
    b.rotate_left(3) ^ 0x5A
}

/// Reference "model": per-epoch checksum folding of the transformed data.
pub fn expected_model(cfg: &MlConfig) -> u64 {
    let mut rng = SimRng::new(cfg.seed);
    let mut raw = vec![0u8; cfg.dataset_bytes() as usize];
    rng.fill_bytes(&mut raw);
    let cache: Vec<u8> = raw.iter().map(|&b| transform(b)).collect();
    let mut model = 0u64;
    for _ in 0..cfg.epochs {
        for chunk in cache.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            model = model
                .rotate_left(1)
                .wrapping_add(u64::from_le_bytes(w));
        }
    }
    model
}

/// Builds the Cachew-style pipeline:
/// `ingest → preprocess (fills the cache) → train (epochs over the cache)`.
///
/// The train task requires an accelerator and produces a persistent,
/// count-prefixed 8-byte model checksum.
pub fn training_job(cfg: MlConfig) -> JobSpec {
    let mut job = JobBuilder::new("ml-training").global_state(4096);
    let data_bytes = cfg.dataset_bytes();

    let ingest = job.task(
        TaskSpec::new("ingest")
            .work(WorkClass::Scalar, cfg.samples as u64)
            .output_bytes(data_bytes + 8)
            .body(move |ctx| {
                let mut rng = SimRng::new(cfg.seed);
                let mut raw = vec![0u8; data_bytes as usize];
                rng.fill_bytes(&mut raw);
                ctx.compute(WorkClass::Scalar, cfg.samples as u64);
                write_counted_output(ctx, &raw)
            }),
    );

    let preprocess = job.task(
        TaskSpec::new("preprocess")
            .work(WorkClass::Vector, data_bytes)
            .global_scratch(data_bytes)
            .output_bytes(64)
            .body(move |ctx| {
                // Worker-state heartbeat in global state (the dispatcher's
                // view in Cachew).
                ctx.state_write(0, &1u64.to_le_bytes())?;
                let raw = read_counted_input(ctx)?;
                ctx.compute(WorkClass::Vector, raw.len() as u64);
                let cache: Vec<u8> = raw.iter().map(|&b| transform(b)).collect();
                let cache_region = ctx.global_scratch()?;
                ctx.async_write(cache_region, 0, &cache)?;
                ctx.wait_async();
                ctx.publish("cache", cache_region);
                write_counted_output(ctx, &(cache.len() as u64).to_le_bytes())
            }),
    );

    let train = job.task(
        TaskSpec::new("train")
            .on(ComputeKind::Gpu)
            .mem_latency(LatencyClass::Low)
            .work(
                WorkClass::Tensor,
                (cfg.epochs as u64) * (cfg.samples * cfg.features) as u64,
            )
            .private_scratch(data_bytes.max(4096))
            .persistent(true)
            .output_bytes(64)
            .body(move |ctx| {
                let cache = ctx
                    .lookup("cache")
                    .ok_or_else(|| TaskError::new("cache not published"))?;
                let len = ctx.region_len(cache) as usize;
                let mut model = 0u64;
                for epoch in 0..cfg.epochs {
                    // Stream the cache asynchronously, overlapping the
                    // epoch's tensor work (the async-interface pattern).
                    let mut data = vec![0u8; len];
                    ctx.async_read(cache, 0, &mut data)?;
                    ctx.overlap_compute(
                        WorkClass::Tensor,
                        (cfg.samples * cfg.features) as u64,
                    );
                    ctx.wait_async();
                    for chunk in data.chunks(8) {
                        let mut w = [0u8; 8];
                        w[..chunk.len()].copy_from_slice(chunk);
                        model = model.rotate_left(1).wrapping_add(u64::from_le_bytes(w));
                    }
                    // Publish epoch progress to the job's worker state.
                    ctx.state_write(8, &(epoch as u64 + 1).to_le_bytes())?;
                }
                write_counted_output(ctx, &model.to_le_bytes())
            }),
    );

    job.edge(ingest, preprocess);
    job.edge(preprocess, train);
    job.build().expect("ml job is a valid DAG")
}

/// Decodes the trained model checksum from the train task's output bytes.
pub fn decode_model(out: &[u8]) -> u64 {
    let payload = crate::util::decode_counted(out);
    u64::from_le_bytes(payload[..8].try_into().expect("8-byte model"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::final_output;
    use disagg_hwsim::presets::single_server;

    #[test]
    fn training_reproduces_the_reference_model() {
        let cfg = MlConfig::default();
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let report = rt.execute(training_job(cfg)).unwrap();
        let out = final_output(&rt, &report, JobId(0), "train");
        assert_eq!(decode_model(&out), expected_model(&cfg));
        assert!(report.placements_clean());
    }

    #[test]
    fn training_runs_on_the_gpu_and_overlaps_io() {
        let cfg = MlConfig::default();
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let report = rt.execute(training_job(cfg)).unwrap();
        let train = report.task_by_name(JobId(0), "train").unwrap();
        assert_eq!(rt.topology().compute(train.compute).kind, ComputeKind::Gpu);
        assert_eq!(report.access_of(train).async_ops as usize, cfg.epochs);
    }

    #[test]
    fn more_epochs_cost_more_virtual_time() {
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let short = rt
            .execute(training_job(MlConfig { epochs: 1, ..MlConfig::default() }))
            .unwrap();
        let long = rt
            .execute(training_job(MlConfig { epochs: 6, ..MlConfig::default() }))
            .unwrap();
        assert!(long.makespan > short.makespan);
    }
}
