//! ML input pipeline + accelerator training (Table 3's AI/ML row),
//! Cachew-style: preprocess once into a shared cache in global scratch,
//! then train on the GPU with async reads overlapping tensor work.
//!
//! Run with: `cargo run --example ml_training`

use disagg::prelude::*;
use disagg::workloads::ml::{decode_model, expected_model, training_job, MlConfig};
use disagg::workloads::util::final_output;

fn main() {
    let cfg = MlConfig {
        samples: 8_192,
        features: 64,
        epochs: 4,
        seed: 7,
    };
    let (topo, _) = disagg::presets::single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let report = rt.execute(training_job(cfg)).expect("training runs");

    println!(
        "pipeline: ingest → preprocess → train ({} samples x {} features, {} epochs)",
        cfg.samples, cfg.features, cfg.epochs
    );
    for t in &report.tasks {
        println!(
            "  {:12} on {:3}  start {:>12}  finish {:>12}  async ops {}",
            t.name,
            rt.topology().compute(t.compute).kind.name(),
            t.start.to_string(),
            t.finish.to_string(),
            report.access_of(t).async_ops
        );
    }

    let train = report.task_by_name(JobId(0), "train").expect("train ran");
    assert_eq!(
        rt.topology().compute(train.compute).kind,
        ComputeKind::Gpu,
        "tensor work belongs on the accelerator"
    );

    let model = decode_model(&final_output(&rt, &report, JobId(0), "train"));
    let truth = expected_model(&cfg);
    println!("trained model checksum {model:#018x} == reference {truth:#018x}");
    assert_eq!(model, truth);
    println!("makespan {}", report.makespan);
}
