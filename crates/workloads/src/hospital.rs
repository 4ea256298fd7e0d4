//! The paper's running example: the hospital CCTV dataflow (Figure 2).
//!
//! One job, five tasks:
//!
//! - `T1` **Preprocessing** (GPU, confidential, low-latency memory):
//!   decodes CCTV frames.
//! - `T2` **Face Recognition** (GPU, confidential, low-latency memory):
//!   finds faces and cross-references the employee/patient database.
//! - `T3` **Track Hours** (CPU, confidential): updates employee hours.
//! - `T4` **Compute Utilization** (CPU, *not* confidential): feeds the
//!   public emergency-ward dashboard.
//! - `T5` **Alert Caregivers** (CPU, confidential, *persistent*): missing
//!   patients must survive a crash.
//!
//! The face markers planted by the generator make every stage's output
//! verifiable against [`expected`].

use disagg_core::prelude::*;
use disagg_hwsim::compute::WorkClass;

use crate::gen::{count_faces, frame};
use crate::util::{read_counted_input, write_counted_output};

/// Parameters for the hospital job.
#[derive(Debug, Clone, Copy)]
pub struct HospitalConfig {
    /// Frames in the CCTV batch.
    pub frames: usize,
    /// Frame width in pixels (1 byte per pixel).
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Faces per frame (ground truth for recognition).
    pub faces_per_frame: usize,
    /// Fraction of recognized faces that are employees (in 1/256 units).
    pub employee_ratio: u8,
    /// RNG seed.
    pub seed: u64,
    /// Declare the CCTV front of the pipeline (T1→T2) streaming, so the
    /// recognizer starts on the first decoded frames instead of the full
    /// batch — Figure 2's video feed is the paper's own streaming case.
    pub streaming: bool,
}

impl Default for HospitalConfig {
    fn default() -> Self {
        HospitalConfig {
            frames: 8,
            width: 320,
            height: 240,
            faces_per_frame: 6,
            employee_ratio: 128,
            seed: 2023,
            streaming: false,
        }
    }
}

impl HospitalConfig {
    /// Bytes per frame.
    pub fn frame_bytes(&self) -> usize {
        self.width * self.height
    }
}

/// Ground truth for the whole dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HospitalExpected {
    /// Total faces recognized across all frames.
    pub faces: u64,
    /// Faces classified as employees (tracked hours).
    pub employees: u64,
    /// Faces classified as patients.
    pub patients: u64,
}

/// Deterministic employee/patient classification: hash of (frame, index).
fn is_employee(cfg: &HospitalConfig, frame_idx: usize, face_idx: usize) -> bool {
    let h = (frame_idx as u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(face_idx as u64)
        .wrapping_mul(0x85EB_CA6B);
    (h >> 32) as u8 <= cfg.employee_ratio
}

/// Reference computation of the pipeline's results.
pub fn expected(cfg: &HospitalConfig) -> HospitalExpected {
    let mut faces = 0u64;
    let mut employees = 0u64;
    for f in 0..cfg.frames {
        let n = count_faces(&frame(cfg.width, cfg.height, cfg.faces_per_frame, cfg.seed + f as u64));
        for i in 0..n {
            if is_employee(cfg, f, i) {
                employees += 1;
            }
        }
        faces += n as u64;
    }
    HospitalExpected {
        faces,
        employees,
        patients: faces - employees,
    }
}

/// Builds the Figure 2 job.
pub fn hospital_job(cfg: HospitalConfig) -> JobSpec {
    let mut job = JobBuilder::new("hospital")
        .defaults(TaskProps {
            confidential: Some(true),
            ..TaskProps::default()
        })
        .global_state(4096);

    let frame_bytes = cfg.frame_bytes();
    let batch_bytes = (cfg.frames * frame_bytes) as u64;

    let t1 = job.task(
        TaskSpec::new("preprocessing")
            .on(ComputeKind::Gpu)
            .streaming(cfg.streaming)
            .mem_latency(LatencyClass::Low)
            .work(WorkClass::Vector, batch_bytes)
            .private_scratch(frame_bytes as u64)
            .output_bytes(batch_bytes + 8)
            .body(move |ctx| {
                // "Decode" each frame into scratch, then emit the batch.
                let mut batch = Vec::with_capacity(batch_bytes as usize);
                for f in 0..cfg.frames {
                    let img = frame(cfg.width, cfg.height, cfg.faces_per_frame, cfg.seed + f as u64);
                    ctx.scratch_write(0, &img[..64.min(img.len())])?;
                    ctx.compute(WorkClass::Vector, frame_bytes as u64);
                    batch.extend_from_slice(&img);
                }
                write_counted_output(ctx, &batch)
            }),
    );

    let t2 = job.task(
        TaskSpec::new("face-recognition")
            .on(ComputeKind::Gpu)
            .streaming(cfg.streaming)
            .mem_latency(LatencyClass::Low)
            .work(WorkClass::Tensor, batch_bytes)
            .private_scratch((frame_bytes as u64) * 2)
            .output_bytes((cfg.frames * cfg.faces_per_frame * 16 + 16) as u64)
            .body(move |ctx| {
                let batch = read_counted_input(ctx)?;
                // Recognize: scan each frame for markers (tensor work),
                // cross-reference the (confidential) directory.
                let mut records = Vec::new();
                for (f, img) in batch.chunks(frame_bytes).enumerate() {
                    ctx.compute(WorkClass::Tensor, frame_bytes as u64);
                    let n = count_faces(img);
                    for i in 0..n {
                        let employee = is_employee(&cfg, f, i);
                        records.extend_from_slice(&(f as u64).to_le_bytes());
                        records.extend_from_slice(&(u64::from(employee)).to_le_bytes());
                    }
                }
                write_counted_output(ctx, &records)
            }),
    );

    let t3 = job.task(
        TaskSpec::new("track-hours")
            .on(ComputeKind::Cpu)
            .work(WorkClass::Scalar, (cfg.frames * cfg.faces_per_frame) as u64)
            .private_scratch(4096)
            .output_bytes(64)
            .body(move |ctx| {
                let records = read_counted_input(ctx)?;
                let mut hours = 0u64;
                for rec in records.chunks_exact(16) {
                    let employee = u64::from_le_bytes(rec[8..16].try_into().expect("8"));
                    ctx.compute(WorkClass::Scalar, 1);
                    hours += employee;
                }
                // Working-hours ledger update in the (confidential) state.
                ctx.state_write(0, &hours.to_le_bytes())?;
                write_counted_output(ctx, &hours.to_le_bytes())
            }),
    );

    let t4 = job.task(
        TaskSpec::new("compute-utilization")
            .on(ComputeKind::Cpu)
            .confidential(false)
            .work(WorkClass::Scalar, (cfg.frames * cfg.faces_per_frame) as u64)
            .output_bytes(64)
            .body(move |ctx| {
                let records = read_counted_input(ctx)?;
                // The public dashboard only sees a count, not identities.
                let total = (records.len() / 16) as u64;
                write_counted_output(ctx, &total.to_le_bytes())
            }),
    );

    let t5 = job.task(
        TaskSpec::new("alert-caregivers")
            .on(ComputeKind::Cpu)
            .persistent(true)
            .work(WorkClass::Scalar, (cfg.frames * cfg.faces_per_frame) as u64)
            .output_bytes(4096)
            .body(move |ctx| {
                let records = read_counted_input(ctx)?;
                let mut patients = 0u64;
                for rec in records.chunks_exact(16) {
                    let employee = u64::from_le_bytes(rec[8..16].try_into().expect("8"));
                    patients += 1 - employee;
                }
                // Missing-patient list must survive a crash — the output
                // region was declared persistent.
                write_counted_output(ctx, &patients.to_le_bytes())
            }),
    );

    job.edge(t1, t2);
    job.edge(t2, t3);
    job.edge(t2, t4);
    job.edge(t2, t5);
    job.build().expect("hospital job is a valid DAG")
}

/// Decodes a task's single-u64 counted output.
pub fn decode_count(out: &[u8]) -> u64 {
    let payload = crate::util::decode_counted(out);
    u64::from_le_bytes(payload[..8].try_into().expect("8-byte count"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::final_output;
    use disagg_hwsim::presets::single_server;

    #[test]
    fn hospital_pipeline_matches_ground_truth() {
        let cfg = HospitalConfig::default();
        let exp = expected(&cfg);
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let report = rt.execute(hospital_job(cfg)).unwrap();
        assert!(report.placements_clean(), "{:?}", report.violations);

        let patients = decode_count(&final_output(&rt, &report, JobId(0), "alert-caregivers"));
        assert_eq!(patients, exp.patients);
    }

    #[test]
    fn gpu_stages_run_on_the_gpu_with_gddr_scratch() {
        let cfg = HospitalConfig::default();
        let (topo, ids) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let report = rt.execute(hospital_job(cfg)).unwrap();
        for name in ["preprocessing", "face-recognition"] {
            let t = report.task_by_name(JobId(0), name).unwrap();
            assert_eq!(rt.topology().compute(t.compute).kind, ComputeKind::Gpu);
            let (_, _, dev) = report
                .placements_of(t)
                .iter()
                .find(|(k, _, _)| *k == "private_scratch")
                .expect("scratch placed");
            assert_eq!(*dev, ids.gddr, "{name} scratch should be GDDR");
        }
    }

    #[test]
    fn persistent_alert_output_lands_on_persistent_memory_and_survives() {
        let cfg = HospitalConfig::default();
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let report = rt.execute(hospital_job(cfg)).unwrap();
        let t5 = report.task_by_name(JobId(0), "alert-caregivers").unwrap();
        let (_, region, dev) = report
            .placements_of(t5)
            .iter()
            .find(|(k, _, _)| *k == "output")
            .expect("alert output placed");
        assert!(rt.topology().mem(*dev).persistent);
        assert!(rt.manager().is_live(*region), "alerts survive job completion");
    }

    #[test]
    fn expected_counts_are_consistent() {
        let cfg = HospitalConfig::default();
        let e = expected(&cfg);
        assert_eq!(e.faces, e.employees + e.patients);
        assert!(e.faces as usize <= cfg.frames * cfg.faces_per_frame);
        assert!(e.faces > 0);
    }

    #[test]
    fn streaming_cctv_pipelines_the_gpu_stages() {
        let batch_cfg = HospitalConfig { frames: 16, ..HospitalConfig::default() };
        let stream_cfg = HospitalConfig { streaming: true, ..batch_cfg };
        let exp = expected(&batch_cfg);
        let run = |cfg: HospitalConfig| {
            let (topo, _) = single_server();
            let mut rt = Runtime::new(topo, RuntimeConfig::traced());
            let report = rt.execute(hospital_job(cfg)).unwrap();
            let patients =
                decode_count(&final_output(&rt, &report, JobId(0), "alert-caregivers"));
            (report.makespan, patients)
        };
        let (batch, p1) = run(batch_cfg);
        let (streamed, p2) = run(stream_cfg);
        assert_eq!(p1, exp.patients);
        assert_eq!(p2, exp.patients, "streaming must not change answers");
        assert!(
            streamed < batch,
            "streaming T1→T2 should overlap: {streamed} vs {batch}"
        );
    }
}
