//! Memory-aware admission control: oversubscribed bursts degrade into
//! waves instead of failing placement.

use disagg::prelude::*;
use disagg::hwsim::compute::{ComputeKind, ComputeModel};
use disagg::hwsim::device::{MemDeviceKind, MemDeviceModel};
use disagg::hwsim::topology::{LinkKind, Topology};

const GIB: u64 = 1 << 30;

/// A one-CPU host with a single 8 GiB DRAM device: small enough that a
/// burst of 3 GiB jobs oversubscribes it.
fn tight_host() -> Topology {
    let mut b = Topology::builder();
    let n = b.node("host");
    let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
    let dram = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, 8 * GIB));
    b.link(cpu, dram, LinkKind::MemBus);
    b.build().expect("tight host is valid")
}

fn hungry_job(name: &str, scratch: u64) -> JobSpec {
    let mut j = JobBuilder::new(name);
    j.task(
        TaskSpec::new("work")
            .work(WorkClass::Scalar, 100_000)
            .private_scratch(scratch)
            .body(|ctx| {
                ctx.scratch_write(0, &[1u8; 4096])?;
                ctx.compute(WorkClass::Scalar, 100_000);
                Ok(())
            }),
    );
    j.build().expect("valid job")
}

fn burst(n: usize, scratch: u64) -> Vec<JobSpec> {
    (0..n).map(|i| hungry_job(&format!("job{i}"), scratch)).collect()
}

#[test]
fn oversubscribed_burst_fails_without_admission() {
    let mut rt = Runtime::new(tight_host(), RuntimeConfig::traced());
    // 4 x 3 GiB on an 8 GiB device: concurrent footprints cannot fit.
    let err = rt.execute(burst(4, 3 * GIB)).unwrap_err();
    assert!(matches!(err, RuntimeError::Placement { .. }), "got {err}");
}

#[test]
fn admission_turns_the_same_burst_into_waves() {
    let mut rt = Runtime::new(tight_host(), RuntimeConfig::traced().with_admission(0.8));
    let report = rt.execute(burst(4, 3 * GIB)).expect("admitted in waves");
    assert_eq!(report.tasks.len(), 4, "every job eventually ran");
    // 8 GiB * 0.8 = 6.4 GiB budget → two 3 GiB jobs per wave → 2 waves.
    // The second wave starts after the first finishes, so the makespan
    // roughly doubles a single wave's.
    let single = {
        let mut rt = Runtime::new(tight_host(), RuntimeConfig::traced());
        rt.execute(burst(2, 3 * GIB)).unwrap().makespan
    };
    assert!(
        report.makespan.as_nanos() >= 2 * single.as_nanos() * 9 / 10,
        "two waves {} should take ~2x one wave {}",
        report.makespan,
        single
    );
}

#[test]
fn admission_leaves_small_batches_alone() {
    let mk = || burst(3, 256 << 20);
    let with = {
        let mut rt = Runtime::new(tight_host(), RuntimeConfig::traced().with_admission(0.8));
        rt.execute(mk()).unwrap()
    };
    let without = {
        let mut rt = Runtime::new(tight_host(), RuntimeConfig::traced());
        rt.execute(mk()).unwrap()
    };
    assert_eq!(with.makespan, without.makespan, "no split when everything fits");
    assert_eq!(with.tasks.len(), without.tasks.len());
}

#[test]
fn a_single_oversized_job_is_still_admitted_alone() {
    // 7 GiB on 8 GiB with a 0.5 watermark (4 GiB budget): the job exceeds
    // the budget by itself, but refusing it forever would be a livelock —
    // it is admitted alone and succeeds because the device can hold it.
    let mut rt = Runtime::new(tight_host(), RuntimeConfig::traced().with_admission(0.5));
    let report = rt.execute(burst(1, 7 * GIB)).expect("solo admission");
    assert_eq!(report.tasks.len(), 1);
}

#[test]
fn a_non_finite_watermark_is_rejected_before_anything_runs() {
    // NaN survives `clamp` and zeroes the wave budget: every job would
    // silently run in a wave of its own.
    for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut rt = Runtime::new(tight_host(), RuntimeConfig::traced().with_admission(w));
        let got = rt.execute(burst(3, 256 << 20));
        assert!(matches!(got, Err(RuntimeError::InvalidConfig { .. })), "{w}: {got:?}");
        assert_eq!(rt.now(), SimTime::ZERO, "{w}: nothing ran");
        assert!(rt.trace().is_empty(), "{w}: nothing was traced");
    }
    // Finite values keep the documented clamp to [0.05, 1.0].
    let mut rt = Runtime::new(tight_host(), RuntimeConfig::traced().with_admission(7.0));
    assert_eq!(rt.execute(burst(3, 256 << 20)).unwrap().tasks.len(), 3);
}
