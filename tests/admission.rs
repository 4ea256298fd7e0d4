//! The runtime admits every job of a submission at once: a burst whose
//! regions cannot fit together fails placement with a typed error, not
//! a panic. Admission above the executor is serving's per-tenant quota.

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
