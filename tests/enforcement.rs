//! Enforcement-path integration tests: the confidential encryption toll,
//! copy_contents plumbing, and audit bookkeeping.

use disagg::prelude::*;
use disagg::hwsim::compute::{ComputeKind, ComputeModel};
use disagg::hwsim::device::{MemDeviceKind, MemDeviceModel};
use disagg::hwsim::topology::{Endpoint, LinkKind, Topology};
use disagg::region::region::OwnerId;

/// A host whose *only* persistent device is NIC-attached far memory — so a
/// persistent output is forced beyond the chassis trust boundary.
fn host_with_only_remote_persistence() -> Topology {
    let mut b = Topology::builder();
    let n = b.node("host");
    let blade = b.node("blade");
    let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
    let dram = b.mem(n, MemDeviceModel::preset(MemDeviceKind::Dram));
    // A persistent far-memory blade (battery-backed) behind the NIC, with
    // synchronous access allowed so an Output region can live there.
    let mut far = MemDeviceModel::preset(MemDeviceKind::FarMemory);
    far.persistent = true;
    far.sync = disagg::hwsim::device::SyncSupport::Either;
    let far = b.mem(blade, far);
    b.link(cpu, dram, LinkKind::MemBus);
    b.link(cpu, Endpoint::Hub(n), LinkKind::PcieCxl);
    b.link(Endpoint::Hub(n), Endpoint::Hub(blade), LinkKind::Nic);
    b.link(Endpoint::Hub(blade), far, LinkKind::MemBus);
    b.build().expect("valid")
}

fn persist_job(confidential: bool, bytes: usize) -> JobSpec {
    let mut j = JobBuilder::new(if confidential { "secret" } else { "plain" });
    j.task(
        TaskSpec::new("persist")
            .confidential(confidential)
            .persistent(true)
            .output_bytes(bytes as u64)
            .body(move |ctx| {
                ctx.write_output(0, &vec![0xAAu8; bytes])?;
                Ok(())
            }),
    );
    j.build().expect("valid job")
}

#[test]
fn confidential_data_beyond_the_trust_boundary_pays_the_crypto_toll() {
    let bytes = 4 << 20;
    let run = |confidential: bool| {
        let mut rt = Runtime::new(
            host_with_only_remote_persistence(),
            RuntimeConfig::traced(),
        );
        let report = rt.execute(persist_job(confidential, bytes)).unwrap();
        let t = &report.tasks[0];
        // The output must be on the NIC-attached device either way.
        let (_, _, dev) = report.placements_of(t).iter().find(|(k, _, _)| *k == "output").unwrap();
        assert!(rt.topology().mem(*dev).persistent);
        t.duration()
    };
    let plain = run(false);
    let secret = run(true);
    // 4 MiB of Crypto-class work at 2 ns/B on a CPU ≈ 8.4 ms extra.
    let toll = secret.saturating_sub(plain);
    assert!(
        toll.as_nanos() > 5_000_000,
        "crypto toll {toll} should be milliseconds for 4 MiB"
    );
}

#[test]
fn confidential_data_inside_the_chassis_pays_nothing() {
    let (topo, _) = disagg::presets::single_server();
    let run = |confidential: bool| {
        let mut rt = Runtime::new(topo.clone(), RuntimeConfig::traced());
        let mut j = JobBuilder::new("x");
        j.task(
            TaskSpec::new("t")
                .confidential(confidential)
                .output_bytes(4 << 20)
                .body(|ctx| {
                    ctx.write_output(0, &vec![1u8; 4 << 20])?;
                    Ok(())
                }),
        );
        rt.execute(j.build().unwrap()).unwrap().tasks[0].duration()
    };
    assert_eq!(
        run(true),
        run(false),
        "PCIe/CXL devices are inside the trust boundary: no toll"
    );
}

#[test]
fn copy_contents_round_trips_across_devices() {
    let (topo, ids) = disagg::presets::single_server();
    let mut mgr = disagg::region::RegionManager::new(&topo);
    let a = mgr
        .alloc(
            ids.dram,
            1 << 20,
            RegionType::GlobalScratch,
            PropertySet::new(),
            OwnerId::App,
            SimTime::ZERO,
        )
        .unwrap();
    let b = mgr
        .alloc(
            ids.cxl,
            2 << 20,
            RegionType::GlobalScratch,
            PropertySet::new(),
            OwnerId::App,
            SimTime::ZERO,
        )
        .unwrap();
    let payload: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
    mgr.write(a, OwnerId::App, 0, &payload).unwrap();
    let copied = mgr.copy_contents(a, b).unwrap();
    assert_eq!(copied, 1 << 20);
    let mut buf = vec![0u8; 1 << 20];
    mgr.read(b, OwnerId::App, 0, &mut buf).unwrap();
    assert_eq!(buf, payload);

    // Too-small destination is rejected.
    let tiny = mgr
        .alloc(
            ids.dram,
            64,
            RegionType::GlobalScratch,
            PropertySet::new(),
            OwnerId::App,
            SimTime::ZERO,
        )
        .unwrap();
    assert!(mgr.copy_contents(a, tiny).is_err());
}

#[test]
fn audit_counts_every_placement_in_a_run() {
    let (topo, _) = disagg::presets::single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut j = JobBuilder::new("audited");
    let a = j.task(
        TaskSpec::new("a")
            .private_scratch(4096)
            .global_scratch(4096)
            .output_bytes(4096)
            .body(|ctx| {
                ctx.alloc(RegionType::GlobalScratch, PropertySet::new().persistent(true), 4096)?;
                Ok(())
            }),
    );
    let b = j.task(TaskSpec::new("b").body(|_| Ok(())));
    j.edge(a, b);
    let spec = j.global_state(4096).build().unwrap();
    let report = rt.execute(spec).unwrap();
    // global state + scratch + gscratch + output + the body's own
    // region: five placements, each an `Alloc`, each audited.
    let allocs = rt.trace().count(|e| matches!(e, disagg::hwsim::trace::TraceEvent::Alloc { .. }));
    assert_eq!(allocs, 5);
    assert!(report.placements_clean());
}
