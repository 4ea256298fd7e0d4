//! Failure-recovery scenarios, end to end: silent-corruption detection
//! and online reconstruction on the access path, replica failover,
//! erasure-coded decode after a device loss, retry-cap exhaustion
//! surfacing a clean typed error, a retried streaming producer that
//! still feeds its consumer in order, work queued on a crashed node
//! moving to a live one, and bit-for-bit determinism of a faulty run.

use disagg::ftol::replicate::ReplicatedRegion;
use disagg::ftol::stripe::StripedRegion;
use disagg::hwsim::contention::BandwidthLedger;
use disagg::hwsim::trace::{Trace, TraceEvent};
use disagg::prelude::*;
use disagg::presets::{disaggregated_rack, single_server};
use disagg::region::access::Accessor;
use disagg::region::region::RegionManager;
use disagg::workloads::{dbms, streaming};

const WHO: OwnerId = OwnerId::App;

/// A corrupt range under a read is detected, reconstructed online, and
/// the caller still sees the original bytes — at a latency premium.
#[test]
fn corrupt_range_is_detected_and_reconstructed_on_read() {
    let (topo, ids) = single_server();
    let mut mgr = RegionManager::new(&topo);
    let mut ledger = BandwidthLedger::default_buckets();
    let mut trace = Trace::enabled();
    let r = mgr
        .alloc(ids.dram, 4096, RegionType::Output, PropertySet::new(), WHO, SimTime::ZERO)
        .unwrap();
    let placement = mgr.placement(r).unwrap();

    let mut acc =
        Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO);
    acc.write(r, 0, &[7u8; 4096], AccessPattern::Sequential).unwrap();
    let mut buf = [0u8; 4096];
    let healthy = acc.read(r, 0, &mut buf, AccessPattern::Sequential).unwrap();
    assert_eq!(acc.stats.bytes_reconstructed, 0, "clean read reconstructs nothing");

    // Flip bits under the region, device-absolute, mid-window.
    let faults = FaultInjector::with_events(vec![FaultEvent {
        at: SimTime(1),
        kind: FaultKind::Corrupt { dev: placement.dev, offset: placement.offset + 512, len: 1024 },
    }]);
    let mut acc = Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime(10))
        .with_faults(&faults);
    let mut buf = [0u8; 4096];
    let repaired = acc.read(r, 0, &mut buf, AccessPattern::Sequential).unwrap();
    assert_eq!(buf, [7u8; 4096], "reconstruction must restore the original bytes");
    assert_eq!(acc.stats.bytes_reconstructed, 1024);
    assert!(
        repaired > healthy,
        "reconstructed read ({repaired}) must cost more than a clean one ({healthy})"
    );
    assert!(
        trace.events().iter().any(|e| matches!(e, TraceEvent::Reconstruct { bytes: 1024, .. })),
        "the repair must be visible in the trace"
    );
}

/// Losing the nearest replica's node fails reads over to a survivor.
#[test]
fn replica_failover_survives_a_node_crash() {
    let (topo, rack) = disaggregated_rack(2, 32, 4, 64);
    let mut mgr = RegionManager::new(&topo);
    let mut ledger = BandwidthLedger::default_buckets();
    let size: u64 = 1 << 20;
    let mut rr =
        ReplicatedRegion::create(&mut mgr, &topo, &rack.pool[..2], size, WHO, SimTime::ZERO)
            .unwrap();
    let none = FaultInjector::none();
    let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
    rr.write(&mut mgr, &topo, &mut ledger, &none, 0, &data, SimTime::ZERO).unwrap();

    let faults = FaultInjector::with_events(vec![FaultEvent {
        at: SimTime(2),
        kind: FaultKind::NodeCrash(topo.node_of_mem(rr.devs[0])),
    }]);
    let mut buf = vec![0u8; size as usize];
    rr.read(&mgr, &topo, &mut ledger, &faults, rack.cpus[0], 0, &mut buf, SimTime(10))
        .expect("surviving replica serves the read");
    assert_eq!(buf, data, "failover read returns the written bytes");
}

/// An RS(4+2) stripe decodes through a device failure: degraded, but
/// bit-exact.
#[test]
fn erasure_coded_stripe_decodes_after_device_failure() {
    let (topo, rack) = disaggregated_rack(2, 32, 6, 64);
    let mut mgr = RegionManager::new(&topo);
    let mut ledger = BandwidthLedger::default_buckets();
    let size: u64 = 1 << 20;
    let (k, m) = (4usize, 2usize);
    let mut sr =
        StripedRegion::create(&mut mgr, &topo, &rack.pool[..k + m], size, k, m, WHO, SimTime::ZERO)
            .unwrap();
    let data: Vec<u8> = (0..size).map(|i| (i * 7 % 253) as u8).collect();
    sr.write(&mut mgr, &topo, &mut ledger, 0, &data, SimTime::ZERO).unwrap();

    let faults = FaultInjector::with_events(vec![FaultEvent {
        at: SimTime(2),
        kind: FaultKind::DeviceFail(sr.devs[1]),
    }]);
    let mut buf = vec![0u8; size as usize];
    let (_, degraded) = sr
        .read(&mgr, &topo, &mut ledger, &faults, 0, &mut buf, SimTime(10))
        .expect("k surviving spans suffice");
    assert!(degraded, "a lost span must force the decode path");
    assert_eq!(buf, data, "decode restores the original bytes");
}

/// A long single task on a two-server rack, used by the retry tests.
fn long_job() -> JobSpec {
    let mut job = JobBuilder::new("long");
    job.task(TaskSpec::new("grind").work(WorkClass::Scalar, 50_000_000).output_bytes(4096));
    job.build().unwrap()
}

/// Checks that `rt`'s trace records every attempt of `report`'s tasks
/// once: the completed attempts' events are the task reports, device and
/// finish, and each interrupted attempt's event ends where a
/// `FaultDetected` detects it. Returns how many attempts were
/// interrupted.
fn assert_one_event_per_attempt(rt: &Runtime, report: &RunReport) -> usize {
    let (mut done, mut cut, mut detected) = (Vec::new(), Vec::new(), Vec::new());
    for e in rt.trace().events() {
        match *e {
            TraceEvent::TaskAttempt { job, task, on, end, completed: true, .. } => {
                done.push((job, task, on, end));
            }
            TraceEvent::TaskAttempt { job, task, on, end, .. } => cut.push((job, task, on, end)),
            TraceEvent::FaultDetected { job, task, on, at } => detected.push((job, task, on, at)),
            _ => {}
        }
    }
    let mut reported: Vec<_> = report
        .tasks
        .iter()
        .map(|t| (t.job.0, u64::from(t.task.0), t.compute, t.finish))
        .collect();
    for v in [&mut done, &mut reported, &mut cut, &mut detected] {
        v.sort_unstable();
    }
    assert_eq!(done, reported, "one completed attempt per task report");
    assert_eq!(cut, detected, "one interrupted attempt per detection");
    cut.len()
}

/// When every node goes down mid-task and the retry cap is zero, the
/// untagged batch run fails with the typed `RetriesExhausted` — not a
/// panic, not a hang.
#[test]
fn exhausted_retry_cap_surfaces_a_clean_error() {
    // Probe the healthy makespan to aim the crash mid-task.
    let (topo, _) = disaggregated_rack(2, 16, 2, 64);
    let mut rt = Runtime::new(topo, RuntimeConfig::default());
    let t = rt.execute(vec![long_job()]).unwrap().makespan;

    let (topo, rack) = disaggregated_rack(2, 16, 2, 64);
    let mut faults = FaultInjector::none();
    for &n in &rack.nodes {
        faults.schedule(SimTime(t.0 / 2), FaultKind::NodeCrash(n));
    }
    let config = RuntimeConfig::default()
        .with_faults(faults)
        .with_recovery(RecoveryPolicy::default().with_max_retries(0));
    let mut rt = Runtime::new(topo, config);
    match rt.execute(vec![long_job()]) {
        Err(DisaggError::RetriesExhausted { attempts, .. }) => {
            assert_eq!(attempts, 1, "a cap of 0 means one interrupted attempt");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// Four two-task jobs on a two-server rack whose node 0 crashes at
/// `crash_at`, run under `recovery`.
fn crash_node_zero(recovery: RecoveryPolicy, crash_at: SimTime) -> Result<RunReport, DisaggError> {
    let (topo, rack) = disaggregated_rack(2, 4, 1, 8);
    let faults = FaultInjector::with_events(vec![FaultEvent {
        at: crash_at,
        kind: FaultKind::NodeCrash(rack.nodes[0]),
    }]);
    let config = RuntimeConfig::default().with_faults(faults).with_recovery(recovery);
    let jobs = (0..4)
        .map(|i| {
            let mut j = JobBuilder::new(format!("pair{i}"));
            let first = j.task(TaskSpec::new("first").output_bytes(4096).body(|ctx| {
                ctx.compute(WorkClass::Scalar, 100_000);
                Ok(())
            }));
            let second = j.task(TaskSpec::new("second").work(WorkClass::Scalar, 1_000));
            j.edge(first, second);
            j.build().unwrap()
        })
        .collect::<Vec<_>>();
    Runtime::new(topo, config).execute(jobs)
}

/// A detection delay or relaunch backoff that carries a fault's
/// detection or relaunch past the end of virtual time is a typed
/// `InvalidConfig`. The sum used to panic in a debug build and wrap in a
/// release one, relaunching the task before the fault.
#[test]
fn a_recovery_delay_past_the_end_of_time_is_a_typed_error() {
    let never = SimDuration(u64::MAX);
    for recovery in [
        RecoveryPolicy::default().with_detection_delay(never),
        RecoveryPolicy::default().with_backoff(never),
    ] {
        let got = crash_node_zero(recovery, SimTime(1));
        assert!(matches!(got, Err(DisaggError::InvalidConfig { .. })), "{recovery:?}: {got:?}");
    }
    // A delay that still fits, with no retries, exhausts them cleanly.
    let fits = RecoveryPolicy::default()
        .with_detection_delay(SimDuration(u64::MAX - 5))
        .with_max_retries(0);
    let got = crash_node_zero(fits, SimTime(1));
    assert!(matches!(got, Err(DisaggError::RetriesExhausted { .. })), "{got:?}");
    // A crash at the end of time strikes after every task has finished.
    let report = crash_node_zero(RecoveryPolicy::default(), SimTime(u64::MAX - 1)).unwrap();
    assert_eq!(report.tasks.len(), 8);
}

/// A crash interrupts the stream job's `source` halfway through, after
/// it has started streaming to `window-aggregate`. The lost attempt's
/// chunks are gone with it, so the consumer is fed by the retry: it
/// starts no earlier than the retry's dispatch, and still before the
/// retry finishes (the retry streams too). Debug builds also hold the
/// whole run to an event loop that never commits in the virtual past.
#[test]
fn a_retried_streaming_source_feeds_its_consumer_from_the_retry() {
    let job = || streaming::windowed_job(streaming::StreamConfig::default());
    let (topo, _) = disaggregated_rack(2, 16, 2, 64);
    let mut healthy = Runtime::new(topo, RuntimeConfig::default());
    let report = healthy.execute(vec![job()]).unwrap();
    let task = |r: &RunReport, name: &str| r.tasks.iter().find(|t| &*t.name == name).unwrap().clone();
    let (source, agg) = (task(&report, "source"), task(&report, "window-aggregate"));
    assert!(agg.start < source.finish, "the healthy pair pipelines");

    let crash_at = SimTime(source.start.0 + source.duration().0 / 2);
    let node = healthy.topology().node_of_compute(source.compute);
    let faults = FaultInjector::with_events(vec![FaultEvent {
        at: crash_at,
        kind: FaultKind::NodeCrash(node),
    }]);
    let recovery = RecoveryPolicy::default()
        .with_detection_delay(SimDuration(2_000))
        .with_backoff(SimDuration(1_000));
    let (topo, _) = disaggregated_rack(2, 16, 2, 64);
    let config = RuntimeConfig::traced().with_faults(faults).with_recovery(recovery);
    let mut rt = Runtime::new(topo, config);
    let report = rt.execute(vec![job()]).unwrap();
    assert_eq!(assert_one_event_per_attempt(&rt, &report), 1);
    let (source, agg) = (task(&report, "source"), task(&report, "window-aggregate"));
    let dispatches: Vec<SimTime> = rt
        .trace()
        .events()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::TaskAttempt { task: 0, at, .. } => Some(at),
            _ => None,
        })
        .collect();
    let [first, retry] = dispatches[..] else {
        panic!("the source runs twice: {dispatches:?}");
    };
    assert_eq!(source.start, first, "the report keeps the first attempt's start");
    assert!(retry > crash_at);
    assert!(agg.start >= retry, "consumer at {:?}, retry dispatched at {retry:?}", agg.start);
    assert!(agg.start < source.finish, "the retry pipelines too");
}

/// A task waiting for a lane on a node that crashes is not dispatched
/// there when the lane frees at the crash's detection: it moves to the
/// live node. Node `a` is twenty times faster than `b`, so the plan puts
/// both independent tasks on `a`'s one lane, the second queued behind
/// the first; `a` crashes halfway through the first.
#[test]
fn a_task_queued_on_a_crashed_node_moves_to_a_live_one() {
    use disagg::hwsim::compute::ComputeModel;
    use disagg::hwsim::device::MemDeviceModel;
    use disagg::hwsim::topology::LinkKind;

    let topo = || {
        let mut t = Topology::builder();
        for (name, slowdown) in [("a", 1.0), ("b", 20.0)] {
            let n = t.node(name);
            let cpu = ComputeModel::preset(ComputeKind::Cpu);
            let ns_per_elem = cpu.ns_per_elem.map(|ns| ns * slowdown);
            let cpu = t.compute(n, ComputeModel { slots: 1, ns_per_elem, ..cpu });
            let dram = t.mem(n, MemDeviceModel::preset(MemDeviceKind::Dram));
            t.link(cpu, dram, LinkKind::MemBus);
        }
        t.build().expect("two one-lane nodes")
    };
    let job = || {
        let mut j = JobBuilder::new("pair");
        for name in ["first", "second"] {
            let body = |ctx: &mut TaskCtx<'_, '_>| {
                ctx.compute(WorkClass::Scalar, 100_000);
                Ok(())
            };
            j.task(
                TaskSpec::new(name)
                    .work(WorkClass::Scalar, 100_000)
                    .require(ComputeKind::Cpu)
                    .body(body),
            );
        }
        j.build().unwrap()
    };
    let mut healthy = Runtime::new(topo(), RuntimeConfig::default());
    let report = healthy.execute(vec![job()]).unwrap();
    let task = |r: &RunReport, name: &str| r.tasks.iter().find(|t| &*t.name == name).unwrap().clone();
    let (first, second) = (task(&report, "first"), task(&report, "second"));
    let a = first.compute;
    assert_eq!(second.compute, a, "the plan queues both tasks on a");
    assert_eq!(second.start, first.finish);

    let crash_at = SimTime(first.finish.0 / 2);
    let faults = FaultInjector::with_events(vec![FaultEvent {
        at: crash_at,
        kind: FaultKind::NodeCrash(healthy.topology().node_of_compute(a)),
    }]);
    let recovery = RecoveryPolicy::default()
        .with_detection_delay(SimDuration(2_000))
        .with_backoff(SimDuration(1_000));
    let config = RuntimeConfig::traced().with_faults(faults).with_recovery(recovery);
    let mut rt = Runtime::new(topo(), config);
    let report = rt.execute(vec![job()]).unwrap();
    assert_eq!(assert_one_event_per_attempt(&rt, &report), 1, "the first task's");
    for e in rt.trace().events() {
        if let TraceEvent::TaskAttempt { task, on, at, .. } = *e {
            assert!(on != a || at < crash_at, "task {task} dispatched on the dead node at {at:?}");
        }
    }
    let (first, second) = (task(&report, "first"), task(&report, "second"));
    assert!(first.compute != a && second.compute != a);
    assert!(second.start >= crash_at + SimDuration(2_000), "it moves when the crash is detected");
}

/// The same faulty submission — crash, recovery, corruption, degraded
/// link, retries — replays bit-for-bit.
#[test]
fn faulty_run_is_bit_for_bit_deterministic() {
    let run = || {
        let (topo, rack) = disaggregated_rack(2, 16, 2, 64);
        let mut faults = FaultInjector::none();
        faults.schedule(SimTime(20_000), FaultKind::NodeCrash(rack.nodes[0]));
        faults.schedule(SimTime(60_000), FaultKind::NodeRecover(rack.nodes[0]));
        faults.schedule(
            SimTime(10_000),
            FaultKind::Corrupt { dev: rack.drams[0], offset: 0, len: 1 << 20 },
        );
        let config = RuntimeConfig::traced()
            .with_faults(faults)
            .with_recovery(
                RecoveryPolicy::default()
                    .with_detection_delay(SimDuration(2_000))
                    .with_backoff(SimDuration(1_000)),
            );
        let mut rt = Runtime::new(topo, config);
        let job = dbms::query_job(dbms::DbmsConfig {
            tuples: 2_000,
            probe_tuples: 1_000,
            ..dbms::DbmsConfig::default()
        });
        let report = rt.execute(vec![job]).unwrap();
        assert!(assert_one_event_per_attempt(&rt, &report) > 0, "the crash interrupts a task");
        let trace: Vec<String> = rt.trace().events().iter().map(|e| format!("{e:?}")).collect();
        (report.makespan, trace)
    };
    let (m1, t1) = run();
    let (m2, t2) = run();
    assert_eq!(m1, m2, "faulty makespan must replay exactly");
    assert_eq!(t1, t2, "faulty trace must replay bit-for-bit");
}
