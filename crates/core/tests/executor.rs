//! End-to-end tests for the runtime executor.

use disagg_core::prelude::*;
use disagg_hwsim::fault::{FaultEvent, FaultInjector, FaultKind};
use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::presets::{disaggregated_rack, single_server};
use disagg_hwsim::trace::TraceEvent;
use disagg_region::region::RegionError;

fn passthrough(bytes: usize) -> impl Fn(&mut TaskCtx<'_, '_>) -> Result<(), TaskError> {
    move |ctx| {
        let mut buf = vec![0u8; bytes];
        if !ctx.inputs().is_empty() {
            ctx.read_input(0, &mut buf)?;
        }
        ctx.write_output(0, &buf)?;
        Ok(())
    }
}

#[test]
fn linear_pipeline_is_all_ownership_transfers() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("pipe");
    let n = 5;
    let ids: Vec<TaskId> = (0..n)
        .map(|i| {
            job.task(
                TaskSpec::new(format!("t{i}"))
                    .work(WorkClass::Vector, 10_000)
                    .output_bytes(1 << 20)
                    .body(passthrough(1 << 20)),
            )
        })
        .collect();
    job.chain(&ids);
    let report = rt.execute(job.build().unwrap()).unwrap();
    assert_eq!(report.ownership_transfers, (n - 1) as u64);
    assert_eq!(report.handover_copies, 0);
    assert_eq!(report.transfer_ratio(), 1.0);
    assert!(report.makespan > SimDuration::ZERO);
    // 4 handovers of 1 MiB avoided any wire movement.
    assert_eq!(report.bytes_ownership_transferred, 4 << 20);
    // Each transfer takes the mechanism's fixed overhead, no more: the
    // consumer starts exactly that long after its producer finishes.
    let transfer = SimDuration::from_nanos(
        disagg_hwsim::calibration::mechanisms().ownership_transfer_ns.value,
    );
    for pair in report.tasks.windows(2) {
        assert_eq!(pair[1].start - pair[0].finish, transfer);
    }
}

#[test]
fn always_copy_baseline_moves_every_byte() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(
        topo,
        RuntimeConfig::traced().with_handover(HandoverPolicy::AlwaysCopy),
    );
    let mut job = JobBuilder::new("pipe");
    let ids: Vec<TaskId> = (0..3)
        .map(|i| {
            job.task(
                TaskSpec::new(format!("t{i}"))
                    .output_bytes(1 << 20)
                    .body(passthrough(1 << 20)),
            )
        })
        .collect();
    job.chain(&ids);
    let report = rt.execute(job.build().unwrap()).unwrap();
    assert_eq!(report.ownership_transfers, 0);
    assert_eq!(report.handover_copies, 2);
    assert!(report.bytes_moved >= 2 << 20, "copies must move the bytes");
    // Each copy books its allocation, then the copy, then the source's
    // free, all at the producer's finish.
    let mut copies = 0;
    for w in rt.trace().events().windows(3) {
        let TraceEvent::Migrate { region: src, from, to, bytes, at, .. } = w[1] else {
            continue;
        };
        copies += 1;
        assert!(
            matches!(w[0], TraceEvent::Alloc { region, dev, bytes: b, at: t }
                if region != src && (dev, b, t) == (to, bytes, at)),
            "{:?}",
            w[0]
        );
        assert_eq!(w[2], TraceEvent::Free { region: src, dev: from, bytes, at });
    }
    assert_eq!(copies, 2);
}

#[test]
fn a_second_execute_reports_only_its_own_bytes() {
    let copying_runtime = || {
        let (topo, _) = single_server();
        Runtime::new(topo, RuntimeConfig::traced().with_handover(HandoverPolicy::AlwaysCopy))
    };
    let pipe = |len: usize| {
        let mut job = JobBuilder::new("pipe");
        let ids: Vec<TaskId> = (0..len)
            .map(|i| {
                job.task(
                    TaskSpec::new(format!("t{i}"))
                        .output_bytes(1 << 20)
                        .body(passthrough(1 << 20)),
                )
            })
            .collect();
        job.chain(&ids);
        job.build().unwrap()
    };
    let mut rt = copying_runtime();
    let first = rt.execute(pipe(3)).unwrap();
    let second = rt.execute(pipe(2)).unwrap();
    assert!(first.bytes_moved > second.bytes_moved && second.bytes_moved > 0);
    assert_eq!(first.bytes_moved + second.bytes_moved, rt.trace().bytes_moved());
    // The same job on a fresh runtime moves what the second run reported.
    assert_eq!(copying_runtime().execute(pipe(2)).unwrap().bytes_moved, second.bytes_moved);
}

#[test]
fn hospital_dataflow_properties_are_honored() {
    // Figure 2: the five-task hospital job with its property annotations.
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("hospital").defaults(TaskProps {
        confidential: Some(true),
        ..TaskProps::default()
    });
    let t1 = job.task(
        TaskSpec::new("preprocessing")
            .on(ComputeKind::Gpu)
            .mem_latency(LatencyClass::Low)
            .work(WorkClass::Vector, 1_000_000)
            .private_scratch(1 << 20)
            .output_bytes(1 << 20)
            .body(passthrough(1 << 20)),
    );
    let t2 = job.task(
        TaskSpec::new("face-recognition")
            .on(ComputeKind::Gpu)
            .mem_latency(LatencyClass::Low)
            .work(WorkClass::Tensor, 10_000_000)
            .private_scratch(8 << 20)
            .output_bytes(64 << 10)
            .body(passthrough(64 << 10)),
    );
    let t3 = job.task(
        TaskSpec::new("track-hours")
            .on(ComputeKind::Cpu)
            .work(WorkClass::Scalar, 100_000)
            .private_scratch(1 << 16)
            .output_bytes(4096)
            .body(passthrough(4096)),
    );
    let t4 = job.task(
        TaskSpec::new("compute-utilization")
            .on(ComputeKind::Cpu)
            .confidential(false)
            .work(WorkClass::Scalar, 10_000)
            .output_bytes(1024)
            .body(passthrough(1024)),
    );
    let t5 = job.task(
        TaskSpec::new("alert-caregivers")
            .on(ComputeKind::Cpu)
            .persistent(true)
            .work(WorkClass::Scalar, 10_000)
            .output_bytes(4096)
            .body(passthrough(4096)),
    );
    job.edge(t1, t2);
    job.edge(t2, t3);
    job.edge(t2, t4);
    job.edge(t2, t5);

    let report = rt.execute(job.build().unwrap()).unwrap();
    assert!(report.placements_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.tasks.len(), 5);

    // GPU tasks ran on the GPU.
    let face = report.task_by_name(JobId(0), "face-recognition").unwrap();
    assert_eq!(rt.topology().compute(face.compute).kind, ComputeKind::Gpu);

    // The persistent alert output survived on a persistent device and is
    // still live (App scope) after the job finished.
    let alert = report.task_by_name(JobId(0), "alert-caregivers").unwrap();
    let (_, out_region, out_dev) = report
        .placements_of(alert)
        .iter()
        .find(|(kind, _, _)| *kind == "output")
        .expect("alert task has an output placement");
    assert!(rt.topology().mem(*out_dev).persistent);
    assert!(rt.manager().is_live(*out_region), "persistent result survives");
}

#[test]
fn figure3_same_request_maps_to_dram_on_cpu_and_gddr_on_gpu() {
    let (topo, ids) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("fig3");
    job.task(
        TaskSpec::new("cpu-task")
            .require(ComputeKind::Cpu)
            .mem_latency(LatencyClass::Low)
            .private_scratch(1 << 30)
            .body(|ctx| {
                ctx.scratch_write(0, &[1u8; 64])?;
                Ok(())
            }),
    );
    job.task(
        TaskSpec::new("gpu-task")
            .require(ComputeKind::Gpu)
            .mem_latency(LatencyClass::Low)
            .private_scratch(1 << 30)
            .body(|ctx| {
                ctx.scratch_write(0, &[1u8; 64])?;
                Ok(())
            }),
    );
    let report = rt.execute(job.build().unwrap()).unwrap();
    let scratch_dev = |name: &str| {
        report
            .placements_of(report.task_by_name(JobId(0), name).unwrap())
            .iter()
            .find(|(k, _, _)| *k == "private_scratch")
            .unwrap()
            .2
    };
    assert_eq!(scratch_dev("cpu-task"), ids.dram);
    assert_eq!(scratch_dev("gpu-task"), ids.gddr);
}

#[test]
fn fan_out_gives_first_consumer_the_transfer_and_copies_the_rest() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("fanout");
    let src = job.task(
        TaskSpec::new("src")
            .output_bytes(1 << 16)
            .body(passthrough(1 << 16)),
    );
    let consumers: Vec<TaskId> = (0..3)
        .map(|i| {
            job.task(TaskSpec::new(format!("c{i}")).body(|ctx| {
                let mut buf = [0u8; 16];
                ctx.read_input(0, &mut buf)?;
                Ok(())
            }))
        })
        .collect();
    for &c in &consumers {
        job.edge(src, c);
    }
    let report = rt.execute(job.build().unwrap()).unwrap();
    assert_eq!(report.ownership_transfers, 1);
    assert_eq!(report.handover_copies, 2);
    // On the host both copies share the source's buffer: only the
    // producer's write materialized bytes.
    assert_eq!(rt.manager().pool().bytes_materialized(), 1 << 16);
}

#[test]
fn a_fan_out_copy_stops_sharing_when_it_is_written() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("fanout");
    let src = job.task(
        TaskSpec::new("src")
            .output_bytes(1 << 16)
            .body(|ctx| {
                ctx.write_output(0, &[3u8; 1 << 16])?;
                Ok(())
            }),
    );
    // Each consumer sees the producer's bytes; the last one then writes
    // its own copy.
    let consumers: Vec<TaskId> = (0..3)
        .map(|i| {
            job.task(TaskSpec::new(format!("c{i}")).body(move |ctx| {
                let mut buf = [0u8; 16];
                ctx.read_input(0, &mut buf)?;
                if buf != [3u8; 16] {
                    return Err(TaskError::new("a copy must carry the producer's bytes"));
                }
                if i == 2 {
                    let input = ctx.input()?;
                    ctx.async_write(input, 0, &[4u8; 16])?;
                    ctx.wait_async();
                }
                Ok(())
            }))
        })
        .collect();
    for &c in &consumers {
        job.edge(src, c);
    }
    let report = rt.execute(job.build().unwrap()).unwrap();
    assert_eq!(report.handover_copies, 2);
    // The write gave its copy a buffer of its own; nothing else did.
    assert_eq!(rt.manager().pool().bytes_materialized(), 2 << 16);
}

/// Two islands with no route between them: a CPU and its DRAM, and a
/// GPU and its GDDR of `gddr_bytes`. Returns `(topology, gpu, gddr)`.
fn islands(gddr_bytes: u64) -> (Topology, ComputeId, MemDeviceId) {
    use disagg_hwsim::compute::ComputeModel;
    use disagg_hwsim::device::MemDeviceModel;
    use disagg_hwsim::topology::LinkKind;

    let mut b = Topology::builder();
    let host = b.node("host");
    let card = b.node("card");
    let cpu = b.compute(host, ComputeModel::preset(ComputeKind::Cpu));
    let gpu = b.compute(card, ComputeModel::preset(ComputeKind::Gpu));
    let dram = b.mem(host, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, 1 << 24));
    let gddr = b.mem(card, MemDeviceModel::preset_with_capacity(MemDeviceKind::Gddr, gddr_bytes));
    b.link(cpu, dram, LinkKind::MemBus);
    b.link(gpu, gddr, LinkKind::GpuBus);
    (b.build().unwrap(), gpu, gddr)
}

/// A CPU producer writing 4 KiB of 7s and a GPU consumer checking them.
fn cpu_to_gpu() -> JobSpec {
    let mut job = JobBuilder::new("islands");
    let p = job.task(
        TaskSpec::new("p")
            .require(ComputeKind::Cpu)
            .output_bytes(4096)
            .body(|ctx| {
                ctx.write_output(0, &[7u8; 8])?;
                Ok(())
            }),
    );
    let c = job.task(TaskSpec::new("c").require(ComputeKind::Gpu).body(|ctx| {
        let mut buf = [0u8; 8];
        ctx.read_input(0, &mut buf)?;
        if buf != [7u8; 8] {
            return Err(TaskError::new("the copy must carry the producer's bytes"));
        }
        Ok(())
    }));
    job.edge(p, c);
    job.build().unwrap()
}

#[test]
fn unaddressable_region_falls_back_to_copy() {
    // The GPU cannot address the producer's DRAM: handover must fall
    // back to a physical copy, into the GDDR it can reach.
    let (topo, _, gddr) = islands(1 << 24);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let report = rt.execute(cpu_to_gpu()).unwrap();
    assert_eq!((report.ownership_transfers, report.handover_copies), (0, 1));
    let copies: Vec<MemDeviceId> = rt
        .trace()
        .events()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Migrate { to, .. } => Some(to),
            _ => None,
        })
        .collect();
    assert_eq!(copies, [gddr]);
}

#[test]
fn copy_with_nowhere_to_go_names_the_consumer_and_keeps_the_source() {
    // The GPU reaches only its GDDR, and the GDDR is too small.
    let (topo, gpu, gddr) = islands(2048);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let err = rt.execute(cpu_to_gpu()).unwrap_err();
    let DisaggError::Region(err @ RegionError::NoPlacement { consumer, size, .. }) = err else {
        panic!("expected NoPlacement, got {err:?}");
    };
    assert_eq!((consumer, size), (gpu, 4096));
    let msg = err.to_string();
    assert!(msg.contains(&gpu.to_string()) && msg.contains("4096"), "{msg}");
    // Nothing was copied, allocated on the GDDR or freed on the way out.
    let events = rt.trace().events();
    assert!(!events.iter().any(|e| matches!(e, TraceEvent::Migrate { .. } | TraceEvent::Free { .. })));
    assert!(!events.iter().any(|e| matches!(*e, TraceEvent::Alloc { dev, .. } if dev == gddr)));
    assert_eq!(rt.manager().live_count(), 1, "the producer's output stays live");
}

#[test]
fn global_state_is_shared_across_tasks_of_a_job() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("stateful");
    let w = job.task(TaskSpec::new("writer").body(|ctx| {
        ctx.state_write(0, &[42u8; 8])?;
        Ok(())
    }));
    let r = job.task(TaskSpec::new("reader").body(|ctx| {
        let mut buf = [0u8; 8];
        ctx.state_read(0, &mut buf)?;
        if buf != [42u8; 8] {
            return Err(TaskError::new("global state not visible"));
        }
        Ok(())
    }));
    job.edge(w, r);
    let spec = job.global_state(4096).build().unwrap();
    let report = rt.execute(spec).unwrap();
    assert_eq!(report.tasks.len(), 2);
}

#[test]
fn published_global_scratch_is_reusable_downstream() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("publish");
    let producer = job.task(
        TaskSpec::new("build-index")
            .global_scratch(1 << 16)
            .output_bytes(64)
            .body(|ctx| {
                let idx = ctx.global_scratch()?;
                ctx.async_write(idx, 0, &[0xCC; 1024])?;
                ctx.wait_async();
                ctx.publish("index", idx);
                ctx.write_output(0, &[0u8; 64])?;
                Ok(())
            }),
    );
    let consumer = job.task(TaskSpec::new("reuse-index").body(|ctx| {
        let idx = ctx
            .lookup("index")
            .ok_or_else(|| TaskError::new("index not published"))?;
        let mut buf = [0u8; 1024];
        ctx.async_read(idx, 0, &mut buf)?;
        ctx.wait_async();
        if buf != [0xCC; 1024] {
            return Err(TaskError::new("index contents wrong"));
        }
        Ok(())
    }));
    job.edge(producer, consumer);
    rt.execute(job.build().unwrap()).unwrap();
}

#[test]
fn node_crash_fails_over_to_another_compute_device() {
    let (topo, rack) = disaggregated_rack(2, 32, 2, 64);
    let crash_node = topo.node_of_compute(rack.cpus[0]);
    let faults = FaultInjector::with_events(vec![FaultEvent {
        at: SimTime::ZERO,
        kind: FaultKind::NodeCrash(crash_node),
    }]);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced().with_faults(faults));
    let mut job = JobBuilder::new("failover");
    job.task(
        TaskSpec::new("work")
            .work(WorkClass::Scalar, 1_000)
            .private_scratch(4096)
            .body(|ctx| {
                ctx.scratch_write(0, &[1u8; 64])?;
                Ok(())
            }),
    );
    let report = rt.execute(job.build().unwrap()).unwrap();
    let t = &report.tasks[0];
    assert_ne!(
        rt.topology().node_of_compute(t.compute),
        crash_node,
        "task must not run on the crashed node"
    );
}

#[test]
fn confidential_region_cross_job_access_is_denied() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());

    // Job 0 leaves behind a persistent, confidential result.
    let mut job0 = JobBuilder::new("secret-job");
    job0.task(
        TaskSpec::new("write-secret")
            .confidential(true)
            .persistent(true)
            .output_bytes(4096)
            .body(passthrough(4096)),
    );
    let report0 = rt.execute(job0.build().unwrap()).unwrap();
    let (_, secret, _) = report0
        .placements_of(&report0.tasks[0])
        .iter()
        .find(|(k, _, _)| *k == "output")
        .copied()
        .expect("secret output placed");

    // Job 1 tries to read it: denied by ownership + confidentiality.
    let mut job1 = JobBuilder::new("snoop-job");
    job1.task(TaskSpec::new("snoop").body(move |ctx| {
        let mut buf = [0u8; 16];
        match ctx.acc.read(secret, 0, &mut buf, AccessPattern::Random) {
            Err(e) => Err(TaskError::from(e)),
            Ok(_) => Ok(()),
        }
    }));
    let err = rt.execute(job1.build().unwrap()).unwrap_err();
    match err {
        RuntimeError::Task { error, .. } => {
            assert!(error.is_confidentiality_denial(), "got: {}", error.msg)
        }
        other => panic!("expected task failure, got {other}"),
    }
}

#[test]
fn multi_job_batch_reports_all_tasks_and_advances_clock() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mk = |name: &str| {
        let mut j = JobBuilder::new(name);
        let a = j.task(TaskSpec::new("a").output_bytes(1024).body(passthrough(1024)));
        let b = j.task(TaskSpec::new("b").body(|_| Ok(())));
        j.edge(a, b);
        j.build().unwrap()
    };
    let report = rt.execute(vec![mk("one"), mk("two")]).unwrap();
    assert_eq!(report.tasks.len(), 4);
    assert!(rt.now() > SimTime::ZERO);
    let first_clock = rt.now();
    rt.execute(vec![mk("three")]).unwrap();
    assert!(rt.now() > first_clock, "clock is monotonic across batches");
}

#[test]
fn declarative_beats_worst_feasible_placement() {
    let mk_job = || {
        let mut j = JobBuilder::new("scan");
        j.task(
            TaskSpec::new("scan")
                .work(WorkClass::Scalar, 1_000_000)
                .private_scratch(64 << 20)
                .body(|ctx| {
                    let mut buf = vec![0u8; 1 << 20];
                    for i in 0..16u64 {
                        ctx.scratch_read((i * (1 << 20)) % (32 << 20), &mut buf)?;
                    }
                    Ok(())
                }),
        );
        j.build().unwrap()
    };
    let run = |policy: PlacementPolicy| {
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced().with_placement(policy));
        rt.execute(mk_job()).unwrap().makespan
    };
    let good = run(PlacementPolicy::Declarative);
    let bad = run(PlacementPolicy::WorstFeasible);
    assert!(
        bad.as_nanos() > 2 * good.as_nanos(),
        "worst {bad} should be >2x declarative {good}"
    );
}

#[test]
fn lifetime_rule_frees_scratch_after_task_exit() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("cleanup");
    job.task(
        TaskSpec::new("t")
            .private_scratch(1 << 20)
            .body(|ctx| {
                ctx.scratch_write(0, &[1u8; 64])?;
                Ok(())
            }),
    );
    rt.execute(job.build().unwrap()).unwrap();
    assert_eq!(
        rt.manager().live_count(),
        0,
        "no regions outlive a job without persistent outputs"
    );
}

#[test]
fn streaming_chains_pipeline_and_batch_chains_do_not() {
    // A chain of 4 heavy tasks. As a batch job, stages run back-to-back;
    // declared streaming, each stage starts once its predecessor's first
    // chunk is out.
    let run = |streaming: bool| {
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let mut job = JobBuilder::new("chain");
        let ids: Vec<TaskId> = (0..4)
            .map(|i| {
                job.task(
                    TaskSpec::new(format!("s{i}"))
                        .streaming(streaming)
                        .work(WorkClass::Scalar, 1_000_000)
                        .output_bytes(1 << 20)
                        .body(|ctx| {
                            ctx.compute(WorkClass::Scalar, 1_000_000);
                            ctx.write_output(0, &[1u8; 1 << 20])?;
                            Ok(())
                        }),
                )
            })
            .collect();
        job.chain(&ids);
        rt.execute(job.build().unwrap()).unwrap().makespan
    };
    let batch = run(false);
    let streamed = run(true);
    let speedup = batch.as_nanos_f64() / streamed.as_nanos_f64();
    assert!(
        speedup > 2.0,
        "streaming chain should pipeline: batch {batch} vs streamed {streamed} ({speedup:.2}x)"
    );
    assert!(
        speedup < 4.0,
        "4 stages cannot speed up more than 4x, got {speedup:.2}x"
    );
}

#[test]
fn mixed_streaming_edges_only_pipeline_between_streaming_tasks() {
    // stream → batch → stream: the batch stage forces a full barrier.
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("mixed");
    let mk = |name: &str, streaming: bool| {
        TaskSpec::new(name)
            .streaming(streaming)
            .work(WorkClass::Scalar, 1_000_000)
            .output_bytes(1 << 16)
            .body(|ctx| {
                ctx.compute(WorkClass::Scalar, 1_000_000);
                ctx.write_output(0, &[1u8; 1 << 16])?;
                Ok(())
            })
    };
    let a = job.task(mk("a", true));
    let b = job.task(mk("b", false));
    let c = job.task(mk("c", true));
    job.chain(&[a, b, c]);
    let report = rt.execute(job.build().unwrap()).unwrap();
    let at = report.task_by_name(JobId(0), "a").unwrap();
    let bt = report.task_by_name(JobId(0), "b").unwrap();
    let ct = report.task_by_name(JobId(0), "c").unwrap();
    // a→b is not pipelined (b is batch): b starts after a finishes.
    assert!(bt.start >= at.finish);
    // b→c is not pipelined either (b is batch).
    assert!(ct.start >= bt.finish);
}

#[test]
fn mid_task_node_crash_retries_on_a_survivor() {
    // The assigned node dies halfway through the task; the body re-runs
    // on a surviving node and the job still completes — paying for both
    // attempts.
    let (topo, rack) = disaggregated_rack(2, 32, 2, 64);
    let victim = topo.node_of_compute(rack.cpus[0]);

    // Baseline: how long does the task take without faults?
    let mk_job = || {
        let mut j = JobBuilder::new("crashy");
        j.task(
            TaskSpec::new("work")
                .require(ComputeKind::Cpu)
                .work(WorkClass::Scalar, 2_000_000)
                .private_scratch(1 << 20)
                .body(|ctx| {
                    ctx.scratch_write(0, &[1u8; 4096])?;
                    ctx.compute(WorkClass::Scalar, 2_000_000);
                    Ok(())
                }),
        );
        j.build().unwrap()
    };
    let healthy = {
        let (topo, _) = disaggregated_rack(2, 32, 2, 64);
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        rt.execute(mk_job()).unwrap()
    };
    let healthy_task = &healthy.tasks[0];
    let healthy_dur = healthy_task.duration();
    // Crash the node that ran it, halfway through its runtime.
    let crash_at = healthy_task.start + healthy_dur / 2;
    assert_eq!(
        healthy
            .tasks
            .iter()
            .filter(|t| &*t.name == "work")
            .count(),
        1
    );

    let faults = FaultInjector::with_events(vec![FaultEvent {
        at: crash_at,
        kind: FaultKind::NodeCrash(victim),
    }]);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced().with_faults(faults));
    let report = rt.execute(mk_job()).unwrap();
    let t = &report.tasks[0];
    assert_ne!(
        rt.topology().node_of_compute(t.compute),
        victim,
        "the retry must land on a surviving node"
    );
    assert!(
        t.duration().as_nanos() > healthy_dur.as_nanos() * 13 / 10,
        "the retry pays for both attempts: {} vs healthy {}",
        t.duration(),
        healthy_dur
    );
}

#[test]
fn a_retry_places_its_regions_off_the_crashed_node() {
    // The task's scratch sits on its node's DRAM. The node crashes
    // halfway through and stays down; the retry runs on the other server
    // while it is still down, so none of the retry's regions may land on
    // the crashed node — they are placed afresh, like a first attempt's.
    let mk_job = || {
        let mut j = JobBuilder::new("scratchy");
        j.task(
            TaskSpec::new("work")
                .require(ComputeKind::Cpu)
                .work(WorkClass::Scalar, 2_000_000)
                .private_scratch(1 << 20)
                .output_bytes(4096)
                .body(|ctx| {
                    ctx.scratch_write(0, &[1u8; 4096])?;
                    ctx.compute(WorkClass::Scalar, 2_000_000);
                    ctx.write_output(0, &[2u8; 4096])?;
                    Ok(())
                }),
        );
        j.build().unwrap()
    };
    let (topo, rack) = disaggregated_rack(2, 32, 2, 64);
    let victim = topo.node_of_compute(rack.cpus[0]);
    let healthy = Runtime::new(topo.clone(), RuntimeConfig::traced()).execute(mk_job()).unwrap();
    let t = &healthy.tasks[0];
    assert_eq!(topo.node_of_compute(t.compute), victim);
    let (_, _, scratch_dev) = *healthy
        .placements_of(t)
        .iter()
        .find(|(kind, _, _)| *kind == "private_scratch")
        .expect("the task declares scratch");
    assert_eq!(topo.node_of_mem(scratch_dev), victim, "the scratch sits on the victim's DRAM");

    let faults = FaultInjector::with_events(vec![FaultEvent {
        at: t.start + t.duration() / 2,
        kind: FaultKind::NodeCrash(victim),
    }]);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced().with_faults(faults));
    let report = rt.execute(mk_job()).unwrap();
    let retries =
        rt.trace().events().iter().filter(|e| matches!(e, TraceEvent::TaskRetry { .. })).count();
    assert_eq!(retries, 1, "the crash interrupts the attempt once");
    let retried = &report.tasks[0];
    assert_ne!(rt.topology().node_of_compute(retried.compute), victim);
    // The interrupted attempt's placements left the report with it.
    assert_eq!(report.placements_of(retried).len(), report.placements.len());
    for &(kind, _, dev) in report.placements_of(retried) {
        assert_ne!(
            rt.topology().node_of_mem(dev),
            victim,
            "the retry's {kind} is on {dev:?}, on the crashed node"
        );
    }
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn an_interrupted_attempt_leaves_nothing_in_the_retrys_scratch() {
    // The body read-modify-writes a counter in its private scratch. A
    // node crash halfway through loses the attempt; the retry must see
    // zeroed scratch exactly as the first attempt did, so the output is
    // the fault-free one — not the lost attempt's count plus one.
    use disagg_hwsim::trace::TraceEvent;
    use disagg_region::region::OwnerId;
    let mk_job = || {
        let mut j = JobBuilder::new("counter");
        j.task(
            TaskSpec::new("count")
                .require(ComputeKind::Cpu)
                .work(WorkClass::Scalar, 2_000_000)
                .private_scratch(1 << 20)
                .output_bytes(8)
                .persistent(true)
                .body(|ctx| {
                    let mut counter = [0u8; 8];
                    ctx.scratch_read(0, &mut counter)?;
                    let bumped = u64::from_le_bytes(counter) + 1;
                    ctx.scratch_write(0, &bumped.to_le_bytes())?;
                    ctx.compute(WorkClass::Scalar, 2_000_000);
                    ctx.scratch_read(0, &mut counter)?;
                    ctx.write_output(0, &counter)?;
                    Ok(())
                }),
        );
        j.build().unwrap()
    };
    let output = |rt: &Runtime, report: &RunReport| {
        let (_, region, _) = report
            .placements_of(&report.tasks[0])
            .iter()
            .find(|(kind, _, _)| *kind == "output")
            .expect("the task declares an output");
        rt.manager().bytes(*region, OwnerId::App).expect("persistent output").to_vec()
    };

    let (topo, rack) = disaggregated_rack(2, 32, 2, 64);
    let victim = topo.node_of_compute(rack.cpus[0]);
    let mut healthy_rt = Runtime::new(topo.clone(), RuntimeConfig::traced());
    let healthy = healthy_rt.execute(mk_job()).unwrap();
    let want = output(&healthy_rt, &healthy);
    assert_eq!(want, 1u64.to_le_bytes());

    let t = &healthy.tasks[0];
    assert_eq!(healthy_rt.topology().node_of_compute(t.compute), victim);
    let faults = FaultInjector::with_events(vec![FaultEvent {
        at: t.start + t.duration() / 2,
        kind: FaultKind::NodeCrash(victim),
    }]);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced().with_faults(faults));
    let report = rt.execute(mk_job()).unwrap();
    let retries = rt
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::TaskRetry { .. }))
        .count();
    assert_eq!(retries, 1, "the crash interrupts the attempt once");
    assert_eq!(output(&rt, &report), want, "the retry's answer is the fault-free one");
    // The lost attempt's regions were released, not leaked: only the
    // persistent output outlives the run, as in the healthy run.
    assert_eq!(rt.manager().live_count(), healthy_rt.manager().live_count());
}

/// The heal leaves the failure domain: with one of two persistent
/// devices on a blade failed, a region stranded on it is rebuilt on the
/// other blade, not on the failed device's healthy neighbour (which ties
/// with it on cost and has the lower id).
#[test]
fn healing_skips_the_failed_devices_node() {
    use disagg_hwsim::compute::ComputeModel;
    use disagg_hwsim::device::MemDeviceModel;
    use disagg_hwsim::topology::LinkKind;
    use disagg_region::props::PropertySet;
    use disagg_region::region::OwnerId;
    use disagg_region::typed::RegionType;

    let mut b = Topology::builder();
    let host = b.node("host");
    let cpu = b.compute(host, ComputeModel::preset(ComputeKind::Cpu));
    let blade_a = b.node("blade-a");
    let blade_b = b.node("blade-b");
    let pmem = |b: &mut disagg_hwsim::topology::TopologyBuilder, node| {
        let dev = b.mem(node, MemDeviceModel::preset(MemDeviceKind::Pmem));
        b.link(cpu, dev, LinkKind::PcieCxl);
        dev
    };
    let lost = pmem(&mut b, blade_a);
    let neighbour = pmem(&mut b, blade_a);
    let other = pmem(&mut b, blade_b);
    let topo = b.build().unwrap();
    let faults = FaultInjector::with_events(vec![FaultEvent {
        at: SimTime::ZERO,
        kind: FaultKind::DeviceFail(lost),
    }]);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced().with_faults(faults));
    let props = PropertySet::new().persistent(true);
    let id = rt
        .manager_mut()
        .alloc(lost, 4096, RegionType::GlobalScratch, props, OwnerId::App, SimTime::ZERO)
        .unwrap();
    assert!(neighbour < other);
    assert_eq!(rt.heal_failed_persistent().unwrap(), vec![(id, other)]);
}

#[test]
fn healing_a_failed_persistent_region_pays_a_device_local_write_plus_decode() {
    use disagg_hwsim::calibration;
    use disagg_hwsim::compute::ComputeModel;
    use disagg_hwsim::contention::BandwidthLedger;
    use disagg_hwsim::device::{AccessOp, MemDeviceModel};
    use disagg_hwsim::topology::{AccessCostParts, LinkKind, PathCost};
    use disagg_hwsim::trace::TraceEvent;
    use disagg_region::access::book_access;
    use disagg_region::region::OwnerId;

    // One host and two persistent blades, each its own failure domain.
    let mut b = Topology::builder();
    let host = b.node("host");
    let cpu = b.compute(host, ComputeModel::preset(ComputeKind::Cpu));
    let dram = b.mem(host, MemDeviceModel::preset(MemDeviceKind::Dram));
    b.link(cpu, dram, LinkKind::MemBus);
    for name in ["pmem-a", "pmem-b"] {
        let blade = b.node(name);
        let pmem = b.mem(blade, MemDeviceModel::preset(MemDeviceKind::Pmem));
        b.link(cpu, pmem, LinkKind::PcieCxl);
    }
    let topo = b.build().unwrap();
    let keep = || {
        let mut j = JobBuilder::new("keep");
        j.task(
            TaskSpec::new("keep")
                .output_bytes(1000)
                .persistent(true)
                .body(|ctx| ctx.write_output(0, &[9u8; 1000]).map(|_| ())),
        );
        j.build().unwrap()
    };
    let later = || {
        let mut j = JobBuilder::new("later");
        j.task(TaskSpec::new("later").work(WorkClass::Scalar, 1_000).body(|ctx| {
            ctx.compute(WorkClass::Scalar, 1_000);
            Ok(())
        }));
        j.build().unwrap()
    };
    let output = |report: &RunReport| {
        let (_, region, dev) = report
            .placements_of(&report.tasks[0])
            .iter()
            .find(|(kind, _, _)| *kind == "output")
            .copied()
            .expect("the task declares an output");
        (region, dev)
    };

    // Where the output lands, from a healthy run.
    let mut healthy = Runtime::new(topo.clone(), RuntimeConfig::traced());
    let (_, home) = output(&healthy.execute(keep()).unwrap());
    let failed_at = healthy.now() + SimDuration::from_micros(10);

    // The same run, then the home blade fails — the device, or its whole
    // node — while a later job runs; healing after that job rebinds the
    // region to the other blade.
    let home_node = topo.node_of_mem(home);
    for kind in [FaultKind::DeviceFail(home), FaultKind::NodeCrash(home_node)] {
        let faults = FaultInjector::with_events(vec![FaultEvent { at: failed_at, kind }]);
        let mut rt = Runtime::new(topo.clone(), RuntimeConfig::traced().with_faults(faults));
        let (region, placed) = output(&rt.execute(keep()).unwrap());
        assert_eq!(placed, home);
        rt.execute(vec![(SimDuration::from_millis(1), later())]).unwrap();
        let healed: Vec<_> = rt
            .trace()
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Reconstruct { region: r, dev, bytes, at, took, .. } => {
                    Some((r, dev, bytes, at, took))
                }
                _ => None,
            })
            .collect();
        let [(r, dev, bytes, at, took)] = healed[..] else {
            panic!("one rebuild expected: {healed:?}")
        };
        assert_eq!((r, bytes), (region.0, 1000));
        assert!(at >= failed_at);
        assert_ne!(dev, home);
        assert_eq!(rt.manager().placement(region).unwrap().dev, dev);
        assert_eq!(rt.manager().bytes(region, OwnerId::App).unwrap(), &[9u8; 1000][..]);

        // The charge: a device-local sequential write of the region on the
        // idle destination, booked like any access, plus the decode toll.
        let parts = AccessCostParts::of(
            rt.topology().mem(dev),
            PathCost::LOCAL,
            bytes,
            AccessOp::Write,
            AccessPattern::Sequential,
        );
        let (write_done, _) =
            book_access(&mut BandwidthLedger::default_buckets(), None, dev, &parts, at);
        let per_byte = calibration::mechanisms().host_decode_ns_per_byte.value;
        let decode = SimDuration::from_nanos_f64(bytes as f64 * per_byte);
        assert_eq!(took, (write_done - at) + decode);
        // Known answer on Pmem: 450 ns write latency, 1000 B rounded to four
        // 256 B granules streamed at 3 B/ns (341.3 → 342 ns), 500 ns decode.
        assert_eq!(took.as_nanos(), 450 + 342 + 500);
    }
}

#[test]
fn arrivals_gate_job_starts_and_makespan_extends_past_the_last_one() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mk = |name: &str| {
        let mut j = JobBuilder::new(name);
        j.task(
            TaskSpec::new("t")
                .work(WorkClass::Scalar, 100_000)
                .body(|ctx| {
                    ctx.compute(WorkClass::Scalar, 100_000);
                    Ok(())
                }),
        );
        j.build().unwrap()
    };
    let report = rt
        .execute(vec![
            (SimDuration::ZERO, mk("first")),
            (SimDuration::from_micros(500), mk("second")),
            (SimDuration::from_millis(2), mk("third")),
        ])
        .unwrap();
    let start_of = |job: u64| {
        report
            .tasks
            .iter()
            .find(|t| t.job == JobId(job))
            .unwrap()
            .start
    };
    assert_eq!(start_of(0), SimTime::ZERO);
    assert!(start_of(1) >= SimTime(500_000));
    assert!(start_of(1) < SimTime(1_000_000), "no reason to delay past arrival");
    assert!(start_of(2) >= SimTime(2_000_000));
    // The last arrival lands at 2 ms; its ~100 us of work extends the
    // makespan past that.
    assert!(report.makespan > SimDuration::from_millis(2));
}

#[test]
fn app_published_regions_are_reusable_across_jobs() {
    // Job 0 builds an index and publishes it at application scope; job 1
    // (a different job, no dataflow edge) finds and reads it — the
    // paper's "re-use (transient) results of earlier operators" across
    // job boundaries.
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());

    let mut builder = JobBuilder::new("builder");
    builder.task(
        TaskSpec::new("build-index")
            .global_scratch(1 << 16)
            .body(|ctx| {
                let idx = ctx.global_scratch()?;
                ctx.async_write(idx, 0, &[0xEE; 512])?;
                ctx.wait_async();
                ctx.publish_app("shared-index", idx);
                Ok(())
            }),
    );
    rt.execute(builder.build().unwrap()).unwrap();
    assert!(rt.manager().live_count() >= 1, "the index must survive job 0");

    let mut consumer = JobBuilder::new("consumer");
    consumer.task(TaskSpec::new("reuse").body(|ctx| {
        let idx = ctx
            .lookup("shared-index")
            .ok_or_else(|| TaskError::new("app index not found"))?;
        let mut buf = [0u8; 512];
        ctx.async_read(idx, 0, &mut buf)?;
        ctx.wait_async();
        if buf != [0xEE; 512] {
            return Err(TaskError::new("index contents wrong"));
        }
        Ok(())
    }));
    rt.execute(consumer.build().unwrap()).unwrap();
}

#[test]
fn app_published_confidential_regions_stay_isolated() {
    // App scope does not leak confidential data across jobs: the region
    // manager's confidentiality check fires before hierarchical access.
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());

    let mut secret = JobBuilder::new("secret");
    secret.task(
        TaskSpec::new("keeper")
            .confidential(true)
            .global_scratch(4096)
            .body(|ctx| {
                let r = ctx.global_scratch()?;
                ctx.async_write(r, 0, b"classified")?;
                ctx.wait_async();
                ctx.publish_app("leaky", r);
                Ok(())
            }),
    );
    rt.execute(secret.build().unwrap()).unwrap();

    let mut snoop = JobBuilder::new("snoop");
    snoop.task(TaskSpec::new("snoop").body(|ctx| {
        let r = ctx.lookup("leaky").ok_or_else(|| TaskError::new("gone"))?;
        let mut buf = [0u8; 10];
        ctx.async_read(r, 0, &mut buf).map(|_| ())
    }));
    let err = rt.execute(snoop.build().unwrap()).unwrap_err();
    match err {
        RuntimeError::Task { error, .. } => {
            assert!(error.is_confidentiality_denial(), "got: {}", error.msg)
        }
        other => panic!("expected denial, got {other}"),
    }
}

#[test]
fn runtime_tiering_promotes_hot_app_regions_and_respects_properties() {
    use disagg_sched::TieringPolicy;
    use disagg_region::props::{AccessMode, PropertySet};
    use disagg_region::region::OwnerId;
    use disagg_region::typed::RegionType;

    let (topo, ids) = single_server();
    let dram = ids.dram;
    let cxl = ids.cxl;
    let pmem = ids.pmem;
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());

    // An App-scoped region parked on CXL (a cold-start placement), and a
    // persistent one on PMem that must never move to volatile memory.
    let hot = rt
        .manager_mut()
        .alloc(
            cxl,
            1 << 20,
            RegionType::GlobalScratch,
            PropertySet::new().with_mode(AccessMode::Async),
            OwnerId::App,
            SimTime::ZERO,
        )
        .unwrap();
    let pinned = rt
        .manager_mut()
        .alloc(
            pmem,
            1 << 20,
            RegionType::GlobalScratch,
            PropertySet::new().persistent(true),
            OwnerId::App,
            SimTime::ZERO,
        )
        .unwrap();

    // A job hammers the CXL region (heat flows in through the accessor).
    let mut j = JobBuilder::new("heater");
    j.task(TaskSpec::new("hammer").body(move |ctx| {
        let mut buf = [0u8; 4096];
        for i in 0..64u64 {
            ctx.acc
                .read(hot, (i * 4096) % ((1 << 20) - 4096), &mut buf, AccessPattern::Random)?;
        }
        Ok(())
    }));
    rt.execute(j.build().unwrap()).unwrap();
    assert!(rt.manager().hotness().stat(hot).score > 0.0, "heat must accumulate");

    let policy = TieringPolicy::new(vec![dram, cxl, pmem]);
    let moved = rt.run_tiering(&policy);
    assert!(
        moved.iter().any(|&(r, to, _)| r == hot && to == dram),
        "the hot CXL region should promote to DRAM: {moved:?}"
    );
    assert!(
        moved.iter().all(|&(r, _, _)| r != pinned),
        "the persistent region must not move to volatile tiers"
    );
    assert_eq!(rt.manager().placement(hot).unwrap().dev, dram);
    assert_eq!(rt.manager().placement(pinned).unwrap().dev, pmem);
}

/// Hotness is recorded where an access is charged, not read back from a
/// buffered trace: a traced and an untraced runtime running the same
/// jobs end with the same hotness, and tiering plans the same moves.
#[test]
fn hotness_and_tiering_do_not_depend_on_tracing() {
    use disagg_sched::TieringPolicy;
    use disagg_region::props::{AccessMode, PropertySet};
    use disagg_region::region::OwnerId;
    use disagg_region::typed::RegionType;

    let run = |config: RuntimeConfig| {
        let (topo, ids) = single_server();
        let mut rt = Runtime::new(topo, config);
        let hot = rt
            .manager_mut()
            .alloc(
                ids.cxl,
                1 << 20,
                RegionType::GlobalScratch,
                PropertySet::new().with_mode(AccessMode::Async),
                OwnerId::App,
                SimTime::ZERO,
            )
            .unwrap();
        // Two runs, so a decay tick falls between them; each task also
        // heats its own scratch, which is freed (and forgotten) at exit.
        for _ in 0..2 {
            let mut j = JobBuilder::new("heater");
            j.task(TaskSpec::new("hammer").private_scratch(4096).body(move |ctx| {
                let mut buf = [0u8; 4096];
                for i in 0..48u64 {
                    ctx.acc
                        .read(hot, (i * 4096) % ((1 << 20) - 4096), &mut buf, AccessPattern::Random)?;
                }
                ctx.scratch_write(0, &buf)?;
                Ok(())
            }));
            rt.execute(j.build().unwrap()).unwrap();
        }
        let heat = rt.manager().hotness().hot(0.0);
        let policy = TieringPolicy::new(vec![ids.dram, ids.cxl, ids.pmem]);
        let moved = rt.run_tiering(&policy);
        (hot, heat, moved)
    };
    let (hot, traced_heat, traced_moved) = run(RuntimeConfig::traced());
    assert_eq!(traced_heat.len(), 1, "only the live region is tracked: {traced_heat:?}");
    assert!(traced_moved.iter().any(|&(r, _, _)| r == hot), "{traced_moved:?}");
    let (_, heat, moved) = run(RuntimeConfig::default());
    assert_eq!(heat, traced_heat, "untraced hotness");
    assert_eq!(moved, traced_moved, "untraced tiering");
}

/// An App-scoped region of `size` bytes with `props` on `dev`, touched
/// `accesses` times and then left to cool for `decays` ticks.
fn tiered_region(
    rt: &mut Runtime,
    dev: MemDeviceId,
    size: u64,
    props: disagg_region::props::PropertySet,
    accesses: usize,
    decays: usize,
) -> disagg_region::pool::RegionId {
    use disagg_region::region::OwnerId;
    use disagg_region::typed::RegionType;
    let mgr = rt.manager_mut();
    let id = mgr
        .alloc(dev, size, RegionType::GlobalScratch, props, OwnerId::App, SimTime::ZERO)
        .unwrap();
    for _ in 0..accesses {
        mgr.hotness_mut().record(id, 64, SimTime::ZERO);
    }
    for _ in 0..decays {
        mgr.hotness_mut().decay();
    }
    id
}

/// Demotion is a placement under the region's own properties: a cold
/// region that declared a medium latency bound stays on CXL rather than
/// moving to far memory, which the CPU reads at more than a microsecond.
#[test]
fn tiering_keeps_a_cold_region_within_its_latency_class() {
    use disagg_region::props::{AccessMode, LatencyClass, PropertySet};
    use disagg_sched::TieringPolicy;

    let (topo, ids) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let props = PropertySet::new().with_mode(AccessMode::Async).with_latency(LatencyClass::Medium);
    let bounded = tiered_region(&mut rt, ids.cxl, 1 << 20, props, 1, 2);
    let moved = rt.run_tiering(&TieringPolicy::new(vec![ids.dram, ids.cxl, ids.far]));
    assert!(moved.is_empty(), "{moved:?}");
    assert_eq!(rt.manager().placement(bounded).unwrap().dev, ids.cxl);
}

/// A full tier is skipped, not fatal: the pass still demotes the other
/// cold region and charges the clock for it.
#[test]
fn tiering_skips_a_full_tier_and_charges_the_clock() {
    use disagg_region::props::{AccessMode, PropertySet};
    use disagg_sched::TieringPolicy;

    let (topo, ids) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let props = PropertySet::new().with_mode(AccessMode::Async);
    // Both cold. The DRAM one is the larger, so the CXL one leaving does
    // not make room for it.
    let blocked = tiered_region(&mut rt, ids.dram, 2 << 20, props.clone(), 1, 2);
    let free = tiered_region(&mut rt, ids.cxl, 1 << 20, props.clone(), 1, 2);
    let pool = rt.manager().pool();
    let rest = pool.capacity(ids.cxl) - pool.allocated(ids.cxl);
    tiered_region(&mut rt, ids.cxl, rest, props, 0, 0);
    let before = rt.now();
    let moved = rt.run_tiering(&TieringPolicy::new(vec![ids.dram, ids.cxl, ids.far]));
    assert_eq!(moved.len(), 1, "{moved:?}");
    let (id, to, took) = moved[0];
    assert_eq!((id, to), (free, ids.far));
    assert!(took > SimDuration::ZERO);
    assert_eq!(rt.now(), before + took, "the pass costs its copy");
    assert_eq!(rt.manager().placement(blocked).unwrap().dev, ids.dram);
}

/// Promotion sees liveness: with DRAM failed, a hot CXL region has no
/// faster tier to go to and stays where it is.
#[test]
fn tiering_does_not_promote_onto_a_failed_device() {
    use disagg_region::props::{AccessMode, PropertySet};
    use disagg_sched::TieringPolicy;

    let (topo, ids) = single_server();
    let faults = FaultInjector::with_events(vec![FaultEvent {
        at: SimTime::ZERO,
        kind: FaultKind::DeviceFail(ids.dram),
    }]);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced().with_faults(faults));
    let props = PropertySet::new().with_mode(AccessMode::Async);
    let hot = tiered_region(&mut rt, ids.cxl, 1 << 20, props, 20, 0);
    let moved = rt.run_tiering(&TieringPolicy::new(vec![ids.dram, ids.cxl, ids.far]));
    assert!(moved.is_empty(), "{moved:?}");
    assert_eq!(rt.manager().placement(hot).unwrap().dev, ids.cxl);
}

// ---------------------------------------------------------------------
// Out-of-order executor invariants.
// ---------------------------------------------------------------------

/// Two nodes, each with a single-slot CPU and local DRAM, joined by a
/// NUMA interconnect: the smallest topology where genuine multi-device
/// overlap is observable (each device can only run one task at a time).
fn two_workers() -> disagg_hwsim::topology::Topology {
    use disagg_hwsim::compute::ComputeModel;
    use disagg_hwsim::device::{MemDeviceKind, MemDeviceModel};
    use disagg_hwsim::topology::{Endpoint, LinkKind, Topology};

    let mut b = Topology::builder();
    let mut serial_cpu = ComputeModel::preset(ComputeKind::Cpu);
    serial_cpu.slots = 1;
    let s0 = b.node("worker0");
    let s1 = b.node("worker1");
    let cpu0 = b.compute(s0, serial_cpu.clone());
    let cpu1 = b.compute(s1, serial_cpu);
    let dram0 = b.mem(s0, MemDeviceModel::preset(MemDeviceKind::Dram));
    let dram1 = b.mem(s1, MemDeviceModel::preset(MemDeviceKind::Dram));
    b.link(cpu0, dram0, LinkKind::MemBus);
    b.link(cpu1, dram1, LinkKind::MemBus);
    b.link(cpu0, Endpoint::Hub(s0), LinkKind::MemBus);
    b.link(cpu1, Endpoint::Hub(s1), LinkKind::MemBus);
    b.link(Endpoint::Hub(s0), Endpoint::Hub(s1), LinkKind::Numa);
    b.link(Endpoint::Hub(s0), dram0, LinkKind::MemBus);
    b.link(Endpoint::Hub(s1), dram1, LinkKind::MemBus);
    b.build().expect("two-worker topology is valid")
}

/// A diamond: source → {left, right} → sink, every task ~1 ms of scalar
/// compute with a small output.
fn diamond_job() -> JobSpec {
    let mut j = JobBuilder::new("diamond");
    let mk = |name: &str| {
        TaskSpec::new(name)
            .work(WorkClass::Scalar, 1_000_000)
            .output_bytes(4096)
            .body(|ctx| {
                ctx.compute(WorkClass::Scalar, 1_000_000);
                ctx.write_output(0, &[1u8; 4096])?;
                Ok(())
            })
    };
    let source = j.task(mk("source"));
    let left = j.task(mk("left"));
    let right = j.task(mk("right"));
    let sink = j.task(mk("sink"));
    j.edge(source, left);
    j.edge(source, right);
    j.edge(left, sink);
    j.edge(right, sink);
    j.build().unwrap()
}

#[test]
fn diamond_on_two_devices_beats_the_serial_sum() {
    let mut rt = Runtime::new(two_workers(), RuntimeConfig::traced());
    let report = rt.execute(diamond_job()).unwrap();
    assert_eq!(report.tasks.len(), 4);
    let serial_sum: SimDuration = report.tasks.iter().map(|t| t.duration()).sum();
    assert!(
        report.makespan < serial_sum,
        "parallel arms must overlap: makespan {} vs serial sum {}",
        report.makespan,
        serial_sum
    );
    // The two arms genuinely ran concurrently (in virtual time) on the
    // two single-slot devices.
    let left = report.task_by_name(JobId(0), "left").unwrap();
    let right = report.task_by_name(JobId(0), "right").unwrap();
    assert_ne!(left.compute, right.compute, "arms spread across devices");
    assert!(
        left.start < right.finish && right.start < left.finish,
        "arm executions overlap in virtual time"
    );
}

#[test]
fn makespan_is_bounded_below_by_the_critical_path() {
    // For non-streaming tasks, every DAG path must execute end-to-end
    // in sequence, so the makespan can never undercut the longest path
    // of observed task durations.
    let mut rt = Runtime::new(two_workers(), RuntimeConfig::traced());
    let report = rt.execute(diamond_job()).unwrap();
    let dur = |name: &str| report.task_by_name(JobId(0), name).unwrap().duration();
    let critical_path =
        dur("source") + dur("left").max(dur("right")) + dur("sink");
    assert!(
        report.makespan >= critical_path,
        "makespan {} below critical path {}",
        report.makespan,
        critical_path
    );
}

#[test]
fn same_submission_is_bit_for_bit_deterministic() {
    let run = || {
        let mut rt = Runtime::new(two_workers(), RuntimeConfig::traced());
        rt.execute(diamond_job()).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.ownership_transfers, b.ownership_transfers);
    assert_eq!(a.handover_copies, b.handover_copies);
    assert_eq!(a.bytes_moved, b.bytes_moved);
    assert_eq!(a.tasks.len(), b.tasks.len());
    for (x, y) in a.tasks.iter().zip(b.tasks.iter()) {
        assert_eq!((x.job, x.task, x.compute), (y.job, y.task, y.compute));
        assert_eq!((x.start, x.finish), (y.start, y.finish));
    }
}

#[test]
fn a_ready_queue_dispatches_highest_upward_rank_first() {
    use disagg_hwsim::compute::ComputeModel;
    use disagg_hwsim::device::{MemDeviceKind, MemDeviceModel};
    use disagg_hwsim::topology::{LinkKind, Topology};
    use disagg_hwsim::trace::TraceEvent;
    use disagg_sched::schedule::Scheduler;

    // One single-slot CPU: whatever is ready while it is busy queues.
    let mut b = Topology::builder();
    let node = b.node("host");
    let mut serial_cpu = ComputeModel::preset(ComputeKind::Cpu);
    serial_cpu.slots = 1;
    let cpu = b.compute(node, serial_cpu);
    let dram = b.mem(node, MemDeviceModel::preset(MemDeviceKind::Dram));
    b.link(cpu, dram, LinkKind::MemBus);
    let topo = b.build().unwrap();

    let job = |name: &str, tasks: &[u64]| {
        let mut j = JobBuilder::new(name);
        for (i, &elems) in tasks.iter().enumerate() {
            j.task(
                TaskSpec::new(format!("{name}{i}"))
                    .work(WorkClass::Scalar, elems)
                    .body(move |ctx| {
                        ctx.compute(WorkClass::Scalar, elems);
                        Ok(())
                    }),
            );
        }
        j.build().unwrap()
    };
    // Job 0 holds the lane from t = 0; everything else arrives while it
    // runs, in an order (light before heavy, the early twin last) that
    // neither arrival nor id order would reproduce.
    let at = SimDuration::from_micros;
    let arrivals = vec![
        (at(0), job("blocker", &[5_000_000])),
        (at(2), job("light", &[1_000_000])),
        (at(2), job("heavy", &[3_000_000, 3_000_000])),
        (at(2), job("middle", &[2_000_000])),
        (at(2), job("heavy-twin", &[3_000_000])),
        (at(1), job("heavy-early", &[3_000_000])),
    ];
    let planned: Vec<(JobId, &JobSpec)> =
        arrivals.iter().enumerate().map(|(i, (_, j))| (JobId(i as u64), j)).collect();
    let schedule = Scheduler::default().plan(&topo, &planned).unwrap();
    let rank = |job: u64, task: u64| schedule.entry(JobId(job), TaskId(task as u32)).unwrap().rank;

    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    rt.execute(Submission::arriving(arrivals)).unwrap();
    let dispatched: Vec<(u64, u64)> = rt
        .trace()
        .events()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::TaskAttempt { job, task, .. } => Some((job, task)),
            _ => None,
        })
        .collect();
    // Highest rank first; equal ranks by queue time, then job, then task.
    assert_eq!(dispatched, [(0, 0), (5, 0), (2, 0), (2, 1), (4, 0), (3, 0), (1, 0)]);
    assert!(rank(2, 0) > rank(3, 0) && rank(3, 0) > rank(1, 0), "more work, higher rank");
    for twin in [(2, 1), (4, 0), (5, 0)] {
        assert_eq!(rank(twin.0, twin.1).to_bits(), rank(2, 0).to_bits(), "equal work, equal rank");
    }
    // Everything was queued before the lane opened.
    let first_free = rt.trace().events().iter().find_map(|e| match *e {
        TraceEvent::TaskAttempt { job: 0, end, .. } => Some(end),
        _ => None,
    });
    for e in rt.trace().events() {
        if let TraceEvent::TaskAttempt { at, waited, .. } = *e {
            let queued = SimTime(at.0 - waited.0);
            assert!(Some(queued) < first_free, "queued at {queued:?}, lane free at {first_free:?}");
        }
    }
}

#[test]
fn dispatch_is_visible_in_the_trace() {
    use disagg_hwsim::trace::TraceEvent;
    let mut rt = Runtime::new(two_workers(), RuntimeConfig::traced());
    rt.execute(diamond_job()).unwrap();
    let attempts = rt
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::TaskAttempt { completed: true, .. }))
        .count();
    assert_eq!(attempts, 4, "every task is dispatched exactly once");
}

#[test]
fn quickstart_handover_count_is_unchanged() {
    // The crate-level quickstart promises exactly one zero-copy
    // ownership transfer; the out-of-order executor must keep it.
    let (topo, _ids) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("quickstart");
    let produce = job.task(
        TaskSpec::new("produce")
            .work(WorkClass::Vector, 10_000)
            .output_bytes(4096)
            .body(|ctx| {
                ctx.write_output(0, &[7u8; 4096])?;
                Ok(())
            }),
    );
    let consume = job.task(TaskSpec::new("consume").body(|ctx| {
        let mut buf = [0u8; 4096];
        ctx.read_input(0, &mut buf)?;
        assert!(buf.iter().all(|&b| b == 7));
        Ok(())
    }));
    job.edge(produce, consume);
    let report = rt.execute(job.build().unwrap()).unwrap();
    assert_eq!(report.ownership_transfers, 1);
    assert!(report.placements_clean());
}

#[test]
fn independent_jobs_interleave_on_the_devices() {
    // Two single-task jobs submitted as one batch must not serialize
    // behind each other when two devices are free.
    let mk = |name: &str| {
        let mut j = JobBuilder::new(name);
        j.task(
            TaskSpec::new("t")
                .work(WorkClass::Scalar, 1_000_000)
                .body(|ctx| {
                    ctx.compute(WorkClass::Scalar, 1_000_000);
                    Ok(())
                }),
        );
        j.build().unwrap()
    };
    let mut rt = Runtime::new(two_workers(), RuntimeConfig::traced());
    let report = rt.execute(vec![mk("one"), mk("two")]).unwrap();
    let serial_sum: SimDuration = report.tasks.iter().map(|t| t.duration()).sum();
    assert!(
        report.makespan < serial_sum,
        "independent jobs overlap: makespan {} vs serial {}",
        report.makespan,
        serial_sum
    );
}

#[test]
fn reports_contain_only_their_own_runs_findings() {
    // Run 1 breaks a declared property; run 2 is clean. Each report
    // carries its own findings, not the runtime's whole history. A
    // topology-blind engine (`ingredients`' ablation) judges latency without
    // the path, so a GPU task's low-latency scratch lands on the CPU's
    // cache: 10 ns from the CPU, 430 ns from the GPU.
    let (topo, ids) = single_server();
    let mut rt = Runtime::new(
        topo,
        RuntimeConfig::traced().with_awareness(disagg_sched::cost::TopologyAwareness::Blind),
    );

    let mut blind = JobBuilder::new("blind");
    blind.task(
        TaskSpec::new("scratchy")
            .require(ComputeKind::Gpu)
            .mem_latency(LatencyClass::Low)
            .private_scratch(1 << 20)
            .body(|_| Ok(())),
    );
    let r1 = rt.execute(blind.build().unwrap()).unwrap();
    let found: Vec<_> = r1.violations.iter().map(|v| (v.dev, v.unmet)).collect();
    assert_eq!(
        found,
        [(
            ids.cache,
            disagg_region::props::Unmet::Latency { required_ns: 200.0, achieved_ns: 430.0 }
        )]
    );
    assert!(!r1.placements_clean());

    let mut clean = JobBuilder::new("clean");
    clean.task(TaskSpec::new("noop").body(|_| Ok(())));
    let r2 = rt.execute(clean.build().unwrap()).unwrap();
    assert!(
        r2.violations.is_empty(),
        "run 2 must not inherit run 1's audit history"
    );
}
