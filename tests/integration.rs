//! Cross-crate integration tests: build → place → schedule → execute →
//! verify, at rack scale and across failure scenarios.

use disagg::prelude::*;
use disagg::hwsim::fault::{FaultEvent, FaultInjector, FaultKind};
use disagg::presets::{disaggregated_rack, single_server};
use disagg::region::region::OwnerId;
use disagg::workloads::{dbms, hospital, hpc, ml, streaming, util};

#[test]
fn all_four_table3_workloads_verify_on_one_runtime() {
    // One runtime, four application classes back-to-back; every answer
    // checked against its reference implementation.
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());

    let dcfg = dbms::DbmsConfig {
        tuples: 3_000,
        probe_tuples: 1_500,
        ..dbms::DbmsConfig::default()
    };
    let report = rt.execute(dbms::query_job(dcfg)).unwrap();
    let (matches, groups, total) =
        dbms::decode_result(&util::final_output(&rt, &report, JobId(0), "hash-join"));
    let exp = dbms::expected(&dcfg);
    assert_eq!((matches, groups as usize, total), (exp.join_matches, exp.groups, exp.total_sum));

    let mcfg = ml::MlConfig {
        samples: 1_024,
        epochs: 2,
        ..ml::MlConfig::default()
    };
    let report = rt.execute(ml::training_job(mcfg)).unwrap();
    let model = ml::decode_model(&util::final_output(&rt, &report, JobId(1), "train"));
    assert_eq!(model, ml::expected_model(&mcfg));

    let hcfg = hpc::HpcConfig {
        cells: 2_048,
        sweeps: 5,
        ..hpc::HpcConfig::default()
    };
    let report = rt.execute(hpc::stencil_job(hcfg)).unwrap();
    let sum = hpc::decode_sum(&util::final_output(&rt, &report, JobId(2), "reduce"));
    assert_eq!(sum, hpc::expected_sum(&hcfg));

    let scfg = streaming::StreamConfig {
        events: 3_000,
        ..streaming::StreamConfig::default()
    };
    let report = rt.execute(streaming::windowed_job(scfg)).unwrap();
    let windows = streaming::decode_result(&util::final_output(&rt, &report, JobId(3), "sink"));
    assert_eq!(windows, streaming::expected_windows(&scfg));
}

#[test]
fn rack_scale_batch_of_mixed_jobs_runs_clean() {
    let (topo, _) = disaggregated_rack(3, 16, 3, 256);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let jobs = vec![
        dbms::query_job(dbms::DbmsConfig {
            tuples: 2_000,
            probe_tuples: 1_000,
            ..dbms::DbmsConfig::default()
        }),
        ml::training_job(ml::MlConfig {
            samples: 1_024,
            epochs: 1,
            ..ml::MlConfig::default()
        }),
        streaming::windowed_job(streaming::StreamConfig {
            events: 2_000,
            ..streaming::StreamConfig::default()
        }),
        hospital::hospital_job(hospital::HospitalConfig {
            frames: 3,
            ..hospital::HospitalConfig::default()
        }),
    ];
    let report = rt.execute(jobs).unwrap();
    assert_eq!(report.tasks.len(), 3 + 3 + 3 + 5);
    assert!(report.placements_clean(), "{:?}", report.violations);
    assert!(report.makespan > SimDuration::ZERO);
    // Jobs are isolated: no region outlives the batch except persistent
    // outputs (hospital alerts, dbms join result, ml model, hpc none,
    // streaming sink).
    let live = rt.manager().live_count();
    assert!(live <= 5, "only persistent outputs may survive, found {live}");
}

#[test]
fn persistent_results_survive_across_batches_and_crashes() {
    let (topo, ids) = single_server();
    let pmem_node = topo.node_of_mem(ids.pmem);
    // The node crashes *after* the first batch and recovers later.
    let faults = FaultInjector::with_events(vec![
        FaultEvent {
            at: SimTime(1_000_000_000),
            kind: FaultKind::NodeCrash(pmem_node),
        },
        FaultEvent {
            at: SimTime(2_000_000_000),
            kind: FaultKind::NodeRecover(pmem_node),
        },
    ]);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced().with_faults(faults));

    let mut job = JobBuilder::new("writer");
    job.task(
        TaskSpec::new("persist")
            .persistent(true)
            .output_bytes(4096)
            .body(|ctx| {
                ctx.write_output(0, b"durable state")?;
                Ok(())
            }),
    );
    let report = rt.execute(job.build().unwrap()).unwrap();
    let (_, region, dev) = report
        .placements_of(&report.tasks[0])
        .iter()
        .find(|(k, _, _)| *k == "output")
        .copied()
        .unwrap();
    assert!(rt.topology().mem(dev).persistent);

    // Another batch runs; the persistent region is still live and intact
    // afterwards (the device is persistent, so the crash between batches
    // does not erase it).
    let mut job2 = JobBuilder::new("other");
    job2.task(TaskSpec::new("noop").body(|_| Ok(())));
    rt.execute(job2.build().unwrap()).unwrap();

    let mut buf = [0u8; 13];
    rt.manager().read(region, OwnerId::App, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"durable state");
}

#[test]
fn confidential_jobs_are_isolated_from_each_other() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());

    let mut secret_job = JobBuilder::new("secret");
    secret_job.task(
        TaskSpec::new("keeper")
            .confidential(true)
            .persistent(true)
            .output_bytes(1024)
            .body(|ctx| {
                ctx.write_output(0, b"patient records")?;
                Ok(())
            }),
    );
    let report = rt.execute(secret_job.build().unwrap()).unwrap();
    let (_, secret, _) = report
        .placements_of(&report.tasks[0])
        .iter()
        .find(|(k, _, _)| *k == "output")
        .copied()
        .unwrap();

    // Direct cross-job read through the region manager is denied.
    let snoop = OwnerId::Task { job: 99, task: 0 };
    let mut buf = [0u8; 8];
    let err = rt.manager().read(secret, snoop, 0, &mut buf).unwrap_err();
    assert!(matches!(
        err,
        disagg::region::RegionError::ConfidentialityViolation { .. }
    ));
}

#[test]
fn the_compute_centric_baseline_still_computes_correctly() {
    // Figure 1a semantics produce identical answers, just different cost.
    let cfg = dbms::DbmsConfig {
        tuples: 2_000,
        probe_tuples: 1_000,
        ..dbms::DbmsConfig::default()
    };
    let exp = dbms::expected(&cfg);
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::compute_centric());
    let report = rt.execute(dbms::query_job(cfg)).unwrap();
    let (matches, groups, total) =
        dbms::decode_result(&util::final_output(&rt, &report, JobId(0), "hash-join"));
    assert_eq!((matches, groups as usize, total), (exp.join_matches, exp.groups, exp.total_sum));
    assert_eq!(report.ownership_transfers, 0, "compute-centric copies everything");
}

#[test]
fn trace_accounts_for_every_byte_of_a_pipeline() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("traced");
    let a = job.task(
        TaskSpec::new("a")
            .output_bytes(1 << 16)
            .body(|ctx| {
                ctx.write_output(0, &[1u8; 1 << 16])?;
                Ok(())
            }),
    );
    let b = job.task(TaskSpec::new("b").body(|ctx| {
        let mut buf = vec![0u8; 1 << 16];
        ctx.read_input(0, &mut buf)?;
        Ok(())
    }));
    job.edge(a, b);
    let report = rt.execute(job.build().unwrap()).unwrap();
    // Write (64 KiB) + read (64 KiB) accesses, zero handover movement.
    assert_eq!(report.bytes_moved, 2 << 16);
    assert_eq!(report.bytes_ownership_transferred, 1 << 16);
    let accesses = rt
        .trace()
        .count(|e| matches!(e, disagg::hwsim::trace::TraceEvent::Access { .. }));
    assert_eq!(accesses, 2);
}
