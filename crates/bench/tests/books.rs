//! A run's books balance. Every allocation and free inside a run goes
//! through the region manager's traced path, and the wave audit (debug
//! builds, so every test) asserts at each wave's end that the pool moved
//! by exactly the `Alloc` − `Free` bytes the trace counted, that no task
//! of the wave still owns a live region and that no device ran more
//! attempts at once than it has slots. These runs drive it through the
//! serving experiment's saturated pass, a serving run under faults with
//! the control plane (retries, fast-fails, sheds, degrades) and without
//! it (a request that runs out of retries fails alone), the quick serving
//! sweep, the rack batch
//! under admission with job-wide state, a task body that allocates for
//! itself, and copy-based handover, and check what each leaves resident.

use disagg_bench::{exp, Scenario};
use disagg_core::prelude::{
    ComputeKind, DisaggError, RunReport, Runtime, RuntimeConfig, WorkClass,
};
use disagg_core::RecoveryPolicy;
use disagg_dataflow::{JobBuilder, JobSpec, TaskSpec};
use disagg_hwsim::fault::{FaultInjector, FaultKind};
use disagg_hwsim::presets::{disaggregated_rack, single_server};
use disagg_hwsim::rng::SimRng;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::trace::TraceEvent;
use disagg_region::props::PropertySet;
use disagg_region::typed::RegionType;
use disagg_serve::{
    ArrivalProcess, ControlPlane, Request, ServeConfig, ServeLayer, ServeReport, Slo, Verdict,
};
use disagg_workloads::{dbms, hospital, ml, streaming};

/// Bytes resident in the runtime's pool.
fn resident(rt: &Runtime) -> i64 {
    let pool = rt.manager().pool();
    rt.topology().mem_ids().map(|d| pool.allocated(d) as i64).sum()
}

#[test]
fn the_saturated_serving_pass_ends_where_the_pool_ends() {
    let (layer, cfg) = exp::serving::traced_pass(&Scenario::default());
    let (topo, _rack) = disaggregated_rack(4, 8, 2, 32);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let report = layer.run(&mut rt, &cfg).expect("saturated serving pass");
    assert!(report.run.handover_copies > 0, "the pass must copy on handover");
    assert_eq!(resident(&rt), 0, "a serving pass leaves nothing behind");
    assert!(report.peak_util > 0.0);
}

/// The crunch mix on a rack whose servers crash in short windows
/// rotating over three of the four, so a retried task is often hit
/// again and, with one retry allowed, its request fails alone; run with
/// `control` as its control plane.
fn serve_through_a_crash_storm(
    control: Option<ControlPlane>,
) -> (Runtime, Result<ServeReport, DisaggError>) {
    let (topo, rack) = disaggregated_rack(4, 8, 2, 32);
    let mut faults = FaultInjector::none();
    for k in 0..24u64 {
        let node = rack.nodes[(k % 3) as usize];
        let start = 200_000 + 100_000 * k;
        faults.schedule(SimTime(start), FaultKind::NodeCrash(node));
        faults.schedule(SimTime(start + 150_000), FaultKind::NodeRecover(node));
    }
    let config = RuntimeConfig::traced()
        .with_faults(faults)
        .with_recovery(
            RecoveryPolicy::default()
                .with_max_retries(1)
                .with_detection_delay(SimDuration(2_000))
                .with_backoff(SimDuration(1_000)),
        );
    let mut rt = Runtime::new(topo, config);
    let report = exp::serving::crunch_templates().run(&mut rt, &storm_config(control));
    (rt, report)
}

/// The request stream of [`serve_through_a_crash_storm`]: 72 requests
/// of six tenants under a 512 MiB quota each and a 900 µs p99 SLO.
fn storm_config(control: Option<ControlPlane>) -> ServeConfig {
    ServeConfig {
        arrivals: ArrivalProcess::Poisson { mean_gap: SimDuration::from_micros(20) },
        requests: 72,
        tenants: 6,
        zipf_theta: 1.0,
        quota: Some(512 << 20),
        slo: Some(Slo { p50: SimDuration::from_micros(300), p99: SimDuration::from_micros(900) }),
        control,
        ..ServeConfig::default()
    }
}

#[test]
fn a_controlled_serving_run_under_faults_balances() {
    let (rt, report) = serve_through_a_crash_storm(Some(ControlPlane::default()));
    let report = report.expect("controlled serving run");
    let retries = rt.trace().count(|e| matches!(e, TraceEvent::TaskRetry { .. }));
    let seen = (retries, report.fast_failed, report.shed, report.degraded);
    assert!(seen.0 > 0 && seen.1 > 0 && seen.2 > 0 && seen.3 > 0, "{seen:?}");
    assert_eq!(resident(&rt), 0);
}

/// One request per epoch, the first running 2 ms and the rest 2 µs,
/// every server crashing for 1 µs halfway through the first: with no
/// retry allowed, that request fails alone. Its failed attempt holds its
/// output until the failure's detection, 1 ms in, long after the wave's
/// last finish.
fn serve_past_a_late_failure() -> (Runtime, ServeReport) {
    let mut layer = ServeLayer::new();
    layer.register("one", |req: &Request| {
        let elems = if req.index == 0 { 2_000_000 } else { 2_000 };
        let mut j = JobBuilder::new("one");
        j.task(
            TaskSpec::new("work")
                .work(WorkClass::Scalar, elems)
                .require(ComputeKind::Cpu)
                .output_bytes(4096)
                .body(move |ctx| {
                    ctx.compute(WorkClass::Scalar, elems);
                    Ok(())
                }),
        );
        j.build().expect("one-task template")
    });
    let cfg = ServeConfig {
        arrivals: ArrivalProcess::Poisson { mean_gap: SimDuration::from_micros(5) },
        requests: 8,
        tenants: 1,
        quota: Some(512 << 20),
        control: Some(ControlPlane::default()),
        ..ServeConfig::default()
    };
    let (topo, rack) = disaggregated_rack(4, 8, 2, 32);
    let first = cfg.arrivals.sample_offsets(1, &mut SimRng::new(cfg.seed).fork(0))[0];
    let probe = Request { index: 0, tenant: 0, arrival: first, seed: 0 };
    let alone = layer.service_time(&topo, &probe);
    let crash = SimTime(first.0 + alone.0 / 2);
    let mut faults = FaultInjector::none();
    for &node in &rack.nodes {
        faults.schedule(crash, FaultKind::NodeCrash(node));
        faults.schedule(crash + SimDuration(1_000), FaultKind::NodeRecover(node));
    }
    let config = RuntimeConfig::traced().with_faults(faults).with_recovery(
        RecoveryPolicy::default().with_max_retries(0).with_detection_delay(SimDuration(2_000)),
    );
    let mut rt = Runtime::new(topo, config);
    let report = layer.run(&mut rt, &cfg).expect("a run past a late failure");
    assert_eq!(report.fast_failed, 1, "the first request fails alone");
    (rt, report)
}

/// A serving run closes its books epoch by epoch: each epoch's request
/// spans are assembled from its own slice of the trace right after it
/// runs, and the utilization curve walks one epoch's pool movements at a
/// time. Both must equal the books of the run's whole trace slice —
/// `assemble_request_spans` over all of it, and the curve and peak of
/// one stable sort of every `Alloc`/`Free` — in eight-epoch controlled
/// runs: calm, under the crash storm (retries, fast-fails, sheds,
/// degrades), and past a late failure. Spans come from one of the first two epochs
/// and from the last, so an epoch's spans dropped or out of place break
/// the equality.
#[test]
fn per_epoch_books_equal_whole_run_books() {
    let calm = {
        let (topo, _rack) = disaggregated_rack(4, 8, 2, 32);
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let cfg = storm_config(Some(ControlPlane::default()));
        let report = exp::serving::crunch_templates().run(&mut rt, &cfg);
        (rt, report.expect("calm controlled run"), 72, 6)
    };
    let (rt, report) = serve_through_a_crash_storm(Some(ControlPlane::default()));
    let storm = (rt, report.expect("controlled run under faults"), 72, 6);
    let (rt, report) = serve_past_a_late_failure();
    let late = (rt, report, 8, 1);
    let runs = [("calm", calm), ("storm", storm), ("late", late)];
    for (name, (rt, report, requests, tenants)) in runs {
        let events = rt.trace().events();
        assert_eq!(report.spans, disagg_obs::assemble_request_spans(events), "{name}: spans");
        let first = report.spans[0].request;
        let last = report.spans[report.spans.len() - 1].request;
        let epoch = requests as u64 / 8;
        let spread = first <= epoch && last >= requests as u64 - epoch;
        assert!(spread, "{name}: spans {first}..={last}");

        // The whole-slice walk: every movement sorted at once, stably.
        let capacity = (512u64 << 20) * tenants;
        let mut deltas: Vec<(SimTime, i64)> = events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Alloc { bytes, at, .. } => Some((at, bytes as i64)),
                TraceEvent::Free { bytes, at, .. } => Some((at, -(bytes as i64))),
                _ => None,
            })
            .collect();
        deltas.sort_by_key(|&(at, _)| at);
        let (mut level, mut peak, mut next) = (0i64, 0i64, 0usize);
        for &(_, d) in &deltas {
            level += d;
            peak = peak.max(level);
        }
        level = 0;
        let span = report.makespan.as_nanos();
        let whole: Vec<(SimDuration, u64)> = (0..33u64)
            .map(|k| {
                let off = SimDuration::from_nanos(span * k / 32);
                while next < deltas.len() && deltas[next].0 <= SimTime::ZERO + off {
                    level += deltas[next].1;
                    next += 1;
                }
                (off, (level as f64 / capacity as f64).to_bits())
            })
            .collect();
        let curve: Vec<(SimDuration, u64)> =
            report.util_curve.iter().map(|u| (u.at, u.frac.to_bits())).collect();
        assert_eq!(curve, whole, "{name}: utilization curve");
        assert_eq!(report.peak_util, peak as f64 / capacity as f64, "{name}: peak");
    }
}

/// A wave ends after every attempt it started, completed or not: the
/// late failure's wave lasts until its interrupted attempt ends at the
/// failure's detection and frees its output (1 006 184 ns; the wave's
/// last finish is 33 193 ns), and the next epoch starts after that.
#[test]
fn a_wave_ends_after_every_attempt_it_started() {
    let (rt, report) = serve_past_a_late_failure();
    let failed = report.run.failed_jobs[0];
    let mut lost = None;
    for e in rt.trace().events() {
        if let TraceEvent::TaskAttempt { job, end, completed, .. } = *e {
            if job == failed.job.0 {
                assert!(!completed, "the failed request's one attempt is interrupted");
                lost = Some(end);
            } else {
                let lost = lost.expect("the first epoch runs the failed request alone");
                assert!(e.at() >= lost, "job {job} starts at {:?}, before {lost:?}", e.at());
            }
        }
    }
    let lost = lost.expect("the interrupted attempt is traced");
    assert_eq!(lost, failed.at, "it ends at the failure's detection");
    let freed = rt.trace().events().iter().any(|e| {
        matches!(*e, TraceEvent::Free { at, .. } if at == lost)
    });
    assert!(freed, "its output is freed when it ends");
    assert!(SimTime::ZERO + report.makespan >= lost, "the run lasts until {lost:?}");
}

/// Checks that `run`'s trace records every attempt of its tasks once:
/// the completed attempts' events are the task reports, device and
/// finish; each interrupted attempt's event ends at its detection, a
/// `FaultDetected` there or, when its retries ran out, its job's
/// failure. Returns how many attempts were interrupted.
fn assert_one_event_per_attempt(events: &[TraceEvent], run: &RunReport) -> usize {
    let (mut done, mut cut, mut detected) = (Vec::new(), Vec::new(), Vec::new());
    for e in events {
        match *e {
            TraceEvent::TaskAttempt { job, task, on, end, completed: true, .. } => {
                done.push((job, task, on, end));
            }
            TraceEvent::TaskAttempt { job, task, end, .. } => cut.push((job, task, end)),
            TraceEvent::FaultDetected { job, task, at, .. } => detected.push((job, task, at)),
            _ => {}
        }
    }
    let mut reported: Vec<_> =
        run.tasks.iter().map(|t| (t.job.0, u64::from(t.task.0), t.compute, t.finish)).collect();
    detected.extend(run.failed_jobs.iter().map(|f| (f.job.0, u64::from(f.task.0), f.at)));
    for v in [&mut done, &mut reported] {
        v.sort_unstable();
    }
    for v in [&mut cut, &mut detected] {
        v.sort_unstable();
    }
    assert_eq!(done, reported, "one completed attempt per task report");
    assert_eq!(cut, detected, "one interrupted attempt per detection or fast-fail");
    cut.len()
}

/// Under the crash storm, with and without the control plane, each
/// attempt is one trace event, and the spans read from those events are
/// the run's: retried and fast-failed requests alike.
#[test]
fn each_attempt_is_one_event_under_a_crash_storm() {
    for control in [Some(ControlPlane::default()), None] {
        let (rt, report) = serve_through_a_crash_storm(control);
        let report = report.expect("serving run under faults");
        assert!(report.fast_failed > 0, "the storm fails some request alone");
        let events = rt.trace().events();
        let fast_failed = report.run.failed_jobs.len();
        assert!(assert_one_event_per_attempt(events, &report.run) > fast_failed, "retries too");
        assert_eq!(report.spans, disagg_obs::assemble_request_spans(events));
    }
}

/// Failure isolation is the executor's rule, not part of the control
/// plane: without one, a request whose task runs out of retries still
/// fails alone and the rest of the stream completes.
#[test]
fn a_request_fails_alone_without_the_control_plane() {
    let (rt, report) = serve_through_a_crash_storm(None);
    let report = report.expect("an uncontrolled run survives its requests' failures");
    assert!(report.fast_failed >= 1, "one retry is too few for some request");
    assert_eq!(report.fast_failed, report.run.failed_jobs.len());
    assert!(
        report.requests.iter().any(|r| r.verdict == Verdict::Completed),
        "the rest of the stream completes"
    );
    assert_eq!(resident(&rt), 0);
}

/// The quick serving sweep, every variant at every load, closes each
/// wave's books, the lane check among them: a retried task waits for a
/// free lane like any dispatch, so no device runs more attempts at once
/// than it has slots. Its crash windows retry tasks onto GPUs whose
/// lanes are all busy. Every faulted run's fault era lies inside the
/// arrival span of the calm run at its load, which that run outlives,
/// so each faulted run has post-fault burn windows to recover in.
#[test]
fn the_quick_serving_sweep_runs_no_device_past_its_slots() {
    use exp::serving::Variant;
    let record = exp::serving::measure(&Scenario { quick: true, seed: 0 });
    assert!(record.rows.iter().any(|r| r.breaker_trips > 0), "the crashes must interrupt attempts");
    let mut seen = 0;
    for r in &record.rows {
        let Some(era) = r.faults else { continue };
        let calm = record
            .rows
            .iter()
            .find(|c| c.mix == r.mix && c.load == r.load && c.variant == Variant::Calm)
            .expect("every faulted load has a calm row");
        let (start, end, last) = (era.start.0, era.end.0, calm.last_arrival);
        assert!(start < end && end < last.0, "{} {}: era {start}..{end}, {last}", r.mix, r.load);
        assert!(last <= calm.makespan, "{} {}: the calm run outlives its arrivals", r.mix, r.load);
        seen += 1;
    }
    assert_eq!(seen, 4, "two faulted variants at each of the quick sweep's two crunch loads");
}

/// The four apps of the equivalence rack batch: each places job-wide
/// global state, and the hospital's alerts outlive their job.
fn rack_jobs() -> Vec<JobSpec> {
    vec![
        dbms::query_job(dbms::DbmsConfig {
            tuples: 8_000,
            probe_tuples: 4_000,
            ..dbms::DbmsConfig::default()
        }),
        ml::training_job(ml::MlConfig { samples: 4_096, epochs: 2, ..ml::MlConfig::default() }),
        streaming::windowed_job(streaming::StreamConfig {
            events: 8_000,
            ..streaming::StreamConfig::default()
        }),
        hospital::hospital_job(hospital::HospitalConfig::default()),
    ]
}

#[test]
fn rack_batches_under_admission_balance_wave_after_wave() {
    let (topo, _rack) = disaggregated_rack(3, 16, 3, 128);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced().with_admission(0.8));
    let mut left = Vec::new();
    for _ in 0..2 {
        rt.execute(rack_jobs()).expect("rack batch");
        left.push(resident(&rt));
    }
    assert!(left[0] > 0, "persistent results stay resident");
    assert!(left[1] > left[0], "each batch adds its own persistent results");
}

#[test]
fn a_task_body_s_own_allocations_are_booked() {
    let (topo, _ids) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("self-allocating");
    job.task(TaskSpec::new("body").body(|ctx| {
        let scratch = ctx.alloc(RegionType::GlobalScratch, PropertySet::new(), 4096)?;
        ctx.async_write(scratch, 0, &[1; 64])?;
        ctx.wait_async();
        // One region outlives the job; the other is freed at task exit.
        let kept = ctx.alloc(RegionType::GlobalScratch, PropertySet::new(), 8192)?;
        ctx.publish_app("kept", kept);
        Ok(())
    }));
    rt.execute(job.build().unwrap()).expect("run");
    assert_eq!(resident(&rt), 8192);
}

#[test]
fn copy_based_handover_books_the_copies_and_their_sources() {
    let (topo, _ids) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::compute_centric());
    let report = rt.execute(dbms::query_job(dbms::DbmsConfig::default())).expect("dbms query");
    assert!(report.handover_copies > 0, "AlwaysCopy must copy");
    assert_eq!(report.ownership_transfers, 0);
}
