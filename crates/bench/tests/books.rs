//! A run's books balance. Every allocation and free inside a run goes
//! through the region manager's traced path, and the wave audit (debug
//! builds, so every test) asserts at each wave's end that the pool moved
//! by exactly the `Alloc` − `Free` bytes the trace counted, that no task
//! of the wave still owns a live region and that no device ran more
//! attempts at once than it has slots. These runs drive it through the
//! serving experiment's saturated pass, a controlled serving run under
//! faults (retries, fast-fails, sheds, degrades), the quick
//! chaos-under-load sweep, the rack batch
//! under admission with job-wide state, a task body that allocates for
//! itself, and copy-based handover, and check what each leaves resident.

use disagg_bench::{exp, Scenario};
use disagg_core::prelude::{Runtime, RuntimeConfig};
use disagg_core::RecoveryPolicy;
use disagg_dataflow::{JobBuilder, JobSpec, TaskSpec};
use disagg_hwsim::fault::{FaultInjector, FaultKind};
use disagg_hwsim::presets::{disaggregated_rack, single_server};
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::trace::TraceEvent;
use disagg_region::props::PropertySet;
use disagg_region::typed::RegionType;
use disagg_serve::{ArrivalProcess, ControlPlane, ServeConfig, Slo};
use disagg_workloads::{dbms, hospital, ml, streaming};

/// Bytes resident in the runtime's pool.
fn resident(rt: &Runtime) -> i64 {
    let pool = rt.manager().pool();
    rt.topology().mem_ids().map(|d| pool.allocated(d) as i64).sum()
}

#[test]
fn the_saturated_serving_pass_ends_where_the_pool_ends() {
    let cfg = exp::serving::saturated_config(&Scenario::default());
    let (topo, _rack) = disaggregated_rack(4, 8, 2, 32);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let report = exp::serving::templates().run(&mut rt, &cfg).expect("saturated serving pass");
    assert!(report.run.handover_copies > 0, "the pass must copy on handover");
    assert_eq!(resident(&rt), 0, "a serving pass leaves nothing behind");
    assert!(report.peak_util > 0.0);
}

#[test]
fn a_controlled_serving_run_under_faults_balances() {
    let (topo, rack) = disaggregated_rack(4, 8, 2, 32);
    // Short crash windows rotating over three of the four servers, so a
    // retried task is often hit again and, with one retry allowed, its
    // request fails fast.
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
    let cfg = ServeConfig {
        arrivals: ArrivalProcess::Poisson { mean_gap: SimDuration::from_micros(20) },
        requests: 72,
        tenants: 6,
        zipf_theta: 1.0,
        quota: Some(512 << 20),
        slo: Some(Slo { p50: SimDuration::from_micros(300), p99: SimDuration::from_micros(900) }),
        control: Some(ControlPlane::default()),
        ..ServeConfig::default()
    };
    let report = exp::chaos_serve::templates().run(&mut rt, &cfg).expect("controlled serving run");
    let retries = rt.trace().count(|e| matches!(e, TraceEvent::TaskRetry { .. }));
    let seen = (retries, report.fast_failed, report.shed, report.degraded);
    assert!(seen.0 > 0 && seen.1 > 0 && seen.2 > 0 && seen.3 > 0, "{seen:?}");
    assert_eq!(resident(&rt), 0);
}

/// The quick chaos-under-load sweep, both variants at every load, closes
/// each wave's books, the lane check among them: a retried task waits
/// for a free lane like any dispatch, so no device runs more attempts at
/// once than it has slots. Its crash windows retry tasks onto GPUs whose
/// lanes are all busy.
#[test]
fn the_quick_chaos_under_load_sweep_runs_no_device_past_its_slots() {
    let record = exp::chaos_serve::measure(&Scenario { quick: true, seed: 0 });
    assert!(record.rows.iter().any(|r| r.breaker_trips > 0), "the crashes must interrupt attempts");
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
