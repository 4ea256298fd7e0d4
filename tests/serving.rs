//! Serving-layer integration: the open-loop request stream must be
//! bit-for-bit deterministic across executions, quotas
//! must bind per tenant, and the SLO quantiles must agree with the
//! underlying executor report.

use disagg::hwsim::presets::disaggregated_rack;
use disagg::hwsim::time::SimDuration;
use disagg::hwsim::trace::TraceEvent;
use disagg::obs::nearest_rank;
use disagg::prelude::*;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn run_digest(report: &RunReport) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for t in &report.tasks {
        fnv(
            &mut h,
            format!(
                "{}/{}/{}/{:?}/{}/{}",
                t.job.0, t.task.0, t.name, t.compute, t.start, t.finish
            )
            .as_bytes(),
        );
    }
    h
}

/// A small two-template mix: a scalar chain and a vector fan-out, both
/// jittered per request off the request seed.
fn mix() -> ServeLayer {
    let mut layer = ServeLayer::new();
    layer.register("chain", |req: &Request| {
        let mut j = JobBuilder::new("chain");
        let a = j.task(
            TaskSpec::new("a")
                .work(WorkClass::Scalar, 20_000 + req.seed % 1_000)
                .output_bytes(1 << 20),
        );
        let b = j.task(TaskSpec::new("b").work(WorkClass::Scalar, 10_000));
        j.edge(a, b);
        j.build().expect("chain template")
    });
    layer.register("fan", |req: &Request| {
        let mut j = JobBuilder::new("fan");
        let src = j.task(
            TaskSpec::new("src")
                .work(WorkClass::Vector, 30_000 + req.seed % 2_000)
                .output_bytes(4 << 20),
        );
        let sink = j.task(TaskSpec::new("sink").work(WorkClass::Scalar, 5_000));
        for i in 0..3 {
            let mid = j.task(
                TaskSpec::new(format!("mid{i}"))
                    .work(WorkClass::Vector, 10_000)
                    .output_bytes(1 << 20),
            );
            j.edge(src, mid);
            j.edge(mid, sink);
        }
        j.build().expect("fan template")
    });
    layer
}

fn cfg() -> ServeConfig {
    ServeConfig {
        arrivals: ArrivalProcess::Poisson { mean_gap: SimDuration::from_micros(50) },
        requests: 32,
        tenants: 4,
        zipf_theta: 0.9,
        seed: 0xbeef,
        slo: Some(Slo {
            p50: SimDuration::from_micros(200),
            p99: SimDuration::from_millis(5),
        }),
        ..ServeConfig::default()
    }
}

fn serve_once() -> (ServeReport, u64) {
    let (topo, _rack) = disaggregated_rack(2, 4, 1, 8);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let report = mix().run(&mut rt, &cfg()).expect("serving run");
    let digest = run_digest(&report.run);
    (report, digest)
}

/// The same seeded stream must reproduce byte-identically across two
/// executions — arrivals, tenant mix, admission verdicts, latencies,
/// quantiles, and the executor schedule itself.
#[test]
fn serving_is_deterministic_across_runs() {
    let (base, base_digest) = serve_once();
    assert!(base.admitted > 0, "stream must admit work");
    let (rep, digest) = serve_once();
    assert_eq!(
        format!("{:?}", rep.requests),
        format!("{:?}", base.requests),
        "request records diverged"
    );
    assert_eq!(
        format!("{:?}", rep.tenants),
        format!("{:?}", base.tenants),
        "tenant stats diverged"
    );
    assert_eq!(rep.makespan, base.makespan, "makespan diverged");
    assert_eq!(digest, base_digest, "executor schedule diverged");
}

/// Bodies that only charge compute time write no byte, so neither their
/// MiB outputs nor the fan-out copies of them may cost host memory.
#[test]
fn compute_only_serving_materializes_no_bytes() {
    let (topo, _rack) = disaggregated_rack(2, 4, 1, 8);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let report = mix().run(&mut rt, &cfg()).expect("serving run");
    assert!(report.admitted > 0, "stream must admit work");
    assert!(rt.trace().bytes_moved() > 0, "the fan-out edges must have copied");
    assert_eq!(rt.manager().pool().bytes_materialized(), 0);
}

/// Each epoch's executor report carries only that epoch's bytes, so the
/// run-wide sum is the trace's total — not a sum of cumulative totals.
#[test]
fn multi_epoch_run_reports_the_trace_byte_totals_once() {
    use disagg::serve::ControlPlane;
    let (topo, _rack) = disaggregated_rack(2, 4, 1, 8);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let cfg = ServeConfig {
        control: Some(ControlPlane::default()),
        ..cfg()
    };
    let report = mix().run(&mut rt, &cfg).expect("serving run");
    assert!(report.run.bytes_moved > 0, "the fan-out edges must have copied");
    assert_eq!(report.run.bytes_moved, rt.trace().bytes_moved());
    assert_eq!(
        report.run.bytes_ownership_transferred,
        rt.trace().bytes_transferred_by_ownership()
    );
}

/// A serving run keeps its books against its own start: on a runtime
/// that has already executed a batch (job ids, the clock and the trace
/// all past zero) it reports the same verdicts, latencies, spans and
/// utilization as on a fresh one.
#[test]
fn a_used_runtime_serves_like_a_fresh_one() {
    use disagg::serve::ControlPlane;
    // One tenant, so only the `chain` template runs: its handover is an
    // ownership transfer, and nothing reserves ledger bandwidth — whose
    // fixed 10 us buckets are the one thing in the simulator that is
    // not invariant under a shift of the start time. Arrivals far
    // denser than the service time build in-flight depth, so some are shed.
    let cfg = ServeConfig {
        arrivals: ArrivalProcess::Poisson { mean_gap: SimDuration::from_nanos(150) },
        requests: 96,
        tenants: 1,
        quota: Some(8 << 20),
        slo: Some(Slo { p50: SimDuration::from_nanos(600), p99: SimDuration::from_nanos(1_500) }),
        control: Some(ControlPlane::default()),
        ..cfg()
    };
    let serve = |warm_up: bool| {
        let (topo, _rack) = disaggregated_rack(2, 4, 1, 8);
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        if warm_up {
            let probe = |tenant| Request { index: 0, tenant, arrival: SimDuration::ZERO, seed: 7 };
            let batch: Vec<JobSpec> = (0..5).map(|t| mix().instantiate(t, &probe(t))).collect();
            rt.execute(batch).expect("warm-up batch");
        }
        let (t0, job0) = (rt.now(), rt.next_job_id().0);
        let report = mix().run(&mut rt, &cfg).expect("serving run");
        // Spans carry absolute times and job ids; rebase them on the run.
        let spans: Vec<_> = report
            .spans
            .iter()
            .map(|s| {
                let segments: Vec<_> = s
                    .segments
                    .iter()
                    .map(|g| (g.kind, g.start - t0, g.end - t0, g.task))
                    .collect();
                (s.request, s.tenant, s.job - job0, s.arrival - t0, s.end - t0, segments, s.attribution)
            })
            .collect();
        (t0, report, spans)
    };
    let (fresh_t0, fresh, fresh_spans) = serve(false);
    let (used_t0, used, used_spans) = serve(true);
    assert_eq!(fresh_t0, SimTime::ZERO);
    assert!(used_t0 > SimTime::ZERO, "the warm-up batch must advance the clock");
    assert_eq!(fresh.spans.len(), fresh.admitted);
    assert!(fresh.shed > 0 && fresh.admitted > 0, "shed {} admitted {}", fresh.shed, fresh.admitted);
    assert!(0.0 < fresh.peak_util && fresh.peak_util < 1.0, "peak {}", fresh.peak_util);
    assert_eq!(used.requests, fresh.requests, "verdicts and latencies");
    assert_eq!(used_spans, fresh_spans);
    assert_eq!(used.peak_util, fresh.peak_util);
    assert_eq!(used.util_curve, fresh.util_curve);
    assert_eq!(used.makespan, fresh.makespan);
}

/// A tenant whose template's footprint the quota cannot hold is starved
/// out while the other tenant proceeds untouched. With two tenants,
/// tenant 0 is served by `chain` (1 MiB) and tenant 1 by `fan` (7 MiB).
#[test]
fn tenant_quota_rejects_without_collateral_damage() {
    let (topo, _rack) = disaggregated_rack(2, 4, 1, 8);
    let mut rt = Runtime::new(topo, RuntimeConfig::default());
    let c = ServeConfig { tenants: 2, quota: Some(6 << 20), ..cfg() };
    let report = mix().run(&mut rt, &c).expect("serving run");

    let starved = &report.tenants[1];
    assert!(starved.offered > 0, "seeded mix must offer tenant 1 traffic");
    assert_eq!(starved.admitted, 0, "a 6 MiB quota cannot admit a 7 MiB request");
    assert_eq!(starved.rejected, starved.offered);
    for t in report.tenants.iter().filter(|t| t.tenant != 1) {
        assert_eq!(t.rejected, 0, "tenant {} must be untouched", t.tenant);
        assert_eq!(t.admitted, t.offered);
    }
    for r in report.requests.iter().filter(|r| r.tenant == 1) {
        assert!(!r.verdict.admitted());
        assert!(r.latency.is_none(), "rejected requests never execute");
    }
    assert_eq!(report.admitted + report.rejected, report.offered);
}

/// A tenant-mix skew the Zipf draw cannot take — negative or not
/// finite — is a typed error before anything runs, not a panic inside
/// the run.
#[test]
fn a_bad_zipf_skew_is_a_typed_error() {
    for theta in [f64::NAN, -1.0, f64::INFINITY] {
        let (topo, _rack) = disaggregated_rack(2, 4, 1, 8);
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let got = mix().run(&mut rt, &ServeConfig { zipf_theta: theta, ..cfg() });
        assert!(matches!(got, Err(RuntimeError::InvalidConfig { .. })), "skew {theta}: {:?}", got.err());
        assert!(rt.trace().events().is_empty(), "skew {theta}: nothing may run");
    }
}

/// Per-request attribution over a faulty serving mix: every admitted
/// request's five components (admission + queue + compute + transfer +
/// recovery) sum *exactly* to its end-to-end latency — conservative and
/// complete, even with crashes, corruption, retries, and online
/// reconstruction in the run — and the spans, tail attribution, and
/// burn curves are bit-for-bit identical across two executions.
#[test]
fn request_attribution_is_conservative_and_deterministic_under_faults() {
    use disagg::hwsim::fault::{FaultInjector, FaultKind};
    use disagg::hwsim::trace::TraceEvent;

    // A denser stream than `cfg()` so tasks are in flight when the
    // chaos plan strikes.
    let dense = || ServeConfig {
        arrivals: ArrivalProcess::Poisson { mean_gap: SimDuration::from_micros(15) },
        requests: 48,
        ..cfg()
    };

    // Probe the healthy horizon so the chaos schedule lands mid-run.
    let horizon = {
        let (topo, _rack) = disaggregated_rack(2, 4, 1, 8);
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        mix().run(&mut rt, &dense()).expect("probe run").makespan
    };

    let serve_faulty = || {
        let (topo, rack) = disaggregated_rack(2, 4, 1, 8);
        let mut faults = FaultInjector::none();
        // Rotating crash/recover pairs across the whole horizon, each
        // node repaired after an eighth of the run.
        let mttf = horizon.0 / 4;
        for k in 1..=4u64 {
            let node = rack.nodes[(k as usize - 1) % rack.nodes.len()];
            faults.schedule(SimTime(k * mttf), FaultKind::NodeCrash(node));
            faults.schedule(SimTime(k * mttf + mttf / 2), FaultKind::NodeRecover(node));
        }
        // Corruption bursts on local DRAM and the pool blade, early
        // enough that later requests read through them.
        for dev in [rack.drams[0], rack.pool[0]] {
            faults.schedule(
                SimTime(horizon.0 / 8),
                FaultKind::Corrupt { dev, offset: 0, len: 4 << 20 },
            );
        }
        let config = RuntimeConfig::traced()
            .with_faults(faults)
            .with_recovery(
                RecoveryPolicy::default()
                    .with_detection_delay(SimDuration(2_000))
                    .with_backoff(SimDuration(1_000)),
            );
        let mut rt = Runtime::new(topo, config);
        let report = mix().run(&mut rt, &dense()).expect("faulty serving run");
        let fault_activity = rt.trace().events().iter().any(|e| {
            matches!(
                e,
                TraceEvent::TaskRetry { .. }
                    | TraceEvent::Reconstruct { .. }
                    | TraceEvent::FaultDetected { .. }
            )
        });
        (report, fault_activity)
    };

    let (base, faults_hit) = serve_faulty();
    assert!(base.admitted > 0, "stream must admit work");
    assert!(faults_hit, "the chaos schedule must actually disturb the run");
    assert_eq!(base.spans.len(), base.admitted, "one span per admitted request");
    for s in &base.spans {
        let rec = &base.requests[s.request as usize];
        assert_eq!(
            rec.latency,
            Some(s.latency()),
            "span sojourn must match the record for request {}",
            s.request
        );
        assert_eq!(
            s.attribution.total(),
            s.latency(),
            "attribution must be conservative and complete for request {}",
            s.request
        );
        // Segments tile the sojourn with no gaps or overlaps.
        assert_eq!(s.segments.first().expect("non-empty span").start, s.arrival);
        assert_eq!(s.segments.last().expect("non-empty span").end, s.end);
        for w in s.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start, "segments must tile request {}", s.request);
        }
    }

    let (other, _) = serve_faulty();
    assert_eq!(
        format!("{:?}", other.spans),
        format!("{:?}", base.spans),
        "request spans diverged on re-execution"
    );
    assert_eq!(
        format!("{:?}", other.tail_attribution),
        format!("{:?}", base.tail_attribution),
        "tail attribution diverged on re-execution"
    );
    assert_eq!(
        format!("{:?}", other.burn),
        format!("{:?}", base.burn),
        "burn curves diverged on re-execution"
    );
}

/// 48 requests 15 µs apart under the serving controls.
fn dense() -> ServeConfig {
    use disagg::serve::ControlPlane;
    ServeConfig {
        arrivals: ArrivalProcess::Poisson { mean_gap: SimDuration::from_micros(15) },
        requests: 48,
        control: Some(ControlPlane::default()),
        ..cfg()
    }
}

/// A traced runtime whose first two nodes crash and recover while
/// [`dense`] runs (its healthy horizon is probed first), retrying after
/// a detection delay and a backoff — and no fault-control setting.
fn crashing_runtime() -> Runtime {
    use disagg::hwsim::fault::{FaultInjector, FaultKind};

    let horizon = {
        let (topo, _rack) = disaggregated_rack(2, 4, 1, 8);
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        mix().run(&mut rt, &dense()).expect("probe run").makespan
    };
    let (topo, rack) = disaggregated_rack(2, 4, 1, 8);
    let mut faults = FaultInjector::none();
    let mttf = horizon.0 / 4;
    for k in 1..=2u64 {
        let node = rack.nodes[(k as usize - 1) % rack.nodes.len()];
        faults.schedule(SimTime(k * mttf), FaultKind::NodeCrash(node));
        faults.schedule(SimTime(k * mttf + mttf / 2), FaultKind::NodeRecover(node));
    }
    let config = RuntimeConfig::traced().with_faults(faults).with_recovery(
        RecoveryPolicy::default()
            .with_detection_delay(SimDuration(2_000))
            .with_backoff(SimDuration(1_000)),
    );
    Runtime::new(topo, config)
}

/// `ServeConfig::control` is the one switch for the control plane: on a
/// runtime built with no fault-control setting, the controlled run
/// under a crash plan trips breakers, and the same run uncontrolled has
/// none.
#[test]
fn the_serving_control_switch_turns_on_the_runtimes_breakers() {
    let mut rt = crashing_runtime();
    mix().run(&mut rt, &dense()).expect("controlled serving run");
    assert!(!rt.breaker_transitions().is_empty(), "the crashes must trip a breaker");
    assert!(rt.trace().events().iter().any(|e| matches!(e, TraceEvent::BreakerTrip { .. })));

    let mut rt = crashing_runtime();
    mix()
        .run(&mut rt, &ServeConfig { control: None, ..dense() })
        .expect("uncontrolled serving run");
    assert!(rt.trace().events().iter().any(|e| matches!(e, TraceEvent::TaskRetry { .. })));
    assert!(rt.breaker_transitions().is_empty(), "no control plane, no breakers");
}

/// The full fault-aware control plane — circuit breakers, epochs,
/// deadline shedding, and brownout degradation — must be
/// bit-for-bit deterministic across two executions under an active
/// fault plan: every request verdict, latency, breaker transition, and
/// shed/degraded/fast-failed count agrees.
#[test]
fn fault_aware_controls_are_deterministic_across_runs() {
    let serve_controlled = || {
        let mut rt = crashing_runtime();
        let mut layer = mix();
        layer.register_degraded("chain", |req: &Request| {
            let mut j = JobBuilder::new("chain-lite");
            j.task(TaskSpec::new("a").work(WorkClass::Scalar, 5_000 + req.seed % 500));
            j.build().expect("degraded chain template")
        });
        let report = layer.run(&mut rt, &dense()).expect("controlled serving run");
        let digest = run_digest(&report.run);
        (report, digest, rt.breaker_transitions().to_vec())
    };

    let (base, base_digest, base_breakers) = serve_controlled();
    assert!(base.admitted > 0, "stream must admit work");
    assert!(!base_breakers.is_empty(), "mid-run node crashes must trip a breaker");
    assert_eq!(
        base.fast_failed,
        base.run.failed_jobs.len(),
        "every fast-failure maps to exactly one isolated job"
    );
    assert_eq!(
        base.offered,
        base.admitted + base.rejected + base.shed,
        "verdicts partition the offered stream"
    );

    let (rep, digest, breakers) = serve_controlled();
    assert_eq!(
        format!("{:?}", rep.requests),
        format!("{:?}", base.requests),
        "request records diverged"
    );
    assert_eq!(
        format!("{breakers:?}"),
        format!("{base_breakers:?}"),
        "breaker transitions diverged"
    );
    assert_eq!(
        format!("{:?}", rep.tenants),
        format!("{:?}", base.tenants),
        "tenant stats diverged"
    );
    assert_eq!(
        (rep.shed, rep.degraded, rep.fast_failed),
        (base.shed, base.degraded, base.fast_failed),
        "control verdicts diverged"
    );
    assert_eq!(rep.makespan, base.makespan, "makespan diverged");
    assert_eq!(digest, base_digest, "executor schedule diverged");
}

/// One p99 per tenant: the per-tenant quantiles must be the exact order
/// statistics of latencies derived directly from the executor's task
/// spans, and the tail attribution assembled from the trace must report
/// the same p99 for every tenant.
#[test]
fn tenant_quantiles_agree_with_task_spans_and_tail_attribution() {
    let (report, _) = serve_once();

    // Admitted requests map to jobs in admission order starting at the
    // smallest JobId in the batch.
    let base = report
        .run
        .tasks
        .iter()
        .map(|t| t.job.0)
        .min()
        .expect("admitted work exists");
    let mut finish_of_job = std::collections::HashMap::new();
    for t in &report.run.tasks {
        let f = finish_of_job.entry(t.job.0).or_insert(t.finish);
        if t.finish > *f {
            *f = t.finish;
        }
    }

    let mut rebuilt: Vec<Vec<u64>> = vec![Vec::new(); 4];
    let mut next_job = base;
    for (index, r) in report.requests.iter().enumerate() {
        if !r.verdict.admitted() {
            continue;
        }
        let finish = finish_of_job[&next_job];
        next_job += 1;
        let latency = finish - (SimTime::ZERO + r.arrival);
        assert_eq!(
            Some(latency),
            r.latency,
            "request {index} latency must equal its job's last task finish minus arrival"
        );
        rebuilt[r.tenant].push(latency.as_nanos());
    }

    let served = report.tenants.iter().filter(|t| t.admitted > 0).count();
    assert_eq!(report.tail_attribution.len(), served);
    for t in &report.tenants {
        if t.admitted == 0 {
            continue;
        }
        let lats = &mut rebuilt[t.tenant];
        lats.sort_unstable();
        assert_eq!(nearest_rank(lats, 0.50).map(SimDuration::from_nanos), Some(t.p50));
        assert_eq!(nearest_rank(lats, 0.99).map(SimDuration::from_nanos), Some(t.p99));
        let slo = t.slo.expect("config sets a global SLO");
        assert_eq!(t.slo_met, t.p50 <= slo.p50 && t.p99 <= slo.p99);
        let traced = report
            .tail_attribution
            .iter()
            .find(|ta| ta.tenant == t.tenant as u64)
            .expect("a served tenant has a tail attribution");
        assert_eq!(traced.p99, t.p99, "tenant {} has two p99s", t.tenant);
    }
}

/// ROADMAP item 4's known-answer case for span assembly: one compute
/// lane, every request the same single task of service time `s`,
/// arrivals a fixed gap `g < s` apart. The backlog grows by `s − g` a
/// request, so request `k` must read queue = `k·(s − g)`, compute = `s`,
/// and no admission or transfer time — computable by hand, with real
/// queueing in it.
#[test]
fn one_lane_fixed_service_known_answer() {
    use disagg::hwsim::compute::ComputeModel;
    use disagg::hwsim::device::MemDeviceModel;
    use disagg::hwsim::topology::LinkKind;
    use disagg::obs::{assemble_request_spans, SegmentKind};

    const REQUESTS: u64 = 12;
    let one_lane = || {
        let mut b = Topology::builder();
        let n = b.node("host");
        let cpu = b.compute(
            n,
            ComputeModel {
                slots: 1,
                ..ComputeModel::preset(ComputeKind::Cpu)
            },
        );
        let dram = b.mem(n, MemDeviceModel::preset(MemDeviceKind::Dram));
        b.link(cpu, dram, LinkKind::MemBus);
        b.build().expect("one-lane topology")
    };
    let request = || {
        let mut j = JobBuilder::new("unit");
        j.task(TaskSpec::new("work").work(WorkClass::Scalar, 40_000));
        j.build().expect("unit job")
    };
    // The service time, from one request alone on the lane.
    let s = Runtime::new(one_lane(), RuntimeConfig::default())
        .execute(request())
        .expect("lone request")
        .makespan;
    let g = SimDuration(s.0 * 3 / 5);
    assert!(
        SimDuration::ZERO < g && g < s,
        "arrivals must outpace service: g {g} s {s}"
    );

    let mut rt = Runtime::new(one_lane(), RuntimeConfig::traced());
    let submission = Submission::batch((0..REQUESTS).map(|_| request()).collect())
        .arrivals((0..REQUESTS).map(|k| SimDuration(k * g.0)).collect())
        .requests((0..REQUESTS).map(|k| (k, 0)).collect());
    rt.execute(submission).expect("backlogged run");

    let spans = assemble_request_spans(rt.trace().events());
    assert_eq!(spans.len() as u64, REQUESTS);
    for (k, span) in spans.iter().enumerate() {
        let k = k as u64;
        assert_eq!(span.request, k);
        assert_eq!(span.arrival, SimTime(k * g.0));
        let a = &span.attribution;
        assert_eq!(a.queue, SimDuration(k * (s.0 - g.0)), "request {k} queue");
        assert_eq!(a.compute, s, "request {k} compute");
        assert_eq!(
            (a.admission, a.transfer, a.recovery),
            (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO),
            "request {k}"
        );
        assert_eq!(span.latency(), SimDuration(k * (s.0 - g.0) + s.0));
        let kinds: Vec<SegmentKind> = span.segments.iter().map(|seg| seg.kind).collect();
        let expected: &[SegmentKind] = if k == 0 {
            &[SegmentKind::Compute]
        } else {
            &[SegmentKind::Queue, SegmentKind::Compute]
        };
        assert_eq!(kinds, expected, "request {k}");
    }
}

/// The known answer for a retry that waits for a lane: two one-lane
/// CPUs on two nodes, request 0's single task on the first and a long
/// blocker (request 1) on the second. The first node crashes halfway
/// through request 0's attempt; the detector notices `d` later and the
/// task re-enters the surviving CPU's ready queue after a backoff `b`,
/// while the blocker still holds its only lane. So request 0 must read
/// recovery = the lost attempt through detection and backoff, queue =
/// the wait for the blocker's lane, compute = one clean run, in that
/// order, and nothing else; a Chrome export carries both attempts.
#[test]
fn a_retry_waiting_for_a_busy_lane_known_answer() {
    use disagg::hwsim::compute::ComputeModel;
    use disagg::hwsim::device::MemDeviceModel;
    use disagg::hwsim::fault::{FaultEvent, FaultInjector, FaultKind};
    use disagg::hwsim::ids::ComputeId;
    use disagg::hwsim::topology::LinkKind;
    use disagg::obs::{assemble_request_spans, chrome_trace, validate_chrome_trace, SegmentKind};

    let (d, b) = (SimDuration(2_000), SimDuration(1_000));
    let two_nodes = || {
        let mut t = Topology::builder();
        for name in ["a", "b"] {
            let n = t.node(name);
            let cpu =
                t.compute(n, ComputeModel { slots: 1, ..ComputeModel::preset(ComputeKind::Cpu) });
            let dram = t.mem(n, MemDeviceModel::preset(MemDeviceKind::Dram));
            t.link(cpu, dram, LinkKind::MemBus);
        }
        t.build().expect("two one-lane nodes")
    };
    let job = |name: &str, elems: u64| {
        let mut j = JobBuilder::new(name);
        j.task(TaskSpec::new("work").work(WorkClass::Scalar, elems).require(ComputeKind::Cpu).body(
            move |ctx| {
                ctx.compute(WorkClass::Scalar, elems);
                Ok(())
            },
        ));
        j.build().expect("one-task job")
    };
    let submission = || {
        Submission::batch(vec![job("victim", 40_000), job("blocker", 400_000)])
            .requests(vec![(0, 0), (1, 0)])
    };

    // Where each request lands and how long it runs, from a healthy run.
    let mut healthy = Runtime::new(two_nodes(), RuntimeConfig::traced());
    let report = healthy.execute(submission()).expect("healthy run");
    let [victim, blocker] = [0, 1].map(|j| {
        report.tasks.iter().find(|t| t.job.0 == j).expect("every request runs its task").clone()
    });
    assert_ne!(victim.compute, blocker.compute, "the requests run side by side");
    assert_eq!((victim.start, blocker.start), (SimTime::ZERO, SimTime::ZERO));
    let s = victim.duration();

    let crash_at = SimTime(s.0 / 2);
    let faults = FaultInjector::with_events(vec![FaultEvent {
        at: crash_at,
        kind: FaultKind::NodeCrash(healthy.topology().node_of_compute(victim.compute)),
    }]);
    let recovery = RecoveryPolicy::default().with_detection_delay(d).with_backoff(b);
    let config = RuntimeConfig::traced().with_faults(faults).with_recovery(recovery);
    let mut rt = Runtime::new(two_nodes(), config);
    let report = rt.execute(submission()).expect("faulty run");
    let relaunch = crash_at + d + b;
    let lane_free = blocker.finish;
    assert!(relaunch < lane_free, "the blocker must hold the lane at relaunch");

    let spans = assemble_request_spans(rt.trace().events());
    let span = spans.iter().find(|sp| sp.request == 0).expect("request 0 has a span");
    let a = &span.attribution;
    assert_eq!(a.recovery, relaunch - SimTime::ZERO, "the lost attempt");
    assert_eq!(a.queue, lane_free - relaunch, "the wait for the blocker's lane");
    assert_eq!(a.compute, s, "one clean run");
    assert_eq!((a.admission, a.transfer), (SimDuration::ZERO, SimDuration::ZERO));
    assert_eq!(a.total(), span.latency());
    assert_eq!(span.end, lane_free + s);
    let kinds: Vec<SegmentKind> = span.segments.iter().map(|seg| seg.kind).collect();
    assert_eq!(kinds, [SegmentKind::Recovery, SegmentKind::Queue, SegmentKind::Compute]);
    // The report keeps the first attempt's start and the retry's device.
    let retried = report.tasks.iter().find(|t| t.job.0 == 0).expect("request 0 finishes");
    assert_eq!((retried.start, retried.finish), (SimTime::ZERO, lane_free + s));
    assert_eq!(retried.compute, blocker.compute);

    // Both attempts are spans on their devices' lanes: the lost one ends
    // at its detection, the retry runs from the lane's release.
    let doc = chrome_trace(rt.trace().events(), rt.topology());
    validate_chrome_trace(&doc).expect("valid Chrome trace");
    let attempts: Vec<&str> =
        doc.lines().filter(|l| l.contains("\"name\":\"job0/task0\"")).collect();
    assert_eq!(attempts.len(), 2, "{attempts:?}");
    let us = |t: SimTime| format!("{}.{:03}", t.0 / 1_000, t.0 % 1_000);
    let lane = |c: ComputeId| format!("\"tid\":{}", c.0);
    assert!(attempts[0].contains(&lane(victim.compute)), "{}", attempts[0]);
    assert!(attempts[0].contains(&format!("\"dur\":{}", us(crash_at + d))), "{}", attempts[0]);
    assert!(attempts[1].contains(&lane(blocker.compute)), "{}", attempts[1]);
    assert!(attempts[1].contains(&format!("\"ts\":{}", us(lane_free))), "{}", attempts[1]);
}
