//! `apps_chaos` — real bytes through task bodies, `Accessor`, GF(256)
//! coding and the retry path, with 6–10 events per job: the event loop
//! that `batch_dag` stresses is idle here.
//!
//! One pass has three phases. **clean**: the paper's five applications,
//! each on a fresh runtime, outputs checked against the reference
//! implementations. **faulty**: dbms, ml and stream again under the E16
//! fault plan at MTTF = half that pass's clean makespan. **durable**: a
//! 3× replicated and an RS(4+2) striped region — create, write, read,
//! crash a node, degraded read, recover — with read-back bytes checked.

use disagg_core::{RecoveryPolicy, RunReport, Runtime, RuntimeConfig};
use disagg_dataflow::job::{JobId, JobSpec};
use disagg_ftol::{ParityEngine, ReedSolomon, ReplicatedRegion, StripedRegion};
use disagg_hwsim::contention::BandwidthLedger;
use disagg_hwsim::device::{AccessOp, AccessPattern};
use disagg_hwsim::fault::{FaultEvent, FaultInjector, FaultKind};
use disagg_hwsim::presets::{disaggregated_rack, Rack};
use disagg_hwsim::rng::SimRng;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;
use disagg_hwsim::trace::TraceEvent;
use disagg_region::pool::MemoryPool;
use disagg_region::props::PropertySet;
use disagg_region::region::{OwnerId, RegionManager};
use disagg_region::typed::RegionType;
use disagg_sched::schedule::Scheduler;
use disagg_workloads::dbms::{self, DbmsConfig};
use disagg_workloads::hospital::{self, HospitalConfig};
use disagg_workloads::hpc::{self, HpcConfig};
use disagg_workloads::ml::{self, MlConfig};
use disagg_workloads::streaming::{self, StreamConfig, WindowAgg};
use disagg_workloads::util::final_output;

use super::{digest_report, PassOutcome, Size, Workload};
use crate::stats::{median, Fnv};
use crate::tracer::Tracer;

const OWNER: OwnerId = OwnerId::App;
const RS_K: usize = 4;
const RS_M: usize = 2;
const REPLICAS: usize = 3;

/// The five applications, in pass order. The first three also run in
/// the faulty phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum App {
    Dbms,
    Ml,
    Stream,
    Hpc,
    Hospital,
}

const APPS: [App; 5] = [App::Dbms, App::Ml, App::Stream, App::Hpc, App::Hospital];
const FAULTY: usize = 3;

pub struct AppsChaos {
    dbms: DbmsConfig,
    ml: MlConfig,
    stream: StreamConfig,
    hpc: HpcConfig,
    hospital: HospitalConfig,
    /// Reference outputs, computed once in set-up.
    want_dbms: (u64, u64, u64),
    want_model: u64,
    want_windows: Vec<WindowAgg>,
    want_sum: i64,
    want_patients: u64,
    /// The bytes the durable phase writes and must read back.
    payload: Vec<u8>,
}

impl AppsChaos {
    pub fn setup(seed: u64, size: Size) -> AppsChaos {
        let full = size == Size::Full;
        let mut rng = SimRng::new(seed ^ 0xa995_c4a0);
        let dbms = DbmsConfig {
            tuples: if full { 20_000 } else { 2_000 },
            probe_tuples: if full { 10_000 } else { 1_000 },
            seed: rng.next_u64(),
            ..DbmsConfig::default()
        };
        let ml = MlConfig {
            samples: if full { 4_096 } else { 1_024 },
            seed: rng.next_u64(),
            ..MlConfig::default()
        };
        let stream = StreamConfig {
            events: if full { 20_000 } else { 4_000 },
            seed: rng.next_u64(),
            ..StreamConfig::default()
        };
        let hpc = HpcConfig {
            cells: if full { 8_192 } else { 2_048 },
            seed: rng.next_u64(),
            ..HpcConfig::default()
        };
        let hospital = HospitalConfig {
            frames: if full { 16 } else { 4 },
            seed: rng.next_below(1 << 32),
            ..HospitalConfig::default()
        };
        let mut payload = vec![0u8; if full { 12 << 20 } else { 1 << 20 }];
        rng.fill_bytes(&mut payload);

        let d = dbms::expected(&dbms);
        AppsChaos {
            want_dbms: (d.join_matches, d.groups as u64, d.total_sum),
            want_model: ml::expected_model(&ml),
            want_windows: streaming::expected_windows(&stream),
            want_sum: hpc::expected_sum(&hpc),
            want_patients: hospital::expected(&hospital).patients,
            dbms,
            ml,
            stream,
            hpc,
            hospital,
            payload,
        }
    }

    /// Gets one reference output wrong, so a test can watch the check fail.
    #[cfg(test)]
    pub fn expect_wrong_model(mut self) -> AppsChaos {
        self.want_model ^= 1;
        self
    }

    fn rack() -> (Topology, Rack) {
        disaggregated_rack(4, 16, 4, 256)
    }

    fn job(&self, app: App) -> JobSpec {
        match app {
            App::Dbms => dbms::query_job(self.dbms),
            App::Ml => ml::training_job(self.ml),
            App::Stream => streaming::windowed_job(self.stream),
            App::Hpc => hpc::stencil_job(self.hpc),
            App::Hospital => hospital::hospital_job(self.hospital),
        }
    }

    /// Whether the app's persistent output equals its reference.
    fn output_ok(&self, app: App, rt: &Runtime, report: &RunReport) -> bool {
        let out = |task: &str| final_output(rt, report, JobId(0), task);
        match app {
            App::Dbms => dbms::decode_result(&out("hash-join")) == self.want_dbms,
            App::Ml => ml::decode_model(&out("train")) == self.want_model,
            App::Stream => streaming::decode_result(&out("sink")) == self.want_windows,
            App::Hpc => hpc::decode_sum(&out("reduce")) == self.want_sum,
            App::Hospital => hospital::decode_count(&out("alert-caregivers")) == self.want_patients,
        }
    }

    /// Builds and runs one app on a fresh runtime; says whether its
    /// output equals the reference.
    fn run_app(
        &self,
        app: App,
        config: RuntimeConfig,
        out: &mut PassOutcome,
        t: &mut Tracer,
    ) -> Result<(Runtime, RunReport, bool), String> {
        let job = t.span("workloads.build_apps", |_| self.job(app));
        let topo = t.span("hwsim.topology_build", |_| Self::rack().0);
        let mut rt = t.span("core.runtime_new", |_| Runtime::new(topo, config));
        let report = t
            .span("core.execute", |_| rt.execute(job))
            .map_err(|e| format!("{app:?}: {e}"))?;
        let ok = self.output_ok(app, &rt, &report);
        out.events += report.events;
        out.tasks += report.tasks.len();
        out.bytes_moved += report.bytes_moved;
        out.virtual_span_ns += report.makespan.as_nanos();
        out.latencies.push(Some(report.makespan.as_nanos()));
        Ok((rt, report, ok))
    }

    /// The clean phase under `base`: every output is checked. Returns
    /// each app's makespan.
    fn clean_phase(
        &self,
        base: &RuntimeConfig,
        out: &mut PassOutcome,
        h: &mut Fnv,
        t: &mut Tracer,
    ) -> Result<Vec<u64>, String> {
        let mut makespans = Vec::with_capacity(APPS.len());
        for app in APPS {
            let (rt, report, ok) = self.run_app(app, base.clone(), out, t)?;
            out.check(ok, || format!("{app:?} output differs from its reference"));
            digest_report(h, &report);
            makespans.push(report.makespan.as_nanos());
            t.span("core.drop", |_| drop((rt, report)));
        }
        Ok(makespans)
    }

    /// The durable phase: replication, then striping, on one rack.
    fn durable_phase(
        &self,
        out: &mut PassOutcome,
        h: &mut Fnv,
        t: &mut Tracer,
    ) -> Result<(), String> {
        let size = self.payload.len() as u64;
        let none = FaultInjector::none();
        let mut buf = vec![0u8; self.payload.len()];
        let err = |what: &str, e: &dyn std::fmt::Debug| format!("durable {what}: {e:?}");

        // 3× replication.
        let (topo, rack) = disaggregated_rack(2, 32, 7, 64);
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut rr = ReplicatedRegion::create(
            &mut mgr,
            &topo,
            &rack.pool[..REPLICAS],
            size,
            OWNER,
            SimTime::ZERO,
        )
        .map_err(|e| err("replica create", &e))?;
        t.span("ftol.replica_write", |_| {
            rr.write(
                &mut mgr,
                &topo,
                &mut ledger,
                &none,
                0,
                &self.payload,
                SimTime::ZERO,
            )
        })
        .map_err(|e| err("replica write", &e))?;
        rr.read(
            &mgr,
            &topo,
            &mut ledger,
            &none,
            rack.cpus[0],
            0,
            &mut buf,
            SimTime(1),
        )
        .map_err(|e| err("replica read", &e))?;
        out.check(buf == self.payload, || {
            "replicated region read back other bytes".into()
        });
        let crash = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(2),
            kind: FaultKind::NodeCrash(topo.node_of_mem(rr.devs[0])),
        }]);
        buf.fill(0);
        rr.read(
            &mgr,
            &topo,
            &mut ledger,
            &crash,
            rack.cpus[0],
            0,
            &mut buf,
            SimTime(10),
        )
        .map_err(|e| err("replica survivor read", &e))?;
        out.check(buf == self.payload, || {
            "surviving replica read back other bytes".into()
        });
        let repl_recovery = t
            .span("ftol.replica_recover", |_| {
                rr.recover(
                    &mut mgr,
                    &topo,
                    &mut ledger,
                    &crash,
                    0,
                    rack.pool[REPLICAS],
                    SimTime(20),
                )
            })
            .map_err(|e| err("replica recover", &e))?;

        // RS(4+2) striping, host parity.
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut sr = StripedRegion::create(
            &mut mgr,
            &topo,
            &rack.pool[..RS_K + RS_M],
            size,
            RS_K,
            RS_M,
            OWNER,
            SimTime::ZERO,
        )
        .map_err(|e| err("stripe create", &e))?
        .with_parity_engine(ParityEngine::Host);
        t.span("ftol.striped_write", |_| {
            sr.write(
                &mut mgr,
                &topo,
                &mut ledger,
                0,
                &self.payload,
                SimTime::ZERO,
            )
        })
        .map_err(|e| err("stripe write", &e))?;
        buf.fill(0);
        sr.read(&mgr, &topo, &mut ledger, &none, 0, &mut buf, SimTime(1))
            .map_err(|e| err("stripe read", &e))?;
        out.check(buf == self.payload, || {
            "striped region read back other bytes".into()
        });
        let crash = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(2),
            kind: FaultKind::NodeCrash(topo.node_of_mem(sr.devs[0])),
        }]);
        buf.fill(0);
        let (_, degraded) = sr
            .read(&mgr, &topo, &mut ledger, &crash, 0, &mut buf, SimTime(10))
            .map_err(|e| err("stripe degraded read", &e))?;
        out.check(degraded && buf == self.payload, || {
            "degraded stripe read back other bytes".into()
        });
        let stripe_recovery = t
            .span("ftol.stripe_recover", |_| {
                sr.recover(
                    &mut mgr,
                    &topo,
                    &mut ledger,
                    &crash,
                    0,
                    rack.pool[RS_K + RS_M],
                    SimTime(20),
                )
            })
            .map_err(|e| err("stripe recover", &e))?;

        h.word(repl_recovery.as_nanos());
        h.word(stripe_recovery.as_nanos());
        out.counters.push((
            "ftol.sim_recovery_ns_repl3",
            repl_recovery.as_nanos() as f64,
        ));
        out.counters.push((
            "ftol.sim_recovery_ns_rs42",
            stripe_recovery.as_nanos() as f64,
        ));
        Ok(())
    }
}

/// The recovery policy of the faulty phase: a real detector,
/// exponential backoff, a bounded retry budget.
fn recovery() -> RecoveryPolicy {
    RecoveryPolicy::default()
        .with_max_retries(8)
        .with_detection_delay(SimDuration(2_000))
        .with_backoff(SimDuration(1_000))
}

/// The E16 plan: a node crash every `mttf` (rotating through the compute
/// nodes, each repaired after `mttf / 4`) out to twice the clean
/// horizon, two corruption bursts, one quarter-bandwidth fabric window.
fn chaos_plan(topo: &Topology, rack: &Rack, clean: u64, mttf: u64) -> FaultInjector {
    let mut f = FaultInjector::none();
    let mut k = 1u64;
    while k.saturating_mul(mttf) < clean.saturating_mul(2) {
        let node = rack.nodes[(k as usize - 1) % rack.nodes.len()];
        f.schedule(SimTime(k * mttf), FaultKind::NodeCrash(node));
        f.schedule(SimTime(k * mttf + mttf / 4), FaultKind::NodeRecover(node));
        k += 1;
    }
    for dev in [rack.drams[0], rack.pool[0]] {
        f.schedule(
            SimTime(mttf / 3),
            FaultKind::Corrupt {
                dev,
                offset: 0,
                len: 4 << 20,
            },
        );
    }
    if let Some(link) = topo
        .access_cost_parts(
            rack.cpus[0],
            rack.pool[0],
            1,
            AccessOp::Read,
            AccessPattern::Sequential,
        )
        .and_then(|p| p.bottleneck_link)
    {
        f.schedule(
            SimTime(mttf / 2),
            FaultKind::LinkDegraded {
                link,
                factor_pct: 25,
            },
        );
        f.schedule(SimTime(mttf / 2 + mttf / 4), FaultKind::LinkUp(link));
    }
    f
}

impl Workload for AppsChaos {
    fn pass(&self, t: &mut Tracer) -> Result<PassOutcome, String> {
        let mut out = PassOutcome::default();
        let mut h = Fnv::new();

        // clean
        let clean = self.clean_phase(&RuntimeConfig::default(), &mut out, &mut h, t)?;
        out.makespan_ns = clean.iter().sum();
        let clean_mismatches = out.check_failures.len();

        // faulty
        let (mut retries, mut detected, mut reconstructs) = (0u64, 0u64, 0u64);
        let mut faulty_ns = 0u64;
        let mut faulty_mismatches = 0usize;
        for (&app, &clean_ns) in APPS.iter().zip(&clean).take(FAULTY) {
            let (topo, rack) = Self::rack();
            let plan = chaos_plan(&topo, &rack, clean_ns, clean_ns / 2);
            let config = RuntimeConfig::traced()
                .with_faults(plan)
                .with_recovery(recovery());
            let (rt, report, ok) = self.run_app(app, config, &mut out, t)?;
            // Recorded, not failed: at this commit a retried dbms
            // aggregate re-applies its partial sums (see README).
            faulty_mismatches += usize::from(!ok);
            digest_report(&mut h, &report);
            h.word(u64::from(ok));
            faulty_ns += report.makespan.as_nanos();
            for e in rt.trace().events() {
                match e {
                    TraceEvent::TaskRetry { .. } => retries += 1,
                    TraceEvent::FaultDetected { .. } => detected += 1,
                    TraceEvent::Reconstruct { .. } => reconstructs += 1,
                    _ => {}
                }
            }
            t.span("core.drop", |_| drop((rt, report)));
        }
        let clean_faultable: u64 = clean.iter().take(FAULTY).sum();
        out.fault_slowdown = faulty_ns as f64 / clean_faultable as f64;

        // durable
        self.durable_phase(&mut out, &mut h, t)?;

        out.digest = h.finish();
        out.counters.extend([
            ("core.retries", retries as f64),
            ("core.faults_detected", detected as f64),
            ("core.reconstructs", reconstructs as f64),
            ("workloads.output_mismatches", clean_mismatches as f64),
            (
                "workloads.faulty_output_mismatches",
                faulty_mismatches as f64,
            ),
        ]);
        Ok(out)
    }

    fn latency_limit_ns(&self) -> Option<u64> {
        None
    }

    fn replay(
        &self,
        first: &PassOutcome,
        t: &mut Tracer,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let mut m: Vec<(&'static str, f64)> = Vec::new();
        let mib = self.payload.len() as f64 / (1 << 20) as f64;
        let (topo, rack) = Self::rack();

        // core / workloads: from the traced passes' spans.
        let execute_s = t.median_s("core.execute");
        m.push(("core.ns_per_event", execute_s * 1e9 / first.events as f64));
        m.push(("core.events_per_host_s", first.events as f64 / execute_s));
        m.push((
            "workloads.build_apps_ms",
            t.median_s("workloads.build_apps") * 1e3,
        ));

        // sched: planned over simulated makespan, and the compute-centric
        // baseline over the declarative default, both on the clean phase.
        let mut est_ns = 0.0;
        for app in APPS {
            let job = self.job(app);
            let plan = t
                .span("sched.plan", |_| {
                    Scheduler::default().plan(&topo, &[(JobId(0), &job)])
                })
                .map_err(|e| format!("replayed plan: {e:?}"))?;
            est_ns += plan.est_makespan().as_nanos_f64();
        }
        m.push((
            "sched.est_over_sim_makespan",
            est_ns / first.makespan_ns as f64,
        ));
        let mut scratch = PassOutcome::default();
        let cc = self.clean_phase(
            &RuntimeConfig::compute_centric(),
            &mut scratch,
            &mut Fnv::new(),
            &mut Tracer::new(false),
        )?;
        if !scratch.check_failures.is_empty() {
            return Err(format!(
                "compute-centric clean phase: {:?}",
                scratch.check_failures
            ));
        }
        m.push((
            "sched.cc_over_declarative_makespan",
            cc.iter().sum::<u64>() as f64 / first.makespan_ns as f64,
        ));

        // region: real bytes through the manager and the pool.
        let mut mgr = RegionManager::new(&topo);
        let size = self.payload.len() as u64;
        let alloc = |mgr: &mut RegionManager, dev| {
            mgr.alloc(
                dev,
                size,
                RegionType::Output,
                PropertySet::new(),
                OWNER,
                SimTime::ZERO,
            )
            .map_err(|e| format!("replay alloc: {e}"))
        };
        let a = alloc(&mut mgr, rack.pool[0])?;
        let mut buf = vec![0u8; self.payload.len()];
        let mut rw_s = Vec::new();
        for _ in 0..5 {
            let (done, s) = t.timed("region.write_read", |_| -> Result<(), String> {
                mgr.write(a, OWNER, 0, &self.payload)
                    .map_err(|e| format!("replay write: {e}"))?;
                mgr.read(a, OWNER, 0, &mut buf)
                    .map_err(|e| format!("replay read: {e}"))?;
                Ok(())
            });
            done?;
            rw_s.push(s);
        }
        if buf != self.payload {
            return Err("replayed region read back other bytes".into());
        }
        m.push(("region.write_read_mib_per_s", 2.0 * mib / median(&rw_s)));
        let mut pool = MemoryPool::new(&topo);
        let src = pool
            .alloc(rack.pool[0], size)
            .map_err(|e| format!("replay alloc: {e}"))?;
        let dst = pool
            .alloc(rack.pool[1], size)
            .map_err(|e| format!("replay alloc: {e}"))?;
        pool.write_at(src, 0, &self.payload)
            .map_err(|e| format!("replay write: {e}"))?;
        let mut copy_s = Vec::new();
        for _ in 0..5 {
            let (copied, s) = t.timed("region.copy_between", |_| pool.copy_between(src, dst, size));
            copied.map_err(|e| format!("replay copy: {e}"))?;
            copy_s.push(s);
        }
        m.push(("region.copy_between_mib_per_s", mib / median(&copy_s)));

        // ftol: GF(256) coding on the payload, and the durable phase's
        // own calls from the traced passes.
        let rs = ReedSolomon::new(RS_K, RS_M).map_err(|e| format!("rs: {e:?}"))?;
        let shard_len = self.payload.len() / RS_K;
        let data: Vec<Vec<u8>> = self
            .payload
            .chunks(shard_len)
            .take(RS_K)
            .map(<[u8]>::to_vec)
            .collect();
        let mut enc_s = Vec::new();
        let mut rec_s = Vec::new();
        for _ in 0..3 {
            let (parity, s) = t.timed("ftol.rs_encode", |_| rs.encode(&data));
            let parity = parity.map_err(|e| format!("rs encode: {e:?}"))?;
            enc_s.push(s);
            let mut shards: Vec<Option<Vec<u8>>> =
                data.iter().cloned().chain(parity).map(Some).collect();
            shards[0] = None;
            shards[RS_K] = None;
            let (rebuilt, s) = t.timed("ftol.rs_reconstruct", |_| rs.reconstruct(&mut shards));
            rebuilt.map_err(|e| format!("rs reconstruct: {e:?}"))?;
            rec_s.push(s);
            if shards[0].as_deref() != Some(&data[0][..]) {
                return Err("RS reconstruction returned other bytes".into());
            }
        }
        m.push(("ftol.rs_encode_mib_per_s", mib / median(&enc_s)));
        m.push(("ftol.rs_reconstruct_mib_per_s", mib / median(&rec_s)));
        m.push((
            "ftol.striped_write_mib_per_s",
            mib / t.median_s("ftol.striped_write"),
        ));
        m.push((
            "ftol.replica_recover_ms",
            t.median_s("ftol.replica_recover") * 1e3,
        ));
        m.push((
            "ftol.stripe_recover_ms",
            t.median_s("ftol.stripe_recover") * 1e3,
        ));
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_expected_output_fails_the_pass() {
        let good = AppsChaos::setup(1, Size::Smoke)
            .pass(&mut Tracer::new(false))
            .unwrap();
        assert!(good.check_failures.is_empty(), "{:?}", good.check_failures);
        assert_eq!(good.counter("workloads.output_mismatches"), Some(0.0));

        let bad = AppsChaos::setup(1, Size::Smoke)
            .expect_wrong_model()
            .pass(&mut Tracer::new(false))
            .unwrap();
        assert_eq!(bad.counter("workloads.output_mismatches"), Some(1.0));
        assert_eq!(bad.check_failures, ["Ml output differs from its reference"]);
        assert_eq!(
            bad.checks, good.checks,
            "a failed check is still an attempted one"
        );
        assert_eq!(
            bad.makespan_ns, good.makespan_ns,
            "the expectation is the benchmark's, not the run's"
        );
    }

    #[test]
    fn passes_repeat_and_the_seed_reaches_the_apps() {
        let w = AppsChaos::setup(1, Size::Smoke);
        let a = w.pass(&mut Tracer::new(false)).unwrap();
        let b = w.pass(&mut Tracer::new(false)).unwrap();
        assert_eq!(a, b);
        let other = AppsChaos::setup(2, Size::Smoke)
            .pass(&mut Tracer::new(false))
            .unwrap();
        assert_ne!(a.digest, other.digest);
        assert!(a.fault_slowdown >= 1.0);
        assert!(a.counter("core.retries").unwrap() > 0.0);
    }
}
