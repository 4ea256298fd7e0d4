//! `batch_dag` — a closed batch of layered DAGs of tiny tasks through
//! `Runtime::execute`: the executor event loop, `Scheduler::plan`, the
//! bandwidth ledger and small pool allocations do nearly all the work;
//! the serve layer, fault tolerance and bulk bytes do none.

use std::sync::{Arc, Mutex};

use disagg_core::obs::{FullObserver, ObserverSlot};
use disagg_core::{Runtime, RuntimeConfig};
use disagg_dataflow::job::{JobBuilder, JobId, JobSpec};
use disagg_dataflow::task::TaskId;
use disagg_hwsim::compute::WorkClass;
use disagg_hwsim::contention::{BandwidthLedger, ResourceKey};
use disagg_hwsim::device::{AccessOp, AccessPattern};
use disagg_hwsim::presets::disaggregated_rack;
use disagg_hwsim::rng::SimRng;
use disagg_hwsim::time::SimTime;
use disagg_hwsim::topology::Topology;
use disagg_region::pool::MemoryPool;
use disagg_region::props::PropertySet;
use disagg_sched::cost::CostModel;
use disagg_sched::schedule::Scheduler;

use super::{digest_report, job_finish_ns, time_per_call, worked, PassOutcome, Size, Workload};
use crate::stats::{median, Fnv};
use crate::tracer::Tracer;

/// Base work of every task (`WorkClass::Scalar` elements).
const BASE_WORK: u64 = 10_000;
/// Seeded per-task work jitter is drawn below this.
const WORK_JITTER: u64 = 2_000;
/// Every task's output region.
const OUTPUT_BYTES: u64 = 4096;
/// Passes per configuration behind the `*_over_*_host` ratios.
const VARIANT_REPS: usize = 5;

pub struct BatchDag {
    jobs: usize,
    layers: usize,
    width: usize,
    /// Per-task work jitter, job-major: the only thing the seed moves.
    jitter: Vec<u64>,
}

impl BatchDag {
    pub fn setup(seed: u64, size: Size) -> BatchDag {
        let (jobs, layers, width) = match size {
            Size::Full => (16, 24, 24),
            Size::Smoke => (4, 8, 8),
        };
        let mut rng = SimRng::new(seed ^ 0xba7c_4da6);
        let jitter = (0..jobs * layers * width)
            .map(|_| rng.next_below(WORK_JITTER))
            .collect();
        BatchDag {
            jobs,
            layers,
            width,
            jitter,
        }
    }

    fn topology() -> Topology {
        disaggregated_rack(4, 16, 4, 256).0
    }

    fn task_count(&self) -> usize {
        self.jobs * self.layers * self.width
    }

    /// Job `j`: `layers` × `width` tasks, every non-source task fed by
    /// two tasks of the previous layer.
    fn job(&self, j: usize) -> JobSpec {
        let mut job = JobBuilder::new(format!("dag{j}"));
        let mut prev: Vec<TaskId> = Vec::new();
        let mut next = j * self.layers * self.width;
        for l in 0..self.layers {
            let cur: Vec<TaskId> = (0..self.width)
                .map(|i| {
                    let work = BASE_WORK + self.jitter[next];
                    next += 1;
                    job.task(
                        worked(format!("t{l}_{i}"), WorkClass::Scalar, work)
                            .output_bytes(OUTPUT_BYTES),
                    )
                })
                .collect();
            if l > 0 {
                for (i, &t) in cur.iter().enumerate() {
                    job.edge(prev[i % prev.len()], t);
                    job.edge(prev[(i + 1) % prev.len()], t);
                }
            }
            prev = cur;
        }
        job.build().expect("layered DAG is valid")
    }

    fn jobs(&self, t: &mut Tracer) -> Vec<JobSpec> {
        t.span("dataflow.job_build", |_| {
            (0..self.jobs).map(|j| self.job(j)).collect()
        })
    }

    /// One pass under `config`; the shape every variant ratio reuses.
    fn pass_with(&self, config: RuntimeConfig, t: &mut Tracer) -> Result<PassOutcome, String> {
        let topo = t.span("hwsim.topology_build", |_| Self::topology());
        let mut rt = t.span("core.runtime_new", |_| Runtime::new(topo, config));
        let jobs = self.jobs(t);
        let report = t
            .span("core.execute", |_| rt.execute(jobs))
            .map_err(|e| format!("batch_dag execute: {e}"))?;

        let mut out = PassOutcome {
            fault_slowdown: 1.0,
            ..PassOutcome::default()
        };
        let mut h = Fnv::new();
        digest_report(&mut h, &report);
        out.digest = h.finish();
        out.makespan_ns = report.makespan.as_nanos();
        out.virtual_span_ns = out.makespan_ns;
        out.events = report.events;
        out.tasks = report.tasks.len();
        out.bytes_moved = report.bytes_moved;
        out.latencies = job_finish_ns(&report, JobId(0), self.jobs)
            .into_iter()
            .map(Some)
            .collect();
        let want = self.task_count();
        out.check(report.tasks.len() == want, || {
            format!(
                "batch_dag ran {} tasks, generator made {want}",
                report.tasks.len()
            )
        });
        t.span("core.drop", |_| drop((rt, report)));
        Ok(out)
    }

    /// Median host seconds of a pass under each of `configs`, over
    /// [`VARIANT_REPS`] rounds that run every variant once: a slow phase
    /// of the box then slows all of them, not one side of a ratio.
    fn host_s_under(&self, configs: &[&dyn Fn() -> RuntimeConfig]) -> Result<Vec<f64>, String> {
        let mut walls = vec![Vec::with_capacity(VARIANT_REPS); configs.len()];
        for _ in 0..VARIANT_REPS {
            for (config, walls) in configs.iter().zip(&mut walls) {
                let (out, s) = Tracer::new(false).timed("variant", |t| self.pass_with(config(), t));
                out?;
                walls.push(s);
            }
        }
        Ok(walls.iter().map(|w| median(w)).collect())
    }
}

impl Workload for BatchDag {
    fn pass(&self, t: &mut Tracer) -> Result<PassOutcome, String> {
        self.pass_with(RuntimeConfig::default(), t)
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
        let topo = Self::topology();
        let tasks = self.task_count();

        // sched: plan the pass's jobs, as `execute` does internally.
        let jobs: Vec<JobSpec> = (0..self.jobs).map(|j| self.job(j)).collect();
        let refs: Vec<(JobId, &JobSpec)> = jobs
            .iter()
            .enumerate()
            .map(|(j, s)| (JobId(j as u64), s))
            .collect();
        let scheduler = Scheduler::default();
        let mut plan_s = Vec::new();
        let mut est_ns = 0.0;
        for _ in 0..5 {
            let (plan, s) = t.timed("sched.plan", |_| scheduler.plan(&topo, &refs));
            plan_s.push(s);
            est_ns = plan
                .map_err(|e| format!("replayed plan: {e:?}"))?
                .est_makespan()
                .as_nanos_f64();
        }
        let plan_s = median(&plan_s);
        m.push(("sched.plan_us_per_pass", plan_s * 1e6));
        m.push(("sched.plan_ns_per_task", plan_s * 1e9 / tasks as f64));
        m.push((
            "sched.est_over_sim_makespan",
            est_ns / first.makespan_ns as f64,
        ));

        // sched: one placement ranking per task output.
        let pool = MemoryPool::new(&topo);
        let model = CostModel::new();
        let props = PropertySet::new();
        let computes: Vec<_> = topo.compute_ids().collect();
        let mut c = 0usize;
        let rank_s = t.span("sched.rank", |_| {
            time_per_call(tasks, || {
                c = (c + 1) % computes.len();
                std::hint::black_box(model.rank(&topo, &pool, computes[c], &props, OUTPUT_BYTES));
            })
        });
        m.push(("sched.rank_ns_per_call", rank_s * 1e9));

        // hwsim: the cost primitive over every compute × memory pair.
        let pairs: Vec<_> = topo
            .compute_ids()
            .flat_map(|c| topo.mem_ids().map(move |d| (c, d)))
            .collect();
        let mut p = 0usize;
        let access_s = t.span("hwsim.access_cost", |_| {
            time_per_call(tasks, || {
                let (c, d) = pairs[p % pairs.len()];
                p += 1;
                std::hint::black_box(topo.access_cost(
                    c,
                    d,
                    OUTPUT_BYTES,
                    AccessOp::Read,
                    AccessPattern::Sequential,
                ));
            })
        });
        m.push(("hwsim.access_cost_ns_per_call", access_s * 1e9));

        // hwsim: one small reservation per dataflow edge, times monotone.
        let edges = self.jobs * (self.layers - 1) * self.width * 2;
        let mems: Vec<_> = topo.mem_ids().collect();
        let mut ledger = BandwidthLedger::default_buckets();
        let mut at = 0u64;
        let ledger_s = t.span("hwsim.ledger_reserve", |_| {
            time_per_call(edges, || {
                at += 40;
                let dev = mems[(at / 40) as usize % mems.len()];
                std::hint::black_box(ledger.reserve(
                    ResourceKey::Mem(dev),
                    SimTime(at),
                    OUTPUT_BYTES as f64,
                    64.0,
                ));
            })
        });
        m.push(("hwsim.ledger_reserve_ns_per_call", ledger_s * 1e9));

        // region: one 4 KiB alloc + free per task.
        let mut pool = MemoryPool::new(&topo);
        let mut k = 0usize;
        let pool_s = t.span("region.pool_alloc_free", |_| {
            time_per_call(tasks, || {
                k += 1;
                let id = pool
                    .alloc(mems[k % mems.len()], OUTPUT_BYTES)
                    .expect("4 KiB fits");
                pool.free(id).expect("just allocated");
            })
        });
        m.push(("region.pool_alloc_free_ns_per_op", pool_s * 1e9));

        // core: what replay does not explain is the event loop's own.
        let execute_s = t.median_s("core.execute");
        let job_build_s = t.median_s("dataflow.job_build");
        let explained =
            plan_s + tasks as f64 * (rank_s + pool_s + access_s) + edges as f64 * ledger_s;
        m.push((
            "dataflow.job_build_us_per_job",
            job_build_s * 1e6 / self.jobs as f64,
        ));
        m.push((
            "core.execute_residual_share",
            ((execute_s - explained) / execute_s).max(0.0),
        ));
        m.push(("core.ns_per_event", execute_s * 1e9 / first.events as f64));
        m.push(("core.events_per_host_s", first.events as f64 / execute_s));

        // core / obs: the same pass under other configurations.
        let [base, shards2, traced, observed] = self.host_s_under(&[
            &RuntimeConfig::default,
            &|| RuntimeConfig::default().with_shards(2),
            &RuntimeConfig::traced,
            &|| {
                let sink = Arc::new(Mutex::new(FullObserver::new()));
                RuntimeConfig::default().with_observer(ObserverSlot::shared(sink))
            },
        ])?[..] else {
            unreachable!("one figure per configuration");
        };
        m.push(("core.shards2_over_shards1_host", shards2 / base));
        m.push(("core.traced_over_untraced_host", traced / base));
        m.push(("obs.full_observer_over_null_host", observed / base));
        Ok(m)
    }
}
