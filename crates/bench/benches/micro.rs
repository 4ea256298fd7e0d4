//! Microbenchmarks of the runtime's hot primitives: cost resolution,
//! allocation, the contention ledger, Reed-Solomon coding, scheduling,
//! and an end-to-end job submission.

use std::hint::black_box;

use disagg_bench::harness::{bench, bench_named, header, BenchOpts};
use disagg_core::prelude::*;
use disagg_ftol::gf256;
use disagg_ftol::reedsolomon::ReedSolomon;
use disagg_hwsim::contention::{BandwidthLedger, ResourceKey};
use disagg_hwsim::device::{AccessOp, AccessPattern};
use disagg_hwsim::ids::MemDeviceId;
use disagg_hwsim::presets::single_server;
use disagg_hwsim::rng::SimRng;
use disagg_hwsim::time::SimTime;
use disagg_region::pool::MemoryPool;
use disagg_sched::cost::CostModel;
use disagg_sched::enforce::xor_cipher;
use disagg_workloads::hospital::{hospital_job, HospitalConfig};

fn access_cost() {
    let (topo, h) = single_server();
    bench("topology/access_cost", || {
        black_box(topo.access_cost(
            black_box(h.cpu),
            black_box(h.cxl),
            black_box(1 << 20),
            AccessOp::Read,
            AccessPattern::Sequential,
        ));
    });
}

fn cost_model_rank() {
    let (topo, h) = single_server();
    let pool = MemoryPool::new(&topo);
    let model = CostModel::new();
    let props = disagg_region::props::PropertySet::new();
    bench("cost/rank_all_devices", || {
        black_box(model.rank(&topo, &pool, h.cpu, &props, 1 << 20));
    });
}

fn pool_alloc_free() {
    let (topo, h) = single_server();
    let mut pool = MemoryPool::new(&topo);
    bench("pool/alloc_free_4k", || {
        let id = pool.alloc(h.dram, 4096).expect("alloc");
        pool.free(id).expect("free");
    });
}

fn ledger_reserve() {
    let mut ledger = BandwidthLedger::default_buckets();
    let mut t = 0u64;
    bench("ledger/reserve", || {
        t += 100;
        black_box(ledger.reserve(
            ResourceKey::Mem(MemDeviceId(0)),
            SimTime(t),
            4096.0,
            100.0,
        ));
    });
}

/// Four 64 KiB shards of random bytes. (Constant fills flatter a coding
/// kernel: shard 0 of `vec![i as u8; ..]` is all zeros, which the old
/// log/exp loop skipped outright.)
fn random_shards() -> Vec<Vec<u8>> {
    let mut rng = SimRng::new(0x5EED);
    (0..4)
        .map(|_| {
            let mut shard = vec![0u8; 64 << 10];
            rng.fill_bytes(&mut shard);
            shard
        })
        .collect()
}

fn gf256_row() {
    let shards = random_shards();
    let srcs: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
    let mut out = vec![0u8; 64 << 10];
    bench("gf256/row_4x64k", || {
        gf256::mul_row(black_box(&mut out), black_box(&[0x1B, 0x8E, 0xF3, 0x47]), black_box(&srcs));
    });
}

fn reed_solomon() {
    let rs = ReedSolomon::new(4, 2).expect("params");
    let shards = random_shards();
    bench("rs/encode_4+2_64k", || {
        black_box(rs.encode(black_box(&shards)).expect("encode"));
    });
    let parity = rs.encode(&shards).expect("encode");
    bench("rs/reconstruct_2_lost_64k", || {
        let mut set: Vec<Option<Vec<u8>>> = shards
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.iter().cloned().map(Some))
            .collect();
        set[0] = None;
        set[5] = None;
        rs.reconstruct(&mut set).expect("reconstruct");
        black_box(set);
    });
}

fn cipher() {
    let mut data = vec![0xABu8; 64 << 10];
    bench("enforce/xor_cipher_64k", || {
        xor_cipher(black_box(&mut data), 0xDEAD_BEEF);
    });
}

fn schedule_dag() {
    use disagg_dataflow::{JobBuilder, TaskSpec};
    use disagg_sched::schedule::{SchedPolicy, Scheduler};
    let (topo, _) = single_server();
    let mut job = JobBuilder::new("wide");
    let mut prev = None;
    for i in 0..100 {
        let t = job.task(
            TaskSpec::new(format!("t{i}"))
                .work(WorkClass::Scalar, 100_000)
                .output_bytes(1 << 16),
        );
        if let Some(p) = prev {
            if i % 3 != 0 {
                job.edge(p, t);
            }
        }
        prev = Some(t);
    }
    let spec = job.build().expect("valid");
    bench("sched/heft_100_tasks", || {
        black_box(
            Scheduler::new(SchedPolicy::Heft)
                .plan(&topo, &[(JobId(0), &spec)])
                .expect("plan"),
        );
    });
}

/// `n` serving-shaped requests off `SimRng`: two-task lookups and
/// four-task fan-outs with jittered scalar work and KiB outputs.
fn serving_jobs(n: usize, rng: &mut SimRng) -> Vec<JobSpec> {
    use disagg_dataflow::TaskSpec;
    let task = |name: &str, rng: &mut SimRng| {
        TaskSpec::new(name)
            .work(WorkClass::Scalar, 2_000 + rng.next_below(500))
            .output_bytes(1 << 10)
    };
    (0..n)
        .map(|_| {
            let mut job = JobBuilder::new("req");
            let head = job.task(task("head", rng));
            let tail = job.task(task("tail", rng));
            if rng.chance(0.5) {
                job.edge(head, tail);
            } else {
                for name in ["left", "right"] {
                    let mid = job.task(task(name, rng));
                    job.edge(head, mid);
                    job.edge(mid, tail);
                }
            }
            job.build().expect("valid")
        })
        .collect()
}

/// One serving epoch's plan: 4 000 small requests on the rack.
fn plan_serving() {
    use disagg_hwsim::presets::disaggregated_rack;
    use disagg_sched::schedule::{SchedPolicy, Scheduler};
    let (topo, _rack) = disaggregated_rack(4, 8, 2, 32);
    let specs = serving_jobs(4_000, &mut SimRng::new(0x5EED));
    let jobs: Vec<(JobId, &JobSpec)> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| (JobId(100 + i as u64), s))
        .collect();
    bench("sched/plan_serving_4k", || {
        black_box(
            Scheduler::new(SchedPolicy::Heft)
                .plan(&topo, black_box(&jobs))
                .expect("plan"),
        );
    });
}

/// What placing one task's regions costs the engine on the rack: its
/// output shared with one to three accessors, then a fan-out copy for
/// one consumer, 1 000 such tasks an iteration while the pool's fill
/// drifts (utilization is the only score input that moves).
fn place_output_rack() {
    use disagg_hwsim::presets::disaggregated_rack;
    use disagg_region::props::PropertySet;
    use disagg_sched::placement::{PlacementEngine, PlacementPolicy};
    let (topo, _rack) = disaggregated_rack(4, 16, 4, 256);
    let computes: Vec<_> = topo.compute_ids().collect();
    let mut rng = SimRng::new(0x5EED);
    let lists: Vec<Vec<_>> = (0..1_000)
        .map(|_| (0..1 + rng.next_below(3)).map(|_| *rng.pick(&computes)).collect())
        .collect();
    let props = PropertySet::new();
    let mut pool = MemoryPool::new(&topo);
    let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
    let mut held = std::collections::VecDeque::new();
    bench("sched/place_output_rack", || {
        for list in &lists {
            let dev = engine
                .choose_shared(&topo, &pool, list, &props, 4096)
                .expect("the rack has room");
            held.push_back(pool.alloc(dev, 4096).expect("chosen for its room"));
            black_box(engine.choose(&topo, &pool, list[0], &props, 4096));
            if held.len() > 512 {
                pool.free(held.pop_front().expect("non-empty")).expect("live");
            }
        }
        engine.decisions.clear();
    });
}

/// Building the DAG of a 24 x 24 layered job, two parents per task —
/// what every request's `JobBuilder::build` pays, at batch size.
fn dag_new_fanout() {
    use disagg_dataflow::graph::Dag;
    let (layers, width) = (24u32, 24u32);
    let mut edges = Vec::new();
    for l in 1..layers {
        for i in 0..width {
            let t = TaskId(l * width + i);
            edges.push((TaskId((l - 1) * width + i), t));
            edges.push((TaskId((l - 1) * width + (i + 1) % width), t));
        }
    }
    bench("dataflow/dag_new_fanout", || {
        black_box(Dag::new((layers * width) as usize, black_box(&edges)).expect("acyclic"));
    });
}

/// Span assembly over the trace of a 32 000-request serving run: every
/// job tagged, two to four tasks each with queue, dispatch, start and
/// finish events, among the pool and access events a real trace carries
/// (≈ 0.7 M events).
fn assemble_spans() {
    use disagg_hwsim::device::AccessOp;
    use disagg_hwsim::ids::ComputeId;
    use disagg_hwsim::time::SimDuration;
    use disagg_hwsim::trace::TraceEvent;
    let mut rng = SimRng::new(0x5EED);
    let (on, dev) = (ComputeId(0), MemDeviceId(0));
    let mut events: Vec<TraceEvent> = Vec::new();
    for request in 0..32_000u64 {
        let job = 7 + request;
        let arrival = request * 100;
        events.push(TraceEvent::RequestTag {
            request,
            tenant: request % 6,
            job,
            at: SimTime(arrival),
        });
        let mut at = arrival;
        for task in 0..2 + rng.next_below(3) {
            let waited = rng.next_below(400);
            events.push(TraceEvent::TaskQueued {
                job,
                task,
                on,
                at: SimTime(at),
            });
            at += waited;
            let region = job * 4 + task;
            events.push(TraceEvent::TaskDispatch {
                job,
                task,
                on,
                at: SimTime(at),
                waited: SimDuration(waited),
            });
            events.push(TraceEvent::Alloc {
                region,
                dev,
                bytes: 1 << 10,
                at: SimTime(at),
            });
            events.push(TraceEvent::TaskStart {
                job,
                task,
                on,
                at: SimTime(at),
            });
            let took = 1_500 + rng.next_below(600);
            events.push(TraceEvent::Access {
                region,
                dev,
                bytes: 1 << 10,
                op: AccessOp::Write,
                at: SimTime(at),
                took: SimDuration(took),
            });
            at += took;
            events.push(TraceEvent::TaskFinish {
                job,
                task,
                on,
                at: SimTime(at),
            });
            events.push(TraceEvent::Free {
                region,
                dev,
                bytes: 1 << 10,
                at: SimTime(at),
            });
            at += rng.next_below(50);
        }
    }
    // Requests overlap in time; a trace is in commit (time) order.
    events.sort_by_key(TraceEvent::at);
    let opts = BenchOpts {
        max_iters: 20,
        max_time: std::time::Duration::from_secs(2),
        ..BenchOpts::default()
    };
    let stats = bench_named("obs/assemble_spans_32k", opts, || {
        black_box(disagg_obs::assemble_request_spans(black_box(&events)));
    });
    println!(
        "obs/assemble_spans_ns_per_event    {} events → {:.1} ns/event (best iter)",
        events.len(),
        stats.min.as_nanos() as f64 / events.len() as f64
    );
}

/// The ownership bookkeeping one task costs the region manager: an
/// output allocated to its producer, checked, handed to the consumer,
/// and released at the consumer's exit — 1 000 producer/consumer pairs
/// an iteration, region sizes off `SimRng`.
fn region_manager() {
    use disagg_region::region::{OwnerId, RegionManager};
    let (topo, h) = single_server();
    let mut mgr = RegionManager::new(&topo);
    let mut rng = SimRng::new(0x5EED);
    let sizes: Vec<u64> = (0..1_000).map(|_| 64 + rng.next_below(4_096)).collect();
    let mut job = 0u64;
    bench("region/manager_alloc_transfer_release", || {
        job += 1;
        for (task, &size) in sizes.iter().enumerate() {
            let producer = OwnerId::Task {
                job,
                task: task as u64,
            };
            let consumer = OwnerId::Task {
                job,
                task: task as u64 + 1,
            };
            let rtype = RegionType::Output;
            let id = mgr
                .alloc(
                    h.dram,
                    size,
                    rtype,
                    rtype.properties(),
                    producer,
                    SimTime::ZERO,
                )
                .expect("alloc");
            black_box(mgr.meta(id).expect("live").ownership.is_owner(producer));
            mgr.transfer(id, producer, consumer).expect("transfer");
            black_box(mgr.release_all(consumer));
        }
    });
}

/// Event-loop throughput on the rack-scale preset: the stress batch
/// from the parallel driver, reported as events/sec (the executor's
/// unit of work). Compare against `driver::BASELINE_TASKS_PER_SEC` for
/// the pre-refactor trajectory.
fn events_per_sec() {
    use disagg_bench::driver;
    let opts = BenchOpts {
        warmup_iters: 1,
        max_iters: 5,
        ..BenchOpts::default()
    };
    let (jobs, layers, width) = (8, 16, 16);
    let mut last = None;
    let stats = bench_named("executor/rack_stress_8x16x16", opts, || {
        last = Some(driver::stress_run(jobs, layers, width));
    });
    let driver::Throughput { tasks, events, .. } = last.expect("at least one iteration ran");
    let eps = events as f64 / stats.min.as_secs_f64();
    println!(
        "executor/events_per_sec            {tasks} tasks, {events} events → {eps:.0} events/sec (best iter)"
    );
}

/// Observability overhead: the same stress batch with (a) no observer
/// (the NullObserver-equivalent default — no tap installed), (b) a
/// streaming metrics + timeline + event-buffer FullObserver, and (c)
/// buffered tracing only. The events/sec gap between (a) and the seed
/// baseline is the cost of having observability *available*; between
/// (a) and (b) the cost of having it *on*.
fn trace_overhead() {
    use disagg_bench::driver;
    use disagg_core::prelude::{FullObserver, ObserverSlot};
    use disagg_hwsim::presets::disaggregated_rack;
    use std::sync::{Arc, Mutex};

    let opts = BenchOpts {
        warmup_iters: 1,
        max_iters: 5,
        ..BenchOpts::default()
    };
    let (jobs, layers, width) = (4, 8, 8);
    let run = |config: RuntimeConfig| {
        let (topo, _rack) = disaggregated_rack(4, 16, 4, 256);
        let mut rt = Runtime::new(topo, config);
        let batch = driver::stress_jobs(jobs, layers, width);
        rt.execute(batch).expect("stress batch runs").events
    };

    let mut events = 0u64;
    let null = bench_named("trace_overhead/null_observer", opts, || {
        events = run(RuntimeConfig::default());
    });
    let full = bench_named("trace_overhead/full_observer", opts, || {
        let sink = Arc::new(Mutex::new(FullObserver::new()));
        events = run(RuntimeConfig::default().with_observer(ObserverSlot::shared(sink.clone())));
        black_box(sink.lock().unwrap().events.len());
    });
    let traced = bench_named("trace_overhead/buffered_trace", opts, || {
        events = run(RuntimeConfig::traced());
    });
    let eps = |d: std::time::Duration| events as f64 / d.as_secs_f64();
    println!(
        "trace_overhead/events_per_sec      null {:.0} | full observer {:.0} ({:.1}% slower) | buffered trace {:.0} ({:.1}% slower)",
        eps(null.min),
        eps(full.min),
        (full.min.as_secs_f64() / null.min.as_secs_f64() - 1.0) * 100.0,
        eps(traced.min),
        (traced.min.as_secs_f64() / null.min.as_secs_f64() - 1.0) * 100.0,
    );
}

fn end_to_end() {
    let opts = BenchOpts {
        max_iters: 10,
        ..BenchOpts::default()
    };
    bench_named("e2e/hospital_job", opts, || {
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::default());
        black_box(
            rt.execute(hospital_job(HospitalConfig {
                frames: 2,
                ..HospitalConfig::default()
            }))
            .expect("runs"),
        );
    });
}

fn main() {
    // Optional substring filters so a single group can be re-measured in
    // isolation: `cargo bench --bench micro -- trace_overhead` runs only
    // the groups whose name contains a filter (scripts/bench_guard.sh
    // uses this for the observer-overhead gate). Cargo's own `--bench`
    // style flags are ignored.
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let wants =
        |name: &str| filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str()));
    let groups: [(&str, fn()); 16] = [
        ("topology/access_cost", access_cost),
        ("cost/rank_all_devices", cost_model_rank),
        ("pool/alloc_free", pool_alloc_free),
        ("ledger/reserve", ledger_reserve),
        ("gf256/row", gf256_row),
        ("rs/reed_solomon", reed_solomon),
        ("enforce/xor_cipher", cipher),
        ("sched/heft", schedule_dag),
        ("sched/plan_serving", plan_serving),
        ("sched/place_output", place_output_rack),
        ("dataflow/dag_new", dag_new_fanout),
        ("obs/assemble_spans", assemble_spans),
        ("region/manager", region_manager),
        ("executor/events_per_sec", events_per_sec),
        ("trace_overhead", trace_overhead),
        ("e2e/hospital_job", end_to_end),
    ];
    header("micro");
    for (name, group) in groups {
        if wants(name) {
            group();
        }
    }
}
