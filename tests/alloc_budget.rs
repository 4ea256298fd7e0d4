//! Allocation budget of the task commit path: a counting global
//! allocator around `Runtime::execute` and `ServeLayer::run`.
//!
//! Committing a task is meant to cost a constant, allocation-free
//! amount of work (DESIGN.md "Hot-path layout"): what is left per task
//! is amortised growth of a few wave-wide vectors, and per request the
//! job the template builds. The budgets below sit about a quarter above
//! what this commit measures, so the next per-task `Vec` fails a test
//! rather than waiting for someone to profile. A serving run is also
//! held to sizing its run-wide buffers once: few reallocations of large
//! blocks, and a report whose task list is not left half empty by a
//! doubling; to a trace that records each task attempt once, in
//! 48-byte events; and to task reports of 72 bytes whose placements and
//! access statistics live once, in the run's lists.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use disagg::hwsim::presets::disaggregated_rack;
use disagg::hwsim::time::SimDuration;
use disagg::hwsim::trace::TraceEvent;
use disagg::prelude::*;

/// Counts every request for memory (`alloc`, `alloc_zeroed`, `realloc`),
/// and separately the `realloc`s of blocks of [`BIG`] bytes or more;
/// frees are not counted.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BIG_REALLOCS: AtomicU64 = AtomicU64::new(0);

/// A block this large is a run-wide buffer (the trace, the report's
/// lists, the pool's slot table): growing it copies everything written
/// so far.
const BIG: usize = 256 << 10;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        if layout.size() >= BIG {
            BIG_REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller vouched for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls, and reallocations of [`BIG`] blocks, made while `f`
/// runs. The one test below is this binary's only thread that allocates
/// while a count is open.
fn calls_during<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (CALLS.load(Ordering::Relaxed), BIG_REALLOCS.load(Ordering::Relaxed));
    let out = f();
    (
        out,
        CALLS.load(Ordering::Relaxed) - before.0,
        BIG_REALLOCS.load(Ordering::Relaxed) - before.1,
    )
}

/// Allocator calls per executed task allowed in a closed batch, with
/// the jobs built beforehand (measured: 226 calls for 9 216 tasks,
/// 0.025; 7.75 before the commit path stopped allocating).
const BATCH_CALLS_PER_TASK: f64 = 0.031;
/// The same for a traced serving run, end to end: request stream,
/// template instantiation, planning, execution, span assembly
/// (measured: 33 120 calls for 4 964 tasks, 6.67, most of it the
/// template building its job; 7.05 while span assembly kept a start
/// table per job, 6.15 before a spec's name became shared, 7.78 while
/// `Dag::new` took seven arrays and a name check a hash set, 14.5 before
/// that).
const SERVE_CALLS_PER_TASK: f64 = 7.7;
/// Trace events per executed task in that serving run (measured: 19 514
/// events for 4 964 tasks, 3.93; 5.93 while an attempt was three events,
/// queued, dispatched and finished).
const SERVE_EVENTS_PER_TASK: f64 = 4.9;
/// Reallocations of [`BIG`] blocks allowed in that serving run
/// (measured: 0 since the pool's slot table spans only the live regions
/// and the trace records a task's start once; 2 before — the trace sized
/// once after the first epoch, and the slot table, which a wave's
/// reservation grew by doubling, once; 5 while the trace doubled its way
/// up and the report's reservation fell short).
const SERVE_BIG_REALLOCS: u64 = 2;
/// Report bytes per task in that serving run: the task records plus
/// the run's placement and access-statistics lists (measured: 84.1 —
/// 72-byte records, 0.76 placements of 16 bytes a task and no access
/// entry, the templates' tasks only computing; 184 while each record
/// held an 80-byte `AccessStats` and room for three placements inline).
const SERVE_REPORT_BYTES_PER_TASK: f64 = 90.0;

/// `layers` x `width` tasks, every non-source task fed by two tasks of
/// the layer before, each with a 4 KiB output.
fn layered_job(j: usize, layers: usize, width: usize) -> JobSpec {
    let mut job = JobBuilder::new(format!("dag{j}"));
    let mut prev: Vec<TaskId> = Vec::new();
    for l in 0..layers {
        let cur: Vec<TaskId> = (0..width)
            .map(|i| {
                job.task(
                    TaskSpec::new(format!("t{l}_{i}"))
                        .work(WorkClass::Scalar, 10_000 + (7 * i + l) as u64 % 2_000)
                        .output_bytes(4096)
                        .body(|ctx| {
                            ctx.compute(WorkClass::Scalar, 10_000);
                            Ok(())
                        }),
                )
            })
            .collect();
        if l > 0 {
            for (i, &t) in cur.iter().enumerate() {
                job.edge(prev[i % width], t);
                job.edge(prev[(i + 1) % width], t);
            }
        }
        prev = cur;
    }
    job.build().expect("layered DAG is valid")
}

/// A two-step lookup and a 1 -> 2 -> 1 fan-out with KiB outputs.
fn templates() -> ServeLayer {
    fn cpu(name: &str, elems: u64) -> TaskSpec {
        TaskSpec::new(name)
            .work(WorkClass::Scalar, elems)
            .require(ComputeKind::Cpu)
            .body(move |ctx| {
                ctx.compute(WorkClass::Scalar, elems);
                Ok(())
            })
    }
    let mut layer = ServeLayer::new();
    layer.register("lookup", |req: &Request| {
        let mut j = JobBuilder::new("lookup");
        let a = j.task(cpu("probe", 2_000 + req.seed % 400).output_bytes(1 << 10));
        let b = j.task(cpu("reply", 1_000));
        j.edge(a, b);
        j.build().expect("lookup template")
    });
    layer.register("fanout", |req: &Request| {
        let mut j = JobBuilder::new("fanout");
        let split = j.task(cpu("split", 2_000 + req.seed % 400).output_bytes(4 << 10));
        let join = j.task(cpu("join", 1_000).output_bytes(1 << 10));
        for name in ["part0", "part1"] {
            let part = j.task(cpu(name, 2_000).output_bytes(2 << 10));
            j.edge(split, part);
            j.edge(part, join);
        }
        j.build().expect("fanout template")
    });
    layer
}

#[test]
fn committing_a_task_stays_within_its_allocation_budget() {
    // Closed batch: 16 x 24 x 24 two-parent DAGs, built outside the count.
    let jobs: Vec<JobSpec> = (0..16).map(|j| layered_job(j, 24, 24)).collect();
    let (topo, _) = disaggregated_rack(4, 16, 4, 256);
    let mut rt = Runtime::new(topo, RuntimeConfig::default());
    let (report, calls, _) = calls_during(|| rt.execute(jobs).expect("batch runs"));
    let tasks = report.tasks.len();
    assert_eq!(tasks, 16 * 24 * 24);
    let per_task = calls as f64 / tasks as f64;
    eprintln!("batch: {calls} allocator calls, {per_task:.3} per task");
    assert!(
        per_task <= BATCH_CALLS_PER_TASK,
        "a batch of {tasks} tasks made {calls} allocator calls ({per_task:.2} per task, \
         budget {BATCH_CALLS_PER_TASK}): something on the commit path allocates per task again"
    );
    drop((rt, report));

    // Open-loop serving, traced, with quota, SLO and the control plane.
    let layer = templates();
    let cfg = ServeConfig {
        arrivals: ArrivalProcess::Poisson {
            mean_gap: SimDuration(100),
        },
        requests: 2_000,
        tenants: 6,
        zipf_theta: 1.0,
        seed: 7,
        quota: Some(1 << 20),
        slo: Some(Slo {
            p50: SimDuration(4_000),
            p99: SimDuration(40_000),
        }),
        control: Some(ControlPlane::default()),
    };
    let (topo, _) = disaggregated_rack(4, 8, 2, 32);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let (served, calls, big) = calls_during(|| layer.run(&mut rt, &cfg).expect("serving run"));
    let tasks = served.run.tasks.len();
    assert!(tasks >= 2_000, "most requests are admitted and run: {tasks} tasks");
    let (events, size) = (rt.trace().len(), std::mem::size_of::<TraceEvent>());
    let per_task = events as f64 / tasks as f64;
    eprintln!("serve: {events} trace events of {size} B, {per_task:.3} per task");
    assert_eq!(size, 48, "a trace event grew past 48 bytes");
    assert!(
        per_task <= SERVE_EVENTS_PER_TASK,
        "serving {tasks} tasks traced {events} events ({per_task:.2} per task, budget \
         {SERVE_EVENTS_PER_TASK}): a task attempt is recorded more than once again"
    );
    let per_task = calls as f64 / tasks as f64;
    let slots = served.run.tasks.capacity();
    eprintln!(
        "serve: {calls} allocator calls, {per_task:.3} per task; {big} reallocations of \
         blocks >= {BIG} B; {slots} task-report slots"
    );
    assert!(
        per_task <= SERVE_CALLS_PER_TASK,
        "serving {tasks} tasks made {calls} allocator calls ({per_task:.2} per task, \
         budget {SERVE_CALLS_PER_TASK})"
    );
    assert!(
        big <= SERVE_BIG_REALLOCS,
        "serving made {big} reallocations of blocks >= {BIG} B (budget {SERVE_BIG_REALLOCS}): \
         a run-wide buffer is doubling its way up again"
    );
    assert!(
        slots as f64 <= 1.5 * tasks as f64,
        "the run report holds {slots} task slots for {tasks} tasks: sized short, it doubled"
    );

    let run = &served.run;
    let record = std::mem::size_of::<TaskReport>();
    let bytes = tasks * record
        + run.placements.len() * std::mem::size_of::<disagg::report::Placed>()
        + run.access.len() * std::mem::size_of::<disagg::region::access::AccessStats>();
    let per_task = bytes as f64 / tasks as f64;
    eprintln!(
        "serve: {record}-byte task records, {} placements, {} access entries: {per_task:.1} \
         report bytes per task",
        run.placements.len(),
        run.access.len()
    );
    assert!(record <= 72, "a task record grew to {record} bytes, past 72");
    assert!(
        per_task <= SERVE_REPORT_BYTES_PER_TASK,
        "the run report holds {per_task:.1} bytes per task (budget \
         {SERVE_REPORT_BYTES_PER_TASK}): a per-task fact is inline again"
    );
}
