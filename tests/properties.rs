//! Randomized property tests over the core invariants.
//!
//! Inputs are generated with the in-repo deterministic [`SimRng`]
//! (seeded per case, so failures reproduce exactly) instead of an
//! external property-testing framework — the workspace must build and
//! test fully offline. Each property runs a quick number of cases by
//! default; build with `--features heavy-tests` for the deep sweep.

use disagg::ftol::reedsolomon::ReedSolomon;
use disagg::hwsim::compute::{ComputeKind, ComputeModel};
use disagg::hwsim::device::{MemDeviceKind, MemDeviceModel};
use disagg::hwsim::fault::FaultInjector;
use disagg::presets::single_server;
use disagg::hwsim::rng::SimRng;
use disagg::hwsim::time::SimTime;
use disagg::hwsim::topology::{LinkKind, Topology};
use disagg::region::pool::MemoryPool;
use disagg::region::props::{AccessMode, PropertySet};
use disagg::region::region::{OwnerId, RegionManager};
use disagg::region::typed::RegionType;
use disagg::sched::placement::{PlacementEngine, PlacementPolicy};

/// Base seed for every property; change to shake out new cases.
const MASTER_SEED: u64 = 0xD15A_66ED;

/// Number of cases to run: the quick default keeps `cargo test -q`
/// snappy; `--features heavy-tests` restores proptest-scale sweeps.
fn cases(quick: u64, heavy: u64) -> u64 {
    if cfg!(feature = "heavy-tests") {
        heavy
    } else {
        quick
    }
}

/// Runs `body` once per case with a per-case rng; panics carry the
/// case seed so any failure is replayable.
fn for_cases(name: &str, quick: u64, heavy: u64, mut body: impl FnMut(&mut SimRng)) {
    let mut master = SimRng::new(MASTER_SEED);
    for case in 0..cases(quick, heavy) {
        let mut rng = master.fork(case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            eprintln!("property {name} failed at case {case} (master seed {MASTER_SEED:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

fn random_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn small_pool(cap: u64) -> (MemoryPool, disagg::hwsim::ids::MemDeviceId) {
    let mut b = Topology::builder();
    let n = b.node("host");
    let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
    let dram = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, cap));
    b.link(cpu, dram, LinkKind::MemBus);
    let topo = b.build().unwrap();
    (MemoryPool::new(&topo), dram)
}

/// The allocator never double-allocates, never exceeds capacity, and
/// freeing everything restores the full arena.
#[test]
fn allocator_conserves_capacity() {
    for_cases("allocator_conserves_capacity", 16, 64, |rng| {
        let n_ops = rng.range(1, 60) as usize;
        let cap = 1 << 20;
        let (mut pool, dev) = small_pool(cap);
        let mut live: Vec<(disagg::region::RegionId, u64, u64)> = Vec::new();
        for _ in 0..n_ops {
            let size = rng.range(1, 4096);
            let free_one = rng.chance(0.5);
            if free_one && !live.is_empty() {
                let (id, _, _) = live.swap_remove(0);
                pool.free(id).unwrap();
            } else if let Ok(id) = pool.alloc(dev, size) {
                let p = pool.placement(id).unwrap();
                // No overlap with any live allocation.
                for &(_, off, len) in &live {
                    assert!(
                        p.offset + p.size <= off || off + len <= p.offset,
                        "overlap: [{}, {}) vs [{}, {})",
                        p.offset,
                        p.offset + p.size,
                        off,
                        off + len
                    );
                }
                live.push((id, p.offset, p.size));
            }
            let total: u64 = live.iter().map(|&(_, _, l)| l).sum();
            assert_eq!(pool.allocated(dev), total);
            assert!(total <= cap);
        }
        for (id, _, _) in live {
            pool.free(id).unwrap();
        }
        assert_eq!(pool.allocated(dev), 0);
        assert_eq!(pool.fragmentation(dev), 0.0);
    });
}

/// Reed-Solomon reconstructs any erasure set of size ≤ m, for random
/// data, shard geometry, and erased positions.
#[test]
fn reed_solomon_recovers_any_m_erasures() {
    for_cases("reed_solomon_recovers_any_m_erasures", 16, 64, |rng| {
        let k = rng.range(2, 8) as usize;
        let m = rng.range(1, 4) as usize;
        let len = rng.range(1, 200) as usize;
        let rs = ReedSolomon::new(k, m).unwrap();
        let data: Vec<Vec<u8>> = (0..k).map(|_| random_bytes(rng, len)).collect();
        let parity = rs.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();

        // Erase m distinct random positions.
        let mut positions: Vec<usize> = (0..k + m).collect();
        rng.shuffle(&mut positions);
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        for &p in positions.iter().take(m) {
            shards[p] = None;
        }
        rs.reconstruct(&mut shards).unwrap();
        for i in 0..k + m {
            assert_eq!(shards[i].as_ref().unwrap(), &full[i], "shard {}", i);
        }
    });
}

/// Ownership transfer chains preserve contents exactly, and only the
/// final owner can read.
#[test]
fn transfer_chains_preserve_contents() {
    for_cases("transfer_chains_preserve_contents", 16, 64, |rng| {
        let hops = rng.range(1, 8);
        let payload_len = rng.range(1, 256) as usize;
        let payload = random_bytes(rng, payload_len);
        let (topo, ids) = single_server();
        let mut mgr = RegionManager::new(&topo);
        let first = OwnerId::Task { job: 0, task: 0 };
        let r = mgr
            .alloc(
                ids.dram,
                payload.len() as u64,
                RegionType::Output,
                PropertySet::new(),
                first,
                SimTime::ZERO,
            )
            .unwrap();
        mgr.write(r, first, 0, &payload).unwrap();
        let mut owner = first;
        for h in 1..=hops {
            let next = OwnerId::Task { job: 0, task: h };
            mgr.transfer(r, owner, next).unwrap();
            owner = next;
        }
        let mut buf = vec![0u8; payload.len()];
        mgr.read(r, owner, 0, &mut buf).unwrap();
        assert_eq!(buf, payload);
        let mut buf2 = vec![0u8; 1];
        assert!(mgr.read(r, first, 0, &mut buf2).is_err());
    });
}

/// The placement engine never violates hard properties, whatever the
/// requested combination.
#[test]
fn placement_respects_hard_properties() {
    for_cases("placement_respects_hard_properties", 16, 64, |rng| {
        let persistent = rng.chance(0.5);
        let coherent = rng.chance(0.5);
        let asynchronous = rng.chance(0.5);
        let size = rng.range(1, 1 << 30);
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
        let props = PropertySet::new()
            .persistent(persistent)
            .coherent(coherent)
            .with_mode(if asynchronous { AccessMode::Async } else { AccessMode::Sync });
        let calm = FaultInjector::none();
        let picked = engine.choose(&topo, &pool, &calm, ids.cpu, &props, size, SimTime::ZERO);
        if let Some(dev) = picked {
            let model = topo.mem(dev);
            assert!(!persistent || model.persistent);
            assert!(!coherent || model.coherent);
            assert!(asynchronous || model.sync.allows_sync());
            let free = pool.capacity(dev) - pool.allocated(dev);
            assert!(free >= size);
        }
    });
}

/// Random DAGs always schedule with precedence respected.
#[test]
fn random_dags_schedule_with_precedence() {
    for_cases("random_dags_schedule_with_precedence", 16, 64, |rng| {
        use disagg::prelude::{JobId, WorkClass};
        use disagg::dataflow::{JobBuilder, TaskSpec};
        use disagg::sched::schedule::{SchedPolicy, Scheduler};

        let n = rng.range(2, 20) as usize;
        let density = rng.next_f64() * 0.9;
        let mut job = JobBuilder::new("random");
        let ids: Vec<_> = (0..n)
            .map(|i| {
                job.task(
                    TaskSpec::new(format!("t{i}"))
                        .work(WorkClass::Scalar, 1 + rng.next_below(1_000_000))
                        .output_bytes(rng.next_below(1 << 20)),
                )
            })
            .collect();
        // Forward edges only → guaranteed acyclic.
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.next_f64() < density {
                    job.edge(ids[i], ids[j]);
                }
            }
        }
        let spec = job.build().unwrap();
        let (topo, _) = single_server();
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        for &id in &ids {
            for &s in spec.dag.successors(id) {
                let a = sched.entry(JobId(0), id).unwrap();
                let b = sched.entry(JobId(0), s).unwrap();
                assert!(
                    a.est_finish <= b.est_start,
                    "task {} must finish before {} starts",
                    id,
                    s
                );
            }
        }
    });
}

/// Topology access costs are monotone in size and never negative.
#[test]
fn access_costs_are_monotone_in_size() {
    for_cases("access_costs_are_monotone_in_size", 16, 64, |rng| {
        use disagg::hwsim::device::{AccessOp, AccessPattern};
        let small = rng.range(1, 1 << 16);
        let factor = rng.range(2, 16);
        let (topo, h) = single_server();
        for dev in [h.dram, h.cxl, h.far, h.ssd] {
            let a = topo
                .access_cost(h.cpu, dev, small, AccessOp::Read, AccessPattern::Sequential)
                .unwrap();
            let b = topo
                .access_cost(
                    h.cpu,
                    dev,
                    small * factor,
                    AccessOp::Read,
                    AccessPattern::Sequential,
                )
                .unwrap();
            assert!(b >= a, "{dev:?}: {b:?} < {a:?} for larger size");
        }
    });
}

/// The contention ledger is monotone: a reservation never finishes
/// before it starts.
#[test]
fn ledger_is_monotone() {
    for_cases("ledger_is_monotone", 16, 64, |rng| {
        use disagg::hwsim::contention::{BandwidthLedger, ResourceKey};
        use disagg::hwsim::ids::MemDeviceId;
        let n = rng.range(1, 40) as usize;
        let mut reservations: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.next_below(100_000), rng.range(1, 100_000)))
            .collect();
        reservations.sort();
        let mut ledger = BandwidthLedger::new(1_000);
        let key = ResourceKey::Mem(MemDeviceId(0));
        for (start, bytes) in reservations {
            let fin = ledger.reserve(key, SimTime(start), bytes as f64, 10.0);
            assert!(fin >= SimTime(start));
        }
    });
}

/// Region reads after writes round-trip at any offset (dense and
/// sparse backings).
#[test]
fn region_rw_round_trips() {
    for_cases("region_rw_round_trips", 8, 64, |rng| {
        let region_mib = rng.range(1, 129);
        let offset_frac = rng.next_f64() * 0.95;
        let payload_len = rng.range(1, 512) as usize;
        let payload = random_bytes(rng, payload_len);
        let (topo, ids) = single_server();
        let mut mgr = RegionManager::new(&topo);
        let size = region_mib << 20; // Crosses the 64 MiB dense/sparse divide.
        let r = mgr
            .alloc(
                ids.cxl,
                size,
                RegionType::GlobalScratch,
                PropertySet::new(),
                OwnerId::App,
                SimTime::ZERO,
            )
            .unwrap();
        let offset = ((size - payload.len() as u64) as f64 * offset_frac) as u64;
        mgr.write(r, OwnerId::App, offset, &payload).unwrap();
        let mut buf = vec![0u8; payload.len()];
        mgr.read(r, OwnerId::App, offset, &mut buf).unwrap();
        assert_eq!(buf, payload);
    });
}

/// A tiering pass moves a region only where the placement engine would
/// put it, whatever the hotness, the declared latency classes and the
/// faults: every target meets the region's properties as seen from the
/// vantage compute (`PropertySet::unmet` is empty), and is usable from it
/// at the pass's time.
#[test]
fn tiering_never_violates_properties() {
    for_cases("tiering_never_violates_properties", 12, 32, |rng| {
        use disagg::hwsim::contention::BandwidthLedger;
        use disagg::hwsim::fault::{FaultEvent, FaultKind, Target};
        use disagg::hwsim::trace::Trace;
        use disagg::region::props::LatencyClass;
        use disagg::sched::TieringPolicy;
        const LAT: [LatencyClass; 4] =
            [LatencyClass::Low, LatencyClass::Medium, LatencyClass::High, LatencyClass::Any];

        let n_regions = rng.range(4, 20) as usize;
        let (topo, ids) = single_server();
        let mut mgr = RegionManager::new(&topo);
        let homes = [ids.dram, ids.pmem, ids.cxl, ids.far, ids.ssd];
        for i in 0..n_regions {
            let heat = rng.next_below(60) as u32;
            // Mix persistent and volatile, sync and async regions, and
            // every latency class.
            let persistent = i % 3 == 0;
            let asynchronous = i % 2 == 0;
            let props = PropertySet::new()
                .persistent(persistent)
                .with_mode(if asynchronous { AccessMode::Async } else { AccessMode::Sync })
                .with_latency(*rng.pick(&LAT));
            let home = if persistent {
                if asynchronous { ids.ssd } else { ids.pmem }
            } else {
                homes[rng.next_below(4) as usize]
            };
            let r = mgr
                .alloc(home, 4096, RegionType::GlobalScratch, props, OwnerId::App, SimTime::ZERO)
                .unwrap();
            for _ in 0..heat {
                mgr.hotness_mut().record(r, 64, SimTime(1));
            }
        }
        // A few decay ticks turn the lightly touched regions cold.
        for _ in 0..rng.next_below(4) {
            mgr.hotness_mut().decay();
        }
        // Sometimes a device has failed or a node has crashed.
        let kind = match rng.next_below(3) {
            0 => None,
            1 => Some(FaultKind::DeviceFail(*rng.pick(&homes))),
            _ => Some(FaultKind::NodeCrash(topo.node_of_mem(*rng.pick(&[ids.dram, ids.far])))),
        };
        let faults = FaultInjector::with_events(
            kind.into_iter().map(|kind| FaultEvent { at: SimTime::ZERO, kind }).collect(),
        );
        let now = SimTime(10);
        let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::disabled();
        let policy = TieringPolicy::by_latency(&topo);
        let (moved, _) = policy.apply(
            &mut engine, &mut mgr, &topo, &mut ledger, &mut trace, &faults, ids.cpu, now,
        );
        for (id, target, _) in moved {
            let props = &mgr.meta(id).unwrap().props;
            let unmet: Vec<_> =
                props.unmet(topo.mem(target), topo.path(ids.cpu, target)).collect();
            assert!(unmet.is_empty(), "region moved onto {target:?}, which misses {unmet:?}");
            let seen = Target::Mem { dev: target, from: Some(ids.cpu) };
            assert!(faults.usable(&topo, seen, now), "region moved onto unusable {target:?}");
        }
    });
}

/// A batch admitted at once runs every job exactly once and leaves
/// nothing resident, whatever the demand mix.
#[test]
fn admission_runs_every_job_once() {
    for_cases("admission_runs_every_job_once", 12, 32, |rng| {
        use disagg::prelude::*;
        let n_jobs = rng.range(1, 8) as usize;
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let jobs: Vec<JobSpec> = (0..n_jobs)
            .map(|i| {
                let d = rng.range(1, 3 << 30);
                let mut j = JobBuilder::new(format!("j{i}"));
                j.task(TaskSpec::new("t").private_scratch(d).body(|ctx| {
                    ctx.scratch_write(0, &[1u8; 16])?;
                    Ok(())
                }));
                j.build().unwrap()
            })
            .collect();
        let report = rt.execute(jobs).unwrap();
        assert_eq!(report.tasks.len(), n_jobs);
        assert_eq!(rt.manager().live_count(), 0);
    });
}

/// A random job of one to seven tasks with random forward edges; each
/// task draws its scratch, output, confidentiality, persistence and
/// compute kind. Returns it with its number of persistent sinks.
fn random_job(rng: &mut SimRng) -> (disagg::prelude::JobSpec, usize) {
    use disagg::prelude::*;
    use disagg::hwsim::compute::{ComputeKind, WorkClass};

    let n_tasks = rng.range(1, 8) as usize;
    let density = rng.next_f64() * 0.8;
    let mut job = JobBuilder::new("fuzz");
    let mut ids = Vec::new();
    for i in 0..n_tasks {
        let mut spec = TaskSpec::new(format!("t{i}"))
            .work(WorkClass::Scalar, rng.next_below(1_000_000))
            .body(|ctx| {
                if ctx.regions.output.is_some() {
                    ctx.write_output(0, &[1u8; 16])?;
                }
                if ctx.regions.private_scratch.is_some() {
                    ctx.scratch_write(0, &[2u8; 8])?;
                }
                Ok(())
            });
        if rng.chance(0.5) {
            spec = spec.private_scratch(64 + rng.next_below(1 << 20));
        }
        if rng.chance(0.7) {
            spec = spec.output_bytes(64 + rng.next_below(1 << 20));
        }
        if rng.chance(0.3) {
            spec = spec.confidential(true);
        }
        let persistent = rng.chance(0.3);
        if persistent {
            spec = spec.persistent(true);
        }
        if rng.chance(0.3) {
            spec = spec.on(if rng.chance(0.5) { ComputeKind::Gpu } else { ComputeKind::Cpu });
        }
        ids.push((job.task(spec), persistent));
    }
    let mut has_successor = vec![false; n_tasks];
    for i in 0..n_tasks {
        for j in (i + 1)..n_tasks {
            if rng.next_f64() < density {
                job.edge(ids[i].0, ids[j].0);
                has_successor[i] = true;
            }
        }
    }
    // Persistent outputs that reach a successor are consumed, not
    // retained; only terminal persistent outputs survive.
    let persistent_sinks =
        ids.iter().zip(&has_successor).filter(|&(&(_, p), &succ)| p && !succ).count();
    (job.build().unwrap(), persistent_sinks)
}

/// The executor never panics on random jobs: it either runs them or
/// returns a structured error; afterwards only persistent outputs may
/// survive in the pool.
#[test]
fn executor_is_total_over_random_jobs() {
    for_cases("executor_is_total_over_random_jobs", 12, 24, |rng| {
        use disagg::prelude::*;

        let (spec, persistent_sinks) = random_job(rng);
        let n_tasks = spec.tasks.len();
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        match rt.execute(spec) {
            Ok(report) => {
                assert_eq!(report.tasks.len(), n_tasks);
                // Persistent sinks with outputs survive; nothing else.
                assert!(rt.manager().live_count() <= persistent_sinks);
            }
            Err(e) => {
                // Structured failure is acceptable (e.g. a task with a
                // persistent+odd property mix); a panic is not.
                let _ = e.to_string();
            }
        }
    });
}

/// Metamorphic: failing a memory device that the fault-free run never
/// allocates on changes nothing. Placement skips the failed device, but
/// it was never the pick, and no attempt's regions sit on it, so nothing
/// is interrupted: makespan, bytes moved and every task's device, times
/// and placements equal the fault-free run's.
#[test]
fn failing_an_unused_device_changes_nothing() {
    let mut exercised = 0u64;
    for_cases("failing_an_unused_device_changes_nothing", 16, 64, |rng| {
        use disagg::prelude::*;
        use disagg::hwsim::trace::TraceEvent;
        use disagg::presets::disaggregated_rack;

        let on_rack = rng.chance(0.5);
        let topo = || if on_rack { disaggregated_rack(2, 16, 2, 64).0 } else { single_server().0 };
        // The same job twice, from one draw.
        let mut job_rng = rng.clone();
        let (spec, _) = random_job(rng);
        let mut calm_rt = Runtime::new(topo(), RuntimeConfig::traced());
        let Ok(calm) = calm_rt.execute(spec) else {
            return;
        };
        let mut used: Vec<_> = calm_rt
            .trace()
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Alloc { dev, .. } => Some(dev),
                _ => None,
            })
            .collect();
        used.sort_unstable();
        used.dedup();
        let unused: Vec<_> = topo().mem_ids().filter(|d| used.binary_search(d).is_err()).collect();
        if unused.is_empty() {
            return;
        }
        let dev = *rng.pick(&unused);
        let at = SimTime(rng.next_below(calm.makespan.as_nanos().max(1)));
        let fail = FaultEvent { at, kind: FaultKind::DeviceFail(dev) };
        let faults = FaultInjector::with_events(vec![fail]);
        let mut rt = Runtime::new(topo(), RuntimeConfig::traced().with_faults(faults));
        let (spec, _) = random_job(&mut job_rng);
        let report = rt.execute(spec).expect("the calm run succeeded");
        assert_eq!(report.makespan, calm.makespan, "{dev:?} failed at {at:?}");
        assert_eq!(report.bytes_moved, calm.bytes_moved);
        let tasks = |r: &RunReport| -> Vec<_> {
            r.tasks
                .iter()
                .map(|t| (t.job, t.task, t.compute, t.start, t.finish, r.placements_of(t).to_vec()))
                .collect()
        };
        assert_eq!(tasks(&report), tasks(&calm), "{dev:?} failed at {at:?}");
        exercised += 1;
    });
    assert!(exercised >= cases(8, 32), "only {exercised} cases failed an unused device");
}

/// Shortest-path resolution over random topologies is symmetric
/// (undirected links) and obeys the triangle inequality on latency.
#[test]
fn topology_paths_are_symmetric_and_triangular() {
    for_cases("topology_paths_are_symmetric_and_triangular", 16, 48, |rng| {
        use disagg::hwsim::compute::{ComputeKind, ComputeModel};
        use disagg::hwsim::device::{MemDeviceKind, MemDeviceModel};
        use disagg::hwsim::topology::{LinkKind, Topology};

        let n_mem = rng.range(2, 7) as usize;
        let extra_links = rng.next_below(8) as usize;
        let mut b = Topology::builder();
        let node = b.node("host");
        let cpu = b.compute(node, ComputeModel::preset(ComputeKind::Cpu));
        let kinds = [
            MemDeviceKind::Dram,
            MemDeviceKind::CxlDram,
            MemDeviceKind::Pmem,
            MemDeviceKind::Hbm,
        ];
        let mems: Vec<_> = (0..n_mem)
            .map(|i| b.mem(node, MemDeviceModel::preset(kinds[i % kinds.len()])))
            .collect();
        // A spanning chain guarantees connectivity; extra random links
        // create alternative routes.
        b.link(cpu, mems[0], LinkKind::MemBus);
        for w in mems.windows(2) {
            b.link(w[0], w[1], LinkKind::PcieCxl);
        }
        for _ in 0..extra_links {
            let a = mems[rng.next_below(n_mem as u64) as usize];
            let c = mems[rng.next_below(n_mem as u64) as usize];
            if a != c {
                b.link_custom(
                    a,
                    c,
                    LinkKind::Numa,
                    10.0 + rng.next_f64() * 500.0,
                    1.0 + rng.next_f64() * 100.0,
                );
            }
        }
        let topo = b.build().unwrap();

        for &a in &mems {
            for &c in &mems {
                let ab = topo.mem_path(a, c).expect("connected");
                let ba = topo.mem_path(c, a).expect("connected");
                assert!(
                    (ab.latency_ns - ba.latency_ns).abs() < 1e-9,
                    "asymmetric latency {a:?}→{c:?}: {} vs {}",
                    ab.latency_ns,
                    ba.latency_ns
                );
                for &via in &mems {
                    let av = topo.mem_path(a, via).expect("connected");
                    let vc = topo.mem_path(via, c).expect("connected");
                    assert!(
                        ab.latency_ns <= av.latency_ns + vc.latency_ns + 1e-9,
                        "triangle violated: {a:?}→{c:?} {} > via {via:?} {}",
                        ab.latency_ns,
                        av.latency_ns + vc.latency_ns
                    );
                }
            }
        }
    });
}
