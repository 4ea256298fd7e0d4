//! The runtime: placement + scheduling + execution of dataflow jobs.
//!
//! [`Runtime::execute`] is where the paper's vision comes together. For each
//! submitted batch of jobs it:
//!
//! 1. plans a schedule (HEFT by default) mapping tasks to compute devices;
//! 2. allocates every declared Memory Region by *properties* — private
//!    scratch near the executing device, outputs placed so that all
//!    consumers can address them, job-wide global state on coherent
//!    memory;
//! 3. executes task bodies against the virtual clock out of order, via
//!    the discrete-event executor in [`crate::executor`]: per-device
//!    ready queues, dependency-counting dispatch, compute overlapped
//!    with region transfers;
//! 4. hands outputs to successors — as a pure ownership transfer whenever
//!    the consumer's device can address the memory, as a physical copy
//!    otherwise;
//! 5. releases each region when its last owner finishes (the lifetime
//!    rule of §2.3), audits every placement against its declared
//!    properties, and reports utilization, movement, and makespan.

use disagg_hwsim::fx::FxHashMap;

use disagg_dataflow::job::JobId;
use disagg_hwsim::calibration;
use disagg_hwsim::contention::{BandwidthLedger, ResourceKey};
use disagg_hwsim::device::{AccessOp, AccessPattern};
use disagg_hwsim::fault::Target;
use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::{AccessCostParts, PathCost, Topology};
use disagg_hwsim::trace::{RebuildFor, Trace, TraceEvent};
use disagg_region::access::book_access;
use disagg_region::pool::RegionId;
use disagg_region::region::{OwnerId, RegionManager};
use disagg_sched::placement::PlacementEngine;
use disagg_sched::TieringPolicy;

use crate::breaker::{BreakerBank, BreakerTransition};
use crate::config::RuntimeConfig;
use crate::report::{DeviceSummary, RunReport};
use crate::submission::Submission;

pub use crate::error::{DisaggError, RuntimeError};

/// The runtime system: owns the topology, the memory pool, and all the
/// RTS machinery; executes submitted jobs.
pub struct Runtime {
    pub(crate) topo: Topology,
    pub(crate) config: RuntimeConfig,
    pub(crate) mgr: RegionManager,
    pub(crate) ledger: BandwidthLedger,
    pub(crate) trace: Trace,
    pub(crate) engine: PlacementEngine,
    /// Application-scope named regions published across jobs.
    pub(crate) app_published: FxHashMap<String, RegionId>,
    /// Per-node circuit breakers — `Some` once
    /// [`Runtime::enable_fault_control`] ran. Mutated exclusively from
    /// the executor's commit path.
    pub(crate) breakers: Option<BreakerBank>,
    pub(crate) next_job: u64,
    pub(crate) clock: SimTime,
}

impl Runtime {
    /// Creates a runtime over a topology.
    pub fn new(topo: Topology, config: RuntimeConfig) -> Self {
        let engine = PlacementEngine::with_awareness(config.placement, config.awareness);
        let trace = if config.trace {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        Runtime {
            mgr: RegionManager::new(&topo),
            ledger: BandwidthLedger::default_buckets(),
            trace,
            engine,
            app_published: FxHashMap::default(),
            breakers: None,
            next_job: 0,
            clock: SimTime::ZERO,
            topo,
            config,
        }
    }

    /// The hardware topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The region manager (for inspection by tests and experiments).
    pub fn manager(&self) -> &RegionManager {
        &self.mgr
    }

    /// Mutable region-manager access (for experiments composing with the
    /// fault-tolerance layer).
    pub fn manager_mut(&mut self) -> &mut RegionManager {
        &mut self.mgr
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Every memory device's usage so far, in id order: its peak
    /// allocation and the bytes the ledger booked through it, over the
    /// runtime's whole life — cumulative, unlike a run's report.
    pub fn devices(&self) -> Vec<DeviceSummary> {
        let pool = self.mgr.pool();
        self.topo
            .mem_ids()
            .map(|dev| DeviceSummary {
                dev,
                peak_bytes: pool.peak(dev),
                capacity: pool.capacity(dev),
                bytes_transferred: self.ledger.bytes(ResourceKey::Mem(dev)).round() as u64,
            })
            .collect()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The id the next submitted job will receive: ids are handed out
    /// sequentially in submission order, so job `i` of the next
    /// [`execute`](Self::execute) is `JobId(next_job_id().0 + i)`.
    pub fn next_job_id(&self) -> JobId {
        JobId(self.next_job)
    }

    /// Pushes an externally produced event into the runtime's trace —
    /// the serving layer uses this to annotate shed and degraded
    /// requests, so the trace records them in order among the run's
    /// own events.
    pub fn annotate(&mut self, e: TraceEvent) {
        self.trace.push(e);
    }

    /// Makes room in the trace for `events` more events at once — a
    /// capacity hint for a caller that knows how big its next runs are
    /// (the serving loop, after its first epoch). A no-op when the
    /// runtime does not trace.
    pub fn reserve_trace(&mut self, events: usize) {
        self.trace.reserve(events);
    }

    /// Turns on the runtime half of the fault-control plane, for good:
    /// per-node circuit breakers (their settings are constants in
    /// [`crate::breaker`]) that take a node that keeps faulting out of
    /// the candidate ranking. A serving run with `ServeConfig::control`
    /// set calls this; without it a runtime executes the same code path
    /// as ever. Failure isolation is not part of the switch: a
    /// request-tagged job whose task exhausts [`RuntimeConfig::recovery`]'s
    /// retries always fails *alone* ([`RunReport::failed_jobs`]) while
    /// the wave continues.
    pub fn enable_fault_control(&mut self) {
        self.breakers.get_or_insert_with(BreakerBank::default);
    }

    /// Every circuit-breaker transition so far, in commit order (empty
    /// when breakers are not configured).
    pub fn breaker_transitions(&self) -> &[BreakerTransition] {
        self.breakers.as_ref().map(|b| b.transitions()).unwrap_or(&[])
    }

    /// Nodes whose breakers are currently Open or HalfOpen, sorted.
    pub fn unhealthy_nodes(&self) -> Vec<disagg_hwsim::ids::NodeId> {
        self.breakers.as_ref().map(|b| b.unhealthy()).unwrap_or_default()
    }

    /// Runs one hotness-driven tiering pass over the surviving regions
    /// (the RTS "optimize the placement of memory regions" duty,
    /// Challenges 1-3), [`TieringPolicy::apply`] from the vantage compute,
    /// and advances the clock by the pass. Returns what moved.
    pub fn run_tiering(
        &mut self,
        policy: &TieringPolicy,
    ) -> Vec<(RegionId, MemDeviceId, SimDuration)> {
        let Some(vantage) = self.vantage() else {
            return Vec::new();
        };
        let (moved, took) = policy.apply(
            &mut self.engine, &mut self.mgr, &self.topo, &mut self.ledger, &mut self.trace,
            &self.config.faults, vantage, self.clock,
        );
        self.clock += took;
        moved
    }

    /// The compute the runtime places from when no task is asking — the
    /// heal and tiering: the first compute device.
    fn vantage(&self) -> Option<ComputeId> {
        self.topo.compute_ids().next()
    }

    /// Executes a [`Submission`] — the one entry point for every
    /// submission shape.
    ///
    /// A closed batch runs at the current virtual time; with arrival
    /// offsets attached, each job's tasks may not start before its
    /// offset — an open stream of submissions rather than a closed
    /// batch. Every job is admitted at once: a batch whose regions do
    /// not fit fails placement ([`DisaggError::Placement`]).
    pub fn execute(&mut self, sub: impl Into<Submission>) -> Result<RunReport, RuntimeError> {
        let Submission { jobs, offsets, tags } = sub.into();
        let n = jobs.len();
        let attached = [offsets.as_ref().map(Vec::len), tags.as_ref().map(Vec::len)];
        if let Some(len) = attached.into_iter().flatten().find(|&len| len != n) {
            return Err(DisaggError::Submission { jobs: n, offsets: len });
        }
        let offsets = offsets.unwrap_or_else(|| vec![SimDuration::ZERO; n]);
        let tags: Vec<Option<(u64, u64, SimDuration)>> = match tags {
            Some(t) => t.into_iter().map(Some).collect(),
            None => vec![None; n],
        };
        let report = crate::executor::run_wave(self, jobs, offsets, tags)?;
        // Online reconstruction: heal persistent regions whose device
        // died during the run (a no-op without scheduled faults).
        self.heal_failed_persistent()?;
        Ok(report)
    }

    /// Online reconstruction after device loss (Challenge 8(3)): every
    /// App-scoped region whose device is unusable (failed, or its node
    /// down) at the current virtual time is rebuilt onto a usable device
    /// in another failure domain. The pool rebinds the region id in place,
    /// the destination pays a device-local sequential write of the region,
    /// booked like any access, plus the host decode toll, and a
    /// [`TraceEvent::Reconstruct`] records the repair. In the simulation
    /// the manager still holds the bytes, which stands in for restoring
    /// from a surviving replica or erasure-coded stripe. Regions with no
    /// reachable failure domain left are skipped (still lost). Returns
    /// `(region, new device)` for everything healed.
    pub fn heal_failed_persistent(
        &mut self,
    ) -> Result<Vec<(RegionId, MemDeviceId)>, RuntimeError> {
        if self.config.faults.is_empty() {
            return Ok(Vec::new());
        }
        let now = self.clock;
        let Some(vantage) = self.vantage() else {
            return Ok(Vec::new());
        };
        let topo = &self.topo;
        let mut healed = Vec::new();
        let mut longest = SimDuration::ZERO;
        for id in self.mgr.owned_by(OwnerId::App) {
            if !self.mgr.is_live(id) {
                continue;
            }
            let placement = self.mgr.placement(id)?;
            let lost = Target::Mem { dev: placement.dev, from: None };
            if self.config.faults.usable(topo, lost, now) {
                continue;
            }
            let failed_node = topo.node_of_mem(placement.dev);
            let Some(dev) = self.engine.choose_where(
                topo,
                self.mgr.pool(),
                &self.config.faults,
                vantage,
                &self.mgr.meta(id)?.props,
                placement.size,
                now,
                |d| topo.node_of_mem(d) != failed_node,
            ) else {
                continue;
            };
            self.mgr.pool_mut().rebind(id, dev)?;
            let parts = AccessCostParts::of(
                topo.mem(dev),
                PathCost::LOCAL,
                placement.size,
                AccessOp::Write,
                AccessPattern::Sequential,
            );
            let (fin, _) = book_access(&mut self.ledger, None, dev, &parts, now);
            let per_byte = calibration::mechanisms().host_decode_ns_per_byte.value;
            let decode = SimDuration::from_nanos_f64(placement.size as f64 * per_byte);
            let took = (fin - now) + decode;
            self.trace.push(TraceEvent::Reconstruct {
                region: id.0,
                dev,
                bytes: placement.size,
                at: now,
                took,
                by: Box::new(RebuildFor::Nobody),
            });
            longest = longest.max(took);
            healed.push((id, dev));
        }
        // Rebuilds of distinct regions proceed in parallel; the pass
        // costs the longest one.
        self.clock += longest;
        Ok(healed)
    }
}
