//! The task context: what a task body sees at runtime.
//!
//! A [`TaskCtx`] exposes exactly the paper's memory vocabulary (Figure 4):
//! the task's `input` (handed over from the predecessor), its `output`
//! (to be handed to the successor), its `private_scratch`, and the job's
//! shared `global_state` and `global_scratch`. All of them are region
//! handles the runtime placed by properties — the body never sees a
//! device name.
//!
//! Ad-hoc allocations made inside the body go through the [`Placer`]
//! trait, which the runtime system implements; this keeps the *placement
//! policy* (and its audit) out of the programming model, as the paper
//! demands.

use disagg_hwsim::fx::FxHashMap;

use disagg_hwsim::compute::WorkClass;
use disagg_hwsim::device::AccessPattern;
use disagg_hwsim::time::SimDuration;
use disagg_region::access::Accessor;
use disagg_region::pool::RegionId;
use disagg_region::props::PropertySet;
use disagg_region::typed::RegionType;

use crate::task::TaskError;

/// Resolves a declarative memory request to a region on a physical
/// device. Implemented by the runtime system's placement optimizer; task
/// bodies stay device-agnostic.
pub trait Placer {
    /// Places a region of `size` bytes with `props` for the task behind
    /// `acc`, as seen from its compute device, and allocates it through
    /// [`Accessor::alloc`]. An error when no device qualifies.
    fn place(
        &mut self,
        acc: &mut Accessor<'_>,
        rtype: RegionType,
        props: PropertySet,
        size: u64,
    ) -> Result<RegionId, TaskError>;
}

/// The regions the runtime pre-allocated for a task. Handles only: the
/// input list is lent by the executor's wave arena, so handing the set
/// to a body — or to its retry — copies a few words.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskRegions<'a> {
    /// The predecessors' outputs, now owned by this task (one per
    /// incoming dataflow edge that carried a region, in hand-over
    /// order).
    pub inputs: &'a [RegionId],
    /// This task's output region.
    pub output: Option<RegionId>,
    /// Thread-local scratch.
    pub private_scratch: Option<RegionId>,
    /// Job-wide synchronization state.
    pub global_state: Option<RegionId>,
    /// This task's global-scratch region (if it requested one).
    pub global_scratch: Option<RegionId>,
}

/// The execution context passed to task bodies.
pub struct TaskCtx<'a, 'b> {
    /// The cost-charging gateway to memory and compute.
    pub acc: &'a mut Accessor<'b>,
    /// Pre-placed regions.
    pub regions: TaskRegions<'a>,
    placer: &'a mut dyn Placer,
    /// Named global-scratch publications, shared across the job
    /// (e.g. a bloom filter another operator can reuse).
    published: &'a mut FxHashMap<String, RegionId>,
    /// Application-wide publications: regions that outlive the job so
    /// *other jobs* can reuse them (a cached index, a transformed data
    /// set — the paper's "Global Scratch can pass data between tasks
    /// that are not connected", across job boundaries).
    app_published: &'a mut FxHashMap<String, RegionId>,
    /// High-water mark of output bytes written (for handover sizing).
    pub output_written: u64,
}

impl<'a, 'b> TaskCtx<'a, 'b> {
    /// Assembles a context (called by the executor, not by applications).
    pub fn new(
        acc: &'a mut Accessor<'b>,
        regions: TaskRegions<'a>,
        placer: &'a mut dyn Placer,
        published: &'a mut FxHashMap<String, RegionId>,
        app_published: &'a mut FxHashMap<String, RegionId>,
    ) -> Self {
        TaskCtx {
            acc,
            regions,
            placer,
            published,
            app_published,
            output_written: 0,
        }
    }

    fn require(r: Option<RegionId>, what: &str) -> Result<RegionId, TaskError> {
        r.ok_or_else(|| TaskError::new(format!("task has no {what} region")))
    }

    /// The (first) input region handle.
    pub fn input(&self) -> Result<RegionId, TaskError> {
        Self::require(self.regions.inputs.first().copied(), "input")
    }

    /// All input region handles (fan-in tasks have several).
    pub fn inputs(&self) -> &[RegionId] {
        self.regions.inputs
    }

    /// The output region handle.
    pub fn output(&self) -> Result<RegionId, TaskError> {
        Self::require(self.regions.output, "output")
    }

    /// The private-scratch region handle.
    pub fn private_scratch(&self) -> Result<RegionId, TaskError> {
        Self::require(self.regions.private_scratch, "private scratch")
    }

    /// The global-state region handle.
    pub fn global_state(&self) -> Result<RegionId, TaskError> {
        Self::require(self.regions.global_state, "global state")
    }

    /// The global-scratch region handle.
    pub fn global_scratch(&self) -> Result<RegionId, TaskError> {
        Self::require(self.regions.global_scratch, "global scratch")
    }

    /// Size of any region in bytes.
    pub fn region_len(&self, region: RegionId) -> u64 {
        self.acc
            .manager()
            .placement(region)
            .map_or(0, |p| p.size)
    }

    /// Streams `buf.len()` bytes of input at `offset`.
    pub fn read_input(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration, TaskError> {
        let r = self.input()?;
        Ok(self.acc.read(r, offset, buf, AccessPattern::Sequential)?)
    }

    /// Streams `data` into the output at `offset`.
    pub fn write_output(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration, TaskError> {
        let r = self.output()?;
        let took = self.acc.write(r, offset, data, AccessPattern::Sequential)?;
        self.output_written = self.output_written.max(offset + data.len() as u64);
        Ok(took)
    }

    /// Random-access read from private scratch.
    pub fn scratch_read(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration, TaskError> {
        let r = self.private_scratch()?;
        Ok(self.acc.read(r, offset, buf, AccessPattern::Random)?)
    }

    /// Random-access write to private scratch.
    pub fn scratch_write(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration, TaskError> {
        let r = self.private_scratch()?;
        Ok(self.acc.write(r, offset, data, AccessPattern::Random)?)
    }

    /// Synchronous random read from global state (latch/metadata access).
    pub fn state_read(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration, TaskError> {
        let r = self.global_state()?;
        Ok(self.acc.read(r, offset, buf, AccessPattern::Random)?)
    }

    /// Synchronous random write to global state.
    pub fn state_write(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration, TaskError> {
        let r = self.global_state()?;
        Ok(self.acc.write(r, offset, data, AccessPattern::Random)?)
    }

    /// Asynchronous streaming read from a (usually global-scratch) region.
    pub fn async_read(
        &mut self,
        region: RegionId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), TaskError> {
        Ok(self
            .acc
            .async_read(region, offset, buf, AccessPattern::Sequential)?)
    }

    /// Asynchronous streaming write to a region.
    pub fn async_write(
        &mut self,
        region: RegionId,
        offset: u64,
        data: &[u8],
    ) -> Result<(), TaskError> {
        Ok(self
            .acc
            .async_write(region, offset, data, AccessPattern::Sequential)?)
    }

    /// Registers compute overlapped with pending async operations.
    pub fn overlap_compute(&mut self, class: WorkClass, elems: u64) {
        self.acc.overlap_compute(class, elems);
    }

    /// Joins pending async operations; returns the unhidden stall time.
    pub fn wait_async(&mut self) -> SimDuration {
        self.acc.wait_async()
    }

    /// Charges pure compute.
    pub fn compute(&mut self, class: WorkClass, elems: u64) -> SimDuration {
        self.acc.compute_work(class, elems)
    }

    /// Allocates an additional region declaratively: the runtime picks the
    /// device from the properties, as seen from this task's compute device.
    pub fn alloc(
        &mut self,
        rtype: RegionType,
        props: PropertySet,
        size: u64,
    ) -> Result<RegionId, TaskError> {
        self.placer.place(self.acc, rtype, props, size)
    }

    /// Publishes a region under a name for other tasks of the job to
    /// reuse (the paper's bloom-filter / cached-index pattern).
    pub fn publish(&mut self, name: impl Into<String>, region: RegionId) {
        self.published.insert(name.into(), region);
    }

    /// Looks up a previously published region: job-scope publications
    /// first, then application-scope ones from earlier jobs.
    pub fn lookup(&self, name: &str) -> Option<RegionId> {
        self.published
            .get(name)
            .or_else(|| self.app_published.get(name))
            .copied()
    }

    /// Publishes a region at *application* scope: it outlives this job so
    /// later jobs can reuse it (the runtime re-owns it at task exit).
    pub fn publish_app(&mut self, name: impl Into<String>, region: RegionId) {
        self.app_published.insert(name.into(), region);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::contention::BandwidthLedger;
    use disagg_hwsim::ids::MemDeviceId;
    use disagg_hwsim::presets::single_server;
    use disagg_hwsim::time::SimTime;
    use disagg_hwsim::trace::{Trace, TraceEvent};
    use disagg_region::region::{OwnerId, RegionManager};

    struct FixedPlacer(MemDeviceId);
    impl Placer for FixedPlacer {
        fn place(
            &mut self,
            acc: &mut Accessor<'_>,
            rtype: RegionType,
            props: PropertySet,
            size: u64,
        ) -> Result<RegionId, TaskError> {
            Ok(acc.alloc(self.0, size, rtype, props)?)
        }
    }

    struct NoPlacer;
    impl Placer for NoPlacer {
        fn place(
            &mut self,
            _acc: &mut Accessor<'_>,
            _rtype: RegionType,
            _props: PropertySet,
            _size: u64,
        ) -> Result<RegionId, TaskError> {
            Err(TaskError::new("no device satisfies the requested properties"))
        }
    }

    const WHO: OwnerId = OwnerId::Task { job: 0, task: 0 };

    #[test]
    fn ctx_reads_and_writes_through_named_regions() {
        let (topo, ids) = single_server();
        let mut mgr = RegionManager::new(&topo);
        let input = mgr
            .alloc(ids.dram, 128, RegionType::Input, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap();
        mgr.write(input, WHO, 0, b"hello").unwrap();
        let output = mgr
            .alloc(ids.dram, 128, RegionType::Output, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap();
        let scratch = mgr
            .alloc(ids.dram, 64, RegionType::PrivateScratch, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap();

        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let mut acc = Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO);
        let mut placer = FixedPlacer(ids.dram);
        let mut published = FxHashMap::default();
        let mut app_published = FxHashMap::default();
        let inputs = [input];
        let mut ctx = TaskCtx::new(
            &mut acc,
            TaskRegions {
                inputs: &inputs,
                output: Some(output),
                private_scratch: Some(scratch),
                ..Default::default()
            },
            &mut placer,
            &mut published,
            &mut app_published,
        );

        let mut buf = [0u8; 5];
        ctx.read_input(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        ctx.write_output(0, b"world").unwrap();
        assert_eq!(ctx.output_written, 5);
        ctx.scratch_write(0, &[1, 2]).unwrap();
        let mut s = [0u8; 2];
        ctx.scratch_read(0, &mut s).unwrap();
        assert_eq!(s, [1, 2]);
    }

    #[test]
    fn missing_regions_give_descriptive_errors() {
        let (topo, ids) = single_server();
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let mut acc = Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO);
        let mut placer = NoPlacer;
        let mut published = FxHashMap::default();
        let mut app_published = FxHashMap::default();
        let mut ctx = TaskCtx::new(
            &mut acc,
            TaskRegions::default(),
            &mut placer,
            &mut published,
            &mut app_published,
        );
        let mut buf = [0u8; 1];
        let err = ctx.read_input(0, &mut buf).unwrap_err();
        assert!(err.msg.contains("input"));
        assert!(ctx.global_state().is_err());
    }

    #[test]
    fn alloc_goes_through_the_placer() {
        let (topo, ids) = single_server();
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let mut acc = Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO);
        let mut placer = FixedPlacer(ids.pmem);
        let mut published = FxHashMap::default();
        let mut app_published = FxHashMap::default();
        let mut ctx = TaskCtx::new(
            &mut acc,
            TaskRegions::default(),
            &mut placer,
            &mut published,
            &mut app_published,
        );
        let r = ctx
            .alloc(RegionType::GlobalScratch, PropertySet::new().persistent(true), 256)
            .unwrap();
        assert_eq!(mgr.placement(r).unwrap().dev, ids.pmem);
        assert_eq!(
            trace.events(),
            &[TraceEvent::Alloc { region: r.0, dev: ids.pmem, bytes: 256, at: SimTime::ZERO }]
        );
    }

    #[test]
    fn alloc_fails_cleanly_when_nothing_qualifies() {
        let (topo, ids) = single_server();
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let mut acc = Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO);
        let mut placer = NoPlacer;
        let mut published = FxHashMap::default();
        let mut app_published = FxHashMap::default();
        let mut ctx = TaskCtx::new(
            &mut acc,
            TaskRegions::default(),
            &mut placer,
            &mut published,
            &mut app_published,
        );
        let err = ctx
            .alloc(RegionType::GlobalScratch, PropertySet::new(), 256)
            .unwrap_err();
        assert!(err.msg.contains("no device"));
        // The placer's refusal reaches the body with nothing allocated.
        assert_eq!(mgr.live_count(), 0);
        assert!(trace.events().is_empty());
    }

    #[test]
    fn publish_and_lookup_share_regions_by_name() {
        let (topo, ids) = single_server();
        let mut mgr = RegionManager::new(&topo);
        let r = mgr
            .alloc(ids.dram, 64, RegionType::GlobalScratch, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap();
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let mut acc = Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO);
        let mut placer = FixedPlacer(ids.dram);
        let mut published = FxHashMap::default();
        let mut app_published = FxHashMap::default();
        {
            let mut ctx = TaskCtx::new(
                &mut acc,
                TaskRegions::default(),
                &mut placer,
                &mut published,
                &mut app_published,
            );
            assert!(ctx.lookup("bloom").is_none());
            ctx.publish("bloom", r);
            assert_eq!(ctx.lookup("bloom"), Some(r));
        }
        // A later task of the same job sees the publication.
        assert_eq!(published.get("bloom"), Some(&r));
    }
}
