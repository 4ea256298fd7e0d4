//! Access interfaces: synchronous loads/stores and asynchronous sessions.
//!
//! The paper's third pillar (§2.2(3)): near memory wants synchronous
//! loads/stores; far memory wants an asynchronous interface that fetches in
//! the background so compute and transfer overlap. The [`Accessor`] is a
//! task's window onto memory:
//!
//! - [`Accessor::read`] / [`Accessor::write`] are the synchronous
//!   interface. Each call charges full access latency plus a bandwidth
//!   reservation on the device's contention ledger, then advances the
//!   task's virtual clock.
//! - [`Accessor::async_read`] / [`Accessor::async_write`] issue operations
//!   that complete in the background; [`Accessor::wait_async`] joins them
//!   with concurrently executed compute, paying
//!   `startup-latency + max(io, compute)` instead of the synchronous
//!   `io + compute` — the crossover the paper predicts for far memory.
//! - [`Accessor::compute_work`] charges pure execution time for the
//!   task's compute device.

use disagg_hwsim::calibration;
use disagg_hwsim::compute::WorkClass;
use disagg_hwsim::contention::{BandwidthLedger, ResourceKey};
use disagg_hwsim::device::{AccessOp, AccessPattern};
use disagg_hwsim::fault::FaultInjector;
use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::{AccessCostParts, Topology};
use disagg_hwsim::trace::{RebuildFor, Trace, TraceEvent};

use crate::pool::RegionId;
use crate::props::PropertySet;
use crate::region::{OwnerId, RegionError, RegionManager};
use crate::typed::RegionType;

/// Statistics an accessor accumulates over a task's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccessStats {
    /// Bytes read (logical).
    pub bytes_read: u64,
    /// Bytes written (logical).
    pub bytes_written: u64,
    /// Synchronous operations issued.
    pub sync_ops: u64,
    /// Asynchronous operations issued.
    pub async_ops: u64,
    /// Time spent stalled on synchronous accesses.
    pub sync_stall: SimDuration,
    /// Time spent stalled at async join points (after overlap).
    pub async_stall: SimDuration,
    /// Pure compute time charged.
    pub compute_time: SimDuration,
    /// Bytes served through transparent reconstruction after a checksum
    /// caught corrupted data under a read.
    pub bytes_reconstructed: u64,
    /// Time spent re-fetching and decoding reconstructed data.
    pub reconstruct_stall: SimDuration,
    /// Time spent in accesses whose bottleneck link was running below
    /// nominal bandwidth (a `LinkDegraded` fault window).
    pub degraded_time: SimDuration,
}

/// Books one access's transfer on the ledger from `start` — every access
/// the runtime charges, the [`Accessor`]'s, `ftol`'s and healing's, is
/// booked here: `parts.eff_bytes` on the device, and on the path's
/// bottleneck link when it has one. A narrow interconnect contends
/// independently of the device — two streams to different devices
/// behind the same uplink still share the uplink — and a degraded link
/// carries traffic at a fraction of its nominal bandwidth until it
/// heals. Returns the later finish and the link's bandwidth multiplier
/// at `now`, when the access was issued (1.0 without an injector or on
/// a healthy link). A copy is booked by [`crate::migrate::reserve_copy`].
pub fn reserve_transfer(
    ledger: &mut BandwidthLedger,
    faults: Option<&FaultInjector>,
    dev: MemDeviceId,
    parts: &AccessCostParts,
    now: SimTime,
    start: SimTime,
) -> (SimTime, f64) {
    let bytes = parts.eff_bytes as f64;
    let mut finish = ledger.reserve(ResourceKey::Mem(dev), start, bytes, parts.bandwidth_bpns);
    let mut factor = 1.0;
    if let Some(link) = parts.bottleneck_link {
        if let Some(faults) = faults {
            factor = faults.link_degradation(link, now);
        }
        let bw = parts.link_bandwidth_bpns * factor;
        finish = finish.max(ledger.reserve(ResourceKey::Link(link), start, bytes, bw));
    }
    (finish, factor)
}

/// A synchronous access issued at `now`: its latency passes, then its
/// bytes are booked ([`reserve_transfer`]). Returns the finish and the
/// link factor.
pub fn book_access(
    ledger: &mut BandwidthLedger,
    faults: Option<&FaultInjector>,
    dev: MemDeviceId,
    parts: &AccessCostParts,
    now: SimTime,
) -> (SimTime, f64) {
    let start = now + SimDuration::from_nanos_f64(parts.latency_ns);
    reserve_transfer(ledger, faults, dev, parts, now, start)
}

/// One pending asynchronous operation.
#[derive(Debug, Clone, Copy)]
struct PendingOp {
    /// When the transfer (including contention) completes on the device.
    device_done: SimTime,
    /// Startup latency for this op (paid once, pipelined thereafter).
    latency: SimDuration,
}

/// A task's gateway to simulated memory: performs real byte movement via
/// the [`RegionManager`] while charging virtual time for every operation.
#[derive(Debug)]
pub struct Accessor<'a> {
    topo: &'a Topology,
    ledger: &'a mut BandwidthLedger,
    mgr: &'a mut RegionManager,
    trace: &'a mut Trace,
    /// The compute device this task runs on.
    pub compute: ComputeId,
    /// The owner identity accesses are checked against.
    pub who: OwnerId,
    /// The task's virtual clock cursor.
    pub now: SimTime,
    /// Accumulated statistics.
    pub stats: AccessStats,
    pending: Vec<PendingOp>,
    async_compute: SimDuration,
    /// The run's fault schedule, when one is active. `None` (the
    /// default) keeps the calm path free of per-access fault queries.
    faults: Option<&'a FaultInjector>,
}

impl<'a> Accessor<'a> {
    /// Creates an accessor for a task running on `compute` as `who`,
    /// starting at virtual time `start`.
    pub fn new(
        topo: &'a Topology,
        ledger: &'a mut BandwidthLedger,
        mgr: &'a mut RegionManager,
        trace: &'a mut Trace,
        compute: ComputeId,
        who: OwnerId,
        start: SimTime,
    ) -> Self {
        Accessor {
            topo,
            ledger,
            mgr,
            trace,
            compute,
            who,
            now: start,
            stats: AccessStats::default(),
            pending: Vec::new(),
            async_compute: SimDuration::ZERO,
            faults: None,
        }
    }

    /// Makes accesses fault-aware: reads verify checksums against the
    /// injector's `Corrupt` ranges (reconstructing transparently on a
    /// hit) and transfers over degraded links run at the degraded
    /// bandwidth. An empty injector is not attached, so the calm path
    /// makes no per-access fault query and stays bit-for-bit identical.
    pub fn with_faults(mut self, faults: &'a FaultInjector) -> Self {
        self.faults = (!faults.is_empty()).then_some(faults);
        self
    }

    /// Read-only access to the region manager.
    pub fn manager(&self) -> &RegionManager {
        self.mgr
    }

    /// A task body's own traced allocation on `dev`, owned by `who` at `now`.
    pub fn alloc(
        &mut self,
        dev: MemDeviceId,
        size: u64,
        rtype: RegionType,
        props: PropertySet,
    ) -> Result<RegionId, RegionError> {
        self.mgr
            .alloc_traced(self.trace, dev, size, rtype, props, self.who, self.now)
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    fn charge(
        &mut self,
        region: RegionId,
        bytes: u64,
        op: AccessOp,
        pattern: AccessPattern,
    ) -> Result<SimDuration, RegionError> {
        let dev = self.mgr.placement(region)?.dev;
        let parts = self
            .topo
            .access_cost_parts(self.compute, dev, bytes, op, pattern)
            .expect("placement guaranteed reachable by the runtime");
        let (finish, factor) = book_access(self.ledger, self.faults, dev, &parts, self.now);
        let took = finish - self.now;
        if factor < 1.0 {
            self.stats.degraded_time += took;
        }
        self.mgr.hotness.record(region, bytes, self.now);
        self.trace.push(TraceEvent::Access {
            region: region.0,
            dev,
            bytes,
            op,
            at: self.now,
            took,
        });
        Ok(took)
    }

    /// Bytes of `[offset, offset+len)` within `region` that overlap a
    /// corrupted device range at `self.now` (0 without an injector).
    fn corrupt_overlap(&self, region: RegionId, offset: u64, len: u64) -> u64 {
        let Some(faults) = self.faults else { return 0 };
        let Ok(placement) = self.mgr.placement(region) else { return 0 };
        let lo = placement.offset + offset;
        let hi = lo + len;
        faults
            .corrupted_ranges(placement.dev, self.now)
            .map(|(c_off, c_len)| {
                let c_hi = c_off + c_len;
                c_hi.min(hi).saturating_sub(c_off.max(lo))
            })
            .sum()
    }

    /// Pays for serving `bytes` of a read from redundancy after a
    /// checksum mismatch: a second fetch of the granule plus decode
    /// arithmetic, recorded as a [`TraceEvent::Reconstruct`].
    fn reconstruct(&mut self, region: RegionId, bytes: u64) -> Result<SimDuration, RegionError> {
        let dev = self.mgr.placement(region)?.dev;
        let parts = self
            .topo
            .access_cost_parts(self.compute, dev, bytes, AccessOp::Read, AccessPattern::Sequential)
            .expect("placement guaranteed reachable by the runtime");
        let (finish, _) = book_access(self.ledger, self.faults, dev, &parts, self.now);
        let per_byte = calibration::mechanisms().host_decode_ns_per_byte.value;
        let decode = SimDuration::from_nanos_f64(bytes as f64 * per_byte);
        let took = (finish - self.now) + decode;
        let by = match self.who {
            // Task indices are `TaskId`'s `u32` widened by the executor.
            OwnerId::Task { job, task } => RebuildFor::Task { job, task: task as u32 },
            OwnerId::Job(job) => RebuildFor::Job(job),
            OwnerId::App => RebuildFor::Nobody,
        };
        self.trace.push(TraceEvent::Reconstruct {
            region: region.0,
            dev,
            bytes,
            at: self.now,
            took,
            by: Box::new(by),
        });
        Ok(took)
    }

    /// Synchronously reads into `buf`, stalling the task for the full
    /// access cost. With a fault injector attached, the read verifies
    /// checksums against the injector's `Corrupt` ranges; on a mismatch
    /// the damaged bytes are transparently served from redundancy,
    /// paying a second fetch plus decode time.
    pub fn read(
        &mut self,
        region: RegionId,
        offset: u64,
        buf: &mut [u8],
        pattern: AccessPattern,
    ) -> Result<SimDuration, RegionError> {
        self.mgr.read(region, self.who, offset, buf)?;
        let mut took = self.charge(region, buf.len() as u64, AccessOp::Read, pattern)?;
        let corrupt = self.corrupt_overlap(region, offset, buf.len() as u64);
        if corrupt > 0 {
            let repair = self.reconstruct(region, corrupt)?;
            self.stats.bytes_reconstructed += corrupt;
            self.stats.reconstruct_stall += repair;
            took += repair;
        }
        self.now += took;
        self.stats.bytes_read += buf.len() as u64;
        self.stats.sync_ops += 1;
        self.stats.sync_stall += took;
        Ok(took)
    }

    /// Synchronously writes `data`, stalling the task for the full access
    /// cost.
    pub fn write(
        &mut self,
        region: RegionId,
        offset: u64,
        data: &[u8],
        pattern: AccessPattern,
    ) -> Result<SimDuration, RegionError> {
        self.mgr.write(region, self.who, offset, data)?;
        let took = self.charge(region, data.len() as u64, AccessOp::Write, pattern)?;
        self.now += took;
        self.stats.bytes_written += data.len() as u64;
        self.stats.sync_ops += 1;
        self.stats.sync_stall += took;
        Ok(took)
    }

    /// Issues an asynchronous read. Data lands in `buf` immediately (the
    /// simulation models *when* it would be usable, not staleness); the
    /// time cost is deferred to [`Accessor::wait_async`].
    pub fn async_read(
        &mut self,
        region: RegionId,
        offset: u64,
        buf: &mut [u8],
        pattern: AccessPattern,
    ) -> Result<(), RegionError> {
        self.mgr.read(region, self.who, offset, buf)?;
        self.enqueue(region, buf.len() as u64, AccessOp::Read, pattern)?;
        self.stats.bytes_read += buf.len() as u64;
        Ok(())
    }

    /// Issues an asynchronous write.
    pub fn async_write(
        &mut self,
        region: RegionId,
        offset: u64,
        data: &[u8],
        pattern: AccessPattern,
    ) -> Result<(), RegionError> {
        self.mgr.write(region, self.who, offset, data)?;
        self.enqueue(region, data.len() as u64, AccessOp::Write, pattern)?;
        self.stats.bytes_written += data.len() as u64;
        Ok(())
    }

    fn enqueue(
        &mut self,
        region: RegionId,
        bytes: u64,
        op: AccessOp,
        pattern: AccessPattern,
    ) -> Result<(), RegionError> {
        let dev = self.mgr.placement(region)?.dev;
        let parts = self
            .topo
            .access_cost_parts(self.compute, dev, bytes, op, pattern)
            .expect("placement guaranteed reachable by the runtime");
        // Issuing costs CPU time (submission/completion bookkeeping, an
        // io_uring/SPDK-style toll). This is why near memory prefers
        // plain loads: when the device latency is smaller than the
        // bookkeeping, sync wins.
        self.now += SimDuration::from_nanos_f64(calibration::mechanisms().async_issue_ns.value);
        // Transfers queue on the device ledger from "now": they run in the
        // background while the task keeps computing.
        let (device_done, factor) =
            reserve_transfer(self.ledger, self.faults, dev, &parts, self.now, self.now);
        if factor < 1.0 {
            self.stats.degraded_time += device_done - self.now;
        }
        let latency = SimDuration::from_nanos_f64(parts.latency_ns);
        self.mgr.hotness.record(region, bytes, self.now);
        self.trace.push(TraceEvent::Access {
            region: region.0,
            dev,
            bytes,
            op,
            at: self.now,
            took: (device_done - self.now) + latency,
        });
        self.pending.push(PendingOp { device_done, latency });
        self.stats.async_ops += 1;
        Ok(())
    }

    /// Registers compute executed *while* pending async operations are in
    /// flight (the overlap the async interface exists for).
    pub fn overlap_compute(&mut self, class: WorkClass, elems: u64) {
        let cost = self.topo.compute(self.compute).work_cost(class, elems);
        self.async_compute += cost;
        self.stats.compute_time += cost;
    }

    /// Joins all pending asynchronous operations with the overlapped
    /// compute. The task pays `max(io-completion, compute) + one startup
    /// latency` instead of their sum; the resulting stall (time not hidden
    /// by compute) is returned.
    pub fn wait_async(&mut self) -> SimDuration {
        if self.pending.is_empty() {
            let compute = std::mem::take(&mut self.async_compute);
            self.now += compute;
            return SimDuration::ZERO;
        }
        let io_done = self
            .pending
            .iter()
            .map(|p| p.device_done)
            .fold(SimTime::ZERO, SimTime::max);
        // Pipelined ops hide all but the first latency.
        let startup = self
            .pending
            .iter()
            .map(|p| p.latency)
            .fold(SimDuration::ZERO, SimDuration::max);
        let io_elapsed = (io_done - self.now) + startup;
        let compute = std::mem::take(&mut self.async_compute);
        let elapsed = io_elapsed.max(compute);
        let stall = elapsed.saturating_sub(compute);
        self.now += elapsed;
        self.stats.async_stall += stall;
        self.pending.clear();
        stall
    }

    /// Charges pure compute time on the task's device (no memory traffic).
    pub fn compute_work(&mut self, class: WorkClass, elems: u64) -> SimDuration {
        let cost = self.topo.compute(self.compute).work_cost(class, elems);
        self.now += cost;
        self.stats.compute_time += cost;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::PropertySet;
    use crate::typed::RegionType;
    use disagg_hwsim::presets::single_server;

    fn fixture() -> (
        disagg_hwsim::topology::Topology,
        disagg_hwsim::presets::SingleServer,
        RegionManager,
        BandwidthLedger,
        Trace,
    ) {
        let (topo, ids) = single_server();
        let mgr = RegionManager::new(&topo);
        (topo, ids, mgr, BandwidthLedger::default_buckets(), Trace::enabled())
    }

    const WHO: OwnerId = OwnerId::Task { job: 0, task: 0 };

    #[test]
    fn sync_read_round_trips_data_and_charges_time() {
        let (topo, ids, mut mgr, mut ledger, mut trace) = fixture();
        let r = mgr
            .alloc(ids.dram, 1024, RegionType::Output, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap();
        let mut acc = Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO);
        acc.write(r, 0, &[7u8; 64], AccessPattern::Random).unwrap();
        let mut buf = [0u8; 64];
        acc.read(r, 0, &mut buf, AccessPattern::Random).unwrap();
        assert_eq!(buf, [7u8; 64]);
        assert!(acc.now > SimTime::ZERO);
        assert_eq!(acc.stats.sync_ops, 2);
        assert_eq!(acc.stats.bytes_read, 64);
        assert_eq!(acc.stats.bytes_written, 64);
    }

    #[test]
    fn far_memory_sync_access_costs_more_than_dram() {
        let (topo, ids, mut mgr, mut ledger, mut trace) = fixture();
        let near = mgr
            .alloc(ids.dram, 4096, RegionType::Output, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap();
        let far = mgr
            .alloc(ids.far, 4096, RegionType::Output, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap();
        let mut acc = Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO);
        let mut buf = [0u8; 4096];
        let near_cost = acc.read(near, 0, &mut buf, AccessPattern::Random).unwrap();
        let far_cost = acc.read(far, 0, &mut buf, AccessPattern::Random).unwrap();
        // 4 KiB random: DRAM does 64 line-fetches at ~90 ns; far memory 16
        // 256 B fetches at ~2.3 µs each — roughly a 6x gap.
        assert!(
            far_cost.as_nanos() > 5 * near_cost.as_nanos(),
            "far {far_cost} vs near {near_cost}"
        );
    }

    #[test]
    fn async_interface_hides_io_behind_compute() {
        let (topo, ids, mut mgr, mut ledger, mut trace) = fixture();
        let far = mgr
            .alloc(ids.far, 1 << 20, RegionType::GlobalScratch, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap();

        // Synchronous baseline: read then compute, costs add up.
        let mut sync_acc =
            Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO);
        let mut buf = vec![0u8; 1 << 20];
        sync_acc.read(far, 0, &mut buf, AccessPattern::Sequential).unwrap();
        sync_acc.compute_work(WorkClass::Vector, 4_000_000);
        let sync_total = sync_acc.now;

        // Async: issue the read, overlap the same compute, join.
        let mut ledger2 = BandwidthLedger::default_buckets();
        let mut trace2 = Trace::enabled();
        let mut async_acc =
            Accessor::new(&topo, &mut ledger2, &mut mgr, &mut trace2, ids.cpu, WHO, SimTime::ZERO);
        async_acc.async_read(far, 0, &mut buf, AccessPattern::Sequential).unwrap();
        async_acc.overlap_compute(WorkClass::Vector, 4_000_000);
        async_acc.wait_async();
        let async_total = async_acc.now;

        assert!(
            async_total < sync_total,
            "async {async_total:?} should beat sync {sync_total:?}"
        );
    }

    #[test]
    fn wait_async_with_no_pending_ops_still_charges_compute() {
        let (topo, ids, mut mgr, mut ledger, mut trace) = fixture();
        let mut acc = Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO);
        acc.overlap_compute(WorkClass::Scalar, 1_000);
        let stall = acc.wait_async();
        assert_eq!(stall, SimDuration::ZERO);
        assert!(acc.now > SimTime::ZERO);
    }

    #[test]
    fn async_stall_is_zero_when_compute_dominates() {
        let (topo, ids, mut mgr, mut ledger, mut trace) = fixture();
        let r = mgr
            .alloc(ids.dram, 64, RegionType::Output, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap();
        let mut acc = Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO);
        let mut buf = [0u8; 64];
        acc.async_read(r, 0, &mut buf, AccessPattern::Random).unwrap();
        // A billion scalar elements dwarf one DRAM line fetch.
        acc.overlap_compute(WorkClass::Scalar, 1_000_000_000);
        let stall = acc.wait_async();
        assert_eq!(stall, SimDuration::ZERO);
    }

    #[test]
    fn contention_slows_concurrent_streams() {
        let (topo, ids, mut mgr, mut ledger, mut trace) = fixture();
        let r = mgr
            .alloc(ids.cxl, 64 << 20, RegionType::GlobalScratch, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap();
        let mut buf = vec![0u8; 32 << 20];
        // First stream, empty ledger.
        let mut a1 = Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO);
        let t1 = a1.read(r, 0, &mut buf, AccessPattern::Sequential).unwrap();
        // Second stream, same window: queues behind the first.
        let mut a2 = Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO);
        let t2 = a2.read(r, 0, &mut buf, AccessPattern::Sequential).unwrap();
        assert!(t2 > t1, "second stream {t2} should queue behind first {t1}");
    }

    #[test]
    fn access_denied_for_non_owner_costs_nothing() {
        let (topo, ids, mut mgr, mut ledger, mut trace) = fixture();
        let other = OwnerId::Task { job: 9, task: 9 };
        let r = mgr
            .alloc(ids.dram, 64, RegionType::Output, PropertySet::new(), other, SimTime::ZERO)
            .unwrap();
        let mut acc = Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO);
        let mut buf = [0u8; 8];
        assert!(acc.read(r, 0, &mut buf, AccessPattern::Random).is_err());
        assert_eq!(acc.now, SimTime::ZERO);
        assert_eq!(acc.stats.sync_ops, 0);
    }

    #[test]
    fn trace_records_every_access() {
        let (topo, ids, mut mgr, mut ledger, mut trace) = fixture();
        let r = mgr
            .alloc(ids.dram, 1024, RegionType::Output, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap();
        {
            let mut acc =
                Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO);
            acc.write(r, 0, &[1u8; 512], AccessPattern::Sequential).unwrap();
            let mut buf = [0u8; 512];
            acc.read(r, 0, &mut buf, AccessPattern::Sequential).unwrap();
        }
        assert_eq!(trace.count(|e| matches!(e, TraceEvent::Access { .. })), 2);
        assert_eq!(trace.bytes_moved(), 1024);
    }

    #[test]
    fn corrupt_range_under_a_read_is_reconstructed_with_extra_cost() {
        use disagg_hwsim::fault::{FaultEvent, FaultKind};
        let (topo, ids, mut mgr, mut ledger, mut trace) = fixture();
        let r = mgr
            .alloc(ids.far, 1 << 20, RegionType::GlobalScratch, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap();
        let placement = mgr.placement(r).unwrap();
        let faults = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(0),
            kind: FaultKind::Corrupt {
                dev: placement.dev,
                offset: placement.offset + 100,
                len: 50,
            },
        }]);
        let mut buf = [0u8; 4096];

        // Clean baseline on its own ledger.
        let mut ledger2 = BandwidthLedger::default_buckets();
        let mut trace2 = Trace::enabled();
        let clean = Accessor::new(
            &topo, &mut ledger2, &mut mgr, &mut trace2, ids.cpu, WHO, SimTime::ZERO,
        )
        .read(r, 0, &mut buf, AccessPattern::Sequential)
        .unwrap();

        let mut acc = Accessor::new(
            &topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO,
        )
        .with_faults(&faults);
        let took = acc.read(r, 0, &mut buf, AccessPattern::Sequential).unwrap();
        assert!(took > clean, "reconstruction must cost extra: {took} vs {clean}");
        assert_eq!(acc.stats.bytes_reconstructed, 50);
        assert!(acc.stats.reconstruct_stall > SimDuration::ZERO);
        assert_eq!(trace.count(|e| matches!(e, TraceEvent::Reconstruct { .. })), 1);

        // A read outside the corrupted range pays nothing extra.
        let mut acc2 = Accessor::new(
            &topo, &mut ledger, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO,
        )
        .with_faults(&faults);
        acc2.read(r, 4096, &mut buf, AccessPattern::Sequential).unwrap();
        assert_eq!(acc2.stats.bytes_reconstructed, 0);
    }

    #[test]
    fn degraded_link_slows_transfers_until_it_heals() {
        use disagg_hwsim::fault::{FaultEvent, FaultKind};
        let (topo, ids, mut mgr, _ledger, mut trace) = fixture();
        let r = mgr
            .alloc(ids.far, 64 << 20, RegionType::GlobalScratch, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap();
        let placement = mgr.placement(r).unwrap();
        let link = topo
            .access_cost_parts(
                ids.cpu,
                placement.dev,
                1 << 20,
                AccessOp::Read,
                AccessPattern::Sequential,
            )
            .unwrap()
            .bottleneck_link
            .expect("far memory sits behind an interconnect");
        let faults = FaultInjector::with_events(vec![
            FaultEvent {
                at: SimTime(0),
                kind: FaultKind::LinkDegraded { link, factor_pct: 10 },
            },
            FaultEvent {
                at: SimTime(1_000_000_000),
                kind: FaultKind::LinkUp(link),
            },
        ]);
        let mut buf = vec![0u8; 16 << 20];

        let mut l1 = BandwidthLedger::default_buckets();
        let clean = Accessor::new(&topo, &mut l1, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO)
            .read(r, 0, &mut buf, AccessPattern::Sequential)
            .unwrap();

        let mut l2 = BandwidthLedger::default_buckets();
        let mut degraded_acc =
            Accessor::new(&topo, &mut l2, &mut mgr, &mut trace, ids.cpu, WHO, SimTime::ZERO)
                .with_faults(&faults);
        let degraded = degraded_acc.read(r, 0, &mut buf, AccessPattern::Sequential).unwrap();
        assert!(
            degraded.as_nanos() > clean.as_nanos() * 3,
            "10% bandwidth should stretch the transfer: {clean} healthy vs {degraded} degraded"
        );
        assert_eq!(degraded_acc.stats.degraded_time, degraded);

        // After LinkUp the same read costs the healthy price again.
        let mut l3 = BandwidthLedger::default_buckets();
        let healed_at = SimTime(1_000_000_000);
        let mut healed_acc =
            Accessor::new(&topo, &mut l3, &mut mgr, &mut trace, ids.cpu, WHO, healed_at)
                .with_faults(&faults);
        let healed = healed_acc.read(r, 0, &mut buf, AccessPattern::Sequential).unwrap();
        assert_eq!(healed, clean);
        assert_eq!(healed_acc.stats.degraded_time, SimDuration::ZERO);
    }

    #[test]
    fn shared_uplink_contends_across_distinct_devices() {
        // Two CXL expanders behind one PCIe uplink: streams to different
        // devices still share the uplink's 32 GB/s.
        use disagg_hwsim::compute::{ComputeKind, ComputeModel};
        use disagg_hwsim::device::{MemDeviceKind, MemDeviceModel};
        use disagg_hwsim::topology::{Endpoint, LinkKind, Topology};

        let mut b = Topology::builder();
        let n = b.node("host");
        let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        let a = b.mem(n, MemDeviceModel::preset(MemDeviceKind::CxlDram));
        let c = b.mem(n, MemDeviceModel::preset(MemDeviceKind::CxlDram));
        b.link(cpu, Endpoint::Hub(n), LinkKind::PcieCxl);
        b.link(Endpoint::Hub(n), a, LinkKind::PcieCxl);
        b.link(Endpoint::Hub(n), c, LinkKind::PcieCxl);
        let topo = b.build().unwrap();

        let mut mgr = RegionManager::new(&topo);
        let ra = mgr
            .alloc(a, 64 << 20, RegionType::GlobalScratch, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap();
        let rc = mgr
            .alloc(c, 64 << 20, RegionType::GlobalScratch, PropertySet::new(), WHO, SimTime::ZERO)
            .unwrap();

        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::disabled();
        let mut buf = vec![0u8; 32 << 20];
        let mut acc1 =
            Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace, cpu, WHO, SimTime::ZERO);
        let t1 = acc1.read(ra, 0, &mut buf, AccessPattern::Sequential).unwrap();
        // Same window, *different* device: must queue on the shared uplink.
        let mut trace2 = Trace::disabled();
        let mut acc2 =
            Accessor::new(&topo, &mut ledger, &mut mgr, &mut trace2, cpu, WHO, SimTime::ZERO);
        let t2 = acc2.read(rc, 0, &mut buf, AccessPattern::Sequential).unwrap();
        assert!(
            t2.as_nanos() > t1.as_nanos() * 3 / 2,
            "uplink sharing should stretch the second stream: {t1} then {t2}"
        );
    }
}
