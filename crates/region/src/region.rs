//! Regions and memory ownership.
//!
//! The paper's second pillar (§2.2(2)): every chunk of allocated memory is
//! either **exclusively owned** by one task — scratch space, or an output
//! handed to the next task — or **shared** between tasks that may run
//! concurrently, which demands a cache-coherent placement. Ownership can be
//! *transferred* (the "out" becomes the next task's "in", like C++ move
//! semantics), which is what lets the runtime skip physical copies.
//!
//! The [`RegionManager`] is the bookkeeper: it pairs every pool allocation
//! with its type, declared properties, and owner set, and enforces the
//! ownership rules on every access.
//! Inside a run every allocation and free goes through its `*_traced`
//! methods, which push an `Alloc` or `Free` event exactly when the pool
//! allocated or freed; code that owns a bare manager (`ftol`, tests)
//! uses the untraced `alloc` / `release`. The manager also keeps the
//! regions' hotness: every access an [`crate::access::Accessor`] charges
//! is recorded, and a freed region is forgotten.

use std::collections::hash_map::Entry;

use disagg_hwsim::fx::FxHashMap;
use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::time::SimTime;
use disagg_hwsim::topology::Topology;
use disagg_hwsim::trace::{Trace, TraceEvent};

use crate::hotness::HotnessTracker;
use crate::pool::{AllocError, MemoryPool, Placement, RegionId};
use crate::props::PropertySet;
use crate::typed::RegionType;

/// Who owns a region. The paper allows ownership at task, job, or
/// application granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OwnerId {
    /// A task within a job.
    Task {
        /// The job the task belongs to.
        job: u64,
        /// The task's index within the job.
        task: u64,
    },
    /// A whole job.
    Job(u64),
    /// The application itself (lives until shutdown).
    App,
}

impl OwnerId {
    /// The job this owner belongs to, if any.
    pub fn job(&self) -> Option<u64> {
        match *self {
            OwnerId::Task { job, .. } => Some(job),
            OwnerId::Job(job) => Some(job),
            OwnerId::App => None,
        }
    }
}

/// A region's ownership state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ownership {
    /// One owner; consistency can be relaxed.
    Exclusive(OwnerId),
    /// Multiple concurrent owners; requires a coherent placement.
    Shared(Vec<OwnerId>),
}

impl Ownership {
    /// All current owners.
    pub fn owners(&self) -> &[OwnerId] {
        match self {
            Ownership::Exclusive(o) => std::slice::from_ref(o),
            Ownership::Shared(v) => v,
        }
    }

    /// True if `who` is among the owners.
    pub fn is_owner(&self, who: OwnerId) -> bool {
        self.owners().contains(&who)
    }
}

/// Errors from region operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionError {
    /// Underlying allocation failure.
    Alloc(AllocError),
    /// The caller does not own the region.
    NotOwner {
        /// The offending region.
        region: RegionId,
        /// Who tried to access it.
        who: OwnerId,
    },
    /// Transfer attempted on a shared region (only exclusive regions move).
    SharedTransfer(RegionId),
    /// This region type cannot be transferred (private scratch).
    NotTransferable(RegionId),
    /// This region type cannot be shared (private scratch).
    NotShareable(RegionId),
    /// Sharing requires a coherent device; this placement is not coherent.
    IncoherentShare {
        /// The offending region.
        region: RegionId,
        /// Its (non-coherent) device.
        dev: MemDeviceId,
    },
    /// Access outside the region bounds.
    OutOfBounds {
        /// The offending region.
        region: RegionId,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual region size.
        size: u64,
    },
    /// A confidential region was touched by a different job.
    ConfidentialityViolation {
        /// The offending region.
        region: RegionId,
        /// The job that owns the secret.
        owner_job: Option<u64>,
        /// The job that tried to read it.
        accessor_job: Option<u64>,
    },
    /// A copy of the region has nowhere to go: no memory device reachable
    /// from the consumer satisfies the region's properties with `size`
    /// bytes free.
    NoPlacement {
        /// The region that was to be copied.
        region: RegionId,
        /// The compute device the copy was for.
        consumer: ComputeId,
        /// Bytes the copy needs.
        size: u64,
    },
}

impl From<AllocError> for RegionError {
    fn from(e: AllocError) -> Self {
        RegionError::Alloc(e)
    }
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::Alloc(e) => write!(f, "allocation error: {e}"),
            RegionError::NotOwner { region, who } => {
                write!(f, "{who:?} does not own region {region}")
            }
            RegionError::SharedTransfer(r) => write!(f, "region {r} is shared; cannot transfer"),
            RegionError::NotTransferable(r) => write!(f, "region {r} type is not transferable"),
            RegionError::NotShareable(r) => write!(f, "region {r} type is not shareable"),
            RegionError::IncoherentShare { region, dev } => {
                write!(f, "region {region} on non-coherent {dev} cannot be shared")
            }
            RegionError::OutOfBounds { region, offset, len, size } => {
                write!(f, "access [{offset}, {offset}+{len}) outside region {region} of {size} bytes")
            }
            RegionError::ConfidentialityViolation { region, owner_job, accessor_job } => {
                write!(
                    f,
                    "job {accessor_job:?} touched confidential region {region} of job {owner_job:?}"
                )
            }
            RegionError::NoPlacement { region, consumer, size } => {
                write!(
                    f,
                    "no device reachable from {consumer} can hold a {size}-byte copy of region {region}"
                )
            }
        }
    }
}

impl std::error::Error for RegionError {}

/// Metadata the manager keeps per region.
#[derive(Debug, Clone)]
pub struct RegionMeta {
    /// Region id.
    pub id: RegionId,
    /// Region type (Table 2 vocabulary).
    pub rtype: RegionType,
    /// Declared properties.
    pub props: PropertySet,
    /// Current ownership state.
    pub ownership: Ownership,
    /// When the region was created.
    pub created_at: SimTime,
    /// The job that created the region (confidentiality boundary).
    pub origin_job: Option<u64>,
}

/// One owner's entry in the owner → regions index: the regions it holds,
/// in grant order, possibly naming one twice (a self-share). Nearly every
/// owner is a task holding its inputs and its output, which fit inline;
/// only a longer list goes to the heap.
#[derive(Debug)]
enum Owned {
    Few { len: u8, ids: [RegionId; Owned::INLINE] },
    Many(Vec<RegionId>),
}

impl Owned {
    const INLINE: usize = 4;

    fn one(id: RegionId) -> Owned {
        let mut ids = [RegionId(0); Owned::INLINE];
        ids[0] = id;
        Owned::Few { len: 1, ids }
    }

    fn as_mut_slice(&mut self) -> &mut [RegionId] {
        match self {
            Owned::Few { len, ids } => &mut ids[..usize::from(*len)],
            Owned::Many(v) => v,
        }
    }

    fn push(&mut self, id: RegionId) {
        match self {
            Owned::Few { len, ids } if usize::from(*len) < Owned::INLINE => {
                ids[usize::from(*len)] = id;
                *len += 1;
            }
            Owned::Few { ids, .. } => {
                let mut v = Vec::with_capacity(2 * Owned::INLINE);
                v.extend_from_slice(ids);
                v.push(id);
                *self = Owned::Many(v);
            }
            Owned::Many(v) => v.push(id),
        }
    }

    /// Drops every mention of `id`; true when nothing is left.
    fn remove(&mut self, id: RegionId) -> bool {
        match self {
            Owned::Few { len, ids } => {
                let mut kept = 0;
                for i in 0..usize::from(*len) {
                    if ids[i] != id {
                        ids[kept] = ids[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
                kept == 0
            }
            Owned::Many(v) => {
                v.retain(|&r| r != id);
                v.is_empty()
            }
        }
    }
}

/// The ownership bookkeeper on top of the [`MemoryPool`].
#[derive(Debug)]
pub struct RegionManager {
    pool: MemoryPool,
    /// Live regions only. Hashed rather than a slab beside the pool's:
    /// ids grow without bound while the live set stays small, and a
    /// slab measured no faster and 6 MiB heavier on a 32 000-request
    /// serving pass (DESIGN.md "Performance engineering"). Keys come
    /// from the pool, so the unkeyed Fx hash is safe; never iterated.
    meta: FxHashMap<RegionId, RegionMeta>,
    /// Owner → regions index, kept in sync with `meta` ownership so
    /// task-exit cleanup (`release_all_traced`, called once per task) is
    /// O(regions of that owner), not a scan of every live region. Never
    /// iterated.
    owners: FxHashMap<OwnerId, Owned>,
    /// Decayed access statistics of the live regions, fed by the
    /// accessor at every charged access whether or not anything traces.
    pub(crate) hotness: HotnessTracker,
}

impl RegionManager {
    /// Creates a manager over a fresh pool for the topology.
    pub fn new(topo: &Topology) -> Self {
        RegionManager {
            pool: MemoryPool::new(topo),
            meta: FxHashMap::default(),
            owners: FxHashMap::default(),
            hotness: HotnessTracker::new(),
        }
    }

    fn index_add(&mut self, owner: OwnerId, id: RegionId) {
        match self.owners.entry(owner) {
            Entry::Vacant(e) => {
                e.insert(Owned::one(id));
            }
            Entry::Occupied(mut e) => e.get_mut().push(id),
        }
    }

    fn index_remove(&mut self, owner: OwnerId, id: RegionId) {
        let Entry::Occupied(mut e) = self.owners.entry(owner) else {
            return;
        };
        if e.get_mut().remove(id) {
            e.remove();
        }
    }

    /// The underlying pool (for capacity/utilization queries).
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// Mutable pool access (for the migration engine).
    pub fn pool_mut(&mut self) -> &mut MemoryPool {
        &mut self.pool
    }

    /// The live regions' decayed hotness (what tiering plans from).
    pub fn hotness(&self) -> &HotnessTracker {
        &self.hotness
    }

    /// Mutable hotness, for the decay tick: the executor applies one
    /// when a wave starts.
    pub fn hotness_mut(&mut self) -> &mut HotnessTracker {
        &mut self.hotness
    }

    /// Allocates a region on `dev` with the given type, properties, and
    /// initial exclusive owner.
    pub fn alloc(
        &mut self,
        dev: MemDeviceId,
        size: u64,
        rtype: RegionType,
        props: PropertySet,
        owner: OwnerId,
        now: SimTime,
    ) -> Result<RegionId, RegionError> {
        let id = self.pool.alloc(dev, size)?;
        let origin_job = owner.job();
        self.meta.insert(
            id,
            RegionMeta {
                id,
                rtype,
                props,
                ownership: Ownership::Exclusive(owner),
                created_at: now,
                origin_job,
            },
        );
        self.index_add(owner, id);
        Ok(id)
    }

    /// [`alloc`](Self::alloc), booked in `trace` as an `Alloc` at `now`.
    #[allow(clippy::too_many_arguments)]
    pub fn alloc_traced(
        &mut self,
        trace: &mut Trace,
        dev: MemDeviceId,
        size: u64,
        rtype: RegionType,
        props: PropertySet,
        owner: OwnerId,
        now: SimTime,
    ) -> Result<RegionId, RegionError> {
        let id = self.alloc(dev, size, rtype, props, owner, now)?;
        trace.push(TraceEvent::Alloc { region: id.0, dev, bytes: size, at: now });
        Ok(id)
    }

    /// Region metadata.
    pub fn meta(&self, id: RegionId) -> Result<&RegionMeta, RegionError> {
        self.meta
            .get(&id)
            .ok_or(RegionError::Alloc(AllocError::UnknownRegion(id)))
    }

    /// Region placement.
    pub fn placement(&self, id: RegionId) -> Result<Placement, RegionError> {
        Ok(self.pool.placement(id)?)
    }

    /// True if the region is still live.
    pub fn is_live(&self, id: RegionId) -> bool {
        self.pool.is_live(id)
    }

    /// True if `owner` holds any live region. O(1), allocation-free.
    pub fn owns_any(&self, owner: OwnerId) -> bool {
        self.owners.contains_key(&owner)
    }

    /// Live regions owned (exclusively or shared) by `owner`.
    pub fn owned_by(&self, owner: OwnerId) -> Vec<RegionId> {
        let mut v = match self.owners.get(&owner) {
            None => Vec::new(),
            Some(Owned::Few { len, ids }) => ids[..usize::from(*len)].to_vec(),
            Some(Owned::Many(v)) => v.clone(),
        };
        v.sort_unstable();
        v.dedup();
        v
    }

    fn check_access(&self, id: RegionId, who: OwnerId) -> Result<&RegionMeta, RegionError> {
        let meta = self.meta(id)?;
        let direct = meta.ownership.is_owner(who);
        if !direct {
            // Confidentiality is checked before hierarchical access:
            // broad (job/app) scope never grants another job a view of
            // confidential data. Direct ownership — an explicit transfer —
            // does imply authorization.
            if meta.props.confidential && meta.origin_job != who.job() {
                return Err(RegionError::ConfidentialityViolation {
                    region: id,
                    owner_job: meta.origin_job,
                    accessor_job: who.job(),
                });
            }
            // Ownership is hierarchical: a region owned at job scope is
            // accessible to every task of that job, and an app-scoped
            // region to everyone. (Job-wide global state and published
            // global scratch rely on this.)
            let hierarchical = meta.ownership.owners().iter().any(|o| match o {
                OwnerId::Job(j) => who.job() == Some(*j),
                OwnerId::App => true,
                OwnerId::Task { .. } => false,
            });
            if !hierarchical {
                return Err(RegionError::NotOwner { region: id, who });
            }
        }
        Ok(meta)
    }

    fn check_bounds(
        &self,
        id: RegionId,
        offset: u64,
        len: u64,
    ) -> Result<(), RegionError> {
        let size = self.pool.placement(id)?.size;
        if offset.checked_add(len).is_none_or(|end| end > size) {
            return Err(RegionError::OutOfBounds {
                region: id,
                offset,
                len,
                size,
            });
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes at `offset` into `buf`, enforcing ownership
    /// and bounds. Returns the backing device (for cost charging).
    pub fn read(
        &self,
        id: RegionId,
        who: OwnerId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<MemDeviceId, RegionError> {
        self.check_access(id, who)?;
        self.check_bounds(id, offset, buf.len() as u64)?;
        self.pool.read_at(id, offset, buf)?;
        Ok(self.pool.placement(id)?.dev)
    }

    /// Writes `data` at `offset`, enforcing ownership and bounds. Returns
    /// the backing device.
    pub fn write(
        &mut self,
        id: RegionId,
        who: OwnerId,
        offset: u64,
        data: &[u8],
    ) -> Result<MemDeviceId, RegionError> {
        self.check_access(id, who)?;
        self.check_bounds(id, offset, data.len() as u64)?;
        let dev = self.pool.placement(id)?.dev;
        self.pool.write_at(id, offset, data)?;
        Ok(dev)
    }

    /// Makes `bytes` the whole contents of `id` by moving the buffer in
    /// ([`MemoryPool::adopt`]), enforcing ownership; `bytes` must be the
    /// region's size and the region dense-backed. Returns the backing
    /// device. For a caller that computed a region's bytes in a buffer
    /// of its own: writing them would copy every byte once more.
    pub fn replace_contents(
        &mut self,
        id: RegionId,
        who: OwnerId,
        bytes: Vec<u8>,
    ) -> Result<MemDeviceId, RegionError> {
        self.check_access(id, who)?;
        self.pool.adopt(id, bytes)?;
        Ok(self.pool.placement(id)?.dev)
    }

    /// Borrows a region's bytes read-only (zero-copy view for owners).
    /// Only contiguous (dense-backed) regions support this; regions above
    /// [`crate::pool::DENSE_BACKING_LIMIT`] must use [`RegionManager::read`].
    pub fn bytes(&self, id: RegionId, who: OwnerId) -> Result<&[u8], RegionError> {
        self.check_access(id, who)?;
        Ok(self.pool.data(id)?)
    }

    /// Copies the full contents of `src` into `dst` (both must be live;
    /// `dst` must be at least as large). Works for regions of any size and
    /// moves only bytes that were ever written; a dense `dst` of `src`'s
    /// size shares `src`'s buffer until either is written
    /// ([`MemoryPool::copy_between`]). Ownership checks are
    /// the caller's job — this is runtime-internal plumbing for handover
    /// copies and migrations.
    pub fn copy_contents(&mut self, src: RegionId, dst: RegionId) -> Result<u64, RegionError> {
        let len = self.pool.placement(src)?.size;
        let dst_size = self.pool.placement(dst)?.size;
        if dst_size < len {
            return Err(RegionError::OutOfBounds {
                region: dst,
                offset: 0,
                len,
                size: dst_size,
            });
        }
        self.pool.copy_between(src, dst, len)?;
        Ok(len)
    }

    /// Transfers exclusive ownership from `from` to `to` (Figure 4's
    /// handover arrow). No bytes move.
    pub fn transfer(
        &mut self,
        id: RegionId,
        from: OwnerId,
        to: OwnerId,
    ) -> Result<(), RegionError> {
        let meta = self.meta(id)?;
        if !meta.rtype.transferable() {
            return Err(RegionError::NotTransferable(id));
        }
        match &meta.ownership {
            Ownership::Exclusive(owner) if *owner == from => {
                self.meta.get_mut(&id).expect("checked above").ownership =
                    Ownership::Exclusive(to);
                self.index_remove(from, id);
                self.index_add(to, id);
                Ok(())
            }
            Ownership::Exclusive(_) => Err(RegionError::NotOwner { region: id, who: from }),
            Ownership::Shared(_) => Err(RegionError::SharedTransfer(id)),
        }
    }

    /// Adds `with` to the owner set, converting to shared ownership. The
    /// paper requires shared regions to be cache-coherent: the placement
    /// must be on a coherent device.
    pub fn share(
        &mut self,
        id: RegionId,
        owner: OwnerId,
        with: OwnerId,
        topo: &Topology,
    ) -> Result<(), RegionError> {
        let meta = self.check_access(id, owner)?;
        if !meta.rtype.shareable() {
            return Err(RegionError::NotShareable(id));
        }
        let dev = self.pool.placement(id)?.dev;
        if !topo.mem(dev).coherent {
            return Err(RegionError::IncoherentShare { region: id, dev });
        }
        let meta = self.meta.get_mut(&id).expect("checked above");
        let grant = match &mut meta.ownership {
            Ownership::Exclusive(o) => {
                let prev = *o;
                meta.ownership = Ownership::Shared(vec![prev, with]);
                true
            }
            Ownership::Shared(v) => {
                if !v.contains(&with) {
                    v.push(with);
                    true
                } else {
                    false
                }
            }
        };
        if grant {
            self.index_add(with, id);
        }
        Ok(())
    }

    /// Releases `who`'s ownership. When the last owner releases, the
    /// region is freed and `Ok(true)` is returned.
    pub fn release(&mut self, id: RegionId, who: OwnerId) -> Result<bool, RegionError> {
        self.release_traced(&mut Trace::disabled(), id, who, SimTime::ZERO)
    }

    /// [`release`](Self::release), booking a freed region in `trace` as
    /// a `Free` event at `now`.
    pub fn release_traced(
        &mut self,
        trace: &mut Trace,
        id: RegionId,
        who: OwnerId,
        now: SimTime,
    ) -> Result<bool, RegionError> {
        let freed = self.drop_owner(id, who)?;
        self.index_remove(who, id);
        if let Some(p) = freed {
            trace.push(TraceEvent::Free { region: id.0, dev: p.dev, bytes: p.size, at: now });
        }
        Ok(freed.is_some())
    }

    /// [`release`](Self::release) without the owner-index update:
    /// strikes `who` from the region's owners and, when none remain,
    /// frees it and returns where it lay.
    fn drop_owner(&mut self, id: RegionId, who: OwnerId) -> Result<Option<Placement>, RegionError> {
        let meta = self
            .meta
            .get_mut(&id)
            .ok_or(RegionError::Alloc(AllocError::UnknownRegion(id)))?;
        if !meta.ownership.is_owner(who) {
            return Err(RegionError::NotOwner { region: id, who });
        }
        let empty = match &mut meta.ownership {
            Ownership::Exclusive(_) => true,
            Ownership::Shared(v) => {
                v.retain(|&o| o != who);
                match v.len() {
                    0 => true,
                    1 => {
                        let last = v[0];
                        meta.ownership = Ownership::Exclusive(last);
                        false
                    }
                    _ => false,
                }
            }
        };
        if !empty {
            return Ok(None);
        }
        self.meta.remove(&id);
        self.hotness.forget(id);
        Ok(Some(self.pool.free(id)?))
    }

    /// Releases everything a given owner holds (task-exit and end-of-wave
    /// cleanup), in region-id order, booking each region freed outright
    /// in `trace` as a `Free` event at `now`. The owner's index entry is
    /// taken, not copied, and no release searches it again.
    pub fn release_all_traced(&mut self, trace: &mut Trace, who: OwnerId, now: SimTime) {
        let Some(mut owned) = self.owners.remove(&who) else {
            return;
        };
        let owned = owned.as_mut_slice();
        owned.sort_unstable();
        let mut last = None;
        for &id in owned.iter() {
            if last.replace(id) == Some(id) {
                continue;
            }
            if let Ok(Some(p)) = self.drop_owner(id, who) {
                trace.push(TraceEvent::Free { region: id.0, dev: p.dev, bytes: p.size, at: now });
            }
        }
    }

    /// Number of live regions.
    pub fn live_count(&self) -> usize {
        self.meta.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::compute::{ComputeKind, ComputeModel};
    use disagg_hwsim::device::{MemDeviceKind, MemDeviceModel};
    use disagg_hwsim::topology::LinkKind;

    const T0: OwnerId = OwnerId::Task { job: 1, task: 0 };
    const T1: OwnerId = OwnerId::Task { job: 1, task: 1 };
    const OTHER_JOB: OwnerId = OwnerId::Task { job: 2, task: 0 };

    fn setup() -> (Topology, RegionManager, MemDeviceId, MemDeviceId) {
        let mut b = Topology::builder();
        let n = b.node("host");
        let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        let dram = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, 1 << 20));
        let far = b.mem(
            n,
            MemDeviceModel::preset_with_capacity(MemDeviceKind::FarMemory, 1 << 20),
        );
        b.link(cpu, dram, LinkKind::MemBus);
        b.link(cpu, far, LinkKind::Nic);
        let topo = b.build().unwrap();
        let mgr = RegionManager::new(&topo);
        (topo, mgr, dram, far)
    }

    fn alloc(mgr: &mut RegionManager, dev: MemDeviceId, rtype: RegionType, owner: OwnerId) -> RegionId {
        mgr.alloc(dev, 256, rtype, rtype.properties(), owner, SimTime::ZERO)
            .unwrap()
    }

    #[test]
    fn owner_can_read_and_write() {
        let (_topo, mut mgr, dram, _) = setup();
        let id = alloc(&mut mgr, dram, RegionType::Output, T0);
        mgr.write(id, T0, 0, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        mgr.read(id, T0, 0, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn non_owner_is_rejected() {
        let (_topo, mut mgr, dram, _) = setup();
        let id = alloc(&mut mgr, dram, RegionType::Output, T0);
        let mut buf = [0u8; 1];
        assert!(matches!(
            mgr.read(id, T1, 0, &mut buf),
            Err(RegionError::NotOwner { .. })
        ));
    }

    #[test]
    fn cross_job_access_to_confidential_region_is_a_violation() {
        let (_topo, mut mgr, dram, _) = setup();
        let props = RegionType::Output.properties().confidential(true);
        let id = mgr
            .alloc(dram, 64, RegionType::Output, props, T0, SimTime::ZERO)
            .unwrap();
        let mut buf = [0u8; 1];
        assert!(matches!(
            mgr.read(id, OTHER_JOB, 0, &mut buf),
            Err(RegionError::ConfidentialityViolation { .. })
        ));
        // Same-job non-owner still gets the plain NotOwner error.
        assert!(matches!(
            mgr.read(id, T1, 0, &mut buf),
            Err(RegionError::NotOwner { .. })
        ));
    }

    #[test]
    fn out_of_bounds_access_is_rejected() {
        let (_topo, mut mgr, dram, _) = setup();
        let id = alloc(&mut mgr, dram, RegionType::Output, T0);
        let mut buf = [0u8; 8];
        assert!(matches!(
            mgr.read(id, T0, 250, &mut buf),
            Err(RegionError::OutOfBounds { .. })
        ));
        assert!(matches!(
            mgr.write(id, T0, u64::MAX, &[1]),
            Err(RegionError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn transfer_moves_ownership_without_moving_bytes() {
        let (_topo, mut mgr, dram, _) = setup();
        let id = alloc(&mut mgr, dram, RegionType::Output, T0);
        mgr.write(id, T0, 0, &[9]).unwrap();
        mgr.transfer(id, T0, T1).unwrap();
        // New owner sees the same bytes at the same placement.
        let mut buf = [0u8; 1];
        mgr.read(id, T1, 0, &mut buf).unwrap();
        assert_eq!(buf, [9]);
        // Old owner lost access.
        assert!(mgr.read(id, T0, 0, &mut buf).is_err());
    }

    #[test]
    fn private_scratch_cannot_transfer_or_share() {
        let (topo, mut mgr, dram, _) = setup();
        let id = alloc(&mut mgr, dram, RegionType::PrivateScratch, T0);
        assert!(matches!(
            mgr.transfer(id, T0, T1),
            Err(RegionError::NotTransferable(_))
        ));
        assert!(matches!(
            mgr.share(id, T0, T1, &topo),
            Err(RegionError::NotShareable(_))
        ));
    }

    #[test]
    fn sharing_requires_coherent_device() {
        let (topo, mut mgr, dram, far) = setup();
        let ok = alloc(&mut mgr, dram, RegionType::GlobalScratch, T0);
        mgr.share(ok, T0, T1, &topo).unwrap();
        assert_eq!(mgr.meta(ok).unwrap().ownership.owners().len(), 2);

        // Far memory is outside the coherence domain in this setup.
        let props = PropertySet::new().with_mode(crate::props::AccessMode::Async);
        let bad = mgr
            .alloc(far, 64, RegionType::GlobalScratch, props, T0, SimTime::ZERO)
            .unwrap();
        assert!(matches!(
            mgr.share(bad, T0, T1, &topo),
            Err(RegionError::IncoherentShare { .. })
        ));
    }

    #[test]
    fn shared_regions_cannot_transfer() {
        let (topo, mut mgr, dram, _) = setup();
        let id = alloc(&mut mgr, dram, RegionType::GlobalScratch, T0);
        mgr.share(id, T0, T1, &topo).unwrap();
        assert!(matches!(
            mgr.transfer(id, T0, OwnerId::App),
            Err(RegionError::SharedTransfer(_))
        ));
    }

    #[test]
    fn release_frees_on_last_owner() {
        let (topo, mut mgr, dram, _) = setup();
        let id = alloc(&mut mgr, dram, RegionType::GlobalScratch, T0);
        mgr.share(id, T0, T1, &topo).unwrap();
        assert!(!mgr.release(id, T0).unwrap(), "one owner remains");
        assert!(mgr.is_live(id));
        assert!(mgr.release(id, T1).unwrap(), "last owner frees");
        assert!(!mgr.is_live(id));
        assert_eq!(mgr.pool().allocated(dram), 0);
    }

    #[test]
    fn shared_release_downgrades_to_exclusive() {
        let (topo, mut mgr, dram, _) = setup();
        let id = alloc(&mut mgr, dram, RegionType::GlobalScratch, T0);
        mgr.share(id, T0, T1, &topo).unwrap();
        mgr.release(id, T0).unwrap();
        // T1 is now the exclusive owner and can transfer.
        assert!(matches!(
            mgr.meta(id).unwrap().ownership,
            Ownership::Exclusive(o) if o == T1
        ));
        mgr.transfer(id, T1, T0).unwrap();
    }

    /// The regions `trace` records as freed from event `mark` on.
    fn freed_since(trace: &Trace, mark: usize) -> Vec<RegionId> {
        trace.events()[mark..]
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Free { region, .. } => Some(RegionId(region)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn release_all_cleans_up_task_state() {
        let (_topo, mut mgr, dram, _) = setup();
        let a = alloc(&mut mgr, dram, RegionType::PrivateScratch, T0);
        let b = alloc(&mut mgr, dram, RegionType::Output, T0);
        let c = alloc(&mut mgr, dram, RegionType::Output, T1);
        let mut trace = Trace::enabled();
        mgr.release_all_traced(&mut trace, T0, SimTime(100));
        assert_eq!(freed_since(&trace, 0), vec![a, b]);
        assert!(trace.events().iter().all(|e| e.at() == SimTime(100)));
        assert!(mgr.is_live(c));
        assert_eq!(mgr.live_count(), 1);
    }

    #[test]
    fn task_exit_releases_everything() {
        let (_topo, mut mgr, dram, _) = setup();
        for _ in 0..3 {
            alloc(&mut mgr, dram, RegionType::PrivateScratch, T0);
        }
        let out = alloc(&mut mgr, dram, RegionType::Output, T0);
        mgr.transfer(out, T0, T1).unwrap();
        assert_eq!(mgr.live_count(), 4);
        // The producer's exit frees its three scratch regions; the output
        // it handed over belongs to the consumer and stays live.
        let mut trace = Trace::enabled();
        mgr.release_all_traced(&mut trace, T0, SimTime(100));
        assert_eq!(mgr.live_count(), 1);
        assert!(mgr.is_live(out));
        assert_eq!(trace.count(|e| matches!(e, TraceEvent::Free { .. })), 3);
    }

    #[test]
    fn the_traced_path_books_exactly_what_the_pool_does() {
        let (topo, mut mgr, dram, far) = setup();
        let mut trace = Trace::enabled();
        let t = |n| SimTime(n);
        let props = RegionType::GlobalScratch.properties();
        let a = mgr
            .alloc_traced(&mut trace, dram, 300, RegionType::GlobalScratch, props.clone(), T0, t(1))
            .unwrap();
        let b = mgr
            .alloc_traced(&mut trace, far, 500, RegionType::Output, props.clone(), T0, t(2))
            .unwrap();
        // A failed allocation books nothing.
        assert!(mgr
            .alloc_traced(&mut trace, dram, 2 << 20, RegionType::Output, props, T0, t(3))
            .is_err());
        mgr.share(a, T0, T1, &topo).unwrap();
        // Dropping one of two owners frees nothing, so books nothing.
        assert!(!mgr.release_traced(&mut trace, a, T0, t(4)).unwrap());
        assert!(mgr.release_traced(&mut trace, a, T0, t(5)).is_err());
        assert!(mgr.release_traced(&mut trace, a, T1, t(6)).unwrap());
        mgr.release_all_traced(&mut trace, T0, t(7));
        assert_eq!(
            trace.events(),
            &[
                TraceEvent::Alloc { region: a.0, dev: dram, bytes: 300, at: t(1) },
                TraceEvent::Alloc { region: b.0, dev: far, bytes: 500, at: t(2) },
                TraceEvent::Free { region: a.0, dev: dram, bytes: 300, at: t(6) },
                TraceEvent::Free { region: b.0, dev: far, bytes: 500, at: t(7) },
            ]
        );
        assert_eq!(mgr.pool().allocated(dram) + mgr.pool().allocated(far), 0);
    }

    #[test]
    fn owned_by_lists_are_accurate() {
        let (topo, mut mgr, dram, _) = setup();
        let a = alloc(&mut mgr, dram, RegionType::Output, T0);
        let b = alloc(&mut mgr, dram, RegionType::GlobalScratch, T0);
        mgr.share(b, T0, T1, &topo).unwrap();
        assert_eq!(mgr.owned_by(T0), vec![a, b]);
        assert_eq!(mgr.owned_by(T1), vec![b]);
    }

    /// What the manager must remember about one live region, kept the
    /// naive way: a `Vec` scanned on every question.
    struct ModelRegion {
        id: RegionId,
        rtype: RegionType,
        dev: MemDeviceId,
        /// Owners in grant order (a self-share records the owner twice,
        /// as `Ownership::Shared` does).
        owners: Vec<OwnerId>,
        shared: bool,
    }

    /// Seeded random alloc / share / transfer / release /
    /// `release_all_traced` against the naive model: every result, error,
    /// freed set and `owned_by` list must agree after every step.
    #[test]
    fn random_operations_agree_with_a_naive_model() {
        use disagg_hwsim::rng::SimRng;
        const WHO: [OwnerId; 7] = [
            T0,
            T1,
            OTHER_JOB,
            OwnerId::Task { job: 2, task: 1 },
            OwnerId::Job(1),
            OwnerId::Job(2),
            OwnerId::App,
        ];
        const TYPES: [RegionType; 3] = [
            RegionType::Output,
            RegionType::GlobalScratch,
            RegionType::PrivateScratch,
        ];
        // `check_access` without confidentiality: direct ownership, or
        // an owner at job/app scope covering `who`.
        let can_access = |r: &ModelRegion, who: OwnerId| {
            r.owners.iter().any(|&o| match o {
                _ if o == who => true,
                OwnerId::Job(j) => who.job() == Some(j),
                OwnerId::App => true,
                OwnerId::Task { .. } => false,
            })
        };
        let unknown = |id| RegionError::Alloc(AllocError::UnknownRegion(id));

        for seed in [1u64, 2, 3, 23] {
            let (topo, mut mgr, dram, far) = setup();
            let mut rng = SimRng::new(seed);
            let mut model: Vec<ModelRegion> = Vec::new();
            let mut issued: Vec<RegionId> = Vec::new();
            let mut errors = [0usize; 2];
            for step in 0..600 {
                // Mostly a live region and one of its owners, so that
                // operations succeed; otherwise any id ever issued and
                // anyone, so that they fail in every way.
                let id = if !model.is_empty() && rng.chance(0.8) {
                    rng.pick(&model).id
                } else if issued.is_empty() {
                    RegionId(0)
                } else {
                    *rng.pick(&issued)
                };
                let at = model.iter().position(|r| r.id == id);
                let who = match at {
                    Some(i) if rng.chance(0.6) => *rng.pick(&model[i].owners),
                    _ => *rng.pick(&WHO),
                };
                let other = *rng.pick(&WHO);
                match rng.next_below(if model.len() < 24 { 12 } else { 8 }) {
                    0..=2 => {
                        let got = mgr.share(id, who, other, &topo);
                        let want = match at {
                            None => Err(unknown(id)),
                            Some(i) if !can_access(&model[i], who) => {
                                Err(RegionError::NotOwner { region: id, who })
                            }
                            Some(i) if !model[i].rtype.shareable() => {
                                Err(RegionError::NotShareable(id))
                            }
                            Some(i) if model[i].dev == far => Err(RegionError::IncoherentShare {
                                region: id,
                                dev: far,
                            }),
                            Some(i) => {
                                let r = &mut model[i];
                                if !r.shared {
                                    r.shared = true;
                                    r.owners.push(other);
                                } else if !r.owners.contains(&other) {
                                    r.owners.push(other);
                                }
                                Ok(())
                            }
                        };
                        assert_eq!(got, want, "seed {seed} step {step}: share");
                    }
                    3..=5 => {
                        let got = mgr.transfer(id, who, other);
                        let want = match at {
                            None => Err(unknown(id)),
                            Some(i) if !model[i].rtype.transferable() => {
                                Err(RegionError::NotTransferable(id))
                            }
                            Some(i) if model[i].shared => Err(RegionError::SharedTransfer(id)),
                            Some(i) if model[i].owners[0] != who => {
                                Err(RegionError::NotOwner { region: id, who })
                            }
                            Some(i) => {
                                model[i].owners[0] = other;
                                Ok(())
                            }
                        };
                        errors[0] += usize::from(matches!(got, Err(RegionError::NotOwner { .. })));
                        errors[1] +=
                            usize::from(matches!(got, Err(RegionError::SharedTransfer(_))));
                        assert_eq!(got, want, "seed {seed} step {step}: transfer");
                    }
                    6 => {
                        let got = mgr.release(id, who);
                        let want = match at {
                            None => Err(unknown(id)),
                            Some(i) if !model[i].owners.contains(&who) => {
                                Err(RegionError::NotOwner { region: id, who })
                            }
                            Some(i) => {
                                let r = &mut model[i];
                                r.owners.retain(|&o| o != who);
                                let freed = !r.shared || r.owners.is_empty();
                                r.shared = r.owners.len() > 1;
                                if freed {
                                    model.remove(i);
                                }
                                Ok(freed)
                            }
                        };
                        assert_eq!(got, want, "seed {seed} step {step}: release");
                    }
                    7 => {
                        let mut want = Vec::new();
                        model.retain_mut(|r| {
                            if !r.owners.contains(&who) {
                                return true;
                            }
                            r.owners.retain(|&o| o != who);
                            let freed = !r.shared || r.owners.is_empty();
                            r.shared = r.owners.len() > 1;
                            if freed {
                                want.push(r.id);
                            }
                            !freed
                        });
                        let mut trace = Trace::enabled();
                        mgr.release_all_traced(&mut trace, who, SimTime::ZERO);
                        assert_eq!(
                            freed_since(&trace, 0),
                            want,
                            "seed {seed} step {step}: release_all_traced"
                        );
                    }
                    _ => {
                        let rtype = *rng.pick(&TYPES);
                        let dev = if rng.chance(0.7) { dram } else { far };
                        let id = mgr
                            .alloc(dev, 64, rtype, rtype.properties(), who, SimTime::ZERO)
                            .unwrap();
                        issued.push(id);
                        model.push(ModelRegion {
                            id,
                            rtype,
                            dev,
                            owners: vec![who],
                            shared: false,
                        });
                    }
                }
                assert_eq!(mgr.live_count(), model.len(), "seed {seed} step {step}");
                assert_eq!(
                    mgr.pool().live_count(),
                    model.len(),
                    "seed {seed} step {step}"
                );
                for who in WHO {
                    let want: Vec<RegionId> = model
                        .iter()
                        .filter(|r| r.owners.contains(&who))
                        .map(|r| r.id)
                        .collect();
                    assert_eq!(
                        mgr.owned_by(who),
                        want,
                        "seed {seed} step {step}: owned_by {who:?}"
                    );
                }
                for r in &model {
                    assert_eq!(mgr.meta(r.id).unwrap().ownership.owners(), &r.owners[..]);
                }
            }
            assert!(
                errors.iter().all(|&n| n > 5),
                "seed {seed}: both transfer errors must occur: {errors:?}"
            );
        }
    }

    #[test]
    fn zero_copy_views_respect_ownership() {
        let (_topo, mut mgr, dram, _) = setup();
        let id = alloc(&mut mgr, dram, RegionType::Output, T0);
        mgr.write(id, T0, 0, &[5]).unwrap();
        assert_eq!(mgr.bytes(id, T0).unwrap()[0], 5);
        assert!(mgr.bytes(id, T1).is_err());
    }
}
