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

use std::collections::HashMap;

use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::time::SimTime;
use disagg_hwsim::topology::Topology;

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

/// The ownership bookkeeper on top of the [`MemoryPool`].
#[derive(Debug)]
pub struct RegionManager {
    pool: MemoryPool,
    meta: HashMap<RegionId, RegionMeta>,
    /// Owner → regions index, kept in sync with `meta` ownership so
    /// task-exit cleanup (`owned_by`/`release_all`, called once per
    /// task) is O(regions of that owner), not a scan of every live
    /// region.
    owners: HashMap<OwnerId, Vec<RegionId>>,
}

impl RegionManager {
    /// Creates a manager over a fresh pool for the topology.
    pub fn new(topo: &Topology) -> Self {
        RegionManager {
            pool: MemoryPool::new(topo),
            meta: HashMap::new(),
            owners: HashMap::new(),
        }
    }

    fn index_add(&mut self, owner: OwnerId, id: RegionId) {
        self.owners.entry(owner).or_default().push(id);
    }

    fn index_remove(&mut self, owner: OwnerId, id: RegionId) {
        if let Some(v) = self.owners.get_mut(&owner) {
            v.retain(|&r| r != id);
            if v.is_empty() {
                self.owners.remove(&owner);
            }
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

    /// Live regions owned (exclusively or shared) by `owner`.
    pub fn owned_by(&self, owner: OwnerId) -> Vec<RegionId> {
        let mut v = self.owners.get(&owner).cloned().unwrap_or_default();
        v.sort();
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

    /// Borrows a region's bytes read-only (zero-copy view for owners).
    /// Only contiguous (dense-backed) regions support this; regions above
    /// [`crate::pool::DENSE_BACKING_LIMIT`] must use [`RegionManager::read`].
    pub fn bytes(&self, id: RegionId, who: OwnerId) -> Result<&[u8], RegionError> {
        self.check_access(id, who)?;
        Ok(self.pool.data(id)?)
    }

    /// Borrows a region's bytes mutably (zero-copy view for owners).
    /// Dense-backed regions only; see [`RegionManager::bytes`].
    pub fn bytes_mut(&mut self, id: RegionId, who: OwnerId) -> Result<&mut [u8], RegionError> {
        self.check_access(id, who)?;
        Ok(self.pool.data_mut(id)?)
    }

    /// Copies the full contents of `src` into `dst` (both must be live;
    /// `dst` must be at least as large). Works for regions of any size and
    /// moves only bytes that were ever written. Ownership checks are
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
        let meta = self.meta(id)?;
        if !meta.ownership.is_owner(who) {
            return Err(RegionError::NotOwner { region: id, who });
        }
        let empty = {
            let meta = self.meta.get_mut(&id).expect("checked above");
            match &mut meta.ownership {
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
            }
        };
        self.index_remove(who, id);
        if empty {
            self.meta.remove(&id);
            self.pool.free(id)?;
        }
        Ok(empty)
    }

    /// Releases everything a given owner holds (task-exit cleanup).
    /// Returns the regions that were freed outright.
    pub fn release_all(&mut self, who: OwnerId) -> Vec<RegionId> {
        let owned = self.owned_by(who);
        let mut freed = Vec::new();
        for id in owned {
            if self.release(id, who).unwrap_or(false) {
                freed.push(id);
            }
        }
        freed
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

    #[test]
    fn release_all_cleans_up_task_state() {
        let (_topo, mut mgr, dram, _) = setup();
        let a = alloc(&mut mgr, dram, RegionType::PrivateScratch, T0);
        let b = alloc(&mut mgr, dram, RegionType::Output, T0);
        let c = alloc(&mut mgr, dram, RegionType::Output, T1);
        let freed = mgr.release_all(T0);
        assert_eq!(freed.len(), 2);
        assert!(freed.contains(&a) && freed.contains(&b));
        assert!(mgr.is_live(c));
        assert_eq!(mgr.live_count(), 1);
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

    #[test]
    fn zero_copy_views_respect_ownership() {
        let (_topo, mut mgr, dram, _) = setup();
        let id = alloc(&mut mgr, dram, RegionType::Output, T0);
        mgr.bytes_mut(id, T0).unwrap()[0] = 5;
        assert_eq!(mgr.bytes(id, T0).unwrap()[0], 5);
        assert!(mgr.bytes(id, T1).is_err());
    }
}
