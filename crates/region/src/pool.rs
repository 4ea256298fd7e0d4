//! The memory pool: per-device arenas with real backing bytes.
//!
//! Every simulated memory device gets an *arena* that tracks offset-based
//! allocations against the device's capacity with a coalescing first-fit
//! free list — so capacity pressure and fragmentation are real, measurable
//! effects. The *contents* of each allocation are backed by ordinary heap
//! memory, so tasks compute on real bytes while capacities can be
//! terabytes without reserving terabytes of host RAM.
//!
//! # Bytes materialize on write
//!
//! Arena accounting is charged at `alloc`; host memory is not. A region's
//! bytes exist only once somebody writes them:
//!
//! - a region up to [`DENSE_BACKING_LIMIT`] gets its one contiguous,
//!   zeroed buffer on the first `write_at`, or on the first contiguous
//!   view (`data`) — a view has to point at something;
//! - a larger region materializes one `SPARSE_PAGE` at a time, on write;
//! - `read_at` of bytes nobody wrote zero-fills the caller's buffer and
//!   materializes nothing;
//! - `copy_between` moves only materialized extents: an unwritten source
//!   is zeros, so it costs nothing into an unwritten destination and a
//!   `fill(0)` into a written one.
//!
//! "Materialized or not" is the only state; there is no dirty tracking.
//! What still materializes is everything that really holds data: app
//! task bodies and `Accessor` writes, contiguous views, and the
//! replica/stripe regions of `disagg-ftol`. What no longer does is the
//! synthetic output of a task body that only charges compute time, and
//! every handover copy of it. The rule exists because the eager version
//! was measured: one 48-request serving pass allocated ≈1 GiB of such
//! outputs and copied ≈1.25 GiB of zeros between them, ≈80 % of the
//! pass in the kernel. `vec![0; n]` is a `calloc`, which is free only
//! while glibc serves it with fresh `mmap` pages; freeing a few large
//! buffers raises glibc's dynamic mmap threshold (up to 32 MiB), after
//! which the same callocs come from the brk heap and are `memset`.
//! [`MemoryPool::bytes_materialized`] counts what was paid for.
//!
//! # Hot-path layout
//!
//! [`RegionId`]s are issued from a monotone counter and never reused, so
//! per-region state (placement + backing) lives in one dense slab `Vec`
//! indexed by the id — no hashing on the allocate/free/read/write paths,
//! and `live()` iterates in id order, which is deterministic. Sparse
//! backings keep their materialized pages in a sorted `Vec` with a
//! last-page cursor so sequential streams resolve pages in O(1), and
//! reads of ranges no page has ever touched zero-fill without any
//! per-page lookup at all.

use std::cell::{Cell, OnceCell};

use disagg_hwsim::ids::MemDeviceId;
use disagg_hwsim::topology::Topology;

/// Identifies one allocation (and later, one region) in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// No free extent of the requested size exists on the device.
    OutOfMemory {
        /// The device that could not satisfy the request.
        dev: MemDeviceId,
        /// Requested bytes.
        requested: u64,
        /// Bytes still free (possibly fragmented).
        free: u64,
    },
    /// Zero-sized allocations are rejected.
    ZeroSize,
    /// The id is unknown or already freed.
    UnknownRegion(RegionId),
    /// The region is too large for a contiguous byte view; use the
    /// offset-based `read_at`/`write_at` API instead.
    NotContiguous(RegionId),
    /// A copy asked for more bytes than one of its two regions holds.
    OutOfBounds {
        /// The region that is too small.
        region: RegionId,
        /// Bytes the copy asked for.
        len: u64,
        /// The region's logical size.
        size: u64,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory { dev, requested, free } => {
                write!(f, "{dev} cannot fit {requested} bytes ({free} free)")
            }
            AllocError::ZeroSize => write!(f, "zero-sized allocation"),
            AllocError::UnknownRegion(id) => write!(f, "unknown or freed region {id}"),
            AllocError::NotContiguous(id) => {
                write!(f, "region {id} is sparse-backed; use read_at/write_at")
            }
            AllocError::OutOfBounds { region, len, size } => {
                write!(f, "copy of {len} bytes exceeds region {region} of {size} bytes")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Where an allocation lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Backing device.
    pub dev: MemDeviceId,
    /// Byte offset within the device arena.
    pub offset: u64,
    /// Size in bytes.
    pub size: u64,
}

#[derive(Debug)]
struct Arena {
    capacity: u64,
    /// Free extents `(offset, len)`, sorted by offset, coalesced.
    free: Vec<(u64, u64)>,
    allocated: u64,
    peak: u64,
    /// `allocated / capacity`, refreshed wherever `allocated` changes:
    /// every placement reads it for every device, far more often than
    /// any one device's fill moves.
    utilization: f64,
}

impl Arena {
    fn new(capacity: u64) -> Self {
        Arena {
            capacity,
            free: if capacity > 0 { vec![(0, capacity)] } else { Vec::new() },
            allocated: 0,
            peak: 0,
            utilization: 0.0,
        }
    }

    fn free_bytes(&self) -> u64 {
        self.capacity - self.allocated
    }

    fn set_allocated(&mut self, allocated: u64) {
        self.allocated = allocated;
        self.peak = self.peak.max(allocated);
        self.utilization = if self.capacity == 0 {
            0.0
        } else {
            allocated as f64 / self.capacity as f64
        };
    }

    fn alloc(&mut self, size: u64) -> Option<u64> {
        // First fit.
        let idx = self.free.iter().position(|&(_, len)| len >= size)?;
        let (off, len) = self.free[idx];
        if len == size {
            self.free.remove(idx);
        } else {
            self.free[idx] = (off + size, len - size);
        }
        self.set_allocated(self.allocated + size);
        Some(off)
    }

    fn dealloc(&mut self, offset: u64, size: u64) {
        let pos = self.free.partition_point(|&(o, _)| o < offset);
        self.free.insert(pos, (offset, size));
        // Coalesce with neighbours.
        if pos + 1 < self.free.len() {
            let (o, l) = self.free[pos];
            let (no, nl) = self.free[pos + 1];
            if o + l == no {
                self.free[pos] = (o, l + nl);
                self.free.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (po, pl) = self.free[pos - 1];
            let (o, l) = self.free[pos];
            if po + pl == o {
                self.free[pos - 1] = (po, pl + l);
                self.free.remove(pos);
            }
        }
        self.set_allocated(self.allocated - size);
    }

    /// `1 - largest_free / total_free`; 0 when unfragmented or full.
    fn fragmentation(&self) -> f64 {
        let total: u64 = self.free.iter().map(|&(_, l)| l).sum();
        if total == 0 {
            return 0.0;
        }
        let largest = self.free.iter().map(|&(_, l)| l).max().unwrap_or(0);
        1.0 - largest as f64 / total as f64
    }
}

/// Regions up to this size get one contiguous heap buffer; larger
/// regions use sparse page-mapped backing so a simulated terabyte does
/// not need a real terabyte of host RAM.
pub const DENSE_BACKING_LIMIT: u64 = 64 << 20;

/// Page size of the sparse backing.
const SPARSE_PAGE: u64 = 64 << 10;

/// Backing storage for a region's bytes. Nothing is allocated until a
/// write (or, for `Dense`, a contiguous view) needs it; bytes that were
/// never materialized read as zero.
#[derive(Debug)]
enum Backing {
    /// One contiguous buffer of `len` bytes (small regions), allocated
    /// zeroed the first time it is written or viewed.
    Dense { buf: OnceCell<Vec<u8>>, len: usize },
    /// Lazily materialized pages; unmapped pages read as zero. The
    /// logical size lives in the pool's placement table.
    Sparse {
        /// Materialized pages `(page_number, bytes)`, sorted by page
        /// number. Pages only materialize on write, so most regions hold
        /// a handful and binary search is already cheap; the cursor makes
        /// sequential streams O(1) per page.
        pages: Vec<(u64, Box<[u8]>)>,
        /// Index into `pages` of the last page touched.
        cursor: Cell<usize>,
    },
}

/// Locates `page` in the sorted page list, preferring the cursor hint
/// (exact hit or its successor — the sequential-stream cases) before
/// falling back to binary search. Updates the cursor on success.
fn find_page(pages: &[(u64, Box<[u8]>)], cursor: &Cell<usize>, page: u64) -> Option<usize> {
    let c = cursor.get();
    if let Some(&(p, _)) = pages.get(c) {
        if p == page {
            return Some(c);
        }
        if p < page {
            if let Some(&(np, _)) = pages.get(c + 1) {
                if np == page {
                    cursor.set(c + 1);
                    return Some(c + 1);
                }
            }
        }
    }
    match pages.binary_search_by_key(&page, |&(p, _)| p) {
        Ok(i) => {
            cursor.set(i);
            Some(i)
        }
        Err(_) => None,
    }
}

impl Backing {
    fn new(size: u64) -> Backing {
        if size <= DENSE_BACKING_LIMIT {
            Backing::Dense { buf: OnceCell::new(), len: size as usize }
        } else {
            Backing::Sparse { pages: Vec::new(), cursor: Cell::new(0) }
        }
    }

    /// Host bytes this backing holds (0 until something is written).
    fn materialized(&self) -> u64 {
        match self {
            Backing::Dense { buf, .. } => buf.get().map_or(0, |v| v.len() as u64),
            Backing::Sparse { pages, .. } => pages.len() as u64 * SPARSE_PAGE,
        }
    }

    fn read(&self, offset: u64, buf: &mut [u8]) {
        match self {
            Backing::Dense { buf: cell, len } => {
                let range = offset as usize..offset as usize + buf.len();
                match cell.get() {
                    Some(v) => buf.copy_from_slice(&v[range]),
                    None => {
                        assert!(range.end <= *len, "read past the end of the region");
                        buf.fill(0);
                    }
                }
            }
            Backing::Sparse { pages, cursor } => {
                if buf.is_empty() {
                    return;
                }
                // Zero-fill fast path: a range no write has ever touched
                // needs no per-page lookups at all.
                let first = offset / SPARSE_PAGE;
                let last = (offset + buf.len() as u64 - 1) / SPARSE_PAGE;
                let untouched = match (pages.first(), pages.last()) {
                    (Some(&(lo, _)), Some(&(hi, _))) => last < lo || first > hi,
                    _ => true,
                };
                if untouched {
                    buf.fill(0);
                    return;
                }
                let mut done = 0usize;
                while done < buf.len() {
                    let pos = offset + done as u64;
                    let page = pos / SPARSE_PAGE;
                    let within = (pos % SPARSE_PAGE) as usize;
                    let take = (SPARSE_PAGE as usize - within).min(buf.len() - done);
                    match find_page(pages, cursor, page) {
                        Some(i) => {
                            let p = &pages[i].1;
                            buf[done..done + take].copy_from_slice(&p[within..within + take]);
                        }
                        None => buf[done..done + take].fill(0),
                    }
                    done += take;
                }
            }
        }
    }

    fn write(&mut self, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        match self {
            Backing::Dense { .. } => {
                let v = self.as_mut_slice().expect("dense backing has a contiguous view");
                v[offset as usize..offset as usize + data.len()].copy_from_slice(data);
            }
            Backing::Sparse { pages, cursor } => {
                let mut done = 0usize;
                while done < data.len() {
                    let pos = offset + done as u64;
                    let page = pos / SPARSE_PAGE;
                    let within = (pos % SPARSE_PAGE) as usize;
                    let take = (SPARSE_PAGE as usize - within).min(data.len() - done);
                    let i = match find_page(pages, cursor, page) {
                        Some(i) => i,
                        None => {
                            let at = pages.partition_point(|&(p, _)| p < page);
                            pages.insert(
                                at,
                                (page, vec![0u8; SPARSE_PAGE as usize].into_boxed_slice()),
                            );
                            cursor.set(at);
                            at
                        }
                    };
                    pages[i].1[within..within + take].copy_from_slice(&data[done..done + take]);
                    done += take;
                }
            }
        }
    }

    /// Zeroes `[start, end)` wherever the backing holds bytes there;
    /// what was never materialized is zero already and stays absent.
    fn zero(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        match self {
            Backing::Dense { buf, .. } => {
                if let Some(v) = buf.get_mut() {
                    v[start as usize..end as usize].fill(0);
                }
            }
            Backing::Sparse { pages, .. } => {
                let from = pages.partition_point(|&(p, _)| (p + 1) * SPARSE_PAGE <= start);
                for (p, bytes) in &mut pages[from..] {
                    let base = *p * SPARSE_PAGE;
                    if base >= end {
                        break;
                    }
                    let lo = start.saturating_sub(base) as usize;
                    let hi = (end - base).min(SPARSE_PAGE) as usize;
                    bytes[lo..hi].fill(0);
                }
            }
        }
    }

    /// Makes `self[..len]` equal `src[..len]`, touching only what either
    /// side has materialized. The caller has checked `len` against both
    /// logical sizes.
    fn copy_from(&mut self, src: &Backing, len: u64) {
        match src {
            Backing::Dense { buf, .. } => match buf.get() {
                Some(v) => self.write(0, &v[..len as usize]),
                None => self.zero(0, len),
            },
            Backing::Sparse { pages, .. } => {
                let mut pos = 0u64;
                for (p, bytes) in pages {
                    let base = *p * SPARSE_PAGE;
                    if base >= len {
                        break;
                    }
                    self.zero(pos, base);
                    let take = (len - base).min(SPARSE_PAGE);
                    self.write(base, &bytes[..take as usize]);
                    pos = base + take;
                }
                self.zero(pos, len);
            }
        }
    }

    fn as_slice(&self) -> Option<&[u8]> {
        match self {
            Backing::Dense { buf, len } => Some(buf.get_or_init(|| vec![0u8; *len])),
            Backing::Sparse { .. } => None,
        }
    }

    fn as_mut_slice(&mut self) -> Option<&mut [u8]> {
        match self {
            Backing::Dense { buf, len } => {
                buf.get_or_init(|| vec![0u8; *len]);
                buf.get_mut().map(Vec::as_mut_slice)
            }
            Backing::Sparse { .. } => None,
        }
    }
}

/// Per-region state in the slab.
#[derive(Debug)]
struct RegionSlot {
    placement: Placement,
    backing: Backing,
}

/// The pool of all memory devices in a topology.
#[derive(Debug)]
pub struct MemoryPool {
    arenas: Vec<Arena>,
    /// Dense slab indexed by `RegionId`; ids are monotone and never
    /// reused, so a freed region leaves a `None` tombstone.
    slots: Vec<Option<RegionSlot>>,
    live: usize,
    /// Backing bytes held by regions that have since been freed.
    retired_materialized: u64,
}

impl MemoryPool {
    /// Builds a pool with one arena per memory device in the topology.
    pub fn new(topo: &Topology) -> Self {
        MemoryPool {
            arenas: topo.mem_devices().iter().map(|m| Arena::new(m.capacity)).collect(),
            slots: Vec::new(),
            live: 0,
            retired_materialized: 0,
        }
    }

    fn slot(&self, id: RegionId) -> Result<&RegionSlot, AllocError> {
        self.slots
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(AllocError::UnknownRegion(id))
    }

    fn slot_mut(&mut self, id: RegionId) -> Result<&mut RegionSlot, AllocError> {
        self.slots
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(AllocError::UnknownRegion(id))
    }

    /// Makes room in the slot table for `regions` more allocations, so a
    /// caller that knows how many it is about to make (an executor wave)
    /// spares the table its doubling reallocations.
    pub fn reserve(&mut self, regions: usize) {
        self.slots.reserve(regions);
    }

    /// Allocates `size` bytes on `dev`. The region reads as zeros; no host
    /// memory backs it until it is written (see the module docs).
    pub fn alloc(&mut self, dev: MemDeviceId, size: u64) -> Result<RegionId, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let arena = &mut self.arenas[dev.index()];
        let offset = arena.alloc(size).ok_or(AllocError::OutOfMemory {
            dev,
            requested: size,
            free: arena.free_bytes(),
        })?;
        let id = RegionId(self.slots.len() as u64);
        self.slots.push(Some(RegionSlot {
            placement: Placement { dev, offset, size },
            backing: Backing::new(size),
        }));
        self.live += 1;
        Ok(id)
    }

    /// Frees an allocation, returning its former placement.
    pub fn free(&mut self, id: RegionId) -> Result<Placement, AllocError> {
        let slot = self
            .slots
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .ok_or(AllocError::UnknownRegion(id))?;
        let placement = slot.placement;
        self.arenas[placement.dev.index()].dealloc(placement.offset, placement.size);
        self.live -= 1;
        self.retired_materialized += slot.backing.materialized();
        Ok(placement)
    }

    /// The placement of a live allocation.
    pub fn placement(&self, id: RegionId) -> Result<Placement, AllocError> {
        Ok(self.slot(id)?.placement)
    }

    /// True if the id refers to a live allocation.
    pub fn is_live(&self, id: RegionId) -> bool {
        self.slot(id).is_ok()
    }

    /// Read access to an allocation's bytes as one contiguous slice
    /// (materializes the buffer if nothing has yet). Fails with
    /// [`AllocError::NotContiguous`] for sparse-backed regions (larger
    /// than [`DENSE_BACKING_LIMIT`]); use [`MemoryPool::read_at`] for
    /// those.
    pub fn data(&self, id: RegionId) -> Result<&[u8], AllocError> {
        self.slot(id)?
            .backing
            .as_slice()
            .ok_or(AllocError::NotContiguous(id))
    }

    /// Reads `buf.len()` bytes at `offset` (works for any backing).
    /// The caller checks bounds; out-of-range access panics.
    pub fn read_at(&self, id: RegionId, offset: u64, buf: &mut [u8]) -> Result<(), AllocError> {
        self.slot(id)?.backing.read(offset, buf);
        Ok(())
    }

    /// Writes `data` at `offset` (works for any backing).
    pub fn write_at(&mut self, id: RegionId, offset: u64, data: &[u8]) -> Result<(), AllocError> {
        self.slot_mut(id)?.backing.write(offset, data);
        Ok(())
    }

    /// Makes the first `len` bytes of `dst` equal those of `src` (works
    /// for any backing combination; used by handover copies and
    /// replication). Only materialized extents move: unwritten source
    /// bytes are zeros, which an unwritten destination already holds.
    /// Copying a region onto itself, or zero bytes, does nothing.
    pub fn copy_between(
        &mut self,
        src: RegionId,
        dst: RegionId,
        len: u64,
    ) -> Result<(), AllocError> {
        for id in [src, dst] {
            let size = self.slot(id)?.placement.size;
            if len > size {
                return Err(AllocError::OutOfBounds { region: id, len, size });
            }
        }
        if src == dst || len == 0 {
            return Ok(());
        }
        // Split the slab so both slots can be borrowed at once.
        let (s, d) = (src.0 as usize, dst.0 as usize);
        let (low, high) = self.slots.split_at_mut(s.max(d));
        let (src_slot, dst_slot) = if s < d {
            (&low[s], &mut high[0])
        } else {
            (&high[0], &mut low[d])
        };
        let (Some(src_slot), Some(dst_slot)) = (src_slot, dst_slot) else {
            unreachable!("both regions were live above");
        };
        dst_slot.backing.copy_from(&src_slot.backing, len);
        Ok(())
    }

    /// Moves an allocation's backing to another device (the physical part
    /// of a migration). Contents are preserved; the id stays the same.
    pub fn rebind(&mut self, id: RegionId, to: MemDeviceId) -> Result<Placement, AllocError> {
        let old = self.placement(id)?;
        if old.dev == to {
            return Ok(old);
        }
        let arena = &mut self.arenas[to.index()];
        let offset = arena.alloc(old.size).ok_or(AllocError::OutOfMemory {
            dev: to,
            requested: old.size,
            free: arena.free_bytes(),
        })?;
        self.arenas[old.dev.index()].dealloc(old.offset, old.size);
        let new = Placement {
            dev: to,
            offset,
            size: old.size,
        };
        self.slot_mut(id)?.placement = new;
        Ok(new)
    }

    /// Bytes currently allocated on a device.
    pub fn allocated(&self, dev: MemDeviceId) -> u64 {
        self.arenas[dev.index()].allocated
    }

    /// Peak bytes ever allocated on a device.
    pub fn peak(&self, dev: MemDeviceId) -> u64 {
        self.arenas[dev.index()].peak
    }

    /// Capacity of a device arena.
    pub fn capacity(&self, dev: MemDeviceId) -> u64 {
        self.arenas[dev.index()].capacity
    }

    /// Fraction of a device's capacity currently allocated.
    pub fn utilization(&self, dev: MemDeviceId) -> f64 {
        self.arenas[dev.index()].utilization
    }

    /// Fragmentation of a device arena (`1 - largest_free/total_free`).
    pub fn fragmentation(&self, dev: MemDeviceId) -> f64 {
        self.arenas[dev.index()].fragmentation()
    }

    /// Total backing bytes this pool has ever materialized: a dense
    /// region counts its whole buffer from its first write or contiguous
    /// view, a sparse region `SPARSE_PAGE` per page written. Monotone,
    /// and exact per seed — the laziness tests and the bench driver's
    /// throughput line read it. Walks the slab; not for hot paths.
    pub fn bytes_materialized(&self) -> u64 {
        let live: u64 = self.slots.iter().flatten().map(|s| s.backing.materialized()).sum();
        self.retired_materialized + live
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Iterates over live allocations in id (allocation) order.
    pub fn live(&self) -> impl Iterator<Item = (RegionId, Placement)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (RegionId(i as u64), s.placement)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::compute::{ComputeKind, ComputeModel};
    use disagg_hwsim::device::{MemDeviceKind, MemDeviceModel};
    use disagg_hwsim::rng::SimRng;
    use disagg_hwsim::topology::{LinkKind, Topology};
    use std::collections::{BTreeMap, BTreeSet};

    fn pool_with_capacity(cap: u64) -> (MemoryPool, MemDeviceId) {
        let mut b = Topology::builder();
        let n = b.node("host");
        let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        let dram = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, cap));
        b.link(cpu, dram, LinkKind::MemBus);
        let topo = b.build().unwrap();
        (MemoryPool::new(&topo), dram)
    }

    /// The parallel sweep driver builds runtimes on worker threads; the
    /// interior cells of the backings must not cost the pool `Send`.
    #[test]
    fn pool_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<MemoryPool>();
    }

    #[test]
    fn alloc_free_round_trip_restores_capacity() {
        let (mut pool, dev) = pool_with_capacity(1024);
        let id = pool.alloc(dev, 512).unwrap();
        assert_eq!(pool.allocated(dev), 512);
        assert!(pool.is_live(id));
        pool.free(id).unwrap();
        assert_eq!(pool.allocated(dev), 0);
        assert!(!pool.is_live(id));
        // The full extent is available again.
        let id2 = pool.alloc(dev, 1024).unwrap();
        assert_eq!(pool.placement(id2).unwrap().offset, 0);
    }

    #[test]
    fn capacity_is_enforced() {
        let (mut pool, dev) = pool_with_capacity(1024);
        pool.alloc(dev, 1000).unwrap();
        let err = pool.alloc(dev, 100).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { free: 24, .. }));
    }

    #[test]
    fn zero_size_rejected() {
        let (mut pool, dev) = pool_with_capacity(1024);
        assert_eq!(pool.alloc(dev, 0).unwrap_err(), AllocError::ZeroSize);
    }

    #[test]
    fn double_free_is_an_error() {
        let (mut pool, dev) = pool_with_capacity(1024);
        let id = pool.alloc(dev, 64).unwrap();
        pool.free(id).unwrap();
        assert_eq!(pool.free(id).unwrap_err(), AllocError::UnknownRegion(id));
    }

    #[test]
    fn buffers_are_zero_initialized_and_writable() {
        let (mut pool, dev) = pool_with_capacity(1024);
        let id = pool.alloc(dev, 16).unwrap();
        assert!(pool.data(id).unwrap().iter().all(|&b| b == 0));
        pool.write_at(id, 0, &[0xAB]).unwrap();
        assert_eq!(pool.data(id).unwrap()[0], 0xAB);
    }

    #[test]
    fn freeing_middle_block_coalesces() {
        let (mut pool, dev) = pool_with_capacity(300);
        let a = pool.alloc(dev, 100).unwrap();
        let b = pool.alloc(dev, 100).unwrap();
        let c = pool.alloc(dev, 100).unwrap();
        pool.free(a).unwrap();
        pool.free(c).unwrap();
        // Free list: [0,100) and [200,300) → fragmented.
        assert!(pool.fragmentation(dev) > 0.0);
        pool.free(b).unwrap();
        // Fully coalesced again.
        assert_eq!(pool.fragmentation(dev), 0.0);
        let big = pool.alloc(dev, 300).unwrap();
        assert_eq!(pool.placement(big).unwrap().offset, 0);
    }

    #[test]
    fn fragmentation_blocks_large_allocations_even_with_enough_total_free() {
        let (mut pool, dev) = pool_with_capacity(300);
        let a = pool.alloc(dev, 100).unwrap();
        let _b = pool.alloc(dev, 100).unwrap();
        let c = pool.alloc(dev, 100).unwrap();
        pool.free(a).unwrap();
        pool.free(c).unwrap();
        // 200 bytes free but no contiguous 150-byte extent.
        let err = pool.alloc(dev, 150).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { free: 200, .. }));
    }

    #[test]
    fn rebind_moves_between_devices_preserving_contents() {
        let mut b = Topology::builder();
        let n = b.node("host");
        let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        let d0 = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, 1024));
        let d1 = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::Pmem, 1024));
        b.link(cpu, d0, LinkKind::MemBus);
        b.link(cpu, d1, LinkKind::MemBus);
        let topo = b.build().unwrap();
        let mut pool = MemoryPool::new(&topo);

        let id = pool.alloc(d0, 64).unwrap();
        pool.write_at(id, 7, &[42]).unwrap();
        let new = pool.rebind(id, d1).unwrap();
        assert_eq!(new.dev, d1);
        assert_eq!(pool.allocated(d0), 0);
        assert_eq!(pool.allocated(d1), 64);
        assert_eq!(pool.data(id).unwrap()[7], 42);
    }

    #[test]
    fn rebind_to_same_device_is_a_no_op() {
        let (mut pool, dev) = pool_with_capacity(1024);
        let id = pool.alloc(dev, 64).unwrap();
        let before = pool.placement(id).unwrap();
        let after = pool.rebind(id, dev).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn rebind_fails_when_target_is_full_and_keeps_origin() {
        let mut b = Topology::builder();
        let n = b.node("host");
        let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        let d0 = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, 1024));
        let d1 = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::Pmem, 32));
        b.link(cpu, d0, LinkKind::MemBus);
        b.link(cpu, d1, LinkKind::MemBus);
        let topo = b.build().unwrap();
        let mut pool = MemoryPool::new(&topo);

        let id = pool.alloc(d0, 64).unwrap();
        assert!(pool.rebind(id, d1).is_err());
        assert_eq!(pool.placement(id).unwrap().dev, d0);
        assert_eq!(pool.allocated(d0), 64);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let (mut pool, dev) = pool_with_capacity(1024);
        let a = pool.alloc(dev, 400).unwrap();
        let b = pool.alloc(dev, 400).unwrap();
        pool.free(a).unwrap();
        pool.free(b).unwrap();
        assert_eq!(pool.peak(dev), 800);
        assert_eq!(pool.allocated(dev), 0);
    }

    #[test]
    fn utilization_reflects_allocated_fraction() {
        let (mut pool, dev) = pool_with_capacity(1000);
        pool.alloc(dev, 250).unwrap();
        assert!((pool.utilization(dev) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn live_iterates_all_allocations() {
        let (mut pool, dev) = pool_with_capacity(1024);
        let a = pool.alloc(dev, 10).unwrap();
        let b = pool.alloc(dev, 20).unwrap();
        let mut ids: Vec<RegionId> = pool.live().map(|(id, _)| id).collect();
        ids.sort();
        assert_eq!(ids, vec![a, b]);
        assert_eq!(pool.live_count(), 2);
    }

    #[test]
    fn offset_io_works_on_dense_backing() {
        let (mut pool, dev) = pool_with_capacity(1 << 20);
        let id = pool.alloc(dev, 4096).unwrap();
        pool.write_at(id, 100, b"hello").unwrap();
        let mut buf = [0u8; 5];
        pool.read_at(id, 100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        // data() works for dense regions.
        assert_eq!(&pool.data(id).unwrap()[100..105], b"hello");
    }

    #[test]
    fn huge_regions_are_sparse_and_reject_contiguous_views() {
        let (mut pool, dev) = pool_with_capacity(1 << 30);
        let id = pool.alloc(dev, 512 << 20).unwrap();
        assert!(matches!(pool.data(id), Err(AllocError::NotContiguous(_))));
        // But offset I/O works anywhere, and unwritten bytes read zero.
        pool.write_at(id, 400 << 20, b"far out").unwrap();
        let mut buf = [0u8; 7];
        pool.read_at(id, 400 << 20, &mut buf).unwrap();
        assert_eq!(&buf, b"far out");
        let mut z = [9u8; 4];
        pool.read_at(id, 100 << 20, &mut z).unwrap();
        assert_eq!(z, [0u8; 4]);
    }

    #[test]
    fn sparse_writes_spanning_page_boundaries_round_trip() {
        let (mut pool, dev) = pool_with_capacity(1 << 30);
        let id = pool.alloc(dev, 512 << 20).unwrap();
        // 64 KiB pages: straddle the boundary at page 1.
        let off = (64 << 10) - 3;
        let payload: Vec<u8> = (0..9).collect();
        pool.write_at(id, off, &payload).unwrap();
        let mut buf = vec![0u8; 9];
        pool.read_at(id, off, &mut buf).unwrap();
        assert_eq!(buf, payload);
    }

    #[test]
    fn copy_between_streams_across_backings() {
        let (mut pool, dev) = pool_with_capacity(1 << 30);
        // Dense source, sparse destination.
        let small = pool.alloc(dev, 4096).unwrap();
        let big = pool.alloc(dev, 512 << 20).unwrap();
        pool.write_at(small, 0, &[0xAB; 4096]).unwrap();
        pool.copy_between(small, big, 4096).unwrap();
        let mut buf = [0u8; 4096];
        pool.read_at(big, 0, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 4096]);
        // Unknown regions are rejected.
        assert!(pool.copy_between(RegionId(999), big, 1).is_err());
        assert!(pool.copy_between(small, RegionId(999), 1).is_err());
    }

    #[test]
    fn copy_between_checks_len_against_both_regions() {
        let (mut pool, dev) = pool_with_capacity(1 << 30);
        let small = pool.alloc(dev, 100).unwrap();
        let mid = pool.alloc(dev, 4096).unwrap();
        let big = pool.alloc(dev, 512 << 20).unwrap();
        pool.write_at(mid, 0, &[0xAB; 4096]).unwrap();
        assert_eq!(
            pool.copy_between(small, mid, 101).unwrap_err(),
            AllocError::OutOfBounds { region: small, len: 101, size: 100 }
        );
        assert_eq!(
            pool.copy_between(mid, small, 101).unwrap_err(),
            AllocError::OutOfBounds { region: small, len: 101, size: 100 }
        );
        // A sparse destination used to take the extra bytes silently.
        let before = pool.bytes_materialized();
        assert_eq!(
            pool.copy_between(big, mid, 4097).unwrap_err(),
            AllocError::OutOfBounds { region: mid, len: 4097, size: 4096 }
        );
        assert_eq!(
            pool.copy_between(mid, big, (512 << 20) + 1).unwrap_err(),
            AllocError::OutOfBounds { region: mid, len: (512 << 20) + 1, size: 4096 }
        );
        assert_eq!(pool.bytes_materialized(), before);
        assert_eq!(pool.data(mid).unwrap(), &[0xAB; 4096]);
    }

    #[test]
    fn copy_onto_itself_and_empty_copy_are_no_ops() {
        let (mut pool, dev) = pool_with_capacity(1 << 20);
        let a = pool.alloc(dev, 64).unwrap();
        let b = pool.alloc(dev, 64).unwrap();
        pool.write_at(a, 0, &[5; 64]).unwrap();
        pool.write_at(b, 0, &[6; 64]).unwrap();
        pool.copy_between(a, a, 64).unwrap();
        pool.copy_between(a, b, 0).unwrap();
        assert_eq!(pool.data(a).unwrap(), &[5; 64]);
        assert_eq!(pool.data(b).unwrap(), &[6; 64]);
        // Liveness is still checked.
        pool.free(a).unwrap();
        assert_eq!(pool.copy_between(a, a, 0).unwrap_err(), AllocError::UnknownRegion(a));
    }

    #[test]
    fn untouched_regions_never_materialize() {
        let (mut pool, dev) = pool_with_capacity(4 << 30);
        let ids: Vec<RegionId> = [4096, 32 << 20, DENSE_BACKING_LIMIT, 1 << 30]
            .iter()
            .map(|&size| pool.alloc(dev, size).unwrap())
            .collect();
        for &id in &ids {
            let mut buf = [0xFFu8; 3000];
            pool.read_at(id, 100, &mut buf).unwrap();
            assert_eq!(buf, [0u8; 3000]);
        }
        for &src in &ids {
            for &dst in &ids {
                pool.copy_between(src, dst, 4096).unwrap();
            }
        }
        pool.copy_between(ids[1], ids[2], 32 << 20).unwrap();
        pool.copy_between(ids[3], ids[2], DENSE_BACKING_LIMIT).unwrap();
        assert_eq!(pool.bytes_materialized(), 0);
        // The count outlives the regions it was paid for.
        pool.write_at(ids[0], 0, &[1]).unwrap();
        assert_eq!(pool.bytes_materialized(), 4096);
        pool.free(ids[0]).unwrap();
        assert_eq!(pool.bytes_materialized(), 4096);
    }

    #[test]
    fn a_small_write_into_a_huge_region_copies_as_a_page_or_two() {
        let (mut pool, dev) = pool_with_capacity(4 << 30);
        let src = pool.alloc(dev, 1 << 30).unwrap();
        let dst = pool.alloc(dev, 1 << 30).unwrap();
        pool.write_at(src, 700 << 20, &[0xC3; 64]).unwrap();
        pool.copy_between(src, dst, 1 << 30).unwrap();
        assert!(pool.bytes_materialized() <= 2 * SPARSE_PAGE);
        let mut buf = [0u8; 64];
        pool.read_at(dst, 700 << 20, &mut buf).unwrap();
        assert_eq!(buf, [0xC3; 64]);
    }

    /// The naive eager model the pool is checked against: every byte
    /// anybody wrote, by offset; everything else is zero.
    struct ModelRegion {
        dev: MemDeviceId,
        size: u64,
        written: BTreeMap<u64, u8>,
    }

    impl ModelRegion {
        fn bytes(&self, offset: u64, len: usize) -> Vec<u8> {
            let mut v = vec![0u8; len];
            for (&k, &b) in self.written.range(offset..offset + len as u64) {
                v[(k - offset) as usize] = b;
            }
            v
        }
    }

    /// Reads back every page-sized window the model has bytes in, both
    /// ends of the region and a few windows at random.
    fn assert_region_matches(pool: &MemoryPool, id: RegionId, m: &ModelRegion, rng: &mut SimRng) {
        assert_eq!(pool.placement(id).unwrap().dev, m.dev);
        let window = |pos: u64| pos / SPARSE_PAGE * SPARSE_PAGE;
        let mut starts = BTreeSet::from([0, window(m.size - 1)]);
        let mut next = 0;
        while let Some((&k, _)) = m.written.range(next..).next() {
            starts.insert(window(k));
            next = window(k) + SPARSE_PAGE;
        }
        starts.extend((0..3).map(|_| window(rng.next_below(m.size))));
        for start in starts {
            let len = SPARSE_PAGE.min(m.size - start) as usize;
            let mut buf = vec![0xFFu8; len];
            pool.read_at(id, start, &mut buf).unwrap();
            assert!(buf == m.bytes(start, len), "{id} differs from the model in [{start}, +{len})");
        }
    }

    #[test]
    fn random_op_sequences_match_an_eager_model() {
        const DENSE_SIZES: [u64; 6] =
            [1, 100, 4096, SPARSE_PAGE - 1, SPARSE_PAGE + 1, 3 * SPARSE_PAGE + 17];
        const SPARSE_SIZES: [u64; 2] =
            [DENSE_BACKING_LIMIT + 1, DENSE_BACKING_LIMIT + 5 * SPARSE_PAGE + 123];
        let is_sparse = |m: &ModelRegion| m.size > DENSE_BACKING_LIMIT;
        // Which of the cases the copy and write paths must get right the
        // sequences actually reached.
        let (mut zeroing, mut sparse_to_dense, mut dense_to_sparse) = (0, 0, 0);
        let (mut partial, mut straddling) = (0, 0);

        for seed in [1, 7, 42, 1234] {
            let mut rng = SimRng::new(seed);
            let mut b = Topology::builder();
            let n = b.node("host");
            let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
            let devs = [MemDeviceKind::Dram, MemDeviceKind::Pmem]
                .map(|k| b.mem(n, MemDeviceModel::preset_with_capacity(k, 1 << 30)));
            for d in devs {
                b.link(cpu, d, LinkKind::MemBus);
            }
            let mut pool = MemoryPool::new(&b.build().unwrap());
            let mut model: BTreeMap<RegionId, ModelRegion> = BTreeMap::new();

            for _ in 0..400 {
                // The arena's running figures follow every alloc, free
                // and rebind so far.
                for dev in devs {
                    let held: u64 = model.values().filter(|m| m.dev == dev).map(|m| m.size).sum();
                    assert_eq!(pool.allocated(dev), held);
                    assert_eq!(pool.utilization(dev), held as f64 / (1u64 << 30) as f64);
                }
                let before = pool.bytes_materialized();
                let ids: Vec<RegionId> = model.keys().copied().collect();
                let op = rng.next_below(10);
                if ids.len() < 2 || (op == 0 && ids.len() < 6) {
                    let sizes: &[u64] = if rng.chance(0.35) { &SPARSE_SIZES } else { &DENSE_SIZES };
                    let (dev, size) = (*rng.pick(&devs), *rng.pick(sizes));
                    let id = pool.alloc(dev, size).unwrap();
                    model.insert(id, ModelRegion { dev, size, written: BTreeMap::new() });
                    continue;
                }
                let id = *rng.pick(&ids);
                let m = model.get_mut(&id).unwrap();
                match op {
                    0 => {
                        pool.free(id).unwrap();
                        model.remove(&id);
                        assert_eq!(pool.read_at(id, 0, &mut [0]), Err(AllocError::UnknownRegion(id)));
                    }
                    1 => {
                        m.dev = *rng.pick(&devs);
                        assert_eq!(pool.rebind(id, m.dev).unwrap().dev, m.dev);
                        assert_region_matches(&pool, id, m, &mut rng);
                    }
                    2..=4 => {
                        let long = if rng.chance(0.03) { SPARSE_PAGE } else { 0 };
                        let len = (long + rng.range(1, 300)).min(m.size);
                        // Half the writes end a little past a page boundary.
                        let offset = if m.size > SPARSE_PAGE && rng.chance(0.5) {
                            let boundary = rng.range(1, m.size.div_ceil(SPARSE_PAGE)) * SPARSE_PAGE;
                            (boundary + rng.next_below(8)).min(m.size).saturating_sub(len)
                        } else {
                            rng.next_below(m.size - len + 1)
                        };
                        straddling += usize::from(offset / SPARSE_PAGE != (offset + len - 1) / SPARSE_PAGE);
                        let mut data = vec![0u8; len as usize];
                        rng.fill_bytes(&mut data);
                        pool.write_at(id, offset, &data).unwrap();
                        m.written.extend((offset..).zip(data));
                    }
                    5 => {
                        let len = rng.range(1, 2 * SPARSE_PAGE).min(m.size);
                        let offset = rng.next_below(m.size - len + 1);
                        let mut buf = vec![0xFFu8; len as usize];
                        pool.read_at(id, offset, &mut buf).unwrap();
                        assert!(buf == m.bytes(offset, len as usize), "{id} read at {offset}");
                    }
                    6 if is_sparse(m) => {
                        assert_eq!(pool.data(id), Err(AllocError::NotContiguous(id)));
                    }
                    6 => {
                        assert!(pool.data(id).unwrap() == m.bytes(0, m.size as usize));
                        let at = rng.next_below(m.size);
                        pool.write_at(id, at, &[0x5A]).unwrap();
                        m.written.insert(at, 0x5A);
                    }
                    _ => {
                        let dst = *rng.pick(&ids);
                        let (src_size, dst_size) = (model[&id].size, model[&dst].size);
                        let fit = src_size.min(dst_size);
                        let len = match rng.next_below(4) {
                            0 => fit + 1,
                            1 => rng.next_below(fit + 1),
                            _ => fit,
                        };
                        let copied = pool.copy_between(id, dst, len);
                        if len > fit {
                            let (region, size) =
                                if len > src_size { (id, src_size) } else { (dst, dst_size) };
                            assert_eq!(copied, Err(AllocError::OutOfBounds { region, len, size }));
                        } else {
                            copied.unwrap();
                        }
                        if len <= fit && id != dst {
                            let from: Vec<(u64, u8)> =
                                model[&id].written.range(..len).map(|(&k, &b)| (k, b)).collect();
                            let (src_sparse, src_blank) = (is_sparse(&model[&id]), from.is_empty());
                            let d = model.get_mut(&dst).unwrap();
                            let had = d.written.range(..len).next().is_some();
                            zeroing += usize::from(src_blank && had);
                            sparse_to_dense += usize::from(src_sparse && !is_sparse(d) && !src_blank);
                            dense_to_sparse += usize::from(!src_sparse && is_sparse(d) && !src_blank);
                            partial += usize::from(len > 0 && len < fit && had);
                            d.written.retain(|&k, _| k >= len);
                            d.written.extend(from);
                        }
                        assert_region_matches(&pool, dst, &model[&dst], &mut rng);
                        assert_region_matches(&pool, id, &model[&id], &mut rng);
                    }
                }
                assert!(pool.bytes_materialized() >= before, "the count is monotone");
            }
            for (&id, m) in &model {
                assert_region_matches(&pool, id, m, &mut rng);
            }
        }
        for (case, hits) in [
            ("blank source zeroes a written destination", zeroing),
            ("sparse into dense", sparse_to_dense),
            ("dense into sparse", dense_to_sparse),
            ("partial len over written bytes", partial),
            ("page-straddling write", straddling),
        ] {
            assert!(hits > 0, "no sequence reached: {case}");
        }
    }
}
