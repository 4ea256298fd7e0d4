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
//!   `fill(0)` into a written one;
//! - and bytes move once: a dense buffer is copy-on-write, so
//!   `copy_between` of a whole dense region into a dense region of the
//!   same size shares it (O(1)) until either side is written, and
//!   [`MemoryPool::adopt`] moves a buffer a caller computed a region's
//!   bytes in (a parity row, a rebuilt span) in as its contents.
//!
//! "Materialized or not" is the only state; there is no dirty tracking.
//! What still materializes is everything that really holds data: app
//! task bodies and `Accessor` writes, contiguous views, and the
//! replica/stripe regions of `disagg-ftol` — once per replica set, not
//! once per replica. What no longer does is the
//! synthetic output of a task body that only charges compute time, and
//! every handover copy of it. The rule exists because the eager version
//! was measured: one 48-request serving pass allocated ≈1 GiB of such
//! outputs and copied ≈1.25 GiB of zeros between them, ≈80 % of the
//! pass in the kernel.
//!
//! A materialized byte is not free, even when nothing reads it. The
//! first 12 MiB `vec![0; n]` (a `calloc`) of a process is `mmap`ed;
//! freeing it raises glibc's mmap threshold to its size and the trim
//! threshold to twice that, so the same callocs on later passes come from
//! the brk heap (their addresses sit in `[heap]` from the second pass
//! on). They still fault, page by page, on every pass: a pass frees them
//! together at the top of the heap, glibc gives the pages back to the
//! kernel (inferred from the counts: fresh heap pages are not `memset`,
//! they fault on first touch), and the next pass touches fresh ones.
//! `ftol`'s durable phase alone, replayed against one 12 MiB payload
//! (minor faults and ms per pass, medians of passes 6–30, x86-64, glibc
//! 2.36), before and after replicas, copies and coded spans stopped
//! materializing a buffer per region:
//!
//! | step | faults before | ms before | faults after | ms after |
//! |---|---|---|---|---|
//! | replica write (3 × 12 MiB, now 1 × 12 MiB shared) | 6 880 | 20.0 | 3 040 | 6.9 |
//! | replica recover (a 12 MiB copy, now a share) | 3 072 | 9.0 | 0 | 0.0 |
//! | striped write (4 data + 2 parity spans of 3 MiB) | 0 | 8.8 | 4 656 | 12.9 |
//! | stripe recover (one 3 MiB span) | 0 | 3.7 | 768 | 4.0 |
//! | freeing both managers | 0 | 2.9 | 0 | 0.0 |
//! | the whole phase, reads included | 9 952 | 54.0 | 8 464 | 30.6 |
//!
//! Which step faults depends on what the heap held before it: with
//! less retained, the striped write's spans now land on returned pages
//! too. In the benchmark's full `apps_chaos` pass (apps first) the
//! total fell 16 096 → 8 632 minor faults.
//! [`MemoryPool::bytes_materialized`] counts what was paid for.
//!
//! # Hot-path layout
//!
//! [`RegionId`]s are issued from a monotone counter and never reused, so
//! per-region state (placement + backing) lives in one dense slot table
//! indexed by `id - base` — no hashing on the allocate/free/read/write
//! paths, and `live()` iterates in id order, which is deterministic. The
//! table is a window, not a history: it runs from the oldest live region
//! to the newest one allocated, a region freed inside it leaves a
//! tombstone, and freeing the oldest drops the tombstones in front of the
//! next live one (each slot is dropped once, so O(1) amortized). A
//! 32 000-request serving pass allocates 79 668 regions and ends with
//! none live, and its table never spans more than 512 of them. One
//! region that lives long pins the front, and the window then grows with
//! every allocation after it. Sparse
//! backings keep their materialized pages in a sorted `Vec` with a
//! last-page cursor so sequential streams resolve pages in O(1), and
//! reads of ranges no page has ever touched zero-fill without any
//! per-page lookup at all.

use std::cell::{Cell, OnceCell};
use std::collections::VecDeque;
use std::sync::Arc;

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
    /// A buffer offered as a region's whole contents is not the
    /// region's size.
    SizeMismatch {
        /// The region.
        region: RegionId,
        /// Bytes in the buffer.
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
            AllocError::SizeMismatch { region, len, size } => {
                write!(f, "a buffer of {len} bytes cannot be region {region} of {size} bytes")
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
/// never materialized read as zero. Every method that materializes
/// bytes adds them to `paid`, the pool's running count.
#[derive(Debug)]
enum Backing {
    /// One contiguous buffer of `len` bytes (small regions), allocated
    /// zeroed the first time it is written or viewed. Copy-on-write: a
    /// whole-region copy into another dense region of the same size
    /// hands it the same buffer, and whichever side writes first takes
    /// a private copy (`Arc::make_mut`).
    Dense { buf: OnceCell<Arc<Vec<u8>>>, len: usize },
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

/// Adds `bytes` to a running count of materialized bytes.
fn pay(paid: &Cell<u64>, bytes: u64) {
    paid.set(paid.get() + bytes);
}

/// A dense buffer for reading: allocated zeroed if nothing has
/// materialized it yet.
fn dense<'a>(buf: &'a OnceCell<Arc<Vec<u8>>>, len: usize, paid: &Cell<u64>) -> &'a [u8] {
    buf.get_or_init(|| {
        pay(paid, len as u64);
        Arc::new(vec![0u8; len])
    })
}

/// A dense buffer for writing: allocated zeroed if nothing has
/// materialized it yet, and copied first if another region shares it.
fn dense_mut<'a>(buf: &'a mut OnceCell<Arc<Vec<u8>>>, len: usize, paid: &Cell<u64>) -> &'a mut [u8] {
    dense(buf, len, paid);
    let shared = buf.get_mut().expect("materialized above");
    // The pool never makes a `Weak`, so the strong count alone says
    // whether `make_mut` copies.
    if Arc::strong_count(shared) > 1 {
        pay(paid, len as u64);
    }
    Arc::make_mut(shared).as_mut_slice()
}

impl Backing {
    fn new(size: u64) -> Backing {
        if size <= DENSE_BACKING_LIMIT {
            Backing::Dense { buf: OnceCell::new(), len: size as usize }
        } else {
            Backing::Sparse { pages: Vec::new(), cursor: Cell::new(0) }
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

    fn write(&mut self, offset: u64, data: &[u8], paid: &Cell<u64>) {
        if data.is_empty() {
            return;
        }
        match self {
            Backing::Dense { buf, len } => {
                let v = dense_mut(buf, *len, paid);
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
                            pay(paid, SPARSE_PAGE);
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
    fn zero(&mut self, start: u64, end: u64, paid: &Cell<u64>) {
        if start >= end {
            return;
        }
        match self {
            Backing::Dense { buf, len } => {
                if buf.get().is_some() {
                    dense_mut(buf, *len, paid)[start as usize..end as usize].fill(0);
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
    /// side has materialized. A whole dense region copied into a dense
    /// region of the same size takes the source's state: its buffer,
    /// shared, or no buffer at all. The caller has checked `len` against
    /// both logical sizes.
    fn copy_from(&mut self, src: &Backing, len: u64, paid: &Cell<u64>) {
        match (&mut *self, src) {
            (Backing::Dense { buf, len: dst_len }, Backing::Dense { buf: from, len: src_len })
                if len == *dst_len as u64 && len == *src_len as u64 =>
            {
                *buf = from.clone();
            }
            (_, Backing::Dense { buf, .. }) => match buf.get() {
                Some(v) => self.write(0, &v[..len as usize], paid),
                None => self.zero(0, len, paid),
            },
            (_, Backing::Sparse { pages, .. }) => {
                let mut pos = 0u64;
                for (p, bytes) in pages {
                    let base = *p * SPARSE_PAGE;
                    if base >= len {
                        break;
                    }
                    self.zero(pos, base, paid);
                    let take = (len - base).min(SPARSE_PAGE);
                    self.write(base, &bytes[..take as usize], paid);
                    pos = base + take;
                }
                self.zero(pos, len, paid);
            }
        }
    }

    fn as_slice(&self, paid: &Cell<u64>) -> Option<&[u8]> {
        match self {
            Backing::Dense { buf, len } => Some(dense(buf, *len, paid)),
            Backing::Sparse { .. } => None,
        }
    }
}

/// Per-region state in the slot table.
#[derive(Debug)]
struct RegionSlot {
    placement: Placement,
    backing: Backing,
}

/// The pool of all memory devices in a topology.
#[derive(Debug)]
pub struct MemoryPool {
    arenas: Vec<Arena>,
    /// Region `base + i` at `slots[i]`, from the oldest live region to
    /// the newest allocated; a region freed behind the front leaves a
    /// `None` tombstone until the front passes it.
    slots: VecDeque<Option<RegionSlot>>,
    /// The id of `slots[0]`; `base + slots.len()` is the next id issued.
    base: u64,
    live: usize,
    /// Backing bytes ever materialized, counted where they materialize:
    /// a shared buffer has no single slot to count it in. A `Cell`
    /// because a contiguous view (`data`, `&self`) can materialize.
    materialized: Cell<u64>,
}

impl MemoryPool {
    /// Builds a pool with one arena per memory device in the topology.
    pub fn new(topo: &Topology) -> Self {
        MemoryPool {
            arenas: topo.mem_devices().iter().map(|m| Arena::new(m.capacity)).collect(),
            slots: VecDeque::new(),
            base: 0,
            live: 0,
            materialized: Cell::new(0),
        }
    }

    /// `id`'s index in the slot table; `None` before the window (freed
    /// long ago) or past it (never issued).
    fn index(&self, id: RegionId) -> Option<usize> {
        let i = id.0.checked_sub(self.base)?;
        (i < self.slots.len() as u64).then_some(i as usize)
    }

    fn slot(&self, id: RegionId) -> Result<&RegionSlot, AllocError> {
        self.index(id)
            .and_then(|i| self.slots[i].as_ref())
            .ok_or(AllocError::UnknownRegion(id))
    }

    /// A live slot to change, and the count its new bytes go to.
    fn slot_mut(&mut self, id: RegionId) -> Result<(&mut RegionSlot, &Cell<u64>), AllocError> {
        let i = self.index(id).ok_or(AllocError::UnknownRegion(id))?;
        let slot = self.slots[i].as_mut().ok_or(AllocError::UnknownRegion(id))?;
        Ok((slot, &self.materialized))
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
        let id = RegionId(self.base + self.slots.len() as u64);
        self.slots.push_back(Some(RegionSlot {
            placement: Placement { dev, offset, size },
            backing: Backing::new(size),
        }));
        self.live += 1;
        Ok(id)
    }

    /// Frees an allocation, returning its former placement.
    pub fn free(&mut self, id: RegionId) -> Result<Placement, AllocError> {
        let slot = self
            .index(id)
            .and_then(|i| self.slots[i].take())
            .ok_or(AllocError::UnknownRegion(id))?;
        let placement = slot.placement;
        self.arenas[placement.dev.index()].dealloc(placement.offset, placement.size);
        self.live -= 1;
        // The window starts at the oldest live region.
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
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
            .as_slice(&self.materialized)
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
        let (slot, paid) = self.slot_mut(id)?;
        slot.backing.write(offset, data, paid);
        Ok(())
    }

    /// Moves `bytes` in as the whole contents of a dense region, in place
    /// of copying them: the buffer a caller computed a region's bytes in
    /// becomes its backing. `bytes` must be exactly the region's size
    /// ([`AllocError::SizeMismatch`]), and the region dense-backed
    /// ([`AllocError::NotContiguous`]).
    pub fn adopt(&mut self, id: RegionId, bytes: Vec<u8>) -> Result<(), AllocError> {
        let (slot, paid) = self.slot_mut(id)?;
        let (len, size) = (bytes.len() as u64, slot.placement.size);
        let Backing::Dense { buf, .. } = &mut slot.backing else {
            return Err(AllocError::NotContiguous(id));
        };
        if len != size {
            return Err(AllocError::SizeMismatch { region: id, len, size });
        }
        *buf = OnceCell::from(Arc::new(bytes));
        pay(paid, len);
        Ok(())
    }

    /// Makes the first `len` bytes of `dst` equal those of `src` (works
    /// for any backing combination; used by handover copies and
    /// replication). Only materialized extents move: unwritten source
    /// bytes are zeros, which an unwritten destination already holds. A
    /// whole dense region copied into a dense region of the same size
    /// moves nothing: the two share one buffer until either is written
    /// (O(1), and no bytes materialize).
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
        // Lift the source out so both slots can be borrowed at once.
        let s = self.index(src).expect("the source was live above");
        let src_slot = self.slots[s].take().expect("the source was live above");
        let (dst_slot, paid) = self.slot_mut(dst).expect("the destination was live above");
        dst_slot.backing.copy_from(&src_slot.backing, len, paid);
        self.slots[s] = Some(src_slot);
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
        self.slot_mut(id)?.0.placement = new;
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

    /// Total backing bytes the host has paid for, counted where they
    /// materialize: a dense buffer on its region's first write or
    /// contiguous view, a sparse page when first written, a private copy
    /// when a shared dense buffer is first written ([`copy_between`]
    /// shares; the share itself adds 0), and an adopted buffer once.
    /// Freeing subtracts nothing: monotone, and exact per seed — the
    /// laziness tests, fig4's and `tests/serving.rs` read it.
    ///
    /// [`copy_between`]: MemoryPool::copy_between
    pub fn bytes_materialized(&self) -> u64 {
        self.materialized.get()
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
            .filter_map(|(i, s)| s.as_ref().map(|s| (RegionId(self.base + i as u64), s.placement)))
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

    /// The slot table is a window from the oldest live region to the
    /// newest allocated. Random allocs, frees, copies and rebinds on two
    /// devices, checked against a `BTreeMap` of the live regions and
    /// their first bytes: ids strictly increase, a freed id answers
    /// `UnknownRegion` to every call for good, `live()` lists the
    /// reference's regions in id order, and the table never holds more
    /// than twice the window's id span plus a constant (it holds exactly
    /// the span) — also when a region allocated first and never freed
    /// pins its front, so the span grows with every allocation.
    #[test]
    fn the_slot_table_spans_the_live_window_only() {
        const STEPS: usize = 8_000;
        for (seed, pinned) in [(1, false), (7, false), (42, true), (1234, true)] {
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
            // Live id -> (device, size, first byte).
            let mut model: BTreeMap<RegionId, (MemDeviceId, u64, u8)> = BTreeMap::new();
            let mut freed: Vec<RegionId> = Vec::new();
            let mut newest: Option<RegionId> = None;
            let mut widest = 0u64;
            let pin = pinned.then(|| pool.alloc(devs[0], 64).unwrap());
            if let Some(id) = pin {
                model.insert(id, (devs[0], 64, 0));
                newest = Some(id);
            }

            for _ in 0..STEPS {
                let ids: Vec<RegionId> =
                    model.keys().copied().filter(|&id| Some(id) != pin).collect();
                // About 16 regions live at a time, freed in random order.
                let op = rng.next_below(8);
                if ids.len() < 2 || (op < 3 && ids.len() < 16) {
                    let (dev, size) = (*rng.pick(&devs), rng.range(1, 4_096));
                    let id = pool.alloc(dev, size).unwrap();
                    assert!(newest.is_none_or(|last| last < id), "{id} after {newest:?}");
                    newest = Some(id);
                    let byte = rng.next_below(256) as u8;
                    pool.write_at(id, 0, &[byte]).unwrap();
                    model.insert(id, (dev, size, byte));
                } else {
                    let id = *rng.pick(&ids);
                    match op {
                        0..=4 => {
                            assert_eq!(pool.free(id).unwrap().size, model[&id].1);
                            model.remove(&id);
                            freed.push(id);
                        }
                        5 => {
                            let src = *rng.pick(&ids);
                            pool.copy_between(src, id, 1).unwrap();
                            let byte = model[&src].2;
                            model.get_mut(&id).unwrap().2 = byte;
                        }
                        6 => {
                            let to = *rng.pick(&devs);
                            assert_eq!(pool.rebind(id, to).unwrap().dev, to);
                            model.get_mut(&id).unwrap().0 = to;
                        }
                        _ if !freed.is_empty() => {
                            let gone = *rng.pick(&freed);
                            let unknown = AllocError::UnknownRegion(gone);
                            assert!(!pool.is_live(gone));
                            assert_eq!(pool.placement(gone), Err(unknown.clone()));
                            assert_eq!(pool.read_at(gone, 0, &mut [0]), Err(unknown.clone()));
                            assert_eq!(pool.write_at(gone, 0, &[1]), Err(unknown.clone()));
                            assert_eq!(pool.copy_between(id, gone, 1), Err(unknown.clone()));
                            assert_eq!(pool.copy_between(gone, id, 1), Err(unknown.clone()));
                            assert_eq!(pool.rebind(gone, devs[1]), Err(unknown.clone()));
                            assert_eq!(pool.free(gone), Err(unknown));
                        }
                        _ => {}
                    }
                }

                let listed: Vec<(RegionId, MemDeviceId, u64)> =
                    pool.live().map(|(id, p)| (id, p.dev, p.size)).collect();
                let want: Vec<(RegionId, MemDeviceId, u64)> =
                    model.iter().map(|(&id, &(dev, size, _))| (id, dev, size)).collect();
                assert_eq!(listed, want, "seed {seed}");
                assert_eq!(pool.live_count(), model.len());
                let span = match (model.keys().next(), newest) {
                    (Some(oldest), Some(last)) => last.0 - oldest.0 + 1,
                    _ => 0,
                };
                widest = widest.max(span);
                let held = pool.slots.len() as u64;
                assert!(held <= 2 * span + 8, "seed {seed}: {held} slots for a span of {span}");
                assert!(pool.slots.capacity() as u64 <= 2 * widest + 8);
            }
            for (&id, &(_, _, byte)) in &model {
                let mut first = [0u8];
                pool.read_at(id, 0, &mut first).unwrap();
                assert_eq!(first[0], byte, "seed {seed}: {id}");
            }
            for &gone in &freed {
                assert_eq!(pool.free(gone), Err(AllocError::UnknownRegion(gone)));
            }
            let issued = newest.unwrap().0 + 1;
            if pinned {
                assert!(widest + 1 >= issued, "the pinned region holds the window open");
            } else {
                assert!(issued > 10 * widest, "{issued} ids issued through a window of {widest}");
            }
        }
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

    #[test]
    fn materialized_bytes_count_shares_unshares_and_adoptions_once() {
        let (mut pool, dev) = pool_with_capacity(1 << 30);
        let [a, b, c] = [4096, 4096, 4096].map(|size| pool.alloc(dev, size).unwrap());
        pool.write_at(a, 0, &[1; 4096]).unwrap();
        assert_eq!(pool.bytes_materialized(), 4096);
        // Two shares of one buffer: nothing materializes.
        pool.copy_between(a, b, 4096).unwrap();
        pool.copy_between(b, c, 4096).unwrap();
        assert_eq!(pool.bytes_materialized(), 4096);
        // The first writer copies; the last holder writes in place.
        pool.write_at(b, 0, &[2]).unwrap();
        pool.write_at(a, 1, &[3]).unwrap();
        assert_eq!(pool.bytes_materialized(), 3 * 4096);
        pool.write_at(c, 2, &[4]).unwrap();
        assert_eq!(pool.bytes_materialized(), 3 * 4096);
        assert_eq!(pool.data(a).unwrap()[..3], [1, 3, 1]);
        assert_eq!(pool.data(b).unwrap()[..3], [2, 1, 1]);
        assert_eq!(pool.data(c).unwrap()[..3], [1, 1, 4]);
        // A partial copy still copies, into the destination's own buffer.
        pool.copy_between(a, b, 100).unwrap();
        assert_eq!(pool.data(b).unwrap()[..3], [1, 3, 1]);
        assert_eq!(pool.bytes_materialized(), 3 * 4096);

        // An adopted buffer is the region's contents, counted once.
        let mut bytes = vec![7u8; 4096];
        bytes[9] = 8;
        pool.adopt(c, bytes).unwrap();
        assert_eq!(pool.bytes_materialized(), 4 * 4096);
        assert_eq!(pool.data(c).unwrap()[8..10], [7, 8]);
        pool.free(c).unwrap();
        assert_eq!(pool.bytes_materialized(), 4 * 4096);
        // Only a whole dense region takes one.
        let sparse = pool.alloc(dev, DENSE_BACKING_LIMIT + 1).unwrap();
        assert_eq!(pool.adopt(sparse, vec![0; 4]), Err(AllocError::NotContiguous(sparse)));
        assert_eq!(
            pool.adopt(a, vec![0; 4095]),
            Err(AllocError::SizeMismatch { region: a, len: 4095, size: 4096 })
        );
        assert_eq!(pool.adopt(c, vec![0; 4096]), Err(AllocError::UnknownRegion(c)));
        assert_eq!(pool.bytes_materialized(), 4 * 4096);
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
        let (mut shares, mut unshares) = (0, 0);

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
                let op = rng.next_below(11);
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
                    10 => {
                        // A whole-region copy into a region of the same
                        // size, a fresh one when no other has it: dense
                        // regions share one buffer from here on.
                        let size = m.size;
                        let dst = match ids.iter().find(|&&d| d != id && model[&d].size == size) {
                            Some(&d) => d,
                            None if model.len() < 8 => {
                                let dev = *rng.pick(&devs);
                                let d = pool.alloc(dev, size).unwrap();
                                model.insert(d, ModelRegion { dev, size, written: BTreeMap::new() });
                                d
                            }
                            None => continue,
                        };
                        pool.copy_between(id, dst, size).unwrap();
                        let (dense, written) = (!is_sparse(&model[&id]), model[&id].written.clone());
                        model.get_mut(&dst).unwrap().written = written;
                        if dense {
                            assert_eq!(pool.bytes_materialized(), before, "a share materializes nothing");
                            shares += 1;
                        }
                        // A write to either side does not show on the other.
                        if rng.chance(0.5) {
                            let side = if rng.chance(0.5) { id } else { dst };
                            let (at, byte) = (rng.next_below(size), rng.next_below(256) as u8);
                            let paid = pool.bytes_materialized();
                            pool.write_at(side, at, &[byte]).unwrap();
                            model.get_mut(&side).unwrap().written.insert(at, byte);
                            if dense {
                                // The writer's own copy: un-shared, or
                                // zeroed if neither side had a buffer.
                                assert_eq!(pool.bytes_materialized(), paid + size);
                                unshares += 1;
                            }
                        }
                        assert_region_matches(&pool, id, &model[&id], &mut rng);
                        assert_region_matches(&pool, dst, &model[&dst], &mut rng);
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
            ("whole dense copy shares a buffer", shares),
            ("write after a share", unshares),
        ] {
            assert!(hits > 0, "no sequence reached: {case}");
        }
    }
}
