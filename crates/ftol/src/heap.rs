//! An object heap over erasure-coded spans, with compaction.
//!
//! Carbink's full design stores *objects* inside erasure-coded spans;
//! deleting an object leaves dead bytes that still occupy (and still get
//! re-encoded into) the stripes, so the system periodically **compacts**:
//! live objects are rewritten densely at the front and the tail is
//! reclaimed. The paper points exactly here: "a combination of
//! erasure-coding, one-sided remote memory accesses and compaction".
//!
//! [`StripedHeap`] is a bump allocator over a [`StripedRegion`]: `put`
//! appends, `delete` tombstones, `compact` rewrites the live set (paying
//! real read+write+parity costs) and makes the freed tail allocatable
//! again.

use std::collections::BTreeMap;

use disagg_hwsim::contention::BandwidthLedger;
use disagg_hwsim::fault::FaultInjector;
use disagg_hwsim::ids::MemDeviceId;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;
use disagg_region::region::{OwnerId, RegionManager};

use crate::stripe::StripedRegion;
use crate::FtolError;

/// Identifies one object in the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u64);

#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: u64,
    len: u64,
}

/// An object heap over erasure-coded far memory.
#[derive(Debug)]
pub struct StripedHeap {
    store: StripedRegion,
    live: BTreeMap<ObjId, Slot>,
    cursor: u64,
    dead_bytes: u64,
    next_id: u64,
}

impl StripedHeap {
    /// Creates a heap of `capacity` logical bytes striped `k + m` ways
    /// over `devices` (distinct failure domains).
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        mgr: &mut RegionManager,
        topo: &Topology,
        devices: &[MemDeviceId],
        capacity: u64,
        k: usize,
        m: usize,
        owner: OwnerId,
        now: SimTime,
    ) -> Result<StripedHeap, FtolError> {
        Ok(StripedHeap {
            store: StripedRegion::create(mgr, topo, devices, capacity, k, m, owner, now)?,
            live: BTreeMap::new(),
            cursor: 0,
            dead_bytes: 0,
            next_id: 0,
        })
    }

    /// Logical capacity.
    pub fn capacity(&self) -> u64 {
        self.store.size
    }

    /// Bytes occupied by live objects.
    pub fn live_bytes(&self) -> u64 {
        self.live.values().map(|s| s.len).sum()
    }

    /// Bytes occupied by tombstoned objects (reclaimable by compaction).
    pub fn dead_bytes(&self) -> u64 {
        self.dead_bytes
    }

    /// Fraction of the *used* prefix that is dead.
    pub fn dead_fraction(&self) -> f64 {
        if self.cursor == 0 {
            0.0
        } else {
            self.dead_bytes as f64 / self.cursor as f64
        }
    }

    /// Bytes still appendable without compaction.
    pub fn free_tail(&self) -> u64 {
        self.capacity() - self.cursor
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True if no objects are live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Appends an object; fails with `OutOfBounds` when the tail is
    /// exhausted (compact first).
    pub fn put(
        &mut self,
        mgr: &mut RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        data: &[u8],
        now: SimTime,
    ) -> Result<(ObjId, SimDuration), FtolError> {
        let len = data.len() as u64;
        if self.cursor + len > self.capacity() {
            return Err(FtolError::OutOfBounds {
                offset: self.cursor,
                len,
                size: self.capacity(),
            });
        }
        let took = self.store.write(mgr, topo, ledger, self.cursor, data, now)?;
        let id = ObjId(self.next_id);
        self.next_id += 1;
        self.live.insert(
            id,
            Slot {
                offset: self.cursor,
                len,
            },
        );
        self.cursor += len;
        Ok((id, took))
    }

    /// Reads an object (degraded reads reconstruct through parity).
    pub fn get(
        &self,
        mgr: &RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        faults: &FaultInjector,
        id: ObjId,
        now: SimTime,
    ) -> Result<(Vec<u8>, SimDuration, bool), FtolError> {
        let slot = self.live.get(&id).ok_or(FtolError::UnknownObject(id.0))?;
        let mut buf = vec![0u8; slot.len as usize];
        let (took, degraded) =
            self.store
                .read(mgr, topo, ledger, faults, slot.offset, &mut buf, now)?;
        Ok((buf, took, degraded))
    }

    /// Tombstones an object; its bytes stay in the spans until
    /// [`StripedHeap::compact`] runs.
    pub fn delete(&mut self, id: ObjId) -> Result<u64, FtolError> {
        let slot = self.live.remove(&id).ok_or(FtolError::UnknownObject(id.0))?;
        self.dead_bytes += slot.len;
        Ok(slot.len)
    }

    /// Compacts: reads every live object, rewrites them densely from the
    /// front, resets the cursor, and zeroes the dead count. Pays the full
    /// read + write (+ parity) cost of the live set. Returns the bytes
    /// reclaimed and how long the pass took.
    pub fn compact(
        &mut self,
        mgr: &mut RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        now: SimTime,
    ) -> Result<(u64, SimDuration), FtolError> {
        let calm = FaultInjector::none();
        // Gather the live set in offset order (stable, moves everything
        // at most one slot leftward logically).
        let mut order: Vec<(ObjId, Slot)> = self.live.iter().map(|(&i, &s)| (i, s)).collect();
        order.sort_by_key(|&(_, s)| s.offset);

        let mut total = SimDuration::ZERO;
        let mut write_at = 0u64;
        for (id, slot) in order {
            let mut buf = vec![0u8; slot.len as usize];
            let (r, _) = self
                .store
                .read(mgr, topo, ledger, &calm, slot.offset, &mut buf, now)?;
            total += r;
            if slot.offset != write_at {
                let w = self.store.write(mgr, topo, ledger, write_at, &buf, now)?;
                total += w;
            }
            self.live.insert(id, Slot { offset: write_at, len: slot.len });
            write_at += slot.len;
        }
        let reclaimed = self.cursor - write_at;
        self.cursor = write_at;
        self.dead_bytes = 0;
        Ok((reclaimed, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::presets::disaggregated_rack;

    const OWNER: OwnerId = OwnerId::App;

    fn fixture() -> (Topology, RegionManager, BandwidthLedger, StripedHeap) {
        let (topo, rack) = disaggregated_rack(2, 32, 4, 64);
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let heap = StripedHeap::create(
            &mut mgr,
            &topo,
            &rack.pool[..4],
            4_000,
            3,
            1,
            OWNER,
            SimTime::ZERO,
        )
        .expect("heap");
        let _ = &mut ledger;
        (topo, mgr, ledger, heap)
    }

    fn obj(n: usize, tag: u8) -> Vec<u8> {
        (0..n).map(|i| tag.wrapping_add(i as u8)).collect()
    }

    #[test]
    fn put_get_round_trips() {
        let (topo, mut mgr, mut ledger, mut heap) = fixture();
        let calm = FaultInjector::none();
        let (a, took) = heap
            .put(&mut mgr, &topo, &mut ledger, &obj(500, 1), SimTime::ZERO)
            .unwrap();
        assert!(took > SimDuration::ZERO);
        let (data, _, degraded) = heap
            .get(&mgr, &topo, &mut ledger, &calm, a, SimTime(1))
            .unwrap();
        assert!(!degraded);
        assert_eq!(data, obj(500, 1));
        assert_eq!(heap.live_bytes(), 500);
    }

    #[test]
    fn delete_tombstones_and_blocks_get() {
        let (topo, mut mgr, mut ledger, mut heap) = fixture();
        let calm = FaultInjector::none();
        let (a, _) = heap
            .put(&mut mgr, &topo, &mut ledger, &obj(300, 2), SimTime::ZERO)
            .unwrap();
        assert_eq!(heap.delete(a).unwrap(), 300);
        assert_eq!(heap.dead_bytes(), 300);
        assert!(matches!(
            heap.get(&mgr, &topo, &mut ledger, &calm, a, SimTime(1)),
            Err(FtolError::UnknownObject(_))
        ));
        assert!(matches!(heap.delete(a), Err(FtolError::UnknownObject(_))));
    }

    #[test]
    fn compaction_reclaims_dead_space_and_preserves_live_objects() {
        let (topo, mut mgr, mut ledger, mut heap) = fixture();
        let calm = FaultInjector::none();
        // Fill: A(1500) B(1500) C(900) → cursor 3900 of 4000.
        let (a, _) = heap.put(&mut mgr, &topo, &mut ledger, &obj(1500, 1), SimTime::ZERO).unwrap();
        let (b, _) = heap.put(&mut mgr, &topo, &mut ledger, &obj(1500, 2), SimTime::ZERO).unwrap();
        let (c, _) = heap.put(&mut mgr, &topo, &mut ledger, &obj(900, 3), SimTime::ZERO).unwrap();
        // Another 1500-byte put cannot fit.
        assert!(matches!(
            heap.put(&mut mgr, &topo, &mut ledger, &obj(1500, 4), SimTime(1)),
            Err(FtolError::OutOfBounds { .. })
        ));
        // Kill the middle object and compact.
        heap.delete(b).unwrap();
        assert!(heap.dead_fraction() > 0.3);
        let (reclaimed, took) = heap.compact(&mut mgr, &topo, &mut ledger, SimTime(2)).unwrap();
        assert_eq!(reclaimed, 1500);
        assert!(took > SimDuration::ZERO);
        assert_eq!(heap.dead_bytes(), 0);
        // Survivors intact at their new homes.
        let (da, _, _) = heap.get(&mgr, &topo, &mut ledger, &calm, a, SimTime(3)).unwrap();
        let (dc, _, _) = heap.get(&mgr, &topo, &mut ledger, &calm, c, SimTime(3)).unwrap();
        assert_eq!(da, obj(1500, 1));
        assert_eq!(dc, obj(900, 3));
        // And the blocked put now fits.
        let (d, _) = heap.put(&mut mgr, &topo, &mut ledger, &obj(1500, 4), SimTime(4)).unwrap();
        let (dd, _, _) = heap.get(&mgr, &topo, &mut ledger, &calm, d, SimTime(5)).unwrap();
        assert_eq!(dd, obj(1500, 4));
    }

    #[test]
    fn compaction_of_a_clean_heap_is_a_cheap_no_op() {
        let (topo, mut mgr, mut ledger, mut heap) = fixture();
        heap.put(&mut mgr, &topo, &mut ledger, &obj(100, 7), SimTime::ZERO).unwrap();
        let before = heap.live_bytes();
        let (reclaimed, _) = heap.compact(&mut mgr, &topo, &mut ledger, SimTime(1)).unwrap();
        assert_eq!(reclaimed, 0);
        assert_eq!(heap.live_bytes(), before);
    }

    #[test]
    fn objects_survive_a_node_crash_via_degraded_reads() {
        let (topo, mut mgr, mut ledger, mut heap) = fixture();
        let (a, _) = heap.put(&mut mgr, &topo, &mut ledger, &obj(2_000, 9), SimTime::ZERO).unwrap();
        let crash = FaultInjector::with_events(vec![disagg_hwsim::fault::FaultEvent {
            at: SimTime(1),
            kind: disagg_hwsim::fault::FaultKind::NodeCrash(
                topo.node_of_mem(heap.store.devs[0]),
            ),
        }]);
        let (data, _, degraded) = heap
            .get(&mgr, &topo, &mut ledger, &crash, a, SimTime(2))
            .unwrap();
        assert!(degraded);
        assert_eq!(data, obj(2_000, 9));
    }

    #[test]
    fn heap_stats_track_usage() {
        let (topo, mut mgr, mut ledger, mut heap) = fixture();
        assert!(heap.is_empty());
        assert_eq!(heap.free_tail(), 4_000);
        heap.put(&mut mgr, &topo, &mut ledger, &obj(1_000, 1), SimTime::ZERO).unwrap();
        assert_eq!(heap.len(), 1);
        assert_eq!(heap.free_tail(), 3_000);
        assert_eq!(heap.dead_fraction(), 0.0);
    }

    #[test]
    fn empty_objects_round_trip_without_touching_the_spans() {
        let (topo, mut mgr, mut ledger, mut heap) = fixture();
        let calm = FaultInjector::none();
        // At offset 0 (where `(end - 1) / span_size` used to underflow) …
        let (first, took) = heap.put(&mut mgr, &topo, &mut ledger, &[], SimTime::ZERO).unwrap();
        assert_eq!(took, SimDuration::ZERO);
        // … and flush against the end of a full heap.
        heap.put(&mut mgr, &topo, &mut ledger, &obj(4_000, 1), SimTime::ZERO).unwrap();
        let (last, _) = heap.put(&mut mgr, &topo, &mut ledger, &[], SimTime(1)).unwrap();
        for id in [first, last] {
            let got = heap.get(&mgr, &topo, &mut ledger, &calm, id, SimTime(2)).unwrap();
            assert_eq!(got, (Vec::new(), SimDuration::ZERO, false));
        }
        assert_eq!(heap.len(), 3);
        assert_eq!(heap.live_bytes(), 4_000);
    }

    #[test]
    fn a_small_put_after_a_large_one_keeps_parity_consistent() {
        // RS(4+2), 1000-byte spans. Parity is re-encoded only over the
        // columns a put touches; the six spans must still verify.
        let (topo, rack) = disaggregated_rack(2, 32, 6, 64);
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut heap =
            StripedHeap::create(&mut mgr, &topo, &rack.pool[..6], 4_000, 4, 2, OWNER, SimTime::ZERO)
                .unwrap();
        let rs = crate::ReedSolomon::new(4, 2).unwrap();
        // Across three spans (every column); inside span 2; the tail of
        // span 2 plus a shorter head of span 3 (two column ranges);
        // inside span 3; the last byte.
        let mut ids = Vec::new();
        for (n, tag) in [(2_500, 1u8), (100, 2), (450, 3), (949, 4), (1, 5)] {
            let (id, _) = heap.put(&mut mgr, &topo, &mut ledger, &obj(n, tag), SimTime::ZERO).unwrap();
            ids.push((id, n, tag));
            let spans: Vec<Vec<u8>> = heap
                .store
                .spans
                .iter()
                .map(|&s| mgr.bytes(s, OWNER).unwrap().to_vec())
                .collect();
            assert!(rs.verify(&spans).unwrap(), "after the {n}-byte put");
        }
        // And a crash of any one data span still reads every object back.
        for lost in 0..4 {
            let crash = FaultInjector::with_events(vec![disagg_hwsim::fault::FaultEvent {
                at: SimTime(1),
                kind: disagg_hwsim::fault::FaultKind::DeviceFail(heap.store.devs[lost]),
            }]);
            for &(id, n, tag) in &ids {
                let (data, _, _) = heap.get(&mgr, &topo, &mut ledger, &crash, id, SimTime(2)).unwrap();
                assert_eq!(data, obj(n, tag), "object of {n} bytes with span {lost} lost");
            }
        }
    }
}
