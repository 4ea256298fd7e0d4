//! Bandwidth contention accounting.
//!
//! Devices and links have finite bandwidth; when many tasks stream against
//! the same CXL expander the paper's placement problem gets interesting.
//! The [`BandwidthLedger`] models contention deterministically: virtual
//! time is divided into fixed buckets, every transfer reserves bytes in the
//! buckets it spans, and a bucket that is already fully subscribed pushes
//! the remainder of a transfer into later buckets (FIFO queueing). The
//! resulting slowdown is a pure function of the sequence of reservations,
//! so experiment output is reproducible.
//!
//! # Hot-path layout
//!
//! Bucket state lives in per-resource **ring buffers** indexed by quantum
//! (bucket number), not in a `(resource, bucket) → f64` hash map: one
//! resource lookup per reservation, then O(1) direct indexing per bucket.
//! Slots are tagged with the quantum they hold and **lazily evicted** —
//! a slot is reset the first time a newer quantum that aliases onto it is
//! touched, so quanta the simulation has moved past cost nothing to
//! retire. The ring guarantees exact accounting for any two live quanta
//! less than its capacity apart (it grows to cover the span of any single
//! reservation); an access that lands on a quantum already evicted by a
//! newer alias falls back to a spill map, so accounting never corrupts
//! newer buckets.

use crate::fx::FxHashMap;
use crate::ids::{LinkId, MemDeviceId};
use crate::time::SimTime;

/// A contended resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKey {
    /// A memory device's internal bandwidth.
    Mem(MemDeviceId),
    /// An interconnect link.
    Link(LinkId),
}

/// Sentinel quantum for a ring slot that holds nothing.
const EMPTY: u64 = u64::MAX;

/// Initial ring capacity per resource (quanta). At the default 10 µs
/// bucket this retains ~41 ms of virtual time, far beyond any live
/// reservation window in practice; the ring grows when a single
/// reservation spans more.
const INITIAL_SLOTS: usize = 4096;

/// One time bucket of one resource.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Which quantum this slot currently holds ([`EMPTY`] if none).
    quantum: u64,
    /// Bytes already reserved in the quantum.
    used: f64,
}

impl Slot {
    const fn empty() -> Slot {
        Slot { quantum: EMPTY, used: 0.0 }
    }
}

/// Per-resource ring of bucket state plus the bytes it has carried.
#[derive(Debug)]
struct Lane {
    /// Power-of-two ring; slot for quantum `q` is `q & mask`.
    slots: Vec<Slot>,
    mask: u64,
    /// Spill storage for quanta whose ring slot was already claimed by a
    /// *newer* alias (only reachable if a reservation jumps further back
    /// in virtual time than the ring retains — pathological, but must
    /// not corrupt the newer bucket).
    spill: FxHashMap<u64, Slot>,
    /// Total bytes transferred through the resource.
    bytes: f64,
}

impl Lane {
    fn new() -> Lane {
        Lane {
            slots: vec![Slot::empty(); INITIAL_SLOTS],
            mask: INITIAL_SLOTS as u64 - 1,
            spill: FxHashMap::default(),
            bytes: 0.0,
        }
    }

    /// Ensures the ring can hold `span` consecutive quanta without
    /// self-aliasing (grows geometrically, re-laying out live slots).
    fn reserve_span(&mut self, span: u64) {
        let mut cap = self.mask + 1;
        if span.saturating_mul(2) <= cap {
            return;
        }
        while span.saturating_mul(2) > cap {
            cap = cap.saturating_mul(2);
        }
        let mut slots = vec![Slot::empty(); cap as usize];
        let mask = cap - 1;
        for s in self.slots.drain(..) {
            if s.quantum != EMPTY {
                slots[(s.quantum & mask) as usize] = s;
            }
        }
        self.slots = slots;
        self.mask = mask;
    }

    /// The live bucket state for quantum `q`, lazily evicting an expired
    /// older occupant of the same ring slot.
    fn slot_mut(&mut self, q: u64) -> &mut Slot {
        let i = (q & self.mask) as usize;
        let held = self.slots[i].quantum;
        if held == q {
            return &mut self.slots[i];
        }
        if held == EMPTY || held < q {
            // Lazy eviction: the older quantum can never affect a future
            // reservation once a newer alias claims the slot.
            self.slots[i] = Slot { quantum: q, ..Slot::empty() };
            return &mut self.slots[i];
        }
        // The slot holds a *newer* quantum: serve the old one from spill
        // so we never clobber live future state.
        self.spill.entry(q).or_insert(Slot { quantum: q, ..Slot::empty() })
    }
}

/// Deterministic, bucketed bandwidth ledger.
#[derive(Debug)]
pub struct BandwidthLedger {
    bucket_ns: u64,
    /// Resource → dense lane index.
    lane_of: FxHashMap<ResourceKey, u32>,
    lanes: Vec<Lane>,
}

impl BandwidthLedger {
    /// Creates a ledger with the given bucket width. Smaller buckets model
    /// contention more precisely but cost more to simulate; 10 µs is a good
    /// default for rack-scale experiments.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_ns` is zero.
    pub fn new(bucket_ns: u64) -> Self {
        assert!(bucket_ns > 0, "bucket width must be positive");
        BandwidthLedger {
            bucket_ns,
            lane_of: FxHashMap::default(),
            lanes: Vec::new(),
        }
    }

    /// Default ledger (10 µs buckets).
    pub fn default_buckets() -> Self {
        BandwidthLedger::new(10_000)
    }

    fn lane_mut(&mut self, resource: ResourceKey) -> &mut Lane {
        let idx = *self.lane_of.entry(resource).or_insert_with(|| {
            self.lanes.push(Lane::new());
            (self.lanes.len() - 1) as u32
        });
        &mut self.lanes[idx as usize]
    }

    /// Reserves `bytes` of transfer on `resource` starting at `start`,
    /// given the resource's bandwidth in bytes/ns. Returns the *finish
    /// time* of the transfer after queueing behind earlier reservations.
    ///
    /// A transfer through an empty ledger finishes exactly `bytes / bw`
    /// after `start`; oversubscribed buckets stretch it.
    pub fn reserve(
        &mut self,
        resource: ResourceKey,
        start: SimTime,
        bytes: f64,
        bw_bpns: f64,
    ) -> SimTime {
        if bytes <= 0.0 || !bw_bpns.is_finite() || bw_bpns <= 0.0 {
            return start;
        }
        let bucket_ns = self.bucket_ns;
        let cap_per_bucket = bw_bpns * bucket_ns as f64;
        // Upper bound on the bucket span of this reservation assuming it
        // finds every bucket empty is bytes/cap; contention can stretch it
        // further, so the span is re-checked as the loop advances.
        let lane = self.lane_mut(resource);
        lane.reserve_span((bytes / cap_per_bucket) as u64 + 2);

        let mut remaining = bytes;
        let first_bucket = start.as_nanos() / bucket_ns;
        let mut bucket = first_bucket;
        // Fractional headroom of the first bucket: the transfer only
        // occupies the part of the bucket after `start`.
        let mut first_fraction =
            1.0 - (start.as_nanos() % bucket_ns) as f64 / bucket_ns as f64;
        // Time this op's own bytes take at rated bandwidth (accumulated
        // across buckets): the floor below which no finish can fall.
        let mut own_ns = 0.0f64;
        let finish;
        loop {
            lane.reserve_span(bucket - first_bucket + 2);
            let cap = cap_per_bucket * first_fraction;
            first_fraction = 1.0;
            let slot = lane.slot_mut(bucket);
            let avail = (cap - slot.used).max(0.0);
            if remaining <= avail {
                slot.used += remaining;
                own_ns += remaining / bw_bpns;
                // Two bounds on the completion instant: the op's own
                // serial transfer time from `start`, and the FIFO position
                // implied by everything reserved in this bucket.
                let own_finish = start.as_nanos() + own_ns.ceil() as u64;
                let consumed_fraction = (slot.used / cap_per_bucket).min(1.0);
                let fifo_finish = bucket * bucket_ns
                    + (consumed_fraction * bucket_ns as f64).ceil() as u64;
                finish = SimTime(own_finish.max(fifo_finish).max(start.as_nanos()));
                break;
            }
            slot.used += avail;
            remaining -= avail;
            own_ns += avail / bw_bpns;
            bucket += 1;
        }
        lane.bytes += bytes;
        finish
    }

    /// Bytes transferred through one resource (zero if never used).
    pub fn bytes(&self, resource: ResourceKey) -> f64 {
        self.lane_of.get(&resource).map_or(0.0, |&i| self.lanes[i as usize].bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEV: ResourceKey = ResourceKey::Mem(MemDeviceId(0));

    #[test]
    fn uncontended_transfer_finishes_at_rated_bandwidth() {
        let mut ledger = BandwidthLedger::new(1_000);
        // 10 GB/s, 10_000 bytes → 1_000 ns.
        let finish = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        assert_eq!(finish, SimTime(1_000));
    }

    #[test]
    fn second_flow_queues_behind_first() {
        let mut ledger = BandwidthLedger::new(1_000);
        let f1 = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        let f2 = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        assert_eq!(f1, SimTime(1_000));
        // Second transfer finds the first bucket full and lands in the next.
        assert_eq!(f2, SimTime(2_000));
    }

    #[test]
    fn disjoint_resources_do_not_contend() {
        let mut ledger = BandwidthLedger::new(1_000);
        let other = ResourceKey::Mem(MemDeviceId(1));
        let f1 = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        let f2 = ledger.reserve(other, SimTime(0), 10_000.0, 10.0);
        assert_eq!(f1, f2);
    }

    #[test]
    fn mid_bucket_start_has_partial_headroom() {
        let mut ledger = BandwidthLedger::new(1_000);
        // Start halfway into a bucket: only half the bucket's capacity
        // remains, so a 10_000-byte transfer at 10 B/ns spills over.
        let finish = ledger.reserve(DEV, SimTime(500), 10_000.0, 10.0);
        assert!(finish > SimTime(1_000));
        assert!(finish <= SimTime(2_000));
    }

    #[test]
    fn zero_bytes_is_instant() {
        let mut ledger = BandwidthLedger::new(1_000);
        assert_eq!(ledger.reserve(DEV, SimTime(42), 0.0, 10.0), SimTime(42));
    }

    #[test]
    fn infinite_bandwidth_is_instant() {
        let mut ledger = BandwidthLedger::new(1_000);
        assert_eq!(
            ledger.reserve(DEV, SimTime(42), 1e9, f64::INFINITY),
            SimTime(42)
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut ledger = BandwidthLedger::new(1_000);
        ledger.reserve(DEV, SimTime(0), 5_000.0, 10.0);
        ledger.reserve(DEV, SimTime(0), 5_000.0, 10.0);
        assert_eq!(ledger.bytes(DEV), 10_000.0);
        assert_eq!(ledger.bytes(ResourceKey::Mem(MemDeviceId(1))), 0.0);
    }

    #[test]
    fn many_flows_slow_down_linearly() {
        let mut ledger = BandwidthLedger::new(1_000);
        let mut last = SimTime(0);
        for _ in 0..8 {
            last = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        }
        // Eight serialized 1_000 ns transfers → 8_000 ns.
        assert_eq!(last, SimTime(8_000));
    }

    #[test]
    fn single_reservation_spanning_many_buckets_grows_the_ring() {
        let mut ledger = BandwidthLedger::new(1_000);
        // 100M bytes at 10 B/ns = 10M ns = 10_000 buckets (> INITIAL_SLOTS).
        let finish = ledger.reserve(DEV, SimTime(0), 100_000_000.0, 10.0);
        assert_eq!(finish, SimTime(10_000_000));
        // A second flow queues behind the entire first transfer.
        let f2 = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        assert_eq!(f2, SimTime(10_001_000));
    }

    #[test]
    fn far_future_then_far_past_reservations_stay_isolated() {
        let mut ledger = BandwidthLedger::new(1_000);
        // Touch a quantum far in the future, then come back to a quantum
        // that aliases onto an evicted slot: the old quantum must see a
        // clean bucket (spill path) and must not disturb the future one.
        let far = SimTime(INITIAL_SLOTS as u64 * 1_000 * 3);
        let f1 = ledger.reserve(DEV, far, 10_000.0, 10.0);
        assert_eq!(f1, SimTime(far.as_nanos() + 1_000));
        let f2 = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        assert_eq!(f2, SimTime(1_000));
        let f3 = ledger.reserve(DEV, far, 10_000.0, 10.0);
        assert_eq!(f3, SimTime(far.as_nanos() + 2_000), "future bucket kept its charge");
    }

    #[test]
    fn forward_progress_reuses_slots_without_leaking_charge() {
        let mut ledger = BandwidthLedger::new(1_000);
        // March far past the ring capacity; every bucket must look fresh.
        for i in 0..(INITIAL_SLOTS as u64 * 4) {
            let at = SimTime(i * 1_000);
            let f = ledger.reserve(DEV, at, 5_000.0, 10.0);
            assert_eq!(f, SimTime(at.as_nanos() + 500), "bucket {i} had stale charge");
        }
    }
}
