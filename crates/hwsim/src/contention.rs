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
//! Lanes sit in two dense tables indexed by resource id (`Mem(d)` at `d`,
//! `Link(l)` at `l`), so finding a resource's lane is one bounds check; a
//! lane the run never books holds no bucket storage.
//!
//! **The alias window is the semantics.** Each lane has a power-of-two
//! window of `mask + 1` quanta (bucket numbers; 4 096 at first, doubled by
//! `Lane::reserve_span` whenever one reservation could span more than
//! half of it). Two quanta that agree modulo the window share one
//! *window slot*: a slot holds the newest quantum that touched it, a newer
//! alias **lazily evicts** an older one (a quantum the simulation has moved
//! past costs nothing to retire), and an older alias that arrives after a
//! newer one is served from a spill map, so it never corrupts the newer
//! bucket. That rule is what fixes every booking's result.
//!
//! **Collisions size the physical ring.** Window slots are stored in a
//! smaller power-of-two ring indexed `quantum & ring_mask`, allocated at
//! the lane's first booking with a few hundred slots. The ring stores every
//! occupied window slot at its own ring slot; when a quantum lands on a
//! ring slot held by a quantum of a *different* window slot (they agree
//! modulo the ring but not modulo the window), the ring grows to the
//! smallest power of two that separates them, at most the window. Growing
//! re-lays slots out without merging any (quanta distinct modulo a small
//! ring stay distinct modulo a larger one), and a window that grows changes
//! no ring index, so the ring holds exactly the state the full window would
//! and only decides how much host memory it takes: a run pays for the
//! virtual time it spans, not for the window.

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

/// Initial alias window per resource (quanta). At the default 10 µs
/// bucket it spans ~41 ms of virtual time, far beyond any live reservation
/// window in practice; it grows when a single reservation spans more.
const INITIAL_SLOTS: usize = 4096;

/// Physical ring slots a lane allocates at its first booking: 1.28 ms of
/// virtual time at the default 10 µs bucket. The ring grows on collision.
const RING_SLOTS: usize = 128;

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

/// Per-resource bucket state plus the bytes it has carried.
#[derive(Debug)]
struct Lane {
    /// Power-of-two physical ring; slot for quantum `q` is `q & ring_mask`.
    /// Empty until the lane's first booking.
    slots: Vec<Slot>,
    ring_mask: u64,
    /// Alias window minus one: quanta equal modulo `mask + 1` share a
    /// window slot (see the module docs).
    mask: u64,
    /// Half the window less two buckets (capped at 2⁵⁰, so the bound
    /// survives rounding): a booking no larger than this many buckets'
    /// capacity cannot outgrow the window, so `reserve` multiplies by it
    /// instead of dividing.
    fits_buckets: f64,
    /// Spill storage for quanta whose window slot was already claimed by a
    /// *newer* alias (only reachable if a reservation jumps further back
    /// in virtual time than the window retains — pathological, but must
    /// not corrupt the newer bucket).
    spill: FxHashMap<u64, Slot>,
    /// Total bytes transferred through the resource.
    bytes: f64,
}

impl Lane {
    fn new() -> Lane {
        let mut lane = Lane {
            slots: Vec::new(),
            ring_mask: 0,
            mask: 0,
            fits_buckets: 0.0,
            spill: FxHashMap::default(),
            bytes: 0.0,
        };
        lane.set_window(INITIAL_SLOTS as u64);
        lane
    }

    fn set_window(&mut self, cap: u64) {
        self.mask = cap - 1;
        self.fits_buckets = (cap / 2).saturating_sub(2).min(1 << 50) as f64;
    }

    /// Ensures the window can hold `span` consecutive quanta without
    /// self-aliasing (grows geometrically). The ring is not touched: a
    /// quantum's ring slot does not depend on the window.
    #[inline]
    fn reserve_span(&mut self, span: u64) {
        let mut cap = self.mask + 1;
        if span.saturating_mul(2) <= cap {
            return;
        }
        while span.saturating_mul(2) > cap {
            cap = cap.saturating_mul(2);
        }
        self.set_window(cap);
    }

    /// Re-lays the ring out over `len` slots (a power of two no smaller
    /// than the current ring); occupied slots stay distinct.
    #[cold]
    fn grow_ring(&mut self, len: usize) {
        let mut slots = vec![Slot::empty(); len];
        let ring_mask = len as u64 - 1;
        for s in self.slots.drain(..) {
            if s.quantum != EMPTY {
                slots[(s.quantum & ring_mask) as usize] = s;
            }
        }
        self.slots = slots;
        self.ring_mask = ring_mask;
    }

    /// The live bucket state for quantum `q`, lazily evicting an expired
    /// older alias of the same window slot.
    #[inline]
    fn slot_mut(&mut self, q: u64) -> &mut Slot {
        loop {
            let i = (q & self.ring_mask) as usize;
            let held = self.slots[i].quantum;
            if held == q {
                return &mut self.slots[i];
            }
            if held != EMPTY && (held ^ q) & self.mask != 0 {
                // Another window slot owns this ring slot, so `q`'s window
                // slot is empty: grow until the two part, which they do by
                // the window's size at the latest.
                self.grow_ring(1 << ((held ^ q).trailing_zeros() + 1));
                continue;
            }
            if held == EMPTY || held < q {
                // Lazy eviction: the older quantum can never affect a future
                // reservation once a newer alias claims the slot.
                self.slots[i] = Slot { quantum: q, ..Slot::empty() };
                return &mut self.slots[i];
            }
            // The slot holds a *newer* alias: serve the old one from spill
            // so we never clobber live future state.
            return self.spill.entry(q).or_insert(Slot { quantum: q, ..Slot::empty() });
        }
    }
}

/// `x.ceil() as u64` without a libm call, for every `x` (a negative or NaN
/// `x` gives 0, a too-large one `u64::MAX`, as the cast does).
#[inline]
fn ceil_u64(x: f64) -> u64 {
    let t = x as u64;
    if (t as f64) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

/// Deterministic, bucketed bandwidth ledger.
#[derive(Debug)]
pub struct BandwidthLedger {
    bucket_ns: u64,
    /// Lanes of `Mem(d)`, indexed by `d`.
    mem: Vec<Lane>,
    /// Lanes of `Link(l)`, indexed by `l`.
    links: Vec<Lane>,
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
        BandwidthLedger { bucket_ns, mem: Vec::new(), links: Vec::new() }
    }

    /// Default ledger (10 µs buckets).
    pub fn default_buckets() -> Self {
        BandwidthLedger::new(10_000)
    }

    fn lane(&self, resource: ResourceKey) -> Option<&Lane> {
        match resource {
            ResourceKey::Mem(d) => self.mem.get(d.0 as usize),
            ResourceKey::Link(l) => self.links.get(l.0 as usize),
        }
    }

    fn lane_mut(&mut self, resource: ResourceKey) -> &mut Lane {
        let (table, i) = match resource {
            ResourceKey::Mem(d) => (&mut self.mem, d.0 as usize),
            ResourceKey::Link(l) => (&mut self.links, l.0 as usize),
        };
        if i >= table.len() {
            table.resize_with(i + 1, Lane::new);
        }
        &mut table[i]
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
        let lane = self.lane_mut(resource);
        if lane.slots.is_empty() {
            lane.grow_ring(RING_SLOTS);
        }
        // Upper bound on the bucket span of this reservation assuming it
        // finds every bucket empty is bytes/cap; contention can stretch it
        // further, so the span is re-checked as the loop advances. A
        // booking within `fits_buckets` buckets' capacity cannot outgrow
        // the window, so it skips the division.
        if bytes > cap_per_bucket * lane.fits_buckets {
            lane.reserve_span((bytes / cap_per_bucket) as u64 + 2);
        }

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
                let own_finish = start.as_nanos() + ceil_u64(own_ns);
                let consumed_fraction = (slot.used / cap_per_bucket).min(1.0);
                let fifo_finish =
                    bucket * bucket_ns + ceil_u64(consumed_fraction * bucket_ns as f64);
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
        self.lane(resource).map_or(0.0, |l| l.bytes)
    }

    /// Physical ring slots `resource`'s lane holds (zero before its first
    /// booking).
    #[cfg(test)]
    fn ring_slots(&self, resource: ResourceKey) -> usize {
        self.lane(resource).map_or(0, |l| l.slots.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::BTreeMap;

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

    /// The ledger's arithmetic over a map of every (resource, quantum)
    /// ever booked, walked bucket by bucket: no ring, no window, no
    /// eviction. It agrees with the ledger wherever the ledger's alias rule
    /// never fires, i.e. while no booking starts more than 4 096 quanta
    /// before the newest quantum its resource has touched.
    struct Reference {
        bucket_ns: u64,
        used: BTreeMap<(Key, u64), f64>,
        bytes: BTreeMap<Key, f64>,
        /// Newest quantum each resource has touched.
        frontier: BTreeMap<Key, u64>,
    }

    /// `ResourceKey` as an ordered map key.
    type Key = (bool, u32);

    fn lane_key(r: ResourceKey) -> Key {
        match r {
            ResourceKey::Mem(d) => (false, d.0),
            ResourceKey::Link(l) => (true, l.0),
        }
    }

    impl Reference {
        fn new(bucket_ns: u64) -> Reference {
            Reference {
                bucket_ns,
                used: BTreeMap::new(),
                bytes: BTreeMap::new(),
                frontier: BTreeMap::new(),
            }
        }

        fn reserve(&mut self, r: ResourceKey, start: SimTime, bytes: f64, bw: f64) -> SimTime {
            if bytes <= 0.0 || !bw.is_finite() || bw <= 0.0 {
                return start;
            }
            let bn = self.bucket_ns;
            let cap_per_bucket = bw * bn as f64;
            let mut remaining = bytes;
            let mut bucket = start.as_nanos() / bn;
            let mut first_fraction = 1.0 - (start.as_nanos() % bn) as f64 / bn as f64;
            let mut own_ns = 0.0f64;
            loop {
                let cap = cap_per_bucket * first_fraction;
                first_fraction = 1.0;
                let used = self.used.entry((lane_key(r), bucket)).or_insert(0.0);
                let avail = (cap - *used).max(0.0);
                if remaining <= avail {
                    *used += remaining;
                    own_ns += remaining / bw;
                    let own_finish = start.as_nanos() + own_ns.ceil() as u64;
                    let consumed = (*used / cap_per_bucket).min(1.0);
                    let fifo_finish = bucket * bn + (consumed * bn as f64).ceil() as u64;
                    let f = self.frontier.entry(lane_key(r)).or_insert(0);
                    *f = (*f).max(bucket);
                    *self.bytes.entry(lane_key(r)).or_insert(0.0) += bytes;
                    return SimTime(own_finish.max(fifo_finish).max(start.as_nanos()));
                }
                *used += avail;
                remaining -= avail;
                own_ns += avail / bw;
                bucket += 1;
            }
        }

        /// Drops quanta no booking of the stream can reach again.
        fn prune(&mut self) {
            let frontier = &self.frontier;
            self.used.retain(|(r, q), _| q + 4_096 > frontier.get(r).copied().unwrap_or(0));
        }
    }

    /// Drives the ledger and the reference with one seeded stream of
    /// `n` bookings over six resources, comparing every finish time and,
    /// at the end, every resource's bytes.
    fn check_against_reference(seed: u64, n: usize, bucket_ns: u64) {
        let resources = [
            ResourceKey::Mem(MemDeviceId(0)),
            ResourceKey::Mem(MemDeviceId(1)),
            ResourceKey::Mem(MemDeviceId(5)),
            ResourceKey::Link(LinkId(0)),
            ResourceKey::Link(LinkId(3)),
            ResourceKey::Link(LinkId(4)),
        ];
        let bws = [0.5, 3.7, 8.0, 64.0];
        let mut rng = SimRng::new(seed);
        let mut ledger = BandwidthLedger::new(bucket_ns);
        let mut oracle = Reference::new(bucket_ns);
        for i in 0..n {
            let r = *rng.pick(&resources);
            let frontier = oracle.frontier.get(&lane_key(r)).copied().unwrap_or(0);
            let quantum = match rng.next_below(10) {
                // Out of order, anywhere inside the 4 096-bucket window.
                0..=2 => frontier.saturating_sub(rng.next_below(4_096)),
                // Near the frontier, a little behind or ahead of it.
                3..=8 => (frontier + rng.next_below(4)).saturating_sub(rng.next_below(40)),
                // A jump ahead.
                _ => frontier + rng.range(4, 2_000),
            };
            let offset = if rng.chance(0.3) { 0 } else { rng.next_below(bucket_ns) };
            let start = SimTime(quantum * bucket_ns + offset);
            let mut bw = *rng.pick(&bws);
            let cap = bw * bucket_ns as f64;
            let mut bytes = match rng.next_below(1_000) {
                // Longer than the 4 096-bucket window: grows it.
                0 if rng.chance(0.2) => cap * rng.range(4_100, 9_000) as f64,
                // Longer than 64 buckets: grows the ring.
                0..=39 => cap * rng.range(65, 400) as f64 + rng.next_f64() * cap,
                // Up to a few buckets.
                40..=399 => cap * rng.range(1, 8) as f64 * rng.next_f64(),
                // Sub-bucket.
                _ => cap * rng.next_f64() * 0.5,
            };
            match rng.next_below(100) {
                0 => bytes = 0.0,
                1 => bytes = -bytes,
                2 => bw = 0.0,
                3 => bw = *rng.pick(&[f64::NAN, f64::INFINITY, -1.0]),
                _ => {}
            }
            let got = ledger.reserve(r, start, bytes, bw);
            let want = oracle.reserve(r, start, bytes, bw);
            assert_eq!(
                got, want,
                "booking {i}: {r:?} at {start:?}, {bytes} B at {bw} B/ns (seed {seed})"
            );
            if i % 4_096 == 4_095 {
                oracle.prune();
            }
        }
        for r in resources {
            let want = oracle.bytes.get(&lane_key(r)).copied().unwrap_or(0.0);
            assert_eq!(ledger.bytes(r), want, "{r:?} bytes (seed {seed})");
        }
        assert_eq!(ledger.bytes(ResourceKey::Mem(MemDeviceId(3))), 0.0);
    }

    #[test]
    fn ledger_matches_reference() {
        for seed in 0..4 {
            check_against_reference(seed, 5_000, 10_000);
            check_against_reference(seed + 100, 5_000, 1_000);
        }
    }

    /// The heavy stream: a million bookings, run in release by CI.
    #[test]
    #[ignore]
    fn ledger_matches_reference_over_a_million_bookings() {
        check_against_reference(7, 500_000, 10_000);
        check_against_reference(8, 500_000, 1_000);
    }

    #[test]
    fn ledger_holds_no_ring_until_booked_and_a_small_one_for_a_short_run() {
        let mut ledger = BandwidthLedger::default_buckets();
        let late = ResourceKey::Mem(MemDeviceId(3));
        assert_eq!(ledger.ring_slots(DEV), 0);
        assert_eq!(ledger.ring_slots(late), 0);
        // Calls that book nothing allocate nothing.
        ledger.reserve(late, SimTime(0), 0.0, 10.0);
        ledger.reserve(late, SimTime(0), 1e6, 0.0);
        assert_eq!(ledger.ring_slots(late), 0);
        // Book 1 ms of virtual time, out of order and contended.
        let mut rng = SimRng::new(3);
        for _ in 0..2_000 {
            let start = SimTime(rng.next_below(900_000));
            let f = ledger.reserve(late, start, rng.range(1, 4_000) as f64, 64.0);
            assert!(f < SimTime(1_000_000), "stream stays inside 1 ms");
        }
        assert!(ledger.ring_slots(late) > 0);
        assert!(ledger.ring_slots(late) <= 256, "{} slots", ledger.ring_slots(late));
        // The lane below it in the dense table stays ringless.
        assert_eq!(ledger.ring_slots(DEV), 0);
        assert_eq!(ledger.ring_slots(ResourceKey::Link(LinkId(0))), 0);
    }

    #[test]
    fn integer_ceil_matches_f64_ceil() {
        let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let ulp_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let two52 = (1u64 << 52) as f64;
        let two53 = (1u64 << 53) as f64;
        let two64 = 2.0f64.powi(64);
        let mut xs = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            0.5,
            two52,
            two53,
            two64,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -0.5,
            -3.0,
        ];
        for k in [1.0, 2.0, 3.0, 1_000.0, 10_000.0, 123_456_789.0, two52, two53, two64] {
            xs.extend([k, ulp_up(k), ulp_down(k)]);
        }
        for x in xs {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "ceil({x:e})");
        }
        let mut rng = SimRng::new(11);
        for _ in 0..100_000 {
            let x = rng.next_f64() * 2f64.powi(rng.next_below(70) as i32);
            assert_eq!(ceil_u64(x), x.ceil() as u64, "ceil({x:e})");
        }
    }
}
