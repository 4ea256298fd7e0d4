//! Hotness tracking and tagged (remotable) pointers.
//!
//! The paper's RTS discussion points to prior work that "used pointer
//! tagging to track the hotness of pages or objects and to implement
//! remotable pointers that either point to objects in local or in remote
//! memory (pointer swizzling)". This module provides both ingredients:
//!
//! - [`TaggedPtr`] packs a device id, a saturating hotness counter, and a
//!   48-bit offset into one 64-bit word, exactly as a swizzling runtime
//!   would.
//! - [`HotnessTracker`] keeps exponentially decayed access statistics per
//!   region, feeding the tiering policy in [`mod@crate::migrate`].

use disagg_hwsim::fx::FxHashMap;
use disagg_hwsim::ids::MemDeviceId;
use disagg_hwsim::time::SimTime;

use crate::pool::RegionId;

/// A 64-bit tagged pointer: `[remote:1][hot:7][device:8][offset:48]`.
///
/// The tag bits live in the high byte that user-space pointers leave
/// unused on x86-64/AArch64 — the same trick production swizzling runtimes
/// (LeanStore, AIFM, TPP's page tracking) play.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaggedPtr(u64);

const OFFSET_BITS: u32 = 48;
const DEVICE_BITS: u32 = 8;
const HOT_BITS: u32 = 7;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;
const DEVICE_MASK: u64 = (1 << DEVICE_BITS) - 1;
const HOT_MASK: u64 = (1 << HOT_BITS) - 1;

impl TaggedPtr {
    /// Maximum representable hotness.
    pub const MAX_HOT: u8 = HOT_MASK as u8;

    /// Packs a pointer.
    ///
    /// # Panics
    ///
    /// Panics if `offset` needs more than 48 bits or `device` more than
    /// 8 bits — both far beyond any simulated configuration.
    pub fn pack(device: MemDeviceId, offset: u64, hotness: u8, remote: bool) -> TaggedPtr {
        assert!(offset <= OFFSET_MASK, "offset exceeds 48 bits");
        assert!(u64::from(device.0) <= DEVICE_MASK, "device id exceeds 8 bits");
        let hot = u64::from(hotness.min(Self::MAX_HOT));
        let r = u64::from(remote);
        TaggedPtr(
            (r << (OFFSET_BITS + DEVICE_BITS + HOT_BITS))
                | (hot << (OFFSET_BITS + DEVICE_BITS))
                | (u64::from(device.0) << OFFSET_BITS)
                | offset,
        )
    }

    /// The byte offset on the device.
    pub fn offset(self) -> u64 {
        self.0 & OFFSET_MASK
    }

    /// The device the pointee lives on.
    pub fn device(self) -> MemDeviceId {
        MemDeviceId(((self.0 >> OFFSET_BITS) & DEVICE_MASK) as u32)
    }

    /// The hotness counter.
    pub fn hotness(self) -> u8 {
        ((self.0 >> (OFFSET_BITS + DEVICE_BITS)) & HOT_MASK) as u8
    }

    /// Whether the pointee is remote (needs swizzling before direct use).
    pub fn is_remote(self) -> bool {
        (self.0 >> (OFFSET_BITS + DEVICE_BITS + HOT_BITS)) & 1 == 1
    }

    /// Returns the pointer with hotness incremented (saturating).
    pub fn touched(self) -> TaggedPtr {
        TaggedPtr::pack(
            self.device(),
            self.offset(),
            self.hotness().saturating_add(1),
            self.is_remote(),
        )
    }

    /// Swizzles the pointer to a new (local) location.
    pub fn swizzle(self, device: MemDeviceId, offset: u64) -> TaggedPtr {
        TaggedPtr::pack(device, offset, self.hotness(), false)
    }

    /// The raw word (for storage inside region bytes).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs from a raw word.
    pub fn from_raw(raw: u64) -> TaggedPtr {
        TaggedPtr(raw)
    }
}

/// Per-region decayed access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HotStat {
    /// Exponentially decayed access score.
    pub score: f64,
    /// Total accesses ever.
    pub total: u64,
    /// Last access time.
    pub last: SimTime,
}

/// Tracks region hotness with exponential decay.
#[derive(Debug, Default)]
pub struct HotnessTracker {
    /// Hashed, not a table indexed by id: the region manager forgets
    /// a region when it is freed, so the live set stays small while ids
    /// grow without bound, and `decay` must visit live entries only.
    /// `hot`/`cold` sort what they collect, so map order never shows.
    stats: FxHashMap<RegionId, HotStat>,
}

/// Factor every score is multiplied by per [`HotnessTracker::decay`] tick.
const DECAY: f64 = 0.5;

impl HotnessTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        HotnessTracker::default()
    }

    /// Records an access of `bytes` to `region` at time `now`.
    pub fn record(&mut self, region: RegionId, bytes: u64, now: SimTime) {
        let stat = self.stats.entry(region).or_default();
        // Score grows with access count, weighted by log-size so huge
        // streams don't drown small hot objects.
        stat.score += 1.0 + (bytes as f64).max(1.0).log2() / 16.0;
        stat.total += 1;
        stat.last = now;
    }

    /// Applies one decay tick to every region.
    pub fn decay(&mut self) {
        for stat in self.stats.values_mut() {
            stat.score *= DECAY;
        }
    }

    /// The current statistics for a region.
    pub fn stat(&self, region: RegionId) -> HotStat {
        self.stats.get(&region).copied().unwrap_or_default()
    }

    /// Regions with score at or above `threshold`, hottest first.
    pub fn hot(&self, threshold: f64) -> Vec<(RegionId, f64)> {
        let mut v: Vec<(RegionId, f64)> = self
            .stats
            .iter()
            .filter(|(_, s)| s.score >= threshold)
            .map(|(&r, s)| (r, s.score))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Regions with score strictly below `threshold`, coldest first.
    pub fn cold(&self, threshold: f64) -> Vec<(RegionId, f64)> {
        let mut v: Vec<(RegionId, f64)> = self
            .stats
            .iter()
            .filter(|(_, s)| s.score < threshold)
            .map(|(&r, s)| (r, s.score))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Forgets a freed region.
    pub fn forget(&mut self, region: RegionId) {
        self.stats.remove(&region);
    }

    /// Number of tracked regions.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagged_ptr_round_trips_all_fields() {
        let p = TaggedPtr::pack(MemDeviceId(7), 0xDEAD_BEEF, 42, true);
        assert_eq!(p.device(), MemDeviceId(7));
        assert_eq!(p.offset(), 0xDEAD_BEEF);
        assert_eq!(p.hotness(), 42);
        assert!(p.is_remote());
        let q = TaggedPtr::from_raw(p.raw());
        assert_eq!(p, q);
    }

    #[test]
    fn touch_saturates_at_max() {
        let mut p = TaggedPtr::pack(MemDeviceId(0), 0, TaggedPtr::MAX_HOT - 1, false);
        p = p.touched();
        assert_eq!(p.hotness(), TaggedPtr::MAX_HOT);
        p = p.touched();
        assert_eq!(p.hotness(), TaggedPtr::MAX_HOT, "must saturate, not wrap");
        assert_eq!(p.offset(), 0, "saturation must not bleed into offset");
    }

    #[test]
    fn swizzle_localizes_pointer() {
        let remote = TaggedPtr::pack(MemDeviceId(5), 1_000, 10, true);
        let local = remote.swizzle(MemDeviceId(0), 64);
        assert!(!local.is_remote());
        assert_eq!(local.device(), MemDeviceId(0));
        assert_eq!(local.offset(), 64);
        assert_eq!(local.hotness(), 10, "hotness survives swizzling");
    }

    #[test]
    #[should_panic(expected = "offset exceeds 48 bits")]
    fn oversized_offset_panics() {
        TaggedPtr::pack(MemDeviceId(0), 1 << 48, 0, false);
    }

    #[test]
    fn tracker_scores_grow_with_accesses() {
        let mut t = HotnessTracker::new();
        let r = RegionId(1);
        t.record(r, 64, SimTime(10));
        let s1 = t.stat(r).score;
        t.record(r, 64, SimTime(20));
        let s2 = t.stat(r).score;
        assert!(s2 > s1);
        assert_eq!(t.stat(r).total, 2);
        assert_eq!(t.stat(r).last, SimTime(20));
    }

    #[test]
    fn decay_cools_idle_regions() {
        let mut t = HotnessTracker::new();
        let r = RegionId(1);
        for _ in 0..10 {
            t.record(r, 64, SimTime(0));
        }
        let before = t.stat(r).score;
        t.decay();
        t.decay();
        assert!(t.stat(r).score < before / 3.0);
    }

    #[test]
    fn hot_and_cold_partition_by_threshold() {
        let mut t = HotnessTracker::new();
        for _ in 0..20 {
            t.record(RegionId(1), 64, SimTime(0));
        }
        t.record(RegionId(2), 64, SimTime(0));
        let hot = t.hot(5.0);
        let cold = t.cold(5.0);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].0, RegionId(1));
        assert_eq!(cold.len(), 1);
        assert_eq!(cold[0].0, RegionId(2));
    }

    #[test]
    fn hot_sorts_hottest_first() {
        let mut t = HotnessTracker::new();
        for _ in 0..5 {
            t.record(RegionId(1), 64, SimTime(0));
        }
        for _ in 0..10 {
            t.record(RegionId(2), 64, SimTime(0));
        }
        let hot = t.hot(0.0);
        assert_eq!(hot[0].0, RegionId(2));
        assert_eq!(hot[1].0, RegionId(1));
    }

    #[test]
    fn forget_removes_region() {
        let mut t = HotnessTracker::new();
        t.record(RegionId(1), 64, SimTime(0));
        assert_eq!(t.len(), 1);
        t.forget(RegionId(1));
        assert!(t.is_empty());
        assert_eq!(t.stat(RegionId(1)), HotStat::default());
    }

    #[test]
    fn large_streams_do_not_drown_small_hot_objects() {
        let mut t = HotnessTracker::new();
        // One huge streaming access vs many small accesses.
        t.record(RegionId(1), 1 << 30, SimTime(0));
        for _ in 0..10 {
            t.record(RegionId(2), 64, SimTime(0));
        }
        assert!(t.stat(RegionId(2)).score > t.stat(RegionId(1)).score);
    }
}
