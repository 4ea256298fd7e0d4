//! Arithmetic over the Galois field GF(2⁸).
//!
//! Reed–Solomon coding works over a finite field; we use GF(2⁸) with the
//! conventional generator polynomial `x⁸ + x⁴ + x³ + x² + 1` (0x11D), the
//! same field every production erasure-coding library uses. Addition is
//! XOR. Scalar multiplication ([`mul`], [`div`], [`pow`]: matrix set-up,
//! a few hundred calls per codec) goes through exp/log tables built once.
//!
//! Bulk data goes through one kernel, [`mul_row`]: the fused row product
//! `out = ⊕ᵢ cᵢ·srcᵢ` that both encoding (a parity row) and decoding (a
//! row of the inverted sub-matrix) reduce to. It works on `u64` words,
//! eight field elements at a time, by **Horner over the coefficients'
//! bit planes**. Writing `cᵢ = Σ_b cᵢ[b]·xᵇ`,
//!
//! ```text
//! ⊕ᵢ cᵢ·sᵢ = ⊕_b xᵇ·P_b            P_b = ⊕ { sᵢ : bit b of cᵢ is set }
//!          = (…((P₇·x ⊕ P₆)·x ⊕ P₅)·x … )·x ⊕ P₀
//! ```
//!
//! so an output word costs at most seven multiplications by `x` (a
//! shift, a mask and a conditional reduction, done on all eight lanes of
//! the word at once) *however many sources there are*, plus one XOR per
//! source per set coefficient bit, and every output byte is written
//! exactly once. Nothing branches on the data; which XORs run depends on
//! the coefficients only.
//!
//! Why not the textbook alternatives:
//!
//! - **log/exp tables per byte** (what this module used to do: `dst[i] ^=
//!   exp[log c + log src[i]]`) is one byte per step, two dependent loads
//!   and a zero test on the data, and it re-reads and re-writes the
//!   destination once per source: ≈1.4 GiB/s of source bytes on the box
//!   that recorded EXPERIMENTS.md, against ≈7 GiB/s for this kernel.
//! - **byte lanes** (the same Horner scheme over `[u8; N]` blocks, leaving
//!   the lane width to LLVM) measured ≈10 GiB/s on that box, but it is a
//!   byte per step wherever the vectorizer does not fire — debug builds,
//!   which is what `cargo test` runs, and targets without SIMD. A word is
//!   eight lanes everywhere.
//! - **`pshufb` nibble tables** (ISA-L, klauspost/reedsolomon) are faster
//!   still but need SSSE3/AVX2/NEON intrinsics, which means `unsafe`,
//!   run-time feature detection and a second code path to keep equal to
//!   the first. The crate is `#![forbid(unsafe_code)]`; the kernel is
//!   plain integer arithmetic that LLVM widens to whatever vectors the
//!   target has (SSE2 on baseline x86-64), with no `std::arch` and
//!   nothing selected per platform.
//!
//! Host speed of this module never enters virtual time: the modelled cost
//! of coding is [`crate::ParityEngine::ns_per_byte`].

use std::sync::OnceLock;

/// The irreducible polynomial defining the field (0x11D).
const POLY: u32 = 0x11D;

struct Tables {
    /// `exp[i] = g^i` for generator g = 2, doubled to avoid mod 255.
    exp: [u8; 512],
    /// `log[x]` such that `g^log[x] = x`; `log[0]` is unused.
    log: [u16; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u16; 256];
        let mut x: u32 = 1;
        for (i, e) in exp.iter_mut().take(255).enumerate() {
            *e = x as u8;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        let (head, tail) = exp.split_at_mut(255);
        tail[..255].copy_from_slice(head);
        tail[255..].copy_from_slice(&head[..2]);
        Tables { exp, log }
    })
}

/// Field addition (XOR).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Field division.
///
/// # Panics
///
/// Panics on division by zero.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let t = tables();
    t.exp[(t.log[a as usize] as usize + 255 - t.log[b as usize] as usize) % 255 + 255]
}

/// Multiplicative inverse.
///
/// # Panics
///
/// Panics on zero.
#[inline]
pub fn inv(a: u8) -> u8 {
    div(1, a)
}

/// Exponentiation `base^exp` in the field.
pub fn pow(base: u8, exp: u32) -> u8 {
    if exp == 0 {
        return 1;
    }
    if base == 0 {
        return 0;
    }
    let t = tables();
    let l = t.log[base as usize] as u64 * exp as u64 % 255;
    t.exp[l as usize]
}

/// The high bit of each of a word's eight lanes.
const HI: u64 = 0x8080_8080_8080_8080;
/// The reduction polynomial's low byte (0x1D) in every lane.
const REDUCE: u64 = 0x1D1D_1D1D_1D1D_1D1D;
/// Words per block of [`mul_row`]'s main loop: 128 bytes of accumulator,
/// small enough to stay in registers / L1, wide enough to vectorize.
const BLOCK_WORDS: usize = 16;

/// Multiplies each of the eight field elements packed in `w` by `x`.
#[inline(always)]
fn xtime(w: u64) -> u64 {
    let hi = w & HI;
    // `(hi << 1) - (hi >> 7)` turns each set high bit into a full 0xFF
    // lane (the bit shifted out of the top lane wraps to the same value).
    ((w & !HI) << 1) ^ ((hi << 1).wrapping_sub(hi >> 7) & REDUCE)
}

/// Sources of a row product grouped by coefficient bit: plane `b` lists
/// every source whose coefficient has bit `b` set.
struct Planes<'a> {
    srcs: Vec<&'a [u8]>,
    /// Plane `b` is `srcs[start[b]..start[b + 1]]`.
    start: [usize; 9],
}

impl<'a> Planes<'a> {
    fn new(coeffs: &[u8], srcs: &[&'a [u8]]) -> Planes<'a> {
        let mut grouped = Vec::new();
        let mut start = [0usize; 9];
        for b in 0..8 {
            let plane = coeffs.iter().zip(srcs).filter(|(&c, _)| c >> b & 1 != 0);
            grouped.extend(plane.map(|(_, &s)| s));
            start[b + 1] = grouped.len();
        }
        Planes { srcs: grouped, start }
    }

    fn plane(&self, b: usize) -> &[&'a [u8]] {
        &self.srcs[self.start[b]..self.start[b + 1]]
    }

    /// Computes `W` output words starting at byte `at`; `top` is the
    /// highest non-empty plane.
    #[inline(always)]
    fn fold<const W: usize>(&self, top: usize, at: usize, out: &mut [u8]) {
        let mut acc = [0u64; W];
        for b in (0..=top).rev() {
            if b != top {
                for a in &mut acc {
                    *a = xtime(*a);
                }
            }
            for s in self.plane(b) {
                let s = &s[at..at + 8 * W];
                for (a, word) in acc.iter_mut().zip(s.chunks_exact(8)) {
                    *a ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
                }
            }
        }
        for (o, a) in out[at..at + 8 * W].chunks_exact_mut(8).zip(acc) {
            o.copy_from_slice(&a.to_le_bytes());
        }
    }
}

/// The fused row product `out[j] = ⊕ᵢ coeffs[i] · srcs[i][j]`: the one
/// bulk kernel of the erasure-coded path (see the module docs). `out` is
/// overwritten, not accumulated into.
///
/// # Panics
///
/// Panics if `coeffs` and `srcs` differ in length or any source's length
/// differs from `out`'s.
pub fn mul_row(out: &mut [u8], coeffs: &[u8], srcs: &[&[u8]]) {
    assert_eq!(coeffs.len(), srcs.len(), "one coefficient per source");
    let len = out.len();
    assert!(srcs.iter().all(|s| s.len() == len), "sources must match the output in length");
    let planes = Planes::new(coeffs, srcs);
    let Some(top) = (0..8).rev().find(|&b| !planes.plane(b).is_empty()) else {
        out.fill(0); // every coefficient is zero
        return;
    };
    let block = 8 * BLOCK_WORDS;
    let mut at = 0;
    while at + block <= len {
        planes.fold::<BLOCK_WORDS>(top, at, out);
        at += block;
    }
    while at + 8 <= len {
        planes.fold::<1>(top, at, out);
        at += 8;
    }
    for j in at..len {
        out[j] = coeffs.iter().zip(srcs).fold(0, |acc, (&c, s)| acc ^ mul(c, s[j]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::rng::SimRng;

    #[test]
    fn addition_is_xor_and_self_inverse() {
        assert_eq!(add(0x53, 0xCA), 0x99);
        for a in 0..=255u8 {
            assert_eq!(add(a, a), 0);
            assert_eq!(add(a, 0), a);
        }
    }

    #[test]
    fn multiplication_has_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn multiplication_is_commutative_and_associative() {
        // Spot-check a grid rather than the full 256^3 cube.
        for a in (0..=255u8).step_by(17) {
            for b in (0..=255u8).step_by(13) {
                assert_eq!(mul(a, b), mul(b, a));
                for c in (0..=255u8).step_by(29) {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributivity_holds() {
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                for c in (0..=255u8).step_by(19) {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_an_inverse() {
        for a in 1..=255u8 {
            let i = inv(a);
            assert_eq!(mul(a, i), 1, "inv({a}) = {i} fails");
        }
    }

    #[test]
    fn division_round_trips() {
        for a in 1..=255u8 {
            for b in (1..=255u8).step_by(5) {
                assert_eq!(mul(div(a, b), b), a);
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        div(5, 0);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for base in [0u8, 1, 2, 3, 0x1D, 0xFF] {
            let mut acc = 1u8;
            for e in 0..20u32 {
                assert_eq!(pow(base, e), acc, "base {base} exp {e}");
                acc = mul(acc, base);
            }
        }
        assert_eq!(pow(0, 0), 1, "0^0 = 1 by convention");
    }

    #[test]
    fn generator_has_full_order() {
        // 2 generates the multiplicative group: 2^255 = 1 and no smaller
        // power (dividing 255) hits 1.
        assert_eq!(pow(2, 255), 1);
        for d in [3u32, 5, 15, 17, 51, 85] {
            assert_ne!(pow(2, d), 1, "order divides {d}?");
        }
    }

    #[test]
    fn xtime_multiplies_every_lane_by_two() {
        for hi in 0..32u64 {
            let lanes: [u8; 8] = std::array::from_fn(|i| (hi * 8 + i as u64) as u8);
            let got = xtime(u64::from_le_bytes(lanes)).to_le_bytes();
            for (g, l) in got.iter().zip(lanes) {
                assert_eq!(*g, mul(l, 2), "lane value {l}");
            }
        }
    }

    /// The kernel against scalar [`mul`]: every coefficient, every length
    /// through one block's worth of tails (0..=67 covers `len % 8` for
    /// zero to eight whole words) and past a full 128-byte block, one to
    /// nine sources, output pre-filled with garbage it must overwrite.
    #[test]
    fn mul_row_matches_scalar_mul_for_every_coefficient_tail_and_source_count() {
        let mut rng = SimRng::new(0xF256);
        let pool: Vec<Vec<u8>> = (0..9)
            .map(|_| {
                let mut s = vec![0u8; 200];
                rng.fill_bytes(&mut s);
                s
            })
            .collect();
        for len in (0..=67usize).chain([127, 128, 129, 200]) {
            for n in 1..=9usize {
                let srcs: Vec<&[u8]> = pool[..n].iter().map(|s| &s[..len]).collect();
                for c in 0..=255u8 {
                    // Every source position sees all 256 coefficients.
                    let coeffs: Vec<u8> = (0..n).map(|i| c.wrapping_add((i as u8).wrapping_mul(37))).collect();
                    let mut out = vec![0xA5u8; len];
                    mul_row(&mut out, &coeffs, &srcs);
                    for (j, &got) in out.iter().enumerate() {
                        let want = (0..n).fold(0, |acc, i| acc ^ mul(coeffs[i], srcs[i][j]));
                        assert_eq!(got, want, "len {len}, {n} sources, c {c}, byte {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn mul_row_with_all_zero_coefficients_clears_the_output() {
        let src = [7u8; 40];
        let mut out = [0xFFu8; 40];
        mul_row(&mut out, &[0, 0], &[&src, &src]);
        assert_eq!(out, [0u8; 40]);
        // No sources at all is the empty sum.
        let mut out = [0xFFu8; 9];
        mul_row(&mut out, &[], &[]);
        assert_eq!(out, [0u8; 9]);
    }

    #[test]
    #[should_panic(expected = "sources must match")]
    fn mul_row_rejects_ragged_sources() {
        let mut out = [0u8; 8];
        mul_row(&mut out, &[1], &[&[0u8; 7]]);
    }
}
