//! A systematic Reed–Solomon erasure code over GF(2⁸).
//!
//! Carbink-style fault-tolerant far memory erasure-codes memory spans so
//! that any `m` lost shards out of `k + m` can be reconstructed. This is a
//! from-scratch implementation of the standard construction: start from a
//! Vandermonde matrix, Gauss–Jordan the top `k × k` block to the identity
//! so the code is *systematic* (data shards are stored verbatim), and use
//! the bottom `m` rows to produce parity.
//!
//! All bulk arithmetic is [`gf256::mul_row`], one call per shard
//! produced, and the codec follows one rule: **decode only what was lost;
//! borrow, don't copy.** With `E` the `(k+m) × k` encoding matrix and
//! `from` any `k` surviving shard indices, shard `t` — data *or* parity —
//! is the row product `(E[t] · E[from]⁻¹) · shards[from]`, so
//!
//! - [`ReedSolomon::encode`] is `m` kernel calls (rows `k..k+m` of `E`);
//! - [`ReedSolomon::reconstruct`] is one kernel call per `None` entry and
//!   never recomputes, clones or reallocates a shard that is present;
//! - [`ReedSolomon::encode_slices`] and [`ReedSolomon::decode_shard`] do
//!   the same over borrowed `&[u8]` (any column range of a stripe), which
//!   is what lets [`crate::stripe`] code straight out of pool memory.

use crate::gf256;

/// Errors from the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// `k` or `m` is zero, or `k + m > 255`.
    BadParameters {
        /// Data shard count.
        k: usize,
        /// Parity shard count.
        m: usize,
    },
    /// Shards passed to an operation have inconsistent lengths.
    ShardSizeMismatch,
    /// Fewer than `k` shards survive; the data is unrecoverable.
    TooFewShards {
        /// Shards still present.
        present: usize,
        /// Shards needed.
        needed: usize,
    },
    /// The shard list does not have `k + m` entries.
    WrongShardCount,
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::BadParameters { k, m } => write!(f, "invalid RS parameters k={k}, m={m}"),
            RsError::ShardSizeMismatch => write!(f, "shards have inconsistent sizes"),
            RsError::TooFewShards { present, needed } => {
                write!(f, "only {present} shards present, {needed} needed")
            }
            RsError::WrongShardCount => write!(f, "wrong number of shards"),
        }
    }
}

impl std::error::Error for RsError {}

/// A `rows × cols` matrix over GF(2⁸).
#[derive(Debug, Clone, PartialEq)]
struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    fn zero(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// Vandermonde: `a[r][c] = r^c`.
    fn vandermonde(rows: usize, cols: usize) -> Matrix {
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, gf256::pow(r as u8, c as u32));
            }
        }
        m
    }

    #[inline]
    fn get(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.cols + c]
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: u8) {
        self.data[r * self.cols + c] = v;
    }

    fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows);
        let mut out = Matrix::zero(self.rows, other.cols);
        for r in 0..self.rows {
            for c in 0..other.cols {
                let mut acc = 0u8;
                for i in 0..self.cols {
                    acc ^= gf256::mul(self.get(r, i), other.get(i, c));
                }
                out.set(r, c, acc);
            }
        }
        out
    }

    /// Gauss–Jordan inversion. Returns `None` for singular matrices.
    fn invert(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols);
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| a.get(r, col) != 0)?;
            if pivot != col {
                for c in 0..n {
                    let (x, y) = (a.get(col, c), a.get(pivot, c));
                    a.set(col, c, y);
                    a.set(pivot, c, x);
                    let (x, y) = (inv.get(col, c), inv.get(pivot, c));
                    inv.set(col, c, y);
                    inv.set(pivot, c, x);
                }
            }
            // Scale the pivot row to 1.
            let p = a.get(col, col);
            let pinv = gf256::inv(p);
            for c in 0..n {
                a.set(col, c, gf256::mul(a.get(col, c), pinv));
                inv.set(col, c, gf256::mul(inv.get(col, c), pinv));
            }
            // Eliminate the column elsewhere.
            for r in 0..n {
                if r != col {
                    let f = a.get(r, col);
                    if f != 0 {
                        for c in 0..n {
                            let v = gf256::add(a.get(r, c), gf256::mul(f, a.get(col, c)));
                            a.set(r, c, v);
                            let v = gf256::add(inv.get(r, c), gf256::mul(f, inv.get(col, c)));
                            inv.set(r, c, v);
                        }
                    }
                }
            }
        }
        Some(inv)
    }

    /// Rows `rows` of `self`, gathered into a new matrix.
    fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zero(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            for c in 0..self.cols {
                out.set(i, c, self.get(r, c));
            }
        }
        out
    }
}

/// A systematic Reed–Solomon codec with `k` data and `m` parity shards.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// The `(k + m) × k` encoding matrix; top block is the identity.
    encode_matrix: Matrix,
}

impl ReedSolomon {
    /// Creates a codec.
    pub fn new(k: usize, m: usize) -> Result<ReedSolomon, RsError> {
        if k == 0 || m == 0 || k + m > 255 {
            return Err(RsError::BadParameters { k, m });
        }
        // Vandermonde (k+m) × k, then normalize the top k × k block to the
        // identity so the code is systematic.
        let v = Matrix::vandermonde(k + m, k);
        let top = v.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv = top.invert().expect("Vandermonde top block is invertible");
        let encode_matrix = v.mul(&top_inv);
        Ok(ReedSolomon { k, m, encode_matrix })
    }

    /// Data shard count.
    pub fn data_shards(&self) -> usize {
        self.k
    }

    /// Parity shard count.
    pub fn parity_shards(&self) -> usize {
        self.m
    }

    /// Storage overhead factor `(k + m) / k`.
    pub fn overhead(&self) -> f64 {
        (self.k + self.m) as f64 / self.k as f64
    }

    /// Computes the `m` parity shards for `k` equal-length data shards.
    pub fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, RsError> {
        let views: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        self.encode_slices(&views)
    }

    /// [`ReedSolomon::encode`] over borrowed data shards.
    pub fn encode_slices(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, RsError> {
        if data.len() != self.k {
            return Err(RsError::WrongShardCount);
        }
        let len = data[0].len();
        if data.iter().any(|s| s.len() != len) {
            return Err(RsError::ShardSizeMismatch);
        }
        Ok((self.k..self.k + self.m)
            .map(|row| {
                let mut out = vec![0u8; len];
                gf256::mul_row(&mut out, self.encode_matrix.row(row), data);
                out
            })
            .collect())
    }

    /// Verifies that a full shard set (data + parity) is consistent.
    pub fn verify(&self, shards: &[Vec<u8>]) -> Result<bool, RsError> {
        if shards.len() != self.k + self.m {
            return Err(RsError::WrongShardCount);
        }
        let parity = self.encode(&shards[..self.k])?;
        Ok(parity.iter().zip(&shards[self.k..]).all(|(a, b)| a == b))
    }

    /// One coefficient row per entry of `targets`: shard `t` equals
    /// `row · shards[from]`. Data and parity targets alike, because the
    /// rows are `E[targets] · E[from]⁻¹` (for a data target `E[t]` is a
    /// unit vector and the product is a row of the inverse).
    fn rebuild_rows(&self, from: &[usize], targets: &[usize]) -> Matrix {
        let dec = self
            .encode_matrix
            .select_rows(from)
            .invert()
            .expect("any k distinct rows of an RS matrix are independent");
        self.encode_matrix.select_rows(targets).mul(&dec)
    }

    /// Reconstructs all missing shards in place. `shards` must have
    /// exactly `k + m` entries; `None` marks an erasure. At least `k`
    /// shards must be present. Only the `None` entries are computed;
    /// present shards are read, never touched.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        if shards.len() != self.k + self.m {
            return Err(RsError::WrongShardCount);
        }
        let (present, missing): (Vec<usize>, Vec<usize>) =
            (0..shards.len()).partition(|&i| shards[i].is_some());
        if present.len() < self.k {
            return Err(RsError::TooFewShards {
                present: present.len(),
                needed: self.k,
            });
        }
        if missing.is_empty() {
            return Ok(());
        }
        let view = |i: usize| shards[i].as_deref().expect("present");
        let len = view(present[0]).len();
        if present.iter().any(|&i| view(i).len() != len) {
            return Err(RsError::ShardSizeMismatch);
        }

        let from = &present[..self.k];
        let rows = self.rebuild_rows(from, &missing);
        let srcs: Vec<&[u8]> = from.iter().map(|&i| view(i)).collect();
        let rebuilt: Vec<Vec<u8>> = (0..missing.len())
            .map(|r| {
                let mut out = vec![0u8; len];
                gf256::mul_row(&mut out, rows.row(r), &srcs);
                out
            })
            .collect();
        for (i, shard) in missing.into_iter().zip(rebuilt) {
            shards[i] = Some(shard);
        }
        Ok(())
    }

    /// Decodes shard `target` (data or parity) into `out` from borrowed
    /// survivors: `present` pairs a shard index with its bytes, the first
    /// `k` entries are used, and all of them must be as long as `out` —
    /// any column range of the stripe will do, as long as every slice
    /// covers the same one.
    pub fn decode_shard(
        &self,
        present: &[(usize, &[u8])],
        target: usize,
        out: &mut [u8],
    ) -> Result<(), RsError> {
        if present.len() < self.k {
            return Err(RsError::TooFewShards {
                present: present.len(),
                needed: self.k,
            });
        }
        let (from, srcs): (Vec<usize>, Vec<&[u8]>) = present[..self.k].iter().copied().unzip();
        let distinct = from.iter().enumerate().all(|(n, i)| !from[..n].contains(i));
        if target >= self.k + self.m || from.iter().any(|&i| i >= self.k + self.m) || !distinct {
            return Err(RsError::WrongShardCount);
        }
        if srcs.iter().any(|s| s.len() != out.len()) {
            return Err(RsError::ShardSizeMismatch);
        }
        gf256::mul_row(out, self.rebuild_rows(&from, &[target]).row(0), &srcs);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::rng::SimRng;

    fn shards(k: usize, len: usize, seed: u8) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| (seed as usize + i * 31 + j * 7) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn parameters_are_validated() {
        assert!(ReedSolomon::new(0, 2).is_err());
        assert!(ReedSolomon::new(4, 0).is_err());
        assert!(ReedSolomon::new(200, 56).is_err());
        assert!(ReedSolomon::new(4, 2).is_ok());
        assert!(ReedSolomon::new(250, 5).is_ok());
    }

    #[test]
    fn encode_verify_round_trip() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = shards(4, 64, 1);
        let parity = rs.encode(&data).unwrap();
        assert_eq!(parity.len(), 2);
        let mut all = data.clone();
        all.extend(parity);
        assert!(rs.verify(&all).unwrap());
        // Corrupt one byte: verification fails.
        all[0][0] ^= 0xFF;
        assert!(!rs.verify(&all).unwrap());
    }

    #[test]
    fn recovers_any_single_data_shard() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = shards(4, 128, 7);
        let parity = rs.encode(&data).unwrap();
        for lost in 0..4 {
            let mut set: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .map(Some)
                .chain(parity.iter().cloned().map(Some))
                .collect();
            set[lost] = None;
            rs.reconstruct(&mut set).unwrap();
            assert_eq!(set[lost].as_ref().unwrap(), &data[lost], "shard {lost}");
        }
    }

    #[test]
    fn recovers_max_erasures_in_every_combination() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = shards(4, 32, 3);
        let parity = rs.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();
        // Every pair of lost shards among the 6.
        for a in 0..6 {
            for b in (a + 1)..6 {
                let mut set: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                set[a] = None;
                set[b] = None;
                rs.reconstruct(&mut set).unwrap();
                for i in 0..6 {
                    assert_eq!(set[i].as_ref().unwrap(), &full[i], "lost ({a},{b}), shard {i}");
                }
            }
        }
    }

    #[test]
    fn too_many_erasures_fail_cleanly() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = shards(4, 16, 9);
        let parity = rs.encode(&data).unwrap();
        let mut set: Vec<Option<Vec<u8>>> = data
            .into_iter()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        set[0] = None;
        set[1] = None;
        set[2] = None;
        assert_eq!(
            rs.reconstruct(&mut set).unwrap_err(),
            RsError::TooFewShards { present: 3, needed: 4 }
        );
    }

    #[test]
    fn parity_only_survivors_still_recover() {
        // Lose ALL data shards of a k=2, m=2 code: parity alone suffices.
        let rs = ReedSolomon::new(2, 2).unwrap();
        let data = shards(2, 48, 5);
        let parity = rs.encode(&data).unwrap();
        let mut set: Vec<Option<Vec<u8>>> = vec![
            None,
            None,
            Some(parity[0].clone()),
            Some(parity[1].clone()),
        ];
        rs.reconstruct(&mut set).unwrap();
        assert_eq!(set[0].as_ref().unwrap(), &data[0]);
        assert_eq!(set[1].as_ref().unwrap(), &data[1]);
    }

    #[test]
    fn mismatched_shard_sizes_rejected() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let bad = vec![vec![0u8; 8], vec![0u8; 9]];
        assert_eq!(rs.encode(&bad).unwrap_err(), RsError::ShardSizeMismatch);
    }

    #[test]
    fn wrong_shard_count_rejected() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        assert_eq!(
            rs.encode(&shards(2, 8, 1)).unwrap_err(),
            RsError::WrongShardCount
        );
        let mut five: Vec<Option<Vec<u8>>> = vec![Some(vec![0; 8]); 4];
        assert_eq!(
            rs.reconstruct(&mut five).unwrap_err(),
            RsError::WrongShardCount
        );
    }

    #[test]
    fn nothing_missing_is_a_no_op() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = shards(3, 16, 2);
        let parity = rs.encode(&data).unwrap();
        let mut set: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.iter().cloned().map(Some))
            .collect();
        let before = set.clone();
        rs.reconstruct(&mut set).unwrap();
        assert_eq!(set, before);
    }

    #[test]
    fn systematic_data_shards_stored_verbatim() {
        // The whole point of the systematic construction: the first k
        // shards ARE the data (zero-cost reads in the common case).
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = shards(4, 16, 11);
        let parity = rs.encode(&data).unwrap();
        // Encoding does not touch the data shards; only parity is new.
        assert_eq!(parity.len(), 2);
        assert_eq!(rs.overhead(), 1.5);
    }

    #[test]
    fn larger_codes_work() {
        let rs = ReedSolomon::new(10, 4).unwrap();
        let data = shards(10, 256, 13);
        let parity = rs.encode(&data).unwrap();
        let mut set: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        // Lose four scattered shards.
        for i in [0, 5, 10, 13] {
            set[i] = None;
        }
        rs.reconstruct(&mut set).unwrap();
        for i in 0..10 {
            assert_eq!(set[i].as_ref().unwrap(), &data[i]);
        }
    }

    /// A random full shard set for a random `(k, m)` up to 10+4; shard
    /// lengths include 0 and non-multiples of 8.
    fn random_code(rng: &mut SimRng) -> (ReedSolomon, Vec<Vec<u8>>) {
        let k = rng.range(1, 11) as usize;
        let m = rng.range(1, 5) as usize;
        let len = *rng.pick(&[0usize, 1, 7, 8, 9, 63, 64, 65, 129, 1000, 1021]);
        let rs = ReedSolomon::new(k, m).unwrap();
        let mut full: Vec<Vec<u8>> = (0..k)
            .map(|_| {
                let mut s = vec![0u8; len];
                rng.fill_bytes(&mut s);
                s
            })
            .collect();
        let parity = rs.encode(&full).unwrap();
        full.extend(parity);
        (rs, full)
    }

    /// Erases `lost` from `full`, reconstructs, and checks the rule: the
    /// original bytes come back, and every shard that was present is the
    /// same allocation with the same contents (never recomputed).
    fn check_reconstruct(rs: &ReedSolomon, full: &[Vec<u8>], lost: &[usize]) {
        let mut set: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        for &i in lost {
            set[i] = None;
        }
        let ptrs: Vec<Option<*const u8>> =
            set.iter().map(|s| s.as_ref().map(|v| v.as_ptr())).collect();
        rs.reconstruct(&mut set).unwrap();
        for (i, shard) in set.iter().enumerate() {
            let shard = shard.as_ref().expect("every entry is filled");
            assert_eq!(shard, &full[i], "shard {i} after losing {lost:?}");
            if let Some(p) = ptrs[i] {
                assert_eq!(shard.as_ptr(), p, "present shard {i} was reallocated");
            }
        }
        // The borrowed decode of each lost shard agrees, from the same k
        // survivors `reconstruct` uses (the first k present).
        let present: Vec<(usize, &[u8])> = (0..full.len())
            .filter(|i| !lost.contains(i))
            .map(|i| (i, full[i].as_slice()))
            .collect();
        for &t in lost {
            let mut out = vec![0x5Au8; full[t].len()];
            rs.decode_shard(&present, t, &mut out).unwrap();
            assert_eq!(out, full[t], "decode_shard({t}) after losing {lost:?}");
        }
    }

    #[test]
    fn every_erasure_class_reconstructs_and_leaves_present_shards_alone() {
        for seed in [1u64, 2, 3, 5, 8, 13, 21, 34] {
            let mut rng = SimRng::new(seed);
            for _ in 0..12 {
                let (rs, full) = random_code(&mut rng);
                let (k, m) = (rs.data_shards(), rs.parity_shards());
                let mut data: Vec<usize> = (0..k).collect();
                let mut parity: Vec<usize> = (k..k + m).collect();
                let mut all: Vec<usize> = (0..k + m).collect();
                rng.shuffle(&mut data);
                rng.shuffle(&mut parity);
                rng.shuffle(&mut all);
                let n_data = rng.range(1, k.min(m) as u64 + 1) as usize;
                let n_parity = rng.range(1, m as u64 + 1) as usize;
                check_reconstruct(&rs, &full, &[]);
                check_reconstruct(&rs, &full, &data[..n_data]);
                check_reconstruct(&rs, &full, &parity[..n_parity]);
                check_reconstruct(&rs, &full, &all[..m]);
                if m >= 2 {
                    check_reconstruct(&rs, &full, &[data[0], parity[0]]);
                }
            }
        }
    }

    #[test]
    fn decode_shard_rebuilds_every_single_shard_data_or_parity() {
        let mut rng = SimRng::new(77);
        for _ in 0..20 {
            let (rs, full) = random_code(&mut rng);
            for t in 0..full.len() {
                check_reconstruct(&rs, &full, &[t]);
            }
        }
    }

    #[test]
    fn decode_shard_works_on_any_column_window() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut full = shards(4, 500, 3);
        full.extend(rs.encode(&full).unwrap());
        let present: Vec<(usize, &[u8])> =
            [1usize, 2, 4, 5].iter().map(|&i| (i, &full[i][37..290])).collect();
        for t in [0, 3] {
            let mut out = vec![0u8; 253];
            rs.decode_shard(&present, t, &mut out).unwrap();
            assert_eq!(out, full[t][37..290]);
        }
    }

    #[test]
    fn hostile_decode_inputs_get_typed_errors() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let mut full = shards(3, 16, 4);
        full.extend(rs.encode(&full).unwrap());
        let view = |i: usize| (i, full[i].as_slice());
        let mut out = vec![0u8; 16];
        assert_eq!(
            rs.decode_shard(&[view(0), view(4)], 1, &mut out).unwrap_err(),
            RsError::TooFewShards { present: 2, needed: 3 }
        );
        // A duplicate survivor, an out-of-range survivor or target.
        for (present, target) in [
            (vec![view(0), view(0), view(3)], 1),
            (vec![view(0), (9, full[1].as_slice()), view(3)], 1),
            (vec![view(0), view(2), view(3)], 5),
        ] {
            assert_eq!(
                rs.decode_shard(&present, target, &mut out).unwrap_err(),
                RsError::WrongShardCount
            );
        }
        // Ragged survivors, or an output of another length.
        let short = (2usize, &full[2][..15]);
        assert_eq!(
            rs.decode_shard(&[view(0), short, view(3)], 1, &mut out).unwrap_err(),
            RsError::ShardSizeMismatch
        );
        assert_eq!(
            rs.decode_shard(&[view(0), view(2), view(3)], 1, &mut out[..15]).unwrap_err(),
            RsError::ShardSizeMismatch
        );
        // reconstruct: more than m erasures, ragged present shards.
        let mut set: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        set[4].as_mut().unwrap().pop();
        set[0] = None;
        assert_eq!(rs.reconstruct(&mut set).unwrap_err(), RsError::ShardSizeMismatch);
        set[1] = None;
        set[2] = None;
        assert_eq!(
            rs.reconstruct(&mut set).unwrap_err(),
            RsError::TooFewShards { present: 2, needed: 3 }
        );
    }
}
