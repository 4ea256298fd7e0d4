//! The benchmark's own order statistics and digests.
//!
//! Latency percentiles are exact nearest-rank order statistics over the
//! samples the benchmark collected itself — never the library's log2
//! histogram, whose interpolated p99 is what `obs.hist_p99_over_exact`
//! holds to account.

/// Tail percentiles the benchmark may report, highest first. p99 is the
/// ceiling: beyond it a 32 000-request run has too few samples to repeat.
const TAIL_LADDER: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// A percentile is trusted only with this many samples beyond its rank.
const SAMPLES_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Exact nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond its rank among `n`; `1.0` (the maximum) when even p75 has
/// fewer, which is stated in the output so nobody reads it as a p99.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= nearest_rank(n.max(1), p) + SAMPLES_BEYOND)
        .unwrap_or(1.0)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The undisturbed level of repeated host timings of one piece of work:
/// the median of the fastest tenth of the samples. `host_s_per_pass` and
/// `setup_s` are both read this way.
///
/// Every pass of a run does the same work, so interference on a shared
/// 2-core box only ever adds time. It comes in phases of seconds to a
/// minute and hits page-fault-bound passes hardest. Measured on 123
/// consecutive `serve_bulk` passes, cut into 20-pass windows: the plain
/// median moved between 0.91 and 1.08 s from window to window (quartile
/// spread 13 %), the median of block minima between 0.89 and 1.02 s
/// (10 %), this figure between 0.88 and 0.93 s (1.6 %). A median over
/// the whole run reports the box's neighbours; the fastest tenth reports
/// the code, and its median forgives one freak reading. Cold first
/// passes fall out the same way. No sample is discarded before this step.
pub fn undisturbed(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate((v.len() / 10).max(1));
    median(&v)
}

/// Ascending copy of the latencies of the requests that completed.
pub fn sorted_completed(latencies: &[Option<u64>]) -> Vec<u64> {
    let mut v: Vec<u64> = latencies.iter().flatten().copied().collect();
    v.sort_unstable();
    v
}

/// Share of offered requests that completed within `limit_ns`. A
/// refused, shed or fast-failed request (`None`) misses every limit.
pub fn within_limit_share(latencies: &[Option<u64>], limit_ns: u64) -> f64 {
    let good = latencies
        .iter()
        .flatten()
        .filter(|&&l| l <= limit_ns)
        .count();
    good as f64 / latencies.len().max(1) as f64
}

/// Whether one rate-ladder rung holds its latency limit: nothing
/// refused, p99 within the limit, and the p99 of the last decile of
/// arrivals within it too — a backlog that is still growing when the
/// run ends shows in the late arrivals before it shows in the whole.
pub fn rung_in_slo(latencies: &[Option<u64>], limit_ns: u64) -> bool {
    if latencies.is_empty() || latencies.iter().any(Option::is_none) {
        return false;
    }
    let all = sorted_completed(latencies);
    let last_decile =
        sorted_completed(&latencies[latencies.len() - latencies.len().div_ceil(10)..]);
    percentile(&all, 0.99) <= limit_ns && percentile(&last_decile, 0.99) <= limit_ns
}

/// FNV-1a over a stream of words: the per-pass digest that pins virtual
/// time. Two passes of one commit at one seed must agree on it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_order_statistics() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        // Nearest rank never interpolates: 4 samples, p50 is the 2nd.
        assert_eq!(percentile(&[10, 20, 30, 40], 0.50), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 0.75), 30);
        assert_eq!(percentile(&[10, 20, 30, 40], 0.76), 40);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 48 requests: p75 is rank 36 with 12 beyond; p90 has only 4.
        assert_eq!(tail_percentile(48), 0.75);
        // 32 000 requests: p99 has 320 beyond and is the ladder's top.
        assert_eq!(tail_percentile(32_000), 0.99);
        assert_eq!(tail_percentile(1_000), 0.99);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(40), 0.75);
        // Too few for any tail: the maximum, stated as such.
        assert_eq!(tail_percentile(39), 1.0);
        assert_eq!(tail_percentile(16), 1.0);
        assert_eq!(tail_percentile(0), 1.0);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn undisturbed_ignores_slow_phases_and_cold_passes() {
        // 40 passes at 1.0 s; the first is cold, and passes 6..34 (most
        // of the run) sit in a slow phase.
        let mut walls = vec![1.0; 40];
        walls[0] = 9.0;
        for w in &mut walls[6..34] {
            *w = 1.3;
        }
        assert_eq!(undisturbed(&walls), 1.0);
        // A real slowdown of every pass shows in full.
        let slower: Vec<f64> = walls.iter().map(|w| w * 1.1).collect();
        assert!((undisturbed(&slower) - 1.1).abs() < 1e-12);
        // One freak reading among the fastest four does not set the figure.
        walls[3] = 0.5;
        assert_eq!(undisturbed(&walls), 1.0);
        // Fewer than twenty samples: the fastest one.
        assert_eq!(undisturbed(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(undisturbed(&[4.0]), 4.0);
    }

    #[test]
    fn refused_requests_miss_every_limit() {
        let l = [Some(5), Some(50), None, Some(7)];
        assert_eq!(within_limit_share(&l, 10), 0.5);
        assert_eq!(within_limit_share(&l, u64::MAX), 0.75);
    }

    #[test]
    fn ladder_rung_rejects_a_growing_backlog() {
        // 1000 requests, flat 10 µs: in SLO.
        let flat: Vec<Option<u64>> = vec![Some(10_000); 1000];
        assert!(rung_in_slo(&flat, 40_000));

        // A backlog that only starts to build at the end: the last 5 of
        // 1000 arrivals are slow. The overall p99 (rank 990) is still
        // fast, but the last decile (100 arrivals, p99 = rank 99) sees
        // them.
        let mut late = flat.clone();
        for l in late.iter_mut().skip(995) {
            *l = Some(90_000);
        }
        assert_eq!(percentile(&sorted_completed(&late), 0.99), 10_000);
        assert!(!rung_in_slo(&late, 40_000));

        // A steadily growing backlog fails on both counts.
        let growing: Vec<Option<u64>> = (0..1000).map(|i| Some(1_000 + 100 * i)).collect();
        assert!(!rung_in_slo(&growing, 40_000));

        // One refusal fails the rung regardless of latency.
        let mut refused = flat;
        refused[3] = None;
        assert!(!rung_in_slo(&refused, 40_000));
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::new();
        a.word(1);
        a.word(2);
        let mut b = Fnv::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.word(1);
        c.word(2);
        assert_eq!(a.finish(), c.finish());
    }
}
