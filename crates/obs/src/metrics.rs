//! The deterministic metrics registry.
//!
//! Counters and log2-bucket histograms keyed by name, fed from the
//! event stream. Every recorded value is *virtual* (virtual
//! nanoseconds, byte counts) and every container is ordered
//! (`BTreeMap`), so two runs of the same submission produce identical
//! snapshots — metrics are part of the reproducibility contract, not an
//! approximation of it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use disagg_hwsim::trace::TraceEvent;

/// Number of log2 buckets: bucket `i` holds values `v` with
/// `bit_len(v) == i`, i.e. bucket 0 is `v == 0`, bucket 1 is `v == 1`,
/// bucket 2 is `2..=3`, and so on up to `u64::MAX`.
pub const BUCKETS: usize = 65;

/// A log2-bucket histogram over `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Occupancy per log2 bucket.
    pub buckets: [u64; BUCKETS],
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The log2 bucket index of a value.
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The inclusive value range `[lo, hi]` a log2 bucket covers.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        1 => (1, 1),
        i if i >= 64 => (1u64 << 63, u64::MAX),
        _ => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

impl Histogram {
    /// Records one value.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Deterministic percentile estimate (`p` in `[0, 1]`) for when the
    /// samples themselves were not kept (the [`MetricsRegistry`]); with
    /// the samples in hand, use [`nearest_rank`], the one percentile
    /// definition. Locates the bucket holding the same rank
    /// `nearest_rank` reads — so the estimate and the exact value share
    /// a log2 bucket and differ by less than 2× — then linearly
    /// interpolates *within* the bucket assuming its values spread
    /// evenly over `[lo, hi]`: the `pos`-th of `n` values lands at
    /// `lo + span * pos / (n + 1)`, clamped to the observed `[min, max]`
    /// (every sample lies there, so the clamp only brings the estimate
    /// closer). It is an estimate, not a bound: it may fall on either
    /// side of the exact value. Integer math throughout, so the estimate
    /// is bit-for-bit reproducible.
    pub fn quantile_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * p).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = bucket_bounds(i);
                let pos = (rank - seen) as u128;
                let span = (hi - lo) as u128;
                let estimate = lo + (span * pos / (n as u128 + 1)) as u64;
                return estimate.clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }
}

/// The `p`-quantile (`p` in `[0, 1]`) of ascending-`sorted` samples by
/// nearest rank: the sample at 1-based rank `ceil(p·n)`, an exact order
/// statistic. This is the one percentile definition — serving's p50/p99,
/// SLO verdicts and tail attribution all read it. `None` when there are
/// no samples.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).min(n);
    sorted.get(rank.max(1) - 1).copied()
}

/// An immutable histogram summary carried in snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest value (0 when empty, for display friendliness).
    pub min: u64,
    /// Largest value.
    pub max: u64,
    /// p50 estimate ([`Histogram::quantile_bound`]).
    pub p50: u64,
    /// p99 estimate ([`Histogram::quantile_bound`]).
    pub p99: u64,
    /// Non-empty log2 buckets as `(bucket_index, occupancy)`.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    fn of(h: &Histogram) -> HistogramSnapshot {
        HistogramSnapshot {
            count: h.count,
            sum: h.sum,
            min: if h.count == 0 { 0 } else { h.min },
            max: h.max,
            p50: h.quantile_bound(0.50),
            p99: h.quantile_bound(0.99),
            buckets: h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (i as u8, n))
                .collect(),
        }
    }
}

/// Counters + histograms keyed by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    /// `dev.mem{N}.allocs` and `dev.mem{N}.bytes` by memory device:
    /// built at a device's first event, not formatted at every one.
    mem_keys: Vec<[String; 2]>,
    /// `dev.cpu{N}.dispatches` and `dev.cpu{N}.faults` by compute device.
    cpu_keys: Vec<[String; 2]>,
}

/// Adds `by` to a counter (creating it at 0).
fn add(counters: &mut BTreeMap<String, u64>, name: &str, by: u64) {
    if let Some(c) = counters.get_mut(name) {
        *c += by;
    } else {
        counters.insert(name.to_string(), by);
    }
}

/// Device `dev`'s counter names from `table`, which `name` extends up
/// to `dev` on first use.
fn device_keys(
    table: &mut Vec<[String; 2]>,
    dev: u32,
    name: impl Fn(usize) -> [String; 2],
) -> &[String; 2] {
    let i = dev as usize;
    while table.len() <= i {
        table.push(name(table.len()));
    }
    &table[i]
}

fn mem_keys(table: &mut Vec<[String; 2]>, dev: u32) -> &[String; 2] {
    device_keys(table, dev, |n| [format!("dev.mem{n}.allocs"), format!("dev.mem{n}.bytes")])
}

fn cpu_keys(table: &mut Vec<[String; 2]>, dev: u32) -> &[String; 2] {
    device_keys(table, dev, |n| [format!("dev.cpu{n}.dispatches"), format!("dev.cpu{n}.faults")])
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to a counter (creating it at 0).
    pub fn incr(&mut self, name: &str, by: u64) {
        add(&mut self.counters, name, by);
    }

    /// Records a value into a histogram (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::default();
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Current counter value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Feeds one event into the standard runtime metrics: event-kind
    /// counters, byte accounting per device, and the queue-wait /
    /// access-latency / migration-size / task-duration histograms.
    pub fn record(&mut self, e: &TraceEvent) {
        self.incr("events", 1);
        match *e {
            TraceEvent::Alloc { dev, bytes, .. } => {
                self.incr("events.alloc", 1);
                self.incr("bytes.allocated", bytes);
                self.observe("alloc_bytes", bytes);
                add(&mut self.counters, &mem_keys(&mut self.mem_keys, dev.0)[0], 1);
            }
            TraceEvent::Free { .. } => self.incr("events.free", 1),
            TraceEvent::Access { dev, bytes, took, .. } => {
                self.incr("events.access", 1);
                self.incr("bytes.moved", bytes);
                add(&mut self.counters, &mem_keys(&mut self.mem_keys, dev.0)[1], bytes);
                self.observe("access_ns", took.as_nanos());
            }
            TraceEvent::Migrate { from, to, bytes, took, .. } => {
                self.incr("events.migrate", 1);
                self.incr("bytes.moved", bytes);
                for dev in [from, to] {
                    add(&mut self.counters, &mem_keys(&mut self.mem_keys, dev.0)[1], bytes);
                }
                self.observe("migrate_bytes", bytes);
                self.observe("migrate_ns", took.as_nanos());
            }
            TraceEvent::OwnershipTransfer { bytes, .. } => {
                self.incr("events.transfer", 1);
                self.incr("bytes.ownership", bytes);
                self.observe("transfer_bytes", bytes);
            }
            TraceEvent::TaskAttempt { on, waited, .. } => {
                self.incr("events.task_attempt", 1);
                add(&mut self.counters, &cpu_keys(&mut self.cpu_keys, on.0)[0], 1);
                self.observe("queue_wait_ns", waited.as_nanos());
            }
            TraceEvent::FaultDetected { on, .. } => {
                self.incr("events.fault_detected", 1);
                self.incr("faults.detected", 1);
                add(&mut self.counters, &cpu_keys(&mut self.cpu_keys, on.0)[1], 1);
            }
            TraceEvent::TaskRetry { lost, .. } => {
                self.incr("events.task_retry", 1);
                self.incr("recovery.retries", 1);
                self.observe("recovery_lost_ns", lost.as_nanos());
            }
            TraceEvent::Reconstruct { bytes, took, .. } => {
                self.incr("events.reconstruct", 1);
                self.incr("recovery.reconstructs", 1);
                self.incr("bytes.reconstructed", bytes);
                self.observe("reconstruct_ns", took.as_nanos());
            }
            TraceEvent::RequestTag { .. } => self.incr("events.request_tag", 1),
            TraceEvent::BreakerTrip { node, .. } => {
                self.incr("events.breaker_trip", 1);
                self.incr("breaker.trips", 1);
                self.incr(&format!("node{}.breaker.trips", node.0), 1);
            }
            TraceEvent::BreakerProbe { .. } => {
                self.incr("events.breaker_probe", 1);
                self.incr("breaker.probes", 1);
            }
            TraceEvent::BreakerClose { .. } => {
                self.incr("events.breaker_close", 1);
                self.incr("breaker.closes", 1);
            }
            TraceEvent::RequestShed { .. } => {
                self.incr("events.request_shed", 1);
                self.incr("serve.shed", 1);
            }
            TraceEvent::RequestDegraded { .. } => {
                self.incr("events.request_degraded", 1);
                self.incr("serve.degraded", 1);
            }
        }
    }

    /// An immutable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), HistogramSnapshot::of(h)))
                .collect(),
        }
    }
}

/// What a run's metrics looked like at snapshot time. Attached to
/// `RunReport` when the runtime carries a metrics-keeping observer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` in name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, summary)` in name order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Renders an aligned human-readable listing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .chain(self.histograms.iter().map(|(k, _)| k.len()))
            .max()
            .unwrap_or(0);
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k:<width$}  {v}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{k:<width$}  count={} sum={} min={} p50~{} p99~{} max={}",
                h.count, h.sum, h.min, h.p50, h.p99, h.max
            );
        }
        out
    }

    /// Renders the snapshot as JSON (hand-rolled; the workspace stays
    /// dependency-free).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", crate::json::escape(k));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|&(b, n)| format!("[{b},{n}]"))
                .collect();
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"p50\": {}, \
                 \"p99\": {}, \"max\": {}, \"log2_buckets\": [{}]}}",
                crate::json::escape(k),
                h.count,
                h.sum,
                h.min,
                h.p50,
                h.p99,
                h.max,
                buckets.join(", ")
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::device::AccessOp;
    use disagg_hwsim::ids::{ComputeId, MemDeviceId};
    use disagg_hwsim::time::{SimDuration, SimTime};

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_extremes_and_quantiles() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 4, 8, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1039);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1024);
        assert!(h.quantile_bound(0.5) >= 4);
        assert!(h.quantile_bound(0.99) >= 1024);
        assert_eq!(Histogram::default().quantile_bound(0.5), 0);
    }

    #[test]
    fn nearest_rank_is_the_exact_order_statistic() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), Some(50));
        assert_eq!(nearest_rank(&v, 0.99), Some(99));
        assert_eq!(nearest_rank(&v, 1.0), Some(100));
        assert_eq!(nearest_rank(&[7], 0.99), Some(7));
        // Nearest rank never interpolates: 4 samples, p50 is the 2nd.
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 0.50), Some(20));
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 0.75), Some(30));
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 0.76), Some(40));
        // p = 0 is the minimum, not rank zero.
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 0.0), Some(10));
        // No samples, no percentile — a typed answer, not a panic.
        assert_eq!(nearest_rank(&[], 0.99), None);
    }

    /// The bound `quantile_bound` can promise without the samples: its
    /// estimate lands in the log2 bucket that holds the exact order
    /// statistic, so the two differ by less than 2×.
    #[test]
    fn quantile_bound_shares_a_log2_bucket_with_the_exact_value() {
        let mut rng = disagg_hwsim::rng::SimRng::new(0x9a471e);
        for n in [1usize, 2, 7, 64, 1_000] {
            // Spread over ~40 octaves so most buckets hold a few values.
            let mut samples: Vec<u64> =
                (0..n).map(|_| rng.next_u64() >> rng.next_below(40)).collect();
            let mut h = Histogram::default();
            for &v in &samples {
                h.observe(v);
            }
            samples.sort_unstable();
            for p in [0.0, 0.01, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0] {
                let exact = nearest_rank(&samples, p).expect("n >= 1");
                let bound = h.quantile_bound(p);
                assert_eq!(
                    bucket_of(bound),
                    bucket_of(exact),
                    "n={n} p={p}: estimate {bound} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(11), (1024, 2047));
        assert_eq!(bucket_bounds(64), (1u64 << 63, u64::MAX));
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            assert!(lo <= v && v <= hi, "{v} outside its bucket [{lo}, {hi}]");
        }
    }

    /// Pins the quantile fix: the log2-bucket estimate interpolates
    /// within the bucket instead of returning its upper bound. The
    /// "was" values are what the pre-fix implementation returned —
    /// always a power of two minus one.
    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 4, 8, 1024] {
            h.observe(v);
        }
        assert_eq!(h.quantile_bound(0.50), 5); // was 7: bucket [4,7] upper bound
        // Bucket [1024, 2047] interpolates to 1535 (2047 before that),
        // past the largest sample: the clamp reads the max.
        assert_eq!(h.quantile_bound(0.99), 1024);

        // Several values in one bucket spread evenly across it.
        let mut h = Histogram::default();
        for v in [600u64, 800, 1000] {
            h.observe(v); // bucket 10 covers [512, 1023]
        }
        assert_eq!(h.quantile_bound(0.25), 512 + 511 / 4); // was 1023
        assert_eq!(h.quantile_bound(0.50), 512 + 511 * 2 / 4);
        assert_eq!(h.quantile_bound(1.0), 512 + 511 * 3 / 4);
        // Three equal values: the spread is clamped to the one value
        // (639, 767 and 895 before the clamp).
        let mut h = Histogram::default();
        for _ in 0..3 {
            h.observe(1000);
        }
        for p in [0.25, 0.50, 1.0] {
            assert_eq!(h.quantile_bound(p), 1000);
        }

        // Degenerate buckets interpolate to their single value.
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        assert_eq!(h.quantile_bound(0.50), 0);
        assert_eq!(h.quantile_bound(1.0), 1);

        // The estimate never leaves the observed range: three 3s sit in
        // bucket [2, 3], where interpolation alone says 2.
        let mut h = Histogram::default();
        for _ in 0..3 {
            h.observe(3);
        }
        assert_eq!(h.quantile_bound(0.50), 3); // was 2, below every sample
        assert_eq!(h.quantile_bound(0.99), 3);
        let mut r = MetricsRegistry::new();
        for _ in 0..3 {
            r.observe("x", 3);
        }
        assert!(r.snapshot().render().contains("min=3 p50~3 p99~3 max=3"));
    }

    #[test]
    fn registry_records_standard_metrics() {
        let mut r = MetricsRegistry::new();
        r.record(&TraceEvent::Access {
            region: 0,
            dev: MemDeviceId(2),
            bytes: 4096,
            op: AccessOp::Read,
            at: SimTime(10),
            took: SimDuration(100),
        });
        r.record(&TraceEvent::TaskAttempt {
            job: 0,
            task: 1,
            on: ComputeId(0),
            at: SimTime(50),
            waited: SimDuration(40),
            end: SimTime(55),
            completed: true,
        });
        r.record(&TraceEvent::Migrate {
            region: 0,
            from: MemDeviceId(0),
            to: MemDeviceId(2),
            bytes: 100,
            at: SimTime(60),
            took: SimDuration(5),
        });
        assert_eq!(r.counter("events"), 3);
        assert_eq!(r.counter("events.task_attempt"), 1);
        assert_eq!(r.counter("dev.cpu0.dispatches"), 1);
        assert_eq!(r.counter("bytes.moved"), 4196);
        assert_eq!(r.counter("dev.mem2.bytes"), 4196);
        assert_eq!(r.counter("dev.mem0.bytes"), 100);
        assert_eq!(r.histogram("queue_wait_ns").unwrap().sum, 40);
        assert_eq!(r.histogram("access_ns").unwrap().count, 1);
        assert_eq!(r.histogram("migrate_bytes").unwrap().max, 100);
    }

    #[test]
    fn snapshots_are_deterministic_and_queryable() {
        let build = || {
            let mut r = MetricsRegistry::new();
            r.incr("b", 2);
            r.incr("a", 1);
            r.observe("h", 7);
            r.snapshot()
        };
        let s1 = build();
        let s2 = build();
        assert_eq!(s1, s2);
        // Name-ordered regardless of insertion order.
        assert_eq!(s1.counters[0].0, "a");
        assert_eq!(s1.counter("b"), 2);
        assert_eq!(s1.counter("missing"), 0);
        assert_eq!(s1.histogram("h").unwrap().count, 1);
        let json = s1.to_json();
        assert!(json.contains("\"a\": 1"));
        assert!(json.contains("\"log2_buckets\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(s1.render().contains("p50~"));
    }
}
