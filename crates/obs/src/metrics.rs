//! The metrics registry: named monotone counters, gauges, and log₂-scale
//! latency histograms.
//!
//! Registration (first use of a name) takes a short mutex; every subsequent
//! update goes through a cloned handle that touches one atomic — callers on
//! hot paths hold handles instead of looking names up per event. Histograms
//! bucket by bit width (`bucket k` holds `[2^(k-1), 2^k)`), which gives
//! ~2× relative resolution over the full `u64` nanosecond range in
//! `65 × 8` bytes — the same trick as HdrHistogram's coarsest setting, but
//! dependency-free. Quantiles are read from bucket upper bounds (clamped to
//! the exact, separately-tracked max), so `p50/p95` are upper estimates
//! within one octave and `max` is exact.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log₂ buckets: index 0 for zero, 1..=64 by bit width.
pub const NBUCKETS: usize = 65;

/// Bucket index of a value: 0 for 0, else `64 - leading_zeros` (bucket `k`
/// holds `[2^(k-1), 2^k)`).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (used as the quantile representative).
#[inline]
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        64.. => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

// ---------------------------------------------------------------------------
// Plain (single-writer) histogram — also used by `EstimationStats`
// ---------------------------------------------------------------------------

/// A plain, cheaply mergeable log₂ histogram. This is the value type:
/// session stats (`mnc_core::EstimationStats`) embed it directly, and
/// [`AtomicHisto`] snapshots into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHisto {
    buckets: [u64; NBUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        LatencyHisto {
            buckets: [0; NBUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHisto {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Bucket-wise merge. Because buckets add, quantiles of the merged
    /// histogram are computed over the union of the observations — *not*
    /// a mean of per-session quantiles (the mean-of-means artifact).
    pub fn merge(&mut self, other: &LatencyHisto) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts (index = [`bucket_of`]).
    pub fn buckets(&self) -> &[u64; NBUCKETS] {
        &self.buckets
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper bound of the bucket
    /// containing that rank, clamped to the exact max. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        bucket_quantile(self.buckets.iter().copied(), self.count, self.max, q)
    }
}

/// The nearest-rank `q`-quantile over log₂ bucket counts (index =
/// [`bucket_of`]) holding `count` observations: the upper bound of the
/// bucket where the cumulative count reaches rank `⌈q·count⌉`, clamped to
/// `max`. Returns 0 when `count` is 0. Every bucketed quantile in the
/// workspace reads through this one walk.
pub fn bucket_quantile(
    buckets: impl IntoIterator<Item = u64>,
    count: u64,
    max: u64,
    q: f64,
) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for (k, c) in buckets.into_iter().enumerate() {
        cum += c;
        if cum >= rank {
            return bucket_upper_bound(k).min(max);
        }
    }
    max
}

// ---------------------------------------------------------------------------
// Atomic histogram + handles
// ---------------------------------------------------------------------------

/// Thread-safe histogram behind [`Histogram`] handles.
pub struct AtomicHisto {
    buckets: [AtomicU64; NBUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHisto {
    fn new() -> Self {
        AtomicHisto {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LatencyHisto {
        LatencyHisto {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Handle to a monotone counter; `Default`/[`Counter::noop`] is a no-op.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that drops every update (disabled recorder).
    pub fn noop() -> Counter {
        Counter(None)
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Handle to a gauge (a settable signed level, e.g. resident bytes).
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A handle that drops every update.
    pub fn noop() -> Gauge {
        Gauge(None)
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the level by `d`.
    #[inline]
    pub fn add(&self, d: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current level (0 for a no-op handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// Handle to a log-scale histogram.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<AtomicHisto>>);

impl Histogram {
    /// A handle that drops every update.
    pub fn noop() -> Histogram {
        Histogram(None)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Plain snapshot (empty for a no-op handle).
    pub fn snapshot(&self) -> LatencyHisto {
        self.0
            .as_ref()
            .map_or_else(LatencyHisto::new, |h| h.snapshot())
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Everything the registry knows at one instant, with stable (sorted) order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → level.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram name → plain histogram.
    pub histograms: BTreeMap<String, LatencyHisto>,
}

impl MetricSnapshot {
    /// Whether nothing was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges another snapshot in: counters and gauges add, histograms
    /// merge bucket-wise (see [`LatencyHisto::merge`]). Used by multi-source
    /// exporters (the obsd `/metrics` endpoint aggregates the session
    /// registry with the daemon's service registry).
    pub fn merge(&mut self, other: &MetricSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }
}

/// A named metric registry. Per-session registries hang off
/// `Recorder::enabled()`; a process-wide one is available via
/// [`MetricsRegistry::global`].
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<AtomicHisto>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry (for consumers outside any session).
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// Handle to the named counter, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("registry poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Some(Arc::clone(cell)))
    }

    /// Handle to the named gauge, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("registry poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)));
        Gauge(Some(Arc::clone(cell)))
    }

    /// Handle to the named histogram, registering it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().expect("registry poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicHisto::new()));
        Histogram(Some(Arc::clone(cell)))
    }

    /// Snapshots every metric (sorted by name).
    pub fn snapshot(&self) -> MetricSnapshot {
        MetricSnapshot {
            counters: self
                .counters
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        for k in 1..64usize {
            // The upper bound of bucket k is the largest value mapping to k.
            assert_eq!(bucket_of(bucket_upper_bound(k)), k);
            assert_eq!(bucket_of(bucket_upper_bound(k) + 1), k + 1);
        }
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_counts_sum_max_and_quantiles() {
        let mut h = LatencyHisto::new();
        for v in [0u64, 1, 1, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1105);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[2], 1); // value 3
        assert_eq!(h.buckets()[7], 1); // value 100 in [64,128)
        assert_eq!(h.buckets()[10], 1); // value 1000 in [512,1024)
                                        // p50 of 6 obs = rank 3 -> bucket 1 -> upper bound 1.
        assert_eq!(h.quantile(0.5), 1);
        // p100 is the exact max, not the bucket bound 1023.
        assert_eq!(h.quantile(1.0), 1000);
        // Empty histogram.
        assert_eq!(LatencyHisto::new().quantile(0.5), 0);
    }

    #[test]
    fn merge_is_bucket_additive_not_mean_of_means() {
        // Session A: 99 fast ops. Session B: 1 slow op. The merged p95 must
        // still be fast (rank 95 of 100 lands in the fast bucket); a
        // mean-of-quantiles would report ~half the slow latency.
        let mut a = LatencyHisto::new();
        for _ in 0..99 {
            a.record(10);
        }
        let mut b = LatencyHisto::new();
        b.record(1_000_000);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 100);
        assert_eq!(merged.max(), 1_000_000);
        assert!(merged.quantile(0.95) <= 15, "p95 {}", merged.quantile(0.95));
        assert_eq!(merged.quantile(1.0), 1_000_000);
        assert_eq!(merged.sum(), a.sum() + b.sum());
    }

    #[test]
    fn registry_handles_share_state_and_snapshot_sorted() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("cache.hit");
        let c2 = reg.counter("cache.hit");
        c1.add(2);
        c2.incr();
        assert_eq!(c1.get(), 3);
        reg.gauge("bytes").set(-5);
        reg.histogram("lat").record(7);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["cache.hit"], 3);
        assert_eq!(snap.gauges["bytes"], -5);
        assert_eq!(snap.histograms["lat"].count(), 1);
        assert!(!snap.is_empty());
        assert!(MetricSnapshot::default().is_empty());
    }

    #[test]
    fn snapshot_merge_adds_scalars_and_unions_histograms() {
        let a_reg = MetricsRegistry::new();
        a_reg.counter("hits").add(3);
        a_reg.gauge("bytes").set(10);
        a_reg.histogram("lat").record(8);
        let b_reg = MetricsRegistry::new();
        b_reg.counter("hits").add(4);
        b_reg.counter("misses").add(1);
        b_reg.gauge("bytes").set(-2);
        b_reg.histogram("lat").record(64);
        let mut merged = a_reg.snapshot();
        merged.merge(&b_reg.snapshot());
        assert_eq!(merged.counters["hits"], 7);
        assert_eq!(merged.counters["misses"], 1);
        assert_eq!(merged.gauges["bytes"], 8);
        assert_eq!(merged.histograms["lat"].count(), 2);
        assert_eq!(merged.histograms["lat"].max(), 64);
    }

    #[test]
    fn noop_handles_drop_updates() {
        let c = Counter::noop();
        c.incr();
        assert_eq!(c.get(), 0);
        let g = Gauge::noop();
        g.set(9);
        assert_eq!(g.get(), 0);
        let h = Histogram::noop();
        h.record(5);
        assert_eq!(h.snapshot().count(), 0);
    }

    #[test]
    fn atomic_histogram_is_consistent_under_concurrency() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let h = h.clone();
                scope.spawn(move || {
                    for v in 1..=1000u64 {
                        h.record(v);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), 8000);
        assert_eq!(snap.max(), 1000);
        assert_eq!(snap.sum(), 8 * 500500);
        assert_eq!(snap.buckets().iter().sum::<u64>(), 8000);
    }
}
