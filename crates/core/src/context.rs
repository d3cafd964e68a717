//! Session-level estimation machinery: instrumentation counters and a
//! byte-budgeted LRU synopsis cache.
//!
//! These are the estimator-agnostic building blocks behind
//! `mnc_expr::EstimationContext`. They live in the core crate so the cache
//! and counters can be reused by any synopsis type (the cache is generic —
//! the expression layer instantiates it over `Synopsis` values sized by
//! `Synopsis::size_bytes()`). Parallel sketch construction lives with the
//! sketch ([`crate::MncSketch::build_parallel`]).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;
use std::time::Instant;

use mnc_obs::LatencyHisto;

// ---------------------------------------------------------------------------
// Instrumentation
// ---------------------------------------------------------------------------

/// Per-operation timing bucket inside [`EstimationStats`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OpStat {
    /// Number of sparsity estimates for this op.
    pub estimates: u64,
    /// Total wall-clock nanoseconds spent estimating.
    pub estimate_ns: u64,
    /// Number of synopsis propagations for this op.
    pub propagations: u64,
    /// Total wall-clock nanoseconds spent propagating.
    pub propagate_ns: u64,
    /// Log₂ histogram of per-call estimate latencies.
    pub estimate_histo: LatencyHisto,
    /// Log₂ histogram of per-call propagate latencies.
    pub propagate_histo: LatencyHisto,
}

/// Counters for one estimation session: synopsis builds, cache traffic, and
/// per-operation estimate/propagate timings.
///
/// The `Display` impl renders the compact report printed by `mnc-cli` and
/// the SparsEst runner.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct EstimationStats {
    /// Leaf synopses built (cache misses that did real work).
    pub builds: u64,
    /// Total wall-clock nanoseconds spent building leaf synopses.
    pub build_ns: u64,
    /// Cache lookups answered from the cache.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Bytes currently resident in the cache.
    pub bytes_resident: u64,
    /// Log₂ histogram of per-call leaf-synopsis build latencies.
    pub build_histo: LatencyHisto,
    per_op: BTreeMap<&'static str, OpStat>,
}

impl EstimationStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one leaf-synopsis build taking `ns` nanoseconds.
    pub fn record_build(&mut self, ns: u64) {
        self.builds += 1;
        self.build_ns += ns;
        self.build_histo.record(ns);
    }

    /// Records one sparsity estimate for `op` taking `ns` nanoseconds.
    pub fn record_estimate(&mut self, op: &'static str, ns: u64) {
        let s = self.per_op.entry(op).or_default();
        s.estimates += 1;
        s.estimate_ns += ns;
        s.estimate_histo.record(ns);
    }

    /// Records one synopsis propagation for `op` taking `ns` nanoseconds.
    pub fn record_propagate(&mut self, op: &'static str, ns: u64) {
        let s = self.per_op.entry(op).or_default();
        s.propagations += 1;
        s.propagate_ns += ns;
        s.propagate_histo.record(ns);
    }

    /// Fraction of cache lookups that hit, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Per-op timing buckets in deterministic (name) order.
    pub fn per_op(&self) -> impl Iterator<Item = (&'static str, &OpStat)> {
        self.per_op.iter().map(|(k, v)| (*k, v))
    }

    /// Folds another session's counters into this one.
    ///
    /// Latency histograms merge bucket-wise, so quantiles reported after a
    /// merge are computed over the union of both sessions' observations —
    /// not an average of per-session quantiles (which would understate tail
    /// latency whenever one session is slower than the other).
    pub fn merge(&mut self, other: &EstimationStats) {
        self.builds += other.builds;
        self.build_ns += other.build_ns;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.evictions += other.evictions;
        self.bytes_resident = self.bytes_resident.max(other.bytes_resident);
        self.build_histo.merge(&other.build_histo);
        for (op, s) in &other.per_op {
            let acc = self.per_op.entry(op).or_default();
            acc.estimates += s.estimates;
            acc.estimate_ns += s.estimate_ns;
            acc.propagations += s.propagations;
            acc.propagate_ns += s.propagate_ns;
            acc.estimate_histo.merge(&s.estimate_histo);
            acc.propagate_histo.merge(&s.propagate_histo);
        }
    }
}

/// `p50/p95/max` rendering helper for one histogram, in µs.
fn fmt_quantiles(h: &LatencyHisto) -> String {
    if h.count() == 0 {
        return String::from("-");
    }
    format!(
        "p50 {:.1} / p95 {:.1} / max {:.1} µs",
        h.quantile(0.5) as f64 / 1_000.0,
        h.quantile(0.95) as f64 / 1_000.0,
        h.max() as f64 / 1_000.0,
    )
}

impl fmt::Display for EstimationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "builds: {} ({:.1} µs)   cache: {} hits / {} misses ({:.0}% hit rate), \
             {} evictions, {} B resident",
            self.builds,
            self.build_ns as f64 / 1_000.0,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate() * 100.0,
            self.evictions,
            self.bytes_resident,
        )?;
        if self.build_histo.count() > 0 {
            writeln!(f, "  build latency: {}", fmt_quantiles(&self.build_histo))?;
        }
        for (op, s) in &self.per_op {
            writeln!(
                f,
                "  {op:<10} estimate: {:>5} calls {:>10.1} µs   propagate: {:>5} calls {:>10.1} µs",
                s.estimates,
                s.estimate_ns as f64 / 1_000.0,
                s.propagations,
                s.propagate_ns as f64 / 1_000.0,
            )?;
            if s.estimate_histo.count() > 0 {
                writeln!(
                    f,
                    "  {:<10}   estimate {}",
                    "",
                    fmt_quantiles(&s.estimate_histo)
                )?;
            }
            if s.propagate_histo.count() > 0 {
                writeln!(
                    f,
                    "  {:<10}  propagate {}",
                    "",
                    fmt_quantiles(&s.propagate_histo)
                )?;
            }
        }
        Ok(())
    }
}

/// Minimal wall-clock timer for feeding [`EstimationStats`]:
/// `OpTimer::start()` ... `timer.elapsed_ns()`.
#[derive(Debug, Clone, Copy)]
pub struct OpTimer {
    start: Instant,
}

impl OpTimer {
    /// Starts the clock.
    #[allow(clippy::new_without_default)]
    pub fn start() -> Self {
        OpTimer {
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since `start()`, saturated to `u64`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

// ---------------------------------------------------------------------------
// Byte-budgeted LRU cache
// ---------------------------------------------------------------------------

struct CacheEntry<V> {
    value: V,
    bytes: usize,
    last_used: u64,
}

/// A keyed LRU cache with a byte budget instead of an entry-count capacity —
/// synopsis sizes vary by orders of magnitude (`O(m+n)` MNC sketches vs.
/// `O(mn)`-bit bitsets), so counting entries would be meaningless.
///
/// The caller supplies each entry's size (e.g. `Synopsis::size_bytes()`).
/// Recency is tracked with a monotone tick; eviction scans for the minimum
/// tick, which is `O(len)` but the cache holds at most a few hundred
/// synopses in practice. Values larger than the whole budget are not cached
/// at all — admitting one would evict everything for a value that can never
/// be resident alongside anything else.
pub struct LruSynopsisCache<K, V> {
    map: HashMap<K, CacheEntry<V>>,
    byte_budget: usize,
    bytes: usize,
    tick: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruSynopsisCache<K, V> {
    /// Creates a cache that keeps at most `byte_budget` bytes resident.
    pub fn new(byte_budget: usize) -> Self {
        LruSynopsisCache {
            map: HashMap::new(),
            byte_budget,
            bytes: 0,
            tick: 0,
            evictions: 0,
        }
    }

    /// The configured byte budget.
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// Bytes currently resident.
    pub fn bytes_resident(&self) -> usize {
        self.bytes
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries evicted over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            &e.value
        })
    }

    /// Whether `key` is cached (without touching recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts `key -> value` accounted as `bytes`, evicting
    /// least-recently-used entries until the budget holds. Oversized values
    /// (`bytes > byte_budget`) are silently not cached.
    pub fn insert(&mut self, key: K, value: V, bytes: usize) {
        if bytes > self.byte_budget {
            return;
        }
        self.tick += 1;
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.map.insert(
            key,
            CacheEntry {
                value,
                bytes,
                last_used: self.tick,
            },
        );
        while self.bytes > self.byte_budget {
            // The just-inserted entry carries the max tick, so the scan
            // always finds an older victim first.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("over budget implies a non-empty cache");
            if let Some(e) = self.map.remove(&victim) {
                self.bytes -= e.bytes;
                self.evictions += 1;
            }
        }
    }

    /// Drops every entry (lifetime eviction counter is preserved).
    pub fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_respects_byte_budget_and_evicts_least_recent() {
        let mut cache: LruSynopsisCache<u32, &'static str> = LruSynopsisCache::new(100);
        cache.insert(1, "a", 40);
        cache.insert(2, "b", 40);
        assert_eq!(cache.bytes_resident(), 80);
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(cache.get(&1), Some(&"a"));
        cache.insert(3, "c", 40);
        assert!(cache.contains(&1), "recently used entry must survive");
        assert!(!cache.contains(&2), "LRU entry must be evicted");
        assert!(cache.contains(&3));
        assert_eq!(cache.bytes_resident(), 80);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn lru_reinsert_replaces_without_double_counting() {
        let mut cache: LruSynopsisCache<u32, u64> = LruSynopsisCache::new(100);
        cache.insert(1, 10, 60);
        cache.insert(1, 11, 30);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes_resident(), 30);
        assert_eq!(cache.get(&1), Some(&11));
    }

    #[test]
    fn lru_skips_oversized_values() {
        let mut cache: LruSynopsisCache<u32, u64> = LruSynopsisCache::new(50);
        cache.insert(1, 10, 40);
        cache.insert(2, 20, 51);
        assert!(
            cache.contains(&1),
            "small entry must not be evicted for an oversized one"
        );
        assert!(!cache.contains(&2));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes_resident(), 0);
    }

    #[test]
    fn stats_counters_and_display() {
        let mut s = EstimationStats::new();
        s.record_build(1_500);
        s.cache_hits = 3;
        s.cache_misses = 1;
        s.record_estimate("matmul", 2_000);
        s.record_estimate("matmul", 1_000);
        s.record_propagate("ew_add", 500);
        assert_eq!(s.hit_rate(), 0.75);
        let per_op: Vec<_> = s.per_op().collect();
        assert_eq!(per_op.len(), 2);
        assert_eq!(per_op[1].0, "matmul");
        assert_eq!(per_op[1].1.estimates, 2);

        let mut merged = EstimationStats::new();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.builds, 2);
        assert_eq!(merged.cache_hits, 6);
        assert_eq!(merged.build_histo.count(), 2);
        assert_eq!(merged.per_op["matmul"].estimate_histo.count(), 4);

        let text = s.to_string();
        assert!(text.contains("75% hit rate"), "{text}");
        assert!(text.contains("matmul"), "{text}");
        assert!(text.contains("p95"), "{text}");
    }

    #[test]
    fn merged_quantiles_come_from_the_union_not_a_mean_of_means() {
        // Session A: 99 fast estimates; session B: one slow estimate. A
        // mean-of-per-session-p95s would report ~half the slow latency; the
        // bucket-additive merge must keep p95 in the fast range while max is
        // exact.
        let mut a = EstimationStats::new();
        for _ in 0..99 {
            a.record_estimate("matmul", 10);
        }
        let mut b = EstimationStats::new();
        b.record_estimate("matmul", 1_000_000);
        let mut merged = EstimationStats::new();
        merged.merge(&a);
        merged.merge(&b);
        let m = &merged
            .per_op()
            .find(|(op, _)| *op == "matmul")
            .unwrap()
            .1
            .estimate_histo;
        assert_eq!(m.count(), 100);
        assert!(m.quantile(0.95) <= 15, "p95 {}", m.quantile(0.95));
        assert_eq!(m.max(), 1_000_000);
    }

    #[test]
    fn op_timer_is_monotone() {
        let t = OpTimer::start();
        let a = t.elapsed_ns();
        let b = t.elapsed_ns();
        assert!(b >= a);
    }
}
