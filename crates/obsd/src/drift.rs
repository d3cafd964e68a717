//! Online accuracy-drift detection.
//!
//! The paper's core claim is that structure-exploiting estimation stays
//! accurate where sampling-based baselines drift badly on skewed inputs
//! (Section 2; PAPERS.md, Amossen et al.). A long-running service must
//! therefore watch its own error signal *online*: this module folds every
//! [`AccuracyRecord`] into per-`(estimator, op)` statistics and trips a
//! degraded-health state when error drifts past configured thresholds.
//!
//! ## The statistics
//!
//! The symmetric relative error is a **ratio** metric (`>= 1`, `1` =
//! perfect), so the running average is an EWMA over `ln(err)` — the
//! exponential of the EWMA is then a *geometric* running mean, matching the
//! geo-mean aggregation the batch summaries use:
//!
//! ```text
//! ewma_ln ← α·ln(err) + (1 − α)·ewma_ln        (seeded with the first ln)
//! geo-EWMA = exp(ewma_ln)
//! ```
//!
//! Alongside, a fixed window of the most recent errors yields a windowed
//! p95 that catches tail blow-ups an average smooths over. A series trips
//! when either statistic crosses its ceiling (after a minimum sample
//! count); it recovers with hysteresis — both statistics must fall below
//! `recovery_factor ×` the ceiling — so health does not flap at the
//! threshold. Each trip increments a monotone alert counter, exported as
//! `mnc_obsd_drift_alerts_total`.
//!
//! Infinite errors (zero/non-zero mismatches — legal per the pinned
//! [`symmetric_relative_error`](mnc_obs::accuracy::symmetric_relative_error)
//! contract) are counted separately and clamped to `infinite_clamp` before
//! entering the statistics, keeping the EWMA finite while still letting a
//! burst of them trip the thresholds immediately.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use mnc_obs::ring::Ring;
use mnc_obs::{AccuracyRecord, RecordSink};

/// Thresholds and smoothing parameters for the drift monitor.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// EWMA smoothing factor in `(0, 1]`; larger reacts faster.
    pub ewma_alpha: f64,
    /// Degrade when a series' geometric EWMA error exceeds this.
    pub max_geo_ewma: f64,
    /// Degrade when a series' windowed p95 error exceeds this.
    pub max_p95: f64,
    /// Number of recent errors in the quantile window.
    pub window: usize,
    /// Samples a series needs before it may trip (cold-start guard).
    pub min_samples: u64,
    /// Substitute for infinite errors entering the statistics.
    pub infinite_clamp: f64,
    /// Hysteresis: recover only when both statistics fall below
    /// `recovery_factor × ceiling`.
    pub recovery_factor: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            ewma_alpha: 0.2,
            max_geo_ewma: 2.0,
            max_p95: 5.0,
            window: 64,
            min_samples: 16,
            infinite_clamp: 1e6,
            recovery_factor: 0.8,
        }
    }
}

/// Drift-aware health: the `/healthz` verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum Health {
    /// No series is drifting.
    Ok,
    /// At least one series tripped; one human-readable reason per series.
    Degraded(Vec<String>),
}

impl Health {
    /// Whether the service is healthy.
    pub fn is_ok(&self) -> bool {
        matches!(self, Health::Ok)
    }
}

/// Per-`(estimator, op)` running state.
#[derive(Debug)]
struct Series {
    n: u64,
    infinite: u64,
    ewma_ln: f64,
    /// Ring of the most recent errors (quantile window).
    window: Ring<f64>,
    degraded: bool,
}

impl Series {
    fn p95(&self) -> f64 {
        if self.window.is_empty() {
            return 1.0;
        }
        let mut sorted: Vec<f64> = self.window.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("clamped errors are finite"));
        let rank = ((0.95 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

/// A snapshot of one series, for reports and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesStats {
    /// Estimator display name.
    pub estimator: String,
    /// Root operation.
    pub op: String,
    /// Observations folded in.
    pub count: u64,
    /// Infinite errors seen (clamped before entering the statistics).
    pub infinite: u64,
    /// Geometric EWMA of the error.
    pub geo_ewma: f64,
    /// Windowed p95 of the error.
    pub p95: f64,
    /// Whether this series currently trips the thresholds.
    pub degraded: bool,
}

/// The online drift monitor. Observation is thread-safe (one short mutex —
/// accuracy records are orders of magnitude rarer than spans) and the
/// health flag is a lock-free read.
#[derive(Debug)]
pub struct DriftMonitor {
    cfg: DriftConfig,
    series: Mutex<BTreeMap<(String, String), Series>>,
    alerts: AtomicU64,
    degraded: AtomicBool,
}

impl DriftMonitor {
    /// A monitor with the given thresholds.
    pub fn new(cfg: DriftConfig) -> Self {
        DriftMonitor {
            cfg,
            series: Mutex::new(BTreeMap::new()),
            alerts: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.cfg
    }

    /// Folds one accuracy record into its `(estimator, op)` series.
    pub fn observe(&self, rec: &AccuracyRecord) {
        self.observe_error(&rec.estimator, &rec.op, rec.relative_error);
    }

    /// Folds one raw error observation.
    pub fn observe_error(&self, estimator: &str, op: &str, relative_error: f64) {
        let infinite = !relative_error.is_finite();
        // The pinned contract says the error is never NaN and >= 1; clamp
        // anyway so a violation degrades gracefully instead of poisoning
        // the EWMA.
        let err = if infinite {
            self.cfg.infinite_clamp
        } else {
            relative_error.max(1.0)
        };
        let mut map = self.series.lock().expect("drift state poisoned");
        let s = map
            .entry((estimator.to_string(), op.to_string()))
            .or_insert_with(|| Series {
                n: 0,
                infinite: 0,
                ewma_ln: 0.0,
                window: Ring::new(self.cfg.window),
                degraded: false,
            });
        let ln = err.ln();
        s.ewma_ln = if s.n == 0 {
            ln
        } else {
            self.cfg.ewma_alpha * ln + (1.0 - self.cfg.ewma_alpha) * s.ewma_ln
        };
        s.n += 1;
        if infinite {
            s.infinite += 1;
        }
        s.window.push(err);
        if s.n >= self.cfg.min_samples {
            let geo = s.ewma_ln.exp();
            let p95 = s.p95();
            if !s.degraded && (geo > self.cfg.max_geo_ewma || p95 > self.cfg.max_p95) {
                s.degraded = true;
                self.alerts.fetch_add(1, Ordering::Relaxed);
            } else if s.degraded
                && geo <= self.cfg.max_geo_ewma * self.cfg.recovery_factor
                && p95 <= self.cfg.max_p95 * self.cfg.recovery_factor
            {
                s.degraded = false;
            }
        }
        let any = map.values().any(|s| s.degraded);
        self.degraded.store(any, Ordering::Release);
    }

    /// Total threshold trips (monotone; the `drift_alerts_total` counter).
    pub fn alerts(&self) -> u64 {
        self.alerts.load(Ordering::Relaxed)
    }

    /// Whether any series currently trips (lock-free).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// The drift-aware health verdict with per-series reasons.
    pub fn status(&self) -> Health {
        if !self.is_degraded() {
            return Health::Ok;
        }
        let map = self.series.lock().expect("drift state poisoned");
        let reasons: Vec<String> = map
            .iter()
            .filter(|(_, s)| s.degraded)
            .map(|((est, op), s)| {
                format!(
                    "{est}/{op}: geo-EWMA err {:.3} (ceiling {:.3}), window p95 {:.3} \
                     (ceiling {:.3}), n={}",
                    s.ewma_ln.exp(),
                    self.cfg.max_geo_ewma,
                    s.p95(),
                    self.cfg.max_p95,
                    s.n
                )
            })
            .collect();
        if reasons.is_empty() {
            // The flag and the lock race benignly: recheck said recovered.
            Health::Ok
        } else {
            Health::Degraded(reasons)
        }
    }

    /// Snapshot of every series, sorted by `(estimator, op)`.
    pub fn stats(&self) -> Vec<SeriesStats> {
        let map = self.series.lock().expect("drift state poisoned");
        map.iter()
            .map(|((est, op), s)| SeriesStats {
                estimator: est.clone(),
                op: op.clone(),
                count: s.n,
                infinite: s.infinite,
                geo_ewma: s.ewma_ln.exp(),
                p95: s.p95(),
                degraded: s.degraded,
            })
            .collect()
    }
}

impl Default for DriftMonitor {
    fn default() -> Self {
        Self::new(DriftConfig::default())
    }
}

/// The daemon recorder's sink: every accuracy record it stores, its own or
/// one forwarded from an installed recorder, is observed here once.
impl RecordSink for DriftMonitor {
    fn on_accuracy(&self, rec: &AccuracyRecord) {
        self.observe(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> DriftConfig {
        DriftConfig {
            min_samples: 4,
            window: 8,
            ..DriftConfig::default()
        }
    }

    #[test]
    fn accurate_stream_stays_healthy() {
        let m = DriftMonitor::new(fast_cfg());
        for _ in 0..100 {
            m.observe_error("MNC", "matmul", 1.05);
        }
        assert!(!m.is_degraded());
        assert_eq!(m.status(), Health::Ok);
        assert_eq!(m.alerts(), 0);
        let s = &m.stats()[0];
        assert!(s.geo_ewma < 1.1);
        assert!(!s.degraded);
    }

    #[test]
    fn drifting_stream_trips_once_and_names_the_series() {
        let m = DriftMonitor::new(fast_cfg());
        for _ in 0..20 {
            m.observe_error("Sample", "matmul", 8.0);
        }
        assert!(m.is_degraded());
        assert_eq!(m.alerts(), 1, "one trip, not one per record");
        match m.status() {
            Health::Degraded(reasons) => {
                assert_eq!(reasons.len(), 1);
                assert!(reasons[0].starts_with("Sample/matmul:"), "{reasons:?}");
            }
            Health::Ok => panic!("expected degraded"),
        }
    }

    #[test]
    fn min_samples_guards_cold_start() {
        let m = DriftMonitor::new(fast_cfg());
        for _ in 0..3 {
            m.observe_error("MNC", "matmul", 100.0);
        }
        assert!(!m.is_degraded(), "below min_samples nothing trips");
    }

    #[test]
    fn recovery_has_hysteresis() {
        let m = DriftMonitor::new(fast_cfg());
        for _ in 0..20 {
            m.observe_error("MNC", "matmul", 8.0);
        }
        assert!(m.is_degraded());
        // A long accurate stream drains both the EWMA and the window.
        for _ in 0..100 {
            m.observe_error("MNC", "matmul", 1.01);
        }
        assert!(!m.is_degraded(), "{:?}", m.stats());
        assert_eq!(m.alerts(), 1);
        // Re-tripping counts a second alert.
        for _ in 0..50 {
            m.observe_error("MNC", "matmul", 9.0);
        }
        assert!(m.is_degraded());
        assert_eq!(m.alerts(), 2);
    }

    #[test]
    fn series_are_independent() {
        let m = DriftMonitor::new(fast_cfg());
        for _ in 0..20 {
            m.observe_error("MNC", "matmul", 1.02);
            m.observe_error("Sample", "matmul", 12.0);
        }
        let stats = m.stats();
        assert_eq!(stats.len(), 2);
        assert!(
            !stats
                .iter()
                .find(|s| s.estimator == "MNC")
                .unwrap()
                .degraded
        );
        assert!(
            stats
                .iter()
                .find(|s| s.estimator == "Sample")
                .unwrap()
                .degraded
        );
        assert!(m.is_degraded(), "any degraded series degrades the whole");
    }

    #[test]
    fn infinite_errors_clamp_and_count() {
        let m = DriftMonitor::new(fast_cfg());
        for _ in 0..8 {
            m.observe_error("MNC", "matmul", f64::INFINITY);
        }
        let s = &m.stats()[0];
        assert_eq!(s.infinite, 8);
        assert!(s.geo_ewma.is_finite(), "clamped before the EWMA");
        assert!(m.is_degraded(), "a burst of INF errors trips");
    }

    #[test]
    fn recovery_boundary_sits_at_recovery_factor_times_ceiling() {
        // alpha = 1 makes the EWMA equal the last observation and window = 1
        // makes p95 equal it too, so the hysteresis band can be probed with
        // single observations: ceiling 2.0, recovery at 0.8 × 2.0 = 1.6.
        let m = DriftMonitor::new(DriftConfig {
            ewma_alpha: 1.0,
            window: 1,
            min_samples: 1,
            ..DriftConfig::default()
        });
        m.observe_error("MNC", "matmul", 3.0);
        assert!(m.is_degraded(), "3.0 > ceiling 2.0 must trip");
        // Inside the hysteresis band (1.6, 2.0]: below the trip ceiling but
        // above the recovery line — stays degraded, no flapping.
        m.observe_error("MNC", "matmul", 1.61);
        assert!(
            m.is_degraded(),
            "1.61 > 0.8×2.0 is inside the band: {:?}",
            m.stats()
        );
        assert_eq!(m.alerts(), 1, "staying degraded is not a new alert");
        // Below the recovery line: healthy again.
        m.observe_error("MNC", "matmul", 1.59);
        assert!(!m.is_degraded(), "1.59 < 1.6 must recover: {:?}", m.stats());
        // And the band is one-sided: re-entering it from below does NOT
        // re-trip (only crossing the full ceiling does).
        m.observe_error("MNC", "matmul", 1.9);
        assert!(!m.is_degraded(), "1.9 < ceiling must not trip from healthy");
        assert_eq!(m.alerts(), 1);
        m.observe_error("MNC", "matmul", 2.1);
        assert!(m.is_degraded());
        assert_eq!(m.alerts(), 2, "crossing the ceiling again is a new alert");
    }

    #[test]
    fn exactly_min_samples_observations_may_trip_but_one_fewer_never_does() {
        let cfg = fast_cfg(); // min_samples: 4
        let m = DriftMonitor::new(cfg.clone());
        for _ in 0..(cfg.min_samples - 1) {
            m.observe_error("MNC", "matmul", 1000.0);
        }
        assert!(
            !m.is_degraded(),
            "min_samples - 1 huge errors stay cold-start guarded"
        );
        assert_eq!(m.alerts(), 0);
        m.observe_error("MNC", "matmul", 1000.0);
        assert!(m.is_degraded(), "the min_samples-th observation trips");
        assert_eq!(m.alerts(), 1);
    }

    #[test]
    fn infinite_clamp_bounds_the_ewma_and_decays_back_out() {
        let m = DriftMonitor::new(DriftConfig {
            min_samples: 1,
            window: 4,
            ..DriftConfig::default()
        });
        m.observe_error("MNC", "matmul", f64::INFINITY);
        let s = &m.stats()[0];
        assert_eq!(s.infinite, 1);
        // The clamp caps the seeded EWMA at exactly the configured value
        // (modulo the ln/exp roundtrip), not at infinity.
        let clamp = m.config().infinite_clamp;
        assert!(
            (s.geo_ewma - clamp).abs() / clamp < 1e-12,
            "geo EWMA {} must seed at the clamp {clamp}",
            s.geo_ewma
        );
        assert!(m.is_degraded());
        // Perfect observations decay the geometric EWMA multiplicatively:
        // after k steps the EWMA is clamp^((1-α)^k), so it falls below the
        // recovery line in bounded time even from a clamped-infinite seed.
        let mut steps = 0;
        while m.is_degraded() && steps < 500 {
            m.observe_error("MNC", "matmul", 1.0);
            steps += 1;
        }
        assert!(
            !m.is_degraded(),
            "clamped INF must decay out: {:?}",
            m.stats()
        );
        // ln(ln(recovery)/ln(clamp)) / ln(1-α): ≈ 60 steps for the defaults;
        // the window (4 samples of 1.0) clears far sooner.
        let expected = ((0.8f64 * 2.0).ln() / clamp.ln()).ln() / (1.0f64 - 0.2).ln();
        assert!(
            (steps as f64) <= expected.ceil() + 4.0,
            "decay took {steps} steps, analytic bound {expected:.1}"
        );
        let s = &m.stats()[0];
        assert_eq!(s.infinite, 1, "the infinite count is not decayed");
    }

    #[test]
    fn observes_records_via_the_accuracy_channel_shape() {
        let m = DriftMonitor::new(fast_cfg());
        for i in 0..20 {
            m.observe(&AccuracyRecord::new(
                format!("c{i}"),
                "matmul",
                "MNC",
                0.5,
                0.05,
            ));
        }
        assert!(m.is_degraded(), "10x error drifts");
    }
}
