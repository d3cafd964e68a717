//! Multi-window, multi-burn-rate SLO evaluation over the timeline's
//! per-second samples.
//!
//! The engine implements the Google-SRE alerting shape: for each declared
//! objective it maintains a per-second ring of `(bad, total)` event counts,
//! computes the **burn rate** — observed error fraction divided by the
//! objective's error budget — over a *fast* and a *slow* window, and fires
//! only when **both** windows exceed their thresholds (fast 14.4×, slow 6×
//! by default: the classic "2% of a 30-day budget in an hour" pairing,
//! rescaled to the service's much shorter windows). Requiring both windows
//! makes the alert precise (slow window) *and* quick to clear (fast
//! window); hysteresis on top — recovery only once both burns fall below
//! `recovery_factor ×` their thresholds — keeps `/healthz` from flapping
//! at the boundary.
//!
//! Three objectives are wired by the timeline plane:
//!
//! * **availability** — non-5xx/non-shed fraction of `served.requests`;
//! * **latency** — fraction of `served.service_ns{endpoint=/v1/estimate}`
//!   observations under the configured p99 ceiling (budget 1%);
//! * **drift** — fraction of seconds the accuracy-drift monitor was not
//!   degraded.
//!
//! Concurrency: [`SloEngine::observe`] is called only from the timeline's
//! single-writer sampling pass (its interior mutex is uncontended by
//! design), while every published statistic — firing flags, milli-scaled
//! burns, the alert counter — lives in atomics so `/metrics`, `/healthz`,
//! and `/v1/status` read without any lock. Everything is fixed-memory: the
//! per-second work is a handful of ring writes and two window sums, with
//! no allocation after construction (proven in `tests/timeline_alloc.rs`).

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

use mnc_obs::ring::Ring;

/// Objective slots the engine evaluates. Fixed so state can be plain
/// arrays; disabled objectives simply never accumulate burn.
pub const OBJECTIVES: [&str; 3] = ["availability", "latency", "drift"];
/// Number of objective slots.
pub const N_OBJECTIVES: usize = OBJECTIVES.len();
const N_OBJ: usize = N_OBJECTIVES;

/// Ceiling on window length (and thus per-objective ring memory).
const MAX_WINDOW_S: usize = 3600;

/// Declared objectives and window geometry for the SLO engine.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Availability target in `(0, 1)`; `0.0` disables the objective.
    /// A request is *bad* when its status is 5xx or 429 (shed).
    pub availability_target: f64,
    /// p99 service-latency ceiling for the tracked endpoint, in
    /// milliseconds; `0` disables the objective. The log₂ histogram
    /// quantizes the ceiling up to the next power-of-two bucket boundary.
    pub latency_p99_ms: u64,
    /// Histogram series the latency objective reads.
    pub latency_metric: String,
    /// Drift-health target: fraction of seconds the drift monitor must be
    /// healthy; `0.0` disables the objective.
    pub drift_target: f64,
    /// Fast alert window in seconds.
    pub fast_window_s: u64,
    /// Slow alert window in seconds (expected ≥ the fast window).
    pub slow_window_s: u64,
    /// Fast-window burn-rate threshold.
    pub fast_burn: f64,
    /// Slow-window burn-rate threshold.
    pub slow_burn: f64,
    /// Hysteresis: a firing objective recovers only when both window burns
    /// fall below `recovery_factor ×` their thresholds.
    pub recovery_factor: f64,
    /// Minimum events inside the fast window before an objective may trip
    /// (cold-start and trickle-traffic guard).
    pub min_events: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            availability_target: 0.999,
            latency_p99_ms: 0,
            latency_metric: "served.service_ns{endpoint=/v1/estimate}".into(),
            drift_target: 0.99,
            fast_window_s: 60,
            slow_window_s: 300,
            fast_burn: 14.4,
            slow_burn: 6.0,
            recovery_factor: 0.8,
            min_events: 10,
        }
    }
}

impl SloConfig {
    /// The objective's error budget (the denominator of every burn rate).
    pub fn budget(&self, obj: usize) -> f64 {
        match obj {
            0 => 1.0 - self.availability_target,
            1 => 0.01, // p99 objective: 1% of observations may exceed it
            _ => 1.0 - self.drift_target,
        }
    }

    /// Whether the objective is declared with a meaningful budget.
    pub fn enabled(&self, obj: usize) -> bool {
        let declared = match obj {
            0 => self.availability_target > 0.0,
            1 => self.latency_p99_ms > 0,
            _ => self.drift_target > 0.0,
        };
        let b = self.budget(obj);
        declared && b > 0.0 && b < 1.0
    }

    /// The objective's target as declared (for reports).
    pub fn target(&self, obj: usize) -> f64 {
        match obj {
            0 => self.availability_target,
            1 => 0.99,
            _ => self.drift_target,
        }
    }
}

/// One second's worth of events for every objective, handed to
/// [`SloEngine::observe`] by the timeline's sampling pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct SloSample {
    /// `served.requests` delta: every request this second.
    pub avail_total: u64,
    /// `served.requests` delta: bad (5xx or shed) requests this second.
    pub avail_bad: u64,
    /// Latency-histogram delta: every observation this second.
    pub lat_total: u64,
    /// Latency-histogram delta: observations above the ceiling bucket.
    pub lat_bad: u64,
    /// Whether the drift monitor was degraded this second.
    pub drift_degraded: bool,
}

/// An alert edge produced by one evaluation: objective index plus the new
/// firing state. Returned in a fixed-size array so evaluation stays
/// allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloTransition {
    /// Index into [`OBJECTIVES`].
    pub objective: usize,
    /// `true` = tripped, `false` = recovered.
    pub fired: bool,
}

/// `(bad, total)` summed over the most recent `window` seconds of a
/// per-objective event ring (at most `MAX_WINDOW_S` slots, trivially cheap
/// once a second).
fn window_sum(ring: &Ring<(u32, u32)>, window: usize) -> (u64, u64) {
    ring.iter()
        .rev()
        .take(window)
        .fold((0, 0), |(bad, total), &(b, t)| {
            (bad + u64::from(b), total + u64::from(t))
        })
}

/// The single-writer state: event rings plus the alert state machine.
struct SloCore {
    /// Per-objective `(bad, total)` event counts, one slot per second.
    rings: [Ring<(u32, u32)>; N_OBJ],
    firing: [bool; N_OBJ],
}

/// Published per-objective readout (the lock-free face the `/metrics`
/// exposition, `/v1/status`, and the timeline JSON render from).
#[derive(Debug, Clone, Copy)]
pub struct ObjectiveReadout {
    /// Objective name from [`OBJECTIVES`].
    pub name: &'static str,
    /// Whether the objective is declared and evaluated.
    pub enabled: bool,
    /// Whether the alert is currently firing.
    pub firing: bool,
    /// Fast-window burn rate (milli precision).
    pub burn_fast: f64,
    /// Slow-window burn rate (milli precision).
    pub burn_slow: f64,
    /// Fraction of the slow-window error budget still unspent, in `[0, 1]`.
    pub budget_remaining: f64,
}

/// The multi-window burn-rate engine. See the module docs for the
/// concurrency contract.
pub struct SloEngine {
    config: SloConfig,
    /// Mutated only by [`observe`](SloEngine::observe), whose single caller
    /// (the timeline sampler) is already serialized — the mutex is a
    /// soundness fence, not a contention point.
    core: Mutex<SloCore>,
    alerts_total: AtomicU64,
    pub_firing: [AtomicBool; N_OBJ],
    pub_burn_fast_milli: [AtomicI64; N_OBJ],
    pub_burn_slow_milli: [AtomicI64; N_OBJ],
    pub_budget_remaining_milli: [AtomicI64; N_OBJ],
    /// Human-readable reason per firing objective, rebuilt on transitions
    /// only (so the sampling steady state never allocates).
    reasons: Mutex<[Option<String>; N_OBJ]>,
}

impl SloEngine {
    /// An engine with pre-allocated windows sized to the slow window.
    pub fn new(config: SloConfig) -> Self {
        let cap = (config.slow_window_s.max(config.fast_window_s) as usize).clamp(1, MAX_WINDOW_S);
        SloEngine {
            config,
            core: Mutex::new(SloCore {
                rings: std::array::from_fn(|_| Ring::new(cap)),
                firing: [false; N_OBJ],
            }),
            alerts_total: AtomicU64::new(0),
            pub_firing: std::array::from_fn(|_| AtomicBool::new(false)),
            pub_burn_fast_milli: std::array::from_fn(|_| AtomicI64::new(0)),
            pub_burn_slow_milli: std::array::from_fn(|_| AtomicI64::new(0)),
            pub_budget_remaining_milli: std::array::from_fn(|_| AtomicI64::new(1000)),
            reasons: Mutex::new([None, None, None]),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Folds one second of events in and re-evaluates every objective.
    /// Returns up to one transition per objective (`None`-padded).
    pub fn observe(&self, sample: &SloSample) -> [Option<SloTransition>; N_OBJ] {
        let events: [(u64, u64); N_OBJ] = [
            (sample.avail_bad, sample.avail_total),
            (sample.lat_bad, sample.lat_total),
            (u64::from(sample.drift_degraded), 1),
        ];
        let mut out = [None; N_OBJ];
        let clamp = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
        let mut core = self.core.lock().expect("slo core poisoned");
        for (obj, (bad, total)) in events.into_iter().enumerate() {
            core.rings[obj].push((clamp(bad), clamp(total)));
            if !self.config.enabled(obj) {
                continue;
            }
            let budget = self.config.budget(obj);
            let fast = burn(
                &core.rings[obj],
                self.config.fast_window_s as usize,
                self.config.fast_window_s as usize,
                self.config.min_events,
                budget,
            );
            let slow = burn(
                &core.rings[obj],
                self.config.slow_window_s as usize,
                self.config.fast_window_s as usize,
                self.config.min_events,
                budget,
            );
            let (slow_bad, slow_total) =
                window_sum(&core.rings[obj], self.config.slow_window_s as usize);
            let spent = if slow_total == 0 {
                0.0
            } else {
                (slow_bad as f64 / slow_total as f64) / budget
            };
            let remaining = (1.0 - spent).clamp(0.0, 1.0);

            let was = core.firing[obj];
            let now = if was {
                // Hysteresis: both burns must fall clearly below threshold.
                !(fast < self.config.recovery_factor * self.config.fast_burn
                    && slow < self.config.recovery_factor * self.config.slow_burn)
            } else {
                fast > self.config.fast_burn && slow > self.config.slow_burn
            };
            let milli = |v: f64| (v * 1000.0).min(i64::MAX as f64) as i64;
            self.pub_burn_fast_milli[obj].store(milli(fast), Ordering::Relaxed);
            self.pub_burn_slow_milli[obj].store(milli(slow), Ordering::Relaxed);
            self.pub_budget_remaining_milli[obj].store(milli(remaining), Ordering::Relaxed);
            if now != was {
                core.firing[obj] = now;
                self.pub_firing[obj].store(now, Ordering::Relaxed);
                if now {
                    self.alerts_total.fetch_add(1, Ordering::Relaxed);
                }
                // Transition path: allocation is fine here, edges are rare.
                let mut reasons = self.reasons.lock().expect("slo reasons poisoned");
                reasons[obj] = now.then(|| {
                    format!(
                        "slo {}: fast burn {:.1}x > {:.1}x and slow burn {:.1}x > {:.1}x \
                         of error budget {:.4}",
                        OBJECTIVES[obj],
                        fast,
                        self.config.fast_burn,
                        slow,
                        self.config.slow_burn,
                        budget,
                    )
                });
                out[obj] = Some(SloTransition {
                    objective: obj,
                    fired: now,
                });
            }
        }
        out
    }

    /// Total alert trips since start (monotone; the
    /// `mnc_slo_burn_alerts_total` counter).
    pub fn alerts_total(&self) -> u64 {
        self.alerts_total.load(Ordering::Relaxed)
    }

    /// Lock-free per-objective readout.
    pub fn readout(&self) -> [ObjectiveReadout; N_OBJ] {
        std::array::from_fn(|obj| ObjectiveReadout {
            name: OBJECTIVES[obj],
            enabled: self.config.enabled(obj),
            firing: self.pub_firing[obj].load(Ordering::Relaxed),
            burn_fast: self.pub_burn_fast_milli[obj].load(Ordering::Relaxed) as f64 / 1000.0,
            burn_slow: self.pub_burn_slow_milli[obj].load(Ordering::Relaxed) as f64 / 1000.0,
            budget_remaining: self.pub_budget_remaining_milli[obj].load(Ordering::Relaxed) as f64
                / 1000.0,
        })
    }

    /// Current firing reasons (one per firing objective), for the
    /// `/healthz` merge.
    pub fn health_reasons(&self) -> Vec<String> {
        self.reasons
            .lock()
            .expect("slo reasons poisoned")
            .iter()
            .flatten()
            .cloned()
            .collect()
    }

    /// Whether any objective is firing (lock-free).
    pub fn any_firing(&self) -> bool {
        self.pub_firing.iter().any(|f| f.load(Ordering::Relaxed))
    }
}

/// Burn rate over the most recent `window` seconds: error fraction over
/// budget, zeroed while the fast window holds fewer than `min_events`
/// events (a lone failing request during a quiet minute must not trip).
fn burn(
    ring: &Ring<(u32, u32)>,
    window: usize,
    fast_window: usize,
    min_events: u64,
    budget: f64,
) -> f64 {
    let (bad, total) = window_sum(ring, window);
    let (_, fast_total) = window_sum(ring, fast_window);
    if total == 0 || fast_total < min_events {
        return 0.0;
    }
    (bad as f64 / total as f64) / budget
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_config() -> SloConfig {
        SloConfig {
            availability_target: 0.99,
            latency_p99_ms: 100,
            drift_target: 0.0, // disabled: these tests drive the first two
            fast_window_s: 5,
            slow_window_s: 15,
            min_events: 5,
            ..SloConfig::default()
        }
    }

    fn traffic(n: u64, bad: u64) -> SloSample {
        SloSample {
            avail_total: n,
            avail_bad: bad,
            lat_total: n,
            lat_bad: bad,
            ..SloSample::default()
        }
    }

    #[test]
    fn trips_when_both_windows_burn_and_counts_alerts() {
        let eng = SloEngine::new(short_config());
        // Healthy traffic: no alert ever.
        for _ in 0..20 {
            let t = eng.observe(&traffic(10, 0));
            assert!(t.iter().all(Option::is_none), "healthy traffic tripped");
        }
        assert!(!eng.any_firing());
        // Total failure: burn = 100x budget on both objectives once both
        // windows see it.
        let mut fired = Vec::new();
        for _ in 0..20 {
            fired.extend(eng.observe(&traffic(10, 10)).into_iter().flatten());
        }
        assert!(
            fired.iter().any(|t| t.objective == 0 && t.fired),
            "availability never fired: {fired:?}"
        );
        assert!(
            fired.iter().any(|t| t.objective == 1 && t.fired),
            "latency never fired: {fired:?}"
        );
        assert_eq!(eng.alerts_total(), 2);
        assert!(eng.any_firing());
        assert_eq!(eng.health_reasons().len(), 2);
        let r = eng.readout();
        assert!(r[0].firing && r[1].firing);
        assert!(r[0].burn_fast > eng.config().fast_burn);
        assert!(r[0].budget_remaining < 0.1);
    }

    #[test]
    fn recovers_with_hysteresis_after_the_slow_window_drains() {
        let eng = SloEngine::new(short_config());
        for _ in 0..20 {
            eng.observe(&traffic(10, 10));
        }
        assert!(eng.any_firing());
        // Healthy traffic again: the fast window clears in ~5s but the slow
        // window holds the alert until the bad seconds age out of it.
        let mut recovered_at = None;
        for s in 0..40 {
            for t in eng.observe(&traffic(10, 0)).into_iter().flatten() {
                if !t.fired && recovered_at.is_none() {
                    recovered_at = Some(s);
                }
            }
        }
        let at = recovered_at.expect("never recovered");
        assert!(at >= 4, "recovered before the fast window cleared: {at}");
        assert!(!eng.any_firing());
        assert!(eng.health_reasons().is_empty());
        // Alert count is edge-triggered: the recovery did not increment it.
        assert_eq!(eng.alerts_total(), 2);
    }

    #[test]
    fn min_events_guard_blocks_trickle_traffic() {
        let eng = SloEngine::new(SloConfig {
            min_events: 10,
            ..short_config()
        });
        // One failing request per second tops out at 5 events per 5s fast
        // window, below min_events=10: burn must read 0 and nothing fires.
        for _ in 0..30 {
            let t = eng.observe(&traffic(1, 1));
            assert!(t.iter().all(Option::is_none));
        }
        assert!(!eng.any_firing());
        assert_eq!(eng.readout()[0].burn_fast, 0.0);
    }

    #[test]
    fn disabled_objectives_never_evaluate() {
        let eng = SloEngine::new(SloConfig {
            availability_target: 0.0,
            latency_p99_ms: 0,
            drift_target: 0.0,
            ..short_config()
        });
        for _ in 0..30 {
            let t = eng.observe(&SloSample {
                avail_total: 10,
                avail_bad: 10,
                lat_total: 10,
                lat_bad: 10,
                drift_degraded: true,
            });
            assert!(t.iter().all(Option::is_none));
        }
        assert!(!eng.any_firing());
        assert_eq!(eng.alerts_total(), 0);
        assert!(eng.readout().iter().all(|o| !o.enabled));
    }

    #[test]
    fn drift_objective_follows_the_degraded_flag() {
        let eng = SloEngine::new(SloConfig {
            availability_target: 0.0,
            latency_p99_ms: 0,
            drift_target: 0.99, // budget 1%: full degradation burns at 100x
            fast_window_s: 5,
            slow_window_s: 10,
            min_events: 3,
            ..SloConfig::default()
        });
        let mut fired = false;
        for _ in 0..15 {
            let t = eng.observe(&SloSample {
                drift_degraded: true,
                ..SloSample::default()
            });
            fired |= t.iter().flatten().any(|t| t.objective == 2 && t.fired);
        }
        assert!(fired, "drift objective never fired");
    }

    #[test]
    fn budget_and_target_shapes() {
        let cfg = SloConfig::default();
        assert!((cfg.budget(0) - 0.001).abs() < 1e-12);
        assert!((cfg.budget(1) - 0.01).abs() < 1e-12);
        assert!((cfg.budget(2) - 0.01).abs() < 1e-12);
        // Default config: availability and drift declared, latency off.
        assert!(cfg.enabled(0));
        assert!(!cfg.enabled(1));
        assert!(cfg.enabled(2));
    }
}
