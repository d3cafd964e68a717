//! Proof of the shadow plane's hot-path isolation: the per-request
//! **sampling decision** — the only shadow code an unsampled request ever
//! executes — allocates **nothing**, at rate 0 (plane disabled, one branch)
//! and at rate 1 (counter fetch-add + SplitMix64 hash). Everything that
//! does allocate (job cloning, queue submission, the alternate estimator
//! runs) happens only on the sampled path, strictly after the response
//! body exists, and mostly off-thread.
//!
//! Requires the `alloc-track` feature (the counting global allocator) and
//! lives alone in its own integration binary: the allocation counters are
//! process-global, so any concurrently running test would attribute its
//! allocations to our measurement scope. For the same reason every scope
//! opens only once the plane's own worker threads have parked.

#![cfg(feature = "alloc-track")]

use std::time::{Duration, Instant};

use mnc_obs::alloc::AllocScope;
use mnc_obsd::{ObsDaemon, ObsdConfig};
use mnc_served::{ServedConfig, ShadowPlane};

fn plane(rate: f64) -> (ShadowPlane, ObsDaemon) {
    let daemon = ObsDaemon::new(ObsdConfig {
        flight_capacity: 64,
        ..ObsdConfig::default()
    });
    let mut cfg = ServedConfig::new(std::env::temp_dir().join("mnc-shadow-alloc-unused"));
    cfg.shadow_rate = rate;
    (ShadowPlane::new(&cfg, &daemon), daemon)
}

/// Blocks until every `mnc-shadow-*` worker is parked (state `S` in
/// `/proc/self/task/*/stat`) on several consecutive polls. A freshly
/// spawned worker allocates while it starts up, and those allocations
/// would land inside a scope opened before it reaches its blocking
/// receive.
fn wait_for_parked_workers() {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut quiet_polls = 0;
    while quiet_polls < 5 {
        assert!(Instant::now() < deadline, "shadow workers never parked");
        quiet_polls = if shadow_workers_parked() {
            quiet_polls + 1
        } else {
            0
        };
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn shadow_workers_parked() -> bool {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return true; // no procfs: nothing to wait on
    };
    tasks.flatten().all(|task| {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if !comm.starts_with("mnc-shadow-") {
            return true;
        }
        // The state is the first field after the parenthesized name.
        let stat = std::fs::read_to_string(task.path().join("stat")).unwrap_or_default();
        stat.rsplit_once(") ")
            .is_some_and(|(_, rest)| rest.starts_with('S'))
    })
}

#[test]
fn sampling_decision_allocates_nothing_at_any_rate() {
    for rate in [0.0, 0.5, 1.0] {
        let (plane, _daemon) = plane(rate);
        // Warm-up: fault in thread-locals and lazy state (there should be
        // none, but the measurement must not be the first call).
        let mut warm = 0u64;
        for _ in 0..64 {
            warm += u64::from(plane.should_sample());
        }
        wait_for_parked_workers();

        let scope = AllocScope::start();
        let mut hits = 0u64;
        for _ in 0..10_000 {
            hits += u64::from(plane.should_sample());
        }
        let delta = scope.measure();
        assert_eq!(
            delta.gross_bytes, 0,
            "sampling decision at rate {rate} must not allocate \
             (delta: {delta:?})"
        );
        assert_eq!(delta.allocs, 0, "no allocation events either: {delta:?}");

        // The decisions really ran: rate 0 never samples, rate 1 always.
        if rate == 0.0 {
            assert_eq!(hits + warm, 0);
        } else if rate == 1.0 {
            assert_eq!(hits, 10_000);
        } else {
            assert!(hits > 0 && hits < 10_000, "rate {rate} hit {hits}");
        }
    }
}
