//! Proof of the flight store's fixed-memory guarantee: once the daemon
//! recorder's rings are at capacity, recording a payload-free span
//! allocates **nothing** — records move into pre-allocated slots and the
//! overwritten record drops in place. Two producers are measured: a span
//! opened on the daemon recorder itself (the store), and a span on an
//! installed bounded recorder, forwarded into the store by its sink.
//!
//! Requires the `alloc-track` feature (the counting global allocator).
//! This test lives alone in its own integration binary on purpose: the
//! allocation counters are process-global, so any concurrently running
//! test would attribute its allocations to our measurement scope.

#![cfg(feature = "alloc-track")]

use mnc_obs::alloc::AllocScope;
use mnc_obs::Recorder;
use mnc_obsd::{ObsDaemon, ObsdConfig};

const CAPACITY: usize = 64;

/// Spans the daemon recorder's span ring has taken so far.
fn spans_pushed(daemon: &ObsDaemon) -> u64 {
    daemon.recorder().ring_stats().expect("bounded").0.pushed
}

/// Fills the store past capacity through `rec` (touching every
/// thread-local and lazy initialization on this thread), then asserts that
/// 1000 more spans through `rec` allocate nothing.
fn assert_spans_at_capacity_allocate_nothing(daemon: &ObsDaemon, rec: &Recorder) {
    for _ in 0..CAPACITY * 2 {
        let _g = rec.span("estimate");
    }
    assert_eq!(daemon.recorder().span_count(), CAPACITY);

    // Spans without an `op` label carry no heap payload, so zero gross
    // allocation is the exact expectation, not an approximation.
    let scope = AllocScope::start();
    for _ in 0..1000 {
        let _g = rec.span("estimate");
    }
    let delta = scope.measure();
    assert_eq!(
        delta.gross_bytes, 0,
        "flight recording at capacity must not allocate (delta: {delta:?})"
    );
    assert_eq!(delta.allocs, 0, "no allocation events either: {delta:?}");
}

#[test]
fn span_recording_at_ring_capacity_allocates_nothing() {
    let daemon = ObsDaemon::new(ObsdConfig {
        flight_capacity: CAPACITY,
        ..ObsdConfig::default()
    });

    // The store itself: guard open, drift sink (spans pass it by), push.
    assert_spans_at_capacity_allocate_nothing(&daemon, daemon.recorder());
    assert_eq!(spans_pushed(&daemon), (CAPACITY * 2 + 1000) as u64);

    // A bounded installed recorder: its own span storage is a ring too,
    // so the whole hot path — guard open, forwarding sink, store push,
    // recorder push — is allocation-free at capacity.
    let rec = Recorder::enabled_with_capacity(CAPACITY);
    assert!(daemon.install(&rec));
    assert_spans_at_capacity_allocate_nothing(&daemon, &rec);

    // The store kept rotating: every span was offered once and the
    // retained count stayed fixed.
    assert_eq!(spans_pushed(&daemon), 2 * (CAPACITY * 2 + 1000) as u64);
    assert_eq!(daemon.recorder().span_count(), CAPACITY);
}
